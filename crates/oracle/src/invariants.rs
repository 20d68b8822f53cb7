//! The online invariant checker: physics the engine must never violate.
//!
//! [`InvariantChecker`] implements [`BoundaryObserver`] and is attached with
//! [`SimConfig::with_check`](swallow_fabric::SimConfig::with_check). At every
//! visited slice boundary it asserts:
//!
//! * **`port_capacity`** — the transmitting rates crossing any egress or
//!   ingress port never exceed its capacity (within the same `1e-6` relative
//!   tolerance the engine's feasibility clamp guarantees);
//! * **`negative_residual`** — no flow's raw or compressed backlog goes
//!   negative (the closed-form segment arithmetic keeps both exactly
//!   non-negative, so even a tiny undershoot is a bug);
//! * **`work_conservation`** — no flow sits idle with volume left while
//!   *both* of its ports have spare capacity (every in-repo policy backfills
//!   leftover bandwidth, so an idle flow must be bottlenecked, compressing,
//!   or fault-idled);
//! * **`volume_inflation`** — disposed volume `V = d + D` never grows:
//!   compression with ξ ≤ 1 and transmission both shrink it, so it must be
//!   monotonically non-increasing and never exceed the original size;
//! * **`byte_ledger`** — wire bytes and compressor input never exceed the
//!   original flow size (bytes cannot be created);
//! * **`fault_idle`** — a flow whose sender or receiver is inside a crash
//!   window carries zero rate and does not compress.
//!
//! The checker is purely observational: it records [`Violation`]s behind a
//! mutex (and optionally mirrors them to a [`Tracer`] as
//! `invariant_violated` events) but never touches engine state, so a checked
//! run is bit-identical to an unchecked one.

use std::collections::BTreeMap;
use std::sync::Mutex;

use swallow_fabric::{BoundaryObserver, BoundarySnapshot, FlowId, NodeId, VOLUME_EPS};
use swallow_trace::{TraceEvent, Tracer};

/// The invariant classes the checker enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Invariant {
    /// Per-port rate sums exceed capacity.
    PortCapacity,
    /// A raw or compressed backlog went negative.
    NegativeResidual,
    /// A flow idled with volume left while both its ports had spare.
    WorkConservation,
    /// Volume grew, or exceeded the original size.
    VolumeInflation,
    /// Wire bytes or compressor input exceeded the original size.
    ByteLedger,
    /// A fault-idled endpoint carried rate or a compression core.
    FaultIdle,
}

impl Invariant {
    /// Stable machine name (used in trace events and reports).
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::PortCapacity => "port_capacity",
            Invariant::NegativeResidual => "negative_residual",
            Invariant::WorkConservation => "work_conservation",
            Invariant::VolumeInflation => "volume_inflation",
            Invariant::ByteLedger => "byte_ledger",
            Invariant::FaultIdle => "fault_idle",
        }
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Violation {
    /// Boundary time at which the violation was observed.
    pub time: f64,
    /// Which invariant failed.
    pub invariant: Invariant,
    /// Offending flow, when the invariant is per-flow.
    pub flow: Option<u64>,
    /// Offending node/port, when the invariant is per-port.
    pub node: Option<u32>,
    /// Human-readable specifics (loads, capacities, volumes).
    pub detail: String,
}

/// Tunables for [`InvariantChecker`].
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Relative over-capacity tolerance, matching the engine's feasibility
    /// clamp (`load > cap · (1 + tol)` flags).
    pub capacity_tol: f64,
    /// Enable the work-conservation check. It assumes a backfilling policy;
    /// disable it when studying deliberately non-work-conserving schedules.
    pub work_conservation: bool,
    /// Fraction of a port's capacity that counts as "spare" for the
    /// work-conservation check. Both ports of an idle flow must have more
    /// than this much headroom before the checker flags it, which keeps
    /// floating-point crumbs from the clamp out of the verdict.
    pub spare_frac: f64,
    /// Cap on stored [`Violation`]s (the total count keeps counting).
    pub max_recorded: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            capacity_tol: 1e-6,
            work_conservation: true,
            spare_frac: 0.01,
            max_recorded: 1000,
        }
    }
}

/// Absolute slack for byte-ledger comparisons on a flow of `size` bytes.
fn ledger_eps(size: f64) -> f64 {
    1e-6 * (1.0 + size.abs())
}

#[derive(Default)]
struct Inner {
    boundaries: u64,
    total: u64,
    violations: Vec<Violation>,
    /// Last observed volume per flow, for the monotonicity check.
    last_volume: BTreeMap<FlowId, f64>,
}

/// The online invariant checker (see the module docs for the invariants).
///
/// Keep a second handle (it is used behind an `Arc`) to read the verdict
/// after the run: [`InvariantChecker::violations`],
/// [`InvariantChecker::is_clean`].
pub struct InvariantChecker {
    config: CheckConfig,
    tracer: Tracer,
    inner: Mutex<Inner>,
}

impl Default for InvariantChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl InvariantChecker {
    /// Checker with the default [`CheckConfig`].
    pub fn new() -> Self {
        Self::with_config(CheckConfig::default())
    }

    /// Checker with explicit tunables.
    pub fn with_config(config: CheckConfig) -> Self {
        assert!(config.capacity_tol >= 0.0, "tolerance must be non-negative");
        assert!(
            (0.0..1.0).contains(&config.spare_frac),
            "spare fraction must be in [0,1)"
        );
        Self {
            config,
            tracer: Tracer::disabled(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Mirror every violation to `tracer` as an `invariant_violated` event.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Number of slice boundaries observed so far.
    pub fn boundaries(&self) -> u64 {
        self.inner.lock().unwrap().boundaries
    }

    /// Total violations seen (including ones beyond the recording cap).
    pub fn total_violations(&self) -> u64 {
        self.inner.lock().unwrap().total
    }

    /// The recorded violations, in observation order.
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().unwrap().violations.clone()
    }

    /// True when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// Forget everything observed so far (for reuse across runs).
    pub fn reset(&self) {
        let mut g = self.inner.lock().unwrap();
        *g = Inner::default();
    }

    fn record(
        &self,
        g: &mut Inner,
        time: f64,
        invariant: Invariant,
        flow: Option<FlowId>,
        node: Option<NodeId>,
        detail: String,
    ) {
        g.total += 1;
        self.tracer.emit(time, || TraceEvent::InvariantViolated {
            invariant: invariant.name().to_string(),
            flow: flow.map(|f| f.0),
            node: node.map(|n| n.0),
            detail: detail.clone(),
        });
        if g.violations.len() < self.config.max_recorded {
            g.violations.push(Violation {
                time,
                invariant,
                flow: flow.map(|f| f.0),
                node: node.map(|n| n.0),
                detail,
            });
        }
    }
}

impl BoundaryObserver for InvariantChecker {
    fn at_boundary(&self, ctx: &BoundarySnapshot<'_>) {
        let mut g = self.inner.lock().unwrap();
        g.boundaries += 1;
        let n = ctx.fabric.num_nodes();
        let faulted = !ctx.faults.is_empty();

        let (egress, ingress) = ctx.port_loads();

        // port_capacity: no port carries more than its capacity.
        for i in 0..n {
            let node = NodeId(i as u32);
            let e_cap = ctx.fabric.egress_cap(node);
            if egress[i] > e_cap * (1.0 + self.config.capacity_tol) {
                let detail = format!("egress load {} exceeds cap {e_cap}", egress[i]);
                self.record(
                    &mut g,
                    ctx.now,
                    Invariant::PortCapacity,
                    None,
                    Some(node),
                    detail,
                );
            }
            let i_cap = ctx.fabric.ingress_cap(node);
            if ingress[i] > i_cap * (1.0 + self.config.capacity_tol) {
                let detail = format!("ingress load {} exceeds cap {i_cap}", ingress[i]);
                self.record(
                    &mut g,
                    ctx.now,
                    Invariant::PortCapacity,
                    None,
                    Some(node),
                    detail,
                );
            }
        }

        for f in ctx.flows {
            // negative_residual: the closed forms keep both parts exactly
            // non-negative; any undershoot is an arithmetic bug.
            if f.raw < -1e-9 || f.compressed < -1e-9 {
                let detail = format!("raw {} / compressed {} went negative", f.raw, f.compressed);
                self.record(
                    &mut g,
                    ctx.now,
                    Invariant::NegativeResidual,
                    Some(f.id),
                    None,
                    detail,
                );
            }

            // volume_inflation: V = d + D never exceeds the original size
            // (ξ ≤ 1) and never grows between boundaries.
            let volume = f.volume();
            let eps = ledger_eps(f.original_size);
            if volume > f.original_size + eps {
                let detail = format!("volume {volume} exceeds original size {}", f.original_size);
                self.record(
                    &mut g,
                    ctx.now,
                    Invariant::VolumeInflation,
                    Some(f.id),
                    None,
                    detail,
                );
            }
            let last = g.last_volume.insert(f.id, volume);
            if let Some(prev) = last {
                if volume > prev + eps {
                    let detail = format!("volume grew from {prev} to {volume}");
                    self.record(
                        &mut g,
                        ctx.now,
                        Invariant::VolumeInflation,
                        Some(f.id),
                        None,
                        detail,
                    );
                }
            }

            // byte_ledger: bytes cannot be created.
            if f.wire_bytes > f.original_size + eps {
                let detail = format!(
                    "wire bytes {} exceed original size {}",
                    f.wire_bytes, f.original_size
                );
                self.record(
                    &mut g,
                    ctx.now,
                    Invariant::ByteLedger,
                    Some(f.id),
                    None,
                    detail,
                );
            }
            if f.compressed_input > f.original_size + eps {
                let detail = format!(
                    "compressor input {} exceeds original size {}",
                    f.compressed_input, f.original_size
                );
                self.record(
                    &mut g,
                    ctx.now,
                    Invariant::ByteLedger,
                    Some(f.id),
                    None,
                    detail,
                );
            }

            // fault_idle: crash windows idle both endpoints completely.
            let down = faulted
                && (ctx.faults.is_worker_down(f.src.0, ctx.now)
                    || ctx.faults.is_worker_down(f.dst.0, ctx.now));
            if down && (f.cmd.rate > 0.0 || f.cmd.compress) {
                let detail = format!(
                    "endpoint in crash window but rate {} / compress {}",
                    f.cmd.rate, f.cmd.compress
                );
                self.record(
                    &mut g,
                    ctx.now,
                    Invariant::FaultIdle,
                    Some(f.id),
                    None,
                    detail,
                );
            }

            // work_conservation: an idle flow with volume left must be
            // bottlenecked on at least one (fault-effective) port.
            if self.config.work_conservation
                && !down
                && !f.cmd.compress
                && f.cmd.rate <= 0.0
                && volume > VOLUME_EPS
            {
                let e_cap = ctx.fabric.egress_cap(f.src)
                    * if faulted {
                        ctx.faults.link_factor(f.src.0, ctx.now)
                    } else {
                        1.0
                    };
                let i_cap = ctx.fabric.ingress_cap(f.dst)
                    * if faulted {
                        ctx.faults.link_factor(f.dst.0, ctx.now)
                    } else {
                        1.0
                    };
                let spare_e = e_cap - egress[f.src.index()];
                let spare_i = i_cap - ingress[f.dst.index()];
                if spare_e > self.config.spare_frac * e_cap
                    && spare_i > self.config.spare_frac * i_cap
                {
                    let detail = format!(
                        "idle with volume {volume} while egress spare {spare_e} \
                         and ingress spare {spare_i}"
                    );
                    self.record(
                        &mut g,
                        ctx.now,
                        Invariant::WorkConservation,
                        Some(f.id),
                        None,
                        detail,
                    );
                }
            }
        }
    }
}
