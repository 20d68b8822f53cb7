//! Fastest-Volume-Disposal-First — the paper's contribution (§IV).
//!
//! Per rescheduling point FVDF:
//!
//! 1. decides, per flow, whether the next slice should compress or transmit
//!    (Pseudocode 1: compressible ∧ free CPU ∧ `R·(1−ξ) > B`, Eq. 3);
//! 2. estimates each flow's completion time under the pessimistic
//!    "compression stops after this slice" assumption (Eq. 7):
//!    `Γ_F = δ + (V − (β·Δc + (1−β)·Δt)) / B`;
//! 3. lifts flow times to the coflow (Eq. 8): `Γ_C = max_f Γ_F`;
//! 4. online, divides `Γ_C` by the coflow's priority class `P`, which the
//!    `Upgrade` routine multiplies by `logbase = 1.2` at every arrival and
//!    completion (Pseudocode 3) — blocked coflows therefore rise
//!    exponentially and starvation is impossible;
//! 5. schedules coflows in Shortest-`Γ_C`-First order, giving each flow its
//!    minimum required rate `r = V_f / Γ_C` (§IV-A5) and backfilling the
//!    leftover bandwidth work-conservingly.

use crate::util::OrderedScratch;
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;
use swallow_fabric::{
    Allocation, Coflow, CoflowId, FabricView, FlowCommand, NodeId, Policy, TouchedCounters,
    VOLUME_EPS,
};
use swallow_metrics::{Phase, Telemetry};
use swallow_trace::{TraceEvent, Tracer};

/// How the compression decision is made — the granularity axis of the
/// paper's §I motivation: existing frameworks "compress all data associated
/// with a job once the compression function is enabled", while Swallow
/// decides per flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GateMode {
    /// The paper's per-flow Eq. 3 gate: compress iff `R·(1−ξ) > B` for this
    /// flow's own path.
    #[default]
    PerFlow,
    /// Coarse-grained "job-level" compression (Spark's
    /// `spark.shuffle.compress=true`): every compressible flow compresses,
    /// regardless of its path bandwidth.
    AlwaysOn,
    /// Compression globally off.
    AlwaysOff,
}

/// Tunables for FVDF; the defaults match the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct FvdfConfig {
    /// Online mode: apply the priority-class division `Γ_C / P` (Pseudocode
    /// 2, lines 4–6). The offline variant studied in §IV-A ignores `P`.
    pub online: bool,
    /// Priority-class multiplier per upgrade (Pseudocode 3: 1.2).
    pub logbase: f64,
    /// Master switch mirroring `swallow.smartCompress`; off makes FVDF a
    /// pure Shortest-Γ-First scheduler.
    pub compression: bool,
    /// Work-conserving backfill of leftover bandwidth (Varys-style). On by
    /// default; exposed for the ablation bench.
    pub backfill: bool,
    /// Compression-decision granularity (ignored when `compression` is
    /// false).
    pub gate: GateMode,
    /// Deadline-aware ordering: coflows carrying an absolute deadline form
    /// an urgent tier scheduled earliest-deadline-first ahead of every
    /// deadline-less coflow; the deadline-less tier keeps the plain
    /// Shortest-Γ_C-First order. On a trace with no deadlines the sort is
    /// *identical* to plain FVDF (every coflow lands in the Γ tier with the
    /// same key), so the variant is bit-exact with the clairvoyant policy.
    pub deadline_aware: bool,
}

impl Default for FvdfConfig {
    fn default() -> Self {
        Self {
            online: true,
            logbase: 1.2,
            compression: true,
            backfill: true,
            gate: GateMode::PerFlow,
            deadline_aware: false,
        }
    }
}

/// What FVDF remembers about one announced coflow between calls.
#[derive(Debug, Clone)]
struct CoflowState {
    id: CoflowId,
    /// Priority class `P`, as of the latest `allocate`.
    p: f64,
    /// Absolute deadline learned in `on_arrival`; read only when
    /// `config.deadline_aware` is set (the views carry no deadline).
    deadline: Option<f64>,
    /// The latest allocation left this coflow without service (no primary
    /// rate, no compression) — it is one of those `Upgrade` boosts.
    starved: bool,
}

/// One coflow of the view being planned: its resolved place in the service
/// order and its flows' slice of `plan_flows`.
#[derive(Debug, Clone)]
struct CoflowPlan {
    /// 0 for the deadline tier (FVDF-D only), 1 for the Γ tier.
    tier: u8,
    /// The deadline in tier 0, the adjusted `Γ_C` in tier 1.
    key: f64,
    coflow: CoflowId,
    /// Adjusted `Γ_C = Γ_C / P`, the rate target in either tier.
    gamma: f64,
    start: u32,
    len: u32,
    /// Index into `FvdfPolicy::table`; `UNTRACKED` for a coflow no
    /// `on_arrival` announced.
    slot: u32,
}

const UNTRACKED: u32 = u32::MAX;

impl CoflowPlan {
    /// Service order: deadline tier first and earliest-deadline-first
    /// inside it, then Shortest-`Γ_C`-First; ties fall to the coflow id, so
    /// the order is total and any sort yields the same sequence.
    fn service_order(&self, other: &Self) -> Ordering {
        self.tier
            .cmp(&other.tier)
            .then(self.key.total_cmp(&other.key))
            .then(self.coflow.cmp(&other.coflow))
    }
}

/// `p` after `times` upgrades — the multiplications `Upgrade` performs, one
/// rounding each, so applying them late gives the bits applying them at
/// every event gave.
fn aged(mut p: f64, logbase: f64, times: u32) -> f64 {
    for _ in 0..times {
        p *= logbase;
    }
    p
}

/// The FVDF policy.
#[derive(Debug, Clone)]
pub struct FvdfPolicy {
    config: FvdfConfig,
    /// One entry per coflow between its `on_arrival` and `on_completion`,
    /// ascending in coflow id — the order of `CoflowGroups::spans`, so
    /// `allocate` reads it with a cursor instead of a lookup.
    table: Vec<CoflowState>,
    /// `Upgrade` events since the latest `allocate`. Only `allocate` marks
    /// an entry starved and entries arrive unstarved, so between two calls
    /// no entry joins the starved set: every starved entry is owed exactly
    /// this many multiplications, applied when `P` is next read.
    pending_upgrades: u32,
    // Scratch buffers reused across reschedules so `allocate` performs no
    // steady-state heap allocation beyond the returned `Allocation`.
    scratch: OrderedScratch,
    cores_used: TouchedCounters,
    plan_flows: Vec<FlowPlan>,
    plan_index: Vec<CoflowPlan>,
    tracer: Tracer,
    /// Engine telemetry handle; when present the water-fill scan feeds the
    /// phase profiler (see [`swallow_metrics::telemetry::Phase::WaterFill`]).
    telemetry: Option<Arc<Telemetry>>,
}

impl FvdfPolicy {
    /// FVDF with the paper's defaults (online, compression on).
    pub fn new() -> Self {
        Self::with_config(FvdfConfig::default())
    }

    /// FVDF with explicit configuration.
    pub fn with_config(config: FvdfConfig) -> Self {
        assert!(config.logbase >= 1.0, "logbase must be ≥ 1");
        Self {
            config,
            table: Vec::new(),
            pending_upgrades: 0,
            scratch: OrderedScratch::default(),
            cores_used: TouchedCounters::default(),
            plan_flows: Vec::new(),
            plan_index: Vec::new(),
            tracer: Tracer::disabled(),
            telemetry: None,
        }
    }

    /// FVDF with compression disabled (the scheduler-only ablation).
    pub fn without_compression() -> Self {
        Self::with_config(FvdfConfig {
            compression: false,
            ..FvdfConfig::default()
        })
    }

    /// Deadline-aware FVDF: deadline coflows first (EDF among themselves),
    /// then the plain Shortest-Γ_C-First tail. Bit-exact with [`Self::new`]
    /// on deadline-less traces.
    pub fn deadline_aware() -> Self {
        Self::with_config(FvdfConfig {
            deadline_aware: true,
            ..FvdfConfig::default()
        })
    }

    /// Current priority class of a coflow (1 if untracked).
    pub fn priority_of(&self, coflow: CoflowId) -> f64 {
        let Ok(at) = self.table.binary_search_by_key(&coflow, |e| e.id) else {
            return 1.0;
        };
        let e = &self.table[at];
        if e.starved {
            aged(e.p, self.config.logbase, self.pending_upgrades)
        } else {
            e.p
        }
    }

    /// Pseudocode 3 `Upgrade`: multiply the priority class of every coflow
    /// *waiting for scheduling* — i.e. the ones the last allocation left
    /// without service. (Upgrading every active coflow, served or not,
    /// would collapse the Shortest-Γ ordering into arrival order under
    /// heavy event churn; the paper's stated purpose is to lift "a large
    /// coflow which is blocked by the continuously arriving small
    /// coflows".) The event only counts; [`Self::settle_upgrades`] pays.
    fn upgrade(&mut self) {
        self.pending_upgrades += 1;
    }

    /// Apply the upgrades counted since the latest `allocate` to the
    /// entries it left starved, and clear the marks for the next one.
    fn settle_upgrades(&mut self) {
        let times = std::mem::take(&mut self.pending_upgrades);
        for e in self.table.iter_mut().filter(|e| e.starved) {
            e.p = aged(e.p, self.config.logbase, times);
            e.starved = false;
        }
    }
}

impl Default for FvdfPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-flow decision computed during `TimeCalculation`.
#[derive(Debug, Clone)]
struct FlowPlan {
    /// Position in `view.flows`.
    pos: u32,
    src: NodeId,
    dst: NodeId,
    volume: f64,
    beta: bool,
}

impl Policy for FvdfPolicy {
    fn name(&self) -> &str {
        if self.config.deadline_aware {
            "FVDF-D"
        } else if self.config.compression {
            "FVDF"
        } else {
            "FVDF (no compression)"
        }
    }

    fn on_arrival(&mut self, coflow: &Coflow, _now: f64) {
        self.upgrade();
        let fresh = CoflowState {
            id: coflow.id,
            p: 1.0,
            deadline: coflow.deadline,
            starved: false,
        };
        // Ids ascend with arrival in every generator and reader, so the
        // search is for the trace that numbers them otherwise.
        if self.table.last().is_none_or(|last| last.id < coflow.id) {
            self.table.push(fresh);
        } else {
            match self.table.binary_search_by_key(&coflow.id, |e| e.id) {
                Err(at) => self.table.insert(at, fresh),
                // An id announced twice starts over.
                Ok(at) => self.table[at] = fresh,
            }
        }
    }

    fn on_completion(&mut self, coflow: CoflowId, _now: f64) {
        if let Ok(at) = self.table.binary_search_by_key(&coflow, |e| e.id) {
            self.table.remove(at);
        }
        self.upgrade();
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.telemetry = telemetry;
    }

    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        let delta = view.slice;
        let r_speed = view.compression.speed();
        self.settle_upgrades();

        // Detach the scratch buffers from `self` so the tracer and the
        // table below can still borrow the policy; they are restored before
        // returning, carrying their capacity to the next reschedule.
        let mut s = std::mem::take(&mut self.scratch);
        let mut cores_used = std::mem::take(&mut self.cores_used);
        let mut plan_flows = std::mem::take(&mut self.plan_flows);
        let mut plan_index = std::mem::take(&mut self.plan_index);

        // Track CPU cores committed to compression per sender while making
        // the β decisions, so "CPU resources are enough" (Pseudocode 1,
        // line 4) accounts for flows already granted a core this round.
        cores_used.reset(view.fabric.num_nodes());

        // TimeCalculation per coflow (Pseudocode 2, lines 12–23), coflows in
        // ascending id and each coflow's flows in ascending id. Plans are
        // flattened: `plan_flows` holds every coflow's flows contiguously and
        // each `plan_index` entry records its slice of it. The table ascends
        // in the same ids, so `at` only ever moves forward.
        s.begin(view);
        plan_flows.clear();
        plan_index.clear();
        let mut at = 0;
        for span in s.groups.spans() {
            let cid = span.coflow;
            let mut gamma_c = 0.0f64;
            let start = plan_flows.len() as u32;
            for (pos, f) in s.groups.flows(span, &view.flows) {
                let b = view.min_port_cap(f);
                let xi = view.compression.ratio(f.original_size);
                // CompressionStrategy (Pseudocode 1). The free-core probe
                // reads the CPU trace, so it comes last: a flow that cannot
                // compress anyway never asks.
                let beta = self.config.compression
                    && f.compressible
                    && f.raw > VOLUME_EPS
                    && match self.config.gate {
                        GateMode::PerFlow => r_speed * (1.0 - xi) > b,
                        GateMode::AlwaysOn => r_speed > 0.0,
                        GateMode::AlwaysOff => false,
                    }
                    && cores_used.get(f.src.index()) < view.free_cores(f.src);
                if beta {
                    cores_used.inc(f.src.index());
                }
                // Eq. (7): worst-case expected FCT assuming compression is
                // disabled after the current slice.
                let v = f.volume();
                let delta_c = (r_speed * delta).min(f.raw) * (1.0 - xi);
                let delta_t = b * delta;
                let disposal = if beta { delta_c } else { delta_t };
                let gamma_f = delta + (v - disposal).max(0.0) / b;
                gamma_c = gamma_c.max(gamma_f);
                plan_flows.push(FlowPlan {
                    pos: pos as u32,
                    src: f.src,
                    dst: f.dst,
                    volume: v,
                    beta,
                });
            }
            let len = plan_flows.len() as u32 - start;
            // The unadjusted Eq. 8 estimate, before priority aging.
            self.tracer.emit(view.now, || TraceEvent::VolumeDisposal {
                coflow: cid.0,
                gamma: gamma_c,
            });
            while self.table.get(at).is_some_and(|e| e.id < cid) {
                at += 1;
            }
            // A coflow no `on_arrival` announced has P = 1, no deadline and
            // nowhere to be marked starved, so it never ages.
            let (slot, p, deadline) = match self.table.get(at) {
                Some(e) if e.id == cid => (at as u32, e.p, e.deadline),
                _ => (UNTRACKED, 1.0, None),
            };
            // Online: adjusted Γ_C = Γ_C / P (Pseudocode 2, lines 4–6).
            let gamma = if self.config.online {
                gamma_c / p
            } else {
                gamma_c
            };
            // In deadline-aware mode deadline coflows form an urgent EDF
            // tier ahead of the Γ tier; on a deadline-less trace every key
            // is the one plain FVDF resolves.
            let (tier, key) = match deadline {
                Some(d) if self.config.deadline_aware => (0, d),
                _ => (1, gamma),
            };
            plan_index.push(CoflowPlan {
                tier,
                key,
                coflow: cid,
                gamma,
                start,
                len,
                slot,
            });
        }

        // Shortest-Γ_C-First (Pseudocode 2, line 9).
        plan_index.sort_unstable_by(CoflowPlan::service_order);
        self.tracer.emit(view.now, || TraceEvent::ScheduleOrder {
            policy: self.name().to_string(),
            order: plan_index.iter().map(|c| c.coflow.0).collect(),
        });

        // VolumeDisposal (Pseudocode 2, lines 24–35): compress β-flows; give
        // transmitting flows the minimum rate r = V_f / Γ_C on the residual
        // capacity. The residual scan plus backfill is the water-fill phase
        // of the profiler; the Instant is read only when telemetry is on.
        // Only time water-fill on boundaries the collector marked as
        // instrumented (Telemetry::begin_boundary in the engine loop) so
        // profiling cost scales with the stride, not the boundary count.
        let wf_started = self
            .telemetry
            .as_deref()
            .is_some_and(|t| t.is_active())
            .then(Instant::now);
        for c in plan_index.iter() {
            // `r = f.V / C.Γ_C` uses the coflow's *unadjusted* completion
            // target; with aging we keep the adjusted value as the target so
            // long-starved coflows also get faster rates once scheduled.
            let gamma = c.gamma.max(delta);
            let mut served = false;
            for f in &plan_flows[c.start as usize..(c.start + c.len) as usize] {
                if f.beta {
                    s.cmds.set(f.pos as usize, FlowCommand::compressing());
                    served = true;
                } else {
                    s.flow_order.push(f.pos);
                    let want = f.volume / gamma;
                    let granted = s.residual.take(f.src, f.dst, want);
                    if granted > 0.0 {
                        s.cmds.set(f.pos as usize, FlowCommand::transmit(granted));
                        served = true;
                    }
                }
            }
            // A coflow counts as starved when the primary pass gave none of
            // its flows a rate or a compression slot; `Upgrade` will raise it.
            if !served && c.slot != UNTRACKED {
                self.table[c.slot as usize].starved = true;
            }
        }
        if self.config.backfill {
            // Leftover bandwidth flows to coflows in priority order (the
            // Varys backfilling rule), keeping the allocation work-
            // conserving without inverting the Γ order.
            s.backfill(view);
        }
        let alloc = s.cmds.to_allocation(&view.flows);
        if let (Some(t), Some(s)) = (self.telemetry.as_deref(), wf_started) {
            t.record_phase(Phase::WaterFill, s.elapsed());
        }

        self.scratch = s;
        self.cores_used = cores_used;
        self.plan_flows = plan_flows;
        self.plan_index = plan_index;
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::ProfiledCompression;
    use crate::ordered::OrderedPolicy;
    use std::sync::Arc;
    use swallow_compress::Table2;
    use swallow_fabric::view::ConstCompression;
    use swallow_fabric::{units, Coflow, Engine, Fabric, FlowSpec, SimConfig};

    fn run_with(
        policy: &mut dyn Policy,
        coflows: Vec<Coflow>,
        cap: f64,
        comp: Arc<dyn swallow_fabric::view::CompressionSpec>,
    ) -> swallow_fabric::SimResult {
        Engine::new(
            Fabric::uniform(6, cap),
            coflows,
            SimConfig::default().with_slice(0.01).with_compression(comp),
        )
        .run(policy)
    }

    fn simple_trace() -> Vec<Coflow> {
        vec![
            Coflow::builder(0)
                .flow(FlowSpec::new(0, 0, 1, 40.0 * units::MB))
                .flow(FlowSpec::new(1, 2, 3, 40.0 * units::MB))
                .build(),
            Coflow::builder(1)
                .arrival(0.1)
                .flow(FlowSpec::new(2, 0, 3, 10.0 * units::MB))
                .build(),
        ]
    }

    #[test]
    fn completes_without_compression() {
        let res = run_with(
            &mut FvdfPolicy::without_compression(),
            simple_trace(),
            units::mbps(100.0),
            Arc::new(ConstCompression::disabled()),
        );
        assert!(res.all_complete());
        assert_eq!(res.traffic_reduction(), 0.0);
    }

    #[test]
    fn compression_reduces_traffic_and_cct_at_low_bandwidth() {
        // 100 Mbps: LZ4 disposal speed (297 MB/s) >> 12.5 MB/s → compress.
        let comp: Arc<dyn swallow_fabric::view::CompressionSpec> =
            Arc::new(ProfiledCompression::constant(Table2::Lz4));
        let with = run_with(
            &mut FvdfPolicy::new(),
            simple_trace(),
            units::mbps(100.0),
            comp.clone(),
        );
        let without = run_with(
            &mut FvdfPolicy::without_compression(),
            simple_trace(),
            units::mbps(100.0),
            comp,
        );
        assert!(with.all_complete() && without.all_complete());
        assert!(
            with.traffic_reduction() > 0.3,
            "reduction={}",
            with.traffic_reduction()
        );
        assert!(
            with.avg_cct() < without.avg_cct(),
            "with={} without={}",
            with.avg_cct(),
            without.avg_cct()
        );
    }

    #[test]
    fn compression_gate_disables_at_10gbps() {
        // 10 Gbps = 1250 MB/s > LZ4's 297 MB/s disposal speed → never
        // compress (the paper: "Swallow will disable compression when
        // bandwidth is sufficient").
        let comp: Arc<dyn swallow_fabric::view::CompressionSpec> =
            Arc::new(ProfiledCompression::constant(Table2::Lz4));
        let res = run_with(
            &mut FvdfPolicy::new(),
            simple_trace(),
            units::gbps(10.0),
            comp,
        );
        assert!(res.all_complete());
        assert!(
            res.traffic_reduction() < 1e-9,
            "no compression should happen: {}",
            res.traffic_reduction()
        );
    }

    #[test]
    fn incompressible_flows_are_never_compressed() {
        let coflows = vec![Coflow::builder(0)
            .flow(FlowSpec::new(0, 0, 1, 10.0 * units::MB).incompressible())
            .build()];
        let comp: Arc<dyn swallow_fabric::view::CompressionSpec> =
            Arc::new(ProfiledCompression::constant(Table2::Lz4));
        let res = run_with(&mut FvdfPolicy::new(), coflows, units::mbps(100.0), comp);
        assert!(res.all_complete());
        assert_eq!(res.traffic_reduction(), 0.0);
    }

    #[test]
    fn beats_or_matches_sebf_on_average_cct_with_compression() {
        let comp: Arc<dyn swallow_fabric::view::CompressionSpec> =
            Arc::new(ProfiledCompression::constant(Table2::Lz4));
        let fvdf = run_with(
            &mut FvdfPolicy::new(),
            simple_trace(),
            units::mbps(100.0),
            comp.clone(),
        );
        let sebf = run_with(
            &mut OrderedPolicy::sebf(),
            simple_trace(),
            units::mbps(100.0),
            comp,
        );
        assert!(
            fvdf.avg_cct() <= sebf.avg_cct() * 1.01,
            "fvdf={} sebf={}",
            fvdf.avg_cct(),
            sebf.avg_cct()
        );
    }

    #[test]
    fn priority_aging_prevents_starvation() {
        // A large coflow plus a stream of small ones sharing its ports.
        // Without aging the large one would be preempted indefinitely; the
        // exponential priority class must bound its completion.
        let mut coflows = vec![Coflow::builder(0)
            .flow(FlowSpec::new(0, 0, 1, 50.0 * units::MB))
            .build()];
        for i in 1..40u64 {
            coflows.push(
                Coflow::builder(i)
                    .arrival(i as f64 * 0.25)
                    .flow(FlowSpec::new(i, 0, 1, 2.0 * units::MB))
                    .build(),
            );
        }
        let comp: Arc<dyn swallow_fabric::view::CompressionSpec> =
            Arc::new(ConstCompression::disabled());
        let res = run_with(
            &mut FvdfPolicy::without_compression(),
            coflows,
            units::mbps(100.0),
            comp,
        );
        assert!(res.all_complete(), "large coflow starved");
        let big = res
            .coflows
            .iter()
            .find(|c| c.id == CoflowId(0))
            .unwrap()
            .cct()
            .unwrap();
        // Total work: 50 + 39·2 = 128 MB at 12.5 MB/s ≈ 10.2 s. The big
        // coflow must finish well before all small ones are done + slack —
        // i.e. aging must have boosted it past later arrivals.
        assert!(big < 11.0, "big coflow waited too long: {big}");
    }

    #[test]
    fn upgrade_boosts_only_starved_coflows() {
        let mut p = FvdfPolicy::new();
        let c = Coflow::builder(7).flow(FlowSpec::new(0, 0, 1, 1.0)).build();
        p.on_arrival(&c, 0.0);
        let c2 = Coflow::builder(8).flow(FlowSpec::new(1, 0, 1, 1.0)).build();
        p.on_arrival(&c2, 1.0);
        // No allocation yet → nothing marked starved → no aging.
        assert_eq!(p.priority_of(CoflowId(7)), 1.0);
        assert_eq!(p.priority_of(CoflowId(8)), 1.0);
        // Mark coflow 7 as starved the way `allocate` does — after settling
        // the count so far — and fire two upgrade events.
        p.settle_upgrades();
        p.table[0].starved = true;
        let c3 = Coflow::builder(9).flow(FlowSpec::new(2, 0, 1, 1.0)).build();
        p.on_arrival(&c3, 2.0);
        p.on_completion(CoflowId(9), 3.0);
        assert!((p.priority_of(CoflowId(7)) - 1.44).abs() < 1e-12);
        assert_eq!(p.priority_of(CoflowId(8)), 1.0);
        assert_eq!(p.priority_of(CoflowId(9)), 1.0); // removed → default

        // Nothing has been multiplied yet: the two events are a count, and
        // the next `allocate` settles them into the table.
        assert_eq!((p.table[0].p, p.pending_upgrades), (1.0, 2));
        p.settle_upgrades();
        assert_eq!(p.table[0].p.to_bits(), (1.0f64 * 1.2 * 1.2).to_bits());
        assert_eq!((p.table[1].p, p.pending_upgrades), (1.0, 0));
    }

    #[test]
    fn served_coflows_do_not_age() {
        // Two disjoint coflows: both get service every round, so arrivals
        // and completions of others never change their priorities.
        let fabric = Fabric::uniform(6, 100.0);
        let cpu = swallow_fabric::CpuModel::unconstrained(6, 8);
        let comp = ConstCompression::disabled();
        let mut policy = FvdfPolicy::new();
        let a = Coflow::builder(1)
            .flow(FlowSpec::new(0, 0, 1, 50.0))
            .build();
        let b = Coflow::builder(2)
            .flow(FlowSpec::new(1, 2, 3, 50.0))
            .build();
        policy.on_arrival(&a, 0.0);
        policy.on_arrival(&b, 0.0);
        let flows = vec![
            swallow_fabric::FlowView {
                id: swallow_fabric::FlowId(0),
                coflow: CoflowId(1),
                src: swallow_fabric::NodeId(0),
                dst: swallow_fabric::NodeId(1),
                original_size: 50.0,
                raw: 50.0,
                compressed: 0.0,
                arrival: 0.0,
                compressible: true,
            },
            swallow_fabric::FlowView {
                id: swallow_fabric::FlowId(1),
                coflow: CoflowId(2),
                src: swallow_fabric::NodeId(2),
                dst: swallow_fabric::NodeId(3),
                original_size: 50.0,
                raw: 50.0,
                compressed: 0.0,
                arrival: 0.0,
                compressible: true,
            },
        ];
        let view = swallow_fabric::FabricView {
            now: 0.0,
            slice: 0.01,
            fabric: &fabric,
            cpu: &cpu,
            compression: &comp,
            flows,
        };
        let alloc = policy.allocate(&view);
        assert!(alloc.get(swallow_fabric::FlowId(0)).rate > 0.0);
        assert!(alloc.get(swallow_fabric::FlowId(1)).rate > 0.0);
        assert!(policy.table.iter().all(|e| !e.starved));
        let c = Coflow::builder(3).flow(FlowSpec::new(2, 4, 5, 1.0)).build();
        policy.on_arrival(&c, 1.0);
        assert_eq!(p_of(&policy, 1), 1.0);
        assert_eq!(p_of(&policy, 2), 1.0);
    }

    fn p_of(p: &FvdfPolicy, id: u64) -> f64 {
        p.priority_of(CoflowId(id))
    }

    #[test]
    fn offline_mode_ignores_priorities() {
        let mut p = FvdfPolicy::with_config(FvdfConfig {
            online: false,
            ..FvdfConfig::default()
        });
        // Offline FVDF on the simple trace must still complete.
        let comp: Arc<dyn swallow_fabric::view::CompressionSpec> =
            Arc::new(ConstCompression::disabled());
        let res = run_with(&mut p, simple_trace(), units::mbps(100.0), comp);
        assert!(res.all_complete());
    }

    #[test]
    fn deadline_tier_preempts_shorter_gamma_coflow() {
        // The big coflow carries a deadline; plain FVDF would serve the
        // small one first (smaller Γ), FVDF-D must serve the deadline tier.
        let coflows = vec![
            Coflow::builder(0)
                .deadline(11.0)
                .flow(FlowSpec::new(0, 0, 1, 100.0))
                .build(),
            Coflow::builder(1)
                .flow(FlowSpec::new(1, 0, 2, 10.0))
                .build(),
        ];
        let comp: Arc<dyn swallow_fabric::view::CompressionSpec> =
            Arc::new(ConstCompression::disabled());
        let res = run_with(&mut FvdfPolicy::deadline_aware(), coflows, 10.0, comp);
        assert!(res.all_complete());
        let big = res.coflows.iter().find(|c| c.id == CoflowId(0)).unwrap();
        assert!(
            (big.cct().unwrap() - 10.0).abs() < 0.05,
            "deadline coflow must run first: {:?}",
            big.cct()
        );
    }

    #[test]
    fn deadline_aware_matches_plain_fvdf_without_deadlines() {
        let comp: Arc<dyn swallow_fabric::view::CompressionSpec> =
            Arc::new(ProfiledCompression::constant(Table2::Lz4));
        let plain = run_with(
            &mut FvdfPolicy::new(),
            simple_trace(),
            units::mbps(100.0),
            comp.clone(),
        );
        let aware = run_with(
            &mut FvdfPolicy::deadline_aware(),
            simple_trace(),
            units::mbps(100.0),
            comp,
        );
        for (a, b) in plain.coflows.iter().zip(aware.coflows.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.cct().unwrap().to_bits(),
                b.cct().unwrap().to_bits(),
                "coflow {:?} diverged",
                a.id
            );
        }
    }

    #[test]
    fn cpu_exhaustion_falls_back_to_transmission() {
        // Zero free cores anywhere: β must be 0 for every flow even though
        // Eq. 3 favours compression.
        let cpu = swallow_fabric::CpuModel::uniform(6, 4, swallow_fabric::CpuTrace::constant(1.0));
        let comp: Arc<dyn swallow_fabric::view::CompressionSpec> =
            Arc::new(ProfiledCompression::constant(Table2::Lz4));
        let res = Engine::new(
            Fabric::uniform(6, units::mbps(100.0)),
            simple_trace(),
            SimConfig::default()
                .with_slice(0.01)
                .with_compression(comp)
                .with_cpu(cpu),
        )
        .run(&mut FvdfPolicy::new());
        assert!(res.all_complete());
        assert_eq!(res.traffic_reduction(), 0.0);
    }
}

#[cfg(test)]
mod equation_tests {
    use super::*;
    use swallow_fabric::cpu::CpuModel;
    use swallow_fabric::view::{ConstCompression, FabricView, FlowView};
    use swallow_fabric::{Fabric, FlowId, NodeId};

    /// Hand-check Eq. 7 through the allocation: with one coflow of one flow,
    /// the assigned transmission rate is V / Γ_F, where
    /// Γ_F = δ + (V − Δ)/B with Δ the first-slice disposal.
    #[test]
    fn eq7_drives_the_rate() {
        let fabric = Fabric::uniform(2, 10.0); // B = 10
        let cpu = CpuModel::unconstrained(2, 4);
        // Slow codec: R(1−ξ) = 4·0.5 = 2 < B → β = 0, pure transmission.
        let comp = ConstCompression::new("slow", 4.0, 0.5);
        let view = FabricView {
            now: 0.0,
            slice: 0.1, // δ
            fabric: &fabric,
            cpu: &cpu,
            compression: &comp,
            flows: vec![FlowView {
                id: FlowId(0),
                coflow: CoflowId(1),
                src: NodeId(0),
                dst: NodeId(1),
                original_size: 50.0,
                raw: 50.0,
                compressed: 0.0,
                arrival: 0.0,
                compressible: true,
            }],
        };
        let mut p = FvdfPolicy::new();
        let c = Coflow::builder(1).build();
        p.on_arrival(&c, 0.0);
        let alloc = p.allocate(&view);
        let cmd = alloc.get(FlowId(0));
        assert!(!cmd.compress, "Eq. 3 fails → transmit");
        // Γ_F = 0.1 + (50 − 10·0.1)/10 = 5.0; r = V/Γ = 10 before backfill,
        // and backfill tops it up to the full port rate (10) anyway.
        assert!((cmd.rate - 10.0).abs() < 1e-9, "rate={}", cmd.rate);
    }

    /// With a fast codec the gate opens and the slice goes to compression.
    #[test]
    fn eq3_opens_gate_and_flow_compresses() {
        let fabric = Fabric::uniform(2, 10.0);
        let cpu = CpuModel::unconstrained(2, 4);
        // R(1−ξ) = 100·0.5 = 50 > B = 10.
        let comp = ConstCompression::new("fast", 100.0, 0.5);
        let view = FabricView {
            now: 0.0,
            slice: 0.1,
            fabric: &fabric,
            cpu: &cpu,
            compression: &comp,
            flows: vec![FlowView {
                id: FlowId(0),
                coflow: CoflowId(1),
                src: NodeId(0),
                dst: NodeId(1),
                original_size: 50.0,
                raw: 50.0,
                compressed: 0.0,
                arrival: 0.0,
                compressible: true,
            }],
        };
        let mut p = FvdfPolicy::new();
        let alloc = p.allocate(&view);
        assert!(alloc.get(FlowId(0)).compress);
    }

    /// Shortest-Γ_C-First: of two coflows on the same port, the one with
    /// the smaller volume gets the primary (larger) rate.
    #[test]
    fn shortest_gamma_first_ordering() {
        let fabric = Fabric::uniform(3, 10.0);
        let cpu = CpuModel::unconstrained(3, 4);
        let comp = ConstCompression::disabled();
        let mk = |id: u64, c: u64, vol: f64| FlowView {
            id: FlowId(id),
            coflow: CoflowId(c),
            src: NodeId(0),
            dst: NodeId(1 + (id % 2) as u32),
            original_size: vol,
            raw: vol,
            compressed: 0.0,
            arrival: 0.0,
            compressible: true,
        };
        let view = FabricView {
            now: 0.0,
            slice: 0.01,
            fabric: &fabric,
            cpu: &cpu,
            compression: &comp,
            flows: vec![mk(0, 1, 100.0), mk(1, 2, 10.0)],
        };
        let mut p = FvdfPolicy::new();
        let alloc = p.allocate(&view);
        // Small coflow 2 is primary and its Eq. 7 rate claim (V/Γ ≈ 10)
        // consumes the whole shared egress; the large coflow waits — strict
        // Shortest-Γ_C-First preemption.
        let small = alloc.get(FlowId(1)).rate;
        let large = alloc.get(FlowId(0)).rate;
        assert!((small - 10.0).abs() < 1e-9, "small={small}");
        assert_eq!(large, 0.0, "large must wait behind the smaller coflow");
    }
}
