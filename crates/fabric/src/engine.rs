//! The slice-based simulation loop.
//!
//! Time is divided into slices of length δ (the paper's default is 10 ms;
//! Fig. 7(c) studies the sensitivity). Within a slice every flow follows the
//! [`crate::FlowCommand`] assigned at the last rescheduling point: either it
//! compresses raw bytes on one CPU core of its sender, or it transmits at its
//! allocated rate. Arrivals and completions are only *acted upon* at slice
//! boundaries — exactly the quantization that makes long slices wasteful for
//! small flows (§VI-A1) — although completion timestamps are interpolated
//! within the slice so FCT statistics are not artificially quantized.
//!
//! # The fast path
//!
//! The loop is engineered so that steady-state slices perform no heap
//! allocation and, under [`Reschedule::EventsOnly`], are not even iterated
//! one-by-one:
//!
//! * **Closed-form segments.** Between two policy decisions a flow's command
//!   is constant, so its state after `n` slices is a *closed form* of the
//!   state at the segment start (`budget = rate·δ·n`, compressed drains
//!   before raw; `consumed = min(R·δ·n, raw₀)`). Both the slice-by-slice
//!   path and the skip-ahead path evaluate exactly this closed form, which
//!   is what makes skipping **bit-identical** to not skipping: advancing the
//!   slice index by `k` simply evaluates the same expression at `n + k`.
//! * **Quiescent skip-ahead.** Under `EventsOnly` the policy is only
//!   consulted at arrivals, completions and raw-exhaustions. When none of
//!   those (nor the horizon) is due, the engine computes the first future
//!   slice at which *anything* observable happens and jumps straight to it.
//!   Under `EverySlice` the policy must be invoked
//!   at every boundary (it may be stateful — priority aging, Aalo's
//!   observed-bytes tracking), so no invocations are skipped and the
//!   `reschedules` count stays faithful; `EverySlice` still benefits from
//!   the closed forms and the allocation-free loop.
//! * **One flow order, scratch reuse.** The live-flow table is kept
//!   ascending in flow id — the order the `FabricView`, the `Allocation`,
//!   the boundary snapshot and the completion hooks all speak — so every
//!   pass pairs engine state with a decision by walking the two in step;
//!   nothing is sorted or indexed per reschedule. The per-flow outcomes are
//!   one list in admission order, which is the same order whenever ids
//!   ascend with arrival: admission appends a flow's [`FlowRecord`], the
//!   live flow carries its index, retirement writes the outcome through it,
//!   and the list itself is returned as [`SimResult::flows`] — sorted once
//!   at the end of the run only if some id arrived at or below its
//!   predecessor, never searched and never copied. The view's flow list,
//!   the per-slice completion list, CPU-core accounting and port-load
//!   accumulators live in buffers owned by the engine and are reused across
//!   slices.
//! * **One look per jump.** A jump lands on the boundary `skip_target`
//!   chose. Unless that boundary reschedules (an arrival or a fault-plan
//!   boundary falls on it), no segment, next arrival or next fault boundary
//!   has changed, so the scan would rebuild the same candidates and answer
//!   "here": the loop remembers where it aimed and does not ask again.
//!
//! Time itself is tracked as an integer slice index (`now = idx · δ`), so
//! jumping over `k` slices lands on exactly the boundary the per-slice
//! increment would have reached.
//!
//! # Ways out
//!
//! The loop reports through exactly two channels, both off by default and
//! both read-only: *events* leave through the [`swallow_trace::Tracer`] (one
//! branch per emission site when disabled), *state* leaves as the
//! [`crate::BoundarySnapshot`] built at the single observation site,
//! `observe_boundary` (see [`crate::observe`]). Neither can change which
//! boundaries the loop visits.
//!
//! # The stages
//!
//! [`Engine::run`] reads as the paper's Pseudocode 3, one call per stage and
//! one file per stage (`Phase` it feeds; DESIGN §8 cost-table row it is):
//!
//! * admit arrivals and fault boundaries — `admit.rs` (—; engine self)
//! * materialize, decide, clamp, apply — `reschedule.rs` (`Materialize`,
//!   `Schedule`; decision)
//! * show the boundary — `advance.rs` (`Hooks`; hooks)
//! * jump, or walk one slice — `advance.rs` (—; engine self)
//! * retire, step, safety nets, result — `retire.rs` (—; engine self)
//!
//! `segment.rs` holds the closed forms they all evaluate, `sim.rs` the
//! configuration and result types.

#![deny(clippy::too_many_lines)]

mod admit;
mod advance;
mod reschedule;
mod retire;
mod segment;
mod sim;

pub use sim::{CoflowRecord, EngineMode, FlowRecord, Reschedule, SimConfig, SimResult};

use crate::alloc::{Allocation, PortScratch, TouchedCounters};
use crate::coflow::Coflow;
use crate::cpu::CpuModel;
use crate::ids::{CoflowId, FlowId};
use crate::observe::FlowSnapshot;
use crate::policy::Policy;
use crate::port::Fabric;
use crate::view::FlowView;
use admit::assert_distinct;
use segment::ActiveFlow;
use std::collections::BTreeMap;
use swallow_trace::RescheduleCause;

/// Keep the highest-priority reschedule trigger seen so far (arrival beats
/// fault beats completion beats raw-exhaustion beats periodic).
fn upgrade_cause(slot: &mut Option<RescheduleCause>, cause: RescheduleCause) {
    let rank = |c| match c {
        RescheduleCause::Initial => 5,
        RescheduleCause::Arrival => 4,
        RescheduleCause::Fault => 3,
        RescheduleCause::Completion => 2,
        RescheduleCause::RawExhausted => 1,
        RescheduleCause::Periodic => 0,
    };
    if slot.is_none_or(|c| rank(cause) > rank(c)) {
        *slot = Some(cause);
    }
}

/// How far past a slice boundary a clock value — an arrival, a fault-plan
/// boundary — may lie and still count as reached at it, in seconds.
const BOUNDARY_SLACK: f64 = 1e-12;

/// Whether boundary `idx` of a δ-grid has reached time `t`. The one
/// comparison admission, the fault walk, the idle fast-forward and the skip
/// target's arrival and fault candidates all make.
#[inline]
fn reached(t: f64, idx: u64, delta: f64) -> bool {
    t <= idx as f64 * delta + BOUNDARY_SLACK
}

/// The simulator.
pub struct Engine {
    fabric: Fabric,
    cpu: CpuModel,
    config: SimConfig,
    /// Pending coflows sorted by arrival, latest first (pop from the back).
    /// When an arrival stream is attached this holds at most one coflow —
    /// the lookahead [`Engine::refill`] keeps topped up — so the loop's
    /// `pending.last()` / `pending.is_empty()` reads stay valid unchanged.
    pending: Vec<Coflow>,
    /// Lazily consumed arrival stream ([`Engine::from_arrivals`]); `None`
    /// once exhausted, so `pending.is_empty()` again means "no more work".
    arrivals: Option<Box<dyn Iterator<Item = Coflow> + Send>>,
    /// Largest arrival pulled from the stream so far; streamed arrivals
    /// must be time-sorted (the lookahead is one coflow deep, so an
    /// out-of-order arrival could otherwise be admitted late and silently
    /// reorder the simulation).
    stream_floor: f64,
    /// Live flows, ascending in flow id. Admission appends (ids ascend
    /// with arrival in every generator and reader) and re-sorts only after
    /// a batch that brought an id at or below the table's last — equal ids
    /// then sit side by side and panic; retirement compacts in place.
    active: Vec<ActiveFlow>,
    /// One record per admitted flow, in admission order; it becomes
    /// [`SimResult::flows`]. An [`ActiveFlow`] holds its record's index,
    /// which never moves: the list is only sorted — if some id arrived at
    /// or below its predecessor — at the end of the run, after the last
    /// write through an index.
    records: Vec<FlowRecord>,
    coflow_meta: BTreeMap<CoflowId, CoflowMeta>,
    /// Earliest unobserved fault-plan boundary; `None` once the plan is
    /// exhausted (or empty). The loop refuses to skip past it and the stall
    /// safety net stays disarmed while one is pending, since a future
    /// boundary can unblock flows that look stuck now.
    next_fault: Option<f64>,
    // ---- reusable scratch ----
    /// Flow snapshots handed to the policy, in table order (moved in and
    /// out of the `FabricView` so the buffer survives across reschedules).
    view_scratch: Vec<FlowView>,
    /// Flows that completed within the current slice, in table order.
    completed_scratch: Vec<(FlowId, f64)>,
    /// Per-node compression-core accounting for the CPU admission pass
    /// (touched-list reset).
    core_scratch: TouchedCounters,
    /// Per-node port-load accounting for the feasibility clamp.
    port_scratch: PortScratch,
    /// Flow snapshots for the boundary hook, in table order (unused — and
    /// never grown — unless a checker or a telemetry collector is attached).
    snapshot_scratch: Vec<FlowSnapshot>,
    /// Cumulative wire bytes of retired flows (the live flows' share is in
    /// the boundary snapshot itself).
    retired_wire: f64,
    /// Cumulative compression savings of retired flows, raw minus wire.
    retired_saved: f64,
    // ---- what the loop carries from one boundary to the next ----
    /// The compressor's input speed, read once.
    speed: f64,
    /// Integer slice index; `now = idx · δ` at every boundary, so a jump
    /// over k slices lands on exactly the boundary the naive loop reaches.
    idx: u64,
    /// Highest-priority trigger seen since the last policy invocation
    /// (arrival > completion > raw-exhausted); `None` means the next
    /// reschedule is purely periodic.
    pending_cause: Option<RescheduleCause>,
    needs_schedule: bool,
    /// The allocation in force (`applied` is false before the first
    /// reschedule); segments reset only when a reschedule decides a
    /// different one.
    alloc: Allocation,
    applied: bool,
    reschedules: usize,
    stall_slices: u32,
    /// Whether every admitted flow's id exceeded its predecessor's, i.e.
    /// whether `records` is already in flow-id order.
    ascending: bool,
    /// The boundary the last jump aimed at (see [`Engine::jump`]).
    landed: Option<u64>,
    coflow_records: Vec<CoflowRecord>,
    makespan: f64,
}

/// A live coflow: its record so far, and what it is still waiting for.
struct CoflowMeta {
    record: CoflowRecord,
    remaining: usize,
    last_completion: f64,
}

impl Engine {
    /// Build an engine over `fabric` for the given trace.
    ///
    /// Panics if any flow references a node outside the fabric or if two
    /// flows share an id.
    pub fn new(fabric: Fabric, mut coflows: Vec<Coflow>, config: SimConfig) -> Self {
        // Ids that ascend strictly along the trace — what every generator
        // and reader produces — are distinct, and one walk shows it; only a
        // trace that fails the walk has its ids sorted to look for twins.
        let mut flows = 0usize;
        let mut last = None;
        let mut ascending = true;
        for c in &coflows {
            for f in &c.flows {
                assert!(
                    fabric.contains(f.src) && fabric.contains(f.dst),
                    "flow {} references a node outside the fabric",
                    f.id
                );
                ascending &= last < Some(f.id);
                last = Some(f.id);
                flows += 1;
            }
        }
        if !ascending {
            let mut ids: Vec<FlowId> = coflows
                .iter()
                .flat_map(|c| c.flows.iter().map(|f| f.id))
                .collect();
            ids.sort_unstable();
            assert_distinct(ids.into_iter());
        }
        coflows.sort_by(|a, b| b.arrival.total_cmp(&a.arrival));
        let mut eng = Self::build(fabric, config);
        eng.pending = coflows;
        eng.records = Vec::with_capacity(flows);
        eng
    }

    /// Build an engine fed by a lazily consumed, time-sorted arrival
    /// stream instead of a materialized trace. The engine holds a
    /// one-coflow lookahead, so peak memory tracks the *active* set, not
    /// the trace length — this is how multi-GB trace files replay without
    /// materializing.
    ///
    /// Unlike [`Engine::new`], validation is necessarily lazy: node bounds
    /// are checked as each coflow is pulled, and a stream whose arrivals go
    /// backwards panics at the offending coflow. A flow id the stream hands
    /// out twice panics with `duplicate flow id N` at the boundary that
    /// admits the second flow if the first is still live, and otherwise at
    /// the end of [`Engine::run`], before the result is assembled — no
    /// [`SimResult`] ever holds one id twice. Equal-arrival coflows are
    /// admitted in stream order.
    pub fn from_arrivals(
        fabric: Fabric,
        arrivals: Box<dyn Iterator<Item = Coflow> + Send>,
        config: SimConfig,
    ) -> Self {
        let mut eng = Self::build(fabric, config);
        eng.arrivals = Some(arrivals);
        eng.refill();
        eng
    }

    /// Shared construction: resolve the CPU model, apply the
    /// background-traffic derate, and start with an empty trace.
    fn build(fabric: Fabric, config: SimConfig) -> Self {
        sim::assert_slice(config.slice);
        assert!(
            (0.0..1.0).contains(&config.background_traffic),
            "background traffic fraction must be in [0, 1)"
        );
        let fabric = if config.background_traffic > 0.0 {
            fabric.derate(1.0 - config.background_traffic)
        } else {
            fabric
        };
        let cpu = config
            .cpu
            .clone()
            .unwrap_or_else(|| CpuModel::unconstrained(fabric.num_nodes(), 16));
        assert_eq!(
            cpu.num_nodes(),
            fabric.num_nodes(),
            "CPU model must cover every fabric node"
        );
        let next_fault = config.faults.next_change_after(f64::NEG_INFINITY);
        Self {
            speed: config.compression.speed(),
            fabric,
            cpu,
            config,
            pending: Vec::new(),
            arrivals: None,
            stream_floor: f64::NEG_INFINITY,
            active: Vec::new(),
            records: Vec::new(),
            coflow_meta: BTreeMap::new(),
            next_fault,
            view_scratch: Vec::new(),
            completed_scratch: Vec::new(),
            core_scratch: TouchedCounters::default(),
            port_scratch: PortScratch::default(),
            snapshot_scratch: Vec::new(),
            retired_wire: 0.0,
            retired_saved: 0.0,
            idx: 0,
            pending_cause: None,
            needs_schedule: true,
            alloc: Allocation::new(),
            applied: false,
            reschedules: 0,
            stall_slices: 0,
            ascending: true,
            landed: None,
            coflow_records: Vec::new(),
            makespan: 0.0,
        }
    }

    /// Run the trace to completion under `policy`.
    pub fn run(mut self, policy: &mut dyn Policy) -> SimResult {
        policy.set_tracer(self.config.tracer.clone());
        let telemetry = self.config.telemetry.clone();
        policy.set_telemetry(telemetry.clone());
        // Establish the refill invariant before the first boundary (a
        // stream-fed engine primed it at construction; this is a no-op
        // there and for materialized traces).
        self.refill();
        while !self.active.is_empty() || !self.pending.is_empty() {
            // One instrumentation decision per visited boundary: at stride
            // `k` every `k`-th boundary pays for the phase timers *and* the
            // sample; the rest reduce to this one branch. The decision is
            // also published through `Telemetry::is_active` for sites outside
            // this loop (the policy's water-fill timer).
            let sampler = telemetry.as_deref().filter(|t| t.begin_boundary());
            // Admit what has arrived by this boundary.
            let admitted = self.admit(policy);
            if self.active.is_empty() {
                continue;
            }
            // `VolumeDisposal`, when due; apply β and the rates it chose.
            if self.needs_schedule || self.config.reschedule == Reschedule::EverySlice {
                self.reschedule(policy, sampler);
            }
            self.observe_boundary(sampler);
            // Advance: to the next boundary where something happens, or
            // through one slice, retiring what finishes inside it.
            if self.jump() {
                continue;
            }
            let (progressed, raw_exhausted) = self.detect();
            self.retire(policy, raw_exhausted);
            if self.must_stop(progressed, admitted) {
                break;
            }
        }
        self.finish(policy)
    }
}
