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
//! both read-only: *events* leave through the [`Tracer`] (one branch per
//! emission site when disabled), *state* leaves as the
//! [`BoundarySnapshot`] built at the single observation site in
//! [`Engine::run`] (see [`crate::observe`]). Neither can change which
//! boundaries the loop visits.

use crate::alloc::{seek, Allocation, FlowCommand, PortScratch, TouchedCounters};
use crate::coflow::Coflow;
use crate::cpu::CpuModel;
use crate::flow::FlowProgress;
use crate::ids::{CoflowId, FlowId, NodeId};
use crate::observe::{BoundaryObserver, BoundarySnapshot, FlowSnapshot};
use crate::policy::Policy;
use crate::port::Fabric;
use crate::view::{CompressionSpec, ConstCompression, FabricView, FlowView};
use crate::VOLUME_EPS;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use swallow_faults::Injector;
use swallow_metrics::telemetry::{Phase, Telemetry};
use swallow_trace::{DenialReason, RescheduleCause, TraceEvent, Tracer};

/// When the engine re-invokes the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reschedule {
    /// Every slice boundary. Matches Pseudocode 3, where `VolumeDisposal`
    /// (and with it the per-flow compression strategy) runs once per slice.
    EverySlice,
    /// Only at coflow arrivals, completions, and raw-exhaustion transitions —
    /// the "preemption only occurs when new flows arrive or existing flows
    /// complete" reading of §IV-A4. Cheaper, used for ablation.
    EventsOnly,
}

/// How the engine advances simulated time between events.
///
/// Both modes produce **bit-identical** [`SimResult`]s: they evaluate the
/// same closed-form segment expressions at the same boundaries and run the
/// identical detection/retirement code at every visited boundary. They
/// differ only in *which quiescent boundaries they bother to visit* (see
/// the module docs; the equivalence is pinned by the fast-path tests here
/// and by `swallow-oracle::differential_replay`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineMode {
    /// Visit every slice boundary one by one — the reference loop
    /// `SkipAhead` is diffed against.
    NaiveSlice,
    /// Quiescent skip-ahead (the default): at each visited boundary, scan
    /// the active flows for the earliest future slice at which anything
    /// observable happens and jump straight to it. Only effective under
    /// [`Reschedule::EventsOnly`]; `EverySlice` must visit every boundary.
    SkipAhead,
}

/// Engine configuration.
#[derive(Clone)]
pub struct SimConfig {
    /// Slice length δ in seconds.
    pub slice: f64,
    /// CPU model; defaults to an unconstrained cluster (compression always
    /// admissible) sized to the fabric.
    pub cpu: Option<CpuModel>,
    /// Compression parameters; defaults to disabled (pure scheduling study).
    pub compression: Arc<dyn CompressionSpec>,
    /// Rescheduling cadence.
    pub reschedule: Reschedule,
    /// Safety horizon; the run aborts (with incomplete records) beyond this.
    pub max_time: f64,
    /// Charge receiver-side decompression time against flow completion
    /// (the paper omits it, citing Table II's speed asymmetry; enabling
    /// this quantifies the omission).
    pub model_decompression: bool,
    /// Time-advance mode (see [`EngineMode`]). Both modes produce
    /// bit-identical results; [`EngineMode::SkipAhead`] is the default.
    /// Select [`EngineMode::NaiveSlice`] only to exercise the reference
    /// path in equivalence tests and benchmarks.
    pub mode: EngineMode,
    /// Structured-event tracer. Disabled by default: every emission site is
    /// then a single branch that never builds the event, so the zero-alloc
    /// and bit-identity guarantees of the fast path are untouched (pinned by
    /// `tests/alloc_count.rs`).
    pub tracer: Tracer,
    /// Fault injector consulted at every slice boundary. Defaults to the
    /// empty plan, whose queries short-circuit, so fault-free runs keep the
    /// zero-alloc fast path and bit-identical results.
    pub faults: Injector,
    /// Read-only boundary observer (see [`crate::observe`]). `None` by
    /// default: the only cost of the disabled path is one branch per
    /// boundary, so the zero-alloc and bit-identity guarantees hold.
    pub check: Option<Arc<dyn BoundaryObserver>>,
    /// Telemetry collector (see [`swallow_metrics::Telemetry`]): a strided
    /// time-series sampler fed from the same boundary snapshot as `check`,
    /// plus the engine phase profiler. `None` by default — the disabled
    /// path is a single branch per boundary with no wall-clock reads,
    /// preserving the zero-alloc guarantee pinned by `tests/alloc_count.rs`.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Fraction of every port's capacity occupied by non-coflow background
    /// traffic, in `[0, 1)` — CoflowSim's `bandwidth *= 1 - background_flow`
    /// model. The engine derates the fabric once at construction, so every
    /// consumer (policy view, feasibility clamps, invariant checker,
    /// telemetry) sees the same shrunken capacities and both time-advance
    /// modes stay bit-identical by construction. `0.0` (the default) is an
    /// exact no-op.
    pub background_traffic: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            slice: 0.01,
            cpu: None,
            compression: Arc::new(ConstCompression::disabled()),
            reschedule: Reschedule::EverySlice,
            max_time: 1e7,
            model_decompression: false,
            mode: EngineMode::SkipAhead,
            tracer: Tracer::disabled(),
            faults: Injector::default(),
            check: None,
            telemetry: None,
            background_traffic: 0.0,
        }
    }
}

impl SimConfig {
    /// Set the slice length.
    pub fn with_slice(mut self, slice: f64) -> Self {
        assert!(slice > 0.0, "slice must be positive");
        self.slice = slice;
        self
    }

    /// Set the compression spec.
    pub fn with_compression(mut self, spec: Arc<dyn CompressionSpec>) -> Self {
        self.compression = spec;
        self
    }

    /// Set the CPU model.
    pub fn with_cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = Some(cpu);
        self
    }

    /// Set the rescheduling cadence.
    pub fn with_reschedule(mut self, r: Reschedule) -> Self {
        self.reschedule = r;
        self
    }

    /// Charge receiver-side decompression time on completion.
    pub fn with_decompression_model(mut self) -> Self {
        self.model_decompression = true;
        self
    }

    /// Select the time-advance mode (see [`EngineMode`]). Results are
    /// bit-identical either way; [`EngineMode::NaiveSlice`] exists for the
    /// equivalence suite and for allocation/throughput measurements of the
    /// reference loop.
    pub fn with_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attach a structured-event tracer (see [`swallow_trace`]). The engine
    /// forwards a clone to the policy via [`Policy::set_tracer`].
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach a fault injector (see [`swallow_faults`]). Flows touching a
    /// crashed worker are idled until its restart, degraded links scale the
    /// rates crossing them, and revoked cores shrink the compression budget
    /// (denied flows fall back to raw transmission). Every window boundary
    /// forces a reschedule and emits `fault_injected` / `fault_cleared`
    /// trace events; skip-ahead never jumps across one, so faulted runs stay
    /// bit-identical between the fast and naive paths.
    pub fn with_faults(mut self, faults: Injector) -> Self {
        self.faults = faults;
        self
    }

    /// Attach a read-only boundary observer (see [`crate::observe`]). The
    /// engine calls it at every visited slice boundary with live flows,
    /// after the policy's allocation has been applied; `swallow-oracle`
    /// implements it with the online invariant checker.
    pub fn with_check(mut self, check: Arc<dyn BoundaryObserver>) -> Self {
        self.check = Some(check);
        self
    }

    /// Attach a telemetry collector (see [`swallow_metrics::Telemetry`]).
    /// The engine records a [`BoundarySnapshot::telemetry_sample`] at every
    /// `stride`-th visited boundary and feeds the phase profiler
    /// (materialization, hooks, the full scheduling decision); the
    /// collector is also forwarded to the policy via
    /// [`Policy::set_telemetry`] so the water-fill scan can time itself.
    /// Telemetry never changes simulation results — a sample is a pure
    /// function of the read-only boundary snapshot.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Reserve `fraction ∈ [0, 1)` of every port for background traffic
    /// (CoflowSim's `bandwidth *= 1 - background_flow`). Coflows compete
    /// for the remaining `1 - fraction` of each port; a run with
    /// `background_traffic = f` over capacity `C` is bit-identical to a run
    /// with no background traffic over capacity `C · (1 - f)`.
    pub fn with_background_traffic(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "background traffic fraction must be in [0, 1)"
        );
        self.background_traffic = fraction;
        self
    }
}

/// Outcome for one flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Flow identifier.
    pub id: FlowId,
    /// Owning coflow.
    pub coflow: CoflowId,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Original raw size in bytes.
    pub size: f64,
    /// Arrival time of the owning coflow.
    pub arrival: f64,
    /// Completion time, `None` if the run aborted first.
    pub completed_at: Option<f64>,
    /// Bytes actually transmitted (compressed bytes count once).
    pub wire_bytes: f64,
    /// Raw bytes that went through the compressor.
    pub compressed_input: f64,
}

impl FlowRecord {
    /// Flow completion time (completion − arrival).
    pub fn fct(&self) -> Option<f64> {
        self.completed_at.map(|t| t - self.arrival)
    }
}

/// Outcome for one coflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoflowRecord {
    /// Coflow identifier.
    pub id: CoflowId,
    /// Arrival time.
    pub arrival: f64,
    /// Completion time of the slowest flow, `None` if the run aborted first.
    pub completed_at: Option<f64>,
    /// Total raw bytes across member flows.
    pub total_bytes: f64,
    /// Member flow count.
    pub num_flows: usize,
}

impl CoflowRecord {
    /// Coflow completion time (completion − arrival).
    pub fn cct(&self) -> Option<f64> {
        self.completed_at.map(|t| t - self.arrival)
    }
}

/// Everything a run produces.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimResult {
    /// Policy that produced this run.
    pub policy: String,
    /// Per-flow outcomes, in flow-id order.
    pub flows: Vec<FlowRecord>,
    /// Per-coflow outcomes, in completion order.
    pub coflows: Vec<CoflowRecord>,
    /// Time of the last completion (or the abort time).
    pub makespan: f64,
    /// Number of policy invocations.
    pub reschedules: usize,
}

impl SimResult {
    /// True when every flow completed within the horizon.
    pub fn all_complete(&self) -> bool {
        self.flows.iter().all(|f| f.completed_at.is_some())
    }

    /// FCT of every completed flow.
    pub fn fct_values(&self) -> Vec<f64> {
        self.flows.iter().filter_map(|f| f.fct()).collect()
    }

    /// CCT of every completed coflow.
    pub fn cct_values(&self) -> Vec<f64> {
        self.coflows.iter().filter_map(|c| c.cct()).collect()
    }

    /// Average flow completion time.
    pub fn avg_fct(&self) -> f64 {
        avg(&self.fct_values())
    }

    /// Average coflow completion time.
    pub fn avg_cct(&self) -> f64 {
        avg(&self.cct_values())
    }

    /// Total bytes put on the wire.
    pub fn total_wire_bytes(&self) -> f64 {
        self.flows.iter().map(|f| f.wire_bytes).sum()
    }

    /// Total raw bytes the trace asked to move.
    pub fn total_raw_bytes(&self) -> f64 {
        self.flows.iter().map(|f| f.size).sum()
    }

    /// Fraction of traffic removed by compression (Table VII's "Reduction").
    pub fn traffic_reduction(&self) -> f64 {
        let raw = self.total_raw_bytes();
        if raw <= 0.0 {
            return 0.0;
        }
        1.0 - self.total_wire_bytes() / raw
    }
}

fn avg(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// One live flow plus its closed-form segment state.
///
/// `seg` is the slice index at which the current command segment began;
/// `base_*` snapshot the flow's state at that boundary. The state after `n`
/// further slices is a pure function of the bases (see the module docs), so
/// advancing by one slice and advancing by `k` slices evaluate the *same*
/// expression — the skip-ahead invariant.
#[derive(Clone)]
struct ActiveFlow {
    p: FlowProgress,
    seg: u64,
    base_raw: f64,
    base_compressed: f64,
    base_wire: f64,
    base_cinput: f64,
    /// Command in force for this segment.
    cmd: FlowCommand,
    /// Cached `compression.ratio(size)` (a pure function of the flow size).
    ratio: f64,
    /// Index of this flow's [`FlowRecord`] in the engine's record list.
    rec: usize,
}

impl ActiveFlow {
    /// Raw bytes consumed by the compressor after `n` slices of this segment.
    #[inline]
    fn compress_consumed(&self, n: u64, speed: f64, delta: f64) -> f64 {
        (speed * delta * n as f64).min(self.base_raw)
    }

    /// Transmission split after `n` slices: `(from_compressed, from_raw)`.
    /// Compressed bytes drain first (they already sit in the send buffer);
    /// any budget left over sends raw bytes directly.
    #[inline]
    fn tx_parts(&self, n: u64, delta: f64) -> (f64, f64) {
        let budget = self.cmd.rate * delta * n as f64;
        let fc = budget.min(self.base_compressed);
        let fr = (budget - fc).min(self.base_raw);
        (fc, fr)
    }

    /// Raw part after `n` slices of this segment.
    #[inline]
    fn raw_at(&self, n: u64, speed: f64, delta: f64) -> f64 {
        if self.cmd.compress {
            self.base_raw - self.compress_consumed(n, speed, delta)
        } else if self.cmd.rate > 0.0 {
            let (_, fr) = self.tx_parts(n, delta);
            self.base_raw - fr
        } else {
            self.base_raw
        }
    }

    /// Volume `V = d + D` after `n` slices of this segment.
    #[inline]
    fn volume_at(&self, n: u64, speed: f64, delta: f64) -> f64 {
        if self.cmd.compress {
            let consumed = self.compress_consumed(n, speed, delta);
            (self.base_raw - consumed) + (self.base_compressed + consumed * self.ratio)
        } else if self.cmd.rate > 0.0 {
            let (fc, fr) = self.tx_parts(n, delta);
            (self.base_compressed - fc) + (self.base_raw - fr)
        } else {
            self.base_raw + self.base_compressed
        }
    }

    /// Closed-form `(raw, compressed, wire_bytes, compressed_input)` after
    /// `n` slices of this segment, without touching `self.p`.
    fn state_at(&self, n: u64, speed: f64, delta: f64) -> (f64, f64, f64, f64) {
        if self.cmd.compress {
            let consumed = self.compress_consumed(n, speed, delta);
            (
                self.base_raw - consumed,
                self.base_compressed + consumed * self.ratio,
                self.base_wire,
                self.base_cinput + consumed,
            )
        } else if self.cmd.rate > 0.0 {
            let (fc, fr) = self.tx_parts(n, delta);
            (
                self.base_raw - fr,
                self.base_compressed - fc,
                self.base_wire + (fc + fr),
                self.base_cinput,
            )
        } else {
            (
                self.base_raw,
                self.base_compressed,
                self.base_wire,
                self.base_cinput,
            )
        }
    }

    /// Write the closed-form state after `n` slices into `self.p`.
    fn materialize(&mut self, n: u64, speed: f64, delta: f64) {
        let (raw, compressed, wire, cinput) = self.state_at(n, speed, delta);
        self.p.raw = raw;
        self.p.compressed = compressed;
        self.p.wire_bytes = wire;
        self.p.compressed_input = cinput;
    }

    /// Start a new segment at `boundary` under `cmd`; `self.p` must already
    /// be materialized at that boundary.
    fn reset_segment(&mut self, boundary: u64, cmd: FlowCommand) {
        self.base_raw = self.p.raw;
        self.base_compressed = self.p.compressed;
        self.base_wire = self.p.wire_bytes;
        self.base_cinput = self.p.compressed_input;
        self.seg = boundary;
        self.cmd = cmd;
    }
}

/// Keep the highest-priority reschedule trigger seen so far (arrival beats
/// fault beats completion beats raw-exhaustion beats periodic).
fn upgrade_cause(slot: &mut Option<RescheduleCause>, cause: RescheduleCause) {
    fn rank(c: RescheduleCause) -> u8 {
        match c {
            RescheduleCause::Initial => 5,
            RescheduleCause::Arrival => 4,
            RescheduleCause::Fault => 3,
            RescheduleCause::Completion => 2,
            RescheduleCause::RawExhausted => 1,
            RescheduleCause::Periodic => 0,
        }
    }
    let better = match slot {
        None => true,
        Some(c) => rank(cause) > rank(*c),
    };
    if better {
        *slot = Some(cause);
    }
}

/// Panic if two neighbours of an id-sorted sequence share an id.
fn assert_distinct(sorted: impl Iterator<Item = FlowId>) {
    let mut prev = None;
    for id in sorted {
        assert!(prev != Some(id), "duplicate flow id {id}");
        prev = Some(id);
    }
}

/// Smallest `n ≥ n0 + 1` with `pred(n)`, starting the search from the
/// analytic estimate `est` and correcting for floating-point slack in either
/// direction. `pred` must be monotone (false → … → true). Returns `None` if
/// the correction loops do not converge quickly — callers treat that as
/// "don't skip", which is always safe.
fn first_slice_satisfying(est: f64, n0: u64, pred: impl Fn(u64) -> bool) -> Option<u64> {
    // An estimate beyond u64 range (e.g. a denormally small rate) can never
    // be corrected by the bounded search below; "don't skip" is always safe.
    if est.is_finite() && est >= u64::MAX as f64 {
        return None;
    }
    let mut n = if est.is_finite() && est > (n0 + 1) as f64 {
        est as u64
    } else {
        n0 + 1
    };
    let mut guard = 0u32;
    while !pred(n) {
        n = n.checked_add(1)?;
        guard += 1;
        if guard > 64 {
            return None;
        }
    }
    while n > n0 + 1 && pred(n - 1) {
        n -= 1;
        guard += 1;
        if guard > 128 {
            return None;
        }
    }
    Some(n)
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
}

struct CoflowMeta {
    arrival: f64,
    remaining: usize,
    total_bytes: f64,
    num_flows: usize,
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
        }
    }

    /// Top up the one-coflow lookahead from the arrival stream. Invariant:
    /// outside this call, `pending` is empty with `arrivals` attached only
    /// if the stream is exhausted — every site that pops `pending` refills
    /// immediately, so the loop's `pending.last()` / `pending.is_empty()`
    /// reads (idle fast-forward, the skip target, the stall net) keep
    /// their materialized-trace meaning.
    fn refill(&mut self) {
        if !self.pending.is_empty() {
            return;
        }
        if let Some(stream) = self.arrivals.as_mut() {
            match stream.next() {
                Some(c) => {
                    assert!(
                        c.arrival >= self.stream_floor,
                        "arrival stream must be time-sorted: coflow {} arrives at {} \
                         after the stream reached {}",
                        c.id,
                        c.arrival,
                        self.stream_floor
                    );
                    self.stream_floor = c.arrival;
                    for f in &c.flows {
                        assert!(
                            self.fabric.contains(f.src) && self.fabric.contains(f.dst),
                            "flow {} references a node outside the fabric",
                            f.id
                        );
                    }
                    self.pending.push(c);
                }
                None => self.arrivals = None,
            }
        }
    }

    /// Run the trace to completion under `policy`.
    pub fn run(mut self, policy: &mut dyn Policy) -> SimResult {
        let delta = self.config.slice;
        let speed = self.config.compression.speed();
        let tracer = self.config.tracer.clone();
        policy.set_tracer(tracer.clone());
        let telemetry = self.config.telemetry.clone();
        policy.set_telemetry(telemetry.clone());
        // Highest-priority trigger seen since the last policy invocation
        // (arrival > completion > raw-exhausted); `None` means the next
        // reschedule is purely periodic.
        let mut pending_cause: Option<RescheduleCause> = None;
        // Integer slice index; `now = idx · δ` at every boundary, so a jump
        // over k slices lands on exactly the boundary the naive loop reaches.
        let mut idx: u64 = 0;
        // The allocation in force (none before the first reschedule);
        // segments reset only when a reschedule decides a different one.
        let mut alloc = Allocation::new();
        let mut applied = false;
        let mut needs_schedule = true;
        let mut reschedules = 0usize;
        let mut stall_slices = 0u32;
        // Whether every admitted flow's id exceeded its predecessor's, i.e.
        // whether `self.records` is already in flow-id order.
        let mut ascending = true;
        // The boundary the last jump aimed at. Until a reschedule there
        // changes a segment, the next arrival or the next fault boundary,
        // `skip_target` would rebuild the candidates that chose it and
        // answer "here", so it is not asked.
        let mut landed: Option<u64> = None;
        let mut coflow_records: Vec<CoflowRecord> = Vec::new();
        let mut makespan = 0.0f64;

        // Establish the refill invariant before the first boundary (a
        // stream-fed engine primed it at construction; this is a no-op
        // there and for materialized traces).
        self.refill();
        while !self.active.is_empty() || !self.pending.is_empty() {
            let mut now = idx as f64 * delta;
            // One instrumentation decision per visited boundary: at stride
            // `k` every `k`-th boundary pays for the phase timers *and* the
            // sample; the rest reduce to this one branch. The decision is
            // also published through `Telemetry::is_active` for sites outside
            // this loop (the policy's water-fill timer).
            let sampler = telemetry.as_deref().filter(|t| t.begin_boundary());
            // Fast-forward over idle gaps: jump to the slice boundary at or
            // after the next arrival. The quotient can round down onto a
            // boundary the admission test below still finds too early (a
            // fraction of an ulp short, once an ulp of `now` exceeds its
            // tolerance); landing there would admit nothing and come back
            // here for ever, so the landing is verified against that test.
            if self.active.is_empty() {
                let next = self.pending.last().map(|c| c.arrival).unwrap_or(now);
                if next > now {
                    idx = (next / delta).ceil() as u64;
                    while next > idx as f64 * delta + 1e-12 {
                        // A step or two; only an arrival past the last
                        // boundary a `u64` can index keeps failing the test.
                        idx = idx
                            .checked_add(1)
                            .expect("arrival lies beyond the slice grid");
                    }
                    now = idx as f64 * delta;
                }
            }

            // Admit everything that has arrived by this boundary.
            let mut admitted = false;
            let mut out_of_order = false;
            while self
                .pending
                .last()
                .is_some_and(|c| c.arrival <= now + 1e-12)
            {
                let c = self.pending.pop().unwrap();
                // Keep the lookahead full so this loop's condition (and the
                // skip target downstream) see the next arrival.
                self.refill();
                admitted = true;
                tracer.emit(now, || TraceEvent::CoflowArrived {
                    coflow: c.id.0,
                    flows: c.flows.len(),
                });
                policy.on_arrival(&c, now);
                let mut live = 0usize;
                for spec in &c.flows {
                    let progress = FlowProgress::new(spec.clone(), c.id, c.arrival);
                    // Zero-sized flows finish the moment they arrive.
                    let done = progress.is_complete();
                    let rec = self.records.len();
                    ascending &= self.records.last().map(|r| r.id) < Some(spec.id);
                    self.records.push(FlowRecord {
                        id: spec.id,
                        coflow: c.id,
                        src: spec.src,
                        dst: spec.dst,
                        size: spec.size,
                        arrival: c.arrival,
                        completed_at: done.then_some(c.arrival),
                        wire_bytes: 0.0,
                        compressed_input: 0.0,
                    });
                    if done {
                        tracer.emit(now, || TraceEvent::FlowCompleted {
                            flow: spec.id.0,
                            coflow: c.id.0,
                        });
                        policy.on_flow_complete(spec.id, c.id, spec.size, c.arrival);
                    } else {
                        tracer.emit(now, || TraceEvent::FlowStarted {
                            flow: spec.id.0,
                            coflow: c.id.0,
                        });
                        let ratio = self.config.compression.ratio(progress.spec.size);
                        let mut af = ActiveFlow {
                            p: progress,
                            seg: idx,
                            base_raw: 0.0,
                            base_compressed: 0.0,
                            base_wire: 0.0,
                            base_cinput: 0.0,
                            cmd: FlowCommand::IDLE,
                            ratio,
                            rec,
                        };
                        af.reset_segment(idx, FlowCommand::IDLE);
                        out_of_order |= self.active.last().is_some_and(|l| l.p.spec.id >= spec.id);
                        self.active.push(af);
                        live += 1;
                    }
                }
                if live == 0 {
                    // Coflow with no (non-empty) flows completes on arrival.
                    coflow_records.push(CoflowRecord {
                        id: c.id,
                        arrival: c.arrival,
                        completed_at: Some(c.arrival),
                        total_bytes: c.total_bytes(),
                        num_flows: c.flows.len(),
                    });
                    tracer.emit(now, || TraceEvent::CoflowCompleted { coflow: c.id.0 });
                    policy.on_completion(c.id, now);
                    makespan = makespan.max(c.arrival);
                } else {
                    self.coflow_meta.insert(
                        c.id,
                        CoflowMeta {
                            arrival: c.arrival,
                            remaining: live,
                            total_bytes: c.total_bytes(),
                            num_flows: c.flows.len(),
                            last_completion: 0.0,
                        },
                    );
                }
            }
            if out_of_order {
                // Stable, so the already ascending runs merge in one pass. An
                // id at or below the table's last may be a live flow's twin;
                // sorted, the two are neighbours.
                self.active.sort_by_key(|af| af.p.spec.id);
                assert_distinct(self.active.iter().map(|af| af.p.spec.id));
            }
            if admitted {
                upgrade_cause(&mut pending_cause, RescheduleCause::Arrival);
            }
            needs_schedule |= admitted;

            // Observe every fault-plan boundary reached by this slice: emit
            // the window transitions and force a reschedule so the changed
            // capacities (downed workers, degraded links, revoked cores)
            // take effect. Events are stamped with the boundary time, which
            // both the naive and skip-ahead paths observe at the same slice.
            while let Some(boundary) = self.next_fault {
                if boundary > now + 1e-12 {
                    break;
                }
                if tracer.is_enabled() {
                    for tr in self.config.faults.transitions_at(boundary) {
                        tracer.emit(boundary, || {
                            if tr.begins {
                                TraceEvent::FaultInjected {
                                    kind: tr.kind.to_string(),
                                    node: tr.node,
                                }
                            } else {
                                TraceEvent::FaultCleared {
                                    kind: tr.kind.to_string(),
                                    node: tr.node,
                                }
                            }
                        });
                    }
                }
                needs_schedule = true;
                upgrade_cause(&mut pending_cause, RescheduleCause::Fault);
                self.next_fault = self.config.faults.next_change_after(boundary);
            }

            if self.active.is_empty() {
                continue;
            }

            // Invoke the policy when due.
            if needs_schedule || self.config.reschedule == Reschedule::EverySlice {
                // Wall-clock cost of the decision (policy + feasibility
                // clamps); read only when tracing or profiling so the
                // disabled path stays free of syscalls.
                let started = (tracer.is_enabled() || sampler.is_some()).then(Instant::now);
                self.materialize_all(idx, speed, delta);
                if let (Some(t), Some(s)) = (sampler, started) {
                    // Materialization runs first, so its phase shares the
                    // decision's start instant (one syscall, not two).
                    t.record_phase(Phase::Materialize, s.elapsed());
                }
                // Pull scratch out of `self` so the immutable view borrow
                // and the mutable scratch uses can coexist.
                let mut cpu_used = std::mem::take(&mut self.core_scratch);
                let mut port_scratch = std::mem::take(&mut self.port_scratch);
                let flows = std::mem::take(&mut self.view_scratch);
                let view = self.view_into(now, flows);
                let outstanding = view.flows.len();
                let mut decided = policy.allocate(&view);
                decided.clamp_with_scratch(&view, &mut port_scratch);
                Self::apply_fault_limits(&self.config.faults, &self.active, &mut decided, now);
                let kept_rate = Self::enforce_cpu(
                    &self.cpu,
                    &self.config.faults,
                    &self.active,
                    &mut cpu_used,
                    &mut decided,
                    now,
                    &tracer,
                );
                if kept_rate {
                    // Compression denials fell back to their transmit rates,
                    // which the first clamp never saw; re-clamp so the
                    // fallback cannot oversubscribe a port.
                    decided.clamp_with_scratch(&view, &mut port_scratch);
                }
                let FabricView { mut flows, .. } = view;
                flows.clear();
                self.view_scratch = flows;
                self.core_scratch = cpu_used;
                self.port_scratch = port_scratch;
                if let Some(started) = started {
                    let elapsed = started.elapsed();
                    if tracer.is_enabled() {
                        tracer.reschedule_latency(elapsed.as_secs_f64());
                    }
                    if let Some(t) = sampler {
                        // The full decision: materialize + policy + clamps
                        // + CPU admission.
                        t.record_phase(Phase::Schedule, elapsed);
                    }
                }
                let cause = if reschedules == 0 {
                    RescheduleCause::Initial
                } else {
                    pending_cause.unwrap_or(RescheduleCause::Periodic)
                };
                pending_cause = None;
                reschedules += 1;
                landed = None;
                tracer.emit(now, || TraceEvent::Rescheduled {
                    cause,
                    flows: outstanding,
                });
                needs_schedule = false;
                // Segments continue through a reschedule that re-applies the
                // identical allocation (this is what lets EventsOnly and a
                // quiescent EverySlice run share one trajectory); any change
                // re-bases every flow at this boundary.
                if !applied || alloc != decided {
                    let mut at = 0;
                    for af in &mut self.active {
                        let cmd = decided.seek(&mut at, af.p.spec.id);
                        // A flow that was transmitting and now gets neither
                        // rate nor a core was preempted by the new order.
                        if af.cmd.rate > 0.0 && cmd.rate <= 0.0 && !cmd.compress {
                            tracer.emit(now, || TraceEvent::FlowPreempted {
                                flow: af.p.spec.id.0,
                            });
                        }
                        af.reset_segment(idx, cmd);
                    }
                    alloc = decided;
                    applied = true;
                }
            }

            // The one place state leaves the loop (a branch without a checker
            // or a sampled boundary). Commands and the closed-form state only
            // change at visited boundaries, so the checker sees every distinct
            // (state, command) configuration whether or not skip-ahead jumps
            // the quiescent stretches in between; the sample is the same cut.
            // Timed only when a checker is actually installed — profiling the
            // one-branch disabled path would drown the histogram in zeros.
            let hooks_started =
                (sampler.is_some() && self.config.check.is_some()).then(Instant::now);
            self.observe_boundary(idx, reschedules, sampler);
            if let (Some(t), Some(s)) = (sampler, hooks_started) {
                t.record_phase(Phase::Hooks, s.elapsed());
            }

            // Quiescent skip-ahead (EventsOnly only; under EverySlice the
            // policy must run at every boundary).
            if self.config.mode == EngineMode::SkipAhead
                && self.config.reschedule == Reschedule::EventsOnly
                && landed != Some(idx)
            {
                let target = self.skip_target(idx, speed, delta);
                if target > idx {
                    tracer.emit(now, || TraceEvent::SkipAhead {
                        from_slice: idx,
                        to_slice: target,
                    });
                    tracer.skipped(target - idx);
                    idx = target;
                    landed = Some(target);
                    stall_slices = 0;
                    continue;
                }
            }
            tracer.slices(1);

            // Advance one slice of volume disposal via the closed forms.
            let mut progressed = false;
            let mut raw_exhausted = false;
            self.completed_scratch.clear();
            for af in &self.active {
                let n0 = idx - af.seg;
                let n1 = n0 + 1;
                if af.cmd.compress {
                    let raw0 = af.raw_at(n0, speed, delta);
                    let consumed = af.compress_consumed(n1, speed, delta)
                        - af.compress_consumed(n0, speed, delta);
                    if consumed > 0.0 {
                        progressed = true;
                    }
                    if raw0 > VOLUME_EPS && af.raw_at(n1, speed, delta) <= VOLUME_EPS {
                        tracer.emit(now + delta, || TraceEvent::RawExhausted {
                            flow: af.p.spec.id.0,
                        });
                        raw_exhausted = true;
                    }
                } else if af.cmd.rate > 0.0 {
                    let vol0 = af.volume_at(n0, speed, delta);
                    let (fc0, fr0) = af.tx_parts(n0, delta);
                    let (fc1, fr1) = af.tx_parts(n1, delta);
                    if (fc1 + fr1) - (fc0 + fr0) > 0.0 {
                        progressed = true;
                    }
                    if af.volume_at(n1, speed, delta) <= VOLUME_EPS {
                        let eta = vol0 / af.cmd.rate;
                        self.completed_scratch
                            .push((af.p.spec.id, now + eta.min(delta)));
                    }
                }
            }

            // Retire completed flows and coflows in flow-id order: the list
            // was gathered along the table, so one compaction pass from the
            // first completed entry meets each where it stands and writes
            // every survivor behind it once, into its final slot.
            let start = self
                .completed_scratch
                .first()
                .map_or(self.active.len(), |&(first, _)| {
                    self.active
                        .binary_search_by_key(&first, |af| af.p.spec.id)
                        .expect("completed flow is active")
                });
            let (mut kept, mut due) = (start, 0);
            for at in start..self.active.len() {
                let id = self.active[at].p.spec.id;
                let t = match self.completed_scratch.get(due) {
                    Some(&(done, t)) if done == id => t,
                    _ => {
                        // `kept < at`: the pass starts on a completed entry.
                        self.active[kept] = self.active[at].clone();
                        kept += 1;
                        continue;
                    }
                };
                due += 1;
                let af = &mut self.active[at];
                af.materialize(idx - af.seg + 1, speed, delta);
                let (p, ratio) = (&af.p, af.ratio);
                // Receiver-side decompression happens off the network path;
                // when modelled, it delays the flow's completion by the
                // compressed bytes over the decompressor's speed.
                let t = if self.config.model_decompression && p.compressed_input > 0.0 {
                    let compressed_bytes = p.compressed_input * ratio;
                    t + compressed_bytes / self.config.compression.decompress_speed()
                } else {
                    t
                };
                let rec = &mut self.records[af.rec];
                rec.completed_at = Some(t);
                rec.wire_bytes = p.wire_bytes;
                rec.compressed_input = p.compressed_input;
                // Retired-flow byte ledger for boundary snapshots: bytes that
                // crossed the wire, and bytes compression kept off it.
                self.retired_wire += p.wire_bytes;
                self.retired_saved += p.compressed_input * (1.0 - ratio);
                makespan = makespan.max(t);
                tracer.emit(t, || TraceEvent::FlowCompleted {
                    flow: id.0,
                    coflow: p.coflow.0,
                });
                policy.on_flow_complete(id, p.coflow, p.spec.size, t);
                let meta = self
                    .coflow_meta
                    .get_mut(&p.coflow)
                    .expect("coflow meta exists");
                meta.remaining -= 1;
                meta.last_completion = meta.last_completion.max(t);
                if meta.remaining == 0 {
                    coflow_records.push(CoflowRecord {
                        id: p.coflow,
                        arrival: meta.arrival,
                        completed_at: Some(meta.last_completion),
                        total_bytes: meta.total_bytes,
                        num_flows: meta.num_flows,
                    });
                    tracer.emit(meta.last_completion, || TraceEvent::CoflowCompleted {
                        coflow: p.coflow.0,
                    });
                    policy.on_completion(p.coflow, meta.last_completion);
                    self.coflow_meta.remove(&p.coflow);
                }
                needs_schedule = true;
                upgrade_cause(&mut pending_cause, RescheduleCause::Completion);
            }
            self.active.truncate(kept);
            if raw_exhausted {
                needs_schedule = true;
                upgrade_cause(&mut pending_cause, RescheduleCause::RawExhausted);
            }

            idx += 1;
            let now = idx as f64 * delta;

            // Stall and horizon safety nets. A pending fault boundary keeps
            // the net disarmed: flows idled by a crash window are expected
            // to sit still until the restart boundary re-enables them.
            if !progressed && !admitted {
                stall_slices += 1;
                let blocked_forever =
                    self.pending.is_empty() && stall_slices > 3 && self.next_fault.is_none();
                if blocked_forever {
                    tracer.emit(now, || TraceEvent::HorizonReached);
                    break;
                }
            } else {
                stall_slices = 0;
            }
            if now > self.config.max_time {
                tracer.emit(now, || TraceEvent::HorizonReached);
                break;
            }
        }

        // Coflows still open at abort get recorded as incomplete.
        for (id, meta) in &self.coflow_meta {
            coflow_records.push(CoflowRecord {
                id: *id,
                arrival: meta.arrival,
                completed_at: None,
                total_bytes: meta.total_bytes,
                num_flows: meta.num_flows,
            });
        }
        // Flows still active at abort keep partial accounting.
        self.materialize_all(idx, speed, delta);
        for af in &self.active {
            let rec = &mut self.records[af.rec];
            rec.wire_bytes = af.p.wire_bytes;
            rec.compressed_input = af.p.compressed_input;
        }
        // Records come back in flow-id order. They are in it already unless
        // some id arrived at or below its predecessor; only such a trace can
        // hold a retired flow's twin, which the sort puts beside it.
        if !ascending {
            self.records.sort_by_key(|r| r.id);
            assert_distinct(self.records.iter().map(|r| r.id));
        }
        coflow_records.sort_by(|a, b| {
            a.completed_at
                .unwrap_or(f64::INFINITY)
                .total_cmp(&b.completed_at.unwrap_or(f64::INFINITY))
        });

        SimResult {
            policy: policy.name().to_string(),
            flows: self.records,
            coflows: coflow_records,
            makespan,
            reschedules,
        }
    }

    /// Build the id-ordered snapshot of boundary `idx` via the non-mutating
    /// closed forms — once, and only if someone reads it — and hand it to
    /// the checker and, on a boundary the telemetry stride selected, to the
    /// `sampler`.
    fn observe_boundary(&mut self, idx: u64, reschedules: usize, sampler: Option<&Telemetry>) {
        let check = self.config.check.as_deref();
        if check.is_none() && sampler.is_none() {
            return;
        }
        let delta = self.config.slice;
        let speed = self.config.compression.speed();
        self.snapshot_scratch.clear();
        self.snapshot_scratch.extend(self.active.iter().map(|af| {
            let (raw, compressed, wire_bytes, compressed_input) =
                af.state_at(idx - af.seg, speed, delta);
            FlowSnapshot {
                id: af.p.spec.id,
                coflow: af.p.coflow,
                src: af.p.spec.src,
                dst: af.p.spec.dst,
                original_size: af.p.spec.size,
                raw,
                compressed,
                wire_bytes,
                compressed_input,
                compressible: af.p.spec.compressible,
                cmd: af.cmd,
                ratio: af.ratio,
            }
        }));
        let snapshot = BoundarySnapshot {
            now: idx as f64 * delta,
            slice: delta,
            slice_idx: idx,
            fabric: &self.fabric,
            cpu: &self.cpu,
            faults: &self.config.faults,
            flows: &self.snapshot_scratch,
            compression_speed: speed,
            active_coflows: self.coflow_meta.len(),
            pending_coflows: self.pending.len(),
            reschedules,
            retired_wire: self.retired_wire,
            retired_saved: self.retired_saved,
        };
        if let Some(check) = check {
            check.at_boundary(&snapshot);
        }
        if let Some(t) = sampler {
            let mut sample = snapshot.telemetry_sample();
            // Estimation gauges are owned by the policy (a sampling wrapper
            // publishes them during allocate); fold in the latest values.
            (sample.est_tracked_coflows, sample.est_mean_abs_rel_err) = t.estimation();
            t.record_sample(sample);
        }
    }

    /// Materialize every active flow's state at boundary `idx`.
    fn materialize_all(&mut self, idx: u64, speed: f64, delta: f64) {
        for af in &mut self.active {
            let n = idx - af.seg;
            af.materialize(n, speed, delta);
        }
    }

    /// The first slice index ≥ `idx` whose processing (or whose boundary)
    /// does something observable: a flow completion, a raw exhaustion, a
    /// coflow arrival, a fault-plan boundary, or the horizon check.
    /// Returning `idx` means "don't skip".
    fn skip_target(&self, idx: u64, speed: f64, delta: f64) -> u64 {
        let mut target = u64::MAX;
        let mut any_progress = false;
        for af in &self.active {
            let n0 = idx - af.seg;
            if af.cmd.compress {
                if speed <= 0.0 || af.raw_at(n0, speed, delta) <= VOLUME_EPS {
                    continue;
                }
                any_progress = true;
                let est = (af.base_raw - VOLUME_EPS) / (speed * delta);
                let found =
                    first_slice_satisfying(est, n0, |n| af.raw_at(n, speed, delta) <= VOLUME_EPS);
                match found {
                    Some(n) => target = target.min(af.seg + n - 1),
                    None => return idx,
                }
            } else if af.cmd.rate > 0.0 {
                if af.volume_at(n0, speed, delta) <= VOLUME_EPS {
                    // Already complete (can only arise through an exotic
                    // command sequence); the naive path retires it this
                    // slice, so don't jump over that.
                    return idx;
                }
                any_progress = true;
                let est = (af.base_raw + af.base_compressed - VOLUME_EPS) / (af.cmd.rate * delta);
                let found = first_slice_satisfying(est, n0, |n| {
                    af.volume_at(n, speed, delta) <= VOLUME_EPS
                });
                match found {
                    Some(n) => target = target.min(af.seg + n - 1),
                    None => return idx,
                }
            }
        }
        if !any_progress && self.pending.is_empty() {
            // The stall counter must tick slice-by-slice towards termination.
            return idx;
        }
        // Next admission boundary.
        if let Some(c) = self.pending.last() {
            let arr = c.arrival;
            let est = (arr - 1e-12) / delta;
            match first_slice_satisfying(est, idx, |b| arr <= b as f64 * delta + 1e-12) {
                Some(b) => target = target.min(b),
                None => return idx,
            }
        }
        // Next fault-plan boundary: the slice observing it reschedules with
        // changed capacities, so it must run through the full loop. This is
        // what keeps faulted runs bit-identical between the fast and naive
        // paths — a jump never crosses a capacity change.
        if let Some(b) = self.next_fault {
            if b <= idx as f64 * delta + 1e-12 {
                return idx;
            }
            match first_slice_satisfying(b / delta, idx, |j| b <= j as f64 * delta + 1e-12) {
                Some(j) => target = target.min(j),
                None => return idx,
            }
        }
        // Horizon: the loop breaks after processing slice j when
        // (j+1)·δ > max_time; that slice must be processed naively.
        let mt = self.config.max_time;
        if (idx + 1) as f64 * delta > mt {
            return idx;
        }
        match first_slice_satisfying(mt / delta, idx, |j| (j + 1) as f64 * delta > mt) {
            Some(j) => target = target.min(j),
            None => return idx,
        }
        if target == u64::MAX {
            idx
        } else {
            target.max(idx)
        }
    }

    /// Build the policy-facing snapshot at `now`, reusing `flows` as the
    /// backing buffer (it is returned to the scratch slot afterwards). The
    /// table is ascending in flow id, so the view is too.
    fn view_into(&self, now: f64, mut flows: Vec<FlowView>) -> FabricView<'_> {
        flows.clear();
        flows.extend(
            self.active
                .iter()
                .map(|af| &af.p)
                .filter(|p| !p.is_complete())
                .map(FlowView::from_progress),
        );
        FabricView {
            now,
            slice: self.config.slice,
            fabric: &self.fabric,
            cpu: &self.cpu,
            compression: self.config.compression.as_ref(),
            flows,
        }
    }

    /// Apply fault-plan capacity limits to a freshly clamped allocation:
    /// flows touching a crashed worker are idled (their bytes cannot move
    /// until the restart boundary reschedules them back in), and rates
    /// crossing a degraded port are scaled by the active factor. Scaling
    /// down never oversubscribes, so no re-clamp is needed; running before
    /// CPU admission means an idled flow no longer requests a core.
    fn apply_fault_limits(
        faults: &Injector,
        active: &[ActiveFlow],
        alloc: &mut Allocation,
        now: f64,
    ) {
        if faults.is_empty() {
            return;
        }
        let mut at = 0;
        for (id, cmd) in alloc.iter_mut() {
            let Some(af) = seek(active, &mut at, id, |af| af.p.spec.id) else {
                continue;
            };
            let spec = &af.p.spec;
            if faults.is_worker_down(spec.src.0, now) || faults.is_worker_down(spec.dst.0, now) {
                *cmd = FlowCommand::IDLE;
                continue;
            }
            let factor = faults
                .link_factor(spec.src.0, now)
                .min(faults.link_factor(spec.dst.0, now));
            if factor < 1.0 && cmd.rate > 0.0 {
                cmd.rate *= factor;
            }
        }
    }

    /// Limit compression commands per sender to the node's free cores; the
    /// paper's compression strategy requires "CPU resources are enough"
    /// (Pseudocode 1, line 4). Flows whose raw part is already exhausted
    /// cannot usefully compress either, and a fault plan can revoke cores
    /// the CPU model would otherwise grant. A flow denied compression falls
    /// back to *transmitting at its policy-assigned rate* rather than
    /// idling — idling would discard bandwidth the policy already reserved
    /// for it; this is also the graceful-degradation path for mid-run core
    /// revocation. Returns true when any fallback kept a positive rate (the
    /// caller re-clamps, since compressing flows are invisible to port
    /// loads).
    fn enforce_cpu(
        cpu: &CpuModel,
        faults: &Injector,
        active: &[ActiveFlow],
        cpu_used: &mut TouchedCounters,
        alloc: &mut Allocation,
        now: f64,
        tracer: &Tracer,
    ) -> bool {
        cpu_used.reset(cpu.num_nodes());
        let mut kept_rate = false;
        // Allocation iterates in ascending flow id, so core grants keep the
        // deterministic first-come-first-served-by-id order.
        let mut at = 0;
        for (id, cmd) in alloc.iter_mut() {
            if !cmd.compress {
                continue;
            }
            let Some(af) = seek(active, &mut at, id, |af| af.p.spec.id) else {
                *cmd = FlowCommand::IDLE;
                continue;
            };
            let p = &af.p;
            let denial = if !p.spec.compressible {
                Some(DenialReason::Incompressible)
            } else if p.raw <= VOLUME_EPS {
                Some(DenialReason::RawExhausted)
            } else {
                let used = cpu_used.get(p.spec.src.index());
                let free = cpu.free_cores(p.spec.src, now);
                let granted = free.saturating_sub(faults.revoked_cores(p.spec.src.0, now));
                if used < granted {
                    None
                } else if used < free {
                    Some(DenialReason::CoreRevoked)
                } else {
                    Some(DenialReason::NoFreeCore)
                }
            };
            match denial {
                Some(reason) => {
                    tracer.emit(now, || TraceEvent::CompressionDenied {
                        flow: id.0,
                        node: p.spec.src.0,
                        reason,
                    });
                    *cmd = FlowCommand::transmit(cmd.rate);
                    kept_rate |= cmd.rate > 0.0;
                }
                None => {
                    tracer.emit(now, || TraceEvent::CompressionGranted {
                        flow: id.0,
                        node: p.spec.src.0,
                    });
                    cpu_used.inc(p.spec.src.index());
                }
            }
        }
        kept_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use crate::policy::FairSharePolicy;
    use crate::units;

    pub(super) fn single_flow_trace(size: f64) -> Vec<Coflow> {
        vec![Coflow::builder(0)
            .arrival(0.0)
            .flow(FlowSpec::new(0, 0, 1, size))
            .build()]
    }

    #[test]
    fn single_flow_fct_is_size_over_bandwidth() {
        let fabric = Fabric::uniform(2, 100.0);
        let engine = Engine::new(
            fabric,
            single_flow_trace(1000.0),
            SimConfig::default().with_slice(0.1),
        );
        let res = engine.run(&mut FairSharePolicy::default());
        assert!(res.all_complete());
        // 1000 bytes at 100 B/s = 10 s.
        assert!((res.avg_fct() - 10.0).abs() < 1e-6, "fct={}", res.avg_fct());
        assert!((res.avg_cct() - 10.0).abs() < 1e-6);
        assert!((res.makespan - 10.0).abs() < 1e-6);
        assert!((res.total_wire_bytes() - 1000.0).abs() < 1e-6);
        assert_eq!(res.traffic_reduction(), 0.0);
    }

    #[test]
    fn two_flows_share_one_port_fairly() {
        let fabric = Fabric::uniform(3, 100.0);
        let coflows = vec![
            Coflow::builder(0)
                .flow(FlowSpec::new(0, 0, 1, 500.0))
                .build(),
            Coflow::builder(1)
                .flow(FlowSpec::new(1, 0, 2, 1000.0))
                .build(),
        ];
        let engine = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.05));
        let res = engine.run(&mut FairSharePolicy::default());
        assert!(res.all_complete());
        // Fair share: both at 50 B/s until t=10 (f0 done), then f1 at 100.
        // f1 remaining 500 at t=10 → done at 15.
        let fct0 = res.flows[0].fct().unwrap();
        let fct1 = res.flows[1].fct().unwrap();
        assert!((fct0 - 10.0).abs() < 0.1, "fct0={fct0}");
        assert!((fct1 - 15.0).abs() < 0.1, "fct1={fct1}");
    }

    #[test]
    fn late_arrival_preempts_via_reschedule() {
        let fabric = Fabric::uniform(3, 100.0);
        let coflows = vec![
            Coflow::builder(0)
                .arrival(0.0)
                .flow(FlowSpec::new(0, 0, 1, 1000.0))
                .build(),
            Coflow::builder(1)
                .arrival(5.0)
                .flow(FlowSpec::new(1, 0, 2, 100.0))
                .build(),
        ];
        let engine = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.1));
        let res = engine.run(&mut FairSharePolicy::default());
        assert!(res.all_complete());
        // f0 runs alone [0,5) at 100 B/s → 500 left; then shares at 50 B/s.
        // f1 (100 bytes) done at 5 + 2 = 7; f0 then full rate: 500−100=400
        // left at t=7 → done at 11.
        let fct0 = res.flows[0].fct().unwrap();
        let fct1 = res.flows[1].fct().unwrap();
        assert!((fct1 - 2.0).abs() < 0.2, "fct1={fct1}");
        assert!((fct0 - 11.0).abs() < 0.2, "fct0={fct0}");
    }

    #[test]
    fn idle_gap_fast_forwards() {
        let fabric = Fabric::uniform(2, 100.0);
        let coflows = vec![Coflow::builder(0)
            .arrival(1000.0)
            .flow(FlowSpec::new(0, 0, 1, 100.0))
            .build()];
        let engine = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.01));
        let res = engine.run(&mut FairSharePolicy::default());
        assert!(res.all_complete());
        // CCT is measured from the coflow's own arrival.
        assert!((res.avg_cct() - 1.0).abs() < 0.05, "cct={}", res.avg_cct());
        assert!((res.makespan - 1001.0).abs() < 0.05);
    }

    #[test]
    fn zero_sized_flows_complete_instantly() {
        let fabric = Fabric::uniform(2, 100.0);
        let coflows = vec![Coflow::builder(0)
            .arrival(0.0)
            .flow(FlowSpec::new(0, 0, 1, 0.0))
            .flow(FlowSpec::new(1, 0, 1, 100.0))
            .build()];
        let engine = Engine::new(fabric, coflows, SimConfig::default());
        let res = engine.run(&mut FairSharePolicy::default());
        assert!(res.all_complete());
        assert_eq!(res.flows[0].fct().unwrap(), 0.0);
        assert!(res.flows[1].fct().unwrap() > 0.9);
    }

    #[test]
    fn empty_coflow_completes_on_arrival() {
        let fabric = Fabric::uniform(2, 100.0);
        let coflows = vec![Coflow::builder(0).arrival(2.0).build()];
        let engine = Engine::new(fabric, coflows, SimConfig::default());
        let res = engine.run(&mut FairSharePolicy::default());
        assert_eq!(res.coflows.len(), 1);
        assert_eq!(res.coflows[0].cct(), Some(0.0));
    }

    #[test]
    fn compression_policy_reduces_traffic() {
        /// β=1 while raw remains, then transmit at full port rate.
        struct CompressThenSend;
        impl Policy for CompressThenSend {
            fn name(&self) -> &str {
                "compress-then-send"
            }
            fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
                let mut a = Allocation::new();
                for f in &view.flows {
                    if f.raw > VOLUME_EPS && f.compressible {
                        a.set(f.id, FlowCommand::compressing());
                    } else {
                        a.set(f.id, FlowCommand::transmit(view.min_port_cap(f)));
                    }
                }
                a
            }
        }
        let fabric = Fabric::uniform(2, 100.0);
        // Compression: 1000 B/s input, ratio 0.5 → strictly beneficial.
        let spec = Arc::new(ConstCompression::new("test", 1000.0, 0.5));
        let sink = Arc::new(swallow_trace::CollectSink::new());
        let engine = Engine::new(
            fabric,
            single_flow_trace(1000.0),
            SimConfig::default()
                .with_slice(0.01)
                .with_compression(spec)
                .with_tracer(Tracer::with_sink(sink.clone())),
        );
        let res = engine.run(&mut CompressThenSend);
        assert!(res.all_complete());
        // 1000 raw compress to 500; only ~500 hit the wire.
        assert!(
            (res.total_wire_bytes() - 500.0).abs() < 5.0,
            "wire={}",
            res.total_wire_bytes()
        );
        assert!((res.traffic_reduction() - 0.5).abs() < 0.01);
        // Compress takes 1 s, transmit 500/100 = 5 s → FCT ≈ 6 s, much
        // better than the 10 s without compression.
        let fct = res.avg_fct();
        assert!((fct - 6.0).abs() < 0.1, "fct={fct}");
        // The one flow ran out of raw bytes exactly once.
        let exhausted = sink
            .snapshot()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RawExhausted { flow: 0 }))
            .count();
        assert_eq!(exhausted, 1);
    }

    #[test]
    fn cpu_limit_caps_concurrent_compression() {
        struct CompressAll;
        impl Policy for CompressAll {
            fn name(&self) -> &str {
                "compress-all"
            }
            fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
                let mut a = Allocation::new();
                for f in &view.flows {
                    if f.raw > VOLUME_EPS {
                        a.set(f.id, FlowCommand::compressing());
                    } else {
                        a.set(f.id, FlowCommand::transmit(10.0));
                    }
                }
                a
            }
        }
        let fabric = Fabric::uniform(2, 100.0);
        // One core only: the two flows cannot both compress at once.
        let cpu = CpuModel::unconstrained(2, 1);
        let spec = Arc::new(ConstCompression::new("test", 100.0, 0.5));
        let coflows = vec![Coflow::builder(0)
            .flow(FlowSpec::new(0, 0, 1, 100.0))
            .flow(FlowSpec::new(1, 0, 1, 100.0))
            .build()];
        let engine = Engine::new(
            fabric,
            coflows,
            SimConfig::default()
                .with_slice(0.01)
                .with_cpu(cpu)
                .with_compression(spec),
        );
        let res = engine.run(&mut CompressAll);
        assert!(res.all_complete());
        // Serial compression (1 s each due to the single core) still ends
        // with both flows compressed: wire bytes ≈ 100 total.
        assert!(
            (res.total_wire_bytes() - 100.0).abs() < 2.0,
            "wire={}",
            res.total_wire_bytes()
        );
    }

    #[test]
    fn stalled_policy_terminates() {
        struct DoNothing;
        impl Policy for DoNothing {
            fn name(&self) -> &str {
                "noop"
            }
            fn allocate(&mut self, _view: &FabricView<'_>) -> Allocation {
                Allocation::new()
            }
        }
        let fabric = Fabric::uniform(2, 100.0);
        let engine = Engine::new(fabric, single_flow_trace(100.0), SimConfig::default());
        let res = engine.run(&mut DoNothing);
        assert!(!res.all_complete());
        assert_eq!(res.coflows.len(), 1);
        assert_eq!(res.coflows[0].completed_at, None);
    }

    #[test]
    fn oversubscribed_allocation_is_clamped() {
        struct Greedy;
        impl Policy for Greedy {
            fn name(&self) -> &str {
                "greedy"
            }
            fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
                let mut a = Allocation::new();
                for f in &view.flows {
                    // Demands 3× the port capacity in total.
                    a.set(f.id, FlowCommand::transmit(view.min_port_cap(f)));
                }
                a
            }
        }
        let fabric = Fabric::uniform(4, 90.0);
        let coflows = vec![Coflow::builder(0)
            .flow(FlowSpec::new(0, 0, 1, 300.0))
            .flow(FlowSpec::new(1, 0, 2, 300.0))
            .flow(FlowSpec::new(2, 0, 3, 300.0))
            .build()];
        let engine = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.1));
        let res = engine.run(&mut Greedy);
        assert!(res.all_complete());
        // 900 bytes through one 90 B/s egress port can't beat 10 s.
        assert!(res.makespan >= 10.0 - 1e-6, "makespan={}", res.makespan);
    }

    #[test]
    fn events_only_reschedules_less() {
        let fabric = Fabric::uniform(3, units::mbps(100.0));
        let coflows = vec![
            Coflow::builder(0)
                .flow(FlowSpec::new(0, 0, 1, 10.0 * units::MB))
                .build(),
            Coflow::builder(1)
                .arrival(0.5)
                .flow(FlowSpec::new(1, 0, 2, 10.0 * units::MB))
                .build(),
        ];
        let every = Engine::new(
            fabric.clone(),
            coflows.clone(),
            SimConfig::default().with_slice(0.01),
        )
        .run(&mut FairSharePolicy::default());
        let events_only = Engine::new(
            fabric,
            coflows,
            SimConfig::default()
                .with_slice(0.01)
                .with_reschedule(Reschedule::EventsOnly),
        )
        .run(&mut FairSharePolicy::default());
        assert!(every.all_complete() && events_only.all_complete());
        assert!(events_only.reschedules < every.reschedules);
        // Same fluid trajectory → nearly identical FCTs.
        assert!((every.avg_fct() - events_only.avg_fct()).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "duplicate flow id")]
    fn duplicate_flow_ids_rejected() {
        let fabric = Fabric::uniform(2, 1.0);
        let coflows = vec![
            Coflow::builder(0).flow(FlowSpec::new(0, 0, 1, 1.0)).build(),
            Coflow::builder(1).flow(FlowSpec::new(0, 0, 1, 1.0)).build(),
        ];
        Engine::new(fabric, coflows, SimConfig::default());
    }

    #[test]
    #[should_panic(expected = "outside the fabric")]
    fn out_of_range_node_rejected() {
        let fabric = Fabric::uniform(2, 1.0);
        let coflows = vec![Coflow::builder(0).flow(FlowSpec::new(0, 0, 5, 1.0)).build()];
        Engine::new(fabric, coflows, SimConfig::default());
    }
}

#[cfg(test)]
mod decompression_tests {
    use super::*;
    use crate::flow::FlowSpec;
    use crate::view::FabricView;
    use crate::VOLUME_EPS;

    /// β=1 while raw remains, then full-rate transmit (the feasibility clamp
    /// shares a port several flows ask for in full).
    pub(super) struct CompressThenSend;
    impl Policy for CompressThenSend {
        fn name(&self) -> &str {
            "compress-then-send"
        }
        fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
            let mut a = Allocation::new();
            for f in &view.flows {
                if f.raw > VOLUME_EPS {
                    a.set(f.id, FlowCommand::compressing());
                } else {
                    a.set(f.id, FlowCommand::transmit(view.min_port_cap(f)));
                }
            }
            a
        }
    }

    /// A spec with an explicit (finite) decompression speed.
    struct SlowDecomp;
    impl CompressionSpec for SlowDecomp {
        fn speed(&self) -> f64 {
            1000.0
        }
        fn ratio(&self, _size: f64) -> f64 {
            0.5
        }
        fn decompress_speed(&self) -> f64 {
            50.0 // compressed bytes per second — pathologically slow
        }
    }

    fn run(model: bool) -> SimResult {
        let fabric = Fabric::uniform(2, 100.0);
        let coflows = vec![Coflow::builder(0)
            .flow(FlowSpec::new(0, 0, 1, 1000.0))
            .build()];
        let mut config = SimConfig::default()
            .with_slice(0.01)
            .with_compression(Arc::new(SlowDecomp));
        if model {
            config = config.with_decompression_model();
        }
        Engine::new(fabric, coflows, config).run(&mut CompressThenSend)
    }

    #[test]
    fn decompression_penalty_is_charged_when_modelled() {
        let without = run(false);
        let with = run(true);
        assert!(without.all_complete() && with.all_complete());
        // 1000 raw compress to 500; decompressing 500 at 50 B/s adds 10 s.
        let delta = with.avg_fct() - without.avg_fct();
        assert!((delta - 10.0).abs() < 0.2, "delta={delta}");
    }

    #[test]
    fn infinite_decompression_speed_is_free() {
        // The default ConstCompression keeps the paper's omission: modelling
        // costs nothing when decompress_speed is infinite.
        let fabric = Fabric::uniform(2, 100.0);
        let coflows = vec![Coflow::builder(0)
            .flow(FlowSpec::new(0, 0, 1, 1000.0))
            .build()];
        let spec = Arc::new(ConstCompression::new("fast", 1000.0, 0.5));
        let base = Engine::new(
            fabric.clone(),
            coflows.clone(),
            SimConfig::default()
                .with_slice(0.01)
                .with_compression(spec.clone()),
        )
        .run(&mut CompressThenSend);
        let modelled = Engine::new(
            fabric,
            coflows,
            SimConfig::default()
                .with_slice(0.01)
                .with_compression(spec)
                .with_decompression_model(),
        )
        .run(&mut CompressThenSend);
        assert!((base.avg_fct() - modelled.avg_fct()).abs() < 1e-9);
    }
}

#[cfg(test)]
mod instrumentation_tests {
    use super::*;
    use crate::flow::FlowSpec;
    use crate::policy::FairSharePolicy;
    use swallow_trace::CollectSink;

    fn trace() -> Vec<Coflow> {
        vec![
            Coflow::builder(0)
                .flow(FlowSpec::new(0, 0, 1, 500.0))
                .build(),
            Coflow::builder(1)
                .arrival(2.0)
                .flow(FlowSpec::new(1, 0, 2, 300.0))
                .build(),
        ]
    }

    #[test]
    fn traced_events_record_ordered_lifecycle() {
        let sink = Arc::new(CollectSink::new());
        let engine = Engine::new(
            Fabric::uniform(3, 100.0),
            trace(),
            SimConfig::default()
                .with_slice(0.05)
                .with_tracer(Tracer::with_sink(sink.clone())),
        );
        let res = engine.run(&mut FairSharePolicy::default());
        let records = sink.snapshot();
        assert!(!records.is_empty());
        // Timestamps never decrease by more than a slice (completion events
        // are interpolated inside the slice that detected them).
        assert!(records.windows(2).all(|w| w[1].t >= w[0].t - 0.05 - 1e-9));
        // Both coflows arrive and complete; arrivals precede completions.
        let times = |kind: &str| -> Vec<f64> {
            let of_kind = records.iter().filter(|r| r.event.kind() == kind);
            of_kind.map(|r| r.t).collect()
        };
        let (arr, done) = (times("coflow_arrived"), times("coflow_completed"));
        assert_eq!(arr.len(), 2);
        assert_eq!(done.len(), 2);
        assert!(arr[0] <= done[0]);
        // Per-flow completions (2 of them) and every reschedule are there.
        assert_eq!(times("flow_completed").len(), 2);
        assert_eq!(times("rescheduled").len(), res.reschedules);
    }

    #[test]
    fn horizon_abort_leaves_partial_records() {
        let sink = Arc::new(CollectSink::new());
        let engine = Engine::new(
            Fabric::uniform(2, 1.0), // 500 B at 1 B/s would need 500 s
            vec![Coflow::builder(0)
                .flow(FlowSpec::new(0, 0, 1, 500.0))
                .build()],
            SimConfig {
                max_time: 5.0,
                ..SimConfig::default()
                    .with_slice(0.1)
                    .with_tracer(Tracer::with_sink(sink.clone()))
            },
        );
        let res = engine.run(&mut FairSharePolicy::default());
        assert!(!res.all_complete());
        assert_eq!(res.coflows.len(), 1);
        assert_eq!(res.coflows[0].completed_at, None);
        // Partial progress was preserved: ~5 s at 1 B/s.
        let wire = res.flows[0].wire_bytes;
        assert!(wire > 3.0 && wire < 7.0, "wire={wire}");
        let last = sink.snapshot().pop().expect("trace is not empty");
        assert_eq!(last.event, TraceEvent::HorizonReached);
    }

    #[test]
    fn makespan_tracks_last_completion() {
        let engine = Engine::new(
            Fabric::uniform(3, 100.0),
            trace(),
            SimConfig::default().with_slice(0.01),
        );
        let res = engine.run(&mut FairSharePolicy::default());
        let last = res
            .flows
            .iter()
            .filter_map(|f| f.completed_at)
            .fold(0.0, f64::max);
        assert!((res.makespan - last).abs() < 1e-9);
    }
}

#[cfg(test)]
mod fast_path_tests {
    use super::*;
    use crate::flow::FlowSpec;
    use crate::policy::FairSharePolicy;

    /// Request compression (with a transmit rate riding along) while raw
    /// bytes remain, else plain transmission. Mirrors a joint policy that
    /// always hedges its compression requests with a usable rate.
    struct CompressWithRate;
    impl Policy for CompressWithRate {
        fn name(&self) -> &str {
            "compress-with-rate"
        }
        fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
            let mut a = Allocation::new();
            for f in &view.flows {
                if f.raw > VOLUME_EPS && f.compressible {
                    a.set(
                        f.id,
                        FlowCommand {
                            rate: 50.0,
                            compress: true,
                        },
                    );
                } else {
                    a.set(f.id, FlowCommand::transmit(50.0));
                }
            }
            a
        }
    }

    #[test]
    fn cpu_denied_flow_transmits_at_assigned_rate() {
        // One compression core, two flows that both ask for it. Flow 0 (the
        // lower id) wins the core and compresses for 10 s (100 B at 10 B/s);
        // flow 1 must NOT idle for those 10 s — it falls back to the 50 B/s
        // rate the policy assigned and finishes in ~2 s, uncompressed.
        let fabric = Fabric::uniform(2, 100.0);
        let cpu = CpuModel::unconstrained(2, 1);
        let spec = Arc::new(ConstCompression::new("slow", 10.0, 0.5));
        let coflows = vec![Coflow::builder(0)
            .flow(FlowSpec::new(0, 0, 1, 100.0))
            .flow(FlowSpec::new(1, 0, 1, 100.0))
            .build()];
        let engine = Engine::new(
            fabric,
            coflows,
            SimConfig::default()
                .with_slice(0.01)
                .with_cpu(cpu)
                .with_compression(spec),
        );
        let res = engine.run(&mut CompressWithRate);
        assert!(res.all_complete());
        let f1 = &res.flows[1];
        let fct1 = f1.fct().unwrap();
        assert!((fct1 - 2.0).abs() < 0.1, "denied flow should send: {fct1}");
        // It never got a core, so every byte went out raw.
        assert!(
            (f1.wire_bytes - 100.0).abs() < 1.0,
            "wire={}",
            f1.wire_bytes
        );
        assert_eq!(f1.compressed_input, 0.0);
        // The winner still compressed: 100 raw → 50 wire bytes.
        let f0 = &res.flows[0];
        assert!((f0.wire_bytes - 50.0).abs() < 1.0, "wire={}", f0.wire_bytes);
    }

    pub(super) fn staggered_trace() -> Vec<Coflow> {
        vec![
            Coflow::builder(0)
                .arrival(0.0)
                .flow(FlowSpec::new(0, 0, 1, 1000.0))
                .flow(FlowSpec::new(1, 0, 2, 400.0))
                .build(),
            Coflow::builder(1)
                .arrival(3.137)
                .flow(FlowSpec::new(2, 1, 2, 700.0))
                .build(),
            Coflow::builder(2)
                .arrival(20.0)
                .flow(FlowSpec::new(3, 2, 0, 100.0))
                .build(),
        ]
    }

    pub(super) fn assert_bit_identical(fast: &SimResult, naive: &SimResult) {
        assert_eq!(fast.flows, naive.flows);
        assert_eq!(fast.coflows, naive.coflows);
        assert_eq!(fast.makespan.to_bits(), naive.makespan.to_bits());
        assert_eq!(fast.reschedules, naive.reschedules);
    }

    #[test]
    fn skip_ahead_is_bit_identical_to_naive_loop() {
        let fabric = Fabric::uniform(3, 100.0);
        let cfg = SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly);
        let fast = Engine::new(fabric.clone(), staggered_trace(), cfg.clone())
            .run(&mut FairSharePolicy::default());
        let naive = Engine::new(
            fabric,
            staggered_trace(),
            cfg.with_mode(EngineMode::NaiveSlice),
        )
        .run(&mut FairSharePolicy::default());
        assert!(fast.all_complete());
        assert_bit_identical(&fast, &naive);
    }

    #[test]
    fn streamed_arrivals_match_materialized_trace() {
        // A stream-fed engine must reproduce the materialized run bit for
        // bit, in both time-advance modes.
        let fabric = Fabric::uniform(3, 100.0);
        for mode in [EngineMode::NaiveSlice, EngineMode::SkipAhead] {
            let cfg = SimConfig::default()
                .with_slice(0.01)
                .with_reschedule(Reschedule::EventsOnly)
                .with_mode(mode);
            let materialized = Engine::new(fabric.clone(), staggered_trace(), cfg.clone())
                .run(&mut FairSharePolicy::default());
            let streamed =
                Engine::from_arrivals(fabric.clone(), Box::new(staggered_trace().into_iter()), cfg)
                    .run(&mut FairSharePolicy::default());
            assert!(streamed.all_complete());
            assert_bit_identical(&streamed, &materialized);
        }
    }

    #[test]
    fn empty_stream_completes_immediately() {
        let res = Engine::from_arrivals(
            Fabric::uniform(2, 100.0),
            Box::new(std::iter::empty()),
            SimConfig::default(),
        )
        .run(&mut FairSharePolicy::default());
        assert!(res.all_complete());
        assert_eq!(res.flows.len(), 0);
        assert_eq!(res.makespan, 0.0);
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn unsorted_stream_is_rejected() {
        let mut coflows = staggered_trace();
        coflows.reverse();
        Engine::from_arrivals(
            Fabric::uniform(3, 100.0),
            Box::new(coflows.into_iter()),
            SimConfig::default(),
        )
        .run(&mut FairSharePolicy::default());
    }

    #[test]
    #[should_panic(expected = "duplicate flow id")]
    fn streamed_duplicate_flow_ids_rejected() {
        let coflows = vec![
            Coflow::builder(0)
                .arrival(0.0)
                .flow(FlowSpec::new(7, 0, 1, 100.0))
                .build(),
            Coflow::builder(1)
                .arrival(0.5)
                .flow(FlowSpec::new(7, 1, 0, 100.0))
                .build(),
        ];
        Engine::from_arrivals(
            Fabric::uniform(2, 100.0),
            Box::new(coflows.into_iter()),
            SimConfig::default(),
        )
        .run(&mut FairSharePolicy::default());
    }

    #[test]
    fn background_traffic_equals_derated_capacity() {
        // bg = 0.5 over 200 B/s ports must be bit-identical to bg = 0 over
        // 100 B/s ports — the capacity model is exactly a fabric derate.
        let cfg = SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly);
        let derated = Engine::new(Fabric::uniform(3, 100.0), staggered_trace(), cfg.clone())
            .run(&mut FairSharePolicy::default());
        let background = Engine::new(
            Fabric::uniform(3, 200.0),
            staggered_trace(),
            cfg.with_background_traffic(0.5),
        )
        .run(&mut FairSharePolicy::default());
        assert!(background.all_complete());
        assert_bit_identical(&background, &derated);
    }

    #[test]
    fn background_traffic_slows_completion() {
        let cfg = SimConfig::default().with_slice(0.01);
        let clear = Engine::new(Fabric::uniform(3, 100.0), staggered_trace(), cfg.clone())
            .run(&mut FairSharePolicy::default());
        let busy = Engine::new(
            Fabric::uniform(3, 100.0),
            staggered_trace(),
            cfg.with_background_traffic(0.25),
        )
        .run(&mut FairSharePolicy::default());
        assert!(busy.all_complete());
        assert!(
            busy.avg_cct() > clear.avg_cct() * 1.2,
            "bg cct={} clear cct={}",
            busy.avg_cct(),
            clear.avg_cct()
        );
    }

    #[test]
    #[should_panic(expected = "background traffic fraction")]
    fn full_background_traffic_rejected() {
        SimConfig::default().with_background_traffic(1.0);
    }

    #[test]
    fn skip_ahead_is_bit_identical_with_compression() {
        // Compression exercises the raw-exhaustion skip bound and the
        // compress → transmit segment switch.
        struct CompressThenSend;
        impl Policy for CompressThenSend {
            fn name(&self) -> &str {
                "compress-then-send"
            }
            fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
                let mut a = Allocation::new();
                for f in &view.flows {
                    if f.raw > VOLUME_EPS && f.compressible {
                        a.set(f.id, FlowCommand::compressing());
                    } else {
                        a.set(f.id, FlowCommand::transmit(view.min_port_cap(f)));
                    }
                }
                a
            }
        }
        let fabric = Fabric::uniform(3, 100.0);
        let spec = Arc::new(ConstCompression::new("test", 300.0, 0.4));
        let cfg = SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly)
            .with_compression(spec);
        let fast =
            Engine::new(fabric.clone(), staggered_trace(), cfg.clone()).run(&mut CompressThenSend);
        let naive = Engine::new(
            fabric,
            staggered_trace(),
            cfg.with_mode(EngineMode::NaiveSlice),
        )
        .run(&mut CompressThenSend);
        assert!(fast.all_complete());
        assert_bit_identical(&fast, &naive);
    }

    #[test]
    fn events_only_matches_every_slice_on_static_trace() {
        // A single arrival and a stateless policy: after the one reschedule
        // the allocation never changes, so the cadences must walk the exact
        // same closed-form trajectory.
        let fabric = Fabric::uniform(3, 100.0);
        let coflows = vec![Coflow::builder(0)
            .arrival(0.0)
            .flow(FlowSpec::new(0, 0, 1, 1000.0))
            .flow(FlowSpec::new(1, 0, 2, 400.0))
            .build()];
        let every = Engine::new(
            fabric.clone(),
            coflows.clone(),
            SimConfig::default().with_slice(0.01),
        )
        .run(&mut FairSharePolicy::default());
        let events_only = Engine::new(
            fabric,
            coflows,
            SimConfig::default()
                .with_slice(0.01)
                .with_reschedule(Reschedule::EventsOnly),
        )
        .run(&mut FairSharePolicy::default());
        assert_eq!(every.flows, events_only.flows);
        assert_eq!(every.coflows, events_only.coflows);
        assert_eq!(every.makespan.to_bits(), events_only.makespan.to_bits());
    }

    #[test]
    fn skip_ahead_jumps_in_one_reschedule_worth_of_slices() {
        // 1000 B at 100 B/s with δ = 1 ms is 10 000 slices; the skip path
        // must land on the completion slice without visibly iterating (the
        // reschedule count proves the engine saw only the two events).
        let fabric = Fabric::uniform(2, 100.0);
        let coflows = vec![Coflow::builder(0)
            .arrival(0.0)
            .flow(FlowSpec::new(0, 0, 1, 1000.0))
            .build()];
        let res = Engine::new(
            fabric,
            coflows,
            SimConfig::default()
                .with_slice(0.001)
                .with_reschedule(Reschedule::EventsOnly),
        )
        .run(&mut FairSharePolicy::default());
        assert!(res.all_complete());
        assert!((res.avg_fct() - 10.0).abs() < 1e-6);
        assert!(res.reschedules <= 2, "reschedules={}", res.reschedules);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::decompression_tests::CompressThenSend;
    use super::fast_path_tests::{assert_bit_identical, staggered_trace};
    use super::tests::single_flow_trace;
    use super::*;
    use crate::flow::FlowSpec;
    use crate::policy::FairSharePolicy;
    use swallow_trace::CollectSink;

    fn two_coflow_trace() -> Vec<Coflow> {
        vec![
            Coflow::builder(0)
                .arrival(0.0)
                .flow(FlowSpec::new(0, 0, 1, 1000.0))
                .build(),
            Coflow::builder(1)
                .arrival(4.0)
                .flow(FlowSpec::new(1, 0, 2, 200.0))
                .build(),
        ]
    }

    #[test]
    fn traced_run_matches_untraced_bit_for_bit() {
        let fabric = Fabric::uniform(3, 100.0);
        let cfg = SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly);
        let plain = Engine::new(fabric.clone(), two_coflow_trace(), cfg.clone())
            .run(&mut FairSharePolicy::default());
        let traced = Engine::new(
            fabric,
            two_coflow_trace(),
            cfg.with_tracer(Tracer::new(CollectSink::new())),
        )
        .run(&mut FairSharePolicy::default());
        assert_eq!(plain.flows, traced.flows);
        assert_eq!(plain.coflows, traced.coflows);
        assert_eq!(plain.makespan.to_bits(), traced.makespan.to_bits());
        assert_eq!(plain.reschedules, traced.reschedules);
    }

    /// Records `(slice_idx, live flows)` of every boundary it is shown.
    #[derive(Default)]
    struct LiveFlows(std::sync::Mutex<Vec<(u64, usize)>>);
    impl BoundaryObserver for LiveFlows {
        fn at_boundary(&self, snap: &BoundarySnapshot<'_>) {
            let mut seen = self.0.lock().unwrap();
            seen.push((snap.slice_idx, snap.flows.len()));
        }
    }

    #[test]
    fn telemetry_samples_are_consistent_cuts_of_an_unperturbed_run() {
        const DELTA: f64 = 0.01;
        let fabric = Fabric::uniform(3, 100.0);
        let cfg = SimConfig::default()
            .with_slice(DELTA)
            .with_reschedule(Reschedule::EventsOnly)
            .with_compression(Arc::new(ConstCompression::new("test", 300.0, 0.4)));
        let bare =
            Engine::new(fabric.clone(), two_coflow_trace(), cfg.clone()).run(&mut CompressThenSend);
        assert!(bare.all_complete());
        // Tracer, checker and telemetry (stride 1) all attached.
        let observed = |mode: EngineMode| {
            let telemetry = Arc::new(Telemetry::with_stride(1));
            let live = Arc::new(LiveFlows::default());
            let config = cfg
                .clone()
                .with_mode(mode)
                .with_tracer(Tracer::new(CollectSink::new()))
                .with_check(live.clone())
                .with_telemetry(telemetry.clone());
            let res =
                Engine::new(fabric.clone(), two_coflow_trace(), config).run(&mut CompressThenSend);
            let live = live.0.lock().unwrap().clone();
            (res, telemetry.samples(), live)
        };
        let (fast, fast_samples, fast_live) = observed(EngineMode::SkipAhead);
        let (naive, naive_samples, naive_live) = observed(EngineMode::NaiveSlice);
        // Observing changes nothing, in either mode.
        assert_bit_identical(&fast, &bare);
        assert_bit_identical(&naive, &bare);

        let wire = bare.total_wire_bytes();
        let saved = bare.total_raw_bytes() - wire;
        for (samples, live) in [(&fast_samples, &fast_live), (&naive_samples, &naive_live)] {
            // At stride 1 the sampler and the checker see the same boundaries.
            assert_eq!(samples.len(), live.len());
            assert_eq!(samples[0].bytes_on_wire, 0.0);
            assert_eq!(samples[0].reschedules, 1);
            for (s, &(idx, flows)) in samples.iter().zip(live) {
                assert_eq!(s.slice_idx, idx);
                assert_eq!(s.time, idx as f64 * DELTA);
                assert!(s.transmitting_flows + s.compressing_flows <= flows as u64);
                assert!(s.max_port_util <= 1.0 + 1e-6, "util={}", s.max_port_util);
                assert!(s.bytes_on_wire <= wire + 1e-9 && s.bytes_saved <= saved + 1e-9);
            }
            for w in samples.windows(2) {
                assert!(w[0].time < w[1].time);
                assert!(w[0].bytes_on_wire <= w[1].bytes_on_wire);
                assert!(w[0].bytes_saved <= w[1].bytes_saved);
                assert!(w[0].reschedules <= w[1].reschedules);
            }
            assert!(samples.last().unwrap().time <= bare.makespan);
            assert!(samples.iter().any(|s| s.compressing_flows > 0));
            // Both coflows transmitting: node 0's egress is the saturated
            // bottleneck of a three-node fabric.
            let contended = samples.iter().find(|s| s.transmitting_flows == 2).unwrap();
            assert!((contended.max_port_util - 1.0).abs() < 1e-6);
            assert!((contended.net_util - 1.0 / 3.0).abs() < 1e-6);
        }
        // The naive series visits every boundary, so it pins the cut: what
        // reaches the wire between two consecutive cuts is what the commands
        // in force at the first one allow — flows retired by that slice
        // count from the next cut on, never early.
        for w in naive_samples.windows(2) {
            assert_eq!(w[1].slice_idx, w[0].slice_idx + 1);
            let sent = w[1].bytes_on_wire - w[0].bytes_on_wire;
            assert!(sent <= w[0].tx_rate * DELTA + 1e-9, "sent={sent}");
        }
        // Skip-ahead visits a subset of those boundaries and samples the
        // same values there.
        assert!(fast_samples.len() < naive_samples.len());
        for s in &fast_samples {
            let twin = naive_samples.iter().find(|n| n.slice_idx == s.slice_idx);
            assert_eq!(twin, Some(s));
        }
    }

    #[test]
    fn engine_emits_lifecycle_and_skip_events() {
        let sink = Arc::new(CollectSink::new());
        let tracer = Tracer::with_sink(sink.clone());
        let fabric = Fabric::uniform(3, 100.0);
        let res = Engine::new(
            fabric,
            two_coflow_trace(),
            SimConfig::default()
                .with_slice(0.01)
                .with_reschedule(Reschedule::EventsOnly)
                .with_tracer(tracer.clone()),
        )
        .run(&mut FairSharePolicy::default());
        assert!(res.all_complete());
        let records = sink.snapshot();
        let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count();
        assert_eq!(count("coflow_arrived"), 2);
        assert_eq!(count("coflow_completed"), 2);
        assert_eq!(count("flow_started"), 2);
        assert_eq!(count("flow_completed"), 2);
        assert_eq!(count("rescheduled"), res.reschedules);
        assert!(count("skip_ahead") > 0, "quiescent run must jump");
        // The very first reschedule is the initial one; the second carries
        // the arrival of coflow 1.
        let causes: Vec<_> = records
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::Rescheduled { cause, .. } => Some(*cause),
                _ => None,
            })
            .collect();
        assert_eq!(causes[0], RescheduleCause::Initial);
        assert!(causes.contains(&RescheduleCause::Arrival));
        assert!(causes.contains(&RescheduleCause::Completion));
        // Counters: everything skipped or processed, latencies recorded.
        let summary = tracer.summary().unwrap();
        assert!(summary.skip_ahead_hit_ratio > 0.5, "{summary:?}");
        assert_eq!(summary.reschedules, res.reschedules as u64);
        assert_eq!(summary.events_total, records.len() as u64);
    }

    #[test]
    fn compression_grants_and_denials_are_traced() {
        struct AlwaysCompress;
        impl Policy for AlwaysCompress {
            fn name(&self) -> &str {
                "always-compress"
            }
            fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
                let mut a = Allocation::new();
                for f in &view.flows {
                    if f.raw > VOLUME_EPS && f.compressible {
                        a.set(
                            f.id,
                            FlowCommand {
                                rate: 50.0,
                                compress: true,
                            },
                        );
                    } else {
                        a.set(f.id, FlowCommand::transmit(50.0));
                    }
                }
                a
            }
        }
        let sink = Arc::new(CollectSink::new());
        // One core, two compressible flows on the same sender: the lower id
        // gets the core, the other is denied.
        let fabric = Fabric::uniform(2, 100.0);
        let cpu = CpuModel::unconstrained(2, 1);
        let spec = Arc::new(ConstCompression::new("slow", 10.0, 0.5));
        let coflows = vec![Coflow::builder(0)
            .flow(FlowSpec::new(0, 0, 1, 100.0))
            .flow(FlowSpec::new(1, 0, 1, 100.0))
            .build()];
        let res = Engine::new(
            fabric,
            coflows,
            SimConfig::default()
                .with_slice(0.01)
                .with_cpu(cpu)
                .with_compression(spec)
                .with_tracer(Tracer::with_sink(sink.clone())),
        )
        .run(&mut AlwaysCompress);
        assert!(res.all_complete());
        let records = sink.snapshot();
        assert!(records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::CompressionGranted { flow: 0, node: 0 })));
        assert!(records.iter().any(|r| matches!(
            r.event,
            TraceEvent::CompressionDenied {
                flow: 1,
                node: 0,
                reason: DenialReason::NoFreeCore,
            }
        )));
    }

    #[test]
    fn link_degradation_slows_the_flow() {
        use swallow_faults::FaultPlan;
        // Sender's link at half capacity for [0, 6): 50 B/s × 6 s = 300 bytes,
        // then the remaining 700 at full rate → fct = 6 + 7 = 13.
        let fabric = Fabric::uniform(2, 100.0);
        let plan = FaultPlan::new().degrade_link(0, 0.5, 0.0, 6.0);
        let res = Engine::new(
            fabric,
            single_flow_trace(1000.0),
            SimConfig::default()
                .with_slice(0.01)
                .with_reschedule(Reschedule::EventsOnly)
                .with_faults(plan.injector()),
        )
        .run(&mut FairSharePolicy::default());
        assert!(res.all_complete());
        assert!((res.avg_fct() - 13.0).abs() < 0.1, "fct={}", res.avg_fct());
    }

    #[test]
    fn worker_crash_stalls_then_recovers() {
        use swallow_faults::FaultPlan;
        // The receiver dies over [2, 5): 200 bytes move before the crash, the
        // flow idles through it, and the remaining 800 finish by t = 13.
        let fabric = Fabric::uniform(2, 100.0);
        let plan = FaultPlan::new().crash(1, 2.0, Some(5.0));
        let sink = Arc::new(CollectSink::new());
        let res = Engine::new(
            fabric,
            single_flow_trace(1000.0),
            SimConfig::default()
                .with_slice(0.01)
                .with_reschedule(Reschedule::EventsOnly)
                .with_faults(plan.injector())
                .with_tracer(Tracer::with_sink(sink.clone())),
        )
        .run(&mut FairSharePolicy::default());
        assert!(res.all_complete());
        assert!((res.avg_fct() - 13.0).abs() < 0.1, "fct={}", res.avg_fct());
        // Both window edges surface as trace events stamped with fault time.
        let records = sink.snapshot();
        let injected = records
            .iter()
            .find(|r| matches!(r.event, TraceEvent::FaultInjected { node: 1, .. }))
            .expect("crash window open event");
        assert!((injected.t - 2.0).abs() < 1e-9, "t={}", injected.t);
        let cleared = records
            .iter()
            .find(|r| matches!(r.event, TraceEvent::FaultCleared { node: 1, .. }))
            .expect("crash window close event");
        assert!((cleared.t - 5.0).abs() < 1e-9, "t={}", cleared.t);
    }

    #[test]
    fn core_revocation_falls_back_to_transmit() {
        use swallow_faults::FaultPlan;
        struct CompressAll;
        impl Policy for CompressAll {
            fn name(&self) -> &str {
                "compress-all"
            }
            fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
                let mut a = Allocation::new();
                for f in &view.flows {
                    if f.raw > VOLUME_EPS && f.compressible {
                        a.set(
                            f.id,
                            FlowCommand {
                                rate: 50.0,
                                compress: true,
                            },
                        );
                    } else {
                        a.set(f.id, FlowCommand::transmit(50.0));
                    }
                }
                a
            }
        }
        // The sender's only core is revoked for the whole run: compression is
        // denied with `CoreRevoked` and the flow degrades to raw transmit at
        // the rate the policy asked for, still completing.
        let sink = Arc::new(CollectSink::new());
        let fabric = Fabric::uniform(2, 100.0);
        let cpu = CpuModel::unconstrained(2, 1);
        let spec = Arc::new(ConstCompression::new("test", 1000.0, 0.5));
        let plan = FaultPlan::new().revoke_cores(0, 1, 0.0, 1e9);
        let res = Engine::new(
            fabric,
            single_flow_trace(100.0),
            SimConfig::default()
                .with_slice(0.01)
                .with_cpu(cpu)
                .with_compression(spec)
                .with_faults(plan.injector())
                .with_tracer(Tracer::with_sink(sink.clone())),
        )
        .run(&mut CompressAll);
        assert!(res.all_complete());
        // Nothing was compressed: every byte went out raw.
        assert_eq!(res.traffic_reduction(), 0.0);
        assert!((res.total_wire_bytes() - 100.0).abs() < 1e-6);
        assert!(sink.snapshot().iter().any(|r| matches!(
            r.event,
            TraceEvent::CompressionDenied {
                flow: 0,
                node: 0,
                reason: DenialReason::CoreRevoked,
            }
        )));
    }

    #[test]
    fn permanent_crash_terminates_via_stall_net() {
        use swallow_faults::FaultPlan;
        // A crash with no restart leaves the flow idle forever; the stall net
        // re-arms once the last fault boundary has been observed and the run
        // terminates incomplete instead of hanging.
        let fabric = Fabric::uniform(2, 100.0);
        let plan = FaultPlan::new().crash(1, 2.0, None);
        let res = Engine::new(
            fabric,
            single_flow_trace(1000.0),
            SimConfig::default()
                .with_slice(0.01)
                .with_reschedule(Reschedule::EventsOnly)
                .with_faults(plan.injector()),
        )
        .run(&mut FairSharePolicy::default());
        assert!(!res.all_complete());
        assert!(res.makespan.is_finite());
        // It made progress right up to the crash.
        assert!((res.total_wire_bytes() - 200.0).abs() < 2.0);
    }

    #[test]
    fn fault_run_is_bit_identical_with_skip_ahead() {
        use swallow_faults::FaultPlan;
        // Fault boundaries must be observed on the same slice in the skip
        // path as in the naive loop, or the two runs diverge.
        let plan = FaultPlan::new()
            .crash(1, 2.0, Some(5.0))
            .degrade_link(2, 0.5, 4.0, 10.0);
        let fabric = Fabric::uniform(3, 100.0);
        let cfg = SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly)
            .with_faults(plan.injector());
        let fast = Engine::new(fabric.clone(), staggered_trace(), cfg.clone())
            .run(&mut FairSharePolicy::default());
        let naive = Engine::new(
            fabric,
            staggered_trace(),
            cfg.with_mode(EngineMode::NaiveSlice),
        )
        .run(&mut FairSharePolicy::default());
        assert!(fast.all_complete());
        assert_bit_identical(&fast, &naive);
    }
}
