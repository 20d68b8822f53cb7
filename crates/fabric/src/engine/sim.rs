//! What goes into a run and what comes out: [`SimConfig`] with its two mode
//! switches, [`SimResult`] with its per-flow and per-coflow records. Plain
//! data: reads and writes no engine state, emits nothing.

use crate::cpu::CpuModel;
use crate::ids::{CoflowId, FlowId, NodeId};
use crate::observe::BoundaryObserver;
use crate::view::{CompressionSpec, ConstCompression};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use swallow_faults::Injector;
use swallow_metrics::telemetry::Telemetry;
use swallow_trace::Tracer;

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
/// the module docs; the equivalence is pinned by `tests/engine/fast_path.rs`
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
        assert_slice(slice);
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
    /// forwards a clone to the policy via [`crate::Policy::set_tracer`].
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
    /// The engine records a [`crate::BoundarySnapshot::telemetry_sample`] at every
    /// `stride`-th visited boundary and feeds the phase profiler
    /// (materialization, hooks, the full scheduling decision); the
    /// collector is also forwarded to the policy via
    /// [`crate::Policy::set_telemetry`] so the water-fill scan can time itself.
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

/// Panic unless `slice` can be a slice length: under an infinite or NaN δ
/// every boundary time `idx · δ` is NaN, no arrival compares below it and
/// the loop spins. The field is `pub`, so the engine checks it again.
pub(super) fn assert_slice(slice: f64) {
    assert!(
        slice.is_finite() && slice > 0.0,
        "slice must be positive and finite, got {slice}"
    );
}

fn avg(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
