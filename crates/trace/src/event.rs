//! The event taxonomy: everything the runtime can say about itself.
//!
//! Events use plain integers for flow/coflow/node identifiers rather than the
//! fabric newtypes so this crate sits below every runtime crate in the
//! dependency graph. Emitters unwrap their ids at the call site.

use serde::{Deserialize, Serialize};

/// Why the engine recomputed the allocation at a rescheduling point.
///
/// When several triggers coincide in one slice the engine reports the
/// highest-priority one: arrival > completion > raw-exhausted > periodic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RescheduleCause {
    /// First allocation of the run.
    Initial,
    /// A coflow was admitted this slice.
    Arrival,
    /// A fault-plan window opened or closed this slice (capacity changed).
    Fault,
    /// A flow or coflow finished this slice.
    Completion,
    /// A compressing flow ran out of raw bytes (its rate profile changed).
    RawExhausted,
    /// `Reschedule::EverySlice` cadence with no other trigger.
    Periodic,
}

/// Why a requested compression core was not granted (Eq. 3 gate aside).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DenialReason {
    /// The source node has no free compression core this slice.
    NoFreeCore,
    /// A fault plan revoked the cores the flow would have used; it falls
    /// back to raw transmission.
    CoreRevoked,
    /// The flow has no raw bytes left to compress.
    RawExhausted,
    /// The flow's payload is marked incompressible.
    Incompressible,
}

/// One structured event from any runtime layer.
///
/// Serialized internally tagged (`"type": "flow_completed"`) so a JSONL sink
/// yields one self-describing object per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum TraceEvent {
    // ---- swallow-fabric::Engine ----
    /// A coflow entered the fabric with `flows` member flows.
    CoflowArrived { coflow: u64, flows: usize },
    /// Every flow of the coflow finished.
    CoflowCompleted { coflow: u64 },
    /// A flow was admitted (zero-size flows complete without starting).
    FlowStarted { flow: u64, coflow: u64 },
    /// A flow's transfer finished.
    FlowCompleted { flow: u64, coflow: u64 },
    /// A compressing flow consumed its last raw byte.
    RawExhausted { flow: u64 },
    /// The policy was re-run over `flows` outstanding flows.
    Rescheduled {
        cause: RescheduleCause,
        flows: usize,
    },
    /// A previously transmitting flow was throttled to zero by a reschedule.
    FlowPreempted { flow: u64 },
    /// The quiescent fast path jumped from slice `from_slice` to `to_slice`.
    SkipAhead { from_slice: u64, to_slice: u64 },
    /// A compression core was granted to `flow` on `node`.
    CompressionGranted { flow: u64, node: u32 },
    /// A compression request was denied.
    CompressionDenied {
        flow: u64,
        node: u32,
        reason: DenialReason,
    },
    /// The simulation hit its configured time horizon.
    HorizonReached,

    // ---- swallow-sched policies ----
    /// The coflow service order chosen at one rescheduling point.
    ScheduleOrder { policy: String, order: Vec<u64> },
    /// FVDF's volume-disposal completion estimate (Eq. 7/8) for a coflow.
    VolumeDisposal { coflow: u64, gamma: f64 },
    /// Progressive filling converged after `rounds` rounds over `demands`
    /// demands.
    WaterFillRounds { rounds: usize, demands: usize },
    /// A sampling-based estimator admitted a coflow: `pilots` of its `flows`
    /// member flows were designated pilot probes, and the remaining sizes
    /// were extrapolated to `estimated_bytes` (`true_bytes` is the ground
    /// truth, recorded for error analysis only — the policy never reads it).
    CoflowEstimated {
        coflow: u64,
        pilots: usize,
        flows: usize,
        estimated_bytes: f64,
        true_bytes: f64,
    },
    /// A flow completion revealed its true size to the estimator, refining
    /// the owning coflow's total-size estimate to `estimated_bytes`.
    EstimateRefined { coflow: u64, estimated_bytes: f64 },
    /// Admission control rejected a coflow: even alone on the fabric its
    /// isolation bound (`bound`, seconds after arrival) overshoots the
    /// absolute `deadline`. The coflow never reaches the engine.
    CoflowRejected {
        coflow: u64,
        deadline: f64,
        bound: f64,
    },

    // ---- swallow-core master/worker ----
    /// A worker daemon completed one heartbeat round.
    Heartbeat { worker: u32 },
    /// A message was sent towards the master.
    MessageSent { kind: String },
    /// The master consumed a message.
    MessageReceived { kind: String },
    /// A public `SwallowContext` entry point was invoked.
    ApiCall { method: String },
    /// Staged-block queue depth observed on a worker at heartbeat time.
    QueueDepth { worker: u32, depth: usize },
    /// A payload was staged for transfer.
    BlockStaged { block: u64, bytes: usize },
    /// A block finished its push (transfer) leg.
    BlockPushed {
        flow: u64,
        wire_bytes: u64,
        compressed: bool,
    },
    /// `remove()` released the blocks of a coflow.
    BlockReleased { coflow: u64 },

    // ---- swallow-cluster runner ----
    /// A job moved into a new stage (map / shuffle / reduce / done).
    StageTransition { job: u64, stage: String },
    /// Time a job's tasks spent waiting for executor slots.
    SlotWait { job: u64, wait_secs: f64 },
    /// Modeled garbage-collection pause attributed to a job stage.
    GcPause { job: u64, stage: String, secs: f64 },

    // ---- swallow-faults injection & recovery ----
    /// A fault-plan window opened on `node` (`kind` is the
    /// `FaultKind::label()` of the fault).
    FaultInjected { kind: String, node: u32 },
    /// A fault-plan window closed on `node` (restart / capacity restored).
    FaultCleared { kind: String, node: u32 },
    /// The master's failure detector declared `worker` dead after missing
    /// its heartbeats.
    WorkerDown { worker: u32 },
    /// A previously dead/suspected worker heartbeated again and was
    /// re-registered.
    WorkerRecovered { worker: u32 },
    /// The master re-queued `flows` transfers of `coflow` whose data died
    /// with a crashed worker, and corrected the coflow's moved volume.
    FlowsRequeued { coflow: u64, flows: usize },
    /// `push()` hit an unavailable worker and is retrying with exponential
    /// backoff (`attempt` starts at 1).
    PushRetry { flow: u64, attempt: u32 },

    // ---- swallow-oracle correctness checks ----
    /// The online invariant checker caught a violation at a slice boundary
    /// (`invariant` is the stable `swallow-oracle` invariant name; `flow`
    /// and `node` identify the offender when the invariant is per-flow or
    /// per-port).
    InvariantViolated {
        invariant: String,
        flow: Option<u64>,
        node: Option<u32>,
        detail: String,
    },
    /// A simulated statistic beat its analytic lower bound — the bound
    /// certificate (Varys-style isolation/makespan/FCT bounds) was violated.
    BoundViolated {
        metric: String,
        value: f64,
        bound: f64,
    },
}

impl TraceEvent {
    /// Stable machine name of the variant, matching the serialized `type` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::CoflowArrived { .. } => "coflow_arrived",
            TraceEvent::CoflowCompleted { .. } => "coflow_completed",
            TraceEvent::FlowStarted { .. } => "flow_started",
            TraceEvent::FlowCompleted { .. } => "flow_completed",
            TraceEvent::RawExhausted { .. } => "raw_exhausted",
            TraceEvent::Rescheduled { .. } => "rescheduled",
            TraceEvent::FlowPreempted { .. } => "flow_preempted",
            TraceEvent::SkipAhead { .. } => "skip_ahead",
            TraceEvent::CompressionGranted { .. } => "compression_granted",
            TraceEvent::CompressionDenied { .. } => "compression_denied",
            TraceEvent::HorizonReached => "horizon_reached",
            TraceEvent::ScheduleOrder { .. } => "schedule_order",
            TraceEvent::VolumeDisposal { .. } => "volume_disposal",
            TraceEvent::WaterFillRounds { .. } => "water_fill_rounds",
            TraceEvent::CoflowEstimated { .. } => "coflow_estimated",
            TraceEvent::EstimateRefined { .. } => "estimate_refined",
            TraceEvent::CoflowRejected { .. } => "coflow_rejected",
            TraceEvent::Heartbeat { .. } => "heartbeat",
            TraceEvent::MessageSent { .. } => "message_sent",
            TraceEvent::MessageReceived { .. } => "message_received",
            TraceEvent::ApiCall { .. } => "api_call",
            TraceEvent::QueueDepth { .. } => "queue_depth",
            TraceEvent::BlockStaged { .. } => "block_staged",
            TraceEvent::BlockPushed { .. } => "block_pushed",
            TraceEvent::BlockReleased { .. } => "block_released",
            TraceEvent::StageTransition { .. } => "stage_transition",
            TraceEvent::SlotWait { .. } => "slot_wait",
            TraceEvent::GcPause { .. } => "gc_pause",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::FaultCleared { .. } => "fault_cleared",
            TraceEvent::WorkerDown { .. } => "worker_down",
            TraceEvent::WorkerRecovered { .. } => "worker_recovered",
            TraceEvent::FlowsRequeued { .. } => "flows_requeued",
            TraceEvent::PushRetry { .. } => "push_retry",
            TraceEvent::InvariantViolated { .. } => "invariant_violated",
            TraceEvent::BoundViolated { .. } => "bound_violated",
        }
    }

    /// The runtime layer that emits this event; doubles as the Chrome-trace
    /// thread name.
    pub fn category(&self) -> &'static str {
        use TraceEvent::*;
        match self {
            CoflowArrived { .. }
            | CoflowCompleted { .. }
            | FlowStarted { .. }
            | FlowCompleted { .. }
            | RawExhausted { .. }
            | Rescheduled { .. }
            | FlowPreempted { .. }
            | SkipAhead { .. }
            | CompressionGranted { .. }
            | CompressionDenied { .. }
            | HorizonReached => "engine",
            ScheduleOrder { .. }
            | VolumeDisposal { .. }
            | WaterFillRounds { .. }
            | CoflowEstimated { .. }
            | EstimateRefined { .. }
            | CoflowRejected { .. } => "sched",
            Heartbeat { .. }
            | MessageSent { .. }
            | MessageReceived { .. }
            | ApiCall { .. }
            | QueueDepth { .. }
            | BlockStaged { .. }
            | BlockPushed { .. }
            | BlockReleased { .. } => "core",
            StageTransition { .. } | SlotWait { .. } | GcPause { .. } => "cluster",
            FaultInjected { .. }
            | FaultCleared { .. }
            | WorkerDown { .. }
            | WorkerRecovered { .. }
            | FlowsRequeued { .. }
            | PushRetry { .. } => "fault",
            InvariantViolated { .. } | BoundViolated { .. } => "oracle",
        }
    }
}

/// A timestamped event, the unit sinks store and serialize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Event time in seconds. Simulated time for engine/sched/cluster events,
    /// wall-clock seconds since context start for core runtime events.
    pub t: f64,
    /// The event payload, flattened into the same JSON object.
    #[serde(flatten)]
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_matches_serde_tag() {
        // The serde tag encoding is the subject; the offline stub
        // serializer renders every struct as `{}`, so the property only
        // exists under a real toolchain.
        swallow_metrics::skip_if_stub!();
        let ev = TraceEvent::FlowCompleted { flow: 3, coflow: 1 };
        let v = serde_json::to_value(&ev).unwrap();
        assert_eq!(v["type"], ev.kind());
        let ev = TraceEvent::SkipAhead {
            from_slice: 10,
            to_slice: 42,
        };
        let v = serde_json::to_value(&ev).unwrap();
        assert_eq!(v["type"], "skip_ahead");
        assert_eq!(v["from_slice"], 10);
    }

    #[test]
    fn record_flattens_event() {
        // The flattened JSON shape is the subject; see above.
        swallow_metrics::skip_if_stub!();
        let r = TraceRecord {
            t: 0.25,
            event: TraceEvent::Rescheduled {
                cause: RescheduleCause::Arrival,
                flows: 4,
            },
        };
        let v = serde_json::to_value(&r).unwrap();
        assert_eq!(v["t"], 0.25);
        assert_eq!(v["type"], "rescheduled");
        assert_eq!(v["cause"], "arrival");
        let back: TraceRecord = serde_json::from_value(v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn categories_cover_all_layers() {
        assert_eq!(TraceEvent::HorizonReached.category(), "engine");
        assert_eq!(
            TraceEvent::WaterFillRounds {
                rounds: 1,
                demands: 2
            }
            .category(),
            "sched"
        );
        assert_eq!(TraceEvent::Heartbeat { worker: 0 }.category(), "core");
        assert_eq!(
            TraceEvent::SlotWait {
                job: 0,
                wait_secs: 0.0
            }
            .category(),
            "cluster"
        );
        assert_eq!(TraceEvent::WorkerDown { worker: 1 }.category(), "fault");
        assert_eq!(
            TraceEvent::FaultInjected {
                kind: "worker_crash".into(),
                node: 1
            }
            .category(),
            "fault"
        );
    }
}
