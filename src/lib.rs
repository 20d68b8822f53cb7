//! # swallow-repro
//!
//! A from-scratch Rust reproduction of **"Swallow: Joint Online Scheduling
//! and Coflow Compression in Datacenter Networks"** (Zhou et al., IPPS
//! 2018). This facade crate re-exports the workspace so downstream users can
//! depend on one crate:
//!
//! * [`fabric`] — big-switch fluid network simulator (ports, coflows, the
//!   slice-based volume-disposal engine, CPU model);
//! * [`compress`] — Table II/III compression models, a real LZ77 codec
//!   (`swz`), entropy estimation and HiBench Table I data synthesis;
//! * [`workload`] — heavy-tailed coflow trace generation calibrated to the
//!   paper's Fig. 1, plus trace (de)serialization;
//! * [`sched`] — FVDF and every baseline (SEBF/Varys, FIFO, PFP/SRTF,
//!   PFF/FAIR, WSS, SCF, NCF, LCF);
//! * [`core`] — the Swallow master/worker runtime with the Table IV
//!   `SwallowContext` API moving real, genuinely compressed bytes;
//! * [`cluster`] — a Spark-like job/stage model (map → shuffle → reduce →
//!   result) with GC accounting;
//! * [`metrics`] — CDFs, percentiles, improvement factors, text tables.
//! * [`trace`] — structured event tracing threaded through every layer:
//!   ring/JSONL/Chrome-trace sinks, per-run counters and summaries.
//! * [`faults`] — deterministic fault injection: seeded [`faults::FaultPlan`]s
//!   (crashes, heartbeat loss, link degradation, slow pushes, core
//!   revocation) consumed by the engine, the runtime and the cluster model.
//! * [`oracle`] — the correctness oracle: online invariant checking hooked
//!   into the engine, three-path differential replay, analytic lower-bound
//!   certificates and golden paper-figure regression.
//!
//! ## Quickstart
//!
//! ```
//! use swallow_repro::prelude::*;
//! use std::sync::Arc;
//!
//! // A 12-machine fabric at 100 Mbps.
//! let fabric = Fabric::uniform(12, units::mbps(100.0));
//! // A small heavy-tailed trace.
//! let trace = CoflowGen::new(GenConfig {
//!     num_coflows: 10,
//!     num_nodes: 12,
//!     ..GenConfig::default()
//! })
//! .generate();
//! // FVDF with LZ4 parameters (Table II).
//! let compression: Arc<dyn CompressionSpec> =
//!     Arc::new(ProfiledCompression::constant(Table2::Lz4));
//! let mut policy = FvdfPolicy::new();
//! let result = Engine::new(
//!     fabric,
//!     trace,
//!     SimConfig::default().with_compression(compression),
//! )
//! .run(&mut policy);
//! assert!(result.all_complete());
//! assert!(result.traffic_reduction() > 0.0);
//! ```

pub use swallow_cluster as cluster;
pub use swallow_compress as compress;
pub use swallow_core as core;
pub use swallow_fabric as fabric;
pub use swallow_faults as faults;
pub use swallow_metrics as metrics;
pub use swallow_oracle as oracle;
pub use swallow_sched as sched;
pub use swallow_trace as trace;
pub use swallow_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use swallow_compress::{CodecProfile, HibenchApp, SizeRatioModel, Table2};
    pub use swallow_core::{
        CoflowService, CoflowServiceBuilder, ServiceReport, SwallowConfig, SwallowContext,
        SwallowError, WorkerId,
    };
    pub use swallow_fabric::view::{CompressionSpec, ConstCompression};
    pub use swallow_fabric::{
        units, Coflow, CpuModel, CpuTrace, Engine, EngineMode, Fabric, FlowSpec, Policy, SimConfig,
        SimResult,
    };
    pub use swallow_faults::{FaultPlan, Injector};
    pub use swallow_metrics::{improvement, serde_is_stub, skip_if_stub, Cdf, Table};
    pub use swallow_oracle::{
        best_case_ratio, check_lower_bounds, differential_replay, CheckConfig, GoldenFigure,
        InvariantChecker,
    };
    pub use swallow_sched::{
        AdmissionController, Algorithm, CoflowOrder, EstimatorMode, FvdfConfig, FvdfPolicy,
        OrderedPolicy, PffPolicy, ProfiledCompression, SampledPolicy, SamplingConfig,
        SizeEstimator, SrtfPolicy, WssPolicy,
    };
    pub use swallow_trace::{TraceEvent, TraceSummary, Tracer};
    pub use swallow_workload::{
        CoflowGen, DeadlineSpec, FbGen, GenConfig, SizeDist, Sizing, Trace, TraceFile, TraceFormat,
        WorkloadSource,
    };
}
