//! # swallow-fabric
//!
//! A fluid-flow, time-sliced simulator of a datacenter network fabric under
//! the *big-switch* abstraction used by the Swallow paper (IPPS 2018) and its
//! predecessors (Varys, Aalo): every machine connects to one non-blocking
//! switch through an ingress (receive) and an egress (send) port of finite
//! capacity, and congestion only occurs at these ports.
//!
//! The crate provides:
//!
//! * [`FlowSpec`]/[`Coflow`] — the workload description (a coflow is a set of
//!   flows that all belong to one computation stage and complete together);
//! * [`Fabric`] — port capacities for the machines in the cluster;
//! * [`CpuModel`] — per-node CPU availability, which gates *coflow
//!   compression* (the paper's joint resource);
//! * [`Policy`] — the scheduling interface implemented by `swallow-sched`:
//!   given a [`FabricView`] of the current instant, produce an
//!   [`Allocation`] of per-flow transmission rates and compression decisions;
//! * [`Engine`] — the slice-based simulation loop implementing *volume
//!   disposal* (paper Eq. 1–2): within each slice of length δ a flow either
//!   compresses raw bytes at speed `R` (disposing `R·δ·(1−ξ)` of volume) or
//!   transmits at its allocated rate (disposing `rate·δ`).
//!
//! Rescheduling happens at coflow arrivals and completions, quantized to
//! slice boundaries — exactly the cadence studied in the paper's Fig. 7(c).
//!
//! ```
//! use swallow_fabric::{Coflow, Engine, Fabric, FlowSpec, SimConfig, units};
//! use swallow_fabric::policy::FairSharePolicy;
//!
//! let fabric = Fabric::uniform(3, units::gbps(1.0));
//! let coflows = vec![Coflow::builder(0)
//!     .arrival(0.0)
//!     .flow(FlowSpec::new(0, 0, 1, 100.0 * units::MB))
//!     .build()];
//! let mut policy = FairSharePolicy::default();
//! let result = Engine::new(fabric, coflows, SimConfig::default())
//!     .run(&mut policy);
//! assert_eq!(result.coflows.len(), 1);
//! ```

pub mod alloc;
pub mod coflow;
pub mod cpu;
pub mod engine;
pub mod flow;
pub mod ids;
pub mod observe;
pub mod policy;
pub mod port;
pub mod units;
pub mod view;

pub use alloc::{Allocation, FlowCommand, TouchedCounters, WaterFillScratch};
pub use coflow::{Coflow, CoflowBuilder};
pub use cpu::{CpuModel, CpuTrace};
pub use engine::{CoflowRecord, Engine, EngineMode, FlowRecord, SimConfig, SimResult};
pub use flow::{FlowProgress, FlowSpec};
pub use ids::{CoflowId, FlowId, NodeId};
pub use observe::{BoundaryObserver, BoundarySnapshot, FlowSnapshot};
pub use policy::Policy;
pub use port::Fabric;
pub use view::{FabricView, FlowView};

/// Numerical tolerance for "volume has reached zero" comparisons.
///
/// Fluid volumes are `f64` byte counts; anything below this is complete.
pub const VOLUME_EPS: f64 = 1e-6;
