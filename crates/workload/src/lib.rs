//! # swallow-workload
//!
//! Workload synthesis and trace ingestion for the Swallow reproduction. The
//! paper drives its trace simulations with shuffle traces collected from
//! Spark whose flow sizes are heavy-tailed (Fig. 1): 89.49% of flows are
//! smaller than 10 GB, most flows live in `[10 MB, 10 GB]`, and more than
//! 93.03% of the bytes come from flows larger than 10 GB. We cannot ship the
//! original traces, so this crate generates synthetic ones calibrated to
//! those marginals, and ingests public traces in the classic coflow-benchmark
//! format:
//!
//! * [`dist`] — samplable size/interarrival distributions (uniform,
//!   exponential, bounded Pareto, log-normal, mixtures) built on plain
//!   `rand`;
//! * [`gen`] — the coflow generator: widths, sizes, placements and Poisson
//!   arrivals over an `n`-machine fabric, plus the Fig. 1-calibrated
//!   distribution [`gen::fig1_size_dist`];
//! * [`hibench`] — per-application shuffle workloads matching Table I
//!   compressibility and the paper's `large`/`huge`/`gigantic` scales;
//! * [`fb`] — streaming parser/writer/generator for the Facebook
//!   coflow-benchmark trace format (`coflow_id arrival num_mapper <locs>
//!   num_reducer <loc:size_mb ...>`), scaling to multi-GB files via
//!   [`StreamingTrace`];
//! * [`source`] — the [`WorkloadSource`] trait unifying synthetic generators
//!   and imported trace files behind one streaming API;
//! * [`trace`] — the in-memory [`Trace`] container and its JSON/CSV forms
//!   (parsed via [`TraceFile`]);
//! * [`error`] — [`WorkloadError`], the structured error type every
//!   ingestion path returns.

pub mod dist;
pub mod error;
pub mod fb;
pub mod fbmix;
pub mod gen;
pub mod hibench;
pub mod source;
pub mod trace;

pub use dist::SizeDist;
pub use error::WorkloadError;
pub use fb::{FbGen, FbHeader, FbRecord, MachineMap, StreamingTrace};
pub use fbmix::FbMix;
pub use gen::{CoflowGen, DeadlineSpec, GenConfig, Sizing};
pub use hibench::{HibenchWorkload, WorkloadScale};
pub use source::{CoflowStream, HibenchSource, TraceFile, TraceFormat, WorkloadSource};
pub use trace::Trace;
