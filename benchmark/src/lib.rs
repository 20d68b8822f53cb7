//! # swallow-benchmark
//!
//! The repository's benchmark: five workloads named after the load they put
//! on the system, end-to-end metrics measured with tracing off, and
//! per-layer metrics from a separate traced run. Every layer is measured
//! **from outside** — the timers, wrappers and spans live in this package
//! and sit around calls into the crates' public functions.
//!
//! `README.md` beside this package holds the metric glossary, the table of
//! which layer metric should move which end-to-end metric, and how to run,
//! trace and compare.

pub mod alloc;
pub mod catalog;
pub mod compare;
pub mod hist;
pub mod run;
pub mod span;
pub mod suite;
pub mod timed;
pub mod workloads;
