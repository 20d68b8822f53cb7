//! # swallow-bench
//!
//! The experiment harness regenerating every table and figure of the paper's
//! evaluation (§VI). The `paper` binary exposes one subcommand per artifact
//! (`paper fig6e`, `paper table7`, …) or `paper all`; each prints the
//! measured series/rows next to the values the paper reports, so the
//! reproduction quality is visible at a glance.
//!
//! Absolute times differ from the paper (their testbed is 100 VMs; ours is a
//! calibrated simulator and workload sizes are scaled to laptop runtimes),
//! but the *shape* — who wins, by what factor, where crossovers sit — is the
//! reproduction target. See `EXPERIMENTS.md` for the recorded comparison.

pub mod cli;
pub mod experiments;
pub mod parallel;
pub mod report;
pub mod rss;
pub mod scenario;

pub use parallel::parallel_map;
pub use scenario::{std_fabric, std_trace, StdScale};
