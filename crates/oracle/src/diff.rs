//! Differential replay: one workload, three engine legs, zero tolerance.
//!
//! The engine promises that the naive slice-by-slice loop, the quiescent
//! skip-ahead fast path and the faults-enabled path under a [`FaultPlan`]
//! none of whose faults is in force while the run lasts all produce
//! **bit-identical** results. This module replays a workload through all
//! three and diffs every outcome — per-flow completion times, wire bytes,
//! compressor input, per-coflow CCTs, the makespan and the reschedule
//! count — at the `f64::to_bits` level. Any mismatch is a semantic
//! regression in one of the paths, found without knowing which one is
//! right.
//!
//! Each leg can also carry its own fresh [`InvariantChecker`], so one call
//! yields both the equivalence verdict and invariant coverage of every
//! code path.

use std::sync::Arc;

use crate::invariants::{CheckConfig, InvariantChecker, Violation};
use swallow_fabric::{Coflow, Engine, EngineMode, Fabric, Policy, SimConfig, SimResult};
use swallow_faults::FaultPlan;

/// Cap on the mismatch lines recorded per leg pair.
const MAX_MISMATCHES: usize = 20;

/// Invariant verdict of one replay leg.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LegReport {
    /// Leg label: `skip_ahead`, `naive` or `empty_faults`.
    pub leg: String,
    /// Slice boundaries the checker observed.
    pub boundaries: u64,
    /// Total invariant violations on this leg.
    pub violations: u64,
    /// First recorded violations (capped).
    pub sample: Vec<Violation>,
}

/// Everything one differential replay produces.
#[derive(Debug, Clone)]
pub struct DifferentialOutcome {
    /// The skip-ahead leg's full result (reuse it for bound checks and
    /// figures instead of re-running).
    pub result: SimResult,
    /// Human-readable bit-level differences between the legs; empty means
    /// every path agrees exactly.
    pub mismatches: Vec<String>,
    /// Per-leg invariant verdicts (empty when checking was disabled).
    pub legs: Vec<LegReport>,
}

impl DifferentialOutcome {
    /// True when the paths agree bit-exactly and no invariant fired.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty() && self.legs.iter().all(|l| l.violations == 0)
    }

    /// Total invariant violations across all legs.
    pub fn total_violations(&self) -> u64 {
        self.legs.iter().map(|l| l.violations).sum()
    }
}

/// Replay `coflows` through three engine legs (skip-ahead, naive,
/// faults enabled) and diff the outcomes.
///
/// The third leg, reported as `empty_faults`, is skip-ahead again under a
/// plan that is *not* empty — one worker crash, a second after the first
/// leg's makespan, on the node the first flow leaves from — so the engine's
/// fault walk, its capacity limits, its core grants and the skip target's
/// fault candidate all do their work, and none of it may show: no fault is
/// in force before the last flow completes. (An empty plan would make this
/// leg the first one over again; every fault query returns before looking.)
///
/// `base` supplies slice length, compression, CPU model and rescheduling
/// cadence; its `mode`, `faults` and `check` fields are overridden per
/// leg (use [`swallow_fabric::engine::Reschedule::EventsOnly`] — under
/// `EverySlice` the fast path never skips, so the comparison is vacuous).
/// `make_policy` must build a *fresh* policy per call: policies are stateful.
/// `check` attaches a fresh [`InvariantChecker`] with the given config to
/// every leg.
pub fn differential_replay(
    fabric: &Fabric,
    coflows: &[Coflow],
    base: &SimConfig,
    check: Option<CheckConfig>,
    mut make_policy: impl FnMut() -> Box<dyn Policy>,
) -> DifferentialOutcome {
    let mut legs = Vec::new();
    let mut run = |leg: &str, configure: &dyn Fn(SimConfig) -> SimConfig| -> SimResult {
        let mut config = configure(base.clone());
        let checker = check
            .clone()
            .map(|c| Arc::new(InvariantChecker::with_config(c)));
        if let Some(ch) = &checker {
            config = config.with_check(ch.clone());
        }
        let mut policy = make_policy();
        let result = Engine::new(fabric.clone(), coflows.to_vec(), config).run(policy.as_mut());
        if let Some(ch) = checker {
            legs.push(LegReport {
                leg: leg.to_string(),
                boundaries: ch.boundaries(),
                violations: ch.total_violations(),
                sample: ch.violations(),
            });
        }
        result
    };

    let fast = run("skip_ahead", &|c| c.with_mode(EngineMode::SkipAhead));
    let naive = run("naive", &|c| c.with_mode(EngineMode::NaiveSlice));
    let crash_node = coflows
        .iter()
        .find_map(|c| c.flows.first())
        .map_or(0, |f| f.src.0);
    let late_crash = FaultPlan::new().crash(crash_node, fast.makespan + 1.0, None);
    let faulted = run("empty_faults", &|c| {
        c.with_mode(EngineMode::SkipAhead)
            .with_faults(late_crash.injector())
    });

    let mut mismatches = Vec::new();
    diff_results("skip_ahead", &fast, "naive", &naive, &mut mismatches);
    diff_results(
        "skip_ahead",
        &fast,
        "empty_faults",
        &faulted,
        &mut mismatches,
    );

    DifferentialOutcome {
        result: fast,
        mismatches,
        legs,
    }
}

/// Bits of an optional timestamp (`None` ≠ any number).
fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Append bit-level differences between two results to `out`.
pub fn diff_results(la: &str, a: &SimResult, lb: &str, b: &SimResult, out: &mut Vec<String>) {
    let start = out.len();
    let mut push = |s: String| {
        if out.len() - start < MAX_MISMATCHES {
            out.push(s);
        }
    };

    if a.makespan.to_bits() != b.makespan.to_bits() {
        push(format!(
            "{la} vs {lb}: makespan {} != {}",
            a.makespan, b.makespan
        ));
    }
    if a.reschedules != b.reschedules {
        push(format!(
            "{la} vs {lb}: reschedules {} != {}",
            a.reschedules, b.reschedules
        ));
    }
    if a.flows.len() != b.flows.len() {
        push(format!(
            "{la} vs {lb}: flow count {} != {}",
            a.flows.len(),
            b.flows.len()
        ));
    } else {
        for (fa, fb) in a.flows.iter().zip(&b.flows) {
            if fa.id != fb.id {
                push(format!("{la} vs {lb}: flow order {} != {}", fa.id, fb.id));
                continue;
            }
            if opt_bits(fa.completed_at) != opt_bits(fb.completed_at) {
                push(format!(
                    "{la} vs {lb}: flow {} completed_at {:?} != {:?}",
                    fa.id, fa.completed_at, fb.completed_at
                ));
            }
            if fa.wire_bytes.to_bits() != fb.wire_bytes.to_bits() {
                push(format!(
                    "{la} vs {lb}: flow {} wire_bytes {} != {}",
                    fa.id, fa.wire_bytes, fb.wire_bytes
                ));
            }
            if fa.compressed_input.to_bits() != fb.compressed_input.to_bits() {
                push(format!(
                    "{la} vs {lb}: flow {} compressed_input {} != {}",
                    fa.id, fa.compressed_input, fb.compressed_input
                ));
            }
        }
    }
    if a.coflows.len() != b.coflows.len() {
        push(format!(
            "{la} vs {lb}: coflow count {} != {}",
            a.coflows.len(),
            b.coflows.len()
        ));
    } else {
        for (ca, cb) in a.coflows.iter().zip(&b.coflows) {
            if ca.id != cb.id {
                push(format!("{la} vs {lb}: coflow order {} != {}", ca.id, cb.id));
                continue;
            }
            if opt_bits(ca.completed_at) != opt_bits(cb.completed_at) {
                push(format!(
                    "{la} vs {lb}: coflow {} completed_at {:?} != {:?}",
                    ca.id, ca.completed_at, cb.completed_at
                ));
            }
        }
    }
}
