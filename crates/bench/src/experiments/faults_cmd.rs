//! `paper faults <experiment> [--seed N]` — replay a fig6-class workload
//! under a seeded [`FaultPlan`] and report how much each policy's CCT
//! inflates relative to the clean run.
//!
//! The plan is derived deterministically from `(seed, nodes, horizon)`
//! where the horizon is the clean FVDF makespan, so the same seed always
//! schedules the same crashes, link degradations, core revocations and
//! slow-push windows. A counters-only tracer rides along on the faulted
//! FVDF run; its [`TraceSummary`] is normalized with
//! [`TraceSummary::deterministic`] and written to `TRACE_summary.json`, so
//! two runs with the same seed produce byte-identical artifacts (the CI
//! `fault-smoke` job diffs exactly that).

use std::sync::Arc;

use crate::scenario::{self, DEFAULT_SLICE};
use swallow_fabric::{units, Engine, Fabric, SimConfig, SimResult};
use swallow_faults::{FaultPlan, Injector};
use swallow_metrics::Table;
use swallow_sched::Algorithm;
use swallow_trace::{CollectSink, TraceSummary, Tracer};

/// Experiments the faults command can replay.
pub const EXPERIMENTS: &[&str] = &["fig6a", "small"];

/// Replay `experiment` clean and under the seeded fault plan, print the
/// per-policy CCT inflation table and write `TRACE_summary.json`.
pub fn run(experiment: &str, seed: u64) {
    let num_coflows = match experiment {
        // The canonical Fig. 6(a) trace (`scenario::fig6_trace`).
        "fig6a" | "fig6" => 80,
        // A seconds-scale smoke variant of the same shape (CI uses this).
        "small" => 12,
        other => {
            eprintln!("paper faults: unknown experiment {other:?} (try: {EXPERIMENTS:?})");
            std::process::exit(2);
        }
    };

    let bw = units::mbps(400.0);
    let trace = scenario::fig6_trace(bw, num_coflows, 4.0, 0x6A);
    let fabric = Fabric::uniform(trace.num_nodes, bw);

    // The clean FVDF makespan fixes the horizon the seeded plan scatters
    // fault windows over, so every policy faces the same adversity.
    let clean_fvdf = replay(&fabric, &trace.coflows, None, Algorithm::Fvdf);
    let plan = FaultPlan::seeded(seed, trace.num_nodes as u32, clean_fvdf.makespan);
    let injector = plan.injector();
    crate::report!(
        "seed {seed}: {} faults over horizon {:.2}s",
        plan.faults().len(),
        clean_fvdf.makespan
    );

    let mut t = Table::new(
        format!("CCT inflation under seeded faults ({experiment}, seed {seed})"),
        &["policy", "clean CCT", "faulted CCT", "inflation"],
    );
    for alg in [
        Algorithm::Fvdf,
        Algorithm::Srtf,
        Algorithm::Fifo,
        Algorithm::Pff,
    ] {
        let clean = if alg == Algorithm::Fvdf {
            clean_fvdf.clone()
        } else {
            replay(&fabric, &trace.coflows, None, alg)
        };
        let faulted = replay(&fabric, &trace.coflows, Some(injector.clone()), alg);
        assert!(
            faulted.all_complete(),
            "{alg:?} left coflows unfinished under the fault plan"
        );
        t.row(&[
            format!("{alg:?}"),
            format!("{:.3}s", clean.avg_cct()),
            format!("{:.3}s", faulted.avg_cct()),
            format!("{:.2}x", faulted.avg_cct() / clean.avg_cct()),
        ]);
    }
    crate::report!("{t}");

    // Counters-only traced replay of the faulted FVDF run → deterministic
    // summary artifact.
    let summary = traced_summary(&fabric, &trace.coflows, injector);
    let path = "TRACE_summary.json";
    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    std::fs::write(path, format!("{json}\n")).expect("write TRACE_summary.json");
    crate::report!("  wrote {path} (deterministic: same seed ⇒ identical bytes)");
}

/// One run of `alg` over the trace, optionally faulted.
fn replay(
    fabric: &Fabric,
    coflows: &[swallow_fabric::Coflow],
    faults: Option<Injector>,
    alg: Algorithm,
) -> SimResult {
    let mut config = SimConfig::default()
        .with_slice(DEFAULT_SLICE)
        .with_reschedule(swallow_fabric::engine::Reschedule::EventsOnly)
        .with_compression(scenario::lz4());
    if let Some(inj) = faults {
        config = config.with_faults(inj);
    }
    let mut policy = alg.make();
    Engine::new(fabric.clone(), coflows.to_vec(), config).run(policy.as_mut())
}

/// Re-run the faulted FVDF replay with a counters tracer attached and
/// return the wall-clock-free summary.
fn traced_summary(
    fabric: &Fabric,
    coflows: &[swallow_fabric::Coflow],
    injector: Injector,
) -> TraceSummary {
    let tracer = Tracer::with_sink(Arc::new(CollectSink::new()));
    let config = SimConfig::default()
        .with_slice(DEFAULT_SLICE)
        .with_reschedule(swallow_fabric::engine::Reschedule::EventsOnly)
        .with_compression(scenario::lz4())
        .with_faults(injector)
        .with_tracer(tracer.clone());
    let mut policy = Algorithm::Fvdf.make();
    let res = Engine::new(fabric.clone(), coflows.to_vec(), config).run(policy.as_mut());
    assert!(
        res.all_complete(),
        "faulted traced replay left work unfinished"
    );
    tracer.summary().expect("tracer is enabled").deterministic()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed ⇒ identical plan ⇒ identical deterministic summary — the
    /// property the CI fault-smoke job checks end to end.
    #[test]
    fn same_seed_yields_identical_deterministic_summary() {
        let bw = units::mbps(400.0);
        let trace = scenario::fig6_trace(bw, 8, 4.0, 0x6A);
        let fabric = Fabric::uniform(trace.num_nodes, bw);
        let clean = replay(&fabric, &trace.coflows, None, Algorithm::Fvdf);
        let once = |seed: u64| {
            let plan = FaultPlan::seeded(seed, trace.num_nodes as u32, clean.makespan);
            traced_summary(&fabric, &trace.coflows, plan.injector())
        };
        let a = once(7);
        let b = once(7);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // Fault events actually fired — the plan is not a no-op.
        assert!(a.events_by_kind.contains_key("fault_injected"));
    }

    /// Faults hurt but never wedge: every policy still finishes the trace.
    #[test]
    fn faulted_runs_complete_with_inflated_cct() {
        let bw = units::mbps(400.0);
        let trace = scenario::fig6_trace(bw, 8, 4.0, 0x6A);
        let fabric = Fabric::uniform(trace.num_nodes, bw);
        let clean = replay(&fabric, &trace.coflows, None, Algorithm::Fvdf);
        let plan = FaultPlan::seeded(7, trace.num_nodes as u32, clean.makespan);
        let faulted = replay(
            &fabric,
            &trace.coflows,
            Some(plan.injector()),
            Algorithm::Fvdf,
        );
        assert!(faulted.all_complete());
        assert!(faulted.avg_cct() >= clean.avg_cct());
    }
}
