//! `paper oracle <experiment> [--seed N] [--refresh-golden]` — run the full
//! correctness oracle over a fig6a-class workload and fail loudly if the
//! simulator misbehaves.
//!
//! For each policy (FVDF, SRTF, FIFO, PFF) the command:
//!
//! 1. replays the workload through the naive slice loop, the skip-ahead
//!    fast path and the faults-enabled path (a plan whose one crash falls
//!    after the run has ended), with a fresh online
//!    [`swallow_oracle::InvariantChecker`] on every leg, and demands
//!    **zero** violations and **bit-exact** agreement between the three
//!    replay legs;
//! 2. checks every measured metric against the analytic lower bounds
//!    (isolation / average CCT, makespan, average FCT) at the workload's
//!    best-case compression ratio;
//! 3. compares the policy's normalized average CCT (relative to FVDF, the
//!    unit of the paper's Fig. 6 bars) against the committed golden in
//!    `tests/golden/oracle_<experiment>_seed<seed>.json`.
//!
//! The full verdict is written to `ORACLE_report.json` (the CI
//! `oracle-smoke` job uploads it), and the process exits non-zero on any
//! violation, mismatch, bound failure or golden drift. On failure a
//! post-mortem [`FlightRecord`] — the last telemetry samples and trace
//! events of a re-run of the first failing policy — is dumped to
//! `FLIGHT_record.json` alongside the report. `--refresh-golden`
//! instead rewrites the golden from the measured values — commit the
//! result only after a deliberate, reviewed behavior change.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::scenario::{self, DEFAULT_SLICE};
use swallow_fabric::engine::Reschedule;
use swallow_fabric::{units, CpuModel, Engine, Fabric, SimConfig};
use swallow_metrics::flight::DEFAULT_FLIGHT_DEPTH;
use swallow_metrics::{FlightRecord, Table, Telemetry};
use swallow_oracle::{
    best_case_ratio, check_lower_bounds, differential_replay, BoundReport, CheckConfig,
    GoldenFigure, GoldenReport, LegReport,
};
use swallow_sched::Algorithm;
use swallow_trace::{CollectSink, Tracer};

/// Experiments the oracle command can replay.
pub const EXPERIMENTS: &[&str] = &["fig6a", "small"];

/// The policies the oracle certifies (the Fig. 6(a) comparison set).
const POLICIES: [Algorithm; 4] = [
    Algorithm::Fvdf,
    Algorithm::Srtf,
    Algorithm::Fifo,
    Algorithm::Pff,
];

/// Default tolerance (normalized-CCT units) written into refreshed goldens.
const GOLDEN_TOLERANCE: f64 = 0.02;

/// Everything the oracle concluded about one policy.
#[derive(serde::Serialize)]
struct PolicyVerdict {
    policy: String,
    avg_cct: f64,
    normalized_cct: f64,
    boundaries: u64,
    violations: u64,
    mismatches: Vec<String>,
    legs: Vec<LegReport>,
    bounds: BoundReport,
}

/// The artifact written to `ORACLE_report.json`.
#[derive(serde::Serialize)]
struct OracleReport {
    experiment: String,
    seed: u64,
    xi: f64,
    policies: Vec<PolicyVerdict>,
    golden: Option<GoldenReport>,
    ok: bool,
}

/// Stable lowercase key for golden files and reports (`fvdf`, `srtf`, …).
fn policy_key(alg: Algorithm) -> String {
    format!("{alg:?}").to_lowercase()
}

fn golden_path(experiment: &str, seed: u64) -> String {
    format!("tests/golden/oracle_{experiment}_seed{seed}.json")
}

/// Run the oracle; exits non-zero on any failure.
pub fn run(experiment: &str, seed: u64, refresh_golden: bool) {
    let num_coflows = match experiment {
        "fig6a" | "fig6" => 80,
        "small" => 12,
        other => {
            eprintln!("paper oracle: unknown experiment {other:?} (try: {EXPERIMENTS:?})");
            std::process::exit(2);
        }
    };

    let bw = units::mbps(400.0);
    let trace = scenario::fig6_trace(bw, num_coflows, 4.0, seed);
    let fabric = Fabric::uniform(trace.num_nodes, bw);
    let compression = scenario::lz4();
    // A generous core budget keeps CPU-admission denials (which can
    // legitimately idle a flow mid-slice) out of the work-conservation
    // verdict; CPU-constrained behavior has its own experiments.
    let base = SimConfig::default()
        .with_slice(DEFAULT_SLICE)
        .with_reschedule(Reschedule::EventsOnly)
        .with_compression(compression.clone())
        .with_cpu(CpuModel::unconstrained(trace.num_nodes, 1024));
    let xi = best_case_ratio(&trace.coflows, compression.as_ref());
    crate::report!(
        "oracle {experiment} seed {seed}: {} coflows over {} nodes, best-case ξ = {xi:.4}",
        trace.coflows.len(),
        trace.num_nodes
    );

    let mut verdicts = Vec::new();
    for alg in POLICIES {
        let outcome = differential_replay(
            &fabric,
            &trace.coflows,
            &base,
            Some(CheckConfig::default()),
            || alg.make(),
        );
        assert!(
            outcome.result.all_complete(),
            "{alg:?} left coflows unfinished"
        );
        let bounds = check_lower_bounds(&trace.coflows, &fabric, &outcome.result, xi, None);
        verdicts.push(PolicyVerdict {
            policy: policy_key(alg),
            avg_cct: outcome.result.avg_cct(),
            normalized_cct: f64::NAN, // filled in below, once FVDF is known
            boundaries: outcome.legs.iter().map(|l| l.boundaries).sum(),
            violations: outcome.total_violations(),
            mismatches: outcome.mismatches,
            legs: outcome.legs,
            bounds,
        });
    }

    let fvdf_cct = verdicts[0].avg_cct;
    assert!(fvdf_cct > 0.0, "FVDF average CCT must be positive");
    for v in &mut verdicts {
        v.normalized_cct = v.avg_cct / fvdf_cct;
    }
    let measured: BTreeMap<String, f64> = verdicts
        .iter()
        .map(|v| (v.policy.clone(), v.normalized_cct))
        .collect();

    let path = golden_path(experiment, seed);
    let golden = if refresh_golden {
        let fresh = GoldenFigure::from_measurements(experiment, seed, GOLDEN_TOLERANCE, &measured);
        std::fs::write(&path, fresh.to_json_pretty()).expect("write refreshed golden");
        crate::report!("  refreshed {path} — review and commit deliberately");
        Some(fresh.compare(&measured))
    } else {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let fig = GoldenFigure::from_json(&text)
                    .unwrap_or_else(|e| panic!("{path} is not a valid golden: {e}"));
                Some(fig.compare(&measured))
            }
            Err(_) => {
                crate::report!("  no golden at {path} (run with --refresh-golden to create one)");
                None
            }
        }
    };

    let mut t = Table::new(
        format!("correctness oracle ({experiment}, seed {seed})"),
        &[
            "policy",
            "norm CCT",
            "boundaries",
            "violations",
            "replay",
            "bounds",
            "golden",
        ],
    );
    let mut failures = 0usize;
    for v in &verdicts {
        let replay_ok = v.mismatches.is_empty();
        let golden_ok = golden.as_ref().map(|g| {
            g.diffs
                .iter()
                .filter(|d| d.policy == v.policy)
                .all(|d| d.ok)
        });
        if v.violations > 0 || !replay_ok || !v.bounds.ok || golden_ok == Some(false) {
            failures += 1;
        }
        let mark = |ok: bool| if ok { "ok" } else { "FAIL" };
        t.row(&[
            v.policy.clone(),
            format!("{:.4}", v.normalized_cct),
            v.boundaries.to_string(),
            v.violations.to_string(),
            mark(replay_ok).to_string(),
            mark(v.bounds.ok).to_string(),
            match golden_ok {
                Some(ok) => mark(ok).to_string(),
                None => "n/a".to_string(),
            },
        ]);
    }
    crate::report!("{t}");

    // Golden drift can also come from policies the run never measured.
    if let Some(g) = &golden {
        if !g.ok {
            failures = failures.max(1);
            for d in g.diffs.iter().filter(|d| !d.ok) {
                crate::warn!(
                    "golden drift: {} measured {:?}, expected {}",
                    d.policy,
                    d.measured,
                    d.expected
                );
            }
        }
    }

    let ok = failures == 0;
    // Post-mortem: before reporting a failure, re-run the first failing
    // policy with the flight recorder riding along and freeze the tail.
    if !ok {
        let failing = report_failing_policy(&verdicts, &golden);
        let reason = failing
            .map(flight_reason)
            .unwrap_or_else(|| "golden drift (unmeasured policy)".to_string());
        let alg = failing
            .and_then(|v| POLICIES.iter().find(|a| policy_key(**a) == v.policy))
            .copied()
            .unwrap_or(Algorithm::Fvdf);
        write_flight_record(
            &fabric,
            &trace.coflows,
            &base,
            alg,
            &reason,
            experiment,
            seed,
        );
    }
    let report = OracleReport {
        experiment: experiment.to_string(),
        seed,
        xi,
        policies: verdicts,
        golden,
        ok,
    };
    let out = "ORACLE_report.json";
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out, format!("{json}\n")).expect("write ORACLE_report.json");
    crate::report!("  wrote {out}");

    if !ok {
        crate::warn!(
            "paper oracle: {failures} polic{} failed the oracle",
            if failures == 1 { "y" } else { "ies" }
        );
        std::process::exit(1);
    }
    crate::report!("  all policies: zero invariant violations, bit-exact replay, bounds respected");
}

/// The first verdict that failed any oracle check (same predicate the
/// summary table uses).
fn report_failing_policy<'a>(
    verdicts: &'a [PolicyVerdict],
    golden: &Option<GoldenReport>,
) -> Option<&'a PolicyVerdict> {
    verdicts.iter().find(|v| {
        let golden_bad = golden
            .as_ref()
            .map(|g| {
                g.diffs
                    .iter()
                    .filter(|d| d.policy == v.policy)
                    .any(|d| !d.ok)
            })
            .unwrap_or(false);
        v.violations > 0 || !v.mismatches.is_empty() || !v.bounds.ok || golden_bad
    })
}

/// Human-readable trigger string for the flight record.
fn flight_reason(v: &PolicyVerdict) -> String {
    if v.violations > 0 {
        format!("{}: {} invariant violation(s)", v.policy, v.violations)
    } else if !v.mismatches.is_empty() {
        format!("{}: replay mismatch: {}", v.policy, v.mismatches[0])
    } else if !v.bounds.ok {
        format!("{}: analytic bound violated", v.policy)
    } else {
        format!("{}: golden drift", v.policy)
    }
}

/// Re-run `alg` with the telemetry sampler and a collecting tracer riding
/// along, then dump the trailing window to `FLIGHT_record.json`.
fn write_flight_record(
    fabric: &Fabric,
    coflows: &[swallow_fabric::Coflow],
    base: &SimConfig,
    alg: Algorithm,
    reason: &str,
    experiment: &str,
    seed: u64,
) {
    let telemetry = Arc::new(Telemetry::with_stride(1));
    let sink = Arc::new(CollectSink::new());
    let tracer = Tracer::with_sink(sink.clone());
    let config = base
        .clone()
        .with_telemetry(telemetry.clone())
        .with_tracer(tracer.clone());
    let mut policy = alg.make();
    let _ = Engine::new(fabric.clone(), coflows.to_vec(), config).run(policy.as_mut());
    tracer.flush();
    let events: Vec<serde_json::Value> = sink
        .snapshot()
        .iter()
        .filter_map(|r| serde_json::to_value(r).ok())
        .collect();
    let rec = FlightRecord::capture(
        reason,
        experiment,
        seed,
        &telemetry.snapshot(),
        events,
        DEFAULT_FLIGHT_DEPTH,
    );
    match rec.write(std::path::Path::new("FLIGHT_record.json")) {
        Ok(()) => crate::report!(
            "  wrote FLIGHT_record.json ({} samples, {} trace events): {reason}",
            rec.samples.len(),
            rec.trace_events.len()
        ),
        Err(e) => crate::warn!("paper oracle: cannot write FLIGHT_record.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_oracle::differential_replay;

    /// An 8-coflow miniature of the oracle loop: every policy replays
    /// bit-exactly across all engine paths with zero invariant
    /// violations and metrics above the analytic floors.
    #[test]
    fn oracle_loop_is_clean_at_smoke_scale() {
        let bw = units::mbps(400.0);
        let trace = scenario::fig6_trace(bw, 8, 4.0, 7);
        let fabric = Fabric::uniform(trace.num_nodes, bw);
        let compression = scenario::lz4();
        let base = SimConfig::default()
            .with_slice(DEFAULT_SLICE)
            .with_reschedule(Reschedule::EventsOnly)
            .with_compression(compression.clone())
            .with_cpu(CpuModel::unconstrained(trace.num_nodes, 1024));
        let xi = best_case_ratio(&trace.coflows, compression.as_ref());
        for alg in [Algorithm::Fvdf, Algorithm::Srtf] {
            let outcome = differential_replay(
                &fabric,
                &trace.coflows,
                &base,
                Some(CheckConfig::default()),
                || alg.make(),
            );
            assert!(outcome.result.all_complete(), "{alg:?} unfinished");
            assert!(
                outcome.is_clean(),
                "{alg:?}: mismatches {:?}, legs {:?}",
                outcome.mismatches,
                outcome.legs
            );
            let bounds = check_lower_bounds(&trace.coflows, &fabric, &outcome.result, xi, None);
            assert!(bounds.ok, "{alg:?}: {:?}", bounds.checks);
        }
    }
}
