//! `paper sampling <experiment> [--seed N]` — quantify the cost of
//! non-clairvoyance: replay a workload under the pilot-flow sampling
//! estimator and report each sampled policy's CCT gap to its clairvoyant
//! counterpart and to clairvoyant FVDF (the unit of the paper's Fig. 6
//! bars).
//!
//! For every pilot fraction × sampled policy the command:
//!
//! 1. runs the naive slice loop and the skip-ahead fast path and demands
//!    **bit-exact** agreement — the estimator is a pure function of the
//!    admission/completion sequence, which both engine modes share;
//! 2. measures the admission-time size-estimation error alongside the
//!    realized average CCT;
//! 3. at pilot fraction 1.0, additionally demands that Sampled-FVDF
//!    reproduces clairvoyant FVDF **to the bit** (the estimator knows
//!    everything, the rewrite is the identity, the guard never arms).
//!
//! The sweep table is printed and a deterministic `SAMPLING_report.json`
//! is written — same experiment + seed ⇒ identical bytes (no wall-clock
//! data in the report) — and the process exits non-zero on any cross-mode
//! mismatch or full-sampling drift.

use std::collections::BTreeMap;

use crate::scenario::{self, DEFAULT_SLICE};
use swallow_fabric::engine::Reschedule;
use swallow_fabric::{
    units, Coflow, CpuModel, Engine, EngineMode, Fabric, Policy, SimConfig, SimResult,
};
use swallow_metrics::Table;
use swallow_sched::{Algorithm, SampledPolicy, SamplingConfig, SizeEstimator};
use swallow_workload::FbMix;

/// Experiments the sampling command can replay. `replay` uses the
/// Facebook four-bin coflow mix (the imported-trace shape) instead of the
/// fig6 generator.
pub const EXPERIMENTS: &[&str] = &["fig6a", "small", "replay"];

/// Pilot fractions swept, ascending; the last entry must be 1.0 so the
/// full-sampling bit-exactness gate always runs.
const FRACTIONS: [f64; 4] = [0.1, 0.25, 0.5, 1.0];

/// Engine modes every leg must agree across.
const MODES: [(EngineMode, &str); 2] = [
    (EngineMode::NaiveSlice, "naive"),
    (EngineMode::SkipAhead, "skip"),
];

/// One pilot-fraction × policy cell of the sweep.
#[derive(serde::Serialize)]
struct SampledRow {
    policy: String,
    pilot_fraction: f64,
    avg_cct: f64,
    /// Mean absolute relative size-estimation error at admission.
    est_err: f64,
    /// `avg_cct / clairvoyant counterpart's avg_cct`.
    gap_vs_clairvoyant: f64,
    /// `avg_cct / clairvoyant FVDF's avg_cct` (the Fig. 6 unit).
    gap_vs_fvdf: f64,
    /// Bit-exact agreement across both engine modes.
    modes_ok: bool,
}

/// The artifact written to `SAMPLING_report.json`.
#[derive(serde::Serialize)]
struct SamplingReport {
    experiment: String,
    seed: u64,
    pilot_fractions: Vec<f64>,
    /// Clairvoyant average CCTs the gaps are measured against.
    clairvoyant: BTreeMap<String, f64>,
    rows: Vec<SampledRow>,
    /// Sampled-FVDF at pilot fraction 1.0 matched clairvoyant FVDF to
    /// the bit in both engine modes.
    full_sampling_bit_exact: bool,
    ok: bool,
}

/// The sampled panel and each entry's clairvoyant counterpart.
const PANEL: [(&str, Algorithm); 2] = [
    ("sampled-fvdf", Algorithm::Fvdf),
    ("sampled-sebf", Algorithm::Sebf),
];

/// Fresh sampled policy for one panel entry.
fn make_sampled(label: &str, fraction: f64) -> Box<dyn Policy> {
    let cfg = SamplingConfig::with_pilot_fraction(fraction);
    match label {
        "sampled-fvdf" => Box::new(SampledPolicy::fvdf(cfg)),
        "sampled-sebf" => Box::new(SampledPolicy::sebf(cfg)),
        other => unreachable!("unknown panel entry {other}"),
    }
}

/// Run one policy through both engine modes; the naive loop is the
/// reference. Returns the reference result and whether the modes agreed
/// bit-for-bit on makespan, flow records, coflow records and reschedules.
fn run_modes(
    base: &SimConfig,
    fabric: &Fabric,
    coflows: &[Coflow],
    mut make: impl FnMut() -> Box<dyn Policy>,
) -> (SimResult, bool) {
    let mut reference: Option<SimResult> = None;
    let mut agree = true;
    for (mode, name) in MODES {
        let mut policy = make();
        let res = Engine::new(
            fabric.clone(),
            coflows.to_vec(),
            base.clone().with_mode(mode),
        )
        .run(policy.as_mut());
        assert!(res.all_complete(), "{} stalled in {name}", policy.name());
        match &reference {
            None => reference = Some(res),
            Some(r) => {
                let ok = res.makespan.to_bits() == r.makespan.to_bits()
                    && res.flows == r.flows
                    && res.coflows == r.coflows
                    && res.reschedules == r.reschedules;
                if !ok {
                    crate::warn!("engine mode {name} drifted from the naive reference");
                    agree = false;
                }
            }
        }
    }
    (reference.expect("MODES is non-empty"), agree)
}

/// Mean admission-time estimation error over the workload at one pilot
/// fraction — the same quantity `tests/sampling_props.rs` proves monotone.
fn admission_error(coflows: &[Coflow], fraction: f64) -> f64 {
    let mut est = SizeEstimator::new(SamplingConfig::with_pilot_fraction(fraction));
    let total: f64 = coflows
        .iter()
        .map(|c| {
            est.admit(c);
            est.abs_rel_err(c.id).expect("admitted coflow is tracked")
        })
        .sum();
    total / coflows.len().max(1) as f64
}

/// Run the sampling sweep; exits non-zero on any bit-exactness failure.
pub fn run(experiment: &str, seed: u64) {
    let bw = units::mbps(400.0);
    let (coflows, num_nodes) = match experiment {
        "fig6a" | "fig6" => {
            let t = scenario::fig6_trace(bw, 80, 4.0, seed);
            (t.coflows, t.num_nodes)
        }
        "small" => {
            let t = scenario::fig6_trace(bw, 12, 4.0, seed);
            (t.coflows, t.num_nodes)
        }
        "replay" => (FbMix::new(60, 16, 1e6, seed).generate(), 16),
        other => {
            eprintln!("paper sampling: unknown experiment {other:?} (try: {EXPERIMENTS:?})");
            std::process::exit(2);
        }
    };
    let fabric = Fabric::uniform(num_nodes, bw);
    let compression = scenario::lz4();
    let base = SimConfig::default()
        .with_slice(DEFAULT_SLICE)
        .with_reschedule(Reschedule::EventsOnly)
        .with_compression(compression)
        .with_cpu(CpuModel::unconstrained(num_nodes, 1024));
    crate::report!(
        "sampling {experiment} seed {seed}: {} coflows over {num_nodes} nodes, \
         pilot fractions {FRACTIONS:?}",
        coflows.len()
    );

    // Clairvoyant references (also held to cross-mode bit-exactness).
    let mut clairvoyant = BTreeMap::new();
    let mut failures = 0usize;
    for alg in [Algorithm::Fvdf, Algorithm::Sebf] {
        let (res, ok) = run_modes(&base, &fabric, &coflows, || alg.make());
        if !ok {
            failures += 1;
        }
        clairvoyant.insert(format!("{alg:?}").to_lowercase(), res.avg_cct());
    }
    let fvdf_cct = clairvoyant["fvdf"];
    assert!(
        fvdf_cct > 0.0,
        "clairvoyant FVDF average CCT must be positive"
    );

    let mut rows = Vec::new();
    let mut full_sampling_bit_exact = true;
    let mut t = Table::new(
        format!("non-clairvoyant sampling ({experiment}, seed {seed})"),
        &[
            "policy", "pilots", "est err", "avg CCT", "vs self", "vs FVDF", "modes",
        ],
    );
    for fraction in FRACTIONS {
        let est_err = admission_error(&coflows, fraction);
        for (label, counterpart) in PANEL {
            let (res, modes_ok) =
                run_modes(&base, &fabric, &coflows, || make_sampled(label, fraction));
            if !modes_ok {
                failures += 1;
            }
            let clair = clairvoyant[&format!("{counterpart:?}").to_lowercase()];
            if fraction == 1.0 && counterpart == Algorithm::Fvdf {
                // The estimator knows every flow: demand bit-exact
                // clairvoyant reproduction, not just a CCT match.
                let (clair_res, _) = run_modes(&base, &fabric, &coflows, || Algorithm::Fvdf.make());
                if res.makespan.to_bits() != clair_res.makespan.to_bits()
                    || res.flows != clair_res.flows
                    || res.coflows != clair_res.coflows
                    || res.reschedules != clair_res.reschedules
                {
                    crate::warn!("full sampling drifted from clairvoyant FVDF");
                    full_sampling_bit_exact = false;
                    failures += 1;
                }
            }
            t.row(&[
                label.to_string(),
                format!("{fraction:.2}"),
                format!("{est_err:.4}"),
                format!("{:.4}", res.avg_cct()),
                format!("{:.4}", res.avg_cct() / clair),
                format!("{:.4}", res.avg_cct() / fvdf_cct),
                if modes_ok { "ok" } else { "FAIL" }.to_string(),
            ]);
            rows.push(SampledRow {
                policy: label.to_string(),
                pilot_fraction: fraction,
                avg_cct: res.avg_cct(),
                est_err,
                gap_vs_clairvoyant: res.avg_cct() / clair,
                gap_vs_fvdf: res.avg_cct() / fvdf_cct,
                modes_ok,
            });
        }
    }
    crate::report!("{t}");

    let ok = failures == 0 && full_sampling_bit_exact;
    let report = SamplingReport {
        experiment: experiment.to_string(),
        seed,
        pilot_fractions: FRACTIONS.to_vec(),
        clairvoyant,
        rows,
        full_sampling_bit_exact,
        ok,
    };
    let out = "SAMPLING_report.json";
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    crate::report::write_report(out, format!("{json}\n"));
    crate::report!("  wrote {out}");

    if !ok {
        crate::warn!("paper sampling: {failures} bit-exactness failure(s)");
        std::process::exit(1);
    }
    crate::report!(
        "  all legs bit-identical across engine modes; full sampling reproduced clairvoyant FVDF"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_setup() -> (Fabric, Vec<Coflow>, SimConfig) {
        let bw = units::mbps(400.0);
        let t = scenario::fig6_trace(bw, 8, 4.0, 7);
        let fabric = Fabric::uniform(t.num_nodes, bw);
        let base = SimConfig::default()
            .with_slice(DEFAULT_SLICE)
            .with_reschedule(Reschedule::EventsOnly)
            .with_compression(scenario::lz4())
            .with_cpu(CpuModel::unconstrained(t.num_nodes, 1024));
        (fabric, t.coflows, base)
    }

    /// An 8-coflow miniature of the sweep: both sampled policies agree to
    /// the bit across both engine modes at sparse and full sampling.
    #[test]
    fn sampled_panel_is_bit_exact_across_modes_at_smoke_scale() {
        let (fabric, coflows, base) = smoke_setup();
        for fraction in [0.25, 1.0] {
            for (label, _) in PANEL {
                let (_, ok) = run_modes(&base, &fabric, &coflows, || make_sampled(label, fraction));
                assert!(ok, "{label} fraction {fraction}: engine modes drifted");
            }
        }
    }

    /// Full sampling must reproduce clairvoyant FVDF to the bit.
    #[test]
    fn full_sampling_matches_clairvoyant_fvdf_at_smoke_scale() {
        let (fabric, coflows, base) = smoke_setup();
        let (clair, _) = run_modes(&base, &fabric, &coflows, || Algorithm::Fvdf.make());
        let (full, ok) = run_modes(&base, &fabric, &coflows, || {
            make_sampled("sampled-fvdf", 1.0)
        });
        assert!(ok);
        assert_eq!(full.makespan.to_bits(), clair.makespan.to_bits());
        assert_eq!(full.flows, clair.flows);
        assert_eq!(full.coflows, clair.coflows);
        assert_eq!(full.reschedules, clair.reschedules);
    }

    /// The reported estimation error is a deterministic function of the
    /// workload and fraction, and exactly zero when every flow is a pilot.
    #[test]
    fn admission_error_is_deterministic_and_zero_at_full_sampling() {
        let t = scenario::fig6_trace(units::mbps(400.0), 12, 4.0, 7);
        assert_eq!(
            admission_error(&t.coflows, 0.25).to_bits(),
            admission_error(&t.coflows, 0.25).to_bits()
        );
        assert_eq!(admission_error(&t.coflows, 1.0), 0.0);
    }
}
