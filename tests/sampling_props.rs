//! Sampling/estimation properties (test layer 7):
//!
//! 1. the pilot-flow estimator's admission error shrinks monotonically (in
//!    expectation over many random coflows) as the pilot fraction grows,
//!    hitting exactly zero at fraction 1.0;
//! 2. both engine modes — naive slice loop and skip-ahead — produce
//!    bit-identical results under sampled policies, exactly as they must
//!    for clairvoyant ones: the estimator is a pure function of the
//!    admission/completion call sequence, which both modes share.
//!
//! The fixed-seed `#[test]` cases carry the real coverage; the `proptest!`
//! block widens the seed space when the full dependency set is available.

use proptest::prelude::*;
use std::sync::Arc;
use swallow_repro::fabric::engine::Reschedule;
use swallow_repro::prelude::*;
use swallow_repro::workload::gen::scale;

/// Pilot fractions swept by the monotonicity check, ascending.
const FRACTIONS: [f64; 4] = [0.1, 0.25, 0.5, 1.0];

/// Mean admission-time estimation error over one generated workload at the
/// given pilot fraction.
fn mean_admission_error(coflows: &[Coflow], fraction: f64) -> f64 {
    let mut total = 0.0;
    let mut counted = 0usize;
    for c in coflows {
        let mut est = SizeEstimator::new(SamplingConfig::with_pilot_fraction(fraction));
        est.admit(c);
        total += est.abs_rel_err(c.id).expect("admitted coflow is tracked");
        counted += 1;
    }
    assert!(counted > 0, "workload generated no coflows");
    total / counted as f64
}

/// More pilots ⇒ better estimates, on average. Per-coflow monotonicity is
/// not a theorem (an unlucky larger pilot set can extrapolate worse on one
/// skewed coflow), so the assertion is on the workload mean with a small
/// slack, and exactness is required at fraction 1.0.
fn check_error_monotonicity(seed: u64, n_coflows: usize, n_ports: usize) {
    let mut cfg = scale(n_coflows, n_ports);
    cfg.seed = seed;
    let coflows = CoflowGen::new(cfg).generate();
    let errs: Vec<f64> = FRACTIONS
        .iter()
        .map(|&p| mean_admission_error(&coflows, p))
        .collect();
    const SLACK: f64 = 0.05;
    for w in errs.windows(2) {
        assert!(
            w[1] <= w[0] + SLACK,
            "mean estimation error grew with more pilots (seed {seed}): {errs:?}"
        );
    }
    assert_eq!(
        errs[FRACTIONS.len() - 1],
        0.0,
        "full sampling must be exact (seed {seed})"
    );
}

/// Sampled policy constructors, fresh per run.
fn sampled_policies(fraction: f64) -> Vec<(&'static str, Box<dyn Policy>)> {
    vec![
        (
            "sampled-fvdf",
            Box::new(SampledPolicy::fvdf(SamplingConfig::with_pilot_fraction(
                fraction,
            ))) as Box<dyn Policy>,
        ),
        (
            "sampled-sebf",
            Box::new(SampledPolicy::sebf(SamplingConfig::with_pilot_fraction(
                fraction,
            ))),
        ),
    ]
}

/// Run one generated workload through both engine configurations under
/// both sampled policies and assert that skip-ahead is bit-identical to the
/// naive loop.
fn check_modes_under_sampling(seed: u64, n_coflows: usize, n_ports: usize, fraction: f64) {
    let mut cfg = scale(n_coflows, n_ports);
    cfg.seed = seed;
    let coflows = CoflowGen::new(cfg.clone()).generate();
    let fabric = Fabric::uniform(cfg.num_nodes, units::gbps(1.0));
    let comp: Arc<dyn CompressionSpec> =
        Arc::new(ConstCompression::new("lz4-like", 400.0 * units::MB, 0.48));

    for (pname, _) in sampled_policies(fraction) {
        let base = SimConfig::default()
            .with_slice(0.001)
            .with_reschedule(Reschedule::EventsOnly)
            .with_compression(comp.clone());
        let run = |config: SimConfig| {
            let (_, mut policy) = sampled_policies(fraction)
                .into_iter()
                .find(|(n, _)| *n == pname)
                .expect("policy name");
            Engine::new(fabric.clone(), coflows.clone(), config).run(policy.as_mut())
        };

        let reference = run(base.clone().with_mode(EngineMode::NaiveSlice));
        assert!(
            reference.all_complete(),
            "{pname}: sampled run must drain (seed {seed})"
        );
        let got = run(base.with_mode(EngineMode::SkipAhead));
        assert_eq!(
            got.makespan.to_bits(),
            reference.makespan.to_bits(),
            "{pname}: makespan drifted (seed {seed}, fraction {fraction})"
        );
        assert_eq!(
            got.flows, reference.flows,
            "{pname}: flow records drifted (seed {seed}, fraction {fraction})"
        );
        assert_eq!(
            got.coflows, reference.coflows,
            "{pname}: coflow records drifted (seed {seed}, fraction {fraction})"
        );
        assert_eq!(
            got.reschedules, reference.reschedules,
            "{pname}: reschedule count drifted (seed {seed}, fraction {fraction})"
        );
    }
}

#[test]
fn error_shrinks_with_pilot_fraction_small() {
    check_error_monotonicity(7, 60, 8);
}

#[test]
fn error_shrinks_with_pilot_fraction_mid() {
    check_error_monotonicity(42, 80, 16);
}

#[test]
fn modes_agree_under_sampling_small_cluster() {
    check_modes_under_sampling(7, 30, 8, 0.25);
}

#[test]
fn modes_agree_under_sampling_sparse_pilots() {
    check_modes_under_sampling(42, 40, 12, 0.1);
}

#[test]
fn modes_agree_under_full_sampling() {
    check_modes_under_sampling(271_828, 30, 8, 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized seeds: estimator monotonicity on generated workloads.
    #[test]
    fn error_monotone_on_random_seeds(seed in 0u64..1_000_000) {
        check_error_monotonicity(seed, 40, 8);
    }

    /// Randomized seeds: engine modes agree to the bit under sampling.
    #[test]
    fn modes_agree_on_random_seeds(seed in 0u64..1_000_000) {
        check_modes_under_sampling(seed, 20, 6, 0.25);
    }
}
