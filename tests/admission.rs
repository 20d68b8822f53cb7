//! Deadline admission-control properties (test layer 8):
//!
//! 1. **Feasibility invariant** — an admitted coflow always satisfies
//!    `arrival + isolation_bound ≤ deadline`, and a rejected one never
//!    does. The controller may only get *stricter* (guard, compression
//!    credit `ξ = 1`), never admit past the bound.
//! 2. **Rejected coflows never touch the fabric** — neither via
//!    [`AdmissionController::filter`] + [`Engine`] nor through the
//!    end-to-end [`CoflowService`]: the result set contains exactly the
//!    admitted ids — and the service's result is the batch replay of the
//!    admitted coflows, to the bit.
//! 3. **Deadline-aware FVDF is conservative** — on deadline-less
//!    workloads, `FVDF-D` reproduces clairvoyant FVDF bit-exactly in both
//!    engine configurations (naive slice, skip-ahead).
//!
//! The fixed-seed `#[test]` cases carry the real coverage; the `proptest!`
//! block widens the seed space when the full dependency set is available.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use swallow_repro::fabric::engine::Reschedule;
use swallow_repro::prelude::*;
use swallow_repro::workload::gen::scale;

const BW: f64 = 1e9; // 1 Gbps uniform fabric, matching the deadline spec

/// A deadline-annotated workload whose slack straddles 1, so every run
/// exercises both admission outcomes.
fn deadline_workload(seed: u64, n_coflows: usize, n_ports: usize) -> (Vec<Coflow>, Fabric) {
    let mut cfg = scale(n_coflows, n_ports);
    cfg.seed = seed;
    cfg.deadline = Some(DeadlineSpec::uniform(BW, 0.5, 3.0));
    let fabric = Fabric::uniform(cfg.num_nodes, BW);
    (CoflowGen::new(cfg).generate(), fabric)
}

/// Property 1: the feasibility invariant, on both admission outcomes.
fn check_feasibility_invariant(seed: u64) {
    let (coflows, fabric) = deadline_workload(seed, 40, 8);
    let ac = AdmissionController::new(fabric);
    let mut admitted = 0usize;
    let mut rejected = 0usize;
    for c in &coflows {
        let verdict = ac.judge(c);
        let deadline = c.deadline.expect("spec attaches deadlines");
        if verdict.admitted {
            admitted += 1;
            assert!(
                c.arrival + verdict.bound <= deadline,
                "admitted coflow {} violates the bound: arrival {} + bound {} > deadline \
                 {deadline} (seed {seed})",
                c.id.0,
                c.arrival,
                verdict.bound
            );
        } else {
            rejected += 1;
            assert!(
                c.arrival + verdict.bound > deadline,
                "rejected coflow {} was feasible: arrival {} + bound {} <= deadline \
                 {deadline} (seed {seed})",
                c.id.0,
                c.arrival,
                verdict.bound
            );
        }
    }
    // Slack U(0.5, 3.0) straddles 1, so both branches must be exercised.
    assert!(admitted > 0, "no coflow admitted (seed {seed})");
    assert!(rejected > 0, "no coflow rejected (seed {seed})");
}

/// Property 2a: filter + engine — the simulated set is exactly the
/// admitted set; no rejected id ever appears in the result.
fn check_rejected_never_simulated(seed: u64) {
    let (coflows, fabric) = deadline_workload(seed, 30, 8);
    let all_ids: BTreeSet<u64> = coflows.iter().map(|c| c.id.0).collect();
    let mut ac = AdmissionController::new(fabric.clone());
    let kept = ac.filter(coflows);
    let kept_ids: BTreeSet<u64> = kept.iter().map(|c| c.id.0).collect();
    let rejected_ids: BTreeSet<u64> = all_ids.difference(&kept_ids).copied().collect();
    assert_eq!(ac.admitted() as usize, kept_ids.len());
    assert_eq!(ac.rejected() as usize, rejected_ids.len());
    assert!(!rejected_ids.is_empty(), "no rejections to check (seed {seed})");

    let mut policy = Algorithm::FvdfDeadline.make();
    let res = Engine::new(
        fabric,
        kept,
        SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly),
    )
    .run(policy.as_mut());
    let simulated: BTreeSet<u64> = res.coflows.iter().map(|c| c.id.0).collect();
    assert_eq!(simulated, kept_ids, "engine saw a non-admitted id (seed {seed})");
    for f in &res.flows {
        assert!(
            kept_ids.contains(&f.coflow.0),
            "flow {} of rejected coflow {} was allocated (seed {seed})",
            f.id.0,
            f.coflow.0
        );
    }
}

/// Property 2b: the same exclusion holds end-to-end through the service,
/// and what the service simulated is exactly the batch replay of the
/// admitted coflows — same engine path, same records, to the bit.
fn check_rejected_never_simulated_via_service(seed: u64) {
    let (coflows, fabric) = deadline_workload(seed, 25, 8);
    let mut svc = CoflowService::builder()
        .fabric(fabric.clone())
        .algorithm(Algorithm::FvdfDeadline)
        .build()
        .expect("service starts");
    let mut admitted = Vec::new();
    let mut rejected = 0usize;
    for c in coflows {
        let verdict = svc.submit(c.clone()).expect("submit succeeds");
        if verdict.admitted {
            admitted.push(c);
        } else {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "no rejections to check (seed {seed})");
    let report = svc.finish().expect("service drains");
    assert_eq!(report.admitted as usize, admitted.len());
    assert_eq!(report.rejected as usize, rejected);
    let simulated: BTreeSet<u64> = report.result.coflows.iter().map(|c| c.id.0).collect();
    let admitted_ids: BTreeSet<u64> = admitted.iter().map(|c| c.id.0).collect();
    assert_eq!(
        simulated, admitted_ids,
        "service simulated a rejected coflow (seed {seed})"
    );

    let mut policy = Algorithm::FvdfDeadline.make();
    let batch = Engine::new(
        fabric,
        admitted,
        SimConfig::default()
            .with_slice(0.01) // the service builder's default slice
            .with_reschedule(Reschedule::EventsOnly),
    )
    .run(policy.as_mut());
    let live = &report.result;
    assert_eq!(live.flows, batch.flows, "flow records (seed {seed})");
    assert_eq!(live.coflows, batch.coflows, "coflow records (seed {seed})");
    assert_eq!(live.makespan.to_bits(), batch.makespan.to_bits());
    assert_eq!(live.reschedules, batch.reschedules);
}

/// Property 3: on deadline-less input, FVDF-D ≡ FVDF to the bit, in both
/// engine configurations.
fn check_deadline_aware_fvdf_is_conservative(seed: u64) {
    let mut cfg = scale(20, 8);
    cfg.seed = seed;
    let coflows = CoflowGen::new(cfg.clone()).generate();
    assert!(coflows.iter().all(|c| c.deadline.is_none()));
    let fabric = Fabric::uniform(cfg.num_nodes, BW);
    let comp: Arc<dyn CompressionSpec> =
        Arc::new(ConstCompression::new("lz4-like", 400.0 * units::MB, 0.48));

    let base = SimConfig::default()
        .with_slice(0.01)
        .with_reschedule(Reschedule::EventsOnly)
        .with_compression(comp);
    let configs = [
        ("naive", base.clone().with_mode(EngineMode::NaiveSlice)),
        ("skip_ahead", base.with_mode(EngineMode::SkipAhead)),
    ];
    for (leg, config) in configs {
        let run = |alg: Algorithm| {
            let mut policy = alg.make();
            Engine::new(fabric.clone(), coflows.clone(), config.clone()).run(policy.as_mut())
        };
        let plain = run(Algorithm::Fvdf);
        let aware = run(Algorithm::FvdfDeadline);
        assert!(plain.all_complete(), "{leg}: FVDF stalled (seed {seed})");
        assert_eq!(
            aware.makespan.to_bits(),
            plain.makespan.to_bits(),
            "{leg}: FVDF-D makespan drifted on a deadline-less trace (seed {seed})"
        );
        assert_eq!(
            aware.flows, plain.flows,
            "{leg}: FVDF-D flow records drifted (seed {seed})"
        );
        assert_eq!(
            aware.coflows, plain.coflows,
            "{leg}: FVDF-D coflow records drifted (seed {seed})"
        );
        assert_eq!(
            aware.reschedules, plain.reschedules,
            "{leg}: FVDF-D reschedule count drifted (seed {seed})"
        );
    }
}

#[test]
fn admitted_coflows_meet_their_bound() {
    check_feasibility_invariant(7);
}

#[test]
fn admitted_coflows_meet_their_bound_alt_seed() {
    check_feasibility_invariant(42);
}

#[test]
fn rejected_coflows_never_reach_the_engine() {
    check_rejected_never_simulated(7);
}

#[test]
fn rejected_coflows_never_reach_the_service_fabric() {
    check_rejected_never_simulated_via_service(7);
}

#[test]
fn deadline_aware_fvdf_matches_plain_fvdf_without_deadlines() {
    check_deadline_aware_fvdf_is_conservative(7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized seeds: the feasibility invariant holds everywhere.
    #[test]
    fn feasibility_invariant_on_random_seeds(seed in 0u64..1_000_000) {
        check_feasibility_invariant(seed);
    }

    /// Randomized seeds: rejected coflows stay out of the result set.
    #[test]
    fn rejected_excluded_on_random_seeds(seed in 0u64..1_000_000) {
        check_rejected_never_simulated(seed);
    }

    /// Randomized seeds: FVDF-D ≡ FVDF on deadline-less traces, both modes.
    #[test]
    fn deadline_aware_conservative_on_random_seeds(seed in 0u64..1_000_000) {
        check_deadline_aware_fvdf_is_conservative(seed);
    }
}
