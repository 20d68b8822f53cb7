//! Equivalence suite for the engine fast path: the quiescent skip-ahead
//! must be an *exact* optimization. For any trace it produces bit-identical
//! `SimResult`s (per-flow FCTs and wire bytes, per-coflow CCTs, makespan)
//! to the naive slice-by-slice loop, and `EventsOnly` rescheduling matches
//! `EverySlice` on a static (single-arrival) trace where no event can
//! change the policy's answer between slices.

use std::sync::Arc;
use swallow_repro::fabric::engine::Reschedule;
use swallow_repro::prelude::*;

fn make_trace(num_coflows: usize, seed: u64) -> Vec<Coflow> {
    let scale = 1e-4; // shrink Fig. 1 sizes so each run takes milliseconds
    CoflowGen::new(GenConfig {
        num_coflows,
        num_nodes: 10,
        seed,
        ..GenConfig::default()
    })
    .generate()
    .into_iter()
    .map(|mut c| {
        for f in &mut c.flows {
            f.size *= scale;
        }
        c
    })
    .collect()
}

fn lz4() -> Arc<dyn CompressionSpec> {
    Arc::new(ProfiledCompression::constant(Table2::Lz4))
}

fn run(
    coflows: &[Coflow],
    alg: Algorithm,
    reschedule: Reschedule,
    skip_ahead: bool,
    compression: Option<Arc<dyn CompressionSpec>>,
) -> SimResult {
    let mut config = SimConfig::default()
        .with_slice(0.01)
        .with_reschedule(reschedule);
    if !skip_ahead {
        config = config.with_mode(EngineMode::NaiveSlice);
    }
    if let Some(c) = compression {
        config = config.with_compression(c);
    }
    let mut policy = alg.make();
    Engine::new(
        Fabric::uniform(10, units::mbps(100.0)),
        coflows.to_vec(),
        config,
    )
    .run(policy.as_mut())
}

/// Bit-exact comparison of everything observable in a result: direct
/// struct equality on the per-flow and per-coflow records (every f64
/// compared exactly), with no serialization detour — so the check is the
/// same under both the real and the stub serde toolchains.
fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{what}: makespan diverged ({} vs {})",
        a.makespan,
        b.makespan
    );
    assert_eq!(a.reschedules, b.reschedules, "{what}: reschedule count");
    assert_eq!(a.flows, b.flows, "{what}: per-flow records diverged");
    assert_eq!(a.coflows, b.coflows, "{what}: per-coflow records diverged");
}

#[test]
fn skip_ahead_is_bit_identical_to_naive_loop() {
    let trace = make_trace(15, 0xE01);
    for alg in [Algorithm::Fvdf, Algorithm::Sebf, Algorithm::Fifo] {
        let fast = run(&trace, alg, Reschedule::EventsOnly, true, Some(lz4()));
        let naive = run(&trace, alg, Reschedule::EventsOnly, false, Some(lz4()));
        assert!(fast.all_complete(), "{} incomplete", alg.name());
        assert_bit_identical(&fast, &naive, alg.name());
        assert!(
            fast.reschedules <= naive.reschedules,
            "{}: skip-ahead must not add reschedules",
            alg.name()
        );
    }
}

#[test]
fn skip_ahead_is_bit_identical_without_compression() {
    let trace = make_trace(12, 44);
    let fast = run(&trace, Algorithm::Srtf, Reschedule::EventsOnly, true, None);
    let naive = run(&trace, Algorithm::Srtf, Reschedule::EventsOnly, false, None);
    assert_bit_identical(&fast, &naive, "srtf/no-compression");
}

#[test]
fn events_only_matches_every_slice_on_a_static_trace() {
    // One arrival batch at t = 0 under PFF: max-min fair shares depend only
    // on *which* flows are active (not their remaining volumes), and the
    // active set changes only at completions — which EventsOnly reschedules
    // on too. So per-slice and per-event cadences walk the exact same
    // trajectory. (FVDF/SEBF are excluded deliberately: their MADD rates
    // and Γ orderings evolve with remaining volume between events, so for
    // them EverySlice is *supposed* to re-balance mid-interval.)
    let trace: Vec<Coflow> = make_trace(8, 7)
        .into_iter()
        .map(|mut c| {
            c.arrival = 0.0;
            c
        })
        .collect();
    let events = run(&trace, Algorithm::Pff, Reschedule::EventsOnly, false, None);
    let every = run(&trace, Algorithm::Pff, Reschedule::EverySlice, false, None);
    assert!(events.all_complete(), "PFF incomplete");
    assert_eq!(
        events.flows, every.flows,
        "EventsOnly vs EverySlice flow records"
    );
    assert_eq!(
        events.coflows, every.coflows,
        "EventsOnly vs EverySlice coflow records"
    );
    assert_eq!(events.makespan.to_bits(), every.makespan.to_bits());
}
