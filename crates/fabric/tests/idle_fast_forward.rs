//! The idle fast-forward must land on a boundary that admits the arrival it
//! jumped to. `(arrival / δ).ceil()` can round down onto the boundary just
//! before, which the admission test (`arrival ≤ now + 1e-12`) finds a
//! fraction of an ulp too early once an ulp of `now` exceeds that tolerance
//! (t ≳ 8 192 s): nothing is admitted, the fabric stays empty, and the loop
//! computes the same landing for ever. Every run here is made on its own
//! thread under a watchdog, so a regression fails instead of hanging the
//! suite.

use proptest::prelude::*;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;
use swallow_fabric::engine::Reschedule;
use swallow_fabric::policy::FairSharePolicy;
use swallow_fabric::{Coflow, Engine, EngineMode, Fabric, FlowSpec, SimConfig, SimResult};

/// Replay `trace` on two 100 B/s ports. `Err(Timeout)` if the run is still
/// going after ten seconds (it is then left spinning on its detached
/// thread), `Err(Disconnected)` if it panicked.
fn run_within_watchdog(
    trace: Vec<Coflow>,
    slice: f64,
    mode: EngineMode,
) -> Result<SimResult, RecvTimeoutError> {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        // The default horizon (1e7 s) is where the latest arrivals land.
        let config = SimConfig {
            max_time: 1e9,
            ..SimConfig::default()
        }
        .with_slice(slice)
        .with_reschedule(Reschedule::EventsOnly)
        .with_mode(mode);
        let res = Engine::new(Fabric::uniform(2, 100.0), trace, config)
            .run(&mut FairSharePolicy::default());
        // The receiver is gone only if the watchdog already gave up.
        let _ = done.send(res);
    });
    result.recv_timeout(Duration::from_secs(10))
}

/// Both modes finish, with every coflow complete, and agree to the bit.
fn check_finishes_in_both_modes(trace: Vec<Coflow>, slice: f64) -> Result<(), String> {
    let run = |mode| {
        run_within_watchdog(trace.clone(), slice, mode)
            .map_err(|e| format!("{mode:?} on {trace:?} (δ = {slice}): {e}"))
    };
    let naive = run(EngineMode::NaiveSlice)?;
    let fast = run(EngineMode::SkipAhead)?;
    if !naive.all_complete() || naive.coflows.len() != trace.len() {
        return Err(format!("incomplete run of {trace:?} (δ = {slice})"));
    }
    let same = fast.flows == naive.flows
        && fast.coflows == naive.coflows
        && fast.makespan.to_bits() == naive.makespan.to_bits()
        && fast.reschedules == naive.reschedules;
    if !same {
        return Err(format!("modes disagree on {trace:?} (δ = {slice})"));
    }
    Ok(())
}

/// One 10-byte flow (a tenth of a second on the wire) arriving at `arrival`.
fn lone_flow(id: u64, arrival: f64) -> Coflow {
    Coflow::builder(id)
        .arrival(arrival)
        .flow(FlowSpec::new(id, 0, 1, 10.0))
        .build()
}

/// `k · δ` moved by `ulps` units in the last place.
fn displaced(k: u64, slice: f64, ulps: i64) -> f64 {
    f64::from_bits(((k as f64 * slice).to_bits() as i64 + ulps) as u64)
}

#[test]
fn arrival_an_ulp_past_a_late_boundary_is_admitted() {
    // 928112.7590000001 / 0.001 rounds to 928112759, whose boundary is
    // 1.16e-10 s before the arrival — a hundred times the tolerance.
    let arrival = 928112.7590000001;
    assert!(arrival > 928112759.0 * 0.001 + 1e-12);
    check_finishes_in_both_modes(vec![lone_flow(0, arrival)], 0.001).unwrap();
}

/// No boundary a `u64` can index admits an arrival at infinity; the landing
/// check must give up with a panic, not walk the grid.
#[test]
fn arrival_beyond_the_slice_grid_panics() {
    for mode in [EngineMode::NaiveSlice, EngineMode::SkipAhead] {
        let outcome = run_within_watchdog(vec![lone_flow(0, f64::INFINITY)], 0.001, mode);
        assert_eq!(outcome.err(), Some(RecvTimeoutError::Disconnected));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arrivals within two ulps of a boundary, up to ten million seconds in:
    /// the first reaches an empty fabric through the fast-forward; the
    /// second finds it either still busy (the skip target's own verified
    /// landing) or empty again.
    #[test]
    fn arrivals_within_ulps_of_a_boundary_finish_and_agree(
        k in 1u64..=1_000_000_000,
        gap in 1u64..400,
        ulps in (-2i64..=2, -2i64..=2),
        fine in any::<bool>(),
    ) {
        let slice = if fine { 0.001 } else { 0.01 };
        let first = displaced(k, slice, ulps.0);
        let second = displaced(k + gap, slice, ulps.1).max(first);
        let trace = vec![lone_flow(0, first), lone_flow(1, second)];
        let outcome = check_finishes_in_both_modes(trace, slice);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
