//! The engine keeps its flow table ascending in flow id. Every trace
//! generator hands out ids in arrival order, so the admission re-sort and a
//! retirement that compacts around survivors only run when a test asks for
//! them: here a later coflow carries *smaller* flow ids than a live one,
//! and one slice retires the first, a middle and the last table entry
//! together. A second trace retires the first entry, two adjacent middle
//! entries and the last entry of a nine-flow table in one slice, and checks
//! the hook sequence and every survivor's state behind the compaction.

use std::sync::{Arc, Mutex};
use swallow_repro::fabric::engine::Reschedule;
use swallow_repro::fabric::policy::FairSharePolicy;
use swallow_repro::fabric::view::FabricView;
use swallow_repro::fabric::{Allocation, BoundaryObserver, BoundarySnapshot, CoflowId, FlowId};
use swallow_repro::prelude::*;

/// Six flows on twelve ports (no two share one, so a work-conserving policy
/// runs each at the full 100 B/s). Coflow 1 arrives a second after coflow 0
/// with ids below, between and above coflow 0's, and the table becomes
/// `[3, 10, 11, 12, 14, 20]`. Flows 3 and 20 (200.5 B from t = 1) and flow
/// 12 (300.5 B from t = 0) all drain at t = 3.005, inside one 10 ms slice.
fn interleaved_trace() -> Vec<Coflow> {
    vec![
        Coflow::builder(0)
            .arrival(0.0)
            .flows([
                FlowSpec::new(10, 0, 1, 500.0),
                FlowSpec::new(12, 2, 3, 300.5),
                FlowSpec::new(14, 4, 5, 600.0),
            ])
            .build(),
        Coflow::builder(1)
            .arrival(1.0)
            .flows([
                FlowSpec::new(20, 6, 7, 200.5),
                FlowSpec::new(3, 8, 9, 200.5),
                FlowSpec::new(11, 10, 11, 400.0),
            ])
            .build(),
    ]
}

/// Asserts the snapshot order, remembers the ids it saw, and feeds the
/// invariant checker.
#[derive(Default)]
struct OrderedBoundaries {
    checker: InvariantChecker,
    seen: Mutex<Vec<Vec<u64>>>,
}

impl BoundaryObserver for OrderedBoundaries {
    fn at_boundary(&self, snap: &BoundarySnapshot<'_>) {
        let ids: Vec<u64> = snap.flows.iter().map(|f| f.id.0).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "snapshot at slice {} is not ascending in flow id: {ids:?}",
            snap.slice_idx
        );
        self.seen.lock().unwrap().push(ids);
        self.checker.at_boundary(snap);
    }
}

fn run(
    mode: EngineMode,
    compression: Option<Arc<dyn CompressionSpec>>,
    policy: &mut dyn Policy,
) -> (SimResult, Vec<Vec<u64>>) {
    run_trace(interleaved_trace(), 12, mode, compression, policy)
}

fn run_trace(
    trace: Vec<Coflow>,
    ports: usize,
    mode: EngineMode,
    compression: Option<Arc<dyn CompressionSpec>>,
    policy: &mut dyn Policy,
) -> (SimResult, Vec<Vec<u64>>) {
    let observer = Arc::new(OrderedBoundaries::default());
    let mut config = SimConfig::default()
        .with_slice(0.01)
        .with_reschedule(Reschedule::EventsOnly)
        .with_mode(mode)
        .with_check(observer.clone());
    if let Some(spec) = compression {
        config = config.with_compression(spec);
    }
    let res = Engine::new(Fabric::uniform(ports, 100.0), trace, config).run(policy);
    assert!(res.all_complete(), "{} stalled ({mode:?})", res.policy);
    assert!(
        observer.checker.is_clean(),
        "{} ({mode:?}): {:?}",
        res.policy,
        observer.checker.violations()
    );
    let seen = observer.seen.lock().unwrap().clone();
    (res, seen)
}

/// Leg 0 is the policy the trace's retirement shape was built for; the rest
/// put the real schedulers (and the CPU admission pass) on the same table.
fn leg(n: usize) -> (Box<dyn Policy>, Option<Arc<dyn CompressionSpec>>) {
    let lz: Arc<dyn CompressionSpec> = Arc::new(ConstCompression::new("test", 300.0, 0.4));
    match n {
        0 => (Box::new(FairSharePolicy::default()), None),
        1 => (Algorithm::Fvdf.make(), Some(lz)),
        2 => (Algorithm::Sebf.make(), None),
        _ => (Algorithm::Pff.make(), Some(lz)),
    }
}

#[test]
fn out_of_order_ids_keep_one_flow_order_in_both_modes() {
    for n in 0..4 {
        let (mut policy, compression) = leg(n);
        let (naive, naive_seen) = run(EngineMode::NaiveSlice, compression, policy.as_mut());
        let (mut policy, compression) = leg(n);
        let (fast, fast_seen) = run(EngineMode::SkipAhead, compression, policy.as_mut());
        assert_eq!(fast.flows, naive.flows, "{}", naive.policy);
        assert_eq!(fast.coflows, naive.coflows, "{}", naive.policy);
        assert_eq!(fast.makespan.to_bits(), naive.makespan.to_bits());
        assert_eq!(fast.reschedules, naive.reschedules);
        // Records come back in id order whatever order the flows arrived in.
        let ids: Vec<u64> = naive.flows.iter().map(|f| f.id.0).collect();
        assert_eq!(ids, [3, 10, 11, 12, 14, 20]);
        assert!(
            fast_seen.len() < naive_seen.len(),
            "skip-ahead never jumped"
        );
        if n == 0 {
            // Under fair share the retirement has the shape the trace was
            // built for: first, middle and last entry leave in one slice.
            for seen in [&naive_seen, &fast_seen] {
                assert!(
                    seen.windows(2)
                        .any(|w| w[0] == [3, 10, 11, 12, 14, 20] && w[1] == [10, 11, 14]),
                    "flows 3, 12 and 20 did not retire together"
                );
            }
            for id in [3, 12, 20] {
                let f = naive.flows.iter().find(|f| f.id.0 == id).unwrap();
                assert!((f.completed_at.unwrap() - 3.005).abs() < 1e-9);
            }
        }
    }
}

/// Sizes of the nine flows of [`bunched_trace`], by flow id − 1. Flows 1, 4,
/// 5 and 9 drain at t = 3.005, inside one 10 ms slice; the rest a second
/// apart from t = 5.
const BUNCHED_SIZES: [f64; 9] = [
    300.5, 500.0, 600.0, 300.5, 300.5, 700.0, 800.0, 900.0, 300.5,
];

/// Nine flows on eighteen ports, all from t = 0 and the table `[1, …, 9]`
/// from the start; coflow 0 owns flows 1–4 and coflow 1 flows 5–9, so the
/// adjacent pair that retires in the middle straddles the two.
fn bunched_trace() -> Vec<Coflow> {
    let flow = |id: u64| {
        let port = 2 * (id as u32 - 1);
        FlowSpec::new(id, port, port + 1, BUNCHED_SIZES[id as usize - 1])
    };
    vec![
        Coflow::builder(0).flows((1..=4).map(flow)).build(),
        Coflow::builder(1).flows((5..=9).map(flow)).build(),
    ]
}

/// Fair share over [`bunched_trace`], plus a log of the completion hooks in
/// the order they fire. Every view it is shown — the one right behind the
/// compaction included — must hold each flow at its own spec with
/// `100 · now` bytes sent, whichever slot the flow now sits in.
#[derive(Default)]
struct RecordedHooks {
    inner: FairSharePolicy,
    /// `(flow, coflow, bits of the completion time)`.
    flows: Vec<(u64, u64, u64)>,
    coflows: Vec<(u64, u64)>,
}

impl Policy for RecordedHooks {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        for f in &view.flows {
            let size = BUNCHED_SIZES[f.id.0 as usize - 1];
            assert_eq!(
                f.original_size, size,
                "flow {} carries another's spec",
                f.id
            );
            assert_eq!(f.coflow.0, u64::from(f.id.0 > 4), "flow {}", f.id);
            assert!(
                (f.raw - (size - 100.0 * view.now)).abs() < 1e-9,
                "flow {} at t = {}: {} left of {size}",
                f.id,
                view.now,
                f.raw
            );
        }
        self.inner.allocate(view)
    }

    fn on_flow_complete(&mut self, flow: FlowId, coflow: CoflowId, _size: f64, now: f64) {
        self.flows.push((flow.0, coflow.0, now.to_bits()));
    }

    fn on_completion(&mut self, coflow: CoflowId, now: f64) {
        self.coflows.push((coflow.0, now.to_bits()));
    }
}

#[test]
fn first_adjacent_middle_and_last_retire_in_one_pass() {
    let mut runs = Vec::new();
    for mode in [EngineMode::NaiveSlice, EngineMode::SkipAhead] {
        let mut policy = RecordedHooks::default();
        let (res, seen) = run_trace(bunched_trace(), 18, mode, None, &mut policy);
        // The four leave together and the five behind them close ranks.
        assert!(
            seen.windows(2)
                .any(|w| w[0] == [1, 2, 3, 4, 5, 6, 7, 8, 9] && w[1] == [2, 3, 6, 7, 8]),
            "flows 1, 4, 5 and 9 did not retire together ({mode:?})"
        );
        // Hooks fire in ascending flow id inside the retiring slice, then
        // one by one as the survivors drain.
        let order: Vec<u64> = policy.flows.iter().map(|&(flow, ..)| flow).collect();
        assert_eq!(order, [1, 4, 5, 9, 2, 3, 6, 7, 8], "{mode:?}");
        for &(flow, coflow, at) in &policy.flows[..4] {
            assert_eq!(coflow, u64::from(flow > 4));
            assert!((f64::from_bits(at) - 3.005).abs() < 1e-9, "flow {flow}");
        }
        let coflows: Vec<u64> = policy.coflows.iter().map(|&(coflow, _)| coflow).collect();
        assert_eq!(coflows, [0, 1], "{mode:?}");
        runs.push((res, policy.flows, policy.coflows));
    }
    let (fast, naive) = (runs.pop().unwrap(), runs.pop().unwrap());
    assert_eq!(fast.0.flows, naive.0.flows);
    assert_eq!(fast.0.coflows, naive.0.coflows);
    assert_eq!(fast.0.makespan.to_bits(), naive.0.makespan.to_bits());
    assert_eq!(fast.0.reschedules, naive.0.reschedules);
    assert_eq!(
        (fast.1, fast.2),
        (naive.1, naive.2),
        "hook sequences differ"
    );
}
