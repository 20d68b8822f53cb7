//! The engine keeps its flow table ascending in flow id. Every trace
//! generator hands out ids in arrival order, so the admission re-sort and a
//! retirement that compacts around survivors only run when a test asks for
//! them: here a later coflow carries *smaller* flow ids than a live one,
//! and one slice retires the first, a middle and the last table entry
//! together.

use std::sync::{Arc, Mutex};
use swallow_repro::fabric::engine::Reschedule;
use swallow_repro::fabric::policy::FairSharePolicy;
use swallow_repro::fabric::{BoundaryObserver, BoundarySnapshot};
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
    let observer = Arc::new(OrderedBoundaries::default());
    let mut config = SimConfig::default()
        .with_slice(0.01)
        .with_reschedule(Reschedule::EventsOnly)
        .with_mode(mode)
        .with_check(observer.clone());
    if let Some(spec) = compression {
        config = config.with_compression(spec);
    }
    let res = Engine::new(Fabric::uniform(12, 100.0), interleaved_trace(), config).run(policy);
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
