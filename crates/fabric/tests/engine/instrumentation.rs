//! What a tracer sees of a run, and what an aborted run leaves behind.

use std::sync::Arc;
use swallow_fabric::engine::{Engine, SimConfig};
use swallow_fabric::policy::FairSharePolicy;
use swallow_fabric::{Coflow, Fabric, FlowSpec};
use swallow_trace::{CollectSink, TraceEvent, Tracer};

fn trace() -> Vec<Coflow> {
    vec![
        Coflow::builder(0)
            .flow(FlowSpec::new(0, 0, 1, 500.0))
            .build(),
        Coflow::builder(1)
            .arrival(2.0)
            .flow(FlowSpec::new(1, 0, 2, 300.0))
            .build(),
    ]
}

#[test]
fn traced_events_record_ordered_lifecycle() {
    let sink = Arc::new(CollectSink::new());
    let engine = Engine::new(
        Fabric::uniform(3, 100.0),
        trace(),
        SimConfig::default()
            .with_slice(0.05)
            .with_tracer(Tracer::with_sink(sink.clone())),
    );
    let res = engine.run(&mut FairSharePolicy::default());
    let records = sink.snapshot();
    assert!(!records.is_empty());
    // Timestamps never decrease by more than a slice (completion events
    // are interpolated inside the slice that detected them).
    assert!(records.windows(2).all(|w| w[1].t >= w[0].t - 0.05 - 1e-9));
    // Both coflows arrive and complete; arrivals precede completions.
    let times = |kind: &str| -> Vec<f64> {
        let of_kind = records.iter().filter(|r| r.event.kind() == kind);
        of_kind.map(|r| r.t).collect()
    };
    let (arr, done) = (times("coflow_arrived"), times("coflow_completed"));
    assert_eq!(arr.len(), 2);
    assert_eq!(done.len(), 2);
    assert!(arr[0] <= done[0]);
    // Per-flow completions (2 of them) and every reschedule are there.
    assert_eq!(times("flow_completed").len(), 2);
    assert_eq!(times("rescheduled").len(), res.reschedules);
}

#[test]
fn horizon_abort_leaves_partial_records() {
    let sink = Arc::new(CollectSink::new());
    let engine = Engine::new(
        Fabric::uniform(2, 1.0), // 500 B at 1 B/s would need 500 s
        vec![Coflow::builder(0)
            .flow(FlowSpec::new(0, 0, 1, 500.0))
            .build()],
        SimConfig {
            max_time: 5.0,
            ..SimConfig::default()
                .with_slice(0.1)
                .with_tracer(Tracer::with_sink(sink.clone()))
        },
    );
    let res = engine.run(&mut FairSharePolicy::default());
    assert!(!res.all_complete());
    assert_eq!(res.coflows.len(), 1);
    assert_eq!(res.coflows[0].completed_at, None);
    // Partial progress was preserved: ~5 s at 1 B/s.
    let wire = res.flows[0].wire_bytes;
    assert!(wire > 3.0 && wire < 7.0, "wire={wire}");
    let last = sink.snapshot().pop().expect("trace is not empty");
    assert_eq!(last.event, TraceEvent::HorizonReached);
}

#[test]
fn makespan_tracks_last_completion() {
    let engine = Engine::new(
        Fabric::uniform(3, 100.0),
        trace(),
        SimConfig::default().with_slice(0.01),
    );
    let res = engine.run(&mut FairSharePolicy::default());
    let last = res
        .flows
        .iter()
        .filter_map(|f| f.completed_at)
        .fold(0.0, f64::max);
    assert!((res.makespan - last).abs() < 1e-9);
}
