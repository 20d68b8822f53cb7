//! Skip-ahead remembers the boundary a jump aimed at and does not ask
//! `skip_target` again on landing — unless the landing rescheduled. These
//! traces land where the boundary is *not* quiet (an arrival, a coflow of
//! empty flows, a fault-plan boundary, the horizon), where forgetting to
//! drop the memo would leave the results alone but visit other boundaries.
//! Each case holds skip-ahead to the naive loop bit for bit and holds its
//! `SkipAhead` events and slice counters to the values the engine produced
//! before it had a memo: the memo may change how often the target is
//! computed, never which boundaries are visited.

use std::sync::Arc;
use swallow_fabric::engine::Reschedule;
use swallow_fabric::policy::FairSharePolicy;
use swallow_fabric::{Coflow, Engine, EngineMode, Fabric, FlowSpec, SimConfig, SimResult};
use swallow_faults::FaultPlan;
use swallow_trace::{CollectSink, TraceEvent, Tracer};

/// What one skip-ahead run visited.
#[derive(Debug, PartialEq)]
struct Visited {
    /// `(from_slice, to_slice)` of every jump, in order.
    jumps: Vec<(u64, u64)>,
    /// Slices jumped over, in total.
    skipped: u64,
    /// Slices advanced one by one.
    processed: u64,
}

/// Run `trace` on three 100 B/s ports (δ = 10 ms, events-only) in both
/// modes; assert they agree to the bit and return the fast run with what
/// it visited.
fn run_both(trace: Vec<Coflow>, config: SimConfig) -> (SimResult, Visited) {
    let config = config
        .with_slice(0.01)
        .with_reschedule(Reschedule::EventsOnly);
    let run = |config: SimConfig| {
        Engine::new(Fabric::uniform(3, 100.0), trace.clone(), config)
            .run(&mut FairSharePolicy::default())
    };
    let naive = run(config.clone().with_mode(EngineMode::NaiveSlice));
    let sink = Arc::new(CollectSink::new());
    let tracer = Tracer::with_sink(sink.clone());
    let fast = run(config.with_tracer(tracer.clone()));
    assert_eq!(fast.flows, naive.flows);
    assert_eq!(fast.coflows, naive.coflows);
    assert_eq!(fast.makespan.to_bits(), naive.makespan.to_bits());
    assert_eq!(fast.reschedules, naive.reschedules);

    let jumps: Vec<(u64, u64)> = sink
        .snapshot()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::SkipAhead {
                from_slice,
                to_slice,
            } => Some((from_slice, to_slice)),
            _ => None,
        })
        .collect();
    let summary = tracer.summary().expect("tracer is enabled");
    assert_eq!(summary.skip_jumps, jumps.len() as u64);
    let visited = Visited {
        jumps,
        skipped: summary.slices_skipped,
        processed: summary.slices_processed,
    };
    (fast, visited)
}

fn coflow(id: u64, arrival: f64, flows: impl IntoIterator<Item = FlowSpec>) -> Coflow {
    Coflow::builder(id).arrival(arrival).flows(flows).build()
}

/// The trace of the engine's own `fast_path_tests::staggered_trace`.
#[test]
fn staggered_trace_visits_the_boundaries_it_always_did() {
    let trace = vec![
        coflow(
            0,
            0.0,
            [
                FlowSpec::new(0, 0, 1, 1000.0),
                FlowSpec::new(1, 0, 2, 400.0),
            ],
        ),
        coflow(1, 3.137, [FlowSpec::new(2, 1, 2, 700.0)]),
        coflow(2, 20.0, [FlowSpec::new(3, 2, 0, 100.0)]),
    ];
    let (res, visited) = run_both(trace, SimConfig::default());
    assert!(res.all_complete());
    assert_eq!(
        visited,
        Visited {
            jumps: vec![
                (0, 314),
                (314, 799),
                (800, 1256),
                (1257, 1399),
                (2000, 2099)
            ],
            skipped: 1496,
            processed: 4,
        }
    );
}

/// Flow 0 (1000 B alone on its ports) is predicted to drain in slice 999;
/// coflow 1 arrives at exactly that boundary on the same egress port, the
/// reschedule halves flow 0's rate, and its last byte now takes two slices:
/// the engine must ask for a target again at 999 and jump to 1000.
#[test]
fn arrival_on_a_predicted_completion_boundary() {
    let trace = vec![
        coflow(0, 0.0, [FlowSpec::new(0, 0, 1, 1000.0)]),
        coflow(1, 9.99, [FlowSpec::new(1, 0, 2, 300.0)]),
    ];
    let (res, visited) = run_both(trace, SimConfig::default());
    assert!(res.all_complete());
    assert_eq!(
        visited,
        Visited {
            jumps: vec![(0, 999), (999, 1000), (1001, 1299)],
            skipped: 1298,
            processed: 2,
        }
    );
}

/// A coflow of nothing but empty flows arrives while two flows are in
/// flight: it reschedules (the decision comes out unchanged, so no segment
/// restarts) without adding a live flow, and the jump on from its boundary
/// must start there, not a slice later.
#[test]
fn empty_coflow_admitted_where_a_jump_landed() {
    let trace = vec![
        coflow(
            0,
            0.0,
            [
                FlowSpec::new(0, 0, 1, 1000.0),
                FlowSpec::new(1, 1, 2, 600.0),
            ],
        ),
        coflow(
            1,
            2.5,
            [FlowSpec::new(2, 2, 0, 0.0), FlowSpec::new(3, 0, 2, 0.0)],
        ),
        // Empty again, on the boundary where flow 1 is predicted to drain.
        coflow(2, 5.99, [FlowSpec::new(4, 2, 0, 0.0)]),
    ];
    let (res, visited) = run_both(trace, SimConfig::default());
    assert!(res.all_complete());
    assert_eq!(res.coflows.len(), 3);
    assert_eq!(
        visited,
        Visited {
            jumps: vec![(0, 250), (250, 599), (600, 999)],
            skipped: 998,
            processed: 2,
        }
    );
}

/// Port 0 drops to half capacity at the boundary where flow 0 was going to
/// drain (and recovers a slice before flow 1 would): the fault reschedules
/// on landing and the flow's last byte takes two slices.
#[test]
fn fault_boundary_on_a_predicted_completion_boundary() {
    let trace = vec![coflow(
        0,
        0.0,
        [
            FlowSpec::new(0, 0, 1, 1000.0),
            FlowSpec::new(1, 1, 2, 2000.0),
        ],
    )];
    let plan = FaultPlan::new().degrade_link(0, 0.5, 9.99, 19.98);
    let (res, visited) = run_both(trace, SimConfig::default().with_faults(plan.injector()));
    assert!(res.all_complete());
    assert_eq!(
        visited,
        Visited {
            jumps: vec![(0, 999), (999, 1000), (1001, 1998), (1998, 1999)],
            skipped: 1998,
            processed: 2,
        }
    );
}

/// The horizon falls inside slice 500, which must be advanced one by one
/// whatever else is predicted for it — here flow 0's completion as well.
/// Flow 1 is cut off with its partial accounting.
#[test]
fn horizon_slice_where_a_jump_landed() {
    let trace = vec![coflow(
        0,
        0.0,
        [
            FlowSpec::new(0, 0, 1, 501.0),
            FlowSpec::new(1, 1, 2, 5000.0),
        ],
    )];
    let config = SimConfig {
        max_time: 5.0,
        ..SimConfig::default()
    };
    let (res, visited) = run_both(trace, config);
    assert!(res.flows[0].completed_at.is_some());
    assert_eq!(res.flows[1].completed_at, None);
    assert!((res.flows[1].wire_bytes - 501.0).abs() < 1e-6);
    assert_eq!(
        visited,
        Visited {
            jumps: vec![(0, 500)],
            skipped: 500,
            processed: 1,
        }
    );
}
