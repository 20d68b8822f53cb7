//! Tracer, checker and telemetry attached: they change nothing, and what
//! they record — lifecycle, grants and denials, fault windows — is right.

use crate::helpers::{assert_bit_identical, single_flow_trace, staggered_trace, CompressThenSend};
use std::sync::Arc;
use swallow_fabric::engine::{Engine, EngineMode, Reschedule, SimConfig};
use swallow_fabric::policy::FairSharePolicy;
use swallow_fabric::view::ConstCompression;
use swallow_fabric::{
    Allocation, BoundaryObserver, BoundarySnapshot, Coflow, CpuModel, Fabric, FabricView,
    FlowCommand, FlowSpec, Policy, VOLUME_EPS,
};
use swallow_metrics::telemetry::Telemetry;
use swallow_trace::{CollectSink, DenialReason, RescheduleCause, TraceEvent, Tracer};

fn two_coflow_trace() -> Vec<Coflow> {
    vec![
        Coflow::builder(0)
            .arrival(0.0)
            .flow(FlowSpec::new(0, 0, 1, 1000.0))
            .build(),
        Coflow::builder(1)
            .arrival(4.0)
            .flow(FlowSpec::new(1, 0, 2, 200.0))
            .build(),
    ]
}

#[test]
fn traced_run_matches_untraced_bit_for_bit() {
    let fabric = Fabric::uniform(3, 100.0);
    let cfg = SimConfig::default()
        .with_slice(0.01)
        .with_reschedule(Reschedule::EventsOnly);
    let plain = Engine::new(fabric.clone(), two_coflow_trace(), cfg.clone())
        .run(&mut FairSharePolicy::default());
    let traced = Engine::new(
        fabric,
        two_coflow_trace(),
        cfg.with_tracer(Tracer::new(CollectSink::new())),
    )
    .run(&mut FairSharePolicy::default());
    assert_eq!(plain.flows, traced.flows);
    assert_eq!(plain.coflows, traced.coflows);
    assert_eq!(plain.makespan.to_bits(), traced.makespan.to_bits());
    assert_eq!(plain.reschedules, traced.reschedules);
}

/// Records `(slice_idx, live flows)` of every boundary it is shown.
#[derive(Default)]
struct LiveFlows(std::sync::Mutex<Vec<(u64, usize)>>);
impl BoundaryObserver for LiveFlows {
    fn at_boundary(&self, snap: &BoundarySnapshot<'_>) {
        let mut seen = self.0.lock().unwrap();
        seen.push((snap.slice_idx, snap.flows.len()));
    }
}

#[test]
fn telemetry_samples_are_consistent_cuts_of_an_unperturbed_run() {
    const DELTA: f64 = 0.01;
    let fabric = Fabric::uniform(3, 100.0);
    let cfg = SimConfig::default()
        .with_slice(DELTA)
        .with_reschedule(Reschedule::EventsOnly)
        .with_compression(Arc::new(ConstCompression::new("test", 300.0, 0.4)));
    let bare =
        Engine::new(fabric.clone(), two_coflow_trace(), cfg.clone()).run(&mut CompressThenSend);
    assert!(bare.all_complete());
    // Tracer, checker and telemetry (stride 1) all attached.
    let observed = |mode: EngineMode| {
        let telemetry = Arc::new(Telemetry::with_stride(1));
        let live = Arc::new(LiveFlows::default());
        let config = cfg
            .clone()
            .with_mode(mode)
            .with_tracer(Tracer::new(CollectSink::new()))
            .with_check(live.clone())
            .with_telemetry(telemetry.clone());
        let res =
            Engine::new(fabric.clone(), two_coflow_trace(), config).run(&mut CompressThenSend);
        let live = live.0.lock().unwrap().clone();
        (res, telemetry.samples(), live)
    };
    let (fast, fast_samples, fast_live) = observed(EngineMode::SkipAhead);
    let (naive, naive_samples, naive_live) = observed(EngineMode::NaiveSlice);
    // Observing changes nothing, in either mode.
    assert_bit_identical(&fast, &bare);
    assert_bit_identical(&naive, &bare);

    let wire = bare.total_wire_bytes();
    let saved = bare.total_raw_bytes() - wire;
    for (samples, live) in [(&fast_samples, &fast_live), (&naive_samples, &naive_live)] {
        // At stride 1 the sampler and the checker see the same boundaries.
        assert_eq!(samples.len(), live.len());
        assert_eq!(samples[0].bytes_on_wire, 0.0);
        assert_eq!(samples[0].reschedules, 1);
        for (s, &(idx, flows)) in samples.iter().zip(live) {
            assert_eq!(s.slice_idx, idx);
            assert_eq!(s.time, idx as f64 * DELTA);
            assert!(s.transmitting_flows + s.compressing_flows <= flows as u64);
            assert!(s.max_port_util <= 1.0 + 1e-6, "util={}", s.max_port_util);
            assert!(s.bytes_on_wire <= wire + 1e-9 && s.bytes_saved <= saved + 1e-9);
        }
        for w in samples.windows(2) {
            assert!(w[0].time < w[1].time);
            assert!(w[0].bytes_on_wire <= w[1].bytes_on_wire);
            assert!(w[0].bytes_saved <= w[1].bytes_saved);
            assert!(w[0].reschedules <= w[1].reschedules);
        }
        assert!(samples.last().unwrap().time <= bare.makespan);
        assert!(samples.iter().any(|s| s.compressing_flows > 0));
        // Both coflows transmitting: node 0's egress is the saturated
        // bottleneck of a three-node fabric.
        let contended = samples.iter().find(|s| s.transmitting_flows == 2).unwrap();
        assert!((contended.max_port_util - 1.0).abs() < 1e-6);
        assert!((contended.net_util - 1.0 / 3.0).abs() < 1e-6);
    }
    // The naive series visits every boundary, so it pins the cut: what
    // reaches the wire between two consecutive cuts is what the commands
    // in force at the first one allow — flows retired by that slice
    // count from the next cut on, never early.
    for w in naive_samples.windows(2) {
        assert_eq!(w[1].slice_idx, w[0].slice_idx + 1);
        let sent = w[1].bytes_on_wire - w[0].bytes_on_wire;
        assert!(sent <= w[0].tx_rate * DELTA + 1e-9, "sent={sent}");
    }
    // Skip-ahead visits a subset of those boundaries and samples the
    // same values there.
    assert!(fast_samples.len() < naive_samples.len());
    for s in &fast_samples {
        let twin = naive_samples.iter().find(|n| n.slice_idx == s.slice_idx);
        assert_eq!(twin, Some(s));
    }
}

#[test]
fn engine_emits_lifecycle_and_skip_events() {
    let sink = Arc::new(CollectSink::new());
    let tracer = Tracer::with_sink(sink.clone());
    let fabric = Fabric::uniform(3, 100.0);
    let res = Engine::new(
        fabric,
        two_coflow_trace(),
        SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly)
            .with_tracer(tracer.clone()),
    )
    .run(&mut FairSharePolicy::default());
    assert!(res.all_complete());
    let records = sink.snapshot();
    let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count();
    assert_eq!(count("coflow_arrived"), 2);
    assert_eq!(count("coflow_completed"), 2);
    assert_eq!(count("flow_started"), 2);
    assert_eq!(count("flow_completed"), 2);
    assert_eq!(count("rescheduled"), res.reschedules);
    assert!(count("skip_ahead") > 0, "quiescent run must jump");
    // The very first reschedule is the initial one; the second carries
    // the arrival of coflow 1.
    let causes: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::Rescheduled { cause, .. } => Some(*cause),
            _ => None,
        })
        .collect();
    assert_eq!(causes[0], RescheduleCause::Initial);
    assert!(causes.contains(&RescheduleCause::Arrival));
    assert!(causes.contains(&RescheduleCause::Completion));
    // Counters: everything skipped or processed, latencies recorded.
    let summary = tracer.summary().unwrap();
    assert!(summary.skip_ahead_hit_ratio > 0.5, "{summary:?}");
    assert_eq!(summary.reschedules, res.reschedules as u64);
    assert_eq!(summary.events_total, records.len() as u64);
}

#[test]
fn compression_grants_and_denials_are_traced() {
    struct AlwaysCompress;
    impl Policy for AlwaysCompress {
        fn name(&self) -> &str {
            "always-compress"
        }
        fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
            let mut a = Allocation::new();
            for f in &view.flows {
                if f.raw > VOLUME_EPS && f.compressible {
                    a.set(
                        f.id,
                        FlowCommand {
                            rate: 50.0,
                            compress: true,
                        },
                    );
                } else {
                    a.set(f.id, FlowCommand::transmit(50.0));
                }
            }
            a
        }
    }
    let sink = Arc::new(CollectSink::new());
    // One core, two compressible flows on the same sender: the lower id
    // gets the core, the other is denied.
    let fabric = Fabric::uniform(2, 100.0);
    let cpu = CpuModel::unconstrained(2, 1);
    let spec = Arc::new(ConstCompression::new("slow", 10.0, 0.5));
    let coflows = vec![Coflow::builder(0)
        .flow(FlowSpec::new(0, 0, 1, 100.0))
        .flow(FlowSpec::new(1, 0, 1, 100.0))
        .build()];
    let res = Engine::new(
        fabric,
        coflows,
        SimConfig::default()
            .with_slice(0.01)
            .with_cpu(cpu)
            .with_compression(spec)
            .with_tracer(Tracer::with_sink(sink.clone())),
    )
    .run(&mut AlwaysCompress);
    assert!(res.all_complete());
    let records = sink.snapshot();
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::CompressionGranted { flow: 0, node: 0 })));
    assert!(records.iter().any(|r| matches!(
        r.event,
        TraceEvent::CompressionDenied {
            flow: 1,
            node: 0,
            reason: DenialReason::NoFreeCore,
        }
    )));
}

#[test]
fn link_degradation_slows_the_flow() {
    use swallow_faults::FaultPlan;
    // Sender's link at half capacity for [0, 6): 50 B/s × 6 s = 300 bytes,
    // then the remaining 700 at full rate → fct = 6 + 7 = 13.
    let fabric = Fabric::uniform(2, 100.0);
    let plan = FaultPlan::new().degrade_link(0, 0.5, 0.0, 6.0);
    let res = Engine::new(
        fabric,
        single_flow_trace(1000.0),
        SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly)
            .with_faults(plan.injector()),
    )
    .run(&mut FairSharePolicy::default());
    assert!(res.all_complete());
    assert!((res.avg_fct() - 13.0).abs() < 0.1, "fct={}", res.avg_fct());
}

#[test]
fn worker_crash_stalls_then_recovers() {
    use swallow_faults::FaultPlan;
    // The receiver dies over [2, 5): 200 bytes move before the crash, the
    // flow idles through it, and the remaining 800 finish by t = 13.
    let fabric = Fabric::uniform(2, 100.0);
    let plan = FaultPlan::new().crash(1, 2.0, Some(5.0));
    let sink = Arc::new(CollectSink::new());
    let res = Engine::new(
        fabric,
        single_flow_trace(1000.0),
        SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly)
            .with_faults(plan.injector())
            .with_tracer(Tracer::with_sink(sink.clone())),
    )
    .run(&mut FairSharePolicy::default());
    assert!(res.all_complete());
    assert!((res.avg_fct() - 13.0).abs() < 0.1, "fct={}", res.avg_fct());
    // Both window edges surface as trace events stamped with fault time.
    let records = sink.snapshot();
    let injected = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::FaultInjected { node: 1, .. }))
        .expect("crash window open event");
    assert!((injected.t - 2.0).abs() < 1e-9, "t={}", injected.t);
    let cleared = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::FaultCleared { node: 1, .. }))
        .expect("crash window close event");
    assert!((cleared.t - 5.0).abs() < 1e-9, "t={}", cleared.t);
}

#[test]
fn core_revocation_falls_back_to_transmit() {
    use swallow_faults::FaultPlan;
    struct CompressAll;
    impl Policy for CompressAll {
        fn name(&self) -> &str {
            "compress-all"
        }
        fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
            let mut a = Allocation::new();
            for f in &view.flows {
                if f.raw > VOLUME_EPS && f.compressible {
                    a.set(
                        f.id,
                        FlowCommand {
                            rate: 50.0,
                            compress: true,
                        },
                    );
                } else {
                    a.set(f.id, FlowCommand::transmit(50.0));
                }
            }
            a
        }
    }
    // The sender's only core is revoked for the whole run: compression is
    // denied with `CoreRevoked` and the flow degrades to raw transmit at
    // the rate the policy asked for, still completing.
    let sink = Arc::new(CollectSink::new());
    let fabric = Fabric::uniform(2, 100.0);
    let cpu = CpuModel::unconstrained(2, 1);
    let spec = Arc::new(ConstCompression::new("test", 1000.0, 0.5));
    let plan = FaultPlan::new().revoke_cores(0, 1, 0.0, 1e9);
    let res = Engine::new(
        fabric,
        single_flow_trace(100.0),
        SimConfig::default()
            .with_slice(0.01)
            .with_cpu(cpu)
            .with_compression(spec)
            .with_faults(plan.injector())
            .with_tracer(Tracer::with_sink(sink.clone())),
    )
    .run(&mut CompressAll);
    assert!(res.all_complete());
    // Nothing was compressed: every byte went out raw.
    assert_eq!(res.traffic_reduction(), 0.0);
    assert!((res.total_wire_bytes() - 100.0).abs() < 1e-6);
    assert!(sink.snapshot().iter().any(|r| matches!(
        r.event,
        TraceEvent::CompressionDenied {
            flow: 0,
            node: 0,
            reason: DenialReason::CoreRevoked,
        }
    )));
}

#[test]
fn permanent_crash_terminates_via_stall_net() {
    use swallow_faults::FaultPlan;
    // A crash with no restart leaves the flow idle forever; the stall net
    // re-arms once the last fault boundary has been observed and the run
    // terminates incomplete instead of hanging.
    let fabric = Fabric::uniform(2, 100.0);
    let plan = FaultPlan::new().crash(1, 2.0, None);
    let res = Engine::new(
        fabric,
        single_flow_trace(1000.0),
        SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly)
            .with_faults(plan.injector()),
    )
    .run(&mut FairSharePolicy::default());
    assert!(!res.all_complete());
    assert!(res.makespan.is_finite());
    // It made progress right up to the crash.
    assert!((res.total_wire_bytes() - 200.0).abs() < 2.0);
}

#[test]
fn fault_run_is_bit_identical_with_skip_ahead() {
    use swallow_faults::FaultPlan;
    // Fault boundaries must be observed on the same slice in the skip
    // path as in the naive loop, or the two runs diverge.
    let plan = FaultPlan::new()
        .crash(1, 2.0, Some(5.0))
        .degrade_link(2, 0.5, 4.0, 10.0);
    let fabric = Fabric::uniform(3, 100.0);
    let cfg = SimConfig::default()
        .with_slice(0.01)
        .with_reschedule(Reschedule::EventsOnly)
        .with_faults(plan.injector());
    let fast = Engine::new(fabric.clone(), staggered_trace(), cfg.clone())
        .run(&mut FairSharePolicy::default());
    let naive = Engine::new(
        fabric,
        staggered_trace(),
        cfg.with_mode(EngineMode::NaiveSlice),
    )
    .run(&mut FairSharePolicy::default());
    assert!(fast.all_complete());
    assert_bit_identical(&fast, &naive);
}
