//! One flow, two flows, the edge cases of admission, and what the
//! constructors refuse.

use crate::helpers::single_flow_trace;
use std::sync::Arc;
use swallow_fabric::engine::{Engine, Reschedule, SimConfig};
use swallow_fabric::policy::FairSharePolicy;
use swallow_fabric::view::ConstCompression;
use swallow_fabric::{
    units, Allocation, Coflow, CpuModel, Fabric, FabricView, FlowCommand, FlowSpec, Policy,
    VOLUME_EPS,
};
use swallow_trace::{TraceEvent, Tracer};

#[test]
fn single_flow_fct_is_size_over_bandwidth() {
    let fabric = Fabric::uniform(2, 100.0);
    let engine = Engine::new(
        fabric,
        single_flow_trace(1000.0),
        SimConfig::default().with_slice(0.1),
    );
    let res = engine.run(&mut FairSharePolicy::default());
    assert!(res.all_complete());
    // 1000 bytes at 100 B/s = 10 s.
    assert!((res.avg_fct() - 10.0).abs() < 1e-6, "fct={}", res.avg_fct());
    assert!((res.avg_cct() - 10.0).abs() < 1e-6);
    assert!((res.makespan - 10.0).abs() < 1e-6);
    assert!((res.total_wire_bytes() - 1000.0).abs() < 1e-6);
    assert_eq!(res.traffic_reduction(), 0.0);
}

#[test]
fn two_flows_share_one_port_fairly() {
    let fabric = Fabric::uniform(3, 100.0);
    let coflows = vec![
        Coflow::builder(0)
            .flow(FlowSpec::new(0, 0, 1, 500.0))
            .build(),
        Coflow::builder(1)
            .flow(FlowSpec::new(1, 0, 2, 1000.0))
            .build(),
    ];
    let engine = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.05));
    let res = engine.run(&mut FairSharePolicy::default());
    assert!(res.all_complete());
    // Fair share: both at 50 B/s until t=10 (f0 done), then f1 at 100.
    // f1 remaining 500 at t=10 → done at 15.
    let fct0 = res.flows[0].fct().unwrap();
    let fct1 = res.flows[1].fct().unwrap();
    assert!((fct0 - 10.0).abs() < 0.1, "fct0={fct0}");
    assert!((fct1 - 15.0).abs() < 0.1, "fct1={fct1}");
}

#[test]
fn late_arrival_preempts_via_reschedule() {
    let fabric = Fabric::uniform(3, 100.0);
    let coflows = vec![
        Coflow::builder(0)
            .arrival(0.0)
            .flow(FlowSpec::new(0, 0, 1, 1000.0))
            .build(),
        Coflow::builder(1)
            .arrival(5.0)
            .flow(FlowSpec::new(1, 0, 2, 100.0))
            .build(),
    ];
    let engine = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.1));
    let res = engine.run(&mut FairSharePolicy::default());
    assert!(res.all_complete());
    // f0 runs alone [0,5) at 100 B/s → 500 left; then shares at 50 B/s.
    // f1 (100 bytes) done at 5 + 2 = 7; f0 then full rate: 500−100=400
    // left at t=7 → done at 11.
    let fct0 = res.flows[0].fct().unwrap();
    let fct1 = res.flows[1].fct().unwrap();
    assert!((fct1 - 2.0).abs() < 0.2, "fct1={fct1}");
    assert!((fct0 - 11.0).abs() < 0.2, "fct0={fct0}");
}

#[test]
fn idle_gap_fast_forwards() {
    let fabric = Fabric::uniform(2, 100.0);
    let coflows = vec![Coflow::builder(0)
        .arrival(1000.0)
        .flow(FlowSpec::new(0, 0, 1, 100.0))
        .build()];
    let engine = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.01));
    let res = engine.run(&mut FairSharePolicy::default());
    assert!(res.all_complete());
    // CCT is measured from the coflow's own arrival.
    assert!((res.avg_cct() - 1.0).abs() < 0.05, "cct={}", res.avg_cct());
    assert!((res.makespan - 1001.0).abs() < 0.05);
}

#[test]
fn zero_sized_flows_complete_instantly() {
    let fabric = Fabric::uniform(2, 100.0);
    let coflows = vec![Coflow::builder(0)
        .arrival(0.0)
        .flow(FlowSpec::new(0, 0, 1, 0.0))
        .flow(FlowSpec::new(1, 0, 1, 100.0))
        .build()];
    let engine = Engine::new(fabric, coflows, SimConfig::default());
    let res = engine.run(&mut FairSharePolicy::default());
    assert!(res.all_complete());
    assert_eq!(res.flows[0].fct().unwrap(), 0.0);
    assert!(res.flows[1].fct().unwrap() > 0.9);
}

#[test]
fn empty_coflow_completes_on_arrival() {
    let fabric = Fabric::uniform(2, 100.0);
    let coflows = vec![Coflow::builder(0).arrival(2.0).build()];
    let engine = Engine::new(fabric, coflows, SimConfig::default());
    let res = engine.run(&mut FairSharePolicy::default());
    assert_eq!(res.coflows.len(), 1);
    assert_eq!(res.coflows[0].cct(), Some(0.0));
}

#[test]
fn compression_policy_reduces_traffic() {
    /// β=1 while raw remains, then transmit at full port rate.
    struct CompressThenSend;
    impl Policy for CompressThenSend {
        fn name(&self) -> &str {
            "compress-then-send"
        }
        fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
            let mut a = Allocation::new();
            for f in &view.flows {
                if f.raw > VOLUME_EPS && f.compressible {
                    a.set(f.id, FlowCommand::compressing());
                } else {
                    a.set(f.id, FlowCommand::transmit(view.min_port_cap(f)));
                }
            }
            a
        }
    }
    let fabric = Fabric::uniform(2, 100.0);
    // Compression: 1000 B/s input, ratio 0.5 → strictly beneficial.
    let spec = Arc::new(ConstCompression::new("test", 1000.0, 0.5));
    let sink = Arc::new(swallow_trace::CollectSink::new());
    let engine = Engine::new(
        fabric,
        single_flow_trace(1000.0),
        SimConfig::default()
            .with_slice(0.01)
            .with_compression(spec)
            .with_tracer(Tracer::with_sink(sink.clone())),
    );
    let res = engine.run(&mut CompressThenSend);
    assert!(res.all_complete());
    // 1000 raw compress to 500; only ~500 hit the wire.
    assert!(
        (res.total_wire_bytes() - 500.0).abs() < 5.0,
        "wire={}",
        res.total_wire_bytes()
    );
    assert!((res.traffic_reduction() - 0.5).abs() < 0.01);
    // Compress takes 1 s, transmit 500/100 = 5 s → FCT ≈ 6 s, much
    // better than the 10 s without compression.
    let fct = res.avg_fct();
    assert!((fct - 6.0).abs() < 0.1, "fct={fct}");
    // The one flow ran out of raw bytes exactly once.
    let exhausted = sink
        .snapshot()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::RawExhausted { flow: 0 }))
        .count();
    assert_eq!(exhausted, 1);
}

#[test]
fn cpu_limit_caps_concurrent_compression() {
    struct CompressAll;
    impl Policy for CompressAll {
        fn name(&self) -> &str {
            "compress-all"
        }
        fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
            let mut a = Allocation::new();
            for f in &view.flows {
                if f.raw > VOLUME_EPS {
                    a.set(f.id, FlowCommand::compressing());
                } else {
                    a.set(f.id, FlowCommand::transmit(10.0));
                }
            }
            a
        }
    }
    let fabric = Fabric::uniform(2, 100.0);
    // One core only: the two flows cannot both compress at once.
    let cpu = CpuModel::unconstrained(2, 1);
    let spec = Arc::new(ConstCompression::new("test", 100.0, 0.5));
    let coflows = vec![Coflow::builder(0)
        .flow(FlowSpec::new(0, 0, 1, 100.0))
        .flow(FlowSpec::new(1, 0, 1, 100.0))
        .build()];
    let engine = Engine::new(
        fabric,
        coflows,
        SimConfig::default()
            .with_slice(0.01)
            .with_cpu(cpu)
            .with_compression(spec),
    );
    let res = engine.run(&mut CompressAll);
    assert!(res.all_complete());
    // Serial compression (1 s each due to the single core) still ends
    // with both flows compressed: wire bytes ≈ 100 total.
    assert!(
        (res.total_wire_bytes() - 100.0).abs() < 2.0,
        "wire={}",
        res.total_wire_bytes()
    );
}

#[test]
fn stalled_policy_terminates() {
    struct DoNothing;
    impl Policy for DoNothing {
        fn name(&self) -> &str {
            "noop"
        }
        fn allocate(&mut self, _view: &FabricView<'_>) -> Allocation {
            Allocation::new()
        }
    }
    let fabric = Fabric::uniform(2, 100.0);
    let engine = Engine::new(fabric, single_flow_trace(100.0), SimConfig::default());
    let res = engine.run(&mut DoNothing);
    assert!(!res.all_complete());
    assert_eq!(res.coflows.len(), 1);
    assert_eq!(res.coflows[0].completed_at, None);
}

#[test]
fn oversubscribed_allocation_is_clamped() {
    struct Greedy;
    impl Policy for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }
        fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
            let mut a = Allocation::new();
            for f in &view.flows {
                // Demands 3× the port capacity in total.
                a.set(f.id, FlowCommand::transmit(view.min_port_cap(f)));
            }
            a
        }
    }
    let fabric = Fabric::uniform(4, 90.0);
    let coflows = vec![Coflow::builder(0)
        .flow(FlowSpec::new(0, 0, 1, 300.0))
        .flow(FlowSpec::new(1, 0, 2, 300.0))
        .flow(FlowSpec::new(2, 0, 3, 300.0))
        .build()];
    let engine = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.1));
    let res = engine.run(&mut Greedy);
    assert!(res.all_complete());
    // 900 bytes through one 90 B/s egress port can't beat 10 s.
    assert!(res.makespan >= 10.0 - 1e-6, "makespan={}", res.makespan);
}

#[test]
fn events_only_reschedules_less() {
    let fabric = Fabric::uniform(3, units::mbps(100.0));
    let coflows = vec![
        Coflow::builder(0)
            .flow(FlowSpec::new(0, 0, 1, 10.0 * units::MB))
            .build(),
        Coflow::builder(1)
            .arrival(0.5)
            .flow(FlowSpec::new(1, 0, 2, 10.0 * units::MB))
            .build(),
    ];
    let every = Engine::new(
        fabric.clone(),
        coflows.clone(),
        SimConfig::default().with_slice(0.01),
    )
    .run(&mut FairSharePolicy::default());
    let events_only = Engine::new(
        fabric,
        coflows,
        SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly),
    )
    .run(&mut FairSharePolicy::default());
    assert!(every.all_complete() && events_only.all_complete());
    assert!(events_only.reschedules < every.reschedules);
    // Same fluid trajectory → nearly identical FCTs.
    assert!((every.avg_fct() - events_only.avg_fct()).abs() < 0.05);
}

#[test]
#[should_panic(expected = "duplicate flow id")]
fn duplicate_flow_ids_rejected() {
    let fabric = Fabric::uniform(2, 1.0);
    let coflows = vec![
        Coflow::builder(0).flow(FlowSpec::new(0, 0, 1, 1.0)).build(),
        Coflow::builder(1).flow(FlowSpec::new(0, 0, 1, 1.0)).build(),
    ];
    Engine::new(fabric, coflows, SimConfig::default());
}

#[test]
#[should_panic(expected = "outside the fabric")]
fn out_of_range_node_rejected() {
    let fabric = Fabric::uniform(2, 1.0);
    let coflows = vec![Coflow::builder(0).flow(FlowSpec::new(0, 0, 5, 1.0)).build()];
    Engine::new(fabric, coflows, SimConfig::default());
}
