//! Skip-ahead against the naive loop, streams against materialized traces,
//! background traffic against a derated fabric: bit for bit.

use crate::helpers::{assert_bit_identical, staggered_trace};
use std::sync::Arc;
use swallow_fabric::engine::{Engine, EngineMode, Reschedule, SimConfig};
use swallow_fabric::policy::FairSharePolicy;
use swallow_fabric::view::ConstCompression;
use swallow_fabric::{
    Allocation, Coflow, CpuModel, Fabric, FabricView, FlowCommand, FlowSpec, Policy, VOLUME_EPS,
};

/// Request compression (with a transmit rate riding along) while raw
/// bytes remain, else plain transmission. Mirrors a joint policy that
/// always hedges its compression requests with a usable rate.
struct CompressWithRate;
impl Policy for CompressWithRate {
    fn name(&self) -> &str {
        "compress-with-rate"
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

#[test]
fn cpu_denied_flow_transmits_at_assigned_rate() {
    // One compression core, two flows that both ask for it. Flow 0 (the
    // lower id) wins the core and compresses for 10 s (100 B at 10 B/s);
    // flow 1 must NOT idle for those 10 s — it falls back to the 50 B/s
    // rate the policy assigned and finishes in ~2 s, uncompressed.
    let fabric = Fabric::uniform(2, 100.0);
    let cpu = CpuModel::unconstrained(2, 1);
    let spec = Arc::new(ConstCompression::new("slow", 10.0, 0.5));
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
    let res = engine.run(&mut CompressWithRate);
    assert!(res.all_complete());
    let f1 = &res.flows[1];
    let fct1 = f1.fct().unwrap();
    assert!((fct1 - 2.0).abs() < 0.1, "denied flow should send: {fct1}");
    // It never got a core, so every byte went out raw.
    assert!(
        (f1.wire_bytes - 100.0).abs() < 1.0,
        "wire={}",
        f1.wire_bytes
    );
    assert_eq!(f1.compressed_input, 0.0);
    // The winner still compressed: 100 raw → 50 wire bytes.
    let f0 = &res.flows[0];
    assert!((f0.wire_bytes - 50.0).abs() < 1.0, "wire={}", f0.wire_bytes);
}

#[test]
fn skip_ahead_is_bit_identical_to_naive_loop() {
    let fabric = Fabric::uniform(3, 100.0);
    let cfg = SimConfig::default()
        .with_slice(0.01)
        .with_reschedule(Reschedule::EventsOnly);
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

#[test]
fn streamed_arrivals_match_materialized_trace() {
    // A stream-fed engine must reproduce the materialized run bit for
    // bit, in both time-advance modes.
    let fabric = Fabric::uniform(3, 100.0);
    for mode in [EngineMode::NaiveSlice, EngineMode::SkipAhead] {
        let cfg = SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly)
            .with_mode(mode);
        let materialized = Engine::new(fabric.clone(), staggered_trace(), cfg.clone())
            .run(&mut FairSharePolicy::default());
        let streamed =
            Engine::from_arrivals(fabric.clone(), Box::new(staggered_trace().into_iter()), cfg)
                .run(&mut FairSharePolicy::default());
        assert!(streamed.all_complete());
        assert_bit_identical(&streamed, &materialized);
    }
}

#[test]
fn empty_stream_completes_immediately() {
    let res = Engine::from_arrivals(
        Fabric::uniform(2, 100.0),
        Box::new(std::iter::empty()),
        SimConfig::default(),
    )
    .run(&mut FairSharePolicy::default());
    assert!(res.all_complete());
    assert_eq!(res.flows.len(), 0);
    assert_eq!(res.makespan, 0.0);
}

#[test]
#[should_panic(expected = "time-sorted")]
fn unsorted_stream_is_rejected() {
    let mut coflows = staggered_trace();
    coflows.reverse();
    Engine::from_arrivals(
        Fabric::uniform(3, 100.0),
        Box::new(coflows.into_iter()),
        SimConfig::default(),
    )
    .run(&mut FairSharePolicy::default());
}

#[test]
#[should_panic(expected = "duplicate flow id")]
fn streamed_duplicate_flow_ids_rejected() {
    let coflows = vec![
        Coflow::builder(0)
            .arrival(0.0)
            .flow(FlowSpec::new(7, 0, 1, 100.0))
            .build(),
        Coflow::builder(1)
            .arrival(0.5)
            .flow(FlowSpec::new(7, 1, 0, 100.0))
            .build(),
    ];
    Engine::from_arrivals(
        Fabric::uniform(2, 100.0),
        Box::new(coflows.into_iter()),
        SimConfig::default(),
    )
    .run(&mut FairSharePolicy::default());
}

#[test]
fn background_traffic_equals_derated_capacity() {
    // bg = 0.5 over 200 B/s ports must be bit-identical to bg = 0 over
    // 100 B/s ports — the capacity model is exactly a fabric derate.
    let cfg = SimConfig::default()
        .with_slice(0.01)
        .with_reschedule(Reschedule::EventsOnly);
    let derated = Engine::new(Fabric::uniform(3, 100.0), staggered_trace(), cfg.clone())
        .run(&mut FairSharePolicy::default());
    let background = Engine::new(
        Fabric::uniform(3, 200.0),
        staggered_trace(),
        cfg.with_background_traffic(0.5),
    )
    .run(&mut FairSharePolicy::default());
    assert!(background.all_complete());
    assert_bit_identical(&background, &derated);
}

#[test]
fn background_traffic_slows_completion() {
    let cfg = SimConfig::default().with_slice(0.01);
    let clear = Engine::new(Fabric::uniform(3, 100.0), staggered_trace(), cfg.clone())
        .run(&mut FairSharePolicy::default());
    let busy = Engine::new(
        Fabric::uniform(3, 100.0),
        staggered_trace(),
        cfg.with_background_traffic(0.25),
    )
    .run(&mut FairSharePolicy::default());
    assert!(busy.all_complete());
    assert!(
        busy.avg_cct() > clear.avg_cct() * 1.2,
        "bg cct={} clear cct={}",
        busy.avg_cct(),
        clear.avg_cct()
    );
}

#[test]
#[should_panic(expected = "background traffic fraction")]
fn full_background_traffic_rejected() {
    SimConfig::default().with_background_traffic(1.0);
}

#[test]
fn skip_ahead_is_bit_identical_with_compression() {
    // Compression exercises the raw-exhaustion skip bound and the
    // compress → transmit segment switch.
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
    let fabric = Fabric::uniform(3, 100.0);
    let spec = Arc::new(ConstCompression::new("test", 300.0, 0.4));
    let cfg = SimConfig::default()
        .with_slice(0.01)
        .with_reschedule(Reschedule::EventsOnly)
        .with_compression(spec);
    let fast =
        Engine::new(fabric.clone(), staggered_trace(), cfg.clone()).run(&mut CompressThenSend);
    let naive = Engine::new(
        fabric,
        staggered_trace(),
        cfg.with_mode(EngineMode::NaiveSlice),
    )
    .run(&mut CompressThenSend);
    assert!(fast.all_complete());
    assert_bit_identical(&fast, &naive);
}

#[test]
fn events_only_matches_every_slice_on_static_trace() {
    // A single arrival and a stateless policy: after the one reschedule
    // the allocation never changes, so the cadences must walk the exact
    // same closed-form trajectory.
    let fabric = Fabric::uniform(3, 100.0);
    let coflows = vec![Coflow::builder(0)
        .arrival(0.0)
        .flow(FlowSpec::new(0, 0, 1, 1000.0))
        .flow(FlowSpec::new(1, 0, 2, 400.0))
        .build()];
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
    assert_eq!(every.flows, events_only.flows);
    assert_eq!(every.coflows, events_only.coflows);
    assert_eq!(every.makespan.to_bits(), events_only.makespan.to_bits());
}

#[test]
fn skip_ahead_jumps_in_one_reschedule_worth_of_slices() {
    // 1000 B at 100 B/s with δ = 1 ms is 10 000 slices; the skip path
    // must land on the completion slice without visibly iterating (the
    // reschedule count proves the engine saw only the two events).
    let fabric = Fabric::uniform(2, 100.0);
    let coflows = vec![Coflow::builder(0)
        .arrival(0.0)
        .flow(FlowSpec::new(0, 0, 1, 1000.0))
        .build()];
    let res = Engine::new(
        fabric,
        coflows,
        SimConfig::default()
            .with_slice(0.001)
            .with_reschedule(Reschedule::EventsOnly),
    )
    .run(&mut FairSharePolicy::default());
    assert!(res.all_complete());
    assert!((res.avg_fct() - 10.0).abs() < 1e-6);
    assert!(res.reschedules <= 2, "reschedules={}", res.reschedules);
}
