//! Trace-schema pinning: the JSONL wire format is held to the golden file
//! `tests/golden/trace_event_schema.json` (`kind → sorted field names`), and
//! the skip-ahead fast path must emit the same *semantic* event sequence as
//! the naive slice-by-slice loop.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::sync::{Arc, Mutex};

use swallow_repro::fabric::engine::Reschedule;
use swallow_repro::prelude::*;
use swallow_repro::trace::{
    CollectSink, DenialReason, JsonlSink, RescheduleCause, TraceRecord, Tracer,
};

/// The pinned schema: serialized `type` tag → the exact set of payload
/// fields (excluding the envelope's `t` and `type`).
fn golden_schema() -> BTreeMap<String, BTreeSet<String>> {
    let text = include_str!("golden/trace_event_schema.json");
    let v: BTreeMap<String, Vec<String>> = serde_json::from_str(text).expect("golden parses");
    v.into_iter()
        .map(|(k, fields)| (k, fields.into_iter().collect()))
        .collect()
}

/// One instance of every `TraceEvent` variant.
fn one_of_each() -> Vec<TraceEvent> {
    use TraceEvent::*;
    vec![
        CoflowArrived {
            coflow: 1,
            flows: 2,
        },
        CoflowCompleted { coflow: 1 },
        FlowStarted { flow: 1, coflow: 1 },
        FlowCompleted { flow: 1, coflow: 1 },
        RawExhausted { flow: 1 },
        Rescheduled {
            cause: RescheduleCause::Initial,
            flows: 0,
        },
        FlowPreempted { flow: 1 },
        SkipAhead {
            from_slice: 0,
            to_slice: 1,
        },
        CompressionGranted { flow: 1, node: 0 },
        CompressionDenied {
            flow: 1,
            node: 0,
            reason: DenialReason::NoFreeCore,
        },
        HorizonReached,
        ScheduleOrder {
            policy: "fvdf".to_string(),
            order: vec![1],
        },
        VolumeDisposal {
            coflow: 1,
            gamma: 0.5,
        },
        WaterFillRounds {
            rounds: 1,
            demands: 1,
        },
        CoflowEstimated {
            coflow: 1,
            pilots: 1,
            flows: 4,
            estimated_bytes: 400.0,
            true_bytes: 350.0,
        },
        EstimateRefined {
            coflow: 1,
            estimated_bytes: 380.0,
        },
        CoflowRejected {
            coflow: 1,
            deadline: 5.0,
            bound: 10.0,
        },
        Heartbeat { worker: 0 },
        MessageSent {
            kind: "measure".to_string(),
        },
        MessageReceived {
            kind: "measure".to_string(),
        },
        ApiCall {
            method: "hook".to_string(),
        },
        QueueDepth {
            worker: 0,
            depth: 0,
        },
        BlockStaged {
            block: 1,
            bytes: 10,
        },
        BlockPushed {
            flow: 1,
            wire_bytes: 5,
            compressed: true,
        },
        BlockReleased { coflow: 1 },
        StageTransition {
            job: 1,
            stage: "map".to_string(),
        },
        SlotWait {
            job: 1,
            wait_secs: 0.0,
        },
        GcPause {
            job: 1,
            stage: "map".to_string(),
            secs: 0.1,
        },
        FaultInjected {
            kind: "worker_crash".to_string(),
            node: 1,
        },
        FaultCleared {
            kind: "worker_crash".to_string(),
            node: 1,
        },
        WorkerDown { worker: 1 },
        WorkerRecovered { worker: 1 },
        FlowsRequeued {
            coflow: 1,
            flows: 2,
        },
        PushRetry {
            flow: 1,
            attempt: 1,
        },
        InvariantViolated {
            invariant: "port_capacity".to_string(),
            flow: Some(1),
            node: Some(0),
            detail: "egress load 2.0 exceeds cap 1.0".to_string(),
        },
        BoundViolated {
            metric: "avg_cct".to_string(),
            value: 0.5,
            bound: 1.0,
        },
    ]
}

/// Payload field names of one serialized record (envelope keys stripped).
fn payload_fields(line: &serde_json::Value) -> BTreeSet<String> {
    line.as_object()
        .expect("records are JSON objects")
        .keys()
        .filter(|k| k.as_str() != "t" && k.as_str() != "type")
        .cloned()
        .collect()
}

#[test]
fn every_event_kind_matches_the_golden_schema() {
    // The subject is the serde wire format held against a golden JSON
    // document — both need a real serde toolchain.
    skip_if_stub!();
    let golden = golden_schema();
    let mut seen = BTreeSet::new();
    for event in one_of_each() {
        let kind = event.kind().to_string();
        let rec = TraceRecord { t: 0.0, event };
        let v = serde_json::to_value(&rec).expect("record serializes");
        assert_eq!(v["type"], kind, "serde tag must match kind()");
        assert!(v["t"].is_number());
        let expect = golden
            .get(&kind)
            .unwrap_or_else(|| panic!("golden schema is missing kind {kind:?}"));
        assert_eq!(
            &payload_fields(&v),
            expect,
            "field set drifted for {kind:?} — update tests/golden/trace_event_schema.json \
             only with a deliberate schema change"
        );
        seen.insert(kind);
    }
    let known: BTreeSet<String> = golden.keys().cloned().collect();
    assert_eq!(seen, known, "golden file lists kinds that no variant emits");
}

/// `Write` handle into a shared buffer, so the test can read back what the
/// sink wrote.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

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
fn jsonl_export_of_a_two_coflow_run_conforms_to_the_golden_schema() {
    skip_if_stub!();
    let buf = Arc::new(Mutex::new(Vec::new()));
    let tracer = Tracer::new(JsonlSink::new(SharedBuf(buf.clone())));
    let mut policy = Algorithm::Fvdf.make();
    let res = Engine::new(
        Fabric::uniform(3, 100.0),
        two_coflow_trace(),
        SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly)
            .with_tracer(tracer.clone()),
    )
    .run(policy.as_mut());
    assert!(res.all_complete());
    tracer.flush();

    let golden = golden_schema();
    let bytes = buf.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
    let mut kinds_seen = BTreeSet::new();
    let mut lines = 0usize;
    for line in text.lines() {
        lines += 1;
        let v: serde_json::Value = serde_json::from_str(line).expect("each line parses");
        assert!(v["t"].is_number(), "missing timestamp: {line}");
        let kind = v["type"].as_str().expect("type tag is a string");
        let expect = golden
            .get(kind)
            .unwrap_or_else(|| panic!("emitted unknown kind {kind:?}"));
        assert_eq!(&payload_fields(&v), expect, "schema drift in line: {line}");
        kinds_seen.insert(kind.to_string());
    }
    assert!(lines > 0, "the run must emit events");
    // The tiny scenario exercises the engine lifecycle and the FVDF policy.
    for kind in [
        "coflow_arrived",
        "flow_started",
        "flow_completed",
        "coflow_completed",
        "rescheduled",
        "schedule_order",
        "volume_disposal",
    ] {
        assert!(kinds_seen.contains(kind), "missing {kind}: {kinds_seen:?}");
    }
}

#[test]
fn skip_ahead_emits_the_same_semantic_events_as_slice_by_slice() {
    let run = |skip: bool| {
        let sink = Arc::new(CollectSink::new());
        let mut cfg = SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly)
            .with_tracer(Tracer::with_sink(sink.clone()));
        if !skip {
            cfg = cfg.with_mode(EngineMode::NaiveSlice);
        }
        let mut policy = Algorithm::Fvdf.make();
        let res =
            Engine::new(Fabric::uniform(3, 100.0), two_coflow_trace(), cfg).run(policy.as_mut());
        assert!(res.all_complete());
        (sink.snapshot(), res)
    };
    let (fast_events, fast) = run(true);
    let (naive_events, naive) = run(false);

    // The results are bit-identical…
    assert_eq!(fast.flows, naive.flows);
    assert_eq!(fast.coflows, naive.coflows);
    assert_eq!(fast.makespan.to_bits(), naive.makespan.to_bits());

    // …and so is the event stream, once the fast path's bookkeeping jumps
    // (`skip_ahead`, which the naive loop never takes) are set aside.
    let semantic = |records: &[TraceRecord]| -> Vec<TraceRecord> {
        records
            .iter()
            .filter(|r| r.event.kind() != "skip_ahead")
            .cloned()
            .collect()
    };
    let fast_semantic = semantic(&fast_events);
    assert!(
        fast_semantic.len() < fast_events.len(),
        "quiescent gaps in the trace should produce skip_ahead jumps"
    );
    assert_eq!(fast_semantic, semantic(&naive_events));
}
