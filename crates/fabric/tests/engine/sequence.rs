//! The order of everything that leaves the loop, pinned.
//!
//! Every stage of the engine emits trace records and calls policy hooks, and
//! the position of each in the stream is part of the engine's contract
//! (`CompressionGranted` / `Denied` before `Rescheduled` before
//! `FlowPreempted`, `RawExhausted` stamped `now + δ`, completions in flow-id
//! order, …). Each scenario below is run under a [`CollectSink`] and a
//! recording policy; every trace record (`kind`, time bits, `{:?}` of the
//! payload), every policy call (hook, arguments, time bits, and the tracer's
//! event / slice / jump counters *at the call*, which fixes where it falls
//! between the records) and the [`SimResult`] are folded into one 64-bit
//! FNV-1a hash that must equal a committed constant.
//!
//! The scenarios are built by hand and draw no random numbers: the sandbox's
//! stand-in `rand` and CI's differ, and nothing here may depend on either.
//!
//! The constants were recorded on the commit *before* the engine was split
//! into stage files, so they are that engine's behaviour. Re-record them
//! only in a pull request titled `[results-change]`: a failing run prints
//! the transcript it hashed and the value it got.

use std::sync::Arc;
use swallow_fabric::engine::{Engine, EngineMode, Reschedule, SimConfig, SimResult};
use swallow_fabric::policy::FairSharePolicy;
use swallow_fabric::view::ConstCompression;
use swallow_fabric::{
    Allocation, Coflow, CoflowId, CpuModel, Fabric, FabricView, FlowCommand, FlowId, FlowSpec,
    Policy, VOLUME_EPS,
};
use swallow_faults::FaultPlan;
use swallow_trace::{CollectSink, Tracer};

use crate::helpers::staggered_trace;

/// Wraps a policy and writes one transcript line per call it receives.
struct Recording<P> {
    inner: P,
    tracer: Tracer,
    lines: Vec<String>,
}

impl<P> Recording<P> {
    fn new(inner: P) -> Self {
        Self {
            inner,
            tracer: Tracer::disabled(),
            lines: Vec::new(),
        }
    }

    /// `call`, stamped with how far the tracer's counters had got when it
    /// was made: records emitted, slices walked, slices and jumps skipped,
    /// reschedules timed.
    fn note(&mut self, call: String) {
        let s = self.tracer.summary().expect("the run is traced");
        self.lines.push(format!(
            "pol {call} @{}/{}/{}/{}/{}",
            s.events_total, s.slices_processed, s.slices_skipped, s.skip_jumps, s.reschedules
        ));
    }
}

impl<P: Policy> Policy for Recording<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        let flows: Vec<String> = view
            .flows
            .iter()
            .map(|f| {
                format!(
                    "{}:{:016x}:{:016x}",
                    f.id.0,
                    f.raw.to_bits(),
                    f.compressed.to_bits()
                )
            })
            .collect();
        self.note(format!(
            "allocate t={:016x} flows=[{}]",
            view.now.to_bits(),
            flows.join(",")
        ));
        self.inner.allocate(view)
    }

    fn on_arrival(&mut self, coflow: &Coflow, now: f64) {
        self.note(format!(
            "on_arrival c={} flows={} t={:016x}",
            coflow.id.0,
            coflow.flows.len(),
            now.to_bits()
        ));
        self.inner.on_arrival(coflow, now);
    }

    fn on_completion(&mut self, coflow: CoflowId, now: f64) {
        self.note(format!(
            "on_completion c={} t={:016x}",
            coflow.0,
            now.to_bits()
        ));
        self.inner.on_completion(coflow, now);
    }

    fn on_flow_complete(&mut self, flow: FlowId, coflow: CoflowId, size: f64, now: f64) {
        self.note(format!(
            "on_flow_complete f={} c={} size={:016x} t={:016x}",
            flow.0,
            coflow.0,
            size.to_bits(),
            now.to_bits()
        ));
        self.inner.on_flow_complete(flow, coflow, size, now);
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.clone();
        self.inner.set_tracer(tracer);
    }
}

/// Compress-then-send with strict priority to the newest coflow. A flow
/// with raw bytes asks for a core and carries a 25 B/s rate in case it is
/// denied one; a flow without asks for its ports in full if it belongs to
/// the newest coflow, and otherwise for a core it cannot use — the engine
/// denies that (`RawExhausted`) and the flow idles, preempted.
struct NewestFirst;
impl Policy for NewestFirst {
    fn name(&self) -> &str {
        "newest-first"
    }
    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        let newest = view.flows.iter().map(|f| f.coflow).max();
        let mut a = Allocation::new();
        for f in &view.flows {
            let cmd = if f.raw > VOLUME_EPS {
                FlowCommand {
                    rate: 25.0,
                    compress: true,
                }
            } else if Some(f.coflow) == newest {
                FlowCommand::transmit(view.min_port_cap(f))
            } else {
                FlowCommand::compressing()
            };
            a.set(f.id, cmd);
        }
        a
    }
}

/// Run `engine` under a recording `policy` and return the transcript's hash.
fn sequence_hash<P: Policy>(
    build: impl FnOnce(SimConfig) -> Engine,
    config: SimConfig,
    policy: P,
) -> u64 {
    let sink = Arc::new(CollectSink::new());
    let tracer = Tracer::with_sink(sink.clone());
    let mut policy = Recording::new(policy);
    let res: SimResult = build(config.with_tracer(tracer.clone())).run(&mut policy);

    let mut lines: Vec<String> = sink
        .snapshot()
        .iter()
        .map(|r| {
            format!(
                "rec {} {:016x} {:?}",
                r.event.kind(),
                r.t.to_bits(),
                r.event
            )
        })
        .collect();
    lines.append(&mut policy.lines);
    let s = tracer.summary().expect("the run is traced");
    lines.push(format!(
        "end events={} slices={} skipped={} jumps={} reschedules={}",
        s.events_total, s.slices_processed, s.slices_skipped, s.skip_jumps, s.reschedules
    ));
    for f in &res.flows {
        lines.push(format!(
            "flow {} c={} done={:?} wire={:016x} cin={:016x}",
            f.id.0,
            f.coflow.0,
            f.completed_at.map(f64::to_bits),
            f.wire_bytes.to_bits(),
            f.compressed_input.to_bits()
        ));
    }
    for c in &res.coflows {
        lines.push(format!(
            "coflow {} done={:?} bytes={:016x} flows={}",
            c.id.0,
            c.completed_at.map(f64::to_bits),
            c.total_bytes.to_bits(),
            c.num_flows
        ));
    }
    lines.push(format!(
        "result policy={} makespan={:016x} reschedules={}",
        res.policy,
        res.makespan.to_bits(),
        res.reschedules
    ));

    // FNV-1a over the lines, each closed by a newline.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Shown only when the caller's assertion fails.
    eprintln!("{}\n=> {hash:#018x}", lines.join("\n"));
    hash
}

fn events_only(mode: EngineMode) -> SimConfig {
    SimConfig::default()
        .with_slice(0.01)
        .with_reschedule(Reschedule::EventsOnly)
        .with_mode(mode)
}

/// (i) Two coflows contending for node 0's egress and its one core.
fn contention(config: SimConfig) -> u64 {
    let coflows = vec![
        Coflow::builder(0)
            .arrival(0.0)
            .flow(FlowSpec::new(0, 0, 1, 600.0))
            .flow(FlowSpec::new(1, 0, 2, 300.0))
            .build(),
        Coflow::builder(1)
            .arrival(2.5)
            .flow(FlowSpec::new(2, 0, 1, 150.0))
            .flow(FlowSpec::new(3, 0, 2, 90.0).incompressible())
            .build(),
    ];
    let config = config
        .with_cpu(CpuModel::unconstrained(3, 1))
        .with_compression(Arc::new(ConstCompression::new("test", 300.0, 0.4)));
    sequence_hash(
        |c| Engine::new(Fabric::uniform(3, 100.0), coflows, c),
        config,
        NewestFirst,
    )
}

#[test]
fn contention_for_one_egress_and_one_core() {
    let skip = contention(events_only(EngineMode::SkipAhead));
    assert_eq!(skip, 0x3167_2fb9_0540_db93);
    let naive = contention(events_only(EngineMode::NaiveSlice));
    assert_eq!(naive, 0xff8d_4471_b833_6438);
    let every_slice = contention(SimConfig::default().with_slice(0.01));
    assert_eq!(every_slice, 0x872b_7ac7_adfd_9b23);
}

/// (ii) The staggered trace through a crash window, a degraded link and a
/// core revocation.
fn faulted(mode: EngineMode) -> u64 {
    let plan = FaultPlan::new()
        .revoke_cores(0, 1, 0.5, 1.5)
        .crash(1, 2.0, Some(5.0))
        .degrade_link(2, 0.5, 4.0, 10.0);
    let config = events_only(mode)
        .with_cpu(CpuModel::unconstrained(3, 1))
        .with_compression(Arc::new(ConstCompression::new("test", 300.0, 0.4)))
        .with_faults(plan.injector());
    sequence_hash(
        |c| Engine::new(Fabric::uniform(3, 100.0), staggered_trace(), c),
        config,
        NewestFirst,
    )
}

#[test]
fn staggered_trace_under_a_fault_plan() {
    assert_eq!(faulted(EngineMode::SkipAhead), 0xc1a7_8db3_51fa_ace5);
    assert_eq!(faulted(EngineMode::NaiveSlice), 0x85c2_0e2b_4650_ab99);
}

/// (iii) A coflow whose flow ids fall below, between and above a live
/// coflow's, with a zero-sized flow; an empty coflow at the same instant.
fn out_of_order_trace() -> Vec<Coflow> {
    vec![
        Coflow::builder(0)
            .arrival(0.0)
            .flow(FlowSpec::new(10, 0, 1, 800.0))
            .flow(FlowSpec::new(20, 1, 2, 500.0))
            .build(),
        Coflow::builder(1)
            .arrival(1.0)
            .flow(FlowSpec::new(25, 2, 0, 300.0))
            .flow(FlowSpec::new(5, 0, 2, 200.0))
            .flow(FlowSpec::new(30, 1, 0, 0.0))
            .flow(FlowSpec::new(15, 0, 1, 100.0))
            .build(),
        Coflow::builder(2).arrival(1.0).build(),
    ]
}

#[test]
fn out_of_order_ids_and_completion_on_arrival() {
    // The two constructors feed one loop but order a tie differently: a
    // stream admits equal arrivals as it yields them, `Engine::new` pops a
    // stably sorted stack and so admits the later of two first.
    let pins = [
        (
            EngineMode::SkipAhead,
            0x6357_a576_c9c0_ea20u64,
            0x88be_8e80_0370_2a5fu64,
        ),
        (
            EngineMode::NaiveSlice,
            0xffa3_9810_6aaa_f625,
            0x59be_24cd_62c5_4548,
        ),
    ];
    for (mode, materialized, streamed) in pins {
        let fabric = Fabric::uniform(3, 100.0);
        let got = sequence_hash(
            |c| Engine::new(fabric.clone(), out_of_order_trace(), c),
            events_only(mode),
            FairSharePolicy::default(),
        );
        assert_eq!(got, materialized);
        let got = sequence_hash(
            |c| Engine::from_arrivals(fabric, Box::new(out_of_order_trace().into_iter()), c),
            events_only(mode),
            FairSharePolicy::default(),
        );
        assert_eq!(got, streamed);
    }
}
