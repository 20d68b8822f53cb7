//! The engine keeps its flow table ascending in flow id. Every trace
//! generator hands out ids in arrival order, so the admission re-sort and a
//! retirement that compacts around survivors only run when a test asks for
//! them: here a later coflow carries *smaller* flow ids than a live one,
//! and one slice retires the first, a middle and the last table entry
//! together. A second trace retires the first entry, two adjacent middle
//! entries and the last entry of a nine-flow table in one slice, and checks
//! the hook sequence and every survivor's state behind the compaction.
//!
//! The second half is about the record list behind `SimResult::flows`: it
//! comes back in flow-id order however the ids arrived, at the cost of one
//! sort; a flow id used twice panics with `duplicate flow id N` — up front
//! for a materialised trace, at the admitting boundary or at the latest
//! when the result is assembled for a streamed one; and a horizon abort
//! keeps the partial accounting of the flows it cut off.

use std::sync::{Arc, Mutex};
use swallow_repro::fabric::engine::Reschedule;
use swallow_repro::fabric::policy::FairSharePolicy;
use swallow_repro::fabric::view::FabricView;
use swallow_repro::fabric::{
    Allocation, BoundaryObserver, BoundarySnapshot, CoflowId, FlowCommand, FlowId, VOLUME_EPS,
};
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

fn assert_bit_identical(fast: &SimResult, naive: &SimResult) {
    assert_eq!(fast.flows, naive.flows, "{}", naive.policy);
    assert_eq!(fast.coflows, naive.coflows, "{}", naive.policy);
    assert_eq!(fast.makespan.to_bits(), naive.makespan.to_bits());
    assert_eq!(fast.reschedules, naive.reschedules);
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
        assert_bit_identical(&fast, &naive);
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
    assert_bit_identical(&fast.0, &naive.0);
    assert_eq!(
        (fast.1, fast.2),
        (naive.1, naive.2),
        "hook sequences differ"
    );
}

// ---- The record list ----
//
// The engine appends one record per flow at admission, writes the outcome
// through the index the live flow carries, and hands the list back as
// `SimResult::flows` — sorted once at the end only if some id arrived at or
// below its predecessor.

/// Splitmix64: the tests' own generator, so a trace is the same whichever
/// `rand` the workspace links.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `0..n` in a seeded random order (Fisher–Yates).
fn permuted_ids(n: usize, seed: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..n as u64).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        ids.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    ids
}

/// Records are strictly ascending in flow id, one per flow of `trace`, each
/// carrying its flow's and its coflow's description and a completion time.
fn assert_records_describe(trace: &[Coflow], res: &SimResult) {
    assert!(
        res.flows.windows(2).all(|w| w[0].id < w[1].id),
        "records are not strictly ascending in flow id"
    );
    assert_eq!(
        res.flows.len(),
        trace.iter().map(|c| c.flows.len()).sum::<usize>()
    );
    for c in trace {
        for spec in &c.flows {
            let at = res
                .flows
                .binary_search_by_key(&spec.id, |r| r.id)
                .unwrap_or_else(|_| panic!("flow {} has no record", spec.id));
            let r = &res.flows[at];
            assert_eq!(
                (r.id, r.coflow, r.src, r.dst, r.size, r.arrival),
                (spec.id, c.id, spec.src, spec.dst, spec.size, c.arrival),
                "flow {}",
                spec.id
            );
            assert!(r.completed_at.is_some(), "flow {} never completed", spec.id);
        }
    }
}

/// Both modes over `trace` under each leg's policy: bit-identical, and the
/// records describe the trace.
fn check_records(trace: &[Coflow], ports: usize) {
    for n in 0..4 {
        let (mut policy, compression) = leg(n);
        let (naive, _) = run_trace(
            trace.to_vec(),
            ports,
            EngineMode::NaiveSlice,
            compression,
            policy.as_mut(),
        );
        let (mut policy, compression) = leg(n);
        let (fast, _) = run_trace(
            trace.to_vec(),
            ports,
            EngineMode::SkipAhead,
            compression,
            policy.as_mut(),
        );
        assert_bit_identical(&fast, &naive);
        assert_records_describe(trace, &naive);
    }
}

/// `Engine::new` keeps equal arrivals in input order and admits from the
/// back of that list: a burst's coflows come in last first, so the ids —
/// ascending along the input — reach the record list in descending runs.
#[test]
fn burst_admitted_in_reverse_returns_records_in_id_order() {
    let trace: Vec<Coflow> = (0..40u64)
        .map(|c| {
            let flows = (0..3u64).map(|i| {
                let id = 3 * c + i;
                let (src, dst) = ((id % 8) as u32, ((id * 3 + 1) % 8) as u32);
                FlowSpec::new(id, src, dst, 40.0 + (id * 37 % 160) as f64)
            });
            Coflow::builder(c).arrival(0.0).flows(flows).build()
        })
        .collect();
    check_records(&trace, 8);
}

/// Coflows 0.7 s apart with one to three flows of half a second to three
/// seconds each — a few overlap at any time — and flow ids that are a random
/// permutation, so ids arrive below live ones and below retired ones alike.
#[test]
fn permuted_ids_return_records_in_id_order() {
    let ids = permuted_ids(180, 0xF10);
    let mut state = 0x5EED;
    let mut next_id = ids.iter();
    let mut trace = Vec::new();
    for c in 0..60u64 {
        let width = 1 + splitmix(&mut state) % 3;
        let flows: Vec<FlowSpec> = next_id
            .by_ref()
            .take(width as usize)
            .map(|&id| {
                let src = (splitmix(&mut state) % 12) as u32;
                let dst = (src + 1 + (splitmix(&mut state) % 11) as u32) % 12;
                let size = 50.0 + (splitmix(&mut state) % 250) as f64;
                FlowSpec::new(id, src, dst, size)
            })
            .collect();
        trace.push(
            Coflow::builder(c)
                .arrival(0.7 * c as f64)
                .flows(flows)
                .build(),
        );
    }
    let first: Vec<u64> = trace[..3]
        .iter()
        .flat_map(|c| c.flows.iter().map(|f| f.id.0))
        .collect();
    assert!(
        first.windows(2).any(|w| w[0] > w[1]),
        "ids are not permuted: {first:?}"
    );
    check_records(&trace, 12);
}

/// 50 000 coflows a second apart, four equal flows each on ports of their
/// own: the fabric idles between them. With permuted ids the records are
/// sorted once at the end; anything done per out-of-order flow (a sorted
/// insert moves half the list each time) would take minutes, not 3×.
#[test]
fn permuted_ids_cost_one_sort_not_one_insert_each() {
    let idle_trace = |ids: Vec<u64>| -> Vec<Coflow> {
        ids.chunks(4)
            .enumerate()
            .map(|(c, ids)| {
                let flows = ids
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| FlowSpec::new(id, 2 * i as u32, 2 * i as u32 + 1, 30.0));
                Coflow::builder(c as u64)
                    .arrival(c as f64)
                    .flows(flows)
                    .build()
            })
            .collect()
    };
    let timed = |ids: Vec<u64>| {
        let config = SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly);
        let trace = idle_trace(ids);
        let started = std::time::Instant::now();
        let res = Engine::new(Fabric::uniform(8, 100.0), trace, config)
            .run(&mut FairSharePolicy::default());
        (started.elapsed(), res)
    };
    const FLOWS: usize = 200_000;
    let in_order = || (0..FLOWS as u64).collect();
    let shuffled = || permuted_ids(FLOWS, 0xF10);
    // Best of two runs a side, alternating, so a stall of the machine has to
    // hit both runs of one side to tilt the ratio.
    let runs = [
        timed(in_order()),
        timed(shuffled()),
        timed(in_order()),
        timed(shuffled()),
    ];
    let ascending_took = runs[0].0.min(runs[2].0);
    let permuted_took = runs[1].0.min(runs[3].0);
    let (ascending, permuted) = (&runs[0].1, &runs[1].1);
    for res in [ascending, permuted] {
        assert!(res.all_complete());
        assert_eq!(res.flows.len(), FLOWS);
        assert!(res.flows.windows(2).all(|w| w[0].id < w[1].id));
    }
    // Same fluid run either way: only the names of the flows differ.
    assert_eq!(ascending.coflows, permuted.coflows);
    assert!(
        permuted_took < 3 * ascending_took,
        "permuted ids took {permuted_took:?}, ascending ids {ascending_took:?}"
    );
}

/// Fair share that also logs which coflows the engine announced.
#[derive(Default)]
struct ArrivalLog {
    inner: FairSharePolicy,
    arrived: Arc<Mutex<Vec<u64>>>,
}

impl Policy for ArrivalLog {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        self.inner.allocate(view)
    }

    fn on_arrival(&mut self, coflow: &Coflow, _now: f64) {
        self.arrived.lock().unwrap().push(coflow.id.0);
    }
}

/// The message `run` panics with.
fn panic_message(run: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .expect_err("the trace holds one flow id twice");
    // A formatted `assert!` panics with a `String`.
    payload
        .downcast::<String>()
        .map_or_else(|_| String::new(), |message| *message)
}

fn one_flow_coflow(id: u64, arrival: f64, flow: u64, size: f64) -> Coflow {
    Coflow::builder(id)
        .arrival(arrival)
        .flow(FlowSpec::new(flow, 0, 1, size))
        .build()
}

#[test]
fn materialized_duplicates_panic_before_the_run() {
    let ids_of = |ids: &[u64]| -> Vec<Coflow> {
        ids.iter()
            .enumerate()
            .map(|(c, &id)| one_flow_coflow(c as u64, c as f64, id, 10.0))
            .collect()
    };
    // Ascending up to the twin, and shuffled (the walk fails on an innocent
    // pair first; the twins are not neighbours in the input).
    for (ids, twin) in [(&[0, 1, 4, 4, 6][..], 4), (&[5, 2, 9, 0, 2, 7][..], 2)] {
        let message = panic_message(|| {
            Engine::new(Fabric::uniform(2, 100.0), ids_of(ids), SimConfig::default());
        });
        assert_eq!(message, format!("duplicate flow id f{twin}"));
    }
    // Shuffled and distinct is a valid trace.
    Engine::new(
        Fabric::uniform(2, 100.0),
        ids_of(&[5, 2, 9, 0, 7]),
        SimConfig::default(),
    );
}

#[test]
fn streamed_duplicates_panic_at_admission_or_at_assembly() {
    // Coflow 0 holds the ports for 9 or 10 s (0.1 s in the case where it
    // must have retired); coflow 1 brings a second flow 7 at t = 5; coflow 2
    // follows at t = 20.
    let stream = |first: Vec<u64>, first_size: f64, twin_size: f64| {
        let flows = first
            .into_iter()
            .map(move |id| FlowSpec::new(id, 0, 1, first_size));
        vec![
            Coflow::builder(0).arrival(0.0).flows(flows).build(),
            one_flow_coflow(1, 5.0, 7, twin_size),
            one_flow_coflow(2, 20.0, 100, 10.0),
        ]
    };
    let cases = [
        // (coflow 0's ids, its flow size, the twin's size, caught at admission)
        (vec![7], 1000.0, 10.0, true), // equal to the table's last id
        (vec![3, 7, 9], 300.0, 10.0, true), // below it
        (vec![7], 10.0, 10.0, false),  // the first flow 7 has retired
        (vec![7], 1000.0, 0.0, false), // an empty twin never enters the table
    ];
    for (first, first_size, twin_size, at_admission) in cases {
        for mode in [EngineMode::NaiveSlice, EngineMode::SkipAhead] {
            let mut policy = ArrivalLog::default();
            let arrived = policy.arrived.clone();
            let trace = stream(first.clone(), first_size, twin_size);
            let message = panic_message(|| {
                let config = SimConfig::default()
                    .with_slice(0.01)
                    .with_reschedule(Reschedule::EventsOnly)
                    .with_mode(mode);
                let arrivals = Box::new(trace.into_iter());
                Engine::from_arrivals(Fabric::uniform(2, 100.0), arrivals, config).run(&mut policy);
            });
            assert_eq!(message, "duplicate flow id f7", "{first:?} ({mode:?})");
            // A live flow's twin stops the run at the boundary that admits
            // it; any other is found when the records are put in order.
            let want: &[u64] = if at_admission { &[0, 1] } else { &[0, 1, 2] };
            assert_eq!(*arrived.lock().unwrap(), want, "{first:?} ({mode:?})");
        }
    }
}

/// Compress while raw bytes remain, then send at the port's capacity.
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

/// The run is cut at the end of slice 500 (t = 5.01 s): flows still in the
/// table keep what they had compressed and sent by then, through the same
/// index a completion writes through.
#[test]
fn horizon_abort_keeps_partial_accounting_of_live_flows() {
    let trace = vec![Coflow::builder(0)
        .flows([
            // Compresses 300 B/s for 10 s: still at it.
            FlowSpec::new(9, 0, 1, 3000.0),
            // Sends 100 B/s for 20 s: still at it.
            FlowSpec::new(4, 2, 3, 2000.0).incompressible(),
            // 600 B → 240 B after 2 s, on the wire for 2.4 s more: done.
            FlowSpec::new(6, 4, 5, 600.0),
        ])
        .build()];
    let run = |mode| {
        let config = SimConfig {
            max_time: 5.0,
            ..SimConfig::default()
                .with_slice(0.01)
                .with_reschedule(Reschedule::EventsOnly)
                .with_mode(mode)
                .with_compression(Arc::new(ConstCompression::new("test", 300.0, 0.4)))
        };
        Engine::new(Fabric::uniform(6, 100.0), trace.clone(), config).run(&mut CompressThenSend)
    };
    let naive = run(EngineMode::NaiveSlice);
    let fast = run(EngineMode::SkipAhead);
    assert_bit_identical(&fast, &naive);
    let [sending, done, compressing] = &naive.flows[..] else {
        panic!("three records expected: {:?}", naive.flows);
    };
    assert_eq!((sending.id.0, done.id.0, compressing.id.0), (4, 6, 9));
    assert_eq!(compressing.completed_at, None);
    assert!((compressing.compressed_input - 1503.0).abs() < 1e-6);
    assert_eq!(compressing.wire_bytes, 0.0);
    assert_eq!(sending.completed_at, None);
    assert!((sending.wire_bytes - 501.0).abs() < 1e-6);
    assert_eq!(sending.compressed_input, 0.0);
    assert!((done.completed_at.unwrap() - 4.4).abs() < 1e-6);
    assert!((done.wire_bytes - 240.0).abs() < 1e-6);
    assert_eq!(done.compressed_input, 600.0);
    assert_eq!(naive.coflows[0].completed_at, None);
}
