//! Counting-allocator proof that the steady-state slice loop allocates
//! nothing: replaying a static trace with a 10× finer slice executes ~10×
//! as many slice iterations but must perform *exactly* the same number of
//! heap allocations, because per-slice work reuses the engine's scratch
//! buffers and only events (completions, reschedules) touch the heap.
//!
//! The same equality pins the zero-cost-when-disabled guarantee of the
//! engine's two ways out. What the disabled path still branches on, per
//! visited boundary: one `Option` test for the telemetry stride decision,
//! one for each phase-timer site of a reschedule, and one at the boundary
//! hook (`observe_boundary` returns before building a snapshot when there
//! is neither a checker nor a sampled boundary); per event, one
//! `Tracer::emit` branch whose constructor closure never runs. No
//! `Instant::now()`, no snapshot, no scratch growth — a single allocation
//! (or syscall-driven buffer) per boundary would break the coarse-vs-fine
//! equality below.
//!
//! The second half of the test pins the policies' own scratch reuse: once
//! warm, one `allocate` of FVDF or SEBF performs exactly one heap allocation
//! — the `Allocation` it returns — whether the view's coflows are already
//! grouped or interleave (the grouping's sort path).
//!
//! The third part pins retirement: on a trace whose three flows drain 2 ms
//! apart, the 10 ms run retires them in one slice and the 1 ms run in three.
//! The only allocations the two extra retiring slices may cost are the ones
//! their reschedules make — one `Allocation` each — so compacting the flow
//! table and walking the completion list allocate nothing.
//!
//! The fourth part pins the engine's per-flow bookkeeping: on an idle trace
//! of 8 000 coflows, what `Engine::new` and `run` allocate beyond the one
//! `Allocation` per reschedule stays under 128 in all — the record list is
//! one `Vec` sized from the trace, not a map node every few flows, and the
//! default CPU model is one trace, not one per port.
//!
//! The last part pins FVDF's hooks: with its per-coflow table warm, an
//! `on_arrival` / `on_completion` pair — an entry appended or inserted, an
//! entry removed, two upgrades counted — allocates nothing.
//!
//! This file is its own integration-test binary so the `#[global_allocator]`
//! hook cannot interfere with any other test. The counter is per thread:
//! every measured region runs on the test's own thread, and what libtest's
//! main thread allocates while it waits is counted somewhere the test never
//! reads. A process-wide counter saw that as four extra allocations in a
//! region, between one run in a hundred and one in five depending on the
//! host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swallow_repro::fabric::engine::Reschedule;
use swallow_repro::fabric::view::{FabricView, FlowView};
use swallow_repro::fabric::{CoflowId, FlowId, NodeId};
use swallow_repro::prelude::*;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor can find it torn down.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations this thread has made so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bump() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller upholds; the counter touches
// no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce() -> SimResult) -> (u64, SimResult) {
    let before = allocations();
    let res = f();
    (allocations() - before, res)
}

/// A static single-arrival coflow on disjoint port pairs whose flow sizes
/// put the three completions 80 ms apart — far more than either slice
/// length, so both runs see the same event sequence and the same number of
/// reschedules; only the number of quiescent slices in between differs.
fn static_trace() -> Vec<Coflow> {
    vec![Coflow::builder(0)
        .arrival(0.0)
        .flows([
            FlowSpec::new(0, 0, 3, 1.0e6),
            FlowSpec::new(1, 1, 4, 2.0e6),
            FlowSpec::new(2, 2, 5, 3.0e6),
        ])
        .build()]
}

/// [`static_trace`] with the completions 2 ms apart (80.24, 82.24 and
/// 84.24 ms): one retiring slice at δ = 10 ms, three at δ = 1 ms.
fn bunched_trace() -> Vec<Coflow> {
    let mut trace = static_trace();
    for (flow, size) in trace[0].flows.iter_mut().zip([1.003e6, 1.028e6, 1.053e6]) {
        flow.size = size;
    }
    trace
}

fn replay(slice: f64) -> SimResult {
    replay_trace(static_trace(), slice)
}

fn replay_trace(trace: Vec<Coflow>, slice: f64) -> SimResult {
    let mut policy = Algorithm::Sebf.make();
    Engine::new(
        Fabric::uniform(6, units::mbps(100.0)),
        trace,
        SimConfig::default()
            .with_slice(slice)
            .with_reschedule(Reschedule::EventsOnly)
            .with_mode(EngineMode::NaiveSlice)
            // An explicitly disabled tracer must stay zero-cost: every
            // emission site reduces to one branch and the event-constructor
            // closures never run, so the allocation counts below are
            // unchanged from a tracer-free build. The checker and telemetry
            // are likewise disabled here by default (`check: None`,
            // `telemetry: None`): the boundary hook and the phase-profiler
            // sites share the same guarantee and the same proof.
            .with_tracer(Tracer::disabled()),
    )
    .run(policy.as_mut())
}

/// 48 flows over 12 coflows on 8 ports; `interleaved` deals flow ids round
/// robin across coflows, otherwise coflow by coflow.
fn contended_flows(interleaved: bool) -> Vec<FlowView> {
    (0..48u64)
        .map(|i| {
            let coflow = if interleaved { i % 12 } else { i / 4 };
            FlowView {
                id: FlowId(i),
                coflow: CoflowId(coflow),
                src: NodeId((i % 8) as u32),
                dst: NodeId(((i * 3 + 1) % 8) as u32),
                original_size: (1 + i % 7) as f64 * units::MB,
                raw: (1 + i % 7) as f64 * units::MB,
                compressed: 0.0,
                arrival: coflow as f64,
                compressible: i % 5 != 0,
            }
        })
        .collect()
}

/// Heap allocations of `calls` warm `allocate` calls on one view.
fn allocations_of_warm_allocate(alg: Algorithm, interleaved: bool, calls: u64) -> u64 {
    let fabric = Fabric::uniform(8, units::mbps(100.0));
    let cpu = CpuModel::unconstrained(8, 2);
    let comp = ProfiledCompression::constant(Table2::Lz4);
    let view = FabricView {
        now: 0.0,
        slice: 0.01,
        fabric: &fabric,
        cpu: &cpu,
        compression: &comp,
        flows: contended_flows(interleaved),
    };
    let mut policy = alg.make();
    // Grow every scratch buffer to this view's size.
    for _ in 0..2 {
        assert!(!policy.allocate(&view).is_empty());
    }
    let before = allocations();
    for _ in 0..calls {
        std::hint::black_box(policy.allocate(std::hint::black_box(&view)));
    }
    allocations() - before
}

/// Heap allocations of `pairs` `on_arrival` / `on_completion` pairs on an
/// FVDF whose table already holds twelve coflows; the coflow that comes and
/// goes sorts before all of them when `below`, after them otherwise.
fn allocations_of_warm_hooks(alg: Algorithm, below: bool, pairs: u64) -> u64 {
    let mut policy = alg.make();
    let coflow = |id: u64| Coflow::builder(id).arrival(id as f64).build();
    for id in 10..22 {
        policy.on_arrival(&coflow(id), id as f64);
    }
    let guest = coflow(if below { 3 } else { 30 });
    // Grow the table to the size the pairs below reach.
    policy.on_arrival(&guest, 30.0);
    policy.on_completion(guest.id, 30.0);
    let before = allocations();
    for _ in 0..pairs {
        policy.on_arrival(std::hint::black_box(&guest), 31.0);
        policy.on_completion(std::hint::black_box(guest.id), 32.0);
    }
    allocations() - before
}

/// Replay an idle trace the way the benchmark's `fabric-idle` does (8 000
/// `gen::scale` coflows on 500 ports, FVDF + LZ4, events-only, skip-ahead)
/// and return the heap allocations of `Engine::new` + `run` beyond the one
/// `Allocation` each reschedule returns, with the number of coflows. The
/// record list is sized from the trace, so per-flow bookkeeping adds none.
fn idle_replay_allocations_beyond_reschedules() -> (f64, f64) {
    let trace = CoflowGen::new(GenConfig {
        seed: 1,
        ..swallow_repro::workload::gen::scale(8_000, 500)
    })
    .generate();
    let coflows = trace.len() as f64;
    let mut policy = Algorithm::Fvdf.make();
    let config = SimConfig::default()
        .with_slice(0.001)
        .with_reschedule(Reschedule::EventsOnly)
        .with_compression(std::sync::Arc::new(ProfiledCompression::constant(
            Table2::Lz4,
        )));
    let (allocs, res) = allocations_during(|| {
        Engine::new(Fabric::uniform(500, units::gbps(1.0)), trace, config).run(policy.as_mut())
    });
    assert!(res.all_complete());
    (allocs as f64 - res.reschedules as f64, coflows)
}

#[test]
fn steady_state_slice_loop_does_not_allocate() {
    // Warm-up: fault in lazily-initialized runtime structures (thread-local
    // formatting buffers etc.) so they don't skew the first measurement.
    let _ = replay(0.01);

    let (coarse_allocs, coarse) = allocations_during(|| replay(0.01));
    let (fine_allocs, fine) = allocations_during(|| replay(0.001));

    assert!(coarse.all_complete() && fine.all_complete());
    // Same events at both granularities: one initial schedule plus one
    // reschedule per completion.
    assert_eq!(coarse.reschedules, fine.reschedules);
    assert_eq!(coarse.flows.len(), fine.flows.len());

    // The fine run executes ~10× the slice iterations. If the steady-state
    // loop allocated even once per slice, it would show hundreds of extra
    // allocations here; equality proves the loop body is allocation-free.
    assert_eq!(
        coarse_allocs, fine_allocs,
        "slice loop allocated: {coarse_allocs} allocs at δ=10 ms vs {fine_allocs} at δ=1 ms"
    );

    // Retirement: the fine run spreads the three completions over three
    // slices and pays one reschedule — one `Allocation` — for each of the
    // two the coarse run does not have; the retiring slices themselves
    // allocate nothing.
    let (coarse_allocs, coarse) = allocations_during(|| replay_trace(bunched_trace(), 0.01));
    let (fine_allocs, fine) = allocations_during(|| replay_trace(bunched_trace(), 0.001));
    assert!(coarse.all_complete() && fine.all_complete());
    assert_eq!((coarse.reschedules, fine.reschedules), (1, 3));
    assert_eq!(
        fine_allocs - coarse_allocs,
        2,
        "retiring slices allocated: {coarse_allocs} allocs at δ=10 ms vs {fine_allocs} at δ=1 ms"
    );

    // One allocation per warm `allocate`: the returned `Allocation`.
    for alg in [Algorithm::Fvdf, Algorithm::Sebf] {
        for interleaved in [false, true] {
            assert_eq!(
                allocations_of_warm_allocate(alg, interleaved, 16),
                16,
                "{} allocates beyond the returned Allocation (interleaved ids: {interleaved})",
                alg.name()
            );
        }
    }

    // The record list allocates nothing per flow, the CPU model nothing per
    // port.
    let (beyond, coflows) = idle_replay_allocations_beyond_reschedules();
    assert!(
        beyond < 128.0,
        "{beyond} allocations beyond one per reschedule over {coflows} coflows"
    );

    // A warm arrival / completion pair allocates nothing.
    for alg in [Algorithm::Fvdf, Algorithm::FvdfDeadline] {
        for below in [false, true] {
            assert_eq!(
                allocations_of_warm_hooks(alg, below, 16),
                0,
                "{}'s hooks allocate (id below the table's: {below})",
                alg.name()
            );
        }
    }
}
