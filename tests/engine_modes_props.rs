//! Engine-mode equivalence: seeded random workloads run through the two
//! time-advance configurations — the naive slice loop and skip-ahead —
//! under four scheduling policies. Both must produce bit-identical
//! [`SimResult`]s: skip-ahead only declines to visit quiescent boundaries
//! of the same closed-form segment arithmetic, so any drift is a bug, not
//! noise.
//!
//! The fixed-seed `#[test]` cases carry the real coverage; the `proptest!`
//! block widens the seed space when the full dependency set is available.

use proptest::prelude::*;
use std::sync::Arc;
use swallow_repro::fabric::engine::Reschedule;
use swallow_repro::prelude::*;
use swallow_repro::sched::AaloPolicy;
use swallow_repro::workload::gen::scale;

/// Fresh policy instances per run (policies are stateful across `allocate`).
fn policies() -> Vec<(&'static str, Box<dyn Policy>)> {
    vec![
        ("fvdf", Box::new(FvdfPolicy::new())),
        ("sebf", Box::new(OrderedPolicy::sebf())),
        ("aalo", Box::new(AaloPolicy::new(10.0 * units::MB))),
        ("pff", Box::new(PffPolicy::default())),
    ]
}

/// Run one generated workload through both engine configurations under
/// each policy and assert that skip-ahead is bit-identical to the naive
/// loop. Returns the naive FVDF result so a caller can check the regime.
fn check_modes(cfg: &GenConfig) -> SimResult {
    let seed = cfg.seed;
    let coflows = CoflowGen::new(cfg.clone()).generate();
    let fabric = Fabric::uniform(cfg.num_nodes, units::gbps(1.0));
    let comp: Arc<dyn CompressionSpec> =
        Arc::new(ConstCompression::new("lz4-like", 400.0 * units::MB, 0.48));

    let mut fvdf = None;
    for (pname, _) in policies() {
        let base = SimConfig::default()
            .with_slice(0.001)
            .with_reschedule(Reschedule::EventsOnly)
            .with_compression(comp.clone());
        let run = |config: SimConfig| {
            let (_, mut policy) = policies()
                .into_iter()
                .find(|(n, _)| *n == pname)
                .expect("policy name");
            Engine::new(fabric.clone(), coflows.clone(), config).run(policy.as_mut())
        };

        let reference = run(base.clone().with_mode(EngineMode::NaiveSlice));
        let got = run(base.with_mode(EngineMode::SkipAhead));
        assert!(reference.all_complete(), "{pname}: stalled (seed {seed})");
        assert_eq!(
            got.makespan.to_bits(),
            reference.makespan.to_bits(),
            "{pname}: makespan drifted (seed {seed})"
        );
        assert_eq!(
            got.flows, reference.flows,
            "{pname}: flow records drifted (seed {seed})"
        );
        assert_eq!(
            got.coflows, reference.coflows,
            "{pname}: coflow records drifted (seed {seed})"
        );
        assert_eq!(
            got.reschedules, reference.reschedules,
            "{pname}: reschedule count drifted (seed {seed})"
        );
        if pname == "fvdf" {
            fvdf = Some(reference);
        }
    }
    fvdf.expect("fvdf is in the panel")
}

/// The idle regime: `gen::scale` keeps about one coflow active, so skip
/// targets are dominated by the next arrival.
fn check_scale(seed: u64, n_coflows: usize, n_ports: usize) {
    check_modes(&GenConfig {
        seed,
        ..scale(n_coflows, n_ports)
    });
}

#[test]
fn modes_agree_small_cluster() {
    check_scale(7, 40, 8);
}

#[test]
fn modes_agree_mid_cluster() {
    check_scale(42, 60, 16);
}

#[test]
fn modes_agree_dense_on_few_ports() {
    check_scale(379_422, 80, 6);
}

#[test]
fn modes_agree_sparse_on_many_ports() {
    check_scale(271_828, 30, 24);
}

/// The loaded regime, shaped like the benchmark's `fabric-loaded` at smoke
/// size: coflows of 12.5–60 MB arrive as one burst at about twenty times
/// what ten 1 Gbps ports drain, so skip targets are dominated by flow
/// completions and raw exhaustions of a deep backlog, not by arrivals.
#[test]
fn modes_agree_under_contention() {
    let (n_ports, offered) = (10usize, 20.0);
    let (lo, hi) = (12.5 * units::MB, 60.0 * units::MB);
    let gap = 0.5 * (lo + hi) / (offered * n_ports as f64 * units::gbps(1.0));
    let res = check_modes(&GenConfig {
        num_coflows: 80,
        num_nodes: n_ports,
        interarrival: SizeDist::Exp { mean: gap },
        width: SizeDist::Uniform { lo: 2.0, hi: 6.0 },
        flow_size: SizeDist::Uniform { lo, hi },
        sizing: Sizing::PerCoflow { skew: 0.3 },
        compressible_fraction: 0.9,
        deadline: None,
        seed: 0x10AD,
    });
    // Guard the regime from the result records: the deepest overlap of
    // [arrival, completion) intervals. At the idle tiers this is 1–3.
    let mut edges: Vec<(f64, i32)> = res
        .coflows
        .iter()
        .flat_map(|c| [(c.arrival, 1), (c.completed_at.expect("complete"), -1)])
        .collect();
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut open, mut peak) = (0, 0);
    for (_, step) in edges {
        open += step;
        peak = peak.max(open);
    }
    assert!(peak >= 20, "only {peak} coflows ever overlapped");
}

/// Every flow done, and every record, the makespan and the reschedule count
/// equal between a skip-ahead and a naive run of one trace.
fn assert_complete_and_identical(fast: &SimResult, naive: &SimResult) {
    assert!(naive.all_complete());
    assert_eq!(fast.flows, naive.flows);
    assert_eq!(fast.coflows, naive.coflows);
    assert_eq!(fast.makespan.to_bits(), naive.makespan.to_bits());
    assert_eq!(fast.reschedules, naive.reschedules);
}

/// What skip-ahead visits under contention is pinned, not only what it
/// computes: the engine remembers where a jump aimed and skips the target
/// scan on landing, which must not move a single visited boundary. The
/// trace has [`modes_agree_under_contention`]'s shape (80 coflows of 2–6
/// flows and 12.5–60 MB bursting onto ten 1 Gbps ports, nine in ten
/// compressible) but is drawn from the test's own generator: `CoflowGen`
/// output depends on which `rand` is linked, pinned numbers must not. The
/// pins were recorded on the commit before the memo existed.
#[test]
fn jumps_under_contention_are_the_ones_pinned() {
    let mut state = 0x10ADu64;
    let mut draw = move || {
        // splitmix64, mapped to [0, 1)
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let (mut arrival, mut next_flow) = (0.0, 0u64);
    let mut coflows = Vec::new();
    for c in 0..80u64 {
        arrival += draw() * 0.003;
        let width = 2 + (draw() * 5.0) as u64;
        let coflow_bytes = (12.5 + draw() * 47.5) * units::MB;
        let flows: Vec<FlowSpec> = (0..width)
            .map(|_| {
                let src = (draw() * 10.0) as u32;
                let dst = (src + 1 + (draw() * 9.0) as u32) % 10;
                let size = coflow_bytes / width as f64 * (0.7 + 0.6 * draw());
                let spec = FlowSpec::new(next_flow, src, dst, size);
                next_flow += 1;
                if draw() < 0.9 {
                    spec
                } else {
                    spec.incompressible()
                }
            })
            .collect();
        coflows.push(Coflow::builder(c).arrival(arrival).flows(flows).build());
    }

    let sink = Arc::new(swallow_repro::trace::CollectSink::new());
    let tracer = Tracer::with_sink(sink.clone());
    let config = SimConfig::default()
        .with_slice(0.001)
        .with_reschedule(Reschedule::EventsOnly)
        .with_compression(Arc::new(ConstCompression::new(
            "lz4-like",
            400.0 * units::MB,
            0.48,
        )));
    let fabric = Fabric::uniform(10, units::gbps(1.0));
    let naive = Engine::new(
        fabric.clone(),
        coflows.clone(),
        config.clone().with_mode(EngineMode::NaiveSlice),
    )
    .run(&mut FvdfPolicy::new());
    let fast = Engine::new(fabric, coflows, config.with_tracer(tracer.clone()))
        .run(&mut FvdfPolicy::new());
    assert_complete_and_identical(&fast, &naive);

    // FNV-1a over the `(from_slice, to_slice)` sequence.
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for record in sink.snapshot() {
        if let TraceEvent::SkipAhead {
            from_slice,
            to_slice,
        } = record.event
        {
            for word in [from_slice, to_slice] {
                for byte in word.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
    }
    let summary = tracer.summary().expect("tracer is enabled");
    assert_eq!(
        (
            naive.reschedules,
            summary.skip_jumps,
            summary.slices_skipped,
            summary.slices_processed,
            hash,
        ),
        (410, 244, 1474, 393, 0x4B1ECEFECA03FBD6)
    );
}

/// The idle regime at the benchmark's shape — `gen::scale` at its own pinned
/// seed, FVDF + LZ4, δ = 1 ms — and at a size where a skip-ahead that
/// stopped skipping would show: over four million busy boundaries, of which
/// the fast path may visit one in a hundred (it visits 0.86 %). Both modes
/// to the bit, and the skipped share from the tracer's slice counters: a
/// count, not a time.
#[test]
fn skip_ahead_skips_99_percent_of_the_10k_tier_and_agrees_to_the_bit() {
    let cfg = scale(10_000, 1_000);
    let coflows = CoflowGen::new(cfg.clone()).generate();
    let fabric = Fabric::uniform(cfg.num_nodes, units::gbps(1.0));
    let config = SimConfig::default()
        .with_slice(0.001)
        .with_reschedule(Reschedule::EventsOnly)
        .with_compression(Arc::new(ProfiledCompression::constant(Table2::Lz4)));
    let tracer = Tracer::new(swallow_repro::trace::RingSink::new(64));
    let naive = Engine::new(
        fabric.clone(),
        coflows.clone(),
        config.clone().with_mode(EngineMode::NaiveSlice),
    )
    .run(&mut FvdfPolicy::new());
    let fast = Engine::new(fabric, coflows, config.with_tracer(tracer.clone()))
        .run(&mut FvdfPolicy::new());
    assert_complete_and_identical(&fast, &naive);

    let summary = tracer.summary().expect("tracer is enabled");
    let (skipped, visited) = (summary.slices_skipped, summary.slices_processed);
    assert!(
        skipped as f64 >= 0.99 * (skipped + visited) as f64,
        "skip-ahead skipped {skipped} boundaries and visited {visited}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized seeds over a small cluster; delegates to the same check
    /// the fixed-seed cases use.
    #[test]
    fn modes_agree_on_random_seeds(seed in 0u64..1_000_000) {
        check_scale(seed, 30, 8);
    }
}
