//! Property-based oracle coverage: random workloads over random fabrics
//! drive the online invariant checker and the three-path differential
//! replay. Whatever the trace, every policy must respect physics at every
//! slice boundary and produce bit-identical results on the naive loop, the
//! skip-ahead fast path and the faults-enabled path (a plan whose one crash
//! falls after the run has ended).

use proptest::prelude::*;
use std::sync::Arc;
use swallow_repro::fabric::engine::Reschedule;
use swallow_repro::prelude::*;

const NODES: usize = 6;

/// Strategy: a small random trace over the 6-node fabric, sized in seconds
/// at port capacity so runtimes stay bounded.
fn arb_trace() -> impl Strategy<Value = Vec<Coflow>> {
    proptest::collection::vec(
        (
            0.0f64..5.0, // arrival
            proptest::collection::vec(
                (0u32..6, 0u32..6, 0.01f64..2.0, any::<bool>()), // src,dst,secs,compressible
                1..4,
            ),
        ),
        1..6,
    )
    .prop_map(|coflows| {
        const BW: f64 = 1_000_000.0;
        let mut next_flow = 0u64;
        coflows
            .into_iter()
            .enumerate()
            .map(|(cid, (arrival, flows))| {
                let mut b = Coflow::builder(cid as u64).arrival(arrival);
                for (src, dst, secs, compressible) in flows {
                    let dst = if dst == src {
                        (dst + 1) % NODES as u32
                    } else {
                        dst
                    };
                    let mut spec = FlowSpec::new(next_flow, src, dst, secs * BW);
                    next_flow += 1;
                    if !compressible {
                        spec = spec.incompressible();
                    }
                    b = b.flow(spec);
                }
                b.build()
            })
            .collect()
    })
}

/// Strategy: a mildly heterogeneous fabric (uniform or per-port scaled).
fn arb_fabric() -> impl Strategy<Value = Fabric> {
    (0.5f64..2.0, any::<bool>()).prop_map(|(scale, uniform)| {
        const BW: f64 = 1_000_000.0;
        if uniform {
            Fabric::uniform(NODES, BW * scale)
        } else {
            // Alternate fast/slow ports, keeping everything connected.
            let caps: Vec<f64> = (0..NODES)
                .map(|i| if i % 2 == 0 { BW * scale } else { BW })
                .collect();
            Fabric::new(caps.clone(), caps)
        }
    })
}

fn base_config(compress: bool) -> SimConfig {
    let mut config = SimConfig::default()
        .with_slice(0.01)
        .with_reschedule(Reschedule::EventsOnly);
    if compress {
        let c: Arc<dyn CompressionSpec> = Arc::new(ProfiledCompression::constant(Table2::Lz4));
        config = config.with_compression(c);
    }
    config
}

const POLICIES: [Algorithm; 4] = [
    Algorithm::Fvdf,
    Algorithm::Srtf,
    Algorithm::Fifo,
    Algorithm::Pff,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The invariant checker stays silent on every policy over random
    /// traces and fabrics, with and without compression.
    #[test]
    fn invariants_hold_on_random_workloads(
        coflows in arb_trace(),
        fabric in arb_fabric(),
        compress in any::<bool>(),
    ) {
        for alg in POLICIES {
            let checker = Arc::new(InvariantChecker::new());
            let mut policy = alg.make();
            let res = Engine::new(
                fabric.clone(),
                coflows.clone(),
                base_config(compress).with_check(checker.clone()),
            )
            .run(policy.as_mut());
            prop_assert!(res.all_complete(), "{} stalled", alg.name());
            prop_assert!(checker.boundaries() > 0, "checker never ran");
            prop_assert!(
                checker.is_clean(),
                "{}: {:?}",
                alg.name(),
                checker.violations()
            );
        }
    }

    /// Naive loop, skip-ahead and faults-enabled paths agree bit-exactly
    /// on every random workload, for every policy.
    #[test]
    fn replay_paths_agree_on_random_workloads(
        coflows in arb_trace(),
        fabric in arb_fabric(),
        compress in any::<bool>(),
    ) {
        for alg in POLICIES {
            let outcome = differential_replay(
                &fabric,
                &coflows,
                &base_config(compress),
                Some(CheckConfig::default()),
                || alg.make(),
            );
            prop_assert!(outcome.result.all_complete(), "{} stalled", alg.name());
            prop_assert!(
                outcome.is_clean(),
                "{}: mismatches {:?}, legs {:?}",
                alg.name(),
                outcome.mismatches,
                outcome.legs
            );
        }
    }
}
