//! Golden paper-figure regression at test scale: replay the `small` oracle
//! workload (the same trace `paper oracle small --seed 7` uses) per policy
//! and hold the normalized average CCTs to the committed golden in
//! `tests/golden/oracle_small_seed7.json`.
//!
//! FVDF is pinned at exactly 1.0 — it is the normalization denominator, so
//! any deviation means the harness itself broke. Baselines carry sanity
//! bands; tighten them into pinned values with
//! `cargo run --release -p swallow-bench --bin paper -- oracle small --refresh-golden`
//! after a deliberate behavior change (see tests/README.md).

use std::collections::BTreeMap;
use std::sync::Arc;

use swallow_repro::fabric::engine::Reschedule;
use swallow_repro::oracle::GoldenFigure;
use swallow_repro::prelude::*;
use swallow_repro::workload::gen::fig1_size_dist_scaled;

/// The `small` oracle trace: the fig6 shape at 12 coflows, seed 7 —
/// parameter-for-parameter the trace `swallow-bench::scenario::fig6_trace`
/// builds for `paper oracle small --seed 7`.
fn small_trace(bw: f64) -> Vec<Coflow> {
    CoflowGen::new(GenConfig {
        num_coflows: 12,
        num_nodes: 24,
        interarrival: SizeDist::Exp { mean: 1.0 },
        width: SizeDist::Constant(4.0),
        flow_size: fig1_size_dist_scaled((100.0 * bw) / 10e9),
        sizing: Sizing::PerCoflow { skew: 0.3 },
        compressible_fraction: 1.0,
        deadline: None,
        seed: 7,
    })
    .generate()
}

#[test]
fn small_figure_matches_committed_golden() {
    // The committed golden is a JSON document; parsing it needs a real
    // serde toolchain.
    skip_if_stub!();
    let golden = GoldenFigure::from_json(include_str!("golden/oracle_small_seed7.json"))
        .expect("committed golden parses");
    assert_eq!(golden.experiment, "small");
    assert_eq!(golden.seed, 7);

    let bw = units::mbps(400.0);
    let coflows = small_trace(bw);
    let fabric = Fabric::uniform(24, bw);
    let compression: Arc<dyn CompressionSpec> =
        Arc::new(ProfiledCompression::constant(Table2::Lz4));

    let mut avg_ccts = Vec::new();
    for alg in [
        Algorithm::Fvdf,
        Algorithm::Srtf,
        Algorithm::Fifo,
        Algorithm::Pff,
    ] {
        let mut policy = alg.make();
        let res = Engine::new(
            fabric.clone(),
            coflows.clone(),
            SimConfig::default()
                .with_slice(0.01)
                .with_reschedule(Reschedule::EventsOnly)
                .with_compression(compression.clone())
                .with_cpu(CpuModel::unconstrained(24, 1024)),
        )
        .run(policy.as_mut());
        assert!(res.all_complete(), "{} stalled", alg.name());
        avg_ccts.push((format!("{alg:?}").to_lowercase(), res.avg_cct()));
    }

    let fvdf = avg_ccts[0].1;
    assert!(fvdf > 0.0);
    let measured: BTreeMap<String, f64> =
        avg_ccts.into_iter().map(|(k, v)| (k, v / fvdf)).collect();

    let report = golden.compare(&measured);
    assert!(
        report.ok,
        "golden drift — measured {measured:?}, diffs {:?}",
        report.diffs
    );
}
