//! Cross-crate integration: workload generation → scheduling → simulation →
//! metrics, exercising every algorithm on shared traces and checking the
//! paper's headline orderings.

use std::sync::Arc;
use swallow_repro::prelude::*;

fn trace(seed: u64, num_coflows: usize, bandwidth: f64) -> Vec<Coflow> {
    CoflowGen::new(GenConfig {
        num_coflows,
        num_nodes: 12,
        interarrival: SizeDist::Exp { mean: 1.5 },
        width: SizeDist::Uniform { lo: 1.0, hi: 5.0 },
        flow_size: SizeDist::BoundedPareto {
            lo: 0.02 * bandwidth, // 20 ms worth of data
            hi: 60.0 * bandwidth, // one minute worth of data
            shape: 0.6,
        },
        sizing: Sizing::PerCoflow { skew: 0.3 },
        compressible_fraction: 1.0,
        deadline: None,
        seed,
    })
    .generate()
}

fn run(alg: Algorithm, coflows: &[Coflow], bandwidth: f64, compress: bool) -> SimResult {
    let mut config = SimConfig::default().with_slice(0.01);
    if compress {
        let c: Arc<dyn CompressionSpec> = Arc::new(ProfiledCompression::constant(Table2::Lz4));
        config = config.with_compression(c);
    }
    let mut policy = alg.make();
    Engine::new(Fabric::uniform(12, bandwidth), coflows.to_vec(), config).run(policy.as_mut())
}

#[test]
fn every_algorithm_drains_every_trace() {
    let bw = units::mbps(100.0);
    for seed in [1u64, 2, 3] {
        let coflows = trace(seed, 15, bw);
        for alg in Algorithm::ALL {
            let res = run(alg, &coflows, bw, true);
            assert!(res.all_complete(), "{} stalled on seed {seed}", alg.name());
            assert_eq!(res.coflows.len(), coflows.len());
            assert_eq!(
                res.flows.len(),
                coflows.iter().map(|c| c.num_flows()).sum::<usize>()
            );
        }
    }
}

#[test]
fn physics_lower_bounds_hold() {
    // No flow can beat size / min-port-capacity; no coflow can beat its
    // effective bottleneck. (With compression, the wire volume shrinks, so
    // check against wire bytes.)
    let bw = units::mbps(100.0);
    let coflows = trace(11, 12, bw);
    for alg in [Algorithm::Fvdf, Algorithm::Sebf, Algorithm::Srtf] {
        let res = run(alg, &coflows, bw, true);
        for f in &res.flows {
            let fct = f.fct().expect("complete");
            let lb = f.wire_bytes / bw;
            assert!(
                fct >= lb - 0.05,
                "{}: flow {} finished faster than its wire bytes allow ({fct} < {lb})",
                alg.name(),
                f.id
            );
        }
    }
}

#[test]
fn conservation_without_compression() {
    // Without compression, every byte of every flow crosses the wire.
    let bw = units::mbps(200.0);
    let coflows = trace(21, 10, bw);
    for alg in Algorithm::ALL {
        let res = run(alg, &coflows, bw, false);
        assert!(res.all_complete());
        assert!(
            (res.total_wire_bytes() - res.total_raw_bytes()).abs() < res.total_raw_bytes() * 1e-9,
            "{} lost or created bytes",
            alg.name()
        );
        assert!(res.traffic_reduction().abs() < 1e-9);
    }
}

#[test]
fn fvdf_compression_reduces_traffic_close_to_lz4_ratio() {
    let bw = units::mbps(100.0);
    let coflows = trace(31, 15, bw);
    let res = run(Algorithm::Fvdf, &coflows, bw, true);
    // LZ4's Table II ratio is 62.15%; reduction approaches 1 − 0.6215.
    let reduction = res.traffic_reduction();
    assert!(
        reduction > 0.25 && reduction < 0.39,
        "reduction {reduction}"
    );
}

#[test]
fn headline_orderings_hold() {
    let bw = units::mbps(100.0);
    let coflows = trace(41, 25, bw);
    let fvdf = run(Algorithm::Fvdf, &coflows, bw, true);
    let fvdf_nc = run(Algorithm::FvdfNoCompression, &coflows, bw, true);
    let sebf = run(Algorithm::Sebf, &coflows, bw, true);
    let fair = run(Algorithm::Pff, &coflows, bw, true);
    // Compression must help FVDF against its own no-compression ablation.
    assert!(fvdf.avg_cct() < fvdf_nc.avg_cct());
    // FVDF must beat SEBF and FAIR on average CCT (the paper's headline).
    assert!(fvdf.avg_cct() < sebf.avg_cct());
    assert!(fvdf.avg_cct() < fair.avg_cct());
    // Coflow-aware SEBF must beat coflow-oblivious fair sharing on CCT.
    assert!(sebf.avg_cct() <= fair.avg_cct() * 1.05);
}

#[test]
fn metrics_pipeline_consumes_results() {
    let bw = units::mbps(100.0);
    let coflows = trace(51, 10, bw);
    let res = run(Algorithm::Fvdf, &coflows, bw, true);
    let cdf = Cdf::new(res.fct_values());
    assert_eq!(cdf.len(), res.flows.len());
    assert!(cdf.quantile(1.0) >= cdf.quantile(0.5));
    let summary = swallow_repro::metrics::summarize(&res.cct_values());
    assert_eq!(summary.count, coflows.len());
    assert!(summary.max >= summary.median);
    let mut table = Table::new("demo", &["alg", "cct"]);
    table.row(&[res.policy.clone(), format!("{:.3}", res.avg_cct())]);
    assert!(table.to_string().contains("FVDF"));
}

#[test]
fn sim_result_serializes() {
    // The subject here is the serde wire format itself, which only exists
    // under a real serde toolchain.
    skip_if_stub!();
    let bw = units::mbps(100.0);
    let coflows = trace(61, 5, bw);
    let res = run(Algorithm::Sebf, &coflows, bw, false);
    let json = serde_json::to_string(&res).expect("serializes");
    let back: SimResult = serde_json::from_str(&json).expect("parses");
    assert_eq!(back.policy, res.policy);
    assert_eq!(back.flows.len(), res.flows.len());
    assert_eq!(back.avg_cct(), res.avg_cct());
}
