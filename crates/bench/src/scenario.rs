//! Shared workload scenarios for the experiment harness.
//!
//! The paper replays Spark shuffle traces we do not have; we generate
//! synthetic ones whose flow-size distribution matches Fig. 1. Sizes are
//! *scaled to the bandwidth under test* so the largest flows take O(100 s)
//! of simulated time — improvement factors between algorithms are scale-free,
//! so this keeps every harness run inside laptop budgets without changing
//! who wins.

use std::sync::Arc;
use swallow_fabric::view::CompressionSpec;
use swallow_fabric::{units, Coflow, Engine, Fabric, SimConfig, SimResult};
use swallow_sched::Algorithm;
use swallow_workload::gen::{fig1_size_dist_scaled, CoflowGen, GenConfig, Sizing};
use swallow_workload::{SizeDist, Trace};

/// Workload scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StdScale {
    /// Quick smoke runs (~seconds).
    Small,
    /// Default harness runs.
    Medium,
    /// Heavier sweeps.
    Large,
}

impl StdScale {
    /// `(num_coflows, num_nodes)` for the preset.
    pub fn dims(self) -> (usize, usize) {
        match self {
            StdScale::Small => (20, 12),
            StdScale::Medium => (60, 24),
            StdScale::Large => (150, 40),
        }
    }
}

/// The default fabric for a scale at the given port bandwidth.
pub fn std_fabric(scale: StdScale, bandwidth: f64) -> Fabric {
    let (_, nodes) = scale.dims();
    Fabric::uniform(nodes, bandwidth)
}

/// The Fig. 1 size distribution rescaled so the *body* of the distribution
/// (10 MB–10 GB in the paper) transfers in 0.1–100 s at `bandwidth`:
/// improvement factors between algorithms are scale-free, so this keeps
/// harness runtimes bounded without changing who wins.
pub fn scaled_fig1(bandwidth: f64) -> SizeDist {
    fig1_size_dist_scaled((100.0 * bandwidth) / 10e9)
}

/// The default compression spec: LZ4 with its constant Table II parameters
/// (785 MB/s, ξ = 62.15%) — Swallow's default codec. The size-dependent
/// Table III curve is available via [`codec_spec`] and drives Fig. 6(f).
pub fn lz4() -> Arc<dyn CompressionSpec> {
    Arc::new(swallow_sched::ProfiledCompression::constant(
        swallow_compress::Table2::Lz4,
    ))
}

/// A compression spec for any Table II codec: its measured speed with the
/// Table III ratio *shape* rescaled to the codec's asymptotic ratio.
pub fn codec_spec(codec: swallow_compress::Table2) -> Arc<dyn CompressionSpec> {
    Arc::new(swallow_sched::ProfiledCompression::size_dependent(codec))
}

/// A Fig. 1-shaped trace sized so the simulation horizon is O(100–1000 s)
/// at `bandwidth` bytes/s.
pub fn std_trace(scale: StdScale, bandwidth: f64, seed: u64) -> Vec<Coflow> {
    let (coflows, nodes) = scale.dims();
    let cfg = GenConfig {
        num_coflows: coflows,
        num_nodes: nodes,
        interarrival: SizeDist::Exp { mean: 2.0 },
        width: SizeDist::Uniform { lo: 1.0, hi: 8.0 },
        flow_size: scaled_fig1(bandwidth),
        sizing: Sizing::PerCoflow { skew: 0.3 },
        compressible_fraction: 1.0,
        deadline: None,
        seed,
    };
    CoflowGen::new(cfg).generate()
}

/// A deadline-annotated [`std_trace`]: identical ids, arrivals and flows
/// (the deadline draw happens after all other draws), with each coflow's
/// absolute deadline set to `arrival + isolation(bandwidth) × slack`, slack
/// uniform in `[slack_lo, slack_hi)`. Slack below 1 produces coflows the
/// admission controller must reject. `interarrival_mean` sets the offered
/// load: the `std_trace` default of 2.0 super-saturates the fabric (good
/// for stressing ordering policies), while larger means keep the active
/// set small enough that admitted deadlines are actually met.
pub fn deadline_trace(
    num_coflows: usize,
    num_nodes: usize,
    bandwidth: f64,
    seed: u64,
    slack_lo: f64,
    slack_hi: f64,
    interarrival_mean: f64,
) -> Vec<Coflow> {
    let cfg = GenConfig {
        num_coflows,
        num_nodes,
        interarrival: SizeDist::Exp {
            mean: interarrival_mean,
        },
        width: SizeDist::Uniform { lo: 1.0, hi: 8.0 },
        flow_size: scaled_fig1(bandwidth),
        sizing: Sizing::PerCoflow { skew: 0.3 },
        compressible_fraction: 1.0,
        deadline: Some(swallow_workload::DeadlineSpec::uniform(
            bandwidth, slack_lo, slack_hi,
        )),
        seed,
    };
    CoflowGen::new(cfg).generate()
}

/// The Fig. 6 trace shape: fixed-width coflows over 24 nodes with the
/// scaled Fig. 1 size distribution. `fig6_trace(units::mbps(400.0), 80,
/// 4.0, 0x6A)` is the canonical trace of Fig. 6(a).
pub fn fig6_trace(bw: f64, num_coflows: usize, width: f64, seed: u64) -> Trace {
    let coflows = CoflowGen::new(GenConfig {
        num_coflows,
        num_nodes: 24,
        interarrival: SizeDist::Exp { mean: 1.0 },
        width: SizeDist::Constant(width),
        flow_size: scaled_fig1(bw),
        sizing: Sizing::PerCoflow { skew: 0.3 },
        compressible_fraction: 1.0,
        deadline: None,
        seed,
    })
    .generate();
    Trace::new("fig6", 24, coflows)
}

/// Run one algorithm over a trace and return its result.
pub fn run_algorithm(
    alg: Algorithm,
    fabric: &Fabric,
    coflows: &[Coflow],
    compression: Option<Arc<dyn CompressionSpec>>,
    slice: f64,
) -> SimResult {
    let mut config = SimConfig::default()
        .with_slice(slice)
        .with_reschedule(swallow_fabric::engine::Reschedule::EventsOnly);
    if let Some(c) = compression {
        config = config.with_compression(c);
    }
    let mut policy = alg.make();
    Engine::new(fabric.clone(), coflows.to_vec(), config).run(policy.as_mut())
}

/// Run several algorithms over the same trace.
pub fn run_algorithms(
    algs: &[Algorithm],
    fabric: &Fabric,
    coflows: &[Coflow],
    compression: Option<Arc<dyn CompressionSpec>>,
    slice: f64,
) -> Vec<(Algorithm, SimResult)> {
    algs.iter()
        .map(|&a| {
            (
                a,
                run_algorithm(a, fabric, coflows, compression.clone(), slice),
            )
        })
        .collect()
}

/// Default slice length: the paper's 10 ms.
pub const DEFAULT_SLICE: f64 = 0.01;

/// The 100 Mbps / 1 Gbps / 10 Gbps bandwidth ladder of §VI (bytes/s).
pub fn bandwidth_ladder() -> Vec<(String, f64)> {
    vec![
        ("100 Mbps".into(), units::mbps(100.0)),
        ("400 Mbps".into(), units::mbps(400.0)),
        ("1 Gbps".into(), units::gbps(1.0)),
        ("4 Gbps".into(), units::gbps(4.0)),
        ("10 Gbps".into(), units::gbps(10.0)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_sched::ProfiledCompression;

    #[test]
    fn std_trace_is_deterministic_and_sized() {
        let a = std_trace(StdScale::Small, units::mbps(100.0), 1);
        let b = std_trace(StdScale::Small, units::mbps(100.0), 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn run_algorithm_completes_small_scale() {
        let bw = units::mbps(100.0);
        let fabric = std_fabric(StdScale::Small, bw);
        let trace = std_trace(StdScale::Small, bw, 7);
        let res = run_algorithm(Algorithm::Sebf, &fabric, &trace, None, DEFAULT_SLICE);
        assert!(res.all_complete(), "SEBF left work unfinished");
        let comp: Arc<dyn swallow_fabric::view::CompressionSpec> =
            Arc::new(ProfiledCompression::constant(swallow_compress::Table2::Lz4));
        let res = run_algorithm(Algorithm::Fvdf, &fabric, &trace, Some(comp), DEFAULT_SLICE);
        assert!(res.all_complete(), "FVDF left work unfinished");
        assert!(res.traffic_reduction() > 0.2);
    }
}
