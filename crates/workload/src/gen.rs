//! Synthetic coflow trace generation.

use crate::dist::SizeDist;
use crate::error::WorkloadError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use swallow_fabric::{Coflow, FlowSpec};

/// How `flow_size` is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Sizing {
    /// `flow_size` is sampled independently per flow. Coflows can then mix
    /// wildly different flow sizes.
    PerFlow,
    /// `flow_size` is the *coflow total*; each flow gets an even share
    /// multiplied by a log-normal skew with the given sigma. This matches
    /// real shuffles, where one stage's flows are siblings of similar size.
    PerCoflow {
        /// Sigma of the mean-preserving intra-coflow log-normal skew.
        skew: f64,
    },
}

/// How deadlines are attached to generated coflows (DCoflow-style deadline
/// workloads): each coflow's deadline is its arrival plus its isolation
/// completion time at `bandwidth`, stretched by a uniform slack factor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadlineSpec {
    /// Reference port bandwidth (bytes/s) for the isolation completion time
    /// — normally the fabric bandwidth the trace will be replayed on.
    pub bandwidth: f64,
    /// Lower bound of the slack multiplier (≥ 1 keeps deadlines feasible
    /// in isolation; DCoflow's evaluation draws slack from U(1, 4)).
    pub slack_lo: f64,
    /// Upper bound of the slack multiplier.
    pub slack_hi: f64,
}

impl DeadlineSpec {
    /// Uniform slack in `[lo, hi]` against `bandwidth`.
    pub fn uniform(bandwidth: f64, lo: f64, hi: f64) -> Self {
        assert!(bandwidth > 0.0, "deadline bandwidth must be positive");
        assert!(0.0 < lo && lo <= hi, "slack range must be 0 < lo <= hi");
        Self {
            bandwidth,
            slack_lo: lo,
            slack_hi: hi,
        }
    }
}

/// Configuration of the coflow generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenConfig {
    /// How many coflows to generate.
    pub num_coflows: usize,
    /// Cluster size (flows are placed on random distinct machines).
    pub num_nodes: usize,
    /// Inter-arrival gap distribution (seconds). `Constant(0.0)` makes a
    /// batch arrival.
    pub interarrival: SizeDist,
    /// Coflow width distribution (number of flows; rounded, clamped ≥ 1).
    pub width: SizeDist,
    /// Size distribution (bytes); see [`Sizing`] for its interpretation.
    pub flow_size: SizeDist,
    /// Interpretation of `flow_size`.
    pub sizing: Sizing,
    /// Fraction of flows marked compressible (Table I suggests most shuffle
    /// payloads are; encrypted/pre-compressed ones are not).
    pub compressible_fraction: f64,
    /// Deadline attachment, or `None` (the default) for deadline-free
    /// workloads. `None` draws nothing from the RNG, so adding this field
    /// leaves every existing seed's trace bit-identical.
    #[serde(default)]
    pub deadline: Option<DeadlineSpec>,
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            num_coflows: 100,
            num_nodes: 50,
            interarrival: SizeDist::Exp { mean: 1.0 },
            width: SizeDist::Uniform { lo: 1.0, hi: 10.0 },
            flow_size: fig1_size_dist(),
            sizing: Sizing::PerFlow,
            compressible_fraction: 1.0,
            deadline: None,
            seed: 0xC0F1,
        }
    }
}

/// The coflow trace generator.
#[derive(Debug, Clone)]
pub struct CoflowGen {
    config: GenConfig,
}

impl CoflowGen {
    /// Build a generator.
    ///
    /// Panics on an unusable config; [`CoflowGen::try_new`] is the
    /// non-panicking form for configs that come from outside the program
    /// (imported scenarios, CLI flags).
    pub fn new(config: GenConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a generator, reporting an unusable config as a structured
    /// error instead of panicking (`swallow-core` maps it onto
    /// `SwallowError::InvalidConfig`).
    pub fn try_new(config: GenConfig) -> Result<Self, WorkloadError> {
        if config.num_nodes < 2 {
            return Err(WorkloadError::InvalidConfig(format!(
                "placement needs at least two nodes, got {}",
                config.num_nodes
            )));
        }
        if !(0.0..=1.0).contains(&config.compressible_fraction) {
            return Err(WorkloadError::InvalidConfig(format!(
                "compressible fraction must be in [0,1], got {}",
                config.compressible_fraction
            )));
        }
        if let Some(d) = &config.deadline {
            if !(d.bandwidth > 0.0) {
                return Err(WorkloadError::InvalidConfig(format!(
                    "deadline bandwidth must be positive, got {}",
                    d.bandwidth
                )));
            }
            if !(0.0 < d.slack_lo && d.slack_lo <= d.slack_hi) {
                return Err(WorkloadError::InvalidConfig(format!(
                    "deadline slack range must satisfy 0 < lo <= hi, got [{}, {}]",
                    d.slack_lo, d.slack_hi
                )));
            }
        }
        Ok(Self { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &GenConfig {
        &self.config
    }

    /// Stream the trace coflow-by-coflow without materializing it. The
    /// sequence is exactly what [`CoflowGen::generate`] collects: both walk
    /// the same RNG draws in the same order.
    pub fn iter(&self) -> CoflowIter {
        CoflowIter {
            cfg: self.config.clone(),
            rng: StdRng::seed_from_u64(self.config.seed),
            deadline_rng: StdRng::seed_from_u64(self.config.seed ^ 0xDEAD_11E5),
            t: 0.0,
            next_flow_id: 0,
            next_cid: 0,
        }
    }

    /// Generate the trace. Flow ids are dense and unique; arrivals are the
    /// cumulative sums of the inter-arrival gaps.
    pub fn generate(&self) -> Vec<Coflow> {
        self.iter().collect()
    }
}

/// Streaming state of [`CoflowGen::iter`].
#[derive(Debug, Clone)]
pub struct CoflowIter {
    cfg: GenConfig,
    rng: StdRng,
    /// Dedicated stream for deadline slack draws, so attaching a
    /// [`DeadlineSpec`] never perturbs the arrival/size/placement samples.
    deadline_rng: StdRng,
    t: f64,
    next_flow_id: u64,
    next_cid: usize,
}

impl Iterator for CoflowIter {
    type Item = Coflow;

    fn next(&mut self) -> Option<Coflow> {
        let cfg = &self.cfg;
        let rng = &mut self.rng;
        if self.next_cid >= cfg.num_coflows {
            return None;
        }
        let cid = self.next_cid;
        self.next_cid += 1;
        if cid > 0 {
            self.t += cfg.interarrival.sample(rng).max(0.0);
        }
        let width = (cfg.width.sample(rng).round() as usize).max(1);
        let coflow_share = match cfg.sizing {
            Sizing::PerFlow => None,
            Sizing::PerCoflow { .. } => Some(cfg.flow_size.sample(rng).max(1.0) / width as f64),
        };
        let mut builder = Coflow::builder(cid as u64).arrival(self.t);
        for _ in 0..width {
            let src = rng.gen_range(0..cfg.num_nodes) as u32;
            let mut dst = rng.gen_range(0..cfg.num_nodes) as u32;
            while dst == src {
                dst = rng.gen_range(0..cfg.num_nodes) as u32;
            }
            let size = match (cfg.sizing, coflow_share) {
                (Sizing::PerFlow, _) => cfg.flow_size.sample(rng).max(1.0),
                (Sizing::PerCoflow { skew }, Some(share)) => {
                    // Mean-preserving log-normal skew around the share.
                    let factor = SizeDist::LogNormal {
                        mu: -skew * skew / 2.0,
                        sigma: skew,
                    }
                    .sample(rng);
                    (share * factor).max(1.0)
                }
                (Sizing::PerCoflow { .. }, None) => unreachable!("share computed above"),
            };
            let mut spec = FlowSpec::new(self.next_flow_id, src, dst, size);
            if rng.gen::<f64>() >= cfg.compressible_fraction {
                spec = spec.incompressible();
            }
            self.next_flow_id += 1;
            builder = builder.flow(spec);
        }
        let mut coflow = builder.build();
        // Slack comes from its own stream: the same seed yields the same
        // ids/arrivals/flows whether or not a deadline spec is attached.
        if let Some(spec) = cfg.deadline {
            let slack = self.deadline_rng.gen::<f64>() * (spec.slack_hi - spec.slack_lo)
                + spec.slack_lo;
            let isolation =
                coflow.bottleneck_time(|_| spec.bandwidth, |_| spec.bandwidth);
            coflow.deadline = Some(self.t + isolation * slack);
        }
        Some(coflow)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cfg.num_coflows - self.next_cid;
        (left, Some(left))
    }
}

/// Seeded scale-tier workload for the engine's idle regime (the
/// benchmark's `fabric-idle`): `n_coflows` narrow coflows over `n_ports` nodes.
///
/// The tiers stress the *engine*, not the schedulers, so the trace is
/// calibrated for a sparse-event regime at 1 Gbps ports and a
/// 1 ms slice: flows of 40–120 MB each serve in roughly 0.3–1 s while
/// coflows arrive once per second on average, so the naive loop walks
/// hundreds of quiescent slice boundaries per observable event — exactly
/// the gap the skip-ahead mode closes. Widths are kept
/// at 1–3 flows so the live-flow count stays small and wall-clock scales
/// with the *event* count, not the port count. Fully deterministic: same
/// `(n_coflows, n_ports)` always yields the same trace (override
/// `GenConfig::seed` for replicates).
pub fn scale(n_coflows: usize, n_ports: usize) -> GenConfig {
    GenConfig {
        num_coflows: n_coflows,
        num_nodes: n_ports.max(2),
        interarrival: SizeDist::Exp { mean: 1.0 },
        width: SizeDist::Uniform { lo: 1.0, hi: 3.0 },
        flow_size: SizeDist::Uniform {
            lo: 40e6,
            hi: 120e6,
        },
        sizing: Sizing::PerFlow,
        compressible_fraction: 0.9,
        deadline: None,
        seed: 0x5CA1E,
    }
}

/// Flow-size distribution calibrated to the paper's Fig. 1:
///
/// * ~89.5% of flows smaller than 10 GB, with the bulk in `[10 MB, 10 GB]`;
/// * flows larger than 10 GB carrying well over 93% of the bytes.
///
/// A three-component bounded-Pareto mixture reproduces both marginals.
pub fn fig1_size_dist() -> SizeDist {
    SizeDist::mixture(vec![
        // Small tail: kilobyte-to-megabyte control traffic.
        (
            0.10,
            SizeDist::BoundedPareto {
                lo: 10e3,
                hi: 10e6,
                shape: 0.5,
            },
        ),
        // The body: 10 MB – 10 GB shuffle flows.
        (
            0.795,
            SizeDist::BoundedPareto {
                lo: 10e6,
                hi: 10e9,
                shape: 0.4,
            },
        ),
        // Elephants above 10 GB that dominate the byte count.
        (
            0.105,
            SizeDist::BoundedPareto {
                lo: 10e9,
                hi: 1e12,
                shape: 0.3,
            },
        ),
    ])
}

/// A laptop-scale version of the same *shape* (sizes scaled down by 10^4 so
/// simulations finish quickly at 100 Mbps – 10 Gbps while keeping the
/// heavy-tail structure). Used by the default experiment harness.
pub fn fig1_size_dist_scaled(scale: f64) -> SizeDist {
    assert!(scale > 0.0);
    SizeDist::mixture(vec![
        (
            0.10,
            SizeDist::BoundedPareto {
                lo: 10e3 * scale,
                hi: 10e6 * scale,
                shape: 0.5,
            },
        ),
        (
            0.795,
            SizeDist::BoundedPareto {
                lo: 10e6 * scale,
                hi: 10e9 * scale,
                shape: 0.4,
            },
        ),
        (
            0.105,
            SizeDist::BoundedPareto {
                lo: 10e9 * scale,
                hi: 1e12 * scale,
                shape: 0.3,
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let cfg = GenConfig {
            num_coflows: 20,
            ..GenConfig::default()
        };
        let a = CoflowGen::new(cfg.clone()).generate();
        let b = CoflowGen::new(cfg).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn flow_ids_unique_and_dense() {
        let cfg = GenConfig {
            num_coflows: 50,
            ..GenConfig::default()
        };
        let coflows = CoflowGen::new(cfg).generate();
        let mut ids: Vec<u64> = coflows
            .iter()
            .flat_map(|c| c.flows.iter().map(|f| f.id.0))
            .collect();
        ids.sort_unstable();
        let expect: Vec<u64> = (0..ids.len() as u64).collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn arrivals_are_nondecreasing() {
        let coflows = CoflowGen::new(GenConfig::default()).generate();
        assert!(coflows.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(coflows[0].arrival, 0.0);
    }

    #[test]
    fn placement_avoids_self_loops() {
        let coflows = CoflowGen::new(GenConfig {
            num_coflows: 100,
            num_nodes: 2,
            ..GenConfig::default()
        })
        .generate();
        for c in &coflows {
            for f in &c.flows {
                assert_ne!(f.src, f.dst);
            }
        }
    }

    #[test]
    fn compressible_fraction_respected() {
        let coflows = CoflowGen::new(GenConfig {
            num_coflows: 300,
            compressible_fraction: 0.5,
            ..GenConfig::default()
        })
        .generate();
        let flows: Vec<_> = coflows.iter().flat_map(|c| &c.flows).collect();
        let frac = flows.iter().filter(|f| f.compressible).count() as f64 / flows.len() as f64;
        assert!((frac - 0.5).abs() < 0.08, "frac={frac}");
    }

    #[test]
    fn scale_tiers_are_deterministic_and_sized() {
        let a = CoflowGen::new(scale(1000, 100)).generate();
        let b = CoflowGen::new(scale(1000, 100)).generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        let flows: usize = a.iter().map(|c| c.flows.len()).sum();
        assert!((1000..=3000).contains(&flows), "flows={flows}");
        for c in &a {
            for f in &c.flows {
                assert!(f.src.0 < 100 && f.dst.0 < 100);
                assert!((40e6..120e6).contains(&f.size), "size={}", f.size);
            }
        }
        // A tiny port count is clamped to a valid two-node fabric.
        assert_eq!(scale(10, 1).num_nodes, 2);
    }

    #[test]
    fn fig1_marginals_hold() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let d = fig1_size_dist();
        let xs = d.sample_n(&mut rng, 100_000);
        let below_10gb = xs.iter().filter(|&&x| x < 10e9).count() as f64 / xs.len() as f64;
        // Paper: 89.49% of flows below 10 GB.
        assert!((below_10gb - 0.895).abs() < 0.02, "below_10gb={below_10gb}");
        let total: f64 = xs.iter().sum();
        let big: f64 = xs.iter().filter(|&&x| x >= 10e9).sum();
        // Paper: more than 93.03% of bytes from flows larger than 10 GB.
        assert!(big / total > 0.9303, "big byte share={}", big / total);
    }

    #[test]
    fn scaled_dist_preserves_shape() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2);
        let d = fig1_size_dist_scaled(1e-4);
        let xs = d.sample_n(&mut rng, 50_000);
        let below = xs.iter().filter(|&&x| x < 10e9 * 1e-4).count() as f64 / xs.len() as f64;
        assert!((below - 0.895).abs() < 0.02, "below={below}");
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_rejected() {
        CoflowGen::new(GenConfig {
            num_nodes: 1,
            ..GenConfig::default()
        });
    }

    #[test]
    fn try_new_reports_structured_errors() {
        use crate::error::WorkloadError;
        let err = CoflowGen::try_new(GenConfig {
            num_nodes: 1,
            ..GenConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, WorkloadError::InvalidConfig(_)), "{err:?}");
        let err = CoflowGen::try_new(GenConfig {
            compressible_fraction: 1.5,
            ..GenConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, WorkloadError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn deadline_spec_attaches_feasible_deadlines_without_perturbing_the_trace() {
        let base = GenConfig {
            num_coflows: 30,
            ..GenConfig::default()
        };
        let bw = 1e9;
        let with = CoflowGen::new(GenConfig {
            deadline: Some(DeadlineSpec::uniform(bw, 1.5, 3.0)),
            ..base.clone()
        })
        .generate();
        let without = CoflowGen::new(base).generate();
        assert_eq!(with.len(), without.len());
        for (a, b) in with.iter().zip(&without) {
            // Same ids, arrivals and flows — the deadline draw must not
            // shift any other sample.
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
            assert_eq!(a.flows, b.flows);
            assert_eq!(b.deadline, None);
            let d = a.deadline.expect("spec attaches a deadline");
            let isolation = a.bottleneck_time(|_| bw, |_| bw);
            let slack = (d - a.arrival) / isolation;
            assert!(
                (1.5..=3.0 + 1e-9).contains(&slack),
                "slack {slack} outside the configured range"
            );
        }
    }

    #[test]
    fn bad_deadline_spec_is_invalid_config() {
        for spec in [
            DeadlineSpec {
                bandwidth: 0.0,
                slack_lo: 1.0,
                slack_hi: 2.0,
            },
            DeadlineSpec {
                bandwidth: 1e9,
                slack_lo: 0.0,
                slack_hi: 2.0,
            },
            DeadlineSpec {
                bandwidth: 1e9,
                slack_lo: 3.0,
                slack_hi: 2.0,
            },
        ] {
            let err = CoflowGen::try_new(GenConfig {
                deadline: Some(spec),
                ..GenConfig::default()
            })
            .unwrap_err();
            assert!(matches!(err, WorkloadError::InvalidConfig(_)), "{err:?}");
        }
    }

    #[test]
    fn iter_streams_the_same_trace_generate_collects() {
        let gen = CoflowGen::new(GenConfig {
            num_coflows: 40,
            ..GenConfig::default()
        });
        let streamed: Vec<Coflow> = gen.iter().collect();
        assert_eq!(streamed, gen.generate());
        assert_eq!(gen.iter().size_hint(), (40, Some(40)));
    }
}
