//! Per-node CPU availability model.
//!
//! The paper's motivation (§II-B2, Fig. 2) is that data-parallel jobs leave
//! large idle CPU periods — over 30.77% of CPU time at 10 Gbps and over
//! 69.23% at 100 Mbps — which Swallow spends on compression. We model each
//! node's CPU as `cores` units of capacity with a *background utilization
//! trace* `b(t) ∈ [0, 1]` describing what the computation itself uses; a
//! compression task occupies one core while active, and the compression
//! strategy (Pseudocode 1, line 4) only fires when a free core exists.

use crate::ids::NodeId;
use serde::{Deserialize, Serialize};

/// A piecewise-constant background CPU utilization trace.
///
/// `points` are `(time, utilization)` breakpoints sorted by time; the trace
/// holds each utilization until the next breakpoint, and the final value
/// persists forever. Utilization is a fraction of the node's total cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuTrace {
    points: Vec<(f64, f64)>,
}

impl CpuTrace {
    /// A constant background utilization.
    pub fn constant(util: f64) -> Self {
        assert!((0.0..=1.0).contains(&util), "utilization must be in [0,1]");
        Self {
            points: vec![(0.0, util)],
        }
    }

    /// Build from explicit breakpoints; they must be time-sorted.
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "trace needs at least one point");
        assert!(
            points.windows(2).all(|w| w[0].0 <= w[1].0),
            "trace points must be sorted by time"
        );
        assert!(
            points.iter().all(|&(_, u)| (0.0..=1.0).contains(&u)),
            "utilization must be in [0,1]"
        );
        Self { points }
    }

    /// A periodic bursty trace alternating `busy_util` for `busy_len` seconds
    /// and `idle_util` for `idle_len` seconds, long enough to cover
    /// `horizon` seconds. This reproduces the Fig. 2 on/off shape where I/O
    /// waits leave the CPU idle.
    pub fn bursty(
        busy_util: f64,
        busy_len: f64,
        idle_util: f64,
        idle_len: f64,
        horizon: f64,
    ) -> Self {
        assert!(
            busy_len > 0.0 && idle_len > 0.0,
            "phase lengths must be positive"
        );
        let mut points = Vec::new();
        let mut t = 0.0;
        while t < horizon {
            points.push((t, busy_util));
            points.push((t + busy_len, idle_util));
            t += busy_len + idle_len;
        }
        Self::from_points(points)
    }

    /// Background utilization at time `t`.
    pub fn util_at(&self, t: f64) -> f64 {
        match self.points.iter().rev().find(|&&(pt, _)| pt <= t) {
            Some(&(_, u)) => u,
            None => self.points[0].1,
        }
    }

    /// Fraction of time in `[start, end)` with utilization strictly below
    /// `threshold` — the "idle period" statistic quoted in §II-B2.
    pub fn idle_fraction(&self, start: f64, end: f64, threshold: f64) -> f64 {
        assert!(end > start, "interval must be non-empty");
        // Integrate over the piecewise-constant segments.
        let mut idle = 0.0;
        let mut t = start;
        while t < end {
            let u = self.util_at(t);
            let next = self
                .points
                .iter()
                .map(|&(pt, _)| pt)
                .find(|&pt| pt > t)
                .unwrap_or(end)
                .min(end);
            if u < threshold {
                idle += next - t;
            }
            t = next;
        }
        idle / (end - start)
    }
}

/// CPU capacity of every node in the cluster: the same core count and the
/// same background trace on each (held once, not once per node).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuModel {
    nodes: usize,
    cores: u32,
    trace: CpuTrace,
}

impl CpuModel {
    /// All nodes have `cores` cores and no background load — compression is
    /// always admissible. This is the right model for pure scheduling
    /// studies where CPU contention is not the variable.
    pub fn unconstrained(n: usize, cores: u32) -> Self {
        Self::uniform(n, cores, CpuTrace::constant(0.0))
    }

    /// Uniform cluster with a shared background trace.
    pub fn uniform(n: usize, cores: u32, trace: CpuTrace) -> Self {
        assert!(cores > 0, "nodes need at least one core");
        Self {
            nodes: n,
            cores,
            trace,
        }
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Total cores on `node`.
    pub fn cores(&self, node: NodeId) -> u32 {
        assert!(node.index() < self.nodes, "{node} is outside the CPU model");
        self.cores
    }

    /// Cores free for compression on `node` at time `t`, i.e. total cores
    /// minus background demand, rounded down (a compression task needs a
    /// whole core to run at the Table II speeds).
    pub fn free_cores(&self, node: NodeId, t: f64) -> u32 {
        let total = self.cores(node) as f64;
        let busy = self.trace.util_at(t) * total;
        (total - busy).floor().max(0.0) as u32
    }

    /// Background utilization of `node` at `t` (fraction of all cores).
    pub fn background_util(&self, node: NodeId, t: f64) -> f64 {
        assert!(node.index() < self.nodes, "{node} is outside the CPU model");
        self.trace.util_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace() {
        let tr = CpuTrace::constant(0.4);
        assert_eq!(tr.util_at(0.0), 0.4);
        assert_eq!(tr.util_at(1e6), 0.4);
    }

    #[test]
    fn piecewise_lookup() {
        let tr = CpuTrace::from_points(vec![(0.0, 0.9), (10.0, 0.1), (20.0, 0.5)]);
        assert_eq!(tr.util_at(5.0), 0.9);
        assert_eq!(tr.util_at(10.0), 0.1);
        assert_eq!(tr.util_at(15.0), 0.1);
        assert_eq!(tr.util_at(25.0), 0.5);
    }

    #[test]
    fn bursty_idle_fraction() {
        // 3 s busy at 0.9, 7 s idle at 0.1, repeating: 70% idle below 0.5.
        let tr = CpuTrace::bursty(0.9, 3.0, 0.1, 7.0, 100.0);
        let frac = tr.idle_fraction(0.0, 100.0, 0.5);
        assert!((frac - 0.7).abs() < 1e-9, "got {frac}");
    }

    #[test]
    fn free_cores_respects_background() {
        let model = CpuModel::uniform(2, 4, CpuTrace::constant(0.6));
        // 4 cores, 2.4 busy → 1.6 free → 1 whole core.
        assert_eq!(model.free_cores(NodeId(0), 0.0), 1);
        let model = CpuModel::unconstrained(2, 4);
        assert_eq!(model.free_cores(NodeId(1), 5.0), 4);
    }

    #[test]
    fn fully_busy_node_has_no_free_core() {
        let model = CpuModel::uniform(1, 4, CpuTrace::constant(1.0));
        assert_eq!(model.free_cores(NodeId(0), 0.0), 0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_points_rejected() {
        CpuTrace::from_points(vec![(5.0, 0.2), (1.0, 0.4)]);
    }
}
