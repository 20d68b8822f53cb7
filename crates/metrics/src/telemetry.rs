//! Runtime telemetry: a strided time-series sampler plus an engine phase
//! profiler.
//!
//! The [`Telemetry`] collector is deliberately dependency-free (pure
//! numbers in, pure numbers out) so every layer of the workspace — the
//! fabric engine, the schedulers, the bench harness — can share one
//! collector without dependency cycles. The engine owns the *sampling
//! points* (its one boundary hook, the phase timers) and derives each
//! sample from the boundary snapshot it hands its observers; this module
//! owns the *storage*: a bounded ring of [`TelemetrySample`]s and one
//! shared log-scale histogram per [`Phase`].
//!
//! Cost model: when no collector is installed the engine skips every
//! telemetry branch (the same `Option`-gate discipline the tracer pins via
//! `tests/alloc_count.rs`). When installed, the ring is pre-allocated at
//! construction and evicts in place, and phase timers record into fixed
//! atomic arrays; a sampled boundary costs the two per-port load vectors
//! its utilization figures are computed from, an unsampled one a branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::hist::{AtomicLogHistogram, LogHistogram};

/// Number of port-utilization deciles per sample (`[0,0.1) … [0.9,∞)`).
pub const PORT_UTIL_BUCKETS: usize = 10;

/// Decile bucket for a single port's utilization in `[0, 1]` (values above
/// 1 — transient fault-window overshoot — clamp into the last bucket).
pub fn port_util_bucket(util: f64) -> usize {
    ((util.max(0.0) * PORT_UTIL_BUCKETS as f64) as usize).min(PORT_UTIL_BUCKETS - 1)
}

/// Engine phases timed by the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Full policy invocation: allocate + clamps + CPU enforcement.
    Schedule,
    /// The water-fill rate scan inside the scheduler.
    WaterFill,
    /// Bulk segment materialization before a reschedule.
    Materialize,
    /// Fault/invariant hooks at slice boundaries.
    Hooks,
}

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; 4] = [
        Phase::Schedule,
        Phase::WaterFill,
        Phase::Materialize,
        Phase::Hooks,
    ];

    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Schedule => "schedule",
            Phase::WaterFill => "water_fill",
            Phase::Materialize => "materialize",
            Phase::Hooks => "hooks",
        }
    }
}

/// One strided observation of engine state at a visited slice boundary: a
/// consistent cut at `time`, live flows and retired totals alike.
///
/// Every field is a pure function of the simulated run (no wall clock), so
/// the sample series of a seeded scenario is byte-identical across runs —
/// the property `DASH_report.json` is built on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySample {
    /// Simulated time, seconds.
    pub time: f64,
    /// Boundary index (naive-equivalent slice count at this point).
    pub slice_idx: u64,
    /// Coflows arrived and not yet finished.
    pub active_coflows: u64,
    /// Coflows not yet arrived.
    pub pending_coflows: u64,
    /// Flows currently transmitting (rate > 0).
    pub transmitting_flows: u64,
    /// Flows currently compressing on a CPU core.
    pub compressing_flows: u64,
    /// Aggregate transmit rate, bytes/s (wire rate after compression).
    pub tx_rate: f64,
    /// `tx_rate` over total bisection capacity.
    pub net_util: f64,
    /// Mean per-port utilization across all egress+ingress ports.
    pub mean_port_util: f64,
    /// Utilization of the busiest port.
    pub max_port_util: f64,
    /// Ports with non-zero utilization.
    pub busy_ports: u64,
    /// Decile histogram of per-port utilization (see [`port_util_bucket`]).
    pub port_util_hist: [u64; PORT_UTIL_BUCKETS],
    /// Compression cores in use over total cores (0 when cores are
    /// unlimited and idle).
    pub cpu_occupancy: f64,
    /// Cumulative bytes put on the wire (post-compression).
    pub bytes_on_wire: f64,
    /// Cumulative bytes saved by compression (raw minus wire).
    pub bytes_saved: f64,
    /// Cumulative policy invocations.
    pub reschedules: u64,
    /// Coflows a sampling-based estimator is currently tracking (0 for
    /// clairvoyant runs).
    #[serde(default)]
    pub est_tracked_coflows: u64,
    /// Mean absolute relative error of the estimator's coflow-size
    /// estimates, over tracked coflows (0 when nothing is tracked). Pure
    /// function of the simulated run, like every other field.
    #[serde(default)]
    pub est_mean_abs_rel_err: f64,
}

#[derive(Debug)]
struct Ring {
    samples: Vec<TelemetrySample>,
    /// Index of the oldest sample once the ring has wrapped.
    head: usize,
}

/// The shared telemetry collector: strided sample ring + per-phase latency
/// histograms. Installed behind `Arc` and consulted by the engine at slice
/// boundaries; absent collector ⇒ zero cost.
#[derive(Debug)]
pub struct Telemetry {
    stride: u64,
    capacity: usize,
    ring: Mutex<Ring>,
    samples_seen: AtomicU64,
    boundaries: AtomicU64,
    active: AtomicBool,
    phases: [AtomicLogHistogram; Phase::ALL.len()],
    /// Estimation gauges, written by a sampling policy (single engine
    /// thread) and read back when the engine assembles a sample.
    est_tracked: AtomicU64,
    /// `f64::to_bits` of the mean absolute relative estimation error.
    est_err_bits: AtomicU64,
}

/// Default ring capacity: enough for a full fig6 trajectory at stride 1.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

impl Default for Telemetry {
    fn default() -> Self {
        Self::new(1, DEFAULT_RING_CAPACITY)
    }
}

impl Telemetry {
    /// A collector sampling every `stride`-th boundary into a ring of
    /// `capacity` samples (both clamped to at least 1). The ring is fully
    /// pre-allocated here so steady-state recording never allocates.
    pub fn new(stride: u64, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            stride: stride.max(1),
            capacity,
            ring: Mutex::new(Ring {
                samples: Vec::with_capacity(capacity),
                head: 0,
            }),
            samples_seen: AtomicU64::new(0),
            boundaries: AtomicU64::new(0),
            active: AtomicBool::new(false),
            phases: Default::default(),
            est_tracked: AtomicU64::new(0),
            est_err_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// A collector with the default ring capacity.
    pub fn with_stride(stride: u64) -> Self {
        Self::new(stride, DEFAULT_RING_CAPACITY)
    }

    /// Sampling stride: the engine records every `stride`-th boundary.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Advance the collector's own boundary counter and decide whether the
    /// boundary that is starting is instrumented. The engine calls this once
    /// per visited boundary; the returned flag (also readable through
    /// [`Telemetry::is_active`]) gates *both* the sampler and every phase
    /// timer, so at stride `k` only every `k`-th boundary pays for
    /// `Instant::now` calls and sample assembly — this is what keeps the
    /// measured overhead sub-linear in the boundary count.
    pub fn begin_boundary(&self) -> bool {
        let n = self.boundaries.fetch_add(1, Ordering::Relaxed);
        let active = n.is_multiple_of(self.stride);
        self.active.store(active, Ordering::Relaxed);
        active
    }

    /// Whether the boundary currently in progress is instrumented (the flag
    /// set by the last [`Telemetry::begin_boundary`]). Lets code that never
    /// sees the engine's loop — the policy's water-fill timer, the event
    /// queue rebuild — make the same per-boundary decision.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Record one sample, evicting the oldest when the ring is full.
    pub fn record_sample(&self, sample: TelemetrySample) {
        self.samples_seen.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap();
        if ring.samples.len() < self.capacity {
            ring.samples.push(sample);
        } else {
            let head = ring.head;
            ring.samples[head] = sample;
            ring.head = (head + 1) % self.capacity;
        }
    }

    /// Publish the estimator gauges: how many coflows a sampling-based
    /// policy is tracking and the mean absolute relative error of its size
    /// estimates. Called by the policy during `allocate`; the engine folds
    /// the latest values into the next [`TelemetrySample`]. Both values are
    /// pure functions of the simulated run, so sample determinism is
    /// preserved.
    pub fn record_estimation(&self, tracked: u64, mean_abs_rel_err: f64) {
        self.est_tracked.store(tracked, Ordering::Relaxed);
        self.est_err_bits
            .store(mean_abs_rel_err.to_bits(), Ordering::Relaxed);
    }

    /// Latest estimator gauges as `(tracked_coflows, mean_abs_rel_err)`;
    /// `(0, 0.0)` when no sampling policy ever reported.
    pub fn estimation(&self) -> (u64, f64) {
        (
            self.est_tracked.load(Ordering::Relaxed),
            f64::from_bits(self.est_err_bits.load(Ordering::Relaxed)),
        )
    }

    /// Record one phase timing.
    pub fn record_phase(&self, phase: Phase, elapsed: Duration) {
        self.phases[phase as usize].record_us(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Samples currently retained, oldest first.
    pub fn samples(&self) -> Vec<TelemetrySample> {
        let ring = self.ring.lock().unwrap();
        let mut out = Vec::with_capacity(ring.samples.len());
        out.extend_from_slice(&ring.samples[ring.head..]);
        out.extend_from_slice(&ring.samples[..ring.head]);
        out
    }

    /// Total samples recorded (including ones evicted from the ring).
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen.load(Ordering::Relaxed)
    }

    /// An owned snapshot of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let samples = self.samples();
        let seen = self.samples_seen();
        TelemetrySnapshot {
            stride: self.stride,
            samples_seen: seen,
            samples_dropped: seen - samples.len() as u64,
            samples,
            phases: Phase::ALL
                .iter()
                .map(|p| (p.name().to_string(), self.phases[*p as usize].snapshot()))
                .collect(),
        }
    }
}

/// Owned, serializable snapshot of a [`Telemetry`] collector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Sampling stride the collector ran with.
    pub stride: u64,
    /// Total samples recorded (including evicted ones).
    pub samples_seen: u64,
    /// Samples evicted from the ring (`samples_seen - samples.len()`).
    pub samples_dropped: u64,
    /// Retained samples, oldest first.
    pub samples: Vec<TelemetrySample>,
    /// Per-phase wall-clock latency histograms, keyed by [`Phase::name`].
    pub phases: BTreeMap<String, LogHistogram>,
}

impl TelemetrySnapshot {
    /// The snapshot with every wall-clock-derived field stripped (the phase
    /// histograms). The sample series is a pure function of the simulated
    /// run, so this view serializes byte-identically across same-seed runs
    /// — it is what `DASH_report.json` commits to.
    pub fn deterministic(&self) -> Self {
        Self {
            phases: BTreeMap::new(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(idx: u64) -> TelemetrySample {
        TelemetrySample {
            time: idx as f64 * 0.01,
            slice_idx: idx,
            active_coflows: 3,
            pending_coflows: 1,
            transmitting_flows: 5,
            compressing_flows: 2,
            tx_rate: 10.0,
            net_util: 0.5,
            mean_port_util: 0.25,
            max_port_util: 0.9,
            busy_ports: 4,
            port_util_hist: [0; PORT_UTIL_BUCKETS],
            cpu_occupancy: 0.5,
            bytes_on_wire: 2.0,
            bytes_saved: 0.5,
            reschedules: idx,
            est_tracked_coflows: 0,
            est_mean_abs_rel_err: 0.0,
        }
    }

    #[test]
    fn estimation_gauges_round_trip() {
        let t = Telemetry::default();
        assert_eq!(t.estimation(), (0, 0.0));
        t.record_estimation(3, 0.25);
        assert_eq!(t.estimation(), (3, 0.25));
        t.record_estimation(0, 0.0);
        assert_eq!(t.estimation(), (0, 0.0));
    }

    #[test]
    fn begin_boundary_paces_and_publishes_the_flag() {
        let t = Telemetry::with_stride(4);
        let decisions: Vec<bool> = (0..9)
            .map(|_| {
                let active = t.begin_boundary();
                assert_eq!(active, t.is_active(), "flag must mirror the decision");
                active
            })
            .collect();
        assert_eq!(
            decisions,
            vec![true, false, false, false, true, false, false, false, true]
        );
        // stride 0 clamps to 1
        assert_eq!(Telemetry::with_stride(0).stride(), 1);
    }

    #[test]
    fn ring_evicts_oldest() {
        let t = Telemetry::new(1, 4);
        for i in 0..6 {
            t.record_sample(sample(i));
        }
        let s = t.samples();
        assert_eq!(
            s.iter().map(|x| x.slice_idx).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        assert_eq!(t.samples_seen(), 6);
        let snap = t.snapshot();
        assert_eq!(snap.samples_dropped, 2);
    }

    #[test]
    fn phase_histograms_record() {
        let t = Telemetry::default();
        t.record_phase(Phase::WaterFill, Duration::from_micros(12));
        t.record_phase(Phase::WaterFill, Duration::from_micros(40));
        t.record_phase(Phase::Schedule, Duration::from_micros(100));
        let snap = t.snapshot();
        assert_eq!(snap.phases["water_fill"].count, 2);
        assert_eq!(snap.phases["schedule"].count, 1);
        assert_eq!(snap.phases["materialize"].count, 0);
        assert_eq!(snap.phases.len(), Phase::ALL.len());
    }

    #[test]
    fn deterministic_view_strips_phase_timings() {
        let t = Telemetry::default();
        t.record_sample(sample(0));
        t.record_phase(Phase::Hooks, Duration::from_micros(3));
        let snap = t.snapshot();
        let det = snap.deterministic();
        assert!(det.phases.is_empty());
        assert_eq!(det.samples, snap.samples);
        // Round-trips through JSON for the artifact writer.
        crate::skip_if_stub!();
        let back: TelemetrySnapshot =
            serde_json::from_str(&serde_json::to_string(&det).unwrap()).unwrap();
        assert_eq!(back, det);
    }

    #[test]
    fn port_util_deciles() {
        assert_eq!(port_util_bucket(0.0), 0);
        assert_eq!(port_util_bucket(0.05), 0);
        assert_eq!(port_util_bucket(0.95), 9);
        assert_eq!(port_util_bucket(1.0), 9);
        assert_eq!(port_util_bucket(1.7), 9); // overshoot clamps
        assert_eq!(port_util_bucket(-0.1), 0);
    }
}
