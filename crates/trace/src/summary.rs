//! End-of-run aggregate view of a tracer's counters.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::counters::Counters;

/// One bar of the reschedule-latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyBucket {
    /// Exclusive upper edge of the bucket, microseconds.
    pub le_us: u64,
    /// Number of reschedules that landed in the bucket.
    pub count: u64,
}

/// Aggregated trace statistics for one run: event counts, slice accounting
/// for the skip-ahead fast path, and a reschedule wall-clock latency
/// histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Total structured events emitted.
    pub events_total: u64,
    /// Events per kind (serialized `type` tag).
    pub events_by_kind: BTreeMap<String, u64>,
    /// Slices advanced one-by-one through the full engine loop.
    pub slices_processed: u64,
    /// Slices covered by quiescent skip-ahead jumps instead.
    pub slices_skipped: u64,
    /// Number of skip-ahead jumps taken.
    pub skip_jumps: u64,
    /// `slices_skipped / (slices_processed + slices_skipped)`; 0 when no
    /// slices ran.
    pub skip_ahead_hit_ratio: f64,
    /// Policy invocations timed by the engine.
    pub reschedules: u64,
    /// Non-empty log2 buckets of reschedule wall-clock latency.
    pub reschedule_latency: Vec<LatencyBucket>,
    /// Mean reschedule latency, microseconds (0 when none ran).
    pub latency_mean_us: f64,
    /// Worst reschedule latency, microseconds.
    pub latency_max_us: u64,
}

impl TraceSummary {
    /// Aggregate `counters` into a summary.
    pub fn from_counters(counters: &Counters) -> Self {
        let processed = counters.slices_processed();
        let skipped = counters.slices_skipped();
        let total_slices = processed + skipped;
        let reschedules = counters.reschedules();
        let latency = counters.latency_histogram();
        let buckets: Vec<LatencyBucket> = latency
            .nonzero_buckets()
            .map(|(le_us, count)| LatencyBucket { le_us, count })
            .collect();
        Self {
            events_total: counters.events_total(),
            events_by_kind: counters.by_kind(),
            slices_processed: processed,
            slices_skipped: skipped,
            skip_jumps: counters.skip_jumps(),
            skip_ahead_hit_ratio: if total_slices == 0 {
                0.0
            } else {
                skipped as f64 / total_slices as f64
            },
            reschedules,
            reschedule_latency: buckets,
            latency_mean_us: latency.mean_us(),
            latency_max_us: latency.max_us,
        }
    }

    /// The summary with every wall-clock-derived field zeroed
    /// (`reschedule_latency`, `latency_mean_us`, `latency_max_us`). All
    /// remaining fields are pure functions of the simulated run, so two runs
    /// of the same seeded scenario serialize to byte-identical JSON — this
    /// is the view the `paper faults` artifact writes and CI diffs.
    pub fn deterministic(&self) -> Self {
        Self {
            reschedule_latency: Vec::new(),
            latency_mean_us: 0.0,
            latency_max_us: 0,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_and_histogram() {
        let c = Counters::new();
        c.slices(25);
        c.skipped(75);
        c.count_event("rescheduled");
        c.count_event("rescheduled");
        c.reschedule_latency(5e-6);
        c.reschedule_latency(5e-6);
        let s = TraceSummary::from_counters(&c);
        assert_eq!(s.events_total, 2);
        assert_eq!(s.events_by_kind["rescheduled"], 2);
        assert!((s.skip_ahead_hit_ratio - 0.75).abs() < 1e-12);
        assert_eq!(s.skip_jumps, 1);
        assert_eq!(s.reschedules, 2);
        assert_eq!(s.reschedule_latency.len(), 1);
        assert_eq!(s.reschedule_latency[0].count, 2);
        assert!((s.latency_mean_us - 5.0).abs() < 1e-12);
        assert_eq!(s.latency_max_us, 5);
    }

    #[test]
    fn empty_counters_yield_zeroes() {
        let s = TraceSummary::from_counters(&Counters::new());
        assert_eq!(s.events_total, 0);
        assert_eq!(s.skip_ahead_hit_ratio, 0.0);
        assert_eq!(s.latency_mean_us, 0.0);
        assert!(s.reschedule_latency.is_empty());
        // Round-trips through JSON for the artifact writer.
        swallow_metrics::skip_if_stub!();
        let back: TraceSummary = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn deterministic_view_strips_only_wall_clock_fields() {
        let c = Counters::new();
        c.slices(10);
        c.skipped(30);
        c.count_event("rescheduled");
        c.reschedule_latency(7e-6);
        let s = TraceSummary::from_counters(&c);
        let d = s.deterministic();
        assert!(d.reschedule_latency.is_empty());
        assert_eq!(d.latency_mean_us, 0.0);
        assert_eq!(d.latency_max_us, 0);
        // Everything else survives untouched.
        assert_eq!(d.events_total, s.events_total);
        assert_eq!(d.events_by_kind, s.events_by_kind);
        assert_eq!(d.slices_processed, s.slices_processed);
        assert_eq!(d.slices_skipped, s.slices_skipped);
        assert_eq!(d.skip_jumps, s.skip_jumps);
        assert_eq!(d.skip_ahead_hit_ratio, s.skip_ahead_hit_ratio);
        assert_eq!(d.reschedules, s.reschedules);
    }
}
