//! The shared log-scale latency histogram.
//!
//! One histogram type serves every wall-clock latency series in the
//! workspace: the tracer's reschedule-latency counters (`swallow-trace`),
//! the engine phase profiler (`crate::telemetry`) and the `paper dash`
//! report all record into the same log2-bucketed shape, so exporters and
//! golden tests only ever deal with one bucket layout.
//!
//! Buckets follow the layout the trace counters pinned first: bucket `i`
//! holds values in `[2^(i-1), 2^i)` microseconds, bucket 0 holds
//! sub-microsecond values, and the last bucket absorbs everything above
//! `2^(LOG2_BUCKETS-2)` µs (≈ 18 minutes) — wide enough for any latency a
//! single reschedule or engine phase can plausibly take.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Number of log2 buckets (covers 1 µs … ~18 minutes).
pub const LOG2_BUCKETS: usize = 31;

/// Log2 bucket index for a microsecond value: bucket `i` holds
/// `[2^(i-1), 2^i)` µs, bucket 0 holds sub-microsecond values.
pub fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
    }
}

/// Upper bound (inclusive-exclusive edge) of bucket `i`, in µs.
pub fn bucket_edge(i: usize) -> u64 {
    1u64 << i
}

/// An owned, serializable snapshot of a log2 latency histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Per-bucket counts (`buckets[i]` counts values in `[2^(i-1), 2^i)` µs).
    pub buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values, µs.
    pub sum_us: u64,
    /// Largest recorded value, µs.
    pub max_us: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// A fresh zeroed histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; LOG2_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    /// Record one value in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.buckets[bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Record one value in seconds (negative values clamp to zero).
    pub fn record_secs(&mut self, secs: f64) {
        self.record_us((secs * 1e6).max(0.0) as u64);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value, µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Bucket-resolution quantile estimate, `q ∈ (0, 1]`: the upper edge of
    /// the first bucket whose cumulative count reaches `q · count`
    /// (conservative — true values in that bucket are at most the edge).
    pub fn quantile_us(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "q must be in (0,1]");
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_edge(i).min(self.max_us.max(1));
            }
        }
        self.max_us
    }

    /// Non-empty buckets as `(exclusive upper edge µs, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_edge(i), c))
    }
}

/// A thread-safe recording histogram: relaxed atomics sized for hot loops,
/// snapshotted into a [`LogHistogram`] once the run quiesces (the same
/// contract the trace counters always had).
#[derive(Debug, Default)]
pub struct AtomicLogHistogram {
    buckets: [AtomicU64; LOG2_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl AtomicLogHistogram {
    /// A fresh zeroed histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Record one value in seconds (negative values clamp to zero).
    pub fn record_secs(&self, secs: f64) {
        self.record_us((secs * 1e6).max(0.0) as u64);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Largest recorded value, µs.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// An owned snapshot of the current counts.
    pub fn snapshot(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for (i, b) in self.buckets.iter().enumerate() {
            h.buckets[i] = b.load(Ordering::Relaxed);
        }
        h.count = self.count();
        h.sum_us = self.sum_us();
        h.max_us = self.max_us();
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), LOG2_BUCKETS - 1);
        assert_eq!(bucket_edge(0), 1);
        assert_eq!(bucket_edge(10), 1024);
    }

    #[test]
    fn record_and_stats() {
        let mut h = LogHistogram::new();
        h.record_us(10);
        h.record_us(100);
        h.record_secs(50e-6);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_us, 160);
        assert_eq!(h.max_us, 100);
        assert!((h.mean_us() - 160.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.buckets[bucket_of(10)], 1);
        assert_eq!(h.buckets[bucket_of(50)], 1);
        assert_eq!(h.buckets[bucket_of(100)], 1);
    }

    #[test]
    fn quantile_is_bucket_resolution() {
        let mut h = LogHistogram::new();
        for _ in 0..99 {
            h.record_us(10); // bucket edge 16
        }
        h.record_us(1000); // bucket edge 1024
        assert_eq!(h.quantile_us(0.5), 16);
        assert_eq!(h.quantile_us(0.99), 16);
        assert_eq!(h.quantile_us(1.0), 1000); // clamped to max
        assert_eq!(LogHistogram::new().quantile_us(0.99), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LogHistogram::new();
        a.record_us(4);
        let mut b = LogHistogram::new();
        b.record_us(4);
        b.record_us(1 << 20);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.buckets[bucket_of(4)], 2);
        assert_eq!(a.max_us, 1 << 20);
        assert_eq!(a.nonzero_buckets().count(), 2);
    }

    #[test]
    fn atomic_snapshot_matches() {
        let h = AtomicLogHistogram::new();
        h.record_us(7);
        h.record_secs(2e-6);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum_us, 9);
        assert_eq!(snap.max_us, 7);
        assert_eq!(snap.buckets[bucket_of(7)], 1);
        assert_eq!(snap.buckets[bucket_of(2)], 1);
        // Round-trips through JSON for the artifact writers.
        crate::skip_if_stub!();
        let back: LogHistogram =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        assert_eq!(back, snap);
    }
}
