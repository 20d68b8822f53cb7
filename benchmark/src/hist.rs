//! A log-linear histogram of durations in nanoseconds.
//!
//! Per-call boundaries (`allocate`, `submit`, `push`, stream `next`) fire
//! up to millions of times in one rep, so they are folded into this
//! fixed-size histogram instead of being kept as spans. Values below 16 ns
//! are exact; above that each power of two is split into 8 buckets, so a
//! quantile is off by at most 6 %.
//!
//! `swallow_metrics::hist::LogHistogram` is not used because it truncates
//! each value to whole microseconds before it sums and buckets it, and its
//! buckets are whole powers of two. Four million 0.3 µs `allocate` calls on
//! `fabric-idle` (1.6 s), the 0.7 µs `submit` and the 1.6 µs stream `next`
//! would all sum to nearly nothing, and a 71 ms `push` median would read
//! 128 ms.

const SUB: usize = 8;
const BUCKETS: usize = 16 + 60 * SUB;

/// Histogram with count, sum and maximum.
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < 16 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as usize; // ≥ 4
    let sub = ((ns >> (octave - 3)) & 7) as usize;
    (16 + (octave - 4) * SUB + sub).min(BUCKETS - 1)
}

/// Midpoint of bucket `i`, in nanoseconds.
fn bucket_mid(i: usize) -> f64 {
    if i < 16 {
        return i as f64;
    }
    let octave = (i - 16) / SUB + 4;
    let sub = ((i - 16) % SUB) as f64;
    let width = (1u64 << (octave - 3)) as f64;
    (1u64 << octave) as f64 + (sub + 0.5) * width
}

impl Hist {
    /// Record one duration.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations in seconds.
    pub fn sum_s(&self) -> f64 {
        self.sum_ns as f64 * 1e-9
    }

    /// Quantile `q ∈ [0, 1]` in nanoseconds (bucket midpoint, capped at the
    /// recorded maximum); 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i).min(self.max_ns as f64);
            }
        }
        self.max_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_within_a_sub_bucket() {
        let mut h = Hist::default();
        for ns in 1..=100_000u64 {
            h.record_ns(ns);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = 100_000.0 * q;
            let got = h.quantile_ns(q);
            assert!((got - exact).abs() / exact < 0.07, "q={q} got={got}");
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.quantile_ns(1.0), 100_000.0);
    }

    #[test]
    fn small_values_are_exact_and_huge_ones_do_not_overflow() {
        let mut h = Hist::default();
        h.record_ns(3);
        assert_eq!(h.quantile_ns(0.5), 3.0);
        h.record_ns(u64::MAX / 2);
        assert!(h.quantile_ns(1.0) > 1e18);
    }
}
