//! Fixed-bucket log2 latency histogram.
//!
//! Sixty-four buckets keyed by bit length: bucket 0 holds the value 0,
//! bucket `i` (1..=63) holds values in `[2^(i-1), 2^i - 1]`, and values
//! whose bit length exceeds 63 clamp into the last bucket. Recording is
//! one `Relaxed` `fetch_add` into the bucket plus running `sum`/`count`
//! totals — cheap enough for the sim event loop and the batched serve
//! loop, and entirely allocation-free.
//!
//! Quantiles come back as the *upper bound* of the bucket containing the
//! requested rank, so a bucketed p99 is never more than one power of two
//! above the exact sorted-vector p99 (see the `within_one_bucket` tests,
//! which pin the satellite requirement that bucketed quantiles stay
//! within one bucket of exact values).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets (bit lengths 0..=63).
pub(crate) const BUCKETS: usize = 64;

/// Bucket index for a recorded value: its bit length, clamped to 63.
#[must_use]
pub(crate) fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()).min(63) as usize
}

/// Inclusive upper bound of bucket `i`: `0` for bucket 0, `2^i - 1` in
/// between, and `u64::MAX` for the final clamp bucket.
#[must_use]
pub(crate) fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        i if i >= 63 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A lock-free log2 histogram. Shared by `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value` in one shot.
    pub(crate) fn record_n(&self, value: u64, n: u64) {
        self.buckets[bucket_of(value)].fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (saturating).
    #[must_use]
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, index = bit length of the recorded values.
    #[must_use]
    pub(crate) fn buckets(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The quantile `q` in `[0, 1]`, reported as the upper bound of the
    /// bucket holding that rank (0 when empty). Uses the same
    /// `round((len-1) * q)` rank convention as the sorted-vector
    /// percentile helpers this histogram replaced, so the two agree to
    /// within one bucket.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let buckets = self.buckets();
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return 0;
        }
        let rank = ((count - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (i, n) in buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// Folds `other`'s buckets and totals into `self` — the mirror path
    /// a scrape uses to copy a live histogram into a registry.
    pub fn merge_from(&self, other: &Histogram) {
        for (i, n) in other.buckets().iter().enumerate() {
            if *n != 0 {
                self.buckets[i].fetch_add(*n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.count.fetch_add(other.count(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sorted-vector percentile the bench bins used before
    /// consolidation — kept here verbatim as the reference the bucketed
    /// quantile is checked against.
    fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }

    #[test]
    fn bucket_of_is_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_cover_the_line() {
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(10), 1023);
        // Last bucket absorbs the clamp, so its bound tops the u64 range.
        assert_eq!(bucket_bound(63), u64::MAX);
        for i in 1..BUCKETS {
            assert!(bucket_bound(i) > bucket_bound(i - 1));
            // Every value lands in the bucket whose bound brackets it.
            assert_eq!(bucket_of(bucket_bound(i - 1) + 1), i);
            assert_eq!(bucket_of(bucket_bound(i)), i);
        }
    }

    #[test]
    fn count_and_sum() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record_n(30, 2);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 90);
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }

    /// Satellite requirement: the bucketed p50/p99 stay within one log2
    /// bucket of the exact sorted-vector values, across distributions
    /// shaped like the ones the bench bins actually feed it (latency-ish
    /// spreads, heavy repeats, a long tail).
    #[test]
    fn quantiles_within_one_bucket_of_exact() {
        let distributions: Vec<Vec<u64>> = vec![
            (1..=1000).collect(),
            (0..1000).map(|i| 500 + (i % 7) * 3).collect(),
            (0..500).map(|i| 1u64 << (i % 20)).collect(),
            vec![0; 100],
            (0..2000).map(|i| 1_000 + (i * i) % 900_000).collect(),
        ];
        for samples in distributions {
            let h = Histogram::new();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for &v in &samples {
                h.record(v);
            }
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                let exact = exact_percentile(&sorted, q);
                let bucketed = h.quantile(q);
                let (be, bb) = (bucket_of(exact), bucket_of(bucketed));
                assert!(
                    be.abs_diff(bb) <= 1,
                    "q={q}: exact {exact} (bucket {be}) vs bucketed {bucketed} (bucket {bb})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        let _ = Histogram::new().quantile(1.5);
    }
}
