//! Exact order statistics over raw sample vectors.
//!
//! Every percentile the benchmark reports is computed by sorting the
//! samples — never from `agr_telemetry::Histogram`, whose log2 buckets
//! make a p50 jump 4 → 8 → 64 µs between identical runs.

/// Median, quartiles and sample count of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A metric measured once per run (a count, a peak): no spread.
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Summarises repetitions. Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method), the
    /// same rule the driver applies across runs, so the spread printed
    /// here and the spread the driver computes are the same quantity.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        }
    }
}

/// `(q1, median, q3)` of an ascending slice (exclusive method; with a
/// single sample all three are that sample).
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The nearest-rank percentile `p` in `(0, 1]` of an ascending slice:
/// the smallest sample with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "a percentile needs at least one sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Tail percentiles worth asking for, lowest first.
const TAILS: [(f64, &str); 4] = [
    (0.90, "p90"),
    (0.99, "p99"),
    (0.999, "p999"),
    (0.9999, "p9999"),
];

/// The 1-based rank of nearest-rank percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Fewest samples that must lie beyond a percentile for it to be
/// reported: below this, the "percentile" is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// The highest tail percentile with at least [`MIN_BEYOND`] samples
/// beyond it, as `(p, label)`; `None` when even p90 is unsupported
/// (fewer than 100 samples).
pub fn highest_supported_tail(n: usize) -> Option<(f64, &'static str)> {
    TAILS
        .iter()
        .rev()
        .find(|(p, _)| beyond(n, *p) >= MIN_BEYOND)
        .copied()
}

/// Whether percentile `p` of `n` samples has [`MIN_BEYOND`] samples
/// beyond it.
pub fn tail_supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&sorted, 0.001), 1);
        // No bucketing: neighbours one unit apart stay distinguishable.
        assert_eq!(percentile(&[40, 41, 42], 0.5), 41);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some((0.90, "p90")));
        assert_eq!(highest_supported_tail(999), Some((0.90, "p90")));
        assert_eq!(highest_supported_tail(1_000), Some((0.99, "p99")));
        assert_eq!(highest_supported_tail(9_999), Some((0.99, "p99")));
        assert_eq!(highest_supported_tail(10_000), Some((0.999, "p999")));
        assert_eq!(highest_supported_tail(100_000), Some((0.9999, "p9999")));
        assert!(tail_supported(1_000, 0.99));
        assert!(!tail_supported(999, 0.99));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 3));
    }
}
