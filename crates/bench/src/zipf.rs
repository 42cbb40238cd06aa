//! Inverse-CDF zipfian sampler.
//!
//! The replicated cluster harness (`cluster_harness`) draws keys from a
//! skewed popularity law: the CDF is precomputed at construction and
//! sampling is a binary search, cheap enough to sit inside a load loop
//! and shareable read-only across client threads.

use rand::rngs::StdRng;
use rand::Rng;

/// Inverse-CDF zipfian sampler over ranks `0..n` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the normalized CDF for `n` ranks with exponent `s`
    /// (`n` of 0 behaves as 1).
    #[must_use]
    pub fn new(n: usize, s: f64) -> Zipf {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false — the constructor guarantees at least one rank.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The rank for a uniform draw `u` in `[0, 1)` — the RNG-agnostic
    /// core, usable with any uniform source.
    #[must_use]
    pub fn rank_for(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Samples a rank using `rng`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        self.rank_for(rng.random())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ranks_are_in_range_and_skewed_towards_zero() {
        let zipf = Zipf::new(1_000, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0usize;
        let draws = 20_000;
        for _ in 0..draws {
            let rank = zipf.sample(&mut rng);
            assert!(rank < 1_000);
            if rank < 10 {
                head += 1;
            }
        }
        // Under s=0.99 the top 10 of 1000 ranks carry roughly a quarter
        // of the mass; uniform would give 1%.
        assert!(
            head > draws / 10,
            "zipf head too light: {head} of {draws} draws in the top 10 ranks"
        );
    }

    #[test]
    fn rank_for_is_monotone_and_total() {
        let zipf = Zipf::new(64, 1.1);
        assert_eq!(zipf.rank_for(0.0), 0);
        assert_eq!(zipf.rank_for(0.999_999_9), 63);
        let mut last = 0;
        for i in 0..=100 {
            let rank = zipf.rank_for(f64::from(i) / 100.0);
            assert!(rank >= last, "rank_for must be monotone in u");
            last = rank;
        }
    }
}
