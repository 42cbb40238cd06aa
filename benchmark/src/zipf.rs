//! Seeded inverse-CDF Zipf sampler.
//!
//! The benchmark carries its own copy (rather than depending on
//! `agr-bench`, which later changes will refactor) so the key stream a
//! seed produces can never shift under it. The CDF is precomputed;
//! a draw is one uniform number and a binary search.

use rand::rngs::StdRng;
use rand::Rng;

/// Zipf distribution over ranks `0..n` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the normalised CDF (`n` of 0 behaves as 1).
    pub fn new(n: usize, s: f64) -> Zipf {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// The rank for a uniform draw `u` in `[0, 1)`.
    pub fn rank_for(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        self.rank_for(rng.random())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn same_seed_same_ranks_and_other_seed_differs() {
        let zipf = Zipf::new(50_000, 0.99);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..1_000).map(|_| zipf.sample(&mut rng)).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn ranks_are_in_range_and_skewed_to_the_head() {
        let zipf = Zipf::new(1_000, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 20_000;
        let head = (0..draws)
            .map(|_| zipf.sample(&mut rng))
            .inspect(|&r| assert!(r < 1_000))
            .filter(|&r| r < 10)
            .count();
        // The top 10 of 1000 ranks carry ~39% of the mass at s = 0.99;
        // uniform would give 1%.
        assert!(head > draws / 4, "zipf head too light: {head} of {draws}");
        assert_eq!(zipf.rank_for(0.0), 0);
        assert_eq!(zipf.rank_for(0.999_999_999), 999);
    }
}
