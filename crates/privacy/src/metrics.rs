//! Anonymity-set metrics.
//!
//! A pseudonymous sighting hides in the crowd of nodes that *could* have
//! produced it. The paper's §3.1.2 measures AANT anonymity by ring size
//! (`(k+1)`-anonymous); for plain ANT the natural measure is the number
//! of nodes physically positioned to have transmitted from the observed
//! location — computed here, along with the entropy form.

use agr_geom::Point;

/// Number of nodes that could plausibly have produced a transmission
/// observed at `obs_pos`: those within `radius` metres of it (the
/// adversary's localisation uncertainty, e.g. the radio range for a
/// passive sniffer without direction finding).
#[must_use]
pub(crate) fn candidate_set_size(obs_pos: Point, node_positions: &[Point], radius: f64) -> usize {
    node_positions
        .iter()
        .filter(|p| p.within_range(obs_pos, radius))
        .count()
}

/// Shannon entropy (bits) of a uniform anonymity set of `size` members:
/// `log2(size)`. Zero for empty or singleton sets — a singleton set is
/// full identification.
#[must_use]
pub fn anonymity_entropy(size: usize) -> f64 {
    if size <= 1 {
        0.0
    } else {
        (size as f64).log2()
    }
}

/// Mean candidate-set size over a collection of observation positions.
#[must_use]
pub fn mean_candidate_set(observations: &[Point], node_positions: &[Point], radius: f64) -> f64 {
    if observations.is_empty() {
        return 0.0;
    }
    observations
        .iter()
        .map(|&o| candidate_set_size(o, node_positions, radius) as f64)
        .sum::<f64>()
        / observations.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_nodes_in_radius() {
        let nodes = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(500.0, 0.0),
        ];
        assert_eq!(candidate_set_size(Point::ORIGIN, &nodes, 250.0), 2);
        assert_eq!(candidate_set_size(Point::ORIGIN, &nodes, 600.0), 3);
        assert_eq!(
            candidate_set_size(Point::new(-1000.0, 0.0), &nodes, 250.0),
            0
        );
    }

    #[test]
    fn entropy_of_small_sets() {
        assert_eq!(anonymity_entropy(0), 0.0);
        assert_eq!(anonymity_entropy(1), 0.0);
        assert_eq!(anonymity_entropy(2), 1.0);
        assert_eq!(anonymity_entropy(8), 3.0);
    }

    #[test]
    fn mean_candidate_set_averages() {
        let nodes = vec![Point::new(0.0, 0.0), Point::new(300.0, 0.0)];
        let obs = vec![Point::new(0.0, 0.0), Point::new(300.0, 0.0)];
        // Each observation sees exactly one node within 250 m.
        assert_eq!(mean_candidate_set(&obs, &nodes, 250.0), 1.0);
        assert_eq!(mean_candidate_set(&[], &nodes, 250.0), 0.0);
    }
}
