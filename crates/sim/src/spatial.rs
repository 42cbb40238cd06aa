//! Incremental uniform-grid index over node positions.
//!
//! The simulator no longer uses this index: on the paper's 1500 m × 300 m
//! strip it has 3 × 1 cells, so every probe returned every node, and the
//! world now filters its receiver scan against a position snapshot
//! instead (`world::may_sense`). It remains because the benchmark's
//! `sim.spatial.*` probes time it.
//!
//! `crate::phy`'s `start_tx` must find every node within carrier-sense
//! range of a transmitter. A linear scan costs O(N) per transmission; this
//! index buckets nodes into square cells at least as large as the
//! carrier-sense range plus a staleness slack, so probing the 3×3 block of
//! cells around the transmitter is guaranteed to cover the whole
//! carrier-sense disk even when bucketed positions lag true positions by
//! up to one refresh interval.
//!
//! **Coverage argument.** Let `c` be the cell side, `R` the carrier-sense
//! range, and `s` the maximum distance a node can move between bucket
//! refreshes. If node `j`'s *true* distance to the transmitter is at most
//! `R`, its *bucketed* position is within `R + s` of the transmitter, so
//! both of its axis offsets are at most `R + s ≤ c` — which puts its cell
//! within the 3×3 block around the transmitter's cell. The PHY then
//! re-checks exact current distances, so over-approximation never changes
//! the receiver set, and candidates are reported in ascending node order
//! so the event schedule is identical to a full linear scan.

use agr_geom::{CellId, Grid, Point, Rect};

/// A bucketed snapshot of node positions supporting conservative
/// neighborhood queries.
///
/// Public so the benchmark can time the grid query; the simulator itself
/// no longer uses it.
#[derive(Debug)]
pub struct NeighborGrid {
    grid: Grid,
    /// Row-major cell buckets; each holds node ids in ascending order.
    buckets: Vec<Vec<usize>>,
    /// Flat (row-major) cell index each node currently occupies.
    cell_of_node: Vec<usize>,
}

impl NeighborGrid {
    /// Builds the index from an initial position snapshot.
    ///
    /// `cell_size` must be at least the carrier-sense range plus the
    /// maximum inter-refresh displacement (asserted by the caller, which
    /// knows the mobility parameters).
    pub fn new(area: Rect, cell_size: f64, positions: &[Point]) -> Self {
        let grid = Grid::new(area, cell_size);
        let mut index = NeighborGrid {
            buckets: vec![Vec::new(); grid.cell_count() as usize],
            cell_of_node: vec![0; positions.len()],
            grid,
        };
        // Ascending node order keeps every bucket sorted.
        for (node, &p) in positions.iter().enumerate() {
            let cell = index.flat_cell(p);
            index.cell_of_node[node] = cell;
            index.buckets[cell].push(node);
        }
        index
    }

    fn flat_cell(&self, p: Point) -> usize {
        let cell = self.grid.cell_of(p);
        (cell.row as usize) * (self.grid.cols() as usize) + cell.col as usize
    }

    /// Moves `node`'s bucketed position to `pos`.
    pub fn update(&mut self, node: usize, pos: Point) {
        let new_cell = self.flat_cell(pos);
        let old_cell = self.cell_of_node[node];
        if new_cell == old_cell {
            return;
        }
        let old = &mut self.buckets[old_cell];
        let at = old.binary_search(&node).expect("node missing from bucket");
        old.remove(at);
        let bucket = &mut self.buckets[new_cell];
        let at = bucket.binary_search(&node).unwrap_err();
        bucket.insert(at, node);
        self.cell_of_node[node] = new_cell;
    }

    /// All nodes whose bucketed position lies in the 3×3 block of cells
    /// around `center`, in ascending node order.
    ///
    /// A superset of every node within `cell_size − slack` of `center`;
    /// callers must re-check exact distances.
    pub fn candidates(&self, center: Point) -> Vec<usize> {
        let mut out = Vec::new();
        self.candidates_into(center, &mut out);
        out
    }

    /// [`NeighborGrid::candidates`] into a caller-owned buffer, which is
    /// cleared first.
    pub(crate) fn candidates_into(&self, center: Point, out: &mut Vec<usize>) {
        let CellId { col, row } = self.grid.cell_of(center);
        let cols = self.grid.cols();
        let rows = self.grid.rows();
        out.clear();
        for r in row.saturating_sub(1)..=(row + 1).min(rows - 1) {
            for c in col.saturating_sub(1)..=(col + 1).min(cols - 1) {
                out.extend_from_slice(&self.buckets[(r as usize) * (cols as usize) + c as usize]);
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_positions(n: usize, area: Rect, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| area.point_at(rng.random_range(0.0..=1.0), rng.random_range(0.0..=1.0)))
            .collect()
    }

    #[test]
    fn candidates_cover_the_cs_disk() {
        let area = Rect::with_size(3000.0, 3000.0);
        let cs = 550.0;
        for seed in 0..20 {
            let positions = random_positions(60, area, seed);
            let index = NeighborGrid::new(area, cs + 30.0, &positions);
            for (i, &p) in positions.iter().enumerate() {
                let cands = index.candidates(p);
                for (j, &q) in positions.iter().enumerate() {
                    if p.distance(q) <= cs {
                        assert!(cands.contains(&j), "node {j} missing near node {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn candidates_sorted_ascending() {
        let area = Rect::with_size(2000.0, 2000.0);
        let positions = random_positions(80, area, 7);
        let index = NeighborGrid::new(area, 600.0, &positions);
        for &p in &positions {
            let cands = index.candidates(p);
            assert!(cands.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn updates_move_nodes_between_cells() {
        let area = Rect::with_size(2000.0, 2000.0);
        let mut positions = random_positions(40, area, 3);
        let mut index = NeighborGrid::new(area, 600.0, &positions);
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..50 {
            let node = rng.random_range(0..positions.len());
            let p = area.point_at(rng.random_range(0.0..=1.0), rng.random_range(0.0..=1.0));
            positions[node] = p;
            index.update(node, p);
            // The index still covers every 550 m disk exactly.
            for (i, &center) in positions.iter().enumerate() {
                let cands = index.candidates(center);
                for (j, &q) in positions.iter().enumerate() {
                    if center.distance(q) <= 550.0 {
                        assert!(cands.contains(&j), "step {step}: {j} missing near {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn small_area_degenerates_to_full_scan() {
        // The paper's 1500 m × 300 m area with 580 m cells is a 3×1 grid:
        // a 3×3 probe returns every node, which is exactly the linear
        // behaviour — correct, if not faster.
        let area = Rect::with_size(1500.0, 300.0);
        let positions = random_positions(50, area, 1);
        let index = NeighborGrid::new(area, 580.0, &positions);
        let cands = index.candidates(Point::new(750.0, 150.0));
        assert_eq!(cands, (0..50).collect::<Vec<_>>());
    }
}
