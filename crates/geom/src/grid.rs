use crate::{Point, Rect};
use std::fmt;

/// Identifier of one cell in a [`Grid`], as `(column, row)` indices.
///
/// The DLM location service (Xue et al.) maps a node identity to a set of
/// cells hosting its location servers; `CellId` is the stable name for such
/// a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Column index, counted from the west edge.
    pub col: u32,
    /// Row index, counted from the south edge.
    pub row: u32,
}

impl CellId {
    /// Creates a cell id for `(col, row)`.
    #[must_use]
    pub(crate) const fn new(col: u32, row: u32) -> Self {
        CellId { col, row }
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}r{}", self.col, self.row)
    }
}

/// A uniform square-cell partition of a deployment area.
///
/// This is the spatial substrate of the DLM grid location service: "the
/// network is divided into grids of the same size. Each node could
/// determine some special grids, where its location servers are, by mapping
/// its identity to it" (paper §3.3).
///
/// # Examples
///
/// ```
/// use agr_geom::{Grid, Point, Rect};
///
/// let grid = Grid::new(Rect::with_size(1500.0, 300.0), 250.0);
/// assert_eq!((grid.cols(), grid.rows()), (6, 2));
/// let cell = grid.cell_of(Point::new(700.0, 100.0));
/// assert!(grid.cell_rect(cell).contains(Point::new(700.0, 100.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    area: Rect,
    cell_size: f64,
    cols: u32,
    rows: u32,
}

impl Grid {
    /// Partitions `area` into square cells of side `cell_size` metres.
    ///
    /// Cells on the east/north edges may be truncated if the area's size is
    /// not an exact multiple of `cell_size`; every point of the area still
    /// belongs to exactly one cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive or the area is
    /// degenerate (zero width or height).
    #[must_use]
    pub fn new(area: Rect, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        assert!(
            area.width() > 0.0 && area.height() > 0.0,
            "grid area must have positive extent"
        );
        let cols = (area.width() / cell_size).ceil().max(1.0) as u32;
        let rows = (area.height() / cell_size).ceil().max(1.0) as u32;
        Grid {
            area,
            cell_size,
            cols,
            rows,
        }
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total number of cells.
    #[must_use]
    pub fn cell_count(&self) -> u32 {
        self.cols * self.rows
    }

    /// The cell containing `p`.
    ///
    /// Points outside the area are clamped to the nearest cell, so the
    /// result is always a valid cell; mobility keeps nodes inside the area,
    /// but packets may quote slightly stale out-of-area coordinates.
    #[must_use]
    pub fn cell_of(&self, p: Point) -> CellId {
        let p = self.area.clamp(p);
        let col = ((p.x - self.area.min().x) / self.cell_size) as u32;
        let row = ((p.y - self.area.min().y) / self.cell_size) as u32;
        CellId::new(col.min(self.cols - 1), row.min(self.rows - 1))
    }

    /// The rectangle covered by `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range for this grid.
    #[must_use]
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        assert!(
            cell.col < self.cols && cell.row < self.rows,
            "cell {cell} out of range for {}x{} grid",
            self.cols,
            self.rows
        );
        let min = Point::new(
            self.area.min().x + f64::from(cell.col) * self.cell_size,
            self.area.min().y + f64::from(cell.row) * self.cell_size,
        );
        let max = Point::new(
            (min.x + self.cell_size).min(self.area.max().x),
            (min.y + self.cell_size).min(self.area.max().y),
        );
        Rect::new(min, max)
    }

    /// The centre point of `cell`.
    ///
    /// DLM-style location services geo-route update and request packets
    /// *towards the cell centre*; whichever node currently sits in the cell
    /// acts as the server.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range for this grid.
    #[must_use]
    pub fn cell_center(&self, cell: CellId) -> Point {
        self.cell_rect(cell).center()
    }

    /// Maps an arbitrary 64-bit value (e.g. a hash of a node identity) to a
    /// cell, uniformly over the grid.
    ///
    /// This is the `ssa(x)` server-selection primitive of the paper's
    /// Algorithm 3.3: a *publicly known, fixed* association from identity to
    /// server cell.
    #[must_use]
    pub fn cell_for_key(&self, key: u64) -> CellId {
        let idx = (key % u64::from(self.cell_count())) as u32;
        CellId::new(idx % self.cols, idx / self.cols)
    }

    /// Iterates over all cells in row-major order.
    pub fn iter_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        let cols = self.cols;
        (0..self.cell_count()).map(move |i| CellId::new(i % cols, i / cols))
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} grid of {:.0} m cells over {}",
            self.cols, self.rows, self.cell_size, self.area
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_grid() -> Grid {
        Grid::new(Rect::with_size(1500.0, 300.0), 250.0)
    }

    #[test]
    fn paper_area_splits_into_6_by_2() {
        let g = paper_grid();
        assert_eq!(g.cols(), 6);
        assert_eq!(g.rows(), 2);
        assert_eq!(g.cell_count(), 12);
    }

    #[test]
    fn non_divisible_area_rounds_up() {
        let g = Grid::new(Rect::with_size(1000.0, 300.0), 300.0);
        assert_eq!((g.cols(), g.rows()), (4, 1));
        // Truncated east column still covers the area edge.
        let east = g.cell_rect(CellId::new(3, 0));
        assert_eq!(east.max().x, 1000.0);
    }

    #[test]
    fn cell_of_matches_cell_rect() {
        let g = paper_grid();
        let p = Point::new(770.0, 260.0);
        let cell = g.cell_of(p);
        assert_eq!(cell, CellId::new(3, 1));
        assert!(g.cell_rect(cell).contains(p));
    }

    #[test]
    fn out_of_area_points_clamp() {
        let g = paper_grid();
        assert_eq!(g.cell_of(Point::new(-10.0, -10.0)), CellId::new(0, 0));
        assert_eq!(g.cell_of(Point::new(9999.0, 9999.0)), CellId::new(5, 1));
    }

    #[test]
    fn boundary_point_belongs_to_upper_cell_until_edge() {
        let g = paper_grid();
        // x = 250 is the western edge of column 1.
        assert_eq!(g.cell_of(Point::new(250.0, 0.0)).col, 1);
        // The extreme east edge clamps into the last column.
        assert_eq!(g.cell_of(Point::new(1500.0, 300.0)), CellId::new(5, 1));
    }

    #[test]
    fn cell_for_key_covers_all_cells() {
        let g = paper_grid();
        let mut seen = std::collections::HashSet::new();
        for key in 0..u64::from(g.cell_count()) {
            seen.insert(g.cell_for_key(key));
        }
        assert_eq!(seen.len() as u32, g.cell_count());
        // And wraps around deterministically.
        assert_eq!(g.cell_for_key(0), g.cell_for_key(u64::from(g.cell_count())));
    }

    #[test]
    fn iter_cells_row_major() {
        let g = Grid::new(Rect::with_size(2.0, 2.0), 1.0);
        let cells: Vec<_> = g.iter_cells().collect();
        assert_eq!(
            cells,
            vec![
                CellId::new(0, 0),
                CellId::new(1, 0),
                CellId::new(0, 1),
                CellId::new(1, 1)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_rect_rejects_out_of_range() {
        let _ = paper_grid().cell_rect(CellId::new(6, 0));
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_rejected() {
        let _ = Grid::new(Rect::with_size(10.0, 10.0), 0.0);
    }

    #[test]
    fn cell_center_is_inside_cell() {
        let g = paper_grid();
        for cell in g.iter_cells() {
            assert!(g.cell_rect(cell).contains(g.cell_center(cell)));
        }
    }
}
