//! Plain-text tables and CSV output for the experiment binaries.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A simple column-aligned table that can also be saved as CSV.
///
/// # Examples
///
/// ```
/// use agr_bench::Table;
///
/// let mut t = Table::new(vec!["nodes", "delivery"]);
/// t.row(vec!["50".into(), "0.98".into()]);
/// let text = t.to_string();
/// assert!(text.contains("nodes"));
/// assert!(text.contains("0.98"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// The numbers in the column headed `header`, parsed back from their
    /// cells: what a reader of the CSV sees, not the unrounded values the
    /// cells were formatted from. `None` if there is no such column or a
    /// cell is not a number.
    #[must_use]
    pub(crate) fn column(&self, header: &str) -> Option<Vec<f64>> {
        let i = self.headers.iter().position(|h| h == header)?;
        self.rows.iter().map(|row| row[i].parse().ok()).collect()
    }

    /// Writes the CSV to `results/<name>.csv`, or under `AGR_RESULTS_DIR`
    /// when set, and returns the path.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — these binaries exist to produce the file.
    pub fn save_csv(&self, name: &str) -> PathBuf {
        let path = results_file(&format!("{name}.csv"));
        fs::write(&path, self.to_csv()).expect("write csv");
        path
    }
}

/// The path of `file` in the results directory, which this creates:
/// `results/`, or `AGR_RESULTS_DIR` when set, so smoke runs (CI,
/// `scripts/check.sh`) can write somewhere disposable instead of
/// clobbering the checked-in full-settings tables and figures.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub(crate) fn results_file(file: &str) -> PathBuf {
    let dir =
        std::env::var_os("AGR_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from);
    fs::create_dir_all(&dir).expect("create results dir");
    dir.join(file)
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.to_string();
        assert!(s.contains("long-header"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["a,b".into()]);
        t.row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn column_reads_back_the_printed_numbers() {
        let mut t = Table::new(vec!["nodes", "delivery"]);
        t.row(vec!["50".into(), format!("{:.3}", 0.98765)]);
        t.row(vec!["75".into(), "0.5".into()]);
        assert_eq!(t.column("nodes"), Some(vec![50.0, 75.0]));
        assert_eq!(t.column("delivery"), Some(vec![0.988, 0.5]));
        assert_eq!(t.column("latency"), None);
        t.row(vec!["100".into(), "n/a".into()]);
        assert_eq!(t.column("delivery"), None);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
