//! Dependency-free SVG line charts for the reproduced figures.
//!
//! [`LineChart`] turns columns of a result [`Table`] into a
//! self-contained SVG file, so the repository ships visual counterparts
//! of the paper's Figure 1 panels next to their CSVs (`cargo run -p
//! agr-bench --bin fig1`).

use crate::report::{results_file, Table};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Colour palette for up to six series.
const COLORS: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
];

const WIDTH: f64 = 640.0;
const HEIGHT: f64 = 420.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 20.0;
const MARGIN_T: f64 = 48.0;
const MARGIN_B: f64 = 56.0;

/// One plotted series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` samples in data coordinates, in x order.
    pub points: Vec<(f64, f64)>,
}

/// A simple multi-series line chart.
///
/// # Examples
///
/// ```
/// use agr_bench::plot::{LineChart, Series};
///
/// let chart = LineChart::new("demo", "x", "y")
///     .with_series(Series { name: "a".into(), points: vec![(0.0, 0.0), (1.0, 1.0)] });
/// let svg = chart.to_svg();
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
#[derive(Debug, Clone)]
pub struct LineChart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
    y_range: Option<(f64, f64)>,
}

impl LineChart {
    /// Creates an empty chart.
    #[must_use]
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        LineChart {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
            y_range: None,
        }
    }

    /// Adds a series (builder style).
    #[must_use]
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Adds one series per column of `table` named in `columns`, plotted
    /// against column `x`, with the numbers as the table prints them
    /// (parsed back from its cells), so the chart and the CSV cannot
    /// disagree.
    ///
    /// # Panics
    ///
    /// Panics if a named column is missing or not numeric.
    #[must_use]
    pub fn with_columns(mut self, table: &Table, x: &str, columns: &[&str]) -> Self {
        let x = table
            .column(x)
            .unwrap_or_else(|| panic!("no numeric column '{x}'"));
        for &name in columns {
            let y = table
                .column(name)
                .unwrap_or_else(|| panic!("no numeric column '{name}'"));
            self.series.push(Series {
                name: name.to_string(),
                points: x.iter().copied().zip(y).collect(),
            });
        }
        self
    }

    /// Fixes the y-axis range instead of auto-scaling (e.g. `0..=1` for
    /// delivery fractions).
    #[must_use]
    pub fn with_y_range(mut self, min: f64, max: f64) -> Self {
        self.y_range = Some((min, max));
        self
    }

    fn data_bounds(&self) -> ((f64, f64), (f64, f64)) {
        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.1))
            .collect();
        let (x_min, x_max) = min_max(&xs).unwrap_or((0.0, 1.0));
        let (y_min, y_max) = self
            .y_range
            .or_else(|| min_max(&ys).map(|(lo, hi)| pad_range(lo, hi)))
            .unwrap_or((0.0, 1.0));
        ((x_min, x_max), (y_min, y_max))
    }

    /// Renders the chart as a standalone SVG document.
    #[must_use]
    pub fn to_svg(&self) -> String {
        let ((x_min, x_max), (y_min, y_max)) = self.data_bounds();
        let plot_w = WIDTH - MARGIN_L - MARGIN_R;
        let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
        let sx = |x: f64| MARGIN_L + (x - x_min) / (x_max - x_min).max(1e-12) * plot_w;
        let sy = |y: f64| MARGIN_T + plot_h - (y - y_min) / (y_max - y_min).max(1e-12) * plot_h;

        let mut svg = String::new();
        let _ = write!(
            svg,
            r##"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">"##
        );
        let _ = write!(
            svg,
            r##"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"##
        );
        // Title and axis labels.
        let _ = write!(
            svg,
            r##"<text x="{}" y="24" text-anchor="middle" font-size="15" font-weight="bold">{}</text>"##,
            WIDTH / 2.0,
            escape(&self.title)
        );
        let _ = write!(
            svg,
            r##"<text x="{}" y="{}" text-anchor="middle" font-size="12">{}</text>"##,
            MARGIN_L + plot_w / 2.0,
            HEIGHT - 12.0,
            escape(&self.x_label)
        );
        let _ = write!(
            svg,
            r##"<text x="16" y="{}" text-anchor="middle" font-size="12" transform="rotate(-90 16 {})">{}</text>"##,
            MARGIN_T + plot_h / 2.0,
            MARGIN_T + plot_h / 2.0,
            escape(&self.y_label)
        );
        // Axes box + ticks (5 per axis).
        let _ = write!(
            svg,
            r##"<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#333"/>"##
        );
        for i in 0..=4 {
            let fx = x_min + (x_max - x_min) * f64::from(i) / 4.0;
            let px = sx(fx);
            let _ = write!(
                svg,
                r##"<line x1="{px}" y1="{}" x2="{px}" y2="{}" stroke="#999" stroke-dasharray="2,4"/>"##,
                MARGIN_T,
                MARGIN_T + plot_h
            );
            let _ = write!(
                svg,
                r##"<text x="{px}" y="{}" text-anchor="middle" font-size="11">{}</text>"##,
                MARGIN_T + plot_h + 18.0,
                fmt_tick(fx)
            );
            let fy = y_min + (y_max - y_min) * f64::from(i) / 4.0;
            let py = sy(fy);
            let _ = write!(
                svg,
                r##"<line x1="{MARGIN_L}" y1="{py}" x2="{}" y2="{py}" stroke="#999" stroke-dasharray="2,4"/>"##,
                MARGIN_L + plot_w
            );
            let _ = write!(
                svg,
                r##"<text x="{}" y="{}" text-anchor="end" font-size="11">{}</text>"##,
                MARGIN_L - 6.0,
                py + 4.0,
                fmt_tick(fy)
            );
        }
        // Series.
        for (i, series) in self.series.iter().enumerate() {
            let color = COLORS[i % COLORS.len()];
            let pts: Vec<String> = series
                .points
                .iter()
                .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
                .collect();
            let _ = write!(
                svg,
                r##"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"##,
                pts.join(" ")
            );
            for &(x, y) in &series.points {
                let _ = write!(
                    svg,
                    r##"<circle cx="{:.1}" cy="{:.1}" r="3.2" fill="{color}"/>"##,
                    sx(x),
                    sy(y)
                );
            }
            // Legend entry.
            let ly = MARGIN_T + 14.0 + i as f64 * 18.0;
            let lx = MARGIN_L + 12.0;
            let _ = write!(
                svg,
                r##"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="2"/>"##,
                lx + 22.0
            );
            let _ = write!(
                svg,
                r##"<text x="{}" y="{}" font-size="12">{}</text>"##,
                lx + 28.0,
                ly + 4.0,
                escape(&series.name)
            );
        }
        svg.push_str("</svg>");
        svg
    }

    /// Writes the SVG next to the CSVs: `results/<name>.svg`, or under
    /// `AGR_RESULTS_DIR` when set (see [`Table::save_csv`]). Returns the
    /// path.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors.
    pub fn save_svg(&self, name: &str) -> PathBuf {
        let path = results_file(&format!("{name}.svg"));
        fs::write(&path, self.to_svg()).expect("write svg");
        path
    }
}

fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    let mut it = values.iter().copied().filter(|v| v.is_finite());
    let first = it.next()?;
    Some(it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
}

/// Pads an auto-scaled y range by 8 % so lines do not touch the frame.
fn pad_range(lo: f64, hi: f64) -> (f64, f64) {
    let span = (hi - lo).max(1e-9);
    ((lo - 0.08 * span).min(lo), hi + 0.08 * span)
}

fn fmt_tick(v: f64) -> String {
    if v.abs() >= 100.0 || (v.fract() == 0.0 && v.abs() >= 1.0) {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_chart() -> LineChart {
        LineChart::new("t", "x", "y")
            .with_series(Series {
                name: "a".into(),
                points: vec![(50.0, 0.9), (100.0, 0.8), (150.0, 0.7)],
            })
            .with_series(Series {
                name: "b".into(),
                points: vec![(50.0, 0.5), (100.0, 0.4), (150.0, 0.35)],
            })
    }

    #[test]
    fn svg_contains_series_and_legend() {
        let svg = demo_chart().to_svg();
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 6);
        assert!(svg.contains(">a</text>"));
        assert!(svg.contains(">b</text>"));
        assert!(svg.ends_with("</svg>"));
    }

    #[test]
    fn fixed_y_range_used() {
        let svg = demo_chart().with_y_range(0.0, 1.0).to_svg();
        // The top tick of a 0..1 range is labelled 1.00.
        assert!(svg.contains(">1.00</text>") || svg.contains(">1</text>"));
        assert!(svg.contains(">0.00</text>") || svg.contains(">0</text>"));
    }

    #[test]
    fn x_positions_are_monotone() {
        let chart = demo_chart();
        let ((x_min, x_max), _) = chart.data_bounds();
        assert_eq!((x_min, x_max), (50.0, 150.0));
    }

    #[test]
    fn escapes_markup() {
        let svg = LineChart::new("a<b & c>", "x", "y")
            .with_series(Series {
                name: "s".into(),
                points: vec![(0.0, 0.0)],
            })
            .to_svg();
        assert!(svg.contains("a&lt;b &amp; c&gt;"));
    }

    #[test]
    fn columns_chart_the_printed_numbers() {
        let mut table = Table::new(vec!["nodes", "a", "b"]);
        table.row(vec!["50".into(), format!("{:.3}", 0.91234), "0.5".into()]);
        table.row(vec!["75".into(), "0.8".into(), "0.4".into()]);
        let chart = LineChart::new("t", "x", "y").with_columns(&table, "nodes", &["a"]);
        assert_eq!(
            chart.series,
            vec![Series {
                name: "a".into(),
                points: vec![(50.0, 0.912), (75.0, 0.8)],
            }]
        );
    }

    /// Both writers resolve one results directory, so a smoke run with
    /// `AGR_RESULTS_DIR` set cannot touch the checked-in figures. The
    /// only test in this crate that sets the variable.
    #[test]
    fn svg_and_csv_land_in_agr_results_dir() {
        let dir = std::env::temp_dir().join(format!("agr-results-dir-{}", std::process::id()));
        std::env::set_var("AGR_RESULTS_DIR", &dir);
        let svg = demo_chart().save_svg("chart");
        let csv = Table::new(vec!["x"]).save_csv("table");
        std::env::remove_var("AGR_RESULTS_DIR");
        assert_eq!(svg, dir.join("chart.svg"));
        assert_eq!(csv, dir.join("table.csv"));
        assert_eq!(fs::read_to_string(&svg).unwrap(), demo_chart().to_svg());
        assert_eq!(fs::read_to_string(&csv).unwrap(), "x\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_chart_renders() {
        let svg = LineChart::new("empty", "x", "y").to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(!svg.contains("polyline"));
    }
}
