//! Offline stand-in for the [`criterion`](https://docs.rs/criterion) crate.
//!
//! The build environment has no crates.io access, so the workspace maps the
//! dependency name `criterion` onto this crate. It keeps the authoring
//! surface the workspace's `benches/` use — [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`BenchmarkId`], [`black_box`] and the
//! [`criterion_group!`] / [`criterion_main!`] macros — backed by a small
//! wall-clock harness: warm up, calibrate an iteration count to a fixed
//! measurement budget, then report mean / min / max time per iteration.
//!
//! There is no statistical regression machinery; the output is a plain
//! `name  time: [mean min..max]` line per benchmark, which is enough to
//! compare hot paths before/after a change (end-to-end performance is
//! measured separately, by `benchmark/`).
//!
//! Under `cargo test` (which runs `harness = false` bench targets too)
//! each benchmark executes a single iteration so the suite stays fast —
//! the same smoke-test behaviour upstream criterion has in test mode.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-iteration timing for one benchmark.
#[derive(Debug, Clone, Copy)]
struct Sample {
    mean: Duration,
    min: Duration,
    max: Duration,
    iters: u64,
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.4} s", d.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.4} ms", d.as_secs_f64() * 1e3)
    } else if nanos >= 1_000 {
        format!("{:.4} µs", d.as_secs_f64() * 1e6)
    } else {
        format!("{nanos} ns")
    }
}

/// The measurement driver passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    budget: Duration,
    smoke: bool,
    sample: Option<Sample>,
}

impl Bencher {
    /// Times `routine`, running it enough iterations to fill the
    /// measurement budget.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        if self.smoke {
            black_box(routine());
            self.sample = Some(Sample {
                mean: Duration::ZERO,
                min: Duration::ZERO,
                max: Duration::ZERO,
                iters: 1,
            });
            return;
        }

        // Warm-up + calibration: time single iterations until we know
        // roughly how many fit in the budget.
        let calibration_start = Instant::now();
        let mut one = Duration::MAX;
        let mut warmups = 0u64;
        while warmups < 3 || calibration_start.elapsed() < self.budget / 10 {
            let t = Instant::now();
            black_box(routine());
            one = one.min(t.elapsed());
            warmups += 1;
            if warmups >= 1000 {
                break;
            }
        }

        let per_batch =
            (self.budget.as_nanos() / 8 / one.as_nanos().max(1)).clamp(1, 1_000_000) as u64;
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        let mut min = Duration::MAX;
        let mut max = Duration::ZERO;
        let measure_start = Instant::now();
        while measure_start.elapsed() < self.budget {
            let t = Instant::now();
            for _ in 0..per_batch {
                black_box(routine());
            }
            let elapsed = t.elapsed();
            let per_iter = elapsed / u32::try_from(per_batch).unwrap_or(u32::MAX);
            min = min.min(per_iter);
            max = max.max(per_iter);
            total += elapsed;
            iters += per_batch;
        }

        self.sample = Some(Sample {
            mean: total / u32::try_from(iters).unwrap_or(u32::MAX),
            min,
            max,
            iters,
        });
    }
}

/// Identifies one parameterised benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id built from a function name and a parameter.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{parameter}", function_name.into()),
        }
    }

    /// An id naming only the parameter, as upstream's `from_parameter`.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// The top-level benchmark driver, mirroring `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    budget: Duration,
    smoke: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo test` runs harness = false bench binaries with the
        // `--test` flag absent but no bench filter either; cargo sets
        // `--bench` only for `cargo bench`. Detect test mode the way
        // upstream does: `cargo bench` passes `--bench` to the binary.
        let bench_mode = std::env::args().any(|a| a == "--bench");
        Criterion {
            budget: Duration::from_millis(300),
            smoke: !bench_mode,
        }
    }
}

impl Criterion {
    /// Applies command-line configuration (accepted for API parity; the
    /// only recognised behaviour is bench-vs-test mode detection, done in
    /// `default()`).
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Sets the per-benchmark measurement budget.
    #[must_use]
    pub fn measurement_time(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }

    fn run_one(&mut self, id: &str, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            budget: self.budget,
            smoke: self.smoke,
            sample: None,
        };
        f(&mut bencher);
        match bencher.sample {
            Some(s) if !self.smoke => println!(
                "{id:<40} time: [{} {}..{}]  ({} iters)",
                format_duration(s.mean),
                format_duration(s.min),
                format_duration(s.max),
                s.iters,
            ),
            Some(_) => println!("{id:<40} ok (smoke)"),
            None => println!("{id:<40} skipped (no iter call)"),
        }
    }

    /// Runs one named benchmark.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        self.run_one(id, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }
}

/// A named group of benchmarks, mirroring `criterion::BenchmarkGroup`.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Sets the target sample count (accepted for API parity; the
    /// wall-clock harness sizes batches by time budget instead).
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Sets the per-benchmark measurement budget for this group.
    pub fn measurement_time(&mut self, budget: Duration) -> &mut Self {
        self.criterion.budget = budget;
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into().id);
        self.criterion.run_one(&id, f);
        self
    }

    /// Runs one benchmark parameterised by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.id);
        self.criterion.run_one(&id, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// Declares a group of benchmark functions, mirroring upstream.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $config.configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, mirroring upstream.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion {
            budget: Duration::from_millis(5),
            smoke: false,
        };
        let mut runs = 0u64;
        c.bench_function("counts", |b| b.iter(|| runs += 1));
        assert!(runs > 0);
    }

    #[test]
    fn smoke_mode_runs_once() {
        let mut c = Criterion {
            budget: Duration::from_millis(5),
            smoke: true,
        };
        let mut runs = 0u64;
        c.bench_function("smoke", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 1);
    }

    #[test]
    fn groups_compose() {
        let mut c = Criterion {
            budget: Duration::from_millis(2),
            smoke: true,
        };
        let mut group = c.benchmark_group("g");
        group.sample_size(10);
        group.bench_function(BenchmarkId::from_parameter(64), |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::new("param", 3), &3u32, |b, &x| {
            b.iter(|| x * 2)
        });
        group.finish();
    }
}
