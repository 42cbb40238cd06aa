//! The repository's benchmark: six workloads, end-to-end and per-layer
//! metrics, one stamped output. See `benchmark/README.md`.
//!
//! Subcommands:
//!
//! * `run --workload <name> --seed <n> --seconds <s> --trace <0|1>` —
//!   one workload in this process; the driver's entry point. The last
//!   line of stdout is the result object.
//! * `run-all --seed <n> [--seconds <s>] [--out <file>]` — every workload,
//!   each in its own sequential child process (so `VmHWM` is per
//!   workload), untraced; writes a result file for `compare`.
//! * `traced --seed <n> [--seconds <s>] [--out <file>]` — the same with
//!   `--trace 1`: spans, counting allocator, frame observer, probes and
//!   the ALS ladder; prints the per-layer metrics.
//! * `compare <a.json> <b.json>` — per workload × end-to-end metric:
//!   both medians, the delta, the bound, and a verdict.

mod alloc;
mod als;
mod cluster;
mod compare;
mod json;
mod ladder;
mod model;
mod openloop;
mod pin;
mod plan;
mod probes;
mod report;
mod sim;
mod spec;
mod stats;
mod trace;
mod zipf;

use json::Json;
use report::{Outcome, RunArgs, Stamp};
use sim::SimKind;
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where trace files, result files and probe scratch go: inside the
/// benchmark's own directory, relative to the directory the command is
/// run from (the root of the checkout).
fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// Writes a workload's spans to `benchmark/out/trace-<workload>.json`.
fn write_trace(workload: &str, tracer: &trace::Tracer, outcome: &mut Outcome) {
    let path = out_dir().join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, tracer.to_json(workload).render()));
    match written {
        Ok(()) => outcome.notes.push(format!(
            "{} spans recorded; trace written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => outcome
            .violations
            .push(format!("could not write {}: {e}", path.display())),
    }
}

/// Runs one workload in this process.
fn run_workload(name: &str, args: &RunArgs, spec: &Spec) -> Option<Outcome> {
    let mut outcome = match name {
        "sim_agfw_dense" => sim::run(SimKind::AgfwDense, args, spec),
        "sim_gpsr_dense" => sim::run(SimKind::GpsrDense, args, spec),
        "sim_aant_crypto" => sim::run(SimKind::AantCrypto, args, spec),
        "als_udp_sat" => als::run_sat(args, spec),
        "als_udp_paced" => als::run_paced(args, spec),
        "cluster_r2" => cluster::run(args, spec),
        _ => return None,
    };
    if args.trace {
        // Layer unit costs and the ladder do not depend on the workload;
        // every traced run reports them next to the workload's own
        // counts and spans.
        let _ = std::fs::create_dir_all(out_dir());
        probes::run_all(&mut outcome.per_layer, &out_dir());
        ladder::run(&mut outcome, args.seed);
    } else {
        let missing = outcome.end_to_end.missing().join(", ");
        outcome.check(missing.is_empty(), || {
            format!("end-to-end metrics never measured: {missing}")
        });
    }
    Some(outcome)
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let seconds: u64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => cli.files.push(PathBuf::from(file)),
        }
    }
    Ok(cli)
}

/// `run`: one workload here; the result object is the last line.
fn cmd_run(cli: &Cli, spec: &Spec) -> Result<bool, String> {
    let name = cli.workload.as_deref().ok_or("run needs --workload")?;
    // Before any thread exists, so that every thread inherits the mask.
    let nproc = report::nproc();
    let pinned = pin::pin_to_one_cpu();
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(spec.run_seconds),
        trace: cli.trace,
    };
    let mut outcome = run_workload(name, &args, spec).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; BENCHMARK.json lists: {}",
            spec.workloads.join(", ")
        )
    })?;
    // Part of the configuration: a pinned and an unpinned run are not
    // comparable, and the hash keeps `compare` from trying.
    outcome.config += if pinned {
        " affinity=one-cpu"
    } else {
        " affinity=unpinned"
    };
    let stamp = Stamp::new(&args, &outcome.config, nproc);
    outcome.print(&stamp, args.trace);
    Ok(outcome.correct())
}

/// `run-all` / `traced`: each workload in its own child process, one
/// after the other, so peak RSS is per workload and nothing contends
/// with the workload being measured.
fn cmd_run_all(cli: &Cli, spec: &Spec, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let seconds = cli.seconds.unwrap_or(spec.run_seconds);
    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in &spec.workloads {
        let output = std::process::Command::new(&exe)
            .args(["run", "--workload", workload])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut record = None;
        for line in stdout.lines() {
            if let Some(json) = line.strip_prefix("record ") {
                record = Some(Json::parse(json).map_err(|e| format!("{workload} record: {e}"))?);
            } else if !line.starts_with('{') {
                println!("{line}");
            }
        }
        let record = record.ok_or_else(|| format!("{workload} printed no record"))?;
        all_correct &=
            output.status.success() && record.get("correct").and_then(Json::as_bool) == Some(true);
        records.push(record);
        println!();
    }
    let path = cli.out.clone().unwrap_or_else(|| {
        out_dir().join(format!(
            "{}-seed{}.json",
            if trace { "traced" } else { "run-all" },
            cli.seed
        ))
    });
    write_result_file(&path, records)?;
    println!("result file: {}", path.display());
    Ok(all_correct)
}

fn write_result_file(path: &Path, records: Vec<Json>) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let doc = Json::obj([("workloads", Json::Arr(records))]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: agr-benchmark <run|run-all|traced|compare> [flags]");
        return ExitCode::from(2);
    };
    let spec = Spec::load();
    let result = parse_cli(rest).and_then(|cli| match command.as_str() {
        "run" => cmd_run(&cli, &spec),
        "run-all" => cmd_run_all(&cli, &spec, false),
        "traced" => cmd_run_all(&cli, &spec, true),
        "compare" => compare::run(&cli.files, &spec),
        other => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // A failed correctness check or a breached bound.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("agr-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
