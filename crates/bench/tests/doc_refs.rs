//! The documentation names only binaries, protocols and result files that
//! exist.
//!
//! A deleted bin, a retired `simulate --protocol` name or a dropped CSV
//! otherwise lingers in the Markdown for as long as nobody tries the
//! command. This checks three kinds of reference:
//! - every `--bin <name>` in the top-level docs and `results/README.md`
//!   names a file in `crates/bench/src/bin/`;
//! - every `--protocol <name>` there parses with
//!   [`ProtocolKind::from_name`];
//! - `results/README.md`'s file table lists exactly the files in
//!   `results/`.

use agr_bench::ProtocolKind;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "results/README.md",
];

/// Files in `results/` that its README describes in prose rather than in
/// the file table: the README itself and the benchmark's exact counts.
const UNTABLED: [&str; 2] = ["README.md", "BENCHMARK_exact.json"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(doc: &str) -> String {
    fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"))
}

/// The word after each `flag ` in `text`, with its line number. A
/// placeholder such as `<name>` yields no word and is skipped.
fn arguments<'a>(text: &'a str, flag: &str) -> Vec<(usize, &'a str)> {
    let needle = format!("{flag} ");
    let mut found = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices(&needle) {
            let rest = &line[at + needle.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(rest.len());
            if end > 0 {
                found.push((i + 1, &rest[..end]));
            }
        }
    }
    found
}

#[test]
fn every_bin_named_in_the_docs_exists() {
    let bins = root().join("crates/bench/src/bin");
    let mut stale = Vec::new();
    for doc in DOCS {
        for (line, name) in arguments(&read(doc), "--bin") {
            if !bins.join(format!("{name}.rs")).is_file() {
                stale.push(format!("{doc}:{line}: --bin {name}"));
            }
        }
    }
    assert!(stale.is_empty(), "no such bin:\n{}", stale.join("\n"));
}

#[test]
fn every_protocol_named_in_the_docs_parses() {
    let mut stale = Vec::new();
    for doc in DOCS {
        for (line, name) in arguments(&read(doc), "--protocol") {
            if ProtocolKind::from_name(name).is_none() {
                stale.push(format!("{doc}:{line}: --protocol {name}"));
            }
        }
    }
    assert!(stale.is_empty(), "no such protocol:\n{}", stale.join("\n"));
}

#[test]
fn results_readme_tables_exactly_the_result_files() {
    // First cell of each table row: one or more backticked file names.
    let tabled: BTreeSet<String> = read("results/README.md")
        .lines()
        .filter_map(|row| row.strip_prefix("| `"))
        .flat_map(|row| {
            let cell = row.split('|').next().unwrap_or_default();
            format!("`{cell}")
                .split('`')
                .skip(1)
                .step_by(2)
                .map(str::to_owned)
                .collect::<Vec<_>>()
        })
        .collect();
    let on_disk: BTreeSet<String> = fs::read_dir(root().join("results"))
        .expect("results/ exists")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| !UNTABLED.contains(&name.as_str()))
        .collect();
    assert_eq!(
        tabled, on_disk,
        "results/README.md's table (left) and results/ (right) differ"
    );
}
