//! Small shared helpers for the `repro_*` binaries.

use serde::Serialize;
use std::path::{Path, PathBuf};

/// `--fast` trims workload sizes and training budgets for smoke runs.
pub fn flag_fast() -> bool {
    std::env::args().any(|a| a == "--fast")
}

/// `--seed N` overrides the default experiment seed.
pub fn arg_seed(default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Directory JSON results are written to (`results/` at the repo root,
/// overridable with `AMLIGHT_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var("AMLIGHT_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Write a full run's report to the tracked artifact `path` (a
/// `BENCH_*.json` at the repo root). A `--fast` smoke run prints the JSON
/// to stdout instead, so it can never overwrite the committed full-run
/// numbers. Failures are reported, not fatal.
pub fn write_bench_artifact<T: Serialize>(path: &str, value: &T, fast: bool) {
    match serde_json::to_string_pretty(value) {
        Ok(json) if fast => println!("{json}"),
        Ok(json) => match std::fs::write(path, json) {
            Ok(()) => eprintln!("(wrote {path})"),
            Err(e) => eprintln!("warn: cannot write {path}: {e}"),
        },
        Err(e) => eprintln!("warn: cannot serialize {path}: {e}"),
    }
}

/// Serialize `value` to `results/<name>.json`, creating the directory.
/// Failures are reported, not fatal — the printed table is the primary
/// artifact.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warn: cannot create {}: {e}", dir.display());
        return;
    }
    let path: &Path = &dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warn: cannot write {}: {e}", path.display());
            } else {
                eprintln!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("warn: cannot serialize {name}: {e}"),
    }
}

/// Print a section header.
pub fn banner(title: &str) {
    println!("\n== {title} ==");
}
