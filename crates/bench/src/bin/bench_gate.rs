//! `bench_gate` — the CI bench-regression gate.
//!
//! ```text
//! bench_gate --fresh FILE [--baseline-dir DIR] [--max-regression PCT]
//!            [--max-latency-regression PCT] [--max-metrics-overhead PCT]
//! ```
//!
//! Compares the fresh `BENCH_*.json` against the newest committed
//! baseline (by `created_unix`) in `DIR` (default `.`) whose `threads`
//! matches the fresh run's — numbers are machine- and thread-specific,
//! so only like compares with like. Exits 1 when any shared kernel or
//! service throughput regressed by more than `PCT` percent (default
//! 30), or any shared service p99 latency *grew* by more than the
//! latency threshold (default 50). Exits 0 with a notice when no
//! comparable baseline exists (a fresh machine or thread count is not
//! a regression).
//!
//! One check binds even without a baseline: `warm_rps_metrics_on`, the
//! always-on metrics-plane overhead. The fresh record's warm batch-256
//! row with recording on must hold within `--max-metrics-overhead`
//! percent (default 5) of its recording-off twin from the *same* run —
//! paired within one record, so machine speed divides out and the
//! contract holds from the first run on any machine.
//!
//! Every check runs before the gate decides: all failures print, then
//! the gate exits 1, so one failing check never hides another.

use econcast_bench::gate::{
    bench_doc, gate_failures, metrics_overhead_check, parse_json, ratio_rows, BenchDoc,
    METRICS_OVERHEAD_BATCH,
};
use std::path::{Path, PathBuf};

fn load(path: &Path) -> Result<BenchDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    bench_doc(&parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(fresh_path) = flag("--fresh").map(PathBuf::from) else {
        eprintln!(
            "usage: bench_gate --fresh FILE [--baseline-dir DIR] [--max-regression PCT] \
             [--max-latency-regression PCT] [--max-metrics-overhead PCT]"
        );
        std::process::exit(2);
    };
    let baseline_dir = PathBuf::from(flag("--baseline-dir").unwrap_or_else(|| ".".into()));
    let max_loss = match flag("--max-regression").as_deref() {
        None => 0.30,
        Some(v) => match v.parse::<f64>() {
            Ok(pct) if pct > 0.0 && pct < 100.0 => pct / 100.0,
            _ => {
                eprintln!("--max-regression expects a percentage in (0, 100), got `{v}`");
                std::process::exit(2);
            }
        },
    };
    // Latency regressions have no 100% ceiling — a p99 can triple.
    let max_lat_gain = match flag("--max-latency-regression").as_deref() {
        None => 0.50,
        Some(v) => match v.parse::<f64>() {
            Ok(pct) if pct > 0.0 => pct / 100.0,
            _ => {
                eprintln!("--max-latency-regression expects a positive percentage, got `{v}`");
                std::process::exit(2);
            }
        },
    };

    let max_metrics_loss = match flag("--max-metrics-overhead").as_deref() {
        None => 0.05,
        Some(v) => match v.parse::<f64>() {
            Ok(pct) if pct > 0.0 && pct < 100.0 => pct / 100.0,
            _ => {
                eprintln!("--max-metrics-overhead expects a percentage in (0, 100), got `{v}`");
                std::process::exit(2);
            }
        },
    };

    let fresh = match load(&fresh_path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_gate: cannot load fresh record: {e}");
            std::process::exit(2);
        }
    };

    // The always-on-overhead contract is paired within the fresh record
    // itself, so it binds on a brand-new machine with nothing committed
    // yet. Its failure is reported with every other one at the end.
    match metrics_overhead_check(&fresh, max_metrics_loss) {
        Ok(Some((warm, on))) => println!(
            "bench_gate: warm_rps_metrics_on OK — {on:.0} req/s recording vs {warm:.0} req/s \
             off at batch {METRICS_OVERHEAD_BATCH} ({:+.2}% , budget {:.0}%)",
            (on / warm - 1.0) * 100.0,
            max_metrics_loss * 100.0
        ),
        Ok(None) => println!(
            "bench_gate: warm_rps_metrics_on skipped — no warm batch-{METRICS_OVERHEAD_BATCH} \
             row in this (filtered) record"
        ),
        Err(_) => {}
    }

    // Newest committed baseline at the same thread count, skipping the
    // fresh file itself if it happens to live in the baseline dir.
    let fresh_canon = std::fs::canonicalize(&fresh_path).ok();
    let mut baselines: Vec<(PathBuf, BenchDoc)> = Vec::new();
    let dir = match std::fs::read_dir(&baseline_dir) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_gate: cannot read {}: {e}", baseline_dir.display());
            std::process::exit(2);
        }
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        if std::fs::canonicalize(&path).ok() == fresh_canon {
            continue;
        }
        match load(&path) {
            Ok(doc) if doc.threads == fresh.threads => baselines.push((path, doc)),
            Ok(doc) => eprintln!(
                "bench_gate: skipping {} (threads {} != {})",
                path.display(),
                doc.threads,
                fresh.threads
            ),
            Err(e) => eprintln!("bench_gate: skipping unreadable baseline: {e}"),
        }
    }
    let baseline = baselines.into_iter().max_by_key(|(_, d)| d.created_unix);
    match &baseline {
        None => println!(
            "bench_gate: no committed baseline matches threads={}; no baseline rows to gate",
            fresh.threads
        ),
        Some((base_path, baseline)) => print_table(
            &fresh_path,
            &fresh,
            base_path,
            baseline,
            max_loss,
            max_lat_gain,
        ),
    }

    let failures = gate_failures(
        &fresh,
        baseline.as_ref().map(|(_, d)| d),
        max_loss,
        max_lat_gain,
        max_metrics_loss,
    );
    if failures.is_empty() {
        if baseline.is_some() {
            println!(
                "bench_gate: OK — no throughput regressed by more than {:.0}%, \
                 no p99 latency grew by more than {:.0}%",
                max_loss * 100.0,
                max_lat_gain * 100.0
            );
        }
        return;
    }
    for f in &failures {
        eprintln!("bench_gate: REGRESSION {f}");
    }
    std::process::exit(1);
}

/// Prints the comparison header and the per-entry table. It prints on
/// every run with a baseline — a passing gate still shows where each
/// throughput moved. Fresh-only rows are informational "new" (no
/// baseline yet, never an error).
fn print_table(
    fresh_path: &Path,
    fresh: &BenchDoc,
    base_path: &Path,
    baseline: &BenchDoc,
    max_loss: f64,
    max_lat_gain: f64,
) {
    println!(
        "bench_gate: {} (sha {}, quick {}) vs baseline {} (sha {}, quick {}), \
         max regression {:.0}% (throughput), {:.0}% (p99 latency)",
        fresh_path.display(),
        fresh.git_sha,
        fresh.quick,
        base_path.display(),
        baseline.git_sha,
        baseline.quick,
        max_loss * 100.0,
        max_lat_gain * 100.0
    );
    println!(
        "{:<36} {:>14} {:>14} {:>9}",
        "entry", "baseline/s", "fresh/s", "ratio"
    );
    for row in ratio_rows(fresh, baseline) {
        let fmt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.3}"),
            None => "-".to_string(),
        };
        let note = match (row.baseline, row.fresh, row.skipped) {
            (_, _, true) => "  [skipped: quick-sensitive]",
            (None, _, _) => "  [new]",
            (_, None, _) => "  [missing from fresh run]",
            _ => "",
        };
        let ratio = match row.ratio() {
            Some(r) => format!("{r:.3}x"),
            None => "-".to_string(),
        };
        println!(
            "{:<36} {:>14} {:>14} {:>9}{note}",
            row.what,
            fmt(row.baseline),
            fmt(row.fresh),
            ratio
        );
    }
}
