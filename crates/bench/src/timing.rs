//! A tiny measurement harness (offline stand-in for criterion).
//!
//! Auto-calibrates the iteration count so each benchmark runs for
//! roughly [`TARGET_SECONDS`], then reports mean / best wall-clock per
//! iteration. Also the engine behind `repro --bench-json`.

use std::time::Instant;

/// Target measurement time per benchmark.
pub const TARGET_SECONDS: f64 = 2.0;

/// One registered benchmark: a name and a repeatable workload.
pub struct Bench {
    /// Display / filter name.
    pub name: &'static str,
    workload: Box<dyn FnMut()>,
}

impl Bench {
    /// Wraps a workload closure.
    pub fn new(name: &'static str, workload: impl FnMut() + 'static) -> Self {
        Bench {
            name,
            workload: Box::new(workload),
        }
    }
}

/// Result of measuring one benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Iterations measured (after warm-up).
    pub iterations: u64,
    /// Mean seconds per iteration.
    pub mean_s: f64,
    /// Fastest single batch, seconds per iteration.
    pub best_s: f64,
}

impl Measurement {
    /// Iterations per second at the mean.
    pub fn throughput(&self) -> f64 {
        if self.mean_s > 0.0 {
            1.0 / self.mean_s
        } else {
            f64::INFINITY
        }
    }
}

/// Human-readable time with an adaptive unit.
pub fn format_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Measures one workload: warm-up run, calibration, then batched
/// timing until [`TARGET_SECONDS`] of samples accumulate.
pub fn measure(name: &str, workload: &mut dyn FnMut()) -> Measurement {
    // Warm-up + calibration: time a single iteration.
    let t0 = Instant::now();
    workload();
    let once = t0.elapsed().as_secs_f64().max(1e-9);

    // Pick a batch size aiming at ~10 batches within the target time.
    let batch = ((TARGET_SECONDS / 10.0 / once).ceil() as u64).clamp(1, 1_000_000);
    let mut iterations = 0u64;
    let mut total = 0.0f64;
    let mut best = f64::INFINITY;
    while total < TARGET_SECONDS && iterations < 10_000_000 {
        let t = Instant::now();
        for _ in 0..batch {
            workload();
        }
        let dt = t.elapsed().as_secs_f64();
        total += dt;
        iterations += batch;
        best = best.min(dt / batch as f64);
        if once > TARGET_SECONDS {
            break; // a single iteration already exceeds the budget
        }
    }
    Measurement {
        name: name.to_string(),
        iterations,
        mean_s: total / iterations as f64,
        best_s: best,
    }
}

/// Measures two variants of one workload that share state, in
/// alternating rounds (`false`, `true`, `false`, …) until each has
/// accumulated [`TARGET_SECONDS`]. Host drift — clock frequency, a
/// neighbour's load — and run order then fall on both rows alike, so
/// their ratio measures the variants, not when each ran. The first
/// measurement is `names[0]` (`false`), the second `names[1]`.
pub fn measure_alternating(names: [&str; 2], workload: &mut dyn FnMut(bool)) -> [Measurement; 2] {
    // Warm-up + calibration on both variants.
    let once = [false, true].map(|v| {
        let t0 = Instant::now();
        workload(v);
        t0.elapsed().as_secs_f64().max(1e-9)
    });
    // ~20 rounds per variant within the target time.
    let batch = once.map(|o| ((TARGET_SECONDS / 20.0 / o).ceil() as u64).clamp(1, 1_000_000));
    let mut iterations = [0u64; 2];
    let mut total = [0.0f64; 2];
    let mut best = [f64::INFINITY; 2];
    while total.iter().any(|&t| t < TARGET_SECONDS) && iterations[0] < 10_000_000 {
        for (v, variant) in [false, true].into_iter().enumerate() {
            let t = Instant::now();
            for _ in 0..batch[v] {
                workload(variant);
            }
            let dt = t.elapsed().as_secs_f64();
            total[v] += dt;
            iterations[v] += batch[v];
            best[v] = best[v].min(dt / batch[v] as f64);
        }
        if once.iter().any(|&o| o > TARGET_SECONDS) {
            break; // a single iteration already exceeds the budget
        }
    }
    [0, 1].map(|v| Measurement {
        name: names[v].to_string(),
        iterations: iterations[v],
        mean_s: total[v] / iterations[v] as f64,
        best_s: best[v],
    })
}

/// Runs benchmarks whose name contains `filter` (all when `None`),
/// printing a criterion-like report line per entry.
pub fn run_benchmarks(benches: Vec<Bench>, filter: Option<&str>) {
    let mut ran = 0;
    for mut b in benches {
        if let Some(f) = filter {
            if !b.name.contains(f) {
                continue;
            }
        }
        let m = measure(b.name, &mut *b.workload);
        ran += 1;
        println!(
            "{:<34} {:>12}/iter (best {:>12}, {} iters)",
            m.name,
            format_seconds(m.mean_s),
            format_seconds(m.best_s),
            m.iterations
        );
    }
    if ran == 0 {
        eprintln!("no benchmark matched the filter");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_numbers() {
        let mut count = 0u64;
        let m = measure("spin", &mut || {
            count = count.wrapping_add(1);
            std::hint::black_box(count);
        });
        assert!(m.iterations > 0);
        assert!(m.mean_s > 0.0);
        assert!(m.best_s <= m.mean_s * 1.5 + 1e-9);
        assert!(m.throughput() > 1.0);
    }

    #[test]
    fn alternating_rounds_interleave_both_variants() {
        let (mut last, mut switches, mut on_calls) = (None, 0u64, 0u64);
        let [off, on] = measure_alternating(["off", "on"], &mut |v| {
            if last.is_some_and(|l| l != v) {
                switches += 1;
            }
            last = Some(v);
            on_calls += u64::from(v);
            std::hint::black_box(on_calls);
        });
        assert_eq!((off.name.as_str(), on.name.as_str()), ("off", "on"));
        assert!(off.iterations > 0 && on.iterations > 0);
        assert_eq!(on_calls, on.iterations + 1, "one calibration call each");
        // Rounds alternate: the variant changes many times, not once.
        assert!(switches >= 10, "{switches} switches");
    }

    #[test]
    fn formatting_picks_units() {
        assert!(format_seconds(2.5).ends_with(" s"));
        assert!(format_seconds(2.5e-3).ends_with(" ms"));
        assert!(format_seconds(2.5e-6).ends_with(" µs"));
        assert!(format_seconds(2.5e-9).ends_with(" ns"));
    }
}
