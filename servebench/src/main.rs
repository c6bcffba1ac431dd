//! servebench — the served-path benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload hot_bulk --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Builds the workload from `(seed, workload)`, computes every answer
//! on an in-process reference, starts two backend `PolicyServer`s
//! behind a `ClusterFront` on loopback, and measures. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs the layer ledger
//! instead (see `ledger.rs`). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod conn;
mod ledger;
mod load;
mod stack;
mod workload;

use check::{Expected, Tally};
use conn::{CallRef, Conn};
use load::{median, quantile, Cursor, Phase};
use stack::Stack;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Plan, Rng, Workload};

/// Stacks built per run; `setup_s` is their median set-up time.
const SETUPS: usize = 5;

/// Idle time before each measured slice, so one slice's load does not
/// spill into the next one's figures.
const PAUSE: Duration = Duration::from_millis(50);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 40u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (hot_small, hot_bulk, cold_churn)")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}

/// One metric in the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
pub struct Outcome {
    pub tally: Tally,
    /// Why the run's measurements cannot be trusted, if they cannot.
    pub invalid: Option<&'static str>,
    pub metrics: Vec<Metric>,
}

fn run(args: &Args) -> std::io::Result<()> {
    let w = args.workload;
    let plan = Arc::new(w.generate(args.seed));
    // The reference answers are the checker's, computed before any
    // timing starts.
    let t0 = Instant::now();
    let mut reference = stack::reference_service();
    let exp = Arc::new(Expected::build(&plan, &mut reference));
    drop(reference);
    println!(
        "workload {} seed {}: {} warm-up calls, {} measured calls of {} requests; reference answers in {:.2} s",
        w.name(),
        args.seed,
        plan.warm.len(),
        plan.calls.len(),
        w.drive().batch,
        t0.elapsed().as_secs_f64()
    );
    let budget = Duration::from_secs(args.seconds);
    let out = if args.trace {
        ledger::run(w, &plan, &exp, budget, args.seed)?
    } else {
        end_to_end(w, &plan, &exp, budget, args.seed)?
    };
    let t = &out.tally;
    println!(
        "checker: {} attempted, {} compared, {} wrong, {} refused, {} other errors",
        t.attempted, t.compared, t.wrong, t.refused, t.errors
    );
    if let Some(p) = &t.first_problem {
        println!("checker: first problem: {p}");
    }
    if let Some(why) = out.invalid {
        println!("run INVALID: {why}");
    }
    let correct = out.invalid.is_none() && t.failed() == 0 && t.compared == t.attempted;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.failed(),
        metrics.join(", ")
    );
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Brings a fresh stack to the workload's steady state: bind, connect,
/// serve the warm-up calls. Returns the stack, the connection, the
/// warm-up's check tally and the set-up time.
fn set_up(plan: &Arc<Plan>, exp: &Arc<Expected>) -> std::io::Result<(Stack, Conn, Tally, f64)> {
    let t0 = Instant::now();
    let stack = Stack::start()?;
    let mut conn = Conn::connect(stack.addr(), Arc::clone(plan), Arc::clone(exp))?;
    for k in 0..plan.warm.len() {
        conn.submit(CallRef::Warm(k), Instant::now())?;
        conn.wait_below(1)?;
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let tally = conn.take().tally;
    Ok((stack, conn, tally, setup_s))
}

/// Brings up [`SETUPS`] stacks, keeping the last; returns it with the
/// median set-up time.
fn set_up_median(
    plan: &Arc<Plan>,
    exp: &Arc<Expected>,
    tally: &mut Tally,
) -> std::io::Result<(Stack, Conn, f64)> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let (stack, conn, warm, s) = set_up(plan, exp)?;
        tally.merge(&warm);
        times.push(s);
        if i + 1 == SETUPS {
            kept = Some((stack, conn));
        } else {
            conn.close()?;
            stack.shutdown();
        }
    }
    let (stack, conn) = kept.expect("at least one set-up");
    Ok((stack, conn, median(&times)))
}

/// The measured phases are cut into this many rounds, each a closed
/// slice, a light slice and a busy slice. The declared figures are
/// medians over the rounds, so a neighbour's burst on the shared host
/// that lands in a few rounds moves none of them.
const ROUNDS: usize = 16;

/// Shares of the run's time: closed loop, light open loop, busy open
/// loop.
const CLOSED_SHARE: f64 = 0.4;
const LIGHT_SHARE: f64 = 0.4;
const BUSY_SHARE: f64 = 0.2;

/// Untimed closed loop between set-up and the first round, so the
/// first round does not pay for cold threads and caches.
const WARM_UP: Duration = Duration::from_millis(500);

fn end_to_end(
    w: Workload,
    plan: &Arc<Plan>,
    exp: &Arc<Expected>,
    budget: Duration,
    seed: u64,
) -> std::io::Result<Outcome> {
    let drive = w.drive();
    let mut tally = Tally::default();
    let (stack, mut conn, setup_s) = set_up_median(plan, exp, &mut tally)?;
    let mut cursor = Cursor::new(plan.calls.len());
    let mut rng = Rng::new(seed ^ 0x6f70_656e_6c6f_6f70);
    let slice = |share: f64| budget.mul_f64(share / ROUNDS as f64);
    // Open slices long enough that the rounds together reach the
    // minimum of calls at the offered rate.
    let open_slice = |share: f64, rate: f64| {
        let needed = 1.05 * load::MIN_OPEN_CALLS as f64 / rate / ROUNDS as f64;
        slice(share).max(Duration::from_secs_f64(needed))
    };
    let warm = load::closed(&mut conn, &mut cursor, drive.window, WARM_UP)?;
    tally.merge(&warm.tally);
    let (mut closed, mut light, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        // The last round's open slices run on until each open phase
        // has its minimum of calls in total.
        let short = |done: &[Phase]| {
            let sent: usize = done.iter().map(|p| p.calls).sum();
            if round + 1 == ROUNDS {
                load::MIN_OPEN_CALLS.saturating_sub(sent)
            } else {
                0
            }
        };
        std::thread::sleep(PAUSE);
        closed.push(load::closed(
            &mut conn,
            &mut cursor,
            drive.window,
            slice(CLOSED_SHARE),
        )?);
        std::thread::sleep(PAUSE);
        let min = short(&light);
        light.push(load::open(
            &mut conn,
            &mut cursor,
            drive.light_cps,
            open_slice(LIGHT_SHARE, drive.light_cps),
            min,
            &mut rng,
        )?);
        std::thread::sleep(PAUSE);
        let min = short(&busy);
        busy.push(load::open(
            &mut conn,
            &mut cursor,
            drive.busy_cps,
            open_slice(BUSY_SHARE, drive.busy_cps),
            min,
            &mut rng,
        )?);
    }
    conn.close()?;
    stack.shutdown();

    let round_rps: Vec<f64> = closed.iter().map(Phase::goodput_rps).collect();
    let round_p50: Vec<f64> = light.iter().map(|p| quantile(&p.latency_us, 0.5)).collect();
    println!("rounds: throughput_rps {}", round_list(&round_rps));
    println!("rounds: p50_us {}", round_list(&round_p50));
    let throughput = median(&round_rps);
    let p50 = median(&round_p50);
    let (closed, light, busy) = (
        Phase::concat(&closed),
        Phase::concat(&light),
        Phase::concat(&busy),
    );
    for p in [&closed, &light, &busy] {
        tally.merge(&p.tally);
    }
    let canary = host_canary_ns();
    let rss = peak_rss_mb();
    report_phase("closed", &closed, None);
    report_phase("light", &light, Some(drive.light_cps));
    report_phase("busy", &busy, Some(drive.busy_cps));
    println!("throughput_rps {throughput:.1}, p50_us {p50:.1} (medians over {ROUNDS} rounds)");
    let lags = [light.lag_us.as_slice(), busy.lag_us.as_slice()].concat();
    let lag_p99 = quantile(&lags, 0.99);
    println!(
        "loadgen.lag_p99_us {lag_p99:.1} (n={})",
        light.lag_us.len() + busy.lag_us.len()
    );
    println!("host.canary_ns {canary:.1}");
    println!("setup_s {setup_s:.4} (median of {SETUPS})");
    let total = tally.attempted.max(1) as f64;
    println!(
        "error_rate {:.6} ({} of {} requests failed, refused or wrong)",
        tally.failed() as f64 / total,
        tally.failed(),
        tally.attempted
    );
    let invalid = if !generator_kept_up(&lags) {
        Some(FELL_BEHIND)
    } else if light.calls.min(busy.calls) < load::MIN_OPEN_CALLS {
        Some("an open-loop phase ended with fewer than 1000 calls")
    } else {
        None
    };
    Ok(Outcome {
        metrics: vec![
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
            Metric {
                name: "throughput_rps",
                value: throughput,
                unit: "req/s",
            },
            Metric {
                name: "p50_us",
                value: p50,
                unit: "us",
            },
            Metric {
                name: "correct_ratio",
                value: tally.correct() as f64 / total,
                unit: "ratio",
            },
            Metric {
                name: "peak_rss_mb",
                value: rss,
                unit: "MiB",
            },
        ],
        tally,
        invalid,
    })
}

/// The generator fell behind when its median send lag exceeds this:
/// the typical call went out late, so the offered rate was not the
/// frozen one. (Its p99 lag is reported, not judged: a host stall
/// delays a few sends without the generator losing its schedule.)
const MAX_LAG_P50_US: f64 = 1000.0;

pub const FELL_BEHIND: &str = "the load generator fell behind its schedule";

pub fn generator_kept_up(lag_us: &[f64]) -> bool {
    quantile(lag_us, 0.5) <= MAX_LAG_P50_US
}

fn round_list(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.0}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn report_phase(name: &str, p: &Phase, rate: Option<f64>) {
    match rate {
        None => println!(
            "{name}: {} calls in {:.3} s, {:.1} correct req/s",
            p.calls,
            p.elapsed_s,
            p.goodput_rps()
        ),
        Some(r) => {
            let (p99, windows) = load::windowed_quantile(&p.latency_us, 0.99);
            println!(
                "{name}: {} calls at {r} calls/s offered, p50 {:.1} us (n={}), p99 {p99:.1} us (median of {windows} windows of n≥{}; whole phase {:.1} us), lag p99 {:.1} us",
                p.calls,
                quantile(&p.latency_us, 0.5),
                p.latency_us.len(),
                p.latency_us.len() / windows,
                quantile(&p.latency_us, 0.99),
                quantile(&p.lag_us, 0.99)
            )
        }
    }
}

/// A fixed pure-CPU loop on the factorized kernel (N = 12): the median
/// ns per evaluation over five rounds. A host slowdown moves it; a
/// change to the served stack does not.
pub fn host_canary_ns() -> f64 {
    use econcast_core::{NodeParams, ThroughputMode};
    use econcast_statespace::{FactorizedWorkspace, GibbsParams};
    let nodes: Vec<NodeParams> = (0..12)
        .map(|i| NodeParams::new((2.0 + 3.0 * i as f64) * 1e-6, 500e-6, 450e-6))
        .collect();
    let eta: Vec<f64> = (0..12).map(|i| 200.0 + 10.0 * i as f64).collect();
    let mut ws = FactorizedWorkspace::new(12);
    let params = GibbsParams {
        nodes: &nodes,
        eta: &eta,
        sigma: 0.5,
        mode: ThroughputMode::Groupput,
    };
    const ROUNDS: usize = 5;
    const EVALS: u32 = 4000;
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..EVALS {
                ws.compute(std::hint::black_box(&params));
                std::hint::black_box(ws.expected_throughput());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(EVALS)
        })
        .collect();
    median(&rounds)
}

/// The process's high-water resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
