//! Open-loop overload harness: drives a live cluster front with a
//! deterministic seeded arrival process at fixed multiples of its
//! measured capacity, and records what the overload-control plane did
//! about it — goodput, shed rate, degraded-serve rate, and
//! accepted-request tail latency.
//!
//! "Open loop" means arrivals do not wait for completions: requests
//! are stamped onto the wire on a schedule drawn from an exponential
//! inter-arrival process, exactly the regime where an unprotected
//! bounded-capacity server melts down (queues grow without bound,
//! every request times out). The interesting multipliers are ≥ 1×:
//! a correct shed ladder keeps goodput near capacity and the accepted
//! tail bounded, paying with explicit `Overloaded` rejections rather
//! than silent collapse.
//!
//! Capacity is *measured*, not assumed: a closed-loop calibration pass
//! over the same single-request pipelined wire unit the open loop uses
//! (window of `PIPELINE_WINDOW` in-flight tickets) fixes `1×` to what
//! this host, this build, and this stack actually sustain — so the
//! multiplier rows mean the same thing on every machine.

use econcast_cluster::{ClusterConfig, ClusterFront, ClusterRouter, FrontConfig, SlotSpec};
use econcast_service::{
    PolicyClient, PolicyRequest, PolicyServer, RouterConfig, ServerConfig, ServiceConfig,
    ServiceErrorCode,
};
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// In-flight tickets during the closed-loop calibration pass. Deep
/// enough to keep the front's pipeline busy, shallow enough that the
/// measured number is a service rate and not a queueing artifact.
const PIPELINE_WINDOW: usize = 32;

/// Size of the deterministic request pool the arrivals cycle through
/// (the same mixed workload the closed-loop service entries use).
const POOL: usize = 64;

/// Parameters of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Seed for the arrival process (xorshift64*). Same seed + same
    /// rate → the same inter-arrival schedule, every run.
    pub seed: u64,
    /// Requests per multiplier pass.
    pub requests: usize,
    /// Closed-loop requests for the capacity calibration pass (half
    /// warm-up, half timed).
    pub calibration_requests: usize,
    /// Offered-load multipliers, each a fraction of measured capacity.
    pub multipliers: Vec<f64>,
    /// Per-request deadline budget stamped on every arrival; `None`
    /// leaves requests unbudgeted (deadline_us = 0 on the wire).
    pub deadline: Option<Duration>,
    /// Client connections the arrivals round-robin across. Load must
    /// arrive on *concurrent* connections to press on the server's
    /// admission queue — a single pipelined stream serializes in the
    /// connection handler and its backlog hides in the socket buffer,
    /// never showing up as queue depth.
    pub connections: usize,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            seed: 0xEC0_CA57_0AD,
            requests: 400,
            calibration_requests: 400,
            multipliers: vec![0.5, 1.0, 2.0, 4.0],
            deadline: None,
            connections: 24,
        }
    }
}

impl OpenLoopConfig {
    /// The reduced pass for `--quick` smoke runs.
    pub fn quick() -> Self {
        OpenLoopConfig {
            requests: 120,
            calibration_requests: 120,
            ..OpenLoopConfig::default()
        }
    }
}

/// What one offered-load multiplier did to the stack.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopRow {
    /// Offered load as a fraction of measured capacity.
    pub multiplier: f64,
    /// Requests submitted this pass.
    pub offered: u64,
    /// Requests served with a result.
    pub accepted: u64,
    /// Requests answered `Overloaded`.
    pub shed: u64,
    /// Requests/sec actually offered (submitted / submit-window wall
    /// time) — trails the target when the generator itself saturates.
    pub offered_rps: f64,
    /// Accepted requests/sec over the whole pass (submit + drain).
    pub goodput_rps: f64,
    /// Fraction of requests answered `Overloaded` (explicit, with a
    /// retry hint — never a dropped request or a reset stream).
    pub shed_rate: f64,
    /// Fraction of requests served at the degraded (one decade looser)
    /// tolerance, from the server's own counters (the response payload
    /// doesn't mark it).
    pub degraded_rate: f64,
    /// Deadline expiries observed by the server during the pass.
    pub deadline_expired: u64,
    /// Typed per-request errors other than `Overloaded`. The open-loop
    /// contract is that this stays zero at every multiplier.
    pub error_count: u64,
    /// Accepted-request p50 latency (µs, submit → collect); `None`
    /// when nothing was accepted.
    pub accepted_p50_us: Option<f64>,
    /// Accepted-request p99 latency (µs).
    pub accepted_p99_us: Option<f64>,
    /// Accepted-request p99.9 latency (µs).
    pub accepted_p999_us: Option<f64>,
}

/// Result of a full open-loop run: the calibrated capacity and one row
/// per multiplier.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Closed-loop single-request capacity the multipliers scale
    /// (requests/sec at `PIPELINE_WINDOW` in-flight).
    pub capacity_rps: f64,
    /// One row per configured multiplier, in order.
    pub rows: Vec<OpenLoopRow>,
}

/// xorshift64* — deterministic, seedable, and good enough for
/// exponential inter-arrival draws. No external RNG state leaks in.
struct Xorshift64Star(u64);

impl Xorshift64Star {
    fn new(seed: u64) -> Self {
        Xorshift64Star(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in (0, 1] — open at zero so `ln` stays finite.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap (seconds) at `rate` arrivals/sec.
    fn next_gap_s(&mut self, rate: f64) -> f64 {
        -self.next_unit().ln() / rate
    }
}

/// Exact order statistic over a sorted sample (same convention as the
/// suite's tail-latency passes).
fn percentile_us(sorted: &[u64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Some(sorted[idx.min(sorted.len() - 1)] as f64)
}

/// Closed-loop capacity of the single-request pipelined wire unit:
/// keep `PIPELINE_WINDOW` batch-of-1 tickets in flight, count
/// completions per second. The first half of the pass warms caches
/// and dialer connections; only the second half is timed.
fn calibrate_capacity_rps(
    client: &mut PolicyClient,
    pool: &[PolicyRequest],
    requests: usize,
) -> io::Result<f64> {
    let timed_start = requests / 2;
    let mut fifo: VecDeque<econcast_service::Ticket> = VecDeque::new();
    let mut t0 = Instant::now();
    let mut timed = 0usize;
    for i in 0..requests {
        if i == timed_start {
            // Drain the warm-up window so its completions don't count.
            while let Some(t) = fifo.pop_front() {
                client.collect(t)?;
            }
            t0 = Instant::now();
        }
        let req = &pool[i % pool.len()];
        fifo.push_back(client.submit_batch_deadline(std::slice::from_ref(req), None)?);
        if fifo.len() >= PIPELINE_WINDOW {
            client.collect(fifo.pop_front().expect("non-empty fifo"))?;
            if i >= timed_start {
                timed += 1;
            }
        }
    }
    while let Some(t) = fifo.pop_front() {
        client.collect(t)?;
        timed += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    Ok(timed as f64 / elapsed)
}

/// One client connection's lane of the open-loop generator.
struct Lane {
    client: PolicyClient,
    inflight: VecDeque<(econcast_service::Ticket, Instant)>,
}

impl Lane {
    /// Harvests every ready completion at the lane's FIFO head,
    /// feeding (results, latency) pairs to `classify`.
    fn poll(
        &mut self,
        classify: &mut impl FnMut(Vec<econcast_service::WireResult>, Duration),
    ) -> io::Result<()> {
        while let Some((ticket, submitted)) = self.inflight.front() {
            match self.client.try_collect_frames(ticket)? {
                Some(frames) => {
                    let latency = submitted.elapsed();
                    self.inflight.pop_front();
                    classify(frames.results(), latency);
                    self.client.recycle(frames);
                }
                None => break,
            }
        }
        Ok(())
    }
}

/// One open-loop pass at a fixed arrival rate. Arrivals are submitted
/// on the seeded schedule (late submissions go out immediately —
/// lateness is reported through `offered_rps`, never silently
/// dropped), round-robin across the lanes; completions are harvested
/// opportunistically while waiting for the next arrival and drained
/// at the end.
fn open_loop_pass(
    lanes: &mut [Lane],
    pool: &[PolicyRequest],
    cfg: &OpenLoopConfig,
    rate_rps: f64,
    multiplier: f64,
) -> io::Result<OpenLoopRow> {
    let mut rng = Xorshift64Star::new(cfg.seed ^ (multiplier * 1024.0) as u64);
    let mut accepted_us: Vec<u64> = Vec::with_capacity(cfg.requests);
    let mut shed = 0u64;
    let mut errors = 0u64;

    let before = lanes[0].client.stats(None)?;

    let mut classify = |results: Vec<econcast_service::WireResult>, latency: Duration| {
        for r in results {
            match r {
                Ok(_) => accepted_us.push(latency.as_micros() as u64),
                Err(e) if e.code == ServiceErrorCode::Overloaded => shed += 1,
                Err(_) => errors += 1,
            }
        }
    };

    let start = Instant::now();
    let mut due_s = 0.0f64;
    for i in 0..cfg.requests {
        due_s += rng.next_gap_s(rate_rps);
        // Wait out the inter-arrival gap, polling lane heads while
        // idle so completion timestamps stay tight. When the generator
        // is behind schedule it skips the sweep entirely — keeping the
        // offered rate honest matters more than prompt harvesting
        // (stragglers are drained, and timestamped, at the end).
        while start.elapsed().as_secs_f64() < due_s {
            for lane in lanes.iter_mut() {
                lane.poll(&mut classify)?;
            }
            let now_s = start.elapsed().as_secs_f64();
            if now_s >= due_s {
                break;
            }
            let gap = Duration::from_secs_f64(due_s - now_s);
            std::thread::sleep(gap.min(Duration::from_micros(200)));
        }
        let req = &pool[i % pool.len()];
        let lane = &mut lanes[i % lanes.len()];
        // The submit lane's head is always harvested first, so a slow
        // pass can't blame queued-but-ready completions for latency.
        lane.poll(&mut classify)?;
        let submitted = Instant::now();
        let ticket = lane
            .client
            .submit_batch_deadline(std::slice::from_ref(req), cfg.deadline)?;
        lane.inflight.push_back((ticket, submitted));
    }
    let submit_window_s = start.elapsed().as_secs_f64().max(1e-9);

    // Blocking drain: every outstanding ticket resolves to a result or
    // an explicit error — an io failure here is a harness failure.
    for lane in lanes.iter_mut() {
        while let Some((ticket, submitted)) = lane.inflight.pop_front() {
            let results = lane.client.collect(ticket)?;
            classify(results, submitted.elapsed());
        }
    }
    let total_s = start.elapsed().as_secs_f64().max(1e-9);

    let after = lanes[0].client.stats(None)?;
    accepted_us.sort_unstable();
    let n = cfg.requests as f64;
    Ok(OpenLoopRow {
        multiplier,
        offered: cfg.requests as u64,
        accepted: accepted_us.len() as u64,
        shed,
        offered_rps: n / submit_window_s,
        goodput_rps: accepted_us.len() as f64 / total_s,
        shed_rate: shed as f64 / n,
        degraded_rate: after.degraded_serves.saturating_sub(before.degraded_serves) as f64 / n,
        deadline_expired: after
            .deadline_expired
            .saturating_sub(before.deadline_expired),
        error_count: errors,
        accepted_p50_us: percentile_us(&accepted_us, 0.50),
        accepted_p99_us: percentile_us(&accepted_us, 0.99),
        accepted_p999_us: percentile_us(&accepted_us, 0.999),
    })
}

/// Runs the full open-loop suite against a live service or cluster
/// front at `addr`: calibrate capacity on one pipelined connection,
/// then one pass per multiplier across `cfg.connections` lanes.
pub fn run_open_loop(addr: SocketAddr, cfg: &OpenLoopConfig) -> io::Result<OpenLoopReport> {
    let pool = crate::perf::service_batch(POOL);
    let mut lanes: Vec<Lane> = (0..cfg.connections.max(1))
        .map(|_| -> io::Result<Lane> {
            let client = PolicyClient::connect_with_timeout(addr, 1, Duration::from_secs(30))?;
            Ok(Lane {
                client,
                inflight: VecDeque::new(),
            })
        })
        .collect::<io::Result<_>>()?;
    let capacity_rps =
        calibrate_capacity_rps(&mut lanes[0].client, &pool, cfg.calibration_requests)?;
    let mut rows = Vec::with_capacity(cfg.multipliers.len());
    for &m in &cfg.multipliers {
        let rate = (capacity_rps * m).max(1.0);
        rows.push(open_loop_pass(&mut lanes, &pool, cfg, rate, m)?);
    }
    Ok(OpenLoopReport { capacity_rps, rows })
}

/// Everything the CI `overload-smoke` job asserts about a 2×-capacity
/// open-loop run against a deliberately small front queue.
#[derive(Debug)]
pub struct SmokeReport {
    /// Calibrated closed-loop capacity (requests/sec).
    pub capacity_rps: f64,
    /// The 2× multiplier row.
    pub row: OpenLoopRow,
    /// The front's configured admission bound.
    pub queue_capacity: usize,
    /// Peak admission-queue depth the front ever saw. Bounded memory
    /// means `<= queue_capacity`.
    pub queue_depth_peak: usize,
    /// Accepted-p99 budget (µs): `max_queue_delay` plus a generous
    /// service-time allowance derived from the calibrated capacity.
    pub p99_budget_us: f64,
}

impl SmokeReport {
    /// The smoke criteria, as (label, pass) pairs — printed by the
    /// `repro --overload-smoke` driver so a red CI log says *which*
    /// promise broke.
    pub fn checks(&self) -> Vec<(&'static str, bool)> {
        vec![
            (
                "zero caller-visible errors (typed, non-Overloaded)",
                self.row.error_count == 0,
            ),
            (
                "every request accounted (accepted + shed == offered)",
                self.row.accepted + self.row.shed == self.row.offered,
            ),
            (
                "bounded queue memory (peak <= capacity)",
                self.queue_depth_peak <= self.queue_capacity,
            ),
            (
                "accepted p99 within queue-delay + service budget",
                match self.row.accepted_p99_us {
                    Some(p99) => p99 <= self.p99_budget_us,
                    None => false, // 2× load must still accept *something*
                },
            ),
            (
                "nonzero goodput under 2x overload",
                self.row.goodput_rps > 0.0,
            ),
        ]
    }

    /// Whether every check passed.
    pub fn pass(&self) -> bool {
        self.checks().iter().all(|(_, ok)| *ok)
    }
}

/// The admission bound of the dedicated overload stack. Deliberately
/// below the generator's lane count, so concurrent connections can
/// press the queue past its degrade threshold and over the top of the
/// shed ladder — overload is exercised, not just survived.
pub const STACK_QUEUE_CAPACITY: usize = 16;

/// The dedicated stack's queueing-delay bound.
pub const STACK_MAX_QUEUE_DELAY: Duration = Duration::from_millis(10);

/// An open-loop run against the dedicated overload stack, plus the
/// front-side observations the caller can't get over the wire.
#[derive(Debug)]
pub struct StackRun {
    /// The open-loop report (calibration + one row per multiplier).
    pub report: OpenLoopReport,
    /// The front's configured admission bound ([`STACK_QUEUE_CAPACITY`]).
    pub queue_capacity: usize,
    /// Peak admission-queue depth the front ever saw across the whole
    /// run. Bounded memory means `<= queue_capacity`.
    pub queue_depth_peak: usize,
}

/// Binds a dedicated overload stack — two single-shard backends behind
/// a cluster front with a deliberately small admission queue — runs
/// the configured open-loop passes against it, and tears it down.
pub fn run_on_dedicated_stack(cfg: &OpenLoopConfig) -> io::Result<StackRun> {
    let mut backends = Vec::new();
    let mut slots = Vec::new();
    for _ in 0..2 {
        let srv = PolicyServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                router: RouterConfig {
                    shards: 1,
                    service: ServiceConfig {
                        lru_capacity: 4096,
                        ..ServiceConfig::default()
                    },
                    ..RouterConfig::default()
                },
                ..ServerConfig::default()
            },
        )?;
        let handle = srv.spawn();
        slots.push(SlotSpec::Remote(handle.addr()));
        backends.push(handle);
    }
    let front = ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(&slots, ClusterConfig::default()),
        FrontConfig {
            queue_capacity: STACK_QUEUE_CAPACITY,
            max_queue_delay: STACK_MAX_QUEUE_DELAY,
            max_connections: cfg.connections + 8,
            ..FrontConfig::default()
        },
    )?;
    let front = front.spawn();

    let result = run_open_loop(front.addr(), cfg);
    let queue_depth_peak = front.admission().depth_peak();
    front.shutdown();
    for b in backends {
        b.shutdown();
    }

    Ok(StackRun {
        report: result?,
        queue_capacity: STACK_QUEUE_CAPACITY,
        queue_depth_peak,
    })
}

/// Runs the CI smoke: a 2×-capacity open-loop pass on the dedicated
/// stack, packaged with the promises [`SmokeReport::checks`] asserts.
pub fn run_overload_smoke(quick: bool) -> io::Result<SmokeReport> {
    let cfg = OpenLoopConfig {
        multipliers: vec![2.0],
        ..if quick {
            OpenLoopConfig::quick()
        } else {
            OpenLoopConfig::default()
        }
    };
    let run = run_on_dedicated_stack(&cfg)?;

    let row = run.report.rows[0];
    // Budget: the admission bound's worst queueing delay, plus a
    // generous (16× the calibrated mean at full pipeline) allowance
    // for the request actually being served once admitted — sized as
    // a collapse detector, not a latency SLO: an accidentally
    // unbounded queue at sustained 2× blows through it, honest
    // queueing jitter on a noisy CI box does not. It self-scales:
    // a slower machine calibrates a lower capacity and earns a
    // proportionally wider allowance.
    let mean_service_us = PIPELINE_WINDOW as f64 / run.report.capacity_rps.max(1e-9) * 1e6;
    let p99_budget_us = STACK_MAX_QUEUE_DELAY.as_micros() as f64 + 16.0 * mean_service_us;

    Ok(SmokeReport {
        capacity_rps: run.report.capacity_rps,
        row,
        queue_capacity: run.queue_capacity,
        queue_depth_peak: run.queue_depth_peak,
        p99_budget_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_process_is_deterministic_and_exponential_ish() {
        let mut a = Xorshift64Star::new(42);
        let mut b = Xorshift64Star::new(42);
        let gaps_a: Vec<f64> = (0..1000).map(|_| a.next_gap_s(100.0)).collect();
        let gaps_b: Vec<f64> = (0..1000).map(|_| b.next_gap_s(100.0)).collect();
        assert_eq!(gaps_a, gaps_b, "same seed, same schedule");
        assert!(gaps_a.iter().all(|&g| g.is_finite() && g > 0.0));
        // Mean gap at rate 100/s should land near 10ms.
        let mean = gaps_a.iter().sum::<f64>() / gaps_a.len() as f64;
        assert!(
            (0.005..0.02).contains(&mean),
            "mean gap {mean} far from 1/rate"
        );
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&sorted, 0.50), Some(51.0));
        assert_eq!(percentile_us(&sorted, 0.99), Some(99.0));
        assert_eq!(percentile_us(&sorted, 1.0), Some(100.0));
        assert_eq!(percentile_us(&[], 0.5), None);
    }

    #[test]
    fn queue_peak_via_the_shared_gauge_matches_the_bespoke_reference() {
        // The bespoke queue-peak accounting the admission controller
        // used before the shared `econcast-metrics` gauge replaced it:
        // depth is a plain counter, and only a *held* slot advances
        // the peak (a shed held no slot). This pin holds the swapped
        // implementation to the old rule step by step, on the same
        // seeded admit/release schedule the open-loop harness draws
        // its arrivals from — so the peak the harness reports
        // (`StackRun::queue_depth_peak`) is identical before and
        // after the swap.
        use econcast_service::{Admission, AdmissionController};
        let ctl = AdmissionController::new(STACK_QUEUE_CAPACITY, STACK_MAX_QUEUE_DELAY);
        let mut rng = Xorshift64Star::new(0xEC0_CA57_0AD);
        let (mut ref_depth, mut ref_peak, mut sheds) = (0usize, 0usize, 0usize);
        for step in 0..4000 {
            // Arrivals outnumber drains 3:1, so the queue genuinely
            // fills, saturates, and presses against capacity — every
            // rung of the ladder gets traffic.
            if rng.next_unit() < 0.75 {
                let got = ctl.admit();
                ref_depth += 1;
                if ref_depth > STACK_QUEUE_CAPACITY {
                    ref_depth -= 1; // a shed holds no slot, no peak
                    sheds += 1;
                    assert!(matches!(got, Admission::Shed { .. }), "step {step}");
                } else {
                    ref_peak = ref_peak.max(ref_depth);
                    assert!(!matches!(got, Admission::Shed { .. }), "step {step}");
                }
            } else if ref_depth > 0 {
                let n = 1 + (rng.next_u64() as usize) % ref_depth.min(3);
                ctl.release(n, Duration::from_micros(50 * n as u64));
                ref_depth -= n;
            }
            assert_eq!(ctl.depth(), ref_depth, "depth diverged at step {step}");
            assert_eq!(ctl.depth_peak(), ref_peak, "peak diverged at step {step}");
        }
        // The schedule presses to capacity and sheds past it, and the
        // peak never exceeds the bound.
        assert_eq!(ref_peak, STACK_QUEUE_CAPACITY, "peak is the capacity");
        assert!(sheds > 0, "schedule never pressed past capacity");
        // And the harness-visible number *is* the scraped gauge's
        // high-water mark — one object feeds the ladder and a metrics
        // scrape.
        assert_eq!(
            ctl.metrics()
                .gauge(econcast_metrics::GAUGE_QUEUE_DEPTH_PEAK) as usize,
            ctl.depth_peak()
        );
    }

    #[test]
    fn open_loop_against_a_single_server_accounts_for_every_request() {
        // The harness itself, end to end, against a plain (non-cluster)
        // server: every submitted request must come back accepted or
        // explicitly shed — nothing dropped, no stream errors.
        let handle = PolicyServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                router: RouterConfig {
                    shards: 1,
                    service: ServiceConfig {
                        workers: Some(1),
                        ..ServiceConfig::default()
                    },
                    ..RouterConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("bind")
        .spawn();
        let cfg = OpenLoopConfig {
            requests: 60,
            calibration_requests: 60,
            multipliers: vec![1.0, 2.0],
            connections: 4,
            ..OpenLoopConfig::default()
        };
        let report = run_open_loop(handle.addr(), &cfg).expect("open loop");
        assert!(report.capacity_rps > 0.0);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert_eq!(row.error_count, 0, "no typed errors at {}x", row.multiplier);
            assert_eq!(
                row.accepted + row.shed,
                row.offered,
                "every request accounted at {}x",
                row.multiplier
            );
            assert!(row.offered_rps > 0.0);
            if row.accepted > 0 {
                assert!(
                    row.accepted_p50_us.is_some(),
                    "accepted requests have tails"
                );
            }
        }
        handle.shutdown();
    }
}
