//! The `repro --bench-json` kernel suite.
//!
//! Runs a fixed set of workloads covering the workspace's hot paths —
//! exact (P4) solves at N ∈ {8, 12, 16}, the homogeneous fast path at
//! N = 1000, and the simulator on a 7×7 grid — and emits a
//! `BENCH_<git-sha>.json` record with wall-clock and throughput
//! numbers. Committed baselines let future performance PRs show their
//! before/after on the same suite.
//!
//! The (P4) workloads run a *fixed* iteration budget (`tol = 0`), so
//! every run measures an identical amount of work regardless of
//! convergence luck. `p4_solve_n12_naive` re-solves the same instance
//! through [`summarize_naive`], reproducing the pre-workspace
//! implementation (two enumeration passes per iteration, fresh
//! allocations), which is the denominator of the headline
//! `p4_n12_speedup_vs_naive` figure.

use crate::timing::{format_seconds, measure, measure_alternating, Measurement};
use econcast_cluster::{
    ClusterConfig, ClusterFront, ClusterHealer, ClusterRouter, FrontConfig, HealerConfig,
    RemoteConfig, SlotSpec,
};
use econcast_core::{NodeParams, ProtocolConfig, ThroughputMode};
use econcast_service::{
    PolicyClient, PolicyRequest, PolicyServer, PolicyService, RouterConfig, ServerConfig,
    ServiceConfig,
};
use econcast_sim::{SimConfig, Simulator};
use econcast_statespace::gibbs::{summarize_naive, GibbsParams, GibbsSummary};
use econcast_statespace::{
    FactorizedWorkspace, HomogeneousP4, KernelSelect, P4Options, P4Solver, SummaryWorkspace,
};
use std::hint::black_box;

fn params() -> NodeParams {
    NodeParams::from_microwatts(10.0, 500.0, 500.0)
}

/// Fixed-work descent options: `tol = 0` never converges early, so the
/// measured work is identical run to run. The kernel is pinned
/// explicitly — `Auto` would route these homogeneous instances to the
/// closed form (and small heterogeneous groupput to the factorized
/// kernel), silently changing what a baseline-named entry measures.
fn fixed_iters(iters: usize, kernel: KernelSelect) -> P4Options {
    P4Options {
        max_iters: iters,
        tol: 0.0,
        step0: 2.0,
        kernel,
    }
}

/// Deterministic heterogeneous budgets for the large-N entries (the
/// factorized path is the heterogeneous server path; homogeneous
/// requests never reach it in production).
fn het_nodes(n: usize) -> Vec<NodeParams> {
    (0..n)
        .map(|i| NodeParams::from_microwatts(2.0 + 1.5 * i as f64, 500.0, 450.0))
        .collect()
}

/// The seed implementation of `solve_p4`, reconstructed on top of the
/// retained naive summarizer: two full enumeration passes and fresh
/// `alpha`/`beta`/gradient allocations per dual iteration. Exists only
/// as the benchmark baseline.
fn solve_p4_naive_reference(
    nodes: &[NodeParams],
    sigma: f64,
    mode: ThroughputMode,
    opts: P4Options,
) -> f64 {
    let n = nodes.len();
    let scale: Vec<f64> = nodes
        .iter()
        .map(|p| sigma / p.listen_w.max(p.transmit_w))
        .collect();
    let mut eta = vec![0.0f64; n];
    let mut grad_sq = vec![0.0f64; n];
    let mut last: Option<GibbsSummary> = None;
    for _ in 0..opts.max_iters {
        let s = summarize_naive(&GibbsParams {
            nodes,
            eta: &eta,
            sigma,
            mode,
        });
        let mut residual = 0.0f64;
        let mut grads = vec![0.0f64; n];
        for i in 0..n {
            let cons = nodes[i].average_power(s.alpha[i], s.beta[i]);
            let g = (nodes[i].budget_w - cons) / (nodes[i].budget_w + cons);
            grads[i] = g;
            residual = residual.max(if eta[i] > 0.0 { g.abs() } else { (-g).max(0.0) });
        }
        last = Some(s);
        if residual < opts.tol {
            break;
        }
        for i in 0..n {
            grad_sq[i] += grads[i] * grads[i];
            let step = opts.step0 / grad_sq[i].sqrt().max(1e-12);
            eta[i] = (eta[i] - step * scale[i] * grads[i]).max(0.0);
        }
    }
    last.expect("at least one iteration").expected_throughput
}

/// How one suite entry runs.
enum Workload {
    /// One row, timed on its own.
    Single(Box<dyn FnMut()>),
    /// Two rows on one shared state, timed in alternating rounds
    /// ([`measure_alternating`]): the entry's own row runs with
    /// `false`, the row named `twin` with `true`.
    Paired {
        twin: String,
        run: Box<dyn FnMut(bool)>,
    },
}

/// One suite entry: name + workload.
struct Entry {
    name: String,
    workload: Workload,
    /// Whether the workload *size* depends on the `--quick` flag
    /// (fixed-iteration budgets, simulated horizon). Recorded in the
    /// JSON so the CI gate knows — from the file itself, not a
    /// hardcoded list that could drift — which per-iteration numbers
    /// are meaningless across a quick/full comparison.
    quick_sensitive: bool,
}

/// The canonical suite-entry name for one service measurement
/// (`phase` is "cold" or "warm") — the single source both the suite
/// builder and the JSON deriver use.
fn service_entry_name(phase: &str, batch: usize) -> String {
    format!("service_{phase}_batch{batch}")
}

/// The policy-service benchmark batch sizes (requests per
/// `serve_batch` call).
pub const SERVICE_BATCH_SIZES: [usize; 3] = [1, 32, 256];

/// A deterministic mixed batch for the service benchmarks: the four
/// instance templates cycle (heterogeneous and homogeneous fast-path
/// instances), every template alternates groupput/anyput across its
/// budget variations, and every fourth request perturbs its budgets
/// so large batches contain mostly *distinct* instances — cold
/// numbers measure solving, warm numbers measure lookups, both
/// through the full canonicalize/probe/batch pipeline.
pub(crate) fn service_batch(size: usize) -> Vec<PolicyRequest> {
    // Keyed on the variation index, not the request index: i % 4
    // fixes the parity of i, so a request-index parity would pin each
    // template to a single objective.
    let mode = |i: usize| {
        if (i / 4).is_multiple_of(2) {
            ThroughputMode::Groupput
        } else {
            ThroughputMode::Anyput
        }
    };
    (0..size)
        .map(|i| {
            let variation = 1.0 + (i / 4) as f64 * 1e-3;
            match i % 4 {
                0 => PolicyRequest {
                    budgets_w: [2.0, 4.0, 8.0, 16.0, 24.0, 40.0]
                        .iter()
                        .map(|b| b * 1e-6 * variation)
                        .collect(),
                    listen_w: 500e-6,
                    transmit_w: 450e-6,
                    sigma: 0.5,
                    objective: mode(i),
                    tolerance: 1e-2,
                },
                1 => PolicyRequest::homogeneous(
                    50,
                    NodeParams::new(10e-6 * variation, 500e-6, 450e-6),
                    0.5,
                    mode(i),
                    1e-2,
                ),
                2 => PolicyRequest {
                    budgets_w: [3.0, 5.0, 9.0, 17.0, 33.0]
                        .iter()
                        .map(|b| b * 1e-6 * variation)
                        .collect(),
                    listen_w: 500e-6,
                    transmit_w: 450e-6,
                    sigma: 0.25,
                    objective: mode(i),
                    tolerance: 1e-2,
                },
                _ => PolicyRequest::homogeneous(
                    200,
                    NodeParams::new(37e-6 * variation, 500e-6, 450e-6),
                    0.25,
                    mode(i),
                    1e-2,
                ),
            }
        })
        .collect()
}

/// Service for the cold and warm benchmarks: an exact tier large
/// enough for the whole batch. The cold benchmark starts every
/// iteration from a fresh one; the warm one warms it before
/// measurement, so its steady state is pure cache serving.
fn bench_service() -> PolicyService {
    PolicyService::new(ServiceConfig {
        lru_capacity: 4096,
        ..ServiceConfig::default()
    })
}

/// Builds the fixed suite. `quick` shrinks iteration budgets and the
/// simulated horizon for CI smoke runs (same entry names, smaller
/// work — quick numbers are not comparable to full ones). Entries not
/// matching `filter` are never *constructed* — construction itself
/// does real work (cache warming, the loopback socket server bind),
/// and a filtered iteration loop must not pay for it.
fn suite(quick: bool, filter: Option<&str>) -> Vec<Entry> {
    let keep = |name: &str| filter.is_none_or(|f| name.contains(f));
    let (it8, it12, it16) = if quick { (60, 25, 4) } else { (400, 150, 30) };
    // The factorized entries run a real convergence-scale budget: one
    // dual iteration is O(N) (groupput), so even 10 000 iterations at
    // N = 32 undercut a handful of Gray-code sweeps at N = 16.
    let it_fact = if quick { 500 } else { 10_000 };
    let sim_t_end = if quick { 5_000.0 } else { 20_000.0 };
    let mode = ThroughputMode::Groupput;

    let mut entries: Vec<Entry> = Vec::new();
    for (name, n, iters) in [
        ("p4_solve_n8", 8usize, it8),
        ("p4_solve_n12", 12, it12),
        ("p4_solve_n16", 16, it16),
    ] {
        if !keep(name) {
            continue;
        }
        let nodes = vec![params(); n];
        let mut solver = P4Solver::new(n);
        entries.push(Entry {
            name: name.to_string(),
            workload: Workload::Single(Box::new(move || {
                black_box(
                    solver
                        .solve(
                            &nodes,
                            0.5,
                            mode,
                            fixed_iters(iters, KernelSelect::GrayCode),
                        )
                        .throughput,
                );
            })),
            quick_sensitive: true,
        });
    }
    // Past the 2^N wall: the factorized kernel solves N ∈ {24, 32}
    // heterogeneous instances the enumeration kernels cannot touch
    // (the acceptance bar: cheaper than one Gray-code p4_solve_n16).
    for (name, n) in [("p4_solve_n24", 24usize), ("p4_solve_n32", 32)] {
        if !keep(name) {
            continue;
        }
        let nodes = het_nodes(n);
        let mut solver = P4Solver::new(n);
        entries.push(Entry {
            name: name.to_string(),
            workload: Workload::Single(Box::new(move || {
                black_box(
                    solver
                        .solve(
                            &nodes,
                            0.5,
                            mode,
                            fixed_iters(it_fact, KernelSelect::Factorized),
                        )
                        .throughput,
                );
            })),
            quick_sensitive: true,
        });
    }
    if keep("p4_solve_n12_naive") {
        let nodes = vec![params(); 12];
        entries.push(Entry {
            name: "p4_solve_n12_naive".to_string(),
            workload: Workload::Single(Box::new(move || {
                black_box(solve_p4_naive_reference(
                    &nodes,
                    0.5,
                    mode,
                    fixed_iters(it12, KernelSelect::GrayCode),
                ));
            })),
            quick_sensitive: true,
        });
    }
    if keep("gibbs_summarize_n12") {
        let nodes = vec![params(); 12];
        let eta = vec![3000.0; 12];
        let mut ws = SummaryWorkspace::new(12);
        entries.push(Entry {
            name: "gibbs_summarize_n12".to_string(),
            workload: Workload::Single(Box::new(move || {
                ws.compute(&GibbsParams {
                    nodes: &nodes,
                    eta: &eta,
                    sigma: 0.5,
                    mode,
                });
                black_box(ws.expected_throughput());
            })),
            quick_sensitive: false,
        });
    }
    if keep("gibbs_summarize_naive_n12") {
        let nodes = vec![params(); 12];
        let eta = vec![3000.0; 12];
        entries.push(Entry {
            name: "gibbs_summarize_naive_n12".to_string(),
            workload: Workload::Single(Box::new(move || {
                black_box(summarize_naive(&GibbsParams {
                    nodes: &nodes,
                    eta: &eta,
                    sigma: 0.5,
                    mode,
                }));
            })),
            quick_sensitive: false,
        });
    }
    // The same evaluation through the factorized kernel — the
    // direct per-eval comparison against gibbs_summarize_n12.
    if keep("summarize_factorized_n12") {
        let nodes = vec![params(); 12];
        let eta = vec![3000.0; 12];
        let mut ws = FactorizedWorkspace::new(12);
        entries.push(Entry {
            name: "summarize_factorized_n12".to_string(),
            workload: Workload::Single(Box::new(move || {
                ws.compute(&GibbsParams {
                    nodes: &nodes,
                    eta: &eta,
                    sigma: 0.5,
                    mode,
                });
                black_box(ws.expected_throughput());
            })),
            quick_sensitive: false,
        });
    }
    if keep("homogeneous_p4_n1000") {
        entries.push(Entry {
            name: "homogeneous_p4_n1000".to_string(),
            workload: Workload::Single(Box::new(|| {
                black_box(
                    HomogeneousP4::new(1000, params(), 0.5, ThroughputMode::Groupput)
                        .solve()
                        .throughput,
                );
            })),
            quick_sensitive: false,
        });
    }
    // Policy-service throughput: requests/sec per batch size, cold
    // (fresh caches every call) vs warm (steady-state cache serving)
    // vs socket (warm caches through the sharded TCP front-end).
    // Names derive from SERVICE_BATCH_SIZES so the JSON's "service"
    // section can never silently miss a size.
    //
    // The TCP server (2 shards, loopback) lives for the rest of the
    // process: the suite runs once per process and the connection
    // handlers die with it, so there is nothing to tear down. It only
    // binds when a socket entry survives the filter.
    let socket_needed = SERVICE_BATCH_SIZES
        .iter()
        .any(|&s| keep(&service_entry_name("socket", s)));
    let socket_addr = if !socket_needed {
        Err(std::io::Error::other("no socket entries requested"))
    } else {
        bind_socket_server()
    };
    // Same story for the in-process cluster: two single-shard backend
    // `PolicyServer`s on loopback behind a `ClusterFront`, so the
    // cluster entries measure the full distribution path — client
    // framing + front TCP + router fan-out + dialer TCP + backend
    // serving — without child-process management inside a benchmark.
    let cluster_needed = SERVICE_BATCH_SIZES
        .iter()
        .any(|&s| keep(&service_entry_name("cluster", s)));
    let cluster_addr = if !cluster_needed {
        Err(std::io::Error::other("no cluster entries requested"))
    } else {
        bind_cluster_front()
    };
    for size in SERVICE_BATCH_SIZES {
        if !keep(&service_entry_name("cold", size))
            && !keep(&service_entry_name("warm", size))
            && !keep(&service_entry_name("warm_metrics", size))
            && !keep(&service_entry_name("socket", size))
            && !keep(&service_entry_name("cluster", size))
        {
            continue;
        }
        let batch = service_batch(size);
        if keep(&service_entry_name("cold", size)) {
            entries.push(Entry {
                name: service_entry_name("cold", size),
                workload: Workload::Single(Box::new({
                    let batch = batch.clone();
                    move || {
                        let mut svc = bench_service();
                        black_box(svc.serve_batch(&batch));
                    }
                })),
                quick_sensitive: false,
            });
        }
        // The warm row and its recording-on twin share one warmed
        // service and alternate rounds, so heap layout and run order
        // fall on both alike and the paired `warm_rps_metrics_on` gate
        // row measures the metrics plane alone. A filter that keeps
        // either row measures both.
        if keep(&service_entry_name("warm", size))
            || keep(&service_entry_name("warm_metrics", size))
        {
            entries.push(Entry {
                name: service_entry_name("warm", size),
                workload: Workload::Paired {
                    twin: service_entry_name("warm_metrics", size),
                    run: Box::new({
                        let batch = batch.clone();
                        let mut svc = bench_service();
                        svc.serve_batch(&batch); // warm the cache once
                        move |recording| {
                            // The suite loop runs recording-off, so the
                            // toggle pair brackets each recording-on
                            // call (two relaxed stores, nothing next to
                            // a serve_batch).
                            econcast_metrics::set_recording(recording);
                            black_box(svc.serve_batch(&batch));
                            econcast_metrics::set_recording(false);
                        }
                    }),
                },
                quick_sensitive: false,
            });
        }
        if keep(&service_entry_name("cluster", size)) {
            if let Ok(addr) = &cluster_addr {
                // Warm cluster round-trip: client framing + front TCP
                // + ring routing + dialer fan-out + backend caches.
                let addr = *addr;
                let batch = batch.clone();
                let mut client: Option<PolicyClient> = None;
                entries.push(Entry {
                    name: service_entry_name("cluster", size),
                    workload: Workload::Single(Box::new(move || {
                        let client = client.get_or_insert_with(|| {
                            let mut c =
                                PolicyClient::connect(addr, size.min(u16::MAX as usize) as u16)
                                    .expect("loopback cluster connect");
                            c.serve_batch(&batch).expect("warming batch");
                            c
                        });
                        black_box(client.serve_batch(&batch).expect("cluster round trip"));
                    })),
                    quick_sensitive: false,
                });
            }
        }
        if !keep(&service_entry_name("socket", size)) {
            continue;
        }
        if let Ok(addr) = &socket_addr {
            // Warm socket round-trip: encode + TCP + routing + shard
            // cache lookups + decode. The lazy connect keeps server
            // warm-up out of the measured iterations (measure()'s
            // calibration pass absorbs it).
            let addr = *addr;
            let mut client: Option<PolicyClient> = None;
            entries.push(Entry {
                name: service_entry_name("socket", size),
                workload: Workload::Single(Box::new(move || {
                    let client = client.get_or_insert_with(|| {
                        let mut c = PolicyClient::connect(addr, size.min(u16::MAX as usize) as u16)
                            .expect("loopback connect");
                        c.serve_batch(&batch).expect("warming batch"); // warm the shards
                        c
                    });
                    black_box(client.serve_batch(&batch).expect("socket round trip"));
                })),
                quick_sensitive: false,
            });
        }
    }
    if keep("sim_grid7x7") {
        entries.push(Entry {
            name: "sim_grid7x7".to_string(),
            workload: Workload::Single(Box::new(move || {
                let mut cfg = SimConfig::ideal_clique(
                    49,
                    params(),
                    ProtocolConfig::capture_groupput(0.5),
                    sim_t_end,
                    0xBE9C,
                );
                cfg.topology = econcast_core::Topology::square_grid(7);
                black_box(Simulator::new(cfg).expect("valid").run().groupput);
            })),
            quick_sensitive: true,
        });
    }
    entries
}

/// Binds the loopback 2-shard `PolicyServer` the socket entries and
/// the socket tail-latency pass measure against. The server lives for
/// the rest of the process: the suite runs once per process and the
/// connection handlers die with it, so there is nothing to tear down.
fn bind_socket_server() -> std::io::Result<std::net::SocketAddr> {
    PolicyServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            router: RouterConfig {
                shards: 2,
                service: ServiceConfig {
                    lru_capacity: 4096,
                    ..ServiceConfig::default()
                },
                ..RouterConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .map(|srv| {
        let handle = srv.spawn();
        let addr = handle.addr();
        std::mem::forget(handle); // keep accepting until process exit
        addr
    })
}

/// Binds the in-process cluster the cluster entries and the cluster
/// tail-latency pass measure against: two single-shard backend
/// `PolicyServer`s on loopback behind a `ClusterFront`, plus a
/// `ClusterHealer` sweep — so the numbers describe a *supervised*
/// deployment, periodic ping probes and all. Same process-lifetime
/// story as [`bind_socket_server`].
fn bind_cluster_front() -> std::io::Result<std::net::SocketAddr> {
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
        std::mem::forget(handle); // keep serving until process exit
    }
    let front = ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(
            &slots,
            ClusterConfig {
                service: ServiceConfig {
                    lru_capacity: 4096,
                    ..ServiceConfig::default()
                },
                ..ClusterConfig::default()
            },
        ),
        FrontConfig::default(),
    )?;
    let handle = front.spawn();
    let addr = handle.addr();
    let healer = ClusterHealer::spawn(
        std::sync::Arc::clone(handle.router()),
        HealerConfig::default(),
    );
    std::mem::forget(healer);
    std::mem::forget(handle);
    Ok(addr)
}

/// Requests/sec of the policy service at one batch size.
#[derive(Debug, Clone, Copy)]
pub struct ServiceThroughput {
    /// Requests per `serve_batch` call.
    pub batch: usize,
    /// Requests/sec against empty caches (solve-dominated).
    pub cold_rps: f64,
    /// Requests/sec at cache steady state (lookup-dominated).
    pub warm_rps: f64,
    /// Requests/sec at cache steady state with the always-on metrics
    /// plane recording (counters + latency histograms on the serve
    /// path). The `warm_rps` entries measure the recording-off path,
    /// so this row is the plane's measured overhead — `bench_gate`
    /// holds it within 5% of `warm_rps` at batch 256 in the *same*
    /// run. `None` on filtered runs.
    pub warm_metrics_rps: Option<f64>,
    /// Requests/sec through the sharded TCP front-end at cache steady
    /// state (framing + loopback + routing on top of warm serving);
    /// `None` when the loopback server could not bind.
    pub socket_rps: Option<f64>,
    /// Requests/sec through the 2-backend cluster front-end at cache
    /// steady state (client framing + front TCP + ring routing +
    /// dialer TCP + backend serving — two network hops per request);
    /// `None` when the loopback cluster could not bind.
    pub cluster_rps: Option<f64>,
    /// Warm `serve_batch` latency percentiles (µs per call, not per
    /// request): each call timed and recorded into an
    /// `econcast_metrics::Histogram` in a separate post-rps pass. Each
    /// value is its bucket's upper edge (≤ 12.5% above the true
    /// sample). `None` on filtered runs.
    pub warm_p50_us: Option<f64>,
    /// Warm `serve_batch` p99 latency (µs per call).
    pub warm_p99_us: Option<f64>,
    /// Warm `serve_batch` p99.9 latency (µs per call).
    pub warm_p999_us: Option<f64>,
    /// Socket round-trip latency percentiles (µs per `serve_batch`
    /// call over the pipelined TCP client), from a separate post-rps
    /// pass timing each call directly. `None` when the loopback
    /// server could not bind or the pass was filtered out.
    pub socket_p50_us: Option<f64>,
    /// Socket round-trip p99 latency (µs per call) — **gated** by
    /// `bench_gate`: a fresh p99 more than 50% above the baseline's
    /// fails CI.
    pub socket_p99_us: Option<f64>,
    /// Socket round-trip p99.9 latency (µs per call).
    pub socket_p999_us: Option<f64>,
    /// Cluster round-trip latency percentiles (µs per call through
    /// the 2-backend front — two network hops per request).
    pub cluster_p50_us: Option<f64>,
    /// Cluster round-trip p99 latency (µs per call) — gated like
    /// `socket_p99_us`.
    pub cluster_p99_us: Option<f64>,
    /// Cluster round-trip p99.9 latency (µs per call).
    pub cluster_p999_us: Option<f64>,
}

/// One traced span's latency distribution: the durations of the span
/// events drained in harvest windows, recorded into an
/// `econcast_metrics::Histogram` (each value is its bucket's upper
/// edge, ≤ 12.5% above the true sample).
#[derive(Debug, Clone, Copy)]
pub struct SpanStats {
    /// Span name within the `cluster` trace category.
    pub name: &'static str,
    /// Completed spans observed during the pass.
    pub count: u64,
    /// p50 latency (µs), `None` when no spans fired.
    pub p50_us: Option<f64>,
    /// p99 latency (µs).
    pub p99_us: Option<f64>,
    /// p99.9 latency (µs).
    pub p999_us: Option<f64>,
}

/// The cluster spans the bench JSON reports percentiles for.
/// `failover_reserve` legitimately never fires in a healthy run, so
/// its row is filled by a dedicated forced-fault pass
/// ([`failover_reserve_percentiles`]: a dead backend whose sub-batch
/// re-serves on the local fallback) rather than left as a `count: 0`
/// placeholder.
const CLUSTER_SPAN_NAMES: [&str; 3] = ["dial", "remote_serve", "failover_reserve"];

/// Result of one full suite run.
pub struct SuiteReport {
    /// Per-entry measurements, in suite order.
    pub measurements: Vec<Measurement>,
    /// `p4_solve_n12_naive / p4_solve_n12` mean-time ratio.
    pub p4_n12_speedup: Option<f64>,
    /// Policy-service throughput per batch size.
    pub service: Vec<ServiceThroughput>,
    /// Worker-pool size the suite ran under.
    pub threads: usize,
    /// Whether the reduced smoke suite ran.
    pub quick: bool,
    /// Names of entries whose workload size depends on `quick` —
    /// recorded in the JSON so the regression gate learns
    /// quick-sensitivity from the record itself.
    pub quick_sensitive: Vec<String>,
    /// Per-span latency percentiles for the cluster data plane
    /// (`dial` / `remote_serve` / `failover_reserve`), harvested from
    /// span events around the cluster tail-latency passes. Empty when
    /// no cluster pass ran.
    pub cluster_spans: Vec<SpanStats>,
    /// Open-loop overload rows (goodput / shed / degraded / accepted
    /// tails at 0.5×–4× measured capacity) against the same cluster
    /// front the closed-loop entries used. `None` on filtered runs or
    /// when the loopback stack could not bind.
    pub openloop: Option<crate::openloop::OpenLoopReport>,
}

/// Runs the kernel suite, printing one line per entry. A non-empty
/// `filter` keeps only entries whose name contains the substring —
/// the perf-iteration loop (`repro --bench-json --filter p4_solve_n32`)
/// without paying for the full suite, including its construction-time
/// work (cache warming, the socket server bind). Derived figures
/// whose inputs were filtered out (the naive speedup, service rates)
/// are simply absent from the report.
pub fn run_suite(quick: bool, filter: Option<&str>) -> SuiteReport {
    let entries = suite(quick, filter);
    if let Some(f) = filter {
        eprintln!("[--filter `{f}`: {} entries match]", entries.len());
    }
    let mut measurements = Vec::new();
    let mut quick_sensitive = Vec::new();
    // The throughput loop measures the recording-off path — the same
    // overhead contract the tracing rows keep — so the baseline-named
    // entries stay comparable across the plane's introduction. The
    // warm_metrics rounds of the paired warm entries re-arm recording
    // inside the workload; everything after the loop runs at the
    // production default (on).
    econcast_metrics::set_recording(false);
    for e in entries {
        let ms = match e.workload {
            Workload::Single(mut run) => vec![measure(&e.name, &mut *run)],
            Workload::Paired { twin, mut run } => {
                measure_alternating([&e.name, &twin], &mut *run).to_vec()
            }
        };
        for m in ms {
            println!(
                "{:<28} {:>12}/iter ({} iters)",
                m.name,
                format_seconds(m.mean_s),
                m.iterations
            );
            if e.quick_sensitive {
                quick_sensitive.push(m.name.clone());
            }
            measurements.push(m);
        }
    }
    econcast_metrics::set_recording(true);
    let mean_of = |name: &str| {
        measurements
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.mean_s)
    };
    let p4_n12_speedup = match (mean_of("p4_solve_n12_naive"), mean_of("p4_solve_n12")) {
        (Some(naive), Some(fast)) if fast > 0.0 => Some(naive / fast),
        _ => None,
    };
    if let Some(s) = p4_n12_speedup {
        println!("p4_solve at N=12: {s:.1}x faster than the naive seed kernel");
    }
    // Lazily bound stacks for the network tail-latency passes: fresh
    // servers (the suite's own live for the process but their
    // addresses are private to `suite()`), bound once and reused
    // across batch sizes.
    let mut socket_tail_addr: Option<Option<std::net::SocketAddr>> = None;
    let mut cluster_tail_addr: Option<Option<std::net::SocketAddr>> = None;
    let mut cluster_spans: Vec<SpanStats> = Vec::new();
    let service: Vec<ServiceThroughput> = SERVICE_BATCH_SIZES
        .iter()
        .filter_map(|&batch| {
            let cold = mean_of(&service_entry_name("cold", batch))?;
            let warm = mean_of(&service_entry_name("warm", batch))?;
            let warm_metrics = mean_of(&service_entry_name("warm_metrics", batch));
            let socket = mean_of(&service_entry_name("socket", batch));
            let cluster = mean_of(&service_entry_name("cluster", batch));
            // Tail-latency passes, separate from the throughput loops
            // above so the rps entries keep measuring the tracing-off
            // path (the overhead contract bench_gate holds them to).
            let tail = warm_latency_percentiles(batch, quick);
            let socket_tail = socket.and_then(|_| {
                net_latency_percentiles(
                    || *socket_tail_addr.get_or_insert_with(|| bind_socket_server().ok()),
                    batch,
                    quick,
                    &[],
                )
                .map(|(t, _)| t)
            });
            let cluster_tail = cluster.and_then(|_| {
                let (t, spans) = net_latency_percentiles(
                    || *cluster_tail_addr.get_or_insert_with(|| bind_cluster_front().ok()),
                    batch,
                    quick,
                    &CLUSTER_SPAN_NAMES,
                )?;
                // Merge harvests across batch passes, keeping the
                // best-sampled row per span: `dial` fires only while
                // the stack first binds (the smallest batch's pass),
                // `remote_serve` is richest — and ties resolve to —
                // the largest batch's pass, and `failover_reserve`
                // stays zero-sample here (healthy stack) until the
                // forced-fault pass below fills it.
                for s in spans {
                    match cluster_spans.iter_mut().find(|c| c.name == s.name) {
                        Some(c) if s.count >= c.count => *c = s,
                        Some(_) => {}
                        None => cluster_spans.push(s),
                    }
                }
                Some(t)
            });
            Some(ServiceThroughput {
                batch,
                cold_rps: batch as f64 / cold,
                warm_rps: batch as f64 / warm,
                warm_metrics_rps: warm_metrics.map(|s| batch as f64 / s),
                socket_rps: socket.map(|s| batch as f64 / s),
                cluster_rps: cluster.map(|s| batch as f64 / s),
                warm_p50_us: tail.map(|t| t.0),
                warm_p99_us: tail.map(|t| t.1),
                warm_p999_us: tail.map(|t| t.2),
                socket_p50_us: socket_tail.map(|t| t.0),
                socket_p99_us: socket_tail.map(|t| t.1),
                socket_p999_us: socket_tail.map(|t| t.2),
                cluster_p50_us: cluster_tail.map(|t| t.0),
                cluster_p99_us: cluster_tail.map(|t| t.1),
                cluster_p999_us: cluster_tail.map(|t| t.2),
            })
        })
        .collect();
    // The healthy passes above never exercise failover, so the
    // `failover_reserve` row would report `count: 0` with null
    // percentiles forever. Fill it from a forced-fault pass (a dead
    // backend whose whole batch re-serves on the local fallback); the
    // count-wins merge keeps the healthy harvests for the other spans.
    if cluster_spans
        .iter()
        .any(|c| c.name == "failover_reserve" && c.count == 0)
    {
        if let Some(s) = failover_reserve_percentiles(quick) {
            for c in cluster_spans.iter_mut() {
                if c.name == s.name && s.count >= c.count {
                    *c = s;
                }
            }
        }
    }
    for s in &service {
        println!(
            "policy service @ batch {:>3}: {:>10.0} req/s cold, {:>12.0} req/s warm, \
             {:>12.0} req/s warm+metrics, {:>10.0} req/s socket, {:>10.0} req/s cluster",
            s.batch,
            s.cold_rps,
            s.warm_rps,
            s.warm_metrics_rps.unwrap_or(f64::NAN),
            s.socket_rps.unwrap_or(f64::NAN),
            s.cluster_rps.unwrap_or(f64::NAN)
        );
        let tail_line = |phase: &str, p: (Option<f64>, Option<f64>, Option<f64>)| {
            if let (Some(p50), Some(p99), Some(p999)) = p {
                println!(
                    "             batch {:>3} {phase}:  p50 {:>9.1} us, p99 {:>12.1} us, \
                     p99.9 {:>8.1} us per call",
                    s.batch, p50, p99, p999
                );
            }
        };
        tail_line("warm", (s.warm_p50_us, s.warm_p99_us, s.warm_p999_us));
        tail_line("sock", (s.socket_p50_us, s.socket_p99_us, s.socket_p999_us));
        tail_line(
            "clus",
            (s.cluster_p50_us, s.cluster_p99_us, s.cluster_p999_us),
        );
    }
    for sp in &cluster_spans {
        println!(
            "cluster span {:>16}: {:>6} samples, p50 {:>9.1} us, p99 {:>9.1} us",
            sp.name,
            sp.count,
            sp.p50_us.unwrap_or(f64::NAN),
            sp.p99_us.unwrap_or(f64::NAN)
        );
    }
    // Open-loop overload rows, against a dedicated small-queue cluster
    // stack (not the shared front above — its production-sized queue
    // would never shed, and the rows exist to show the ladder working).
    // Filtered runs skip it: a partial suite is a perf-iteration loop,
    // not an overload characterization.
    let openloop = if filter.is_none() {
        let cfg = if quick {
            crate::openloop::OpenLoopConfig::quick()
        } else {
            crate::openloop::OpenLoopConfig::default()
        };
        match crate::openloop::run_on_dedicated_stack(&cfg) {
            Ok(run) => Some(run.report),
            Err(e) => {
                eprintln!("[open-loop overload pass skipped: {e}]");
                None
            }
        }
    } else {
        None
    };
    if let Some(ol) = &openloop {
        println!(
            "open-loop capacity: {:>10.0} req/s (closed-loop calibration)",
            ol.capacity_rps
        );
        for r in &ol.rows {
            println!(
                "open loop @ {:>4.1}x: {:>8.0} req/s offered, {:>8.0} req/s goodput, \
                 shed {:>5.1}%, degraded {:>5.1}%, accepted p99 {:>9.1} us",
                r.multiplier,
                r.offered_rps,
                r.goodput_rps,
                r.shed_rate * 100.0,
                r.degraded_rate * 100.0,
                r.accepted_p99_us.unwrap_or(f64::NAN)
            );
        }
    }
    SuiteReport {
        measurements,
        p4_n12_speedup,
        service,
        threads: econcast_parallel::effective_threads(usize::MAX),
        quick,
        quick_sensitive,
        cluster_spans,
        openloop,
    }
}

/// Reads nanosecond samples through an [`econcast_metrics::Histogram`]:
/// the sample count and `(p50, p99, p99.9)` in µs, each its bucket's
/// upper edge (`None` without samples).
pub(crate) fn bucketed_us(
    samples_ns: impl IntoIterator<Item = u64>,
) -> (u64, Option<(f64, f64, f64)>) {
    let hist = econcast_metrics::Histogram::new();
    for ns in samples_ns {
        hist.record(ns);
    }
    let snap = hist.snapshot();
    let us = |q: f64| snap.quantile(q) as f64 / 1e3;
    let count = snap.total();
    (count, (count > 0).then(|| (us(0.50), us(0.99), us(0.999))))
}

/// A [`SpanStats`] row from one span's harvested durations (ns).
fn span_stats(name: &'static str, durations_ns: Vec<u64>) -> SpanStats {
    let (count, tail) = bucketed_us(durations_ns);
    SpanStats {
        name,
        count,
        p50_us: tail.map(|t| t.0),
        p99_us: tail.map(|t| t.1),
        p999_us: tail.map(|t| t.2),
    }
}

/// Drains one harvest window and appends the durations of the
/// `cluster`-category spans named in `names` to `into` (one `Vec` per
/// name). Panics if a ring overflowed: a dropped event could be one of
/// the harvested spans, and the row would silently under-count.
fn harvest(names: &[&'static str], into: &mut [Vec<u64>]) {
    let snap = econcast_trace::drain();
    assert_eq!(
        snap.dropped, 0,
        "a trace ring overflowed inside a harvest window"
    );
    for (&name, durs) in names.iter().zip(into) {
        durs.extend(econcast_trace::span_durations(&snap, "cluster", name));
    }
}

/// Warm `serve_batch` tail latency at one batch size: drive a warmed
/// service for a fixed call count with nothing armed, timing each
/// call into a histogram. Returns `(p50, p99, p99.9)` in µs per call.
fn warm_latency_percentiles(size: usize, quick: bool) -> Option<(f64, f64, f64)> {
    let calls = if quick { 120 } else { 400 };
    let batch = service_batch(size);
    let mut svc = bench_service();
    svc.serve_batch(&batch); // warm the cache before timing
    let samples_ns = (0..calls).map(|_| {
        let t = std::time::Instant::now();
        black_box(svc.serve_batch(&batch));
        t.elapsed().as_nanos() as u64
    });
    bucketed_us(samples_ns).1
}

/// Forced-fault pass for the `failover_reserve` span. A healthy run
/// never fires it, so the tail-latency harvests leave its
/// `cluster_spans` row at `count: 0` with null percentiles — a reader
/// could not tell what the reserve path *costs* when it does fire.
/// This pass builds an in-process [`ClusterRouter`] whose only remote
/// slot points at a dead loopback address (a listener bound and
/// immediately dropped, so the port refuses connections), which makes
/// every batch re-serve on the local fallback and fire exactly one
/// `failover_reserve` span per call. The first, unarmed call eats the
/// dial failure and marks the backend down (`unhealthy_after: 1`,
/// reprobe pushed past the pass), so the armed calls — one harvest
/// window — measure the steady-state reserve path: fallback solve
/// time, not dial timeouts.
fn failover_reserve_percentiles(quick: bool) -> Option<SpanStats> {
    let calls = if quick { 120 } else { 400 };
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .ok()?
        .local_addr()
        .ok()?; // listener dropped here — the port now refuses connections
    let router = ClusterRouter::new(
        &[SlotSpec::Remote(dead)],
        ClusterConfig {
            service: ServiceConfig {
                lru_capacity: 4096,
                ..ServiceConfig::default()
            },
            remote: RemoteConfig {
                dial_retries: 1,
                backoff: std::time::Duration::ZERO,
                unhealthy_after: 1,
                reprobe_after: std::time::Duration::from_secs(3600),
                ..RemoteConfig::default()
            },
        },
    );
    let batch = service_batch(32);
    black_box(router.serve_batch(&batch)); // dial fails, backend marked down, fallback warms
    econcast_trace::reset();
    econcast_trace::set_spans(true);
    for _ in 0..calls {
        black_box(router.serve_batch(&batch));
    }
    econcast_trace::set_spans(false);
    let mut durs = [Vec::new()];
    harvest(&["failover_reserve"], &mut durs);
    let [durs] = durs;
    Some(span_stats("failover_reserve", durs))
}

/// Round-trip tail latency through a live TCP endpoint at one batch
/// size: resolve (possibly lazily bind) the endpoint, dial, warm
/// once, then time `calls` pipelined `serve_batch` round trips with
/// the monotonic clock and nothing armed (client percentiles are
/// exact order statistics over the samples, not histogram buckets).
///
/// With `spans` non-empty, the `cluster`-category spans of those
/// names are harvested in two windows around the timed loop: spans are
/// armed *before* `bind` runs, so backend `dial` spans from a
/// first-time cluster bind land in the first window, and after the
/// timed loop `calls` more round trips run armed, drained one call at
/// a time so no ring overflows (a batch-256 call emits ~260 events on
/// each serving thread). The second return value holds one row per
/// name.
fn net_latency_percentiles(
    bind: impl FnOnce() -> Option<std::net::SocketAddr>,
    size: usize,
    quick: bool,
    spans: &[&'static str],
) -> Option<((f64, f64, f64), Vec<SpanStats>)> {
    let calls = if quick { 120 } else { 400 };
    let batch = service_batch(size);
    let armed = !spans.is_empty();
    let mut durs = vec![Vec::new(); spans.len()];
    econcast_trace::reset();
    econcast_trace::set_spans(armed);
    let warmed = (|| {
        let addr = bind()?;
        let mut client = PolicyClient::connect(addr, size.min(u16::MAX as usize) as u16).ok()?;
        client.serve_batch(&batch).ok()?; // warm (the dial span lands inside the window)
        Some(client)
    })();
    econcast_trace::set_spans(false);
    harvest(spans, &mut durs);
    let mut client = warmed?;
    let mut samples_us = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = std::time::Instant::now();
        black_box(client.serve_batch(&batch).ok()?);
        samples_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    if armed {
        econcast_trace::set_spans(true);
        let served = (0..calls).all(|_| {
            let ok = client.serve_batch(&batch).is_ok();
            harvest(spans, &mut durs);
            ok
        });
        econcast_trace::set_spans(false);
        harvest(spans, &mut durs);
        if !served {
            return None;
        }
    }
    let rows = spans
        .iter()
        .zip(durs)
        .map(|(&name, d)| span_stats(name, d))
        .collect();
    samples_us.sort_by(f64::total_cmp);
    let q = |f: f64| samples_us[((samples_us.len() - 1) as f64 * f).round() as usize];
    Some(((q(0.50), q(0.99), q(0.999)), rows))
}

/// `git rev-parse --short HEAD`, or `ECONCAST_GIT_SHA`, or "unknown".
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("ECONCAST_GIT_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Serializes a suite report as pretty-printed JSON (hand-rolled —
/// no serde offline; every value is a number, bool, or `[0-9a-z_-]`
/// string, so no escaping is needed).
pub fn to_json(report: &SuiteReport, sha: &str) -> String {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"git_sha\": \"{sha}\",\n"));
    s.push_str(&format!("  \"created_unix\": {unix},\n"));
    s.push_str(&format!("  \"threads\": {},\n", report.threads));
    s.push_str(&format!("  \"quick\": {},\n", report.quick));
    s.push_str(&format!(
        "  \"quick_sensitive\": [{}],\n",
        report
            .quick_sensitive
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str("  \"entries\": [\n");
    for (i, m) in report.measurements.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_s\": {:e}, \"best_s\": {:e}, \
             \"iterations\": {}, \"per_second\": {:.3}}}{}\n",
            m.name,
            m.mean_s,
            m.best_s,
            m.iterations,
            m.throughput(),
            if i + 1 < report.measurements.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"service\": [\n");
    for (i, t) in report.service.iter().enumerate() {
        let opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.3}"),
            None => "null".to_string(),
        };
        s.push_str(&format!(
            "    {{\"batch\": {}, \"cold_rps\": {:.3}, \"warm_rps\": {:.3}, \
             \"warm_metrics_rps\": {}, \
             \"socket_rps\": {}, \"cluster_rps\": {}, \
             \"warm_p50_us\": {}, \"warm_p99_us\": {}, \"warm_p999_us\": {}, \
             \"socket_p50_us\": {}, \"socket_p99_us\": {}, \"socket_p999_us\": {}, \
             \"cluster_p50_us\": {}, \"cluster_p99_us\": {}, \"cluster_p999_us\": {}}}{}\n",
            t.batch,
            t.cold_rps,
            t.warm_rps,
            opt(t.warm_metrics_rps),
            opt(t.socket_rps),
            opt(t.cluster_rps),
            opt(t.warm_p50_us),
            opt(t.warm_p99_us),
            opt(t.warm_p999_us),
            opt(t.socket_p50_us),
            opt(t.socket_p99_us),
            opt(t.socket_p999_us),
            opt(t.cluster_p50_us),
            opt(t.cluster_p99_us),
            opt(t.cluster_p999_us),
            if i + 1 < report.service.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"cluster_spans\": [\n");
    for (i, sp) in report.cluster_spans.iter().enumerate() {
        let opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.3}"),
            None => "null".to_string(),
        };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"count\": {}, \"p50_us\": {}, \
             \"p99_us\": {}, \"p999_us\": {}}}{}\n",
            sp.name,
            sp.count,
            opt(sp.p50_us),
            opt(sp.p99_us),
            opt(sp.p999_us),
            if i + 1 < report.cluster_spans.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n");
    match &report.openloop {
        Some(ol) => {
            let opt = |v: Option<f64>| match v {
                Some(v) => format!("{v:.3}"),
                None => "null".to_string(),
            };
            s.push_str("  \"openloop\": {\n");
            s.push_str(&format!(
                "    \"capacity_rps\": {:.3},\n    \"rows\": [\n",
                ol.capacity_rps
            ));
            for (i, r) in ol.rows.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"multiplier\": {:.3}, \"offered\": {}, \"accepted\": {}, \
                     \"shed\": {}, \"offered_rps\": {:.3}, \"goodput_rps\": {:.3}, \
                     \"shed_rate\": {:.4}, \"degraded_rate\": {:.4}, \
                     \"deadline_expired\": {}, \"error_count\": {}, \
                     \"accepted_p50_us\": {}, \"accepted_p99_us\": {}, \
                     \"accepted_p999_us\": {}}}{}\n",
                    r.multiplier,
                    r.offered,
                    r.accepted,
                    r.shed,
                    r.offered_rps,
                    r.goodput_rps,
                    r.shed_rate,
                    r.degraded_rate,
                    r.deadline_expired,
                    r.error_count,
                    opt(r.accepted_p50_us),
                    opt(r.accepted_p99_us),
                    opt(r.accepted_p999_us),
                    if i + 1 < ol.rows.len() { "," } else { "" }
                ));
            }
            s.push_str("    ]\n  },\n");
        }
        None => s.push_str("  \"openloop\": null,\n"),
    }
    s.push_str("  \"derived\": {\n");
    match report.p4_n12_speedup {
        Some(x) => s.push_str(&format!("    \"p4_n12_speedup_vs_naive\": {x:.2}\n")),
        None => s.push_str("    \"p4_n12_speedup_vs_naive\": null\n"),
    }
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}

/// Runs the suite and writes `BENCH_<sha>.json` into `dir`, returning
/// the file path. Filtered runs (a partial suite) would make a
/// misleading baseline, so they skip the write and return `None` for
/// the path half — the measurements still print.
pub fn run_and_write(
    dir: &std::path::Path,
    quick: bool,
    filter: Option<&str>,
) -> std::io::Result<Option<std::path::PathBuf>> {
    let report = run_suite(quick, filter);
    if let Some(f) = filter {
        // A filter matching nothing is an error, not a silent pass —
        // otherwise a renamed entry would turn a CI smoke step into a
        // green no-op forever.
        if report.measurements.is_empty() {
            return Err(std::io::Error::other(format!(
                "--filter `{f}` matched no suite entries"
            )));
        }
        return Ok(None);
    }
    let sha = git_sha();
    let path = dir.join(format!("BENCH_{sha}.json"));
    std::fs::write(&path, to_json(&report, &sha))?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_reference_agrees_with_solver() {
        // The baseline must solve the same problem: identical
        // trajectories for a fixed iteration budget.
        let nodes = vec![params(); 5];
        // Pin the Gray-code kernel: the naive reference enumerates, so
        // the fast side must walk the same trajectory (Auto would
        // route this homogeneous instance to the closed form).
        let opts = fixed_iters(40, KernelSelect::GrayCode);
        let naive = solve_p4_naive_reference(&nodes, 0.5, ThroughputMode::Groupput, opts);
        let fast =
            econcast_statespace::solve_p4(&nodes, 0.5, ThroughputMode::Groupput, opts).throughput;
        assert!(
            (naive - fast).abs() <= 1e-9 * (1.0 + fast.abs()),
            "naive {naive} vs workspace {fast}"
        );
    }

    #[test]
    fn json_shape_is_parsable_enough() {
        let report = SuiteReport {
            measurements: vec![Measurement {
                name: "x".into(),
                iterations: 3,
                mean_s: 0.5,
                best_s: 0.4,
            }],
            p4_n12_speedup: Some(12.5),
            service: vec![ServiceThroughput {
                batch: 32,
                cold_rps: 1234.5,
                warm_rps: 99999.0,
                warm_metrics_rps: Some(97500.25),
                socket_rps: Some(4321.0),
                cluster_rps: Some(2100.5),
                warm_p50_us: Some(12.25),
                warm_p99_us: Some(99.5),
                warm_p999_us: None,
                socket_p50_us: Some(150.0),
                socket_p99_us: Some(420.5),
                socket_p999_us: None,
                cluster_p50_us: None,
                cluster_p99_us: Some(910.25),
                cluster_p999_us: None,
            }],
            threads: 4,
            quick: true,
            quick_sensitive: vec!["x".into(), "y".into()],
            cluster_spans: vec![SpanStats {
                name: "remote_serve",
                count: 240,
                p50_us: Some(801.5),
                p99_us: Some(1900.0),
                p999_us: None,
            }],
            openloop: Some(crate::openloop::OpenLoopReport {
                capacity_rps: 5000.0,
                rows: vec![crate::openloop::OpenLoopRow {
                    multiplier: 2.0,
                    offered: 400,
                    accepted: 300,
                    shed: 100,
                    offered_rps: 10000.0,
                    goodput_rps: 7500.25,
                    shed_rate: 0.25,
                    degraded_rate: 0.125,
                    deadline_expired: 0,
                    error_count: 0,
                    accepted_p50_us: Some(850.0),
                    accepted_p99_us: Some(12000.5),
                    accepted_p999_us: None,
                }],
            }),
        };
        let j = to_json(&report, "abc123");
        assert!(j.contains("\"git_sha\": \"abc123\""));
        assert!(j.contains("\"quick_sensitive\": [\"x\", \"y\"],"));
        assert!(j.contains("\"name\": \"x\""));
        assert!(j.contains("\"p4_n12_speedup_vs_naive\": 12.50"));
        assert!(j.contains("\"batch\": 32"));
        assert!(j.contains("\"cold_rps\": 1234.500"));
        assert!(j.contains("\"warm_metrics_rps\": 97500.250"));
        assert!(j.contains("\"socket_rps\": 4321.000"));
        assert!(j.contains("\"cluster_rps\": 2100.500"));
        assert!(j.contains("\"warm_p50_us\": 12.250"));
        assert!(j.contains("\"warm_p99_us\": 99.500"));
        assert!(j.contains("\"warm_p999_us\": null"));
        assert!(j.contains("\"socket_p99_us\": 420.500"));
        assert!(j.contains("\"cluster_p50_us\": null"));
        assert!(j.contains("\"cluster_p99_us\": 910.250"));
        assert!(j.contains("\"name\": \"remote_serve\", \"count\": 240"));
        assert!(j.contains("\"p99_us\": 1900.000"));
        assert!(j.contains("\"capacity_rps\": 5000.000"));
        assert!(j.contains("\"multiplier\": 2.000"));
        assert!(j.contains("\"goodput_rps\": 7500.250"));
        assert!(j.contains("\"shed_rate\": 0.2500"));
        assert!(j.contains("\"accepted_p99_us\": 12000.500"));
        assert!(j.contains("\"accepted_p999_us\": null"));
        assert!(j.starts_with("{\n") && j.ends_with("}\n"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
