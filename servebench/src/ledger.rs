//! The traced run: an outside-in layer ledger.
//!
//! Each measured call is served once per layer depth, outermost first,
//! on replicas that have seen exactly the same calls (so every replica
//! holds the same cache state when the call arrives):
//!
//! | span | public call timed | replica |
//! |---|---|---|
//! | `cluster.front_rt` | `PolicyClient::serve_batch` to the front | the stack |
//! | `cluster.router` | `ClusterRouter::serve_batch` | router + 2 backends |
//! | `net.one_hop` | `PolicyClient::submit_batch`/`collect`, one per home backend | 2 backends |
//! | `service.shard_router` | `ShardRouter::serve_batch` | in process |
//! | `service.serve_batch` | `PolicyService::serve_batch` | in process |
//! | `statespace.solve_*` | `P4Solver::solve`, `HomogeneousP4::solve` | the call's misses |
//! | `oracle.certificate` | `certificate_for`, `certificate_for_homogeneous` | the call's misses |
//! | `proto.encode` / `proto.decode` | `ScatterEncoder::push_all`, `ServiceCodec::next_message` | the hop's real frames |
//!
//! A span's parent is the next layer out; spans under a fan-out carry
//! the home backend as their branch. A span's self time is its duration
//! minus its children's, where children on different branches ran
//! concurrently in the real call, so only the busiest branch (the
//! critical path) is subtracted and attributed. The ledger sums self
//! times along the critical path and reports what is left of the
//! end-to-end time as `ledger.unattributed_ratio` — never folded into a
//! layer. Spans stay in memory and are written out when the run ends.

use crate::check::{compare, Expected, Tally};
use crate::conn::Conn;
use crate::load::{self, quantile, Cursor};
use crate::stack::{self, Stack};
use crate::workload::{Plan, Rng, Workload};
use crate::{host_canary_ns, Metric, Outcome};
use econcast_core::NodeParams;
use econcast_oracle::{certificate_for, certificate_for_homogeneous};
use econcast_proto::service::WIRE_VERSION;
use econcast_proto::WirePolicyResponse;
use econcast_proto::{ScatterEncoder, ServiceCodec, ServiceMessage};
use econcast_service::{
    PolicyClient, PolicyRequest, PolicyResponse, PolicyService, ServedTier, ServiceError,
    ServiceStats, ShardRouter, WireResult,
};
use econcast_statespace::{
    CanonicalInstance, HomogeneousP4, InstanceKey, KernelSelect, P4Options, P4Solver, SummaryKernel,
};
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest measured calls a ledger is built from.
const MIN_CALLS: usize = 200;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    call: u32,
    parent: Option<usize>,
    branch: u8,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// In-memory span store.
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Times `f` as one span and returns its result and span index.
    fn span<T>(
        &mut self,
        name: &'static str,
        call: u32,
        parent: Option<usize>,
        branch: u8,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            call,
            parent,
            branch,
            start_ns,
            end_ns,
        });
        (out, self.spans.len() - 1)
    }

    /// Writes every span as one JSON array.
    fn write(&self, path: &std::path::Path) -> io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"call\": {}, \"parent\": {parent}, \"branch\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.name,
                s.call,
                s.branch,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// The replicas each call is served on, one per layer depth.
struct Layers {
    stack: Stack,
    front: PolicyClient,
    router: econcast_cluster::ClusterRouter,
    router_backends: Vec<econcast_service::ServerHandle>,
    hop_backends: Vec<econcast_service::ServerHandle>,
    hops: Vec<PolicyClient>,
    shards: Vec<ShardRouter>,
    services: Vec<PolicyService>,
    /// Twins of `services` served with metrics recording off.
    unrecorded: Vec<PolicyService>,
    solvers: HashMap<usize, P4Solver>,
    enc: ScatterEncoder,
}

impl Layers {
    fn start() -> io::Result<Self> {
        let stack = Stack::start()?;
        let front = PolicyClient::connect(stack.addr(), 1024)?;
        let router_backends = stack::backends()?;
        let router = stack::cluster_router(&router_backends);
        let hop_backends = stack::backends()?;
        let hops = hop_backends
            .iter()
            .map(|b| PolicyClient::connect(b.addr(), 1024))
            .collect::<io::Result<_>>()?;
        Ok(Layers {
            stack,
            front,
            router,
            router_backends,
            hop_backends,
            hops,
            shards: (0..2).map(|_| stack::shard_replica()).collect(),
            services: (0..2).map(|_| stack::service_replica()).collect(),
            unrecorded: (0..2).map(|_| stack::service_replica()).collect(),
            solvers: HashMap::new(),
            enc: ScatterEncoder::new(),
        })
    }

    fn shutdown(self) {
        drop(self.front);
        drop(self.hops);
        drop(self.router);
        self.stack.shutdown();
        for b in self.router_backends.into_iter().chain(self.hop_backends) {
            b.shutdown();
        }
    }
}

/// Side measurements that are not spans of the critical path.
#[derive(Default)]
struct Extras {
    /// Requests and frame bytes through the traced hop codec.
    requests: u64,
    bytes: u64,
    crc_ns: f64,
    /// Σ (recording on − recording off) over measured calls, ns.
    recording_ns: f64,
    /// Dual-descent iterations of replayed heterogeneous solves.
    dual_iters: Vec<f64>,
}

/// Replica answers that differ from the reference: the ledger would
/// be timing different work than the stack did.
#[derive(Default)]
struct ReplicaCheck {
    compared: u64,
    wrong: u64,
    first: Option<String>,
}

impl ReplicaCheck {
    /// Compares one layer's answers, in wire form, with the reference.
    fn check<'a>(
        &mut self,
        layer: &str,
        reqs: &[&PolicyRequest],
        got: impl IntoIterator<Item = Result<std::borrow::Cow<'a, WirePolicyResponse>, String>>,
        want: &[&PolicyResponse],
    ) {
        for ((req, got), want) in reqs.iter().zip(got).zip(want) {
            self.compared += 1;
            if let Err(why) = got.and_then(|r| compare(req, &r, want)) {
                self.wrong += 1;
                self.first.get_or_insert(format!("{layer}: {why}"));
            }
        }
    }

    /// [`check`](Self::check) for in-process answers.
    fn native(
        &mut self,
        layer: &str,
        reqs: &[&PolicyRequest],
        got: &[Result<PolicyResponse, ServiceError>],
        want: &[&PolicyResponse],
    ) {
        let got = got.iter().map(|r| match r {
            Ok(r) => Ok(std::borrow::Cow::Owned(r.to_wire(0))),
            Err(e) => Err(e.to_string()),
        });
        self.check(layer, reqs, got, want);
    }

    /// [`check`](Self::check) for answers off the wire.
    fn wire(
        &mut self,
        layer: &str,
        reqs: &[&PolicyRequest],
        got: &[WireResult],
        want: &[&PolicyResponse],
    ) {
        let got = got.iter().map(|r| match r {
            Ok(r) => Ok(std::borrow::Cow::Borrowed(r)),
            Err(e) => Err(format!("{:?}", e.code)),
        });
        self.check(layer, reqs, got, want);
    }
}

/// Serves one call through every layer, recording its spans.
#[allow(clippy::too_many_arguments)]
fn trace_call(
    layers: &mut Layers,
    rec: &mut Recorder,
    call: u32,
    reqs: &[PolicyRequest],
    want: &[PolicyResponse],
    tally: &mut Tally,
    replicas: &mut ReplicaCheck,
    extras: &mut Extras,
) -> io::Result<()> {
    // Outermost: the real front round trip.
    let (got, front) = rec.span("cluster.front_rt", call, None, 0, || {
        layers.front.serve_batch(reqs)
    });
    tally.call(reqs, &got?, want);

    // The cluster router over its own two backends.
    let (routed, router) = rec.span("cluster.router", call, Some(front), 0, || {
        layers.router.serve_batch(reqs)
    });
    let all_reqs: Vec<&PolicyRequest> = reqs.iter().collect();
    let all_want: Vec<&PolicyResponse> = want.iter().collect();
    replicas.native("router", &all_reqs, &routed, &all_want);

    // Split by home backend, as the router does.
    let mut subs: Vec<Vec<usize>> = vec![Vec::new(); 2];
    for (i, r) in reqs.iter().enumerate() {
        let canon = canonical(r);
        subs[usize::from(layers.router.slot_of_key(&canon.key))].push(i);
    }
    let sub_reqs: Vec<Vec<PolicyRequest>> = subs
        .iter()
        .map(|idx| idx.iter().map(|&i| reqs[i].clone()).collect())
        .collect();

    // One hop: both home backends, pipelined as the router does.
    let hops = &mut layers.hops;
    let (hop_results, hop) = rec.span(
        "net.one_hop",
        call,
        Some(router),
        0,
        || -> io::Result<Vec<Vec<WireResult>>> {
            let mut tickets = Vec::new();
            for (s, sub) in sub_reqs.iter().enumerate() {
                if !sub.is_empty() {
                    tickets.push((s, hops[s].submit_batch(sub)?));
                }
            }
            let mut out = vec![Vec::new(); 2];
            for (s, t) in tickets {
                out[s] = hops[s].collect(t)?;
            }
            Ok(out)
        },
    );
    let hop_results = hop_results?;

    let recording_first = call.is_multiple_of(2);
    for s in 0..2 {
        if subs[s].is_empty() {
            continue;
        }
        let branch = s as u8;
        let sub = &sub_reqs[s];
        let sub_ref: Vec<&PolicyRequest> = sub.iter().collect();
        let sub_want: Vec<&PolicyResponse> = subs[s].iter().map(|&i| &want[i]).collect();
        replicas.wire("one hop", &sub_ref, &hop_results[s], &sub_want);

        let (sharded, shard) = rec.span("service.shard_router", call, Some(hop), branch, || {
            layers.shards[s].serve_batch(sub)
        });
        replicas.native("shard router", &sub_ref, &sharded, &sub_want);

        // The service, with metrics recording on (its production
        // default) and, on an identical twin, off.
        let unrecorded = |layers: &mut Layers| {
            econcast_metrics::set_recording(false);
            let t0 = Instant::now();
            let out = layers.unrecorded[s].serve_batch(sub);
            let ns = t0.elapsed().as_nanos() as f64;
            econcast_metrics::set_recording(true);
            (out, ns)
        };
        let mut off = None;
        if !recording_first {
            off = Some(unrecorded(layers));
        }
        let (served, svc) = rec.span("service.serve_batch", call, Some(shard), branch, || {
            layers.services[s].serve_batch(sub)
        });
        if recording_first {
            off = Some(unrecorded(layers));
        }
        let (off_results, off_ns) = off.expect("measured once");
        extras.recording_ns += rec.spans[svc].dur() - off_ns;
        replicas.native("service", &sub_ref, &served, &sub_want);
        replicas.native("service (recording off)", &sub_ref, &off_results, &sub_want);

        replay_misses(
            layers, rec, call, svc, branch, sub, &served, replicas, extras,
        );
        codec(layers, rec, call, hop, branch, sub, &hop_results[s], extras);
    }
    Ok(())
}

fn canonical(r: &PolicyRequest) -> CanonicalInstance {
    CanonicalInstance::new(
        &r.budgets_w,
        r.listen_w,
        r.transmit_w,
        r.sigma,
        r.objective,
        r.tolerance,
    )
}

/// Re-runs the kernel and certificate of every fresh solve the service
/// replica performed for this sub-batch (one per canonical key), with
/// the options the service itself uses.
#[allow(clippy::too_many_arguments)]
fn replay_misses(
    layers: &mut Layers,
    rec: &mut Recorder,
    call: u32,
    parent: usize,
    branch: u8,
    sub: &[PolicyRequest],
    served: &[Result<PolicyResponse, ServiceError>],
    replicas: &mut ReplicaCheck,
    extras: &mut Extras,
) {
    let mut seen: HashSet<InstanceKey> = HashSet::new();
    for (req, resp) in sub.iter().zip(served) {
        let Ok(resp) = resp else { continue };
        if !matches!(resp.tier, ServedTier::Solver | ServedTier::ClosedForm) {
            continue;
        }
        let canon = canonical(req);
        if !seen.insert(canon.key.clone()) {
            continue;
        }
        let nodes: Vec<NodeParams> = canon
            .sorted_budgets
            .iter()
            .map(|&rho| NodeParams::new(rho, req.listen_w, req.transmit_w))
            .collect();
        let throughput = if resp.tier == ServedTier::ClosedForm {
            let n = nodes.len();
            let (sol, _) = rec.span(
                "statespace.solve_homogeneous",
                call,
                Some(parent),
                branch,
                || HomogeneousP4::new(n, nodes[0], req.sigma, req.objective).solve(),
            );
            rec.span("oracle.certificate", call, Some(parent), branch, || {
                certificate_for_homogeneous(n, &nodes[0], req.sigma, req.objective, &sol)
            });
            sol.throughput
        } else {
            let opts = P4Options {
                max_iters: 30_000,
                tol: canon.tolerance_tier,
                step0: 2.0,
                kernel: KernelSelect::Auto,
            };
            let solver = layers
                .solvers
                .entry(nodes.len())
                .or_insert_with(|| P4Solver::new(nodes.len()));
            let start = rec.now();
            let sol = solver.solve(&nodes, req.sigma, req.objective, opts);
            let end = rec.now();
            let name = match sol.kernel {
                SummaryKernel::GrayCode => "statespace.solve_graycode",
                SummaryKernel::Factorized => "statespace.solve_factorized",
                SummaryKernel::Homogeneous => "statespace.solve_homogeneous",
            };
            rec.spans.push(Span {
                name,
                call,
                parent: Some(parent),
                branch,
                start_ns: start,
                end_ns: end,
            });
            extras.dual_iters.push(sol.iterations as f64);
            rec.span("oracle.certificate", call, Some(parent), branch, || {
                certificate_for(&nodes, req.sigma, req.objective, &sol)
            });
            sol.throughput
        };
        replicas.compared += 1;
        if throughput.to_bits() != resp.throughput.to_bits() {
            replicas.wrong += 1;
            replicas
                .first
                .get_or_insert("kernel replay: throughput differs from the service's solve".into());
        }
    }
}

/// Times this hop's wire work on its real frames: both sides' encode
/// (requests out, responses back) and both sides' decode.
#[allow(clippy::too_many_arguments)]
fn codec(
    layers: &mut Layers,
    rec: &mut Recorder,
    call: u32,
    parent: usize,
    branch: u8,
    sub: &[PolicyRequest],
    replies: &[WireResult],
    extras: &mut Extras,
) {
    let requests: Vec<ServiceMessage> = sub
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let mut w = r.to_wire(k as u32);
            w.corr = call.max(1);
            ServiceMessage::Request(w)
        })
        .collect();
    let responses: Vec<ServiceMessage> = replies
        .iter()
        .map(|r| match r {
            Ok(resp) => ServiceMessage::Response(resp.clone()),
            Err(e) => ServiceMessage::Error(*e),
        })
        .collect();
    let enc = &mut layers.enc;
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(2);
    rec.span("proto.encode", call, Some(parent), branch, || {
        for msgs in [&requests, &responses] {
            enc.clear();
            enc.push_all(msgs, WIRE_VERSION);
            frames.push(enc.pending().to_vec());
        }
    });
    enc.clear();
    let ((), _) = rec.span("proto.decode", call, Some(parent), branch, || {
        for bytes in &frames {
            let mut codec = ServiceCodec::new();
            codec.feed(bytes);
            while let Ok(Some(msg)) = codec.next_message() {
                std::hint::black_box(msg);
            }
        }
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    for f in &frames {
        std::hint::black_box(econcast_proto::crc::crc16_ccitt(std::hint::black_box(f)));
    }
    extras.crc_ns += t0.elapsed().as_nanos() as f64;
    extras.bytes += bytes as u64;
    extras.requests += sub.len() as u64;
}

/// The ledger over spans `first..`: every span's self time (its
/// duration minus its busiest branch of children), the self times
/// summed by span name along each call's critical path, and the summed
/// end-to-end time. Self times are signed: a negative one means an inner
/// replay ran slower than its parent did.
fn attribute(spans: &[Span], first: usize) -> (HashMap<&'static str, f64>, Vec<f64>, f64) {
    let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate().skip(first) {
        match s.parent {
            Some(p) => children.entry(p).or_default().push(i),
            None => roots.push(i),
        }
    }
    let busiest = |i: usize| -> Option<(u8, f64)> {
        let mut by_branch: HashMap<u8, f64> = HashMap::new();
        for &c in children.get(&i).map_or(&[][..], Vec::as_slice) {
            *by_branch.entry(spans[c].branch).or_default() += spans[c].dur();
        }
        by_branch.into_iter().max_by(|a, b| a.1.total_cmp(&b.1))
    };
    let self_ns: Vec<f64> = (0..spans.len())
        .map(|i| {
            if i < first {
                0.0
            } else {
                spans[i].dur() - busiest(i).map_or(0.0, |(_, t)| t)
            }
        })
        .collect();
    let mut critical: HashMap<&'static str, f64> = HashMap::new();
    let e2e = roots.iter().map(|&r| spans[r].dur()).sum();
    let mut stack = roots;
    while let Some(i) = stack.pop() {
        *critical.entry(spans[i].name).or_default() += self_ns[i];
        if let Some((b, _)) = busiest(i) {
            stack.extend(children[&i].iter().filter(|&&c| spans[c].branch == b));
        }
    }
    (critical, self_ns, e2e)
}

/// Layers of the ledger, innermost first, as span-name prefixes.
const LAYERS: [(&str, &[&str]); 8] = [
    (
        "statespace",
        &[
            "statespace.solve_graycode",
            "statespace.solve_factorized",
            "statespace.solve_homogeneous",
        ],
    ),
    ("oracle", &["oracle.certificate"]),
    ("service.serve", &["service.serve_batch"]),
    ("service.route", &["service.shard_router"]),
    ("proto", &["proto.encode", "proto.decode"]),
    ("net", &["net.one_hop"]),
    ("cluster.route", &["cluster.router"]),
    ("cluster.front", &["cluster.front_rt"]),
];

pub fn run(
    w: Workload,
    plan: &Arc<Plan>,
    exp: &Arc<Expected>,
    budget: Duration,
    seed: u64,
) -> io::Result<Outcome> {
    let mut layers = Layers::start()?;
    let mut rec = Recorder {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let mut tally = Tally::default();
    let mut replicas = ReplicaCheck::default();
    let mut extras = Extras::default();

    // Warm-up through every replica alike; its spans count toward the
    // per-kernel solve times (on the hot workloads the only misses are
    // here) but not toward the ledger.
    for (k, call) in plan.warm.iter().enumerate() {
        let mut warm_extras = Extras::default();
        trace_call(
            &mut layers,
            &mut rec,
            k as u32,
            call,
            &exp.warm[k],
            &mut tally,
            &mut replicas,
            &mut warm_extras,
        )?;
        extras.dual_iters.append(&mut warm_extras.dual_iters);
    }
    let first_measured = rec.spans.len();
    let stats_before = layers.front.stats(None)?;
    let mut cursor = 0usize;
    let mut calls = 0usize;
    let ledger_time = budget.mul_f64(0.7);
    let start = Instant::now();
    let mut measured = Extras::default();
    while calls < MIN_CALLS || start.elapsed() < ledger_time {
        let k = cursor;
        cursor = (cursor + 1) % plan.calls.len();
        let id = (plan.warm.len() + calls) as u32;
        trace_call(
            &mut layers,
            &mut rec,
            id,
            &plan.calls[k],
            &exp.calls[k],
            &mut tally,
            &mut replicas,
            &mut measured,
        )?;
        calls += 1;
    }
    extras.dual_iters.append(&mut measured.dual_iters);
    let stats_after = layers.front.stats(None)?;

    // A busy open-loop phase on the traced stack: queue depth and the
    // generator's lag under load.
    let mut conn = Conn::connect(layers.stack.addr(), Arc::clone(plan), Arc::clone(exp))?;
    let mut load_cursor = Cursor::new(plan.calls.len());
    let mut rng = Rng::new(seed ^ 0x6275_7379);
    let busy = load::open(
        &mut conn,
        &mut load_cursor,
        w.drive().busy_cps,
        budget.mul_f64(0.3),
        load::MIN_OPEN_CALLS,
        &mut rng,
    )?;
    conn.close()?;
    tally.merge(&busy.tally);
    let queue_peak = layers.stack.front.admission().depth_peak();
    layers.shutdown();

    let path = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "servebench/target".into()),
    )
    .join(format!("servebench-spans-{}-{seed}.json", w.name()));
    rec.write(&path)?;

    // The ledger over the measured calls.
    let (critical, self_ns, e2e_ns) = attribute(&rec.spans, first_measured);
    let n = calls as f64;
    let e2e_us = e2e_ns / n / 1e3;
    println!(
        "ledger over {calls} calls (spans in {}): end to end {e2e_us:.2} us/call",
        path.display()
    );
    let mut attributed = 0.0;
    let mut dominant = ("", 0.0);
    // A layer whose mean self time comes out negative (its replay ran
    // slower on average than its parent) attributes nothing; what the
    // layers do not cover is the unattributed residual.
    for (layer, names) in LAYERS {
        let signed = names
            .iter()
            .map(|m| critical.get(m).copied().unwrap_or(0.0))
            .sum::<f64>()
            / n
            / 1e3;
        let us = signed.max(0.0);
        attributed += us;
        if us > dominant.1 {
            dominant = (layer, us);
        }
        println!(
            "  {layer:<14} {us:>10.2} us/call {:>6.1}%",
            100.0 * us / e2e_us
        );
    }
    let unattributed = (e2e_us - attributed) / e2e_us;
    println!(
        "  {:<14} {:>10.2} us/call {:>6.1}%  (dominant layer: {})",
        "unattributed",
        e2e_us - attributed,
        100.0 * unattributed,
        dominant.0
    );

    let measured_spans = || rec.spans.iter().enumerate().skip(first_measured);
    let self_sum = |name: &str| -> f64 {
        measured_spans()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| self_ns[i])
            .sum()
    };
    let dur_sum = |name: &str| -> f64 {
        measured_spans()
            .filter(|(_, s)| s.name == name)
            .map(|(_, s)| s.dur())
            .sum()
    };
    let mean_all = |name: &str| -> f64 {
        let d: Vec<f64> = rec
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    };
    let count_all = |name: &str| rec.spans.iter().filter(|s| s.name == name).count();
    let router_durs: Vec<f64> = measured_spans()
        .filter(|(_, s)| s.name == "cluster.router")
        .map(|(_, s)| s.dur() / 1e3)
        .collect();
    let reqs = measured.requests.max(1) as f64;
    let delta =
        |f: fn(&ServiceStats) -> u64| f(&stats_after).saturating_sub(f(&stats_before)) as f64;
    let served = delta(|s| s.requests).max(1.0);
    let lag_p99 = quantile(&busy.lag_us, 0.99);
    let canary = host_canary_ns();
    for kernel in ["graycode", "factorized", "homogeneous"] {
        let name = format!("statespace.solve_{kernel}");
        println!("  {name}: {} solves", count_all(&name));
    }
    println!(
        "cluster.router_p99_us {:.1} (n={}); busy phase: {} calls, lag p99 {lag_p99:.1} us (n={}), queue peak {queue_peak}",
        quantile(&router_durs, 0.99),
        router_durs.len(),
        busy.calls,
        busy.lag_us.len()
    );
    println!(
        "replica answers: {} compared, {} differing from the reference{}",
        replicas.compared,
        replicas.wrong,
        replicas
            .first
            .as_ref()
            .map_or(String::new(), |f| format!(" (first: {f})"))
    );
    if replicas.wrong > 0 {
        tally.wrong += replicas.wrong;
        tally
            .first_problem
            .get_or_insert(replicas.first.clone().unwrap_or_default());
    }
    let closes = unattributed.abs() <= 0.10;
    if !closes {
        println!("ledger does NOT close within 10%");
    }
    let metrics = vec![
        Metric {
            name: "statespace.solve_graycode_us",
            value: mean_all("statespace.solve_graycode") / 1e3,
            unit: "us",
        },
        Metric {
            name: "statespace.solve_factorized_us",
            value: mean_all("statespace.solve_factorized") / 1e3,
            unit: "us",
        },
        Metric {
            name: "statespace.solve_homogeneous_us",
            value: mean_all("statespace.solve_homogeneous") / 1e3,
            unit: "us",
        },
        Metric {
            name: "statespace.dual_iters",
            value: extras.dual_iters.iter().sum::<f64>() / extras.dual_iters.len().max(1) as f64,
            unit: "count",
        },
        Metric {
            name: "oracle.certificate_us",
            value: mean_all("oracle.certificate") / 1e3,
            unit: "us",
        },
        Metric {
            name: "service.serve_ns_per_req",
            value: self_sum("service.serve_batch") / reqs,
            unit: "ns/req",
        },
        Metric {
            name: "service.route_ns_per_req",
            value: self_sum("service.shard_router") / reqs,
            unit: "ns/req",
        },
        Metric {
            name: "service.hit_ratio",
            value: delta(|s| s.exact_hits) / served,
            unit: "ratio",
        },
        Metric {
            name: "service.lru_evictions_per_kreq",
            value: 1e3 * delta(|s| s.lru_evictions) / served,
            unit: "1/kreq",
        },
        Metric {
            name: "service.grid_builds",
            value: stats_after.grid_builds as f64,
            unit: "count",
        },
        Metric {
            name: "service.queue_peak",
            value: queue_peak as f64,
            unit: "requests",
        },
        Metric {
            name: "proto.encode_ns_per_req",
            value: dur_sum("proto.encode") / reqs,
            unit: "ns/req",
        },
        Metric {
            name: "proto.decode_ns_per_req",
            value: dur_sum("proto.decode") / reqs,
            unit: "ns/req",
        },
        Metric {
            name: "proto.crc_ns_per_kib",
            value: measured.crc_ns / (measured.bytes.max(1) as f64 / 1024.0),
            unit: "ns/KiB",
        },
        Metric {
            name: "proto.bytes_per_req",
            value: measured.bytes as f64 / reqs,
            unit: "B/req",
        },
        Metric {
            name: "net.socket_us_per_call",
            value: self_sum("net.one_hop") / n / 1e3,
            unit: "us/call",
        },
        Metric {
            name: "cluster.route_us_per_call",
            value: self_sum("cluster.router") / n / 1e3,
            unit: "us/call",
        },
        Metric {
            name: "cluster.router_p99_us",
            value: quantile(&router_durs, 0.99),
            unit: "us",
        },
        Metric {
            name: "cluster.front_us_per_call",
            value: self_sum("cluster.front_rt") / n / 1e3,
            unit: "us/call",
        },
        Metric {
            name: "metrics.recording_ns_per_call",
            value: measured.recording_ns / n,
            unit: "ns/call",
        },
        Metric {
            name: "ledger.unattributed_ratio",
            value: unattributed,
            unit: "ratio",
        },
        Metric {
            name: "loadgen.lag_p99_us",
            value: lag_p99,
            unit: "us",
        },
        Metric {
            name: "host.canary_ns",
            value: canary,
            unit: "ns",
        },
    ];
    let invalid = if !closes {
        Some("the ledger does not close within 10%")
    } else if !crate::generator_kept_up(&busy.lag_us) {
        Some(crate::FELL_BEHIND)
    } else {
        None
    };
    Ok(Outcome {
        tally,
        invalid,
        metrics,
    })
}
