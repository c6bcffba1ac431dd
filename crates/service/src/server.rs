//! The TCP front-end: a [`ShardRouter`] behind a `std::net` listener,
//! and the [`Acceptor`] every TCP front-end in the workspace runs on.
//!
//! ## Threading model
//!
//! One acceptor thread plus one thread per live connection, bounded by
//! a counting gate ([`ServerConfig::max_connections`]): when the pool
//! is full the acceptor blocks *before* accepting, so excess clients
//! queue in the kernel backlog instead of spawning unbounded threads.
//! The environment is offline (no tokio); blocking I/O over OS threads
//! is the deployment story this repo can actually run, and the shard
//! mutexes already serialize what must be serialized — handlers whose
//! batches touch disjoint shards proceed in parallel. The cluster
//! front runs on the same [`Acceptor`], with its router as the
//! [`ServeTarget`].
//!
//! ## Protocol
//!
//! Connections speak the length-prefixed `econcast-proto` service
//! family ([`ServiceCodec`]). A client *should* open with `Hello`
//! (answered by `Welcome` carrying the shard count and batch cap) but
//! the server also serves handshake-less streams. Every fully received
//! `Request` in one read cycle is served as a single routed batch, so
//! pipelining `k` requests buys `k`-way batching. `StatsRequest`
//! answers from the router's per-shard or aggregate counters. Decode
//! errors (CRC, framing, version) are fatal for the connection,
//! matching the codec's semantics: the server drops the stream without
//! a reply.

use crate::admission::{degraded_tolerance, Admission, AdmissionController};
use crate::request::{PolicyRequest, PolicyResponse, ServiceError};
use crate::shard::{RouterConfig, ShardRouter};
use bytes::BytesMut;
use econcast_metrics::{
    MetricsSnapshot, OpsKind, CTR_DEGRADED, CTR_OVERLOADED_SENT, GAUGE_QUEUE_DEPTH,
    GAUGE_QUEUE_DEPTH_PEAK,
};
use econcast_proto::service::{
    ServiceCodec, ServiceErrorCode, ServiceMessage, WireMetricsResponse, WirePolicyError, WirePong,
    WireStatsResponse, WireWelcome, STATS_SHARD_AGGREGATE,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`PolicyServer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Shard/routing configuration.
    pub router: RouterConfig,
    /// Maximum concurrently served connections (the accept pool
    /// bound); further clients wait in the listen backlog.
    pub max_connections: usize,
    /// Largest request batch served as one unit; longer pipelines are
    /// split. Advertised in the `Welcome` handshake.
    pub max_batch: usize,
    /// Has no effect: the server runs no background prewarmer. Kept
    /// only so `servebench/` compiles; the next benchmark PR deletes
    /// it.
    pub background_prewarm: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            router: RouterConfig::default(),
            max_connections: 64,
            max_batch: 1024,
            background_prewarm: false,
        }
    }
}

/// Counting gate bounding the connection-handler pool.
#[derive(Debug)]
struct ConnGate {
    active: Mutex<usize>,
    freed: Condvar,
    cap: usize,
}

impl ConnGate {
    fn new(cap: usize) -> Self {
        ConnGate {
            active: Mutex::new(0),
            freed: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Blocks until a handler slot is free and claims it, or returns
    /// `false` when `stop` is raised while waiting (shutdown wakes
    /// waiters via [`ConnGate::interrupt`]).
    fn acquire(&self, stop: &AtomicBool) -> bool {
        let mut active = self.active.lock().expect("gate poisoned");
        while *active >= self.cap {
            if stop.load(Ordering::SeqCst) {
                return false;
            }
            active = self.freed.wait(active).expect("gate poisoned");
        }
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        *active += 1;
        true
    }

    fn release(&self) {
        *self.active.lock().expect("gate poisoned") -= 1;
        // notify_all: waiters are both the acceptor (acquire) and a
        // draining shutdown (wait_idle); one freed slot must wake both
        // classes or the drain can miss the last release.
        self.freed.notify_all();
    }

    /// Wakes every waiter so a raised stop flag is observed.
    fn interrupt(&self) {
        let _guard = self.active.lock().expect("gate poisoned");
        self.freed.notify_all();
    }

    /// Blocks until every handler slot is free or `timeout` elapses —
    /// the shutdown drain barrier. Returns whether the pool emptied.
    fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut active = self.active.lock().expect("gate poisoned");
        while *active > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .freed
                .wait_timeout(active, deadline - now)
                .expect("gate poisoned");
            active = guard;
        }
        true
    }
}

/// A bound, not-yet-serving policy server.
#[derive(Debug)]
pub struct PolicyServer {
    listener: TcpListener,
    router: Arc<ShardRouter>,
    cfg: ServerConfig,
}

impl PolicyServer {
    /// Binds the listener and builds the shards. Use port 0 for an
    /// ephemeral port (tests, benches).
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(PolicyServer {
            listener,
            router: Arc::new(ShardRouter::new(cfg.router)),
            cfg,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// The shard router (stats).
    pub fn router(&self) -> &Arc<ShardRouter> {
        &self.router
    }

    /// Starts the [`Acceptor`] and returns a handle that stops it on
    /// [`ServerHandle::shutdown`] or drop, draining live connections.
    pub fn spawn(self) -> ServerHandle {
        let svc = self.cfg.router.service;
        let admission = Arc::new(AdmissionController::new(
            svc.queue_capacity,
            svc.max_queue_delay,
        ));
        ServerHandle {
            router: Arc::clone(&self.router),
            acceptor: Acceptor::spawn(
                self.listener,
                self.router,
                self.cfg.max_connections,
                self.cfg.max_batch,
                admission,
            ),
        }
    }
}

/// Running-server handle; shuts the server down when dropped.
#[derive(Debug)]
pub struct ServerHandle {
    router: Arc<ShardRouter>,
    acceptor: Acceptor,
}

impl ServerHandle {
    /// The served address.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// The shard router (stats).
    pub fn router(&self) -> &Arc<ShardRouter> {
        &self.router
    }

    /// The admission controller shared by every connection handler
    /// (queue depth, overload counters).
    pub fn admission(&self) -> &Arc<AdmissionController> {
        self.acceptor.admission()
    }

    /// Stops accepting and drains live connections; see
    /// [`Acceptor::shutdown`].
    pub fn shutdown(self) {
        self.acceptor.shutdown();
    }
}

/// The one TCP acceptor behind every front-end ([`PolicyServer`], the
/// cluster crate's `ClusterFront`): an accept thread plus one handler
/// thread per live connection, each running the connection loop
/// against one shared [`ServeTarget`] under one shared admission
/// controller. Stops on [`Acceptor::shutdown`] or drop.
#[derive(Debug)]
pub struct Acceptor {
    addr: SocketAddr,
    admission: Arc<AdmissionController>,
    stop: Arc<AtomicBool>,
    gate: Arc<ConnGate>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Serves `listener` until shutdown. At most `max_connections`
    /// handlers run at once: the accept thread claims a slot *before*
    /// accepting, so excess clients wait in the kernel listen backlog
    /// rather than being accepted and parked (or dropped). Requests
    /// pipelined past `max_batch` are split into several batches.
    pub fn spawn<T: ServeTarget + Send + Sync + 'static>(
        listener: TcpListener,
        target: Arc<T>,
        max_connections: usize,
        max_batch: usize,
        admission: Arc<AdmissionController>,
    ) -> Acceptor {
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(ConnGate::new(max_connections));
        let thread = {
            let (stop, gate, admission) =
                (Arc::clone(&stop), Arc::clone(&gate), Arc::clone(&admission));
            std::thread::spawn(move || {
                while gate.acquire(&stop) {
                    let stream = match listener.accept() {
                        Ok((stream, _)) => stream,
                        Err(_) => {
                            // Transient accept failure (fd exhaustion,
                            // aborted handshake): return the slot and
                            // back off instead of spinning.
                            gate.release();
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(10));
                            continue;
                        }
                    };
                    if stop.load(Ordering::SeqCst) {
                        gate.release();
                        break;
                    }
                    let (gate, target) = (Arc::clone(&gate), Arc::clone(&target));
                    let (stop, admission) = (Arc::clone(&stop), Arc::clone(&admission));
                    std::thread::spawn(move || {
                        // Return the slot on unwind too: a panicking
                        // handler (bad request tripping a solver
                        // assertion) must not leak pool capacity.
                        struct SlotGuard(Arc<ConnGate>);
                        impl Drop for SlotGuard {
                            fn drop(&mut self) {
                                self.0.release();
                            }
                        }
                        let _slot = SlotGuard(gate);
                        serve_connection_admitted(stream, &*target, max_batch, &admission, &stop);
                    });
                }
            })
        };
        Acceptor {
            addr,
            admission,
            stop,
            gate,
            thread: Some(thread),
        }
    }

    /// The served address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admission controller shared by every connection (queue
    /// depth, overload counters).
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// Stops accepting, joins the accept thread, and **drains** live
    /// connections: handlers observe the stop flag at their next idle
    /// tick, finish serving everything their clients already sent
    /// (complete batches, full replies on the wire), and close cleanly
    /// — an in-flight batch sees its whole result, never a mid-frame
    /// disconnect. The drain wait is bounded (5 s) so a wedged client
    /// cannot hold shutdown hostage.
    pub fn shutdown(mut self) {
        self.stop_and_drain();
    }

    fn stop_and_drain(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept thread is parked either in the gate (pool
        // saturated — interrupt() wakes it to observe the stop flag)
        // or in accept() (a throwaway connection wakes it).
        self.gate.interrupt();
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
        self.gate.wait_idle(DRAIN_WAIT);
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop_and_drain();
    }
}

/// What a TCP connection loop serves. One implementation of the
/// protocol dispatch (the [`Acceptor`]'s connection loop) fronts
/// every deployment shape: [`PolicyServer`] implements this for
/// [`ShardRouter`] (in-process shards), the cluster crate implements
/// it for its router-behind-a-mutex (remote backends) — so a new wire
/// message is wired up exactly once, not per front-end.
pub trait ServeTarget {
    /// Shard (or cluster-slot) count advertised in the `Welcome`
    /// handshake.
    fn shard_count(&self) -> usize;

    /// Serves one routed batch; results in request order.
    fn serve(&self, reqs: &[PolicyRequest]) -> Vec<Result<PolicyResponse, ServiceError>>;

    /// One shard's counters, or the deployment aggregate for
    /// [`STATS_SHARD_AGGREGATE`]; `None` = unknown shard (or a
    /// backend the target cannot reach), answered with a typed
    /// refusal.
    fn stats(&self, shard: u16) -> Option<crate::stats::ServiceStats>;

    /// A point-in-time metrics scrape: the process-global
    /// counter/histogram hub plus whatever gauges this target owns.
    /// The default serves the bare hub snapshot; targets that own
    /// gauge sources (LRU residency, cluster slot health) override
    /// and inject them. The connection loop injects the admission
    /// queue gauge on top — admission is per front, not per target.
    fn metrics(&self) -> MetricsSnapshot {
        econcast_metrics::snapshot()
    }
}

impl ServeTarget for ShardRouter {
    fn shard_count(&self) -> usize {
        self.num_shards()
    }

    fn serve(&self, reqs: &[PolicyRequest]) -> Vec<Result<PolicyResponse, ServiceError>> {
        self.serve_batch(reqs)
    }

    fn stats(&self, shard: u16) -> Option<crate::stats::ServiceStats> {
        if shard == STATS_SHARD_AGGREGATE {
            Some(self.aggregate_stats())
        } else if usize::from(shard) < self.num_shards() {
            Some(self.shard_stats(usize::from(shard)))
        } else {
            None
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        let mut snap = econcast_metrics::snapshot();
        let (entries, bytes) = self.cache_residency();
        snap.gauges[econcast_metrics::GAUGE_LRU_ENTRIES].1 = entries;
        snap.gauges[econcast_metrics::GAUGE_LRU_BYTES].1 = bytes;
        snap
    }
}

/// Idle-tick period of the gated connection loop: how often a handler
/// parked in `read()` re-checks the drain/stop flag.
const GATE_TICK: Duration = Duration::from_millis(100);

/// After the stop flag is observed, how long a handler waits for the
/// tail of a partially received frame before force-closing — a client
/// that stalls mid-frame cannot hold the drain open forever.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// How long shutdown waits for live handlers to drain.
const DRAIN_WAIT: Duration = Duration::from_secs(5);

/// One admitted request's batch bookkeeping: reply routing (`corr`,
/// `id`) plus what the deadline ladder needs on the way out.
#[derive(Debug, Clone, Copy)]
struct ReqMeta {
    corr: u32,
    id: u32,
    /// Deadline budget in µs from `arrival`; 0 = none.
    deadline_us: u32,
    arrival: Instant,
}

/// Serves one connection until EOF, I/O error, a (fatal) decode error,
/// or a drained stop — the single protocol loop every [`Acceptor`]
/// handler runs (see [`ServeTarget`]).
///
/// Overload control is always armed: every request walks
/// `admission`'s shed ladder before joining a batch (see
/// [`crate::admission`]), deadline-carrying batches are served
/// earliest-deadline-first, results that outlived their `deadline_us`
/// budget are replaced by `Overloaded`, and aggregate stats responses
/// carry the overload counters.
///
/// The read path is greedy: after each blocking read it drains
/// whatever else the client already queued (non-blocking), so a
/// pipelined client's second and third batches ride the same serve
/// cycle instead of waiting out another wakeup. The write path
/// streams: each batch's replies are flushed as soon as that batch is
/// served, so the first submitted batch's responses are on the wire
/// while later batches are still being solved. Replies echo the
/// request's correlation id.
///
/// The drain is cooperative: reads tick every [`GATE_TICK`] so a
/// raised `stop` flag is observed even on an idle connection. On stop,
/// the handler finishes what the client already sent and closes only
/// once the stream is quiet (no partially received frame, or the
/// [`DRAIN_GRACE`] ran out), so a draining shutdown is never a
/// mid-frame disconnect from the client's point of view.
fn serve_connection_admitted(
    mut stream: TcpStream,
    target: &impl ServeTarget,
    max_batch: usize,
    admission: &AdmissionController,
    stop: &AtomicBool,
) {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    let max_batch = max_batch.max(1);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(GATE_TICK));
    let mut codec = ServiceCodec::new();
    // Reused across cycles: the read buffer, the encoded-reply buffer
    // and the batch scratch — steady-state serving allocates nothing
    // but the responses themselves.
    let mut buf = vec![0u8; 256 * 1024];
    let mut out = BytesMut::new();
    let mut ids: Vec<ReqMeta> = Vec::new();
    let mut batch: Vec<PolicyRequest> = Vec::new();
    let mut draining_since: Option<Instant> = None;
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {
                // Idle tick. Every fully received request was served
                // on the cycle it arrived, so the only state a close
                // could strand is a partially received frame —
                // grant those a bounded grace.
                if stop.load(Ordering::SeqCst) {
                    if codec.pending() == 0 {
                        return;
                    }
                    let since = *draining_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= DRAIN_GRACE {
                        return;
                    }
                }
                continue;
            }
            Err(e) if e.kind() == Interrupted => continue,
            Err(_) => return,
        };
        codec.feed(&buf[..n]);
        // Greedy drain: a pipelining client may have more batches
        // already queued in the socket buffer; absorb them into this
        // cycle without blocking. EOF and errors are deferred — what
        // was received still gets served and answered first.
        let mut closing = false;
        if stream.set_nonblocking(true).is_ok() {
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => {
                        closing = true;
                        break;
                    }
                    Ok(n) => codec.feed(&buf[..n]),
                    Err(e) if e.kind() == WouldBlock => break,
                    Err(e) if e.kind() == Interrupted => {}
                    Err(_) => {
                        closing = true;
                        break;
                    }
                }
            }
            if stream.set_nonblocking(false).is_err() {
                closing = true;
            }
        }
        let Ok(messages) = codec.drain() else {
            // Corrupt or misframed stream: integrity-fail hard, like
            // the codec contract says — no best-effort resync.
            return;
        };

        for msg in messages {
            match msg {
                ServiceMessage::Request(w) => {
                    // A new correlation id closes the previous batch:
                    // serve and flush it so its submitter's replies
                    // stream out before the next batch is solved.
                    if let Some(m) = ids.first() {
                        if m.corr != w.corr {
                            serve_into(target, &mut ids, &mut batch, &mut out, admission);
                            if flush(&mut stream, &mut out).is_err() {
                                return;
                            }
                        }
                    }
                    match admission.admit() {
                        Admission::Shed { retry_after_us } => {
                            // Flight-recorder: the shed and the
                            // Overloaded frame it turned into.
                            econcast_metrics::ops_event(
                                OpsKind::Shed,
                                0,
                                u64::from(retry_after_us),
                            );
                            econcast_metrics::counter_add(CTR_OVERLOADED_SENT, 1);
                            ServiceCodec::encode(
                                &ServiceMessage::Error(WirePolicyError {
                                    corr: w.corr,
                                    id: w.id,
                                    code: ServiceErrorCode::Overloaded,
                                    retry_after_us,
                                }),
                                &mut out,
                            );
                        }
                        rung => {
                            let mut req = PolicyRequest::from_wire(&w);
                            if rung == Admission::AdmitDegraded {
                                econcast_metrics::counter_add(CTR_DEGRADED, 1);
                                req.tolerance = degraded_tolerance(req.tolerance);
                            }
                            ids.push(ReqMeta {
                                corr: w.corr,
                                id: w.id,
                                deadline_us: w.deadline_us,
                                arrival: Instant::now(),
                            });
                            batch.push(req);
                            if batch.len() >= max_batch {
                                serve_into(target, &mut ids, &mut batch, &mut out, admission);
                                if flush(&mut stream, &mut out).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                }
                ServiceMessage::Hello(h) => {
                    ServiceCodec::encode(
                        &ServiceMessage::Welcome(WireWelcome {
                            id: h.id,
                            shards: target.shard_count() as u16,
                            max_batch: max_batch.min(usize::from(u16::MAX)) as u16,
                        }),
                        &mut out,
                    );
                }
                ServiceMessage::StatsRequest(r) => {
                    let msg = match target.stats(r.shard) {
                        Some(mut stats) => {
                            // The aggregate carries the overload
                            // counters: admission is front-wide, not
                            // per shard, so only the aggregate view
                            // overlays it (like the cluster front's
                            // robustness counters).
                            if r.shard == STATS_SHARD_AGGREGATE {
                                admission.overlay(&mut stats);
                            }
                            ServiceMessage::StatsResponse(WireStatsResponse {
                                id: r.id,
                                shard: r.shard,
                                stats: stats.to_wire(),
                            })
                        }
                        None => ServiceMessage::Error(WirePolicyError {
                            corr: 0,
                            id: r.id,
                            code: ServiceErrorCode::BadRequest,
                            retry_after_us: 0,
                        }),
                    };
                    ServiceCodec::encode(&msg, &mut out);
                }
                // Liveness probe: answer immediately, touching no
                // shard state (health checkers ride a tight cadence).
                ServiceMessage::Ping(p) => {
                    ServiceCodec::encode(&ServiceMessage::Pong(WirePong { id: p.id }), &mut out);
                }
                // Metrics scrape: the target's snapshot (hub counters +
                // histograms + target-owned gauges) with the front's
                // admission queue gauge injected on top.
                ServiceMessage::MetricsRequest(r) => {
                    let mut snap = target.metrics();
                    let g = admission.queue_gauge();
                    snap.gauges[GAUGE_QUEUE_DEPTH].1 += g.value();
                    let peak = &mut snap.gauges[GAUGE_QUEUE_DEPTH_PEAK].1;
                    *peak = (*peak).max(g.peak());
                    ServiceCodec::encode(
                        &ServiceMessage::MetricsResponse(WireMetricsResponse {
                            id: r.id,
                            snapshot: crate::metrics::snapshot_to_wire(&snap),
                        }),
                        &mut out,
                    );
                }
                // Server-to-client message types arriving here are
                // protocol misuse; drop them.
                ServiceMessage::Response(_)
                | ServiceMessage::Error(_)
                | ServiceMessage::Welcome(_)
                | ServiceMessage::StatsResponse(_)
                | ServiceMessage::Pong(_)
                | ServiceMessage::MetricsResponse(_) => {}
            }
        }
        serve_into(target, &mut ids, &mut batch, &mut out, admission);
        if flush(&mut stream, &mut out).is_err() {
            return;
        }
        if closing {
            return;
        }
    }
}

/// Writes and clears the encoded-reply buffer, keeping its capacity
/// for the next cycle.
fn flush(stream: &mut TcpStream, out: &mut BytesMut) -> std::io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    let res = stream.write_all(out);
    out.clear();
    res
}

/// Serves the buffered requests (if any) as one routed batch and
/// encodes the replies, echoing each request's correlation id.
///
/// This is also where the deadline ladder
/// lands: deadline-carrying batches are reordered earliest-deadline-
/// first before serving, and a result whose request ran past its
/// `deadline_us` budget is replaced by an `Overloaded` frame — the
/// caller gave up on it, so a late (stale) result must never reach
/// the wire. Served batches return their queue slots and feed the
/// controller's service-time estimate.
fn serve_into(
    target: &impl ServeTarget,
    ids: &mut Vec<ReqMeta>,
    batch: &mut Vec<PolicyRequest>,
    out: &mut BytesMut,
    admission: &AdmissionController,
) {
    if batch.is_empty() {
        return;
    }
    if ids.iter().any(|m| m.deadline_us != 0) {
        sort_by_deadline(ids, batch);
    }
    let t_serve = Instant::now();
    let results = target.serve(batch);
    admission.release(results.len(), t_serve.elapsed());
    let t0 = econcast_trace::armed_now();
    for (m, result) in ids.drain(..).zip(&results) {
        let expired = m.deadline_us != 0
            && m.arrival.elapsed() > Duration::from_micros(u64::from(m.deadline_us));
        let mut msg = if expired {
            admission.note_deadline_expired();
            econcast_metrics::ops_event(OpsKind::DeadlineMiss, 0, u64::from(m.deadline_us));
            econcast_metrics::counter_add(CTR_OVERLOADED_SENT, 1);
            ServiceMessage::Error(WirePolicyError {
                corr: m.corr,
                id: m.id,
                code: ServiceErrorCode::Overloaded,
                retry_after_us: admission.retry_after_us(),
            })
        } else {
            match result {
                Ok(resp) => ServiceMessage::Response(resp.to_wire(m.id)),
                Err(e) => ServiceMessage::Error(crate::request::error_to_wire(e, m.id)),
            }
        };
        match &mut msg {
            ServiceMessage::Response(r) => r.corr = m.corr,
            ServiceMessage::Error(e) => e.corr = m.corr,
            _ => unreachable!(),
        }
        ServiceCodec::encode(&msg, out);
    }
    econcast_trace::complete_from(
        "proto",
        "frame_encode",
        t0,
        &[("msgs", results.len() as u64)],
    );
    batch.clear();
}

/// Reorders one batch (metadata and requests in lockstep) earliest-
/// deadline-first; requests without a deadline keep their relative
/// order at the back. Replies demultiplex by id on the client, so
/// serving order is free to differ from submission order.
fn sort_by_deadline(ids: &mut Vec<ReqMeta>, batch: &mut Vec<PolicyRequest>) {
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&i| {
        let m = &ids[i];
        (
            m.deadline_us == 0,
            m.arrival + Duration::from_micros(u64::from(m.deadline_us)),
        )
    });
    let old_ids = std::mem::take(ids);
    let mut old_batch: Vec<Option<PolicyRequest>> =
        std::mem::take(batch).into_iter().map(Some).collect();
    for &i in &order {
        ids.push(old_ids[i]);
        batch.push(old_batch[i].take().expect("permutation visits once"));
    }
}
