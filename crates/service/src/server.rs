//! The TCP front-end: the [`Acceptor`] every TCP front-end in the
//! workspace runs on, and [`PolicyServer`], the acceptor over one
//! process's [`ShardRouter`].
//!
//! ## Threading model
//!
//! One acceptor thread plus one thread per live connection, bounded by
//! a counting gate ([`ServerConfig::max_connections`]): when the pool
//! is full the acceptor blocks *before* accepting, so excess clients
//! queue in the kernel backlog instead of spawning unbounded threads.
//! The environment is offline (no tokio). Every handler serves through
//! one shared [`ClusterRouter`] — local shards here, remote or mixed
//! slots behind the cluster crate's front — whose per-slot locks
//! serialize what must be serialized: a key's batches queue on its one
//! home slot, and handlers whose batches touch disjoint slots run in
//! parallel.
//!
//! Every socket is non-blocking, and every thread waits in one place,
//! [`ready::wait`]: the accept thread on the listener and the stop
//! descriptor, a handler on its connection and the stop descriptor (or
//! on its connection turning writable while a reply is flushed).
//! Shutdown raises the stop flag and shuts the stop socket pair's
//! write end, which wakes every one of those waits at once.
//!
//! ## Protocol
//!
//! Connections speak the length-prefixed `econcast-proto` service
//! family ([`ServiceCodec`]). A client *should* open with `Hello`
//! (answered by `Welcome` carrying the shard count and batch cap) but
//! the server also serves handshake-less streams. Every fully received
//! `Request` in one read cycle is served as a single routed batch, so
//! pipelining `k` requests buys `k`-way batching. A request's budgets
//! move into its `PolicyRequest`, and replies are encoded straight
//! from each [`Answer`]: a native `PolicyResponse` field by field, a
//! backend's verified `Response` frame (a cluster front's answers) as
//! a copy with `corr` and `id` rewritten and a fresh CRC — forwarded,
//! never decoded. `MetricsRequest` answers with one slot's scrape or
//! the aggregate; counters come from the components that count them
//! (the slots' services, the router, the admission controller), never
//! from a process-global tally. Decode errors (CRC, framing, version,
//! a retired frame type) are fatal for the connection, matching the
//! codec's semantics: the server drops the stream without a reply.

use crate::admission::{degraded_tolerance, Admission, AdmissionController};
use crate::client::ReplyFrames;
use crate::ready::{self, PollFd};
use crate::request::{PolicyRequest, PolicyResponse, ServiceError};
use crate::router::ClusterRouter;
use crate::shard::{RouterConfig, ShardRouter};
use bytes::BytesMut;
use econcast_metrics::OpsKind;
use econcast_proto::service::{
    ServiceCodec, ServiceErrorCode, ServiceMessage, WireMetricsResponse, WirePolicyError, WirePong,
    WireWelcome, STATS_SHARD_AGGREGATE,
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
    fn acquire(&self, stop: &Stop) -> bool {
        let mut active = self.active.lock().expect("gate poisoned");
        while *active >= self.cap {
            if stop.is_raised() {
                return false;
            }
            active = self.freed.wait(active).expect("gate poisoned");
        }
        if stop.is_raised() {
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

/// The acceptor's shutdown signal. The flag is the source of truth;
/// on unix a socket pair mirrors it as a descriptor: raising shuts the
/// pair's write end, so the read end polls readable (EOF) from then on
/// and every thread parked on it in [`ready::wait`] wakes at once.
#[derive(Debug)]
struct Stop {
    raised: AtomicBool,
    #[cfg(unix)]
    pair: (
        std::os::unix::net::UnixStream,
        std::os::unix::net::UnixStream,
    ),
}

impl Stop {
    fn new() -> Self {
        Stop {
            raised: AtomicBool::new(false),
            #[cfg(unix)]
            pair: std::os::unix::net::UnixStream::pair().expect("stop socket pair"),
        }
    }

    /// Raises the stop; `false` when it already was.
    fn raise(&self) -> bool {
        let first = !self.raised.swap(true, Ordering::SeqCst);
        #[cfg(unix)]
        let _ = self.pair.0.shutdown(std::net::Shutdown::Write);
        first
    }

    fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// The descriptor to wait on: readable once the stop is raised.
    /// (Elsewhere the readiness fallback reports every descriptor
    /// ready, and the flag decides.)
    fn fd(&self) -> ready::RawFdAlias {
        #[cfg(unix)]
        {
            ready::fd(&self.pair.1)
        }
        #[cfg(not(unix))]
        {
            -1
        }
    }
}

/// A bound, not-yet-serving policy server.
#[derive(Debug)]
pub struct PolicyServer {
    listener: TcpListener,
    router: ShardRouter,
    cfg: ServerConfig,
}

impl PolicyServer {
    /// Binds the listener and builds the shards. Use port 0 for an
    /// ephemeral port (tests, benches).
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(PolicyServer {
            listener,
            router: ShardRouter::new(cfg.router),
            cfg,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// The shard router (per-shard counters).
    pub fn router(&self) -> &ShardRouter {
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
            acceptor: Acceptor::spawn(
                self.listener,
                self.router.shared(),
                self.cfg.max_connections,
                self.cfg.max_batch,
                admission,
            ),
            router: self.router,
        }
    }
}

/// Running-server handle; shuts the server down when dropped.
#[derive(Debug)]
pub struct ServerHandle {
    router: ShardRouter,
    acceptor: Acceptor,
}

impl ServerHandle {
    /// The served address.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// The shard router (per-shard counters).
    pub fn router(&self) -> &ShardRouter {
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
/// against one shared [`ClusterRouter`] under one shared admission
/// controller. Stops on [`Acceptor::shutdown`] or drop.
#[derive(Debug)]
pub struct Acceptor {
    addr: SocketAddr,
    admission: Arc<AdmissionController>,
    stop: Arc<Stop>,
    gate: Arc<ConnGate>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Serves `listener` until shutdown. At most `max_connections`
    /// handlers run at once: the accept thread claims a slot *before*
    /// accepting, so excess clients wait in the kernel listen backlog
    /// rather than being accepted and parked (or dropped). Requests
    /// pipelined past `max_batch` are split into several batches.
    pub fn spawn(
        listener: TcpListener,
        router: Arc<ClusterRouter>,
        max_connections: usize,
        max_batch: usize,
        admission: Arc<AdmissionController>,
    ) -> Acceptor {
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        listener
            .set_nonblocking(true)
            .expect("listener goes non-blocking");
        let stop = Arc::new(Stop::new());
        let gate = Arc::new(ConnGate::new(max_connections));
        let thread = {
            let (stop, gate, admission) =
                (Arc::clone(&stop), Arc::clone(&gate), Arc::clone(&admission));
            std::thread::spawn(move || {
                while gate.acquire(&stop) {
                    let Some(stream) = accept(&listener, &stop) else {
                        // Stopped: the next acquire sees it and ends
                        // the loop.
                        gate.release();
                        continue;
                    };
                    let (gate, router) = (Arc::clone(&gate), Arc::clone(&router));
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
                        serve_connection(stream, &router, max_batch, &admission, &stop);
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
    /// connections: the stop descriptor wakes every handler at once; a
    /// handler finishes serving everything its client already sent
    /// (complete batches, full replies on the wire) and closes cleanly
    /// — an idle one at once, one holding part of a frame once the
    /// frame completes (or its grace runs out), so an in-flight batch
    /// sees its whole result, never a mid-frame disconnect. The drain
    /// wait is bounded (5 s) so a wedged client cannot hold shutdown
    /// hostage.
    pub fn shutdown(mut self) {
        self.stop_and_drain();
    }

    fn stop_and_drain(&mut self) {
        if !self.stop.raise() {
            return;
        }
        // The accept thread is parked either in the gate (pool
        // saturated — interrupt() wakes it to observe the stop flag)
        // or in `ready::wait` (the stop descriptor wakes it).
        self.gate.interrupt();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
        self.gate.wait_idle(DRAIN_WAIT);
    }
}

/// Waits in [`ready::wait`] for the next connection and sets it
/// non-blocking; `None` once the stop is raised.
fn accept(listener: &TcpListener, stop: &Stop) -> Option<TcpStream> {
    let mut fds = [
        PollFd::new(ready::fd(listener), ready::READABLE),
        PollFd::new(stop.fd(), ready::READABLE),
    ];
    while !stop.is_raised() {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_ok() {
                    return Some(stream);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let _ = ready::wait(&mut fds, None);
            }
            // Transient accept failure (fd exhaustion, aborted
            // handshake): back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    None
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop_and_drain();
    }
}

/// One answer of a served batch.
#[derive(Debug)]
pub enum Answer {
    /// Solved (or refused) in this process.
    Native(Result<PolicyResponse, ServiceError>),
    /// A backend's verified `Response` frame, forwarded as bytes:
    /// reply `k` of [`Served::frames`]`[batch]`.
    Forward {
        /// Index into [`Served::frames`].
        batch: usize,
        /// The reply's index within that batch.
        k: usize,
    },
}

/// A served batch: its answers in request order, plus the backend
/// reply buffers the forwarded answers point into. The connection loop
/// keeps one per connection and hands it to every serve, so the buffers
/// are reused across batches.
#[derive(Debug, Default)]
pub struct Served {
    /// One answer per request, in request order.
    pub answers: Vec<Answer>,
    /// Backend reply buffers of this batch.
    pub frames: Vec<ReplyFrames>,
}

impl Served {
    /// Every answer as a native result, parsing forwarded frames (the
    /// wire response carries no σ; it is restored from `reqs`, the
    /// batch that was served).
    pub fn into_results(self, reqs: &[PolicyRequest]) -> Vec<Result<PolicyResponse, ServiceError>> {
        let frames = self.frames;
        self.answers
            .into_iter()
            .zip(reqs)
            .map(|(answer, req)| match answer {
                Answer::Native(result) => result,
                Answer::Forward { batch, k } => Ok(PolicyResponse::from_wire(
                    &frames[batch]
                        .result(k)
                        .expect("forwarded answers are frames"),
                    req.sigma,
                )),
            })
            .collect()
    }
}

/// After the stop is raised, how long a handler waits for the
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
/// handler runs, whichever router it serves.
///
/// Overload control is always armed: every request walks
/// `admission`'s shed ladder before joining a batch (see
/// [`crate::admission`]), deadline-carrying batches are served
/// earliest-deadline-first, results that outlived their `deadline_us`
/// budget are replaced by `Overloaded`, and aggregate scrapes carry
/// the overload counters.
///
/// The stream is non-blocking. Each cycle reads until `WouldBlock`,
/// so a pipelined client's second and third batches ride the same
/// serve cycle, then parks in [`ready::wait`] on the connection and
/// the stop descriptor. The write path streams: each batch's replies
/// are flushed as soon as that batch is served, so the first submitted
/// batch's responses are on the wire while later batches are still
/// being solved. Replies echo the request's correlation id.
///
/// Drain is a state transition: once the stop is raised, a handler
/// holding no partially received frame closes at once; one holding
/// part of a frame waits (on the connection alone) for the rest until
/// [`DRAIN_GRACE`] runs out, so a draining shutdown is never a
/// mid-frame disconnect from the client's point of view. Every fully
/// received request was served on the cycle it arrived, so a partial
/// frame is the only state a close could strand.
fn serve_connection(
    mut stream: TcpStream,
    router: &ClusterRouter,
    max_batch: usize,
    admission: &AdmissionController,
    stop: &Stop,
) {
    use std::io::ErrorKind::{Interrupted, WouldBlock};
    let max_batch = max_batch.max(1);
    let _ = stream.set_nodelay(true);
    let mut fds = [
        PollFd::new(ready::fd(&stream), ready::READABLE),
        PollFd::new(stop.fd(), ready::READABLE),
    ];
    let mut codec = ServiceCodec::new();
    // Reused across cycles: the read buffer, the encoded-reply buffer,
    // the batch scratch and the served batch with its reply buffers —
    // steady-state serving allocates nothing but native responses.
    let mut buf = vec![0u8; 256 * 1024];
    let mut out = BytesMut::new();
    let mut ids: Vec<ReqMeta> = Vec::new();
    let mut batch: Vec<PolicyRequest> = Vec::new();
    let mut served = Served::default();
    let mut draining_since: Option<Instant> = None;
    loop {
        // EOF and errors are deferred: what was received still gets
        // served and answered first.
        let mut closing = false;
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
                            serve_into(
                                router,
                                &mut ids,
                                &mut batch,
                                &mut served,
                                &mut out,
                                admission,
                            );
                            if flush(&mut stream, &mut out).is_err() {
                                return;
                            }
                        }
                    }
                    match admission.admit() {
                        Admission::Shed { retry_after_us } => {
                            // Counted by the controller; logged here.
                            econcast_metrics::ops_event(
                                OpsKind::Shed,
                                0,
                                u64::from(retry_after_us),
                            );
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
                            ids.push(ReqMeta {
                                corr: w.corr,
                                id: w.id,
                                deadline_us: w.deadline_us,
                                arrival: Instant::now(),
                            });
                            let mut req = PolicyRequest::from_wire(w);
                            if rung == Admission::AdmitDegraded {
                                req.tolerance = degraded_tolerance(req.tolerance);
                            }
                            batch.push(req);
                            if batch.len() >= max_batch {
                                serve_into(
                                    router,
                                    &mut ids,
                                    &mut batch,
                                    &mut served,
                                    &mut out,
                                    admission,
                                );
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
                            shards: router.num_slots() as u16,
                            max_batch: max_batch.min(usize::from(u16::MAX)) as u16,
                        }),
                        &mut out,
                    );
                }
                // Liveness probe: answer immediately, touching no
                // shard state (health checkers ride a tight cadence).
                ServiceMessage::Ping(p) => {
                    ServiceCodec::encode(&ServiceMessage::Pong(WirePong { id: p.id }), &mut out);
                }
                // Metrics scrape: the router's snapshot, with the
                // front's admission counters and queue gauge merged
                // into the aggregate (admission is per front, not per
                // router). `None` (an unknown slot, an unreachable
                // backend) becomes a typed refusal.
                ServiceMessage::MetricsRequest(r) => {
                    let msg = match router.scrape(r.shard) {
                        Some(mut snap) => {
                            if r.shard == STATS_SHARD_AGGREGATE {
                                snap.merge(&admission.metrics());
                            }
                            ServiceMessage::MetricsResponse(WireMetricsResponse {
                                id: r.id,
                                snapshot: snap,
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
                // Server-to-client message types arriving here are
                // protocol misuse; drop them.
                ServiceMessage::Response(_)
                | ServiceMessage::Error(_)
                | ServiceMessage::Welcome(_)
                | ServiceMessage::Pong(_)
                | ServiceMessage::MetricsResponse(_) => {}
            }
        }
        serve_into(
            router,
            &mut ids,
            &mut batch,
            &mut served,
            &mut out,
            admission,
        );
        if flush(&mut stream, &mut out).is_err() || closing {
            return;
        }
        let parked = if stop.is_raised() {
            if codec.pending() == 0 {
                return;
            }
            let since = *draining_since.get_or_insert_with(Instant::now);
            match DRAIN_GRACE.checked_sub(since.elapsed()) {
                Some(left) if !left.is_zero() => ready::wait(&mut fds[..1], Some(left)),
                _ => return,
            }
        } else {
            ready::wait(&mut fds, None)
        };
        if parked.is_err() {
            return;
        }
    }
}

/// Writes and clears the encoded-reply buffer, keeping its capacity
/// for the next cycle; parks in [`ready::wait`] while the socket's
/// send buffer is full.
fn flush(stream: &mut TcpStream, out: &mut BytesMut) -> std::io::Result<()> {
    let mut sent = 0;
    while sent < out.len() {
        match stream.write(&out[sent..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                ready::wait_one(ready::fd(&*stream), ready::WRITABLE, None)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    out.clear();
    Ok(())
}

/// Serves the buffered requests (if any) as one routed batch and
/// encodes the replies, echoing each request's correlation id. A
/// native result is encoded straight from its `PolicyResponse`; a
/// forwarded backend frame is copied with its `corr` and `id`
/// rewritten and a fresh CRC — the front never decodes a policy it
/// forwards.
///
/// This is also where the deadline ladder
/// lands: deadline-carrying batches are reordered earliest-deadline-
/// first before serving, and a result whose request ran past its
/// `deadline_us` budget is replaced by an `Overloaded` frame — the
/// caller gave up on it, so a late (stale) result must never reach
/// the wire. Served batches return their queue slots and feed the
/// controller's service-time estimate, and the router's current
/// backend-saturation hint becomes the floor of the controller's
/// retry hints: a shed here never invites a retry sooner than the
/// saturated backends asked for (always zero over local shards).
fn serve_into(
    router: &ClusterRouter,
    ids: &mut Vec<ReqMeta>,
    batch: &mut Vec<PolicyRequest>,
    served: &mut Served,
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
    router.route_batch(batch, served);
    let answered = served.answers.len();
    admission.release(answered, t_serve.elapsed());
    admission.set_external_hint_us(router.saturation_hint_us());
    let t0 = econcast_trace::armed_now();
    for (m, answer) in ids.drain(..).zip(served.answers.drain(..)) {
        let expired = m.deadline_us != 0
            && m.arrival.elapsed() > Duration::from_micros(u64::from(m.deadline_us));
        if expired {
            admission.note_deadline_expired();
            econcast_metrics::ops_event(OpsKind::DeadlineMiss, 0, u64::from(m.deadline_us));
            let overloaded = WirePolicyError {
                corr: m.corr,
                id: m.id,
                code: ServiceErrorCode::Overloaded,
                retry_after_us: admission.retry_after_us(),
            };
            ServiceCodec::encode(&ServiceMessage::Error(overloaded), out);
            continue;
        }
        match answer {
            Answer::Native(Ok(resp)) => resp.encode_wire(m.corr, m.id, out),
            Answer::Native(Err(e)) => {
                let mut error = crate::request::error_to_wire(&e, m.id);
                error.corr = m.corr;
                ServiceCodec::encode(&ServiceMessage::Error(error), out);
            }
            Answer::Forward { batch, k } => {
                let frame = served.frames[batch]
                    .get(k)
                    .expect("forwarded answers are frames");
                ServiceCodec::forward_response(out, frame, m.corr, m.id);
            }
        }
    }
    econcast_trace::complete_from("proto", "frame_encode", t0, &[("msgs", answered as u64)]);
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
