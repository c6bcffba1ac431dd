//! The TCP client for the policy server: a non-blocking connection
//! with a pipelined submit/collect data plane, waiting in
//! [`ready::wait`].

use crate::ready;
use crate::request::PolicyRequest;
use crate::stats::ServiceStats;
use econcast_proto::service::{
    parse_verified_response, Incoming, ScatterEncoder, ServiceCodec, ServiceMessage,
    VerifiedResponse, WireHello, WireMetricsRequest, WirePing, WirePolicyError, WirePolicyResponse,
    STATS_SHARD_AGGREGATE, WIRE_VERSION,
};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A handshaken connection to a [`crate::PolicyServer`].
///
/// The data plane is pipelined:
/// [`submit_batch`](PolicyClient::submit_batch) frames a batch into
/// the connection's reusable scatter buffer, stamps every request
/// with one fresh correlation id, flushes it (absorbing any
/// replies that arrive meanwhile), and returns a [`Ticket`];
/// [`collect`](PolicyClient::collect) blocks until that ticket's
/// batch completed. Several tickets may be in flight on one
/// connection, their replies interleaved arbitrarily — the
/// correlation id routes each reply to its batch, and per-request ids
/// restore request order within the batch.
/// [`serve_batch`](PolicyClient::serve_batch) is the classic
/// submit-then-collect convenience and behaves exactly like the
/// pre-pipeline call.
///
/// The stream is non-blocking from the handshake on. Every call reads
/// and writes on one path (read until `WouldBlock`, write until
/// `WouldBlock`) and parks in `poll(2)` in between; a connection made
/// with [`connect_with_timeout`](PolicyClient::connect_with_timeout)
/// fails `TimedOut` when one park sees no progress for that long.
///
/// Every frame rides [`WIRE_VERSION`]; a server built at any other
/// version drops the `Hello`, and the connect fails instead of
/// settling on a reduced protocol.
///
/// ## Replies are kept as verified bytes
///
/// Each `Response` frame is checked once, as it arrives — CRC,
/// version, length, the tier, kernel and converged octets, and that it
/// carries as many policies as its request had nodes — and then stored
/// undecoded in its ticket's byte arena ([`ReplyFrames`]); arenas are
/// reused across tickets. [`collect`](PolicyClient::collect) parses
/// the stored frames without a second CRC pass;
/// [`try_collect_frames`](PolicyClient::try_collect_frames) hands them
/// over as bytes, which is how a cluster front forwards backend
/// replies without ever decoding a policy.
///
/// ## Failure contract
///
/// Failures are surfaced at two separate levels, and they never mix:
///
/// * **Per-request** failures (validation, size ceiling) arrive as
///   [`WirePolicyError`] entries *inside* a successful
///   [`serve_batch`](PolicyClient::serve_batch) result — the batch's
///   other entries are real responses and safe to use.
/// * **Stream** failures (CRC/framing corruption, version mismatch,
///   disconnect) abort the *call* with an `Err`: no partial result
///   vector is returned, the connection is poisoned (the codec stops
///   at the corrupt frame), and the client must be dropped and
///   re-connected. Results returned by *earlier* completed
///   `serve_batch`/`collect` calls are unaffected — corruption cannot
///   retroactively poison them, because every response was
///   verified when it arrived (pinned by the
///   `corrupt_mid_stream_reply_fails_the_call_not_prior_results`
///   regression test). A well-formed `Response` whose node count
///   differs from its request's is a stream failure too.
pub struct PolicyClient {
    stream: TcpStream,
    /// Bound on each wait for the socket (`None` = wait forever).
    timeout: Option<Duration>,
    codec: ServiceCodec,
    enc: ScatterEncoder,
    pending: Vec<PendingBatch>,
    /// Reply arenas of collected tickets, reused by the next submits.
    spare: Vec<ReplyFrames>,
    /// Control-plane messages (`Welcome`, `Pong`, scrapes, refusals)
    /// awaiting the round trip that asked for them.
    control: Vec<ServiceMessage>,
    shards: u16,
    server_max_batch: u16,
    next_id: u32,
    next_corr: u32,
    /// Socket read buffer, reused by every read so a collect does not
    /// zero a fresh one per decoded message.
    rbuf: Box<[u8]>,
}

/// Bytes one socket read may take.
const READ_CHUNK: usize = 64 * 1024;

impl std::fmt::Debug for PolicyClient {
    /// Every field but the read buffer, whose contents are stale bytes.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyClient")
            .field("stream", &self.stream)
            .field("timeout", &self.timeout)
            .field("codec", &self.codec)
            .field("enc", &self.enc)
            .field("pending", &self.pending)
            .field("shards", &self.shards)
            .field("server_max_batch", &self.server_max_batch)
            .field("next_id", &self.next_id)
            .field("next_corr", &self.next_corr)
            .finish_non_exhaustive()
    }
}

/// One batch entry's outcome: the served wire response, or the
/// server's per-request error.
pub type WireResult = Result<WirePolicyResponse, WirePolicyError>;

/// Handle to one submitted, not-yet-collected batch. Redeem with
/// [`PolicyClient::collect`] (blocking) or poll with
/// [`PolicyClient::try_collect_frames`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    corr: u32,
}

/// Spare reply arenas one connection keeps: enough for the tickets a
/// pipelining caller has in flight at once.
const SPARE_ARENAS: usize = 4;

/// One batch's replies in request order, as the server sent them:
/// each success a verified `Response` frame kept as bytes in one
/// arena, each failure the server's decoded error.
#[derive(Debug, Default)]
pub struct ReplyFrames {
    arena: Vec<u8>,
    entries: Vec<Entry>,
}

/// One batch entry: its request's node count and its reply so far.
#[derive(Debug, Clone, Copy)]
struct Entry {
    nodes: usize,
    reply: Reply,
}

#[derive(Debug, Clone, Copy)]
enum Reply {
    Awaiting,
    /// `arena[start..end]` holds the verified frame.
    Frame {
        start: usize,
        end: usize,
    },
    Error(WirePolicyError),
}

impl ReplyFrames {
    /// Number of entries (the batch's request count).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry `k`'s reply: the verified `Response` frame's bytes (CRC
    /// included, no length prefix), or the server's error.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    pub fn get(&self, k: usize) -> Result<&[u8], WirePolicyError> {
        match self.entries[k].reply {
            Reply::Frame { start, end } => Ok(&self.arena[start..end]),
            Reply::Error(e) => Err(e),
            Reply::Awaiting => unreachable!("only complete batches are handed out"),
        }
    }

    /// Entry `k`'s reply, parsed — no second CRC pass.
    pub fn result(&self, k: usize) -> WireResult {
        self.get(k).map(parse_verified_response)
    }

    /// Every reply, parsed, in request order.
    pub fn results(&self) -> Vec<WireResult> {
        (0..self.len()).map(|k| self.result(k)).collect()
    }
}

/// One in-flight batch: its correlation and base ids plus the replies
/// filed so far.
#[derive(Debug)]
struct PendingBatch {
    corr: u32,
    base: u32,
    replies: ReplyFrames,
    missing: usize,
}

impl PendingBatch {
    /// The entry a reply id belongs to, if any.
    fn entry(&mut self, id: u32) -> Option<&mut Entry> {
        let k = id.wrapping_sub(self.base) as usize;
        self.replies.entries.get_mut(k)
    }

    /// Files a reply into its entry (a repeated reply replaces the
    /// earlier one).
    fn file(&mut self, id: u32, reply: Reply) {
        if let Some(entry) = self.entry(id) {
            if matches!(std::mem::replace(&mut entry.reply, reply), Reply::Awaiting) {
                self.missing -= 1;
            }
        }
    }
}

/// Files a verified `Response` into its in-flight batch by
/// correlation id, copying its bytes into the batch's arena. Replies
/// for no live ticket, or ids outside their batch, are dropped. A
/// reply whose node count differs from its request's fails the
/// stream: the server answered some other question.
fn file_response(pending: &mut [PendingBatch], v: VerifiedResponse<'_>) -> std::io::Result<()> {
    let Some(b) = pending.iter_mut().find(|b| b.corr == v.corr()) else {
        return Ok(());
    };
    let Some(entry) = b.entry(v.id()) else {
        return Ok(());
    };
    if entry.nodes != v.nodes() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "reply carries {} policies for a request of {} nodes",
                v.nodes(),
                entry.nodes
            ),
        ));
    }
    let start = b.replies.arena.len();
    b.replies.arena.extend_from_slice(v.frame());
    let end = b.replies.arena.len();
    b.file(v.id(), Reply::Frame { start, end });
    Ok(())
}

fn undecodable(e: econcast_proto::DecodeError) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("undecodable server reply: {e:?}"),
    )
}

impl PolicyClient {
    /// Connects and performs the `Hello`/`Welcome` handshake, with no
    /// I/O timeout: every wait blocks until the server moves.
    /// `max_batch` is the largest batch this client intends to
    /// pipeline (informational, rides the hello).
    pub fn connect(addr: impl ToSocketAddrs, max_batch: u16) -> std::io::Result<Self> {
        Self::handshake(TcpStream::connect(addr)?, max_batch, None)
    }

    /// Like [`PolicyClient::connect`], but with `timeout` bounding the
    /// TCP connect **and** every later wait on the connection,
    /// handshake included: a wait that sees no progress for `timeout`
    /// fails `TimedOut`. Dialers use this: a backend that accepts but
    /// never answers must surface as an error, not a hung caller.
    pub fn connect_with_timeout(
        addr: std::net::SocketAddr,
        max_batch: u16,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Self::handshake(stream, max_batch, Some(timeout))
    }

    /// Performs the `Hello`/`Welcome` handshake on a connected stream,
    /// which is non-blocking from here on.
    fn handshake(
        stream: TcpStream,
        max_batch: u16,
        timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut client = PolicyClient {
            stream,
            timeout,
            codec: ServiceCodec::new(),
            enc: ScatterEncoder::new(),
            pending: Vec::new(),
            spare: Vec::new(),
            control: Vec::new(),
            shards: 0,
            server_max_batch: 0,
            next_id: 0,
            next_corr: 1,
            rbuf: vec![0; READ_CHUNK].into_boxed_slice(),
        };
        let id = client.take_id();
        let hello = ServiceMessage::Hello(WireHello { id, max_batch });
        let welcome = client.round_trip(
            &hello,
            |m| matches!(m, ServiceMessage::Welcome(w) if w.id == id),
        )?;
        if let ServiceMessage::Welcome(w) = welcome {
            client.shards = w.shards;
            client.server_max_batch = w.max_batch;
        }
        Ok(client)
    }

    /// Shard count the server advertised.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The raw socket descriptor, for readiness multiplexing across
    /// connections ([`crate::ready::wait`]).
    pub fn poll_fd(&self) -> ready::RawFdAlias {
        ready::fd(&self.stream)
    }

    /// Round-trips a `Ping`/`Pong` liveness probe, verifying the id
    /// echo. The cluster layer's health checks in one call.
    pub fn ping(&mut self) -> std::io::Result<()> {
        let id = self.take_id();
        let ping = ServiceMessage::Ping(WirePing { id });
        self.round_trip(
            &ping,
            |m| matches!(m, ServiceMessage::Pong(p) if p.id == id),
        )?;
        Ok(())
    }

    /// The server's batch cap from the handshake.
    pub fn server_max_batch(&self) -> u16 {
        self.server_max_batch
    }

    /// Submits one batch without waiting for its replies: frames every
    /// request (stamped with a fresh correlation id) into the
    /// connection's reusable scatter buffer and flushes it, absorbing
    /// any replies — for *any* in-flight ticket — that arrive while
    /// the send buffer drains. Returns the ticket to redeem with
    /// [`collect`](PolicyClient::collect) or
    /// [`try_collect_frames`](PolicyClient::try_collect_frames). Takes
    /// the requests by reference (a slice, a `&Vec`, or any exact-size
    /// iterator of references), so a caller scattering one batch
    /// across several connections encodes straight from its own
    /// storage.
    pub fn submit_batch<'a, I>(&mut self, reqs: I) -> std::io::Result<Ticket>
    where
        I: IntoIterator<Item = &'a PolicyRequest>,
        I::IntoIter: ExactSizeIterator,
    {
        self.submit_batch_deadline(reqs, None)
    }

    /// [`submit_batch`](PolicyClient::submit_batch) with a deadline
    /// budget stamped on every request: the server sheds — with an
    /// explicit `Overloaded` — any request it cannot answer within
    /// `deadline` of receiving it, rather than serving it late.
    pub fn submit_batch_deadline<'a, I>(
        &mut self,
        reqs: I,
        deadline: Option<Duration>,
    ) -> std::io::Result<Ticket>
    where
        I: IntoIterator<Item = &'a PolicyRequest>,
        I::IntoIter: ExactSizeIterator,
    {
        let reqs = reqs.into_iter();
        let n = reqs.len();
        let deadline_us = deadline
            .map(|d| d.as_micros().min(u128::from(u32::MAX)) as u32)
            .unwrap_or(0);
        let base = self.next_id;
        self.next_id = self.next_id.wrapping_add(n as u32);
        let corr = self.take_corr();
        let mut replies = self.spare.pop().unwrap_or_default();
        replies.arena.clear();
        replies.entries.clear();
        // Encoded straight from the caller's requests, traced as the
        // batch's `proto/frame_encode` span.
        let t0 = econcast_trace::armed_now();
        for (k, req) in reqs.enumerate() {
            let id = base.wrapping_add(k as u32);
            self.enc
                .push_request(&req.wire_header(corr, id, deadline_us), &req.budgets_w);
            replies.entries.push(Entry {
                nodes: req.num_nodes(),
                reply: Reply::Awaiting,
            });
        }
        if n > 0 {
            econcast_trace::complete_from("proto", "frame_encode", t0, &[("msgs", n as u64)]);
        }
        self.pending.push(PendingBatch {
            corr,
            base,
            replies,
            missing: n,
        });
        self.flush()?;
        Ok(Ticket { corr })
    }

    /// Blocks until the ticket's batch fully completed, filing replies
    /// for every in-flight ticket along the way. Replies return in
    /// the batch's request order regardless of arrival order.
    pub fn collect(&mut self, ticket: Ticket) -> std::io::Result<Vec<WireResult>> {
        self.advance_until(true, |c| c.is_done(&ticket))?;
        let frames = self.take_done(&ticket)?.expect("advanced until done");
        let out = frames.results();
        self.recycle(frames);
        Ok(out)
    }

    /// Non-blocking collect: files whatever replies are currently
    /// readable, then reports whether the ticket's batch completed,
    /// with the replies kept as the verified frames the server sent.
    /// `Ok(None)` means "not yet — poll the socket and retry"; the
    /// cluster's connection driver multiplexes every backend this way
    /// on one thread. Hand the buffer back with
    /// [`recycle`](PolicyClient::recycle) once done with it.
    pub fn try_collect_frames(&mut self, ticket: &Ticket) -> std::io::Result<Option<ReplyFrames>> {
        self.advance_until(false, |c| c.is_done(ticket))?;
        self.take_done(ticket)
    }

    /// Gives a collected batch's reply buffer back for reuse by a
    /// later ticket.
    pub fn recycle(&mut self, frames: ReplyFrames) {
        if self.spare.len() < SPARE_ARENAS {
            self.spare.push(frames);
        }
    }

    /// Whether the ticket's batch is complete (an unknown ticket counts
    /// as done, for [`take_done`](PolicyClient::take_done) to refuse).
    fn is_done(&self, ticket: &Ticket) -> bool {
        self.pending
            .iter()
            .find(|b| b.corr == ticket.corr)
            .is_none_or(|b| b.missing == 0)
    }

    /// Removes and returns the ticket's replies once every one
    /// arrived.
    fn take_done(&mut self, ticket: &Ticket) -> std::io::Result<Option<ReplyFrames>> {
        let Some(k) = self.pending.iter().position(|b| b.corr == ticket.corr) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "unknown or already collected ticket",
            ));
        };
        Ok((self.pending[k].missing == 0).then(|| self.pending.remove(k).replies))
    }

    /// Pipelines every request and waits for the full batch: exactly
    /// [`submit_batch`](PolicyClient::submit_batch) followed by
    /// [`collect`](PolicyClient::collect). Replies return in request
    /// order.
    pub fn serve_batch(&mut self, reqs: &[PolicyRequest]) -> std::io::Result<Vec<WireResult>> {
        let ticket = self.submit_batch(reqs)?;
        self.collect(ticket)
    }

    /// Flushes the scatter buffer — the one write path — interleaving
    /// reads whenever the send buffer is full: a client that only
    /// wrote could deadlock against the server once both directions'
    /// socket buffers fill. Each park waits for the socket to turn
    /// writable (or readable — replies get absorbed first).
    fn flush(&mut self) -> std::io::Result<()> {
        use std::io::ErrorKind::{Interrupted, WouldBlock};
        while !self.enc.is_drained() {
            match (&self.stream).write(self.enc.pending()) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "server stopped reading",
                    ))
                }
                Ok(n) => self.enc.advance(n),
                Err(e) if e.kind() == Interrupted => {}
                Err(e) if e.kind() == WouldBlock => {
                    // Send buffer full: the server is probably waiting
                    // for us to drain replies.
                    self.advance_until(false, |_| false)?;
                    self.park(ready::READABLE | ready::WRITABLE)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Parks until the socket is ready for `events`; fails `TimedOut`
    /// when the connection's timeout passes first.
    fn park(&self, events: i16) -> std::io::Result<()> {
        let deadline = self.timeout.map(|t| Instant::now() + t);
        loop {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if ready::wait_one(self.poll_fd(), events, left)? != 0 {
                return Ok(());
            }
            if left.is_some_and(|l| l.is_zero()) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "server made no progress within the I/O timeout",
                ));
            }
        }
    }

    /// The one read path: files frames — buffered ones first, then
    /// whatever the socket has — until `done` holds (`Ok(true)`). With
    /// `park` it waits for the socket whenever nothing is readable;
    /// without, it returns `Ok(false)` once the socket is drained. A
    /// stream failure (a corrupt frame, EOF) surfaces only when no
    /// frame before it satisfied `done`.
    fn advance_until(&mut self, park: bool, done: impl Fn(&Self) -> bool) -> std::io::Result<bool> {
        loop {
            if self.decode_until(&done)? {
                return Ok(true);
            }
            if self.fill()? {
                continue;
            }
            if !park {
                return Ok(false);
            }
            self.park(ready::READABLE)?;
        }
    }

    /// Files buffered frames until `done` holds (`true`) or no complete
    /// frame is left (`false`), traced as one `proto/frame_decode` span
    /// per run — the read path's twin of the server's drain span.
    fn decode_until(&mut self, done: &impl Fn(&Self) -> bool) -> std::io::Result<bool> {
        let t0 = econcast_trace::armed_now();
        let mut decoded = 0u64;
        let finished = loop {
            if done(self) {
                break true;
            }
            match self.codec.next_incoming().map_err(undecodable)? {
                Some(Incoming::Response(v)) => file_response(&mut self.pending, v)?,
                Some(Incoming::Message(msg)) => self.dispatch(msg),
                None => break false,
            }
            decoded += 1;
        };
        if decoded > 0 {
            econcast_trace::complete_from("proto", "frame_decode", t0, &[("msgs", decoded)]);
        }
        Ok(finished)
    }

    /// Reads until `WouldBlock` and reports whether any bytes arrived.
    /// An EOF behind fresh bytes is left for the next call, so every
    /// frame before a close is filed first.
    fn fill(&mut self) -> std::io::Result<bool> {
        use std::io::ErrorKind::{Interrupted, WouldBlock};
        let mut got = false;
        loop {
            match (&self.stream).read(&mut self.rbuf) {
                Ok(0) if got => return Ok(true),
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    got = true;
                    self.codec.feed(&self.rbuf[..n]);
                }
                Err(e) if e.kind() == WouldBlock => return Ok(got),
                Err(e) if e.kind() == Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Routes one decoded error reply to its in-flight batch by
    /// correlation id (replies for no live ticket are dropped); every
    /// other message lands in the control inbox for
    /// [`round_trip`](PolicyClient::round_trip).
    fn dispatch(&mut self, msg: ServiceMessage) {
        match msg {
            ServiceMessage::Error(e) if e.corr != 0 => {
                if let Some(b) = self.pending.iter_mut().find(|b| b.corr == e.corr) {
                    b.file(e.id, Reply::Error(e));
                }
            }
            other => self.control.push(other),
        }
    }

    /// Sends one control message and waits for the reply `is_reply`
    /// picks out of the control inbox. Data-plane replies arriving
    /// meanwhile are filed to their tickets; stray control messages
    /// are dropped.
    fn round_trip(
        &mut self,
        msg: &ServiceMessage,
        is_reply: impl Fn(&ServiceMessage) -> bool,
    ) -> std::io::Result<ServiceMessage> {
        self.control.clear();
        self.enc.push(msg, WIRE_VERSION);
        self.flush()?;
        self.advance_until(true, |c| c.control.iter().any(&is_reply))?;
        let k = self
            .control
            .iter()
            .position(is_reply)
            .expect("advanced until found");
        Ok(self.control.swap_remove(k))
    }

    /// Fetches one shard's counters (`None` = the aggregate): the
    /// serving-counter view of that shard's metrics scrape.
    pub fn stats(&mut self, shard: Option<u16>) -> std::io::Result<ServiceStats> {
        let snap = self.scrape(shard.unwrap_or(STATS_SHARD_AGGREGATE))?;
        Ok(ServiceStats::from_snapshot(&snap))
    }

    /// Fetches the server's aggregate metrics snapshot: counters,
    /// injected gauges, and the always-on latency histograms.
    pub fn metrics(&mut self) -> std::io::Result<econcast_metrics::MetricsSnapshot> {
        self.scrape(STATS_SHARD_AGGREGATE)
    }

    fn scrape(&mut self, shard: u16) -> std::io::Result<econcast_metrics::MetricsSnapshot> {
        let id = self.take_id();
        let req = ServiceMessage::MetricsRequest(WireMetricsRequest { id, shard });
        let reply = self.round_trip(&req, |m| match m {
            ServiceMessage::MetricsResponse(r) => r.id == id,
            ServiceMessage::Error(e) => e.id == id,
            _ => false,
        })?;
        match reply {
            ServiceMessage::MetricsResponse(r) => Ok(r.snapshot),
            _ => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("server rejected metrics request for shard {shard}"),
            )),
        }
    }

    fn take_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// A fresh non-zero correlation id (0 is the wire's "unknown").
    fn take_corr(&mut self) -> u32 {
        let corr = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(1);
        if self.next_corr == 0 {
            self.next_corr = 1;
        }
        corr
    }
}
