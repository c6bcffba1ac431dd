//! A blocking TCP client for the policy server, with a pipelined
//! submit/collect data plane.

use crate::ready;
use crate::request::PolicyRequest;
use crate::stats::ServiceStats;
use econcast_proto::service::{
    ScatterEncoder, ServiceCodec, ServiceMessage, WireHello, WireMetricsRequest, WirePing,
    WirePolicyError, WirePolicyResponse, WireStatsRequest, STATS_SHARD_AGGREGATE, WIRE_VERSION,
};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

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
/// Every frame rides [`WIRE_VERSION`]; a server built at any other
/// version drops the `Hello`, and the connect fails instead of
/// settling on a reduced protocol.
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
///   CRC-checked when it was decoded (pinned by the
///   `corrupt_mid_stream_reply_fails_the_call_not_prior_results`
///   regression test).
pub struct PolicyClient {
    stream: TcpStream,
    codec: ServiceCodec,
    enc: ScatterEncoder,
    pending: Vec<PendingBatch>,
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
/// [`PolicyClient::try_collect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    corr: u32,
}

/// One in-flight batch: its correlation id plus the collector filing
/// its replies.
#[derive(Debug)]
struct PendingBatch {
    corr: u32,
    collector: Collector,
}

/// Accumulates one batch's replies in request order.
#[derive(Debug)]
struct Collector {
    base: u32,
    out: Vec<Option<WireResult>>,
    pending: usize,
}

impl Collector {
    fn new(base: u32, len: usize) -> Self {
        Collector {
            base,
            out: vec![None; len],
            pending: len,
        }
    }

    /// Index of the batch entry a reply id belongs to, if any.
    fn slot(&self, id: u32) -> Option<usize> {
        let k = id.wrapping_sub(self.base) as usize;
        (k < self.out.len()).then_some(k)
    }

    /// Files a reply; ids outside the batch are ignored.
    fn file(&mut self, id: u32, result: WireResult) {
        if let Some(k) = self.slot(id) {
            if self.out[k].replace(result).is_none() {
                self.pending -= 1;
            }
        }
    }

    fn done(&self) -> bool {
        self.pending == 0
    }

    fn finish(self) -> Vec<WireResult> {
        self.out
            .into_iter()
            .map(|r| r.expect("collector done"))
            .collect()
    }
}

impl PolicyClient {
    /// Connects and performs the `Hello`/`Welcome` handshake.
    /// `max_batch` is the largest batch this client intends to
    /// pipeline (informational, rides the hello).
    pub fn connect(addr: impl ToSocketAddrs, max_batch: u16) -> std::io::Result<Self> {
        Self::handshake(TcpStream::connect(addr)?, max_batch)
    }

    /// Like [`PolicyClient::connect`], but with `timeout` applied to
    /// the TCP connect **and** to the handshake reads/writes — and
    /// left in force on the connection. Dialers use this: a backend
    /// that accepts but never answers the `Hello` must surface as a
    /// timed-out error, not a connect() that hangs before any
    /// [`set_io_timeout`](PolicyClient::set_io_timeout) call could
    /// take effect.
    pub fn connect_with_timeout(
        addr: std::net::SocketAddr,
        max_batch: u16,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Self::handshake(stream, max_batch)
    }

    /// Performs the `Hello`/`Welcome` handshake on a connected stream.
    fn handshake(stream: TcpStream, max_batch: u16) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let mut client = PolicyClient {
            stream,
            codec: ServiceCodec::new(),
            enc: ScatterEncoder::new(),
            pending: Vec::new(),
            shards: 0,
            server_max_batch: 0,
            next_id: 0,
            next_corr: 1,
            rbuf: vec![0; READ_CHUNK].into_boxed_slice(),
        };
        let id = client.take_id();
        client.send(&ServiceMessage::Hello(WireHello { id, max_batch }))?;
        loop {
            match client.recv()? {
                ServiceMessage::Welcome(w) if w.id == id => {
                    client.shards = w.shards;
                    client.server_max_batch = w.max_batch;
                    return Ok(client);
                }
                // Anything else before the welcome is protocol misuse;
                // skip it rather than wedging the handshake.
                _ => {}
            }
        }
    }

    /// Shard count the server advertised.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// Applies a read/write timeout to the underlying stream (`None`
    /// = block forever). Remote-shard dialers set this so a wedged —
    /// rather than dead — backend surfaces as a timed-out `Err`
    /// instead of a hung cluster.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// The raw socket descriptor, for readiness multiplexing across
    /// connections ([`crate::ready::wait`]).
    pub fn poll_fd(&self) -> ready::RawFdAlias {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            self.stream.as_raw_fd()
        }
        #[cfg(not(unix))]
        {
            0
        }
    }

    /// Round-trips a `Ping`/`Pong` liveness probe, verifying the id
    /// echo. The cluster layer's health checks in one call.
    pub fn ping(&mut self) -> std::io::Result<()> {
        let id = self.take_id();
        self.send(&ServiceMessage::Ping(WirePing { id }))?;
        loop {
            match self.recv()? {
                ServiceMessage::Pong(p) if p.id == id => return Ok(()),
                // Data-plane replies for in-flight tickets are filed,
                // not dropped; other strays are skipped like the
                // handshake does.
                other => self.dispatch(other),
            }
        }
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
    /// [`try_collect`](PolicyClient::try_collect). Takes the requests
    /// by reference (a slice, a `&Vec`, or any exact-size iterator of
    /// references), so a caller scattering one batch across several
    /// connections encodes straight from its own storage.
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
        let msgs: Vec<ServiceMessage> = reqs
            .enumerate()
            .map(|(k, req)| {
                let mut w = req.to_wire(base.wrapping_add(k as u32));
                w.corr = corr;
                w.deadline_us = deadline_us;
                ServiceMessage::Request(w)
            })
            .collect();
        self.enc.push_all(&msgs, WIRE_VERSION);
        self.pending.push(PendingBatch {
            corr,
            collector: Collector::new(base, n),
        });
        self.flush()?;
        Ok(Ticket { corr })
    }

    /// Blocks until the ticket's batch fully completed, filing replies
    /// for every in-flight ticket along the way. Replies return in
    /// the batch's request order regardless of arrival order.
    pub fn collect(&mut self, ticket: Ticket) -> std::io::Result<Vec<WireResult>> {
        loop {
            let Some(k) = self.pending.iter().position(|b| b.corr == ticket.corr) else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "unknown or already collected ticket",
                ));
            };
            if self.pending[k].collector.done() {
                return Ok(self.pending.remove(k).collector.finish());
            }
            let msg = self.recv()?;
            self.dispatch(msg);
        }
    }

    /// Non-blocking collect: drains whatever replies are currently
    /// readable, then reports whether the ticket's batch completed.
    /// `Ok(None)` means "not yet — poll the socket and retry"; the
    /// cluster's connection driver multiplexes every backend this way
    /// on one thread.
    pub fn try_collect(&mut self, ticket: &Ticket) -> std::io::Result<Option<Vec<WireResult>>> {
        self.stream.set_nonblocking(true)?;
        let drained = self.drain_ready();
        let restored = self.stream.set_nonblocking(false);
        drained?;
        restored?;
        let Some(k) = self.pending.iter().position(|b| b.corr == ticket.corr) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "unknown or already collected ticket",
            ));
        };
        if self.pending[k].collector.done() {
            return Ok(Some(self.pending.remove(k).collector.finish()));
        }
        Ok(None)
    }

    /// Pipelines every request and waits for the full batch: exactly
    /// [`submit_batch`](PolicyClient::submit_batch) followed by
    /// [`collect`](PolicyClient::collect). Replies return in request
    /// order.
    pub fn serve_batch(&mut self, reqs: &[PolicyRequest]) -> std::io::Result<Vec<WireResult>> {
        let ticket = self.submit_batch(reqs)?;
        self.collect(ticket)
    }

    /// Flushes the scatter buffer, interleaving reads whenever the
    /// send buffer is full — a client that only wrote first could
    /// deadlock against the server once both directions' socket
    /// buffers fill. The stream's configured read timeout bounds the
    /// whole write phase (SO_SNDTIMEO does not apply to a
    /// non-blocking socket, so the deadline is explicit): blowing it
    /// means the peer stopped draining our requests.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.enc.is_drained() {
            return Ok(());
        }
        let deadline = self
            .stream
            .read_timeout()?
            .map(|t| std::time::Instant::now() + t);
        self.stream.set_nonblocking(true)?;
        let pumped = self.pump(deadline);
        let restored = self.stream.set_nonblocking(false);
        pumped?;
        restored?;
        Ok(())
    }

    /// The non-blocking write/absorb loop behind
    /// [`flush`](PolicyClient::flush): writes park in `poll(2)` until
    /// the socket turns writable (or readable — replies get absorbed
    /// first), instead of the fixed short sleeps of the pre-pipeline
    /// pump.
    fn pump(&mut self, deadline: Option<std::time::Instant>) -> std::io::Result<()> {
        use std::io::ErrorKind::{Interrupted, WouldBlock};
        while !self.enc.is_drained() {
            match (&self.stream).write(self.enc.pending()) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "server stopped reading mid-batch",
                    ))
                }
                Ok(n) => self.enc.advance(n),
                Err(e) if e.kind() == Interrupted => {}
                Err(e) if e.kind() == WouldBlock => {
                    if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "server did not drain the batch within the I/O timeout",
                        ));
                    }
                    // Send buffer full: the server is probably waiting
                    // for us to drain replies — absorb whatever is
                    // readable, then park until either direction moves.
                    if !self.drain_ready()? {
                        let remaining = deadline
                            .map(|d| d.saturating_duration_since(std::time::Instant::now()));
                        ready::wait_one(
                            self.poll_fd(),
                            ready::READABLE | ready::WRITABLE,
                            remaining,
                        )?;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads everything currently available (stream must be in
    /// non-blocking mode), filing data-plane replies to their
    /// in-flight batches. Returns whether any bytes arrived.
    fn drain_ready(&mut self) -> std::io::Result<bool> {
        use std::io::ErrorKind::{Interrupted, WouldBlock};
        let mut got = false;
        loop {
            match (&self.stream).read(&mut self.rbuf) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-batch",
                    ))
                }
                Ok(n) => {
                    got = true;
                    self.ingest(n)?;
                }
                Err(e) if e.kind() == WouldBlock => break,
                Err(e) if e.kind() == Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(got)
    }

    /// Feeds the first `n` bytes of the read buffer to the codec and
    /// files every decoded message, traced as one `proto/frame_decode`
    /// span per readable burst — the pipelined read path's twin of the
    /// server's drain span.
    fn ingest(&mut self, n: usize) -> std::io::Result<()> {
        let t0 = econcast_trace::armed_now();
        let mut decoded = 0u64;
        self.codec.feed(&self.rbuf[..n]);
        loop {
            match self.codec.next_message() {
                Ok(Some(msg)) => {
                    decoded += 1;
                    self.dispatch(msg);
                }
                Ok(None) => {
                    if decoded > 0 {
                        econcast_trace::complete_from(
                            "proto",
                            "frame_decode",
                            t0,
                            &[("msgs", decoded)],
                        );
                    }
                    return Ok(());
                }
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("undecodable server reply: {e:?}"),
                    ))
                }
            }
        }
    }

    /// Routes one decoded message to its in-flight batch by
    /// correlation id. Control-plane messages and replies for no live
    /// ticket are dropped.
    fn dispatch(&mut self, msg: ServiceMessage) {
        let (corr, id, result) = match msg {
            ServiceMessage::Response(r) => (r.corr, r.id, Ok(r)),
            ServiceMessage::Error(e) => (e.corr, e.id, Err(e)),
            _ => return,
        };
        if let Some(b) = self.pending.iter_mut().find(|b| b.corr == corr) {
            b.collector.file(id, result);
        }
    }

    /// Fetches one shard's counters (`None` = the aggregate).
    pub fn stats(&mut self, shard: Option<u16>) -> std::io::Result<ServiceStats> {
        let id = self.take_id();
        let shard = shard.unwrap_or(STATS_SHARD_AGGREGATE);
        self.send(&ServiceMessage::StatsRequest(WireStatsRequest {
            id,
            shard,
        }))?;
        loop {
            match self.recv()? {
                ServiceMessage::StatsResponse(r) if r.id == id => {
                    return Ok(ServiceStats::from_wire(&r.stats));
                }
                ServiceMessage::Error(e) if e.id == id => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("server rejected stats request for shard {shard}"),
                    ));
                }
                other => self.dispatch(other),
            }
        }
    }

    /// Fetches the server's metrics snapshot: hub counters, injected
    /// gauges, and the always-on latency histograms.
    pub fn metrics(&mut self) -> std::io::Result<econcast_metrics::MetricsSnapshot> {
        let id = self.take_id();
        self.send(&ServiceMessage::MetricsRequest(WireMetricsRequest { id }))?;
        loop {
            match self.recv()? {
                ServiceMessage::MetricsResponse(r) if r.id == id => {
                    return Ok(crate::metrics::snapshot_from_wire(&r.snapshot));
                }
                ServiceMessage::Error(e) if e.id == id => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "server rejected metrics request",
                    ));
                }
                other => self.dispatch(other),
            }
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

    fn send(&mut self, msg: &ServiceMessage) -> std::io::Result<()> {
        debug_assert!(self.enc.is_drained(), "send during an unflushed submit");
        self.enc.push(msg, WIRE_VERSION);
        while !self.enc.is_drained() {
            let n = (&self.stream).write(self.enc.pending())?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "server stopped reading",
                ));
            }
            self.enc.advance(n);
        }
        Ok(())
    }

    /// Blocks until the next complete message arrives. Decode errors
    /// surface as `InvalidData`; a server-side disconnect as
    /// `UnexpectedEof`.
    fn recv(&mut self) -> std::io::Result<ServiceMessage> {
        loop {
            match self.codec.next_message() {
                Ok(Some(msg)) => return Ok(msg),
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("undecodable server reply: {e:?}"),
                    ))
                }
            }
            let n = (&self.stream).read(&mut self.rbuf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.codec.feed(&self.rbuf[..n]);
        }
    }
}
