//! The remote-shard dialer: a pooled, reconnecting, health-tracked
//! wrapper over [`PolicyClient`].
//!
//! A [`RemoteShard`] owns one backend address and at most one live
//! connection to it. Operations dial lazily with **bounded retry and
//! exponential backoff**, and every operation outcome feeds a small
//! health machine, which holds state and counts nothing (the router
//! counts failures and served requests in its registry table):
//!
//! * a success resets the failure streak and marks the backend
//!   healthy;
//! * `unhealthy_after` consecutive failures mark it **down** — from
//!   then on [`RemoteShard::should_attempt`] answers `false` and the
//!   cluster router stops burning dial timeouts on it (requests fall
//!   back to the local solver instead);
//! * after `reprobe_after` of downtime the next operation is allowed
//!   through as a probe; if the backend answers, it is healthy again.
//!
//! The dialer speaks the ordinary `econcast-proto` service family —
//! backends are stock `PolicyServer` processes that cannot tell a
//! dialer from any other client.

use crate::client::{PolicyClient, ReplyFrames, Ticket};
use crate::ready;
use crate::request::PolicyRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Tuning knobs for one backend connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteConfig {
    /// Dial attempts per connection establishment (≥ 1).
    pub dial_retries: u32,
    /// Backoff before the second dial attempt; doubles per attempt.
    pub backoff: Duration,
    /// Timeout applied to the TCP connect, the handshake, and every
    /// read/write on the pooled connection (`None` = block forever) —
    /// a backend that is wedged rather than dead (accepts but never
    /// answers) surfaces as an error, not a hung cluster.
    pub io_timeout: Option<Duration>,
    /// Consecutive operation failures before the backend is marked
    /// down.
    pub unhealthy_after: u32,
    /// Downtime before a probe operation is allowed through again.
    pub reprobe_after: Duration,
}

/// `max_batch` a dialer announces in its connection handshake.
const HELLO_BATCH: u16 = 1024;

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            dial_retries: 2,
            backoff: Duration::from_millis(25),
            io_timeout: Some(Duration::from_secs(10)),
            unhealthy_after: 1,
            reprobe_after: Duration::from_millis(250),
        }
    }
}

/// An in-flight remote sub-batch: the connection-level [`Ticket`]
/// plus the trace span and deadline applied when it completes.
#[derive(Debug)]
pub struct RemoteTicket {
    ticket: Ticket,
    /// `remote_serve` span start (armed only while tracing).
    t0: Option<u64>,
    /// Absolute completion deadline derived from
    /// [`RemoteConfig::io_timeout`] at submit time; the readiness
    /// driver parks no longer than the nearest one.
    pub(crate) deadline: Option<Instant>,
    /// Requests in the sub-batch.
    n: usize,
}

/// One backend policy server, dialed on demand.
#[derive(Debug)]
pub struct RemoteShard {
    addr: SocketAddr,
    cfg: RemoteConfig,
    conn: Option<PolicyClient>,
    consecutive_failures: u32,
    /// `Some(since)` while the backend is considered down.
    down_since: Option<Instant>,
    /// Deterministic per-shard multiplier in `[1.0, 1.5)` applied to
    /// every reconnect backoff sleep.
    jitter: f64,
}

/// The per-shard backoff jitter factor: seeded from the shard's slot
/// index, so a cluster of dialers reconnecting after one backend
/// restart spreads its dial storm deterministically instead of
/// stampeding in lockstep — and two runs of the same topology jitter
/// identically (reproducible tests and benchmarks).
fn jitter_factor(index: u64) -> f64 {
    // Golden-ratio XOR decorrelates small consecutive indices before
    // they seed the generator.
    let mut rng = StdRng::seed_from_u64(index ^ 0x9E37_79B9_7F4A_7C15);
    rng.gen_range(1.0, 1.5)
}

impl RemoteShard {
    /// Wraps a backend address; nothing is dialed until the first
    /// operation. Backoff jitter is seeded as slot index 0 — cluster
    /// routers use [`RemoteShard::with_index`] so each slot jitters
    /// differently.
    pub fn new(addr: SocketAddr, cfg: RemoteConfig) -> Self {
        Self::with_index(addr, cfg, 0)
    }

    /// Wraps a backend address with an explicit slot index seeding the
    /// deterministic backoff jitter.
    pub fn with_index(addr: SocketAddr, cfg: RemoteConfig, index: u64) -> Self {
        RemoteShard {
            addr,
            cfg,
            conn: None,
            consecutive_failures: 0,
            down_since: None,
            jitter: jitter_factor(index),
        }
    }

    /// The deterministic backoff multiplier this shard was seeded
    /// with (in `[1.0, 1.5)`).
    pub fn backoff_jitter(&self) -> f64 {
        self.jitter
    }

    /// The backend address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the backend is currently considered healthy.
    pub fn healthy(&self) -> bool {
        self.down_since.is_none()
    }

    /// Whether an operation should be attempted right now: healthy,
    /// or down for long enough that a reprobe is due.
    pub fn should_attempt(&self) -> bool {
        match self.down_since {
            None => true,
            Some(since) => since.elapsed() >= self.cfg.reprobe_after,
        }
    }

    /// Re-targets the dialer at a replacement backend (a respawned
    /// process listens on a fresh port): drops the pooled connection
    /// and resets the health machine, so the next operation probes
    /// the new address immediately.
    pub fn retarget(&mut self, addr: SocketAddr) {
        self.addr = addr;
        self.conn = None;
        self.consecutive_failures = 0;
        self.down_since = None;
    }

    /// Submits one batch on the backend without waiting for replies
    /// (dialing first if needed): the cluster router's scatter step.
    /// An `Err` — here or from `try_finish` — means the *stream* failed
    /// (dial, I/O, corruption): the connection is dropped, the failure
    /// is recorded, and the caller should fall back; the cluster router
    /// re-serves the whole sub-batch locally.
    /// Poll the returned ticket with
    /// [`try_finish`](RemoteShard::try_finish) — several backends'
    /// tickets can be in flight at once, multiplexed on one thread
    /// via [`RemoteShard::poll_fd`]. A submit-side failure is
    /// recorded like any stream failure.
    pub fn begin_batch<'a, I>(&mut self, reqs: I) -> std::io::Result<RemoteTicket>
    where
        I: IntoIterator<Item = &'a PolicyRequest>,
        I::IntoIter: ExactSizeIterator,
    {
        let t0 = econcast_trace::armed_now();
        let deadline = self.cfg.io_timeout.map(|t| Instant::now() + t);
        let reqs = reqs.into_iter();
        let n = reqs.len();
        match self.connect().and_then(|conn| conn.submit_batch(reqs)) {
            Ok(ticket) => Ok(RemoteTicket {
                ticket,
                t0,
                deadline,
                n,
            }),
            Err(e) => {
                econcast_trace::complete_from(
                    "cluster",
                    "remote_serve",
                    t0,
                    &[("requests", n as u64)],
                );
                self.note_outcome(false);
                Err(e)
            }
        }
    }

    /// Non-blocking progress check on an in-flight batch: absorbs
    /// whatever replies are readable and reports completion, with the
    /// replies kept as the verified frames the backend sent.
    /// `Ok(None)` means "not done yet — wait for readability and
    /// retry". Completion (either way) closes the `remote_serve`
    /// trace span and feeds the health machine; blowing the
    /// [`RemoteConfig::io_timeout`] deadline counts as a stream
    /// failure, and so does a reply that fails verification.
    pub fn try_finish(&mut self, t: &RemoteTicket) -> std::io::Result<Option<ReplyFrames>> {
        let polled = match self.conn.as_mut() {
            None => Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "connection was dropped mid-batch",
            )),
            Some(conn) => conn.try_collect_frames(&t.ticket),
        };
        match polled {
            Ok(Some(out)) => {
                self.settle(t, true);
                Ok(Some(out))
            }
            Ok(None) => {
                if t.deadline.is_some_and(|d| Instant::now() >= d) {
                    self.settle(t, false);
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "backend did not complete the batch within the I/O timeout",
                    ));
                }
                Ok(None)
            }
            Err(e) => {
                self.settle(t, false);
                Err(e)
            }
        }
    }

    /// Completion bookkeeping: health machine, trace span.
    fn settle(&mut self, t: &RemoteTicket, ok: bool) {
        self.note_outcome(ok);
        econcast_trace::complete_from("cluster", "remote_serve", t.t0, &[("requests", t.n as u64)]);
    }

    /// Gives a finished batch's reply buffer back to the pooled
    /// connection for reuse (dropped when the connection is gone).
    pub fn recycle(&mut self, frames: ReplyFrames) {
        if let Some(conn) = self.conn.as_mut() {
            conn.recycle(frames);
        }
    }

    /// The pooled connection's descriptor for readiness multiplexing
    /// (`None` while undialed or after a failure dropped the stream).
    pub fn poll_fd(&self) -> Option<ready::RawFdAlias> {
        self.conn.as_ref().map(PolicyClient::poll_fd)
    }

    /// The per-operation I/O timeout this dialer was configured with.
    pub fn io_timeout(&self) -> Option<Duration> {
        self.cfg.io_timeout
    }

    /// Liveness probe, fed to the health machine. A live pooled
    /// connection round-trips a `Ping` in place (no accept or
    /// handshake on the backend); with none, a one-shot
    /// [`probe`](Self::probe). Returns whether the backend answered.
    pub fn ping(&mut self) -> bool {
        let ok = match self.conn.as_mut() {
            Some(conn) => conn.ping().is_ok(),
            None => Self::probe(self.addr, self.cfg.io_timeout),
        };
        self.note_outcome(ok);
        ok
    }

    /// Whether a pooled connection is live (dropped on every failure).
    pub fn connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Liveness probe on a fresh connection to `addr`, each wait
    /// bounded by `timeout`. It touches no dialer, so it runs with no
    /// lock held, and the router feeds its outcome to the slot's
    /// health machine.
    pub fn probe(addr: SocketAddr, timeout: Option<Duration>) -> bool {
        dial(addr, 1, timeout)
            .and_then(|mut client| client.ping())
            .is_ok()
    }

    /// Returns the pooled connection, dialing with bounded
    /// retry/backoff when none is live.
    fn connect(&mut self) -> std::io::Result<&mut PolicyClient> {
        if self.conn.is_none() {
            let t0 = econcast_trace::armed_now();
            let mut attempts = 0u64;
            let mut last_err = None;
            for attempt in 0..self.cfg.dial_retries.max(1) {
                attempts += 1;
                if attempt > 0 {
                    let base = self.cfg.backoff * 2u32.pow(attempt - 1);
                    std::thread::sleep(base.mul_f64(self.jitter));
                }
                // The timeout must already be armed while dialing and
                // handshaking: applying it only afterwards would leave
                // a wedged backend able to hang the dial itself.
                match dial(self.addr, HELLO_BATCH, self.cfg.io_timeout) {
                    Ok(client) => {
                        self.conn = Some(client);
                        last_err = None;
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            econcast_trace::complete_from(
                "cluster",
                "dial",
                t0,
                &[("attempts", attempts), ("ok", last_err.is_none() as u64)],
            );
            if let Some(e) = last_err {
                return Err(e);
            }
        }
        Ok(self.conn.as_mut().expect("dialed above"))
    }

    /// Feeds one operation's outcome (a batch, a probe) to the health
    /// machine.
    pub(crate) fn note_outcome(&mut self, ok: bool) {
        if ok {
            self.consecutive_failures = 0;
            self.down_since = None;
            return;
        }
        // A failed stream is never reused: the next operation redials.
        self.conn = None;
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.cfg.unhealthy_after.max(1) {
            // (Re-)stamp the downtime so the reprobe window restarts
            // after every failed probe, not just the first failure.
            self.down_since = Some(Instant::now());
        }
    }
}

/// One dial and handshake, every wait bounded by `timeout` when one
/// is given.
fn dial(
    addr: SocketAddr,
    max_batch: u16,
    timeout: Option<Duration>,
) -> std::io::Result<PolicyClient> {
    match timeout {
        Some(timeout) => PolicyClient::connect_with_timeout(addr, max_batch, timeout),
        None => PolicyClient::connect(addr, max_batch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireResult;
    use econcast_core::{NodeParams, ThroughputMode};

    /// One batch through the dialer the way the router drives it:
    /// submit, then [`crate::driver::drive`] to completion.
    fn serve(shard: &mut RemoteShard, reqs: &[PolicyRequest]) -> std::io::Result<Vec<WireResult>> {
        let ticket = shard.begin_batch(reqs)?;
        let job = crate::driver::Job {
            slot: 0,
            shard,
            ticket,
        };
        let (_, out) = crate::driver::drive(vec![job]).pop().expect("one job");
        out.map(|frames| frames.results())
    }

    /// An address with nothing listening (bind, learn, drop).
    fn dead_addr() -> SocketAddr {
        std::net::TcpListener::bind("127.0.0.1:0")
            .expect("bind probe")
            .local_addr()
            .expect("addr")
    }

    fn one_request() -> Vec<PolicyRequest> {
        vec![PolicyRequest::homogeneous(
            4,
            NodeParams::from_microwatts(10.0, 500.0, 450.0),
            0.5,
            ThroughputMode::Groupput,
            1e-2,
        )]
    }

    #[test]
    fn dead_backend_goes_down_and_respects_the_reprobe_window() {
        let mut shard = RemoteShard::new(
            dead_addr(),
            RemoteConfig {
                dial_retries: 1,
                reprobe_after: Duration::from_secs(3600),
                ..RemoteConfig::default()
            },
        );
        assert!(shard.healthy());
        assert!(shard.should_attempt());
        assert!(serve(&mut shard, &one_request()).is_err());
        assert!(!shard.healthy(), "one failure marks it down");
        assert!(
            !shard.should_attempt(),
            "an hour-long reprobe window gates further attempts"
        );
        assert!(!shard.connected(), "the failed dial pooled nothing");
    }

    #[test]
    fn live_backend_serves_and_recovers_after_retarget() {
        use crate::{PolicyServer, RouterConfig, ServerConfig, ServiceConfig};
        let server = PolicyServer::bind(
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

        // Start pointed at a dead port: down after one failure.
        let mut shard = RemoteShard::new(
            dead_addr(),
            RemoteConfig {
                dial_retries: 1,
                reprobe_after: Duration::from_secs(3600),
                ..RemoteConfig::default()
            },
        );
        assert!(serve(&mut shard, &one_request()).is_err());
        assert!(!shard.healthy());

        // Re-target at the live backend (the replace-a-dead-backend
        // path): health resets, the probe succeeds, requests serve.
        shard.retarget(server.addr());
        assert!(shard.should_attempt());
        assert!(shard.ping(), "live backend answers the probe");
        let out = serve(&mut shard, &one_request()).expect("remote serve");
        assert_eq!(out.len(), 1);
        assert!(out[0].is_ok());
        assert!(shard.healthy());
        assert!(shard.connected(), "the serve pooled its connection");

        // The backend's own scrape counts the request it served.
        let backend = PolicyClient::connect(server.addr(), 1)
            .expect("connect backend")
            .stats(None)
            .expect("stats");
        assert_eq!(backend.requests, 1);
        server.shutdown();
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_spreads_across_indices() {
        let addr = dead_addr();
        let cfg = RemoteConfig::default();
        let factors: Vec<f64> = (0..8)
            .map(|i| RemoteShard::with_index(addr, cfg, i).backoff_jitter())
            .collect();
        for (i, &f) in factors.iter().enumerate() {
            assert!((1.0..1.5).contains(&f), "index {i} jitter {f} out of range");
            // Same index ⇒ same factor, every time: reconnect pacing is
            // reproducible run to run.
            let again = RemoteShard::with_index(addr, cfg, i as u64).backoff_jitter();
            assert_eq!(f.to_bits(), again.to_bits());
        }
        // Neighbouring slots must not share a factor, or a fleet of
        // dialers stampedes in lockstep after one backend restart.
        let distinct: std::collections::HashSet<u64> =
            factors.iter().map(|f| f.to_bits()).collect();
        assert_eq!(
            distinct.len(),
            factors.len(),
            "jitter collapsed: {factors:?}"
        );
        assert_eq!(
            RemoteShard::new(addr, cfg).backoff_jitter().to_bits(),
            factors[0].to_bits(),
            "plain constructor is index 0"
        );
    }

    #[test]
    fn failed_reprobe_restamps_the_window_without_a_fresh_down_transition() {
        // Down backend, short reprobe window: after the cooldown a
        // probe is allowed through; when the backend is *still* dead
        // the window re-stamps (no hammering) and the down transition
        // is not double-counted as a fresh failure burst.
        let mut shard = RemoteShard::new(
            dead_addr(),
            RemoteConfig {
                dial_retries: 1,
                reprobe_after: Duration::from_millis(80),
                ..RemoteConfig::default()
            },
        );
        assert!(serve(&mut shard, &one_request()).is_err());
        assert!(!shard.healthy());
        assert!(!shard.should_attempt(), "inside the cooldown window");

        std::thread::sleep(Duration::from_millis(120));
        assert!(shard.should_attempt(), "cooldown elapsed: reprobe is due");
        assert!(!shard.ping(), "backend is still dead");
        assert!(
            !shard.should_attempt(),
            "failed reprobe re-stamps the window"
        );
        assert!(!shard.healthy(), "still the same outage");
        assert!(!shard.connected());
    }

    #[test]
    fn recovery_is_adopted_at_the_next_probe_not_mid_window() {
        use crate::{PolicyServer, RouterConfig, ServerConfig, ServiceConfig};
        // Mark the shard down while nothing listens, with a long
        // reprobe window.
        let addr = dead_addr();
        let mut shard = RemoteShard::new(
            addr,
            RemoteConfig {
                dial_retries: 1,
                reprobe_after: Duration::from_secs(3600),
                ..RemoteConfig::default()
            },
        );
        assert!(serve(&mut shard, &one_request()).is_err());
        assert!(!shard.healthy());

        // The backend comes back on the same port mid-window. The
        // health machine must NOT silently re-adopt it: serve-path
        // attempts stay gated until a sweep probes explicitly.
        let server = PolicyServer::bind(
            addr,
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
        .expect("rebind released port")
        .spawn();
        assert!(
            !shard.should_attempt(),
            "recovery is invisible until the next health sweep"
        );

        // The sweep's explicit probe dials regardless of the window
        // and re-adopts the recovered backend.
        assert!(shard.ping(), "sweep probe re-adopts the backend");
        assert!(shard.healthy());
        assert!(shard.should_attempt());
        assert!(!shard.connected(), "the probe dialed on its own connection");
        let out = serve(&mut shard, &one_request()).expect("serves again");
        assert!(out[0].is_ok());
        server.shutdown();
    }

    #[test]
    fn a_pooled_connection_answers_the_probe_in_place() {
        use crate::{PolicyServer, RouterConfig, ServerConfig, ServiceConfig};
        // One handler slot, held by the shard's pooled connection: a
        // fresh probe waits in the listen backlog past the I/O
        // timeout, so only a probe on the pooled stream can answer.
        let server = PolicyServer::bind(
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
                max_connections: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind")
        .spawn();
        let timeout = Some(Duration::from_millis(300));
        let mut shard = RemoteShard::new(
            server.addr(),
            RemoteConfig {
                io_timeout: timeout,
                ..RemoteConfig::default()
            },
        );
        serve(&mut shard, &one_request()).expect("remote serve");
        assert!(shard.connected());
        assert!(
            !RemoteShard::probe(server.addr(), timeout),
            "the one handler slot is taken"
        );
        assert!(shard.ping(), "the pooled stream answers");
        assert!(shard.healthy());
        assert!(shard.connected());
        assert!(shard.should_attempt());
        server.shutdown();
    }
}
