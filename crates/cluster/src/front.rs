//! The cluster's TCP front-end: one address, many backend processes.
//!
//! [`ClusterFront`] is protocol-compatible with
//! `econcast_service::PolicyServer` — `PolicyClient` connects to it
//! unchanged and cannot tell a cluster from a single process. It
//! speaks the same length-prefixed `ServiceCodec` family:
//!
//! * `Hello` → `Welcome` (the advertised shard count is the cluster's
//!   **slot** count);
//! * pipelined `Request`s are served as routed batches through the
//!   [`ClusterRouter`] (remote fan-out, local failover). A backend's
//!   answer comes back as its `Response` frame, verified on arrival
//!   and kept as bytes; the connection loop forwards it with `corr`
//!   and `id` rewritten and a fresh CRC, so the front never decodes a
//!   served policy;
//! * `MetricsRequest(shard = i)` answers with slot `i`'s scrape (a
//!   remote slot is asked over the wire, via a fresh short-timeout
//!   dial made *outside* the router lock — the control plane never
//!   blocks the data plane); `shard = 0xFFFF` answers with the
//!   cluster-wide fan-in — backend scrapes + local slots + the
//!   router's own counters and fallback solver (counters and latency
//!   histograms) + the front's admission counters;
//! * `Ping` → `Pong` (liveness, untouched by routing);
//! * decode errors drop the connection without a reply, exactly like
//!   the single-process server.
//!
//! Protocol compatibility is by construction, not by convention: both
//! front-ends run on the *same* [`Acceptor`] — one accept gate, one
//! draining shutdown, and one admitted connection loop
//! (`serve_connection`) — differing only in the
//! [`ServeTarget`] behind it: a `ShardRouter` there, one shared
//! mutex-guarded [`ClusterRouter`] here. Connections are handled
//! thread-per-connection behind the bounded accept gate, each handler
//! parked in `poll(2)` on its non-blocking socket and the acceptor's
//! stop descriptor; batches serialize through the router's mutex (the
//! router owns the dialer pool — remote fan-out inside a batch is
//! still concurrent). A shutdown drains: the stop descriptor wakes
//! every handler at once, idle ones close, and one holding part of a
//! frame serves it before closing, so a planned drain is never a
//! client-visible stream error.

use crate::router::{ClusterRouter, StatsSource};
use econcast_metrics::MetricsSnapshot;
use econcast_proto::service::STATS_SHARD_AGGREGATE;
use econcast_service::{
    Acceptor, AdmissionController, PolicyClient, PolicyRequest, ServeTarget, Served,
};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::{Arc, Mutex};

/// Timeout for the fresh per-request dials a scrape fan-in makes.
/// Deliberately short: these are advisory, and they run with the
/// router unlocked but a client waiting.
const STATS_DIAL_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// Per-slot re-basing state for the scrape fan-in. A respawned (or
/// quarantined) backend restarts its counters at zero; summed naively
/// that reads as every rate going sharply negative right when the
/// cluster healed. The front instead remembers, per slot, the last
/// raw scrape and a `base` accumulated from dead incarnations: a
/// per-slot monotonicity break (any counter below its last observed
/// value) folds the previous incarnation's final totals into the
/// base, and every contribution is reported as `base + raw` — so the
/// front's aggregates stay monotone across respawns.
///
/// Only counters and histograms (which reset with their process) are
/// re-based. Gauges are instantaneous readings: a decrease is
/// ordinary (an LRU evicted, a queue drained), never a restart
/// signal, and re-basing one would double-count live state — so the
/// base's gauges are always zero (a dead process holds no live
/// state).
#[derive(Debug, Default)]
struct ScrapeRebase {
    slots: Vec<SlotRebase>,
}

#[derive(Debug, Default, Clone)]
struct SlotRebase {
    /// Accumulated totals of dead incarnations.
    base: MetricsSnapshot,
    /// The last raw scrape.
    last: MetricsSnapshot,
}

impl ScrapeRebase {
    /// Folds one slot's fresh scrape into its monotone view.
    fn fold(&mut self, slot: usize, fresh: &MetricsSnapshot) -> MetricsSnapshot {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, SlotRebase::default());
        }
        let state = &mut self.slots[slot];
        let reset = state
            .last
            .counters
            .iter()
            .zip(&fresh.counters)
            .any(|(&last, &cur)| cur < last);
        let mut prev = std::mem::replace(&mut state.last, fresh.clone());
        if reset {
            for gauge in &mut prev.gauges {
                gauge.1 = 0;
            }
            state.base.merge(&prev);
        }
        let mut adjusted = fresh.clone();
        adjusted.merge(&state.base);
        adjusted
    }
}

/// The cluster router as a connection-loop target, shared by every
/// connection: each protocol interaction locks the mutex for exactly
/// one router operation. (A newtype over the mutex, not
/// `impl ServeTarget for Mutex<ClusterRouter>` — the orphan rule
/// forbids covering a local type with a foreign one.)
struct FrontTarget {
    router: Arc<Mutex<ClusterRouter>>,
    /// The front's shared admission controller: each serve republishes
    /// the router's current backend-saturation hint into it, so a shed
    /// at the front advertises a `retry_after_us` no shorter than what
    /// the saturated backends themselves asked for.
    admission: Arc<AdmissionController>,
    /// Per-slot counter re-basing so the fan-in stays monotone across
    /// backend respawns (and across scraping connections coming and
    /// going).
    rebase: Mutex<ScrapeRebase>,
}

impl FrontTarget {
    fn router(&self) -> std::sync::MutexGuard<'_, ClusterRouter> {
        self.router
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn rebase(&self) -> std::sync::MutexGuard<'_, ScrapeRebase> {
        self.rebase
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Asks one remote slot over a fresh short-timeout dial — the fan-in's
/// per-backend round trip, always made with the router unlocked so a
/// slow or unreachable backend cannot freeze serving behind the mutex.
/// `None` for local slots, backends the health machine says to skip,
/// and failed dials or requests.
fn scrape(source: &StatsSource) -> Option<MetricsSnapshot> {
    let StatsSource::Remote {
        addr,
        attempt: true,
    } = source
    else {
        return None;
    };
    let mut client = PolicyClient::connect_with_timeout(*addr, 1, STATS_DIAL_TIMEOUT).ok()?;
    client.metrics().ok()
}

impl ServeTarget for FrontTarget {
    fn shard_count(&self) -> usize {
        self.router().num_slots()
    }

    fn serve(&self, reqs: &[PolicyRequest], out: &mut Served) {
        let router = &mut *self.router();
        router.route_batch(reqs, out);
        // Backpressure propagation upstream: whatever the backends are
        // currently advertising becomes the floor of the front's own
        // retry hints (cleared automatically once the windows lapse).
        self.admission
            .set_external_hint_us(router.saturation_hint_us());
    }

    /// Scrape fan-in without blocking the data plane: the router
    /// lock is held only for network-free snapshots; the per-backend
    /// round-trips ([`scrape`]) happen unlocked. Each remote scrape
    /// passes through the per-slot re-base, so a respawned backend
    /// restarting at zero never drags a counter backwards. The
    /// aggregate is what the cluster can *see*: down or unreachable
    /// backends contribute nothing while absent. It adds the router's
    /// own share (its counters and its fallback solver's); the
    /// connection loop merges the front's admission counters on top.
    fn metrics(&self, shard: u16) -> Option<MetricsSnapshot> {
        let (sources, own) = {
            let router = self.router();
            let own = (shard == STATS_SHARD_AGGREGATE).then(|| router.metrics());
            (router.stats_sources(), own)
        };
        let fetch = |slot: usize, source: StatsSource| match source {
            StatsSource::Local(snap) => Some(snap),
            remote => Some(self.rebase().fold(slot, &scrape(&remote)?)),
        };
        let Some(own) = own else {
            // `None` (unknown slot or unreachable backend) becomes a
            // typed refusal in the connection loop.
            let slot = usize::from(shard);
            return fetch(slot, sources.into_iter().nth(slot)?);
        };
        let mut total = own;
        for (slot, source) in sources.into_iter().enumerate() {
            if let Some(snap) = fetch(slot, source) {
                total.merge(&snap);
            }
        }
        Some(total)
    }
}

/// Tuning knobs for a [`ClusterFront`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontConfig {
    /// Maximum concurrently served connections (the accept pool
    /// bound); further clients wait in the listen backlog until a
    /// slot frees.
    pub max_connections: usize,
    /// Largest request batch served as one routed unit; longer
    /// pipelines are split. Advertised in the `Welcome` handshake.
    pub max_batch: usize,
    /// Admission-queue bound shared across every front connection
    /// (the front's own shed ladder, in front of the router). Same
    /// semantics as `ServiceConfig::queue_capacity` on a single
    /// server.
    pub queue_capacity: usize,
    /// Floor on the front's `retry_after_us` hints; same semantics as
    /// `ServiceConfig::max_queue_delay`. Backend saturation hints can
    /// raise the advertised backoff past this, never below.
    pub max_queue_delay: std::time::Duration,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            max_connections: 64,
            max_batch: 1024,
            queue_capacity: 256,
            max_queue_delay: std::time::Duration::from_millis(50),
        }
    }
}

/// A bound, not-yet-serving cluster front-end.
#[derive(Debug)]
pub struct ClusterFront {
    listener: TcpListener,
    router: Arc<Mutex<ClusterRouter>>,
    cfg: FrontConfig,
}

impl ClusterFront {
    /// Binds the listener in front of a router. Use port 0 for an
    /// ephemeral port.
    pub fn bind(
        addr: impl ToSocketAddrs,
        router: ClusterRouter,
        cfg: FrontConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(ClusterFront {
            listener,
            router: Arc::new(Mutex::new(router)),
            cfg,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// The shared router (cluster stats, re-targeting).
    pub fn router(&self) -> &Arc<Mutex<ClusterRouter>> {
        &self.router
    }

    /// Starts the [`Acceptor`] and returns a handle that stops it on
    /// [`FrontHandle::shutdown`] or drop, draining live connections.
    /// One admission controller and one target serve every
    /// connection, so all of them share the bounded queue, exactly as
    /// on a single-process server.
    pub fn spawn(self) -> FrontHandle {
        let admission = Arc::new(AdmissionController::new(
            self.cfg.queue_capacity,
            self.cfg.max_queue_delay,
        ));
        let target = Arc::new(FrontTarget {
            router: Arc::clone(&self.router),
            admission: Arc::clone(&admission),
            rebase: Mutex::default(),
        });
        FrontHandle {
            router: self.router,
            acceptor: Acceptor::spawn(
                self.listener,
                target,
                self.cfg.max_connections,
                self.cfg.max_batch,
                admission,
            ),
        }
    }
}

/// Running front-end handle; shuts the acceptor down when dropped.
#[derive(Debug)]
pub struct FrontHandle {
    router: Arc<Mutex<ClusterRouter>>,
    acceptor: Acceptor,
}

impl FrontHandle {
    /// The served address.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// The shared router (cluster stats, re-targeting).
    pub fn router(&self) -> &Arc<Mutex<ClusterRouter>> {
        &self.router
    }

    /// The front's shared admission controller (queue depth, overload
    /// counters) — one per front, shared by every connection.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        self.acceptor.admission()
    }

    /// Stops accepting and drains live connections; see
    /// [`Acceptor::shutdown`].
    pub fn shutdown(self) {
        self.acceptor.shutdown();
    }
}
