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
//!   [`ClusterRouter`] (remote fan-out, local failover);
//! * `StatsRequest(shard = i)` answers with slot `i`'s serving
//!   counters (a remote slot is asked over the wire, via a fresh
//!   short-timeout dial made *outside* the router lock — the control
//!   plane never blocks the data plane);
//!   `shard = 0xFFFF` answers with the cluster-wide fan-in — backend
//!   aggregates + local slots + the fallback solver;
//! * `Ping` → `Pong` (liveness, untouched by routing);
//! * decode errors drop the connection without a reply, exactly like
//!   the single-process server.
//!
//! Protocol compatibility is by construction, not by convention: both
//! front-ends run on the *same* [`Acceptor`] — one accept gate, one
//! draining shutdown, and one admitted connection loop
//! (`serve_connection_admitted`) — differing only in the
//! [`ServeTarget`] behind it: a `ShardRouter` there, one shared
//! mutex-guarded [`ClusterRouter`] here. Connections are handled
//! thread-per-connection behind the bounded accept gate; batches
//! serialize through the router's mutex (the router owns the dialer
//! pool — remote fan-out inside a batch is still concurrent). A
//! shutdown drains: handlers finish everything their clients already
//! sent before closing, so a planned drain is never a client-visible
//! stream error.

use crate::router::{ClusterRouter, StatsSource};
use econcast_metrics::{MetricsSnapshot, GAUGE_LIVE_BACKENDS, GAUGE_SATURATION_OPEN};
use econcast_proto::service::{WireServiceStats, STATS_COUNTERS, STATS_SHARD_AGGREGATE};
use econcast_service::stats::{StatKind, STAT_KINDS};
use econcast_service::{
    Acceptor, AdmissionController, PolicyClient, PolicyRequest, PolicyResponse, ServeTarget,
    ServiceError, ServiceStats,
};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::{Arc, Mutex};

/// Timeout for the fresh per-request dials a stats or metrics fan-in
/// makes. Deliberately short: these are advisory, and they run with
/// the router unlocked but a client waiting.
const STATS_DIAL_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// Per-slot re-basing state for cluster fan-ins. A respawned (or
/// quarantined) backend restarts its counters at zero; summed naively
/// that reads as every rate going sharply negative right when the
/// cluster healed. The front instead remembers, per slot, the last
/// raw scrape and a `base` accumulated from dead incarnations: a
/// per-slot monotonicity break (any counter below its last observed
/// value) folds the previous incarnation's final totals into the
/// base, and every contribution is reported as `base + raw` — so the
/// front's aggregates stay monotone across respawns.
///
/// Only counters (and, for metrics, histograms — which reset with
/// their process) are re-based. Gauges are instantaneous readings: a
/// decrease is ordinary (an LRU evicted, a queue drained), never a
/// restart signal, and re-basing one would double-count live state.
#[derive(Debug, Default)]
struct ScrapeRebase {
    slots: Vec<SlotRebase>,
}

#[derive(Debug, Default, Clone)]
struct SlotRebase {
    /// Stats-plane counters: accumulated totals of dead incarnations
    /// (empty until the slot is first scraped), and the last raw
    /// fetch.
    stats_base: Vec<u64>,
    stats_last: Vec<u64>,
    /// Metrics-plane siblings. The base's gauges are always zero (a
    /// dead process holds no live state).
    metrics_base: MetricsSnapshot,
    metrics_last: MetricsSnapshot,
}

impl ScrapeRebase {
    fn slot(&mut self, slot: usize) -> &mut SlotRebase {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, SlotRebase::default());
        }
        &mut self.slots[slot]
    }

    /// Folds one slot's fresh stats fetch into its monotone view.
    fn stats(&mut self, slot: usize, fresh: &ServiceStats) -> ServiceStats {
        let state = self.slot(slot);
        if state.stats_base.is_empty() {
            state.stats_base = vec![0; STATS_COUNTERS];
            state.stats_last = vec![0; STATS_COUNTERS];
        }
        let raw = fresh.to_wire().to_array();
        let reset = raw
            .iter()
            .zip(&state.stats_last)
            .enumerate()
            .any(|(i, (&cur, &last))| STAT_KINDS[i] == StatKind::Counter && cur < last);
        let mut adjusted = raw;
        for i in 0..STATS_COUNTERS {
            if STAT_KINDS[i] == StatKind::Counter {
                if reset {
                    state.stats_base[i] += state.stats_last[i];
                }
                adjusted[i] += state.stats_base[i];
            }
            state.stats_last[i] = raw[i];
        }
        ServiceStats::from_wire(&WireServiceStats::from_array(adjusted))
    }

    /// Folds one slot's fresh metrics scrape into its monotone view.
    fn metrics(&mut self, slot: usize, fresh: &MetricsSnapshot) -> MetricsSnapshot {
        let state = self.slot(slot);
        let reset = state
            .metrics_last
            .counters
            .iter()
            .zip(&fresh.counters)
            .any(|(&last, &cur)| cur < last);
        if reset {
            let mut dead = state.metrics_last.clone();
            for gauge in &mut dead.gauges {
                gauge.1 = 0;
            }
            state.metrics_base.merge(&dead);
        }
        state.metrics_last = fresh.clone();
        let mut adjusted = fresh.clone();
        adjusted.merge(&state.metrics_base);
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
    /// Per-slot counter re-basing so fan-ins stay monotone across
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

/// Asks one remote slot over a fresh short-timeout dial — the fan-ins'
/// per-backend round trip, always made with the router unlocked so a
/// slow or unreachable backend cannot freeze serving behind the mutex.
/// `None` for local slots, backends the health machine says to skip,
/// and failed dials or requests.
fn scrape<R>(
    source: &StatsSource,
    ask: impl FnOnce(&mut PolicyClient) -> std::io::Result<R>,
) -> Option<R> {
    let StatsSource::Remote {
        addr,
        attempt: true,
    } = source
    else {
        return None;
    };
    ask(&mut PolicyClient::connect_with_timeout(*addr, 1, STATS_DIAL_TIMEOUT).ok()?).ok()
}

impl ServeTarget for FrontTarget {
    fn shard_count(&self) -> usize {
        self.router().num_slots()
    }

    fn serve(&self, reqs: &[PolicyRequest]) -> Vec<Result<PolicyResponse, ServiceError>> {
        let router = &mut *self.router();
        let out = router.serve_batch(reqs);
        // Backpressure propagation upstream: whatever the backends are
        // currently advertising becomes the floor of the front's own
        // retry hints (cleared automatically once the windows lapse).
        self.admission
            .set_external_hint_us(router.saturation_hint_us());
        out
    }

    /// Stats fan-in without blocking the data plane: the router lock
    /// is held only for a network-free snapshot; the per-backend
    /// round-trips ([`scrape`]) happen unlocked.
    fn stats(&self, shard: u16) -> Option<ServiceStats> {
        let (sources, fallback) = self.router().stats_sources();
        let fetch = |source: &StatsSource| match source {
            StatsSource::Local(stats) => Some(*stats),
            remote => scrape(remote, |c| c.stats(None)),
        };
        if shard == STATS_SHARD_AGGREGATE {
            // The fan-in is what the cluster can *see*: down or
            // unreachable backends contribute nothing while absent.
            // Each slot's fetch passes through the per-slot re-base,
            // so a respawned backend restarting at zero never drags
            // the aggregate's counters backwards.
            let mut total = fallback;
            let mut rebase = self.rebase();
            for (slot, source) in sources.iter().enumerate() {
                if let Some(stats) = fetch(source) {
                    total.merge(&rebase.stats(slot, &stats));
                }
            }
            drop(rebase);
            // The robustness counters are distribution-layer facts
            // only the router knows; overlay them onto the aggregate
            // (backends report them as zero).
            let cs = self.router().cluster_stats();
            total.auto_respawns = cs.auto_respawns;
            total.quarantines = cs.quarantines;
            total.injected_faults = cs.injected_faults;
            Some(total)
        } else {
            // `None` (unknown slot or unreachable backend) becomes a
            // typed refusal in the connection loop.
            fetch(sources.get(usize::from(shard))?)
        }
    }

    /// Cluster-wide metrics fan-in, same locking discipline as
    /// [`stats`](Self::stats): a network-free snapshot under the
    /// router lock, per-backend [`scrape`]s outside it. The front's
    /// own process-global hub already covers local slots, the fallback
    /// solver, and the front's serve path — remote backends are the
    /// only scrapes to fan in. Each remote scrape passes through the
    /// per-slot re-base so a respawned backend's counter reset never
    /// makes the aggregate dip; the router-owned cluster gauges (live
    /// slots, open saturation windows) are injected last. The
    /// connection loop adds the front's admission-queue gauge on top.
    fn metrics(&self) -> MetricsSnapshot {
        let (sources, live, windows, (lru_entries, lru_bytes)) = {
            let router = self.router();
            let (sources, _) = router.stats_sources();
            (
                sources,
                router.live_slots(),
                router.saturation_windows_open(),
                router.local_cache_residency(),
            )
        };
        let scrapes: Vec<(usize, MetricsSnapshot)> = sources
            .iter()
            .enumerate()
            .filter_map(|(slot, source)| Some((slot, scrape(source, PolicyClient::metrics)?)))
            .collect();
        let mut total = econcast_metrics::snapshot();
        let mut rebase = self.rebase();
        for (slot, snap) in &scrapes {
            total.merge(&rebase.metrics(*slot, snap));
        }
        drop(rebase);
        // Backends report these as zero; the router owns them. The
        // LRU gauges add the in-process residency (local slots + the
        // fallback solver) on top of what the backend scrapes carried.
        total.gauges[GAUGE_LIVE_BACKENDS].1 += live;
        total.gauges[GAUGE_SATURATION_OPEN].1 += windows;
        total.gauges[econcast_metrics::GAUGE_LRU_ENTRIES].1 += lru_entries;
        total.gauges[econcast_metrics::GAUGE_LRU_BYTES].1 += lru_bytes;
        total
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
