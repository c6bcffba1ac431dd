//! The one router: scatter, serve, gather — over in-process shards,
//! remote backends, or both.
//!
//! A [`ClusterRouter`] consistent-hashes requests over a
//! [`HashRing`] ([`VNODES`](crate::shard::VNODES) per slot) and serves each slot's
//! sub-batch where that slot lives: an in-process `PolicyService`
//! (`Local`), a [`RemoteShard`] dialing a backend `PolicyServer`
//! (`Remote`), or nowhere (`Retired`, removed by a live rebalance).
//! [`PolicyServer`](crate::PolicyServer) runs it over local shards,
//! the cluster crate's front over remote or mixed slots.
//!
//! ## Keying
//!
//! Each raw request is keyed by `route_hash_of` — one O(N) pass, no
//! sort, no allocation — which equals the `InstanceKey::route_hash`
//! every slot caches on, so promoting a shard to a backend moves no
//! keys. A ring with one owner skips keying. Only the slot that
//! serves a request canonicalizes it, once.
//!
//! ## Locking
//!
//! Every method takes `&self`. Each slot sits behind its own mutex;
//! the ring and the slot vector sit behind a read-mostly lock, taken
//! for writing only by [`add_backend`](ClusterRouter::add_backend) and
//! [`remove_backend`](ClusterRouter::remove_backend). A batch holds
//! the read lock only while it routes, so batches on disjoint slots
//! run in parallel and a key stays serialized through its one home
//! slot. A batch locks its remote slots in slot order for the
//! pipelined fan-out and releases each as soon as its sub-batch
//! completes, and it never waits for one slot while holding another:
//! a busy slot is waited for only once the jobs already submitted have
//! completed. It then locks its local slots one at a time, and the
//! fallback solver (its own mutex) last, holding nothing else. A
//! wedged backend therefore stalls only the batches with keys on it,
//! and the health sweep ([`ping_all`](ClusterRouter::ping_all)) and
//! the metrics fan-in lock one slot at a time and dial with no lock
//! held. Counting takes no lock at all: the router's counters sit in
//! a [`CounterTable`] indexed by the metrics registry, and each
//! slot's routed count in a relaxed atomic beside the slot.
//!
//! ## Fan-out and reassembly
//!
//! A batch scatters into per-slot sub-batches (request order
//! preserved within each), remote sub-batches fan out **concurrently**
//! (pipelined on one thread, [`crate::driver`]), and responses gather
//! back in request order. [`ClusterRouter::route_batch`] answers each
//! request natively (local slots, the fallback) or with its backend's
//! verified `Response` frame, kept as bytes for the connection loop to
//! forward; [`ClusterRouter::serve_batch`] parses those frames for
//! in-process callers.
//!
//! ## Failover
//!
//! Backend trouble is never the caller's problem:
//!
//! * a backend marked down by its health machine is skipped outright;
//! * a stream failure mid-batch voids that backend's whole sub-batch —
//!   and so does a reply that fails verification: a corrupt frame, or
//!   a well-formed `Response` whose node count differs from its
//!   request's;
//! * both sets of requests are re-served by the router's **local
//!   fallback solver** in request order, counted under
//!   `CTR_FAILOVER_RESERVES` (read as [`ClusterStats::local_fallbacks`]).
//!   The fallback also answers every invalid request with its typed
//!   error.
//!
//! Every solve is a deterministic, self-contained computation and the
//! fallback runs the same `ServiceConfig` as the backends, so a
//! failed-over response is **bit-identical** to the one the backend
//! would have produced — only the tier label may differ (a replay can
//! read `Exact`), matching the socket-test convention.

use crate::client::PolicyClient;
use crate::driver::{self, Job};
use crate::remote::{RemoteConfig, RemoteShard, RemoteShardStats};
use crate::request::{PolicyRequest, PolicyResponse, ServiceError};
use crate::server::{Answer, Served};
use crate::service::{PolicyService, ServiceConfig};
use crate::shard::{HashRing, RouterConfig};
use econcast_metrics::{
    CounterTable, MetricsSnapshot, OpsKind, CTR_AUTO_RESPAWNS, CTR_BACKEND_FAILURES,
    CTR_FAILOVER_RESERVES, CTR_INJECTED_FAULTS, CTR_INVALID_REQUESTS, CTR_LOCAL_SERVED,
    CTR_OVERLOADED_RECEIVED, CTR_QUARANTINES, CTR_REMOTE_SERVED, CTR_SATURATED_ROUTES,
    CTR_SATURATION_OPENS, GAUGE_LIVE_BACKENDS, GAUGE_SATURATION_OPEN,
};
use econcast_proto::service::{ServiceErrorCode, STATS_SHARD_AGGREGATE};
use econcast_statespace::{route_hash_of, InstanceKey};
use std::net::SocketAddr;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, TryLockError};
use std::time::{Duration, Instant};

/// What one ring slot is backed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotSpec {
    /// A backend `PolicyServer` process at this address, reached
    /// through a [`RemoteShard`] dialer.
    Remote(SocketAddr),
    /// An in-process `PolicyService` (mixed local/remote topologies,
    /// e.g. one warm local slot beside remote capacity).
    Local,
}

/// Tuning knobs for a [`ClusterRouter`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClusterConfig {
    /// Service configuration for local slots **and** the fallback
    /// solver. For the bit-identical failover guarantee this must
    /// match the backends' per-shard configuration.
    pub service: ServiceConfig,
    /// Dialer configuration applied to every remote slot.
    pub remote: RemoteConfig,
}

/// Timeout for the fresh per-request dials a metrics fan-in makes.
/// Deliberately short: these are advisory, and a client is waiting.
const STATS_DIAL_TIMEOUT: Duration = Duration::from_secs(2);

#[derive(Debug)]
enum Slot {
    /// Boxed (like `Local`): the dialer's pooled-connection and
    /// health-machine state is hundreds of bytes, and slot cells
    /// should stay small — `Retired` tombstones cost one word.
    Remote(Box<RemoteSlot>),
    /// Boxed: a `PolicyService` (caches + scratch pools) dwarfs the
    /// dialer.
    Local(Box<PolicyService>),
    /// A backend removed by a live rebalance. The tombstone keeps
    /// slot indices stable (stats, retargeting, healer bookkeeping
    /// all key on them); it owns no vnodes, reports unhealthy, and
    /// never serves.
    Retired,
}

/// A remote slot: its dialer, plus the re-base that keeps its scrapes
/// monotone across backend restarts.
#[derive(Debug)]
struct RemoteSlot {
    shard: RemoteShard,
    rebase: ScrapeRebase,
}

/// Scrape re-basing for one remote slot. A respawned backend restarts
/// its counters at zero; summed naively that reads as every rate going
/// sharply negative right when the cluster healed. The slot instead
/// remembers the last raw scrape and a `base` accumulated from dead
/// incarnations: a monotonicity break (any counter below its last
/// observed value) folds the previous incarnation's final totals into
/// the base, and every scrape is reported as `base + raw` — so
/// aggregates stay monotone across respawns.
///
/// Only counters and histograms (which reset with their process) are
/// re-based. Gauges are instantaneous readings: a decrease is
/// ordinary (an LRU evicted, a queue drained), never a restart
/// signal, and re-basing one would double-count live state — so the
/// base's gauges are always zero (a dead process holds no live
/// state).
#[derive(Debug, Default)]
struct ScrapeRebase {
    /// Accumulated totals of dead incarnations.
    base: MetricsSnapshot,
    /// The last raw scrape.
    last: MetricsSnapshot,
}

impl ScrapeRebase {
    /// Folds a fresh scrape into the slot's monotone view.
    fn fold(&mut self, fresh: &MetricsSnapshot) -> MetricsSnapshot {
        let reset = self
            .last
            .counters
            .iter()
            .zip(&fresh.counters)
            .any(|(&last, &cur)| cur < last);
        let mut prev = std::mem::replace(&mut self.last, fresh.clone());
        if reset {
            for gauge in &mut prev.gauges {
                gauge.1 = 0;
            }
            self.base.merge(&prev);
        }
        let mut adjusted = fresh.clone();
        adjusted.merge(&self.base);
        adjusted
    }
}

/// A locked slot known to be remote, as the driver's dialer handle.
#[derive(Debug)]
struct RemoteGuard<'a>(MutexGuard<'a, Slot>);

impl Deref for RemoteGuard<'_> {
    type Target = RemoteShard;

    fn deref(&self) -> &RemoteShard {
        match &*self.0 {
            Slot::Remote(remote) => &remote.shard,
            _ => unreachable!("guards are taken on remote slots only"),
        }
    }
}

impl DerefMut for RemoteGuard<'_> {
    fn deref_mut(&mut self) -> &mut RemoteShard {
        match &mut *self.0 {
            Slot::Remote(remote) => &mut remote.shard,
            _ => unreachable!("guards are taken on remote slots only"),
        }
    }
}

/// Distribution-layer counters (the serving counters live in the
/// slots): a view of the router's counter table and its slots, built
/// by [`ClusterRouter::cluster_stats`]. Every counter here is also a
/// registry slot of the router's [`metrics`](ClusterRouter::metrics).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Requests routed per slot (including ones later failed over).
    pub routed: Vec<u64>,
    /// Requests answered by a remote backend.
    pub remote_served: u64,
    /// Requests answered by an in-process local slot.
    pub local_served: u64,
    /// Requests re-served by the local fallback solver because their
    /// backend was down, failed mid-batch, or rejected them (scraped
    /// as `CTR_FAILOVER_RESERVES`).
    pub local_fallbacks: u64,
    /// Backend stream failures observed (each voids one sub-batch).
    pub backend_failures: u64,
    /// Requests that failed validation (answered by the fallback with
    /// typed errors, never routed).
    pub invalid_requests: u64,
    /// Dead backends replaced by the supervisor policy loop without
    /// an operator in the loop.
    pub auto_respawns: u64,
    /// Crash-looping backends the policy loop gave up on and pinned
    /// onto a local in-process slot.
    pub quarantines: u64,
    /// Faults fired by an attached fault-injection harness (zero in
    /// production deployments).
    pub injected_faults: u64,
    /// Per-request `Overloaded` rejections received from backends —
    /// each marked its slot saturated and was re-served by the local
    /// fallback (the caller never saw the rejection). Scraped as
    /// `CTR_OVERLOADED_RECEIVED`.
    pub overload_rejects: u64,
    /// Backend-saturation windows opened (an `Overloaded` landing in
    /// an already-open window extends it and opens nothing).
    pub saturation_opens: u64,
    /// Requests routed *around* a saturated backend: its slot was
    /// inside a `retry_after_us` window from an earlier `Overloaded`,
    /// so the router went straight to the fallback without burning a
    /// dial — backpressure acted before the healer would notice
    /// anything (the backend still answers pings).
    pub saturated_routes: u64,
    /// Current per-slot health (local slots are always healthy,
    /// retired slots never are).
    pub healthy: Vec<bool>,
    /// Current per-slot saturation (inside a backend-advertised
    /// `retry_after_us` backoff window). Orthogonal to `healthy`: a
    /// saturated backend is alive, just shedding.
    pub saturated: Vec<bool>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The ring and the slot vector: what a batch reads while it routes,
/// and what only a live rebalance writes.
#[derive(Debug)]
struct Topology {
    /// Consistent-hash ring; retired slots own no points.
    ring: HashRing,
    /// The ring's owner when it has exactly one: keying is skipped.
    sole: Option<u16>,
    slots: Vec<Arc<Mutex<Slot>>>,
    kinds: Vec<Kind>,
    /// Requests routed to each slot, bumped under the read lock and
    /// grown with `slots` under the write lock.
    routed: Vec<AtomicU64>,
}

/// What a slot was built as, readable without its lock. Only a remote
/// slot changes kind behind its lock (quarantined onto a local
/// service), so `Remote` here means "lock it to see", while `Local`
/// and `Retired` are final.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Local,
    Remote,
    Retired,
}

/// The ring over every non-retired slot, and its owner when it has
/// exactly one. With no retired slots this is the ring of
/// `kinds.len()` shards, so equal slot counts assign every canonical
/// key identically.
fn ring_over(kinds: &[Kind]) -> (HashRing, Option<u16>) {
    let live: Vec<u16> = (0..kinds.len() as u16)
        .filter(|&s| kinds[usize::from(s)] != Kind::Retired)
        .collect();
    let sole = (live.len() == 1).then(|| live[0]);
    (HashRing::new(live), sole)
}

/// Routes requests across local and remote slots.
#[derive(Debug)]
pub struct ClusterRouter {
    topo: RwLock<Topology>,
    cfg: ClusterConfig,
    /// The failover solver (and the answerer of invalid requests).
    fallback: Mutex<PolicyService>,
    /// The distribution counters, each under its registry slot.
    counters: CounterTable,
    /// Per-slot saturation window from the last backend `Overloaded`:
    /// `(backoff end, the backend's retry_after_us hint)`.
    saturation: Mutex<Vec<Option<(Instant, u32)>>>,
    /// The injected-fault count's one holder, shared with fault
    /// injectors (which fire from proxy threads); the table's
    /// `CTR_INJECTED_FAULTS` slot stays zero.
    injected_faults: Arc<AtomicU64>,
    /// Whether the slots are a cluster's backends (built from
    /// [`SlotSpec`]s), whose liveness and saturation the scrape
    /// reports as gauges. A server's own shards are not backends: a
    /// front summing its backends' scrapes must count each backend
    /// once, from its own router.
    cluster: bool,
}

impl ClusterRouter {
    /// Builds the ring, the dialers, and the local slots.
    ///
    /// # Panics
    ///
    /// Panics when `slots` is empty or exceeds `u16::MAX`.
    pub fn new(slots: &[SlotSpec], cfg: ClusterConfig) -> Self {
        Self::build(slots, cfg, true)
    }

    /// The router of one server: `cfg.shards` local slots.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0` or `shards > u16::MAX as usize`.
    pub(crate) fn over_shards(cfg: RouterConfig) -> Self {
        let slots = vec![SlotSpec::Local; cfg.shards];
        let cfg = ClusterConfig {
            service: cfg.service,
            remote: RemoteConfig::default(),
        };
        Self::build(&slots, cfg, false)
    }

    fn build(specs: &[SlotSpec], cfg: ClusterConfig, cluster: bool) -> Self {
        assert!(!specs.is_empty(), "need at least one slot");
        assert!(specs.len() <= u16::MAX as usize, "slot ids are u16");
        let slots = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| Arc::new(Mutex::new(Self::slot(*spec, &cfg, i as u64))))
            .collect();
        let kinds: Vec<Kind> = specs
            .iter()
            .map(|spec| match spec {
                SlotSpec::Remote(_) => Kind::Remote,
                SlotSpec::Local => Kind::Local,
            })
            .collect();
        let (ring, sole) = ring_over(&kinds);
        let topo = Topology {
            ring,
            sole,
            slots,
            kinds,
            routed: specs.iter().map(|_| AtomicU64::new(0)).collect(),
        };
        ClusterRouter {
            topo: RwLock::new(topo),
            fallback: Mutex::new(PolicyService::new(cfg.service)),
            saturation: Mutex::new(vec![None; specs.len()]),
            cfg,
            counters: CounterTable::default(),
            injected_faults: Arc::new(AtomicU64::new(0)),
            cluster,
        }
    }

    fn slot(spec: SlotSpec, cfg: &ClusterConfig, index: u64) -> Slot {
        match spec {
            SlotSpec::Remote(addr) => Slot::Remote(Box::new(RemoteSlot {
                shard: RemoteShard::with_index(addr, cfg.remote, index),
                rebase: ScrapeRebase::default(),
            })),
            SlotSpec::Local => Slot::Local(Box::new(PolicyService::new(cfg.service))),
        }
    }

    fn topo(&self) -> RwLockReadGuard<'_, Topology> {
        self.topo
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Every slot's cell, taken under the read lock and used after it
    /// is released: nothing waits on a slot lock while holding the
    /// topology.
    fn cells(&self) -> Vec<Arc<Mutex<Slot>>> {
        self.topo().slots.clone()
    }

    fn cell(&self, slot: usize) -> Option<Arc<Mutex<Slot>>> {
        self.topo().slots.get(slot).cloned()
    }

    /// Runs `f` on one slot under its lock (`None` for an unknown slot).
    fn with_slot<R>(&self, slot: usize, f: impl FnOnce(&mut Slot) -> R) -> Option<R> {
        let cell = self.cell(slot)?;
        let mut guard = lock(&cell);
        Some(f(&mut guard))
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.topo().slots.len()
    }

    /// The home slot of a canonical instance key: the first ring
    /// point at or after the key's route hash (wrapping).
    pub fn slot_of_key(&self, key: &InstanceKey) -> u16 {
        self.topo().ring.owner(key.route_hash())
    }

    /// The home slot of a request, or `None` when the request fails
    /// validation (the fallback answers it). Keys the raw request with
    /// [`route_hash_of`] — no canonicalization.
    pub fn slot_of_request(&self, req: &PolicyRequest) -> Option<u16> {
        req.validate().ok()?;
        Some(self.topo().ring.owner(route_hash(req)))
    }

    /// Whether a slot is a remote backend (the only kind a supervisor
    /// policy loop manages).
    pub fn slot_is_remote(&self, slot: usize) -> bool {
        self.with_slot(slot, |s| matches!(s, Slot::Remote(_))) == Some(true)
    }

    /// A remote slot's dialer counters (`None` for local or retired
    /// slots).
    pub fn remote_stats(&self, slot: usize) -> Option<RemoteShardStats> {
        self.with_slot(slot, |s| match s {
            Slot::Remote(remote) => Some(remote.shard.shard_stats()),
            _ => None,
        })?
    }

    /// The distribution-layer view: the router's counters read out of
    /// its own share of a scrape, plus per-slot routed counts, health
    /// and saturation.
    pub fn cluster_stats(&self) -> ClusterStats {
        let mut snap = MetricsSnapshot::zeroed();
        self.fill_counters(&mut snap);
        let routed = {
            let topo = self.topo();
            topo.routed
                .iter()
                .map(|n| n.load(Ordering::Relaxed))
                .collect()
        };
        let (healthy, saturated) = self.slot_flags();
        ClusterStats {
            routed,
            remote_served: snap.counter(CTR_REMOTE_SERVED),
            local_served: snap.counter(CTR_LOCAL_SERVED),
            local_fallbacks: snap.counter(CTR_FAILOVER_RESERVES),
            backend_failures: snap.counter(CTR_BACKEND_FAILURES),
            invalid_requests: snap.counter(CTR_INVALID_REQUESTS),
            auto_respawns: snap.counter(CTR_AUTO_RESPAWNS),
            quarantines: snap.counter(CTR_QUARANTINES),
            injected_faults: snap.counter(CTR_INJECTED_FAULTS),
            overload_rejects: snap.counter(CTR_OVERLOADED_RECEIVED),
            saturation_opens: snap.counter(CTR_SATURATION_OPENS),
            saturated_routes: snap.counter(CTR_SATURATED_ROUTES),
            healthy,
            saturated,
        }
    }

    /// Per-slot health (one slot lock at a time) and saturation.
    fn slot_flags(&self) -> (Vec<bool>, Vec<bool>) {
        let cells = self.cells();
        let healthy = cells.iter().map(|cell| healthy(&lock(cell))).collect();
        let saturated = (0..cells.len()).map(|s| self.slot_saturated(s)).collect();
        (healthy, saturated)
    }

    /// Adds the router's counters into `snap`: its table, and the
    /// injected-fault count its fault injectors hold.
    fn fill_counters(&self, snap: &mut MetricsSnapshot) {
        self.counters.fill(snap);
        snap.counters[CTR_INJECTED_FAULTS] += self.injected_faults.load(Ordering::Relaxed);
    }

    /// Whether a slot is inside a backend-advertised saturation
    /// window: its backend shed a request less than `retry_after_us`
    /// ago, so routing to it now would only earn another rejection.
    pub fn slot_saturated(&self, slot: usize) -> bool {
        matches!(
            lock(&self.saturation).get(slot),
            Some(Some((until, _))) if Instant::now() < *until
        )
    }

    /// The largest `retry_after_us` hint among currently saturated
    /// slots — what a front folds into its own admission retry
    /// estimates, so upstream callers back off as far as the
    /// most-loaded backend asked for. Zero when nothing is saturated.
    pub fn saturation_hint_us(&self) -> u32 {
        let now = Instant::now();
        lock(&self.saturation)
            .iter()
            .flatten()
            .filter(|(until, _)| now < *until)
            .map(|&(_, hint)| hint)
            .max()
            .unwrap_or(0)
    }

    /// Records a backend `Overloaded` rejection: the slot enters a
    /// saturation window for the backend's advertised
    /// `retry_after_us`, during which the router goes straight to the
    /// local fallback instead of dialing.
    fn note_backend_overload(&self, slot: usize, retry_after_us: u32) {
        self.counters.add(CTR_OVERLOADED_RECEIVED, 1);
        econcast_metrics::ops_event(
            OpsKind::OverloadedReceived,
            slot as u64,
            u64::from(retry_after_us),
        );
        let now = Instant::now();
        let mut saturation = lock(&self.saturation);
        // A window *opening* is the rare, recorder-worthy transition;
        // an `Overloaded` landing inside an already-open window only
        // extends it.
        if !matches!(saturation[slot], Some((until, _)) if now < until) {
            self.counters.add(CTR_SATURATION_OPENS, 1);
            econcast_metrics::ops_event(
                OpsKind::SaturationOpen,
                slot as u64,
                u64::from(retry_after_us),
            );
        }
        saturation[slot] = Some((
            now + Duration::from_micros(u64::from(retry_after_us)),
            retry_after_us,
        ));
        econcast_trace::trace_instant!("cluster", "backend_overloaded", "slot" => slot as u64);
    }

    /// Clears lapsed saturation windows, recording each close in the
    /// flight recorder, and returns which slots are saturated now.
    /// Called at the top of every batch; windows that lapse between
    /// batches close on the next one (the recorder is an ops log, not
    /// a real-time signal, and `slot_saturated` already treats a
    /// lapsed window as closed).
    fn sweep_saturation(&self) -> Vec<bool> {
        let now = Instant::now();
        let mut saturation = lock(&self.saturation);
        for (slot, window) in saturation.iter_mut().enumerate() {
            if matches!(window, Some((until, _)) if now >= *until) {
                *window = None;
                econcast_metrics::ops_event(OpsKind::SaturationClose, slot as u64, 0);
            }
        }
        saturation.iter().map(Option::is_some).collect()
    }

    /// The router's own share of an aggregate scrape: the fallback
    /// solver's counters, LRU gauges and latency histograms, the
    /// router's counter table (the distribution counters only it
    /// counts), and — on a cluster — the cluster gauges: slots able to
    /// serve (healthy remotes plus local slots) and open saturation
    /// windows. The slots themselves are scraped separately
    /// ([`scrape`](Self::scrape)), so a per-slot scrape answers from
    /// its slot alone.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = lock(&self.fallback).metrics();
        self.fill_counters(&mut snap);
        if self.cluster {
            let count = |flags: Vec<bool>| flags.into_iter().filter(|&f| f).count() as u64;
            let (healthy, saturated) = self.slot_flags();
            snap.gauges[GAUGE_LIVE_BACKENDS].1 = count(healthy);
            snap.gauges[GAUGE_SATURATION_OPEN].1 = count(saturated);
        }
        snap
    }

    /// A point-in-time scrape of one slot, or of the whole router for
    /// [`STATS_SHARD_AGGREGATE`]: the router's own share
    /// ([`metrics`](Self::metrics)) plus every slot's scrape. A local
    /// slot is read directly; a remote one is asked over a fresh
    /// short-timeout dial made with **no lock held**, so a slow or
    /// unreachable backend stalls one scrape, never serving, and its
    /// scrape passes through the slot's re-base, so a respawned
    /// backend restarting at zero never drags a counter backwards.
    /// The aggregate is what the router can *see*: down or unreachable
    /// backends contribute nothing while absent. `None` = an unknown
    /// slot or an unreachable backend.
    pub fn scrape(&self, shard: u16) -> Option<MetricsSnapshot> {
        if shard != STATS_SHARD_AGGREGATE {
            return scrape_slot(&*self.cell(usize::from(shard))?);
        }
        let mut total = self.metrics();
        for cell in self.cells() {
            if let Some(snap) = scrape_slot(&cell) {
                total.merge(&snap);
            }
        }
        Some(total)
    }

    /// Pings every remote slot, returning the probe outcome per slot
    /// — the healer's health sweep. Local slots are trivially healthy,
    /// retired slots trivially not. A slot with a live pooled
    /// connection is pinged on it; one without (down, or a wedged
    /// backend's) is probed on a fresh connection with **no lock
    /// held**, as a scrape dials, so that probe holds up no batch
    /// whose keys would fail over at once.
    pub fn ping_all(&self) -> Vec<bool> {
        self.cells().iter().map(|cell| ping_slot(cell)).collect()
    }

    /// Re-targets a remote slot at a replacement backend (respawned
    /// process, fresh port). Returns `false` for local or retired
    /// slots.
    pub fn retarget_slot(&self, slot: usize, addr: SocketAddr) -> bool {
        let retarget = |s: &mut Slot| match s {
            Slot::Remote(remote) => {
                remote.shard.retarget(addr);
                true
            }
            _ => false,
        };
        self.with_slot(slot, retarget) == Some(true)
    }

    /// Records that the policy loop replaced a dead backend.
    pub fn note_auto_respawn(&self) {
        self.counters.add(CTR_AUTO_RESPAWNS, 1);
        econcast_metrics::ops_event(OpsKind::Respawn, 0, 0);
    }

    /// The shared injected-fault counter. A fault-injection harness
    /// clones this handle and increments it every time a scripted
    /// fault actually fires, so chaos runs are auditable through the
    /// ordinary metrics scrape.
    pub fn injected_fault_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.injected_faults)
    }

    /// Replaces a crash-looping remote slot with a fresh in-process
    /// local slot — the policy loop's quarantine action. The ring is
    /// untouched (the slot keeps its vnodes; its keys are simply
    /// served locally from now on). Returns `false` for slots that
    /// are not remote.
    pub fn quarantine_slot(&self, slot: usize) -> bool {
        let quarantine = |s: &mut Slot| {
            let remote = matches!(s, Slot::Remote(_));
            if remote {
                *s = Slot::Local(Box::new(PolicyService::new(self.cfg.service)));
            }
            remote
        };
        if self.with_slot(slot, quarantine) != Some(true) {
            return false;
        }
        self.counters.add(CTR_QUARANTINES, 1);
        econcast_metrics::ops_event(OpsKind::Quarantine, slot as u64, 0);
        econcast_trace::trace_instant!("cluster", "quarantine", "slot" => slot as u64);
        true
    }

    /// Appends a remote slot for a new backend and rebalances the
    /// ring live: the new slot takes its vnodes immediately, moving
    /// ~1/(n+1) of the key space onto the new backend. Returns the
    /// new slot id. The inherited keys are cold on the new backend:
    /// their first requests solve there, bit-identical to the answers
    /// of the old owner.
    ///
    /// # Panics
    ///
    /// Panics when the slot count would exceed `u16::MAX`.
    pub fn add_backend(&self, addr: SocketAddr) -> u16 {
        let mut topo = self
            .topo
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(topo.slots.len() < u16::MAX as usize, "slot ids are u16");
        let slot = topo.slots.len() as u16;
        let spec = SlotSpec::Remote(addr);
        let cell = Self::slot(spec, &self.cfg, u64::from(slot));
        topo.slots.push(Arc::new(Mutex::new(cell)));
        topo.kinds.push(Kind::Remote);
        topo.routed.push(AtomicU64::new(0));
        lock(&self.saturation).push(None);
        (topo.ring, topo.sole) = ring_over(&topo.kinds);
        slot
    }

    /// Retires a remote slot and rebalances the ring live: the slot's
    /// vnodes vanish and its key ranges fall to the ring successors.
    /// Returns `false` (and changes nothing) when the slot is not
    /// remote or is the last slot on the ring. A batch still in flight
    /// on the slot finishes on the dialer it holds.
    pub fn remove_backend(&self, slot: usize) -> bool {
        // Checked before the write lock: a batch stuck on this slot
        // holds its lock, and routing must not stall behind it.
        if !self.slot_is_remote(slot) {
            return false;
        }
        let mut topo = self
            .topo
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if topo.kinds.iter().filter(|&&k| k != Kind::Retired).count() <= 1 {
            return false;
        }
        topo.slots[slot] = Arc::new(Mutex::new(Slot::Retired));
        topo.kinds[slot] = Kind::Retired;
        (topo.ring, topo.sole) = ring_over(&topo.kinds);
        true
    }

    /// Scatters a batch into per-slot request indices (request order
    /// kept within each slot), keying every valid request with
    /// [`route_hash_of`] over its raw fields — or not at all when the
    /// ring has one owner. Invalid requests are counted and left out:
    /// the fallback answers them with their typed errors and they
    /// never touch a slot.
    fn route_in(&self, topo: &Topology, reqs: &[PolicyRequest]) -> Vec<Vec<usize>> {
        let mut sub_idx: Vec<Vec<usize>> = vec![Vec::new(); topo.slots.len()];
        let mut invalid = 0;
        for (i, req) in reqs.iter().enumerate() {
            if req.validate().is_err() {
                invalid += 1;
                continue;
            }
            let s = match topo.sole {
                Some(s) => s,
                None => topo.ring.owner(route_hash(req)),
            };
            sub_idx[usize::from(s)].push(i);
        }
        self.counters.add(CTR_INVALID_REQUESTS, invalid);
        for (count, idxs) in topo.routed.iter().zip(&sub_idx) {
            count.fetch_add(idxs.len() as u64, Ordering::Relaxed);
        }
        sub_idx
    }

    /// Serves a batch: scatter to home slots, concurrent remote
    /// fan-out, deterministic local fallback for anything a backend
    /// could not answer, gather in request order. Backend failures are
    /// **never** surfaced as caller errors — the fallback solver
    /// produces the identical bits a healthy backend would have.
    ///
    /// A thin adapter over [`route_batch`](Self::route_batch) that
    /// parses the forwarded frames.
    pub fn serve_batch(&self, reqs: &[PolicyRequest]) -> Vec<Result<PolicyResponse, ServiceError>> {
        let mut served = Served::default();
        self.route_batch(reqs, &mut served);
        served.into_results(reqs)
    }

    /// The routing core: serves a batch into `out`, answering each
    /// request either natively (local slots, the fallback solver) or
    /// with its backend's verified `Response` frame, left as bytes for
    /// the caller to forward. The reply buffers `out` holds from the
    /// previous batch go back to the backend connections for reuse.
    ///
    /// Verification happens as frames arrive, in the dialer's client:
    /// a reply that fails it — corrupt, or a well-formed `Response`
    /// whose node count differs from its request's — fails the stream,
    /// which voids that backend's whole sub-batch.
    pub fn route_batch(&self, reqs: &[PolicyRequest], out: &mut Served) {
        let _serve = econcast_trace::trace_span!(
            "cluster",
            "cluster_serve",
            "requests" => reqs.len() as u64
        );
        let saturated = self.sweep_saturation();
        let route_t0 = econcast_trace::armed_now();
        let (sub_idx, cells) = {
            let topo = self.topo();
            let sub_idx = self.route_in(&topo, reqs);
            let cells: Vec<Option<(Arc<Mutex<Slot>>, Kind)>> = (0..sub_idx.len())
                .map(|s| {
                    (!sub_idx[s].is_empty()).then(|| (Arc::clone(&topo.slots[s]), topo.kinds[s]))
                })
                .collect();
            (sub_idx, cells)
        };
        econcast_trace::complete_from(
            "service",
            "route",
            route_t0,
            &[("requests", reqs.len() as u64)],
        );
        let mut spare = std::mem::take(&mut out.frames);
        out.answers.clear();
        let mut answers: Vec<Option<Answer>> = (0..reqs.len()).map(|_| None).collect();

        // Remote fan-out, pipelined: lock the remote slots in slot
        // order, submit every live backend's sub-batch back to back,
        // then drive all the in-flight tickets on this thread — the
        // readiness driver absorbs whichever backend answers first and
        // unlocks its slot. A busy slot is waited for only once every
        // job submitted so far has completed: a batch never waits for
        // one slot while holding another. Down backends (health
        // machine says skip) and saturated backends (inside a
        // `retry_after_us` backoff window from an earlier `Overloaded`)
        // go straight to fallback — the latter without burning a dial,
        // so backpressure routes around a loaded backend before its
        // health machine would notice anything.
        let (mut jobs, mut done, mut locals) = (Vec::new(), Vec::new(), Vec::new());
        for (s, cell) in cells.iter().enumerate() {
            let Some((cell, kind)) = cell else { continue };
            if *kind != Kind::Remote {
                locals.push(s);
                continue;
            }
            let mut guard = match cell.try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    done.extend(driver::drive(std::mem::take(&mut jobs)));
                    lock(cell)
                }
            };
            let Slot::Remote(remote) = &mut *guard else {
                // Quarantined since it was built: a local slot now.
                locals.push(s);
                continue;
            };
            let rs = &mut remote.shard;
            if !rs.should_attempt() {
                continue;
            }
            if saturated.get(s).copied().unwrap_or(false) {
                self.counters
                    .add(CTR_SATURATED_ROUTES, sub_idx[s].len() as u64);
                continue;
            }
            if let Some(frames) = spare.pop() {
                rs.recycle(frames);
            }
            // Encoded straight from the caller's requests: the
            // sub-batch is a view, not a copy.
            match rs.begin_batch(sub_idx[s].iter().map(|&i| &reqs[i])) {
                Ok(ticket) => jobs.push(Job {
                    slot: s,
                    shard: RemoteGuard(guard),
                    ticket,
                }),
                // A submit-side failure (dial, write) voids the
                // sub-batch exactly like a mid-stream one.
                Err(_) => self.note_backend_failure(),
            }
        }
        done.extend(driver::drive(jobs));
        for (s, result) in done {
            let Ok(frames) = result else {
                // Stream failure: the whole sub-batch falls back. (Any
                // replies verified before the failure are discarded —
                // recomputing locally yields identical bits, and a
                // partial trust boundary is not worth the bookkeeping.)
                self.note_backend_failure();
                continue;
            };
            let batch = out.frames.len();
            for (k, &i) in sub_idx[s].iter().enumerate() {
                // A per-request backend rejection (the `Err` arm) is
                // left unresolved here and re-judged by the fallback,
                // which runs the same config, so the caller gets the
                // identical typed error (or response) a local
                // deployment would produce.
                match frames.get(k) {
                    Ok(_) => answers[i] = Some(Answer::Forward { batch, k }),
                    // The backend shed this request: open a saturation
                    // window for its advertised backoff and leave the
                    // request to the fallback — the caller never sees
                    // the rejection.
                    Err(e) if e.code == ServiceErrorCode::Overloaded => {
                        self.note_backend_overload(s, e.retry_after_us);
                    }
                    Err(_) => {}
                }
            }
            out.frames.push(frames);
        }
        let forwarded = answers.iter().flatten().count() as u64;
        self.counters.add(CTR_REMOTE_SERVED, forwarded);

        // Local slots, one at a time in slot order — deterministic. A
        // local slot stays local (only remote slots change kind), so
        // the cell locked here is the one routed to.
        for s in locals {
            let Some((cell, _)) = &cells[s] else { continue };
            if let Slot::Local(svc) = &mut *lock(cell) {
                self.counters.add(CTR_LOCAL_SERVED, sub_idx[s].len() as u64);
                let results = svc.serve_batch(sub_idx[s].iter().map(|&i| &reqs[i]));
                for (&i, r) in sub_idx[s].iter().zip(results) {
                    answers[i] = Some(Answer::Native(r));
                }
            }
        }

        // Fallback: everything still unresolved (invalid requests,
        // down/failed/retired backends' sub-batches, per-request
        // rejections), as one local batch in request order.
        let pending: Vec<usize> = (0..reqs.len()).filter(|&i| answers[i].is_none()).collect();
        if !pending.is_empty() {
            let _failover = econcast_trace::trace_span!(
                "cluster",
                "failover_reserve",
                "requests" => pending.len() as u64
            );
            let results = lock(&self.fallback).serve_batch(pending.iter().map(|&i| &reqs[i]));
            let mut reserves = 0u64;
            for (&i, r) in pending.iter().zip(results) {
                // Only *routed* requests count as failovers; invalid
                // ones were always the fallback's to answer.
                if reqs[i].validate().is_ok() {
                    reserves += 1;
                }
                answers[i] = Some(Answer::Native(r));
            }
            if reserves > 0 {
                self.counters.add(CTR_FAILOVER_RESERVES, reserves);
                econcast_metrics::ops_event(OpsKind::FailoverReserve, 0, reserves);
            }
        }

        out.answers.extend(
            answers
                .into_iter()
                .map(|a| a.expect("every request resolved")),
        );
    }

    fn note_backend_failure(&self) {
        self.counters.add(CTR_BACKEND_FAILURES, 1);
        econcast_trace::trace_instant!("cluster", "backend_failure");
    }
}

/// A request's order-independent route hash.
fn route_hash(req: &PolicyRequest) -> u64 {
    route_hash_of(
        &req.budgets_w,
        req.listen_w,
        req.transmit_w,
        req.sigma,
        req.objective,
        req.tolerance,
    )
}

/// Whether a slot can serve (local slots always, retired slots never).
fn healthy(slot: &Slot) -> bool {
    match slot {
        Slot::Remote(remote) => remote.shard.healthy(),
        Slot::Local(_) => true,
        Slot::Retired => false,
    }
}

/// One slot's health probe. A remote slot with a live pooled
/// connection pings on it under the lock, ordered with the slot's
/// batches. One without (down, or never dialed — a wedged backend's
/// case) has its address read under the lock, a fresh connection
/// probed with no lock held, and the outcome fed to its health
/// machine under the lock again — only if the slot still targets the
/// probed address and no batch has pooled a connection meanwhile (a
/// retarget, quarantine or newer batch outcome wins).
fn ping_slot(cell: &Mutex<Slot>) -> bool {
    let (addr, timeout) = match &mut *lock(cell) {
        Slot::Remote(remote) if remote.shard.connected() => return remote.shard.ping(),
        Slot::Remote(remote) => (remote.shard.addr(), remote.shard.io_timeout()),
        Slot::Local(_) => return true,
        Slot::Retired => return false,
    };
    let ok = RemoteShard::probe(addr, timeout);
    match &mut *lock(cell) {
        Slot::Remote(remote) if remote.shard.addr() == addr && !remote.shard.connected() => {
            remote.shard.note_outcome(ok);
            ok
        }
        slot => healthy(slot),
    }
}

/// One slot's scrape: a local slot read under its lock; a remote one
/// dialed with no lock held and folded into its re-base.
fn scrape_slot(cell: &Mutex<Slot>) -> Option<MetricsSnapshot> {
    let (addr, attempt) = match &*lock(cell) {
        Slot::Local(svc) => return Some(svc.metrics()),
        // A retired slot's counters died with its backend; it
        // contributes zeros to any fan-in.
        Slot::Retired => return Some(MetricsSnapshot::zeroed()),
        // `attempt = false`: the health machine says the backend is
        // down and no reprobe is due yet — don't burn a dial on it.
        Slot::Remote(remote) => (remote.shard.addr(), remote.shard.should_attempt()),
    };
    if !attempt {
        return None;
    }
    let mut client = PolicyClient::connect_with_timeout(addr, 1, STATS_DIAL_TIMEOUT).ok()?;
    let fresh = client.metrics().ok()?;
    match &mut *lock(cell) {
        Slot::Remote(remote) => Some(remote.rebase.fold(&fresh)),
        // Quarantined while the dial was out: the backend's counters
        // no longer belong to this slot.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_request, Gen};
    use crate::{RouterConfig, ShardRouter};
    use econcast_core::{NodeParams, ThroughputMode};
    use econcast_statespace::CanonicalInstance;

    fn request(n: usize, rho_uw: f64) -> PolicyRequest {
        PolicyRequest::homogeneous(
            n,
            NodeParams::from_microwatts(rho_uw, 500.0, 450.0),
            0.5,
            ThroughputMode::Groupput,
            1e-2,
        )
    }

    #[test]
    fn ring_matches_shard_router_assignment() {
        // Equal slot counts ⇒ identical key→slot assignment: promoting
        // an in-process shard to a remote backend moves no keys.
        let cluster = ClusterRouter::new(
            &[SlotSpec::Local, SlotSpec::Local, SlotSpec::Local],
            ClusterConfig::default(),
        );
        let sharded = ShardRouter::new(RouterConfig {
            shards: 3,
            ..RouterConfig::default()
        });
        for n in 2..40 {
            for rho in [3.0, 10.0, 31.0] {
                let req = request(n, rho);
                let canon = CanonicalInstance::new(
                    &req.budgets_w,
                    req.listen_w,
                    req.transmit_w,
                    req.sigma,
                    req.objective,
                    req.tolerance,
                );
                assert_eq!(
                    cluster.slot_of_key(&canon.key),
                    sharded.shard_of_key(&canon.key),
                    "n={n} rho={rho}"
                );
            }
        }
    }

    impl ClusterRouter {
        /// Routes one batch under the read lock, as a served batch
        /// does.
        fn route(&self, reqs: &[PolicyRequest]) -> Vec<Vec<usize>> {
            self.route_in(&self.topo(), reqs)
        }
    }

    fn route_hash(req: &PolicyRequest) -> u64 {
        route_hash_of(
            &req.budgets_w,
            req.listen_w,
            req.transmit_w,
            req.sigma,
            req.objective,
            req.tolerance,
        )
    }

    #[test]
    fn front_and_backends_agree_on_every_route() {
        // The front keys raw requests; backends key canonical ones. If
        // the two ever disagreed, one instance would be cached on two
        // backends and neither LRU would stay disjoint and hot.
        let mut g = Gen(0x5eed);
        for slots in [1usize, 2, 3, 5] {
            let cluster =
                ClusterRouter::new(&vec![SlotSpec::Local; slots], ClusterConfig::default());
            let sharded = ShardRouter::new(RouterConfig {
                shards: slots,
                ..RouterConfig::default()
            });
            let mut cheap = Vec::new();
            let mut cheap_slots = vec![0u64; slots];
            for case in 0..150 {
                let mut req = random_request(&mut g);
                let canon = CanonicalInstance::new(
                    &req.budgets_w,
                    req.listen_w,
                    req.transmit_w,
                    req.sigma,
                    req.objective,
                    req.tolerance,
                );
                let h = route_hash(&req);
                assert_eq!(h, canon.key.route_hash(), "case {case}");
                // A shuffled copy with an aliased tolerance routes alike.
                for i in (1..req.budgets_w.len()).rev() {
                    let j = g.below(i + 1);
                    req.budgets_w.swap(i, j);
                }
                req.tolerance = canon.tolerance_tier * g.log_uniform(1.0, 9.9);
                assert_eq!(route_hash(&req), h, "case {case} permuted");

                let routed = cluster.route(std::slice::from_ref(&req));
                let slot = routed.iter().position(|s| !s.is_empty()).unwrap();
                assert_eq!(routed.iter().map(Vec::len).sum::<usize>(), 1);
                let slot = slot as u16;
                assert_eq!(slot, cluster.slot_of_key(&canon.key), "case {case}");
                assert_eq!(slot, sharded.shard_of_key(&canon.key), "case {case}");
                assert_eq!(Some(slot), sharded.shard_of_request(&req), "case {case}");
                // Closed-form and over-ceiling requests answer without
                // a dual descent; those also go through serve_batch.
                if canon.homogeneous || canon.sorted_budgets.len() > 256 {
                    cheap_slots[usize::from(slot)] += 1;
                    cheap.push(req);
                }
            }
            let before = cluster.cluster_stats().routed;
            cluster.serve_batch(&cheap);
            let after = cluster.cluster_stats().routed;
            let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
            assert_eq!(delta, cheap_slots, "{slots} slots");
        }
    }

    #[test]
    fn all_local_cluster_matches_single_service() {
        let cluster = ClusterRouter::new(
            &[SlotSpec::Local, SlotSpec::Local],
            ClusterConfig {
                service: ServiceConfig {
                    workers: Some(1),
                    ..ServiceConfig::default()
                },
                ..ClusterConfig::default()
            },
        );
        let reqs: Vec<PolicyRequest> = (2..18).map(|n| request(n, 10.0)).collect();
        let mut single = PolicyService::new(ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        });
        let expected = single.serve_batch(&reqs);
        let got = cluster.serve_batch(&reqs);
        for (g, e) in got.iter().zip(&expected) {
            let (g, e) = (g.as_ref().unwrap(), e.as_ref().unwrap());
            assert_eq!(g.throughput.to_bits(), e.throughput.to_bits());
        }
        let cs = cluster.cluster_stats();
        assert_eq!(cs.local_served, reqs.len() as u64);
        assert_eq!(cs.remote_served, 0);
        assert_eq!(cs.local_fallbacks, 0);
        assert_eq!(cs.routed.iter().sum::<u64>(), reqs.len() as u64);
    }

    #[test]
    fn dead_backend_fails_over_locally_without_errors() {
        // One remote slot pointing at nothing: every request fails
        // over to the local solver, bit-identical, zero errors.
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let cluster = ClusterRouter::new(
            &[SlotSpec::Remote(dead)],
            ClusterConfig {
                service: ServiceConfig {
                    workers: Some(1),
                    ..ServiceConfig::default()
                },
                remote: RemoteConfig {
                    dial_retries: 1,
                    reprobe_after: std::time::Duration::from_secs(3600),
                    ..RemoteConfig::default()
                },
            },
        );
        let reqs: Vec<PolicyRequest> = (2..10).map(|n| request(n, 10.0)).collect();
        let mut single = PolicyService::new(ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        });
        let expected = single.serve_batch(&reqs);
        let got = cluster.serve_batch(&reqs);
        for (g, e) in got.iter().zip(&expected) {
            let (g, e) = (
                g.as_ref().expect("failover, not error"),
                e.as_ref().unwrap(),
            );
            assert_eq!(g.throughput.to_bits(), e.throughput.to_bits());
            for (gp, ep) in g.policies.iter().zip(&e.policies) {
                assert_eq!(gp.listen.to_bits(), ep.listen.to_bits());
                assert_eq!(gp.transmit.to_bits(), ep.transmit.to_bits());
            }
        }
        let cs = cluster.cluster_stats();
        assert_eq!(cs.local_fallbacks, reqs.len() as u64);
        assert_eq!(cs.backend_failures, 1, "one voided sub-batch");
        assert_eq!(cs.healthy, vec![false]);
        // The second batch skips the down backend outright (no dial):
        // still zero errors, still counted.
        let again = cluster.serve_batch(&reqs);
        assert!(again.iter().all(Result::is_ok));
        let cs = cluster.cluster_stats();
        assert_eq!(cs.local_fallbacks, 2 * reqs.len() as u64);
        assert_eq!(cs.backend_failures, 1, "down backend not re-dialed");

        // The operator surfaces agree: the dialer counters recorded
        // the failure, an explicit probe sweep still says down, and
        // the slot's scrape is skipped (no dial, nothing reported).
        let dialer = cluster.remote_stats(0).expect("remote slot");
        assert!(dialer.failures >= 1);
        assert_eq!(dialer.served, 0);
        assert_eq!(cluster.ping_all(), vec![false], "probe fails while dead");
        assert_eq!(cluster.scrape(0), None);
    }

    #[test]
    fn saturated_slot_routes_around_without_dialing() {
        // A slot inside a saturation window is skipped outright — no
        // dial, no backend_failure, no healer involvement — and every
        // request is served by the fallback, bit-identical. The
        // "backend" here is a listener that never accepts: if the
        // router dialed it the dial would fail and count, so a zero
        // failure count proves the dial never happened.
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let cluster = ClusterRouter::new(
            &[SlotSpec::Remote(dead)],
            ClusterConfig {
                service: ServiceConfig {
                    workers: Some(1),
                    ..ServiceConfig::default()
                },
                remote: RemoteConfig {
                    dial_retries: 1,
                    ..RemoteConfig::default()
                },
            },
        );
        // As if the backend had just answered `Overloaded`.
        cluster.note_backend_overload(0, 60_000_000); // 60s window
        assert!(cluster.slot_saturated(0));
        assert_eq!(cluster.saturation_hint_us(), 60_000_000);

        let reqs: Vec<PolicyRequest> = (2..10).map(|n| request(n, 10.0)).collect();
        let mut single = PolicyService::new(ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        });
        let expected = single.serve_batch(&reqs);
        let got = cluster.serve_batch(&reqs);
        for (g, e) in got.iter().zip(&expected) {
            let (g, e) = (
                g.as_ref().expect("served, not rejected"),
                e.as_ref().unwrap(),
            );
            assert_eq!(g.throughput.to_bits(), e.throughput.to_bits());
        }

        let cs = cluster.cluster_stats();
        assert_eq!(cs.overload_rejects, 1);
        assert_eq!(cs.saturation_opens, 1);
        assert_eq!(cs.saturated_routes, reqs.len() as u64);
        assert_eq!(cs.local_fallbacks, reqs.len() as u64);
        assert_eq!(cs.backend_failures, 0, "no dial burned on a saturated slot");
        assert_eq!(cs.saturated, vec![true]);
        // The router's scrape share carries the same counts, each
        // counted once: one rejection, one window, one re-serve per
        // request.
        let m = cluster.metrics();
        assert_eq!(m.counter(CTR_OVERLOADED_RECEIVED), 1);
        assert_eq!(m.counter(CTR_SATURATION_OPENS), 1);
        assert_eq!(m.counter(CTR_FAILOVER_RESERVES), reqs.len() as u64);
        assert_eq!(m.gauge(GAUGE_SATURATION_OPEN), 1);
        // Saturation is orthogonal to health: the healer never saw a
        // thing, so the slot still reads healthy.
        assert_eq!(cs.healthy, vec![true]);

        // An expired window clears without any explicit reset.
        cluster.note_backend_overload(0, 1); // 1µs — expires immediately
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(!cluster.slot_saturated(0));
        assert_eq!(cluster.saturation_hint_us(), 0);
    }

    #[test]
    fn invalid_requests_get_typed_errors_without_routing() {
        let cluster = ClusterRouter::new(&[SlotSpec::Local], ClusterConfig::default());
        let bad = PolicyRequest {
            budgets_w: vec![],
            listen_w: 500e-6,
            transmit_w: 450e-6,
            sigma: 0.5,
            objective: ThroughputMode::Groupput,
            tolerance: 1e-2,
        };
        let out = cluster.serve_batch(std::slice::from_ref(&bad));
        assert!(matches!(out[0], Err(ServiceError::BadRequest(_))));
        let cs = cluster.cluster_stats();
        assert_eq!(cs.invalid_requests, 1);
        assert_eq!(cs.local_fallbacks, 0);
        assert_eq!(cs.routed, vec![0]);
        assert_eq!(cluster.metrics().counter(econcast_metrics::CTR_ERRORS), 1);
    }

    /// An address with nothing listening (bind, learn, drop).
    fn dead_addr() -> SocketAddr {
        std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
    }

    #[test]
    fn cluster_stats_is_a_view_of_the_scrape() {
        // One remote slot on a live backend, one local slot, one dead
        // backend: requests are served remotely, locally and by the
        // fallback; invalid ones are never routed; a saturated slot is
        // routed around. Every distribution counter is held once, in
        // the router's table, and reads the same through both views.
        let backend = crate::PolicyServer::bind(
            "127.0.0.1:0",
            crate::ServerConfig {
                router: RouterConfig {
                    shards: 1,
                    service: ServiceConfig {
                        workers: Some(1),
                        ..ServiceConfig::default()
                    },
                    ..RouterConfig::default()
                },
                ..crate::ServerConfig::default()
            },
        )
        .unwrap()
        .spawn();
        let cluster = ClusterRouter::new(
            &[
                SlotSpec::Remote(backend.addr()),
                SlotSpec::Local,
                SlotSpec::Remote(dead_addr()),
            ],
            ClusterConfig {
                service: ServiceConfig {
                    workers: Some(1),
                    ..ServiceConfig::default()
                },
                remote: RemoteConfig {
                    dial_retries: 1,
                    reprobe_after: std::time::Duration::from_secs(3600),
                    ..RemoteConfig::default()
                },
            },
        );
        let mut reqs: Vec<PolicyRequest> = (2..40).map(|n| request(n, 10.0)).collect();
        reqs.push(PolicyRequest {
            budgets_w: vec![],
            ..request(2, 10.0)
        });
        assert!(cluster
            .serve_batch(&reqs)
            .iter()
            .take(38)
            .all(Result::is_ok));
        cluster.note_backend_overload(0, 60_000_000);
        assert!(cluster
            .serve_batch(&reqs)
            .iter()
            .take(38)
            .all(Result::is_ok));
        cluster.note_auto_respawn();
        cluster
            .injected_fault_counter()
            .fetch_add(2, Ordering::Relaxed);
        assert!(cluster.quarantine_slot(2));

        let cs = cluster.cluster_stats();
        let m = cluster.metrics();
        for (idx, v) in [
            (CTR_REMOTE_SERVED, cs.remote_served),
            (CTR_LOCAL_SERVED, cs.local_served),
            (CTR_FAILOVER_RESERVES, cs.local_fallbacks),
            (CTR_BACKEND_FAILURES, cs.backend_failures),
            (CTR_INVALID_REQUESTS, cs.invalid_requests),
            (CTR_AUTO_RESPAWNS, cs.auto_respawns),
            (CTR_QUARANTINES, cs.quarantines),
            (CTR_INJECTED_FAULTS, cs.injected_faults),
            (CTR_OVERLOADED_RECEIVED, cs.overload_rejects),
            (CTR_SATURATION_OPENS, cs.saturation_opens),
            (CTR_SATURATED_ROUTES, cs.saturated_routes),
        ] {
            let name = econcast_metrics::COUNTER_NAMES[idx];
            assert!(v > 0, "{name} was never driven");
            assert_eq!(m.counter(idx), v, "{name}");
        }
        assert_eq!(cs.invalid_requests, 2);
        assert_eq!(cs.injected_faults, 2);
        // Every routed request was answered exactly one way.
        let routed: u64 = cs.routed.iter().sum();
        assert_eq!(routed, 2 * 38);
        assert_eq!(
            cs.remote_served + cs.local_served + cs.local_fallbacks,
            routed
        );
        assert_eq!(cs.saturated_routes, cs.routed[0] / 2);
        drop(backend);
    }

    #[test]
    fn routed_counts_grow_with_add_backend() {
        let cluster = ClusterRouter::new(
            &[SlotSpec::Local],
            ClusterConfig {
                remote: RemoteConfig {
                    dial_retries: 1,
                    ..RemoteConfig::default()
                },
                ..ClusterConfig::default()
            },
        );
        let reqs: Vec<PolicyRequest> = (2..40).map(|n| request(n, 10.0)).collect();
        cluster.serve_batch(&reqs);
        assert_eq!(cluster.cluster_stats().routed, vec![reqs.len() as u64]);
        assert_eq!(cluster.add_backend(dead_addr()), 1);
        let before = cluster.cluster_stats().routed;
        assert_eq!(before, vec![reqs.len() as u64, 0], "a new slot starts at 0");
        cluster.serve_batch(&reqs);
        let after = cluster.cluster_stats().routed;
        assert_eq!(after.len(), 2);
        assert!(after[1] > 0, "the new slot took part of the key space");
        assert_eq!(after[0] + after[1], 2 * reqs.len() as u64);
    }
}
