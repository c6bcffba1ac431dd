//! Routing (P4) instances across cluster slots.
//!
//! A [`ClusterRouter`] is the multi-process sibling of
//! `econcast_service::ShardRouter`: requests are consistent-hashed
//! over the **same 64-vnode ring** (`fnv1a_64([slot, vnode])`
//! points), but a slot is a [`RemoteShard`] dialing a backend
//! `PolicyServer` process — or an in-process `PolicyService` for
//! mixed local/remote topologies. The router keys each raw request
//! with `route_hash_of` — one O(N) pass, no sort, no allocation —
//! which equals the `InstanceKey::route_hash` the backends route and
//! cache on, so with equal slot counts the two routers assign every
//! instance identically and promoting an in-process shard to a remote
//! backend moves no keys. The router never canonicalizes: only the
//! slot that serves a request sorts its budgets.
//!
//! ## Fan-out and reassembly
//!
//! A batch scatters into per-slot sub-batches (request order
//! preserved within each), remote sub-batches fan out **concurrently**
//! (one thread per live backend), and responses gather back in
//! request order, each already in its caller's node order.
//!
//! ## Failover
//!
//! Backend trouble is never the caller's problem:
//!
//! * a backend marked down by its health machine is skipped outright;
//! * a stream failure mid-batch voids that backend's whole sub-batch;
//! * both sets of requests are re-served by the router's **local
//!   fallback solver** in request order, counted in
//!   [`ClusterStats::local_fallbacks`].
//!
//! Every solve is a deterministic, self-contained computation and the
//! fallback runs the same `ServiceConfig` as the backends, so a
//! failed-over response is **bit-identical** to the one the backend
//! would have produced — only the tier label may differ (a replay can
//! read `Exact`), matching the PR 3 socket-test convention.

use crate::remote::{RemoteConfig, RemoteShard, RemoteShardStats};
use econcast_metrics::OpsKind;
use econcast_proto::service::ServiceErrorCode;
use econcast_service::ServiceStats;
use econcast_service::{PolicyRequest, PolicyResponse, PolicyService, ServiceConfig, ServiceError};
use econcast_statespace::{fnv1a_64, route_hash_of, InstanceKey};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Virtual nodes per slot on the consistent-hash ring (64 matches
    /// `ShardRouter`).
    pub vnodes: usize,
    /// Service configuration for local slots **and** the fallback
    /// solver. For the bit-identical failover guarantee this must
    /// match the backends' per-shard configuration.
    pub service: ServiceConfig,
    /// Dialer configuration applied to every remote slot.
    pub remote: RemoteConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            vnodes: 64,
            service: ServiceConfig::default(),
            remote: RemoteConfig::default(),
        }
    }
}

#[derive(Debug)]
enum Slot {
    /// Boxed (like `Local`): the dialer's pooled-connection and
    /// health-machine state is hundreds of bytes, and slot vectors
    /// should stay dense — `Retired` tombstones cost one word.
    Remote(Box<RemoteShard>),
    /// Boxed: a `PolicyService` (caches + scratch pools) dwarfs the
    /// dialer, and slot vectors should stay dense.
    Local(Box<PolicyService>),
    /// A backend removed by a live rebalance. The tombstone keeps
    /// slot indices stable (stats, retargeting, healer bookkeeping
    /// all key on them); it owns no vnodes, reports unhealthy, and
    /// never serves.
    Retired,
}

/// Where one slot's serving counters come from — snapshot under the
/// router lock ([`ClusterRouter::stats_sources`]), fetched outside
/// it.
#[derive(Debug, Clone, Copy)]
pub enum StatsSource {
    /// An in-process slot's counters, read directly.
    Local(ServiceStats),
    /// A backend to ask over the wire; `attempt = false` means the
    /// health machine says the backend is down and no reprobe is due
    /// yet — don't burn a dial on it.
    Remote {
        /// The backend's address.
        addr: SocketAddr,
        /// Whether a dial is currently worth attempting.
        attempt: bool,
    },
}

/// Cluster-level counters (the serving counters live in the backends;
/// these describe the *distribution* layer).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Requests routed per slot (including ones later failed over).
    pub routed: Vec<u64>,
    /// Requests answered by a remote backend.
    pub remote_served: u64,
    /// Requests answered by an in-process local slot.
    pub local_served: u64,
    /// Requests re-served by the local fallback solver because their
    /// backend was down, failed mid-batch, or rejected them.
    pub local_fallbacks: u64,
    /// Backend stream failures observed (each voids one sub-batch).
    pub backend_failures: u64,
    /// Requests that failed validation (answered locally with typed
    /// errors, never routed).
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
    /// fallback (the caller never saw the rejection).
    pub overload_rejects: u64,
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

/// Routes canonicalized requests across remote and local slots.
#[derive(Debug)]
pub struct ClusterRouter {
    /// Sorted consistent-hash ring: `(point, slot)`; retired slots
    /// own no points.
    ring: Vec<(u64, u16)>,
    slots: Vec<Slot>,
    cfg: ClusterConfig,
    /// The failover solver (and the answerer of invalid requests).
    fallback: PolicyService,
    routed: Vec<u64>,
    remote_served: u64,
    local_served: u64,
    local_fallbacks: u64,
    backend_failures: u64,
    invalid_requests: u64,
    auto_respawns: u64,
    quarantines: u64,
    overload_rejects: u64,
    saturated_routes: u64,
    /// Per-slot saturation window from the last backend `Overloaded`:
    /// `(backoff end, the backend's retry_after_us hint)`.
    saturation: Vec<Option<(Instant, u32)>>,
    /// Shared with fault injectors (which fire from proxy threads);
    /// everything else on the router mutates under its owner's lock.
    injected_faults: Arc<AtomicU64>,
}

impl ClusterRouter {
    /// Builds the ring, the dialers, and the local slots.
    ///
    /// # Panics
    ///
    /// Panics when `slots` is empty, exceeds `u16::MAX`, or
    /// `cfg.vnodes == 0`.
    pub fn new(slots: &[SlotSpec], cfg: ClusterConfig) -> Self {
        assert!(!slots.is_empty(), "need at least one slot");
        assert!(slots.len() <= u16::MAX as usize, "slot ids are u16");
        assert!(cfg.vnodes >= 1, "need at least one vnode per slot");
        let slots: Vec<Slot> = slots
            .iter()
            .enumerate()
            .map(|(i, spec)| match spec {
                SlotSpec::Remote(addr) => Slot::Remote(Box::new(RemoteShard::with_index(
                    *addr, cfg.remote, i as u64,
                ))),
                SlotSpec::Local => Slot::Local(Box::new(PolicyService::new(cfg.service))),
            })
            .collect();
        let mut router = ClusterRouter {
            ring: Vec::new(),
            routed: vec![0; slots.len()],
            saturation: vec![None; slots.len()],
            slots,
            fallback: PolicyService::new(cfg.service),
            cfg,
            remote_served: 0,
            local_served: 0,
            local_fallbacks: 0,
            backend_failures: 0,
            invalid_requests: 0,
            auto_respawns: 0,
            quarantines: 0,
            overload_rejects: 0,
            saturated_routes: 0,
            injected_faults: Arc::new(AtomicU64::new(0)),
        };
        router.rebuild_ring();
        router
    }

    /// Recomputes the consistent-hash ring over every non-retired
    /// slot. With no retired slots this reproduces the construction
    /// `ShardRouter` uses bit for bit, so equal slot counts keep
    /// assigning every canonical key identically.
    fn rebuild_ring(&mut self) {
        let vnodes = self.cfg.vnodes as u64;
        let mut ring: Vec<(u64, u16)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| !matches!(slot, Slot::Retired))
            .flat_map(|(s, _)| (0..vnodes).map(move |v| (fnv1a_64([s as u64, v]), s as u16)))
            .collect();
        ring.sort_unstable();
        assert!(!ring.is_empty(), "every slot retired");
        self.ring = ring;
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The home slot of a canonical instance key — the same
    /// partition-point walk as `ShardRouter::shard_of_key`, over the
    /// same ring construction.
    pub fn slot_of_key(&self, key: &InstanceKey) -> u16 {
        self.slot_of_hash(key.route_hash())
    }

    /// The home slot of a route hash: the first ring point at or after
    /// it (wrapping).
    fn slot_of_hash(&self, h: u64) -> u16 {
        let i = self.ring.partition_point(|&(p, _)| p < h);
        self.ring[if i == self.ring.len() { 0 } else { i }].1
    }

    /// Whether a slot is currently healthy (local slots always are,
    /// retired slots never are).
    pub fn slot_healthy(&self, slot: usize) -> bool {
        match &self.slots[slot] {
            Slot::Remote(rs) => rs.healthy(),
            Slot::Local(_) => true,
            Slot::Retired => false,
        }
    }

    /// Whether a slot is a remote backend (the only kind a supervisor
    /// policy loop manages).
    pub fn slot_is_remote(&self, slot: usize) -> bool {
        matches!(self.slots.get(slot), Some(Slot::Remote(_)))
    }

    /// A remote slot's dialer counters (`None` for local or retired
    /// slots).
    pub fn remote_stats(&self, slot: usize) -> Option<RemoteShardStats> {
        match &self.slots[slot] {
            Slot::Remote(rs) => Some(rs.shard_stats()),
            _ => None,
        }
    }

    /// Distribution-layer counter snapshot.
    pub fn cluster_stats(&self) -> ClusterStats {
        ClusterStats {
            routed: self.routed.clone(),
            remote_served: self.remote_served,
            local_served: self.local_served,
            local_fallbacks: self.local_fallbacks,
            backend_failures: self.backend_failures,
            invalid_requests: self.invalid_requests,
            auto_respawns: self.auto_respawns,
            quarantines: self.quarantines,
            injected_faults: self.injected_faults.load(Ordering::Relaxed),
            overload_rejects: self.overload_rejects,
            saturated_routes: self.saturated_routes,
            healthy: (0..self.slots.len())
                .map(|s| self.slot_healthy(s))
                .collect(),
            saturated: (0..self.slots.len())
                .map(|s| self.slot_saturated(s))
                .collect(),
        }
    }

    /// Whether a slot is inside a backend-advertised saturation
    /// window: its backend shed a request less than `retry_after_us`
    /// ago, so routing to it now would only earn another rejection.
    pub fn slot_saturated(&self, slot: usize) -> bool {
        matches!(
            self.saturation.get(slot),
            Some(Some((until, _))) if Instant::now() < *until
        )
    }

    /// The largest `retry_after_us` hint among currently saturated
    /// slots — what a cluster front folds into its own admission
    /// retry estimates, so upstream callers back off as far as the
    /// most-loaded backend asked for. Zero when nothing is saturated.
    pub fn saturation_hint_us(&self) -> u32 {
        let now = Instant::now();
        self.saturation
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
    fn note_backend_overload(&mut self, slot: usize, retry_after_us: u32) {
        self.overload_rejects += 1;
        econcast_metrics::ops_event(
            OpsKind::OverloadedReceived,
            slot as u64,
            u64::from(retry_after_us),
        );
        // A window *opening* is the rare, recorder-worthy transition;
        // an `Overloaded` landing inside an already-open window only
        // extends it.
        if !self.slot_saturated(slot) {
            econcast_metrics::ops_event(
                OpsKind::SaturationOpen,
                slot as u64,
                u64::from(retry_after_us),
            );
        }
        self.saturation[slot] = Some((
            Instant::now() + Duration::from_micros(u64::from(retry_after_us)),
            retry_after_us,
        ));
        econcast_trace::trace_instant!("cluster", "backend_overloaded", "slot" => slot as u64);
    }

    /// Clears lapsed saturation windows, recording each close in the
    /// flight recorder. Called at the top of every batch; windows that
    /// lapse between batches close on the next one (the recorder is an
    /// ops log, not a real-time signal, and `slot_saturated` already
    /// treats a lapsed window as closed).
    fn sweep_saturation(&mut self) {
        let now = Instant::now();
        for (slot, window) in self.saturation.iter_mut().enumerate() {
            if matches!(window, Some((until, _)) if now >= *until) {
                *window = None;
                econcast_metrics::ops_event(OpsKind::SaturationClose, slot as u64, 0);
            }
        }
    }

    /// Slots currently able to serve — healthy remotes plus local
    /// slots — injected by the cluster front as its `live_backends`
    /// gauge.
    pub fn live_slots(&self) -> u64 {
        (0..self.slots.len())
            .filter(|&s| self.slot_healthy(s))
            .count() as u64
    }

    /// Currently open backend-saturation windows — the front's
    /// `saturation_windows_open` gauge.
    pub fn saturation_windows_open(&self) -> u64 {
        (0..self.slots.len())
            .filter(|&s| self.slot_saturated(s))
            .count() as u64
    }

    /// LRU residency `(entries, bytes)` of everything in-process —
    /// local slots plus the fallback solver — for the front's gauge
    /// injection (remote backends report their own residency in their
    /// scrapes).
    pub fn local_cache_residency(&self) -> (u64, u64) {
        let mut entries = self.fallback.stats().lru_len;
        let mut bytes = self.fallback.cache_bytes() as u64;
        for slot in &self.slots {
            if let Slot::Local(svc) = slot {
                entries += svc.stats().lru_len;
                bytes += svc.cache_bytes() as u64;
            }
        }
        (entries, bytes)
    }

    /// Pings every remote slot (dialing as needed), returning the
    /// post-probe health per slot — the healer's health sweep. Local
    /// slots are trivially healthy, retired slots trivially not.
    pub fn ping_all(&mut self) -> Vec<bool> {
        self.slots
            .iter_mut()
            .map(|slot| match slot {
                Slot::Remote(rs) => rs.ping(),
                Slot::Local(_) => true,
                Slot::Retired => false,
            })
            .collect()
    }

    /// Re-targets a remote slot at a replacement backend (respawned
    /// process, fresh port). Returns `false` for local or retired
    /// slots.
    pub fn retarget_slot(&mut self, slot: usize, addr: SocketAddr) -> bool {
        match &mut self.slots[slot] {
            Slot::Remote(rs) => {
                rs.retarget(addr);
                true
            }
            _ => false,
        }
    }

    /// Records that the policy loop replaced a dead backend.
    pub fn note_auto_respawn(&mut self) {
        self.auto_respawns += 1;
        econcast_metrics::ops_event(OpsKind::Respawn, 0, 0);
    }

    /// The shared injected-fault counter. A fault-injection harness
    /// clones this handle and increments it every time a scripted
    /// fault actually fires, so chaos runs are auditable through the
    /// ordinary stats plane.
    pub fn injected_fault_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.injected_faults)
    }

    /// Replaces a crash-looping remote slot with a fresh in-process
    /// local slot — the policy loop's quarantine action. The ring is
    /// untouched (the slot keeps its vnodes; its keys are simply
    /// served locally from now on). Returns `false` for slots that
    /// are not remote.
    pub fn quarantine_slot(&mut self, slot: usize) -> bool {
        match &self.slots[slot] {
            Slot::Remote(_) => {
                self.slots[slot] = Slot::Local(Box::new(PolicyService::new(self.cfg.service)));
                self.quarantines += 1;
                econcast_metrics::ops_event(OpsKind::Quarantine, slot as u64, 0);
                econcast_trace::trace_instant!("cluster", "quarantine", "slot" => slot as u64);
                true
            }
            _ => false,
        }
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
    pub fn add_backend(&mut self, addr: SocketAddr) -> u16 {
        assert!(self.slots.len() < u16::MAX as usize, "slot ids are u16");
        let slot = self.slots.len() as u16;
        self.slots
            .push(Slot::Remote(Box::new(RemoteShard::with_index(
                addr,
                self.cfg.remote,
                u64::from(slot),
            ))));
        self.routed.push(0);
        self.saturation.push(None);
        self.rebuild_ring();
        slot
    }

    /// Retires a remote slot and rebalances the ring live: the slot's
    /// vnodes vanish and its key ranges fall to the ring successors.
    /// Returns `false` (and changes nothing) when the slot is not
    /// remote or is the last slot on the ring.
    pub fn remove_backend(&mut self, slot: usize) -> bool {
        if !self.slot_is_remote(slot) {
            return false;
        }
        let live = self
            .slots
            .iter()
            .filter(|s| !matches!(s, Slot::Retired))
            .count();
        if live <= 1 {
            return false;
        }
        self.slots[slot] = Slot::Retired;
        self.rebuild_ring();
        true
    }

    /// Where each slot's serving counters come from, plus the
    /// fallback solver's own counters — a cheap, network-free
    /// snapshot. The cluster front takes this under its router lock
    /// and performs the actual backend round-trips *outside* it, so a
    /// slow or unreachable backend stalls one stats request, never
    /// the data plane.
    pub fn stats_sources(&self) -> (Vec<StatsSource>, ServiceStats) {
        let sources = self
            .slots
            .iter()
            .map(|slot| match slot {
                Slot::Local(svc) => StatsSource::Local(svc.stats()),
                Slot::Remote(rs) => StatsSource::Remote {
                    addr: rs.addr(),
                    attempt: rs.should_attempt(),
                },
                // A retired slot's counters died with its backend;
                // it contributes zeros to any fan-in.
                Slot::Retired => StatsSource::Local(ServiceStats::default()),
            })
            .collect();
        (sources, self.fallback.stats())
    }

    /// The fallback solver's own counters (how much failover work the
    /// router absorbed).
    ///
    /// There is deliberately **no** "fan everything in over the
    /// network" method on the router itself: dialing backends while
    /// someone holds the router (the front keeps it behind a mutex)
    /// would stall the data plane behind a control-plane round-trip.
    /// Aggregation lives in the cluster front, built on the
    /// network-free [`stats_sources`](Self::stats_sources) snapshot
    /// plus out-of-lock dials.
    pub fn fallback_stats(&self) -> ServiceStats {
        self.fallback.stats()
    }

    /// Scatters a batch into per-slot request indices (request order
    /// kept within each slot), keying every valid request with
    /// [`route_hash_of`] over its raw fields. Invalid requests are
    /// counted and left out: they are answered locally with their
    /// typed errors and never touch a backend.
    fn route(&mut self, reqs: &[PolicyRequest]) -> Vec<Vec<usize>> {
        let mut sub_idx: Vec<Vec<usize>> = vec![Vec::new(); self.slots.len()];
        for (i, req) in reqs.iter().enumerate() {
            if req.validate().is_err() {
                self.invalid_requests += 1;
                continue;
            }
            let h = route_hash_of(
                &req.budgets_w,
                req.listen_w,
                req.transmit_w,
                req.sigma,
                req.objective,
                req.tolerance,
            );
            let s = usize::from(self.slot_of_hash(h));
            self.routed[s] += 1;
            sub_idx[s].push(i);
        }
        sub_idx
    }

    /// Serves a batch: scatter to home slots, concurrent remote
    /// fan-out, deterministic local fallback for anything a backend
    /// could not answer, gather in request order. Backend failures are
    /// **never** surfaced as caller errors — the fallback solver
    /// produces the identical bits a healthy backend would have.
    pub fn serve_batch(
        &mut self,
        reqs: &[PolicyRequest],
    ) -> Vec<Result<PolicyResponse, ServiceError>> {
        let _serve = econcast_trace::trace_span!(
            "cluster",
            "cluster_serve",
            "requests" => reqs.len() as u64
        );
        self.sweep_saturation();
        let nslots = self.slots.len();
        let sub_idx = self.route(reqs);

        // Remote fan-out, pipelined: submit every live backend's
        // sub-batch back to back, then drive all the in-flight
        // tickets on this thread — the readiness driver absorbs
        // whichever backend answers first, so gathering one
        // sub-batch starts while the others are still solving. Down
        // backends (health machine says skip) and saturated backends
        // (inside a `retry_after_us` backoff window from an earlier
        // `Overloaded`) go straight to fallback — the latter without
        // burning a dial, so backpressure routes around a loaded
        // backend before its health machine would notice anything.
        let saturated: Vec<bool> = (0..nslots).map(|s| self.slot_saturated(s)).collect();
        let skipped_saturated: u64 = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(s, slot)| match slot {
                Slot::Remote(rs)
                    if saturated[s] && !sub_idx[s].is_empty() && rs.should_attempt() =>
                {
                    Some(sub_idx[s].len() as u64)
                }
                _ => None,
            })
            .sum();
        self.saturated_routes += skipped_saturated;
        let mut remote_results: Vec<Option<std::io::Result<Vec<econcast_service::WireResult>>>> =
            (0..self.slots.len()).map(|_| None).collect();
        let mut jobs = Vec::new();
        for (s, slot) in self.slots.iter_mut().enumerate() {
            let Slot::Remote(rs) = slot else { continue };
            if !sub_idx[s].is_empty() && rs.should_attempt() && !saturated[s] {
                // Encoded straight from the caller's requests: the
                // sub-batch is a view, not a copy.
                match rs.begin_batch(sub_idx[s].iter().map(|&i| &reqs[i])) {
                    Ok(ticket) => jobs.push(crate::driver::Job {
                        slot: s,
                        shard: rs,
                        ticket,
                    }),
                    // A submit-side failure (dial, write) voids the
                    // sub-batch exactly like a mid-stream one.
                    Err(e) => remote_results[s] = Some(Err(e)),
                }
            }
        }
        for (s, result) in crate::driver::drive(jobs) {
            remote_results[s] = Some(result);
        }

        let mut out: Vec<Option<Result<PolicyResponse, ServiceError>>> = vec![None; reqs.len()];
        for (s, result) in remote_results.into_iter().enumerate() {
            let Some(result) = result else { continue };
            match result {
                Ok(wire_results) => {
                    for (&i, wire) in sub_idx[s].iter().zip(wire_results) {
                        // A per-request backend rejection (the `Err`
                        // arm) is left unresolved here and re-judged
                        // locally: the fallback runs the same config,
                        // so the caller gets the identical typed
                        // error (or response) a local deployment
                        // would produce.
                        match wire {
                            Ok(resp) => {
                                self.remote_served += 1;
                                out[i] = Some(Ok(PolicyResponse::from_wire(&resp, reqs[i].sigma)));
                            }
                            // The backend shed this request: open a
                            // saturation window for its advertised
                            // backoff and leave the request to the
                            // fallback — the caller never sees the
                            // rejection.
                            Err(e) if e.code == ServiceErrorCode::Overloaded => {
                                self.note_backend_overload(s, e.retry_after_us);
                            }
                            Err(_) => {}
                        }
                    }
                }
                Err(_) => {
                    // Stream failure: the whole sub-batch falls back.
                    // (Any responses decoded before the failure are
                    // discarded — recomputing locally yields identical
                    // bits, and a partial trust boundary is not worth
                    // the bookkeeping.)
                    self.backend_failures += 1;
                    econcast_trace::trace_instant!("cluster", "backend_failure");
                }
            }
        }

        // Local slots serve serially, in slot order — deterministic.
        for (s, slot) in self.slots.iter_mut().enumerate() {
            if let Slot::Local(svc) = slot {
                if sub_idx[s].is_empty() {
                    continue;
                }
                let batch: Vec<PolicyRequest> =
                    sub_idx[s].iter().map(|&i| reqs[i].clone()).collect();
                self.local_served += batch.len() as u64;
                for (&i, r) in sub_idx[s].iter().zip(svc.serve_batch(&batch)) {
                    out[i] = Some(r);
                }
            }
        }

        // Fallback: everything still unresolved (invalid requests,
        // down/failed backends' sub-batches, per-request rejections),
        // as one local batch in request order.
        let pending: Vec<usize> = (0..reqs.len()).filter(|&i| out[i].is_none()).collect();
        if !pending.is_empty() {
            let _failover = econcast_trace::trace_span!(
                "cluster",
                "failover_reserve",
                "requests" => pending.len() as u64
            );
            let batch: Vec<PolicyRequest> = pending.iter().map(|&i| reqs[i].clone()).collect();
            let results = self.fallback.serve_batch(&batch);
            let mut reserves = 0u64;
            for (&i, r) in pending.iter().zip(results) {
                // Only *routed* requests count as failovers; invalid
                // ones were always the router's to answer.
                if reqs[i].validate().is_ok() {
                    self.local_fallbacks += 1;
                    reserves += 1;
                }
                out[i] = Some(r);
            }
            if reserves > 0 {
                econcast_metrics::ops_event(OpsKind::FailoverReserve, 0, reserves);
            }
        }

        out.into_iter()
            .map(|r| r.expect("every request resolved"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use econcast_core::{NodeParams, ThroughputMode};
    use econcast_service::{RouterConfig, ShardRouter};
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

    /// A splitmix64 stream for generated requests.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }

        /// Log-uniform in `[lo, hi)`.
        fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
            let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            lo * (hi / lo).powf(u)
        }
    }

    /// A random valid request: N in 1..=4000, budgets drawn from a
    /// small pool so duplicates are common, either mode, σ and the
    /// radio powers log-uniform, and a tolerance anywhere inside a
    /// random decade (including past both clamps).
    fn random_request(g: &mut Gen) -> PolicyRequest {
        let max_n = if g.below(4) == 0 { 4000 } else { 64 };
        let n = 1 + g.below(max_n);
        let pool: Vec<f64> = (0..1 + g.below(n))
            .map(|_| g.log_uniform(1e-7, 1e-3))
            .collect();
        let decade = 10f64.powi(-(g.below(12) as i32));
        let pool_len = pool.len();
        PolicyRequest {
            budgets_w: (0..n).map(|_| pool[g.below(pool_len)]).collect(),
            listen_w: g.log_uniform(1e-4, 1e-2),
            transmit_w: g.log_uniform(1e-4, 1e-2),
            sigma: g.log_uniform(1e-2, 4.0),
            objective: if g.below(2) == 0 {
                ThroughputMode::Groupput
            } else {
                ThroughputMode::Anyput
            },
            tolerance: decade * g.log_uniform(1.0, 10.0),
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
            let mut cluster =
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
        let mut cluster = ClusterRouter::new(
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
        let mut cluster = ClusterRouter::new(
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
                ..ClusterConfig::default()
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
        // the stats snapshot marks the slot skip-worthy.
        let dialer = cluster.remote_stats(0).expect("remote slot");
        assert!(dialer.failures >= 1);
        assert_eq!(dialer.served, 0);
        assert_eq!(cluster.ping_all(), vec![false], "probe fails while dead");
        let (sources, _) = cluster.stats_sources();
        assert!(matches!(
            sources[0],
            StatsSource::Remote { attempt: false, .. }
        ));
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
        let mut cluster = ClusterRouter::new(
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
                ..ClusterConfig::default()
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
        assert_eq!(cs.saturated_routes, reqs.len() as u64);
        assert_eq!(cs.local_fallbacks, reqs.len() as u64);
        assert_eq!(cs.backend_failures, 0, "no dial burned on a saturated slot");
        assert_eq!(cs.saturated, vec![true]);
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
        let mut cluster = ClusterRouter::new(&[SlotSpec::Local], ClusterConfig::default());
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
        assert_eq!(cluster.fallback_stats().errors, 1);
    }
}
