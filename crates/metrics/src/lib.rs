//! # econcast-metrics — the always-on metrics plane
//!
//! `econcast-trace` is a *diagnostic* facility: span events, armed on
//! demand and off in production. This crate is the *operational*
//! twin: a fixed, named registry of *counters*, *gauges*, and
//! *latency histograms* that every serving front answers a metrics
//! scrape with (the scrape is the only counter schema on the wire),
//! plus a **flight recorder** — a bounded ring of timestamped
//! significant ops events (sheds, failovers, respawns, quarantines,
//! …) dumpable through the tracer's Chrome/Perfetto writer so a chaos
//! run leaves a black-box record. [`Histogram`] is the workspace's
//! only histogram type, and the log-bucket scheme ([`bucket_of`]) is
//! defined here.
//!
//! ## Who counts
//!
//! * Counters — the registry fixes their names and wire order
//!   (`CTR_*`), and each name's index is also where it is held. Each
//!   event is counted once, by the component it happens in, into that
//!   component's own table indexed by the registry: a
//!   [`CounterTable`] of relaxed atomics for shared owners (an
//!   admission controller, a cluster router), a plain
//!   `[u64; NUM_COUNTERS]` for a policy service, which is reached only
//!   through `&mut`. A scrape copies the table; every other form of a
//!   count (`ServiceStats`, `ClusterStats`) is a view built from a
//!   [`MetricsSnapshot`]. A process may run many servers, and each
//!   still reports exactly its own.
//! * [`Gauge`] — a value + high-water pair of atomics, owned and
//!   injected into a scrape the same way (admission queue, LRU,
//!   router).
//! * [`Histogram`] — one relaxed `fetch_add` into a fixed log-bucket
//!   array; snapshots of any two histograms merge index-for-index
//!   because every one uses the same buckets. The serve path's
//!   two latency histograms are a [`LatencyHists`] pair owned by each
//!   policy service, so like a counter each latency is recorded once,
//!   by the server that served it.
//! * Flight recorder — a mutex-guarded ring on the process-global
//!   [`hub`], touched only on *rare* events (a shed, a respawn), never
//!   on the per-request path. Recording an event does not count it.
//!
//! [`set_recording`] (default **on**) is the process-wide kill switch
//! for the histograms and the recorder that the bench harness uses to
//! measure the plane's own overhead.
//!
//! ## Snapshots, merge, windows
//!
//! A [`MetricsSnapshot`] holds dense counters, kind-tagged gauges
//! and sparse histograms. Snapshots [`merge`](MetricsSnapshot::merge)
//! order-insensitively (Σ for counters, Σ-or-max per gauge kind,
//! bucket-wise Σ for histograms) — the cluster front fans per-backend
//! snapshots into one exactly this way, and the property tests pin
//! associativity. A [`SnapshotRing`] keeps the last K snapshots so
//! every counter also reads as a *rate* — the `repro --top` ops view
//! is built on it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------------
// The fixed metric registry
// ---------------------------------------------------------------------------

// Counters. The registry names them and fixes their wire order, and
// its index is where each one is held: every owner counts into a
// table indexed by these constants — a `PolicyService` (the serve
// tiers, indices 0..=11), a front's admission controller (the shed
// ladder, 15..=17), or a cluster router (distribution, 12..=14 and
// 18..=25) — and its scrape copies that table.

/// Requests received on the serve path (including failed ones).
pub const CTR_REQUESTS: usize = 0;
/// Batches served.
pub const CTR_BATCHES: usize = 1;
/// Requests answered from the exact-match LRU tier.
pub const CTR_EXACT_HITS: usize = 2;
/// Requests answered by the homogeneous closed-form tier.
pub const CTR_CLOSED_FORM_HITS: usize = 3;
/// Requests that ran the exact (P4) dual-descent solver.
pub const CTR_SOLVER_SOLVES: usize = 4;
/// Requests answered as an alias of an identical instance solved
/// earlier in the same batch.
pub const CTR_BATCH_DEDUP_HITS: usize = 5;
/// Per-request errors returned (validation or size).
pub const CTR_ERRORS: usize = 6;
/// Entries inserted into the LRU.
pub const CTR_LRU_INSERTS: usize = 7;
/// Entries evicted from the LRU, for any reason.
pub const CTR_LRU_EVICTIONS: usize = 8;
/// Exact-tier hits on entries the homogeneous closed form produced.
pub const CTR_EXACT_HITS_CLOSED_FORM: usize = 9;
/// Exact-tier hits on entries the factorized solver produced.
pub const CTR_EXACT_HITS_FACTORIZED: usize = 10;
/// LRU entries evicted to satisfy the cache byte budget.
pub const CTR_BYTE_EVICTIONS: usize = 11;
/// Dead backends respawned by the cluster's policy loop.
pub const CTR_AUTO_RESPAWNS: usize = 12;
/// Backend slots quarantined onto a local solver.
pub const CTR_QUARANTINES: usize = 13;
/// Faults fired by a fault-injection harness.
pub const CTR_INJECTED_FAULTS: usize = 14;
/// `Overloaded` answers sent: requests shed by the admission ladder
/// plus admitted requests whose deadline expired.
pub const CTR_SHED_REJECTS: usize = 15;
/// Requests served degraded (tolerance relaxed one decade).
pub const CTR_DEGRADED_SERVES: usize = 16;
/// Admitted requests whose deadline budget expired before their
/// result was sent. Each also counts in [`CTR_SHED_REJECTS`] and, as
/// it was served, in [`CTR_REQUESTS`].
pub const CTR_DEADLINE_EXPIRED: usize = 17;
/// `Overloaded` answers received from backends.
pub const CTR_OVERLOADED_RECEIVED: usize = 18;
/// Requests re-served by the cluster's local fallback solver after
/// their backend was down, failed or shed them. Counted per request
/// (it counted batches with a re-serve before the counters had one
/// owner each).
pub const CTR_FAILOVER_RESERVES: usize = 19;
/// Backend-saturation windows opened.
pub const CTR_SATURATION_OPENS: usize = 20;
/// Requests a cluster router forwarded a backend's answer for. Like
/// every router counter, a per-router count: in a fan-in each tier
/// counts its own, so an aggregate scrape counts a remotely served
/// request here at the front and again under [`CTR_LOCAL_SERVED`] at
/// the backend that served it.
pub const CTR_REMOTE_SERVED: usize = 21;
/// Requests a router's in-process local slots served — every router's,
/// a plain server's over its shards included (see
/// [`CTR_REMOTE_SERVED`] on summing across tiers).
pub const CTR_LOCAL_SERVED: usize = 22;
/// Backend stream failures a router observed (each voids one
/// sub-batch).
pub const CTR_BACKEND_FAILURES: usize = 23;
/// Requests a router found invalid and left to its fallback, unrouted.
pub const CTR_INVALID_REQUESTS: usize = 24;
/// Requests a router sent straight to its fallback because their
/// backend was inside a saturation window.
pub const CTR_SATURATED_ROUTES: usize = 25;
/// Number of named counters in the registry.
pub const NUM_COUNTERS: usize = 26;

/// Display names, indexed by the `CTR_*` constants.
pub const COUNTER_NAMES: [&str; NUM_COUNTERS] = [
    "requests",
    "batches",
    "exact_hits",
    "closed_form_hits",
    "solver_solves",
    "batch_dedup_hits",
    "errors",
    "lru_inserts",
    "lru_evictions",
    "exact_hits_closed_form",
    "exact_hits_factorized",
    "byte_evictions",
    "auto_respawns",
    "quarantines",
    "injected_faults",
    "shed_rejects",
    "degraded_serves",
    "deadline_expired",
    "overloaded_received",
    "failover_reserves",
    "saturation_opens",
    "remote_served",
    "local_served",
    "backend_failures",
    "invalid_requests",
    "saturated_routes",
];

/// Gauge merge kind: values sum across sources (disjoint levels, e.g.
/// per-shard LRU residency).
pub const GAUGE_KIND_SUM: u8 = 0;
/// Gauge merge kind: values max across sources (a shared high-water
/// mark, e.g. queue-depth peak).
pub const GAUGE_KIND_MAX: u8 = 1;

/// Current admission-queue depth (Σ across sources).
pub const GAUGE_QUEUE_DEPTH: usize = 0;
/// Admission-queue high-water mark (max across sources).
pub const GAUGE_QUEUE_DEPTH_PEAK: usize = 1;
/// Entries resident in the exact-match LRU tier (Σ — disjoint shards).
pub const GAUGE_LRU_ENTRIES: usize = 2;
/// Bytes resident in the exact-match LRU tier, the quantity the cache
/// byte budget bounds (Σ).
pub const GAUGE_LRU_BYTES: usize = 3;
/// Live (non-quarantined, non-dead) backends behind a front (Σ).
pub const GAUGE_LIVE_BACKENDS: usize = 4;
/// Backend-saturation windows currently open (Σ).
pub const GAUGE_SATURATION_OPEN: usize = 5;
/// Number of named gauges in the registry.
pub const NUM_GAUGES: usize = 6;

/// Display names, indexed by the `GAUGE_*` constants.
pub const GAUGE_NAMES: [&str; NUM_GAUGES] = [
    "queue_depth",
    "queue_depth_peak",
    "lru_entries",
    "lru_bytes",
    "live_backends",
    "saturation_open",
];

/// Merge kinds, indexed by the `GAUGE_*` constants.
pub const GAUGE_KINDS: [u8; NUM_GAUGES] = [
    GAUGE_KIND_SUM,
    GAUGE_KIND_MAX,
    GAUGE_KIND_SUM,
    GAUGE_KIND_SUM,
    GAUGE_KIND_SUM,
    GAUGE_KIND_SUM,
];

/// Wall time of one served batch, ns.
pub const HIST_BATCH_NS: usize = 0;
/// Per-request service time, ns (batch wall time ÷ batch size, one
/// sample per request so percentiles weight by request, not batch).
pub const HIST_REQUEST_NS: usize = 1;
/// Number of named histograms in the registry.
pub const NUM_HISTS: usize = 2;

/// Display names, indexed by the `HIST_*` constants.
pub const HIST_NAMES: [&str; NUM_HISTS] = ["batch_ns", "request_ns"];

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Sub-bucket resolution of the log-bucket scheme: 2^3 = 8
/// sub-buckets per octave.
pub const SUB_BITS: u32 = 3;
/// Bucket count of the log-bucket scheme (covers all of u64).
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + (1 << SUB_BITS);

/// Log-spaced fixed buckets over u64 nanoseconds: 2^[`SUB_BITS`]
/// sub-buckets per octave (≤ 12.5% relative width), exact below
/// 2^[`SUB_BITS`]. The HdrHistogram bucketing scheme, sized down.
pub fn bucket_of(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + sub
}

/// Upper edge (inclusive) of a bucket — what quantile extraction
/// reports, so tails are never under-stated.
pub fn bucket_high(idx: usize) -> u64 {
    if idx < (1 << SUB_BITS) {
        return idx as u64;
    }
    let group = (idx >> SUB_BITS) as u32;
    let sub = (idx & ((1 << SUB_BITS) - 1)) as u64;
    let msb = group + SUB_BITS - 1;
    let width = 1u64 << (msb - SUB_BITS);
    (1u64 << msb) + (sub + 1) * width - 1
}

/// A level with a high-water mark: current value plus the peak it has
/// ever reached. Owned by the component whose level it measures (the
/// admission queue, a router); injected into snapshots at scrape
/// time.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Raises the level by `n`, returning the new value. Does **not**
    /// advance the peak — callers that admit conditionally (the shed
    /// ladder) record the peak only for levels that are actually
    /// held, via [`note_peak`](Self::note_peak).
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.value.fetch_add(n, Ordering::AcqRel) + n
    }

    /// Lowers the level by `n` (saturating semantics are the caller's
    /// responsibility — levels are balanced add/sub pairs).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.value.fetch_sub(n, Ordering::AcqRel);
    }

    /// Folds `v` into the high-water mark.
    #[inline]
    pub fn note_peak(&self, v: u64) {
        self.peak.fetch_max(v, Ordering::AcqRel);
    }

    /// Overwrites the level (for sampled gauges, e.g. LRU residency),
    /// advancing the peak.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Release);
        self.note_peak(v);
    }

    /// The current level.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// The high-water mark.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Acquire)
    }
}

/// The counters of one shared owner (an admission controller, a
/// router): one relaxed atomic per registry slot, indexed by the
/// `CTR_*` constants, so the slot is where the count is held. An
/// owner counts into its own slots and leaves the rest at zero, and
/// its scrape copies the whole table with [`fill`](Self::fill). An
/// owner reached only through `&mut` (a policy service) holds a plain
/// `[u64; NUM_COUNTERS]` instead.
#[derive(Debug, Default)]
pub struct CounterTable([AtomicU64; NUM_COUNTERS]);

impl CounterTable {
    /// Counts `n` events under registry slot `idx`.
    #[inline]
    pub fn add(&self, idx: usize, n: u64) {
        self.0[idx].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds the table into `snap`'s counters: a zeroed snapshot then
    /// reads exactly the table, and one already holding another
    /// owner's counts (a router's fallback solver) reads their sum.
    pub fn fill(&self, snap: &mut MetricsSnapshot) {
        for (c, v) in snap.counters.iter_mut().zip(&self.0) {
            *c = c.wrapping_add(v.load(Ordering::Relaxed));
        }
    }
}

/// A permanently-armed latency histogram: fixed log-spaced buckets
/// ([`bucket_of`] — ≤ 12.5% relative edge error), one relaxed
/// `fetch_add` per sample.
#[derive(Debug)]
pub struct Histogram {
    counts: Box<[AtomicU64]>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records `n` occurrences of value `v` (typically nanoseconds).
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        self.counts[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// The sparse frozen form (non-zero buckets, ascending index).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        for (idx, c) in self.counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n != 0 {
                buckets.push((idx as u16, n));
            }
        }
        HistSnapshot { buckets }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The serve path's two latency histograms (`HIST_*`), owned by one
/// serving component: a process running several servers reports each
/// server's latencies from that server alone.
#[derive(Debug, Default)]
pub struct LatencyHists([Histogram; NUM_HISTS]);

impl LatencyHists {
    /// Records one served batch of `requests` that took `elapsed_ns`,
    /// when recording is on: the batch once into [`HIST_BATCH_NS`],
    /// and every request at the batch mean into [`HIST_REQUEST_NS`] —
    /// one bucket update for the whole batch instead of per-request
    /// clock reads, which is what keeps "always-on" near-free.
    #[inline]
    pub fn record_batch(&self, elapsed_ns: u64, requests: u64) {
        if !recording_on() {
            return;
        }
        self.0[HIST_BATCH_NS].record(elapsed_ns);
        if let Some(per_request) = elapsed_ns.checked_div(requests) {
            self.0[HIST_REQUEST_NS].record_n(per_request, requests);
        }
    }

    /// Freezes both histograms into `snap`'s histogram slots.
    pub fn fill(&self, snap: &mut MetricsSnapshot) {
        for (slot, h) in snap.hists.iter_mut().zip(&self.0) {
            *slot = h.snapshot();
        }
    }
}

/// A frozen histogram: `(bucket index, count)` pairs, ascending
/// index, zero buckets omitted — the form that rides the wire and
/// merges across shards/backends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Non-zero `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u16, u64)>,
}

impl HistSnapshot {
    /// Total sample count.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|&(_, n)| n).sum()
    }

    /// Bucket-wise sum — associative and order-insensitive (pinned by
    /// property test), so a cluster fan-in may merge backends in any
    /// order and still equal the single-process histogram.
    pub fn merge(&mut self, other: &HistSnapshot) {
        let mut out = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            let a = self.buckets.get(i).copied();
            let b = other.buckets.get(j).copied();
            match (a, b) {
                (Some((ia, na)), Some((ib, _))) if ia < ib => {
                    out.push((ia, na));
                    i += 1;
                }
                (Some((ia, _)), Some((ib, nb))) if ib < ia => {
                    out.push((ib, nb));
                    j += 1;
                }
                (Some((ia, na)), Some((_, nb))) => {
                    out.push((ia, na + nb));
                    i += 1;
                    j += 1;
                }
                (Some((ia, na)), None) => {
                    out.push((ia, na));
                    i += 1;
                }
                (None, Some((ib, nb))) => {
                    out.push((ib, nb));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = out;
    }

    /// The value at quantile `q` (upper bucket edge — tails are never
    /// under-stated), or 0 with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_high(usize::from(idx));
            }
        }
        bucket_high(NUM_BUCKETS - 1)
    }
}

// ---------------------------------------------------------------------------
// Snapshots and merge
// ---------------------------------------------------------------------------

/// One scrape of a metrics plane: dense counters (indexed by the
/// `CTR_*` registry), kind-tagged gauges (`GAUGE_*`), and sparse
/// histograms (`HIST_*`). The gauge merge kind travels **with the
/// data**, so a fan-in needs no out-of-band schema: Σ counters,
/// Σ-or-max per gauge kind, bucket-wise Σ histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, indexed by the `CTR_*` constants.
    pub counters: Vec<u64>,
    /// `(merge kind, value)` per gauge, indexed by the `GAUGE_*`
    /// constants. Kind is [`GAUGE_KIND_SUM`] or [`GAUGE_KIND_MAX`].
    pub gauges: Vec<(u8, u64)>,
    /// Sparse histograms, indexed by the `HIST_*` constants.
    pub hists: Vec<HistSnapshot>,
}

impl MetricsSnapshot {
    /// An all-zero snapshot with the full current registry shape
    /// (the merge identity).
    pub fn zeroed() -> Self {
        MetricsSnapshot {
            counters: vec![0; NUM_COUNTERS],
            gauges: GAUGE_KINDS.iter().map(|&k| (k, 0)).collect(),
            hists: vec![HistSnapshot::default(); NUM_HISTS],
        }
    }

    /// Folds `other` in: counters sum, gauges sum or max per their
    /// kind tag, histograms merge bucket-wise. Tolerates length
    /// mismatches (an older peer reporting a shorter registry) by
    /// treating missing entries as absent, so mixed-version fan-ins
    /// stay lossless for the fields both sides know.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        if self.counters.len() < other.counters.len() {
            self.counters.resize(other.counters.len(), 0);
        }
        for (i, &v) in other.counters.iter().enumerate() {
            self.counters[i] = self.counters[i].wrapping_add(v);
        }
        for (i, &(kind, v)) in other.gauges.iter().enumerate() {
            if i < self.gauges.len() {
                let (k, cur) = self.gauges[i];
                self.gauges[i] = match k {
                    GAUGE_KIND_MAX => (k, cur.max(v)),
                    _ => (k, cur.wrapping_add(v)),
                };
            } else {
                self.gauges.push((kind, v));
            }
        }
        for (i, h) in other.hists.iter().enumerate() {
            if i < self.hists.len() {
                self.hists[i].merge(h);
            } else {
                self.hists.push(h.clone());
            }
        }
    }

    /// A named counter, 0 when the snapshot predates it.
    pub fn counter(&self, idx: usize) -> u64 {
        self.counters.get(idx).copied().unwrap_or(0)
    }

    /// A named gauge value, 0 when the snapshot predates it.
    pub fn gauge(&self, idx: usize) -> u64 {
        self.gauges.get(idx).map(|&(_, v)| v).unwrap_or(0)
    }

    /// A named histogram, empty when the snapshot predates it.
    pub fn hist(&self, idx: usize) -> HistSnapshot {
        self.hists.get(idx).cloned().unwrap_or_default()
    }
}

/// A ring of the last K counter snapshots, so every counter also
/// reads as a **rate**: `rate_per_sec` diffs the newest entry against
/// the oldest over the window's wall time. Negative deltas (a
/// restarted source whose fan-in was not re-based) clamp to zero
/// rather than going backwards.
#[derive(Debug, Clone)]
pub struct SnapshotRing {
    cap: usize,
    entries: VecDeque<(u64, Vec<u64>)>,
}

impl SnapshotRing {
    /// A ring keeping the last `cap` (≥ 2) snapshots.
    pub fn new(cap: usize) -> Self {
        SnapshotRing {
            cap: cap.max(2),
            entries: VecDeque::new(),
        }
    }

    /// Appends one scrape (`ts_ns` from a monotone clock), dropping
    /// the oldest past capacity.
    pub fn push(&mut self, ts_ns: u64, counters: &[u64]) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back((ts_ns, counters.to_vec()));
    }

    /// Wall time spanned by the ring, ns.
    pub fn window_ns(&self) -> u64 {
        match (self.entries.front(), self.entries.back()) {
            (Some(&(t0, _)), Some(&(t1, _))) => t1.saturating_sub(t0),
            _ => 0,
        }
    }

    /// Counter delta over the window (clamped at zero).
    pub fn delta(&self, idx: usize) -> u64 {
        match (self.entries.front(), self.entries.back()) {
            (Some((_, old)), Some((_, new))) => {
                let a = old.get(idx).copied().unwrap_or(0);
                let b = new.get(idx).copied().unwrap_or(0);
                b.saturating_sub(a)
            }
            _ => 0,
        }
    }

    /// Counter rate over the window, per second (0 with < 2 entries).
    pub fn rate_per_sec(&self, idx: usize) -> f64 {
        let window = self.window_ns();
        if window == 0 {
            return 0.0;
        }
        self.delta(idx) as f64 * 1e9 / window as f64
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Flight-recorder ring capacity (events; overflow drops oldest).
pub const RECORDER_CAPACITY: usize = 4096;

/// A significant ops event — the flight recorder's vocabulary. The
/// event is logged, not counted: its count lives with the component
/// it happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpsKind {
    /// A request was shed by the admission ladder.
    Shed,
    /// An `Overloaded` frame arrived from a backend.
    OverloadedReceived,
    /// A request's deadline budget expired before service.
    DeadlineMiss,
    /// Requests were re-served locally after a backend failure (the
    /// event's `detail` is how many).
    FailoverReserve,
    /// A dead backend was respawned.
    Respawn,
    /// A backend slot was quarantined onto the fallback solver.
    Quarantine,
    /// A backend-saturation window opened.
    SaturationOpen,
    /// A backend-saturation window lapsed.
    SaturationClose,
}

impl OpsKind {
    /// The event's display (and Perfetto) name.
    pub fn name(self) -> &'static str {
        match self {
            OpsKind::Shed => "shed",
            OpsKind::OverloadedReceived => "overloaded_received",
            OpsKind::DeadlineMiss => "deadline_miss",
            OpsKind::FailoverReserve => "failover_reserve",
            OpsKind::Respawn => "respawn",
            OpsKind::Quarantine => "quarantine",
            OpsKind::SaturationOpen => "saturation_open",
            OpsKind::SaturationClose => "saturation_close",
        }
    }
}

/// One recorded ops event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpsEvent {
    /// Monotone sequence number (process-wide, never reused) — ring
    /// overflow is visible as a gap.
    pub seq: u64,
    /// Nanoseconds since the trace epoch ([`econcast_trace::now_ns`]).
    pub ts_ns: u64,
    /// What happened.
    pub kind: OpsKind,
    /// Primary argument (slot / shard index where meaningful).
    pub slot: u64,
    /// Secondary argument (event-specific detail, e.g. retry hint µs).
    pub detail: u64,
}

#[derive(Debug, Default)]
struct Recorder {
    events: VecDeque<OpsEvent>,
    dropped: u64,
    next_seq: u64,
}

// ---------------------------------------------------------------------------
// The process-global hub
// ---------------------------------------------------------------------------

/// The process-global part of the metrics plane: the flight
/// recorder. Counters, gauges and histograms are *not* here — they are
/// owned by their components and filled in at scrape time.
#[derive(Debug)]
pub struct Hub {
    recorder: Mutex<Recorder>,
}

static HUB: OnceLock<Hub> = OnceLock::new();
static RECORDING: AtomicBool = AtomicBool::new(true);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The process-global hub.
pub fn hub() -> &'static Hub {
    HUB.get_or_init(|| Hub {
        recorder: Mutex::new(Recorder::default()),
    })
}

/// Whether the plane is recording (default **on** — this is the
/// always-on plane; the bench harness turns it off to measure its own
/// overhead).
#[inline(always)]
pub fn recording_on() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Turns recording on or off, process-wide.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Records one flight-recorder event. It logs the event and counts
/// nothing: the component the event happened in already counted it.
/// Touches a mutex — call on *rare* events only, never on the
/// per-request fast path.
pub fn ops_event(kind: OpsKind, slot: u64, detail: u64) {
    if !recording_on() {
        return;
    }
    let mut rec = lock(&hub().recorder);
    if rec.events.len() == RECORDER_CAPACITY {
        rec.events.pop_front();
        rec.dropped += 1;
    }
    let seq = rec.next_seq;
    rec.next_seq += 1;
    rec.events.push_back(OpsEvent {
        seq,
        ts_ns: econcast_trace::now_ns(),
        kind,
        slot,
        detail,
    });
}

/// The recorder's current contents, oldest first.
pub fn recorder_events() -> Vec<OpsEvent> {
    lock(&hub().recorder).events.iter().copied().collect()
}

/// Events lost to ring overflow so far.
pub fn recorder_dropped() -> u64 {
    lock(&hub().recorder).dropped
}

/// Empties the recorder ring (keeps the sequence counter running, so
/// post-clear events are still globally ordered).
pub fn recorder_clear() {
    let mut rec = lock(&hub().recorder);
    rec.events.clear();
    rec.dropped = 0;
}

/// Renders the recorder as Chrome/Perfetto JSON instant events
/// (category `ops`, args `seq`/`slot`/`detail`) through
/// [`econcast_trace::to_chrome_json`], loadable by `chrome://tracing`
/// and the Perfetto UI — the black-box dump a chaos run leaves behind.
pub fn recorder_dump_json() -> String {
    let events = recorder_events()
        .into_iter()
        .map(|ev| econcast_trace::TraceEvent {
            tid: 1,
            kind: econcast_trace::EventKind::Instant,
            cat: "ops",
            name: ev.kind.name(),
            ts_ns: ev.ts_ns,
            dur_ns: 0,
            args: vec![("seq", ev.seq), ("slot", ev.slot), ("detail", ev.detail)],
        })
        .collect();
    econcast_trace::to_chrome_json(&econcast_trace::TraceSnapshot {
        events,
        ..Default::default()
    })
}

/// Empties the recorder — a clean slate for tests and bench runs.
/// Leaves the recording switch alone.
pub fn reset() {
    recorder_clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests of the global hub toggle process-wide state; serialize
    /// them (the trace crate's pattern).
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        let guard = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_recording(true);
        reset();
        guard
    }

    #[test]
    fn gauge_tracks_level_and_peak_independently() {
        let g = Gauge::new();
        assert_eq!(g.add(3), 3);
        g.note_peak(3);
        assert_eq!(g.add(2), 5);
        // Conditional admission: the caller may decline to note the
        // peak (a shed never holds a slot).
        g.sub(2);
        assert_eq!(g.value(), 3);
        assert_eq!(g.peak(), 3);
        g.set(10);
        assert_eq!((g.value(), g.peak()), (10, 10));
        g.set(1);
        assert_eq!((g.value(), g.peak()), (1, 10));
    }

    #[test]
    fn bucket_scheme_is_monotone_and_bounded() {
        let mut last = 0usize;
        for shift in 0..63 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift).saturating_add(off);
                let b = bucket_of(v);
                assert!(b >= last || v < (1 << SUB_BITS));
                assert!(b < NUM_BUCKETS);
                assert!(bucket_high(b) >= v);
                // Upper edge is within 12.5% above the value (or exact
                // for small values).
                assert!(bucket_high(b) as f64 <= v as f64 * 1.125 + 1.0);
                last = b;
            }
        }
        assert!(bucket_of(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn histogram_snapshot_quantiles_match_trace_buckets() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.total(), 100);
        assert_eq!(snap.quantile(0.50), bucket_high(bucket_of(1_000)));
        assert_eq!(snap.quantile(1.0), bucket_high(bucket_of(1_000_000)));
        // Upper-edge reporting: never under-states.
        assert!(snap.quantile(0.50) >= 1_000);
    }

    #[test]
    fn percentiles_on_known_distribution() {
        // 1000 samples: 988 at 1µs, 10 at 100µs, 2 at 10ms.
        let h = Histogram::new();
        h.record_n(1_000, 988);
        h.record_n(100_000, 10);
        h.record_n(10_000_000, 2);
        let snap = h.snapshot();
        assert_eq!(snap.total(), 1000);
        let (p50, p99, p999) = (
            snap.quantile(0.50),
            snap.quantile(0.99),
            snap.quantile(0.999),
        );
        assert!((1_000..1_200).contains(&p50));
        assert!((100_000..120_000).contains(&p99));
        assert!((10_000_000..12_000_000).contains(&p999));
    }

    #[test]
    fn hist_merge_is_commutative_on_disjoint_and_overlapping_buckets() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 100, 100, 5_000]);
        let b = mk(&[100, 7, 1 << 40]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total(), a.total() + b.total());
    }

    #[test]
    fn snapshot_merge_respects_gauge_kinds() {
        let mut a = MetricsSnapshot::zeroed();
        a.counters[CTR_REQUESTS] = 10;
        a.gauges[GAUGE_QUEUE_DEPTH] = (GAUGE_KIND_SUM, 4);
        a.gauges[GAUGE_QUEUE_DEPTH_PEAK] = (GAUGE_KIND_MAX, 9);
        let mut b = MetricsSnapshot::zeroed();
        b.counters[CTR_REQUESTS] = 5;
        b.gauges[GAUGE_QUEUE_DEPTH] = (GAUGE_KIND_SUM, 3);
        b.gauges[GAUGE_QUEUE_DEPTH_PEAK] = (GAUGE_KIND_MAX, 7);
        a.merge(&b);
        assert_eq!(a.counter(CTR_REQUESTS), 15);
        assert_eq!(a.gauge(GAUGE_QUEUE_DEPTH), 7); // Σ
        assert_eq!(a.gauge(GAUGE_QUEUE_DEPTH_PEAK), 9); // max
    }

    #[test]
    fn snapshot_ring_rates_and_reset_clamp() {
        let mut ring = SnapshotRing::new(4);
        ring.push(0, &[0]);
        ring.push(1_000_000_000, &[100]);
        assert_eq!(ring.delta(0), 100);
        assert!((ring.rate_per_sec(0) - 100.0).abs() < 1e-9);
        // A source restart (counter went backwards) clamps, never
        // reads as a negative rate.
        ring.push(2_000_000_000, &[10]);
        assert_eq!(ring.delta(0), 10);
        // Capacity: oldest entries fall off.
        for i in 0..10 {
            ring.push(3_000_000_000 + i, &[1000]);
        }
        assert_eq!(ring.window_ns(), 3);
    }

    #[test]
    fn recorder_ring_wraps_keeps_newest_and_counts_drops() {
        let _g = serial();
        for i in 0..(RECORDER_CAPACITY as u64 + 7) {
            ops_event(OpsKind::Shed, i, 0);
        }
        let events = recorder_events();
        assert_eq!(events.len(), RECORDER_CAPACITY);
        assert_eq!(recorder_dropped(), 7);
        // Oldest dropped: the ring starts at event 7, stays ordered,
        // and sequence numbers expose the gap.
        assert_eq!(events[0].slot, 7);
        assert!(events
            .windows(2)
            .all(|w| { w[0].seq + 1 == w[1].seq && w[0].ts_ns <= w[1].ts_ns }));
        reset();
    }

    #[test]
    fn ops_events_log_without_counting() {
        let _g = serial();
        ops_event(OpsKind::Respawn, 2, 0);
        ops_event(OpsKind::Quarantine, 2, 0);
        ops_event(OpsKind::SaturationClose, 1, 0);
        // The router that respawned and quarantined counts those; the
        // recorder only logs them (the hub holds no counter at all).
        let names: Vec<_> = recorder_events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, vec!["respawn", "quarantine", "saturation_close"]);
        reset();
    }

    #[test]
    fn recorder_json_is_perfetto_shaped() {
        let _g = serial();
        ops_event(OpsKind::FailoverReserve, 1, 42);
        let json = recorder_dump_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"failover_reserve\""));
        assert!(json.contains("\"slot\":1"));
        assert!(json.contains("\"detail\":42"));
        assert!(json.is_ascii());
        reset();
    }

    #[test]
    fn recording_switch_gates_everything() {
        let _g = serial();
        let hists = LatencyHists::default();
        let scrape = |hists: &LatencyHists| {
            let mut snap = MetricsSnapshot::zeroed();
            hists.fill(&mut snap);
            snap
        };
        set_recording(false);
        hists.record_batch(1_000, 4);
        ops_event(OpsKind::Shed, 0, 0);
        assert_eq!(scrape(&hists).hist(HIST_BATCH_NS).total(), 0);
        assert_eq!(scrape(&hists).hist(HIST_REQUEST_NS).total(), 0);
        assert!(recorder_events().is_empty());
        set_recording(true);
        hists.record_batch(1_000, 4);
        ops_event(OpsKind::Shed, 0, 0);
        assert_eq!(scrape(&hists).hist(HIST_BATCH_NS).total(), 1);
        assert_eq!(scrape(&hists).hist(HIST_REQUEST_NS).total(), 4);
        assert_eq!(
            scrape(&hists).hist(HIST_REQUEST_NS).quantile(1.0),
            bucket_high(bucket_of(250))
        );
        assert_eq!(recorder_events().len(), 1);
        reset();
    }

    #[test]
    fn counter_table_fills_by_registry_slot() {
        let table = CounterTable::default();
        table.add(CTR_REMOTE_SERVED, 3);
        table.add(CTR_SATURATED_ROUTES, 2);
        table.add(CTR_REMOTE_SERVED, 1);
        // A zeroed snapshot reads exactly the table; one holding
        // another owner's counts reads the sum.
        let mut snap = MetricsSnapshot::zeroed();
        table.fill(&mut snap);
        let mut want = vec![0; NUM_COUNTERS];
        want[CTR_REMOTE_SERVED] = 4;
        want[CTR_SATURATED_ROUTES] = 2;
        assert_eq!(snap.counters, want);
        snap.counters[CTR_REQUESTS] = 7;
        table.fill(&mut snap);
        assert_eq!(snap.counter(CTR_REQUESTS), 7);
        assert_eq!(snap.counter(CTR_REMOTE_SERVED), 8);
    }

    #[test]
    fn registry_tables_are_consistent() {
        assert_eq!(COUNTER_NAMES.len(), NUM_COUNTERS);
        assert_eq!(GAUGE_NAMES.len(), NUM_GAUGES);
        assert_eq!(GAUGE_KINDS.len(), NUM_GAUGES);
        assert_eq!(HIST_NAMES.len(), NUM_HISTS);
        assert_eq!(GAUGE_KINDS[GAUGE_QUEUE_DEPTH_PEAK], GAUGE_KIND_MAX);
        // Counter names are unique: a scrape is read by name.
        for (i, a) in COUNTER_NAMES.iter().enumerate() {
            assert!(!COUNTER_NAMES[i + 1..].contains(a), "{a} twice");
        }
        let z = MetricsSnapshot::zeroed();
        assert_eq!(z.counters.len(), NUM_COUNTERS);
        assert_eq!(z.gauges.len(), NUM_GAUGES);
        assert_eq!(z.hists.len(), NUM_HISTS);
    }
}
