//! Per-tier serving counters: a view of a metrics scrape.
//!
//! [`ServiceStats`] is plain data: one service's (or shard's, or a
//! whole deployment's) counters, read out of a [`MetricsSnapshot`].
//! It holds no count of its own — every count lives in its owner's
//! registry-indexed table, and `PolicyService::stats` is this view of
//! `PolicyService::metrics`. Its 18 counters are the first entries of
//! the `econcast-metrics` registry
//! (`CTR_REQUESTS` ..= `CTR_DEADLINE_EXPIRED`), and its two
//! levels are registry gauges — `lru_len` is `GAUGE_LRU_ENTRIES`
//! (shards hold disjoint key ranges, so levels sum) and
//! `queue_depth_peak` is `GAUGE_QUEUE_DEPTH_PEAK` (shards share one
//! admission queue, so peaks max). [`to_snapshot`](ServiceStats::to_snapshot)
//! and [`from_snapshot`](ServiceStats::from_snapshot) convert, and
//! [`merge`](ServiceStats::merge) goes through the snapshot merge, so
//! the registry's `GAUGE_KINDS` is the only merge table.

use econcast_metrics::{
    MetricsSnapshot, CTR_AUTO_RESPAWNS, CTR_BATCHES, CTR_BATCH_DEDUP_HITS, CTR_BYTE_EVICTIONS,
    CTR_CLOSED_FORM_HITS, CTR_DEADLINE_EXPIRED, CTR_DEGRADED_SERVES, CTR_ERRORS, CTR_EXACT_HITS,
    CTR_EXACT_HITS_CLOSED_FORM, CTR_EXACT_HITS_FACTORIZED, CTR_INJECTED_FAULTS, CTR_LRU_EVICTIONS,
    CTR_LRU_INSERTS, CTR_QUARANTINES, CTR_REQUESTS, CTR_SHED_REJECTS, CTR_SOLVER_SOLVES,
    GAUGE_LRU_ENTRIES, GAUGE_QUEUE_DEPTH_PEAK,
};

/// A snapshot of one service's (or one shard's) counters since
/// construction, read out of a metrics scrape (`PolicyService::stats`
/// in process, `PolicyClient::stats` over the wire); plain data,
/// cheap to copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests received (including failed ones).
    pub requests: u64,
    /// Batches served.
    pub batches: u64,
    /// Requests answered from the exact-match LRU tier.
    pub exact_hits: u64,
    /// Requests answered by the homogeneous closed-form tier.
    pub closed_form_hits: u64,
    /// Requests that ran the exact (P4) dual-descent solver.
    pub solver_solves: u64,
    /// Requests answered by referencing an identical instance solved
    /// earlier in the *same* batch (no extra solve).
    pub batch_dedup_hits: u64,
    /// Requests rejected (validation or size).
    pub errors: u64,
    /// Always 0: the service builds no interpolation grids. Kept only
    /// so `servebench/` compiles; the next benchmark change deletes
    /// it. Not in the metrics registry.
    pub grid_builds: u64,
    /// Entries inserted into the LRU.
    pub lru_inserts: u64,
    /// Entries evicted from the LRU.
    pub lru_evictions: u64,
    /// Entries currently resident in the LRU.
    pub lru_len: u64,
    /// Exact-tier hits whose entry was produced by the homogeneous
    /// closed form — with [`exact_hits_factorized`](Self::exact_hits_factorized)
    /// this attributes the two kernels that matter at large N, so
    /// cache behaviour there (where the factorized solver feeds the
    /// LRU) is observable separately from the closed-form traffic.
    /// Hits on Gray-code-produced entries land in neither
    /// counter (the sum is ≤ `exact_hits`, not a partition of it);
    /// per-response attribution for *every* kernel rides the
    /// `kernel` tag on `PolicyResponse`.
    pub exact_hits_closed_form: u64,
    /// Exact-tier hits whose entry was produced by the factorized
    /// large-N solver.
    pub exact_hits_factorized: u64,
    /// LRU entries evicted to satisfy the cache **byte budget**
    /// (`ServiceConfig::max_cache_bytes`), as opposed to
    /// [`lru_evictions`](Self::lru_evictions) which counts evictions
    /// for any reason (entry-count capacity included).
    pub byte_evictions: u64,
    /// Dead backends automatically respawned and retargeted by the
    /// cluster's supervisor policy loop. Always zero for a plain
    /// service — the cluster router counts the three self-healing
    /// counters and the cluster front fills them into its aggregate.
    pub auto_respawns: u64,
    /// Backend slots quarantined onto the local fallback solver after
    /// exhausting their respawn budget (cluster router).
    pub quarantines: u64,
    /// Faults injected by a scripted fault plan — nonzero only under
    /// the chaos harness (cluster router).
    pub injected_faults: u64,
    /// Requests answered `Overloaded`: shed by the admission ladder,
    /// or admitted and then past their deadline (admission
    /// controller).
    pub shed_rejects: u64,
    /// Requests served at a relaxed — still certificate-reported —
    /// tolerance because the admission queue was past its degrade
    /// threshold (admission controller). The relaxation loosens the
    /// heterogeneous solver's stopping tolerance; a homogeneous
    /// closed-form answer does not depend on tolerance (admission
    /// controller).
    pub degraded_serves: u64,
    /// Requests whose `deadline_us` budget expired before (or during)
    /// service; each also counts in
    /// [`shed_rejects`](Self::shed_rejects) — the caller saw an
    /// `Overloaded`, never a late result (admission controller).
    pub deadline_expired: u64,
    /// High-water mark of the admission queue depth — a gauge, not a
    /// counter: [`merge`](Self::merge) takes the max, and the CI
    /// overload-smoke job asserts it stays within `queue_capacity`
    /// (bounded queue memory).
    pub queue_depth_peak: u64,
}

impl ServiceStats {
    /// The counter fields, each with its registry index.
    fn counters_mut(&mut self) -> [(usize, &mut u64); 18] {
        [
            (CTR_REQUESTS, &mut self.requests),
            (CTR_BATCHES, &mut self.batches),
            (CTR_EXACT_HITS, &mut self.exact_hits),
            (CTR_CLOSED_FORM_HITS, &mut self.closed_form_hits),
            (CTR_SOLVER_SOLVES, &mut self.solver_solves),
            (CTR_BATCH_DEDUP_HITS, &mut self.batch_dedup_hits),
            (CTR_ERRORS, &mut self.errors),
            (CTR_LRU_INSERTS, &mut self.lru_inserts),
            (CTR_LRU_EVICTIONS, &mut self.lru_evictions),
            (CTR_EXACT_HITS_CLOSED_FORM, &mut self.exact_hits_closed_form),
            (CTR_EXACT_HITS_FACTORIZED, &mut self.exact_hits_factorized),
            (CTR_BYTE_EVICTIONS, &mut self.byte_evictions),
            (CTR_AUTO_RESPAWNS, &mut self.auto_respawns),
            (CTR_QUARANTINES, &mut self.quarantines),
            (CTR_INJECTED_FAULTS, &mut self.injected_faults),
            (CTR_SHED_REJECTS, &mut self.shed_rejects),
            (CTR_DEGRADED_SERVES, &mut self.degraded_serves),
            (CTR_DEADLINE_EXPIRED, &mut self.deadline_expired),
        ]
    }

    /// This snapshot as a registry-shaped metrics scrape: counters
    /// under their `CTR_*` indices, `lru_len` and `queue_depth_peak`
    /// under their gauges, everything else zero.
    pub fn to_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::zeroed();
        let mut fields = *self;
        for (idx, v) in fields.counters_mut() {
            snap.counters[idx] = *v;
        }
        snap.gauges[GAUGE_LRU_ENTRIES].1 = self.lru_len;
        snap.gauges[GAUGE_QUEUE_DEPTH_PEAK].1 = self.queue_depth_peak;
        snap
    }

    /// The serving-counter view of a metrics scrape (what
    /// `PolicyClient::stats` returns).
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        let mut stats = ServiceStats {
            lru_len: snap.gauge(GAUGE_LRU_ENTRIES),
            queue_depth_peak: snap.gauge(GAUGE_QUEUE_DEPTH_PEAK),
            ..ServiceStats::default()
        };
        for (idx, v) in stats.counters_mut() {
            *v = snap.counter(idx);
        }
        stats
    }

    /// Accumulates another snapshot into this one — how per-shard
    /// snapshots aggregate into a deployment total. Merges through
    /// [`MetricsSnapshot::merge`]: counters and `lru_len` sum,
    /// `queue_depth_peak` takes the max.
    pub fn merge(&mut self, other: &ServiceStats) {
        let mut snap = self.to_snapshot();
        snap.merge(&other.to_snapshot());
        *self = ServiceStats::from_snapshot(&snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use econcast_metrics::{GAUGE_KINDS, GAUGE_KIND_MAX, GAUGE_KIND_SUM, NUM_COUNTERS};

    /// Every field distinct: 1..=20 in declaration order.
    fn counting() -> ServiceStats {
        ServiceStats {
            requests: 1,
            batches: 2,
            exact_hits: 3,
            closed_form_hits: 4,
            solver_solves: 5,
            batch_dedup_hits: 6,
            errors: 7,
            grid_builds: 0,
            lru_inserts: 8,
            lru_evictions: 9,
            lru_len: 10,
            exact_hits_closed_form: 11,
            exact_hits_factorized: 12,
            byte_evictions: 13,
            auto_respawns: 14,
            quarantines: 15,
            injected_faults: 16,
            shed_rejects: 17,
            degraded_serves: 18,
            deadline_expired: 19,
            queue_depth_peak: 20,
        }
    }

    #[test]
    fn wire_roundtrip_is_lossless() {
        let s = counting();
        let snap = s.to_snapshot();
        assert_eq!(ServiceStats::from_snapshot(&snap), s);
        // Every field is distinct in the fixture, so a swapped mapping
        // in either direction would break the equality above; the
        // registry slots themselves are pinned here.
        assert_eq!(snap.counter(CTR_REQUESTS), 1);
        assert_eq!(snap.counter(CTR_CLOSED_FORM_HITS), 4);
        assert_eq!(snap.counter(CTR_ERRORS), 7);
        assert_eq!(snap.counter(CTR_LRU_INSERTS), 8);
        assert_eq!(snap.counter(CTR_EXACT_HITS_CLOSED_FORM), 11);
        assert_eq!(snap.counter(CTR_AUTO_RESPAWNS), 14);
        assert_eq!(snap.counter(CTR_SHED_REJECTS), 17);
        assert_eq!(snap.counter(CTR_DEADLINE_EXPIRED), 19);
        assert_eq!(snap.gauge(GAUGE_LRU_ENTRIES), 10);
        assert_eq!(snap.gauge(GAUGE_QUEUE_DEPTH_PEAK), 20);
        // The cluster-only counters past the 18 are not service fields.
        assert!(snap.counters[18..NUM_COUNTERS].iter().all(|&c| c == 0));
        assert_eq!(s.grid_builds, 0, "the shim is not in the registry");
    }

    #[test]
    fn merge_sums_every_counter_except_the_peak_gauge() {
        let s = counting();
        let mut total = ServiceStats::default();
        total.merge(&s);
        total.merge(&s);
        let mut expect = s.to_snapshot();
        for c in &mut expect.counters {
            *c *= 2;
        }
        expect.gauges[GAUGE_LRU_ENTRIES].1 *= 2;
        // queue_depth_peak is a max gauge: merging identical snapshots
        // keeps the max, not the sum.
        assert_eq!(total.to_snapshot(), expect);
    }

    #[test]
    fn stat_kinds_flag_exactly_the_two_gauges() {
        // The two levels ride registry gauges whose kinds drive the
        // merge: lru_len sums across disjoint shards, the queue peak
        // maxes across a shared queue. Every other field is a counter.
        assert_eq!(GAUGE_KINDS[GAUGE_LRU_ENTRIES], GAUGE_KIND_SUM);
        assert_eq!(GAUGE_KINDS[GAUGE_QUEUE_DEPTH_PEAK], GAUGE_KIND_MAX);
        let gauges_only = ServiceStats {
            lru_len: 5,
            queue_depth_peak: 7,
            ..ServiceStats::default()
        };
        assert!(gauges_only.to_snapshot().counters.iter().all(|&c| c == 0));
        let mut a = ServiceStats {
            requests: 1,
            ..gauges_only
        };
        let b = ServiceStats {
            lru_len: 3,
            queue_depth_peak: 4,
            requests: 1,
            ..ServiceStats::default()
        };
        a.merge(&b);
        assert_eq!(a.lru_len, 8);
        assert_eq!(a.queue_depth_peak, 7);
        assert_eq!(a.requests, 2);
    }
}
