//! Per-tier serving counters.
//!
//! ## Counters vs gauges
//!
//! The stats block is *almost* all counters — monotone totals since
//! construction, merged across shards and backends by summing. Two
//! fields are gauges (instantaneous levels) riding the same wire
//! block for history's sake, and each carries its merge rule in
//! [`STAT_KINDS`]:
//!
//! - `lru_len` is a [`StatKind::GaugeSum`]: shards hold disjoint key
//!   ranges, so total residency is the sum of the levels.
//! - `queue_depth_peak` is a [`StatKind::GaugeMax`]: shards share one
//!   admission queue, so the deployment peak is the max.
//!
//! [`merge`](ServiceStats::merge) is driven by the table, not by
//! hand-maintained per-field code — a new field merges wrong only if
//! its kind is declared wrong. The richer metrics plane
//! (`econcast-metrics`) makes the same distinction self-describing on
//! the wire by tagging every gauge with its merge kind.

use econcast_proto::service::{WireServiceStats, STATS_COUNTERS};

/// Merge semantics of one [`ServiceStats`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// Monotone total; aggregates by sum.
    Counter,
    /// Instantaneous level over disjoint domains; aggregates by sum.
    GaugeSum,
    /// Instantaneous level over a shared domain; aggregates by max.
    GaugeMax,
}

/// Merge kind of every stats field, in wire order (the order of
/// [`WireServiceStats::to_array`]).
pub const STAT_KINDS: [StatKind; STATS_COUNTERS] = {
    let mut kinds = [StatKind::Counter; STATS_COUNTERS];
    kinds[9] = StatKind::GaugeSum; // lru_len
    kinds[19] = StatKind::GaugeMax; // queue_depth_peak
    kinds
};

/// A snapshot of one service's (or one shard's) counters since
/// construction. Obtained from `PolicyService::stats` or per shard
/// from `ShardRouter::shard_stats`; plain data, cheap to copy.
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
    /// so `servebench/` compiles; the next benchmark PR deletes it.
    /// Not on the wire.
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
    /// service — the cluster front overlays the three self-healing
    /// counters on the aggregate it reports, so they ride the same
    /// wire block as the per-tier counters.
    pub auto_respawns: u64,
    /// Backend slots quarantined onto the local fallback solver after
    /// exhausting their respawn budget (cluster overlay).
    pub quarantines: u64,
    /// Faults injected by a scripted fault plan — nonzero only under
    /// the chaos harness (cluster overlay).
    pub injected_faults: u64,
    /// Requests rejected with `Overloaded` past the shed ladder
    /// (admission overlay).
    pub shed_rejects: u64,
    /// Requests served at a relaxed — still certificate-reported —
    /// tolerance because the admission queue was past its degrade
    /// threshold (admission overlay). The relaxation loosens the
    /// heterogeneous solver's stopping tolerance; a homogeneous
    /// closed-form answer does not depend on tolerance.
    pub degraded_serves: u64,
    /// Requests whose `deadline_us` budget expired before (or during)
    /// service; each also counts in
    /// [`shed_rejects`](Self::shed_rejects) — the caller saw an
    /// `Overloaded`, never a late result (admission overlay).
    pub deadline_expired: u64,
    /// High-water mark of the admission queue depth — a gauge, not a
    /// counter: [`merge`](Self::merge) takes the max, and the CI
    /// overload-smoke job asserts it stays within `queue_capacity`
    /// (bounded queue memory).
    pub queue_depth_peak: u64,
}

impl ServiceStats {
    /// Requests served without touching any solver (exact + in-batch
    /// dedup).
    pub fn solver_free(&self) -> u64 {
        self.exact_hits + self.batch_dedup_hits
    }

    /// Total requests answered successfully.
    pub fn served(&self) -> u64 {
        self.exact_hits + self.closed_form_hits + self.solver_solves + self.batch_dedup_hits
    }

    /// Accumulates another snapshot into this one — how per-shard
    /// snapshots aggregate into a deployment total. Each field merges
    /// by its declared [`STAT_KINDS`] entry: counters and
    /// disjoint-domain gauges (`lru_len`) sum, shared-domain gauges
    /// (`queue_depth_peak`) take the max.
    pub fn merge(&mut self, other: &ServiceStats) {
        let mut a = self.to_wire().to_array();
        let b = other.to_wire().to_array();
        for (i, (x, y)) in a.iter_mut().zip(b).enumerate() {
            match STAT_KINDS[i] {
                StatKind::Counter | StatKind::GaugeSum => *x += y,
                StatKind::GaugeMax => *x = (*x).max(y),
            }
        }
        *self = ServiceStats::from_wire(&WireServiceStats::from_array(a));
    }

    /// The wire form of this snapshot (for `StatsResponse` messages).
    pub fn to_wire(&self) -> WireServiceStats {
        WireServiceStats {
            requests: self.requests,
            batches: self.batches,
            exact_hits: self.exact_hits,
            closed_form_hits: self.closed_form_hits,
            solver_solves: self.solver_solves,
            batch_dedup_hits: self.batch_dedup_hits,
            errors: self.errors,
            lru_inserts: self.lru_inserts,
            lru_evictions: self.lru_evictions,
            lru_len: self.lru_len,
            exact_hits_closed_form: self.exact_hits_closed_form,
            exact_hits_factorized: self.exact_hits_factorized,
            byte_evictions: self.byte_evictions,
            auto_respawns: self.auto_respawns,
            quarantines: self.quarantines,
            injected_faults: self.injected_faults,
            shed_rejects: self.shed_rejects,
            degraded_serves: self.degraded_serves,
            deadline_expired: self.deadline_expired,
            queue_depth_peak: self.queue_depth_peak,
        }
    }

    /// Rebuilds a snapshot from its wire form.
    pub fn from_wire(w: &WireServiceStats) -> Self {
        ServiceStats {
            requests: w.requests,
            batches: w.batches,
            exact_hits: w.exact_hits,
            closed_form_hits: w.closed_form_hits,
            solver_solves: w.solver_solves,
            batch_dedup_hits: w.batch_dedup_hits,
            errors: w.errors,
            grid_builds: 0,
            lru_inserts: w.lru_inserts,
            lru_evictions: w.lru_evictions,
            lru_len: w.lru_len,
            exact_hits_closed_form: w.exact_hits_closed_form,
            exact_hits_factorized: w.exact_hits_factorized,
            byte_evictions: w.byte_evictions,
            auto_respawns: w.auto_respawns,
            quarantines: w.quarantines,
            injected_faults: w.injected_faults,
            shed_rejects: w.shed_rejects,
            degraded_serves: w.degraded_serves,
            deadline_expired: w.deadline_expired,
            queue_depth_peak: w.queue_depth_peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting() -> ServiceStats {
        let w = WireServiceStats::from_array(std::array::from_fn(|i| i as u64 + 1));
        ServiceStats::from_wire(&w)
    }

    #[test]
    fn wire_roundtrip_is_lossless() {
        let s = counting();
        assert_eq!(ServiceStats::from_wire(&s.to_wire()), s);
        // Every field is distinct in the fixture, so a swapped mapping
        // in either direction would break the equality above.
        assert_eq!(s.requests, 1);
        assert_eq!(s.closed_form_hits, 4);
        assert_eq!(s.lru_inserts, 8);
        assert_eq!(s.lru_len, 10);
        assert_eq!(s.exact_hits_closed_form, 11);
        assert_eq!(s.exact_hits_factorized, 12);
        assert_eq!(s.byte_evictions, 13);
        assert_eq!(s.auto_respawns, 14);
        assert_eq!(s.quarantines, 15);
        assert_eq!(s.injected_faults, 16);
        assert_eq!(s.shed_rejects, 17);
        assert_eq!(s.degraded_serves, 18);
        assert_eq!(s.deadline_expired, 19);
        assert_eq!(s.queue_depth_peak, 20);
        assert_eq!(s.grid_builds, 0, "the shim is not on the wire");
    }

    #[test]
    fn merge_sums_every_counter_except_the_peak_gauge() {
        let s = counting();
        let mut total = ServiceStats::default();
        total.merge(&s);
        total.merge(&s);
        let mut expect = s.to_wire().to_array().map(|c| 2 * c);
        // queue_depth_peak is a gauge: merging identical snapshots
        // keeps the max, not the sum.
        *expect.last_mut().unwrap() = s.queue_depth_peak;
        assert_eq!(total.to_wire().to_array(), expect);
        assert_eq!(total.served(), 2 * s.served());
    }

    #[test]
    fn stat_kinds_flag_exactly_the_two_gauges() {
        // lru_len (slot 9) sums across disjoint shards; the queue
        // peak (slot 19) maxes across a shared queue; everything else
        // is a plain counter. A gauge smuggled into the counter list
        // without a kind declaration fails here.
        for (i, kind) in STAT_KINDS.iter().enumerate() {
            let expect = match i {
                9 => StatKind::GaugeSum,
                19 => StatKind::GaugeMax,
                _ => StatKind::Counter,
            };
            assert_eq!(*kind, expect, "slot {i}");
        }
        // And the table drives merge: the two gauges behave
        // differently from each other and from the counters.
        let mut a = ServiceStats {
            lru_len: 5,
            queue_depth_peak: 7,
            requests: 1,
            ..ServiceStats::default()
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
