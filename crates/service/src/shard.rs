//! Sharding policy services by canonical instance key.
//!
//! A [`ShardRouter`] fronts `k` independent [`PolicyService`] shards.
//! Requests are canonicalized (`econcast_statespace::instance`) and
//! routed by **consistent hashing** of the canonical key over a ring
//! of virtual nodes: every canonical instance — and therefore every
//! permutation and tolerance-tier alias of it — always lands on the
//! same shard, so the per-shard LRU and grid caches stay hot and
//! **disjoint** (no entry is duplicated across shards, and growing the
//! shard count moves only ~1/k of the key space).
//!
//! ## Response invariance
//!
//! Routing must be invisible in the responses: each queued solve is an
//! independent, deterministic computation, and identical canonical
//! keys share a shard, so a sharded deployment returns **bit-identical
//! policies, throughputs, and certificates** to a single
//! `PolicyService` serving the same requests (pinned by
//! `tests/socket.rs`). Only the *tier label* may differ when a batch
//! is split across shards or TCP segment boundaries: a duplicate that
//! the single-service path answered as an in-batch alias of a `Solver`
//! job can arrive in a later sub-batch and replay from the LRU as
//! `Exact` — same bits either way.

use crate::grid::FamilyKey;
use crate::prewarm::{MixRecorder, PrewarmConfig};
use crate::request::{PolicyRequest, PolicyResponse, ServiceError};
use crate::service::{PolicyService, ServiceConfig};
use crate::stats::ServiceStats;
use econcast_statespace::{CanonicalInstance, InstanceKey};
use std::sync::Mutex;

/// Configuration for a sharded deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Number of policy-service shards (≥ 1).
    pub shards: usize,
    /// Virtual nodes per shard on the consistent-hash ring. More
    /// vnodes flatten the key-space split across shards; 64 keeps the
    /// imbalance within a few percent.
    pub vnodes: usize,
    /// Configuration applied to every shard's `PolicyService`.
    pub service: ServiceConfig,
    /// Prewarming knobs (used by [`ShardRouter::prewarm_once`] and the
    /// TCP server's background prewarmer).
    pub prewarm: PrewarmConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 2,
            vnodes: 64,
            service: ServiceConfig::default(),
            prewarm: PrewarmConfig::default(),
        }
    }
}

/// One shard: a policy service plus its observed request mix.
#[derive(Debug)]
struct ShardState {
    service: PolicyService,
    mixes: MixRecorder,
    /// Requests routed to this shard (including rejected ones).
    routed: u64,
}

/// Routes canonicalized requests across policy-service shards.
///
/// The router is `Sync`: shards live behind independent mutexes, so
/// connection handlers serving disjoint shard sets proceed in
/// parallel, while a single canonical key is always serialized through
/// its one home shard.
#[derive(Debug)]
pub struct ShardRouter {
    /// Sorted consistent-hash ring: `(point, shard)`.
    ring: Vec<(u64, u16)>,
    shards: Vec<Mutex<ShardState>>,
    prewarm: PrewarmConfig,
    /// Grid-coverable budget range of the shard services (`None` when
    /// the grid tier is disabled) — gates mix recording so the
    /// prewarmer never builds a grid no request could be served from.
    grid_range: Option<(f64, f64)>,
}

impl ShardRouter {
    /// Builds the ring and the shard services.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`, `shards > u16::MAX as usize`, or
    /// `vnodes == 0`.
    pub fn new(cfg: RouterConfig) -> Self {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.shards <= u16::MAX as usize, "shard ids are u16");
        assert!(cfg.vnodes >= 1, "need at least one vnode per shard");
        let mut ring: Vec<(u64, u16)> = (0..cfg.shards as u16)
            .flat_map(|s| {
                (0..cfg.vnodes as u64)
                    .map(move |v| (econcast_statespace::fnv1a_64([u64::from(s), v]), s))
            })
            .collect();
        ring.sort_unstable();
        let shards = (0..cfg.shards)
            .map(|_| {
                Mutex::new(ShardState {
                    service: PolicyService::new(cfg.service),
                    mixes: MixRecorder::new(),
                    routed: 0,
                })
            })
            .collect();
        ShardRouter {
            ring,
            shards,
            prewarm: cfg.prewarm,
            grid_range: cfg.service.grid.map(|g| (g.rho_min_w, g.rho_max_w)),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The home shard of a canonical instance key: the first ring
    /// point at or after the key's route hash (wrapping).
    pub fn shard_of_key(&self, key: &InstanceKey) -> u16 {
        let h = key.route_hash();
        let i = self.ring.partition_point(|&(p, _)| p < h);
        self.ring[if i == self.ring.len() { 0 } else { i }].1
    }

    /// The home shard of a request, or `None` when the request fails
    /// validation (rejected requests are charged to shard 0).
    pub fn shard_of_request(&self, req: &PolicyRequest) -> Option<u16> {
        req.validate().ok()?;
        Some(self.shard_of_key(&canonicalize(req).key))
    }

    /// Serves a batch: requests scatter to their home shards (each
    /// sub-batch preserves request order), shards serve independently,
    /// and responses gather back in request order, each in its
    /// caller's node order.
    pub fn serve_batch(&self, reqs: &[PolicyRequest]) -> Vec<Result<PolicyResponse, ServiceError>> {
        let nshards = self.shards.len();
        // Route — canonicalize each request exactly once; ownership of
        // the canonicalization is handed to the home shard's probe
        // phase below, so nothing is sorted or cloned twice. Also note
        // grid-coverable homogeneous families for the prewarmer.
        let route_t0 = econcast_trace::armed_now();
        let mut canons: Vec<Option<CanonicalInstance>> = Vec::with_capacity(reqs.len());
        let mut sub_idx: Vec<Vec<usize>> = vec![Vec::new(); nshards];
        let mut observed: Vec<Vec<FamilyKey>> = vec![Vec::new(); nshards];
        for (i, req) in reqs.iter().enumerate() {
            let shard = match req.validate() {
                // Rejected requests are charged to shard 0.
                Err(_) => {
                    canons.push(None);
                    0
                }
                Ok(()) => {
                    let canon = canonicalize(req);
                    let s = self.shard_of_key(&canon.key);
                    if canon.homogeneous
                        && self
                            .grid_range
                            .is_some_and(|(lo, hi)| (lo..=hi).contains(&canon.sorted_budgets[0]))
                    {
                        observed[s as usize].push(FamilyKey::new(
                            canon.sorted_budgets.len(),
                            req.listen_w,
                            req.transmit_w,
                            req.sigma,
                            req.objective,
                        ));
                    }
                    canons.push(Some(canon));
                    s
                }
            };
            sub_idx[shard as usize].push(i);
        }
        econcast_trace::complete_from(
            "service",
            "route",
            route_t0,
            &[("requests", reqs.len() as u64)],
        );

        let mut out: Vec<Option<Result<PolicyResponse, ServiceError>>> = vec![None; reqs.len()];
        for (s, idxs) in sub_idx.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let sub: Vec<(&PolicyRequest, Option<CanonicalInstance>)> =
                idxs.iter().map(|&i| (&reqs[i], canons[i].take())).collect();
            let mut shard = self.shards[s]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            shard.routed += sub.len() as u64;
            for family in observed[s].drain(..) {
                shard.mixes.record(family);
            }
            let results = shard.service.serve_batch_prerouted(sub);
            for (&i, r) in idxs.iter().zip(results) {
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every request routed to a shard"))
            .collect()
    }

    /// One shard's counter snapshot (plus its routed-request count).
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard_stats(&self, shard: usize) -> ServiceStats {
        self.shards[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .service
            .stats()
    }

    /// Requests routed to one shard so far (including rejected ones).
    pub fn shard_routed(&self, shard: usize) -> u64 {
        self.shards[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .routed
    }

    /// Cache residency summed across shards: `(entries, bytes)` —
    /// the LRU gauge pair a metrics scrape reports. Shards hold
    /// disjoint key ranges, so the sums are deployment totals.
    pub fn cache_residency(&self) -> (u64, u64) {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let st = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            entries += st.service.stats().lru_len;
            bytes += st.service.cache_bytes() as u64;
        }
        (entries, bytes)
    }

    /// Counter snapshot summed across every shard.
    pub fn aggregate_stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for s in 0..self.shards.len() {
            total.merge(&self.shard_stats(s));
        }
        total
    }

    /// One prewarm cycle: for every shard, build grids for up to
    /// `max_per_cycle` of its hottest observed families with at least
    /// `min_hits` observations that are not yet resident. Returns the
    /// number of grids built. Each build briefly holds that shard's
    /// lock, so cycles are bounded by `max_per_cycle` to stay short.
    pub fn prewarm_once(&self) -> usize {
        let mut built = 0;
        for shard in &self.shards {
            let mut st = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let candidates = st.mixes.candidates(self.prewarm.min_hits);
            let mut cycle = 0;
            for (family, _) in candidates {
                if cycle >= self.prewarm.max_per_cycle {
                    break;
                }
                if st.service.prewarm_grid(&family) {
                    built += 1;
                    cycle += 1;
                }
            }
        }
        built
    }

    /// The prewarm configuration the router was built with.
    pub fn prewarm_config(&self) -> PrewarmConfig {
        self.prewarm
    }

    /// Snapshot of the observed homogeneous request mix merged across
    /// every shard, hottest families first — the payload of a warm
    /// handoff when this deployment's key range moves elsewhere.
    pub fn export_mix(&self) -> Vec<(FamilyKey, u64)> {
        let mut merged = MixRecorder::new();
        for shard in &self.shards {
            let st = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            merged.absorb(&st.mixes.export());
        }
        merged.export()
    }

    /// Absorbs a warm-handoff mix shipped from a departing key-range
    /// owner: every shard's recorder learns the heat (a family's
    /// future budgets hash shard-independently, so any shard may end
    /// up serving it), then bounded prewarm cycles install the hottest
    /// qualifying grids ahead of demand. Returns `(families_absorbed,
    /// grids_built)`. Purely a latency optimization — a prewarmed grid
    /// is bit-identical to the lazily built one.
    pub fn absorb_mix(&self, mix: &[(FamilyKey, u64)]) -> (usize, usize) {
        if mix.is_empty() {
            return (0, 0);
        }
        for shard in &self.shards {
            shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .mixes
                .absorb(mix);
        }
        // Each cycle builds at most `max_per_cycle` grids per shard;
        // iterate until a cycle builds nothing, capped by the family
        // count so absorption stays bounded under any recorder state.
        let mut built = 0;
        for _ in 0..mix.len() {
            let cycle = self.prewarm_once();
            if cycle == 0 {
                break;
            }
            built += cycle;
        }
        (mix.len(), built)
    }
}

/// Canonicalizes a (validated) request.
fn canonicalize(req: &PolicyRequest) -> CanonicalInstance {
    CanonicalInstance::new(
        &req.budgets_w,
        req.listen_w,
        req.transmit_w,
        req.sigma,
        req.objective,
        req.tolerance,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use econcast_core::{NodeParams, ThroughputMode};

    fn router(shards: usize) -> ShardRouter {
        ShardRouter::new(RouterConfig {
            shards,
            service: ServiceConfig {
                workers: Some(1),
                ..ServiceConfig::default()
            },
            ..RouterConfig::default()
        })
    }

    fn homogeneous(n: usize, rho_uw: f64) -> PolicyRequest {
        PolicyRequest::homogeneous(
            n,
            NodeParams::from_microwatts(rho_uw, 500.0, 450.0),
            0.5,
            ThroughputMode::Groupput,
            1e-2,
        )
    }

    #[test]
    fn permutations_share_a_shard_and_keys_spread() {
        let r = router(4);
        let base = PolicyRequest {
            budgets_w: vec![5e-6, 20e-6, 10e-6],
            listen_w: 500e-6,
            transmit_w: 450e-6,
            sigma: 0.5,
            objective: ThroughputMode::Groupput,
            tolerance: 1e-2,
        };
        let mut permuted = base.clone();
        permuted.budgets_w.rotate_left(1);
        assert_eq!(r.shard_of_request(&base), r.shard_of_request(&permuted));

        // Enough distinct families hit more than one shard.
        let mut seen = std::collections::HashSet::new();
        for n in 2..40 {
            seen.insert(r.shard_of_request(&homogeneous(n, 10.0)).unwrap());
        }
        assert!(seen.len() >= 2, "routing collapsed onto {seen:?}");
    }

    #[test]
    fn ring_balances_within_reason() {
        let r = router(4);
        let mut counts = [0u32; 4];
        for n in 2..200 {
            for rho in [3.0f64, 7.0, 11.0] {
                counts[r.shard_of_request(&homogeneous(n, rho)).unwrap() as usize] += 1;
            }
        }
        let total: u32 = counts.iter().sum();
        for (s, &c) in counts.iter().enumerate() {
            let share = f64::from(c) / f64::from(total);
            assert!(
                (0.05..=0.60).contains(&share),
                "shard {s} holds {share:.2} of keys: {counts:?}"
            );
        }
    }

    #[test]
    fn sharded_responses_match_single_service() {
        let reqs: Vec<PolicyRequest> = (0..24)
            .map(|i| match i % 3 {
                0 => homogeneous(5 + i, 10.0),
                1 => PolicyRequest {
                    budgets_w: vec![5e-6, 10e-6 + i as f64 * 1e-6, 20e-6],
                    listen_w: 500e-6,
                    transmit_w: 450e-6,
                    sigma: 0.5,
                    objective: ThroughputMode::Anyput,
                    tolerance: 1e-2,
                },
                _ => homogeneous(4, 5.0 + i as f64),
            })
            .collect();

        let mut single = PolicyService::new(ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        });
        let expected = single.serve_batch(&reqs);
        let sharded = router(3).serve_batch(&reqs);
        for (i, (a, b)) in expected.iter().zip(&sharded).enumerate() {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(
                a.throughput.to_bits(),
                b.throughput.to_bits(),
                "request {i} throughput diverged"
            );
            for (pa, pb) in a.policies.iter().zip(&b.policies) {
                assert_eq!(pa.listen.to_bits(), pb.listen.to_bits());
                assert_eq!(pa.transmit.to_bits(), pb.transmit.to_bits());
            }
        }
    }

    #[test]
    fn invalid_requests_are_rejected_on_shard_zero() {
        let r = router(2);
        let bad = PolicyRequest {
            budgets_w: vec![],
            listen_w: 500e-6,
            transmit_w: 450e-6,
            sigma: 0.5,
            objective: ThroughputMode::Groupput,
            tolerance: 1e-2,
        };
        assert_eq!(r.shard_of_request(&bad), None);
        let out = r.serve_batch(std::slice::from_ref(&bad));
        assert!(matches!(out[0], Err(ServiceError::BadRequest(_))));
        assert_eq!(r.shard_stats(0).errors, 1);
        assert_eq!(r.aggregate_stats().errors, 1);
    }

    #[test]
    fn prewarm_builds_hot_families_and_grid_serves() {
        // Prewarmed-only shards: grids are never built on the request
        // path, so the prewarmer is what installs them.
        let r = ShardRouter::new(RouterConfig {
            shards: 2,
            service: ServiceConfig {
                workers: Some(1),
                lazy_grid_builds: false,
                ..ServiceConfig::default()
            },
            ..RouterConfig::default()
        });
        // Three sightings of one family qualify it (default min_hits);
        // repeats after the first are exact-LRU hits, but the router
        // records the family at routing time regardless of tier.
        let req = homogeneous(10, 10.0);
        let shard = r.shard_of_request(&req).unwrap() as usize;
        for _ in 0..3 {
            let out = r.serve_batch(std::slice::from_ref(&req));
            assert!(out[0].is_ok());
        }
        assert_eq!(r.shard_stats(shard).grid_builds, 0, "no inline build");
        assert_eq!(r.prewarm_once(), 1, "one hot family to build");
        assert_eq!(r.prewarm_once(), 0, "already resident");
        assert_eq!(r.shard_stats(shard).grid_prewarms, 1);
        assert_eq!(r.aggregate_stats().grid_prewarms, 1);

        // Later budgets in the same family that land on the same
        // shard (different budgets hash independently) now
        // grid-serve, with no build charged to the request path. The
        // grid may decline an interval whose certified error exceeds
        // the tier, so scan several and require at least one hit.
        let laters: Vec<PolicyRequest> = (1..200)
            .map(|k| PolicyRequest {
                tolerance: 1e-1, // coarsest tier: most intervals serve
                ..homogeneous(10, 10.0 + 0.5 * f64::from(k))
            })
            .filter(|req| r.shard_of_request(req).unwrap() as usize == shard)
            .take(6)
            .collect();
        assert!(!laters.is_empty(), "no nearby budget shares the shard");
        let out = r.serve_batch(&laters);
        let grid_hits = out
            .iter()
            .filter(|r| r.as_ref().unwrap().tier == econcast_proto::service::ServedTier::Grid)
            .count();
        assert!(grid_hits > 0, "prewarmed grid never served");
        assert_eq!(r.shard_stats(shard).grid_builds, 0);
    }

    #[test]
    fn absorbed_mix_prewarms_like_local_heat() {
        let r = ShardRouter::new(RouterConfig {
            shards: 2,
            service: ServiceConfig {
                workers: Some(1),
                lazy_grid_builds: false,
                ..ServiceConfig::default()
            },
            ..RouterConfig::default()
        });
        // The departing owner's recorder: one family hot enough to
        // qualify (min_hits), one below the floor.
        let mut src = MixRecorder::new();
        for _ in 0..5 {
            src.record(FamilyKey::new(
                10,
                500e-6,
                450e-6,
                0.5,
                ThroughputMode::Groupput,
            ));
        }
        src.record(FamilyKey::new(
            50,
            500e-6,
            450e-6,
            0.5,
            ThroughputMode::Groupput,
        ));
        let (absorbed, built) = r.absorb_mix(&src.export());
        assert_eq!(absorbed, 2);
        assert_eq!(built, 2, "the hot family builds once per shard");
        assert_eq!(r.aggregate_stats().grid_prewarms, 2);

        // A cold deployment now grid-serves the family without any
        // inline build — the handoff's entire point. The grid may
        // decline an interval whose certified error exceeds the tier,
        // so scan a few budgets and require at least one hit.
        let probes: Vec<PolicyRequest> = (1..40)
            .map(|k| PolicyRequest {
                tolerance: 1e-1,
                ..homogeneous(10, 10.0 + 0.5 * f64::from(k))
            })
            .collect();
        let out = r.serve_batch(&probes);
        let grid_hits = out
            .iter()
            .filter(|r| r.as_ref().unwrap().tier == econcast_proto::service::ServedTier::Grid)
            .count();
        assert!(grid_hits > 0, "absorbed mix never produced a grid serve");
        assert_eq!(r.aggregate_stats().grid_builds, 0);

        // Absorbing the same mix again is idempotent for residency.
        let (_, rebuilt) = r.absorb_mix(&src.export());
        assert_eq!(rebuilt, 0, "grids already resident");
    }
}
