//! Sharding policy services by canonical instance key.
//!
//! A [`ShardRouter`] fronts `k` independent [`PolicyService`] shards.
//! Requests are canonicalized once (`econcast_statespace::instance`)
//! and routed by **consistent hashing** of the key's order-independent
//! route hash over a ring of virtual nodes: every canonical instance
//! — and therefore every permutation and tolerance-tier alias of it —
//! always lands on the same shard, so the per-shard LRU caches stay
//! hot and **disjoint** (no entry is duplicated across shards, and
//! growing the shard count moves only ~1/k of the key space). The
//! canonicalization travels with the request to its shard, which
//! probes and answers from it without sorting again.
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

use crate::request::{PolicyRequest, PolicyResponse, ServiceError};
use crate::service::{PolicyService, ServiceConfig};
use crate::stats::ServiceStats;
use econcast_metrics::MetricsSnapshot;
use econcast_statespace::{fnv1a_64, route_hash_of, CanonicalInstance, InstanceKey};
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
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 2,
            vnodes: 64,
            service: ServiceConfig::default(),
        }
    }
}

/// A consistent-hash ring: each owner (a shard, or a cluster slot)
/// places `vnodes` points at `fnv1a_64([owner, vnode])`, and a route
/// hash belongs to the owner of the first point at or after it
/// (wrapping). Owners left out own no points, so their key ranges
/// fall to their ring successors; equal owner sets assign every key
/// identically.
#[derive(Debug)]
pub struct HashRing {
    /// Sorted `(point, owner)` pairs.
    points: Vec<(u64, u16)>,
}

impl HashRing {
    /// Builds the ring over `owners`.
    ///
    /// # Panics
    ///
    /// Panics when `owners` is empty or `vnodes == 0`.
    pub fn new(owners: impl IntoIterator<Item = u16>, vnodes: usize) -> Self {
        assert!(vnodes >= 1, "need at least one vnode per owner");
        let mut points: Vec<(u64, u16)> = owners
            .into_iter()
            .flat_map(|s| (0..vnodes as u64).map(move |v| (fnv1a_64([u64::from(s), v]), s)))
            .collect();
        assert!(!points.is_empty(), "a ring needs at least one owner");
        points.sort_unstable();
        HashRing { points }
    }

    /// The owner of a route hash.
    pub fn owner(&self, h: u64) -> u16 {
        let i = self.points.partition_point(|&(p, _)| p < h);
        self.points[if i == self.points.len() { 0 } else { i }].1
    }
}

/// One shard: a policy service plus its routing count.
#[derive(Debug)]
struct ShardState {
    service: PolicyService,
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
    ring: HashRing,
    shards: Vec<Mutex<ShardState>>,
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
        let ring = HashRing::new(0..cfg.shards as u16, cfg.vnodes);
        let shards = (0..cfg.shards)
            .map(|_| {
                Mutex::new(ShardState {
                    service: PolicyService::new(cfg.service),
                    routed: 0,
                })
            })
            .collect();
        ShardRouter { ring, shards }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The home shard of a canonical instance key: the first ring
    /// point at or after the key's route hash (wrapping).
    pub fn shard_of_key(&self, key: &InstanceKey) -> u16 {
        self.ring.owner(key.route_hash())
    }

    /// The home shard of a request, or `None` when the request fails
    /// validation (rejected requests are charged to shard 0). Keys the
    /// raw request with [`route_hash_of`] — no canonicalization.
    pub fn shard_of_request(&self, req: &PolicyRequest) -> Option<u16> {
        req.validate().ok()?;
        Some(self.ring.owner(route_hash_of(
            &req.budgets_w,
            req.listen_w,
            req.transmit_w,
            req.sigma,
            req.objective,
            req.tolerance,
        )))
    }

    /// Serves a batch: requests scatter to their home shards (each
    /// sub-batch preserves request order), shards serve independently,
    /// and responses gather back in request order, each in its
    /// caller's node order.
    pub fn serve_batch(&self, reqs: &[PolicyRequest]) -> Vec<Result<PolicyResponse, ServiceError>> {
        let nshards = self.shards.len();
        // Route — canonicalize each request exactly once; ownership of
        // the canonicalization is handed to the home shard's probe
        // phase below, so nothing is sorted or cloned twice.
        let route_t0 = econcast_trace::armed_now();
        let mut canons: Vec<Option<CanonicalInstance>> = Vec::with_capacity(reqs.len());
        let mut sub_idx: Vec<Vec<usize>> = vec![Vec::new(); nshards];
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

    /// One shard's counters and LRU gauges as a metrics scrape (see
    /// [`PolicyService::metrics`]). Shards hold disjoint key ranges,
    /// so merged shard scrapes are deployment totals.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard_metrics(&self, shard: usize) -> MetricsSnapshot {
        self.shards[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .service
            .metrics()
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
        assert_eq!(r.shard_metrics(0).counter(econcast_metrics::CTR_ERRORS), 1);
        assert_eq!(r.shard_stats(1).errors, 0);
    }
}
