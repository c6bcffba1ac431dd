//! Sharding one server's policy cache by canonical instance key.
//!
//! A [`ShardRouter`] is the one router ([`ClusterRouter`]) over `k`
//! local slots: independent [`PolicyService`](crate::PolicyService)
//! shards, each behind its own lock. Requests are routed by
//! **consistent hashing** of their order-independent route hash over
//! a [`HashRing`] of virtual nodes: every canonical instance — and
//! therefore every permutation and tolerance-tier alias of it — always
//! lands on the same shard, so the per-shard LRU caches stay hot and
//! **disjoint** (no entry is duplicated across shards, and growing the
//! shard count moves only ~1/k of the key space). Each shard
//! canonicalizes the requests it serves, once; connection handlers
//! whose batches touch disjoint shards run in parallel.
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

use crate::router::ClusterRouter;
use crate::service::ServiceConfig;
use econcast_statespace::fnv1a_64;
use std::sync::Arc;

/// Configuration for a sharded deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Number of policy-service shards (≥ 1).
    pub shards: usize,
    /// Always [`VNODES`]: every ring places that many points per
    /// owner, and [`ShardRouter::new`] panics on any other value. Kept
    /// only so `servebench/`'s `..RouterConfig::default()` stays a
    /// needed update under clippy; the next benchmark change deletes
    /// it.
    pub vnodes: usize,
    /// Configuration applied to every shard's `PolicyService`.
    pub service: ServiceConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 2,
            vnodes: VNODES,
            service: ServiceConfig::default(),
        }
    }
}

/// Virtual nodes per owner on every [`HashRing`]. More vnodes flatten
/// the key-space split across owners; 64 keeps the imbalance within a
/// few percent.
pub const VNODES: usize = 64;

/// A consistent-hash ring: each owner (a shard, or a cluster slot)
/// places [`VNODES`] points at `fnv1a_64([owner, vnode])`, and a route
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
    /// Panics when `owners` is empty.
    pub fn new(owners: impl IntoIterator<Item = u16>) -> Self {
        let mut points: Vec<(u64, u16)> = owners
            .into_iter()
            .flat_map(|s| (0..VNODES as u64).map(move |v| (fnv1a_64([u64::from(s), v]), s)))
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

/// The one router over `shards` local slots, as one server runs it:
/// the name a sharded in-process deployment is built by. It owns no
/// routing of its own — it dereferences to the [`ClusterRouter`] it
/// shares with its server's connection handlers.
#[derive(Debug)]
pub struct ShardRouter(Arc<ClusterRouter>);

impl ShardRouter {
    /// Builds the ring and the shard services.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`, `shards > u16::MAX as usize`, or
    /// `vnodes != VNODES`.
    pub fn new(cfg: RouterConfig) -> Self {
        assert_eq!(cfg.vnodes, VNODES, "the ring places VNODES per shard");
        ShardRouter(Arc::new(ClusterRouter::over_shards(cfg)))
    }

    /// The shared router, for the server's acceptor.
    pub(crate) fn shared(&self) -> Arc<ClusterRouter> {
        Arc::clone(&self.0)
    }
}

impl std::ops::Deref for ShardRouter {
    type Target = ClusterRouter;

    fn deref(&self) -> &ClusterRouter {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicyRequest, PolicyService, ServiceError};
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
        assert_eq!(r.slot_of_request(&base), r.slot_of_request(&permuted));

        // Enough distinct families hit more than one shard.
        let mut seen = std::collections::HashSet::new();
        for n in 2..40 {
            seen.insert(r.slot_of_request(&homogeneous(n, 10.0)).unwrap());
        }
        assert!(seen.len() >= 2, "routing collapsed onto {seen:?}");
    }

    #[test]
    fn ring_balances_within_reason() {
        let r = router(4);
        let mut counts = [0u32; 4];
        for n in 2..200 {
            for rho in [3.0f64, 7.0, 11.0] {
                counts[r.slot_of_request(&homogeneous(n, rho)).unwrap() as usize] += 1;
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
    fn invalid_requests_are_rejected_on_the_fallback() {
        let r = router(2);
        let bad = PolicyRequest {
            budgets_w: vec![],
            listen_w: 500e-6,
            transmit_w: 450e-6,
            sigma: 0.5,
            objective: ThroughputMode::Groupput,
            tolerance: 1e-2,
        };
        assert_eq!(r.slot_of_request(&bad), None);
        let out = r.serve_batch(std::slice::from_ref(&bad));
        assert!(matches!(out[0], Err(ServiceError::BadRequest(_))));
        assert_eq!(r.metrics().counter(econcast_metrics::CTR_ERRORS), 1);
        assert_eq!(
            r.scrape(0).unwrap().counter(econcast_metrics::CTR_ERRORS),
            0
        );
        assert_eq!(
            r.scrape(1).unwrap().counter(econcast_metrics::CTR_ERRORS),
            0
        );
    }
}
