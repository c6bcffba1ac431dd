//! The deterministic mixed acceptance workload.
//!
//! One canonical request-mix generator shared by the root acceptance
//! tests, the socket-path tests, and the `policy_server` example, so
//! "the 256-request mixed batch" pinned across worker counts, wire
//! framing, and sharding is literally the same batch everywhere.
//! (The bench suite's `service_batch` is intentionally *not* this
//! mix: its perturbation pattern is sized for cold/warm throughput
//! measurement and is frozen by the committed `BENCH_*.json`
//! baselines.)

use crate::request::PolicyRequest;
use econcast_core::{NodeParams, ThroughputMode};

/// Builds the deterministic mixed batch, truncated or cycle-padded to
/// `len` requests: homogeneous cliques at µW and mW budgets,
/// heterogeneous exact-solver instances plus a permutation of
/// each (the canonicalization regression rides along), both
/// objectives, and — once `len` exceeds the distinct prefix —
/// duplicates exercising the in-batch dedup path.
pub fn mixed_batch(len: usize) -> Vec<PolicyRequest> {
    let mut reqs = Vec::new();
    let modes = [ThroughputMode::Groupput, ThroughputMode::Anyput];
    // Homogeneous: several (n, ρ) points at µW budgets...
    for (i, n) in [5usize, 12, 50, 96].into_iter().enumerate() {
        for (j, rho_uw) in [4.0, 10.0, 37.0].into_iter().enumerate() {
            let params = NodeParams::from_microwatts(rho_uw, 500.0, 450.0);
            reqs.push(PolicyRequest::homogeneous(
                n,
                params,
                if j % 2 == 0 { 0.5 } else { 0.25 },
                modes[(i + j) % 2],
                1e-2,
            ));
        }
    }
    // ...and at a 25 mW budget.
    for n in [8usize, 64] {
        let params = NodeParams::from_milliwatts(25.0, 67.0, 33.0);
        reqs.push(PolicyRequest::homogeneous(
            n,
            params,
            0.5,
            ThroughputMode::Groupput,
            1e-2,
        ));
    }
    // Heterogeneous instances (exact solver) plus a permutation of
    // each.
    let bases: [&[f64]; 4] = [
        &[5e-6, 10e-6, 20e-6],
        &[3e-6, 3e-6, 9e-6, 27e-6],
        &[8e-6, 2e-6, 4e-6, 16e-6, 32e-6],
        &[1e-6, 50e-6, 7e-6],
    ];
    for (i, base) in bases.into_iter().enumerate() {
        let mut permuted = base.to_vec();
        permuted.rotate_left(1);
        for budgets in [base.to_vec(), permuted] {
            reqs.push(PolicyRequest {
                budgets_w: budgets,
                listen_w: 500e-6,
                transmit_w: 450e-6,
                sigma: 0.5,
                objective: modes[i % 2],
                tolerance: 1e-2,
            });
        }
    }
    // Pad by cycling the distinct prefix (duplicates exercise the
    // in-batch dedup path), or truncate for small workloads.
    let distinct = reqs.len();
    let mut k = 0;
    while reqs.len() < len {
        reqs.push(reqs[k % distinct].clone());
        k += 1;
    }
    reqs.truncate(len);
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_shape_is_stable() {
        let batch = mixed_batch(256);
        assert_eq!(batch.len(), 256);
        // Distinct prefix: 12 homogeneous in-range + 2 out-of-range +
        // 8 heterogeneous; everything after cycles it.
        assert_eq!(batch[22], batch[0]);
        assert!(batch.iter().all(|r| r.validate().is_ok()));
        // Truncation yields a prefix of the padded batch.
        assert_eq!(mixed_batch(7)[..], batch[..7]);
    }
}
