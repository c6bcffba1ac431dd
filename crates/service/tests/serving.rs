//! Tier-contract property tests: whatever tier answers, the served
//! policy must match a fresh `P4Solver` solve within the tolerance
//! tier's contract, and repeated serving must be bit-stable.

use econcast_core::{NodeParams, ThroughputMode};
use econcast_service::{PolicyRequest, PolicyService, ServedTier, ServiceConfig};
use econcast_statespace::{quantize_tolerance, solve_p4, P4Options};
use proptest::prelude::*;

const L: f64 = 500e-6;
const X: f64 = 450e-6;

fn service() -> PolicyService {
    PolicyService::new(ServiceConfig {
        workers: Some(1),
        ..ServiceConfig::default()
    })
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-300)
}

fn mode_of(bit: bool) -> ThroughputMode {
    if bit {
        ThroughputMode::Anyput
    } else {
        ThroughputMode::Groupput
    }
}

proptest! {
    /// Homogeneous requests are served by the closed-form tier (never
    /// the enumeration solver), and the answer matches a fresh exact
    /// `P4Solver` solve within the tolerance tier.
    #[test]
    fn homogeneous_tiers_match_fresh_solver(
        n in 2usize..9,
        rho_uw in 2.0f64..100.0,
        sigma in 0.25f64..0.75,
        anyput in any::<bool>(),
        tol in 1e-3f64..1e-1,
    ) {
        let mode = mode_of(anyput);
        let params = NodeParams::new(rho_uw * 1e-6, L, X);
        let req = PolicyRequest::homogeneous(n, params, sigma, mode, tol);
        let tier_floor = quantize_tolerance(tol);

        let mut svc = service();
        let resp = svc.serve(&req).unwrap();
        prop_assert_eq!(resp.tier, ServedTier::ClosedForm);
        prop_assert_eq!(svc.stats().solver_solves, 0);

        let fresh = solve_p4(&vec![params; n], sigma, mode, P4Options::default());
        for p in &resp.policies {
            prop_assert!(
                rel(p.listen, fresh.alpha[0]) <= tier_floor,
                "alpha: served {} vs fresh {} (tier {})",
                p.listen, fresh.alpha[0], tier_floor
            );
            prop_assert!(
                rel(p.transmit, fresh.beta[0]) <= tier_floor,
                "beta: served {} vs fresh {} (tier {})",
                p.transmit, fresh.beta[0], tier_floor
            );
        }
        prop_assert!(rel(resp.throughput, fresh.throughput) <= tier_floor);
        // Certificate sandwich.
        let c = &resp.certificate;
        prop_assert!(c.t_sigma <= c.oracle * (1.0 + 1e-9));
        prop_assert!(c.oracle <= c.dual_upper * (1.0 + 1e-9));
    }

    /// Heterogeneous requests run the exact solver at the tier's
    /// tolerance; the response must be the fresh solve of the sorted
    /// instance, rotated back — bit-identical, not just close.
    #[test]
    fn solver_tier_is_the_fresh_solve_in_caller_order(
        seeds in proptest::collection::vec(1.0f64..50.0, 2..6),
        sigma in 0.3f64..0.7,
        anyput in any::<bool>(),
    ) {
        let mode = mode_of(anyput);
        let budgets: Vec<f64> = seeds.iter().map(|s| s * 1e-6).collect();
        let req = PolicyRequest {
            budgets_w: budgets.clone(),
            listen_w: L,
            transmit_w: X,
            sigma,
            objective: mode,
            tolerance: 1e-3,
        };
        let mut svc = service();
        let resp = svc.serve(&req).unwrap();
        // (All-equal draws would take a homogeneous tier instead.)
        if resp.tier != ServedTier::Solver {
            return Ok(());
        }

        let mut sorted = budgets.clone();
        sorted.sort_by(f64::total_cmp);
        let nodes: Vec<NodeParams> =
            sorted.iter().map(|&r| NodeParams::new(r, L, X)).collect();
        let opts = P4Options {
            max_iters: 30_000,
            tol: quantize_tolerance(1e-3),
            ..P4Options::default()
        };
        let fresh = solve_p4(&nodes, sigma, mode, opts);

        for (i, &rho) in budgets.iter().enumerate() {
            // Position of this caller budget in the sorted instance
            // (ties broken by caller order, matching canonicalization).
            let k = sorted
                .iter()
                .enumerate()
                .position(|(k, &r)| {
                    r == rho
                        && budgets[..i].iter().filter(|&&b| b == rho).count()
                            == sorted[..k].iter().filter(|&&b| b == rho).count()
                })
                .unwrap();
            prop_assert_eq!(resp.policies[i].listen.to_bits(), fresh.alpha[k].to_bits());
            prop_assert_eq!(resp.policies[i].transmit.to_bits(), fresh.beta[k].to_bits());
        }
        prop_assert_eq!(resp.throughput.to_bits(), fresh.throughput.to_bits());
    }

    /// Serving the same request twice: the second answer comes from
    /// the exact tier and is bit-identical to the first.
    #[test]
    fn exact_tier_replays_bitwise(
        seeds in proptest::collection::vec(1.0f64..50.0, 2..5),
        sigma in 0.3f64..0.7,
    ) {
        let budgets: Vec<f64> = seeds.iter().map(|s| s * 1e-6).collect();
        let req = PolicyRequest {
            budgets_w: budgets,
            listen_w: L,
            transmit_w: X,
            sigma,
            objective: ThroughputMode::Groupput,
            tolerance: 1e-2,
        };
        let mut svc = service();
        let first = svc.serve(&req).unwrap();
        let before = svc.stats();
        let second = svc.serve(&req).unwrap();
        let after = svc.stats();
        prop_assert_eq!(second.tier, ServedTier::Exact);
        prop_assert_eq!(after.exact_hits, before.exact_hits + 1);
        prop_assert_eq!(after.solver_solves, before.solver_solves);
        prop_assert_eq!(after.closed_form_hits, before.closed_form_hits);
        for (a, b) in first.policies.iter().zip(&second.policies) {
            prop_assert_eq!(a.listen.to_bits(), b.listen.to_bits());
            prop_assert_eq!(a.transmit.to_bits(), b.transmit.to_bits());
        }
        prop_assert_eq!(first.throughput.to_bits(), second.throughput.to_bits());
    }
}

/// The lifted instance-size ceiling: heterogeneous requests at
/// N ∈ {24, 32, 64} — far beyond the old 2^N enumeration wall — are
/// served by the factorized kernel, cached, and replayed from the
/// exact tier with the split hit counter attributing each hit to the
/// kernel that produced the entry.
#[test]
fn large_n_requests_serve_and_cache_via_the_factorized_kernel() {
    use econcast_service::PolicyKernel;

    let mut svc = service();
    let mut expected_factorized_hits = 0;
    for (n, mode) in [
        (24usize, ThroughputMode::Groupput),
        (32, ThroughputMode::Anyput),
        (64, ThroughputMode::Groupput),
    ] {
        let req = PolicyRequest {
            budgets_w: (0..n).map(|i| (2.0 + 1.5 * i as f64) * 1e-6).collect(),
            listen_w: L,
            transmit_w: X,
            sigma: 0.5,
            objective: mode,
            tolerance: 1e-2,
        };
        let cold = svc.serve(&req).unwrap();
        assert_eq!(cold.tier, ServedTier::Solver, "N={n} cold tier");
        assert_eq!(cold.kernel, PolicyKernel::Factorized, "N={n} kernel");
        assert!(cold.converged, "N={n} did not converge");
        assert_eq!(cold.policies.len(), n);
        for p in &cold.policies {
            assert!(p.listen >= 0.0 && p.listen <= 1.0);
            assert!(p.transmit >= 0.0 && p.transmit <= 1.0);
        }
        // Certificate sandwich holds at sizes enumeration cannot reach.
        let c = &cold.certificate;
        assert!(c.t_sigma <= c.oracle * (1.0 + 1e-9), "N={n} sandwich");
        assert!(c.oracle <= c.dual_upper * (1.0 + 1e-9), "N={n} sandwich");

        let warm = svc.serve(&req).unwrap();
        expected_factorized_hits += 1;
        assert_eq!(warm.tier, ServedTier::Exact, "N={n} warm tier");
        assert_eq!(
            warm.kernel,
            PolicyKernel::Factorized,
            "N={n}: exact-tier hits must keep the producing kernel"
        );
        for (a, b) in cold.policies.iter().zip(&warm.policies) {
            assert_eq!(a.listen.to_bits(), b.listen.to_bits());
            assert_eq!(a.transmit.to_bits(), b.transmit.to_bits());
        }
        assert_eq!(
            svc.stats().exact_hits_factorized,
            expected_factorized_hits,
            "N={n}: factorized exact hits"
        );
        assert_eq!(svc.stats().exact_hits_closed_form, 0);
    }

    // A homogeneous replay lands in the same kind of LRU but
    // attributes to the closed form — the two counters split
    // `exact_hits` by producing kernel.
    let mut svc2 = PolicyService::new(ServiceConfig {
        workers: Some(1),
        ..ServiceConfig::default()
    });
    let homog = PolicyRequest::homogeneous(
        32,
        NodeParams::new(10e-6, L, X),
        0.5,
        ThroughputMode::Groupput,
        1e-2,
    );
    let first = svc2.serve(&homog).unwrap();
    assert_eq!(first.tier, ServedTier::ClosedForm);
    assert_eq!(first.kernel, PolicyKernel::ClosedForm);
    let replay = svc2.serve(&homog).unwrap();
    assert_eq!(replay.tier, ServedTier::Exact);
    assert_eq!(replay.kernel, PolicyKernel::ClosedForm);
    assert_eq!(svc2.stats().exact_hits_closed_form, 1);
    assert_eq!(svc2.stats().exact_hits_factorized, 0);

    let s = svc.stats();
    assert_eq!(s.exact_hits_factorized, expected_factorized_hits);
    assert_eq!(s.exact_hits_closed_form, 0);
    assert!(s.exact_hits_closed_form + s.exact_hits_factorized <= s.exact_hits);
}
