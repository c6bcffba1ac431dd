//! Oracle anyput in a clique — the LP (P3) of Section IV-B.
//!
//! ```text
//! T*_a = max_{α,β,χ} Σ_i β_i
//! s.t.  α_i L_i + β_i X_i ≤ ρ_i      (9)
//!       α_i + β_i ≤ 1                (10)
//!       Σ_i β_i ≤ 1                  (11)
//!       β_i ≤ Σ_{j≠i} χ_{i,j}        (14) every transmission has a listener
//!       α_j = Σ_{i≠j} χ_{i,j}        (15) listens cover assigned receptions
//! ```
//!
//! `χ_{i,j}` is the fraction of time node `j` receives from node `i`.
//!
//! [`oracle_anyput`] solves the Hall reduction of (P3), which drops the
//! `N(N−1)` reception shares. Rows (14)/(15) ask for a nonnegative
//! matrix `χ` off the diagonal with column sums `α_j` and row sums at
//! least `β_i`. In a clique, transmitter `i` can use every listener but
//! itself, and any two transmitters together can use every listener.
//! Hall's condition then says such a `χ` exists exactly when
//!
//! ```text
//!       β_i ≤ Σ_{j≠i} α_j            (14') for each single transmitter
//!       Σ_i β_i ≤ Σ_j α_j            (15') for every larger set
//! ```
//!
//! (larger sets of transmitters are covered by (15') because `β ≥ 0`;
//! listen time beyond the demand goes to any transmitter `i ≠ j`). So
//! the reduced LP, with `2N` variables and `3N + 2` rows, has the same
//! optimum and, for `N ≥ 2`, the same feasible `(α, β)`. (A lone node
//! has no listener to cover: (15) pins `α_0 = 0` where the reduction
//! leaves it free, and both give `β_0 = 0`.)

use crate::solution::OracleSolution;
use econcast_core::NodeParams;
use econcast_lp::{Problem, Relation};

/// Solves (P3) exactly through its Hall reduction. Variables are laid
/// out `[α_0..α_{N−1}, β_0..β_{N−1}]`.
///
/// # Panics
///
/// Panics when `nodes` is empty.
pub fn oracle_anyput(nodes: &[NodeParams]) -> OracleSolution {
    let n = nodes.len();
    assert!(n >= 1, "need at least one node");
    let mut obj = vec![0.0; 2 * n];
    for o in obj.iter_mut().skip(n) {
        *o = 1.0;
    }
    let mut p = Problem::maximize(&obj);
    for (i, node) in nodes.iter().enumerate() {
        // (9)
        p.constrain_sparse(
            &[(i, node.listen_w), (n + i, node.transmit_w)],
            Relation::Le,
            node.budget_w,
        );
        // (10)
        p.constrain_sparse(&[(i, 1.0), (n + i, 1.0)], Relation::Le, 1.0);
        // (14'): β_i − Σ_{j≠i} α_j ≤ 0 (a single node gets β_0 ≤ 0).
        let mut row: Vec<(usize, f64)> = vec![(n + i, 1.0)];
        row.extend((0..n).filter(|&j| j != i).map(|j| (j, -1.0)));
        p.constrain_sparse(&row, Relation::Le, 0.0);
    }
    // (15'): Σ_i β_i − Σ_j α_j ≤ 0
    let row: Vec<(usize, f64)> = (0..2 * n)
        .map(|k| (k, if k < n { -1.0 } else { 1.0 }))
        .collect();
    p.constrain_sparse(&row, Relation::Le, 0.0);
    // (11)
    let all_beta: Vec<(usize, f64)> = (0..n).map(|j| (n + j, 1.0)).collect();
    p.constrain_sparse(&all_beta, Relation::Le, 1.0);

    let sol = p
        .solve()
        .expect("(P3) is always feasible: the all-sleep schedule satisfies every constraint");
    OracleSolution {
        throughput: sol.objective,
        alpha: sol.x[..n].to_vec(),
        beta: sol.x[n..].to_vec(),
    }
}

/// The closed-form homogeneous solution, both regimes:
///
/// * **energy-constrained** (`N·β* ≤ 1` with `β* = ρ/(X+L)`): each
///   transmission is paired with exactly one listener (Section IV-B),
///   so `α* = β*` and `T*_a = N·β*`;
/// * **airtime-capped** (`N·β* > 1`): at most one packet can be on air
///   at a time and anyput counts each at most once, so `T*_a = 1`,
///   reached by round-robin `β = α = 1/N` — feasible because the cap
///   binding means `ρ > (X+L)/N`, and `α + β = 2/N ≤ 1` for `N ≥ 2`.
///
/// Cross-checked against the (P3) LP over both regimes in tests;
/// always `Some` (the `Option` is kept for API stability with the
/// groupput closed form, which genuinely has a fallback regime).
pub fn oracle_anyput_homogeneous(n: usize, params: &NodeParams) -> Option<OracleSolution> {
    let (share, throughput) = homogeneous_schedule(n, params);
    Some(OracleSolution {
        throughput,
        alpha: vec![share; n],
        beta: vec![share; n],
    })
}

/// The per-node share `α* = β*` and `T*_a` of the closed form.
pub(crate) fn homogeneous_schedule(n: usize, params: &NodeParams) -> (f64, f64) {
    assert!(n >= 2, "anyput needs at least two nodes");
    let nf = n as f64;
    let beta_free = params.budget_w / (params.transmit_w + params.listen_w);
    if nf * beta_free > 1.0 {
        (1.0 / nf, 1.0)
    } else {
        (beta_free, nf * beta_free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Variable layout of the full (P3): `α` at `0..n`, `β` at `n..2n`,
    /// then the `χ_{i,j}` (`i ≠ j`) packed row-major with the diagonal
    /// skipped.
    fn chi_index(n: usize, i: usize, j: usize) -> usize {
        debug_assert!(i != j && i < n && j < n);
        let col = if j < i { j } else { j - 1 };
        2 * n + i * (n - 1) + col
    }

    /// (P3) exactly as stated, with `2N + N(N−1)` variables: the
    /// reference the Hall reduction is checked against.
    fn oracle_anyput_full(nodes: &[NodeParams]) -> f64 {
        let n = nodes.len();
        let mut obj = vec![0.0; 2 * n + n * (n - 1)];
        for o in obj.iter_mut().skip(n).take(n) {
            *o = 1.0;
        }
        let mut p = Problem::maximize(&obj);
        for (i, node) in nodes.iter().enumerate() {
            p.constrain_sparse(
                &[(i, node.listen_w), (n + i, node.transmit_w)],
                Relation::Le,
                node.budget_w,
            );
            p.constrain_sparse(&[(i, 1.0), (n + i, 1.0)], Relation::Le, 1.0);
            // (14): β_i − Σ_{j≠i} χ_{i,j} ≤ 0
            let mut row: Vec<(usize, f64)> = vec![(n + i, 1.0)];
            row.extend(
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| (chi_index(n, i, j), -1.0)),
            );
            p.constrain_sparse(&row, Relation::Le, 0.0);
            // (15): α_i − Σ_{j≠i} χ_{j,i} = 0
            let mut row: Vec<(usize, f64)> = vec![(i, 1.0)];
            row.extend(
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| (chi_index(n, j, i), -1.0)),
            );
            p.constrain_sparse(&row, Relation::Eq, 0.0);
        }
        let all_beta: Vec<(usize, f64)> = (0..n).map(|j| (n + j, 1.0)).collect();
        p.constrain_sparse(&all_beta, Relation::Le, 1.0);
        p.solve().expect("all-sleep is feasible").objective
    }

    #[test]
    fn closed_form_matches_lp_in_both_regimes() {
        // Sweep across the energy-constrained / airtime-capped
        // boundary: the closed form must track the LP everywhere.
        for n in [2usize, 3, 5, 8, 12] {
            for rho_uw in [5.0, 50.0, 120.0, 300.0, 900.0] {
                let p = NodeParams::from_microwatts(rho_uw, 500.0, 450.0);
                let lp = oracle_anyput(&vec![p; n]).throughput;
                let cf = oracle_anyput_homogeneous(n, &p).unwrap();
                assert!(
                    (lp - cf.throughput).abs() <= 1e-9 * lp.max(1.0),
                    "n={n} rho={rho_uw}: LP {lp} vs closed form {}",
                    cf.throughput
                );
                assert!(cf.is_feasible(&vec![p; n], 1e-9));
            }
        }
    }

    #[test]
    fn airtime_capped_regime_saturates_at_one() {
        let p = NodeParams::from_microwatts(900.0, 500.0, 450.0);
        let cf = oracle_anyput_homogeneous(10, &p).unwrap();
        assert_eq!(cf.throughput, 1.0);
        assert_eq!(cf.beta[0], 0.1);
        assert_eq!(cf.alpha[0], 0.1);
    }

    fn uw(budget: f64, l: f64, x: f64) -> NodeParams {
        NodeParams::from_microwatts(budget, l, x)
    }

    #[test]
    fn chi_indexing_is_a_bijection() {
        let n = 5;
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let idx = chi_index(n, i, j);
                    assert!(idx >= 2 * n && idx < 2 * n + n * (n - 1));
                    assert!(seen.insert(idx), "duplicate index for ({i},{j})");
                }
            }
        }
        assert_eq!(seen.len(), n * (n - 1));
    }

    #[test]
    fn homogeneous_lp_matches_closed_form() {
        for n in [2usize, 3, 5, 8] {
            let p = uw(10.0, 500.0, 500.0);
            let nodes = vec![p; n];
            let lp = oracle_anyput(&nodes);
            let cf = oracle_anyput_homogeneous(n, &p).expect("closed form is total");
            assert!(
                (lp.throughput - cf.throughput).abs() < 1e-9,
                "n={n}: LP {} vs closed form {}",
                lp.throughput,
                cf.throughput
            );
        }
    }

    #[test]
    fn anyput_capped_at_one() {
        // Rich network: anyput saturates at 1 (someone always
        // transmitting to someone).
        let nodes = vec![NodeParams::new(10.0, 1.0, 1.0); 4];
        let sol = oracle_anyput(&nodes);
        assert!((sol.throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn anyput_supports_more_transmission_than_groupput() {
        // Anyput needs only one listener per transmission, so the total
        // transmit time Σβ under (P3), N·ρ/(X+L), exceeds groupput's
        // N·ρ/(X+(N−1)L). (Per-node values are not unique at the LP
        // vertex, so compare totals.)
        let p = uw(10.0, 500.0, 500.0);
        let nodes = vec![p; 5];
        let any = oracle_anyput(&nodes);
        let grp = crate::groupput::oracle_groupput(&nodes);
        let any_total: f64 = any.beta.iter().sum();
        let grp_total: f64 = grp.beta.iter().sum();
        assert!(
            any_total > grp_total + 1e-9,
            "anyput Σβ {any_total} vs groupput Σβ {grp_total}"
        );
        // Exact totals from the closed forms.
        assert!((any_total - 5.0 * 10e-6 / 1000e-6).abs() < 1e-9);
        assert!((grp_total - 5.0 * 10e-6 / 2500e-6).abs() < 1e-9);
    }

    #[test]
    fn single_node_anyput_is_zero() {
        let sol = oracle_anyput(&[uw(10.0, 500.0, 500.0)]);
        assert_eq!(sol.throughput, 0.0);
    }

    #[test]
    fn heterogeneous_solution_is_feasible() {
        let nodes = vec![
            uw(5.0, 400.0, 600.0),
            uw(10.0, 500.0, 500.0),
            uw(50.0, 600.0, 400.0),
        ];
        let sol = oracle_anyput(&nodes);
        assert!(sol.is_feasible(&nodes, 1e-8));
        // (14)+(15) imply Σβ ≤ Σα at the aggregate level.
        let sum_a: f64 = sol.alpha.iter().sum();
        let sum_b: f64 = sol.beta.iter().sum();
        assert!(sum_b <= sum_a + 1e-8);
    }

    proptest! {
        /// Anyput is bounded by 1 and by the groupput-style budget cap,
        /// and the LP stays feasible on random networks.
        #[test]
        fn prop_anyput_bounds(
            n in 2usize..6,
            budgets in proptest::collection::vec(1.0f64..100.0, 2..6),
        ) {
            let nodes: Vec<NodeParams> = (0..n)
                .map(|i| uw(budgets[i % budgets.len()], 500.0, 500.0))
                .collect();
            let sol = oracle_anyput(&nodes);
            prop_assert!(sol.is_feasible(&nodes, 1e-7));
            prop_assert!(sol.throughput <= 1.0 + 1e-9);
            prop_assert!(sol.throughput >= -1e-12);
        }

        /// The Hall-reduced (P3) has the full χ formulation's optimum,
        /// including nodes with different powers, in both regimes.
        #[test]
        fn prop_hall_reduction_matches_full_p3(
            n in 1usize..=12,
            decades in proptest::collection::vec(-0.3f64..3.3, 12..13),
            powers in proptest::collection::vec(100.0f64..900.0, 24..25),
            common in 0usize..2,
        ) {
            // Budgets log-uniform over 0.5–2000 µW: most instances are
            // energy-constrained, some airtime-capped.
            let nodes: Vec<NodeParams> = (0..n)
                .map(|i| {
                    let k = if common == 1 { 0 } else { i };
                    uw(10f64.powf(decades[i]), powers[2 * k], powers[2 * k + 1])
                })
                .collect();
            let reduced = oracle_anyput(&nodes);
            let full = oracle_anyput_full(&nodes);
            prop_assert!(
                (reduced.throughput - full).abs() <= 1e-9 * full.max(1e-12),
                "n={n}: reduced {} vs full {full}",
                reduced.throughput
            );
            prop_assert!(reduced.is_feasible(&nodes, 1e-9));
        }
    }
}
