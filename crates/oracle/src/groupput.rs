//! Oracle groupput in a clique — the LP (P2) of Section IV-A.
//!
//! ```text
//! T*_g = max_{α,β} Σ_i α_i
//! s.t.  α_i L_i + β_i X_i ≤ ρ_i        (9)  power budget
//!       α_i + β_i ≤ 1                  (10) one state at a time
//!       Σ_i β_i ≤ 1                    (11) one transmitter at a time
//!       α_i ≤ Σ_{j≠i} β_j              (12) listen only during a transmission
//! ```
//!
//! In a clique every listen during the (single) active transmission is
//! a reception, so the groupput equals `Σ_i α_i` — the LP objective.
//!
//! [`oracle_groupput`] solves (P2) with the simplex for any powers.
//! When every node shares `L` and `X` — every served policy request
//! does — `oracle_groupput_common_power` solves it exactly in
//! `O(N log N)` from the LP's structure:
//!
//! * With `r_i = ρ_i/L`, `c = X/L` and the aggregate transmit time
//!   `B = Σ_j β_j`, (12) reads `α_i ≤ B − β_i`, which implies (10)
//!   since `B ≤ 1` by (11). For a fixed `B` the best listen time is
//!   `α_i = min(r_i − c·β_i, B − β_i)`, so `T*_g = max_{B ∈ [0, B_max]}
//!   F(B)` with `B_max = min(1, Σ_i r_i/c)`.
//! * `F(B) = Σ_i min(r_i, B) − cost(B)`, where `cost(B)` is the
//!   cheapest way to split `B` into the `β_i`. Each node's loss of
//!   listen time is convex piecewise linear in `β_i` with slopes `c`
//!   and `1`, so the split fills the cheaper slope first. For `c ≤ 1`
//!   a node with `r_i < B` offers `k_i = min((B − r_i)/(1 − c), r_i/c)`
//!   at slope `c` and the rest costs `1`: `cost = c·min(B, K) +
//!   max(0, B − K)` with `K = Σ_{r_i<B} k_i`. For `c > 1` a node with
//!   `r_i ≥ B` offers `min((r_i − B)/(c − 1), B)` at slope `1` and the
//!   rest costs `c`: `cost = min(B, K) + c·max(0, B − K)`.
//! * `F` is the optimum of an LP as a function of one right-hand side,
//!   hence concave and piecewise linear. Its kinks lie in `{0, B_max,
//!   r_i, r_i/c}`, plus the one root of `K(B) = B` on each interval
//!   between consecutive points of that set. One sort and prefix sums
//!   evaluate `F` at a point in `O(log N)`; the maximum over the kinks
//!   is `T*_g`.

use crate::solution::OracleSolution;
use econcast_core::NodeParams;
use econcast_lp::{Problem, Relation};

/// Solves (P2) exactly. Variables are laid out `[α_0..α_{N−1},
/// β_0..β_{N−1}]`; the LP has `2N` variables and `3N + 1` constraints,
/// exactly as stated in Section IV-A.
///
/// # Panics
///
/// Panics when `nodes` is empty. The LP is always feasible (all-sleep
/// is a solution), so solving cannot fail for valid parameters.
pub fn oracle_groupput(nodes: &[NodeParams]) -> OracleSolution {
    let n = nodes.len();
    assert!(n >= 1, "need at least one node");
    let mut obj = vec![0.0; 2 * n];
    for o in obj.iter_mut().take(n) {
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
        // (12): α_i − Σ_{j≠i} β_j ≤ 0
        let mut row: Vec<(usize, f64)> = vec![(i, 1.0)];
        for j in 0..n {
            if j != i {
                row.push((n + j, -1.0));
            }
        }
        p.constrain_sparse(&row, Relation::Le, 0.0);
    }
    // (11)
    let all_beta: Vec<(usize, f64)> = (0..n).map(|j| (n + j, 1.0)).collect();
    p.constrain_sparse(&all_beta, Relation::Le, 1.0);

    let sol = p
        .solve()
        .expect("(P2) is always feasible: the all-sleep schedule satisfies every constraint");
    OracleSolution {
        throughput: sol.objective,
        alpha: sol.x[..n].to_vec(),
        beta: sol.x[n..].to_vec(),
    }
}

/// Solves (P2) exactly for nodes that share the listen and transmit
/// power, in `O(N log N)` (see the module docs for the derivation).
/// Returns `None` when the powers differ; callers fall back to
/// [`oracle_groupput`] then.
pub(crate) fn oracle_groupput_common_power(nodes: &[NodeParams]) -> Option<f64> {
    let first = nodes.first()?;
    let (l, x) = (first.listen_w, first.transmit_w);
    if nodes.iter().any(|p| p.listen_w != l || p.transmit_w != x) {
        return None;
    }
    let mut r: Vec<f64> = nodes.iter().map(|p| p.budget_w / l).collect();
    r.sort_unstable_by(f64::total_cmp);
    let mut prefix = Vec::with_capacity(r.len() + 1);
    prefix.push(0.0);
    let mut acc = 0.0;
    for &ri in &r {
        acc += ri;
        prefix.push(acc);
    }
    let f = CommonPowerF {
        r: &r,
        prefix: &prefix,
        c: x / l,
    };
    let b_max = (acc / f.c).min(1.0);
    let mut kinks: Vec<f64> = r
        .iter()
        .flat_map(|&ri| [ri, ri / f.c])
        .filter(|&b| b > 0.0 && b < b_max)
        .chain([0.0, b_max])
        .collect();
    kinks.sort_unstable_by(f64::total_cmp);
    kinks.dedup();
    let mut best = f.at(0.0);
    let mut prev = (0.0, f.excess(0.0));
    for &b in &kinks[1..] {
        let h = f.excess(b);
        // `K(B) − B` is linear between kinks: its root is one more.
        if (prev.1 < 0.0 && h > 0.0) || (prev.1 > 0.0 && h < 0.0) {
            best = best.max(f.at(prev.0 + (b - prev.0) * prev.1 / (prev.1 - h)));
        }
        best = best.max(f.at(b));
        prev = (b, h);
    }
    Some(best)
}

/// `F(B)` of the common-power (P2) over budgets `r` (sorted, in units
/// of `L`) with their prefix sums. Every `K` term is kept scaled by
/// `|1 − c|`, so `c` near 1 divides by nothing small.
struct CommonPowerF<'a> {
    r: &'a [f64],
    prefix: &'a [f64],
    c: f64,
}

impl CommonPowerF<'_> {
    /// Number of budgets strictly below `b`.
    fn below(&self, b: f64) -> usize {
        self.r.partition_point(|&ri| ri < b)
    }

    /// `|1 − c|·K(B)`.
    fn scaled_k(&self, b: f64) -> f64 {
        let (r, p, c, n) = (self.r, self.prefix, self.c, self.r.len());
        if c <= 1.0 {
            // r_i < cB gives k_i = r_i/c; cB ≤ r_i < B gives (B − r_i)/(1 − c).
            let (k1, k2) = (self.below(c * b), self.below(b));
            (1.0 - c) / c * p[k1] + (k2 - k1) as f64 * b - (p[k2] - p[k1])
        } else {
            // B ≤ r_i ≤ cB gives (r_i − B)/(c − 1); r_i > cB gives B.
            let k2 = self.below(b);
            let k3 = r.partition_point(|&ri| ri <= c * b);
            (p[k3] - p[k2]) - (k3 - k2) as f64 * b + (c - 1.0) * (n - k3) as f64 * b
        }
    }

    /// `|1 − c|·(K(B) − B)`: its sign changes where `min(B, K)` kinks.
    fn excess(&self, b: f64) -> f64 {
        self.scaled_k(b) - (1.0 - self.c).abs() * b
    }

    fn at(&self, b: f64) -> f64 {
        let k = self.below(b);
        let listen_cap = self.prefix[k] + (self.r.len() - k) as f64 * b;
        let d = (1.0 - self.c).abs();
        listen_cap - self.c.max(1.0) * b + (d * b).min(self.scaled_k(b))
    }
}

/// The closed-form homogeneous solution (Section IV-A / Appendix B),
/// valid when nodes are sufficiently energy-constrained (constraint (9)
/// dominates (10) and (11)):
///
/// ```text
/// β* = ρ / (X + (N−1)·L),   α* = (N−1)·β*,   T*_g = N·α*
/// ```
///
/// Returns `None` when the closed form's regime does not apply (the
/// resulting schedule would violate (10) or (11)).
pub fn oracle_groupput_homogeneous(n: usize, params: &NodeParams) -> Option<OracleSolution> {
    let (alpha, beta) = homogeneous_schedule(n, params)?;
    Some(OracleSolution {
        throughput: n as f64 * alpha,
        alpha: vec![alpha; n],
        beta: vec![beta; n],
    })
}

/// Appendix B's per-node `(α*, β*)`, or `None` outside its regime.
pub(crate) fn homogeneous_schedule(n: usize, params: &NodeParams) -> Option<(f64, f64)> {
    assert!(n >= 2, "groupput needs at least two nodes");
    let nf = n as f64;
    let beta = params.budget_w / (params.transmit_w + (nf - 1.0) * params.listen_w);
    let alpha = (nf - 1.0) * beta;
    // Regime check: (10) per node and (11) across nodes.
    (alpha + beta <= 1.0 && nf * beta <= 1.0).then_some((alpha, beta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uw(budget: f64, l: f64, x: f64) -> NodeParams {
        NodeParams::from_microwatts(budget, l, x)
    }

    #[test]
    fn homogeneous_lp_matches_closed_form() {
        for n in [2usize, 3, 5, 10] {
            let p = uw(10.0, 500.0, 500.0);
            let nodes = vec![p; n];
            let lp = oracle_groupput(&nodes);
            let cf = oracle_groupput_homogeneous(n, &p).expect("severely constrained regime");
            assert!(
                (lp.throughput - cf.throughput).abs() < 1e-9,
                "n={n}: LP {} vs closed form {}",
                lp.throughput,
                cf.throughput
            );
        }
    }

    #[test]
    fn closed_form_detects_out_of_regime() {
        // A barely-constrained network: β* would exceed what (11)
        // allows.
        let p = NodeParams::new(10.0, 1.0, 1.0); // budget 10 W ≫ powers
        assert!(oracle_groupput_homogeneous(5, &p).is_none());
    }

    #[test]
    fn unconstrained_limit_is_n_minus_1() {
        // With huge budgets the LP caps at the structural optimum N−1
        // (one node always transmits, the rest always listen).
        let nodes = vec![NodeParams::new(100.0, 1.0, 1.0); 4];
        let sol = oracle_groupput(&nodes);
        assert!((sol.throughput - 3.0).abs() < 1e-9);
    }

    #[test]
    fn lp_solution_is_feasible() {
        let nodes = vec![
            uw(5.0, 400.0, 600.0),
            uw(10.0, 500.0, 500.0),
            uw(50.0, 600.0, 400.0),
            uw(100.0, 550.0, 450.0),
        ];
        let sol = oracle_groupput(&nodes);
        assert!(sol.is_feasible(&nodes, 1e-9));
        // (12): each α_i covered by other nodes' β.
        let total_beta: f64 = sol.beta.iter().sum();
        for i in 0..4 {
            assert!(sol.alpha[i] <= total_beta - sol.beta[i] + 1e-9);
        }
    }

    #[test]
    fn table2_shape_transmit_share_grows_with_budget() {
        // The Table II example: L = X = 1 mW, budgets 5/10/50/100 µW.
        // Qualitative shape: richer nodes spend a larger share of their
        // awake time transmitting, and awake time is ρ/L.
        let nodes = vec![
            NodeParams::from_milliwatts(0.005, 1.0, 1.0),
            NodeParams::from_milliwatts(0.01, 1.0, 1.0),
            NodeParams::from_milliwatts(0.05, 1.0, 1.0),
            NodeParams::from_milliwatts(0.1, 1.0, 1.0),
        ];
        let sol = oracle_groupput(&nodes);
        // The optimal value is unique even though the optimal schedule
        // is not: T*_g = Σ_i min(r_i, B*) − B* with r_i = ρ_i/L and any
        // B* ∈ [0.05, 0.1] — which evaluates to Σ r_i − max_i r_i.
        let budgets_over_l: Vec<f64> = nodes.iter().map(|p| p.budget_w / p.listen_w).collect();
        let expected: f64 =
            budgets_over_l.iter().sum::<f64>() - budgets_over_l.iter().cloned().fold(0.0, f64::max);
        assert!((sol.throughput - expected).abs() < 1e-9);
        // No node exceeds its power-limited awake fraction ρ/L, and the
        // three poorer nodes are fully awake in any optimal vertex.
        for (i, node) in nodes.iter().enumerate() {
            assert!(sol.awake_fraction(i) <= node.budget_w / node.listen_w + 1e-9);
        }
        for i in 0..3 {
            assert!(
                (sol.awake_fraction(i) - budgets_over_l[i]).abs() < 1e-9,
                "poor node {i} should exhaust its budget, awake {}",
                sol.awake_fraction(i)
            );
        }
    }

    #[test]
    fn single_node_has_zero_groupput() {
        let sol = oracle_groupput(&[uw(10.0, 500.0, 500.0)]);
        assert_eq!(sol.throughput, 0.0);
    }

    #[test]
    fn common_power_matches_lp_on_the_table2_shape() {
        let nodes: Vec<NodeParams> = [0.005, 0.01, 0.05, 0.1]
            .iter()
            .map(|&b| NodeParams::from_milliwatts(b, 1.0, 1.0))
            .collect();
        let exact = oracle_groupput_common_power(&nodes).expect("shared powers");
        assert!((exact - oracle_groupput(&nodes).throughput).abs() < 1e-12);
        let mixed = [nodes[0], uw(10.0, 500.0, 400.0)];
        assert_eq!(oracle_groupput_common_power(&mixed), None);
    }

    proptest! {
        /// The common-power scan is exact: it matches the (P2) simplex
        /// for `c = X/L` below, at and above 1, budgets from deeply
        /// energy-constrained to airtime-capped (up to 20·L, where
        /// many instances reach the cap `N − 1`), and duplicated budgets.
        #[test]
        fn prop_common_power_matches_lp(
            n in 1usize..=96,
            c_pick in 0usize..4,
            c_free in 0.2f64..2.7,
            scale in -3.0f64..1.3,
            spread in proptest::collection::vec(0.0f64..1.0, 96..97),
            dup in 1usize..4,
        ) {
            let c = [0.9, 1.0, 1.5, c_free][c_pick];
            let l = 500e-6;
            // Budgets ρ_i/L log-spread over one decade below 10^scale,
            // each value repeated `dup` times.
            let nodes: Vec<NodeParams> = (0..n)
                .map(|i| {
                    let r = 10f64.powf(scale - spread[i / dup]);
                    NodeParams::new(r * l, l, c * l)
                })
                .collect();
            let exact = oracle_groupput_common_power(&nodes).unwrap();
            let lp = oracle_groupput(&nodes).throughput;
            prop_assert!(
                (exact - lp).abs() <= 1e-9 * lp.abs().max(1e-6),
                "n={n} c={c}: exact {exact} vs LP {lp}"
            );
        }

        /// LP feasibility and the analytical cap T*_g ≤ N−1 hold for
        /// random heterogeneous networks.
        #[test]
        fn prop_feasible_and_capped(
            n in 2usize..7,
            budgets in proptest::collection::vec(1.0f64..200.0, 2..7),
            powers in proptest::collection::vec(300.0f64..800.0, 4..14),
        ) {
            let nodes: Vec<NodeParams> = (0..n).map(|i| {
                let b = budgets[i % budgets.len()];
                let l = powers[(2 * i) % powers.len()];
                let x = powers[(2 * i + 1) % powers.len()];
                uw(b, l, x)
            }).collect();
            let sol = oracle_groupput(&nodes);
            prop_assert!(sol.is_feasible(&nodes, 1e-7));
            prop_assert!(sol.throughput <= (n as f64) - 1.0 + 1e-9);
            prop_assert!(sol.throughput >= -1e-12);
        }

        /// Oracle groupput is monotone in the budget: richer networks
        /// can only do better.
        #[test]
        fn prop_monotone_in_budget(
            n in 2usize..6,
            budget in 1.0f64..50.0,
            extra in 1.0f64..50.0,
        ) {
            let poor = vec![uw(budget, 500.0, 500.0); n];
            let rich = vec![uw(budget + extra, 500.0, 500.0); n];
            let tp = oracle_groupput(&poor).throughput;
            let tr = oracle_groupput(&rich).throughput;
            prop_assert!(tr >= tp - 1e-9);
        }
    }
}
