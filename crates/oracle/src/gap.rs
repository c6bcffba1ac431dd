//! The achievability gap: sandwiching the oracle `T*` with the
//! entropy-regularized solver.
//!
//! Weak duality on (P4) gives machine-checkable two-sided bounds on
//! the oracle throughput without trusting either solver blindly:
//!
//! * **from below** — the (P4) optimum's expected throughput
//!   `T^σ = E_π[T_w]` is attained by an implementable distribution, so
//!   (up to the dual residual tolerance) `T^σ ≤ T*`;
//! * **from above** — for any multipliers `η ≥ 0` the dual value
//!   `D(η) = E[T] + σH(π_η) + Σ_i η_i (ρ_i − cons_i)` dominates the
//!   constrained optimum of the regularized objective, and the entropy
//!   term is non-negative, so `T* ≤ D(η)`.
//!
//! As `σ → 0` the sandwich tightens onto the LP oracle of
//! [`crate::groupput`]/[`crate::anyput`] (Theorem 1's limit), which
//! makes the triple `(T^σ, T*_LP, D(η))` a strong cross-validation of
//! the simplex and Gibbs code paths against each other.
//!
//! Sweeps reuse one [`P4Solver`] — the kernel workspaces and every
//! summary buffer are allocated once for the whole σ frontier. The
//! solver's kernel-dispatch layer means the gap machinery scales with
//! it: heterogeneous instances beyond the enumeration wall
//! (`N > 20`) run the factorized polynomial kernel.
//!
//! The oracle side ([`oracle_throughput_for`]) takes the cheapest exact
//! route the instance allows:
//!
//! * identical nodes: the closed forms of Appendix B, `O(1)`;
//! * groupput over nodes that share `L` and `X` — every served policy
//!   request — the `F(B)` scan of
//!   `oracle_groupput_common_power`, `O(N log N)`.
//!   It maximizes, over the aggregate transmit time `B = Σβ`, the total
//!   listen time `Σ_i min(r_i, B)` less the cheapest split of `B`
//!   into per-node transmit times (derivation in [`crate::groupput`]);
//! * anyput: the Hall-reduced (P3) of [`crate::anyput`], `2N`
//!   variables and `3N + 2` rows;
//! * groupput with differing powers: the (P2) simplex.

use crate::groupput::oracle_groupput_common_power;
use crate::{anyput, groupput, oracle_anyput, oracle_groupput};
use econcast_core::{NodeParams, ThroughputMode};
use econcast_statespace::homogeneous::HomogeneousP4Solution;
use econcast_statespace::{P4Options, P4Solution, P4Solver};

/// A two-sided certificate around the oracle throughput at one `σ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AchievabilityGap {
    /// Temperature this gap was evaluated at.
    pub sigma: f64,
    /// `T^σ` — achievable throughput of the (P4) optimum (the lower
    /// end of the sandwich, up to the dual residual tolerance).
    pub t_sigma: f64,
    /// The LP oracle `T*` (what Figs. 2–3 normalize against).
    pub oracle: f64,
    /// `D(η)` at the final multipliers — a weak-duality upper bound on
    /// the entropy-regularized optimum, hence on `T*`.
    pub dual_upper: f64,
    /// Whether the dual descent met its tolerance.
    pub converged: bool,
}

impl AchievabilityGap {
    /// `T^σ / T*` — the ratio the paper plots.
    pub fn ratio(&self) -> f64 {
        if self.oracle > 0.0 {
            self.t_sigma / self.oracle
        } else {
            f64::NAN
        }
    }

    /// Verifies the sandwich `T^σ ≤ T* ≤ D(η)` within `tol`
    /// (absolute + relative).
    pub fn is_consistent(&self, tol: f64) -> bool {
        let slack = tol * (1.0 + self.oracle.abs());
        self.t_sigma <= self.oracle + slack && self.oracle <= self.dual_upper + slack
    }
}

/// The oracle `T*` for `mode`, exact on every route (see the module
/// docs): closed forms for identical nodes — certificates for
/// thousand-node homogeneous policies never touch the simplex — then
/// the common-power groupput scan, then the LPs.
pub fn oracle_throughput_for(nodes: &[NodeParams], mode: ThroughputMode) -> f64 {
    if nodes.len() >= 2 && nodes.windows(2).all(|w| w[0] == w[1]) {
        return homogeneous_oracle(nodes.len(), &nodes[0], mode);
    }
    match mode {
        ThroughputMode::Groupput => {
            oracle_groupput_common_power(nodes).unwrap_or_else(|| oracle_groupput(nodes).throughput)
        }
        ThroughputMode::Anyput => oracle_anyput(nodes).throughput,
    }
}

/// `T*` of `n` identical nodes from the closed forms, in every regime.
/// A lone node has no receiver, so its `T*` is 0. Past Appendix B's
/// regime groupput is capped at `N − 1`: there `β* > 1/N`, so
/// round-robin `β = 1/N`, `α = (N−1)/N` fits the budget (9) and meets
/// the cap that (11) and (12) put on any schedule.
fn homogeneous_oracle(n: usize, params: &NodeParams, mode: ThroughputMode) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    match mode {
        ThroughputMode::Groupput => {
            groupput::homogeneous_schedule(n, params).map_or(nf - 1.0, |(alpha, _)| nf * alpha)
        }
        ThroughputMode::Anyput => anyput::homogeneous_schedule(n, params).1,
    }
}

/// Assembles the weak-duality certificate around an *existing* (P4)
/// solution — no re-solve, one oracle evaluation. This is what the
/// policy service attaches to every response.
pub fn certificate_for(
    nodes: &[NodeParams],
    sigma: f64,
    mode: ThroughputMode,
    sol: &P4Solution,
) -> AchievabilityGap {
    certificate_with_oracle(nodes, sigma, sol, oracle_throughput_for(nodes, mode))
}

/// Certificate assembly against a precomputed oracle value (sweeps and
/// caches amortize the LP solve).
fn certificate_with_oracle(
    nodes: &[NodeParams],
    sigma: f64,
    sol: &P4Solution,
    oracle: f64,
) -> AchievabilityGap {
    // D(η) = objective + Σ η_i (ρ_i − cons_i).
    let mut dual = sol.objective;
    for (i, p) in nodes.iter().enumerate() {
        let cons = p.average_power(sol.alpha[i], sol.beta[i]);
        dual += sol.eta[i] * (p.budget_w - cons);
    }
    AchievabilityGap {
        sigma,
        t_sigma: sol.throughput,
        oracle,
        dual_upper: dual,
        converged: sol.converged,
    }
}

/// [`certificate_for`] for the homogeneous fast path: the scalar-dual
/// solution of `HomogeneousP4` carries everything the dual value needs
/// (`D(η) = E[T] + σH + N·η·(ρ − cons)`), and the bisection is exact,
/// so the certificate reports convergence unconditionally.
pub fn certificate_for_homogeneous(
    n: usize,
    params: &NodeParams,
    sigma: f64,
    mode: ThroughputMode,
    sol: &HomogeneousP4Solution,
) -> AchievabilityGap {
    let cons = params.average_power(sol.alpha, sol.beta);
    let dual = sol.summary.expected_throughput
        + sigma * sol.summary.entropy
        + n as f64 * sol.eta * (params.budget_w - cons);
    AchievabilityGap {
        sigma,
        t_sigma: sol.throughput,
        oracle: homogeneous_oracle(n, params, mode),
        dual_upper: dual,
        converged: true,
    }
}

/// Solves (P4) on the given solver and assembles the certificate
/// against a precomputed oracle value.
fn gap_at(
    solver: &mut P4Solver,
    nodes: &[NodeParams],
    sigma: f64,
    mode: ThroughputMode,
    opts: P4Options,
    oracle: f64,
) -> AchievabilityGap {
    let sol = solver.solve(nodes, sigma, mode, opts);
    certificate_with_oracle(nodes, sigma, &sol, oracle)
}

/// Evaluates the sandwich at one temperature, using (and mutating) the
/// caller's solver so sweeps amortize the workspace.
pub fn achievability_gap_with(
    solver: &mut P4Solver,
    nodes: &[NodeParams],
    sigma: f64,
    mode: ThroughputMode,
    opts: P4Options,
) -> AchievabilityGap {
    let oracle = oracle_throughput_for(nodes, mode);
    gap_at(solver, nodes, sigma, mode, opts, oracle)
}

/// One-shot wrapper around [`achievability_gap_with`].
pub fn achievability_gap(
    nodes: &[NodeParams],
    sigma: f64,
    mode: ThroughputMode,
    opts: P4Options,
) -> AchievabilityGap {
    achievability_gap_with(&mut P4Solver::new(nodes.len()), nodes, sigma, mode, opts)
}

/// The σ frontier: gaps at each requested temperature, computed with a
/// single reused solver workspace (and a single oracle LP solve).
pub fn sigma_frontier(
    nodes: &[NodeParams],
    sigmas: &[f64],
    mode: ThroughputMode,
    opts: P4Options,
) -> Vec<AchievabilityGap> {
    let mut solver = P4Solver::new(nodes.len());
    let oracle = oracle_throughput_for(nodes, mode);
    sigmas
        .iter()
        .map(|&sigma| gap_at(&mut solver, nodes, sigma, mode, opts, oracle))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use econcast_core::ThroughputMode::{Anyput, Groupput};

    fn nodes() -> Vec<NodeParams> {
        vec![NodeParams::from_microwatts(10.0, 500.0, 500.0); 5]
    }

    #[test]
    fn sandwich_holds_groupput() {
        let g = achievability_gap(&nodes(), 0.5, Groupput, P4Options::default());
        assert!(g.converged);
        assert!(
            g.is_consistent(1e-3),
            "sandwich violated: T^σ={} T*={} D={}",
            g.t_sigma,
            g.oracle,
            g.dual_upper
        );
        assert!(g.ratio() > 0.0 && g.ratio() <= 1.0 + 1e-9);
    }

    #[test]
    fn sandwich_holds_heterogeneous_anyput() {
        let nodes = vec![
            NodeParams::from_microwatts(5.0, 400.0, 600.0),
            NodeParams::from_microwatts(10.0, 500.0, 500.0),
            NodeParams::from_microwatts(50.0, 600.0, 400.0),
            NodeParams::from_microwatts(100.0, 550.0, 450.0),
        ];
        let g = achievability_gap(&nodes, 0.5, Anyput, P4Options::default());
        assert!(
            g.is_consistent(2e-3),
            "sandwich violated: T^σ={} T*={} D={}",
            g.t_sigma,
            g.oracle,
            g.dual_upper
        );
    }

    #[test]
    fn certificate_for_matches_full_gap() {
        let nodes = nodes();
        let mut solver = P4Solver::new(nodes.len());
        let sol = solver.solve(&nodes, 0.5, Groupput, P4Options::default());
        let cert = certificate_for(&nodes, 0.5, Groupput, &sol);
        let full = achievability_gap(&nodes, 0.5, Groupput, P4Options::default());
        assert_eq!(cert, full, "certificate assembly must not depend on path");
    }

    #[test]
    fn homogeneous_certificate_is_consistent_and_matches_exact() {
        use econcast_statespace::HomogeneousP4;
        let p = NodeParams::from_microwatts(10.0, 500.0, 500.0);
        for n in [5usize, 40, 500] {
            let sol = HomogeneousP4::new(n, p, 0.5, Groupput).solve();
            let cert = certificate_for_homogeneous(n, &p, 0.5, Groupput, &sol);
            assert!(cert.converged);
            assert!(
                cert.is_consistent(1e-6),
                "n={n}: T^σ={} T*={} D={}",
                cert.t_sigma,
                cert.oracle,
                cert.dual_upper
            );
        }
        // At a size the exact path can handle, the two certificate
        // constructors agree on the whole sandwich.
        let n = 5;
        let hsol = HomogeneousP4::new(n, p, 0.5, Groupput).solve();
        let hcert = certificate_for_homogeneous(n, &p, 0.5, Groupput, &hsol);
        let ecert = achievability_gap(&vec![p; n], 0.5, Groupput, P4Options::default());
        assert!((hcert.oracle - ecert.oracle).abs() < 1e-9);
        assert!((hcert.t_sigma - ecert.t_sigma).abs() / ecert.t_sigma < 5e-3);
        assert!((hcert.dual_upper - ecert.dual_upper).abs() / ecert.dual_upper < 5e-3);
    }

    #[test]
    fn sandwich_holds_beyond_the_enumeration_wall() {
        // N = 32 heterogeneous: the (P4) side runs the factorized
        // kernel, the oracle side the polynomial LP — the weak-duality
        // sandwich must close around T* exactly as it does at N = 5.
        use econcast_statespace::SummaryKernel;
        let nodes: Vec<NodeParams> = (0..32)
            .map(|i| NodeParams::from_microwatts(2.0 + 2.5 * i as f64, 500.0, 450.0))
            .collect();
        for mode in [Groupput, Anyput] {
            let mut solver = P4Solver::new(nodes.len());
            let sol = solver.solve(&nodes, 0.5, mode, P4Options::default());
            assert_eq!(sol.kernel, SummaryKernel::Factorized);
            let g = certificate_for(&nodes, 0.5, mode, &sol);
            assert!(
                g.is_consistent(5e-3),
                "{mode:?}: sandwich violated at N=32: T^σ={} T*={} D={}",
                g.t_sigma,
                g.oracle,
                g.dual_upper
            );
            assert!(g.ratio() > 0.0 && g.ratio() <= 1.0 + 5e-3);
        }
    }

    #[test]
    fn frontier_tightens_as_sigma_falls() {
        let gaps = sigma_frontier(&nodes(), &[0.75, 0.5, 0.25], Groupput, P4Options::default());
        assert_eq!(gaps.len(), 3);
        for g in &gaps {
            assert!(
                g.is_consistent(2e-3),
                "σ={}: inconsistent sandwich",
                g.sigma
            );
        }
        // The paper's central claim: the ratio rises as σ falls.
        assert!(gaps[2].ratio() > gaps[1].ratio());
        assert!(gaps[1].ratio() > gaps[0].ratio());
        // And every frontier point shares the same oracle value.
        assert_eq!(gaps[0].oracle, gaps[1].oracle);
    }
}
