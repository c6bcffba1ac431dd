//! The (P4) achievable-throughput solver (Section VI, Algorithm 1).
//!
//! (P4) adds an entropy regularizer to the oracle LP (P1):
//!
//! ```text
//! max_π  Σ_w π_w T_w − σ Σ_w π_w log π_w
//! s.t.   α_i L_i + β_i X_i ≤ ρ_i   ∀i,   π a distribution over W
//! ```
//!
//! With the power constraints dualized (multipliers `η_i ≥ 0`), the
//! inner maximization over `π` is solved in closed form by the Gibbs
//! distribution (19); the dual `D(η)` is then minimized by gradient
//! descent, the gradient being the budget slack
//! `∂D/∂η_i = ρ_i − (α_i L_i + β_i X_i)` (eq. (22)).
//!
//! Algorithm 1 prescribes `δ_k = 1/k`; on heterogeneous instances the
//! raw powers span orders of magnitude, so we use the same descent with
//! per-coordinate AdaGrad scaling of a *normalized* gradient
//! `g̃_i = (ρ_i − cons_i)/(ρ_i + cons_i) ∈ (−1, 1]` — a diagonal
//! preconditioner, which preserves the convex-dual convergence
//! guarantee while making one tolerance work across all of the paper's
//! parameter ranges.
//!
//! The descent's inner loop is a [`SummaryWorkspace`]: the state table
//! and every accumulator are allocated once per solve ([`P4Solver`])
//! and reused across the up-to-30 000 dual iterations, with the
//! per-transmitter blocks of the summary fanned out over the worker
//! pool for larger networks.
//!
//! The achievable throughput `T^σ` reported by the paper's figures is
//! the expected throughput `E_π[T_w]` at the optimal dual point.

use crate::factorized::FactorizedWorkspace;
use crate::gibbs::{GibbsParams, GibbsSummary, SummaryWorkspace};
use crate::homogeneous::HomogeneousP4;
use crate::space::StateSpace;
use econcast_core::{NodeParams, ThroughputMode};

/// Which summarization kernel a solve actually ran — recorded in
/// [`P4Solution::kernel`] so callers (the policy service's cache tags,
/// the bench suite) can observe the dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SummaryKernel {
    /// The Gray-code streaming enumeration (`(N+2)·2^{N−1}` states).
    GrayCode,
    /// The factorized polynomial kernel (O(N) per evaluation).
    Factorized,
    /// The homogeneous O(1) closed form + scalar-dual bisection.
    Homogeneous,
}

/// Kernel selection policy for a (P4) solve.
///
/// `Auto` resolves **deterministically from the instance alone** —
/// node count, throughput mode, and heterogeneity; never thread count,
/// timing, or environment — so the same request dispatches the same
/// way on every machine and at every `ECONCAST_THREADS` (pinned by a
/// regression test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelSelect {
    /// Pick automatically (the default):
    ///
    /// * bit-identical nodes, `n ≥ 2` → [`SummaryKernel::Homogeneous`]
    ///   (the scalar dual is exact and O(N) per evaluation);
    /// * `n > StateSpace::MAX_N` → [`SummaryKernel::Factorized`]
    ///   (enumeration is impossible);
    /// * groupput → [`SummaryKernel::Factorized`] (O(N) beats the
    ///   Gray-code sweep at every size);
    /// * anyput, `n ≤ ANYPUT_GRAY_MAX` → [`SummaryKernel::GrayCode`]
    ///   (the exp-heavy factorized path only wins once the hypercube
    ///   outgrows it), else factorized.
    #[default]
    Auto,
    /// Force the Gray-code enumeration kernel (requires
    /// `n ≤ StateSpace::MAX_N`). Fixed-iteration profiling runs pin
    /// this so benchmark baselines keep measuring the same work.
    GrayCode,
    /// Force the factorized kernel.
    Factorized,
}

/// Below/at this anyput node count `Auto` keeps the Gray-code sweep:
/// the `(N+2)·2^{N−1}` walk of tight O(1) steps still undercuts the
/// factorized path's per-node `exp` calls.
pub const ANYPUT_GRAY_MAX: usize = 10;

impl KernelSelect {
    /// Resolves the selection for an instance. Pure in
    /// `(n, mode, homogeneous)` — the dispatch-determinism contract.
    pub fn resolve(self, n: usize, mode: ThroughputMode, homogeneous: bool) -> SummaryKernel {
        match self {
            KernelSelect::GrayCode => SummaryKernel::GrayCode,
            KernelSelect::Factorized => SummaryKernel::Factorized,
            KernelSelect::Auto => {
                if homogeneous && n >= 2 {
                    SummaryKernel::Homogeneous
                } else if n > StateSpace::MAX_N {
                    SummaryKernel::Factorized
                } else {
                    match mode {
                        ThroughputMode::Groupput => SummaryKernel::Factorized,
                        ThroughputMode::Anyput => {
                            if n <= ANYPUT_GRAY_MAX {
                                SummaryKernel::GrayCode
                            } else {
                                SummaryKernel::Factorized
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Whether every node is bit-identical (the homogeneous fast-path
/// gate — exact comparison, mirroring the instance canonicalizer).
fn is_homogeneous(nodes: &[NodeParams]) -> bool {
    nodes.windows(2).all(|w| w[0] == w[1])
}

/// Tuning knobs for the dual descent.
#[derive(Debug, Clone, Copy)]
pub struct P4Options {
    /// Maximum number of dual iterations.
    pub max_iters: usize,
    /// KKT residual tolerance (on the normalized gradient).
    pub tol: f64,
    /// Base step size for the AdaGrad-scaled updates, in units of the
    /// dimensionless multiplier `η·max(L,X)/σ`.
    pub step0: f64,
    /// Which summarization kernel evaluates the Gibbs summary.
    pub kernel: KernelSelect,
}

impl Default for P4Options {
    fn default() -> Self {
        P4Options {
            max_iters: 30_000,
            tol: 1e-4,
            step0: 2.0,
            kernel: KernelSelect::Auto,
        }
    }
}

impl P4Options {
    /// A faster, looser preset for smoke tests and sweeps where 1%
    /// accuracy suffices.
    pub fn fast() -> Self {
        P4Options {
            max_iters: 4_000,
            tol: 1e-3,
            ..P4Options::default()
        }
    }
}

/// Result of solving (P4).
#[derive(Debug, Clone)]
pub struct P4Solution {
    /// `T^σ = E_π[T_w]` at the optimal multipliers — the achievable
    /// throughput every figure normalizes against.
    pub throughput: f64,
    /// The full (P4) objective `E[T_w] + σ·H(π)` (throughput plus
    /// entropy bonus).
    pub objective: f64,
    /// Optimal Lagrange multipliers `η*` (natural units, 1/W·time).
    pub eta: Vec<f64>,
    /// Listen-time fractions at the optimum.
    pub alpha: Vec<f64>,
    /// Transmit-time fractions at the optimum.
    pub beta: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Whether the KKT residual met the tolerance.
    pub converged: bool,
    /// Which summarization kernel the solve dispatched to.
    pub kernel: SummaryKernel,
    /// The final Gibbs summary (burst masses etc.).
    pub summary: GibbsSummary,
}

impl P4Solution {
    /// Largest relative power-budget violation across nodes:
    /// `max_i (cons_i − ρ_i)/ρ_i`, clamped below at 0. A converged
    /// solution has this ≈ 0.
    pub fn max_power_violation(&self, nodes: &[NodeParams]) -> f64 {
        nodes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let cons = p.average_power(self.alpha[i], self.beta[i]);
                ((cons - p.budget_w) / p.budget_w).max(0.0)
            })
            .fold(0.0, f64::max)
    }
}

/// The common face the dual descent needs from a summary kernel —
/// evaluate at the current multipliers, expose the marginals, and
/// materialize the final summary.
trait GibbsKernel {
    fn compute(&mut self, params: &GibbsParams<'_>);
    fn alpha(&self) -> &[f64];
    fn beta(&self) -> &[f64];
    fn to_summary(&self) -> GibbsSummary;
}

impl GibbsKernel for SummaryWorkspace {
    fn compute(&mut self, params: &GibbsParams<'_>) {
        SummaryWorkspace::compute(self, params);
    }
    fn alpha(&self) -> &[f64] {
        SummaryWorkspace::alpha(self)
    }
    fn beta(&self) -> &[f64] {
        SummaryWorkspace::beta(self)
    }
    fn to_summary(&self) -> GibbsSummary {
        SummaryWorkspace::to_summary(self)
    }
}

impl GibbsKernel for FactorizedWorkspace {
    fn compute(&mut self, params: &GibbsParams<'_>) {
        FactorizedWorkspace::compute(self, params);
    }
    fn alpha(&self) -> &[f64] {
        FactorizedWorkspace::alpha(self)
    }
    fn beta(&self) -> &[f64] {
        FactorizedWorkspace::beta(self)
    }
    fn to_summary(&self) -> GibbsSummary {
        FactorizedWorkspace::to_summary(self)
    }
}

/// A reusable (P4) solver holding the summary workspaces and the dual
/// descent state, so sweeps over `σ`, modes, or warm-started budgets
/// amortize every allocation. One instance serves one node count.
///
/// Workspaces are built lazily per kernel on first dispatch: a solver
/// for `n = 64` never allocates the `(n+2)·2^{n−1}` Gray-code table it
/// could not hold, and a small-`n` solver that only ever runs the
/// factorized kernel skips the table too.
#[derive(Debug, Clone)]
pub struct P4Solver {
    n: usize,
    /// Gray-code streaming workspace (lazily built; `n ≤ MAX_N` only).
    gray: Option<SummaryWorkspace>,
    /// Factorized polynomial workspace (lazily built).
    factorized: Option<FactorizedWorkspace>,
    /// Dual iterate.
    eta: Vec<f64>,
    /// AdaGrad accumulator.
    grad_sq: Vec<f64>,
    /// Normalized gradient scratch.
    grads: Vec<f64>,
    /// Dimensionless step scale per node.
    scale: Vec<f64>,
}

impl P4Solver {
    /// Allocates a solver for `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one node");
        P4Solver {
            n,
            gray: None,
            factorized: None,
            eta: vec![0.0; n],
            grad_sq: vec![0.0; n],
            grads: vec![0.0; n],
            scale: vec![0.0; n],
        }
    }

    /// Solves (P4) for an arbitrary (possibly heterogeneous) network,
    /// dispatching to the summarization kernel [`KernelSelect`]
    /// resolves for the instance: the factorized polynomial kernel for
    /// groupput and all `N > StateSpace::MAX_N`, the Gray-code
    /// enumeration for small anyput instances, and the scalar-dual
    /// closed form for homogeneous networks.
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is empty, its length differs from the
    /// solver's node count, `sigma ≤ 0`, or a forced
    /// [`KernelSelect::GrayCode`] exceeds [`StateSpace::MAX_N`].
    pub fn solve(
        &mut self,
        nodes: &[NodeParams],
        sigma: f64,
        mode: ThroughputMode,
        opts: P4Options,
    ) -> P4Solution {
        assert!(!nodes.is_empty(), "need at least one node");
        assert_eq!(nodes.len(), self.n, "solver node count");
        assert!(sigma > 0.0 && sigma.is_finite());

        match opts.kernel.resolve(self.n, mode, is_homogeneous(nodes)) {
            SummaryKernel::Homogeneous => solve_homogeneous(nodes, sigma, mode),
            SummaryKernel::GrayCode => {
                let n = self.n;
                let mut ws = self.gray.take().unwrap_or_else(|| SummaryWorkspace::new(n));
                let sol = descend(
                    DescentState {
                        eta: &mut self.eta,
                        grad_sq: &mut self.grad_sq,
                        grads: &mut self.grads,
                        scale: &mut self.scale,
                    },
                    &mut ws,
                    SummaryKernel::GrayCode,
                    nodes,
                    sigma,
                    mode,
                    opts,
                );
                self.gray = Some(ws);
                sol
            }
            SummaryKernel::Factorized => {
                let n = self.n;
                let mut ws = self
                    .factorized
                    .take()
                    .unwrap_or_else(|| FactorizedWorkspace::new(n));
                let sol = descend(
                    DescentState {
                        eta: &mut self.eta,
                        grad_sq: &mut self.grad_sq,
                        grads: &mut self.grads,
                        scale: &mut self.scale,
                    },
                    &mut ws,
                    SummaryKernel::Factorized,
                    nodes,
                    sigma,
                    mode,
                    opts,
                );
                self.factorized = Some(ws);
                sol
            }
        }
    }
}

/// The descent's mutable state, borrowed from the solver so the loop
/// below can be generic over the kernel without fighting the borrow
/// checker over `&mut self`.
struct DescentState<'a> {
    eta: &'a mut [f64],
    grad_sq: &'a mut [f64],
    grads: &'a mut [f64],
    scale: &'a mut [f64],
}

/// Algorithm 1's AdaGrad-preconditioned dual descent over any summary
/// kernel. The trajectory is a pure function of the instance and the
/// kernel's arithmetic — never of thread count.
fn descend(
    st: DescentState<'_>,
    ws: &mut dyn GibbsKernel,
    kernel: SummaryKernel,
    nodes: &[NodeParams],
    sigma: f64,
    mode: ThroughputMode,
    opts: P4Options,
) -> P4Solution {
    let n = nodes.len();
    // Dimensionless multiplier scale: steps are expressed in units
    // of σ / max(L_i, X_i) so that one unit shifts the Gibbs
    // exponent by O(1) regardless of the absolute power scale.
    for (i, p) in nodes.iter().enumerate() {
        st.scale[i] = sigma / p.listen_w.max(p.transmit_w);
        st.eta[i] = 0.0;
        st.grad_sq[i] = 0.0;
    }

    let mut converged = false;
    let mut iterations = 0;

    for k in 0..opts.max_iters {
        iterations = k + 1;
        let params = GibbsParams {
            nodes,
            eta: st.eta,
            sigma,
            mode,
        };
        ws.compute(&params);

        // Normalized budget-slack gradient and KKT residual, read
        // straight from the workspace buffers (no per-iteration
        // allocation).
        let alpha = ws.alpha();
        let beta = ws.beta();
        let mut residual = 0.0f64;
        for i in 0..n {
            let cons = nodes[i].average_power(alpha[i], beta[i]);
            let g = (nodes[i].budget_w - cons) / (nodes[i].budget_w + cons);
            st.grads[i] = g;
            let r = if st.eta[i] > 0.0 {
                g.abs()
            } else {
                (-g).max(0.0) // at η=0 only over-consumption violates KKT
            };
            residual = residual.max(r);
        }
        if residual < opts.tol {
            converged = true;
            break;
        }
        // AdaGrad-preconditioned projected descent step (23).
        for i in 0..n {
            st.grad_sq[i] += st.grads[i] * st.grads[i];
            let step = opts.step0 / st.grad_sq[i].sqrt().max(1e-12);
            st.eta[i] = (st.eta[i] - step * st.scale[i] * st.grads[i]).max(0.0);
        }
    }

    let summary = ws.to_summary();
    P4Solution {
        throughput: summary.expected_throughput,
        objective: summary.p4_objective(sigma),
        eta: st.eta.to_vec(),
        alpha: summary.alpha.clone(),
        beta: summary.beta.clone(),
        iterations,
        converged,
        kernel,
        summary,
    }
}

/// The homogeneous dispatch target: the scalar-dual bisection of
/// [`HomogeneousP4`], broadcast back into the per-node solution shape.
/// The bisection is exact (200 halvings), so the solution always
/// reports convergence; `iterations` counts the aggregated-summary
/// evaluations a caller would meaningfully compare.
fn solve_homogeneous(nodes: &[NodeParams], sigma: f64, mode: ThroughputMode) -> P4Solution {
    let n = nodes.len();
    let sol = HomogeneousP4::new(n, nodes[0], sigma, mode).solve();
    let s = &sol.summary;
    let summary = GibbsSummary {
        log_partition: s.log_partition,
        alpha: vec![sol.alpha; n],
        beta: vec![sol.beta; n],
        expected_throughput: s.expected_throughput,
        entropy: s.entropy,
        burst_mass: s.burst_mass,
        burst_exit_mass: s.burst_exit_mass,
    };
    P4Solution {
        throughput: sol.throughput,
        objective: summary.p4_objective(sigma),
        eta: vec![sol.eta; n],
        alpha: summary.alpha.clone(),
        beta: summary.beta.clone(),
        iterations: 1,
        converged: true,
        kernel: SummaryKernel::Homogeneous,
        summary,
    }
}

/// A pool of [`P4Solver`]s keyed by node count, for callers that solve
/// a mixed stream of instance sizes (the policy service's per-worker
/// workspace). The first solve at each `n` allocates the
/// `(n + 2)·2^{n−1}` state table; every later solve at that `n` reuses
/// it.
#[derive(Debug, Default)]
pub struct SolverPool {
    solvers: std::collections::HashMap<usize, P4Solver>,
}

impl SolverPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The reusable solver for `n`-node instances (allocated on first
    /// use).
    pub fn solver(&mut self, n: usize) -> &mut P4Solver {
        self.solvers.entry(n).or_insert_with(|| P4Solver::new(n))
    }

    /// Node counts currently held.
    pub fn sizes(&self) -> usize {
        self.solvers.len()
    }

    /// Solves (P4) with the pooled workspace for `nodes.len()`.
    pub fn solve(
        &mut self,
        nodes: &[NodeParams],
        sigma: f64,
        mode: ThroughputMode,
        opts: P4Options,
    ) -> P4Solution {
        self.solver(nodes.len()).solve(nodes, sigma, mode, opts)
    }
}

/// One-shot convenience wrapper around [`P4Solver`].
///
/// # Panics
///
/// Panics when `nodes` is empty or `sigma ≤ 0`.
pub fn solve_p4(
    nodes: &[NodeParams],
    sigma: f64,
    mode: ThroughputMode,
    opts: P4Options,
) -> P4Solution {
    assert!(!nodes.is_empty(), "need at least one node");
    P4Solver::new(nodes.len()).solve(nodes, sigma, mode, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use econcast_core::ThroughputMode::{Anyput, Groupput};

    fn homogeneous(n: usize) -> Vec<NodeParams> {
        vec![NodeParams::from_microwatts(10.0, 500.0, 500.0); n]
    }

    #[test]
    fn p4_respects_power_budgets() {
        let nodes = homogeneous(5);
        let sol = solve_p4(&nodes, 0.5, Groupput, P4Options::default());
        assert!(
            sol.converged,
            "did not converge in {} iters",
            sol.iterations
        );
        assert!(
            sol.max_power_violation(&nodes) < 2e-3,
            "violation {}",
            sol.max_power_violation(&nodes)
        );
    }

    #[test]
    fn p4_throughput_below_oracle_and_positive() {
        let nodes = homogeneous(5);
        // Closed-form oracle groupput for the homogeneous clique.
        let (rho, l, x) = (10e-6, 500e-6, 500e-6);
        let beta_star = rho / (x + 4.0 * l);
        let t_star = 5.0 * 4.0 * beta_star;
        let sol = solve_p4(&nodes, 0.5, Groupput, P4Options::default());
        assert!(sol.throughput > 0.0);
        assert!(
            sol.throughput <= t_star + 1e-9,
            "T^σ {} exceeds oracle {}",
            sol.throughput,
            t_star
        );
    }

    #[test]
    fn smaller_sigma_gives_higher_throughput() {
        // The paper's central σ tradeoff: T^σ increases as σ decreases
        // (Figs. 2–3).
        let nodes = homogeneous(5);
        let t_05 = solve_p4(&nodes, 0.5, Groupput, P4Options::default()).throughput;
        let t_025 = solve_p4(&nodes, 0.25, Groupput, P4Options::default()).throughput;
        assert!(
            t_025 > t_05,
            "σ=0.25 gave {t_025}, σ=0.5 gave {t_05} — ordering violated"
        );
    }

    #[test]
    fn solver_reuse_matches_fresh_solves() {
        // One P4Solver across a σ sweep gives exactly the one-shot
        // results — workspace reuse leaks no state between solves.
        let nodes = homogeneous(4);
        let mut solver = P4Solver::new(4);
        for sigma in [0.5, 0.25, 0.75] {
            let reused = solver.solve(&nodes, sigma, Groupput, P4Options::fast());
            let fresh = solve_p4(&nodes, sigma, Groupput, P4Options::fast());
            assert_eq!(
                reused.throughput.to_bits(),
                fresh.throughput.to_bits(),
                "sigma {sigma}"
            );
            assert_eq!(reused.eta, fresh.eta);
            assert_eq!(reused.iterations, fresh.iterations);
        }
    }

    #[test]
    fn solver_pool_reuses_and_matches_fresh() {
        let mut pool = SolverPool::new();
        for n in [3usize, 4, 3, 4, 3] {
            let nodes = homogeneous(n);
            let pooled = pool.solve(&nodes, 0.5, Groupput, P4Options::fast());
            let fresh = solve_p4(&nodes, 0.5, Groupput, P4Options::fast());
            assert_eq!(pooled.throughput.to_bits(), fresh.throughput.to_bits());
        }
        assert_eq!(pool.sizes(), 2, "one workspace per node count");
    }

    #[test]
    fn anyput_p4_bounded_by_one_and_budget_respected() {
        let nodes = homogeneous(5);
        let sol = solve_p4(&nodes, 0.5, Anyput, P4Options::default());
        assert!(sol.converged);
        assert!(sol.throughput <= 1.0);
        assert!(sol.max_power_violation(&nodes) < 2e-3);
    }

    #[test]
    fn heterogeneous_budgets_yield_heterogeneous_activity() {
        // Nodes with larger budgets should be awake more (Table II's
        // qualitative structure).
        let nodes = vec![
            NodeParams::from_microwatts(5.0, 1000.0, 1000.0),
            NodeParams::from_microwatts(10.0, 1000.0, 1000.0),
            NodeParams::from_microwatts(50.0, 1000.0, 1000.0),
            NodeParams::from_microwatts(100.0, 1000.0, 1000.0),
        ];
        let sol = solve_p4(&nodes, 0.25, Groupput, P4Options::default());
        let awake: Vec<f64> = (0..4).map(|i| sol.alpha[i] + sol.beta[i]).collect();
        assert!(awake[0] < awake[1] && awake[1] < awake[2] && awake[2] < awake[3]);
        assert!(sol.max_power_violation(&nodes) < 5e-3);
    }

    #[test]
    fn rich_nodes_have_zero_multiplier() {
        // A node whose budget dwarfs its consumption never binds (9):
        // its multiplier should stay ~0 while poor nodes' rise.
        let nodes = vec![
            NodeParams::from_microwatts(10.0, 500.0, 500.0),
            NodeParams::new(1.0, 500e-6, 500e-6), // 1 W budget: unconstrained
        ];
        let sol = solve_p4(&nodes, 0.5, Groupput, P4Options::default());
        assert!(sol.eta[1] < 1e-9, "rich node multiplier {}", sol.eta[1]);
        assert!(sol.eta[0] > 0.0);
    }

    #[test]
    fn fast_preset_is_close_to_default() {
        let nodes = homogeneous(4);
        let full = solve_p4(&nodes, 0.5, Groupput, P4Options::default());
        let fast = solve_p4(&nodes, 0.5, Groupput, P4Options::fast());
        let rel = (full.throughput - fast.throughput).abs() / full.throughput;
        assert!(rel < 0.05, "fast preset off by {rel}");
    }

    /// A deterministic heterogeneous instance for the dispatch tests.
    fn het(n: usize) -> Vec<NodeParams> {
        (0..n)
            .map(|i| NodeParams::from_microwatts(2.0 + 3.0 * i as f64, 500.0, 450.0))
            .collect()
    }

    #[test]
    fn auto_dispatch_is_pure_in_the_instance() {
        use econcast_core::ThroughputMode::{Anyput, Groupput};
        // The resolution table, pinned: changing it is a cache/bench
        // semantics migration, not a refactor.
        let auto = KernelSelect::Auto;
        assert_eq!(auto.resolve(5, Groupput, true), SummaryKernel::Homogeneous);
        assert_eq!(auto.resolve(1000, Anyput, true), SummaryKernel::Homogeneous);
        assert_eq!(auto.resolve(1, Groupput, true), SummaryKernel::Factorized);
        assert_eq!(auto.resolve(5, Groupput, false), SummaryKernel::Factorized);
        assert_eq!(auto.resolve(64, Groupput, false), SummaryKernel::Factorized);
        assert_eq!(auto.resolve(10, Anyput, false), SummaryKernel::GrayCode);
        assert_eq!(auto.resolve(11, Anyput, false), SummaryKernel::Factorized);
        assert_eq!(auto.resolve(64, Anyput, false), SummaryKernel::Factorized);
        // Forced selections resolve to themselves.
        assert_eq!(
            KernelSelect::GrayCode.resolve(8, Groupput, true),
            SummaryKernel::GrayCode
        );
        assert_eq!(
            KernelSelect::Factorized.resolve(8, Anyput, true),
            SummaryKernel::Factorized
        );
    }

    #[test]
    fn dispatch_is_deterministic_across_thread_counts() {
        // The satellite regression pin: the kernel choice and the full
        // solution are bit-identical at any ECONCAST_THREADS (the
        // factorized kernel never forks; the Gray-code merge is
        // order-fixed).
        for (nodes, mode) in [
            (het(6), Groupput),         // Auto → Factorized
            (het(6), Anyput),           // Auto → GrayCode
            (het(24), Groupput),        // Auto → Factorized, beyond MAX_N
            (homogeneous(5), Groupput), // Auto → Homogeneous
        ] {
            let mut solutions = Vec::new();
            for threads in [1usize, 2, 8] {
                econcast_parallel::set_threads(Some(threads));
                let sol = solve_p4(&nodes, 0.5, mode, P4Options::fast());
                solutions.push(sol);
            }
            econcast_parallel::set_threads(None);
            let first = &solutions[0];
            for sol in &solutions[1..] {
                assert_eq!(sol.kernel, first.kernel, "kernel choice drifted");
                assert_eq!(sol.iterations, first.iterations);
                assert_eq!(sol.throughput.to_bits(), first.throughput.to_bits());
                for i in 0..nodes.len() {
                    assert_eq!(sol.eta[i].to_bits(), first.eta[i].to_bits());
                    assert_eq!(sol.alpha[i].to_bits(), first.alpha[i].to_bits());
                    assert_eq!(sol.beta[i].to_bits(), first.beta[i].to_bits());
                }
            }
        }
    }

    #[test]
    fn factorized_and_gray_solves_agree() {
        // Forcing either enumeration-free kernel against the Gray-code
        // sweep on the same heterogeneous instance lands on the same
        // optimum: identical fixed-budget trajectories within 1e-9.
        let nodes = het(7);
        for mode in [Groupput, Anyput] {
            let fixed = |kernel| P4Options {
                max_iters: 300,
                tol: 0.0,
                step0: 2.0,
                kernel,
            };
            let gray = solve_p4(&nodes, 0.5, mode, fixed(KernelSelect::GrayCode));
            let fact = solve_p4(&nodes, 0.5, mode, fixed(KernelSelect::Factorized));
            assert_eq!(gray.kernel, SummaryKernel::GrayCode);
            assert_eq!(fact.kernel, SummaryKernel::Factorized);
            assert!(
                (gray.throughput - fact.throughput).abs() <= 1e-9 * (1.0 + gray.throughput.abs()),
                "{mode:?}: gray {} vs factorized {}",
                gray.throughput,
                fact.throughput
            );
            for i in 0..nodes.len() {
                assert!((gray.alpha[i] - fact.alpha[i]).abs() <= 1e-8);
                assert!((gray.beta[i] - fact.beta[i]).abs() <= 1e-8);
                assert!(
                    (gray.eta[i] - fact.eta[i]).abs() <= 1e-6 * (1.0 + gray.eta[i].abs()),
                    "eta[{i}] {} vs {}",
                    gray.eta[i],
                    fact.eta[i]
                );
            }
        }
    }

    #[test]
    fn large_n_solve_beyond_enumeration() {
        // N = 32 heterogeneous groupput: impossible for the Gray-code
        // kernel (2^31 states per block), routine for the factorized
        // one. The optimum must respect every budget and the
        // structural cap T ≤ N − 1.
        let nodes = het(32);
        let sol = solve_p4(&nodes, 0.5, Groupput, P4Options::default());
        assert_eq!(sol.kernel, SummaryKernel::Factorized);
        assert!(sol.converged, "no convergence in {} iters", sol.iterations);
        assert!(sol.throughput > 0.0 && sol.throughput <= 31.0);
        assert!(
            sol.max_power_violation(&nodes) < 5e-3,
            "violation {}",
            sol.max_power_violation(&nodes)
        );
        // Richer nodes are more active, as at small N.
        let awake = |i: usize| sol.alpha[i] + sol.beta[i];
        assert!(awake(31) > awake(0));
    }

    #[test]
    fn homogeneous_dispatch_matches_descent() {
        // Auto's closed-form answer for a homogeneous instance agrees
        // with the explicit Gray-code dual descent to descent accuracy.
        let nodes = homogeneous(5);
        let auto = solve_p4(&nodes, 0.5, Groupput, P4Options::default());
        assert_eq!(auto.kernel, SummaryKernel::Homogeneous);
        assert!(auto.converged);
        let gray = solve_p4(
            &nodes,
            0.5,
            Groupput,
            P4Options {
                kernel: KernelSelect::GrayCode,
                ..P4Options::default()
            },
        );
        assert_eq!(gray.kernel, SummaryKernel::GrayCode);
        let rel = (auto.throughput - gray.throughput).abs() / gray.throughput;
        assert!(
            rel < 5e-3,
            "closed form {} vs descent {}",
            auto.throughput,
            gray.throughput
        );
    }
}
