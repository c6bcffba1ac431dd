//! Closed-form Gibbs summary for homogeneous networks.
//!
//! When all nodes share `(ρ, L, X)` and a common multiplier `η`, the
//! Gibbs weight (19) depends on a state only through `(transmitter
//! present?, listener count m)`, so every sum over the states is
//! binomial. With `u = ηL/σ`, `v = ηX/σ`, `a = e^{−u}`,
//! `ln b = (1 − ηL)/σ` and `G = (1 + a)^{N−1} − 1`:
//!
//! | states | mass | listener mass `Σ m·w` |
//! |---|---|---|
//! | no transmitter | `(1+a)^N` | `N·a·(1+a)^{N−1}` |
//! | groupput transmitter | `N·e^{−v}·(1+b)^{N−1}` | `N·e^{−v}·(N−1)·b·(1+b)^{N−2}` |
//! | anyput transmitter | `N·e^{−v}·(1 + e^{1/σ}·G)` | `N·e^{−v}·e^{1/σ}·(N−1)·a·(1+a)^{N−2}` |
//!
//! Groupput's `E[T]` mass equals its listener mass, its burst mass is
//! `N·e^{−v}·((1+b)^{N−1} − 1)` and its burst-exit mass `N·e^{−v}·G`.
//! Anyput's `E[T]` and burst masses are both `N·e^{−v}·e^{1/σ}·G`, and
//! its burst-exit mass is `e^{−1/σ}` times that (eq. (35)). The entropy
//! is `ln Z − (E[T]/σ − u·E[m] − v·P(tx))`.
//!
//! [`HomogeneousGibbs::summarize`] is therefore O(1) in `N`. It never
//! leaves the log domain: the halves are split by a logistic in
//! `ln Z₁ − ln Z₀`, each moment is a conditional expectation bounded
//! by `N`, and `(1 + r)^k − 1` keeps its leading term `k·r` where
//! `k·ln(1 + r)` would underflow. Every field stays finite from
//! `σ = 1e-300` to thousands of nodes.
//!
//! The optimum is symmetric in the nodes (the dual is convex and the
//! problem invariant under permutations), so a *scalar* multiplier
//! suffices and the dual minimization becomes a monotone root-find on
//! the budget slack, solved here by bisection.

use econcast_core::{NodeParams, ThroughputMode};

/// `ln(1 + e^y)`.
fn softplus(y: f64) -> f64 {
    y.max(0.0) + (-y.abs()).exp().ln_1p()
}

/// `1 / (1 + e^{−y})`.
fn logistic(y: f64) -> f64 {
    let e = (-y.abs()).exp();
    (if y >= 0.0 { 1.0 } else { e }) / (1.0 + e)
}

/// `ln((1 + e^{ln_r})^k − 1)` for a count `k ≥ 0`; `−∞` at `k = 0`.
fn ln_pow1p_m1(k: f64, ln_r: f64) -> f64 {
    // Below k·r ≈ 2e-16 the binomial tail past `k·r` is beyond f64,
    // and `k·ln(1 + r)` may already have underflowed.
    let lead = k.ln() + ln_r;
    if lead < -36.0 {
        return lead;
    }
    let x = k * softplus(ln_r);
    if x > std::f64::consts::LN_2 {
        x + (-(-x).exp()).ln_1p()
    } else {
        x.exp_m1().ln()
    }
}

/// Closed-form Gibbs evaluation for a homogeneous network.
#[derive(Debug, Clone)]
pub struct HomogeneousGibbs {
    n: usize,
    params: NodeParams,
    sigma: f64,
    mode: ThroughputMode,
}

/// Per-node marginals and network moments at a scalar multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomogeneousSummary {
    /// Per-node listen fraction `α`.
    pub alpha: f64,
    /// Per-node transmit fraction `β`.
    pub beta: f64,
    /// Expected network throughput `E[T_w]`.
    pub expected_throughput: f64,
    /// `log Z_η`.
    pub log_partition: f64,
    /// Distribution entropy (nats).
    pub entropy: f64,
    /// Burst-state mass `Σ_{W'} π_w` (numerator of (34)).
    pub burst_mass: f64,
    /// `Σ_{W'} π_w · λ_xl(w)` (denominator of (34); mode-aware).
    pub burst_exit_mass: f64,
}

impl HomogeneousSummary {
    /// Average burst length, eq. (34)/(35).
    pub fn average_burst_length(&self) -> Option<f64> {
        (self.burst_exit_mass > 0.0).then(|| self.burst_mass / self.burst_exit_mass)
    }

    /// Average power consumption per node.
    pub fn consumption(&self, params: &NodeParams) -> f64 {
        params.average_power(self.alpha, self.beta)
    }
}

impl HomogeneousGibbs {
    /// Creates the closed-form evaluator. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `sigma ≤ 0`.
    pub fn new(n: usize, params: NodeParams, sigma: f64, mode: ThroughputMode) -> Self {
        assert!(n >= 1);
        assert!(sigma > 0.0 && sigma.is_finite());
        HomogeneousGibbs {
            n,
            params,
            sigma,
            mode,
        }
    }

    /// Evaluates the summary at scalar multiplier `eta` in O(1).
    pub fn summarize(&self, eta: f64) -> HomogeneousSummary {
        assert!(eta >= 0.0 && eta.is_finite());
        let nf = self.n as f64;
        // Nodes a transmitter can reach.
        let k = nf - 1.0;
        let (l, x, sigma) = (self.params.listen_w, self.params.transmit_w, self.sigma);
        let inv_sigma = 1.0 / sigma;
        let u = eta * l / sigma;
        let v = eta * x / sigma;

        // No transmitter: ln Z₀ and E[m | idle].
        let ln_z_idle = nf * softplus(-u);
        let listeners_idle = nf * logistic(-u);

        // A transmitter: ln(Z₁ / (N·e^{−v})) and E[m], E[T], the burst
        // probability and the burst-exit mass, all given a transmitter.
        let (ln_q, listeners_tx, throughput_tx, burst_tx, burst_exit_tx) = match self.mode {
            ThroughputMode::Groupput => {
                let ln_b = (1.0 - eta * l) / sigma;
                let ln_q = k * softplus(ln_b);
                let listeners = k * logistic(ln_b);
                let burst = -(-ln_q).exp_m1();
                let burst_exit = (ln_pow1p_m1(k, -u) - ln_q).exp();
                (ln_q, listeners, listeners, burst, burst_exit)
            }
            ThroughputMode::Anyput => {
                let ln_g = ln_pow1p_m1(k, -u);
                let y = inv_sigma + ln_g;
                let burst = logistic(y);
                // E[m | transmitter, m ≥ 1] = (N−1)·a·(1+a)^{N−2} / G,
                // written so the `ln(N−1) − u` shared with `ln G`
                // cancels exactly when `G` keeps only its leading term.
                let listeners = if burst > 0.0 {
                    burst * (k.ln() - u + (k - 1.0) * softplus(-u) - ln_g).exp()
                } else {
                    0.0
                };
                let burst_exit = burst * (-inv_sigma).exp();
                (softplus(y), listeners, burst, burst, burst_exit)
            }
        };

        // Split the mass between the two halves: d = ln Z₁ − ln Z₀.
        let d = nf.ln() - v + ln_q - ln_z_idle;
        let p_tx = logistic(d);
        let log_partition = ln_z_idle + softplus(d);
        let listeners = logistic(-d) * listeners_idle + p_tx * listeners_tx;
        let expected_throughput = p_tx * throughput_tx;
        // E[per-state log weight] = E[T]/σ − u·E[m] − v·P(tx); a zero
        // probability contributes nothing even where its price is ∞.
        let priced = |price: f64, p: f64| if p > 0.0 { price * p } else { 0.0 };
        let mean_log_weight =
            expected_throughput * inv_sigma - priced(u, listeners) - priced(v, p_tx);
        HomogeneousSummary {
            alpha: listeners / nf,
            beta: p_tx / nf,
            expected_throughput,
            log_partition,
            entropy: log_partition - mean_log_weight,
            burst_mass: p_tx * burst_tx,
            burst_exit_mass: p_tx * burst_exit_tx,
        }
    }
}

/// (P4) for homogeneous networks via bisection on the scalar dual.
#[derive(Debug, Clone)]
pub struct HomogeneousP4 {
    gibbs: HomogeneousGibbs,
    params: NodeParams,
}

/// Result of the homogeneous (P4) solve.
#[derive(Debug, Clone, Copy)]
pub struct HomogeneousP4Solution {
    /// Achievable throughput `T^σ`.
    pub throughput: f64,
    /// Optimal scalar multiplier `η*`.
    pub eta: f64,
    /// Per-node listen fraction.
    pub alpha: f64,
    /// Per-node transmit fraction.
    pub beta: f64,
    /// Final summary.
    pub summary: HomogeneousSummary,
}

impl HomogeneousP4 {
    /// Creates the solver.
    pub fn new(n: usize, params: NodeParams, sigma: f64, mode: ThroughputMode) -> Self {
        HomogeneousP4 {
            gibbs: HomogeneousGibbs::new(n, params, sigma, mode),
            params,
        }
    }

    /// Solves (P4): finds the scalar `η* ≥ 0` with consumption equal to
    /// the budget (or `η* = 0` when the budget never binds).
    ///
    /// Consumption `α(η)L + β(η)X` is strictly decreasing in `η`
    /// (raising the price of energy can only reduce activity), so a
    /// doubling search followed by bisection is exact. A binding
    /// budget returns the bracket's feasible end, never its midpoint:
    /// at small σ consumption is a near-step in `η`, and a midpoint can
    /// overdraw the budget and break the certificate's `T^σ ≤ T*`.
    pub fn solve(&self) -> HomogeneousP4Solution {
        let over = |s: &HomogeneousSummary| s.consumption(&self.params) > self.params.budget_w;
        let (mut eta, mut s) = (0.0, self.gibbs.summarize(0.0));
        if over(&s) {
            // Doubling search for a feasible upper bracket.
            eta = 1.0 / self.params.listen_w.max(self.params.transmit_w);
            s = self.gibbs.summarize(eta);
            let mut iter = 0;
            while over(&s) {
                eta *= 2.0;
                s = self.gibbs.summarize(eta);
                iter += 1;
                assert!(iter < 200, "failed to bracket the dual optimum");
            }
            // Bisect (lo, eta], keeping `eta` feasible. 200 steps shrink
            // the interval by 2^200 — exact to f64.
            let mut lo = 0.0;
            for _ in 0..200 {
                let mid = 0.5 * (lo + eta);
                let s_mid = self.gibbs.summarize(mid);
                if over(&s_mid) {
                    lo = mid;
                } else {
                    (eta, s) = (mid, s_mid);
                }
                if eta - lo <= f64::EPSILON * eta {
                    break;
                }
            }
        }
        HomogeneousP4Solution {
            throughput: s.expected_throughput,
            eta,
            alpha: s.alpha,
            beta: s.beta,
            summary: s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::{summarize, GibbsParams};
    use crate::p4::{solve_p4, P4Options};
    use econcast_core::ThroughputMode::{Anyput, Groupput};
    use proptest::prelude::*;

    fn params() -> NodeParams {
        NodeParams::from_microwatts(10.0, 500.0, 500.0)
    }

    /// The O(N) reference: sums the `2N + 1` aggregated groups — no
    /// transmitter with `m ∈ 0..=N` listeners (`C(N, m)` states of
    /// log-weight `−m·ηL/σ`), one transmitter with `m ∈ 0..=N−1`
    /// (`N·C(N−1, m)` states of log-weight `(T(m) − m·ηL − ηX)/σ`) —
    /// shifted by their largest log term.
    fn aggregated_summary(g: &HomogeneousGibbs, eta: f64) -> HomogeneousSummary {
        let (n, mode, sigma) = (g.n, g.mode, g.sigma);
        let (l, x) = (g.params.listen_w, g.params.transmit_w);
        let mut ln_fact = vec![0.0; n + 1];
        for i in 1..=n {
            ln_fact[i] = ln_fact[i - 1] + (i as f64).ln();
        }
        let ln_choose = |n: usize, k: usize| ln_fact[n] - ln_fact[k] - ln_fact[n - k];
        // (m, has_tx, ln multiplicity, per-state log weight).
        let groups: Vec<(usize, bool, f64, f64)> = (0..=n)
            .map(|m| (m, false, ln_choose(n, m), -(m as f64) * eta * l / sigma))
            .chain((0..n).map(|m| {
                let t = mode.state_throughput(true, m);
                let lw = (t - m as f64 * eta * l - eta * x) / sigma;
                (m, true, (n as f64).ln() + ln_choose(n - 1, m), lw)
            }))
            .collect();
        let max_lt = groups
            .iter()
            .map(|&(_, _, ln_mult, lw)| ln_mult + lw)
            .fold(f64::NEG_INFINITY, f64::max);
        let (mut z, mut listeners, mut tx, mut tw, mut mean_lw) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut burst, mut burst_exit) = (0.0, 0.0);
        for &(m, has_tx, ln_mult, lw) in &groups {
            let mass = (ln_mult + lw - max_lt).exp();
            z += mass;
            listeners += mass * m as f64;
            mean_lw += mass * lw;
            if has_tx {
                tx += mass;
                tw += mass * mode.state_throughput(true, m);
                if m >= 1 {
                    burst += mass;
                    burst_exit += mass * (-mode.listener_signal(m as f64) / sigma).exp();
                }
            }
        }
        let log_partition = max_lt + z.ln();
        HomogeneousSummary {
            alpha: listeners / z / n as f64,
            beta: tx / z / n as f64,
            expected_throughput: tw / z,
            log_partition,
            entropy: log_partition - mean_lw / z,
            burst_mass: burst / z,
            burst_exit_mass: burst_exit / z,
        }
    }

    #[test]
    fn aggregation_matches_enumeration() {
        for n in [2usize, 3, 5, 8] {
            for mode in [Groupput, Anyput] {
                for eta in [0.0, 500.0, 3000.0] {
                    let agg = HomogeneousGibbs::new(n, params(), 0.5, mode).summarize(eta);
                    let nodes = vec![params(); n];
                    let etas = vec![eta; n];
                    let exact = summarize(&GibbsParams {
                        nodes: &nodes,
                        eta: &etas,
                        sigma: 0.5,
                        mode,
                    });
                    assert!(
                        (agg.alpha - exact.alpha[0]).abs() < 1e-10,
                        "alpha n={n} eta={eta}: {} vs {}",
                        agg.alpha,
                        exact.alpha[0]
                    );
                    assert!((agg.beta - exact.beta[0]).abs() < 1e-10);
                    assert!((agg.expected_throughput - exact.expected_throughput).abs() < 1e-9);
                    assert!((agg.log_partition - exact.log_partition).abs() < 1e-9);
                    assert!((agg.entropy - exact.entropy).abs() < 1e-8);
                    assert!((agg.burst_mass - exact.burst_mass).abs() < 1e-10);
                    assert!((agg.burst_exit_mass - exact.burst_exit_mass).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn bisection_matches_gradient_solver() {
        let n = 5;
        let sol_fast = HomogeneousP4::new(n, params(), 0.5, Groupput).solve();
        let nodes = vec![params(); n];
        // Pin the Gray-code descent: Auto would dispatch homogeneous
        // instances right back to the bisection under test.
        let sol_grad = solve_p4(
            &nodes,
            0.5,
            Groupput,
            P4Options {
                kernel: crate::p4::KernelSelect::GrayCode,
                ..P4Options::default()
            },
        );
        let rel = (sol_fast.throughput - sol_grad.throughput).abs() / sol_fast.throughput;
        assert!(
            rel < 5e-3,
            "bisection {} vs gradient {}",
            sol_fast.throughput,
            sol_grad.throughput
        );
    }

    #[test]
    fn consumption_meets_budget_when_binding() {
        let sol = HomogeneousP4::new(5, params(), 0.5, Groupput).solve();
        let cons = sol.summary.consumption(&params());
        assert!(
            (cons - params().budget_w).abs() / params().budget_w < 1e-9,
            "consumption {} vs budget {}",
            cons,
            params().budget_w
        );
    }

    #[test]
    fn unconstrained_budget_keeps_eta_zero() {
        // A node with a huge budget: η* = 0 and the distribution is the
        // pure max-throughput Gibbs measure.
        let rich = NodeParams::new(1.0, 500e-6, 500e-6);
        let sol = HomogeneousP4::new(5, rich, 0.5, Groupput).solve();
        assert_eq!(sol.eta, 0.0);
        assert!(sol.throughput > 1.0); // way above any energy-limited value
    }

    #[test]
    fn anyput_burst_length_is_exp_one_over_sigma() {
        // Eq. (35): B_a = e^{1/σ} independent of N.
        for n in [5usize, 10, 40] {
            for sigma in [0.25, 0.5, 0.75] {
                let sol = HomogeneousP4::new(n, params(), sigma, Anyput).solve();
                let b = sol.summary.average_burst_length().unwrap();
                assert!(
                    (b - (1.0 / sigma).exp()).abs() / b < 1e-9,
                    "n={n} σ={sigma}: B_a = {b}"
                );
            }
        }
    }

    #[test]
    fn scales_to_large_networks() {
        // N = 500 would be ~2^500 states by enumeration; aggregation
        // handles it instantly.
        let sol = HomogeneousP4::new(500, params(), 0.5, Groupput).solve();
        assert!(sol.throughput > 0.0);
        assert!(sol.alpha > 0.0 && sol.alpha < 1.0);
        let cons = sol.summary.consumption(&params());
        assert!((cons - params().budget_w).abs() / params().budget_w < 1e-6);
    }

    /// The doubling search's first bracket end, `1/max(L, X)`.
    fn first_bracket(p: &NodeParams) -> f64 {
        1.0 / p.listen_w.max(p.transmit_w)
    }

    #[test]
    fn tiny_sigma_stays_finite_and_feasible() {
        let p = NodeParams::from_microwatts(10.0, 500.0, 450.0);
        let scale = first_bracket(&p);
        for n in [1usize, 2, 50, 4000] {
            for mode in [Groupput, Anyput] {
                let g = HomogeneousGibbs::new(n, p, 1e-300, mode);
                let solved = HomogeneousP4::new(n, p, 1e-300, mode).solve();
                assert!(solved.summary.consumption(&p) <= p.budget_w);
                for eta in [0.0, scale, 1e5 * scale, solved.eta] {
                    let s = g.summarize(eta);
                    let fields = [
                        s.alpha,
                        s.beta,
                        s.expected_throughput,
                        s.log_partition,
                        s.entropy,
                        s.burst_mass,
                        s.burst_exit_mass,
                    ];
                    assert!(
                        fields.iter().all(|f| f.is_finite()),
                        "n={n} {mode:?} η={eta}: {s:?}"
                    );
                }
            }
        }
    }

    proptest! {
        /// The closed form pins to the O(N) aggregated sum from one
        /// node to the wire cap, at `η = 0`, at both bracket ends
        /// `1/max(L, X)` and `1e5/max(L, X)`, and log-spread over
        /// eleven decades between them.
        #[test]
        fn prop_closed_form_matches_aggregated_sum(
            n in 1usize..=4000,
            anyput in 0u8..2,
            sigma in 0.15f64..1.0,
            pick in 0u8..6,
            t in 0.0f64..1.0,
        ) {
            let p = NodeParams::from_microwatts(10.0, 500.0, 450.0);
            let mode = if anyput == 1 { Anyput } else { Groupput };
            let scale = first_bracket(&p);
            let eta = match pick {
                0 => 0.0,
                1 => scale,
                2 => 1e5 * scale,
                _ => scale * 10f64.powf(-6.0 + 11.0 * t),
            };
            let g = HomogeneousGibbs::new(n, p, sigma, mode);
            let (got, want) = (g.summarize(eta), aggregated_summary(&g, eta));
            // The floor covers results near underflow, where the
            // reference's subnormal partial sums carry no relative
            // precision.
            let rel = |a: f64, b: f64| (a - b).abs() <= 1e-10 * b.abs() + 1e-300;
            let abs = |a: f64, b: f64| (a - b).abs() <= 1e-10 * b.abs().max(1.0);
            prop_assert!(
                rel(got.alpha, want.alpha)
                    && rel(got.beta, want.beta)
                    && rel(got.expected_throughput, want.expected_throughput)
                    && rel(got.burst_mass, want.burst_mass)
                    && rel(got.burst_exit_mass, want.burst_exit_mass)
                    && abs(got.log_partition, want.log_partition)
                    && abs(got.entropy, want.entropy),
                "n={n} {mode:?} σ={sigma} η={eta}: {got:?} vs {want:?}"
            );
        }

        /// Consumption is monotone decreasing in η — the property the
        /// bisection relies on.
        #[test]
        fn prop_consumption_monotone_in_eta(
            n in 2usize..30,
            eta1 in 0.0f64..5000.0,
            d in 1.0f64..5000.0,
            sigma in 0.15f64..1.0,
        ) {
            let g = HomogeneousGibbs::new(n, params(), sigma, Groupput);
            let c1 = g.summarize(eta1).consumption(&params());
            let c2 = g.summarize(eta1 + d).consumption(&params());
            prop_assert!(c2 <= c1 + 1e-12);
        }

        /// Throughput from the solved (P4) never exceeds the
        /// closed-form oracle groupput `N(N−1)ρ/(X+(N−1)L)`.
        #[test]
        fn prop_p4_below_closed_form_oracle(
            n in 2usize..20,
            sigma in 0.2f64..1.0,
        ) {
            let p = params();
            let sol = HomogeneousP4::new(n, p, sigma, Groupput).solve();
            let beta_star = p.budget_w / (p.transmit_w + (n as f64 - 1.0) * p.listen_w);
            let t_star = n as f64 * (n as f64 - 1.0) * beta_star;
            prop_assert!(sol.throughput <= t_star + 1e-9);
        }
    }
}
