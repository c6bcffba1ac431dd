//! # econcast-statespace — the collision-free state space and (P4)
//!
//! Everything in the paper's Markov-chain analysis (Section VI) lives
//! here:
//!
//! * [`NetworkState`] — one collision-free network state `w ∈ W`: at
//!   most one transmitter plus a set of listeners (Section III-C), with
//!   the indicators `ν_w`, `c_w`, `γ_w` and the per-state throughput
//!   `T_w` of Definition 3;
//! * [`StateSpace`] — enumeration of `W`, whose size is
//!   `(N + 2)·2^{N−1}` (the reduction from `3^N` noted in
//!   Section III-C);
//! * [`gibbs`] — the product-form stationary distribution of Lemma 2,
//!   eq. (19), computed in the log domain so that small temperatures
//!   `σ` (where weights span hundreds of orders of magnitude) remain
//!   exact, with a Gray-code streaming kernel ([`SummaryWorkspace`])
//!   that evaluates all marginals in one allocation-free pass and fans
//!   per-transmitter blocks out over a deterministic thread pool;
//! * [`factorized`] — the polynomial-time summarization kernel
//!   ([`FactorizedWorkspace`]): per-block weights are products over
//!   listeners, so every summary aggregate collapses to per-node
//!   sigmoid/softplus sums — O(N) per evaluation in both throughput
//!   modes — serving `N ≫ 16` where enumeration is hopeless;
//! * [`p4`] — the achievable-throughput solver: Algorithm 1's dual
//!   gradient descent on the Lagrange multipliers `η`, yielding the
//!   `T^σ` that every figure in Section VII normalizes against, with a
//!   kernel-dispatch layer ([`KernelSelect`]) that auto-selects the
//!   factorized, Gray-code, or homogeneous closed-form kernel by node
//!   count, throughput mode, and heterogeneity;
//! * [`instance`] — canonical instance keys (sorted budgets +
//!   permutation, decade-quantized tolerance tiers) for the policy
//!   cache in `econcast-service`;
//! * [`homogeneous`] — a closed-form fast path for homogeneous
//!   networks: grouped by `(listener count, transmitter present)`, the
//!   Gibbs sums are binomial, so a summary costs O(1) at any node
//!   count; cross-checked against enumeration in tests.

pub mod factorized;
pub mod gibbs;
pub mod homogeneous;
pub mod instance;
pub mod p4;
pub mod space;
pub mod state;

pub use factorized::{summarize_factorized, FactorizedWorkspace};
pub use gibbs::{summarize, GibbsParams, GibbsSummary, StateTable, SummaryWorkspace};
pub use homogeneous::{HomogeneousGibbs, HomogeneousP4};
pub use instance::{fnv1a_64, quantize_tolerance, route_hash_of, CanonicalInstance, InstanceKey};
pub use p4::{solve_p4, KernelSelect, P4Options, P4Solution, P4Solver, SolverPool, SummaryKernel};
pub use space::StateSpace;
pub use state::NetworkState;
