//! # econcast-oracle — oracle throughput computations (Section IV)
//!
//! The *oracle throughput* `T*` is the optimum of the scheduling LP
//! (P1), achievable only by an omniscient centralized scheduler. The
//! paper reduces (P1) to two LPs with linearly many variables:
//!
//! * **(P2)** — oracle groupput in a clique: maximize `Σ α_i` subject
//!   to the power constraints (9), the single-state constraint (10),
//!   the single-transmitter constraint (11), and the "listen only when
//!   someone transmits" constraint (12). See [`groupput`].
//!   Nodes that share `L` and `X` get an exact `O(N log N)` solution
//!   from the LP's structure instead of the simplex.
//! * **(P3)** — oracle anyput: maximize `Σ β_i` with the reception-
//!   share variables `χ_{i,j}` and constraints (14)–(15) ensuring every
//!   transmission has at least one listener. In a clique Hall's
//!   condition reduces (14)–(15) to two inequalities on `α`/`β`, so the
//!   solved LP has `2N` variables. See [`anyput`].
//! * **Non-cliques** (Section IV-C): upper and lower bounds on the
//!   maximum groupput obtained from neighborhood-restricted variants of
//!   (P2); the Fig. 6 grids make the two coincide, giving the exact
//!   `T*_nc`. See [`non_clique`].
//!
//! * **Achievability gap** ([`gap`]) — weak-duality certificates
//!   `T^σ ≤ T* ≤ D(η)` computed with the statespace crate's reusable
//!   (P4) workspace, cross-validating the simplex and Gibbs code paths
//!   against each other.
//!
//! Closed-form solutions for homogeneous networks (Appendix B) are
//! provided alongside; they and the structured solvers are
//! cross-checked against the LP solver in tests.

pub mod anyput;
pub mod gap;
pub mod groupput;
pub mod non_clique;
mod solution;

pub use anyput::{oracle_anyput, oracle_anyput_homogeneous};
pub use gap::{
    achievability_gap, certificate_for, certificate_for_homogeneous, oracle_throughput_for,
    sigma_frontier, AchievabilityGap,
};
pub use groupput::{oracle_groupput, oracle_groupput_homogeneous};
pub use non_clique::{non_clique_anyput_bounds, non_clique_groupput_bounds, NonCliqueBounds};
pub use solution::OracleSolution;
