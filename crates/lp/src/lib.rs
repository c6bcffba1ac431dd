//! # econcast-lp — a dense two-phase simplex solver
//!
//! The EconCast paper reduces its oracle-throughput computations to small
//! linear programs: (P2) for the oracle groupput (`2N` variables,
//! `3N + 1` constraints), (P3) for the oracle anyput (solved in its
//! Hall-reduced form, `2N` variables and `3N + 2` constraints, without
//! the paper's `χ_{i,j}` reception shares), and the relaxations that
//! bound the maximum groupput in non-clique topologies (Section IV-C),
//! which keep neighbor-pair `χ_{i,j}`. The policy service's
//! certificates solve groupput over shared powers without this crate;
//! see `econcast-oracle`.
//!
//! None of the crates available to this reproduction provide an LP
//! solver, so this crate implements one from scratch: a classic dense
//! tableau simplex with
//!
//! * **two phases** — phase 1 minimizes the sum of artificial variables
//!   to find a basic feasible solution (or prove infeasibility), phase 2
//!   optimizes the user objective;
//! * **Bland's anti-cycling rule** — guarantees termination on the
//!   degenerate problems that the oracle LPs produce when several power
//!   constraints are simultaneously tight;
//! * support for `≤`, `=`, and `≥` constraints and non-negative
//!   variables, which is exactly the form of (P2)/(P3).
//!
//! The problems solved here are tiny (tens to a few hundred variables),
//! so a dense `Vec<f64>` tableau is the simplest robust representation;
//! no sparse machinery is warranted.
//!
//! ## Example
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x + 3y ≤ 6`, `x, y ≥ 0`:
//!
//! ```
//! use econcast_lp::{Problem, Relation};
//!
//! let mut p = Problem::maximize(&[3.0, 2.0]);
//! p.constrain(&[1.0, 1.0], Relation::Le, 4.0);
//! p.constrain(&[1.0, 3.0], Relation::Le, 6.0);
//! let sol = p.solve().unwrap();
//! assert!((sol.objective - 12.0).abs() < 1e-9);
//! assert!((sol.x[0] - 4.0).abs() < 1e-9);
//! ```

mod error;
mod problem;
mod simplex;
mod tableau;

pub use error::LpError;
pub use problem::{Constraint, Problem, Relation, Solution};

#[cfg(test)]
mod tests;
