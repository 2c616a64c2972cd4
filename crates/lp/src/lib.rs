//! # nwdp-lp — linear & mixed-integer optimization substrate
//!
//! The paper solves its NIDS assignment LP (Eqs 1–6) and the LP relaxation
//! of its NIPS MILP (Eqs 7–14) with CPLEX. No mature pure-Rust LP solver is
//! available offline, so this crate implements the required optimization
//! machinery from scratch:
//!
//! - [`model::Problem`]: a sparse column-wise LP/MIP builder;
//! - [`simplex`]: a bounded-variable two-phase revised simplex with two
//!   basis backends. Every LP runs on the sparse product-form inverse
//!   (eta file + permutation) by default; the dense explicit inverse runs
//!   only when a caller opts in via [`SolverOpts::dense_row_limit`], which
//!   no production code does, and serves as the oracle the sparse backend
//!   is cross-checked against. [`RestrictedMaster`] is the column
//!   generation master: fixed rows, columns appended in place, each solve
//!   resuming from the last optimal basis and factorization;
//! - [`rowgen`]: lazy-constraint (row generation) wrapper for formulations
//!   whose row set is huge but mostly slack at the optimum (the GUB/VUB
//!   rows of the NIPS relaxation);
//! - [`flow`]: an exact min-cost max-flow solver (successive shortest
//!   paths with potentials) used as a fast path for the NIPS inner
//!   sampling LPs, which reduce to transportation problems when resource
//!   requirements are proportional (the paper's evaluation setting);
//! - [`milp`]: branch-and-bound over the simplex, used on small instances
//!   to compare randomized rounding against the true integer optimum;
//! - [`check`]: independent KKT verification, the test oracle certifying
//!   optimality of simplex output without sharing its code path.

pub mod check;
pub mod flow;
pub mod milp;
pub mod model;
pub mod rowgen;
pub mod simplex;
pub mod solution;

pub use check::{verify_kkt, KktTol};
pub use model::{Cmp, ConId, Problem, Sense, VarId};
pub use rowgen::SolveContext;
pub use simplex::{solve, solve_warm, RestrictedMaster, SolverOpts, WarmStart};
pub use solution::{Solution, Status};
