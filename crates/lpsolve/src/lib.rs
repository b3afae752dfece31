//! # lp-solver — a small LP/MIP solver (the COPT substitute substrate)
//!
//! The paper solves its scheduling ILPs with the commercial COPT solver, which
//! is not available here. This crate provides a self-contained substitute built
//! around a **sparse revised simplex**:
//!
//! * [`LpProblem`] — a mixed-integer linear-programming model builder
//!   (variables with bounds and types, linear constraints, minimisation
//!   objective) with CSC export ([`LpProblem::structural_csc`]);
//! * [`sparse`] — compressed-sparse-column storage and the bounded standard
//!   form (`A x + s = b`, `l ≤ x ≤ u`; comparison senses encoded as slack
//!   bounds, **no extra row per finite upper bound**);
//! * [`basis`] — LU factorization of the basis with product-form (eta) updates
//!   and periodic refactorization;
//! * [`pricing`] — partial pricing (rotating Dantzig blocks) with a Bland's
//!   rule anti-cycling fallback;
//! * [`revised`] — the bounded-variable primal **and dual** revised simplex
//!   ([`RevisedSimplex`]); the dual simplex re-solves warm-started bases after
//!   bound changes, which is what makes branch-and-bound nodes cheap;
//! * [`branch_bound`] — a depth-first branch-and-bound MIP solver in which
//!   **child nodes inherit the parent's basis** and re-solve via the dual
//!   simplex after a single bound change instead of rebuilding Phase 1 from
//!   scratch; it accepts an incumbent warm start (the two-stage baseline
//!   schedule encoded as a feasible assignment) that both prunes the search
//!   and crashes the root basis, mirroring how the paper initialises COPT;
//! * [`dense`] — the original dense full-tableau two-phase simplex, retained
//!   as a **differential-testing oracle** and benchmark baseline
//!   (`tests/differential.rs` checks both solvers agree on hundreds of seeded
//!   LP/ILP instances).
//!
//! The MBSP ILP formulations (binary compute/save/load/pebble variables per
//! node × processor × step) are overwhelmingly sparse and 0/1-bounded; the
//! revised simplex exploits exactly that, which is what lets the holistic ILP
//! schedulers handle DAG sizes the dense tableau could not touch.

pub mod basis;
pub mod branch_bound;
pub mod dense;
pub mod model;
pub mod pricing;
pub mod revised;
pub mod sparse;

pub use branch_bound::{
    BranchBoundSolver, MipSolution, MipStatus, MipStop, SolverLimits, RELATIVE_GAP,
};
pub use model::{Constraint, ConstraintSense, LinExpr, LpProblem, VarId, VarType};
pub use revised::{
    solve_lp, solve_lp_with_bounds, Basis, LpSolution, LpStatus, RevisedSimplex, VarStatus,
};
