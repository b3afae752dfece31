//! Depth-first branch-and-bound MIP solver on top of the simplex LP relaxation.
//!
//! The solver mirrors how the paper uses COPT: it accepts an **incumbent warm
//! start** (the two-stage baseline schedule encoded as a feasible assignment),
//! it respects a node limit and a pivot limit — counts, where the paper sets a
//! time limit, so a truncated solve is as reproducible as a finished one — and
//! it reports whether the returned solution is proven optimal or only the best
//! found within the limits.
//!
//! Node relaxations are solved by the sparse revised simplex with **basis
//! warm starts**: every child node inherits its parent's optimal basis and,
//! since branching only tightens one variable bound, re-solves with a handful
//! of dual-simplex pivots instead of a cold two-phase start. The warm-start
//! assignment additionally crashes the root basis
//! ([`crate::revised::RevisedSimplex::solve_from_point`]), so a feasible
//! incumbent makes even the root Phase-1-free. For differential testing and
//! benchmarking, [`BranchBoundSolver::with_dense_relaxation`] switches every
//! node to the dense-tableau oracle solved from scratch (the seed behaviour).
//!
//! Two strengthenings are properties the solver observes in the problem, not
//! settings. When every column with a non-zero objective coefficient is
//! integer-typed and that coefficient is an integer, the objective is an
//! integer at every feasible point, so a node's bound is `⌈bound − ε⌉` before
//! pruning and in [`MipSolution::best_bound`]. And on an all-binary problem a
//! fractional relaxation `x` is rounded by thresholds before it is branched
//! on: for every distinct fractional value θ of `x`, the point `[x ≥ θ]` is
//! offered as an incumbent (it must pass [`LpProblem::is_feasible`]). Any row
//! `x_u ≤ x_v` the relaxation satisfies survives every such rounding, which
//! is what makes this effective on closure problems — the acyclic
//! bipartition — where only the few balance rows can reject a candidate.

use crate::dense::solve_lp_dense_with_bounds;
use crate::model::{LpProblem, VarType, Variable};
use crate::revised::{Basis, LpSolution, LpStatus, RevisedSimplex};
use mbsp_pool::CancelToken;
use std::rc::Rc;

/// Termination status of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// The returned solution is proven optimal.
    Optimal,
    /// A feasible solution was found but optimality was not proven within the
    /// limits.
    Feasible,
    /// No feasible solution exists.
    Infeasible,
    /// No feasible solution was found within the limits (the problem may still be
    /// feasible).
    LimitReached,
}

/// What ended a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStop {
    /// The tree was exhausted: every open node was solved and pruned only when
    /// infeasible, integral or within [`RELATIVE_GAP`] of the incumbent.
    Gap,
    /// [`SolverLimits::max_nodes`] nodes were explored — a count, so the same
    /// solve stops at the same node on any machine.
    Nodes,
    /// The relaxations used up [`SolverLimits::max_pivots`] — a count like
    /// `Nodes`: the search ends at the node pop that finds nothing left, or
    /// inside the relaxation that runs out (which is dropped unsolved).
    Pivots,
    /// The [`CancelToken`] was observed at a node pop.
    Cancelled,
}

/// Result of a MIP solve.
#[derive(Debug, Clone)]
pub struct MipSolution {
    /// Termination status.
    pub status: MipStatus,
    /// Which limit, if any, ended the search.
    pub stop: MipStop,
    /// Best objective value found (`f64::INFINITY` if none).
    pub objective: f64,
    /// Best assignment found (empty if none).
    pub values: Vec<f64>,
    /// Number of branch-and-bound nodes explored.
    pub nodes_explored: usize,
    /// Best lower bound proven on the optimal objective.
    pub best_bound: f64,
}

/// Search limits of the branch-and-bound solver: two counts, so a solve they
/// cut short is as reproducible as a finished one. The optimality gap at which
/// the search stops is not a limit but the constant [`RELATIVE_GAP`].
#[derive(Debug, Clone, Copy)]
pub struct SolverLimits {
    /// Maximum number of branch-and-bound nodes to explore.
    pub max_nodes: usize,
    /// Maximum number of simplex pivots (iterations of the primal or dual
    /// loop, bound flips included) over all node relaxations of one solve;
    /// each relaxation is handed what its predecessors left. What a wall-clock
    /// limit would bound, as a count. Not charged by the dense oracle of
    /// [`BranchBoundSolver::with_dense_relaxation`], which `max_nodes` and its
    /// per-relaxation cycle guard bound. The default is ≈ 70× the largest
    /// solve the workspace runs under it (14,573 pivots: the 247-variable
    /// `diamond_p2` pebbling ILP of `bench_record solver`).
    pub max_pivots: usize,
}

impl Default for SolverLimits {
    fn default() -> Self {
        SolverLimits {
            max_nodes: 50_000,
            max_pivots: 1_000_000,
        }
    }
}

/// Relative optimality gap at which the search stops: a node whose bound is
/// within this fraction of the incumbent's objective (at least an absolute
/// `RELATIVE_GAP`) is pruned.
pub const RELATIVE_GAP: f64 = 1e-6;

/// Branch-and-bound MIP solver.
#[derive(Debug, Clone, Default)]
pub struct BranchBoundSolver {
    limits: SolverLimits,
    /// Optional warm-start assignment (must be feasible to be used).
    warm_start: Option<Vec<f64>>,
    /// Solve node relaxations with the dense-tableau oracle instead of the
    /// warm-started revised simplex (differential testing / benchmarking).
    dense_relaxation: bool,
    /// Optional cooperative cancellation, observed at node pops.
    cancel: Option<CancelToken>,
}

/// One open node of the depth-first search.
struct Node {
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// The parent's optimal basis (shared between both children).
    basis: Option<Rc<Basis>>,
}

impl BranchBoundSolver {
    /// Creates a solver with default limits.
    pub fn new() -> Self {
        BranchBoundSolver::default()
    }

    /// Creates a solver with explicit limits.
    pub fn with_limits(limits: SolverLimits) -> Self {
        BranchBoundSolver {
            limits,
            ..Default::default()
        }
    }

    /// Provides an incumbent warm-start assignment; if it is feasible it is
    /// used to prune the search from the beginning *and* to crash the root
    /// basis of the revised simplex (mirroring the paper's initialisation of
    /// the ILP solver with the baseline schedule).
    pub fn with_warm_start(mut self, assignment: Vec<f64>) -> Self {
        self.warm_start = Some(assignment);
        self
    }

    /// Solves every node relaxation with the dense-tableau oracle from a cold
    /// start (the pre-revised-simplex behaviour). Only useful for differential
    /// testing and for the recorded `BENCH_solver.json` baseline.
    pub fn with_dense_relaxation(mut self, dense: bool) -> Self {
        self.dense_relaxation = dense;
        self
    }

    /// Attaches a cooperative [`CancelToken`]. The search observes it only at
    /// the deterministic node-pop boundary: a cancelled solve returns the best
    /// incumbent found so far with `proven == false`, and the set of explored
    /// nodes up to the observation point is identical to an uncancelled run's
    /// prefix.
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Solves the MIP.
    pub fn solve(&self, problem: &LpProblem) -> MipSolution {
        let n = problem.num_variables();
        let tol = 1e-6;

        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        if let Some(ws) = &self.warm_start {
            if ws.len() == n && problem.is_feasible(ws, 1e-6) {
                incumbent = Some((problem.objective_value(ws), ws.clone()));
            }
        }

        // The shared relaxation solver (sparse path); bounds are swapped in
        // per node, bases are inherited parent → child.
        let mut simplex = (!self.dense_relaxation).then(|| {
            let mut solver = RevisedSimplex::new(problem);
            solver.set_pivot_budget(self.limits.max_pivots);
            solver
        });

        // The two properties read off the problem (see the module docs).
        let integer_typed = |v: &Variable| v.var_type != VarType::Continuous;
        let integral_objective = (problem.variables.iter())
            .all(|v| v.objective == 0.0 || (integer_typed(v) && v.objective.fract() == 0.0));
        let all_binary = (problem.variables.iter()).all(|v| v.var_type == VarType::Binary);
        // Adopts `candidate` when it beats the incumbent and is feasible.
        let offer = |candidate: Vec<f64>, incumbent: &mut Option<(f64, Vec<f64>)>| {
            let obj = problem.objective_value(&candidate);
            if incumbent.as_ref().map_or(true, |(best, _)| obj < *best)
                && problem.is_feasible(&candidate, 1e-5)
            {
                *incumbent = Some((obj, candidate));
            }
        };
        // Prune by bound.
        let pruned = |bound: f64, incumbent: &Option<(f64, Vec<f64>)>| {
            incumbent
                .as_ref()
                .is_some_and(|(best, _)| bound >= *best - RELATIVE_GAP * best.abs().max(1.0))
        };

        let root_lower: Vec<f64> = problem.variables.iter().map(|v| v.lower).collect();
        let root_upper: Vec<f64> = problem.variables.iter().map(|v| v.upper).collect();

        // Depth-first stack.
        let mut stack: Vec<Node> = vec![Node {
            lower: root_lower,
            upper: root_upper,
            basis: None,
        }];
        let mut nodes = 0usize;
        let mut best_bound = f64::NEG_INFINITY;
        let mut open_bounds: Vec<f64> = Vec::new();
        let mut proven = true;
        let mut stop = MipStop::Gap;

        while let Some(node) = stack.pop() {
            let pivots_left = simplex
                .as_ref()
                .map_or(self.limits.max_pivots, RevisedSimplex::pivots_left);
            let limit = if nodes >= self.limits.max_nodes {
                Some(MipStop::Nodes)
            } else if pivots_left == 0 {
                Some(MipStop::Pivots)
            } else if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                Some(MipStop::Cancelled)
            } else {
                None
            };
            if let Some(limit) = limit {
                stop = limit;
                proven = false;
                break;
            }
            nodes += 1;
            let (relax, solved_basis): (LpSolution, Option<Rc<Basis>>) = match &mut simplex {
                Some(solver) => {
                    solver.set_structural_bounds(&node.lower, &node.upper);
                    let sol = match (&node.basis, &self.warm_start) {
                        (Some(basis), _) => solver.solve_with_basis(basis),
                        // Root node: crash towards the incumbent when we have one.
                        (None, Some(ws)) if ws.len() == n => solver.solve_from_point(ws),
                        (None, _) => solver.solve(),
                    };
                    let basis =
                        (sol.status == LpStatus::Optimal).then(|| Rc::new(solver.basis_snapshot()));
                    (sol, basis)
                }
                None => (
                    solve_lp_dense_with_bounds(problem, &node.lower, &node.upper),
                    None,
                ),
            };
            match relax.status {
                LpStatus::Infeasible => continue,
                LpStatus::Unbounded => {
                    // An unbounded relaxation of a node: the MIP is unbounded or the
                    // formulation is degenerate; treat conservatively as unproven.
                    proven = false;
                    continue;
                }
                LpStatus::IterationLimit => {
                    proven = false;
                    // The pivot budget ran out inside this relaxation (a later
                    // one could only do the same), or its own cycle guard did.
                    if simplex.as_ref().is_some_and(|s| s.pivots_left() == 0) {
                        stop = MipStop::Pivots;
                        break;
                    }
                    continue;
                }
                LpStatus::Optimal => {}
            }
            let bound = if integral_objective {
                (relax.objective - tol).ceil()
            } else {
                relax.objective
            };
            open_bounds.push(bound);
            if pruned(bound, &incumbent) {
                continue;
            }
            // Find a fractional integer variable to branch on (most fractional).
            let mut branch_var: Option<(usize, f64)> = None;
            let mut best_frac = tol;
            for (i, v) in problem.variables.iter().enumerate() {
                if matches!(v.var_type, VarType::Binary | VarType::Integer) {
                    let x = relax.values[i];
                    let frac = (x - x.round()).abs();
                    if frac > best_frac {
                        best_frac = frac;
                        branch_var = Some((i, x));
                    }
                }
            }
            match branch_var {
                None => {
                    // Integral solution: candidate incumbent.
                    let mut rounded = relax.values.clone();
                    for (i, v) in problem.variables.iter().enumerate() {
                        if matches!(v.var_type, VarType::Binary | VarType::Integer) {
                            rounded[i] = rounded[i].round();
                        }
                    }
                    offer(rounded, &mut incumbent);
                }
                Some((i, x)) => {
                    if all_binary {
                        // Threshold rounding: one candidate `[x ≥ θ]` per
                        // distinct fractional value θ of the relaxation. It
                        // keeps every row `x_u ≤ x_v` the relaxation satisfies.
                        let mut thresholds = relax.values.clone();
                        thresholds.retain(|x| (x - x.round()).abs() > tol);
                        thresholds.sort_unstable_by(f64::total_cmp);
                        thresholds.dedup();
                        for theta in thresholds {
                            let step = |&x: &f64| if x >= theta { 1.0 } else { 0.0 };
                            offer(relax.values.iter().map(step).collect(), &mut incumbent);
                        }
                        if pruned(bound, &incumbent) {
                            continue;
                        }
                    }
                    // Branch: x <= floor, x >= ceil. Push the "floor" branch last so
                    // it is explored first (depth-first dive towards 0 for binaries).
                    // Both children start from this node's optimal basis.
                    let mut up_lower = node.lower.clone();
                    up_lower[i] = x.ceil();
                    let mut down_upper = node.upper.clone();
                    down_upper[i] = x.floor();
                    if up_lower[i] <= node.upper[i] + tol {
                        stack.push(Node {
                            lower: up_lower,
                            upper: node.upper.clone(),
                            basis: solved_basis.clone(),
                        });
                    }
                    if node.lower[i] <= down_upper[i] + tol {
                        stack.push(Node {
                            lower: node.lower,
                            upper: down_upper,
                            basis: solved_basis,
                        });
                    }
                }
            }
        }
        if !stack.is_empty() {
            proven = false;
        }
        if !open_bounds.is_empty() {
            best_bound = open_bounds.iter().copied().fold(f64::INFINITY, f64::min);
        }

        match incumbent {
            Some((objective, values)) => MipSolution {
                status: if proven {
                    MipStatus::Optimal
                } else {
                    MipStatus::Feasible
                },
                stop,
                objective,
                values,
                nodes_explored: nodes,
                best_bound: if proven { objective } else { best_bound },
            },
            None => MipSolution {
                status: if proven {
                    MipStatus::Infeasible
                } else {
                    MipStatus::LimitReached
                },
                stop,
                objective: f64::INFINITY,
                values: vec![],
                nodes_explored: nodes,
                best_bound,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintSense, LinExpr, LpProblem};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn knapsack_is_solved_to_optimality() {
        // max 10x1 + 13x2 + 7x3  s.t. 3x1 + 4x2 + 2x3 <= 6, binary.
        // Optimum: x1 = 0, x2 = 1, x3 = 1 -> 20.
        let mut p = LpProblem::new();
        let x1 = p.add_binary("x1", -10.0);
        let x2 = p.add_binary("x2", -13.0);
        let x3 = p.add_binary("x3", -7.0);
        p.add_constraint(
            "cap",
            LinExpr::term(x1, 3.0).plus(x2, 4.0).plus(x3, 2.0),
            ConstraintSense::LessEqual,
            6.0,
        );
        let sol = BranchBoundSolver::new().solve(&p);
        assert_eq!(sol.status, MipStatus::Optimal);
        assert_eq!(sol.stop, MipStop::Gap);
        assert_close(sol.objective, -20.0);
        assert_close(sol.values[x1.index()], 0.0);
        assert_close(sol.values[x2.index()], 1.0);
        assert_close(sol.values[x3.index()], 1.0);
    }

    #[test]
    fn integer_variables_round_correctly() {
        // min x + y  s.t. 2x + 3y >= 12, x,y integer >= 0. Optimum 4 (x=0, y=4).
        let mut p = LpProblem::new();
        let x = p.add_integer("x", 0.0, 10.0, 1.0);
        let y = p.add_integer("y", 0.0, 10.0, 1.0);
        p.add_constraint(
            "c",
            LinExpr::term(x, 2.0).plus(y, 3.0),
            ConstraintSense::GreaterEqual,
            12.0,
        );
        let sol = BranchBoundSolver::new().solve(&p);
        assert_eq!(sol.status, MipStatus::Optimal);
        assert_close(sol.objective, 4.0);
    }

    #[test]
    fn infeasible_mip_is_detected() {
        let mut p = LpProblem::new();
        let x = p.add_binary("x", 1.0);
        let y = p.add_binary("y", 1.0);
        p.add_constraint(
            "c",
            LinExpr::term(x, 1.0).plus(y, 1.0),
            ConstraintSense::GreaterEqual,
            3.0,
        );
        let sol = BranchBoundSolver::new().solve(&p);
        assert_eq!(sol.status, MipStatus::Infeasible);
    }

    #[test]
    fn warm_start_is_used_as_incumbent() {
        let mut p = LpProblem::new();
        let x = p.add_binary("x", -1.0);
        let y = p.add_binary("y", -1.0);
        p.add_constraint(
            "c",
            LinExpr::term(x, 1.0).plus(y, 1.0),
            ConstraintSense::LessEqual,
            1.0,
        );
        // With a node limit of 0 the solver cannot explore at all; the warm start is
        // still returned as the best known solution.
        let limits = SolverLimits {
            max_nodes: 0,
            ..Default::default()
        };
        let sol = BranchBoundSolver::with_limits(limits)
            .with_warm_start(vec![1.0, 0.0])
            .solve(&p);
        assert_eq!(sol.status, MipStatus::Feasible);
        assert_eq!(sol.stop, MipStop::Nodes);
        assert_close(sol.objective, -1.0);
        // A pivot budget of 0 stops at the same pop, and says which count did.
        let no_pivots = SolverLimits {
            max_pivots: 0,
            ..Default::default()
        };
        let sol = BranchBoundSolver::with_limits(no_pivots)
            .with_warm_start(vec![1.0, 0.0])
            .solve(&p);
        assert_eq!(sol.status, MipStatus::Feasible);
        assert_eq!(sol.stop, MipStop::Pivots);
        assert_eq!(sol.nodes_explored, 0);
        // An infeasible warm start is ignored.
        let sol2 = BranchBoundSolver::with_limits(limits)
            .with_warm_start(vec![1.0, 1.0])
            .solve(&p);
        assert_eq!(sol2.status, MipStatus::LimitReached);
    }

    #[test]
    fn mixed_integer_continuous_problem() {
        // min -y - 0.5 x  s.t. y <= x, y binary, 0 <= x <= 0.8 continuous.
        // Optimum: x = 0.8, y = 0 (y=1 impossible since y <= x <= 0.8): objective -0.4.
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, 0.8, -0.5);
        let y = p.add_binary("y", -1.0);
        p.add_constraint(
            "link",
            LinExpr::term(y, 1.0).plus(x, -1.0),
            ConstraintSense::LessEqual,
            0.0,
        );
        let sol = BranchBoundSolver::new().solve(&p);
        assert_eq!(sol.status, MipStatus::Optimal);
        assert_close(sol.objective, -0.4);
        assert_close(sol.values[y.index()], 0.0);
    }

    #[test]
    fn equality_constrained_assignment_problem() {
        // 2x2 assignment problem: minimise cost, each row/column assigned once.
        let costs = [[4.0, 1.0], [2.0, 3.0]];
        let mut p = LpProblem::new();
        let mut vars = [[VAR_ID_DUMMY; 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                vars[i][j] = p.add_binary(format!("x{i}{j}"), costs[i][j]);
            }
        }
        for i in 0..2 {
            let expr = LinExpr::term(vars[i][0], 1.0).plus(vars[i][1], 1.0);
            p.add_constraint(format!("row{i}"), expr, ConstraintSense::Equal, 1.0);
            let expr = LinExpr::term(vars[0][i], 1.0).plus(vars[1][i], 1.0);
            p.add_constraint(format!("col{i}"), expr, ConstraintSense::Equal, 1.0);
        }
        let sol = BranchBoundSolver::new().solve(&p);
        assert_eq!(sol.status, MipStatus::Optimal);
        // Best assignment: (0,1) + (1,0) = 1 + 2 = 3.
        assert_close(sol.objective, 3.0);
    }

    /// Placeholder for array initialisation in the assignment-problem test.
    const VAR_ID_DUMMY: crate::model::VarId = crate::model::VarId(usize::MAX);
    use crate::model::VarId;

    #[test]
    fn number_partitioning_instance() {
        // Partition {3, 1, 1, 2, 2, 1} into two sets of equal sum (5 each):
        // minimise the absolute difference via d >= sum1 - sum2, d >= sum2 - sum1.
        let weights = [3.0, 1.0, 1.0, 2.0, 2.0, 1.0];
        let total: f64 = weights.iter().sum();
        let mut p = LpProblem::new();
        let d = p.add_continuous("d", 0.0, total, 1.0);
        let xs: Vec<VarId> = weights
            .iter()
            .enumerate()
            .map(|(i, _)| p.add_binary(format!("x{i}"), 0.0))
            .collect();
        // sum1 = Σ w_i x_i; difference = 2*sum1 - total.
        let mut expr1 = LinExpr::term(d, -1.0);
        let mut expr2 = LinExpr::term(d, -1.0);
        for (i, &w) in weights.iter().enumerate() {
            expr1.add(xs[i], 2.0 * w);
            expr2.add(xs[i], -2.0 * w);
        }
        p.add_constraint("diff1", expr1, ConstraintSense::LessEqual, total);
        p.add_constraint("diff2", expr2, ConstraintSense::LessEqual, -total);
        let sol = BranchBoundSolver::new().solve(&p);
        assert_eq!(sol.status, MipStatus::Optimal);
        assert_close(sol.objective, 0.0);
    }

    /// A knapsack whose tree outgrows tight limits.
    fn knapsack_25() -> LpProblem {
        let mut p = LpProblem::new();
        let mut expr = LinExpr::new();
        for i in 0..25 {
            let x = p.add_binary(format!("x{i}"), -(((3 * i + 7) % 11 + 5) as f64));
            expr.add(x, ((5 * i + 3) % 13 + 4) as f64);
        }
        p.add_constraint("cap", expr, ConstraintSense::LessEqual, 37.0);
        p
    }

    #[test]
    fn node_and_pivot_limits_are_respected_and_named() {
        let p = knapsack_25();
        let full = BranchBoundSolver::new().solve(&p);
        assert_eq!((full.status, full.stop), (MipStatus::Optimal, MipStop::Gap));
        assert!(full.nodes_explored > 10);
        let by_nodes = SolverLimits {
            max_nodes: 10,
            ..Default::default()
        };
        let sol = BranchBoundSolver::with_limits(by_nodes).solve(&p);
        assert_eq!(sol.stop, MipStop::Nodes);
        assert_eq!(sol.nodes_explored, 10);
        assert_ne!(sol.status, MipStatus::Optimal);
        // Ten pivots do not finish the tree either; the cut is a count, so a
        // second solve stops at the same node with the same incumbent.
        let by_pivots = SolverLimits {
            max_pivots: 10,
            ..Default::default()
        };
        let sol = BranchBoundSolver::with_limits(by_pivots).solve(&p);
        assert_eq!(sol.stop, MipStop::Pivots);
        assert!(sol.nodes_explored < full.nodes_explored);
        assert_ne!(sol.status, MipStatus::Optimal);
        let again = BranchBoundSolver::with_limits(by_pivots).solve(&p);
        assert_eq!(again.nodes_explored, sol.nodes_explored);
        assert_eq!(again.objective.to_bits(), sol.objective.to_bits());
        assert_eq!(again.values, sol.values);
    }

    /// max x1 + x2 + x3 s.t. 2(x1 + x2 + x3) ≤ 3, binary: the relaxation's
    /// optimum is 1.5, the integer optimum 1.
    fn half_knapsack() -> LpProblem {
        let mut p = LpProblem::new();
        let mut cap = LinExpr::new();
        for i in 0..3 {
            cap.add(p.add_binary(format!("x{i}"), -1.0), 2.0);
        }
        p.add_constraint("cap", cap, ConstraintSense::LessEqual, 3.0);
        p
    }

    #[test]
    fn an_integral_objective_rounds_the_relaxation_bound_up() {
        // The root's bound −1.5 is ⌈−1.5⌉ = −1 for an objective that only
        // takes integer values, so the incumbent −1 prunes the root.
        let p = half_knapsack();
        let sol = BranchBoundSolver::new()
            .with_warm_start(vec![1.0, 0.0, 0.0])
            .solve(&p);
        assert_eq!((sol.status, sol.stop), (MipStatus::Optimal, MipStop::Gap));
        assert_eq!(sol.nodes_explored, 1);
        assert_close(sol.objective, -1.0);
        assert_close(sol.best_bound, -1.0);
    }

    #[test]
    fn a_fractional_coefficient_or_a_continuous_objective_column_is_not_rounded() {
        // Both optima are −1.5 behind an incumbent of −1: rounding the root's
        // bound −1.5 up to −1 would prune them.
        let mut fractional = LpProblem::new();
        fractional.add_binary("x", -1.0);
        fractional.add_binary("y", -0.5);
        let mut continuous = LpProblem::new();
        continuous.add_binary("x", -1.0);
        continuous.add_continuous("c", 0.0, 0.5, -1.0);
        for (p, optimum) in [(fractional, [1.0, 1.0]), (continuous, [1.0, 0.5])] {
            let sol = BranchBoundSolver::new()
                .with_warm_start(vec![1.0, 0.0])
                .solve(&p);
            assert_eq!(sol.status, MipStatus::Optimal);
            assert_close(sol.objective, -1.5);
            assert_eq!(sol.values, optimum);
        }
    }

    #[test]
    fn a_threshold_rounding_that_violates_a_row_is_not_adopted() {
        // The root relaxation is (1, ½, 0) up to symmetry; its only threshold
        // rounding sets two variables — objective −2, capacity 4 > 3.
        let p = half_knapsack();
        let sol = BranchBoundSolver::new().solve(&p);
        assert_eq!(sol.status, MipStatus::Optimal);
        assert_close(sol.objective, -1.0);
        assert!(p.is_feasible(&sol.values, 1e-9));
    }

    #[test]
    fn a_pre_cancelled_token_stops_at_the_first_node_pop() {
        let p = knapsack_25();
        let token = CancelToken::new();
        token.cancel();
        // A feasible warm start survives cancellation as the returned incumbent.
        let ws = vec![0.0; p.num_variables()];
        let sol = BranchBoundSolver::new()
            .with_warm_start(ws.clone())
            .with_cancel(&token)
            .solve(&p);
        assert_eq!(sol.nodes_explored, 0);
        assert_eq!(sol.status, MipStatus::Feasible);
        assert_eq!(sol.stop, MipStop::Cancelled);
        assert_eq!(sol.values, ws);
        // Without a warm start the cancelled solve reports the limit.
        let sol = BranchBoundSolver::new().with_cancel(&token).solve(&p);
        assert_eq!(sol.nodes_explored, 0);
        assert_eq!(sol.status, MipStatus::LimitReached);
        // An uncancelled token leaves the solve untouched.
        let free = BranchBoundSolver::new()
            .with_cancel(&CancelToken::new())
            .solve(&p);
        let plain = BranchBoundSolver::new().solve(&p);
        assert_eq!(free.status, plain.status);
        assert_close(free.objective, plain.objective);
        assert_eq!(free.nodes_explored, plain.nodes_explored);
    }

    #[test]
    fn dense_relaxation_oracle_agrees_on_a_small_mip() {
        let mut p = LpProblem::new();
        let x1 = p.add_binary("x1", -10.0);
        let x2 = p.add_binary("x2", -13.0);
        let x3 = p.add_binary("x3", -7.0);
        p.add_constraint(
            "cap",
            LinExpr::term(x1, 3.0).plus(x2, 4.0).plus(x3, 2.0),
            ConstraintSense::LessEqual,
            6.0,
        );
        let sparse = BranchBoundSolver::new().solve(&p);
        let dense = BranchBoundSolver::new()
            .with_dense_relaxation(true)
            .solve(&p);
        assert_eq!(sparse.status, dense.status);
        assert_close(sparse.objective, dense.objective);
    }

    #[test]
    fn warm_start_crashes_the_root_basis_and_still_proves_optimality() {
        // The warm start is optimal here; the solver must both keep it and
        // prove it optimal via the crashed root basis.
        let mut p = LpProblem::new();
        let x = p.add_binary("x", -2.0);
        let y = p.add_binary("y", -3.0);
        p.add_constraint(
            "c",
            LinExpr::term(x, 1.0).plus(y, 1.0),
            ConstraintSense::LessEqual,
            1.0,
        );
        let sol = BranchBoundSolver::new()
            .with_warm_start(vec![0.0, 1.0])
            .solve(&p);
        assert_eq!(sol.status, MipStatus::Optimal);
        assert_close(sol.objective, -3.0);
    }
}
