//! Dense two-phase primal simplex: the **differential-testing oracle**.
//!
//! This is the crate's original LP solver, retained verbatim in behaviour: a
//! dense full-tableau two-phase primal simplex in which variables are shifted
//! by their lower bounds, every finite upper bound becomes an explicit row,
//! slack/surplus variables turn the constraints into equalities and artificial
//! variables provide the Phase-1 starting basis. Pivoting uses Dantzig's rule
//! with a Bland's-rule fallback to guarantee termination.
//!
//! Production solves go through the sparse revised simplex
//! ([`crate::revised`]); the dense tableau survives as an independent oracle —
//! the two implementations share no pivoting code, so agreement on random
//! problems (see `tests/differential.rs`) is strong evidence of correctness.
//! It is also the measured baseline of the `BENCH_solver.json` benchmark.

use crate::model::{ConstraintSense, LpProblem};
use crate::revised::{LpSolution, LpStatus};

const EPS: f64 = 1e-9;
const PIVOT_EPS: f64 = 1e-7;

/// Solves the LP relaxation of `problem` with the dense tableau (integrality is
/// ignored).
pub fn solve_lp_dense(problem: &LpProblem) -> LpSolution {
    let lower: Vec<f64> = problem.variables.iter().map(|v| v.lower).collect();
    let upper: Vec<f64> = problem.variables.iter().map(|v| v.upper).collect();
    solve_lp_dense_with_bounds(problem, &lower, &upper)
}

/// Solves the LP relaxation of `problem` with overridden variable bounds.
pub fn solve_lp_dense_with_bounds(problem: &LpProblem, lower: &[f64], upper: &[f64]) -> LpSolution {
    let n = problem.num_variables();
    assert_eq!(lower.len(), n);
    assert_eq!(upper.len(), n);
    if lower.iter().zip(upper).any(|(&l, &u)| l > u + EPS) {
        return LpSolution {
            status: LpStatus::Infeasible,
            objective: f64::INFINITY,
            values: vec![],
        };
    }
    Tableau::build(problem, lower, upper).solve(problem, lower)
}

/// Internal simplex tableau.
struct Tableau {
    /// Constraint rows; each row has `ncols` coefficients followed by the rhs.
    rows: Vec<Vec<f64>>,
    /// Basis: for each row, the index of its basic column.
    basis: Vec<usize>,
    /// Total number of columns (structural + slack + artificial).
    ncols: usize,
    /// Number of structural (shifted original) columns.
    nstruct: usize,
    /// Column indices of the artificial variables.
    artificials: Vec<usize>,
}

enum PhaseOutcome {
    Optimal,
    Unbounded,
    IterationLimit,
}

impl Tableau {
    /// Builds the Phase-1 tableau for the bounded problem.
    fn build(problem: &LpProblem, lower: &[f64], upper: &[f64]) -> Tableau {
        let n = problem.num_variables();
        // Collect rows as (coefficients over structural vars, sense, rhs) with the
        // lower-bound shift already applied.
        let mut raw: Vec<(Vec<f64>, ConstraintSense, f64)> = Vec::new();
        for c in &problem.constraints {
            let mut coeffs = vec![0.0; n];
            for &(v, a) in &c.expr.terms {
                coeffs[v.index()] += a;
            }
            let shift: f64 = coeffs.iter().zip(lower).map(|(&a, &l)| a * l).sum();
            raw.push((coeffs, c.sense, c.rhs - shift));
        }
        // Finite upper bounds become rows x'_i <= u_i - l_i.
        for i in 0..n {
            if upper[i].is_finite() {
                let mut coeffs = vec![0.0; n];
                coeffs[i] = 1.0;
                raw.push((coeffs, ConstraintSense::LessEqual, upper[i] - lower[i]));
            }
        }
        // Normalise to non-negative rhs.
        for (coeffs, sense, rhs) in &mut raw {
            if *rhs < 0.0 {
                for a in coeffs.iter_mut() {
                    *a = -*a;
                }
                *rhs = -*rhs;
                *sense = match *sense {
                    ConstraintSense::LessEqual => ConstraintSense::GreaterEqual,
                    ConstraintSense::GreaterEqual => ConstraintSense::LessEqual,
                    ConstraintSense::Equal => ConstraintSense::Equal,
                };
            }
        }
        let m = raw.len();
        // Count auxiliary columns.
        let num_slack = raw
            .iter()
            .filter(|(_, s, _)| !matches!(s, ConstraintSense::Equal))
            .count();
        let ncols_upper = n + num_slack + m; // upper bound on columns (artificials added lazily)
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut basis = vec![usize::MAX; m];
        let mut artificials = Vec::new();
        let mut next_aux = n;
        // First pass: slack / surplus columns.
        let mut slack_col_of_row = vec![None; m];
        for (i, (coeffs, sense, rhs)) in raw.iter().enumerate() {
            let mut row = vec![0.0; ncols_upper + 1];
            row[..n].copy_from_slice(coeffs);
            row[ncols_upper] = *rhs;
            match sense {
                ConstraintSense::LessEqual => {
                    row[next_aux] = 1.0;
                    slack_col_of_row[i] = Some(next_aux);
                    basis[i] = next_aux;
                    next_aux += 1;
                }
                ConstraintSense::GreaterEqual => {
                    row[next_aux] = -1.0;
                    next_aux += 1;
                }
                ConstraintSense::Equal => {}
            }
            rows.push(row);
        }
        // Second pass: artificial variables for rows without a natural basis column.
        for i in 0..m {
            if basis[i] == usize::MAX {
                rows[i][next_aux] = 1.0;
                basis[i] = next_aux;
                artificials.push(next_aux);
                next_aux += 1;
            }
        }
        let ncols = next_aux;
        // Truncate every row to the actual number of columns (keeping rhs last).
        for row in &mut rows {
            let rhs = row[ncols_upper];
            row.truncate(ncols);
            row.push(rhs);
        }
        Tableau {
            rows,
            basis,
            ncols,
            nstruct: n,
            artificials,
        }
    }

    /// Runs both simplex phases and extracts the solution.
    fn solve(mut self, problem: &LpProblem, lower: &[f64]) -> LpSolution {
        let max_iter = 200 * (self.ncols + self.rows.len() + 10);

        // Phase 1: minimise the sum of artificial variables.
        if !self.artificials.is_empty() {
            let mut obj = vec![0.0; self.ncols];
            for &a in &self.artificials {
                obj[a] = 1.0;
            }
            let (mut objrow, mut objval) = self.price_out(&obj);
            match self.iterate(&mut objrow, &mut objval, max_iter, None) {
                PhaseOutcome::Unbounded => {
                    // Phase 1 objective is bounded below by 0; treat as numerical trouble.
                    return LpSolution {
                        status: LpStatus::IterationLimit,
                        objective: f64::INFINITY,
                        values: vec![],
                    };
                }
                PhaseOutcome::IterationLimit => {
                    return LpSolution {
                        status: LpStatus::IterationLimit,
                        objective: f64::INFINITY,
                        values: vec![],
                    };
                }
                PhaseOutcome::Optimal => {}
            }
            if objval > 1e-6 {
                return LpSolution {
                    status: LpStatus::Infeasible,
                    objective: f64::INFINITY,
                    values: vec![],
                };
            }
            // Drive any artificial variables that remain basic (at value 0) out of
            // the basis, or drop their (redundant) rows.
            self.remove_basic_artificials();
        }

        // Phase 2: original objective over the shifted structural variables.
        let banned: Vec<bool> = {
            let mut b = vec![false; self.ncols];
            for &a in &self.artificials {
                b[a] = true;
            }
            b
        };
        let mut obj = vec![0.0; self.ncols];
        for (i, v) in problem.variables.iter().enumerate() {
            obj[i] = v.objective;
        }
        let (mut objrow, mut objval) = self.price_out(&obj);
        let outcome = self.iterate(&mut objrow, &mut objval, max_iter, Some(&banned));
        let status = match outcome {
            PhaseOutcome::Optimal => LpStatus::Optimal,
            PhaseOutcome::Unbounded => LpStatus::Unbounded,
            PhaseOutcome::IterationLimit => LpStatus::IterationLimit,
        };
        if status != LpStatus::Optimal {
            return LpSolution {
                status,
                objective: f64::NEG_INFINITY,
                values: vec![],
            };
        }
        // Extract structural values (shifted back by the lower bounds).
        let mut values = vec![0.0; problem.num_variables()];
        for (i, row) in self.rows.iter().enumerate() {
            let b = self.basis[i];
            if b < self.nstruct {
                values[b] = row[self.ncols];
            }
        }
        for (i, v) in values.iter_mut().enumerate() {
            *v += lower[i];
        }
        let objective = problem.objective_value(&values);
        LpSolution {
            status: LpStatus::Optimal,
            objective,
            values,
        }
    }

    /// Builds the reduced-cost row for `obj` by pricing out the basic columns.
    /// Returns the reduced-cost row and the current objective value.
    fn price_out(&self, obj: &[f64]) -> (Vec<f64>, f64) {
        let mut objrow = obj.to_vec();
        let mut objval = 0.0;
        for (i, row) in self.rows.iter().enumerate() {
            let b = self.basis[i];
            let cb = obj[b];
            if cb != 0.0 {
                for j in 0..self.ncols {
                    objrow[j] -= cb * row[j];
                }
                objval += cb * row[self.ncols];
            }
        }
        (objrow, objval)
    }

    /// Runs simplex iterations on the current tableau with the given reduced-cost
    /// row. `banned` columns may never enter the basis.
    fn iterate(
        &mut self,
        objrow: &mut [f64],
        objval: &mut f64,
        max_iter: usize,
        banned: Option<&[bool]>,
    ) -> PhaseOutcome {
        let bland_threshold = max_iter / 2;
        for iter in 0..max_iter {
            let use_bland = iter > bland_threshold;
            // Entering column.
            let mut entering = None;
            if use_bland {
                for j in 0..self.ncols {
                    if banned.is_some_and(|b| b[j]) {
                        continue;
                    }
                    if objrow[j] < -PIVOT_EPS {
                        entering = Some(j);
                        break;
                    }
                }
            } else {
                let mut best = -PIVOT_EPS;
                for j in 0..self.ncols {
                    if banned.is_some_and(|b| b[j]) {
                        continue;
                    }
                    if objrow[j] < best {
                        best = objrow[j];
                        entering = Some(j);
                    }
                }
            }
            let Some(col) = entering else {
                return PhaseOutcome::Optimal;
            };
            // Ratio test.
            let mut leaving: Option<(usize, f64)> = None;
            for (i, row) in self.rows.iter().enumerate() {
                let a = row[col];
                if a > PIVOT_EPS {
                    let ratio = row[self.ncols] / a;
                    let better = match leaving {
                        None => true,
                        Some((li, lr)) => {
                            ratio < lr - EPS || (ratio < lr + EPS && self.basis[i] < self.basis[li])
                        }
                    };
                    if better {
                        leaving = Some((i, ratio));
                    }
                }
            }
            let Some((pivot_row, _)) = leaving else {
                return PhaseOutcome::Unbounded;
            };
            self.pivot(pivot_row, col, objrow, objval);
        }
        PhaseOutcome::IterationLimit
    }

    /// Performs a pivot on `(pivot_row, col)`, updating all rows and the objective.
    fn pivot(&mut self, pivot_row: usize, col: usize, objrow: &mut [f64], objval: &mut f64) {
        let width = self.ncols + 1;
        let pivot_value = self.rows[pivot_row][col];
        debug_assert!(pivot_value.abs() > EPS);
        for j in 0..width {
            self.rows[pivot_row][j] /= pivot_value;
        }
        let pivot_copy = self.rows[pivot_row].clone();
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i == pivot_row {
                continue;
            }
            let factor = row[col];
            if factor.abs() > EPS {
                for j in 0..width {
                    row[j] -= factor * pivot_copy[j];
                }
            }
        }
        let ofactor = objrow[col];
        if ofactor.abs() > EPS {
            for (j, item) in objrow.iter_mut().enumerate().take(self.ncols) {
                *item -= ofactor * pivot_copy[j];
            }
            // The entering variable rises to θ = rhs/pivot, changing the objective
            // by (reduced cost) · θ.
            *objval += ofactor * pivot_copy[self.ncols];
        }
        self.basis[pivot_row] = col;
    }

    /// After Phase 1, pivots basic artificial variables out of the basis (they are
    /// at value 0) or drops redundant rows where that is impossible.
    fn remove_basic_artificials(&mut self) {
        let artificial_set: std::collections::HashSet<usize> =
            self.artificials.iter().copied().collect();
        let mut dummy_obj = vec![0.0; self.ncols];
        let mut dummy_val = 0.0;
        let mut row_index = 0;
        while row_index < self.rows.len() {
            let b = self.basis[row_index];
            if artificial_set.contains(&b) {
                // Find a non-artificial column with a nonzero coefficient.
                let replacement = (0..self.ncols).find(|j| {
                    !artificial_set.contains(j) && self.rows[row_index][*j].abs() > PIVOT_EPS
                });
                match replacement {
                    Some(col) => {
                        self.pivot(row_index, col, &mut dummy_obj, &mut dummy_val);
                        row_index += 1;
                    }
                    None => {
                        // The row is redundant: remove it.
                        self.rows.remove(row_index);
                        self.basis.remove(row_index);
                    }
                }
            } else {
                row_index += 1;
            }
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
    fn simple_two_variable_lp() {
        // max x + y  s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0  -> min -(x+y)
        // Optimum at x = 8/5, y = 6/5 with value 14/5.
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, f64::INFINITY, -1.0);
        let y = p.add_continuous("y", 0.0, f64::INFINITY, -1.0);
        p.add_constraint(
            "c1",
            LinExpr::term(x, 1.0).plus(y, 2.0),
            ConstraintSense::LessEqual,
            4.0,
        );
        p.add_constraint(
            "c2",
            LinExpr::term(x, 3.0).plus(y, 1.0),
            ConstraintSense::LessEqual,
            6.0,
        );
        let sol = solve_lp_dense(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -14.0 / 5.0);
        assert_close(sol.values[x.index()], 8.0 / 5.0);
        assert_close(sol.values[y.index()], 6.0 / 5.0);
    }

    #[test]
    fn equality_and_geq_constraints() {
        // min 2x + 3y  s.t. x + y = 10, x >= 4, y >= 2.
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, f64::INFINITY, 2.0);
        let y = p.add_continuous("y", 0.0, f64::INFINITY, 3.0);
        p.add_constraint(
            "sum",
            LinExpr::term(x, 1.0).plus(y, 1.0),
            ConstraintSense::Equal,
            10.0,
        );
        p.add_constraint(
            "xmin",
            LinExpr::term(x, 1.0),
            ConstraintSense::GreaterEqual,
            4.0,
        );
        p.add_constraint(
            "ymin",
            LinExpr::term(y, 1.0),
            ConstraintSense::GreaterEqual,
            2.0,
        );
        let sol = solve_lp_dense(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        // Cheapest: maximise x (cost 2), so x = 8, y = 2.
        assert_close(sol.values[x.index()], 8.0);
        assert_close(sol.values[y.index()], 2.0);
        assert_close(sol.objective, 22.0);
    }

    #[test]
    fn variable_bounds_are_respected() {
        // min -x with 1 <= x <= 5.
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 1.0, 5.0, -1.0);
        let sol = solve_lp_dense(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[x.index()], 5.0);
        assert_close(sol.objective, -5.0);
        // And the lower bound matters for minimisation of +x.
        let mut p2 = LpProblem::new();
        let x2 = p2.add_continuous("x", 1.0, 5.0, 1.0);
        let sol2 = solve_lp_dense(&p2);
        assert_close(sol2.values[x2.index()], 1.0);
    }

    #[test]
    fn infeasible_problem_is_detected() {
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, 10.0, 1.0);
        p.add_constraint(
            "lo",
            LinExpr::term(x, 1.0),
            ConstraintSense::GreaterEqual,
            5.0,
        );
        p.add_constraint("hi", LinExpr::term(x, 1.0), ConstraintSense::LessEqual, 3.0);
        let sol = solve_lp_dense(&p);
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_problem_is_detected() {
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, f64::INFINITY, -1.0);
        p.add_constraint("c", LinExpr::term(x, -1.0), ConstraintSense::LessEqual, 1.0);
        let sol = solve_lp_dense(&p);
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_lower_bounds_are_handled() {
        // min x with -5 <= x <= 5 and x >= -3.
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", -5.0, 5.0, 1.0);
        p.add_constraint(
            "c",
            LinExpr::term(x, 1.0),
            ConstraintSense::GreaterEqual,
            -3.0,
        );
        let sol = solve_lp_dense(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[x.index()], -3.0);
    }

    #[test]
    fn solve_with_overridden_bounds() {
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, 10.0, -1.0);
        let sol = solve_lp_dense_with_bounds(&p, &[0.0], &[4.0]);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[x.index()], 4.0);
        // Crossing bounds are reported infeasible immediately.
        let bad = solve_lp_dense_with_bounds(&p, &[5.0], &[4.0]);
        assert_eq!(bad.status, LpStatus::Infeasible);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A problem with redundant constraints (degenerate vertices).
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, f64::INFINITY, -1.0);
        let y = p.add_continuous("y", 0.0, f64::INFINITY, -1.0);
        for k in 0..5 {
            p.add_constraint(
                format!("c{k}"),
                LinExpr::term(x, 1.0).plus(y, 1.0),
                ConstraintSense::LessEqual,
                2.0,
            );
        }
        p.add_constraint(
            "cap",
            LinExpr::term(x, 1.0),
            ConstraintSense::LessEqual,
            2.0,
        );
        let sol = solve_lp_dense(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -2.0);
    }

    #[test]
    fn lp_relaxation_of_binary_problem() {
        // Binary variables are relaxed to [0, 1].
        let mut p = LpProblem::new();
        let x = p.add_binary("x", -3.0);
        let y = p.add_binary("y", -2.0);
        p.add_constraint(
            "c",
            LinExpr::term(x, 2.0).plus(y, 2.0),
            ConstraintSense::LessEqual,
            3.0,
        );
        let sol = solve_lp_dense(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        // LP optimum: x = 1, y = 0.5 -> objective -4.
        assert_close(sol.objective, -4.0);
    }
}
