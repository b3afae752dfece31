//! Compressed-sparse-column storage and the bounded standard form.
//!
//! The revised simplex works on the **bounded standard form**
//!
//! ```text
//! min c'x   s.t.   A x + s = b,   l ≤ (x, s) ≤ u,
//! ```
//!
//! where every constraint row gets one *logical* (slack) column whose bounds
//! encode the comparison sense (`≤` → `s ∈ [0, ∞)`, `≥` → `s ∈ (−∞, 0]`,
//! `=` → `s = 0`). Variable bounds are handled **natively by the ratio test**
//! — unlike the dense oracle, no extra row is materialized per finite upper
//! bound, which for the all-binary MBSP ILPs halves the row count. A third
//! block of per-row artificial columns (normally fixed at zero) provides the
//! Phase-1 starting basis when no warm basis is available.

use crate::model::{ConstraintSense, LpProblem};

/// A sparse matrix in compressed-sparse-column form.
#[derive(Debug, Clone, Default)]
pub struct CscMatrix {
    nrows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// An empty matrix with `nrows` rows and no columns.
    pub fn new(nrows: usize) -> Self {
        CscMatrix {
            nrows,
            col_ptr: vec![0],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Number of stored (structurally nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Appends a column given as `(row, value)` entries; returns its index.
    /// Entries with duplicate rows are allowed (they act additively).
    pub fn push_col(&mut self, entries: &[(usize, f64)]) -> usize {
        for &(r, v) in entries {
            assert!(
                r < self.nrows,
                "row {r} out of range for {} rows",
                self.nrows
            );
            if v != 0.0 {
                self.row_idx.push(r);
                self.values.push(v);
            }
        }
        self.col_ptr.push(self.row_idx.len());
        self.ncols() - 1
    }

    /// Iterates over the `(row, value)` entries of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// `y += alpha · A[:, j]` (dense scatter of one column).
    #[inline]
    pub fn scatter_col(&self, j: usize, alpha: f64, y: &mut [f64]) {
        for (r, v) in self.col(j) {
            y[r] += alpha * v;
        }
    }

    /// Dot product of column `j` with a dense vector.
    #[inline]
    pub fn dot_col(&self, j: usize, y: &[f64]) -> f64 {
        self.col(j).map(|(r, v)| v * y[r]).sum()
    }
}

/// The bounded standard form of an [`LpProblem`]: the constraint matrix in CSC
/// layout with one slack and one artificial column per row appended after the
/// structural columns, plus costs, right-hand sides and bounds per column.
#[derive(Debug, Clone)]
pub struct SparseForm {
    /// Number of structural (original problem) columns.
    pub nstruct: usize,
    /// Number of constraint rows.
    pub nrows: usize,
    /// The matrix: `nstruct` structural, `nrows` slack, `nrows` artificial columns.
    pub cols: CscMatrix,
    /// Phase-2 (true) objective per column; zero outside the structural block.
    pub cost: Vec<f64>,
    /// Right-hand side per row.
    pub rhs: Vec<f64>,
    /// Lower bound per column.
    pub lower: Vec<f64>,
    /// Upper bound per column.
    pub upper: Vec<f64>,
}

impl SparseForm {
    /// Builds the standard form of `problem` under the given structural bounds.
    pub fn build(problem: &LpProblem, lower: &[f64], upper: &[f64]) -> SparseForm {
        let n = problem.num_variables();
        let m = problem.num_constraints();
        assert_eq!(lower.len(), n);
        assert_eq!(upper.len(), n);

        let mut cols = problem.structural_csc();
        let mut cost = vec![0.0; n + 2 * m];
        let mut lo = vec![0.0; n + 2 * m];
        let mut up = vec![0.0; n + 2 * m];
        for (j, v) in problem.variables.iter().enumerate() {
            cost[j] = v.objective;
            lo[j] = lower[j];
            up[j] = upper[j];
        }
        let mut rhs = Vec::with_capacity(m);
        for (i, c) in problem.constraints.iter().enumerate() {
            rhs.push(c.rhs);
            let j = cols.push_col(&[(i, 1.0)]);
            debug_assert_eq!(j, n + i);
            let (l, u) = match c.sense {
                ConstraintSense::LessEqual => (0.0, f64::INFINITY),
                ConstraintSense::GreaterEqual => (f64::NEG_INFINITY, 0.0),
                ConstraintSense::Equal => (0.0, 0.0),
            };
            lo[n + i] = l;
            up[n + i] = u;
        }
        // Artificial columns, fixed at zero until a Phase-1 crash frees them.
        for i in 0..m {
            let j = cols.push_col(&[(i, 1.0)]);
            debug_assert_eq!(j, n + m + i);
        }
        SparseForm {
            nstruct: n,
            nrows: m,
            cols,
            cost,
            rhs,
            lower: lo,
            upper: up,
        }
    }

    /// Total number of columns (structural + slack + artificial).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.nstruct + 2 * self.nrows
    }

    /// Column index of the slack of row `i`.
    #[inline]
    pub fn slack(&self, i: usize) -> usize {
        self.nstruct + i
    }

    /// Column index of the artificial of row `i`.
    #[inline]
    pub fn artificial(&self, i: usize) -> usize {
        self.nstruct + self.nrows + i
    }

    /// Overrides the structural bounds (used by branch and bound, which tightens
    /// one bound per node on a shared form).
    pub fn set_structural_bounds(&mut self, lower: &[f64], upper: &[f64]) {
        assert_eq!(lower.len(), self.nstruct);
        assert_eq!(upper.len(), self.nstruct);
        self.lower[..self.nstruct].copy_from_slice(lower);
        self.upper[..self.nstruct].copy_from_slice(upper);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintSense, LinExpr, LpProblem};

    #[test]
    fn csc_roundtrip_and_ops() {
        let mut m = CscMatrix::new(3);
        m.push_col(&[(0, 1.0), (2, -2.0)]);
        m.push_col(&[(1, 4.0)]);
        m.push_col(&[]);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, -2.0)]);
        assert_eq!(m.col(2).count(), 0);
        let mut y = vec![0.0; 3];
        m.scatter_col(0, 2.0, &mut y);
        assert_eq!(y, vec![2.0, 0.0, -4.0]);
        assert_eq!(m.dot_col(0, &[1.0, 1.0, 1.0]), -1.0);
        // Explicit zeros are dropped.
        m.push_col(&[(0, 0.0), (1, 5.0)]);
        assert_eq!(m.col(3).collect::<Vec<_>>(), vec![(1, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn csc_rejects_out_of_range_rows() {
        let mut m = CscMatrix::new(2);
        m.push_col(&[(2, 1.0)]);
    }

    #[test]
    fn standard_form_layout_and_slack_bounds() {
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, 5.0, 1.0);
        let y = p.add_continuous("y", -1.0, 1.0, -2.0);
        p.add_constraint(
            "le",
            LinExpr::term(x, 1.0).plus(y, 2.0),
            ConstraintSense::LessEqual,
            4.0,
        );
        p.add_constraint(
            "ge",
            LinExpr::term(x, 1.0),
            ConstraintSense::GreaterEqual,
            1.0,
        );
        p.add_constraint("eq", LinExpr::term(y, 1.0), ConstraintSense::Equal, 0.5);
        let lower: Vec<f64> = p.variables.iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = p.variables.iter().map(|v| v.upper).collect();
        let f = SparseForm::build(&p, &lower, &upper);
        assert_eq!(f.nstruct, 2);
        assert_eq!(f.nrows, 3);
        assert_eq!(f.ncols(), 8);
        assert_eq!(f.cols.ncols(), 8);
        assert_eq!(f.cost[..2], [1.0, -2.0]);
        assert_eq!(f.rhs, vec![4.0, 1.0, 0.5]);
        // Slack bounds encode the senses.
        assert_eq!(
            (f.lower[f.slack(0)], f.upper[f.slack(0)]),
            (0.0, f64::INFINITY)
        );
        assert_eq!(
            (f.lower[f.slack(1)], f.upper[f.slack(1)]),
            (f64::NEG_INFINITY, 0.0)
        );
        assert_eq!((f.lower[f.slack(2)], f.upper[f.slack(2)]), (0.0, 0.0));
        // Artificials are pinned at zero.
        assert_eq!(
            (f.lower[f.artificial(0)], f.upper[f.artificial(0)]),
            (0.0, 0.0)
        );
    }

    #[test]
    fn set_structural_bounds_only_touches_structurals() {
        let mut p = LpProblem::new();
        p.add_continuous("x", 0.0, 1.0, 0.0);
        let f0 = SparseForm::build(&p, &[0.0], &[1.0]);
        let mut f = f0.clone();
        f.set_structural_bounds(&[0.5], &[0.75]);
        assert_eq!(f.lower[0], 0.5);
        assert_eq!(f.upper[0], 0.75);
        assert_eq!(f.lower[1..], f0.lower[1..]);
        assert_eq!(f.upper[1..], f0.upper[1..]);
    }
}
