//! Mixed-integer linear-program model builder.

use serde::{Deserialize, Serialize};

/// Identifier of a decision variable within an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub usize);

impl VarId {
    /// The variable's index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The domain of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarType {
    /// Continuous variable.
    Continuous,
    /// Binary variable (`{0, 1}`).
    Binary,
    /// General integer variable.
    Integer,
}

/// A decision variable: bounds, objective coefficient, type and name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variable {
    /// Human-readable name (used in debugging output).
    pub name: String,
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
    /// Coefficient in the (minimisation) objective.
    pub objective: f64,
    /// Variable type.
    pub var_type: VarType,
}

/// A sparse linear expression `Σ coeff · var`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinExpr {
    /// `(variable, coefficient)` terms; variables may repeat (they are summed).
    pub terms: Vec<(VarId, f64)>,
}

impl LinExpr {
    /// The empty expression.
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// A single-term expression.
    pub fn term(var: VarId, coeff: f64) -> Self {
        LinExpr {
            terms: vec![(var, coeff)],
        }
    }

    /// Adds `coeff · var` to the expression (builder style).
    pub fn plus(mut self, var: VarId, coeff: f64) -> Self {
        self.terms.push((var, coeff));
        self
    }

    /// Adds `coeff · var` in place.
    pub fn add(&mut self, var: VarId, coeff: f64) {
        self.terms.push((var, coeff));
    }

    /// Evaluates the expression under an assignment (indexed by variable).
    pub fn eval(&self, assignment: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|&(v, c)| c * assignment[v.index()])
            .sum()
    }

    /// Returns the expression with duplicate variables merged and zero coefficients
    /// dropped (terms come out sorted by variable index).
    pub fn simplified(&self) -> LinExpr {
        // Sort-and-merge on a flat vector: same output order as the former
        // `BTreeMap` accumulation (ascending variable index), no tree allocation
        // per term.
        let mut sorted = self.terms.clone();
        sorted.sort_by_key(|&(v, _)| v.index());
        let mut terms: Vec<(VarId, f64)> = Vec::with_capacity(sorted.len());
        for &(v, c) in &sorted {
            match terms.last_mut() {
                Some(&mut (last, ref mut acc)) if last == v => *acc += c,
                _ => terms.push((v, c)),
            }
        }
        terms.retain(|&(_, c)| c.abs() > 1e-12);
        LinExpr { terms }
    }
}

/// Constraint comparison sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstraintSense {
    /// `expr ≤ rhs`
    LessEqual,
    /// `expr ≥ rhs`
    GreaterEqual,
    /// `expr = rhs`
    Equal,
}

/// A linear constraint `expr sense rhs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Optional name for debugging.
    pub name: String,
    /// Left-hand-side expression.
    pub expr: LinExpr,
    /// Comparison sense.
    pub sense: ConstraintSense,
    /// Right-hand-side constant.
    pub rhs: f64,
}

impl Constraint {
    /// Checks whether an assignment satisfies the constraint up to `tol`.
    pub fn is_satisfied(&self, assignment: &[f64], tol: f64) -> bool {
        let lhs = self.expr.eval(assignment);
        match self.sense {
            ConstraintSense::LessEqual => lhs <= self.rhs + tol,
            ConstraintSense::GreaterEqual => lhs >= self.rhs - tol,
            ConstraintSense::Equal => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// A mixed-integer linear program (minimisation).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LpProblem {
    /// Decision variables.
    pub variables: Vec<Variable>,
    /// Linear constraints.
    pub constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        LpProblem::default()
    }

    /// Adds a continuous variable with the given bounds and objective coefficient.
    pub fn add_continuous(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        self.add_variable(name, lower, upper, objective, VarType::Continuous)
    }

    /// Adds a binary variable with the given objective coefficient.
    pub fn add_binary(&mut self, name: impl Into<String>, objective: f64) -> VarId {
        self.add_variable(name, 0.0, 1.0, objective, VarType::Binary)
    }

    /// Adds an integer variable with the given bounds and objective coefficient.
    pub fn add_integer(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        self.add_variable(name, lower, upper, objective, VarType::Integer)
    }

    /// Adds a variable with full control over its attributes.
    pub fn add_variable(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
        var_type: VarType,
    ) -> VarId {
        assert!(
            lower <= upper,
            "variable bounds must satisfy lower <= upper"
        );
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name: name.into(),
            lower,
            upper,
            objective,
            var_type,
        });
        id
    }

    /// Adds a constraint `expr sense rhs`.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        sense: ConstraintSense,
        rhs: f64,
    ) {
        self.constraints.push(Constraint {
            name: name.into(),
            expr: expr.simplified(),
            sense,
            rhs,
        });
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Objective value of an assignment.
    pub fn objective_value(&self, assignment: &[f64]) -> f64 {
        self.variables
            .iter()
            .enumerate()
            .map(|(i, v)| v.objective * assignment[i])
            .sum()
    }

    /// Builds the constraint matrix in compressed-sparse-column form: one
    /// column per variable, one row per constraint, duplicate terms merged.
    /// This is the structural block of the revised simplex's standard form
    /// ([`crate::sparse::SparseForm`] appends the slack and artificial blocks).
    pub fn structural_csc(&self) -> crate::sparse::CscMatrix {
        let n = self.num_variables();
        let m = self.num_constraints();
        let mut by_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (i, c) in self.constraints.iter().enumerate() {
            for &(v, a) in &c.expr.terms {
                by_col[v.index()].push((i, a));
            }
        }
        let mut csc = crate::sparse::CscMatrix::new(m);
        for col in &mut by_col {
            // Merge duplicate rows (hand-built constraints may repeat a term).
            col.sort_unstable_by_key(|&(r, _)| r);
            col.dedup_by(|next, prev| {
                if next.0 == prev.0 {
                    prev.1 += next.1;
                    true
                } else {
                    false
                }
            });
            csc.push_col(col);
        }
        csc
    }

    /// Checks whether an assignment is feasible (bounds, constraints and
    /// integrality) up to `tol`.
    pub fn is_feasible(&self, assignment: &[f64], tol: f64) -> bool {
        if assignment.len() != self.variables.len() {
            return false;
        }
        for (i, v) in self.variables.iter().enumerate() {
            let x = assignment[i];
            if x < v.lower - tol || x > v.upper + tol {
                return false;
            }
            if matches!(v.var_type, VarType::Binary | VarType::Integer)
                && (x - x.round()).abs() > tol
            {
                return false;
            }
        }
        self.constraints
            .iter()
            .all(|c| c.is_satisfied(assignment, tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_problem() {
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, 10.0, 1.0);
        let y = p.add_binary("y", 2.0);
        let z = p.add_integer("z", 0.0, 5.0, 0.0);
        p.add_constraint(
            "c1",
            LinExpr::term(x, 1.0).plus(y, 3.0),
            ConstraintSense::LessEqual,
            7.0,
        );
        p.add_constraint(
            "c2",
            LinExpr::term(z, 1.0),
            ConstraintSense::GreaterEqual,
            2.0,
        );
        assert_eq!(p.num_variables(), 3);
        assert_eq!(p.num_constraints(), 2);
        let assignment = vec![1.0, 1.0, 2.0];
        assert!(p.is_feasible(&assignment, 1e-9));
        assert_eq!(p.objective_value(&assignment), 3.0);
        // Violating integrality or a constraint is detected.
        assert!(!p.is_feasible(&[1.0, 0.5, 2.0], 1e-9));
        assert!(!p.is_feasible(&[1.0, 1.0, 0.0], 1e-9));
    }

    #[test]
    fn expression_evaluation_and_simplification() {
        let x = VarId(0);
        let y = VarId(1);
        let e = LinExpr::term(x, 2.0)
            .plus(y, 1.0)
            .plus(x, 3.0)
            .plus(y, -1.0);
        assert_eq!(e.eval(&[1.0, 10.0]), 5.0 + 0.0);
        let s = e.simplified();
        assert_eq!(s.terms, vec![(x, 5.0)]);
    }

    #[test]
    fn constraint_satisfaction_senses() {
        let x = VarId(0);
        let le = Constraint {
            name: "le".into(),
            expr: LinExpr::term(x, 1.0),
            sense: ConstraintSense::LessEqual,
            rhs: 2.0,
        };
        let ge = Constraint {
            sense: ConstraintSense::GreaterEqual,
            ..le.clone()
        };
        let eq = Constraint {
            sense: ConstraintSense::Equal,
            ..le.clone()
        };
        assert!(le.is_satisfied(&[1.0], 1e-9));
        assert!(!le.is_satisfied(&[3.0], 1e-9));
        assert!(ge.is_satisfied(&[3.0], 1e-9));
        assert!(!ge.is_satisfied(&[1.0], 1e-9));
        assert!(eq.is_satisfied(&[2.0], 1e-9));
        assert!(!eq.is_satisfied(&[1.5], 1e-9));
    }

    #[test]
    fn structural_csc_merges_duplicates_and_keeps_row_order() {
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, 1.0, 0.0);
        let y = p.add_continuous("y", 0.0, 1.0, 0.0);
        p.add_constraint(
            "c0",
            LinExpr::term(x, 2.0).plus(y, 1.0),
            ConstraintSense::LessEqual,
            1.0,
        );
        // Hand-built constraint with a duplicated term bypassing simplification.
        p.constraints.push(Constraint {
            name: "c1".into(),
            expr: LinExpr::term(x, 1.0).plus(x, 3.0),
            sense: ConstraintSense::Equal,
            rhs: 2.0,
        });
        let csc = p.structural_csc();
        assert_eq!(csc.nrows(), 2);
        assert_eq!(csc.ncols(), 2);
        assert_eq!(csc.col(0).collect::<Vec<_>>(), vec![(0, 2.0), (1, 4.0)]);
        assert_eq!(csc.col(1).collect::<Vec<_>>(), vec![(0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "bounds")]
    fn rejects_inverted_bounds() {
        let mut p = LpProblem::new();
        p.add_continuous("x", 5.0, 1.0, 0.0);
    }
}
