//! Bounded-variable sparse revised simplex (primal and dual).
//!
//! This is the workhorse LP solver of the crate. It differs from the retained
//! dense oracle ([`crate::dense`]) in three ways that matter for the MBSP ILP
//! relaxations:
//!
//! * the constraint matrix is stored once in **compressed sparse column** form
//!   ([`crate::sparse::SparseForm`]) and never densified;
//! * variable bounds are handled **natively in the ratio test** (general
//!   bounded-variable simplex with bound flips), so a binary ILP with `n`
//!   variables does *not* grow `n` extra upper-bound rows;
//! * the basis is factorized as **LU with product-form (eta) updates** and
//!   periodic refactorization ([`crate::basis::Factorization`]), so one pivot
//!   costs two sparse triangular solves instead of a dense tableau sweep.
//!
//! Pricing is partial (rotating blocks, Dantzig within a block) with a Bland's
//! rule fallback under stalling, which guarantees termination on degenerate
//! problems ([`crate::pricing`]).
//!
//! **Warm starts.** [`RevisedSimplex::solve_with_basis`] re-solves after bound
//! changes starting from a caller-supplied basis: if the basis is still primal
//! feasible the primal finishes the job; if it is only dual feasible (the
//! typical branch-and-bound child node: the branching variable was basic and
//! fractional) a **bounded dual simplex** drives the handful of violated
//! basics back into their boxes; otherwise the solver falls back to a cold
//! Phase-1/Phase-2 start. [`RevisedSimplex::solve_from_point`] crashes a basis
//! from a known (e.g. two-stage baseline) assignment, which makes Phase 1
//! trivial when the point is feasible.

use crate::basis::Factorization;
use crate::model::LpProblem;
use crate::pricing::{select_bland, Pricing};
use crate::sparse::SparseForm;

/// Status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The problem has no feasible solution.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// An iteration limit was reached first: the solve's own size-derived cycle
    /// guard or the caller's pivot budget ([`RevisedSimplex::set_pivot_budget`]).
    IterationLimit,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Solve status.
    pub status: LpStatus,
    /// Objective value (meaningful only when `status == Optimal`).
    pub objective: f64,
    /// Values of the original problem variables (meaningful only when `Optimal`).
    pub values: Vec<f64>,
}

impl LpSolution {
    fn infeasible() -> Self {
        LpSolution {
            status: LpStatus::Infeasible,
            objective: f64::INFINITY,
            values: vec![],
        }
    }

    fn unbounded() -> Self {
        LpSolution {
            status: LpStatus::Unbounded,
            objective: f64::NEG_INFINITY,
            values: vec![],
        }
    }

    fn limit() -> Self {
        LpSolution {
            status: LpStatus::IterationLimit,
            objective: f64::INFINITY,
            values: vec![],
        }
    }
}

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarStatus {
    /// In the basis (value determined by the basic solution).
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable, resting at zero.
    Free,
}

/// A snapshot of a simplex basis: which column is basic in each row position
/// plus the resting status of every column. Cheap to clone; branch and bound
/// hands these from parent to child nodes.
#[derive(Debug, Clone)]
pub struct Basis {
    /// `basic[i]` = column basic at row position `i`.
    pub basic: Vec<usize>,
    /// Status per column (length = structural + slack + artificial columns).
    pub status: Vec<VarStatus>,
}

/// Reduced-cost threshold for pricing eligibility.
const DUAL_TOL: f64 = 1e-7;
/// Bound-violation threshold for primal feasibility.
const PRIMAL_TOL: f64 = 1e-7;
/// Entries smaller than this never pivot in the ratio test.
const RATIO_TOL: f64 = 1e-9;
/// Tie window of the ratio test.
const RATIO_EPS: f64 = 1e-9;
/// A step this small counts as a degenerate pivot.
const DEGENERATE_STEP: f64 = 1e-10;

enum PhaseOutcome {
    Optimal,
    Unbounded,
    IterationLimit,
    NumericalTrouble,
}

enum DualOutcome {
    /// Primal feasibility restored (dual feasibility was maintained throughout).
    Feasible,
    /// The LP is infeasible (a row proved no feasible point exists).
    Infeasible,
    /// Cycle guard tripped, pivot budget spent or numerical trouble; caller
    /// should re-solve cold (which a spent budget ends at once).
    GiveUp,
}

/// The revised simplex solver. Owns the standard form (so branch and bound can
/// tighten bounds in place between solves) and all solver state.
pub struct RevisedSimplex {
    form: SparseForm,
    /// Status per column.
    status: Vec<VarStatus>,
    /// Basic column per row position.
    basic: Vec<usize>,
    /// Current value per column.
    x: Vec<f64>,
    factor: Factorization,
    pricing: Pricing,
    /// Phase-1 cost vector (`±1` on the active artificials, `0` elsewhere).
    p1cost: Vec<f64>,
    /// Scratch vectors of length `nrows`.
    ybuf: Vec<f64>,
    wbuf: Vec<f64>,
    rbuf: Vec<f64>,
    /// Pivots the caller still allows, over every solve from now on.
    pivots_left: usize,
}

impl RevisedSimplex {
    /// Creates a solver for `problem` using the problem's own variable bounds.
    pub fn new(problem: &LpProblem) -> Self {
        let lower: Vec<f64> = problem.variables.iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = problem.variables.iter().map(|v| v.upper).collect();
        RevisedSimplex::with_bounds(problem, &lower, &upper)
    }

    /// Creates a solver for `problem` with overridden structural bounds.
    pub fn with_bounds(problem: &LpProblem, lower: &[f64], upper: &[f64]) -> Self {
        let form = SparseForm::build(problem, lower, upper);
        let ncols = form.ncols();
        let m = form.nrows;
        RevisedSimplex {
            status: vec![VarStatus::AtLower; ncols],
            basic: Vec::with_capacity(m),
            x: vec![0.0; ncols],
            factor: Factorization::new(),
            pricing: Pricing::new(ncols),
            p1cost: vec![0.0; ncols],
            ybuf: vec![0.0; m],
            wbuf: vec![0.0; m],
            rbuf: vec![0.0; m],
            form,
            pivots_left: usize::MAX,
        }
    }

    /// Overrides the structural bounds (branch-and-bound node setup).
    pub fn set_structural_bounds(&mut self, lower: &[f64], upper: &[f64]) {
        self.form.set_structural_bounds(lower, upper);
    }

    /// Returns a cheap snapshot of the current basis (valid after any solve).
    pub fn basis_snapshot(&self) -> Basis {
        Basis {
            basic: self.basic.clone(),
            status: self.status.clone(),
        }
    }

    /// Allows `pivots` more simplex iterations (primal or dual, bound flips
    /// included) over all later solves together; a solve that runs out returns
    /// [`LpStatus::IterationLimit`]. A count, so the same sequence of solves
    /// stops at the same pivot on any machine. Unlimited until set.
    pub fn set_pivot_budget(&mut self, pivots: usize) {
        self.pivots_left = pivots;
    }

    /// What is left of the budget of [`RevisedSimplex::set_pivot_budget`].
    pub fn pivots_left(&self) -> usize {
        self.pivots_left
    }

    /// Solves from scratch (crash basis + Phase 1 + Phase 2).
    pub fn solve(&mut self) -> LpSolution {
        if self.bounds_crossed() {
            return LpSolution::infeasible();
        }
        self.solve_cold(None)
    }

    /// Solves from scratch, crashing the initial basis towards `point` (one
    /// value per structural variable): every nonbasic structural rests at the
    /// bound nearest its point value, so a feasible `point` whose entries sit
    /// on their bounds (e.g. an integral incumbent) skips Phase 1 entirely.
    pub fn solve_from_point(&mut self, point: &[f64]) -> LpSolution {
        if self.bounds_crossed() {
            return LpSolution::infeasible();
        }
        if point.len() == self.form.nstruct {
            self.solve_cold(Some(point))
        } else {
            self.solve_cold(None)
        }
    }

    /// Warm-started re-solve: install `basis`, then pick the cheapest correct
    /// path (already optimal / primal / dual simplex) and fall back to a cold
    /// solve when the basis is unusable. This is the branch-and-bound fast
    /// path: after a single bound change the parent's optimal basis stays dual
    /// feasible and the dual simplex typically needs only a few pivots.
    pub fn solve_with_basis(&mut self, basis: &Basis) -> LpSolution {
        if self.bounds_crossed() {
            return LpSolution::infeasible();
        }
        if self.install_basis(basis) {
            if self.primal_infeasibility() <= PRIMAL_TOL {
                match self.primal(false) {
                    PhaseOutcome::Optimal => return self.extract(),
                    PhaseOutcome::Unbounded => return LpSolution::unbounded(),
                    PhaseOutcome::IterationLimit => return LpSolution::limit(),
                    PhaseOutcome::NumericalTrouble => {}
                }
            } else if self.dual_infeasibility() <= DUAL_TOL {
                match self.dual() {
                    DualOutcome::Feasible => match self.primal(false) {
                        PhaseOutcome::Optimal => return self.extract(),
                        PhaseOutcome::Unbounded => return LpSolution::unbounded(),
                        PhaseOutcome::IterationLimit => return LpSolution::limit(),
                        PhaseOutcome::NumericalTrouble => {}
                    },
                    DualOutcome::Infeasible => return LpSolution::infeasible(),
                    DualOutcome::GiveUp => {}
                }
            }
        }
        self.solve_cold(None)
    }

    // ------------------------------------------------------------------
    // Cold path: crash + Phase 1 + Phase 2.
    // ------------------------------------------------------------------

    fn solve_cold(&mut self, point: Option<&[f64]>) -> LpSolution {
        let needs_phase1 = self.crash(point);
        if !self.refactor_and_sync() {
            return LpSolution::limit();
        }
        if needs_phase1 {
            match self.primal(true) {
                PhaseOutcome::Optimal => {}
                // Phase 1 is bounded below by zero; anything else is numerics.
                _ => return LpSolution::limit(),
            }
            let infeas: f64 = (0..self.form.nrows)
                .map(|i| self.x[self.form.artificial(i)].abs())
                .sum();
            if infeas > 1e-6 {
                return LpSolution::infeasible();
            }
            // Pin the artificials back to zero and resynchronize.
            for i in 0..self.form.nrows {
                let a = self.form.artificial(i);
                self.form.lower[a] = 0.0;
                self.form.upper[a] = 0.0;
                self.p1cost[a] = 0.0;
                if self.status[a] != VarStatus::Basic {
                    self.status[a] = VarStatus::AtLower;
                    self.x[a] = 0.0;
                }
            }
            self.sync_basic_values();
        }
        match self.primal(false) {
            PhaseOutcome::Optimal => self.extract(),
            PhaseOutcome::Unbounded => LpSolution::unbounded(),
            PhaseOutcome::IterationLimit | PhaseOutcome::NumericalTrouble => LpSolution::limit(),
        }
    }

    /// Sets up the crash basis: structurals nonbasic at a finite bound (nearest
    /// `point` when given), every row's slack basic when its residual fits the
    /// slack bounds, otherwise the row's artificial basic capturing the
    /// residual with a `±1` Phase-1 cost. Returns true if any artificial is
    /// active (Phase 1 required).
    fn crash(&mut self, point: Option<&[f64]>) -> bool {
        let form = &mut self.form;
        let n = form.nstruct;
        let m = form.nrows;
        for j in 0..n {
            let (l, u) = (form.lower[j], form.upper[j]);
            let target = point.map_or(0.0, |p| p[j]);
            let (st, v) = if l.is_finite() && u.is_finite() {
                if (target - l).abs() <= (u - target).abs() {
                    (VarStatus::AtLower, l)
                } else {
                    (VarStatus::AtUpper, u)
                }
            } else if l.is_finite() {
                (VarStatus::AtLower, l)
            } else if u.is_finite() {
                (VarStatus::AtUpper, u)
            } else {
                (VarStatus::Free, 0.0)
            };
            self.status[j] = st;
            self.x[j] = v;
        }
        // Residual of each row under the nonbasic structurals.
        self.ybuf.copy_from_slice(&form.rhs);
        for j in 0..n {
            if self.x[j] != 0.0 {
                form.cols.scatter_col(j, -self.x[j], &mut self.ybuf);
            }
        }
        self.basic.clear();
        let mut needs_phase1 = false;
        for i in 0..m {
            let s = self.ybuf[i];
            let sl = form.slack(i);
            let a = form.artificial(i);
            // Reset the artificial to its pinned state first.
            form.lower[a] = 0.0;
            form.upper[a] = 0.0;
            self.p1cost[a] = 0.0;
            self.status[a] = VarStatus::AtLower;
            self.x[a] = 0.0;
            if s >= form.lower[sl] - PRIMAL_TOL && s <= form.upper[sl] + PRIMAL_TOL {
                self.status[sl] = VarStatus::Basic;
                self.x[sl] = s;
                self.basic.push(sl);
            } else {
                // Slack nonbasic at its nearest bound; artificial takes the rest.
                let sb = if s < form.lower[sl] {
                    form.lower[sl]
                } else {
                    form.upper[sl]
                };
                self.status[sl] = if sb == form.lower[sl] {
                    VarStatus::AtLower
                } else {
                    VarStatus::AtUpper
                };
                self.x[sl] = sb;
                let resid = s - sb;
                if resid >= 0.0 {
                    form.lower[a] = 0.0;
                    form.upper[a] = f64::INFINITY;
                    self.p1cost[a] = 1.0;
                } else {
                    form.lower[a] = f64::NEG_INFINITY;
                    form.upper[a] = 0.0;
                    self.p1cost[a] = -1.0;
                }
                self.status[a] = VarStatus::Basic;
                self.x[a] = resid;
                self.basic.push(a);
                needs_phase1 = true;
            }
        }
        needs_phase1
    }

    // ------------------------------------------------------------------
    // Warm path helpers.
    // ------------------------------------------------------------------

    /// Installs a basis snapshot: validates shape and statuses, pins the
    /// artificials, refactorizes and recomputes all values. Returns false if
    /// the snapshot cannot be used (wrong shape, status at an infinite bound,
    /// singular basis).
    fn install_basis(&mut self, basis: &Basis) -> bool {
        let m = self.form.nrows;
        let ncols = self.form.ncols();
        if basis.basic.len() != m || basis.status.len() != ncols {
            return false;
        }
        if basis.basic.iter().any(|&j| j >= ncols) {
            return false;
        }
        self.basic.clear();
        self.basic.extend_from_slice(&basis.basic);
        self.status.copy_from_slice(&basis.status);
        for i in 0..m {
            let a = self.form.artificial(i);
            self.form.lower[a] = 0.0;
            self.form.upper[a] = 0.0;
            self.p1cost[a] = 0.0;
        }
        // Statuses must be internally consistent and resting spots finite.
        let mut basic_count = 0;
        for j in 0..ncols {
            match self.status[j] {
                VarStatus::Basic => basic_count += 1,
                VarStatus::AtLower => {
                    if !self.form.lower[j].is_finite() {
                        return false;
                    }
                }
                VarStatus::AtUpper => {
                    if !self.form.upper[j].is_finite() {
                        return false;
                    }
                }
                VarStatus::Free => {}
            }
        }
        if basic_count != m
            || self
                .basic
                .iter()
                .any(|&j| self.status[j] != VarStatus::Basic)
        {
            return false;
        }
        if !self.factor.refactorize(&self.form.cols, &self.basic) {
            return false;
        }
        for j in 0..ncols {
            match self.status[j] {
                VarStatus::Basic => {}
                VarStatus::AtLower => self.x[j] = self.form.lower[j],
                VarStatus::AtUpper => self.x[j] = self.form.upper[j],
                VarStatus::Free => self.x[j] = 0.0,
            }
        }
        self.sync_basic_values();
        true
    }

    /// Largest bound violation over the basic variables.
    fn primal_infeasibility(&self) -> f64 {
        self.basic
            .iter()
            .map(|&j| {
                (self.form.lower[j] - self.x[j])
                    .max(self.x[j] - self.form.upper[j])
                    .max(0.0)
            })
            .fold(0.0, f64::max)
    }

    /// Largest reduced-cost sign violation over the nonbasic variables.
    fn dual_infeasibility(&mut self) -> f64 {
        let m = self.form.nrows;
        for i in 0..m {
            self.ybuf[i] = self.form.cost[self.basic[i]];
        }
        self.factor.btran(&mut self.ybuf);
        let mut worst = 0.0f64;
        for j in 0..self.form.ncols() {
            if self.status[j] == VarStatus::Basic || self.form.lower[j] >= self.form.upper[j] {
                continue;
            }
            let d = self.form.cost[j] - self.form.cols.dot_col(j, &self.ybuf);
            let v = match self.status[j] {
                VarStatus::AtLower => -d,
                VarStatus::AtUpper => d,
                VarStatus::Free => d.abs(),
                VarStatus::Basic => 0.0,
            };
            worst = worst.max(v);
        }
        worst
    }

    // ------------------------------------------------------------------
    // Primal simplex.
    // ------------------------------------------------------------------

    fn primal(&mut self, phase1: bool) -> PhaseOutcome {
        let m = self.form.nrows;
        let ncols = self.form.ncols();
        let max_iter = 200 * (ncols + m + 10);
        let bland_threshold = max_iter / 2;
        let mut degenerate_run = 0usize;
        for iter in 0..max_iter {
            if self.pivots_left == 0 {
                return PhaseOutcome::IterationLimit;
            }
            self.pivots_left -= 1;
            // Duals for the current cost vector.
            for i in 0..m {
                let bj = self.basic[i];
                self.ybuf[i] = if phase1 {
                    self.p1cost[bj]
                } else {
                    self.form.cost[bj]
                };
            }
            self.factor.btran(&mut self.ybuf);
            // Pricing.
            let use_bland = iter > bland_threshold || degenerate_run > 300;
            let q = {
                let form = &self.form;
                let status = &self.status;
                let y = &self.ybuf;
                let p1 = &self.p1cost;
                let eligible = |j: usize| -> Option<f64> {
                    if status[j] == VarStatus::Basic || form.lower[j] >= form.upper[j] {
                        return None;
                    }
                    let c = if phase1 { p1[j] } else { form.cost[j] };
                    let d = c - form.cols.dot_col(j, y);
                    match status[j] {
                        VarStatus::AtLower => (d < -DUAL_TOL).then_some(-d),
                        VarStatus::AtUpper => (d > DUAL_TOL).then_some(d),
                        VarStatus::Free => (d.abs() > DUAL_TOL).then_some(d.abs()),
                        VarStatus::Basic => None,
                    }
                };
                if use_bland {
                    select_bland(ncols, eligible)
                } else {
                    let mut pricing = self.pricing.clone();
                    let r = pricing.select(ncols, eligible);
                    self.pricing = pricing;
                    r
                }
            };
            let Some(q) = q else {
                return PhaseOutcome::Optimal;
            };
            let cq = if phase1 {
                self.p1cost[q]
            } else {
                self.form.cost[q]
            };
            let dq = cq - self.form.cols.dot_col(q, &self.ybuf);
            let dir: f64 = match self.status[q] {
                VarStatus::AtLower => 1.0,
                VarStatus::AtUpper => -1.0,
                VarStatus::Free => {
                    if dq < 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                VarStatus::Basic => unreachable!("pricing never selects a basic column"),
            };
            // Forward-transform the entering column.
            self.wbuf.iter_mut().for_each(|v| *v = 0.0);
            self.form.cols.scatter_col(q, 1.0, &mut self.wbuf);
            self.factor.ftran(&mut self.wbuf);
            // Bounded ratio test.
            let range_q = self.form.upper[q] - self.form.lower[q];
            let mut t_best = f64::INFINITY;
            let mut leave: Option<(usize, bool)> = None;
            let mut leave_w = 0.0f64;
            for i in 0..m {
                let wi = self.wbuf[i];
                if wi.abs() <= RATIO_TOL {
                    continue;
                }
                let bi = self.basic[i];
                let rate = -dir * wi;
                let (limit, to_upper) = if rate < 0.0 {
                    let lb = self.form.lower[bi];
                    if !lb.is_finite() {
                        continue;
                    }
                    (((self.x[bi] - lb) / -rate).max(0.0), false)
                } else {
                    let ub = self.form.upper[bi];
                    if !ub.is_finite() {
                        continue;
                    }
                    (((ub - self.x[bi]) / rate).max(0.0), true)
                };
                let better = limit < t_best - RATIO_EPS
                    || (limit < t_best + RATIO_EPS && wi.abs() > leave_w.abs());
                if better {
                    t_best = limit;
                    leave = Some((i, to_upper));
                    leave_w = wi;
                }
            }
            if range_q.is_finite() && range_q <= t_best {
                // Bound flip: the entering variable crosses to its other bound.
                let t = range_q;
                for i in 0..m {
                    let wi = self.wbuf[i];
                    if wi != 0.0 {
                        self.x[self.basic[i]] -= dir * t * wi;
                    }
                }
                self.status[q] = match self.status[q] {
                    VarStatus::AtLower => {
                        self.x[q] = self.form.upper[q];
                        VarStatus::AtUpper
                    }
                    _ => {
                        self.x[q] = self.form.lower[q];
                        VarStatus::AtLower
                    }
                };
                degenerate_run = if t <= DEGENERATE_STEP {
                    degenerate_run + 1
                } else {
                    0
                };
                continue;
            }
            let Some((r, to_upper)) = leave else {
                return PhaseOutcome::Unbounded;
            };
            let t = t_best;
            for i in 0..m {
                let wi = self.wbuf[i];
                if wi != 0.0 {
                    self.x[self.basic[i]] -= dir * t * wi;
                }
            }
            self.x[q] += dir * t;
            let bi = self.basic[r];
            self.x[bi] = if to_upper {
                self.form.upper[bi]
            } else {
                self.form.lower[bi]
            };
            self.status[bi] = if to_upper {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            };
            self.status[q] = VarStatus::Basic;
            self.basic[r] = q;
            degenerate_run = if t <= DEGENERATE_STEP {
                degenerate_run + 1
            } else {
                0
            };
            if (!self.factor.update(&self.wbuf, r) || self.factor.should_refactorize())
                && !self.refactor_and_sync()
            {
                return PhaseOutcome::NumericalTrouble;
            }
        }
        PhaseOutcome::IterationLimit
    }

    // ------------------------------------------------------------------
    // Dual simplex (warm re-solve after bound changes).
    // ------------------------------------------------------------------

    fn dual(&mut self) -> DualOutcome {
        let m = self.form.nrows;
        let ncols = self.form.ncols();
        let max_iter = 200 * (ncols + m + 10);
        for _ in 0..max_iter {
            if self.pivots_left == 0 {
                return DualOutcome::GiveUp;
            }
            self.pivots_left -= 1;
            // Leaving row: the basic variable with the largest bound violation.
            let mut r = usize::MAX;
            let mut worst = PRIMAL_TOL;
            for (i, &bj) in self.basic.iter().enumerate() {
                let v = (self.form.lower[bj] - self.x[bj]).max(self.x[bj] - self.form.upper[bj]);
                if v > worst {
                    worst = v;
                    r = i;
                }
            }
            if r == usize::MAX {
                return DualOutcome::Feasible;
            }
            let bi = self.basic[r];
            let below = self.x[bi] < self.form.lower[bi];
            let target = if below {
                self.form.lower[bi]
            } else {
                self.form.upper[bi]
            };
            // Row r of B⁻¹ (for the alphas) and the duals (for the ratios).
            self.rbuf.iter_mut().for_each(|v| *v = 0.0);
            self.rbuf[r] = 1.0;
            self.factor.btran(&mut self.rbuf);
            for i in 0..m {
                self.ybuf[i] = self.form.cost[self.basic[i]];
            }
            self.factor.btran(&mut self.ybuf);
            // Dual ratio test over the nonbasic columns.
            let mut entering: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for j in 0..ncols {
                if self.status[j] == VarStatus::Basic || self.form.lower[j] >= self.form.upper[j] {
                    continue;
                }
                let mut alpha = 0.0;
                let mut dot_y = 0.0;
                for (row, v) in self.form.cols.col(j) {
                    alpha += v * self.rbuf[row];
                    dot_y += v * self.ybuf[row];
                }
                if alpha.abs() <= RATIO_TOL {
                    continue;
                }
                // The entering variable must be able to move the violated basic
                // variable towards its bound without leaving its own bound.
                let ok = match self.status[j] {
                    VarStatus::AtLower => {
                        if below {
                            alpha < 0.0
                        } else {
                            alpha > 0.0
                        }
                    }
                    VarStatus::AtUpper => {
                        if below {
                            alpha > 0.0
                        } else {
                            alpha < 0.0
                        }
                    }
                    VarStatus::Free => true,
                    VarStatus::Basic => false,
                };
                if !ok {
                    continue;
                }
                let d = self.form.cost[j] - dot_y;
                let num = match self.status[j] {
                    VarStatus::AtLower => d.max(0.0),
                    VarStatus::AtUpper => (-d).max(0.0),
                    _ => d.abs(),
                };
                let ratio = num / alpha.abs();
                if ratio < best_ratio - RATIO_EPS
                    || (ratio < best_ratio + RATIO_EPS && alpha.abs() > best_alpha.abs())
                {
                    best_ratio = ratio;
                    best_alpha = alpha;
                    entering = Some(j);
                }
            }
            let Some(q) = entering else {
                // Every nonbasic column already pushes the violated basic as far
                // as its bounds allow: the LP is infeasible. But the alphas came
                // through the eta file — before pruning a branch-and-bound
                // subtree on this certificate, confirm it against a fresh
                // factorization (stale updates could hide eligible columns).
                if self.factor.updates() > 0 {
                    if !self.refactor_and_sync() {
                        return DualOutcome::GiveUp;
                    }
                    continue;
                }
                return DualOutcome::Infeasible;
            };
            // Forward-transform the entering column and pivot.
            self.wbuf.iter_mut().for_each(|v| *v = 0.0);
            self.form.cols.scatter_col(q, 1.0, &mut self.wbuf);
            self.factor.ftran(&mut self.wbuf);
            let alpha_q = self.wbuf[r];
            if alpha_q.abs() <= RATIO_TOL {
                // The eta-file estimate disagreed with the fresh column: the
                // factorization has drifted. Refactorize and retry once.
                if !self.refactor_and_sync() {
                    return DualOutcome::GiveUp;
                }
                continue;
            }
            let dxq = (self.x[bi] - target) / alpha_q;
            for i in 0..m {
                let wi = self.wbuf[i];
                if wi != 0.0 {
                    self.x[self.basic[i]] -= wi * dxq;
                }
            }
            self.x[bi] = target;
            self.x[q] += dxq;
            self.status[bi] = if below {
                VarStatus::AtLower
            } else {
                VarStatus::AtUpper
            };
            self.status[q] = VarStatus::Basic;
            self.basic[r] = q;
            if (!self.factor.update(&self.wbuf, r) || self.factor.should_refactorize())
                && !self.refactor_and_sync()
            {
                return DualOutcome::GiveUp;
            }
        }
        DualOutcome::GiveUp
    }

    // ------------------------------------------------------------------
    // Shared machinery.
    // ------------------------------------------------------------------

    fn bounds_crossed(&self) -> bool {
        (0..self.form.ncols()).any(|j| self.form.lower[j] > self.form.upper[j] + PRIMAL_TOL)
    }

    fn refactor_and_sync(&mut self) -> bool {
        if !self.factor.refactorize(&self.form.cols, &self.basic) {
            return false;
        }
        self.sync_basic_values();
        true
    }

    /// Recomputes the basic values exactly from the factorization:
    /// `x_B = B⁻¹ (b − N x_N)`.
    fn sync_basic_values(&mut self) {
        self.ybuf.copy_from_slice(&self.form.rhs);
        for j in 0..self.form.ncols() {
            if self.status[j] != VarStatus::Basic && self.x[j] != 0.0 {
                self.form.cols.scatter_col(j, -self.x[j], &mut self.ybuf);
            }
        }
        self.factor.ftran(&mut self.ybuf);
        for (i, &bj) in self.basic.iter().enumerate() {
            self.x[bj] = self.ybuf[i];
        }
    }

    fn extract(&self) -> LpSolution {
        let n = self.form.nstruct;
        let mut values = Vec::with_capacity(n);
        for j in 0..n {
            // Snap tiny drift back onto the box. Not `f64::clamp`: the entry
            // checks tolerate bounds that cross by up to ~1e-9, where `clamp`
            // would panic; `max().min()` resolves that case to the upper bound.
            values.push(self.x[j].max(self.form.lower[j]).min(self.form.upper[j]));
        }
        let objective = values
            .iter()
            .enumerate()
            .map(|(j, &v)| self.form.cost[j] * v)
            .sum();
        LpSolution {
            status: LpStatus::Optimal,
            objective,
            values,
        }
    }
}

/// Solves the LP relaxation of `problem` (integrality is ignored).
pub fn solve_lp(problem: &LpProblem) -> LpSolution {
    let lower: Vec<f64> = problem.variables.iter().map(|v| v.lower).collect();
    let upper: Vec<f64> = problem.variables.iter().map(|v| v.upper).collect();
    solve_lp_with_bounds(problem, &lower, &upper)
}

/// Solves the LP relaxation of `problem` with overridden variable bounds (used
/// by branch and bound). `lower`/`upper` must have one entry per variable.
pub fn solve_lp_with_bounds(problem: &LpProblem, lower: &[f64], upper: &[f64]) -> LpSolution {
    let n = problem.num_variables();
    assert_eq!(lower.len(), n);
    assert_eq!(upper.len(), n);
    if lower.iter().zip(upper).any(|(&l, &u)| l > u + 1e-9) {
        return LpSolution::infeasible();
    }
    RevisedSimplex::with_bounds(problem, lower, upper).solve()
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
        // max x + y  s.t. x + 2y <= 4, 3x + y <= 6 -> min -(x+y); optimum 14/5.
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
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -14.0 / 5.0);
        assert_close(sol.values[x.index()], 8.0 / 5.0);
        assert_close(sol.values[y.index()], 6.0 / 5.0);
    }

    #[test]
    fn equality_and_geq_constraints() {
        // min 2x + 3y  s.t. x + y = 10, x >= 4, y >= 2 -> x = 8, y = 2.
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
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[x.index()], 8.0);
        assert_close(sol.values[y.index()], 2.0);
        assert_close(sol.objective, 22.0);
    }

    #[test]
    fn variable_bounds_are_respected_without_extra_rows() {
        // min -x with 1 <= x <= 5 and *no constraints at all*.
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 1.0, 5.0, -1.0);
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[x.index()], 5.0);
        assert_close(sol.objective, -5.0);
        let mut p2 = LpProblem::new();
        let x2 = p2.add_continuous("x", 1.0, 5.0, 1.0);
        let sol2 = solve_lp(&p2);
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
        assert_eq!(solve_lp(&p).status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_problem_is_detected() {
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, f64::INFINITY, -1.0);
        p.add_constraint("c", LinExpr::term(x, -1.0), ConstraintSense::LessEqual, 1.0);
        assert_eq!(solve_lp(&p).status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_lower_bounds_are_handled() {
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", -5.0, 5.0, 1.0);
        p.add_constraint(
            "c",
            LinExpr::term(x, 1.0),
            ConstraintSense::GreaterEqual,
            -3.0,
        );
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[x.index()], -3.0);
    }

    #[test]
    fn free_variables_are_supported() {
        // min x with x free and x >= -7: optimum -7.
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_constraint(
            "c",
            LinExpr::term(x, 1.0),
            ConstraintSense::GreaterEqual,
            -7.0,
        );
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[x.index()], -7.0);
    }

    #[test]
    fn solve_with_overridden_bounds() {
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, 10.0, -1.0);
        let sol = solve_lp_with_bounds(&p, &[0.0], &[4.0]);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[x.index()], 4.0);
        let bad = solve_lp_with_bounds(&p, &[5.0], &[4.0]);
        assert_eq!(bad.status, LpStatus::Infeasible);
    }

    #[test]
    fn degenerate_problem_terminates() {
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
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -2.0);
    }

    #[test]
    fn lp_relaxation_of_binary_problem() {
        let mut p = LpProblem::new();
        let x = p.add_binary("x", -3.0);
        let y = p.add_binary("y", -2.0);
        p.add_constraint(
            "c",
            LinExpr::term(x, 2.0).plus(y, 2.0),
            ConstraintSense::LessEqual,
            3.0,
        );
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -4.0);
    }

    #[test]
    fn bounds_crossing_within_tolerance_does_not_panic() {
        // The entry checks tolerate a crossing of up to ~1e-9; extraction must
        // not panic on it (f64::clamp would).
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 5.0, 6.0, 1.0);
        let sol = solve_lp_with_bounds(&p, &[5.0 + 1e-10], &[5.0]);
        assert!(matches!(
            sol.status,
            LpStatus::Optimal | LpStatus::Infeasible
        ));
        if sol.status == LpStatus::Optimal {
            assert!((sol.values[x.index()] - 5.0).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_basis_resolves_after_a_bound_change() {
        // max x + y s.t. x + 2y <= 4, 3x + y <= 6; then branch x <= 1.
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
        let mut solver = RevisedSimplex::new(&p);
        let root = solver.solve();
        assert_eq!(root.status, LpStatus::Optimal);
        assert_close(root.objective, -14.0 / 5.0);
        let basis = solver.basis_snapshot();
        solver.set_structural_bounds(&[0.0, 0.0], &[1.0, f64::INFINITY]);
        let child = solver.solve_with_basis(&basis);
        assert_eq!(child.status, LpStatus::Optimal);
        // With x <= 1: y <= 1.5 from c1, objective -(1 + 1.5) = -2.5.
        assert_close(child.objective, -2.5);
        assert_close(child.values[x.index()], 1.0);
        assert_close(child.values[y.index()], 1.5);
    }

    #[test]
    fn warm_basis_detects_child_infeasibility() {
        // x + y >= 4 with x, y in [0, 1] after branching is infeasible.
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, 3.0, 1.0);
        let y = p.add_continuous("y", 0.0, 3.0, 1.0);
        p.add_constraint(
            "c",
            LinExpr::term(x, 1.0).plus(y, 1.0),
            ConstraintSense::GreaterEqual,
            4.0,
        );
        let mut solver = RevisedSimplex::new(&p);
        let root = solver.solve();
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = solver.basis_snapshot();
        solver.set_structural_bounds(&[0.0, 0.0], &[1.0, 1.0]);
        let child = solver.solve_with_basis(&basis);
        assert_eq!(child.status, LpStatus::Infeasible);
    }

    #[test]
    fn solve_from_feasible_point_skips_phase_one() {
        // Knapsack relaxation with a known feasible integral point.
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
        let mut solver = RevisedSimplex::new(&p);
        let sol = solver.solve_from_point(&[0.0, 1.0, 1.0]);
        assert_eq!(sol.status, LpStatus::Optimal);
        // LP optimum of the relaxation is -21 (x1 = 0, x2 = 1, x3 = 1 is integral
        // but the LP can do better: x1 fractional).
        assert!(sol.objective <= -20.0 - 1e-9);
    }

    #[test]
    fn a_pivot_budget_is_shared_by_later_solves_and_ends_in_an_iteration_limit() {
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
        let mut solver = RevisedSimplex::new(&p);
        assert_eq!(solver.pivots_left(), usize::MAX);
        solver.set_pivot_budget(100);
        assert_eq!(solver.solve().status, LpStatus::Optimal);
        let used = 100 - solver.pivots_left();
        assert!(used >= 2, "two columns enter: {used}");
        // The same solve with one pivot too few stops, and stays stopped.
        solver.set_pivot_budget(used - 1);
        assert_eq!(solver.solve().status, LpStatus::IterationLimit);
        assert_eq!(solver.pivots_left(), 0);
        assert_eq!(solver.solve().status, LpStatus::IterationLimit);
        solver.set_pivot_budget(used);
        assert_eq!(solver.solve().status, LpStatus::Optimal);
        assert_eq!(solver.pivots_left(), 0);
    }

    #[test]
    fn repeated_warm_solves_with_many_bound_changes_stay_consistent() {
        // Stress the eta file/refactorization: alternate bound tightenings and
        // verify against a cold solve every time.
        let mut p = LpProblem::new();
        let n = 12;
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_binary(format!("x{i}"), -((i % 5 + 1) as f64)))
            .collect();
        let mut cap = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            cap.add(v, ((i % 3) + 1) as f64);
        }
        p.add_constraint("cap", cap, ConstraintSense::LessEqual, 7.0);
        for w in vars.windows(2) {
            p.add_constraint(
                "chain",
                LinExpr::term(w[0], 1.0).plus(w[1], -1.0),
                ConstraintSense::LessEqual,
                1.0,
            );
        }
        let mut solver = RevisedSimplex::new(&p);
        let root = solver.solve();
        assert_eq!(root.status, LpStatus::Optimal);
        let mut basis = solver.basis_snapshot();
        let mut lower = vec![0.0; n];
        let mut upper = vec![1.0; n];
        for step in 0..n {
            if step % 2 == 0 {
                upper[step] = 0.0;
            } else {
                lower[step] = 1.0;
            }
            solver.set_structural_bounds(&lower, &upper);
            let warm = solver.solve_with_basis(&basis);
            let cold = solve_lp_with_bounds(&p, &lower, &upper);
            assert_eq!(warm.status, cold.status, "step {step}");
            if warm.status == LpStatus::Optimal {
                assert_close(warm.objective, cold.objective);
                basis = solver.basis_snapshot();
            } else {
                break;
            }
        }
    }
}
