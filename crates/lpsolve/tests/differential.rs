//! Differential property tests: the sparse revised simplex against the dense
//! tableau oracle.
//!
//! The two solvers share no pivoting code — the revised simplex works on a CSC
//! standard form with native bound handling, LU+eta basis updates and partial
//! pricing, while the dense oracle shifts variables, materializes bound rows
//! and sweeps a full tableau — so agreement on hundreds of seeded random
//! problems is strong evidence that both are correct. Every instance is
//! deterministic (ChaCha8 streams keyed by a fixed seed), so a failure here is
//! a reproducible counterexample.

use lp_solver::dense::{solve_lp_dense, solve_lp_dense_with_bounds};
use lp_solver::{
    solve_lp, solve_lp_with_bounds, BranchBoundSolver, ConstraintSense, LinExpr, LpProblem,
    LpStatus, MipStatus, SolverLimits, VarId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Number of random bounded LPs in the pure-LP sweep.
const NUM_LPS: usize = 140;
/// Number of MBSP-shaped random ILPs in the MIP sweep.
const NUM_ILPS: usize = 60;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A random bounded LP: finite lower bounds (the dense oracle shifts by them),
/// a mix of finite and infinite uppers, random sparse rows of all three senses.
fn random_lp(rng: &mut ChaCha8Rng) -> LpProblem {
    let n = rng.gen_range(2..=12usize);
    let m = rng.gen_range(1..=10usize);
    let mut p = LpProblem::new();
    let mut vars = Vec::with_capacity(n);
    for j in 0..n {
        let lower = if rng.gen_bool(0.3) {
            rng.gen_range(-5.0..0.0)
        } else {
            0.0
        };
        let upper = if rng.gen_bool(0.3) {
            f64::INFINITY
        } else {
            lower + rng.gen_range(0.5..8.0)
        };
        let objective = (rng.gen_range(-10.0..10.0f64) * 2.0).round() / 2.0;
        vars.push(p.add_continuous(format!("x{j}"), lower, upper, objective));
    }
    for i in 0..m {
        let mut expr = LinExpr::new();
        let mut nonzero = false;
        for &v in &vars {
            if rng.gen_bool(0.45) {
                let a = (rng.gen_range(-5.0..5.0f64)).round();
                if a != 0.0 {
                    expr.add(v, a);
                    nonzero = true;
                }
            }
        }
        if !nonzero {
            expr.add(vars[rng.gen_range(0..n)], 1.0);
        }
        let sense = match rng.gen_range(0..10u32) {
            0..=5 => ConstraintSense::LessEqual,
            6..=8 => ConstraintSense::GreaterEqual,
            _ => ConstraintSense::Equal,
        };
        let rhs = (rng.gen_range(-12.0..12.0f64)).round();
        p.add_constraint(format!("c{i}"), expr, sense, rhs);
    }
    p
}

/// Checks a claimed-optimal revised solution for primal feasibility.
fn assert_primal_feasible(p: &LpProblem, values: &[f64], tag: &str) {
    for (j, v) in p.variables.iter().enumerate() {
        assert!(
            values[j] >= v.lower - 1e-6 && values[j] <= v.upper + 1e-6,
            "{tag}: variable {j} = {} outside [{}, {}]",
            values[j],
            v.lower,
            v.upper
        );
    }
    for c in &p.constraints {
        assert!(
            c.is_satisfied(values, 1e-5),
            "{tag}: constraint {} violated",
            c.name
        );
    }
}

fn assert_lp_agreement(p: &LpProblem, seed_tag: &str) {
    let sparse = solve_lp(p);
    let dense = solve_lp_dense(p);
    // The dense oracle can hit its iteration limit where the revised simplex
    // converges (or vice versa); only hard statuses must agree.
    if sparse.status == LpStatus::IterationLimit || dense.status == LpStatus::IterationLimit {
        return;
    }
    assert_eq!(sparse.status, dense.status, "{seed_tag}: status mismatch");
    if sparse.status == LpStatus::Optimal {
        let scale = 1.0 + dense.objective.abs();
        assert!(
            (sparse.objective - dense.objective).abs() <= 1e-5 * scale,
            "{seed_tag}: objective {} (sparse) vs {} (dense)",
            sparse.objective,
            dense.objective
        );
        assert_primal_feasible(p, &sparse.values, seed_tag);
    }
}

#[test]
fn random_bounded_lps_match_the_dense_oracle() {
    let mut r = rng(0xD1FF_0001);
    for k in 0..NUM_LPS {
        let p = random_lp(&mut r);
        assert_lp_agreement(&p, &format!("lp[{k}]"));
    }
}

#[test]
fn random_lps_with_tightened_bounds_match_the_dense_oracle() {
    // Exercise the solve_lp_with_bounds path (what branch and bound does).
    let mut r = rng(0xD1FF_0002);
    for k in 0..30 {
        let p = random_lp(&mut r);
        let n = p.num_variables();
        let mut lower: Vec<f64> = p.variables.iter().map(|v| v.lower).collect();
        let mut upper: Vec<f64> = p.variables.iter().map(|v| v.upper).collect();
        // Tighten a couple of random variables to a sub-box.
        for _ in 0..2 {
            let j = r.gen_range(0..n);
            if upper[j].is_finite() {
                let mid = lower[j] + (upper[j] - lower[j]) * r.gen_range(0.2..0.8);
                if r.gen_bool(0.5) {
                    upper[j] = mid;
                } else {
                    lower[j] = mid;
                }
            }
        }
        let sparse = solve_lp_with_bounds(&p, &lower, &upper);
        let dense = solve_lp_dense_with_bounds(&p, &lower, &upper);
        if sparse.status == LpStatus::IterationLimit || dense.status == LpStatus::IterationLimit {
            continue;
        }
        assert_eq!(sparse.status, dense.status, "bounded lp[{k}]");
        if sparse.status == LpStatus::Optimal {
            let scale = 1.0 + dense.objective.abs();
            assert!(
                (sparse.objective - dense.objective).abs() <= 1e-5 * scale,
                "bounded lp[{k}]: {} vs {}",
                sparse.objective,
                dense.objective
            );
        }
    }
}

/// An MBSP-shaped random ILP: binary `x[v][t]` variables on a node × time grid
/// with "computed exactly/at most once" rows, precedence rows (`v` can run at
/// `t` only after its parent ran strictly earlier) and per-step capacity rows —
/// the structural skeleton of the paper's scheduling formulation.
fn random_mbsp_ilp(rng: &mut ChaCha8Rng) -> LpProblem {
    let nodes = rng.gen_range(3..=6usize);
    let steps = rng.gen_range(3..=4usize);
    let mut p = LpProblem::new();
    let mut x = vec![vec![VarId(0); steps]; nodes];
    for (v, row) in x.iter_mut().enumerate() {
        for (t, slot) in row.iter_mut().enumerate() {
            // Cost favours early, cheap steps with some noise.
            let cost = rng.gen_range(0.0..4.0f64).round() + t as f64;
            *slot = p.add_binary(format!("x_{v}_{t}"), cost);
        }
    }
    for (v, row) in x.iter().enumerate() {
        let mut once = LinExpr::new();
        for &var in row {
            once.add(var, 1.0);
        }
        // Most nodes must run; some are optional with negative profit.
        if rng.gen_bool(0.8) {
            p.add_constraint(format!("run{v}"), once, ConstraintSense::Equal, 1.0);
        } else {
            p.add_constraint(format!("opt{v}"), once, ConstraintSense::LessEqual, 1.0);
        }
    }
    // Precedence chains: node v depends on v-1 for a random subset.
    for v in 1..nodes {
        if rng.gen_bool(0.6) {
            for t in 0..steps {
                let mut expr = LinExpr::term(x[v][t], 1.0);
                for t2 in 0..t {
                    expr.add(x[v - 1][t2], -1.0);
                }
                p.add_constraint(
                    format!("prec{v}_{t}"),
                    expr,
                    ConstraintSense::LessEqual,
                    0.0,
                );
            }
        }
    }
    // Per-step capacity (the one-op-per-processor analogue).
    let cap = rng.gen_range(1..=2u32) as f64;
    for t in 0..steps {
        let mut expr = LinExpr::new();
        for row in &x {
            expr.add(row[t], 1.0);
        }
        p.add_constraint(format!("cap{t}"), expr, ConstraintSense::LessEqual, cap);
    }
    p
}

#[test]
fn mbsp_shaped_ilps_match_the_dense_oracle_through_branch_and_bound() {
    let mut r = rng(0xD1FF_0003);
    let limits = SolverLimits {
        max_nodes: 20_000,
        ..Default::default()
    };
    for k in 0..NUM_ILPS {
        let p = random_mbsp_ilp(&mut r);
        let sparse = BranchBoundSolver::with_limits(limits).solve(&p);
        let dense = BranchBoundSolver::with_limits(limits)
            .with_dense_relaxation(true)
            .solve(&p);
        assert_eq!(sparse.status, dense.status, "ilp[{k}]: status mismatch");
        if sparse.status == MipStatus::Optimal {
            assert!(
                (sparse.objective - dense.objective).abs() <= 1e-5 * (1.0 + dense.objective.abs()),
                "ilp[{k}]: objective {} (sparse) vs {} (dense)",
                sparse.objective,
                dense.objective
            );
            assert!(
                p.is_feasible(&sparse.values, 1e-5),
                "ilp[{k}]: infeasible incumbent"
            );
        }
    }
}

#[test]
fn degenerate_lps_with_duplicated_rows_agree() {
    // Heavy degeneracy: many identical and parallel rows create ties in every
    // ratio test; both solvers must still terminate and agree.
    let mut r = rng(0xD1FF_0004);
    for k in 0..15 {
        let n = r.gen_range(3..=6usize);
        let mut p = LpProblem::new();
        let vars: Vec<VarId> = (0..n)
            .map(|j| p.add_continuous(format!("x{j}"), 0.0, 4.0, -((j % 3) as f64) - 1.0))
            .collect();
        let mut base = LinExpr::new();
        for &v in &vars {
            base.add(v, 1.0);
        }
        for c in 0..6 {
            p.add_constraint(
                format!("dup{c}"),
                base.clone(),
                ConstraintSense::LessEqual,
                6.0,
            );
        }
        for (j, &v) in vars.iter().enumerate() {
            p.add_constraint(
                format!("cap{j}"),
                LinExpr::term(v, 1.0),
                ConstraintSense::LessEqual,
                3.0,
            );
        }
        assert_lp_agreement(&p, &format!("degenerate[{k}]"));
    }
}

#[test]
fn refactorization_stress_long_pivot_chains_agree() {
    // Large enough that the eta file must be refactorized several times within
    // one solve (the refactorization interval is 64 updates).
    let mut r = rng(0xD1FF_0005);
    let n = 90;
    let mut p = LpProblem::new();
    let vars: Vec<VarId> = (0..n)
        .map(|j| {
            let c = -(1.0 + (j % 7) as f64) + r.gen_range(-0.25..0.25);
            p.add_continuous(format!("x{j}"), 0.0, 2.0, c)
        })
        .collect();
    // Coupled chain rows force long pivot sequences.
    for j in 0..n - 1 {
        p.add_constraint(
            format!("chain{j}"),
            LinExpr::term(vars[j], 1.0).plus(vars[j + 1], 1.0),
            ConstraintSense::LessEqual,
            3.0,
        );
    }
    let mut all = LinExpr::new();
    for &v in &vars {
        all.add(v, 1.0);
    }
    p.add_constraint("total", all, ConstraintSense::LessEqual, 0.6 * n as f64);
    assert_lp_agreement(&p, "refactor-stress");
}

#[test]
fn infeasible_and_unbounded_families_agree() {
    let mut r = rng(0xD1FF_0006);
    for k in 0..20 {
        // Infeasible: x + y >= big with tight boxes.
        let mut p = LpProblem::new();
        let x = p.add_continuous("x", 0.0, 1.0, r.gen_range(-2.0..2.0));
        let y = p.add_continuous("y", 0.0, 1.0, r.gen_range(-2.0..2.0));
        p.add_constraint(
            "sum",
            LinExpr::term(x, 1.0).plus(y, 1.0),
            ConstraintSense::GreaterEqual,
            2.5 + r.gen_range(0.0..3.0),
        );
        assert_lp_agreement(&p, &format!("infeasible[{k}]"));

        // Unbounded: a cost ray with no upper bound.
        let mut q = LpProblem::new();
        let u = q.add_continuous("u", 0.0, f64::INFINITY, -1.0);
        let w = q.add_continuous("w", 0.0, f64::INFINITY, r.gen_range(0.0..1.0));
        q.add_constraint(
            "link",
            LinExpr::term(u, -1.0).plus(w, 1.0),
            ConstraintSense::LessEqual,
            r.gen_range(0.0..4.0),
        );
        assert_lp_agreement(&q, &format!("unbounded[{k}]"));
    }
}

#[test]
fn the_random_ilp_family_contains_both_feasible_and_infeasible_instances() {
    let mut r = rng(0xD1FF_0003);
    let limits = SolverLimits {
        max_nodes: 20_000,
        ..Default::default()
    };
    let mut optimal = 0;
    let mut infeasible = 0;
    for _ in 0..NUM_ILPS {
        let p = random_mbsp_ilp(&mut r);
        match BranchBoundSolver::with_limits(limits).solve(&p).status {
            MipStatus::Optimal => optimal += 1,
            MipStatus::Infeasible => infeasible += 1,
            _ => {}
        }
    }
    assert!(
        optimal >= 10,
        "only {optimal} optimal instances — family too degenerate"
    );
    assert!(infeasible >= 3, "only {infeasible} infeasible instances");
}
