//! The `solver` recorder: sparse revised simplex (warm-started branch and
//! bound) vs. the dense tableau oracle on representative MBSP ILP instances
//! (`BENCH_solver.json`).
//!
//! This is the benchmark trajectory of the repository: every future solver
//! change can be compared against the recorded numbers. Two instance families
//! are measured, matching the two roles the LP solver plays in the holistic
//! ILP path:
//!
//! * **exact MBSP formulations** (`MbspIlpBuilder`): the full pebbling ILP on
//!   small DAGs, warm-started from the two-stage baseline schedule as the
//!   paper warm-starts COPT;
//! * **acyclic bipartition ILPs** (`partition_ilp`-shaped): the cut-minimising
//!   binary programs the divide-and-conquer scheduler solves on every split,
//!   warm-started from the topological prefix split.
//!
//! A quick run solves smaller instances once instead of taking the median of
//! three. Gated on every row: `objectives_match`, `speedup` ≥ 1.

use crate::{field, geomean, Fields, Recorder};
use lp_solver::{BranchBoundSolver, LpProblem, MipStatus, SolverLimits};
use mbsp_cache::{ClairvoyantPolicy, TwoStageScheduler};
use mbsp_dag::graph::NodeWeights;
use mbsp_dag::CompDag;
use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_ilp::{Balance, IlpConfig, MbspIlpBuilder};
use mbsp_model::{Architecture, MbspInstance};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use serde::Serialize;
use std::time::Instant;

/// The `solver` recorder.
#[derive(Default)]
pub(crate) struct Solver;

/// One row of `BENCH_solver.json`.
#[derive(Debug, Default, Serialize)]
pub(crate) struct Row {
    name: String,
    variables: usize,
    constraints: usize,
    dense_ms: f64,
    sparse_ms: f64,
    speedup: f64,
    objectives_match: bool,
    sparse_nodes: usize,
    dense_nodes: usize,
}

/// One measured MIP: the same problem + warm start solved by the warm-started
/// sparse branch and bound and by the cold dense-relaxation baseline.
pub(crate) struct Case {
    name: String,
    problem: LpProblem,
    warm_start: Option<Vec<f64>>,
    limits: SolverLimits,
    /// Solves per path; the median wall-clock is recorded.
    reps: usize,
}

fn solver_limits(quick: bool) -> SolverLimits {
    SolverLimits {
        max_nodes: if quick { 2_000 } else { 20_000 },
        ..Default::default()
    }
}

/// The exact MBSP pebbling ILP on a small DAG, warm-started from the
/// two-stage baseline (greedy BSP + clairvoyant eviction), the role COPT plays
/// in the paper's exact experiments.
fn mbsp_case(
    name: &str,
    edges: &[(usize, usize)],
    processors: usize,
    time_steps: usize,
    quick: bool,
) -> Case {
    let dag = CompDag::from_edges(name, vec![NodeWeights::unit(); 4], edges).expect("acyclic");
    let instance = MbspInstance::new(dag, Architecture::new(processors, 3.0, 1.0, 0.0));
    let config = IlpConfig {
        time_steps,
        allow_recompute: true,
        limits: solver_limits(quick),
    };
    let builder = MbspIlpBuilder::build(&instance, &config);
    let (dag, arch) = (instance.dag(), instance.arch());
    let bsp = GreedyBspScheduler::new().schedule(dag, arch);
    let two_stage = TwoStageScheduler::new().schedule(dag, arch, &bsp, &ClairvoyantPolicy::new());
    let warm_start = builder.warm_start_from_schedule(dag, arch, &two_stage);
    Case {
        name: format!("mbsp_ilp/{name}_p{processors}"),
        warm_start,
        limits: config.limits,
        problem: builder.problem,
        reps: if quick { 1 } else { 3 },
    }
}

/// Median-of-`reps` wall-clock of a solve.
fn time_solve(case: &Case, dense: bool) -> (f64, f64, MipStatus, usize) {
    let mut times = Vec::with_capacity(case.reps);
    let mut objective = f64::INFINITY;
    let mut status = MipStatus::LimitReached;
    let mut nodes = 0;
    for _ in 0..case.reps {
        let mut solver = BranchBoundSolver::with_limits(case.limits).with_dense_relaxation(dense);
        if let Some(ws) = &case.warm_start {
            solver = solver.with_warm_start(ws.clone());
        }
        let t0 = Instant::now();
        let solution = solver.solve(&case.problem);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        objective = solution.objective;
        status = solution.status;
        nodes = solution.nodes_explored;
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], objective, status, nodes)
}

impl Recorder for Solver {
    type Instance = Case;
    type Row = Row;
    const NAME: &'static str = "solver";
    const BENCHMARK: &'static str =
        "lp_solver: warm-started sparse revised simplex vs dense tableau";
    const FLAGS: &'static [&'static str] = &["objectives_match"];
    const SPEEDUPS: &'static [&'static str] = &["speedup"];
    const TIMINGS: &'static [&'static str] = &["dense_ms", "sparse_ms"];

    fn instances(&self, quick: bool) -> Vec<Case> {
        // Exact pebbling ILPs (the paper's exact-solver role).
        let mut cases = vec![mbsp_case("path4", &[(0, 1), (1, 2), (2, 3)], 1, 8, quick)];
        if !quick {
            let diamond = [(0, 1), (0, 2), (1, 3), (2, 3)];
            cases.push(mbsp_case("diamond", &diamond, 2, 6, quick));
        }
        // The acyclic-bipartition ILP of the divide-and-conquer path, built by
        // the same `mbsp_ilp::bipartition_model` the production scheduler uses
        // (so the benchmark cannot drift from the real formulation) and
        // warm-started from the topological prefix split.
        let (layers, width) = if quick { (4, 5) } else { (5, 7) };
        let layered = random_layered_dag(
            &RandomDagConfig {
                layers,
                width,
                edge_probability: 0.3,
                ..Default::default()
            },
            7,
        );
        let unit = vec![1.0; layered.num_edges()];
        let (problem, warm) = mbsp_ilp::bipartition_model(&layered, &unit, &Balance::Thirds);
        cases.push(Case {
            name: format!("bipartition/layered{}", layers * width),
            problem,
            warm_start: Some(warm),
            limits: solver_limits(quick),
            reps: if quick { 1 } else { 3 },
        });
        cases
    }

    fn name(case: &Case) -> &str {
        &case.name
    }

    fn measure(&self, case: &Case) -> Row {
        let (sparse_ms, sparse_obj, sparse_status, sparse_nodes) = time_solve(case, false);
        let (dense_ms, dense_obj, dense_status, dense_nodes) = time_solve(case, true);
        let objectives_match = sparse_status == dense_status
            && (!matches!(sparse_status, MipStatus::Optimal | MipStatus::Feasible)
                || (sparse_obj - dense_obj).abs() <= 1e-5 * (1.0 + dense_obj.abs()));
        Row {
            name: case.name.clone(),
            variables: case.problem.num_variables(),
            constraints: case.problem.num_constraints(),
            dense_ms,
            sparse_ms,
            speedup: dense_ms / sparse_ms.max(1e-6),
            objectives_match,
            sparse_nodes,
            dense_nodes,
        }
    }

    fn summary(&self, rows: &[Row]) -> Fields {
        let speedup = geomean(rows.iter().map(|r| r.speedup));
        vec![field("geomean_speedup", speedup)]
    }
}
