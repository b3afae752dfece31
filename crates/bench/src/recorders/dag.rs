//! The `dag` recorder: the flattened hot paths (CSR adjacency, bitset pebbles,
//! scratch-based schedulers, arena conversion, incremental evaluation) against
//! the retained nested-Vec/clone-and-recost reference paths, end to end, on
//! large generated instances (`BENCH_dag.json`).
//!
//! The measured pipeline is the full production sequence per instance:
//!
//! 1. **two-stage schedule** — greedy BSP scheduling (scratch-reusing fast path
//!    vs. [`mbsp_sched::reference::greedy_reference`]) plus the BSP→MBSP
//!    conversion and post-optimisation through an
//!    [`mbsp_ilp::EvaluationEngine`] (`EvalPath::Incremental` vs.
//!    `EvalPath::Reference`, i.e. arena + incremental deltas vs. fresh
//!    converter + full re-cost);
//! 2. **engine eval batch** — a fixed, deterministic batch of single-node
//!    relocation candidates evaluated through the same engine.
//!
//! Both paths are operation-identical: the BSP schedules, every candidate cost
//! and every materialised MBSP schedule must agree exactly (`costs_match`). The
//! recorded metric is pipeline evaluations per second (schedule + baseline
//! conversion + batch, normalised by the batch size) and the fast/reference
//! speedup, with the geometric mean as the headline.
//!
//! A quick run takes two small layered DAGs. Gated on every row:
//! `costs_match`, `speedup` ≥ 1.

use crate::{field, geomean, large_or_quick, paper_instance, Fields, Recorder};
use mbsp_gen::NamedInstance;
use mbsp_ilp::{EvalPath, EvaluationEngine};
use mbsp_model::{CostModel, MbspInstance, MbspSchedule, ProcId};
use mbsp_sched::{reference, BspScheduler, GreedyBspScheduler, SchedulerScratch};
use serde::Serialize;
use std::time::Instant;

/// The `dag` recorder.
#[derive(Default)]
pub(crate) struct Dag;

/// One row of `BENCH_dag.json`.
#[derive(Debug, Default, Serialize)]
pub(crate) struct Row {
    name: String,
    nodes: usize,
    edges: usize,
    pipeline_evals: usize,
    fast_seconds: f64,
    reference_seconds: f64,
    fast_evals_per_sec: f64,
    reference_evals_per_sec: f64,
    speedup: f64,
    fast_cost: f64,
    reference_cost: f64,
    costs_match: bool,
}

/// A dataset instance with the size of its candidate batch.
pub(crate) struct Case {
    named: NamedInstance,
    batch: usize,
}

/// The deterministic candidate batch: relocate `k` spread-out non-source nodes,
/// one at a time, to the next processor. Both paths evaluate the identical list.
fn candidate_assignments(
    instance: &MbspInstance,
    base: &[ProcId],
    batch: usize,
) -> Vec<Vec<ProcId>> {
    let dag = instance.dag();
    let p = instance.arch().processors;
    let movable: Vec<usize> = dag
        .nodes()
        .filter(|&v| !dag.is_source(v))
        .map(|v| v.index())
        .collect();
    (0..batch)
        .map(|k| {
            let i = movable[(k * movable.len()) / batch.max(1)];
            let mut procs = base.to_vec();
            procs[i] = ProcId::new((procs[i].index() + 1) % p);
            procs
        })
        .collect()
}

/// What one pipeline run produced: the timed seconds and everything the two
/// paths must agree on.
struct Pipeline {
    seconds: f64,
    costs: Vec<f64>,
    schedules: Vec<MbspSchedule>,
    bsp: mbsp_sched::BspSchedulingResult,
}

/// One full pipeline run: schedule, convert + post-optimise the baseline, then
/// evaluate the candidate batch.
fn run_pipeline(instance: &MbspInstance, path: EvalPath, batch: usize) -> Pipeline {
    // Only the pipeline stages themselves are timed; the per-candidate schedule
    // clones that feed the costs_match comparison and the progress logging stay
    // outside the measured window.
    let mut seconds = 0.0f64;
    let stage = Instant::now();
    let bsp = match path {
        EvalPath::Incremental => {
            let mut scratch = SchedulerScratch::new();
            GreedyBspScheduler::new().schedule_with_scratch(
                instance.dag(),
                instance.arch(),
                &mut scratch,
            )
        }
        EvalPath::Reference => reference::greedy_reference(instance.dag(), instance.arch()),
    };
    seconds += stage.elapsed().as_secs_f64();
    let base: Vec<ProcId> = instance
        .dag()
        .nodes()
        .map(|v| bsp.schedule.proc_of(v))
        .collect();
    let candidates = candidate_assignments(instance, &base, batch);
    let (dag, arch) = (instance.dag(), instance.arch());
    let mut engine = EvaluationEngine::new(instance, path);
    let mut costs = Vec::with_capacity(batch + 1);
    let mut schedules = Vec::with_capacity(batch + 1);
    let stage = Instant::now();
    costs.push(engine.evaluate_bsp_on(dag, arch, &bsp, CostModel::Synchronous, &[]));
    seconds += stage.elapsed().as_secs_f64();
    schedules.push(engine.schedule().clone());
    for (i, procs) in candidates.iter().enumerate() {
        let stage = Instant::now();
        costs.push(engine.evaluate_assignment_on(dag, arch, procs, CostModel::Synchronous, &[]));
        seconds += stage.elapsed().as_secs_f64();
        schedules.push(engine.schedule().clone());
        eprintln!(
            "    [{path:?}] candidate {}/{batch} done: {seconds:.2}s",
            i + 1
        );
    }
    Pipeline {
        seconds,
        costs,
        schedules,
        bsp,
    }
}

impl Recorder for Dag {
    type Instance = Case;
    type Row = Row;
    const NAME: &'static str = "dag";
    const BENCHMARK: &'static str =
        "dag substrate: CSR/bitset/scratch pipeline vs nested-Vec reference paths";
    const FLAGS: &'static [&'static str] = &["costs_match"];
    const SPEEDUPS: &'static [&'static str] = &["speedup"];
    const TIMINGS: &'static [&'static str] = &["fast_seconds", "reference_seconds"];

    fn instances(&self, quick: bool) -> Vec<Case> {
        // The eval batch scales down on the largest instances: the *reference*
        // path re-converts and re-costs the whole 100k-node schedule per
        // candidate, which is exactly the cost this benchmark documents.
        let case = |named: NamedInstance| Case {
            batch: if quick || named.dag.num_nodes() >= 50_000 {
                2
            } else {
                4
            },
            named,
        };
        large_or_quick(quick, [(10, 40, 0.1, 7), (20, 50, 0.08, 8)])
            .into_iter()
            .map(case)
            .collect()
    }

    fn name(case: &Case) -> &str {
        &case.named.name
    }

    fn measure(&self, case: &Case) -> Row {
        let instance = paper_instance(&case.named);
        let fast = run_pipeline(&instance, EvalPath::Incremental, case.batch);
        let slow = run_pipeline(&instance, EvalPath::Reference, case.batch);
        let costs_match = fast.bsp.schedule == slow.bsp.schedule
            && fast.bsp.order == slow.bsp.order
            && fast.costs.len() == slow.costs.len()
            && fast
                .costs
                .iter()
                .zip(&slow.costs)
                .all(|(a, b)| (a - b).abs() <= 1e-9 * (1.0 + b.abs()))
            && fast.schedules == slow.schedules;
        let evals = case.batch + 1;
        Row {
            name: case.named.name.clone(),
            nodes: instance.dag().num_nodes(),
            edges: instance.dag().num_edges(),
            pipeline_evals: evals,
            fast_seconds: fast.seconds,
            reference_seconds: slow.seconds,
            fast_evals_per_sec: evals as f64 / fast.seconds.max(1e-9),
            reference_evals_per_sec: evals as f64 / slow.seconds.max(1e-9),
            speedup: slow.seconds / fast.seconds.max(1e-9),
            fast_cost: *fast.costs.last().expect("baseline cost"),
            reference_cost: *slow.costs.last().expect("baseline cost"),
            costs_match,
        }
    }

    fn summary(&self, rows: &[Row]) -> Fields {
        let speedup = geomean(rows.iter().map(|r| r.speedup));
        vec![field("geomean_speedup", speedup)]
    }
}
