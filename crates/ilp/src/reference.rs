//! The holistic search's ground truth, reached by name: the pre-engine
//! evaluation of one candidate, kept as the oracle of the differential tests.
//!
//! A candidate is evaluated here exactly as the first holistic search did it:
//! the canonical BSP structure is materialised ([`canonical_bsp`]), a freshly
//! allocated converter turns it into an MBSP schedule
//! (`mbsp_cache::two_stage::reference::convert`), [`post_optimize`] folds
//! supersteps by validating a full copy of the schedule per attempt, and the
//! cost is a full re-cost. [`crate::engine::EvaluationEngine`] must produce
//! the same schedule at the same cost for every candidate; the engine's
//! unit tests and `tests/differential_eval.rs` assert it. No search runs on
//! this path, so it has no switch: the workspace convention of one
//! implementation plus one oracle called by name (`lp_solver::dense`,
//! `mbsp_cache::two_stage::reference`, `mbsp_sched::reference`).

use crate::improver::{canonical_bsp, fold_superstep, remove_redundant_saves_into};
use mbsp_cache::{two_stage, ClairvoyantPolicy};
use mbsp_dag::{DagLike, NodeId};
use mbsp_model::{Architecture, CostModel, MbspSchedule, ProcId};
use mbsp_sched::BspSchedulingResult;

/// Evaluates a per-node processor assignment: its canonical superstep
/// structure with ties broken in `order` (the engine's tie order), converted
/// under the clairvoyant policy and post-optimised. Returns the schedule and
/// its cost under `cost_model`.
pub fn evaluate_assignment<D: DagLike + ?Sized>(
    dag: &D,
    arch: &Architecture,
    procs: &[ProcId],
    order: &[NodeId],
    cost_model: CostModel,
    required_outputs: &[NodeId],
) -> (MbspSchedule, f64) {
    let bsp = canonical_bsp(dag, arch, procs, order);
    evaluate_bsp(dag, arch, &bsp, cost_model, required_outputs)
}

/// Evaluates an explicit BSP scheduling result the way
/// [`evaluate_assignment`] evaluates a canonical one.
pub fn evaluate_bsp<D: DagLike + ?Sized>(
    dag: &D,
    arch: &Architecture,
    bsp: &BspSchedulingResult,
    cost_model: CostModel,
    required_outputs: &[NodeId],
) -> (MbspSchedule, f64) {
    let policy = ClairvoyantPolicy::new();
    let mut schedule = two_stage::reference::convert(dag, arch, bsp, &policy, required_outputs);
    post_optimize(&mut schedule, dag, arch, cost_model, required_outputs);
    let cost = cost_model.evaluate(&schedule, dag, arch);
    (schedule, cost)
}

/// The pre-engine post-optimisation pass: every merge candidate materialises a
/// folded copy of the whole schedule and validates it from scratch, and the
/// final cost requires a separate full re-cost by the caller. The folds it
/// takes are those of [`crate::improver::PostOptimizer::optimize`].
pub fn post_optimize<D: DagLike + ?Sized>(
    schedule: &mut MbspSchedule,
    dag: &D,
    arch: &Architecture,
    cost_model: CostModel,
    required_outputs: &[NodeId],
) {
    let n = dag.num_nodes();
    let (mut required, mut last_load) = (vec![false; n], vec![None; n]);
    remove_redundant_saves_into(
        schedule,
        dag,
        required_outputs,
        &mut required,
        &mut last_load,
    );
    schedule.remove_empty_supersteps();
    merge_supersteps(schedule, dag, arch, cost_model);
}

/// The pre-engine greedy superstep merging: per-superstep phase costs are
/// built afresh per call (and a merged superstep's from its phase lists),
/// every accepted candidate is validated by simulating the whole folded
/// schedule, and candidate construction goes through a scratch clone.
fn merge_supersteps<D: DagLike + ?Sized>(
    schedule: &mut MbspSchedule,
    dag: &D,
    arch: &Architecture,
    cost_model: CostModel,
) {
    let p = schedule.processors();
    let mut scratch = MbspSchedule::new(p);
    match cost_model {
        CostModel::Synchronous => {
            // Per-superstep, per-processor phase costs.
            let mut comp: Vec<Vec<f64>> = Vec::with_capacity(schedule.num_supersteps());
            let mut save: Vec<Vec<f64>> = Vec::with_capacity(schedule.num_supersteps());
            let mut load: Vec<Vec<f64>> = Vec::with_capacity(schedule.num_supersteps());
            for step in schedule.supersteps() {
                comp.push(step.procs().map(|ph| ph.compute_cost(dag)).collect());
                save.push(step.procs().map(|ph| ph.save_cost(dag, arch.g)).collect());
                load.push(step.procs().map(|ph| ph.load_cost(dag, arch.g)).collect());
            }
            let maxima = |row: &[f64]| row.iter().copied().fold(0.0f64, f64::max);
            let mut k = 0usize;
            while k + 1 < schedule.num_supersteps() {
                // Synchronous cost of the two steps separately vs merged; all
                // other supersteps are untouched by the fold.
                let separate = maxima(&comp[k])
                    + maxima(&save[k])
                    + maxima(&load[k])
                    + maxima(&comp[k + 1])
                    + maxima(&save[k + 1])
                    + maxima(&load[k + 1])
                    + arch.latency;
                let merged_comp = (0..p)
                    .map(|pi| comp[k][pi] + comp[k + 1][pi])
                    .fold(0.0f64, f64::max);
                let merged_save = (0..p)
                    .map(|pi| save[k][pi] + save[k + 1][pi])
                    .fold(0.0f64, f64::max);
                let merged_load = (0..p)
                    .map(|pi| load[k][pi] + load[k + 1][pi])
                    .fold(0.0f64, f64::max);
                let merged = merged_comp + merged_save + merged_load;
                if merged <= separate + 1e-9 {
                    scratch.clone_from(schedule);
                    fold_superstep(&mut scratch, k);
                    if scratch.validate(dag, arch).is_ok() {
                        std::mem::swap(schedule, &mut scratch);
                        // The merged superstep's costs, from its phase lists.
                        let step = schedule.superstep(k);
                        comp[k] = step.procs().map(|ph| ph.compute_cost(dag)).collect();
                        save[k] = step.procs().map(|ph| ph.save_cost(dag, arch.g)).collect();
                        load[k] = step.procs().map(|ph| ph.load_cost(dag, arch.g)).collect();
                        comp.remove(k + 1);
                        save.remove(k + 1);
                        load.remove(k + 1);
                        // Stay at the same index: further merges may now be possible.
                        continue;
                    }
                }
                k += 1;
            }
        }
        CostModel::Asynchronous => {
            let mut current_cost = cost_model.evaluate(schedule, dag, arch);
            let mut k = 0usize;
            while k + 1 < schedule.num_supersteps() {
                scratch.clone_from(schedule);
                fold_superstep(&mut scratch, k);
                if scratch.validate(dag, arch).is_ok() {
                    let cost = cost_model.evaluate(&scratch, dag, arch);
                    if cost <= current_cost + 1e-9 {
                        std::mem::swap(schedule, &mut scratch);
                        current_cost = cost;
                        continue;
                    }
                }
                k += 1;
            }
        }
    }
}
