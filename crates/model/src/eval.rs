//! Incremental evaluation of synchronous schedule costs.
//!
//! The holistic local search evaluates thousands of candidate schedules, and the
//! post-optimiser considers every adjacent superstep pair for merging. Re-costing a
//! whole schedule for each of those decisions is wasteful: under the synchronous
//! model the cost decomposes into a sum of per-superstep terms
//! `max_p comp + max_p save + max_p load + L`, so any local edit only invalidates
//! the terms of the touched supersteps.
//!
//! [`ScheduleEvaluator`] caches the per-superstep, per-processor phase costs of a
//! schedule together with the per-superstep maxima, and exposes O(changed
//! supersteps) updates: appending a superstep, or folding a superstep into the
//! next one inside a merge session (the post-optimiser's merge move). The
//! ground truth remains [`crate::cost::sync_cost`] / [`crate::cost::async_cost`];
//! the differential tests in `mbsp-ilp` replay random edit sequences and assert
//! that the evaluator never drifts from a full re-cost.
//!
//! The asynchronous makespan has no per-superstep decomposition (a load may wait on
//! a save arbitrarily far in the past), so asynchronous evaluation intentionally
//! stays on the reference path.

use crate::arch::Architecture;
use crate::schedule::{MbspSchedule, SuperstepView};
use mbsp_dag::DagLike;

/// Cached per-superstep, per-processor phase costs of a schedule under the
/// synchronous cost model, supporting O(changed supersteps) re-evaluation.
///
/// The evaluator is a plain cache: it does not hold a reference to the schedule it
/// mirrors, so the caller is responsible for keeping it in sync (every structural
/// schedule edit must be paired with the corresponding evaluator update). All
/// buffers are reused across [`ScheduleEvaluator::rebuild`] calls, so one evaluator
/// can serve an entire candidate-evaluation loop without allocating.
#[derive(Debug, Clone, Default)]
pub struct ScheduleEvaluator {
    procs: usize,
    g: f64,
    latency: f64,
    /// Per-superstep, per-processor phase costs, flattened as `step * procs + p`.
    comp: Vec<f64>,
    save: Vec<f64>,
    load: Vec<f64>,
    /// Per-superstep maxima over processors.
    max_comp: Vec<f64>,
    max_save: Vec<f64>,
    max_load: Vec<f64>,
    /// Per-superstep liveness of the current merge session; rows of
    /// folded-away supersteps go dead instead of being drained.
    alive: Vec<bool>,
    /// Rows folded away in the current merge session.
    folded: usize,
}

impl ScheduleEvaluator {
    /// Creates an empty evaluator for `arch` (no supersteps cached yet).
    pub fn new(arch: &Architecture) -> Self {
        ScheduleEvaluator {
            procs: arch.processors,
            g: arch.g,
            latency: arch.latency,
            ..Default::default()
        }
    }

    /// Builds the cache for `schedule` in one pass.
    pub fn of<D: DagLike + ?Sized>(schedule: &MbspSchedule, dag: &D, arch: &Architecture) -> Self {
        let mut eval = ScheduleEvaluator::new(arch);
        eval.rebuild(schedule, dag);
        eval
    }

    /// Rebuilds the cache for `schedule`, reusing all allocations.
    pub fn rebuild<D: DagLike + ?Sized>(&mut self, schedule: &MbspSchedule, dag: &D) {
        debug_assert_eq!(schedule.processors(), self.procs);
        self.comp.clear();
        self.save.clear();
        self.load.clear();
        self.max_comp.clear();
        self.max_save.clear();
        self.max_load.clear();
        for step in schedule.supersteps() {
            self.push_superstep(step, dag);
        }
    }

    /// Number of supersteps currently cached.
    pub fn num_supersteps(&self) -> usize {
        self.max_comp.len()
    }

    /// Appends the costs of one superstep to the cache.
    pub fn push_superstep<D: DagLike + ?Sized>(&mut self, step: SuperstepView<'_>, dag: &D) {
        let mut max_c: f64 = 0.0;
        let mut max_s: f64 = 0.0;
        let mut max_l: f64 = 0.0;
        for phases in step.procs() {
            let c = phases.compute_cost(dag);
            let s = phases.save_cost(dag, self.g);
            let l = phases.load_cost(dag, self.g);
            self.comp.push(c);
            self.save.push(s);
            self.load.push(l);
            max_c = max_c.max(c);
            max_s = max_s.max(s);
            max_l = max_l.max(l);
        }
        self.max_comp.push(max_c);
        self.max_save.push(max_s);
        self.max_load.push(max_l);
    }

    /// Synchronous cost of superstep `k` (its three phase maxima plus `L`).
    pub fn step_cost(&self, k: usize) -> f64 {
        self.max_comp[k] + self.max_save[k] + self.max_load[k] + self.latency
    }

    // ------------------------------------------------------------------
    // Merge sessions: O(P) fold bookkeeping for the post-optimiser.
    //
    // A greedy merge pass over a schedule with thousands of supersteps folds
    // O(S) times; removing a row per fold would pay an O(S) array shift each
    // time, making the pass quadratic. A session folds a superstep into the
    // *next* one instead and marks the emptied row dead, so the pass walks the
    // rows left to right, every pair it tries is adjacent, and the arrays are
    // compacted once at [`ScheduleEvaluator::finish_merge`]. The per-row
    // arithmetic adds the two rows' per-processor phase costs and re-takes the
    // maxima, which is what re-costing the folded schedule computes.
    // ------------------------------------------------------------------

    /// Opens a merge session over the currently cached supersteps: every row
    /// starts alive. Pair with [`ScheduleEvaluator::finish_merge`]; structural
    /// edits outside the session API are not allowed while one is open.
    pub fn begin_merge(&mut self) {
        self.alive.clear();
        self.alive.resize(self.num_supersteps(), true);
        self.folded = 0;
    }

    /// Is superstep `k` still alive in the current merge session?
    pub fn merge_alive(&self, k: usize) -> bool {
        self.alive[k]
    }

    /// Combined synchronous cost of alive supersteps `k` and `j` kept separate
    /// — the quantity a fold of the two competes against. Exactly one of the
    /// two latency charges survives a merge, so only one `L` is included.
    pub fn separate_cost_pair(&self, k: usize, j: usize) -> f64 {
        debug_assert!(self.alive[k] && self.alive[j]);
        self.max_comp[k]
            + self.max_save[k]
            + self.max_load[k]
            + self.max_comp[j]
            + self.max_save[j]
            + self.max_load[j]
            + self.latency
    }

    /// Synchronous cost (without `L`) of the superstep that would result from
    /// folding alive supersteps `k` and `j` together: per-processor phase costs
    /// add up, the maxima are re-taken.
    pub fn merged_cost_pair(&self, k: usize, j: usize) -> f64 {
        debug_assert!(self.alive[k] && self.alive[j]);
        let a = k * self.procs;
        let b = j * self.procs;
        let mut max_c: f64 = 0.0;
        let mut max_s: f64 = 0.0;
        let mut max_l: f64 = 0.0;
        for pi in 0..self.procs {
            max_c = max_c.max(self.comp[a + pi] + self.comp[b + pi]);
            max_s = max_s.max(self.save[a + pi] + self.save[b + pi]);
            max_l = max_l.max(self.load[a + pi] + self.load[b + pi]);
        }
        max_c + max_s + max_l
    }

    /// Folds the cached costs of alive superstep `k` into `j` (mirroring
    /// [`MbspSchedule::fold_into_next`] on the schedule) and marks `k` dead:
    /// O(P), no array shift. The dead row's stale values are never read again
    /// (session accessors only ever take alive indices).
    pub fn apply_merge_pair(&mut self, k: usize, j: usize) {
        debug_assert!(self.alive[k] && self.alive[j] && k < j);
        let mut max_c: f64 = 0.0;
        let mut max_s: f64 = 0.0;
        let mut max_l: f64 = 0.0;
        for pi in 0..self.procs {
            let a = k * self.procs + pi;
            let b = j * self.procs + pi;
            self.comp[b] += self.comp[a];
            self.save[b] += self.save[a];
            self.load[b] += self.load[a];
            max_c = max_c.max(self.comp[b]);
            max_s = max_s.max(self.save[b]);
            max_l = max_l.max(self.load[b]);
        }
        self.max_comp[j] = max_c;
        self.max_save[j] = max_s;
        self.max_load[j] = max_l;
        self.alive[k] = false;
        self.folded += 1;
    }

    /// Closes the merge session: compacts every cached array down to the alive
    /// rows (one O(S · P) pass — paid once per pass instead of once per fold).
    /// The evaluator afterwards mirrors the compacted schedule.
    pub fn finish_merge(&mut self) {
        let procs = self.procs;
        // Fast exit for the (common) fold-free session: every row is alive and
        // the arrays are already compact. The buffers keep their capacity
        // either way — a post-optimiser reuses one evaluator across thousands
        // of candidate schedules.
        if self.folded > 0 {
            let mut kept = 0usize;
            for k in 0..self.alive.len() {
                if !self.alive[k] {
                    continue;
                }
                if kept != k {
                    for pi in 0..procs {
                        self.comp[kept * procs + pi] = self.comp[k * procs + pi];
                        self.save[kept * procs + pi] = self.save[k * procs + pi];
                        self.load[kept * procs + pi] = self.load[k * procs + pi];
                    }
                    self.max_comp[kept] = self.max_comp[k];
                    self.max_save[kept] = self.max_save[k];
                    self.max_load[kept] = self.max_load[k];
                }
                kept += 1;
            }
            self.comp.truncate(kept * procs);
            self.save.truncate(kept * procs);
            self.load.truncate(kept * procs);
            self.max_comp.truncate(kept);
            self.max_save.truncate(kept);
            self.max_load.truncate(kept);
        }
        self.alive.clear();
        self.folded = 0;
    }

    /// Total synchronous cost of the cached schedule. Accumulates the per-phase
    /// sums in the same order as [`crate::cost::sync_cost`], so a freshly rebuilt
    /// evaluator reproduces the reference total bit for bit.
    pub fn total(&self) -> f64 {
        let mut compute = 0.0;
        let mut save = 0.0;
        let mut load = 0.0;
        for k in 0..self.num_supersteps() {
            compute += self.max_comp[k];
            save += self.max_save[k];
            load += self.max_load[k];
        }
        compute + save + load + self.latency * self.num_supersteps() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::sync_cost;
    use crate::ops::ComputePhaseStep;
    use crate::schedule::Superstep;
    use mbsp_dag::graph::NodeWeights;
    use mbsp_dag::{CompDag, NodeId};

    fn diamond() -> CompDag {
        let mut weights = vec![NodeWeights::unit(); 4];
        weights[1] = NodeWeights::new(3.0, 2.0);
        CompDag::from_edges("d", weights, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    /// A two-processor schedule of the diamond with non-trivial phases.
    fn schedule() -> MbspSchedule {
        let mut steps = vec![Superstep::empty(2); 3];
        steps[0].procs[0].load.push(NodeId::new(0));
        steps[0].procs[1].load.push(NodeId::new(0));
        steps[1].procs[0]
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(1)));
        steps[1].procs[0].save.push(NodeId::new(1));
        steps[1].procs[1]
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(2)));
        steps[1].procs[1].save.push(NodeId::new(2));
        steps[1].procs[1].load.push(NodeId::new(1));
        steps[2].procs[1]
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(3)));
        steps[2].procs[1].save.push(NodeId::new(3));
        MbspSchedule::from_supersteps(2, &steps).unwrap()
    }

    fn arch() -> Architecture {
        Architecture::new(2, 8.0, 1.5, 7.0)
    }

    #[test]
    fn total_matches_reference_cost() {
        let dag = diamond();
        let arch = arch();
        let sched = schedule();
        let eval = ScheduleEvaluator::of(&sched, &dag, &arch);
        assert_eq!(eval.num_supersteps(), 3);
        assert_eq!(eval.total(), sync_cost(&sched, &dag, &arch).total);
    }

    #[test]
    fn step_costs_sum_to_total() {
        let dag = diamond();
        let arch = arch();
        let eval = ScheduleEvaluator::of(&schedule(), &dag, &arch);
        let sum: f64 = (0..eval.num_supersteps()).map(|k| eval.step_cost(k)).sum();
        assert!((sum - eval.total()).abs() < 1e-12);
    }

    /// Folds superstep `k` of `sched` into `k + 1` and removes the emptied `k`.
    fn fold(sched: &mut MbspSchedule, k: usize) {
        sched.fold_into_next(k);
        sched.retain_supersteps(|s| s != k);
    }

    #[test]
    fn merge_bookkeeping_matches_folded_schedule() {
        let dag = diamond();
        let arch = arch();
        let mut sched = schedule();
        let mut eval = ScheduleEvaluator::of(&sched, &dag, &arch);
        eval.begin_merge();
        // Predicted merged cost of folding step 1 into step 2.
        let predicted = eval.merged_cost_pair(1, 2);
        fold(&mut sched, 1);
        eval.apply_merge_pair(1, 2);
        eval.finish_merge();
        assert_eq!(eval.num_supersteps(), 2);
        let fresh = ScheduleEvaluator::of(&sched, &dag, &arch);
        for k in 0..2 {
            assert!((eval.step_cost(k) - fresh.step_cost(k)).abs() < 1e-12);
        }
        assert!((eval.total() - sync_cost(&sched, &dag, &arch).total).abs() < 1e-12);
        assert!((eval.step_cost(1) - (predicted + arch.latency)).abs() < 1e-12);
    }

    #[test]
    fn rebuild_reuses_the_evaluator() {
        let dag = diamond();
        let arch = arch();
        let sched = schedule();
        let mut eval = ScheduleEvaluator::new(&arch);
        assert_eq!(eval.num_supersteps(), 0);
        assert_eq!(eval.total(), 0.0);
        for _ in 0..3 {
            eval.rebuild(&sched, &dag);
            assert_eq!(eval.total(), sync_cost(&sched, &dag, &arch).total);
        }
    }

    #[test]
    fn merge_session_replays_the_eager_merge_exactly() {
        // Replay one greedy fold sequence through the session and through the
        // schedule itself, folded eagerly (the emptied superstep removed) and
        // re-costed from scratch after every fold. Every decision quantity and
        // the final totals must agree bit for bit (the diamond's weights are
        // dyadic, so the sums are exact in either order).
        let dag = diamond();
        let arch = arch();
        let mut sched = schedule();
        let mut session = ScheduleEvaluator::of(&sched, &dag, &arch);
        session.begin_merge();

        // Fold step 0 into step 1, then the merged step 1 into step 2: session
        // index `k` is the eager schedule's step 0 each time.
        for k in [0, 1] {
            let before = ScheduleEvaluator::of(&sched, &dag, &arch);
            assert_eq!(
                session.separate_cost_pair(k, k + 1),
                before.step_cost(0) + before.step_cost(1) - arch.latency
            );
            fold(&mut sched, 0);
            let after = ScheduleEvaluator::of(&sched, &dag, &arch);
            assert_eq!(
                session.merged_cost_pair(k, k + 1) + arch.latency,
                after.step_cost(0)
            );
            session.apply_merge_pair(k, k + 1);
            assert!(!session.merge_alive(k) && session.merge_alive(k + 1));
        }

        session.finish_merge();
        let folded = ScheduleEvaluator::of(&sched, &dag, &arch);
        assert_eq!(session.num_supersteps(), folded.num_supersteps());
        assert_eq!(session.total(), sync_cost(&sched, &dag, &arch).total);
        for k in 0..folded.num_supersteps() {
            assert_eq!(session.step_cost(k), folded.step_cost(k));
        }
    }

    #[test]
    fn a_fold_chain_compacts_to_one_superstep() {
        // Nine supersteps each loading the source on one processor, folded
        // left to right into the last: the session keeps only the last row,
        // which must cost what the folded schedule costs.
        let dag = diamond();
        let arch = arch();
        let steps: Vec<Superstep> = (0..9)
            .map(|s| {
                let mut step = Superstep::empty(2);
                step.procs[s % 2].load.push(NodeId::new(0));
                step
            })
            .collect();
        let mut sched = MbspSchedule::from_supersteps(2, &steps).unwrap();
        let mut eval = ScheduleEvaluator::of(&sched, &dag, &arch);
        eval.begin_merge();
        for k in 0..8 {
            sched.fold_into_next(k);
            eval.apply_merge_pair(k, k + 1);
        }
        sched.retain_supersteps(|s| eval.merge_alive(s));
        eval.finish_merge();
        assert_eq!(sched.num_supersteps(), 1);
        assert_eq!(eval.num_supersteps(), 1);
        assert_eq!(eval.total(), sync_cost(&sched, &dag, &arch).total);
        assert_eq!(sched.superstep(0).proc(crate::ProcId::new(0)).load.len(), 5);
    }

    #[test]
    fn separate_vs_merged_reflects_latency_saving() {
        // Two supersteps whose phases do not overlap merge at no extra phase cost,
        // so the merged cost undercuts the separate cost by exactly L.
        let dag = diamond();
        let arch = arch();
        let mut eval = ScheduleEvaluator::of(&schedule(), &dag, &arch);
        eval.begin_merge();
        // Steps 1 and 2: p1 works in both, so merging adds its phase costs.
        let separate = eval.separate_cost_pair(1, 2);
        let merged = eval.merged_cost_pair(1, 2);
        // merged excludes the latency of the folded step; separate includes one L.
        assert!(merged <= separate);
    }
}
