//! The schedule-level pieces of the holistic search: the canonical BSP
//! schedule of a processor assignment and the post-optimiser.
//!
//! The paper's headline scheduler formulates the whole MBSP problem as an ILP and
//! lets COPT improve on the two-stage baseline within a time limit. Without a
//! commercial solver, the search core (`crate::search`) plays the same role (see
//! PAPER.md, "Reproduction notes"): starting from the baseline's processor
//! assignment it searches the neighbourhood of assignments and evaluates every
//! candidate *holistically* — converted into a valid MBSP schedule (cache
//! simulation with the clairvoyant policy) and measured with the true
//! synchronous or asynchronous MBSP cost. This module holds what that
//! evaluation does to a schedule: [`canonical_bsp`] derives the superstep
//! structure of an assignment, and [`post_optimize`] / [`PostOptimizer`] merge
//! adjacent supersteps and drop redundant I/O whenever that keeps the schedule
//! valid and lowers the cost.

use mbsp_dag::topo::dfs_topological_order;
use mbsp_dag::{DagLike, NodeId, TopologicalOrder};
use mbsp_model::{
    Architecture, BspSchedule, ComputePhaseStep, Configuration, CostModel, MbspSchedule, ProcId,
    SuperstepView,
};
use mbsp_sched::BspSchedulingResult;

/// The order that breaks ties inside a canonical superstep: which of a
/// processor's nodes in one superstep it computes first. The supersteps are the
/// same either way; the order decides what the clairvoyant converter can keep
/// in cache, and so the I/O (Hong–Kung: in the red–blue pebble game, I/O is a
/// function of evaluation order). A sharded search converts its seed in both
/// and runs in the cheaper one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieOrder {
    /// Kahn's order with a FIFO frontier ([`TopologicalOrder::of`]): level by
    /// level. A tie keeps it, and divide-and-conquer part searches always run
    /// in it.
    #[default]
    BreadthFirst,
    /// The depth-first order of [`dfs_topological_order`]: a child follows its
    /// last parent as soon as it is ready.
    DepthFirst,
}

impl TieOrder {
    /// This order over `dag`'s nodes: a topological order, the argument
    /// [`canonical_bsp`] and `ConversionArena::set_tie_order` take.
    pub fn of<D: DagLike + ?Sized>(self, dag: &D) -> Vec<NodeId> {
        match self {
            TieOrder::BreadthFirst => TopologicalOrder::of(dag).order().to_vec(),
            TieOrder::DepthFirst => dfs_topological_order(dag),
        }
    }
}

/// Builds a canonical BSP schedule (with recomputed supersteps and an order
/// hint) from a per-node processor assignment: in `order`, a node's superstep is
/// the smallest one compatible with its parents (same superstep on the same
/// processor, strictly later across processors), and the nodes of one
/// superstep keep their order in `order` — the tie order, which must be a
/// topological order of `dag` ([`TieOrder::of`] builds the two a search
/// chooses between).
///
/// The arena path (`mbsp_cache::ConversionArena::convert_assignment`, after
/// `set_tie_order` with the same order) derives the same structure without
/// materialising the schedule; this function is the materialised form, used by
/// [`crate::bsp_opt`] and [`crate::reference::evaluate_assignment`].
pub fn canonical_bsp<D: DagLike + ?Sized>(
    dag: &D,
    arch: &Architecture,
    procs: &[ProcId],
    order: &[NodeId],
) -> BspSchedulingResult {
    let n = dag.num_nodes();
    assert_eq!(order.len(), n, "tie order of a different DAG");
    let mut superstep = vec![0usize; n];
    let mut rank = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        rank[v.index()] = i;
        if dag.is_source(v) {
            superstep[v.index()] = 0;
        } else {
            let mut s = 0usize;
            for u in dag.parents(v) {
                let su = superstep[u.index()];
                let needed = if dag.is_source(u) {
                    // Sources are loaded from slow memory, not communicated, but the
                    // BSP representation still requires a later superstep across
                    // processors; superstep 1 is always enough.
                    su + 1
                } else if procs[u.index()] == procs[v.index()] {
                    su
                } else {
                    su + 1
                };
                s = s.max(needed);
            }
            superstep[v.index()] = s.max(1);
        }
    }
    let assignment: Vec<(ProcId, usize)> = (0..n).map(|i| (procs[i], superstep[i])).collect();
    let mut schedule = BspSchedule::new(arch.processors, assignment);
    schedule.compact_supersteps();
    // Re-read the (compacted) supersteps for the order: sort by (superstep, tie rank).
    let mut order_keyed: Vec<(usize, usize, NodeId)> = order
        .iter()
        .map(|&v| (schedule.superstep_of(v), rank[v.index()], v))
        .collect();
    order_keyed.sort_unstable();
    let order = order_keyed.into_iter().map(|(_, _, v)| v).collect();
    BspSchedulingResult { schedule, order }
}

/// Post-optimises a valid MBSP schedule in place:
///
/// 1. repeatedly merges adjacent supersteps when the merged schedule stays valid and
///    does not increase the cost (this removes synchronisation overhead the
///    conversion introduced);
/// 2. drops save operations whose value is never loaded later and is not a sink
///    (redundant persistence);
/// 3. removes empty supersteps.
///
/// This convenience wrapper allocates its scratch state per call; evaluation loops
/// should hold an [`crate::engine::EvaluationEngine`], whose [`PostOptimizer`]
/// reuses every buffer across candidates.
pub fn post_optimize<D: DagLike + ?Sized>(
    schedule: &mut MbspSchedule,
    dag: &D,
    arch: &Architecture,
    cost_model: CostModel,
    required_outputs: &[NodeId],
) {
    PostOptimizer::new(dag, arch).optimize(schedule, dag, arch, cost_model, required_outputs);
}

/// Reusable scratch state for [`PostOptimizer::optimize`]: a scratch schedule, the
/// two superstep cost rows of the synchronous merge pass, three pebbling
/// configurations for the incremental merge-validity check, and the
/// redundant-save buffers. One instance serves an entire candidate-evaluation
/// loop without allocating.
#[derive(Debug)]
pub struct PostOptimizer {
    scratch: MbspSchedule,
    /// The superstep the synchronous merge pass carries, with every superstep
    /// folded into it so far.
    row: StepCosts,
    /// The superstep after `row`.
    next: StepCosts,
    /// Configuration after supersteps `0..k` of the current schedule (the merge
    /// loop's cursor state).
    prefix: Configuration,
    /// Trial configuration for simulating a candidate fold.
    trial: Configuration,
    /// Configuration after supersteps `0..k + 2` of the *unfolded* schedule, used
    /// for the exact fast-accept check.
    unfolded: Configuration,
    required: Vec<bool>,
    last_load: Vec<Option<usize>>,
    /// Per node: the epoch of the last fold attempt (one epoch per attempt and
    /// processor) whose merged compute phase computed it — the "computed
    /// earlier in this phase" half of the pre-copy fold rejection.
    computed_in_phase: Vec<u64>,
    phase_epoch: u64,
    /// What the fold attempts of this optimiser's lifetime cost.
    pub(crate) fold_stats: FoldStats,
}

/// Counters over [`PostOptimizer`]'s fold attempts. At tight caches nearly
/// every attempt is rejected before it pays for a [`Configuration`] copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FoldStats {
    /// Attempts that copied the prefix configuration to simulate the merged
    /// superstep on it.
    pub(crate) copied: u64,
    /// Attempts whose merged superstep simulated cleanly and reached the
    /// state comparison (which copies the prefix once more, for the unfolded
    /// pair).
    pub(crate) compared: u64,
    /// Attempts that returned "fold".
    pub(crate) accepted: u64,
}

/// One superstep's per-processor `[compute, save, load]` costs under the
/// synchronous model and their maxima over processors, taken from `0.0` in
/// processor order as [`mbsp_model::sync_cost`] takes them: a row of the
/// merge pass. A folded superstep is re-costed from its merged phase lists,
/// so the pass reports `sync_cost`'s bits — the arithmetic of
/// [`crate::reference::post_optimize`], so both passes take the same folds.
#[derive(Debug)]
struct StepCosts {
    procs: Vec<[f64; 3]>,
    max: [f64; 3],
}

impl StepCosts {
    fn new(processors: usize) -> Self {
        StepCosts {
            procs: Vec::with_capacity(processors),
            max: [0.0; 3],
        }
    }

    /// Re-fills the row with `step`'s costs.
    fn fill<D: DagLike + ?Sized>(&mut self, step: SuperstepView<'_>, dag: &D, g: f64) {
        self.procs.clear();
        self.procs.extend(step.procs().map(|p| {
            [
                p.compute_cost(dag),
                p.save_cost(dag, g),
                p.load_cost(dag, g),
            ]
        }));
        self.max = [0.0; 3];
        for costs in &self.procs {
            for (max, &cost) in self.max.iter_mut().zip(costs) {
                *max = max.max(cost);
            }
        }
    }

    /// The cost without `L` of this superstep and `next` folded into one.
    fn merged(&self, next: &StepCosts) -> f64 {
        let mut max = [0.0f64; 3];
        for (a, b) in self.procs.iter().zip(&next.procs) {
            for i in 0..3 {
                max[i] = max[i].max(a[i] + b[i]);
            }
        }
        max[0] + max[1] + max[2]
    }
}

impl PostOptimizer {
    /// Allocates the scratch state for one `(dag, arch)` instance.
    pub fn new<D: DagLike + ?Sized>(dag: &D, arch: &Architecture) -> Self {
        PostOptimizer {
            scratch: MbspSchedule::new(arch.processors),
            row: StepCosts::new(arch.processors),
            next: StepCosts::new(arch.processors),
            prefix: Configuration::initial(dag, arch),
            trial: Configuration::initial(dag, arch),
            unfolded: Configuration::initial(dag, arch),
            required: vec![false; dag.num_nodes()],
            last_load: vec![None; dag.num_nodes()],
            computed_in_phase: vec![0; dag.num_nodes()],
            phase_epoch: 0,
            fold_stats: FoldStats::default(),
        }
    }

    /// Runs the full post-optimisation pass (redundant-save removal, empty-step
    /// removal, greedy superstep merging) and returns the cost of the optimised
    /// schedule under `cost_model` — for the synchronous model it falls out of the
    /// merge pass's cost rows for free, so callers need no extra re-cost pass.
    pub fn optimize<D: DagLike + ?Sized>(
        &mut self,
        schedule: &mut MbspSchedule,
        dag: &D,
        arch: &Architecture,
        cost_model: CostModel,
        required_outputs: &[NodeId],
    ) -> f64 {
        self.required.fill(false);
        self.last_load.fill(None);
        remove_redundant_saves_into(
            schedule,
            dag,
            required_outputs,
            &mut self.required,
            &mut self.last_load,
        );
        schedule.remove_empty_supersteps();
        self.merge_supersteps(schedule, dag, arch, cost_model)
    }

    /// Greedily merges adjacent supersteps whenever the merged schedule remains
    /// valid and its cost does not increase; returns the final cost.
    ///
    /// Under the synchronous model neither side of the decision re-costs the
    /// whole schedule. The cost side reads two [`StepCosts`] rows — the
    /// superstep the pass carries and the next one — and compares their
    /// maxima kept separate (plus the one `L` a fold saves) with the maxima
    /// of their per-processor sums, in `O(P)`. The validity side simulates
    /// only the two folded supersteps on top of a cached prefix
    /// configuration. When the configuration after the merged step is
    /// identical to the configuration after the original pair — the common
    /// case, checked exactly — the suffix of the schedule cannot be affected
    /// and is not re-simulated at all; otherwise the check falls back to
    /// simulating the suffix, which is still allocation-free.
    ///
    /// An accepted fold moves superstep `k` into `k + 1`
    /// ([`MbspSchedule::fold_into_next`], O(operations of the two)),
    /// re-costs the merged superstep into the next row and carries that on
    /// (adding the two rows would round differently from `sync_cost`), so
    /// every pair the pass tries is adjacent and a pass that folds most of a
    /// thousands-of-supersteps schedule is O(operations + S · P). The
    /// schedule starts without empty supersteps, so the folded-away ones are
    /// exactly the empty ones at the end, and one compaction drops them. The
    /// folds taken — and the resulting schedule and cost — are those of
    /// [`crate::reference::post_optimize`] (the differential tests pin this
    /// down). The asynchronous makespan has no per-superstep decomposition,
    /// so that model keeps the full cost re-evaluation through the scratch
    /// schedule and the eager fold, but decides validity the same way:
    /// `try_fold_pair` on a `prefix` the pass advances over every step it
    /// keeps, so a fold attempt costs the merged pair's simulation instead of
    /// a validation of the whole schedule.
    fn merge_supersteps<D: DagLike + ?Sized>(
        &mut self,
        schedule: &mut MbspSchedule,
        dag: &D,
        arch: &Architecture,
        cost_model: CostModel,
    ) -> f64 {
        match cost_model {
            CostModel::Synchronous => {
                debug_assert!(
                    schedule
                        .supersteps()
                        .all(|step| step.procs().any(|phases| !phases.is_empty())),
                    "the merge pass starts without empty supersteps"
                );
                self.prefix.reset_initial(dag);
                let steps = schedule.num_supersteps();
                let (mut compute, mut save, mut load) = (0.0, 0.0, 0.0);
                let mut kept = 0usize;
                if steps > 0 {
                    self.row.fill(schedule.superstep(0), dag, arch.g);
                }
                for k in 0..steps {
                    if k + 1 < steps {
                        self.next.fill(schedule.superstep(k + 1), dag, arch.g);
                        // Cost of the two steps separately vs merged; all other
                        // supersteps are untouched by the fold.
                        let [c, s, l] = self.row.max;
                        let [nc, ns, nl] = self.next.max;
                        if self.row.merged(&self.next)
                            <= c + s + l + nc + ns + nl + arch.latency + 1e-9
                            && self.try_fold_pair(schedule, dag, arch, k)
                        {
                            // Step `k` is empty from here on, so `prefix` stays
                            // the configuration before the merged step.
                            schedule.fold_into_next(k);
                            self.next.fill(schedule.superstep(k + 1), dag, arch.g);
                            std::mem::swap(&mut self.row, &mut self.next);
                            continue;
                        }
                        self.prefix
                            .apply_superstep_unchecked(dag, schedule.superstep(k));
                    }
                    let [c, s, l] = self.row.max;
                    compute += c;
                    save += s;
                    load += l;
                    kept += 1;
                    std::mem::swap(&mut self.row, &mut self.next);
                }
                if kept < steps {
                    schedule.remove_empty_supersteps();
                }
                compute + save + load + arch.latency * kept as f64
            }
            CostModel::Asynchronous => {
                let mut current_cost = cost_model.evaluate(schedule, dag, arch);
                self.prefix.reset_initial(dag);
                let mut k = 0usize;
                while k + 1 < schedule.num_supersteps() {
                    if self.try_fold_pair(schedule, dag, arch, k) {
                        self.scratch.clone_from(schedule);
                        fold_superstep(&mut self.scratch, k);
                        let cost = cost_model.evaluate(&self.scratch, dag, arch);
                        if cost <= current_cost + 1e-9 {
                            // The merged step is step `k` now, so `prefix`
                            // stays the configuration before it.
                            std::mem::swap(schedule, &mut self.scratch);
                            current_cost = cost;
                            continue;
                        }
                    }
                    self.prefix
                        .apply_superstep_unchecked(dag, schedule.superstep(k));
                    k += 1;
                }
                current_cost
            }
        }
    }

    /// Decides whether merging supersteps `k` and `j = k + 1` keeps the
    /// schedule valid, with exactly the same outcome as validating the folded
    /// schedule from scratch (the supersteps before `k` are untouched by the
    /// fold — or folded-away and empty — so their simulation is the cached
    /// `prefix`).
    fn try_fold_pair<D: DagLike + ?Sized>(
        &mut self,
        schedule: &MbspSchedule,
        dag: &D,
        arch: &Architecture,
        k: usize,
    ) -> bool {
        let j = k + 1;
        let (step_k, step_j) = (schedule.superstep(k), schedule.superstep(j));
        // Reject before paying for a copy: loads only happen after every
        // compute of a superstep, so a parent of a `Compute(v)` in the merged
        // compute phase must be red on that processor in `prefix` or computed
        // earlier in the same phase — if it is neither, the simulation below
        // fails at that compute at the latest. Step `k`'s own computes are
        // valid from `prefix`; only step `j`'s need the test. At tight caches
        // this is nearly every attempt: the conversion ended step `k` because
        // step `j`'s first compute was waiting for a load.
        for (pi, (earlier, later)) in step_k.computes().zip(step_j.computes()).enumerate() {
            if later.is_empty() {
                continue;
            }
            let proc = ProcId::new(pi);
            self.phase_epoch += 1;
            let epoch = self.phase_epoch;
            for &c in earlier {
                if let ComputePhaseStep::Compute(v) = c {
                    self.computed_in_phase[v.index()] = epoch;
                }
            }
            for &c in later {
                let ComputePhaseStep::Compute(v) = c else {
                    continue;
                };
                if dag.parents(v).any(|u| {
                    !self.prefix.has_red(proc, u) && self.computed_in_phase[u.index()] != epoch
                }) {
                    return false;
                }
                self.computed_in_phase[v.index()] = epoch;
            }
        }
        self.fold_stats.copied += 1;
        self.trial.copy_from(&self.prefix);
        // The merged superstep with full precondition checks: each
        // processor's folded phase list is its step-k list, then its step-j
        // list.
        if self
            .trial
            .apply_superstep(dag, arch, &[step_k, step_j])
            .is_err()
        {
            return false;
        }
        // Fast accept: if the configuration after the merged step equals the
        // configuration after the original pair (compared exactly, floats
        // included), the remaining supersteps see an identical state and
        // stay valid because the current schedule is valid.
        self.fold_stats.compared += 1;
        self.unfolded.copy_from(&self.prefix);
        self.unfolded.apply_superstep_unchecked(dag, step_k);
        self.unfolded.apply_superstep_unchecked(dag, step_j);
        if self.trial == self.unfolded {
            self.fold_stats.accepted += 1;
            return true;
        }
        // Rare slow path: the fold reordered a delete/load pair and changed the
        // state, so re-simulate the suffix (still allocation-free) and re-check
        // the terminal condition. Every step after `j` is alive.
        let valid = schedule
            .supersteps()
            .skip(j + 1)
            .all(|step| self.trial.apply_superstep(dag, arch, &[step]).is_ok())
            && self.trial.is_terminal(dag);
        self.fold_stats.accepted += valid as u64;
        valid
    }
}

/// Drops save operations for values that are neither sinks nor ever loaded later
/// in the schedule, using caller-provided buffers (`required` all-false,
/// `last_load` all-`None` on entry).
pub(crate) fn remove_redundant_saves_into<D: DagLike + ?Sized>(
    schedule: &mut MbspSchedule,
    dag: &D,
    required_outputs: &[NodeId],
    required: &mut [bool],
    last_load: &mut [Option<usize>],
) {
    for &v in required_outputs {
        required[v.index()] = true;
    }
    // For each node, the last superstep in which it is loaded by anyone.
    for (s, step) in schedule.supersteps().enumerate() {
        for load in step.loads() {
            for &v in load {
                last_load[v.index()] = Some(s);
            }
        }
    }
    schedule.retain_saves(|s, v| {
        dag.is_sink(v) || required[v.index()] || last_load[v.index()].is_some_and(|l| l >= s)
    });
}

/// Folds superstep `k + 1` into superstep `k` (phase lists concatenated per
/// processor), removing step `k + 1` — the eager fold of the asynchronous merge
/// pass and of [`crate::reference::post_optimize`]: O(operations of the two +
/// S · P) per fold.
pub(crate) fn fold_superstep(schedule: &mut MbspSchedule, k: usize) {
    schedule.fold_into_next(k);
    schedule.retain_supersteps(|s| s != k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_cache::{ClairvoyantPolicy, TwoStageScheduler};
    use mbsp_dag::NodeWeights;
    use mbsp_model::{sync_cost, MbspInstance};
    use mbsp_sched::{BspScheduler, GreedyBspScheduler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_instances(limit: usize) -> Vec<MbspInstance> {
        mbsp_gen::tiny_dataset(42)
            .into_iter()
            .take(limit)
            .map(|inst| {
                MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
            })
            .collect()
    }

    #[test]
    fn canonical_bsp_is_valid_for_random_assignments() {
        use rand::Rng;
        let inst = &tiny_instances(3)[2];
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let procs: Vec<ProcId> = inst
                .dag()
                .nodes()
                .map(|_| ProcId::new(rng.gen_range(0..inst.arch().processors)))
                .collect();
            let breadth_first = canonical_bsp(
                inst.dag(),
                inst.arch(),
                &procs,
                &TieOrder::BreadthFirst.of(inst.dag()),
            );
            for tie in [TieOrder::BreadthFirst, TieOrder::DepthFirst] {
                let result = canonical_bsp(inst.dag(), inst.arch(), &procs, &tie.of(inst.dag()));
                result.schedule.validate(inst.dag()).unwrap();
                // Order hint is topological.
                mbsp_sched::assert_order_respects_precedence(inst.dag(), &result.order);
                // The tie order moves nodes inside a superstep, never across.
                assert_eq!(result.schedule, breadth_first.schedule);
            }
        }
    }

    #[test]
    fn post_optimize_preserves_validity_and_does_not_increase_cost() {
        let greedy = GreedyBspScheduler::new();
        let converter = TwoStageScheduler::new();
        let policy = ClairvoyantPolicy::new();
        for inst in tiny_instances(4) {
            let baseline = greedy.schedule(inst.dag(), inst.arch());
            let mut schedule = converter.schedule(inst.dag(), inst.arch(), &baseline, &policy);
            let before = sync_cost(&schedule, inst.dag(), inst.arch()).total;
            post_optimize(
                &mut schedule,
                inst.dag(),
                inst.arch(),
                CostModel::Synchronous,
                &[],
            );
            schedule.validate(inst.dag(), inst.arch()).unwrap();
            let after = sync_cost(&schedule, inst.dag(), inst.arch()).total;
            assert!(after <= before + 1e-9);
        }
    }

    #[test]
    fn post_optimizer_reports_the_final_cost() {
        // The synchronous report is `sync_cost` of the returned schedule bit
        // for bit, also with non-dyadic `g`, `L` and weights: there, adding
        // two supersteps' per-processor costs rounds differently from
        // costing the folded phase list.
        let mut instances = tiny_instances(4);
        for named in mbsp_gen::tiny_dataset(42).into_iter().take(6) {
            let mut dag = named.dag;
            for v in (0..dag.num_nodes()).map(NodeId::new) {
                let w = dag.weights(v);
                let w = NodeWeights::new(w.compute * 0.7, w.memory * 1.1);
                dag.set_weights(v, w).unwrap();
            }
            let arch = Architecture::new(4, 0.0, 0.6, 0.3);
            for cache_factor in [3.0, 12.0] {
                instances.push(MbspInstance::with_cache_factor(
                    dag.clone(),
                    arch,
                    cache_factor,
                ));
            }
        }
        let greedy = GreedyBspScheduler::new();
        let converter = TwoStageScheduler::new();
        let policy = ClairvoyantPolicy::new();
        for inst in instances {
            let mut post = PostOptimizer::new(inst.dag(), inst.arch());
            for cost_model in [CostModel::Synchronous, CostModel::Asynchronous] {
                let baseline = greedy.schedule(inst.dag(), inst.arch());
                let mut schedule = converter.schedule(inst.dag(), inst.arch(), &baseline, &policy);
                let reported =
                    post.optimize(&mut schedule, inst.dag(), inst.arch(), cost_model, &[]);
                let full = cost_model.evaluate(&schedule, inst.dag(), inst.arch());
                let agree = match cost_model {
                    CostModel::Synchronous => reported.to_bits() == full.to_bits(),
                    CostModel::Asynchronous => (reported - full).abs() < 1e-9,
                };
                assert!(
                    agree,
                    "{} {cost_model}: reported {reported} vs full {full}",
                    inst.name()
                );
            }
        }

        // `a → b`, `a → c` with `μ(c) = 6` on one processor, `g = 0.6`:
        // [load a] [b; save b] [c; save c] folds its last two supersteps, and
        // the folded save phase costs `0.6 · 7 = 4.2`, where `0.6 · 1 + 0.6 · 6`
        // is one ulp less.
        let weights = vec![
            NodeWeights::unit(),
            NodeWeights::unit(),
            NodeWeights::new(1.0, 6.0),
        ];
        let dag = mbsp_dag::CompDag::from_edges("fold", weights, &[(0, 1), (0, 2)]).unwrap();
        let arch = Architecture::new(1, 9.0, 0.6, 0.0);
        let mut steps = vec![mbsp_model::Superstep::empty(1); 3];
        steps[0].procs[0].load.push(NodeId::new(0));
        for v in 1..3 {
            let compute = ComputePhaseStep::Compute(NodeId::new(v));
            steps[v].procs[0].compute.push(compute);
            steps[v].procs[0].save.push(NodeId::new(v));
        }
        let mut schedule = MbspSchedule::from_supersteps(1, &steps).unwrap();
        let mut post = PostOptimizer::new(&dag, &arch);
        let reported = post.optimize(&mut schedule, &dag, &arch, CostModel::Synchronous, &[]);
        assert_eq!(schedule.num_supersteps(), 2);
        let full = sync_cost(&schedule, &dag, &arch).total;
        assert_eq!(reported.to_bits(), full.to_bits(), "{reported} vs {full}");
    }

    #[test]
    fn fast_post_optimize_matches_the_reference_pass() {
        // The incremental merge (prefix-cached validity, streamed cost rows)
        // must take exactly the same accept/reject decisions as the reference
        // pass, so the optimised schedules are equal — not just equal in cost.
        let greedy = GreedyBspScheduler::new();
        let converter = TwoStageScheduler::new();
        let policy = ClairvoyantPolicy::new();
        for inst in tiny_instances(6) {
            for cost_model in [CostModel::Synchronous, CostModel::Asynchronous] {
                let baseline = greedy.schedule(inst.dag(), inst.arch());
                let schedule = converter.schedule(inst.dag(), inst.arch(), &baseline, &policy);
                let mut fast = schedule.clone();
                post_optimize(&mut fast, inst.dag(), inst.arch(), cost_model, &[]);
                let mut reference = schedule;
                crate::reference::post_optimize(
                    &mut reference,
                    inst.dag(),
                    inst.arch(),
                    cost_model,
                    &[],
                );
                assert_eq!(fast, reference, "{} {cost_model}", inst.name());
            }
        }
    }

    /// Seeded schedules for the post-optimiser differentials: every tiny
    /// instance under random 4-processor assignments, converted at the
    /// paper's tight cache (`r = 3·r0`, `L = 10`: nearly every fold attempt
    /// dies on a missing parent) and at a generous cache with a large latency
    /// (`r = 12·r0`, `L = 50`: folds are accepted).
    fn seeded_conversions(
        cache_factor: f64,
        latency: f64,
        per_instance: usize,
    ) -> Vec<(MbspInstance, MbspSchedule)> {
        use mbsp_cache::ConversionArena;
        use rand::Rng;
        let mut out = Vec::new();
        for (i, named) in mbsp_gen::tiny_dataset(42).into_iter().enumerate() {
            let arch = Architecture::paper_default(0.0).with_latency(latency);
            let inst = MbspInstance::with_cache_factor(named.dag, arch, cache_factor);
            let mut arena = ConversionArena::new(inst.dag(), inst.arch());
            let mut rng = StdRng::seed_from_u64(0xF01D ^ i as u64);
            for _ in 0..per_instance {
                let procs: Vec<ProcId> = inst
                    .dag()
                    .nodes()
                    .map(|_| ProcId::new(rng.gen_range(0..inst.arch().processors)))
                    .collect();
                let mut schedule = MbspSchedule::new(inst.arch().processors);
                arena.convert_assignment(inst.dag(), inst.arch(), &procs, &[], &mut schedule);
                out.push((inst.clone(), schedule));
            }
        }
        out
    }

    #[test]
    fn session_eager_and_reference_passes_agree_on_seeded_conversions() {
        // Both passes on `schedule`: equal schedules, equal cost bits. Returns
        // the optimised schedule, its cost and whether a fold was accepted.
        let agree = |inst: &MbspInstance, schedule: MbspSchedule, name: &str| {
            let (dag, arch) = (inst.dag(), inst.arch());
            let model = CostModel::Synchronous;
            let mut post = PostOptimizer::new(dag, arch);
            let mut session = schedule.clone();
            let session_cost = post.optimize(&mut session, dag, arch, model, &[]);
            let mut reference = schedule;
            crate::reference::post_optimize(&mut reference, dag, arch, model, &[]);
            assert_eq!(session, reference, "{name}: session vs reference");
            assert_eq!(
                session_cost.to_bits(),
                sync_cost(&reference, dag, arch).total.to_bits(),
                "{name}"
            );
            (session, session_cost, post.fold_stats.accepted > 0)
        };
        let mut cases = 0usize;
        let mut folded_cases = 0usize;
        for (cache_factor, latency) in [(3.0, 10.0), (12.0, 50.0)] {
            for (inst, schedule) in seeded_conversions(cache_factor, latency, 4) {
                let name = format!("{} r={cache_factor}·r0 L={latency}", inst.name());
                let (_, _, folded) = agree(&inst, schedule, &name);
                cases += 1;
                folded_cases += folded as usize;
            }
        }
        assert!(cases >= 100, "expected 100+ cases, got {cases}");
        assert!(
            folded_cases >= cases / 4,
            "only {folded_cases} of {cases} cases accepted a fold: the accept path is barely tested"
        );

        // Prefixes of a `P = 1` path `a → b → c → d`: `a` is loaded in
        // superstep 0 and `b`, `c`, `d` are computed in supersteps 1–3 (`d`
        // saved). The whole schedule folds 1 into 2 and the carried result
        // into 3; 0 cannot fold, because its load would follow the computes.
        let dag = mbsp_dag::CompDag::from_edges(
            "path",
            vec![mbsp_dag::NodeWeights::unit(); 4],
            &[(0, 1), (1, 2), (2, 3)],
        )
        .unwrap();
        let path = MbspInstance::new(dag, Architecture::new(1, 4.0, 1.0, 5.0));
        let mut steps = vec![mbsp_model::Superstep::empty(1); 4];
        steps[0].procs[0].load.push(NodeId::new(0));
        for v in 1..4 {
            let compute = ComputePhaseStep::Compute(NodeId::new(v));
            steps[v].procs[0].compute.push(compute);
        }
        steps[3].procs[0].save.push(NodeId::new(3));
        let prefix = |len: usize| MbspSchedule::from_supersteps(1, &steps[..len]).unwrap();
        let (empty, cost, _) = agree(&path, prefix(0), "empty");
        assert_eq!((empty.num_supersteps(), cost), (0, 0.0));
        let (one, _, _) = agree(&path, prefix(1), "one superstep");
        assert_eq!(one.num_supersteps(), 1);
        let (chain, _, _) = agree(&path, prefix(4), "fold chain");
        chain.validate(path.dag(), path.arch()).unwrap();
        assert_eq!(chain.num_supersteps(), 2);
        assert_eq!(chain.superstep(1).proc(ProcId::new(0)).compute.len(), 3);
    }

    #[test]
    fn tight_cache_fold_attempts_are_rejected_before_any_copy() {
        // At r = 3·r0 the conversion ends a superstep because the next compute
        // waits for a load, so a fold attempt fails on a parent that is
        // neither red in the prefix nor computed earlier in the merged phase —
        // and must be turned away before `trial.copy_from(&prefix)`. What is
        // still copied is nearly always a fold that goes through: over the
        // seeded set, copies number at most the attempts that reached the
        // state comparison plus the folds accepted. (With the early rejection
        // removed, every attempt whose cost side passes is copied — an order
        // of magnitude more than either.)
        let mut cases = seeded_conversions(3.0, 10.0, 4);
        // The served regime as well: a layered-random DAG under its greedy
        // assignment, where hundreds of attempts yield a handful of folds.
        let dag = mbsp_gen::random::random_layered_dag(
            &mbsp_gen::random::RandomDagConfig {
                layers: 20,
                width: 50,
                edge_probability: 0.06,
                ..Default::default()
            },
            7,
        );
        let inst = MbspInstance::with_cache_factor(dag, Architecture::new(4, 0.0, 1.0, 2.0), 3.0);
        let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
        let schedule = TwoStageScheduler::new().schedule(
            inst.dag(),
            inst.arch(),
            &baseline,
            &ClairvoyantPolicy::new(),
        );
        cases.push((inst, schedule));

        let mut total = FoldStats::default();
        let mut pairs = 0u64;
        for (inst, mut schedule) in cases {
            let (dag, arch) = (inst.dag(), inst.arch());
            pairs += schedule.num_supersteps().saturating_sub(1) as u64;
            let mut post = PostOptimizer::new(dag, arch);
            post.optimize(&mut schedule, dag, arch, CostModel::Synchronous, &[]);
            total.copied += post.fold_stats.copied;
            total.compared += post.fold_stats.compared;
            total.accepted += post.fold_stats.accepted;
        }
        assert!(
            total.copied <= total.accepted + total.compared,
            "{total:?} over {pairs} adjacent superstep pairs"
        );
        assert!(
            total.copied * 2 < pairs,
            "{total:?}: most of the {pairs} adjacent pairs should be turned away uncopied"
        );
    }

    #[test]
    fn incremental_merge_matches_full_reevaluation() {
        // Reference implementation: greedy merge with a full cost re-evaluation
        // and a fresh clone per candidate (the pre-incremental behaviour).
        fn naive_merge(schedule: &mut MbspSchedule, dag: &mbsp_dag::CompDag, arch: &Architecture) {
            let mut current = sync_cost(schedule, dag, arch).total;
            let mut k = 0usize;
            while k + 1 < schedule.num_supersteps() {
                let mut cand = schedule.clone();
                fold_superstep(&mut cand, k);
                if cand.validate(dag, arch).is_ok() {
                    let cost = sync_cost(&cand, dag, arch).total;
                    if cost <= current + 1e-9 {
                        *schedule = cand;
                        current = cost;
                        continue;
                    }
                }
                k += 1;
            }
        }
        let greedy = GreedyBspScheduler::new();
        let converter = TwoStageScheduler::new();
        let policy = ClairvoyantPolicy::new();
        for inst in tiny_instances(5) {
            let baseline = greedy.schedule(inst.dag(), inst.arch());
            let schedule = converter.schedule(inst.dag(), inst.arch(), &baseline, &policy);
            let mut reference = schedule.clone();
            naive_merge(&mut reference, inst.dag(), inst.arch());
            let mut incremental = schedule.clone();
            PostOptimizer::new(inst.dag(), inst.arch()).merge_supersteps(
                &mut incremental,
                inst.dag(),
                inst.arch(),
                CostModel::Synchronous,
            );
            let ref_cost = sync_cost(&reference, inst.dag(), inst.arch()).total;
            let inc_cost = sync_cost(&incremental, inst.dag(), inst.arch()).total;
            assert!(
                (ref_cost - inc_cost).abs() < 1e-9,
                "{}: incremental {inc_cost} vs reference {ref_cost}",
                inst.name()
            );
        }
    }
}
