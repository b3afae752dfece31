//! Dirty-cone repair: incremental re-scheduling under DAG mutation.
//!
//! After a batch of [`DagDelta`]s lands on a scheduled instance, a full
//! re-schedule re-searches every shard of the DAG even though the mutation
//! only perturbed a small neighbourhood. This module repairs instead:
//!
//! 1. **Cone** — [`mutation_cone`] expands the touched nodes of the applied
//!    deltas into their forward *and* backward cone, bounded by a hop radius
//!    (default 2). The cone over-approximates the set of nodes whose best
//!    processor can have changed: mutations propagate through precedence in
//!    both directions (a reweighted child changes what its parents should
//!    save; a new parent changes where a child wants to live), but the effect
//!    decays with distance, which is what the radius bounds.
//! 2. **Dirty shards** — the same partition a full sharded run would build on
//!    its first iteration (strategy-dispatched: [`topo_shards`](crate::shard::topo_shards) or the
//!    weight-aware `weighted_shards`) is intersected with the cone
//!    ([`dirty_shard_indices`]); only
//!    intersecting shards are re-searched, with their *global* shard index
//!    feeding the per-shard seed stride, so a repaired shard explores exactly
//!    the stream the full run would have.
//! 3. **Repair** — the mutated schedule (the stale incumbent's assignment,
//!    re-evaluated on the mutated DAG) seeds the dirty shards' local searches,
//!    and the winners fold back through the same deterministic boundary-repair
//!    merge as [`ShardedHolisticScheduler`](crate::ShardedHolisticScheduler) — both run the search
//!    core's one partition → search → merge pass, here restricted to the cone.
//!    Clean shards are not re-searched *and* not re-merged: a clean shard's
//!    local search is a deterministic function of its local problem, which a
//!    mutation outside its radius-1 neighbourhood cannot change, so from a
//!    *converged* incumbent (one a full repair pass can no longer improve) a
//!    fresh clean-shard search would only reproduce the proposals the merge
//!    already rejected. The result is byte-identical for any worker count and
//!    never costs more than the stale incumbent.
//!
//! The repair is *near*-exact rather than exact relative to a full re-search
//! from the same incumbent: a reweight shifts which nodes are critical inside
//! the superstep maxima, and that can flip a previously rejected clean-shard
//! proposal to globally improving even when the proposal's shard is far from
//! the mutation — a coupling no hop-bounded cone can capture. The residual is
//! a fraction of a percent of the schedule cost, not bounded below any fixed
//! figure: the `delta` recorder (`crates/bench/src/recorders/delta.rs`) bars
//! it at 0.1 %, and over 50 mutation streams 8–9 exceeded that bar, by up to
//! 0.37 % (ROADMAP item 4(a)). The repair runs several times faster, and the
//! gap to the mutated incumbent is always closed exactly.
//!
//! [`IncrementalScheduler`] owns the mutating DAG, its live
//! [`PkOrder`] (the edge-insertion cycle check's scratch, rebuilt on restore
//! rather than checkpointed), the current assignment and the set of pending
//! touched nodes;
//! [`IncrementalScheduler::apply`] routes deltas through
//! [`CompDag::apply_delta`] (keeping the assignment's per-node side table in
//! sync with swap-remove id remaps) and [`IncrementalScheduler::repair`]
//! drains the pending set into one cone-bounded sharded search.
//! [`IncrementalScheduler::schedule`] runs the *full* sharded search on the
//! session's own DAG and adopts the winner in place — the pass borrows the
//! DAG, so a warm session needs no owning detour to be re-scheduled.
//!
//! The `delta` recorder (`bench_record delta`) measures repair against a full
//! re-search from the same stale incumbent; `tests/repair_determinism.rs` pins
//! the worker-count invariance.

use crate::improver::TieOrder;
use crate::search::{Incumbent, ShardedSearch};
use crate::shard::{sharded_schedule, IncumbentObserver, ShardedSearchConfig, ShardedSearchStats};
use mbsp_dag::{
    AcyclicPartition, CompDag, DagDelta, DagError, DeltaEffect, NodeId, PkOrder, Result,
};
use mbsp_model::{Architecture, MbspSchedule, ProcId};
use mbsp_pool::{CancelToken, StopReason, WorkerPool};
use mbsp_sched::BspSchedulingResult;

/// Configuration of [`IncrementalScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct RepairConfig {
    /// The sharded-search knobs (shard count, workers, per-shard budget, seed)
    /// shared with the full [`ShardedHolisticScheduler`](crate::ShardedHolisticScheduler). The shard count and
    /// strategy must match the full run's for the repaired shards to explore
    /// the same streams, so the default is the search default.
    pub search: ShardedSearchConfig,
    /// Hop radius of the mutation cone expanded around touched nodes, in both
    /// edge directions. `0` repairs only the shards containing touched nodes
    /// themselves.
    pub cone_radius: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            search: ShardedSearchConfig::default(),
            cone_radius: 2,
        }
    }
}

/// Statistics of one [`IncrementalScheduler::repair`] run.
#[derive(Debug, Clone, Copy)]
pub struct RepairStats {
    /// Touched nodes drained from the pending set.
    pub pending_nodes: usize,
    /// Size of the expanded mutation cone.
    pub cone_nodes: usize,
    /// Total shards of the partition.
    pub shards: usize,
    /// Shards intersecting the cone (the only ones re-searched).
    pub dirty_shards: usize,
    /// Dirty shards whose local search improved on its local baseline.
    pub improved_shards: usize,
    /// Shard merges accepted by the global boundary-repair evaluation.
    pub accepted_shards: usize,
    /// Individually replayed deltas kept by the merge's prefix salvage.
    pub salvaged_moves: u64,
    /// Schedules converted and costed: the stale incumbent once per candidate
    /// tie order, every dirty shard's search (its seeds and every batch
    /// candidate) and one per merge fold and per replayed delta.
    pub evaluations: u64,
    /// The tie order the repair ran in: the one whose canonical conversion of
    /// the session's assignment was cheaper (breadth-first on a tie).
    pub tie_order: TieOrder,
    /// Supersteps the conversions behind `evaluations` (and the shard
    /// searches' rebases) simulated.
    pub simulated_supersteps: u64,
    /// Supersteps they copied from a base instead of simulating them.
    pub skipped_supersteps: u64,
    /// Cost of the stale incumbent's assignment on the mutated DAG, in the
    /// repair's tie order.
    pub incumbent_cost: f64,
    /// Cost of the repaired schedule.
    pub final_cost: f64,
    /// Why the repair stopped: `Completed` when no shard-search round and not
    /// the pass itself was skipped, else the signal that skipped one (the
    /// [`CancelToken`]'s cancellation or the deadline it was armed with).
    pub stop_reason: StopReason,
}

/// Forward/backward cone of `seeds` in `dag`, bounded by `radius` hops in each
/// direction. Returns sorted, deduplicated node ids. Seeds outside the graph
/// (stale ids after a removal) are skipped.
pub fn mutation_cone(dag: &CompDag, seeds: &[NodeId], radius: usize) -> Vec<NodeId> {
    let n = dag.num_nodes();
    let mut depth = vec![usize::MAX; n];
    let mut frontier: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if s.index() < n && depth[s.index()] == usize::MAX {
            depth[s.index()] = 0;
            frontier.push(s);
        }
    }
    let mut next = Vec::new();
    for hop in 1..=radius {
        if frontier.is_empty() {
            break;
        }
        next.clear();
        for &v in &frontier {
            for &u in dag.children(v).iter().chain(dag.parents(v)) {
                if depth[u.index()] == usize::MAX {
                    depth[u.index()] = hop;
                    next.push(u);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    (0..n)
        .filter(|&i| depth[i] != usize::MAX)
        .map(NodeId::new)
        .collect()
}

/// Indices of the partition's parts containing at least one cone node, in
/// ascending order.
pub fn dirty_shard_indices(partition: &AcyclicPartition, cone: &[NodeId]) -> Vec<usize> {
    let mut dirty = vec![false; partition.num_parts()];
    for &v in cone {
        dirty[partition.part_of(v)] = true;
    }
    (0..partition.num_parts()).filter(|&i| dirty[i]).collect()
}

/// The incremental re-scheduler: owns the mutating DAG, its live Pearce–Kelly
/// order, the current per-node processor assignment and the pending touched
/// set; repairs the schedule by re-searching only the shards intersecting the
/// mutation cone. See the module docs for the lifecycle.
#[derive(Debug, Clone)]
pub struct IncrementalScheduler {
    pub(crate) dag: CompDag,
    pub(crate) arch: Architecture,
    pub(crate) order: PkOrder,
    pub(crate) procs: Vec<ProcId>,
    pub(crate) config: RepairConfig,
    pub(crate) pending: Vec<NodeId>,
    pub(crate) pool: WorkerPool,
    pub(crate) cancel: Option<CancelToken>,
}

impl IncrementalScheduler {
    /// Creates a scheduler over `dag` with a per-node seed assignment (e.g.
    /// the baseline scheduler's `proc_of` per node).
    ///
    /// # Panics
    /// If `procs.len() != dag.num_nodes()`.
    pub fn new(dag: CompDag, arch: Architecture, procs: Vec<ProcId>, config: RepairConfig) -> Self {
        assert_eq!(
            procs.len(),
            dag.num_nodes(),
            "assignment must cover every node"
        );
        let order = PkOrder::of_dag(&dag);
        IncrementalScheduler {
            dag,
            arch,
            order,
            procs,
            config,
            pending: Vec::new(),
            pool: WorkerPool::default(),
            cancel: None,
        }
    }

    /// Replaces the lane-permit count the repair searches take their lanes
    /// from (the default is the process-wide
    /// [`WorkerPool::shared`](mbsp_pool::WorkerPool::shared) count).
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = pool;
        self
    }

    /// The current (mutated) DAG.
    pub fn dag(&self) -> &CompDag {
        &self.dag
    }

    /// The current per-node processor assignment.
    pub fn assignment(&self) -> &[ProcId] {
        &self.procs
    }

    /// Touched nodes accumulated since the last repair.
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }

    /// The architecture the session schedules for.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The repair configuration the session searches with.
    pub fn config(&self) -> &RepairConfig {
        &self.config
    }

    /// Mutable access to the repair configuration (budget/seed re-tuning
    /// between repairs; the serving daemon uses it for per-request overrides).
    pub fn config_mut(&mut self) -> &mut RepairConfig {
        &mut self.config
    }

    /// Replaces the cooperative [`CancelToken`] observed by subsequent repairs
    /// (`None` detaches), before the pass and at shard-round boundaries: a
    /// repair interrupted by the token still folds the completed rounds'
    /// winners through the merge and reports [`StopReason::Cancelled`] in its
    /// stats. A long-lived service sets each job's own token this way.
    pub fn set_cancel(&mut self, token: Option<&CancelToken>) {
        self.cancel = token.cloned();
    }

    /// Applies one delta to the owned DAG, keeping the assignment and the
    /// pending set consistent with id remaps. On error the scheduler is
    /// untouched (the [`CompDag::apply_delta`] validate-before-mutate
    /// contract). A delta that would raise a compute footprint above the
    /// cache is refused the same way, with
    /// [`DagError::FootprintExceedsCache`]: no schedule could compute that
    /// node.
    pub fn apply(&mut self, delta: &DagDelta) -> Result<DeltaEffect> {
        if let Some((node, footprint)) = self.dag.footprint_after(delta) {
            if !self.arch.fits(footprint) {
                return Err(DagError::FootprintExceedsCache {
                    node: node.index(),
                    footprint,
                    cache_size: self.arch.cache_size,
                });
            }
        }
        let old_last = NodeId::new(self.dag.num_nodes().saturating_sub(1));
        let effect = self.dag.apply_delta(delta, &mut self.order)?;
        if let Some(added) = effect.added {
            // A fresh node starts on processor 0; the repair search moves it.
            self.procs.push(ProcId::new(0));
            debug_assert_eq!(added.index() + 1, self.procs.len());
        }
        if let DagDelta::RemoveNode { node } = delta {
            self.procs.swap_remove(node.index());
            // Mirror the swap-remove in the pending set: drop the removed id,
            // rename the former last id to its new slot.
            self.pending.retain(|&v| v != *node);
            if effect.remapped.is_some() {
                for v in &mut self.pending {
                    if *v == old_last {
                        *v = *node;
                    }
                }
            }
        }
        self.pending.extend(effect.touched_nodes());
        Ok(effect)
    }

    /// Repairs the schedule: expands the pending touched set into a mutation
    /// cone, re-searches only the shards intersecting it and folds the winners
    /// back through the deterministic merge. Clears the pending set. The
    /// result never costs more than the stale incumbent's assignment
    /// re-evaluated on the mutated DAG, and — unless the stop signal cut it,
    /// which [`RepairStats::stop_reason`] then says — is byte-identical for
    /// any worker count.
    pub fn repair(&mut self) -> (MbspSchedule, RepairStats) {
        let pending = std::mem::take(&mut self.pending);
        self.repair_from(&pending)
    }

    /// Repairs as if every node had been touched: the same search a full
    /// [`ShardedHolisticScheduler`](crate::ShardedHolisticScheduler) run performs, useful to warm up the
    /// assignment before streaming deltas. Clears the pending set.
    pub fn full_repair(&mut self) -> (MbspSchedule, RepairStats) {
        self.pending.clear();
        let all: Vec<NodeId> = self.dag.nodes().collect();
        self.repair_from(&all)
    }

    fn repair_from(&mut self, pending: &[NodeId]) -> (MbspSchedule, RepairStats) {
        let dag = &self.dag;
        // The stale incumbent: the session's assignment re-evaluated on the
        // mutated DAG, in both tie orders; the repair runs in the cheaper one.
        // The search works on a copy, so a panic inside it leaves the
        // session's assignment whole.
        let mut search = ShardedSearch::new(
            &self.pool,
            self.cancel.as_ref(),
            dag,
            &self.arch,
            &self.config.search,
            self.procs.clone(),
            None,
        );
        let incumbent_cost = search.incumbent.cost;
        let cone = mutation_cone(dag, pending, self.config.cone_radius);
        // Iteration 0 of the full run's partition and seed schedule: the
        // repaired shards must line up with the shards a full run would search
        // so the per-shard seed streams match.
        let shards = if search.searchable && !cone.is_empty() && !search.stop_before_pass() {
            search.pass(0, Some(&cone)).num_parts()
        } else {
            0
        };
        let stats = RepairStats {
            pending_nodes: pending.len(),
            cone_nodes: cone.len(),
            shards,
            dirty_shards: search.searched,
            improved_shards: search.improved,
            accepted_shards: search.accepted,
            salvaged_moves: search.salvaged,
            evaluations: search.evaluations(),
            tie_order: search.tie_order,
            simulated_supersteps: search.simulated_supersteps(),
            skipped_supersteps: search.skipped_supersteps(),
            incumbent_cost,
            final_cost: search.incumbent.cost,
            stop_reason: search.stopped.unwrap_or_default(),
        };
        let Incumbent {
            procs, schedule, ..
        } = search.incumbent;
        self.procs = procs;
        (schedule, stats)
    }

    /// Runs the full sharded search — `search.iterations` partition → search →
    /// merge passes seeded from `baseline`, exactly what
    /// [`ShardedHolisticScheduler::schedule_with_assignment`](crate::ShardedHolisticScheduler::schedule_with_assignment)
    /// runs on an owned instance — on the session's own DAG, pool and cancel
    /// token, and adopts the winner in place. Afterwards the session equals
    /// `IncrementalScheduler::new(dag, arch, winner, config)` on the current
    /// DAG, down to its [`checkpoint`](IncrementalScheduler::checkpoint)
    /// bytes: the assignment is replaced and the pending set cleared. `search`
    /// replaces the session's own search knobs for this run only; `baseline`
    /// must schedule the session's current DAG.
    pub fn schedule(
        &mut self,
        search: &ShardedSearchConfig,
        baseline: &BspSchedulingResult,
        observer: Option<IncumbentObserver>,
    ) -> (MbspSchedule, ShardedSearchStats) {
        let (schedule, stats, procs) = sharded_schedule(
            &self.pool,
            self.cancel.as_ref(),
            observer.as_ref(),
            &self.dag,
            &self.arch,
            search,
            baseline,
        );
        self.procs = procs;
        self.pending.clear();
        (schedule, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{topo_shards, ShardedHolisticScheduler};
    use mbsp_cache::{ClairvoyantPolicy, TwoStageScheduler};
    use mbsp_model::{sync_cost, CostModel, MbspInstance};
    use mbsp_sched::{BspScheduler, GreedyBspScheduler};

    fn instance() -> MbspInstance {
        let inst = mbsp_gen::tiny_dataset(42).remove(2);
        MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
    }

    fn seed_procs(inst: &MbspInstance) -> Vec<ProcId> {
        let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
        inst.dag()
            .nodes()
            .map(|v| baseline.schedule.proc_of(v))
            .collect()
    }

    fn config() -> RepairConfig {
        RepairConfig {
            search: ShardedSearchConfig {
                num_shards: 4,
                workers: 1,
                max_rounds: 3,
                moves_per_round: 12,
                ..Default::default()
            },
            cone_radius: 2,
        }
    }

    /// A session that searches at the search default and then repairs at the
    /// repair default searches one partition shape. The destructuring names
    /// every field, so a new one cannot be left out.
    #[test]
    fn the_default_repair_searches_at_the_search_default() {
        let ShardedSearchConfig {
            cost_model,
            num_shards,
            workers,
            max_rounds,
            moves_per_round,
            seed,
            stale_round_limit,
            strategy,
            iterations,
            shard_local_seed,
            runs_per_shard,
            mass_tolerance,
        } = RepairConfig::default().search;
        let search = ShardedSearchConfig::default();
        assert_eq!(cost_model, search.cost_model);
        assert_eq!(num_shards, search.num_shards);
        assert_eq!(workers, search.workers);
        assert_eq!(max_rounds, search.max_rounds);
        assert_eq!(moves_per_round, search.moves_per_round);
        assert_eq!(seed, search.seed);
        assert_eq!(stale_round_limit, search.stale_round_limit);
        assert_eq!(strategy, search.strategy);
        assert_eq!(iterations, search.iterations);
        assert_eq!(shard_local_seed, search.shard_local_seed);
        assert_eq!(runs_per_shard, search.runs_per_shard);
        assert_eq!(mass_tolerance.to_bits(), search.mass_tolerance.to_bits());
    }

    #[test]
    fn cone_is_bounded_and_contains_its_seeds() {
        let inst = instance();
        let dag = inst.dag();
        let seed = NodeId::new(dag.num_nodes() / 2);
        let r0 = mutation_cone(dag, &[seed], 0);
        assert_eq!(r0, vec![seed]);
        let r1 = mutation_cone(dag, &[seed], 1);
        let r2 = mutation_cone(dag, &[seed], 2);
        assert!(r1.len() <= r2.len());
        assert!(r1.contains(&seed));
        let expected: usize = 1 + dag.in_degree(seed) + dag.out_degree(seed);
        assert!(r1.len() <= expected);
        // Stale ids (out of range) are skipped, not a panic.
        let stale = mutation_cone(dag, &[NodeId::new(dag.num_nodes() + 7)], 3);
        assert!(stale.is_empty());
        // Unbounded-enough radius reaches at most the weakly-connected part.
        let all = mutation_cone(dag, &[seed], dag.num_nodes());
        assert!(all.len() <= dag.num_nodes());
    }

    #[test]
    fn dirty_shards_cover_exactly_the_cone() {
        let inst = instance();
        let dag = inst.dag();
        let partition = topo_shards(dag, 5);
        let cone = mutation_cone(dag, &[NodeId::new(0)], 1);
        let dirty = dirty_shard_indices(&partition, &cone);
        for &v in &cone {
            assert!(dirty.contains(&partition.part_of(v)));
        }
        let dirty_set: std::collections::BTreeSet<_> = dirty.iter().copied().collect();
        for s in &dirty {
            assert!(cone.iter().any(|&v| partition.part_of(v) == *s));
        }
        assert_eq!(dirty.len(), dirty_set.len(), "indices are unique");
        assert!(dirty.windows(2).all(|w| w[0] < w[1]), "ascending");
    }

    #[test]
    fn repair_never_costs_more_than_the_stale_incumbent() {
        let inst = instance();
        let mut sched = IncrementalScheduler::new(
            inst.dag().clone(),
            *inst.arch(),
            seed_procs(&inst),
            config(),
        );
        sched.full_repair();
        // Reweight a middle node and repair.
        let v = NodeId::new(inst.dag().num_nodes() / 2);
        let mut w = sched.dag().weights(v);
        w.memory += 2.0;
        sched
            .apply(&DagDelta::Reweight {
                node: v,
                weights: w,
            })
            .unwrap();
        assert_eq!(sched.num_pending(), 1);
        let (schedule, stats) = sched.repair();
        assert_eq!(sched.num_pending(), 0);
        assert!(stats.dirty_shards <= stats.shards);
        assert!(stats.final_cost <= stats.incumbent_cost + 1e-9);
        schedule
            .validate(sched.dag(), inst.arch())
            .expect("repaired schedule is valid");
        let recost = sync_cost(&schedule, sched.dag(), inst.arch()).total;
        assert!((recost - stats.final_cost).abs() < 1e-9);
    }

    #[test]
    fn empty_pending_set_repairs_to_the_incumbent() {
        let inst = instance();
        let mut sched = IncrementalScheduler::new(
            inst.dag().clone(),
            *inst.arch(),
            seed_procs(&inst),
            config(),
        );
        let (schedule, stats) = sched.repair();
        assert_eq!(stats.dirty_shards, 0);
        assert_eq!(stats.cone_nodes, 0);
        assert!((stats.final_cost - stats.incumbent_cost).abs() < 1e-12);
        let recost = CostModel::Synchronous.evaluate(&schedule, sched.dag(), inst.arch());
        assert!((recost - stats.final_cost).abs() < 1e-9);
    }

    #[test]
    fn apply_keeps_assignment_in_sync_across_structural_deltas() {
        let inst = instance();
        let mut sched = IncrementalScheduler::new(
            inst.dag().clone(),
            *inst.arch(),
            seed_procs(&inst),
            config(),
        );
        let n0 = sched.dag().num_nodes();
        // Add a node wired under an existing source.
        let eff = sched
            .apply(&DagDelta::AddNode {
                weights: mbsp_dag::NodeWeights::new(1.0, 1.0),
                label: None,
            })
            .unwrap();
        let fresh = eff.added.unwrap();
        assert_eq!(sched.assignment().len(), n0 + 1);
        let parent = NodeId::new(0);
        sched
            .apply(&DagDelta::AddEdge {
                from: parent,
                to: fresh,
            })
            .unwrap();
        // Remove it again (edge first), exercising the swap-remove remap.
        sched
            .apply(&DagDelta::RemoveEdge {
                from: parent,
                to: fresh,
            })
            .unwrap();
        sched.apply(&DagDelta::RemoveNode { node: fresh }).unwrap();
        assert_eq!(sched.assignment().len(), n0);
        assert_eq!(sched.dag().num_nodes(), n0);
        // A rejected delta leaves everything untouched.
        let before_pending = sched.num_pending();
        let err = sched.apply(&DagDelta::RemoveNode {
            node: NodeId::new(0),
        });
        assert!(err.is_err());
        assert_eq!(sched.num_pending(), before_pending);
        assert_eq!(sched.assignment().len(), n0);
    }

    #[test]
    fn a_delta_that_outgrows_the_cache_is_refused_before_the_dag_changes() {
        let inst = instance();
        let mut sched = IncrementalScheduler::new(
            inst.dag().clone(),
            *inst.arch(),
            seed_procs(&inst),
            config(),
        );
        let before = sched.checkpoint();
        let r = inst.arch().cache_size;
        let v = NodeId::new(1);
        let grown = DagDelta::Reweight {
            node: v,
            weights: mbsp_dag::NodeWeights::new(1.0, r),
        };
        let heavy = DagDelta::AddNode {
            weights: mbsp_dag::NodeWeights::new(1.0, 2.0 * r),
            label: None,
        };
        for delta in [grown, heavy] {
            match sched.apply(&delta) {
                Err(DagError::FootprintExceedsCache { cache_size, .. }) => {
                    assert_eq!(cache_size, r)
                }
                other => panic!("{delta:?}: expected a footprint refusal, got {other:?}"),
            }
            assert_eq!(sched.checkpoint(), before, "{delta:?}");
        }
        // A node exactly as large as the cache still fits.
        let fitting = DagDelta::AddNode {
            weights: mbsp_dag::NodeWeights::new(1.0, r),
            label: None,
        };
        sched.apply(&fitting).unwrap();
        assert!(sched.arch().fits(sched.dag().minimal_cache_size()));
    }

    #[test]
    fn full_repair_matches_the_sharded_scheduler() {
        let inst = instance();
        let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
        let cfg = config();
        let full = ShardedHolisticScheduler::with_config(cfg.search);
        let (expect, _) = full.schedule_with_stats(&inst, &baseline);
        let mut sched =
            IncrementalScheduler::new(inst.dag().clone(), *inst.arch(), seed_procs(&inst), cfg);
        let (got, stats) = sched.full_repair();
        assert_eq!(stats.dirty_shards, stats.shards);
        let c_expect = sync_cost(&expect, inst.dag(), inst.arch()).total;
        let c_got = sync_cost(&got, inst.dag(), inst.arch()).total;
        // The full path also folds in the baseline's own superstep structure,
        // which the assignment-seeded repair cannot see; the repair must still
        // land within that one extra candidate's reach.
        assert!(
            c_got <= c_expect.max(stats.incumbent_cost) + 1e-9,
            "full repair {c_got} vs sharded {c_expect}"
        );
    }

    fn tiny_instances(limit: usize) -> Vec<MbspInstance> {
        mbsp_gen::tiny_dataset(42)
            .into_iter()
            .take(limit)
            .map(|inst| {
                MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
            })
            .collect()
    }

    /// The §6.1 holistic search as the reproduction runs it, at a small
    /// budget: a session's full search at one shard, started from the
    /// baseline's assignment and its own superstep structure.
    fn holistic(
        inst: &MbspInstance,
        baseline: &BspSchedulingResult,
        cost_model: CostModel,
    ) -> (MbspSchedule, ShardedSearchStats) {
        let search = ShardedSearchConfig {
            cost_model,
            num_shards: 1,
            workers: 1,
            max_rounds: 6,
            moves_per_round: 30,
            shard_local_seed: false,
            ..Default::default()
        };
        let procs = inst
            .dag()
            .nodes()
            .map(|v| baseline.schedule.proc_of(v))
            .collect();
        let repair = RepairConfig {
            search,
            cone_radius: 2,
        };
        IncrementalScheduler::new(inst.dag().clone(), *inst.arch(), procs, repair)
            .schedule(&search, baseline, None)
    }

    #[test]
    fn holistic_schedules_are_valid_and_not_worse_than_baseline() {
        let greedy = GreedyBspScheduler::new();
        let converter = TwoStageScheduler::new();
        let policy = ClairvoyantPolicy::new();
        for inst in tiny_instances(5) {
            let baseline = greedy.schedule(inst.dag(), inst.arch());
            let base_mbsp = converter.schedule(inst.dag(), inst.arch(), &baseline, &policy);
            let base_cost = sync_cost(&base_mbsp, inst.dag(), inst.arch()).total;
            let (improved, stats) = holistic(&inst, &baseline, CostModel::Synchronous);
            improved.validate(inst.dag(), inst.arch()).unwrap();
            let improved_cost = sync_cost(&improved, inst.dag(), inst.arch()).total;
            assert!(
                improved_cost <= base_cost + 1e-9,
                "{}: holistic {improved_cost} vs baseline {base_cost}",
                inst.name()
            );
            // The returned schedule is the one the search kept for its last
            // accepted incumbent; it must cost what the search reports.
            assert!((improved_cost - stats.final_cost).abs() < 1e-9);
        }
    }

    #[test]
    fn holistic_improves_on_at_least_one_instance() {
        let greedy = GreedyBspScheduler::new();
        let converter = TwoStageScheduler::new();
        let policy = ClairvoyantPolicy::new();
        let improved_any = tiny_instances(6).iter().any(|inst| {
            let baseline = greedy.schedule(inst.dag(), inst.arch());
            let base_mbsp = converter.schedule(inst.dag(), inst.arch(), &baseline, &policy);
            let base_cost = sync_cost(&base_mbsp, inst.dag(), inst.arch()).total;
            let (improved, _) = holistic(inst, &baseline, CostModel::Synchronous);
            sync_cost(&improved, inst.dag(), inst.arch()).total < base_cost - 1e-9
        });
        assert!(
            improved_any,
            "the holistic search should beat the baseline somewhere"
        );
    }

    #[test]
    fn asynchronous_cost_model_is_supported() {
        let inst = MbspInstance::with_cache_factor(
            mbsp_gen::tiny_dataset(42).remove(3).dag,
            Architecture::paper_default(0.0).with_latency(0.0),
            3.0,
        );
        let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
        let (schedule, stats) = holistic(&inst, &baseline, CostModel::Asynchronous);
        schedule.validate(inst.dag(), inst.arch()).unwrap();
        let recost = CostModel::Asynchronous.evaluate(&schedule, inst.dag(), inst.arch());
        assert!(
            (recost - stats.final_cost).abs() < 1e-9,
            "{recost} vs {stats:?}"
        );
    }
}
