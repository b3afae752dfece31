//! The divide-and-conquer MBSP scheduler (Section 6.3 of the paper).
//!
//! For DAGs too large for the full holistic optimisation, the problem is split:
//!
//! 1. the DAG is recursively bipartitioned (acyclic-partition ILP, solved by the
//!    warm-started sparse branch-and-bound of `lp_solver` with the prefix split
//!    as incumbent and crash basis) until every part has at most
//!    `max_part_size` nodes;
//! 2. a high-level plan on the quotient graph decides which processors handle which
//!    part and in which stage (the adjusted BSPg planner of `mbsp-sched`);
//! 3. every part is scheduled independently with the holistic search, with the
//!    boundary conditions of the paper: values produced by earlier parts are treated
//!    as inputs (they are already in slow memory), and values needed by later parts
//!    are required outputs that must be saved;
//! 4. the sub-schedules are concatenated stage by stage (parts in the same stage run
//!    side by side on disjoint processor groups) and the combined schedule is
//!    streamlined (superstep merging, removal of empty supersteps).
//!
//! Like the paper's divide-and-conquer ILP, the result is a heuristic: every
//! sub-problem is optimised well, but the concatenation is not globally optimal and
//! can fall behind the two-stage baseline on DAGs without good partitions.

use crate::improver::{post_optimize, TieOrder};
use crate::partition_ilp::recursive_partition;
use crate::search::{fan_out, search_view, LocalSearchParams};
use crate::shard::part_view;
use mbsp_dag::{CompDag, DagLike, NodeId};
use mbsp_model::{
    Architecture, ComputePhaseStep, Configuration, CostModel, MbspInstance, MbspSchedule, ProcId,
    Superstep,
};
use mbsp_pool::{resolve_workers, CancelToken, WorkerPool};
use mbsp_sched::{BspScheduler, GreedyBspScheduler, QuotientPlanner};

/// Configuration of [`DivideAndConquerScheduler`]. Every part search, and the
/// final streamlining pass, optimises the synchronous cost.
#[derive(Debug, Clone, Copy)]
pub struct DivideAndConquerConfig {
    /// Maximal number of nodes per part (the paper uses 60). Every cut is
    /// solved within [`DNC_SPLIT_LIMITS`](crate::DNC_SPLIT_LIMITS).
    pub max_part_size: usize,
    /// Maximum local-search rounds per part.
    pub max_rounds: usize,
    /// Candidate moves evaluated per round per part.
    pub moves_per_round: usize,
    /// RNG seed; part `i` searches with `seed + i`.
    pub seed: u64,
}

impl Default for DivideAndConquerConfig {
    fn default() -> Self {
        DivideAndConquerConfig {
            max_part_size: 60,
            max_rounds: 20,
            moves_per_round: 60,
            seed: 0x5EED,
        }
    }
}

/// Divide-and-conquer MBSP scheduler for larger DAGs.
#[derive(Debug, Clone, Default)]
pub struct DivideAndConquerScheduler {
    config: DivideAndConquerConfig,
}

impl DivideAndConquerScheduler {
    /// Creates a scheduler with the default configuration.
    pub fn new() -> Self {
        DivideAndConquerScheduler::default()
    }

    /// Creates a scheduler with an explicit configuration.
    pub fn with_config(config: DivideAndConquerConfig) -> Self {
        DivideAndConquerScheduler { config }
    }

    /// Schedules the instance. Returns a valid MBSP schedule over the instance's
    /// full processor count.
    pub fn schedule(&self, instance: &MbspInstance) -> MbspSchedule {
        let dag = instance.dag();
        let arch = instance.arch();

        // 1. Recursive acyclic partitioning.
        let partition = recursive_partition(dag, self.config.max_part_size);
        let parts = partition.parts();

        // 2. High-level plan on the quotient graph.
        let quotient = partition
            .quotient_graph(dag)
            .expect("partition quotient is acyclic");
        let plan = QuotientPlanner::new().plan(&quotient, arch);

        // 3. Schedule every part with its assigned processors: one zero-copy
        //    [`SubDagView`] per part (external parents join as pure sources —
        //    their values are in slow memory when the part runs) and one
        //    engine-backed local search, seeded by restricting a single global
        //    greedy baseline to the part. Parts are independent, so they run
        //    concurrently on up to `MBSP_BENCH_THREADS` lanes (or the
        //    machine's parallelism); results are deterministic
        //    regardless of the worker count.
        let global_baseline = GreedyBspScheduler::new().schedule(dag, arch);
        let global_procs: Vec<ProcId> = dag
            .nodes()
            .map(|v| global_baseline.schedule.proc_of(v))
            .collect();
        let workers = resolve_workers(0);
        let config = &self.config;
        // Each entry keeps only the part's schedule, processor set and the
        // O(part-size) local→global id map; the parent-sized view is dropped
        // as soon as its search finishes.
        struct ScheduledPart {
            schedule: MbspSchedule,
            processors: Vec<ProcId>,
            to_global: Vec<NodeId>,
        }
        // Nothing stops a part search but its budget of rounds.
        let never = CancelToken::new();
        let scheduled = fan_out(WorkerPool::shared(), workers, plan.parts.len(), |i| {
            let part_plan = &plan.parts[i];
            let part = part_plan.part;
            let local_arch = Architecture::new(
                part_plan.processors.len(),
                arch.cache_size,
                arch.g,
                arch.latency,
            );
            let (view, required) = part_view(dag, &partition, &parts[part], part, "part");
            let to_global: Vec<NodeId> = (0..view.num_nodes())
                .map(|l| view.to_global(NodeId::new(l)))
                .collect();
            let seed_procs: Vec<ProcId> = to_global
                .iter()
                .map(|g| ProcId::new(global_procs[g.index()].index() % local_arch.processors))
                .collect();
            let params = LocalSearchParams {
                cost_model: CostModel::Synchronous,
                max_rounds: config.max_rounds,
                moves_per_round: config.moves_per_round,
                seed: config.seed.wrapping_add(part as u64),
                // A stale best-of-batch round ends the part.
                stale_round_limit: 1,
                tie_order: TieOrder::BreadthFirst,
            };
            let found = search_view(
                &view,
                &local_arch,
                &params,
                seed_procs,
                None,
                &required,
                &never,
            );
            ScheduledPart {
                schedule: found.incumbent.schedule,
                processors: part_plan.processors.clone(),
                to_global,
            }
        });
        let mut sub_schedules: Vec<Option<ScheduledPart>> =
            (0..partition.num_parts()).map(|_| None).collect();
        for (part_plan, scheduled_part) in plan.parts.iter().zip(scheduled) {
            sub_schedules[part_plan.part] = Some(scheduled_part);
        }

        // 4. Concatenate the sub-schedules stage by stage. Between stages, every
        //    processor's cache is flushed (free delete operations): each sub-schedule
        //    assumes it starts with an empty cache, and everything a later part needs
        //    is already in slow memory. A stage is assembled in owned supersteps —
        //    its parts run side by side on disjoint processors — and then appended.
        let mut combined = MbspSchedule::new(arch.processors);
        // The pebbles the appended stages leave behind: what the next stage
        // flushes.
        let mut cached = Configuration::empty(dag, arch);
        let mut stage_steps: Vec<Superstep> = Vec::new();
        for stage in plan.stages() {
            let stage_len = stage
                .iter()
                .map(|pp| {
                    sub_schedules[pp.part]
                        .as_ref()
                        .map_or(0, |p| p.schedule.num_supersteps())
                })
                .max()
                .unwrap_or(0);
            if stage_len == 0 {
                continue;
            }
            stage_steps.clear();
            stage_steps.resize(stage_len, Superstep::empty(arch.processors));
            // Flush the caches left over from earlier stages at the beginning of the
            // first superstep of this stage.
            for (pi, flush) in stage_steps[0].procs.iter_mut().enumerate() {
                flush.compute.extend(
                    cached
                        .cached_nodes(ProcId::new(pi))
                        .map(ComputePhaseStep::Delete),
                );
            }
            for part_plan in stage {
                let part = part_plan.part;
                let sub = sub_schedules[part].as_ref().expect("scheduled");
                let (schedule, processors) = (&sub.schedule, &sub.processors);
                let to_global = |v: NodeId| sub.to_global[v.index()];
                for (step, target) in schedule.supersteps().zip(&mut stage_steps) {
                    for (local_p, phases) in step.procs().enumerate() {
                        let global_p = processors[local_p];
                        let t = &mut target.procs[global_p.index()];
                        t.compute.extend(phases.compute.iter().map(|c| match *c {
                            ComputePhaseStep::Compute(v) => ComputePhaseStep::Compute(to_global(v)),
                            ComputePhaseStep::Delete(v) => ComputePhaseStep::Delete(to_global(v)),
                        }));
                        t.save.extend(phases.save.iter().map(|&v| to_global(v)));
                        t.delete.extend(phases.delete.iter().map(|&v| to_global(v)));
                        t.load.extend(phases.load.iter().map(|&v| to_global(v)));
                    }
                }
            }
            for step in &stage_steps {
                combined.push_superstep(step);
                cached.apply_superstep_unchecked(
                    dag,
                    combined.superstep(combined.num_supersteps() - 1),
                );
            }
        }

        // Streamline the combined schedule. Saves of values needed by later parts
        // have already happened, so no extra required outputs are necessary here.
        combined.remove_empty_supersteps();
        post_optimize(&mut combined, dag, arch, CostModel::Synchronous, &[]);
        combined
    }

    /// The partition the scheduler would use for the given DAG (what
    /// `examples/divide_and_conquer.rs` prints).
    pub fn partition_for(&self, dag: &CompDag) -> mbsp_dag::AcyclicPartition {
        recursive_partition(dag, self.config.max_part_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_cache::{ClairvoyantPolicy, TwoStageScheduler};
    use mbsp_model::sync_cost;

    fn fast_config() -> DivideAndConquerConfig {
        DivideAndConquerConfig {
            max_part_size: 40,
            max_rounds: 3,
            moves_per_round: 20,
            ..Default::default()
        }
    }

    #[test]
    fn divide_and_conquer_schedules_are_valid() {
        let dnc = DivideAndConquerScheduler::with_config(fast_config());
        // Two mid-size instances from the small dataset sample.
        for inst in mbsp_gen::small_dataset_sample(42).into_iter().take(2) {
            let instance =
                MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 5.0);
            let schedule = dnc.schedule(&instance);
            schedule
                .validate(instance.dag(), instance.arch())
                .unwrap_or_else(|e| panic!("{}: {e}", instance.name()));
            let stats = schedule.statistics(instance.dag(), instance.arch());
            let non_sources = instance
                .dag()
                .nodes()
                .filter(|&v| !instance.dag().is_source(v))
                .count();
            assert!(stats.computes >= non_sources);
        }
    }

    #[test]
    fn divide_and_conquer_is_reasonable_on_partitionable_dags() {
        // On a tiny instance the combined schedule should not be wildly worse than
        // the plain two-stage baseline (the paper observes both wins and losses).
        let inst = mbsp_gen::tiny_dataset(42).remove(3); // spmv_N6
        let instance =
            MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0);
        let dnc = DivideAndConquerScheduler::with_config(DivideAndConquerConfig {
            max_part_size: 25,
            ..fast_config()
        });
        let schedule = dnc.schedule(&instance);
        schedule.validate(instance.dag(), instance.arch()).unwrap();
        let greedy = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());
        let baseline = TwoStageScheduler::new().schedule(
            instance.dag(),
            instance.arch(),
            &greedy,
            &ClairvoyantPolicy::new(),
        );
        let dnc_cost = sync_cost(&schedule, instance.dag(), instance.arch()).total;
        let base_cost = sync_cost(&baseline, instance.dag(), instance.arch()).total;
        assert!(
            dnc_cost <= base_cost * 2.5,
            "dnc {dnc_cost} vs baseline {base_cost}"
        );
    }

    #[test]
    fn partition_accessor_matches_size_limit() {
        let inst = mbsp_gen::small_dataset_sample(42).remove(2); // spmv_N25
        let dnc = DivideAndConquerScheduler::with_config(fast_config());
        let partition = dnc.partition_for(&inst.dag);
        for size in partition.part_sizes() {
            assert!(size <= 40);
        }
    }
}
