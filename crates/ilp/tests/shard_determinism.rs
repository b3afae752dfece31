//! The sharded holistic search must be byte-identical for any worker count:
//! shard searches are seeded per shard and the merge order is the total
//! `(local cost delta, shard index)` order, so the worker pool only changes
//! wall-clock, never results.

use mbsp_gen::{mutation_stream, MutationStreamConfig};
use mbsp_ilp::{
    IncrementalScheduler, RepairConfig, ShardStrategy, ShardedHolisticScheduler,
    ShardedSearchConfig, TieOrder,
};
use mbsp_model::{Architecture, MbspInstance};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};

fn instances(limit: usize) -> Vec<MbspInstance> {
    mbsp_gen::tiny_dataset(42)
        .into_iter()
        .take(limit)
        .map(|inst| {
            MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
        })
        .collect()
}

#[test]
fn sharded_search_is_byte_identical_across_worker_counts() {
    let greedy = GreedyBspScheduler::new();
    for inst in instances(4) {
        let baseline = greedy.schedule(inst.dag(), inst.arch());
        let mut schedules = Vec::new();
        let mut costs = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let sharded = ShardedHolisticScheduler::with_config(ShardedSearchConfig {
                num_shards: 4,
                workers,
                max_rounds: 4,
                moves_per_round: 12,
                ..Default::default()
            });
            let (schedule, stats) = sharded.schedule_with_stats(&inst, &baseline);
            schedule.validate(inst.dag(), inst.arch()).unwrap();
            schedules.push(schedule);
            costs.push(stats.final_cost);
        }
        assert_eq!(
            schedules[0],
            schedules[1],
            "{}: 1-worker and 2-worker sharded searches diverged",
            inst.name()
        );
        assert_eq!(
            schedules[0],
            schedules[2],
            "{}: 1-worker and 4-worker sharded searches diverged",
            inst.name()
        );
        assert_eq!(
            schedules[0],
            schedules[3],
            "{}: 1-worker and 8-worker sharded searches diverged (pool oversubscribed \
             beyond the shard count)",
            inst.name()
        );
        assert!((costs[0] - costs[1]).abs() < 1e-12);
        assert!((costs[0] - costs[2]).abs() < 1e-12);
        assert!((costs[0] - costs[3]).abs() < 1e-12);
    }
}

#[test]
fn weighted_iterated_search_is_byte_identical_across_worker_counts() {
    // The iterated weight-aware mode re-partitions around the merged incumbent
    // with shifted cut offsets; every iteration seeds shards from a
    // shard-local greedy baseline. None of that may depend on the pool size.
    let greedy = GreedyBspScheduler::new();
    for inst in instances(3) {
        let baseline = greedy.schedule(inst.dag(), inst.arch());
        let mut schedules = Vec::new();
        let mut stats_by_workers = Vec::new();
        for workers in [1usize, 4, 8] {
            let sharded = ShardedHolisticScheduler::with_config(ShardedSearchConfig {
                strategy: ShardStrategy::Weighted,
                num_shards: 3,
                workers,
                max_rounds: 3,
                moves_per_round: 8,
                iterations: 3,
                shard_local_seed: true,
                ..Default::default()
            });
            let (schedule, stats) = sharded.schedule_with_stats(&inst, &baseline);
            schedule.validate(inst.dag(), inst.arch()).unwrap();
            schedules.push(schedule);
            stats_by_workers.push(stats);
        }
        assert_eq!(
            schedules[0],
            schedules[1],
            "{}: 1-worker and 4-worker weighted-iterated searches diverged",
            inst.name()
        );
        assert_eq!(
            schedules[0],
            schedules[2],
            "{}: 1-worker and 8-worker weighted-iterated searches diverged",
            inst.name()
        );
        for s in &stats_by_workers {
            assert_eq!(s.iterations, 3, "{}", inst.name());
            assert!((s.final_cost - stats_by_workers[0].final_cost).abs() < 1e-12);
            assert_eq!(s.salvaged_moves, stats_by_workers[0].salvaged_moves);
            assert_eq!(s.shards, stats_by_workers[0].shards);
        }
    }
}

/// Each search picks its tie order from its seed, and every shard engine
/// builds that order on its own view: on the tiny dataset and a CG instance,
/// at four shards, the choice, the schedule and every statistic are the same
/// at 1, 2 and 8 workers — and both orders are chosen.
#[test]
fn the_tie_order_choice_and_the_search_are_identical_across_worker_counts() {
    let mut dags: Vec<_> = mbsp_gen::tiny_dataset(42)
        .into_iter()
        .map(|i| i.dag)
        .collect();
    dags.push(mbsp_gen::small_dataset_sample(42).swap_remove(5).dag); // CG_N7_K2
    let mut depth_first = 0usize;
    for dag in &dags {
        let inst =
            MbspInstance::with_cache_factor(dag.clone(), Architecture::paper_default(0.0), 3.0);
        let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
        let runs: Vec<_> = [1usize, 2, 8]
            .into_iter()
            .map(|workers| {
                let sharded = ShardedHolisticScheduler::with_config(ShardedSearchConfig {
                    num_shards: 4,
                    workers,
                    max_rounds: 3,
                    moves_per_round: 8,
                    ..Default::default()
                });
                let (schedule, stats) = sharded.schedule_with_stats(&inst, &baseline);
                (schedule, stats.tie_order, format!("{stats:?}"))
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{}: 1 and 2 workers", dag.name());
        assert_eq!(runs[0], runs[2], "{}: 1 and 8 workers", dag.name());
        depth_first += (runs[0].1 == TieOrder::DepthFirst) as usize;
    }
    assert!(
        0 < depth_first && depth_first < dags.len(),
        "{depth_first} of {} searches ran depth-first",
        dags.len()
    );
}

#[test]
fn sharded_search_stats_are_consistent() {
    let greedy = GreedyBspScheduler::new();
    let inst = &instances(4)[3];
    let baseline = greedy.schedule(inst.dag(), inst.arch());
    let sharded = ShardedHolisticScheduler::with_config(ShardedSearchConfig {
        num_shards: 3,
        workers: 2,
        max_rounds: 3,
        moves_per_round: 10,
        ..Default::default()
    });
    let (schedule, stats) = sharded.schedule_with_stats(&inst.clone(), &baseline);
    assert_eq!(stats.shards, 3);
    assert_eq!(stats.iterations, 1);
    assert_eq!(
        stats.shard_compute_mass.len(),
        3,
        "per-shard compute mass must cover the iteration-0 partition"
    );
    let total_mass: f64 = inst
        .dag()
        .nodes()
        .map(|v| inst.dag().compute_weight(v))
        .sum();
    let recorded: f64 = stats.shard_compute_mass.iter().sum();
    assert!((recorded - total_mass).abs() < 1e-6);
    assert!(stats.accepted_shards <= stats.improved_shards);
    assert!(stats.improved_shards <= stats.shards);
    // Global incumbent evaluations (the assignment in both tie orders, the
    // baseline's own structure) plus at least one evaluation per shard.
    assert!(stats.evaluations >= 3 + stats.shards as u64);
    let cost = mbsp_model::sync_cost(&schedule, inst.dag(), inst.arch()).total;
    assert!((cost - stats.final_cost).abs() < 1e-9);
}

/// The default shard count is chosen by the DAG's size, not by the host: on
/// paper-scale instances a session at `num_shards: 0` schedules and repairs
/// exactly as one at `num_shards: 1`, down to its statistics and its
/// checkpoint bytes (modulo the stored shard count). `workers: 0` resolves
/// from `MBSP_BENCH_THREADS`, so CI's sweep of that variable runs this at
/// several worker counts.
#[test]
fn the_default_shard_count_is_one_shard_on_a_small_instance() {
    let mut dags: Vec<_> = instances(3).into_iter().map(|i| i.dag().clone()).collect();
    dags.push(mbsp_gen::small_dataset_sample(42).swap_remove(5).dag); // CG_N7_K2
    let stream = MutationStreamConfig {
        ops: 8,
        ..Default::default()
    };
    for dag in dags {
        let inst = MbspInstance::with_cache_factor(dag, Architecture::paper_default(0.0), 3.0);
        let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
        let procs: Vec<_> = inst
            .dag()
            .nodes()
            .map(|v| baseline.schedule.proc_of(v))
            .collect();
        let run = |num_shards: usize| {
            let search = ShardedSearchConfig {
                num_shards,
                max_rounds: 8,
                ..Default::default()
            };
            let config = RepairConfig {
                search,
                cone_radius: 2,
            };
            let (dag, arch) = (inst.dag().clone(), *inst.arch());
            let mut session = IncrementalScheduler::new(dag, arch, procs.clone(), config);
            let (schedule, stats) = session.schedule(&search, &baseline, None);
            assert_eq!(stats.shards, 1, "{}", inst.name());
            for delta in mutation_stream(session.dag(), &stream, 0x5A4D) {
                session.apply(&delta).unwrap();
            }
            let (repaired, repair_stats) = session.repair();
            assert_eq!(repair_stats.shards, 1, "{}", inst.name());
            session.config_mut().search.num_shards = 1;
            (
                (schedule, format!("{stats:?}")),
                (repaired, format!("{repair_stats:?}")),
                session.checkpoint(),
            )
        };
        assert_eq!(run(0), run(1), "{}", inst.name());
    }
}
