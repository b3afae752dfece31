//! The dirty-cone repair must be byte-identical for any worker count: dirty
//! shards are seeded by their *global* shard index and fold back through the
//! same total `(local cost delta, shard index)` merge order as the full
//! sharded search, so the worker pool only changes wall-clock, never results.
//! The repair is also never allowed to cost more than the stale incumbent's
//! assignment re-evaluated on the mutated DAG.

use mbsp_dag::{DagDelta, PkOrder};
use mbsp_gen::{mutation_stream, MutationStreamConfig};
use mbsp_ilp::{IncrementalScheduler, RepairConfig, ShardedSearchConfig};
use mbsp_model::{Architecture, MbspInstance, ProcId};
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

fn seed_procs(inst: &MbspInstance) -> Vec<ProcId> {
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    inst.dag()
        .nodes()
        .map(|v| baseline.schedule.proc_of(v))
        .collect()
}

fn repair_config(workers: usize) -> RepairConfig {
    RepairConfig {
        search: ShardedSearchConfig {
            num_shards: 4,
            workers,
            max_rounds: 4,
            moves_per_round: 12,
            ..Default::default()
        },
        cone_radius: 2,
    }
}

/// A reweight-only stream keeps node ids stable, so the exact same deltas can
/// be replayed into independently-constructed schedulers.
fn stream_for(inst: &MbspInstance, seed: u64) -> Vec<DagDelta> {
    let config = MutationStreamConfig {
        ops: 6,
        structural: false,
        ..Default::default()
    };
    mutation_stream(inst.dag(), &config, seed)
}

#[test]
fn repair_is_byte_identical_across_worker_counts() {
    for inst in instances(3) {
        let stream = stream_for(&inst, 11);
        let mut schedules = Vec::new();
        let mut stats_by_workers = Vec::new();
        for workers in [1usize, 4] {
            let mut sched = IncrementalScheduler::new(
                inst.dag().clone(),
                *inst.arch(),
                seed_procs(&inst),
                repair_config(workers),
            );
            sched.full_repair();
            for delta in &stream {
                sched.apply(delta).unwrap();
            }
            let (schedule, stats) = sched.repair();
            schedule.validate(sched.dag(), inst.arch()).unwrap();
            schedules.push(schedule);
            stats_by_workers.push(stats);
        }
        assert_eq!(
            schedules[0],
            schedules[1],
            "{}: 1-worker and 4-worker repairs diverged",
            inst.name()
        );
        let (s1, s4) = (&stats_by_workers[0], &stats_by_workers[1]);
        assert!((s1.final_cost - s4.final_cost).abs() < 1e-12);
        assert_eq!(s1.dirty_shards, s4.dirty_shards);
        assert_eq!(s1.accepted_shards, s4.accepted_shards);
        assert_eq!(s1.evaluations, s4.evaluations);
        assert_eq!(s1.tie_order, s4.tie_order);
    }
}

#[test]
fn repair_never_regresses_past_the_stale_incumbent() {
    for inst in instances(3) {
        for seed in 0..4u64 {
            let mut sched = IncrementalScheduler::new(
                inst.dag().clone(),
                *inst.arch(),
                seed_procs(&inst),
                repair_config(1),
            );
            sched.full_repair();
            for delta in stream_for(&inst, seed) {
                sched.apply(&delta).unwrap();
            }
            let (schedule, stats) = sched.repair();
            schedule.validate(sched.dag(), inst.arch()).unwrap();
            assert!(
                stats.final_cost <= stats.incumbent_cost + 1e-9,
                "{} seed {seed}: repair {} worse than stale incumbent {}",
                inst.name(),
                stats.final_cost,
                stats.incumbent_cost
            );
            assert!(stats.dirty_shards <= stats.shards);
            assert!(stats.cone_nodes >= stats.pending_nodes.min(sched.dag().num_nodes()));
        }
    }
}

#[test]
fn structural_streams_repair_cleanly_too() {
    // Structural deltas change node count; the repair engine must keep its
    // assignment side table in sync (swap-remove remaps) and still produce a
    // valid, worker-count-invariant schedule.
    let inst = &instances(3)[1];
    let config = MutationStreamConfig {
        ops: 12,
        ..Default::default()
    };
    for seed in 0..3u64 {
        // Generate against the live DAG state: replay the stream once to
        // produce it, then feed the same deltas to both schedulers.
        let stream = {
            let mut probe = inst.dag().clone();
            let mut order = PkOrder::of_dag(&probe);
            let stream = mutation_stream(&probe, &config, seed);
            for delta in &stream {
                probe.apply_delta(delta, &mut order).unwrap();
            }
            stream
        };
        let mut schedules = Vec::new();
        for workers in [1usize, 4] {
            let mut sched = IncrementalScheduler::new(
                inst.dag().clone(),
                *inst.arch(),
                seed_procs(inst),
                repair_config(workers),
            );
            for delta in &stream {
                sched.apply(delta).unwrap();
            }
            assert_eq!(sched.assignment().len(), sched.dag().num_nodes());
            let (schedule, stats) = sched.repair();
            schedule.validate(sched.dag(), inst.arch()).unwrap();
            assert!(stats.final_cost <= stats.incumbent_cost + 1e-9);
            schedules.push(schedule);
        }
        assert_eq!(
            schedules[0], schedules[1],
            "seed {seed}: structural repair diverged across worker counts"
        );
    }
}
