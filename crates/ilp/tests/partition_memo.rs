//! The warm session's partition memo: [`IncrementalScheduler`] remembers the
//! shard partitions it solved for its current DAG and serves them to later
//! `schedule` / `repair` calls. The memo may only ever skip work: a warm
//! session must be indistinguishable — schedules, costs, evaluation counts,
//! checkpoint bytes — from one rebuilt from its checkpoint before every
//! request (which always starts cold), and nothing but an unchanged DAG under
//! unchanged partition inputs may produce a hit.

use mbsp_dag::{DagDelta, NodeId, NodeWeights};
use mbsp_gen::{mutation_stream, MutationStreamConfig};
use mbsp_ilp::{
    IncrementalScheduler, RepairConfig, RepairStats, ShardStrategy, ShardedSearchConfig,
    ShardedSearchStats,
};
use mbsp_model::{Architecture, MbspInstance, MbspSchedule, ProcId};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};

/// The serving default (`iterations = 1`, four weighted shards) at a small
/// move budget; `workers: 0` so CI's `MBSP_BENCH_THREADS` sweep reaches it.
fn search_config() -> ShardedSearchConfig {
    ShardedSearchConfig {
        num_shards: 4,
        max_rounds: 3,
        moves_per_round: 8,
        ..Default::default()
    }
}

fn session_of(inst: mbsp_gen::NamedInstance) -> IncrementalScheduler {
    let inst = MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0);
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    let procs: Vec<ProcId> = inst
        .dag()
        .nodes()
        .map(|v| baseline.schedule.proc_of(v))
        .collect();
    let config = RepairConfig {
        search: search_config(),
        cone_radius: 2,
    };
    IncrementalScheduler::new(inst.dag().clone(), *inst.arch(), procs, config)
}

fn tiny_session() -> IncrementalScheduler {
    session_of(mbsp_gen::tiny_dataset(42).remove(2))
}

fn schedule(
    session: &mut IncrementalScheduler,
    config: &ShardedSearchConfig,
) -> (MbspSchedule, ShardedSearchStats) {
    let baseline = GreedyBspScheduler::new().schedule(session.dag(), session.arch());
    session.schedule(config, &baseline, None)
}

/// `(partitions_solved, partition_hits)` of a `schedule` under `config`.
fn solved_and_hits(
    session: &mut IncrementalScheduler,
    config: &ShardedSearchConfig,
) -> (usize, usize) {
    let (_, stats) = schedule(session, config);
    (stats.partitions_solved, stats.partition_hits)
}

/// The same session as a daemon would have it after `kill -9`: rebuilt from
/// its checkpoint, so its memo is empty.
fn restarted(session: &IncrementalScheduler) -> IncrementalScheduler {
    IncrementalScheduler::restore(&session.checkpoint()).expect("a session's own checkpoint")
}

fn assert_same_search(
    what: &str,
    warm: &(MbspSchedule, ShardedSearchStats),
    cold: &(MbspSchedule, ShardedSearchStats),
) {
    assert_eq!(warm.0, cold.0, "{what}: schedules differ");
    assert_eq!(warm.1.final_cost.to_bits(), cold.1.final_cost.to_bits());
    assert_eq!(warm.1.evaluations, cold.1.evaluations, "{what}");
    assert_eq!(warm.1.shard_compute_mass, cold.1.shard_compute_mass);
    assert_eq!(warm.1.cut_edges, cold.1.cut_edges, "{what}");
    assert_eq!(cold.1.partition_hits, 0, "{what}: a restarted session hit");
}

fn assert_same_repair(
    what: &str,
    warm: &(MbspSchedule, RepairStats),
    cold: &(MbspSchedule, RepairStats),
) {
    assert_eq!(warm.0, cold.0, "{what}: schedules differ");
    assert_eq!(warm.1.final_cost.to_bits(), cold.1.final_cost.to_bits());
    assert_eq!(warm.1.evaluations, cold.1.evaluations, "{what}");
    assert_eq!(warm.1.shards, cold.1.shards, "{what}");
    assert_eq!(warm.1.dirty_shards, cold.1.dirty_shards, "{what}");
    assert_eq!(cold.1.partition_hits, 0, "{what}: a restarted session hit");
}

/// The `tenants_small` request pattern: per pass one `schedule`, one batch of
/// eight seeded deltas, one `repair`.
#[test]
fn a_warm_session_equals_one_restarted_before_every_request() {
    let mut instances = mbsp_gen::tiny_dataset(42);
    let mut small = mbsp_gen::small_dataset_sample(42);
    instances.push(small.swap_remove(5)); // CG_N7_K2
    instances.push(small.swap_remove(0)); // simple_pagerank
    let config = search_config();
    let stream = MutationStreamConfig {
        ops: 8,
        ..Default::default()
    };
    for inst in instances {
        let name = inst.name.clone();
        let mut warm = session_of(inst);
        let mut cold = restarted(&warm);
        let (mut solved, mut hits) = (0, 0);
        for pass in 0..6u64 {
            let what = format!("{name} pass {pass}");
            let w = schedule(&mut warm, &config);
            cold = restarted(&cold);
            let c = schedule(&mut cold, &config);
            assert_same_search(&what, &w, &c);
            assert_eq!(warm.checkpoint(), cold.checkpoint(), "{what}: schedule");
            solved += w.1.partitions_solved;
            hits += w.1.partition_hits;

            for delta in mutation_stream(warm.dag(), &stream, 0xD17A + pass) {
                warm.apply(&delta).unwrap();
                cold.apply(&delta).unwrap();
            }
            let w = warm.repair();
            cold = restarted(&cold);
            let c = cold.repair();
            assert_same_repair(&what, &w, &c);
            assert_eq!(warm.checkpoint(), cold.checkpoint(), "{what}: repair");
            solved += w.1.partitions_solved;
            hits += w.1.partition_hits;
        }
        // Every `schedule` but the first runs on the DAG the `repair` before
        // it partitioned; every `repair` follows a delta batch.
        assert_eq!((solved, hits), (7, 5), "{name}");
    }
}

#[test]
fn every_iteration_is_remembered_and_every_delta_forgets_them_all() {
    let mut session = tiny_session();
    let config = ShardedSearchConfig {
        iterations: 2,
        ..search_config()
    };
    assert_eq!(solved_and_hits(&mut session, &config), (2, 0));
    assert_eq!(solved_and_hits(&mut session, &config), (0, 2));
    // A repair runs iteration 0's partition.
    let (_, stats) = session.full_repair();
    assert_eq!((stats.partitions_solved, stats.partition_hits), (0, 1));
    let v = NodeId::new(session.dag().num_nodes() / 2);
    let mut weights = session.dag().weights(v);
    weights.compute += 1.0;
    session
        .apply(&DagDelta::Reweight { node: v, weights })
        .unwrap();
    assert_eq!(solved_and_hits(&mut session, &config), (2, 0));
}

#[test]
fn each_delta_kind_alone_forces_a_resolve() {
    let mut session = tiny_session();
    let config = search_config();
    assert_eq!(solved_and_hits(&mut session, &config), (1, 0));
    let fresh = NodeId::new(session.dag().num_nodes());
    let parent = NodeId::new(0);
    let mid = NodeId::new(session.dag().num_nodes() / 2);
    let mut heavier = session.dag().weights(mid);
    heavier.compute += 2.0;
    let deltas = [
        DagDelta::AddNode {
            weights: NodeWeights::new(1.0, 1.0),
            label: None,
        },
        DagDelta::AddEdge {
            from: parent,
            to: fresh,
        },
        DagDelta::RemoveEdge {
            from: parent,
            to: fresh,
        },
        DagDelta::RemoveNode { node: fresh },
        DagDelta::Reweight {
            node: mid,
            weights: heavier,
        },
    ];
    for delta in &deltas {
        // Warm before the delta, cold after it, warm again afterwards.
        assert_eq!(solved_and_hits(&mut session, &config), (0, 1), "{delta:?}");
        session.apply(delta).unwrap();
        let mut cold = restarted(&session);
        let w = schedule(&mut session, &config);
        let c = schedule(&mut cold, &config);
        assert_eq!(
            (w.1.partitions_solved, w.1.partition_hits),
            (1, 0),
            "{delta:?}"
        );
        assert_same_search(&format!("{delta:?}"), &w, &c);
    }
}

#[test]
fn a_rejected_delta_leaves_the_dag_and_the_memo_valid() {
    let mut session = tiny_session();
    let config = search_config();
    assert_eq!(solved_and_hits(&mut session, &config), (1, 0));
    let before = session.checkpoint();
    // Node 0 has children: removing it is refused, nothing is touched.
    let refused = session.apply(&DagDelta::RemoveNode {
        node: NodeId::new(0),
    });
    assert!(refused.is_err());
    assert_eq!(session.checkpoint(), before);
    let mut cold = restarted(&session);
    let w = schedule(&mut session, &config);
    let c = schedule(&mut cold, &config);
    assert_eq!((w.1.partitions_solved, w.1.partition_hits), (0, 1));
    assert_same_search("after a rejected delta", &w, &c);
}

#[test]
fn overrides_never_hit_an_entry_solved_under_other_values() {
    let mut session = tiny_session();
    let base = search_config();
    assert_eq!(solved_and_hits(&mut session, &base), (1, 0));
    let overrides = [
        ShardedSearchConfig {
            num_shards: 3,
            ..base
        },
        ShardedSearchConfig {
            strategy: ShardStrategy::Topo,
            ..base
        },
        ShardedSearchConfig {
            runs_per_shard: 4,
            ..base
        },
        ShardedSearchConfig {
            mass_tolerance: 0.5,
            ..base
        },
    ];
    for config in &overrides {
        let mut cold = restarted(&session);
        let w = schedule(&mut session, config);
        let c = schedule(&mut cold, config);
        assert_eq!(
            (w.1.partitions_solved, w.1.partition_hits),
            (1, 0),
            "{config:?}"
        );
        assert_same_search(&format!("{config:?}"), &w, &c);
    }
    // A second iteration shares iteration 0 with the base request — the same
    // partition inputs — and solves only its own, shifted, partition.
    let two = ShardedSearchConfig {
        iterations: 2,
        ..base
    };
    let mut cold = restarted(&session);
    let w = schedule(&mut session, &two);
    let c = schedule(&mut cold, &two);
    assert_eq!((w.1.partitions_solved, w.1.partition_hits), (1, 1));
    assert_same_search("iterations = 2", &w, &c);
    // Nothing above displaced the base request's entry.
    assert_eq!(solved_and_hits(&mut session, &base), (0, 1));
}

#[test]
fn a_cloned_session_carries_a_usable_memo_of_its_own() {
    let mut session = tiny_session();
    let config = search_config();
    assert_eq!(solved_and_hits(&mut session, &config), (1, 0));
    let mut clone = session.clone();
    let w = schedule(&mut clone, &config);
    let c = schedule(&mut restarted(&session), &config);
    assert_eq!((w.1.partitions_solved, w.1.partition_hits), (0, 1));
    assert_same_search("clone", &w, &c);
    // The clone's deltas empty the clone's memo only.
    let v = NodeId::new(1);
    let mut weights = clone.dag().weights(v);
    weights.compute += 1.0;
    clone
        .apply(&DagDelta::Reweight { node: v, weights })
        .unwrap();
    assert_eq!(solved_and_hits(&mut clone, &config), (1, 0));
    assert_eq!(solved_and_hits(&mut session, &config), (0, 1));
}
