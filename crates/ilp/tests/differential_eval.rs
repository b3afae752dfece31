//! Differential tests of the incremental evaluation engine against the slow
//! reference path, mirroring the `dense::` oracle pattern of `lp_solver`:
//!
//! * the arena-backed conversion (`mbsp_cache::ConversionArena`) must be
//!   **operation-identical** to a freshly allocated converter
//!   (`mbsp_cache::two_stage::reference::convert`) — for the generic BSP path and
//!   for the canonical-assignment path, across random move sequences that
//!   exercise the arena's incremental sequence reuse;
//! * the engine's incrementally computed candidate cost must equal a full
//!   `sync_cost`/`async_cost` re-cost of the schedule it produced, after every
//!   move.
//!
//! The grid covers 100+ seeded cases: every tiny-dataset instance under two
//! dataset seeds, times all three BSP baselines (greedy BSPg, Cilk work stealing,
//! DFS), times both eviction policies (clairvoyant and LRU).

use mbsp_cache::two_stage::reference;
use mbsp_cache::{ClairvoyantPolicy, ConversionArena, EvictionPolicy, LruPolicy};
use mbsp_dag::{CompDag, DagLike, NodeId};
use mbsp_ilp::engine::{EvalPath, EvaluationEngine, Move};
use mbsp_ilp::improver::canonical_bsp;
use mbsp_ilp::shard::{part_view, topo_shards};
use mbsp_model::{
    async_cost, sync_cost, Architecture, CostModel, MbspInstance, MbspSchedule, ProcId,
};
use mbsp_sched::{BspScheduler, CilkScheduler, DfsScheduler, GreedyBspScheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DATASET_SEEDS: [u64; 2] = [42, 1717];
const MOVES_PER_CASE: usize = 6;

fn baselines() -> Vec<Box<dyn BspScheduler>> {
    vec![
        Box::new(GreedyBspScheduler::new()),
        Box::new(CilkScheduler::new()),
        Box::new(DfsScheduler::new()),
    ]
}

fn policies() -> Vec<Box<dyn EvictionPolicy>> {
    vec![
        Box::new(ClairvoyantPolicy::new()),
        Box::new(LruPolicy::new()),
    ]
}

fn instances(seed: u64) -> Vec<MbspInstance> {
    mbsp_gen::tiny_dataset(seed)
        .into_iter()
        .map(|inst| {
            MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
        })
        .collect()
}

/// The arena must reproduce the reference converter exactly — on the baseline's
/// own BSP result and on every assignment of a random move sequence, while being
/// reused (and thus exercising its incremental per-processor sequence reuse).
#[test]
fn arena_conversion_is_operation_identical_to_a_fresh_converter() {
    let mut cases = 0usize;
    for &dataset_seed in &DATASET_SEEDS {
        for instance in instances(dataset_seed) {
            let (dag, arch) = (instance.dag(), instance.arch());
            let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
            for scheduler in baselines() {
                let bsp = scheduler.schedule(dag, arch);
                for policy in policies() {
                    cases += 1;
                    let mut arena = ConversionArena::new(dag, arch);
                    let mut out = MbspSchedule::new(arch.processors);

                    // Generic path: the baseline's own superstep structure.
                    let oracle = reference::convert(dag, arch, &bsp, policy.as_ref(), &[]);
                    arena.convert(dag, arch, &bsp, policy.as_ref(), &[], &mut out);
                    assert_eq!(
                        out,
                        oracle,
                        "{}/{}/{}: generic conversion drifted",
                        instance.name(),
                        scheduler.name(),
                        policy.name()
                    );

                    // Canonical-assignment path under a replayed move sequence; the
                    // same arena is reused for every step so stale sequence state
                    // would be caught immediately.
                    let mut rng = StdRng::seed_from_u64(
                        dataset_seed ^ (cases as u64).wrapping_mul(0x9E37_79B9),
                    );
                    let mut procs: Vec<ProcId> =
                        dag.nodes().map(|v| bsp.schedule.proc_of(v)).collect();
                    for _ in 0..MOVES_PER_CASE {
                        if let Some(mv) = Move::propose(dag, arch, &procs, &movable, &mut rng) {
                            mv.apply(dag, &mut procs);
                        }
                        let canonical = canonical_bsp(dag, arch, &procs);
                        let oracle =
                            reference::convert(dag, arch, &canonical, policy.as_ref(), &[]);
                        arena.convert_assignment(dag, arch, &procs, policy.as_ref(), &[], &mut out);
                        assert_eq!(
                            out,
                            oracle,
                            "{}/{}/{}: assignment conversion drifted",
                            instance.name(),
                            scheduler.name(),
                            policy.name()
                        );
                    }
                }
            }
        }
    }
    assert!(
        cases >= 100,
        "expected 100+ differential cases, got {cases}"
    );
}

/// Replays `AT_SCALE_MOVES` seeded moves through **one** arena and checks after
/// every move that `convert_assignment` produces exactly the schedule the
/// from-scratch reference converter produces for the canonical BSP schedule of
/// the same assignment. At this size a conversion simulates hundreds to
/// thousands of supersteps, so the stamped blue set, the flat use index and
/// their per-processor incremental rebuild are compared against the snapshot
/// copy and the per-node position vectors of the oracle at every one of them.
fn replay_moves_against_the_reference<D: DagLike + ?Sized>(
    dag: &D,
    arch: &Architecture,
    seed_procs: &[ProcId],
    required: &[NodeId],
    label: &str,
) {
    const AT_SCALE_MOVES: usize = 50;
    let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
    for policy in policies() {
        let mut arena = ConversionArena::new(dag, arch);
        let mut out = MbspSchedule::new(arch.processors);
        let mut procs = seed_procs.to_vec();
        let mut rng = StdRng::seed_from_u64(0x0A75_CA1F);
        let mut moves = 0usize;
        while moves < AT_SCALE_MOVES {
            let Some(mv) = Move::propose(dag, arch, &procs, &movable, &mut rng) else {
                continue;
            };
            mv.apply(dag, &mut procs);
            moves += 1;
            let case = format!("{label}/{}/move {moves} ({mv:?})", policy.name());
            let canonical = canonical_bsp(dag, arch, &procs);
            let oracle = reference::convert(dag, arch, &canonical, policy.as_ref(), required);
            arena.convert_assignment(dag, arch, &procs, policy.as_ref(), required, &mut out);
            assert!(out == oracle, "{case}: the arena drifted from the oracle");
        }
    }
}

/// The whole DAG and one `SubDagView::with_inputs` shard of it (with its
/// non-empty required outputs), at the minimal and at the paper's cache size.
fn at_scale_differential(dag: CompDag) {
    let base = Architecture::new(4, 0.0, 1.0, 2.0);
    for cache_factor in [1.0, 3.0] {
        let instance = MbspInstance::with_cache_factor(dag.clone(), base, cache_factor);
        let (dag, arch) = (instance.dag(), instance.arch());
        let bsp = GreedyBspScheduler::new().schedule(dag, arch);
        let procs: Vec<ProcId> = dag.nodes().map(|v| bsp.schedule.proc_of(v)).collect();
        let label = format!("{} r={cache_factor}·r0", dag.name());
        replay_moves_against_the_reference(dag, arch, &procs, &[], &label);

        let partition = topo_shards(dag, 4);
        let parts = partition.parts();
        let (view, required) = part_view(dag, &partition, &parts[1], 1, "shard");
        assert!(view.num_inputs() > 0 && !required.is_empty());
        let shard_procs: Vec<ProcId> = (0..view.num_nodes())
            .map(|l| procs[view.to_global(NodeId::new(l)).index()])
            .collect();
        replay_moves_against_the_reference(
            &view,
            arch,
            &shard_procs,
            &required,
            &format!("{label} shard 1"),
        );
    }
}

#[test]
fn arena_matches_the_reference_at_scale_on_a_layered_random_dag() {
    let config = mbsp_gen::random::RandomDagConfig {
        layers: 25,
        width: 200,
        edge_probability: 3.0 / 200.0,
        max_compute: 4,
        max_memory: 3,
    };
    at_scale_differential(mbsp_gen::random::random_layered_dag(&config, 0x5CA1E));
}

#[test]
fn arena_matches_the_reference_at_scale_on_a_cg_dag() {
    at_scale_differential(mbsp_gen::cg::cg_dag("cg_n13_k4", 13, 4));
}

/// The engine's incremental candidate cost must match a full re-cost of the
/// schedule it produced, after every move, under both cost models; and the
/// incremental path must stay schedule-identical to the reference path.
#[test]
fn incremental_costs_match_full_recost_after_every_move() {
    for &dataset_seed in &DATASET_SEEDS {
        for instance in instances(dataset_seed) {
            let (dag, arch) = (instance.dag(), instance.arch());
            let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
            let bsp = GreedyBspScheduler::new().schedule(dag, arch);
            for cost_model in [CostModel::Synchronous, CostModel::Asynchronous] {
                let mut incremental = EvaluationEngine::new(&instance, EvalPath::Incremental);
                let mut oracle = EvaluationEngine::new(&instance, EvalPath::Reference);
                let mut rng = StdRng::seed_from_u64(dataset_seed.wrapping_add(99));
                let mut procs: Vec<ProcId> = dag.nodes().map(|v| bsp.schedule.proc_of(v)).collect();
                for _ in 0..MOVES_PER_CASE {
                    if let Some(mv) = Move::propose(dag, arch, &procs, &movable, &mut rng) {
                        mv.apply(dag, &mut procs);
                    }
                    let cost =
                        incremental.evaluate_assignment_on(dag, arch, &procs, cost_model, &[]);
                    // The incrementally maintained cost equals a full re-cost of
                    // the produced schedule...
                    let full = match cost_model {
                        CostModel::Synchronous => {
                            sync_cost(incremental.schedule(), dag, arch).total
                        }
                        CostModel::Asynchronous => async_cost(incremental.schedule(), dag, arch),
                    };
                    assert!(
                        (cost - full).abs() < 1e-9,
                        "{} {cost_model}: incremental {cost} vs full recost {full}",
                        instance.name()
                    );
                    // ...and the schedule (not just the cost) matches the
                    // clone-and-recost reference path.
                    let ref_cost =
                        oracle.evaluate_assignment_on(dag, arch, &procs, cost_model, &[]);
                    assert!((cost - ref_cost).abs() < 1e-9);
                    assert_eq!(incremental.schedule(), oracle.schedule());
                }
            }
        }
    }
}

/// Required outputs (the divide-and-conquer boundary condition) flow through the
/// arena path unchanged.
#[test]
fn required_outputs_are_respected_by_both_paths() {
    let instance = &instances(42)[4];
    let (dag, arch) = (instance.dag(), instance.arch());
    // Require some interior (non-sink) nodes to be persisted.
    let required: Vec<NodeId> = dag
        .nodes()
        .filter(|&v| !dag.is_source(v) && !dag.is_sink(v))
        .take(3)
        .collect();
    assert!(!required.is_empty());
    let bsp = GreedyBspScheduler::new().schedule(dag, arch);
    let procs: Vec<ProcId> = dag.nodes().map(|v| bsp.schedule.proc_of(v)).collect();
    let mut incremental = EvaluationEngine::new(instance, EvalPath::Incremental);
    let mut oracle = EvaluationEngine::new(instance, EvalPath::Reference);
    let a =
        incremental.evaluate_assignment_on(dag, arch, &procs, CostModel::Synchronous, &required);
    let b = oracle.evaluate_assignment_on(dag, arch, &procs, CostModel::Synchronous, &required);
    assert!((a - b).abs() < 1e-9);
    assert_eq!(incremental.schedule(), oracle.schedule());
    let boundary = mbsp_model::BoundaryCondition {
        required_outputs: required,
        require_sinks: true,
        ..Default::default()
    };
    incremental
        .schedule()
        .validate_with_boundary(dag, arch, &boundary)
        .expect("required outputs must be persisted");
}
