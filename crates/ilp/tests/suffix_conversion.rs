//! Differential tests of suffix re-conversion: a `ConversionArena` with a
//! base (`rebase`) restores a checkpoint and simulates only the supersteps a
//! candidate's difference from the base can change, copying the rest — and
//! must still produce exactly the schedule of a full conversion.
//!
//! On the two at-scale DAGs of `differential_eval.rs` (layered 25×200, CG
//! n13/k4), whole and as a `SubDagView::with_inputs` shard with required
//! outputs, at cache factors 1, 3 and 30: after every one of 50 seeded moves,
//! `based arena == fresh arena == reference::convert` (at 30·r0, where one
//! reference conversion takes about a second, the reference joins on every
//! fifth move), with the base replaced on every fifth move (so bases are
//! recorded relative to bases). Every run is in the breadth-first tie order
//! and, at cache factors 1 and 3, in the depth-first one too, the oracle's
//! canonical structure built in the arena's order. Identical
//! output cannot show that anything was skipped, so one more test pins the
//! skipped share of the production configuration.

use mbsp_cache::two_stage::reference;
use mbsp_cache::{ClairvoyantPolicy, ConversionArena};
use mbsp_dag::{CompDag, DagLike, NodeId, TopologicalOrder};
use mbsp_ilp::engine::{EvaluationEngine, Move};
use mbsp_ilp::improver::canonical_bsp;
use mbsp_ilp::shard::{part_view, topo_shards};
use mbsp_ilp::{ShardedHolisticScheduler, ShardedSearchConfig, TieOrder};
use mbsp_model::{Architecture, CostModel, MbspInstance, MbspSchedule, ProcId};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MOVES: usize = 50;
const REBASE_EVERY: usize = 5;

fn layered_dag() -> CompDag {
    let config = mbsp_gen::random::RandomDagConfig {
        layers: 25,
        width: 200,
        edge_probability: 3.0 / 200.0,
        max_compute: 4,
        max_memory: 3,
    };
    mbsp_gen::random::random_layered_dag(&config, 0x5CA1E)
}

/// A relocation of `node` to the processor after its current one.
fn relocate(node: NodeId, procs: &[ProcId], arch: &Architecture) -> Move {
    let to = ProcId::new((procs[node.index()].index() + 1) % arch.processors);
    Move::Relocate { node, to }
}

/// `(simulated, skipped)` supersteps of the arena so far.
fn counts(arena: &ConversionArena) -> (u64, u64) {
    (arena.simulated_supersteps(), arena.skipped_supersteps())
}

/// Replays `MOVES` candidates `base + move` through one based arena in the
/// tie order `order` and compares each with a fresh arena's full conversion and
/// — the three forced candidates and every `oracle_every`-th — with the
/// reference converter. Returns the based arena's `(simulated, skipped)`
/// supersteps.
fn replay_against_a_base<D: DagLike + ?Sized>(
    dag: &D,
    arch: &Architecture,
    seed_procs: &[ProcId],
    required: &[NodeId],
    oracle_every: usize,
    order: &[NodeId],
    label: &str,
) -> (u64, u64) {
    let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
    let topo = TopologicalOrder::of(dag);
    let mut rank = vec![0usize; dag.num_nodes()];
    for (i, v) in order.iter().enumerate() {
        rank[v.index()] = i;
    }
    // The first computed node of the tie order — the first entry of some
    // processor's sequence (read by superstep 0) — and the last of the
    // breadth-first one, in the last canonical superstep: a node nothing
    // before the end of the run reads.
    let first = *movable.iter().min_by_key(|v| rank[v.index()]).unwrap();
    let last = *movable.iter().max_by_key(|v| topo.position(**v)).unwrap();
    let arena = || {
        let mut arena = ConversionArena::new(dag, arch);
        arena.set_tie_order(order);
        arena
    };
    let mut based = arena();
    let mut out = MbspSchedule::new(arch.processors);
    let mut full = MbspSchedule::new(arch.processors);
    let mut base_procs = seed_procs.to_vec();
    based.rebase(dag, arch, &base_procs, required, &mut out);
    let mut rng = StdRng::seed_from_u64(0x5FF1_0001);
    let mut kinds = [0usize; 3];
    for step in 1..=MOVES {
        let mv = match step {
            7 => Some(relocate(first, &base_procs, arch)),
            8 => Some(relocate(last, &base_procs, arch)),
            // The base itself.
            9 => None,
            _ => loop {
                if let Some(mv) = Move::propose(dag, arch, &base_procs, &movable, &mut rng) {
                    break Some(mv);
                }
            },
        };
        let mut procs = base_procs.clone();
        if let Some(mv) = mv {
            mv.apply(dag, &mut procs);
            kinds[match mv {
                Move::Relocate { .. } => 0,
                Move::RelocateSiblings { .. } => 1,
                Move::Swap { .. } => 2,
            }] += 1;
        }
        let case = format!("{label}/move {step} ({mv:?})");

        let before = counts(&based);
        based.convert_assignment(dag, arch, &procs, required, &mut out);
        let after = counts(&based);
        match step {
            7 => assert_eq!(after.1, before.1, "{case}: skipped a superstep at d = 0"),
            8 => assert!(after.1 > before.1, "{case}: skipped nothing"),
            9 => assert_eq!(after.0, before.0, "{case}: simulated a superstep"),
            _ => {}
        }

        arena().convert_assignment(dag, arch, &procs, required, &mut full);
        assert!(out == full, "{case}: based and full conversion differ");
        if (7..=9).contains(&step) || step % oracle_every == 0 {
            let canonical = canonical_bsp(dag, arch, &procs, order);
            let oracle =
                reference::convert(dag, arch, &canonical, &ClairvoyantPolicy::new(), required);
            assert!(out == oracle, "{case}: the arena drifted from the oracle");
        }

        if step % REBASE_EVERY == 0 {
            // A rebase is a conversion too — recorded relative to the
            // previous base.
            based.rebase(dag, arch, &procs, required, &mut out);
            assert!(
                out == full,
                "{case}: the rebase differs from the full conversion"
            );
            base_procs = procs;
        }
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "{label}: move kinds {kinds:?}"
    );
    counts(&based)
}

/// The whole DAG and one `SubDagView::with_inputs` shard of it (with its
/// non-empty required outputs) at the minimal, the paper's and a generous
/// cache size, in `tie` (the shard's order built on its view, as a shard
/// search builds it). Returns the summed `(simulated, skipped)` supersteps of
/// the paper-size runs.
fn at_scale(dag: &CompDag, tie: TieOrder, cache_factors: &[f64]) -> (u64, u64) {
    let base = Architecture::new(4, 0.0, 1.0, 2.0);
    let mut paper_size = (0u64, 0u64);
    for &cache_factor in cache_factors {
        let instance = MbspInstance::with_cache_factor(dag.clone(), base, cache_factor);
        let (dag, arch) = (instance.dag(), instance.arch());
        // At 30·r0 every eviction trigger of the reference ranks a cache of
        // thousands of values (≈ 1 s per conversion): every fifth candidate
        // there, every candidate at the tight sizes.
        let oracle_every = if cache_factor > 3.0 { REBASE_EVERY } else { 1 };
        let bsp = GreedyBspScheduler::new().schedule(dag, arch);
        let procs: Vec<ProcId> = dag.nodes().map(|v| bsp.schedule.proc_of(v)).collect();
        let label = format!("{} r={cache_factor}·r0 {tie:?}", dag.name());
        let order = tie.of(dag);
        let whole = replay_against_a_base(dag, arch, &procs, &[], oracle_every, &order, &label);

        let partition = topo_shards(dag, 4);
        let parts = partition.parts();
        let (view, required) = part_view(dag, &partition, &parts[1], 1, "shard");
        assert!(view.num_inputs() > 0 && !required.is_empty());
        let shard_procs: Vec<ProcId> = (0..view.num_nodes())
            .map(|l| procs[view.to_global(NodeId::new(l)).index()])
            .collect();
        let shard = replay_against_a_base(
            &view,
            arch,
            &shard_procs,
            &required,
            oracle_every,
            &tie.of(&view),
            &format!("{label} shard 1"),
        );
        if cache_factor == 3.0 {
            paper_size = (whole.0 + shard.0, whole.1 + shard.1);
        }
    }
    paper_size
}

/// Every cache factor breadth-first; the depth-first order skips the generous
/// one, where the reference is slowest.
const BREADTH_FIRST_FACTORS: [f64; 3] = [1.0, 3.0, 30.0];
const DEPTH_FIRST_FACTORS: [f64; 2] = [1.0, 3.0];

#[test]
fn based_conversion_matches_full_and_reference_on_a_layered_random_dag() {
    let dag = layered_dag();
    for (tie, factors) in [
        (TieOrder::BreadthFirst, &BREADTH_FIRST_FACTORS[..]),
        (TieOrder::DepthFirst, &DEPTH_FIRST_FACTORS[..]),
    ] {
        let (simulated, skipped) = at_scale(&dag, tie, factors);
        // Identical schedules cannot show that the based path still skips
        // anything; a diff that went conservative (every candidate from
        // superstep 0) would pass everything above.
        let share = skipped as f64 / (skipped + simulated) as f64;
        assert!(
            share >= 0.30,
            "{tie:?}: skipped {skipped} of {} supersteps ({share:.3}) at r = 3·r0",
            skipped + simulated
        );
    }
}

#[test]
fn based_conversion_matches_full_and_reference_on_a_cg_dag() {
    let dag = mbsp_gen::cg::cg_dag("cg_n13_k4", 13, 4);
    at_scale(&dag, TieOrder::BreadthFirst, &BREADTH_FIRST_FACTORS);
    at_scale(&dag, TieOrder::DepthFirst, &DEPTH_FIRST_FACTORS);
}

/// A base recorded under one required-output set must not be used for a
/// conversion under another.
#[test]
fn a_base_is_only_used_under_the_parameters_it_was_recorded_with() {
    let named = mbsp_gen::tiny_dataset(42).remove(3);
    let instance =
        MbspInstance::with_cache_factor(named.dag, Architecture::paper_default(0.0), 3.0);
    let (dag, arch) = (instance.dag(), instance.arch());
    let bsp = GreedyBspScheduler::new().schedule(dag, arch);
    let procs: Vec<ProcId> = dag.nodes().map(|v| bsp.schedule.proc_of(v)).collect();
    let required: Vec<NodeId> = dag
        .nodes()
        .filter(|&v| !dag.is_source(v) && !dag.is_sink(v))
        .take(3)
        .collect();
    let clairvoyant = ClairvoyantPolicy::new();
    let mut arena = ConversionArena::new(dag, arch);
    let mut out = MbspSchedule::new(arch.processors);
    arena.rebase(dag, arch, &procs, &[], &mut out);
    let canonical = canonical_bsp(dag, arch, &procs, &TieOrder::BreadthFirst.of(dag));
    let skipped = arena.skipped_supersteps();
    arena.convert_assignment(dag, arch, &procs, &required, &mut out);
    assert_eq!(arena.skipped_supersteps(), skipped);
    assert_eq!(
        out,
        reference::convert(dag, arch, &canonical, &clairvoyant, &required)
    );
    // An explicit-BSP conversion clears the base.
    arena.convert(dag, arch, &bsp, &[], &mut out);
    let skipped = arena.skipped_supersteps();
    arena.convert_assignment(dag, arch, &procs, &[], &mut out);
    assert_eq!(arena.skipped_supersteps(), skipped);
    assert_eq!(
        out,
        reference::convert(dag, arch, &canonical, &clairvoyant, &[])
    );
    // So does a new tie order: the base was recorded in the old one.
    arena.rebase(dag, arch, &procs, &[], &mut out);
    let order = TieOrder::DepthFirst.of(dag);
    arena.set_tie_order(&order);
    let skipped = arena.skipped_supersteps();
    arena.convert_assignment(dag, arch, &procs, &[], &mut out);
    assert_eq!(arena.skipped_supersteps(), skipped);
    let canonical = canonical_bsp(dag, arch, &procs, &order);
    assert_eq!(
        out,
        reference::convert(dag, arch, &canonical, &clairvoyant, &[])
    );
}

/// The engine's rebase is not an evaluation, changes no cost and no schedule,
/// and the counters reach the search statistics.
#[test]
fn engine_rebase_changes_counters_only() {
    // Large enough that a shard's conversion passes several checkpoints.
    let config = mbsp_gen::random::RandomDagConfig {
        layers: 12,
        width: 40,
        edge_probability: 3.0 / 40.0,
        max_compute: 4,
        max_memory: 3,
    };
    let dag = mbsp_gen::random::random_layered_dag(&config, 0xBA5E);
    let instance = MbspInstance::with_cache_factor(dag, Architecture::paper_default(0.0), 3.0);
    let (dag, arch) = (instance.dag(), instance.arch());
    let baseline = GreedyBspScheduler::new().schedule(dag, arch);
    let procs: Vec<ProcId> = dag.nodes().map(|v| baseline.schedule.proc_of(v)).collect();
    let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
    let mut based = EvaluationEngine::new(&instance);
    let mut plain = EvaluationEngine::new(&instance);
    based.rebase(dag, arch, &procs, &[]);
    assert_eq!(based.evaluations, 0);
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..20 {
        let mut candidate = procs.clone();
        if let Some(mv) = Move::propose(dag, arch, &procs, &movable, &mut rng) {
            mv.apply(dag, &mut candidate);
        }
        let a = based.evaluate_assignment_on(dag, arch, &candidate, CostModel::Synchronous, &[]);
        let b = plain.evaluate_assignment_on(dag, arch, &candidate, CostModel::Synchronous, &[]);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(based.schedule(), plain.schedule());
    }
    assert_eq!(based.evaluations, plain.evaluations);
    assert!(based.skipped_supersteps() > 0);
    assert_eq!(plain.skipped_supersteps(), 0);

    let config = ShardedSearchConfig {
        num_shards: 2,
        workers: 1,
        max_rounds: 4,
        moves_per_round: 8,
        ..ShardedSearchConfig::default()
    };
    let (_, stats) =
        ShardedHolisticScheduler::with_config(config).schedule_with_stats(&instance, &baseline);
    assert!(stats.simulated_supersteps > 0 && stats.skipped_supersteps > 0);
}
