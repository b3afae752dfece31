//! Differential tests of the incremental evaluation engine against its
//! ground truth, `mbsp_ilp::reference`, reached by name in the pattern of
//! `lp_solver::dense`:
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
//! The grid covers 100+ seeded cases: every tiny-dataset instance under three
//! dataset seeds, times all three BSP baselines (greedy BSPg, Cilk work
//! stealing, DFS), under the clairvoyant policy — the only order the arena
//! converts in (an LRU conversion runs on the reference converter itself).
//! Every canonical-assignment check runs in both tie orders a search chooses
//! between (`TieOrder`), the oracle's canonical structure built in the same
//! order the arena was set to.

use mbsp_cache::two_stage::reference;
use mbsp_cache::{ClairvoyantPolicy, ConversionArena};
use mbsp_dag::{CompDag, DagLike, NodeId};
use mbsp_ilp::engine::{EvaluationEngine, Move};
use mbsp_ilp::improver::canonical_bsp;
use mbsp_ilp::reference::{evaluate_assignment, evaluate_bsp};
use mbsp_ilp::shard::{part_view, topo_shards};
use mbsp_ilp::TieOrder;
use mbsp_model::{
    async_cost, sync_cost, Architecture, ComputePhaseStep, CostModel, MbspInstance, MbspSchedule,
    Operation, ProcId, ProcPhases, Superstep,
};
use mbsp_sched::{BspScheduler, CilkScheduler, DfsScheduler, GreedyBspScheduler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DATASET_SEEDS: [u64; 3] = [42, 1717, 2024];
const MOVES_PER_CASE: usize = 6;
const TIE_ORDERS: [TieOrder; 2] = [TieOrder::BreadthFirst, TieOrder::DepthFirst];

fn baselines() -> Vec<Box<dyn BspScheduler>> {
    vec![
        Box::new(GreedyBspScheduler::new()),
        Box::new(CilkScheduler::new()),
        Box::new(DfsScheduler::new()),
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
/// own BSP result and on every assignment of a random move sequence, in each tie
/// order, while being reused (and thus exercising its incremental per-processor
/// sequence reuse, and the reset a new tie order makes).
#[test]
fn arena_conversion_is_operation_identical_to_a_fresh_converter() {
    let mut cases = 0usize;
    for &dataset_seed in &DATASET_SEEDS {
        for instance in instances(dataset_seed) {
            let (dag, arch) = (instance.dag(), instance.arch());
            let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
            for scheduler in baselines() {
                let bsp = scheduler.schedule(dag, arch);
                cases += 1;
                let mut arena = ConversionArena::new(dag, arch);
                let mut out = MbspSchedule::new(arch.processors);

                // Generic path: the baseline's own superstep structure.
                let oracle = reference::convert(dag, arch, &bsp, &ClairvoyantPolicy::new(), &[]);
                arena.convert(dag, arch, &bsp, &[], &mut out);
                assert_eq!(
                    out,
                    oracle,
                    "{}/{}: generic conversion drifted",
                    instance.name(),
                    scheduler.name()
                );

                // Canonical-assignment path under a replayed move sequence, once
                // per tie order; the same arena is reused for every step so stale
                // sequence state would be caught immediately.
                for tie in TIE_ORDERS {
                    let order = tie.of(dag);
                    arena.set_tie_order(&order);
                    let mut rng = StdRng::seed_from_u64(
                        dataset_seed ^ (cases as u64).wrapping_mul(0x9E37_79B9),
                    );
                    let mut procs: Vec<ProcId> =
                        dag.nodes().map(|v| bsp.schedule.proc_of(v)).collect();
                    for _ in 0..MOVES_PER_CASE {
                        if let Some(mv) = Move::propose(dag, arch, &procs, &movable, &mut rng) {
                            mv.apply(dag, &mut procs);
                        }
                        let canonical = canonical_bsp(dag, arch, &procs, &order);
                        let policy = ClairvoyantPolicy::new();
                        let oracle = reference::convert(dag, arch, &canonical, &policy, &[]);
                        arena.convert_assignment(dag, arch, &procs, &[], &mut out);
                        assert_eq!(
                            out,
                            oracle,
                            "{}/{}/{tie:?}: assignment conversion drifted",
                            instance.name(),
                            scheduler.name()
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

/// Replays `AT_SCALE_MOVES` seeded moves through **one** arena, set to the tie
/// order `order`, and checks after every move that `convert_assignment`
/// produces exactly the schedule the from-scratch reference converter produces
/// for the canonical BSP schedule of the same assignment in the same order. At this size a conversion simulates hundreds to
/// thousands of supersteps, so the stamped blue set, the flat use index and
/// their per-processor incremental rebuild are compared against the snapshot
/// copy and the per-node position vectors of the oracle at every one of them.
fn replay_moves_against_the_reference<D: DagLike + ?Sized>(
    dag: &D,
    arch: &Architecture,
    seed_procs: &[ProcId],
    required: &[NodeId],
    order: &[NodeId],
    label: &str,
) {
    const AT_SCALE_MOVES: usize = 50;
    let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
    let mut arena = ConversionArena::new(dag, arch);
    arena.set_tie_order(order);
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
        let case = format!("{label}/move {moves} ({mv:?})");
        let canonical = canonical_bsp(dag, arch, &procs, order);
        let oracle = reference::convert(dag, arch, &canonical, &ClairvoyantPolicy::new(), required);
        arena.convert_assignment(dag, arch, &procs, required, &mut out);
        assert!(out == oracle, "{case}: the arena drifted from the oracle");
    }
}

/// The whole DAG and one `SubDagView::with_inputs` shard of it (with its
/// non-empty required outputs), at the minimal and at the paper's cache size,
/// in both tie orders (the shard's built on its view, as a shard search does).
fn at_scale_differential(dag: CompDag) {
    let base = Architecture::new(4, 0.0, 1.0, 2.0);
    for cache_factor in [1.0, 3.0] {
        let instance = MbspInstance::with_cache_factor(dag.clone(), base, cache_factor);
        let (dag, arch) = (instance.dag(), instance.arch());
        let bsp = GreedyBspScheduler::new().schedule(dag, arch);
        let procs: Vec<ProcId> = dag.nodes().map(|v| bsp.schedule.proc_of(v)).collect();
        let label = format!("{} r={cache_factor}·r0", dag.name());
        for tie in TIE_ORDERS {
            let label = format!("{label} {tie:?}");
            replay_moves_against_the_reference(dag, arch, &procs, &[], &tie.of(dag), &label);
        }

        let partition = topo_shards(dag, 4);
        let parts = partition.parts();
        let (view, required) = part_view(dag, &partition, &parts[1], 1, "shard");
        assert!(view.num_inputs() > 0 && !required.is_empty());
        let shard_procs: Vec<ProcId> = (0..view.num_nodes())
            .map(|l| procs[view.to_global(NodeId::new(l)).index()])
            .collect();
        for tie in TIE_ORDERS {
            replay_moves_against_the_reference(
                &view,
                arch,
                &shard_procs,
                &required,
                &tie.of(&view),
                &format!("{label} shard 1 {tie:?}"),
            );
        }
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
/// schedule it produced, after every move, under both cost models and in both
/// tie orders; and the incremental path must stay schedule-identical to the
/// reference path.
#[test]
fn incremental_costs_match_full_recost_after_every_move() {
    for &dataset_seed in &DATASET_SEEDS {
        for instance in instances(dataset_seed) {
            let (dag, arch) = (instance.dag(), instance.arch());
            let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
            let bsp = GreedyBspScheduler::new().schedule(dag, arch);
            let models = [CostModel::Synchronous, CostModel::Asynchronous];
            for (cost_model, tie) in models.into_iter().flat_map(|m| TIE_ORDERS.map(|t| (m, t))) {
                let order = tie.of(dag);
                let mut incremental = EvaluationEngine::new(&instance);
                incremental.set_tie_order(&order);
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
                    // clone-and-recost reference evaluation.
                    let (oracle, ref_cost) =
                        evaluate_assignment(dag, arch, &procs, &order, cost_model, &[]);
                    assert!((cost - ref_cost).abs() < 1e-9);
                    assert_eq!(incremental.schedule(), &oracle);
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
    let mut incremental = EvaluationEngine::new(instance);
    for tie in [TieOrder::DepthFirst, TieOrder::BreadthFirst] {
        let order = tie.of(dag);
        incremental.set_tie_order(&order);
        let model = CostModel::Synchronous;
        let a = incremental.evaluate_assignment_on(dag, arch, &procs, model, &required);
        let (oracle, b) = evaluate_assignment(dag, arch, &procs, &order, model, &required);
        assert!((a - b).abs() < 1e-9, "{tie:?}");
        assert_eq!(incremental.schedule(), &oracle, "{tie:?}");
    }
    let schedule = incremental.schedule();
    schedule
        .validate(dag, arch)
        .expect("the schedule validates");
    // A blue pebble is never removed, so a saved output is in slow memory at
    // the end.
    let saved: Vec<NodeId> = schedule
        .operations()
        .into_iter()
        .filter_map(|(_, op)| match op {
            Operation::Save { node, .. } => Some(node),
            _ => None,
        })
        .collect();
    for v in &required {
        assert!(saved.contains(v), "required output {v} is never saved");
    }
}

/// FNV-1a over one reference evaluation: the cost bits, then the schedule's
/// JSON form.
fn fold_evaluation(hash: u64, (schedule, cost): (MbspSchedule, f64)) -> u64 {
    let json = serde_json::to_string(&schedule).expect("schedules serialise");
    let bytes = cost.to_bits().to_le_bytes().into_iter().chain(json.bytes());
    bytes.fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// What [`REFERENCE_EVALUATIONS`] folds: on the first six `tiny_dataset(42)`
/// instances, under both cost models, the greedy baseline's own structure and
/// then the canonical structure, ties broken in `tie`, after each move of a
/// seeded walk.
fn reference_evaluations_hash(tie: TieOrder) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for instance in instances(42).iter().take(6) {
        let (dag, arch) = (instance.dag(), instance.arch());
        let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
        let bsp = GreedyBspScheduler::new().schedule(dag, arch);
        let order = tie.of(dag);
        for cost_model in [CostModel::Synchronous, CostModel::Asynchronous] {
            hash = fold_evaluation(hash, evaluate_bsp(dag, arch, &bsp, cost_model, &[]));
            let mut rng = StdRng::seed_from_u64(7);
            let mut procs: Vec<ProcId> = dag.nodes().map(|v| bsp.schedule.proc_of(v)).collect();
            for _ in 0..MOVES_PER_CASE {
                if let Some(mv) = Move::propose(dag, arch, &procs, &movable, &mut rng) {
                    mv.apply(dag, &mut procs);
                }
                let evaluation = evaluate_assignment(dag, arch, &procs, &order, cost_model, &[]);
                hash = fold_evaluation(hash, evaluation);
            }
        }
    }
    hash
}

/// [`reference_evaluations_hash`] in the breadth-first tie order, recorded
/// before the tie order was a parameter.
const REFERENCE_EVALUATIONS: u64 = 0xdfcf_0238_b7a2_0e21;
/// [`reference_evaluations_hash`] in the depth-first tie order.
const REFERENCE_EVALUATIONS_DEPTH_FIRST: u64 = 0xd95c_89fc_b8d9_e2da;

/// The oracle is pinned by value as well as by agreement: the engine is
/// checked against the reference, and the reference against these hashes, the
/// breadth-first one recorded through the engine's former reference path. A
/// change to the oracle — a move, a cleanup — that alters any schedule or cost
/// bit fails here even when the engine moved with it.
#[test]
fn the_reference_evaluation_reproduces_its_recorded_hash() {
    let hash = reference_evaluations_hash(TieOrder::BreadthFirst);
    assert_eq!(
        hash, REFERENCE_EVALUATIONS,
        "the reference evaluation moved: {hash:#018x}"
    );
    let hash = reference_evaluations_hash(TieOrder::DepthFirst);
    assert_eq!(
        hash, REFERENCE_EVALUATIONS_DEPTH_FIRST,
        "the depth-first reference evaluation moved: {hash:#018x}"
    );
}

/// The owned supersteps of `schedule`, read back through its views.
fn owned_steps(schedule: &MbspSchedule) -> Vec<Superstep> {
    schedule
        .supersteps()
        .map(|step| Superstep {
            procs: step
                .procs()
                .map(|ph| ProcPhases {
                    compute: ph.compute.to_vec(),
                    save: ph.save.to_vec(),
                    delete: ph.delete.to_vec(),
                    load: ph.load.to_vec(),
                })
                .collect(),
        })
        .collect()
}

/// Seeded damaged copies of `steps`, two of each kind: one operation dropped,
/// one load moved to the next superstep of its processor, and a save swapped
/// with a delete of the same processor and superstep (from its delete phase
/// or its compute phase).
fn damaged_variants(steps: &[Superstep], rng: &mut StdRng) -> Vec<(&'static str, Vec<Superstep>)> {
    let slots: Vec<(usize, usize)> = (0..steps.len())
        .flat_map(|s| (0..steps[s].procs.len()).map(move |p| (s, p)))
        .collect();
    // (superstep, processor, phase, index): phase 0..4 is compute, save,
    // delete, load.
    let ops: Vec<(usize, usize, usize, usize)> = slots
        .iter()
        .flat_map(|&(s, p)| {
            let ph = &steps[s].procs[p];
            let lens = [
                ph.compute.len(),
                ph.save.len(),
                ph.delete.len(),
                ph.load.len(),
            ];
            (0..4).flat_map(move |k| (0..lens[k]).map(move |i| (s, p, k, i)))
        })
        .collect();
    let later_loads: Vec<&(usize, usize, usize, usize)> = ops
        .iter()
        .filter(|&&(s, _, k, _)| k == 3 && s + 1 < steps.len())
        .collect();
    // (superstep, processor, save index, delete): a delete-phase index, or
    // `len + i` for compute step `i`, which is a delete.
    let swaps: Vec<(usize, usize, usize, usize)> = slots
        .iter()
        .flat_map(|&(s, p)| {
            let ph = &steps[s].procs[p];
            let in_compute = ph
                .compute
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.is_compute());
            let deletes: Vec<usize> = (0..ph.delete.len())
                .chain(in_compute.map(|(i, _)| ph.delete.len() + i))
                .collect();
            (0..ph.save.len())
                .flat_map(move |i| deletes.clone().into_iter().map(move |d| (s, p, i, d)))
        })
        .collect();
    let mut out = Vec::new();
    for _ in 0..2 {
        if !ops.is_empty() {
            let (s, p, k, i) = ops[rng.gen_range(0..ops.len())];
            let mut v = steps.to_vec();
            let ph = &mut v[s].procs[p];
            match k {
                0 => drop(ph.compute.remove(i)),
                1 => drop(ph.save.remove(i)),
                2 => drop(ph.delete.remove(i)),
                _ => drop(ph.load.remove(i)),
            }
            out.push(("drop", v));
        }
        if !later_loads.is_empty() {
            let &(s, p, _, i) = later_loads[rng.gen_range(0..later_loads.len())];
            let mut v = steps.to_vec();
            let node = v[s].procs[p].load.remove(i);
            v[s + 1].procs[p].load.insert(0, node);
            out.push(("late load", v));
        }
        if !swaps.is_empty() {
            let (s, p, i, d) = swaps[rng.gen_range(0..swaps.len())];
            let mut v = steps.to_vec();
            let ph = &mut v[s].procs[p];
            let saved = ph.save[i];
            let deleted = if d < ph.delete.len() {
                std::mem::replace(&mut ph.delete[d], saved)
            } else {
                let c = &mut ph.compute[d - ph.delete.len()];
                std::mem::replace(c, ComputePhaseStep::Delete(saved)).node()
            };
            ph.save[i] = deleted;
            out.push(("swap", v));
        }
    }
    out
}

/// `MbspSchedule::validate` against the oracle's replay on the two-stage
/// schedules of the seeded corpus and on damaged copies of them: the same
/// `Ok`, or the same first `ScheduleError`. The corpus includes DAGs of 264
/// to 464 nodes, so a node's parents span several 64-bit words.
#[test]
fn validation_matches_the_oracle_replay_on_damaged_schedules() {
    let mut corpus = instances(42);
    corpus.extend(instances(1717));
    corpus.extend(
        mbsp_gen::small_dataset_sample(42)
            .into_iter()
            .take(3)
            .map(|inst| {
                MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
            }),
    );
    assert!(corpus.iter().any(|inst| inst.dag().num_nodes() > 128));
    let mut rng = StdRng::seed_from_u64(0x0DA3_A6ED);
    let (mut cases, mut errors) = (0usize, std::collections::BTreeSet::new());
    for instance in &corpus {
        let (dag, arch) = (instance.dag(), instance.arch());
        for scheduler in baselines() {
            let bsp = scheduler.schedule(dag, arch);
            let schedule = reference::convert(dag, arch, &bsp, &ClairvoyantPolicy::new(), &[]);
            assert_eq!(schedule.validate(dag, arch), Ok(()));
            assert_eq!(
                mbsp_model::reference::validate(&schedule, dag, arch),
                Ok(())
            );
            for (kind, steps) in damaged_variants(&owned_steps(&schedule), &mut rng) {
                let damaged = MbspSchedule::from_supersteps(arch.processors, &steps).unwrap();
                let got = damaged.validate(dag, arch);
                let case = format!("{}/{}/{kind}", instance.name(), scheduler.name());
                assert_eq!(
                    got,
                    mbsp_model::reference::validate(&damaged, dag, arch),
                    "{case}"
                );
                if let Err(e) = got {
                    let name = format!("{e:?}");
                    errors.insert(name[..name.find([' ', '{']).unwrap_or(name.len())].to_string());
                }
                cases += 1;
            }
        }
    }
    assert!(cases >= 200, "expected 200+ damaged schedules, got {cases}");
    // The damage breaks every rule an in-range operation list can break
    // (nothing here computes a source).
    let every = [
        "DeleteWithoutRed",
        "LoadWithoutBlue",
        "MemoryBoundExceeded",
        "MissingParent",
        "MissingSink",
        "SaveWithoutRed",
    ];
    assert!(
        every.iter().all(|e| errors.contains(*e)),
        "only {errors:?} were hit"
    );
}
