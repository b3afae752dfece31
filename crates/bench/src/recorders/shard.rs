//! The `shard` recorder: the weight-aware iterated sharded search
//! (mass-balanced ILP shards → shard-local greedy seeds → per-shard
//! `EvaluationEngine` local searches → salvaging boundary-repaired merge →
//! re-partition with shifted cuts) against both the legacy topological
//! sharding of PR 5 and the single-incumbent holistic search — the same
//! search at one shard, from the baseline alone — all at the **same total
//! candidate budget**, on the `large_dataset` instances (`BENCH_shard.json`).
//!
//! All searches start from the same greedy BSP baseline and may spend up to
//! `TOTAL_MOVES` candidate evaluations (their seed and merge evaluations
//! come on top). The single-incumbent search evaluates every candidate against
//! the whole graph (`O(V)` per conversion); both
//! sharded modes split the budget over `k` shards whose evaluations touch
//! only `O(V/k)` nodes. The weighted-iterated mode additionally spends part
//! of its budget on shard-local greedy seed candidates (one per shard per
//! iteration), so its hill-climb rounds are reduced to keep the total
//! candidate count identical to the legacy mode.
//!
//! Both sharding modes always run (the report's `mode` is the constant
//! `"both"`); each runs at 1 and at 4 workers. The flat `sharded_*` /
//! `speedup` fields of a row describe the weighted mode. A quick run takes two
//! small layered DAGs.
//!
//! The `partition_*` fields of a row say what one weighted partition
//! (iteration 0 of the weighted mode) cost on that instance: its wall-clock,
//! the branch-and-bound nodes of its splits and whether a split stopped on a
//! limit. The report's `paper_scale_partitions` lists the same — and the
//! variables and rows of the root split's model — for the paper-scale
//! instances, split into the four shards an explicit `num_shards: 4` request
//! asks for (at the default shard count a DAG below 2,048 nodes is searched
//! as one shard and solves no partition). Both are per instance: the cost
//! is heavy-tailed (a split that runs into its node limit costs twenty times
//! the median), which a median over instances hides. A paper-scale partition
//! that stops on a limit fails the run (`paper_scale_untruncated`), quick or
//! full; on the large rows a truncated root split is recorded, not gated.
//!
//! Gated on every row: worker-count identity and
//! never-worse-than-baseline for each mode and for the headline, and the
//! weighted mode never behind the legacy one. `speedup` is not: on smoke-sized
//! instances the partition ILP is not amortised. Full-run bars: on the
//! 100k-node instances the sharded cost is equal or better than the
//! single-incumbent search's at ≥ 2× its wall-clock speed, and the weighted
//! mode is strictly better than the legacy one on at least three instances.

use crate::{field, geomean, large_or_quick, paper_instance, Fields, Recorder};
use mbsp_gen::NamedInstance;
use mbsp_ilp::{
    weighted_shards_solve, EvaluationEngine, ShardStrategy, ShardedHolisticScheduler,
    ShardedSearchConfig, ShardedSearchStats, SHARD_SPLIT_LIMITS,
};
use mbsp_model::{CostModel, MbspInstance};
use mbsp_sched::{BspScheduler, BspSchedulingResult, GreedyBspScheduler};
use serde::Serialize;
use std::time::Instant;

const SHARDS: usize = 4;
/// Shared candidate budget: every search may evaluate at most this many moves.
const TOTAL_MOVES: usize = 144;
/// Single-incumbent shape: few rounds, wide best-of-72 batches.
const SINGLE_ROUNDS: usize = 2;
const SINGLE_MOVES_PER_ROUND: usize = TOTAL_MOVES / SINGLE_ROUNDS;
/// Legacy sharded shape (the PR 5 baseline): one pass of deep
/// one-candidate-per-round hill climbs, `4 shards × 36 rounds × 1 move`.
const LEGACY_ROUNDS: usize = TOTAL_MOVES / SHARDS;
/// Weighted-iterated shape: two partition/search/merge passes. Each shard
/// spends one candidate on its shard-local greedy seed, so the hill climb
/// gets one round fewer and the total candidate count stays at `TOTAL_MOVES`:
/// `2 iterations × 4 shards × (1 seed + 17 rounds × 1 move) = 144`.
const WEIGHTED_ITERATIONS: usize = 2;
const WEIGHTED_ROUNDS: usize = TOTAL_MOVES / (SHARDS * WEIGHTED_ITERATIONS) - 1;
const _: () = assert!(SHARDS * WEIGHTED_ITERATIONS * (WEIGHTED_ROUNDS + 1) == TOTAL_MOVES);
const SHARD_MOVES_PER_ROUND: usize = 1;

/// The `shard` recorder.
#[derive(Default)]
pub(crate) struct Shard;

/// What both sharded modes report.
#[derive(Debug, Default, Serialize)]
pub(crate) struct ModeReport {
    cost: f64,
    seconds: f64,
    seconds_1w: f64,
    evaluations: u64,
    identical_across_workers: bool,
    not_worse_than_baseline: bool,
}

/// The weighted-iterated mode's report.
#[derive(Debug, Default, Serialize)]
pub(crate) struct WeightedReport {
    base: ModeReport,
    iterations: usize,
    salvaged_moves: u64,
    cut_edges: usize,
    shard_compute_mass: Vec<f64>,
    equal_or_better_than_legacy: bool,
    strictly_better_than_legacy: bool,
}

/// One row of `BENCH_shard.json`.
#[derive(Debug, Default, Serialize)]
pub(crate) struct Row {
    name: String,
    nodes: usize,
    edges: usize,
    baseline_cost: f64,
    single_cost: f64,
    single_seconds: f64,
    single_evaluations: u64,
    legacy: ModeReport,
    weighted: WeightedReport,
    sharded_cost: f64,
    sharded_seconds: f64,
    speedup: f64,
    equal_or_better: bool,
    not_worse_than_baseline: bool,
    identical_across_workers: bool,
    partition_ms: f64,
    partition_bnb_nodes: usize,
    partition_truncated: bool,
}

/// What one weighted partition cost on one instance: an entry of the report's
/// `paper_scale_partitions`, and the source of a row's `partition_*` fields.
#[derive(Debug, Serialize)]
struct PaperScalePartition {
    name: String,
    nodes: usize,
    partition_ms: f64,
    partition_bnb_nodes: usize,
    partition_truncated: bool,
    /// Size of the root split's model, the largest of the partition's solves.
    variables: usize,
    constraints: usize,
}

/// The relative slack of every cost comparison.
fn tol(cost: f64) -> f64 {
    1e-9 * (1.0 + cost.abs())
}

fn within(cost: f64, bound: f64) -> bool {
    cost <= bound + tol(bound)
}

/// The PR 5 baseline: equal node-count topological shards, no shard-local
/// seeds, one pass.
fn legacy_config(workers: usize) -> ShardedSearchConfig {
    ShardedSearchConfig {
        strategy: ShardStrategy::Topo,
        num_shards: SHARDS,
        workers,
        max_rounds: LEGACY_ROUNDS,
        moves_per_round: SHARD_MOVES_PER_ROUND,
        iterations: 1,
        shard_local_seed: false,
        // Deep one-candidate rounds: one unlucky draw must not forfeit the
        // shard's remaining budget.
        stale_round_limit: 0,
        ..Default::default()
    }
}

/// The weight-aware iterated mode at the same total candidate count: each
/// shard's greedy seed candidate replaces one hill-climb round. The run
/// quotient's resolution scales with the instance: on the ≥10k-node benchmark
/// sizes a finer quotient (48 runs for 4 shards) is what lets the partition
/// ILP find cheap cuts aligned with the instance structure (e.g. iteration
/// boundaries of the iterated-SpMV family), while on the small smoke
/// instances the extra cuts are pure fragmentation.
fn weighted_config(workers: usize, nodes: usize) -> ShardedSearchConfig {
    ShardedSearchConfig {
        strategy: ShardStrategy::Weighted,
        max_rounds: WEIGHTED_ROUNDS,
        iterations: WEIGHTED_ITERATIONS,
        shard_local_seed: true,
        runs_per_shard: if nodes >= 10_000 { 12 } else { 8 },
        ..legacy_config(workers)
    }
}

/// Times iteration 0's partition of the weighted mode on `named`.
fn timed_partition(named: &NamedInstance) -> PaperScalePartition {
    let nodes = named.dag.num_nodes();
    let config = weighted_config(1, nodes);
    let start = Instant::now();
    let (_, solve) = weighted_shards_solve(
        &named.dag,
        SHARDS,
        config.runs_per_shard,
        config.mass_tolerance,
        0.0,
        SHARD_SPLIT_LIMITS,
        None,
    );
    PaperScalePartition {
        name: named.name.clone(),
        nodes,
        partition_ms: start.elapsed().as_secs_f64() * 1e3,
        partition_bnb_nodes: solve.bnb_nodes,
        partition_truncated: solve.truncated,
        variables: solve.root_variables,
        constraints: solve.root_constraints,
    }
}

/// Runs one sharded configuration at 1 worker and at 4 workers.
fn run_sharded(
    instance: &MbspInstance,
    baseline: &BspSchedulingResult,
    baseline_cost: f64,
    config: impl Fn(usize) -> ShardedSearchConfig,
    label: &str,
) -> (ModeReport, ShardedSearchStats) {
    let start = Instant::now();
    let (w1, _) =
        ShardedHolisticScheduler::with_config(config(1)).schedule_with_stats(instance, baseline);
    let seconds_1w = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let (w4, stats) =
        ShardedHolisticScheduler::with_config(config(4)).schedule_with_stats(instance, baseline);
    let seconds = start.elapsed().as_secs_f64();
    w4.validate(instance.dag(), instance.arch())
        .unwrap_or_else(|e| panic!("{}: {label} schedule invalid: {e}", instance.name()));
    eprintln!(
        "    {label}: cost {:.1}, {seconds:.2}s (1 worker: {seconds_1w:.2}s), {} evals ({} \
         supersteps simulated, {} skipped), {} improved / {} accepted shards, {} salvaged moves",
        stats.final_cost,
        stats.evaluations,
        stats.simulated_supersteps,
        stats.skipped_supersteps,
        stats.improved_shards,
        stats.accepted_shards,
        stats.salvaged_moves,
    );
    let report = ModeReport {
        cost: stats.final_cost,
        seconds,
        seconds_1w,
        evaluations: stats.evaluations,
        identical_across_workers: w1 == w4,
        not_worse_than_baseline: within(stats.final_cost, baseline_cost),
    };
    (report, stats)
}

/// On how many instances the weighted mode beat the legacy one outright.
fn strictly_better(rows: &[Row]) -> usize {
    rows.iter()
        .filter(|r| r.weighted.strictly_better_than_legacy)
        .count()
}

impl Recorder for Shard {
    type Instance = NamedInstance;
    type Row = Row;
    const NAME: &'static str = "shard";
    const BENCHMARK: &'static str = "weight-aware iterated sharded search vs legacy topological \
        sharding and single-incumbent search at equal candidate budget";
    const FLAGS: &'static [&'static str] = &[
        "not_worse_than_baseline",
        "identical_across_workers",
        "legacy.not_worse_than_baseline",
        "legacy.identical_across_workers",
        "weighted.base.not_worse_than_baseline",
        "weighted.base.identical_across_workers",
        "weighted.equal_or_better_than_legacy",
    ];
    const TIMINGS: &'static [&'static str] = &["single_seconds", "sharded_seconds"];
    const SUMMARY_FLAGS: &'static [&'static str] = &["paper_scale_untruncated"];

    fn instances(&self, quick: bool) -> Vec<NamedInstance> {
        large_or_quick(quick, [(10, 40, 0.1, 7), (20, 50, 0.08, 8)])
    }

    fn name(named: &NamedInstance) -> &str {
        &named.name
    }

    fn measure(&self, named: &NamedInstance) -> Row {
        let instance = paper_instance(named);
        let (dag, arch) = (instance.dag(), instance.arch());
        let baseline = GreedyBspScheduler::new().schedule(dag, arch);
        // The shared starting incumbent all searches improve on.
        let baseline_cost = {
            let mut engine = EvaluationEngine::new(&instance);
            let procs: Vec<_> = dag.nodes().map(|v| baseline.schedule.proc_of(v)).collect();
            let a = engine.evaluate_assignment_on(dag, arch, &procs, CostModel::Synchronous, &[]);
            let b = engine.evaluate_bsp_on(dag, arch, &baseline, CostModel::Synchronous, &[]);
            a.min(b)
        };

        let single = ShardedHolisticScheduler::with_config(ShardedSearchConfig {
            num_shards: 1,
            workers: 1,
            max_rounds: SINGLE_ROUNDS,
            moves_per_round: SINGLE_MOVES_PER_ROUND,
            shard_local_seed: false,
            ..Default::default()
        });
        let start = Instant::now();
        let (_, single_stats) = single.schedule_with_stats(&instance, &baseline);
        let single_seconds = start.elapsed().as_secs_f64();
        let single_cost = single_stats.final_cost;
        eprintln!(
            "    baseline {baseline_cost:.1}; single-incumbent: cost {single_cost:.1}, \
             {single_seconds:.2}s, {} evals",
            single_stats.evaluations
        );

        let (legacy, _) = run_sharded(
            &instance,
            &baseline,
            baseline_cost,
            legacy_config,
            "legacy/topo",
        );
        let nodes = dag.num_nodes();
        let partition = timed_partition(named);
        let (base, stats) = run_sharded(
            &instance,
            &baseline,
            baseline_cost,
            |workers| weighted_config(workers, nodes),
            "weighted-iterated",
        );
        Row {
            name: named.name.clone(),
            nodes,
            edges: dag.num_edges(),
            baseline_cost,
            single_cost,
            single_seconds,
            single_evaluations: single_stats.evaluations,
            sharded_cost: base.cost,
            sharded_seconds: base.seconds,
            speedup: single_seconds / base.seconds.max(1e-9),
            equal_or_better: within(base.cost, single_cost),
            not_worse_than_baseline: base.not_worse_than_baseline,
            identical_across_workers: base.identical_across_workers,
            partition_ms: partition.partition_ms,
            partition_bnb_nodes: partition.partition_bnb_nodes,
            partition_truncated: partition.partition_truncated,
            weighted: WeightedReport {
                iterations: stats.iterations,
                salvaged_moves: stats.salvaged_moves,
                cut_edges: stats.cut_edges,
                shard_compute_mass: stats.shard_compute_mass,
                equal_or_better_than_legacy: within(base.cost, legacy.cost),
                strictly_better_than_legacy: base.cost < legacy.cost - tol(legacy.cost),
                base,
            },
            legacy,
        }
    }

    fn header(&self) -> Fields {
        let legacy_shape =
            format!("{SHARDS} shards x {LEGACY_ROUNDS} rounds x {SHARD_MOVES_PER_ROUND} moves");
        let weighted_shape = format!(
            "{WEIGHTED_ITERATIONS} iterations x {SHARDS} shards x (1 seed + {WEIGHTED_ROUNDS} \
             rounds x {SHARD_MOVES_PER_ROUND} moves)"
        );
        vec![
            field("mode", "both"),
            field("shards", SHARDS),
            field("total_move_budget", TOTAL_MOVES),
            field(
                "single_shape",
                format!("{SINGLE_ROUNDS} rounds x {SINGLE_MOVES_PER_ROUND} moves"),
            ),
            field("legacy_shape", legacy_shape),
            field("weighted_shape", weighted_shape),
        ]
    }

    fn summary(&self, rows: &[Row]) -> Fields {
        let speedup = geomean(rows.iter().map(|r| r.speedup));
        let better = strictly_better(rows);
        // The instances of `bench_e2e`'s `tenants_small` workload.
        let mut paper_scale = mbsp_gen::small_dataset_sample(42);
        paper_scale.extend(mbsp_gen::tiny_dataset(42).into_iter().take(3));
        let partitions: Vec<PaperScalePartition> =
            paper_scale.iter().map(timed_partition).collect();
        let untruncated = partitions.iter().all(|p| !p.partition_truncated);
        vec![
            field("geomean_speedup", speedup),
            field("weighted_strictly_better_count", better),
            field("paper_scale_untruncated", untruncated),
            field("paper_scale_partitions", partitions),
        ]
    }

    fn full_bars(&self, rows: &[Row]) -> Vec<String> {
        let mut violations = Vec::new();
        let better = strictly_better(rows);
        if better < 3 {
            violations.push(format!(
                "shard: weighted-iterated mode strictly better on only {better}/{} instances \
                 (need >= 3)",
                rows.len()
            ));
        }
        // The headline bar applies to the production-scale instances: equal or
        // better final cost than the single-incumbent search at the same move
        // budget, with at least a 2x wall-clock win at 4 workers.
        for r in rows.iter().filter(|r| r.nodes >= 100_000) {
            if !r.equal_or_better {
                violations.push(format!(
                    "shard: {}: sharded cost {:.1} fell behind the single-incumbent {:.1}",
                    r.name, r.sharded_cost, r.single_cost
                ));
            }
            if r.speedup < 2.0 {
                violations.push(format!(
                    "shard: {}: sharded speedup {:.2}x below the 2x bar at 4 workers",
                    r.name, r.speedup
                ));
            }
        }
        violations
    }
}
