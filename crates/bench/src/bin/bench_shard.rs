//! Records the sharded-search benchmark baseline: the weight-aware iterated
//! sharded search (mass-balanced ILP shards → shard-local greedy seeds →
//! per-shard `EvaluationEngine` local searches → salvaging boundary-repaired
//! merge → re-partition with shifted cuts) against both the legacy topological
//! sharding of PR 5 and the single-incumbent holistic search, all at the
//! **same total candidate budget**, on the `large_dataset` instances — written
//! to `BENCH_shard.json`.
//!
//! All searches start from the same greedy BSP baseline and may spend up to
//! `TOTAL_MOVES` candidate evaluations. The single-incumbent search evaluates
//! every candidate against the whole graph (`O(V)` per conversion); both
//! sharded modes split the budget over `k` shards whose evaluations touch
//! only `O(V/k)` nodes. The weighted-iterated mode additionally spends part
//! of its budget on shard-local greedy seed candidates (one per shard per
//! iteration), so its hill-climb rounds are reduced to keep the total
//! candidate count identical to the legacy mode.
//!
//! Select what runs with `MBSP_BENCH_SHARD_MODE`: `legacy`, `weighted` or
//! `both` (default). Set `MBSP_BENCH_SHARD_QUICK=1` for the CI smoke run
//! (small instances, separate output file). The JSON schema is `{benchmark,
//! quick, mode, shards, total_move_budget, single_shape, legacy_shape,
//! weighted_shape, instances: [{name, nodes, edges, baseline_cost,
//! single_cost, single_seconds, single_evaluations, legacy: {cost, seconds,
//! seconds_1w, evaluations, identical_across_workers,
//! not_worse_than_baseline} | null, weighted: {cost, seconds, seconds_1w,
//! evaluations, iterations, salvaged_moves, cut_edges, shard_compute_mass,
//! identical_across_workers, not_worse_than_baseline, equal_or_better_than_legacy,
//! strictly_better_than_legacy} | null, sharded_cost, sharded_seconds,
//! speedup, equal_or_better, not_worse_than_baseline,
//! identical_across_workers}], geomean_speedup,
//! weighted_strictly_better_count}`. The flat `sharded_*`/`speedup` fields
//! describe the headline mode (weighted when it ran, legacy otherwise) so
//! downstream gates keep working across modes.

use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_gen::NamedInstance;
use mbsp_ilp::{
    EvalPath, EvaluationEngine, HolisticConfig, HolisticScheduler, ShardStrategy,
    ShardedHolisticScheduler, ShardedSearchConfig, ShardedSearchStats,
};
use mbsp_model::{Architecture, CostModel, MbspInstance, MbspSchedule};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use serde::Serialize;
use std::time::{Duration, Instant};

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

#[derive(Debug, Serialize)]
struct ShardedModeReport {
    cost: f64,
    seconds: f64,
    seconds_1w: f64,
    evaluations: u64,
    identical_across_workers: bool,
    not_worse_than_baseline: bool,
}

#[derive(Debug, Serialize)]
struct WeightedModeReport {
    base: ShardedModeReport,
    iterations: usize,
    salvaged_moves: u64,
    cut_edges: usize,
    shard_compute_mass: Vec<f64>,
    equal_or_better_than_legacy: Option<bool>,
    strictly_better_than_legacy: Option<bool>,
}

#[derive(Debug, Serialize)]
struct InstanceReport {
    name: String,
    nodes: usize,
    edges: usize,
    baseline_cost: f64,
    single_cost: f64,
    single_seconds: f64,
    single_evaluations: u64,
    legacy: Option<ShardedModeReport>,
    weighted: Option<WeightedModeReport>,
    // Headline fields (weighted when it ran, legacy otherwise) — the stable
    // surface the bench-regression gate keys on.
    sharded_cost: f64,
    sharded_seconds: f64,
    speedup: f64,
    equal_or_better: bool,
    not_worse_than_baseline: bool,
    identical_across_workers: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    benchmark: String,
    quick: bool,
    mode: String,
    shards: usize,
    total_move_budget: usize,
    single_shape: String,
    legacy_shape: String,
    weighted_shape: String,
    instances: Vec<InstanceReport>,
    geomean_speedup: f64,
    weighted_strictly_better_count: usize,
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v.max(1e-9).ln();
        count += 1;
    }
    if count == 0 {
        1.0
    } else {
        (sum / count as f64).exp()
    }
}

/// Runs one sharded configuration at 1 worker and 4 workers, asserting
/// validity and collecting the byte-identity flag.
fn run_sharded(
    instance: &MbspInstance,
    baseline: &mbsp_sched::BspSchedulingResult,
    baseline_cost: f64,
    config: &dyn Fn(usize) -> ShardedSearchConfig,
    label: &str,
    name: &str,
) -> (ShardedModeReport, ShardedSearchStats, MbspSchedule) {
    let start = Instant::now();
    let (w1, _) =
        ShardedHolisticScheduler::with_config(config(1)).schedule_with_stats(instance, baseline);
    let seconds_1w = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let (w4, stats) =
        ShardedHolisticScheduler::with_config(config(4)).schedule_with_stats(instance, baseline);
    let seconds = start.elapsed().as_secs_f64();
    let identical_across_workers = w1 == w4;
    w4.validate(instance.dag(), instance.arch())
        .unwrap_or_else(|e| panic!("{name}: {label} sharded schedule invalid: {e}"));
    let cost = stats.final_cost;
    let not_worse_than_baseline = cost <= baseline_cost + 1e-9 * (1.0 + baseline_cost.abs());
    eprintln!(
        "    {label} ({SHARDS} shards): cost {cost:.1}, {seconds:.2}s (1 worker: \
         {seconds_1w:.2}s), {} evals ({} supersteps simulated, {} skipped), {} improved / {} \
         accepted shards, {} salvaged moves, {} iterations",
        stats.evaluations,
        stats.simulated_supersteps,
        stats.skipped_supersteps,
        stats.improved_shards,
        stats.accepted_shards,
        stats.salvaged_moves,
        stats.iterations,
    );
    (
        ShardedModeReport {
            cost,
            seconds,
            seconds_1w,
            evaluations: stats.evaluations,
            identical_across_workers,
            not_worse_than_baseline,
        },
        stats,
        w4,
    )
}

fn main() {
    // "0", "" and "false" disable quick mode (the documented contract is `=1`).
    let quick = std::env::var("MBSP_BENCH_SHARD_QUICK")
        .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
        .unwrap_or(false);
    let mode = std::env::var("MBSP_BENCH_SHARD_MODE").unwrap_or_else(|_| "both".to_string());
    let (run_legacy, run_weighted) = match mode.as_str() {
        "legacy" => (true, false),
        "weighted" => (false, true),
        "both" | "" => (true, true),
        other => panic!("MBSP_BENCH_SHARD_MODE must be legacy|weighted|both, got {other:?}"),
    };

    let named: Vec<NamedInstance> = if quick {
        vec![
            NamedInstance {
                name: "rand_L10_W40_quick".to_string(),
                family: "random",
                dag: random_layered_dag(
                    &RandomDagConfig {
                        layers: 10,
                        width: 40,
                        edge_probability: 0.1,
                        ..Default::default()
                    },
                    7,
                ),
            },
            NamedInstance {
                name: "rand_L20_W50_quick".to_string(),
                family: "random",
                dag: random_layered_dag(
                    &RandomDagConfig {
                        layers: 20,
                        width: 50,
                        edge_probability: 0.08,
                        ..Default::default()
                    },
                    8,
                ),
            },
        ]
    } else {
        mbsp_gen::large_dataset(42)
    };

    let single_config = HolisticConfig {
        cost_model: CostModel::Synchronous,
        max_rounds: SINGLE_ROUNDS,
        moves_per_round: SINGLE_MOVES_PER_ROUND,
        time_limit: Duration::from_secs(3600),
        workers: 1,
        ..Default::default()
    };
    // The PR 5 baseline: equal node-count topological shards, no shard-local
    // seeds, one pass.
    let legacy_config = |workers: usize| ShardedSearchConfig {
        cost_model: CostModel::Synchronous,
        strategy: ShardStrategy::Topo,
        num_shards: SHARDS,
        workers,
        max_rounds: LEGACY_ROUNDS,
        moves_per_round: SHARD_MOVES_PER_ROUND,
        iterations: 1,
        shard_local_seed: false,
        time_limit: Duration::from_secs(3600),
        // Deep one-candidate rounds: one unlucky draw must not forfeit the
        // shard's remaining budget.
        stale_round_limit: 0,
        ..Default::default()
    };
    // The weight-aware iterated mode at the same total candidate count: each
    // shard's greedy seed candidate replaces one hill-climb round. The run
    // quotient's resolution scales with the instance: on the ≥10k-node
    // benchmark sizes a finer quotient (48 runs for 4 shards) is what lets
    // the partition ILP find cheap cuts aligned with the instance structure
    // (e.g. iteration boundaries of the iterated-SpMV family), while on the
    // small smoke instances the extra cuts are pure fragmentation.
    let weighted_config = |workers: usize, nodes: usize| ShardedSearchConfig {
        cost_model: CostModel::Synchronous,
        strategy: ShardStrategy::Weighted,
        num_shards: SHARDS,
        workers,
        max_rounds: WEIGHTED_ROUNDS,
        moves_per_round: SHARD_MOVES_PER_ROUND,
        iterations: WEIGHTED_ITERATIONS,
        shard_local_seed: true,
        runs_per_shard: if nodes >= 10_000 { 12 } else { 8 },
        time_limit: Duration::from_secs(3600),
        stale_round_limit: 0,
        ..Default::default()
    };

    // Iteration helper: run only the instances whose name contains the filter.
    let only = std::env::var("MBSP_BENCH_SHARD_ONLY").unwrap_or_default();

    let mut reports = Vec::new();
    for inst in named
        .iter()
        .filter(|i| only.is_empty() || i.name.contains(&only))
    {
        eprintln!(
            "== {} ({} nodes, {} edges)",
            inst.name,
            inst.dag.num_nodes(),
            inst.dag.num_edges()
        );
        let instance = MbspInstance::with_cache_factor(
            inst.dag.clone(),
            Architecture::paper_default(0.0),
            3.0,
        );
        let baseline = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());
        // The shared starting incumbent all searches improve on.
        let baseline_cost = {
            let mut engine = EvaluationEngine::new(&instance, EvalPath::Incremental);
            let procs: Vec<_> = instance
                .dag()
                .nodes()
                .map(|v| baseline.schedule.proc_of(v))
                .collect();
            let (dag, arch) = (instance.dag(), instance.arch());
            let a = engine.evaluate_assignment_on(dag, arch, &procs, CostModel::Synchronous, &[]);
            let b = engine.evaluate_bsp_on(dag, arch, &baseline, CostModel::Synchronous, &[]);
            a.min(b)
        };
        eprintln!("    baseline incumbent cost: {baseline_cost:.1}");

        let single = HolisticScheduler::with_config(single_config);
        let start = Instant::now();
        let (single_schedule, single_stats) =
            single.schedule_with_stats(&instance, &baseline, &[], EvalPath::Incremental);
        let single_seconds = start.elapsed().as_secs_f64();
        let single_cost = single_stats.final_cost;
        drop(single_schedule);
        eprintln!(
            "    single-incumbent: cost {single_cost:.1}, {single_seconds:.2}s, {} evals",
            single_stats.evaluations
        );

        let legacy = run_legacy.then(|| {
            run_sharded(
                &instance,
                &baseline,
                baseline_cost,
                &legacy_config,
                "legacy/topo",
                &inst.name,
            )
            .0
        });
        let weighted = run_weighted.then(|| {
            let nodes = instance.dag().num_nodes();
            let (base, stats, _) = run_sharded(
                &instance,
                &baseline,
                baseline_cost,
                &|workers| weighted_config(workers, nodes),
                "weighted-iterated",
                &inst.name,
            );
            let tol = |c: f64| 1e-9 * (1.0 + c.abs());
            let equal_or_better_than_legacy =
                legacy.as_ref().map(|l| base.cost <= l.cost + tol(l.cost));
            let strictly_better_than_legacy =
                legacy.as_ref().map(|l| base.cost < l.cost - tol(l.cost));
            WeightedModeReport {
                base,
                iterations: stats.iterations,
                salvaged_moves: stats.salvaged_moves,
                cut_edges: stats.cut_edges,
                shard_compute_mass: stats.shard_compute_mass,
                equal_or_better_than_legacy,
                strictly_better_than_legacy,
            }
        });

        // Headline mode for the stable gate surface.
        let (sharded_cost, sharded_seconds, not_worse, identical) = match (&weighted, &legacy) {
            (Some(w), _) => (
                w.base.cost,
                w.base.seconds,
                w.base.not_worse_than_baseline,
                w.base.identical_across_workers,
            ),
            (None, Some(l)) => (
                l.cost,
                l.seconds,
                l.not_worse_than_baseline,
                l.identical_across_workers,
            ),
            (None, None) => unreachable!("at least one sharded mode always runs"),
        };
        let equal_or_better = sharded_cost <= single_cost + 1e-9 * (1.0 + single_cost.abs());
        let speedup = single_seconds / sharded_seconds.max(1e-9);

        println!(
            "{:<18} {:>7} nodes   single {:>9.1}   legacy {:>9}   weighted {:>9}   ({:>5.2}x)   <=single: {}   ==workers: {}",
            inst.name,
            instance.dag().num_nodes(),
            single_cost,
            legacy
                .as_ref()
                .map_or("-".to_string(), |l| format!("{:.1}", l.cost)),
            weighted
                .as_ref()
                .map_or("-".to_string(), |w| format!("{:.1}", w.base.cost)),
            speedup,
            equal_or_better,
            identical,
        );
        reports.push(InstanceReport {
            name: inst.name.clone(),
            nodes: instance.dag().num_nodes(),
            edges: instance.dag().num_edges(),
            baseline_cost,
            single_cost,
            single_seconds,
            single_evaluations: single_stats.evaluations,
            legacy,
            weighted,
            sharded_cost,
            sharded_seconds,
            speedup,
            equal_or_better,
            not_worse_than_baseline: not_worse,
            identical_across_workers: identical,
        });
    }

    let geomean_speedup = geomean(reports.iter().map(|r| r.speedup));
    let weighted_strictly_better_count = reports
        .iter()
        .filter(|r| {
            r.weighted
                .as_ref()
                .and_then(|w| w.strictly_better_than_legacy)
                .unwrap_or(false)
        })
        .count();
    let report = Report {
        benchmark: "weight-aware iterated sharded search vs legacy topological sharding and \
                    single-incumbent search at equal candidate budget"
            .to_string(),
        quick,
        mode: mode.clone(),
        shards: SHARDS,
        total_move_budget: TOTAL_MOVES,
        single_shape: format!("{SINGLE_ROUNDS} rounds x {SINGLE_MOVES_PER_ROUND} moves"),
        legacy_shape: format!(
            "{SHARDS} shards x {LEGACY_ROUNDS} rounds x {SHARD_MOVES_PER_ROUND} moves"
        ),
        weighted_shape: format!(
            "{WEIGHTED_ITERATIONS} iterations x {SHARDS} shards x (1 seed + {WEIGHTED_ROUNDS} \
             rounds x {SHARD_MOVES_PER_ROUND} moves)"
        ),
        instances: reports,
        geomean_speedup,
        weighted_strictly_better_count,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    // Quick (CI smoke) runs must not clobber the recorded full baseline.
    let path = if quick {
        "BENCH_shard_quick.json"
    } else {
        "BENCH_shard.json"
    };
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("{path} is writable: {e}"));
    println!(
        "geomean speedup: {geomean_speedup:.2}x, weighted strictly better on \
         {weighted_strictly_better_count} instances -> {path}"
    );
    assert!(
        report.instances.iter().all(|r| r.identical_across_workers),
        "sharded search diverged across worker counts — see {path}"
    );
    assert!(
        report.instances.iter().all(|r| r.not_worse_than_baseline),
        "sharded search fell behind the shared baseline incumbent — see {path}"
    );
    // The full-run acceptance bar for the weighted-iterated mode: never worse
    // than the legacy sharding at the same candidate budget, strictly better
    // on at least half the dataset (the aggregate count only applies to an
    // unfiltered run).
    if !quick && run_legacy && run_weighted {
        for r in &report.instances {
            let w = r.weighted.as_ref().expect("weighted mode ran");
            assert!(
                w.equal_or_better_than_legacy.unwrap_or(true),
                "{}: weighted-iterated cost {:.1} fell behind the legacy sharding {:.1} — \
                 see {path}",
                r.name,
                w.base.cost,
                r.legacy.as_ref().map_or(f64::NAN, |l| l.cost)
            );
        }
        assert!(
            !only.is_empty() || weighted_strictly_better_count >= 3,
            "weighted-iterated mode strictly better on only \
             {weighted_strictly_better_count}/{} instances (need >= 3) — see {path}",
            report.instances.len()
        );
    }
    // The headline acceptance bar applies to the production-scale (100k-node)
    // instances of the full run: equal-or-better final cost than the
    // single-incumbent search at the same move budget, with at least a 2x
    // wall-clock win at 4 workers.
    if !quick {
        for r in report.instances.iter().filter(|r| r.nodes >= 100_000) {
            assert!(
                r.equal_or_better,
                "{}: sharded cost {:.1} fell behind the single-incumbent {:.1} — see {path}",
                r.name, r.sharded_cost, r.single_cost
            );
            assert!(
                r.speedup >= 2.0,
                "{}: sharded speedup {:.2}x below the 2x bar at 4 workers — see {path}",
                r.name,
                r.speedup
            );
        }
    }
}
