//! Records the improver benchmark baseline: the incremental evaluation engine
//! (arena-backed conversion + incremental cost deltas) vs. the pre-engine
//! clone-and-recost reference path, written to `BENCH_improver.json`.
//!
//! Both paths run the *same* seeded search at the same move budget — the engine
//! is operation-identical to the reference, so the two trajectories visit the
//! same candidates and end at the same schedule; only the evaluation machinery
//! differs. The recorded metric is candidate evaluations per second, plus the
//! final holistic cost of each path (which must agree). A third column records
//! the engine with its parallel evaluation workers enabled (the production
//! configuration), on the same move budget.
//!
//! Set `MBSP_BENCH_IMPROVER_QUICK=1` for the CI smoke run (fewer instances, a
//! smaller move budget, and a separate output file). The JSON schema is
//! `{benchmark, quick, instances: [{name, nodes, evaluations, reference_evals_per_sec,
//! engine_evals_per_sec, speedup, parallel_workers, parallel_evals_per_sec,
//! parallel_speedup, engine_cost, reference_cost, costs_match}],
//! geomean_speedup, geomean_parallel_speedup}`.

use mbsp_gen::NamedInstance;
use mbsp_ilp::{EvalPath, HolisticConfig, HolisticScheduler};
use mbsp_model::{Architecture, CostModel, MbspInstance};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use serde::Serialize;
use std::time::Duration;

#[derive(Debug, Serialize)]
struct InstanceReport {
    name: String,
    nodes: usize,
    evaluations: u64,
    reference_evals_per_sec: f64,
    engine_evals_per_sec: f64,
    speedup: f64,
    parallel_workers: usize,
    parallel_evals_per_sec: f64,
    parallel_speedup: f64,
    engine_cost: f64,
    reference_cost: f64,
    costs_match: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    benchmark: String,
    quick: bool,
    instances: Vec<InstanceReport>,
    geomean_speedup: f64,
    geomean_parallel_speedup: f64,
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

fn main() {
    // "0", "" and "false" disable quick mode (the documented contract is `=1`).
    let quick = std::env::var("MBSP_BENCH_IMPROVER_QUICK")
        .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
        .unwrap_or(false);

    // The search budget is fixed in moves, not wall-clock: the time limit is far
    // above what either path needs, so both trajectories run the identical
    // candidate sequence to completion.
    let config = HolisticConfig {
        cost_model: CostModel::Synchronous,
        max_rounds: if quick { 4 } else { 10 },
        moves_per_round: if quick { 30 } else { 90 },
        time_limit: Duration::from_secs(600),
        seed: 0x5EED,
        workers: 1,
    };
    let parallel_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let parallel_config = HolisticConfig {
        workers: parallel_workers,
        ..config
    };

    // The tiny dataset plus, in full mode, a slice of the small dataset: the
    // engine exists for benchmark-sized instances, so the recorded baseline
    // must include them (the quick smoke run stays on the tiny instances).
    let dataset = mbsp_gen::tiny_dataset(42);
    let take = if quick { 3 } else { dataset.len() };
    let mut named: Vec<NamedInstance> = dataset.into_iter().take(take).collect();
    if !quick {
        named.extend(mbsp_gen::small_dataset_sample(42).into_iter().take(4));
    }
    let greedy = GreedyBspScheduler::new();

    let mut reports = Vec::new();
    for inst in &named {
        let instance = MbspInstance::with_cache_factor(
            inst.dag.clone(),
            Architecture::paper_default(0.0),
            3.0,
        );
        let baseline = greedy.schedule(instance.dag(), instance.arch());

        // Identical trajectories make the searches repeatable, so take the
        // fastest of `reps` runs per path (the standard defence against
        // scheduler interference on shared machines; bench_solver takes the
        // median of 3 for the same reason).
        let reps = if quick { 1 } else { 5 };
        let best_of = |config: HolisticConfig, path: EvalPath| {
            let scheduler = HolisticScheduler::with_config(config);
            let mut best = None;
            for _ in 0..reps {
                let (schedule, stats) =
                    scheduler.schedule_with_stats(&instance, &baseline, &[], path);
                let faster = match &best {
                    None => true,
                    Some((_, prev)) => {
                        let prev: &mbsp_ilp::SearchStats = prev;
                        stats.elapsed < prev.elapsed
                    }
                };
                if faster {
                    best = Some((schedule, stats));
                }
            }
            best.expect("at least one repetition")
        };
        let (ref_schedule, ref_stats) = best_of(config, EvalPath::Reference);
        let (eng_schedule, eng_stats) = best_of(config, EvalPath::Incremental);
        let (par_schedule, par_stats) = best_of(parallel_config, EvalPath::Incremental);

        ref_schedule
            .validate(instance.dag(), instance.arch())
            .expect("reference schedule");
        eng_schedule
            .validate(instance.dag(), instance.arch())
            .expect("engine schedule");
        par_schedule
            .validate(instance.dag(), instance.arch())
            .expect("parallel schedule");

        let ref_eps = ref_stats.evaluations as f64 / ref_stats.elapsed.as_secs_f64().max(1e-9);
        let eng_eps = eng_stats.evaluations as f64 / eng_stats.elapsed.as_secs_f64().max(1e-9);
        let par_eps = par_stats.evaluations as f64 / par_stats.elapsed.as_secs_f64().max(1e-9);
        let costs_match = (eng_stats.final_cost - ref_stats.final_cost).abs()
            <= 1e-9 * (1.0 + ref_stats.final_cost.abs())
            && (par_stats.final_cost - ref_stats.final_cost).abs()
                <= 1e-9 * (1.0 + ref_stats.final_cost.abs());
        println!(
            "{:<16} {:>5} nodes  {:>6} evals ({} supersteps simulated, {} skipped)   reference {:>8.0}/s   engine {:>8.0}/s ({:>5.1}x)   parallel[{}] {:>8.0}/s ({:>5.1}x)   match: {}",
            inst.name,
            instance.dag().num_nodes(),
            eng_stats.evaluations,
            eng_stats.simulated_supersteps,
            eng_stats.skipped_supersteps,
            ref_eps,
            eng_eps,
            eng_eps / ref_eps.max(1e-9),
            parallel_workers,
            par_eps,
            par_eps / ref_eps.max(1e-9),
            costs_match
        );
        reports.push(InstanceReport {
            name: inst.name.clone(),
            nodes: instance.dag().num_nodes(),
            evaluations: eng_stats.evaluations,
            reference_evals_per_sec: ref_eps,
            engine_evals_per_sec: eng_eps,
            speedup: eng_eps / ref_eps.max(1e-9),
            parallel_workers,
            parallel_evals_per_sec: par_eps,
            parallel_speedup: par_eps / ref_eps.max(1e-9),
            engine_cost: eng_stats.final_cost,
            reference_cost: ref_stats.final_cost,
            costs_match,
        });
    }

    let geomean_speedup = geomean(reports.iter().map(|r| r.speedup));
    let geomean_parallel_speedup = geomean(reports.iter().map(|r| r.parallel_speedup));
    let report = Report {
        benchmark: "improver: incremental evaluation engine vs clone-and-recost reference"
            .to_string(),
        quick,
        instances: reports,
        geomean_speedup,
        geomean_parallel_speedup,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    // Quick (CI smoke) runs must not clobber the recorded full baseline.
    let path = if quick {
        "BENCH_improver_quick.json"
    } else {
        "BENCH_improver.json"
    };
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("{path} is writable: {e}"));
    println!(
        "geomean speedup: {geomean_speedup:.1}x serial, {geomean_parallel_speedup:.1}x parallel -> {path}"
    );
    assert!(
        report.instances.iter().all(|r| r.costs_match),
        "engine and reference paths disagreed on the final cost — see {path}"
    );
}
