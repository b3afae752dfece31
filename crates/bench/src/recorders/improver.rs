//! The `improver` recorder: the incremental evaluation engine (arena-backed
//! conversion + incremental cost deltas) vs. the pre-engine clone-and-recost
//! reference path (`BENCH_improver.json`).
//!
//! Both paths run the *same* seeded search at the same move budget — the engine
//! is operation-identical to the reference, so the two trajectories visit the
//! same candidates and end at the same schedule; only the evaluation machinery
//! differs. The recorded metric is candidate evaluations per second, plus the
//! final holistic cost of each path (which must agree).
//!
//! The `parallel_*` columns record the engine with the workspace's worker
//! count (`mbsp_pool::resolve_workers`, i.e. `MBSP_BENCH_THREADS` or the
//! machine's parallelism) on the same move budget. When that count is 1 there
//! is no parallel configuration to measure: the third run is skipped and the
//! columns repeat the engine's own numbers with `parallel_workers: 1`, rather
//! than timing the serial search twice and calling the noise a speedup.
//!
//! A quick run takes three tiny instances, a smaller move budget and one
//! repetition. Gated on every row: `costs_match`, `speedup` ≥ 1.

use crate::{field, geomean, paper_instance, Fields, Recorder};
use mbsp_gen::NamedInstance;
use mbsp_ilp::{EvalPath, HolisticConfig, HolisticScheduler, SearchStats};
use mbsp_model::CostModel;
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use serde::Serialize;
use std::time::Duration;

/// The `improver` recorder.
#[derive(Default)]
pub(crate) struct Improver;

/// One row of `BENCH_improver.json`.
#[derive(Debug, Default, Serialize)]
pub(crate) struct Row {
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

/// A dataset instance with the serial search configuration both paths run.
pub(crate) struct Case {
    named: NamedInstance,
    config: HolisticConfig,
    /// Identical trajectories make the searches repeatable, so the fastest
    /// of this many runs per path is recorded (the standard defence against
    /// scheduler interference on shared machines).
    reps: usize,
}

fn evals_per_sec(stats: &SearchStats) -> f64 {
    stats.evaluations as f64 / stats.elapsed.as_secs_f64().max(1e-9)
}

impl Recorder for Improver {
    type Instance = Case;
    type Row = Row;
    const NAME: &'static str = "improver";
    const BENCHMARK: &'static str =
        "improver: incremental evaluation engine vs clone-and-recost reference";
    const FLAGS: &'static [&'static str] = &["costs_match"];
    const SPEEDUPS: &'static [&'static str] = &["speedup"];
    const TIMINGS: &'static [&'static str] = &["reference_evals_per_sec", "engine_evals_per_sec"];

    fn instances(&self, quick: bool) -> Vec<Case> {
        // The search budget is fixed in moves, not wall-clock: the time limit
        // is far above what either path needs, so both trajectories run the
        // identical candidate sequence to completion.
        let config = HolisticConfig {
            cost_model: CostModel::Synchronous,
            max_rounds: if quick { 4 } else { 10 },
            moves_per_round: if quick { 30 } else { 90 },
            time_limit: Duration::from_secs(600),
            seed: 0x5EED,
            workers: 1,
        };
        // The tiny dataset plus, in full mode, a slice of the small dataset:
        // the engine exists for benchmark-sized instances, so the recorded
        // baseline must include them.
        let mut named = mbsp_gen::tiny_dataset(42);
        if quick {
            named.truncate(3);
        } else {
            named.extend(mbsp_gen::small_dataset_sample(42).into_iter().take(4));
        }
        let reps = if quick { 1 } else { 5 };
        let case = |named| Case {
            named,
            config,
            reps,
        };
        named.into_iter().map(case).collect()
    }

    fn name(case: &Case) -> &str {
        &case.named.name
    }

    fn measure(&self, case: &Case) -> Row {
        let instance = paper_instance(&case.named);
        let baseline = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());
        let best_of = |config: HolisticConfig, path: EvalPath| {
            let scheduler = HolisticScheduler::with_config(config);
            let (schedule, stats) = (0..case.reps)
                .map(|_| scheduler.schedule_with_stats(&instance, &baseline, &[], path))
                .min_by_key(|(_, stats)| stats.elapsed)
                .expect("at least one repetition");
            schedule
                .validate(instance.dag(), instance.arch())
                .unwrap_or_else(|e| panic!("{}: invalid schedule: {e}", case.named.name));
            stats
        };
        let reference = best_of(case.config, EvalPath::Reference);
        let engine = best_of(case.config, EvalPath::Incremental);
        let agrees = |stats: &SearchStats| {
            (stats.final_cost - reference.final_cost).abs()
                <= 1e-9 * (1.0 + reference.final_cost.abs())
        };
        let mut costs_match = agrees(&engine);
        let ref_eps = evals_per_sec(&reference);
        let eng_eps = evals_per_sec(&engine);
        let parallel_workers = mbsp_pool::resolve_workers(0);
        let par_eps = if parallel_workers == 1 {
            eng_eps
        } else {
            let config = HolisticConfig {
                workers: parallel_workers,
                ..case.config
            };
            let parallel = best_of(config, EvalPath::Incremental);
            costs_match &= agrees(&parallel);
            evals_per_sec(&parallel)
        };
        eprintln!(
            "    {} evals, {} supersteps simulated, {} skipped",
            engine.evaluations, engine.simulated_supersteps, engine.skipped_supersteps
        );
        Row {
            name: case.named.name.clone(),
            nodes: instance.dag().num_nodes(),
            evaluations: engine.evaluations,
            reference_evals_per_sec: ref_eps,
            engine_evals_per_sec: eng_eps,
            speedup: eng_eps / ref_eps.max(1e-9),
            parallel_workers,
            parallel_evals_per_sec: par_eps,
            parallel_speedup: par_eps / ref_eps.max(1e-9),
            engine_cost: engine.final_cost,
            reference_cost: reference.final_cost,
            costs_match,
        }
    }

    fn summary(&self, rows: &[Row]) -> Fields {
        let speedup = geomean(rows.iter().map(|r| r.speedup));
        let parallel = geomean(rows.iter().map(|r| r.parallel_speedup));
        vec![
            field("geomean_speedup", speedup),
            field("geomean_parallel_speedup", parallel),
        ]
    }
}
