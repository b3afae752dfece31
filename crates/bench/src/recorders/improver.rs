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
//! A quick run takes three tiny instances, a smaller move budget and one
//! repetition. Gated on every row: `costs_match`, `speedup` ≥ 1.

use crate::{field, geomean, paper_instance, Fields, Recorder};
use mbsp_gen::NamedInstance;
use mbsp_ilp::{EvalPath, HolisticConfig, HolisticScheduler};
use mbsp_model::CostModel;
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use serde::Serialize;
use std::time::Instant;

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
    engine_cost: f64,
    reference_cost: f64,
    costs_match: bool,
}

/// A dataset instance with the search configuration both paths run.
pub(crate) struct Case {
    named: NamedInstance,
    config: HolisticConfig,
    /// Identical trajectories make the searches repeatable, so the fastest
    /// of this many runs per path is recorded (the standard defence against
    /// scheduler interference on shared machines).
    reps: usize,
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
        // The search budget is fixed in moves, so both trajectories run the
        // identical candidate sequence to completion.
        let config = HolisticConfig {
            cost_model: CostModel::Synchronous,
            max_rounds: if quick { 4 } else { 10 },
            moves_per_round: if quick { 30 } else { 90 },
            seed: 0x5EED,
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
        let scheduler = HolisticScheduler::with_config(case.config);
        // The stats of a path's fastest repetition and its evaluations per
        // second.
        let best_of = |path: EvalPath| {
            let (seconds, schedule, stats) = (0..case.reps)
                .map(|_| {
                    let start = Instant::now();
                    let (schedule, stats) =
                        scheduler.schedule_with_stats(&instance, &baseline, &[], path);
                    (start.elapsed().as_secs_f64(), schedule, stats)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("at least one repetition");
            schedule
                .validate(instance.dag(), instance.arch())
                .unwrap_or_else(|e| panic!("{}: invalid schedule: {e}", case.named.name));
            (stats, stats.evaluations as f64 / seconds.max(1e-9))
        };
        let (reference, ref_eps) = best_of(EvalPath::Reference);
        let (engine, eng_eps) = best_of(EvalPath::Incremental);
        let costs_match = (engine.final_cost - reference.final_cost).abs()
            <= 1e-9 * (1.0 + reference.final_cost.abs());
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
            engine_cost: engine.final_cost,
            reference_cost: reference.final_cost,
            costs_match,
        }
    }

    fn summary(&self, rows: &[Row]) -> Fields {
        vec![field(
            "geomean_speedup",
            geomean(rows.iter().map(|r| r.speedup)),
        )]
    }
}
