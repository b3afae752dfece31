//! Records the DAG-substrate benchmark baseline: the flattened hot paths (CSR
//! adjacency, bitset pebbles, scratch-based schedulers, arena conversion,
//! incremental evaluation) against the retained nested-Vec/clone-and-recost
//! reference paths, end to end, on large generated instances — written to
//! `BENCH_dag.json`.
//!
//! The measured pipeline is the full production sequence per instance:
//!
//! 1. **two-stage schedule** — greedy BSP scheduling (scratch-reusing fast path
//!    vs. [`mbsp_sched::reference::greedy_reference`]) plus the BSP→MBSP
//!    conversion and post-optimisation through an
//!    [`mbsp_ilp::EvaluationEngine`] (`EvalPath::Incremental` vs.
//!    `EvalPath::Reference`, i.e. arena + incremental deltas vs. fresh
//!    converter + full re-cost);
//! 2. **engine eval batch** — a fixed, deterministic batch of single-node
//!    relocation candidates evaluated through the same engine.
//!
//! Both paths are operation-identical: the BSP schedules, every candidate cost
//! and every materialised MBSP schedule must agree exactly (`costs_match` per
//! instance, asserted at the end). The recorded metric is pipeline evaluations
//! per second (schedule + baseline conversion + batch, normalised by the batch
//! size) and the fast/reference speedup, with the geometric mean as the
//! headline.
//!
//! Set `MBSP_BENCH_DAG_QUICK=1` for the CI smoke run (small instances, separate
//! output file). The JSON schema is `{benchmark, quick, instances: [{name,
//! nodes, edges, pipeline_evals, fast_seconds, reference_seconds, speedup,
//! fast_cost, reference_cost, costs_match}], geomean_speedup}`.

use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_gen::NamedInstance;
use mbsp_ilp::{EvalPath, EvaluationEngine};
use mbsp_model::{Architecture, CostModel, MbspInstance, MbspSchedule, ProcId};
use mbsp_sched::{reference, BspScheduler, GreedyBspScheduler, SchedulerScratch};
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct InstanceReport {
    name: String,
    nodes: usize,
    edges: usize,
    pipeline_evals: usize,
    fast_seconds: f64,
    reference_seconds: f64,
    fast_evals_per_sec: f64,
    reference_evals_per_sec: f64,
    speedup: f64,
    fast_cost: f64,
    reference_cost: f64,
    costs_match: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    benchmark: String,
    quick: bool,
    instances: Vec<InstanceReport>,
    geomean_speedup: f64,
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

/// The deterministic candidate batch: relocate `k` spread-out non-source nodes,
/// one at a time, to the next processor. Both paths evaluate the identical list.
fn candidate_assignments(
    instance: &MbspInstance,
    base: &[ProcId],
    batch: usize,
) -> Vec<Vec<ProcId>> {
    let dag = instance.dag();
    let p = instance.arch().processors;
    let movable: Vec<usize> = dag
        .nodes()
        .filter(|&v| !dag.is_source(v))
        .map(|v| v.index())
        .collect();
    (0..batch)
        .map(|k| {
            let i = movable[(k * movable.len()) / batch.max(1)];
            let mut procs = base.to_vec();
            procs[i] = ProcId::new((procs[i].index() + 1) % p);
            procs
        })
        .collect()
}

/// One full pipeline run: schedule, convert + post-optimise the baseline, then
/// evaluate the candidate batch. Returns (elapsed seconds, costs, schedules).
#[allow(clippy::type_complexity)]
fn run_pipeline(
    instance: &MbspInstance,
    path: EvalPath,
    batch: usize,
) -> (
    f64,
    Vec<f64>,
    Vec<MbspSchedule>,
    mbsp_sched::BspSchedulingResult,
) {
    let label = match path {
        EvalPath::Incremental => "fast",
        EvalPath::Reference => "reference",
    };
    // Only the pipeline stages themselves are timed; the per-candidate schedule
    // clones that feed the costs_match comparison and the progress logging stay
    // outside the measured window.
    let mut timed = 0.0f64;
    let stage = Instant::now();
    let bsp = match path {
        EvalPath::Incremental => {
            let mut scratch = SchedulerScratch::new();
            GreedyBspScheduler::new().schedule_with_scratch(
                instance.dag(),
                instance.arch(),
                &mut scratch,
            )
        }
        EvalPath::Reference => reference::greedy_reference(
            &mbsp_sched::greedy::GreedyBspConfig::default(),
            instance.dag(),
            instance.arch(),
        ),
    };
    timed += stage.elapsed().as_secs_f64();
    eprintln!(
        "    [{label}] greedy schedule: {timed:.2}s ({} supersteps)",
        bsp.schedule.num_supersteps()
    );
    let base: Vec<ProcId> = instance
        .dag()
        .nodes()
        .map(|v| bsp.schedule.proc_of(v))
        .collect();
    let candidates = candidate_assignments(instance, &base, batch);
    let (dag, arch) = (instance.dag(), instance.arch());
    let mut engine = EvaluationEngine::new(instance, path);
    let mut costs = Vec::with_capacity(batch + 1);
    let mut schedules = Vec::with_capacity(batch + 1);
    let stage = Instant::now();
    costs.push(engine.evaluate_bsp_on(dag, arch, &bsp, CostModel::Synchronous, &[]));
    timed += stage.elapsed().as_secs_f64();
    schedules.push(engine.schedule().clone());
    eprintln!("    [{label}] baseline conversion done: {timed:.2}s");
    for (i, procs) in candidates.iter().enumerate() {
        let stage = Instant::now();
        costs.push(engine.evaluate_assignment_on(dag, arch, procs, CostModel::Synchronous, &[]));
        timed += stage.elapsed().as_secs_f64();
        schedules.push(engine.schedule().clone());
        eprintln!(
            "    [{label}] candidate {}/{} done: {timed:.2}s",
            i + 1,
            candidates.len(),
        );
    }
    (timed, costs, schedules, bsp)
}

fn main() {
    // "0", "" and "false" disable quick mode (the documented contract is `=1`).
    let quick = std::env::var("MBSP_BENCH_DAG_QUICK")
        .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
        .unwrap_or(false);

    let named: Vec<NamedInstance> = if quick {
        // CI smoke: two small instances, same pipeline, same assertions.
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
    let mut reports = Vec::new();
    for inst in &named {
        // The eval batch scales down on the largest instances: the *reference*
        // path re-converts and re-costs the whole 100k-node schedule per
        // candidate, which is exactly the cost this benchmark documents.
        let batch = if quick || inst.dag.num_nodes() >= 50_000 {
            2
        } else {
            4
        };
        eprintln!(
            "== {} ({} nodes, {} edges, batch {batch})",
            inst.name,
            inst.dag.num_nodes(),
            inst.dag.num_edges()
        );
        let instance = MbspInstance::with_cache_factor(
            inst.dag.clone(),
            Architecture::paper_default(0.0),
            3.0,
        );
        let (fast_seconds, fast_costs, fast_schedules, fast_bsp) =
            run_pipeline(&instance, EvalPath::Incremental, batch);
        let (ref_seconds, ref_costs, ref_schedules, ref_bsp) =
            run_pipeline(&instance, EvalPath::Reference, batch);

        let costs_match = fast_bsp.schedule == ref_bsp.schedule
            && fast_bsp.order == ref_bsp.order
            && fast_costs.len() == ref_costs.len()
            && fast_costs
                .iter()
                .zip(&ref_costs)
                .all(|(a, b)| (a - b).abs() <= 1e-9 * (1.0 + b.abs()))
            && fast_schedules == ref_schedules;

        let evals = batch + 1;
        let fast_eps = evals as f64 / fast_seconds.max(1e-9);
        let ref_eps = evals as f64 / ref_seconds.max(1e-9);
        let speedup = ref_seconds / fast_seconds.max(1e-9);
        println!(
            "{:<18} {:>7} nodes {:>8} edges   fast {:>8.3}s   reference {:>8.3}s   ({:>5.1}x)   match: {}",
            inst.name,
            instance.dag().num_nodes(),
            instance.dag().num_edges(),
            fast_seconds,
            ref_seconds,
            speedup,
            costs_match
        );
        reports.push(InstanceReport {
            name: inst.name.clone(),
            nodes: instance.dag().num_nodes(),
            edges: instance.dag().num_edges(),
            pipeline_evals: evals,
            fast_seconds,
            reference_seconds: ref_seconds,
            fast_evals_per_sec: fast_eps,
            reference_evals_per_sec: ref_eps,
            speedup,
            fast_cost: *fast_costs.last().unwrap(),
            reference_cost: *ref_costs.last().unwrap(),
            costs_match,
        });
    }

    let geomean_speedup = geomean(reports.iter().map(|r| r.speedup));
    let report = Report {
        benchmark: "dag substrate: CSR/bitset/scratch pipeline vs nested-Vec reference paths"
            .to_string(),
        quick,
        instances: reports,
        geomean_speedup,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    // Quick (CI smoke) runs must not clobber the recorded full baseline.
    let path = if quick {
        "BENCH_dag_quick.json"
    } else {
        "BENCH_dag.json"
    };
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("{path} is writable: {e}"));
    println!("geomean speedup: {geomean_speedup:.2}x -> {path}");
    assert!(
        report.instances.iter().all(|r| r.costs_match),
        "fast and reference pipelines disagreed — see {path}"
    );
}
