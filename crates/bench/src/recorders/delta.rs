//! The `delta` recorder: dirty-cone repair (`mbsp_ilp::IncrementalScheduler`)
//! against a full re-schedule after a small localized `DagDelta` stream lands
//! on an already-scheduled instance (`BENCH_delta.json`).
//!
//! Per instance the harness warms an incremental scheduler to a steady state
//! (greedy + full sharded search, iterated under constant seed streams until a
//! pass accepts nothing — a fixed point of the search operator; untimed, since
//! a deployment amortizes it over its lifetime), streams a
//! seeded batch of reweight deltas touching well under 1%
//! of the nodes (`mbsp_gen::mutation_stream` with a tight locality window;
//! reweights keep node ids stable, so the dirty cone stays as local as the
//! mutation — structural deltas are exercised by the mutation-replay and
//! repair-determinism suites instead), then forks twins off the identical
//! post-mutation state and measures (a) `repair`, which re-searches only the
//! shards intersecting the mutation cone, and (b) the full re-schedule
//! (`full_repair`), which re-searches every shard with the same per-shard
//! budget and seed streams. Scope is the only variable between the two, so the
//! comparison isolates exactly what the dirty cone buys. The repair must reach
//! the full re-schedule's final cost on every measured instance — equal or
//! better up to `COST_TOLERANCE` (0.1%): from a converged incumbent the two
//! fold the same dirty-shard improvements, and the residual is the clean-shard
//! proposals that flip from rejected to accepted once a dirty shard's fold has
//! moved the canonical supersteps around it, which no hop-bounded cone can
//! capture. The warm-up's fixed point holds many such proposals (at 24 shards
//! most shards still improve locally and the merge rejects every one), so the
//! residual is a draw per mutation stream, not a constant: over ten streams
//! per instance (seeds `0xDE17A + i`, the five instances below 100k nodes),
//! 8 of 50 repairs exceed 0.1 % with breadth-first ties alone and 9 of 50
//! with the seed-chosen tie order, by up to 0.37 %, and a warm-up swept over
//! several seed streams does not change that. A from-scratch pipeline (fresh
//! greedy baseline + full sharded search on the mutated DAG) is also timed for
//! context, but not gated: its greedy cascade lands in an unrelated search
//! basin, so its cost is noise around the warmed steady state rather than a
//! like-for-like comparator.
//!
//! A quick run takes two small layered DAGs. Gated on every row: the repair
//! never regresses past its own stale incumbent, is byte-identical across
//! worker counts, and `speedup` ≥ 1. Full-run bars: `cost_ok` on every
//! instance and a geomean speedup ≥ 5× — not asserted on smoke instances,
//! where the integer cost floor makes one flipped unit-weight proposal exceed
//! any sensible relative tolerance.

use crate::{field, geomean, large_or_quick, paper_instance, Fields, Recorder};
use mbsp_gen::{mutation_stream, MutationStreamConfig, NamedInstance};
use mbsp_ilp::{
    IncrementalScheduler, RepairConfig, ShardStrategy, ShardedHolisticScheduler,
    ShardedSearchConfig,
};
use mbsp_model::MbspInstance;
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use serde::Serialize;
use std::time::Instant;

/// More shards than the `shard` recorder's 4: the dirty set is bound by the
/// mutation window (2-3 shards regardless of the count), so a finer partition
/// shrinks what repair re-searches while the full re-search still covers
/// everything — the knob that makes "scope" a 10x lever instead of a 4x one.
const SHARDS: usize = 24;
/// Same deep hill-climb shape as the `shard` recorder: one candidate per
/// round, the per-shard budget in rounds.
const SHARD_ROUNDS: usize = 40;
/// Cap on the fixed-point warm-up passes (each pass is one full re-search);
/// the loop normally stops much earlier, at the first pass accepting nothing.
const WARM_PASS_CAP: usize = 12;
const CONE_RADIUS: usize = 1;
/// Relative slack on `repair_cost <= full_cost`: the cross-shard residual of
/// clean-shard proposals flipping under the delta's global coupling (see the
/// module docs). Most mutation streams stay below it; not all do.
const COST_TOLERANCE: f64 = 1e-3;

/// The `delta` recorder.
#[derive(Default)]
pub(crate) struct Delta;

/// One row of `BENCH_delta.json`.
#[derive(Debug, Default, Serialize)]
pub(crate) struct Row {
    name: String,
    nodes: usize,
    edges: usize,
    delta_ops: usize,
    touched_nodes: usize,
    cone_nodes: usize,
    dirty_shards: usize,
    shards: usize,
    incumbent_cost: f64,
    repair_cost: f64,
    full_cost: f64,
    scratch_cost: f64,
    repair_seconds: f64,
    full_seconds: f64,
    scratch_seconds: f64,
    speedup: f64,
    cost_ok: bool,
    not_worse_than_incumbent: bool,
    identical_across_workers: bool,
}

fn search_config(workers: usize) -> ShardedSearchConfig {
    ShardedSearchConfig {
        // This benchmark measures incremental-repair *latency*: keep the O(n)
        // topological partitioner and the single-pass pipeline, so a repair
        // pays no partition-ILP or shard-seeding overhead on top of its cone.
        // The weighted iterated pipeline is a batch-mode feature, benchmarked
        // by the `shard` recorder.
        strategy: ShardStrategy::Topo,
        shard_local_seed: false,
        iterations: 1,
        num_shards: SHARDS,
        workers,
        max_rounds: SHARD_ROUNDS,
        moves_per_round: 1,
        stale_round_limit: 0,
        ..Default::default()
    }
}

impl Recorder for Delta {
    type Instance = NamedInstance;
    type Row = Row;
    const NAME: &'static str = "delta";
    const BENCHMARK: &'static str = "dirty-cone incremental repair vs full re-search from the \
        same stale incumbent after localized DAG mutation";
    const FLAGS: &'static [&'static str] =
        &["not_worse_than_incumbent", "identical_across_workers"];
    const SPEEDUPS: &'static [&'static str] = &["speedup"];
    const TIMINGS: &'static [&'static str] = &["repair_seconds", "full_seconds"];

    fn instances(&self, quick: bool) -> Vec<NamedInstance> {
        large_or_quick(quick, [(12, 50, 0.08, 17), (20, 60, 0.06, 18)])
    }

    fn name(named: &NamedInstance) -> &str {
        &named.name
    }

    fn measure(&self, named: &NamedInstance) -> Row {
        let n = named.dag.num_nodes();
        let instance = paper_instance(named);
        let baseline = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());

        // Warm incumbent: greedy + full sharded search, then iterate the full
        // re-search to a *fixed point* of the (deterministic, constant-seed)
        // search operator: once a pass accepts nothing, re-searching a clean
        // shard re-evaluates exactly the proposals the fixed point already
        // rejected — until a fold elsewhere moves the supersteps they were
        // rejected under (module docs). This is the steady state an
        // incrementally-maintained deployment amortizes over its lifetime
        // (none of it is timed), and it is what makes the comparison
        // meaningful — post-mutation improvements exist only where the deltas
        // landed.
        let config = RepairConfig {
            search: search_config(4),
            cone_radius: CONE_RADIUS,
        };
        let warm_start = Instant::now();
        let (_, _, warm_procs) = ShardedHolisticScheduler::with_config(search_config(4))
            .schedule_with_assignment(&instance, &baseline);
        let mut repairer =
            IncrementalScheduler::new(named.dag.clone(), *instance.arch(), warm_procs, config);
        let mut warm_passes = 0usize;
        loop {
            let (_, warm_stats) = repairer.full_repair();
            warm_passes += 1;
            if warm_stats.accepted_shards == 0 || warm_passes >= WARM_PASS_CAP {
                break;
            }
        }
        eprintln!(
            "    warm to fixed point: {warm_passes} passes in {:.2}s",
            warm_start.elapsed().as_secs_f64()
        );
        // A small localized delta: well under 1% of the nodes, clustered in a
        // tight topological window so the dirty cone stays small.
        let stream_config = MutationStreamConfig {
            ops: (n / 1000).clamp(4, 32),
            structural: false,
            locality: 0.01,
        };
        let stream = mutation_stream(repairer.dag(), &stream_config, 0xDE17A);

        // Land the deltas, then fork three twins off the identical
        // post-mutation state (same pending set, same seed streams): the measured repair, its 1-worker determinism check,
        // and the full re-search comparator. Scope — dirty cone vs every
        // shard — is the only variable between (a) and (b).
        let apply_start = Instant::now();
        for delta in &stream {
            repairer
                .apply(delta)
                .expect("generated streams replay cleanly");
        }
        let apply_seconds = apply_start.elapsed().as_secs_f64();
        let mut repairer_1w = repairer.clone();
        repairer_1w.config_mut().search.workers = 1;
        let mut full_twin = repairer.clone();

        // (a) Repair: re-search only the shards intersecting the dirty cone.
        let start = Instant::now();
        let (repaired, stats) = repairer.repair();
        let repair_seconds = apply_seconds + start.elapsed().as_secs_f64();
        let (repaired_1w, _) = repairer_1w.repair();
        eprintln!(
            "    repair: {repair_seconds:.2}s, {} evals",
            stats.evaluations
        );

        // (b) The full re-schedule: re-search ALL shards from the same stale
        // incumbent with the same per-shard budget and seeds.
        let start = Instant::now();
        let (_, full_stats) = full_twin.full_repair();
        let full_seconds = apply_seconds + start.elapsed().as_secs_f64();
        let full_cost = full_stats.final_cost;
        eprintln!("    full re-search: {full_seconds:.2}s");

        // Informational only: what a from-scratch pipeline (greedy baseline +
        // full sharded search) reaches on the mutated DAG.
        let mutated = MbspInstance::new(repairer.dag().clone(), *instance.arch());
        let start = Instant::now();
        let scratch_baseline = GreedyBspScheduler::new().schedule(mutated.dag(), mutated.arch());
        let (_, scratch_stats) = ShardedHolisticScheduler::with_config(search_config(4))
            .schedule_with_stats(&mutated, &scratch_baseline);
        let scratch_seconds = start.elapsed().as_secs_f64();

        repaired
            .validate(mutated.dag(), mutated.arch())
            .unwrap_or_else(|e| panic!("{}: repaired schedule invalid: {e}", named.name));
        Row {
            name: named.name.clone(),
            nodes: n,
            edges: mutated.dag().num_edges(),
            delta_ops: stream.len(),
            touched_nodes: stats.pending_nodes,
            cone_nodes: stats.cone_nodes,
            dirty_shards: stats.dirty_shards,
            shards: stats.shards,
            incumbent_cost: stats.incumbent_cost,
            repair_cost: stats.final_cost,
            full_cost,
            scratch_cost: scratch_stats.final_cost,
            repair_seconds,
            full_seconds,
            scratch_seconds,
            speedup: full_seconds / repair_seconds.max(1e-9),
            cost_ok: stats.final_cost <= full_cost + COST_TOLERANCE * (1.0 + full_cost.abs()),
            not_worse_than_incumbent: stats.final_cost
                <= stats.incumbent_cost + 1e-9 * (1.0 + stats.incumbent_cost.abs()),
            identical_across_workers: repaired == repaired_1w,
        }
    }

    fn header(&self) -> Fields {
        vec![field("shards", SHARDS), field("cone_radius", CONE_RADIUS)]
    }

    fn summary(&self, rows: &[Row]) -> Fields {
        let speedup = geomean(rows.iter().map(|r| r.speedup));
        vec![field("geomean_speedup", speedup)]
    }

    fn full_bars(&self, rows: &[Row]) -> Vec<String> {
        let mut violations: Vec<String> = rows
            .iter()
            .filter(|r| !r.cost_ok)
            .map(|r| {
                format!(
                    "delta: {}: repair cost {:.1} fell behind the full re-schedule {:.1}",
                    r.name, r.repair_cost, r.full_cost
                )
            })
            .collect();
        let speedup = geomean(rows.iter().map(|r| r.speedup));
        if speedup < 5.0 {
            violations.push(format!(
                "delta: geomean repair speedup {speedup:.2}x below the 5x bar"
            ));
        }
        violations
    }
}
