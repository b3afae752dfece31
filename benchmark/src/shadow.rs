//! The shadow replay: where a served request spends its time, measured from
//! outside the daemon.
//!
//! After a traced pass the benchmark owns everything the daemon received (the
//! request lines) and everything it answered. The replay feeds the same lines,
//! in the same order, to the same public functions `mbsp_serve`'s `server.rs`
//! calls — `handle_register`, `run_schedule`, `run_mutate`, `run_repair`,
//! `restore_instances` are mirrored call for call below — on a session of its
//! own, and records one span per call. The library is deterministic, so the
//! shadow session tracks the daemon's exactly; costs and evaluation counts are
//! compared with the served replies, and a difference is a failed run.
//!
//! Span tree: each replayed request is a root `shadow.<kind>` whose direct
//! children are the calls on the request's blocking chain; their sum is the
//! chain total and `serve.<kind>_unattributed_ms` is the end-to-end p50 minus
//! it. Calls that only run *inside* a chain call (`PkOrder::of_dag` inside
//! `IncrementalScheduler::new`, the JSON scan inside `parse_request`, …) are
//! timed on their own under `shadow.parts` roots, which no chain total counts.
//! The real requests' client-side stamps become `client.<kind>` spans with the
//! same request ids. When ROADMAP item 1 puts spans inside the program, they
//! replace this replay under the same names.

use crate::client::Reply;
use crate::driver::RunLog;
use crate::json;
use crate::metrics::{self, layer, median, Metric};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Instance, Kind, Op};
use mbsp::cache::{ClairvoyantPolicy, ConversionArena, TwoStageScheduler};
use mbsp::dag::{NodeId, PkOrder};
use mbsp::ilp::{
    mutation_cone, topo_shards, weighted_shards, CancelToken, EvalPath, EvaluationEngine,
    IncrementalScheduler, IncumbentObserver, IncumbentUpdate, RepairConfig,
    ShardedHolisticScheduler, ShardedSearchConfig,
};
use mbsp::model::{sync_cost, Architecture, CostModel, MbspInstance, MbspSchedule, ProcId};
use mbsp::sched::{BspScheduler, BspSchedulingResult, GreedyBspScheduler};
use mbsp::serve::{parse_request, CacheSpec, DagSource, Request};
use mbsp_pool::WorkerPool;
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const EVAL_REPS: usize = 3;
const POOL_BATCHES: usize = 200;

/// Counts and sizes the replay observed (timings live in the tracer).
#[derive(Debug, Default)]
pub struct Replay {
    /// Where the shadow's result differs from what the daemon served.
    pub mismatches: Vec<String>,
    search_evaluations: Vec<f64>,
    search_shards: f64,
    search_accepted: f64,
    search_salvaged: f64,
    repair_evaluations: Vec<f64>,
    dirty_shards: Vec<f64>,
    cone_nodes: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    frame_bytes: Vec<f64>,
    json_mb_s: Vec<f64>,
    hex_mb_s: Vec<f64>,
    pool_batch_us: Vec<f64>,
    pool_workers: usize,
}

/// The shadow of one registered instance.
struct Shadow {
    session: IncrementalScheduler,
    file: PathBuf,
    /// Nodes touched by mutates since the last repair (seeds of the cone).
    touched: Vec<NodeId>,
    /// The per-instance `shadow.parts` measurements have been taken.
    parts_done: bool,
}

fn mb_per_s(bytes: usize, start: Instant) -> f64 {
    bytes as f64 / 1e6 / start.elapsed().as_secs_f64()
}

/// The fields of a reply's last frame, without parsing an embedded schedule.
fn head_of(reply: &Reply) -> Result<Value, String> {
    let (_, frame) = reply
        .frames
        .last()
        .expect("a reply has a terminating frame");
    let needle = b",\"schedule\":";
    match frame.windows(needle.len()).position(|w| w == needle) {
        Some(cut) => json::parse(&[&frame[..cut], b"}"].concat()),
        None => json::parse(frame),
    }
}

fn request_line(op: &Op) -> &str {
    std::str::from_utf8(&op.line)
        .expect("request lines are built from strings")
        .trim_end()
}

/// `ServerInner::checkpoint_instance`: encode the session, write + rename.
fn checkpoint(
    t: &mut Tracer,
    root: SpanId,
    shadow: &Shadow,
    replay: &mut Replay,
) -> Result<(), String> {
    let blob = t.time("io.checkpoint_encode", root, || shadow.session.checkpoint());
    replay.checkpoint_bytes.push(blob.len() as f64);
    t.time("io.checkpoint_write", root, || {
        let tmp = shadow.file.with_extension("tmp");
        std::fs::write(&tmp, &blob).and_then(|()| std::fs::rename(&tmp, &shadow.file))
    })
    .map_err(|e| format!("shadow checkpoint {}: {e}", shadow.file.display()))
}

/// `LineWriter::send` of a frame that embeds a schedule.
fn frame_write(t: &mut Tracer, root: SpanId, schedule: &MbspSchedule, replay: &mut Replay) {
    let line = t.time("serve.frame_write", root, || {
        let frame = Value::Map(vec![("schedule".to_string(), schedule.to_value())]);
        serde_json::to_string(&frame).expect("schedules serialise")
    });
    replay.frame_bytes.push(line.len() as f64);
}

fn compare<T: PartialEq + std::fmt::Debug>(
    replay: &mut Replay,
    op: &Op,
    what: &str,
    served: Option<T>,
    shadow: T,
) {
    if served.as_ref() != Some(&shadow) {
        replay.mismatches.push(format!(
            "{} #{}: served {what} {served:?} but the shadow replay got {shadow:?}",
            op.kind.name(),
            op.id
        ));
    }
}

/// `handle_register`.
fn register(
    t: &mut Tracer,
    op: &Op,
    dir: &Path,
    pool: &WorkerPool,
    instance: &Instance,
    replay: &mut Replay,
) -> Result<Shadow, String> {
    let line = request_line(op);
    let root = t.open("shadow.register", None, op.id);
    let parsed = t.time("serve.parse_register", root, || parse_request(line));
    let Ok((_, Request::Register(req))) = parsed else {
        return Err(format!("the shadow cannot parse register #{}", op.id));
    };
    let dag = match &req.source {
        DagSource::Uploaded(dag) => t.time("dag.clone", root, || dag.clone()),
        DagSource::Family(spec) => t.time("gen.family", root, || spec.generate(&req.instance)),
    };
    let arch = match req.cache {
        CacheSpec::Size(size) => Architecture::new(req.processors, size, req.g, req.latency),
        CacheSpec::Factor(factor) => t.time("model.min_cache", root, || {
            let base = Architecture::new(req.processors, 0.0, req.g, req.latency);
            *MbspInstance::with_cache_factor(dag.clone(), base, factor).arch()
        }),
    };
    let baseline = t.time("sched.greedy", root, || {
        GreedyBspScheduler::new().schedule(&dag, &arch)
    });
    let procs = dag.nodes().map(|v| baseline.schedule.proc_of(v)).collect();
    let config = RepairConfig {
        search: req.search,
        cone_radius: req.cone_radius,
    };
    let session = t.time("ilp.session_new", root, || {
        IncrementalScheduler::new(dag, arch, procs, config).with_pool(pool.clone())
    });
    let shadow = Shadow {
        session,
        file: dir.join(format!("{}.session.mbio", req.instance)),
        touched: Vec::new(),
        parts_done: false,
    };
    checkpoint(t, root, &shadow, replay)?;
    t.close(root);

    // What `parse_request` spends inside itself on this line, call by call.
    let parts = t.open("shadow.parts", None, op.id);
    let start = Instant::now();
    let scanned = t.time("serve.json_parse", parts, || {
        serde_json::from_str::<Value>(line)
    });
    replay.json_mb_s.push(mb_per_s(line.len(), start));
    scanned.map_err(|e| format!("register #{} is not JSON: {e}", op.id))?;
    let hex = mbsp::serve::encode_hex(&mbsp::io::encode_dag(&instance.dag));
    let start = Instant::now();
    let blob = t.time("serve.hex_decode", parts, || mbsp::serve::decode_hex(&hex));
    replay.hex_mb_s.push(mb_per_s(hex.len(), start));
    let blob = blob.map_err(|e| e.message)?;
    t.time("io.decode_dag", parts, || mbsp::io::decode_dag(&blob))
        .map_err(|e| format!("decode_dag: {e}"))?;
    if matches!(req.source, DagSource::Uploaded(_)) {
        // Off the daemon's path: the client-side generator call of set-up.
        let (start, end) = instance.generated;
        t.record("gen.family", Some(parts), op.id, start, end);
    }
    t.close(parts);
    Ok(shadow)
}

/// The calls a `schedule` makes underneath its chain, one at a time, on the
/// DAG this instance is first scheduled on.
#[allow(clippy::too_many_arguments)]
fn schedule_parts(
    t: &mut Tracer,
    op: &Op,
    instance: &MbspInstance,
    baseline: &BspSchedulingResult,
    config: &ShardedSearchConfig,
    served: &MbspSchedule,
    pool: &WorkerPool,
    single_worker_search: bool,
) {
    let (dag, arch) = (instance.dag(), instance.arch());
    let parts = t.open("shadow.parts", None, op.id);
    t.time("dag.pk_build", parts, || PkOrder::of_dag(dag));
    let k = config.num_shards.max(1);
    t.time("ilp.partition", parts, || {
        weighted_shards(dag, k, config.runs_per_shard, config.mass_tolerance, 0.0)
    });
    t.time("ilp.topo_partition", parts, || topo_shards(dag, k));
    t.time("cache.arena_build", parts, || {
        ConversionArena::new(dag, arch)
    });
    t.time("cache.convert", parts, || {
        TwoStageScheduler::new().schedule(dag, arch, baseline, &ClairvoyantPolicy::new())
    });
    let mut engine = t.time("ilp.engine_build", parts, || {
        EvaluationEngine::for_dag(dag, arch, EvalPath::Incremental)
    });
    let procs: Vec<ProcId> = dag.nodes().map(|v| baseline.schedule.proc_of(v)).collect();
    for _ in 0..EVAL_REPS {
        t.time("ilp.eval_candidate", parts, || {
            engine.evaluate_assignment_on(dag, arch, &procs, CostModel::Synchronous, &[])
        });
    }
    t.time("model.sync_cost", parts, || sync_cost(served, dag, arch));
    t.time("model.validate", parts, || served.validate(dag, arch))
        .expect("the shadow's own schedule is legal");
    if single_worker_search {
        // The serial baseline: same search, same result, one worker.
        let serial = ShardedSearchConfig {
            workers: 1,
            ..*config
        };
        t.time("ilp.search_1w", parts, || {
            ShardedHolisticScheduler::with_config(serial)
                .with_pool(pool.clone())
                .schedule_with_assignment(instance, baseline)
        });
    }
    t.close(parts);
}

/// `run_schedule`.
fn schedule(
    t: &mut Tracer,
    op: &Op,
    reply: &Reply,
    shadow: &mut Shadow,
    pool: &WorkerPool,
    replay: &mut Replay,
) -> Result<(), String> {
    let line = request_line(op);
    let root = t.open("shadow.schedule", None, op.id);
    let parsed = t.time("serve.parse_request", root, || parse_request(line));
    let Ok((_, Request::Schedule(req))) = parsed else {
        return Err(format!("the shadow cannot parse schedule #{}", op.id));
    };
    let dag = t.time("dag.clone", root, || shadow.session.dag().clone());
    let arch = *shadow.session.arch();
    let mut config = shadow.session.config().search;
    req.overrides.apply(&mut config);
    let baseline = t.time("sched.greedy", root, || {
        GreedyBspScheduler::new().schedule(&dag, &arch)
    });
    let instance = t.time("dag.clone", root, || MbspInstance::new(dag.clone(), arch));
    let mut scheduler = ShardedHolisticScheduler::with_config(config)
        .with_pool(pool.clone())
        .with_cancel(&CancelToken::default());
    if req.stream {
        let observer: IncumbentObserver = Arc::new(|update: &IncumbentUpdate| {
            std::hint::black_box(update);
        });
        scheduler = scheduler.with_observer(observer);
    }
    let (result, stats, procs) = t.time("ilp.search", root, || {
        scheduler.schedule_with_assignment(&instance, &baseline)
    });
    let repair_config = *shadow.session.config();
    shadow.session = t.time("ilp.session_new", root, || {
        IncrementalScheduler::new(dag, arch, procs, repair_config).with_pool(pool.clone())
    });
    shadow.touched.clear();
    if req.return_schedule {
        frame_write(t, root, &result, replay);
    }
    t.close(root);

    let served = head_of(reply)?;
    compare(
        replay,
        op,
        "cost",
        json::get_f64(&served, "cost"),
        stats.final_cost,
    );
    compare(
        replay,
        op,
        "evaluations",
        json::get_u64(&served, "evaluations"),
        stats.evaluations,
    );
    replay.search_evaluations.push(stats.evaluations as f64);
    replay.search_shards += stats.shards as f64;
    replay.search_accepted += stats.accepted_shards as f64;
    replay.search_salvaged += stats.salvaged_moves as f64;

    if !shadow.parts_done {
        shadow.parts_done = true;
        let first_schedule = replay.search_evaluations.len() == 1;
        schedule_parts(
            t,
            op,
            &instance,
            &baseline,
            &config,
            &result,
            pool,
            first_schedule,
        );
    }
    Ok(())
}

/// `run_mutate`.
fn mutate(t: &mut Tracer, op: &Op, shadow: &mut Shadow, replay: &mut Replay) -> Result<(), String> {
    let line = request_line(op);
    let root = t.open("shadow.mutate", None, op.id);
    let parsed = t.time("serve.parse_mutate", root, || parse_request(line));
    let Ok((_, Request::Mutate(req))) = parsed else {
        return Err(format!("the shadow cannot parse mutate #{}", op.id));
    };
    for delta in &req.deltas {
        let effect = t
            .time("dag.apply_delta", root, || shadow.session.apply(delta))
            .map_err(|e| format!("the shadow session refused a delta of #{}: {e}", op.id))?;
        shadow.touched.extend(effect.touched_nodes());
    }
    checkpoint(t, root, shadow, replay)?;
    t.close(root);
    Ok(())
}

/// `run_repair`.
fn repair(
    t: &mut Tracer,
    op: &Op,
    reply: &Reply,
    shadow: &mut Shadow,
    replay: &mut Replay,
) -> Result<(), String> {
    // The cone expansion runs inside `repair()`; time it on its own first.
    let parts = t.open("shadow.parts", None, op.id);
    let radius = shadow.session.config().cone_radius;
    t.time("dag.cone", parts, || {
        mutation_cone(shadow.session.dag(), &shadow.touched, radius)
    });
    t.close(parts);

    let line = request_line(op);
    let root = t.open("shadow.repair", None, op.id);
    let parsed = t.time("serve.parse_request", root, || parse_request(line));
    let Ok((_, Request::Repair(req))) = parsed else {
        return Err(format!("the shadow cannot parse repair #{}", op.id));
    };
    let saved = *shadow.session.config();
    req.overrides.apply(&mut shadow.session.config_mut().search);
    let token = CancelToken::default();
    shadow.session.set_cancel(Some(&token));
    let (result, stats) = t.time("ilp.repair", root, || shadow.session.repair());
    shadow.session.set_cancel(None);
    *shadow.session.config_mut() = saved;
    shadow.touched.clear();
    checkpoint(t, root, shadow, replay)?;
    if req.return_schedule {
        frame_write(t, root, &result, replay);
    }
    t.close(root);

    let served = head_of(reply)?;
    compare(
        replay,
        op,
        "cost",
        json::get_f64(&served, "cost"),
        stats.final_cost,
    );
    compare(
        replay,
        op,
        "evaluations",
        json::get_u64(&served, "evaluations"),
        stats.evaluations,
    );
    replay.repair_evaluations.push(stats.evaluations as f64);
    replay.dirty_shards.push(stats.dirty_shards as f64);
    replay.cone_nodes.push(stats.cone_nodes as f64);
    Ok(())
}

/// `restore_instances`, for every instance registered so far.
fn restart(
    t: &mut Tracer,
    request: u64,
    shadows: &mut [Option<Shadow>],
    pool: &WorkerPool,
) -> Result<(), String> {
    let root = t.open("shadow.restart", None, request);
    for shadow in shadows.iter_mut().flatten() {
        let blob = t
            .time("io.restore_read", root, || std::fs::read(&shadow.file))
            .map_err(|e| format!("{}: {e}", shadow.file.display()))?;
        shadow.session = t
            .time("io.restore", root, || IncrementalScheduler::restore(&blob))
            .map_err(|e| format!("{}: {e}", shadow.file.display()))?
            .with_pool(pool.clone());
    }
    t.close(root);
    Ok(())
}

/// The client-side view of a real request: one span from send to the last
/// newline, one child per frame.
fn client_spans(t: &mut Tracer, op: &Op, reply: &Reply) {
    let name = match op.kind {
        Kind::Register => "client.register",
        Kind::Schedule => "client.schedule",
        Kind::Mutate => "client.mutate",
        Kind::Repair => "client.repair",
        Kind::Status => "client.status",
    };
    let last = reply.frames.len() - 1;
    let root = t.record(name, None, op.id, reply.sent, reply.frames[last].0);
    let mut previous = reply.sent;
    for (i, (at, _)) in reply.frames.iter().enumerate() {
        let frame = match i {
            _ if i == last => "frame.final",
            0 => "frame.accepted",
            _ => "frame.incumbent",
        };
        t.record(frame, Some(root), op.id, previous, *at);
        previous = *at;
    }
}

/// Replays the run's requests; `dir` receives the shadow's checkpoints.
pub fn replay(log: &RunLog, dir: &Path, t: &mut Tracer) -> Result<Replay, String> {
    let pool = WorkerPool::shared().clone();
    let mut replay = Replay {
        pool_workers: pool.capacity(),
        ..Replay::default()
    };
    for restart in &log.restarts {
        t.record("client.restart", None, 0, restart.reaped, restart.replied);
    }
    let mut shadows: Vec<Option<Shadow>> = log.instances.iter().map(|_| None).collect();
    let mut segment = 0;
    for exchange in &log.exchanges {
        let op = &exchange.op;
        while segment < exchange.segment {
            segment += 1;
            restart(t, segment as u64, &mut shadows, &pool)?;
        }
        // A failed exchange is already a failed run; the replay needs replies.
        let Ok(reply) = &exchange.reply else { continue };
        client_spans(t, op, reply);
        if op.kind == Kind::Register {
            let instance = &log.instances[op.instance];
            shadows[op.instance] = Some(register(t, op, dir, &pool, instance, &mut replay)?);
            continue;
        }
        let Some(shadow) = shadows[op.instance].as_mut() else {
            continue;
        };
        match op.kind {
            Kind::Register => unreachable!("handled above"),
            Kind::Schedule => schedule(t, op, reply, shadow, &pool, &mut replay)?,
            Kind::Mutate => mutate(t, op, shadow, &mut replay)?,
            Kind::Repair => repair(t, op, reply, shadow, &mut replay)?,
            Kind::Status => {}
        }
    }

    // What one batch costs on an idle pool, beyond the jobs themselves.
    for _ in 0..POOL_BATCHES {
        let start = Instant::now();
        pool.run_batch((0..replay.pool_workers).map(|_| || ()).collect());
        replay
            .pool_batch_us
            .push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(replay)
}

/// Per request kind, the chain's layers by summed time, largest first.
pub fn contributors(t: &Tracer) -> Vec<(&'static str, Vec<(&'static str, f64)>)> {
    [
        ("register", "shadow.register"),
        ("schedule", "shadow.schedule"),
        ("mutate", "shadow.mutate"),
        ("repair", "shadow.repair"),
        ("restart", "shadow.restart"),
    ]
    .map(|(kind, root)| (kind, t.contributors(root)))
    .to_vec()
}

/// The per-layer metrics of a traced pass.
pub fn layer_metrics(log: &RunLog, t: &Tracer, replay: &Replay) -> Result<Vec<Metric>, String> {
    let sum: fn(&[f64]) -> f64 = |s| s.iter().sum();
    let ms = |metric: &str, span: &str| layer(metric, &t.self_ms(span), median);
    let us = |metric: &str, span: &str| {
        let scaled: Vec<f64> = t.self_ms(span).iter().map(|ms| ms * 1e3).collect();
        layer(metric, &scaled, median)
    };
    let search_ms = t.self_ms("ilp.search");
    let evaluations: f64 = replay.search_evaluations.iter().sum();
    let partition = ms("ilp.partition_ms", "ilp.partition")?;
    let topo = ms("ilp.topo_partition_ms", "ilp.topo_partition")?;
    // The weighted partition is the topological one plus the quotient and
    // bipartition ILPs.
    let partition_ilp = Metric {
        n: partition.n,
        ..layer(
            "lpsolve.partition_ilp_ms",
            &[partition.value - topo.value],
            median,
        )?
    };
    let unattributed = |metric: &str, end_to_end: &[f64], root: &str| {
        let chain = t.children_ms(root);
        if end_to_end.is_empty() || chain.is_empty() {
            return Err(format!("no samples for {metric}"));
        }
        layer(metric, &[median(end_to_end) - median(&chain)], median).map(|m| Metric {
            n: chain.len(),
            ..m
        })
    };
    Ok(vec![
        ms("serve.parse_register_ms", "serve.parse_register")?,
        layer("serve.json_parse_mb_s", &replay.json_mb_s, median)?,
        layer("serve.hex_decode_mb_s", &replay.hex_mb_s, median)?,
        ms("io.decode_dag_ms", "io.decode_dag")?,
        layer("serve.rtt_floor_ms", &log.rtt_floor_ms, median)?,
        layer("serve.queued_noop_ms", &log.queued_noop_ms, median)?,
        us("serve.parse_mutate_us", "serve.parse_mutate")?,
        us("dag.apply_delta_us", "dag.apply_delta")?,
        ms("io.checkpoint_encode_ms", "io.checkpoint_encode")?,
        layer("io.checkpoint_bytes", &replay.checkpoint_bytes, median)?,
        ms("io.checkpoint_write_ms", "io.checkpoint_write")?,
        layer("io.state_dir_bytes", &[log.state_dir_bytes as f64], median)?,
        ms("serve.frame_write_ms", "serve.frame_write")?,
        layer("serve.frame_bytes", &replay.frame_bytes, median)?,
        ms("gen.family_ms", "gen.family")?,
        ms("model.min_cache_ms", "model.min_cache")?,
        ms("sched.greedy_ms", "sched.greedy")?,
        ms("dag.clone_ms", "dag.clone")?,
        ms("ilp.session_new_ms", "ilp.session_new")?,
        ms("dag.pk_build_ms", "dag.pk_build")?,
        layer("ilp.search_ms", &search_ms, median)?,
        ms("ilp.search_1w_ms", "ilp.search_1w")?,
        layer("ilp.search_evaluations", &replay.search_evaluations, median)?,
        Metric {
            n: search_ms.len(),
            ..layer(
                "ilp.evals_per_s",
                &[evaluations / (sum(&search_ms) / 1e3)],
                median,
            )?
        },
        Metric {
            n: replay.search_shards as usize,
            ..layer(
                "ilp.accept_ratio",
                &[replay.search_accepted / replay.search_shards],
                median,
            )?
        },
        Metric {
            n: search_ms.len(),
            ..layer("ilp.salvaged_moves", &[replay.search_salvaged], median)?
        },
        ms("cache.arena_build_ms", "cache.arena_build")?,
        ms("cache.convert_ms", "cache.convert")?,
        ms("ilp.engine_build_ms", "ilp.engine_build")?,
        ms("ilp.eval_candidate_ms", "ilp.eval_candidate")?,
        ms("model.sync_cost_ms", "model.sync_cost")?,
        ms("model.validate_ms", "model.validate")?,
        partition,
        topo,
        partition_ilp,
        ms("ilp.repair_ms", "ilp.repair")?,
        layer("ilp.repair_evaluations", &replay.repair_evaluations, median)?,
        layer("ilp.dirty_shards", &replay.dirty_shards, median)?,
        layer("ilp.cone_nodes", &replay.cone_nodes, median)?,
        ms("dag.cone_ms", "dag.cone")?,
        ms("io.restore_ms", "io.restore")?,
        layer("pool.batch_overhead_us", &replay.pool_batch_us, median)?,
        layer("pool.workers", &[replay.pool_workers as f64], median)?,
        unattributed(
            "serve.register_unattributed_ms",
            &metrics::latencies_ms(log, Kind::Register),
            "shadow.register",
        )?,
        unattributed(
            "serve.schedule_unattributed_ms",
            &metrics::latencies_ms(log, Kind::Schedule),
            "shadow.schedule",
        )?,
        unattributed(
            "serve.mutate_unattributed_ms",
            &metrics::latencies_ms(log, Kind::Mutate),
            "shadow.mutate",
        )?,
        unattributed(
            "serve.repair_unattributed_ms",
            &metrics::latencies_ms(log, Kind::Repair),
            "shadow.repair",
        )?,
        unattributed(
            "serve.restart_unattributed_ms",
            &metrics::restart_ms(log),
            "shadow.restart",
        )?,
    ])
}
