//! The output checker: always on, run after the clocks have stopped.
//!
//! Walks every instance's exchanges in execution order beside a mirror DAG
//! that is kept in step with every `mutate` through `CompDag::apply_delta`,
//! and judges each reply against what the protocol promises: echoed ids,
//! node/edge/pending/generation counts (also across `kill -9` restarts),
//! contiguous strictly-improving incumbent streams, `stop_reason` completed,
//! and — for every returned schedule — a legal pebbling of the mirror DAG
//! whose `sync_cost` equals the reported cost.

use crate::client::Reply;
use crate::driver::RunLog;
use crate::json::{self, get, get_f64, get_str, get_u64};
use crate::workloads::{Instance, Kind, Op};
use mbsp::cache::{ClairvoyantPolicy, TwoStageScheduler};
use mbsp::dag::{CompDag, PkOrder};
use mbsp::model::{sync_cost, Architecture, MbspSchedule};
use mbsp::sched::{BspScheduler, GreedyBspScheduler};
use serde::{Deserialize, Value};

/// What the daemon last told us (or must now report) about an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    nodes: u64,
    edges: u64,
    pending: u64,
    generation: u64,
}

#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations judged: every request plus every restart.
    pub attempted: usize,
    /// One line per failed, refused or invalid operation.
    pub failures: Vec<String>,
    /// Served `schedule` cost ÷ two-stage cost on the same DAG.
    pub cost_ratios: Vec<f64>,
    /// `repair` cost ÷ its `incumbent_cost`.
    pub repair_cost_ratios: Vec<f64>,
    /// Send → first `incumbent` frame with `sequence >= 1`; for a search that
    /// never beats its seed incumbent, send → `done` (when the client learns
    /// that no improvement is coming).
    pub first_improve_ms: Vec<f64>,
    /// Returned schedules that were validated against the mirror DAG.
    pub validated_schedules: usize,
}

struct Mirror<'a> {
    instance: &'a Instance,
    dag: CompDag,
    order: PkOrder,
    counts: Option<Counts>,
}

pub fn check(log: &RunLog) -> Verdict {
    let mut verdict = Verdict {
        attempted: log.exchanges.len() + log.restarts.len(),
        ..Verdict::default()
    };
    let mut mirrors: Vec<Mirror<'_>> = log
        .instances
        .iter()
        .map(|instance| Mirror {
            instance,
            dag: instance.dag.clone(),
            order: PkOrder::of_dag(&instance.dag),
            counts: None,
        })
        .collect();
    for exchange in &log.exchanges {
        let op = &exchange.op;
        let mirror = &mut mirrors[op.instance];
        let outcome = match &exchange.reply {
            Err(e) => Err(format!("transport: {e}")),
            Ok(reply) => judge(mirror, op, reply, &mut verdict),
        };
        if let Err(why) = outcome {
            verdict.failures.push(format!(
                "{} #{} on {:?}: {why}",
                op.kind.name(),
                op.id,
                mirror.instance.name
            ));
        }
    }
    verdict
}

/// The two-stage reference every `cost_ratio` divides by: greedy BSP, then
/// the clairvoyant cache conversion, computed here with the library on the
/// mirror DAG — never taken from the daemon.
fn two_stage_cost(dag: &CompDag, arch: &Architecture) -> f64 {
    let bsp = GreedyBspScheduler::new().schedule(dag, arch);
    let mut schedule =
        TwoStageScheduler::new().schedule(dag, arch, &bsp, &ClairvoyantPolicy::new());
    schedule.remove_empty_supersteps();
    sync_cost(&schedule, dag, arch).total
}

fn parse_frame(bytes: &[u8]) -> Result<Value, String> {
    json::parse(bytes).map_err(|e| format!("unparsable frame: {e}"))
}

fn want_u64(frame: &Value, key: &str) -> Result<u64, String> {
    get_u64(frame, key).ok_or_else(|| format!("frame lacks integer `{key}`"))
}

fn want_f64(frame: &Value, key: &str) -> Result<f64, String> {
    get_f64(frame, key).ok_or_else(|| format!("frame lacks number `{key}`"))
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

fn expect_event(frame: &Value, event: &str) -> Result<(), String> {
    if get(frame, "ok") != Some(&Value::Bool(true)) {
        let error = get(frame, "error");
        let field = |k| error.and_then(|e| get_str(e, k)).unwrap_or("?");
        return Err(format!("refused: {} ({})", field("code"), field("message")));
    }
    expect_eq("event", get_str(frame, "event"), Some(event))
}

fn expect_completed(frame: &Value) -> Result<(), String> {
    expect_eq(
        "stop_reason",
        get_str(frame, "stop_reason"),
        Some("completed"),
    )
}

fn judge(
    mirror: &mut Mirror<'_>,
    op: &Op,
    reply: &Reply,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let (kind, id, deltas) = (op.kind, op.id, &op.deltas);
    let (_, last) = reply
        .frames
        .last()
        .expect("a reply has a terminating frame");
    let last = parse_frame(last)?;
    expect_eq("echoed id", get_u64(&last, "id"), Some(id))?;

    if kind == Kind::Register {
        expect_eq("frame count", reply.frames.len(), 1)?;
        expect_event(&last, "registered")?;
        let counts = Counts {
            nodes: mirror.dag.num_nodes() as u64,
            edges: mirror.dag.num_edges() as u64,
            pending: 0,
            generation: 1,
        };
        expect_eq("nodes", want_u64(&last, "nodes")?, counts.nodes)?;
        expect_eq("edges", want_u64(&last, "edges")?, counts.edges)?;
        let arch = &mirror.instance.arch;
        expect_eq(
            "processors",
            want_u64(&last, "processors")?,
            arch.processors as u64,
        )?;
        expect_eq(
            "cache_size",
            want_f64(&last, "cache_size")?,
            arch.cache_size,
        )?;
        mirror.counts = Some(counts);
        return Ok(());
    }

    // Queued kinds: `accepted` first, and the job id it assigns on every
    // later frame.
    let accepted = parse_frame(&reply.frames[0].1)?;
    expect_event(&accepted, "accepted")?;
    expect_eq("accepted id", get_u64(&accepted, "id"), Some(id))?;
    let job = want_u64(&accepted, "job")?;
    expect_eq("job on the last frame", get_u64(&last, "job"), Some(job))?;
    let mut counts = mirror
        .counts
        .ok_or("the instance's register did not succeed")?;

    match kind {
        Kind::Register => unreachable!("handled above"),
        Kind::Schedule => {
            expect_event(&last, "done")?;
            expect_completed(&last)?;
            let cost = want_f64(&last, "cost")?;
            let mut previous = f64::INFINITY;
            let mut improved_at = reply.frames.last().expect("checked above").0;
            let stream = &reply.frames[1..reply.frames.len() - 1];
            for (sequence, (at, bytes)) in stream.iter().enumerate() {
                let frame = parse_frame(bytes)?;
                expect_eq("stream event", get_str(&frame, "event"), Some("incumbent"))?;
                expect_eq("stream job", get_u64(&frame, "job"), Some(job))?;
                expect_eq(
                    "sequence",
                    get_u64(&frame, "sequence"),
                    Some(sequence as u64),
                )?;
                let c = want_f64(&frame, "cost")?;
                if c >= previous {
                    return Err(format!(
                        "incumbent {sequence} does not improve: {c} >= {previous}"
                    ));
                }
                previous = c;
                if sequence == 1 {
                    improved_at = *at;
                }
            }
            expect_eq("final incumbent vs done cost", previous, cost)?;
            verdict
                .first_improve_ms
                .push(improved_at.duration_since(reply.sent).as_secs_f64() * 1e3);
            check_schedule(mirror, op, &last, cost, verdict)?;
            let baseline = two_stage_cost(&mirror.dag, &mirror.instance.arch);
            verdict.cost_ratios.push(cost / baseline);
            // `schedule` rebuilds the session around the winner: nothing pending.
            counts.pending = 0;
        }
        Kind::Mutate => {
            for delta in deltas {
                mirror
                    .dag
                    .apply_delta(delta, &mut mirror.order)
                    .map_err(|e| format!("the mirror DAG refused a delta: {e}"))?;
            }
            expect_event(&last, "done")?;
            expect_eq("applied", want_u64(&last, "applied")?, deltas.len() as u64)?;
            counts = Counts {
                nodes: mirror.dag.num_nodes() as u64,
                edges: mirror.dag.num_edges() as u64,
                pending: want_u64(&last, "pending")?,
                generation: counts.generation + 1,
            };
            expect_eq("nodes", want_u64(&last, "nodes")?, counts.nodes)?;
            expect_eq("edges", want_u64(&last, "edges")?, counts.edges)?;
            expect_eq(
                "generation",
                want_u64(&last, "generation")?,
                counts.generation,
            )?;
        }
        Kind::Repair => {
            expect_event(&last, "done")?;
            expect_completed(&last)?;
            let cost = want_f64(&last, "cost")?;
            let incumbent = want_f64(&last, "incumbent_cost")?;
            if cost > incumbent {
                return Err(format!("repair made it worse: {cost} > {incumbent}"));
            }
            expect_eq(
                "pending_nodes",
                want_u64(&last, "pending_nodes")?,
                counts.pending,
            )?;
            check_schedule(mirror, op, &last, cost, verdict)?;
            verdict.repair_cost_ratios.push(cost / incumbent);
            counts.pending = 0;
            counts.generation += 1;
        }
        Kind::Status => {
            expect_event(&last, "status")?;
            let reported = Counts {
                nodes: want_u64(&last, "nodes")?,
                edges: want_u64(&last, "edges")?,
                pending: want_u64(&last, "pending")?,
                generation: want_u64(&last, "generation")?,
            };
            expect_eq("instance state", reported, counts)?;
        }
    }
    mirror.counts = Some(counts);
    Ok(())
}

/// A schedule must be embedded exactly when asked for, be a legal pebbling of the mirror
/// DAG under the instance's cache size, and cost exactly what was reported.
fn check_schedule(
    mirror: &Mirror<'_>,
    op: &Op,
    frame: &Value,
    cost: f64,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let Some(value) = get(frame, "schedule") else {
        return expect_eq("schedule embedded", false, op.returns_schedule);
    };
    let schedule = MbspSchedule::from_value(value)
        .map_err(|e| format!("schedule does not deserialise: {e}"))?;
    let arch = &mirror.instance.arch;
    schedule
        .validate(&mirror.dag, arch)
        .map_err(|e| format!("illegal schedule: {e}"))?;
    expect_eq(
        "reported cost vs sync_cost",
        cost,
        sync_cost(&schedule, &mirror.dag, arch).total,
    )?;
    verdict.validated_schedules += 1;
    Ok(())
}
