//! Runs one workload against a real daemon and keeps everything that came
//! back: set-up repetitions, the measured closed loop (segments separated by
//! `kill -9` + restart), and — for the traced pass — the reply-floor probes.
//! Nothing is judged here; [`crate::check`] and [`crate::shadow`] read the log.

use crate::client::{Conn, Reply};
use crate::daemon::{DaemonHost, ProcUsage};
use crate::workloads::{Instance, Op, Shape};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up is repeated and its median reported; the last repetition's plan and
/// daemon are the ones measured. Cheap set-ups (tens of milliseconds, mostly a
/// process spawn) get more repetitions than expensive ones: at least
/// `MIN_SETUP_REPS`, then on until `SETUP_BUDGET` is spent or `MAX_SETUP_REPS`
/// are done.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const RTT_PINGS: usize = 50;
const NOOP_PINGS: usize = 10;

const DAEMON_STATUS: &[u8] = b"{\"op\":\"status\"}\n";

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    pub traced: bool,
}

/// One request and what came back (`Err`: the connection failed).
#[derive(Debug)]
pub struct Exchange {
    pub op: Op,
    pub reply: Result<Reply, String>,
    /// Which incarnation of the daemon answered: restarts so far.
    pub segment: usize,
}

/// One `kill -9` → respawn → daemon `status` round.
#[derive(Debug)]
pub struct Restart {
    pub reaped: Instant,
    pub replied: Instant,
}

#[derive(Debug)]
pub struct RunLog {
    pub clients: usize,
    pub instances: Vec<Instance>,
    /// In send order per client, segments in order — so the exchanges of one
    /// instance appear in the order the daemon executed them.
    pub exchanges: Vec<Exchange>,
    pub restarts: Vec<Restart>,
    pub setup_s: Vec<f64>,
    /// Wall time of the request segments (restarts excluded).
    pub measured_wall_s: f64,
    pub usage: ProcUsage,
    pub state_dir_bytes: u64,
    /// Traced pass only: daemon `status` round trips (one frame).
    pub rtt_floor_ms: Vec<f64>,
    /// Traced pass only: instance `status` round trips (`accepted` + reply
    /// through the admission queue, no engine work).
    pub queued_noop_ms: Vec<f64>,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ping(addr: SocketAddr, line: &[u8]) -> Result<(Conn, Reply), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
    let reply = conn
        .request(line)
        .map_err(|e| format!("status ping failed: {e}"))?;
    Ok((conn, reply))
}

fn run_client(addr: SocketAddr, segment: usize, ops: Vec<Op>) -> Vec<Exchange> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect to {addr}: {e}"));
    ops.into_iter()
        .map(|op| {
            let reply = match &mut conn {
                Ok(c) => c.request(&op.line).map_err(|e| e.to_string()),
                Err(e) => Err(e.clone()),
            };
            if let Err(e) = &reply {
                // A broken connection cannot carry the ops that follow.
                conn = Err(format!("connection lost earlier: {e}"));
            }
            Exchange { op, reply, segment }
        })
        .collect()
}

/// Runs `shape` end to end. The returned host still owns the run directory
/// (the shadow replay writes its checkpoints beside the daemon's); dropping it
/// removes the directory.
pub fn run(shape: &Shape, opts: Options, out_dir: &Path) -> Result<(RunLog, DaemonHost), String> {
    let clients = shape.clients.min(nproc());
    let mut setup_s = Vec::new();
    let mut ready = None;
    let setup_started = Instant::now();
    while setup_s.len() < MIN_SETUP_REPS
        || (setup_s.len() < MAX_SETUP_REPS && setup_started.elapsed() < SETUP_BUDGET)
    {
        drop(ready.take());
        let started = Instant::now();
        let plan = shape.plan(opts.seed, opts.seconds, opts.smoke, clients);
        let mut host = DaemonHost::new(out_dir, shape.name).map_err(|e| e.to_string())?;
        let addr = host.spawn()?;
        ping(addr, DAEMON_STATUS)?;
        setup_s.push(started.elapsed().as_secs_f64());
        ready = Some((plan, host, addr));
    }
    let (plan, mut host, mut addr) = ready.expect("MIN_SETUP_REPS >= 1");

    let mut exchanges = Vec::new();
    let mut restarts = Vec::new();
    let mut measured_wall_s = 0.0;
    for (s, segment) in plan.segments.into_iter().enumerate() {
        if s > 0 {
            let reaped = host.kill();
            addr = host.spawn()?;
            let (_, reply) = ping(addr, DAEMON_STATUS)?;
            restarts.push(Restart {
                reaped,
                replied: reply.frames.last().expect("terminated").0,
            });
        }
        let started = Instant::now();
        let done: Vec<Vec<Exchange>> = std::thread::scope(|scope| {
            let handles: Vec<_> = segment
                .into_iter()
                .filter(|ops| !ops.is_empty())
                .map(|ops| scope.spawn(move || run_client(addr, s, ops)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        measured_wall_s += started.elapsed().as_secs_f64();
        exchanges.extend(done.into_iter().flatten());
    }

    let mut rtt_floor_ms = Vec::new();
    let mut queued_noop_ms = Vec::new();
    if opts.traced {
        let (mut conn, _) = ping(addr, DAEMON_STATUS)?;
        let mut probe = |line: &[u8], count: usize| -> Result<Vec<f64>, String> {
            (0..count)
                .map(|_| conn.request(line).map(|r| r.latency_ms()))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("probe failed: {e}"))
        };
        rtt_floor_ms = probe(DAEMON_STATUS, RTT_PINGS)?;
        let noop = format!(
            "{{\"op\":\"status\",\"instance\":\"{}\"}}\n",
            plan.instances[0].name
        );
        queued_noop_ms = probe(noop.as_bytes(), NOOP_PINGS)?;
    }

    let state_dir_bytes = host.state_dir_bytes();
    host.kill();
    Ok((
        RunLog {
            clients,
            instances: plan.instances,
            exchanges,
            restarts,
            setup_s,
            measured_wall_s,
            usage: host.usage(),
            state_dir_bytes,
            rtt_floor_ms,
            queued_noop_ms,
        },
        host,
    ))
}
