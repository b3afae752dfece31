//! End-to-end tests of the `mbsp_serve` daemon over real TCP connections:
//! concurrent schedule/mutate/cancel traffic with streamed monotone
//! incumbents, byte-identity of served schedules against direct library runs
//! at the same budget, byte-identical continuation across a graceful
//! shutdown + restart, every frame kind's text against what
//! `serde_json::to_string` writes for its map, and the mailbox's drain
//! threads — none while an instance is idle, no job stranded as one exits, a
//! bounded backlog, final checkpoints from idle and busy instances alike —
//! and the state directory: one file per instance, restored with its own
//! generation, and nothing else in the directory read. CI
//! reruns this suite under
//! `MBSP_BENCH_THREADS=2/8` to pin the worker-count independence of every
//! served result.

use mbsp_gen::cg::cg_dag;
use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_ilp::{IncrementalScheduler, RepairConfig, ShardedHolisticScheduler, ShardedSearchConfig};
use mbsp_model::{Architecture, MbspInstance, MbspSchedule};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use mbsp_serve::{Server, ServerConfig};
use serde::{map_get, Deserialize, Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A tiny line-protocol client: one connection, blocking frame reads.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// One request, one write — the client half of the transport advice in
    /// docs/PROTOCOL.md.
    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    /// One frame's text, without its newline.
    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        assert_eq!(line.pop(), Some('\n'), "a frame ends in one newline");
        line
    }

    fn recv(&mut self) -> Value {
        serde_json::from_str(&self.recv_line()).expect("frame must be valid JSON")
    }

    /// Receives one frame and asserts that its text is, byte for byte, what
    /// `serde_json::to_string` writes for the map of `expected` — the entries
    /// the test builds from the parsed frame, typed and ordered as the frame
    /// kind prescribes.
    fn recv_exactly(&mut self, expected: impl FnOnce(&Value) -> Vec<(&str, Value)>) -> Value {
        let line = self.recv_line();
        let frame: Value = serde_json::from_str(&line).expect("frame must be valid JSON");
        let oracle = Value::Map(
            expected(&frame)
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        );
        assert_eq!(line, serde_json::to_string(&oracle).unwrap());
        frame
    }

    /// Reads frames until one matches `pred`, returning the skipped frames
    /// and the match.
    fn recv_until(&mut self, mut pred: impl FnMut(&Value) -> bool) -> (Vec<Value>, Value) {
        let mut skipped = Vec::new();
        loop {
            let frame = self.recv();
            if pred(&frame) {
                return (skipped, frame);
            }
            skipped.push(frame);
        }
    }
}

fn get<'a>(frame: &'a Value, key: &str) -> Option<&'a Value> {
    frame.as_map().and_then(|m| map_get(m, key))
}

fn get_str<'a>(frame: &'a Value, key: &str) -> Option<&'a str> {
    get(frame, key).and_then(|v| v.as_str())
}

fn get_u64(frame: &Value, key: &str) -> Option<u64> {
    match get(frame, key) {
        Some(Value::UInt(n)) => Some(*n),
        Some(Value::Int(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn get_f64(frame: &Value, key: &str) -> Option<f64> {
    match get(frame, key) {
        Some(Value::Float(x)) => Some(*x),
        Some(Value::UInt(n)) => Some(*n as f64),
        Some(Value::Int(n)) => Some(*n as f64),
        _ => None,
    }
}

fn is_event(frame: &Value, event: &str) -> bool {
    get_str(frame, "event") == Some(event)
}

fn assert_ok(frame: &Value) {
    assert_eq!(
        get(frame, "ok"),
        Some(&Value::Bool(true)),
        "expected ok frame, got {frame:?}"
    );
}

/// The `error.code` of a reject frame.
fn error_code(frame: &Value) -> Option<String> {
    get(frame, "error")
        .and_then(|e| e.as_map())
        .and_then(|m| map_get(m, "code"))
        .and_then(|v| v.as_str())
        .map(str::to_string)
}

fn temp_state_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbsp_serve_{label}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

fn start_server(state_dir: &Path) -> Server {
    Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        state_dir: state_dir.to_path_buf(),
        workers: 0,
    })
    .expect("server starts")
}

/// The budget every schedule request (and its direct-library mirror) uses:
/// explicit shard count so results do not depend on the machine.
const BUDGET: &str = r#""num_shards":4,"seed":11,"max_rounds":6,"moves_per_round":8,"iterations":2,"stale_round_limit":0"#;

fn budget_config() -> ShardedSearchConfig {
    ShardedSearchConfig {
        num_shards: 4,
        seed: 11,
        max_rounds: 6,
        moves_per_round: 8,
        iterations: 2,
        stale_round_limit: 0,
        ..ShardedSearchConfig::default()
    }
}

/// The direct library run the daemon must match byte-for-byte: greedy
/// baseline + sharded search at the same budget.
fn direct_schedule_json(
    dag: &mbsp_dag::CompDag,
    arch: &Architecture,
    config: ShardedSearchConfig,
) -> String {
    let baseline = GreedyBspScheduler::new().schedule(dag, arch);
    let instance = MbspInstance::new(dag.clone(), *arch);
    let (schedule, _, _) = ShardedHolisticScheduler::with_config(config)
        .schedule_with_assignment(&instance, &baseline);
    serde_json::to_string(&schedule).expect("schedule serializes")
}

#[test]
fn concurrent_clients_stream_monotone_incumbents_and_match_direct_runs() {
    let state_dir = temp_state_dir("e2e");
    let server = start_server(&state_dir);
    let addr = server.local_addr();

    // Register two instances from one connection: a CG family instance for
    // the byte-identity check and a random layered one for mutate/cancel.
    let mut setup = Client::connect(addr);
    setup.send(&format!(
        r#"{{"id":1,"op":"register","instance":"cg","family":{{"kind":"cg","n":4,"k":2}},"processors":4,"cache_factor":3.0,{BUDGET}}}"#
    ));
    let frame = setup.recv();
    assert_ok(&frame);
    assert!(is_event(&frame, "registered"), "got {frame:?}");
    setup.send(&format!(
        r#"{{"id":2,"op":"register","instance":"rnd","family":{{"kind":"random","layers":5,"width":6,"edge_probability":0.35,"seed":7}},"processors":4,"cache_factor":3.0,{BUDGET}}}"#
    ));
    assert_ok(&setup.recv());

    // Daemon-level status sees both instances.
    setup.send(r#"{"id":3,"op":"status"}"#);
    let status = setup.recv();
    assert_ok(&status);
    assert_eq!(
        get(&status, "instances")
            .and_then(|v| v.as_seq())
            .map(|s| s.len()),
        Some(2)
    );

    // Three concurrent clients: a streaming scheduler, a mutator+repairer,
    // and a canceller working a queued job.
    let schedule_thread = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        c.send(&format!(
            r#"{{"id":10,"op":"schedule","instance":"cg","stream":true,"return_schedule":true,{BUDGET}}}"#
        ));
        let accepted = c.recv();
        assert_ok(&accepted);
        assert!(is_event(&accepted, "accepted"));
        let (incumbents, done) = c.recv_until(|f| is_event(f, "done"));
        assert_ok(&done);

        // The incumbent stream is monotone: sequences increase by one from 0,
        // costs strictly decrease, and the done cost equals the last
        // incumbent's cost.
        assert!(
            !incumbents.is_empty(),
            "at least the seed incumbent streams"
        );
        let mut last_cost = f64::INFINITY;
        for (i, frame) in incumbents.iter().enumerate() {
            assert!(is_event(frame, "incumbent"), "got {frame:?}");
            assert_eq!(get_u64(frame, "sequence"), Some(i as u64));
            let cost = get_f64(frame, "cost").expect("incumbent cost");
            assert!(
                cost < last_cost,
                "incumbent {i} cost {cost} must improve on {last_cost}"
            );
            last_cost = cost;
        }
        assert_eq!(get_f64(&done, "cost"), Some(last_cost));
        serde_json::to_string(get(&done, "schedule").expect("schedule embedded")).unwrap()
    });

    let mutate_thread = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        c.send(
            r#"{"id":20,"op":"mutate","instance":"rnd","deltas":[{"add_node":{"compute":2.0,"memory":1.5}},{"add_edge":{"from":0,"to":30}},{"reweight":{"node":3,"compute":4.0,"memory":2.0}}]}"#,
        );
        let (_, done) = c.recv_until(|f| is_event(f, "done"));
        assert_ok(&done);
        assert_eq!(get_u64(&done, "applied"), Some(3));
        assert!(get_u64(&done, "pending").unwrap() >= 3, "got {done:?}");
        c.send(r#"{"id":21,"op":"repair","instance":"rnd"}"#);
        let (_, done) = c.recv_until(|f| is_event(f, "done"));
        assert_ok(&done);
        assert_eq!(get_str(&done, "stop_reason"), Some("completed"));
    });

    let cancel_thread = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        // Two schedule jobs queue back-to-back on `rnd`; cancelling the
        // second while it waits behind the first makes its token observably
        // cancelled *before* its run starts — a deterministic cancellation
        // at the first boundary, returning the seed incumbent.
        c.send(&format!(
            r#"{{"id":30,"op":"schedule","instance":"rnd","stream":false,{BUDGET}}}"#
        ));
        let first = c.recv();
        assert!(is_event(&first, "accepted"));
        c.send(&format!(
            r#"{{"id":31,"op":"schedule","instance":"rnd","stream":false,{BUDGET}}}"#
        ));
        let second = c.recv();
        assert!(is_event(&second, "accepted"));
        let victim = get_u64(&second, "job").expect("job id");
        c.send(&format!(r#"{{"id":32,"op":"cancel","job":{victim}}}"#));
        let mut cancelled_ack = false;
        let mut victim_reason = None;
        while victim_reason.is_none() {
            let frame = c.recv();
            if is_event(&frame, "cancelled") {
                cancelled_ack = true;
            } else if is_event(&frame, "done") && get_u64(&frame, "job") == Some(victim) {
                victim_reason = get_str(&frame, "stop_reason").map(str::to_string);
            }
        }
        assert!(cancelled_ack, "cancel must be acknowledged");
        assert_eq!(victim_reason.as_deref(), Some("cancelled"));
    });

    let served = schedule_thread.join().expect("schedule client");
    mutate_thread.join().expect("mutate client");
    cancel_thread.join().expect("cancel client");

    // Byte-identity: the served schedule equals the direct library run on the
    // same DAG at the same budget.
    let dag = cg_dag("cg", 4, 2);
    let base = Architecture::new(4, 0.0, 1.0, 2.0);
    let arch = *MbspInstance::with_cache_factor(dag.clone(), base, 3.0).arch();
    assert_eq!(served, direct_schedule_json(&dag, &arch, budget_config()));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_zero_time_limit_answers_the_seed_incumbent_and_says_deadline() {
    let state_dir = temp_state_dir("deadline");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.send(&format!(
        r#"{{"id":1,"op":"register","instance":"cg","family":{{"kind":"cg","n":4,"k":2}},"processors":4,"cache_factor":3.0,{BUDGET}}}"#
    ));
    assert_ok(&c.recv());
    // The deadline has passed before the first pass: only the seed incumbent
    // streams, and `done` carries its cost.
    c.send(r#"{"id":2,"op":"schedule","instance":"cg","stream":true,"time_limit_ms":0}"#);
    assert!(is_event(&c.recv(), "accepted"));
    let (incumbents, done) = c.recv_until(|f| is_event(f, "done"));
    assert_ok(&done);
    assert_eq!(incumbents.len(), 1, "got {incumbents:?}");
    assert_eq!(get_str(&done, "stop_reason"), Some("deadline"));
    assert_eq!(get_u64(&done, "iterations"), Some(0));
    assert_eq!(get_f64(&done, "cost"), get_f64(&incumbents[0], "cost"));
    // The override was the job's alone: the instance registered no deadline,
    // so the same search without it spends its counts.
    c.send(r#"{"id":3,"op":"schedule","instance":"cg","stream":false}"#);
    let (_, done) = c.recv_until(|f| is_event(f, "done"));
    assert_eq!(get_str(&done, "stop_reason"), Some("completed"));
    assert_eq!(get_u64(&done, "iterations"), Some(2));
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A deadline belongs to a job: on `register`, `time_limit_ms` is parsed and
/// dropped, so an instance registered with an already-expired one — and the
/// same instance restored after a restart — spends its counts.
#[test]
fn a_register_deadline_is_ignored_and_a_restored_session_carries_none() {
    let state_dir = temp_state_dir("register_deadline");
    let schedule = |server: &Server| {
        let mut c = Client::connect(server.local_addr());
        c.send(r#"{"id":2,"op":"schedule","instance":"cg","stream":false}"#);
        let (_, done) = c.recv_until(|f| is_event(f, "done"));
        assert_ok(&done);
        assert_eq!(get_str(&done, "stop_reason"), Some("completed"));
        assert!(get_u64(&done, "iterations") >= Some(1), "{done:?}");
    };
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.send(&format!(
        r#"{{"id":1,"op":"register","instance":"cg","family":{{"kind":"cg","n":4,"k":2}},"processors":4,"cache_factor":3.0,"time_limit_ms":0,{BUDGET}}}"#
    ));
    assert_ok(&c.recv());
    schedule(&server);
    server.shutdown();
    server.join();
    let server = start_server(&state_dir);
    schedule(&server);
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A `register` without `num_shards` stores the library default, which the
/// search resolves from the DAG's size: on the small CG instance the served
/// schedule is the direct library run at one shard, on any host.
#[test]
fn a_register_without_num_shards_serves_the_one_shard_search_on_a_small_dag() {
    let state_dir = temp_state_dir("default_shards");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.send(
        r#"{"id":1,"op":"register","instance":"cg","family":{"kind":"cg","n":4,"k":2},"processors":4,"cache_factor":3.0,"seed":11,"max_rounds":6,"moves_per_round":8,"iterations":2,"stale_round_limit":0}"#,
    );
    assert_ok(&c.recv());
    c.send(r#"{"id":2,"op":"schedule","instance":"cg","stream":false,"return_schedule":true}"#);
    let (_, done) = c.recv_until(|f| is_event(f, "done"));
    assert_ok(&done);
    let served = serde_json::to_string(get(&done, "schedule").expect("schedule embedded")).unwrap();

    let dag = cg_dag("cg", 4, 2);
    let base = Architecture::new(4, 0.0, 1.0, 2.0);
    let arch = *MbspInstance::with_cache_factor(dag.clone(), base, 3.0).arch();
    let one_shard = ShardedSearchConfig {
        num_shards: 1,
        ..budget_config()
    };
    assert_eq!(served, direct_schedule_json(&dag, &arch, one_shard));
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

// Entry builders of the byte-identity oracle below. Each types a value the
// way its frame kind prescribes, reading it from the parsed frame where the
// test cannot know it in advance.

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn uint(frame: &Value, key: &str) -> Value {
    Value::UInt(get_u64(frame, key).expect(key))
}

fn float(frame: &Value, key: &str) -> Value {
    Value::Float(get_f64(frame, key).expect(key))
}

fn echo(frame: &Value, key: &str) -> Value {
    text(get_str(frame, key).expect(key))
}

/// How the reply to a queued job starts.
fn job_reply(id: u64, job: u64, event: &str) -> Vec<(&'static str, Value)> {
    vec![
        ("id", Value::UInt(id)),
        ("job", Value::UInt(job)),
        ("ok", Value::Bool(true)),
        ("event", text(event)),
    ]
}

/// Appends the schedule a `done` frame embeds, in the layout of its derive.
fn embedding(
    mut entries: Vec<(&'static str, Value)>,
    frame: &Value,
    embedded: bool,
) -> Vec<(&'static str, Value)> {
    if embedded {
        let schedule = get(frame, "schedule").expect("an embedded schedule");
        let schedule = MbspSchedule::from_value(schedule).expect("a schedule");
        entries.push(("schedule", schedule.to_value()));
    }
    entries
}

fn schedule_done(frame: &Value, id: u64, job: u64, embedded: bool) -> Vec<(&'static str, Value)> {
    let mut entries = job_reply(id, job, "done");
    entries.extend([
        ("cost", float(frame, "cost")),
        ("stop_reason", echo(frame, "stop_reason")),
        ("iterations", uint(frame, "iterations")),
        ("evaluations", uint(frame, "evaluations")),
    ]);
    embedding(entries, frame, embedded)
}

fn repair_done(frame: &Value, id: u64, job: u64, embedded: bool) -> Vec<(&'static str, Value)> {
    let mut entries = job_reply(id, job, "done");
    entries.extend([
        ("cost", float(frame, "cost")),
        ("incumbent_cost", float(frame, "incumbent_cost")),
        ("stop_reason", echo(frame, "stop_reason")),
        ("pending_nodes", uint(frame, "pending_nodes")),
        ("dirty_shards", uint(frame, "dirty_shards")),
        ("evaluations", uint(frame, "evaluations")),
    ]);
    embedding(entries, frame, embedded)
}

fn reject(frame: &Value, id: Option<u64>, job: Option<u64>) -> Vec<(&'static str, Value)> {
    let error = get(frame, "error").expect("error");
    let error = Value::Map(vec![
        ("code".to_string(), echo(error, "code")),
        ("message".to_string(), echo(error, "message")),
    ]);
    let mut entries = Vec::new();
    entries.extend(id.map(|id| ("id", Value::UInt(id))));
    entries.extend(job.map(|job| ("job", Value::UInt(job))));
    entries.extend([("ok", Value::Bool(false)), ("error", error)]);
    entries
}

/// Receives the `accepted` frame of request `id` on instance `cg`; its job.
fn accepted(c: &mut Client, id: u64) -> u64 {
    let frame = c.recv_exactly(|f| {
        vec![
            ("id", Value::UInt(id)),
            ("ok", Value::Bool(true)),
            ("event", text("accepted")),
            ("job", uint(f, "job")),
            ("instance", text("cg")),
        ]
    });
    get_u64(&frame, "job").unwrap()
}

fn instance_status(c: &mut Client, id: u64, scheduled: bool) {
    let job = accepted(c, id);
    c.recv_exactly(|f| {
        let mut entries = vec![
            ("ok", Value::Bool(true)),
            ("event", text("status")),
            ("instance", text("cg")),
            ("nodes", uint(f, "nodes")),
            ("edges", uint(f, "edges")),
            ("pending", uint(f, "pending")),
            ("generation", uint(f, "generation")),
        ];
        if scheduled {
            entries.push(("last_cost", float(f, "last_cost")));
        }
        entries.extend([("id", Value::UInt(id)), ("job", Value::UInt(job))]);
        entries
    });
}

fn mutate(c: &mut Client, id: u64) {
    c.send(&format!(
        r#"{{"id":{id},"op":"mutate","instance":"cg","deltas":[{{"add_node":{{"compute":2.0,"memory":1.5}}}},{{"reweight":{{"node":3,"compute":4.0,"memory":2.0}}}}]}}"#
    ));
    let job = accepted(c, id);
    c.recv_exactly(|f| {
        let mut entries = job_reply(id, job, "done");
        entries.extend([
            ("applied", Value::UInt(2)),
            ("nodes", uint(f, "nodes")),
            ("edges", uint(f, "edges")),
            ("pending", uint(f, "pending")),
            ("generation", uint(f, "generation")),
        ]);
        entries
    });
}

#[test]
fn every_frame_kind_is_the_text_serde_json_writes_for_its_map() {
    let state_dir = temp_state_dir("wire");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());

    c.send(&format!(
        r#"{{"id":1,"op":"register","instance":"cg","family":{{"kind":"cg","n":4,"k":2}},"processors":4,"cache_factor":3.0,{BUDGET}}}"#
    ));
    c.recv_exactly(|f| {
        vec![
            ("id", Value::UInt(1)),
            ("ok", Value::Bool(true)),
            ("event", text("registered")),
            ("instance", text("cg")),
            ("nodes", uint(f, "nodes")),
            ("edges", uint(f, "edges")),
            ("processors", Value::UInt(4)),
            ("cache_size", float(f, "cache_size")),
        ]
    });

    // Instance status before any search (no `last_cost`); daemon status.
    c.send(r#"{"id":2,"op":"status","instance":"cg"}"#);
    instance_status(&mut c, 2, false);
    c.send(r#"{"id":3,"op":"status"}"#);
    c.recv_exactly(|f| {
        let registered = Value::Map(vec![
            ("name".to_string(), text("cg")),
            ("generation".to_string(), Value::UInt(1)),
        ]);
        vec![
            ("id", Value::UInt(3)),
            ("ok", Value::Bool(true)),
            ("event", text("status")),
            ("instances", Value::Seq(vec![registered])),
            ("active_jobs", uint(f, "active_jobs")),
            ("running_sessions", uint(f, "running_sessions")),
            ("queued_jobs", uint(f, "queued_jobs")),
        ]
    });

    // `schedule`, streamed without the schedule, then unstreamed with it.
    c.send(r#"{"id":4,"op":"schedule","instance":"cg","stream":true}"#);
    let job = accepted(&mut c, 4);
    let mut sequence = 0;
    while !is_event(
        &c.recv_exactly(|f| {
            if is_event(f, "done") {
                return schedule_done(f, 4, job, false);
            }
            vec![
                ("job", Value::UInt(job)),
                ("event", text("incumbent")),
                ("sequence", Value::UInt(sequence)),
                ("iteration", uint(f, "iteration")),
                ("cost", float(f, "cost")),
                ("evaluations", uint(f, "evaluations")),
            ]
        }),
        "done",
    ) {
        sequence += 1;
    }
    assert!(sequence > 0, "the seed incumbent streams");
    c.send(r#"{"id":5,"op":"schedule","instance":"cg","stream":false,"return_schedule":true}"#);
    let job = accepted(&mut c, 5);
    c.recv_exactly(|f| schedule_done(f, 5, job, true));
    c.send(r#"{"id":6,"op":"status","instance":"cg"}"#);
    instance_status(&mut c, 6, true);

    // `mutate`, then `repair` without and with the schedule.
    mutate(&mut c, 7);
    c.send(r#"{"id":8,"op":"repair","instance":"cg"}"#);
    let job = accepted(&mut c, 8);
    c.recv_exactly(|f| repair_done(f, 8, job, false));
    mutate(&mut c, 9);
    c.send(r#"{"id":10,"op":"repair","instance":"cg","return_schedule":true}"#);
    let job = accepted(&mut c, 10);
    c.recv_exactly(|f| repair_done(f, 10, job, true));

    // `cancelled` for a running job, whose `done` may be written first.
    c.send(r#"{"id":11,"op":"schedule","instance":"cg","stream":false,"max_rounds":100000,"iterations":1000}"#);
    let job = accepted(&mut c, 11);
    c.send(&format!(r#"{{"id":12,"op":"cancel","job":{job}}}"#));
    let mut events: Vec<String> = (0..2)
        .map(|_| {
            let frame = c.recv_exactly(|f| {
                if is_event(f, "done") {
                    return schedule_done(f, 11, job, false);
                }
                vec![
                    ("id", Value::UInt(12)),
                    ("ok", Value::Bool(true)),
                    ("event", text("cancelled")),
                    ("job", Value::UInt(job)),
                ]
            });
            get_str(&frame, "event").unwrap().to_string()
        })
        .collect();
    events.sort();
    assert_eq!(events, ["cancelled", "done"]);

    // Rejects with a `job`, with an `id` only, and with neither; the message
    // of the second needs escapes.
    c.send(r#"{"id":13,"op":"cancel","job":999999}"#);
    c.recv_exactly(|f| reject(f, Some(13), Some(999_999)));
    c.send(r#"{"id":14,"op":"status","instance":"no \"such\" instance"}"#);
    c.recv_exactly(|f| reject(f, Some(14), None));
    c.send("not json");
    c.recv_exactly(|f| reject(f, None, None));

    c.send(r#"{"id":15,"op":"shutdown"}"#);
    c.recv_exactly(|_| {
        vec![
            ("id", Value::UInt(15)),
            ("ok", Value::Bool(true)),
            ("event", text("shutting_down")),
        ]
    });
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn an_infinite_cost_is_written_as_null_and_the_instance_keeps_answering() {
    // `g` = 1e308 is finite and admitted, but every cost it multiplies
    // overflows to infinity, which JSON cannot represent. Such a frame used to
    // be dropped — no `done`, and no instance `status` after it — so the
    // reads here time out rather than wait for the default two minutes.
    let state_dir = temp_state_dir("null");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.writer
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    c.send(&format!(
        r#"{{"id":1,"op":"register","instance":"cg","family":{{"kind":"cg","n":4,"k":2}},"processors":4,"g":1e308,{BUDGET}}}"#
    ));
    assert!(is_event(&c.recv(), "registered"));
    c.send(r#"{"id":2,"op":"schedule","instance":"cg","stream":true}"#);
    let (frames, done) = c.recv_until(|f| is_event(f, "done"));
    assert_ok(&done);
    assert_eq!(get(&done, "cost"), Some(&Value::Null), "got {done:?}");
    let incumbents: Vec<_> = frames.iter().filter(|f| is_event(f, "incumbent")).collect();
    assert!(!incumbents.is_empty());
    assert!(incumbents
        .iter()
        .all(|f| get(f, "cost") == Some(&Value::Null)));
    c.send(r#"{"id":3,"op":"status","instance":"cg"}"#);
    let (_, status) = c.recv_until(|f| is_event(f, "status"));
    assert_eq!(
        get(&status, "last_cost"),
        Some(&Value::Null),
        "got {status:?}"
    );
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A `schedule` on instance `cg` that is answered `done`.
fn schedule_is_answered(c: &mut Client, id: u64) {
    c.send(&format!(r#"{{"id":{id},"op":"schedule","instance":"cg"}}"#));
    let (_, done) = c.recv_until(|f| is_event(f, "done"));
    assert_ok(&done);
    assert_eq!(get_str(&done, "stop_reason"), Some("completed"));
}

#[test]
fn a_cache_below_the_minimal_cache_size_is_refused_at_register() {
    // Below `r0` some node's inputs and output never fit in fast memory
    // together, so no schedule exists. Such a `register` used to be answered
    // `registered`; the converter then panicked the instance's worker on the
    // next `schedule`, which — like every later request to the instance — was
    // accepted and never answered. The reads time out rather than wait for
    // the default two minutes.
    let state_dir = temp_state_dir("below_r0");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.writer
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let cg = r#""instance":"cg","family":{"kind":"cg","n":4,"k":2},"processors":4"#;
    for cache in [r#""cache_size":0.0"#, r#""cache_factor":0.5"#] {
        c.send(&format!(
            r#"{{"id":1,"op":"register",{cg},{cache},{BUDGET}}}"#
        ));
        let frame = c.recv();
        assert_eq!(
            error_code(&frame).as_deref(),
            Some("bad_request"),
            "{cache}: got {frame:?}"
        );
    }
    // Nothing was registered, and at `r0` itself the instance is served.
    c.send(&format!(
        r#"{{"id":2,"op":"register",{cg},"cache_factor":1.0,{BUDGET}}}"#
    ));
    assert!(is_event(&c.recv(), "registered"));
    schedule_is_answered(&mut c, 3);
    c.send(r#"{"id":4,"op":"repair","instance":"cg"}"#);
    let (_, done) = c.recv_until(|f| is_event(f, "done"));
    assert_ok(&done);
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_delta_that_outgrows_the_cache_is_a_bad_delta_and_the_instance_keeps_answering() {
    // A reweight that pushes a compute footprint above the cache used to be
    // applied and acknowledged; the next `schedule` then hung like a
    // registration below `r0` (see above). It is refused before the DAG
    // changes.
    let state_dir = temp_state_dir("outgrown");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.writer
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    c.send(&format!(
        r#"{{"id":1,"op":"register","instance":"cg","family":{{"kind":"cg","n":4,"k":2}},"processors":4,"cache_factor":3.0,{BUDGET}}}"#
    ));
    let registered = c.recv();
    assert!(is_event(&registered, "registered"));
    assert!(get_u64(&registered, "nodes").unwrap() > 20);
    c.send(r#"{"id":2,"op":"mutate","instance":"cg","deltas":[{"reweight":{"node":20,"compute":1,"memory":1000}}]}"#);
    let (_, frame) =
        c.recv_until(|f| is_event(f, "done") || get(f, "ok") == Some(&Value::Bool(false)));
    assert_eq!(
        error_code(&frame).as_deref(),
        Some("bad_delta"),
        "got {frame:?}"
    );
    c.send(r#"{"id":3,"op":"status","instance":"cg"}"#);
    let (_, status) = c.recv_until(|f| is_event(f, "status"));
    assert_eq!(get_u64(&status, "pending"), Some(0), "got {status:?}");
    schedule_is_answered(&mut c, 4);
    // A finished job leaves the job table just after its last frame.
    let drained = (0..100).any(|_| {
        c.send(r#"{"id":5,"op":"status"}"#);
        let (_, status) = c.recv_until(|f| get(f, "active_jobs").is_some());
        let idle = get_u64(&status, "active_jobs") == Some(0);
        if !idle {
            std::thread::sleep(Duration::from_millis(10));
        }
        idle
    });
    assert!(drained, "a job of the instance is still active");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn queued_replies_do_not_wait_for_a_delayed_ack() {
    // An instance `status` is two small frames (`accepted`, then the reply
    // through the instance's mailbox) and no engine work. Without `TCP_NODELAY`
    // on the daemon's socket the second frame waits for the client's delayed
    // ACK: ~44 ms per round trip on a warm connection instead of well under
    // one.
    let state_dir = temp_state_dir("nodelay");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.send(&format!(
        r#"{{"id":1,"op":"register","instance":"cg","family":{{"kind":"cg","n":4,"k":2}},"processors":4,"cache_factor":3.0,{BUDGET}}}"#
    ));
    assert_ok(&c.recv());
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|i| {
            let started = std::time::Instant::now();
            c.send(&format!(
                r#"{{"id":{},"op":"status","instance":"cg"}}"#,
                10 + i
            ));
            let (_, status) = c.recv_until(|f| is_event(f, "status"));
            assert_ok(&status);
            started.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median instance-status round trip {median:?}: {round_trips:?}"
    );
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn hostile_lines_are_rejected_with_typed_frames() {
    let state_dir = temp_state_dir("hostile");
    let server = start_server(&state_dir);
    let addr = server.local_addr();

    // Nesting past the parser's cap is an ordinary `bad_request` (at the
    // parent commit it overflowed the connection thread's stack and took the
    // daemon down); the connection stays usable.
    let mut c = Client::connect(addr);
    c.send(&"[".repeat(100_000));
    let frame = c.recv();
    assert_eq!(get(&frame, "ok"), Some(&Value::Bool(false)));
    let code = error_code;
    assert_eq!(code(&frame).as_deref(), Some("bad_request"));
    c.send(r#"{"id":2,"op":"status"}"#);
    assert_ok(&c.recv());

    // A `register` whose numbers would size an allocation (or trip an
    // assertion) is a `bad_request` before anything is built; the connection
    // stays usable after each.
    let family = r#""family":{"kind":"cg","n":4,"k":1}"#;
    // 20,000 nodes: admissible on its own, as is 1024 processors — their
    // product is what would size the arena's tables.
    let wide_upload = mbsp_serve::encode_hex(&mbsp_io::encode_dag(&random_layered_dag(
        &RandomDagConfig {
            layers: 20,
            width: 1000,
            edge_probability: 0.001,
            max_compute: 4,
            max_memory: 3,
        },
        9,
    )));
    for fields in [
        format!(r#""dag_hex":"{wide_upload}","processors":1024"#),
        r#""processors":1024,"family":{"kind":"random","layers":1000,"width":1000}"#.to_string(),
        format!(r#"{family},"processors":1000000000"#),
        format!(r#"{family},"processors":1025"#),
        format!(r#"{family},"processors":2,"g":-1.0"#),
        format!(r#"{family},"processors":2,"g":1e999"#),
        format!(r#"{family},"processors":2,"latency":-0.5"#),
        format!(r#"{family},"processors":2,"cache_size":-4.0"#),
        format!(r#"{family},"processors":2,"cache_factor":0.0"#),
        format!(r#"{family},"processors":2,"cache_factor":-3.0"#),
        // Finite, but the cache size it resolves to is not: checked once the
        // DAG exists, after the name is reserved (it used to panic the
        // connection thread).
        format!(r#"{family},"processors":2,"cache_factor":1e308"#),
        r#""processors":2,"family":{"kind":"random","layers":4294967296,"width":4294967296}"#
            .to_string(),
        r#""processors":2,"family":{"kind":"random","layers":2000,"width":1000}"#.to_string(),
        // 40,000 nodes and 20,000 edges, but 4·10⁸ edge trials: seconds of
        // generation on a drain thread unless the trial cap refuses it.
        r#""processors":2,"family":{"kind":"random","layers":2,"width":20000,"edge_probability":0.0}"#
            .to_string(),
        r#""processors":2,"family":{"kind":"random","layers":4,"width":4,"edge_probability":1.5}"#
            .to_string(),
        r#""processors":2,"family":{"kind":"cg","n":1000,"k":4}"#.to_string(),
        r#""processors":2,"family":{"kind":"knn","n":0,"k":1}"#.to_string(),
    ] {
        c.send(&format!(
            r#"{{"id":9,"op":"register","instance":"hostile",{fields}}}"#
        ));
        let frame = c.recv();
        assert_eq!(
            code(&frame).as_deref(),
            Some("bad_request"),
            "{fields}: got {frame:?}"
        );
    }
    // None of them reserved the name or left a session behind.
    c.send(&format!(
        r#"{{"id":10,"op":"register","instance":"hostile",{family},"processors":2}}"#
    ));
    let registered = c.recv();
    assert!(is_event(&registered, "registered"));

    // A node id past `u32` is a `bad_delta`, not node 0 (a release build used
    // to wrap it): nothing is removed. An oversized family weight bound is a
    // `bad_request` like the other hostile sizes.
    c.send(r#"{"id":11,"op":"mutate","instance":"hostile","deltas":[{"remove_node":{"node":4294967296}}]}"#);
    let frame = c.recv();
    assert_eq!(code(&frame).as_deref(), Some("bad_delta"), "got {frame:?}");
    c.send(r#"{"id":12,"op":"status","instance":"hostile"}"#);
    let (_, status) = c.recv_until(|f| is_event(f, "status"));
    assert_eq!(get_u64(&status, "nodes"), get_u64(&registered, "nodes"));
    c.send(r#"{"id":13,"op":"register","instance":"wide","processors":2,"family":{"kind":"random","layers":4,"width":4,"max_compute":4294967296}}"#);
    let frame = c.recv();
    assert_eq!(
        code(&frame).as_deref(),
        Some("bad_request"),
        "got {frame:?}"
    );

    // A line one byte over the cap: `too_large`, then the daemon closes the
    // connection. The writer runs beside the reader because the daemon stops
    // buffering at the cap and only drains the rest.
    let mut big = Client::connect(addr);
    let mut writer = big.writer.try_clone().unwrap();
    let upload = std::thread::spawn(move || {
        let mut line = vec![b'x'; mbsp_serve::server::MAX_LINE_BYTES + 1];
        line.push(b'\n');
        // The daemon may close before the last bytes are written.
        let _ = writer.write_all(&line);
    });
    let frame = big.recv();
    assert_eq!(code(&frame).as_deref(), Some("too_large"), "got {frame:?}");
    upload.join().unwrap();
    let mut rest = String::new();
    assert_eq!(
        big.reader.read_line(&mut rest).unwrap_or(0),
        0,
        "the connection is closed after `too_large`"
    );

    // The daemon itself is unharmed.
    c.send(r#"{"id":3,"op":"status"}"#);
    assert_ok(&c.recv());
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn concurrent_registers_of_one_name_admit_exactly_one() {
    // The name is reserved before the session is built, so of N simultaneous
    // `register`s exactly one wins and the rest are told so — none replaces
    // another's session or overwrites its checkpoint.
    const CLIENTS: usize = 4;
    let state_dir = temp_state_dir("same_name");
    let server = start_server(&state_dir);
    let addr = server.local_addr();
    // Large enough that building the session outlasts the clients' skew.
    let dag = random_layered_dag(
        &RandomDagConfig {
            layers: 40,
            width: 500,
            edge_probability: 3.0 / 500.0,
            max_compute: 4,
            max_memory: 3,
        },
        5,
    );
    let line = format!(
        r#"{{"id":1,"op":"register","instance":"twin","dag_hex":"{}","processors":4,{BUDGET}}}"#,
        mbsp_serve::encode_hex(&mbsp_io::encode_dag(&dag))
    );
    let start = std::sync::Barrier::new(CLIENTS);
    let frames: Vec<Value> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut c = Client::connect(addr);
                    start.wait();
                    c.send(&line);
                    c.recv()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let registered = frames.iter().filter(|f| is_event(f, "registered")).count();
    let duplicates = frames
        .iter()
        .filter(|f| {
            get(f, "error")
                .and_then(|e| e.as_map())
                .and_then(|m| map_get(m, "code"))
                .and_then(|v| v.as_str())
                == Some("duplicate_instance")
        })
        .count();
    assert_eq!((registered, duplicates), (1, CLIENTS - 1), "got {frames:?}");

    // The one session answers, and a graceful shutdown joins its worker.
    let mut c = Client::connect(addr);
    c.send(r#"{"id":2,"op":"status","instance":"twin"}"#);
    let (_, status) = c.recv_until(|f| is_event(f, "status"));
    assert_ok(&status);
    assert_eq!(get_u64(&status, "nodes"), Some(dag.num_nodes() as u64));
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_refused_checkpoint_is_a_typed_reject_and_the_session_keeps_serving() {
    let state_dir = temp_state_dir("squat");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.send(r#"{"id":1,"op":"register","instance":"s","family":{"kind":"cg","n":4,"k":1},"processors":2}"#);
    let registered = c.recv();
    assert!(is_event(&registered, "registered"), "got {registered:?}");
    let nodes = get_u64(&registered, "nodes").unwrap();

    // A directory squatting on the checkpoint's path makes the rename fail
    // (also for root, which a read-only state dir would not stop).
    let checkpoint = state_dir.join("s.session.mbio");
    std::fs::remove_file(&checkpoint).expect("register wrote the checkpoint");
    std::fs::create_dir(&checkpoint).unwrap();
    let mutate =
        r#""op":"mutate","instance":"s","deltas":[{"add_node":{"compute":1.0,"memory":1.0}}]"#;
    c.send(&format!(r#"{{"id":2,{mutate}}}"#));
    let (_, frame) =
        c.recv_until(|f| is_event(f, "done") || get(f, "ok") == Some(&Value::Bool(false)));
    assert_eq!(
        error_code(&frame).as_deref(),
        Some("storage_failed"),
        "got {frame:?}"
    );

    // The session applied the delta in memory and still answers.
    c.send(r#"{"id":3,"op":"status","instance":"s"}"#);
    let (_, status) = c.recv_until(|f| is_event(f, "status"));
    assert_eq!(get_u64(&status, "nodes"), Some(nodes + 1));

    // With the path free again the next mutate is persisted and acknowledged.
    std::fs::remove_dir(&checkpoint).unwrap();
    c.send(&format!(r#"{{"id":4,{mutate}}}"#));
    let (_, done) = c.recv_until(|f| is_event(f, "done"));
    assert_ok(&done);
    assert_eq!(get_u64(&done, "nodes"), Some(nodes + 2));
    assert!(checkpoint.is_file());

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// The daemon-level `status` frame.
fn daemon_status(c: &mut Client) -> Value {
    c.send(r#"{"op":"status"}"#);
    let (_, status) = c.recv_until(|f| get(f, "running_sessions").is_some());
    status
}

/// Polls the daemon `status` until `running` instances hold a drain thread. A
/// drain thread puts its session back just after it writes its last frame, so
/// the count may lag a reply by that long.
fn wait_for_running_sessions(c: &mut Client, running: u64) -> Value {
    for _ in 0..200 {
        let status = daemon_status(c);
        if get_u64(&status, "running_sessions") == Some(running) {
            return status;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("the running sessions never came to {running}");
}

/// A `register` of a cg instance named `name` small enough to run in
/// milliseconds.
fn register_tiny(c: &mut Client, name: &str) {
    c.send(&format!(
        r#"{{"op":"register","instance":"{name}","family":{{"kind":"cg","n":4,"k":1}},"processors":2,{BUDGET}}}"#
    ));
    let frame = c.recv();
    assert!(is_event(&frame, "registered"), "got {frame:?}");
}

#[test]
fn an_idle_instance_holds_no_thread() {
    let state_dir = temp_state_dir("idle");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.writer
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    const TENANTS: u64 = 32;
    for i in 0..TENANTS {
        register_tiny(&mut c, &format!("t{i}"));
    }
    // Registration spawns nothing.
    let status = daemon_status(&mut c);
    assert_eq!(get_u64(&status, "running_sessions"), Some(0), "{status:?}");
    // One `schedule` each, all in flight at once.
    for i in 0..TENANTS {
        c.send(&format!(
            r#"{{"id":{i},"op":"schedule","instance":"t{i}","stream":false}}"#
        ));
    }
    let mut answered = Vec::new();
    while answered.len() < TENANTS as usize {
        let frame = c.recv();
        if is_event(&frame, "done") {
            assert_eq!(get_str(&frame, "stop_reason"), Some("completed"));
            answered.push(get_u64(&frame, "id").unwrap());
        }
    }
    answered.sort();
    assert_eq!(answered, (0..TENANTS).collect::<Vec<_>>());
    let status = wait_for_running_sessions(&mut c, 0);
    assert_eq!(get_u64(&status, "queued_jobs"), Some(0), "{status:?}");
    assert_eq!(get_u64(&status, "active_jobs"), Some(0), "{status:?}");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn jobs_admitted_while_the_drain_thread_exits_are_answered_once_in_order() {
    // After a `done`, the drain thread is about to find the mailbox empty and
    // exit. Two jobs pipelined right then either reach it before it looks or
    // start the next one; none may be stranded, answered twice or reordered.
    let state_dir = temp_state_dir("race");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.writer
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    register_tiny(&mut c, "cg");
    let mutate = |id: u64| {
        format!(
            r#"{{"id":{id},"op":"mutate","instance":"cg","deltas":[{{"add_node":{{"compute":1.0,"memory":1.0}}}}]}}"#
        )
    };
    let mut generation = 1;
    for round in 0..200u64 {
        let id = 10 + 3 * round;
        c.send(&mutate(id));
        assert!(is_event(&c.recv(), "accepted"));
        let done = c.recv();
        assert!(is_event(&done, "done"), "got {done:?}");
        generation += 1;
        assert_eq!(get_u64(&done, "generation"), Some(generation));

        let status = format!(r#"{{"id":{},"op":"status","instance":"cg"}}"#, id + 2);
        c.send(&format!("{}\n{status}", mutate(id + 1)));
        // `accepted` of the mutate comes first; the mutate's `done` and the
        // status's `accepted` race; the status reply comes last.
        let frames: Vec<Value> = (0..4).map(|_| c.recv()).collect();
        let mut events: Vec<_> = frames
            .iter()
            .map(|f| (get_u64(f, "id").unwrap(), get_str(f, "event").unwrap()))
            .collect();
        assert_eq!(events[0], (id + 1, "accepted"), "{frames:?}");
        assert_eq!(events[3], (id + 2, "status"), "{frames:?}");
        events[1..3].sort();
        assert_eq!(
            events[1..3],
            [(id + 1, "done"), (id + 2, "accepted")],
            "{frames:?}"
        );
        let job = |id: u64| {
            let accepted = frames
                .iter()
                .find(|f| is_event(f, "accepted") && get_u64(f, "id") == Some(id));
            get_u64(accepted.unwrap(), "job").unwrap()
        };
        assert!(job(id + 1) < job(id + 2));
        generation += 1;
        for f in frames.iter().filter(|f| !is_event(f, "accepted")) {
            assert_eq!(get_u64(f, "generation"), Some(generation), "{f:?}");
        }
    }
    // Nothing else was written.
    c.send(r#"{"op":"status"}"#);
    let frame = c.recv();
    assert!(get(&frame, "running_sessions").is_some(), "got {frame:?}");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_full_mailbox_refuses_only_the_overflow() {
    use mbsp_serve::server::MAX_QUEUED_JOBS;
    let state_dir = temp_state_dir("overloaded");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.writer
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    register_tiny(&mut c, "cg");
    // A schedule that runs until cancelled; its seed incumbent shows it has
    // left the mailbox.
    c.send(r#"{"id":2,"op":"schedule","instance":"cg","stream":true,"max_rounds":100000,"iterations":1000}"#);
    let schedule = get_u64(&c.recv(), "job").unwrap();
    c.recv_until(|f| is_event(f, "incumbent"));

    let first = 100;
    let overflow = first + MAX_QUEUED_JOBS as u64;
    let lines: Vec<String> = (first..=overflow)
        .map(|id| format!(r#"{{"id":{id},"op":"status","instance":"cg"}}"#))
        .collect();
    c.send(&lines.join("\n"));
    let mut accepted = Vec::new();
    let refused = loop {
        let frame = c.recv();
        if is_event(&frame, "accepted") {
            accepted.push(get_u64(&frame, "id").unwrap());
        } else if get(&frame, "ok") == Some(&Value::Bool(false)) {
            break frame;
        } else {
            assert!(is_event(&frame, "incumbent"), "got {frame:?}");
        }
    };
    assert_eq!(accepted, (first..=overflow).collect::<Vec<_>>());
    assert_eq!(error_code(&refused).as_deref(), Some("overloaded"));
    assert_eq!(get_u64(&refused, "id"), Some(overflow));
    assert!(get_u64(&refused, "job").is_some(), "{refused:?}");
    // The refused job left the job table; the others wait in the mailbox.
    let status = daemon_status(&mut c);
    assert_eq!(get_u64(&status, "running_sessions"), Some(1));
    assert_eq!(
        get_u64(&status, "queued_jobs"),
        Some(MAX_QUEUED_JOBS as u64)
    );
    assert_eq!(
        get_u64(&status, "active_jobs"),
        Some(MAX_QUEUED_JOBS as u64 + 1)
    );

    c.send(&format!(r#"{{"op":"cancel","job":{schedule}}}"#));
    let (_, done) = c.recv_until(|f| is_event(f, "done"));
    assert_eq!(get_str(&done, "stop_reason"), Some("cancelled"));
    let mut answered = Vec::new();
    while answered.len() < MAX_QUEUED_JOBS {
        let frame = c.recv();
        if get(&frame, "generation").is_some() {
            answered.push(get_u64(&frame, "id").unwrap());
        }
    }
    assert_eq!(answered, (first..overflow).collect::<Vec<_>>());
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_register_past_the_instance_cap_is_overloaded_and_writes_nothing() {
    use mbsp_serve::server::MAX_INSTANCES;
    let state_dir = temp_state_dir("instance_cap");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.writer
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let register = |name: &str| {
        format!(
            r#"{{"op":"register","instance":"{name}","family":{{"kind":"cg","n":4,"k":1}},"processors":2,{BUDGET}}}"#
        )
    };
    // Pipelined in batches small enough that neither side's socket buffer
    // fills while the other is not reading.
    let names: Vec<String> = (0..MAX_INSTANCES).map(|i| format!("t{i}")).collect();
    for batch in names.chunks(64) {
        let lines: Vec<String> = batch.iter().map(|name| register(name)).collect();
        c.send(&lines.join("\n"));
        for _ in batch {
            let frame = c.recv();
            assert!(is_event(&frame, "registered"), "got {frame:?}");
        }
    }
    let files = || std::fs::read_dir(&state_dir).unwrap().count();
    let written = files();
    c.send(&register("over"));
    let refused = c.recv();
    assert_eq!(
        error_code(&refused).as_deref(),
        Some("overloaded"),
        "{refused:?}"
    );
    assert_eq!(files(), written);
    assert!(!state_dir.join("over.session.mbio").exists());
    // A taken name is still a duplicate, and the registered keep serving.
    c.send(&register("t0"));
    assert_eq!(error_code(&c.recv()).as_deref(), Some("duplicate_instance"));
    c.send(r#"{"id":7,"op":"status","instance":"t0"}"#);
    let (_, status) = c.recv_until(|f| get_u64(f, "id") == Some(7) && is_event(f, "status"));
    assert_eq!(get_str(&status, "instance"), Some("t0"), "{status:?}");
    server.shutdown();
    server.join();

    // The restored instances count: a full state directory comes back whole
    // and the daemon still refuses the next `register`.
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.writer
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    c.send(&register("over"));
    assert_eq!(error_code(&c.recv()).as_deref(), Some("overloaded"));
    let last = names.last().unwrap();
    c.send(&format!(r#"{{"id":8,"op":"status","instance":"{last}"}}"#));
    let (_, status) = c.recv_until(|f| get_u64(f, "id") == Some(8) && is_event(f, "status"));
    assert_eq!(
        get_str(&status, "instance"),
        Some(last.as_str()),
        "{status:?}"
    );
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn shutdown_checkpoints_idle_and_busy_instances() {
    // Every final checkpoint is written by the shutdown path: the session
    // files are deleted beforehand, and the restarted daemon reads them.
    let state_dir = temp_state_dir("shutdown");
    let server = start_server(&state_dir);
    let addr = server.local_addr();
    let mut c = Client::connect(addr);
    c.writer
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let names = ["idle0", "idle1", "idle2", "busy"];
    // `last_cost` is not part of a checkpoint.
    let strip = |frame: Value| -> Value {
        let mut map = frame.as_map().unwrap().to_vec();
        map.retain(|(key, _)| !["id", "job", "last_cost"].contains(&key.as_str()));
        Value::Map(map)
    };
    let mut before = Vec::new();
    for name in names {
        register_tiny(&mut c, name);
        c.send(&format!(
            r#"{{"op":"mutate","instance":"{name}","deltas":[{{"add_node":{{"compute":1.0,"memory":1.0}}}}]}}"#
        ));
        c.recv_until(|f| is_event(f, "done"));
        c.send(&format!(r#"{{"op":"status","instance":"{name}"}}"#));
        before.push(strip(c.recv_until(|f| is_event(f, "status")).1));
    }

    let mut busy = Client::connect(addr);
    busy.writer
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    // Busy for its deadline, counted from when it starts, whatever the host,
    // with its last `status` queued behind it.
    busy.send(r#"{"op":"schedule","instance":"busy","stream":true,"max_rounds":100000,"iterations":1000,"time_limit_ms":1500}"#);
    busy.recv_until(|f| is_event(f, "incumbent"));
    busy.send(r#"{"op":"status","instance":"busy"}"#);
    busy.recv_until(|f| is_event(f, "accepted"));
    wait_for_running_sessions(&mut c, 1);
    for name in names {
        std::fs::remove_file(state_dir.join(format!("{name}.session.mbio"))).unwrap();
    }
    c.send(r#"{"op":"shutdown"}"#);
    assert!(is_event(&c.recv(), "shutting_down"));
    let (_, done) = busy.recv_until(|f| is_event(f, "done"));
    assert_eq!(get_str(&done, "stop_reason"), Some("deadline"));
    // The schedule repaired the mutation: only the final checkpoint has that.
    let (_, status) = busy.recv_until(|f| is_event(f, "status"));
    assert_eq!(get_u64(&status, "pending"), Some(0), "{status:?}");
    before[3] = strip(status);
    server.join();

    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    for (name, before) in names.iter().zip(before) {
        c.send(&format!(r#"{{"op":"status","instance":"{name}"}}"#));
        let after = strip(c.recv_until(|f| is_event(f, "status")).1);
        assert_eq!(after, before, "{name}");
    }
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn graceful_restart_resumes_byte_identically() {
    let state_dir = temp_state_dir("restart");
    let spec = RandomDagConfig {
        layers: 5,
        width: 6,
        edge_probability: 0.35,
        max_compute: 4,
        max_memory: 3,
    };
    let deltas_json = r#"[{"add_node":{"compute":3.0,"memory":2.0}},{"add_edge":{"from":2,"to":30}},{"reweight":{"node":5,"compute":1.0,"memory":4.0}}]"#;

    // Session 1: register, schedule (moves the incumbent), mutate, shutdown.
    let server = start_server(&state_dir);
    let addr = server.local_addr();
    {
        let mut c = Client::connect(addr);
        c.send(&format!(
            r#"{{"id":1,"op":"register","instance":"r","family":{{"kind":"random","layers":5,"width":6,"edge_probability":0.35,"seed":9}},"processors":4,"cache_factor":3.0,{BUDGET}}}"#
        ));
        assert_ok(&c.recv());
        c.send(&format!(
            r#"{{"id":2,"op":"schedule","instance":"r","stream":false,{BUDGET}}}"#
        ));
        let (_, done) = c.recv_until(|f| is_event(f, "done"));
        assert_ok(&done);
        c.send(&format!(
            r#"{{"id":3,"op":"mutate","instance":"r","deltas":{deltas_json}}}"#
        ));
        let (_, done) = c.recv_until(|f| is_event(f, "done"));
        assert_ok(&done);
        c.send(r#"{"id":4,"op":"shutdown"}"#);
        let ack = c.recv();
        assert!(is_event(&ack, "shutting_down"));
    }
    server.join();

    // Session 2: a fresh daemon on the same state directory restores the
    // checkpoint and repairs.
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.send(r#"{"id":5,"op":"status","instance":"r"}"#);
    let (_, status) = c.recv_until(|f| is_event(f, "status"));
    assert!(
        get_u64(&status, "pending").unwrap() >= 3,
        "pending set restored, got {status:?}"
    );
    c.send(r#"{"id":6,"op":"repair","instance":"r","return_schedule":true}"#);
    let (_, done) = c.recv_until(|f| is_event(f, "done"));
    assert_ok(&done);
    let served = serde_json::to_string(get(&done, "schedule").expect("schedule")).unwrap();
    server.shutdown();
    server.join();

    // Direct library mirror of the exact same history: greedy seed, full
    // sharded run, the same deltas, one repair — no daemon, no checkpoint.
    let dag = random_layered_dag(&spec, 9);
    let base = Architecture::new(4, 0.0, 1.0, 2.0);
    let arch = *MbspInstance::with_cache_factor(dag.clone(), base, 3.0).arch();
    let baseline = GreedyBspScheduler::new().schedule(&dag, &arch);
    let instance = MbspInstance::new(dag.clone(), arch);
    let (_, _, procs) = ShardedHolisticScheduler::with_config(budget_config())
        .schedule_with_assignment(&instance, &baseline);
    let config = RepairConfig {
        search: budget_config(),
        cone_radius: 2,
    };
    let mut session = IncrementalScheduler::new(dag, arch, procs, config);
    let deltas: Value = serde_json::from_str(deltas_json).unwrap();
    for entry in deltas.as_seq().unwrap() {
        let delta = parse_test_delta(entry);
        session.apply(&delta).expect("delta applies");
    }
    let (direct, _) = session.repair();
    assert_eq!(
        served,
        serde_json::to_string(&direct).unwrap(),
        "post-restart repair must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Re-parses a delta the same way the daemon does (kept local so the test
/// exercises the protocol text, not shared parsing code).
fn parse_test_delta(entry: &Value) -> mbsp_dag::DagDelta {
    use mbsp_dag::{DagDelta, NodeId, NodeWeights};
    let map = entry.as_map().unwrap();
    let (kind, body) = &map[0];
    let body = body.as_map().unwrap();
    let num = |key: &str| -> f64 {
        match map_get(body, key).unwrap() {
            Value::Float(x) => *x,
            Value::UInt(n) => *n as f64,
            Value::Int(n) => *n as f64,
            other => panic!("unexpected {other:?}"),
        }
    };
    match kind.as_str() {
        "add_node" => DagDelta::AddNode {
            weights: NodeWeights::new(num("compute"), num("memory")),
            label: None,
        },
        "add_edge" => DagDelta::AddEdge {
            from: NodeId::new(num("from") as usize),
            to: NodeId::new(num("to") as usize),
        },
        "reweight" => DagDelta::Reweight {
            node: NodeId::new(num("node") as usize),
            weights: NodeWeights::new(num("compute"), num("memory")),
        },
        other => panic!("unexpected delta kind {other}"),
    }
}

/// A session for a hand-written state directory: `dag` on `processors`
/// processors under `config`, every node on processor 0.
fn test_session(
    dag: mbsp_dag::CompDag,
    processors: usize,
    config: RepairConfig,
) -> IncrementalScheduler {
    let arch = Architecture::new(processors, 3.0 * dag.minimal_cache_size(), 1.0, 0.0);
    let procs = vec![mbsp_model::ProcId::new(0); dag.num_nodes()];
    IncrementalScheduler::new(dag, arch, procs, config)
}

/// Writes instance `name`'s file into a state directory: generation 1 and
/// the [`test_session`] of `dag`, `processors` and `config`.
fn write_state_dir(
    state_dir: &Path,
    name: &str,
    dag: mbsp_dag::CompDag,
    processors: usize,
    config: RepairConfig,
) {
    use mbsp_io::{Writer, KIND_INSTANCE, SEC_GENERATION};
    let mut w = Writer::new(KIND_INSTANCE);
    w.section(SEC_GENERATION, |w| w.put_u64(1));
    test_session(dag, processors, config).write_sections(&mut w);
    std::fs::write(state_dir.join(format!("{name}.session.mbio")), w.finish()).unwrap();
}

fn three_node_path() -> mbsp_dag::CompDag {
    use mbsp_dag::graph::NodeWeights;
    mbsp_dag::CompDag::from_edges("p", vec![NodeWeights::unit(); 3], &[(0, 1), (1, 2)]).unwrap()
}

#[test]
fn a_state_dir_restores_only_valid_instance_files() {
    // Restore reads `{valid name}.session.mbio` and nothing else: not the
    // address file, not a temp file a crash left, not an old layout's
    // registry, not a file whose stem is no instance name.
    let state_dir = temp_state_dir("inputs");
    write_state_dir(
        &state_dir,
        "ok",
        three_node_path(),
        2,
        RepairConfig::default(),
    );
    std::fs::write(state_dir.join("addr"), "127.0.0.1:7700").unwrap();
    std::fs::write(state_dir.join("ok.session.tmp"), b"half a checkpoint").unwrap();
    let mut old_registry = mbsp_io::Writer::new(u32::from_le_bytes(*b"SREG"));
    old_registry.section(u32::from_le_bytes(*b"INS2"), |w| {
        w.put_u64(1);
        w.put_str("gone");
        w.put_u64(7);
    });
    std::fs::write(state_dir.join("registry.mbio"), old_registry.finish()).unwrap();
    for stem in ["", "a.b", "no space", &"x".repeat(65)] {
        let file = format!("{stem}.session.mbio");
        std::fs::write(state_dir.join(file), b"not an instance").unwrap();
    }
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    let status = daemon_status(&mut c);
    let instances = get(&status, "instances").and_then(Value::as_seq).unwrap();
    let names: Vec<_> = instances.iter().map(|i| get_str(i, "name")).collect();
    assert_eq!(names, [Some("ok")], "{status:?}");
    assert_eq!(get_u64(&instances[0], "generation"), Some(1));
    server.shutdown();
    server.join();

    // The earlier layout's session checkpoint under a valid name is not an
    // instance file: the start is refused, naming it.
    let old = state_dir.join("old.session.mbio");
    let session = test_session(three_node_path(), 2, RepairConfig::default());
    std::fs::write(&old, session.checkpoint()).unwrap();
    match Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        state_dir: state_dir.clone(),
        workers: 0,
    }) {
        Ok(_) => panic!("an old-layout session checkpoint restored"),
        Err(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains(&old.display().to_string()), "{e}");
        }
    }
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn an_instance_file_restores_with_its_own_generation() {
    // The file a kill after the first of two mutates leaves behind: its
    // generation must come back with its DAG, whatever the instance reached
    // later.
    let state_dir = temp_state_dir("own_generation");
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    register_tiny(&mut c, "g");
    let file = state_dir.join("g.session.mbio");
    let copy = state_dir.join("g.copy");
    let mut mutate = |delta: String| {
        c.send(&format!(
            r#"{{"op":"mutate","instance":"g","deltas":[{delta}]}}"#
        ));
        let (_, done) = c.recv_until(|f| is_event(f, "done"));
        assert_ok(&done);
        done
    };
    let first = mutate(r#"{"add_node":{"compute":1.0,"memory":1.0}}"#.to_string());
    std::fs::copy(&file, &copy).unwrap();
    let added = get_u64(&first, "nodes").unwrap() - 1;
    let second = mutate(format!(r#"{{"add_edge":{{"from":0,"to":{added}}}}}"#));
    assert_eq!(get_u64(&second, "generation"), Some(3));
    let (generation, nodes, edges) = (
        uint(&first, "generation"),
        uint(&first, "nodes"),
        uint(&first, "edges"),
    );
    assert_eq!(generation, Value::UInt(2));
    assert_ne!(uint(&second, "edges"), edges);
    server.shutdown();
    server.join();
    std::fs::rename(&copy, &file).unwrap();

    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.send(r#"{"op":"status","instance":"g"}"#);
    let (_, status) = c.recv_until(|f| is_event(f, "status"));
    assert_eq!(uint(&status, "generation"), generation, "{status:?}");
    assert_eq!(uint(&status, "nodes"), nodes, "{status:?}");
    assert_eq!(uint(&status, "edges"), edges, "{status:?}");
    let daemon = daemon_status(&mut c);
    let instances = get(&daemon, "instances").and_then(Value::as_seq).unwrap();
    assert_eq!(instances.len(), 1, "{daemon:?}");
    assert_eq!(get_str(&instances[0], "name"), Some("g"));
    assert_eq!(uint(&instances[0], "generation"), generation, "{daemon:?}");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn workers_and_strategy_on_a_register_are_ignored() {
    // Neither is a request field: like any key the parser does not read, they
    // leave the stored session, checkpoint bytes included, as it would be
    // without them.
    let checkpoint = |label: &str, extra: &str| {
        let state_dir = temp_state_dir(label);
        let server = start_server(&state_dir);
        let mut c = Client::connect(server.local_addr());
        c.send(&format!(
            r#"{{"op":"register","instance":"k","family":{{"kind":"cg","n":4,"k":1}},"processors":2{extra}}}"#
        ));
        let registered = c.recv();
        assert!(is_event(&registered, "registered"), "got {registered:?}");
        server.shutdown();
        server.join();
        let bytes = std::fs::read(state_dir.join("k.session.mbio")).unwrap();
        let _ = std::fs::remove_dir_all(&state_dir);
        bytes
    };
    assert_eq!(
        checkpoint("knobs", r#","workers":3,"strategy":"topo""#),
        checkpoint("no_knobs", "")
    );
}

#[test]
fn a_checkpoint_past_the_table_caps_does_not_restore() {
    // `register` bounds the processor count, but a state directory written
    // before the bound existed — or by hand — used to restore such a session,
    // and its first repair then aborted the daemon allocating its tables.
    use mbsp_serve::server::MAX_PROCESSORS;
    let state_dir = temp_state_dir("table_caps");
    let config = RepairConfig::default();
    write_state_dir(
        &state_dir,
        "wide",
        three_node_path(),
        MAX_PROCESSORS + 1,
        config,
    );
    let started = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        state_dir: state_dir.clone(),
        workers: 0,
    });
    match started {
        Ok(_) => panic!("a session on {} processors restored", MAX_PROCESSORS + 1),
        Err(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains("`processors`"), "{e}");
        }
    }
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_checkpoint_past_the_run_quotient_cap_does_not_restore() {
    // No request sets `runs_per_shard`, but a checkpoint holds it. At the
    // default shard count (at most 4 shards) `2 · MAX_SHARDS` runs per shard
    // quotient the DAG over `8 · MAX_SHARDS` runs, the most a request
    // reaches; one more run per shard, or `4 · usize::MAX` (an overflow in a
    // debug build), refuses the start.
    use mbsp_serve::server::MAX_SHARDS;
    let start = |runs_per_shard: usize| {
        let state_dir = temp_state_dir("run_quotient");
        let mut config = RepairConfig::default();
        config.search.runs_per_shard = runs_per_shard;
        write_state_dir(&state_dir, "runs", three_node_path(), 2, config);
        let started = Server::start(ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            state_dir: state_dir.clone(),
            workers: 0,
        });
        let started = started.map(|server| {
            server.shutdown();
            server.join();
        });
        let _ = std::fs::remove_dir_all(&state_dir);
        started
    };
    start(2 * MAX_SHARDS).expect("the largest quotient a request reaches");
    for runs_per_shard in [2 * MAX_SHARDS + 1, usize::MAX] {
        match start(runs_per_shard) {
            Ok(()) => panic!("a session at {runs_per_shard} runs per shard restored"),
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
                assert!(e.to_string().contains("`runs_per_shard`"), "{e}");
            }
        }
    }
}

#[test]
fn an_asynchronous_checkpoint_does_not_restore() {
    // The session codec carries either cost model, but the daemon serves the
    // synchronous one: a restored asynchronous session would fail the debug
    // referee's `sync_cost` check, or in release report a cost of the other
    // model.
    let state_dir = temp_state_dir("async");
    let mut config = RepairConfig::default();
    config.search.cost_model = mbsp_model::CostModel::Asynchronous;
    write_state_dir(&state_dir, "async", three_node_path(), 2, config);
    let started = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        state_dir: state_dir.clone(),
        workers: 0,
    });
    match started {
        Ok(_) => panic!("an asynchronous session restored"),
        Err(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains("cost model `async`"), "{e}");
        }
    }
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn an_add_node_past_the_table_cap_is_a_bad_delta_and_changes_nothing() {
    // A session exactly at the cap: MAX_PROCESSORS × the most nodes the cap
    // admits on them. One more node would cross it.
    use mbsp_dag::graph::NodeWeights;
    use mbsp_serve::server::{MAX_PROCESSORS, MAX_TABLE_CELLS};
    let state_dir = temp_state_dir("cell_cap");
    let nodes = MAX_TABLE_CELLS / MAX_PROCESSORS;
    let flat =
        mbsp_dag::CompDag::from_edges("flat", vec![NodeWeights::unit(); nodes], &[]).unwrap();
    write_state_dir(
        &state_dir,
        "full",
        flat,
        MAX_PROCESSORS,
        RepairConfig::default(),
    );
    let server = start_server(&state_dir);
    let mut c = Client::connect(server.local_addr());
    c.writer
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let status = |c: &mut Client, id: u64| {
        c.send(&format!(r#"{{"id":{id},"op":"status","instance":"full"}}"#));
        c.recv_until(|f| is_event(f, "status")).1
    };
    assert_eq!(get_u64(&status(&mut c, 1), "nodes"), Some(nodes as u64));
    c.send(r#"{"id":2,"op":"mutate","instance":"full","deltas":[{"add_node":{"compute":1,"memory":1}},{"reweight":{"node":0,"compute":2,"memory":1}}]}"#);
    let (_, frame) =
        c.recv_until(|f| is_event(f, "done") || get(f, "ok") == Some(&Value::Bool(false)));
    assert_eq!(
        error_code(&frame).as_deref(),
        Some("bad_delta"),
        "got {frame:?}"
    );
    let message = get(&frame, "error").and_then(|e| get_str(e, "message"));
    assert!(
        message.is_some_and(|m| m.contains("delta 0 rejected after 0 applied")),
        "got {frame:?}"
    );
    // The batch stopped at the refused delta: nothing was applied.
    let after = status(&mut c, 3);
    assert_eq!(
        get_u64(&after, "nodes"),
        Some(nodes as u64),
        "got {after:?}"
    );
    assert_eq!(get_u64(&after, "pending"), Some(0), "got {after:?}");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}
