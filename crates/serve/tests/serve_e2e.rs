//! End-to-end tests of the `mbsp_serve` daemon over real TCP connections:
//! concurrent schedule/mutate/cancel traffic with streamed monotone
//! incumbents, byte-identity of served schedules against direct library runs
//! at the same budget, and byte-identical continuation across a graceful
//! shutdown + restart. CI reruns this suite under `MBSP_BENCH_THREADS=2/8`
//! to pin the worker-count independence of every served result.

use mbsp_gen::cg::cg_dag;
use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_ilp::{IncrementalScheduler, RepairConfig, ShardedHolisticScheduler, ShardedSearchConfig};
use mbsp_model::{Architecture, MbspInstance};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use mbsp_serve::{Server, ServerConfig};
use serde::{map_get, Value};
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

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        serde_json::from_str(line.trim()).expect("frame must be valid JSON")
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

#[test]
fn queued_replies_do_not_wait_for_a_delayed_ack() {
    // An instance `status` is two small frames (`accepted`, then the reply
    // through the admission queue) and no engine work. Without `TCP_NODELAY`
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
        r#""processors":2,"family":{"kind":"random","layers":4294967296,"width":4294967296}"#
            .to_string(),
        r#""processors":2,"family":{"kind":"random","layers":2000,"width":1000}"#.to_string(),
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
    // another's session worker or overwrites its checkpoint.
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
