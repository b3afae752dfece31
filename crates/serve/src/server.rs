//! The daemon: TCP listener, connection handling, per-instance drain
//! threads and checkpoint/restore plumbing.
//!
//! # Threading model
//!
//! * One **accept thread** owns the listener and spawns a detached thread per
//!   connection.
//! * Each **connection thread** parses request lines. Server-level operations
//!   (`register`, `cancel`, daemon `status`, `shutdown`) execute immediately;
//!   instance operations (`schedule`, `repair`, `mutate`, instance `status`)
//!   are stamped with a server-wide job id, answered with an `accepted` frame
//!   and pushed onto the instance's mailbox.
//! * **One drain thread per busy instance, FIFO under the mailbox lock.** The
//!   push that finds no drain thread spawns one. It takes the warm
//!   [`IncrementalScheduler`] out of the mailbox, pops jobs in push order and
//!   runs each itself; a job's shard searches run on scoped lanes that take
//!   their permits from the daemon's [`WorkerPool`] and exit with the fan-out
//!   that started them. When it finds the mailbox empty,
//!   it puts the session back and exits, under the same lock the next push
//!   takes, so no job is stranded; a push that starts a drain thread first
//!   joins every one that has exited, so the new thread takes over a malloc
//!   arena they freed their memory to. An idle instance costs no thread: the
//!   memory one instance's search freed is reused by the next busy instance's
//!   thread instead of staying with a resident thread per tenant. Single
//!   ownership is what makes request batching deterministic: no lock
//!   interleaving can reorder two jobs for the same instance.
//!
//! # Durability
//!
//! Every instance checkpoint (registration, after each mutation batch, on
//! graceful shutdown) is an atomic temp-file-and-rename write of the
//! session blob plus a rewrite of the [`ServiceRegistry`] blob, so a crash
//! between writes leaves the previous consistent pair in place.

use crate::protocol::{
    self, parse_request, CacheSpec, DagSource, JsonWriter, MutateRequest, RegisterRequest, Reject,
    RepairRequest, Request, ScheduleRequest, SearchOverrides,
};
use mbsp_dag::DagDelta;
use mbsp_ilp::{
    CancelToken, IncrementalScheduler, IncumbentObserver, IncumbentUpdate, RepairConfig, StopReason,
};
use mbsp_io::{RegistryEntry, ServiceRegistry};
use mbsp_model::{reference, sync_cost, Architecture, CostModel, MbspSchedule};
use mbsp_pool::WorkerPool;
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Name of the registry blob inside the state directory.
pub const REGISTRY_FILE: &str = "registry.mbio";

/// Longest request line (terminator included) a connection may send: 64 MiB,
/// two orders of magnitude above a 100k-node `dag_hex` upload. A longer line
/// is answered with a `too_large` reject and the connection is closed, so no
/// client can make the daemon buffer an unbounded line.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Most processors a `register` may ask for. A session allocates several
/// `processors × nodes` tables, so an unchecked count lets one request line
/// abort the daemon — and every tenant with it — on allocation failure.
pub const MAX_PROCESSORS: usize = 1024;

/// Largest `processors × nodes` product a `register` may ask for (a `family`
/// is held to its node-count bound): the session's conversion arena allocates
/// six tables of that many cells, so the two per-factor caps alone still
/// admit a request line that aborts the daemon on allocation. 2²⁴ cells is
/// forty times the largest product `benchmark/` sends (4 × 100,000).
pub const MAX_TABLE_CELLS: usize = 1 << 24;

/// Most shards a request may ask for (`num_shards`, flat or under `budget`).
/// The weighted partitioner solves `num_shards − 1` bipartition ILPs over a
/// quotient of `8 · num_shards` runs, each bounded by its node and pivot
/// counts. The job's cancel token, armed with its `time_limit_ms`, reaches
/// their branch and bound — seen at every node pop, a cancelled split keeps
/// its prefix split — so the cap bounds the largest model and the one relaxation a cancel may
/// wait for, not uncancellable work. Measured at the cap on `rand_L200_W500`
/// (100,000 nodes, 2 vCPUs): the root split is 2,048 variables × 16,506 rows,
/// proven optimal in 25 nodes, 16,907 pivots and 540 s, and its longest
/// relaxation — the root one, 68 s — is the longest a cancel waits; all 255
/// splits take ≈ 14 min; under a token cancelled beforehand the partition
/// returns in 0.25 s. Sixty-four times the 4 shards `benchmark/` sends.
pub const MAX_SHARDS: usize = 256;

/// Most jobs an instance's mailbox holds behind the one running. The next job
/// is refused with `overloaded`, so a client that pipelines requests faster
/// than the instance runs them cannot grow the daemon's memory without bound.
pub const MAX_QUEUED_JOBS: usize = 256;

/// Most instances the daemon holds, counting `register`s in flight. The next
/// `register` is refused with `overloaded` before it writes anything, so
/// clients cannot grow the instance map, its sessions and the state directory
/// without bound. Restoring the state directory is exempt: it brings back
/// what the daemon held. About 80 times the 13 instances of `tenants_small`,
/// the most any `benchmark/` workload registers.
pub const MAX_INSTANCES: usize = 1024;

/// Most candidate moves a shard may propose per round (`moves_per_round`,
/// flat or under `budget`). A shard's hill climb reserves a round's `Move`s
/// before it draws the first, so an unchecked count lets one request line
/// abort the daemon — and every tenant with it — on allocation failure. 2¹⁶
/// is 768 KiB of `Move`s per shard lane, against the served default of 30 and
/// the 8 `benchmark/` sends.
pub const MAX_MOVES_PER_ROUND: usize = 1 << 16;

/// Holds a search budget to [`MAX_SHARDS`] and [`MAX_MOVES_PER_ROUND`]: a
/// request's overrides as they are parsed, and the config of every session
/// restored from the state directory, which may have been checkpointed
/// before the caps existed.
pub(crate) fn check_search_caps(num_shards: usize, moves_per_round: usize) -> Result<(), String> {
    if num_shards > MAX_SHARDS {
        return Err(format!("`num_shards` must be at most {MAX_SHARDS}"));
    }
    if moves_per_round > MAX_MOVES_PER_ROUND {
        return Err(format!(
            "`moves_per_round` must be at most {MAX_MOVES_PER_ROUND}"
        ));
    }
    Ok(())
}

/// Holds a session's tables to [`MAX_PROCESSORS`] and [`MAX_TABLE_CELLS`]: a
/// `register` as it is parsed, every session restored from the state
/// directory, and every `add_node` a `mutate` applies — a node added past the
/// cap, or a checkpoint written with a larger count, would otherwise abort the
/// daemon on the first allocation of the session's tables.
pub(crate) fn check_table_caps(processors: usize, nodes: usize) -> Result<(), String> {
    if !(1..=MAX_PROCESSORS).contains(&processors) {
        return Err(format!(
            "`processors` must be between 1 and {MAX_PROCESSORS}"
        ));
    }
    if processors.saturating_mul(nodes) > MAX_TABLE_CELLS {
        return Err(format!(
            "`processors` x nodes ({processors} x {nodes}) exceeds {MAX_TABLE_CELLS}"
        ));
    }
    Ok(())
}

/// Most nodes a `register` `family` spec may generate: ten times the largest
/// instance of `mbsp_gen::large_dataset` (100,000 nodes). Uploaded DAGs are
/// bounded by [`MAX_LINE_BYTES`] instead.
pub const MAX_FAMILY_NODES: usize = 1_000_000;

/// Most edge trials a `random` family spec may draw: `(layers − 1)·width²`
/// (every node past the first layer draws once per node of the layer above).
/// About twice `sched_large`'s 4.975·10⁷, so a wide family inside
/// [`MAX_FAMILY_NODES`] cannot pin a drain thread for minutes.
pub const MAX_FAMILY_PAIRS: usize = 100_000_000;

/// Most edges a `random` family spec may be expected to generate:
/// `(layers − 1)·width·(1 + p·(width − 1))`. About ten times `sched_large`'s
/// ≈ 397,000. `cg` and `knn` make a few edges per node, so
/// [`MAX_FAMILY_NODES`] bounds theirs.
pub const MAX_FAMILY_EDGES: usize = 4_000_000;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7700` (`:0` picks an ephemeral port).
    pub listen: String,
    /// Directory for session checkpoints and the instance registry; created
    /// if missing.
    pub state_dir: PathBuf,
    /// Lane permits of the daemon's own [`WorkerPool`]: how many scoped
    /// threads its shard fan-outs may run at once besides the drain threads
    /// that start them. `0` shares the process-wide count (which resolves
    /// `MBSP_BENCH_THREADS`).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            state_dir: PathBuf::from("mbsp-serve-state"),
            workers: 0,
        }
    }
}

/// A shared, line-buffered writer for one client connection. Each frame is
/// written and flushed under the lock, so concurrent emitters (the connection
/// thread and drain threads streaming incumbents) never interleave bytes
/// within a line.
#[derive(Clone)]
struct LineWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl LineWriter {
    fn new(stream: TcpStream) -> Self {
        LineWriter {
            stream: Arc::new(Mutex::new(stream)),
        }
    }

    /// Sends one frame, the JSON text [`JsonWriter::build`] wrote, as one
    /// line in one write. Write errors are swallowed: a client that hung up
    /// stops receiving frames, but its queued jobs still run to completion
    /// (their session effects must not depend on the socket).
    fn send(&self, mut line: String) {
        line.push('\n');
        let mut stream = self.stream.lock().unwrap();
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.flush();
    }

    fn send_reject(&self, id: Option<u64>, job: Option<u64>, reject: &Reject) {
        let mut w = JsonWriter::new().id(id);
        if let Some(job) = job {
            w = w.u64("job", job);
        }
        let error = JsonWriter::new()
            .str("code", reject.code)
            .str("message", &reject.message);
        self.send(w.bool("ok", false).object("error", error).build());
    }
}

/// A queued instance job.
struct Job {
    id: Option<u64>,
    job_id: u64,
    cancel: CancelToken,
    out: LineWriter,
    kind: JobKind,
}

enum JobKind {
    Schedule(ScheduleRequest),
    Repair(RepairRequest),
    Mutate(MutateRequest),
    Status,
}

/// The state owned exclusively by whichever thread runs the instance's jobs.
struct InstanceState {
    name: String,
    session: IncrementalScheduler,
    generation: u64,
    last_cost: Option<f64>,
}

/// One instance's jobs and, between busy periods, its session. Admission and
/// a drain thread's exit take the same lock, so every pushed job is either
/// popped by the running drain thread or starts a new one.
struct Mailbox {
    /// Admitted jobs not yet popped, in admission order.
    jobs: VecDeque<Job>,
    /// The session while no drain thread holds it.
    idle: Option<InstanceState>,
    /// Set by shutdown: later jobs are refused.
    closed: bool,
    /// The drain thread, from its spawn until it puts the session back.
    worker: Option<thread::JoinHandle<()>>,
}

type SharedMailbox = Arc<Mutex<Mailbox>>;

/// The instance table: the live sessions, plus the names of `register`s that
/// are still building theirs. A name is reserved under the lock and the session
/// built outside it, so two concurrent `register`s of one name cannot both
/// succeed and no build is serialised behind another.
#[derive(Default)]
struct Instances {
    live: BTreeMap<String, SharedMailbox>,
    registering: BTreeSet<String>,
}

/// A name reserved by an in-flight `register`. Dropping it releases the name
/// on every way out of the request; a `register` that succeeded has put its
/// live entry in the table by then.
struct Reservation<'a> {
    inner: &'a ServerInner,
    name: &'a str,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if let Ok(mut instances) = self.inner.instances.lock() {
            instances.registering.remove(self.name);
        }
    }
}

struct ServerInner {
    addr: SocketAddr,
    pool: WorkerPool,
    state_dir: PathBuf,
    shutting_down: AtomicBool,
    instances: Mutex<Instances>,
    jobs: Mutex<HashMap<u64, CancelToken>>,
    next_job: AtomicU64,
    /// Instance name → checkpoint generation, as the registry file says.
    registry: Mutex<BTreeMap<String, u64>>,
    /// Drain threads that have put their session back and are exiting or
    /// gone, not yet joined. Taken after a mailbox lock, never before one.
    exited: Mutex<Vec<thread::JoinHandle<()>>>,
    done: (Mutex<bool>, Condvar),
}

impl ServerInner {
    fn write_registry_locked(&self, entries: &BTreeMap<String, u64>) -> std::io::Result<()> {
        let registry = ServiceRegistry {
            entries: entries
                .iter()
                .map(|(name, generation)| RegistryEntry {
                    name: name.clone(),
                    generation: *generation,
                })
                .collect(),
        };
        write_atomic(&self.state_dir.join(REGISTRY_FILE), &registry.encode())
    }

    /// Persists one instance: session blob first, then the registry naming it.
    fn checkpoint_instance(&self, state: &InstanceState) -> std::io::Result<()> {
        write_atomic(
            &session_path(&self.state_dir, &state.name),
            &state.session.checkpoint(),
        )?;
        let mut registry = self.registry.lock().unwrap();
        let previous = registry.insert(state.name.clone(), state.generation);
        let written = self.write_registry_locked(&registry);
        if written.is_err() {
            // The map keeps saying what the registry file on disk says.
            match previous {
                Some(entry) => registry.insert(state.name.clone(), entry),
                None => registry.remove(&state.name),
            };
        }
        written
    }

    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Close every mailbox: drain threads run what was admitted and exit;
        // the accept thread joins them and writes the final checkpoints.
        for mailbox in self.instances.lock().unwrap().live.values() {
            mailbox.lock().unwrap().closed = true;
        }
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Writes `bytes` to `path` atomically (temp file + rename).
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// The reject of a request whose checkpoint the state directory refused.
fn storage_failed(error: &std::io::Error) -> Reject {
    Reject::new(
        protocol::E_STORAGE_FAILED,
        format!("the state dir did not take the write: {error}"),
    )
}

/// The daemon handle: binds, restores persisted sessions, serves until
/// shutdown. Embeddable in-process (tests, benches) via [`Server::start`].
pub struct Server {
    inner: Arc<ServerInner>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, restores every instance recorded in the state
    /// directory's registry and starts serving.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.state_dir)?;
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let pool = if config.workers > 0 {
            WorkerPool::with_capacity(config.workers)
        } else {
            WorkerPool::shared().clone()
        };
        let inner = Arc::new(ServerInner {
            addr,
            pool,
            state_dir: config.state_dir,
            shutting_down: AtomicBool::new(false),
            instances: Mutex::default(),
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(1),
            registry: Mutex::new(BTreeMap::new()),
            exited: Mutex::new(Vec::new()),
            done: (Mutex::new(false), Condvar::new()),
        });
        restore_instances(&inner)?;

        let accept_inner = Arc::clone(&inner);
        let accept = thread::Builder::new()
            .name("mbsp-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))
            .expect("spawn accept thread");
        Ok(Server {
            inner,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral `:0` listen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Triggers a graceful shutdown: drains every mailbox, writes final
    /// checkpoints, stops accepting. Returns immediately; [`Server::join`]
    /// waits for completion.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Waits until the daemon has fully shut down (all sessions
    /// checkpointed, accept loop exited).
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let (lock, cvar) = &self.inner.done;
        let mut done = lock.lock().unwrap();
        while !*done {
            done = cvar.wait(done).unwrap();
        }
    }
}

/// Where an instance's session checkpoint lives: derived from its validated
/// name, never read from the registry, so no registry entry reaches a file
/// outside the state directory.
fn session_path(state_dir: &Path, name: &str) -> PathBuf {
    state_dir.join(format!("{name}.session.mbio"))
}

fn restore_instances(inner: &Arc<ServerInner>) -> std::io::Result<()> {
    let path = inner.state_dir.join(REGISTRY_FILE);
    if !path.exists() {
        return Ok(());
    }
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let registry = ServiceRegistry::decode(&std::fs::read(&path)?)
        .map_err(|e| invalid(format!("corrupt registry {}: {e}", path.display())))?;
    for entry in registry.entries {
        let session_path = session_path(&inner.state_dir, &entry.name);
        let blob = std::fs::read(&session_path)?;
        let session = IncrementalScheduler::restore(&blob)
            .map_err(|e| invalid(format!("corrupt session {}: {e}", session_path.display())))?
            .with_pool(inner.pool.clone());
        // The daemon serves (and its debug referee checks) the synchronous
        // cost only; a session checkpointed under another objective would
        // report a cost of that model.
        let search = &session.config().search;
        let served = match search.cost_model {
            CostModel::Synchronous => Ok(()),
            other => Err(format!(
                "cost model `{other}` is not the served `sync` cost"
            )),
        };
        served
            .and_then(|()| check_search_caps(search.num_shards, search.moves_per_round))
            .and_then(|()| check_table_caps(session.arch().processors, session.dag().num_nodes()))
            .map_err(|e| invalid(format!("session {}: {e}", session_path.display())))?;
        inner
            .registry
            .lock()
            .unwrap()
            .insert(entry.name.clone(), entry.generation);
        insert_instance(
            inner,
            InstanceState {
                name: entry.name,
                session,
                generation: entry.generation,
                last_cost: None,
            },
        );
    }
    Ok(())
}

/// Adds an idle instance: its session waits in its mailbox, and no thread
/// exists for it until its first job.
fn insert_instance(inner: &ServerInner, state: InstanceState) {
    let name = state.name.clone();
    let mailbox = Mailbox {
        jobs: VecDeque::new(),
        idle: Some(state),
        closed: false,
        worker: None,
    };
    inner
        .instances
        .lock()
        .unwrap()
        .live
        .insert(name, Arc::new(Mutex::new(mailbox)));
}

fn accept_loop(listener: TcpListener, inner: Arc<ServerInner>) {
    for stream in listener.incoming() {
        if inner.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_inner = Arc::clone(&inner);
        let _ = thread::Builder::new()
            .name("mbsp-serve-conn".into())
            .spawn(move || connection_loop(stream, conn_inner));
    }
    drop(listener);
    // A closed mailbox spawns no drain thread, so once the running one is
    // joined the session is idle: checkpoint it from there.
    let live = std::mem::take(&mut inner.instances.lock().unwrap().live);
    for (name, mailbox) in live {
        let worker = {
            let mut mailbox = mailbox.lock().unwrap();
            mailbox.closed = true;
            mailbox.worker.take()
        };
        if let Some(worker) = worker {
            let _ = worker.join();
        }
        let Some(state) = mailbox.lock().unwrap().idle.take() else {
            eprintln!("mbsp_serve: a job of {name:?} panicked; no final checkpoint");
            continue;
        };
        if let Err(e) = inner.checkpoint_instance(&state) {
            eprintln!("mbsp_serve: final checkpoint of {name:?} failed: {e}");
        }
    }
    let (lock, cvar) = &inner.done;
    *lock.lock().unwrap() = true;
    cvar.notify_all();
}

fn connection_loop(stream: TcpStream, inner: Arc<ServerInner>) {
    // Every frame is one `write_all` (see `LineWriter::send`), so Nagle's
    // algorithm has nothing to coalesce; left on, it holds the frame after
    // `accepted` back until the client's delayed ACK (~40 ms) arrives.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let out = LineWriter::new(stream);
    let mut reader = BufReader::new(read_half);
    loop {
        // A buffer per line, as `BufRead::lines` had: an upload's megabytes
        // are freed with the request instead of staying with the connection.
        let mut line = Vec::new();
        // One byte past the cap tells an over-long line from one of exactly
        // `MAX_LINE_BYTES`.
        let mut bounded = (&mut reader).take(MAX_LINE_BYTES as u64 + 1);
        match bounded.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.len() > MAX_LINE_BYTES {
            out.send_reject(
                None,
                None,
                &Reject::new(
                    protocol::E_TOO_LARGE,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                ),
            );
            // Closing with the rest of the line unread would reset the
            // connection and could take the reject frame with it.
            if line.last() != Some(&b'\n') {
                discard_line(&mut reader);
            }
            break;
        }
        // As `BufRead::lines` did: invalid UTF-8 ends the connection, and the
        // terminator (`\n` or `\r\n`) is not part of the line.
        let Ok(text) = std::str::from_utf8(&line) else {
            break;
        };
        let text = text.strip_suffix('\n').unwrap_or(text);
        let text = text.strip_suffix('\r').unwrap_or(text);
        if text.trim().is_empty() {
            continue;
        }
        match parse_request(text) {
            Err((id, reject)) => out.send_reject(id, None, &reject),
            Ok((id, request)) => dispatch(&inner, &out, id, request),
        }
    }
}

/// Reads and drops input up to and including the next newline (or EOF) through
/// the reader's fixed buffer.
fn discard_line(reader: &mut impl BufRead) {
    while let Ok(buf) = reader.fill_buf() {
        if buf.is_empty() {
            return;
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let consumed = newline.map_or(buf.len(), |at| at + 1);
        reader.consume(consumed);
        if newline.is_some() {
            return;
        }
    }
}

fn dispatch(inner: &Arc<ServerInner>, out: &LineWriter, id: Option<u64>, request: Request) {
    if inner.shutting_down.load(Ordering::SeqCst) {
        out.send_reject(
            id,
            None,
            &Reject::new(protocol::E_SHUTTING_DOWN, "daemon is shutting down"),
        );
        return;
    }
    match request {
        Request::Register(req) => handle_register(inner, out, id, *req),
        Request::Schedule(req) => {
            let instance = req.instance.clone();
            enqueue(inner, out, id, &instance, JobKind::Schedule(req));
        }
        Request::Repair(req) => {
            let instance = req.instance.clone();
            enqueue(inner, out, id, &instance, JobKind::Repair(req));
        }
        Request::Mutate(req) => {
            let instance = req.instance.clone();
            enqueue(inner, out, id, &instance, JobKind::Mutate(req));
        }
        Request::Status {
            instance: Some(name),
        } => {
            enqueue(inner, out, id, &name, JobKind::Status);
        }
        Request::Status { instance: None } => handle_server_status(inner, out, id),
        Request::Cancel { job } => {
            let token = inner.jobs.lock().unwrap().get(&job).cloned();
            match token {
                Some(token) => {
                    token.cancel();
                    out.send(
                        JsonWriter::new()
                            .id(id)
                            .bool("ok", true)
                            .str("event", "cancelled")
                            .u64("job", job)
                            .build(),
                    );
                }
                None => out.send_reject(
                    id,
                    Some(job),
                    &Reject::new(
                        protocol::E_UNKNOWN_JOB,
                        format!("job {job} is unknown or already finished"),
                    ),
                ),
            }
        }
        Request::Shutdown => {
            out.send(
                JsonWriter::new()
                    .id(id)
                    .bool("ok", true)
                    .str("event", "shutting_down")
                    .build(),
            );
            inner.begin_shutdown();
        }
    }
}

fn handle_register(
    inner: &Arc<ServerInner>,
    out: &LineWriter,
    id: Option<u64>,
    req: RegisterRequest,
) {
    let refused = {
        let mut instances = inner.instances.lock().unwrap();
        if instances.live.contains_key(&req.instance)
            || instances.registering.contains(&req.instance)
        {
            Some(Reject::new(
                protocol::E_DUPLICATE_INSTANCE,
                format!("instance {:?} already exists", req.instance),
            ))
        } else if instances.live.len() + instances.registering.len() >= MAX_INSTANCES {
            Some(Reject::new(
                protocol::E_OVERLOADED,
                format!("the daemon already holds {MAX_INSTANCES} instances"),
            ))
        } else {
            instances.registering.insert(req.instance.clone());
            None
        }
    };
    if let Some(reject) = refused {
        out.send_reject(id, None, &reject);
        return;
    }
    let _reservation = Reservation {
        inner,
        name: &req.instance,
    };
    let dag = match req.source {
        DagSource::Uploaded(dag) => dag,
        DagSource::Family(spec) => spec.generate(&req.instance),
    };
    if dag.num_nodes() == 0 {
        out.send_reject(
            id,
            None,
            &Reject::new(protocol::E_BAD_DAG, "the DAG has no nodes"),
        );
        return;
    }
    // A factor is resolved as `MbspInstance::with_cache_factor` does, without
    // copying the DAG. A finite factor can still overflow the product, which
    // `Architecture` would assert on.
    let r0 = dag.minimal_cache_size();
    let cache_size = match req.cache {
        CacheSpec::Size(size) => size,
        CacheSpec::Factor(factor) => factor * r0,
    };
    if !cache_size.is_finite() {
        out.send_reject(
            id,
            None,
            &Reject::new(
                protocol::E_BAD_REQUEST,
                "`cache_factor` times the DAG's minimal cache size is not finite",
            ),
        );
        return;
    }
    let arch = Architecture::new(req.processors, cache_size, req.g, req.latency);
    if !arch.fits(r0) {
        // Some node's inputs and output cannot be in fast memory at once: no
        // schedule exists, and the converter would never finish one.
        out.send_reject(
            id,
            None,
            &Reject::new(
                protocol::E_BAD_REQUEST,
                format!(
                    "the cache size {cache_size} is below the DAG's minimal cache size \
                     r0 = {r0} (its largest compute footprint)"
                ),
            ),
        );
        return;
    }
    // Seed the warm session's incumbent from the deterministic greedy BSP
    // baseline — the same seed a direct library run starts from.
    let baseline = GreedyBspScheduler::new().schedule(&dag, &arch);
    let procs = dag.nodes().map(|v| baseline.schedule.proc_of(v)).collect();
    let config = RepairConfig {
        search: req.search,
        cone_radius: req.cone_radius,
    };
    let session = IncrementalScheduler::new(dag, arch, procs, config).with_pool(inner.pool.clone());
    let state = InstanceState {
        name: req.instance.clone(),
        session,
        generation: 1,
        last_cost: None,
    };
    let (nodes, edges) = (
        state.session.dag().num_nodes(),
        state.session.dag().num_edges(),
    );
    if let Err(e) = inner.checkpoint_instance(&state) {
        // Nothing durable, so nothing registered: the name is free again.
        out.send_reject(id, None, &storage_failed(&e));
        return;
    }
    insert_instance(inner, state);
    out.send(
        JsonWriter::new()
            .id(id)
            .bool("ok", true)
            .str("event", "registered")
            .str("instance", &req.instance)
            .u64("nodes", nodes as u64)
            .u64("edges", edges as u64)
            .u64("processors", arch.processors as u64)
            .f64("cache_size", arch.cache_size)
            .build(),
    );
}

fn handle_server_status(inner: &Arc<ServerInner>, out: &LineWriter, id: Option<u64>) {
    let instances = inner
        .registry
        .lock()
        .unwrap()
        .iter()
        .map(|(name, generation)| {
            JsonWriter::new()
                .str("name", name)
                .u64("generation", *generation)
        })
        .collect();
    let active = inner.jobs.lock().unwrap().len();
    let (mut running, mut queued) = (0, 0);
    for mailbox in inner.instances.lock().unwrap().live.values() {
        let mailbox = mailbox.lock().unwrap();
        running += usize::from(mailbox.worker.is_some());
        queued += mailbox.jobs.len();
    }
    out.send(
        JsonWriter::new()
            .id(id)
            .bool("ok", true)
            .str("event", "status")
            .objects("instances", instances)
            .u64("active_jobs", active as u64)
            .u64("running_sessions", running as u64)
            .u64("queued_jobs", queued as u64)
            .build(),
    );
}

/// Stamps a job id, sends the `accepted` frame and admits the job to the
/// instance's mailbox. The `accepted` frame always precedes every other frame
/// of the job (the drain thread emits through the same line-locked writer).
fn enqueue(
    inner: &Arc<ServerInner>,
    out: &LineWriter,
    id: Option<u64>,
    instance: &str,
    kind: JobKind,
) {
    let mailbox = {
        let instances = inner.instances.lock().unwrap();
        match instances.live.get(instance) {
            Some(mailbox) => Arc::clone(mailbox),
            None => {
                out.send_reject(
                    id,
                    None,
                    &Reject::new(
                        protocol::E_UNKNOWN_INSTANCE,
                        format!("instance {instance:?} is not registered"),
                    ),
                );
                return;
            }
        }
    };
    let job_id = inner.next_job.fetch_add(1, Ordering::SeqCst);
    let cancel = CancelToken::default();
    inner.jobs.lock().unwrap().insert(job_id, cancel.clone());
    out.send(
        JsonWriter::new()
            .id(id)
            .bool("ok", true)
            .str("event", "accepted")
            .u64("job", job_id)
            .str("instance", instance)
            .build(),
    );
    let job = Job {
        id,
        job_id,
        cancel,
        out: out.clone(),
        kind,
    };
    if let Err(reject) = admit(inner, &mailbox, instance, job) {
        inner.jobs.lock().unwrap().remove(&job_id);
        out.send_reject(id, Some(job_id), &reject);
    }
}

/// Pushes `job` onto the mailbox and, when no drain thread holds the session,
/// spawns one. A refused job is dropped; the mailbox is as it was.
///
/// Every drain thread that has put its session back has nothing left to do
/// but exit; they are joined before a new one starts. A thread's exit hands
/// its malloc arena back, so the new thread takes over an arena and the
/// memory freed in it. Without the join, a request answered before the last
/// drain thread was gone would start the next job in a fresh arena, and the
/// daemon's footprint would depend on how the two threads raced.
fn admit(
    inner: &Arc<ServerInner>,
    mailbox: &SharedMailbox,
    instance: &str,
    job: Job,
) -> Result<(), Reject> {
    let mut guard = mailbox.lock().unwrap();
    if guard.closed {
        return Err(Reject::new(
            protocol::E_SHUTTING_DOWN,
            "daemon is shutting down",
        ));
    }
    if guard.jobs.len() >= MAX_QUEUED_JOBS {
        return Err(Reject::new(
            protocol::E_OVERLOADED,
            format!("instance {instance:?} already has {MAX_QUEUED_JOBS} jobs queued"),
        ));
    }
    guard.jobs.push_back(job);
    if guard.worker.is_none() {
        let exited = std::mem::take(&mut *inner.exited.lock().unwrap());
        for thread in exited {
            let _ = thread.join();
        }
        let (mailbox, inner) = (Arc::clone(mailbox), Arc::clone(inner));
        let spawned = thread::Builder::new()
            .name(format!("mbsp-serve-{instance}"))
            .spawn(move || drain(mailbox, inner));
        match spawned {
            Ok(worker) => guard.worker = Some(worker),
            Err(e) => {
                guard.jobs.pop_back();
                return Err(Reject::new(
                    protocol::E_OVERLOADED,
                    format!("no thread could be started for instance {instance:?}: {e}"),
                ));
            }
        }
    }
    Ok(())
}

/// A drain thread: takes the session out of the mailbox and runs its jobs in
/// admission order. Finding the mailbox empty, it puts the session back and
/// exits under the lock the next admission takes, so that admission either
/// finds this thread still popping or spawns the next one.
fn drain(mailbox: SharedMailbox, inner: Arc<ServerInner>) {
    let mut guard = mailbox.lock().unwrap();
    let mut state = guard
        .idle
        .take()
        .expect("a drain thread is spawned only for an idle session");
    while let Some(job) = guard.jobs.pop_front() {
        drop(guard);
        let job_id = job.job_id;
        execute(&mut state, job, &inner);
        inner.jobs.lock().unwrap().remove(&job_id);
        guard = mailbox.lock().unwrap();
    }
    guard.idle = Some(state);
    // Handed over under the mailbox lock: an admission that finds the
    // session idle also finds this thread in the list.
    inner.exited.lock().unwrap().extend(guard.worker.take());
}

fn execute(state: &mut InstanceState, job: Job, inner: &ServerInner) {
    match job.kind {
        JobKind::Schedule(ref req) => run_schedule(state, &job, req),
        JobKind::Repair(ref req) => run_repair(state, &job, req, inner),
        JobKind::Mutate(ref req) => run_mutate(state, &job, req, inner),
        JobKind::Status => {
            job.out.send(
                instance_status_frame(state)
                    .id(job.id)
                    .u64("job", job.job_id)
                    .build(),
            );
        }
    }
}

fn instance_status_frame(state: &InstanceState) -> JsonWriter {
    let mut w = JsonWriter::new()
        .bool("ok", true)
        .str("event", "status")
        .str("instance", &state.name)
        .u64("nodes", state.session.dag().num_nodes() as u64)
        .u64("edges", state.session.dag().num_edges() as u64)
        .u64("pending", state.session.num_pending() as u64)
        .u64("generation", state.generation);
    if let Some(cost) = state.last_cost {
        w = w.f64("last_cost", cost);
    }
    w
}

fn stop_reason_str(reason: StopReason) -> &'static str {
    match reason {
        StopReason::Completed => "completed",
        StopReason::DeadlineExpired => "deadline",
        StopReason::Cancelled => "cancelled",
    }
}

/// The stop signal of one search: the job's cancel token, armed with the
/// request's `time_limit_ms` when it carries one. The armed token shares the
/// job's flag, so a `cancel` still stops the job; the session itself never
/// holds a deadline.
fn job_token(job: &Job, overrides: &SearchOverrides) -> CancelToken {
    match overrides.time_limit_ms {
        Some(ms) => job.cancel.expiring_after(Duration::from_millis(ms)),
        None => job.cancel.clone(),
    }
}

fn run_schedule(state: &mut InstanceState, job: &Job, req: &ScheduleRequest) {
    let session = &mut state.session;
    let mut config = session.config().search;
    req.overrides.apply(&mut config);

    // Identical to a direct library run at the same budget: greedy baseline,
    // then the sharded search seeded from it — run on the warm session in
    // place, which adopts the winning incumbent so subsequent mutations
    // repair from what this run found.
    let baseline = GreedyBspScheduler::new().schedule(session.dag(), session.arch());
    let observer = req.stream.then(|| -> IncumbentObserver {
        let out = job.out.clone();
        let job_id = job.job_id;
        Arc::new(move |update: &IncumbentUpdate| {
            out.send(
                JsonWriter::new()
                    .u64("job", job_id)
                    .str("event", "incumbent")
                    .u64("sequence", update.sequence)
                    .u64("iteration", update.iteration as u64)
                    .f64("cost", update.cost)
                    .u64("evaluations", update.evaluations)
                    .build(),
            );
        })
    });
    session.set_cancel(Some(&job_token(job, &req.overrides)));
    let (schedule, stats) = session.schedule(&config, &baseline, observer);
    session.set_cancel(None);
    debug_assert_served(session, &schedule, stats.final_cost);
    state.last_cost = Some(stats.final_cost);

    let mut frame = JsonWriter::new()
        .id(job.id)
        .u64("job", job.job_id)
        .bool("ok", true)
        .str("event", "done")
        .f64("cost", stats.final_cost)
        .str("stop_reason", stop_reason_str(stats.stop_reason))
        .u64("iterations", stats.iterations as u64)
        .u64("evaluations", stats.evaluations);
    if req.return_schedule {
        frame = frame.schedule("schedule", &schedule);
    }
    job.out.send(frame.build());
}

fn run_repair(state: &mut InstanceState, job: &Job, req: &RepairRequest, inner: &ServerInner) {
    let saved = *state.session.config();
    req.overrides.apply(&mut state.session.config_mut().search);
    state
        .session
        .set_cancel(Some(&job_token(job, &req.overrides)));
    let (schedule, stats) = state.session.repair();
    state.session.set_cancel(None);
    debug_assert_served(&state.session, &schedule, stats.final_cost);
    *state.session.config_mut() = saved;
    state.last_cost = Some(stats.final_cost);
    // The repair moved the incumbent: persist it so a restart resumes from
    // the repaired state, not the pre-repair checkpoint.
    state.generation += 1;
    if let Err(e) = inner.checkpoint_instance(state) {
        // The session keeps the repaired incumbent and keeps serving.
        job.out
            .send_reject(job.id, Some(job.job_id), &storage_failed(&e));
        return;
    }

    let mut frame = JsonWriter::new()
        .id(job.id)
        .u64("job", job.job_id)
        .bool("ok", true)
        .str("event", "done")
        .f64("cost", stats.final_cost)
        .f64("incumbent_cost", stats.incumbent_cost)
        .str("stop_reason", stop_reason_str(stats.stop_reason))
        .u64("pending_nodes", stats.pending_nodes as u64)
        .u64("dirty_shards", stats.dirty_shards as u64)
        .u64("evaluations", stats.evaluations);
    if req.return_schedule {
        frame = frame.schedule("schedule", &schedule);
    }
    job.out.send(frame.build());
}

/// Referees a schedule the daemon is about to serve, in debug builds only: it
/// must be a legal pebbling of the session's DAG under its architecture, by
/// the served check and by the independent [`reference::validate`], and its
/// synchronous cost must be the reported `cost` bit for bit (two non-finite
/// costs count as equal).
fn debug_assert_served(session: &IncrementalScheduler, schedule: &MbspSchedule, cost: f64) {
    let (dag, arch) = (session.dag(), session.arch());
    debug_assert_eq!(
        schedule.validate(dag, arch),
        Ok(()),
        "served an illegal schedule"
    );
    debug_assert_eq!(
        reference::validate(schedule, dag, arch),
        Ok(()),
        "the reference replay rejects a served schedule"
    );
    debug_assert!(
        {
            let recost = sync_cost(schedule, dag, arch).total;
            recost.to_bits() == cost.to_bits() || !(recost.is_finite() || cost.is_finite())
        },
        "served cost {cost} is not the schedule's sync_cost"
    );
}

fn run_mutate(state: &mut InstanceState, job: &Job, req: &MutateRequest, inner: &ServerInner) {
    // The applied prefix of a batch stays applied (and is checkpointed); the
    // client learns exactly how far the batch got.
    let mut applied = 0u64;
    let mut reject = None;
    for (i, delta) in req.deltas.iter().enumerate() {
        // An added node grows the session's `processors × nodes` tables.
        let capped = match delta {
            DagDelta::AddNode { .. } => check_table_caps(
                state.session.arch().processors,
                state.session.dag().num_nodes() + 1,
            ),
            _ => Ok(()),
        };
        let outcome = capped.and_then(|()| {
            state
                .session
                .apply(delta)
                .map(drop)
                .map_err(|e| e.to_string())
        });
        if let Err(e) = outcome {
            let message = format!("delta {i} rejected after {applied} applied: {e}");
            reject = Some(Reject::new(protocol::E_BAD_DELTA, message));
            break;
        }
        applied += 1;
    }
    state.generation += 1;
    if let Err(e) = inner.checkpoint_instance(state) {
        // The session keeps what was applied and keeps serving. A batch that
        // was cut short stays a `bad_delta`; its message carries both causes.
        let unsaved = storage_failed(&e);
        reject = Some(match reject {
            Some(cut) => Reject::new(cut.code, format!("{}; {}", cut.message, unsaved.message)),
            None => unsaved,
        });
    }
    if let Some(reject) = reject {
        job.out.send_reject(job.id, Some(job.job_id), &reject);
        return;
    }
    job.out.send(
        JsonWriter::new()
            .id(job.id)
            .u64("job", job.job_id)
            .bool("ok", true)
            .str("event", "done")
            .u64("applied", applied)
            .u64("nodes", state.session.dag().num_nodes() as u64)
            .u64("edges", state.session.dag().num_edges() as u64)
            .u64("pending", state.session.num_pending() as u64)
            .u64("generation", state.generation)
            .build(),
    );
}
