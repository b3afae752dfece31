//! The `mbsp_serve` line protocol: request parsing and frame writing.
//!
//! One request per line, one JSON object per request; the daemon answers with
//! one or more JSON object frames, each on its own line (the full
//! specification, with a worked transcript, lives in `docs/PROTOCOL.md`).
//! The vendored serde derive layer rejects *any* missing struct field, which
//! is the wrong tool for a wire protocol full of optional knobs — so requests
//! are parsed by hand off the generic [`serde::Value`] model, and every
//! missing-field / wrong-type case maps to a typed [`Reject`] carrying one of
//! the protocol's stable error codes. Replies go the other way without a
//! tree: [`JsonWriter`] and [`write_schedule`] append each frame's JSON text
//! to the one line buffer the daemon writes.

use crate::server::{
    check_search_caps, check_table_caps, MAX_FAMILY_EDGES, MAX_FAMILY_NODES, MAX_FAMILY_PAIRS,
};
use mbsp_dag::{CompDag, DagDelta, NodeId, NodeWeights};
use mbsp_gen::cg::cg_dag;
use mbsp_gen::knn::knn_dag;
use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_ilp::ShardedSearchConfig;
use mbsp_model::{ComputePhaseStep, MbspSchedule};
use serde::{map_get, Serialize, Value};
use std::fmt::Write;

/// Error code: the line was not valid JSON or not a JSON object.
pub const E_BAD_REQUEST: &str = "bad_request";
/// Error code: the `op` field is missing or names no operation.
pub const E_UNKNOWN_OP: &str = "unknown_op";
/// Error code: the addressed instance is not registered.
pub const E_UNKNOWN_INSTANCE: &str = "unknown_instance";
/// Error code: an instance with this name already exists.
pub const E_DUPLICATE_INSTANCE: &str = "duplicate_instance";
/// Error code: the instance name violates `[A-Za-z0-9_-]{1,64}`.
pub const E_INVALID_NAME: &str = "invalid_name";
/// Error code: an uploaded DAG blob or family spec was rejected.
pub const E_BAD_DAG: &str = "bad_dag";
/// Error code: a mutation delta was rejected by the engine.
pub const E_BAD_DELTA: &str = "bad_delta";
/// Error code: the addressed job is unknown (or already finished).
pub const E_UNKNOWN_JOB: &str = "unknown_job";
/// Error code: the daemon is shutting down and admits no new work.
pub const E_SHUTTING_DOWN: &str = "shutting_down";
/// Error code: a request line exceeded [`crate::server::MAX_LINE_BYTES`].
pub const E_TOO_LARGE: &str = "too_large";
/// Error code: the state directory did not take a checkpoint write. What the
/// request did to the in-memory session stands (a `register` registers
/// nothing); only its durability failed.
pub const E_STORAGE_FAILED: &str = "storage_failed";
/// Error code: the instance already has [`crate::server::MAX_QUEUED_JOBS`]
/// jobs waiting, or the daemon could not start the thread that runs them. The
/// job was refused; the instance keeps serving what it had queued. A
/// `register` gets it when the daemon already holds
/// [`crate::server::MAX_INSTANCES`] instances; it registered nothing.
pub const E_OVERLOADED: &str = "overloaded";

/// A rejected request: a stable machine-readable code plus a human message.
#[derive(Debug, Clone)]
pub struct Reject {
    /// One of the `E_*` error codes.
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Reject {
    /// Builds a rejection.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        Reject {
            code,
            message: message.into(),
        }
    }
}

type Parse<T> = Result<T, Reject>;

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Register a new instance and spin up its warm session (boxed: the
    /// parsed request dwarfs every other variant).
    Register(Box<RegisterRequest>),
    /// Run a full sharded search on an instance, streaming incumbents.
    Schedule(ScheduleRequest),
    /// Run the incremental dirty-cone repair on an instance.
    Repair(RepairRequest),
    /// Apply DAG deltas to an instance (checkpoints on success).
    Mutate(MutateRequest),
    /// Cancel an in-flight job by its server-assigned id.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Query one instance (queued) or the whole daemon (immediate).
    Status {
        /// Instance to query; `None` asks for the daemon-level status.
        instance: Option<String>,
    },
    /// Checkpoint everything and stop the daemon gracefully.
    Shutdown,
}

/// How a registered instance's DAG is obtained.
#[derive(Debug, Clone)]
pub enum DagSource {
    /// Uploaded as a hex-encoded `mbsp_io` DAG blob (already decoded).
    Uploaded(CompDag),
    /// Generated server-side from an `mbsp_gen` family spec.
    Family(FamilySpec),
}

/// An `mbsp_gen` benchmark-family spec, named like the paper's instances.
#[derive(Debug, Clone)]
pub enum FamilySpec {
    /// `random_layered_dag`: seeded layered random DAG.
    Random {
        /// Generator configuration.
        config: RandomDagConfig,
        /// RNG seed.
        seed: u64,
    },
    /// `cg_dag`: conjugate gradient on an `n × n` grid, `k` iterations.
    Cg {
        /// Grid side length.
        n: usize,
        /// CG iterations.
        k: usize,
    },
    /// `knn_dag`: k-NN refinement over `n` points, `k` rounds.
    Knn {
        /// Number of points.
        n: usize,
        /// Refinement rounds.
        k: usize,
    },
}

impl FamilySpec {
    /// Generates the DAG for this spec, named after the instance.
    pub fn generate(&self, name: &str) -> CompDag {
        match self {
            FamilySpec::Random { config, seed } => random_layered_dag(config, *seed),
            FamilySpec::Cg { n, k } => cg_dag(name, *n, *k),
            FamilySpec::Knn { n, k } => knn_dag(name, *n, *k),
        }
    }
}

/// How the fast-memory capacity of a registered instance is specified.
#[derive(Debug, Clone, Copy)]
pub enum CacheSpec {
    /// An explicit cache size.
    Size(f64),
    /// A multiple of the DAG's minimal feasible cache size, resolved against
    /// the actual DAG as [`mbsp_model::MbspInstance::with_cache_factor`] does;
    /// a product that is not finite is a `bad_request`.
    Factor(f64),
}

/// A parsed `register` request.
#[derive(Debug, Clone)]
pub struct RegisterRequest {
    /// Instance name (already validated).
    pub instance: String,
    /// Where the DAG comes from.
    pub source: DagSource,
    /// Processor count of the target machine.
    pub processors: usize,
    /// Per-unit communication cost `g`.
    pub g: f64,
    /// Superstep latency `L`.
    pub latency: f64,
    /// Fast-memory capacity (explicit or as a feasibility factor).
    pub cache: CacheSpec,
    /// The instance's default search budget (overridable per request).
    pub search: ShardedSearchConfig,
    /// Mutation-cone radius of the repair path.
    pub cone_radius: usize,
}

/// Per-request overrides of the instance's search budget. Every field is
/// optional; absent fields keep the instance default.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchOverrides {
    /// RNG seed.
    pub seed: Option<u64>,
    /// Shard count.
    pub num_shards: Option<usize>,
    /// Local-search rounds per shard.
    pub max_rounds: Option<usize>,
    /// Candidate moves per round per shard.
    pub moves_per_round: Option<usize>,
    /// Partition/search/merge passes.
    pub iterations: Option<usize>,
    /// Wall-clock deadline of this job in milliseconds (absent: none). Not a
    /// search setting, so [`SearchOverrides::apply`] leaves it alone: the
    /// daemon arms the job's cancel token with it, and a `register` stores
    /// none.
    pub time_limit_ms: Option<u64>,
    /// Stale-round early-stopping limit.
    pub stale_round_limit: Option<usize>,
}

impl SearchOverrides {
    /// Applies the present overrides to a config copy.
    pub fn apply(&self, config: &mut ShardedSearchConfig) {
        if let Some(v) = self.seed {
            config.seed = v;
        }
        if let Some(v) = self.num_shards {
            config.num_shards = v;
        }
        if let Some(v) = self.max_rounds {
            config.max_rounds = v;
        }
        if let Some(v) = self.moves_per_round {
            config.moves_per_round = v;
        }
        if let Some(v) = self.iterations {
            config.iterations = v;
        }
        if let Some(v) = self.stale_round_limit {
            config.stale_round_limit = v;
        }
    }
}

/// A parsed `schedule` request.
#[derive(Debug, Clone)]
pub struct ScheduleRequest {
    /// Target instance.
    pub instance: String,
    /// Stream `incumbent` frames as the search improves (default `true`).
    pub stream: bool,
    /// Embed the final schedule in the `done` frame (default `false`).
    pub return_schedule: bool,
    /// Budget overrides for this job only.
    pub overrides: SearchOverrides,
}

/// A parsed `repair` request.
#[derive(Debug, Clone)]
pub struct RepairRequest {
    /// Target instance.
    pub instance: String,
    /// Embed the repaired schedule in the `done` frame (default `false`).
    pub return_schedule: bool,
    /// Budget overrides for this job only.
    pub overrides: SearchOverrides,
}

/// A parsed `mutate` request.
#[derive(Debug, Clone)]
pub struct MutateRequest {
    /// Target instance.
    pub instance: String,
    /// Deltas, applied in order; the first rejected delta stops the batch.
    pub deltas: Vec<DagDelta>,
}

fn want_map(v: &Value) -> Parse<&[(String, Value)]> {
    v.as_map()
        .ok_or_else(|| Reject::new(E_BAD_REQUEST, "request must be a JSON object"))
}

fn field_str(map: &[(String, Value)], key: &str) -> Parse<Option<String>> {
    match map_get(map, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(Reject::new(
            E_BAD_REQUEST,
            format!("field `{key}` must be a string"),
        )),
    }
}

fn field_u64(map: &[(String, Value)], key: &str) -> Parse<Option<u64>> {
    match map_get(map, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::UInt(n)) => Ok(Some(*n)),
        Some(Value::Int(n)) if *n >= 0 => Ok(Some(*n as u64)),
        Some(_) => Err(Reject::new(
            E_BAD_REQUEST,
            format!("field `{key}` must be a non-negative integer"),
        )),
    }
}

fn field_usize(map: &[(String, Value)], key: &str) -> Parse<Option<usize>> {
    Ok(field_u64(map, key)?.map(|n| n as usize))
}

fn field_u32(map: &[(String, Value)], key: &str) -> Parse<Option<u32>> {
    let narrow = |n: u64| {
        u32::try_from(n).map_err(|_| {
            Reject::new(
                E_BAD_REQUEST,
                format!("field `{key}` = {n} exceeds the u32 range"),
            )
        })
    };
    field_u64(map, key)?.map(narrow).transpose()
}

fn field_f64(map: &[(String, Value)], key: &str) -> Parse<Option<f64>> {
    match map_get(map, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Float(x)) => Ok(Some(*x)),
        Some(Value::Int(n)) => Ok(Some(*n as f64)),
        Some(Value::UInt(n)) => Ok(Some(*n as f64)),
        Some(_) => Err(Reject::new(
            E_BAD_REQUEST,
            format!("field `{key}` must be a number"),
        )),
    }
}

fn field_bool(map: &[(String, Value)], key: &str) -> Parse<Option<bool>> {
    match map_get(map, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(Reject::new(
            E_BAD_REQUEST,
            format!("field `{key}` must be a boolean"),
        )),
    }
}

fn require<T>(value: Option<T>, key: &str) -> Parse<T> {
    value.ok_or_else(|| Reject::new(E_BAD_REQUEST, format!("field `{key}` is required")))
}

/// Parses one request line. On success returns the echoed client `id` (if
/// any) and the request; on failure the id (when recoverable) and the
/// rejection, so the error frame can still be correlated.
pub fn parse_request(line: &str) -> Result<(Option<u64>, Request), (Option<u64>, Reject)> {
    let value: Value = serde_json::from_str(line).map_err(|e| {
        (
            None,
            Reject::new(E_BAD_REQUEST, format!("invalid JSON: {e}")),
        )
    })?;
    let map = want_map(&value).map_err(|r| (None, r))?;
    let id = field_u64(map, "id").map_err(|r| (None, r))?;
    let parsed = parse_op(map).map_err(|r| (id, r))?;
    Ok((id, parsed))
}

fn parse_op(map: &[(String, Value)]) -> Parse<Request> {
    let op = require(field_str(map, "op")?, "op")?;
    match op.as_str() {
        "register" => Ok(Request::Register(Box::new(parse_register(map)?))),
        "schedule" => Ok(Request::Schedule(ScheduleRequest {
            instance: require(field_str(map, "instance")?, "instance")?,
            stream: field_bool(map, "stream")?.unwrap_or(true),
            return_schedule: field_bool(map, "return_schedule")?.unwrap_or(false),
            overrides: parse_overrides(map)?,
        })),
        "repair" => Ok(Request::Repair(RepairRequest {
            instance: require(field_str(map, "instance")?, "instance")?,
            return_schedule: field_bool(map, "return_schedule")?.unwrap_or(false),
            overrides: parse_overrides(map)?,
        })),
        "mutate" => Ok(Request::Mutate(MutateRequest {
            instance: require(field_str(map, "instance")?, "instance")?,
            deltas: parse_deltas(map)?,
        })),
        "cancel" => Ok(Request::Cancel {
            job: require(field_u64(map, "job")?, "job")?,
        }),
        "status" => Ok(Request::Status {
            instance: field_str(map, "instance")?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(Reject::new(
            E_UNKNOWN_OP,
            format!("unknown op `{other}` (expected register/schedule/repair/mutate/cancel/status/shutdown)"),
        )),
    }
}

fn parse_register(map: &[(String, Value)]) -> Parse<RegisterRequest> {
    let instance = require(field_str(map, "instance")?, "instance")?;
    if !mbsp_io::valid_instance_name(&instance) {
        return Err(Reject::new(
            E_INVALID_NAME,
            format!("instance name {instance:?} must match [A-Za-z0-9_-]{{1,64}}"),
        ));
    }

    // `nodes` is the DAG's node count, or the bound on it for a `family` that
    // is only generated once the request is admitted.
    let (source, nodes) = match (map_get(map, "dag_hex"), map_get(map, "family")) {
        (Some(_), Some(_)) => {
            return Err(Reject::new(
                E_BAD_REQUEST,
                "give either `dag_hex` or `family`, not both",
            ))
        }
        (Some(Value::Str(hex)), None) => {
            let bytes = decode_hex(hex)?;
            let dag = mbsp_io::decode_dag(&bytes)
                .map_err(|e| Reject::new(E_BAD_DAG, format!("rejected DAG blob: {e}")))?;
            let nodes = dag.num_nodes();
            (DagSource::Uploaded(dag), nodes)
        }
        (Some(_), None) => {
            return Err(Reject::new(
                E_BAD_REQUEST,
                "field `dag_hex` must be a string",
            ))
        }
        (None, Some(spec)) => {
            let (spec, nodes) = parse_family(spec)?;
            (DagSource::Family(spec), nodes)
        }
        (None, None) => {
            return Err(Reject::new(
                E_BAD_REQUEST,
                "a `register` needs a `dag_hex` blob or a `family` spec",
            ))
        }
    };

    // The session sizes per-processor tables from these numbers, so they are
    // bounded here, before anything is built.
    let processors = require(field_usize(map, "processors")?, "processors")?;
    check_table_caps(processors, nodes).map_err(|e| Reject::new(E_BAD_REQUEST, e))?;
    let non_negative = |key: &str| -> Parse<Option<f64>> {
        match field_f64(map, key)? {
            Some(x) if !(x.is_finite() && x >= 0.0) => Err(Reject::new(
                E_BAD_REQUEST,
                format!("`{key}` must be finite and >= 0"),
            )),
            x => Ok(x),
        }
    };
    let g = non_negative("g")?.unwrap_or(1.0);
    let latency = non_negative("latency")?.unwrap_or(2.0);
    let cache_size = non_negative("cache_size")?;
    let cache_factor = field_f64(map, "cache_factor")?;
    if cache_factor.is_some_and(|f| !(f.is_finite() && f > 0.0)) {
        return Err(Reject::new(
            E_BAD_REQUEST,
            "`cache_factor` must be finite and > 0",
        ));
    }
    if cache_size.is_some() && cache_factor.is_some() {
        return Err(Reject::new(
            E_BAD_REQUEST,
            "give either `cache_size` or `cache_factor`, not both",
        ));
    }

    // An instance whose client picks no budget gets the library default:
    // `num_shards: 0`, which every search resolves from the DAG's size, the
    // same on any host. A `time_limit_ms` here is parsed and dropped: a
    // deadline belongs to a job, never to the session.
    let mut search = ShardedSearchConfig::default();
    parse_overrides(map)?.apply(&mut search);
    let cone_radius = field_usize(map, "cone_radius")?.unwrap_or(2);

    let cache = match (cache_size, cache_factor) {
        (Some(size), None) => CacheSpec::Size(size),
        (None, factor) => CacheSpec::Factor(factor.unwrap_or(3.0)),
        (Some(_), Some(_)) => unreachable!("rejected above"),
    };
    Ok(RegisterRequest {
        instance,
        source,
        processors,
        g,
        latency,
        cache,
        search,
        cone_radius,
    })
}

/// The spec and the upper bound on the nodes it generates.
fn parse_family(spec: &Value) -> Parse<(FamilySpec, usize)> {
    let map = spec
        .as_map()
        .ok_or_else(|| Reject::new(E_BAD_REQUEST, "`family` must be a JSON object"))?;
    let kind = require(field_str(map, "kind")?, "family.kind")?;
    let spec = match kind.as_str() {
        "random" => FamilySpec::Random {
            config: RandomDagConfig {
                layers: require(field_usize(map, "layers")?, "family.layers")?,
                width: require(field_usize(map, "width")?, "family.width")?,
                edge_probability: field_f64(map, "edge_probability")?.unwrap_or(0.3),
                max_compute: field_u32(map, "max_compute")?.unwrap_or(4),
                max_memory: field_u32(map, "max_memory")?.unwrap_or(3),
            },
            seed: field_u64(map, "seed")?.unwrap_or(0),
        },
        "cg" => FamilySpec::Cg {
            n: require(field_usize(map, "n")?, "family.n")?,
            k: require(field_usize(map, "k")?, "family.k")?,
        },
        "knn" => FamilySpec::Knn {
            n: require(field_usize(map, "n")?, "family.n")?,
            k: require(field_usize(map, "k")?, "family.k")?,
        },
        other => {
            return Err(Reject::new(
                E_BAD_DAG,
                format!("unknown family kind `{other}` (expected random/cg/knn)"),
            ))
        }
    };
    // The generators assert on degenerate parameters and allocate per node, so
    // both are checked before one runs. `nodes` is an upper bound on the
    // generated node count, `None` when it overflows.
    let (well_formed, nodes) = match &spec {
        FamilySpec::Random { config, .. } => (
            config.layers >= 1
                && config.width >= 1
                && (0.0..=1.0).contains(&config.edge_probability),
            config.layers.checked_mul(config.width),
        ),
        // 2n² sources, then fewer than 7n² nodes per iteration.
        FamilySpec::Cg { n, k } => (
            *n >= 2 && *k >= 1,
            n.checked_mul(*n)
                .and_then(|points| points.checked_mul(k.checked_mul(7)?.checked_add(2)?)),
        ),
        // 2n sources, then 2n nodes per query (of n) and round.
        FamilySpec::Knn { n, k } => (
            *n >= 2 && *k >= 1,
            n.checked_mul(*n)
                .and_then(|pairs| pairs.checked_mul(k.checked_mul(2)?)?.checked_add(2 * n)),
        ),
    };
    if !well_formed {
        return Err(Reject::new(
            E_BAD_REQUEST,
            "`family` needs layers, width >= 1 and edge_probability in [0, 1] (random) \
             or n >= 2 and k >= 1 (cg, knn)",
        ));
    }
    let nodes = match nodes {
        Some(nodes) if nodes <= MAX_FAMILY_NODES => nodes,
        _ => {
            return Err(Reject::new(
                E_BAD_REQUEST,
                format!("`family` would generate more than {MAX_FAMILY_NODES} nodes"),
            ))
        }
    };
    // A random family's work and edge count grow with width², not with its
    // node count: every node past the first layer draws once per node of the
    // layer above.
    if let FamilySpec::Random { config, .. } = &spec {
        let trials = (config.layers - 1) * config.width;
        if trials.saturating_mul(config.width) > MAX_FAMILY_PAIRS {
            return Err(Reject::new(
                E_BAD_REQUEST,
                format!("`family` would draw more than {MAX_FAMILY_PAIRS} edge trials"),
            ));
        }
        let edges = trials as f64 * (1.0 + config.edge_probability * (config.width - 1) as f64);
        if edges > MAX_FAMILY_EDGES as f64 {
            return Err(Reject::new(
                E_BAD_REQUEST,
                format!("`family` would generate more than {MAX_FAMILY_EDGES} edges"),
            ));
        }
    }
    Ok((spec, nodes))
}

fn parse_overrides(map: &[(String, Value)]) -> Parse<SearchOverrides> {
    // Overrides may sit flat on the request or nested under `budget`.
    let nested;
    let map = match map_get(map, "budget") {
        Some(v) => {
            nested = v
                .as_map()
                .ok_or_else(|| Reject::new(E_BAD_REQUEST, "`budget` must be a JSON object"))?;
            nested
        }
        None => map,
    };
    let overrides = SearchOverrides {
        seed: field_u64(map, "seed")?,
        num_shards: field_usize(map, "num_shards")?,
        max_rounds: field_usize(map, "max_rounds")?,
        moves_per_round: field_usize(map, "moves_per_round")?,
        iterations: field_usize(map, "iterations")?,
        time_limit_ms: field_u64(map, "time_limit_ms")?,
        stale_round_limit: field_usize(map, "stale_round_limit")?,
    };
    check_search_caps(
        overrides.num_shards.unwrap_or(0),
        overrides.moves_per_round.unwrap_or(0),
    )
    .map_err(|message| Reject::new(E_BAD_REQUEST, message))?;
    Ok(overrides)
}

fn parse_deltas(map: &[(String, Value)]) -> Parse<Vec<DagDelta>> {
    let seq = match map_get(map, "deltas") {
        Some(Value::Seq(seq)) => seq,
        _ => {
            return Err(Reject::new(
                E_BAD_REQUEST,
                "a `mutate` needs a `deltas` array",
            ))
        }
    };
    let mut deltas = Vec::with_capacity(seq.len());
    for (i, entry) in seq.iter().enumerate() {
        deltas.push(
            parse_delta(entry)
                .map_err(|r| Reject::new(r.code, format!("delta {i}: {}", r.message)))?,
        );
    }
    Ok(deltas)
}

fn parse_delta(entry: &Value) -> Parse<DagDelta> {
    let map = entry
        .as_map()
        .ok_or_else(|| Reject::new(E_BAD_DELTA, "each delta must be a single-entry object"))?;
    if map.len() != 1 {
        return Err(Reject::new(
            E_BAD_DELTA,
            "each delta must have exactly one key (add_node/remove_node/add_edge/remove_edge/reweight)",
        ));
    }
    let (kind, body) = &map[0];
    let body = body
        .as_map()
        .ok_or_else(|| Reject::new(E_BAD_DELTA, format!("`{kind}` body must be an object")))?;
    // `NodeId::new` only debug-asserts the `u32` range: in a release build
    // 2³² would wrap to node 0.
    let node = |key: &str| -> Parse<NodeId> {
        let index = require(field_usize(body, key)?, key)?;
        NodeId::try_new(index).ok_or_else(|| {
            Reject::new(
                E_BAD_DELTA,
                format!("field `{key}` = {index} exceeds the node id range"),
            )
        })
    };
    match kind.as_str() {
        "add_node" => Ok(DagDelta::AddNode {
            weights: NodeWeights::new(
                require(field_f64(body, "compute")?, "compute")?,
                require(field_f64(body, "memory")?, "memory")?,
            ),
            label: field_str(body, "label")?,
        }),
        "remove_node" => Ok(DagDelta::RemoveNode {
            node: node("node")?,
        }),
        "add_edge" => Ok(DagDelta::AddEdge {
            from: node("from")?,
            to: node("to")?,
        }),
        "remove_edge" => Ok(DagDelta::RemoveEdge {
            from: node("from")?,
            to: node("to")?,
        }),
        "reweight" => Ok(DagDelta::Reweight {
            node: node("node")?,
            weights: NodeWeights::new(
                require(field_f64(body, "compute")?, "compute")?,
                require(field_f64(body, "memory")?, "memory")?,
            ),
        }),
        other => Err(Reject::new(
            E_BAD_DELTA,
            format!("unknown delta kind `{other}`"),
        )),
    }
}

/// Fluent writer of one response frame (a JSON object): every call appends
/// its field to the frame's text, so a reply is written once, in field order,
/// and never exists as a [`Value`] tree. Scalars are formatted by
/// `serde_json`, so the text is the one `serde_json::to_string` writes for the
/// equivalent `Value::Map` — except that a non-finite float, which JSON cannot
/// represent, is written as `null`. Writing cannot fail.
#[derive(Debug)]
pub struct JsonWriter {
    text: String,
}

impl Default for JsonWriter {
    fn default() -> Self {
        JsonWriter {
            text: String::from("{"),
        }
    }
}

impl JsonWriter {
    /// Starts an empty frame.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Adds a field whose JSON text `write` appends.
    fn field(mut self, key: &str, write: impl FnOnce(&mut String)) -> Self {
        if self.text.len() > 1 {
            self.text.push(',');
        }
        push_scalar(&mut self.text, key);
        self.text.push(':');
        write(&mut self.text);
        self
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(key, |out| push_scalar(out, value))
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.field(key, |out| push_scalar(out, &value))
    }

    /// Adds a float field (`null` when it is not finite).
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.field(key, |out| push_scalar(out, &value))
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.field(key, |out| push_scalar(out, &value))
    }

    /// Adds the optional echoed request id.
    pub fn id(self, id: Option<u64>) -> Self {
        match id {
            Some(id) => self.u64("id", id),
            None => self,
        }
    }

    /// Adds a nested object field.
    pub fn object(self, key: &str, object: JsonWriter) -> Self {
        self.field(key, |out| out.push_str(&object.build()))
    }

    /// Adds an array-of-objects field.
    pub fn objects(self, key: &str, objects: Vec<JsonWriter>) -> Self {
        self.field(key, |out| {
            push_list(out, objects, |out, object| out.push_str(&object.build()))
        })
    }

    /// Adds a schedule field, written by [`write_schedule`].
    pub fn schedule(self, key: &str, schedule: &MbspSchedule) -> Self {
        self.field(key, |out| write_schedule(schedule, out))
    }

    /// Finishes the frame: its JSON text, without a line terminator.
    pub fn build(mut self) -> String {
        self.text.push('}');
        self.text
    }
}

/// Appends the JSON text of a scalar as `serde_json` writes it, or `null` for
/// the non-finite float it refuses.
fn push_scalar<T: Serialize + ?Sized>(out: &mut String, value: &T) {
    match serde_json::to_string(value) {
        Ok(text) => out.push_str(&text),
        Err(_) => out.push_str("null"),
    }
}

/// Appends `[item,item,…]`, each item written by `write`.
fn push_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

/// Appends `schedule` as the JSON text of its `Serialize` — the bytes of
/// `serde_json::to_string(schedule)` — walking its views, without building the
/// `Value` tree:
/// `{"processors":P,"supersteps":[{"procs":[{"compute":[{"Compute":v}|{"Delete":v}],
/// "save":[v],"delete":[v],"load":[v]}]}]}`. At `large_dataset` scale the
/// schedule is most of a `done` frame (≈ 10 MB); written here, it is never
/// held twice.
pub fn write_schedule(schedule: &MbspSchedule, out: &mut String) {
    // Node ids and the processor count are integers, which `serde_json`
    // writes with `Display`.
    let write_ids = |out: &mut String, ids: &[NodeId]| {
        push_list(out, ids, |out, v| {
            let _ = write!(out, "{}", v.0);
        })
    };
    let _ = write!(
        out,
        r#"{{"processors":{},"supersteps":"#,
        schedule.processors()
    );
    push_list(out, schedule.supersteps(), |out, superstep| {
        out.push_str(r#"{"procs":"#);
        push_list(out, superstep.procs(), |out, phases| {
            out.push_str(r#"{"compute":"#);
            push_list(out, phases.compute, |out, op| {
                let _ = match op {
                    ComputePhaseStep::Compute(v) => write!(out, r#"{{"Compute":{}}}"#, v.0),
                    ComputePhaseStep::Delete(v) => write!(out, r#"{{"Delete":{}}}"#, v.0),
                };
            });
            out.push_str(r#","save":"#);
            write_ids(out, phases.save);
            out.push_str(r#","delete":"#);
            write_ids(out, phases.delete);
            out.push_str(r#","load":"#);
            write_ids(out, phases.load);
            out.push('}');
        });
        out.push('}');
    });
    out.push('}');
}

/// Hex-encodes a binary blob (lowercase, no separators) — the wire form of
/// `mbsp_io` artifacts inside the text protocol.
pub fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        out.push(char::from_digit((b & 0xF) as u32, 16).unwrap());
    }
    out
}

/// Decodes a hex string produced by [`encode_hex`] (case-insensitive).
pub fn decode_hex(hex: &str) -> Result<Vec<u8>, Reject> {
    if hex.len() % 2 != 0 {
        return Err(Reject::new(E_BAD_DAG, "hex blob has odd length"));
    }
    let digits = hex.as_bytes();
    let mut out = Vec::with_capacity(hex.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16);
        let lo = (pair[1] as char).to_digit(16);
        match (hi, lo) {
            (Some(hi), Some(lo)) => out.push(((hi << 4) | lo) as u8),
            _ => return Err(Reject::new(E_BAD_DAG, "hex blob has non-hex characters")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let blob: Vec<u8> = (0..=255).collect();
        assert_eq!(decode_hex(&encode_hex(&blob)).unwrap(), blob);
        assert!(decode_hex("abc").is_err());
        assert!(decode_hex("zz").is_err());
    }

    #[test]
    fn write_schedule_writes_the_bytes_of_the_derive() {
        use mbsp_cache::{ClairvoyantPolicy, TwoStageScheduler};
        use mbsp_ilp::ShardedHolisticScheduler;
        use mbsp_model::{Architecture, MbspInstance};
        use mbsp_sched::{BspScheduler, GreedyBspScheduler};

        let instance = |dag: CompDag, factor: f64| {
            let base = Architecture::new(4, 0.0, 1.0, 10.0);
            let instance = MbspInstance::with_cache_factor(dag, base, factor);
            let baseline = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());
            (instance, baseline)
        };
        // The converted baselines of both datasets — at the minimal cache too,
        // where the compute phases evict — plus one sharded-search result and
        // the empty schedule.
        let (converter, policy) = (TwoStageScheduler::new(), ClairvoyantPolicy::new());
        let mut corpus = vec![MbspSchedule::new(4)];
        for (named, factor) in mbsp_gen::tiny_dataset(42)
            .into_iter()
            .flat_map(|named| [(named.clone(), 1.0), (named, 3.0)])
            .chain(
                mbsp_gen::small_dataset_sample(42)
                    .into_iter()
                    .map(|n| (n, 3.0)),
            )
        {
            let (instance, baseline) = instance(named.dag, factor);
            corpus.push(converter.schedule(instance.dag(), instance.arch(), &baseline, &policy));
        }
        let (instance, baseline) = instance(cg_dag("cg", 4, 2), 3.0);
        let sharded = ShardedHolisticScheduler::with_config(ShardedSearchConfig {
            num_shards: 4,
            max_rounds: 3,
            moves_per_round: 4,
            iterations: 2,
            ..ShardedSearchConfig::default()
        });
        corpus.push(sharded.schedule_with_assignment(&instance, &baseline).0);

        let phases = || {
            corpus
                .iter()
                .flat_map(|s| s.supersteps())
                .flat_map(|step| step.procs())
        };
        assert!(phases().any(|p| p
            .compute
            .iter()
            .any(|op| matches!(op, ComputePhaseStep::Delete(_)))));
        assert!(phases().any(|p| p.is_empty()));
        assert!(phases().any(|p| p.load.is_empty() && !p.is_empty()));
        for (i, schedule) in corpus.iter().enumerate() {
            let mut written = String::new();
            write_schedule(schedule, &mut written);
            assert_eq!(written, serde_json::to_string(schedule).unwrap(), "{i}");
        }
    }

    #[test]
    fn frames_write_non_finite_floats_as_null() {
        let frame = JsonWriter::new()
            .f64("cost", f64::INFINITY)
            .f64("gap", f64::NAN)
            .f64("ratio", 0.5)
            .object(
                "error",
                JsonWriter::new().str("message", "a \"quoted\"\nline"),
            )
            .objects("none", Vec::new())
            .build();
        assert_eq!(
            frame,
            r#"{"cost":null,"gap":null,"ratio":0.5,"error":{"message":"a \"quoted\"\nline"},"none":[]}"#
        );
    }

    #[test]
    fn parse_rejects_bad_lines() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
        let (id, rej) = parse_request(r#"{"id":7,"op":"warp"}"#).unwrap_err();
        assert_eq!(id, Some(7));
        assert_eq!(rej.code, E_UNKNOWN_OP);
    }

    #[test]
    fn parse_register_family() {
        let line = r#"{"id":1,"op":"register","instance":"cg8","family":{"kind":"cg","n":4,"k":2},"processors":4,"cache_factor":3.0,"seed":42,"max_rounds":5}"#;
        let (id, req) = parse_request(line).unwrap();
        assert_eq!(id, Some(1));
        let Request::Register(req) = req else {
            panic!("expected register");
        };
        assert_eq!(req.instance, "cg8");
        assert_eq!(req.processors, 4);
        assert_eq!(req.search.seed, 42);
        assert_eq!(req.search.max_rounds, 5);
        assert!(matches!(req.cache, CacheSpec::Factor(f) if f == 3.0));
        let dag = match &req.source {
            DagSource::Family(f) => f.generate(&req.instance),
            _ => panic!("expected family"),
        };
        assert!(dag.num_nodes() > 0);
    }

    #[test]
    fn wide_random_families_are_refused_before_generation() {
        let register = |family: &str| {
            parse_request(&format!(
                r#"{{"op":"register","instance":"w","family":{{"kind":"random",{family}}},"processors":2}}"#
            ))
        };
        let rejected = |family: &str, cap: usize| match register(family) {
            Err((_, rej)) => {
                assert_eq!(rej.code, E_BAD_REQUEST, "{family}");
                assert!(
                    rej.message.contains(&cap.to_string()),
                    "{family}: {}",
                    rej.message
                );
            }
            Ok(_) => panic!("{family}: accepted"),
        };
        // 8,000 nodes, 1.6·10⁷ trials, ≈ 4.8·10⁶ expected edges.
        rejected(r#""layers":2,"width":4000"#, MAX_FAMILY_EDGES);
        // 40,000 nodes and no extra edges, but 4·10⁸ trials.
        rejected(
            r#""layers":2,"width":20000,"edge_probability":0.0"#,
            MAX_FAMILY_PAIRS,
        );
        // `sched_large`'s spec and one layer of any admissible width pass.
        assert!(register(
            r#""layers":200,"width":500,"edge_probability":0.006,"seed":2949826092126892291"#
        )
        .is_ok());
        assert!(register(r#""layers":1,"width":1000000"#).is_ok());
        assert!(register(r#""layers":2,"width":1000"#).is_ok());
    }

    #[test]
    fn a_register_stores_no_deadline() {
        // The stored repair configuration: search budget and cone radius.
        let stored = |budget: &str| {
            let line = format!(
                r#"{{"op":"register","instance":"x","family":{{"kind":"cg","n":4,"k":2}},"processors":4{budget}}}"#
            );
            match parse_request(&line).unwrap().1 {
                Request::Register(req) => format!("{:?} {}", req.search, req.cone_radius),
                other => panic!("expected register, got {other:?}"),
            }
        };
        // A deadline in either position leaves the stored config as it is
        // without one; the shard count is the library's size rule.
        let plain = stored("");
        assert!(plain.contains("num_shards: 0"), "{plain}");
        assert_eq!(stored(r#","time_limit_ms":0"#), plain);
        assert_eq!(stored(r#","budget":{"time_limit_ms":3600000}"#), plain);
        // Per job, the field keeps its name, both positions and its meaning.
        for line in [
            r#"{"op":"schedule","instance":"x","time_limit_ms":1500}"#,
            r#"{"op":"repair","instance":"x","budget":{"time_limit_ms":1500}}"#,
        ] {
            let overrides = match parse_request(line).unwrap().1 {
                Request::Schedule(req) => req.overrides,
                Request::Repair(req) => req.overrides,
                other => panic!("expected a job, got {other:?}"),
            };
            assert_eq!(overrides.time_limit_ms, Some(1500), "{line}");
        }
    }

    #[test]
    fn workers_and_strategy_are_ignored_like_any_unread_field() {
        // The stored repair configuration: search budget and cone radius.
        let stored = |extra: &str| {
            let line = format!(
                r#"{{"op":"register","instance":"x","family":{{"kind":"cg","n":4,"k":2}},"processors":4{extra}}}"#
            );
            match parse_request(&line).unwrap().1 {
                Request::Register(req) => format!("{:?} {}", req.search, req.cone_radius),
                other => panic!("expected register, got {other:?}"),
            }
        };
        let plain = stored("");
        assert_eq!(stored(r#","workers":3,"strategy":"topo""#), plain);
        assert_eq!(stored(r#","budget":{"workers":3}"#), plain);
        assert_eq!(stored(r#","strategy":"none-such""#), plain);
    }

    #[test]
    fn parse_mutate_deltas() {
        let line = r#"{"op":"mutate","instance":"x","deltas":[{"add_node":{"compute":1.5,"memory":2.0}},{"add_edge":{"from":0,"to":3}},{"reweight":{"node":1,"compute":2.0,"memory":1.0}}]}"#;
        let (_, req) = parse_request(line).unwrap();
        let Request::Mutate(req) = req else {
            panic!("expected mutate");
        };
        assert_eq!(req.deltas.len(), 3);
        assert!(matches!(req.deltas[0], DagDelta::AddNode { .. }));
        assert!(matches!(req.deltas[1], DagDelta::AddEdge { .. }));
        assert!(matches!(req.deltas[2], DagDelta::Reweight { .. }));
    }

    #[test]
    fn ids_and_weights_past_u32_are_rejected_not_wrapped() {
        // 2³² is the first value `as u32` maps to 0.
        for body in [
            r#"{"remove_node":{"node":4294967296}}"#,
            r#"{"add_edge":{"from":0,"to":4294967296}}"#,
            r#"{"reweight":{"node":4294967297,"compute":1.0,"memory":1.0}}"#,
        ] {
            let line = format!(r#"{{"id":3,"op":"mutate","instance":"x","deltas":[{body}]}}"#);
            let (id, rej) = parse_request(&line).unwrap_err();
            assert_eq!((id, rej.code), (Some(3), E_BAD_DELTA), "{body}");
        }
        let line =
            r#"{"op":"mutate","instance":"x","deltas":[{"remove_node":{"node":4294967295}}]}"#;
        assert!(parse_request(line).is_ok(), "u32::MAX is still an id");

        for bound in ["max_compute", "max_memory"] {
            let line = format!(
                r#"{{"op":"register","instance":"x","processors":2,"family":{{"kind":"random","layers":2,"width":2,"{bound}":4294967296}}}}"#
            );
            let (_, rej) = parse_request(&line).unwrap_err();
            assert_eq!(rej.code, E_BAD_REQUEST, "{bound}");
        }
    }

    #[test]
    fn num_shards_past_the_cap_is_rejected_on_every_searching_request() {
        use crate::server::{MAX_MOVES_PER_ROUND, MAX_SHARDS};
        for request in [
            r#""op":"register","instance":"x","processors":2,"family":{"kind":"cg","n":4,"k":2}"#,
            r#""op":"schedule","instance":"x""#,
            r#""op":"repair","instance":"x""#,
        ] {
            for (field, cap) in [
                ("num_shards", MAX_SHARDS),
                ("moves_per_round", MAX_MOVES_PER_ROUND),
            ] {
                let over = cap + 1;
                for budget in [
                    format!(r#""{field}":{over}"#),
                    format!(r#""budget":{{"{field}":{over}}}"#),
                ] {
                    let (id, rej) = parse_request(&format!(r#"{{"id":9,{request},{budget}}}"#))
                        .expect_err("a budget past its cap");
                    assert_eq!(
                        (id, rej.code),
                        (Some(9), E_BAD_REQUEST),
                        "{request} {budget}"
                    );
                    assert!(rej.message.contains(field), "{}", rej.message);
                }
                let at_cap = format!(r#"{{"id":9,{request},"{field}":{cap}}}"#);
                assert!(parse_request(&at_cap).is_ok(), "the cap itself is admitted");
            }
        }
    }
}
