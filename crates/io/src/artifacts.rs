//! Framed codecs for the engine's domain artifacts: computational DAGs,
//! Pearce–Kelly orders, assignments and architectures.
//!
//! Each artifact is a blob of CRC-checked sections (see [`crate::frame`]);
//! decoding validates domain invariants on the way back in — a decoded DAG is
//! re-checked acyclic, a decoded order must be pairwise distinct, a decoded
//! schedule must reference processors that exist — so restoring from a
//! corrupted or adversarial blob yields a typed [`DecodeError`], never an
//! inconsistent in-memory structure.

use crate::codec::{Decode, Encode};
use crate::frame::{DecodeError, Reader, Writer};
use mbsp_dag::{CompDag, NodeId, NodeWeights, PkOrder};
use mbsp_model::{Architecture, ProcId};

/// Artifact kind stamped in the header of a DAG blob.
pub const KIND_DAG: u32 = u32::from_le_bytes(*b"CDAG");
/// Artifact kind of an incremental-scheduler session checkpoint.
pub const KIND_SESSION: u32 = u32::from_le_bytes(*b"SESS");
/// Artifact kind of a serving-daemon instance registry.
pub const KIND_REGISTRY: u32 = u32::from_le_bytes(*b"SREG");

/// Section tag: DAG metadata (name, node count).
pub const SEC_META: u32 = u32::from_le_bytes(*b"META");
/// Section tag: per-node weights.
pub const SEC_WEIGHTS: u32 = u32::from_le_bytes(*b"WGTS");
/// Section tag: per-node labels.
pub const SEC_LABELS: u32 = u32::from_le_bytes(*b"LBLS");
/// Section tag: flat edge list in insertion order.
pub const SEC_EDGES: u32 = u32::from_le_bytes(*b"EDGE");
/// Section tag: architecture parameters.
pub const SEC_ARCH: u32 = u32::from_le_bytes(*b"ARCH");
/// Section tag: Pearce–Kelly order values + high-water mark.
pub const SEC_ORDER: u32 = u32::from_le_bytes(*b"ORDR");
/// Section tag: per-node processor assignment (the incumbent).
pub const SEC_PROCS: u32 = u32::from_le_bytes(*b"PROC");
/// Section tag: pending touched-node set of an incremental session.
pub const SEC_PENDING: u32 = u32::from_le_bytes(*b"PEND");
/// Section tag: search/repair configuration (seeds, budgets, strategy).
pub const SEC_CONFIG: u32 = u32::from_le_bytes(*b"CONF");
/// Section tag: instance entries of a serving-daemon registry.
pub const SEC_INSTANCES: u32 = u32::from_le_bytes(*b"INST");

/// Writes the body of a DAG (its four sections) into `w`.
///
/// Exposed separately from [`encode_dag`] so composite artifacts (session
/// checkpoints) can embed a DAG without nesting a second header.
pub fn write_dag_sections(w: &mut Writer, dag: &CompDag) {
    w.section(SEC_META, |w| {
        w.put_str(dag.name());
        w.put_u64(dag.num_nodes() as u64);
    });
    w.section(SEC_WEIGHTS, |w| {
        let weights: Vec<NodeWeights> = dag.nodes().map(|v| dag.weights(v)).collect();
        weights.encode(w);
    });
    w.section(SEC_LABELS, |w| {
        w.put_u64(dag.num_nodes() as u64);
        for v in dag.nodes() {
            w.put_str(dag.label(v));
        }
    });
    w.section(SEC_EDGES, |w| {
        let edges: Vec<(NodeId, NodeId)> = dag.edges().collect();
        edges.encode(w);
    });
}

/// Accumulates the four DAG sections while a blob is scanned, then rebuilds
/// the CSR graph (re-validating endpoints, duplicates and acyclicity).
#[derive(Default)]
pub struct DagSections {
    name: Option<(String, u64)>,
    weights: Option<Vec<NodeWeights>>,
    labels: Option<Vec<String>>,
    edges: Option<Vec<(NodeId, NodeId)>>,
}

impl DagSections {
    /// Consumes one section if its tag belongs to the DAG; returns `false` for
    /// foreign tags so composite decoders can try their own.
    pub fn accept(&mut self, tag: u32, r: &mut Reader<'_>) -> Result<bool, DecodeError> {
        match tag {
            SEC_META => {
                set_once(tag, &mut self.name, (r.get_str()?, r.get_u64()?))?;
            }
            SEC_WEIGHTS => {
                set_once(tag, &mut self.weights, Vec::decode(r)?)?;
            }
            SEC_LABELS => {
                let len = r.get_len(8)?;
                let mut labels = Vec::with_capacity(len);
                for _ in 0..len {
                    labels.push(r.get_str()?);
                }
                set_once(tag, &mut self.labels, labels)?;
            }
            SEC_EDGES => {
                set_once(tag, &mut self.edges, Vec::decode(r)?)?;
            }
            _ => return Ok(false),
        }
        r.finish()?;
        Ok(true)
    }

    /// Rebuilds the DAG once every section has been seen.
    pub fn build(self) -> Result<CompDag, DecodeError> {
        let (name, n) = self
            .name
            .ok_or(DecodeError::MissingSection { tag: SEC_META })?;
        let weights = self
            .weights
            .ok_or(DecodeError::MissingSection { tag: SEC_WEIGHTS })?;
        let labels = self
            .labels
            .ok_or(DecodeError::MissingSection { tag: SEC_LABELS })?;
        let edges = self
            .edges
            .ok_or(DecodeError::MissingSection { tag: SEC_EDGES })?;
        if weights.len() as u64 != n || labels.len() as u64 != n {
            return Err(DecodeError::InvalidValue {
                offset: 0,
                what: format!(
                    "META says {n} nodes but {} weights and {} labels were decoded",
                    weights.len(),
                    labels.len()
                ),
            });
        }
        CompDag::from_saved_parts(name, weights, labels, edges).map_err(|e| {
            DecodeError::InvalidValue {
                offset: 0,
                what: format!("rejected DAG: {e}"),
            }
        })
    }
}

/// Records a value for a section seen for the first time; a second occurrence
/// is a [`DecodeError::DuplicateSection`].
fn set_once<T>(tag: u32, slot: &mut Option<T>, value: T) -> Result<(), DecodeError> {
    if slot.is_some() {
        return Err(DecodeError::DuplicateSection { tag });
    }
    *slot = Some(value);
    Ok(())
}

/// Encodes a DAG as a standalone blob.
pub fn encode_dag(dag: &CompDag) -> Vec<u8> {
    let mut w = Writer::new(KIND_DAG);
    write_dag_sections(&mut w, dag);
    w.finish()
}

/// Decodes a standalone DAG blob, re-validating every graph invariant.
pub fn decode_dag(bytes: &[u8]) -> Result<CompDag, DecodeError> {
    let mut r = Reader::open(bytes, KIND_DAG)?;
    let mut dag = DagSections::default();
    while let Some((tag, mut body)) = r.next_section()? {
        if !dag.accept(tag, &mut body)? {
            return Err(DecodeError::BadSectionTag {
                offset: body.offset(),
                tag,
            });
        }
    }
    dag.build()
}

/// The persistent state of a [`PkOrder`]: its values and high-water mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedOrder {
    /// Order value per node id.
    pub values: Vec<u64>,
    /// Never-reused high-water mark for fresh values.
    pub next_value: u64,
}

impl SavedOrder {
    /// Captures the persistent state of an order.
    pub fn of(order: &PkOrder) -> Self {
        SavedOrder {
            values: order.values().to_vec(),
            next_value: order.next_value(),
        }
    }

    /// Restores the live order, rejecting duplicate or out-of-range values.
    pub fn restore(self) -> Result<PkOrder, DecodeError> {
        PkOrder::from_saved(self.values, self.next_value).map_err(|e| DecodeError::InvalidValue {
            offset: 0,
            what: format!("rejected order: {e}"),
        })
    }
}

impl Encode for SavedOrder {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.next_value);
        self.values.encode(w);
    }
}

impl Decode for SavedOrder {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let next_value = r.get_u64()?;
        let values = Vec::decode(r)?;
        Ok(SavedOrder { values, next_value })
    }
    const MIN_SIZE: usize = 16;
}

impl Encode for Architecture {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.processors as u64);
        w.put_f64(self.cache_size);
        w.put_f64(self.g);
        w.put_f64(self.latency);
    }
}

impl Decode for Architecture {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let processors = usize::decode(r)?;
        let cache_size = r.get_f64()?;
        let g = r.get_f64()?;
        let latency = r.get_f64()?;
        if processors == 0 {
            return Err(r.invalid("architecture has zero processors"));
        }
        for (name, v) in [("cache size", cache_size), ("g", g), ("latency", latency)] {
            if !v.is_finite() || v < 0.0 {
                return Err(r.invalid(format!("{name} {v} is not finite and >= 0")));
            }
        }
        Ok(Architecture {
            processors,
            cache_size,
            g,
            latency,
        })
    }
    const MIN_SIZE: usize = 32;
}

/// True when `name` is a valid service-instance name: 1–64 characters drawn
/// from `[A-Za-z0-9_-]`. The charset keeps names safe to embed in checkpoint
/// file names and in the `mbsp_serve` line protocol without escaping.
pub fn valid_instance_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// One instance known to a serving daemon: the name clients address it by,
/// the session-checkpoint file holding its engine state, and the number of
/// checkpoints written so far (a freshness/debugging aid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Client-facing instance name (validated by [`valid_instance_name`]).
    pub name: String,
    /// Checkpoint file name, relative to the daemon's state directory.
    pub session_file: String,
    /// Monotone count of checkpoints written for this instance.
    pub generation: u64,
}

/// The persistent instance registry of a serving daemon: which instances
/// exist and where each one's session checkpoint lives. Written atomically on
/// every mutation and on graceful shutdown; decoded (and fully re-validated)
/// on restart before any session is restored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceRegistry {
    /// Registered instances, in registration order.
    pub entries: Vec<RegistryEntry>,
}

impl ServiceRegistry {
    /// Encodes the registry as a standalone [`KIND_REGISTRY`] blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_REGISTRY);
        w.section(SEC_INSTANCES, |w| {
            w.put_u64(self.entries.len() as u64);
            for e in &self.entries {
                w.put_str(&e.name);
                w.put_str(&e.session_file);
                w.put_u64(e.generation);
            }
        });
        w.finish()
    }

    /// Decodes a registry blob, rejecting invalid or duplicate instance names.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::open(bytes, KIND_REGISTRY)?;
        let mut saved: Option<ServiceRegistry> = None;
        while let Some((tag, mut body)) = r.next_section()? {
            match tag {
                SEC_INSTANCES => {
                    let len = body.get_len(24)?;
                    let mut entries = Vec::with_capacity(len);
                    for _ in 0..len {
                        let name = body.get_str()?;
                        let session_file = body.get_str()?;
                        let generation = body.get_u64()?;
                        if !valid_instance_name(&name) {
                            return Err(body.invalid(format!(
                                "registry entry name {name:?} is not a valid instance name"
                            )));
                        }
                        entries.push(RegistryEntry {
                            name,
                            session_file,
                            generation,
                        });
                    }
                    body.finish()?;
                    for i in 1..entries.len() {
                        if entries[..i].iter().any(|e| e.name == entries[i].name) {
                            return Err(DecodeError::InvalidValue {
                                offset: 0,
                                what: format!(
                                    "registry lists instance {:?} twice",
                                    entries[i].name
                                ),
                            });
                        }
                    }
                    set_once(tag, &mut saved, ServiceRegistry { entries })?;
                }
                _ => {
                    return Err(DecodeError::BadSectionTag {
                        offset: body.offset(),
                        tag,
                    })
                }
            }
        }
        saved.ok_or(DecodeError::MissingSection { tag: SEC_INSTANCES })
    }
}

/// Validates a decoded assignment against a DAG and processor count: one entry
/// per node, every processor in range. Shared by the session restore path.
pub fn check_assignment(
    procs: &[ProcId],
    num_nodes: usize,
    processors: usize,
) -> Result<(), DecodeError> {
    if procs.len() != num_nodes {
        return Err(DecodeError::InvalidValue {
            offset: 0,
            what: format!("{} assignments for {num_nodes} nodes", procs.len()),
        });
    }
    if let Some(p) = procs.iter().find(|p| p.index() >= processors) {
        return Err(DecodeError::InvalidValue {
            offset: 0,
            what: format!("assignment references processor {p} but only {processors} exist"),
        });
    }
    Ok(())
}
