//! The artifacts `mbsp_io` knows: computational DAGs and the serving
//! daemon's instance registry, plus the one tag namespace every artifact's
//! sections share.
//!
//! Each artifact is a blob of CRC-checked sections (see [`crate::frame`]);
//! decoding validates domain invariants on the way back in — a decoded DAG is
//! re-checked acyclic, a decoded registry names each instance once — so
//! restoring from a corrupted or adversarial blob yields a typed
//! [`DecodeError`], never an inconsistent in-memory structure.

use crate::frame::{DecodeError, Reader, Writer};
use mbsp_dag::{CompDag, NodeId, NodeWeights};

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
/// Section tag: the search/repair settings that decide a result (seeds,
/// budgets, strategy). The earlier layout, tag `CONF`, also stored a worker
/// count, a deadline and the fixed salvage cap; its tag is refused as
/// [`DecodeError::BadSectionTag`], so no session carries a clock.
pub const SEC_CONFIG: u32 = u32::from_le_bytes(*b"CNF2");
/// Section tag: instance entries of a serving-daemon registry, each a name
/// and a generation. The earlier layout, tag `INST`, also stored a file name
/// per entry; its tag is refused as [`DecodeError::BadSectionTag`], so no
/// registry names a path.
pub const SEC_INSTANCES: u32 = u32::from_le_bytes(*b"INS2");

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
        w.put_u64(dag.num_nodes() as u64);
        for v in dag.nodes() {
            let weights = dag.weights(v);
            w.put_f64(weights.compute);
            w.put_f64(weights.memory);
        }
    });
    w.section(SEC_LABELS, |w| {
        w.put_u64(dag.num_nodes() as u64);
        for v in dag.nodes() {
            w.put_str(dag.label(v));
        }
    });
    w.section(SEC_EDGES, |w| {
        w.put_u64(dag.num_edges() as u64);
        for (u, v) in dag.edges() {
            w.put_u32(u.0);
            w.put_u32(v.0);
        }
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
                let weights = r.get_vec(16, |r| {
                    let compute = r.get_f64()?;
                    let memory = r.get_f64()?;
                    Ok(NodeWeights { compute, memory })
                })?;
                set_once(tag, &mut self.weights, weights)?;
            }
            SEC_LABELS => {
                set_once(tag, &mut self.labels, r.get_vec(8, Reader::get_str)?)?;
            }
            SEC_EDGES => {
                let edges = r.get_vec(8, |r| Ok((NodeId(r.get_u32()?), NodeId(r.get_u32()?))))?;
                set_once(tag, &mut self.edges, edges)?;
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
pub fn set_once<T>(tag: u32, slot: &mut Option<T>, value: T) -> Result<(), DecodeError> {
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

/// One instance known to a serving daemon: the name clients address it by
/// (which also names its session-checkpoint file in the state directory) and
/// the number of checkpoints written so far (a freshness/debugging aid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Client-facing instance name (validated by [`valid_instance_name`]).
    pub name: String,
    /// Monotone count of checkpoints written for this instance.
    pub generation: u64,
}

/// The persistent instance registry of a serving daemon: which instances
/// exist and how many checkpoints each has written. Written atomically on
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
                    let entries = body.get_vec(16, |r| {
                        let name = r.get_str()?;
                        let generation = r.get_u64()?;
                        if !valid_instance_name(&name) {
                            return Err(r.invalid(format!(
                                "registry entry name {name:?} is not a valid instance name"
                            )));
                        }
                        Ok(RegistryEntry { name, generation })
                    })?;
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
