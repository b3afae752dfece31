//! The artifacts `mbsp_io` knows: computational DAGs, plus the kinds and the
//! one tag namespace of every artifact the workspace writes.
//!
//! Each artifact is a blob of CRC-checked sections (see [`crate::frame`]);
//! decoding validates domain invariants on the way back in — a decoded DAG is
//! re-checked acyclic — so restoring from a corrupted or adversarial blob
//! yields a typed [`DecodeError`], never an inconsistent in-memory structure.

use crate::frame::{DecodeError, Reader, Writer};
use mbsp_dag::{CompDag, NodeId, NodeWeights};

/// Artifact kind stamped in the header of a DAG blob.
pub const KIND_DAG: u32 = u32::from_le_bytes(*b"CDAG");
/// Artifact kind of an incremental-scheduler session checkpoint.
pub const KIND_SESSION: u32 = u32::from_le_bytes(*b"SESS");
/// Artifact kind of a serving daemon's instance file: one
/// [`SEC_GENERATION`] section, then the sections of a session checkpoint.
/// The whole durable state of one instance, written with one rename.
pub const KIND_INSTANCE: u32 = u32::from_le_bytes(*b"SINS");

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
/// Section tag: per-node processor assignment (the incumbent).
pub const SEC_PROCS: u32 = u32::from_le_bytes(*b"PROC");
/// Section tag: pending touched-node set of an incremental session.
pub const SEC_PENDING: u32 = u32::from_le_bytes(*b"PEND");
/// Section tag: the search/repair settings that decide a result (seeds,
/// budgets, strategy). The earlier layout, tag `CONF`, also stored a worker
/// count, a deadline and the fixed salvage cap; its tag is refused as
/// [`DecodeError::BadSectionTag`], so no session carries a clock.
pub const SEC_CONFIG: u32 = u32::from_le_bytes(*b"CNF2");
/// Section tag: the generation of a serving daemon's instance file, its
/// monotone checkpoint counter (1 at registration, one more per `mutate` or
/// `repair`).
pub const SEC_GENERATION: u32 = u32::from_le_bytes(*b"GENR");

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
/// from `[A-Za-z0-9_-]`. The charset keeps names safe to embed in instance
/// file names and in the `mbsp_serve` line protocol without escaping.
pub fn valid_instance_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}
