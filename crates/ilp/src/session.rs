//! Binary session checkpoints for [`IncrementalScheduler`].
//!
//! A checkpoint captures *everything* a restored session needs to continue
//! byte-identically to an uninterrupted one: the mutated DAG, the live
//! Pearce–Kelly order (its values **and** never-reused high-water mark — a
//! freshly recomputed order would diverge on the next structural delta), the
//! incumbent per-node assignment, the pending touched set and every
//! [`RepairConfig`] setting that decides a result. The `CNF2` section stores
//! those: the cost model, strategy, shard-local seeding, shard count, rounds,
//! moves per round, seed, stale-round limit, iterations, runs per shard, mass
//! tolerance and cone radius. It stores no clock — a deadline belongs to a
//! job's [`CancelToken`](mbsp_pool::CancelToken), not to a session — and no
//! worker count. Restoring therefore takes no caller-side configuration; the
//! transient worker count (restored as `0`), lane-permit count and cancel
//! token are re-attached with [`IncrementalScheduler::config_mut`],
//! [`IncrementalScheduler::with_pool`] and
//! [`IncrementalScheduler::with_cancel`], none of which can affect results.
//!
//! The format is the `mbsp_io` frame (`MBIO` magic, version, CRC-checked
//! sections) under [`KIND_SESSION`], and this module is the one place that
//! knows its sections: the DAG's four come from `mbsp_io`
//! ([`write_dag_sections`], [`DagSections`]); `CNF2`, `ARCH`, `ORDR`, `PROC`
//! and `PEND` are written and read here, field by field.
//! Decoding is total: truncated, bit-flipped or semantically inconsistent
//! blobs (order/assignment length mismatching the DAG, out-of-range pending
//! ids, unknown strategy or cost-model bytes, a DAG whose minimal cache size
//! `r₀` exceeds the architecture's cache, the earlier `CONF` layout) are
//! rejected with a typed [`DecodeError`].
//!
//! The `mbsp_serve` daemon builds its durability on exactly this contract:
//! it checkpoints every warm session to disk after each mutation batch and on
//! graceful shutdown, and a restarted daemon restores the sessions and
//! continues serving byte-identically to an uninterrupted one.

use crate::dirty_cone::{IncrementalScheduler, RepairConfig};
use crate::shard::{ShardStrategy, ShardedSearchConfig};
use mbsp_dag::{NodeId, PkOrder};
use mbsp_io::{
    set_once, write_dag_sections, DagSections, DecodeError, Reader, Writer, KIND_SESSION, SEC_ARCH,
    SEC_CONFIG, SEC_ORDER, SEC_PENDING, SEC_PROCS,
};
use mbsp_model::{Architecture, CostModel, ProcId};
use mbsp_pool::WorkerPool;

fn encode_config(cfg: &RepairConfig, w: &mut Writer) {
    let s = &cfg.search;
    w.put_u8(match s.cost_model {
        CostModel::Synchronous => 0,
        CostModel::Asynchronous => 1,
    });
    w.put_u8(match s.strategy {
        ShardStrategy::Topo => 0,
        ShardStrategy::Weighted => 1,
    });
    w.put_u8(s.shard_local_seed as u8);
    w.put_u64(s.num_shards as u64);
    w.put_u64(s.max_rounds as u64);
    w.put_u64(s.moves_per_round as u64);
    w.put_u64(s.seed);
    w.put_u64(s.stale_round_limit as u64);
    w.put_u64(s.iterations as u64);
    w.put_u64(s.runs_per_shard as u64);
    w.put_f64(s.mass_tolerance);
    w.put_u64(cfg.cone_radius as u64);
}

fn decode_config(r: &mut Reader<'_>) -> Result<RepairConfig, DecodeError> {
    let cost_model = match r.get_u8()? {
        0 => CostModel::Synchronous,
        1 => CostModel::Asynchronous,
        b => return Err(r.invalid(format!("byte {b:#04x} is not a cost model"))),
    };
    let strategy = match r.get_u8()? {
        0 => ShardStrategy::Topo,
        1 => ShardStrategy::Weighted,
        b => return Err(r.invalid(format!("byte {b:#04x} is not a shard strategy"))),
    };
    let shard_local_seed = r.get_bool()?;
    let num_shards = r.get_usize()?;
    let max_rounds = r.get_usize()?;
    let moves_per_round = r.get_usize()?;
    let seed = r.get_u64()?;
    let stale_round_limit = r.get_usize()?;
    let iterations = r.get_usize()?;
    let runs_per_shard = r.get_usize()?;
    let mass_tolerance = r.get_f64()?;
    if !mass_tolerance.is_finite() || mass_tolerance < 0.0 {
        return Err(r.invalid(format!(
            "mass tolerance {mass_tolerance} is not finite and >= 0"
        )));
    }
    let cone_radius = r.get_usize()?;
    Ok(RepairConfig {
        search: ShardedSearchConfig {
            cost_model,
            num_shards,
            // Result-neutral, so not stored: re-attached like the pool.
            workers: 0,
            max_rounds,
            moves_per_round,
            seed,
            stale_round_limit,
            strategy,
            iterations,
            shard_local_seed,
            runs_per_shard,
            mass_tolerance,
        },
        cone_radius,
    })
}

/// The `ARCH` section: `P`, then `r`, `g` and `L`. Decoding refuses zero
/// processors and a parameter that is negative or not finite.
fn encode_arch(arch: &Architecture, w: &mut Writer) {
    w.put_u64(arch.processors as u64);
    w.put_f64(arch.cache_size);
    w.put_f64(arch.g);
    w.put_f64(arch.latency);
}

fn decode_arch(r: &mut Reader<'_>) -> Result<Architecture, DecodeError> {
    let processors = r.get_usize()?;
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

/// The `ORDR` section: the order's never-reused high-water mark, then its
/// value per node id.
fn encode_order(order: &PkOrder, w: &mut Writer) {
    w.put_u64(order.next_value());
    w.put_u64(order.values().len() as u64);
    for &v in order.values() {
        w.put_u64(v);
    }
}

/// An `ORDR` payload as `(values, high-water mark)`; [`restore_order`] checks
/// it once the DAG is known.
fn decode_order(r: &mut Reader<'_>) -> Result<(Vec<u64>, u64), DecodeError> {
    let next_value = r.get_u64()?;
    Ok((r.get_vec(8, Reader::get_u64)?, next_value))
}

/// The live order of an `n`-node DAG, rejecting a value count other than `n`
/// and then duplicate or out-of-range values.
fn restore_order((values, next_value): (Vec<u64>, u64), n: usize) -> Result<PkOrder, DecodeError> {
    if values.len() != n {
        return Err(DecodeError::InvalidValue {
            offset: 0,
            what: format!("order covers {} nodes but the DAG has {n}", values.len()),
        });
    }
    PkOrder::from_saved(values, next_value).map_err(|e| DecodeError::InvalidValue {
        offset: 0,
        what: format!("rejected order: {e}"),
    })
}

/// One entry per node, every processor in range.
fn check_procs(procs: &[ProcId], num_nodes: usize, processors: usize) -> Result<(), DecodeError> {
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

impl IncrementalScheduler {
    /// Serialises the full session into a checkpoint blob. See the module docs
    /// for exactly what is captured.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_SESSION);
        w.section(SEC_CONFIG, |w| encode_config(&self.config, w));
        write_dag_sections(&mut w, &self.dag);
        w.section(SEC_ARCH, |w| encode_arch(&self.arch, w));
        w.section(SEC_ORDER, |w| encode_order(&self.order, w));
        w.section(SEC_PROCS, |w| {
            w.put_u64(self.procs.len() as u64);
            for p in &self.procs {
                w.put_u32(p.0);
            }
        });
        w.section(SEC_PENDING, |w| {
            w.put_u64(self.pending.len() as u64);
            for v in &self.pending {
                w.put_u32(v.0);
            }
        });
        w.finish()
    }

    /// Restores a session from a checkpoint blob, re-validating every domain
    /// invariant (acyclicity, order consistency, assignment coverage, pending
    /// ids in range, every compute footprint within the cache). The restored
    /// scheduler takes its lanes from the default permit count, with no cancel
    /// token and `workers: 0`; all three are transient and result-neutral.
    pub fn restore(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::open(bytes, KIND_SESSION)?;
        let mut dag_sections = DagSections::default();
        let mut config: Option<RepairConfig> = None;
        let mut arch: Option<Architecture> = None;
        let mut order: Option<(Vec<u64>, u64)> = None;
        let mut procs: Option<Vec<ProcId>> = None;
        let mut pending: Option<Vec<NodeId>> = None;
        while let Some((tag, mut body)) = r.next_section()? {
            if dag_sections.accept(tag, &mut body)? {
                continue;
            }
            match tag {
                SEC_CONFIG => set_once(tag, &mut config, decode_config(&mut body)?)?,
                SEC_ARCH => set_once(tag, &mut arch, decode_arch(&mut body)?)?,
                SEC_ORDER => set_once(tag, &mut order, decode_order(&mut body)?)?,
                SEC_PROCS => {
                    let decoded = body.get_vec(4, |r| Ok(ProcId(r.get_u32()?)))?;
                    set_once(tag, &mut procs, decoded)?;
                }
                SEC_PENDING => {
                    let decoded = body.get_vec(4, |r| Ok(NodeId(r.get_u32()?)))?;
                    set_once(tag, &mut pending, decoded)?;
                }
                _ => {
                    return Err(DecodeError::BadSectionTag {
                        offset: body.offset(),
                        tag,
                    })
                }
            }
            body.finish()?;
        }
        let dag = dag_sections.build()?;
        let config = config.ok_or(DecodeError::MissingSection { tag: SEC_CONFIG })?;
        let arch = arch.ok_or(DecodeError::MissingSection { tag: SEC_ARCH })?;
        let order = order.ok_or(DecodeError::MissingSection { tag: SEC_ORDER })?;
        let procs = procs.ok_or(DecodeError::MissingSection { tag: SEC_PROCS })?;
        let pending = pending.ok_or(DecodeError::MissingSection { tag: SEC_PENDING })?;
        let order = restore_order(order, dag.num_nodes())?;
        check_procs(&procs, dag.num_nodes(), arch.processors)?;
        // Below `r₀` some node cannot be computed at all: no schedule exists.
        let r0 = dag.minimal_cache_size();
        if !arch.fits(r0) {
            return Err(DecodeError::InvalidValue {
                offset: 0,
                what: format!(
                    "cache size {} is below the DAG's minimal cache size {r0}",
                    arch.cache_size
                ),
            });
        }
        if let Some(&v) = pending.iter().find(|v| v.index() >= dag.num_nodes()) {
            return Err(DecodeError::InvalidValue {
                offset: 0,
                what: format!(
                    "pending node {v} is out of range for a {}-node DAG",
                    dag.num_nodes()
                ),
            });
        }
        Ok(IncrementalScheduler {
            dag,
            arch,
            order,
            procs,
            config,
            pending,
            pool: WorkerPool::default(),
            cancel: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::DagDelta;
    use mbsp_model::MbspInstance;
    use mbsp_sched::{BspScheduler, GreedyBspScheduler};

    fn session() -> IncrementalScheduler {
        let inst = mbsp_gen::tiny_dataset(42).remove(2);
        let inst = MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0);
        let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
        let procs: Vec<ProcId> = inst
            .dag()
            .nodes()
            .map(|v| baseline.schedule.proc_of(v))
            .collect();
        IncrementalScheduler::new(
            inst.dag().clone(),
            *inst.arch(),
            procs,
            RepairConfig::default(),
        )
    }

    #[test]
    fn a_session_round_trips_through_its_checkpoint() {
        let mut sched = session();
        // Leave some pending state behind so the checkpoint is non-trivial.
        let v = NodeId::new(1);
        let mut w = sched.dag().weights(v);
        w.compute += 1.0;
        sched
            .apply(&DagDelta::Reweight {
                node: v,
                weights: w,
            })
            .unwrap();
        let blob = sched.checkpoint();
        let back = IncrementalScheduler::restore(&blob).expect("restore");
        assert_eq!(back.num_pending(), sched.num_pending());
        assert_eq!(back.assignment(), sched.assignment());
        assert_eq!(back.dag().num_nodes(), sched.dag().num_nodes());
        // The checkpoint of the restored session reproduces the same bytes.
        assert_eq!(back.checkpoint(), blob);
    }

    #[test]
    fn inconsistent_checkpoints_are_rejected() {
        let sched = session();
        let blob = sched.checkpoint();
        // Wrong artifact kind.
        assert!(matches!(
            mbsp_io::decode_dag(&blob),
            Err(DecodeError::WrongArtifact { .. })
        ));
        // Every truncation fails with a typed error.
        for cut in [0, 3, blob.len() / 2, blob.len() - 1] {
            assert!(IncrementalScheduler::restore(&blob[..cut]).is_err());
        }
    }
}
