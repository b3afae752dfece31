//! Seeded fault-injection plans for the engine's robustness soak tests.
//!
//! A [`FaultPlan`] is pure data: given a seed and the length of a mutation
//! stream, it deterministically picks the operation indices at which the soak
//! harness injects each fault class —
//!
//! * **worker panics** — before applying the operation, the harness runs a
//!   poisoned batch on the scheduler's lane-permit count, exercising panic
//!   isolation and the permits' return on unwind (`mbsp_pool`);
//! * **checkpoint corruption** — the harness checkpoints the session, applies
//!   the planned [`Corruption`] (truncation at a chosen offset, or a single
//!   bit flip) and asserts the restore is rejected with a typed error while
//!   the live session continues unharmed;
//! * **invalid deltas** — the harness interleaves an out-of-range or
//!   self-referential [`DagDelta`] (see
//!   [`FaultPlan::invalid_delta`]) and asserts it is rejected without mutating
//!   the session.
//!
//! The plan owns no I/O and no threads, so the same `(seed, ops)` pair replays
//! the exact fault schedule on any machine — which is what lets CI pin a fixed
//! seed matrix.

use mbsp_dag::{DagDelta, NodeId, NodeWeights};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One way to damage a checkpoint blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Cut the blob after `offset` bytes (modulo the blob length, so every
    /// planned offset lands inside the blob).
    Truncate {
        /// Preserved prefix length before reduction modulo the blob length.
        offset: usize,
    },
    /// Flip one bit of one byte.
    BitFlip {
        /// Byte position before reduction modulo the blob length.
        offset: usize,
        /// Bit index in `0..8`.
        bit: u8,
    },
}

impl Corruption {
    /// Applies the corruption to a copy of `blob`. Empty blobs are returned
    /// unchanged (there is nothing to damage).
    pub fn apply(&self, blob: &[u8]) -> Vec<u8> {
        let mut out = blob.to_vec();
        if out.is_empty() {
            return out;
        }
        match *self {
            Corruption::Truncate { offset } => {
                out.truncate(offset % out.len());
            }
            Corruption::BitFlip { offset, bit } => {
                let pos = offset % out.len();
                out[pos] ^= 1 << (bit % 8);
            }
        }
        out
    }
}

/// A deterministic schedule of fault injections over a stream of `ops`
/// operations. See the module docs for how each class is meant to be driven.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Operation indices before which a worker panic is injected (sorted,
    /// deduplicated).
    pub panic_ops: Vec<usize>,
    /// Operation indices at which the session checkpoint is corrupted, with
    /// the damage to apply (sorted by index, at most one per index).
    pub corrupt_ops: Vec<(usize, Corruption)>,
    /// Operation indices before which an invalid delta is interleaved
    /// (sorted, deduplicated).
    pub invalid_delta_ops: Vec<usize>,
}

impl FaultPlan {
    /// Draws a plan for a stream of `ops` operations: roughly one fault of
    /// each class per eight operations, at least one of each class whenever
    /// `ops > 0`. Deterministic in `(seed, ops)`.
    pub fn seeded(seed: u64, ops: usize) -> FaultPlan {
        if ops == 0 {
            return FaultPlan::default();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let per_class = (ops / 8).max(1);
        let draw = |rng: &mut ChaCha8Rng| -> Vec<usize> {
            let mut v: Vec<usize> = (0..per_class).map(|_| rng.gen_range(0..ops)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let panic_ops = draw(&mut rng);
        let corrupt_ops = draw(&mut rng)
            .into_iter()
            .map(|op| {
                let corruption = if rng.gen_bool(0.5) {
                    Corruption::Truncate {
                        offset: rng.gen_range(0..usize::MAX),
                    }
                } else {
                    Corruption::BitFlip {
                        offset: rng.gen_range(0..usize::MAX),
                        bit: rng.gen_range(0..8),
                    }
                };
                (op, corruption)
            })
            .collect();
        let invalid_delta_ops = draw(&mut rng);
        FaultPlan {
            panic_ops,
            corrupt_ops,
            invalid_delta_ops,
        }
    }

    /// True when a worker panic is planned before operation `op`.
    pub fn panics_at(&self, op: usize) -> bool {
        self.panic_ops.binary_search(&op).is_ok()
    }

    /// The checkpoint corruption planned at operation `op`, if any.
    pub fn corruption_at(&self, op: usize) -> Option<Corruption> {
        self.corrupt_ops
            .binary_search_by_key(&op, |&(i, _)| i)
            .ok()
            .map(|i| self.corrupt_ops[i].1)
    }

    /// True when an invalid delta is planned before operation `op`.
    pub fn invalid_delta_at(&self, op: usize) -> bool {
        self.invalid_delta_ops.binary_search(&op).is_ok()
    }

    /// An invalid [`DagDelta`] for a graph of `num_nodes` nodes, rotating
    /// through the rejection paths: an out-of-range reweight, an out-of-range
    /// edge and a self-loop. Every variant must be refused by
    /// [`CompDag::apply_delta`](mbsp_dag::CompDag::apply_delta) without
    /// mutating the graph.
    pub fn invalid_delta(op: usize, num_nodes: usize) -> DagDelta {
        let missing = NodeId::new(num_nodes + 1 + op);
        match op % 3 {
            0 => DagDelta::Reweight {
                node: missing,
                weights: NodeWeights::new(1.0, 1.0),
            },
            1 => DagDelta::AddEdge {
                from: NodeId::new(0),
                to: missing,
            },
            _ => DagDelta::AddEdge {
                from: NodeId::new(0),
                to: NodeId::new(0),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::{CompDag, PkOrder};

    #[test]
    fn plans_are_deterministic_and_cover_every_class() {
        let a = FaultPlan::seeded(7, 64);
        let b = FaultPlan::seeded(7, 64);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded(8, 64));
        assert!(!a.panic_ops.is_empty());
        assert!(!a.corrupt_ops.is_empty());
        assert!(!a.invalid_delta_ops.is_empty());
        assert!(a.panic_ops.iter().all(|&op| op < 64));
        assert!(a.corrupt_ops.iter().all(|&(op, _)| op < 64));
        assert!(a.invalid_delta_ops.iter().all(|&op| op < 64));
        assert_eq!(FaultPlan::seeded(7, 0), FaultPlan::default());
    }

    #[test]
    fn corruption_damages_exactly_as_planned() {
        let blob: Vec<u8> = (0..32u8).collect();
        let cut = Corruption::Truncate { offset: 100 }.apply(&blob);
        assert_eq!(cut, blob[..100 % 32].to_vec());
        let flipped = Corruption::BitFlip { offset: 5, bit: 3 }.apply(&blob);
        assert_eq!(flipped[5], blob[5] ^ 0b1000);
        assert_eq!(flipped.len(), blob.len());
        assert!(Corruption::BitFlip { offset: 0, bit: 0 }
            .apply(&[])
            .is_empty());
    }

    #[test]
    fn invalid_deltas_are_always_rejected_without_mutation() {
        let weights = (0..4).map(|_| NodeWeights::new(1.0, 1.0)).collect();
        let dag = CompDag::from_edges("f", weights, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        for op in 0..9 {
            let mut probe = dag.clone();
            let mut order = PkOrder::of_dag(&probe);
            let delta = FaultPlan::invalid_delta(op, probe.num_nodes());
            assert!(
                probe.apply_delta(&delta, &mut order).is_err(),
                "op {op}: {delta:?} must be rejected"
            );
            assert_eq!(probe.num_edges(), dag.num_edges());
            assert_eq!(probe.num_nodes(), dag.num_nodes());
        }
    }
}
