//! Transition rules (pebbling operations) of the MBSP model.

use crate::arch::ProcId;
use mbsp_dag::{CompDag, NodeId};
use serde::{Deserialize, Serialize};

/// A single transition rule applied by one processor.
///
/// The four rules mirror Section 3.1 of the paper:
///
/// * `Load(p, v)` — place a red pebble of `p` on `v`, provided `v` has a blue pebble.
///   Cost `μ(v) · g`.
/// * `Save(p, v)` — place a blue pebble on `v`, provided `v` has a red pebble of `p`.
///   Cost `μ(v) · g`.
/// * `Compute(p, v)` — place a red pebble of `p` on `v`, provided `v` is not a source
///   and all parents of `v` carry a red pebble of `p`. Cost `ω(v)`.
/// * `Delete(p, v)` — remove the red pebble of `p` from `v`. Cost 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operation {
    /// Load `node` from slow memory into the cache of `proc`.
    Load {
        /// The processor performing the load.
        proc: ProcId,
        /// The node whose value is loaded.
        node: NodeId,
    },
    /// Save `node` from the cache of `proc` to slow memory.
    Save {
        /// The processor performing the save.
        proc: ProcId,
        /// The node whose value is saved.
        node: NodeId,
    },
    /// Compute `node` in the cache of `proc`.
    Compute {
        /// The processor performing the computation.
        proc: ProcId,
        /// The node being computed.
        node: NodeId,
    },
    /// Evict `node` from the cache of `proc`.
    Delete {
        /// The processor performing the eviction.
        proc: ProcId,
        /// The node being evicted.
        node: NodeId,
    },
}

impl Operation {
    /// The processor executing this operation.
    pub fn proc(&self) -> ProcId {
        match *self {
            Operation::Load { proc, .. }
            | Operation::Save { proc, .. }
            | Operation::Compute { proc, .. }
            | Operation::Delete { proc, .. } => proc,
        }
    }

    /// The node this operation touches.
    pub fn node(&self) -> NodeId {
        match *self {
            Operation::Load { node, .. }
            | Operation::Save { node, .. }
            | Operation::Compute { node, .. }
            | Operation::Delete { node, .. } => node,
        }
    }

    /// The cost of the operation under the given DAG weights and communication gap
    /// `g`: `μ(v)·g` for loads and saves, `ω(v)` for computes, 0 for deletes.
    pub fn cost(&self, dag: &CompDag, g: f64) -> f64 {
        match *self {
            Operation::Load { node, .. } | Operation::Save { node, .. } => {
                dag.memory_weight(node) * g
            }
            Operation::Compute { node, .. } => dag.compute_weight(node),
            Operation::Delete { .. } => 0.0,
        }
    }
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operation::Load { proc, node } => write!(f, "LOAD({proc}, {node})"),
            Operation::Save { proc, node } => write!(f, "SAVE({proc}, {node})"),
            Operation::Compute { proc, node } => write!(f, "COMPUTE({proc}, {node})"),
            Operation::Delete { proc, node } => write!(f, "DELETE({proc}, {node})"),
        }
    }
}

/// A step within the *compute phase* of a superstep: either a computation or an
/// eviction. The paper's compute phase `Ψ_comp` only admits these two rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComputePhaseStep {
    /// Compute the node.
    Compute(NodeId),
    /// Evict the node from the processor's cache.
    Delete(NodeId),
}

impl ComputePhaseStep {
    /// The node this step touches.
    pub fn node(&self) -> NodeId {
        match *self {
            ComputePhaseStep::Compute(v) | ComputePhaseStep::Delete(v) => v,
        }
    }

    /// Converts the step to a full [`Operation`] on processor `p`.
    pub fn to_operation(self, p: ProcId) -> Operation {
        match self {
            ComputePhaseStep::Compute(v) => Operation::Compute { proc: p, node: v },
            ComputePhaseStep::Delete(v) => Operation::Delete { proc: p, node: v },
        }
    }

    /// Returns true if this is a compute step.
    pub fn is_compute(&self) -> bool {
        matches!(self, ComputePhaseStep::Compute(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::graph::NodeWeights;

    fn dag() -> CompDag {
        let mut weights = vec![NodeWeights::unit(); 3];
        weights[1] = NodeWeights::new(4.0, 3.0);
        CompDag::from_edges("t", weights, &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn operation_costs() {
        let d = dag();
        let p = ProcId::new(0);
        let v = NodeId::new(1);
        assert_eq!(Operation::Compute { proc: p, node: v }.cost(&d, 2.0), 4.0);
        assert_eq!(Operation::Load { proc: p, node: v }.cost(&d, 2.0), 6.0);
        assert_eq!(Operation::Save { proc: p, node: v }.cost(&d, 2.0), 6.0);
        assert_eq!(Operation::Delete { proc: p, node: v }.cost(&d, 2.0), 0.0);
    }

    #[test]
    fn accessors_and_display() {
        let p = ProcId::new(1);
        let v = NodeId::new(2);
        let op = Operation::Load { proc: p, node: v };
        assert_eq!(op.proc(), p);
        assert_eq!(op.node(), v);
        assert_eq!(op.to_string(), "LOAD(p1, v2)");
    }

    #[test]
    fn compute_phase_step_conversion() {
        let p = ProcId::new(0);
        let s = ComputePhaseStep::Compute(NodeId::new(1));
        assert!(s.is_compute());
        assert_eq!(s.node(), NodeId::new(1));
        assert_eq!(
            s.to_operation(p),
            Operation::Compute {
                proc: p,
                node: NodeId::new(1)
            }
        );
        let d = ComputePhaseStep::Delete(NodeId::new(1));
        assert!(!d.is_compute());
        assert_eq!(
            d.to_operation(p),
            Operation::Delete {
                proc: p,
                node: NodeId::new(1)
            }
        );
    }
}
