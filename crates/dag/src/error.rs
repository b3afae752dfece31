//! Error type for DAG construction and manipulation.

use std::fmt;

/// Errors raised while building or transforming computational DAGs.
#[derive(Debug, Clone, PartialEq)]
pub enum DagError {
    /// An edge endpoint refers to a node index that does not exist.
    InvalidNode {
        /// The offending node index.
        index: usize,
        /// Number of nodes currently in the graph.
        len: usize,
    },
    /// Adding the edge would create a cycle.
    CycleDetected {
        /// Source of the offending edge.
        from: usize,
        /// Target of the offending edge.
        to: usize,
    },
    /// A duplicate edge was added and the builder was configured to reject duplicates.
    DuplicateEdge {
        /// Source of the duplicated edge.
        from: usize,
        /// Target of the duplicated edge.
        to: usize,
    },
    /// A self-loop `(v, v)` was requested; DAGs cannot contain self-loops.
    SelfLoop {
        /// The node on which the self-loop was requested.
        node: usize,
    },
    /// A node weight was negative or not finite.
    InvalidWeight {
        /// The offending node index.
        node: usize,
        /// Human-readable description of the problem.
        reason: &'static str,
    },
    /// A partition/quotient operation received an assignment of the wrong length or
    /// with out-of-range part indices.
    InvalidPartition {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// An edge removal referenced an edge that does not exist.
    EdgeNotFound {
        /// Source of the missing edge.
        from: usize,
        /// Target of the missing edge.
        to: usize,
    },
    /// A node removal was requested for a node that still has incident edges
    /// (delta streams must remove the incident edges first).
    NodeNotIsolated {
        /// The node whose removal was requested.
        node: usize,
        /// Remaining in-degree of the node.
        in_degree: usize,
        /// Remaining out-degree of the node.
        out_degree: usize,
    },
    /// A delta would raise a node's compute footprint above the cache size,
    /// so that the node could no longer be computed by any schedule.
    FootprintExceedsCache {
        /// The node whose footprint would exceed the cache.
        node: usize,
        /// Its footprint after the delta.
        footprint: f64,
        /// The cache size it would exceed.
        cache_size: f64,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::InvalidNode { index, len } => {
                write!(f, "node index {index} out of range (graph has {len} nodes)")
            }
            DagError::CycleDetected { from, to } => {
                write!(f, "adding edge {from} -> {to} would create a cycle")
            }
            DagError::DuplicateEdge { from, to } => {
                write!(f, "edge {from} -> {to} already exists")
            }
            DagError::SelfLoop { node } => write!(f, "self-loop on node {node} is not allowed"),
            DagError::InvalidWeight { node, reason } => {
                write!(f, "invalid weight on node {node}: {reason}")
            }
            DagError::InvalidPartition { reason } => write!(f, "invalid partition: {reason}"),
            DagError::EdgeNotFound { from, to } => {
                write!(f, "edge {from} -> {to} does not exist")
            }
            DagError::NodeNotIsolated {
                node,
                in_degree,
                out_degree,
            } => {
                write!(
                    f,
                    "node {node} still has incident edges \
                     (in-degree {in_degree}, out-degree {out_degree}); \
                     remove them before removing the node"
                )
            }
            DagError::FootprintExceedsCache {
                node,
                footprint,
                cache_size,
            } => {
                write!(
                    f,
                    "node {node} would need {footprint} of fast memory to be computed, \
                     more than the cache size {cache_size}"
                )
            }
        }
    }
}

impl std::error::Error for DagError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DagError::InvalidNode { index: 7, len: 3 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('3'));

        let e = DagError::CycleDetected { from: 1, to: 0 };
        assert!(e.to_string().contains("cycle"));

        let e = DagError::DuplicateEdge { from: 0, to: 1 };
        assert!(e.to_string().contains("already exists"));

        let e = DagError::SelfLoop { node: 4 };
        assert!(e.to_string().contains("self-loop"));

        let e = DagError::InvalidWeight {
            node: 2,
            reason: "negative",
        };
        assert!(e.to_string().contains("negative"));

        let e = DagError::InvalidPartition {
            reason: "bad".into(),
        };
        assert!(e.to_string().contains("bad"));

        let e = DagError::EdgeNotFound { from: 1, to: 2 };
        assert!(e.to_string().contains("does not exist"));

        let e = DagError::NodeNotIsolated {
            node: 3,
            in_degree: 1,
            out_degree: 2,
        };
        assert!(e.to_string().contains("incident edges"));

        let e = DagError::FootprintExceedsCache {
            node: 5,
            footprint: 12.0,
            cache_size: 9.0,
        };
        assert!(e.to_string().contains("cache size 9"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            DagError::SelfLoop { node: 1 },
            DagError::SelfLoop { node: 1 }
        );
        assert_ne!(
            DagError::SelfLoop { node: 1 },
            DagError::SelfLoop { node: 2 }
        );
    }
}
