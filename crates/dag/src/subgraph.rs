//! Induced sub-DAG extraction.
//!
//! The divide-and-conquer scheduler partitions the input DAG into parts, schedules
//! each part separately, and concatenates the sub-schedules. [`SubDag`] materialises
//! the induced subgraph of a node subset as a fresh [`CompDag`] and retains the
//! mapping between local and global node ids, together with the *boundary*
//! information the sub-scheduler needs: which local nodes already have their value
//! available (parents outside the part) and which local nodes must end up in slow
//! memory because they have children in a later part.

use crate::graph::{CompDag, NodeId, NodeWeights};
use crate::Result;

/// An induced subgraph of a [`CompDag`] with id mappings back to the parent graph.
#[derive(Debug, Clone)]
pub struct SubDag {
    /// The induced subgraph as a standalone DAG.
    dag: CompDag,
    /// `global[local]` = node id in the parent graph.
    to_global: Vec<NodeId>,
    /// `local[global]` = node id in the subgraph (None if the node is not included).
    to_local: Vec<Option<NodeId>>,
    /// Local ids of nodes that have at least one parent outside the subset. Their
    /// values must be provided as inputs (they are "virtual sources" of the part).
    external_inputs: Vec<NodeId>,
    /// Local ids of nodes that have at least one child outside the subset. Their
    /// values must be saved to slow memory by the end of the sub-schedule.
    external_outputs: Vec<NodeId>,
}

impl SubDag {
    /// Builds the sub-DAG induced by `selection` (global node ids) of `parent`.
    ///
    /// Edges with exactly one endpoint in the selection are dropped from the
    /// subgraph but recorded via [`SubDag::external_inputs`] /
    /// [`SubDag::external_outputs`].
    pub fn induced(
        parent: &CompDag,
        selection: &[NodeId],
        name: impl Into<String>,
    ) -> Result<Self> {
        let mut included = vec![false; parent.num_nodes()];
        for &v in selection {
            included[v.index()] = true;
        }
        // Collect the parts first, then build the CSR graph in one pass. Nodes are
        // inserted in parent index order so that local ids are stable and
        // deterministic regardless of selection order.
        let mut weights = Vec::with_capacity(selection.len());
        let mut labels = Vec::with_capacity(selection.len());
        let mut to_global = Vec::with_capacity(selection.len());
        let mut to_local = vec![None; parent.num_nodes()];
        for v in parent.nodes().filter(|v| included[v.index()]) {
            let local = NodeId::new(to_global.len());
            weights.push(NodeWeights::new(
                parent.compute_weight(v),
                parent.memory_weight(v),
            ));
            labels.push(parent.label(v).to_string());
            to_global.push(v);
            to_local[v.index()] = Some(local);
        }
        let mut local_edges = Vec::new();
        for (u, v) in parent.edges() {
            if included[u.index()] && included[v.index()] {
                local_edges.push((to_local[u.index()].unwrap(), to_local[v.index()].unwrap()));
            }
        }
        let dag = CompDag::from_parts(name, weights, labels, local_edges)?;
        let mut external_inputs = Vec::new();
        let mut external_outputs = Vec::new();
        for (local_idx, &g) in to_global.iter().enumerate() {
            let local = NodeId::new(local_idx);
            if parent.parents(g).iter().any(|p| !included[p.index()]) {
                external_inputs.push(local);
            }
            if parent.children(g).iter().any(|c| !included[c.index()]) {
                external_outputs.push(local);
            }
        }
        Ok(SubDag {
            dag,
            to_global,
            to_local,
            external_inputs,
            external_outputs,
        })
    }

    /// The induced subgraph.
    pub fn dag(&self) -> &CompDag {
        &self.dag
    }

    /// Number of nodes in the subgraph.
    pub fn num_nodes(&self) -> usize {
        self.dag.num_nodes()
    }

    /// Maps a local node id back to the parent graph.
    pub fn to_global(&self, local: NodeId) -> NodeId {
        self.to_global[local.index()]
    }

    /// Maps a parent-graph node id into the subgraph, if included.
    pub fn to_local(&self, global: NodeId) -> Option<NodeId> {
        self.to_local[global.index()]
    }

    /// Local nodes whose parents are (partly) outside the part; their values must be
    /// available (e.g. in slow memory) before the part is scheduled.
    pub fn external_inputs(&self) -> &[NodeId] {
        &self.external_inputs
    }

    /// Local nodes with children outside the part; their values must be saved to slow
    /// memory by the end of the part's schedule.
    pub fn external_outputs(&self) -> &[NodeId] {
        &self.external_outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeWeights;

    fn path5() -> CompDag {
        CompDag::from_edges(
            "path",
            vec![NodeWeights::unit(); 5],
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
        )
        .unwrap()
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let d = path5();
        let sel: Vec<NodeId> = [1usize, 2, 3].into_iter().map(NodeId::new).collect();
        let sub = SubDag::induced(&d, &sel, "mid").unwrap();
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.dag().num_edges(), 2);
        // Node 1 has parent 0 outside, node 3 has child 4 outside.
        assert_eq!(sub.external_inputs().len(), 1);
        assert_eq!(sub.external_outputs().len(), 1);
        assert_eq!(sub.to_global(sub.external_inputs()[0]), NodeId::new(1));
        assert_eq!(sub.to_global(sub.external_outputs()[0]), NodeId::new(3));
    }

    #[test]
    fn id_mappings_are_inverse() {
        let d = path5();
        let sel: Vec<NodeId> = [0usize, 2, 4].into_iter().map(NodeId::new).collect();
        let sub = SubDag::induced(&d, &sel, "sparse").unwrap();
        for local in sub.dag().nodes() {
            let g = sub.to_global(local);
            assert_eq!(sub.to_local(g), Some(local));
        }
        assert_eq!(sub.to_local(NodeId::new(1)), None);
        // No edges survive: all original edges have an excluded endpoint.
        assert_eq!(sub.dag().num_edges(), 0);
    }

    #[test]
    fn weights_and_labels_are_copied() {
        let mut d = path5();
        d.set_weights(NodeId::new(2), NodeWeights::new(7.0, 3.0))
            .unwrap();
        d.set_label(NodeId::new(2), "heavy");
        let sub = SubDag::induced(&d, &[NodeId::new(2)], "one").unwrap();
        let local = sub.to_local(NodeId::new(2)).unwrap();
        assert_eq!(sub.dag().compute_weight(local), 7.0);
        assert_eq!(sub.dag().memory_weight(local), 3.0);
        assert_eq!(sub.dag().label(local), "heavy");
    }

    #[test]
    fn full_selection_is_isomorphic() {
        let d = path5();
        let all: Vec<NodeId> = d.nodes().collect();
        let sub = SubDag::induced(&d, &all, "all").unwrap();
        assert_eq!(sub.dag().num_nodes(), d.num_nodes());
        assert_eq!(sub.dag().num_edges(), d.num_edges());
        assert!(sub.external_inputs().is_empty());
        assert!(sub.external_outputs().is_empty());
    }
}
