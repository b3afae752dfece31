//! Incremental, cycle-checked DAG construction.
//!
//! [`DagBuilder`] keeps the partially-built graph acyclic at all times. The naive
//! approach — a full reachability DFS per `add_edge` — costs `O(V + E)` per edge
//! and made generating the 100k-node benchmark instances quadratic. The builder
//! instead maintains an **incremental topological order** ([`crate::pk::PkOrder`],
//! after Pearce & Kelly, 2006): every node carries an order index, an edge
//! `u -> v` with `ord(u) < ord(v)` is accepted in O(1), and only an
//! order-violating edge triggers a DFS that is bounded to the *affected region*
//! `(ord(v), ord(u))` and locally repairs the order. The duplicate-edge check
//! scans the shorter of `children[from]` and `parents[to]` (an edge sits in
//! both), so a hub node — a reduction root feeding every grid point — costs
//! its neighbours' degrees per edge rather than its own. Since the generators
//! emit edges from lower to higher node ids, building a DAG with them is
//! linear in practice, hubs included. The same order type drives
//! [`crate::delta`]'s in-place edge insertion on an already-built [`CompDag`].
//!
//! Construction-time adjacency uses plain nested `Vec`s (append-friendly); the
//! final [`DagBuilder::build`] compacts everything into the CSR form of
//! [`CompDag`] in one `O(V + E)` pass.

use crate::error::DagError;
use crate::graph::{validate_weights, CompDag, NodeId, NodeWeights};
use crate::pk::PkOrder;
use crate::view::DagLike;
use crate::Result;

/// Builder for [`CompDag`] with incremental cycle detection.
#[derive(Debug, Clone, Default)]
pub struct DagBuilder {
    name: String,
    weights: Vec<NodeWeights>,
    labels: Vec<String>,
    edges: Vec<(NodeId, NodeId)>,
    /// Construction-time forward adjacency (compacted to CSR by `build`).
    children: Vec<Vec<NodeId>>,
    /// Construction-time reverse adjacency.
    parents: Vec<Vec<NodeId>>,
    /// Incremental Pearce–Kelly topological order (shared with the
    /// [`crate::delta`] path, which runs the same check against CSR adjacency).
    pk: PkOrder,
}

/// [`DagLike`] adapter over the builder's nested-`Vec` adjacency, so
/// [`PkOrder::check_edge`] can walk the partially-built graph. Weight and name
/// accessors are never called by the order check and return placeholders.
struct BuilderAdj<'a> {
    children: &'a [Vec<NodeId>],
    parents: &'a [Vec<NodeId>],
}

impl DagLike for BuilderAdj<'_> {
    fn num_nodes(&self) -> usize {
        self.children.len()
    }

    fn children(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children[v.index()].iter().copied()
    }

    fn parents(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.parents[v.index()].iter().copied()
    }

    fn in_degree(&self, v: NodeId) -> usize {
        self.parents[v.index()].len()
    }

    fn out_degree(&self, v: NodeId) -> usize {
        self.children[v.index()].len()
    }

    fn compute_weight(&self, _v: NodeId) -> f64 {
        0.0
    }

    fn memory_weight(&self, _v: NodeId) -> f64 {
        0.0
    }

    fn name(&self) -> &str {
        "builder"
    }
}

impl DagBuilder {
    /// Starts a new builder for a DAG with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        DagBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.weights.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node with explicit compute and memory weights.
    pub fn add_node(&mut self, compute: f64, memory: f64) -> Result<NodeId> {
        let label = format!("n{}", self.num_nodes());
        self.add_labeled_node(compute, memory, label)
    }

    /// Adds a node with explicit weights and a label.
    pub fn add_labeled_node(
        &mut self,
        compute: f64,
        memory: f64,
        label: impl Into<String>,
    ) -> Result<NodeId> {
        // Fails loudly (also in release builds) instead of aliasing node ids
        // once the u32 range is exhausted.
        let id = NodeId::try_new(self.num_nodes())
            .expect("CompDag cannot hold more than u32::MAX nodes");
        let weights = NodeWeights::new(compute, memory);
        validate_weights(id.index(), &weights)?;
        self.weights.push(weights);
        self.labels.push(label.into());
        self.children.push(Vec::new());
        self.parents.push(Vec::new());
        // A fresh node has no edges, so appending it at the end of the current
        // topological order keeps the order valid.
        let pk_id = self.pk.push_node();
        debug_assert_eq!(pk_id, id);
        Ok(id)
    }

    /// Adds a node with unit weights (`ω = μ = 1`).
    pub fn add_unit_node(&mut self) -> Result<NodeId> {
        self.add_node(1.0, 1.0)
    }

    /// Adds `count` unit-weight nodes and returns their ids.
    pub fn add_unit_nodes(&mut self, count: usize) -> Result<Vec<NodeId>> {
        (0..count).map(|_| self.add_unit_node()).collect()
    }

    /// Returns true if the edge `from -> to` has already been added.
    ///
    /// An edge sits in both `children[from]` and `parents[to]`, so scanning
    /// the shorter list is enough: a hub with thousands of children costs
    /// its children's in-degree per edge, not its own out-degree.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        let n = self.num_nodes();
        if from.index() >= n || to.index() >= n {
            return false;
        }
        let (children, parents) = (&self.children[from.index()], &self.parents[to.index()]);
        if children.len() <= parents.len() {
            children.contains(&to)
        } else {
            parents.contains(&from)
        }
    }

    /// Adds an edge `from -> to`, rejecting edges that would create a cycle.
    ///
    /// Order-respecting edges (`ord(from) < ord(to)`, which covers every edge
    /// from a lower to a higher node id unless earlier edges reordered them)
    /// commit in O(1); only order-violating edges trigger the bounded
    /// affected-region search.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        let n = self.num_nodes();
        if from.index() >= n {
            return Err(DagError::InvalidNode {
                index: from.index(),
                len: n,
            });
        }
        if to.index() >= n {
            return Err(DagError::InvalidNode {
                index: to.index(),
                len: n,
            });
        }
        if from == to {
            return Err(DagError::SelfLoop { node: from.index() });
        }
        if self.has_edge(from, to) {
            return Err(DagError::DuplicateEdge {
                from: from.index(),
                to: to.index(),
            });
        }
        // Checks the edge against the incremental order (O(1) when it respects
        // the order); either a cycle is found (state untouched) or the order
        // accommodates the edge and the insertion commits below.
        self.pk.check_edge(
            &BuilderAdj {
                children: &self.children,
                parents: &self.parents,
            },
            from,
            to,
        )?;
        self.children[from.index()].push(to);
        self.parents[to.index()].push(from);
        self.edges.push((from, to));
        Ok(())
    }

    /// Adds an edge if it is not already present; silently ignores duplicates.
    pub fn add_edge_idempotent(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        if self.has_edge(from, to) {
            return Ok(());
        }
        self.add_edge(from, to)
    }

    /// Adds a chain of edges `nodes[0] -> nodes[1] -> ... -> nodes[k-1]`.
    pub fn add_chain(&mut self, nodes: &[NodeId]) -> Result<()> {
        for pair in nodes.windows(2) {
            self.add_edge(pair[0], pair[1])?;
        }
        Ok(())
    }

    /// Adds edges from every node in `froms` to `to`.
    pub fn add_fan_in(&mut self, froms: &[NodeId], to: NodeId) -> Result<()> {
        for &u in froms {
            self.add_edge(u, to)?;
        }
        Ok(())
    }

    /// Overrides the label of an already-added node.
    pub fn set_label(&mut self, v: NodeId, label: impl Into<String>) {
        self.labels[v.index()] = label.into();
    }

    /// Overrides the weights of an already-added node.
    pub fn set_weights(&mut self, v: NodeId, compute: f64, memory: f64) -> Result<()> {
        if v.index() >= self.num_nodes() {
            return Err(DagError::InvalidNode {
                index: v.index(),
                len: self.num_nodes(),
            });
        }
        let weights = NodeWeights::new(compute, memory);
        validate_weights(v.index(), &weights)?;
        self.weights[v.index()] = weights;
        Ok(())
    }

    /// Finishes construction and compacts the graph into CSR form.
    pub fn build(self) -> CompDag {
        let dag = CompDag::from_parts(self.name, self.weights, self.labels, self.edges)
            .expect("the builder maintains every CompDag invariant incrementally");
        debug_assert!(dag.is_acyclic());
        dag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_simple_dag() {
        let mut b = DagBuilder::new("t");
        let a = b.add_node(2.0, 1.0).unwrap();
        let c = b.add_node(3.0, 2.0).unwrap();
        let d = b.add_labeled_node(1.0, 1.0, "sink").unwrap();
        b.add_edge(a, c).unwrap();
        b.add_edge(c, d).unwrap();
        let dag = b.build();
        assert_eq!(dag.num_nodes(), 3);
        assert_eq!(dag.num_edges(), 2);
        assert_eq!(dag.label(d), "sink");
        assert_eq!(dag.compute_weight(c), 3.0);
    }

    #[test]
    fn detects_cycles_incrementally() {
        let mut b = DagBuilder::new("t");
        let n = b.add_unit_nodes(3).unwrap();
        b.add_edge(n[0], n[1]).unwrap();
        b.add_edge(n[1], n[2]).unwrap();
        let err = b.add_edge(n[2], n[0]).unwrap_err();
        assert!(matches!(err, DagError::CycleDetected { .. }));
        // Builder is still usable and acyclic afterwards.
        b.add_edge(n[0], n[2]).unwrap();
        let dag = b.build();
        assert!(dag.is_acyclic());
        assert_eq!(dag.num_edges(), 3);
    }

    #[test]
    fn rejects_self_loops_and_bad_indices() {
        let mut b = DagBuilder::new("t");
        let n = b.add_unit_nodes(2).unwrap();
        assert!(matches!(
            b.add_edge(n[0], n[0]),
            Err(DagError::SelfLoop { .. })
        ));
        assert!(matches!(
            b.add_edge(n[0], NodeId::new(9)),
            Err(DagError::InvalidNode { .. })
        ));
    }

    #[test]
    fn rejects_invalid_weights_at_insertion() {
        let mut b = DagBuilder::new("t");
        assert!(matches!(
            b.add_node(-1.0, 1.0),
            Err(DagError::InvalidWeight { .. })
        ));
        let v = b.add_unit_node().unwrap();
        assert!(matches!(
            b.set_weights(v, 1.0, f64::NAN),
            Err(DagError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn chain_fan_in_fan_out_helpers() {
        let mut b = DagBuilder::new("t");
        let ns = b.add_unit_nodes(5).unwrap();
        b.add_chain(&ns[0..3]).unwrap();
        b.add_fan_in(&[ns[0], ns[1]], ns[3]).unwrap();
        b.add_edge(ns[3], ns[4]).unwrap();
        let dag = b.build();
        assert!(dag.has_edge(ns[0], ns[1]));
        assert!(dag.has_edge(ns[1], ns[2]));
        assert!(dag.has_edge(ns[0], ns[3]));
        assert!(dag.has_edge(ns[1], ns[3]));
        assert!(dag.has_edge(ns[3], ns[4]));
    }

    #[test]
    fn idempotent_edge_insertion() {
        let mut b = DagBuilder::new("t");
        let n = b.add_unit_nodes(2).unwrap();
        b.add_edge_idempotent(n[0], n[1]).unwrap();
        b.add_edge_idempotent(n[0], n[1]).unwrap();
        assert_eq!(b.num_edges(), 1);
    }

    #[test]
    fn duplicates_at_a_hub_are_rejected_from_either_side() {
        // Node 0 feeds 1,200 nodes and node 1,201 reads all of them: the
        // duplicate check scans the shorter adjacency list, so both hub
        // directions must still see every edge.
        let hub = 1200;
        let mut b = DagBuilder::new("hubs");
        let ids = b.add_unit_nodes(hub + 2).unwrap();
        let (source, sink) = (ids[0], ids[hub + 1]);
        for &v in &ids[1..=hub] {
            b.add_edge(source, v).unwrap();
            b.add_edge(v, sink).unwrap();
        }
        for &v in &ids[1..=hub] {
            for (from, to) in [(source, v), (v, sink)] {
                assert!(b.has_edge(from, to));
                assert!(!b.has_edge(to, from));
                assert!(matches!(
                    b.add_edge(from, to),
                    Err(DagError::DuplicateEdge { from: f, to: t })
                        if (f, t) == (from.index(), to.index())
                ));
                // The reverse edge closes a cycle through the hub.
                assert!(matches!(
                    b.add_edge(to, from),
                    Err(DagError::CycleDetected { .. })
                ));
            }
        }
        // Absent edges between hub neighbours are absent both ways, and the
        // hub-to-hub edge is new.
        assert!(!b.has_edge(ids[1], ids[2]));
        assert!(!b.has_edge(source, sink));
        b.add_edge(source, sink).unwrap();
        assert!(b.has_edge(source, sink));
        assert!(matches!(
            b.add_edge(source, sink),
            Err(DagError::DuplicateEdge { .. })
        ));
        assert!(!b.has_edge(source, NodeId::new(hub + 2)));
        let dag = b.build();
        assert_eq!(dag.num_edges(), 2 * hub + 1);
        assert!(dag.is_acyclic());
    }

    #[test]
    fn back_edges_reorder_instead_of_rejecting() {
        // Edges against the node-id order are legal as long as they keep the
        // graph acyclic; the incremental order must absorb them.
        let mut b = DagBuilder::new("t");
        let n = b.add_unit_nodes(4).unwrap();
        b.add_edge(n[3], n[2]).unwrap();
        b.add_edge(n[2], n[1]).unwrap();
        b.add_edge(n[1], n[0]).unwrap();
        let err = b.add_edge(n[0], n[3]).unwrap_err();
        assert!(matches!(err, DagError::CycleDetected { .. }));
        let dag = b.build();
        assert!(dag.is_acyclic());
        assert_eq!(dag.num_edges(), 3);
    }

    #[test]
    fn random_insertion_order_matches_full_recheck() {
        // Pseudo-random edge soup: the incremental Pearce–Kelly check must accept
        // exactly the edges a full acyclicity recheck would accept.
        let n = 40usize;
        let mut b = DagBuilder::new("soup");
        let ids = b.add_unit_nodes(n).unwrap();
        let mut accepted: Vec<(usize, usize)> = Vec::new();
        let mut state = 0x12345678u64;
        for _ in 0..600 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 33) as usize % n;
            let v = (state >> 13) as usize % n;
            if u == v {
                continue;
            }
            let mut trial = accepted.clone();
            trial.push((u, v));
            let would_be_valid =
                CompDag::from_edges("trial", vec![NodeWeights::unit(); n], &trial).is_ok();
            match b.add_edge(ids[u], ids[v]) {
                Ok(()) => {
                    assert!(would_be_valid, "builder accepted an invalid edge {u}->{v}");
                    accepted.push((u, v));
                }
                Err(DagError::DuplicateEdge { .. }) => {
                    assert!(accepted.contains(&(u, v)));
                }
                Err(DagError::CycleDetected { .. }) => {
                    assert!(!would_be_valid, "builder rejected a valid edge {u}->{v}");
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let dag = b.build();
        assert!(dag.is_acyclic());
        assert_eq!(dag.num_edges(), accepted.len());
    }
}
