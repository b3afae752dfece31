//! Standalone Pearce–Kelly incremental topological order.
//!
//! [`PkOrder`] is the order-maintenance half of the incremental cycle check
//! that [`crate::DagBuilder`] has always performed, extracted so that it can
//! also drive **delta application on an already-built [`crate::CompDag`]**
//! (see [`crate::delta`]). Every node carries an order index; an edge
//! `u -> v` with `ord(u) < ord(v)` is accepted in O(1), and only an
//! order-violating edge triggers a DFS bounded to the *affected region*
//! `(ord(v), ord(u))` that locally repairs the order (Pearce & Kelly,
//! ACM JEA 2006). A cycle — `u` reachable from `v` — is detected before any
//! state is modified, so a rejected edge leaves the order untouched.
//!
//! The structure is graph-agnostic: [`PkOrder::check_edge`] walks any
//! [`DagLike`] adjacency, which is what lets the builder (nested `Vec`
//! adjacency) and the CSR delta path share one implementation. Order values
//! are *not* kept contiguous across node removals; they only need to stay
//! pairwise distinct, which [`PkOrder::push_node`] guarantees by handing out
//! values from a high-water mark that is never reused.

use crate::error::DagError;
use crate::topo::TopologicalOrder;
use crate::view::DagLike;
use crate::Result;
use crate::{graph::NodeId, scratch::VisitMarks};

/// Incremental topological order over the nodes of a DAG.
#[derive(Debug, Clone, Default)]
pub struct PkOrder {
    /// Order index of every node (pairwise distinct, not necessarily dense).
    ord: Vec<u64>,
    /// High-water mark for fresh order values; never reused after removals.
    next_value: u64,
    /// Version-stamped visited marks for the affected-region searches.
    forward: VisitMarks,
    backward: VisitMarks,
    /// Scratch: DFS stack and the two affected sets, reused across checks.
    stack: Vec<NodeId>,
    delta_f: Vec<NodeId>,
    delta_b: Vec<NodeId>,
    pool: Vec<u64>,
}

impl PkOrder {
    /// An empty order (no nodes yet).
    pub fn new() -> Self {
        PkOrder::default()
    }

    /// Builds the order for an existing acyclic graph from a full Kahn pass:
    /// `ord(v)` is initialised to the node's topological position.
    pub fn of_dag<D: DagLike + ?Sized>(dag: &D) -> Self {
        let topo = TopologicalOrder::of(dag);
        let n = dag.num_nodes();
        PkOrder {
            ord: (0..n)
                .map(|i| topo.position(NodeId::new(i)) as u64)
                .collect(),
            next_value: n as u64,
            ..Default::default()
        }
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.ord.len()
    }

    /// Returns true if no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.ord.is_empty()
    }

    /// The raw order value of a node. Values are pairwise distinct and respect
    /// every accepted edge (`value(u) < value(v)` for each edge `u -> v`), but
    /// are not necessarily a dense `0..n` permutation after removals.
    #[inline]
    pub fn value(&self, v: NodeId) -> u64 {
        self.ord[v.index()]
    }

    /// The raw order value of every node, indexed by node id. Together with
    /// [`PkOrder::next_value`] this is the complete persistent state of the
    /// order (the remaining fields are version-stamped scratch); feed both back
    /// into [`PkOrder::from_saved`] to restore it.
    pub fn values(&self) -> &[u64] {
        &self.ord
    }

    /// The never-reused high-water mark for fresh order values.
    pub fn next_value(&self) -> u64 {
        self.next_value
    }

    /// Rebuilds an order from saved state ([`PkOrder::values`] +
    /// [`PkOrder::next_value`]). The values must be pairwise distinct and
    /// strictly below `next_value`; a violation — e.g. a bit-flipped
    /// checkpoint — is rejected with [`DagError::InvalidPartition`] instead of
    /// silently producing an order that would misbehave on the next edge check.
    pub fn from_saved(ord: Vec<u64>, next_value: u64) -> Result<Self> {
        if let Some((i, &v)) = ord.iter().enumerate().find(|&(_, &v)| v >= next_value) {
            return Err(DagError::InvalidPartition {
                reason: format!(
                    "order value {v} of node {i} is not below the high-water mark {next_value}"
                ),
            });
        }
        let mut sorted = ord.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(DagError::InvalidPartition {
                reason: format!("duplicate order value {}", w[0]),
            });
        }
        Ok(PkOrder {
            ord,
            next_value,
            ..Default::default()
        })
    }

    /// Returns true if `u` precedes `v` in the maintained order.
    #[inline]
    pub fn is_before(&self, u: NodeId, v: NodeId) -> bool {
        self.ord[u.index()] < self.ord[v.index()]
    }

    /// Registers a fresh node appended at the end of the graph's id range. A
    /// fresh node has no edges, so placing it last keeps the order valid; its
    /// value comes from the never-reused high-water mark, so it cannot collide
    /// with any surviving value.
    pub fn push_node(&mut self) -> NodeId {
        let id = NodeId::try_new(self.ord.len()).expect("PkOrder cannot exceed the u32 id range");
        self.ord.push(self.next_value);
        self.next_value += 1;
        id
    }

    /// Removes node `v` under swap-remove id semantics: the last node takes
    /// over id `v` (matching `Vec::swap_remove` on the graph's node arrays).
    /// The surviving values stay pairwise distinct and keep respecting every
    /// remaining edge, so no repair is needed.
    pub fn swap_remove_node(&mut self, v: NodeId) {
        self.ord.swap_remove(v.index());
    }

    /// Checks the edge `from -> to` against the maintained order, repairing the
    /// order if the edge violates it, and rejecting it with
    /// [`DagError::CycleDetected`] if it would close a cycle.
    ///
    /// Must be called **before** the edge is inserted into `dag` (the
    /// affected-region DFS walks the graph without the new edge). On `Ok(())`
    /// the order respects the new edge and the caller commits the insertion;
    /// on error the order is untouched. Edge *removals* never invalidate the
    /// order and need no call.
    pub fn check_edge<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        from: NodeId,
        to: NodeId,
    ) -> Result<()> {
        debug_assert_eq!(dag.num_nodes(), self.ord.len());
        if self.ord[from.index()] < self.ord[to.index()] {
            return Ok(());
        }
        let upper = self.ord[from.index()];
        let lower = self.ord[to.index()];

        // Forward DFS from `to`, restricted to the affected region.
        self.forward.begin(self.ord.len());
        self.delta_f.clear();
        self.stack.clear();
        self.stack.push(to);
        self.forward.visit(to.index());
        while let Some(u) = self.stack.pop() {
            if u == from {
                return Err(DagError::CycleDetected {
                    from: from.index(),
                    to: to.index(),
                });
            }
            self.delta_f.push(u);
            for c in dag.children(u) {
                if self.ord[c.index()] <= upper && self.forward.visit(c.index()) {
                    self.stack.push(c);
                }
            }
        }

        // Backward DFS from `from`, restricted to the affected region. The two
        // sets are disjoint: a node in both would witness a cycle, which the
        // forward pass above already excluded.
        self.backward.begin(self.ord.len());
        self.delta_b.clear();
        self.stack.clear();
        self.stack.push(from);
        self.backward.visit(from.index());
        while let Some(u) = self.stack.pop() {
            self.delta_b.push(u);
            for p in dag.parents(u) {
                if self.ord[p.index()] >= lower && self.backward.visit(p.index()) {
                    self.stack.push(p);
                }
            }
        }

        // Reassign: pool the order indices of both sets, sort each set by its
        // current order, and hand the pooled indices out to the backward set
        // first (it must precede), then the forward set.
        {
            let ord = &self.ord;
            self.delta_b.sort_unstable_by_key(|v| ord[v.index()]);
            self.delta_f.sort_unstable_by_key(|v| ord[v.index()]);
            self.pool.clear();
            self.pool
                .extend(self.delta_b.iter().map(|v| ord[v.index()]));
            self.pool
                .extend(self.delta_f.iter().map(|v| ord[v.index()]));
        }
        self.pool.sort_unstable();
        let mut slot = 0usize;
        for i in 0..self.delta_b.len() {
            let v = self.delta_b[i];
            self.ord[v.index()] = self.pool[slot];
            slot += 1;
        }
        for i in 0..self.delta_f.len() {
            let v = self.delta_f[i];
            self.ord[v.index()] = self.pool[slot];
            slot += 1;
        }
        Ok(())
    }

    /// Returns true if the order respects every edge of `dag` (test helper).
    pub fn is_valid_for<D: DagLike + ?Sized>(&self, dag: &D) -> bool {
        if dag.num_nodes() != self.ord.len() {
            return false;
        }
        dag.nodes()
            .all(|u| dag.children(u).all(|c| self.is_before(u, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CompDag, NodeWeights};

    fn diamond() -> CompDag {
        CompDag::from_edges(
            "diamond",
            vec![NodeWeights::unit(); 4],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn of_dag_matches_topological_positions() {
        let d = diamond();
        let pk = PkOrder::of_dag(&d);
        assert_eq!(pk.len(), 4);
        assert!(pk.is_valid_for(&d));
        assert!(pk.is_before(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    fn fast_path_accepts_order_respecting_edges() {
        let d = diamond();
        let mut pk = PkOrder::of_dag(&d);
        // 1 -> 2 or 2 -> 1: exactly one respects the current order, and the
        // other is absorbed by a repair; neither is a cycle.
        pk.check_edge(&d, NodeId::new(1), NodeId::new(2)).unwrap();
        assert!(pk.is_before(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn detects_cycles_without_mutating() {
        let d = diamond();
        let mut pk = PkOrder::of_dag(&d);
        let before: Vec<u64> = d.nodes().map(|v| pk.value(v)).collect();
        let err = pk
            .check_edge(&d, NodeId::new(3), NodeId::new(0))
            .unwrap_err();
        assert!(matches!(err, DagError::CycleDetected { .. }));
        let after: Vec<u64> = d.nodes().map(|v| pk.value(v)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn push_and_swap_remove_keep_values_distinct() {
        let d = diamond();
        let mut pk = PkOrder::of_dag(&d);
        let v = pk.push_node();
        assert_eq!(v, NodeId::new(4));
        assert_eq!(pk.len(), 5);
        // Remove node 1: node 4's value moves into slot 1.
        let moved = pk.value(NodeId::new(4));
        pk.swap_remove_node(NodeId::new(1));
        assert_eq!(pk.len(), 4);
        assert_eq!(pk.value(NodeId::new(1)), moved);
        let mut values: Vec<u64> = (0..pk.len()).map(|i| pk.value(NodeId::new(i))).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 4, "order values must stay pairwise distinct");
    }

    #[test]
    fn empty_order() {
        let pk = PkOrder::new();
        assert!(pk.is_empty());
        assert_eq!(pk.len(), 0);
    }
}
