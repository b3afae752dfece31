//! In-place DAG mutation: [`DagDelta`] and [`CompDag::apply_delta`].
//!
//! A [`CompDag`] is CSR-packed for the scheduling hot paths, which makes it
//! cheap to *read* and — naively — expensive to *mutate*: any structural change
//! would force a full `from_edges` rebuild. This module patches the CSR arrays
//! in place instead, so a stream of small mutations (the streaming-workload
//! setting of the ROADMAP) costs `O(degree + n)` per delta rather than
//! `O(V + E)`:
//!
//! * **Edge insertion** splices the target into both adjacency arrays and runs
//!   the same Pearce–Kelly check the builder uses ([`crate::pk::PkOrder`]):
//!   order-respecting edges are accepted in O(1), order-violating edges trigger
//!   the bounded affected-region repair, and cycle-closing edges are rejected
//!   *before* any state is modified.
//! * **Edge removal** never invalidates the order and needs no check.
//! * **Node removal** uses swap-remove id semantics (the last node takes over
//!   the freed id) and requires the node to be isolated — streams remove the
//!   incident edges first. The [`DeltaEffect`] reports the remapped id so
//!   consumers tracking per-node state (processor assignments, dirty sets) can
//!   follow the move.
//!
//! ## Oracle convention
//!
//! `apply_delta` is pinned down by the same differential-oracle convention as
//! every other fast path in the workspace: the mutation-replay suite
//! (`mbsp_gen`'s `tests/mutation_replay.rs`) applies 100+ seeded
//! [`DagDelta`] streams per benchmark family and asserts that the patched CSR
//! arrays are *identical* — children, parents, degrees, weights, edge list —
//! to a full [`CompDag::from_edges`] rebuild from a naively-maintained edge
//! list, and that the maintained [`PkOrder`] stays a valid topological order.

use crate::error::DagError;
use crate::graph::{validate_weights, CompDag, EdgeId, NodeId, NodeWeights};
use crate::pk::PkOrder;
use crate::Result;
use serde::{Deserialize, Serialize};

/// One atomic mutation of a [`CompDag`].
///
/// Edge weights do not appear because MBSP has none: the cost of communicating
/// an edge `u -> v` is the memory weight `μ(u)` of its source, so "reweight
/// edge" reduces to [`DagDelta::Reweight`] on the source node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DagDelta {
    /// Appends a fresh, isolated node (it receives the next free id).
    AddNode {
        /// Compute and memory weights of the new node.
        weights: NodeWeights,
        /// Optional label; defaults to the `n{id}` convention of
        /// [`CompDag::from_edges`].
        label: Option<String>,
    },
    /// Removes an isolated node. The last node is swap-moved into the freed id
    /// (reported via [`DeltaEffect::remapped`]); incident edges must have been
    /// removed first or the delta is rejected with
    /// [`DagError::NodeNotIsolated`].
    RemoveNode {
        /// The node to remove.
        node: NodeId,
    },
    /// Inserts the edge `from -> to`, rejecting cycles, self-loops and
    /// duplicates exactly like [`crate::DagBuilder::add_edge`].
    AddEdge {
        /// Source of the new edge.
        from: NodeId,
        /// Target of the new edge.
        to: NodeId,
    },
    /// Removes the edge `from -> to`; rejected with [`DagError::EdgeNotFound`]
    /// if it does not exist.
    RemoveEdge {
        /// Source of the edge.
        from: NodeId,
        /// Target of the edge.
        to: NodeId,
    },
    /// Replaces the weights of a node (cannot affect acyclicity).
    Reweight {
        /// The node to reweight.
        node: NodeId,
        /// The new weights.
        weights: NodeWeights,
    },
}

/// What a successfully applied [`DagDelta`] changed, in terms the incremental
/// consumers (dirty-cone repair, per-node side tables) need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaEffect {
    /// The nodes whose incident structure or weights changed — the seeds of
    /// the dirty cone. At most two (the endpoints of an edge delta).
    pub touched: [Option<NodeId>; 2],
    /// The id of the node created by [`DagDelta::AddNode`].
    pub added: Option<NodeId>,
    /// After [`DagDelta::RemoveNode`]: the id now occupied by the former last
    /// node (swap-remove moved it into the freed slot), or `None` if the
    /// removed node *was* the last one. Consumers with per-node side tables
    /// mirror the move with `Vec::swap_remove`.
    pub remapped: Option<NodeId>,
}

impl DeltaEffect {
    fn touching(nodes: [Option<NodeId>; 2]) -> Self {
        DeltaEffect {
            touched: nodes,
            ..Default::default()
        }
    }

    /// Iterator over the touched nodes.
    pub fn touched_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.touched.iter().flatten().copied()
    }
}

impl CompDag {
    /// Applies one [`DagDelta`] in place, patching the CSR arrays and keeping
    /// `order` (the graph's incremental topological order) in sync.
    ///
    /// Validation happens before any mutation: on `Err`, both the graph and
    /// `order` are exactly as before the call, so callers may probe
    /// speculative deltas (the mutation-stream generator relies on this).
    /// `order` must have been built for this graph ([`PkOrder::of_dag`]) and
    /// must accompany it across every delta.
    pub fn apply_delta(&mut self, delta: &DagDelta, order: &mut PkOrder) -> Result<DeltaEffect> {
        debug_assert_eq!(
            order.len(),
            self.num_nodes(),
            "PkOrder out of sync with the graph it orders"
        );
        match delta {
            DagDelta::AddNode { weights, label } => self.delta_add_node(*weights, label, order),
            DagDelta::RemoveNode { node } => self.delta_remove_node(*node, order),
            DagDelta::AddEdge { from, to } => self.delta_add_edge(*from, *to, order),
            DagDelta::RemoveEdge { from, to } => self.delta_remove_edge(*from, *to),
            DagDelta::Reweight { node, weights } => {
                self.set_weights(*node, *weights)?;
                Ok(DeltaEffect::touching([Some(*node), None]))
            }
        }
    }

    /// The largest compute footprint ([`CompDag::compute_footprint`]) that
    /// `delta` raises, and its node, as the footprint will be once the delta
    /// is applied. Only the touched node and its children can gain: an
    /// `AddNode` brings its own weight, an `AddEdge` one more parent of its
    /// target, a `Reweight` that grows a memory weight the node itself and
    /// its children. `None` when no footprint rises, including every delta
    /// [`CompDag::apply_delta`] rejects for another reason. O(degree): the
    /// sums run over the same parents in the same order as
    /// `compute_footprint` after the delta, so the value is bit-identical.
    pub fn footprint_after(&self, delta: &DagDelta) -> Option<(NodeId, f64)> {
        let n = self.num_nodes();
        match *delta {
            DagDelta::AddNode { weights, .. } => {
                validate_weights(n, &weights).ok()?;
                Some((NodeId::new(n), weights.memory))
            }
            DagDelta::AddEdge { from, to } => {
                if from.index() >= n || to.index() >= n || from == to || self.has_edge(from, to) {
                    return None;
                }
                // `apply_delta` appends `from` to the parents of `to`.
                let parents: f64 = (self.parents(to).iter().chain([&from]))
                    .map(|&u| self.memory_weight(u))
                    .sum();
                Some((to, self.memory_weight(to) + parents))
            }
            DagDelta::Reweight { node, weights } => {
                if node.index() >= n || validate_weights(node.index(), &weights).is_err() {
                    return None;
                }
                if weights.memory <= self.memory_weight(node) {
                    return None;
                }
                let weight = |u: NodeId| {
                    if u == node {
                        weights.memory
                    } else {
                        self.memory_weight(u)
                    }
                };
                let footprint = |v: NodeId| {
                    let parents: f64 = self.parents(v).iter().map(|&u| weight(u)).sum();
                    weight(v) + parents
                };
                (std::iter::once(node).chain(self.children(node).iter().copied()))
                    .map(|v| (v, footprint(v)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
            }
            DagDelta::RemoveNode { .. } | DagDelta::RemoveEdge { .. } => None,
        }
    }

    fn delta_add_node(
        &mut self,
        weights: NodeWeights,
        label: &Option<String>,
        order: &mut PkOrder,
    ) -> Result<DeltaEffect> {
        let id = NodeId::try_new(self.num_nodes())
            .expect("CompDag cannot hold more than u32::MAX nodes");
        validate_weights(id.index(), &weights)?;
        self.weights.push(weights);
        self.labels
            .push(label.clone().unwrap_or_else(|| format!("n{}", id.index())));
        let c = *self
            .child_off
            .last()
            .expect("offset arrays are never empty");
        self.child_off.push(c);
        let p = *self
            .parent_off
            .last()
            .expect("offset arrays are never empty");
        self.parent_off.push(p);
        let pk_id = order.push_node();
        debug_assert_eq!(pk_id, id);
        Ok(DeltaEffect {
            touched: [Some(id), None],
            added: Some(id),
            remapped: None,
        })
    }

    fn delta_add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        order: &mut PkOrder,
    ) -> Result<DeltaEffect> {
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
        let _ = EdgeId::try_new(self.edges.len() + 1)
            .expect("CompDag cannot hold more than u32::MAX edges");
        // The order check either rejects a cycle (no state touched) or commits
        // the repaired order; the splices below cannot fail after it.
        order.check_edge(&*self, from, to)?;
        // Append the edge at the end of both endpoint slices: the edge is also
        // pushed at the end of the flat edge list, so a `from_edges` rebuild
        // reproduces exactly this slice order (the oracle invariant).
        let at = self.child_off[from.index() + 1] as usize;
        self.child_adj.insert(at, to);
        for off in &mut self.child_off[from.index() + 1..] {
            *off += 1;
        }
        let at = self.parent_off[to.index() + 1] as usize;
        self.parent_adj.insert(at, from);
        for off in &mut self.parent_off[to.index() + 1..] {
            *off += 1;
        }
        self.edges.push((from, to));
        Ok(DeltaEffect::touching([Some(from), Some(to)]))
    }

    fn delta_remove_edge(&mut self, from: NodeId, to: NodeId) -> Result<DeltaEffect> {
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
        let s = self.child_off[from.index()] as usize;
        let e = self.child_off[from.index() + 1] as usize;
        let rel =
            self.child_adj[s..e]
                .iter()
                .position(|&c| c == to)
                .ok_or(DagError::EdgeNotFound {
                    from: from.index(),
                    to: to.index(),
                })?;
        self.child_adj.remove(s + rel);
        for off in &mut self.child_off[from.index() + 1..] {
            *off -= 1;
        }
        let s = self.parent_off[to.index()] as usize;
        let e = self.parent_off[to.index() + 1] as usize;
        let rel = self.parent_adj[s..e]
            .iter()
            .position(|&p| p == from)
            .expect("CSR adjacency is symmetric");
        self.parent_adj.remove(s + rel);
        for off in &mut self.parent_off[to.index() + 1..] {
            *off -= 1;
        }
        // Edges are unique, so the first match is the only one; `Vec::remove`
        // keeps the list order the rebuild oracle reproduces.
        let pos = self
            .edges
            .iter()
            .position(|&edge| edge == (from, to))
            .expect("an edge present in the CSR arrays is present in the edge list");
        self.edges.remove(pos);
        // Removal cannot invalidate the topological order: no PK update.
        Ok(DeltaEffect::touching([Some(from), Some(to)]))
    }

    fn delta_remove_node(&mut self, v: NodeId, order: &mut PkOrder) -> Result<DeltaEffect> {
        let n = self.num_nodes();
        if v.index() >= n {
            return Err(DagError::InvalidNode {
                index: v.index(),
                len: n,
            });
        }
        let (ind, outd) = (self.in_degree(v), self.out_degree(v));
        if ind + outd != 0 {
            return Err(DagError::NodeNotIsolated {
                node: v.index(),
                in_degree: ind,
                out_degree: outd,
            });
        }
        let last = n - 1;
        if v.index() == last {
            self.weights.pop();
            self.labels.pop();
            self.child_off.pop();
            self.parent_off.pop();
            order.swap_remove_node(v);
            return Ok(DeltaEffect::default());
        }
        let last_id = NodeId::new(last);
        // The last node takes over id `v`. First rename every adjacency and
        // edge-list reference to it; positions are untouched, so slice order —
        // and therefore the rebuild oracle's fill order — is preserved.
        let (cs, ce) = (
            self.child_off[last] as usize,
            self.child_off[last + 1] as usize,
        );
        for i in cs..ce {
            let c = self.child_adj[i].index();
            let (ps, pe) = (self.parent_off[c] as usize, self.parent_off[c + 1] as usize);
            for j in ps..pe {
                if self.parent_adj[j] == last_id {
                    self.parent_adj[j] = v;
                }
            }
        }
        let (ps, pe) = (
            self.parent_off[last] as usize,
            self.parent_off[last + 1] as usize,
        );
        for i in ps..pe {
            let p = self.parent_adj[i].index();
            let (qs, qe) = (self.child_off[p] as usize, self.child_off[p + 1] as usize);
            for j in qs..qe {
                if self.child_adj[j] == last_id {
                    self.child_adj[j] = v;
                }
            }
        }
        for edge in &mut self.edges {
            if edge.0 == last_id {
                edge.0 = v;
            }
            if edge.1 == last_id {
                edge.1 = v;
            }
        }
        // Move the last node's slices — physically the suffix of each flat
        // array — into `v`'s (empty) slot and shift the offsets in between.
        let d_out = ce - cs;
        debug_assert_eq!(ce, self.child_adj.len());
        let at = self.child_off[v.index()] as usize;
        self.child_adj[at..].rotate_right(d_out);
        for off in &mut self.child_off[v.index() + 1..=last] {
            *off += d_out as u32;
        }
        self.child_off.pop();
        let d_in = pe - ps;
        debug_assert_eq!(pe, self.parent_adj.len());
        let at = self.parent_off[v.index()] as usize;
        self.parent_adj[at..].rotate_right(d_in);
        for off in &mut self.parent_off[v.index() + 1..=last] {
            *off += d_in as u32;
        }
        self.parent_off.pop();
        self.weights.swap_remove(v.index());
        self.labels.swap_remove(v.index());
        order.swap_remove_node(v);
        Ok(DeltaEffect {
            touched: [Some(v), None],
            added: None,
            remapped: Some(v),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond_with_order() -> (CompDag, PkOrder) {
        let dag = CompDag::from_edges(
            "diamond",
            vec![NodeWeights::unit(); 4],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        let order = PkOrder::of_dag(&dag);
        (dag, order)
    }

    /// Asserts `dag` is CSR-identical to a `from_edges` rebuild of its own
    /// edge list (the mutation-replay oracle, in miniature).
    fn assert_matches_rebuild(dag: &CompDag) {
        let weights: Vec<NodeWeights> = dag.nodes().map(|v| dag.weights(v)).collect();
        let edges: Vec<(usize, usize)> = dag.edges().map(|(u, v)| (u.index(), v.index())).collect();
        let rebuilt = CompDag::from_edges(dag.name(), weights, &edges).expect("dag stays acyclic");
        for v in dag.nodes() {
            assert_eq!(dag.children(v), rebuilt.children(v), "children of {v}");
            assert_eq!(dag.parents(v), rebuilt.parents(v), "parents of {v}");
            assert_eq!(dag.weights(v), rebuilt.weights(v), "weights of {v}");
        }
        assert_eq!(dag.num_edges(), rebuilt.num_edges());
    }

    #[test]
    fn add_edge_splices_and_matches_rebuild() {
        let (mut dag, mut order) = diamond_with_order();
        let eff = dag
            .apply_delta(
                &DagDelta::AddEdge {
                    from: NodeId::new(1),
                    to: NodeId::new(2),
                },
                &mut order,
            )
            .unwrap();
        assert!(dag.has_edge(NodeId::new(1), NodeId::new(2)));
        assert_eq!(eff.touched, [Some(NodeId::new(1)), Some(NodeId::new(2))]);
        assert!(order.is_valid_for(&dag));
        assert_matches_rebuild(&dag);
    }

    #[test]
    fn add_edge_rejects_cycles_without_mutating() {
        let (mut dag, mut order) = diamond_with_order();
        let before = dag.clone();
        let err = dag
            .apply_delta(
                &DagDelta::AddEdge {
                    from: NodeId::new(3),
                    to: NodeId::new(0),
                },
                &mut order,
            )
            .unwrap_err();
        assert!(matches!(err, DagError::CycleDetected { .. }));
        assert_eq!(dag, before);
        assert!(order.is_valid_for(&dag));
    }

    #[test]
    fn add_edge_rejects_duplicates_self_loops_and_bad_ids() {
        let (mut dag, mut order) = diamond_with_order();
        let dup = DagDelta::AddEdge {
            from: NodeId::new(0),
            to: NodeId::new(1),
        };
        assert!(matches!(
            dag.apply_delta(&dup, &mut order),
            Err(DagError::DuplicateEdge { .. })
        ));
        let loopy = DagDelta::AddEdge {
            from: NodeId::new(2),
            to: NodeId::new(2),
        };
        assert!(matches!(
            dag.apply_delta(&loopy, &mut order),
            Err(DagError::SelfLoop { .. })
        ));
        let oob = DagDelta::AddEdge {
            from: NodeId::new(0),
            to: NodeId::new(9),
        };
        assert!(matches!(
            dag.apply_delta(&oob, &mut order),
            Err(DagError::InvalidNode { .. })
        ));
    }

    #[test]
    fn remove_edge_and_missing_edge_error() {
        let (mut dag, mut order) = diamond_with_order();
        dag.apply_delta(
            &DagDelta::RemoveEdge {
                from: NodeId::new(0),
                to: NodeId::new(1),
            },
            &mut order,
        )
        .unwrap();
        assert!(!dag.has_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(dag.num_edges(), 3);
        assert_matches_rebuild(&dag);
        let again = DagDelta::RemoveEdge {
            from: NodeId::new(0),
            to: NodeId::new(1),
        };
        assert!(matches!(
            dag.apply_delta(&again, &mut order),
            Err(DagError::EdgeNotFound { .. })
        ));
    }

    #[test]
    fn add_node_then_wire_it() {
        let (mut dag, mut order) = diamond_with_order();
        let eff = dag
            .apply_delta(
                &DagDelta::AddNode {
                    weights: NodeWeights::new(2.0, 3.0),
                    label: Some("fresh".into()),
                },
                &mut order,
            )
            .unwrap();
        let v = eff.added.unwrap();
        assert_eq!(v, NodeId::new(4));
        assert_eq!(dag.label(v), "fresh");
        assert_eq!(dag.compute_weight(v), 2.0);
        assert!(dag.is_source(v) && dag.is_sink(v));
        dag.apply_delta(
            &DagDelta::AddEdge {
                from: NodeId::new(3),
                to: v,
            },
            &mut order,
        )
        .unwrap();
        assert!(order.is_valid_for(&dag));
        assert_matches_rebuild(&dag);
    }

    #[test]
    fn remove_node_swaps_the_last_node_in() {
        let (mut dag, mut order) = diamond_with_order();
        // Isolate node 1, then remove it: node 3 must take over id 1.
        for (from, to) in [(0usize, 1usize), (1, 3)] {
            dag.apply_delta(
                &DagDelta::RemoveEdge {
                    from: NodeId::new(from),
                    to: NodeId::new(to),
                },
                &mut order,
            )
            .unwrap();
        }
        let eff = dag
            .apply_delta(
                &DagDelta::RemoveNode {
                    node: NodeId::new(1),
                },
                &mut order,
            )
            .unwrap();
        assert_eq!(eff.remapped, Some(NodeId::new(1)));
        assert_eq!(dag.num_nodes(), 3);
        // Former node 3 (now id 1) still has its parent 2, which has parent 0.
        assert_eq!(dag.parents(NodeId::new(1)), &[NodeId::new(2)]);
        assert_eq!(dag.children(NodeId::new(2)), &[NodeId::new(1)]);
        assert!(order.is_valid_for(&dag));
        assert_matches_rebuild(&dag);
    }

    #[test]
    fn remove_last_node_needs_no_remap() {
        let (mut dag, mut order) = diamond_with_order();
        for (from, to) in [(1usize, 3usize), (2, 3)] {
            dag.apply_delta(
                &DagDelta::RemoveEdge {
                    from: NodeId::new(from),
                    to: NodeId::new(to),
                },
                &mut order,
            )
            .unwrap();
        }
        let eff = dag
            .apply_delta(
                &DagDelta::RemoveNode {
                    node: NodeId::new(3),
                },
                &mut order,
            )
            .unwrap();
        assert_eq!(eff.remapped, None);
        assert_eq!(dag.num_nodes(), 3);
        assert_matches_rebuild(&dag);
    }

    #[test]
    fn remove_node_rejects_non_isolated() {
        let (mut dag, mut order) = diamond_with_order();
        let err = dag
            .apply_delta(
                &DagDelta::RemoveNode {
                    node: NodeId::new(1),
                },
                &mut order,
            )
            .unwrap_err();
        assert!(matches!(err, DagError::NodeNotIsolated { .. }));
        assert_eq!(dag.num_nodes(), 4);
    }

    #[test]
    fn reweight_touches_the_node() {
        let (mut dag, mut order) = diamond_with_order();
        let eff = dag
            .apply_delta(
                &DagDelta::Reweight {
                    node: NodeId::new(2),
                    weights: NodeWeights::new(5.0, 7.0),
                },
                &mut order,
            )
            .unwrap();
        assert_eq!(eff.touched, [Some(NodeId::new(2)), None]);
        assert_eq!(dag.memory_weight(NodeId::new(2)), 7.0);
        let bad = DagDelta::Reweight {
            node: NodeId::new(2),
            weights: NodeWeights::new(-1.0, 1.0),
        };
        assert!(matches!(
            dag.apply_delta(&bad, &mut order),
            Err(DagError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn footprint_after_is_the_largest_footprint_the_delta_leaves() {
        let (dag, order) = diamond_with_order();
        let raising = [
            DagDelta::AddNode {
                weights: NodeWeights::new(1.0, 5.0),
                label: None,
            },
            DagDelta::AddEdge {
                from: NodeId::new(1),
                to: NodeId::new(2),
            },
            // Node 1's own footprint becomes 5, its child 3's becomes 6.
            DagDelta::Reweight {
                node: NodeId::new(1),
                weights: NodeWeights::new(1.0, 4.0),
            },
        ];
        for delta in &raising {
            let (node, footprint) = dag.footprint_after(delta).expect("a footprint rises");
            let (mut after, mut order) = (dag.clone(), order.clone());
            after.apply_delta(delta, &mut order).unwrap();
            assert_eq!(footprint, after.compute_footprint(node), "{delta:?}");
            assert_eq!(footprint, after.minimal_cache_size(), "{delta:?}");
        }
        let quiet = [
            DagDelta::RemoveEdge {
                from: NodeId::new(0),
                to: NodeId::new(1),
            },
            DagDelta::Reweight {
                node: NodeId::new(1),
                weights: NodeWeights::new(9.0, 0.5),
            },
            // Rejected by `apply_delta`: a duplicate, an unknown node and a
            // negative weight.
            DagDelta::AddEdge {
                from: NodeId::new(0),
                to: NodeId::new(1),
            },
            DagDelta::AddEdge {
                from: NodeId::new(9),
                to: NodeId::new(1),
            },
            DagDelta::Reweight {
                node: NodeId::new(2),
                weights: NodeWeights::new(1.0, -1.0),
            },
        ];
        for delta in &quiet {
            assert_eq!(dag.footprint_after(delta), None, "{delta:?}");
        }
    }

    #[test]
    fn delta_serde_roundtrip() {
        let deltas = vec![
            DagDelta::AddNode {
                weights: NodeWeights::new(1.0, 2.0),
                label: None,
            },
            DagDelta::AddEdge {
                from: NodeId::new(0),
                to: NodeId::new(4),
            },
            DagDelta::RemoveEdge {
                from: NodeId::new(0),
                to: NodeId::new(1),
            },
            DagDelta::Reweight {
                node: NodeId::new(2),
                weights: NodeWeights::unit(),
            },
            DagDelta::RemoveNode {
                node: NodeId::new(3),
            },
        ];
        let json = serde_json::to_string(&deltas).unwrap();
        let back: Vec<DagDelta> = serde_json::from_str(&json).unwrap();
        assert_eq!(deltas, back);
    }
}
