//! Zero-copy sub-DAG views and the [`DagLike`] accessor trait.
//!
//! [`crate::SubDag::induced`] materialises the induced subgraph of a node subset
//! as a fresh [`CompDag`] — a full copy of weights, labels and CSR adjacency per
//! part. For the sharded holistic search, which builds one sub-problem per shard
//! per instance, that copy is pure overhead: the parent graph is immutable, so a
//! **borrowed view** can answer every structural query by walking the parent's
//! CSR slices and remapping ids through a local↔global offset table on the fly.
//!
//! * [`DagLike`] is the small accessor trait the schedulers' generic hot paths
//!   ([`crate::TopologicalOrder`], `mbsp_model`'s configurations and costs,
//!   `mbsp_cache::ConversionArena`, `mbsp_ilp`'s evaluation engine) are written
//!   against. [`CompDag`] implements it with its contiguous CSR slices;
//!   monomorphisation keeps those paths exactly as fast as before.
//! * [`SubDagView`] implements it for an induced subgraph **without building a
//!   `CompDag`**: the view stores only the id mappings, per-node degrees and an
//!   input mask — `O(|selection| + |V_parent|)` integers, no adjacency, no
//!   weights, no labels. Neighbour queries iterate the parent's CSR slice and
//!   remap each id, preserving the parent's edge-insertion order, so a view is
//!   operation-identical to [`crate::SubDag::induced`] on the same selection
//!   (asserted by the seeded property tests in `tests/view_differential.rs`).
//!
//! [`SubDagView::with_inputs`] additionally supports the divide-and-conquer /
//! sharding boundary convention: the selection is a *core* node set plus every
//! external parent of a core node, where the external parents are flagged as
//! **inputs** — pure sources of the view (edges *into* an input are dropped)
//! whose values are already in slow memory when the part is scheduled.

use crate::graph::{CompDag, NodeId};

/// Read-only structural access to a weighted DAG.
///
/// The trait deliberately mirrors the accessor subset of [`CompDag`] that the
/// scheduling and pebbling hot paths use, with neighbour queries returning
/// iterators so borrowed views can remap ids lazily. [`CompDag`]'s
/// implementation yields its CSR slices directly; generic code monomorphises to
/// the same machine code as the former slice-based signatures.
pub trait DagLike {
    /// Number of nodes `|V|`.
    fn num_nodes(&self) -> usize;

    /// Children (direct successors) of `v`, in edge-insertion order.
    fn children(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_;

    /// Parents (direct predecessors) of `v`, in edge-insertion order.
    fn parents(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_;

    /// In-degree of `v`.
    fn in_degree(&self, v: NodeId) -> usize;

    /// Out-degree of `v`.
    fn out_degree(&self, v: NodeId) -> usize;

    /// Compute weight `ω(v)`.
    fn compute_weight(&self, v: NodeId) -> f64;

    /// Memory weight `μ(v)`.
    fn memory_weight(&self, v: NodeId) -> f64;

    /// Human-readable name of the DAG (used for diagnostics).
    fn name(&self) -> &str;

    /// True if `v` has no incoming edges (an input of the computation).
    fn is_source(&self, v: NodeId) -> bool {
        self.in_degree(v) == 0
    }

    /// True if `v` has no outgoing edges (an output of the computation).
    fn is_sink(&self, v: NodeId) -> bool {
        self.out_degree(v) == 0
    }

    /// All node ids in index order.
    fn nodes(&self) -> NodeIds {
        NodeIds {
            range: 0..self.num_nodes(),
        }
    }

    /// The source nodes in index order.
    fn source_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&v| self.is_source(v))
    }

    /// The sink nodes in index order.
    fn sink_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&v| self.is_sink(v))
    }

    /// Memory needed to compute `v` with all its parents resident:
    /// `μ(v) + Σ_{u ∈ Par(v)} μ(u)`.
    fn compute_footprint(&self, v: NodeId) -> f64 {
        self.memory_weight(v) + self.parents(v).map(|u| self.memory_weight(u)).sum::<f64>()
    }

    /// The minimal fast-memory capacity `r₀` that allows any valid MBSP schedule.
    fn minimal_cache_size(&self) -> f64 {
        self.nodes()
            .map(|v| self.compute_footprint(v))
            .fold(0.0, f64::max)
    }
}

/// Iterator over the node ids `0..n` of a [`DagLike`] graph.
#[derive(Debug, Clone)]
pub struct NodeIds {
    range: std::ops::Range<usize>,
}

impl Iterator for NodeIds {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.range.next().map(NodeId::new)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for NodeIds {}

impl DagLike for CompDag {
    #[inline]
    fn num_nodes(&self) -> usize {
        CompDag::num_nodes(self)
    }

    #[inline]
    fn children(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        CompDag::children(self, v).iter().copied()
    }

    #[inline]
    fn parents(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        CompDag::parents(self, v).iter().copied()
    }

    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        CompDag::in_degree(self, v)
    }

    #[inline]
    fn out_degree(&self, v: NodeId) -> usize {
        CompDag::out_degree(self, v)
    }

    #[inline]
    fn compute_weight(&self, v: NodeId) -> f64 {
        CompDag::compute_weight(self, v)
    }

    #[inline]
    fn memory_weight(&self, v: NodeId) -> f64 {
        CompDag::memory_weight(self, v)
    }

    fn name(&self) -> &str {
        CompDag::name(self)
    }
}

/// Sentinel in the global→local map for nodes outside the selection.
const EXCLUDED: u32 = u32::MAX;

/// A borrowed, zero-copy view of an induced sub-DAG of a [`CompDag`].
///
/// Local node ids are assigned in **parent index order** (exactly like
/// [`crate::SubDag::induced`]), and neighbour queries walk the parent's CSR
/// slices, filtering excluded endpoints and remapping ids through the offset
/// table — no adjacency, weight or label data is copied. Degrees are
/// precomputed at construction so `in_degree`/`out_degree`/`is_source`/
/// `is_sink` stay O(1).
///
/// The edge rule is: an edge `(u, v)` of the parent is visible in the view iff
/// both endpoints are selected **and `v` is not an input node**. With
/// [`SubDagView::induced`] no node is an input, so the rule reduces to plain
/// induced-subgraph semantics; with [`SubDagView::with_inputs`] the flagged
/// boundary parents keep their edges *into the core* but are themselves pure
/// sources of the view.
#[derive(Debug, Clone)]
pub struct SubDagView<'a> {
    parent: &'a CompDag,
    name: String,
    /// `to_global[local]` = node id in the parent graph.
    to_global: Vec<NodeId>,
    /// `to_local[global]` = local id, or [`EXCLUDED`].
    to_local: Vec<u32>,
    /// Per local node: is it a boundary input (pure source of the view)?
    input: Vec<bool>,
    /// Precomputed view degrees.
    in_deg: Vec<u32>,
    out_deg: Vec<u32>,
    num_inputs: usize,
}

impl<'a> SubDagView<'a> {
    /// Builds the view induced by `selection` (global node ids, in any order);
    /// operation-identical to [`crate::SubDag::induced`] on the same selection.
    pub fn induced(parent: &'a CompDag, selection: &[NodeId], name: impl Into<String>) -> Self {
        let mut included = vec![false; parent.num_nodes()];
        for &v in selection {
            included[v.index()] = true;
        }
        SubDagView::build(parent, &included, &[], name)
    }

    /// Builds the boundary view of a *core* node set: the selection is
    /// `core ∪ parents(core)`, with the external parents flagged as inputs.
    /// Inputs are pure sources of the view (their own incoming edges are
    /// dropped), matching the divide-and-conquer convention that their values
    /// are already in slow memory when the part is scheduled.
    pub fn with_inputs(parent: &'a CompDag, core: &[NodeId], name: impl Into<String>) -> Self {
        let mut included = vec![false; parent.num_nodes()];
        for &v in core {
            included[v.index()] = true;
        }
        let mut inputs = Vec::new();
        for &v in core {
            for &u in parent.parents(v) {
                if !included[u.index()] {
                    included[u.index()] = true;
                    inputs.push(u);
                }
            }
        }
        SubDagView::build(parent, &included, &inputs, name)
    }

    fn build(
        parent: &'a CompDag,
        included: &[bool],
        input_globals: &[NodeId],
        name: impl Into<String>,
    ) -> Self {
        let mut to_global = Vec::new();
        let mut to_local = vec![EXCLUDED; parent.num_nodes()];
        for v in CompDag::nodes(parent).filter(|v| included[v.index()]) {
            to_local[v.index()] =
                u32::try_from(to_global.len()).expect("view cannot exceed the u32 id range");
            to_global.push(v);
        }
        let n = to_global.len();
        let mut input = vec![false; n];
        for &g in input_globals {
            input[to_local[g.index()] as usize] = true;
        }
        let mut in_deg = vec![0u32; n];
        let mut out_deg = vec![0u32; n];
        for (local, &g) in to_global.iter().enumerate() {
            if !input[local] {
                in_deg[local] = parent
                    .parents(g)
                    .iter()
                    .filter(|u| included[u.index()])
                    .count() as u32;
            }
            out_deg[local] = parent
                .children(g)
                .iter()
                .filter(|c| {
                    let l = to_local[c.index()];
                    l != EXCLUDED && !input[l as usize]
                })
                .count() as u32;
        }
        SubDagView {
            parent,
            name: name.into(),
            to_global,
            to_local,
            input,
            in_deg,
            out_deg,
            num_inputs: input_globals.len(),
        }
    }

    /// The parent graph the view borrows.
    pub fn parent(&self) -> &'a CompDag {
        self.parent
    }

    /// Number of boundary input nodes flagged by [`SubDagView::with_inputs`].
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Maps a local node id back to the parent graph.
    #[inline]
    pub fn to_global(&self, local: NodeId) -> NodeId {
        self.to_global[local.index()]
    }

    /// Maps a parent-graph node id into the view, if selected.
    #[inline]
    pub fn to_local(&self, global: NodeId) -> Option<NodeId> {
        let l = self.to_local[global.index()];
        (l != EXCLUDED).then_some(NodeId(l))
    }

    /// Is the local node a boundary input (pure source whose value pre-exists
    /// in slow memory)?
    #[inline]
    pub fn is_input(&self, local: NodeId) -> bool {
        self.input[local.index()]
    }

    /// Local ids of the core (non-input) nodes, in local id order.
    pub fn core_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.to_global.len())
            .filter(|&i| !self.input[i])
            .map(NodeId::new)
    }

    /// Local nodes with at least one parent outside the selection (the
    /// "external inputs" of [`crate::SubDag`]).
    pub fn external_inputs(&self) -> Vec<NodeId> {
        self.to_global
            .iter()
            .enumerate()
            .filter(|&(_, &g)| {
                self.parent
                    .parents(g)
                    .iter()
                    .any(|u| self.to_local[u.index()] == EXCLUDED)
            })
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Local nodes with at least one child outside the selection (the
    /// "external outputs" of [`crate::SubDag`]).
    pub fn external_outputs(&self) -> Vec<NodeId> {
        self.to_global
            .iter()
            .enumerate()
            .filter(|&(_, &g)| {
                self.parent
                    .children(g)
                    .iter()
                    .any(|c| self.to_local[c.index()] == EXCLUDED)
            })
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }
}

impl DagLike for SubDagView<'_> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.to_global.len()
    }

    #[inline]
    fn children(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let g = self.to_global[v.index()];
        self.parent.children(g).iter().filter_map(move |&c| {
            let l = self.to_local[c.index()];
            (l != EXCLUDED && !self.input[l as usize]).then_some(NodeId(l))
        })
    }

    #[inline]
    fn parents(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let slice: &[NodeId] = if self.input[v.index()] {
            &[]
        } else {
            self.parent.parents(self.to_global[v.index()])
        };
        slice.iter().filter_map(move |&u| {
            let l = self.to_local[u.index()];
            (l != EXCLUDED).then_some(NodeId(l))
        })
    }

    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        self.in_deg[v.index()] as usize
    }

    #[inline]
    fn out_degree(&self, v: NodeId) -> usize {
        self.out_deg[v.index()] as usize
    }

    #[inline]
    fn compute_weight(&self, v: NodeId) -> f64 {
        self.parent.compute_weight(self.to_global[v.index()])
    }

    #[inline]
    fn memory_weight(&self, v: NodeId) -> f64 {
        self.parent.memory_weight(self.to_global[v.index()])
    }

    fn name(&self) -> &str {
        &self.name
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
    fn induced_view_matches_basic_structure() {
        let d = path5();
        let sel: Vec<NodeId> = [1usize, 2, 3].into_iter().map(NodeId::new).collect();
        let view = SubDagView::induced(&d, &sel, "mid");
        assert_eq!(view.num_nodes(), 3);
        // Local ids follow parent index order: 1 -> 0, 2 -> 1, 3 -> 2.
        assert_eq!(view.to_global(NodeId::new(0)), NodeId::new(1));
        assert_eq!(view.to_local(NodeId::new(3)), Some(NodeId::new(2)));
        assert_eq!(view.to_local(NodeId::new(0)), None);
        assert!(view.is_source(NodeId::new(0)));
        assert!(view.is_sink(NodeId::new(2)));
        assert!(view.children(NodeId::new(0)).eq([NodeId::new(1)]));
        assert!(view.parents(NodeId::new(1)).eq([NodeId::new(0)]));
        assert_eq!(view.external_inputs(), vec![NodeId::new(0)]);
        assert_eq!(view.external_outputs(), vec![NodeId::new(2)]);
    }

    #[test]
    fn with_inputs_makes_boundary_parents_pure_sources() {
        // Diamond 0 -> {1, 2} -> 3 with an extra edge 1 -> 2; core = {2, 3}.
        let d = CompDag::from_edges(
            "d",
            vec![NodeWeights::unit(); 4],
            &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)],
        )
        .unwrap();
        let core = [NodeId::new(2), NodeId::new(3)];
        let view = SubDagView::with_inputs(&d, &core, "part");
        // Selection is {0, 1, 2, 3}: both external parents join as inputs.
        assert_eq!(view.num_nodes(), 4);
        assert_eq!(view.num_inputs(), 2);
        assert!(view.is_input(view.to_local(NodeId::new(0)).unwrap()));
        assert!(view.is_input(view.to_local(NodeId::new(1)).unwrap()));
        // Inputs are pure sources: the edges 0 -> 1 and 1 -> 2's source keep no
        // incoming edges, even though 0 -> 1 connects two selected nodes.
        let l1 = view.to_local(NodeId::new(1)).unwrap();
        assert!(view.is_source(l1));
        assert_eq!(view.parents(l1).count(), 0);
        // Input 0's child list drops input 1 but keeps core child 2.
        let l0 = view.to_local(NodeId::new(0)).unwrap();
        let l2 = view.to_local(NodeId::new(2)).unwrap();
        assert!(view.children(l0).eq([l2]));
        // Core node 2 sees both of its parents (one input, one... both inputs).
        assert_eq!(view.in_degree(l2), 2);
        assert!(view
            .core_nodes()
            .eq([l2, view.to_local(NodeId::new(3)).unwrap()]));
    }

    #[test]
    fn weights_come_from_the_parent() {
        let mut d = path5();
        d.set_weights(NodeId::new(2), NodeWeights::new(7.0, 3.0))
            .unwrap();
        let view = SubDagView::induced(&d, &[NodeId::new(2)], "one");
        let local = view.to_local(NodeId::new(2)).unwrap();
        assert_eq!(DagLike::compute_weight(&view, local), 7.0);
        assert_eq!(DagLike::memory_weight(&view, local), 3.0);
        assert_eq!(view.minimal_cache_size(), 3.0);
    }

    #[test]
    fn full_selection_is_the_identity_view() {
        let d = path5();
        let all: Vec<NodeId> = d.nodes().collect();
        let view = SubDagView::induced(&d, &all, "all");
        assert_eq!(DagLike::num_nodes(&view), d.num_nodes());
        for v in CompDag::nodes(&d) {
            assert_eq!(view.to_global(v), v);
            assert!(view
                .children(v)
                .eq(CompDag::children(&d, v).iter().copied()));
            assert!(view.parents(v).eq(CompDag::parents(&d, v).iter().copied()));
        }
        assert!(view.external_inputs().is_empty());
        assert!(view.external_outputs().is_empty());
    }
}
