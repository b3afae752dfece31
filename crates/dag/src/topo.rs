//! Topological orderings and level structure.
//!
//! Schedulers need (a) a topological order of the nodes, (b) the level
//! (longest distance from a source) of each node, and (c) priority orderings such as
//! bottom-levels (critical-path-to-sink lengths) used by list scheduling. This module
//! computes each of them in one `O(|V| + |E|)` sweep on flat per-node arrays;
//! the Kahn queue is the output array itself (no `VecDeque`).

use crate::graph::NodeId;
use crate::view::DagLike;

/// A topological ordering of a [`CompDag`](crate::graph::CompDag) together with derived level information.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologicalOrder {
    /// Nodes in topological order (every node appears after all its parents).
    order: Vec<NodeId>,
    /// `position[v]` = index of `v` within `order`.
    position: Vec<usize>,
    /// `level[v]` = length (in edges) of the longest path from any source to `v`.
    level: Vec<usize>,
}

impl TopologicalOrder {
    /// Computes a topological order by Kahn's algorithm with a FIFO frontier, which
    /// yields a breadth-first-like, level-respecting order.
    ///
    /// Panics if the graph contains a cycle; `CompDag` construction guarantees it
    /// does not. Accepts any [`DagLike`] graph, including the zero-copy
    /// [`crate::SubDagView`].
    pub fn of<D: DagLike + ?Sized>(dag: &D) -> Self {
        let n = dag.num_nodes();
        let mut indeg: Vec<u32> = (0..n)
            .map(|i| dag.in_degree(NodeId::new(i)) as u32)
            .collect();
        let mut level = vec![0usize; n];
        // The output array doubles as the FIFO queue: nodes are appended when
        // their last parent is processed and consumed in append order.
        let mut order = Vec::with_capacity(n);
        order.extend((0..n).map(NodeId::new).filter(|&v| indeg[v.index()] == 0));
        let mut head = 0usize;
        while head < order.len() {
            let u = order[head];
            head += 1;
            let lu = level[u.index()];
            for c in dag.children(u) {
                level[c.index()] = level[c.index()].max(lu + 1);
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    order.push(c);
                }
            }
        }
        assert_eq!(order.len(), n, "CompDag must be acyclic");
        let mut position = vec![0usize; n];
        for (i, &v) in order.iter().enumerate() {
            position[v.index()] = i;
        }
        TopologicalOrder {
            order,
            position,
            level,
        }
    }

    /// The nodes in topological order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Position of node `v` in the order.
    pub fn position(&self, v: NodeId) -> usize {
        self.position[v.index()]
    }

    /// Level of `v`: length of the longest path from any source to `v`.
    pub fn level(&self, v: NodeId) -> usize {
        self.level[v.index()]
    }

    /// The number of levels (`max level + 1`, or 0 for the empty DAG).
    pub fn num_levels(&self) -> usize {
        self.level.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Groups the nodes by level, in increasing level order.
    pub fn levels(&self) -> Vec<Vec<NodeId>> {
        let mut buckets = vec![Vec::new(); self.num_levels()];
        for &v in &self.order {
            buckets[self.level(v)].push(v);
        }
        buckets
    }
}

/// Returns a depth-first topological order starting from the sources, visiting
/// children in index order. This is the order the paper's single-processor DFS
/// baseline uses for the red–blue pebbling experiment. Accepts any [`DagLike`]
/// graph, including the zero-copy [`crate::SubDagView`].
pub fn dfs_topological_order<D: DagLike + ?Sized>(dag: &D) -> Vec<NodeId> {
    let n = dag.num_nodes();
    let mut remaining_parents: Vec<u32> = (0..n)
        .map(|i| dag.in_degree(NodeId::new(i)) as u32)
        .collect();
    let mut emitted = vec![false; n];
    let mut stack: Vec<NodeId> = dag.source_nodes().collect();
    // Reverse so that lower-index sources are popped first.
    stack.reverse();
    let mut ready = Vec::new();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = stack.pop() {
        if emitted[u.index()] {
            continue;
        }
        emitted[u.index()] = true;
        order.push(u);
        // Push children whose parents are all emitted; depth-first: last pushed is
        // explored next, so push in reverse index order to explore low indices first.
        ready.clear();
        for c in dag.children(u) {
            remaining_parents[c.index()] -= 1;
            if remaining_parents[c.index()] == 0 {
                ready.push(c);
            }
        }
        ready.sort_unstable();
        stack.extend(ready.iter().rev());
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Bottom level of every node: the compute weight of the heaviest path from the node
/// to any sink, including the node's own weight. Classic list-scheduling priority.
pub fn bottom_levels<D: DagLike + ?Sized>(dag: &D) -> Vec<f64> {
    let topo = TopologicalOrder::of(dag);
    let mut bl = vec![0.0f64; dag.num_nodes()];
    for &v in topo.order().iter().rev() {
        let best_child = dag.children(v).map(|c| bl[c.index()]).fold(0.0, f64::max);
        bl[v.index()] = dag.compute_weight(v) + best_child;
    }
    bl
}

/// Top level of every node: the compute weight of the heaviest path from any source
/// to the node, excluding the node's own weight (i.e. its earliest possible start in
/// an unbounded-processor schedule without communication).
pub fn top_levels<D: DagLike + ?Sized>(dag: &D) -> Vec<f64> {
    let topo = TopologicalOrder::of(dag);
    let mut tl = vec![0.0f64; dag.num_nodes()];
    for &v in topo.order().iter() {
        for c in dag.children(v) {
            let cand = tl[v.index()] + dag.compute_weight(v);
            if cand > tl[c.index()] {
                tl[c.index()] = cand;
            }
        }
    }
    tl
}

/// The critical-path length of the DAG: the maximum over nodes of
/// `top_level(v) + ω(v)`.
pub fn critical_path_length<D: DagLike + ?Sized>(dag: &D) -> f64 {
    let tl = top_levels(dag);
    dag.nodes()
        .map(|v| tl[v.index()] + dag.compute_weight(v))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
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
    fn topo_order_respects_edges() {
        let d = diamond();
        let topo = TopologicalOrder::of(&d);
        for (u, v) in d.edges() {
            assert!(topo.position(u) < topo.position(v));
        }
        assert_eq!(topo.order().len(), 4);
    }

    #[test]
    fn levels_are_longest_paths() {
        let d = diamond();
        let topo = TopologicalOrder::of(&d);
        assert_eq!(topo.level(NodeId::new(0)), 0);
        assert_eq!(topo.level(NodeId::new(1)), 1);
        assert_eq!(topo.level(NodeId::new(2)), 1);
        assert_eq!(topo.level(NodeId::new(3)), 2);
        assert_eq!(topo.num_levels(), 3);
        let levels = topo.levels();
        assert_eq!(levels[0], vec![NodeId::new(0)]);
        assert_eq!(levels[2], vec![NodeId::new(3)]);
    }

    #[test]
    fn dfs_order_is_topological() {
        let d = diamond();
        let order = dfs_topological_order(&d);
        assert_eq!(order.len(), d.num_nodes());
        let mut pos = vec![0; d.num_nodes()];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        for (u, v) in d.edges() {
            assert!(pos[u.index()] < pos[v.index()]);
        }
    }

    #[test]
    fn dfs_order_goes_deep_first() {
        // Two independent chains from a common source: DFS must finish one chain before the
        // other (unlike Kahn/BFS which interleaves levels).
        let mut b = DagBuilder::new("chains");
        let s = b.add_unit_node().unwrap();
        let a = b.add_unit_nodes(3).unwrap();
        let c = b.add_unit_nodes(3).unwrap();
        b.add_edge(s, a[0]).unwrap();
        b.add_chain(&a).unwrap();
        b.add_edge(s, c[0]).unwrap();
        b.add_chain(&c).unwrap();
        let dag = b.build();
        let order = dfs_topological_order(&dag);
        let mut pos = vec![0; dag.num_nodes()];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        // Chain `a` has lower indices, so it is fully explored before chain `c` starts.
        assert!(pos[a[2].index()] < pos[c[0].index()]);
    }

    #[test]
    fn bottom_and_top_levels() {
        let mut d = diamond();
        d.set_weights(NodeId::new(1), NodeWeights::new(5.0, 1.0))
            .unwrap();
        let bl = bottom_levels(&d);
        let tl = top_levels(&d);
        // bottom level of node 0: 1 + max(5+1, 1+1) = 7
        assert_eq!(bl[0], 7.0);
        assert_eq!(bl[3], 1.0);
        assert_eq!(tl[0], 0.0);
        // top level of node 3: longest of (1+5, 1+1) = 6
        assert_eq!(tl[3], 6.0);
        assert_eq!(critical_path_length(&d), 7.0);
    }

    #[test]
    fn empty_graph_levels() {
        let d = CompDag::new("empty");
        let topo = TopologicalOrder::of(&d);
        assert_eq!(topo.num_levels(), 0);
        assert!(topo.levels().is_empty());
        assert_eq!(critical_path_length(&d), 0.0);
    }
}
