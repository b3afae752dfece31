//! Acyclic partitions and quotient graphs.
//!
//! The divide-and-conquer scheduler (Section 6.3 of the paper) first splits the DAG
//! into parts such that the *quotient graph* — one node per part, an edge between two
//! parts whenever some edge of the original DAG crosses them — is itself acyclic.
//! [`AcyclicPartition`] stores such an assignment and can validate it, count the cut
//! edges (the objective the acyclic-partitioning ILP minimises), and build the
//! contracted quotient graph ([`AcyclicPartition::quotient_graph`]).

use crate::error::DagError;
use crate::graph::{CompDag, NodeId, NodeWeights};
use crate::Result;
use serde::{Deserialize, Serialize};

/// An assignment of every node of a DAG to one of `k` parts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AcyclicPartition {
    /// `part[v]` = part index of node `v`.
    part: Vec<usize>,
    /// Number of parts `k`.
    num_parts: usize,
}

impl AcyclicPartition {
    /// Creates a partition from an explicit per-node assignment.
    ///
    /// The assignment must cover every node of `dag` and only use part indices in
    /// `0..num_parts`; the induced quotient graph must be acyclic.
    pub fn new(dag: &CompDag, part: Vec<usize>, num_parts: usize) -> Result<Self> {
        if part.len() != dag.num_nodes() {
            return Err(DagError::InvalidPartition {
                reason: format!(
                    "assignment covers {} nodes but the DAG has {}",
                    part.len(),
                    dag.num_nodes()
                ),
            });
        }
        if let Some(&bad) = part.iter().find(|&&p| p >= num_parts) {
            return Err(DagError::InvalidPartition {
                reason: format!("part index {bad} out of range (num_parts = {num_parts})"),
            });
        }
        let candidate = AcyclicPartition { part, num_parts };
        if !candidate.quotient_is_acyclic(dag) {
            return Err(DagError::InvalidPartition {
                reason: "quotient graph contains a cycle".to_string(),
            });
        }
        Ok(candidate)
    }

    /// The trivial partition that puts every node into a single part.
    pub fn trivial(dag: &CompDag) -> Self {
        AcyclicPartition {
            part: vec![0; dag.num_nodes()],
            num_parts: 1,
        }
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Part index of a node.
    pub fn part_of(&self, v: NodeId) -> usize {
        self.part[v.index()]
    }

    /// The raw assignment vector.
    pub fn assignment(&self) -> &[usize] {
        &self.part
    }

    /// The nodes of each part, in node-index order.
    pub fn parts(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.num_parts];
        for (i, &p) in self.part.iter().enumerate() {
            out[p].push(NodeId::new(i));
        }
        out
    }

    /// Size (node count) of each part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for &p in &self.part {
            sizes[p] += 1;
        }
        sizes
    }

    /// Total compute weight of each part — the mass a weight-aware partitioner
    /// balances (node counts can be arbitrarily lopsided in mass when weights
    /// are heterogeneous).
    pub fn part_compute_masses(&self, dag: &CompDag) -> Vec<f64> {
        let mut masses = vec![0.0f64; self.num_parts];
        for (i, &p) in self.part.iter().enumerate() {
            masses[p] += dag.compute_weight(NodeId::new(i));
        }
        masses
    }

    /// Number of edges of `dag` whose endpoints lie in different parts (the cut).
    pub fn cut_edges(&self, dag: &CompDag) -> usize {
        dag.edges()
            .filter(|&(u, v)| self.part_of(u) != self.part_of(v))
            .count()
    }

    /// Checks that the quotient graph is acyclic.
    pub fn quotient_is_acyclic(&self, dag: &CompDag) -> bool {
        // Build the deduplicated quotient adjacency on flat buffers and run
        // Kahn's algorithm.
        let k = self.num_parts;
        let quotient_edges = self.dedup_quotient_edges(dag);
        let mut adj = vec![Vec::new(); k];
        let mut indeg = vec![0usize; k];
        for &(pu, pv) in &quotient_edges {
            adj[pu].push(pv);
            indeg[pv] += 1;
        }
        let mut queue: Vec<usize> = (0..k).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(p) = queue.pop() {
            seen += 1;
            for &t in &adj[p] {
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(t);
                }
            }
        }
        seen == k
    }

    /// The distinct cross-part edges `(pu, pv)` of the quotient, deduplicated
    /// with a version-stamped mark array (one stamp per source part) instead of
    /// a `BTreeSet`: O(|E| + k). The pairs come out grouped by source part in
    /// ascending part order, and per source part in first-encounter order.
    fn dedup_quotient_edges(&self, dag: &CompDag) -> Vec<(usize, usize)> {
        let k = self.num_parts;
        // Bucket the cross edges by source part (counting sort keeps this flat).
        let mut counts = vec![0usize; k + 1];
        for (u, v) in dag.edges() {
            let (pu, pv) = (self.part_of(u), self.part_of(v));
            if pu != pv {
                counts[pu + 1] += 1;
            }
        }
        for i in 0..k {
            counts[i + 1] += counts[i];
        }
        let total = counts[k];
        let mut targets = vec![0usize; total];
        let mut cursor = counts[..k].to_vec();
        for (u, v) in dag.edges() {
            let (pu, pv) = (self.part_of(u), self.part_of(v));
            if pu != pv {
                targets[cursor[pu]] = pv;
                cursor[pu] += 1;
            }
        }
        // Per source part, keep the first occurrence of each target part.
        let mut mark = vec![usize::MAX; k];
        let mut out = Vec::new();
        for pu in 0..k {
            for &pv in &targets[counts[pu]..counts[pu + 1]] {
                if mark[pv] != pu {
                    mark[pv] = pu;
                    out.push((pu, pv));
                }
            }
        }
        out
    }

    /// Builds the contracted quotient graph: one node `p` (labelled `part{p}`)
    /// per part, whose compute and memory weights are the sums over the part's
    /// nodes (as the paper's divide-and-conquer planner does), and one edge per
    /// distinct pair of parts an edge of `dag` crosses.
    pub fn quotient_graph(&self, dag: &CompDag) -> Result<CompDag> {
        let k = self.num_parts;
        let mut compute = vec![0.0f64; k];
        let mut memory = vec![0.0f64; k];
        for v in dag.nodes() {
            compute[self.part_of(v)] += dag.compute_weight(v);
            memory[self.part_of(v)] += dag.memory_weight(v);
        }
        let weights: Vec<NodeWeights> = (0..k)
            .map(|p| NodeWeights::new(compute[p], memory[p]))
            .collect();
        let labels: Vec<String> = (0..k).map(|p| format!("part{p}")).collect();
        let quotient_edges: Vec<(NodeId, NodeId)> = self
            .dedup_quotient_edges(dag)
            .into_iter()
            .map(|(pu, pv)| (NodeId::new(pu), NodeId::new(pv)))
            .collect();
        let q = CompDag::from_parts(
            format!("{}::quotient", dag.name()),
            weights,
            labels,
            quotient_edges,
        )?;
        if !q.is_acyclic() {
            return Err(DagError::InvalidPartition {
                reason: "quotient graph contains a cycle".to_string(),
            });
        }
        Ok(q)
    }

    /// Refines the partition by re-splitting part `target` according to `assignment`
    /// (0/1 per node of that part), producing a partition with one extra part.
    /// The resulting quotient must still be acyclic.
    pub fn split_part(
        &self,
        dag: &CompDag,
        target: usize,
        side_of: impl Fn(NodeId) -> usize,
    ) -> Result<Self> {
        let new_part_index = self.num_parts;
        let mut part = self.part.clone();
        for v in dag.nodes() {
            if self.part_of(v) == target && side_of(v) == 1 {
                part[v.index()] = new_part_index;
            }
        }
        AcyclicPartition::new(dag, part, self.num_parts + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeWeights;

    fn path4() -> CompDag {
        CompDag::from_edges(
            "path",
            vec![NodeWeights::unit(); 4],
            &[(0, 1), (1, 2), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn valid_prefix_partition() {
        let d = path4();
        let p = AcyclicPartition::new(&d, vec![0, 0, 1, 1], 2).unwrap();
        assert_eq!(p.num_parts(), 2);
        assert_eq!(p.cut_edges(&d), 1);
        assert_eq!(p.part_sizes(), vec![2, 2]);
        let q = p.quotient_graph(&d).unwrap();
        assert_eq!(q.num_nodes(), 2);
        assert_eq!(q.num_edges(), 1);
        assert_eq!(q.compute_weight(NodeId::new(0)), 2.0);
    }

    #[test]
    fn rejects_cyclic_quotient() {
        let d = path4();
        // Alternating parts 0,1,0,1 creates quotient edges 0->1 and 1->0: cyclic.
        let res = AcyclicPartition::new(&d, vec![0, 1, 0, 1], 2);
        assert!(matches!(res, Err(DagError::InvalidPartition { .. })));
    }

    #[test]
    fn rejects_malformed_assignments() {
        let d = path4();
        assert!(AcyclicPartition::new(&d, vec![0, 0, 0], 1).is_err());
        assert!(AcyclicPartition::new(&d, vec![0, 0, 0, 5], 2).is_err());
    }

    #[test]
    fn trivial_partition_and_subdags() {
        let d = path4();
        let p = AcyclicPartition::trivial(&d);
        assert_eq!(p.num_parts(), 1);
        assert_eq!(p.cut_edges(&d), 0);
        let parts = p.parts();
        assert_eq!(parts.len(), 1);
        let sub = crate::subgraph::SubDag::induced(&d, &parts[0], "part0").unwrap();
        assert_eq!(sub.num_nodes(), 4);
    }

    #[test]
    fn split_part_refinement() {
        let d = path4();
        let p = AcyclicPartition::trivial(&d);
        // Split nodes {2,3} off into a new part — still acyclic.
        let refined = p
            .split_part(&d, 0, |v| if v.index() >= 2 { 1 } else { 0 })
            .unwrap();
        assert_eq!(refined.num_parts(), 2);
        assert_eq!(refined.part_of(NodeId::new(0)), 0);
        assert_eq!(refined.part_of(NodeId::new(3)), 1);
        // Splitting off the middle node 1 only would make the quotient cyclic
        // (0 -> new -> 0 via 0->1, 1->2): rejected.
        let bad = p.split_part(&d, 0, |v| if v.index() == 1 { 1 } else { 0 });
        assert!(bad.is_err());
    }

    #[test]
    fn parts_listing_matches_assignment() {
        let d = path4();
        let p = AcyclicPartition::new(&d, vec![0, 0, 1, 1], 2).unwrap();
        let parts = p.parts();
        assert_eq!(parts[0], vec![NodeId::new(0), NodeId::new(1)]);
        assert_eq!(parts[1], vec![NodeId::new(2), NodeId::new(3)]);
    }
}
