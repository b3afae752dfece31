//! Whole-DAG summary statistics. No scheduler reads them: the instance
//! generators' tests check the shapes they build through them.

use crate::graph::CompDag;
use crate::topo::{critical_path_length, TopologicalOrder};
use serde::{Deserialize, Serialize};

/// Summary statistics of a computational DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagStatistics {
    /// Instance name.
    pub name: String,
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of edges.
    pub num_edges: usize,
    /// Number of source nodes (inputs).
    pub num_sources: usize,
    /// Number of sink nodes (outputs).
    pub num_sinks: usize,
    /// Total compute work `Σ ω(v)`.
    pub total_work: f64,
    /// Compute work of non-source nodes.
    pub computable_work: f64,
    /// Total memory footprint `Σ μ(v)`.
    pub total_memory: f64,
    /// Critical path length (in compute weight).
    pub critical_path: f64,
    /// Number of topological levels.
    pub num_levels: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Average degree (`|E| / |V|`).
    pub avg_degree: f64,
    /// Minimal feasible cache size `r₀`.
    pub minimal_cache_size: f64,
    /// Average parallelism: total work / critical path.
    pub avg_parallelism: f64,
}

impl DagStatistics {
    /// Computes the statistics of a DAG.
    pub fn of(dag: &CompDag) -> Self {
        let topo = TopologicalOrder::of(dag);
        let critical_path = critical_path_length(dag);
        let total_work = dag.total_work();
        let n = dag.num_nodes();
        DagStatistics {
            name: dag.name().to_string(),
            num_nodes: n,
            num_edges: dag.num_edges(),
            num_sources: dag.source_nodes().count(),
            num_sinks: dag.sink_nodes().count(),
            total_work,
            computable_work: dag.computable_work(),
            total_memory: dag.total_memory(),
            critical_path,
            num_levels: topo.num_levels(),
            max_in_degree: dag.nodes().map(|v| dag.in_degree(v)).max().unwrap_or(0),
            max_out_degree: dag.nodes().map(|v| dag.out_degree(v)).max().unwrap_or(0),
            avg_degree: if n == 0 {
                0.0
            } else {
                dag.num_edges() as f64 / n as f64
            },
            minimal_cache_size: dag.minimal_cache_size(),
            avg_parallelism: if critical_path > 0.0 {
                total_work / critical_path
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeWeights;

    fn diamond() -> CompDag {
        CompDag::from_edges(
            "diamond",
            vec![NodeWeights::unit(); 4],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn statistics_of_diamond() {
        let s = DagStatistics::of(&diamond());
        assert_eq!(s.num_nodes, 4);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.num_sources, 1);
        assert_eq!(s.num_sinks, 1);
        assert_eq!(s.total_work, 4.0);
        assert_eq!(s.computable_work, 3.0);
        assert_eq!(s.critical_path, 3.0);
        assert_eq!(s.num_levels, 3);
        assert_eq!(s.max_in_degree, 2);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.minimal_cache_size, 3.0);
        assert!((s.avg_parallelism - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn statistics_of_empty_dag() {
        let s = DagStatistics::of(&CompDag::new("e"));
        assert_eq!(s.num_nodes, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.avg_parallelism, 0.0);
    }
}
