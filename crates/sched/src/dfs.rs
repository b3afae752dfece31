//! Single-processor depth-first scheduler.
//!
//! The paper's red–blue pebbling experiment (`P = 1`) uses a DFS ordering of the DAG
//! as the first stage of the two-stage baseline, combined with the clairvoyant cache
//! eviction policy. This scheduler assigns every node to processor 0 in a single
//! superstep and provides the depth-first topological order as the ordering hint
//! (which the BSP→MBSP conversion uses as the compute order). The order comes
//! from [`mbsp_dag::topo::dfs_topological_order`]; the original implementation
//! is retained as [`crate::reference::dfs_reference`].

use crate::{BspScheduler, BspSchedulingResult};
use mbsp_dag::topo::dfs_topological_order;
use mbsp_dag::{CompDag, DagLike};
use mbsp_model::{Architecture, BspSchedule, ProcId};

/// Depth-first single-processor scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct DfsScheduler;

impl DfsScheduler {
    /// Creates a new DFS scheduler.
    pub fn new() -> Self {
        DfsScheduler
    }

    /// Generic counterpart of [`BspScheduler::schedule`]: computes the
    /// single-processor DFS schedule on any [`DagLike`] graph, including the
    /// zero-copy [`mbsp_dag::SubDagView`].
    pub fn schedule_dag<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        _arch: &Architecture,
    ) -> BspSchedulingResult {
        let assignment = vec![(ProcId::new(0), 0usize); dag.num_nodes()];
        BspSchedulingResult {
            schedule: BspSchedule::new(1, assignment),
            order: dfs_topological_order(dag),
        }
    }
}

impl BspScheduler for DfsScheduler {
    fn name(&self) -> &'static str {
        "dfs"
    }

    fn schedule(&self, dag: &CompDag, arch: &Architecture) -> BspSchedulingResult {
        self.schedule_dag(dag, arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_order_respects_precedence;
    use mbsp_gen::tiny_dataset;

    #[test]
    fn dfs_schedule_is_valid_and_sequential() {
        let arch = Architecture::single_processor(100.0, 1.0);
        for inst in tiny_dataset(1) {
            let result = DfsScheduler::new().schedule(&inst.dag, &arch);
            result.schedule.validate(&inst.dag).unwrap();
            assert_eq!(result.schedule.num_supersteps(), 1);
            assert_eq!(result.order.len(), inst.dag.num_nodes());
            // The order hint is a topological order.
            assert_order_respects_precedence(&inst.dag, &result.order);
        }
    }
}
