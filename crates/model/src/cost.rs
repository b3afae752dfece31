//! Cost functions of MBSP schedules.
//!
//! The paper evaluates a schedule under two cost models (Section 3.3):
//!
//! * **Synchronous** — BSP-like: the cost of a superstep is
//!   `max_p cost(Ψ_comp) + max_p cost(Ψ_save) + max_p cost(Ψ_load) + L`,
//!   and the cost of the schedule is the sum over its supersteps.
//! * **Asynchronous** — makespan-like: every processor executes its own operation
//!   sequence back-to-back; the only cross-processor dependency is that a `LOAD` of
//!   node `v` cannot finish before `Γ(v) + μ(v)·g`, where `Γ(v)` is the finishing
//!   time of the earliest save of `v` (taken over the first superstep that saves
//!   `v`). The schedule cost is the maximum finishing time over all processors.

use crate::arch::Architecture;
use crate::ops::ComputePhaseStep;
use crate::schedule::MbspSchedule;
use mbsp_dag::DagLike;
use serde::{Deserialize, Serialize};

/// Which cost function to use when evaluating a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostModel {
    /// The synchronous (BSP-style, per-superstep maxima plus `L`) cost.
    Synchronous,
    /// The asynchronous (per-processor makespan) cost.
    Asynchronous,
}

impl CostModel {
    /// Evaluates the schedule under this cost model.
    pub fn evaluate<D: DagLike + ?Sized>(
        &self,
        schedule: &MbspSchedule,
        dag: &D,
        arch: &Architecture,
    ) -> f64 {
        match self {
            CostModel::Synchronous => sync_cost(schedule, dag, arch).total,
            CostModel::Asynchronous => async_cost(schedule, dag, arch),
        }
    }
}

impl std::fmt::Display for CostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostModel::Synchronous => write!(f, "sync"),
            CostModel::Asynchronous => write!(f, "async"),
        }
    }
}

/// Breakdown of the synchronous cost of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Total synchronous cost.
    pub total: f64,
    /// Sum over supersteps of the maximal compute-phase cost.
    pub compute: f64,
    /// Sum over supersteps of the maximal save-phase cost.
    pub save: f64,
    /// Sum over supersteps of the maximal load-phase cost.
    pub load: f64,
    /// Total synchronisation cost (`L` times the number of supersteps).
    pub latency: f64,
    /// Number of supersteps.
    pub supersteps: usize,
}

impl CostBreakdown {
    /// Sum of the save and load components (the I/O part of the cost).
    pub fn io(&self) -> f64 {
        self.save + self.load
    }
}

/// Computes the synchronous cost of a schedule, with its breakdown.
///
/// Every superstep is charged `L` (the synchronisation cost), so callers should strip
/// empty supersteps (e.g. via [`MbspSchedule::remove_empty_supersteps`]) first.
pub fn sync_cost<D: DagLike + ?Sized>(
    schedule: &MbspSchedule,
    dag: &D,
    arch: &Architecture,
) -> CostBreakdown {
    let mut compute = 0.0;
    let mut save = 0.0;
    let mut load = 0.0;
    for step in schedule.supersteps() {
        let mut max_comp: f64 = 0.0;
        let mut max_save: f64 = 0.0;
        let mut max_load: f64 = 0.0;
        for phases in step.procs() {
            max_comp = max_comp.max(phases.compute_cost(dag));
            max_save = max_save.max(phases.save_cost(dag, arch.g));
            max_load = max_load.max(phases.load_cost(dag, arch.g));
        }
        compute += max_comp;
        save += max_save;
        load += max_load;
    }
    let supersteps = schedule.num_supersteps();
    let latency = arch.latency * supersteps as f64;
    CostBreakdown {
        total: compute + save + load + latency,
        compute,
        save,
        load,
        latency,
        supersteps,
    }
}

/// Computes the asynchronous cost (makespan) of a schedule.
///
/// Implements the `γ` / `Γ` recurrence of the paper: computes, saves and deletes run
/// back-to-back on their processor; a load of node `v` additionally waits until
/// `Γ(v)`, the finishing time of the earliest save of `v` within the first superstep
/// that saves `v`.
pub fn async_cost<D: DagLike + ?Sized>(
    schedule: &MbspSchedule,
    dag: &D,
    arch: &Architecture,
) -> f64 {
    let p = schedule.processors();
    let n = dag.num_nodes();
    // Finishing time of the last transition of every processor so far.
    let mut gamma = vec![0.0f64; p];
    // Γ(v): time at which node v first becomes available in slow memory. Source
    // nodes are available from the start.
    let mut gets_blue = vec![f64::INFINITY; n];
    for v in dag.source_nodes() {
        gets_blue[v.index()] = 0.0;
    }

    for step in schedule.supersteps() {
        // 1. Compute phase and save phase of every processor: these never wait on
        //    other processors, only extend the processor's own timeline. Collect the
        //    candidate Γ values of nodes saved for the first time in this superstep.
        let mut candidates: Vec<(usize, f64)> = Vec::new();
        for (pi, phases) in step.procs().enumerate() {
            let mut t = gamma[pi];
            for &c in phases.compute {
                if let ComputePhaseStep::Compute(v) = c {
                    t += dag.compute_weight(v);
                }
            }
            for &v in phases.save {
                t += dag.memory_weight(v) * arch.g;
                if gets_blue[v.index()].is_infinite() {
                    candidates.push((v.index(), t));
                }
            }
            gamma[pi] = t;
        }
        // Γ(v) is the minimum finishing time over the saves of v in this (first
        // saving) superstep.
        for (v, t) in candidates {
            if t < gets_blue[v] {
                gets_blue[v] = t;
            }
        }
        // 2. Delete (free) and load phases.
        for (pi, phases) in step.procs().enumerate() {
            let mut t = gamma[pi];
            for &v in phases.load {
                let available = gets_blue[v.index()];
                debug_assert!(
                    available.is_finite(),
                    "async cost evaluated on a schedule that loads {v} before any save"
                );
                let start = t.max(available);
                t = start + dag.memory_weight(v) * arch.g;
            }
            gamma[pi] = t;
        }
    }
    gamma.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ComputePhaseStep;
    use crate::schedule::Superstep;
    use mbsp_dag::graph::NodeWeights;
    use mbsp_dag::{CompDag, NodeId};

    fn path3() -> CompDag {
        CompDag::from_edges("p", vec![NodeWeights::unit(); 3], &[(0, 1), (1, 2)]).unwrap()
    }

    fn simple_schedule() -> MbspSchedule {
        let mut steps = vec![Superstep::empty(1); 2];
        steps[0].procs[0].load.push(NodeId::new(0));
        steps[1].procs[0].compute.extend([
            ComputePhaseStep::Compute(NodeId::new(1)),
            ComputePhaseStep::Compute(NodeId::new(2)),
        ]);
        steps[1].procs[0].save.push(NodeId::new(2));
        MbspSchedule::from_supersteps(1, &steps).unwrap()
    }

    #[test]
    fn sync_cost_breakdown_single_processor() {
        let dag = path3();
        let arch = Architecture::new(1, 3.0, 1.0, 10.0);
        let sched = simple_schedule();
        let cost = sync_cost(&sched, &dag, &arch);
        // Superstep 0: load 1 unit. Superstep 1: compute 2, save 1. L = 10 each.
        assert_eq!(cost.compute, 2.0);
        assert_eq!(cost.load, 1.0);
        assert_eq!(cost.save, 1.0);
        assert_eq!(cost.latency, 20.0);
        assert_eq!(cost.total, 24.0);
        assert_eq!(cost.io(), 2.0);
        assert_eq!(cost.supersteps, 2);
    }

    #[test]
    fn async_cost_single_processor_is_sum_of_ops() {
        let dag = path3();
        let arch = Architecture::new(1, 3.0, 1.0, 10.0);
        let sched = simple_schedule();
        // Load 1 + compute 1 + compute 1 + save 1 = 4 (L plays no role asynchronously).
        assert_eq!(async_cost(&sched, &dag, &arch), 4.0);
    }

    #[test]
    fn async_le_sync_when_latency_zero() {
        let dag = path3();
        let arch = Architecture::new(1, 3.0, 1.0, 0.0);
        let sched = simple_schedule();
        let sync = sync_cost(&sched, &dag, &arch).total;
        let asynchronous = async_cost(&sched, &dag, &arch);
        assert!(asynchronous <= sync + 1e-9);
    }

    #[test]
    fn sync_cost_takes_maxima_across_processors() {
        // Two processors work in parallel in the same superstep: sync cost counts the
        // max, not the sum.
        let dag =
            CompDag::from_edges("two", vec![NodeWeights::unit(); 4], &[(0, 1), (2, 3)]).unwrap();
        let arch = Architecture::new(2, 2.0, 1.0, 0.0);
        let mut steps = vec![Superstep::empty(2); 2];
        steps[0].procs[0].load.push(NodeId::new(0));
        steps[0].procs[1].load.push(NodeId::new(2));
        steps[1].procs[0]
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(1)));
        steps[1].procs[0].save.push(NodeId::new(1));
        steps[1].procs[1]
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(3)));
        steps[1].procs[1].save.push(NodeId::new(3));
        let sched = MbspSchedule::from_supersteps(2, &steps).unwrap();
        sched.validate(&dag, &arch).unwrap();
        let cost = sync_cost(&sched, &dag, &arch);
        assert_eq!(cost.compute, 1.0);
        assert_eq!(cost.load, 1.0);
        assert_eq!(cost.save, 1.0);
        assert_eq!(cost.total, 3.0);
        // Asynchronously both processors finish at time 3 as well.
        assert_eq!(async_cost(&sched, &dag, &arch), 3.0);
    }

    #[test]
    fn async_load_waits_for_producer_save() {
        // p0 computes node 1 slowly and saves it; p1 loads it in the same superstep.
        // p1's load cannot start before p0's save finishes.
        let mut weights = vec![NodeWeights::unit(); 3];
        weights[1] = NodeWeights::new(10.0, 1.0);
        let dag = CompDag::from_edges("w", weights, &[(0, 1), (1, 2)]).unwrap();
        let arch = Architecture::new(2, 3.0, 1.0, 0.0);
        let mut steps = vec![Superstep::empty(2); 3];
        steps[0].procs[0].load.push(NodeId::new(0));
        steps[1].procs[0]
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(1)));
        steps[1].procs[0].save.push(NodeId::new(1));
        steps[1].procs[1].load.push(NodeId::new(1));
        steps[2].procs[1]
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(2)));
        steps[2].procs[1].save.push(NodeId::new(2));
        let sched = MbspSchedule::from_supersteps(2, &steps).unwrap();
        sched.validate(&dag, &arch).unwrap();
        // p0 timeline: load(1) + compute(10) + save(1) = 12.
        // p1 timeline: load of node 1 waits until 12, finishes 13; compute 1 + save 1 = 15.
        assert_eq!(async_cost(&sched, &dag, &arch), 15.0);
        // Synchronous cost: ss0: load 1; ss1: comp 10 + save 1 + load 1; ss2: comp 1 + save 1 => 15.
        assert_eq!(sync_cost(&sched, &dag, &arch).total, 15.0);
    }

    #[test]
    fn cost_model_enum_dispatch() {
        let dag = path3();
        let arch = Architecture::new(1, 3.0, 1.0, 10.0);
        let sched = simple_schedule();
        assert_eq!(CostModel::Synchronous.evaluate(&sched, &dag, &arch), 24.0);
        assert_eq!(CostModel::Asynchronous.evaluate(&sched, &dag, &arch), 4.0);
        assert_eq!(CostModel::Synchronous.to_string(), "sync");
        assert_eq!(CostModel::Asynchronous.to_string(), "async");
    }

    #[test]
    fn empty_schedule_costs_zero() {
        let dag = path3();
        let arch = Architecture::new(2, 3.0, 1.0, 10.0);
        let sched = MbspSchedule::new(2);
        assert_eq!(sync_cost(&sched, &dag, &arch).total, 0.0);
        assert_eq!(async_cost(&sched, &dag, &arch), 0.0);
    }
}
