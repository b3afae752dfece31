//! MBSP schedules: supersteps, per-processor phases, validation and statistics.
//!
//! A schedule is a sequence of supersteps. Within a superstep, every processor `p`
//! executes four sub-phases in order (Section 3.2 of the paper):
//!
//! 1. a **compute phase** `Ψ_comp` of compute and delete steps,
//! 2. a **save phase** `Ψ_save` of save steps,
//! 3. a **delete phase** `Ψ_del` of delete steps,
//! 4. a **load phase** `Ψ_load` of load steps.
//!
//! The shared slow memory `B` is only modified during save phases and only queried
//! during load phases, so loads of a superstep observe every save of the same
//! superstep (on any processor). [`MbspSchedule::validate`] simulates the schedule
//! under exactly these semantics, enforcing the transition-rule preconditions, the
//! per-processor memory bound, the initial configuration (only sources in slow
//! memory) and the terminal condition (all sinks in slow memory).

use crate::arch::{Architecture, ProcId};
use crate::ops::{ComputePhaseStep, Operation};
use crate::state::Configuration;
use mbsp_dag::{DagLike, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors reported by schedule validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A load was issued for a node that has no blue pebble (not in slow memory).
    LoadWithoutBlue {
        /// Processor issuing the load.
        proc: ProcId,
        /// The node being loaded.
        node: NodeId,
    },
    /// A save was issued for a node that the processor does not have cached.
    SaveWithoutRed {
        /// Processor issuing the save.
        proc: ProcId,
        /// The node being saved.
        node: NodeId,
    },
    /// A delete was issued for a node that the processor does not have cached.
    DeleteWithoutRed {
        /// Processor issuing the delete.
        proc: ProcId,
        /// The node being deleted.
        node: NodeId,
    },
    /// A compute was issued for a source node (sources are loaded, never computed).
    ComputeSource {
        /// Processor issuing the compute.
        proc: ProcId,
        /// The offending source node.
        node: NodeId,
    },
    /// A compute was issued while one of the node's parents is not cached.
    MissingParent {
        /// Processor issuing the compute.
        proc: ProcId,
        /// The node being computed.
        node: NodeId,
        /// The parent that is missing from the cache.
        parent: NodeId,
    },
    /// An operation would push a processor's cache usage above the memory bound `r`.
    MemoryBoundExceeded {
        /// The processor exceeding its bound.
        proc: ProcId,
        /// The node whose placement caused the overflow.
        node: NodeId,
        /// The usage that would result.
        used: f64,
        /// The configured bound `r`.
        bound: f64,
    },
    /// At the end of the schedule some sink node has no blue pebble.
    MissingSink {
        /// The sink that never reached slow memory.
        node: NodeId,
    },
    /// At the end of the schedule a required output (boundary condition of a
    /// sub-schedule) has no blue pebble.
    MissingRequiredOutput {
        /// The required node that never reached slow memory.
        node: NodeId,
    },
    /// A superstep does not contain exactly one [`ProcPhases`] entry per processor.
    ProcessorCountMismatch {
        /// Index of the offending superstep.
        superstep: usize,
        /// Number of per-processor entries found.
        found: usize,
        /// Number of processors in the architecture.
        expected: usize,
    },
    /// An operation references a node outside the DAG.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the DAG.
        num_nodes: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::LoadWithoutBlue { proc, node } => {
                write!(f, "{proc} loads {node} which is not in slow memory")
            }
            ScheduleError::SaveWithoutRed { proc, node } => {
                write!(f, "{proc} saves {node} which it does not have in cache")
            }
            ScheduleError::DeleteWithoutRed { proc, node } => {
                write!(f, "{proc} deletes {node} which it does not have in cache")
            }
            ScheduleError::ComputeSource { proc, node } => {
                write!(f, "{proc} computes source node {node}")
            }
            ScheduleError::MissingParent { proc, node, parent } => {
                write!(
                    f,
                    "{proc} computes {node} but parent {parent} is not in its cache"
                )
            }
            ScheduleError::MemoryBoundExceeded {
                proc,
                node,
                used,
                bound,
            } => write!(
                f,
                "{proc} exceeds the memory bound when placing {node}: {used} > {bound}"
            ),
            ScheduleError::MissingSink { node } => {
                write!(
                    f,
                    "sink {node} is not in slow memory at the end of the schedule"
                )
            }
            ScheduleError::MissingRequiredOutput { node } => {
                write!(
                    f,
                    "required output {node} is not in slow memory at the end of the schedule"
                )
            }
            ScheduleError::ProcessorCountMismatch {
                superstep,
                found,
                expected,
            } => write!(
                f,
                "superstep {superstep} has {found} processor entries, expected {expected}"
            ),
            ScheduleError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "{node} is out of range for a DAG with {num_nodes} nodes")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The four sub-phases executed by a single processor within one superstep.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcPhases {
    /// Compute phase: compute and delete steps, in execution order.
    pub compute: Vec<ComputePhaseStep>,
    /// Save phase: nodes written to slow memory.
    pub save: Vec<NodeId>,
    /// Delete phase: nodes evicted after the save phase.
    pub delete: Vec<NodeId>,
    /// Load phase: nodes read from slow memory.
    pub load: Vec<NodeId>,
}

impl ProcPhases {
    /// An empty phase tuple (the processor is idle in this superstep).
    pub fn empty() -> Self {
        ProcPhases::default()
    }

    /// True if the processor performs no operation in this superstep.
    pub fn is_empty(&self) -> bool {
        self.compute.is_empty()
            && self.save.is_empty()
            && self.delete.is_empty()
            && self.load.is_empty()
    }

    /// Total compute cost of the compute phase: `Σ ω(v)` over its compute steps.
    pub fn compute_cost<D: DagLike + ?Sized>(&self, dag: &D) -> f64 {
        self.compute
            .iter()
            .filter_map(|s| match s {
                ComputePhaseStep::Compute(v) => Some(dag.compute_weight(*v)),
                ComputePhaseStep::Delete(_) => None,
            })
            .sum()
    }

    /// Total cost of the save phase: `g · Σ μ(v)`.
    pub fn save_cost<D: DagLike + ?Sized>(&self, dag: &D, g: f64) -> f64 {
        g * self.save.iter().map(|&v| dag.memory_weight(v)).sum::<f64>()
    }

    /// Total cost of the load phase: `g · Σ μ(v)`.
    pub fn load_cost<D: DagLike + ?Sized>(&self, dag: &D, g: f64) -> f64 {
        g * self.load.iter().map(|&v| dag.memory_weight(v)).sum::<f64>()
    }

    /// Number of compute steps (not counting deletes).
    pub fn num_computes(&self) -> usize {
        self.compute.iter().filter(|s| s.is_compute()).count()
    }
}

/// One superstep: the phases of every processor (index = processor id).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Superstep {
    /// Per-processor phases; length must equal the number of processors.
    pub procs: Vec<ProcPhases>,
}

impl Superstep {
    /// An empty superstep for `processors` processors.
    pub fn empty(processors: usize) -> Self {
        Superstep {
            procs: vec![ProcPhases::empty(); processors],
        }
    }

    /// The phases of processor `p`.
    pub fn proc(&self, p: ProcId) -> &ProcPhases {
        &self.procs[p.index()]
    }

    /// Mutable access to the phases of processor `p`.
    pub fn proc_mut(&mut self, p: ProcId) -> &mut ProcPhases {
        &mut self.procs[p.index()]
    }

    /// True if no processor does anything in this superstep.
    pub fn is_empty(&self) -> bool {
        self.procs.iter().all(|p| p.is_empty())
    }
}

/// A full MBSP schedule: a sequence of supersteps over a fixed number of processors.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MbspSchedule {
    processors: usize,
    supersteps: Vec<Superstep>,
}

/// Optional boundary conditions used when validating sub-schedules produced by the
/// divide-and-conquer scheduler: some nodes may start with red/blue pebbles already
/// placed, and additional (non-sink) nodes may be required to end up in slow memory.
#[derive(Debug, Clone, Default)]
pub struct BoundaryCondition {
    /// Nodes that carry a blue pebble before the schedule starts (besides sources).
    pub initial_blue: Vec<NodeId>,
    /// `(p, v)` pairs: node `v` carries a red pebble of processor `p` at the start.
    pub initial_red: Vec<(ProcId, NodeId)>,
    /// Nodes (besides sinks) that must carry a blue pebble at the end.
    pub required_outputs: Vec<NodeId>,
    /// If false, the sinks of the DAG are *not* required to end in slow memory
    /// (used for parts whose sinks are internal to a later part).
    pub require_sinks: bool,
}

impl BoundaryCondition {
    /// The standard whole-problem boundary: nothing pre-placed, all sinks required.
    pub fn standard() -> Self {
        BoundaryCondition {
            initial_blue: Vec::new(),
            initial_red: Vec::new(),
            required_outputs: Vec::new(),
            require_sinks: true,
        }
    }
}

impl MbspSchedule {
    /// Creates an empty schedule for `processors` processors.
    pub fn new(processors: usize) -> Self {
        assert!(processors >= 1);
        MbspSchedule {
            processors,
            supersteps: Vec::new(),
        }
    }

    /// Number of processors the schedule targets.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// The supersteps of the schedule.
    pub fn supersteps(&self) -> &[Superstep] {
        &self.supersteps
    }

    /// Mutable access to the supersteps.
    pub fn supersteps_mut(&mut self) -> &mut Vec<Superstep> {
        &mut self.supersteps
    }

    /// Number of supersteps.
    pub fn num_supersteps(&self) -> usize {
        self.supersteps.len()
    }

    /// Appends a superstep (its `procs` length must equal the processor count).
    pub fn push_superstep(&mut self, superstep: Superstep) {
        assert_eq!(superstep.procs.len(), self.processors);
        self.supersteps.push(superstep);
    }

    /// Appends an empty superstep and returns a mutable reference to it.
    pub fn push_empty_superstep(&mut self) -> &mut Superstep {
        self.supersteps.push(Superstep::empty(self.processors));
        self.supersteps.last_mut().unwrap()
    }

    /// Removes supersteps in which no processor performs any operation.
    pub fn remove_empty_supersteps(&mut self) {
        self.supersteps.retain(|s| !s.is_empty());
    }

    /// Iterates over every operation of the schedule in model order: superstep by
    /// superstep; within a superstep the compute phases of all processors, then the
    /// save phases, the delete phases and finally the load phases. Yields
    /// `(superstep index, operation)`.
    pub fn operations(&self) -> Vec<(usize, Operation)> {
        let mut out = Vec::new();
        for (s, step) in self.supersteps.iter().enumerate() {
            for (pi, phases) in step.procs.iter().enumerate() {
                let p = ProcId::new(pi);
                for &c in &phases.compute {
                    out.push((s, c.to_operation(p)));
                }
            }
            for (pi, phases) in step.procs.iter().enumerate() {
                let p = ProcId::new(pi);
                for &v in &phases.save {
                    out.push((s, Operation::Save { proc: p, node: v }));
                }
            }
            for (pi, phases) in step.procs.iter().enumerate() {
                let p = ProcId::new(pi);
                for &v in &phases.delete {
                    out.push((s, Operation::Delete { proc: p, node: v }));
                }
            }
            for (pi, phases) in step.procs.iter().enumerate() {
                let p = ProcId::new(pi);
                for &v in &phases.load {
                    out.push((s, Operation::Load { proc: p, node: v }));
                }
            }
        }
        out
    }

    /// Validates the schedule against the DAG and architecture with the standard
    /// boundary conditions (empty caches, sources in slow memory, all sinks required
    /// to be in slow memory at the end).
    pub fn validate<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        arch: &Architecture,
    ) -> Result<(), ScheduleError> {
        self.validate_with_boundary(dag, arch, &BoundaryCondition::standard())
    }

    /// Validates the schedule with custom boundary conditions (used by the
    /// divide-and-conquer scheduler for sub-problems).
    pub fn validate_with_boundary<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        arch: &Architecture,
        boundary: &BoundaryCondition,
    ) -> Result<(), ScheduleError> {
        let n = dag.num_nodes();
        let check_node = |v: NodeId| -> Result<(), ScheduleError> {
            if v.index() >= n {
                Err(ScheduleError::NodeOutOfRange {
                    node: v,
                    num_nodes: n,
                })
            } else {
                Ok(())
            }
        };

        let mut cfg = Configuration::initial(dag, arch);
        for &v in &boundary.initial_blue {
            check_node(v)?;
            cfg.place_blue_unchecked(v);
        }
        for &(p, v) in &boundary.initial_red {
            check_node(v)?;
            cfg.place_red_unchecked(dag, p, v);
        }
        if !cfg.within_memory_bound(arch) {
            // The boundary itself violates the memory bound; attribute it to the
            // first red node of the first overloaded processor.
            for p in arch.procs() {
                if cfg.memory_used(p) > arch.cache_size {
                    let node = cfg.cached_nodes(p).next().unwrap_or(NodeId::new(0));
                    return Err(ScheduleError::MemoryBoundExceeded {
                        proc: p,
                        node,
                        used: cfg.memory_used(p),
                        bound: arch.cache_size,
                    });
                }
            }
        }

        for (s, step) in self.supersteps.iter().enumerate() {
            if step.procs.len() != arch.processors {
                return Err(ScheduleError::ProcessorCountMismatch {
                    superstep: s,
                    found: step.procs.len(),
                    expected: arch.processors,
                });
            }
            // 1. Compute phases (computes and deletes) of every processor.
            for (pi, phases) in step.procs.iter().enumerate() {
                let p = ProcId::new(pi);
                for &c in &phases.compute {
                    check_node(c.node())?;
                    cfg.apply(dag, arch, c.to_operation(p))?;
                }
            }
            // 2. Save phases of every processor; saves become visible to every
            //    processor's load phase of this superstep.
            for (pi, phases) in step.procs.iter().enumerate() {
                let p = ProcId::new(pi);
                for &v in &phases.save {
                    check_node(v)?;
                    cfg.apply(dag, arch, Operation::Save { proc: p, node: v })?;
                }
            }
            // 3. Delete phases.
            for (pi, phases) in step.procs.iter().enumerate() {
                let p = ProcId::new(pi);
                for &v in &phases.delete {
                    check_node(v)?;
                    cfg.apply(dag, arch, Operation::Delete { proc: p, node: v })?;
                }
            }
            // 4. Load phases.
            for (pi, phases) in step.procs.iter().enumerate() {
                let p = ProcId::new(pi);
                for &v in &phases.load {
                    check_node(v)?;
                    cfg.apply(dag, arch, Operation::Load { proc: p, node: v })?;
                }
            }
        }

        if boundary.require_sinks {
            for v in dag.sink_nodes() {
                if !cfg.has_blue(v) {
                    return Err(ScheduleError::MissingSink { node: v });
                }
            }
        }
        for &v in &boundary.required_outputs {
            check_node(v)?;
            if !cfg.has_blue(v) {
                return Err(ScheduleError::MissingRequiredOutput { node: v });
            }
        }
        Ok(())
    }

    /// Computes summary statistics of the schedule (operation counts, recomputation
    /// count, total compute and I/O volume).
    pub fn statistics<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        arch: &Architecture,
    ) -> ScheduleStatistics {
        let mut computes = 0usize;
        let mut loads = 0usize;
        let mut saves = 0usize;
        let mut deletes = 0usize;
        let mut compute_volume = 0.0;
        let mut io_volume = 0.0;
        let mut computed_count = vec![0usize; dag.num_nodes()];
        for (_, op) in self.operations() {
            match op {
                Operation::Compute { node, .. } => {
                    computes += 1;
                    compute_volume += dag.compute_weight(node);
                    computed_count[node.index()] += 1;
                }
                Operation::Load { node, .. } => {
                    loads += 1;
                    io_volume += dag.memory_weight(node) * arch.g;
                }
                Operation::Save { node, .. } => {
                    saves += 1;
                    io_volume += dag.memory_weight(node) * arch.g;
                }
                Operation::Delete { .. } => deletes += 1,
            }
        }
        let recomputed_nodes = computed_count.iter().filter(|&&c| c > 1).count();
        ScheduleStatistics {
            supersteps: self.num_supersteps(),
            computes,
            loads,
            saves,
            deletes,
            recomputed_nodes,
            compute_volume,
            io_volume,
        }
    }
}

/// Operation counts and volumes of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStatistics {
    /// Number of supersteps.
    pub supersteps: usize,
    /// Number of compute operations (recomputations included).
    pub computes: usize,
    /// Number of load operations.
    pub loads: usize,
    /// Number of save operations.
    pub saves: usize,
    /// Number of delete operations.
    pub deletes: usize,
    /// Number of distinct nodes that are computed more than once.
    pub recomputed_nodes: usize,
    /// Total compute cost `Σ ω` over all compute operations.
    pub compute_volume: f64,
    /// Total I/O cost `g·Σ μ` over all load and save operations.
    pub io_volume: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::graph::NodeWeights;
    use mbsp_dag::CompDag;

    fn path3() -> CompDag {
        CompDag::from_edges("p", vec![NodeWeights::unit(); 3], &[(0, 1), (1, 2)]).unwrap()
    }

    fn arch(p: usize, cache: f64) -> Architecture {
        Architecture::new(p, cache, 1.0, 0.0)
    }

    /// A single-processor schedule computing the 3-node path in one superstep.
    fn valid_path_schedule() -> MbspSchedule {
        let mut sched = MbspSchedule::new(1);
        let p = ProcId::new(0);
        let s = sched.push_empty_superstep();
        s.proc_mut(p).load.push(NodeId::new(0));
        let s2 = sched.push_empty_superstep();
        s2.proc_mut(p)
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(1)));
        s2.proc_mut(p)
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(2)));
        s2.proc_mut(p).save.push(NodeId::new(2));
        sched
    }

    #[test]
    fn valid_schedule_passes_validation() {
        let dag = path3();
        let a = arch(1, 3.0);
        let sched = valid_path_schedule();
        sched.validate(&dag, &a).unwrap();
        let stats = sched.statistics(&dag, &a);
        assert_eq!(stats.computes, 2);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.saves, 1);
        assert_eq!(stats.recomputed_nodes, 0);
        assert_eq!(stats.supersteps, 2);
        assert_eq!(stats.compute_volume, 2.0);
        assert_eq!(stats.io_volume, 2.0);
    }

    #[test]
    fn missing_sink_is_reported() {
        let dag = path3();
        let a = arch(1, 3.0);
        let mut sched = valid_path_schedule();
        // Drop the final save: sink never reaches slow memory.
        sched.supersteps_mut()[1].procs[0].save.clear();
        assert!(matches!(
            sched.validate(&dag, &a),
            Err(ScheduleError::MissingSink { .. })
        ));
    }

    #[test]
    fn memory_bound_violation_is_reported() {
        let dag = path3();
        let a = arch(1, 2.0);
        let sched = valid_path_schedule();
        // Cache of 2 cannot hold nodes 0, 1 and 2 simultaneously.
        assert!(matches!(
            sched.validate(&dag, &a),
            Err(ScheduleError::MemoryBoundExceeded { .. })
        ));
    }

    #[test]
    fn saves_are_visible_to_loads_in_the_same_superstep() {
        // Processor 0 computes node 1 and saves it; processor 1 loads it in the same
        // superstep and computes node 2 in the next superstep.
        let dag = path3();
        let a = arch(2, 3.0);
        let (p0, p1) = (ProcId::new(0), ProcId::new(1));
        let mut sched = MbspSchedule::new(2);
        let s0 = sched.push_empty_superstep();
        s0.proc_mut(p0).load.push(NodeId::new(0));
        let s1 = sched.push_empty_superstep();
        s1.proc_mut(p0)
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(1)));
        s1.proc_mut(p0).save.push(NodeId::new(1));
        s1.proc_mut(p1).load.push(NodeId::new(1));
        let s2 = sched.push_empty_superstep();
        s2.proc_mut(p1)
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(2)));
        s2.proc_mut(p1).save.push(NodeId::new(2));
        sched.validate(&dag, &a).unwrap();
    }

    #[test]
    fn loads_cannot_see_future_saves() {
        // Processor 1 loads node 1 one superstep *before* processor 0 saves it.
        let dag = path3();
        let a = arch(2, 3.0);
        let (p0, p1) = (ProcId::new(0), ProcId::new(1));
        let mut sched = MbspSchedule::new(2);
        let s0 = sched.push_empty_superstep();
        s0.proc_mut(p0).load.push(NodeId::new(0));
        s0.proc_mut(p1).load.push(NodeId::new(1));
        let s1 = sched.push_empty_superstep();
        s1.proc_mut(p0)
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(1)));
        s1.proc_mut(p0).save.push(NodeId::new(1));
        assert!(matches!(
            sched.validate(&dag, &a),
            Err(ScheduleError::LoadWithoutBlue { .. })
        ));
    }

    #[test]
    fn boundary_conditions_are_respected() {
        let dag = path3();
        let a = arch(1, 3.0);
        let p = ProcId::new(0);
        // Start with node 1 already in slow memory; compute only node 2.
        let mut sched = MbspSchedule::new(1);
        let s = sched.push_empty_superstep();
        s.proc_mut(p).load.push(NodeId::new(1));
        let s2 = sched.push_empty_superstep();
        s2.proc_mut(p)
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(2)));
        s2.proc_mut(p).save.push(NodeId::new(2));
        // Standard validation fails (node 1 is not blue initially).
        assert!(sched.validate(&dag, &a).is_err());
        let boundary = BoundaryCondition {
            initial_blue: vec![NodeId::new(1)],
            initial_red: vec![],
            required_outputs: vec![],
            require_sinks: true,
        };
        sched.validate_with_boundary(&dag, &a, &boundary).unwrap();
    }

    #[test]
    fn required_outputs_are_checked() {
        let dag = path3();
        let a = arch(1, 3.0);
        let sched = valid_path_schedule();
        let boundary = BoundaryCondition {
            initial_blue: vec![],
            initial_red: vec![],
            required_outputs: vec![NodeId::new(1)],
            require_sinks: true,
        };
        // Node 1 is computed but never saved.
        assert!(matches!(
            sched.validate_with_boundary(&dag, &a, &boundary),
            Err(ScheduleError::MissingRequiredOutput { .. })
        ));
    }

    #[test]
    fn processor_count_mismatch_detected() {
        let dag = path3();
        let a = arch(2, 3.0);
        let sched = valid_path_schedule(); // built for 1 processor
        assert!(matches!(
            sched.validate(&dag, &a),
            Err(ScheduleError::ProcessorCountMismatch { .. })
        ));
    }

    #[test]
    fn node_out_of_range_detected() {
        let dag = path3();
        let a = arch(1, 3.0);
        let mut sched = MbspSchedule::new(1);
        let s = sched.push_empty_superstep();
        s.proc_mut(ProcId::new(0)).load.push(NodeId::new(17));
        assert!(matches!(
            sched.validate(&dag, &a),
            Err(ScheduleError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn remove_empty_supersteps() {
        let mut sched = valid_path_schedule();
        sched.push_empty_superstep();
        sched.push_empty_superstep();
        assert_eq!(sched.num_supersteps(), 4);
        sched.remove_empty_supersteps();
        assert_eq!(sched.num_supersteps(), 2);
    }

    #[test]
    fn statistics_count_recomputation() {
        let dag = path3();
        let a = arch(1, 3.0);
        let p = ProcId::new(0);
        let mut sched = MbspSchedule::new(1);
        let s = sched.push_empty_superstep();
        s.proc_mut(p).load.push(NodeId::new(0));
        let s1 = sched.push_empty_superstep();
        s1.proc_mut(p)
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(1)));
        s1.proc_mut(p)
            .compute
            .push(ComputePhaseStep::Delete(NodeId::new(1)));
        s1.proc_mut(p)
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(1)));
        s1.proc_mut(p)
            .compute
            .push(ComputePhaseStep::Compute(NodeId::new(2)));
        s1.proc_mut(p).save.push(NodeId::new(2));
        sched.validate(&dag, &a).unwrap();
        let stats = sched.statistics(&dag, &a);
        assert_eq!(stats.computes, 3);
        assert_eq!(stats.deletes, 1);
        assert_eq!(stats.recomputed_nodes, 1);
    }

    #[test]
    fn operations_iteration_order() {
        let sched = valid_path_schedule();
        let ops = sched.operations();
        assert_eq!(ops.len(), 4);
        assert_eq!(ops[0].0, 0);
        assert!(matches!(ops[0].1, Operation::Load { .. }));
        assert!(matches!(ops[1].1, Operation::Compute { .. }));
        assert!(matches!(ops[3].1, Operation::Save { .. }));
    }
}
