//! The pre-bitset pebbling configuration, retained as a differential oracle.
//!
//! [`ReferenceConfiguration`] is the nested-`Vec<bool>` implementation that
//! [`crate::Configuration`] replaced: one heap-allocated boolean array per
//! processor, per-element loops for reset/copy, and `enumerate`-based pebble
//! iteration. It is deliberately thin and obviously correct — the workspace's
//! oracle convention (`lp_solver::dense`, `mbsp_cache::two_stage::reference`,
//! `mbsp_dag::reference`) — and the seeded property tests in
//! `tests/state_differential.rs` replay random operation sequences through both
//! implementations asserting identical observable state after every step.
//!
//! [`validate`] replays a whole schedule through it: the independent referee
//! of [`crate::MbspSchedule::validate`], which shares none of its pebble
//! checks with the bitset [`crate::Configuration`].

use crate::arch::{Architecture, ProcId};
use crate::ops::Operation;
use crate::schedule::{MbspSchedule, ScheduleError};
use crate::state::MEMORY_EPS;
use mbsp_dag::{CompDag, NodeId};

/// Nested-`Vec<bool>` pebbling configuration (the pre-bitset layout).
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceConfiguration {
    /// `red[p][v]` — does node `v` carry a red pebble of processor `p`?
    red: Vec<Vec<bool>>,
    /// `blue[v]` — does node `v` carry a blue pebble?
    blue: Vec<bool>,
    /// Cached memory use of each processor.
    used: Vec<f64>,
}

impl ReferenceConfiguration {
    /// Initial configuration: empty caches, sources in slow memory.
    pub fn initial(dag: &CompDag, arch: &Architecture) -> Self {
        let n = dag.num_nodes();
        let mut blue = vec![false; n];
        for v in dag.sources() {
            blue[v.index()] = true;
        }
        ReferenceConfiguration {
            red: vec![vec![false; n]; arch.processors],
            blue,
            used: vec![0.0; arch.processors],
        }
    }

    /// Entirely empty configuration.
    pub fn empty(dag: &CompDag, arch: &Architecture) -> Self {
        ReferenceConfiguration {
            red: vec![vec![false; dag.num_nodes()]; arch.processors],
            blue: vec![false; dag.num_nodes()],
            used: vec![0.0; arch.processors],
        }
    }

    /// Per-element reset to the initial state.
    pub fn reset_initial(&mut self, dag: &CompDag) {
        for red in &mut self.red {
            red.fill(false);
        }
        self.blue.fill(false);
        for v in dag.sources() {
            self.blue[v.index()] = true;
        }
        self.used.fill(0.0);
    }

    /// Per-element copy from `other`.
    pub fn copy_from(&mut self, other: &ReferenceConfiguration) {
        for (dst, src) in self.red.iter_mut().zip(&other.red) {
            dst.copy_from_slice(src);
        }
        self.blue.copy_from_slice(&other.blue);
        self.used.copy_from_slice(&other.used);
    }

    /// Does node `v` carry a red pebble of processor `p`?
    pub fn has_red(&self, p: ProcId, v: NodeId) -> bool {
        self.red[p.index()][v.index()]
    }

    /// Does node `v` carry a blue pebble?
    pub fn has_blue(&self, v: NodeId) -> bool {
        self.blue[v.index()]
    }

    /// Current fast-memory usage of processor `p`.
    pub fn memory_used(&self, p: ProcId) -> f64 {
        self.used[p.index()]
    }

    /// The nodes currently cached by processor `p`, in index order.
    pub fn cached_nodes(&self, p: ProcId) -> Vec<NodeId> {
        self.red[p.index()]
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| if r { Some(NodeId::new(i)) } else { None })
            .collect()
    }

    /// The nodes currently in slow memory, in index order.
    pub fn blue_nodes(&self) -> Vec<NodeId> {
        self.blue
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| if b { Some(NodeId::new(i)) } else { None })
            .collect()
    }

    /// Places a red pebble without precondition checks.
    pub fn place_red_unchecked(&mut self, dag: &CompDag, p: ProcId, v: NodeId) {
        if !self.red[p.index()][v.index()] {
            self.red[p.index()][v.index()] = true;
            self.used[p.index()] += dag.memory_weight(v);
        }
    }

    /// Places a blue pebble without precondition checks.
    pub fn place_blue_unchecked(&mut self, v: NodeId) {
        self.blue[v.index()] = true;
    }

    /// Removes a red pebble without precondition checks.
    pub fn remove_red_unchecked(&mut self, dag: &CompDag, p: ProcId, v: NodeId) {
        if self.red[p.index()][v.index()] {
            self.red[p.index()][v.index()] = false;
            self.used[p.index()] -= dag.memory_weight(v);
            if self.used[p.index()] < 0.0 {
                self.used[p.index()] = 0.0;
            }
        }
    }

    /// Precondition check: the rules of `Configuration::apply`, one
    /// `Vec<bool>` lookup per parent of a compute. A node outside the DAG
    /// panics instead of returning `NodeOutOfRange`.
    pub fn check(
        &self,
        dag: &CompDag,
        arch: &Architecture,
        op: Operation,
    ) -> Result<(), ScheduleError> {
        match op {
            Operation::Load { proc, node } => {
                if !self.has_blue(node) {
                    return Err(ScheduleError::LoadWithoutBlue { proc, node });
                }
                if !self.has_red(proc, node)
                    && self.used[proc.index()] + dag.memory_weight(node)
                        > arch.cache_size + MEMORY_EPS
                {
                    return Err(ScheduleError::MemoryBoundExceeded {
                        proc,
                        node,
                        used: self.used[proc.index()] + dag.memory_weight(node),
                        bound: arch.cache_size,
                    });
                }
                Ok(())
            }
            Operation::Save { proc, node } => {
                if !self.has_red(proc, node) {
                    return Err(ScheduleError::SaveWithoutRed { proc, node });
                }
                Ok(())
            }
            Operation::Compute { proc, node } => {
                if dag.is_source(node) {
                    return Err(ScheduleError::ComputeSource { proc, node });
                }
                for &parent in dag.parents(node) {
                    if !self.has_red(proc, parent) {
                        return Err(ScheduleError::MissingParent { proc, node, parent });
                    }
                }
                if !self.has_red(proc, node)
                    && self.used[proc.index()] + dag.memory_weight(node)
                        > arch.cache_size + MEMORY_EPS
                {
                    return Err(ScheduleError::MemoryBoundExceeded {
                        proc,
                        node,
                        used: self.used[proc.index()] + dag.memory_weight(node),
                        bound: arch.cache_size,
                    });
                }
                Ok(())
            }
            Operation::Delete { proc, node } => {
                if !self.has_red(proc, node) {
                    return Err(ScheduleError::DeleteWithoutRed { proc, node });
                }
                Ok(())
            }
        }
    }

    /// Checked apply: [`ReferenceConfiguration::check`], then the unchecked
    /// placement — the oracle of `Configuration::apply`.
    pub fn apply(
        &mut self,
        dag: &CompDag,
        arch: &Architecture,
        op: Operation,
    ) -> Result<(), ScheduleError> {
        self.check(dag, arch, op)?;
        self.apply_unchecked(dag, op);
        Ok(())
    }

    /// Unchecked apply, mirroring `Configuration::apply_unchecked`.
    pub fn apply_unchecked(&mut self, dag: &CompDag, op: Operation) {
        match op {
            Operation::Load { proc, node } | Operation::Compute { proc, node } => {
                self.place_red_unchecked(dag, proc, node);
            }
            Operation::Save { node, .. } => {
                self.blue[node.index()] = true;
            }
            Operation::Delete { proc, node } => {
                self.remove_red_unchecked(dag, proc, node);
            }
        }
    }

    /// Terminal condition: every sink carries a blue pebble.
    pub fn is_terminal(&self, dag: &CompDag) -> bool {
        dag.sinks().iter().all(|&v| self.has_blue(v))
    }

    /// Returns true if every processor satisfies the memory bound.
    pub fn within_memory_bound(&self, arch: &Architecture) -> bool {
        self.used.iter().all(|&u| u <= arch.cache_size + MEMORY_EPS)
    }
}

/// Validates `schedule` the way [`MbspSchedule::validate`] does, through the
/// oracle: the processor-count check first, then every
/// [`MbspSchedule::operations`] entry through [`ReferenceConfiguration::apply`],
/// then the first sink without a blue pebble. Returns the same `Ok` or the
/// same first error as the served check; a node outside the DAG panics.
pub fn validate(
    schedule: &MbspSchedule,
    dag: &CompDag,
    arch: &Architecture,
) -> Result<(), ScheduleError> {
    if schedule.processors() != arch.processors && schedule.num_supersteps() > 0 {
        return Err(ScheduleError::ProcessorCountMismatch {
            superstep: 0,
            found: schedule.processors(),
            expected: arch.processors,
        });
    }
    let mut cfg = ReferenceConfiguration::initial(dag, arch);
    for (_, op) in schedule.operations() {
        cfg.apply(dag, arch, op)?;
    }
    match dag.sink_nodes().find(|&v| !cfg.has_blue(v)) {
        Some(node) => Err(ScheduleError::MissingSink { node }),
        None => Ok(()),
    }
}
