//! Plain BSP schedules (the first stage of the two-stage baseline).
//!
//! A BSP schedule assigns every node of the DAG to a processor and a superstep,
//! ignoring memory constraints. If an edge `(u, v)` crosses processors, `v` must be
//! scheduled in a strictly later superstep than `u` (the value travels during the
//! communication phase that ends `u`'s superstep); on the same processor `v` may be
//! scheduled in the same superstep as `u`.
//!
//! The BSP cost model used here follows the paper's description of \[36\] (Papp et al., SPAA 2024): per
//! superstep, the cost is the maximal compute work of any processor plus `g` times
//! the h-relation (maximal data volume sent or received by any processor) plus `L`.
//! Source nodes of the DAG are not computed in the MBSP model, so their compute
//! weight is not charged here either; their values still count towards communication
//! when a child lives on a different processor.

use crate::arch::{Architecture, ProcId};
use mbsp_dag::{CompDag, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised by BSP schedule validation.
#[derive(Debug, Clone, PartialEq)]
pub enum BspError {
    /// The assignment does not cover every node exactly once.
    WrongLength {
        /// Number of assignments provided.
        found: usize,
        /// Number of nodes in the DAG.
        expected: usize,
    },
    /// An assignment references a processor outside `0..P`.
    InvalidProcessor {
        /// The offending node.
        node: NodeId,
        /// The processor index used.
        proc: usize,
        /// Number of processors available.
        processors: usize,
    },
    /// A precedence constraint is violated.
    PrecedenceViolation {
        /// Parent node.
        from: NodeId,
        /// Child node.
        to: NodeId,
        /// Superstep of the parent.
        from_step: usize,
        /// Superstep of the child.
        to_step: usize,
        /// Whether the two nodes are on the same processor.
        same_proc: bool,
    },
}

impl fmt::Display for BspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BspError::WrongLength { found, expected } => {
                write!(f, "assignment covers {found} nodes, expected {expected}")
            }
            BspError::InvalidProcessor { node, proc, processors } => {
                write!(f, "{node} assigned to processor {proc} but only {processors} exist")
            }
            BspError::PrecedenceViolation { from, to, from_step, to_step, same_proc } => write!(
                f,
                "edge {from}->{to} violated: parent in superstep {from_step}, child in {to_step} (same processor: {same_proc})"
            ),
        }
    }
}

impl std::error::Error for BspError {}

/// A BSP schedule: per node, the processor and superstep it is executed in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BspSchedule {
    processors: usize,
    /// `assignment[v] = (processor, superstep)`.
    assignment: Vec<(ProcId, usize)>,
}

impl BspSchedule {
    /// Creates a BSP schedule from an explicit assignment (one entry per node).
    pub fn new(processors: usize, assignment: Vec<(ProcId, usize)>) -> Self {
        BspSchedule {
            processors,
            assignment,
        }
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Processor of node `v`.
    pub fn proc_of(&self, v: NodeId) -> ProcId {
        self.assignment[v.index()].0
    }

    /// Superstep of node `v`.
    pub fn superstep_of(&self, v: NodeId) -> usize {
        self.assignment[v.index()].1
    }

    /// The raw assignment.
    pub fn assignment(&self) -> &[(ProcId, usize)] {
        &self.assignment
    }

    /// Number of supersteps (1 + maximal superstep index used, 0 if empty).
    pub fn num_supersteps(&self) -> usize {
        self.assignment
            .iter()
            .map(|&(_, s)| s + 1)
            .max()
            .unwrap_or(0)
    }

    /// Validates the schedule against the DAG: full coverage, valid processor
    /// indices, and precedence feasibility (cross-processor edges need a strictly
    /// later superstep, same-processor edges a non-earlier one).
    pub fn validate(&self, dag: &CompDag) -> Result<(), BspError> {
        if self.assignment.len() != dag.num_nodes() {
            return Err(BspError::WrongLength {
                found: self.assignment.len(),
                expected: dag.num_nodes(),
            });
        }
        for v in dag.nodes() {
            let (p, _) = self.assignment[v.index()];
            if p.index() >= self.processors {
                return Err(BspError::InvalidProcessor {
                    node: v,
                    proc: p.index(),
                    processors: self.processors,
                });
            }
        }
        for (u, v) in dag.edges() {
            let (pu, su) = self.assignment[u.index()];
            let (pv, sv) = self.assignment[v.index()];
            let ok = if pu == pv { su <= sv } else { su < sv };
            if !ok {
                return Err(BspError::PrecedenceViolation {
                    from: u,
                    to: v,
                    from_step: su,
                    to_step: sv,
                    same_proc: pu == pv,
                });
            }
        }
        Ok(())
    }

    /// Computes the BSP cost of the schedule.
    pub fn cost(&self, dag: &CompDag, arch: &Architecture) -> BspCost {
        let steps = self.num_supersteps();
        let p = self.processors;
        let mut work = vec![vec![0.0f64; p]; steps];
        let mut sent = vec![vec![0.0f64; p]; steps];
        let mut received = vec![vec![0.0f64; p]; steps];

        for v in dag.nodes() {
            let (pv, sv) = self.assignment[v.index()];
            if !dag.is_source(v) {
                work[sv][pv.index()] += dag.compute_weight(v);
            }
        }
        // Each value that a different processor needs is sent once per (value,
        // receiving processor) pair, during the communication phase of the producer's
        // superstep. Walking the CSR children per producer lets the (value, receiver)
        // dedup run on a flat stamp array instead of a `BTreeSet` of pairs.
        let mut receiver_stamp = vec![u32::MAX; p];
        for u in dag.nodes() {
            let (pu, su) = self.assignment[u.index()];
            let stamp = u.0;
            for &v in dag.children(u) {
                let (pv, _) = self.assignment[v.index()];
                if pu != pv && receiver_stamp[pv.index()] != stamp {
                    receiver_stamp[pv.index()] = stamp;
                    let volume = dag.memory_weight(u);
                    sent[su][pu.index()] += volume;
                    received[su][pv.index()] += volume;
                }
            }
        }

        let mut compute = 0.0;
        let mut comm = 0.0;
        for s in 0..steps {
            let max_work = work[s].iter().copied().fold(0.0, f64::max);
            let h = sent[s]
                .iter()
                .zip(&received[s])
                .map(|(&a, &b)| a.max(b))
                .fold(0.0, f64::max);
            compute += max_work;
            comm += arch.g * h;
        }
        let latency = arch.latency * steps as f64;
        BspCost {
            total: compute + comm + latency,
            compute,
            communication: comm,
            latency,
            supersteps: steps,
        }
    }

    /// Total compute work assigned to each processor (excluding source nodes).
    pub fn work_per_processor(&self, dag: &CompDag) -> Vec<f64> {
        let mut work = vec![0.0; self.processors];
        for v in dag.nodes() {
            if !dag.is_source(v) {
                work[self.proc_of(v).index()] += dag.compute_weight(v);
            }
        }
        work
    }

    /// Number of edges whose endpoints are assigned to different processors.
    pub fn cross_processor_edges(&self, dag: &CompDag) -> usize {
        dag.edges()
            .filter(|&(u, v)| self.proc_of(u) != self.proc_of(v))
            .count()
    }

    /// Renumbers supersteps so that they are consecutive starting from 0, preserving
    /// order. Returns the number of supersteps after compaction.
    pub fn compact_supersteps(&mut self) -> usize {
        let mut used: Vec<usize> = self.assignment.iter().map(|&(_, s)| s).collect();
        used.sort_unstable();
        used.dedup();
        // `used` is sorted and deduplicated, so the new index of a superstep is
        // its rank — a binary search instead of a `BTreeMap` lookup.
        for a in &mut self.assignment {
            a.1 = used.binary_search(&a.1).expect("superstep is present");
        }
        used.len()
    }
}

/// Breakdown of the BSP cost of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BspCost {
    /// Total cost.
    pub total: f64,
    /// Sum over supersteps of the maximal per-processor compute work.
    pub compute: f64,
    /// Sum over supersteps of `g` times the h-relation.
    pub communication: f64,
    /// `L` times the number of supersteps.
    pub latency: f64,
    /// Number of supersteps.
    pub supersteps: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::graph::NodeWeights;

    fn diamond() -> CompDag {
        CompDag::from_edges(
            "diamond",
            vec![NodeWeights::unit(); 4],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap()
    }

    fn arch(p: usize) -> Architecture {
        Architecture::new(p, 100.0, 1.0, 10.0)
    }

    #[test]
    fn valid_two_processor_schedule() {
        let dag = diamond();
        let sched = BspSchedule::new(
            2,
            vec![
                (ProcId::new(0), 0),
                (ProcId::new(0), 1),
                (ProcId::new(1), 1),
                (ProcId::new(0), 2),
            ],
        );
        sched.validate(&dag).unwrap();
        assert_eq!(sched.num_supersteps(), 3);
        assert_eq!(sched.cross_processor_edges(&dag), 2);
        let work = sched.work_per_processor(&dag);
        assert_eq!(work, vec![2.0, 1.0]);
    }

    #[test]
    fn precedence_violation_same_and_cross_processor() {
        let dag = diamond();
        // Node 3 on a different processor in the same superstep as its parent 1.
        let bad = BspSchedule::new(
            2,
            vec![
                (ProcId::new(0), 0),
                (ProcId::new(0), 1),
                (ProcId::new(0), 1),
                (ProcId::new(1), 1),
            ],
        );
        assert!(matches!(
            bad.validate(&dag),
            Err(BspError::PrecedenceViolation { .. })
        ));
        // Same processor, child in an earlier superstep.
        let bad2 = BspSchedule::new(
            1,
            vec![
                (ProcId::new(0), 0),
                (ProcId::new(0), 2),
                (ProcId::new(0), 1),
                (ProcId::new(0), 1),
            ],
        );
        assert!(matches!(
            bad2.validate(&dag),
            Err(BspError::PrecedenceViolation { .. })
        ));
        // Same processor, same superstep is fine.
        let ok = BspSchedule::new(
            1,
            vec![
                (ProcId::new(0), 0),
                (ProcId::new(0), 0),
                (ProcId::new(0), 0),
                (ProcId::new(0), 0),
            ],
        );
        ok.validate(&dag).unwrap();
    }

    #[test]
    fn wrong_length_and_bad_processor() {
        let dag = diamond();
        let bad = BspSchedule::new(1, vec![(ProcId::new(0), 0)]);
        assert!(matches!(
            bad.validate(&dag),
            Err(BspError::WrongLength { .. })
        ));
        let bad2 = BspSchedule::new(
            1,
            vec![
                (ProcId::new(0), 0),
                (ProcId::new(3), 1),
                (ProcId::new(0), 1),
                (ProcId::new(0), 2),
            ],
        );
        assert!(matches!(
            bad2.validate(&dag),
            Err(BspError::InvalidProcessor { .. })
        ));
    }

    #[test]
    fn bsp_cost_counts_h_relation_and_latency() {
        let dag = diamond();
        let a = arch(2);
        let sched = BspSchedule::new(
            2,
            vec![
                (ProcId::new(0), 0),
                (ProcId::new(0), 1),
                (ProcId::new(1), 1),
                (ProcId::new(0), 2),
            ],
        );
        let cost = sched.cost(&dag, &a);
        // Compute: superstep 1 has max work 1 (both procs compute one node);
        // superstep 2 has work 1. Source node 0 is not computed.
        assert_eq!(cost.compute, 2.0);
        // Communication: node 0 sent to p1 in superstep 0 (volume 1); node 2 sent to
        // p0 in superstep 1 (volume 1). h-relation 1 in each -> 2 * g.
        assert_eq!(cost.communication, 2.0);
        assert_eq!(cost.latency, 30.0);
        assert_eq!(cost.total, 34.0);
    }

    #[test]
    fn compact_supersteps_renumbers() {
        let dag = diamond();
        let mut sched = BspSchedule::new(
            1,
            vec![
                (ProcId::new(0), 0),
                (ProcId::new(0), 4),
                (ProcId::new(0), 4),
                (ProcId::new(0), 9),
            ],
        );
        assert_eq!(sched.num_supersteps(), 10);
        let k = sched.compact_supersteps();
        assert_eq!(k, 3);
        assert_eq!(sched.num_supersteps(), 3);
        sched.validate(&dag).unwrap();
        assert_eq!(sched.superstep_of(NodeId::new(3)), 2);
    }
}
