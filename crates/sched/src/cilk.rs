//! Cilk-style work-stealing scheduler simulation.
//!
//! The paper's "practical" baseline pairs the Cilk work-stealing scheduler of
//! Blumofe & Leiserson with LRU cache eviction. This module simulates a randomised
//! work-stealing execution of the DAG on `P` workers in virtual time: every worker
//! owns a deque of ready tasks, pushes children that become ready when it finishes a
//! node, and steals from the top of a random victim's deque when idle. The simulated
//! trace (which worker executed which node, and in which order) is then folded into
//! a BSP schedule: a node starts a new superstep whenever it consumes a value
//! produced on another processor in the current superstep.
//!
//! The simulation and the fold keep their state in flat per-node arrays local
//! to one call; the RNG draw sequence is that of the original nested-`Vec`
//! implementation retained as [`crate::reference::cilk_reference`], so results
//! are bit-identical to it.

use crate::{BspScheduler, BspSchedulingResult};
use mbsp_dag::{CompDag, DagLike, NodeId};
use mbsp_model::{Architecture, BspSchedule, ProcId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Work-stealing scheduler simulation (Cilk-style baseline).
#[derive(Debug, Clone)]
pub struct CilkScheduler {
    seed: u64,
}

impl Default for CilkScheduler {
    fn default() -> Self {
        CilkScheduler { seed: 0xC11C }
    }
}

impl CilkScheduler {
    /// Creates a scheduler with the default seed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scheduler with an explicit seed for the random victim selection.
    pub fn with_seed(seed: u64) -> Self {
        CilkScheduler { seed }
    }

    /// Simulates the work-stealing execution: returns, per node, the worker
    /// that executed it, and the execution order (a permutation of the
    /// non-source nodes in completion order).
    fn simulate<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        processors: usize,
    ) -> (Vec<ProcId>, Vec<NodeId>) {
        let n = dag.num_nodes();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut remaining_parents: Vec<u32> = (0..n)
            .map(|i| dag.in_degree(NodeId::new(i)) as u32)
            .collect();
        let mut owner = vec![ProcId::new(0); n];
        let mut deques: Vec<VecDeque<NodeId>> = vec![VecDeque::new(); processors];

        // Seed the deques with the children of the sources that become ready, spread
        // round-robin over the workers (sources themselves are inputs).
        let mut ready = Vec::new();
        for v in dag.source_nodes() {
            for c in dag.children(v) {
                remaining_parents[c.index()] -= 1;
                if remaining_parents[c.index()] == 0 {
                    ready.push(c);
                }
            }
        }
        ready.sort_unstable();
        ready.dedup();
        for (i, &v) in ready.iter().enumerate() {
            deques[i % processors].push_back(v);
        }

        // Event-driven simulation in virtual time: each worker has a time at which
        // it becomes idle; the earliest idle worker acts next.
        let mut worker_time = vec![0.0f64; processors];
        let mut completion_order = Vec::new();
        let mut executed = vec![false; n];
        let non_source_count = dag.nodes().filter(|&v| !dag.is_source(v)).count();

        while completion_order.len() < non_source_count {
            // Pick the worker with the smallest current time (ties: lowest index).
            let w = (0..processors)
                .min_by(|&a, &b| worker_time[a].partial_cmp(&worker_time[b]).unwrap())
                .unwrap();
            // Take own work from the bottom of the deque, or steal from the top of a
            // random victim.
            let task = if let Some(t) = deques[w].pop_back() {
                Some(t)
            } else {
                let mut stolen = None;
                // Try a few random victims, then scan everyone (deterministic bound).
                for _ in 0..processors {
                    let victim = rng.gen_range(0..processors);
                    if victim != w {
                        if let Some(t) = deques[victim].pop_front() {
                            stolen = Some(t);
                            break;
                        }
                    }
                }
                if stolen.is_none() {
                    for victim in 0..processors {
                        if victim != w {
                            if let Some(t) = deques[victim].pop_front() {
                                stolen = Some(t);
                                break;
                            }
                        }
                    }
                }
                stolen
            };
            match task {
                Some(v) => {
                    debug_assert!(!executed[v.index()]);
                    executed[v.index()] = true;
                    owner[v.index()] = ProcId::new(w);
                    worker_time[w] += dag.compute_weight(v).max(f64::MIN_POSITIVE);
                    completion_order.push(v);
                    // Newly ready children go to this worker's deque (depth-first).
                    for c in dag.children(v) {
                        remaining_parents[c.index()] -= 1;
                        if remaining_parents[c.index()] == 0 {
                            deques[w].push_back(c);
                        }
                    }
                }
                None => {
                    // Nothing to steal right now: advance this worker's clock past
                    // the next busy worker so someone else can produce work.
                    let next_busy = worker_time
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != w)
                        .map(|(_, &t)| t)
                        .fold(f64::INFINITY, f64::min);
                    worker_time[w] = if next_busy.is_finite() {
                        next_busy + 1e-6
                    } else {
                        worker_time[w] + 1.0
                    };
                }
            }
        }
        (owner, completion_order)
    }

    /// Generic counterpart of [`BspScheduler::schedule`]: simulates the
    /// work-stealing execution on any [`DagLike`] graph, including the zero-copy
    /// [`mbsp_dag::SubDagView`]. On a `CompDag` it is byte-identical to the trait
    /// path (which delegates here) — the RNG draw sequence does not depend on the
    /// graph representation.
    pub fn schedule_dag<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        arch: &Architecture,
    ) -> BspSchedulingResult {
        let p = arch.processors;
        let (owner, completion_order) = self.simulate(dag, p);
        let n = dag.num_nodes();

        // Fold the trace into supersteps: a node's superstep is at least one more
        // than the superstep of any parent on a different processor, at least the
        // superstep of any parent on the same processor, and at least the superstep
        // of the previous node executed by the same worker (the trace order must
        // stay realisable).
        let mut superstep_of = vec![0usize; n];
        let mut last_step_of_worker = vec![0usize; p];
        let mut assignment: Vec<(ProcId, usize)> = vec![(ProcId::new(0), 0); n];
        let mut order: Vec<NodeId> = Vec::with_capacity(n);

        // Sources first: processor 0, superstep 0.
        for v in dag.source_nodes() {
            assignment[v.index()] = (ProcId::new(0), 0);
            order.push(v);
        }
        for v in completion_order {
            let w = owner[v.index()];
            let mut s = last_step_of_worker[w.index()];
            for u in dag.parents(v) {
                if dag.is_source(u) {
                    continue;
                }
                let su = superstep_of[u.index()];
                let needed = if owner[u.index()] == w { su } else { su + 1 };
                s = s.max(needed);
            }
            superstep_of[v.index()] = s;
            last_step_of_worker[w.index()] = s;
            assignment[v.index()] = (w, s);
            order.push(v);
        }

        // Sources must precede their children: with cross-processor children this is
        // automatic (superstep >= 0 + 1 is not required for sources since they are
        // loaded from slow memory, not communicated), but the BSP validity check
        // requires a strictly earlier superstep for cross-processor edges. Shift all
        // non-source nodes by one superstep to leave superstep 0 to the sources.
        for v in dag.nodes() {
            if !dag.is_source(v) {
                assignment[v.index()].1 += 1;
            }
        }

        let mut schedule = BspSchedule::new(p, assignment);
        schedule.compact_supersteps();
        BspSchedulingResult { schedule, order }
    }
}

impl BspScheduler for CilkScheduler {
    fn name(&self) -> &'static str {
        "cilk-work-stealing"
    }

    fn schedule(&self, dag: &CompDag, arch: &Architecture) -> BspSchedulingResult {
        self.schedule_dag(dag, arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_order_respects_precedence;
    use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
    use mbsp_gen::tiny_dataset;

    fn arch(p: usize) -> Architecture {
        Architecture::new(p, 1e9, 1.0, 10.0)
    }

    #[test]
    fn produces_valid_schedules_on_the_tiny_dataset() {
        let sched = CilkScheduler::new();
        for inst in tiny_dataset(42) {
            let result = sched.schedule(&inst.dag, &arch(4));
            result
                .schedule
                .validate(&inst.dag)
                .unwrap_or_else(|e| panic!("{}: {e}", inst.name));
            assert_eq!(result.order.len(), inst.dag.num_nodes());
        }
    }

    #[test]
    fn all_workers_receive_work_on_wide_dags() {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 6,
                width: 16,
                ..Default::default()
            },
            3,
        );
        let result = CilkScheduler::new().schedule(&dag, &arch(4));
        result.schedule.validate(&dag).unwrap();
        let work = result.schedule.work_per_processor(&dag);
        assert!(
            work.iter().all(|&w| w > 0.0),
            "all workers should execute something: {work:?}"
        );
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let dag = random_layered_dag(&RandomDagConfig::default(), 7);
        let a = CilkScheduler::with_seed(5).schedule(&dag, &arch(3));
        let b = CilkScheduler::with_seed(5).schedule(&dag, &arch(3));
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.order, b.order);
    }

    #[test]
    fn single_worker_executes_everything() {
        let dag = random_layered_dag(&RandomDagConfig::default(), 2);
        let result = CilkScheduler::new().schedule(&dag, &arch(1));
        result.schedule.validate(&dag).unwrap();
        let work = result.schedule.work_per_processor(&dag);
        assert_eq!(work.len(), 1);
        assert!(work[0] > 0.0);
    }

    #[test]
    fn order_hint_is_a_valid_topological_order() {
        let dag = random_layered_dag(&RandomDagConfig::default(), 4);
        let result = CilkScheduler::new().schedule(&dag, &arch(4));
        assert_order_respects_precedence(&dag, &result.order);
    }
}
