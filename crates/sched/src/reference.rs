//! The original baseline schedulers, retained verbatim as differential oracles.
//!
//! The optimised schedulers in [`crate::greedy`], [`crate::cilk`] and
//! [`crate::dfs`] run on flat per-node arrays and prune their ready
//! lists; these functions are the straightforward implementations they replaced
//! — fresh `Vec<Vec<bool>>` per superstep, a full `O(V)` sweep per superstep
//! close, one allocation per DFS step — kept because they are obviously correct.
//! The differential tests in `tests/scheduler_differential.rs` assert that, for
//! the same DAG, architecture and seed, the optimised schedulers
//! produce **byte-identical** scheduling results (assignment, supersteps and
//! order hint), following the workspace's oracle convention
//! (`lp_solver::dense`, `mbsp_cache::two_stage::reference`,
//! `mbsp_dag::reference`, `mbsp_model::reference`).

use crate::greedy::{MIN_QUANTUM, QUANTUM_LATENCY_FACTOR};
use crate::BspSchedulingResult;
use mbsp_dag::topo::bottom_levels;
use mbsp_dag::{CompDag, NodeId};
use mbsp_model::{Architecture, BspSchedule, ProcId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The original greedy BSP list scheduler (original implementation).
pub fn greedy_reference(dag: &CompDag, arch: &Architecture) -> BspSchedulingResult {
    let n = dag.num_nodes();
    let p = arch.processors;
    let priorities = bottom_levels(dag);

    // Work quantum per processor per superstep.
    let max_node_weight = dag
        .nodes()
        .map(|v| dag.compute_weight(v))
        .fold(0.0, f64::max);
    let quantum = (arch.latency * QUANTUM_LATENCY_FACTOR)
        .max(MIN_QUANTUM)
        .max(max_node_weight);

    // Scheduling state.
    let mut assignment: Vec<Option<(ProcId, usize)>> = vec![None; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut remaining_parents: Vec<usize> = (0..n).map(|i| dag.in_degree(NodeId::new(i))).collect();
    let mut scheduled = 0usize;

    // Sources are "scheduled" implicitly: they are inputs that live in slow
    // memory. We place them on processor 0, superstep 0 so that the assignment
    // covers every node, but they carry no compute work.
    let mut ready: Vec<NodeId> = Vec::new();
    for v in dag.nodes() {
        if dag.is_source(v) {
            assignment[v.index()] = Some((ProcId::new(0), 0));
            order.push(v);
            scheduled += 1;
            for &c in dag.children(v) {
                remaining_parents[c.index()] -= 1;
                if remaining_parents[c.index()] == 0 {
                    ready.push(c);
                }
            }
        } else if dag.in_degree(v) == 0 {
            ready.push(v);
        }
    }

    let mut superstep = 0usize;
    // `finished_before[v]` is true once v was assigned in a superstep strictly
    // before the current one (its value can have been communicated).
    let mut finished_before: Vec<bool> = (0..n).map(|i| assignment[i].is_some()).collect();

    while scheduled < n {
        superstep += 1;
        let mut load = vec![0.0f64; p];
        // Nodes assigned in *this* superstep, per processor, to allow same-proc
        // chains within a superstep.
        let mut assigned_here: Vec<Vec<bool>> = vec![vec![false; n]; p];
        let mut progressed = true;

        while progressed {
            progressed = false;
            // Candidate selection: eligible ready nodes sorted by priority.
            let mut candidates: Vec<NodeId> = ready
                .iter()
                .copied()
                .filter(|&v| assignment[v.index()].is_none())
                .collect();
            candidates.sort_by(|&a, &b| {
                priorities[b.index()]
                    .partial_cmp(&priorities[a.index()])
                    .unwrap()
                    .then(a.cmp(&b))
            });

            for v in candidates {
                // Determine which processors may execute v in this superstep:
                // every parent must be finished before this superstep, or be
                // assigned to that same processor within this superstep.
                let mut allowed: Vec<ProcId> = Vec::new();
                'proc: for pi in 0..p {
                    for &u in dag.parents(v) {
                        let ok = finished_before[u.index()] || assigned_here[pi][u.index()];
                        if !ok {
                            continue 'proc;
                        }
                    }
                    allowed.push(ProcId::new(pi));
                }
                if allowed.is_empty() {
                    continue;
                }
                // Skip nodes if every allowed processor is already full, unless
                // nothing has been placed in this superstep yet (guarantee
                // progress).
                let someone_below_quantum = allowed.iter().any(|&q| load[q.index()] < quantum);
                let superstep_empty = load.iter().all(|&l| l == 0.0);
                if !someone_below_quantum && !superstep_empty {
                    continue;
                }

                // Placement score: balance + communication.
                let mut best: Option<(f64, ProcId)> = None;
                for &q in &allowed {
                    let comm: f64 = dag
                        .parents(v)
                        .iter()
                        .filter(|&&u| {
                            let (pu, _) = assignment[u.index()].expect("parent scheduled");
                            pu != q && !dag.is_source(u)
                        })
                        .map(|&u| dag.memory_weight(u) * arch.g)
                        .sum();
                    let score = load[q.index()] + comm;
                    if best.map_or(true, |(s, _)| score < s - 1e-12) {
                        best = Some((score, q));
                    }
                }
                let (_, chosen) = best.expect("allowed is non-empty");
                if load[chosen.index()] >= quantum && !superstep_empty {
                    continue;
                }

                // Commit the assignment.
                assignment[v.index()] = Some((chosen, superstep));
                assigned_here[chosen.index()][v.index()] = true;
                load[chosen.index()] += dag.compute_weight(v);
                order.push(v);
                scheduled += 1;
                progressed = true;
                for &c in dag.children(v) {
                    remaining_parents[c.index()] -= 1;
                    if remaining_parents[c.index()] == 0 {
                        ready.push(c);
                    }
                }
            }
        }
        // Close the superstep: everything assigned so far is now visible to
        // other processors.
        for v in dag.nodes() {
            if assignment[v.index()].is_some() {
                finished_before[v.index()] = true;
            }
        }
    }

    let assignment: Vec<(ProcId, usize)> = assignment
        .into_iter()
        .map(|a| a.expect("all nodes scheduled"))
        .collect();
    let mut schedule = BspSchedule::new(p, assignment);
    schedule.compact_supersteps();
    BspSchedulingResult { schedule, order }
}

/// The original work-stealing simulation + BSP fold (original implementation).
pub fn cilk_reference(seed: u64, dag: &CompDag, arch: &Architecture) -> BspSchedulingResult {
    let p = arch.processors;
    let (owner, completion_order) = cilk_simulate_reference(seed, dag, p);
    let n = dag.num_nodes();

    // Fold the trace into supersteps: a node's superstep is at least one more
    // than the superstep of any parent on a different processor, at least the
    // superstep of any parent on the same processor, and at least the superstep
    // of the previous node executed by the same worker (the trace order must
    // stay realisable).
    let mut superstep = vec![0usize; n];
    let mut last_step_of_worker = vec![0usize; p];
    let mut assignment: Vec<(ProcId, usize)> = vec![(ProcId::new(0), 0); n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);

    // Sources first: processor 0, superstep 0.
    for v in dag.nodes() {
        if dag.is_source(v) {
            assignment[v.index()] = (ProcId::new(0), 0);
            order.push(v);
        }
    }
    for &v in &completion_order {
        let w = owner[v.index()];
        let mut s = last_step_of_worker[w.index()];
        for &u in dag.parents(v) {
            if dag.is_source(u) {
                continue;
            }
            let su = superstep[u.index()];
            let needed = if owner[u.index()] == w { su } else { su + 1 };
            s = s.max(needed);
        }
        superstep[v.index()] = s;
        last_step_of_worker[w.index()] = s;
        assignment[v.index()] = (w, s);
        order.push(v);
    }

    // Shift all non-source nodes by one superstep to leave superstep 0 to the
    // sources (cross-processor edges need strictly increasing supersteps).
    for v in dag.nodes() {
        if !dag.is_source(v) {
            assignment[v.index()].1 += 1;
        }
    }

    let mut schedule = BspSchedule::new(p, assignment);
    schedule.compact_supersteps();
    BspSchedulingResult { schedule, order }
}

/// The original work-stealing simulation (fresh buffers per call).
fn cilk_simulate_reference(
    seed: u64,
    dag: &CompDag,
    processors: usize,
) -> (Vec<ProcId>, Vec<NodeId>) {
    let n = dag.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining_parents: Vec<usize> = (0..n).map(|i| dag.in_degree(NodeId::new(i))).collect();
    let mut owner: Vec<ProcId> = vec![ProcId::new(0); n];
    let mut deques: Vec<VecDeque<NodeId>> = vec![VecDeque::new(); processors];

    // Seed the deques with the children of the sources that become ready, spread
    // round-robin over the workers (sources themselves are inputs).
    let mut initially_ready: Vec<NodeId> = Vec::new();
    for v in dag.nodes() {
        if dag.is_source(v) {
            for &c in dag.children(v) {
                remaining_parents[c.index()] -= 1;
                if remaining_parents[c.index()] == 0 {
                    initially_ready.push(c);
                }
            }
        }
    }
    initially_ready.sort();
    initially_ready.dedup();
    for (i, v) in initially_ready.into_iter().enumerate() {
        deques[i % processors].push_back(v);
    }

    // Event-driven simulation in virtual time: each worker has a time at which
    // it becomes idle; the earliest idle worker acts next.
    let mut worker_time = vec![0.0f64; processors];
    let mut completion_order: Vec<NodeId> = Vec::new();
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
                for &c in dag.children(v) {
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

/// The original DFS scheduler: original depth-first order (one `ready`
/// allocation per emitted node) on a single processor and superstep.
pub fn dfs_reference(dag: &CompDag) -> BspSchedulingResult {
    let n = dag.num_nodes();
    let mut remaining_parents: Vec<usize> = (0..n).map(|i| dag.in_degree(NodeId::new(i))).collect();
    let mut stack: Vec<NodeId> = dag.sources();
    stack.reverse();
    let mut order = Vec::with_capacity(n);
    let mut emitted = vec![false; n];
    while let Some(u) = stack.pop() {
        if emitted[u.index()] {
            continue;
        }
        emitted[u.index()] = true;
        order.push(u);
        let mut ready: Vec<NodeId> = Vec::new();
        for &c in dag.children(u) {
            remaining_parents[c.index()] -= 1;
            if remaining_parents[c.index()] == 0 {
                ready.push(c);
            }
        }
        ready.sort();
        for &c in ready.iter().rev() {
            stack.push(c);
        }
    }
    debug_assert_eq!(order.len(), n);
    let assignment = vec![(ProcId::new(0), 0usize); n];
    BspSchedulingResult {
        schedule: BspSchedule::new(1, assignment),
        order,
    }
}
