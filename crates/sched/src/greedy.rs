//! The BSPg-style greedy BSP scheduler (the paper's main baseline first stage).
//!
//! The scheduler builds the schedule superstep by superstep. Within a superstep it
//! repeatedly selects, among the *eligible* nodes (every parent either finished in
//! an earlier superstep, or already assigned to the same processor within the
//! current superstep), the node with the highest bottom-level priority, and places
//! it on the processor that minimises a weighted combination of
//!
//! * the processor's current compute load in this superstep (work balancing), and
//! * the communication volume caused by parents that live on other processors.
//!
//! A superstep is closed once every processor has accumulated at least the target
//! amount of work (the work quantum: twice the synchronisation cost `L`, so
//! that barriers are amortised, but never below 4 or the heaviest node
//! weight) or no eligible node remains.
//! The placement score adds the two terms above with equal weight. The paper
//! runs BSPg in this one configuration, so the scheduler has no other.
//!
//! ## Pass structure and complexity
//!
//! A superstep is built in *passes*. A pass walks the ready list — unassigned
//! nodes whose parents are all assigned — in priority order (bottom level
//! descending, ties by node id) and places every candidate that passes the
//! eligibility and quantum tests; nodes released during a pass are considered
//! from the next pass on, and a pass that places nothing closes the superstep.
//!
//! * **The ready list stays sorted across passes.** Released nodes collect in
//!   a side buffer; at pass start that buffer alone is sorted and merged into
//!   the list, and entries assigned since are dropped in the same sweep. The
//!   order is total (ids are unique), so the merged list is exactly what
//!   re-sorting all unassigned ready nodes would give — O(R + F log F) per
//!   pass for a list of R entries and F released nodes instead of O(R log R).
//! * **A superstep ends as soon as every processor's load has reached the
//!   quantum.** The quantum is positive, so the superstep is then non-empty,
//!   and the candidate loop cannot change anything: a candidate either has no
//!   allowed processor, or all its allowed processors are at quantum while the
//!   superstep is non-empty — both are skipped before any state is written.
//!   That holds for the rest of the pass and for the whole pass that would
//!   follow, which would therefore place nothing and close the superstep.
//!   Leaving at that point is exact, not a heuristic.
//!
//! With S supersteps, a ready list of width R, and n nodes / m edges, the
//! candidate loop does O((n + m) · P) work in total on the instances served
//! here (each node is visited about once before it is placed — a count-based
//! test holds visits ≤ n + m) and the merges add O(S · R + n log R); the loop
//! this replaced re-sorted and re-walked the whole list at least twice per
//! superstep, O(S · R · (log R + P · deg)). Adversarial shapes — many ready
//! nodes pinned to a processor that is full while another keeps receiving a
//! chain — still cost one list walk per pass.
//!
//! All working state is local to one call; the per-superstep "assigned here"
//! test reads the assignment array directly, and the superstep close touches
//! only the nodes assigned in that superstep. The original implementation is
//! retained verbatim as [`crate::reference::greedy_reference`]; the
//! differential tests assert both produce byte-identical schedules and order
//! hints.

use crate::{BspScheduler, BspSchedulingResult};
use mbsp_dag::topo::bottom_levels;
use mbsp_dag::{CompDag, DagLike, NodeId};
use mbsp_model::{Architecture, BspSchedule, ProcId};

/// Target compute work per processor per superstep, as a multiple of `L`.
/// Larger factors create fewer, longer supersteps.
pub(crate) const QUANTUM_LATENCY_FACTOR: f64 = 2.0;

/// Floor of the work quantum at every `L` (the heaviest node weight is a
/// second floor). At `L = 0` it is the whole quantum.
pub(crate) const MIN_QUANTUM: f64 = 4.0;

/// Greedy BSP list scheduler with superstep formation (BSPg-style baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyBspScheduler;

impl GreedyBspScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        GreedyBspScheduler
    }

    /// Generic counterpart of [`BspScheduler::schedule`]: runs the greedy list
    /// scheduler on any [`DagLike`] graph, including the zero-copy
    /// [`mbsp_dag::SubDagView`]. On a `CompDag` it is byte-identical to the trait
    /// path (which delegates here).
    pub fn schedule_dag<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        arch: &Architecture,
    ) -> BspSchedulingResult {
        self.schedule_counting_visits(dag, arch).0
    }

    /// The greedy list scheduler, returning with its schedule the number of
    /// candidate-loop iterations it took (what the complexity guard bounds).
    fn schedule_counting_visits<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        arch: &Architecture,
    ) -> (BspSchedulingResult, u64) {
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

        // Scheduling state. The assignment array doubles as the per-superstep
        // "assigned here" test: `assignment[u] == Some((q, current_superstep))`
        // is exactly the predicate the former `Vec<Vec<bool>>` scratch answered.
        let mut assignment: Vec<Option<(ProcId, usize)>> = vec![None; n];
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let mut remaining_parents: Vec<u32> = (0..n)
            .map(|i| dag.in_degree(NodeId::new(i)) as u32)
            .collect();
        let mut scheduled = 0usize;
        let mut list = ReadyList::default();

        // Sources are "scheduled" implicitly: they are inputs that live in slow
        // memory. We place them on processor 0, superstep 0 so that the assignment
        // covers every node, but they carry no compute work.
        for v in dag.nodes() {
            if dag.is_source(v) {
                assignment[v.index()] = Some((ProcId::new(0), 0));
                order.push(v);
                scheduled += 1;
                for c in dag.children(v) {
                    remaining_parents[c.index()] -= 1;
                    if remaining_parents[c.index()] == 0 {
                        list.newly_ready.push(c);
                    }
                }
            } else if dag.in_degree(v) == 0 {
                list.newly_ready.push(v);
            }
        }

        let mut superstep = 0usize;
        // `finished_before[v]` is true once v was assigned in a superstep strictly
        // before the current one (its value can have been communicated).
        let mut finished_before: Vec<bool> = assignment.iter().map(Option::is_some).collect();
        let mut load = vec![0.0f64; p];
        let mut allowed: Vec<ProcId> = Vec::with_capacity(p);
        let mut newly_assigned: Vec<NodeId> = Vec::new();
        let mut candidate_visits = 0u64;

        while scheduled < n {
            superstep += 1;
            load.fill(0.0);
            newly_assigned.clear();
            // A function of `load` alone, refreshed on every commit — the only
            // place `load` changes within a superstep.
            let mut superstep_empty = true;

            'superstep: loop {
                list.merge_newly_ready(&priorities, &assignment);
                let mut progressed = false;

                for ci in 0..list.ready.len() {
                    candidate_visits += 1;
                    let v = list.ready[ci];
                    // Determine which processors may execute v in this superstep:
                    // every parent must be finished before this superstep, or be
                    // assigned to that same processor within this superstep.
                    allowed.clear();
                    'proc: for pi in 0..p {
                        for u in dag.parents(v) {
                            let ok = finished_before[u.index()]
                                || assignment[u.index()] == Some((ProcId::new(pi), superstep));
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
                    if !someone_below_quantum && !superstep_empty {
                        continue;
                    }

                    // Placement score: balance + communication.
                    let mut best: Option<(f64, ProcId)> = None;
                    for &q in &allowed {
                        let comm: f64 = dag
                            .parents(v)
                            .filter(|&u| {
                                let (pu, _) = assignment[u.index()].expect("parent scheduled");
                                pu != q && !dag.is_source(u)
                            })
                            .map(|u| dag.memory_weight(u) * arch.g)
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
                    load[chosen.index()] += dag.compute_weight(v);
                    superstep_empty = load.iter().all(|&l| l == 0.0);
                    newly_assigned.push(v);
                    order.push(v);
                    scheduled += 1;
                    progressed = true;
                    for c in dag.children(v) {
                        remaining_parents[c.index()] -= 1;
                        if remaining_parents[c.index()] == 0 {
                            list.newly_ready.push(c);
                        }
                    }
                    // Exact early exit: once every processor is at quantum
                    // (so, the quantum being positive, the superstep is
                    // non-empty), each remaining candidate of this pass, and
                    // all of the pass that would follow, fails the
                    // `someone_below_quantum` test above and is skipped
                    // without touching any state — the superstep is over.
                    if load.iter().all(|&l| l >= quantum) {
                        break 'superstep;
                    }
                }
                if !progressed {
                    break;
                }
            }
            // Close the superstep: everything assigned in it is now visible to
            // other processors (O(assigned) instead of an O(V) sweep).
            for &v in &newly_assigned {
                finished_before[v.index()] = true;
            }
        }

        let assignment: Vec<(ProcId, usize)> = assignment
            .into_iter()
            .map(|a| a.expect("all nodes scheduled"))
            .collect();
        let mut schedule = BspSchedule::new(p, assignment);
        schedule.compact_supersteps();
        (BspSchedulingResult { schedule, order }, candidate_visits)
    }
}

/// The ready list: `ready` stays sorted across passes; `newly_ready` collects
/// nodes released during a pass and `merged` is the buffer they are merged
/// through at the next pass start.
#[derive(Default)]
struct ReadyList {
    ready: Vec<NodeId>,
    newly_ready: Vec<NodeId>,
    merged: Vec<NodeId>,
}

impl ReadyList {
    /// Pass start: sorts the nodes that became ready since the last pass and
    /// merges them into the sorted ready list, dropping entries assigned in the
    /// meantime. The order — priority descending, ties by node id — is total
    /// (ids are unique), so the result is exactly the list a full re-sort of the
    /// unassigned ready nodes would produce.
    fn merge_newly_ready(&mut self, priorities: &[f64], assignment: &[Option<(ProcId, usize)>]) {
        let by_priority = |a: &NodeId, b: &NodeId| {
            priorities[b.index()]
                .partial_cmp(&priorities[a.index()])
                .unwrap()
                .then(a.cmp(b))
        };
        self.newly_ready.sort_unstable_by(by_priority);
        self.merged.clear();
        let mut incoming = self.newly_ready.iter().copied().peekable();
        for &v in self
            .ready
            .iter()
            .filter(|v| assignment[v.index()].is_none())
        {
            while let Some(w) = incoming.next_if(|w| by_priority(w, &v).is_lt()) {
                self.merged.push(w);
            }
            self.merged.push(v);
        }
        self.merged.extend(incoming);
        self.newly_ready.clear();
        std::mem::swap(&mut self.ready, &mut self.merged);
    }
}

impl BspScheduler for GreedyBspScheduler {
    fn name(&self) -> &'static str {
        "greedy-bsp"
    }

    fn schedule(&self, dag: &CompDag, arch: &Architecture) -> BspSchedulingResult {
        self.schedule_dag(dag, arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_order_respects_precedence;
    use mbsp_dag::DagBuilder;
    use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
    use mbsp_gen::tiny_dataset;

    fn arch(p: usize, l: f64) -> Architecture {
        Architecture::new(p, 1e9, 1.0, l)
    }

    #[test]
    fn schedules_are_valid_on_the_tiny_dataset() {
        let sched = GreedyBspScheduler::new();
        for inst in tiny_dataset(42) {
            let a = arch(4, 10.0);
            let result = sched.schedule(&inst.dag, &a);
            result.schedule.validate(&inst.dag).unwrap_or_else(|e| {
                panic!("{}: invalid BSP schedule: {e}", inst.name);
            });
            assert_eq!(result.order.len(), inst.dag.num_nodes());
        }
    }

    #[test]
    fn order_hint_respects_precedence() {
        let sched = GreedyBspScheduler::new();
        let dag = random_layered_dag(&RandomDagConfig::default(), 5);
        let a = arch(4, 10.0);
        let result = sched.schedule(&dag, &a);
        assert_order_respects_precedence(&dag, &result.order);
    }

    #[test]
    fn candidate_visits_stay_linear_in_nodes_plus_edges() {
        // Timing-free complexity guard. Re-walking the whole ready list once
        // the processors are at quantum (the pre-merge pass loop) costs about
        // supersteps x ready-list width visits — two orders of magnitude above
        // this bound on the layered DAG.
        let layered = random_layered_dag(
            &RandomDagConfig {
                layers: 50,
                width: 400,
                edge_probability: 3.0 / 400.0,
                ..Default::default()
            },
            0x5CA1E,
        );
        let cg = mbsp_gen::cg::cg_dag("cg_n16_k3", 16, 3);
        let sched = GreedyBspScheduler::new();
        for dag in [&layered, &cg] {
            let size = (dag.num_nodes() + dag.num_edges()) as u64;
            for p in [1usize, 2, 4, 8] {
                for l in [0.0, 2.0, 10.0] {
                    let (_, visits) = sched.schedule_counting_visits(dag, &arch(p, l));
                    assert!(
                        visits <= size,
                        "{} p {p} l {l}: {visits} candidate visits for n + m = {size}",
                        dag.name()
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_chains_are_distributed() {
        // Two long independent chains and two processors: the scheduler should use
        // both processors.
        let mut b = DagBuilder::new("chains");
        let s = b.add_labeled_node(0.0, 1.0, "src").unwrap();
        let c1 = b.add_unit_nodes(20).unwrap();
        let c2 = b.add_unit_nodes(20).unwrap();
        b.add_edge(s, c1[0]).unwrap();
        b.add_edge(s, c2[0]).unwrap();
        b.add_chain(&c1).unwrap();
        b.add_chain(&c2).unwrap();
        let dag = b.build();
        let a = arch(2, 5.0);
        let result = GreedyBspScheduler::new().schedule(&dag, &a);
        result.schedule.validate(&dag).unwrap();
        let work = result.schedule.work_per_processor(&dag);
        assert!(
            work[0] > 0.0 && work[1] > 0.0,
            "both processors should get work: {work:?}"
        );
        // The chains should not be interleaved across processors: few cross edges.
        assert!(result.schedule.cross_processor_edges(&dag) <= 4);
    }

    #[test]
    fn single_processor_degenerates_to_one_superstep_per_quantum() {
        let mut b = DagBuilder::new("chain");
        let s = b.add_labeled_node(0.0, 1.0, "src").unwrap();
        let c = b.add_unit_nodes(10).unwrap();
        b.add_edge(s, c[0]).unwrap();
        b.add_chain(&c).unwrap();
        let dag = b.build();
        let a = arch(1, 100.0);
        let result = GreedyBspScheduler::new().schedule(&dag, &a);
        result.schedule.validate(&dag).unwrap();
        // With a huge L the quantum is large and everything fits in few supersteps.
        assert!(result.schedule.num_supersteps() <= 2);
    }

    #[test]
    fn larger_latency_means_fewer_supersteps() {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 6,
                width: 6,
                ..Default::default()
            },
            9,
        );
        let small_l = GreedyBspScheduler::new().schedule(&dag, &arch(4, 1.0));
        let large_l = GreedyBspScheduler::new().schedule(&dag, &arch(4, 50.0));
        assert!(
            large_l.schedule.num_supersteps() <= small_l.schedule.num_supersteps(),
            "L=50 should not need more supersteps than L=1"
        );
    }
}
