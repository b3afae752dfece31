//! # mbsp-sched — BSP baseline schedulers
//!
//! The first stage of the paper's two-stage baseline is a multiprocessor BSP
//! scheduler that ignores the memory bound. This crate provides the schedulers used
//! in the experiments:
//!
//! * [`GreedyBspScheduler`] — a reimplementation of the BSPg-style greedy scheduler
//!   of Papp et al. (SPAA 2024): list scheduling with bottom-level priorities,
//!   superstep formation driven by the synchronisation cost `L`, and a placement
//!   rule that balances per-superstep work against the communication volume caused
//!   by cross-processor edges.
//! * [`CilkScheduler`] — a simulation of the Cilk work-stealing scheduler
//!   (Blumofe & Leiserson) whose execution trace is converted into a BSP schedule;
//!   together with LRU eviction it forms the paper's "practical" baseline.
//! * [`DfsScheduler`] — the single-processor depth-first schedule used as the
//!   baseline for the red–blue pebbling experiments (`P = 1`).
//! * [`quotient_plan`] — the adjusted BSPg planner used by the divide-and-conquer
//!   scheduler on the quotient graph, where a part may be assigned several
//!   processors at once.
//!
//! All schedulers implement the [`BspScheduler`] trait and produce a
//! [`mbsp_model::BspSchedule`], plus an explicit per-node ordering hint used by the
//! BSP→MBSP conversion in `mbsp-cache`.
//!
//! Each scheduler has two ways in: the object-safe [`BspScheduler::schedule`]
//! on a `CompDag`, and its generic `schedule_dag` on any
//! [`mbsp_dag::DagLike`] graph (the sharded search seeds shards on zero-copy
//! views through it). A call keeps its working state in flat per-node arrays
//! of its own: O(1) allocations per superstep, pruned ready lists, and no
//! per-superstep `Vec<Vec<bool>>`. The original nested-`Vec` implementations
//! are retained verbatim in [`mod@reference`] as differential oracles — the
//! tests in `tests/scheduler_differential.rs` assert byte-identical schedules
//! and pin each baseline's output by hash — following the workspace's oracle
//! convention.

pub mod cilk;
pub mod dfs;
pub mod greedy;
pub mod quotient_plan;
pub mod reference;

pub use cilk::CilkScheduler;
pub use dfs::DfsScheduler;
pub use greedy::GreedyBspScheduler;
pub use quotient_plan::{QuotientPlan, QuotientPlanner};

use mbsp_dag::{CompDag, NodeId};
use mbsp_model::{Architecture, BspSchedule};

/// The output of a BSP scheduling stage: the assignment of nodes to processors and
/// supersteps, plus a global order hint describing the intended execution order of
/// the nodes on each processor (used when converting to an MBSP schedule).
#[derive(Debug, Clone)]
pub struct BspSchedulingResult {
    /// The BSP schedule (processor and superstep per node).
    pub schedule: BspSchedule,
    /// A global node order consistent with the schedule; within a processor and
    /// superstep, nodes are intended to execute in this relative order.
    pub order: Vec<NodeId>,
}

/// A scheduler producing BSP schedules (the memory-oblivious first stage).
pub trait BspScheduler {
    /// Human-readable name of the scheduler (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Computes a BSP schedule of `dag` on `arch`, ignoring the memory bound.
    fn schedule(&self, dag: &CompDag, arch: &Architecture) -> BspSchedulingResult;
}

/// Asserts that `order` covers every node of `dag` exactly once and respects all
/// precedence edges (every node appears after each of its parents).
///
/// This is the shared schedule-order validation used by the scheduler tests (it
/// replaces three copy-pasted `pos: HashMap` blocks); it runs on a flat position
/// array, so it is cheap enough for large differential sweeps. Panics with the
/// offending edge on violation.
pub fn assert_order_respects_precedence(dag: &CompDag, order: &[NodeId]) {
    assert_eq!(
        order.len(),
        dag.num_nodes(),
        "order hint must cover every node exactly once"
    );
    let mut pos = vec![usize::MAX; dag.num_nodes()];
    for (i, &v) in order.iter().enumerate() {
        assert_eq!(
            pos[v.index()],
            usize::MAX,
            "node {v} appears twice in the order hint"
        );
        pos[v.index()] = i;
    }
    for (u, v) in dag.edges() {
        assert!(
            pos[u.index()] < pos[v.index()],
            "order hint violates edge {u}->{v}"
        );
    }
}
