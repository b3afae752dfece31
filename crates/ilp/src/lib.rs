//! # mbsp-ilp — holistic MBSP schedulers
//!
//! This crate contains the holistic (memory-aware) schedulers of the reproduction:
//!
//! * [`formulation`] — the ILP representation of MBSP scheduling from Section 6.1 of
//!   the paper (compute/save/load/hasred/hasblue variables per node, processor and
//!   time step; synchronous and asynchronous objectives; optional no-recomputation
//!   constraints), together with [`formulation::ExactIlpScheduler`] which solves the
//!   ILP with the branch-and-bound solver of `lp-solver` and extracts an
//!   [`mbsp_model::MbspSchedule`]. Exact solving is viable for small DAGs — the same
//!   regime in which the paper runs its full formulation with COPT.
//! * `search` (crate-private) — the one search core behind the three search
//!   front-ends below: the seeded `hill_climb` (propose a batch of moves,
//!   evaluate it through one engine, adopt the winner), the index-ordered
//!   `fan_out` over scoped lanes — the workspace's only parallel shape —
//!   and the partition → search → merge `pass` over a borrowed DAG.
//!   Divide-and-conquer = `fan_out` + `hill_climb` per part;
//!   sharded = seed + `iterations` passes; incremental = the session's
//!   assignment + pass `0` restricted to the mutation cone. The §6.1
//!   holistic search is the sharded search at one shard: starting from the
//!   two-stage baseline (exactly like the paper warm-starts COPT), it
//!   evaluates every candidate assignment with the *true* MBSP cost
//!   (including cache-miss I/O). See PAPER.md, "Reproduction notes", for the
//!   COPT substitution.
//! * [`improver`] — what that evaluation does to a schedule:
//!   [`improver::canonical_bsp`] (the superstep structure of an assignment)
//!   and the post-optimiser ([`improver::post_optimize`],
//!   [`improver::PostOptimizer`]: superstep merging, redundant-I/O removal).
//! * [`engine`] — the candidate-evaluation engine behind the holistic search:
//!   first-class [`engine::Move`]s, one [`engine::EvaluationEngine`] per search
//!   (arena-backed conversion via `mbsp_cache::ConversionArena` plus the
//!   post-optimiser's two-row merge pass), and `(cost, index)`-ordered
//!   batch evaluation. It has one path and no switch.
//! * [`reference`](mod@reference) — the engine's ground truth, reached by name: the
//!   pre-engine clone-and-recost evaluation of one candidate
//!   ([`reference::evaluate_assignment`]), the differential tests' oracle
//!   in the pattern of `lp_solver::dense`.
//! * [`bsp_opt`] — a BSP-cost optimiser used as the stronger "ILP-based BSP
//!   scheduler" baseline of Table 3.
//! * [`partition_ilp`] — the one acyclic-bipartition ILP, balanced by a
//!   per-split [`Balance`]: node-count thirds for the divide-and-conquer
//!   method, a compute-mass window for the sharded search's splits, with a
//!   topological-prefix fallback.
//! * [`dnc`] — [`dnc::DivideAndConquerScheduler`], the divide-and-conquer scheduler
//!   of Section 6.3: recursive acyclic bipartition, a quotient-graph plan, per-part
//!   engine-backed scheduling over zero-copy `SubDagView`s on concurrent workers,
//!   and concatenation of the sub-schedules.
//! * [`shard`] — [`shard::ShardedHolisticScheduler`], the sharded evaluation
//!   service that scales the holistic search to the 100k-node instances:
//!   weight-aware shards (recursive ILP bipartition of a topological run
//!   quotient, with equal node-count topological shards as the legacy
//!   fallback), one `EvaluationEngine`-backed local search per shard, fanned
//!   out over scoped lanes and seeded from both the global
//!   incumbent's restriction and a shard-local greedy baseline, a deterministic `(cost, shard index)`-ordered
//!   merge whose boundary-repair pass re-evaluates cross-shard supersteps
//!   through the global evaluation engine (with capped move-replay salvage for
//!   rejected blocks), iterated over shifted partitions until the candidate
//!   budget is spent. An optional [`shard::IncumbentObserver`] fires at each
//!   deterministic merge boundary, yielding the monotone anytime-incumbent
//!   stream that the `mbsp_serve` daemon forwards to its clients.
//! * [`dirty_cone`] — [`dirty_cone::IncrementalScheduler`], incremental
//!   re-scheduling under DAG mutation: `mbsp_dag::DagDelta`s stream through
//!   [`dirty_cone::IncrementalScheduler::apply`], their touched nodes expand
//!   into a bounded forward/backward mutation cone, and only the topological
//!   shards intersecting the cone are re-searched (global shard indices keep
//!   the seed streams aligned with a full run) before the shared deterministic
//!   merge folds the winners back. Repairs are byte-identical for any worker
//!   count and never cost more than the stale incumbent
//!   (`tests/repair_determinism.rs`); `mbsp_gen`'s mutation-replay suite
//!   (`tests/mutation_replay.rs`) pins the underlying delta semantics against
//!   a full-rebuild oracle.
//!   [`dirty_cone::IncrementalScheduler::schedule`] runs the full sharded
//!   search on the session's own DAG and adopts the winner in place (what
//!   the `mbsp_serve` daemon's `schedule` request calls).
//! * [`session`] — binary session checkpoints for the incremental scheduler,
//!   composing the `mbsp_io` frame: [`IncrementalScheduler::checkpoint`]
//!   captures the mutated DAG, live order, incumbent assignment, pending set
//!   and full repair configuration; [`IncrementalScheduler::restore`]
//!   re-validates every invariant and continues byte-identically to an
//!   uninterrupted session.

pub mod bsp_opt;
pub mod dirty_cone;
pub mod dnc;
pub mod engine;
pub mod formulation;
pub mod improver;
pub mod partition_ilp;
pub mod reference;
mod search;
pub mod session;
pub mod shard;

pub use bsp_opt::BspIlpScheduler;
pub use dirty_cone::{
    dirty_shard_indices, mutation_cone, IncrementalScheduler, RepairConfig, RepairStats,
};
pub use dnc::{DivideAndConquerConfig, DivideAndConquerScheduler};
pub use engine::{EvalPath, EvaluationEngine, Move};
pub use formulation::{ExactIlpScheduler, IlpConfig, MbspIlpBuilder};
pub use improver::TieOrder;
pub use partition_ilp::{
    bipartition, bipartition_model, Balance, DNC_SPLIT_LIMITS, SHARD_SPLIT_LIMITS,
};
pub use shard::{
    topo_shards, weighted_shards, weighted_shards_solve, IncumbentObserver, IncumbentUpdate,
    PartitionSolve, ShardStrategy, ShardedHolisticScheduler, ShardedSearchConfig,
    ShardedSearchStats,
};

// Cancellation vocabulary, re-exported so downstream users of the schedulers
// (including the `mbsp` facade, which does not depend on `mbsp_pool` directly)
// can build tokens and inspect stop reasons.
pub use mbsp_pool::{CancelToken, StopReason};

// The checkpoint error type, re-exported for callers matching on
// [`IncrementalScheduler::restore`] failures without naming `mbsp_io`.
pub use mbsp_io::DecodeError;
