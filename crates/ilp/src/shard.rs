//! Sharded holistic search over zero-copy sub-DAG views.
//!
//! On the 100k-node `large_dataset` instances a single-incumbent holistic
//! search barely moves: every candidate evaluation converts and re-costs the
//! *whole* schedule (`O(V)` per candidate), so a fixed move budget explores a
//! vanishing neighbourhood. This module turns the search into a sharded
//! evaluation service:
//!
//! 1. **Partition** — [`weighted_shards`] balances per-shard *compute mass*
//!    and penalises cut edges: the DAG is quotiented over contiguous topo
//!    runs (a few runs per shard), and the small run-quotient is recursively
//!    bipartitioned by the warm-started [`bipartition`](crate::bipartition)
//!    ILP under a [`Balance::Mass`]. Side 0 of every split receives the
//!    lower part indices, so each edge satisfies `part(u) ≤ part(v)` and the
//!    quotient is acyclic by construction. [`topo_shards`] (equal node-count
//!    blocks) is retained as the differential fallback/oracle and the legacy
//!    strategy. Keeping shard
//!    boundaries aligned with the precedence order is the BSP-bridging-model
//!    discipline: merged schedules stay superstep-valid.
//! 2. **Search** — every shard becomes a zero-copy [`SubDagView`]
//!    ([`SubDagView::with_inputs`]: external parents join as pure sources whose
//!    values are already in slow memory) and gets its own
//!    [`EvaluationEngine`](crate::EvaluationEngine)-backed hill climb, fanned
//!    out over scoped lanes. Per-shard candidate evaluations cost
//!    `O(V/k)` instead of `O(V)`, which is where the wall-clock win comes from
//!    even on one core.
//!    With [`ShardedSearchConfig::shard_local_seed`] the search additionally
//!    seeds from a *shard-local* greedy baseline (the `DagLike`-generic
//!    [`mbsp_sched::GreedyBspScheduler`] run directly on the view), adopted as
//!    the first accepted delta when it beats the restriction of the global
//!    incumbent — a restriction of a global schedule is rarely a good schedule
//!    of the sub-problem.
//! 3. **Merge** — per-shard winning assignments are folded back into the global
//!    assignment one shard at a time, ordered by `(local cost delta, shard
//!    index)` — a total order, so the result is identical for any worker count.
//!    Each fold is accepted only if the **global** cost improves, re-evaluated
//!    through the shared incremental machinery (arena conversion + the
//!    post-optimiser's superstep merging): this boundary-repair
//!    pass re-derives and re-costs the cross-shard supersteps, so local wins
//!    that break the boundary are rejected rather than merged blindly. A
//!    rejected shard gets a prefix salvage: up to four of its accepted deltas
//!    are replayed one at a time while the global cost keeps improving. Every
//!    cost here is [`ShardedSearchConfig::cost_model`]'s; the salvage cap is
//!    a constant, not configuration.
//!
//! 4. **Iterate** — with [`ShardedSearchConfig::iterations`] `> 1` the
//!    pipeline re-partitions around the merged incumbent with *shifted* cut
//!    offsets (a golden-ratio fraction of a run per iteration), so
//!    improvements blocked by an old shard boundary land inside a shard on
//!    the next pass. Every iteration spends the same per-shard budget; the
//!    candidate budget of a run is `iterations · k · max_rounds ·
//!    moves_per_round`.
//!
//! The final schedule is therefore never worse than the baseline incumbent,
//! and every budget above is a count — rounds, moves, passes, and the
//! partitioner's branch-and-bound nodes and pivots — so a run that reports
//! [`StopReason::Completed`] is a function of (DAG, architecture, config,
//! seed), byte-identical for any worker count: `tests/shard_determinism.rs`
//! asserts it for both strategies, also when the partition was cut by its
//! pivot budget. The configuration holds no clock. The one thing that can
//! read one is the caller's `CancelToken`, when the caller armed it with a
//! deadline ([`CancelToken::expiring_after`]); it is observed at round and
//! pass boundaries and at the node pops of the partitioner's branch and
//! bound, and a run it cuts says so (`DeadlineExpired` / `Cancelled`) and
//! returns a valid schedule that costs no more than its seed, but not a
//! reproducible one.
//!
//! Steps 2 and 3 are one pass of the shared search core (`crate::search`);
//! this module owns the partitioners, the configuration and the front-end
//! that seeds the global incumbent and iterates the pass.

use crate::improver::TieOrder;
use crate::partition_ilp::{bipartition_model, solve, Balance, SHARD_SPLIT_LIMITS};
use crate::search::{Incumbent, ShardedSearch};
use lp_solver::{MipStop, SolverLimits};
use mbsp_dag::{AcyclicPartition, CompDag, NodeId, NodeWeights, SubDagView, TopologicalOrder};
use mbsp_model::{Architecture, CostModel, MbspInstance, MbspSchedule, ProcId};
use mbsp_pool::{CancelToken, StopReason, WorkerPool};
use mbsp_sched::BspSchedulingResult;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How [`ShardedHolisticScheduler`] partitions the DAG into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Equal node-count contiguous topological blocks ([`topo_shards`]) — the
    /// legacy strategy, retained as the differential fallback/oracle.
    Topo,
    /// Compute-mass-balanced, cut-minimising shards ([`weighted_shards`]):
    /// recursive warm-started ILP bipartition of a quotient over contiguous
    /// topological runs.
    #[default]
    Weighted,
}

/// Configuration of [`ShardedHolisticScheduler`] and of every
/// [`IncrementalScheduler`](crate::IncrementalScheduler) session. The search
/// replays at most 4 deltas of a rejected shard (see
/// [`ShardedSearchStats::salvaged_moves`]).
#[derive(Debug, Clone, Copy)]
pub struct ShardedSearchConfig {
    /// The objective every seed, candidate and merge fold is costed under
    /// (synchronous by default, as in the paper's main experiments). The
    /// `mbsp_serve` daemon serves the synchronous cost only.
    pub cost_model: CostModel,
    /// Number of shards `k`. The shard count shapes the partition and the
    /// per-shard seeds, so it *does* affect the result. `0` (the default) is
    /// chosen by size, per search: one shard on a DAG below 2,048 nodes, four
    /// at or above it — a function of the DAG alone, so a session's shape
    /// follows its current DAG. At paper scale that is the whole-DAG search
    /// the reproduction reports.
    pub num_shards: usize,
    /// Number of worker threads running shard searches. `0` resolves via
    /// `MBSP_BENCH_THREADS`, falling back to the machine's parallelism. The
    /// worker count never affects the result, only the wall-clock.
    pub workers: usize,
    /// Maximum local-search rounds per shard.
    pub max_rounds: usize,
    /// Candidate moves evaluated per round *per shard* (so `k` shards spend at
    /// most `k · max_rounds · moves_per_round` candidate evaluations, the same
    /// budget shape as one shard with `k · moves_per_round` moves per round).
    pub moves_per_round: usize,
    /// RNG seed; shard `s` searches with seed `seed ⊕ f(s)`.
    pub seed: u64,
    /// Stop a shard's search after this many *consecutive* rounds without an
    /// improvement; `0` disables early stopping, so the shard spends its whole
    /// round budget. The default `1` ends a search at its first stale
    /// best-of-batch round, which suits wide batches; deep per-shard hill
    /// climbs with small rounds want `0`, since one unlucky candidate should
    /// not forfeit the remaining budget.
    pub stale_round_limit: usize,
    /// Partitioning strategy (see [`ShardStrategy`]).
    pub strategy: ShardStrategy,
    /// Number of partition/search/merge passes. Each pass re-partitions around
    /// the merged incumbent with a shifted cut offset (see
    /// [`weighted_shards`]) and spends the full per-shard budget again, so the
    /// total candidate budget scales linearly with this knob. `0` behaves like
    /// `1`.
    pub iterations: usize,
    /// Seed every shard's search from a shard-local greedy baseline (the
    /// `DagLike`-generic [`mbsp_sched::GreedyBspScheduler`] run on the shard's
    /// view) in addition to the restriction of the global incumbent; the
    /// better of the two starts the hill climb. Costs one extra evaluation per
    /// shard.
    pub shard_local_seed: bool,
    /// Granularity of the weighted partitioner: the DAG is quotiented over
    /// `runs_per_shard · k` contiguous topological runs before the recursive
    /// ILP bipartition (clamped to `[k, n]`). More runs give the ILP finer cut
    /// placement at a slightly larger (still tiny) model.
    pub runs_per_shard: usize,
    /// Relative compute-mass tolerance of every weighted bipartition step.
    pub mass_tolerance: f64,
}

impl Default for ShardedSearchConfig {
    fn default() -> Self {
        ShardedSearchConfig {
            cost_model: CostModel::Synchronous,
            num_shards: 0,
            workers: 0,
            max_rounds: 60,
            moves_per_round: 30,
            seed: 0x5EED,
            stale_round_limit: 1,
            strategy: ShardStrategy::Weighted,
            iterations: 1,
            shard_local_seed: true,
            runs_per_shard: 8,
            mass_tolerance: 0.25,
        }
    }
}

/// Statistics of one sharded search run.
#[derive(Debug, Clone)]
pub struct ShardedSearchStats {
    /// Number of shard searches run (summed over all iterations).
    pub shards: usize,
    /// Shards whose local search improved on its local baseline.
    pub improved_shards: usize,
    /// Shard merges accepted by the global boundary-repair evaluation.
    pub accepted_shards: usize,
    /// Schedules converted and costed. Per shard search: its seed, the
    /// shard-local greedy seed when one was offered, and every batch
    /// candidate (a round winner is not evaluated again — its batch keeps its
    /// schedule). Globally: three seed incumbents — the baseline's assignment
    /// in its canonical structure once per candidate tie order, and the
    /// baseline's own structure — plus one per merge fold and per replayed
    /// delta.
    pub evaluations: u64,
    /// The tie order the search ran in: the one whose canonical conversion of
    /// the baseline's assignment was cheaper (breadth-first on a tie).
    pub tie_order: TieOrder,
    /// Cost of the returned schedule under the configured cost model.
    pub final_cost: f64,
    /// Per-shard compute mass of the first iteration's partition (what the
    /// weighted partitioner balances; empty when no partition was built).
    pub shard_compute_mass: Vec<f64>,
    /// Cut edges of the first iteration's partition.
    pub cut_edges: usize,
    /// Individually replayed deltas kept by the merge's prefix salvage: when
    /// the global boundary-repair evaluation rejects a shard's whole winning
    /// block, at most 4 of its accepted deltas are replayed one at a time
    /// while the global cost keeps improving (each replay is one global
    /// evaluation, so the cap bounds the merge cost).
    pub salvaged_moves: u64,
    /// Partition/search/merge iterations executed.
    pub iterations: usize,
    /// Supersteps the conversions behind `evaluations` (and the shard
    /// searches' rebases) simulated.
    pub simulated_supersteps: u64,
    /// Supersteps they copied from a base instead of simulating them.
    pub skipped_supersteps: u64,
    /// Why the run stopped. `Completed` means no shard-search round and no
    /// pass was skipped and no partition split cut short: the run spent its
    /// budget of counts and is reproducible. Otherwise the signal that did
    /// (a cancellation outranks the deadline).
    pub stop_reason: StopReason,
}

/// Partitions `dag` into `num_shards` acyclic shards by cutting a topological
/// order into contiguous, near-equal blocks.
///
/// Every edge goes from a node to one of equal or higher topological position,
/// so the quotient graph only has forward edges and is acyclic for *any* block
/// count — no partitioning ILP needed at 100k-node scale. Deterministic.
pub fn topo_shards(dag: &CompDag, num_shards: usize) -> AcyclicPartition {
    let n = dag.num_nodes();
    let k = num_shards.clamp(1, n.max(1));
    let topo = TopologicalOrder::of(dag);
    let mut part = vec![0usize; n];
    for (pos, &v) in topo.order().iter().enumerate() {
        // Block of this position: floor(pos * k / n) is monotone in pos and
        // yields blocks of size within one of each other.
        part[v.index()] = (pos * k) / n.max(1);
    }
    AcyclicPartition::new(dag, part, k).expect("topological blocks form an acyclic partition")
}

/// Assigns every node to one of `c` contiguous, compute-mass-balanced blocks of
/// the topological order. `cut_offset ∈ [0, 1)` shifts every interior block
/// boundary *earlier* by that fraction of a block's mass — the lever the
/// iterated search uses to move cuts across old shard boundaries. Every block
/// is non-empty (mass ties are broken towards the earlier cut; when the DAG
/// carries no compute mass, unit masses make this the node-count split).
fn contiguous_mass_blocks(
    dag: &CompDag,
    topo: &TopologicalOrder,
    c: usize,
    cut_offset: f64,
) -> Vec<usize> {
    let n = dag.num_nodes();
    let c = c.clamp(1, n.max(1));
    let weight = |v: NodeId| -> f64 {
        let w = dag.compute_weight(v);
        if w > 0.0 {
            w
        } else {
            0.0
        }
    };
    let mut total: f64 = topo.order().iter().map(|&v| weight(v)).sum();
    let unit_mass = total <= 0.0;
    if unit_mass {
        total = n as f64;
    }
    let step = total / c as f64;
    let mut part = vec![0usize; n];
    let mut block = 0usize;
    let mut in_block = 0usize;
    let mut acc = 0.0f64;
    for (pos, &v) in topo.order().iter().enumerate() {
        if block + 1 < c {
            let remaining_positions = n - pos;
            let remaining_blocks = c - block;
            // The boundary before block b+1 sits at mass (b + 1 - offset)·step.
            let target = ((block + 1) as f64 - cut_offset) * step;
            let must_advance = remaining_positions < remaining_blocks;
            if in_block > 0 && (must_advance || acc >= target - 1e-12) {
                block += 1;
                in_block = 0;
            }
        }
        part[v.index()] = block;
        in_block += 1;
        acc += if unit_mass { 1.0 } else { weight(v) };
    }
    part
}

/// Partitions `dag` into `num_shards` acyclic shards balancing per-shard
/// *compute mass* and minimising cut edges — the paper's acyclic-bipartition
/// discipline applied at shard granularity.
///
/// The DAG is first quotiented over `runs_per_shard · k` contiguous
/// mass-balanced topological runs (`contiguous_mass_blocks`; always acyclic),
/// then the small run-quotient — whose edge weights are the multiplicities of
/// the aggregated original edges — is recursively split by the warm-started
/// [`bipartition`](crate::bipartition) ILP under a [`Balance::Mass`] window of
/// `mass_tolerance`. Side 0 of every split takes the lower part indices, so
/// every original edge satisfies `part(u) ≤ part(v)` and the result is
/// acyclic by construction for *any* split the ILP returns.
///
/// `cut_offset ∈ [0, 1)` shifts the run boundaries (see
/// `contiguous_mass_blocks`); the iterated search passes a golden-ratio
/// multiple per iteration so repeated partitions straddle each other's cuts.
/// Deterministic: the ILPs are solved under count limits from deterministic
/// warm starts, and every tie-break is index-based.
pub fn weighted_shards(
    dag: &CompDag,
    num_shards: usize,
    runs_per_shard: usize,
    mass_tolerance: f64,
    cut_offset: f64,
) -> AcyclicPartition {
    weighted_shards_solve(
        dag,
        num_shards,
        runs_per_shard,
        mass_tolerance,
        cut_offset,
        SHARD_SPLIT_LIMITS,
        None,
    )
    .0
}

/// What the branch-and-bound solves behind one [`weighted_shards_solve`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionSolve {
    /// Branch-and-bound nodes explored, summed over the recursive splits.
    pub bnb_nodes: usize,
    /// Did any split stop on a limit (node or pivot count) with its cut
    /// feasible but not proven optimal? Such a partition is as reproducible
    /// as a finished one; one the caller's token cancelled is not.
    pub truncated: bool,
    /// Variables of the root split's model, the largest one solved.
    pub root_variables: usize,
    /// Rows of the root split's model.
    pub root_constraints: usize,
}

/// [`weighted_shards`] with explicit solver `limits` for every split (it uses
/// [`SHARD_SPLIT_LIMITS`]) and, when given, the job's stop
/// signal, also returning what the solves did. A split `cancel` stops keeps
/// its incumbent — at worst the prefix split — so the partition is valid
/// whenever the signal arrives.
pub fn weighted_shards_solve(
    dag: &CompDag,
    num_shards: usize,
    runs_per_shard: usize,
    mass_tolerance: f64,
    cut_offset: f64,
    limits: SolverLimits,
    cancel: Option<&CancelToken>,
) -> (AcyclicPartition, PartitionSolve) {
    let n = dag.num_nodes();
    let k = num_shards.clamp(1, n.max(1));
    if k <= 1 || n == 0 {
        return (AcyclicPartition::trivial(dag), PartitionSolve::default());
    }
    let topo = TopologicalOrder::of(dag);
    let c = (k * runs_per_shard.max(1)).clamp(k, n);
    let run_of = contiguous_mass_blocks(dag, &topo, c, cut_offset);

    // Run quotient: per-run mass and per-run-pair edge multiplicity. BTreeMap
    // keeps the edge order deterministic.
    let mut run_weights = vec![NodeWeights::new(0.0, 0.0); c];
    for v in dag.nodes() {
        let r = run_of[v.index()];
        run_weights[r] = NodeWeights::new(
            run_weights[r].compute + dag.compute_weight(v),
            run_weights[r].memory + dag.memory_weight(v),
        );
    }
    let mut multiplicity: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for (u, v) in dag.edges() {
        let (ru, rv) = (run_of[u.index()], run_of[v.index()]);
        if ru != rv {
            *multiplicity.entry((ru, rv)).or_insert(0.0) += 1.0;
        }
    }

    // Recursive weight-aware split of the run list into k parts.
    let mut splitter = RunSplitter {
        run_weights: &run_weights,
        multiplicity: &multiplicity,
        mass_tolerance,
        limits,
        cancel,
        part_of_run: vec![0usize; c],
        solve: PartitionSolve::default(),
    };
    let runs: Vec<usize> = (0..c).collect();
    splitter.split(&runs, k, 0);
    let RunSplitter {
        part_of_run, solve, ..
    } = splitter;

    let part: Vec<usize> = (0..n).map(|i| part_of_run[run_of[i]]).collect();
    let partition = match AcyclicPartition::new(dag, part, k) {
        Ok(p) => p,
        // Defensive: the recursive split guarantees part(u) ≤ part(v) per
        // edge, but if a degenerate split ever slipped through, fall back to
        // the direct mass-balanced contiguous cut (always valid).
        Err(_) => {
            let direct = contiguous_mass_blocks(dag, &topo, k, cut_offset);
            AcyclicPartition::new(dag, direct, k)
                .expect("contiguous mass blocks form an acyclic partition")
        }
    };
    (partition, solve)
}

/// The recursive split of a run quotient: the quotient and the solver
/// settings every split shares, and what the splits produce.
struct RunSplitter<'a> {
    run_weights: &'a [NodeWeights],
    multiplicity: &'a BTreeMap<(usize, usize), f64>,
    mass_tolerance: f64,
    limits: SolverLimits,
    cancel: Option<&'a CancelToken>,
    part_of_run: Vec<usize>,
    solve: PartitionSolve,
}

impl RunSplitter<'_> {
    /// Recursively assigns the runs in `runs` (ascending run indices) to `k`
    /// consecutive part indices starting at `base`, bipartitioning by compute
    /// mass with cut-multiplicity objective. Side 0 keeps the lower part
    /// indices; the quotient-edge acyclicity constraint of the ILP
    /// (`x_u ≤ x_v`) guarantees every cross-side edge points from side 0 to
    /// side 1.
    fn split(&mut self, runs: &[usize], k: usize, base: usize) {
        if k <= 1 || runs.len() <= 1 {
            for &r in runs {
                self.part_of_run[r] = base;
            }
            return;
        }
        let kl = k - k / 2; // side 0 (earlier runs) gets the larger half on odd k
        let kr = k / 2;

        // Build the induced sub-quotient over `runs`: local index = position in
        // the ascending run list, so edges only point forward and the graph is
        // acyclic.
        let local_of: BTreeMap<usize, usize> =
            runs.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let weights: Vec<NodeWeights> = runs.iter().map(|&r| self.run_weights[r]).collect();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut edge_weights: Vec<f64> = Vec::new();
        for (&(ru, rv), &m) in self.multiplicity {
            if let (Some(&lu), Some(&lv)) = (local_of.get(&ru), local_of.get(&rv)) {
                edges.push((lu, lv));
                edge_weights.push(m);
            }
        }
        let sub = CompDag::from_edges("runs", weights, &edges).expect("run quotient is acyclic");
        let balance = Balance::Mass {
            fraction: kr as f64 / k as f64,
            tolerance: self.mass_tolerance,
            min_side0: kl,
            min_side1: kr,
        };
        let lp = bipartition_model(&sub, &edge_weights, &balance);
        // Only the root split holds every run.
        if runs.len() == self.part_of_run.len() {
            self.solve.root_variables = lp.0.num_variables();
            self.solve.root_constraints = lp.0.num_constraints();
        }
        let (split, bnb_nodes, stop) = solve(&sub, lp, self.limits, self.cancel);
        self.solve.bnb_nodes += bnb_nodes;
        self.solve.truncated |= stop != MipStop::Gap;

        let mut side0: Vec<usize> = Vec::new();
        let mut side1: Vec<usize> = Vec::new();
        if split.num_parts() == 2 {
            for (i, &r) in runs.iter().enumerate() {
                if split.part_of(NodeId::new(i)) == 0 {
                    side0.push(r);
                } else {
                    side1.push(r);
                }
            }
        }
        if side0.len() < kl || side1.len() < kr {
            // Degenerate split (the count floors make this unreachable through
            // the ILP or its prefix fallback, but stay safe): prefix split by
            // count.
            side0 = runs[..kl].to_vec();
            side1 = runs[kl..].to_vec();
        }
        self.split(&side0, kl, base);
        self.split(&side1, kr, base + kl);
    }
}

/// The partition one iteration of the sharded search runs on: dispatches on
/// [`ShardedSearchConfig::strategy`], with the iteration index driving the
/// golden-ratio cut-offset shift of the weighted strategy. Iteration `0` uses
/// offset `0`, so single-iteration runs (and the dirty-cone repair, which
/// always repairs iteration 0's partition) are unaffected by the shift
/// schedule. The partition is a function of the DAG, `iteration`, `k` and the
/// strategy's fields of `config` — unless `cancel`, handed to every split's
/// branch and bound, cut one short.
pub(crate) fn shard_partition(
    dag: &CompDag,
    k: usize,
    config: &ShardedSearchConfig,
    iteration: usize,
    cancel: &CancelToken,
) -> AcyclicPartition {
    match config.strategy {
        ShardStrategy::Topo => topo_shards(dag, k),
        ShardStrategy::Weighted => {
            let offset = ((iteration as f64) * 0.618_033_988_749_894_8).fract();
            weighted_shards_solve(
                dag,
                k,
                config.runs_per_shard,
                config.mass_tolerance,
                offset,
                SHARD_SPLIT_LIMITS,
                Some(cancel),
            )
            .0
        }
    }
}

/// Builds the boundary sub-problem of one part: the zero-copy
/// [`SubDagView::with_inputs`] view of its core nodes plus the local ids of
/// the required outputs (core nodes whose value is needed in another part, so
/// the part's schedule must save them). Shared by the sharded search and the
/// divide-and-conquer scheduler.
pub fn part_view<'a>(
    dag: &'a CompDag,
    partition: &AcyclicPartition,
    core: &[NodeId],
    index: usize,
    kind: &str,
) -> (SubDagView<'a>, Vec<NodeId>) {
    let view = SubDagView::with_inputs(dag, core, format!("{}::{kind}{index}", dag.name()));
    let required = view
        .core_nodes()
        .filter(|&local| {
            let g = view.to_global(local);
            dag.children(g)
                .iter()
                .any(|c| partition.part_of(*c) != index)
        })
        .collect();
    (view, required)
}

/// One anytime-incumbent improvement observed at a deterministic merge
/// boundary of the sharded search.
///
/// The update stream is part of the determinism contract: for a fixed
/// instance, baseline and [`ShardedSearchConfig`], the sequence of updates
/// (their count, `iteration`, `cost` and `evaluations` fields) is
/// byte-identical for any worker count, because emissions happen only after
/// the deterministic merge fold of a pass — never from inside a
/// shard worker. Costs are strictly decreasing along the stream, so a consumer
/// (e.g. the `mbsp_serve` daemon streaming incumbents to a client) observes a
/// monotone, reproducible improvement sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct IncumbentUpdate {
    /// Position in the improvement stream (0 = the seed incumbent).
    pub sequence: u64,
    /// The partition/search/merge iteration that produced this incumbent
    /// (0 for the seed incumbent emitted before the first iteration).
    pub iteration: usize,
    /// Cost of the incumbent under the configured cost model.
    pub cost: f64,
    /// Schedules converted and costed so far (global engine + finished
    /// shards; counted as in [`ShardedSearchStats::evaluations`]).
    pub evaluations: u64,
}

/// Callback invoked by [`ShardedHolisticScheduler`] at every incumbent
/// improvement; shared so one observer can serve a whole request fan-out.
pub type IncumbentObserver = Arc<dyn Fn(&IncumbentUpdate) + Send + Sync>;

/// The sharded holistic scheduler: partition, per-shard engine-backed search on
/// scoped lanes, deterministic boundary-repaired merge.
#[derive(Clone, Default)]
pub struct ShardedHolisticScheduler {
    config: ShardedSearchConfig,
    pool: WorkerPool,
    cancel: Option<CancelToken>,
    observer: Option<IncumbentObserver>,
}

impl std::fmt::Debug for ShardedHolisticScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHolisticScheduler")
            .field("config", &self.config)
            .field("pool", &self.pool)
            .field("cancel", &self.cancel)
            .field("observer", &self.observer.as_ref().map(|_| "<callback>"))
            .finish()
    }
}

impl ShardedHolisticScheduler {
    /// Creates a scheduler with the default configuration.
    pub fn new() -> Self {
        ShardedHolisticScheduler::default()
    }

    /// Creates a scheduler with an explicit configuration.
    pub fn with_config(config: ShardedSearchConfig) -> Self {
        ShardedHolisticScheduler {
            config,
            pool: WorkerPool::default(),
            cancel: None,
            observer: None,
        }
    }

    /// Replaces the lane-permit count the shard searches take their lanes from
    /// (the default is the process-wide [`WorkerPool::shared`] count).
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = pool;
        self
    }

    /// Attaches a cancellation token, with whatever expiry the caller armed
    /// it with ([`CancelToken::expiring_after`]); the search observes it
    /// **only at deterministic cut points** — before each partition/search/merge
    /// iteration, at every node pop of the partition's branch and bound and
    /// at every shard-search round boundary — so a run cancelled
    /// before it starts returns the seed incumbent byte-identically for any
    /// worker count, and a run cancelled mid-flight still returns a valid,
    /// never-worse schedule with [`ShardedSearchStats::stop_reason`] set to
    /// [`StopReason::Cancelled`].
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Attaches an anytime-incumbent observer. The observer fires **only at
    /// deterministic emission points** — once for the seed incumbent after the
    /// baseline evaluation, then after any iteration whose merge improved the
    /// global incumbent — so the stream of [`IncumbentUpdate`]s is identical
    /// for any worker count and strictly decreasing in cost. The callback runs
    /// on the scheduling thread between iterations; keep it cheap (hand the
    /// update to a channel or socket writer) so it does not distort budgets.
    pub fn with_observer(mut self, observer: IncumbentObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Improves on the given baseline and returns the best schedule found. The
    /// result is always at least as good as the baseline conversion.
    pub fn schedule(
        &self,
        instance: &MbspInstance,
        baseline: &BspSchedulingResult,
    ) -> MbspSchedule {
        self.schedule_with_stats(instance, baseline).0
    }

    /// Runs the sharded search and reports statistics.
    pub fn schedule_with_stats(
        &self,
        instance: &MbspInstance,
        baseline: &BspSchedulingResult,
    ) -> (MbspSchedule, ShardedSearchStats) {
        let (schedule, stats, _) = self.schedule_with_assignment(instance, baseline);
        (schedule, stats)
    }

    /// Like [`ShardedHolisticScheduler::schedule_with_stats`], but also returns
    /// the winning per-node processor assignment — the state an
    /// [`IncrementalScheduler`](crate::IncrementalScheduler) needs to pick up
    /// exactly where this full run left off.
    pub fn schedule_with_assignment(
        &self,
        instance: &MbspInstance,
        baseline: &BspSchedulingResult,
    ) -> (MbspSchedule, ShardedSearchStats, Vec<ProcId>) {
        sharded_schedule(
            &self.pool,
            self.cancel.as_ref(),
            self.observer.as_ref(),
            instance.dag(),
            instance.arch(),
            &self.config,
            baseline,
        )
    }
}

/// The full sharded search on a borrowed problem: the baseline's assignment
/// and its own superstep structure seed the global incumbent, then
/// `config.iterations` partition → search → merge passes improve it. Behind both
/// [`ShardedHolisticScheduler::schedule_with_assignment`] and
/// [`IncrementalScheduler::schedule`](crate::IncrementalScheduler::schedule),
/// which runs it on the warm session's own DAG.
pub(crate) fn sharded_schedule(
    pool: &WorkerPool,
    cancel: Option<&CancelToken>,
    observer: Option<&IncumbentObserver>,
    dag: &CompDag,
    arch: &Architecture,
    config: &ShardedSearchConfig,
    baseline: &BspSchedulingResult,
) -> (MbspSchedule, ShardedSearchStats, Vec<ProcId>) {
    let procs: Vec<ProcId> = dag.nodes().map(|v| baseline.schedule.proc_of(v)).collect();
    let mut search = ShardedSearch::new(pool, cancel, dag, arch, config, procs, Some(baseline));
    // The anytime stream: update 0 is the seed incumbent, and every later
    // emission happens after a deterministic merge, so the whole stream is
    // reproducible for any worker count.
    let mut sequence = 0u64;
    let emit = |sequence: u64, iteration: usize, search: &ShardedSearch<'_>| {
        if let Some(observer) = observer {
            observer(&IncumbentUpdate {
                sequence,
                iteration,
                cost: search.incumbent.cost,
                evaluations: search.evaluations(),
            });
        }
    };
    emit(sequence, 0, &search);

    let mut shard_compute_mass = Vec::new();
    let mut cut_edges = 0usize;
    let mut iterations = 0usize;
    for iter in 0..config.iterations.max(1) {
        // The stop signal is observed before the *first* pass too, so a token
        // cancelled or expired beforehand returns the seed incumbent without
        // spending a single search evaluation.
        if !search.searchable || search.stop_before_pass() {
            break;
        }
        iterations += 1;
        let accepted_before = search.accepted;
        let partition = search.pass(iter, None);
        if iter == 0 {
            shard_compute_mass = partition.part_compute_masses(dag);
            cut_edges = partition.cut_edges(dag);
        }
        if search.accepted > accepted_before {
            sequence += 1;
            emit(sequence, iter, &search);
        }
    }
    let stats = ShardedSearchStats {
        shards: search.searched,
        improved_shards: search.improved,
        accepted_shards: search.accepted,
        evaluations: search.evaluations(),
        tie_order: search.tie_order,
        final_cost: search.incumbent.cost,
        shard_compute_mass,
        cut_edges,
        salvaged_moves: search.salvaged,
        iterations,
        simulated_supersteps: search.simulated_supersteps(),
        skipped_supersteps: search.skipped_supersteps(),
        stop_reason: search.stopped.unwrap_or_default(),
    };
    let Incumbent {
        procs, schedule, ..
    } = search.incumbent;
    (schedule, stats, procs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_model::sync_cost;
    use mbsp_sched::{BspScheduler, GreedyBspScheduler};

    fn instances(limit: usize) -> Vec<MbspInstance> {
        mbsp_gen::tiny_dataset(42)
            .into_iter()
            .take(limit)
            .map(|inst| {
                MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
            })
            .collect()
    }

    #[test]
    fn topo_shards_are_acyclic_and_balanced() {
        for inst in instances(4) {
            let dag = inst.dag();
            for k in [1usize, 2, 4, 7] {
                let p = topo_shards(dag, k);
                assert_eq!(p.num_parts(), k.min(dag.num_nodes()));
                assert!(p.quotient_is_acyclic(dag));
                let sizes = p.part_sizes();
                let (lo, hi) = (
                    sizes.iter().copied().min().unwrap(),
                    sizes.iter().copied().max().unwrap(),
                );
                assert!(hi - lo <= 1, "{}: sizes {sizes:?}", inst.name());
            }
        }
    }

    #[test]
    fn a_zero_pivot_budget_is_reported_and_still_yields_a_valid_partition() {
        let limits = SHARD_SPLIT_LIMITS;
        let cut = SolverLimits {
            max_pivots: 0,
            ..limits
        };
        for inst in instances(4) {
            let dag = inst.dag();
            let (full, solve) = weighted_shards_solve(dag, 4, 8, 0.25, 0.0, limits, None);
            assert!(!solve.truncated, "{}", inst.name());
            assert!(solve.bnb_nodes > 0, "{}", inst.name());
            assert_eq!(full, weighted_shards(dag, 4, 8, 0.25, 0.0));
            // Every split stops at its first node pop: the warm start (or the
            // prefix fallback) is used, the caller learns it was cut, and —
            // the cut being a count — a second run returns the same partition.
            let (part, solve) = weighted_shards_solve(dag, 4, 8, 0.25, 0.0, cut, None);
            assert!(solve.truncated, "{}", inst.name());
            assert_eq!(solve.bnb_nodes, 0);
            assert_eq!(part.num_parts(), full.num_parts());
            assert!(part.quotient_is_acyclic(dag));
            assert!(part.part_sizes().iter().all(|&s| s > 0));
            assert_eq!(
                (part, solve),
                weighted_shards_solve(dag, 4, 8, 0.25, 0.0, cut, None)
            );
        }
    }

    /// The job's token reaches the splits' branch and bound: one cancelled
    /// before the partition stops every split at its first node pop.
    #[test]
    fn a_cancelled_token_stops_every_split_at_its_prefix_fallback() {
        let limits = SHARD_SPLIT_LIMITS;
        let no_pivots = SolverLimits {
            max_pivots: 0,
            ..limits
        };
        let token = CancelToken::new();
        token.cancel();
        for inst in instances(4) {
            let dag = inst.dag();
            let (part, solve) = weighted_shards_solve(dag, 4, 8, 0.25, 0.0, limits, Some(&token));
            assert!(solve.truncated, "{}", inst.name());
            assert_eq!(solve.bnb_nodes, 0);
            assert_eq!(part.num_parts(), 4);
            assert!(part.quotient_is_acyclic(dag));
            assert!(part.part_sizes().iter().all(|&s| s > 0));
            // No split got past its warm start, the prefix split.
            let (prefix, _) = weighted_shards_solve(dag, 4, 8, 0.25, 0.0, no_pivots, None);
            assert_eq!(part, prefix, "{}", inst.name());
        }
    }

    #[test]
    fn sharded_schedules_are_valid_and_not_worse_than_baseline() {
        let greedy = GreedyBspScheduler::new();
        let sharded = ShardedHolisticScheduler::with_config(ShardedSearchConfig {
            num_shards: 3,
            workers: 1,
            max_rounds: 4,
            moves_per_round: 16,
            ..Default::default()
        });
        for inst in instances(5) {
            let baseline = greedy.schedule(inst.dag(), inst.arch());
            let base_mbsp = mbsp_cache::TwoStageScheduler::new().schedule(
                inst.dag(),
                inst.arch(),
                &baseline,
                &mbsp_cache::ClairvoyantPolicy::new(),
            );
            let base_cost = sync_cost(&base_mbsp, inst.dag(), inst.arch()).total;
            let (schedule, stats) = sharded.schedule_with_stats(&inst, &baseline);
            schedule
                .validate(inst.dag(), inst.arch())
                .unwrap_or_else(|e| panic!("{}: {e}", inst.name()));
            let cost = sync_cost(&schedule, inst.dag(), inst.arch()).total;
            assert!(
                cost <= base_cost + 1e-9,
                "{}: sharded {cost} vs baseline {base_cost}",
                inst.name()
            );
            assert!((stats.final_cost - cost).abs() < 1e-9);
            assert_eq!(stats.shards, 3);
        }
    }

    #[test]
    fn search_view_improves_or_keeps_the_seed() {
        use crate::engine::{EvalPath, EvaluationEngine};
        use crate::search::{search_view, LocalSearchParams};
        use mbsp_dag::DagLike;
        let inst = &instances(4)[3];
        let dag = inst.dag();
        let partition = topo_shards(dag, 2);
        let parts = partition.parts();
        let (view, required) = part_view(dag, &partition, &parts[1], 1, "part");
        let seed: Vec<ProcId> = (0..view.num_nodes())
            .map(|i| ProcId::new(i % inst.arch().processors))
            .collect();
        let params = LocalSearchParams {
            cost_model: CostModel::Synchronous,
            max_rounds: 4,
            moves_per_round: 16,
            seed: 7,
            stale_round_limit: 1,
            tie_order: crate::TieOrder::BreadthFirst,
        };
        let out = search_view(
            &view,
            inst.arch(),
            &params,
            seed,
            None,
            &required,
            &CancelToken::new(),
        );
        assert_eq!(out.stopped, None);
        let best = &out.incumbent;
        assert!(best.cost <= out.base_cost + 1e-9);
        assert!(out.evaluations >= 1);
        assert_eq!(best.procs.len(), view.num_nodes());
        // Rounds were accepted, so the schedule below is one a batch kept for
        // its winner — never converted a second time...
        assert!(!best.deltas.is_empty());
        // ...and it matches the reported cost and is the schedule of the
        // returned assignment.
        let recost = params
            .cost_model
            .evaluate(&best.schedule, &view, inst.arch());
        assert!((recost - best.cost).abs() < 1e-9);
        let mut fresh = EvaluationEngine::for_dag(&view, inst.arch(), EvalPath::Incremental);
        let fresh_cost = fresh.evaluate_assignment_on(
            &view,
            inst.arch(),
            &best.procs,
            params.cost_model,
            &required,
        );
        assert_eq!(fresh_cost.to_bits(), best.cost.to_bits());
        assert_eq!(fresh.schedule(), &best.schedule);
    }
}
