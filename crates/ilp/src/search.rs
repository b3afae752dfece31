//! The search core shared by every holistic front-end.
//!
//! The paper has one idea on the holistic side: warm-start from the two-stage
//! baseline and improve under the true MBSP cost, on the whole DAG (§6.1) or
//! per acyclic part (§6.3). This module writes that idea down once:
//!
//! * [`hill_climb`] — the seeded local search: each round draws a batch of
//!   [`Move`]s from the RNG, evaluates it through the given
//!   [`EvaluationEngine`] and adopts the `(cost, index)`-ordered winner when
//!   it improves the [`Incumbent`]. It runs on a [`SubDagView`]: a shard of
//!   the sharded search (at one shard, the whole DAG) or a part of the
//!   divide-and-conquer scheduler.
//! * [`fan_out`] — runs independent index-addressed jobs (shard or part
//!   searches) on scoped lanes and returns their results in index order, so
//!   the worker count never changes a result. The paper parallelises across
//!   independent acyclic parts (§6.3) and so does this workspace: it is the
//!   only place a search runs in parallel.
//! * [`ShardedSearch::pass`] — one partition → search → merge pass over a
//!   borrowed `(CompDag, Architecture, ShardedSearchConfig)`: partition, pick
//!   every shard or only those intersecting a mutation cone, fan out
//!   `run_shard`, fold the winners into the global incumbent through the
//!   deterministic boundary-repair merge. The full sharded search is the
//!   seed plus `iterations` passes; a dirty-cone repair is the session's
//!   assignment plus pass `0` restricted to the cone.

use crate::dirty_cone::dirty_shard_indices;
use crate::engine::{assignment_delta, EvalPath, EvaluationEngine, Move};
use crate::improver::TieOrder;
use crate::shard::{part_view, shard_partition, ShardedSearchConfig};
use mbsp_dag::{AcyclicPartition, CompDag, DagLike, NodeId, SubDagView};
use mbsp_model::{Architecture, CostModel, MbspSchedule, ProcId};
use mbsp_pool::{resolve_workers, CancelToken, StopReason, WorkerPool};
use mbsp_sched::{BspSchedulingResult, GreedyBspScheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deltas of a shard whose whole block the merge rejected that are replayed
/// one at a time to salvage an improving prefix. Each replay is one global
/// evaluation, so the cap bounds the merge cost.
pub(crate) const MERGE_REPLAY_CAP: usize = 4;

/// `num_shards: 0` searches one shard below this many nodes and four at or
/// above it. Measured at the library default budget (60 rounds × 30 moves,
/// stale limit 1; then 16 seeded deltas and a repair) on random-layered and
/// CG DAGs, `P = 4`, cache `3·r₀`, on a 2-vCPU x86-64 host, one shard
/// against four: the CPU ratio hardly moves with size (a schedule 1–2.4×, a
/// repair 0.8–3×; one shard runs longer because it keeps improving), but the
/// cost gain shrinks. Below 2k nodes one shard is 1–2.4 % cheaper on the
/// layered DAGs (4–7 % at 500 nodes), from 2k on under 1 % and none on CG,
/// and at 16k it is dearer on the layered DAG (+0.3 %) at 7× the repair CPU.
/// At 48k nodes (CG, `edit_loop`) one shard served 4.3 requests per second
/// against 7.0 at four.
const ONE_SHARD_BELOW_NODES: usize = 2048;

/// The shard count of a search over `num_nodes` nodes: `num_shards` when it
/// is set, else [`ONE_SHARD_BELOW_NODES`]' size rule; never more than the DAG
/// has nodes. A function of the configuration and the DAG alone.
fn shard_count(num_shards: usize, num_nodes: usize) -> usize {
    let k = match num_shards {
        0 if num_nodes < ONE_SHARD_BELOW_NODES => 1,
        0 => 4,
        k => k,
    };
    k.clamp(1, num_nodes.max(1))
}

/// Tuning knobs of one view search: its [`hill_climb`] and the engine
/// [`search_view`] builds for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocalSearchParams {
    /// Cost model to optimise.
    pub(crate) cost_model: CostModel,
    /// Maximum local-search rounds.
    pub(crate) max_rounds: usize,
    /// Candidate moves per round.
    pub(crate) moves_per_round: usize,
    /// RNG seed of this search.
    pub(crate) seed: u64,
    /// Consecutive stale rounds tolerated before stopping (`0` = spend the
    /// whole round budget regardless).
    pub(crate) stale_round_limit: usize,
    /// The order ties inside a canonical superstep are broken in, built on
    /// the searched view.
    pub(crate) tie_order: TieOrder,
}

/// The best assignment found so far, its cost and its materialised schedule.
#[derive(Debug, Clone)]
pub(crate) struct Incumbent {
    /// Per-node processor assignment.
    pub(crate) procs: Vec<ProcId>,
    /// Cost of `schedule` under the search's cost model.
    pub(crate) cost: f64,
    /// The schedule of `procs` (or of the seeding baseline's own superstep
    /// structure over the same assignment).
    pub(crate) schedule: MbspSchedule,
    /// The assignment delta of every improvement a local search adopted, in
    /// acceptance order: the `(node, new processor)` pairs it changed. Lets
    /// the merge replay an improving prefix when a shard's whole block is
    /// rejected.
    pub(crate) deltas: Vec<Vec<(NodeId, ProcId)>>,
}

impl Incumbent {
    /// Evaluates `procs` through `engine` as the starting incumbent, with ties
    /// broken in the engine's order.
    pub(crate) fn seed<D: DagLike + ?Sized>(
        engine: &mut EvaluationEngine,
        dag: &D,
        arch: &Architecture,
        procs: Vec<ProcId>,
        cost_model: CostModel,
        required_outputs: &[NodeId],
    ) -> Self {
        let cost = engine.evaluate_assignment_on(dag, arch, &procs, cost_model, required_outputs);
        let mut schedule = MbspSchedule::new(arch.processors);
        engine.swap_schedule(&mut schedule);
        Incumbent {
            procs,
            cost,
            schedule,
            deltas: Vec::new(),
        }
    }

    /// Adopts the schedule `engine` evaluated last, at `cost`, when it is
    /// cheaper than the incumbent's (the incumbent's assignment stays: the
    /// candidates a seed weighs are conversions of it). Returns whether it was.
    fn adopt_if_cheaper(&mut self, engine: &mut EvaluationEngine, cost: f64) -> bool {
        let cheaper = cost < self.cost;
        if cheaper {
            self.cost = cost;
            engine.swap_schedule(&mut self.schedule);
        }
        cheaper
    }
}

/// The seeded hill climb: up to `params.max_rounds` rounds, each proposing
/// `params.moves_per_round` moves from the seeded RNG, evaluating them through
/// `engine` and adopting the round winner when it improves `incumbent`. Every
/// adopted improvement is recorded in [`Incumbent::deltas`]. Returns, when
/// `stop` ended the search with rounds still to run, the signal it showed.
///
/// Before a round's batch the engine is rebased on the incumbent whenever
/// it changed (the seed, then every adopted winner), so each candidate
/// re-simulates only the supersteps its move can change; a rebase is not an
/// evaluation and changes no result.
///
/// `stop` is observed at the top of a round and nowhere else: a round that
/// starts evaluates its whole batch. A search that reports no signal spent a
/// budget of counts and is a function of `params.seed` alone.
pub(crate) fn hill_climb<D: DagLike + ?Sized>(
    engine: &mut EvaluationEngine,
    dag: &D,
    arch: &Architecture,
    params: &LocalSearchParams,
    required_outputs: &[NodeId],
    stop: &CancelToken,
    incumbent: &mut Incumbent,
) -> Option<StopReason> {
    let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
    if movable.is_empty() || arch.processors <= 1 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut moves: Vec<Move> = Vec::with_capacity(params.moves_per_round);
    let mut stale_rounds = 0usize;
    // Does the engine's base describe `incumbent.procs`?
    let mut based = false;
    let mut stopped = None;
    for _round in 0..params.max_rounds {
        stopped = stop.reason();
        if stopped.is_some() {
            break;
        }
        moves.clear();
        for _ in 0..params.moves_per_round {
            if let Some(mv) = Move::propose(dag, arch, &incumbent.procs, &movable, &mut rng) {
                moves.push(mv);
            }
        }
        if !based && !moves.is_empty() {
            engine.rebase(dag, arch, &incumbent.procs, required_outputs);
            based = true;
        }
        let winner = engine.evaluate_batch_on(
            dag,
            arch,
            &incumbent.procs,
            &moves,
            params.cost_model,
            required_outputs,
        );
        let Some((cost, idx)) = winner else {
            // Every draw of this round was a no-op proposal; the round
            // consumed its budget, but nothing was evaluated, so it says
            // nothing about staleness — keep going.
            continue;
        };
        if cost < incumbent.cost - 1e-9 {
            stale_rounds = 0;
            based = false;
            let before = incumbent.procs.clone();
            moves[idx].apply(dag, &mut incumbent.procs);
            incumbent
                .deltas
                .push(assignment_delta(&before, &incumbent.procs));
            // The batch kept its winner's schedule.
            incumbent.cost = cost;
            engine.swap_batch_winner(&mut incumbent.schedule);
        } else {
            stale_rounds += 1;
            if params.stale_round_limit > 0 && stale_rounds >= params.stale_round_limit {
                break;
            }
        }
    }
    stopped
}

/// Runs `job(0), …, job(count - 1)` on at most `workers` lanes — the calling
/// thread plus scoped threads for the permits `pool` has free — and returns
/// the results in index order. Every job is self-contained, so the
/// distribution over lanes (and therefore the worker count) cannot change any
/// result, only the wall-clock.
///
/// A poisoned batch (a job panicked on a lane) degrades to re-running every
/// job on the calling thread: slower, but the schedulers keep producing
/// schedules instead of aborting. A deterministic panic surfaces again there,
/// on the caller's stack, where it belongs.
pub(crate) fn fan_out<T, F>(pool: &WorkerPool, workers: usize, count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Every lane has joined before a job's panic is re-thrown, so nothing
    // still borrows `job` when the unwind arrives here.
    catch_unwind(AssertUnwindSafe(|| pool.run_indexed(count, workers, &job)))
        .unwrap_or_else(|_poisoned| (0..count).map(&job).collect())
}

/// Result of [`search_view`].
#[derive(Debug, Clone)]
pub(crate) struct ViewSearch {
    /// Cost of the seed assignment on the view's sub-problem.
    pub(crate) base_cost: f64,
    /// The winning assignment, cost, schedule and accepted deltas (local ids).
    pub(crate) incumbent: Incumbent,
    /// Schedules converted and costed: the seed, the alternative seed when one
    /// was offered, and every batch candidate (a round winner is not evaluated
    /// again — its batch keeps its schedule).
    pub(crate) evaluations: u64,
    /// Supersteps the view's conversions simulated / copied from their base.
    pub(crate) simulated_supersteps: u64,
    pub(crate) skipped_supersteps: u64,
    /// The signal that cut the hill climb short, if one did.
    pub(crate) stopped: Option<StopReason>,
}

/// Runs one engine-backed [`hill_climb`] over a zero-copy view, so candidate
/// conversions and re-costs touch only the shard or part, with ties broken in
/// `params.tie_order` built on the view.
///
/// `seed_procs` is the starting assignment (local ids; entries of input nodes
/// are ignored — inputs are sources and never computed), `required_outputs`
/// the local ids that must end in slow memory. The non-source part of an
/// `alt_seed` (typically a shard-local greedy baseline) is evaluated against
/// `seed_procs` and, when it improves, adopted as the first accepted delta —
/// so the merge can replay it into the global schedule like any other move.
/// `base_cost` still reports the cost of `seed_procs` (the restriction of the
/// global incumbent), which is what orders the merge by
/// improvement-over-incumbent.
pub(crate) fn search_view(
    view: &SubDagView<'_>,
    arch: &Architecture,
    params: &LocalSearchParams,
    seed_procs: Vec<ProcId>,
    alt_seed: Option<&[ProcId]>,
    required_outputs: &[NodeId],
    stop: &CancelToken,
) -> ViewSearch {
    let cost_model = params.cost_model;
    let mut engine = EvaluationEngine::for_dag(view, arch, EvalPath::Incremental);
    engine.set_tie_order(&params.tie_order.of(view));
    // Each seed is recorded as the engine's base before it is evaluated (the
    // evaluation then only copies it), so the hill climb's first rebase converts
    // nothing when it starts from the seed evaluated last.
    engine.rebase(view, arch, &seed_procs, required_outputs);
    let mut incumbent = Incumbent::seed(
        &mut engine,
        view,
        arch,
        seed_procs,
        cost_model,
        required_outputs,
    );
    let base_cost = incumbent.cost;

    if let Some(alt) = alt_seed {
        // Sources keep the incumbent's assignment so the adopted delta stays
        // replayable through the global merge (global sources are never moved,
        // and input nodes map to foreign global nodes).
        let mut candidate = incumbent.procs.clone();
        for v in view.nodes() {
            if !view.is_source(v) {
                candidate[v.index()] = alt[v.index()];
            }
        }
        let delta = assignment_delta(&incumbent.procs, &candidate);
        if !delta.is_empty() {
            engine.rebase(view, arch, &candidate, required_outputs);
            let cost =
                engine.evaluate_assignment_on(view, arch, &candidate, cost_model, required_outputs);
            if cost < incumbent.cost - 1e-9 {
                incumbent.deltas.push(delta);
                incumbent.procs = candidate;
                incumbent.cost = cost;
                engine.swap_schedule(&mut incumbent.schedule);
            }
        }
    }

    let stopped = hill_climb(
        &mut engine,
        view,
        arch,
        params,
        required_outputs,
        stop,
        &mut incumbent,
    );
    ViewSearch {
        base_cost,
        incumbent,
        evaluations: engine.evaluations,
        simulated_supersteps: engine.simulated_supersteps(),
        skipped_supersteps: engine.skipped_supersteps(),
        stopped,
    }
}

/// One shard's contribution to the merge: the global-id assignment delta of
/// every locally accepted move (in acceptance order) plus the local costs that
/// order the merge.
#[derive(Debug, Clone)]
struct ShardOutcome {
    index: usize,
    base_cost: f64,
    best_cost: f64,
    deltas: Vec<Vec<(NodeId, ProcId)>>,
    evaluations: u64,
    simulated_supersteps: u64,
    skipped_supersteps: u64,
    stopped: Option<StopReason>,
}

/// Builds the view of one shard, runs its local search and maps the accepted
/// deltas back to global ids. `index` is the shard's *global* index in the
/// partition — it feeds the seed stride, so searching a subset of shards (the
/// dirty-cone repair) explores exactly the streams a full run would.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    dag: &CompDag,
    arch: &Architecture,
    partition: &AcyclicPartition,
    core: &[NodeId],
    index: usize,
    global_procs: &[ProcId],
    config: &ShardedSearchConfig,
    tie_order: TieOrder,
    seed_base: u64,
    stop: &CancelToken,
) -> ShardOutcome {
    let (view, required) = part_view(dag, partition, core, index, "shard");
    let seed_procs: Vec<ProcId> = (0..view.num_nodes())
        .map(|i| global_procs[view.to_global(NodeId::new(i)).index()])
        .collect();
    let params = LocalSearchParams {
        cost_model: config.cost_model,
        max_rounds: config.max_rounds,
        moves_per_round: config.moves_per_round,
        // Golden-ratio stride decorrelates the shard streams from each other.
        seed: seed_base.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        stale_round_limit: config.stale_round_limit,
        tie_order,
    };
    // Shard-local greedy baseline: a restriction of the global schedule is
    // rarely a good schedule of the sub-problem, so offer the generic greedy
    // scheduler's view-local schedule as an alternative starting point.
    let alt_seed: Option<Vec<ProcId>> = if config.shard_local_seed && arch.processors > 1 {
        let local = GreedyBspScheduler::new().schedule_dag(&view, arch);
        Some(view.nodes().map(|v| local.schedule.proc_of(v)).collect())
    } else {
        None
    };
    let found = search_view(
        &view,
        arch,
        &params,
        seed_procs,
        alt_seed.as_deref(),
        &required,
        stop,
    );
    let deltas = found
        .incumbent
        .deltas
        .iter()
        .map(|delta| {
            delta
                .iter()
                .map(|&(local, p)| (view.to_global(local), p))
                .collect()
        })
        .collect();
    ShardOutcome {
        index,
        base_cost: found.base_cost,
        best_cost: found.incumbent.cost,
        deltas,
        evaluations: found.evaluations,
        simulated_supersteps: found.simulated_supersteps,
        skipped_supersteps: found.skipped_supersteps,
        stopped: found.stopped,
    }
}

/// The state partition → search → merge passes run on: the borrowed problem,
/// the resolved shard and worker counts, the job's stop signal, the global
/// evaluation engine and the global incumbent.
pub(crate) struct ShardedSearch<'a> {
    dag: &'a CompDag,
    arch: &'a Architecture,
    config: &'a ShardedSearchConfig,
    pool: &'a WorkerPool,
    k: usize,
    workers: usize,
    engine: EvaluationEngine,
    shard_evaluations: u64,
    shard_simulated_supersteps: u64,
    shard_skipped_supersteps: u64,
    /// Shard searches run so far (per pass: every shard, or the ones
    /// intersecting the cone).
    pub(crate) searched: usize,
    /// Searched shards whose local search improved on its local baseline.
    pub(crate) improved: usize,
    /// Shard merges accepted by the global boundary-repair evaluation. The
    /// merge only ever lowers the incumbent's cost, so a pass that raises this
    /// count strictly improved the incumbent.
    pub(crate) accepted: usize,
    /// Individually replayed deltas kept by the merge's prefix salvage.
    pub(crate) salvaged: u64,
    /// The job's stop signal: the caller's cancel token as given, deadline
    /// included (a fresh one without).
    token: CancelToken,
    /// The signal that skipped a shard-search round or a pass, if one did — a
    /// cancellation outranks an expiry. `None` after a run that spent its
    /// budget of counts.
    pub(crate) stopped: Option<StopReason>,
    /// Whether there is anything to search: a movable node and a second
    /// processor to move it to.
    pub(crate) searchable: bool,
    /// The tie order the seed chose; every engine of the search runs in it,
    /// each shard's built on its own view.
    pub(crate) tie_order: TieOrder,
    /// The global incumbent every pass improves in place.
    pub(crate) incumbent: Incumbent,
}

impl<'a> ShardedSearch<'a> {
    /// Starts a search from `procs` (and, when given, the superstep structure
    /// of the `baseline` they come from), evaluated on the whole DAG as the
    /// seed incumbent, and picks the search's tie order: `procs` converted
    /// breadth-first and depth-first, the cheaper one kept (breadth-first on a
    /// tie) — a function of the DAG, the assignment, the architecture and the
    /// cost model alone. The engine (arena sized at construction) is built per
    /// search: a session's DAG may have changed size since the last one.
    pub(crate) fn new(
        pool: &'a WorkerPool,
        cancel: Option<&CancelToken>,
        dag: &'a CompDag,
        arch: &'a Architecture,
        config: &'a ShardedSearchConfig,
        procs: Vec<ProcId>,
        baseline: Option<&BspSchedulingResult>,
    ) -> Self {
        let token = cancel.cloned().unwrap_or_default();
        let k = shard_count(config.num_shards, dag.num_nodes());
        let workers = resolve_workers(config.workers).min(k);
        let mut engine = EvaluationEngine::for_dag(dag, arch, EvalPath::Incremental);
        // The seed: `procs` converted breadth-first (the engine's default) and
        // depth-first, then the baseline's own structure, which the canonical
        // reconstruction may not reproduce.
        let cost_model = config.cost_model;
        let mut incumbent = Incumbent::seed(&mut engine, dag, arch, procs, cost_model, &[]);
        engine.set_tie_order(&TieOrder::DepthFirst.of(dag));
        let cost = engine.evaluate_assignment_on(dag, arch, &incumbent.procs, cost_model, &[]);
        let tie_order = if incumbent.adopt_if_cheaper(&mut engine, cost) {
            TieOrder::DepthFirst
        } else {
            engine.set_tie_order(&TieOrder::BreadthFirst.of(dag));
            TieOrder::BreadthFirst
        };
        if let Some(bsp) = baseline {
            let cost = engine.evaluate_bsp_on(dag, arch, bsp, cost_model, &[]);
            incumbent.adopt_if_cheaper(&mut engine, cost);
        }
        ShardedSearch {
            dag,
            arch,
            config,
            pool,
            k,
            workers,
            engine,
            shard_evaluations: 0,
            shard_simulated_supersteps: 0,
            shard_skipped_supersteps: 0,
            searched: 0,
            improved: 0,
            accepted: 0,
            salvaged: 0,
            token,
            stopped: None,
            searchable: arch.processors > 1 && dag.nodes().any(|v| !dag.is_source(v)),
            tie_order,
            incumbent,
        }
    }

    /// Schedules converted and costed so far: the global engine (the seed in
    /// both tie orders and, with a baseline, its own structure; one per merge
    /// fold and per replayed delta) plus every finished shard search.
    pub(crate) fn evaluations(&self) -> u64 {
        self.engine.evaluations + self.shard_evaluations
    }

    /// Supersteps simulated so far by the conversions behind
    /// [`ShardedSearch::evaluations`] (and the shard searches' rebases).
    pub(crate) fn simulated_supersteps(&self) -> u64 {
        self.engine.simulated_supersteps() + self.shard_simulated_supersteps
    }

    /// Supersteps those conversions copied from a base instead.
    pub(crate) fn skipped_supersteps(&self) -> u64 {
        self.engine.skipped_supersteps() + self.shard_skipped_supersteps
    }

    /// The pass boundary: whether the stop signal forbids another pass (it is
    /// then recorded in [`ShardedSearch::stopped`]).
    pub(crate) fn stop_before_pass(&mut self) -> bool {
        let reason = self.token.reason();
        self.stopped = self.stopped.max(reason);
        reason.is_some()
    }

    /// One partition → search → merge pass. `iteration` shifts the weighted
    /// strategy's run boundaries by a golden-ratio offset, so improvements
    /// blocked by an old shard boundary land inside a shard on a later pass,
    /// and decorrelates the passes' move streams. With a `cone`, only the
    /// shards intersecting it are searched (and merged). Returns the partition
    /// the pass ran on.
    pub(crate) fn pass(&mut self, iteration: usize, cone: Option<&[NodeId]>) -> AcyclicPartition {
        let (dag, arch, config) = (self.dag, self.arch, self.config);
        let partition = shard_partition(dag, self.k, config, iteration, &self.token);
        // A stop signal may have cut a split short: the partition is valid,
        // but not what solving again would return.
        self.stopped = self.stopped.max(self.token.reason());
        let shards: Vec<usize> = match cone {
            Some(cone) => dirty_shard_indices(&partition, cone),
            None => (0..partition.num_parts()).collect(),
        };
        let parts = partition.parts();
        let seed_base = config
            .seed
            .wrapping_add((iteration as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let (procs, order, token) = (&self.incumbent.procs, self.tie_order, &self.token);
        // Each shard's search is seeded by its own global index.
        let outcomes = fan_out(self.pool, self.workers, shards.len(), |i| {
            let s = shards[i];
            run_shard(
                dag, arch, &partition, &parts[s], s, procs, config, order, seed_base, token,
            )
        });
        self.searched += outcomes.len();
        for o in &outcomes {
            self.shard_evaluations += o.evaluations;
            self.shard_simulated_supersteps += o.simulated_supersteps;
            self.shard_skipped_supersteps += o.skipped_supersteps;
            self.stopped = self.stopped.max(o.stopped);
        }
        self.merge_outcomes(&outcomes);
        partition
    }

    /// Folds per-shard outcomes into the global incumbent: most
    /// locally-improving shard first (shard index as the tie-break — a total
    /// order, so the result is identical for any worker count), each fold
    /// re-evaluated globally (conversion + post-optimisation of the whole
    /// assignment) and kept only if the global cost improves; rejected blocks
    /// get a prefix-replay salvage bounded by [`MERGE_REPLAY_CAP`].
    fn merge_outcomes(&mut self, outcomes: &[ShardOutcome]) {
        let (dag, arch, cost_model) = (self.dag, self.arch, self.config.cost_model);
        let (engine, incumbent) = (&mut self.engine, &mut self.incumbent);
        let mut order: Vec<usize> = (0..outcomes.len()).collect();
        order.sort_by(|&a, &b| {
            let da = outcomes[a].best_cost - outcomes[a].base_cost;
            let db = outcomes[b].best_cost - outcomes[b].base_cost;
            da.total_cmp(&db)
                .then(outcomes[a].index.cmp(&outcomes[b].index))
        });
        let mut trial = incumbent.procs.clone();
        // Evaluates `trial` globally and adopts it when it improves the
        // incumbent; otherwise rolls `trial` back.
        let mut adopt_if_better = |trial: &mut Vec<ProcId>| {
            let cost = engine.evaluate_assignment_on(dag, arch, trial, cost_model, &[]);
            let better = cost < incumbent.cost - 1e-9;
            if better {
                incumbent.cost = cost;
                // The replaced incumbent's schedule becomes the engine's scratch.
                engine.swap_schedule(&mut incumbent.schedule);
                incumbent.procs.copy_from_slice(trial);
            } else {
                trial.copy_from_slice(&incumbent.procs);
            }
            better
        };
        for &i in &order {
            let o = &outcomes[i];
            if o.best_cost >= o.base_cost - 1e-9 || o.deltas.is_empty() {
                continue;
            }
            self.improved += 1;
            for &(g, p) in o.deltas.iter().flatten() {
                trial[g.index()] = p;
            }
            if adopt_if_better(&mut trial) {
                self.accepted += 1;
                continue;
            }
            // The whole block regressed globally (a later local move overfit
            // the shard's boundary conditions) — salvage the improving prefix:
            // replay the accepted deltas in order, keeping each one only while
            // the global cost keeps improving, and stop at the first failure
            // (bounded extra global evaluations per rejected shard).
            let salvaged_before = self.salvaged;
            for delta in o.deltas.iter().take(MERGE_REPLAY_CAP) {
                for &(g, p) in delta {
                    trial[g.index()] = p;
                }
                if !adopt_if_better(&mut trial) {
                    break;
                }
                self.salvaged += 1;
            }
            self.accepted += (self.salvaged > salvaged_before) as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_ilp::SHARD_SPLIT_LIMITS;
    use crate::shard::weighted_shards_solve;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    /// The contract the wall-clock caveat used to stand in for: a search over
    /// a partition a count cut short is as reproducible as any other. Under
    /// the served limits, a child split of `spmv_N2000`'s 48-run quotient
    /// stops at its branch-and-bound node count.
    #[test]
    fn a_search_over_a_count_truncated_partition_is_identical_for_any_worker_count() {
        use crate::dirty_cone::{IncrementalScheduler, RepairConfig};
        use mbsp_gen::spmv::{spmv_dag, SparsityPattern};
        use mbsp_sched::BspScheduler;
        let dag = spmv_dag("spmv_N2000", &SparsityPattern::random(2000, 4, 42 ^ 0x84));
        let inst =
            mbsp_model::MbspInstance::with_cache_factor(dag, Architecture::paper_default(0.0), 3.0);
        let (dag, arch) = (inst.dag(), inst.arch());
        let config = ShardedSearchConfig {
            num_shards: 4,
            runs_per_shard: 12,
            max_rounds: 2,
            moves_per_round: 4,
            ..Default::default()
        };
        // The partition every request below solves.
        let (_, solve) = weighted_shards_solve(
            dag,
            4,
            12,
            config.mass_tolerance,
            0.0,
            SHARD_SPLIT_LIMITS,
            None,
        );
        assert!(solve.truncated, "{solve:?}");

        let baseline = GreedyBspScheduler::new().schedule(dag, arch);
        let procs: Vec<ProcId> = dag.nodes().map(|v| baseline.schedule.proc_of(v)).collect();
        let repair = RepairConfig {
            search: config,
            cone_radius: 2,
        };
        let runs: Vec<_> = [1usize, 2, 8]
            .into_iter()
            .map(|workers| {
                let mut session =
                    IncrementalScheduler::new(dag.clone(), *arch, procs.clone(), repair)
                        .with_pool(WorkerPool::with_capacity(workers));
                let search = ShardedSearchConfig { workers, ..config };
                // Two requests, the second from the incumbent the first one
                // adopted.
                let mut requests = Vec::new();
                for _ in 0..2 {
                    let (schedule, stats) = session.schedule(&search, &baseline, None);
                    assert_eq!(stats.stop_reason, StopReason::Completed);
                    schedule.validate(dag, arch).unwrap();
                    let cost = stats.final_cost.to_bits();
                    requests.push((schedule, cost, stats.evaluations, session.checkpoint()));
                }
                requests
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    /// The job's token reaches the partition's branch and bound; what it cuts
    /// short is valid and reported, and nothing of it outlives its request.
    #[test]
    fn a_partition_solved_under_a_fired_stop_signal_is_not_remembered() {
        use crate::dirty_cone::{IncrementalScheduler, RepairConfig};
        use mbsp_sched::BspScheduler;
        let dag = mbsp_gen::tiny_dataset(42).remove(3).dag;
        let inst =
            mbsp_model::MbspInstance::with_cache_factor(dag, Architecture::paper_default(0.0), 3.0);
        let (dag, arch) = (inst.dag(), inst.arch());
        let config = ShardedSearchConfig {
            num_shards: 4,
            max_rounds: 2,
            moves_per_round: 4,
            ..Default::default()
        };
        let baseline = GreedyBspScheduler::new().schedule(dag, arch);
        let procs: Vec<ProcId> = dag.nodes().map(|v| baseline.schedule.proc_of(v)).collect();
        let repair = RepairConfig {
            search: config,
            cone_radius: 2,
        };
        let session = || IncrementalScheduler::new(dag.clone(), *arch, procs.clone(), repair);
        let mut warm = session();
        let (pool, token) = (WorkerPool::with_capacity(1), CancelToken::new());
        let mut search = ShardedSearch::new(
            &pool,
            Some(&token),
            warm.dag(),
            arch,
            &config,
            procs.clone(),
            None,
        );
        // The signal fires after the pass boundary let the pass through.
        assert!(!search.stop_before_pass());
        token.cancel();
        let partition = search.pass(0, None);
        assert_eq!(partition.num_parts(), 4);
        assert!(partition.quotient_is_acyclic(dag));
        assert_eq!(search.stopped, Some(StopReason::Cancelled));
        // The next request, with no token, is a freshly built session's.
        let (schedule, stats) = warm.schedule(&config, &baseline, None);
        let (fresh_schedule, fresh) = session().schedule(&config, &baseline, None);
        assert_eq!(stats.stop_reason, StopReason::Completed);
        assert_eq!(schedule, fresh_schedule);
        assert_eq!(stats.final_cost.to_bits(), fresh.final_cost.to_bits());
        assert_eq!(stats.evaluations, fresh.evaluations);
    }

    /// On a 1,912-node CG DAG (`P = 4`, `r = 3·r₀`, `g = 1`, `L = 2`; one
    /// shard at the default count, library default budget) the greedy
    /// baseline's own structure beats the breadth-first reconstruction of its
    /// assignment. A search in that order "improved" on a seed the incumbent
    /// already beat, and the merge accepted nothing at seeds 1 and 3 (final
    /// cost the seed's, 0.9962 of two-stage). The depth-first reconstruction is
    /// cheaper, so the search runs in it and its improvements reach the
    /// incumbent (0.982 / 0.977 / 0.973 of two-stage).
    #[test]
    fn a_depth_first_seed_lets_the_merge_accept_on_a_cg_dag() {
        use crate::shard::{IncumbentObserver, IncumbentUpdate, ShardedHolisticScheduler};
        use mbsp_sched::BspScheduler;
        use std::sync::{Arc, Mutex};
        let dag = mbsp_gen::cg::cg_dag("cg_n8_k4", 8, 4);
        assert_eq!(dag.num_nodes(), 1912);
        let arch = Architecture::new(4, 0.0, 1.0, 2.0);
        let inst = mbsp_model::MbspInstance::with_cache_factor(dag, arch, 3.0);
        let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
        for seed in 1..=3u64 {
            let seed_cost = Arc::new(Mutex::new(f64::NAN));
            let sink = Arc::clone(&seed_cost);
            let observer: IncumbentObserver = Arc::new(move |u: &IncumbentUpdate| {
                if u.sequence == 0 {
                    *sink.lock().unwrap() = u.cost;
                }
            });
            let config = ShardedSearchConfig {
                seed,
                ..Default::default()
            };
            let (schedule, stats) = ShardedHolisticScheduler::with_config(config)
                .with_observer(observer)
                .schedule_with_stats(&inst, &baseline);
            let seed_cost = *seed_cost.lock().unwrap();
            schedule.validate(inst.dag(), inst.arch()).unwrap();
            assert_eq!(stats.shards, 1, "seed {seed}");
            assert_eq!(stats.tie_order, TieOrder::DepthFirst, "seed {seed}");
            assert!(stats.accepted_shards >= 1, "seed {seed}: {stats:?}");
            assert!(stats.final_cost < seed_cost, "seed {seed}: {stats:?}");
        }
    }

    #[test]
    fn the_default_shard_count_is_chosen_by_size_and_an_explicit_one_is_kept() {
        let n = ONE_SHARD_BELOW_NODES;
        assert_eq!(shard_count(0, n - 1), 1);
        assert_eq!(shard_count(0, n), 4);
        for (k, nodes) in [(1, n), (3, n - 1), (4, n - 1), (16, 10 * n)] {
            assert_eq!(shard_count(k, nodes), k);
        }
        // Never more shards than nodes, and at least one on an empty DAG.
        assert_eq!(shard_count(8, 5), 5);
        assert_eq!(shard_count(0, 0), 1);
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        let pool = WorkerPool::with_capacity(4);
        for workers in [1usize, 2, 8] {
            for count in [0usize, 1, 5] {
                let got = fan_out(&pool, workers, count, |i| i * 7);
                let expect: Vec<usize> = (0..count).map(|i| i * 7).collect();
                assert_eq!(got, expect, "workers={workers} count={count}");
            }
        }
    }

    #[test]
    fn fan_out_reruns_a_poisoned_batch_inline() {
        let pool = WorkerPool::with_capacity(4);
        let caller = std::thread::current().id();
        let panicked = AtomicBool::new(false);
        let give_up = Instant::now() + std::time::Duration::from_secs(30);
        let got = fan_out(&pool, 2, 6, |i| {
            // Panic exactly once, and only on a pool worker: the inline re-run
            // on the calling thread must then produce every result.
            if std::thread::current().id() != caller && !panicked.swap(true, Ordering::SeqCst) {
                panic!("injected shard panic at job {i}");
            }
            // Hold every other job until a worker has picked one up (bounded,
            // so a pool that cannot spawn fails the assertion below instead of
            // hanging the suite).
            while !panicked.load(Ordering::SeqCst) && Instant::now() < give_up {
                std::thread::yield_now();
            }
            i + 1
        });
        assert!(panicked.load(Ordering::SeqCst), "no pool worker ran a job");
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6]);
        // The pool survives the poisoned batch.
        assert_eq!(pool.run_batch(vec![|| 1, || 2]), vec![1, 2]);
    }
}
