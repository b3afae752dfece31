//! The candidate-evaluation engine of the holistic search.
//!
//! The holistic scheduler's quality is bounded by how many candidate schedules it
//! can evaluate inside its budget (the paper gives COPT a fixed wall-clock
//! budget; we give the local search a count of moves). This module packages
//! evaluation as a reusable engine:
//!
//! * [`Move`] — first-class candidate moves over a per-node processor assignment
//!   (relocate one node, relocate a sibling group, swap two nodes);
//! * [`EvaluationEngine`] — the evaluation state of one search: a
//!   [`mbsp_cache::ConversionArena`] (allocated once, reused for every candidate;
//!   [`EvaluationEngine::rebase`] records the incumbent's conversion in it, so
//!   a candidate re-simulates only the supersteps its move can change),
//!   a scratch schedule (plus the retained schedule of its best batch
//!   candidate, so a round's winner is never converted twice), and the
//!   [`PostOptimizer`], whose merge pass streams its superstep costs over
//!   two reused rows;
//! * one evaluation path: the engine has no switch. Its ground truth — a
//!   freshly allocated converter, the pre-engine post-optimiser and a full
//!   re-cost per candidate — is [`crate::reference::evaluate_assignment`],
//!   reached by name from the differential tests, which assert the two
//!   operation-identical;
//! * [`EvaluationEngine::evaluate_batch_on`] — evaluates one round's batch of
//!   moves in candidate order. The winner is chosen by the fixed tie-break
//!   order (lowest cost, then lowest candidate index) and its schedule is
//!   retained. A search has one engine; the workspace parallelises across
//!   independent searches (shards, parts), never inside one.

use crate::improver::PostOptimizer;
use mbsp_cache::ConversionArena;
use mbsp_dag::{DagLike, NodeId};
use mbsp_model::{Architecture, CostModel, MbspInstance, MbspSchedule, ProcId};
use mbsp_sched::BspSchedulingResult;
use rand::rngs::StdRng;
use rand::Rng;

/// A candidate move of the holistic local search, applied to a per-node processor
/// assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Move a single node to a different processor.
    Relocate {
        /// The node to move.
        node: NodeId,
        /// Its new processor.
        to: ProcId,
    },
    /// Move all (non-source) children of `parent` to one processor — targets the
    /// "assign all children of H1 to one processor" structure of Theorem 4.1.
    RelocateSiblings {
        /// The common parent whose children move.
        parent: NodeId,
        /// The processor that receives every child.
        to: ProcId,
    },
    /// Swap the processors of two nodes.
    Swap {
        /// First node.
        a: NodeId,
        /// Second node.
        b: NodeId,
    },
}

impl Move {
    /// Proposes a random move that changes the assignment, or `None` if the draw
    /// was a no-op (the caller counts it against the round's move budget either
    /// way, exactly like the pre-engine search loop).
    pub fn propose<D: DagLike + ?Sized>(
        dag: &D,
        arch: &Architecture,
        procs: &[ProcId],
        movable: &[NodeId],
        rng: &mut StdRng,
    ) -> Option<Move> {
        let p = arch.processors;
        match rng.gen_range(0..3u32) {
            0 => {
                let node = movable[rng.gen_range(0..movable.len())];
                let to = ProcId::new(rng.gen_range(0..p));
                if procs[node.index()] == to {
                    return None;
                }
                Some(Move::Relocate { node, to })
            }
            1 => {
                let parent = NodeId::new(rng.gen_range(0..dag.num_nodes()));
                let mut has_children = false;
                let mut changes = false;
                let to = ProcId::new(rng.gen_range(0..p));
                for c in dag.children(parent) {
                    if dag.is_source(c) {
                        continue;
                    }
                    has_children = true;
                    if procs[c.index()] != to {
                        changes = true;
                    }
                }
                if !has_children || !changes {
                    return None;
                }
                Some(Move::RelocateSiblings { parent, to })
            }
            _ => {
                let a = movable[rng.gen_range(0..movable.len())];
                let b = movable[rng.gen_range(0..movable.len())];
                if a == b || procs[a.index()] == procs[b.index()] {
                    return None;
                }
                Some(Move::Swap { a, b })
            }
        }
    }

    /// Applies the move to `procs` in place.
    pub fn apply<D: DagLike + ?Sized>(&self, dag: &D, procs: &mut [ProcId]) {
        match *self {
            Move::Relocate { node, to } => procs[node.index()] = to,
            Move::RelocateSiblings { parent, to } => {
                for c in dag.children(parent) {
                    if !dag.is_source(c) {
                        procs[c.index()] = to;
                    }
                }
            }
            Move::Swap { a, b } => procs.swap(a.index(), b.index()),
        }
    }
}

/// The evaluation machinery an engine runs: there is one. The type remains
/// only because `benchmark/src/shadow.rs` names it in
/// [`EvaluationEngine::for_dag`]'s signature; it goes when that file does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalPath {
    /// The incremental engine: arena-backed conversion plus incremental cost
    /// deltas in the post-optimiser.
    Incremental,
}

/// Candidate-evaluation state. One engine per search; every candidate
/// evaluated through the same engine reuses its arena and scratch allocations.
#[derive(Debug)]
pub struct EvaluationEngine {
    arena: ConversionArena,
    schedule: MbspSchedule,
    /// The schedule of the best candidate of the last batch evaluated through
    /// this engine (see [`EvaluationEngine::swap_batch_winner`]).
    retained: MbspSchedule,
    post: PostOptimizer,
    procs_buf: Vec<ProcId>,
    /// Number of candidate evaluations performed through this engine.
    pub evaluations: u64,
}

impl EvaluationEngine {
    /// Creates an engine (and its arena) for one instance.
    pub fn new(instance: &MbspInstance) -> Self {
        EvaluationEngine::for_dag(instance.dag(), instance.arch(), EvalPath::Incremental)
    }

    /// Creates an engine for any [`DagLike`] graph — including a zero-copy
    /// [`mbsp_dag::SubDagView`], which is how the sharded search builds one
    /// engine per shard without materialising per-shard `CompDag`s. The
    /// [`EvalPath`] selects nothing (it has one arm).
    pub fn for_dag<D: DagLike + ?Sized>(dag: &D, arch: &Architecture, _: EvalPath) -> Self {
        EvaluationEngine {
            arena: ConversionArena::new(dag, arch),
            schedule: MbspSchedule::new(arch.processors),
            retained: MbspSchedule::new(arch.processors),
            post: PostOptimizer::new(dag, arch),
            procs_buf: Vec::new(),
            evaluations: 0,
        }
    }

    /// Sets the order that breaks ties inside a canonical superstep (see
    /// [`ConversionArena::set_tie_order`]; breadth-first until set). `order`
    /// must be a topological order of the graph the engine was built for, such
    /// as [`crate::TieOrder::of`] returns. Clears the arena's base: the next
    /// [`EvaluationEngine::rebase`] records one in the new order.
    pub fn set_tie_order(&mut self, order: &[NodeId]) {
        self.arena.set_tie_order(order);
    }

    /// Evaluates a per-node processor assignment: canonical superstep structure,
    /// BSP→MBSP conversion, post-optimisation, and the true MBSP cost. The
    /// resulting schedule stays available through [`EvaluationEngine::schedule`].
    /// Works over any [`DagLike`] graph (the engine must have been built for
    /// the same graph and architecture).
    pub fn evaluate_assignment_on<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        procs: &[ProcId],
        cost_model: CostModel,
        required_outputs: &[NodeId],
    ) -> f64 {
        self.evaluations += 1;
        self.arena
            .convert_assignment(dag, arch, procs, required_outputs, &mut self.schedule);
        self.post
            .optimize(&mut self.schedule, dag, arch, cost_model, required_outputs)
    }

    /// Makes `procs` — the incumbent a batch of neighbouring candidates is
    /// about to be evaluated against — the base of this engine's arena (see
    /// [`ConversionArena::rebase`]): one conversion, recorded, after which
    /// [`EvaluationEngine::evaluate_assignment_on`] simulates only the
    /// supersteps a candidate's difference from `procs` can change. Results
    /// are identical with or without it, and it is **not an evaluation**:
    /// [`EvaluationEngine::evaluations`] is unchanged, nothing is
    /// post-optimised or costed. Overwrites the scratch behind
    /// [`EvaluationEngine::schedule`].
    pub fn rebase<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        procs: &[ProcId],
        required_outputs: &[NodeId],
    ) {
        self.arena
            .rebase(dag, arch, procs, required_outputs, &mut self.schedule);
    }

    /// Supersteps this engine's conversions simulated (rebases included).
    pub fn simulated_supersteps(&self) -> u64 {
        self.arena.simulated_supersteps()
    }

    /// Supersteps this engine's conversions copied from their base instead of
    /// simulating them.
    pub fn skipped_supersteps(&self) -> u64 {
        self.arena.skipped_supersteps()
    }

    /// Evaluates an explicit BSP scheduling result (used for the baseline's own
    /// superstep structure, which the canonical reconstruction may not reproduce).
    pub fn evaluate_bsp_on<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        bsp: &BspSchedulingResult,
        cost_model: CostModel,
        required_outputs: &[NodeId],
    ) -> f64 {
        self.evaluations += 1;
        self.arena
            .convert(dag, arch, bsp, required_outputs, &mut self.schedule);
        self.post
            .optimize(&mut self.schedule, dag, arch, cost_model, required_outputs)
    }

    /// Evaluates one round's batch of candidate `moves`, each applied to
    /// `base_procs`, in candidate order. Returns `(cost, candidate index)` of
    /// the winner by the fixed tie-break order (lowest cost first, then lowest
    /// index) and retains the winner's schedule behind
    /// [`EvaluationEngine::swap_batch_winner`]; `None` when `moves` is empty.
    pub fn evaluate_batch_on<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        base_procs: &[ProcId],
        moves: &[Move],
        cost_model: CostModel,
        required_outputs: &[NodeId],
    ) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        let mut procs = std::mem::take(&mut self.procs_buf);
        for (idx, mv) in moves.iter().enumerate() {
            procs.clear();
            procs.extend_from_slice(base_procs);
            mv.apply(dag, &mut procs);
            let cost = self.evaluate_assignment_on(dag, arch, &procs, cost_model, required_outputs);
            // Candidates arrive in index order, so the earlier one keeps a tie.
            if best.map_or(true, |(best_cost, _)| cost.total_cmp(&best_cost).is_lt()) {
                best = Some((cost, idx));
                // Keep the new best's schedule; the old one becomes the scratch
                // the next conversion overwrites.
                std::mem::swap(&mut self.schedule, &mut self.retained);
            }
        }
        self.procs_buf = procs;
        best
    }

    /// The schedule produced by the most recent direct `evaluate_*` call (a
    /// batch leaves its winner behind [`EvaluationEngine::swap_batch_winner`]
    /// instead).
    pub fn schedule(&self) -> &MbspSchedule {
        &self.schedule
    }

    /// Swaps `schedule` with the schedule this engine kept for the winner of
    /// the last batch. A batch keeps its winner's schedule —
    /// [`EvaluationEngine::evaluate_batch_on`] holds on to the schedule of its
    /// best-so-far candidate by an O(1) swap — so after a batch that reported
    /// a winner this yields exactly the schedule a fresh evaluation of the
    /// winning assignment would produce, without converting it a second
    /// time. What the caller hands in (typically the previous incumbent) is
    /// recycled as scratch storage.
    pub fn swap_batch_winner(&mut self, schedule: &mut MbspSchedule) {
        std::mem::swap(&mut self.retained, schedule);
    }

    /// Swaps `schedule` with the schedule of the most recent direct
    /// `evaluate_*` call; what the caller hands in becomes the scratch the
    /// next conversion overwrites.
    pub(crate) fn swap_schedule(&mut self, schedule: &mut MbspSchedule) {
        std::mem::swap(&mut self.schedule, schedule);
    }
}

/// The `(node, new processor)` pairs by which `after` differs from `before` —
/// the assignment delta the sharded merge replays through the global engine.
/// Node ids are indices into the assignment slices (local or global, caller's
/// choice); the result is in index order, so it is deterministic.
pub fn assignment_delta(before: &[ProcId], after: &[ProcId]) -> Vec<(NodeId, ProcId)> {
    debug_assert_eq!(before.len(), after.len());
    (0..before.len())
        .filter(|&i| after[i] != before[i])
        .map(|i| (NodeId::new(i), after[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_model::Architecture;
    use rand::SeedableRng;

    fn instance() -> MbspInstance {
        let named = mbsp_gen::tiny_dataset(42).remove(3);
        MbspInstance::with_cache_factor(named.dag, Architecture::paper_default(0.0), 3.0)
    }

    #[test]
    fn moves_apply_and_propose() {
        let inst = instance();
        let dag = inst.dag();
        let n = dag.num_nodes();
        let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let mut procs = vec![ProcId::new(0); n];
        for i in 0..n {
            procs[i] = ProcId::new(i % inst.arch().processors);
        }
        let mut proposed = 0;
        for _ in 0..200 {
            if let Some(mv) = Move::propose(dag, inst.arch(), &procs, &movable, &mut rng) {
                proposed += 1;
                let before = procs.clone();
                mv.apply(dag, &mut procs);
                assert_ne!(before, procs, "{mv:?} must change the assignment");
            }
        }
        assert!(proposed > 50, "most draws should produce a real move");
    }

    #[test]
    fn engine_and_reference_path_agree() {
        let inst = instance();
        let dag = inst.dag();
        let n = dag.num_nodes();
        let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
        let mut rng = StdRng::seed_from_u64(12);
        let mut incremental = EvaluationEngine::new(&inst);
        let mut procs: Vec<ProcId> = (0..n)
            .map(|i| ProcId::new(i % inst.arch().processors))
            .collect();
        for _ in 0..12 {
            if let Some(mv) = Move::propose(dag, inst.arch(), &procs, &movable, &mut rng) {
                mv.apply(dag, &mut procs);
            }
            let a = incremental.evaluate_assignment_on(
                dag,
                inst.arch(),
                &procs,
                CostModel::Synchronous,
                &[],
            );
            let (schedule, b) = crate::reference::evaluate_assignment(
                dag,
                inst.arch(),
                &procs,
                &crate::TieOrder::BreadthFirst.of(dag),
                CostModel::Synchronous,
                &[],
            );
            assert!((a - b).abs() < 1e-9, "incremental {a} vs reference {b}");
            assert_eq!(incremental.schedule(), &schedule);
        }
    }

    #[test]
    fn a_batch_keeps_its_winners_schedule() {
        // The batch reports the first candidate of lowest cost, and the
        // schedule it retained must be the one a fresh engine produces for the
        // winner's assignment, at a bit-equal cost — that is what lets the
        // search loop skip the winner's second conversion.
        let inst = instance();
        let dag = inst.dag();
        let n = dag.num_nodes();
        let movable: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
        let mut winners_past_the_first_candidate = 0usize;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let procs: Vec<ProcId> = (0..n)
                .map(|i| ProcId::new((i + seed as usize) % inst.arch().processors))
                .collect();
            let mut moves = Vec::new();
            while moves.len() < 21 {
                if let Some(mv) = Move::propose(dag, inst.arch(), &procs, &movable, &mut rng) {
                    moves.push(mv);
                }
            }
            let mut engine = EvaluationEngine::new(&inst);
            let (cost, idx) = engine
                .evaluate_batch_on(
                    dag,
                    inst.arch(),
                    &procs,
                    &moves,
                    CostModel::Synchronous,
                    &[],
                )
                .expect("every candidate evaluated");
            winners_past_the_first_candidate += (idx > 0) as usize;
            let mut retained = MbspSchedule::new(inst.arch().processors);
            engine.swap_batch_winner(&mut retained);
            // Taking the winner costs no evaluation.
            assert_eq!(engine.evaluations, moves.len() as u64);

            let mut fresh = EvaluationEngine::new(&inst);
            let mut costs = Vec::new();
            for mv in &moves {
                let mut candidate = procs.clone();
                mv.apply(dag, &mut candidate);
                let c = fresh.evaluate_assignment_on(
                    dag,
                    inst.arch(),
                    &candidate,
                    CostModel::Synchronous,
                    &[],
                );
                costs.push(c);
            }
            let first_min = (0..costs.len())
                .min_by(|&a, &b| costs[a].total_cmp(&costs[b]).then(a.cmp(&b)))
                .unwrap();
            assert_eq!(idx, first_min, "seed {seed}: (cost, index) order");
            assert_eq!(cost.to_bits(), costs[idx].to_bits(), "seed {seed}");

            let mut winner = procs.clone();
            moves[idx].apply(dag, &mut winner);
            fresh.evaluate_assignment_on(dag, inst.arch(), &winner, CostModel::Synchronous, &[]);
            assert_eq!(
                &retained,
                fresh.schedule(),
                "seed {seed}: retained schedule is not the winner's"
            );
        }
        assert!(
            winners_past_the_first_candidate > 0,
            "every winner was candidate 0: the retention swap is untested"
        );
    }
}
