//! The two-stage BSP → MBSP conversion (the paper's baseline scheduler).
//!
//! Given a memory-oblivious BSP schedule (which processor computes which node, and
//! in which order) and an eviction policy, [`TwoStageScheduler`] produces a valid
//! MBSP schedule by simulating the per-processor caches:
//!
//! 1. every processor executes a **maximal segment** of its remaining compute
//!    sequence that needs no new I/O (missing inputs or insufficient cache space end
//!    the segment) — this is one MBSP compute phase;
//! 2. values computed in the segment that are needed by another processor, are
//!    sinks, or are about to be evicted while still needed, are **saved**;
//! 3. the eviction policy selects victims to **delete** until the inputs of the next
//!    segment fit;
//! 4. the missing inputs of the next segment are **loaded**, greedily prefetching
//!    the inputs of further compute steps while space remains.
//!
//! Steps 1–4 form one MBSP superstep; the loop repeats until every processor has
//! executed its whole sequence. The conversion never recomputes a node (the BSP
//! stage assigns each node exactly once), exactly like the baseline in the paper.
//!
//! ## The conversion arena
//!
//! The holistic local search of `mbsp-ilp` converts thousands of neighbouring
//! processor assignments per instance, so the conversion state is split in two:
//!
//! * [`ConversionArena`] holds everything that outlives one candidate — the
//!   topological order, the per-processor compute sequences, the flat use
//!   index, the cache-simulation buffers — allocated **once per instance**;
//! * each conversion is then a cheap *reset* of that state. Converting a
//!   neighbouring assignment via [`ConversionArena::convert_assignment`] reuses all
//!   allocations and rebuilds the compute sequences (and their slice of the use
//!   index) only for the processors the move actually touched.
//!
//! At tight caches (`r = 3·r0`, the paper's regime) a conversion simulates about
//! one superstep per computed node, so nothing in the superstep loop may scale
//! with the DAG. Two structures keep one conversion at
//! O(`P`·nodes + edges + supersteps·`P`) plus the eviction work:
//!
//! * the **flat use index** — per processor, one CSR pair (`u32` offsets per
//!   node, `u32` positions per edge into the processor's sequence) answering
//!   "where is this value read next on this processor?" with two dependent
//!   loads, instead of one heap vector per `(processor, node)`;
//! * the **stamped blue set** — per node, the first superstep at whose
//!   beginning the value is in slow memory. Loads may only read values that were
//!   blue when their superstep *began* (a value saved in superstep `s` is
//!   loadable from `s + 1` on); comparing the stamp with the current superstep
//!   index answers that without copying the blue set once per superstep.
//!
//! On generous caches the simulation itself is dominated by victim selection:
//! every eviction trigger used to rebuild and scan a candidate set the size of
//! the cache. The arena instead maintains, per processor, an ordered set of
//! **spent** values (cached, no remaining local use — what the clairvoyant
//! policy evicts first, in exactly the set's order) and a node-id-ordered set
//! of **dead** values (no remaining use anywhere, droppable without a save),
//! updated at the few events that create them; eviction triggers then pop
//! victims in O(log cached).
//!
//! The arena is **operation-identical** to a from-scratch conversion: the
//! [`mod@reference`] module keeps the original single-shot converter as the
//! ground truth (mirroring the `dense::` module of `lp_solver`), and the tests
//! in `mbsp-ilp` replay random move sequences asserting that arena output and
//! reference output are equal schedules.

use crate::policy::{CandidateVictim, EvictionPolicy};
use mbsp_dag::{DagLike, NodeId, TopologicalOrder};
use mbsp_model::{Architecture, ComputePhaseStep, MbspSchedule, ProcId, Superstep};
use mbsp_sched::BspSchedulingResult;

/// [`ConversionArena`]'s blue stamp of a node that is not in slow memory.
const NOT_BLUE: u32 = u32::MAX;

/// Configuration of the two-stage converter.
#[derive(Debug, Clone, Copy)]
pub struct TwoStageConfig {
    /// If true, the load phase prefetches the inputs of further compute steps while
    /// cache space remains (fewer supersteps, same I/O volume). If false, only the
    /// inputs of the immediately next compute step are loaded.
    pub prefetch: bool,
}

impl Default for TwoStageConfig {
    fn default() -> Self {
        TwoStageConfig { prefetch: true }
    }
}

/// The two-stage (BSP schedule + cache policy) MBSP scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoStageScheduler {
    config: TwoStageConfig,
}

impl TwoStageScheduler {
    /// Creates a converter with the default configuration.
    pub fn new() -> Self {
        TwoStageScheduler {
            config: TwoStageConfig::default(),
        }
    }

    /// Creates a converter with an explicit configuration.
    pub fn with_config(config: TwoStageConfig) -> Self {
        TwoStageScheduler { config }
    }

    /// Converts a BSP scheduling result into a valid MBSP schedule using `policy`
    /// for cache eviction.
    pub fn schedule<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        arch: &Architecture,
        bsp: &BspSchedulingResult,
        policy: &dyn EvictionPolicy,
    ) -> MbspSchedule {
        self.schedule_with_required_outputs(dag, arch, bsp, policy, &[])
    }

    /// Like [`TwoStageScheduler::schedule`], but additionally guarantees that every
    /// node in `required_outputs` is saved to slow memory (used by the
    /// divide-and-conquer scheduler for values needed by later sub-problems).
    pub fn schedule_with_required_outputs<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        arch: &Architecture,
        bsp: &BspSchedulingResult,
        policy: &dyn EvictionPolicy,
        required_outputs: &[NodeId],
    ) -> MbspSchedule {
        let mut arena = ConversionArena::new(dag, arch);
        let mut out = MbspSchedule::new(arch.processors);
        arena.convert(
            dag,
            arch,
            bsp,
            policy,
            self.config,
            required_outputs,
            &mut out,
        );
        out
    }
}

/// Long-lived conversion state for one `(dag, arch)` instance.
///
/// All buffers are allocated once and reused across conversions; see the module
/// docs for the split between per-instance and per-candidate state. An arena must
/// only be used with the instance it was built for (node counts are asserted).
#[derive(Debug)]
pub struct ConversionArena {
    n: usize,
    p: usize,
    // ---- Per-instance immutable data. ----
    /// Topological order of the DAG (computed once).
    topo_order: Vec<NodeId>,
    /// Position of every node within `topo_order`.
    topo_pos: Vec<usize>,
    /// Per node: number of compute steps (over the whole run, any processor) that
    /// read it — assignment-independent, copied into `remaining_uses` per run.
    base_uses: Vec<usize>,
    /// Per node: is it a sink of the DAG (always a required output)?
    sink_mask: Vec<bool>,
    /// Per node: is it a source of the DAG (never computed)?
    source_mask: Vec<bool>,
    // ---- Sequence state (rebuilt per candidate, incrementally when possible). ----
    /// Per processor: the full ordered sequence of nodes it computes.
    seq: Vec<Vec<NodeId>>,
    /// Per node: index of the processor whose sequence contains it
    /// (`u32::MAX` for sources, which are never computed).
    node_proc: Vec<u32>,
    /// The flat use index, offsets half: per processor and node, flattened as
    /// `p * (n + 1) + v`, the CSR offsets into `use_pos[p]` — entries
    /// `use_off[..v]..use_off[..v + 1]` are the ascending positions in `seq[p]`
    /// where `v` is read as an input of a compute step. Rebuilt only for the
    /// processors whose sequence changed.
    use_off: Vec<u32>,
    /// The flat use index, positions half: one position list per processor
    /// (one entry per edge into a node of `seq[p]`).
    use_pos: Vec<Vec<u32>>,
    /// Canonical superstep of every node for the current assignment.
    superstep: Vec<usize>,
    /// Assignment and supersteps of the previous `convert_assignment` call, used to
    /// detect which processors' sequences can be reused verbatim.
    prev_procs: Vec<ProcId>,
    prev_superstep: Vec<usize>,
    /// Whether `prev_procs`/`prev_superstep` describe the current `seq` state.
    have_prev: bool,
    /// Scratch: which processors need their sequence rebuilt.
    seq_dirty: Vec<bool>,
    /// Scratch for the generic (explicit BSP result) path.
    order_pos: Vec<usize>,
    keyed: Vec<(usize, usize, usize, NodeId)>,
    // ---- Per-run cache-simulation state. ----
    /// Per processor: current position in `seq`.
    cursor: Vec<usize>,
    /// Per processor and node (flat `p * n + v`): index into `use_pos[p]` of
    /// the node's first use that has not been passed yet (starts at the node's
    /// `use_off` entry, ends at the next node's).
    use_ptr: Vec<u32>,
    /// Per processor and node (flat `p * n + v`): is the node currently cached?
    /// One flat allocation instead of one heap vector per processor.
    cached: Vec<bool>,
    /// Per processor: the cached nodes as a dense list (arbitrary order), kept
    /// exactly in sync with `cached` so eviction scans cost O(cached) instead of
    /// O(V).
    cached_list: Vec<Vec<NodeId>>,
    /// Per processor and node (flat `p * n + v`): position of the node within
    /// `cached_list` (only meaningful while the node is cached).
    list_pos: Vec<u32>,
    /// Per processor: current cache usage.
    used: Vec<f64>,
    /// Per processor and node (flat `p * n + v`): logical time of the last
    /// access (for LRU).
    last_use: Vec<usize>,
    /// Per node: membership mask mirroring the prefetch planner's
    /// `virtually_cached` list (O(1) lookups instead of a linear scan over a
    /// window that grows with the cache size). Always all-false outside
    /// [`ConversionArena::plan_io`].
    virt_mask: Vec<bool>,
    /// Per node: its memory weight `μ(v)`, copied out of the DAG once so the
    /// spent-set keys can be built without a `DagLike` handle.
    mem_weight: Vec<f64>,
    /// Per processor: the cached values with no remaining use on that processor
    /// ("spent"), ordered exactly as the clairvoyant policy evicts them —
    /// blue-pebbled first, then heavier, then smaller node id (see
    /// [`ConversionArena::spent_key`]). A value enters the set the moment its
    /// last local use is consumed (or when it is computed with no local
    /// children) and leaves it on eviction, so eviction triggers pop victims in
    /// O(log cached) instead of scanning the whole cache. Policies whose
    /// [`EvictionPolicy::evicts_spent_first`] is `false` (LRU) ignore the set
    /// for victim selection, but it is maintained unconditionally so switching
    /// policies between runs is safe.
    spent: Vec<std::collections::BTreeSet<(u8, u64, u32)>>,
    /// Per processor and node (flat `p * n + v`): is the node in `spent`?
    in_spent: Vec<bool>,
    /// Per processor: the cached values that are *dead* — no unconsumed use on
    /// any processor and droppable without a save (`!required || blue`) — in
    /// node-id order, exactly the order
    /// [`ConversionArena::make_room_with_dead_values`] drops them in. Deadness
    /// is monotone while a value stays cached, so the set is maintained at the
    /// two events that create it (the last global use is consumed; a required
    /// value with no uses left gains its blue pebble) and on eviction.
    dead: Vec<std::collections::BTreeSet<u32>>,
    /// Per processor and node (flat `p * n + v`): is the node in `dead`?
    in_dead: Vec<bool>,
    /// Per processor: logical clock incremented on every compute step.
    clock: Vec<usize>,
    /// Index of the superstep being simulated.
    step: u32,
    /// The stamped blue set. Per node: the first superstep at whose beginning
    /// the node is in slow memory — `0` for sources, `s + 1` for a value saved
    /// during superstep `s`, [`NOT_BLUE`] while it has no blue pebble. One
    /// array answers both questions the simulation asks: "is it blue now?"
    /// (`!= NOT_BLUE`) and "was it blue when this superstep began?"
    /// (`<= step`) — loads may only read the latter, so a value saved in
    /// superstep `s` is loadable from `s + 1` on.
    blue_since: Vec<u32>,
    /// Number of not-yet-executed compute steps (on any processor) that read a node.
    remaining_uses: Vec<usize>,
    /// Whether the node must eventually reside in slow memory.
    is_required_output: Vec<bool>,
    // ---- Reusable scratch buffers. ----
    scratch_nodes: Vec<NodeId>,
    scratch_nodes2: Vec<NodeId>,
    scratch_nodes3: Vec<NodeId>,
    scratch_parents: Vec<NodeId>,
    scratch_candidates: Vec<CandidateVictim>,
}

impl ConversionArena {
    /// Builds the arena for one instance: computes the topological order and the
    /// assignment-independent use counts, and allocates every buffer a conversion
    /// needs. O(P·V + E) space, built once.
    pub fn new<D: DagLike + ?Sized>(dag: &D, arch: &Architecture) -> Self {
        let n = dag.num_nodes();
        let p = arch.processors;
        let topo = TopologicalOrder::of(dag);
        let topo_pos: Vec<usize> = (0..n).map(|i| topo.position(NodeId::new(i))).collect();
        let mut base_uses = vec![0usize; n];
        for v in dag.nodes().filter(|&v| !dag.is_source(v)) {
            for u in dag.parents(v) {
                base_uses[u.index()] += 1;
            }
        }
        // Superstep stamps and the flat use index are `u32`: `run` never
        // simulates more than `8 * n + 8` supersteps, and a processor's use
        // positions number at most the edges of the DAG.
        assert!(
            n < (NOT_BLUE as usize - 8) / 8 && base_uses.iter().sum::<usize>() < NOT_BLUE as usize,
            "DAG too large for the arena's u32 stamps and use index"
        );
        let sink_mask: Vec<bool> = dag.nodes().map(|v| dag.is_sink(v)).collect();
        let source_mask: Vec<bool> = dag.nodes().map(|v| dag.is_source(v)).collect();
        ConversionArena {
            n,
            p,
            topo_order: topo.order().to_vec(),
            topo_pos,
            base_uses,
            sink_mask,
            source_mask,
            seq: vec![Vec::new(); p],
            node_proc: vec![u32::MAX; n],
            use_off: vec![0; p * (n + 1)],
            use_pos: vec![Vec::new(); p],
            superstep: vec![0; n],
            prev_procs: vec![ProcId::new(0); n],
            prev_superstep: vec![0; n],
            have_prev: false,
            seq_dirty: vec![false; p],
            order_pos: vec![usize::MAX; n],
            keyed: Vec::new(),
            cursor: vec![0; p],
            use_ptr: vec![0; p * n],
            cached: vec![false; p * n],
            cached_list: vec![Vec::new(); p],
            list_pos: vec![0; p * n],
            used: vec![0.0; p],
            last_use: vec![0; p * n],
            virt_mask: vec![false; n],
            mem_weight: {
                let w: Vec<f64> = dag.nodes().map(|v| dag.memory_weight(v)).collect();
                // Non-negative weights keep the `to_bits` ordering of `spent_key`
                // consistent with `partial_cmp` in the eviction policies.
                debug_assert!(w.iter().all(|&x| x >= 0.0));
                w
            },
            spent: vec![std::collections::BTreeSet::new(); p],
            in_spent: vec![false; p * n],
            dead: vec![std::collections::BTreeSet::new(); p],
            in_dead: vec![false; p * n],
            clock: vec![0; p],
            step: 0,
            blue_since: vec![NOT_BLUE; n],
            remaining_uses: vec![0; n],
            is_required_output: vec![false; n],
            scratch_nodes: Vec::new(),
            scratch_nodes2: Vec::new(),
            scratch_nodes3: Vec::new(),
            scratch_parents: Vec::new(),
            scratch_candidates: Vec::new(),
        }
    }

    /// Converts an explicit BSP scheduling result (assignment, supersteps and order
    /// hint) into `out`. This is the general path used for schedules produced by the
    /// BSP baselines; the per-processor sequences are rebuilt from scratch, but all
    /// allocations are reused.
    #[allow(clippy::too_many_arguments)]
    pub fn convert<D: DagLike + ?Sized, P: EvictionPolicy + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        bsp: &BspSchedulingResult,
        policy: &P,
        config: TwoStageConfig,
        required_outputs: &[NodeId],
        out: &mut MbspSchedule,
    ) {
        assert_eq!(dag.num_nodes(), self.n, "arena used with a different DAG");
        // Sequences no longer correspond to a canonical assignment.
        self.have_prev = false;
        self.order_pos.fill(usize::MAX);
        for (i, &v) in bsp.order.iter().enumerate() {
            self.order_pos[v.index()] = i;
        }
        self.keyed.clear();
        for v in dag.nodes().filter(|&v| !dag.is_source(v)) {
            self.keyed.push((
                bsp.schedule.superstep_of(v),
                self.order_pos[v.index()],
                bsp.schedule.proc_of(v).index(),
                v,
            ));
        }
        self.keyed.sort_unstable();
        for s in &mut self.seq {
            s.clear();
        }
        self.node_proc.fill(u32::MAX);
        for i in 0..self.keyed.len() {
            let (_, _, pi, v) = self.keyed[i];
            self.seq[pi].push(v);
            self.node_proc[v.index()] = pi as u32;
        }
        for pi in 0..self.p {
            self.rebuild_use_index(dag, pi);
        }
        self.reset_run_state(required_outputs);
        self.run(dag, arch, policy, config, out);
    }

    /// Converts a bare per-node processor assignment into `out`, deriving the
    /// superstep structure canonically (each node in the earliest superstep
    /// compatible with its parents, exactly as `mbsp_ilp::improver::canonical_bsp`).
    ///
    /// This is the hot path of the holistic search: consecutive calls reuse the
    /// per-processor sequences of every processor whose node set and superstep keys
    /// did not change, so a single-node move typically rebuilds one or two
    /// sequences instead of all `P`.
    #[allow(clippy::too_many_arguments)]
    pub fn convert_assignment<D: DagLike + ?Sized, P: EvictionPolicy + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        procs: &[ProcId],
        policy: &P,
        config: TwoStageConfig,
        required_outputs: &[NodeId],
        out: &mut MbspSchedule,
    ) {
        assert_eq!(procs.len(), self.n, "assignment length mismatch");
        self.compute_canonical_supersteps(dag, procs);

        // Which processors need their sequence rebuilt?
        let all_dirty = !self.have_prev;
        self.seq_dirty.fill(false);
        if !all_dirty {
            for i in 0..self.n {
                if self.source_mask[i] {
                    continue;
                }
                if self.prev_procs[i] != procs[i] {
                    self.seq_dirty[self.prev_procs[i].index()] = true;
                    self.seq_dirty[procs[i].index()] = true;
                } else if self.prev_superstep[i] != self.superstep[i] {
                    // The node stays put but its sort key moved: its sequence may
                    // reorder.
                    self.seq_dirty[procs[i].index()] = true;
                }
            }
        }
        for pi in 0..self.p {
            if all_dirty || self.seq_dirty[pi] {
                self.rebuild_seq_for_assignment(pi, procs);
                self.rebuild_use_index(dag, pi);
            }
        }
        for i in 0..self.n {
            self.node_proc[i] = if self.source_mask[i] {
                u32::MAX
            } else {
                procs[i].index() as u32
            };
        }
        self.prev_procs.copy_from_slice(procs);
        self.prev_superstep.copy_from_slice(&self.superstep);
        self.have_prev = true;

        self.reset_run_state(required_outputs);
        self.run(dag, arch, policy, config, out);
    }

    /// Canonical superstep of every node for `procs`: in topological order, a
    /// node's superstep is the smallest one compatible with its parents (same
    /// superstep on the same processor, strictly later across processors; sources
    /// force at least superstep 1).
    fn compute_canonical_supersteps<D: DagLike + ?Sized>(&mut self, dag: &D, procs: &[ProcId]) {
        for idx in 0..self.topo_order.len() {
            let v = self.topo_order[idx];
            if self.source_mask[v.index()] {
                self.superstep[v.index()] = 0;
                continue;
            }
            let mut s = 0usize;
            for u in dag.parents(v) {
                let su = self.superstep[u.index()];
                let needed = if self.source_mask[u.index()] {
                    su + 1
                } else if procs[u.index()] == procs[v.index()] {
                    su
                } else {
                    su + 1
                };
                s = s.max(needed);
            }
            self.superstep[v.index()] = s.max(1);
        }
    }

    /// Rebuilds `seq[pi]` for the canonical-assignment path: the non-source nodes
    /// assigned to `pi`, sorted by `(superstep, topological position)` — the same
    /// order the explicit-BSP path derives from the canonical schedule.
    fn rebuild_seq_for_assignment(&mut self, pi: usize, procs: &[ProcId]) {
        let ConversionArena {
            seq,
            superstep,
            topo_pos,
            source_mask,
            ..
        } = self;
        let s = &mut seq[pi];
        s.clear();
        for (i, &proc) in procs.iter().enumerate() {
            if proc.index() == pi && !source_mask[i] {
                s.push(NodeId::new(i));
            }
        }
        s.sort_unstable_by_key(|v| (superstep[v.index()], topo_pos[v.index()]));
    }

    /// Rebuilds processor `pi`'s slice of the flat use index from its (fresh)
    /// sequence: count the uses per node, prefix-sum them into `use_off`, then
    /// scatter the positions — walking `seq[pi]` in order leaves every node's
    /// positions ascending. O(V + edges of the processor), no allocation once
    /// `use_pos[pi]` has grown to the processor's largest edge count.
    fn rebuild_use_index<D: DagLike + ?Sized>(&mut self, dag: &D, pi: usize) {
        let n = self.n;
        let off = &mut self.use_off[pi * (n + 1)..(pi + 1) * (n + 1)];
        off.fill(0);
        for &v in &self.seq[pi] {
            for u in dag.parents(v) {
                off[u.index() + 1] += 1;
            }
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        // `use_ptr` is reset from the offsets at the start of every run, so it
        // doubles as the scatter cursor here.
        let ptr = &mut self.use_ptr[pi * n..(pi + 1) * n];
        ptr.copy_from_slice(&off[..n]);
        let positions = &mut self.use_pos[pi];
        positions.clear();
        positions.resize(off[n] as usize, 0);
        for (pos, &v) in self.seq[pi].iter().enumerate() {
            for u in dag.parents(v) {
                let slot = &mut ptr[u.index()];
                positions[*slot as usize] = pos as u32;
                *slot += 1;
            }
        }
    }

    /// Resets the cache-simulation state for a fresh run (no allocations).
    fn reset_run_state(&mut self, required_outputs: &[NodeId]) {
        self.cursor.fill(0);
        self.used.fill(0.0);
        self.clock.fill(0);
        // Clear exactly the red pebbles the previous run left behind (the dense
        // list knows them), instead of an O(P·V) sweep.
        for pi in 0..self.p {
            let base = pi * self.n;
            for idx in 0..self.cached_list[pi].len() {
                let v = self.cached_list[pi][idx];
                self.cached[base + v.index()] = false;
            }
            self.cached_list[pi].clear();
            // `in_spent` is true exactly for the set members, so clearing the
            // flags while draining keeps both in sync without an O(V) sweep.
            for &(_, _, v) in self.spent[pi].iter() {
                self.in_spent[base + v as usize] = false;
            }
            self.spent[pi].clear();
            for &v in self.dead[pi].iter() {
                self.in_dead[base + v as usize] = false;
            }
            self.dead[pi].clear();
        }
        self.last_use.fill(0);
        let n = self.n;
        for pi in 0..self.p {
            self.use_ptr[pi * n..(pi + 1) * n]
                .copy_from_slice(&self.use_off[pi * (n + 1)..pi * (n + 1) + n]);
        }
        // The initial blue set is exactly the sources.
        for (since, &source) in self.blue_since.iter_mut().zip(&self.source_mask) {
            *since = if source { 0 } else { NOT_BLUE };
        }
        self.remaining_uses.copy_from_slice(&self.base_uses);
        self.is_required_output.copy_from_slice(&self.sink_mask);
        for &v in required_outputs {
            self.is_required_output[v.index()] = true;
        }
    }

    /// The cache simulation itself: identical transition rules to
    /// [`reference::convert`], writing into `out` (whose superstep and phase
    /// allocations are reused).
    fn run<D: DagLike + ?Sized, P: EvictionPolicy + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        policy: &P,
        config: TwoStageConfig,
        out: &mut MbspSchedule,
    ) {
        assert_eq!(
            out.processors(),
            self.p,
            "output schedule has the wrong processor count"
        );
        // Clear any previous contents while keeping the phase-vector allocations.
        for step in out.supersteps_mut().iter_mut() {
            if step.procs.len() != self.p {
                *step = Superstep::empty(self.p);
            }
            for phases in &mut step.procs {
                phases.compute.clear();
                phases.save.clear();
                phases.delete.clear();
                phases.load.clear();
            }
        }

        let total: usize = self.seq.iter().map(|s| s.len()).sum();
        // Each superstep makes progress (a compute or a load); the bound below is a
        // generous safety net against construction bugs.
        let max_supersteps = 4 * total + 4 * self.n + 8;
        let mut step_idx = 0usize;

        while self.cursor.iter().zip(&self.seq).any(|(&c, s)| c < s.len()) {
            assert!(
                step_idx <= max_supersteps,
                "two-stage conversion is not making progress"
            );
            // Loads in this superstep may only read values that were already in
            // slow memory when it began (saves of the same superstep are not
            // relied upon, which keeps the construction simple and always
            // valid): advancing the index the blue stamps are compared against
            // is the whole "snapshot".
            self.step = step_idx as u32;
            if step_idx >= out.num_supersteps() {
                out.push_empty_superstep();
            }

            for pi in 0..self.p {
                let phases = &mut out.supersteps_mut()[step_idx].procs[pi];
                let base = pi * self.n;

                // ---- 1. Compute phase: maximal segment without new I/O. ----
                loop {
                    let pos = self.cursor[pi];
                    if pos >= self.seq[pi].len() {
                        break;
                    }
                    let v = self.seq[pi][pos];
                    // All parents must already be cached.
                    if dag.parents(v).any(|u| !self.cached[base + u.index()]) {
                        break;
                    }
                    // Make room for the output of v by dropping dead values only
                    // (no I/O allowed inside a compute phase).
                    let needed = dag.memory_weight(v);
                    if !self.make_room_with_dead_values(dag, arch, pi, needed, phases, v) {
                        break;
                    }
                    // Execute the compute step.
                    phases.compute.push(ComputePhaseStep::Compute(v));
                    self.cache_insert(pi, v);
                    self.used[pi] += dag.memory_weight(v);
                    self.clock[pi] += 1;
                    self.last_use[base + v.index()] = self.clock[pi];
                    for u in dag.parents(v) {
                        self.last_use[base + u.index()] = self.clock[pi];
                        self.remaining_uses[u.index()] -= 1;
                    }
                    self.cursor[pi] += 1;
                    // A value becomes spent the moment its last local use is
                    // consumed (for v itself: when it has no local uses at
                    // all); recording the transition here is what lets the
                    // eviction triggers pop victims without scanning the cache.
                    if self.next_use(pi, v).is_none() {
                        self.spent_insert(pi, v);
                    }
                    for u in dag.parents(v) {
                        if self.next_use(pi, u).is_none() {
                            self.spent_insert(pi, u);
                        }
                        if self.remaining_uses[u.index()] == 0
                            && (!self.is_required_output[u.index()] || self.is_blue(u))
                        {
                            // Last global use consumed: u is now dead on every
                            // processor that still caches a copy.
                            self.dead_insert_everywhere(u);
                        }
                    }
                }

                // ---- 2. Save phase: persist computed values that need it. ----
                for idx in 0..phases.compute.len() {
                    let ComputePhaseStep::Compute(v) = phases.compute[idx] else {
                        continue;
                    };
                    if self.is_blue(v) {
                        continue;
                    }
                    let has_remote_child = dag.children(v).any(|c| {
                        // A child computed on a different processor will need to
                        // load v from slow memory.
                        !self.source_mask[c.index()] && self.node_proc[c.index()] != pi as u32
                    });
                    if self.is_required_output[v.index()] || has_remote_child {
                        phases.save.push(v);
                        // Blue is part of the spent-set ordering key, so a
                        // spent value must be re-keyed across the flip. Only
                        // pi's set can hold v: an unsaved value exists solely
                        // on the processor that computed it.
                        let respent = self.in_spent[base + v.index()];
                        if respent {
                            self.spent_remove(pi, v);
                        }
                        self.mark_blue(v);
                        if respent {
                            self.spent_insert(pi, v);
                        }
                        if self.remaining_uses[v.index()] == 0 {
                            // A required value with no uses left becomes dead
                            // the moment its blue pebble lands.
                            self.dead_insert_everywhere(v);
                        }
                    }
                }

                // ---- 3 & 4. Eviction and loads for the next segment. ----
                self.plan_io(dag, arch, policy, config, pi, phases);
            }
            step_idx += 1;
        }
        out.supersteps_mut().truncate(step_idx);
        out.remove_empty_supersteps();
    }

    /// Drops dead cached values (not needed by any future compute and not an
    /// unsaved required output) until `needed` additional space is available.
    /// Returns false if that is impossible without real evictions.
    fn make_room_with_dead_values<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        pi: usize,
        needed: f64,
        phases: &mut mbsp_model::ProcPhases,
        about_to_compute: NodeId,
    ) -> bool {
        let r = arch.cache_size;
        // The dead values are already known, in eviction order (node-id
        // ascending — the order the reference converter walks them in), in the
        // incrementally maintained `dead` set: pop until the output fits.
        // Parents of the pending compute still have an unconsumed use, so they
        // can never sit in the set.
        while self.used[pi] + needed > r + 1e-9 {
            let Some(&vid) = self.dead[pi].first() else {
                break;
            };
            let v = NodeId::new(vid as usize);
            debug_assert!(!dag.parents(about_to_compute).any(|u| u == v));
            phases.compute.push(ComputePhaseStep::Delete(v));
            self.cache_remove(pi, v);
            self.used[pi] -= dag.memory_weight(v);
        }
        self.used[pi] + needed <= r + 1e-9
    }

    /// Plans the save/delete/load phases that prepare the next compute segment of
    /// processor `pi`.
    fn plan_io<D: DagLike + ?Sized, P: EvictionPolicy + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        policy: &P,
        config: TwoStageConfig,
        pi: usize,
        phases: &mut mbsp_model::ProcPhases,
    ) {
        let pos = self.cursor[pi];
        if pos >= self.seq[pi].len() {
            return;
        }
        let r = arch.cache_size;
        let base = pi * self.n;
        let next = self.seq[pi][pos];
        // Inputs of the next compute step that are missing from the cache and
        // already available in slow memory.
        let missing = dag
            .parents(next)
            .filter(|&u| !self.cached[base + u.index()])
            .count();
        let mut loadable = std::mem::take(&mut self.scratch_nodes);
        loadable.clear();
        loadable.extend(
            dag.parents(next)
                .filter(|&u| !self.cached[base + u.index()] && self.loadable(u)),
        );
        if loadable.len() < missing {
            // Some input is not yet in slow memory (its producer has not caught up);
            // this processor simply waits for a later superstep.
            self.scratch_nodes = loadable;
            return;
        }
        let missing_weight: f64 = loadable.iter().map(|&u| dag.memory_weight(u)).sum();
        let target_free = missing_weight + dag.memory_weight(next);

        // Evict until the next compute step fits.
        if self.used[pi] + target_free > r + 1e-9 {
            // Fast path: a policy that evicts spent values first pops them
            // straight off the ordered spent set — O(log cached) per victim.
            // Parents of `next` (and `next` itself) are never spent (their use
            // at the current cursor position is still pending), so the keep-set
            // filter of the scan below is vacuous here. Popping reads the
            // current blue pebbles, which equal the trigger-start snapshot the
            // scan path sees: the only blue bit an eviction flips belongs to
            // the victim itself, which leaves the cache with it.
            if policy.evicts_spent_first() {
                while self.used[pi] + target_free > r + 1e-9 {
                    let Some((_, _, vid)) = self.spent[pi].pop_first() else {
                        break;
                    };
                    let v = NodeId::new(vid as usize);
                    self.in_spent[base + v.index()] = false;
                    debug_assert!(v != next && !dag.parents(next).any(|u| u == v));
                    let needed_later = self.remaining_uses[v.index()] > 0
                        || (self.is_required_output[v.index()] && !self.is_blue(v));
                    if needed_later && !self.is_blue(v) {
                        phases.save.push(v);
                        self.mark_blue(v);
                    }
                    phases.delete.push(v);
                    self.cache_remove(pi, v);
                    self.used[pi] -= dag.memory_weight(v);
                }
            }
            // Full scan: the reference converter ranks the whole candidate set
            // through `policy.rank`; since the policy order is total, repeatedly
            // extracting the minimum yields the identical eviction sequence
            // without sorting candidates that are never evicted. This is the
            // only path for policies without the spent-first guarantee and the
            // fallback once the spent set runs dry.
            if self.used[pi] + target_free > r + 1e-9 {
                let mut keep = std::mem::take(&mut self.scratch_parents);
                keep.clear();
                keep.extend(dag.parents(next));
                let mut candidates = std::mem::take(&mut self.scratch_candidates);
                candidates.clear();
                for idx in 0..self.cached_list[pi].len() {
                    let v = self.cached_list[pi][idx];
                    if keep.contains(&v) || v == next {
                        continue;
                    }
                    let candidate = CandidateVictim {
                        node: v,
                        weight: dag.memory_weight(v),
                        next_use: self.next_use(pi, v),
                        last_use: self.last_use[base + v.index()],
                        has_blue: self.is_blue(v),
                        needed_later: self.remaining_uses[v.index()] > 0
                            || (self.is_required_output[v.index()] && !self.is_blue(v)),
                    };
                    candidates.push(candidate);
                }
                let mut remaining = candidates.len();
                while self.used[pi] + target_free > r + 1e-9 && remaining > 0 {
                    let mut best = 0usize;
                    for i in 1..remaining {
                        if policy.order(&candidates[i], &candidates[best]).is_lt() {
                            best = i;
                        }
                    }
                    let c = candidates[best];
                    candidates.swap(best, remaining - 1);
                    remaining -= 1;
                    let v = c.node;
                    // The victim may sit in the spent set (policies that do
                    // not evict spent values first); drop it before the blue
                    // flip below invalidates its ordering key.
                    self.spent_remove(pi, v);
                    // A victim that is still needed and not yet in slow memory must be
                    // saved before it is deleted (save phase precedes delete phase).
                    if c.needed_later && !self.is_blue(v) {
                        phases.save.push(v);
                        self.mark_blue(v);
                    }
                    phases.delete.push(v);
                    self.cache_remove(pi, v);
                    self.used[pi] -= dag.memory_weight(v);
                }
                self.scratch_candidates = candidates;
                self.scratch_parents = keep;
            }
        }

        // Required loads for the next compute step.
        let mut planned_load_weight = 0.0;
        for &u in &loadable {
            if self.used[pi] + planned_load_weight + dag.memory_weight(u) > r + 1e-9 {
                // Should not happen when r >= r0; bail out conservatively.
                break;
            }
            phases.load.push(u);
            self.cache_insert(pi, u);
            planned_load_weight += dag.memory_weight(u);
        }
        self.used[pi] += planned_load_weight;
        self.scratch_nodes = loadable;

        // Greedy prefetch: extend the loads with the inputs of further compute steps
        // while everything (inputs plus the outputs produced in between) still fits.
        // Membership in the lookahead window is answered by `virt_mask` in O(1).
        if config.prefetch {
            let mut virtually_cached = std::mem::take(&mut self.scratch_nodes2);
            virtually_cached.clear();
            virtually_cached.push(next);
            self.virt_mask[next.index()] = true;
            let mut extras = std::mem::take(&mut self.scratch_nodes3);
            let mut virtual_used = self.used[pi] + dag.memory_weight(next);
            let mut look = pos + 1;
            while look < self.seq[pi].len() {
                let w = self.seq[pi][look];
                extras.clear();
                extras.extend(
                    dag.parents(w)
                        .filter(|&u| !self.cached[base + u.index()] && !self.virt_mask[u.index()]),
                );
                if extras.iter().any(|&u| !self.loadable(u)) {
                    break;
                }
                let extra_weight: f64 = extras.iter().map(|&u| dag.memory_weight(u)).sum();
                if virtual_used + extra_weight + dag.memory_weight(w) > r + 1e-9 {
                    break;
                }
                for &u in &extras {
                    phases.load.push(u);
                    self.cache_insert(pi, u);
                    self.used[pi] += dag.memory_weight(u);
                }
                virtual_used += extra_weight + dag.memory_weight(w);
                virtually_cached.push(w);
                self.virt_mask[w.index()] = true;
                look += 1;
            }
            for &v in &virtually_cached {
                self.virt_mask[v.index()] = false;
            }
            self.scratch_nodes2 = virtually_cached;
            self.scratch_nodes3 = extras;
        }
    }

    /// Position of the next use of `v` as an input on processor `pi`, if any.
    fn next_use(&mut self, pi: usize, v: NodeId) -> Option<usize> {
        let end = self.use_off[pi * (self.n + 1) + v.index() + 1];
        let positions = &self.use_pos[pi];
        let cursor = self.cursor[pi] as u32;
        let ptr = &mut self.use_ptr[pi * self.n + v.index()];
        while *ptr < end && positions[*ptr as usize] < cursor {
            *ptr += 1;
        }
        (*ptr < end).then(|| positions[*ptr as usize] as usize)
    }

    /// Does `v` have a blue pebble right now?
    #[inline]
    fn is_blue(&self, v: NodeId) -> bool {
        self.blue_since[v.index()] != NOT_BLUE
    }

    /// Was `v` already in slow memory when the current superstep began — the
    /// only values its load phases may read?
    #[inline]
    fn loadable(&self, v: NodeId) -> bool {
        self.blue_since[v.index()] <= self.step
    }

    /// Places `v`'s blue pebble during the current superstep (loadable from
    /// the next one on).
    #[inline]
    fn mark_blue(&mut self, v: NodeId) {
        debug_assert!(!self.is_blue(v));
        self.blue_since[v.index()] = self.step + 1;
    }

    /// Marks `v` as cached on `pi` (must not be cached already — the converter
    /// only caches on a miss) and tracks it in the dense cached list.
    #[inline]
    fn cache_insert(&mut self, pi: usize, v: NodeId) {
        let slot = pi * self.n + v.index();
        debug_assert!(!self.cached[slot]);
        self.cached[slot] = true;
        self.list_pos[slot] = self.cached_list[pi].len() as u32;
        self.cached_list[pi].push(v);
    }

    /// Ordering key of a spent value within [`ConversionArena::spent`]:
    /// blue-pebbled values first, then heavier values, then smaller node ids —
    /// exactly the clairvoyant tie-break among candidates whose `next_use` is
    /// `None`. Weights are non-negative, so `f64::to_bits` is order-preserving
    /// and its complement sorts heavier values first.
    #[inline]
    fn spent_key(&self, v: NodeId) -> (u8, u64, u32) {
        (
            !self.is_blue(v) as u8,
            !self.mem_weight[v.index()].to_bits(),
            v.index() as u32,
        )
    }

    /// Inserts `v` into `pi`'s spent set (no-op if already present).
    #[inline]
    fn spent_insert(&mut self, pi: usize, v: NodeId) {
        let slot = pi * self.n + v.index();
        if !self.in_spent[slot] {
            self.in_spent[slot] = true;
            let key = self.spent_key(v);
            self.spent[pi].insert(key);
        }
    }

    /// Removes `v` from `pi`'s spent set (no-op if absent). Must run before any
    /// change to `v`'s blue pebble, while the stored key still matches.
    #[inline]
    fn spent_remove(&mut self, pi: usize, v: NodeId) {
        let slot = pi * self.n + v.index();
        if self.in_spent[slot] {
            self.in_spent[slot] = false;
            let key = self.spent_key(v);
            let removed = self.spent[pi].remove(&key);
            debug_assert!(removed, "spent-set key out of sync");
        }
    }

    /// Marks `v` as dead on every processor that still caches a copy. Called at
    /// the two moments a value becomes dead: its last global use is consumed,
    /// or a required value with no uses left gains its blue pebble. (An
    /// eviction-save flip needs no call: an unsaved value is cached only on the
    /// processor evicting it.)
    fn dead_insert_everywhere(&mut self, v: NodeId) {
        for pi in 0..self.p {
            let slot = pi * self.n + v.index();
            if self.cached[slot] && !self.in_dead[slot] {
                self.in_dead[slot] = true;
                self.dead[pi].insert(v.index() as u32);
            }
        }
    }

    /// Removes `v` from `pi`'s cache and its dense cached list (O(1) swap-remove).
    #[inline]
    fn cache_remove(&mut self, pi: usize, v: NodeId) {
        // Evicted values leave the spent and dead sets with the cache (dead
        // values dropped by `make_room_with_dead_values` are always spent).
        self.spent_remove(pi, v);
        let slot = pi * self.n + v.index();
        if self.in_dead[slot] {
            self.in_dead[slot] = false;
            let removed = self.dead[pi].remove(&(v.index() as u32));
            debug_assert!(removed, "dead-set entry out of sync");
        }
        debug_assert!(self.cached[slot]);
        self.cached[slot] = false;
        let pos = self.list_pos[slot] as usize;
        let last = self.cached_list[pi]
            .pop()
            .expect("cached list is non-empty");
        if last != v {
            self.cached_list[pi][pos] = last;
            self.list_pos[pi * self.n + last.index()] = pos as u32;
        }
    }
}

/// The original single-shot converter, kept verbatim as the differential oracle
/// for [`ConversionArena`] (the `dense::` pattern of `lp_solver`): every
/// conversion the arena performs must be operation-identical to
/// [`reference::convert`] on the same inputs. It allocates its entire state per
/// call, which is exactly the cost the arena exists to avoid — use it in tests
/// and benchmarks only.
pub mod reference {
    use super::*;

    /// Converts `bsp` with a freshly allocated converter (the pre-arena code path).
    pub fn convert<D: DagLike + ?Sized>(
        dag: &D,
        arch: &Architecture,
        bsp: &BspSchedulingResult,
        policy: &dyn EvictionPolicy,
        config: TwoStageConfig,
        required_outputs: &[NodeId],
    ) -> MbspSchedule {
        Converter::new(dag, arch, bsp, policy, config, required_outputs).run()
    }

    /// Internal cache-simulation state of the reference converter.
    pub(super) struct Converter<'a, D: DagLike + ?Sized> {
        dag: &'a D,
        arch: &'a Architecture,
        policy: &'a dyn EvictionPolicy,
        config: TwoStageConfig,
        /// Per processor: the full ordered sequence of nodes it computes.
        seq: Vec<Vec<NodeId>>,
        /// Per processor: current position in `seq`.
        cursor: Vec<usize>,
        /// Per processor and node: sorted positions in `seq[p]` where the node is
        /// used as an input of a compute step.
        use_positions: Vec<Vec<Vec<usize>>>,
        /// Per processor and node: index of the first entry of `use_positions` that
        /// has not been passed yet.
        use_ptr: Vec<Vec<usize>>,
        /// Per processor: which nodes are currently cached.
        cached: Vec<Vec<bool>>,
        /// Per processor: current cache usage.
        used: Vec<f64>,
        /// Per processor and node: logical time of the last access (for LRU).
        last_use: Vec<Vec<usize>>,
        /// Per processor: logical clock incremented on every compute step.
        clock: Vec<usize>,
        /// Which nodes currently have a blue pebble.
        blue: Vec<bool>,
        /// Number of not-yet-executed compute steps (on any processor) that read a
        /// node.
        remaining_uses: Vec<usize>,
        /// Whether the node must eventually reside in slow memory.
        is_required_output: Vec<bool>,
    }

    impl<'a, D: DagLike + ?Sized> Converter<'a, D> {
        pub(super) fn new(
            dag: &'a D,
            arch: &'a Architecture,
            bsp: &'a BspSchedulingResult,
            policy: &'a dyn EvictionPolicy,
            config: TwoStageConfig,
            required_outputs: &[NodeId],
        ) -> Self {
            let n = dag.num_nodes();
            let p = arch.processors;
            // Global order position of every node (from the scheduler's order hint).
            let mut order_pos = vec![usize::MAX; n];
            for (i, &v) in bsp.order.iter().enumerate() {
                order_pos[v.index()] = i;
            }
            // Build the per-processor compute sequences: nodes grouped by BSP
            // superstep, ordered by the order hint; source nodes are not computed.
            let mut seq: Vec<Vec<NodeId>> = vec![Vec::new(); p];
            let mut keyed: Vec<(usize, usize, ProcId, NodeId)> = dag
                .nodes()
                .filter(|&v| !dag.is_source(v))
                .map(|v| {
                    let proc = bsp.schedule.proc_of(v);
                    let step = bsp.schedule.superstep_of(v);
                    (step, order_pos[v.index()], proc, v)
                })
                .collect();
            keyed.sort_unstable();
            for (_, _, proc, v) in keyed {
                seq[proc.index()].push(v);
            }
            // Input-use positions per processor.
            let mut use_positions = vec![vec![Vec::new(); n]; p];
            for (pi, s) in seq.iter().enumerate() {
                for (pos, &v) in s.iter().enumerate() {
                    for u in dag.parents(v) {
                        use_positions[pi][u.index()].push(pos);
                    }
                }
            }
            // Remaining global use counts.
            let mut remaining_uses = vec![0usize; n];
            for s in &seq {
                for &v in s {
                    for u in dag.parents(v) {
                        remaining_uses[u.index()] += 1;
                    }
                }
            }
            let mut blue = vec![false; n];
            for v in dag.source_nodes() {
                blue[v.index()] = true;
            }
            let mut is_required_output: Vec<bool> = dag.nodes().map(|v| dag.is_sink(v)).collect();
            for &v in required_outputs {
                is_required_output[v.index()] = true;
            }
            Converter {
                dag,
                arch,
                policy,
                config,
                seq,
                cursor: vec![0; p],
                use_positions,
                use_ptr: vec![vec![0; n]; p],
                cached: vec![vec![false; n]; p],
                used: vec![0.0; p],
                last_use: vec![vec![0; n]; p],
                clock: vec![0; p],
                blue,
                remaining_uses,
                is_required_output,
            }
        }

        pub(super) fn run(mut self) -> MbspSchedule {
            let p = self.arch.processors;
            let mut schedule = MbspSchedule::new(p);
            let total: usize = self.seq.iter().map(|s| s.len()).sum();
            // Each superstep makes progress (a compute or a load); the bound below
            // is a generous safety net against construction bugs.
            let max_supersteps = 4 * total + 4 * self.dag.num_nodes() + 8;

            while self.cursor.iter().zip(&self.seq).any(|(&c, s)| c < s.len()) {
                assert!(
                    schedule.num_supersteps() <= max_supersteps,
                    "two-stage conversion is not making progress"
                );
                // Snapshot of the blue set at the beginning of the superstep: loads
                // in this superstep may only read values that were already in slow
                // memory.
                let blue_snapshot = self.blue.clone();
                let step = schedule.push_empty_superstep();

                for pi in 0..p {
                    let proc = ProcId::new(pi);
                    let phases = step.proc_mut(proc);

                    // ---- 1. Compute phase: maximal segment without new I/O. ----
                    let mut computed_here: Vec<NodeId> = Vec::new();
                    loop {
                        let pos = self.cursor[pi];
                        if pos >= self.seq[pi].len() {
                            break;
                        }
                        let v = self.seq[pi][pos];
                        // All parents must already be cached.
                        if self.dag.parents(v).any(|u| !self.cached[pi][u.index()]) {
                            break;
                        }
                        // Make room for the output of v by dropping dead values only
                        // (no I/O allowed inside a compute phase).
                        let needed = self.dag.memory_weight(v);
                        if !self.make_room_with_dead_values(pi, needed, phases, v) {
                            break;
                        }
                        // Execute the compute step.
                        phases.compute.push(ComputePhaseStep::Compute(v));
                        self.cached[pi][v.index()] = true;
                        self.used[pi] += self.dag.memory_weight(v);
                        self.clock[pi] += 1;
                        self.last_use[pi][v.index()] = self.clock[pi];
                        for u in self.dag.parents(v) {
                            self.last_use[pi][u.index()] = self.clock[pi];
                            self.remaining_uses[u.index()] -= 1;
                        }
                        self.cursor[pi] += 1;
                        computed_here.push(v);
                    }

                    // ---- 2. Save phase: persist computed values that need it. ----
                    for &v in &computed_here {
                        if self.blue[v.index()] {
                            continue;
                        }
                        let has_remote_child = self.dag.children(v).any(|c| {
                            // A child computed on a different processor will need to
                            // load v from slow memory.
                            !self.dag.is_source(c) && !self.seq[pi].contains(&c)
                        });
                        if self.is_required_output[v.index()] || has_remote_child {
                            phases.save.push(v);
                            self.blue[v.index()] = true;
                        }
                    }

                    // ---- 3 & 4. Eviction and loads for the next segment. ----
                    self.plan_io(pi, phases, &blue_snapshot);
                }
            }
            schedule.remove_empty_supersteps();
            schedule
        }

        /// Drops dead cached values until `needed` additional space is available.
        fn make_room_with_dead_values(
            &mut self,
            pi: usize,
            needed: f64,
            phases: &mut mbsp_model::ProcPhases,
            about_to_compute: NodeId,
        ) -> bool {
            let r = self.arch.cache_size;
            if self.used[pi] + needed <= r + 1e-9 {
                return true;
            }
            let parents: Vec<NodeId> = self.dag.parents(about_to_compute).collect();
            let dead: Vec<NodeId> = (0..self.dag.num_nodes())
                .map(NodeId::new)
                .filter(|&v| {
                    self.cached[pi][v.index()]
                        && !parents.contains(&v)
                        && self.remaining_uses[v.index()] == 0
                        && (!self.is_required_output[v.index()] || self.blue[v.index()])
                })
                .collect();
            for v in dead {
                if self.used[pi] + needed <= r + 1e-9 {
                    break;
                }
                phases.compute.push(ComputePhaseStep::Delete(v));
                self.cached[pi][v.index()] = false;
                self.used[pi] -= self.dag.memory_weight(v);
            }
            self.used[pi] + needed <= r + 1e-9
        }

        /// Plans the save/delete/load phases that prepare the next compute segment
        /// of processor `pi`.
        fn plan_io(
            &mut self,
            pi: usize,
            phases: &mut mbsp_model::ProcPhases,
            blue_snapshot: &[bool],
        ) {
            let pos = self.cursor[pi];
            if pos >= self.seq[pi].len() {
                return;
            }
            let r = self.arch.cache_size;
            let next = self.seq[pi][pos];
            // Inputs of the next compute step that are missing from the cache and
            // already available in slow memory.
            let missing: Vec<NodeId> = self
                .dag
                .parents(next)
                .filter(|&u| !self.cached[pi][u.index()])
                .collect();
            let loadable: Vec<NodeId> = missing
                .iter()
                .copied()
                .filter(|&u| blue_snapshot[u.index()])
                .collect();
            if loadable.len() < missing.len() {
                // Some input is not yet in slow memory; wait for a later superstep.
                return;
            }
            let missing_weight: f64 = loadable.iter().map(|&u| self.dag.memory_weight(u)).sum();
            let target_free = missing_weight + self.dag.memory_weight(next);

            // Evict until the next compute step fits.
            if self.used[pi] + target_free > r + 1e-9 {
                let keep: Vec<NodeId> = self.dag.parents(next).collect();
                let victims: Vec<NodeId> = (0..self.dag.num_nodes())
                    .map(NodeId::new)
                    .filter(|&v| self.cached[pi][v.index()] && !keep.contains(&v) && v != next)
                    .collect();
                let candidates: Vec<CandidateVictim> = victims
                    .into_iter()
                    .map(|v| CandidateVictim {
                        node: v,
                        weight: self.dag.memory_weight(v),
                        next_use: self.next_use(pi, v),
                        last_use: self.last_use[pi][v.index()],
                        has_blue: self.blue[v.index()],
                        needed_later: self.remaining_uses[v.index()] > 0
                            || (self.is_required_output[v.index()] && !self.blue[v.index()]),
                    })
                    .collect();
                let ranked = self.policy.rank(&candidates);
                let needed_map: std::collections::HashMap<NodeId, bool> = candidates
                    .iter()
                    .map(|c| (c.node, c.needed_later))
                    .collect();
                for v in ranked {
                    if self.used[pi] + target_free <= r + 1e-9 {
                        break;
                    }
                    // A victim that is still needed and not yet in slow memory must
                    // be saved before it is deleted.
                    if needed_map[&v] && !self.blue[v.index()] {
                        phases.save.push(v);
                        self.blue[v.index()] = true;
                    }
                    phases.delete.push(v);
                    self.cached[pi][v.index()] = false;
                    self.used[pi] -= self.dag.memory_weight(v);
                }
            }

            // Required loads for the next compute step.
            let mut planned_load_weight = 0.0;
            for &u in &loadable {
                if self.used[pi] + planned_load_weight + self.dag.memory_weight(u) > r + 1e-9 {
                    // Should not happen when r >= r0; bail out conservatively.
                    break;
                }
                phases.load.push(u);
                self.cached[pi][u.index()] = true;
                planned_load_weight += self.dag.memory_weight(u);
            }
            self.used[pi] += planned_load_weight;

            // Greedy prefetch: extend the loads with the inputs of further compute
            // steps while everything still fits.
            if self.config.prefetch {
                let mut virtual_used = self.used[pi] + self.dag.memory_weight(next);
                let mut virtually_cached: Vec<NodeId> = vec![next];
                let mut look = pos + 1;
                while look < self.seq[pi].len() {
                    let w = self.seq[pi][look];
                    let extra_inputs: Vec<NodeId> = self
                        .dag
                        .parents(w)
                        .filter(|&u| !self.cached[pi][u.index()] && !virtually_cached.contains(&u))
                        .collect();
                    if extra_inputs.iter().any(|&u| !blue_snapshot[u.index()]) {
                        break;
                    }
                    let extra_weight: f64 = extra_inputs
                        .iter()
                        .map(|&u| self.dag.memory_weight(u))
                        .sum();
                    if virtual_used + extra_weight + self.dag.memory_weight(w) > r + 1e-9 {
                        break;
                    }
                    for u in extra_inputs {
                        phases.load.push(u);
                        self.cached[pi][u.index()] = true;
                        self.used[pi] += self.dag.memory_weight(u);
                    }
                    virtual_used += extra_weight + self.dag.memory_weight(w);
                    virtually_cached.push(w);
                    look += 1;
                }
            }
        }

        /// Position of the next use of `v` as an input on processor `pi`, if any.
        fn next_use(&mut self, pi: usize, v: NodeId) -> Option<usize> {
            let positions = &self.use_positions[pi][v.index()];
            let ptr = &mut self.use_ptr[pi][v.index()];
            while *ptr < positions.len() && positions[*ptr] < self.cursor[pi] {
                *ptr += 1;
            }
            positions.get(*ptr).copied()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ClairvoyantPolicy, LruPolicy};
    use mbsp_model::{sync_cost, CostModel, MbspInstance};
    use mbsp_sched::{BspScheduler, DfsScheduler, GreedyBspScheduler};

    fn instances() -> Vec<MbspInstance> {
        mbsp_gen::tiny_dataset(42)
            .into_iter()
            .map(|inst| {
                MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
            })
            .collect()
    }

    #[test]
    fn two_stage_schedules_are_valid_on_the_tiny_dataset() {
        let conv = TwoStageScheduler::new();
        let policy = ClairvoyantPolicy::new();
        let sched = GreedyBspScheduler::new();
        for inst in instances() {
            let bsp = sched.schedule(inst.dag(), inst.arch());
            let mbsp = conv.schedule(inst.dag(), inst.arch(), &bsp, &policy);
            mbsp.validate(inst.dag(), inst.arch())
                .unwrap_or_else(|e| panic!("{}: {e}", inst.name()));
            // Every non-source node is computed exactly once (no recomputation).
            let stats = mbsp.statistics(inst.dag(), inst.arch());
            let non_sources = inst
                .dag()
                .nodes()
                .filter(|&v| !inst.dag().is_source(v))
                .count();
            assert_eq!(stats.computes, non_sources, "{}", inst.name());
            assert_eq!(stats.recomputed_nodes, 0);
        }
    }

    #[test]
    fn arena_conversion_matches_the_reference_converter() {
        let policy = ClairvoyantPolicy::new();
        let config = TwoStageConfig::default();
        let sched = GreedyBspScheduler::new();
        for inst in instances() {
            let bsp = sched.schedule(inst.dag(), inst.arch());
            let oracle = reference::convert(inst.dag(), inst.arch(), &bsp, &policy, config, &[]);
            let mut arena = ConversionArena::new(inst.dag(), inst.arch());
            let mut out = MbspSchedule::new(inst.arch().processors);
            arena.convert(
                inst.dag(),
                inst.arch(),
                &bsp,
                &policy,
                config,
                &[],
                &mut out,
            );
            assert_eq!(out, oracle, "{}", inst.name());
            // A second conversion through the same arena is identical as well.
            arena.convert(
                inst.dag(),
                inst.arch(),
                &bsp,
                &policy,
                config,
                &[],
                &mut out,
            );
            assert_eq!(out, oracle, "{}: arena reuse drifted", inst.name());
        }
    }

    #[test]
    fn a_value_saved_in_superstep_s_is_loadable_from_s_plus_one() {
        // The model would let processor 1 load in the very superstep processor
        // 0 saves (the save phase precedes the load phase), and processor 0 is
        // simulated first, so its blue pebble is already placed when processor
        // 1 plans its loads. The conversion deliberately does not rely on it:
        // loads read the blue set as of the beginning of the superstep.
        let dag = mbsp_dag::CompDag::from_edges(
            "handover",
            vec![mbsp_dag::NodeWeights::unit(); 3],
            &[(0, 1), (1, 2)],
        )
        .unwrap();
        let arch = Architecture::new(2, 3.0, 1.0, 1.0);
        let procs = [ProcId::new(0), ProcId::new(0), ProcId::new(1)];
        let produced = NodeId::new(1);
        for policy in [
            &ClairvoyantPolicy::new() as &dyn EvictionPolicy,
            &LruPolicy::new(),
        ] {
            for prefetch in [true, false] {
                let mut arena = ConversionArena::new(&dag, &arch);
                let mut out = MbspSchedule::new(arch.processors);
                let config = TwoStageConfig { prefetch };
                arena.convert_assignment(&dag, &arch, &procs, policy, config, &[], &mut out);
                out.validate(&dag, &arch).unwrap();
                let step_of = |pi: usize, pick: fn(&mbsp_model::ProcPhases) -> &Vec<NodeId>| {
                    out.supersteps()
                        .iter()
                        .position(|s| pick(&s.procs[pi]).contains(&produced))
                        .expect("the value crosses processors through slow memory")
                };
                let saved = step_of(0, |ph| &ph.save);
                let loaded = step_of(1, |ph| &ph.load);
                assert_eq!(loaded, saved + 1, "{} prefetch={prefetch}", policy.name());
            }
        }
        // The same holds for every cross-processor hand-over of a real
        // conversion: no load of a computed value in or before the superstep
        // of its save.
        let sched = GreedyBspScheduler::new();
        for inst in instances() {
            let bsp = sched.schedule(inst.dag(), inst.arch());
            let mbsp = TwoStageScheduler::new().schedule(
                inst.dag(),
                inst.arch(),
                &bsp,
                &ClairvoyantPolicy::new(),
            );
            let mut saved_in = vec![None; inst.dag().num_nodes()];
            for (s, step) in mbsp.supersteps().iter().enumerate() {
                for phases in &step.procs {
                    for &v in &phases.load {
                        assert!(
                            inst.dag().is_source(v) || saved_in[v.index()].is_some_and(|t| t < s),
                            "{}: {v:?} loaded in superstep {s}, saved in {:?}",
                            inst.name(),
                            saved_in[v.index()]
                        );
                    }
                }
                for phases in &step.procs {
                    for &v in &phases.save {
                        saved_in[v.index()].get_or_insert(s);
                    }
                }
            }
        }
    }

    #[test]
    fn lru_policy_also_produces_valid_schedules() {
        let conv = TwoStageScheduler::new();
        let policy = LruPolicy::new();
        let sched = GreedyBspScheduler::new();
        for inst in instances().into_iter().take(6) {
            let bsp = sched.schedule(inst.dag(), inst.arch());
            let mbsp = conv.schedule(inst.dag(), inst.arch(), &bsp, &policy);
            mbsp.validate(inst.dag(), inst.arch())
                .unwrap_or_else(|e| panic!("{}: {e}", inst.name()));
        }
    }

    #[test]
    fn single_processor_dfs_baseline_is_valid() {
        let conv = TwoStageScheduler::new();
        let policy = ClairvoyantPolicy::new();
        for inst in mbsp_gen::tiny_dataset(42).into_iter().take(5) {
            let arch = Architecture::single_processor(inst.dag.minimal_cache_size() * 3.0, 1.0);
            let instance = MbspInstance::new(inst.dag, arch);
            let bsp = DfsScheduler::new().schedule(instance.dag(), instance.arch());
            let mbsp = conv.schedule(instance.dag(), instance.arch(), &bsp, &policy);
            mbsp.validate(instance.dag(), instance.arch()).unwrap();
        }
    }

    #[test]
    fn tight_cache_still_produces_valid_schedules() {
        // r = r0 is the minimal feasible cache size: the conversion must still work.
        let conv = TwoStageScheduler::new();
        let policy = ClairvoyantPolicy::new();
        let sched = GreedyBspScheduler::new();
        for inst in mbsp_gen::tiny_dataset(7).into_iter().take(6) {
            let instance =
                MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 1.0);
            let bsp = sched.schedule(instance.dag(), instance.arch());
            let mbsp = conv.schedule(instance.dag(), instance.arch(), &bsp, &policy);
            mbsp.validate(instance.dag(), instance.arch())
                .unwrap_or_else(|e| panic!("{}: {e}", instance.name()));
        }
    }

    #[test]
    fn clairvoyant_is_not_worse_than_lru_on_average() {
        // The clairvoyant policy should produce schedules that are at least as good
        // as LRU in aggregate (it has strictly more information).
        let conv = TwoStageScheduler::new();
        let sched = GreedyBspScheduler::new();
        let mut clair_total = 0.0;
        let mut lru_total = 0.0;
        for inst in instances() {
            let bsp = sched.schedule(inst.dag(), inst.arch());
            let a = conv.schedule(inst.dag(), inst.arch(), &bsp, &ClairvoyantPolicy::new());
            let b = conv.schedule(inst.dag(), inst.arch(), &bsp, &LruPolicy::new());
            clair_total += sync_cost(&a, inst.dag(), inst.arch()).total;
            lru_total += sync_cost(&b, inst.dag(), inst.arch()).total;
        }
        assert!(
            clair_total <= lru_total * 1.02,
            "clairvoyant ({clair_total}) should not be notably worse than LRU ({lru_total})"
        );
    }

    #[test]
    fn prefetching_reduces_supersteps_without_breaking_validity() {
        let sched = GreedyBspScheduler::new();
        let policy = ClairvoyantPolicy::new();
        for inst in instances().into_iter().take(4) {
            let bsp = sched.schedule(inst.dag(), inst.arch());
            let with = TwoStageScheduler::with_config(TwoStageConfig { prefetch: true }).schedule(
                inst.dag(),
                inst.arch(),
                &bsp,
                &policy,
            );
            let without = TwoStageScheduler::with_config(TwoStageConfig { prefetch: false })
                .schedule(inst.dag(), inst.arch(), &bsp, &policy);
            with.validate(inst.dag(), inst.arch()).unwrap();
            without.validate(inst.dag(), inst.arch()).unwrap();
            assert!(with.num_supersteps() <= without.num_supersteps());
        }
    }

    #[test]
    fn arena_matches_reference_without_prefetch_and_with_lru() {
        let sched = GreedyBspScheduler::new();
        for inst in instances().into_iter().take(5) {
            for prefetch in [false, true] {
                let config = TwoStageConfig { prefetch };
                let bsp = sched.schedule(inst.dag(), inst.arch());
                let policy = LruPolicy::new();
                let oracle =
                    reference::convert(inst.dag(), inst.arch(), &bsp, &policy, config, &[]);
                let mut arena = ConversionArena::new(inst.dag(), inst.arch());
                let mut out = MbspSchedule::new(inst.arch().processors);
                arena.convert(
                    inst.dag(),
                    inst.arch(),
                    &bsp,
                    &policy,
                    config,
                    &[],
                    &mut out,
                );
                assert_eq!(out, oracle, "{} prefetch={prefetch}", inst.name());
            }
        }
    }

    #[test]
    fn async_cost_is_computable_on_converted_schedules() {
        let conv = TwoStageScheduler::new();
        let policy = ClairvoyantPolicy::new();
        let sched = GreedyBspScheduler::new();
        let inst = &instances()[0];
        let bsp = sched.schedule(inst.dag(), inst.arch());
        let mbsp = conv.schedule(inst.dag(), inst.arch(), &bsp, &policy);
        let sync = CostModel::Synchronous.evaluate(&mbsp, inst.dag(), inst.arch());
        let arch0 = inst.arch().with_latency(0.0);
        let asynchronous = CostModel::Asynchronous.evaluate(&mbsp, inst.dag(), &arch0);
        let sync0 = CostModel::Synchronous.evaluate(&mbsp, inst.dag(), &arch0);
        assert!(sync > 0.0);
        assert!(asynchronous <= sync0 + 1e-9);
    }
}
