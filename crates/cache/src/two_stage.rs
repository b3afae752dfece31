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
//!   topological and tie orders, the per-processor compute sequences, the
//!   flat use index, the cache-simulation buffers — allocated **once per
//!   instance**;
//! * each conversion then *restores* that state to a superstep boundary and
//!   simulates from there. Converting a neighbouring assignment via
//!   [`ConversionArena::convert_assignment`] reuses all allocations and
//!   rebuilds the compute sequences (and their slice of the use index) only
//!   for the processors the move actually touched.
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
//! the cache. The arena instead maintains, per processor, a sorted list of
//! **spent** values (cached, no remaining local use — what the clairvoyant
//! policy evicts first, in exactly the list's order) and a node-id-ordered
//! list of **dead** values (no remaining use anywhere, droppable without a
//! save), updated at the few events that create them; eviction triggers then
//! pop victims off the end. Both are flat vectors (binary-search insert): at
//! `3·r0` they hold a few dozen entries, and a checkpoint copies them as
//! flags on the cache contents. When the spent list runs dry the clairvoyant
//! victim is the cached value read furthest in the future: the arena keeps
//! each cached value's **next-use position** in an array parallel to the
//! cache list (written on entry, rewritten for the inputs of every compute
//! step — the only values whose next use a step moves) and takes the largest
//! key in one pass, where it used to build a candidate record per cached
//! value. The arena evicts in the clairvoyant order only; [`TwoStageScheduler`]
//! hands a policy that does not promise that order
//! ([`EvictionPolicy::orders_by_next_use`]; LRU) to [`reference::convert`].
//!
//! ## Suffix re-conversion: the base
//!
//! The red/blue configuration at a superstep boundary is a function of the
//! schedule prefix (Hong–Kung), and a search candidate differs from the
//! incumbent by one move, so its simulation reproduces the incumbent's
//! operation for operation until the first superstep that *reads* something
//! the move changed. [`ConversionArena::rebase`] converts the incumbent once
//! while recording a **base**; [`ConversionArena::convert_assignment`] then
//! starts a candidate at the last recorded checkpoint before that superstep
//! and copies the supersteps before it from the base.
//!
//! **What a base holds.** (a) A *checkpoint* every few simulated supersteps
//! (the interval doubles, dropping every other checkpoint, whenever their
//! total exceeds a fixed number of entries per node): per processor the
//! sequence cursor, the cache usage `used` (an `f64` running sum, stored
//! because re-adding the weights would round differently) and the cache
//! contents in list order, each with its spent/dead flag. (b) Two `u32`
//! stamps per node — the first superstep that read it, and its final
//! `blue_since` — plus one end-of-sequence read stamp per processor. (c) The
//! base's assignment, canonical supersteps and sequences (to diff against),
//! and its raw schedule — every simulated superstep, before empty-superstep
//! removal and before any post-optimisation — as an [`MbspSchedule`]. A
//! schedule is flat (one compute array, one I/O array and their offsets), so
//! handing a candidate the supersteps before its restart point is four prefix
//! copies ([`MbspSchedule::copy_prefix_from`]), and recording a conversion
//! copies the candidate's raw schedule back the same way.
//!
//! **What is reconstructed, and why that is exact.** Everything else at a
//! superstep boundary `c` follows from the prefix: a blue stamp is written
//! once and never cleared, so the blue set at `c` is the final stamps
//! filtered by `≤ c`; `remaining_uses` is written only by compute steps, so
//! replaying the `cursor` computed entries of each sequence (identical in
//! base and candidate, see below) rebuilds it; `use_ptr` is a lazily
//! advanced cache of "first use at or after the cursor" and may restart
//! from `use_off`; the next-use keys are read off it as the cache contents
//! are re-inserted at the restored cursor; the spent keys are recomputed
//! from the restored blue stamps. No array of size `P·n` is ever copied
//! into a checkpoint.
//!
//! **The read-stamp rule.** A candidate's conversion may differ from the
//! base's only through the three things an assignment determines: the
//! sequences, the use lists, and `node_proc`. Each is read at a known place,
//! and the base run stamps the node (or processor) involved with the first
//! superstep that did so:
//!
//! * *sequence entries* are read through the cursor (the compute loop looks at
//!   `seq[p][cursor]`, also when it then stops there) and through the prefetch
//!   look-ahead (every entry it inspects, including the one it stops at);
//!   running off the end of a sequence stamps the processor instead. Entries
//!   are read in index order, so on a processor whose sequence changed the
//!   earliest affected read is the base entry at the first index where the two
//!   sequences differ (or the end-of-sequence stamp).
//! * *use lists* are read only for values in a cache (the next use of a computed
//!   value, of its inputs, of eviction candidates), so every cache entry —
//!   computed or loaded — stamps the value. A value's uses change only when a
//!   child changes processor or position, so the parents of every changed node
//!   are tested. Uses of unchanged nodes may shift position, but monotonically
//!   (unchanged nodes keep their `(superstep, tie rank)` keys),
//!   and the clairvoyant order compares next-use positions only with each
//!   other.
//! * *`node_proc` of a computed value's children* is read by the save phase
//!   (`has_remote_child`); the value was computed, so it carries a stamp, and
//!   it is a parent of the changed child, so it is tested.
//!
//! The smallest stamp over {nodes whose processor or canonical superstep
//! changed} ∪ their parents ∪ the first differing base entry of each affected
//! processor is a superstep `d` before which the two simulations cannot tell
//! the assignments apart; the restore goes to the last checkpoint `≤ d`.
//! Without a base (or with `d = 0`, or under a different required-output
//! set than the base was recorded with) the same code restores the initial
//! checkpoint — superstep 0, empty caches — which is a full conversion. A
//! rebase is itself such a conversion relative to the previous base,
//! recording from the restored checkpoint on.
//!
//! The arena is **operation-identical** to a from-scratch conversion under
//! [`crate::ClairvoyantPolicy`]: the [`mod@reference`] module keeps the
//! original single-shot converter as the ground truth (mirroring the
//! `dense::` module of `lp_solver`), and the tests
//! in `mbsp-ilp` replay random move sequences asserting that arena output —
//! based and base-less — and reference output are equal schedules.

use crate::policy::EvictionPolicy;
use mbsp_dag::{DagLike, NodeId, TopologicalOrder};
use mbsp_model::{Architecture, ComputePhaseStep, MbspSchedule, ProcId, ProcPhases, Superstep};
use mbsp_sched::BspSchedulingResult;

/// [`ConversionArena`]'s blue stamp of a node that is not in slow memory, and
/// the read stamp of a node no recorded superstep has read.
const NOT_BLUE: u32 = u32::MAX;

/// Supersteps between two checkpoints of a freshly recorded base.
const CHECKPOINT_INTERVAL: u32 = 8;
/// Checkpoint entries (cached values over all checkpoints) a base may hold
/// per node of the DAG; beyond that every other checkpoint is dropped.
const CHECKPOINT_ENTRIES_PER_NODE: usize = 8;
/// Checkpoint-entry flags (node ids stay below `2^29`, see
/// [`ConversionArena::new`]): the cached value is in the spent / dead list.
const CKPT_SPENT: u32 = 1 << 31;
const CKPT_DEAD: u32 = 1 << 30;
/// [`ConversionArena`]'s next-use key of a cached value with no further use
/// on its processor (sequence positions stay below `2^29`).
const NO_USE: u32 = u32::MAX;

/// The two-stage (BSP schedule + cache policy) MBSP scheduler: the paper's
/// baseline, converting a memory-oblivious BSP schedule into a valid MBSP
/// schedule that saves every sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoStageScheduler;

impl TwoStageScheduler {
    /// Creates a converter.
    pub fn new() -> Self {
        TwoStageScheduler
    }

    /// Converts a BSP scheduling result into a valid MBSP schedule using `policy`
    /// for cache eviction: through a [`ConversionArena`] when the policy
    /// promises the clairvoyant order, through [`reference::convert`]
    /// otherwise (LRU). Both produce the same schedule for the same policy.
    pub fn schedule<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        arch: &Architecture,
        bsp: &BspSchedulingResult,
        policy: &dyn EvictionPolicy,
    ) -> MbspSchedule {
        if !policy.orders_by_next_use() {
            return reference::convert(dag, arch, bsp, policy, &[]);
        }
        let mut arena = ConversionArena::new(dag, arch);
        let mut out = MbspSchedule::new(arch.processors);
        arena.convert(dag, arch, bsp, &[], &mut out);
        out
    }
}

/// What [`ConversionArena::rebase`] records about one conversion so that
/// neighbouring assignments can start from one of its superstep boundaries;
/// see the module docs. Only the initial checkpoint exists until then.
#[derive(Debug)]
struct Base {
    /// Do the fields below describe a recorded conversion?
    valid: bool,
    /// The required outputs the base was recorded under: a conversion under
    /// any others starts from superstep 0.
    required: Vec<NodeId>,
    /// The base's assignment, canonical supersteps and sequences.
    procs: Vec<ProcId>,
    superstep: Vec<usize>,
    seq: Vec<Vec<NodeId>>,
    /// Per node: the first superstep that read it ([`NOT_BLUE`]: none did).
    read_since: Vec<u32>,
    /// Per processor: the first superstep that ran off the end of its sequence.
    end_read: Vec<u32>,
    /// Per node: its blue stamp when the base's conversion ended.
    blue_since: Vec<u32>,
    /// The raw schedule: one superstep per simulated superstep.
    raw: MbspSchedule,
    /// The checkpoints, ascending by the superstep at whose beginning each was
    /// taken; entry 0 is the initial configuration (superstep 0, nothing
    /// cached). Per checkpoint and processor (flat `c * p + pi`): the cursor,
    /// the cache usage and one CSR range of `ckpt_entries` — the cached nodes
    /// in list order, or-ed with [`CKPT_SPENT`] / [`CKPT_DEAD`].
    ckpt_step: Vec<u32>,
    ckpt_cursor: Vec<u32>,
    ckpt_used: Vec<f64>,
    ckpt_off: Vec<u32>,
    ckpt_entries: Vec<u32>,
    /// Supersteps between checkpoints (doubles whenever they are thinned).
    interval: u32,
}

impl Base {
    /// The empty base of a `p`-processor arena: the initial checkpoint only.
    fn new(p: usize) -> Self {
        Base {
            valid: false,
            required: Vec::new(),
            procs: Vec::new(),
            superstep: Vec::new(),
            seq: vec![Vec::new(); p],
            read_since: Vec::new(),
            end_read: vec![NOT_BLUE; p],
            blue_since: Vec::new(),
            raw: MbspSchedule::new(p),
            ckpt_step: vec![0],
            ckpt_cursor: vec![0; p],
            ckpt_used: vec![0.0; p],
            ckpt_off: vec![0; p + 1],
            ckpt_entries: Vec::new(),
            interval: CHECKPOINT_INTERVAL,
        }
    }

    /// Forgets every checkpoint after `idx` and every raw superstep and read
    /// stamp from that checkpoint's superstep on — what a recording that
    /// resumes there is about to rewrite.
    fn rewind_to(&mut self, idx: usize, n: usize, p: usize) {
        let step = self.ckpt_step[idx];
        self.ckpt_step.truncate(idx + 1);
        self.ckpt_cursor.truncate((idx + 1) * p);
        self.ckpt_used.truncate((idx + 1) * p);
        self.ckpt_off.truncate((idx + 1) * p + 1);
        self.ckpt_entries
            .truncate(self.ckpt_off[(idx + 1) * p] as usize);
        if idx == 0 {
            self.interval = CHECKPOINT_INTERVAL;
        }
        self.raw.truncate(step as usize);
        self.read_since.resize(n, NOT_BLUE);
        for stamp in self.read_since.iter_mut().chain(&mut self.end_read) {
            if *stamp >= step {
                *stamp = NOT_BLUE;
            }
        }
    }

    /// Drops every other checkpoint (keeping the even-indexed ones, so the
    /// initial one stays) and doubles the interval.
    fn thin(&mut self, p: usize) {
        let mut kept = 0usize;
        let mut entries = 0usize;
        for c in (0..self.ckpt_step.len()).step_by(2) {
            self.ckpt_step[kept] = self.ckpt_step[c];
            for pi in 0..p {
                let (from, to) = (c * p + pi, kept * p + pi);
                let range = self.ckpt_off[from] as usize..self.ckpt_off[from + 1] as usize;
                self.ckpt_cursor[to] = self.ckpt_cursor[from];
                self.ckpt_used[to] = self.ckpt_used[from];
                self.ckpt_off[to] = entries as u32;
                let len = range.len();
                self.ckpt_entries.copy_within(range, entries);
                entries += len;
            }
            kept += 1;
        }
        self.ckpt_off[kept * p] = entries as u32;
        self.ckpt_step.truncate(kept);
        self.ckpt_cursor.truncate(kept * p);
        self.ckpt_used.truncate(kept * p);
        self.ckpt_off.truncate(kept * p + 1);
        self.ckpt_entries.truncate(entries);
        self.interval *= 2;
    }
}

/// Inserts `key` into the descending-sorted `list` (the smallest key — the
/// next to pop — sits at the end).
#[inline]
fn sorted_insert<T: Ord + Copy>(list: &mut Vec<T>, key: T) {
    let at = list.partition_point(|&k| k > key);
    list.insert(at, key);
}

/// Removes `key` from the descending-sorted `list`; was it present?
#[inline]
fn sorted_remove<T: Ord + Copy>(list: &mut Vec<T>, key: T) -> bool {
    let at = list.partition_point(|&k| k > key);
    let found = list.get(at) == Some(&key);
    if found {
        list.remove(at);
    }
    found
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
    /// Topological order of the DAG (computed once): the order the canonical
    /// supersteps are derived in.
    topo_order: Vec<NodeId>,
    /// Per node: its position in the tie order, which orders the nodes of one
    /// processor inside one canonical superstep (see
    /// [`ConversionArena::set_tie_order`]; breadth-first by default).
    tie_rank: Vec<u32>,
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
    /// Scratch: which processors need their sequence rebuilt (then: which
    /// processors' sequences differ from the base's).
    seq_dirty: Vec<bool>,
    /// Scratch for the generic (explicit BSP result) path.
    order_pos: Vec<usize>,
    keyed: Vec<(usize, usize, usize, NodeId)>,
    // ---- The base (see the module docs). ----
    base: Base,
    /// Is the running conversion being recorded into `base`?
    recording: bool,
    /// Supersteps simulated, and supersteps copied from a base instead, over
    /// the arena's lifetime.
    simulated_supersteps: u64,
    skipped_supersteps: u64,
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
    /// Parallel to `cached_list`: the position in `seq[pi]` of each cached
    /// node's next use on `pi` at or after the cursor ([`NO_USE`] when it has
    /// none) — the next use as a dense array, so the clairvoyant eviction scan
    /// reads one `u32` per cached value. Written when a node enters the cache
    /// and rewritten for the inputs of every compute step: advancing the
    /// cursor past position `c` changes the next use of exactly the nodes
    /// read at `c`.
    cached_next: Vec<Vec<u32>>,
    /// Per processor and node (flat `p * n + v`): position of the node within
    /// `cached_list` (only meaningful while the node is cached).
    list_pos: Vec<u32>,
    /// Per processor: current cache usage.
    used: Vec<f64>,
    /// Per node: membership in the prefetch planner's `virtually_cached`
    /// list (O(1) lookups instead of a linear scan). Always all-false outside
    /// [`ConversionArena::plan_io`].
    node_mask: Vec<bool>,
    /// Per node: its memory weight `μ(v)`, copied out of the DAG once so the
    /// spent keys can be built without a `DagLike` handle.
    mem_weight: Vec<f64>,
    /// Per processor: the cached values with no remaining use on that processor
    /// ("spent"), sorted so that popping from the end yields them exactly as
    /// the clairvoyant policy evicts them — blue-pebbled first, then heavier,
    /// then smaller node id (see [`ConversionArena::spent_key`]). A value enters
    /// the list the moment its last local use is consumed (or when it is
    /// computed with no local children) and leaves it on eviction, so eviction
    /// triggers pop victims instead of scanning the whole cache.
    spent: Vec<Vec<(u8, u64, u32)>>,
    /// Per processor and node (flat `p * n + v`): is the node in `spent`?
    in_spent: Vec<bool>,
    /// Per processor: the cached values that are *dead* — no unconsumed use on
    /// any processor and droppable without a save (`!required || blue`) —
    /// sorted so that popping from the end yields ascending node ids, exactly
    /// the order [`ConversionArena::make_room_with_dead_values`] drops them in.
    /// Deadness is monotone while a value stays cached, so the list is
    /// maintained at the two events that create it (the last global use is
    /// consumed; a required value with no uses left gains its blue pebble) and
    /// on eviction.
    dead: Vec<Vec<u32>>,
    /// Per processor and node (flat `p * n + v`): is the node in `dead`?
    in_dead: Vec<bool>,
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
    /// The superstep being simulated: the phases of every processor, appended
    /// to the output once the superstep ends.
    scratch_step: Superstep,
    scratch_nodes: Vec<NodeId>,
    scratch_nodes2: Vec<NodeId>,
    scratch_nodes3: Vec<NodeId>,
}

impl ConversionArena {
    /// Builds the arena for one instance: computes the topological order and the
    /// assignment-independent use counts, and allocates every buffer a conversion
    /// needs. O(P·V + E) space, built once.
    pub fn new<D: DagLike + ?Sized>(dag: &D, arch: &Architecture) -> Self {
        let n = dag.num_nodes();
        let p = arch.processors;
        let topo = TopologicalOrder::of(dag);
        let tie_rank: Vec<u32> = (0..n)
            .map(|i| topo.position(NodeId::new(i)) as u32)
            .collect();
        let mut base_uses = vec![0usize; n];
        for v in dag.nodes().filter(|&v| !dag.is_source(v)) {
            for u in dag.parents(v) {
                base_uses[u.index()] += 1;
            }
        }
        // Superstep stamps and the flat use index are `u32`: `run` never
        // simulates more than `8 * n + 8` supersteps, and a processor's use
        // positions number at most the edges of the DAG. (The bound on `n`
        // also keeps node ids clear of the checkpoint-entry flags.)
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
            tie_rank,
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
            base: Base::new(p),
            recording: false,
            simulated_supersteps: 0,
            skipped_supersteps: 0,
            cursor: vec![0; p],
            use_ptr: vec![0; p * n],
            cached: vec![false; p * n],
            cached_list: vec![Vec::new(); p],
            cached_next: vec![Vec::new(); p],
            list_pos: vec![0; p * n],
            used: vec![0.0; p],
            node_mask: vec![false; n],
            mem_weight: {
                let w: Vec<f64> = dag.nodes().map(|v| dag.memory_weight(v)).collect();
                // Non-negative weights keep the `to_bits` ordering of `spent_key`
                // consistent with `partial_cmp` in `ClairvoyantPolicy::order`.
                debug_assert!(w.iter().all(|&x| x >= 0.0));
                w
            },
            spent: vec![Vec::new(); p],
            in_spent: vec![false; p * n],
            dead: vec![Vec::new(); p],
            in_dead: vec![false; p * n],
            step: 0,
            blue_since: vec![NOT_BLUE; n],
            remaining_uses: vec![0; n],
            is_required_output: vec![false; n],
            scratch_step: Superstep::empty(p),
            scratch_nodes: Vec::new(),
            scratch_nodes2: Vec::new(),
            scratch_nodes3: Vec::new(),
        }
    }

    /// Supersteps this arena's conversions (rebases included) simulated.
    pub fn simulated_supersteps(&self) -> u64 {
        self.simulated_supersteps
    }

    /// Supersteps this arena's conversions copied from a base instead of
    /// simulating them.
    pub fn skipped_supersteps(&self) -> u64 {
        self.skipped_supersteps
    }

    /// Sets the order that breaks ties inside a canonical superstep: a
    /// processor computes the nodes it owns in one superstep in the order they
    /// take in `order`, which must be a topological order of the DAG (a node
    /// may share a superstep with a parent on its own processor). Until this
    /// is called the arena breaks ties breadth-first, by Kahn's order. Clears
    /// the base and the previous call's sequences: they were built in the old
    /// order.
    pub fn set_tie_order(&mut self, order: &[NodeId]) {
        assert_eq!(order.len(), self.n, "tie order of a different DAG");
        for (i, &v) in order.iter().enumerate() {
            self.tie_rank[v.index()] = i as u32;
        }
        self.base.valid = false;
        self.have_prev = false;
    }

    /// Converts an explicit BSP scheduling result (assignment, supersteps and order
    /// hint) into `out`. This is the general path used for schedules produced by the
    /// BSP baselines; the per-processor sequences are rebuilt from scratch, but all
    /// allocations are reused. Clears the arena's base: a base describes a
    /// canonical assignment, which an explicit superstep structure is not.
    pub fn convert<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        bsp: &BspSchedulingResult,
        required_outputs: &[NodeId],
        out: &mut MbspSchedule,
    ) {
        assert_eq!(dag.num_nodes(), self.n, "arena used with a different DAG");
        self.base.valid = false;
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
        let start = self.restore(dag, 0, required_outputs);
        out.truncate(start);
        self.run(dag, arch, out);
        out.remove_empty_supersteps();
    }

    /// Converts a bare per-node processor assignment into `out`, deriving the
    /// superstep structure canonically (each node in the earliest superstep
    /// compatible with its parents, exactly as `mbsp_ilp::improver::canonical_bsp`)
    /// and ordering each processor's nodes inside a superstep by the tie order
    /// ([`ConversionArena::set_tie_order`]).
    ///
    /// This is the hot path of the holistic search: consecutive calls reuse the
    /// per-processor sequences of every processor whose node set and superstep keys
    /// did not change, so a single-node move typically rebuilds one or two
    /// sequences instead of all `P`; and on an arena with a base
    /// ([`ConversionArena::rebase`]) only the supersteps from the last
    /// checkpoint before the first one the change can affect are simulated —
    /// the rest is copied from the base. The result is the same schedule
    /// either way.
    pub fn convert_assignment<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        procs: &[ProcId],
        required_outputs: &[NodeId],
        out: &mut MbspSchedule,
    ) {
        self.convert_from_base(dag, arch, procs, required_outputs, out, false);
    }

    /// Converts `procs` into `out` exactly like
    /// [`ConversionArena::convert_assignment`] and records the conversion as
    /// the arena's **base**: later `convert_assignment` calls with the same
    /// required outputs re-simulate only the supersteps their difference from
    /// `procs` can change. The base costs O(n + operations of the schedule)
    /// memory and stays until the next `rebase` or
    /// [`ConversionArena::convert`].
    pub fn rebase<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        procs: &[ProcId],
        required_outputs: &[NodeId],
        out: &mut MbspSchedule,
    ) {
        self.convert_from_base(dag, arch, procs, required_outputs, out, true);
    }

    /// The canonical-assignment conversion behind `convert_assignment`
    /// (`record == false`) and `rebase`.
    fn convert_from_base<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        procs: &[ProcId],
        required_outputs: &[NodeId],
        out: &mut MbspSchedule,
        record: bool,
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

        let checkpoint = if self.base.valid && self.base.required == required_outputs {
            self.first_affected_checkpoint(dag, procs)
        } else {
            Some(0)
        };
        let Some(checkpoint) = checkpoint else {
            // The base's own assignment: nothing to simulate (or to record).
            out.clone_from(&self.base.raw);
            out.remove_empty_supersteps();
            self.skipped_supersteps += self.base.raw.num_supersteps() as u64;
            return;
        };
        let start = self.restore(dag, checkpoint, required_outputs);
        out.copy_prefix_from(&self.base.raw, start);
        if record {
            self.base.valid = false;
            self.base.rewind_to(checkpoint, self.n, self.p);
        }
        self.recording = record;
        self.run(dag, arch, out);
        self.recording = false;
        if record {
            let base = &mut self.base;
            base.raw.clone_from(out);
            base.blue_since.clone_from(&self.blue_since);
            base.procs.clear();
            base.procs.extend_from_slice(procs);
            base.superstep.clone_from(&self.superstep);
            for (kept, seq) in base.seq.iter_mut().zip(&self.seq) {
                kept.clone_from(seq);
            }
            base.required.clear();
            base.required.extend_from_slice(required_outputs);
            base.valid = true;
        }
        out.remove_empty_supersteps();
    }

    /// Diffs the current assignment (`procs`, `superstep`, `seq`) against the
    /// base and returns the last checkpoint at or before the first superstep
    /// the difference can affect — the read-stamp rule of the module docs —
    /// or `None` when the assignment is the base's.
    fn first_affected_checkpoint<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        procs: &[ProcId],
    ) -> Option<usize> {
        let base = &self.base;
        let mut first = NOT_BLUE;
        let differs = &mut self.seq_dirty;
        differs.fill(false);
        for i in 0..self.n {
            if self.source_mask[i]
                || (procs[i] == base.procs[i] && self.superstep[i] == base.superstep[i])
            {
                continue;
            }
            first = first.min(base.read_since[i]);
            for u in dag.parents(NodeId::new(i)) {
                first = first.min(base.read_since[u.index()]);
            }
            differs[base.procs[i].index()] = true;
            differs[procs[i].index()] = true;
        }
        for pi in (0..self.p).filter(|&pi| differs[pi]) {
            let (old, new) = (&base.seq[pi], &self.seq[pi]);
            let common = old.iter().zip(new).take_while(|(a, b)| a == b).count();
            if let Some(v) = old.get(common) {
                first = first.min(base.read_since[v.index()]);
            } else if common < new.len() {
                first = first.min(base.end_read[pi]);
            }
        }
        (first != NOT_BLUE).then(|| base.ckpt_step.partition_point(|&s| s <= first) - 1)
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
    /// assigned to `pi`, sorted by `(superstep, tie rank)` — the same order the
    /// explicit-BSP path derives from the canonical schedule built in the same
    /// tie order.
    fn rebuild_seq_for_assignment(&mut self, pi: usize, procs: &[ProcId]) {
        let ConversionArena {
            seq,
            superstep,
            tie_rank,
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
        s.sort_unstable_by_key(|v| (superstep[v.index()], tie_rank[v.index()]));
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

    /// Puts the cache-simulation state at the beginning of the superstep of
    /// checkpoint `idx` (no allocations) and returns that superstep. Checkpoint
    /// 0 is the initial configuration, which every arena has; a later one
    /// belongs to the base, whose simulation up to it the current sequences
    /// must reproduce (see the module docs for what is stored and what is
    /// rebuilt here).
    fn restore<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        idx: usize,
        required_outputs: &[NodeId],
    ) -> usize {
        let (n, p) = (self.n, self.p);
        let step = self.base.ckpt_step[idx];
        // Clear exactly the red pebbles the previous run left behind (the dense
        // list knows them), instead of an O(P·V) sweep.
        for pi in 0..p {
            let row = pi * n;
            for v in self.cached_list[pi].drain(..) {
                self.cached[row + v.index()] = false;
            }
            self.cached_next[pi].clear();
            // `in_spent` is true exactly for the list members, so clearing the
            // flags while draining keeps both in sync without an O(V) sweep.
            for (_, _, v) in self.spent[pi].drain(..) {
                self.in_spent[row + v as usize] = false;
            }
            for v in self.dead[pi].drain(..) {
                self.in_dead[row + v as usize] = false;
            }
        }
        for pi in 0..p {
            self.use_ptr[pi * n..(pi + 1) * n]
                .copy_from_slice(&self.use_off[pi * (n + 1)..pi * (n + 1) + n]);
        }
        if step == 0 {
            // The initial blue set is exactly the sources.
            for (since, &source) in self.blue_since.iter_mut().zip(&self.source_mask) {
                *since = if source { 0 } else { NOT_BLUE };
            }
        } else {
            // A blue stamp never changes once written.
            for (since, &last) in self.blue_since.iter_mut().zip(&self.base.blue_since) {
                *since = if last <= step { last } else { NOT_BLUE };
            }
        }
        self.remaining_uses.copy_from_slice(&self.base_uses);
        self.is_required_output.copy_from_slice(&self.sink_mask);
        for &v in required_outputs {
            self.is_required_output[v.index()] = true;
        }
        for pi in 0..p {
            let slot = idx * p + pi;
            let cursor = self.base.ckpt_cursor[slot] as usize;
            self.cursor[pi] = cursor;
            self.used[pi] = self.base.ckpt_used[slot];
            // Only compute steps write the use counts.
            for &v in &self.seq[pi][..cursor] {
                for u in dag.parents(v) {
                    self.remaining_uses[u.index()] -= 1;
                }
            }
            for at in self.base.ckpt_off[slot] as usize..self.base.ckpt_off[slot + 1] as usize {
                let entry = self.base.ckpt_entries[at];
                let v = NodeId::new((entry & !(CKPT_SPENT | CKPT_DEAD)) as usize);
                self.cache_insert(pi, v);
                if entry & CKPT_SPENT != 0 {
                    self.spent_insert(pi, v);
                }
                if entry & CKPT_DEAD != 0 {
                    self.dead_insert(pi, v);
                }
            }
        }
        step as usize
    }

    /// Records the run state at the beginning of superstep `self.step` as the
    /// base's next checkpoint, thinning the checkpoints when they outgrow
    /// their O(n) allowance.
    fn take_checkpoint(&mut self) {
        let (n, p) = (self.n, self.p);
        let base = &mut self.base;
        base.ckpt_step.push(self.step);
        for pi in 0..p {
            base.ckpt_cursor.push(self.cursor[pi] as u32);
            base.ckpt_used.push(self.used[pi]);
            for &v in &self.cached_list[pi] {
                let slot = pi * n + v.index();
                let mut entry = v.index() as u32;
                if self.in_spent[slot] {
                    entry |= CKPT_SPENT;
                }
                if self.in_dead[slot] {
                    entry |= CKPT_DEAD;
                }
                base.ckpt_entries.push(entry);
            }
            base.ckpt_off.push(base.ckpt_entries.len() as u32);
        }
        while base.ckpt_entries.len() > CHECKPOINT_ENTRIES_PER_NODE * n && base.ckpt_step.len() > 1
        {
            base.thin(p);
        }
    }

    /// Stamps `v` as read by the superstep being recorded.
    #[inline]
    fn note_read(&mut self, v: NodeId) {
        if self.recording {
            let stamp = &mut self.base.read_since[v.index()];
            *stamp = (*stamp).min(self.step);
        }
    }

    /// Stamps processor `pi`'s end of sequence as read by the superstep being
    /// recorded.
    #[inline]
    fn note_end_read(&mut self, pi: usize) {
        if self.recording {
            let stamp = &mut self.base.end_read[pi];
            *stamp = (*stamp).min(self.step);
        }
    }

    /// The cache simulation itself, from the beginning of the superstep after
    /// the ones `out` holds (the state [`ConversionArena::restore`] left):
    /// identical transition rules to [`reference::convert`]. Each superstep is
    /// built in the scratch phase lists and appended to `out` once it ends, so
    /// `out` gains one superstep per simulated superstep.
    fn run<D: DagLike + ?Sized>(&mut self, dag: &D, arch: &Architecture, out: &mut MbspSchedule) {
        assert_eq!(
            out.processors(),
            self.p,
            "output schedule has the wrong processor count"
        );
        let start = out.num_supersteps();
        let mut step = std::mem::take(&mut self.scratch_step);
        let total: usize = self.seq.iter().map(|s| s.len()).sum();
        // Each superstep makes progress (a compute or a load); the bound below is a
        // generous safety net against construction bugs.
        let max_supersteps = 4 * total + 4 * self.n + 8;
        let mut step_idx = start;

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
            if self.recording && step_idx > start && self.step % self.base.interval == 0 {
                self.take_checkpoint();
            }

            for (pi, phases) in step.procs.iter_mut().enumerate() {
                phases.clear();
                let base = pi * self.n;

                // ---- 1. Compute phase: maximal segment without new I/O. ----
                loop {
                    let pos = self.cursor[pi];
                    if pos >= self.seq[pi].len() {
                        self.note_end_read(pi);
                        break;
                    }
                    let v = self.seq[pi][pos];
                    self.note_read(v);
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
                    // Execute the compute step. v's own uses all lie behind
                    // `pos`, so the key it enters the cache with still holds
                    // once the cursor has moved on.
                    phases.compute.push(ComputePhaseStep::Compute(v));
                    let key = self.cache_insert(pi, v);
                    self.used[pi] += dag.memory_weight(v);
                    for u in dag.parents(v) {
                        self.remaining_uses[u.index()] -= 1;
                    }
                    self.cursor[pi] += 1;
                    // A value becomes spent the moment its last local use is
                    // consumed (for v itself: when it has no local uses at
                    // all); recording the transition here is what lets the
                    // eviction triggers pop victims without scanning the cache.
                    if key == NO_USE {
                        self.spent_insert(pi, v);
                    }
                    for u in dag.parents(v) {
                        // The step consumed u's use at `pos`: re-key it.
                        let key = self.next_use_key(pi, u);
                        let at = self.list_pos[base + u.index()] as usize;
                        self.cached_next[pi][at] = key;
                        if key == NO_USE {
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
                        // Blue is part of the spent ordering key, so a spent
                        // value must be re-keyed across the flip. Only pi's
                        // list can hold v: an unsaved value exists solely on
                        // the processor that computed it.
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
                self.plan_io(dag, arch, pi, phases);
            }
            out.push_superstep(&step);
            step_idx += 1;
        }
        self.scratch_step = step;
        self.simulated_supersteps += (step_idx - start) as u64;
        self.skipped_supersteps += start as u64;
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
        phases: &mut ProcPhases,
        about_to_compute: NodeId,
    ) -> bool {
        let r = arch.cache_size;
        // The dead values are already known, in eviction order (node-id
        // ascending — the order the reference converter walks them in), in the
        // incrementally maintained `dead` list: pop until the output fits.
        // Parents of the pending compute still have an unconsumed use, so they
        // can never sit in the list.
        while self.used[pi] + needed > r + 1e-9 {
            let Some(&vid) = self.dead[pi].last() else {
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
    fn plan_io<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        pi: usize,
        phases: &mut ProcPhases,
    ) {
        let pos = self.cursor[pi];
        if pos >= self.seq[pi].len() {
            return;
        }
        let r = arch.cache_size;
        let base = pi * self.n;
        // (Already stamped as read: the compute loop stopped at this entry.)
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

        // Evict in the clairvoyant order until the next compute step fits,
        // without building a candidate set. First the spent values, popped
        // straight off their sorted list. Parents of `next` (and `next`
        // itself) are never spent (their use at the current cursor position
        // is still pending), so the reference converter's keep-set filter is
        // vacuous here. Popping reads the current blue pebbles, which equal
        // the trigger-start snapshot the reference ranks by: the only blue bit
        // an eviction flips belongs to the victim itself, which leaves the
        // cache with it.
        while self.used[pi] + target_free > r + 1e-9 {
            let Some((_, _, vid)) = self.spent[pi].pop() else {
                break;
            };
            let v = NodeId::new(vid as usize);
            self.in_spent[base + v.index()] = false;
            debug_assert!(v != next && !dag.parents(next).any(|u| u == v));
            self.evict(dag, pi, v, phases);
        }
        // Then the values with a future use, furthest first, ties like the
        // spent keys: each victim is one pass over the dense next-use keys. A
        // key equal to `pos` is an input of `next` (nothing else is read
        // there), which is the whole keep-set.
        while self.used[pi] + target_free > r + 1e-9 {
            let (keys, list) = (&self.cached_next[pi], &self.cached_list[pi]);
            let mut best: Option<usize> = None;
            for (at, &key) in keys.iter().enumerate() {
                if key as usize <= pos {
                    continue;
                }
                let better = best.map_or(true, |b| {
                    key > keys[b]
                        || (key == keys[b] && self.spent_key(list[at]) < self.spent_key(list[b]))
                });
                if better {
                    best = Some(at);
                }
            }
            let Some(best) = best else {
                break;
            };
            let v = list[best];
            debug_assert_eq!(self.next_use_key(pi, v), self.cached_next[pi][best]);
            debug_assert!(v != next && !dag.parents(next).any(|u| u == v));
            self.evict(dag, pi, v, phases);
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
        // Membership in the lookahead window is answered by `node_mask` in O(1).
        let mut virtually_cached = std::mem::take(&mut self.scratch_nodes2);
        virtually_cached.clear();
        virtually_cached.push(next);
        self.node_mask[next.index()] = true;
        let mut extras = std::mem::take(&mut self.scratch_nodes3);
        let mut virtual_used = self.used[pi] + dag.memory_weight(next);
        let mut look = pos + 1;
        loop {
            if look >= self.seq[pi].len() {
                self.note_end_read(pi);
                break;
            }
            let w = self.seq[pi][look];
            self.note_read(w);
            extras.clear();
            extras.extend(
                dag.parents(w)
                    .filter(|&u| !self.cached[base + u.index()] && !self.node_mask[u.index()]),
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
            self.node_mask[w.index()] = true;
            look += 1;
        }
        for &v in &virtually_cached {
            self.node_mask[v.index()] = false;
        }
        self.scratch_nodes2 = virtually_cached;
        self.scratch_nodes3 = extras;
    }

    /// Evicts `v` from `pi`'s cache in the delete phase. A victim that is still
    /// needed and not yet in slow memory is saved first (the save phase
    /// precedes the delete phase).
    fn evict<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        pi: usize,
        v: NodeId,
        phases: &mut ProcPhases,
    ) {
        // A spent victim was popped off its list: the blue flip below cannot
        // invalidate a stored ordering key.
        debug_assert!(!self.in_spent[pi * self.n + v.index()]);
        let needed_later = self.remaining_uses[v.index()] > 0 || self.is_required_output[v.index()];
        if needed_later && !self.is_blue(v) {
            phases.save.push(v);
            self.mark_blue(v);
        }
        phases.delete.push(v);
        self.cache_remove(pi, v);
        self.used[pi] -= dag.memory_weight(v);
    }

    /// Position in `seq[pi]` of the next use of `v` as an input on processor
    /// `pi` at or after the cursor, as a `cached_next` key ([`NO_USE`]: none).
    fn next_use_key(&mut self, pi: usize, v: NodeId) -> u32 {
        let end = self.use_off[pi * (self.n + 1) + v.index() + 1];
        let positions = &self.use_pos[pi];
        let cursor = self.cursor[pi] as u32;
        let ptr = &mut self.use_ptr[pi * self.n + v.index()];
        while *ptr < end && positions[*ptr as usize] < cursor {
            *ptr += 1;
        }
        if *ptr < end {
            positions[*ptr as usize]
        } else {
            NO_USE
        }
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
    /// only caches on a miss) and tracks it in the dense cached list. From here
    /// on `v`'s use lists are read, so a recorded run stamps it. Returns the
    /// next-use key `v` enters with.
    #[inline]
    fn cache_insert(&mut self, pi: usize, v: NodeId) -> u32 {
        self.note_read(v);
        let slot = pi * self.n + v.index();
        debug_assert!(!self.cached[slot]);
        self.cached[slot] = true;
        self.list_pos[slot] = self.cached_list[pi].len() as u32;
        self.cached_list[pi].push(v);
        let key = self.next_use_key(pi, v);
        self.cached_next[pi].push(key);
        key
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

    /// Inserts `v` into `pi`'s spent list (no-op if already present).
    #[inline]
    fn spent_insert(&mut self, pi: usize, v: NodeId) {
        let slot = pi * self.n + v.index();
        if !self.in_spent[slot] {
            self.in_spent[slot] = true;
            let key = self.spent_key(v);
            sorted_insert(&mut self.spent[pi], key);
        }
    }

    /// Removes `v` from `pi`'s spent list (no-op if absent). Must run before any
    /// change to `v`'s blue pebble, while the stored key still matches.
    #[inline]
    fn spent_remove(&mut self, pi: usize, v: NodeId) {
        let slot = pi * self.n + v.index();
        if self.in_spent[slot] {
            self.in_spent[slot] = false;
            let key = self.spent_key(v);
            let removed = sorted_remove(&mut self.spent[pi], key);
            debug_assert!(removed, "spent key out of sync");
        }
    }

    /// Marks `v` as dead on every processor that still caches a copy. Called at
    /// the two moments a value becomes dead: its last global use is consumed,
    /// or a required value with no uses left gains its blue pebble. (An
    /// eviction-save flip needs no call: an unsaved value is cached only on the
    /// processor evicting it.)
    fn dead_insert_everywhere(&mut self, v: NodeId) {
        for pi in 0..self.p {
            if self.cached[pi * self.n + v.index()] {
                self.dead_insert(pi, v);
            }
        }
    }

    /// Inserts `v` into `pi`'s dead list (no-op if already present).
    #[inline]
    fn dead_insert(&mut self, pi: usize, v: NodeId) {
        let slot = pi * self.n + v.index();
        if !self.in_dead[slot] {
            self.in_dead[slot] = true;
            sorted_insert(&mut self.dead[pi], v.index() as u32);
        }
    }

    /// Removes `v` from `pi`'s cache and its dense cached list (O(1) swap-remove).
    #[inline]
    fn cache_remove(&mut self, pi: usize, v: NodeId) {
        // Evicted values leave the spent and dead lists with the cache (dead
        // values dropped by `make_room_with_dead_values` are always spent).
        self.spent_remove(pi, v);
        let slot = pi * self.n + v.index();
        if self.in_dead[slot] {
            self.in_dead[slot] = false;
            let removed = sorted_remove(&mut self.dead[pi], v.index() as u32);
            debug_assert!(removed, "dead entry out of sync");
        }
        debug_assert!(self.cached[slot]);
        self.cached[slot] = false;
        let pos = self.list_pos[slot] as usize;
        self.cached_next[pi].swap_remove(pos);
        let last = self.cached_list[pi]
            .pop()
            .expect("cached list is non-empty");
        if last != v {
            self.cached_list[pi][pos] = last;
            self.list_pos[pi * self.n + last.index()] = pos as u32;
        }
    }
}

/// The original single-shot converter, for any eviction policy. It is the
/// differential oracle of [`ConversionArena`] (the `dense::` pattern of
/// `lp_solver`): every conversion the arena performs must be
/// operation-identical to [`reference::convert`] under
/// [`crate::ClairvoyantPolicy`] on the same inputs. It is also the only
/// converter for a policy that does not promise the clairvoyant order (LRU),
/// which [`TwoStageScheduler::schedule`] sends here. It allocates its entire
/// state per call, which is exactly the cost the arena exists to avoid.
pub mod reference {
    use super::*;
    use crate::policy::CandidateVictim;

    /// Converts `bsp` with a freshly allocated converter (the pre-arena code path).
    pub fn convert<D: DagLike + ?Sized>(
        dag: &D,
        arch: &Architecture,
        bsp: &BspSchedulingResult,
        policy: &dyn EvictionPolicy,
        required_outputs: &[NodeId],
    ) -> MbspSchedule {
        Converter::new(dag, arch, bsp, policy, required_outputs).run()
    }

    /// Internal cache-simulation state of the reference converter.
    pub(super) struct Converter<'a, D: DagLike + ?Sized> {
        dag: &'a D,
        arch: &'a Architecture,
        policy: &'a dyn EvictionPolicy,
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
                let mut step = Superstep::empty(p);

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
                schedule.push_superstep(&step);
            }
            schedule.remove_empty_supersteps();
            schedule
        }

        /// Drops dead cached values until `needed` additional space is available.
        fn make_room_with_dead_values(
            &mut self,
            pi: usize,
            needed: f64,
            phases: &mut ProcPhases,
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
        fn plan_io(&mut self, pi: usize, phases: &mut ProcPhases, blue_snapshot: &[bool]) {
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
    use mbsp_sched::{BspScheduler, CilkScheduler, DfsScheduler, GreedyBspScheduler};

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
        let sched = GreedyBspScheduler::new();
        for inst in instances() {
            let bsp = sched.schedule(inst.dag(), inst.arch());
            let oracle = reference::convert(inst.dag(), inst.arch(), &bsp, &policy, &[]);
            let mut arena = ConversionArena::new(inst.dag(), inst.arch());
            let mut out = MbspSchedule::new(inst.arch().processors);
            arena.convert(inst.dag(), inst.arch(), &bsp, &[], &mut out);
            assert_eq!(out, oracle, "{}", inst.name());
            // A second conversion through the same arena is identical as well.
            arena.convert(inst.dag(), inst.arch(), &bsp, &[], &mut out);
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
        let bsp = BspSchedulingResult {
            schedule: mbsp_model::BspSchedule::new(2, procs.into_iter().zip(0..).collect()),
            order: (0..3).map(NodeId::new).collect(),
        };
        let produced = NodeId::new(1);
        // The clairvoyant conversion runs on the arena, the LRU one on the
        // single-shot converter.
        for policy in [
            &ClairvoyantPolicy::new() as &dyn EvictionPolicy,
            &LruPolicy::new(),
        ] {
            let out = TwoStageScheduler::new().schedule(&dag, &arch, &bsp, policy);
            out.validate(&dag, &arch).unwrap();
            let step_of = |pi: usize, pick: fn(mbsp_model::PhasesView<'_>) -> &[NodeId]| {
                out.supersteps()
                    .position(|s| pick(s.proc(ProcId::new(pi))).contains(&produced))
                    .expect("the value crosses processors through slow memory")
            };
            let saved = step_of(0, |ph| ph.save);
            let loaded = step_of(1, |ph| ph.load);
            assert_eq!(loaded, saved + 1, "{}", policy.name());
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
            for (s, step) in mbsp.supersteps().enumerate() {
                for phases in step.procs() {
                    for &v in phases.load {
                        assert!(
                            inst.dag().is_source(v) || saved_in[v.index()].is_some_and(|t| t < s),
                            "{}: {v:?} loaded in superstep {s}, saved in {:?}",
                            inst.name(),
                            saved_in[v.index()]
                        );
                    }
                }
                for phases in step.procs() {
                    for &v in phases.save {
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
    fn lru_conversions_of_every_baseline_pass_the_reference_validator() {
        // LRU conversions run on the single-shot converter only; the
        // independent `Vec<bool>` replay referees them for every baseline.
        let conv = TwoStageScheduler::new();
        let baselines: [&dyn BspScheduler; 3] = [
            &GreedyBspScheduler::new(),
            &CilkScheduler::new(),
            &DfsScheduler::new(),
        ];
        for inst in instances() {
            for baseline in baselines {
                let bsp = baseline.schedule(inst.dag(), inst.arch());
                let mbsp = conv.schedule(inst.dag(), inst.arch(), &bsp, &LruPolicy::new());
                mbsp_model::reference::validate(&mbsp, inst.dag(), inst.arch())
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", inst.name(), baseline.name()));
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
