//! Pebbling configurations: the memory state of an MBSP execution.
//!
//! A configuration `ζ = (R_1, ..., R_P, B)` records which nodes carry a red pebble of
//! each processor (values resident in that processor's cache) and which nodes carry a
//! blue pebble (values resident in slow memory). [`Configuration`] tracks the cached
//! memory usage of every processor incrementally so that the memory bound
//! `Σ_{v ∈ R_p} μ(v) ≤ r` can be checked in O(1) per operation.
//!
//! ## Memory layout
//!
//! Red pebbles are packed into `u64`-word **bitsets**: one flat word array of
//! `P · ⌈n / 64⌉` words (processor-major), and one word array for the blue
//! pebbles. A pebble test is a shift-and-mask, [`Configuration::reset_initial`]
//! and [`Configuration::copy_from`] are word-level `fill`/`copy_from_slice`
//! operations (lowered to `memset`/`memcpy`), a compute walks its parent list
//! and tests each parent's bit, and [`Configuration::cached_nodes`] /
//! [`Configuration::blue_nodes`] walk set bits with `trailing_zeros`. Bits at
//! index `≥ n` are kept zero at all times so the derived `==` (the
//! post-optimiser's exact fast-accept) compares whole words.
//!
//! ## One rule set
//!
//! The four transition rules are checked in one place,
//! [`Configuration::apply`], and a superstep's phases are walked in one
//! place, [`Configuration::apply_superstep`] (checked) and
//! [`Configuration::apply_superstep_unchecked`]. Validation, the
//! post-optimiser's fold checks, its suffix re-simulation and its prefix
//! replays all run through them.
//!
//! The pre-bitset nested-`Vec<bool>` implementation is retained verbatim as
//! [`crate::reference::ReferenceConfiguration`], the differential oracle of the
//! seeded property tests in `tests/state_differential.rs`.

use crate::arch::{Architecture, ProcId};
use crate::ops::Operation;
use crate::schedule::{for_each_operation, ScheduleError, SuperstepView};
use mbsp_dag::{DagLike, NodeId};
use std::convert::Infallible;

/// The memory state of an MBSP execution at one point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct Configuration {
    /// Packed red pebbles, processor-major: bit `v` of processor `p` lives in
    /// word `p * words + v / 64`.
    red: Vec<u64>,
    /// Packed blue pebbles.
    blue: Vec<u64>,
    /// Cached memory use of each processor: `Σ_{v ∈ R_p} μ(v)`, maintained
    /// incrementally on every place/remove.
    used: Vec<f64>,
    /// Number of processors.
    processors: usize,
    /// Number of DAG nodes.
    num_nodes: usize,
    /// Words per processor bitset: `⌈num_nodes / 64⌉`.
    words: usize,
}

impl Configuration {
    /// The initial configuration of a schedule: every cache is empty and slow memory
    /// holds exactly the source nodes of the DAG.
    pub fn initial<D: DagLike + ?Sized>(dag: &D, arch: &Architecture) -> Self {
        let mut cfg = Configuration::empty(dag, arch);
        for v in dag.source_nodes() {
            cfg.place_blue_unchecked(v);
        }
        cfg
    }

    /// An entirely empty configuration (no pebbles anywhere): what
    /// [`Configuration::initial`] places the sources on, and a buffer for
    /// [`Configuration::copy_from`] to fill.
    pub fn empty<D: DagLike + ?Sized>(dag: &D, arch: &Architecture) -> Self {
        let n = dag.num_nodes();
        let words = n.div_ceil(64);
        Configuration {
            red: vec![0; arch.processors * words],
            blue: vec![0; words],
            used: vec![0.0; arch.processors],
            processors: arch.processors,
            num_nodes: n,
            words,
        }
    }

    /// Number of processors tracked.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Resets this configuration to the initial state of a schedule (empty caches,
    /// sources in slow memory) without allocating — the in-place counterpart of
    /// [`Configuration::initial`] for simulation loops that reuse one buffer.
    /// Word-level: two `fill`s plus one pass over the sources.
    pub fn reset_initial<D: DagLike + ?Sized>(&mut self, dag: &D) {
        debug_assert_eq!(self.num_nodes, dag.num_nodes());
        self.red.fill(0);
        self.blue.fill(0);
        for v in dag.source_nodes() {
            self.place_blue_unchecked(v);
        }
        self.used.fill(0.0);
    }

    /// Copies `other` into `self`, reusing allocations (the derived `Clone` only
    /// generates an allocating `clone`). Word-level `copy_from_slice`.
    pub fn copy_from(&mut self, other: &Configuration) {
        debug_assert_eq!(self.processors, other.processors);
        debug_assert_eq!(self.num_nodes, other.num_nodes);
        self.red.copy_from_slice(&other.red);
        self.blue.copy_from_slice(&other.blue);
        self.used.copy_from_slice(&other.used);
    }

    /// Does node `v` carry a red pebble of processor `p`?
    #[inline]
    pub fn has_red(&self, p: ProcId, v: NodeId) -> bool {
        let i = v.index();
        self.red[p.index() * self.words + (i >> 6)] & (1u64 << (i & 63)) != 0
    }

    /// Does node `v` carry a blue pebble?
    #[inline]
    pub fn has_blue(&self, v: NodeId) -> bool {
        let i = v.index();
        self.blue[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Current fast-memory usage of processor `p`.
    #[inline]
    pub fn memory_used(&self, p: ProcId) -> f64 {
        self.used[p.index()]
    }

    /// The nodes currently cached by processor `p`, in index order.
    ///
    /// Returns a lazy iterator over the set bits of the processor's red bitset;
    /// collect it only when a materialised list is genuinely needed.
    pub fn cached_nodes(&self, p: ProcId) -> impl Iterator<Item = NodeId> + '_ {
        let base = p.index() * self.words;
        SetBits::new(&self.red[base..base + self.words])
    }

    /// The nodes currently in slow memory, in index order.
    ///
    /// Returns a lazy iterator over the set bits of the blue bitset; collect it
    /// only when a materialised list is genuinely needed.
    pub fn blue_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        SetBits::new(&self.blue)
    }

    /// Places a red pebble of `p` on `v` without any precondition check (used to set
    /// up boundary states for sub-schedules). Updates the memory usage.
    pub fn place_red_unchecked<D: DagLike + ?Sized>(&mut self, dag: &D, p: ProcId, v: NodeId) {
        let i = v.index();
        let word = &mut self.red[p.index() * self.words + (i >> 6)];
        let bit = 1u64 << (i & 63);
        if *word & bit == 0 {
            *word |= bit;
            self.used[p.index()] += dag.memory_weight(v);
        }
    }

    /// Places a blue pebble on `v` without any precondition check.
    pub fn place_blue_unchecked(&mut self, v: NodeId) {
        let i = v.index();
        self.blue[i >> 6] |= 1u64 << (i & 63);
    }

    /// Removes a red pebble of `p` from `v` without any precondition check (the
    /// unchecked counterpart of a delete). Updates the memory usage.
    pub fn remove_red_unchecked<D: DagLike + ?Sized>(&mut self, dag: &D, p: ProcId, v: NodeId) {
        let i = v.index();
        let word = &mut self.red[p.index() * self.words + (i >> 6)];
        let bit = 1u64 << (i & 63);
        if *word & bit != 0 {
            *word &= !bit;
            self.used[p.index()] -= dag.memory_weight(v);
            if self.used[p.index()] < 0.0 {
                self.used[p.index()] = 0.0;
            }
        }
    }

    /// Applies `op` if the pebble game allows it here; otherwise returns why
    /// not and changes nothing. The checks run in one order, and the first
    /// that fails is the error: the node range, then the rule's own
    /// precondition — a blue pebble to load, a red one to save or delete, and
    /// to compute a non-source whose parents are all red on the processor —
    /// then, for a load or compute, the memory bound. A missing parent of a
    /// compute is reported as the first one in the DAG's parent order.
    #[inline]
    pub fn apply<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        op: Operation,
    ) -> Result<(), ScheduleError> {
        let (proc, node) = (op.proc(), op.node());
        if node.index() >= self.num_nodes {
            return Err(ScheduleError::NodeOutOfRange {
                node,
                num_nodes: self.num_nodes,
            });
        }
        match op {
            Operation::Load { .. } => {
                if !self.has_blue(node) {
                    return Err(ScheduleError::LoadWithoutBlue { proc, node });
                }
            }
            Operation::Compute { .. } => {
                if dag.is_source(node) {
                    return Err(ScheduleError::ComputeSource { proc, node });
                }
                if let Some(parent) = dag.parents(node).find(|&u| !self.has_red(proc, u)) {
                    return Err(ScheduleError::MissingParent { proc, node, parent });
                }
            }
            Operation::Save { .. } => {
                if !self.has_red(proc, node) {
                    return Err(ScheduleError::SaveWithoutRed { proc, node });
                }
                self.place_blue_unchecked(node);
                return Ok(());
            }
            Operation::Delete { .. } => {
                if !self.has_red(proc, node) {
                    return Err(ScheduleError::DeleteWithoutRed { proc, node });
                }
                self.remove_red_unchecked(dag, proc, node);
                return Ok(());
            }
        }
        if !self.has_red(proc, node) {
            let used = self.used[proc.index()] + dag.memory_weight(node);
            if used > arch.cache_size + MEMORY_EPS {
                return Err(ScheduleError::MemoryBoundExceeded {
                    proc,
                    node,
                    used,
                    bound: arch.cache_size,
                });
            }
            self.place_red_unchecked(dag, proc, node);
        }
        Ok(())
    }

    /// Applies the operations of `steps` as one superstep through
    /// [`Configuration::apply`]: each processor's phase lists are those of
    /// every step of `steps` one after another — what folding the steps into
    /// one superstep makes — and the phases run in model order (every compute
    /// phase, then every save, delete and load phase). Stops at the first
    /// illegal operation and returns its error; the operations before it stay
    /// applied.
    pub fn apply_superstep<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        arch: &Architecture,
        steps: &[SuperstepView<'_>],
    ) -> Result<(), ScheduleError> {
        for_each_operation(steps, |op| self.apply(dag, arch, op))
    }

    /// Applies every operation of `step`, in model order, without
    /// precondition checks (the step is known to be legal from here).
    pub fn apply_superstep_unchecked<D: DagLike + ?Sized>(
        &mut self,
        dag: &D,
        step: SuperstepView<'_>,
    ) {
        for_each_operation(&[step], |op| {
            self.apply_unchecked(dag, op);
            Ok(())
        })
        .unwrap_or_else(|never: Infallible| match never {});
    }

    /// Applies `op` without precondition checks (the caller has already validated).
    pub fn apply_unchecked<D: DagLike + ?Sized>(&mut self, dag: &D, op: Operation) {
        match op {
            Operation::Load { proc, node } | Operation::Compute { proc, node } => {
                self.place_red_unchecked(dag, proc, node);
            }
            Operation::Save { node, .. } => {
                self.place_blue_unchecked(node);
            }
            Operation::Delete { proc, node } => {
                self.remove_red_unchecked(dag, proc, node);
            }
        }
    }

    /// Returns true if every sink of the DAG carries a blue pebble (the terminal
    /// condition of a schedule).
    pub fn is_terminal<D: DagLike + ?Sized>(&self, dag: &D) -> bool {
        dag.sink_nodes().all(|v| self.has_blue(v))
    }

    /// Returns true if every processor satisfies the memory bound.
    pub fn within_memory_bound(&self, arch: &Architecture) -> bool {
        self.used.iter().all(|&u| u <= arch.cache_size + MEMORY_EPS)
    }
}

/// Iterator over the set-bit indices of a word slice, in increasing order.
struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the word `current` was taken from.
    word_idx: usize,
    /// Remaining bits of the current word.
    current: u64,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [u64]) -> Self {
        SetBits {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(NodeId::new(self.word_idx * 64 + bit))
    }
}

/// Numerical slack used when comparing accumulated floating-point memory usage with
/// the cache capacity.
pub(crate) const MEMORY_EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceConfiguration;
    use mbsp_dag::graph::NodeWeights;
    use mbsp_dag::CompDag;

    fn path3() -> CompDag {
        CompDag::from_edges("p", vec![NodeWeights::unit(); 3], &[(0, 1), (1, 2)]).unwrap()
    }

    fn arch2(cache: f64) -> Architecture {
        Architecture::new(2, cache, 1.0, 0.0)
    }

    fn load(p: usize, v: usize) -> Operation {
        Operation::Load {
            proc: ProcId::new(p),
            node: NodeId::new(v),
        }
    }

    fn compute(p: usize, v: usize) -> Operation {
        Operation::Compute {
            proc: ProcId::new(p),
            node: NodeId::new(v),
        }
    }

    fn save(p: usize, v: usize) -> Operation {
        Operation::Save {
            proc: ProcId::new(p),
            node: NodeId::new(v),
        }
    }

    fn delete(p: usize, v: usize) -> Operation {
        Operation::Delete {
            proc: ProcId::new(p),
            node: NodeId::new(v),
        }
    }

    #[test]
    fn initial_configuration() {
        let dag = path3();
        let arch = arch2(2.0);
        let cfg = Configuration::initial(&dag, &arch);
        assert!(cfg.has_blue(NodeId::new(0)));
        assert!(!cfg.has_blue(NodeId::new(1)));
        assert!(!cfg.has_red(ProcId::new(0), NodeId::new(0)));
        assert_eq!(cfg.memory_used(ProcId::new(0)), 0.0);
        assert!(!cfg.is_terminal(&dag));
        assert!(cfg.within_memory_bound(&arch));
    }

    #[test]
    fn load_compute_save_cycle() {
        let dag = path3();
        let arch = arch2(2.0);
        let p = ProcId::new(0);
        let mut cfg = Configuration::initial(&dag, &arch);
        cfg.apply(&dag, &arch, load(0, 0)).unwrap();
        assert!(cfg.has_red(p, NodeId::new(0)));
        assert_eq!(cfg.memory_used(p), 1.0);
        cfg.apply(&dag, &arch, compute(0, 1)).unwrap();
        assert_eq!(cfg.memory_used(p), 2.0);
        cfg.apply(&dag, &arch, delete(0, 0)).unwrap();
        assert_eq!(cfg.memory_used(p), 1.0);
        cfg.apply(&dag, &arch, compute(0, 2)).unwrap();
        cfg.apply(&dag, &arch, save(0, 2)).unwrap();
        assert!(cfg.is_terminal(&dag));
        assert!(cfg.cached_nodes(p).eq([NodeId::new(1), NodeId::new(2)]));
        assert!(cfg.blue_nodes().eq([NodeId::new(0), NodeId::new(2)]));
    }

    #[test]
    fn preconditions_are_enforced() {
        let dag = path3();
        let arch = arch2(2.0);
        let mut cfg = Configuration::initial(&dag, &arch);
        let initial = cfg.clone();
        let mut rejects = |op| {
            let err = cfg.apply(&dag, &arch, op).unwrap_err();
            // A rejected operation changes nothing.
            assert_eq!(cfg, initial);
            err
        };
        // Loading a node with no blue pebble.
        assert!(matches!(
            rejects(load(0, 1)),
            ScheduleError::LoadWithoutBlue { .. }
        ));
        // Computing a source node.
        assert!(matches!(
            rejects(compute(0, 0)),
            ScheduleError::ComputeSource { .. }
        ));
        // Computing without the parent cached.
        assert_eq!(
            rejects(compute(0, 1)),
            ScheduleError::MissingParent {
                proc: ProcId::new(0),
                node: NodeId::new(1),
                parent: NodeId::new(0)
            }
        );
        // Saving or deleting a value that is not cached.
        assert!(matches!(
            rejects(save(0, 0)),
            ScheduleError::SaveWithoutRed { .. }
        ));
        assert!(matches!(
            rejects(delete(0, 0)),
            ScheduleError::DeleteWithoutRed { .. }
        ));
        // A node outside the DAG.
        assert!(matches!(
            rejects(load(0, 3)),
            ScheduleError::NodeOutOfRange { num_nodes: 3, .. }
        ));
        // A valid load still works.
        cfg.apply(&dag, &arch, load(0, 0)).unwrap();
    }

    #[test]
    fn memory_bound_is_enforced() {
        let dag = path3();
        let arch = arch2(1.0);
        let mut cfg = Configuration::initial(&dag, &arch);
        cfg.apply(&dag, &arch, load(0, 0)).unwrap();
        // Computing node 1 would need 2 units of cache but the bound is 1.
        let err = cfg.apply(&dag, &arch, compute(0, 1)).unwrap_err();
        assert!(matches!(err, ScheduleError::MemoryBoundExceeded { .. }));
        assert!(!cfg.has_red(ProcId::new(0), NodeId::new(1)));
        assert_eq!(cfg.memory_used(ProcId::new(0)), 1.0);
    }

    #[test]
    fn caches_are_independent_per_processor() {
        let dag = path3();
        let arch = arch2(2.0);
        let (p0, p1) = (ProcId::new(0), ProcId::new(1));
        let mut cfg = Configuration::initial(&dag, &arch);
        cfg.apply(&dag, &arch, load(0, 0)).unwrap();
        assert!(cfg.has_red(p0, NodeId::new(0)));
        assert!(!cfg.has_red(p1, NodeId::new(0)));
        assert_eq!(cfg.memory_used(p1), 0.0);
        // p1 cannot compute node 1: its own cache does not hold the parent.
        assert!(cfg.apply(&dag, &arch, compute(1, 1)).is_err());
    }

    #[test]
    fn repeated_load_does_not_double_count_memory() {
        let dag = path3();
        let arch = arch2(5.0);
        let mut cfg = Configuration::initial(&dag, &arch);
        cfg.apply(&dag, &arch, load(0, 0)).unwrap();
        cfg.apply(&dag, &arch, load(0, 0)).unwrap();
        assert_eq!(cfg.memory_used(ProcId::new(0)), 1.0);
    }

    #[test]
    fn unchecked_setup_helpers() {
        let dag = path3();
        let arch = arch2(5.0);
        let p = ProcId::new(0);
        let mut cfg = Configuration::empty(&dag, &arch);
        assert!(!cfg.has_blue(NodeId::new(0)));
        cfg.place_blue_unchecked(NodeId::new(2));
        cfg.place_red_unchecked(&dag, p, NodeId::new(1));
        assert!(cfg.has_blue(NodeId::new(2)));
        assert!(cfg.has_red(p, NodeId::new(1)));
        assert_eq!(cfg.memory_used(p), 1.0);
        assert!(cfg.is_terminal(&dag));
    }

    #[test]
    fn bitset_iterators_cross_word_boundaries() {
        // 130 nodes span three 64-bit words; pebbles at 0, 63, 64, 129 hit every
        // word edge.
        let n = 130;
        let dag = CompDag::from_edges("wide", vec![NodeWeights::unit(); n], &[]).unwrap();
        let arch = arch2(1e9);
        let p = ProcId::new(1);
        let mut cfg = Configuration::empty(&dag, &arch);
        for i in [0usize, 63, 64, 129] {
            cfg.place_red_unchecked(&dag, p, NodeId::new(i));
            cfg.place_blue_unchecked(NodeId::new(i));
        }
        let cached: Vec<usize> = cfg.cached_nodes(p).map(|v| v.index()).collect();
        assert_eq!(cached, vec![0, 63, 64, 129]);
        let blue: Vec<usize> = cfg.blue_nodes().map(|v| v.index()).collect();
        assert_eq!(blue, vec![0, 63, 64, 129]);
        // Processor 0's bitset is untouched.
        assert_eq!(cfg.cached_nodes(ProcId::new(0)).count(), 0);
        assert_eq!(cfg.memory_used(p), 4.0);
        cfg.remove_red_unchecked(&dag, p, NodeId::new(64));
        assert!(cfg.cached_nodes(p).map(|v| v.index()).eq([0, 63, 129]));
    }

    #[test]
    fn masked_compute_check_matches_walking_path() {
        // High-fan-in node whose parents span three bitset words: the bitset
        // `apply` against the oracle's `Vec<bool>` one, both walking parents.
        let n = 140;
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, n - 1)).collect();
        edges.push((0, 1));
        let dag = CompDag::from_edges("fanin", vec![NodeWeights::unit(); n], &edges).unwrap();
        let arch = Architecture::new(2, 1e9, 1.0, 0.0);
        let (p, sink) = (ProcId::new(1), NodeId::new(n - 1));
        let mut walk = ReferenceConfiguration::initial(&dag, &arch);
        let mut fast = Configuration::initial(&dag, &arch);
        let same = |walk: &ReferenceConfiguration, fast: &Configuration| {
            (0..n).all(|i| walk.has_red(p, NodeId::new(i)) == fast.has_red(p, NodeId::new(i)))
                && walk.memory_used(p) == fast.memory_used(p)
        };
        // An empty cache and then one missing parent per word: both reject
        // with the first missing parent, and neither mutates.
        let op = compute(1, n - 1);
        let expected = walk.apply(&dag, &arch, op);
        assert_eq!(fast.apply(&dag, &arch, op), expected);
        assert!(matches!(expected, Err(ScheduleError::MissingParent { .. })));
        for missing in [0usize, 64, 128, 138] {
            for i in 0..n - 1 {
                walk.place_red_unchecked(&dag, p, NodeId::new(i));
                fast.place_red_unchecked(&dag, p, NodeId::new(i));
            }
            walk.remove_red_unchecked(&dag, p, NodeId::new(missing));
            fast.remove_red_unchecked(&dag, p, NodeId::new(missing));
            let expected = walk.apply(&dag, &arch, op);
            assert_eq!(
                expected,
                Err(ScheduleError::MissingParent {
                    proc: p,
                    node: sink,
                    parent: NodeId::new(missing)
                })
            );
            assert_eq!(fast.apply(&dag, &arch, op), expected);
            assert!(same(&walk, &fast));
        }
        walk.place_red_unchecked(&dag, p, NodeId::new(138));
        fast.place_red_unchecked(&dag, p, NodeId::new(138));
        walk.apply(&dag, &arch, op).unwrap();
        fast.apply(&dag, &arch, op).unwrap();
        assert!(fast.has_red(p, sink) && same(&walk, &fast));
        // Sources are rejected by both.
        assert_eq!(
            fast.apply(&dag, &arch, compute(1, 0)),
            walk.apply(&dag, &arch, compute(1, 0))
        );
    }

    #[test]
    fn word_level_copy_and_reset_roundtrip() {
        let dag = path3();
        let arch = arch2(5.0);
        let p = ProcId::new(0);
        let mut a = Configuration::initial(&dag, &arch);
        a.place_red_unchecked(&dag, p, NodeId::new(1));
        a.place_blue_unchecked(NodeId::new(2));
        let mut b = Configuration::empty(&dag, &arch);
        b.copy_from(&a);
        assert_eq!(a, b);
        b.reset_initial(&dag);
        assert_eq!(b, Configuration::initial(&dag, &arch));
    }
}
