//! MBSP schedules: supersteps, per-processor phases, validation and statistics.
//!
//! A schedule is a sequence of supersteps. Within a superstep, every processor `p`
//! executes four sub-phases in order (Section 3.2 of the paper):
//!
//! 1. a **compute phase** `Ψ_comp` of compute and delete steps,
//! 2. a **save phase** `Ψ_save` of save steps,
//! 3. a **delete phase** `Ψ_del` of delete steps,
//! 4. a **load phase** `Ψ_load` of load steps.
//!
//! The shared slow memory `B` is only modified during save phases and only queried
//! during load phases, so loads of a superstep observe every save of the same
//! superstep (on any processor). [`MbspSchedule::validate`] simulates the schedule
//! under exactly these semantics, enforcing the transition-rule preconditions, the
//! per-processor memory bound, the initial configuration (only sources in slow
//! memory) and the terminal condition (all sinks in slow memory).
//!
//! ## Layout
//!
//! [`MbspSchedule`] stores its operations flat, so a schedule is four
//! allocations whatever its length: one `Vec<ComputePhaseStep>` with the compute
//! phase of every *slot* — a (superstep, processor) pair, superstep-major — one
//! `Vec<NodeId>` with the save, delete and load phases of every slot, and `u32`
//! offsets, one range per slot into the first and one per (slot, phase) into the
//! second. The ranges tile both arrays in order with nothing left over, so the
//! derived equality is logical equality.
//!
//! Readers borrow views: `schedule.superstep(s).proc(p)` is a [`PhasesView`]
//! whose `compute` / `save` / `delete` / `load` are slices. [`Superstep`] and
//! [`ProcPhases`] are the owned shape a schedule is built from
//! ([`MbspSchedule::push_superstep`]) and the shape of its JSON form.

use crate::arch::{Architecture, ProcId};
use crate::ops::{ComputePhaseStep, Operation};
use crate::state::Configuration;
use mbsp_dag::{DagLike, NodeId};
use serde::{Deserialize, Serialize, Value};
use std::convert::Infallible;
use std::fmt;

/// Errors reported by schedule validation and construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A load was issued for a node that has no blue pebble (not in slow memory).
    LoadWithoutBlue {
        /// Processor issuing the load.
        proc: ProcId,
        /// The node being loaded.
        node: NodeId,
    },
    /// A save was issued for a node that the processor does not have cached.
    SaveWithoutRed {
        /// Processor issuing the save.
        proc: ProcId,
        /// The node being saved.
        node: NodeId,
    },
    /// A delete was issued for a node that the processor does not have cached.
    DeleteWithoutRed {
        /// Processor issuing the delete.
        proc: ProcId,
        /// The node being deleted.
        node: NodeId,
    },
    /// A compute was issued for a source node (sources are loaded, never computed).
    ComputeSource {
        /// Processor issuing the compute.
        proc: ProcId,
        /// The offending source node.
        node: NodeId,
    },
    /// A compute was issued while one of the node's parents is not cached.
    MissingParent {
        /// Processor issuing the compute.
        proc: ProcId,
        /// The node being computed.
        node: NodeId,
        /// The parent that is missing from the cache.
        parent: NodeId,
    },
    /// An operation would push a processor's cache usage above the memory bound `r`.
    MemoryBoundExceeded {
        /// The processor exceeding its bound.
        proc: ProcId,
        /// The node whose placement caused the overflow.
        node: NodeId,
        /// The usage that would result.
        used: f64,
        /// The configured bound `r`.
        bound: f64,
    },
    /// At the end of the schedule some sink node has no blue pebble.
    MissingSink {
        /// The sink that never reached slow memory.
        node: NodeId,
    },
    /// A superstep does not have exactly one [`ProcPhases`] entry per processor
    /// (when built or deserialised), or the schedule targets a different number of
    /// processors than the architecture it is validated against.
    ProcessorCountMismatch {
        /// Index of the offending superstep.
        superstep: usize,
        /// Number of per-processor entries found.
        found: usize,
        /// Number of processors expected.
        expected: usize,
    },
    /// A schedule was built or deserialised for zero processors.
    NoProcessors,
    /// An operation references a node outside the DAG.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the DAG.
        num_nodes: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::LoadWithoutBlue { proc, node } => {
                write!(f, "{proc} loads {node} which is not in slow memory")
            }
            ScheduleError::SaveWithoutRed { proc, node } => {
                write!(f, "{proc} saves {node} which it does not have in cache")
            }
            ScheduleError::DeleteWithoutRed { proc, node } => {
                write!(f, "{proc} deletes {node} which it does not have in cache")
            }
            ScheduleError::ComputeSource { proc, node } => {
                write!(f, "{proc} computes source node {node}")
            }
            ScheduleError::MissingParent { proc, node, parent } => {
                write!(
                    f,
                    "{proc} computes {node} but parent {parent} is not in its cache"
                )
            }
            ScheduleError::MemoryBoundExceeded {
                proc,
                node,
                used,
                bound,
            } => write!(
                f,
                "{proc} exceeds the memory bound when placing {node}: {used} > {bound}"
            ),
            ScheduleError::MissingSink { node } => {
                write!(
                    f,
                    "sink {node} is not in slow memory at the end of the schedule"
                )
            }
            ScheduleError::ProcessorCountMismatch {
                superstep,
                found,
                expected,
            } => write!(
                f,
                "superstep {superstep} has {found} processor entries, expected {expected}"
            ),
            ScheduleError::NoProcessors => write!(f, "a schedule needs at least one processor"),
            ScheduleError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "{node} is out of range for a DAG with {num_nodes} nodes")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The four sub-phases of one processor within one superstep, owned: the shape a
/// superstep is built in before [`MbspSchedule::push_superstep`] copies it, and
/// the shape of its JSON form. A schedule's own phases are read through
/// [`PhasesView`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcPhases {
    /// Compute phase: compute and delete steps, in execution order.
    pub compute: Vec<ComputePhaseStep>,
    /// Save phase: nodes written to slow memory.
    pub save: Vec<NodeId>,
    /// Delete phase: nodes evicted after the save phase.
    pub delete: Vec<NodeId>,
    /// Load phase: nodes read from slow memory.
    pub load: Vec<NodeId>,
}

impl ProcPhases {
    /// Empties all four phase lists, keeping their allocations.
    pub fn clear(&mut self) {
        self.compute.clear();
        self.save.clear();
        self.delete.clear();
        self.load.clear();
    }
}

/// One superstep, owned: the phases of every processor (index = processor id).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Superstep {
    /// Per-processor phases; length must equal the number of processors.
    pub procs: Vec<ProcPhases>,
}

impl Superstep {
    /// An empty superstep for `processors` processors.
    pub fn empty(processors: usize) -> Self {
        Superstep {
            procs: vec![ProcPhases::default(); processors],
        }
    }

    /// Mutable access to the phases of processor `p`.
    pub fn proc_mut(&mut self, p: ProcId) -> &mut ProcPhases {
        &mut self.procs[p.index()]
    }
}

/// The four phase lists of one processor in one superstep of an
/// [`MbspSchedule`], borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhasesView<'a> {
    /// Compute phase: compute and delete steps, in execution order.
    pub compute: &'a [ComputePhaseStep],
    /// Save phase: nodes written to slow memory.
    pub save: &'a [NodeId],
    /// Delete phase: nodes evicted after the save phase.
    pub delete: &'a [NodeId],
    /// Load phase: nodes read from slow memory.
    pub load: &'a [NodeId],
}

impl PhasesView<'_> {
    /// True if the processor performs no operation in this superstep.
    pub fn is_empty(&self) -> bool {
        self.compute.is_empty()
            && self.save.is_empty()
            && self.delete.is_empty()
            && self.load.is_empty()
    }

    /// Total compute cost of the compute phase: `Σ ω(v)` over its compute steps.
    pub fn compute_cost<D: DagLike + ?Sized>(&self, dag: &D) -> f64 {
        self.compute
            .iter()
            .filter_map(|s| match s {
                ComputePhaseStep::Compute(v) => Some(dag.compute_weight(*v)),
                ComputePhaseStep::Delete(_) => None,
            })
            .sum()
    }

    /// Total cost of the save phase: `g · Σ μ(v)`.
    pub fn save_cost<D: DagLike + ?Sized>(&self, dag: &D, g: f64) -> f64 {
        g * self.save.iter().map(|&v| dag.memory_weight(v)).sum::<f64>()
    }

    /// Total cost of the load phase: `g · Σ μ(v)`.
    pub fn load_cost<D: DagLike + ?Sized>(&self, dag: &D, g: f64) -> f64 {
        g * self.load.iter().map(|&v| dag.memory_weight(v)).sum::<f64>()
    }

    /// Number of compute steps (not counting deletes).
    pub fn num_computes(&self) -> usize {
        self.compute.iter().filter(|s| s.is_compute()).count()
    }
}

/// One superstep of an [`MbspSchedule`], borrowed.
#[derive(Debug, Clone, Copy)]
pub struct SuperstepView<'a> {
    schedule: &'a MbspSchedule,
    index: usize,
}

impl<'a> SuperstepView<'a> {
    /// The phases of processor `p`.
    pub fn proc(self, p: ProcId) -> PhasesView<'a> {
        let procs = self.schedule.processors;
        assert!(
            p.index() < procs,
            "{p} is out of range for {procs} processors"
        );
        self.schedule.phases(self.index * procs + p.index())
    }

    /// The phases of every processor, in processor order.
    pub fn procs(self) -> impl ExactSizeIterator<Item = PhasesView<'a>> {
        self.slots().map(move |slot| self.schedule.phases(slot))
    }

    /// The compute phase of every processor, in processor order — what a pass
    /// over one phase of every processor reads, without the other three.
    pub fn computes(self) -> impl ExactSizeIterator<Item = &'a [ComputePhaseStep]> {
        let schedule = self.schedule;
        self.slots()
            .map(move |slot| list(&schedule.compute, &schedule.compute_off, slot))
    }

    /// The load phase of every processor, in processor order.
    pub fn loads(self) -> impl ExactSizeIterator<Item = &'a [NodeId]> {
        let schedule = self.schedule;
        self.slots()
            .map(move |slot| list(&schedule.io, &schedule.io_off, IO_PHASES * slot + LOAD))
    }

    /// The slots of this superstep.
    fn slots(self) -> std::ops::Range<usize> {
        let first = self.index * self.schedule.processors;
        first..first + self.schedule.processors
    }
}

/// Range `at` of `data` under the offsets `off`.
#[inline]
fn list<'a, T>(data: &'a [T], off: &[u32], at: usize) -> &'a [T] {
    &data[off[at] as usize..off[at + 1] as usize]
}

/// Feeds the operations of `steps` to `f` as one superstep, in model order:
/// the compute phase of every processor, then every save, delete and load
/// phase; within a phase, the processor's list from each step of `steps` in
/// turn. Stops at the first error `f` returns. The lists are read straight
/// from the offsets: at tight caches most supersteps hold one or two
/// operations, so the cost of reaching a list is most of the walk.
#[inline]
pub(crate) fn for_each_operation<E>(
    steps: &[SuperstepView<'_>],
    mut f: impl FnMut(Operation) -> Result<(), E>,
) -> Result<(), E> {
    let Some(first) = steps.first() else {
        return Ok(());
    };
    let procs = first.schedule.processors;
    for p in 0..procs {
        let proc = ProcId::new(p);
        for step in steps {
            let schedule = step.schedule;
            let slot = step.index * procs + p;
            for &c in list(&schedule.compute, &schedule.compute_off, slot) {
                f(c.to_operation(proc))?;
            }
        }
    }
    for k in [SAVE, DELETE, LOAD] {
        for p in 0..procs {
            let proc = ProcId::new(p);
            for step in steps {
                let schedule = step.schedule;
                let at = IO_PHASES * (step.index * procs + p) + k;
                for &node in list(&schedule.io, &schedule.io_off, at) {
                    f(match k {
                        SAVE => Operation::Save { proc, node },
                        DELETE => Operation::Delete { proc, node },
                        _ => Operation::Load { proc, node },
                    })?;
                }
            }
        }
    }
    Ok(())
}

/// Index of the save, delete and load range of a slot within its three entries
/// of the I/O offsets.
const SAVE: usize = 0;
const DELETE: usize = 1;
const LOAD: usize = 2;
/// I/O ranges per slot: save, delete, load.
const IO_PHASES: usize = 3;

/// A full MBSP schedule: a sequence of supersteps over a fixed number of processors,
/// stored flat (see the module docs).
#[derive(Debug, PartialEq, Eq)]
pub struct MbspSchedule {
    /// At least one.
    processors: usize,
    /// The compute phases of every slot, slot after slot.
    compute: Vec<ComputePhaseStep>,
    /// `S·P + 1` offsets: slot `s·P + p` owns `compute_off[slot]..compute_off[slot + 1]`.
    compute_off: Vec<u32>,
    /// The save, delete and load phases of every slot, slot after slot.
    io: Vec<NodeId>,
    /// `3·S·P + 1` offsets: phase `k` ([`SAVE`], [`DELETE`], [`LOAD`]) of slot
    /// `slot` owns `io_off[3·slot + k]..io_off[3·slot + k + 1]`.
    io_off: Vec<u32>,
}

impl Clone for MbspSchedule {
    fn clone(&self) -> Self {
        MbspSchedule {
            processors: self.processors,
            compute: self.compute.clone(),
            compute_off: self.compute_off.clone(),
            io: self.io.clone(),
            io_off: self.io_off.clone(),
        }
    }

    /// Copies `source` into the allocations of `self`.
    fn clone_from(&mut self, source: &Self) {
        self.copy_prefix_from(source, source.num_supersteps());
    }
}

/// An array length as a `u32` offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a schedule's operations fit u32 offsets")
}

/// Folds the ranges of a superstep into the ranges of the next one: `off` holds
/// the `2·ranges + 1` offsets of the two, and afterwards range `r` of the second
/// holds range `r` of the first followed by its own, while every range of the
/// first is empty. Only the block of the two supersteps moves: the second's
/// operations are copied past the end of `data` as scratch, then the pairs are
/// written back from the last, so each of the first's ranges only moves right and
/// nothing is overwritten before it is read.
fn fold_ranges<T: Copy>(data: &mut Vec<T>, off: &mut [u32], ranges: usize) {
    let (start, mid, end) = (
        off[0] as usize,
        off[ranges] as usize,
        off[2 * ranges] as usize,
    );
    let tail = data.len();
    data.extend_from_within(mid..end);
    let (mut write, mut b_end) = (end, end);
    for r in (0..ranges).rev() {
        let b_start = off[ranges + r] as usize;
        let (a_start, a_end) = (off[r] as usize, off[r + 1] as usize);
        write -= b_end - b_start;
        data.copy_within(tail + b_start - mid..tail + b_end - mid, write);
        write -= a_end - a_start;
        data.copy_within(a_start..a_end, write);
        off[ranges + r] = offset(write);
        b_end = b_start;
    }
    debug_assert_eq!(write, start);
    data.truncate(tail);
    off[1..ranges].fill(offset(start));
}

impl MbspSchedule {
    /// Creates an empty schedule for `processors` processors.
    pub fn new(processors: usize) -> Self {
        assert!(processors >= 1);
        MbspSchedule {
            processors,
            compute: Vec::new(),
            compute_off: vec![0],
            io: Vec::new(),
            io_off: vec![0],
        }
    }

    /// Builds a schedule from owned supersteps. Every superstep must hold exactly
    /// one [`ProcPhases`] per processor, and there must be at least one processor.
    pub fn from_supersteps(
        processors: usize,
        supersteps: &[Superstep],
    ) -> Result<Self, ScheduleError> {
        if processors == 0 {
            return Err(ScheduleError::NoProcessors);
        }
        let mut schedule = MbspSchedule::new(processors);
        for (s, step) in supersteps.iter().enumerate() {
            if step.procs.len() != processors {
                return Err(ScheduleError::ProcessorCountMismatch {
                    superstep: s,
                    found: step.procs.len(),
                    expected: processors,
                });
            }
            schedule.push_superstep(step);
        }
        Ok(schedule)
    }

    /// Number of processors the schedule targets.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Number of supersteps.
    pub fn num_supersteps(&self) -> usize {
        (self.compute_off.len() - 1) / self.processors
    }

    /// Superstep `s`.
    pub fn superstep(&self, s: usize) -> SuperstepView<'_> {
        assert!(s < self.num_supersteps(), "superstep {s} is out of range");
        SuperstepView {
            schedule: self,
            index: s,
        }
    }

    /// The supersteps of the schedule, in order.
    pub fn supersteps(&self) -> impl ExactSizeIterator<Item = SuperstepView<'_>> {
        (0..self.num_supersteps()).map(move |index| SuperstepView {
            schedule: self,
            index,
        })
    }

    /// The phases of one slot.
    fn phases(&self, slot: usize) -> PhasesView<'_> {
        // The slot's three I/O ranges are adjacent: one slice, split twice.
        let off = &self.io_off[IO_PHASES * slot..=IO_PHASES * slot + IO_PHASES];
        let io = &self.io[off[SAVE] as usize..off[IO_PHASES] as usize];
        let (save, rest) = io.split_at((off[DELETE] - off[SAVE]) as usize);
        let (delete, load) = rest.split_at((off[LOAD] - off[DELETE]) as usize);
        PhasesView {
            compute: list(&self.compute, &self.compute_off, slot),
            save,
            delete,
            load,
        }
    }

    /// The operation ranges of superstep `s`: `(compute, io)`.
    fn step_ranges(&self, s: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let (first, last) = (s * self.processors, (s + 1) * self.processors);
        (
            self.compute_off[first] as usize..self.compute_off[last] as usize,
            self.io_off[IO_PHASES * first] as usize..self.io_off[IO_PHASES * last] as usize,
        )
    }

    /// Appends a superstep (its `procs` length must equal the processor count).
    pub fn push_superstep(&mut self, superstep: &Superstep) {
        assert_eq!(superstep.procs.len(), self.processors);
        for phases in &superstep.procs {
            self.compute.extend_from_slice(&phases.compute);
            self.compute_off.push(offset(self.compute.len()));
            for list in [&phases.save, &phases.delete, &phases.load] {
                self.io.extend_from_slice(list);
                self.io_off.push(offset(self.io.len()));
            }
        }
    }

    /// Keeps the first `supersteps` supersteps and drops the rest (no-op if there
    /// are not more).
    pub fn truncate(&mut self, supersteps: usize) {
        if supersteps >= self.num_supersteps() {
            return;
        }
        let slots = supersteps * self.processors;
        self.compute_off.truncate(slots + 1);
        self.compute.truncate(self.compute_off[slots] as usize);
        self.io_off.truncate(IO_PHASES * slots + 1);
        self.io.truncate(self.io_off[IO_PHASES * slots] as usize);
    }

    /// Makes `self` the first `supersteps` supersteps of `src` (processor count
    /// included), reusing `self`'s allocations: four prefix copies.
    pub fn copy_prefix_from(&mut self, src: &MbspSchedule, supersteps: usize) {
        let slots = supersteps * src.processors;
        self.processors = src.processors;
        self.compute_off.clear();
        self.compute_off
            .extend_from_slice(&src.compute_off[..=slots]);
        self.compute.clear();
        self.compute
            .extend_from_slice(&src.compute[..src.compute_off[slots] as usize]);
        self.io_off.clear();
        self.io_off
            .extend_from_slice(&src.io_off[..=IO_PHASES * slots]);
        self.io.clear();
        self.io
            .extend_from_slice(&src.io[..src.io_off[IO_PHASES * slots] as usize]);
    }

    /// Removes supersteps in which no processor performs any operation.
    pub fn remove_empty_supersteps(&mut self) {
        self.compact(|_, empty| !empty);
    }

    /// Keeps exactly the supersteps `s` for which `keep(s)` holds (called once per
    /// superstep, in order).
    pub fn retain_supersteps(&mut self, mut keep: impl FnMut(usize) -> bool) {
        self.compact(|s, _| keep(s));
    }

    /// One compaction pass: keeps the supersteps `s` for which `keep(s, empty)`
    /// holds, moving each kept one down over the dropped ones. Nothing moves
    /// before the first dropped superstep, and a dropped empty one moves no
    /// operation, only offsets.
    fn compact(&mut self, mut keep: impl FnMut(usize, bool) -> bool) {
        let p = self.processors;
        let (mut kept, mut compute_at, mut io_at) = (0usize, 0usize, 0usize);
        for s in 0..self.num_supersteps() {
            // Writes so far went below slot `s·P` (and `3·s·P`), so step `s`'s
            // offsets are still the original ones.
            let (compute, io) = self.step_ranges(s);
            if !keep(s, compute.is_empty() && io.is_empty()) {
                continue;
            }
            if kept < s {
                for slot in 0..p {
                    let from = self.compute_off[s * p + slot] as usize;
                    self.compute_off[kept * p + slot] = offset(from - compute.start + compute_at);
                }
                for at in 0..IO_PHASES * p {
                    let from = self.io_off[IO_PHASES * s * p + at] as usize;
                    self.io_off[IO_PHASES * kept * p + at] = offset(from - io.start + io_at);
                }
                if compute_at < compute.start {
                    self.compute.copy_within(compute.clone(), compute_at);
                }
                if io_at < io.start {
                    self.io.copy_within(io.clone(), io_at);
                }
            }
            kept += 1;
            compute_at += compute.len();
            io_at += io.len();
        }
        self.compute_off.truncate(kept * p + 1);
        self.compute_off[kept * p] = offset(compute_at);
        self.compute.truncate(compute_at);
        self.io_off.truncate(IO_PHASES * kept * p + 1);
        self.io_off[IO_PHASES * kept * p] = offset(io_at);
        self.io.truncate(io_at);
    }

    /// Drops every save `v` of superstep `s` for which `keep(s, v)` is false, in
    /// one compaction pass over the I/O operations (called once per save, in
    /// schedule order).
    pub fn retain_saves(&mut self, mut keep: impl FnMut(usize, NodeId) -> bool) {
        // `at` is the write position and `start` the read position, the
        // original start of range `r`: they part at the first dropped save,
        // and only from there on do operations move and offsets change.
        let (mut at, mut start, mut r) = (0usize, 0usize, 0usize);
        for s in 0..self.num_supersteps() {
            for _ in 0..self.processors {
                for k in 0..IO_PHASES {
                    let end = self.io_off[r + 1] as usize;
                    if k == SAVE {
                        for i in start..end {
                            let v = self.io[i];
                            if keep(s, v) {
                                self.io[at] = v;
                                at += 1;
                            }
                        }
                    } else {
                        if at < start {
                            self.io.copy_within(start..end, at);
                        }
                        at += end - start;
                    }
                    if at < end {
                        self.io_off[r + 1] = offset(at);
                    }
                    start = end;
                    r += 1;
                }
            }
        }
        self.io.truncate(at);
    }

    /// Folds superstep `k` into superstep `k + 1`: every phase list of `k + 1`
    /// becomes `k`'s list followed by its own, and `k` is left empty. Moves only
    /// the operations of the two supersteps.
    pub fn fold_into_next(&mut self, k: usize) {
        assert!(k + 1 < self.num_supersteps(), "no superstep after {k}");
        let p = self.processors;
        fold_ranges(
            &mut self.compute,
            &mut self.compute_off[k * p..=(k + 2) * p],
            p,
        );
        fold_ranges(
            &mut self.io,
            &mut self.io_off[IO_PHASES * k * p..=IO_PHASES * (k + 2) * p],
            IO_PHASES * p,
        );
    }

    /// Iterates over every operation of the schedule in model order: superstep by
    /// superstep; within a superstep the compute phases of all processors, then the
    /// save phases, the delete phases and finally the load phases. Yields
    /// `(superstep index, operation)`.
    pub fn operations(&self) -> Vec<(usize, Operation)> {
        let mut out = Vec::new();
        for (s, step) in self.supersteps().enumerate() {
            for_each_operation(&[step], |op| {
                out.push((s, op));
                Ok(())
            })
            .unwrap_or_else(|never: Infallible| match never {});
        }
        out
    }

    /// Validates the schedule against the DAG and architecture: from empty
    /// caches and the sources in slow memory, every superstep goes through
    /// [`Configuration::apply_superstep`], and at the end every sink must be in
    /// slow memory. [`crate::reference::validate`] is its independent
    /// referee.
    pub fn validate<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        arch: &Architecture,
    ) -> Result<(), ScheduleError> {
        if self.processors != arch.processors && self.num_supersteps() > 0 {
            return Err(ScheduleError::ProcessorCountMismatch {
                superstep: 0,
                found: self.processors,
                expected: arch.processors,
            });
        }
        let mut cfg = Configuration::initial(dag, arch);
        for step in self.supersteps() {
            cfg.apply_superstep(dag, arch, &[step])?;
        }
        match dag.sink_nodes().find(|&v| !cfg.has_blue(v)) {
            Some(node) => Err(ScheduleError::MissingSink { node }),
            None => Ok(()),
        }
    }

    /// Computes summary statistics of the schedule (operation counts, recomputation
    /// count, total compute and I/O volume).
    pub fn statistics<D: DagLike + ?Sized>(
        &self,
        dag: &D,
        arch: &Architecture,
    ) -> ScheduleStatistics {
        let mut computes = 0usize;
        let mut loads = 0usize;
        let mut saves = 0usize;
        let mut deletes = 0usize;
        let mut compute_volume = 0.0;
        let mut io_volume = 0.0;
        let mut computed_count = vec![0usize; dag.num_nodes()];
        for (_, op) in self.operations() {
            match op {
                Operation::Compute { node, .. } => {
                    computes += 1;
                    compute_volume += dag.compute_weight(node);
                    computed_count[node.index()] += 1;
                }
                Operation::Load { node, .. } => {
                    loads += 1;
                    io_volume += dag.memory_weight(node) * arch.g;
                }
                Operation::Save { node, .. } => {
                    saves += 1;
                    io_volume += dag.memory_weight(node) * arch.g;
                }
                Operation::Delete { .. } => deletes += 1,
            }
        }
        let recomputed_nodes = computed_count.iter().filter(|&&c| c > 1).count();
        ScheduleStatistics {
            supersteps: self.num_supersteps(),
            computes,
            loads,
            saves,
            deletes,
            recomputed_nodes,
            compute_volume,
            io_volume,
        }
    }
}

/// The JSON form is the nested owned shape,
/// `{"processors":P,"supersteps":[{"procs":[{"compute":[…],"save":[…],"delete":[…],"load":[…]}]}]}`,
/// written straight from the views.
impl Serialize for MbspSchedule {
    fn to_value(&self) -> Value {
        let phases = |ph: PhasesView<'_>| {
            Value::Map(vec![
                ("compute".to_string(), ph.compute.to_value()),
                ("save".to_string(), ph.save.to_value()),
                ("delete".to_string(), ph.delete.to_value()),
                ("load".to_string(), ph.load.to_value()),
            ])
        };
        let supersteps = self
            .supersteps()
            .map(|step| {
                let procs = step.procs().map(phases).collect();
                Value::Map(vec![("procs".to_string(), Value::Seq(procs))])
            })
            .collect();
        Value::Map(vec![
            ("processors".to_string(), self.processors.to_value()),
            ("supersteps".to_string(), Value::Seq(supersteps)),
        ])
    }
}

/// Accepts exactly the JSON form [`Serialize`] writes; a ragged superstep or a
/// zero processor count is the [`ScheduleError`] of
/// [`MbspSchedule::from_supersteps`], as a message.
impl Deserialize for MbspSchedule {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        const NAME: &str = "MbspSchedule";
        let Value::Map(m) = v else {
            return Err(serde::Error::expected("map", NAME));
        };
        let field =
            |f: &str| serde::map_get(m, f).ok_or_else(|| serde::Error::missing_field(f, NAME));
        let processors = usize::from_value(field("processors")?)?;
        let supersteps = Vec::<Superstep>::from_value(field("supersteps")?)?;
        MbspSchedule::from_supersteps(processors, &supersteps)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// Operation counts and volumes of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStatistics {
    /// Number of supersteps.
    pub supersteps: usize,
    /// Number of compute operations (recomputations included).
    pub computes: usize,
    /// Number of load operations.
    pub loads: usize,
    /// Number of save operations.
    pub saves: usize,
    /// Number of delete operations.
    pub deletes: usize,
    /// Number of distinct nodes that are computed more than once.
    pub recomputed_nodes: usize,
    /// Total compute cost `Σ ω` over all compute operations.
    pub compute_volume: f64,
    /// Total I/O cost `g·Σ μ` over all load and save operations.
    pub io_volume: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::graph::NodeWeights;
    use mbsp_dag::CompDag;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn path3() -> CompDag {
        CompDag::from_edges("p", vec![NodeWeights::unit(); 3], &[(0, 1), (1, 2)]).unwrap()
    }

    fn arch(p: usize, cache: f64) -> Architecture {
        Architecture::new(p, cache, 1.0, 0.0)
    }

    fn compute(v: usize) -> ComputePhaseStep {
        ComputePhaseStep::Compute(NodeId::new(v))
    }

    fn node(v: usize) -> NodeId {
        NodeId::new(v)
    }

    /// A single-processor schedule computing the 3-node path in one superstep.
    fn valid_path_steps() -> Vec<Superstep> {
        let mut steps = vec![Superstep::empty(1); 2];
        steps[0].procs[0].load.push(node(0));
        steps[1].procs[0].compute.extend([compute(1), compute(2)]);
        steps[1].procs[0].save.push(node(2));
        steps
    }

    fn valid_path_schedule() -> MbspSchedule {
        MbspSchedule::from_supersteps(1, &valid_path_steps()).unwrap()
    }

    /// The owned shape of a schedule, read back through its views.
    fn owned(schedule: &MbspSchedule) -> Vec<Superstep> {
        schedule
            .supersteps()
            .map(|step| Superstep {
                procs: step
                    .procs()
                    .map(|ph| ProcPhases {
                        compute: ph.compute.to_vec(),
                        save: ph.save.to_vec(),
                        delete: ph.delete.to_vec(),
                        load: ph.load.to_vec(),
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn valid_schedule_passes_validation() {
        let dag = path3();
        let a = arch(1, 3.0);
        let sched = valid_path_schedule();
        sched.validate(&dag, &a).unwrap();
        let stats = sched.statistics(&dag, &a);
        assert_eq!(stats.computes, 2);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.saves, 1);
        assert_eq!(stats.recomputed_nodes, 0);
        assert_eq!(stats.supersteps, 2);
        assert_eq!(stats.compute_volume, 2.0);
        assert_eq!(stats.io_volume, 2.0);
    }

    #[test]
    fn missing_sink_is_reported() {
        let dag = path3();
        let a = arch(1, 3.0);
        let mut steps = valid_path_steps();
        // Drop the final save: sink never reaches slow memory.
        steps[1].procs[0].save.clear();
        let sched = MbspSchedule::from_supersteps(1, &steps).unwrap();
        assert!(matches!(
            sched.validate(&dag, &a),
            Err(ScheduleError::MissingSink { .. })
        ));
    }

    #[test]
    fn memory_bound_violation_is_reported() {
        let dag = path3();
        let a = arch(1, 2.0);
        let sched = valid_path_schedule();
        // Cache of 2 cannot hold nodes 0, 1 and 2 simultaneously.
        assert!(matches!(
            sched.validate(&dag, &a),
            Err(ScheduleError::MemoryBoundExceeded { .. })
        ));
    }

    #[test]
    fn saves_are_visible_to_loads_in_the_same_superstep() {
        // Processor 0 computes node 1 and saves it; processor 1 loads it in the same
        // superstep and computes node 2 in the next superstep.
        let dag = path3();
        let a = arch(2, 3.0);
        let mut steps = vec![Superstep::empty(2); 3];
        steps[0].procs[0].load.push(node(0));
        steps[1].procs[0].compute.push(compute(1));
        steps[1].procs[0].save.push(node(1));
        steps[1].procs[1].load.push(node(1));
        steps[2].procs[1].compute.push(compute(2));
        steps[2].procs[1].save.push(node(2));
        let sched = MbspSchedule::from_supersteps(2, &steps).unwrap();
        sched.validate(&dag, &a).unwrap();
    }

    #[test]
    fn loads_cannot_see_future_saves() {
        // Processor 1 loads node 1 one superstep *before* processor 0 saves it.
        let dag = path3();
        let a = arch(2, 3.0);
        let mut steps = vec![Superstep::empty(2); 2];
        steps[0].procs[0].load.push(node(0));
        steps[0].procs[1].load.push(node(1));
        steps[1].procs[0].compute.push(compute(1));
        steps[1].procs[0].save.push(node(1));
        let sched = MbspSchedule::from_supersteps(2, &steps).unwrap();
        assert!(matches!(
            sched.validate(&dag, &a),
            Err(ScheduleError::LoadWithoutBlue { .. })
        ));
    }

    #[test]
    fn processor_count_mismatch_detected() {
        let dag = path3();
        let a = arch(2, 3.0);
        let sched = valid_path_schedule(); // built for 1 processor
        assert!(matches!(
            sched.validate(&dag, &a),
            Err(ScheduleError::ProcessorCountMismatch { .. })
        ));
    }

    #[test]
    fn ragged_and_processorless_json_does_not_deserialise() {
        // The JSON form of supersteps of the given widths under a processor count.
        let json = |processors: usize, widths: &[usize]| {
            let supersteps: Vec<Superstep> = widths.iter().map(|&w| Superstep::empty(w)).collect();
            Value::Map(vec![
                ("processors".to_string(), processors.to_value()),
                ("supersteps".to_string(), supersteps.to_value()),
            ])
        };
        assert!(MbspSchedule::from_value(&json(4, &[4, 4])).is_ok());
        let ragged = MbspSchedule::from_value(&json(4, &[4, 3, 4]));
        let message = ragged.expect_err("a superstep of three procs under four processors");
        assert!(message.to_string().contains("superstep 1"), "{message}");
        assert!(MbspSchedule::from_value(&json(0, &[])).is_err());
        assert!(MbspSchedule::from_value(&json(0, &[0])).is_err());
    }

    #[test]
    fn from_supersteps_names_the_ragged_superstep() {
        let steps = [Superstep::empty(4), Superstep::empty(3)];
        assert_eq!(
            MbspSchedule::from_supersteps(4, &steps),
            Err(ScheduleError::ProcessorCountMismatch {
                superstep: 1,
                found: 3,
                expected: 4
            })
        );
        assert_eq!(
            MbspSchedule::from_supersteps(0, &[]),
            Err(ScheduleError::NoProcessors)
        );
    }

    #[test]
    fn node_out_of_range_detected() {
        let dag = path3();
        let a = arch(1, 3.0);
        let mut step = Superstep::empty(1);
        step.procs[0].load.push(node(17));
        let sched = MbspSchedule::from_supersteps(1, &[step]).unwrap();
        assert!(matches!(
            sched.validate(&dag, &a),
            Err(ScheduleError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn remove_empty_supersteps() {
        let mut sched = valid_path_schedule();
        sched.push_superstep(&Superstep::empty(1));
        sched.push_superstep(&Superstep::empty(1));
        assert_eq!(sched.num_supersteps(), 4);
        sched.remove_empty_supersteps();
        assert_eq!(sched.num_supersteps(), 2);
        assert_eq!(sched, valid_path_schedule());
    }

    #[test]
    fn statistics_count_recomputation() {
        let dag = path3();
        let a = arch(1, 3.0);
        let mut steps = vec![Superstep::empty(1); 2];
        steps[0].procs[0].load.push(node(0));
        steps[1].procs[0].compute.extend([
            compute(1),
            ComputePhaseStep::Delete(node(1)),
            compute(1),
            compute(2),
        ]);
        steps[1].procs[0].save.push(node(2));
        let sched = MbspSchedule::from_supersteps(1, &steps).unwrap();
        sched.validate(&dag, &a).unwrap();
        let stats = sched.statistics(&dag, &a);
        assert_eq!(stats.computes, 3);
        assert_eq!(stats.deletes, 1);
        assert_eq!(stats.recomputed_nodes, 1);
    }

    #[test]
    fn operations_iteration_order() {
        let sched = valid_path_schedule();
        let ops = sched.operations();
        assert_eq!(ops.len(), 4);
        assert_eq!(ops[0].0, 0);
        assert!(matches!(ops[0].1, Operation::Load { .. }));
        assert!(matches!(ops[1].1, Operation::Compute { .. }));
        assert!(matches!(ops[3].1, Operation::Save { .. }));
    }

    /// Random owned supersteps: short phase lists, often empty, and some empty
    /// supersteps.
    fn random_steps(rng: &mut StdRng, p: usize, count: usize) -> Vec<Superstep> {
        let list = |rng: &mut StdRng| -> Vec<NodeId> {
            let len = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(1..4)
            };
            (0..len).map(|_| node(rng.gen_range(0..50))).collect()
        };
        (0..count)
            .map(|_| {
                let mut step = Superstep::empty(p);
                if rng.gen_bool(0.7) {
                    for ph in &mut step.procs {
                        ph.compute = list(rng)
                            .into_iter()
                            .map(|v| {
                                if v.index() % 3 == 0 {
                                    ComputePhaseStep::Delete(v)
                                } else {
                                    ComputePhaseStep::Compute(v)
                                }
                            })
                            .collect();
                        ph.save = list(rng);
                        ph.delete = list(rng);
                        ph.load = list(rng);
                    }
                }
                step
            })
            .collect()
    }

    #[test]
    fn flat_edits_match_the_same_edits_on_the_owned_shape() {
        // Every mutator of the flat layout against the obvious edit of a
        // `Vec<Superstep>`: the views must read back the edited owned shape, and
        // the flat arrays must be canonical (equal to a fresh build of it).
        let mut rng = StdRng::seed_from_u64(0x5CED);
        for round in 0..200 {
            let p = rng.gen_range(1..5);
            let count = rng.gen_range(0..12);
            let mut steps = random_steps(&mut rng, p, count);
            let mut flat = MbspSchedule::from_supersteps(p, &steps).unwrap();
            for _ in 0..6 {
                match rng.gen_range(0..6) {
                    0 if steps.len() >= 2 => {
                        let k = rng.gen_range(0..steps.len() - 1);
                        let first = std::mem::replace(&mut steps[k], Superstep::empty(p));
                        for (later, mut earlier) in steps[k + 1].procs.iter_mut().zip(first.procs) {
                            earlier.compute.append(&mut later.compute);
                            earlier.save.append(&mut later.save);
                            earlier.delete.append(&mut later.delete);
                            earlier.load.append(&mut later.load);
                            *later = earlier;
                        }
                        flat.fold_into_next(k);
                    }
                    1 => {
                        steps.retain(|s| s.procs.iter().any(|ph| *ph != ProcPhases::default()));
                        flat.remove_empty_supersteps();
                    }
                    2 => {
                        let drop = rng.gen_range(0..4);
                        let mut s = 0;
                        steps.retain(|_| {
                            s += 1;
                            s % 4 != drop
                        });
                        flat.retain_supersteps(|s| (s + 1) % 4 != drop);
                    }
                    3 => {
                        let cut = rng.gen_range(0..50);
                        for (s, step) in steps.iter_mut().enumerate() {
                            for ph in &mut step.procs {
                                ph.save.retain(|v| (v.index() + s) % 50 < cut);
                            }
                        }
                        flat.retain_saves(|s, v| (v.index() + s) % 50 < cut);
                    }
                    4 => {
                        let keep = rng.gen_range(0..=steps.len() + 1);
                        steps.truncate(keep);
                        flat.truncate(keep);
                    }
                    _ => {
                        let extra = random_steps(&mut rng, p, 2);
                        for step in &extra {
                            flat.push_superstep(step);
                        }
                        steps.extend(extra);
                    }
                }
                assert_eq!(owned(&flat), steps, "round {round}");
                assert_eq!(
                    flat,
                    MbspSchedule::from_supersteps(p, &steps).unwrap(),
                    "round {round}: offsets are not canonical"
                );
            }
            let cut = rng.gen_range(0..=steps.len());
            let mut prefix = MbspSchedule::new(1);
            prefix.copy_prefix_from(&flat, cut);
            assert_eq!(
                prefix,
                MbspSchedule::from_supersteps(p, &steps[..cut]).unwrap()
            );
            prefix.clone_from(&flat);
            assert_eq!(prefix, flat);
            let json = flat.to_value();
            assert_eq!(json, owned_value(p, &steps), "round {round}");
            assert_eq!(MbspSchedule::from_value(&json).unwrap(), flat);
        }
    }

    /// The value the derived serialisation of the owned shape produces.
    fn owned_value(processors: usize, steps: &[Superstep]) -> Value {
        Value::Map(vec![
            ("processors".to_string(), processors.to_value()),
            ("supersteps".to_string(), steps.to_value()),
        ])
    }
}
