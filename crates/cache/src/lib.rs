//! # mbsp-cache — cache-management policies and the two-stage baseline
//!
//! The second stage of the paper's two-stage approach takes a memory-oblivious BSP
//! schedule and turns it into a valid MBSP schedule by inserting the save, delete and
//! load operations required by the per-processor memory bound `r`:
//!
//! * [`ClairvoyantPolicy`] — Bélády's optimal offline eviction rule, adapted to
//!   weighted values: when space is needed, evict the cached value whose next use on
//!   this processor lies furthest in the future (values never used again first).
//! * [`LruPolicy`] — the classical least-recently-used rule (the "practical"
//!   baseline, paired with the Cilk scheduler).
//! * [`TwoStageScheduler`] — the BSP→MBSP conversion itself, under either
//!   policy: each BSP compute phase is split into maximally long segments of
//!   compute steps that can run without new I/O; between segments, values that are still needed (locally or by another
//!   processor) are saved, victims chosen by the eviction policy are deleted, and
//!   the inputs of the next segment are loaded, always with greedy prefetching of
//!   further inputs while cache space remains (the paper's baseline has one
//!   configuration, so the converter has none).
//! * [`ConversionArena`] — the clairvoyant conversion split into a long-lived
//!   arena (topological order, the flat use index, the stamped blue set and the
//!   per-processor buffers — built once per instance) plus a cheap per-candidate
//!   restore. The holistic search of `mbsp-ilp`
//!   converts thousands of neighbouring assignments through one arena without
//!   re-allocating, and — once [`ConversionArena::rebase`] has recorded the
//!   incumbent's conversion — re-simulates only the supersteps a candidate's
//!   move can change. [`two_stage::reference`] keeps the original single-shot
//!   converter: the ground truth the arena is tested against (the same
//!   pattern as `lp_solver`'s `dense::` module), and the converter
//!   [`TwoStageScheduler`] runs for LRU.

pub mod policy;
pub mod two_stage;

pub use policy::{CandidateVictim, ClairvoyantPolicy, EvictionPolicy, LruPolicy};
pub use two_stage::{ConversionArena, TwoStageScheduler};
