//! # mbsp-model — the MBSP scheduling model
//!
//! This crate implements the scheduling model of *"Multiprocessor Scheduling with
//! Memory Constraints"* (ICPP 2025): a computational DAG executed on `P` processors,
//! each with a private fast memory (cache) of capacity `r`, sharing a slow memory of
//! unlimited capacity, with BSP communication parameters `g` (cost per unit of data
//! moved between the memory levels) and `L` (synchronisation cost per superstep).
//!
//! The model is expressed in red–blue pebbling terms:
//!
//! * a **red pebble of processor `p`** on node `v` means the value of `v` is in `p`'s cache;
//! * a **blue pebble** on `v` means the value of `v` is in slow memory;
//! * the transition rules are `LOAD`, `SAVE`, `COMPUTE` and `DELETE`
//!   ([`ops::Operation`]);
//! * a schedule is a sequence of **supersteps**, each consisting of a compute phase
//!   followed by save / delete / load sub-phases on every processor
//!   ([`schedule::MbspSchedule`]). It is stored flat — one array of compute-phase
//!   steps, one of save / delete / load nodes and `u32` offsets per (superstep,
//!   processor, phase) — so a schedule of any length is four allocations; readers
//!   borrow [`schedule::SuperstepView`] / [`schedule::PhasesView`] slices, and
//!   [`schedule::Superstep`] / [`schedule::ProcPhases`] are only the owned shape
//!   it is built from and serialised as;
//! * the pebble state itself ([`state::Configuration`]) packs the per-processor
//!   red sets and the blue set into `u64`-word bitsets with incrementally
//!   maintained memory usage; its one checked operation
//!   ([`state::Configuration::apply`]) and one superstep walker
//!   ([`state::Configuration::apply_superstep`]) are what validation and the
//!   post-optimiser's merge checks simulate with, on flat cache-resident
//!   words. The pre-bitset nested-`Vec<bool>` implementation is retained as
//!   [`reference::ReferenceConfiguration`], the differential oracle of the
//!   seeded property tests (the workspace's oracle convention), and
//!   [`reference::validate`] replays a schedule through it as an independent
//!   referee of [`schedule::MbspSchedule::validate`];
//! * the cost of a schedule is measured either **synchronously** (BSP-style,
//!   per-superstep maxima plus `L`) or **asynchronously** (makespan of the induced
//!   per-processor timelines) — see [`cost`].
//!
//! The crate also contains the plain **BSP schedule** representation
//! ([`bsp::BspSchedule`]) used as the first stage of the paper's two-stage baseline,
//! together with its cost model.

pub mod arch;
pub mod bsp;
pub mod cost;
pub mod instance;
pub mod ops;
pub mod reference;
pub mod schedule;
pub mod state;

pub use arch::{Architecture, ProcId};
pub use bsp::{BspCost, BspSchedule};
pub use cost::{async_cost, sync_cost, CostBreakdown, CostModel};
pub use instance::MbspInstance;
pub use ops::{ComputePhaseStep, Operation};
pub use schedule::{
    MbspSchedule, PhasesView, ProcPhases, ScheduleError, ScheduleStatistics, Superstep,
    SuperstepView,
};
pub use state::Configuration;

/// Convenience result alias for schedule validation.
pub type Result<T> = std::result::Result<T, ScheduleError>;
