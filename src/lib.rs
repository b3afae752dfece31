//! # mbsp — multiprocessor scheduling with memory constraints
//!
//! Facade crate of the MBSP scheduling workspace, a reproduction of
//! *"Multiprocessor Scheduling with Memory Constraints: Fundamental Properties and
//! Finding Optimal Solutions"* (ICPP 2025). It re-exports the building blocks a
//! downstream user needs:
//!
//! * [`dag`] — weighted computational DAGs ([`dag::CompDag`], [`dag::DagBuilder`]);
//! * [`model`] — the MBSP model: architectures, pebbling operations, supersteps,
//!   schedule validation and the synchronous/asynchronous cost functions;
//! * [`gen`] — benchmark DAG generators and the paper's gadget constructions;
//! * [`sched`] — memory-oblivious BSP schedulers (greedy BSPg-style, Cilk-style
//!   work stealing, DFS);
//! * [`cache`] — eviction policies and the two-stage BSP→MBSP conversion;
//! * [`solver`] — the LP/MIP solver substrate (sparse revised simplex with
//!   warm-started branch and bound, plus the dense differential oracle);
//! * [`ilp`] — the holistic schedulers: ILP formulation, exact solver,
//!   the divide-and-conquer method, the baseline-seeded sharded holistic
//!   search over zero-copy sub-DAG views
//!   ([`ilp::shard::ShardedHolisticScheduler`]; at one shard it is the
//!   paper's whole-DAG holistic search) and the incremental
//!   re-scheduling engine ([`ilp::dirty_cone::IncrementalScheduler`]) with
//!   binary session checkpoints, cooperative cancellation and typed stop
//!   reasons;
//! * [`io`] — the versioned, checksummed binary codec behind those
//!   checkpoints (DAGs, schedules, orders, sessions; every corruption decodes
//!   to a typed [`io::DecodeError`]);
//! * [`serve`] — the long-lived scheduling daemon: warm engine sessions over
//!   a newline-delimited JSON line protocol ([`serve::Server`]), with
//!   deterministic request batching, streamed anytime incumbents and
//!   checkpoint-backed restarts (spec: `docs/PROTOCOL.md`).
//!
//! A top-down tour of how these crates fit together — including the
//! oracle/differential testing convention and the determinism contract every
//! optimisation is held to — lives in `docs/ARCHITECTURE.md`.
//!
//! ## Quick start
//!
//! ```
//! use mbsp::prelude::*;
//!
//! // A tiny diamond-shaped computation.
//! let mut builder = DagBuilder::new("diamond");
//! let a = builder.add_labeled_node(0.0, 1.0, "input").unwrap();
//! let b = builder.add_node(1.0, 1.0).unwrap();
//! let c = builder.add_node(1.0, 1.0).unwrap();
//! let d = builder.add_node(1.0, 1.0).unwrap();
//! builder.add_edge(a, b).unwrap();
//! builder.add_edge(a, c).unwrap();
//! builder.add_edge(b, d).unwrap();
//! builder.add_edge(c, d).unwrap();
//! let dag = builder.build();
//!
//! // Two processors, cache three times the minimal feasible size, g = 1, L = 2.
//! let instance = MbspInstance::with_cache_factor(dag, Architecture::new(2, 0.0, 1.0, 2.0), 3.0);
//!
//! // Two-stage baseline: greedy BSP schedule + clairvoyant eviction.
//! let bsp = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());
//! let baseline = TwoStageScheduler::new().schedule(
//!     instance.dag(),
//!     instance.arch(),
//!     &bsp,
//!     &ClairvoyantPolicy::new(),
//! );
//! baseline.validate(instance.dag(), instance.arch()).unwrap();
//!
//! // The holistic search seeded with the baseline, on the whole DAG (one shard).
//! let search = ShardedSearchConfig {
//!     num_shards: 1,
//!     ..Default::default()
//! };
//! let holistic = ShardedHolisticScheduler::with_config(search).schedule(&instance, &bsp);
//! let base_cost = sync_cost(&baseline, instance.dag(), instance.arch()).total;
//! let holistic_cost = sync_cost(&holistic, instance.dag(), instance.arch()).total;
//! assert!(holistic_cost <= base_cost);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub use lp_solver as solver;
pub use mbsp_cache as cache;
pub use mbsp_dag as dag;
pub use mbsp_gen as gen;
pub use mbsp_ilp as ilp;
pub use mbsp_io as io;
pub use mbsp_model as model;
pub use mbsp_sched as sched;
pub use mbsp_serve as serve;

/// Commonly used items, re-exported for convenient glob imports.
pub mod prelude {
    pub use crate::cache::{ClairvoyantPolicy, EvictionPolicy, LruPolicy, TwoStageScheduler};
    pub use crate::dag::{CompDag, DagBuilder, DagLike, DagStatistics, NodeId, SubDagView};
    pub use crate::gen::{large_dataset, small_dataset_sample, tiny_dataset};
    pub use crate::ilp::{
        CancelToken, DivideAndConquerScheduler, ExactIlpScheduler, IncrementalScheduler,
        RepairConfig, ShardedHolisticScheduler, ShardedSearchConfig, StopReason,
    };
    pub use crate::model::{
        async_cost, sync_cost, Architecture, BspSchedule, CostModel, MbspInstance, MbspSchedule,
        ProcId,
    };
    pub use crate::sched::{
        BspScheduler, BspSchedulingResult, CilkScheduler, DfsScheduler, GreedyBspScheduler,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let dataset = tiny_dataset(1);
        assert_eq!(dataset.len(), 15);
        let instance = MbspInstance::with_cache_factor(
            dataset[0].dag.clone(),
            Architecture::paper_default(0.0),
            3.0,
        );
        let bsp = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());
        let schedule = TwoStageScheduler::new().schedule(
            instance.dag(),
            instance.arch(),
            &bsp,
            &ClairvoyantPolicy::new(),
        );
        schedule.validate(instance.dag(), instance.arch()).unwrap();
        assert!(sync_cost(&schedule, instance.dag(), instance.arch()).total > 0.0);
    }

    #[test]
    fn facade_surfaces_sessions_and_cancellation() {
        let dataset = tiny_dataset(1);
        let instance = MbspInstance::with_cache_factor(
            dataset[0].dag.clone(),
            Architecture::paper_default(0.0),
            3.0,
        );
        let bsp = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());
        let procs = instance
            .dag()
            .nodes()
            .map(|v| bsp.schedule.proc_of(v))
            .collect();
        let token = CancelToken::new();
        token.cancel();
        let mut sched = IncrementalScheduler::new(
            instance.dag().clone(),
            *instance.arch(),
            procs,
            RepairConfig::default(),
        )
        .with_cancel(&token);
        let (_, stats) = sched.full_repair();
        assert_eq!(stats.stop_reason, StopReason::Cancelled);
        let blob = sched.checkpoint();
        let restored = IncrementalScheduler::restore(&blob).unwrap();
        assert_eq!(restored.checkpoint(), blob);
        assert!(crate::io::decode_dag(&blob).is_err(), "wrong artifact kind");
    }
}
