//! Differential tests: the scratch-based schedulers against the retained
//! pre-scratch reference implementations.
//!
//! The refactor onto reusable flat scratch buffers must not change a single
//! scheduling decision: for every seeded DAG, architecture and configuration,
//! the optimised greedy, Cilk and DFS schedulers must produce byte-identical
//! results (assignment, supersteps and order hint) to
//! [`mbsp_sched::reference`].

use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_gen::tiny_dataset;
use mbsp_model::Architecture;
use mbsp_sched::{
    assert_order_respects_precedence, reference, BspScheduler, CilkScheduler, DfsScheduler,
    GreedyBspScheduler, SchedulerScratch,
};

mod common;

fn arch(p: usize, l: f64) -> Architecture {
    Architecture::new(p, 1e9, 1.0, l)
}

#[test]
fn greedy_matches_reference_on_random_dags_and_datasets() {
    let mut scratch = SchedulerScratch::new();
    let mut cases = 0usize;
    for seed in 0..24 {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 2 + (seed as usize % 6),
                width: 2 + (seed as usize % 9),
                ..Default::default()
            },
            seed,
        );
        for &(p, l) in &[(1usize, 0.0), (2, 5.0), (4, 10.0)] {
            let a = arch(p, l);
            let fast = GreedyBspScheduler::new().schedule_with_scratch(&dag, &a, &mut scratch);
            let oracle = reference::greedy_reference(&dag, &a);
            assert_eq!(fast.schedule, oracle.schedule, "seed {seed} p {p}");
            assert_eq!(fast.order, oracle.order, "seed {seed} p {p}");
            assert_order_respects_precedence(&dag, &fast.order);
            cases += 1;
        }
    }
    for inst in tiny_dataset(42) {
        let a = arch(4, 10.0);
        let fast = GreedyBspScheduler::new().schedule_with_scratch(&inst.dag, &a, &mut scratch);
        let oracle = reference::greedy_reference(&inst.dag, &a);
        assert_eq!(fast.schedule, oracle.schedule, "{}", inst.name);
        assert_eq!(fast.order, oracle.order, "{}", inst.name);
        cases += 1;
    }
    assert!(cases >= 80);
}

#[test]
fn greedy_matches_reference_at_scale() {
    // Wide ready lists (hundreds of nodes) over thousands of supersteps: the
    // regime where the sorted-merge ready list and the all-at-quantum exit
    // replace most of the reference's work, so any divergence shows here.
    let mut scratch = SchedulerScratch::new();
    for dag in &common::scale_dags() {
        for (p, l) in common::scale_grid() {
            let a = arch(p, l);
            let fast = GreedyBspScheduler::new().schedule_with_scratch(dag, &a, &mut scratch);
            let oracle = reference::greedy_reference(dag, &a);
            assert_eq!(fast.schedule, oracle.schedule, "{} p {p} l {l}", dag.name());
            assert_eq!(fast.order, oracle.order, "{} p {p} l {l}", dag.name());
        }
    }
}

#[test]
fn cilk_matches_reference_for_identical_seeds() {
    let mut scratch = SchedulerScratch::new();
    for seed in 0..20u64 {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 3 + (seed as usize % 4),
                width: 2 + (seed as usize % 7),
                ..Default::default()
            },
            seed,
        );
        for &p in &[1usize, 2, 4] {
            let a = arch(p, 10.0);
            let sched = CilkScheduler::with_seed(seed ^ 0xC11C);
            let fast = sched.schedule_with_scratch(&dag, &a, &mut scratch);
            let oracle = reference::cilk_reference(seed ^ 0xC11C, &dag, &a);
            assert_eq!(fast.schedule, oracle.schedule, "seed {seed} p {p}");
            assert_eq!(fast.order, oracle.order, "seed {seed} p {p}");
            assert_order_respects_precedence(&dag, &fast.order);
        }
    }
}

#[test]
fn dfs_matches_reference() {
    let mut scratch = SchedulerScratch::new();
    let a = Architecture::single_processor(100.0, 1.0);
    for seed in 0..20u64 {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 2 + (seed as usize % 5),
                width: 2 + (seed as usize % 6),
                ..Default::default()
            },
            1000 + seed,
        );
        let fast = DfsScheduler::new().schedule_with_scratch(&dag, &a, &mut scratch);
        let oracle = reference::dfs_reference(&dag);
        assert_eq!(fast.schedule, oracle.schedule, "seed {seed}");
        assert_eq!(fast.order, oracle.order, "seed {seed}");
        assert_order_respects_precedence(&dag, &fast.order);
    }
    for inst in tiny_dataset(7) {
        let fast = DfsScheduler::new().schedule_with_scratch(&inst.dag, &a, &mut scratch);
        let oracle = reference::dfs_reference(&inst.dag);
        assert_eq!(fast.schedule, oracle.schedule, "{}", inst.name);
        assert_eq!(fast.order, oracle.order, "{}", inst.name);
    }
}
