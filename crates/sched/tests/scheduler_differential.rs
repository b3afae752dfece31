//! Differential tests: the flat-array schedulers against the retained
//! nested-`Vec` reference implementations.
//!
//! The flat-array rewrite must not change a single scheduling decision: for
//! every seeded DAG, architecture and configuration, the optimised greedy,
//! Cilk and DFS schedulers must produce byte-identical results (assignment,
//! supersteps and order hint) to [`mbsp_sched::reference`]. Each baseline and
//! the traversal helpers it builds on are also pinned by value (FNV-1a
//! hashes), which catches a change to a helper the oracles share.

use mbsp_dag::topo::{bottom_levels, dfs_topological_order, TopologicalOrder};
use mbsp_dag::{CompDag, NodeId};
use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_gen::tiny_dataset;
use mbsp_model::Architecture;
use mbsp_sched::{
    assert_order_respects_precedence, reference, BspScheduler, BspSchedulingResult, CilkScheduler,
    DfsScheduler, GreedyBspScheduler,
};

mod common;

fn arch(p: usize, l: f64) -> Architecture {
    Architecture::new(p, 1e9, 1.0, l)
}

#[test]
fn greedy_matches_reference_on_random_dags_and_datasets() {
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
            let fast = GreedyBspScheduler::new().schedule(&dag, &a);
            let oracle = reference::greedy_reference(&dag, &a);
            assert_eq!(fast.schedule, oracle.schedule, "seed {seed} p {p}");
            assert_eq!(fast.order, oracle.order, "seed {seed} p {p}");
            assert_order_respects_precedence(&dag, &fast.order);
            cases += 1;
        }
    }
    for inst in tiny_dataset(42) {
        let a = arch(4, 10.0);
        let fast = GreedyBspScheduler::new().schedule(&inst.dag, &a);
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
    for dag in &common::scale_dags() {
        for (p, l) in common::scale_grid() {
            let a = arch(p, l);
            let fast = GreedyBspScheduler::new().schedule(dag, &a);
            let oracle = reference::greedy_reference(dag, &a);
            assert_eq!(fast.schedule, oracle.schedule, "{} p {p} l {l}", dag.name());
            assert_eq!(fast.order, oracle.order, "{} p {p} l {l}", dag.name());
        }
    }
}

#[test]
fn cilk_matches_reference_for_identical_seeds() {
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
            let fast = sched.schedule(&dag, &a);
            let oracle = reference::cilk_reference(seed ^ 0xC11C, &dag, &a);
            assert_eq!(fast.schedule, oracle.schedule, "seed {seed} p {p}");
            assert_eq!(fast.order, oracle.order, "seed {seed} p {p}");
            assert_order_respects_precedence(&dag, &fast.order);
        }
    }
}

#[test]
fn dfs_matches_reference() {
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
        let fast = DfsScheduler::new().schedule(&dag, &a);
        let oracle = reference::dfs_reference(&dag);
        assert_eq!(fast.schedule, oracle.schedule, "seed {seed}");
        assert_eq!(fast.order, oracle.order, "seed {seed}");
        assert_order_respects_precedence(&dag, &fast.order);
    }
    for inst in tiny_dataset(7) {
        let fast = DfsScheduler::new().schedule(&inst.dag, &a);
        let oracle = reference::dfs_reference(&inst.dag);
        assert_eq!(fast.schedule, oracle.schedule, "{}", inst.name);
        assert_eq!(fast.order, oracle.order, "{}", inst.name);
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a list of node ids, prefixed by its length.
    fn nodes(&mut self, nodes: &[NodeId]) {
        self.u64(nodes.len() as u64);
        for v in nodes {
            self.u64(v.index() as u64);
        }
    }

    /// Folds a scheduler's output: the processor count, every node's
    /// processor and superstep, then the order hint.
    fn result(&mut self, result: &BspSchedulingResult) {
        self.u64(result.schedule.processors() as u64);
        for &(proc, superstep) in result.schedule.assignment() {
            self.u64(proc.index() as u64);
            self.u64(superstep as u64);
        }
        self.nodes(&result.order);
    }
}

/// The seeded corpus of the value pins: 24 layered-random DAGs of varying
/// shape, then the `tiny_dataset(42)` instances.
fn pin_corpus() -> Vec<CompDag> {
    let random = (0..24u64).map(|seed| {
        random_layered_dag(
            &RandomDagConfig {
                layers: 2 + (seed as usize % 6),
                width: 2 + (seed as usize % 9),
                ..Default::default()
            },
            seed,
        )
    });
    random
        .chain(tiny_dataset(42).into_iter().map(|inst| inst.dag))
        .collect()
}

/// FNV-1a over each baseline's output on every [`pin_corpus`] DAG and every
/// (P, L) of [`common::scale_grid`]: greedy, Cilk seeded by the DAG's index,
/// and DFS (once per DAG — it ignores the architecture).
const GREEDY_PIN: u64 = 0x9e88_a8a9_4adc_872b;
const CILK_PIN: u64 = 0x5871_91eb_6552_0300;
const DFS_PIN: u64 = 0x83e4_73b8_d09d_bf5b;

/// FNV-1a over the traversal helpers the baselines build on, on every
/// [`pin_corpus`] DAG: the Kahn order, the bits of the bottom levels and the
/// depth-first order.
const TOPO_ORDER_PIN: u64 = 0xc292_e708_dcc0_aa7a;
const BOTTOM_LEVELS_PIN: u64 = 0xd3b8_9cad_b0e2_0c03;
const DFS_ORDER_PIN: u64 = 0x2305_d2ea_e391_d4ba;

/// The baselines are pinned by value as well as against their oracles: the
/// oracles share `bottom_levels` and the other traversal helpers with the
/// fast paths, so a change to a shared helper moves both sides of the
/// differential tests above together — and fails here.
#[test]
fn the_baselines_reproduce_their_recorded_hashes() {
    let (mut greedy, mut cilk, mut dfs) = (Fnv::new(), Fnv::new(), Fnv::new());
    for (i, dag) in pin_corpus().iter().enumerate() {
        for (p, l) in common::scale_grid() {
            let a = arch(p, l);
            greedy.result(&GreedyBspScheduler::new().schedule(dag, &a));
            cilk.result(&CilkScheduler::with_seed(i as u64 ^ 0xC11C).schedule(dag, &a));
        }
        dfs.result(&DfsScheduler::new().schedule(dag, &arch(1, 0.0)));
    }
    assert_eq!(greedy.0, GREEDY_PIN, "greedy moved: {:#018x}", greedy.0);
    assert_eq!(cilk.0, CILK_PIN, "cilk moved: {:#018x}", cilk.0);
    assert_eq!(dfs.0, DFS_PIN, "dfs moved: {:#018x}", dfs.0);
}

#[test]
fn the_traversal_helpers_reproduce_their_recorded_hashes() {
    let (mut topo, mut bottom, mut dfs) = (Fnv::new(), Fnv::new(), Fnv::new());
    for dag in &pin_corpus() {
        topo.nodes(TopologicalOrder::of(dag).order());
        let levels = bottom_levels(dag);
        bottom.u64(levels.len() as u64);
        for level in levels {
            bottom.u64(level.to_bits());
        }
        dfs.nodes(&dfs_topological_order(dag));
    }
    assert_eq!(topo.0, TOPO_ORDER_PIN, "topo order moved: {:#018x}", topo.0);
    assert_eq!(
        bottom.0, BOTTOM_LEVELS_PIN,
        "bottom levels moved: {:#018x}",
        bottom.0
    );
    assert_eq!(dfs.0, DFS_ORDER_PIN, "dfs order moved: {:#018x}", dfs.0);
}
