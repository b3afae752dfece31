//! Differential tests: the `DagLike`-generic scheduler paths against the
//! inherent `CompDag` paths and the retained reference implementations.
//!
//! The sharded search seeds each shard from a greedy baseline computed
//! directly on its `SubDagView`, so the generic `schedule_dag` entry points of
//! the greedy, Cilk and DFS schedulers must make exactly the same decisions as
//! the `CompDag` trait path. A full-graph induced view preserves node ids and
//! adjacency order, so every result — assignment, supersteps and order hint —
//! must be byte-identical across all three routes:
//!
//! `schedule_dag(&view)` ≡ `schedule(&dag)` ≡ `reference::*_reference(&dag)`.

use mbsp_dag::{DagLike, NodeId, SubDagView};
use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_gen::tiny_dataset;
use mbsp_model::Architecture;
use mbsp_sched::{
    assert_order_respects_precedence, reference, BspScheduler, CilkScheduler, DfsScheduler,
    GreedyBspScheduler,
};

mod common;

fn arch(p: usize, l: f64) -> Architecture {
    Architecture::new(p, 1e9, 1.0, l)
}

fn full_view(dag: &mbsp_dag::CompDag) -> SubDagView<'_> {
    let all: Vec<NodeId> = dag.nodes().collect();
    let view = SubDagView::induced(dag, &all, format!("{}::full", dag.name()));
    assert_eq!(DagLike::num_nodes(&view), dag.num_nodes());
    view
}

#[test]
fn generic_greedy_on_full_view_matches_comp_dag_path_and_reference() {
    let mut cases = 0usize;
    for seed in 0..12u64 {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 2 + (seed as usize % 5),
                width: 2 + (seed as usize % 7),
                ..Default::default()
            },
            seed,
        );
        let view = full_view(&dag);
        for &(p, l) in &[(1usize, 0.0), (2, 5.0), (4, 10.0)] {
            let a = arch(p, l);
            let scheduler = GreedyBspScheduler::new();
            let via_view = scheduler.schedule_dag(&view, &a);
            let via_dag = scheduler.schedule(&dag, &a);
            let oracle = reference::greedy_reference(&dag, &a);
            assert_eq!(via_view.schedule, via_dag.schedule, "seed {seed} p {p}");
            assert_eq!(via_view.order, via_dag.order, "seed {seed} p {p}");
            assert_eq!(via_view.schedule, oracle.schedule, "seed {seed} p {p}");
            assert_eq!(via_view.order, oracle.order, "seed {seed} p {p}");
            assert_order_respects_precedence(&dag, &via_view.order);
            cases += 1;
        }
    }
    for inst in tiny_dataset(42) {
        let a = arch(4, 10.0);
        let view = full_view(&inst.dag);
        let via_view = GreedyBspScheduler::new().schedule_dag(&view, &a);
        let oracle = reference::greedy_reference(&inst.dag, &a);
        assert_eq!(via_view.schedule, oracle.schedule, "{}", inst.name);
        assert_eq!(via_view.order, oracle.order, "{}", inst.name);
        cases += 1;
    }
    assert!(cases >= 40);
}

/// Copies any [`DagLike`] graph into a standalone `CompDag` with the same
/// ids, weights and adjacency order, so the `CompDag`-only reference
/// scheduler can serve as the oracle for a view.
fn materialise<D: DagLike>(view: &D) -> mbsp_dag::CompDag {
    let weights: Vec<mbsp_dag::NodeWeights> = view
        .nodes()
        .map(|v| mbsp_dag::NodeWeights::new(view.compute_weight(v), view.memory_weight(v)))
        .collect();
    let edges: Vec<(usize, usize)> = view
        .nodes()
        .flat_map(|u| view.children(u).map(move |v| (u.index(), v.index())))
        .collect();
    mbsp_dag::CompDag::from_edges(view.name(), weights, &edges).unwrap()
}

#[test]
fn generic_greedy_on_large_shard_views_matches_reference() {
    // The sharded search seeds every shard from a greedy run on its
    // `SubDagView::with_inputs` view, once per shard per iteration; at
    // `large_dataset` scale those views have ready lists hundreds wide.
    let scheduler = GreedyBspScheduler::new();
    for dag in &common::scale_dags() {
        // A contiguous id range is a contiguous topological run for both
        // generators — the shape `topo_shards` cuts.
        let n = dag.num_nodes();
        let core: Vec<NodeId> = dag.nodes().skip(n / 4).take(n / 2).collect();
        let view = SubDagView::with_inputs(dag, &core, format!("{}::shard", dag.name()));
        assert!(view.num_inputs() > 0);
        let standalone = materialise(&view);
        for (p, l) in common::scale_grid() {
            let a = arch(p, l);
            let via_view = scheduler.schedule_dag(&view, &a);
            let oracle = reference::greedy_reference(&standalone, &a);
            assert_eq!(
                via_view.schedule,
                oracle.schedule,
                "{} p {p} l {l}",
                dag.name()
            );
            assert_eq!(via_view.order, oracle.order, "{} p {p} l {l}", dag.name());
        }
    }
}

#[test]
fn generic_cilk_on_full_view_matches_comp_dag_path_and_reference() {
    for seed in 0..12u64 {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 3 + (seed as usize % 4),
                width: 2 + (seed as usize % 6),
                ..Default::default()
            },
            seed,
        );
        let view = full_view(&dag);
        for &p in &[1usize, 2, 4] {
            let a = arch(p, 10.0);
            let scheduler = CilkScheduler::with_seed(seed ^ 0xC11C);
            let via_view = scheduler.schedule_dag(&view, &a);
            let via_dag = scheduler.schedule(&dag, &a);
            let oracle = reference::cilk_reference(seed ^ 0xC11C, &dag, &a);
            assert_eq!(via_view.schedule, via_dag.schedule, "seed {seed} p {p}");
            assert_eq!(via_view.order, via_dag.order, "seed {seed} p {p}");
            assert_eq!(via_view.schedule, oracle.schedule, "seed {seed} p {p}");
            assert_eq!(via_view.order, oracle.order, "seed {seed} p {p}");
            assert_order_respects_precedence(&dag, &via_view.order);
        }
    }
}

#[test]
fn generic_dfs_on_full_view_matches_comp_dag_path_and_reference() {
    let a = Architecture::single_processor(100.0, 1.0);
    for seed in 0..12u64 {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 2 + (seed as usize % 5),
                width: 2 + (seed as usize % 6),
                ..Default::default()
            },
            1000 + seed,
        );
        let view = full_view(&dag);
        let scheduler = DfsScheduler::new();
        let via_view = scheduler.schedule_dag(&view, &a);
        let via_dag = scheduler.schedule(&dag, &a);
        let oracle = reference::dfs_reference(&dag);
        assert_eq!(via_view.schedule, via_dag.schedule, "seed {seed}");
        assert_eq!(via_view.order, via_dag.order, "seed {seed}");
        assert_eq!(via_view.schedule, oracle.schedule, "seed {seed}");
        assert_eq!(via_view.order, oracle.order, "seed {seed}");
        assert_order_respects_precedence(&dag, &via_view.order);
    }
}

#[test]
fn generic_greedy_respects_view_source_semantics_on_proper_subgraphs() {
    // On a proper sub-view the generic path must agree with scheduling the
    // materialised sub-DAG: ids differ from the parent, but the view's
    // adjacency is exactly the induced subgraph.
    let dag = random_layered_dag(
        &RandomDagConfig {
            layers: 6,
            width: 8,
            edge_probability: 0.4,
            ..Default::default()
        },
        0xFEED,
    );
    let half: Vec<NodeId> = dag.nodes().take(dag.num_nodes() / 2).collect();
    let view = SubDagView::induced(&dag, &half, "half");
    let a = arch(4, 10.0);
    let scheduler = GreedyBspScheduler::new();
    let via_view = scheduler.schedule_dag(&view, &a);

    // Materialise the same induced subgraph as a standalone CompDag. The
    // selection is an id-ordered prefix, so local ids line up.
    let weights: Vec<mbsp_dag::NodeWeights> = half
        .iter()
        .map(|&v| mbsp_dag::NodeWeights::new(dag.compute_weight(v), dag.memory_weight(v)))
        .collect();
    let mut edges = Vec::new();
    for &u in &half {
        for &v in dag.children(u) {
            if v.index() < half.len() {
                edges.push((u.index(), v.index()));
            }
        }
    }
    let sub = mbsp_dag::CompDag::from_edges("half_materialised", weights, &edges).unwrap();
    let via_sub = scheduler.schedule(&sub, &a);
    assert_eq!(via_view.schedule, via_sub.schedule);
    assert_eq!(via_view.order, via_sub.order);
}
