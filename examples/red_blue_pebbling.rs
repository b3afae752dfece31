//! Single-processor MBSP scheduling is the red–blue pebble game with compute costs.
//! This example schedules a small DAG with `P = 1`, prints the resulting pebbling
//! (load / compute / save / delete sequence) and its I/O volume, and solves a tiny
//! instance exactly with the ILP formulation to show the optimum.
//!
//! Run with `cargo run --example red_blue_pebbling`.

use mbsp::ilp::{ExactIlpScheduler, IlpConfig};
use mbsp::model::Operation;
use mbsp::prelude::*;
use mbsp::solver::SolverLimits;

fn main() {
    // A small binary-tree reduction with 4 leaves.
    let mut b = DagBuilder::new("reduction");
    let leaves: Vec<NodeId> = (0..4)
        .map(|i| b.add_labeled_node(0.0, 1.0, format!("leaf{i}")).unwrap())
        .collect();
    let l = b.add_labeled_node(1.0, 1.0, "left").unwrap();
    let r = b.add_labeled_node(1.0, 1.0, "right").unwrap();
    let root = b.add_labeled_node(1.0, 1.0, "root").unwrap();
    b.add_edge(leaves[0], l).unwrap();
    b.add_edge(leaves[1], l).unwrap();
    b.add_edge(leaves[2], r).unwrap();
    b.add_edge(leaves[3], r).unwrap();
    b.add_edge(l, root).unwrap();
    b.add_edge(r, root).unwrap();
    let dag = b.build();

    // One processor with a cache of 3 values.
    let instance = MbspInstance::new(dag, Architecture::single_processor(3.0, 1.0));
    let bsp = DfsScheduler::new().schedule(instance.dag(), instance.arch());
    let schedule = TwoStageScheduler::new().schedule(
        instance.dag(),
        instance.arch(),
        &bsp,
        &ClairvoyantPolicy::new(),
    );
    schedule.validate(instance.dag(), instance.arch()).unwrap();
    println!("DFS + clairvoyant pebbling sequence:");
    for (superstep, op) in schedule.operations() {
        if !matches!(op, Operation::Delete { .. }) {
            println!("  superstep {superstep}: {op}");
        }
    }
    let stats = schedule.statistics(instance.dag(), instance.arch());
    println!(
        "computes: {}, loads: {}, saves: {}, I/O volume: {:.0}",
        stats.computes, stats.loads, stats.saves, stats.io_volume
    );
    println!(
        "asynchronous cost: {:.0}",
        async_cost(&schedule, instance.dag(), instance.arch())
    );

    // Exact optimum of a smaller instance through the ILP formulation.
    let mut tiny = DagBuilder::new("tiny");
    let a = tiny.add_labeled_node(0.0, 1.0, "in").unwrap();
    let b2 = tiny.add_node(1.0, 1.0).unwrap();
    let c = tiny.add_node(1.0, 1.0).unwrap();
    tiny.add_edge(a, b2).unwrap();
    tiny.add_edge(b2, c).unwrap();
    let tiny_instance = MbspInstance::new(tiny.build(), Architecture::single_processor(3.0, 1.0));
    let exact = ExactIlpScheduler::with_config(IlpConfig {
        time_steps: 5,
        allow_recompute: true,
        limits: SolverLimits {
            max_nodes: 5_000,
            ..Default::default()
        },
    })
    .schedule(&tiny_instance);
    match exact {
        Some((sched, status, objective)) => {
            sched
                .validate(tiny_instance.dag(), tiny_instance.arch())
                .unwrap();
            println!(
                "\nexact ILP on the 3-node chain: status {status:?}, optimal cost {objective:.0}"
            );
        }
        None => println!("\nexact ILP found no solution within its limits"),
    }
}
