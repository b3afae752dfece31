//! Quickstart: build a small computational DAG, schedule it with the two-stage
//! baseline and with the holistic scheduler, and compare the synchronous MBSP costs.
//!
//! Run with `cargo run --example quickstart`.

use mbsp::prelude::*;

fn main() {
    // A small "map-reduce" style computation: 6 input blocks, a map node per block,
    // a pairwise reduction tree and a final output node.
    let mut b = DagBuilder::new("quickstart");
    let inputs: Vec<NodeId> = (0..6)
        .map(|i| b.add_labeled_node(0.0, 2.0, format!("in{i}")).unwrap())
        .collect();
    let maps: Vec<NodeId> = inputs
        .iter()
        .enumerate()
        .map(|(i, &src)| {
            let m = b.add_labeled_node(3.0, 1.0, format!("map{i}")).unwrap();
            b.add_edge(src, m).unwrap();
            m
        })
        .collect();
    let mut layer = maps;
    let mut level = 0;
    while layer.len() > 1 {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            if pair.len() == 1 {
                next.push(pair[0]);
                continue;
            }
            let r = b
                .add_labeled_node(1.0, 1.0, format!("reduce{}_{}", level, next.len()))
                .unwrap();
            b.add_edge(pair[0], r).unwrap();
            b.add_edge(pair[1], r).unwrap();
            next.push(r);
        }
        layer = next;
        level += 1;
    }
    let dag = b.build();
    println!(
        "DAG `{}`: {} nodes, {} edges",
        dag.name(),
        dag.num_nodes(),
        dag.num_edges()
    );
    println!(
        "minimal feasible cache size r0 = {}",
        dag.minimal_cache_size()
    );

    // Architecture: 2 processors, cache 3·r0, g = 1, L = 5.
    let instance = MbspInstance::with_cache_factor(dag, Architecture::new(2, 0.0, 1.0, 5.0), 3.0);

    // Stage 1: a memory-oblivious BSP schedule.
    let bsp = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());
    println!(
        "greedy BSP schedule: {} supersteps, {} cross-processor edges",
        bsp.schedule.num_supersteps(),
        bsp.schedule.cross_processor_edges(instance.dag())
    );

    // Stage 2: clairvoyant cache management turns it into a valid MBSP schedule.
    let baseline = TwoStageScheduler::new().schedule(
        instance.dag(),
        instance.arch(),
        &bsp,
        &ClairvoyantPolicy::new(),
    );
    baseline
        .validate(instance.dag(), instance.arch())
        .expect("baseline is valid");
    let base_cost = sync_cost(&baseline, instance.dag(), instance.arch());
    println!(
        "two-stage baseline:  cost {:>6.1} ({} supersteps, compute {:.0}, I/O {:.0}, sync {:.0})",
        base_cost.total,
        base_cost.supersteps,
        base_cost.compute,
        base_cost.io(),
        base_cost.latency
    );

    // The holistic search seeded with the same baseline, on the whole DAG:
    // the daemon's search at one shard, from the baseline alone, at the
    // reproduction's 120 moves per round.
    let search = ShardedSearchConfig {
        num_shards: 1,
        moves_per_round: 120,
        shard_local_seed: false,
        ..Default::default()
    };
    let holistic = ShardedHolisticScheduler::with_config(search).schedule(&instance, &bsp);
    holistic
        .validate(instance.dag(), instance.arch())
        .expect("holistic schedule is valid");
    let holistic_cost = sync_cost(&holistic, instance.dag(), instance.arch());
    println!(
        "holistic scheduler:  cost {:>6.1} ({} supersteps, compute {:.0}, I/O {:.0}, sync {:.0})",
        holistic_cost.total,
        holistic_cost.supersteps,
        holistic_cost.compute,
        holistic_cost.io(),
        holistic_cost.latency
    );
    println!(
        "cost reduction: {:.2}x",
        holistic_cost.total / base_cost.total
    );
}
