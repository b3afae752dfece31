//! Domain example: scheduling a fine-grained sparse matrix–vector multiplication
//! (the workload family where the paper reports the largest improvements) under
//! several cache sizes, and printing how the baseline-vs-holistic gap changes.
//!
//! Run with `cargo run --example spmv_pipeline`.

use mbsp::gen::spmv::{spmv_dag, SparsityPattern};
use mbsp::prelude::*;

fn main() {
    let pattern = SparsityPattern::random(8, 3, 7);
    let mut dag = spmv_dag("spmv_example", &pattern);
    mbsp::gen::assign_random_memory_weights(&mut dag, 5, 123);
    println!(
        "SpMV DAG: {} rows, {} nonzeros, {} nodes, r0 = {}",
        pattern.n(),
        pattern.nnz(),
        dag.num_nodes(),
        dag.minimal_cache_size()
    );
    println!();
    println!("| cache factor | baseline | holistic | ratio |");
    println!("|---|---|---|---|");
    // The holistic search on the whole DAG (one shard), from the baseline alone.
    let search = ShardedSearchConfig {
        num_shards: 1,
        moves_per_round: 120,
        shard_local_seed: false,
        ..Default::default()
    };
    for factor in [1.0, 2.0, 3.0, 5.0] {
        let instance =
            MbspInstance::with_cache_factor(dag.clone(), Architecture::paper_default(0.0), factor);
        let bsp = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());
        let baseline = TwoStageScheduler::new().schedule(
            instance.dag(),
            instance.arch(),
            &bsp,
            &ClairvoyantPolicy::new(),
        );
        let holistic = ShardedHolisticScheduler::with_config(search).schedule(&instance, &bsp);
        let base = sync_cost(&baseline, instance.dag(), instance.arch()).total;
        let ours = sync_cost(&holistic, instance.dag(), instance.arch()).total;
        println!(
            "| {factor}·r0 | {base:.0} | {ours:.0} | {:.2} |",
            ours / base
        );
    }
    println!();
    println!(
        "With a very tight cache (r = r0) the schedule is almost fully determined and the\n\
         holistic search has little room; with r = 3·r0 or 5·r0 the gap opens up — the same\n\
         trend the paper reports in Table 4."
    );
}
