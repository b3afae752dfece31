//! The Theorem 4.1 story, executable: on the two-group / two-chain construction the
//! two-stage approach (BSP-optimal schedule + optimal cache policy) pays an I/O cost
//! proportional to `d·m`, while a holistic processor assignment pays only `O(m + d)`.
//! The gap therefore grows linearly with the instance size.
//!
//! Run with `cargo run --example two_stage_vs_holistic`.

use mbsp::gen::constructions::theorem41_construction;
use mbsp::ilp::improver::{canonical_bsp, TieOrder};
use mbsp::prelude::*;

fn main() {
    println!("| d | m | two-stage (chain per proc) | holistic (group per proc) | ratio |");
    println!("|---|---|---|---|---|");
    for d in [4usize, 8, 12] {
        let m = 4 * d;
        let (dag, groups) = theorem41_construction(d, m);
        let arch = Architecture::new(2, d as f64 + 2.0, 1.0, 0.0);
        let converter = TwoStageScheduler::new();
        let policy = ClairvoyantPolicy::new();
        let order = TieOrder::BreadthFirst.of(&dag);

        // Two-stage: the BSP optimum assigns one chain to each processor, so the
        // cache (which can hold only one group besides the chain) thrashes between
        // H1 and H2 on every chain node.
        let mut chain_per_proc = vec![ProcId::new(0); dag.num_nodes()];
        for &v in &groups.chain_u {
            chain_per_proc[v.index()] = ProcId::new(1);
        }
        let two_stage = converter.schedule(
            &dag,
            &arch,
            &canonical_bsp(&dag, &arch, &chain_per_proc, &order),
            &policy,
        );

        // Holistic: children of H1 on processor 0, children of H2 on processor 1;
        // each processor keeps "its" group resident and the chains are exchanged
        // through slow memory once per node.
        let mut group_per_proc = vec![ProcId::new(0); dag.num_nodes()];
        for (i, (&u, &v)) in groups.chain_u.iter().zip(&groups.chain_v).enumerate() {
            let (pu, pv) = if (i + 1) % 2 == 1 {
                (ProcId::new(0), ProcId::new(1))
            } else {
                (ProcId::new(1), ProcId::new(0))
            };
            group_per_proc[u.index()] = pu;
            group_per_proc[v.index()] = pv;
        }
        let holistic = converter.schedule(
            &dag,
            &arch,
            &canonical_bsp(&dag, &arch, &group_per_proc, &order),
            &policy,
        );

        two_stage.validate(&dag, &arch).unwrap();
        holistic.validate(&dag, &arch).unwrap();
        let a = sync_cost(&two_stage, &dag, &arch).total;
        let b = sync_cost(&holistic, &dag, &arch).total;
        println!("| {d} | {m} | {a:.0} | {b:.0} | {:.2} |", a / b);
    }
    println!();
    println!("The ratio grows with d — the linear-factor separation of Theorem 4.1.");
}
