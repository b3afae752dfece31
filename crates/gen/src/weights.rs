//! Memory-weight assignment.
//!
//! The benchmark DAGs of \[36\] (Papp et al., SPAA 2024) carry compute weights but no memory weights; the paper
//! assigns every node an independent uniformly random memory weight in `{1,...,5}`.
//! [`assign_random_memory_weights`] reproduces this with a seeded RNG so that every
//! run of the experiment harness sees the same instances.

use mbsp_dag::graph::NodeWeights;
use mbsp_dag::CompDag;
use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Assigns every node of `dag` an independent uniformly random memory weight drawn
/// from `{1, ..., max_weight}`, keeping its compute weight. Deterministic in `seed`.
pub fn assign_random_memory_weights(dag: &mut CompDag, max_weight: u32, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dist = Uniform::new_inclusive(1u32, max_weight.max(1));
    for v in dag.nodes().collect::<Vec<_>>() {
        let memory = dist.sample(&mut rng) as f64;
        let compute = dag.compute_weight(v);
        dag.set_weights(v, NodeWeights::new(compute, memory))
            .expect("weights are positive integers");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::DagBuilder;

    fn chain(n: usize) -> CompDag {
        let mut b = DagBuilder::new("chain");
        let nodes = b.add_unit_nodes(n).unwrap();
        b.add_chain(&nodes).unwrap();
        b.build()
    }

    #[test]
    fn weights_are_in_range_and_deterministic() {
        let mut d1 = chain(50);
        let mut d2 = chain(50);
        assign_random_memory_weights(&mut d1, 5, 42);
        assign_random_memory_weights(&mut d2, 5, 42);
        for v in d1.nodes() {
            let w = d1.memory_weight(v);
            assert!((1.0..=5.0).contains(&w));
            assert_eq!(w.fract(), 0.0);
            assert_eq!(w, d2.memory_weight(v));
            // Compute weights are untouched.
            assert_eq!(d1.compute_weight(v), 1.0);
        }
    }

    #[test]
    fn different_seeds_give_different_assignments() {
        let mut d1 = chain(50);
        let mut d2 = chain(50);
        assign_random_memory_weights(&mut d1, 5, 1);
        assign_random_memory_weights(&mut d2, 5, 2);
        let same = d1
            .nodes()
            .filter(|&v| d1.memory_weight(v) == d2.memory_weight(v))
            .count();
        assert!(same < 50, "two seeds should not produce identical weights");
    }
}
