//! Random layered DAGs for property-based testing, stress tests and the
//! daemon's `random` family.
//!
//! The generator is bound by its keystream: it draws one ChaCha8 `u64` per
//! candidate edge through a precomputed [`Bernoulli`] threshold and writes the
//! CSR in one pass, without a [`mbsp_dag::DagBuilder`]. The DAG is the one the
//! builder made from the same draws, byte for byte; `tests/generator_pins.rs`
//! pins it by value.

use mbsp_dag::{CompDag, NodeId, NodeWeights};
use rand::distributions::{Bernoulli, Distribution, Uniform};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of the random layered DAG generator.
#[derive(Debug, Clone, Copy)]
pub struct RandomDagConfig {
    /// Number of layers (depth).
    pub layers: usize,
    /// Number of nodes per layer.
    pub width: usize,
    /// Probability of an edge from a node to a node in the next layer.
    pub edge_probability: f64,
    /// Maximum compute weight (weights are uniform integers in `1..=max`).
    pub max_compute: u32,
    /// Maximum memory weight (weights are uniform integers in `1..=max`).
    pub max_memory: u32,
}

impl Default for RandomDagConfig {
    fn default() -> Self {
        RandomDagConfig {
            layers: 4,
            width: 5,
            edge_probability: 0.4,
            max_compute: 3,
            max_memory: 3,
        }
    }
}

/// Generates a random layered DAG: `layers × width` nodes; every non-first-layer
/// node has at least one parent in the previous layer, plus additional random edges
/// with probability `edge_probability`. Deterministic in `seed`.
///
/// Layered edges run forward and are distinct by construction, so the DAG is
/// assembled in one pass: weights, labels and edges are collected in
/// insertion order and compacted into CSR once, with no per-edge duplicate or
/// cycle check. The result is the DAG a [`mbsp_dag::DagBuilder`] fed the same
/// sequence builds, byte for byte.
pub fn random_layered_dag(config: &RandomDagConfig, seed: u64) -> CompDag {
    assert!(config.layers >= 1 && config.width >= 1);
    let (layers, width) = (config.layers, config.width);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let compute_dist = Uniform::new_inclusive(1u32, config.max_compute.max(1));
    let memory_dist = Uniform::new_inclusive(1u32, config.max_memory.max(1));
    let extra_edge = Bernoulli::new(config.edge_probability)
        .expect("the vendored Bernoulli clamps p into [0, 1]");
    let nodes = layers * width;
    let mut weights = Vec::with_capacity(nodes);
    let mut labels = Vec::with_capacity(nodes);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for l in 0..layers {
        for i in 0..width {
            let compute = if l == 0 {
                0.0
            } else {
                compute_dist.sample(&mut rng) as f64
            };
            let memory = memory_dist.sample(&mut rng) as f64;
            weights.push(NodeWeights::new(compute, memory));
            labels.push(format!("l{l}_n{i}"));
        }
        if l > 0 {
            let prev = (l - 1) * width..l * width;
            for v in l * width..(l + 1) * width {
                let v = NodeId::new(v);
                // Guarantee at least one parent so that no non-first-layer node is a
                // source (sources are never computed in the MBSP model).
                let forced = prev.start + rng.gen_range(0..width);
                edges.push((NodeId::new(forced), v));
                for u in prev.clone() {
                    if u != forced && extra_edge.sample(&mut rng) {
                        edges.push((NodeId::new(u), v));
                    }
                }
            }
        }
    }
    CompDag::from_saved_parts(
        format!("random_l{layers}_w{width}_s{seed}"),
        weights,
        labels,
        edges,
    )
    .expect("layered edges run forward and are distinct")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::DagStatistics;

    #[test]
    fn generated_dag_is_well_formed() {
        let cfg = RandomDagConfig {
            layers: 5,
            width: 6,
            ..Default::default()
        };
        let dag = random_layered_dag(&cfg, 3);
        assert!(dag.is_acyclic());
        assert_eq!(dag.num_nodes(), 30);
        let stats = DagStatistics::of(&dag);
        // Only first-layer nodes are sources.
        assert_eq!(stats.num_sources, 6);
        assert_eq!(stats.num_levels, 5);
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = RandomDagConfig::default();
        let a = random_layered_dag(&cfg, 11);
        let b = random_layered_dag(&cfg, 11);
        assert_eq!(a, b);
        let c = random_layered_dag(&cfg, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn edge_probability_zero_still_connected_to_previous_layer() {
        let cfg = RandomDagConfig {
            edge_probability: 0.0,
            ..Default::default()
        };
        let dag = random_layered_dag(&cfg, 5);
        // Every non-source node has exactly one parent.
        for v in dag.nodes() {
            if !dag.is_source(v) {
                assert_eq!(dag.in_degree(v), 1);
            }
        }
    }
}
