//! The named benchmark datasets used by the experiment harness.
//!
//! [`tiny_dataset`] mirrors the 15 instances of the paper's "tiny" dataset (Table 1)
//! and [`small_dataset_sample`] the 10 larger instances of Table 2. Every instance
//! is generated deterministically from a seed derived from its name and the global
//! seed, and receives uniformly random memory weights in `{1..5}` exactly as the
//! paper describes.

use crate::cg::cg_dag;
use crate::coarse::{bicgstab_dag, kmeans_dag, pregel_dag};
use crate::knn::knn_dag;
use crate::spmv::{iterated_spmv_dag, spmv_dag, SparsityPattern};
use crate::weights::assign_random_memory_weights;
use mbsp_dag::CompDag;

/// One named benchmark instance.
#[derive(Debug, Clone)]
pub struct NamedInstance {
    /// The instance name as printed in the paper's tables (e.g. `spmv_N6`).
    pub name: String,
    /// The family of the instance (`coarse`, `spmv`, `cg`, `exp`, `knn`).
    pub family: &'static str,
    /// The generated DAG with compute and memory weights.
    pub dag: CompDag,
}

impl NamedInstance {
    fn new(name: &str, family: &'static str, mut dag: CompDag, seed: u64) -> Self {
        dag.set_name(name);
        // Random memory weights in {1..5}, deterministic per instance.
        assign_random_memory_weights(&mut dag, 5, seed ^ hash_name(name));
        NamedInstance {
            name: name.to_string(),
            family,
            dag,
        }
    }
}

/// Simple FNV-style hash so that every instance name gets its own weight seed.
fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The 15 instances of the "tiny" dataset (40–80 nodes each): three coarse-grained
/// algorithm DAGs and fine-grained SpMV, CG, iterated-SpMV ("exp") and k-NN
/// instances. Deterministic in `seed`.
pub fn tiny_dataset(seed: u64) -> Vec<NamedInstance> {
    vec![
        NamedInstance::new("bicgstab", "coarse", bicgstab_dag(5), seed),
        NamedInstance::new("k-means", "coarse", kmeans_dag(4, 3, 2), seed),
        NamedInstance::new("pregel", "coarse", pregel_dag(4, 4), seed),
        NamedInstance::new(
            "spmv_N6",
            "spmv",
            spmv_dag("spmv_N6", &SparsityPattern::random(6, 3, seed ^ 0x51)),
            seed,
        ),
        NamedInstance::new(
            "spmv_N7",
            "spmv",
            spmv_dag("spmv_N7", &SparsityPattern::random(7, 3, seed ^ 0x52)),
            seed,
        ),
        NamedInstance::new(
            "spmv_N10",
            "spmv",
            spmv_dag("spmv_N10", &SparsityPattern::random(10, 3, seed ^ 0x53)),
            seed,
        ),
        NamedInstance::new("CG_N2_K2", "cg", cg_dag("CG_N2_K2", 2, 2), seed),
        NamedInstance::new("CG_N3_K1", "cg", cg_dag("CG_N3_K1", 3, 1), seed),
        NamedInstance::new("CG_N4_K1", "cg", cg_dag("CG_N4_K1", 4, 1), seed),
        NamedInstance::new(
            "exp_N4_K2",
            "exp",
            iterated_spmv_dag("exp_N4_K2", &SparsityPattern::random(4, 3, seed ^ 0x61), 3),
            seed,
        ),
        NamedInstance::new(
            "exp_N5_K3",
            "exp",
            iterated_spmv_dag("exp_N5_K3", &SparsityPattern::random(5, 2, seed ^ 0x62), 3),
            seed,
        ),
        NamedInstance::new(
            "exp_N6_K4",
            "exp",
            iterated_spmv_dag("exp_N6_K4", &SparsityPattern::random(6, 2, seed ^ 0x63), 4),
            seed,
        ),
        NamedInstance::new("kNN_N4_K3", "knn", knn_dag("kNN_N4_K3", 4, 2), seed),
        NamedInstance::new("kNN_N5_K3", "knn", knn_dag("kNN_N5_K3", 5, 1), seed),
        NamedInstance::new("kNN_N6_K4", "knn", knn_dag("kNN_N6_K4", 6, 1), seed),
    ]
}

/// The 10-instance sample of the "small" dataset (roughly 264–464 nodes): two
/// coarse-grained graphs, two SpMV, two CG, two iterated-SpMV and two k-NN
/// instances. Deterministic in `seed`.
pub fn small_dataset_sample(seed: u64) -> Vec<NamedInstance> {
    vec![
        NamedInstance::new("simple_pagerank", "coarse", pregel_dag(12, 8), seed),
        NamedInstance::new("snni_graphchallenge", "coarse", kmeans_dag(10, 6, 4), seed),
        NamedInstance::new(
            "spmv_N25",
            "spmv",
            spmv_dag("spmv_N25", &SparsityPattern::random(25, 5, seed ^ 0x71)),
            seed,
        ),
        NamedInstance::new(
            "spmv_N35",
            "spmv",
            spmv_dag("spmv_N35", &SparsityPattern::random(35, 6, seed ^ 0x72)),
            seed,
        ),
        NamedInstance::new("CG_N5_K4", "cg", cg_dag("CG_N5_K4", 5, 4), seed),
        NamedInstance::new("CG_N7_K2", "cg", cg_dag("CG_N7_K2", 7, 2), seed),
        NamedInstance::new(
            "exp_N10_K8",
            "exp",
            iterated_spmv_dag(
                "exp_N10_K8",
                &SparsityPattern::random(10, 2, seed ^ 0x73),
                8,
            ),
            seed,
        ),
        NamedInstance::new(
            "exp_N15_K4",
            "exp",
            iterated_spmv_dag(
                "exp_N15_K4",
                &SparsityPattern::random(15, 2, seed ^ 0x74),
                4,
            ),
            seed,
        ),
        NamedInstance::new("kNN_N10_K8", "knn", knn_dag("kNN_N10_K8", 10, 2), seed),
        NamedInstance::new("kNN_N15_K4", "knn", knn_dag("kNN_N15_K4", 15, 1), seed),
    ]
}

/// The large-instance scaling dataset (10k–100k nodes): layered-random DAGs plus
/// SpMV, iterated-SpMV and CG instances scaled far beyond the paper's benchmark
/// sizes. Deterministic in `seed`.
///
/// These are the instances the `shard`, `delta` and `io` recorders run on at
/// full size (the 100k-node `rand_L200_W500` instance is the headline case);
/// construction is near-linear: the random layered instances are written to
/// CSR in one pass, and the others go through the builder, whose incremental
/// Pearce–Kelly cycle check is O(1) per order-respecting edge and whose
/// duplicate check scans the shorter adjacency list. Memory weights stay at
/// the paper's random `{1..5}` distribution.
pub fn large_dataset(seed: u64) -> Vec<NamedInstance> {
    use crate::random::{random_layered_dag, RandomDagConfig};
    let layered = |layers: usize, width: usize, s: u64| {
        random_layered_dag(
            &RandomDagConfig {
                layers,
                width,
                edge_probability: 3.0 / width as f64,
                ..Default::default()
            },
            s,
        )
    };
    vec![
        NamedInstance::new(
            "rand_L50_W200",
            "random",
            layered(50, 200, seed ^ 0x81),
            seed,
        ),
        NamedInstance::new(
            "rand_L100_W250",
            "random",
            layered(100, 250, seed ^ 0x82),
            seed,
        ),
        NamedInstance::new(
            "rand_L200_W500",
            "random",
            layered(200, 500, seed ^ 0x83),
            seed,
        ),
        NamedInstance::new(
            "spmv_N2000",
            "spmv",
            spmv_dag("spmv_N2000", &SparsityPattern::random(2000, 4, seed ^ 0x84)),
            seed,
        ),
        NamedInstance::new(
            "exp_N1000_K4",
            "exp",
            iterated_spmv_dag(
                "exp_N1000_K4",
                &SparsityPattern::random(1000, 3, seed ^ 0x85),
                4,
            ),
            seed,
        ),
        NamedInstance::new("CG_N40_K4", "cg", cg_dag("CG_N40_K4", 40, 4), seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_dag::DagStatistics;

    #[test]
    fn tiny_dataset_has_fifteen_named_instances() {
        let set = tiny_dataset(42);
        assert_eq!(set.len(), 15);
        let names: Vec<&str> = set.iter().map(|i| i.name.as_str()).collect();
        assert!(names.contains(&"bicgstab"));
        assert!(names.contains(&"spmv_N10"));
        assert!(names.contains(&"kNN_N6_K4"));
        // All names are distinct.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 15);
    }

    #[test]
    fn tiny_instances_are_in_the_paper_size_range() {
        for inst in tiny_dataset(42) {
            let n = inst.dag.num_nodes();
            assert!(
                (30..=150).contains(&n),
                "{} has {} nodes, expected a tiny instance (paper range 40-80)",
                inst.name,
                n
            );
            assert!(inst.dag.is_acyclic());
            // Memory weights are integers in 1..=5.
            for v in inst.dag.nodes() {
                let m = inst.dag.memory_weight(v);
                assert!((1.0..=5.0).contains(&m) && m.fract() == 0.0);
            }
        }
    }

    #[test]
    fn small_sample_instances_are_larger() {
        for inst in small_dataset_sample(42) {
            let n = inst.dag.num_nodes();
            assert!(
                (150..=800).contains(&n),
                "{} has {} nodes, expected a small-dataset instance (paper range 264-464)",
                inst.name,
                n
            );
            assert!(inst.dag.is_acyclic());
        }
        assert_eq!(small_dataset_sample(42).len(), 10);
    }

    #[test]
    fn datasets_are_deterministic_in_the_seed() {
        let a = tiny_dataset(7);
        let b = tiny_dataset(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.dag, y.dag);
        }
        let c = tiny_dataset(8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.dag != y.dag));
    }

    #[test]
    fn large_dataset_reaches_production_scale() {
        let set = large_dataset(42);
        assert_eq!(set.len(), 6);
        for inst in &set {
            assert!(
                inst.dag.num_nodes() >= 10_000,
                "{} has only {} nodes",
                inst.name,
                inst.dag.num_nodes()
            );
            // Memory weights follow the paper's {1..5} distribution.
            let v = inst.dag.nodes().next().unwrap();
            let m = inst.dag.memory_weight(v);
            assert!((1.0..=5.0).contains(&m));
        }
        // At least one instance crosses the 100k-node mark (well beyond 50k).
        assert!(set.iter().any(|i| i.dag.num_nodes() >= 100_000));
        // Determinism in the seed.
        let names: Vec<_> = set.iter().map(|i| i.name.clone()).collect();
        let again = large_dataset(42);
        assert!(names
            .iter()
            .zip(&again)
            .all(|(n, i)| *n == i.name && i.dag.num_nodes() >= 10_000));
        assert_eq!(set[0].dag, again[0].dag);
    }

    #[test]
    fn instance_families_are_consistent() {
        for inst in tiny_dataset(1) {
            match inst.family {
                "coarse" | "spmv" | "cg" | "exp" | "knn" => {}
                other => panic!("unexpected family {other}"),
            }
            // r0 is positive so cache factors are meaningful.
            assert!(DagStatistics::of(&inst.dag).minimal_cache_size > 0.0);
        }
    }
}
