//! Generated instances pinned by value.
//!
//! Each generator's output is hashed with 64-bit FNV-1a over the DAG's name,
//! every node's weight bits and label, and the edge list in insertion order —
//! everything `mbsp_io::encode_dag` writes. A change to a generator, to the
//! `DagBuilder` it feeds or to the vendored ChaCha8 keystream that moves one
//! weight, label or edge (or reorders the edges) fails here. An intended
//! change re-records the table the failure prints.

use mbsp_dag::CompDag;
use mbsp_gen::cg::cg_dag;
use mbsp_gen::knn::knn_dag;
use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_gen::{large_dataset, small_dataset_sample, tiny_dataset, NamedInstance};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// A length-prefixed string, so adjacent strings cannot trade bytes.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn dag(&mut self, dag: &CompDag) {
        self.str(dag.name());
        self.u64(dag.num_nodes() as u64);
        for v in dag.nodes() {
            self.u64(dag.compute_weight(v).to_bits());
            self.u64(dag.memory_weight(v).to_bits());
            self.str(dag.label(v));
        }
        self.u64(dag.num_edges() as u64);
        for (u, v) in dag.edges() {
            self.bytes(&(u.index() as u32).to_le_bytes());
            self.bytes(&(v.index() as u32).to_le_bytes());
        }
    }
}

fn dag_hash(dag: &CompDag) -> u64 {
    let mut h = Fnv::new();
    h.dag(dag);
    h.0
}

fn dataset_hash(set: &[NamedInstance]) -> u64 {
    let mut h = Fnv::new();
    for instance in set {
        h.str(&instance.name);
        h.str(instance.family);
        h.dag(&instance.dag);
    }
    h.0
}

/// Compares every `(case, hash)` at once, so one run prints the whole table.
fn assert_pins(actual: &[(&str, u64)], expected: &[(&str, u64)]) {
    if actual != expected {
        let table: Vec<String> = actual
            .iter()
            .map(|(case, h)| format!("(\"{case}\", 0x{h:016x}),"))
            .collect();
        panic!(
            "generator output moved; recorded now:\n{}",
            table.join("\n")
        );
    }
}

fn layered(layers: usize, width: usize, edge_probability: f64, seed: u64) -> CompDag {
    random_layered_dag(
        &RandomDagConfig {
            layers,
            width,
            edge_probability,
            max_compute: 4,
            max_memory: 3,
        },
        seed,
    )
}

#[test]
fn random_layered_dags_are_pinned() {
    // `sched_large`'s instance: 100k nodes, ≈ 397k edges.
    let sched_large = layered(200, 500, 0.006, 2_949_826_092_126_892_291);
    assert_eq!(sched_large.num_nodes(), 100_000);
    let actual = [
        ("sched_large", dag_hash(&sched_large)),
        ("p0", dag_hash(&layered(30, 40, 0.0, 7))),
        ("p1", dag_hash(&layered(12, 30, 1.0, 8))),
        ("width1", dag_hash(&layered(50, 1, 0.5, 9))),
        ("layers1", dag_hash(&layered(1, 64, 0.5, 10))),
    ];
    assert_pins(
        &actual,
        &[
            ("sched_large", 0x20ce_9951_77c4_4850),
            ("p0", 0x6979_e72f_2ea2_b5ba),
            ("p1", 0x46c5_9843_efa0_4930),
            ("width1", 0x25fc_072c_72dc_9e1f),
            ("layers1", 0xda0b_27dd_b1bd_e833),
        ],
    );
}

#[test]
fn cg_and_knn_dags_are_pinned() {
    let actual = [
        ("cg_40_4", dag_hash(&cg_dag("cg", 40, 4))),
        ("knn_15_4", dag_hash(&knn_dag("knn", 15, 4))),
    ];
    assert_pins(
        &actual,
        &[
            ("cg_40_4", 0x3982_446d_9f1c_d551),
            ("knn_15_4", 0x7325_f24f_5a08_63fe),
        ],
    );
}

#[test]
fn datasets_are_pinned() {
    let actual = [
        (
            "small_dataset_sample",
            dataset_hash(&small_dataset_sample(42)),
        ),
        ("tiny_dataset", dataset_hash(&tiny_dataset(42))),
        ("large_dataset", dataset_hash(&large_dataset(42))),
    ];
    assert_pins(
        &actual,
        &[
            ("small_dataset_sample", 0x4cf5_c26e_f916_60b2),
            ("tiny_dataset", 0x8c66_f215_a22a_380c),
            ("large_dataset", 0x238d_baf7_2645_a299),
        ],
    );
}
