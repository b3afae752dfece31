//! Differential property tests: the bitset `Configuration` against the retained
//! nested-`Vec<bool>` oracle, over 100+ random DAGs and several `(P, r)`
//! settings.
//!
//! Each case replays a random sequence of checked operations (load / compute /
//! save / delete through `apply` on both sides: a bit test per parent on
//! one, a `Vec<bool>` lookup per parent on the other), unchecked placements
//! and removals, and
//! the buffer-reuse entry points (`reset_initial`, `copy_from`) through both
//! implementations, asserting identical observable state — pebbles, memory
//! usage, operation outcomes and errors, pebble-set iterators, terminal and
//! memory-bound predicates — after every step.

use mbsp_dag::{CompDag, NodeId};
use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_model::reference::ReferenceConfiguration;
use mbsp_model::{Architecture, Configuration, Operation, ProcId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts every observable of both implementations agrees.
fn assert_same_state(
    dag: &CompDag,
    arch: &Architecture,
    fast: &Configuration,
    oracle: &ReferenceConfiguration,
) {
    for p in 0..arch.processors {
        let p = ProcId::new(p);
        assert!(
            (fast.memory_used(p) - oracle.memory_used(p)).abs() < 1e-12,
            "memory_used diverged on {p:?}"
        );
        assert!(
            fast.cached_nodes(p)
                .eq(oracle.cached_nodes(p).iter().copied()),
            "cached_nodes diverged on {p:?}"
        );
        for v in dag.nodes() {
            assert_eq!(fast.has_red(p, v), oracle.has_red(p, v));
        }
    }
    assert!(fast.blue_nodes().eq(oracle.blue_nodes().iter().copied()));
    for v in dag.nodes() {
        assert_eq!(fast.has_blue(v), oracle.has_blue(v));
    }
    assert_eq!(fast.is_terminal(dag), oracle.is_terminal(dag));
    assert_eq!(
        fast.within_memory_bound(arch),
        oracle.within_memory_bound(arch)
    );
}

/// One random operation against both implementations.
fn random_step(
    rng: &mut StdRng,
    dag: &CompDag,
    arch: &Architecture,
    fast: &mut Configuration,
    oracle: &mut ReferenceConfiguration,
) {
    let n = dag.num_nodes();
    let node = NodeId::new(rng.gen_range(0..n));
    let proc = ProcId::new(rng.gen_range(0..arch.processors));
    match rng.gen_range(0..10u32) {
        k @ 0..=7 => {
            let op = match k % 4 {
                0 => Operation::Load { proc, node },
                1 => Operation::Compute { proc, node },
                2 => Operation::Save { proc, node },
                _ => Operation::Delete { proc, node },
            };
            let a = fast.apply(dag, arch, op);
            let b = oracle.apply(dag, arch, op);
            assert_eq!(a, b, "{op} outcome diverged");
        }
        8 => {
            fast.place_red_unchecked(dag, proc, node);
            oracle.place_red_unchecked(dag, proc, node);
            fast.place_blue_unchecked(node);
            oracle.place_blue_unchecked(node);
        }
        _ => {
            fast.remove_red_unchecked(dag, proc, node);
            oracle.remove_red_unchecked(dag, proc, node);
        }
    }
}

#[test]
fn bitset_configuration_matches_the_nested_vec_oracle() {
    let mut rng = StdRng::seed_from_u64(0xB175E7);
    let mut cases = 0usize;
    for round in 0..36 {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 2 + round % 5,
                width: 2 + round % 7,
                ..Default::default()
            },
            round as u64,
        );
        for &(p, cache) in &[(1usize, 4.0), (2, 8.0), (4, 16.0)] {
            let arch = Architecture::new(p, cache, 1.0, 10.0);
            let mut fast = Configuration::initial(&dag, &arch);
            let mut oracle = ReferenceConfiguration::initial(&dag, &arch);
            assert_same_state(&dag, &arch, &fast, &oracle);
            for step in 0..120 {
                random_step(&mut rng, &dag, &arch, &mut fast, &mut oracle);
                if step % 10 == 0 {
                    assert_same_state(&dag, &arch, &fast, &oracle);
                }
            }
            assert_same_state(&dag, &arch, &fast, &oracle);
            cases += 1;
        }
    }
    assert!(cases >= 100, "the sweep must cover at least 100 cases");
}

#[test]
fn reset_and_copy_agree_after_random_save_delete_load_sequences() {
    let mut rng = StdRng::seed_from_u64(0x5EED5);
    for round in 0..40 {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 3,
                width: 3 + round % 5,
                ..Default::default()
            },
            1000 + round as u64,
        );
        let arch = Architecture::new(3, 12.0, 1.0, 5.0);
        let mut fast = Configuration::initial(&dag, &arch);
        let mut oracle = ReferenceConfiguration::initial(&dag, &arch);
        for _ in 0..60 {
            random_step(&mut rng, &dag, &arch, &mut fast, &mut oracle);
        }
        // Snapshot via copy_from into a fresh buffer; mutate; restore; compare.
        let mut fast_snap = Configuration::empty(&dag, &arch);
        fast_snap.copy_from(&fast);
        let mut oracle_snap = ReferenceConfiguration::empty(&dag, &arch);
        oracle_snap.copy_from(&oracle);
        for _ in 0..30 {
            random_step(&mut rng, &dag, &arch, &mut fast, &mut oracle);
        }
        assert_same_state(&dag, &arch, &fast, &oracle);
        fast.copy_from(&fast_snap);
        oracle.copy_from(&oracle_snap);
        assert_same_state(&dag, &arch, &fast, &oracle);
        // reset_initial must agree with a fresh initial configuration.
        fast.reset_initial(&dag);
        oracle.reset_initial(&dag);
        assert_same_state(&dag, &arch, &fast, &oracle);
        assert_eq!(fast, Configuration::initial(&dag, &arch));
    }
}

/// The compute check of `Configuration::apply` must take exactly the same
/// accept/reject decisions — with the same first missing parent, and leaving
/// the same state — as the oracle's parent-walking `apply`, across dense
/// random DAGs whose nodes have many parents, cache pressures and interleaved
/// unchecked placements. Parents spread over several bitset words are
/// covered by `state::tests::masked_compute_check_matches_walking_path`.
#[test]
fn masked_compute_path_matches_the_walking_path() {
    let mut rng = StdRng::seed_from_u64(0x3A5C);
    for case in 0..120 {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 2 + case % 5,
                width: 2 + case % 7,
                edge_probability: 0.5,
                ..Default::default()
            },
            9_000 + case as u64,
        );
        let n = dag.num_nodes();
        let arch = Architecture::new(1 + (case % 3), 2.0 + (case % 9) as f64, 1.0, 0.0);
        let mut fast = Configuration::initial(&dag, &arch);
        let mut walk = ReferenceConfiguration::initial(&dag, &arch);
        for _ in 0..200 {
            let node = NodeId::new(rng.gen_range(0..n));
            let proc = ProcId::new(rng.gen_range(0..arch.processors));
            let op = match rng.gen_range(0..4u32) {
                0 => Operation::Compute { proc, node },
                1 => {
                    fast.place_red_unchecked(&dag, proc, node);
                    walk.place_red_unchecked(&dag, proc, node);
                    continue;
                }
                2 => Operation::Delete { proc, node },
                _ => Operation::Load { proc, node },
            };
            assert_eq!(
                fast.apply(&dag, &arch, op),
                walk.apply(&dag, &arch, op),
                "case {case}: {op} diverged"
            );
            assert_same_state(&dag, &arch, &fast, &walk);
        }
    }
}
