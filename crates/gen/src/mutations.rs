//! Seeded mutation-stream generator for the incremental re-scheduling engine.
//!
//! [`mutation_stream`] turns any benchmark DAG into a reproducible stream of
//! [`DagDelta`]s — reweights, edge insertions/removals, node additions and
//! removals — that is **valid by construction**: the generator applies every
//! candidate delta to a private mirror of the graph (via the same
//! [`CompDag::apply_delta`] path consumers use) and only emits the ones the
//! mirror accepts, so replaying the returned stream in order never fails.
//!
//! The streams preserve the structural conventions of the benchmark families:
//!
//! * **sources stay sources-only inputs** — a reweight never changes a source's
//!   compute weight, and an edge removal never strips the last parent of a
//!   non-source (which would turn a compute-weighted node into an input);
//! * **feasibility is preserved** — no delta pushes any node's compute
//!   footprint above the graph's minimal feasible cache size `r₀` at stream
//!   start, so an instance built with `r ≥ r₀` stays schedulable across the
//!   whole stream;
//! * **node removals are self-contained** — the incident `RemoveEdge` deltas
//!   are emitted before the `RemoveNode`, matching the isolation requirement
//!   of [`CompDag::apply_delta`].
//!
//! [`MutationStreamConfig::locality`] restricts the mutated nodes to a
//! contiguous window of the topological order, which models the streaming
//! setting (updates arrive at the frontier of the computation) and is what
//! makes dirty-cone repair profitable: a localized delta stream dirties only
//! a few of the topological shards.

use mbsp_dag::{CompDag, DagDelta, DagError, NodeId, NodeWeights, PkOrder};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Why a mutation stream could not be generated. Returned by
/// [`try_mutation_stream`]; the panicking [`mutation_stream`] wrapper keeps
/// the original assert-style contract for test-internal callers.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// `config.ops == 0`.
    EmptyStream,
    /// The source DAG has no nodes.
    EmptyGraph,
    /// `config.locality` is outside `(0, 1]`.
    BadLocality(f64),
    /// The generator exhausted its attempt budget or its candidate window
    /// without emitting a single delta (the footprint cap `r₀` or the family
    /// invariants leave no valid mutation).
    Starved,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::EmptyStream => write!(f, "an empty stream is not a stream"),
            StreamError::EmptyGraph => write!(f, "cannot mutate an empty graph"),
            StreamError::BadLocality(l) => {
                write!(f, "locality {l} must be a fraction in (0, 1]")
            }
            StreamError::Starved => write!(
                f,
                "mutation stream generation starved (cap or invariants too tight)"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// Reweights and new nodes draw compute weights from `{1..MAX_COMPUTE}`.
const MAX_COMPUTE: u32 = 3;
/// Reweights and new nodes draw memory weights from `{1..MAX_MEMORY}`.
const MAX_MEMORY: u32 = 5;

/// Configuration of a [`mutation_stream`]. Weights are drawn from fixed
/// ranges (compute `1..=3`, memory `1..=5`) and the footprint cap is always
/// the graph's `r₀` at stream start.
#[derive(Debug, Clone, Copy)]
pub struct MutationStreamConfig {
    /// Number of deltas to emit (compound operations — node add/remove — count
    /// each of their deltas against this budget).
    pub ops: usize,
    /// When false, the stream is reweight-only: node ids stay stable, so the
    /// same deltas replay into independently built schedulers (`mbsp_ilp`'s
    /// repair determinism suite).
    pub structural: bool,
    /// Fraction `(0, 1]` of the nodes eligible for mutation, taken as one
    /// contiguous window of the topological order; `1.0` means the whole graph.
    pub locality: f64,
}

impl Default for MutationStreamConfig {
    fn default() -> Self {
        MutationStreamConfig {
            ops: 32,
            structural: true,
            locality: 1.0,
        }
    }
}

/// Generates a seeded, replayable [`DagDelta`] stream for `dag`.
///
/// Deterministic in `(dag, config, seed)`. The returned deltas apply cleanly
/// in order via [`CompDag::apply_delta`] starting from `dag` (with a
/// [`PkOrder`] built by [`PkOrder::of_dag`]); the generator maintains its own
/// mirror and silently skips candidate mutations that would close a cycle,
/// duplicate an edge or violate the invariants listed in the module docs.
///
/// # Panics
/// Panics if `config.ops == 0`, `dag` is empty, or `config.locality` is not in
/// `(0, 1]`. Externally-driven callers (configs or graphs arriving from files
/// or over a boundary) should use [`try_mutation_stream`] instead.
pub fn mutation_stream(dag: &CompDag, config: &MutationStreamConfig, seed: u64) -> Vec<DagDelta> {
    try_mutation_stream(dag, config, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// The total variant of [`mutation_stream`]: every invalid input or starved
/// generation surfaces as a typed [`StreamError`] instead of a panic.
pub fn try_mutation_stream(
    dag: &CompDag,
    config: &MutationStreamConfig,
    seed: u64,
) -> Result<Vec<DagDelta>, StreamError> {
    if config.ops == 0 {
        return Err(StreamError::EmptyStream);
    }
    if dag.is_empty() {
        return Err(StreamError::EmptyGraph);
    }
    if !(config.locality > 0.0 && config.locality <= 1.0) {
        return Err(StreamError::BadLocality(config.locality));
    }
    let mut mirror = dag.clone();
    let mut order = PkOrder::of_dag(&mirror);
    let cap = mirror.minimal_cache_size().max(1.0);
    // Whether `delta` would raise a compute footprint past the stream's cap.
    let exceeds = |dag: &CompDag, delta: &DagDelta| {
        dag.footprint_after(delta)
            .is_some_and(|(_, footprint)| footprint > cap + 1e-9)
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = mirror.num_nodes();
    let mut pool: Vec<NodeId> = if config.locality >= 1.0 {
        mirror.nodes().collect()
    } else {
        let topo = mbsp_dag::TopologicalOrder::of(&mirror);
        let w = ((n as f64 * config.locality).ceil() as usize).clamp(1, n);
        let start = rng.gen_range(0..=(n - w));
        topo.order()[start..start + w].to_vec()
    };

    let mut deltas: Vec<DagDelta> = Vec::with_capacity(config.ops);
    let mut attempts = 0usize;
    let max_attempts = config.ops * 64 + 256;
    while deltas.len() < config.ops && attempts < max_attempts && !pool.is_empty() {
        attempts += 1;
        let roll = if config.structural {
            rng.gen_range(0..100u32)
        } else {
            0
        };
        let pick = rng.gen_range(0..pool.len());
        let v = pool[pick];
        match roll {
            // Reweight: fresh weights, sources keep their compute weight.
            0..=34 => {
                let compute = if mirror.is_source(v) {
                    mirror.compute_weight(v)
                } else {
                    rng.gen_range(1..=MAX_COMPUTE) as f64
                };
                let memory = rng.gen_range(1..=MAX_MEMORY) as f64;
                let delta = DagDelta::Reweight {
                    node: v,
                    weights: NodeWeights::new(compute, memory),
                };
                if exceeds(&mirror, &delta) {
                    continue;
                }
                mirror
                    .apply_delta(&delta, &mut order)
                    .expect("pre-validated reweight");
                deltas.push(delta);
            }
            // Edge insertion between two pool nodes; cycles are skipped.
            35..=59 => {
                let u = pool[rng.gen_range(0..pool.len())];
                if u == v || mirror.has_edge(u, v) {
                    continue;
                }
                let delta = DagDelta::AddEdge { from: u, to: v };
                if exceeds(&mirror, &delta) {
                    continue;
                }
                match mirror.apply_delta(&delta, &mut order) {
                    Ok(_) => deltas.push(delta),
                    Err(DagError::CycleDetected { .. }) => continue,
                    Err(e) => unreachable!("pre-validated edge insertion failed: {e}"),
                }
            }
            // Edge removal, keeping every non-source at least one parent.
            60..=74 => {
                let outd = mirror.out_degree(v);
                if outd == 0 {
                    continue;
                }
                let c = mirror.children(v)[rng.gen_range(0..outd)];
                if mirror.in_degree(c) <= 1 {
                    continue;
                }
                let delta = DagDelta::RemoveEdge { from: v, to: c };
                mirror
                    .apply_delta(&delta, &mut order)
                    .expect("the edge was just observed");
                deltas.push(delta);
            }
            // Node addition, immediately wired under a pool parent so the new
            // node is a proper computed sink rather than a floating input.
            75..=87 => {
                if deltas.len() + 2 > config.ops {
                    continue;
                }
                let memory = rng.gen_range(1..=MAX_MEMORY) as f64;
                if memory + mirror.memory_weight(v) > cap + 1e-9 {
                    continue;
                }
                let compute = rng.gen_range(1..=MAX_COMPUTE) as f64;
                let add = DagDelta::AddNode {
                    weights: NodeWeights::new(compute, memory),
                    label: None,
                };
                let eff = mirror
                    .apply_delta(&add, &mut order)
                    .expect("a fresh node always fits");
                let fresh = eff.added.expect("AddNode reports the new id");
                deltas.push(add);
                let wire = DagDelta::AddEdge { from: v, to: fresh };
                mirror
                    .apply_delta(&wire, &mut order)
                    .expect("an edge onto a fresh sink cannot close a cycle");
                deltas.push(wire);
                pool.push(fresh);
            }
            // Node removal: incident edges first, then the (isolated) node.
            _ => {
                if mirror.num_nodes() <= 2 {
                    continue;
                }
                let (ind, outd) = (mirror.in_degree(v), mirror.out_degree(v));
                if ind + outd > 4 || deltas.len() + ind + outd + 1 > config.ops {
                    continue;
                }
                if mirror.children(v).iter().any(|&c| mirror.in_degree(c) <= 1) {
                    continue;
                }
                let parents: Vec<NodeId> = mirror.parents(v).to_vec();
                let children: Vec<NodeId> = mirror.children(v).to_vec();
                for &p in &parents {
                    let delta = DagDelta::RemoveEdge { from: p, to: v };
                    mirror
                        .apply_delta(&delta, &mut order)
                        .expect("incident edge exists");
                    deltas.push(delta);
                }
                for &c in &children {
                    let delta = DagDelta::RemoveEdge { from: v, to: c };
                    mirror
                        .apply_delta(&delta, &mut order)
                        .expect("incident edge exists");
                    deltas.push(delta);
                }
                let old_last = NodeId::new(mirror.num_nodes() - 1);
                let delta = DagDelta::RemoveNode { node: v };
                mirror
                    .apply_delta(&delta, &mut order)
                    .expect("the node was just isolated");
                deltas.push(delta);
                // Mirror the swap-remove id semantics in the candidate pool.
                pool.retain(|&x| x != v);
                if old_last != v {
                    for x in pool.iter_mut() {
                        if *x == old_last {
                            *x = v;
                        }
                    }
                }
            }
        }
    }
    if deltas.is_empty() {
        return Err(StreamError::Starved);
    }
    Ok(deltas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_layered_dag, RandomDagConfig};

    fn base_dag() -> CompDag {
        random_layered_dag(
            &RandomDagConfig {
                layers: 6,
                width: 10,
                edge_probability: 0.2,
                ..Default::default()
            },
            11,
        )
    }

    #[test]
    fn streams_are_deterministic_and_replayable() {
        let dag = base_dag();
        let config = MutationStreamConfig {
            ops: 40,
            ..Default::default()
        };
        let a = mutation_stream(&dag, &config, 3);
        let b = mutation_stream(&dag, &config, 3);
        assert_eq!(a, b, "same seed must give the same stream");
        let c = mutation_stream(&dag, &config, 4);
        assert_ne!(a, c, "different seeds should diverge");
        // Replay cleanly on a fresh copy.
        let mut replay = dag.clone();
        let mut order = PkOrder::of_dag(&replay);
        for delta in &a {
            replay.apply_delta(delta, &mut order).unwrap();
        }
        assert!(replay.is_acyclic());
        assert!(order.is_valid_for(&replay));
    }

    #[test]
    fn streams_preserve_family_invariants() {
        let dag = base_dag();
        let cap = dag.minimal_cache_size();
        let config = MutationStreamConfig {
            ops: 60,
            ..Default::default()
        };
        for seed in 0..5u64 {
            let mut replay = dag.clone();
            let mut order = PkOrder::of_dag(&replay);
            for delta in mutation_stream(&dag, &config, seed) {
                replay.apply_delta(&delta, &mut order).unwrap();
                // Feasibility: the cap derived at stream start is never exceeded.
                assert!(
                    replay.minimal_cache_size() <= cap + 1e-9,
                    "seed {seed}: footprint cap violated"
                );
            }
            // Every source still has compute weight 0 (inputs are not computed).
            for v in replay.source_nodes() {
                assert_eq!(
                    replay.compute_weight(v),
                    0.0,
                    "seed {seed}: a compute-weighted node became a source"
                );
            }
        }
    }

    #[test]
    fn reweight_only_streams_keep_ids_stable() {
        let dag = base_dag();
        let config = MutationStreamConfig {
            ops: 25,
            structural: false,
            ..Default::default()
        };
        let stream = mutation_stream(&dag, &config, 9);
        assert_eq!(stream.len(), 25);
        assert!(stream
            .iter()
            .all(|d| matches!(d, DagDelta::Reweight { .. })));
    }

    #[test]
    fn invalid_inputs_surface_as_typed_errors() {
        let dag = base_dag();
        let empty_ops = MutationStreamConfig {
            ops: 0,
            ..Default::default()
        };
        assert_eq!(
            try_mutation_stream(&dag, &empty_ops, 1),
            Err(StreamError::EmptyStream)
        );
        let bad_locality = MutationStreamConfig {
            locality: 1.5,
            ..Default::default()
        };
        assert_eq!(
            try_mutation_stream(&dag, &bad_locality, 1),
            Err(StreamError::BadLocality(1.5))
        );
    }

    #[test]
    fn a_window_without_a_valid_mutation_starves() {
        // `a → b` with fractional memories: `r₀ = 0.75` lifts to the cap 1.0,
        // yet every drawn memory weight (≥ 1) pushes `b`'s footprint past it.
        // A one-delta budget rules out node additions, two nodes rule out a
        // removal, and the one-node window leaves no second edge endpoint.
        let mut b = mbsp_dag::DagBuilder::new("tight");
        let a = b.add_node(0.0, 0.5).unwrap();
        let sink = b.add_node(1.0, 0.25).unwrap();
        b.add_edge(a, sink).unwrap();
        let dag = b.build();
        let config = MutationStreamConfig {
            ops: 1,
            locality: 0.5,
            ..Default::default()
        };
        for seed in 0..8 {
            assert_eq!(
                try_mutation_stream(&dag, &config, seed),
                Err(StreamError::Starved)
            );
        }
    }

    #[test]
    fn locality_restricts_the_mutated_window() {
        let dag = base_dag();
        let n = dag.num_nodes();
        let config = MutationStreamConfig {
            ops: 20,
            structural: false,
            locality: 0.2,
        };
        let stream = mutation_stream(&dag, &config, 5);
        let mut touched: Vec<usize> = stream
            .iter()
            .map(|d| match d {
                DagDelta::Reweight { node, .. } => node.index(),
                _ => unreachable!("reweight-only stream"),
            })
            .collect();
        touched.sort_unstable();
        touched.dedup();
        assert!(
            touched.len() <= (n as f64 * 0.2).ceil() as usize,
            "locality window leaked: {} distinct nodes touched",
            touched.len()
        );
    }
}
