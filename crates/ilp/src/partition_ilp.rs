//! ILP-based acyclic bipartitioning (the first step of divide and conquer).
//!
//! The divide-and-conquer scheduler splits the DAG into two parts such that the
//! quotient graph stays acyclic, the parts are balanced, and as few edges as
//! possible cross the cut (Section 6.3 / Appendix C.2). The ILP below is the
//! paper's in *closure form*: one binary variable `x_v` per node (`x_v = 1`
//! means "second part") and no other variable:
//!
//! * acyclicity: for every edge `(u, v)`, `x_u ≤ x_v` (all cut edges point from part
//!   0 to part 1, so the quotient has a single edge `0 → 1`) — side 1 is a
//!   closure of the DAG. A row is emitted only for the edges of the transitive
//!   reduction; the others are implied by a chain of those;
//! * balance: `⌈n/3⌉ ≤ Σ x_v ≤ ⌊2n/3⌋` (each part gets at least a third of the
//!   nodes, as in the paper's recursive splitting, which splits no other
//!   way);
//! * objective: minimise the number of cut edges. Appendix C.2 writes it with
//!   an indicator `y_{uv} ≥ x_v − x_u` per edge; under the acyclicity rows
//!   `x_v − x_u ∈ {0, 1}` *is* that indicator, so the cut is
//!   `Σ_{(u,v) ∈ E} (x_v − x_u) = Σ_v (in-degree(v) − out-degree(v)) · x_v` —
//!   the same feasible splits and the same value on each, with `n` columns
//!   and at most `m + 2` rows instead of `n + m` and `2m + 2`
//!   (`tests/partition_differential.rs` keeps the `y` form as the oracle).
//!   The objective is an integer at every split, which `lp_solver`'s branch
//!   and bound observes and uses to round its bounds up; its relaxations are
//!   all-binary, so it also rounds them by thresholds, and every such
//!   rounding keeps the acyclicity rows.
//!
//! A topological-prefix split warm-starts the solver — since the rework of
//! `lp_solver` around the sparse revised simplex, the warm assignment both
//! prunes branch and bound from the first node *and* crashes the root basis
//! (the prefix split's variables all sit on their bounds, so Phase 1 is
//! skipped entirely). If the solver hits its limits without a solution, the
//! same prefix split is used as a fallback (it is always acyclic and
//! balanced).

use lp_solver::{
    BranchBoundSolver, ConstraintSense, LinExpr, LpProblem, MipStatus, MipStop, SolverLimits,
};
use mbsp_dag::{AcyclicPartition, CompDag, NodeId, TopologicalOrder};
use mbsp_pool::CancelToken;

/// Minimal fraction of the nodes each part of a [`bipartition`] receives: the
/// paper's "each part gets at least a third".
const MIN_FRACTION: f64 = 1.0 / 3.0;

/// Configuration of the bipartitioning step (each part receives at least a
/// third of the nodes).
#[derive(Debug, Clone, Copy)]
pub struct BipartitionConfig {
    /// Limits for the branch-and-bound solver.
    pub limits: SolverLimits,
}

impl Default for BipartitionConfig {
    fn default() -> Self {
        BipartitionConfig {
            limits: SolverLimits {
                max_nodes: 2_000,
                // What bounds a cut of more than a few hundred nodes. The
                // closure-form relaxation pivots at ≈ 12,000/s on a 200–250
                // node split, 1,200–5,000/s at 420 nodes and 700–1,100/s at
                // 480–780, so this is ≈ 2 s, 4–16 s and 18–30 s. The largest
                // cut of `examples/divide_and_conquer` that finishes takes
                // 3,874 pivots; of `repro`'s Table 2 (105 cuts, 10 of which
                // stop here) 12,355.
                max_pivots: 20_000,
                relative_gap: 1e-6,
            },
        }
    }
}

/// The edges of `dag`'s transitive reduction, in `(u, v)` order. An edge
/// `(u, v)` with another path `u → c → … → v` is dropped: the rows
/// `x_u ≤ x_c ≤ … ≤ x_v` imply `x_u ≤ x_v`. One descendant bitset per node
/// (the node included), filled in reverse topological order: `O(n · m / 64)`
/// time and `n² / 8` bytes.
fn transitive_reduction(dag: &CompDag) -> Vec<(NodeId, NodeId)> {
    let n = dag.num_nodes();
    let words = n.div_ceil(64);
    let topo = TopologicalOrder::of(dag);
    let mut reach = vec![0u64; n * words];
    let mut kept = Vec::new();
    for &u in topo.order().iter().rev() {
        // Any other path to a child runs through a child earlier in the order.
        let mut children = dag.children(u).to_vec();
        children.sort_by_key(|&c| topo.position(c));
        let row = u.index() * words;
        for c in children {
            if reach[row + c.index() / 64] >> (c.index() % 64) & 1 == 0 {
                kept.push((u, c));
                for w in 0..words {
                    reach[row + w] |= reach[c.index() * words + w];
                }
            }
        }
        reach[row + u.index() / 64] |= 1 << (u.index() % 64);
    }
    kept.sort_unstable();
    kept
}

/// The LP skeleton both bipartition ILPs share, in closure form, with
/// `fallback` (a two-part prefix split) as warm start: one binary side
/// indicator `x_v` per node (variable `i` belongs to node `i`) and nothing
/// else. Under the acyclicity rows `x_u ≤ x_v` an edge `e = (u, v)` is cut
/// exactly when `x_v − x_u = 1`, so the weighted cut `Σ_e edge_weight(e) ·
/// (x_v − x_u)` is linear in `x`: node `v`'s objective coefficient is its
/// in-weight minus its out-weight. The acyclicity rows are needed only over
/// the [`transitive_reduction`] (they imply the rest), followed by the
/// `side1_count` bounds on `Σ x_v` and, when given, the `side1_mass` bounds on
/// `Σ compute_weight(v) · x_v`.
fn model(
    dag: &CompDag,
    edge_weight: impl Fn(usize) -> f64,
    side1_count: (f64, f64),
    side1_mass: Option<(f64, f64)>,
    fallback: &AcyclicPartition,
) -> (LpProblem, Vec<f64>) {
    let mut net_in_weight = vec![0.0; dag.num_nodes()];
    for (e, (u, v)) in dag.edges().enumerate() {
        let w = edge_weight(e);
        net_in_weight[v.index()] += w;
        net_in_weight[u.index()] -= w;
    }
    let mut problem = LpProblem::new();
    let xs: Vec<_> = (net_in_weight.iter().enumerate())
        .map(|(i, &w)| problem.add_binary(format!("x{i}"), w))
        .collect();
    for (u, v) in transitive_reduction(dag) {
        problem.add_constraint(
            format!("acyc{}_{}", u.index(), v.index()),
            LinExpr::term(xs[u.index()], 1.0).plus(xs[v.index()], -1.0),
            ConstraintSense::LessEqual,
            0.0,
        );
    }
    let mut bound = |name: &str, weight: &dyn Fn(NodeId) -> f64, (lo, hi): (f64, f64)| {
        let mut expr = LinExpr::new();
        for v in dag.nodes() {
            expr.add(xs[v.index()], weight(v));
        }
        problem.add_constraint(
            format!("{name}_lo"),
            expr.clone(),
            ConstraintSense::GreaterEqual,
            lo,
        );
        problem.add_constraint(format!("{name}_hi"), expr, ConstraintSense::LessEqual, hi);
    };
    bound("count", &|_| 1.0, side1_count);
    if let Some(mass) = side1_mass {
        bound("mass", &|v| dag.compute_weight(v), mass);
    }
    let warm = dag.nodes().map(|v| fallback.part_of(v) as f64).collect();
    (problem, warm)
}

/// Solves a [`model`] of `dag` from its warm start and reads the split off the
/// `x_v`; `fallback` when the solver found nothing within `limits` (or
/// returned something that is not an acyclic bipartition). Also reports the
/// branch-and-bound nodes explored and what stopped the solve: `cancel`, when
/// given, stops it at a node pop with its incumbent so far.
pub(crate) fn solve(
    dag: &CompDag,
    (problem, warm): (LpProblem, Vec<f64>),
    fallback: AcyclicPartition,
    limits: SolverLimits,
    cancel: Option<&CancelToken>,
) -> (AcyclicPartition, usize, MipStop) {
    let mut solver = BranchBoundSolver::with_limits(limits).with_warm_start(warm);
    if let Some(token) = cancel {
        solver = solver.with_cancel(token);
    }
    let solution = solver.solve(&problem);
    let split = match solution.status {
        MipStatus::Optimal | MipStatus::Feasible => {
            let assignment: Vec<usize> = (0..dag.num_nodes())
                .map(|i| solution.values[i].round() as usize)
                .collect();
            AcyclicPartition::new(dag, assignment, 2).unwrap_or(fallback)
        }
        _ => fallback,
    };
    (split, solution.nodes_explored, solution.stop)
}

/// Builds the bipartition ILP of `dag` together with its prefix-split warm
/// start. Its `n` variables are the binary node-side indicators `x_v`
/// (variable `i` belongs to node `i`). Shared by [`bipartition`] and the recorded
/// `BENCH_solver.json` benchmark, so both always measure the exact production
/// formulation.
pub fn bipartition_model(dag: &CompDag) -> (LpProblem, Vec<f64>) {
    let n = dag.num_nodes() as f64;
    let min_nodes = (n * MIN_FRACTION).ceil().max(1.0);
    let sizes = (min_nodes, n - min_nodes);
    model(dag, |_| 1.0, sizes, None, &prefix_split(dag))
}

/// Computes an acyclic bipartition of `dag` (two parts) minimising the cut.
///
/// Falls back to a balanced topological-prefix split when the ILP solver cannot
/// find a solution within its limits or the DAG is too small to split.
pub fn bipartition(dag: &CompDag, config: &BipartitionConfig) -> AcyclicPartition {
    if dag.num_nodes() < 2 {
        return AcyclicPartition::trivial(dag);
    }
    let lp = bipartition_model(dag);
    solve(dag, lp, prefix_split(dag), config.limits, None).0
}

/// Balanced topological-prefix split: the first half of a topological order forms
/// part 0. Always acyclic; used as warm start and fallback.
pub fn prefix_split(dag: &CompDag) -> AcyclicPartition {
    let n = dag.num_nodes();
    let topo = TopologicalOrder::of(dag);
    let half = n / 2;
    let mut assignment = vec![0usize; n];
    for (i, &v) in topo.order().iter().enumerate() {
        assignment[v.index()] = if i < half { 0 } else { 1 };
    }
    AcyclicPartition::new(dag, assignment, 2).expect("prefix split is always acyclic")
}

/// Configuration of the weight-aware bipartitioning step used by the sharded
/// search ([`crate::shard::weighted_shards`]).
///
/// Unlike [`BipartitionConfig`], balance is expressed in *compute mass* (the sum
/// of node compute weights per side) rather than node count, and each edge
/// carries an explicit cut penalty (for quotient graphs: the number of original
/// DAG edges the quotient edge aggregates).
#[derive(Debug, Clone, Copy)]
pub struct WeightedBipartitionConfig {
    /// Fraction of the total compute mass the second part (side 1) should get.
    pub side1_mass_fraction: f64,
    /// Relative tolerance on the mass target: side 1 must end up within
    /// `target * (1 ± mass_tolerance)` (clamped to `[0, total]`).
    pub mass_tolerance: f64,
    /// Minimal number of nodes on side 0 (guarantees non-empty parts downstream).
    pub min_side0_nodes: usize,
    /// Minimal number of nodes on side 1.
    pub min_side1_nodes: usize,
    /// Limits for the branch-and-bound solver.
    pub limits: SolverLimits,
}

impl Default for WeightedBipartitionConfig {
    fn default() -> Self {
        WeightedBipartitionConfig {
            side1_mass_fraction: 0.5,
            mass_tolerance: 0.15,
            min_side0_nodes: 1,
            min_side1_nodes: 1,
            limits: SolverLimits {
                max_nodes: 2_000,
                // 4.5× the largest run-quotient solve measured: 10,998 pivots,
                // a 30-run split of `spmv_N2000` cut at `max_nodes`. The
                // largest that finishes (a served 32-run root split) takes
                // 2,335; a 32-run model pivots at ≈ 170,000/s, a 48-run one
                // at ≈ 20,000/s.
                max_pivots: 50_000,
                relative_gap: 1e-6,
            },
        }
    }
}

/// Builds the weight-aware bipartition ILP of `dag` together with its
/// mass-balanced prefix-split warm start. `edge_weights[e]` is the objective
/// coefficient of cutting the `e`-th edge of `dag.edges()` (for run-quotient
/// graphs this is the multiplicity of the aggregated original edges). Its `n`
/// variables are the binary node-side indicators `x_v`, exactly as in
/// [`bipartition_model`].
pub fn weighted_bipartition_model(
    dag: &CompDag,
    edge_weights: &[f64],
    config: &WeightedBipartitionConfig,
) -> (LpProblem, Vec<f64>) {
    // Node-count floor per side (keeps every downstream shard non-empty even when
    // the compute mass is concentrated on a few nodes).
    let min_side1 = config.min_side1_nodes.max(1) as f64;
    let max_side1 = (dag.num_nodes() as f64) - config.min_side0_nodes.max(1) as f64;
    // Compute-mass balance around the target fraction.
    let total_mass: f64 = dag.nodes().map(|v| dag.compute_weight(v)).sum();
    let mass = (total_mass > 0.0).then(|| {
        let target = total_mass * config.side1_mass_fraction;
        let lo = (target * (1.0 - config.mass_tolerance)).max(0.0);
        let hi = (target * (1.0 + config.mass_tolerance))
            .min(total_mass)
            .max(lo);
        (lo, hi)
    });
    model(
        dag,
        |e| edge_weights[e],
        (min_side1, max_side1),
        mass,
        &weighted_prefix_split(dag, config),
    )
}

/// Computes a weight-aware acyclic bipartition of `dag` minimising the weighted
/// cut subject to compute-mass balance (see [`WeightedBipartitionConfig`]).
///
/// Falls back to the mass-balanced topological-prefix split when the solver
/// cannot find a solution within its limits (the mass window plus the count
/// floors can genuinely be infeasible — the prefix split then provides the
/// closest achievable balance) or the DAG is too small to split.
pub fn weighted_bipartition(
    dag: &CompDag,
    edge_weights: &[f64],
    config: &WeightedBipartitionConfig,
) -> AcyclicPartition {
    if dag.num_nodes() < config.min_side0_nodes.max(1) + config.min_side1_nodes.max(1) {
        return AcyclicPartition::trivial(dag);
    }
    let lp = weighted_bipartition_model(dag, edge_weights, config);
    let fallback = weighted_prefix_split(dag, config);
    solve(dag, lp, fallback, config.limits, None).0
}

/// Mass-balanced topological-prefix split: cuts a topological order at the
/// prefix whose suffix mass is closest to the configured side-1 target, subject
/// to the per-side node-count floors. Always acyclic; used as warm start and
/// fallback for [`weighted_bipartition`]. Ties prefer the earlier cut.
pub fn weighted_prefix_split(
    dag: &CompDag,
    config: &WeightedBipartitionConfig,
) -> AcyclicPartition {
    let n = dag.num_nodes();
    let min0 = config.min_side0_nodes.max(1);
    let min1 = config.min_side1_nodes.max(1);
    if n < min0 + min1 {
        return AcyclicPartition::trivial(dag);
    }
    let topo = TopologicalOrder::of(dag);
    let total_mass: f64 = dag.nodes().map(|v| dag.compute_weight(v)).sum();
    let target = total_mass * config.side1_mass_fraction;
    // suffix_mass(c) = mass of positions c..n; choose the cut position minimising
    // the distance to the target.
    let mut best_cut = min0;
    let mut best_err = f64::INFINITY;
    let mut suffix = total_mass;
    for (c, &v) in topo.order().iter().enumerate() {
        if c >= min0 && c <= n - min1 {
            let err = (suffix - target).abs();
            if err < best_err - 1e-12 {
                best_err = err;
                best_cut = c;
            }
        }
        suffix -= dag.compute_weight(v);
    }
    let mut assignment = vec![0usize; n];
    for (i, &v) in topo.order().iter().enumerate() {
        assignment[v.index()] = if i < best_cut { 0 } else { 1 };
    }
    AcyclicPartition::new(dag, assignment, 2).expect("prefix split is always acyclic")
}

/// Recursively bipartitions `dag` until every part has at most `max_part_size`
/// nodes. Returns the final acyclic partition.
pub fn recursive_partition(
    dag: &CompDag,
    max_part_size: usize,
    config: &BipartitionConfig,
) -> AcyclicPartition {
    let mut partition = AcyclicPartition::trivial(dag);
    loop {
        // Find the largest part exceeding the size limit.
        let sizes = partition.part_sizes();
        let target = sizes
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s > max_part_size)
            .max_by_key(|&(_, &s)| s)
            .map(|(i, _)| i);
        let Some(target) = target else { break };
        let nodes = partition.parts()[target].clone();
        let sub = mbsp_dag::SubDag::induced(dag, &nodes, "part").expect("valid selection");
        let sub_split = bipartition(sub.dag(), config);
        // Map the sub-split back to the parent graph and refine the partition.
        let side_of = |v: NodeId| -> usize {
            match sub.to_local(v) {
                Some(local) => sub_split.part_of(local),
                None => 0,
            }
        };
        match partition.split_part(dag, target, side_of) {
            Ok(refined) => partition = refined,
            Err(_) => break, // cannot refine further without breaking acyclicity
        }
        // Guard against a degenerate split that made no progress.
        let new_sizes = partition.part_sizes();
        if new_sizes.contains(&0) || new_sizes == sizes {
            break;
        }
    }
    partition
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbsp_gen::random::{random_layered_dag, RandomDagConfig};

    #[test]
    fn bipartition_of_a_layered_dag_is_balanced_and_acyclic() {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 6,
                width: 8,
                ..Default::default()
            },
            1,
        );
        let part = bipartition(&dag, &BipartitionConfig::default());
        assert_eq!(part.num_parts(), 2);
        assert!(part.quotient_is_acyclic(&dag));
        let sizes = part.part_sizes();
        let n = dag.num_nodes();
        assert!(sizes[0] >= n / 3 && sizes[1] >= n / 3, "sizes {sizes:?}");
    }

    #[test]
    fn ilp_cut_is_not_worse_than_the_prefix_split() {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 5,
                width: 6,
                edge_probability: 0.3,
                ..Default::default()
            },
            7,
        );
        let cfg = BipartitionConfig::default();
        let ilp = bipartition(&dag, &cfg);
        let prefix = prefix_split(&dag);
        assert!(ilp.cut_edges(&dag) <= prefix.cut_edges(&dag));
    }

    #[test]
    fn chain_is_cut_once() {
        // A simple chain: the optimal balanced acyclic bipartition cuts one edge.
        let mut b = mbsp_dag::DagBuilder::new("chain");
        let nodes = b.add_unit_nodes(12).unwrap();
        b.add_chain(&nodes).unwrap();
        let dag = b.build();
        let part = bipartition(&dag, &BipartitionConfig::default());
        assert_eq!(part.cut_edges(&dag), 1);
    }

    #[test]
    fn recursive_partition_respects_the_size_limit() {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 8,
                width: 8,
                ..Default::default()
            },
            3,
        );
        let part = recursive_partition(&dag, 20, &BipartitionConfig::default());
        assert!(part.quotient_is_acyclic(&dag));
        for size in part.part_sizes() {
            assert!(size <= 20, "part of size {size} exceeds the limit");
            assert!(size > 0);
        }
        // Every node is assigned.
        assert_eq!(part.assignment().len(), dag.num_nodes());
    }

    #[test]
    fn tiny_dags_are_left_alone() {
        let mut b = mbsp_dag::DagBuilder::new("one");
        b.add_unit_node().unwrap();
        let dag = b.build();
        let part = bipartition(&dag, &BipartitionConfig::default());
        assert_eq!(part.num_parts(), 1);
    }

    #[test]
    fn weighted_bipartition_balances_mass_not_node_count() {
        // A chain where the last two nodes carry almost all the mass: a node-count
        // split would put ~half the nodes on each side, but the mass-balanced split
        // must cut late so that side 1 holds roughly half the *mass*.
        let mut b = mbsp_dag::DagBuilder::new("heavy-tail");
        let light = b.add_unit_nodes(10).unwrap();
        b.add_chain(&light).unwrap();
        let h1 = b.add_node(50.0, 1.0).unwrap();
        let h2 = b.add_node(50.0, 1.0).unwrap();
        b.add_edge(light[9], h1).unwrap();
        b.add_edge(h1, h2).unwrap();
        let dag = b.build();
        let weights = vec![1.0; dag.edges().count()];
        let part = weighted_bipartition(&dag, &weights, &WeightedBipartitionConfig::default());
        assert_eq!(part.num_parts(), 2);
        assert!(part.quotient_is_acyclic(&dag));
        let mass1: f64 = dag
            .nodes()
            .filter(|&v| part.part_of(v) == 1)
            .map(|v| dag.compute_weight(v))
            .sum();
        let total: f64 = dag.nodes().map(|v| dag.compute_weight(v)).sum();
        assert!(
            (mass1 - total * 0.5).abs() <= total * 0.2,
            "side-1 mass {mass1} should sit near half of {total}"
        );
    }

    #[test]
    fn weighted_bipartition_prefers_cheap_cuts() {
        // Two parallel chains joined at a single bridge edge of huge weight versus
        // many light edges elsewhere: the solver must avoid cutting the bridge.
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 6,
                width: 5,
                ..Default::default()
            },
            11,
        );
        let m = dag.edges().count();
        // Uniform weights first: record the baseline weighted cut.
        let cfg = WeightedBipartitionConfig::default();
        let uniform = weighted_bipartition(&dag, &vec![1.0; m], &cfg);
        let fallback = weighted_prefix_split(&dag, &cfg);
        let cut_cost = |p: &AcyclicPartition, w: &[f64]| -> f64 {
            dag.edges()
                .enumerate()
                .filter(|&(_, (u, v))| p.part_of(u) != p.part_of(v))
                .map(|(e, _)| w[e])
                .sum()
        };
        let w = vec![1.0; m];
        assert!(cut_cost(&uniform, &w) <= cut_cost(&fallback, &w) + 1e-9);
    }

    #[test]
    fn weighted_prefix_split_respects_count_floors() {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 4,
                width: 4,
                ..Default::default()
            },
            5,
        );
        let cfg = WeightedBipartitionConfig {
            min_side0_nodes: 3,
            min_side1_nodes: 5,
            ..Default::default()
        };
        let part = weighted_prefix_split(&dag, &cfg);
        let sizes = part.part_sizes();
        assert!(sizes[0] >= 3 && sizes[1] >= 5, "sizes {sizes:?}");
    }
}
