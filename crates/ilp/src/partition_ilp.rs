//! ILP-based acyclic bipartitioning: every cut of divide and conquer and
//! every split of the sharded search's run quotient.
//!
//! One model serves both. It splits a DAG into two parts such that the
//! quotient graph stays acyclic, the parts are balanced, and the cut edges
//! weigh as little as possible (Section 6.3 / Appendix C.2). What "balanced"
//! means is data the caller computes per split, a [`Balance`]: the paper's
//! thirds for divide and conquer, a compute-mass window with node-count
//! floors for a shard split. The ILP is the paper's in *closure form*: one
//! binary variable `x_v` per node (`x_v = 1` means "second part") and no
//! other variable:
//!
//! * acyclicity: for every edge `(u, v)`, `x_u ≤ x_v` (all cut edges point from part
//!   0 to part 1, so the quotient has a single edge `0 → 1`) — side 1 is a
//!   closure of the DAG. A row is emitted only for the edges of the transitive
//!   reduction; the others are implied by a chain of those;
//! * balance: node-count floors `min₁ ≤ Σ x_v ≤ n − min₀` — under
//!   [`Balance::Thirds`] `⌈n/3⌉` each, as in the paper's recursive splitting,
//!   which splits no other way — and under [`Balance::Mass`] also a window
//!   on side 1's compute mass `Σ compute_weight(v) · x_v`;
//! * objective: minimise the weight of the cut edges. Appendix C.2 writes it
//!   with an indicator `y_{uv} ≥ x_v − x_u` per edge; under the acyclicity
//!   rows `x_v − x_u ∈ {0, 1}` *is* that indicator, so the cut is
//!   `Σ_{(u,v) ∈ E} w_{uv} (x_v − x_u) = Σ_v (in-weight(v) − out-weight(v)) · x_v`
//!   — the same feasible splits and the same value on each, with `n` columns
//!   and at most `m + 4` rows instead of `n + m` and `2m + 4`
//!   (`tests/partition_differential.rs` keeps the `y` form as the oracle).
//!   With integer edge weights the objective is an integer at every split,
//!   which `lp_solver`'s branch and bound observes and uses to round its
//!   bounds up; its relaxations are all-binary, so it also rounds them by
//!   thresholds, and every such rounding keeps the acyclicity rows.
//!
//! A topological-prefix split ([`prefix_split`]) warm-starts the solver —
//! since the rework of `lp_solver` around the sparse revised simplex, the
//! warm assignment both prunes branch and bound from the first node *and*
//! crashes the root basis (the prefix split's variables all sit on their
//! bounds, so Phase 1 is skipped entirely). If the solver hits its limits
//! without a solution, the same prefix split is used as a fallback (it is
//! always acyclic and keeps the node-count floors).

use lp_solver::{
    BranchBoundSolver, ConstraintSense, LinExpr, LpProblem, MipStatus, MipStop, SolverLimits,
};
use mbsp_dag::{AcyclicPartition, CompDag, NodeId, TopologicalOrder};
use mbsp_pool::CancelToken;

/// The budget of every cut of [`recursive_partition`] (divide and conquer).
pub const DNC_SPLIT_LIMITS: SolverLimits = SolverLimits {
    max_nodes: 2_000,
    // What bounds a cut of more than a few hundred nodes. The closure-form
    // relaxation pivots at ≈ 12,000/s on a 200–250 node split, 1,200–5,000/s
    // at 420 nodes and 700–1,100/s at 480–780, so this is ≈ 2 s, 4–16 s and
    // 18–30 s. The largest cut of `examples/divide_and_conquer` that
    // finishes takes 3,874 pivots; of `repro`'s Table 2 (105 cuts, 10 of
    // which stop here) 12,355.
    max_pivots: 20_000,
};

/// The budget of every run-quotient split of the sharded search
/// ([`crate::weighted_shards`]).
pub const SHARD_SPLIT_LIMITS: SolverLimits = SolverLimits {
    max_nodes: 2_000,
    // 4.5× the largest run-quotient solve measured: 10,998 pivots, a 30-run
    // split of `spmv_N2000` cut at `max_nodes`. The largest that finishes (a
    // served 32-run root split) takes 2,335; a 32-run model pivots at
    // ≈ 170,000/s, a 48-run one at ≈ 20,000/s.
    max_pivots: 50_000,
};

/// What a [`bipartition`] keeps balanced: data the caller computes for each
/// split, not a setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Balance {
    /// Section 6.3: each side gets at least `⌈n/3⌉` nodes, and the prefix
    /// split cuts a topological order at half the nodes.
    Thirds,
    /// A shard split: side 1 gets `fraction` of the compute mass, within
    /// `fraction · total · (1 ± tolerance)` (clamped to `[0, total]`), and
    /// side `s` at least `min_side{s}` nodes (at least one either way). The
    /// prefix split cuts where the suffix mass is closest to the target.
    Mass {
        /// Fraction of the total compute mass side 1 should get.
        fraction: f64,
        /// Relative tolerance on side 1's mass target.
        tolerance: f64,
        /// Minimal number of nodes on side 0.
        min_side0: usize,
        /// Minimal number of nodes on side 1.
        min_side1: usize,
    },
}

impl Balance {
    /// The node-count floors `(side 0, side 1)` of an `n`-node split.
    fn floors(&self, n: usize) -> (usize, usize) {
        let third = n.div_ceil(3).max(1);
        match *self {
            Balance::Thirds => (third, third),
            Balance::Mass {
                min_side0,
                min_side1,
                ..
            } => (min_side0.max(1), min_side1.max(1)),
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

/// Builds the bipartition ILP of `dag` under `balance` together with its
/// [`prefix_split`] warm start. `edge_weights[e]` is the cost of cutting the
/// `e`-th edge of `dag.edges()` (for run-quotient graphs, the multiplicity of
/// the aggregated original edges). Its `n` variables are the binary side
/// indicators `x_v` (variable `i` belongs to node `i`). Under the acyclicity
/// rows `x_u ≤ x_v` an edge `e = (u, v)` is cut exactly when `x_v − x_u = 1`,
/// so the weighted cut is linear in `x`: node `v`'s objective coefficient is
/// its in-weight minus its out-weight. The acyclicity rows are needed only
/// over the transitive reduction (they imply the rest), followed by the
/// node-count bounds on `Σ x_v` and, under [`Balance::Mass`] with mass to
/// balance, the mass bounds on `Σ compute_weight(v) · x_v`. Shared by
/// [`bipartition`], the sharded search and the recorded `BENCH_solver.json`
/// benchmark, so all of them solve the exact production formulation.
pub fn bipartition_model(
    dag: &CompDag,
    edge_weights: &[f64],
    balance: &Balance,
) -> (LpProblem, Vec<f64>) {
    let mut net_in_weight = vec![0.0; dag.num_nodes()];
    for ((u, v), &w) in dag.edges().zip(edge_weights) {
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
    let (min0, min1) = balance.floors(dag.num_nodes());
    let n = dag.num_nodes() as f64;
    bound("count", &|_| 1.0, (min1 as f64, n - min0 as f64));
    if let Balance::Mass {
        fraction,
        tolerance,
        ..
    } = *balance
    {
        let total: f64 = dag.nodes().map(|v| dag.compute_weight(v)).sum();
        if total > 0.0 {
            let target = total * fraction;
            let lo = (target * (1.0 - tolerance)).max(0.0);
            let hi = (target * (1.0 + tolerance)).min(total).max(lo);
            bound("mass", &|v| dag.compute_weight(v), (lo, hi));
        }
    }
    let prefix = prefix_split(dag, balance);
    let warm = dag.nodes().map(|v| prefix.part_of(v) as f64).collect();
    (problem, warm)
}

/// Solves a [`bipartition_model`] of `dag` from its warm start and reads the
/// split off the `x_v`; the warm start's split when the solver found nothing
/// within `limits` (or returned something that is not an acyclic
/// bipartition). Also reports the branch-and-bound nodes explored and what
/// stopped the solve: `cancel`, when given, stops it at a node pop with its
/// incumbent so far. The warm start must be a two-part split — `dag` has at
/// least as many nodes as the balance's floors ask for.
pub(crate) fn solve(
    dag: &CompDag,
    (problem, warm): (LpProblem, Vec<f64>),
    limits: SolverLimits,
    cancel: Option<&CancelToken>,
) -> (AcyclicPartition, usize, MipStop) {
    let sides = |values: &[f64]| values.iter().map(|x| x.round() as usize).collect();
    let fallback = AcyclicPartition::new(dag, sides(&warm), 2).expect("prefix split is acyclic");
    let mut solver = BranchBoundSolver::with_limits(limits).with_warm_start(warm);
    if let Some(token) = cancel {
        solver = solver.with_cancel(token);
    }
    let solution = solver.solve(&problem);
    let split = match solution.status {
        MipStatus::Optimal | MipStatus::Feasible => {
            AcyclicPartition::new(dag, sides(&solution.values[..dag.num_nodes()]), 2)
                .unwrap_or(fallback)
        }
        _ => fallback,
    };
    (split, solution.nodes_explored, solution.stop)
}

/// Computes an acyclic bipartition of `dag` under `balance` minimising the
/// weighted cut (`edge_weights` as in [`bipartition_model`]), within `limits`
/// and, when given, until `cancel` is observed. Also returns the
/// branch-and-bound nodes explored and what stopped the solve.
///
/// Falls back to the [`prefix_split`] when the solver finds no split within
/// its limits — the mass window plus the count floors can genuinely be
/// infeasible; the prefix split then gives the closest balance it can — and
/// returns the trivial one-part partition when the DAG has fewer nodes than
/// the floors ask for.
pub fn bipartition(
    dag: &CompDag,
    edge_weights: &[f64],
    balance: &Balance,
    limits: SolverLimits,
    cancel: Option<&CancelToken>,
) -> (AcyclicPartition, usize, MipStop) {
    let (min0, min1) = balance.floors(dag.num_nodes());
    if dag.num_nodes() < min0 + min1 {
        return (AcyclicPartition::trivial(dag), 0, MipStop::Gap);
    }
    let lp = bipartition_model(dag, edge_weights, balance);
    solve(dag, lp, limits, cancel)
}

/// Balanced topological-prefix split: cuts a topological order at the
/// position whose suffix weight (node count under [`Balance::Thirds`],
/// compute mass under [`Balance::Mass`]) is closest to side 1's target,
/// subject to the node-count floors; ties prefer the earlier cut. Under
/// `Thirds` that is half the nodes, rounded down. Always acyclic; the warm
/// start and fallback of [`bipartition`], and the trivial partition when
/// `dag` has fewer nodes than the floors ask for.
pub fn prefix_split(dag: &CompDag, balance: &Balance) -> AcyclicPartition {
    let n = dag.num_nodes();
    let (min0, min1) = balance.floors(n);
    if n < min0 + min1 {
        return AcyclicPartition::trivial(dag);
    }
    // What is balanced, and the share of it side 1 should get.
    let (weight, share): (&dyn Fn(NodeId) -> f64, f64) = match *balance {
        Balance::Thirds => (&|_| 1.0, 0.5),
        Balance::Mass { fraction, .. } => (&|v| dag.compute_weight(v), fraction),
    };
    let topo = TopologicalOrder::of(dag);
    let total: f64 = dag.nodes().map(weight).sum();
    let target = total * share;
    // suffix = weight of positions c..n; choose the cut position minimising
    // the distance to the target.
    let mut best_cut = min0;
    let mut best_err = f64::INFINITY;
    let mut suffix = total;
    for (c, &v) in topo.order().iter().enumerate() {
        if c >= min0 && c <= n - min1 {
            let err = (suffix - target).abs();
            if err < best_err - 1e-12 {
                best_err = err;
                best_cut = c;
            }
        }
        suffix -= weight(v);
    }
    let mut assignment = vec![0usize; n];
    for (i, &v) in topo.order().iter().enumerate() {
        assignment[v.index()] = if i < best_cut { 0 } else { 1 };
    }
    AcyclicPartition::new(dag, assignment, 2).expect("prefix split is always acyclic")
}

/// Recursively bipartitions `dag` under [`Balance::Thirds`], every edge
/// weighing one and every cut within [`DNC_SPLIT_LIMITS`], until every part
/// has at most `max_part_size` nodes. Returns the final acyclic partition.
pub fn recursive_partition(dag: &CompDag, max_part_size: usize) -> AcyclicPartition {
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
        let unit = vec![1.0; sub.dag().num_edges()];
        let (sub_split, ..) =
            bipartition(sub.dag(), &unit, &Balance::Thirds, DNC_SPLIT_LIMITS, None);
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

    /// The §6.3 cut of `dag`: unit edge weights, thirds, the D&C budget.
    fn thirds(dag: &CompDag) -> AcyclicPartition {
        let unit = vec![1.0; dag.num_edges()];
        bipartition(dag, &unit, &Balance::Thirds, DNC_SPLIT_LIMITS, None).0
    }

    /// A shard split of `dag` asking side 1 for half the mass, within 15 %.
    const HALF_MASS: Balance = Balance::Mass {
        fraction: 0.5,
        tolerance: 0.15,
        min_side0: 1,
        min_side1: 1,
    };

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
        let part = thirds(&dag);
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
        let ilp = thirds(&dag);
        let prefix = prefix_split(&dag, &Balance::Thirds);
        assert!(ilp.cut_edges(&dag) <= prefix.cut_edges(&dag));
    }

    #[test]
    fn the_thirds_prefix_split_cuts_at_half_the_nodes() {
        for n in 2..12 {
            let mut b = mbsp_dag::DagBuilder::new("chain");
            let nodes = b.add_unit_nodes(n).unwrap();
            b.add_chain(&nodes).unwrap();
            let dag = b.build();
            let sizes = prefix_split(&dag, &Balance::Thirds).part_sizes();
            assert_eq!(sizes, vec![n / 2, n - n / 2], "{n} nodes");
        }
    }

    #[test]
    fn chain_is_cut_once() {
        // A simple chain: the optimal balanced acyclic bipartition cuts one edge.
        let mut b = mbsp_dag::DagBuilder::new("chain");
        let nodes = b.add_unit_nodes(12).unwrap();
        b.add_chain(&nodes).unwrap();
        let dag = b.build();
        let part = thirds(&dag);
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
        let part = recursive_partition(&dag, 20);
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
        assert_eq!(thirds(&dag).num_parts(), 1);
    }

    #[test]
    fn a_mass_balance_balances_mass_not_node_count() {
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
        let weights = vec![1.0; dag.num_edges()];
        let (part, ..) = bipartition(&dag, &weights, &HALF_MASS, SHARD_SPLIT_LIMITS, None);
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
    fn a_mass_balanced_cut_is_not_worse_than_its_prefix_split() {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 6,
                width: 5,
                ..Default::default()
            },
            11,
        );
        let w = vec![1.0; dag.num_edges()];
        let (cut, ..) = bipartition(&dag, &w, &HALF_MASS, SHARD_SPLIT_LIMITS, None);
        let fallback = prefix_split(&dag, &HALF_MASS);
        assert!(cut.cut_edges(&dag) <= fallback.cut_edges(&dag));
    }

    #[test]
    fn a_mass_prefix_split_respects_count_floors() {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers: 4,
                width: 4,
                ..Default::default()
            },
            5,
        );
        let balance = Balance::Mass {
            fraction: 0.5,
            tolerance: 0.15,
            min_side0: 3,
            min_side1: 5,
        };
        let sizes = prefix_split(&dag, &balance).part_sizes();
        assert!(sizes[0] >= 3 && sizes[1] >= 5, "sizes {sizes:?}");
    }
}
