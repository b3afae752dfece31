//! The acyclic-bipartition ILP in closure form against the formulation it
//! replaced.
//!
//! `mbsp_ilp::partition_ilp` states the cut as `Σ_e w_e (x_v − x_u)` over the
//! node indicators alone, with acyclicity rows over the transitive reduction.
//! The oracle below is the textbook form the paper writes (App. C.2) and this
//! repository solved until the closure form replaced it: one continuous cut
//! indicator `y_e ≥ x_v − x_u` per edge and one acyclicity row per edge. It
//! is built here through `lp_solver`'s public API and exists nowhere else.
//!
//! Both models describe the same feasible splits with the same objective, so
//! wherever both solves prove optimality the **objectives** must agree — the
//! splits need not: ties are broken by the pivoting order, which differs.
//! Inputs: the run-quotient splits the sharded search solves for every tiny-
//! and small-dataset instance at the served parameters (`k = 4`, 8 runs per
//! shard, tolerance 0.25) under `Balance::Mass`, and seeded layered DAGs
//! under `Balance::Thirds` with unit edge weights, all built by
//! `bipartition_model`.
//!
//! Every model built on the way is also pinned: an FNV-1a hash of all it
//! hands the solver must equal the one recorded before the divide-and-conquer
//! cut and the shard split shared one builder, so a refactor of the builder
//! cannot move a row, a bound or a warm start unnoticed.

use lp_solver::{
    BranchBoundSolver, ConstraintSense, LinExpr, LpProblem, MipSolution, MipStop, SolverLimits,
    VarId,
};
use mbsp_dag::graph::NodeWeights;
use mbsp_dag::{AcyclicPartition, CompDag, NodeId, TopologicalOrder};
use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_ilp::{
    bipartition_model, weighted_shards_solve, Balance, DNC_SPLIT_LIMITS, SHARD_SPLIT_LIMITS,
};
use std::collections::BTreeMap;

const SHARDS: usize = 4;
const RUNS_PER_SHARD: usize = 8;
const MASS_TOLERANCE: f64 = 0.25;

/// [`model_hash`] of the four layered DAGs' models, in the order
/// `layered_bipartition_models_agree_with_the_y_formulation` builds them.
const LAYERED_MODELS: [u64; 4] = [
    0x73a3_027d_e4ed_2a27,
    0xc6f0_2352_b350_87e0,
    0xd063_8058_394d_bcfd,
    0x4386_d4f8_28c1_b48d,
];

/// Per instance of `served_run_quotient_splits_agree_with_the_y_formulation`:
/// the splits [`check_splits`] visits and the FNV-1a fold of their
/// [`model_hash`]es, in visiting order.
const RUN_QUOTIENT_MODELS: &[(&str, usize, u64)] = &[
    ("bicgstab", 3, 0x5f01_7619_3243_8f31),
    ("k-means", 3, 0x41ae_1267_ecff_da52),
    ("pregel", 3, 0x5998_061a_991f_1b88),
    ("spmv_N6", 3, 0xfcef_623a_8e2f_fd46),
    ("spmv_N7", 3, 0x92cb_45a5_19e0_8499),
    ("spmv_N10", 3, 0x9f17_dee2_5d9a_30ac),
    ("CG_N2_K2", 3, 0x7501_7dd6_8531_ab49),
    ("CG_N3_K1", 3, 0xa86d_8f45_ca71_978c),
    ("CG_N4_K1", 3, 0xa717_c8f5_3094_798c),
    ("exp_N4_K2", 3, 0xdf0b_73bd_6d30_d332),
    ("exp_N5_K3", 3, 0x2c4a_43e0_3e1c_7f1c),
    ("exp_N6_K4", 3, 0x4d89_4c94_6617_8979),
    ("kNN_N4_K3", 3, 0x3455_ac26_9b32_659e),
    ("kNN_N5_K3", 3, 0x1360_01f6_0b64_8829),
    ("kNN_N6_K4", 3, 0x4343_ba26_c086_5569),
    ("simple_pagerank", 3, 0x38c4_7dbd_36d9_231b),
    ("snni_graphchallenge", 3, 0x53df_5613_5846_16c1),
    ("spmv_N25", 3, 0x9ffc_c9e0_af33_5bbf),
    ("spmv_N35", 3, 0xaa74_9a7f_23fc_78ea),
    ("CG_N5_K4", 3, 0x7352_fb9b_4033_4b99),
    ("CG_N7_K2", 3, 0x24f1_e3c1_dbd7_8a55),
    ("exp_N10_K8", 3, 0x6b25_48da_00fc_75cd),
    ("exp_N15_K4", 3, 0x7304_26c5_a9db_c841),
    ("kNN_N10_K8", 3, 0xe362_99d2_8b5a_52e2),
    ("kNN_N15_K4", 3, 0xc1d6_782a_d6fb_e993),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// FNV-1a over everything a model hands the solver: every variable's name,
/// bounds, objective coefficient and type; every row's name, terms, sense and
/// right-hand side; and the warm start — each list prefixed by its length.
fn model_hash((problem, warm): &(LpProblem, Vec<f64>)) -> u64 {
    let mut hash = Fnv::new();
    hash.u64(problem.variables.len() as u64);
    for v in &problem.variables {
        hash.str(&v.name);
        for x in [v.lower, v.upper, v.objective] {
            hash.f64(x);
        }
        hash.bytes(&[v.var_type as u8]);
    }
    hash.u64(problem.constraints.len() as u64);
    for row in &problem.constraints {
        hash.str(&row.name);
        hash.u64(row.expr.terms.len() as u64);
        for &(var, coeff) in &row.expr.terms {
            hash.u64(var.index() as u64);
            hash.f64(coeff);
        }
        hash.bytes(&[row.sense as u8]);
        hash.f64(row.rhs);
    }
    hash.u64(warm.len() as u64);
    for &x in warm {
        hash.f64(x);
    }
    hash.0
}

/// The `y_e` formulation of the model `closure` states in closure form: the
/// same node indicators and — copied, they are not what changed — the same
/// balance rows, with the cut carried by one continuous `y_e` per edge and
/// acyclicity stated on every edge. `warm_x` is the closure model's warm start.
fn y_model(
    dag: &CompDag,
    edge_weights: &[f64],
    closure: &LpProblem,
    warm_x: &[f64],
) -> (LpProblem, Vec<f64>) {
    let mut problem = LpProblem::new();
    let xs: Vec<VarId> = (0..dag.num_nodes())
        .map(|i| problem.add_binary(format!("x{i}"), 0.0))
        .collect();
    let mut warm = warm_x.to_vec();
    for (e, (u, v)) in dag.edges().enumerate() {
        let (xu, xv) = (xs[u.index()], xs[v.index()]);
        let y = problem.add_continuous(format!("y{e}"), 0.0, 1.0, edge_weights[e]);
        problem.add_constraint(
            format!("cut{e}"),
            LinExpr::term(y, 1.0).plus(xv, -1.0).plus(xu, 1.0),
            ConstraintSense::GreaterEqual,
            0.0,
        );
        problem.add_constraint(
            format!("acyc{e}"),
            LinExpr::term(xu, 1.0).plus(xv, -1.0),
            ConstraintSense::LessEqual,
            0.0,
        );
        warm.push(warm_x[v.index()] - warm_x[u.index()]);
    }
    for row in &closure.constraints {
        if !row.name.starts_with("acyc") {
            problem.add_constraint(row.name.clone(), row.expr.clone(), row.sense, row.rhs);
        }
    }
    (problem, warm)
}

fn solve(problem: &LpProblem, warm: &[f64], limits: SolverLimits) -> MipSolution {
    BranchBoundSolver::with_limits(limits)
        .with_warm_start(warm.to_vec())
        .solve(problem)
}

/// Solves the closure-form `model` of `dag` and its `y_e` oracle and checks
/// everything the module docs promise, counting in `proven` the comparisons
/// in which both solves proved optimality. Returns the closure model's split,
/// or `None` when the model is infeasible (both must then say so).
fn check(
    dag: &CompDag,
    edge_weights: &[f64],
    (closure, warm): (LpProblem, Vec<f64>),
    limits: SolverLimits,
    what: &str,
    proven: &mut usize,
) -> Option<AcyclicPartition> {
    let n = dag.num_nodes();
    assert_eq!(closure.num_variables(), n, "{what}: one binary per node");
    assert!(closure.num_constraints() <= dag.num_edges() + 4, "{what}");
    let weighted_cut = |split: &AcyclicPartition| -> f64 {
        dag.edges()
            .zip(edge_weights)
            .filter(|((u, v), _)| split.part_of(*u) != split.part_of(*v))
            .map(|(_, w)| w)
            .sum()
    };
    // Reads a solution's split and holds it to its model: acyclic, two parts,
    // every balance row, and an objective that is the split's weighted cut.
    let split_of = |problem: &LpProblem, solution: &MipSolution| -> AcyclicPartition {
        assert!(problem.is_feasible(&solution.values, 1e-6), "{what}");
        let sides = solution.values[..n].iter().map(|x| x.round() as usize);
        let split = AcyclicPartition::new(dag, sides.collect(), 2)
            .unwrap_or_else(|e| panic!("{what}: not an acyclic bipartition: {e}"));
        let cut = weighted_cut(&split);
        assert!((solution.objective - cut).abs() < 1e-6, "{what}: {cut}");
        split
    };

    let new = solve(&closure, &warm, limits);
    let again = solve(&closure, &warm, limits);
    assert_eq!(new.values, again.values, "{what}: two solves differ");
    assert_eq!(new.objective.to_bits(), again.objective.to_bits(), "{what}");
    assert_eq!(new.nodes_explored, again.nodes_explored, "{what}");
    assert_eq!(new.stop, again.stop, "{what}");

    let (oracle, oracle_warm) = y_model(dag, edge_weights, &closure, &warm);
    let old = solve(&oracle, &oracle_warm, limits);
    assert_eq!(
        closure.is_feasible(&warm, 1e-6),
        oracle.is_feasible(&oracle_warm, 1e-6),
        "{what}: the prefix split is feasible in one model only"
    );
    if new.stop == MipStop::Gap && old.stop == MipStop::Gap {
        *proven += 1;
        assert_eq!(new.status, old.status, "{what}");
        assert!(
            (new.objective - old.objective).abs() < 1e-6 || new.values.is_empty(),
            "{what}: closure form {} vs y_e form {}",
            new.objective,
            old.objective
        );
    }
    if !old.values.is_empty() {
        split_of(&oracle, &old);
    }
    if new.values.is_empty() {
        return None;
    }
    let split = split_of(&closure, &new);
    if closure.is_feasible(&warm, 1e-6) {
        let prefix = closure.objective_value(&warm);
        assert!(new.objective <= prefix + 1e-9, "{what}: above the prefix");
    }
    Some(split)
}

/// The run quotient [`weighted_shards_solve`] builds at cut offset 0: `c`
/// contiguous mass-balanced runs of the topological order, summed weights,
/// edge multiplicities as weights (in `(run, run)` order).
fn run_quotient(dag: &CompDag, c: usize) -> (Vec<NodeWeights>, BTreeMap<(usize, usize), f64>) {
    let n = dag.num_nodes();
    let topo = TopologicalOrder::of(dag);
    let total: f64 = dag.nodes().map(|v| dag.compute_weight(v)).sum();
    assert!(
        total > 0.0,
        "{}: the datasets carry compute mass",
        dag.name()
    );
    let step = total / c as f64;
    let mut run_of = vec![0usize; n];
    let (mut run, mut in_run, mut mass) = (0usize, 0usize, 0.0f64);
    for (pos, &v) in topo.order().iter().enumerate() {
        if run + 1 < c {
            let must_advance = n - pos < c - run;
            if in_run > 0 && (must_advance || mass >= (run + 1) as f64 * step - 1e-12) {
                run += 1;
                in_run = 0;
            }
        }
        run_of[v.index()] = run;
        in_run += 1;
        mass += dag.compute_weight(v);
    }
    let mut weights = vec![NodeWeights::new(0.0, 0.0); c];
    for v in dag.nodes() {
        let w = &mut weights[run_of[v.index()]];
        *w = NodeWeights::new(
            w.compute + dag.compute_weight(v),
            w.memory + dag.memory_weight(v),
        );
    }
    let mut multiplicity = BTreeMap::new();
    for (u, v) in dag.edges() {
        let (ru, rv) = (run_of[u.index()], run_of[v.index()]);
        if ru != rv {
            *multiplicity.entry((ru, rv)).or_insert(0.0) += 1.0;
        }
    }
    (weights, multiplicity)
}

/// What [`check_splits`] saw of one instance or of all of them.
#[derive(Default)]
struct Tally {
    /// [`model_hash`] of every model built, in building order.
    models: Vec<u64>,
    /// Splits checked, and those in which both solves proved optimality.
    splits: usize,
    proven: usize,
    /// Variables and rows of the first (root) model built.
    root_size: Option<(usize, usize)>,
}

/// Splits `runs` into `k` parts as the sharded search does — side 0 gets
/// `⌈k/2⌉` parts — checking every split on the way.
fn check_splits(
    name: &str,
    quotient: &(Vec<NodeWeights>, BTreeMap<(usize, usize), f64>),
    runs: &[usize],
    k: usize,
    tally: &mut Tally,
) {
    if k <= 1 || runs.len() <= 1 {
        return;
    }
    let (kl, kr) = (k - k / 2, k / 2);
    let weights: Vec<NodeWeights> = runs.iter().map(|&r| quotient.0[r]).collect();
    let local = |r: usize| runs.iter().position(|&x| x == r);
    let (mut edges, mut edge_weights) = (Vec::new(), Vec::new());
    for (&(ru, rv), &m) in &quotient.1 {
        if let (Some(lu), Some(lv)) = (local(ru), local(rv)) {
            edges.push((lu, lv));
            edge_weights.push(m);
        }
    }
    let sub = CompDag::from_edges("runs", weights, &edges).expect("run quotient is acyclic");
    let balance = Balance::Mass {
        fraction: kr as f64 / k as f64,
        tolerance: MASS_TOLERANCE,
        min_side0: kl,
        min_side1: kr,
    };
    let model = bipartition_model(&sub, &edge_weights, &balance);
    tally.models.push(model_hash(&model));
    let size = (model.0.num_variables(), model.0.num_constraints());
    tally.root_size.get_or_insert(size);
    tally.splits += 1;
    let what = format!("{name}: {} runs into {k}", runs.len());
    let proven = &mut tally.proven;
    let limits = SHARD_SPLIT_LIMITS;
    let Some(split) = check(&sub, &edge_weights, model, limits, &what, proven) else {
        return;
    };
    let side = |s: usize| -> Vec<usize> {
        (0..runs.len())
            .filter(|&i| split.part_of(NodeId::new(i)) == s)
            .map(|i| runs[i])
            .collect()
    };
    let (side0, side1) = (side(0), side(1));
    assert!(side0.len() >= kl && side1.len() >= kr, "{what}: floors");
    check_splits(name, quotient, &side0, kl, tally);
    check_splits(name, quotient, &side1, kr, tally);
}

#[test]
fn served_run_quotient_splits_agree_with_the_y_formulation() {
    let mut instances = mbsp_gen::tiny_dataset(42);
    instances.extend(mbsp_gen::small_dataset_sample(42));
    let mut tally = Tally::default();
    let mut pins = Vec::new();
    for named in &instances {
        let dag = &named.dag;
        let c = (SHARDS * RUNS_PER_SHARD).clamp(SHARDS, dag.num_nodes());
        let runs: Vec<usize> = (0..c).collect();
        tally.root_size = None;
        tally.models.clear();
        check_splits(
            &named.name,
            &run_quotient(dag, c),
            &runs,
            SHARDS,
            &mut tally,
        );
        let mut fold = Fnv::new();
        for &hash in &tally.models {
            fold.u64(hash);
        }
        pins.push((named.name.as_str(), tally.models.len(), fold.0));
        // The quotient above is the one the partitioner solves.
        let (_, served) = weighted_shards_solve(
            dag,
            SHARDS,
            RUNS_PER_SHARD,
            MASS_TOLERANCE,
            0.0,
            SHARD_SPLIT_LIMITS,
            None,
        );
        let served_size = (served.root_variables, served.root_constraints);
        assert_eq!(tally.root_size, Some(served_size), "{}", named.name);
    }
    // Nearly every comparison is one of two proven optima (the `y_e` model
    // runs into its node limit on one root split).
    let Tally { splits, proven, .. } = tally;
    assert!(splits >= 3 * instances.len() - 3, "{splits} splits checked");
    assert!(proven + 3 >= splits, "{proven} of {splits} proven");
    assert_eq!(pins, RUN_QUOTIENT_MODELS, "a run-quotient model moved");
}

#[test]
fn layered_bipartition_models_agree_with_the_y_formulation() {
    let mut proven = 0;
    let mut hashes = Vec::new();
    for (layers, width, seed) in [(4, 5, 7), (5, 6, 11), (6, 6, 3), (5, 8, 1)] {
        let dag = random_layered_dag(
            &RandomDagConfig {
                layers,
                width,
                edge_probability: 0.3,
                ..Default::default()
            },
            seed,
        );
        let unit = vec![1.0; dag.num_edges()];
        let model = bipartition_model(&dag, &unit, &Balance::Thirds);
        hashes.push(model_hash(&model));
        let what = format!("layered {layers}x{width} seed {seed}");
        let split = check(&dag, &unit, model, DNC_SPLIT_LIMITS, &what, &mut proven)
            .expect("a third is feasible");
        let third = dag.num_nodes().div_ceil(3);
        assert!(split.part_sizes().iter().all(|&s| s >= third), "{what}");
    }
    assert_eq!(
        proven, 4,
        "every layered comparison is between proven optima"
    );
    assert_eq!(hashes, LAYERED_MODELS, "a layered model moved");
}
