//! The `repro` recorder: the paper's tables, figure and gadget lemmas as one
//! asserted report (`BENCH_repro.json`).
//!
//! An *instance* is one experiment, a *row* is that experiment's per-instance
//! costs, the geometric mean of every cost column over the first, the
//! quartiles of the second column over the first, and the paper's claims about
//! it as named booleans. `claims_hold` — their conjunction — is the one gated
//! flag, so a run in which a claim of the paper does not hold fails, and an
//! unfiltered full run also names the claim.
//!
//! | experiment | what it measures | claims |
//! |---|---|---|
//! | `table1`, `table4_{r5,r1,p8,l0,async}` | greedy BSP + clairvoyant vs the holistic search on the tiny dataset, base setting (`P = 4`, `r = 3·r₀`, `g = 1`, `L = 10`, synchronous) and its five variations | holistic ≤ baseline on every instance; geomean < 1 |
//! | `table2` | the same baseline vs divide-and-conquer on the small-dataset sample, `r = 5·r₀` | geomean < 1 (`losing` counts the instances it loses, `quartiles[4]` is the worst) |
//! | `table3` | baseline, holistic, Cilk + LRU, BSP-ILP, BSP-ILP + holistic | Cilk + LRU is the weakest column; BSP-ILP + holistic ≤ BSP-ILP |
//! | `pebbling_p1` | DFS + clairvoyant vs holistic at `P = 1` | holistic ≤ DFS + clairvoyant; it improves on at least one instance and on a minority |
//! | `theorem41` | the two placements of the proof for growing `d` | the two-stage / holistic ratio strictly increases |
//! | `lemma53` | the asynchronous optimum and the aligned placement, costed synchronously | every factor within 5 % of `P/2` |
//! | `lemma54` | the synchronous and the asynchronous optimum, costed both ways | each wins its own model; the asynchronous factor is within 5 % of 4/3 |
//! | `lemma61` | the zipper chain with and without recomputation | recomputation is cheaper; the factor is within 5 % of `(1 + g)/(1 + d)` |
//!
//! Figure 4 is the report's `figure4` field: the quartiles of the rows already
//! measured for `table1` and four of the Table 4 settings.
//!
//! Every `holistic` column is the search the `mbsp_serve` daemon serves —
//! `IncrementalScheduler::schedule` — at one shard, under the row's cost
//! model.
//!
//! Every number is a function of (experiment, seed) only. The budgets are
//! counts — `max_rounds`, `moves_per_round`, the bipartition's `max_nodes`
//! and `max_pivots` — and no scheduler or solver here is handed a clock, so
//! two runs write the same bytes and there are no timings to gate. A quick
//! run differs from a full one in `table2` alone (its first four instances):
//! everything else takes seconds.

use crate::{field, geomean, Fields, Recorder};
use mbsp_cache::{ClairvoyantPolicy, EvictionPolicy, LruPolicy, TwoStageScheduler};
use mbsp_dag::{CompDag, NodeId, TopologicalOrder};
use mbsp_gen::constructions::{
    lemma53_construction, lemma54_construction, lemma61_construction, theorem41_construction,
};
use mbsp_gen::NamedInstance;
use mbsp_ilp::improver::{canonical_bsp, post_optimize, TieOrder};
use mbsp_ilp::{
    BspIlpScheduler, DivideAndConquerConfig, DivideAndConquerScheduler, IncrementalScheduler,
    RepairConfig, ShardedSearchConfig,
};
use mbsp_model::{
    Architecture, ComputePhaseStep, CostModel, MbspInstance, MbspSchedule, ProcId, Superstep,
};
use mbsp_sched::{
    BspScheduler, BspSchedulingResult, CilkScheduler, DfsScheduler, GreedyBspScheduler,
};
use serde::{Serialize, Value};
use ComputePhaseStep::{Compute, Delete};
use CostModel::{Asynchronous, Synchronous};

/// Seed of the datasets and of every search.
const SEED: u64 = 42;

/// The `repro` recorder.
#[derive(Default)]
pub(crate) struct Repro;

/// One experiment of the paper: its name and the measurement behind its row
/// (which `measure` then names).
pub(crate) struct Experiment {
    name: &'static str,
    run: Box<dyn Fn() -> Row>,
}

fn experiment(name: &'static str, run: impl Fn() -> Row + 'static) -> Experiment {
    let run = Box::new(run);
    Experiment { name, run }
}

/// One parameter setting of the evaluation section (a column of Table 4); a
/// row's `setting` is its debug form.
#[derive(Debug, Clone, Copy)]
struct Setting {
    processors: usize,
    /// Cache size as a multiple of the instance's minimal feasible cache `r₀`.
    cache_factor: f64,
    g: f64,
    latency: f64,
    cost_model: CostModel,
}

/// The scheduler pairing a dataset sweep compares.
#[derive(Debug, Clone, Copy)]
enum Sweep {
    /// Tables 1 and 4: baseline vs holistic on the tiny dataset.
    Holistic,
    /// Table 2: baseline vs divide-and-conquer (at the library's default
    /// bipartition budget) on the first `instances` of the small-dataset
    /// sample — the only thing a quick run shrinks.
    DivideAndConquer { instances: usize },
    /// Table 3: every baseline and both holistic variants on the tiny dataset.
    Baselines,
    /// Section 7.2: DFS + clairvoyant vs holistic on one processor.
    Pebbling,
}

/// The costs every column of an experiment reports for one of its instances.
#[derive(Debug, Default, Serialize)]
struct Costs {
    instance: String,
    costs: Vec<f64>,
}

/// One claim of the paper about one experiment.
#[derive(Debug, Default, Serialize)]
struct Claim {
    claim: String,
    holds: bool,
}

/// One row of `BENCH_repro.json`.
#[derive(Debug, Default, Serialize)]
pub(crate) struct Row {
    name: String,
    setting: String,
    columns: Vec<String>,
    costs: Vec<Costs>,
    /// Geometric mean of every column over the first (so the first is 1).
    geomeans: Vec<f64>,
    /// Minimum, quartiles and maximum of the second column over the first
    /// (Figure 4's box).
    quartiles: Vec<f64>,
    /// Instances on which the second column is below / above the first.
    improved: usize,
    losing: usize,
    /// Holistic searches of the row that ran in the depth-first tie order
    /// (their seed's depth-first conversion was the cheaper one); the others
    /// ran breadth-first.
    depth_first: usize,
    claims: Vec<Claim>,
    claims_hold: bool,
}

fn costs(instance: String, costs: Vec<f64>) -> Costs {
    Costs { instance, costs }
}

/// `a ≤ b` up to the relative slack of every cost comparison.
fn le(a: f64, b: f64) -> bool {
    a <= b + 1e-9 * (1.0 + b.abs())
}

fn within_5pct(x: f64, target: f64) -> bool {
    (x - target).abs() <= 0.05 * target
}

/// Assembles a row without name and claims: the per-column geomeans, the
/// quartiles and the improved / losing counts follow from `costs`.
fn row(setting: String, columns: &[&str], costs: Vec<Costs>) -> Row {
    assert!(!costs.is_empty(), "an experiment measures something");
    let ratios = |column: usize| costs.iter().map(move |c| c.costs[column] / c.costs[0]);
    let mut sorted: Vec<f64> = ratios(1).collect();
    sorted.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let frac = pos - pos.floor();
        sorted[pos.floor() as usize] * (1.0 - frac) + sorted[pos.ceil() as usize] * frac
    };
    Row {
        name: String::new(),
        setting,
        columns: columns.iter().map(|c| c.to_string()).collect(),
        geomeans: (0..columns.len()).map(|c| geomean(ratios(c))).collect(),
        quartiles: [0.0, 0.25, 0.5, 0.75, 1.0].map(quantile).to_vec(),
        improved: sorted.iter().filter(|&&r| !le(1.0, r)).count(),
        losing: sorted.iter().filter(|&&r| !le(r, 1.0)).count(),
        depth_first: 0,
        claims: Vec::new(),
        claims_hold: true,
        costs,
    }
}

impl Row {
    /// Records one claim of the paper about this row.
    fn claim(&mut self, claim: &str, holds: bool) {
        let claim = claim.to_string();
        self.claims.push(Claim { claim, holds });
        self.claims_hold &= holds;
    }

    /// Column `column` is at most column `bound` on every instance.
    fn every_le(&self, column: usize, bound: usize) -> bool {
        let holds = |c: &Costs| le(c.costs[column], c.costs[bound]);
        self.costs.iter().all(holds)
    }
}

/// The cost of a schedule under `model`, after [`MbspSchedule::validate`]: no
/// experiment reports a number for a placement that is not a legal pebbling.
fn cost(schedule: &MbspSchedule, dag: &CompDag, arch: &Architecture, model: CostModel) -> f64 {
    schedule
        .validate(dag, arch)
        .unwrap_or_else(|e| panic!("{}: invalid schedule: {e}", dag.name()));
    model.evaluate(schedule, dag, arch)
}

impl Setting {
    fn instance(&self, named: &NamedInstance) -> MbspInstance {
        let arch = Architecture::new(self.processors, 0.0, self.g, self.latency);
        MbspInstance::with_cache_factor(named.dag.clone(), arch, self.cache_factor)
    }

    /// The search budget of this setting, whole-instance or per part: counts
    /// spelled out because the report is a function of them (a search also
    /// ends at its first round without an improvement). The whole-instance
    /// search is the daemon's sharded search at one shard, started from the
    /// seeding BSP schedule alone — no shard-local greedy seed — so Table 3's
    /// BSP-ILP column and `pebbling_p1`'s DFS column seed it.
    fn search(&self) -> ShardedSearchConfig {
        ShardedSearchConfig {
            cost_model: self.cost_model,
            num_shards: 1,
            workers: 1,
            max_rounds: 60,
            moves_per_round: 120,
            seed: SEED,
            stale_round_limit: 1,
            shard_local_seed: false,
            ..Default::default()
        }
    }

    /// A two-stage pipeline's BSP schedule and the cost of its conversion.
    fn two_stage(
        &self,
        instance: &MbspInstance,
        scheduler: &dyn BspScheduler,
        policy: &dyn EvictionPolicy,
    ) -> (BspSchedulingResult, f64) {
        let (dag, arch) = (instance.dag(), instance.arch());
        let bsp = scheduler.schedule(dag, arch);
        let schedule = TwoStageScheduler::new().schedule(dag, arch, &bsp, policy);
        let cost = cost(&schedule, dag, arch, self.cost_model);
        (bsp, cost)
    }

    /// The cost of the holistic search seeded with `bsp` — a served session's
    /// `schedule` on the instance — and whether it ran depth-first.
    fn improved(&self, instance: &MbspInstance, bsp: &BspSchedulingResult) -> (f64, bool) {
        let (dag, arch) = (instance.dag(), instance.arch());
        let search = self.search();
        let procs = dag.nodes().map(|v| bsp.schedule.proc_of(v)).collect();
        let repair = RepairConfig {
            search,
            cone_radius: 2,
        };
        let mut session = IncrementalScheduler::new(dag.clone(), *arch, procs, repair);
        let (schedule, stats) = session.schedule(&search, bsp, None);
        let depth_first = stats.tie_order == TieOrder::DepthFirst;
        (cost(&schedule, dag, arch, self.cost_model), depth_first)
    }
}

fn sweep(sweep: Sweep, setting: Setting) -> Row {
    let mut dataset = mbsp_gen::tiny_dataset(SEED);
    if let Sweep::DivideAndConquer { instances } = sweep {
        dataset = mbsp_gen::small_dataset_sample(SEED);
        dataset.truncate(instances);
    }
    let clairvoyant = ClairvoyantPolicy::new();
    // An instance's costs and how many of its holistic searches ran
    // depth-first.
    let measure = |named: &NamedInstance| -> (Vec<f64>, usize) {
        let instance = setting.instance(named);
        let first: &dyn BspScheduler = match sweep {
            Sweep::Pebbling => &DfsScheduler::new(),
            _ => &GreedyBspScheduler::new(),
        };
        let (seed, baseline) = setting.two_stage(&instance, first, &clairvoyant);
        match sweep {
            Sweep::Holistic | Sweep::Pebbling => {
                let (holistic, depth_first) = setting.improved(&instance, &seed);
                (vec![baseline, holistic], depth_first as usize)
            }
            Sweep::DivideAndConquer { .. } => {
                let search = setting.search();
                let config = DivideAndConquerConfig {
                    max_rounds: search.max_rounds,
                    moves_per_round: search.moves_per_round,
                    seed: search.seed,
                    ..Default::default()
                };
                let schedule = DivideAndConquerScheduler::with_config(config).schedule(&instance);
                let (dag, arch) = (instance.dag(), instance.arch());
                (
                    vec![baseline, cost(&schedule, dag, arch, setting.cost_model)],
                    0,
                )
            }
            Sweep::Baselines => {
                let cilk = setting.two_stage(&instance, &CilkScheduler::new(), &LruPolicy::new());
                let bsp_ilp = BspIlpScheduler;
                let (optimised, bsp_ilp) = setting.two_stage(&instance, &bsp_ilp, &clairvoyant);
                let ours = setting.improved(&instance, &seed);
                let both = setting.improved(&instance, &optimised);
                let depth_first = ours.1 as usize + both.1 as usize;
                (vec![baseline, ours.0, cilk.1, bsp_ilp, both.0], depth_first)
            }
        }
    };
    // Instances are independent; rows come back in dataset order.
    let lanes = mbsp_pool::resolve_workers(0);
    let measured = mbsp_pool::WorkerPool::shared().run_indexed(dataset.len(), lanes, |i| {
        let (measured, depth_first) = measure(&dataset[i]);
        (costs(dataset[i].name.clone(), measured), depth_first)
    });
    let depth_first = measured.iter().map(|(_, d)| d).sum();
    let costs = measured.into_iter().map(|(c, _)| c).collect();
    let columns: &[&str] = match sweep {
        Sweep::Holistic => &["baseline", "holistic"],
        Sweep::DivideAndConquer { .. } => &["baseline", "divide_and_conquer"],
        Sweep::Baselines => &[
            "baseline",
            "holistic",
            "cilk_lru",
            "bsp_ilp",
            "bsp_ilp_holistic",
        ],
        Sweep::Pebbling => &["dfs_clairvoyant", "holistic"],
    };
    let mut row = row(format!("{setting:?}"), columns, costs);
    row.depth_first = depth_first;
    match sweep {
        Sweep::Holistic => {
            row.claim("holistic_le_baseline_on_every_instance", row.every_le(1, 0));
            row.claim("geomean_below_one", row.geomeans[1] < 1.0);
        }
        Sweep::DivideAndConquer { .. } => row.claim("geomean_below_one", row.geomeans[1] < 1.0),
        Sweep::Baselines => {
            let weakest = [0, 1, 3, 4]
                .iter()
                .all(|&c| row.geomeans[c] < row.geomeans[2]);
            row.claim("cilk_lru_is_the_weakest_column", weakest);
            row.claim(
                "bsp_ilp_holistic_le_bsp_ilp_on_every_instance",
                row.every_le(4, 3),
            );
        }
        Sweep::Pebbling => {
            row.claim(
                "holistic_le_dfs_clairvoyant_on_every_instance",
                row.every_le(1, 0),
            );
            let minority = row.improved >= 1 && 2 * row.improved < row.costs.len();
            row.claim("improves_on_a_minority", minority);
        }
    }
    row
}

/// Theorem 4.1: the BSP-optimal placement (one chain per processor) against
/// the placement of the proof (the children of `H₁` on one processor, those of
/// `H₂` on the other), `P = 2`, `r = d + 2`, `g = 1`, `L = 0`, `m = 4·d`.
fn theorem41(ds: &[usize]) -> Row {
    let point = |&d: &usize| {
        let (dag, groups) = theorem41_construction(d, 4 * d);
        let arch = Architecture::new(2, d as f64 + 2.0, 1.0, 0.0);
        let order = TieOrder::BreadthFirst.of(&dag);
        let convert = |procs: &[ProcId]| {
            let bsp = canonical_bsp(&dag, &arch, procs, &order);
            TwoStageScheduler::new().schedule(&dag, &arch, &bsp, &ClairvoyantPolicy::new())
        };
        let mut procs = vec![ProcId::new(0); dag.num_nodes()];
        for &u in &groups.chain_u {
            procs[u.index()] = ProcId::new(1);
        }
        let two_stage = convert(&procs);
        // `u_i` reads `H₁` for odd `i + 1` and `H₂` for even, `v_i` the opposite.
        for (i, (&u, &v)) in groups.chain_u.iter().zip(&groups.chain_v).enumerate() {
            procs[u.index()] = ProcId::new(i % 2);
            procs[v.index()] = ProcId::new((i + 1) % 2);
        }
        let mut holistic = convert(&procs);
        post_optimize(&mut holistic, &dag, &arch, Synchronous, &[]);
        let both = [&holistic, &two_stage].map(|s| cost(s, &dag, &arch, Synchronous));
        costs(format!("d={d} m={}", 4 * d), both.to_vec())
    };
    let setting = "P=2 r=d+2 g=1 L=0 synchronous, m=4·d".to_string();
    let costs = ds.iter().map(point).collect();
    let mut row = row(setting, &["holistic", "two_stage"], costs);
    let ratio = |c: &Costs| c.costs[1] / c.costs[0];
    let increasing = row.costs.windows(2).all(|w| ratio(&w[0]) < ratio(&w[1]));
    row.claim("ratio_strictly_increasing_in_d", increasing);
    row
}

/// The MBSP schedule of an explicit placement — node `v` on processor
/// `procs[v]` in superstep `steps[v]` — on a cache that never fills: a node is
/// computed where it is placed (supersteps from 1 — superstep 0 only loads),
/// saved there if it is a sink or read on another processor, and every input
/// a processor did not compute is loaded in the superstep before its first
/// use there.
fn placed(dag: &CompDag, procs: &[usize], steps: &[usize]) -> MbspSchedule {
    let processors = procs.iter().max().map_or(1, |p| p + 1);
    let supersteps = steps.iter().copied().max().unwrap_or(0) + 1;
    let mut schedule = vec![Superstep::empty(processors); supersteps];
    // Superstep by superstep, topologically within one: a processor's first
    // use of an input is the first one met.
    let mut order = TopologicalOrder::of(dag).order().to_vec();
    order.retain(|&v| !dag.is_source(v));
    order.sort_by_key(|v| steps[v.index()]);
    let mut loaded = std::collections::BTreeSet::new();
    for v in order {
        let (p, s) = (procs[v.index()], steps[v.index()]);
        let elsewhere = |u: &NodeId| dag.is_source(*u) || procs[u.index()] != p;
        for &u in dag.parents(v).iter().filter(|u| elsewhere(u)) {
            if loaded.insert((p, u)) {
                schedule[s - 1].procs[p].load.push(u);
            }
        }
        let here = &mut schedule[s].procs[p];
        here.compute.push(Compute(v));
        if dag.is_sink(v) || dag.children(v).iter().any(|c| procs[c.index()] != p) {
            here.save.push(v);
        }
    }
    MbspSchedule::from_supersteps(processors, &schedule).expect("one entry per processor")
}

/// Lemma 5.3: ladder `i` runs on the processor pair `(2i, 2i + 1)`. The
/// asynchronous optimum starts every ladder at once, so each of its `P/2`
/// supersteps holds one heavy pair; delaying ladder `i` by `P/2 − 1 − i`
/// supersteps aligns all heavy pairs in one. Both are costed synchronously
/// (`g = 0`, `L = 0`, unbounded cache).
fn lemma53(processors: &[usize], z: f64) -> Row {
    let point = |&p: &usize| {
        let half = p / 2;
        let dag = lemma53_construction(p, z);
        let arch = Architecture::new(p, 1e6, 0.0, 0.0);
        // Node 0 is the source, then ladder by ladder the pairs `(u, v)` of
        // positions `0..half`.
        let place = |delay: &dyn Fn(usize) -> usize| {
            let (mut procs, mut steps) = (vec![0], vec![0]);
            for (ladder, position) in (0..half).flat_map(|l| (0..half).map(move |p| (l, p))) {
                procs.extend([2 * ladder, 2 * ladder + 1]);
                steps.extend([1 + delay(ladder) + position; 2]);
            }
            cost(&placed(&dag, &procs, &steps), &dag, &arch, Synchronous)
        };
        let both = vec![place(&|ladder| half - 1 - ladder), place(&|_| 0)];
        costs(format!("P={p}"), both)
    };
    let setting = format!("g=0 L=0 synchronous, Z={z}");
    let costs = processors.iter().map(point).collect();
    let mut row = row(setting, &["aligned", "async_optimal"], costs);
    let within = |(c, &p): (&Costs, &usize)| within_5pct(c.costs[1] / c.costs[0], p as f64 / 2.0);
    let all_within = row.costs.iter().zip(processors).all(within);
    row.claim("every_factor_within_5pct_of_half_p", all_within);
    row
}

/// Lemma 5.4 on five processors (`g = 0`, `L = 0`, unbounded cache). The
/// asynchronous optimum runs `u₁ u₃ | u₂ u₄ | w₁ w₂ | y w₃ | w₄` — two
/// supersteps of `2Z`, makespan `3Z − 1`. The synchronous optimum takes three
/// supersteps `u₁ | u₂ | y`, `u₃ | u₄ | w₁`, `w₂ | w₃ | w₄` of `Z − 1`, `2Z`
/// and `Z − 1`; with `y` and `w₁` on one processor its timelines end at
/// `4Z − 2`.
fn lemma54(zs: &[f64]) -> Row {
    let point = |&z: &f64| {
        let dag = lemma54_construction(z);
        let arch = Architecture::new(5, 1e6, 0.0, 0.0);
        // Node order: s, u1, u2, u3, u4, w1, w2, w3, w4, y.
        let async_optimal = placed(
            &dag,
            &[0, 0, 1, 0, 1, 2, 2, 3, 4, 3],
            &[0, 1, 1, 2, 2, 1, 2, 2, 2, 1],
        );
        let sync_optimal = placed(
            &dag,
            &[0, 0, 1, 0, 1, 2, 2, 3, 4, 2],
            &[0, 1, 1, 2, 2, 2, 3, 3, 3, 1],
        );
        let of = |schedule, model| cost(schedule, &dag, &arch, model);
        let four = vec![
            of(&async_optimal, Asynchronous),
            of(&sync_optimal, Asynchronous),
            of(&sync_optimal, Synchronous),
            of(&async_optimal, Synchronous),
        ];
        costs(format!("Z={z}"), four)
    };
    let columns = [
        "async_of_async_optimal",
        "async_of_sync_optimal",
        "sync_of_sync_optimal",
        "sync_of_async_optimal",
    ];
    let costs = zs.iter().map(point).collect();
    let mut row = row("P=5 g=0 L=0".to_string(), &columns, costs);
    let cheaper = row.costs.iter().all(|c| c.costs[2] < c.costs[3]);
    // Every factor lies between the smallest and the largest.
    let (least, most) = (row.quartiles[0], row.quartiles[4]);
    let near = within_5pct(least, 4.0 / 3.0) && within_5pct(most, 4.0 / 3.0);
    row.claim("sync_optimal_is_cheaper_synchronously", cheaper);
    row.claim("async_optimal_is_cheaper_asynchronously", least > 1.0);
    row.claim("every_factor_within_5pct_of_four_thirds", near);
    row
}

/// Lemma 6.1's zipper chain on one processor with `r = 4`: `v_i` needs
/// `v_{i−1}`, the source `w` and alternately `u_d` / `u'_d`, so the chain end
/// it needs next was evicted one step earlier. Without recomputation both
/// ends are saved once and loaded back in turn (`g` per step); with it the
/// missing chain is computed again beside `w` and `v_i` (`d` per step).
fn lemma61(d: usize, g: f64, ms: &[usize]) -> Row {
    let point = |&m: &usize| {
        let dag = lemma61_construction(d, m);
        let arch = Architecture::new(1, 4.0, g, 0.0);
        // Node order: w, u_1..u_d, u'_1..u'_d, v_0..v_m.
        let end = [NodeId::new(d), NodeId::new(2 * d)];
        let v = |i: usize| NodeId::new(2 * d + 1 + i);
        // `v_i` reads `u_d` for odd `i` and `u'_d` for even `i`.
        let needs = |i: usize| (i + 1) % 2;
        // Computes chain `c` front to back, keeping only its newest node.
        let climb = |steps: &mut Vec<ComputePhaseStep>, c: usize| {
            let mut previous = None;
            for node in (1 + c * d..=(c + 1) * d).map(NodeId::new) {
                steps.push(Compute(node));
                steps.extend(previous.replace(node).map(Delete));
            }
        };
        // Load `w`, compute both chains and `v_0`.
        let mut with = vec![Superstep::empty(1); 2];
        with[0].procs[0].load.push(NodeId::new(0));
        let body = &mut with[1].procs[0];
        climb(&mut body.compute, 0);
        climb(&mut body.compute, 1);
        body.compute.push(Compute(v(0)));
        body.compute.push(Delete(end[1]));
        for i in 1..=m {
            if i > 1 {
                body.compute.push(Delete(end[needs(i - 1)]));
                climb(&mut body.compute, needs(i));
            }
            body.compute.extend([Compute(v(i)), Delete(v(i - 1))]);
        }
        body.save.push(v(m));
        let with = MbspSchedule::from_supersteps(1, &with).expect("one processor");

        // The two-stage conversion never recomputes: one processor, nodes in
        // id order, clairvoyant eviction.
        let everything = vec![ProcId::new(0); dag.num_nodes()];
        let bsp = canonical_bsp(&dag, &arch, &everything, &TieOrder::BreadthFirst.of(&dag));
        let without =
            TwoStageScheduler::new().schedule(&dag, &arch, &bsp, &ClairvoyantPolicy::new());
        let both = [&with, &without].map(|s| cost(s, &dag, &arch, Synchronous));
        costs(format!("m={m}"), both.to_vec())
    };
    let limit = (1.0 + g) / (1.0 + d as f64);
    let setting = format!("P=1 r=4 g={g} L=0 synchronous, d={d}, limit (1+g)/(1+d)={limit}");
    let columns = ["with_recomputation", "without_recomputation"];
    let mut row = row(setting, &columns, ms.iter().map(point).collect());
    // The factor grows with `m`: `quartiles[4]` is the longest chain's.
    row.claim(
        "recomputation_is_cheaper_on_every_instance",
        row.quartiles[0] > 1.0,
    );
    row.claim(
        "longest_chain_factor_within_5pct_of_limit",
        within_5pct(row.quartiles[4], limit),
    );
    row
}

/// The rows Figure 4 plots, in the figure's order.
const FIGURE4: [&str; 5] = [
    "table1",
    "table4_r5",
    "table4_p8",
    "table4_l0",
    "table4_async",
];

impl Recorder for Repro {
    type Instance = Experiment;
    type Row = Row;
    const NAME: &'static str = "repro";
    const BENCHMARK: &'static str =
        "repro: the paper's tables, Figure 4 and gadget lemmas, every claim a named boolean";
    const FLAGS: &'static [&'static str] = &["claims_hold"];

    fn instances(&self, quick: bool) -> Vec<Experiment> {
        let table2 = Sweep::DivideAndConquer {
            instances: if quick { 4 } else { usize::MAX },
        };
        let setting = |processors, cache_factor, latency, cost_model| Setting {
            processors,
            cache_factor,
            g: 1.0,
            latency,
            cost_model,
        };
        let swept = |name, kind, setting| experiment(name, move || sweep(kind, setting));
        let base = setting(4, 3.0, 10.0, Synchronous);
        let r5 = setting(4, 5.0, 10.0, Synchronous);
        let holistic = |name, setting| swept(name, Sweep::Holistic, setting);
        vec![
            holistic("table1", base),
            holistic("table4_r5", r5),
            holistic("table4_r1", setting(4, 1.0, 10.0, Synchronous)),
            holistic("table4_p8", setting(8, 3.0, 10.0, Synchronous)),
            holistic("table4_l0", setting(4, 3.0, 0.0, Synchronous)),
            holistic("table4_async", setting(4, 3.0, 0.0, Asynchronous)),
            swept("table2", table2, r5),
            swept("table3", Sweep::Baselines, base),
            swept(
                "pebbling_p1",
                Sweep::Pebbling,
                setting(1, 3.0, 10.0, Synchronous),
            ),
            experiment("theorem41", || theorem41(&[4, 8, 12, 16])),
            experiment("lemma53", || lemma53(&[4, 6, 8], 200.0)),
            experiment("lemma54", || lemma54(&[20.0, 100.0, 500.0])),
            experiment("lemma61", || lemma61(3, 8.0, &[10, 100, 1000])),
        ]
    }

    fn name(experiment: &Experiment) -> &str {
        experiment.name
    }

    fn measure(&self, experiment: &Experiment) -> Row {
        let name = experiment.name.to_string();
        Row {
            name,
            ..(experiment.run)()
        }
    }

    fn header(&self) -> Fields {
        vec![field("seed", SEED)]
    }

    fn summary(&self, rows: &[Row]) -> Fields {
        let boxes = FIGURE4
            .iter()
            .filter_map(|name| rows.iter().find(|row| row.name == *name))
            .map(|row| {
                let geomean = field("geomean", row.geomeans[1]);
                Value::Map(vec![
                    field("name", &row.name),
                    geomean,
                    field("quartiles", &row.quartiles),
                ])
            });
        let claims = || rows.iter().flat_map(|row| &row.claims);
        vec![
            field("figure4", boxes.collect::<Vec<Value>>()),
            field("claims", claims().count()),
            field("claims_held", claims().filter(|c| c.holds).count()),
        ]
    }

    fn full_bars(&self, rows: &[Row]) -> Vec<String> {
        let mut failed = Vec::new();
        for row in rows {
            for claim in row.claims.iter().filter(|claim| !claim.holds) {
                let (name, claim) = (&row.name, &claim.claim);
                failed.push(format!("repro: {name}: claim `{claim}` does not hold"));
            }
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{finish, lookup, record};
    use serde::Value;
    use std::process::ExitCode;

    /// `Repro` on Theorem 4.1 over a falling `d`: the ratio grows with `d`,
    /// so here it falls.
    struct Rigged;

    impl Recorder for Rigged {
        type Instance = Experiment;
        type Row = Row;
        const NAME: &'static str = Repro::NAME;
        const BENCHMARK: &'static str = Repro::BENCHMARK;
        const FLAGS: &'static [&'static str] = Repro::FLAGS;

        fn instances(&self, _quick: bool) -> Vec<Experiment> {
            vec![experiment("theorem41", || theorem41(&[8, 4]))]
        }
        fn name(experiment: &Experiment) -> &str {
            Repro::name(experiment)
        }
        fn measure(&self, experiment: &Experiment) -> Row {
            Repro.measure(experiment)
        }
        fn full_bars(&self, rows: &[Row]) -> Vec<String> {
            Repro.full_bars(rows)
        }
    }

    #[test]
    fn a_false_claim_fails_the_run_naming_experiment_and_claim() {
        let rigged = Rigged;
        let flag = "repro: theorem41: `claims_hold` is not true";
        assert_eq!(record(&rigged, true, None).violations, [flag]);
        let full = record(&rigged, false, None);
        let named = "repro: theorem41: claim `ratio_strictly_increasing_in_d` does not hold";
        assert_eq!(full.violations, [flag, named]);
        assert_eq!(finish(&[full]), ExitCode::FAILURE);
    }

    /// The report has no timings, so — unlike every other baseline — its rows
    /// can be pinned by value: a scheduler change that moves a cost of the
    /// paper's tables shows up here as a diff against `BENCH_repro.json`.
    #[test]
    fn table1_and_theorem41_reproduce_the_committed_rows_by_value() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
        let parse = |text: &str| -> Value { serde_json::from_str(text).expect("a JSON report") };
        let rows = |report: &Value| -> Vec<Value> {
            let rows = lookup(report, "instances").and_then(Value::as_seq);
            rows.expect("an `instances` array").to_vec()
        };
        let committed = rows(&parse(&std::fs::read_to_string(path).expect(path)));
        for experiment in ["table1", "theorem41"] {
            let fresh = record(&Repro, false, Some(experiment)).report;
            // Through JSON text, the way the committed row went.
            let fresh = rows(&parse(&serde_json::to_string(&fresh).expect("no NaN")));
            let name = Value::Str(experiment.to_string());
            let recorded: Vec<&Value> = committed
                .iter()
                .filter(|row| lookup(row, "name") == Some(&name))
                .collect();
            assert_eq!(fresh.iter().collect::<Vec<_>>(), recorded, "{experiment}");
        }
    }
}
