//! Records the worker-pool benchmark baseline — the three comparisons behind
//! this PR's resident-pool + kernel + segment-tree stack, written to
//! `BENCH_pool.json`:
//!
//! 1. **Engine batches** (the headline `instances`/`speedup` section): a seeded
//!    hill climb over processor assignments on the `large_dataset` instances,
//!    evaluating each round's candidate batch end-to-end (canonical superstep
//!    reconstruction → arena conversion → per-candidate post-optimiser → true
//!    synchronous cost). The fast path runs [`EvalPath::Incremental`] engines
//!    (segment-tree merge session, chunked word kernels) on the resident
//!    [`WorkerPool`]; the reference path reproduces the pre-PR stack end to
//!    end — [`EvalPath::EagerMerge`] engines (the `O(S · P)`-shift merge), the
//!    retained one-word-at-a-time kernels (`kernels::set_scalar_mode`), the
//!    conversion arena's retained linear hot loops
//!    (`set_reference_conversion_mode`: full-cache eviction scans and the
//!    quadratic prefetch-window scan, the dominant per-candidate costs at a
//!    generous cache) and one `std::thread::scope` spawn per batch. Every round's
//!    winner and the final costs must be identical, and the pool path must
//!    stay byte-identical for 1, 4 and 8 workers — both asserted.
//! 2. **Kernels**: the chunked autovectorizable word kernels of
//!    `mbsp_model::kernels` against their retained scalar oracles on synthetic
//!    bitset slices (popcount, equality, the masked `parents ⊆ R_p` subset
//!    check), results asserted equal.
//! 3. **Improver**: the post-optimiser's segment-tree merge session
//!    ([`PostOptimizer::optimize`]) against the retained eager pass
//!    ([`PostOptimizer::optimize_eager`]) on the un-optimised two-stage
//!    conversions of the same instances, schedules and costs asserted
//!    bit-identical.
//!
//! Set `MBSP_BENCH_POOL_QUICK=1` for the CI smoke run (small instances,
//! separate `BENCH_pool_quick.json` output); `MBSP_BENCH_POOL_ONLY=<substr>`
//! restricts the run to matching instance names. The full run asserts the
//! headline geomean engine-batch speedup is at least 1.3x.

use mbsp_cache::{ClairvoyantPolicy, TwoStageScheduler};
use mbsp_gen::random::{random_layered_dag, RandomDagConfig};
use mbsp_gen::NamedInstance;
use mbsp_ilp::engine::{
    evaluate_moves_on, evaluate_moves_scoped_on, EvalPath, EvaluationEngine, Move,
};
use mbsp_ilp::improver::PostOptimizer;
use mbsp_model::kernels::{
    masked_subset, masked_subset_scalar, popcount_words, popcount_words_scalar, words_equal,
    words_equal_scalar,
};
use mbsp_model::{Architecture, CostModel, MbspInstance, ProcId};
use mbsp_pool::WorkerPool;
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Worker/engine count of the timed fast-vs-reference comparison.
const WORKERS: usize = 4;
/// Pool-path worker counts whose results must stay byte-identical to the
/// [`WORKERS`]-worker run: serial and oversubscribed. (The 1/2/4/8 sweep lives
/// in `ilp/tests/shard_determinism.rs`; the bench re-checks the end-to-end
/// climb under the two extremes.)
const IDENTITY_WORKERS: [usize; 2] = [1, 8];
const SEED: u64 = 0x900_15EED;
/// Cache size as a multiple of the instance's minimal feasible size `r0`. A
/// generous cache is the merge-heavy regime: the conversion emits few forced
/// I/O splits, so adjacent supersteps rarely depend on each other's load
/// phases and the post-optimiser's fold pass does real work — which is
/// exactly the component this benchmark compares (at a tight cache the pass
/// finds near-zero valid folds on these instances and both paths degenerate
/// to the same scan). Fixed, not env-tunable: the recorded baseline must be
/// reproducible.
const CACHE_FACTOR: f64 = 100.0;

#[derive(Debug, Serialize)]
struct InstanceReport {
    name: String,
    nodes: usize,
    edges: usize,
    supersteps: usize,
    base_cost: f64,
    final_cost: f64,
    evaluations: u64,
    fast_seconds: f64,
    reference_seconds: f64,
    speedup: f64,
    costs_match: bool,
    identical_across_workers: bool,
}

#[derive(Debug, Serialize)]
struct KernelReport {
    name: String,
    words: usize,
    reps: usize,
    fast_seconds: f64,
    scalar_seconds: f64,
    speedup: f64,
    results_match: bool,
}

#[derive(Debug, Serialize)]
struct ImproverReport {
    name: String,
    supersteps_before: usize,
    supersteps_after: usize,
    session_seconds: f64,
    eager_seconds: f64,
    speedup: f64,
    costs_match: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    benchmark: String,
    quick: bool,
    workers: usize,
    rounds: usize,
    moves_per_round: usize,
    instances: Vec<InstanceReport>,
    geomean_speedup: f64,
    kernels: Vec<KernelReport>,
    geomean_kernel_speedup: f64,
    improver: Vec<ImproverReport>,
    geomean_improver_speedup: f64,
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v.max(1e-9).ln();
        count += 1;
    }
    if count == 0 {
        1.0
    } else {
        (sum / count as f64).exp()
    }
}

/// Fragments a schedule into singleton-compute supersteps: each step's compute
/// phase is split one compute per step (per-processor order preserved), with
/// the save/delete/load phases kept on the last fragment. The result is valid
/// — the operation order is unchanged — and is exactly the fragmented shape
/// the merge pass folds back together, so it drives the session-vs-eager
/// comparison through a fold-heavy pass.
fn fragment(schedule: &mbsp_model::MbspSchedule) -> mbsp_model::MbspSchedule {
    use mbsp_model::{ProcPhases, Superstep};
    let p = schedule.processors();
    let mut out = mbsp_model::MbspSchedule::new(p);
    for step in schedule.supersteps() {
        let fragments = step
            .procs
            .iter()
            .map(|ph| ph.compute.len())
            .max()
            .unwrap_or(0)
            .max(1);
        for f in 0..fragments {
            let mut procs = vec![ProcPhases::empty(); p];
            for (pi, ph) in step.procs.iter().enumerate() {
                if let Some(&c) = ph.compute.get(f) {
                    procs[pi].compute.push(c);
                }
                if f == fragments - 1 {
                    procs[pi].save = ph.save.clone();
                    procs[pi].delete = ph.delete.clone();
                    procs[pi].load = ph.load.clone();
                }
            }
            out.push_superstep(Superstep { procs });
        }
    }
    out
}

/// Which batch runner a hill-climb run uses.
enum Backend<'a> {
    /// The resident worker pool (fast path).
    Pool(&'a WorkerPool),
    /// One `std::thread::scope` spawn per batch with the one-word-at-a-time
    /// scalar kernels — the complete pre-PR stack.
    Scoped,
}

/// Outcome of one seeded hill climb: the final cost plus the per-round winner
/// trace (compared across backends and worker counts for exact agreement).
struct ClimbOutcome {
    final_cost: f64,
    winners: Vec<Option<(f64, usize)>>,
    evaluations: u64,
    seconds: f64,
}

/// Runs the seeded hill climb: per round, propose a candidate batch from the
/// shared RNG stream, evaluate it end-to-end through the engines, and accept
/// the winner whenever it improves the incumbent. All randomness is fixed by
/// `SEED`, and the `(cost, index)` winner tie-break is worker-count
/// independent, so every backend and worker count must retrace the same climb.
#[allow(clippy::too_many_arguments)]
fn hill_climb(
    instance: &MbspInstance,
    base_procs: &[ProcId],
    base_cost: f64,
    path: EvalPath,
    backend: Backend<'_>,
    workers: usize,
    rounds: usize,
    moves_per_round: usize,
) -> ClimbOutcome {
    let dag = instance.dag();
    let arch = instance.arch();
    let movable: Vec<_> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
    let mut engines: Vec<EvaluationEngine> = (0..workers)
        .map(|_| EvaluationEngine::new(instance, path))
        .collect();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut procs = base_procs.to_vec();
    let mut current = base_cost;
    let mut winners = Vec::with_capacity(rounds);
    let mut evaluations = 0u64;
    let deadline = Instant::now() + Duration::from_secs(3600);
    // The scoped reference reproduces the pre-PR stack in full: the scalar
    // kernels and the arena's linear-scan prefetch membership test. Both forms
    // of each are operation-identical (differentially tested), so this changes
    // timings only, never winners or costs.
    let reference_stack = matches!(backend, Backend::Scoped);
    mbsp_model::kernels::set_scalar_mode(reference_stack);
    mbsp_cache::set_reference_conversion_mode(reference_stack);
    let start = Instant::now();
    let mut moves: Vec<Move> = Vec::with_capacity(moves_per_round);
    for _ in 0..rounds {
        moves.clear();
        for _ in 0..moves_per_round {
            if let Some(mv) = Move::propose(dag, arch, &procs, &movable, &mut rng) {
                moves.push(mv);
            }
        }
        let outcome = match backend {
            Backend::Pool(pool) => evaluate_moves_on(
                pool,
                &mut engines,
                dag,
                arch,
                &procs,
                &moves,
                CostModel::Synchronous,
                &[],
                deadline,
            ),
            Backend::Scoped => evaluate_moves_scoped_on(
                &mut engines,
                dag,
                arch,
                &procs,
                &moves,
                CostModel::Synchronous,
                &[],
                deadline,
            ),
        };
        evaluations += outcome.evaluations;
        winners.push(outcome.winner);
        if let Some((cost, idx)) = outcome.winner {
            if cost < current {
                moves[idx].apply(dag, &mut procs);
                current = cost;
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    mbsp_model::kernels::set_scalar_mode(false);
    mbsp_cache::set_reference_conversion_mode(false);
    ClimbOutcome {
        final_cost: current,
        winners,
        evaluations,
        seconds,
    }
}

fn bench_kernels(quick: bool, rng: &mut StdRng) -> Vec<KernelReport> {
    use rand::Rng;
    let words_len = if quick { 1 << 10 } else { 1 << 12 };
    let reps = if quick { 400 } else { 20_000 };
    let a: Vec<u64> = (0..words_len).map(|_| rng.gen()).collect();
    let b = a.clone();
    let entries: Vec<u32> = (0..words_len)
        .map(|_| rng.gen_range(0..words_len as u32))
        .collect();
    let masks: Vec<u64> = entries.iter().map(|&w| a[w as usize]).collect();
    let mut reports = Vec::new();

    let mut fast_acc = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        fast_acc = fast_acc.wrapping_add(u64::from(popcount_words(std::hint::black_box(&a))));
    }
    let fast_seconds = start.elapsed().as_secs_f64();
    let mut scalar_acc = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        scalar_acc =
            scalar_acc.wrapping_add(u64::from(popcount_words_scalar(std::hint::black_box(&a))));
    }
    let scalar_seconds = start.elapsed().as_secs_f64();
    reports.push(KernelReport {
        name: "popcount_words".to_string(),
        words: words_len,
        reps,
        fast_seconds,
        scalar_seconds,
        speedup: scalar_seconds / fast_seconds.max(1e-12),
        results_match: fast_acc == scalar_acc,
    });

    let mut fast_eq = true;
    let start = Instant::now();
    for _ in 0..reps {
        fast_eq &= words_equal(std::hint::black_box(&a), std::hint::black_box(&b));
    }
    let fast_seconds = start.elapsed().as_secs_f64();
    let mut scalar_eq = true;
    let start = Instant::now();
    for _ in 0..reps {
        scalar_eq &= words_equal_scalar(std::hint::black_box(&a), std::hint::black_box(&b));
    }
    let scalar_seconds = start.elapsed().as_secs_f64();
    reports.push(KernelReport {
        name: "words_equal".to_string(),
        words: words_len,
        reps,
        fast_seconds,
        scalar_seconds,
        speedup: scalar_seconds / fast_seconds.max(1e-12),
        results_match: fast_eq == scalar_eq && fast_eq,
    });

    let mut fast_sub = true;
    let start = Instant::now();
    for _ in 0..reps {
        fast_sub &= masked_subset(
            std::hint::black_box(&a),
            std::hint::black_box(&entries),
            std::hint::black_box(&masks),
        );
    }
    let fast_seconds = start.elapsed().as_secs_f64();
    let mut scalar_sub = true;
    let start = Instant::now();
    for _ in 0..reps {
        scalar_sub &= masked_subset_scalar(
            std::hint::black_box(&a),
            std::hint::black_box(&entries),
            std::hint::black_box(&masks),
        );
    }
    let scalar_seconds = start.elapsed().as_secs_f64();
    reports.push(KernelReport {
        name: "masked_subset".to_string(),
        words: words_len,
        reps,
        fast_seconds,
        scalar_seconds,
        speedup: scalar_seconds / fast_seconds.max(1e-12),
        results_match: fast_sub == scalar_sub && fast_sub,
    });

    reports
}

fn main() {
    // "0", "" and "false" disable quick mode (the documented contract is `=1`).
    let quick = std::env::var("MBSP_BENCH_POOL_QUICK")
        .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
        .unwrap_or(false);

    let named: Vec<NamedInstance> = if quick {
        vec![
            NamedInstance {
                name: "rand_L10_W40_quick".to_string(),
                family: "random",
                dag: random_layered_dag(
                    &RandomDagConfig {
                        layers: 10,
                        width: 40,
                        edge_probability: 0.1,
                        ..Default::default()
                    },
                    7,
                ),
            },
            NamedInstance {
                name: "rand_L20_W50_quick".to_string(),
                family: "random",
                dag: random_layered_dag(
                    &RandomDagConfig {
                        layers: 20,
                        width: 50,
                        edge_probability: 0.08,
                        ..Default::default()
                    },
                    8,
                ),
            },
        ]
    } else {
        mbsp_gen::large_dataset(42)
    };
    let rounds = if quick { 2 } else { 4 };
    let moves_per_round = if quick { 6 } else { 8 };
    let improver_reps = if quick { 2 } else { 5 };

    // The resident pool, sized for the largest identity run and prewarmed so
    // lazy thread spawning is not billed to the first timed batch.
    let pool = WorkerPool::with_capacity(IDENTITY_WORKERS.iter().copied().max().unwrap());
    let _ = pool.run_batch((0..pool.capacity()).map(|i| move || i).collect::<Vec<_>>());

    // Iteration helper: run only the instances whose name contains the filter.
    let only = std::env::var("MBSP_BENCH_POOL_ONLY").unwrap_or_default();

    let mut instances = Vec::new();
    let mut improver = Vec::new();
    for inst in named
        .iter()
        .filter(|i| only.is_empty() || i.name.contains(&only))
    {
        eprintln!(
            "== {} ({} nodes, {} edges)",
            inst.name,
            inst.dag.num_nodes(),
            inst.dag.num_edges()
        );
        let instance = MbspInstance::with_cache_factor(
            inst.dag.clone(),
            Architecture::paper_default(0.0),
            CACHE_FACTOR,
        );
        let dag = instance.dag();
        let arch = instance.arch();
        let baseline = GreedyBspScheduler::new().schedule(dag, arch);
        let base_procs: Vec<ProcId> = dag.nodes().map(|v| baseline.schedule.proc_of(v)).collect();
        let base_cost = EvaluationEngine::new(&instance, EvalPath::Incremental)
            .evaluate_assignment_on(dag, arch, &base_procs, CostModel::Synchronous, &[]);

        // --- Section 1: end-to-end engine batches, pool vs scoped spawn. ---
        let reference = hill_climb(
            &instance,
            &base_procs,
            base_cost,
            EvalPath::EagerMerge,
            Backend::Scoped,
            WORKERS,
            rounds,
            moves_per_round,
        );
        let fast = hill_climb(
            &instance,
            &base_procs,
            base_cost,
            EvalPath::Incremental,
            Backend::Pool(&pool),
            WORKERS,
            rounds,
            moves_per_round,
        );
        let costs_match = fast.winners == reference.winners
            && fast.final_cost.to_bits() == reference.final_cost.to_bits();
        let mut identical_across_workers = true;
        for workers in IDENTITY_WORKERS {
            let run = hill_climb(
                &instance,
                &base_procs,
                base_cost,
                EvalPath::Incremental,
                Backend::Pool(&pool),
                workers,
                rounds,
                moves_per_round,
            );
            identical_across_workers &= run.winners == fast.winners
                && run.final_cost.to_bits() == fast.final_cost.to_bits();
        }
        let speedup = reference.seconds / fast.seconds.max(1e-9);
        eprintln!(
            "    batches: fast {:.3}s vs reference {:.3}s ({speedup:.2}x), final {:.1} \
             (base {base_cost:.1}), agree: {costs_match}, ==workers: {identical_across_workers}",
            fast.seconds, reference.seconds, fast.final_cost
        );

        // --- Section 3: segment-tree vs eager merge in the post-optimiser. ---
        // The merge-heavy input the pass exists for: the two-stage conversion,
        // fragmented into singleton-compute supersteps (the shape produced by
        // per-part schedule concatenation, which the merge pass folds back).
        let converted = fragment(&TwoStageScheduler::new().schedule(
            dag,
            arch,
            &baseline,
            &ClairvoyantPolicy::new(),
        ));
        converted
            .validate(dag, arch)
            .unwrap_or_else(|e| panic!("{}: fragmented schedule invalid: {e}", inst.name));
        let supersteps_before = converted.num_supersteps();
        let mut session_opt = PostOptimizer::new(dag, arch);
        let mut eager_opt = PostOptimizer::new(dag, arch);
        let mut session_seconds = 0.0;
        let mut eager_seconds = 0.0;
        let mut merge_costs_match = true;
        let mut supersteps_after = supersteps_before;
        for _ in 0..improver_reps {
            let mut s = converted.clone();
            let start = Instant::now();
            let sc = session_opt.optimize(&mut s, dag, arch, CostModel::Synchronous, &[]);
            session_seconds += start.elapsed().as_secs_f64();
            let mut e = converted.clone();
            let start = Instant::now();
            let ec = eager_opt.optimize_eager(&mut e, dag, arch, CostModel::Synchronous, &[]);
            eager_seconds += start.elapsed().as_secs_f64();
            merge_costs_match &= sc.to_bits() == ec.to_bits() && s == e;
            supersteps_after = s.num_supersteps();
        }
        let improver_speedup = eager_seconds / session_seconds.max(1e-9);
        eprintln!(
            "    improver: session {session_seconds:.3}s vs eager {eager_seconds:.3}s \
             ({improver_speedup:.2}x), {supersteps_before} -> {supersteps_after} steps, \
             agree: {merge_costs_match}"
        );
        improver.push(ImproverReport {
            name: inst.name.clone(),
            supersteps_before,
            supersteps_after,
            session_seconds,
            eager_seconds,
            speedup: improver_speedup,
            costs_match: merge_costs_match,
        });

        println!(
            "{:<18} {:>7} nodes   batches {:>6.2}s vs {:>6.2}s ({:>5.2}x)   improver {:>5.2}x   agree: {}",
            inst.name,
            dag.num_nodes(),
            fast.seconds,
            reference.seconds,
            speedup,
            improver_speedup,
            costs_match && merge_costs_match,
        );
        instances.push(InstanceReport {
            name: inst.name.clone(),
            nodes: dag.num_nodes(),
            edges: dag.num_edges(),
            supersteps: supersteps_before,
            base_cost,
            final_cost: fast.final_cost,
            evaluations: fast.evaluations,
            fast_seconds: fast.seconds,
            reference_seconds: reference.seconds,
            speedup,
            costs_match,
            identical_across_workers,
        });
    }

    // --- Section 2: chunked kernels vs scalar oracles. ---
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xF00D);
    let kernels = bench_kernels(quick, &mut rng);
    for k in &kernels {
        eprintln!(
            "    kernel {:<16} {:.2}x (fast {:.4}s vs scalar {:.4}s), agree: {}",
            k.name, k.speedup, k.fast_seconds, k.scalar_seconds, k.results_match
        );
    }

    let geomean_speedup = geomean(instances.iter().map(|r| r.speedup));
    let geomean_kernel_speedup = geomean(kernels.iter().map(|r| r.speedup));
    let geomean_improver_speedup = geomean(improver.iter().map(|r| r.speedup));
    let report = Report {
        benchmark: "resident worker pool + vectorized kernels + segment-tree merge vs \
                    scoped-spawn batches with the eager merge"
            .to_string(),
        quick,
        workers: WORKERS,
        rounds,
        moves_per_round,
        instances,
        geomean_speedup,
        kernels,
        geomean_kernel_speedup,
        improver,
        geomean_improver_speedup,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    // Quick (CI smoke) runs must not clobber the recorded full baseline.
    let path = if quick {
        "BENCH_pool_quick.json"
    } else {
        "BENCH_pool.json"
    };
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("{path} is writable: {e}"));
    println!(
        "geomean speedup: {geomean_speedup:.2}x (kernels {geomean_kernel_speedup:.2}x, \
         improver {geomean_improver_speedup:.2}x) -> {path}"
    );
    assert!(
        report.instances.iter().all(|r| r.costs_match),
        "pool and scoped-spawn engine batches diverged — see {path}"
    );
    assert!(
        report.instances.iter().all(|r| r.identical_across_workers),
        "pool batches diverged across worker counts — see {path}"
    );
    assert!(
        report.kernels.iter().all(|r| r.results_match),
        "chunked kernels diverged from their scalar oracles — see {path}"
    );
    assert!(
        report.improver.iter().all(|r| r.costs_match),
        "segment-tree and eager merge passes diverged — see {path}"
    );
    // The headline acceptance bar of the full run: the new stack must win by
    // at least 1.3x geomean on the end-to-end engine batches.
    if !quick && only.is_empty() {
        assert!(
            geomean_speedup >= 1.3,
            "engine-batch geomean speedup {geomean_speedup:.2}x below the 1.3x bar — see {path}"
        );
    }
}
