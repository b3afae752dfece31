//! Criterion micro-benchmarks of the candidate-evaluation engine: one full
//! candidate evaluation through the incremental engine vs. the clone-and-recost
//! reference path, plus the underlying conversion step in isolation.

use criterion::{criterion_group, criterion_main, Criterion};
use mbsp_cache::{two_stage, ClairvoyantPolicy, ConversionArena, TwoStageConfig};
use mbsp_ilp::engine::{EvalPath, EvaluationEngine, Move};
use mbsp_ilp::improver::canonical_bsp;
use mbsp_model::{Architecture, CostModel, MbspInstance, MbspSchedule, ProcId};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (MbspInstance, Vec<Vec<ProcId>>) {
    let named = mbsp_gen::tiny_dataset(42).remove(8); // CG_N4_K1, the largest tiny DAG
    let instance =
        MbspInstance::with_cache_factor(named.dag, Architecture::paper_default(0.0), 3.0);
    let bsp = GreedyBspScheduler::new().schedule(instance.dag(), instance.arch());
    // A fixed tour of neighbouring assignments, as the search would visit them.
    let dag = instance.dag();
    let movable: Vec<_> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
    let mut rng = StdRng::seed_from_u64(11);
    let mut procs: Vec<ProcId> = dag.nodes().map(|v| bsp.schedule.proc_of(v)).collect();
    let mut tour = Vec::new();
    while tour.len() < 16 {
        if let Some(mv) = Move::propose(dag, instance.arch(), &procs, &movable, &mut rng) {
            mv.apply(dag, &mut procs);
            tour.push(procs.clone());
        }
    }
    (instance, tour)
}

fn bench_candidate_evaluation(c: &mut Criterion) {
    let (instance, tour) = setup();
    let mut group = c.benchmark_group("candidate_evaluation");
    group.bench_function("engine_incremental", |b| {
        let mut engine = EvaluationEngine::new(&instance, EvalPath::Incremental);
        let mut i = 0usize;
        b.iter(|| {
            let cost = engine.evaluate_assignment_on(
                instance.dag(),
                instance.arch(),
                &tour[i % tour.len()],
                CostModel::Synchronous,
                &[],
            );
            i += 1;
            cost
        })
    });
    group.bench_function("reference_clone_and_recost", |b| {
        let mut engine = EvaluationEngine::new(&instance, EvalPath::Reference);
        let mut i = 0usize;
        b.iter(|| {
            let cost = engine.evaluate_assignment_on(
                instance.dag(),
                instance.arch(),
                &tour[i % tour.len()],
                CostModel::Synchronous,
                &[],
            );
            i += 1;
            cost
        })
    });
    group.finish();
}

fn bench_conversion_only(c: &mut Criterion) {
    let (instance, tour) = setup();
    let (dag, arch) = (instance.dag(), instance.arch());
    let policy = ClairvoyantPolicy::new();
    let config = TwoStageConfig::default();
    let mut group = c.benchmark_group("conversion");
    group.bench_function("arena_convert_assignment", |b| {
        let mut arena = ConversionArena::new(dag, arch);
        let mut out = MbspSchedule::new(arch.processors);
        let mut i = 0usize;
        b.iter(|| {
            arena.convert_assignment(
                dag,
                arch,
                &tour[i % tour.len()],
                &policy,
                config,
                &[],
                &mut out,
            );
            i += 1;
            out.num_supersteps()
        })
    });
    group.bench_function("reference_fresh_converter", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let bsp = canonical_bsp(dag, arch, &tour[i % tour.len()]);
            let out = two_stage::reference::convert(dag, arch, &bsp, &policy, config, &[]);
            i += 1;
            out.num_supersteps()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_candidate_evaluation, bench_conversion_only);
criterion_main!(benches);
