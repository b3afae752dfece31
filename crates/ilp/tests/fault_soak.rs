//! Fault-injection soak: a mutation-stream repair session driven under a
//! seeded [`FaultPlan`] — worker panics, corrupted checkpoints and invalid
//! deltas — must never abort, surface every failure as a typed error, and
//! never let a repair regress past its pre-fault incumbent.
//!
//! CI runs this binary across a fixed seed matrix via `MBSP_FAULT_SEED`
//! (default `0xF417`); the plan, the stream and therefore the entire fault
//! schedule are deterministic in that seed.

use mbsp_dag::PkOrder;
use mbsp_gen::{mutation_stream, FaultPlan, MutationStreamConfig};
use mbsp_ilp::{IncrementalScheduler, RepairConfig, ShardedSearchConfig};
use mbsp_model::{Architecture, MbspInstance, ProcId};
use mbsp_pool::WorkerPool;
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn soak_seed() -> u64 {
    match std::env::var("MBSP_FAULT_SEED") {
        Ok(v) if !v.is_empty() => v
            .parse()
            .unwrap_or_else(|_| panic!("MBSP_FAULT_SEED {v:?} is not a u64")),
        _ => 0xF417,
    }
}

fn instance() -> MbspInstance {
    let inst = mbsp_gen::tiny_dataset(42).remove(2);
    MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
}

fn seed_procs(inst: &MbspInstance) -> Vec<ProcId> {
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    inst.dag()
        .nodes()
        .map(|v| baseline.schedule.proc_of(v))
        .collect()
}

#[test]
fn the_engine_survives_a_seeded_fault_schedule() {
    let seed = soak_seed();
    let inst = instance();
    let config = MutationStreamConfig {
        ops: 48,
        ..Default::default()
    };
    // Generate against a probe so the stream applies cleanly to the session.
    let stream = {
        let mut probe = inst.dag().clone();
        let mut order = PkOrder::of_dag(&probe);
        let stream = mutation_stream(&probe, &config, seed);
        for delta in &stream {
            probe.apply_delta(delta, &mut order).unwrap();
        }
        stream
    };
    let plan = FaultPlan::seeded(seed, stream.len());
    assert!(!plan.panic_ops.is_empty());
    assert!(!plan.corrupt_ops.is_empty());
    assert!(!plan.invalid_delta_ops.is_empty());

    // The session shares a permit count with the test so panics can be
    // injected into calls that take the same permits the repairs take.
    let pool = WorkerPool::with_capacity(2);
    let mut sched = IncrementalScheduler::new(
        inst.dag().clone(),
        *inst.arch(),
        seed_procs(&inst),
        RepairConfig {
            search: ShardedSearchConfig {
                num_shards: 4,
                workers: 2,
                max_rounds: 3,
                moves_per_round: 10,
                ..Default::default()
            },
            cone_radius: 2,
        },
    )
    .with_pool(pool.clone());
    sched.full_repair();

    let mut injected_panics = 0usize;
    let mut rejected_restores = 0usize;
    let mut rejected_deltas = 0usize;
    for (op, delta) in stream.iter().enumerate() {
        if plan.panics_at(op) {
            // Poison a call on the session's own permit count; the panic must
            // reach the caller (where the schedulers' fan-out catches it) and
            // every permit must be back for the session afterwards.
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4usize)
                .map(|i| {
                    Box::new(move || {
                        if i == 2 {
                            panic!("soak-injected panic at op {i}");
                        }
                        i
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            let payload = catch_unwind(AssertUnwindSafe(|| pool.run_batch(tasks)))
                .expect_err("poisoned batch");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("soak-injected panic at op 2")
            );
            injected_panics += 1;
        }
        if plan.invalid_delta_at(op) {
            let pending_before = sched.num_pending();
            let procs_before = sched.assignment().to_vec();
            let bad = FaultPlan::invalid_delta(op, sched.dag().num_nodes());
            sched
                .apply(&bad)
                .expect_err("an invalid delta must be rejected");
            assert_eq!(sched.num_pending(), pending_before, "rejection is atomic");
            assert_eq!(sched.assignment(), &procs_before[..]);
            rejected_deltas += 1;
        }
        if let Some(corruption) = plan.corruption_at(op) {
            let blob = sched.checkpoint();
            let bad = corruption.apply(&blob);
            IncrementalScheduler::restore(&bad)
                .expect_err("a corrupted checkpoint must be rejected");
            // The clean blob still restores; the live session is unharmed.
            let back = IncrementalScheduler::restore(&blob).expect("clean restore");
            assert_eq!(back.checkpoint(), blob);
            rejected_restores += 1;
        }
        sched.apply(delta).unwrap();
        if op % 8 == 7 {
            let (schedule, stats) = sched.repair();
            assert!(
                stats.final_cost <= stats.incumbent_cost + 1e-9,
                "op {op}: repair regressed past its pre-fault incumbent"
            );
            schedule.validate(sched.dag(), inst.arch()).unwrap();
        }
    }
    let (schedule, stats) = sched.repair();
    assert!(stats.final_cost <= stats.incumbent_cost + 1e-9);
    schedule.validate(sched.dag(), inst.arch()).unwrap();
    assert_eq!(injected_panics, plan.panic_ops.len());
    assert_eq!(rejected_restores, plan.corrupt_ops.len());
    assert_eq!(rejected_deltas, plan.invalid_delta_ops.len());
    // The permit count the panics were injected into served every repair
    // above and still starts lanes.
    assert_eq!(pool.run_batch(vec![|| 1, || 2]), vec![1, 2]);
}
