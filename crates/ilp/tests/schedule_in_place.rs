//! [`IncrementalScheduler::schedule`] runs the full sharded search on the warm
//! session's own DAG and adopts the winner in place. It must be
//! indistinguishable from the owning detour it replaces — clone the DAG into
//! an `MbspInstance`, run [`ShardedHolisticScheduler`], rebuild the session
//! from the winning assignment with [`IncrementalScheduler::new`]: same
//! schedule, same statistics, same incumbent stream, same checkpoint bytes.

use mbsp_gen::{mutation_stream, MutationStreamConfig};
use mbsp_ilp::{
    CancelToken, IncrementalScheduler, IncumbentObserver, IncumbentUpdate, RepairConfig,
    ShardStrategy, ShardedHolisticScheduler, ShardedSearchConfig, StopReason,
};
use mbsp_model::{Architecture, MbspInstance, ProcId};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use std::sync::{Arc, Mutex};

fn instance() -> MbspInstance {
    let inst = mbsp_gen::tiny_dataset(42).remove(2);
    MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
}

fn search_config(strategy: ShardStrategy) -> ShardedSearchConfig {
    ShardedSearchConfig {
        strategy,
        num_shards: 3,
        max_rounds: 4,
        moves_per_round: 12,
        iterations: 2,
        ..Default::default()
    }
}

/// A session that has applied structural deltas (so its live order is no
/// longer the one `PkOrder::of_dag` builds) and still holds their touched
/// nodes as pending.
fn mutated_session() -> IncrementalScheduler {
    let inst = instance();
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    let procs: Vec<ProcId> = inst
        .dag()
        .nodes()
        .map(|v| baseline.schedule.proc_of(v))
        .collect();
    let mut session = IncrementalScheduler::new(
        inst.dag().clone(),
        *inst.arch(),
        procs,
        RepairConfig::default(),
    );
    let stream_config = MutationStreamConfig {
        ops: 12,
        ..Default::default()
    };
    for delta in mutation_stream(inst.dag(), &stream_config, 5) {
        session.apply(&delta).unwrap();
    }
    assert!(session.num_pending() > 0);
    session
}

fn recording_observer() -> (IncumbentObserver, Arc<Mutex<Vec<IncumbentUpdate>>>) {
    let stream = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&stream);
    let observer: IncumbentObserver =
        Arc::new(move |update: &IncumbentUpdate| sink.lock().unwrap().push(update.clone()));
    (observer, stream)
}

#[test]
fn scheduling_in_place_equals_the_owning_search_plus_a_rebuilt_session() {
    for strategy in [ShardStrategy::Topo, ShardStrategy::Weighted] {
        let config = search_config(strategy);
        let mut session = mutated_session();
        let baseline = GreedyBspScheduler::new().schedule(session.dag(), session.arch());

        let owned = MbspInstance::new(session.dag().clone(), *session.arch());
        let (observer, expect_stream) = recording_observer();
        let (expect, expect_stats, procs) = ShardedHolisticScheduler::with_config(config)
            .with_observer(observer)
            .schedule_with_assignment(&owned, &baseline);
        let rebuilt = IncrementalScheduler::new(
            session.dag().clone(),
            *session.arch(),
            procs,
            *session.config(),
        );

        let (observer, got_stream) = recording_observer();
        let (got, got_stats) = session.schedule(&config, &baseline, Some(observer));

        assert_eq!(got, expect, "{strategy:?}");
        assert_eq!(got_stats.evaluations, expect_stats.evaluations);
        assert_eq!(
            got_stats.final_cost.to_bits(),
            expect_stats.final_cost.to_bits()
        );
        assert_eq!(got_stats.iterations, expect_stats.iterations);
        assert_eq!(got_stats.stop_reason, expect_stats.stop_reason);
        assert_eq!(
            *got_stream.lock().unwrap(),
            *expect_stream.lock().unwrap(),
            "{strategy:?}: incumbent streams diverged"
        );
        assert_eq!(session.num_pending(), 0);
        assert_eq!(session.assignment(), rebuilt.assignment());
        assert_eq!(
            session.checkpoint(),
            rebuilt.checkpoint(),
            "{strategy:?}: the adopted session is not the rebuilt one"
        );
    }
}

#[test]
fn a_pre_cancelled_in_place_schedule_adopts_the_baseline() {
    let mut session = mutated_session();
    let baseline = GreedyBspScheduler::new().schedule(session.dag(), session.arch());
    let token = CancelToken::new();
    token.cancel();
    session.set_cancel(Some(&token));
    let (schedule, stats) = session.schedule(&search_config(ShardStrategy::Topo), &baseline, None);
    assert_eq!(stats.stop_reason, StopReason::Cancelled);
    assert_eq!(stats.iterations, 0, "no iteration may start when cancelled");
    // The seed incumbent: the baseline's assignment in both tie orders and
    // the baseline's own supersteps.
    assert_eq!(stats.evaluations, 3);
    schedule.validate(session.dag(), session.arch()).unwrap();
    let baseline_procs: Vec<ProcId> = session
        .dag()
        .nodes()
        .map(|v| baseline.schedule.proc_of(v))
        .collect();
    assert_eq!(session.assignment(), &baseline_procs[..]);
    assert_eq!(session.num_pending(), 0);
}
