//! The stop signal of the sharded search and the dirty-cone repair: the cancel
//! token and the deadline it carries are observed only at deterministic
//! round/pass boundaries, so a run stopped before it starts is byte-identical
//! for any worker count, and every stopped run returns its best incumbent so
//! far and reports a typed [`StopReason`](mbsp_ilp::StopReason) — also when
//! only its last pass was cut.

use mbsp_ilp::{
    CancelToken, IncrementalScheduler, RepairConfig, ShardedHolisticScheduler, ShardedSearchConfig,
    StopReason,
};
use mbsp_model::{Architecture, MbspInstance, ProcId};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use std::sync::Arc;
use std::time::Duration;

fn instance() -> MbspInstance {
    let inst = mbsp_gen::tiny_dataset(42).remove(3);
    MbspInstance::with_cache_factor(inst.dag, Architecture::paper_default(0.0), 3.0)
}

fn search_config(workers: usize) -> ShardedSearchConfig {
    ShardedSearchConfig {
        num_shards: 4,
        workers,
        max_rounds: 4,
        moves_per_round: 12,
        iterations: 3,
        ..Default::default()
    }
}

fn seed_procs(inst: &MbspInstance) -> Vec<ProcId> {
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    inst.dag()
        .nodes()
        .map(|v| baseline.schedule.proc_of(v))
        .collect()
}

#[test]
fn a_pre_cancelled_search_returns_the_seed_incumbent_identically() {
    let inst = instance();
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    let mut schedules = Vec::new();
    for workers in [1usize, 4, 8] {
        let token = CancelToken::new();
        token.cancel();
        let sharded =
            ShardedHolisticScheduler::with_config(search_config(workers)).with_cancel(&token);
        let (schedule, stats) = sharded.schedule_with_stats(&inst, &baseline);
        assert_eq!(stats.stop_reason, StopReason::Cancelled);
        assert_eq!(stats.iterations, 0, "no iteration may start when cancelled");
        schedule.validate(inst.dag(), inst.arch()).unwrap();
        schedules.push(schedule);
    }
    assert_eq!(schedules[0], schedules[1]);
    assert_eq!(schedules[0], schedules[2]);
}

#[test]
fn an_uncancelled_token_changes_nothing() {
    let inst = instance();
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    let plain = ShardedHolisticScheduler::with_config(search_config(1));
    let (expect, expect_stats) = plain.schedule_with_stats(&inst, &baseline);
    let token = CancelToken::new();
    let tokened = ShardedHolisticScheduler::with_config(search_config(1)).with_cancel(&token);
    let (got, got_stats) = tokened.schedule_with_stats(&inst, &baseline);
    assert_eq!(got, expect);
    assert_eq!(got_stats.stop_reason, StopReason::Completed);
    assert_eq!(got_stats.stop_reason, expect_stats.stop_reason);
    assert_eq!(got_stats.evaluations, expect_stats.evaluations);
}

#[test]
fn a_cancelled_repair_still_returns_a_valid_incumbent() {
    let inst = instance();
    let token = CancelToken::new();
    token.cancel();
    let mut schedules = Vec::new();
    for workers in [1usize, 4] {
        let mut sched = IncrementalScheduler::new(
            inst.dag().clone(),
            *inst.arch(),
            seed_procs(&inst),
            RepairConfig {
                search: search_config(workers),
                cone_radius: 2,
            },
        )
        .with_cancel(&token);
        let (schedule, stats) = sched.full_repair();
        assert_eq!(stats.stop_reason, StopReason::Cancelled);
        // The incumbent is returned unchanged: nothing ran, nothing regressed.
        assert!((stats.final_cost - stats.incumbent_cost).abs() < 1e-12);
        schedule.validate(sched.dag(), inst.arch()).unwrap();
        schedules.push(schedule);
    }
    assert_eq!(schedules[0], schedules[1]);
}

/// One pass whose shard searches would each run 2,000 rounds: seconds of
/// work, so a signal 5 ms in lands mid-pass.
fn one_long_pass() -> ShardedSearchConfig {
    ShardedSearchConfig {
        num_shards: 4,
        workers: 2,
        max_rounds: 2_000,
        moves_per_round: 30,
        stale_round_limit: 0,
        iterations: 1,
        ..Default::default()
    }
}

/// The cost and evaluation count of the seed incumbent of `config`'s search.
fn seed_of(inst: &MbspInstance, config: ShardedSearchConfig) -> (f64, u64) {
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    let token = CancelToken::new();
    token.cancel();
    let sharded = ShardedHolisticScheduler::with_config(config).with_cancel(&token);
    let (_, stats) = sharded.schedule_with_stats(inst, &baseline);
    assert_eq!(stats.iterations, 0);
    (stats.final_cost, stats.evaluations)
}

#[test]
fn a_cancel_that_cuts_the_only_pass_is_reported() {
    let inst = instance();
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    let (seed_cost, _) = seed_of(&inst, one_long_pass());
    let token = CancelToken::new();
    // The seed incumbent is emitted right before the pass: the killer starts
    // its 5 ms there, so the cancel lands among the pass's 2,000 rounds.
    let (seeded, seed_seen) = std::sync::mpsc::channel();
    let sharded = ShardedHolisticScheduler::with_config(one_long_pass())
        .with_cancel(&token)
        .with_observer(Arc::new(move |_| {
            let _ = seeded.send(());
        }));
    let killer = {
        let token = token.clone();
        std::thread::spawn(move || {
            seed_seen.recv().unwrap();
            std::thread::sleep(Duration::from_millis(5));
            token.cancel();
        })
    };
    let (schedule, stats) = sharded.schedule_with_stats(&inst, &baseline);
    killer.join().unwrap();
    // Every shard search of the one pass was cut short: not a completed run.
    assert_eq!(stats.stop_reason, StopReason::Cancelled);
    assert!(stats.evaluations < 4 * 2_000 * 30);
    schedule.validate(inst.dag(), inst.arch()).unwrap();
    assert!(stats.final_cost <= seed_cost + 1e-9);
}

#[test]
fn a_deadline_that_cuts_the_only_pass_is_reported() {
    let inst = instance();
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    let (seed_cost, _) = seed_of(&inst, one_long_pass());
    let deadline = CancelToken::new().expiring_after(Duration::from_millis(5));
    let (schedule, stats) = ShardedHolisticScheduler::with_config(one_long_pass())
        .with_cancel(&deadline)
        .schedule_with_stats(&inst, &baseline);
    assert_eq!(stats.stop_reason, StopReason::DeadlineExpired);
    assert!(stats.evaluations < 4 * 2_000 * 30);
    schedule.validate(inst.dag(), inst.arch()).unwrap();
    assert!(stats.final_cost <= seed_cost + 1e-9);
}

#[test]
fn an_expired_deadline_returns_the_seed_incumbent_like_a_cancel_does() {
    let inst = instance();
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    let (seed_cost, seed_evaluations) = seed_of(&inst, search_config(1));
    let mut schedules = Vec::new();
    for workers in [1usize, 4, 8] {
        let expired = CancelToken::new().expiring_after(Duration::ZERO);
        let (schedule, stats) = ShardedHolisticScheduler::with_config(search_config(workers))
            .with_cancel(&expired)
            .schedule_with_stats(&inst, &baseline);
        assert_eq!(stats.stop_reason, StopReason::DeadlineExpired);
        assert_eq!(stats.iterations, 0, "no pass may start past the deadline");
        assert_eq!(stats.evaluations, seed_evaluations);
        assert_eq!(stats.final_cost.to_bits(), seed_cost.to_bits());
        schedule.validate(inst.dag(), inst.arch()).unwrap();
        schedules.push(schedule);
    }
    assert_eq!(schedules[0], schedules[1]);
    assert_eq!(schedules[0], schedules[2]);
}

#[test]
fn cancelling_mid_run_from_another_thread_stops_the_search() {
    let inst = instance();
    let baseline = GreedyBspScheduler::new().schedule(inst.dag(), inst.arch());
    let token = CancelToken::new();
    // A deliberately huge budget: without cancellation this would grind
    // through every iteration; the token must cut it short at a boundary.
    let config = ShardedSearchConfig {
        num_shards: 4,
        workers: 2,
        max_rounds: 60,
        moves_per_round: 30,
        iterations: 500,
        ..Default::default()
    };
    let sharded = ShardedHolisticScheduler::with_config(config).with_cancel(&token);
    let killer = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        })
    };
    let start = std::time::Instant::now();
    let (schedule, stats) = sharded.schedule_with_stats(&inst, &baseline);
    killer.join().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "cancellation must stop the run well before the 600 s budget"
    );
    assert_eq!(stats.stop_reason, StopReason::Cancelled);
    assert!(stats.iterations < 500);
    schedule.validate(inst.dag(), inst.arch()).unwrap();
    assert!(stats.final_cost.is_finite());
}
