//! Panic-recovery behaviour of scoped lanes, exercised against both the
//! process-wide permit count (whose size follows `MBSP_BENCH_THREADS` — CI runs
//! this binary under `MBSP_BENCH_THREADS=2` and `=8`) and explicit capacities.
//!
//! The contract under test: a panicking job never aborts the process or loses
//! a permit; every other job of the batch still runs; the failure surfaces as
//! a re-thrown panic the caller can catch (what the schedulers' `fan_out`
//! relies on); and the very next batch on the same count completes normally.

use mbsp_pool::WorkerPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One poisoned batch followed by a clean batch, on the given pool.
fn poison_then_recover(pool: &WorkerPool, jobs: usize, poisoned: usize) {
    let ran = AtomicUsize::new(0);
    let ran_ref = &ran;
    let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..jobs)
        .map(|i| {
            Box::new(move || {
                if i == poisoned {
                    panic!("injected panic at job {i}");
                }
                ran_ref.fetch_add(1, Ordering::Relaxed);
                i * 2
            }) as Box<dyn FnOnce() -> usize + Send>
        })
        .collect();
    let payload =
        catch_unwind(AssertUnwindSafe(|| pool.run_batch(tasks))).expect_err("poisoned batch fails");
    assert_eq!(
        payload.downcast_ref::<String>(),
        Some(&format!("injected panic at job {poisoned}"))
    );
    assert_eq!(
        ran.load(Ordering::Relaxed),
        jobs - 1,
        "every healthy job of the poisoned batch still ran"
    );
    // Recovery: the same pool serves the next batch with correct results.
    let tasks: Vec<_> = (0..jobs).map(|i| move || i + 1).collect();
    let got = pool.run_batch(tasks);
    assert_eq!(got, (1..=jobs).collect::<Vec<_>>());
}

#[test]
fn the_shared_pool_survives_poisoned_batches() {
    let pool = WorkerPool::shared();
    for poisoned in [0, 3, 7] {
        poison_then_recover(pool, 8, poisoned);
    }
}

#[test]
fn explicit_capacities_survive_poisoned_batches() {
    for cap in [1usize, 2, 8] {
        let pool = WorkerPool::with_capacity(cap);
        poison_then_recover(&pool, 12, 5);
    }
}

#[test]
fn run_batch_rethrows_but_the_pool_keeps_working() {
    let pool = WorkerPool::shared();
    let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4usize)
        .map(|i| {
            Box::new(move || {
                if i == 1 {
                    panic!("rethrown");
                }
                i
            }) as Box<dyn FnOnce() -> usize + Send>
        })
        .collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| pool.run_batch(tasks)));
    let payload = outcome.expect_err("the panic reaches the submitter");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"rethrown"));
    assert_eq!(pool.run_batch(vec![|| 1, || 2, || 3]), vec![1, 2, 3]);
}

#[test]
fn repeated_poisoning_does_not_leak_or_wedge() {
    let pool = WorkerPool::with_capacity(4);
    for round in 0..25 {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6usize)
            .map(|i| {
                Box::new(move || {
                    if i == round % 6 {
                        panic!("round {round}");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        assert!(catch_unwind(AssertUnwindSafe(|| pool.run_batch(tasks))).is_err());
    }
    assert_eq!(pool.run_batch(vec![|| 10, || 20]), vec![10, 20]);
}
