//! # mbsp-pool — scoped lanes under one permit count
//!
//! The workspace has one parallel shape: independent, index-addressed jobs —
//! the shards of the sharded search, the dirty shards of a repair, the parts
//! of divide-and-conquer, the instances of a bench sweep — run side by side
//! and their results are read in index order. [`WorkerPool::run_indexed`] is
//! that shape, and no thread of it outlives the call that started it:
//!
//! * **The caller plus scoped lanes.** The calling thread is always a lane. The
//!   others are started with `std::thread::Builder::spawn_scoped` for this call
//!   and exit with it; all of them pull indices from one atomic counter. There
//!   is no queue, so a caller never runs another caller's job and never waits
//!   on one.
//! * **One permit count.** A [`WorkerPool`] is a shared count of lane permits.
//!   A call takes what it can, without waiting, for its extra lanes and gives
//!   them back on every exit, unwinding included. The threads running at once
//!   therefore stay within the capacity plus the callers. A lane the OS refuses
//!   to start (`EAGAIN`) is simply not started.
//! * **Results in index order.** [`WorkerPool::run_batch`], a `Vec` of closures
//!   that may borrow from the caller's stack, is the same call with one lane
//!   per closure. Lane count and interleaving never change what a caller
//!   observes, so every index-ordered sweep is reproducible.
//! * **Panic isolation.** With more than one lane, every index runs under
//!   `catch_unwind`. Once all have run, the first panicking index's payload is
//!   re-thrown on the caller, like `std::thread::scope`, where the schedulers
//!   catch it and re-run the batch on the calling thread. No thread outlives
//!   the call, so none needs respawning.
//!
//! This crate is also where the workspace's **cancellation vocabulary** lives:
//! [`CancelToken`] (a cloneable atomic flag with an optional wall-clock expiry)
//! and [`StopReason`]. The schedulers observe the token only at deterministic
//! round boundaries — see the fault-tolerance section of the repository README.
//!
//! It also owns the workspace's worker-count contract:
//! [`resolve_workers`] is the single implementation of the `MBSP_BENCH_THREADS`
//! environment-variable parse (an explicit positive count wins, then the
//! environment variable, then the machine's available parallelism — always at
//! least 1).
//!
//! [`WorkerPool::shared`] hands out the process-wide permit count that the
//! schedulers thread through `ShardedHolisticScheduler` and
//! `IncrementalScheduler` and that `DivideAndConquerScheduler`'s part fan-out
//! takes its lanes from; private counts are built with
//! [`WorkerPool::with_capacity`] (tests use this to exercise specific sizes).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The workspace's one stop signal: a cloneable cancellation flag — one
/// `cancel()` is observed by every clone — that may also carry a wall-clock
/// expiry ([`CancelToken::expiring_after`]).
///
/// The schedulers check the token **only at deterministic boundaries** — the
/// top of a shard-search round, the top of a partition → search → merge pass,
/// a branch-and-bound node pop — never mid-evaluation and never between the
/// candidates of a round. A stopped run therefore returns a valid, never-worse
/// incumbent and names the signal in its [`StopReason`]; a token that was
/// cancelled or had expired *before* the run starts yields the seed incumbent,
/// byte-identical for any worker count. Every other budget in the workspace is
/// a count, and these are the only lines that read the clock.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    expiry: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token that never expires.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token sharing this one's flag that additionally expires `after` from
    /// now; an instant the clock cannot represent (`Duration::MAX`) is no
    /// expiry. Replaces any expiry this token carried.
    pub fn expiring_after(&self, after: Duration) -> Self {
        CancelToken {
            flag: Arc::clone(&self.flag),
            expiry: Instant::now().checked_add(after),
        }
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once any clone has been cancelled or the expiry has passed.
    pub fn is_cancelled(&self) -> bool {
        self.reason().is_some()
    }

    /// Which signal stopped the run — the flag outranks the clock when both
    /// hold — or `None` while it may continue. A token without an expiry never
    /// reads the clock.
    pub fn reason(&self) -> Option<StopReason> {
        if self.flag.load(Ordering::Acquire) {
            Some(StopReason::Cancelled)
        } else if self.expiry.is_some_and(|at| Instant::now() >= at) {
            Some(StopReason::DeadlineExpired)
        } else {
            None
        }
    }
}

/// Why a search run stopped. Ordered by precedence: when several boundaries
/// of one run observed different signals, the run reports the greatest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum StopReason {
    /// The run exhausted its configured budget normally.
    #[default]
    Completed,
    /// The [`CancelToken`]'s expiry passed and a boundary observed it.
    DeadlineExpired,
    /// A [`CancelToken`] was cancelled and a boundary observed it.
    Cancelled,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Completed => write!(f, "completed"),
            StopReason::DeadlineExpired => write!(f, "deadline expired"),
            StopReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Resolves the number of evaluation workers: an explicit positive `configured`
/// wins; otherwise the `MBSP_BENCH_THREADS` environment variable; otherwise the
/// machine's available parallelism. Always at least 1.
///
/// This is the one worker-count contract of the workspace — every parallel
/// site (sharded search, dirty-cone repair, divide-and-conquer, bench sweeps)
/// resolves its worker count through this function, so
/// `MBSP_BENCH_THREADS=1` forces serial runs everywhere at once.
pub fn resolve_workers(configured: usize) -> usize {
    if configured >= 1 {
        return configured;
    }
    let env = std::env::var("MBSP_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t >= 1);
    env.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A cloneable handle to a count of lane permits. All clones share one
/// count; a [`WorkerPool::run_indexed`] call takes permits for its extra lanes
/// and returns them when it ends, so the lanes running at once beyond their
/// callers never exceed [`WorkerPool::capacity`]. No thread outlives a call.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    /// Permits not held by a running call.
    free: Arc<Mutex<usize>>,
    cap: usize,
}

impl Default for WorkerPool {
    /// The default handle is a clone of the process-wide [`WorkerPool::shared`]
    /// count, so `SomeScheduler::default()` shares its permits instead of
    /// getting a private count.
    fn default() -> Self {
        WorkerPool::shared().clone()
    }
}

/// Permits one call holds; dropping it returns them, unwinding included.
struct Permits<'a> {
    free: &'a Mutex<usize>,
    taken: usize,
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        // Nothing panics while the lock is held, but a poisoned count must
        // still take its permits back rather than abort an unwind.
        *self.free.lock().unwrap_or_else(PoisonError::into_inner) += self.taken;
    }
}

impl WorkerPool {
    /// Creates an isolated count of `cap` lane permits (at least 1).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        WorkerPool {
            free: Arc::new(Mutex::new(cap)),
            cap,
        }
    }

    /// The process-wide permit count every scheduler defaults to, sized once
    /// by [`resolve_workers`] (so `MBSP_BENCH_THREADS` at startup also bounds
    /// the lanes running at once).
    pub fn shared() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::with_capacity(resolve_workers(0)))
    }

    /// The number of permits this count was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Runs a batch of closures, which may borrow from the caller's stack, and
    /// returns their results **in submission order**: [`WorkerPool::run_indexed`]
    /// with one lane per closure.
    pub fn run_batch<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let tasks: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.run_indexed(tasks.len(), tasks.len(), |i| {
            let task = tasks[i].lock().expect("held only to take").take();
            task.expect("each index runs once")()
        })
    }

    /// Maps `f` over `0..count` on at most `lanes` lanes and returns the
    /// results **in index order**. The calling thread is always a lane; the
    /// others are scoped threads started for this call with the permits it
    /// could take without waiting. Lanes pull indices from one atomic counter,
    /// so a caller runs only its own indices.
    ///
    /// With more than one lane, every index runs under `catch_unwind`; once
    /// all have run, the payload of the first index that panicked is re-thrown
    /// here, like `std::thread::scope`.
    pub fn run_indexed<T, F>(&self, count: usize, lanes: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let lanes = lanes.min(count);
        if lanes <= 1 {
            return (0..count).map(f).collect();
        }
        let permits = {
            let mut free = self.free.lock().expect("no panic holds this lock");
            let taken = (*free).min(lanes - 1);
            *free -= taken;
            Permits {
                free: &self.free,
                taken,
            }
        };
        let next = AtomicUsize::new(0);
        let lane = || {
            let mut ran = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return ran;
                }
                ran.push((i, catch_unwind(AssertUnwindSafe(|| f(i)))));
            }
        };
        let mut ran: Vec<_> = std::thread::scope(|scope| {
            // A lane the OS refuses to start (`EAGAIN`) is simply not started.
            let spawned: Vec<_> = (0..permits.taken)
                .filter_map(|_| std::thread::Builder::new().spawn_scoped(scope, lane).ok())
                .collect();
            let mut ran = lane();
            for handle in spawned {
                ran.extend(handle.join().unwrap_or_else(|p| resume_unwind(p)));
            }
            ran
        });
        ran.sort_unstable_by_key(|&(i, _)| i);
        ran.into_iter()
            .map(|(_, result)| result.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_results_arrive_in_submission_order() {
        let pool = WorkerPool::with_capacity(4);
        for rounds in 0..3 {
            let tasks: Vec<_> = (0..17).map(|i| move || i * i + rounds).collect();
            let got = pool.run_batch(tasks);
            let want: Vec<usize> = (0..17).map(|i| i * i + rounds).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn batches_may_borrow_the_callers_stack() {
        let pool = WorkerPool::with_capacity(2);
        let data: Vec<u64> = (0..1000).collect();
        let tasks: Vec<_> = data
            .chunks(100)
            .map(|chunk| move || chunk.iter().sum::<u64>())
            .collect();
        let sums = pool.run_batch(tasks);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn empty_and_single_batches_run_inline() {
        let pool = WorkerPool::with_capacity(3);
        let none: Vec<usize> = pool.run_batch(Vec::<fn() -> usize>::new());
        assert!(none.is_empty());
        assert_eq!(pool.run_batch(vec![|| 41 + 1]), vec![42]);
    }

    #[test]
    fn results_are_identical_for_any_pool_size() {
        let work = |i: usize| -> u64 {
            let mut h = i as u64 ^ 0x9E37_79B9_7F4A_7C15;
            for _ in 0..50 {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            h
        };
        let mut outcomes = Vec::new();
        for cap in [1usize, 2, 4, 8] {
            let pool = WorkerPool::with_capacity(cap);
            let tasks: Vec<_> = (0..64).map(|i| move || work(i)).collect();
            outcomes.push(pool.run_batch(tasks));
        }
        for o in &outcomes[1..] {
            assert_eq!(&outcomes[0], o);
        }
    }

    #[test]
    fn run_indexed_covers_every_index_in_order() {
        let pool = WorkerPool::with_capacity(4);
        for lanes in [1usize, 2, 3, 8] {
            let got = pool.run_indexed(13, lanes, |i| i * 3);
            let want: Vec<usize> = (0..13).map(|i| i * 3).collect();
            assert_eq!(got, want, "lanes = {lanes}");
        }
        assert!(pool.run_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let pool = WorkerPool::with_capacity(2);
        let outer: Vec<_> = (0..4)
            .map(|o| {
                let pool = pool.clone();
                move || {
                    let inner: Vec<_> = (0..4).map(|i| move || o * 10 + i).collect();
                    pool.run_batch(inner).into_iter().sum::<usize>()
                }
            })
            .collect();
        let sums = pool.run_batch(outer);
        assert_eq!(sums, vec![6, 46, 86, 126]);
    }

    #[test]
    fn a_panicking_job_propagates_after_the_batch_drains() {
        let pool = WorkerPool::with_capacity(2);
        let ran = AtomicUsize::new(0);
        let ran_ref = &ran;
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("job {i} failed");
                    }
                    ran_ref.fetch_add(1, Ordering::Relaxed);
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.run_batch(tasks)));
        assert!(outcome.is_err());
        // Every non-panicking job still ran (the batch drains before rethrow).
        assert_eq!(ran.load(Ordering::Relaxed), 5);
        // The pool survives and accepts the next batch.
        assert_eq!(pool.run_batch(vec![|| 1, || 2]), vec![1, 2]);
    }

    #[test]
    fn cancel_tokens_and_deadlines_expire_as_documented() {
        let token = CancelToken::new();
        let timed = token.expiring_after(Duration::from_secs(3600));
        assert!(!timed.is_cancelled());
        assert_eq!(timed.reason(), None);
        token.cancel();
        assert!(timed.is_cancelled(), "the flag is shared");
        assert_eq!(timed.reason(), Some(StopReason::Cancelled));

        let past = CancelToken::new().expiring_after(Duration::ZERO);
        assert!(past.is_cancelled());
        assert_eq!(past.reason(), Some(StopReason::DeadlineExpired));
        assert_eq!(past.clone().reason(), Some(StopReason::DeadlineExpired));
        // The flag outranks the clock when both hold.
        past.cancel();
        assert_eq!(past.reason(), Some(StopReason::Cancelled));
        // No expiry, no clock: `Duration::MAX` is "never", like a plain token.
        let never = CancelToken::new().expiring_after(Duration::MAX);
        assert!(never.expiry.is_none() && CancelToken::new().expiry.is_none());
        assert_eq!(never.reason(), None);
    }

    #[test]
    fn a_caller_runs_only_its_own_indices() {
        // One permit: thread B's three-job batch runs two jobs (B and one
        // lane) that hold until released, its third waits for a free lane.
        // A's batch must not run B's third job while it waits for its own.
        let pool = WorkerPool::with_capacity(1);
        let (running, release) = (&AtomicUsize::new(0), &AtomicBool::new(false));
        let give_up = Instant::now() + Duration::from_secs(5);
        std::thread::scope(|scope| {
            let b = scope.spawn(|| {
                let tasks: Vec<_> = (0..3)
                    .map(|_| {
                        move || {
                            running.fetch_add(1, Ordering::SeqCst);
                            while !release.load(Ordering::SeqCst) && Instant::now() < give_up {
                                std::thread::yield_now();
                            }
                        }
                    })
                    .collect();
                pool.run_batch(tasks)
            });
            while running.load(Ordering::SeqCst) < 2 && Instant::now() < give_up {
                std::thread::yield_now();
            }
            assert_eq!(running.load(Ordering::SeqCst), 2, "B holds two jobs");
            assert_eq!(pool.run_batch(vec![|| 1, || 2]), vec![1, 2]);
            assert!(Instant::now() < give_up, "A waited for B's jobs");
            release.store(true, Ordering::SeqCst);
            assert_eq!(b.join().unwrap().len(), 3);
        });
    }

    #[test]
    fn lanes_stay_within_the_permits_and_every_permit_comes_back() {
        let pool = WorkerPool::with_capacity(2);
        let (running, high) = (&AtomicUsize::new(0), &AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let caller = std::thread::current().id();
                    pool.run_indexed(16, 4, |i| {
                        let lane = std::thread::current().id() != caller;
                        if lane {
                            high.fetch_max(
                                running.fetch_add(1, Ordering::SeqCst) + 1,
                                Ordering::SeqCst,
                            );
                        }
                        std::thread::sleep(Duration::from_millis(2));
                        if lane {
                            running.fetch_sub(1, Ordering::SeqCst);
                        }
                        i
                    })
                });
            }
        });
        let high = high.load(Ordering::SeqCst);
        assert!(high <= 2, "{high} lanes beyond their callers at once");

        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(6, 3, |i| if i == 4 { panic!("poisoned") } else { i })
        }));
        assert!(poisoned.is_err());
        // Both permits are back: three indices that wait for each other run on
        // the caller and two lanes (a leaked permit leaves them two threads,
        // so one index gives up waiting and the ids repeat).
        let arrived = &AtomicUsize::new(0);
        let give_up = Instant::now() + Duration::from_secs(5);
        let threads = pool.run_indexed(3, 3, |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 3 && Instant::now() < give_up {
                std::thread::yield_now();
            }
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = threads.into_iter().collect();
        assert_eq!(distinct.len(), 3, "a permit leaked on unwind");
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = WorkerPool::shared();
        let b = WorkerPool::shared();
        assert!(Arc::ptr_eq(&a.free, &b.free));
        assert!(a.capacity() >= 1);
    }

    #[test]
    fn resolve_workers_is_at_least_one() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
    }

    #[test]
    fn resolve_workers_reads_the_bench_threads_env() {
        // An explicit worker count always wins; `0` falls back to
        // MBSP_BENCH_THREADS, then to the machine. The variable is
        // process-global, so its previous value is put back for every test
        // that resolves its workers after this one.
        let previous = std::env::var_os("MBSP_BENCH_THREADS");
        std::env::set_var("MBSP_BENCH_THREADS", "2");
        assert_eq!(resolve_workers(0), 2);
        assert_eq!(resolve_workers(5), 5);
        std::env::remove_var("MBSP_BENCH_THREADS");
        assert!(resolve_workers(0) >= 1);
        if let Some(previous) = previous {
            std::env::set_var("MBSP_BENCH_THREADS", previous);
        }
    }
}
