//! # mbsp-pool — the resident worker pool
//!
//! The workspace has one parallel shape: independent, index-addressed jobs —
//! the shards of the sharded search, the dirty shards of a repair, the parts
//! of divide-and-conquer, the instances of a bench sweep — run side by side
//! and their results are read in index order. This crate is the one **resident**
//! pool those sites share, so none of them spawns threads per batch:
//!
//! * **Capped, lazily spawned workers.** No thread exists until the first batch
//!   is submitted; workers are spawned up to the cap as demand appears. If the
//!   OS refuses a thread (`EAGAIN`), the cap falls back to the number of
//!   workers already running instead of panicking — batches still complete
//!   because submitting threads help execute queued jobs while they wait.
//! * **One shared FIFO.** Batches are appended to a single queue; workers and
//!   waiting submitters take the oldest job. Batch tasks are coarse (one shard,
//!   one part, one [`WorkerPool::run_indexed`] lane), and a lane pulls its
//!   indices from one atomic counter, so load is balanced where the work is
//!   dealt and the queue needs no per-worker structure.
//! * **Scoped batches.** [`WorkerPool::run_batch`] submits a `Vec` of closures
//!   that may borrow from the caller's stack (like `std::thread::scope`) and
//!   blocks until every closure has run, returning the results **in submission
//!   order**. Worker count and scheduling interleaving therefore never change
//!   what a caller observes — every index-ordered sweep is reproducible.
//! * **Panic isolation.** A panicking job does not poison the pool: every job
//!   runs under `catch_unwind`, the batch drains fully, and the first payload
//!   is re-thrown on the submitting thread (mirroring `std::thread::scope`),
//!   where callers can catch it and degrade — the schedulers re-run a
//!   poisoned batch on the calling thread instead of aborting. Workers that
//!   die anyway (stack overflow and friends) are reaped and respawned on the
//!   next batch, and a worker that observes shutdown drains the queue before
//!   exiting so no queued job is ever stranded.
//!
//! The pool is also where the workspace's **cancellation vocabulary** lives:
//! [`CancelToken`] (a cloneable atomic flag with an optional wall-clock expiry)
//! and [`StopReason`]. The schedulers observe the token only at deterministic
//! round boundaries — see the fault-tolerance section of the repository README.
//!
//! The pool also owns the workspace's worker-count contract:
//! [`resolve_workers`] is the single implementation of the `MBSP_BENCH_THREADS`
//! environment-variable parse (an explicit positive count wins, then the
//! environment variable, then the machine's available parallelism — always at
//! least 1).
//!
//! [`WorkerPool::shared`] hands out the process-wide pool that the schedulers
//! thread through `ShardedHolisticScheduler`, `IncrementalScheduler` and
//! `DivideAndConquerScheduler`; isolated pools can still be built with
//! [`WorkerPool::with_capacity`] (tests use this to exercise specific sizes).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
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

/// A queued, lifetime-erased job. Soundness of the erasure rests on
/// [`WorkerPool::run_batch`] never returning before every job of its batch has
/// finished, so the borrows the closure carries outlive its execution.
type Job = Box<dyn FnOnce() + Send>;

/// State shared between the pool handle, its workers and waiting submitters.
struct Shared {
    /// The job queue, spawn bookkeeping and shutdown flag, under one lock: a
    /// worker that finds the queue empty parks on `wake` without letting go of
    /// the lock in between, so an injection is never slept through.
    control: Mutex<Control>,
    /// Wakes parked workers on injection and on shutdown.
    wake: Condvar,
}

struct Control {
    /// Queued jobs of every in-flight batch, oldest first.
    queue: VecDeque<Job>,
    /// Workers spawned so far (they stay resident until shutdown).
    spawned: usize,
    /// Maximum workers this pool may spawn; shrinks on `EAGAIN`.
    cap: usize,
    /// True once a worker spawn failed and the cap was frozen at `spawned`.
    eagain_fallback: bool,
    shutdown: bool,
}

/// Runs one queued job with panic isolation. Batch jobs already wrap the
/// caller's closure in `catch_unwind` and report panics through their batch
/// state; this outer guard is defence in depth so that a panic escaping the
/// glue (e.g. out of a payload's `Drop`) cannot unwind a resident worker.
fn run_isolated(job: Job) {
    let _ = catch_unwind(AssertUnwindSafe(job));
}

/// Resident worker loop: run jobs while any are queued, park otherwise. A
/// worker exits only once shutdown is set *and* the queue is empty, so a
/// submitter blocked on a batch is never stranded by a racing drop.
fn worker_loop(shared: Arc<Shared>) {
    let mut control = shared.control.lock().unwrap();
    loop {
        if let Some(job) = control.queue.pop_front() {
            drop(control);
            run_isolated(job);
            control = shared.control.lock().unwrap();
        } else if control.shutdown {
            break;
        } else {
            control = shared.wake.wait(control).unwrap();
        }
    }
}

/// Progress of one in-flight batch, shared by its jobs and the submitter.
struct BatchState {
    progress: Mutex<BatchProgress>,
    done: Condvar,
}

struct BatchProgress {
    pending: usize,
    /// Payload of the batch's first panic (later ones are dropped, like
    /// `std::thread::scope` joining multiple panicked threads).
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Owns the worker handles; dropping the last pool handle shuts the workers
/// down and joins them.
struct PoolCore {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        {
            let mut control = self.shared.control.lock().unwrap();
            control.shutdown = true;
        }
        self.shared.wake.notify_all();
        for handle in self.handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

/// A cloneable handle to a resident worker pool. All clones share the
/// same workers; the workers shut down when the last handle is dropped (the
/// [`WorkerPool::shared`] pool lives for the whole process).
#[derive(Clone)]
pub struct WorkerPool {
    core: Arc<PoolCore>,
}

impl Default for WorkerPool {
    /// The default handle is a clone of the process-wide [`WorkerPool::shared`]
    /// pool, so `SomeScheduler::default()` joins the resident workers instead of
    /// creating a private pool.
    fn default() -> Self {
        WorkerPool::shared().clone()
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let control = self.core.shared.control.lock().unwrap();
        f.debug_struct("WorkerPool")
            .field("cap", &control.cap)
            .field("spawned", &control.spawned)
            .field("eagain_fallback", &control.eagain_fallback)
            .finish()
    }
}

/// Raw pointer wrapper so a job can carry its result slot across the thread
/// boundary; each job writes a distinct slot, and the batch join orders the
/// writes before any read.
struct SlotPtr<T>(*mut Option<T>);
unsafe impl<T: Send> Send for SlotPtr<T> {}

impl<T> SlotPtr<T> {
    /// # Safety
    /// The slot must be live, written by exactly one job, and read only after
    /// the batch join ordered the write.
    unsafe fn write(&self, value: T) {
        *self.0 = Some(value);
    }
}

impl WorkerPool {
    /// Creates an isolated pool capped at `cap` workers (at least 1). No thread
    /// is spawned until the first batch arrives.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        WorkerPool {
            core: Arc::new(PoolCore {
                shared: Arc::new(Shared {
                    control: Mutex::new(Control {
                        queue: VecDeque::new(),
                        spawned: 0,
                        cap,
                        eagain_fallback: false,
                        shutdown: false,
                    }),
                    wake: Condvar::new(),
                }),
                handles: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The process-wide pool every scheduler defaults to, sized once by
    /// [`resolve_workers`] (so `MBSP_BENCH_THREADS` at startup also bounds the
    /// resident thread count). Its workers live for the rest of the process.
    pub fn shared() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::with_capacity(resolve_workers(0)))
    }

    /// The worker cap (after any `EAGAIN` fallback shrink).
    pub fn capacity(&self) -> usize {
        self.core.shared.control.lock().unwrap().cap
    }

    /// True if a worker spawn ever failed and the pool fell back to the
    /// workers it had at that point.
    pub fn eagain_fallback(&self) -> bool {
        self.core.shared.control.lock().unwrap().eagain_fallback
    }

    /// Spawns workers lazily up to `min(want, cap)`; on a spawn failure
    /// (`EAGAIN`-class resource exhaustion) freezes the cap at the current
    /// worker count — the pool keeps functioning because submitters help.
    fn ensure_workers(&self, control: &mut Control, want: usize) {
        // Reap workers that died (defensive `catch_unwind` makes this nearly
        // unreachable, but a stack overflow or a poisoned internal lock can
        // still kill a thread) so the spawn loop below replaces them instead
        // of counting corpses against the cap.
        let mut handles = self.core.handles.lock().unwrap();
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                let _ = handles.swap_remove(i).join();
                control.spawned -= 1;
            } else {
                i += 1;
            }
        }
        let target = want.min(control.cap);
        while control.spawned < target {
            let shared = Arc::clone(&self.core.shared);
            match std::thread::Builder::new()
                .name(format!("mbsp-pool-{}", control.spawned))
                .spawn(move || worker_loop(shared))
            {
                Ok(handle) => {
                    control.spawned += 1;
                    handles.push(handle);
                }
                Err(_) => {
                    control.cap = control.spawned;
                    control.eagain_fallback = true;
                    break;
                }
            }
        }
    }

    /// Runs a batch of scoped closures to completion and returns their results
    /// **in submission order**. Closures may borrow from the caller's stack;
    /// `run_batch` does not return before every closure has finished (this is
    /// the scope guarantee the lifetime erasure rests on). The submitting
    /// thread helps execute queued jobs while it waits, so a batch completes
    /// even if the pool could not spawn a single worker.
    ///
    /// If a closure panics, the remaining jobs still run and the first panic
    /// payload is re-thrown here, like `std::thread::scope`.
    pub fn run_batch<'env, T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let n = tasks.len();
        if n <= 1 {
            // An empty or one-task batch is the serial case: run inline, no
            // queue round trip, panics propagate natively.
            return tasks.into_iter().map(|task| task()).collect();
        }
        let mut results: Vec<Option<T>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let state = Arc::new(BatchState {
            progress: Mutex::new(BatchProgress {
                pending: n,
                panic: None,
            }),
            done: Condvar::new(),
        });
        // Erase every job before injecting any: if this loop could panic (an
        // allocation failure) after injection had started, queued jobs might
        // run while the unwinding caller frees the state they borrow.
        let results_base = results.as_mut_ptr();
        let mut jobs: Vec<Job> = Vec::with_capacity(n);
        for (i, task) in tasks.into_iter().enumerate() {
            let state = Arc::clone(&state);
            let slot = SlotPtr(unsafe { results_base.add(i) });
            let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(task));
                let mut progress = state.progress.lock().unwrap();
                match outcome {
                    // SAFETY: slot `i` is written by exactly this job, and the
                    // submitter reads the slots only after `pending` hits 0.
                    Ok(value) => unsafe { slot.write(value) },
                    Err(payload) => {
                        progress.panic.get_or_insert(payload);
                    }
                }
                progress.pending -= 1;
                if progress.pending == 0 {
                    state.done.notify_all();
                }
            });
            // SAFETY: lifetime erasure of the scope borrow. `run_batch` blocks
            // until `pending == 0`, i.e. until every job has run to completion,
            // so the `'env` borrows inside the job are live whenever it
            // executes. Jobs are never dropped unexecuted: the queue only
            // drains by running, and shutdown joins after every batch returned.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                    job,
                )
            };
            jobs.push(job);
        }
        self.inject(jobs);
        self.help_until_done(&state);
        if let Some(payload) = state.progress.lock().unwrap().panic.take() {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every batch job fills its slot"))
            .collect()
    }

    /// Maps `f` over `0..count` with dynamic index stealing across at most
    /// `lanes` concurrent lanes and returns the results **in index order** —
    /// the pool-backed form of the bench harness's deterministic sweeps.
    pub fn run_indexed<T, F>(&self, count: usize, lanes: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let lanes = lanes.clamp(1, count);
        if lanes == 1 {
            return (0..count).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let next = &next;
        let f = &f;
        let chunks = self.run_batch(
            (0..lanes)
                .map(|_| {
                    move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        local
                    }
                })
                .collect(),
        );
        let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
        slots.resize_with(count, || None);
        for chunk in chunks {
            for (i, value) in chunk {
                slots[i] = Some(value);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index is produced exactly once"))
            .collect()
    }

    /// Appends a batch's jobs to the queue and makes sure enough workers are
    /// awake (spawning lazily on first use).
    fn inject(&self, jobs: Vec<Job>) {
        let shared = &self.core.shared;
        let want = jobs.len();
        {
            let mut control = shared.control.lock().unwrap();
            control.queue.extend(jobs);
            self.ensure_workers(&mut control, want);
        }
        shared.wake.notify_all();
    }

    /// Blocks until `state`'s batch has fully completed, executing queued jobs
    /// (of any batch — nested batches make this the deadlock-freedom guarantee)
    /// while any are available.
    fn help_until_done(&self, state: &BatchState) {
        let shared = &self.core.shared;
        loop {
            if state.progress.lock().unwrap().pending == 0 {
                return;
            }
            let job = shared.control.lock().unwrap().queue.pop_front();
            if let Some(job) = job {
                job();
                continue;
            }
            // Every remaining job of the batch is running on some thread; its
            // completion notifies `done`. The timeout is a backstop that also
            // re-polls the queue (another batch may have queued helpable work).
            let progress = state.progress.lock().unwrap();
            if progress.pending == 0 {
                return;
            }
            let _ = state
                .done
                .wait_timeout(progress, Duration::from_millis(10))
                .unwrap();
        }
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
        // No worker is needed (or spawned) for inline batches.
        assert!(!pool.eagain_fallback());
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
    fn dropping_handles_under_load_joins_cleanly() {
        // Clones of the pool are dropped from other threads while batches are
        // in flight; every batch must still complete with correct results and
        // the final drop must join all workers without hanging.
        let pool = WorkerPool::with_capacity(3);
        let batches: Vec<_> = (0..4)
            .map(|b| {
                let handle = pool.clone();
                std::thread::spawn(move || {
                    let tasks: Vec<_> = (0..32)
                        .map(|i| {
                            move || {
                                std::thread::sleep(Duration::from_micros(200));
                                b * 100 + i
                            }
                        })
                        .collect();
                    handle.run_batch(tasks)
                })
            })
            .collect();
        for _ in 0..8 {
            drop(pool.clone());
        }
        drop(pool); // workers keep running: the batch threads hold clones
        for (b, t) in batches.into_iter().enumerate() {
            let got = t.join().expect("batch thread");
            let want: Vec<usize> = (0..32).map(|i| b * 100 + i).collect();
            assert_eq!(got, want);
        }
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
    fn workers_spawn_lazily_and_stay_within_the_cap() {
        let pool = WorkerPool::with_capacity(3);
        assert_eq!(pool.capacity(), 3);
        {
            let control = pool.core.shared.control.lock().unwrap();
            assert_eq!(control.spawned, 0, "no batch yet, no thread yet");
        }
        let tasks: Vec<_> = (0..10).map(|i| move || i).collect();
        pool.run_batch(tasks);
        let control = pool.core.shared.control.lock().unwrap();
        assert!(control.spawned <= 3);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = WorkerPool::shared();
        let b = WorkerPool::shared();
        assert!(Arc::ptr_eq(&a.core, &b.core));
        assert!(a.capacity() >= 1);
    }

    #[test]
    fn resolve_workers_is_at_least_one() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
    }
}
