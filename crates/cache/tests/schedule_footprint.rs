//! A schedule is a handful of allocations, whatever its length.
//!
//! `MbspSchedule` stores its operations flat — one compute array, one I/O array
//! and their `u32` offsets — so cloning a converted 12,000-node schedule makes
//! a few allocations and requests about the bytes of its operations and
//! offsets; a layout with one `Vec` per phase list makes ≈ 16 allocations per
//! superstep. A counting global allocator measures the clone; this binary has
//! one test, so nothing else allocates while it runs.

// A `#[global_allocator]` implements the `unsafe` trait `GlobalAlloc`.
#![allow(unsafe_code)]

use mbsp_cache::{ClairvoyantPolicy, TwoStageScheduler};
use mbsp_model::{Architecture, MbspInstance};
use mbsp_sched::{BspScheduler, GreedyBspScheduler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting allocations and requested bytes.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_converted_schedule_clones_in_a_handful_of_allocations() {
    let dag = mbsp_gen::random::random_layered_dag(
        &mbsp_gen::random::RandomDagConfig {
            layers: 120,
            width: 100,
            edge_probability: 0.03,
            ..Default::default()
        },
        28,
    );
    assert!(dag.num_nodes() >= 10_000);
    let instance = MbspInstance::with_cache_factor(dag, Architecture::new(4, 0.0, 1.0, 10.0), 3.0);
    let (dag, arch) = (instance.dag(), instance.arch());
    let baseline = GreedyBspScheduler::new().schedule(dag, arch);
    let schedule =
        TwoStageScheduler::new().schedule(dag, arch, &baseline, &ClairvoyantPolicy::new());
    let operations = schedule.operations().len();
    let slots = schedule.num_supersteps() * schedule.processors();
    assert!(schedule.num_supersteps() >= 1_000, "{slots} slots");

    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    );
    let copy = schedule.clone();
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - allocations;
    let bytes = BYTES.load(Ordering::SeqCst) - bytes;
    assert_eq!(copy, schedule);

    assert!(
        allocations <= 8,
        "a clone of {} supersteps made {allocations} allocations",
        schedule.num_supersteps()
    );
    let budget = 8 * operations + 20 * slots + 256;
    assert!(
        bytes <= budget,
        "a clone of {operations} operations in {slots} slots requested {bytes} B (budget {budget} B)"
    );
}
