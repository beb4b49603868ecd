//! The zero-alloc cycle-loop contract, enforced by `cargo test`.
//!
//! The steady-state simulation loop is allocation-free: once a system is
//! warm (ring buffers sized, caches and free lists populated), committing
//! further instructions must not touch the heap. This test binary installs
//! a counting allocator as its global allocator and pins that contract.

use fireguard_soc::{build_system, ExperimentConfig, KernelId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations per committed event the warm loop may make (amortised).
const STEADY_STATE_ALLOC_BUDGET: f64 = 0.001;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts allocations and reallocations.
struct CountingAllocator;

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_cycle_loop_does_not_allocate() {
    let insts = 20_000u64;
    let cfg = ExperimentConfig::new("swaptions")
        .kernel(KernelId::PMC, 4)
        .insts(insts)
        .seed(42);
    let mut sys = build_system(&cfg, cfg.trace());
    // Warm-up: queue growth, cache fills, allocator churn all happen here.
    let _ = sys.run_insts(insts / 2, 0);

    let before = allocations();
    let r = sys.run_insts(insts, 0);
    let allocs = allocations() - before;

    assert!(r.committed >= insts, "run completed: {}", r.committed);
    let per_event = allocs as f64 / (insts / 2) as f64;
    assert!(
        per_event <= STEADY_STATE_ALLOC_BUDGET,
        "steady-state cycle loop allocated: {allocs} allocations over {} events \
         ({per_event:.5}/event, budget {STEADY_STATE_ALLOC_BUDGET})",
        insts / 2
    );
}
