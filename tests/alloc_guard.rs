//! Allocation guard for the passing path of a step: with a counting
//! global allocator, a passing ZooKeeper state check (message pools
//! included), matching a scheduled action against a ZooKeeper offer
//! batch and a metrics update on a name already registered allocate
//! nothing at all. A clone, an eager translation or a `to_string()`
//! slipping back into any of them fails here.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mocket::core::{check_state, find_match};
use mocket::obs::MetricsRegistry;
use mocket::targets;
use mocket::zab::ZabBugs;

/// Counts the allocations of the thread that armed it; every other
/// thread (the test harness, the other tests) passes through.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counting touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the number of allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    let out = std::hint::black_box(f());
    ARMED.with(|armed| armed.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

#[test]
fn passing_zookeeper_steps_allocate_nothing() {
    let target = targets::zab(targets::zab_model(), ZabBugs::none());
    let registry = &target.registry;
    let cps = common::checkpoints(&target, 60, 4);
    let in_flight = cps
        .iter()
        .filter(|cp| {
            ["le_msgs", "bc_msgs"]
                .iter()
                .any(|pool| cp.expected.get(pool).is_some_and(|v| !v.is_empty()))
        })
        .count();
    assert!(
        in_flight > 10,
        "the checks compare non-empty pools ({in_flight})"
    );

    let mut matched = 0;
    for (i, cp) in cps.iter().enumerate() {
        let (divergences, n) =
            allocations(|| check_state(&cp.expected, &cp.snapshot, &cp.pools, registry));
        assert!(divergences.is_empty(), "checkpoint {i}: {divergences:?}");
        assert_eq!(n, 0, "checkpoint {i}: a passing state check allocated");

        if !cp.offers.is_empty() {
            let (hit, n) = allocations(|| find_match(registry, &cp.scheduled, &cp.offers));
            assert!(
                hit.is_some(),
                "checkpoint {i}: {} not offered",
                cp.scheduled
            );
            assert_eq!(n, 0, "checkpoint {i}: matching {} allocated", cp.scheduled);
            matched += 1;
        }
    }
    assert!(matched > 10, "{matched} offer batches matched");
}

#[test]
fn metrics_updates_on_known_names_allocate_nothing() {
    let m = MetricsRegistry::default();
    m.add("statecheck.checks", 1);
    m.set_gauge("coverage.fraction", 0.5);
    m.observe("timing.profile.runner_step_seconds", 0.1);
    let ((), n) = allocations(|| {
        m.add("statecheck.checks", 1);
        m.set_gauge("coverage.fraction", 0.75);
        m.observe("timing.profile.runner_step_seconds", 0.2);
    });
    assert_eq!(n, 0, "a metrics update on a known name allocated");
    assert_eq!(m.counter("statecheck.checks"), 2);
    assert_eq!(m.gauge("coverage.fraction"), Some(0.75));
    // A new name still registers, and costs its name's allocation.
    let ((), n) = allocations(|| m.add("statecheck.divergences", 1));
    assert!(n > 0);
}
