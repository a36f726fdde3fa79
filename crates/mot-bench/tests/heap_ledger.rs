//! The heap ledger adds up: on a cold-started bed, the bytes it names
//! structure by structure are the bytes the process holds.
//!
//! A global allocator keeps one process-wide count of live heap bytes
//! (process-wide because the hierarchy builder runs on its own threads
//! from 4 096 nodes up). This file holds one test, so nothing else in
//! the process allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use mot_bench::HeapLedger;
use mot_core::{MotConfig, MotTracker, ObjectId, Tracker};
use mot_hierarchy::{build_doubling, OverlayConfig};
use mot_net::{generators, CachedOracle, NodeId};

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: as for `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn the_ledger_names_the_live_heap_of_a_cold_start() {
    let before = live();
    let g = generators::grid(64, 64).unwrap();
    let n = g.node_count();
    let oracle = CachedOracle::new(&g).unwrap();
    let overlay = build_doubling(&g, &oracle, &OverlayConfig::practical(), 1);
    let mut tracker = MotTracker::new(&overlay, &oracle, MotConfig::plain());
    for i in 0..100u32 {
        let at = NodeId::from_index(i as usize * 37 % n);
        tracker.publish(ObjectId(i), at).unwrap();
    }
    tracker.query(NodeId(0), ObjectId(7)).unwrap();
    let ledger = HeapLedger::of(&g, &oracle, &overlay, &tracker);
    let held = (live() - before) as f64;

    // The graph is counted once: the oracle's clone shares its base.
    assert!(oracle.graph().shares_base(&g));
    assert!(ledger.oracle < ledger.graph, "{ledger:?}");
    let named = ledger.total() as f64;
    assert!(
        (named - held).abs() <= 0.1 * held,
        "the ledger names {named} B of {held} B live: {ledger:#?}"
    );
}
