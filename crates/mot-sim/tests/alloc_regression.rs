//! Allocation-count regression gates for the op hot paths.
//!
//! A counting global allocator wraps the system allocator; a fixed
//! replay runs twice on the same tracker state — once to warm every
//! freelist and cache, once under the counter — and a test fails if the
//! steady-state allocation count per operation creeps past its ceiling.
//! The tree trackers need no warm-up: they are counted from publish on.
//! Nor does the concurrent engine: one whole 22 000-op run is counted
//! against a ceiling per run, not per op.
//! Wall-clock benchmarks drift with the machine; allocation counts are
//! deterministic, so these are the CI-safe witnesses that the
//! arena/freelist work, the inline SDL slot, the tree trackers' chain
//! scratch and the concurrent engine's path-free ops keep paying.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Per thread, because the harness runs the tests of this file side
    /// by side: each counts only what its own thread asked for.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; nothing measured
    // here allocates then.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

use mot_baselines::{build_stun, build_zdat, DetectionRates, TreeTracker, ZdatParams};
use mot_core::{MotConfig, MotTracker, ObjectId, Tracker};
use mot_hierarchy::{build_doubling, OverlayConfig};
use mot_net::{generators, DenseOracle, NodeId};
use mot_proto::ProtoTracker;
use mot_sim::concurrent::ClimbStructure;
use mot_sim::{run_publish, ConcurrentConfig, ConcurrentEngine, WorkloadSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const OPS: u64 = 400;

/// One fixed move+query churn round; identical streams every call.
fn churn(t: &mut ProtoTracker, n: u32, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..OPS / 2 {
        let o = ObjectId(rng.gen_range(0..4u32));
        let to = NodeId(rng.gen_range(0..n));
        if Some(to) != t.proxy_of(o) {
            t.move_object(o, to).unwrap();
        }
        t.query(NodeId(rng.gen_range(0..n)), o).unwrap();
    }
}

#[test]
fn steady_state_replay_allocates_sparingly() {
    let g = generators::grid(8, 8).unwrap();
    let m = DenseOracle::build(&g).unwrap();
    let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
    let mut t = ProtoTracker::new(&overlay, &m, &MotConfig::plain());
    for k in 0..4u32 {
        t.publish(ObjectId(k), NodeId(k * 9)).unwrap();
    }

    // Warm-up: populate the route-buffer freelist, transport queues,
    // and per-node scratch to their high-water capacities.
    churn(&mut t, 64, 11);

    let before = allocs();
    churn(&mut t, 64, 12);
    let per_op = (allocs() - before) as f64 / OPS as f64;

    // Measured steady state is ~1 allocation per op (retry bookkeeping
    // and occasional Vec growth); the ceiling leaves ~4x headroom while
    // still catching a regression to the ~10/op pre-arena behaviour.
    assert!(
        per_op < 4.0,
        "replay hot path allocates {per_op:.1} times per operation; \
         the arena/freelist reuse has regressed"
    );
}

#[test]
fn direct_tracker_moves_and_queries_allocate_next_to_nothing() {
    // The bed, overlay constants and tracker switches of the repository
    // benchmark's service workloads (benchmark/src/workloads/mod.rs).
    let g = generators::grid(32, 32).unwrap();
    let m = DenseOracle::build(&g).unwrap();
    let mut shape = OverlayConfig::practical();
    shape.parent_set_radius_mult = 1.0;
    shape.sp_gap = 2;
    let overlay = build_doubling(&g, &m, &shape, 1);
    let mut cfg = MotConfig::plain();
    cfg.use_special_parents = true;
    cfg.count_sp_cost = false;
    cfg.load_balance = false;
    let mut t = MotTracker::new(&overlay, &m, cfg);

    const OBJECTS: u32 = 100;
    const MOVES: u64 = 50_000;
    const QUERIES: u64 = 20_000;
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut at: Vec<NodeId> = (0..OBJECTS)
        .map(|_| NodeId(rng.gen_range(0..1024)))
        .collect();
    for (o, &p) in at.iter().enumerate() {
        t.publish(ObjectId(o as u32), p).unwrap();
    }
    let mut walk = |t: &mut MotTracker, rng: &mut ChaCha8Rng| {
        for _ in 0..MOVES {
            let o = rng.gen_range(0..OBJECTS);
            let nbrs = g.neighbors(at[o as usize]);
            at[o as usize] = nbrs[rng.gen_range(0..nbrs.len())];
            t.move_object(ObjectId(o), at[o as usize]).unwrap();
        }
    };

    // Warm-up: the move's fragment buffer reaches its high-water
    // capacity.
    walk(&mut t, &mut rng);

    let before = allocs();
    walk(&mut t, &mut rng);
    let per_move = (allocs() - before) as f64 / MOVES as f64;

    let before = allocs();
    for _ in 0..QUERIES {
        let o = ObjectId(rng.gen_range(0..OBJECTS));
        t.query(NodeId(rng.gen_range(0..1024)), o).unwrap();
    }
    let in_queries = allocs() - before;

    // A trail level is its origin (holders and guards are overlay
    // stations), so a move's writes are load counts and a steady-state
    // move allocates nothing. With a `Vec` per SDL slot this read 0.447
    // a move: every special parent installed was one allocation.
    assert!(
        per_move <= 0.05,
        "a steady-state move allocates {per_move:.3} times; \
         SDL installs are on the heap again"
    );
    assert_eq!(in_queries, 0, "queries are read-only and allocate nothing");
}

#[test]
fn tree_tracker_moves_allocate_next_to_nothing() {
    // The figures' tree baselines on a 16×16 bed. A move writes only
    // per-node load counts: who holds an object is derived from its
    // proxy, so the 20 000 moves right after publish allocate only while
    // the kept chain scratch grows to the deepest prune: 1 each now, 282
    // (STUN) and 263 (Z-DAT) with a hash set of objects per sensor, and
    // 0.888 a STUN move before the scratch was kept. A query allocates
    // nothing: STUN's routed via the root, Z-DAT's descending tree hops.
    let g = generators::grid(16, 16).unwrap();
    let m = DenseOracle::build(&g).unwrap();
    let w = WorkloadSpec::new(100, 200, 1).generate(&g);
    assert_eq!(w.moves.len(), 20_000);
    let rates = DetectionRates::from_moves(&g, &w.move_pairs());
    let stun = TreeTracker::new("STUN", build_stun(&g, &rates), &m, false).with_root_queries();
    let zdat = build_zdat(&g, &rates, ZdatParams::default()).unwrap();
    let zdat = TreeTracker::new("Z-DAT", zdat, &m, false);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let queries: Vec<(NodeId, ObjectId)> = (0..2_000)
        .map(|_| {
            (
                NodeId(rng.gen_range(0..256)),
                ObjectId(rng.gen_range(0..100)),
            )
        })
        .collect();
    for mut t in [stun, zdat] {
        run_publish(&mut t, &w).unwrap();

        let before = allocs();
        for mv in &w.moves {
            t.move_object(mv.object, mv.to).unwrap();
        }
        let in_moves = allocs() - before;
        assert!(
            in_moves <= 4,
            "the first {} {} moves allocate {in_moves} times; \
             a move stores holders or a fresh chain scratch again",
            w.moves.len(),
            t.name()
        );

        let before = allocs();
        for &(from, o) in &queries {
            t.query(from, o).unwrap();
        }
        assert_eq!(
            allocs() - before,
            0,
            "{} queries are read-only and allocate nothing",
            t.name()
        );
    }
}

#[test]
fn concurrent_engine_allocates_per_run_not_per_op() {
    // A fig-14 cell on a 16×16 bed, 22 000 ops. With a fresh path `Vec`
    // per op and a fresh op table and event heap per batch this read
    // 3.25 allocations an op. Pooling the paths brought it to 56 a run
    // for MOT and 34 for STUN and Z-DAT. With no path at all an op holds
    // only its current stop, and what is left is the run's own set-up
    // (the grouped moves, the op table and the event heap): it reads 6,
    // 5 and 5.
    let g = generators::grid(16, 16).unwrap();
    let m = DenseOracle::build(&g).unwrap();
    let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 0);
    let w = WorkloadSpec::new(100, 200, 1).generate(&g);
    let rates = DetectionRates::from_moves(&g, &w.move_pairs());
    let cfg = ConcurrentConfig {
        max_inflight_per_object: 10,
        queries_per_batch: 1,
        seed: 0,
    };
    let mut mot = MotTracker::new(&overlay, &m, MotConfig::plain());
    let mut stun = TreeTracker::new("STUN", build_stun(&g, &rates), &m, false).with_root_queries();
    let zdat = build_zdat(&g, &rates, ZdatParams::default()).unwrap();
    let mut zdat = TreeTracker::new("Z-DAT", zdat, &m, false);
    let trackers: [&mut dyn ClimbStructure; 3] = [&mut mot, &mut stun, &mut zdat];
    for t in trackers {
        run_publish(t, &w).unwrap();
        let before = allocs();
        let out = ConcurrentEngine::run(t, &w, &m, &cfg).unwrap();
        let in_run = allocs() - before;
        assert_eq!(out.maintenance.operations, w.moves.len());
        assert_eq!(out.maintenance.operations + out.queries_issued, 22_000);
        assert!(
            in_run <= 16,
            "the concurrent engine allocates {in_run} times in a {} run; \
             an op, batch or commit allocates again",
            t.name()
        );
    }
}
