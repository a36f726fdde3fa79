//! Cache behavior under churn: the `CachedOracle` must stay exact and
//! *accountable* while rows are promoted, evicted, and recomputed.
//!
//! Three properties are pinned here, on top of the value-level parity
//! the `oracle_differential` suite already proves:
//!
//! 1. **Eviction determinism** — the ledger (hits / misses / evictions
//!    / promotions) is a pure function of the query stream and the byte
//!    budget, so identical runs produce identical ledgers.
//! 2. **Interleaved reuse** — pooled Dijkstra workspaces carry no state
//!    between solves: interleaving oracles, query types, and threads
//!    never changes a distance.
//! 3. **Bounded memory at scale** — at 100k nodes the resident-row
//!    footprint respects the configured byte budget even under heavy
//!    promotion churn (the property a row-count cap cannot give: its
//!    worst case still grows with n²).

use mot_net::{generators, CachedOracle, DenseOracle, DistanceOracle, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Bytes of one resident row on an n-node graph (f32 per node + a
/// sorted (f32, u32) view), mirroring `DistRow::bytes`.
fn row_bytes(n: usize) -> usize {
    12 * n
}

/// A deterministic mixed dist/ball query stream over an n-node graph.
/// Arithmetic (not RNG) so the stream is reproducible by inspection.
fn churn_stream(oracle: &CachedOracle, n: usize) -> f64 {
    let mut acc = 0.0;
    for i in 0..600usize {
        let u = NodeId::from_index((i * 37) % n);
        let v = NodeId::from_index((i * 91 + 13) % n);
        acc += oracle.dist(u, v);
        if i % 5 == 0 {
            acc += oracle.ball(u, (i % 7) as f64).len() as f64;
        }
    }
    acc
}

#[test]
fn eviction_ledger_is_deterministic_for_a_fixed_stream_and_budget() {
    let g = generators::grid(12, 12).unwrap();
    let budget = 3 * row_bytes(144);
    let run = || {
        let oracle = CachedOracle::with_byte_budget(&g, budget).unwrap();
        let acc = churn_stream(&oracle, 144);
        (acc, oracle.ledger())
    };
    let (acc_a, ledger_a) = run();
    let (acc_b, ledger_b) = run();
    assert_eq!(acc_a, acc_b, "query values must be deterministic");
    assert_eq!(ledger_a, ledger_b, "ledger must be deterministic");
    // The stream is hot enough to exercise every cache transition.
    assert!(ledger_a.hits > 0, "{ledger_a:?}");
    assert!(ledger_a.misses > 0, "{ledger_a:?}");
    assert!(ledger_a.promotions > 3, "{ledger_a:?}");
    assert!(ledger_a.evictions > 0, "{ledger_a:?}");
    assert!(ledger_a.resident_bytes <= budget, "{ledger_a:?}");
}

#[test]
fn ledger_is_pinned_to_the_heap_kernels_counts_on_a_64x64_grid() {
    // Promotion is billed in *settled nodes*: a targeted solve that cut
    // `settled` one node early or late, or a ball that kept its overshoot
    // layer, would promote a hot source on a different query and move
    // every count below. The numbers are what the heap loop gave on this
    // stream before the unit-weight layered loop existed.
    let n = 64 * 64;
    let g = generators::grid(64, 64).unwrap();
    let oracle = CachedOracle::with_byte_budget(&g, 6 * row_bytes(n)).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    let node = |rng: &mut ChaCha8Rng| NodeId::from_index(rng.gen_range(0..n));
    let hot: Vec<NodeId> = (0..24).map(|_| node(&mut rng)).collect();
    let mut acc = 0.0;
    for _ in 0..4000 {
        let u = if rng.gen_bool(0.8) {
            hot[rng.gen_range(0..hot.len())]
        } else {
            node(&mut rng)
        };
        match rng.gen_range(0..4) {
            0 | 1 => acc += oracle.dist(u, node(&mut rng)),
            2 => acc += oracle.ball(u, rng.gen_range(0..24) as f64 / 2.0).len() as f64,
            _ => acc += oracle.ball_size(u, rng.gen_range(0..12) as f64) as f64,
        }
    }
    let l = oracle.ledger();
    assert_eq!(acc, 255755.0, "query values");
    assert_eq!(
        (l.hits, l.misses, l.promotions, l.evictions),
        (766, 3234, 381, 375),
        "{l:?}"
    );
}

#[test]
fn a_larger_budget_trades_evictions_for_hits_on_the_same_stream() {
    let g = generators::grid(12, 12).unwrap();
    let tight = CachedOracle::with_byte_budget(&g, 2 * row_bytes(144)).unwrap();
    let roomy = CachedOracle::with_byte_budget(&g, 64 * row_bytes(144)).unwrap();
    let acc_tight = churn_stream(&tight, 144);
    let acc_roomy = churn_stream(&roomy, 144);
    assert_eq!(acc_tight, acc_roomy, "budget must never change values");
    let (lt, lr) = (tight.ledger(), roomy.ledger());
    assert!(lt.evictions > lr.evictions, "{lt:?} vs {lr:?}");
    assert!(lt.hits < lr.hits, "{lt:?} vs {lr:?}");
}

#[test]
fn interleaved_oracles_and_query_types_match_dense() {
    // Two oracles over different graphs, queried in lockstep: pooled
    // workspaces inside each oracle are reused across interleaved
    // dist/ball solves and must never leak state between runs.
    let ga = generators::grid(9, 8).unwrap();
    let gb = generators::random_geometric(70, 9.0, 2.5, 23).unwrap();
    let da = DenseOracle::build(&ga).unwrap();
    let db = DenseOracle::build(&gb).unwrap();
    let ca = CachedOracle::with_byte_budget(&ga, 2 * row_bytes(72)).unwrap();
    let cb = CachedOracle::with_byte_budget(&gb, 2 * row_bytes(70)).unwrap();
    for i in 0..400usize {
        let (ua, va) = (
            NodeId::from_index((i * 31) % 72),
            NodeId::from_index((i * 17 + 5) % 72),
        );
        let (ub, vb) = (
            NodeId::from_index((i * 29) % 70),
            NodeId::from_index((i * 13 + 3) % 70),
        );
        assert_eq!(ca.dist(ua, va), da.dist(ua, va), "step {i}");
        assert_eq!(cb.dist(ub, vb), db.dist(ub, vb), "step {i}");
        if i % 3 == 0 {
            let r = (i % 9) as f64 / 2.0;
            assert_eq!(ca.ball(ua, r), da.ball(ua, r), "step {i}");
            assert_eq!(cb.ball(ub, r), db.ball(ub, r), "step {i}");
        }
    }
    assert!(ca.ledger().evictions > 0);
    assert!(cb.ledger().evictions > 0);
}

#[test]
fn concurrent_churn_on_a_tiny_budget_matches_dense() {
    // Four threads hammer one two-row oracle: rows race in and out of
    // the cache while pooled workspaces are handed between threads.
    let g = generators::grid(10, 10).unwrap();
    let dense = DenseOracle::build(&g).unwrap();
    let cached = CachedOracle::with_byte_budget(&g, 2 * row_bytes(100)).unwrap();
    std::thread::scope(|s| {
        for t in 0..4usize {
            let (cached, dense) = (&cached, &dense);
            s.spawn(move || {
                for i in 0..300usize {
                    let u = NodeId::from_index((i * 37 + t * 25) % 100);
                    let v = NodeId::from_index((i * 91 + 13) % 100);
                    assert_eq!(cached.dist(u, v), dense.dist(u, v));
                }
            });
        }
    });
    let ledger = cached.ledger();
    assert!(ledger.resident_bytes <= 2 * row_bytes(100), "{ledger:?}");
}

#[test]
fn memory_bytes_respects_the_budget_at_100k_nodes() {
    // 250×400 grid = 100_000 nodes; budget admits exactly 4 rows.
    let g = generators::grid(250, 400).unwrap();
    let n = g.node_count();
    assert_eq!(n, 100_000);
    let budget = 4 * row_bytes(n);
    let oracle = CachedOracle::with_byte_budget(&g, budget).unwrap();
    // Ten sources each run a diameter-radius ball (settles all n nodes,
    // crossing the promotion threshold) and then a dist, whose miss
    // promotes a full row. Ten promotions against a four-row budget
    // forces six evictions.
    let far = NodeId::from_index(n - 1);
    for i in 0..10usize {
        let u = NodeId::from_index(i * 11_111);
        oracle.ball(u, 650.0);
        oracle.dist(u, far);
        assert!(
            oracle.memory_bytes() <= budget,
            "footprint above budget after source {i}: {} > {budget}",
            oracle.memory_bytes()
        );
    }
    let ledger = oracle.ledger();
    assert_eq!(ledger.promotions, 10, "{ledger:?}");
    assert_eq!(ledger.evictions, 6, "{ledger:?}");
    assert_eq!(ledger.resident_rows, 4, "{ledger:?}");
    assert_eq!(ledger.resident_bytes, oracle.memory_bytes());
    // Evicted rows recompute exactly: corner-to-corner Manhattan dist.
    assert_eq!(oracle.dist(NodeId(0), far), 249.0 + 399.0);
}
