//! Substrate micro-benches: the building blocks under the tracking
//! algorithms — APSP oracle, overlay construction, de Bruijn routing,
//! MIS rounds, workload generation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mot_core::{MotConfig, MotTracker, ObjectId, Tracker};
use mot_debruijn::DeBruijnGraph;
use mot_hierarchy::{build_doubling, build_general, OverlayConfig};
use mot_net::{generators, CachedOracle, DenseOracle, DijkstraWorkspace, DistanceOracle, NodeId};
use mot_proto::ProtoTracker;
use mot_sim::WorkloadSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bench(c: &mut Criterion) {
    // APSP oracle build (parallel Dijkstra).
    let mut group = c.benchmark_group("apsp_build");
    group.sample_size(10);
    for n in [8usize, 16, 23] {
        let g = generators::grid(n, n).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n * n), &g, |b, g| {
            b.iter(|| DenseOracle::build(g).unwrap())
        });
    }
    group.finish();

    // Dense vs cached distance backends at the grid sizes where the
    // choice starts to matter (1024 and 4096 nodes — the latter is the
    // Auto cutoff). "Build" is what you pay up front: the full APSP
    // matrix for dense, constructor plus 64 point-to-point distances
    // (`DijkstraWorkspace::distance`, one BFS from each end) for cached.
    // "Query" is a mix of point distances and radius-4 balls: row reads
    // for dense, one bounded solve per call for cached.
    let mut group = c.benchmark_group("oracle_backend");
    group.sample_size(10);
    for n in [32usize, 64] {
        let g = generators::grid(n, n).unwrap();
        let nodes = n * n;
        group.bench_with_input(BenchmarkId::new("dense_build", nodes), &g, |b, g| {
            b.iter(|| DenseOracle::build(g).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("cached_build_warm64", nodes),
            &g,
            |b, g| {
                b.iter(|| {
                    let o = CachedOracle::new(g).unwrap();
                    for u in 0..64 {
                        o.dist(NodeId::from_index(u * nodes / 64), NodeId(0));
                    }
                    o
                })
            },
        );
        let query_mix = |o: &dyn DistanceOracle| {
            let mut acc = 0.0;
            for u in (0..nodes).step_by(17) {
                let u = NodeId::from_index(u);
                acc += o.dist(u, NodeId(0));
                acc += o.ball_size(u, 4.0) as f64;
            }
            acc
        };
        let dense = DenseOracle::build(&g).unwrap();
        group.bench_with_input(
            BenchmarkId::new("dense_query_mix", nodes),
            &dense,
            |b, o| b.iter(|| query_mix(o)),
        );
        let cached = CachedOracle::new(&g).unwrap();
        group.bench_with_input(
            BenchmarkId::new("cached_query_mix", nodes),
            &cached,
            |b, o| b.iter(|| query_mix(o)),
        );
    }
    group.finish();

    // The shortest-path kernel under every ball, row and cold solve, one
    // number per inner loop: the unit grid takes the layered loop, the
    // jittered grid (same topology, Euclidean weights) the heap. A
    // change to either loop must leave the other's column where it was.
    // `targeted_x1000` times `distance` over 1 000 seeded pairs: the
    // bidirectional BFS on the unit grid, a heap run to the target on
    // the jittered one.
    let mut group = c.benchmark_group("shortest_path_kernel");
    group.sample_size(10);
    let side = 256;
    let center = NodeId::from_index(side * side / 2 + side / 2);
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    let pairs: Vec<(NodeId, NodeId)> = (0..1000)
        .map(|_| {
            let mut node = || NodeId::from_index(rng.gen_range(0..side * side));
            (node(), node())
        })
        .collect();
    for (name, g) in [
        ("unit", generators::grid(side, side).unwrap()),
        (
            "weighted",
            generators::perturbed_grid(side, side, 0.3, 1).unwrap(),
        ),
    ] {
        assert_eq!(g.is_unit_weight(), name == "unit");
        let mut ws = DijkstraWorkspace::with_capacity(g.node_count());
        group.bench_function(BenchmarkId::new("sssp", name), |b| {
            b.iter(|| {
                ws.sssp(&g, center);
                ws.settled().len()
            })
        });
        for radius in [8.0, 64.0] {
            group.bench_function(BenchmarkId::new(format!("ball_r{radius}"), name), |b| {
                b.iter(|| ws.bounded_ball(&g, center, radius).len())
            });
        }
        group.bench_function(BenchmarkId::new("targeted_x1000", name), |b| {
            b.iter(|| {
                pairs
                    .iter()
                    .map(|&(s, t)| ws.distance(&g, s, t))
                    .sum::<f64>()
            })
        });
    }
    group.finish();

    // Overlay constructions.
    let g = generators::grid(16, 16).unwrap();
    let m = DenseOracle::build(&g).unwrap();
    let mut group = c.benchmark_group("overlay_build_16x16");
    group.sample_size(10);
    group.bench_function("doubling", |b| {
        b.iter(|| build_doubling(&g, &m, &OverlayConfig::practical(), 3))
    });
    group.bench_function("general_sparse_partition", |b| {
        b.iter(|| build_general(&g, &m, &OverlayConfig::practical(), 3))
    });
    group.finish();

    // de Bruijn canonical routing.
    let db = DeBruijnGraph::new(10);
    c.bench_function("debruijn_route_dim10", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let src = i.wrapping_mul(2654435761) & 1023;
            let dst = i.wrapping_mul(40503) & 1023;
            i = i.wrapping_add(1);
            db.route(src, dst)
        })
    });

    // Direct vs message-passing rendering: per-operation overhead of the
    // protocol machinery (they compute identical results and costs).
    let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 7);
    let w = WorkloadSpec::new(5, 200, 3).generate(&g);
    let mut group = c.benchmark_group("rendering_overhead_16x16");
    group.sample_size(20);
    group.bench_function("direct_mot", |b| {
        b.iter(|| {
            let mut t = MotTracker::new(&overlay, &m, MotConfig::plain());
            for (oi, &p) in w.initial.iter().enumerate() {
                t.publish(ObjectId(oi as u32), p).unwrap();
            }
            for mv in &w.moves {
                t.move_object(mv.object, mv.to).unwrap();
            }
            t.query(NodeId(0), ObjectId(0)).unwrap()
        })
    });
    group.bench_function("message_passing_mot", |b| {
        b.iter(|| {
            let mut t = ProtoTracker::new(&overlay, &m, &MotConfig::plain());
            for (oi, &p) in w.initial.iter().enumerate() {
                t.publish(ObjectId(oi as u32), p).unwrap();
            }
            for mv in &w.moves {
                t.move_object(mv.object, mv.to).unwrap();
            }
            t.query(NodeId(0), ObjectId(0)).unwrap()
        })
    });
    group.finish();

    // Workload generation (random walk + waypoint).
    let mut group = c.benchmark_group("workload_generation_16x16");
    group.bench_function("random_walk", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            WorkloadSpec::new(20, 100, seed).generate(&g)
        })
    });
    group.bench_function("waypoint", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            WorkloadSpec {
                objects: 20,
                moves_per_object: 100,
                model: mot_sim::MobilityModel::Waypoint,
                seed,
            }
            .generate(&g)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
