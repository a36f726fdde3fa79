//! Every hop length an overlay stores is the oracle's answer, bit for bit.
//!
//! Trackers bill the stored constants of a detection path — the hop into
//! each stop, the reverse hop inside a station, the `up` hop between
//! levels, the drop from each member of a station into the station below
//! — instead of asking the oracle, so a single differing bit would move
//! a cost account. The ball builder reads most hops, and every drop,
//! from balls rooted at the hop's source, but `up` hops from balls rooted
//! at the far end, which on weighted graphs is only sound where it proves
//! the reversed Dijkstra sum quantizes alike (and re-solves forwards
//! elsewhere): the weighted generators below are what hold it to that.

use mot_hierarchy::validate::validate;
use mot_hierarchy::{build_doubling, build_general, Overlay, OverlayConfig};
use mot_net::{generators, CachedOracle, DenseOracle, DistanceOracle, Graph, GraphBuilder, NodeId};

/// Compares every stored hop of `o` with `m.dist`; returns how many
/// forward (incl. `up`) hops, reverse hops and drops were checked.
fn check_hops(o: &Overlay, m: &dyn DistanceOracle, ctx: &str) -> [usize; 3] {
    let (mut forward, mut reverse, mut drops) = (0, 0, 0);
    for u in (0..o.node_count()).map(NodeId::from_index) {
        let mut prev = u;
        let mut length = 0.0;
        for l in 0..=o.height() {
            for (j, &s) in o.station(u, l).iter().enumerate() {
                let want = m.dist(prev, s);
                assert_eq!(
                    o.hop_in(u, l, j).to_bits(),
                    want.to_bits(),
                    "{ctx}: DPath({u}) level {l} stop {j}, hop {prev}->{s}"
                );
                forward += 1;
                if j > 0 {
                    assert_eq!(
                        o.hop_back(u, l, j).to_bits(),
                        m.dist(s, prev).to_bits(),
                        "{ctx}: DPath({u}) level {l} stop {j}, reverse hop {s}->{prev}"
                    );
                    reverse += 1;
                }
                length += want;
                prev = s;
            }
            assert_eq!(
                o.path_length(u, l).to_bits(),
                length.to_bits(),
                "{ctx}: length(DPath_{l}({u})) is the prefix sum of the hops"
            );
            // One drop per member of the station above: the distance to
            // this station's first member (what a prune bills) and its
            // nearest member by (distance, id) (where a descent goes).
            let station = o.station(u, l);
            let above = if l < o.height() {
                o.station(u, l + 1)
            } else {
                &[]
            };
            for &from in above {
                let what = format!("{ctx}: drop {from} -> station({u}, {l})");
                let drop = o
                    .drop_hop(u, l, from)
                    .unwrap_or_else(|| panic!("{what} is not stored"));
                let (nearest_dist, nearest) = station
                    .iter()
                    .map(|&to| (m.dist(from, to), to))
                    .min_by(|a, b| a.partial_cmp(b).unwrap())
                    .unwrap();
                let got = (
                    drop.first.to_bits(),
                    station[drop.nearest],
                    drop.nearest_dist.to_bits(),
                );
                let want = (
                    m.dist(from, station[0]).to_bits(),
                    nearest,
                    nearest_dist.to_bits(),
                );
                assert_eq!(got, want, "{what}");
                drops += 1;
            }
            assert_eq!(
                o.drop_hop(u, l, NodeId::from_index(o.node_count())),
                None,
                "{ctx}: only members of the station above have a drop"
            );
        }
    }
    [forward, reverse, drops]
}

fn profiles() -> [(&'static str, OverlayConfig); 3] {
    [
        ("practical", OverlayConfig::practical()),
        ("paper_exact", OverlayConfig::paper_exact()),
        ("singleton", OverlayConfig::singleton_parents()),
    ]
}

type Builder = fn(&Graph, &dyn DistanceOracle, &OverlayConfig, u64) -> Overlay;

const BALLS: (&str, Builder) = ("balls", build_doubling);
const ALL_BUILDERS: [(&str, Builder); 2] = [BALLS, ("general", build_general)];

/// `builders` on one graph, each profile, both oracles.
fn check_graph(g: &Graph, name: &str, seed: u64, builders: &[(&str, Builder)]) -> [usize; 3] {
    let dense = DenseOracle::build(g).unwrap();
    let cached = CachedOracle::new(g).unwrap();
    let oracles: [(&str, &dyn DistanceOracle); 2] = [("dense", &dense), ("cached", &cached)];
    let mut checked = [0; 3];
    for (profile, cfg) in profiles() {
        for &(builder, build) in builders {
            for &(backend, m) in &oracles {
                let ctx = format!("{name} seed {seed} {profile} {builder} {backend}");
                let o = build(g, m, &cfg, seed);
                // Checked against the dense matrix whichever oracle built
                // it: backends agree bit for bit, and this way a cached
                // build cannot vouch for itself.
                for (sum, n) in checked.iter_mut().zip(check_hops(&o, &dense, &ctx)) {
                    *sum += n;
                }
                let issues = validate(&o, &dense, &cfg);
                assert!(issues.is_empty(), "{ctx}: {issues:?}");
            }
        }
    }
    checked
}

#[test]
fn stored_hops_equal_oracle_distances_on_unit_weight_graphs() {
    for seed in [1, 2, 3] {
        for (g, name) in [
            (generators::grid(9, 7).unwrap(), "grid 9x7"),
            (generators::ring(40).unwrap(), "ring 40"),
            (generators::line(33).unwrap(), "line 33"),
            (generators::random_tree(80, seed).unwrap(), "random tree 80"),
        ] {
            let checked = check_graph(&g, name, seed, &ALL_BUILDERS);
            assert!(checked.iter().all(|&n| n > 0), "{name}: {checked:?}");
        }
    }
}

#[test]
fn stored_hops_equal_oracle_distances_on_weighted_graphs() {
    for seed in [1, 2, 3] {
        let g = generators::random_geometric(90, 10.0, 2.5, seed).unwrap();
        let checked = check_graph(&g, "geometric 90", seed, &ALL_BUILDERS);
        assert!(checked.iter().all(|&n| n > 0), "geometric 90: {checked:?}");
        // The ball builder again, on graphs sized so that every seed's
        // build both accepts reversed reads and re-solves some forwards
        // (≈ 2% of the `up` hops its level rows do not reach).
        let geometric = generators::random_geometric(250, 16.0, 2.5, seed).unwrap();
        let perturbed = generators::perturbed_grid(12, 12, 0.3, seed).unwrap();
        for (g, name) in [(geometric, "geometric 250"), (perturbed, "perturbed 12x12")] {
            check_graph(&g, name, seed, &[BALLS]);
        }
    }
}

#[test]
fn a_shortest_path_can_quantize_differently_by_direction() {
    // The premise of keeping a reverse length where it differs and of
    // never trusting a ball rooted at the far end unchecked: Dijkstra sums a path from
    // its source, f64 addition is not associative, and a sum that lands
    // on an f32 rounding boundary from one side crosses it from the
    // other. On the path 0 -a- 1 -b- 2 -c- 3 below, (a + b) + c is
    // exactly 1 + 2⁻²⁴ (a tie, rounds to 1.0f32) while (c + b) + a is
    // one f64 ulp above it (rounds up).
    let (a, b, c) = (
        0.5 + (-53f64).exp2(),
        0.5,
        (-24f64).exp2() + (-53f64).exp2(),
    );
    let mut builder = GraphBuilder::new(4);
    for (u, w) in [a, b, c].into_iter().enumerate() {
        builder
            .add_edge(NodeId::from_index(u), NodeId::from_index(u + 1), w)
            .unwrap();
    }
    let g = builder.build().unwrap();
    let dense = DenseOracle::build(&g).unwrap();
    assert_eq!(dense.dist(NodeId(0), NodeId(3)), 1.0);
    assert_eq!(
        dense.dist(NodeId(3), NodeId(0)),
        f64::from(1.0f32 + f32::EPSILON)
    );
    // The table stores what each direction's own solve says.
    for (profile, cfg) in profiles() {
        let o = build_doubling(&g, &dense, &cfg, 1);
        check_hops(&o, &dense, &format!("asymmetric path {profile}"));
    }
}

/// The path of [`a_shortest_path_can_quantize_differently_by_direction`]
/// with every weight times `scale`: a power of two scales each sum
/// exactly, so the ends keep their two roundings, now `scale` apart.
fn asymmetric_path(scale: f64) -> Graph {
    let (a, b, c) = (
        0.5 + (-53f64).exp2(),
        0.5,
        (-24f64).exp2() + (-53f64).exp2(),
    );
    let mut builder = GraphBuilder::new(4);
    for (u, w) in [a, b, c].into_iter().enumerate() {
        let (u, v) = (NodeId::from_index(u), NodeId::from_index(u + 1));
        builder.add_edge(u, v, w * scale).unwrap();
    }
    builder.build().unwrap()
}

#[test]
fn reverse_hops_take_bytes_only_where_the_directions_round_apart() {
    // A hop count is the same both ways: no exception on any unit-weight
    // generator, whichever builder, profile or oracle.
    for (g, name) in [
        (generators::grid(9, 7).unwrap(), "grid 9x7"),
        (generators::torus(6, 7).unwrap(), "torus 6x7"),
        (generators::ring(40).unwrap(), "ring 40"),
        (generators::line(33).unwrap(), "line 33"),
        (generators::random_tree(80, 2).unwrap(), "random tree 80"),
    ] {
        assert!(g.is_unit_weight(), "{name}");
        let m = CachedOracle::new(&g).unwrap();
        for (profile, cfg) in profiles() {
            for (builder, build) in ALL_BUILDERS {
                let o = build(&g, &m, &cfg, 3);
                let bytes = o.heap_bytes().table.hops_back;
                assert_eq!(bytes, 0, "{name} {profile} {builder}");
            }
        }
    }
    // On weighted beds the two directions' f32s differ only where a sum
    // lands within an f64 ulp of an f32 rounding boundary, which no
    // random geometric bed hits (none of 15 seeded beds of 250 to 4 000
    // nodes has one), so the exception store is the hand-made tie, four
    // apart: the doubling build of seed 2 and the general build of seed
    // 1 both make its ends consecutive members of one station.
    let g = asymmetric_path(4.0);
    let dense = DenseOracle::build(&g).unwrap();
    assert_ne!(
        dense.dist(NodeId(0), NodeId(3)).to_bits(),
        dense.dist(NodeId(3), NodeId(0)).to_bits()
    );
    let cfg = OverlayConfig::practical();
    for (builder, build, seed) in [("balls", BALLS.1, 2), ("general", ALL_BUILDERS[1].1, 1)] {
        let o = build(&g, &dense, &cfg, seed);
        let ctx = format!("asymmetric path, {builder} seed {seed}");
        assert!(o.heap_bytes().table.hops_back > 0, "{ctx}: no exception");
        let [_, reverse, _] = check_hops(&o, &dense, &ctx);
        assert!(reverse > 0, "{ctx}");
        let issues = validate(&o, &dense, &cfg);
        assert!(issues.is_empty(), "{ctx}: {issues:?}");
    }
}
