//! Overlay construction for general networks (§6).
//!
//! The paper uses an `(O(log n), O(log n))` sparse-partition scheme
//! [Awerbuch–Peleg; Jia et al.]: `h ≤ ⌈log D⌉ + 1` levels; at level `ℓ`
//! every node belongs to `O(log n)` labelled clusters of radius
//! `O(2^ℓ log n)`, and every `2^ℓ`-ball is contained inside some cluster,
//! so detection paths of nodes at distance `≤ 2^ℓ` meet at level `ℓ`
//! (Lemma 6.1).
//!
//! We realize the scheme with `O(log n)` independent *randomly shifted
//! padded decompositions* per level (random-permutation ball carving with
//! a random radius in `[R, 2R)`, `R = Θ(2^ℓ ln n)`), which pads any fixed
//! `2^ℓ`-ball with constant probability per trial; a deterministic repair
//! pass then adds an explicit ball-cluster for any node whose ball
//! escaped padding in every trial, making the containment property
//! unconditional. DESIGN.md §6 records this substitution.

use crate::config::OverlayConfig;
use crate::overlay::{Overlay, OverlayKind};
use crate::table::StationTable;
use mot_net::{q32, DijkstraWorkspace, DistanceOracle, Graph, NodeId, BALL_PAD};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One carved partition of the node set.
struct Partition {
    /// cluster index of each node
    assignment: Vec<usize>,
    /// leader (carving center) of each cluster
    leaders: Vec<NodeId>,
}

/// Random-permutation ball carving via radius-bounded Dijkstra: each
/// center claims the unassigned nodes of its padded ball whose
/// quantized distance passes the `<= radius` predicate — the same set a
/// full oracle-row scan would claim, at the cost of the ball, not O(n).
fn carve_partition<R: Rng>(
    g: &Graph,
    ws: &mut DijkstraWorkspace,
    radius: f64,
    rng: &mut R,
) -> Partition {
    let n = g.node_count();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut assignment = vec![usize::MAX; n];
    let mut leaders = Vec::new();
    let mut ball: Vec<NodeId> = Vec::new();
    for &c in &order {
        if assignment[c] != usize::MAX {
            continue;
        }
        let center = NodeId::from_index(c);
        let cluster_idx = leaders.len();
        leaders.push(center);
        ball.clear();
        ball.extend_from_slice(ws.bounded_ball(g, center, radius * BALL_PAD));
        for &v in &ball {
            let slot = &mut assignment[v.index()];
            if *slot == usize::MAX && q32(ws.dist(v)) <= radius {
                *slot = cluster_idx;
            }
        }
    }
    Partition {
        assignment,
        leaders,
    }
}

/// True when the ball `B(u, r)` lies inside `u`'s cluster of `p`.
fn ball_padded(m: &dyn DistanceOracle, p: &Partition, u: NodeId, r: f64) -> bool {
    let cu = p.assignment[u.index()];
    m.ball(u, r)
        .into_iter()
        .all(|v| p.assignment[v.index()] == cu)
}

/// Builds the sparse-partition overlay for an arbitrary (connected)
/// network.
pub fn build_general(g: &Graph, m: &dyn DistanceOracle, cfg: &OverlayConfig, seed: u64) -> Overlay {
    assert_eq!(
        g.node_count(),
        m.node_count(),
        "graph and oracle disagree on n"
    );
    let n = g.node_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let mut ws = DijkstraWorkspace::with_capacity(n);

    // Root: a graph center (min eccentricity) — "the sink node is often
    // the root of HS" and a center minimizes worst-case publish cost.
    // Eccentricities come from one graph-side SSSP per node (quantized
    // through f32 like every oracle read), so no oracle row warm-up is
    // ever triggered.
    let ecc: Vec<f64> = (0..n)
        .map(|u| {
            ws.sssp(g, NodeId::from_index(u));
            (0..n)
                .map(|v| q32(ws.dist(NodeId::from_index(v))))
                .fold(0.0, f64::max)
        })
        .collect();
    let root = (0..n)
        .map(NodeId::from_index)
        .min_by(|&a, &b| {
            ecc[a.index()]
                .partial_cmp(&ecc[b.index()])
                .unwrap()
                .then(a.cmp(&b))
        })
        .expect("non-empty graph");

    let height = if m.diameter() <= 1.0 {
        1
    } else {
        (m.diameter().log2().ceil() as usize) + 1
    }
    .max(1);

    let log_n = (n as f64).log2().max(1.0);
    let trials = ((cfg.general_trials_per_log_n * log_n).ceil() as usize).max(1);

    // stations[u][ℓ] accumulated below.
    let mut stations: Vec<Vec<Vec<NodeId>>> = (0..n)
        .map(|u| {
            let mut s = vec![Vec::new(); height + 1];
            s[0] = vec![NodeId::from_index(u)];
            s[height] = vec![root];
            s
        })
        .collect();
    let mut levels: Vec<Vec<NodeId>> = vec![Vec::new(); height + 1];
    levels[0] = g.nodes().collect();
    levels[height] = vec![root];

    for level in 1..height {
        let r = (1u64 << level) as f64;
        let carve_radius = (cfg.general_radius_mult * r * (n as f64).ln()).max(2.0 * r);
        let mut leaders_this_level: Vec<NodeId> = Vec::new();
        let mut padded = vec![false; n];
        for _trial in 0..trials {
            let radius = rng.gen_range(carve_radius..2.0 * carve_radius);
            let p = carve_partition(g, &mut ws, radius, &mut rng);
            for u in 0..n {
                let uid = NodeId::from_index(u);
                let leader = p.leaders[p.assignment[u]];
                stations[u][level].push(leader);
                if !padded[u] && ball_padded(m, &p, uid, r) {
                    padded[u] = true;
                }
            }
            leaders_this_level.extend(p.leaders.iter().copied());
        }
        // Repair: any node whose 2^ℓ-ball was never padded gets a
        // dedicated ball-cluster led by itself, restoring Lemma 6.1
        // deterministically.
        for (u, &ok) in padded.iter().enumerate() {
            if ok {
                continue;
            }
            let uid = NodeId::from_index(u);
            leaders_this_level.push(uid);
            for v in m.ball(uid, r) {
                stations[v.index()][level].push(uid);
            }
        }
        // Visiting order: ascending node id (cluster labels in the paper;
        // ID order preserves the §3.1 race-free discipline).
        for s in stations.iter_mut() {
            s[level].sort();
            s[level].dedup();
        }
        leaders_this_level.sort();
        leaders_this_level.dedup();
        levels[level] = leaders_this_level;
    }

    let table = StationTable::from_oracle(&stations, m);
    Overlay::new(OverlayKind::General, levels, table, cfg.sp_gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_net::generators;
    use mot_net::DenseOracle;

    fn build(g: &Graph, seed: u64) -> (Overlay, DenseOracle) {
        let m = DenseOracle::build(g).unwrap();
        let o = build_general(g, &m, &OverlayConfig::practical(), seed);
        (o, m)
    }

    #[test]
    fn stations_are_well_formed() {
        let g = generators::grid(8, 8).unwrap();
        let (o, _) = build(&g, 3);
        for u in g.nodes() {
            assert_eq!(o.station(u, 0), &[u]);
            assert_eq!(o.station(u, o.height()), &[o.root()]);
            for l in 0..=o.height() {
                let s = o.station(u, l);
                assert!(!s.is_empty(), "node {u} level {l} empty station");
                assert!(s.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn membership_is_logarithmic() {
        let g = generators::grid(10, 10).unwrap();
        let (o, _) = build(&g, 5);
        let log_n = (g.node_count() as f64).log2();
        for u in g.nodes() {
            for l in 1..o.height() {
                let s = o.station(u, l).len();
                assert!(
                    s <= (4.0 * log_n) as usize + 2,
                    "node {u} belongs to {s} clusters at level {l}"
                );
            }
        }
    }

    #[test]
    fn meet_property_lemma_6_1() {
        // Nodes within 2^ℓ of each other share a cluster leader at level
        // ℓ (padding + repair make this unconditional).
        let g = generators::grid(8, 8).unwrap();
        let (o, m) = build(&g, 11);
        for u in g.nodes() {
            for v in g.nodes() {
                if u >= v {
                    continue;
                }
                let d = m.dist(u, v);
                let bound = ((d.log2().ceil() as i64).max(0) as usize).min(o.height());
                assert!(
                    o.meet_level(u, v) <= bound.max(1),
                    "meet({u},{v}) = {} > {} (d = {d})",
                    o.meet_level(u, v),
                    bound.max(1)
                );
            }
        }
    }

    #[test]
    fn works_on_rings_and_random_geometric() {
        for g in [
            generators::ring(48).unwrap(),
            generators::random_geometric(60, 8.0, 2.0, 2).unwrap(),
        ] {
            let (o, _) = build(&g, 9);
            assert!(o.height() >= 1);
            assert_eq!(o.station(o.root(), o.height()), &[o.root()]);
        }
    }

    #[test]
    fn root_is_a_graph_center() {
        let g = generators::line(9).unwrap();
        let (o, _) = build(&g, 1);
        assert_eq!(o.root(), NodeId(4)); // middle of the line
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::grid(6, 6).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let a = build_general(&g, &m, &OverlayConfig::practical(), 17);
        let b = build_general(&g, &m, &OverlayConfig::practical(), 17);
        for u in g.nodes() {
            for l in 0..=a.height() {
                assert_eq!(a.station(u, l), b.station(u, l));
            }
        }
    }
}
