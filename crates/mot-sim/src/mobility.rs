//! Object mobility models and workload generation.
//!
//! The paper assumes the distance an object can traverse per unit time is
//! bounded, i.e. objects hand off between *adjacent* sensors. The random
//! walk model hops one adjacency per move (the classic tracking
//! workload); the waypoint model walks shortest paths toward successive
//! random targets, producing directional traces with hot corridors —
//! traffic the rate-conscious baselines can genuinely exploit. The
//! scenario suite (DESIGN.md §18) adds Lévy flights (heavy-tailed flight
//! lengths), hotspot flows (rank-weighted popular destinations), and the
//! ping-pong adversary (two fixed anchors hammered forever — pin them at
//! a cluster boundary and every hop crosses the structure's worst cut).

use mot_core::ObjectId;
use mot_net::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How objects pick their next proxy.
///
/// All models emit *adjacent-hop* move sequences (the paper's
/// bounded-speed assumption); they differ only in how targets are
/// chosen. Models with parameters are built via the constructors
/// ([`MobilityModel::levy`], [`MobilityModel::hotspot`],
/// [`MobilityModel::ping_pong`]), each of whose doc-tests pins a 3-step
/// deterministic trajectory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MobilityModel {
    /// Uniform hop to a random adjacent sensor per move.
    RandomWalk,
    /// Walk a shortest path toward a random waypoint; pick a new waypoint
    /// on arrival.
    Waypoint,
    /// Shuttle between two fixed anchor sensors along shortest paths —
    /// the most predictable traffic possible, i.e. the *best case* for
    /// the traffic-conscious baselines (every crossing is on one hot
    /// corridor the rate-built trees can hug) and therefore the honest
    /// stress test for MOT's traffic-obliviousness claim.
    Commuter,
    /// Lévy flight: successive shortest-path flights whose lengths are
    /// drawn from a bounded Pareto distribution with tail exponent
    /// `alpha` — mostly short relocations punctuated by rare
    /// network-spanning jumps (the classic animal/human mobility
    /// pattern). Smaller `alpha` = heavier tail = more long flights.
    Levy {
        /// Pareto tail exponent (sensible range ~1.0–2.5).
        alpha: f64,
    },
    /// Hotspot flow: with probability `locality` the next destination is
    /// one of `hotspots` fixed anchor sensors (rank-weighted — anchor
    /// `i` drawn proportionally to `1/(i+1)`), otherwise a uniform
    /// random sensor. Models commuter traffic converging on a few
    /// popular sites, concentrating load where trees are weakest.
    Hotspot {
        /// Number of shared anchor sensors (drawn once per workload).
        hotspots: usize,
        /// Probability a flight targets a hotspot rather than a uniform
        /// random sensor.
        locality: f64,
    },
    /// Adversarial ping-pong: every object shuttles between two fixed
    /// adjacent sensors forever (objects start at `a`). Pin `(a, b)` at
    /// a cluster boundary ([`crate::TestBed::boundary_pair`]) or on a
    /// spanning tree's missing ring edge and every unit move crosses
    /// the structure's most expensive cut — the constructive form of
    /// the paper's lower-bound discussion for fixed trees.
    PingPong {
        /// First anchor; all objects start here.
        a: NodeId,
        /// Second anchor (adjacent to `a` for unit-hop adversaries).
        b: NodeId,
    },
}

impl MobilityModel {
    /// A Lévy-flight mover with tail exponent `alpha`.
    ///
    /// ```
    /// use mot_sim::{MobilityModel, WorkloadSpec};
    /// let g = mot_net::generators::grid(4, 4)?;
    /// let spec = WorkloadSpec {
    ///     objects: 1,
    ///     moves_per_object: 3,
    ///     model: MobilityModel::levy(1.6),
    ///     seed: 7,
    /// };
    /// let first = spec.generate(&g);
    /// let again = spec.generate(&g);
    /// assert_eq!(first.moves, again.moves, "same seed ⇒ same trajectory");
    /// assert_eq!(first.moves.len(), 3);
    /// for m in &first.moves {
    ///     assert!(g.has_edge(m.from, m.to)); // flights walk graph edges
    /// }
    /// # Ok::<(), mot_net::NetError>(())
    /// ```
    pub fn levy(alpha: f64) -> Self {
        MobilityModel::Levy { alpha }
    }

    /// A hotspot-flow mover over `hotspots` shared anchors targeted
    /// with probability `locality`.
    ///
    /// ```
    /// use mot_sim::{MobilityModel, WorkloadSpec};
    /// let g = mot_net::generators::grid(4, 4)?;
    /// let spec = WorkloadSpec {
    ///     objects: 1,
    ///     moves_per_object: 3,
    ///     model: MobilityModel::hotspot(3, 0.8),
    ///     seed: 5,
    /// };
    /// let first = spec.generate(&g);
    /// let again = spec.generate(&g);
    /// assert_eq!(first.moves, again.moves, "same seed ⇒ same trajectory");
    /// assert_eq!(first.moves.len(), 3);
    /// for m in &first.moves {
    ///     assert!(g.has_edge(m.from, m.to));
    /// }
    /// # Ok::<(), mot_net::NetError>(())
    /// ```
    pub fn hotspot(hotspots: usize, locality: f64) -> Self {
        MobilityModel::Hotspot { hotspots, locality }
    }

    /// A ping-pong adversary shuttling every object between `a` and `b`.
    ///
    /// ```
    /// use mot_net::NodeId;
    /// use mot_sim::{MobilityModel, WorkloadSpec};
    /// let g = mot_net::generators::grid(4, 4)?;
    /// let spec = WorkloadSpec {
    ///     objects: 1,
    ///     moves_per_object: 3,
    ///     model: MobilityModel::ping_pong(NodeId(5), NodeId(6)),
    ///     seed: 1,
    /// };
    /// let w = spec.generate(&g);
    /// // Deterministic regardless of seed: a→b→a→b.
    /// let hops: Vec<(NodeId, NodeId)> = w.moves.iter().map(|m| (m.from, m.to)).collect();
    /// assert_eq!(
    ///     hops,
    ///     vec![
    ///         (NodeId(5), NodeId(6)),
    ///         (NodeId(6), NodeId(5)),
    ///         (NodeId(5), NodeId(6)),
    ///     ]
    /// );
    /// # Ok::<(), mot_net::NetError>(())
    /// ```
    pub fn ping_pong(a: NodeId, b: NodeId) -> Self {
        MobilityModel::PingPong { a, b }
    }
}

/// Shortest path `cur → target` excluding `cur`, reversed so callers
/// `pop()` successive hops from the end. Shared by workload generation
/// and the op stream's flight planner.
pub(crate) fn flight_to(g: &Graph, cur: NodeId, target: NodeId) -> Vec<NodeId> {
    let tree = mot_net::shortest_path_tree(g, target);
    let mut path = tree.path_to_root(cur);
    path.remove(0);
    path.reverse();
    path
}

/// Draws a Lévy-flight destination from `cur`: flight length from a
/// bounded Pareto on `[1, eccentricity(cur)]` via inverse CDF, landing
/// on a node whose distance best matches the drawn length (±half a hop
/// of the best match keeps the candidate set non-empty). Consumes
/// exactly one `f64` and one `gen_range` draw.
pub(crate) fn levy_target<R: Rng>(g: &Graph, cur: NodeId, alpha: f64, rng: &mut R) -> NodeId {
    let d = mot_net::dijkstra(g, cur);
    let dmax = d
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .fold(1.0_f64, f64::max);
    let u: f64 = rng.gen();
    let len = if (alpha - 1.0).abs() < 1e-9 {
        dmax.powf(u)
    } else {
        let e = 1.0 - alpha;
        (u * (dmax.powf(e) - 1.0) + 1.0).powf(1.0 / e)
    };
    let mut best = f64::INFINITY;
    for (vi, dv) in d.iter().enumerate() {
        if vi != cur.index() && dv.is_finite() {
            best = best.min((dv - len).abs());
        }
    }
    let candidates: Vec<NodeId> = d
        .iter()
        .enumerate()
        .filter(|&(vi, dv)| vi != cur.index() && dv.is_finite() && (dv - len).abs() <= best + 0.5)
        .map(|(vi, _)| NodeId::from_index(vi))
        .collect();
    candidates[rng.gen_range(0..candidates.len())]
}

/// Draws a hotspot-flow destination: with probability `locality` a
/// rank-weighted anchor (anchor `i` proportional to `1/(i+1)`),
/// otherwise a uniform random node. May return the caller's current
/// position — callers fall back to an adjacent hop in that case.
pub(crate) fn hotspot_target<R: Rng>(
    g: &Graph,
    anchors: &[NodeId],
    locality: f64,
    rng: &mut R,
) -> NodeId {
    if rng.gen::<f64>() < locality {
        let total: f64 = (0..anchors.len()).map(|i| 1.0 / (i as f64 + 1.0)).sum();
        let mut x = rng.gen::<f64>() * total;
        let mut pick = anchors.len() - 1;
        for i in 0..anchors.len() {
            let w = 1.0 / (i as f64 + 1.0);
            if x < w {
                pick = i;
                break;
            }
            x -= w;
        }
        anchors[pick]
    } else {
        NodeId::from_index(rng.gen_range(0..g.node_count()))
    }
}

/// One maintenance operation: object `object` moves `from → to`
/// (`from` is recorded so optimal costs and detection rates don't need
/// replaying).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MoveOp {
    /// The moving object.
    pub object: ObjectId,
    /// Proxy the object departs (its pre-move detector).
    pub from: NodeId,
    /// Proxy the object arrives at (its new detector).
    pub to: NodeId,
}

/// A complete generated workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Initial proxy per object (index = object id).
    pub initial: Vec<NodeId>,
    /// Moves in a random global interleaving that preserves each object's
    /// own order (the paper replays "operations per object in random
    /// order").
    pub moves: Vec<MoveOp>,
}

impl Workload {
    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.initial.len()
    }

    /// The `(from, to)` pairs — input for
    /// `mot_baselines::DetectionRates::from_moves` (the baselines'
    /// traffic knowledge).
    pub fn move_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.moves.iter().map(|m| (m.from, m.to)).collect()
    }

    /// Final proxy of every object after the full replay.
    pub fn final_proxies(&self) -> Vec<NodeId> {
        let mut p = self.initial.clone();
        for m in &self.moves {
            p[m.object.index()] = m.to;
        }
        p
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Number of tracked objects.
    pub objects: usize,
    /// Moves generated per object.
    pub moves_per_object: usize,
    /// Mobility model driving the trace.
    pub model: MobilityModel,
    /// RNG seed — the same spec always generates the same workload.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Convenience constructor for the paper's standard workload shape.
    pub fn new(objects: usize, moves_per_object: usize, seed: u64) -> Self {
        WorkloadSpec {
            objects,
            moves_per_object,
            model: MobilityModel::RandomWalk,
            seed,
        }
    }

    /// Generates the workload on `g`.
    ///
    /// RNG discipline (DESIGN.md §18): the draw sequence of the three
    /// original models is frozen — new models only *add* draws inside
    /// their own arms (plus the hotspot anchor header below, emitted
    /// only for [`MobilityModel::Hotspot`]) — so pre-scenario workloads
    /// are bit-identical to what this function generated before the
    /// scenario layer existed.
    pub fn generate(&self, g: &Graph) -> Workload {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let n = g.node_count();
        let mut initial: Vec<NodeId> = (0..self.objects)
            .map(|_| NodeId::from_index(rng.gen_range(0..n)))
            .collect();
        // Ping-pong adversaries start every object at anchor `a`: the
        // uniform draws above still happen (keeping the header layout
        // identical across models) but the values are overridden.
        if let MobilityModel::PingPong { a, .. } = self.model {
            for p in initial.iter_mut() {
                *p = a;
            }
        }
        // Hotspot anchors are shared across objects (popular sites are a
        // property of the field, not of one mover) and drawn only for
        // the hotspot model, so other models' streams are untouched.
        let hotspot_anchors: Vec<NodeId> = match self.model {
            MobilityModel::Hotspot { hotspots, .. } => {
                let k = hotspots.clamp(1, n);
                let mut anchors: Vec<NodeId> = Vec::with_capacity(k);
                while anchors.len() < k {
                    let t = NodeId::from_index(rng.gen_range(0..n));
                    if !anchors.contains(&t) {
                        anchors.push(t);
                    }
                }
                anchors
            }
            _ => Vec::new(),
        };

        // Per-object move sequences.
        let mut per_object: Vec<Vec<MoveOp>> = Vec::with_capacity(self.objects);
        for (oi, &start) in initial.iter().enumerate() {
            let o = ObjectId(oi as u32);
            let mut seq = Vec::with_capacity(self.moves_per_object);
            let mut cur = start;
            let mut waypoint_path: Vec<NodeId> = Vec::new();
            // Commuter state: the opposite anchor (the walk shuttles
            // start <-> anchor forever).
            let far_anchor = loop {
                let t = NodeId::from_index(rng.gen_range(0..n));
                if t != start {
                    break t;
                }
            };
            let mut heading_out = true;
            for _ in 0..self.moves_per_object {
                let next = match self.model {
                    MobilityModel::RandomWalk => {
                        let nbrs = g.neighbors(cur);
                        nbrs[rng.gen_range(0..nbrs.len())]
                    }
                    MobilityModel::Waypoint => {
                        if waypoint_path.is_empty() {
                            let target = loop {
                                let t = NodeId::from_index(rng.gen_range(0..n));
                                if t != cur {
                                    break t;
                                }
                            };
                            // shortest path cur -> target, excluding cur
                            let tree = mot_net::shortest_path_tree(g, target);
                            let mut path = tree.path_to_root(cur);
                            path.remove(0);
                            path.reverse(); // will pop() from the cur-end
                            waypoint_path = path;
                        }
                        waypoint_path.pop().expect("refilled above")
                    }
                    MobilityModel::Commuter => {
                        if waypoint_path.is_empty() {
                            let target = if heading_out { far_anchor } else { start };
                            heading_out = !heading_out;
                            if target == cur {
                                // degenerate: anchors adjacent loops; hop away
                                let nbrs = g.neighbors(cur);
                                waypoint_path = vec![nbrs[0]];
                            } else {
                                let tree = mot_net::shortest_path_tree(g, target);
                                let mut path = tree.path_to_root(cur);
                                path.remove(0);
                                path.reverse();
                                waypoint_path = path;
                            }
                        }
                        waypoint_path.pop().expect("refilled above")
                    }
                    MobilityModel::Levy { alpha } => {
                        if waypoint_path.is_empty() {
                            let target = levy_target(g, cur, alpha, &mut rng);
                            waypoint_path = flight_to(g, cur, target);
                        }
                        waypoint_path.pop().expect("refilled above")
                    }
                    MobilityModel::Hotspot { locality, .. } => {
                        if waypoint_path.is_empty() {
                            let target = hotspot_target(g, &hotspot_anchors, locality, &mut rng);
                            if target == cur {
                                // Already at the destination: hop away so
                                // the move count stays on schedule.
                                let nbrs = g.neighbors(cur);
                                waypoint_path = vec![nbrs[rng.gen_range(0..nbrs.len())]];
                            } else {
                                waypoint_path = flight_to(g, cur, target);
                            }
                        }
                        waypoint_path.pop().expect("refilled above")
                    }
                    MobilityModel::PingPong { a, b } => {
                        if waypoint_path.is_empty() {
                            let target = if cur == a { b } else { a };
                            if target == cur {
                                // Degenerate a == b spec: behave like the
                                // commuter's adjacent-anchor fallback.
                                let nbrs = g.neighbors(cur);
                                waypoint_path = vec![nbrs[0]];
                            } else {
                                waypoint_path = flight_to(g, cur, target);
                            }
                        }
                        waypoint_path.pop().expect("refilled above")
                    }
                };
                seq.push(MoveOp {
                    object: o,
                    from: cur,
                    to: next,
                });
                cur = next;
            }
            per_object.push(seq);
        }

        // Random global interleaving preserving per-object order: shuffle
        // a deck with `moves_per_object` copies of each object id.
        let mut deck: Vec<usize> = (0..self.objects)
            .flat_map(|oi| std::iter::repeat_n(oi, self.moves_per_object))
            .collect();
        deck.shuffle(&mut rng);
        let mut cursors = vec![0usize; self.objects];
        let mut moves = Vec::with_capacity(deck.len());
        for oi in deck {
            moves.push(per_object[oi][cursors[oi]]);
            cursors[oi] += 1;
        }
        Workload { initial, moves }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_net::generators;

    #[test]
    fn random_walk_moves_are_adjacent() {
        let g = generators::grid(5, 5).unwrap();
        let w = WorkloadSpec::new(4, 50, 7).generate(&g);
        assert_eq!(w.object_count(), 4);
        assert_eq!(w.moves.len(), 200);
        for m in &w.moves {
            assert!(g.has_edge(m.from, m.to), "move {m:?} not an adjacency");
        }
    }

    #[test]
    fn per_object_order_is_a_consistent_walk() {
        let g = generators::grid(4, 4).unwrap();
        let w = WorkloadSpec::new(3, 40, 9).generate(&g);
        let mut pos = w.initial.clone();
        for m in &w.moves {
            assert_eq!(m.from, pos[m.object.index()], "broken chain at {m:?}");
            pos[m.object.index()] = m.to;
        }
        assert_eq!(pos, w.final_proxies());
    }

    #[test]
    fn interleaving_mixes_objects() {
        let g = generators::grid(4, 4).unwrap();
        let w = WorkloadSpec::new(2, 100, 3).generate(&g);
        // the first 100 moves should not all belong to object 0
        let first_obj: Vec<_> = w.moves[..100].iter().map(|m| m.object).collect();
        assert!(first_obj.contains(&ObjectId(0)));
        assert!(first_obj.contains(&ObjectId(1)));
    }

    #[test]
    fn waypoint_walks_shortest_paths() {
        let g = generators::grid(6, 6).unwrap();
        let spec = WorkloadSpec {
            objects: 2,
            moves_per_object: 60,
            model: MobilityModel::Waypoint,
            seed: 5,
        };
        let w = spec.generate(&g);
        for m in &w.moves {
            assert!(g.has_edge(m.from, m.to), "waypoint hop {m:?} not an edge");
        }
    }

    #[test]
    fn commuter_shuttles_along_one_corridor() {
        let g = generators::grid(8, 8).unwrap();
        let spec = WorkloadSpec {
            objects: 1,
            moves_per_object: 120,
            model: MobilityModel::Commuter,
            seed: 6,
        };
        let w = spec.generate(&g);
        for m in &w.moves {
            assert!(g.has_edge(m.from, m.to));
        }
        // a commuter revisits a small set of edges over and over
        let mut edges = std::collections::HashSet::new();
        for m in &w.moves {
            let (a, b) = if m.from < m.to {
                (m.from, m.to)
            } else {
                (m.to, m.from)
            };
            edges.insert((a, b));
        }
        assert!(
            edges.len() * 3 <= w.moves.len(),
            "commuter used {} distinct edges over {} moves — not a corridor",
            edges.len(),
            w.moves.len()
        );
    }

    #[test]
    fn levy_walks_edges_with_heavy_tailed_flights() {
        let g = generators::grid(8, 8).unwrap();
        let spec = WorkloadSpec {
            objects: 2,
            moves_per_object: 150,
            model: MobilityModel::levy(1.4),
            seed: 13,
        };
        let w = spec.generate(&g);
        for m in &w.moves {
            assert!(g.has_edge(m.from, m.to), "levy hop {m:?} not an edge");
        }
        // The per-object trace must visit a wide spread of the field:
        // heavy-tailed flights occasionally span the network, so a
        // 150-move trace cannot stay confined to a tiny patch.
        let visited: std::collections::HashSet<_> = w.moves.iter().map(|m| m.to).collect();
        assert!(
            visited.len() >= 16,
            "levy trace visited only {} sensors",
            visited.len()
        );
    }

    #[test]
    fn hotspot_traffic_concentrates_on_anchors() {
        let g = generators::grid(8, 8).unwrap();
        let spec = WorkloadSpec {
            objects: 6,
            moves_per_object: 80,
            model: MobilityModel::hotspot(3, 0.9),
            seed: 21,
        };
        let w = spec.generate(&g);
        for m in &w.moves {
            assert!(g.has_edge(m.from, m.to));
        }
        // Flight endpoints pile up on the 3 shared anchors: the three
        // most-visited sensors must absorb well above the uniform share
        // of arrivals (3/64 ≈ 5% — demand ≥ 20%).
        let mut arrivals = vec![0usize; 64];
        for m in &w.moves {
            arrivals[m.to.index()] += 1;
        }
        arrivals.sort_unstable_by(|a, b| b.cmp(a));
        let top3: usize = arrivals[..3].iter().sum();
        assert!(
            top3 * 5 >= w.moves.len(),
            "top-3 sensors absorbed {top3}/{} arrivals — no hotspot",
            w.moves.len()
        );
    }

    #[test]
    fn ping_pong_alternates_between_the_anchors() {
        let g = generators::grid(5, 5).unwrap();
        let (a, b) = (NodeId(7), NodeId(8));
        let spec = WorkloadSpec {
            objects: 3,
            moves_per_object: 20,
            model: MobilityModel::ping_pong(a, b),
            seed: 2,
        };
        let w = spec.generate(&g);
        assert!(w.initial.iter().all(|&p| p == a), "objects start at a");
        for m in &w.moves {
            assert!(
                (m.from == a && m.to == b) || (m.from == b && m.to == a),
                "ping-pong hop {m:?} left the anchor pair"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::grid(4, 4).unwrap();
        let a = WorkloadSpec::new(3, 20, 11).generate(&g);
        let b = WorkloadSpec::new(3, 20, 11).generate(&g);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.moves, b.moves);
        let c = WorkloadSpec::new(3, 20, 12).generate(&g);
        assert_ne!(a.moves, c.moves);
    }
}
