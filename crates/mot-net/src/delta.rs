//! Topology deltas and seeded churn schedules (the paper's §7 events).
//!
//! A [`TopologyDelta`] is an ordered batch of sensor leave/join events
//! applied to a [`Graph`] through its generation-stamped mutation API.
//! [`ChurnSchedule`] generates a reproducible alternating sequence of
//! such deltas that (a) keeps the active topology connected after every
//! event and (b) only ever rejoins a sensor with its original edge star
//! filtered to active endpoints — so the active topology after any
//! prefix is exactly the subgraph of the base graph induced by the
//! active node set. That invariant is what lets the differential suites
//! rebuild a from-scratch witness on the final topology and demand
//! bit-identity (DESIGN.md §17).

use crate::error::NetError;
use crate::graph::{Edge, Graph};
use crate::node::NodeId;
use crate::Result;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One sensor-level topology event.
#[derive(Clone, Debug, PartialEq)]
pub enum ChurnEvent {
    /// The sensor leaves the field: its node is deactivated and its
    /// incident edges are stripped.
    Leave(NodeId),
    /// A sensor (re)joins with the given edge star (half-edges from its
    /// side; endpoints must be active).
    Join {
        /// The joining node id.
        node: NodeId,
        /// Its incident edges at join time.
        edges: Vec<Edge>,
    },
}

impl ChurnEvent {
    /// The node the event is about.
    pub fn node(&self) -> NodeId {
        match self {
            ChurnEvent::Leave(u) => *u,
            ChurnEvent::Join { node, .. } => *node,
        }
    }
}

/// An ordered batch of churn events applied atomically from the
/// caller's point of view (consumers see the graph only between
/// deltas).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TopologyDelta {
    /// The events, applied in order.
    pub events: Vec<ChurnEvent>,
}

impl TopologyDelta {
    /// A delta holding a single leave event.
    pub fn leave(u: NodeId) -> Self {
        TopologyDelta {
            events: vec![ChurnEvent::Leave(u)],
        }
    }

    /// A delta holding a single join event.
    pub fn join(node: NodeId, edges: Vec<Edge>) -> Self {
        TopologyDelta {
            events: vec![ChurnEvent::Join { node, edges }],
        }
    }

    /// Applies every event in order, returning the sorted, deduplicated
    /// set of nodes whose adjacency rows changed (the mutated region).
    /// Fails atomically per event: on error the graph keeps the events
    /// applied so far.
    pub fn apply(&self, g: &mut Graph) -> Result<Vec<NodeId>> {
        let mut touched = Vec::new();
        for ev in &self.events {
            match ev {
                ChurnEvent::Leave(u) => {
                    let star = g.remove_node(*u)?;
                    touched.push(*u);
                    touched.extend(star.iter().map(|e| e.to));
                }
                ChurnEvent::Join { node, edges } => {
                    g.restore_node(*node, edges)?;
                    touched.push(*node);
                    touched.extend(edges.iter().map(|e| e.to));
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        Ok(touched)
    }
}

/// Parameters for [`ChurnSchedule::generate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Number of deltas to generate (each holds one event).
    pub deltas: usize,
    /// Upper bound on simultaneously departed sensors.
    pub max_departed: usize,
    /// RNG seed; equal specs on equal graphs yield equal schedules.
    pub seed: u64,
}

impl ChurnSpec {
    /// A schedule of `deltas` single-event deltas with at most
    /// `max(1, n/8)`-ish concurrency decided by the caller's
    /// `max_departed`.
    pub fn new(deltas: usize, max_departed: usize, seed: u64) -> Self {
        ChurnSpec {
            deltas,
            max_departed,
            seed,
        }
    }
}

/// A reproducible leave/join schedule over a base graph.
///
/// Generation walks a shadow copy of the graph: each step flips a coin
/// between removing a random *removable* active sensor (one whose
/// departure keeps the survivors connected) and rejoining a random
/// departed sensor with its base-graph star filtered to active
/// endpoints. The set of sensors the schedule is allowed to touch is
/// fixed up front ([`ChurnSchedule::removable`]) so higher layers can
/// steer workloads away from churning sensors.
///
/// # Example: replaying a schedule
///
/// ```
/// use mot_net::{generators, ChurnSchedule, ChurnSpec};
///
/// let base = generators::grid(6, 6)?;
/// let sched = ChurnSchedule::generate(&base, &ChurnSpec::new(12, 4, 7))?;
/// assert_eq!(sched.len(), 12);
///
/// // Replay: the active topology stays connected after every delta...
/// let mut g = base.clone();
/// for delta in sched.deltas() {
///     let touched = delta.apply(&mut g)?;
///     assert!(!touched.is_empty());
///     assert!(g.is_connected());
/// }
/// // ...and equals the base graph induced on the active node set.
/// for u in g.active_nodes() {
///     for e in g.half_edges(u) {
///         assert_eq!(base.edge_weight(u, e.to), Some(e.weight));
///     }
/// }
/// # Ok::<(), mot_net::NetError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ChurnSchedule {
    deltas: Vec<TopologyDelta>,
    removable: Vec<NodeId>,
}

impl ChurnSchedule {
    /// Generates a schedule of `spec.deltas` single-event deltas against
    /// `base` (which must be connected, unmutated, and have at least 2
    /// nodes; errors with [`NetError::EmptyGraph`] /
    /// [`NetError::Disconnected`] otherwise).
    pub fn generate(base: &Graph, spec: &ChurnSpec) -> Result<Self> {
        if base.node_count() < 2 {
            return Err(NetError::EmptyGraph);
        }
        if !base.is_connected() {
            return Err(NetError::Disconnected);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x43_48_55_52_4e);
        let n = base.node_count();
        let max_departed = spec.max_departed.clamp(1, n - 1);
        // The churn pool: up to 4x the concurrency bound, sampled
        // without replacement so the steady state cycles sensors.
        let pool_target = (4 * max_departed).min(n - 1);
        let mut pool: Vec<NodeId> = Vec::with_capacity(pool_target);
        let mut in_pool = vec![false; n];
        while pool.len() < pool_target {
            let u = NodeId(rng.gen_range(0..n as u32));
            if !in_pool[u.index()] {
                in_pool[u.index()] = true;
                pool.push(u);
            }
        }
        pool.sort_unstable();

        let mut shadow = base.clone();
        let mut departed: Vec<(NodeId, Vec<Edge>)> = Vec::new();
        let mut deltas = Vec::with_capacity(spec.deltas);
        while deltas.len() < spec.deltas {
            let want_leave =
                departed.is_empty() || (departed.len() < max_departed && rng.gen::<f64>() < 0.5);
            if want_leave {
                // Try pool members in a random rotation until one is
                // removable without disconnecting the survivors.
                let start = rng.gen_range(0..pool.len());
                let mut placed = false;
                for k in 0..pool.len() {
                    let u = pool[(start + k) % pool.len()];
                    if !shadow.is_active(u) {
                        continue;
                    }
                    let star = shadow.remove_node(u)?;
                    if shadow.is_connected() {
                        departed.push((u, star));
                        deltas.push(TopologyDelta::leave(u));
                        placed = true;
                        break;
                    }
                    shadow.restore_node(u, &star)?;
                }
                if placed {
                    continue;
                }
                // Nothing removable right now (rare; e.g. every pool
                // member is an articulation point). Fall through to a
                // join if possible, else give up on this step.
                if departed.is_empty() {
                    break;
                }
            }
            let i = rng.gen_range(0..departed.len());
            let (u, _) = departed.swap_remove(i);
            // Rejoin with the base star filtered to active endpoints,
            // preserving the induced-subgraph invariant.
            let star: Vec<Edge> = base
                .half_edges(u)
                .filter(|e| shadow.is_active(e.to))
                .collect();
            shadow.restore_node(u, &star)?;
            deltas.push(TopologyDelta::join(u, star));
        }
        Ok(ChurnSchedule {
            deltas,
            removable: pool,
        })
    }

    /// The generated deltas, in replay order.
    pub fn deltas(&self) -> &[TopologyDelta] {
        &self.deltas
    }

    /// Sorted set of sensors the schedule may remove. Workload
    /// generators steer publishes/queries/moves away from these so data
    /// ops never address a departed sensor.
    pub fn removable(&self) -> &[NodeId] {
        &self.removable
    }

    /// Number of deltas.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// True when the schedule holds no deltas.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn schedule_is_deterministic_and_connectivity_preserving() {
        let g = generators::grid(5, 5).unwrap();
        let spec = ChurnSpec::new(20, 5, 42);
        let a = ChurnSchedule::generate(&g, &spec).unwrap();
        let b = ChurnSchedule::generate(&g, &spec).unwrap();
        assert_eq!(a.deltas(), b.deltas());
        assert_eq!(a.removable(), b.removable());
        assert_eq!(a.len(), 20);

        let mut live = g.clone();
        for d in a.deltas() {
            d.apply(&mut live).unwrap();
            assert!(live.is_connected());
        }
    }

    #[test]
    fn replay_yields_induced_subgraph_of_base() {
        let g = generators::random_geometric(60, 8.0, 2.0, 9).unwrap();
        let sched = ChurnSchedule::generate(&g, &ChurnSpec::new(30, 8, 3)).unwrap();
        let mut live = g.clone();
        for d in sched.deltas() {
            d.apply(&mut live).unwrap();
        }
        for u in live.nodes() {
            if !live.is_active(u) {
                assert!(live.neighbors(u).is_empty());
                continue;
            }
            // Active rows are the base rows filtered to active peers.
            let expect: Vec<Edge> = g.half_edges(u).filter(|e| live.is_active(e.to)).collect();
            assert!(live.half_edges(u).eq(expect), "row {u}");
        }
    }

    #[test]
    fn leave_targets_stay_inside_removable_set() {
        let g = generators::grid(6, 6).unwrap();
        let sched = ChurnSchedule::generate(&g, &ChurnSpec::new(25, 6, 11)).unwrap();
        for d in sched.deltas() {
            for ev in &d.events {
                assert!(sched.removable().binary_search(&ev.node()).is_ok());
            }
        }
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let g = generators::grid(1, 1).unwrap();
        assert!(matches!(
            ChurnSchedule::generate(&g, &ChurnSpec::new(5, 1, 0)),
            Err(NetError::EmptyGraph)
        ));
    }
}
