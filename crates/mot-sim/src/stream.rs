//! Seeded generation of the service-mode operation stream.
//!
//! Service mode (DESIGN.md §15) ingests an unbounded sequence of
//! publish/move/query operations instead of a fixed [`crate::Workload`].
//! [`OpStream`] produces that sequence lazily: the first `objects` ops
//! publish each object at a random sensor, and every subsequent op picks
//! a published object and either hops it to an adjacent sensor (the
//! paper's bounded-speed mobility assumption) or queries it from a
//! random origin. Every envelope carries a dense global [`OpId`] and a
//! per-object sequence number, the handles the delivery layer needs for
//! exactly-once admission and staleness fencing.
//!
//! The generator doubles as the fault-free oracle: [`OpStream::positions`]
//! is the ground-truth object→location map after the ops emitted so far,
//! so any run of the service — however faulty its transport — can be
//! checked bit-for-bit against it.
//!
//! With [`StreamSpec::churn_every`] set, the stream additionally
//! interleaves [`ServiceOp::Topology`] control ops that walk a seeded
//! [`mot_net::ChurnSchedule`], and steers data-plane sensors away from
//! the schedule's removable pool (§7 churn, DESIGN.md §17).
//!
//! The scenario layer (DESIGN.md §18) plugs in here too:
//! [`StreamSpec::mobility`] swaps the adjacent-hop mover for any
//! [`MobilityModel`] (flights are walked one hop per move op, so the
//! bounded-speed contract holds for every model), and
//! [`StreamSpec::query_model`] skews which object each query asks
//! about. With the defaults ([`MobilityModel::RandomWalk`] +
//! [`QueryModel::Uniform`]) the generator consumes the *identical* RNG
//! draw sequence it did before the scenario layer existed, so static
//! streams are bit-identical to pre-scenario output.

use crate::mobility::{flight_to, hotspot_target, levy_target, MobilityModel};
use crate::scenario::{QueryModel, ZipfSampler};
use mot_core::{ObjectId, OpId};
use mot_net::{ChurnSchedule, ChurnSpec, Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Salt folded into the stream seed to derive the churn-schedule seed,
/// so the op coins and the topology coins are independent streams.
const CHURN_SEED_SALT: u64 = 0x43_48_55_52;

/// Parameters of one generated operation stream. The same spec over the
/// same graph always yields the same stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamSpec {
    /// Tracked objects; the stream opens by publishing each one.
    pub objects: usize,
    /// Total operations to emit (publishes included).
    pub ops: u64,
    /// Probability an op after the publish prefix is a query (the rest
    /// are adjacent-hop moves).
    pub query_fraction: f64,
    /// Stream RNG seed.
    pub seed: u64,
    /// Emit a [`ServiceOp::Topology`] delta every this many ops after
    /// the publish prefix (`0` = static topology, the default — and
    /// bit-identical to pre-churn streams). Churn streams steer
    /// publish/query origins and move targets away from the schedule's
    /// removable pool, so data-plane ops never land on a sensor that
    /// may currently be departed (DESIGN.md §17). Requires the default
    /// random-walk mobility (path movers cannot steer).
    pub churn_every: u64,
    /// How moves pick their targets. The default,
    /// [`MobilityModel::RandomWalk`], reproduces the pre-scenario
    /// stream bit-for-bit; every other model walks planned flights one
    /// adjacent hop per move op.
    pub mobility: MobilityModel,
    /// How queries pick their object. The default,
    /// [`QueryModel::Uniform`], reproduces the pre-scenario stream
    /// bit-for-bit.
    pub query_model: QueryModel,
}

impl StreamSpec {
    /// A stream of `ops` operations over `objects` objects with the
    /// default 20% query share, uniform queries, random-walk mobility,
    /// and a static topology.
    pub fn new(objects: usize, ops: u64, seed: u64) -> Self {
        StreamSpec {
            objects,
            ops,
            query_fraction: 0.2,
            seed,
            churn_every: 0,
            mobility: MobilityModel::RandomWalk,
            query_model: QueryModel::Uniform,
        }
    }

    /// This spec with a different mobility model.
    pub fn with_mobility(mut self, m: MobilityModel) -> Self {
        self.mobility = m;
        self
    }

    /// This spec with a different query-popularity model.
    pub fn with_query_model(mut self, q: QueryModel) -> Self {
        self.query_model = q;
        self
    }

    /// Rejects a spec no stream can honour: zero objects, a query
    /// fraction outside `[0, 1]`, or churn combined with a
    /// non-random-walk mobility model.
    pub fn check(&self) -> Result<(), String> {
        if self.objects == 0 {
            return Err("a stream needs at least one object".into());
        }
        if !(0.0..=1.0).contains(&self.query_fraction) {
            return Err("query fraction is a probability".into());
        }
        if !matches!(self.mobility, MobilityModel::RandomWalk) && self.churn_every > 0 {
            return Err("churn streams require random-walk mobility \
                 (path movers cannot steer around the removable pool)"
                .into());
        }
        Ok(())
    }

    /// The churn schedule parameters this spec implies on an `n`-node
    /// graph, or `None` for a static topology: one delta per
    /// `churn_every` ops, with up to `max(1, n/8)` concurrently
    /// departed sensors.
    pub fn churn_plan(&self, n: usize) -> Option<ChurnSpec> {
        if self.churn_every == 0 {
            return None;
        }
        let deltas = (self.ops / self.churn_every) as usize;
        let max_departed = (n / 8).clamp(1, n.saturating_sub(1).max(1));
        Some(ChurnSpec::new(
            deltas,
            max_departed,
            self.seed ^ CHURN_SEED_SALT,
        ))
    }
}

/// One operation of the service stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServiceOp {
    /// Start tracking the object at sensor `at`.
    Publish {
        /// The object's first proxy.
        at: NodeId,
    },
    /// The object hands off to the adjacent sensor `to`. Targets are
    /// absolute, so a skipped or reordered move never derails later
    /// ones — only the *newest* applied move defines the position.
    Move {
        /// The object's next proxy.
        to: NodeId,
    },
    /// Locate the object from sensor `from`.
    Query {
        /// The querying sensor.
        from: NodeId,
    },
    /// Control plane: apply delta `delta` of the stream's churn
    /// schedule to the topology. The coordinator intercepts these
    /// before transport — they ride no fault coins, count toward no
    /// data-plane account, and carry the sentinel object
    /// `ObjectId(u32::MAX)`.
    Topology {
        /// Index into [`OpStream::churn_schedule`].
        delta: u32,
    },
}

/// An operation with its delivery identity: the dense global [`OpId`]
/// and the object's own sequence number (the fencing order — a move is
/// stale iff a higher `obj_seq` for the same object already applied).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpEnvelope {
    /// Globally unique, dense operation id.
    pub id: OpId,
    /// The object the op concerns.
    pub object: ObjectId,
    /// Position of this op in its object's own sequence.
    pub obj_seq: u32,
    /// The operation itself.
    pub op: ServiceOp,
}

/// The lazy, deterministic op generator. See the module docs.
pub struct OpStream<'g> {
    graph: &'g Graph,
    spec: StreamSpec,
    rng: ChaCha8Rng,
    /// Ground truth: where each published object is after the emitted
    /// prefix (`None` = not yet published).
    positions: Vec<Option<NodeId>>,
    obj_seq: Vec<u32>,
    emitted: u64,
    /// Publishes emitted so far (tracked separately because topology
    /// ops also consume `emitted` slots).
    published: usize,
    /// Seeded churn schedule when `spec.churn_every > 0`.
    schedule: Option<ChurnSchedule>,
    next_delta: usize,
    /// Sensors outside the schedule's removable pool — where steered
    /// publishes/queries land. With a static topology this is every
    /// node in id order, so indexing it draws the same values the
    /// unsteered generator drew.
    allowed: Vec<NodeId>,
    /// Reusable per-move buffer of steered hop targets (the service
    /// allocation regression budget covers this path).
    move_scratch: Vec<NodeId>,
    /// Pending flight hops per object (reversed, `pop()`ed one hop per
    /// move op) — only populated under non-random-walk mobility.
    flights: Vec<Vec<NodeId>>,
    /// Commuter state per object: `(home, far_anchor, heading_out)`,
    /// established on the object's first planned flight.
    commuter: Vec<Option<(NodeId, NodeId, bool)>>,
    /// Shared hotspot anchors (drawn at construction, hotspot mode only).
    hotspot_anchors: Vec<NodeId>,
    /// Zipf popularity sampler when the query model is skewed.
    zipf: Option<ZipfSampler>,
}

impl<'g> OpStream<'g> {
    /// A stream over `graph`. Panics on a spec [`StreamSpec::check`]
    /// rejects or a churn spec the graph cannot support — all
    /// configuration errors.
    pub fn new(graph: &'g Graph, spec: StreamSpec) -> Self {
        spec.check().unwrap_or_else(|why| panic!("{why}"));
        let schedule = spec
            .churn_plan(graph.node_count())
            .map(|plan| ChurnSchedule::generate(graph, &plan).expect("churn schedule"));
        let allowed: Vec<NodeId> = match &schedule {
            None => graph.nodes().collect(),
            Some(s) => graph
                .nodes()
                .filter(|u| s.removable().binary_search(u).is_err())
                .collect(),
        };
        assert!(!allowed.is_empty(), "churn pool may not cover every sensor");
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        // Hotspot anchors are drawn before any op, and only in hotspot
        // mode — every other mobility model leaves the op draw sequence
        // exactly where it always started.
        let hotspot_anchors: Vec<NodeId> = match spec.mobility {
            MobilityModel::Hotspot { hotspots, .. } => {
                let n = graph.node_count();
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
        let zipf = match spec.query_model {
            QueryModel::Uniform => None,
            QueryModel::Zipf { s } => Some(ZipfSampler::new(spec.objects, s)),
        };
        OpStream {
            graph,
            spec,
            rng,
            positions: vec![None; spec.objects],
            obj_seq: vec![0; spec.objects],
            emitted: 0,
            published: 0,
            schedule,
            next_delta: 0,
            allowed,
            move_scratch: Vec::new(),
            flights: vec![Vec::new(); spec.objects],
            commuter: vec![None; spec.objects],
            hotspot_anchors,
            zipf,
        }
    }

    /// Ops emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Total ops the stream will emit.
    pub fn total(&self) -> u64 {
        self.spec.ops
    }

    /// Ground-truth position per object after the emitted prefix
    /// (`None` = not yet published).
    pub fn positions(&self) -> &[Option<NodeId>] {
        &self.positions
    }

    /// The seeded churn schedule [`ServiceOp::Topology`] ops index
    /// into, when this is a churn stream.
    pub fn churn_schedule(&self) -> Option<&ChurnSchedule> {
        self.schedule.as_ref()
    }

    /// Draws one steered sensor (uniform over the non-removable set;
    /// with a static topology, uniform over all sensors — consuming
    /// the identical RNG draw).
    fn draw_sensor(&mut self) -> NodeId {
        let i = self.rng.gen_range(0..self.allowed.len());
        self.allowed[i]
    }

    /// Advances object `o` one hop per its mobility model and returns
    /// the move op. Random walks draw single adjacent hops (with churn
    /// steering) exactly as the pre-scenario generator did; every other
    /// model pops the next hop of a planned flight, planning a fresh
    /// one when the current flight is exhausted.
    fn next_move(&mut self, o: usize) -> ServiceOp {
        let cur = self.positions[o].expect("published object has a position");
        let to = match self.spec.mobility {
            MobilityModel::RandomWalk => {
                let nbrs = self.graph.neighbors(cur);
                match &self.schedule {
                    None => nbrs[self.rng.gen_range(0..nbrs.len())],
                    Some(sched) => {
                        // Steer the hop toward non-removable neighbors;
                        // if the object is cornered, any hop will do —
                        // the data plane runs on the static base graph.
                        self.move_scratch.clear();
                        for &v in nbrs {
                            if sched.removable().binary_search(&v).is_err() {
                                self.move_scratch.push(v);
                            }
                        }
                        if self.move_scratch.is_empty() {
                            nbrs[self.rng.gen_range(0..nbrs.len())]
                        } else {
                            let i = self.rng.gen_range(0..self.move_scratch.len());
                            self.move_scratch[i]
                        }
                    }
                }
            }
            _ => {
                if self.flights[o].is_empty() {
                    self.flights[o] = self.plan_flight(o, cur);
                }
                self.flights[o].pop().expect("planned flight is non-empty")
            }
        };
        self.positions[o] = Some(to);
        ServiceOp::Move { to }
    }

    /// Plans the next flight for object `o` at `cur` under the spec's
    /// (non-random-walk) mobility model. Mirrors
    /// [`crate::WorkloadSpec::generate`]'s per-model target selection.
    fn plan_flight(&mut self, o: usize, cur: NodeId) -> Vec<NodeId> {
        let g = self.graph;
        let n = g.node_count();
        match self.spec.mobility {
            MobilityModel::RandomWalk => unreachable!("random walks plan single hops"),
            MobilityModel::Waypoint => {
                let target = loop {
                    let t = NodeId::from_index(self.rng.gen_range(0..n));
                    if t != cur {
                        break t;
                    }
                };
                flight_to(g, cur, target)
            }
            MobilityModel::Commuter => {
                if self.commuter[o].is_none() {
                    let far = loop {
                        let t = NodeId::from_index(self.rng.gen_range(0..n));
                        if t != cur {
                            break t;
                        }
                    };
                    self.commuter[o] = Some((cur, far, true));
                }
                let (home, far, heading_out) = self.commuter[o].expect("established above");
                self.commuter[o] = Some((home, far, !heading_out));
                let target = if heading_out { far } else { home };
                if target == cur {
                    vec![g.neighbors(cur)[0]]
                } else {
                    flight_to(g, cur, target)
                }
            }
            MobilityModel::Levy { alpha } => {
                let target = levy_target(g, cur, alpha, &mut self.rng);
                flight_to(g, cur, target)
            }
            MobilityModel::Hotspot { locality, .. } => {
                let target = hotspot_target(g, &self.hotspot_anchors, locality, &mut self.rng);
                if target == cur {
                    let nbrs = g.neighbors(cur);
                    vec![nbrs[self.rng.gen_range(0..nbrs.len())]]
                } else {
                    flight_to(g, cur, target)
                }
            }
            MobilityModel::PingPong { a, b } => {
                let target = if cur == a { b } else { a };
                if target == cur {
                    vec![g.neighbors(cur)[0]]
                } else {
                    flight_to(g, cur, target)
                }
            }
        }
    }

    /// The next operation, or `None` once `spec.ops` were emitted.
    pub fn next_op(&mut self) -> Option<OpEnvelope> {
        if self.emitted >= self.spec.ops {
            return None;
        }
        let id = OpId(self.emitted);
        // Control plane: after the publish prefix, every
        // `churn_every`-th slot carries the next topology delta (no
        // RNG draws, so the data-plane coin stream is untouched).
        if let Some(sched) = &self.schedule {
            if self.published >= self.spec.objects
                && self.emitted.is_multiple_of(self.spec.churn_every)
                && self.next_delta < sched.len()
            {
                let delta = self.next_delta as u32;
                self.next_delta += 1;
                self.emitted += 1;
                return Some(OpEnvelope {
                    id,
                    object: ObjectId(u32::MAX),
                    obj_seq: 0,
                    op: ServiceOp::Topology { delta },
                });
            }
        }
        let (object, op) = if self.published < self.spec.objects {
            // Publish prefix: object ids in order, uniform start sensors.
            let o = self.published;
            self.published += 1;
            let at = self.draw_sensor();
            self.positions[o] = Some(at);
            (o, ServiceOp::Publish { at })
        } else {
            match self.spec.query_model {
                // Frozen draw order: object, coin, then the op's own
                // draws — identical to the pre-scenario generator.
                QueryModel::Uniform => {
                    let o = self.rng.gen_range(0..self.spec.objects);
                    if self.rng.gen::<f64>() < self.spec.query_fraction {
                        let from = self.draw_sensor();
                        (o, ServiceOp::Query { from })
                    } else {
                        (o, self.next_move(o))
                    }
                }
                // Skewed popularity applies to *queries* only, so the
                // coin flips first and the query path draws its object
                // from the Zipf sampler; moves keep uniform coverage.
                QueryModel::Zipf { .. } => {
                    if self.rng.gen::<f64>() < self.spec.query_fraction {
                        let o = self
                            .zipf
                            .as_ref()
                            .expect("zipf model builds a sampler")
                            .sample(&mut self.rng);
                        let from = self.draw_sensor();
                        (o, ServiceOp::Query { from })
                    } else {
                        let o = self.rng.gen_range(0..self.spec.objects);
                        (o, self.next_move(o))
                    }
                }
            }
        };
        let obj_seq = self.obj_seq[object];
        self.obj_seq[object] += 1;
        self.emitted += 1;
        Some(OpEnvelope {
            id,
            object: ObjectId(object as u32),
            obj_seq,
            op,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_net::generators;

    fn collect(spec: StreamSpec) -> (Vec<OpEnvelope>, Vec<Option<NodeId>>) {
        let g = generators::grid(6, 6).unwrap();
        let mut s = OpStream::new(&g, spec);
        let mut ops = Vec::new();
        while let Some(e) = s.next_op() {
            ops.push(e);
        }
        (ops, s.positions().to_vec())
    }

    #[test]
    fn same_spec_generates_the_same_stream() {
        let spec = StreamSpec::new(7, 300, 42);
        let (a, pa) = collect(spec);
        let (b, pb) = collect(spec);
        assert_eq!(a, b);
        assert_eq!(pa, pb);
        assert_eq!(a.len(), 300);
    }

    #[test]
    fn publish_prefix_then_adjacent_moves_and_ground_truth_replay() {
        let g = generators::grid(6, 6).unwrap();
        let spec = StreamSpec::new(5, 200, 9);
        let mut s = OpStream::new(&g, spec);
        let mut replay: Vec<Option<NodeId>> = vec![None; 5];
        let mut expected_id = 0u64;
        let mut seqs = [0u32; 5];
        while let Some(e) = s.next_op() {
            assert_eq!(e.id, OpId(expected_id), "ids are dense");
            expected_id += 1;
            assert_eq!(e.obj_seq, seqs[e.object.index()], "per-object order");
            seqs[e.object.index()] += 1;
            match e.op {
                ServiceOp::Publish { at } => {
                    assert!(expected_id <= 5, "publishes form the prefix");
                    replay[e.object.index()] = Some(at);
                }
                ServiceOp::Move { to } => {
                    let cur = replay[e.object.index()].expect("move after publish");
                    assert!(g.neighbors(cur).contains(&to), "moves hop one adjacency");
                    replay[e.object.index()] = Some(to);
                }
                ServiceOp::Query { .. } => {}
                ServiceOp::Topology { .. } => unreachable!("static spec emits no topology ops"),
            }
        }
        assert_eq!(replay, s.positions(), "generator tracks its own truth");
        assert!(replay.iter().all(Option::is_some));
    }

    #[test]
    fn query_fraction_bounds_are_respected() {
        let (ops, _) = collect(StreamSpec {
            query_fraction: 0.0,
            ..StreamSpec::new(3, 100, 1)
        });
        assert!(
            !ops.iter().any(|e| matches!(e.op, ServiceOp::Query { .. })),
            "zero fraction means no queries"
        );
        let (ops, _) = collect(StreamSpec {
            query_fraction: 1.0,
            ..StreamSpec::new(3, 100, 1)
        });
        let queries = ops
            .iter()
            .filter(|e| matches!(e.op, ServiceOp::Query { .. }))
            .count();
        assert_eq!(queries, 97, "everything after the publish prefix");
    }

    #[test]
    fn churn_stream_interleaves_topology_ops_and_steers_data_ops() {
        let g = generators::grid(6, 6).unwrap();
        let spec = StreamSpec {
            churn_every: 25,
            ..StreamSpec::new(4, 200, 5)
        };
        let mut s = OpStream::new(&g, spec);
        let removable: Vec<NodeId> = s.churn_schedule().unwrap().removable().to_vec();
        assert!(!removable.is_empty());
        let mut topo = Vec::new();
        let mut steered = 0u64;
        while let Some(e) = s.next_op() {
            match e.op {
                ServiceOp::Topology { delta } => {
                    assert_eq!(e.object, ObjectId(u32::MAX), "sentinel control object");
                    assert_eq!(e.obj_seq, 0);
                    topo.push(delta);
                }
                ServiceOp::Publish { at } | ServiceOp::Query { from: at } => {
                    assert!(
                        removable.binary_search(&at).is_err(),
                        "publish/query sensors avoid the removable pool"
                    );
                    steered += 1;
                }
                ServiceOp::Move { .. } => {}
            }
        }
        assert_eq!(s.emitted(), 200);
        assert!(steered > 0);
        // Deltas arrive in order and index into the schedule.
        assert!(!topo.is_empty());
        assert!(topo.windows(2).all(|w| w[1] == w[0] + 1));
        assert!((*topo.last().unwrap() as usize) < s.churn_schedule().unwrap().len());
    }

    #[test]
    fn scenario_streams_stay_adjacent_and_deterministic() {
        for mobility in [
            MobilityModel::Waypoint,
            MobilityModel::Commuter,
            MobilityModel::levy(1.6),
            MobilityModel::hotspot(3, 0.8),
            MobilityModel::ping_pong(NodeId(14), NodeId(15)),
        ] {
            let spec = StreamSpec::new(4, 250, 8).with_mobility(mobility);
            let run = || {
                let g = generators::grid(6, 6).unwrap();
                let mut s = OpStream::new(&g, spec);
                let mut ops = Vec::new();
                let mut replay: Vec<Option<NodeId>> = vec![None; 4];
                while let Some(e) = s.next_op() {
                    match e.op {
                        ServiceOp::Publish { at } => replay[e.object.index()] = Some(at),
                        ServiceOp::Move { to } => {
                            let cur = replay[e.object.index()].expect("move after publish");
                            assert!(
                                g.neighbors(cur).contains(&to),
                                "{mobility:?}: move {cur} -> {to} not an adjacency"
                            );
                            replay[e.object.index()] = Some(to);
                        }
                        _ => {}
                    }
                    ops.push(e);
                }
                assert_eq!(replay, s.positions(), "{mobility:?}: ground truth diverged");
                ops
            };
            assert_eq!(run(), run(), "{mobility:?}: stream not deterministic");
        }
    }

    #[test]
    fn zipf_queries_concentrate_on_low_object_ids() {
        let g = generators::grid(6, 6).unwrap();
        let spec = StreamSpec {
            query_fraction: 0.5,
            ..StreamSpec::new(10, 2_000, 17)
        }
        .with_query_model(QueryModel::zipf(1.5));
        let mut s = OpStream::new(&g, spec);
        let mut query_hits = [0usize; 10];
        let mut move_hits = [0usize; 10];
        while let Some(e) = s.next_op() {
            match e.op {
                ServiceOp::Query { .. } => query_hits[e.object.index()] += 1,
                ServiceOp::Move { .. } => move_hits[e.object.index()] += 1,
                _ => {}
            }
        }
        let queries: usize = query_hits.iter().sum();
        assert!(
            query_hits[0] * 3 > queries,
            "rank 0 drew {}/{queries} queries — not skewed",
            query_hits[0]
        );
        // Moves stay uniform: skew applies to query popularity only.
        let moves: usize = move_hits.iter().sum();
        assert!(
            move_hits.iter().all(|&m| m * 20 > moves),
            "move coverage collapsed: {move_hits:?}"
        );
    }

    #[test]
    #[should_panic(expected = "churn streams require random-walk mobility")]
    fn churn_rejects_path_movers() {
        let g = generators::grid(6, 6).unwrap();
        let spec = StreamSpec {
            churn_every: 20,
            ..StreamSpec::new(4, 100, 3)
        }
        .with_mobility(MobilityModel::Waypoint);
        let _ = OpStream::new(&g, spec);
    }

    #[test]
    fn churn_stream_is_deterministic() {
        let g = generators::grid(6, 6).unwrap();
        let spec = StreamSpec {
            query_fraction: 0.3,
            churn_every: 20,
            ..StreamSpec::new(4, 150, 11)
        };
        let run = || {
            let mut s = OpStream::new(&g, spec);
            let mut ops = Vec::new();
            while let Some(e) = s.next_op() {
                ops.push(e);
            }
            (ops, s.positions().to_vec())
        };
        assert_eq!(run(), run());
    }
}
