//! The tracker runtime: drives the node machines to quiescence per
//! operation (the paper's one-by-one case, where event inter-arrival
//! times dwarf message propagation times).

use crate::arena::{ArenaStats, RouteArena};
use crate::message::{Message, Payload};
use crate::node::{Ctx, DlEntry, NodeState};
use crate::transport::{CostLedger, Transport};
use mot_core::{CoreError, MotConfig, MoveOutcome, ObjectId, QueryResult, Tracker};
use mot_hierarchy::Overlay;
use mot_net::{DistanceOracle, IdMap, NodeId};
use std::cell::RefCell;

struct Inner<'a> {
    overlay: &'a Overlay,
    oracle: &'a dyn DistanceOracle,
    use_special_parents: bool,
    nodes: Vec<NodeState>,
    transport: Transport,
    proxies: IdMap<ObjectId, NodeId>,
    last_reply: Option<(ObjectId, NodeId)>,
    /// Reply (result delivery) distance, reported separately from the
    /// query cost like the direct implementation.
    pub reply_distance: f64,
    /// Freelist for the route buffers riding inside payloads.
    arena: RouteArena,
    /// Reused collector for each delivery's outgoing messages.
    out_buf: Vec<Message>,
}

impl Inner<'_> {
    fn run_to_idle(&mut self) {
        while let Some(msg) = self.transport.deliver(self.oracle) {
            if let Payload::Reply { object, proxy } = msg.payload {
                self.last_reply = Some((object, proxy));
                self.reply_distance += self.oracle.dist(msg.src, msg.dst);
                continue;
            }
            let ctx = Ctx {
                overlay: self.overlay,
                oracle: self.oracle,
                use_special_parents: self.use_special_parents,
            };
            self.out_buf.clear();
            self.nodes[msg.dst.index()].handle(
                msg.dst,
                msg.payload,
                &ctx,
                &mut self.arena,
                &mut self.out_buf,
            );
            self.transport.send_all(self.out_buf.drain(..));
        }
    }

    /// Seeds the level-0 entry at a (new) proxy and sends the messages
    /// that launch the climb.
    fn start_climb(&mut self, o: ObjectId, proxy: NodeId, publish: bool) {
        self.arena.begin_op();
        // level-0 special parent, same policy as internal levels
        let sp0 = if self.use_special_parents && self.overlay.sp_level(0) != 0 {
            Some(self.overlay.sp_host(proxy, 0, 0))
        } else {
            None
        };
        self.nodes[proxy.index()].seed_proxy_entry(o, proxy, sp0, &mut self.arena);
        if let Some(host) = sp0 {
            self.transport.send(Message {
                src: proxy,
                dst: host,
                payload: Payload::SpInstall {
                    object: o,
                    guarded_level: 0,
                    child: proxy,
                },
            });
        }
        if self.overlay.height() >= 1 {
            let station = self.overlay.station(proxy, 1);
            let mut prev_members = self.arena.take();
            prev_members.push(proxy);
            self.transport.send(Message {
                src: proxy,
                dst: station[0],
                payload: Payload::Climb {
                    object: o,
                    origin: proxy,
                    level: 1,
                    index: 0,
                    prev_members,
                    added: self.arena.take(),
                    publish,
                },
            });
        }
    }
}

/// A message-passing MOT tracker (one-by-one execution).
///
/// Implements [`Tracker`] by injecting protocol messages and running the
/// network to quiescence; costs come from the transport's distance
/// ledger, mirroring the direct implementation's accounting (charged:
/// publish/insert/delete/query/descend; uncharged bookkeeping:
/// SDL installs/removes, repoints; replies ledgered separately).
pub struct ProtoTracker<'a> {
    inner: RefCell<Inner<'a>>,
}

impl<'a> ProtoTracker<'a> {
    /// Creates the runtime over a prebuilt overlay. Only the
    /// `use_special_parents` switch of `cfg` applies (the message runtime
    /// models plain MOT; load balancing composes at the storage layer and
    /// is exercised through the direct implementation).
    pub fn new(overlay: &'a Overlay, oracle: &'a dyn DistanceOracle, cfg: &MotConfig) -> Self {
        ProtoTracker {
            inner: RefCell::new(Inner {
                overlay,
                oracle,
                use_special_parents: cfg.use_special_parents,
                nodes: vec![NodeState::default(); overlay.node_count()],
                transport: Transport::new(),
                proxies: IdMap::default(),
                last_reply: None,
                reply_distance: 0.0,
                arena: RouteArena::new(),
                out_buf: Vec::new(),
            }),
        }
    }

    /// The most recent operation's per-kind message ledger: charged and
    /// bookkeeping distance by payload kind.
    pub fn ledger(&self) -> CostLedger {
        self.inner.borrow().transport.ledger.clone()
    }

    /// Toggles route-buffer reuse (on by default). Disabling makes every
    /// buffer a fresh allocation — the reference mode the churn parity
    /// test compares against; results must be bit-identical either way.
    pub fn set_buffer_reuse(&mut self, on: bool) {
        self.inner.borrow_mut().arena.set_enabled(on);
    }

    /// Route-buffer arena counters (takes / freelist hits / recycles).
    pub fn arena_stats(&self) -> ArenaStats {
        self.inner.borrow().arena.stats()
    }

    /// Whether `node` holds `o` at role `level` (for differential tests).
    pub fn holds(&self, node: NodeId, level: usize, o: ObjectId) -> bool {
        self.inner.borrow().nodes[node.index()].holds(o, level)
    }

    /// `node`'s canonical SDL entry for `o`, as `(guarded level, child)`
    /// (for differential tests).
    pub fn sdl_entry(&self, node: NodeId, o: ObjectId) -> Option<(usize, NodeId)> {
        self.inner.borrow().nodes[node.index()].sdl_entry(o)
    }

    /// Total reply (result delivery) distance accumulated so far.
    pub fn reply_distance(&self) -> f64 {
        self.inner.borrow().reply_distance
    }

    /// Rejects a node id outside the overlay.
    fn check_node(&self, u: NodeId) -> mot_core::Result<()> {
        if u.index() >= self.inner.borrow().nodes.len() {
            return Err(CoreError::UnknownNode(u));
        }
        Ok(())
    }
}

impl Tracker for ProtoTracker<'_> {
    fn name(&self) -> String {
        "MOT (message-passing)".to_string()
    }

    fn publish(&mut self, o: ObjectId, proxy: NodeId) -> mot_core::Result<f64> {
        self.check_node(proxy)?;
        let mut inner = self.inner.borrow_mut();
        if inner.proxies.contains_key(&o) {
            return Err(CoreError::AlreadyPublished(o));
        }
        inner.transport.ledger.reset();
        inner.start_climb(o, proxy, true);
        inner.run_to_idle();
        inner.proxies.insert(o, proxy);
        Ok(inner.transport.ledger.charged)
    }

    fn move_object(&mut self, o: ObjectId, to: NodeId) -> mot_core::Result<MoveOutcome> {
        self.check_node(to)?;
        let mut inner = self.inner.borrow_mut();
        let from = *inner.proxies.get(&o).ok_or(CoreError::UnknownObject(o))?;
        if from == to {
            return Ok(MoveOutcome {
                from,
                cost: 0.0,
                climb: 0.0,
            });
        }
        inner.transport.ledger.reset();
        inner.start_climb(o, to, false);
        inner.run_to_idle();
        inner.proxies.insert(o, to);
        let ledger = &inner.transport.ledger;
        Ok(MoveOutcome {
            from,
            cost: ledger.charged,
            // The climb's messages are the `insert` kind; its meet-level
            // rollback travels as `delete`.
            climb: ledger.of_kind("insert"),
        })
    }

    fn query(&self, from: NodeId, o: ObjectId) -> mot_core::Result<QueryResult> {
        self.check_node(from)?;
        let mut inner = self.inner.borrow_mut();
        if !inner.proxies.contains_key(&o) {
            return Err(CoreError::UnknownObject(o));
        }
        inner.transport.ledger.reset();
        inner.last_reply = None;
        inner.arena.begin_op();
        inner.transport.send(Message {
            src: from,
            dst: from, // zero-distance self-delivery starts the probe
            payload: Payload::Query {
                object: o,
                origin: from,
                level: 0,
                index: 0,
            },
        });
        inner.run_to_idle();
        let (obj, proxy) = inner.last_reply.expect("published objects always resolve");
        debug_assert_eq!(obj, o);
        Ok(QueryResult {
            proxy,
            cost: inner.transport.ledger.charged,
        })
    }

    fn proxy_of(&self, o: ObjectId) -> Option<NodeId> {
        self.inner.borrow().proxies.get(&o).copied()
    }

    fn node_loads(&self) -> Vec<usize> {
        self.inner
            .borrow()
            .nodes
            .iter()
            .map(NodeState::load)
            .collect()
    }
}

impl NodeState {
    /// Installs the level-0 (proxy) entry directly — the proxy detects
    /// the object locally; no message is needed for its own entry.
    pub fn seed_proxy_entry(
        &mut self,
        o: ObjectId,
        me: NodeId,
        sp_host: Option<NodeId>,
        arena: &mut RouteArena,
    ) {
        let mut level_members = arena.take();
        level_members.push(me);
        self.insert_entry(
            o,
            0,
            DlEntry {
                down_members: arena.take(),
                level_members,
                sp_host,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_hierarchy::{build_doubling, OverlayConfig};
    use mot_net::generators;
    use mot_net::DenseOracle;

    fn env() -> (mot_net::Graph, DenseOracle) {
        let g = generators::grid(6, 6).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        (g, m)
    }

    #[test]
    fn publish_move_query_lifecycle() {
        let (g, m) = env();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
        let mut t = ProtoTracker::new(&overlay, &m, &MotConfig::plain());
        let o = ObjectId(0);
        let c = t.publish(o, NodeId(0)).unwrap();
        assert!(c > 0.0);
        let mv = t.move_object(o, NodeId(1)).unwrap();
        assert_eq!(mv.from, NodeId(0));
        assert!(mv.cost > 0.0);
        for x in g.nodes() {
            let q = t.query(x, o).unwrap();
            assert_eq!(q.proxy, NodeId(1), "query from {x}");
        }
        assert!(t.reply_distance() > 0.0);
    }

    #[test]
    fn error_paths() {
        let (g, m) = env();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
        let mut t = ProtoTracker::new(&overlay, &m, &MotConfig::plain());
        assert!(matches!(
            t.query(NodeId(0), ObjectId(7)),
            Err(CoreError::UnknownObject(_))
        ));
        t.publish(ObjectId(0), NodeId(2)).unwrap();
        assert!(matches!(
            t.publish(ObjectId(0), NodeId(3)),
            Err(CoreError::AlreadyPublished(_))
        ));
        assert!(matches!(
            t.publish(ObjectId(1), NodeId(999)),
            Err(CoreError::UnknownNode(_))
        ));
    }

    #[test]
    fn random_walk_stays_consistent() {
        use rand::{Rng, SeedableRng};
        let (g, m) = env();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
        let mut t = ProtoTracker::new(&overlay, &m, &MotConfig::plain());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let o = ObjectId(0);
        let mut proxy = NodeId(17);
        t.publish(o, proxy).unwrap();
        for _ in 0..150 {
            let nbrs = g.neighbors(proxy);
            proxy = nbrs[rng.gen_range(0..nbrs.len())];
            let mv = t.move_object(o, proxy).unwrap();
            assert!(mv.cost > 0.0);
        }
        for x in g.nodes() {
            assert_eq!(t.query(x, o).unwrap().proxy, proxy);
        }
    }
}
