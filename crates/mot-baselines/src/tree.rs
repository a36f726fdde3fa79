//! Message-pruning-tree semantics shared by every baseline.
//!
//! A tracking tree spans all sensors. For each object, the nodes holding
//! it in their detection sets are exactly the tree ancestors of its proxy.
//! A move climbs from the new proxy to the lowest ancestor that already
//! knows the object (the LCA with the old proxy's path), then prunes the
//! stale branch downward; a query climbs to the first ancestor that knows
//! the object and descends the detection chain. Tree edges may be logical
//! (representative-to-representative), so each hop costs the shortest-path
//! distance between its endpoints. The tree is fixed, so those lengths
//! are constants: the tracker reads each parent edge from the oracle once
//! per direction when it is built, and climbs, prunes and descents read
//! the stored values. Only the shortcut jump and the crash handoff, whose
//! endpoints are not a tree edge, ask the oracle on the op path.
//!
//! Detection sets, the proxy table and the crash-dirty set are keyed by
//! `ObjectId` and probed at every tree hop, so they are
//! [`mot_net::IdSet`]s / [`mot_net::IdMap`]s (one multiply per probe,
//! DESIGN.md §13) — the same tables, under the same hasher, as the MOT
//! tracker they are measured against.

use mot_core::{
    CoreError, LedgerKind, MoveOutcome, ObjectId, OpKind, QueryResult, TraceEvent, TracePhase,
    TraceSink, Tracker,
};
use mot_net::{DistanceOracle, IdMap, IdSet, NodeId};
use std::cell::Cell;

/// A rooted spanning tree over the sensor nodes.
#[derive(Clone, Debug)]
pub struct TrackingTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    depth: Vec<usize>,
}

impl TrackingTree {
    /// Assembles and validates a tree from a parent array
    /// (`parent[root] = None`, every node must reach the root).
    ///
    /// # Panics
    /// Panics if the parent array contains a cycle, a second root, or a
    /// node that cannot reach the root.
    pub fn from_parents(root: NodeId, parent: Vec<Option<NodeId>>) -> Self {
        let n = parent.len();
        assert!(root.index() < n, "root out of range");
        assert!(parent[root.index()].is_none(), "root must have no parent");
        for (i, p) in parent.iter().enumerate() {
            if p.is_none() {
                assert_eq!(i, root.index(), "second root at node {i}");
            }
        }
        // depth by walking up (also detects cycles / unreachable nodes)
        let mut depth = vec![usize::MAX; n];
        depth[root.index()] = 0;
        let mut chain = Vec::new();
        for start in 0..n {
            chain.clear();
            let mut cur = start;
            while depth[cur] == usize::MAX {
                chain.push(cur);
                assert!(chain.len() <= n, "cycle through node {start}");
                cur = parent[cur].expect("non-root node missing parent").index();
            }
            let base = depth[cur];
            for (k, &node) in chain.iter().rev().enumerate() {
                depth[node] = base + k + 1;
            }
        }
        TrackingTree {
            root,
            parent,
            depth,
        }
    }

    /// The sink/root of the tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Always false — trees span the whole (non-empty) network.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Tree parent of `u` (None for the root).
    pub fn parent(&self, u: NodeId) -> Option<NodeId> {
        self.parent[u.index()]
    }

    /// Hop depth of `u` below the root.
    pub fn depth(&self, u: NodeId) -> usize {
        self.depth[u.index()]
    }

    /// Tree-path distance from `u` to the root, with each tree hop costed
    /// at the graph shortest-path distance between its endpoints.
    pub fn dist_to_root(&self, u: NodeId, m: &dyn DistanceOracle) -> f64 {
        let mut cost = 0.0;
        let mut cur = u;
        while let Some(p) = self.parent(cur) {
            cost += m.dist(cur, p);
            cur = p;
        }
        cost
    }

    /// Tree-path distance between two nodes (through their LCA), with
    /// each tree hop costed at the graph shortest-path distance.
    pub fn tree_distance(&self, u: NodeId, v: NodeId, m: &dyn DistanceOracle) -> f64 {
        let (mut a, mut b) = (u, v);
        let mut cost = 0.0;
        while self.depth(a) > self.depth(b) {
            let p = self.parent(a).expect("deeper node has a parent");
            cost += m.dist(a, p);
            a = p;
        }
        while self.depth(b) > self.depth(a) {
            let p = self.parent(b).expect("deeper node has a parent");
            cost += m.dist(b, p);
            b = p;
        }
        while a != b {
            let (pa, pb) = (self.parent(a).unwrap(), self.parent(b).unwrap());
            cost += m.dist(a, pa) + m.dist(b, pb);
            a = pa;
            b = pb;
        }
        cost
    }

    /// Maximum *deviation* over all nodes: tree distance to root minus
    /// graph distance to root (zero for a deviation-avoidance tree).
    pub fn max_deviation(&self, m: &dyn DistanceOracle) -> f64 {
        (0..self.len())
            .map(NodeId::from_index)
            .map(|u| self.dist_to_root(u, m) - m.dist(u, self.root))
            .fold(0.0, f64::max)
    }
}

/// Message-pruning-tree tracker: the [`Tracker`] implementation shared by
/// STUN, DAT, Z-DAT, and Z-DAT+shortcuts.
pub struct TreeTracker<'a> {
    name: String,
    tree: TrackingTree,
    oracle: &'a dyn DistanceOracle,
    /// `hop_up[c]` = `dist(c, parent(c))`, the hop a climb takes out of
    /// `c`; 0 at the root. Read once in [`TreeTracker::new`].
    hop_up: Vec<f64>,
    /// `hop_down[c]` = `dist(parent(c), c)`, the hop a prune or descent
    /// takes into `c`; 0 at the root. Stored apart from `hop_up` for the
    /// reason the overlay's `StationTable` stores both directions of a
    /// hop: a weighted solve may round each direction differently.
    hop_down: Vec<f64>,
    detection: Vec<IdSet<ObjectId>>,
    proxies: IdMap<ObjectId, NodeId>,
    /// Liu-et-al.-style shortcuts: ancestors keep enough detail that a
    /// located query routes straight (shortest path) to the proxy instead
    /// of walking tree edges down.
    shortcuts: bool,
    /// STUN-style query routing: requests are forwarded to the sink
    /// (root) first and descend from there — Kung & Vlah's design never
    /// prunes queries at intermediate ancestors, one reason its query
    /// cost ratio degrades (§1.3: "DAB does not take the query cost
    /// into account").
    via_root: bool,
    load: Vec<usize>,
    /// Per-node liveness under the fault model (true = crashed).
    down: Vec<bool>,
    /// Number of nodes currently down (0 ⇒ skip liveness checks).
    down_count: usize,
    /// Objects that lost a detection entry to a crash and whose chain has
    /// not been rebuilt yet. Empty on fault-free runs, so those stay
    /// bit-identical to a build without the fault layer.
    dirty: IdSet<ObjectId>,
    /// Message distance spent on crash repair (handoffs + chain rebuilds).
    repair_spent: f64,
    /// Scratch of [`TreeTracker::descend`]: a tree path, bottom first, at
    /// most tree-depth long. Empty between operations; only its capacity
    /// is kept. A `Cell`, so the read-only query path can borrow it too.
    chain: Cell<Vec<NodeId>>,
    /// Optional structured-trace consumer (`None` = zero-cost silence).
    /// Events are tagged with the tree depth of the destination node as
    /// the "level" (the tree analogue of MOT's hierarchy level).
    sink: Option<&'a dyn TraceSink>,
}

impl<'a> TreeTracker<'a> {
    /// Wraps a tree in tracking state, reading every parent edge's length
    /// in both directions from `oracle`.
    pub fn new(
        name: impl Into<String>,
        tree: TrackingTree,
        oracle: &'a dyn DistanceOracle,
        shortcuts: bool,
    ) -> Self {
        let n = tree.len();
        let (mut hop_up, mut hop_down) = (vec![0.0; n], vec![0.0; n]);
        for c in (0..n).map(NodeId::from_index) {
            if let Some(p) = tree.parent(c) {
                hop_up[c.index()] = oracle.dist(c, p);
                hop_down[c.index()] = oracle.dist(p, c);
            }
        }
        TreeTracker {
            name: name.into(),
            tree,
            oracle,
            hop_up,
            hop_down,
            detection: vec![IdSet::default(); n],
            proxies: IdMap::default(),
            shortcuts,
            via_root: false,
            load: vec![0; n],
            down: vec![false; n],
            down_count: 0,
            dirty: IdSet::default(),
            repair_spent: 0.0,
            chain: Cell::default(),
            sink: None,
        }
    }

    /// Routes queries through the root (STUN semantics) instead of
    /// stopping at the first ancestor holding the object.
    pub fn with_root_queries(mut self) -> Self {
        self.via_root = true;
        self
    }

    /// Attaches a structured-trace sink (see the `Tracker` trait's
    /// observability contract). Without one, no event is constructed.
    pub fn with_sink(mut self, sink: &'a dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    #[inline]
    fn emit_op(&self, op: OpKind, o: ObjectId, cost: f64) {
        if let Some(s) = self.sink {
            s.op_complete(op, o, cost);
        }
    }

    /// Emits one billed tree hop, tagged with the destination's depth
    /// (free when no sink is attached).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn hop(
        &self,
        op: OpKind,
        phase: TracePhase,
        ledger: LedgerKind,
        o: ObjectId,
        src: NodeId,
        dst: NodeId,
        distance: f64,
    ) {
        if let Some(s) = self.sink {
            s.event(&TraceEvent {
                op,
                phase,
                ledger,
                object: o,
                src,
                dst,
                level: self.tree.depth(dst) as u32,
                distance,
            });
        }
    }

    /// Whether queries are routed via the root.
    pub fn queries_via_root(&self) -> bool {
        self.via_root
    }

    /// The underlying tree (for structural assertions in tests).
    pub fn tree(&self) -> &TrackingTree {
        &self.tree
    }

    /// Length of the climb hop from `u` to its tree parent (0 at the
    /// root): the stored `dist(u, parent(u))`.
    pub fn hop_up(&self, u: NodeId) -> f64 {
        self.hop_up[u.index()]
    }

    fn check_node(&self, u: NodeId) -> mot_core::Result<()> {
        if u.index() >= self.tree.len() {
            return Err(CoreError::UnknownNode(u));
        }
        Ok(())
    }

    fn add(&mut self, u: NodeId, o: ObjectId) {
        if self.detection[u.index()].insert(o) {
            self.load[u.index()] += 1;
        }
    }

    fn remove(&mut self, u: NodeId, o: ObjectId) {
        if self.detection[u.index()].remove(&o) {
            self.load[u.index()] -= 1;
        }
    }

    /// Whether `u` currently holds `o` in its detection set (committed
    /// state; used by the concurrent execution engine).
    pub fn holds(&self, u: NodeId, o: ObjectId) -> bool {
        self.detection[u.index()].contains(&o)
    }

    /// The live node nearest to `u` (deterministic tie-break by id) —
    /// the handoff target when a proxy crashes, by the rule MOT uses
    /// ([`mot_net::nearest_where`]).
    fn nearest_live(&self, u: NodeId) -> Option<NodeId> {
        mot_net::nearest_where(self.oracle, u, |v| !self.down[v.index()])
    }

    /// The first crashed node on the tree path from `v` to the root, if
    /// any — a climb from `v` cannot get past it until it reboots.
    fn path_blocked(&self, v: NodeId) -> Option<NodeId> {
        if self.down_count == 0 {
            return None;
        }
        let mut cur = v;
        loop {
            if self.down[cur.index()] {
                return Some(cur);
            }
            match self.tree.parent(cur) {
                Some(p) => cur = p,
                None => return None,
            }
        }
    }

    /// Cost of the downward phase of a query that located `o` at `node`,
    /// or `None` for an unpublished object or a `node` that is not an
    /// ancestor of its proxy.
    pub fn descend_cost(&self, o: ObjectId, node: NodeId) -> Option<f64> {
        let proxy = *self.proxies.get(&o)?;
        if self.shortcuts {
            return Some(self.oracle.dist(node, proxy));
        }
        let mut cost = 0.0;
        self.descend(node, proxy, |_, _, d| cost += d)
            .then_some(cost)
    }

    /// Visits the tree hops from `top` down to `bottom`, in that order,
    /// as `(parent, child, stored length)`. The path is found by walking
    /// up from `bottom`, so no child list is searched. Returns false,
    /// having visited nothing, if `top` is not an ancestor of `bottom`.
    fn descend(
        &self,
        top: NodeId,
        bottom: NodeId,
        mut visit: impl FnMut(NodeId, NodeId, f64),
    ) -> bool {
        let mut chain = self.chain.take();
        let mut cur = bottom;
        let reached = loop {
            if cur == top {
                break true;
            }
            chain.push(cur);
            match self.tree.parent(cur) {
                Some(p) => cur = p,
                None => break false,
            }
        };
        if reached {
            for &c in chain.iter().rev() {
                let p = self.tree.parent(c).expect("a chain node below `top`");
                visit(p, c, self.hop_down[c.index()]);
            }
        }
        chain.clear();
        self.chain.set(chain);
        reached
    }
}

impl Tracker for TreeTracker<'_> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn publish(&mut self, o: ObjectId, proxy: NodeId) -> mot_core::Result<f64> {
        self.check_node(proxy)?;
        if self.proxies.contains_key(&o) {
            return Err(CoreError::AlreadyPublished(o));
        }
        if let Some(b) = self.path_blocked(proxy) {
            return Err(CoreError::NodeDown(b));
        }
        let mut cost = 0.0;
        let mut cur = proxy;
        self.add(cur, o);
        while let Some(p) = self.tree.parent(cur) {
            let d = self.hop_up[cur.index()];
            cost += d;
            self.hop(
                OpKind::Publish,
                TracePhase::Climb,
                LedgerKind::Publish,
                o,
                cur,
                p,
                d,
            );
            cur = p;
            self.add(cur, o);
        }
        self.proxies.insert(o, proxy);
        self.emit_op(OpKind::Publish, o, cost);
        Ok(cost)
    }

    fn move_object(&mut self, o: ObjectId, to: NodeId) -> mot_core::Result<MoveOutcome> {
        self.check_node(to)?;
        if !self.proxies.contains_key(&o) {
            return Err(CoreError::UnknownObject(o));
        }
        if let Some(b) = self.path_blocked(to) {
            return Err(CoreError::NodeDown(b));
        }
        if self.dirty.contains(&o) {
            // Self-repair: rebuild the broken detection chain before the
            // climb, or the prune below would walk into the gap.
            self.repair_object(o)?;
        }
        let from = *self.proxies.get(&o).expect("checked above");
        if from == to {
            self.emit_op(OpKind::Move, o, 0.0);
            return Ok(MoveOutcome { from, cost: 0.0 });
        }
        let mut cost = 0.0;
        // insert: climb from the new proxy to the first holder (the LCA
        // of the old and new proxies).
        let mut cur = to;
        while !self.holds(cur, o) {
            self.add(cur, o);
            let p = self
                .tree
                .parent(cur)
                .expect("the root holds every published object");
            let d = self.hop_up[cur.index()];
            cost += d;
            self.hop(
                OpKind::Move,
                TracePhase::Climb,
                LedgerKind::Maintenance,
                o,
                cur,
                p,
                d,
            );
            cur = p;
        }
        let meet = cur;
        // delete: prune the stale branch from the meet down to `from`,
        // billed top-down, then drop it from the detection sets.
        let pruned = self.descend(meet, from, |p, c, d| {
            cost += d;
            self.hop(
                OpKind::Move,
                TracePhase::Prune,
                LedgerKind::Maintenance,
                o,
                p,
                c,
                d,
            );
        });
        assert!(pruned, "the meet must be an ancestor of the old proxy");
        let mut c = from;
        while c != meet {
            self.remove(c, o);
            c = self.tree.parent(c).expect("a node below the meet");
        }
        self.proxies.insert(o, to);
        self.emit_op(OpKind::Move, o, cost);
        Ok(MoveOutcome { from, cost })
    }

    fn query(&self, from: NodeId, o: ObjectId) -> mot_core::Result<QueryResult> {
        self.check_node(from)?;
        let proxy = *self.proxies.get(&o).ok_or(CoreError::UnknownObject(o))?;
        if self.dirty.contains(&o) {
            // A read-only query cannot rebuild the chain; name the node
            // that broke it so a mutable caller can repair and retry.
            let mut culprit = proxy;
            let mut cur = proxy;
            loop {
                if self.down[cur.index()] || !self.holds(cur, o) {
                    culprit = cur;
                    break;
                }
                match self.tree.parent(cur) {
                    Some(p) => cur = p,
                    None => break,
                }
            }
            return Err(CoreError::NodeDown(culprit));
        }
        if let Some(b) = self.path_blocked(from) {
            return Err(CoreError::NodeDown(b));
        }
        let mut cost = 0.0;
        let mut cur = from;
        let done = |t: &Self, cur: NodeId| {
            if t.via_root {
                cur == t.tree.root()
            } else {
                t.holds(cur, o)
            }
        };
        while !done(self, cur) {
            let p = self
                .tree
                .parent(cur)
                .expect("the root holds every published object");
            let d = self.hop_up[cur.index()];
            cost += d;
            self.hop(
                OpKind::Query,
                TracePhase::Climb,
                LedgerKind::Query,
                o,
                cur,
                p,
                d,
            );
            cur = p;
        }
        if self.shortcuts {
            // Ancestors store the routing detail: jump straight down.
            let d = self.oracle.dist(cur, proxy);
            cost += d;
            self.hop(
                OpKind::Query,
                TracePhase::SdlJump,
                LedgerKind::Query,
                o,
                cur,
                proxy,
                d,
            );
        } else {
            // Walk the detection chain down, one tree hop at a time.
            let reached = self.descend(cur, proxy, |p, c, d| {
                cost += d;
                self.hop(
                    OpKind::Query,
                    TracePhase::Descend,
                    LedgerKind::Query,
                    o,
                    p,
                    c,
                    d,
                );
            });
            assert!(reached, "detection chain must lead to the proxy");
        }
        self.emit_op(OpKind::Query, o, cost);
        Ok(QueryResult { proxy, cost })
    }

    fn proxy_of(&self, o: ObjectId) -> Option<NodeId> {
        self.proxies.get(&o).copied()
    }

    fn node_loads(&self) -> Vec<usize> {
        self.load.clone()
    }

    fn crash_node(&mut self, u: NodeId) {
        if u.index() >= self.tree.len() || self.down[u.index()] {
            return;
        }
        self.down[u.index()] = true;
        self.down_count += 1;
        let lost = std::mem::take(&mut self.detection[u.index()]);
        self.load[u.index()] = self.load[u.index()].saturating_sub(lost.len());
        let mut lost: Vec<ObjectId> = lost.into_iter().collect();
        lost.sort();
        for o in lost {
            self.dirty.insert(o);
            // Graceful degradation: an object proxied at the crashed
            // sensor is re-detected by the nearest live one (one handoff
            // hop, billed as repair); its chain rebuild stays lazy.
            if self.proxies.get(&o) == Some(&u) {
                if let Some(next) = self.nearest_live(u) {
                    let d = self.oracle.dist(u, next);
                    self.repair_spent += d;
                    self.hop(
                        OpKind::Repair,
                        TracePhase::Handoff,
                        LedgerKind::Repair,
                        o,
                        u,
                        next,
                        d,
                    );
                    self.emit_op(OpKind::Repair, o, d);
                    self.proxies.insert(o, next);
                    self.add(next, o);
                }
            }
        }
    }

    fn recover_node(&mut self, u: NodeId) {
        if u.index() < self.tree.len() && self.down[u.index()] {
            self.down[u.index()] = false;
            self.down_count -= 1;
        }
    }

    fn repair_object(&mut self, o: ObjectId) -> mot_core::Result<f64> {
        if !self.dirty.contains(&o) {
            return Ok(0.0);
        }
        let recorded = *self.proxies.get(&o).ok_or(CoreError::UnknownObject(o))?;
        let proxy = if self.down[recorded.index()] {
            self.nearest_live(recorded)
                .ok_or(CoreError::NodeDown(recorded))?
        } else {
            recorded
        };
        if let Some(b) = self.path_blocked(proxy) {
            // A crashed ancestor blocks the rebuild: defer — the next
            // operation after it reboots finishes the repair.
            return Err(CoreError::NodeDown(b));
        }
        // Scrub every surviving entry (stale branches included), then
        // re-publish the chain from the proxy; the climb is the repair.
        for i in 0..self.tree.len() {
            self.remove(NodeId::from_index(i), o);
        }
        self.proxies.insert(o, proxy);
        let mut cost = 0.0;
        let mut cur = proxy;
        self.add(cur, o);
        while let Some(p) = self.tree.parent(cur) {
            let d = self.hop_up[cur.index()];
            cost += d;
            self.hop(
                OpKind::Repair,
                TracePhase::Climb,
                LedgerKind::Repair,
                o,
                cur,
                p,
                d,
            );
            cur = p;
            self.add(cur, o);
        }
        self.repair_spent += cost;
        self.dirty.remove(&o);
        self.emit_op(OpKind::Repair, o, cost);
        Ok(cost)
    }

    fn repair_cost(&self) -> f64 {
        self.repair_spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_net::generators;
    use mot_net::DenseOracle;

    /// A simple BFS tree over a grid for exercising the tracker.
    fn grid_tracker(shortcuts: bool) -> (mot_net::Graph, DenseOracle, Vec<Option<NodeId>>) {
        let g = generators::grid(4, 4).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let spt = mot_net::shortest_path_tree(&g, NodeId(0));
        let _ = shortcuts;
        (g, m, spt.parent)
    }

    #[test]
    fn from_parents_builds_consistent_structure() {
        let (_, _, parents) = grid_tracker(false);
        let t = TrackingTree::from_parents(NodeId(0), parents);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.depth(NodeId(0)), 0);
        assert_eq!(t.len(), 16);
        for i in 1..16 {
            let u = NodeId(i);
            let p = t.parent(u).unwrap();
            assert_eq!(t.depth(u), t.depth(p) + 1);
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycles_are_rejected() {
        // 0 -> 1 -> 2 -> 1 cycle
        let parent = vec![None, Some(NodeId(2)), Some(NodeId(1))];
        let _ = TrackingTree::from_parents(NodeId(0), parent);
    }

    #[test]
    fn publish_move_query_roundtrip() {
        let (g, m, parents) = grid_tracker(false);
        let tree = TrackingTree::from_parents(NodeId(0), parents);
        let mut t = TreeTracker::new("BFS", tree, &m, false);
        let o = ObjectId(0);
        t.publish(o, NodeId(15)).unwrap();
        // ancestors of 15 hold the object
        assert!(t.holds(NodeId(15), o));
        assert!(t.holds(NodeId(0), o));
        let mv = t.move_object(o, NodeId(12)).unwrap();
        assert_eq!(mv.from, NodeId(15));
        assert!(!t.holds(NodeId(15), o));
        for x in g.nodes() {
            assert_eq!(t.query(x, o).unwrap().proxy, NodeId(12));
        }
    }

    #[test]
    fn detection_sets_are_exactly_proxy_ancestors() {
        let (_, m, parents) = grid_tracker(false);
        let tree = TrackingTree::from_parents(NodeId(0), parents);
        let mut t = TreeTracker::new("BFS", tree, &m, false);
        let o = ObjectId(4);
        t.publish(o, NodeId(10)).unwrap();
        for hop in [11, 7, 3, 2, 6, 5] {
            t.move_object(o, NodeId(hop)).unwrap();
        }
        // collect expected ancestors of final proxy 5
        let mut expected = IdSet::default();
        let mut cur = Some(NodeId(5));
        while let Some(u) = cur {
            expected.insert(u);
            cur = t.tree().parent(u);
        }
        for i in 0..16 {
            let u = NodeId(i);
            assert_eq!(
                t.holds(u, o),
                expected.contains(&u),
                "detection set wrong at {u}"
            );
        }
        let total: usize = t.node_loads().iter().sum();
        assert_eq!(total, expected.len());
    }

    #[test]
    fn shortcuts_never_cost_more_on_queries() {
        let (g, m, parents) = grid_tracker(false);
        let tree = TrackingTree::from_parents(NodeId(0), parents.clone());
        let tree2 = TrackingTree::from_parents(NodeId(0), parents);
        let mut plain = TreeTracker::new("plain", tree, &m, false);
        let mut sc = TreeTracker::new("sc", tree2, &m, true);
        let o = ObjectId(0);
        for t in [&mut plain, &mut sc] {
            t.publish(o, NodeId(9)).unwrap();
            t.move_object(o, NodeId(13)).unwrap();
        }
        for x in g.nodes() {
            let qp = plain.query(x, o).unwrap();
            let qs = sc.query(x, o).unwrap();
            assert_eq!(qp.proxy, qs.proxy);
            assert!(
                qs.cost <= qp.cost + 1e-9,
                "from {x}: {} > {}",
                qs.cost,
                qp.cost
            );
        }
    }

    #[test]
    fn move_to_same_proxy_is_free() {
        let (_, m, parents) = grid_tracker(false);
        let tree = TrackingTree::from_parents(NodeId(0), parents);
        let mut t = TreeTracker::new("BFS", tree, &m, false);
        t.publish(ObjectId(0), NodeId(3)).unwrap();
        assert_eq!(t.move_object(ObjectId(0), NodeId(3)).unwrap().cost, 0.0);
    }

    #[test]
    fn crashed_proxy_hands_object_to_live_neighbor() {
        let (g, m, parents) = grid_tracker(false);
        let tree = TrackingTree::from_parents(NodeId(0), parents);
        let mut t = TreeTracker::new("BFS", tree, &m, false);
        let o = ObjectId(0);
        t.publish(o, NodeId(15)).unwrap();
        t.crash_node(NodeId(15));
        let new_proxy = t.proxy_of(o).unwrap();
        assert_ne!(new_proxy, NodeId(15));
        assert_eq!(m.dist(NodeId(15), new_proxy), 1.0, "nearest live sensor");
        assert!(t.repair_cost() > 0.0, "handoff hop billed as repair");
        t.recover_node(NodeId(15));
        assert!(t.repair_object(o).unwrap() > 0.0, "chain rebuild billed");
        for x in g.nodes() {
            assert_eq!(t.query(x, o).unwrap().proxy, new_proxy);
        }
    }

    #[test]
    fn mid_chain_crash_query_surfaces_node_down_then_repairs() {
        let (g, m, parents) = grid_tracker(false);
        let tree = TrackingTree::from_parents(NodeId(0), parents);
        // STUN semantics: queries via the root
        let mut t = TreeTracker::new("STUN", tree, &m, false).with_root_queries();
        let o = ObjectId(0);
        t.publish(o, NodeId(15)).unwrap();
        let victim = t.tree().parent(NodeId(15)).unwrap();
        t.crash_node(victim);
        t.recover_node(victim);
        let err = t.query(NodeId(3), o).unwrap_err();
        assert!(matches!(err, CoreError::NodeDown(_)), "got {err:?}");
        let c = t.repair_object(o).unwrap();
        assert!(c > 0.0);
        assert_eq!(t.repair_object(o).unwrap(), 0.0, "repair is idempotent");
        for x in g.nodes() {
            assert_eq!(t.query(x, o).unwrap().proxy, NodeId(15));
        }
    }

    #[test]
    fn move_self_repairs_after_proxy_crash() {
        let (_, m, parents) = grid_tracker(false);
        let tree = TrackingTree::from_parents(NodeId(0), parents);
        let mut t = TreeTracker::new("BFS", tree, &m, false);
        let o = ObjectId(0);
        t.publish(o, NodeId(15)).unwrap();
        t.crash_node(NodeId(15));
        t.recover_node(NodeId(15));
        let handoff = t.proxy_of(o).unwrap();
        let mv = t.move_object(o, NodeId(5)).unwrap();
        assert_eq!(mv.from, handoff, "move starts from the handoff proxy");
        assert_eq!(t.proxy_of(o), Some(NodeId(5)));
        assert_eq!(t.query(NodeId(10), o).unwrap().proxy, NodeId(5));
        // detection sets are whole again: exactly the ancestors of 5
        let total: usize = t.node_loads().iter().sum();
        assert_eq!(total, t.tree().depth(NodeId(5)) + 1);
    }

    #[test]
    fn operations_refuse_paths_through_down_nodes() {
        let (_, m, parents) = grid_tracker(false);
        let tree = TrackingTree::from_parents(NodeId(0), parents);
        let mut t = TreeTracker::new("BFS", tree, &m, false);
        t.crash_node(NodeId(0)); // the root blocks every climb
        assert!(matches!(
            t.publish(ObjectId(0), NodeId(15)),
            Err(CoreError::NodeDown(_))
        ));
        t.recover_node(NodeId(0));
        t.publish(ObjectId(0), NodeId(15)).unwrap();
    }

    #[test]
    fn trace_events_sum_to_costs_and_tag_tree_depth() {
        use mot_core::MemorySink;
        let (_, m, parents) = grid_tracker(false);
        let tree = TrackingTree::from_parents(NodeId(0), parents);
        let sink = MemorySink::new();
        let mut t = TreeTracker::new("BFS", tree, &m, false).with_sink(&sink);
        let o = ObjectId(0);
        let pc = t.publish(o, NodeId(15)).unwrap();
        let mv = t.move_object(o, NodeId(12)).unwrap();
        let q = t.query(NodeId(3), o).unwrap();
        let ops = sink.ops();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0], (OpKind::Publish, o, pc));
        assert_eq!(ops[1], (OpKind::Move, o, mv.cost));
        assert_eq!(ops[2], (OpKind::Query, o, q.cost));
        for ev in sink.events() {
            assert_eq!(ev.level, t.tree().depth(ev.dst) as u32);
        }
        // tracing off must not change costs (bit parity)
        let (_, m2, parents2) = grid_tracker(false);
        let tree2 = TrackingTree::from_parents(NodeId(0), parents2);
        let mut silent = TreeTracker::new("BFS", tree2, &m2, false);
        assert_eq!(
            silent.publish(o, NodeId(15)).unwrap().to_bits(),
            pc.to_bits()
        );
        assert_eq!(
            silent.move_object(o, NodeId(12)).unwrap().cost.to_bits(),
            mv.cost.to_bits()
        );
        assert_eq!(
            silent.query(NodeId(3), o).unwrap().cost.to_bits(),
            q.cost.to_bits()
        );
    }

    #[test]
    fn errors_match_core_conventions() {
        let (_, m, parents) = grid_tracker(false);
        let tree = TrackingTree::from_parents(NodeId(0), parents);
        let mut t = TreeTracker::new("BFS", tree, &m, false);
        assert!(matches!(
            t.query(NodeId(0), ObjectId(9)),
            Err(CoreError::UnknownObject(_))
        ));
        t.publish(ObjectId(1), NodeId(1)).unwrap();
        assert!(matches!(
            t.publish(ObjectId(1), NodeId(2)),
            Err(CoreError::AlreadyPublished(_))
        ));
        assert!(matches!(
            t.publish(ObjectId(2), NodeId(99)),
            Err(CoreError::UnknownNode(_))
        ));
    }
}
