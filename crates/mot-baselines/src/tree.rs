//! Message-pruning-tree semantics shared by every baseline.
//!
//! A tracking tree spans all sensors. For each object, the nodes holding
//! it (its detection chain) are exactly the tree ancestors of its proxy.
//! A move climbs from the new proxy to the lowest ancestor that already
//! knows the object (the LCA with the old proxy's path), then prunes the
//! stale branch downward; a query climbs to the first ancestor that knows
//! the object and descends the chain. Tree edges may be logical
//! (representative-to-representative), so each hop costs the shortest-path
//! distance between its endpoints. The tree is fixed, so those lengths
//! are constants: the tracker reads each parent edge from the oracle once
//! per direction when it is built, and climbs, prunes and descents read
//! the stored values. Only the shortcut jump and the crash handoff, whose
//! endpoints are not a tree edge, ask the oracle on the op path.
//!
//! The chain is derived, not stored: the tree keeps each node's pre-order
//! interval, so "`u` holds `o`" is one O(1) test, `u` an ancestor of the
//! proxy (`TrackingTree::is_ancestor`). The proxy table is a clean
//! object's only state; writes move only the per-node load counts.
//!
//! Crash rule: a crash breaks the chain of every object the sensor held.
//! Each gets a dirty entry listing the exact nodes that still hold it —
//! the proxy's ancestors, less crashed holders, plus the live sensor a
//! crashed proxy handed it to. Queries name the break; the next move or
//! repair releases exactly the listed holders and climbs a fresh chain.
//! Recovery restores the sensor, not what it held.
//!
//! The proxy table and the dirty map are [`mot_net::IdMap`]s (one
//! multiply per probe, DESIGN.md §13), as in the MOT tracker.

use mot_core::{
    CoreError, LedgerKind, MoveOutcome, ObjectId, OpKind, QueryResult, TraceEvent, TracePhase,
    TraceSink, Tracker,
};
use mot_net::{DistanceOracle, IdMap, NodeId};
use std::cell::Cell;

/// A rooted spanning tree over the sensor nodes.
#[derive(Clone, Debug)]
pub struct TrackingTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    depth: Vec<usize>,
    /// Pre-order interval of each subtree: `d` lies below `a` (or is `a`)
    /// iff `tin[a] <= tin[d] < tout[a]`.
    tin: Vec<u32>,
    tout: Vec<u32>,
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
        // Pre-order intervals without child lists: subtree sizes deepest
        // first, then each node, shallowest first, takes the next free
        // slot in its parent's range.
        let mut by_depth: Vec<usize> = (0..n).collect();
        by_depth.sort_by_key(|&u| depth[u]);
        let mut size = vec![1u32; n];
        for &u in by_depth.iter().rev() {
            if let Some(p) = parent[u] {
                size[p.index()] += size[u];
            }
        }
        let (mut tin, mut next) = (vec![0u32; n], vec![1u32; n]);
        for &u in &by_depth[1..] {
            let p = parent[u].expect("only the root comes first").index();
            tin[u] = next[p];
            next[p] += size[u];
            next[u] = tin[u] + 1;
        }
        let tout = tin.iter().zip(&size).map(|(t, s)| t + s).collect();
        TrackingTree {
            root,
            parent,
            depth,
            tin,
            tout,
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

    /// Whether `a` is `d` or lies on `d`'s walk to the root, in O(1);
    /// false when either node is outside the tree.
    pub(crate) fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        match (self.tin.get(a.index()), self.tin.get(d.index())) {
            (Some(&ta), Some(&td)) => ta <= td && td < self.tout[a.index()],
            _ => false,
        }
    }

    /// The walk from `u` up to the root, both included.
    pub(crate) fn ancestors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(Some(u), |&c| self.parent(c))
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
    /// A clean object's only state: it is held on the proxy's ancestors.
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
    /// Number of objects each node holds.
    load: Vec<usize>,
    /// Per-node liveness under the fault model (true = crashed).
    down: Vec<bool>,
    /// Number of nodes currently down (0 ⇒ skip liveness checks).
    down_count: usize,
    /// Objects whose chain a crash broke and that have not been rebuilt
    /// yet, each with the exact nodes that still hold it. Empty on
    /// fault-free runs, so those stay bit-identical to a build without
    /// the fault layer.
    dirty: IdMap<ObjectId, Vec<NodeId>>,
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
            proxies: IdMap::default(),
            shortcuts,
            via_root: false,
            load: vec![0; n],
            down: vec![false; n],
            down_count: 0,
            dirty: IdMap::default(),
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

    /// Whether `u` currently holds `o` (committed state; used by the
    /// concurrent execution engine): an ancestor of a clean object's
    /// proxy, or a listed holder of a broken one. False for a node
    /// outside the tree or an unpublished object.
    #[inline]
    pub fn holds(&self, u: NodeId, o: ObjectId) -> bool {
        match self.dirty.get(&o) {
            Some(holders) => holders.contains(&u),
            None => self
                .proxies
                .get(&o)
                .is_some_and(|&p| self.tree.is_ancestor(u, p)),
        }
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
        self.tree.ancestors(v).find(|c| self.down[c.index()])
    }

    /// Bills the climb from `proxy` to the root and charges one load at
    /// every node of it: the chain a clean object at `proxy` is held on.
    fn climb_chain(&mut self, o: ObjectId, proxy: NodeId, op: OpKind, ledger: LedgerKind) -> f64 {
        let mut cost = 0.0;
        let mut cur = proxy;
        self.load[cur.index()] += 1;
        while let Some(p) = self.tree.parent(cur) {
            let d = self.hop_up[cur.index()];
            cost += d;
            self.hop(op, TracePhase::Climb, ledger, o, cur, p, d);
            cur = p;
            self.load[cur.index()] += 1;
        }
        cost
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
        if !self.tree.is_ancestor(top, bottom) {
            return false;
        }
        let mut chain = self.chain.take();
        chain.extend(self.tree.ancestors(bottom).take_while(|&c| c != top));
        for &c in chain.iter().rev() {
            let p = self.tree.parent(c).expect("a chain node below `top`");
            visit(p, c, self.hop_down[c.index()]);
        }
        chain.clear();
        self.chain.set(chain);
        true
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
        let cost = self.climb_chain(o, proxy, OpKind::Publish, LedgerKind::Publish);
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
        if self.dirty.contains_key(&o) {
            // Self-repair: rebuild the broken detection chain before the
            // climb, or the prune below would walk into the gap.
            self.repair_object(o)?;
        }
        let from = *self.proxies.get(&o).expect("checked above");
        if from == to {
            self.emit_op(OpKind::Move, o, 0.0);
            return Ok(MoveOutcome {
                from,
                cost: 0.0,
                climb: 0.0,
            });
        }
        let mut cost = 0.0;
        // insert: climb from the new proxy to the first holder (the LCA
        // of the old and new proxies).
        let mut cur = to;
        while !self.tree.is_ancestor(cur, from) {
            self.load[cur.index()] += 1;
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
        // Nothing else is billed yet: the climb share is the whole cost.
        let climb = cost;
        // delete: prune the stale branch from the meet down to `from`,
        // billed top-down, then release its loads.
        self.descend(meet, from, |p, c, d| {
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
        for c in self.tree.ancestors(from).take_while(|&c| c != meet) {
            self.load[c.index()] -= 1;
        }
        self.proxies.insert(o, to);
        self.emit_op(OpKind::Move, o, cost);
        Ok(MoveOutcome { from, cost, climb })
    }

    fn query(&self, from: NodeId, o: ObjectId) -> mot_core::Result<QueryResult> {
        self.check_node(from)?;
        let proxy = *self.proxies.get(&o).ok_or(CoreError::UnknownObject(o))?;
        if let Some(holders) = self.dirty.get(&o) {
            // A read-only query cannot rebuild the chain; name the node
            // that broke it so a mutable caller can repair and retry.
            let culprit = self
                .tree
                .ancestors(proxy)
                .find(|c| self.down[c.index()] || !holders.contains(c))
                .unwrap_or(proxy);
            return Err(CoreError::NodeDown(culprit));
        }
        if let Some(b) = self.path_blocked(from) {
            return Err(CoreError::NodeDown(b));
        }
        let mut cost = 0.0;
        let mut cur = from;
        // The first holder stops the climb; under STUN routing, the root.
        while cur != self.tree.root() && (self.via_root || !self.tree.is_ancestor(cur, proxy)) {
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
        let mut lost: Vec<ObjectId> = self.proxies.keys().copied().collect();
        lost.retain(|&o| self.holds(u, o));
        lost.sort();
        self.load[u.index()] -= lost.len();
        for o in lost {
            let proxy = self.proxies[&o];
            // Graceful degradation: an object proxied at the crashed
            // sensor is re-detected by the nearest live one (one handoff
            // hop, billed as repair); its chain rebuild stays lazy.
            let next = (proxy == u).then(|| self.nearest_live(u)).flatten();
            if let Some(next) = next {
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
            }
            let chain = || self.tree.ancestors(proxy).collect();
            let holders = self.dirty.entry(o).or_insert_with(chain);
            holders.retain(|&c| c != u);
            if let Some(next) = next.filter(|next| !holders.contains(next)) {
                holders.push(next);
                self.load[next.index()] += 1;
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
        if !self.dirty.contains_key(&o) {
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
        // Release every surviving holder (stale branches and handoffs
        // included), then re-publish the chain from the proxy; the climb
        // is the repair.
        for c in self.dirty.remove(&o).expect("checked above") {
            self.load[c.index()] -= 1;
        }
        self.proxies.insert(o, proxy);
        let cost = self.climb_chain(o, proxy, OpKind::Repair, LedgerKind::Repair);
        self.repair_spent += cost;
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
    use mot_net::{generators, DenseOracle, IdSet};

    /// A simple BFS tree over a grid for exercising the tracker.
    fn grid_tracker() -> (mot_net::Graph, DenseOracle, Vec<Option<NodeId>>) {
        let g = generators::grid(4, 4).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let spt = mot_net::shortest_path_tree(&g, NodeId(0));
        (g, m, spt.parent)
    }

    #[test]
    fn from_parents_builds_consistent_structure() {
        let (_, _, parents) = grid_tracker();
        let t = TrackingTree::from_parents(NodeId(0), parents);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.depth(NodeId(0)), 0);
        assert_eq!(t.len(), 16);
        for i in 1..16 {
            let u = NodeId(i);
            let p = t.parent(u).unwrap();
            assert_eq!(t.depth(u), t.depth(p) + 1);
        }
        // The interval test agrees with a parent walk on every pair, on
        // the BFS tree and on a STUN tree, whose shape the rates decide.
        let g = generators::grid(6, 6).unwrap();
        let stun = crate::build_stun(&g, &crate::DetectionRates::uniform(&g));
        for t in [&t, &stun] {
            let nodes = (0..t.len()).map(NodeId::from_index);
            for d in nodes.clone() {
                let mut walk = vec![d];
                while let Some(p) = t.parent(*walk.last().unwrap()) {
                    walk.push(p);
                }
                assert_eq!(t.ancestors(d).collect::<Vec<_>>(), walk);
                for a in nodes.clone() {
                    assert_eq!(t.is_ancestor(a, d), walk.contains(&a), "{a} over {d}");
                }
            }
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
        let (g, m, parents) = grid_tracker();
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
        let (_, m, parents) = grid_tracker();
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
        let (g, m, parents) = grid_tracker();
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
        let (_, m, parents) = grid_tracker();
        let tree = TrackingTree::from_parents(NodeId(0), parents);
        let mut t = TreeTracker::new("BFS", tree, &m, false);
        t.publish(ObjectId(0), NodeId(3)).unwrap();
        assert_eq!(t.move_object(ObjectId(0), NodeId(3)).unwrap().cost, 0.0);
    }

    #[test]
    fn crashed_proxy_hands_object_to_live_neighbor() {
        let (g, m, parents) = grid_tracker();
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
        let (g, m, parents) = grid_tracker();
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
        let (_, m, parents) = grid_tracker();
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
        let (_, m, parents) = grid_tracker();
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
        let (_, m, parents) = grid_tracker();
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
        let (_, m2, parents2) = grid_tracker();
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
        let (_, m, parents) = grid_tracker();
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
        // A node outside the tree holds nothing and locates nothing.
        assert!(!t.holds(NodeId(99), ObjectId(1)));
        assert_eq!(t.descend_cost(ObjectId(1), NodeId(99)), None);
        assert!(!t.tree().is_ancestor(NodeId(99), NodeId(1)));
        assert!(!t.tree().is_ancestor(NodeId(0), NodeId(99)));
    }

    #[test]
    fn crash_walk_keeps_loads_equal_to_the_held_entries() {
        // Crashes, recoveries, moves, queries and repairs in a seeded mix
        // on every tree baseline. At every step each node's load is the
        // number of objects it holds, and a clean object is held exactly
        // on its proxy's parent walk. Every op's result (cost bits, or the
        // node a `NodeDown` names) folds into a digest, pinned from the
        // tracker that kept a detection set per sensor.
        use crate::{build_stun, build_zdat, DetectionRates, ZdatParams};
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        let g = generators::grid(8, 8).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let rates = DetectionRates::uniform(&g);
        let zdat = || build_zdat(&g, &rates, ZdatParams::default()).unwrap();
        let trackers = [
            TreeTracker::new("STUN", build_stun(&g, &rates), &m, false).with_root_queries(),
            TreeTracker::new("Z-DAT", zdat(), &m, false),
            TreeTracker::new("Z-DAT+shortcuts", zdat(), &m, true),
        ];
        let fold = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0100_0000_01b3);
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for mut t in trackers {
            let mut rng = ChaCha8Rng::seed_from_u64(23);
            let objects: Vec<ObjectId> = (0..24).map(ObjectId).collect();
            for &o in &objects {
                let cost = t.publish(o, NodeId(rng.gen_range(0..64))).unwrap();
                digest = fold(digest, cost.to_bits());
            }
            let (mut down, mut answered, mut broken_moves) = (Vec::new(), 0, 0);
            for step in 0..1500 {
                let o = objects[rng.gen_range(0..objects.len())];
                let result = match rng.gen_range(0..10) {
                    0 if down.len() < 2 => {
                        let v = NodeId(rng.gen_range(0..64));
                        t.crash_node(v);
                        down.push(v);
                        Ok(0.0)
                    }
                    1 if !down.is_empty() => {
                        t.recover_node(down.swap_remove(0));
                        Ok(0.0)
                    }
                    2 => t.repair_object(o),
                    3..=5 => t.query(NodeId(rng.gen_range(0..64)), o).map(|q| {
                        assert_eq!(Some(q.proxy), t.proxy_of(o), "step {step}");
                        answered += 1;
                        q.cost
                    }),
                    _ => {
                        let nbrs = g.neighbors(t.proxy_of(o).unwrap());
                        let to = nbrs[rng.gen_range(0..nbrs.len())];
                        let broken = t.dirty.contains_key(&o);
                        t.move_object(o, to).map(|mv| {
                            broken_moves += usize::from(broken);
                            mv.cost
                        })
                    }
                };
                digest = fold(
                    digest,
                    match result {
                        Ok(cost) => cost.to_bits(),
                        Err(CoreError::NodeDown(b)) => u64::from(b.0) | 1 << 63,
                        Err(e) => panic!("{} step {step}: {e:?}", t.name()),
                    },
                );
                let mut recount = vec![0; 64];
                for u in g.nodes() {
                    recount[u.index()] = objects.iter().filter(|&&o| t.holds(u, o)).count();
                }
                assert_eq!(t.node_loads(), recount, "{} step {step}", t.name());
                for &o in objects.iter().filter(|o| !t.dirty.contains_key(o)) {
                    let mut walk = vec![t.proxy_of(o).unwrap()];
                    while let Some(p) = t.tree().parent(*walk.last().unwrap()) {
                        walk.push(p);
                    }
                    for u in g.nodes() {
                        assert_eq!(t.holds(u, o), walk.contains(&u), "{} step {step}", t.name());
                    }
                }
            }
            assert!(answered > 300, "{}: {answered} queries answered", t.name());
            assert!(
                broken_moves > 20,
                "{}: {broken_moves} broken moves",
                t.name()
            );
        }
        assert_eq!(digest, 0x2540_305a_4126_f504);
    }
}
