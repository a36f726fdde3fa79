//! The MOT tracker — Algorithm 1 with parent sets, special parents, and
//! the optional §5 load-balancing extension.
//!
//! One-by-one semantics: each call runs to completion before the next
//! starts (the paper's primary analysis case; the concurrent execution
//! engine in `mot-sim` layers message timing on top of the same
//! transitions).
//!
//! **Distance locality.** Every distance the tracker bills is between a
//! node and one of its overlay stations, or between two stations of
//! adjacent levels — pairs whose separation is bounded by `O(2^ℓ)` at
//! level `ℓ`, never arbitrary node pairs. They come from two places:
//!
//! * **Overlay constants.** A hop between consecutive stops of one
//!   detection path is fixed when the overlay is built, and the overlay
//!   stores its length with the bits the oracle would return — upwards
//!   ([`Overlay::hop_in`], [`Overlay::hop_back`]) and downwards
//!   ([`Overlay::drop_hop`]: from a member of `station(u, ℓ + 1)` into
//!   `station(u, ℓ)`). The publish, move and query climbs, the
//!   meet-level rollback, the prune steps *inside* a trail level (whose
//!   holders are one origin's complete station — [`TrailLevel::origin`])
//!   and every prune junction or `descend` step whose source is on the
//!   target level's own detection path read those and never call the
//!   oracle.
//! * **The oracle.** What depends on where objects have been: a prune
//!   junction or `descend` step from a trail level climbed on one
//!   origin's path into a level climbed on another's whose stations
//!   above differ (about a fifth of them on a long random walk), the
//!   SDL jump, and — when billed — the special-parent and
//!   load-balancing routes. The on-demand [`mot_net::CachedOracle`]
//!   answers each of these with one small point-to-point search (on
//!   unit-weight fields two BFS balls of about half the distance's
//!   radius, one around each end) and stores nothing; there is no
//!   all-pairs table to fall back on.

use crate::config::MotConfig;
use crate::error::CoreError;
use crate::lb::ClusterTable;
use crate::object::ObjectId;
use crate::state::{ObjectRecord, Probe, SpEntry, TrailLevel};
use crate::trace::{LedgerKind, OpKind, TraceEvent, TracePhase, TraceSink};
use crate::tracker::{MoveOutcome, QueryResult, Tracker};
use crate::Result;
use mot_hierarchy::Overlay;
use mot_net::{map_heap_bytes, DistanceOracle, IdMap, NodeId};

/// Mobile Object Tracking using sensors.
pub struct MotTracker<'a> {
    overlay: &'a Overlay,
    oracle: &'a dyn DistanceOracle,
    cfg: MotConfig,
    /// Every object's DL/SDL entries, in its trail (see [`crate::state`]).
    records: IdMap<ObjectId, ObjectRecord>,
    /// Physical per-node entry counts (who actually stores the record —
    /// under load balancing a hashed cluster member, not the role node).
    load: Vec<usize>,
    clusters: Option<ClusterTable>,
    /// Per-node liveness under the fault model (true = crashed).
    down: Vec<bool>,
    /// Number of nodes currently down (0 ⇒ skip liveness checks).
    down_count: usize,
    /// Whether any crash ever happened (false ⇒ skip damage scans, so a
    /// fault-free run costs exactly what it did before the fault layer).
    ever_crashed: bool,
    /// Message distance spent on crash repair (handoffs + re-publishes).
    repair_spent: f64,
    /// Optional structured-trace consumer. `None` (the default) keeps
    /// every hot path free of event construction — see [`crate::trace`].
    sink: Option<&'a dyn TraceSink>,
    /// Reusable container for the fresh trail fragment a move builds
    /// (copied into the spliced trail at the end of each move).
    frag_buf: Vec<TrailLevel>,
}

impl<'a> MotTracker<'a> {
    /// Creates a tracker over a prebuilt overlay.
    pub fn new(overlay: &'a Overlay, oracle: &'a dyn DistanceOracle, cfg: MotConfig) -> Self {
        let clusters = cfg
            .load_balance
            .then(|| ClusterTable::build(overlay, oracle));
        MotTracker {
            overlay,
            oracle,
            cfg,
            records: IdMap::default(),
            load: vec![0; overlay.node_count()],
            clusters,
            down: vec![false; overlay.node_count()],
            down_count: 0,
            ever_crashed: false,
            repair_spent: 0.0,
            sink: None,
            frag_buf: Vec::new(),
        }
    }

    /// A fresh slice of `DPath(origin)` at `level`, guarded wherever
    /// special parents are on and defined: near the root they are
    /// undefined (§3), and the root itself already guards everything.
    #[inline]
    fn new_level(&self, origin: NodeId, level: usize) -> TrailLevel {
        TrailLevel {
            origin,
            guarded: self.cfg.use_special_parents && self.overlay.sp_level(level) != level,
        }
    }

    /// Heap bytes of the tracker's own state: every object's trail and
    /// crash marks, the table that keys them, the per-node load counts
    /// and liveness flags, the load-balancing clusters when on, and the
    /// move scratch. The overlay and the oracle are borrowed, and
    /// counted by their owners.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let records: usize = self.records.values().map(ObjectRecord::heap_bytes).sum();
        map_heap_bytes(&self.records)
            + records
            + self.load.capacity() * size_of::<usize>()
            + self.down.capacity() * size_of::<bool>()
            + self.clusters.as_ref().map_or(0, ClusterTable::heap_bytes)
            + self.frag_buf.capacity() * size_of::<TrailLevel>()
    }

    /// Attaches a structured-trace sink: every billed message hop will
    /// emit a [`TraceEvent`] and every completed operation a summary.
    /// Without a sink no event is ever constructed, so traced-off runs
    /// are bit-identical to the uninstrumented tracker.
    pub fn with_sink(mut self, sink: &'a dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    #[inline]
    fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(s) = self.sink {
            s.event(&f());
        }
    }

    #[inline]
    fn emit_op(&self, op: OpKind, o: ObjectId, cost: f64) {
        if let Some(s) = self.sink {
            s.op_complete(op, o, cost);
        }
    }

    /// Emits one billed hop (free when no sink is attached).
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
        level: usize,
        distance: f64,
    ) {
        self.emit(|| TraceEvent {
            op,
            phase,
            ledger,
            object: o,
            src,
            dst,
            level: level as u32,
            distance,
        });
    }

    /// The overlay this tracker runs on.
    pub fn overlay(&self) -> &Overlay {
        self.overlay
    }

    /// Ids of all currently tracked objects.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.records.keys().copied()
    }

    fn check_node(&self, u: NodeId) -> Result<()> {
        if u.index() >= self.overlay.node_count() {
            return Err(CoreError::UnknownNode(u));
        }
        Ok(())
    }

    /// The node physically charged for role `(node, level)`'s entry for
    /// `o`: [`Self::placement`]'s holder, without the route.
    fn holder_of(&self, node: NodeId, level: usize, o: ObjectId) -> NodeId {
        match (&self.clusters, level) {
            (Some(t), l) if l >= 1 => t.holder(node, l, o),
            _ => node,
        }
    }

    /// Physical placement of role `(node, level)`'s entry for `o` plus
    /// the de Bruijn route cost to reach it (0 unless load balancing).
    fn placement(&self, node: NodeId, level: usize, o: ObjectId) -> (NodeId, f64) {
        match (&self.clusters, level) {
            (Some(t), l) if l >= 1 => {
                let p = t.placement(node, l, o, self.oracle);
                let cost = if self.cfg.count_lb_cost {
                    p.route_cost
                } else {
                    0.0
                };
                (p.holder, cost)
            }
            _ => (node, 0.0),
        }
    }

    /// [`Self::placement`] plus a `LbRoute` trace event when the de
    /// Bruijn round is billed (used on charged paths only — probe-only
    /// callers use `placement` directly and stay silent).
    fn placement_traced(
        &self,
        node: NodeId,
        level: usize,
        o: ObjectId,
        op: OpKind,
        ledger: LedgerKind,
    ) -> (NodeId, f64) {
        let (holder, cost) = self.placement(node, level, o);
        if cost != 0.0 {
            self.hop(
                op,
                TracePhase::LbRoute,
                ledger,
                o,
                node,
                holder,
                level,
                cost,
            );
        }
        (holder, cost)
    }

    /// Installs the SDL entry guarding holder `child` (station index `j`
    /// of `path_origin`'s level-`level` station, a guarded level).
    /// Returns any counted cost.
    #[allow(clippy::too_many_arguments)]
    fn install_sp(
        &mut self,
        path_origin: NodeId,
        level: usize,
        j: usize,
        child: NodeId,
        o: ObjectId,
        op: OpKind,
        ledger: LedgerKind,
    ) -> f64 {
        let sp_level = self.overlay.sp_level(level);
        let host = self.overlay.sp_host(path_origin, level, j);
        let (holder, lb_cost) = self.placement_traced(host, sp_level, o, op, ledger);
        self.load[holder.index()] += 1;
        let mut cost = lb_cost;
        if self.cfg.count_sp_cost {
            let d = self.oracle.dist(child, host);
            cost += d;
            self.hop(op, TracePhase::SpInstall, ledger, o, child, host, level, d);
        }
        cost
    }

    /// Removes guard `entry` of trail level `level`, releasing its
    /// holder's charge unless a crash already lost it, and bills the
    /// removal message when special-parent traffic is counted.
    #[allow(clippy::too_many_arguments)]
    fn remove_sp(
        &mut self,
        entry: SpEntry,
        live: bool,
        level: usize,
        o: ObjectId,
        op: OpKind,
        ledger: LedgerKind,
    ) -> f64 {
        if live {
            let holder = self.holder_of(entry.host, self.overlay.sp_level(level), o);
            self.release(holder);
        }
        if self.cfg.count_sp_cost {
            let d = self.oracle.dist(entry.child, entry.host);
            self.hop(
                op,
                TracePhase::SpRemove,
                ledger,
                o,
                entry.child,
                entry.host,
                level,
                d,
            );
            d
        } else {
            0.0
        }
    }

    /// Walks the trail downward from `(from_node, from_level)` to the
    /// proxy following DL holders, accumulating cost. At each level the
    /// message forwards to the nearest child holder (sensors know their
    /// geographic locations, §2.1).
    ///
    /// `trace` carries the billed operation context, or `None` when the
    /// walk is a hypothetical cost probe (`descend_cost`/`locate_cost`
    /// feed the concurrent engine's planning and must stay silent).
    fn descend(
        &self,
        rec: &ObjectRecord,
        o: ObjectId,
        from_node: NodeId,
        from_level: usize,
        trace: Option<(OpKind, LedgerKind)>,
    ) -> f64 {
        let mut cost = 0.0;
        let mut cur = from_node;
        for level in (0..from_level).rev() {
            let tl = rec.trail[level];
            let holders = tl.holders(self.overlay, level);
            // The hop goes to the nearest holder by (distance, id). The
            // holders are `station(tl.origin, level)`, so when `cur` is
            // on that origin's path the overlay knows which one that is.
            let (d, next) = match self.overlay.drop_hop(tl.origin, level, cur) {
                Some(drop) => (drop.nearest_dist, holders[drop.nearest]),
                None => holders
                    .iter()
                    .map(|&hnode| (self.oracle.dist(cur, hnode), hnode))
                    .min_by(|a, b| {
                        a.0.partial_cmp(&b.0)
                            .expect("distances are never NaN")
                            .then(a.1.cmp(&b.1))
                    })
                    .expect("trail levels are never empty"),
            };
            cost += d;
            if let Some((op, ledger)) = trace {
                self.hop(op, TracePhase::Descend, ledger, o, cur, next, level, d);
            }
            cur = next;
        }
        cost
    }

    /// Releases one entry's charge at `holder`.
    #[inline]
    fn release(&mut self, holder: NodeId) {
        self.load[holder.index()] = self.load[holder.index()].saturating_sub(1);
    }

    /// Whether `node` currently holds `o` in its level-`level` detection
    /// list (committed state; used by the concurrent execution engine).
    #[inline]
    pub fn holds(&self, node: NodeId, level: usize, o: ObjectId) -> bool {
        self.records
            .get(&o)
            .is_some_and(|rec| rec.holds(self.overlay, node, level))
    }

    /// The canonical SDL entry `node` keeps for `o` — the minimum
    /// `(guarded level, child)` pair over the live guards it hosts — or
    /// `None` when it guards nothing for `o`.
    pub fn guard(&self, node: NodeId, o: ObjectId) -> Option<(usize, NodeId)> {
        self.records
            .get(&o)
            .and_then(|rec| rec.guard(self.overlay, node))
    }

    /// Cost of descending the current trail of `o` from `(node, level)`
    /// to the proxy, or `None` for an unpublished object.
    pub fn descend_cost(&self, o: ObjectId, node: NodeId, level: usize) -> Option<f64> {
        self.records
            .get(&o)
            .map(|rec| self.descend(rec, o, node, level, None))
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &MotConfig {
        &self.cfg
    }

    /// If a query probing `(node, level)` can locate `o` from here — via
    /// the DL or, when enabled, the SDL — the cost of the downward phase;
    /// `None` when this probe misses (committed state).
    pub fn locate_cost(&self, node: NodeId, _level: usize, o: ObjectId) -> Option<f64> {
        let rec = self.records.get(&o)?;
        Some(match rec.probe(self.overlay, node)? {
            Probe::Dl(found_level) => self.descend(rec, o, node, found_level, None),
            Probe::Sdl(guarded_level, child) => {
                self.oracle.dist(node, child) + self.descend(rec, o, child, guarded_level, None)
            }
        })
    }

    /// Climbs `DPath(proxy)` from scratch, installing a complete trail
    /// for `o` — the publish path, reused verbatim by crash repair so a
    /// repaired object is indistinguishable from a freshly published one.
    fn build_trail(
        &mut self,
        o: ObjectId,
        proxy: NodeId,
        op: OpKind,
        ledger: LedgerKind,
    ) -> (Vec<TrailLevel>, f64) {
        // `overlay` is a shared borrow with the tracker's own lifetime;
        // copying the reference out of `self` lets station slices outlive
        // the `&mut self` calls below, so no per-level copy is needed.
        let overlay = self.overlay;
        let h = overlay.height();
        let mut cost = 0.0;
        let mut cur = proxy;
        let mut trail = Vec::with_capacity(h + 1);
        for level in 0..=h {
            let tl = self.new_level(proxy, level);
            for (j, &s) in tl.holders(overlay, level).iter().enumerate() {
                let d = overlay.hop_in(proxy, level, j);
                cost += d;
                self.hop(op, TracePhase::Climb, ledger, o, cur, s, level, d);
                cur = s;
                let (holder, lb_cost) = self.placement_traced(s, level, o, op, ledger);
                cost += lb_cost;
                self.load[holder.index()] += 1;
                if tl.guarded {
                    cost += self.install_sp(proxy, level, j, s, o, op, ledger);
                }
            }
            trail.push(tl);
        }
        (trail, cost)
    }

    /// The live node nearest to `u` (deterministic tie-break by id) —
    /// the handoff target when a proxy crashes ([`mot_net::nearest_where`],
    /// the rule the tree baselines share).
    fn nearest_live(&self, u: NodeId) -> Option<NodeId> {
        mot_net::nearest_where(self.oracle, u, |v| !self.down[v.index()])
    }

    /// The first crashed node on `DPath(v)`, if any — an operation
    /// climbing from `v` cannot get past it until the node reboots.
    fn path_blocked(&self, v: NodeId) -> Option<NodeId> {
        if self.down_count == 0 {
            return None;
        }
        (0..=self.overlay.height())
            .flat_map(|l| self.overlay.station(v, l).iter().copied())
            .find(|s| self.down[s.index()])
    }

    /// The first node on a recorded trail whose DL entry was lost to a
    /// crash (or that is itself still down), if any.
    fn damage_in(&self, rec: &ObjectRecord) -> Option<NodeId> {
        for (level, tl) in rec.trail.iter().enumerate() {
            for &hnode in tl.holders(self.overlay, level) {
                if self.down[hnode.index()] || rec.is_lost(level, hnode) {
                    return Some(hnode);
                }
            }
        }
        None
    }

    /// Tears down what is left of `o`'s trail and re-publishes it from
    /// `proxy` (the current proxy unless a crash handoff picked a new
    /// one), billing the climb to the repair account.
    fn repair_now(&mut self, o: ObjectId, new_proxy: Option<NodeId>) -> Result<f64> {
        let rec = self.records.get(&o).ok_or(CoreError::UnknownObject(o))?;
        let proxy = match new_proxy {
            Some(p) => p,
            None => {
                let p = rec.proxy();
                if self.down[p.index()] {
                    self.nearest_live(p).ok_or(CoreError::NodeDown(p))?
                } else {
                    p
                }
            }
        };
        if let Some(s) = self.path_blocked(proxy) {
            // A crashed hierarchy node sits on the re-publish path:
            // defer — the next operation after it reboots finishes.
            return Err(CoreError::NodeDown(s));
        }
        let rec = self.records.remove(&o).expect("checked above");
        // Scrub the surviving entries of the damaged trail. These are
        // local state drops (the dead node's entries are already gone);
        // the messages billed are the re-publish climb below.
        let overlay = self.overlay;
        for (level, tl) in rec.trail.iter().enumerate() {
            for &hnode in tl.holders(overlay, level) {
                if !rec.is_lost(level, hnode) {
                    self.release(self.holder_of(hnode, level, o));
                }
            }
            for e in tl.guards(overlay, level) {
                if !rec.is_lost(level, e.host) {
                    self.release(self.holder_of(e.host, overlay.sp_level(level), o));
                }
            }
        }
        let (trail, cost) = self.build_trail(o, proxy, OpKind::Repair, LedgerKind::Repair);
        self.records.insert(o, ObjectRecord::new(trail));
        self.repair_spent += cost;
        self.emit_op(OpKind::Repair, o, cost);
        Ok(cost)
    }

    /// Algorithm 1's maintenance operation on `o`'s record, already
    /// resolved by [`Tracker::move_object`]: insert up `DPath(to)` to the
    /// meet, delete the stale trail below it, splice.
    fn move_record(
        &mut self,
        rec: &mut ObjectRecord,
        o: ObjectId,
        to: NodeId,
    ) -> Result<MoveOutcome> {
        let from = rec.proxy();
        if from == to {
            self.emit_op(OpKind::Move, o, 0.0);
            return Ok(MoveOutcome {
                from,
                cost: 0.0,
                climb: 0.0,
            });
        }
        let op = OpKind::Move;
        let ledger = LedgerKind::Maintenance;
        // Copy the overlay reference out of `self` (see `build_trail`):
        // station slices then borrow the overlay, not the tracker, so the
        // per-level `.to_vec()` copies this loop used to make are gone.
        let overlay = self.overlay;
        let h = overlay.height();
        let mut cost = 0.0;
        let mut climb = 0.0;
        let mut cur = to;

        // ---- insert: climb DPath(to) until a node already holds o ------
        // Level 0: the new proxy takes the object.
        let mut new_levels = std::mem::take(&mut self.frag_buf);
        debug_assert!(new_levels.is_empty());
        {
            let (holder, lb_cost) = self.placement_traced(to, 0, o, op, ledger);
            cost += lb_cost;
            self.load[holder.index()] += 1;
            let tl = self.new_level(to, 0);
            if tl.guarded {
                cost += self.install_sp(to, 0, 0, to, o, op, ledger);
            }
            new_levels.push(tl);
        }
        let mut meet: Option<(usize, NodeId)> = None;
        'climb: for level in 1..=h {
            let tl = self.new_level(to, level);
            let station = tl.holders(overlay, level);
            for (j, &s) in station.iter().enumerate() {
                let d = overlay.hop_in(to, level, j);
                cost += d;
                climb += d;
                self.hop(op, TracePhase::Climb, ledger, o, cur, s, level, d);
                cur = s;
                // Probing the DL costs a de Bruijn round within the
                // cluster in load-balanced mode.
                let (holder, lb_cost) = self.placement_traced(s, level, o, op, ledger);
                cost += lb_cost;
                if rec.holds(overlay, s, level) {
                    // Found the lowest ancestor already holding o: the
                    // insert stops here (Algorithm 1, line 9). Additions
                    // made at the meet level before the holder was found
                    // are rolled back with a reverse walk, so every trail
                    // level remains the complete parent set of a single
                    // origin — the invariant that keeps the distributed
                    // (message-passing) rendering's routing state exact.
                    let mut back = s;
                    for ri in (0..j).rev() {
                        let rs = station[ri];
                        let d = overlay.hop_back(to, level, ri + 1);
                        cost += d;
                        self.hop(op, TracePhase::Rollback, ledger, o, back, rs, level, d);
                        back = rs;
                        let (h2, lb2) = self.placement_traced(rs, level, o, op, ledger);
                        cost += lb2;
                        self.release(h2);
                        if tl.guarded {
                            let e = SpEntry {
                                host: overlay.sp_host(to, level, ri),
                                child: rs,
                            };
                            cost += self.remove_sp(e, true, level, o, op, ledger);
                        }
                    }
                    meet = Some((level, s));
                    break 'climb;
                }
                self.load[holder.index()] += 1;
                if tl.guarded {
                    cost += self.install_sp(to, level, j, s, o, op, ledger);
                }
            }
            new_levels.push(tl);
        }
        let (meet_level, meet_node) = meet.expect("the root always holds every published object");

        // ---- delete: walk the stale trail below the meet downward ------
        let mut dcur = meet_node;
        for level in (0..meet_level).rev() {
            let tl = rec.trail[level];
            for (i, &hnode) in tl.holders(overlay, level).iter().enumerate() {
                // Only the hop down from the level above can join two
                // different detection paths; the rest — and that one
                // too when `dcur` is on this level's own path — are
                // constants of the path this level was climbed on.
                let d = if i > 0 {
                    overlay.hop_in(tl.origin, level, i)
                } else {
                    match overlay.drop_hop(tl.origin, level, dcur) {
                        Some(drop) => drop.first,
                        None => self.oracle.dist(dcur, hnode),
                    }
                };
                cost += d;
                self.hop(op, TracePhase::Prune, ledger, o, dcur, hnode, level, d);
                dcur = hnode;
                let (holder, lb_cost) = self.placement_traced(hnode, level, o, op, ledger);
                cost += lb_cost;
                if !rec.is_lost(level, hnode) {
                    self.release(holder);
                }
            }
            for e in tl.guards(overlay, level) {
                let live = !rec.is_lost(level, e.host);
                cost += self.remove_sp(e, live, level, o, op, ledger);
            }
        }

        // ---- splice the new fragment under the old upper trail ---------
        debug_assert_eq!(new_levels.len(), meet_level);
        rec.trail[..meet_level].copy_from_slice(&new_levels);
        rec.clear_lost_below(meet_level);
        new_levels.clear();
        self.frag_buf = new_levels;
        self.emit_op(OpKind::Move, o, cost);
        Ok(MoveOutcome { from, cost, climb })
    }

    /// Each node's count of the live entries the trails list as charged
    /// to it — what its load must read.
    fn charged_loads(&self) -> Vec<usize> {
        let overlay = self.overlay;
        let mut charged = vec![0usize; self.load.len()];
        for (&o, rec) in &self.records {
            for (level, tl) in rec.trail.iter().enumerate() {
                for &hnode in tl.holders(overlay, level) {
                    if !rec.is_lost(level, hnode) {
                        charged[self.holder_of(hnode, level, o).index()] += 1;
                    }
                }
                for e in tl.guards(overlay, level) {
                    if !rec.is_lost(level, e.host) {
                        let holder = self.holder_of(e.host, overlay.sp_level(level), o);
                        charged[holder.index()] += 1;
                    }
                }
            }
        }
        charged
    }

    /// Verifies the structural invariants of every object record; used by
    /// tests and exposed for the simulator's sanity sweeps. Panics with a
    /// description on violation.
    pub fn check_invariants(&self) {
        let overlay = self.overlay;
        let h = overlay.height();
        for (&o, rec) in &self.records {
            assert_eq!(rec.trail.len(), h + 1, "{o:?}: trail height mismatch");
            assert_eq!(
                rec.trail[0].holders(overlay, 0),
                [rec.proxy()],
                "{o:?}: the proxy level must be the proxy alone"
            );
            for (level, tl) in rec.trail.iter().enumerate() {
                let holders = tl.holders(overlay, level);
                // Only a crash handoff leaves a level unguarded that
                // special parents would guard: the bottom one.
                assert!(
                    tl.guarded == self.new_level(tl.origin, level).guarded
                        || (level == 0 && !tl.guarded),
                    "{o:?}: level {level} guarded {}",
                    tl.guarded
                );
                for &hnode in holders {
                    assert!(
                        !rec.is_lost(level, hnode),
                        "{o:?}: trail holder {hnode} lost its level-{level} DL entry"
                    );
                }
                // Every junction from the level above that the overlay
                // answers must read what the oracle would have said.
                let above = rec
                    .trail
                    .get(level + 1)
                    .map_or(&[][..], |up| up.holders(overlay, level + 1));
                for &from in above {
                    let Some(drop) = overlay.drop_hop(tl.origin, level, from) else {
                        continue;
                    };
                    let dist = |to: NodeId| self.oracle.dist(from, to).to_bits();
                    let nearest = holders[drop.nearest];
                    assert_eq!(
                        (drop.first.to_bits(), drop.nearest_dist.to_bits()),
                        (dist(holders[0]), dist(nearest)),
                        "{o:?}: stored drop {from} -> level {level} of {} differs from the oracle",
                        tl.origin
                    );
                    let closer = |&to: &NodeId| {
                        let d = self.oracle.dist(from, to);
                        d < drop.nearest_dist || (d == drop.nearest_dist && to < nearest)
                    };
                    assert!(
                        !holders.iter().any(closer),
                        "{o:?}: {nearest} is not the holder nearest {from} at level {level}"
                    );
                }
            }
            let root = overlay.root();
            assert!(
                rec.trail[h].holders(overlay, h).contains(&root),
                "{o:?}: root dropped from the trail"
            );
        }
        // A crash releases the entries of the node that stored them, which
        // under load balancing is not the node they are charged to.
        if self.clusters.is_none() || !self.ever_crashed {
            assert_eq!(
                self.load,
                self.charged_loads(),
                "node loads differ from the live entries the trails list"
            );
        }
    }
}

impl Tracker for MotTracker<'_> {
    fn name(&self) -> String {
        match (self.cfg.load_balance, self.cfg.use_special_parents) {
            (true, _) => "MOT+LB".to_string(),
            (false, true) => "MOT".to_string(),
            (false, false) => "MOT-noSP".to_string(),
        }
    }

    fn publish(&mut self, o: ObjectId, proxy: NodeId) -> Result<f64> {
        self.check_node(proxy)?;
        if self.records.contains_key(&o) {
            return Err(CoreError::AlreadyPublished(o));
        }
        if let Some(s) = self.path_blocked(proxy) {
            return Err(CoreError::NodeDown(s));
        }
        let (trail, cost) = self.build_trail(o, proxy, OpKind::Publish, LedgerKind::Publish);
        self.records.insert(o, ObjectRecord::new(trail));
        self.emit_op(OpKind::Publish, o, cost);
        Ok(cost)
    }

    fn move_object(&mut self, o: ObjectId, to: NodeId) -> Result<MoveOutcome> {
        self.check_node(to)?;
        if self.ever_crashed {
            if !self.records.contains_key(&o) {
                return Err(CoreError::UnknownObject(o));
            }
            // No node is down unless one crashed, so only this arm asks.
            if let Some(s) = self.path_blocked(to) {
                return Err(CoreError::NodeDown(s));
            }
            // Self-repair: a move touching a crash-damaged trail first
            // re-publishes the pointer path, then proceeds normally.
            self.repair_object(o)?;
        }
        // The record is looked up once and edited in place. The table
        // steps out of `self` meanwhile, because the climb below borrows
        // the whole tracker mutably (loads, fragment buffer) and never reads
        // `records`; moving an `IdMap` is four words and no allocation.
        let mut records = std::mem::take(&mut self.records);
        let out = match records.get_mut(&o) {
            Some(rec) => self.move_record(rec, o, to),
            None => Err(CoreError::UnknownObject(o)),
        };
        self.records = records;
        out
    }

    fn query(&self, from: NodeId, o: ObjectId) -> Result<QueryResult> {
        self.check_node(from)?;
        let rec = self.records.get(&o).ok_or(CoreError::UnknownObject(o))?;
        if self.ever_crashed {
            // A read-only query cannot repair; surface the dead node so
            // a mutable caller can run `repair_object` and retry.
            if let Some(s) = self.damage_in(rec) {
                return Err(CoreError::NodeDown(s));
            }
            if let Some(s) = self.path_blocked(from) {
                return Err(CoreError::NodeDown(s));
            }
        }
        let proxy = rec.proxy();
        let op = OpKind::Query;
        let ledger = LedgerKind::Query;
        let h = self.overlay.height();
        let mut cost = 0.0;
        let mut cur = from;
        let prober = rec.prober(self.overlay);
        for level in 0..=h {
            for (j, &s) in self.overlay.station(from, level).iter().enumerate() {
                let d = self.overlay.hop_in(from, level, j);
                cost += d;
                self.hop(op, TracePhase::Climb, ledger, o, cur, s, level, d);
                cur = s;
                // DL probe (pays the intra-cluster route when balanced).
                // A physical node knows the DL of every role it plays, so
                // the probe may hit any level; descending from the lowest
                // is cheapest.
                let (_, lb_cost) = self.placement_traced(s, level, o, op, ledger);
                cost += lb_cost;
                match prober.probe(s) {
                    Some(Probe::Dl(found_level)) => {
                        cost += self.descend(rec, o, s, found_level, Some((op, ledger)));
                    }
                    Some(Probe::Sdl(guarded_level, child)) => {
                        // Jump to the special child, then follow its DL
                        // trail down (Algorithm 1, line 24).
                        let jump = self.oracle.dist(s, child);
                        cost += jump;
                        self.hop(op, TracePhase::SdlJump, ledger, o, s, child, level, jump);
                        cost += self.descend(rec, o, child, guarded_level, Some((op, ledger)));
                    }
                    None => continue,
                }
                self.emit_op(op, o, cost);
                return Ok(QueryResult { proxy, cost });
            }
        }
        unreachable!("the root station always resolves a published object")
    }

    fn proxy_of(&self, o: ObjectId) -> Option<NodeId> {
        self.records.get(&o).map(|r| r.proxy())
    }

    fn node_loads(&self) -> Vec<usize> {
        self.load.clone()
    }

    fn crash_node(&mut self, u: NodeId) {
        if u.index() >= self.overlay.node_count() || self.down[u.index()] {
            return;
        }
        self.down[u.index()] = true;
        self.down_count += 1;
        self.ever_crashed = true;
        // Every entry stored at `u` is lost. Load accounting assumes
        // entries are charged to the node that stores them (plain mode);
        // the fault model does not compose with load-balanced placement,
        // whose entries live on hashed cluster members.
        //
        // Graceful degradation: objects proxied at the crashed sensor
        // are re-detected by the nearest live sensor, which takes over
        // as proxy immediately (one handoff hop, billed as repair). The
        // rest of the pointer path is re-published lazily by the next
        // operation that notices the damage.
        let overlay = self.overlay;
        let mut wiped = 0;
        let mut orphaned = Vec::new();
        for (&o, rec) in &mut self.records {
            wiped += rec.mark_lost(overlay, u);
            if rec.proxy() == u {
                orphaned.push(o);
            }
        }
        self.load[u.index()] = self.load[u.index()].saturating_sub(wiped);
        orphaned.sort();
        if orphaned.is_empty() {
            return;
        }
        let Some(next) = self.nearest_live(u) else {
            return;
        };
        let d = self.oracle.dist(u, next);
        for o in orphaned {
            self.repair_spent += d;
            self.hop(
                OpKind::Repair,
                TracePhase::Handoff,
                LedgerKind::Repair,
                o,
                u,
                next,
                0,
                d,
            );
            self.emit_op(OpKind::Repair, o, d);
            // The proxy level is never balanced: `next` stores its entry.
            self.load[next.index()] += 1;
            // Old guards point at the dead proxy; drop them locally.
            let bottom = self.records[&o].trail[0];
            for e in bottom.guards(overlay, 0) {
                if !self.records[&o].is_lost(0, e.host) {
                    self.release(self.holder_of(e.host, overlay.sp_level(0), o));
                }
            }
            let rec = self
                .records
                .get_mut(&o)
                .expect("orphan ids come from records");
            rec.trail[0] = TrailLevel {
                origin: next,
                guarded: false,
            };
            rec.clear_lost_below(1);
        }
    }

    fn recover_node(&mut self, u: NodeId) {
        if u.index() < self.overlay.node_count() && self.down[u.index()] {
            self.down[u.index()] = false;
            self.down_count -= 1;
        }
    }

    fn repair_object(&mut self, o: ObjectId) -> Result<f64> {
        if !self.ever_crashed {
            return Ok(0.0);
        }
        let damaged = {
            let rec = self.records.get(&o).ok_or(CoreError::UnknownObject(o))?;
            self.damage_in(rec).is_some()
        };
        if !damaged {
            return Ok(0.0);
        }
        self.repair_now(o, None)
    }

    fn repair_cost(&self) -> f64 {
        self.repair_spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_hierarchy::{build_doubling, OverlayConfig};
    use mot_net::DenseOracle;
    use mot_net::{generators, Graph};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    struct Fixture {
        g: Graph,
        m: DenseOracle,
        overlay: Overlay,
    }

    fn fixture(rows: usize, cols: usize) -> Fixture {
        let g = generators::grid(rows, cols).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 11);
        Fixture { g, m, overlay }
    }

    #[test]
    fn publish_then_query_from_everywhere() {
        let f = fixture(6, 6);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let o = ObjectId(0);
        let proxy = NodeId(14);
        let cost = t.publish(o, proxy).unwrap();
        assert!(cost > 0.0);
        t.check_invariants();
        for x in f.g.nodes() {
            let r = t.query(x, o).unwrap();
            assert_eq!(r.proxy, proxy, "query from {x}");
            assert!(r.cost.is_finite() && r.cost >= 0.0);
        }
        // querying from the proxy itself is free
        assert_eq!(t.query(proxy, o).unwrap().cost, 0.0);
    }

    #[test]
    fn publish_twice_is_an_error() {
        let f = fixture(3, 3);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        t.publish(ObjectId(0), NodeId(0)).unwrap();
        assert_eq!(
            t.publish(ObjectId(0), NodeId(1)),
            Err(CoreError::AlreadyPublished(ObjectId(0)))
        );
    }

    #[test]
    fn unknown_object_and_node_errors() {
        let f = fixture(3, 3);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        assert_eq!(
            t.query(NodeId(0), ObjectId(5)),
            Err(CoreError::UnknownObject(ObjectId(5)))
        );
        assert_eq!(
            t.move_object(ObjectId(5), NodeId(0)),
            Err(CoreError::UnknownObject(ObjectId(5)))
        );
        assert_eq!(
            t.publish(ObjectId(0), NodeId(99)),
            Err(CoreError::UnknownNode(NodeId(99)))
        );
    }

    #[test]
    fn move_updates_proxy_and_preserves_queries() {
        let f = fixture(6, 6);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let o = ObjectId(3);
        t.publish(o, NodeId(0)).unwrap();
        let mv = t.move_object(o, NodeId(7)).unwrap();
        assert_eq!(mv.from, NodeId(0));
        assert!(mv.cost > 0.0);
        assert_eq!(t.proxy_of(o), Some(NodeId(7)));
        t.check_invariants();
        for x in f.g.nodes() {
            assert_eq!(t.query(x, o).unwrap().proxy, NodeId(7));
        }
    }

    #[test]
    fn move_to_same_proxy_is_free() {
        let f = fixture(4, 4);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        t.publish(ObjectId(0), NodeId(5)).unwrap();
        let mv = t.move_object(ObjectId(0), NodeId(5)).unwrap();
        assert_eq!(mv.cost, 0.0);
        assert_eq!(mv.from, NodeId(5));
    }

    #[test]
    fn random_walk_keeps_invariants_and_query_correctness() {
        let f = fixture(8, 8);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let objects: Vec<ObjectId> = (0..5).map(ObjectId).collect();
        let mut proxies = Vec::new();
        for &o in &objects {
            let p = NodeId(rng.gen_range(0..64));
            t.publish(o, p).unwrap();
            proxies.push(p);
        }
        for step in 0..300 {
            let i = rng.gen_range(0..objects.len());
            let cur = proxies[i];
            let nbrs = f.g.neighbors(cur);
            let next = nbrs[rng.gen_range(0..nbrs.len())];
            let mv = t.move_object(objects[i], next).unwrap();
            assert_eq!(mv.from, cur, "step {step}");
            proxies[i] = next;
            if step % 37 == 0 {
                t.check_invariants();
                let from = NodeId(rng.gen_range(0..64));
                let q = t.query(from, objects[i]).unwrap();
                assert_eq!(q.proxy, next);
            }
        }
        t.check_invariants();
        // all queries resolve to true proxies
        for (i, &o) in objects.iter().enumerate() {
            for x in f.g.nodes() {
                assert_eq!(t.query(x, o).unwrap().proxy, proxies[i]);
            }
        }
    }

    #[test]
    fn crash_walk_keeps_loads_equal_to_the_live_trail_entries() {
        // Crashes, recoveries, moves, queries and repairs in a seeded
        // mix: at every step each node's load is exactly the number of
        // live entries the trails list at it — lost ones release nothing
        // when a prune, scrub or handoff later removes them.
        let f = fixture(8, 8);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let objects: Vec<ObjectId> = (0..24).map(ObjectId).collect();
        for &o in &objects {
            t.publish(o, NodeId(rng.gen_range(0..64))).unwrap();
        }
        let (mut down, mut moved_past_lost, mut answered) = (Vec::new(), 0, 0);
        for step in 0..1500 {
            let o = objects[rng.gen_range(0..objects.len())];
            match rng.gen_range(0..10) {
                0 if down.len() < 2 => {
                    let v = NodeId(rng.gen_range(0..64));
                    t.crash_node(v);
                    down.push(v);
                }
                1 if !down.is_empty() => t.recover_node(down.swap_remove(0)),
                2 => {
                    let _ = t.repair_object(o);
                }
                3..=5 => match t.query(NodeId(rng.gen_range(0..64)), o) {
                    Ok(q) => {
                        assert_eq!(Some(q.proxy), t.proxy_of(o), "step {step}");
                        answered += 1;
                    }
                    Err(e) => assert!(matches!(e, CoreError::NodeDown(_)), "{e:?}"),
                },
                _ => {
                    let rec = &t.records[&o];
                    let lost_guard = rec.trail.iter().enumerate().any(|(level, tl)| {
                        tl.guards(&f.overlay, level)
                            .any(|e| rec.is_lost(level, e.host))
                    });
                    let nbrs = f.g.neighbors(t.proxy_of(o).unwrap());
                    let to = nbrs[rng.gen_range(0..nbrs.len())];
                    if t.move_object(o, to).is_ok() && lost_guard {
                        moved_past_lost += 1;
                    }
                }
            }
            assert_eq!(t.node_loads(), t.charged_loads(), "step {step}");
        }
        for v in down {
            t.recover_node(v);
        }
        for &o in &objects {
            t.repair_object(o).unwrap();
        }
        t.check_invariants();
        assert!(answered > 200, "only {answered} queries answered");
        assert!(
            moved_past_lost > 10,
            "only {moved_past_lost} moves ran on a trail with a lost guard"
        );
    }

    #[test]
    fn a_recovered_holder_keeps_failing_queries_until_the_object_is_repaired() {
        let f = fixture(8, 8);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let o = ObjectId(0);
        t.publish(o, NodeId(9)).unwrap();
        let u = (0..64)
            .map(NodeId::from_index)
            .find(|&v| v != NodeId(9) && (1..=f.overlay.height()).any(|l| t.holds(v, l, o)))
            .expect("a published trail has internal holders");
        let load = t.node_loads()[u.index()];
        t.crash_node(u);
        assert_eq!(
            t.node_loads()[u.index()],
            0,
            "the crash wiped {load} entries"
        );
        t.recover_node(u);
        // Recovery brings the sensor back, not what it stored: every read
        // names it, and reads repair nothing.
        for from in [NodeId(0), NodeId(63), u, NodeId(9)] {
            assert_eq!(t.query(from, o), Err(CoreError::NodeDown(u)), "from {from}");
        }
        assert!((1..=f.overlay.height()).all(|l| !t.holds(u, l, o)));
        assert!(t.repair_object(o).unwrap() > 0.0);
        assert_eq!(t.query(NodeId(63), o).unwrap().proxy, NodeId(9));
        t.check_invariants();
    }

    #[test]
    fn a_guard_lost_at_a_crashed_host_is_never_used_by_a_query() {
        use crate::trace::MemorySink;
        let f = fixture(8, 8);
        let sink = MemorySink::new();
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain()).with_sink(&sink);
        let o = ObjectId(0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut proxy = NodeId(27);
        t.publish(o, proxy).unwrap();
        // Walk until some host guards `o` but holds no DL entry for it:
        // its crash damages no holder, so queries still run on the trail.
        let guard_only = |t: &MotTracker| {
            (0..64).map(NodeId::from_index).find(|&v| {
                t.guard(v, o).is_some() && (0..=f.overlay.height()).all(|l| !t.holds(v, l, o))
            })
        };
        let mut host = None;
        for _ in 0..500 {
            let nbrs = f.g.neighbors(proxy);
            proxy = nbrs[rng.gen_range(0..nbrs.len())];
            t.move_object(o, proxy).unwrap();
            host = guard_only(&t);
            if host.is_some() {
                break;
            }
        }
        let host = host.expect("a fragmented trail has a guard-only host");
        let jumps_from = |sink: &MemorySink| {
            sink.events()
                .iter()
                .filter(|e| e.phase == TracePhase::SdlJump && e.src == host)
                .count()
        };
        t.query(host, o).unwrap();
        assert_eq!(jumps_from(&sink), 1, "the live guard answers at its host");
        t.crash_node(host);
        t.recover_node(host);
        assert_eq!(t.guard(host, o), None);
        for from in f.g.nodes() {
            assert_eq!(t.query(from, o).unwrap().proxy, proxy, "from {from}");
        }
        assert_eq!(jumps_from(&sink), 1, "a lost guard was used");
    }

    #[test]
    fn adjacent_move_is_cheap_fig1_style() {
        // An object hopping one grid edge should cost far less than a
        // publish: the insert meets the old trail at a low level.
        let f = fixture(8, 8);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let o = ObjectId(0);
        t.publish(o, NodeId(27)).unwrap();
        let mv = t.move_object(o, NodeId(28)).unwrap();
        let diameter = f.m.diameter();
        assert!(
            mv.cost < 2.0 * diameter,
            "adjacent move cost {} should not dwarf the diameter {diameter}",
            mv.cost
        );
    }

    #[test]
    fn query_cost_scales_with_distance() {
        // Fresh publish: a query from distance d costs O(d) (Thm 4.11).
        let f = fixture(8, 8);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let o = ObjectId(0);
        let proxy = NodeId(0);
        t.publish(o, proxy).unwrap();
        for x in [NodeId(1), NodeId(9), NodeId(63)] {
            let q = t.query(x, o).unwrap();
            let d = f.m.dist(x, proxy);
            assert!(
                q.cost <= 40.0 * d.max(1.0),
                "query from {x}: cost {} vs distance {d}",
                q.cost
            );
        }
    }

    #[test]
    fn special_parents_bound_fragmented_query_cost() {
        // Recreate Fig. 2: drag the object through many distinct proxies
        // so the trail fragments, then compare nearby-query costs with
        // and without special parents. SP must never lose, and the
        // scenario must stay correct in both modes.
        let f = fixture(8, 8);
        let mut with_sp = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let mut without = MotTracker::new(&f.overlay, &f.m, MotConfig::no_special_parents());
        let o = ObjectId(0);
        for t in [&mut with_sp, &mut without] {
            t.publish(o, NodeId(63)).unwrap();
        }
        let tour = [56, 7, 62, 1, 57, 6, 58, 5, 59, 4]; // zig-zag fragmentation
        for &p in &tour {
            with_sp.move_object(o, NodeId(p)).unwrap();
            without.move_object(o, NodeId(p)).unwrap();
        }
        let proxy = NodeId(*tour.last().unwrap());
        let neighbor = NodeId(3); // adjacent to final proxy 4
        let qs = with_sp.query(neighbor, o).unwrap();
        let qn = without.query(neighbor, o).unwrap();
        assert_eq!(qs.proxy, proxy);
        assert_eq!(qn.proxy, proxy);
        assert!(
            qs.cost <= qn.cost + 1e-9,
            "SP query {} > no-SP {}",
            qs.cost,
            qn.cost
        );
    }

    #[test]
    fn load_balanced_mode_reduces_max_load() {
        let f = fixture(8, 8);
        let mut plain = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let mut lb = MotTracker::new(&f.overlay, &f.m, MotConfig::load_balanced());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for k in 0..40 {
            let p = NodeId(rng.gen_range(0..64));
            plain.publish(ObjectId(k), p).unwrap();
            lb.publish(ObjectId(k), p).unwrap();
        }
        let max_plain = *plain.node_loads().iter().max().unwrap();
        let max_lb = *lb.node_loads().iter().max().unwrap();
        assert!(
            max_lb < max_plain,
            "LB max load {max_lb} not below plain {max_plain}"
        );
        // total entries conserved between modes
        assert_eq!(
            plain.node_loads().iter().sum::<usize>(),
            lb.node_loads().iter().sum::<usize>()
        );
    }

    #[test]
    fn load_balanced_queries_remain_correct() {
        let f = fixture(6, 6);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::load_balanced());
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        t.publish(ObjectId(0), NodeId(0)).unwrap();
        let mut proxy = NodeId(0);
        for _ in 0..60 {
            let nbrs = f.g.neighbors(proxy);
            proxy = nbrs[rng.gen_range(0..nbrs.len())];
            t.move_object(ObjectId(0), proxy).unwrap();
        }
        for x in f.g.nodes() {
            let q = t.query(x, ObjectId(0)).unwrap();
            assert_eq!(q.proxy, proxy);
        }
        // LB probing costs are included, so queries cost at least as much
        // as the plain-mode distance floor of zero.
        assert!(t.query(proxy, ObjectId(0)).unwrap().cost >= 0.0);
    }

    #[test]
    fn crashed_proxy_hands_object_to_live_neighbor() {
        let f = fixture(6, 6);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let o = ObjectId(0);
        t.publish(o, NodeId(14)).unwrap();
        t.crash_node(NodeId(14));
        let new_proxy = t.proxy_of(o).unwrap();
        assert_ne!(new_proxy, NodeId(14), "object handed off the dead proxy");
        assert_eq!(
            f.m.dist(NodeId(14), new_proxy),
            1.0,
            "handoff goes to the nearest live sensor"
        );
        assert!(t.repair_cost() > 0.0, "the handoff hop is billed as repair");
        t.recover_node(NodeId(14));
        // the next touch finishes the repair; queries then resolve to
        // the handoff proxy from everywhere
        t.repair_object(o).unwrap();
        for x in f.g.nodes() {
            assert_eq!(t.query(x, o).unwrap().proxy, new_proxy);
        }
        t.check_invariants();
    }

    #[test]
    fn crash_handoff_search_costs_a_neighbourhood_not_the_network() {
        // 32×32 sensors on the on-demand backend: the handoff target must
        // be the dense answer, found with a handful of bounded solves —
        // not the ≈2n distance reads a scan over every live node costs.
        let g = generators::grid(32, 32).unwrap();
        let dense = DenseOracle::build(&g).unwrap();
        let cached = mot_net::CachedOracle::new(&g).unwrap();
        let overlay = build_doubling(&g, &dense, &OverlayConfig::practical(), 11);
        let mut on_dense = MotTracker::new(&overlay, &dense, MotConfig::plain());
        let mut on_cached = MotTracker::new(&overlay, &cached, MotConfig::plain());
        let centre = NodeId(16 * 32 + 16);
        // Its four neighbours crash first, so the search has to grow.
        let ring = [centre.0 - 32, centre.0 - 1, centre.0 + 1, centre.0 + 32];
        for t in [&mut on_dense, &mut on_cached] {
            t.publish(ObjectId(0), centre).unwrap();
            t.publish(ObjectId(1), centre).unwrap();
            for v in ring {
                t.crash_node(NodeId(v));
            }
        }
        let before = cached.solves();
        on_dense.crash_node(centre);
        on_cached.crash_node(centre);
        let target = on_dense.proxy_of(ObjectId(0)).unwrap();
        assert_eq!(dense.dist(centre, target), 2.0);
        assert_eq!(
            target,
            NodeId(centre.0 - 64),
            "ties break towards the smallest id"
        );
        for o in [ObjectId(0), ObjectId(1)] {
            assert_eq!(on_cached.proxy_of(o), Some(target), "{o:?}");
        }
        assert_eq!(on_dense.repair_cost(), on_cached.repair_cost());
        let solves = cached.solves() - before;
        assert!(solves <= 8, "handoff search cost {solves} solves");
    }

    #[test]
    fn crash_mid_trail_query_surfaces_node_down_then_repairs() {
        let f = fixture(8, 8);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let o = ObjectId(0);
        t.publish(o, NodeId(0)).unwrap();
        // crash an internal (non-proxy) holder on the trail
        let victim = (0..64)
            .map(NodeId::from_index)
            .find(|&v| v != NodeId(0) && (1..=f.overlay.height()).any(|l| t.holds(v, l, o)))
            .expect("a published trail has internal holders");
        t.crash_node(victim);
        t.recover_node(victim);
        let err = t.query(NodeId(63), o).unwrap_err();
        assert!(matches!(err, CoreError::NodeDown(_)), "got {err:?}");
        let c = t.repair_object(o).unwrap();
        assert!(c > 0.0, "repair re-publishes the path");
        assert!(t.repair_cost() >= c);
        assert_eq!(t.query(NodeId(63), o).unwrap().proxy, NodeId(0));
        assert_eq!(t.repair_object(o).unwrap(), 0.0, "repair is idempotent");
        t.check_invariants();
    }

    #[test]
    fn move_self_repairs_after_proxy_crash() {
        let f = fixture(6, 6);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let o = ObjectId(0);
        t.publish(o, NodeId(14)).unwrap();
        t.crash_node(NodeId(14));
        t.recover_node(NodeId(14));
        let handoff = t.proxy_of(o).unwrap();
        let mv = t.move_object(o, NodeId(21)).unwrap();
        assert_eq!(mv.from, handoff, "move starts from the handoff proxy");
        assert_eq!(t.proxy_of(o), Some(NodeId(21)));
        for x in f.g.nodes() {
            assert_eq!(t.query(x, o).unwrap().proxy, NodeId(21));
        }
        t.check_invariants();
    }

    #[test]
    fn operations_refuse_paths_through_down_nodes() {
        let f = fixture(6, 6);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        t.crash_node(NodeId(14));
        assert_eq!(
            t.publish(ObjectId(0), NodeId(14)),
            Err(CoreError::NodeDown(NodeId(14)))
        );
        t.recover_node(NodeId(14));
        t.publish(ObjectId(0), NodeId(14)).unwrap();
    }

    #[test]
    fn trace_event_distances_sum_to_op_costs() {
        use crate::trace::MemorySink;
        // Every completed operation's event distances must sum exactly
        // (same accumulation order) to the cost the tracker returned.
        for cfg in [
            MotConfig::plain(),
            MotConfig::no_special_parents(),
            MotConfig::load_balanced(),
        ] {
            let f = fixture(6, 6);
            let sink = MemorySink::new();
            let mut t = MotTracker::new(&f.overlay, &f.m, cfg).with_sink(&sink);
            let o = ObjectId(0);
            let pc = t.publish(o, NodeId(14)).unwrap();
            let mv = t.move_object(o, NodeId(21)).unwrap();
            let q = t.query(NodeId(0), o).unwrap();
            let ops = sink.ops();
            assert_eq!(
                ops.iter().map(|(k, _, _)| *k).collect::<Vec<_>>(),
                vec![OpKind::Publish, OpKind::Move, OpKind::Query]
            );
            assert_eq!(ops[0].2, pc);
            assert_eq!(ops[1].2, mv.cost);
            assert_eq!(ops[2].2, q.cost);
            // event-by-event: group by op position and re-sum
            let evs = sink.events();
            let publish_sum: f64 = evs
                .iter()
                .filter(|e| e.op == OpKind::Publish)
                .map(|e| e.distance)
                .sum();
            let move_sum: f64 = evs
                .iter()
                .filter(|e| e.op == OpKind::Move)
                .map(|e| e.distance)
                .sum();
            let query_sum: f64 = evs
                .iter()
                .filter(|e| e.op == OpKind::Query)
                .map(|e| e.distance)
                .sum();
            assert!((publish_sum - pc).abs() < 1e-9);
            assert!((move_sum - mv.cost).abs() < 1e-9);
            assert!((query_sum - q.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn downward_hops_bill_the_oracles_bits_on_weighted_graphs() {
        use crate::trace::MemorySink;
        // Prune, descend and rollback hops come from the overlay's table
        // wherever it has them. On Euclidean weights a stored length that
        // was summed from the wrong end, or a nearest holder picked by
        // anything but (distance, id), would show here as a differing bit.
        for (cfg, seed) in [
            (OverlayConfig::practical(), 5),
            (OverlayConfig::paper_exact(), 6),
        ] {
            let g = generators::random_geometric(150, 12.0, 2.5, seed).unwrap();
            let m = DenseOracle::build(&g).unwrap();
            let overlay = build_doubling(&g, &m, &cfg, seed);
            let sink = MemorySink::new();
            let mut t = MotTracker::new(&overlay, &m, MotConfig::plain()).with_sink(&sink);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = g.node_count() as u32;
            let mut proxies: Vec<NodeId> = (0..6).map(|_| NodeId(rng.gen_range(0..n))).collect();
            for (i, &p) in proxies.iter().enumerate() {
                t.publish(ObjectId(i as u32), p).unwrap();
            }
            let (mut seen, mut from_table) = (0, [0usize; 2]);
            let mut counts = std::collections::HashMap::new();
            for step in 0..600 {
                let i = rng.gen_range(0..proxies.len());
                let o = ObjectId(i as u32);
                if step % 3 == 2 {
                    t.query(NodeId(rng.gen_range(0..n)), o).unwrap();
                } else {
                    let nbrs = g.neighbors(proxies[i]);
                    proxies[i] = nbrs[rng.gen_range(0..nbrs.len())];
                    t.move_object(o, proxies[i]).unwrap();
                }
                let events = sink.events();
                for e in &events[seen..] {
                    let downward = matches!(
                        e.phase,
                        TracePhase::Prune | TracePhase::Descend | TracePhase::Rollback
                    );
                    if !downward {
                        continue;
                    }
                    *counts.entry(e.phase).or_insert(0usize) += 1;
                    assert_eq!(
                        e.distance.to_bits(),
                        m.dist(e.src, e.dst).to_bits(),
                        "step {step}: {e:?}"
                    );
                    if e.phase == TracePhase::Descend {
                        // A query leaves the trail as it found it.
                        let tl = t.records[&o].trail[e.level as usize];
                        let nearest = tl
                            .holders(&overlay, e.level as usize)
                            .iter()
                            .map(|&hnode| (m.dist(e.src, hnode), hnode))
                            .min_by(|a, b| a.partial_cmp(b).unwrap());
                        assert_eq!(nearest, Some((e.distance, e.dst)), "step {step}: {e:?}");
                        let stored = overlay.drop_hop(tl.origin, e.level as usize, e.src);
                        from_table[usize::from(stored.is_some())] += 1;
                    }
                }
                seen = events.len();
            }
            for phase in [TracePhase::Prune, TracePhase::Descend, TracePhase::Rollback] {
                assert!(counts.get(&phase).is_some_and(|&c| c > 20), "{counts:?}");
            }
            // Both arms of `descend` ran: junctions on the target's own
            // path, and junctions between two origins' paths.
            assert!(
                from_table[0] > 0 && from_table[1] > from_table[0],
                "{from_table:?}"
            );
            t.check_invariants();
        }
    }

    #[test]
    fn tracing_disabled_is_bit_identical() {
        use crate::trace::MemorySink;
        let f = fixture(6, 6);
        let sink = MemorySink::new();
        let mut traced = MotTracker::new(&f.overlay, &f.m, MotConfig::plain()).with_sink(&sink);
        let mut silent = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let o = ObjectId(0);
        assert_eq!(
            traced.publish(o, NodeId(3)).unwrap(),
            silent.publish(o, NodeId(3)).unwrap()
        );
        for p in [4, 12, 20, 19] {
            let a = traced.move_object(o, NodeId(p)).unwrap();
            let b = silent.move_object(o, NodeId(p)).unwrap();
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
        for x in [NodeId(0), NodeId(35), NodeId(17)] {
            let a = traced.query(x, o).unwrap();
            let b = silent.query(x, o).unwrap();
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
    }

    #[test]
    fn probe_paths_emit_no_events() {
        use crate::trace::MemorySink;
        let f = fixture(6, 6);
        let sink = MemorySink::new();
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain()).with_sink(&sink);
        let o = ObjectId(0);
        t.publish(o, NodeId(14)).unwrap();
        let before = sink.events().len();
        // Hypothetical probes used by the concurrent engine must stay
        // silent — they are not billed operations.
        let _ = t.locate_cost(NodeId(0), 0, o);
        let _ = t.descend_cost(o, f.overlay.root(), f.overlay.height());
        assert_eq!(sink.events().len(), before);
    }

    #[test]
    fn repair_events_bill_the_repair_ledger() {
        use crate::trace::{LedgerKind, MemorySink};
        let f = fixture(6, 6);
        let sink = MemorySink::new();
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain()).with_sink(&sink);
        let o = ObjectId(0);
        t.publish(o, NodeId(14)).unwrap();
        t.crash_node(NodeId(14));
        t.recover_node(NodeId(14));
        t.repair_object(o).unwrap();
        let repair_total = sink.ledger_total(LedgerKind::Repair);
        assert!(
            (repair_total - t.repair_cost()).abs() < 1e-9,
            "repair ledger {repair_total} != repair_spent {}",
            t.repair_cost()
        );
    }

    #[test]
    fn loads_return_to_baseline_after_move_cycles() {
        let f = fixture(6, 6);
        let mut t = MotTracker::new(&f.overlay, &f.m, MotConfig::plain());
        let o = ObjectId(0);
        t.publish(o, NodeId(0)).unwrap();
        let baseline: usize = t.node_loads().iter().sum();
        // wander away and back
        for p in [1, 2, 8, 14, 8, 2, 1, 0] {
            t.move_object(o, NodeId(p)).unwrap();
        }
        let now: usize = t.node_loads().iter().sum();
        // Entry count can differ (trail fragments differ from the publish
        // path) but must stay within the structural budget: stations ×
        // levels, with no leak proportional to the number of moves.
        let budget: usize = (0..=f.overlay.height())
            .map(|l| f.overlay.station(NodeId(0), l).len().max(8))
            .sum::<usize>()
            * 2;
        assert!(now <= baseline + budget, "load leak: {baseline} -> {now}");
        t.check_invariants();
    }
}
