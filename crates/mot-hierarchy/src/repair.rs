//! Incremental MIS/cluster repair under topology churn (§7).
//!
//! The paper argues that when sensors join or leave, the doubling
//! hierarchy can be *repaired* instead of rebuilt: a topology event at
//! `u` only disturbs level-`ℓ` clustering within `O(2^ℓ)` of `u`, and
//! packing yields O(1) affected members per level — O(log D) structural
//! updates per event, amortized O(1) per cluster level.
//!
//! [`build_doubling`](crate::build_doubling) cannot be repaired
//! incrementally *bit-identically*: Luby's MIS consumes one global
//! random stream whose layout depends on the whole topology, so any
//! local change reshuffles every later draw. [`RepairableHierarchy`]
//! therefore derives membership from a **deterministic local rule**: a
//! fixed hash priority per `(level, node)` and the greedy
//! lexicographically-first MIS ("in the set iff no higher-priority
//! in-set neighbor"). That fixpoint is unique and order-independent, so
//! a local recomputation around the event, cascaded in priority order,
//! lands on exactly the structure a from-scratch build on the final
//! topology produces — the bit-identity contract the differential
//! suites (`repair_differential`) enforce after every delta.
//!
//! Geometry predicates are byte-for-byte the ones the overlay builder
//! uses (DESIGN.md §13/§17): level-`ℓ` connectivity is
//! `q32(d) < 2^ℓ`, default parents minimize `(q32(d), id)` inside the
//! padded `2^{l+1}` cover ball, stations take `q32(d) ≤ ρ·2^l`.
//!
//! Every [`RepairableHierarchy::repair`] call consults the
//! **rebuild-vs-repair ledger**: it prices the repair up front from the
//! influence ball (membership candidates + parent/station recomputes)
//! and falls back to a from-scratch rebuild when the estimate reaches
//! half the measured cost of the last full build — so a pathological delta
//! can never cost more than `O(build)`, and the amortized per-event
//! unit counts the `churn` experiment reports stay honest.

use crate::config::OverlayConfig;
use mot_net::delta::{ChurnEvent, TopologyDelta};
use mot_net::{q32, splitmix64, DijkstraWorkspace, Graph, NetError, NodeId, Result, BALL_PAD};
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// Priority of node `u` in the level-`ℓ` MIS: a fixed stateless hash,
/// so membership priorities survive any number of topology deltas. Ties
/// cannot occur because comparisons always pair the hash with the node
/// id.
#[inline]
fn prio(seed: u64, level: usize, u: u32) -> u64 {
    splitmix64(splitmix64(seed ^ (level as u64)) ^ u as u64)
}

/// What [`RepairableHierarchy::repair`] decided for one delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairDecision {
    /// The delta was absorbed by localized repair.
    Repaired,
    /// The ledger judged repair no cheaper than a rebuild and rebuilt
    /// from scratch (bit-identical by construction).
    Rebuilt,
}

/// Per-delta outcome of [`RepairableHierarchy::repair`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairReport {
    /// Repair or rebuild fallback.
    pub decision: RepairDecision,
    /// Structural units actually spent (membership decisions + parent
    /// recomputations + station rebuilds).
    pub units: u64,
    /// The up-front estimate the ledger priced the delta at.
    pub estimated_units: u64,
    /// Cluster memberships that changed across all levels — the §7
    /// "cluster update" count.
    pub membership_flips: u64,
    /// Default-parent entries recomputed.
    pub parents_recomputed: u64,
    /// Station sets rebuilt.
    pub stations_rebuilt: u64,
}

/// Cumulative rebuild-vs-repair accounting across a delta sequence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairLedger {
    /// Deltas absorbed.
    pub deltas: u64,
    /// Individual leave/join events absorbed.
    pub events: u64,
    /// Deltas absorbed by localized repair.
    pub repairs: u64,
    /// Deltas that fell back to a full rebuild.
    pub rebuilds: u64,
    /// Units spent in localized repairs.
    pub repaired_units: u64,
    /// Units spent in fallback rebuilds.
    pub rebuild_units: u64,
    /// Membership flips across all repairs (§7's per-cluster events).
    pub membership_flips: u64,
    /// Nodes settled by repair-scoping Dijkstra balls.
    pub settled_nodes: u64,
}

impl RepairLedger {
    /// Amortized structural units per absorbed event (repairs and
    /// rebuild fallbacks both counted) — the number the `churn`
    /// experiment compares against the §7 bound.
    pub fn amortized_units_per_event(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        (self.repaired_units + self.rebuild_units) as f64 / self.events as f64
    }
}

/// Query-visible structure of a hierarchy, for bit-identity checks:
/// two hierarchies answer every membership/parent/station query
/// identically iff their snapshots are equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchySnapshot {
    /// Sorted members per level.
    pub levels: Vec<Vec<NodeId>>,
    /// Per level `l < height`: sorted `(member, default parent)` pairs.
    pub parents: Vec<Vec<(u32, u32)>>,
    /// Per level `1..=height`: sorted `(home, station)` pairs.
    pub stations: Vec<Vec<(u32, Vec<NodeId>)>>,
}

/// The level/parent/station state produced by one construction pass.
struct Core {
    levels: Vec<Vec<NodeId>>,
    in_level: Vec<Vec<bool>>,
    parent_of: Vec<Vec<u32>>,
    stations: Vec<HashMap<u32, Vec<NodeId>>>,
    units: u64,
}

/// A doubling hierarchy that absorbs topology deltas in place.
///
/// Keeps its own clone of the graph, which shares the caller's CSR base
/// (see [`mot_net::Graph`]); feed the same deltas to every
/// consumer (graph, oracle, hierarchy) to keep them in sync. See the
/// module docs for the repair rule and the bit-identity contract.
///
/// # Example: repair equals rebuild, delta by delta
///
/// ```
/// use mot_hierarchy::{OverlayConfig, RepairableHierarchy};
/// use mot_net::{generators, ChurnSchedule, ChurnSpec};
///
/// let g = generators::grid(6, 6)?;
/// let cfg = OverlayConfig::practical();
/// let mut hier = RepairableHierarchy::build(&g, &cfg, 7)?;
///
/// let sched = ChurnSchedule::generate(&g, &ChurnSpec::new(8, 4, 3))?;
/// let mut live = g.clone();
/// for delta in sched.deltas() {
///     delta.apply(&mut live)?;
///     hier.repair(delta)?;
///     // The repaired structure is bit-identical to a from-scratch
///     // build on the final topology — the §7 correctness contract.
///     let rebuilt = RepairableHierarchy::build(&live, &cfg, 7)?;
///     assert_eq!(hier.snapshot(), rebuilt.snapshot());
/// }
/// assert!(hier.ledger().events >= 8);
/// # Ok::<(), mot_net::NetError>(())
/// ```
pub struct RepairableHierarchy {
    g: Graph,
    cfg: OverlayConfig,
    seed: u64,
    levels: Vec<Vec<NodeId>>,
    /// `in_level[l][u]` ⇔ `u ∈ levels[l]` (index by node id).
    in_level: Vec<Vec<bool>>,
    /// `parent_of[l][u]` = default parent of level-`l` member `u` in
    /// level `l+1` (`u32::MAX` for non-members); `len == height`.
    parent_of: Vec<Vec<u32>>,
    /// `stations[l]` maps a level-`l-1` home to its level-`l` station;
    /// `stations[0]` is empty (level-0 stations are the nodes
    /// themselves); `len == height + 1`.
    stations: Vec<HashMap<u32, Vec<NodeId>>>,
    /// Measured unit cost of the last full construction — the ledger's
    /// rebuild price.
    full_build_units: u64,
    ledger: RepairLedger,
    ws: DijkstraWorkspace,
}

impl RepairableHierarchy {
    /// Builds the hierarchy from scratch on the graph's current active
    /// topology. Errors if no node is active or the active topology is
    /// disconnected. `seed` salts the per-`(level, node)` priority
    /// hashes; equal seeds yield equal hierarchies.
    pub fn build(g: &Graph, cfg: &OverlayConfig, seed: u64) -> Result<Self> {
        if g.active_count() == 0 {
            return Err(NetError::EmptyGraph);
        }
        if !g.is_connected() {
            return Err(NetError::Disconnected);
        }
        let g = g.clone();
        let mut ws = DijkstraWorkspace::with_capacity(g.node_count());
        let core = construct(&g, cfg, seed, &mut ws);
        Ok(RepairableHierarchy {
            cfg: cfg.clone(),
            seed,
            levels: core.levels,
            in_level: core.in_level,
            parent_of: core.parent_of,
            stations: core.stations,
            full_build_units: core.units,
            ledger: RepairLedger::default(),
            ws,
            g,
        })
    }

    /// The hierarchy's own graph (reflects every absorbed delta).
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// Top level index `h`.
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// The single root node.
    pub fn root(&self) -> NodeId {
        self.levels[self.height()][0]
    }

    /// Sorted members of level `l`.
    pub fn level_members(&self, l: usize) -> &[NodeId] {
        &self.levels[l]
    }

    /// True when `u` is a level-`l` member.
    pub fn is_member(&self, l: usize, u: NodeId) -> bool {
        self.in_level[l][u.index()]
    }

    /// Default parent of level-`l` member `u` in level `l+1`.
    pub fn parent(&self, l: usize, u: NodeId) -> Option<NodeId> {
        let p = *self.parent_of.get(l)?.get(u.index())?;
        (p != u32::MAX).then_some(NodeId(p))
    }

    /// The level-`l` station shared by every node whose detection path
    /// passes through the level-`l-1` home `home`.
    pub fn station_of_home(&self, l: usize, home: NodeId) -> Option<&[NodeId]> {
        self.stations.get(l)?.get(&home.0).map(Vec::as_slice)
    }

    /// The level-`l` station on the detection path of active sensor
    /// `u` (level 0 is the sensor itself), walking the default-parent
    /// home chain exactly like the overlay builder.
    ///
    /// # Panics
    /// Panics if `u` is inactive or `l > height()`.
    pub fn station(&self, u: NodeId, l: usize) -> Vec<NodeId> {
        assert!(self.g.is_active(u), "station of inactive sensor {u}");
        if l == 0 {
            return vec![u];
        }
        let mut home = u;
        for step in 0..l - 1 {
            home = NodeId(self.parent_of[step][home.index()]);
        }
        self.stations[l][&home.0].clone()
    }

    /// Cumulative rebuild-vs-repair accounting.
    pub fn ledger(&self) -> RepairLedger {
        self.ledger
    }

    /// Measured unit cost of the last full construction — what the
    /// ledger prices a rebuild fallback at.
    pub fn full_build_units(&self) -> u64 {
        self.full_build_units
    }

    /// The query-visible structure, for bit-identity comparisons.
    pub fn snapshot(&self) -> HierarchySnapshot {
        let parents = self
            .parent_of
            .iter()
            .enumerate()
            .map(|(l, pars)| {
                self.levels[l]
                    .iter()
                    .map(|&u| (u.0, pars[u.index()]))
                    .collect()
            })
            .collect();
        let stations = (1..self.levels.len())
            .map(|l| {
                let mut per: Vec<(u32, Vec<NodeId>)> = self.stations[l]
                    .iter()
                    .map(|(&h, s)| (h, s.clone()))
                    .collect();
                per.sort_unstable_by_key(|&(h, _)| h);
                per
            })
            .collect();
        HierarchySnapshot {
            levels: self.levels.clone(),
            parents,
            stations,
        }
    }

    /// Absorbs one topology delta, repairing the hierarchy in place —
    /// or rebuilding, when the ledger prices repair at no less than a
    /// full build. Either way the result is bit-identical to
    /// [`RepairableHierarchy::build`] on the post-delta topology.
    pub fn repair(&mut self, delta: &TopologyDelta) -> Result<RepairReport> {
        let mut report = RepairReport {
            decision: RepairDecision::Repaired,
            units: 0,
            estimated_units: 0,
            membership_flips: 0,
            parents_recomputed: 0,
            stations_rebuilt: 0,
        };
        for ev in &delta.events {
            self.absorb_event(ev, &mut report)?;
            self.ledger.events += 1;
        }
        self.ledger.deltas += 1;
        match report.decision {
            RepairDecision::Repaired => {
                self.ledger.repairs += 1;
                self.ledger.repaired_units += report.units;
            }
            RepairDecision::Rebuilt => {
                self.ledger.rebuilds += 1;
                self.ledger.rebuild_units += report.units;
            }
        }
        self.ledger.membership_flips += report.membership_flips;
        Ok(report)
    }

    /// Applies one event to the owned graph and repairs around it.
    fn absorb_event(&mut self, ev: &ChurnEvent, report: &mut RepairReport) -> Result<()> {
        let u = ev.node();
        let rho = self.cfg.parent_set_radius_mult;
        // One scoping ball per event, at the largest radius any level's
        // predicate can reach. Leaves scope on the pre-removal graph
        // (stale shortest paths ran *through* u); joins on the
        // post-restore graph (new shortest paths run through u).
        let r_top = (1u64 << (self.height() + 1)) as f64 * rho.max(1.0) * BALL_PAD;
        let influence: Vec<(f64, NodeId)>;
        match ev {
            ChurnEvent::Leave(node) => {
                self.ws.bounded_ball(&self.g, *node, r_top);
                influence = self
                    .ws
                    .settled()
                    .iter()
                    .map(|&v| (self.ws.dist(v), v))
                    .collect();
                self.g.remove_node(*node)?;
            }
            ChurnEvent::Join { node, edges } => {
                self.g.restore_node(*node, edges)?;
                self.ws.bounded_ball(&self.g, *node, r_top);
                influence = self
                    .ws
                    .settled()
                    .iter()
                    .map(|&v| (self.ws.dist(v), v))
                    .collect();
            }
        }
        self.ledger.settled_nodes += influence.len() as u64;
        if self.g.active_count() == 0 {
            return Err(NetError::EmptyGraph);
        }

        // --- rebuild-vs-repair ledger decision --------------------------
        // Price the repair from the influence ball: membership
        // candidates at 2^ℓ per level, parent recomputes at 2^{l+1},
        // station rebuilds at ρ·2^l. Cascades can exceed the estimate,
        // but packing keeps them the same order.
        let mut est: u64 = 1;
        for l in 1..=self.height() {
            let mem_r = (1u64 << l) as f64;
            let par_r = (1u64 << l) as f64 * BALL_PAD;
            let sta_r = rho * (1u64 << l) as f64 * BALL_PAD;
            for &(d, v) in &influence {
                if d <= mem_r && self.in_level[l - 1][v.index()] {
                    est += 1;
                }
                if l < self.levels.len() && d <= par_r && self.in_level[l - 1][v.index()] {
                    est += 1;
                }
                if d <= sta_r && self.in_level[l - 1][v.index()] {
                    est += 1;
                }
            }
        }
        report.estimated_units += est;
        // Break-even at half the measured build cost: the estimate
        // deliberately excludes cascade overshoot and flip-neighborhood
        // rescans, which in practice roughly double the priced work.
        if est.saturating_mul(2) >= self.full_build_units.max(1) {
            // Repair would cost a rebuild: do the rebuild.
            let core = construct(&self.g, &self.cfg, self.seed, &mut self.ws);
            report.units += core.units;
            report.decision = RepairDecision::Rebuilt;
            self.levels = core.levels;
            self.in_level = core.in_level;
            self.parent_of = core.parent_of;
            self.stations = core.stations;
            self.full_build_units = core.units;
            return Ok(());
        }

        self.repair_around(u, matches!(ev, ChurnEvent::Leave(_)), &influence, report);
        Ok(())
    }

    /// Localized repair: membership cascade per level, then scoped
    /// parent/station recomputation.
    fn repair_around(
        &mut self,
        u: NodeId,
        is_leave: bool,
        influence: &[(f64, NodeId)],
        report: &mut RepairReport,
    ) {
        let n = self.g.node_count();
        // --- level 0: the active set -------------------------------------
        let mut flipped: Vec<Vec<NodeId>> = vec![vec![u]];
        if is_leave {
            self.in_level[0][u.index()] = false;
            if let Ok(i) = self.levels[0].binary_search(&u) {
                self.levels[0].remove(i);
            }
        } else {
            self.in_level[0][u.index()] = true;
            if let Err(i) = self.levels[0].binary_search(&u) {
                self.levels[0].insert(i, u);
            }
        }
        report.membership_flips += 1;

        // --- membership repair, level by level ---------------------------
        let mut level = 1usize;
        while level < self.levels.len() {
            let radius = (1u64 << level) as f64;
            let key = |v: u32| (prio(self.seed, level, v), v);
            // Seeds: influence candidates within 2^ℓ plus lower-level
            // flips (membership of a seed's neighbors-or-self changed).
            let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::new();
            let mut queued = vec![false; n];
            for &(d, v) in influence {
                if d > radius {
                    break;
                }
                if self.in_level[level - 1][v.index()] && !queued[v.index()] {
                    queued[v.index()] = true;
                    heap.push(key(v.0));
                }
            }
            for &f in &flipped[level - 1] {
                if !queued[f.index()] {
                    queued[f.index()] = true;
                    heap.push(key(f.0));
                }
            }
            let mut processed = vec![false; n];
            let mut flips: Vec<NodeId> = Vec::new();
            let mut neigh: Vec<NodeId> = Vec::new();
            while let Some((p, vi)) = heap.pop() {
                let v = NodeId(vi);
                if processed[v.index()] {
                    continue;
                }
                processed[v.index()] = true;
                report.units += 1;
                // Recompute v's greedy-MIS decision: in the set iff a
                // level-(ℓ-1) member with no higher-key in-set
                // E-neighbor. Heap order guarantees every higher-key
                // neighbor is final by now.
                let mut decision = self.in_level[level - 1][v.index()];
                neigh.clear();
                if decision || self.in_level[level][v.index()] {
                    self.ws.bounded_ball(&self.g, v, radius);
                    self.ledger.settled_nodes += self.ws.settled().len() as u64;
                    for &w in self.ws.settled() {
                        if w != v
                            && self.in_level[level - 1][w.index()]
                            && q32(self.ws.dist(w)) < radius
                        {
                            neigh.push(w);
                        }
                    }
                    if decision {
                        decision = !neigh
                            .iter()
                            .any(|&w| key(w.0) > (p, vi) && self.in_level[level][w.index()]);
                    }
                }
                if decision != self.in_level[level][v.index()] {
                    self.in_level[level][v.index()] = decision;
                    flips.push(v);
                    report.membership_flips += 1;
                    // The flip can free or block strictly lower-key
                    // E-neighbors; cascade to them.
                    for &w in &neigh {
                        if key(w.0) < (p, vi) && !processed[w.index()] && !queued[w.index()] {
                            queued[w.index()] = true;
                            heap.push(key(w.0));
                        }
                    }
                }
            }
            // Fold flips into the sorted member list.
            for &f in &flips {
                if self.in_level[level][f.index()] {
                    if let Err(i) = self.levels[level].binary_search(&f) {
                        self.levels[level].insert(i, f);
                    }
                } else if let Ok(i) = self.levels[level].binary_search(&f) {
                    self.levels[level].remove(i);
                }
            }
            flipped.push(flips);
            if self.levels[level].len() == 1 {
                // From-scratch construction stops at the first
                // singleton level: truncate anything above it.
                self.levels.truncate(level + 1);
                self.in_level.truncate(level + 1);
                self.parent_of.truncate(level);
                self.stations.truncate(level + 1);
                break;
            }
            level += 1;
        }
        // --- height growth ----------------------------------------------
        // If the top level still has several members, extend with
        // from-scratch levels (they are tiny; no influence scoping
        // needed — the construction is exact at any scale).
        while self.levels.last().map(Vec::len) != Some(1) {
            let level = self.levels.len();
            let prev = &self.levels[level - 1];
            report.units += prev.len() as u64;
            let (members, flags) = build_level(
                &self.g,
                prev,
                level,
                self.seed,
                n,
                &mut self.ws,
                &mut self.ledger.settled_nodes,
            );
            // Everything in a brand-new level "flipped in".
            flipped.push(members.clone());
            report.membership_flips += members.len() as u64;
            self.levels.push(members);
            self.in_level.push(flags);
            self.parent_of.push(vec![u32::MAX; n]);
            self.stations.push(HashMap::new());
            assert!(self.levels.len() <= 66, "repair did not converge to a root");
        }
        while flipped.len() < self.levels.len() {
            flipped.push(Vec::new());
        }
        let height = self.levels.len() - 1;
        self.parent_of.truncate(height);
        while self.parent_of.len() < height {
            self.parent_of.push(vec![u32::MAX; n]);
        }
        self.stations.truncate(height + 1);
        while self.stations.len() < height + 1 {
            self.stations.push(HashMap::new());
        }

        // --- scoped parent + station recomputation -----------------------
        let rho = self.cfg.parent_set_radius_mult;
        let mut ball_cache: Vec<NodeId> = Vec::new();
        for l in 0..height {
            let cover = (1u64 << (l + 1)) as f64;
            // Affected members: distance-disturbed within the padded
            // cover radius, membership flips at l (need/lose a parent),
            // and members near a flipped level-(l+1) node (their argmin
            // candidate set changed).
            let mut affected: Vec<NodeId> = Vec::new();
            let mut seen = vec![false; n];
            for &(d, v) in influence {
                if d > cover * BALL_PAD {
                    break;
                }
                if self.in_level[l][v.index()] && !seen[v.index()] {
                    seen[v.index()] = true;
                    affected.push(v);
                }
            }
            for &f in &flipped[l] {
                if !self.in_level[l][f.index()] {
                    self.parent_of[l][f.index()] = u32::MAX;
                } else if !seen[f.index()] {
                    seen[f.index()] = true;
                    affected.push(f);
                }
            }
            for &f in &flipped[l + 1] {
                self.ws.bounded_ball(&self.g, f, cover * BALL_PAD);
                self.ledger.settled_nodes += self.ws.settled().len() as u64;
                ball_cache.clear();
                ball_cache.extend_from_slice(self.ws.settled());
                for &v in &ball_cache {
                    if self.in_level[l][v.index()] && !seen[v.index()] {
                        seen[v.index()] = true;
                        affected.push(v);
                    }
                }
            }
            for &w in &affected {
                let p = compute_parent(
                    &self.g,
                    w,
                    &self.in_level[l + 1],
                    cover,
                    &mut self.ws,
                    &mut self.ledger.settled_nodes,
                );
                self.parent_of[l][w.index()] = p;
                report.parents_recomputed += 1;
                report.units += 1;
            }
        }

        for l in 1..=height {
            let radius = rho * (1u64 << l) as f64;
            let reach = ((1u64 << l) as f64).max(radius) * BALL_PAD;
            let mut homes: Vec<NodeId> = Vec::new();
            let mut seen = vec![false; n];
            for &(d, v) in influence {
                if d > reach {
                    break;
                }
                if self.in_level[l - 1][v.index()] && !seen[v.index()] {
                    seen[v.index()] = true;
                    homes.push(v);
                }
            }
            for &f in &flipped[l - 1] {
                if !self.in_level[l - 1][f.index()] {
                    self.stations[l].remove(&f.0);
                } else if !seen[f.index()] {
                    seen[f.index()] = true;
                    homes.push(f);
                }
            }
            for &f in &flipped[l] {
                self.ws.bounded_ball(&self.g, f, reach);
                self.ledger.settled_nodes += self.ws.settled().len() as u64;
                ball_cache.clear();
                ball_cache.extend_from_slice(self.ws.settled());
                for &v in &ball_cache {
                    if self.in_level[l - 1][v.index()] && !seen[v.index()] {
                        seen[v.index()] = true;
                        homes.push(v);
                    }
                }
            }
            // Homes whose default parent changed pick up a new station
            // member even when no distance near them moved.
            for &home in &self.levels[l - 1] {
                if seen[home.index()] {
                    continue;
                }
                let dp = self.parent_of[l - 1][home.index()];
                let stale = self.stations[l].get(&home.0).is_none_or(|s| {
                    s.binary_search(&NodeId(dp)).is_err()
                        || s.iter().any(|m| !self.in_level[l][m.index()])
                });
                if stale {
                    seen[home.index()] = true;
                    homes.push(home);
                }
            }
            for &home in &homes {
                let station = compute_station(
                    &self.g,
                    home,
                    &self.in_level[l],
                    radius,
                    NodeId(self.parent_of[l - 1][home.index()]),
                    &mut self.ws,
                    &mut self.ledger.settled_nodes,
                );
                self.stations[l].insert(home.0, station);
                report.stations_rebuilt += 1;
                report.units += 1;
            }
        }
    }
}

/// One from-scratch MIS level over `prev` (greedy lexicographically
/// first by `(prio, id)`), returning sorted members and the membership
/// flags.
fn build_level(
    g: &Graph,
    prev: &[NodeId],
    level: usize,
    seed: u64,
    n: usize,
    ws: &mut DijkstraWorkspace,
    settled: &mut u64,
) -> (Vec<NodeId>, Vec<bool>) {
    let radius = (1u64 << level) as f64;
    let mut in_prev = vec![false; n];
    for &v in prev {
        in_prev[v.index()] = true;
    }
    let mut order: Vec<(u64, u32)> = prev
        .iter()
        .map(|&v| (prio(seed, level, v.0), v.0))
        .collect();
    order.sort_unstable_by(|a, b| b.cmp(a));
    let mut flags = vec![false; n];
    for &(_, vi) in &order {
        let v = NodeId(vi);
        ws.bounded_ball(g, v, radius);
        *settled += ws.settled().len() as u64;
        // Greedy in key order: any already-selected E-neighbor has a
        // higher key, so "no selected E-neighbor" is the full rule.
        let free = !ws
            .settled()
            .iter()
            .any(|&w| w != v && in_prev[w.index()] && flags[w.index()] && q32(ws.dist(w)) < radius);
        if free {
            flags[vi as usize] = true;
        }
    }
    let mut members: Vec<NodeId> = prev.iter().copied().filter(|v| flags[v.index()]).collect();
    members.sort_unstable();
    (members, flags)
}

/// The overlay builder's default-parent rule: `(q32(dist), id)` minimum
/// over next-level members inside the padded cover ball.
fn compute_parent(
    g: &Graph,
    w: NodeId,
    upper: &[bool],
    cover: f64,
    ws: &mut DijkstraWorkspace,
    settled: &mut u64,
) -> u32 {
    ws.bounded_ball(g, w, cover * BALL_PAD);
    *settled += ws.settled().len() as u64;
    ws.settled()
        .iter()
        .filter(|&&v| upper[v.index()])
        .map(|&v| (q32(ws.dist(v)), v))
        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)))
        .map(|(_, v)| v.0)
        .expect("MIS maximality guarantees a covering parent")
}

/// The overlay builder's station rule: next-level members with
/// `q32(d) ≤ ρ·2^l`, default parent always included, sorted by id.
fn compute_station(
    g: &Graph,
    home: NodeId,
    upper: &[bool],
    radius: f64,
    dp: NodeId,
    ws: &mut DijkstraWorkspace,
    settled: &mut u64,
) -> Vec<NodeId> {
    ws.bounded_ball(g, home, radius * BALL_PAD);
    *settled += ws.settled().len() as u64;
    let mut station: Vec<NodeId> = ws
        .settled()
        .iter()
        .copied()
        .filter(|&v| upper[v.index()] && q32(ws.dist(v)) <= radius)
        .collect();
    if !station.contains(&dp) {
        station.push(dp);
    }
    station.sort();
    station
}

/// Full construction pass (used by `build` and the rebuild fallback).
fn construct(g: &Graph, cfg: &OverlayConfig, seed: u64, ws: &mut DijkstraWorkspace) -> Core {
    let n = g.node_count();
    let mut units: u64 = 1;
    let mut settled: u64 = 0;
    let active: Vec<NodeId> = g.active_nodes().collect();
    let mut in_level: Vec<Vec<bool>> = vec![vec![false; n]];
    for &v in &active {
        in_level[0][v.index()] = true;
    }
    let mut levels: Vec<Vec<NodeId>> = vec![active];
    for level in 1..=64usize {
        if levels[level - 1].len() == 1 {
            break;
        }
        units += levels[level - 1].len() as u64;
        let (members, flags) = build_level(g, &levels[level - 1], level, seed, n, ws, &mut settled);
        levels.push(members);
        in_level.push(flags);
    }
    assert_eq!(
        levels.last().map(Vec::len),
        Some(1),
        "hash-priority MIS construction did not converge to a root"
    );
    let height = levels.len() - 1;

    let mut parent_of: Vec<Vec<u32>> = Vec::with_capacity(height);
    for l in 0..height {
        let cover = (1u64 << (l + 1)) as f64;
        let mut parents = vec![u32::MAX; n];
        for &w in &levels[l] {
            parents[w.index()] = compute_parent(g, w, &in_level[l + 1], cover, ws, &mut settled);
            units += 1;
        }
        parent_of.push(parents);
    }

    let mut stations: Vec<HashMap<u32, Vec<NodeId>>> = Vec::with_capacity(height + 1);
    stations.push(HashMap::new());
    for l in 1..=height {
        let radius = cfg.parent_set_radius_mult * (1u64 << l) as f64;
        let mut per: HashMap<u32, Vec<NodeId>> = HashMap::with_capacity(levels[l - 1].len());
        for &home in &levels[l - 1] {
            let dp = NodeId(parent_of[l - 1][home.index()]);
            per.insert(
                home.0,
                compute_station(g, home, &in_level[l], radius, dp, ws, &mut settled),
            );
            units += 1;
        }
        stations.push(per);
    }
    Core {
        levels,
        in_level,
        parent_of,
        stations,
        units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{home_rules, level_issues};
    use mot_net::generators;

    #[test]
    fn build_matches_doubling_invariants() {
        // The rules `validate` holds overlays to, stated by the same
        // functions, on this construction's own parents and stations.
        for g in [
            generators::grid(8, 8).unwrap(),
            generators::grid(13, 9).unwrap(),
            generators::random_geometric(70, 9.0, 2.5, 3).unwrap(),
        ] {
            let m = mot_net::DenseOracle::build(&g).unwrap();
            for cfg in [
                OverlayConfig::practical(),
                OverlayConfig::paper_exact(),
                OverlayConfig::singleton_parents(),
            ] {
                let h = RepairableHierarchy::build(&g, &cfg, 7).unwrap();
                assert_eq!(h.level_members(h.height()).len(), 1);
                assert!(h.level_members(0).iter().copied().eq(g.nodes()));
                for l in 1..=h.height() {
                    let (lower, upper) = (h.level_members(l - 1), h.level_members(l));
                    assert_eq!(level_issues(l, lower, upper, &m), Vec::<String>::new());
                    let reach = cfg.parent_set_radius_mult * (1u64 << l) as f64;
                    for (&home, (parent, station)) in
                        lower.iter().zip(home_rules(lower, upper, reach, &m))
                    {
                        assert_eq!(h.parent(l - 1, home), Some(parent), "level {l} home {home}");
                        assert_eq!(
                            h.station_of_home(l, home),
                            Some(&station[..]),
                            "level {l} home {home}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::grid(7, 7).unwrap();
        let a = RepairableHierarchy::build(&g, &OverlayConfig::practical(), 3).unwrap();
        let b = RepairableHierarchy::build(&g, &OverlayConfig::practical(), 3).unwrap();
        let c = RepairableHierarchy::build(&g, &OverlayConfig::practical(), 4).unwrap();
        assert_eq!(a.snapshot(), b.snapshot());
        assert_ne!(a.snapshot(), c.snapshot());
    }

    #[test]
    fn station_chain_matches_home_walk() {
        let g = generators::grid(6, 6).unwrap();
        let h = RepairableHierarchy::build(&g, &OverlayConfig::practical(), 11).unwrap();
        let u = NodeId(0);
        assert_eq!(h.station(u, 0), vec![u]);
        let top = h.station(u, h.height());
        assert_eq!(top, vec![h.root()]);
    }

    #[test]
    fn single_active_node_degenerates() {
        let g = generators::line(1).unwrap();
        let h = RepairableHierarchy::build(&g, &OverlayConfig::practical(), 1).unwrap();
        assert_eq!(h.height(), 0);
        assert_eq!(h.root(), NodeId(0));
    }

    #[test]
    fn tiny_graph_deltas_fall_back_to_rebuild() {
        // On a 4-node line the influence ball is the whole graph: the
        // estimate reaches the full-build cost and the ledger must
        // choose rebuild — and the result still matches from-scratch.
        let g = generators::line(4).unwrap();
        let cfg = OverlayConfig::practical();
        let mut h = RepairableHierarchy::build(&g, &cfg, 5).unwrap();
        let mut live = g.clone();
        let delta = TopologyDelta::leave(NodeId(3));
        live.remove_node(NodeId(3)).unwrap();
        let report = h.repair(&delta).unwrap();
        assert_eq!(report.decision, RepairDecision::Rebuilt);
        let fresh = RepairableHierarchy::build(&live, &cfg, 5).unwrap();
        assert_eq!(h.snapshot(), fresh.snapshot());
        assert_eq!(h.ledger().rebuilds, 1);
    }

    #[test]
    fn ledger_amortized_accounting() {
        let g = generators::grid(6, 6).unwrap();
        let cfg = OverlayConfig::practical();
        let mut h = RepairableHierarchy::build(&g, &cfg, 2).unwrap();
        let sched =
            mot_net::ChurnSchedule::generate(&g, &mot_net::ChurnSpec::new(10, 4, 8)).unwrap();
        for d in sched.deltas() {
            h.repair(d).unwrap();
        }
        let ledger = h.ledger();
        assert_eq!(ledger.deltas, 10);
        assert_eq!(ledger.events, 10);
        assert_eq!(ledger.repairs + ledger.rebuilds, 10);
        assert!(ledger.amortized_units_per_event() > 0.0);
        assert!(ledger.membership_flips >= 10, "{ledger:?}");
    }
}
