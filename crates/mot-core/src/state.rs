//! Per-object trails: the one copy of every detection-list entry.
//!
//! A physical sensor can play internal-node roles at several overlay
//! levels; the paper treats each role's detection list separately ("when
//! it performs operations as an internal node it can only store the
//! detected objects that are in the detection lists of its child nodes").
//! DL membership is therefore keyed by *(node, level)*. SDL entries
//! additionally remember the guarded level and the special child that
//! installed them.
//!
//! The *trail* of an object is the current chain of DL holders from the
//! root down to the proxy — the concatenation of detection-path fragments
//! that maintenance operations splice together (Fig. 2's fragmentation is
//! exactly a trail whose levels come from different proxies' paths).
//! Every level is climbed on one bottom node's detection path, so it is
//! that node's whole station: a [`TrailLevel`] is its origin, and its
//! holders and their guards are overlay constants
//! (`TrailLevel::holders`, `TrailLevel::guards`).
//!
//! The trails are the only copy of the DL/SDL state: a sensor's DL and
//! SDL are a *view* of them. "Does `v` hold `o` at level ℓ" is
//! `v ∈ trail[ℓ].holders`; the DL a query probes at `v` is the lowest
//! level whose holders contain `v`; the SDL entry it probes is the
//! minimum `(level, child)` pair over the trail's guards hosted at `v`
//! (`ObjectRecord::probe`). An operation looks the object up once and
//! then reads a few words of record and the overlay's station table,
//! not a hash map per sensor it visits. What stays per sensor is its
//! physical load — an entry count the tracker moves on every write.
//!
//! **Crashes.** A crashed sensor loses the entries it stored, but the
//! trail keeps listing them until a repair rebuilds it. The record holds
//! that as *lost* marks: `(level, node)` says every entry of trail level
//! ℓ stored at `node` — the holder `node`, every guard it hosts — is
//! gone. The marks are empty until a crash, and an empty `Vec` allocates
//! nothing, so fault-free operations never touch them.
//! 1. A crash of `u` marks, on every record, each level that still has a
//!    live entry at `u`, and the tracker subtracts their number from
//!    `u`'s load (saturating).
//! 2. Every probe skips lost entries; damage detection names the first
//!    holder, in trail order, that is lost or down.
//! 3. Removing a lost entry releases no load (prune, rollback, repair
//!    scrub, an orphaned proxy's level-0 guards).
//! 4. A repair rebuilds the trail and clears its marks; a node's
//!    recovery clears none.

use mot_hierarchy::Overlay;
use mot_net::NodeId;

/// One SDL installation: `host` guards `child`, a DL holder at the trail
/// level the entry belongs to. Under load balancing the entry is
/// physically stored at a hashed member of `host`'s cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpEntry {
    /// The special parent guarding the entry.
    pub host: NodeId,
    /// The DL holder this entry points down to.
    pub child: NodeId,
}

/// Per-level slice of an object's trail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrailLevel {
    /// The bottom node whose detection path this slice was climbed on:
    /// the holders are exactly `station(origin, ℓ)`, so the hop lengths
    /// between consecutive holders are that station's overlay constants.
    pub origin: NodeId,
    /// Whether every holder is guarded by its special parent. False when
    /// special parents are off or undefined at this level (§3), and on a
    /// bottom level a crash handoff rewrote.
    pub guarded: bool,
}

impl TrailLevel {
    /// The nodes holding the object in their level-`level` DL, sorted by
    /// id: `station(origin, level)`.
    #[inline]
    pub(crate) fn holders<'o>(&self, overlay: &'o Overlay, level: usize) -> &'o [NodeId] {
        overlay.station(self.origin, level)
    }

    /// The SDL entries guarding this level, in holder order: holder `j`
    /// is guarded by `sp_host(origin, level, j)`.
    pub(crate) fn guards<'o>(
        &self,
        overlay: &'o Overlay,
        level: usize,
    ) -> impl Iterator<Item = SpEntry> + 'o {
        let (children, hosts) = if self.guarded {
            let hosts = overlay.station(self.origin, overlay.sp_level(level));
            (self.holders(overlay, level), hosts)
        } else {
            (&[][..], &[][..])
        };
        children
            .iter()
            .zip(hosts.iter().cycle())
            .map(|(&child, &host)| SpEntry { host, child })
    }
}

/// What a query's probe of one sensor finds for one object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The sensor holds the object in its DL; the lowest such level.
    Dl(usize),
    /// The sensor guards the object in its SDL: the canonical
    /// `(guarded level, child)` pair.
    Sdl(usize, NodeId),
}

/// Full per-object record: `trail[ℓ]` for `ℓ = 0..=h`; the level-0
/// holder is the proxy.
#[derive(Clone, Debug)]
pub struct ObjectRecord {
    /// `trail[ℓ]` is the object's level-ℓ slice, bottom (proxy) first.
    pub trail: Vec<TrailLevel>,
    /// Crash marks: `(ℓ, v)` means the entries of `trail[ℓ]` stored at
    /// `v` were lost (module docs). Empty on a record no crash touched.
    lost: Vec<(u32, NodeId)>,
}

impl ObjectRecord {
    /// A record with no crash marks.
    pub(crate) fn new(trail: Vec<TrailLevel>) -> Self {
        ObjectRecord {
            trail,
            lost: Vec::new(),
        }
    }

    /// Heap bytes of the trail and the crash marks.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.trail.capacity() * std::mem::size_of::<TrailLevel>()
            + self.lost.capacity() * std::mem::size_of::<(u32, NodeId)>()
    }

    /// The current proxy: the origin of the bottom level, whose station
    /// is the origin alone.
    pub fn proxy(&self) -> NodeId {
        self.trail[0].origin
    }

    /// Whether the entries of level `level` stored at `node` were lost
    /// to a crash.
    #[inline]
    pub(crate) fn is_lost(&self, level: usize, node: NodeId) -> bool {
        !self.lost.is_empty() && self.lost.contains(&(level as u32, node))
    }

    /// Does `node` hold the object in its level-`level` DL?
    #[inline]
    pub(crate) fn holds(&self, overlay: &Overlay, node: NodeId, level: usize) -> bool {
        self.trail
            .get(level)
            .is_some_and(|tl| tl.holders(overlay, level).contains(&node))
            && !self.is_lost(level, node)
    }

    /// The canonical SDL entry `node` keeps for the object, if any — the
    /// minimum `(guarded level, child)` pair over the live guards it
    /// hosts, so lookups are independent of installation order (and the
    /// lowest guarded level descends cheapest).
    pub(crate) fn guard(&self, overlay: &Overlay, node: NodeId) -> Option<(usize, NodeId)> {
        self.trail.iter().enumerate().find_map(|(level, tl)| {
            if self.is_lost(level, node) {
                return None;
            }
            tl.guards(overlay, level)
                .filter(|e| e.host == node)
                .map(|e| e.child)
                .min()
                .map(|child| (level, child))
        })
    }

    /// A query's probe of `node`: the lowest level at which it holds the
    /// object in any of its DL roles (a physical sensor playing several
    /// internal-node roles knows its whole detection list, and the
    /// lowest level descends cheapest), else its canonical SDL entry.
    pub(crate) fn probe(&self, overlay: &Overlay, node: NodeId) -> Option<Probe> {
        match (0..self.trail.len()).find(|&level| self.holds(overlay, node, level)) {
            Some(level) => Some(Probe::Dl(level)),
            None => self
                .guard(overlay, node)
                .map(|(level, child)| Probe::Sdl(level, child)),
        }
    }

    /// [`Self::probe`] for many sensors in a row (a query's climb).
    pub(crate) fn prober<'r>(&'r self, overlay: &'r Overlay) -> Prober<'r> {
        let mut seen = [0u64; 8];
        for (level, tl) in self.trail.iter().enumerate() {
            let holders = tl.holders(overlay, level);
            // The hosts `guards` cycles through, each once: a slice is
            // cheaper to walk here than the iterator.
            let hosts = if tl.guarded {
                let hosts = overlay.station(tl.origin, overlay.sp_level(level));
                &hosts[..hosts.len().min(holders.len())]
            } else {
                &[]
            };
            for v in holders.iter().chain(hosts) {
                seen[(v.0 as usize >> 6) & 7] |= 1 << (v.0 & 63);
            }
        }
        Prober {
            rec: self,
            overlay,
            seen,
        }
    }

    /// Marks every live entry stored at `u` lost (a crash of `u`) and
    /// returns how many there were.
    pub(crate) fn mark_lost(&mut self, overlay: &Overlay, u: NodeId) -> usize {
        let mut wiped = 0;
        for (level, tl) in self.trail.iter().enumerate() {
            if self.lost.contains(&(level as u32, u)) {
                continue;
            }
            let here = usize::from(tl.holders(overlay, level).contains(&u))
                + tl.guards(overlay, level).filter(|e| e.host == u).count();
            if here > 0 {
                self.lost.push((level as u32, u));
                wiped += here;
            }
        }
        wiped
    }

    /// Drops the marks of levels below `level` — their slices were just
    /// replaced by entries no crash has touched.
    pub(crate) fn clear_lost_below(&mut self, level: usize) {
        if !self.lost.is_empty() {
            self.lost.retain(|&(l, _)| l as usize >= level);
        }
    }
}

/// One record's probes from a query's climb. A 512-bit filter over the
/// nodes storing any of its entries answers most misses with one bit
/// test; the rest read the record (`ObjectRecord::probe`).
pub(crate) struct Prober<'r> {
    rec: &'r ObjectRecord,
    overlay: &'r Overlay,
    seen: [u64; 8],
}

impl Prober<'_> {
    /// What probing `node` finds.
    #[inline]
    pub(crate) fn probe(&self, node: NodeId) -> Option<Probe> {
        if self.seen[(node.0 as usize >> 6) & 7] & (1 << (node.0 & 63)) == 0 {
            return None;
        }
        self.rec.probe(self.overlay, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_hierarchy::{build_doubling, OverlayConfig};
    use mot_net::{generators, DenseOracle};

    fn overlay() -> Overlay {
        let g = generators::grid(8, 8).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        build_doubling(&g, &m, &OverlayConfig::practical(), 11)
    }

    /// The trail a publish from `proxy` builds: every level on its path,
    /// guarded wherever special parents are defined.
    fn published(ov: &Overlay, proxy: NodeId) -> ObjectRecord {
        ObjectRecord::new(
            (0..=ov.height())
                .map(|level| TrailLevel {
                    origin: proxy,
                    guarded: ov.sp_level(level) != level,
                })
                .collect(),
        )
    }

    /// Every `(level, host, child)` guard of a record.
    fn all_guards(ov: &Overlay, rec: &ObjectRecord) -> Vec<(usize, NodeId, NodeId)> {
        let mut out = Vec::new();
        for (level, tl) in rec.trail.iter().enumerate() {
            out.extend(tl.guards(ov, level).map(|e| (level, e.host, e.child)));
        }
        out
    }

    #[test]
    fn dl_bitmask_tracks_levels_independently() {
        // A member of several levels of one path holds one entry per
        // level; rewriting one level leaves the others alone.
        let ov = overlay();
        let mut rec = published(&ov, NodeId(27));
        let (n, levels) = (0..64)
            .map(NodeId)
            .map(|v| {
                let ls: Vec<usize> = (1..=ov.height())
                    .filter(|&l| rec.holds(&ov, v, l))
                    .collect();
                (v, ls)
            })
            .find(|(_, ls)| ls.len() >= 2)
            .expect("some node is on two levels of a path");
        assert_eq!(rec.probe(&ov, n), Some(Probe::Dl(levels[0])));
        assert!(!rec.holds(&ov, n, ov.height() + 1));
        let other = (0..64)
            .map(NodeId)
            .find(|&v| !ov.station(v, levels[0]).contains(&n))
            .expect("not every station contains the node");
        rec.trail[levels[0]].origin = other;
        assert!(!rec.holds(&ov, n, levels[0]));
        assert!(rec.holds(&ov, n, levels[1]));
        assert_eq!(rec.probe(&ov, n), Some(Probe::Dl(levels[1])));
    }

    #[test]
    fn load_charged_to_designated_holder() {
        // Entries are keyed by their role node: a crash of a node that
        // plays no role for the object marks nothing, and a crash of a
        // role node counts each of its entries once.
        let ov = overlay();
        let mut rec = published(&ov, NodeId(0));
        let guards = all_guards(&ov, &rec);
        let roles = |v: NodeId| {
            (0..=ov.height())
                .filter(|&l| ov.station(NodeId(0), l).contains(&v))
                .count()
                + guards.iter().filter(|g| g.1 == v).count()
        };
        let idle = (0..64).map(NodeId).find(|&v| roles(v) == 0).unwrap();
        assert_eq!(rec.mark_lost(&ov, idle), 0);
        let root = ov.root();
        assert!(roles(root) >= 2);
        assert_eq!(rec.mark_lost(&ov, root), roles(root));
        assert!(!rec.holds(&ov, root, ov.height()));
    }

    #[test]
    fn sdl_entries_roundtrip() {
        let ov = overlay();
        let mut rec = published(&ov, NodeId(9));
        let guards = all_guards(&ov, &rec);
        assert!(!guards.is_empty());
        for &(_, host, _) in &guards {
            let expect = guards
                .iter()
                .filter(|g| g.1 == host)
                .map(|g| (g.0, g.2))
                .min();
            assert_eq!(rec.guard(&ov, host), expect);
        }
        // No guards where special parents are off.
        for tl in &mut rec.trail {
            tl.guarded = false;
        }
        assert!(all_guards(&ov, &rec).is_empty());
        assert!(guards.iter().all(|g| rec.guard(&ov, g.1).is_none()));
    }

    #[test]
    fn sdl_supports_multiple_levels_per_host() {
        let ov = overlay();
        let mut rec = published(&ov, NodeId(36));
        let guards = all_guards(&ov, &rec);
        let levels_of = |host: NodeId| guards.iter().filter(move |g| g.1 == host).map(|g| g.0);
        let (host, first) = guards
            .iter()
            .find_map(|g| {
                let (lo, hi) = (levels_of(g.1).min(), levels_of(g.1).max());
                (lo != hi).then_some((g.1, lo.unwrap()))
            })
            .expect("some host guards two levels");
        assert_eq!(rec.guard(&ov, host).map(|p| p.0), Some(first));
        // Losing the lower level at that host exposes the next one.
        rec.lost.push((first as u32, host));
        let next = guards
            .iter()
            .filter(|g| g.1 == host && g.0 > first)
            .map(|g| (g.0, g.2))
            .min();
        assert_eq!(rec.guard(&ov, host), next);
    }

    #[test]
    fn guard_probe_is_the_minimum_live_pair_at_its_host() {
        // A fragmented trail, each level climbed on a different path, with
        // one lost mark: every probe, direct or through the filter, must
        // agree with a brute-force reading of the view.
        let ov = overlay();
        let mut rec = published(&ov, NodeId(0));
        for (level, tl) in rec.trail.iter_mut().enumerate() {
            tl.origin = NodeId((level as u32 * 23 + 5) % 64);
        }
        rec.trail[0].origin = NodeId(63);
        rec.lost.push((1, ov.station(rec.trail[1].origin, 1)[0]));
        let guards = all_guards(&ov, &rec);
        let prober = rec.prober(&ov);
        for v in (0..64).map(NodeId) {
            let dl = (0..=ov.height())
                .find(|&l| ov.station(rec.trail[l].origin, l).contains(&v) && !rec.is_lost(l, v));
            let sdl = guards
                .iter()
                .filter(|g| g.1 == v && !rec.is_lost(g.0, v))
                .map(|g| (g.0, g.2))
                .min();
            let expect = match (dl, sdl) {
                (Some(l), _) => Some(Probe::Dl(l)),
                (None, Some((l, c))) => Some(Probe::Sdl(l, c)),
                (None, None) => None,
            };
            assert_eq!(rec.probe(&ov, v), expect, "{v}");
            assert_eq!(prober.probe(v), expect, "{v} through the filter");
        }
    }

    #[test]
    fn a_crash_mark_hides_one_nodes_entries_until_the_level_is_replaced() {
        let ov = overlay();
        let mut rec = published(&ov, NodeId(18));
        assert!(rec.lost.is_empty(), "a fresh record carries no marks");
        let root = ov.root();
        let levels: Vec<usize> = (0..=ov.height())
            .filter(|&l| rec.holds(&ov, root, l))
            .collect();
        assert!(levels.len() >= 2);
        let wiped = rec.mark_lost(&ov, root);
        assert!(wiped >= levels.len());
        assert_eq!(
            rec.mark_lost(&ov, root),
            0,
            "a second crash finds nothing live"
        );
        assert!(levels.iter().all(|&l| !rec.holds(&ov, root, l)));
        assert_eq!(rec.guard(&ov, root), None);
        assert_eq!(rec.probe(&ov, root), None);
        // Rebuilt levels lose their marks; the top one keeps its own.
        let top = *levels.last().unwrap();
        rec.clear_lost_below(top);
        assert!(levels[..levels.len() - 1]
            .iter()
            .all(|&l| rec.holds(&ov, root, l)));
        assert!(!rec.holds(&ov, root, top));
        assert!(rec
            .lost
            .iter()
            .all(|&(l, v)| l as usize >= top && v == root));
    }

    #[test]
    fn record_proxy_is_bottom_holder() {
        let ov = overlay();
        let rec = published(&ov, NodeId(5));
        assert_eq!(rec.proxy(), NodeId(5));
        assert_eq!(rec.trail[0].holders(&ov, 0), [NodeId(5)]);
    }
}
