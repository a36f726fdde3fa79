//! Structural validation of overlays.
//!
//! [`validate`] checks what every overlay must be — non-empty, sorted
//! stations of level members from each node up to the root, every
//! stored hop and drop length the oracle's own answer bit for bit (a
//! wrong one would silently corrupt a cost account) — and, for a
//! doubling overlay, the §2.2 rules that define it:
//!
//! * level 0 is every node, and level ℓ is a subset of level ℓ − 1;
//! * level ℓ is a maximal independent set of level ℓ − 1 at radius
//!   `2^ℓ`: its members are pairwise `≥ 2^ℓ` apart, and every
//!   level-(ℓ − 1) node has one closer than `2^ℓ`;
//! * every home's default parent is its (distance, id)-nearest member
//!   of the level above;
//! * a station is the members of its level within `ρ · 2^ℓ` of its
//!   home, plus that parent, in id order — along each node's chain of
//!   homes, which climbs from the node by default parents.
//!
//! The rules are stated once, as functions of two adjacent level
//! slices, and the crate's tests hold both doubling constructions to
//! them: [`build_doubling`](crate::build_doubling)'s overlays through
//! [`validate`], `RepairableHierarchy`'s parents and stations directly.
//!
//! Only tests call it — this crate's unit tests and its
//! `hierarchy_parity` and `hop_table` suites; no build or tracker path
//! does. It asks the oracle for `O(Σ_ℓ k_{ℓ−1} · k_ℓ)` distances for
//! the rules (`k_ℓ` members in level ℓ) and one per stored hop and drop
//! slot. On the on-demand backend every distance is a solve, so callers
//! hand it a dense matrix.

use crate::config::OverlayConfig;
use crate::overlay::{Overlay, OverlayKind};
use mot_net::{DistanceOracle, NodeId};

/// Collects human-readable descriptions of every structural violation
/// of an overlay built with `cfg`. An empty result means the overlay is
/// well-formed.
pub fn validate(o: &Overlay, m: &dyn DistanceOracle, cfg: &OverlayConfig) -> Vec<String> {
    let mut issues = Vec::new();
    let h = o.height();
    if o.level_members(h).len() != 1 {
        issues.push(format!(
            "top level has {} members, expected exactly the root",
            o.level_members(h).len()
        ));
    }
    for ui in 0..o.node_count() {
        let u = NodeId::from_index(ui);
        if o.station(u, 0) != [u] {
            issues.push(format!("station({u}, 0) is not [{u}]"));
        }
        if o.station(u, h) != [o.root()] {
            issues.push(format!("station({u}, {h}) does not equal the root"));
        }
        // The stop of DPath(u) visited before the current one.
        let mut prev = u;
        for l in 0..=h {
            let s = o.station(u, l);
            if s.is_empty() {
                issues.push(format!("station({u}, {l}) is empty"));
            }
            if !s.windows(2).all(|w| w[0] < w[1]) {
                issues.push(format!("station({u}, {l}) not sorted/deduped"));
            }
            for (j, &member) in s.iter().enumerate() {
                if o.level_members(l).binary_search(&member).is_err() {
                    issues.push(format!(
                        "station({u}, {l}) member {member} is not a level-{l} node"
                    ));
                }
                // Trackers bill the stored hop lengths instead of asking
                // the oracle, so each must be the oracle's own answer bit
                // for bit — intra-station hops in the rollback direction
                // too.
                let (got, want) = (o.hop_in(u, l, j), m.dist(prev, member));
                if got.to_bits() != want.to_bits() {
                    issues.push(format!(
                        "DPath({u}) level {l} stop {j}: stored hop {prev}->{member} is {got}, oracle says {want}"
                    ));
                }
                if j > 0 {
                    let (got, want) = (o.hop_back(u, l, j), m.dist(member, prev));
                    if got.to_bits() != want.to_bits() {
                        issues.push(format!(
                            "DPath({u}) level {l} stop {j}: stored reverse hop {member}->{prev} is {got}, oracle says {want}"
                        ));
                    }
                }
                prev = member;
            }
            // Downward walks bill the stored drops the same way: one
            // slot per member of the station above, each holding the
            // oracle's distance to the first member of this station and
            // to its (distance, id)-nearest one.
            if l < h {
                for &from in o.station(u, l + 1) {
                    let Some(drop) = o.drop_hop(u, l, from) else {
                        issues.push(format!("DPath({u}) level {l}: no stored drop from {from}"));
                        continue;
                    };
                    let want = s
                        .iter()
                        .map(|&to| m.dist(from, to))
                        .enumerate()
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .map(|(at, d)| (m.dist(from, s[0]).to_bits(), at, d.to_bits()));
                    let got = (
                        drop.first.to_bits(),
                        drop.nearest,
                        drop.nearest_dist.to_bits(),
                    );
                    if Some(got) != want {
                        issues.push(format!(
                            "DPath({u}) level {l}: stored drop from {from} is {drop:?}, oracle says {:?}",
                            s.iter().map(|&to| m.dist(from, to)).collect::<Vec<_>>()
                        ));
                    }
                }
            }
        }
    }
    if o.kind() == OverlayKind::Doubling {
        issues.extend(doubling_issues(o, m, cfg));
    }
    issues
}

/// The doubling rules (see the module docs): each level against the one
/// below it, then every node's stations along its chain of homes, each
/// expected station computed once per (level, home).
fn doubling_issues(o: &Overlay, m: &dyn DistanceOracle, cfg: &OverlayConfig) -> Vec<String> {
    let n = o.node_count();
    if !o
        .level_members(0)
        .iter()
        .copied()
        .eq((0..n).map(NodeId::from_index))
    {
        // Chains of homes start at every node's own level-0 record.
        return vec!["level 0 is not every node".into()];
    }
    let mut issues = Vec::new();
    let mut rules = Vec::with_capacity(o.height());
    for l in 1..=o.height() {
        let (lower, upper) = (o.level_members(l - 1), o.level_members(l));
        if upper.is_empty() {
            issues.push(format!("level {l} is empty"));
            return issues;
        }
        issues.extend(level_issues(l, lower, upper, m));
        let reach = cfg.parent_set_radius_mult * (1u64 << l) as f64;
        rules.push(home_rules(lower, upper, reach, m));
    }
    for u in (0..n).map(NodeId::from_index) {
        let mut home = u;
        for (l, level_rules) in (1..).zip(&rules) {
            // The rule's parents are level members, so the chain never
            // leaves the levels whatever the overlay holds.
            let at = o.level_members(l - 1).binary_search(&home);
            let (parent, want) = &level_rules[at.expect("a home is a member of the level below")];
            let got = o.station(u, l);
            if got.binary_search(parent).is_err() {
                issues.push(format!(
                    "station({u}, {l}) lacks {parent}, the default parent of home {home}"
                ));
            } else if got != want.as_slice() {
                issues.push(format!(
                    "station({u}, {l}) is {got:?}, the station rule gives {want:?}"
                ));
            }
            home = *parent;
        }
    }
    issues
}

/// Where level `l` (`upper`) fails to be a maximal independent set of
/// level `l − 1` (`lower`) at radius `2^l`: a member that is not in the
/// level below, two members closer than `2^l`, a level-(l − 1) node with
/// no member closer than `2^l`. Both slices are sorted by id.
pub(crate) fn level_issues(
    l: usize,
    lower: &[NodeId],
    upper: &[NodeId],
    m: &dyn DistanceOracle,
) -> Vec<String> {
    let sep = (1u64 << l) as f64;
    let mut issues = Vec::new();
    for (i, &a) in upper.iter().enumerate() {
        if lower.binary_search(&a).is_err() {
            issues.push(format!(
                "level {l}: member {a} is not a level-{} node",
                l - 1
            ));
        }
        for &b in &upper[i + 1..] {
            if m.dist(a, b) < sep {
                issues.push(format!(
                    "level {l}: members {a}, {b} violate 2^{l} separation"
                ));
            }
        }
    }
    for &w in lower {
        if upper.iter().all(|&v| m.dist(w, v) >= sep) {
            issues.push(format!(
                "level {l} is not maximal: level-{} node {w} has no member within 2^{l}",
                l - 1
            ));
        }
    }
    issues
}

/// The default parent and station the doubling rules give each home in
/// `lower`, in `lower`'s order: its (distance, id)-nearest member of
/// `upper` (non-empty), and the members of `upper` within `reach` of it
/// plus that parent, in id order (`upper`'s).
pub(crate) fn home_rules(
    lower: &[NodeId],
    upper: &[NodeId],
    reach: f64,
    m: &dyn DistanceOracle,
) -> Vec<(NodeId, Vec<NodeId>)> {
    lower
        .iter()
        .map(|&home| {
            let parent = m.nearest_in(home, upper).expect("a non-empty level");
            let station = upper
                .iter()
                .copied()
                .filter(|&v| v == parent || m.dist(home, v) <= reach)
                .collect();
            (parent, station)
        })
        .collect()
}

/// Panics with a readable report if the overlay, built with `cfg`, is
/// malformed.
pub fn assert_valid(o: &Overlay, m: &dyn DistanceOracle, cfg: &OverlayConfig) {
    let issues = validate(o, m, cfg);
    assert!(issues.is_empty(), "overlay invalid:\n{}", issues.join("\n"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::StationTable;
    use crate::{build_doubling, build_general};
    use mot_net::generators;
    use mot_net::DenseOracle;

    /// Per level ℓ ≥ 1, each level-(ℓ − 1) home's (default parent,
    /// station), in home order.
    type Rules = Vec<Vec<(NodeId, Vec<NodeId>)>>;

    fn rules_of(levels: &[Vec<NodeId>], m: &DenseOracle, cfg: &OverlayConfig) -> Rules {
        (1..levels.len())
            .map(|l| {
                let reach = cfg.parent_set_radius_mult * (1u64 << l) as f64;
                home_rules(&levels[l - 1], &levels[l], reach, m)
            })
            .collect()
    }

    /// What `validate` finds, against `cfg`, in an overlay of a 9×9
    /// grid assembled from its build's levels after `edit_levels`, and
    /// stations along the chains of homes that the rules give after
    /// `edit_rules` — every hop read from the matrix, so only the edits
    /// can break a rule.
    fn issues_after(
        cfg: &OverlayConfig,
        edit_levels: impl FnOnce(&mut Vec<Vec<NodeId>>, &DenseOracle),
        edit_rules: impl FnOnce(&mut Rules),
    ) -> Vec<String> {
        let g = generators::grid(9, 9).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let o = build_doubling(&g, &m, cfg, 42);
        let mut levels: Vec<Vec<NodeId>> = (0..=o.height())
            .map(|l| o.level_members(l).to_vec())
            .collect();
        assert!(levels.len() > 3, "the edits need a level above level 2");
        edit_levels(&mut levels, &m);
        let mut rules = rules_of(&levels, &m, cfg);
        edit_rules(&mut rules);
        let paths: Vec<Vec<Vec<NodeId>>> = g
            .nodes()
            .map(|u| {
                let mut path = vec![vec![u]];
                let mut home = u;
                for (l, level_rules) in rules.iter().enumerate() {
                    let (parent, station) = &level_rules[levels[l].binary_search(&home).unwrap()];
                    path.push(station.clone());
                    home = *parent;
                }
                path
            })
            .collect();
        let table = StationTable::from_oracle(&paths, &m);
        validate(
            &Overlay::new(OverlayKind::Doubling, levels, table, cfg.sp_gap),
            &m,
            cfg,
        )
    }

    #[test]
    fn an_overlay_assembled_by_the_rules_is_valid() {
        for cfg in [
            OverlayConfig::practical(),
            OverlayConfig::paper_exact(),
            OverlayConfig::singleton_parents(),
        ] {
            assert_eq!(issues_after(&cfg, |_, _| {}, |_| {}), Vec::<String>::new());
        }
    }

    #[test]
    fn a_dropped_level_member_breaks_maximality() {
        let mut dropped = None;
        let issues = issues_after(
            &OverlayConfig::practical(),
            |levels, _| {
                // A level-1 member that level 2 does not need: the
                // others are ≥ 2 away from it, so it is left uncovered.
                let at = (0..levels[1].len())
                    .find(|&i| levels[2].binary_search(&levels[1][i]).is_err())
                    .unwrap();
                dropped = Some(levels[1].remove(at));
            },
            |_| {},
        );
        let v = dropped.unwrap();
        let want = format!("level 1 is not maximal: level-0 node {v} has no member within 2^1");
        assert!(issues.contains(&want), "{issues:?}");
        assert!(
            issues.iter().all(|i| i.contains("is not maximal")),
            "{issues:?}"
        );
    }

    #[test]
    fn an_added_close_member_breaks_separation() {
        let mut pair = None;
        let issues = issues_after(
            &OverlayConfig::practical(),
            |levels, m| {
                let a = levels[1][0];
                let w = *levels[0].iter().find(|&&w| m.dist(a, w) == 1.0).unwrap();
                let at = levels[1].binary_search(&w).unwrap_err();
                levels[1].insert(at, w);
                pair = Some((a.min(w), a.max(w)));
            },
            |_| {},
        );
        let (a, b) = pair.unwrap();
        let want = format!("level 1: members {a}, {b} violate 2^1 separation");
        assert!(issues.contains(&want), "{issues:?}");
    }

    #[test]
    fn a_swapped_default_parent_is_reported() {
        // With singleton parent sets a station is its home's default
        // parent alone, so the swap shows at the level it happens.
        let mut swap = None;
        let issues = issues_after(
            &OverlayConfig::singleton_parents(),
            |_, _| {},
            |rules| {
                // Some home's parent, so a level-1 member.
                let other = rules[0].iter().map(|r| r.0).max().unwrap();
                let (home, (parent, station)) = rules[0]
                    .iter_mut()
                    .enumerate()
                    .find(|(_, (parent, _))| *parent != other)
                    .unwrap();
                swap = Some((NodeId::from_index(home), *parent));
                *parent = other;
                *station = vec![other];
            },
        );
        let (home, parent) = swap.unwrap();
        let want = format!("station({home}, 1) lacks {parent}, the default parent of home {home}");
        assert!(issues.contains(&want), "{issues:?}");
    }

    #[test]
    fn a_station_missing_an_in_radius_member_is_reported() {
        let mut edit = None;
        let issues = issues_after(
            &OverlayConfig::practical(),
            |_, _| {},
            |rules| {
                let (home, (parent, station)) = rules[0]
                    .iter_mut()
                    .enumerate()
                    .find(|(_, (_, station))| station.len() > 1)
                    .unwrap();
                let want = station.clone();
                let at = station.iter().position(|v| v != parent).unwrap();
                station.remove(at);
                edit = Some((NodeId::from_index(home), station.clone(), want));
            },
        );
        let (u, got, want) = edit.unwrap();
        let report = format!("station({u}, 1) is {got:?}, the station rule gives {want:?}");
        assert_eq!(issues, vec![report]);
    }

    #[test]
    fn a_practical_overlay_fails_the_paper_exact_station_rule() {
        let g = generators::grid(9, 9).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let o = build_doubling(&g, &m, &OverlayConfig::practical(), 42);
        let issues = validate(&o, &m, &OverlayConfig::paper_exact());
        assert!(!issues.is_empty());
        // Same levels and parents, smaller stations.
        assert!(
            issues.iter().all(|i| i.contains("the station rule gives")),
            "{issues:?}"
        );
    }

    #[test]
    fn doubling_overlays_validate() {
        for (r, c) in [(3, 3), (6, 6), (8, 8)] {
            let g = generators::grid(r, c).unwrap();
            let m = DenseOracle::build(&g).unwrap();
            for cfg in [OverlayConfig::practical(), OverlayConfig::paper_exact()] {
                let o = build_doubling(&g, &m, &cfg, 42);
                assert_valid(&o, &m, &cfg);
            }
        }
    }

    #[test]
    fn a_hop_length_from_another_metric_is_reported() {
        // The table of a unit grid checked against the same grid with
        // stretched edges: every positive stored hop must be flagged.
        let g = generators::grid(5, 5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let o = build_doubling(&g, &m, &OverlayConfig::practical(), 42);
        let stretched = DenseOracle::build(&generators::perturbed_grid(5, 5, 0.3, 1).unwrap());
        let issues = validate(&o, &stretched.unwrap(), &OverlayConfig::practical());
        assert!(
            issues.iter().any(|i| i.contains("stored hop")),
            "{issues:?}"
        );
        assert!(
            issues.iter().any(|i| i.contains("stored reverse hop")),
            "{issues:?}"
        );
    }

    #[test]
    fn a_missing_or_wrong_drop_is_reported() {
        let g = generators::grid(5, 5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let o = build_doubling(&g, &m, &OverlayConfig::practical(), 42);
        let u = NodeId(7);
        let from = o.station(u, 1)[0];
        let good = o
            .drop_hop(u, 0, from)
            .expect("every doubling slot is stored");
        assert_eq!(good.first, m.dist(from, u));

        let mut wrong = o.clone();
        wrong.corrupt_drop(u, 0, 0, Some(good.first as f32 + 1.0));
        let issues = validate(&wrong, &m, &OverlayConfig::practical());
        assert!(
            issues.iter().any(|i| i.contains("stored drop from")),
            "{issues:?}"
        );

        let mut missing = o.clone();
        missing.corrupt_drop(u, 0, 0, None);
        assert_eq!(missing.drop_hop(u, 0, from), None);
        let issues = validate(&missing, &m, &OverlayConfig::practical());
        assert!(
            issues.iter().any(|i| i.contains("no stored drop from")),
            "{issues:?}"
        );
    }

    #[test]
    fn general_overlays_validate() {
        for g in [
            generators::grid(6, 6).unwrap(),
            generators::ring(30).unwrap(),
            generators::random_tree(40, 5).unwrap(),
        ] {
            let m = DenseOracle::build(&g).unwrap();
            let cfg = OverlayConfig::practical();
            let o = build_general(&g, &m, &cfg, 42);
            assert_valid(&o, &m, &cfg);
        }
    }
}
