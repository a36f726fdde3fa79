//! Structural validation of overlays.
//!
//! Used by tests and by `mot-core`'s debug assertions: a malformed overlay
//! (empty station, unsorted visiting order, missing root, a stored hop
//! length that is not the oracle's) would silently corrupt detection
//! lists or cost accounts, so the checks live next to the constructions.

use crate::overlay::{Overlay, OverlayKind};
use mot_net::DistanceOracle;

/// Collects human-readable descriptions of every structural violation.
/// An empty result means the overlay is well-formed.
pub fn validate(o: &Overlay, m: &dyn DistanceOracle) -> Vec<String> {
    let mut issues = Vec::new();
    let h = o.height();
    if o.level_members(h).len() != 1 {
        issues.push(format!(
            "top level has {} members, expected exactly the root",
            o.level_members(h).len()
        ));
    }
    for ui in 0..o.node_count() {
        let u = mot_net::NodeId::from_index(ui);
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
        // level-ℓ members pairwise >= 2^ℓ apart (MIS separation).
        // Checked through ball queries instead of all member pairs: a
        // violating pair (a, b) has b ∈ N(a, 2^ℓ), so scanning each
        // member's ball against the member set finds every violation
        // while asking the oracle only for neighborhood-sized work —
        // no O(k²) dist scan, hence no row warm-up on on-demand
        // backends.
        for l in 1..=h {
            let members = o.level_members(l);
            let member_set: std::collections::HashSet<_> = members.iter().copied().collect();
            let sep = (1u64 << l) as f64;
            for &a in members {
                for b in m.ball(a, sep) {
                    if a < b && member_set.contains(&b) && m.dist(a, b) < sep {
                        issues.push(format!(
                            "level {l}: members {a}, {b} violate 2^{l} separation"
                        ));
                    }
                }
            }
        }
    }
    issues
}

/// Panics with a readable report if the overlay is malformed. Handy in
/// tests and example binaries.
pub fn assert_valid(o: &Overlay, m: &dyn DistanceOracle) {
    let issues = validate(o, m);
    assert!(issues.is_empty(), "overlay invalid:\n{}", issues.join("\n"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OverlayConfig;
    use crate::{build_doubling, build_general};
    use mot_net::generators;
    use mot_net::DenseOracle;

    #[test]
    fn doubling_overlays_validate() {
        for (r, c) in [(3, 3), (6, 6), (8, 8)] {
            let g = generators::grid(r, c).unwrap();
            let m = DenseOracle::build(&g).unwrap();
            for cfg in [OverlayConfig::practical(), OverlayConfig::paper_exact()] {
                let o = build_doubling(&g, &m, &cfg, 42);
                assert_valid(&o, &m);
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
        let issues = validate(&o, &stretched.unwrap());
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
        let u = mot_net::NodeId(7);
        let from = o.station(u, 1)[0];
        let good = o
            .drop_hop(u, 0, from)
            .expect("every doubling slot is stored");
        assert_eq!(good.first, m.dist(from, u));

        let mut wrong = o.clone();
        wrong.corrupt_drop(u, 0, 0, Some(good.first as f32 + 1.0));
        let issues = validate(&wrong, &m);
        assert!(
            issues.iter().any(|i| i.contains("stored drop from")),
            "{issues:?}"
        );

        let mut missing = o.clone();
        missing.corrupt_drop(u, 0, 0, None);
        assert_eq!(missing.drop_hop(u, 0, from), None);
        let issues = validate(&missing, &m);
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
            let o = build_general(&g, &m, &OverlayConfig::practical(), 42);
            assert_valid(&o, &m);
        }
    }
}
