//! Frozen oracle-scan doubling builder: the parity witness.
//!
//! This is the doubling construction exactly as it existed before the
//! bounded-ball rewrite of [`build_doubling`](crate::build_doubling):
//! per level, an `O(k²)` all-pairs oracle scan for the connectivity
//! graph, `nearest_in` scans for default parents, and a per-node scan
//! over the level membership for every detection-path station.
//!
//! Nothing dispatches to it. It is kept, unchanged, for two jobs:
//!
//! * **Parity witness** — the `hierarchy_parity` and `hop_table` tests
//!   assert [`build_doubling`](crate::build_doubling) produces a
//!   bit-identical overlay (same levels, same parents, same stations,
//!   same hop lengths) on every topology generator, which is what lets
//!   it claim the DESIGN.md §12 determinism contract.
//! * **Benchmark yardstick** — `experiments bench-baseline` times this
//!   builder next to the real one on identical inputs, so the
//!   `BENCH_*.json` speedup column always measures against the same
//!   frozen code, on the same machine, in the same process.
//!
//! Do not optimize this module; that would defeat both jobs. Its last
//! step stores the per-node stations in the flat station table, every
//! hop length read from the oracle this builder already scans.

use crate::config::OverlayConfig;
use crate::mis::luby_mis;
use crate::overlay::{Overlay, OverlayKind};
use crate::table::StationTable;
use mot_net::{DistanceOracle, Graph, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// The pre-optimization [`build_doubling`](crate::build_doubling):
/// identical output, oracle-scan construction. See the module docs for
/// why this is kept verbatim.
pub fn reference_build_doubling(
    g: &Graph,
    m: &dyn DistanceOracle,
    cfg: &OverlayConfig,
    seed: u64,
) -> Overlay {
    assert_eq!(
        g.node_count(),
        m.node_count(),
        "graph and oracle disagree on n"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = g.node_count();

    let mut levels: Vec<Vec<NodeId>> = vec![g.nodes().collect()];
    for level in 1..=64usize {
        let prev = &levels[level - 1];
        if prev.len() == 1 {
            break;
        }
        let radius = (1u64 << level) as f64;
        let adjacency: Vec<Vec<usize>> = prev
            .iter()
            .map(|&u| {
                prev.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != u && m.dist(u, v) < radius)
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        let mis = luby_mis(prev, &adjacency, &mut rng);
        levels.push(mis);
    }
    assert_eq!(
        levels.last().map(Vec::len),
        Some(1),
        "doubling construction did not converge to a root (n = {n}, D = {})",
        m.diameter()
    );
    let height = levels.len() - 1;

    let default_parent: Vec<HashMap<NodeId, NodeId>> = (0..height)
        .map(|l| {
            levels[l]
                .iter()
                .map(|&w| {
                    let p = m
                        .nearest_in(w, &levels[l + 1])
                        .expect("non-empty upper level");
                    debug_assert!(
                        m.dist(w, p) < (1u64 << (l + 1)) as f64 + 1e-6,
                        "default parent must lie within 2^(l+1): dist({w},{p}) = {}",
                        m.dist(w, p)
                    );
                    (w, p)
                })
                .collect()
        })
        .collect();

    let paths: Vec<Vec<Vec<NodeId>>> = g
        .nodes()
        .map(|u| {
            let mut stations = Vec::with_capacity(height + 1);
            stations.push(vec![u]);
            let mut home = u;
            for l in 1..=height {
                let dp = default_parent[l - 1][&home];
                let radius = cfg.parent_set_radius_mult * (1u64 << l) as f64;
                let mut station: Vec<NodeId> = levels[l]
                    .iter()
                    .copied()
                    .filter(|&v| m.dist(home, v) <= radius)
                    .collect();
                if !station.contains(&dp) {
                    station.push(dp);
                }
                station.sort();
                stations.push(station);
                home = dp;
            }
            stations
        })
        .collect();

    let table = StationTable::from_oracle(&paths, m);
    Overlay::new(OverlayKind::Doubling, levels, table, cfg.sp_gap)
}
