//! The five workloads and what they share.
//!
//! Every parameter of a workload is a literal in this directory. Where a
//! library type has a preset constructor (`OverlayConfig::practical()`,
//! `ServiceConfig::new`, `Profile::standard`) the harness starts from it
//! — so a field added later does not break the build — and then assigns
//! every field that exists today, so a later change to the preset cannot
//! silently change what is measured.

pub mod cold_start;
pub mod figures;
pub mod replay;
pub mod service;

use mot_core::MotConfig;
use mot_hierarchy::{build_doubling, Overlay, OverlayConfig};
use mot_net::{generators, DistanceOracle, Graph, NodeId, OracleKind};

use crate::harness::{Error, Tally, Workload};
use crate::trace::{Pass, Tracer};

/// Overlay constants of every bed.
pub fn overlay_config() -> OverlayConfig {
    let mut c = OverlayConfig::practical();
    c.parent_set_radius_mult = 1.0;
    c.sp_gap = 2;
    c.general_trials_per_log_n = 1.0;
    c.general_radius_mult = 1.0;
    c
}

/// Tracker switches of every directly driven `MotTracker`: plain MOT.
pub fn mot_config() -> MotConfig {
    let mut c = MotConfig::plain();
    c.use_special_parents = true;
    c.count_sp_cost = false;
    c.load_balance = false;
    c.count_lb_cost = false;
    c
}

/// The three parts of a bed.
pub struct GridBed {
    /// The `side × side` unit grid.
    pub graph: Graph,
    /// Its `OracleKind::Auto` backend: dense up to 4096 sensors, cached
    /// beyond.
    pub oracle: Box<dyn DistanceOracle>,
    /// The doubling overlay, built against that (unwrapped) oracle.
    pub overlay: Overlay,
}

/// Graph → oracle → overlay through the public builders, one span each.
pub fn build_grid_bed(side: usize, seed: u64, tr: &mut Tracer) -> Result<GridBed, Error> {
    let s = tr.begin("net.graph_build");
    let graph = generators::grid(side, side)?;
    tr.end(s);
    let s = tr.begin("net.oracle_build");
    let oracle = OracleKind::Auto.build(&graph)?;
    tr.end(s);
    let s = tr.begin("hierarchy.build");
    let overlay = build_doubling(&graph, &*oracle, &overlay_config(), seed);
    tr.end(s);
    Ok(GridBed {
        graph,
        oracle,
        overlay,
    })
}

/// The warm-up of a steady-state workload: one plain rep on the fresh
/// bed, as the last step of set-up, under one span. Its outputs are
/// checked like any rep's.
pub fn warm_up<W: Workload>(w: &W, bed: &W::Bed, tr: &mut Tracer) -> Result<(), Error> {
    let s = tr.begin("harness.warm_up");
    let rep = w.rep(bed, Pass::Plain, &mut Tracer::new(false))?;
    tr.end(s);
    if rep.tally.failed > 0 {
        return Err("the warm-up rep failed its output checks".into());
    }
    Ok(())
}

/// FNV-1a, the digest of every simulated statistic a rep produces.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a cost's exact bit pattern in.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// SplitMix64: the harness's own seeded draws (query origins and the
/// like), so it needs no RNG crate.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform node of an `n`-node graph.
    pub fn node(&mut self, n: usize) -> NodeId {
        NodeId::from_index((self.next() % n as u64) as usize)
    }
}

/// Shape of an overlay as exact-repeat counts, plus the structural check
/// every bed must pass: a single member at the top level.
pub fn overlay_shape(overlay: &Overlay, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let h = overlay.height();
    tally.check(overlay.level_members(h).len() == 1);
    let members: usize = (0..=h).map(|l| overlay.level_members(l).len()).sum();
    vec![
        ("hierarchy.height", h as f64),
        ("hierarchy.members_total", members as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix_is_seeded_and_in_range() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix(7).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "same seed, same draw");
        let mut r = SplitMix(7);
        assert!((0..1000).all(|_| r.node(10).index() < 10));
        assert_ne!(SplitMix(1).next(), SplitMix(2).next());
    }

    #[test]
    fn configs_pin_todays_presets() {
        let o = overlay_config();
        assert_eq!((o.parent_set_radius_mult, o.sp_gap), (1.0, 2));
        let m = mot_config();
        assert!(m.use_special_parents && !m.load_balance);
    }
}
