//! One-stop experiment environments.
//!
//! A [`TestBed`] bundles a topology, its distance oracle, and a prebuilt
//! overlay; [`TestBed::make_tracker`] instantiates any of the compared
//! algorithms over it. The traffic-conscious baselines receive the
//! workload's measured [`DetectionRates`]; MOT never sees them
//! (traffic-obliviousness is its defining property).
//!
//! The bed owns its parts; [`tracker_over`] is the same instantiation
//! over *borrowed* parts, for callers that build one graph, oracle or
//! overlay and run several trackers on it (the figure runners share
//! them between the cells of a sweep). `make_tracker` is that function
//! applied to the bed's own fields — there is no second copy of the
//! algorithm table.

use crate::concurrent::ClimbStructure;
use crate::error::SimError;
use crate::faults::FaultConfig;
use mot_baselines::{build_dat, build_stun, build_zdat, DetectionRates, TreeTracker, ZdatParams};
use mot_core::{MotConfig, MotTracker, TraceSink};
use mot_hierarchy::{build_doubling, build_general, Overlay, OverlayConfig};
use mot_net::{DistanceOracle, Graph, NodeId, OracleKind};

/// The algorithms compared in the paper's evaluation, plus the ablation
/// variants this reproduction adds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// MOT, plain (Algorithm 1).
    Mot,
    /// MOT with §5 load balancing (hashing + de Bruijn routing costs).
    MotLb,
    /// MOT without special parents (ablation: Fig. 2 pathology).
    MotNoSp,
    /// STUN via Drain-And-Balance (Kung & Vlah).
    Stun,
    /// Deviation-Avoidance Tree (Lin et al.).
    Dat,
    /// Zone-based DAT (Lin et al.).
    Zdat,
    /// Z-DAT wrapped with Liu-et-al.-style shortcuts.
    ZdatShortcuts,
}

impl Algo {
    /// The four algorithms the paper's figures compare.
    pub fn paper_lineup() -> [Algo; 4] {
        [Algo::Mot, Algo::Stun, Algo::Zdat, Algo::ZdatShortcuts]
    }

    /// Display name used in reports (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            Algo::Mot => "MOT",
            Algo::MotLb => "MOT+LB",
            Algo::MotNoSp => "MOT-noSP",
            Algo::Stun => "STUN",
            Algo::Dat => "DAT",
            Algo::Zdat => "Z-DAT",
            Algo::ZdatShortcuts => "Z-DAT+shortcuts",
        }
    }
}

/// A topology with its oracle and overlay, ready to instantiate trackers.
///
/// The oracle is a boxed [`DistanceOracle`] chosen via [`OracleKind`]:
/// dense (exact all-pairs matrix) by default up to
/// [`OracleKind::DENSE_NODE_LIMIT`] nodes, the on-demand cached
/// backend (one bounded solve per call) beyond that — so no bed
/// construction ever performs an n² warm-up.
pub struct TestBed {
    /// The sensor-network topology.
    pub graph: Graph,
    /// Distance backend every cost account is billed against.
    pub oracle: Box<dyn DistanceOracle>,
    /// The hierarchical overlay the trackers are built on.
    pub overlay: Overlay,
    /// Optional fault environment. Nothing here reads it: a run expands
    /// its own config with [`FaultConfig::plan`].
    pub faults: Option<FaultConfig>,
}

impl TestBed {
    /// Builds a bed over an arbitrary connected graph with the doubling
    /// (MIS) overlay — the constant-doubling model used by the paper's
    /// experiments. Errors (instead of panicking) on topologies the
    /// distance backend rejects, e.g. disconnected graphs.
    pub fn new(graph: Graph, seed: u64) -> Result<Self, SimError> {
        Self::with_config(graph, &OverlayConfig::practical(), seed)
    }

    /// Builds a bed with an explicit overlay configuration.
    pub fn with_config(graph: Graph, cfg: &OverlayConfig, seed: u64) -> Result<Self, SimError> {
        Self::with_oracle(graph, cfg, seed, OracleKind::Auto)
    }

    /// Builds a doubling-overlay bed on an explicit distance backend.
    pub fn with_oracle(
        graph: Graph,
        cfg: &OverlayConfig,
        seed: u64,
        kind: OracleKind,
    ) -> Result<Self, SimError> {
        Self::assemble(graph, cfg, seed, kind, false)
    }

    /// Builds a bed with the §6 general-network (sparse partition)
    /// overlay instead of the doubling one.
    pub fn general(graph: Graph, cfg: &OverlayConfig, seed: u64) -> Result<Self, SimError> {
        Self::assemble(graph, cfg, seed, OracleKind::Auto, true)
    }

    fn assemble(
        graph: Graph,
        cfg: &OverlayConfig,
        seed: u64,
        kind: OracleKind,
        general: bool,
    ) -> Result<Self, SimError> {
        let oracle = kind.build(&graph)?;
        let overlay = if general {
            build_general(&graph, &*oracle, cfg, seed)
        } else {
            build_doubling(&graph, &*oracle, cfg, seed)
        };
        Ok(TestBed {
            graph,
            oracle,
            overlay,
            faults: None,
        })
    }

    /// `rows × cols` unit grid bed (the paper's topology).
    pub fn grid(rows: usize, cols: usize, seed: u64) -> Result<Self, SimError> {
        Self::new(mot_net::generators::grid(rows, cols)?, seed)
    }

    /// Grid bed on an explicit distance backend.
    pub fn grid_with_oracle(
        rows: usize,
        cols: usize,
        seed: u64,
        kind: OracleKind,
    ) -> Result<Self, SimError> {
        Self::with_oracle(
            mot_net::generators::grid(rows, cols)?,
            &OverlayConfig::practical(),
            seed,
            kind,
        )
    }

    /// An `n`-sensor ring bed — the adversarial topology for any fixed
    /// spanning tree: the tree must drop one ring edge, and a ping-pong
    /// mover across the dropped edge pays the full circumference per
    /// unit move (the paper's lower-bound discussion; DESIGN.md §18).
    pub fn ring(n: usize, seed: u64) -> Result<Self, SimError> {
        Self::new(mot_net::generators::ring(n)?, seed)
    }

    /// An `n`-sensor line bed — the adversarial topology for sink-rooted
    /// baselines: queries near one end detour through the root.
    pub fn line(n: usize, seed: u64) -> Result<Self, SimError> {
        Self::new(mot_net::generators::line(n)?, seed)
    }

    /// The adjacent sensor pair with the deepest cluster boundary
    /// between them: the edge maximizing [`Overlay::meet_level`] (ties
    /// broken toward the smaller ids, so the pick is deterministic).
    /// Pinning a [`crate::MobilityModel::PingPong`] mover here makes
    /// every unit move cross the overlay's most expensive cut — the
    /// worst adversary a unit-speed object can mount against MOT.
    pub fn boundary_pair(&self) -> (NodeId, NodeId) {
        let mut best: Option<(usize, NodeId, NodeId)> = None;
        for u in self.graph.nodes() {
            for &v in self.graph.neighbors(u) {
                if u >= v {
                    continue;
                }
                let level = self.overlay.meet_level(u, v);
                if best.map(|(bl, _, _)| level > bl).unwrap_or(true) {
                    best = Some((level, u, v));
                }
            }
        }
        let (_, a, b) = best.expect("non-empty graph has at least one edge");
        (a, b)
    }

    /// A graph center — the sink the tree baselines root at
    /// ([`graph_center`] of this bed's graph).
    pub fn center(&self) -> NodeId {
        graph_center(&self.graph)
    }

    /// Instantiates `algo` over this bed. `rates` is the traffic
    /// knowledge handed to the traffic-conscious baselines (ignored by
    /// the MOT variants). Errors if the bed's topology lacks what the
    /// algorithm needs (Z-DAT requires node positions).
    pub fn make_tracker<'a>(
        &'a self,
        algo: Algo,
        rates: &DetectionRates,
    ) -> Result<Box<dyn ClimbStructure + 'a>, SimError> {
        tracker_over(&self.graph, &*self.oracle, &self.overlay, algo, rates, None)
    }

    /// [`TestBed::make_tracker`] with a structured-trace sink attached:
    /// every billed hop the tracker performs is mirrored to `sink` (see
    /// the observability contract on [`mot_core::Tracker`]).
    pub fn make_tracker_traced<'a>(
        &'a self,
        algo: Algo,
        rates: &DetectionRates,
        sink: &'a dyn TraceSink,
    ) -> Result<Box<dyn ClimbStructure + 'a>, SimError> {
        tracker_over(
            &self.graph,
            &*self.oracle,
            &self.overlay,
            algo,
            rates,
            Some(sink),
        )
    }
}

/// A center of `graph` — the sink the tree baselines root at.
///
/// Eccentricities come from one graph-side Dijkstra per node
/// (quantized through f32 like every oracle read, so the pick is
/// identical to an oracle scan) instead of n² oracle `dist` calls —
/// on-demand backends would otherwise warm a full row per node.
pub fn graph_center(graph: &Graph) -> NodeId {
    let n = graph.node_count();
    let mut ws = mot_net::DijkstraWorkspace::with_capacity(n);
    let mut best: Option<(f64, NodeId)> = None;
    for u in (0..n).map(NodeId::from_index) {
        ws.sssp(graph, u);
        let ecc = (0..n)
            .map(|v| ws.dist(NodeId::from_index(v)) as f32 as f64)
            .fold(0.0, f64::max);
        if best.map(|(be, bu)| (ecc, u) < (be, bu)).unwrap_or(true) {
            best = Some((ecc, u));
        }
    }
    best.expect("non-empty graph").1
}

/// Instantiates `algo` over borrowed parts: a topology, the distance
/// backend its costs are billed against and an overlay built on both.
/// This is what [`TestBed::make_tracker`] runs on the bed's own fields;
/// callers that share one graph, oracle or overlay between several
/// trackers (the figure runners) call it directly. `rates` goes to the
/// traffic-conscious baselines only, `sink` mirrors every billed hop.
/// Errors if the topology lacks what the algorithm needs (Z-DAT
/// requires node positions).
pub fn tracker_over<'a>(
    graph: &Graph,
    oracle: &'a dyn DistanceOracle,
    overlay: &'a Overlay,
    algo: Algo,
    rates: &DetectionRates,
    sink: Option<&'a dyn TraceSink>,
) -> Result<Box<dyn ClimbStructure + 'a>, SimError> {
    let mot = |cfg: MotConfig| -> Box<dyn ClimbStructure + 'a> {
        let mut t = MotTracker::new(overlay, oracle, cfg);
        if let Some(s) = sink {
            t = t.with_sink(s);
        }
        Box::new(t)
    };
    let tree = |t: TreeTracker<'a>| -> Box<dyn ClimbStructure + 'a> {
        match sink {
            Some(s) => Box::new(t.with_sink(s)),
            None => Box::new(t),
        }
    };
    Ok(match algo {
        Algo::Mot => mot(MotConfig::plain()),
        Algo::MotLb => mot(MotConfig::load_balanced()),
        Algo::MotNoSp => mot(MotConfig::no_special_parents()),
        Algo::Stun => {
            // Kung & Vlah's queries are served from the sink: the
            // request travels to the root and descends from there.
            let t = build_stun(graph, rates);
            tree(TreeTracker::new("STUN", t, oracle, false).with_root_queries())
        }
        Algo::Dat => {
            let t = build_dat(graph, rates, graph_center(graph));
            tree(TreeTracker::new("DAT", t, oracle, false))
        }
        Algo::Zdat => {
            let t = build_zdat(graph, rates, ZdatParams::default())?;
            tree(TreeTracker::new("Z-DAT", t, oracle, false))
        }
        Algo::ZdatShortcuts => {
            let t = build_zdat(graph, rates, ZdatParams::default())?;
            tree(TreeTracker::new("Z-DAT+shortcuts", t, oracle, true))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::WorkloadSpec;
    use crate::run::{query_batch, replay, run_publish, Draw};

    #[test]
    fn all_algorithms_run_one_workload() {
        let bed = TestBed::grid(5, 5, 3).unwrap();
        let w = WorkloadSpec::new(3, 40, 1).generate(&bed.graph);
        let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
        for algo in [
            Algo::Mot,
            Algo::MotLb,
            Algo::MotNoSp,
            Algo::Stun,
            Algo::Dat,
            Algo::Zdat,
            Algo::ZdatShortcuts,
        ] {
            let mut t = bed.make_tracker(algo, &rates).unwrap();
            run_publish(t.as_mut(), &w).unwrap();
            let stats = replay(t.as_mut(), &w, &*bed.oracle, None).unwrap().cost;
            assert!(
                stats.ratio() >= 1.0,
                "{}: ratio {}",
                algo.label(),
                stats.ratio()
            );
            let q = query_batch(t.as_mut(), &*bed.oracle, 3, 50, 2, Draw::UNIFORM, None).unwrap();
            assert_eq!(q.correct, 50, "{} answered queries wrong", algo.label());
        }
    }

    #[test]
    fn ring_and_line_beds_build_and_track() {
        for bed in [TestBed::ring(16, 4).unwrap(), TestBed::line(16, 4).unwrap()] {
            let w = WorkloadSpec::new(2, 20, 5).generate(&bed.graph);
            let rates = DetectionRates::uniform(&bed.graph);
            let mut t = bed.make_tracker(Algo::Mot, &rates).unwrap();
            run_publish(t.as_mut(), &w).unwrap();
            replay(t.as_mut(), &w, &*bed.oracle, None).unwrap();
            let q = query_batch(t.as_mut(), &*bed.oracle, 2, 30, 1, Draw::UNIFORM, None).unwrap();
            assert_eq!(q.correct, 30);
        }
    }

    #[test]
    fn boundary_pair_is_a_deterministic_deep_cut_edge() {
        let bed = TestBed::grid(8, 8, 3).unwrap();
        let (a, b) = bed.boundary_pair();
        assert!(bed.graph.has_edge(a, b), "boundary pair must be an edge");
        assert_eq!((a, b), bed.boundary_pair(), "pick must be deterministic");
        // No edge meets strictly deeper than the reported pair.
        let level = bed.overlay.meet_level(a, b);
        for u in bed.graph.nodes() {
            for &v in bed.graph.neighbors(u) {
                assert!(bed.overlay.meet_level(u, v) <= level);
            }
        }
        assert!(level >= 1, "an 8×8 overlay has at least one real cut");
    }

    #[test]
    fn center_of_grid_is_central() {
        let bed = TestBed::grid(5, 5, 1).unwrap();
        assert_eq!(bed.center(), NodeId(12));
    }

    #[test]
    fn disconnected_graph_is_an_error_not_a_panic() {
        // Two 2-node islands: every distance backend must reject it, and
        // the bed has to surface that as `SimError::Net` instead of the
        // old `.expect("connected graph")` panic.
        let mut b = mot_net::GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        let g = b.build_unchecked();
        let err = match TestBed::new(g, 1) {
            Ok(_) => panic!("disconnected graph produced a bed"),
            Err(e) => e,
        };
        assert!(
            matches!(err, SimError::Net(_)),
            "expected a network error, got {err:?}"
        );
    }

    #[test]
    fn paper_lineup_has_the_four_compared_algorithms() {
        let labels: Vec<_> = Algo::paper_lineup().iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["MOT", "STUN", "Z-DAT", "Z-DAT+shortcuts"]);
    }

    #[test]
    fn general_overlay_bed_works_end_to_end() {
        let g = mot_net::generators::grid(5, 5).unwrap();
        let bed = TestBed::general(g, &mot_hierarchy::OverlayConfig::practical(), 2).unwrap();
        let w = WorkloadSpec::new(2, 30, 5).generate(&bed.graph);
        let rates = DetectionRates::uniform(&bed.graph);
        let mut t = bed.make_tracker(Algo::Mot, &rates).unwrap();
        run_publish(t.as_mut(), &w).unwrap();
        replay(t.as_mut(), &w, &*bed.oracle, None).unwrap();
        let q = query_batch(t.as_mut(), &*bed.oracle, 2, 40, 3, Draw::UNIFORM, None).unwrap();
        assert_eq!(q.correct, 40);
    }
}
