//! What the cells of one sweep run on, built once and shared.
//!
//! The paper charges every algorithm against the optimum on *the same
//! network and the same object traces*, so the cells of a sweep differ
//! in the algorithm and agree on everything else. [`SharedInputs`] holds
//! that common ground: per grid one [`Net`] (graph and distance
//! backend), and per grid and [`InputSpec`] one [`Drawn`] (overlay,
//! workload, detection rates). Each is built by whichever worker asks
//! first, handed to every cell that names it, and dropped when the last
//! of those cells has finished — a sweep holds the inputs of the grids
//! it is working on, not of the whole figure, and nothing outlives the
//! runner's call.
//!
//! Sharing cannot move a result (DESIGN.md §12): an input is a pure
//! function of `(grid, spec, backend)` — its random streams are seeded
//! from the spec, never from a worker or from another cell — and it is
//! immutable once built, so a cell reads the same bytes whoever built
//! them and whenever.

use mot_baselines::DetectionRates;
use mot_hierarchy::{build_doubling, Overlay, OverlayConfig};
use mot_net::{generators, DistanceOracle, Graph, OracleKind};
use mot_sim::{tracker_over, Algo, SimError, Workload, WorkloadSpec};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The seeds of one [`Drawn`]: the overlay's and the workload's.
#[derive(Clone, Debug)]
pub(crate) struct InputSpec {
    pub overlay_seed: u64,
    pub workload: WorkloadSpec,
}

/// A grid and the distance backend its costs are billed against.
pub(crate) struct Net {
    pub graph: Graph,
    pub oracle: Box<dyn DistanceOracle>,
}

/// What an [`InputSpec`] draws on a [`Net`].
pub(crate) struct Drawn {
    pub overlay: Overlay,
    pub workload: Workload,
    pub rates: DetectionRates,
}

/// A value built by its first user and dropped by its last.
struct Lazy<T> {
    uses_left: AtomicUsize,
    /// `None` until built and again after the last release. A failed
    /// build is kept like a value, so every user sees the same error.
    slot: Mutex<Option<Result<Arc<T>, SimError>>>,
}

impl<T> Lazy<T> {
    fn new(uses: usize) -> Self {
        Lazy {
            uses_left: AtomicUsize::new(uses),
            slot: Mutex::new(None),
        }
    }

    /// The value, building it under the lock if nobody has: a second
    /// worker that needs it waits for the first instead of building its
    /// own. The slot only ever changes by whole-value assignment, so a
    /// builder that panicked left it valid (empty) and the poison flag
    /// is ignored — the next user builds again.
    fn get(&self, build: impl FnOnce() -> Result<T, SimError>) -> Result<Arc<T>, SimError> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert_with(|| build().map(Arc::new)).clone()
    }

    /// One user is done; the last one empties the slot.
    fn release(&self) {
        // AcqRel: the last release must see every earlier one.
        if self.uses_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }
}

struct GridSlot {
    dims: (usize, usize),
    net: Lazy<Net>,
    drawn: Vec<Lazy<Drawn>>,
}

/// The kinds of build [`SharedInputs`] times, in build order.
const BUILDS: [&str; 4] = ["graph", "oracle", "overlay", "workload+rates"];
const GRAPH: usize = 0;
const ORACLE: usize = 1;
const OVERLAY: usize = 2;
const TRAFFIC: usize = 3;

/// The shared inputs of one sweep; see the module docs.
pub(crate) struct SharedInputs {
    oracle: OracleKind,
    specs: Vec<InputSpec>,
    grids: Vec<GridSlot>,
    /// Nanoseconds spent building, per [`BUILDS`] kind. Statistics
    /// only, hence `Relaxed`.
    build_nanos: [AtomicU64; BUILDS.len()],
}

impl SharedInputs {
    /// Inputs for `grids` × `specs`, where `cells_per_spec` cells of
    /// each grid will ask for each spec — the count that tells an input
    /// when its last user has gone.
    pub fn new(
        oracle: OracleKind,
        grids: &[(usize, usize)],
        specs: Vec<InputSpec>,
        cells_per_spec: usize,
    ) -> Self {
        let grids = grids
            .iter()
            .map(|&dims| GridSlot {
                dims,
                net: Lazy::new(specs.len() * cells_per_spec),
                drawn: specs.iter().map(|_| Lazy::new(cells_per_spec)).collect(),
            })
            .collect();
        SharedInputs {
            oracle,
            specs,
            grids,
            build_nanos: Default::default(),
        }
    }

    /// The inputs of one cell of grid `grid` under spec `spec`. Every
    /// cell must ask exactly once, failed or not: the returned value's
    /// drop (or this call's error return) is what counts the cell off.
    pub fn cell(&self, grid: usize, spec: usize) -> Result<CellInputs<'_>, SimError> {
        let slot = &self.grids[grid];
        let lease = Lease {
            net: &slot.net,
            drawn: &slot.drawn[spec],
        };
        let net = slot.net.get(|| {
            let t = Instant::now();
            let (rows, cols) = slot.dims;
            let graph = generators::grid(rows, cols)?;
            self.bill(GRAPH, t);
            let t = Instant::now();
            let oracle = self.oracle.build(&graph)?;
            self.bill(ORACLE, t);
            Ok(Net { graph, oracle })
        })?;
        let drawn = slot.drawn[spec].get(|| {
            let InputSpec {
                overlay_seed,
                workload,
            } = &self.specs[spec];
            let t = Instant::now();
            let overlay = build_doubling(
                &net.graph,
                &*net.oracle,
                &OverlayConfig::practical(),
                *overlay_seed,
            );
            self.bill(OVERLAY, t);
            let t = Instant::now();
            let workload = workload.generate(&net.graph);
            let rates = DetectionRates::from_moves(&net.graph, &workload.move_pairs());
            self.bill(TRAFFIC, t);
            Ok(Drawn {
                overlay,
                workload,
                rates,
            })
        })?;
        Ok(CellInputs {
            net,
            drawn,
            _lease: lease,
        })
    }

    fn bill(&self, kind: usize, since: Instant) {
        self.build_nanos[kind].fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Seconds the sweep's workers have spent building inputs so far:
    /// `(what, seconds)`.
    pub fn build_secs(&self) -> Vec<(String, f64)> {
        let secs = |nanos: &AtomicU64| nanos.load(Ordering::Relaxed) as f64 * 1e-9;
        BUILDS
            .iter()
            .zip(&self.build_nanos)
            .map(|(what, nanos)| (what.to_string(), secs(nanos)))
            .collect()
    }
}

/// Counts one cell off its two inputs when dropped.
struct Lease<'s> {
    net: &'s Lazy<Net>,
    drawn: &'s Lazy<Drawn>,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.drawn.release();
        self.net.release();
    }
}

/// One cell's view of the shared inputs; holds them alive while it runs.
pub(crate) struct CellInputs<'s> {
    pub net: Arc<Net>,
    pub drawn: Arc<Drawn>,
    _lease: Lease<'s>,
}

impl CellInputs<'_> {
    /// The distance backend, as the trait object the run functions take.
    pub fn oracle(&self) -> &dyn DistanceOracle {
        &*self.net.oracle
    }

    /// `algo` over these inputs — [`mot_sim::TestBed::make_tracker`]'s
    /// function on shared parts.
    pub fn tracker(
        &self,
        algo: Algo,
    ) -> Result<Box<dyn mot_sim::concurrent::ClimbStructure + '_>, SimError> {
        tracker_over(
            &self.net.graph,
            self.oracle(),
            &self.drawn.overlay,
            algo,
            &self.drawn.rates,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> Lazy<T> {
        fn is_resident(&self) -> bool {
            self.slot.lock().unwrap().is_some()
        }
    }

    /// `(nets, drawns)` resident right now.
    fn resident(s: &SharedInputs) -> (usize, usize) {
        let nets = s.grids.iter().filter(|g| g.net.is_resident()).count();
        let drawns = s
            .grids
            .iter()
            .flat_map(|g| &g.drawn)
            .filter(|d| d.is_resident())
            .count();
        (nets, drawns)
    }

    fn two_by_two(grids: &[(usize, usize)]) -> SharedInputs {
        let specs = (0..2)
            .map(|seed| InputSpec {
                overlay_seed: seed,
                workload: WorkloadSpec::new(3, 5, seed),
            })
            .collect();
        SharedInputs::new(OracleKind::Auto, grids, specs, 2)
    }

    #[test]
    fn inputs_are_built_once_and_dropped_after_their_last_cell() {
        let s = two_by_two(&[(3, 3), (4, 4)]);
        assert_eq!(
            resident(&s),
            (0, 0),
            "nothing is built before it is asked for"
        );
        let a = s.cell(0, 0).unwrap();
        let b = s.cell(0, 0).unwrap();
        assert!(Arc::ptr_eq(&a.net, &b.net) && Arc::ptr_eq(&a.drawn, &b.drawn));
        assert_eq!(resident(&s), (1, 1));
        drop((a, b));
        assert_eq!(
            resident(&s),
            (1, 0),
            "a (grid, seed) goes with its last cell"
        );
        let c = s.cell(0, 1).unwrap();
        let d = s.cell(1, 0).unwrap();
        assert_eq!(resident(&s), (2, 2));
        assert!(!Arc::ptr_eq(&c.net, &d.net));
        drop(c);
        assert_eq!(
            resident(&s),
            (2, 2),
            "one of the seed's two cells is still to come"
        );
        drop(s.cell(0, 1).unwrap());
        assert_eq!(resident(&s), (1, 1), "a grid goes with its last cell");
        drop(d);
        for spec in [0, 1, 1] {
            drop(s.cell(1, spec).unwrap());
        }
        assert_eq!(resident(&s), (0, 0));
        assert!(s.build_secs().iter().all(|&(_, secs)| secs > 0.0));
    }

    #[test]
    fn a_failed_build_is_every_cell_s_error_and_is_dropped_like_a_value() {
        let s = two_by_two(&[(0, 5)]);
        for spec in [0, 0, 1] {
            let err = s.cell(0, spec).err().expect("an empty grid has no net");
            assert_eq!(err, SimError::Net(mot_net::NetError::EmptyGraph));
            assert_eq!(
                resident(&s),
                (1, 0),
                "the error is kept for the cells to come"
            );
        }
        assert!(s.cell(0, 1).is_err());
        assert_eq!(resident(&s), (0, 0));
    }
}
