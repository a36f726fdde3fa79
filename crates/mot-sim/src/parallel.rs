//! Deterministic fan-out over independent experiment cells.
//!
//! The paper's evaluation is a sweep over *(figure × grid size ×
//! algorithm × seed)* cells, and every cell is independent: what it
//! computes is a function of its own key and explicit seeds, and it
//! returns plain mergeable statistics ([`crate::CostStats`],
//! [`crate::LevelLedger`], [`crate::Histogram`]). Cells may *read*
//! common inputs — the figure runners build one graph, distance backend,
//! overlay and workload per (grid, seed) and hand it to every algorithm's
//! cell — as long as those inputs are themselves pure functions of
//! explicit seeds and immutable once built (DESIGN.md §12). That
//! independence is what makes the sweep parallelizable *without* giving
//! up bit-exact reproducibility — provided two rules hold, which this
//! module enforces structurally:
//!
//! 1. **Cell-keyed randomness.** Every random stream a cell consumes is
//!    derived from the cell's stable [`CellKey`] (directly via
//!    [`CellKey::rng`]'s ChaCha stream splitting, or via explicit
//!    per-cell seed arithmetic) — never from worker identity, execution
//!    order, or wall clock.
//! 2. **Canonical merge order.** [`ParallelRunner::run`] returns results
//!    indexed by submission order, whatever order workers finish in, so
//!    callers always fold cells in the same sequence and floating-point
//!    accumulation is bit-identical for 1 worker and N workers.
//!
//! A panic inside a cell does not poison the pool: the worker catches
//! it, records [`SimError::Cell`] with the cell's key, and moves on to
//! the next cell. See `DESIGN.md` §12 for the full determinism contract.
//!
//! # Example
//!
//! ```
//! use mot_sim::parallel::{CellKey, Keyed, ParallelRunner};
//! use mot_sim::SimError;
//! use rand::Rng;
//!
//! // Four independent cells, each with a key-derived RNG stream.
//! let cells: Vec<Keyed<u64>> = (0..4)
//!     .map(|seed| Keyed::new(CellKey::new("demo", 64, "MOT", seed), seed))
//!     .collect();
//! let run = |cell: &Keyed<u64>| -> Result<u64, SimError> {
//!     let mut rng = cell.key.rng();
//!     Ok(rng.gen_range(0..1_000_000))
//! };
//! let serial = ParallelRunner::new(1).run(&cells, run)?;
//! let fanned = ParallelRunner::new(4).run(&cells, run)?;
//! assert_eq!(serial, fanned); // bit-identical regardless of workers
//! # Ok::<(), SimError>(())
//! ```

use crate::error::SimError;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Stable identity of one experiment cell: the *(figure, size, algo,
/// seed)* coordinates of the evaluation sweep. Keys are pure data — two
/// runs of the same sweep produce the same keys in the same canonical
/// order — and double as the root of the cell's random streams.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Figure family (e.g. `"fig4"`, `"faults"`). Free-form; families
    /// with extra coordinates fold them in (e.g. `"general/ring-100"`).
    pub figure: String,
    /// Network size (node count) the cell runs on.
    pub size: usize,
    /// Algorithm / variant label (e.g. `"MOT"`, `"STUN"`).
    pub algo: String,
    /// Repetition seed within the cell's figure row.
    pub seed: u64,
}

impl CellKey {
    /// Builds a key from the four sweep coordinates.
    pub fn new(
        figure: impl Into<String>,
        size: usize,
        algo: impl Into<String>,
        seed: u64,
    ) -> CellKey {
        CellKey {
            figure: figure.into(),
            size,
            algo: algo.into(),
            seed,
        }
    }

    /// A stable 64-bit digest of the non-seed coordinates (FNV-1a over
    /// `figure`, `size`, and `algo`) — the ChaCha *stream id* under
    /// which [`CellKey::rng`] splits this cell off from every other
    /// cell sharing its seed.
    pub fn stream_id(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.figure.as_bytes());
        eat(&[0xff]); // field separator: "ab"+"c" != "a"+"bc"
        eat(&(self.size as u64).to_le_bytes());
        eat(self.algo.as_bytes());
        eat(&[0xff]);
        h
    }

    /// The cell's root random stream: a `ChaCha8Rng` seeded with the
    /// cell's `seed` and switched to the stream [`CellKey::stream_id`]
    /// names. Cells that share a repetition seed but differ in figure,
    /// size, or algorithm draw from non-overlapping keystreams, and the
    /// stream never depends on which worker runs the cell or when.
    pub fn rng(&self) -> ChaCha8Rng {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        rng.set_stream(self.stream_id());
        rng
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/n{}/{}/seed{}",
            self.figure, self.size, self.algo, self.seed
        )
    }
}

/// A [`CellKey`] paired with whatever payload the cell function needs
/// (grid dimensions, algorithm enums, topology handles). The runner
/// reads only the key — the payload is the caller's.
#[derive(Clone, Debug)]
pub struct Keyed<C> {
    /// The cell's stable identity.
    pub key: CellKey,
    /// Caller-side payload handed back to the cell function.
    pub data: C,
}

impl<C> Keyed<C> {
    /// Pairs a key with its payload.
    pub fn new(key: CellKey, data: C) -> Keyed<C> {
        Keyed { key, data }
    }
}

/// A `std::thread::scope` worker pool that executes independent cells
/// and returns their results in canonical (submission) order.
///
/// The pool is a plain work-stealing counter over the cell slice: each
/// worker claims the next unclaimed index, runs the cell function, and
/// writes the result into that index's slot. Because slots are indexed
/// by submission order, the returned `Vec` — and therefore every
/// downstream merge — is identical for `jobs = 1` and `jobs = N`.
///
/// Failure semantics: a cell that returns `Err` or panics never stops
/// the other cells; every cell always executes. After the pool drains,
/// the first failure in canonical order is returned (panics wrapped as
/// [`SimError::Cell`]), making the surfaced error independent of thread
/// scheduling too.
#[derive(Clone, Copy, Debug)]
pub struct ParallelRunner {
    jobs: usize,
}

impl ParallelRunner {
    /// A runner with `jobs` workers; `0` means one worker per available
    /// hardware thread ([`std::thread::available_parallelism`]).
    pub fn new(jobs: usize) -> ParallelRunner {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        ParallelRunner { jobs }
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes `f` once per cell and returns the results in the cells'
    /// canonical order, or the canonically-first failure.
    ///
    /// `f` must treat each cell as independent: any randomness it
    /// consumes has to derive from the cell's key (or explicit per-cell
    /// seeds carried in the payload), never from shared mutable state.
    /// Immutable inputs shared between cells are fine.
    pub fn run<C, T, E, F>(&self, cells: &[Keyed<C>], f: F) -> Result<Vec<T>, E>
    where
        C: Sync,
        T: Send,
        E: Send + From<SimError>,
        F: Fn(&Keyed<C>) -> Result<T, E> + Sync,
    {
        let n = cells.len();
        let run_one = |cell: &Keyed<C>| -> Result<T, E> {
            catch_unwind(AssertUnwindSafe(|| f(cell))).unwrap_or_else(|payload| {
                Err(E::from(SimError::Cell {
                    key: cell.key.clone(),
                    cause: panic_message(payload),
                }))
            })
        };

        let mut slots: Vec<Option<Result<T, E>>>;
        if self.jobs <= 1 || n <= 1 {
            // Inline path: same per-cell wrapper, same slot layout, no
            // threads — the jobs=1 reference the parity tests compare
            // the fan-out against.
            slots = cells.iter().map(|cell| Some(run_one(cell))).collect();
        } else {
            let filled: Vec<Mutex<Option<Result<T, E>>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..self.jobs.min(n) {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = run_one(&cells[i]);
                        *filled[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                    });
                }
            });
            slots = filled
                .into_iter()
                .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
                .collect();
        }

        let mut out = Vec::with_capacity(n);
        let mut first_err: Option<E> = None;
        for slot in slots.drain(..) {
            match slot.expect("every cell slot is filled") {
                Ok(v) => out.push(v),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

/// Renders a caught panic payload as text (panics usually carry a
/// `String` or `&str`; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::sync::atomic::AtomicUsize;

    fn cells(n: u64) -> Vec<Keyed<u64>> {
        (0..n)
            .map(|seed| Keyed::new(CellKey::new("test", 64, "MOT", seed), seed))
            .collect()
    }

    #[test]
    fn results_are_bit_identical_across_worker_counts() {
        let cells = cells(17);
        let work = |cell: &Keyed<u64>| -> Result<(u64, f64), SimError> {
            let mut rng = cell.key.rng();
            // float accumulation: merge-order sensitive if ordering broke
            let mut acc = 0.0f64;
            for _ in 0..100 {
                acc += rng.gen::<f64>() / 3.0;
            }
            Ok((cell.data, acc))
        };
        let one = ParallelRunner::new(1).run(&cells, work).unwrap();
        for jobs in [2, 4, 8] {
            let many = ParallelRunner::new(jobs).run(&cells, work).unwrap();
            assert_eq!(one, many, "jobs={jobs} diverged from jobs=1");
        }
        // canonical order: slot i belongs to cell i
        for (i, (seed, _)) in one.iter().enumerate() {
            assert_eq!(*seed, i as u64);
        }
    }

    #[test]
    fn worker_panic_surfaces_cell_error_and_other_cells_complete() {
        let cells = cells(9);
        let completed = AtomicUsize::new(0);
        let err: SimError = ParallelRunner::new(4)
            .run(&cells, |cell: &Keyed<u64>| -> Result<u64, SimError> {
                if cell.data == 5 {
                    panic!("poisoned cell {}", cell.data);
                }
                completed.fetch_add(1, Ordering::Relaxed);
                Ok(cell.data)
            })
            .unwrap_err();
        match &err {
            SimError::Cell { key, cause } => {
                assert_eq!(key.seed, 5);
                assert_eq!(key.figure, "test");
                assert!(cause.contains("poisoned cell 5"), "{cause}");
            }
            other => panic!("expected SimError::Cell, got {other:?}"),
        }
        assert_eq!(
            completed.load(Ordering::Relaxed),
            8,
            "the panic must not stop the remaining cells"
        );
        assert!(err.to_string().contains("test/n64/MOT/seed5"), "{err}");
    }

    #[test]
    fn first_error_in_canonical_order_wins_regardless_of_jobs() {
        let cells = cells(12);
        let work = |cell: &Keyed<u64>| -> Result<u64, SimError> {
            if cell.data == 3 || cell.data == 10 {
                panic!("bad cell");
            }
            Ok(cell.data)
        };
        for jobs in [1, 2, 6] {
            let err = ParallelRunner::new(jobs).run(&cells, work).unwrap_err();
            match err {
                SimError::Cell { key, .. } => {
                    assert_eq!(key.seed, 3, "jobs={jobs} surfaced the wrong cell")
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn stream_ids_separate_cells_sharing_a_seed() {
        let a = CellKey::new("fig4", 1024, "MOT", 2);
        let b = CellKey::new("fig4", 1024, "STUN", 2);
        let c = CellKey::new("fig5", 1024, "MOT", 2);
        assert_ne!(a.stream_id(), b.stream_id());
        assert_ne!(a.stream_id(), c.stream_id());
        let mut ra = a.rng();
        let mut rb = b.rng();
        let xa: Vec<u64> = (0..16).map(|_| ra.gen()).collect();
        let xb: Vec<u64> = (0..16).map(|_| rb.gen()).collect();
        assert_ne!(xa, xb, "same seed, different cell: streams must split");
        // and the stream is replayable
        let xa2: Vec<u64> = {
            let mut r = a.rng();
            (0..16).map(|_| r.gen()).collect()
        };
        assert_eq!(xa, xa2);
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        let r = ParallelRunner::new(0);
        assert!(r.jobs() >= 1);
        let explicit = ParallelRunner::new(3);
        assert_eq!(explicit.jobs(), 3);
    }
}
