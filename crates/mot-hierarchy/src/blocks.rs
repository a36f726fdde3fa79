//! Per-member work of one hierarchy level, split into blocks over
//! threads and assembled in member order.
//!
//! [`in_blocks`] runs `work` on blocks of `0..len`, one thread per
//! scratch state (the calling thread is one of them), and hands each
//! block's output to `apply` on the calling thread in block order. A
//! thread claims the next unclaimed block from one shared counter, so a
//! descheduled thread holds up at most the block it holds, not a fixed
//! share of the level. A helper claims no further than `WINDOW` blocks a
//! thread past the last applied one, so a calling thread the scheduler
//! parks does not leave the level's outputs piling up. `work` must be a
//! pure function of its block (the scratch state only saves
//! allocations), so what `apply` sees, in the order it sees it, is the
//! same for any number of threads.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Most items in one block (a power of two).
const BLOCK: usize = 64;

/// Blocks a helper may run ahead of the last applied one, per thread.
/// An output waits in memory until it is applied: unbounded, a calling
/// thread the scheduler parked for ≈ 10 ms left ≈ 400 level-0 blocks
/// waiting on a 256×256 grid, and `cold_start_grid256` read up to
/// 4.8 MiB more peak RSS than the serial builder (1.8 MiB with this
/// window, on the same noisy host). The calling thread applies
/// every ready block after each block of its own, so two a thread keep
/// a helper busy.
const WINDOW: usize = 2;

/// The blocks' outputs between `work` and `apply`.
struct Ledger<T> {
    out: Vec<Option<T>>,
    /// Blocks applied so far.
    applied: usize,
    /// A thread panicked: nobody waits any more.
    failed: bool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Marks the ledger failed and wakes every waiter if its thread unwinds,
/// so no thread waits for a block that will never come.
struct OnPanic<'a, T>(&'a Mutex<Ledger<T>>, &'a Condvar);

impl<T> Drop for OnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(self.0).failed = true;
            self.1.notify_all();
        }
    }
}

/// Runs `work(scratch, block)` over `0..len` in blocks on
/// `scratch.len()` threads and calls `apply(block, output)` for each
/// block, in order, on the calling thread (see the module docs). Blocks
/// hold a power of two of items, all but the last the same number. With
/// one scratch state, or one block, nothing is spawned. A panic in a
/// helper thread resumes on the calling thread with its own payload.
pub(crate) fn in_blocks<S: Send, T: Send>(
    scratch: &mut [S],
    len: usize,
    work: impl Fn(&mut S, Range<usize>) -> T + Sync,
    mut apply: impl FnMut(Range<usize>, T),
) {
    let (mine, helpers) = scratch
        .split_first_mut()
        .expect("one scratch state per thread");
    let threads = helpers.len() + 1;
    // Several blocks per thread, so the last ones to finish are short;
    // a power of two, so a block's outputs are found by a shift.
    let size = (len / (threads * 8)).clamp(1, BLOCK).next_power_of_two();
    let blocks = len.div_ceil(size);
    let range = |b: usize| b * size..((b + 1) * size).min(len);
    if threads == 1 || blocks < 2 {
        for b in 0..blocks {
            apply(range(b), work(mine, range(b)));
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&b| b < blocks);
    let ledger = Mutex::new(Ledger {
        out: (0..blocks).map(|_| None).collect(),
        applied: 0,
        failed: false,
    });
    let changed = Condvar::new();
    let window = WINDOW * threads;
    std::thread::scope(|s| {
        let handles: Vec<_> = helpers
            .iter_mut()
            .take(blocks - 1)
            .map(|state| {
                let (work, claim, ledger, changed) = (&work, &claim, &ledger, &changed);
                s.spawn(move || {
                    let _failed = OnPanic(ledger, changed);
                    while let Some(b) = claim() {
                        let mut l = lock(ledger);
                        while b >= l.applied + window && !l.failed {
                            l = changed.wait(l).unwrap_or_else(PoisonError::into_inner);
                        }
                        if l.failed {
                            return;
                        }
                        drop(l);
                        let out = work(state, range(b));
                        lock(ledger).out[b] = Some(out);
                        changed.notify_all();
                    }
                })
            })
            .collect();
        let _failed = OnPanic(&ledger, &changed);
        let mut applied = 0;
        while applied < blocks {
            let ready = lock(&ledger).out[applied].take();
            if let Some(out) = ready {
                apply(range(applied), out);
                applied += 1;
                lock(&ledger).applied = applied;
                changed.notify_all();
            } else if let Some(b) = claim() {
                let out = work(mine, range(b));
                lock(&ledger).out[b] = Some(out);
            } else {
                // Every block is claimed and the next one is a helper's.
                let mut l = lock(&ledger);
                while l.out[applied].is_none() && !l.failed {
                    l = changed.wait(l).unwrap_or_else(PoisonError::into_inner);
                }
                if l.failed {
                    break;
                }
            }
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every block `apply` saw, in the order it saw them.
    fn run(threads: usize, len: usize) -> Vec<(Range<usize>, Vec<usize>)> {
        let mut seen = Vec::new();
        in_blocks(
            &mut vec![(); threads],
            len,
            |(), block| block.map(|i| i * i).collect::<Vec<_>>(),
            |block, out| seen.push((block, out)),
        );
        seen
    }

    #[test]
    fn blocks_are_applied_in_order_for_any_thread_count() {
        for len in [0, 1, 5, 63, 64, 65, 1000, 4097] {
            for threads in [1, 2, 3, 8] {
                let seen = run(threads, len);
                let mut next = 0;
                for (block, out) in &seen {
                    assert_eq!(block.start, next, "len {len}, {threads} threads");
                    assert_eq!(out, &block.clone().map(|i| i * i).collect::<Vec<_>>());
                    next = block.end;
                }
                assert_eq!(next, len, "len {len}, {threads} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "the caller's own message")]
    fn a_panic_on_the_calling_thread_stops_the_helpers() {
        // Helpers run out of window once the caller stops applying; the
        // caller's unwinding must release them, or the scope never ends.
        let mut scratch = vec![(); 4];
        in_blocks(
            &mut scratch,
            10_000,
            |(), block| block.len(),
            |_, _| panic!("the caller's own message"),
        );
    }

    #[test]
    #[should_panic(expected = "a helper's own message")]
    fn a_helper_panic_resumes_with_its_own_payload() {
        use std::sync::atomic::AtomicBool;
        // The calling thread's state is `false`; it holds its first
        // block until a helper has claimed one and failed.
        let mut scratch = [false, true, true];
        let failed = AtomicBool::new(false);
        in_blocks(
            &mut scratch,
            100,
            |&mut helper, _| {
                if helper {
                    failed.store(true, Ordering::Relaxed);
                    panic!("a helper's own message");
                }
                while !failed.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            },
            |_, ()| {},
        );
    }
}
