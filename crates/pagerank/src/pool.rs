//! Persistent worker pool advanced by a single sense-reversing barrier:
//! one synchronization point per round.
//!
//! ```text
//! workers:  kernel(r, w) ─ arrive ─ spin on phase ─ kernel(r+1, w) ─ …
//! control:  kernel(r, 0) ─ await arrivals ─ decide ─ publish phase ─ …
//! ```
//!
//! Workers run their chunk, increment an arrival counter (release), and
//! spin — briefly busy, then yielding — on a shared **phase word**. The
//! control thread (the caller, participating as worker 0) waits for
//! `threads − 1` arrivals (acquire), runs the control closure with
//! exclusive access to all shared state, and publishes the next phase
//! value (release), which simultaneously releases every worker into the
//! next round. The phase word's low bit is the stop flag, so shutdown
//! needs no extra crossing. The acquire/release pairs on the arrival
//! counter and phase word provide the happens-before edges the sweep
//! needs: kernel writes → control reads, control writes → next round's
//! kernel reads.
//!
//! Round-parity buffers compose with this: round `r` reads buffer
//! `r mod 2` and writes buffer `(r+1) mod 2`, and the single handoff
//! separates every round from the next.
//!
//! The pool performs no allocation after the workers are spawned;
//! combined with hoisted kernel scratch buffers this keeps the solve
//! loop allocation-free per iteration (asserted by the counting-
//! allocator test in `tests/alloc.rs`).

use crate::profiler::PoolProfiler;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Spins briefly, then yields: the pool targets oversubscribed hosts
/// (CI runs 4 workers on 1 core), where unbounded busy-waiting would
/// starve the very thread being waited on.
#[inline]
fn spin_wait(spins: &mut u32) {
    if *spins < 64 {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Runs `kernel` in lock-step rounds over `threads` workers until
/// `control` breaks.
///
/// * `kernel(round, worker)` computes worker `worker`'s chunk of round
///   `round`; it runs concurrently on every worker and must only touch
///   data disjoint per worker (or read-only shared state).
/// * `control(round)` runs on the calling thread after every worker has
///   finished round `round` and before any worker starts round
///   `round + 1`; it has exclusive access to all shared state and
///   returns [`ControlFlow::Break`] to stop the pool.
///
/// With `threads <= 1` no threads are spawned and the rounds run inline
/// on the calling thread — the degenerate pool is just a loop, so
/// callers need no separate serial code path.
///
/// With a [`PoolProfiler`], every worker times its kernel and its wait
/// at the round handoff, and the control thread flushes the accumulated
/// nanoseconds into the live registry once per round, after the control
/// closure. With `None` the timestamps are skipped entirely, so the
/// unprofiled path costs nothing extra.
pub(crate) fn run_rounds<R, K, C>(
    threads: usize,
    profiler: Option<&PoolProfiler>,
    kernel: K,
    mut control: C,
) -> R
where
    K: Fn(usize, usize) + Sync,
    C: FnMut(usize) -> ControlFlow<R>,
{
    if threads <= 1 {
        let mut round = 0usize;
        loop {
            match profiler {
                Some(p) => {
                    let t0 = Instant::now();
                    kernel(round, 0);
                    p.record_gather(0, t0.elapsed().as_nanos() as u64);
                }
                None => kernel(round, 0),
            }
            let decision = control(round);
            if let Some(p) = profiler {
                p.flush_round();
            }
            match decision {
                ControlFlow::Continue(()) => round += 1,
                ControlFlow::Break(result) => return result,
            }
        }
    }

    // Sense-reversing barrier state. `arrived` counts workers that have
    // finished the current round; `phase` advances by 2 per round, its
    // low bit is the stop flag. Workers detect a new round by the value
    // changing, so no reset of their view is ever needed.
    let arrived = AtomicUsize::new(0);
    let phase = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 1..threads {
            let (arrived, phase, kernel) = (&arrived, &phase, &kernel);
            scope.spawn(move || {
                let mut round = 0usize;
                let mut seen = 0usize;
                loop {
                    match profiler {
                        Some(p) => {
                            let t0 = Instant::now();
                            kernel(round, worker);
                            p.record_gather(worker, t0.elapsed().as_nanos() as u64);
                        }
                        None => kernel(round, worker),
                    }
                    // Release pairs with the control thread's acquire
                    // read: all kernel writes of this round are visible
                    // once the count is observed complete.
                    arrived.fetch_add(1, Ordering::Release);
                    let wait_t0 = profiler.map(|_| Instant::now());
                    let mut spins = 0u32;
                    let next = loop {
                        let v = phase.load(Ordering::Acquire);
                        if v != seen {
                            break v;
                        }
                        spin_wait(&mut spins);
                    };
                    if let (Some(p), Some(t0)) = (profiler, wait_t0) {
                        p.record_barrier(worker, t0.elapsed().as_nanos() as u64);
                    }
                    seen = next;
                    if next & 1 == 1 {
                        break;
                    }
                    round += 1;
                }
            });
        }

        let mut round = 0usize;
        let mut phase_val = 0usize;
        loop {
            match profiler {
                Some(p) => {
                    let t0 = Instant::now();
                    kernel(round, 0);
                    p.record_gather(0, t0.elapsed().as_nanos() as u64);
                }
                None => kernel(round, 0),
            }
            // Acquire pairs with every worker's release increment: once
            // all threads − 1 arrivals are visible, so are their chunks.
            let wait_t0 = profiler.map(|_| Instant::now());
            let mut spins = 0u32;
            while arrived.load(Ordering::Acquire) != threads - 1 {
                spin_wait(&mut spins);
            }
            if let (Some(p), Some(t0)) = (profiler, wait_t0) {
                p.record_barrier(0, t0.elapsed().as_nanos() as u64);
            }
            // Reset before publishing the phase: workers re-arm their
            // arrival only after observing the new phase value.
            arrived.store(0, Ordering::Relaxed);
            let decision = control(round);
            if let Some(p) = profiler {
                // Workers' handoff waits may land in the next round's
                // flush, which windowed series tolerate.
                p.flush_round();
            }
            match decision {
                ControlFlow::Continue(()) => {
                    phase_val += 2;
                    // Release publishes the control closure's writes
                    // (convergence flags) to every worker.
                    phase.store(phase_val, Ordering::Release);
                    round += 1;
                }
                ControlFlow::Break(result) => {
                    phase.store(phase_val + 1, Ordering::Release);
                    break result;
                }
            }
        }
    })
}

/// An unchecked shared view of a mutable buffer, for kernels whose
/// workers write provably disjoint ranges.
///
/// Rust's borrow checker cannot express "each worker mutates its own
/// range of this buffer this round, and the roles of the read/write
/// buffers swap every round". `SharedSlice` erases the borrow and moves
/// the proof obligation to the call sites inside this crate (every use
/// documents why its access is disjoint); the round handoff in
/// [`run_rounds`] provides the cross-round happens-before edges.
pub(crate) struct SharedSlice<T = f64> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: access discipline is enforced by the kernels (disjoint write
// ranges within a round) and run_rounds' phase handoff (ordering across
// rounds); the raw pointer itself is freely sendable.
unsafe impl<T: Send> Send for SharedSlice<T> {}
unsafe impl<T: Send + Sync> Sync for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// Wraps `data`. The caller must keep the backing storage alive and
    /// unmoved for the wrapper's whole lifetime (guaranteed by scoping
    /// the wrapper inside the borrow in the solvers).
    pub(crate) fn new(data: &mut [T]) -> SharedSlice<T> {
        SharedSlice { ptr: data.as_mut_ptr(), len: data.len() }
    }

    /// The whole buffer, read-only.
    ///
    /// # Safety
    /// No concurrent writer may overlap the returned view during reads;
    /// the solvers guarantee this by only reading the round's read
    /// buffer, which no kernel writes that round.
    pub(crate) unsafe fn as_slice(&self) -> &[T] {
        std::slice::from_raw_parts(self.ptr, self.len)
    }

    /// Mutable view of `lo..hi`.
    ///
    /// # Safety
    /// Ranges handed to concurrent workers must be pairwise disjoint,
    /// and nothing may read the written range until after the round's
    /// handoff.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        debug_assert!(lo <= hi && hi <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_rounds_until_control_breaks() {
        // 4 workers × 5 rounds, each worker stamps (round, worker).
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let rounds = run_rounds(
            4,
            None,
            |_round, worker| {
                hits[worker].fetch_add(1, Ordering::Relaxed);
            },
            |round| {
                if round + 1 == 5 {
                    ControlFlow::Break(round + 1)
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(rounds, 5);
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 5);
        }
    }

    #[test]
    fn control_sees_all_chunks_of_the_round() {
        // Workers add their chunk sums; control checks the total is
        // complete every round (the arrival handoff is a real barrier).
        let total = AtomicUsize::new(0);
        let ok = run_rounds(
            3,
            None,
            |_round, _worker| {
                total.fetch_add(1, Ordering::Relaxed);
            },
            |round| {
                let seen = total.load(Ordering::Relaxed);
                if seen != (round + 1) * 3 {
                    return ControlFlow::Break(false);
                }
                if round == 9 {
                    ControlFlow::Break(true)
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert!(ok);
    }

    #[test]
    fn workers_do_not_run_ahead_of_control() {
        // A worker must not start round r+1 before control finished
        // round r: control records the per-round totals it observed;
        // each must be exactly one round's worth of increments.
        let total = AtomicUsize::new(0);
        let mut observed = Vec::new();
        let rounds = 50usize;
        run_rounds(
            4,
            None,
            |_round, _worker| {
                total.fetch_add(1, Ordering::Relaxed);
            },
            |round| {
                observed.push(total.load(Ordering::Relaxed));
                if round + 1 == rounds {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        let expected: Vec<usize> = (1..=rounds).map(|r| r * 4).collect();
        assert_eq!(observed, expected);
    }

    #[test]
    fn single_thread_runs_inline() {
        let mut log = Vec::new();
        let out = run_rounds(
            1,
            None,
            |round, worker| {
                assert_eq!(worker, 0);
                let _ = round;
            },
            |round| {
                log.push(round);
                if round == 2 {
                    ControlFlow::Break("done")
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(out, "done");
        assert_eq!(log, vec![0, 1, 2]);
    }

    #[test]
    fn break_on_first_round_releases_workers() {
        let r = run_rounds(8, None, |_, _| {}, |_| ControlFlow::Break(42));
        assert_eq!(r, 42);
    }

    #[test]
    fn many_rounds_stay_in_lock_step() {
        // Stress the phase handoff across enough rounds to surface a
        // missed-wakeup or double-release bug as a count mismatch.
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        run_rounds(
            3,
            None,
            |_round, worker| {
                hits[worker].fetch_add(1, Ordering::Relaxed);
            },
            |round| if round == 999 { ControlFlow::Break(()) } else { ControlFlow::Continue(()) },
        );
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1000);
        }
    }

    #[test]
    fn shared_slice_round_trips() {
        let mut data = vec![1.0, 2.0, 3.0, 4.0];
        let shared = SharedSlice::new(&mut data);
        // SAFETY: single-threaded test, no aliasing reads during writes.
        unsafe {
            shared.range_mut(1, 3).copy_from_slice(&[9.0, 8.0]);
            assert_eq!(shared.as_slice(), &[1.0, 9.0, 8.0, 4.0]);
        }
        assert_eq!(data, vec![1.0, 9.0, 8.0, 4.0]);
    }
}
