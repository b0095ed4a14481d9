//! The work-stealing sweep fabric: run many independent, individually
//! seeded jobs across OS threads and merge their results **by item
//! index**, so the output is bit-identical regardless of thread count or
//! completion order.
//!
//! The paper's evaluation is a sweep — hundreds of (workload × trace ×
//! algorithm × knowledge-mode) configurations — and every result in this
//! repository rests on the byte-identical-digest guarantee, so the one
//! thing a parallel driver must never do is let scheduling order leak
//! into results. [`SweepDriver`] makes that structural:
//!
//! - **Sharding** is a single shared atomic work index. Workers steal the
//!   next unclaimed item whenever they finish one, so a slow item never
//!   idles the other cores (no static chunking to go unbalanced).
//! - **Per-worker state** (a `RunScratch` run arena, a tracer, scratch
//!   buffers) is built *inside* each worker thread by a caller-supplied
//!   factory, so it needs neither `Send` nor synchronization. Correctness
//!   contract: worker state must be observationally inert — a job's
//!   result may depend only on its index, never on which worker ran it or
//!   what that worker ran before. (The engine's `RunScratch` satisfies
//!   this by construction; `tests/pool_reuse.rs` and
//!   `tests/sweep_determinism.rs` prove it.)
//! - **The merge** buffers each worker's `(index, result)` pairs and
//!   writes them into an index-addressed table after joining, so results
//!   arrive in configuration order no matter who finished first.
//! - **Panics propagate.** A panicking job unwinds its worker; the driver
//!   joins every worker, then re-raises the first panic payload on the
//!   calling thread. The remaining workers drain the work index and exit
//!   normally — the merge can never deadlock on a dead worker.
//!
//! The driver honors the exact thread count it is given (clamped only to
//! the item count) — oversubscription is deliberate, so determinism tests
//! can exercise threads=7 interleavings even on small CI machines. User
//! -facing entry points should pass requests through [`clamp_threads`]
//! first, which bounds them to the machine and explains itself.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-width thread team that sweeps an indexed job list.
///
/// # Examples
///
/// ```
/// use wadc_core::sweep::SweepDriver;
///
/// // Each worker owns a scratch accumulator; results merge by index.
/// let squares = SweepDriver::new(3).sweep(
///     10,
///     |_worker| 0u64, // per-worker state (here: a counter)
///     |done, i| {
///         *done += 1;
///         (i * i) as u64
///     },
/// );
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<u64>>());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SweepDriver {
    threads: usize,
}

impl SweepDriver {
    /// A driver that runs on `threads` OS threads (at least one).
    pub fn new(threads: usize) -> Self {
        SweepDriver {
            threads: threads.max(1),
        }
    }

    /// The thread count the driver will use (before per-call clamping to
    /// the item count).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job` for every index in `0..n_items` and returns the results
    /// in index order.
    ///
    /// `init` runs once per worker, on that worker's thread, and builds
    /// the state threaded through every job the worker executes (its
    /// argument is the worker's ordinal, for labeling). Workers claim
    /// items from a shared atomic index — work-stealing in its simplest
    /// form — so the assignment of items to workers is scheduling
    /// -dependent, but the returned vector is not: element `i` is always
    /// `job`'s result for item `i`.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all workers have stopped;
    /// the merge itself cannot deadlock on a panicked worker.
    pub fn sweep<W, T, I, F>(&self, n_items: usize, init: I, job: F) -> Vec<T>
    where
        T: Send,
        I: Fn(usize) -> W + Sync,
        F: Fn(&mut W, usize) -> T + Sync,
    {
        if n_items == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n_items);
        let next = AtomicUsize::new(0);
        let mut merged: Vec<Option<T>> = Vec::with_capacity(n_items);
        merged.resize_with(n_items, || None);
        let mut first_panic = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let next = &next;
                    let init = &init;
                    let job = &job;
                    scope.spawn(move || {
                        let mut state = init(worker);
                        let mut completed: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n_items {
                                break;
                            }
                            completed.push((i, job(&mut state, i)));
                        }
                        completed
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(chunk) => {
                        for (i, result) in chunk {
                            merged[i] = Some(result);
                        }
                    }
                    Err(payload) => {
                        first_panic.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }
        merged
            .into_iter()
            .map(|slot| slot.expect("every claimed item completed or panicked"))
            .collect()
    }
}

/// A thread-count request resolved against the machine: the count to use
/// and, when the request was adjusted, a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPlan {
    /// The thread count to actually run with.
    pub threads: usize,
    /// Why the request was adjusted, if it was.
    pub warning: Option<String>,
}

/// Resolves a user-requested thread count against this machine's
/// available parallelism: `0` means "use every core", and requests beyond
/// the core count clamp down (spawning more OS threads than cores only
/// adds scheduling overhead). Both adjustments carry a warning for the
/// CLI to surface.
pub fn clamp_threads(requested: usize) -> ThreadPlan {
    clamp_threads_to(
        requested,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

/// [`clamp_threads`] against an explicit core count (unit-testable).
pub fn clamp_threads_to(requested: usize, available: usize) -> ThreadPlan {
    let available = available.max(1);
    if requested == 0 {
        ThreadPlan {
            threads: available,
            warning: Some(format!(
                "--threads 0 requests no workers; using all {available} available core(s)"
            )),
        }
    } else if requested > available {
        ThreadPlan {
            threads: available,
            warning: Some(format!(
                "--threads {requested} exceeds the {available} available core(s); \
                 clamping to {available}"
            )),
        }
    } else {
        ThreadPlan {
            threads: requested,
            warning: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn merge_is_index_ordered_despite_uneven_item_cost() {
        // Early items are the slowest, so with several workers the
        // completion order differs wildly from the index order.
        let results = SweepDriver::new(4).sweep(
            24,
            |_| (),
            |_, i| {
                std::thread::sleep(std::time::Duration::from_micros(
                    ((24 - i) as u64 % 5) * 200,
                ));
                i * 10
            },
        );
        assert_eq!(results, (0..24).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items_returns_empty_without_spawning() {
        let inits = AtomicUsize::new(0);
        let results: Vec<u64> = SweepDriver::new(8).sweep(
            0,
            |_| inits.fetch_add(1, Ordering::Relaxed),
            |_, _| unreachable!("no items to run"),
        );
        assert!(results.is_empty());
        assert_eq!(inits.load(Ordering::Relaxed), 0, "no worker should start");
    }

    #[test]
    fn worker_count_clamps_to_item_count() {
        // 2 items on an 8-thread driver: at most 2 workers initialize.
        let inits = AtomicUsize::new(0);
        let results =
            SweepDriver::new(8).sweep(2, |_| inits.fetch_add(1, Ordering::Relaxed), |_, i| i);
        assert_eq!(results, vec![0, 1]);
        assert!(inits.load(Ordering::Relaxed) <= 2);
    }

    #[test]
    fn init_runs_once_per_worker_and_state_persists() {
        // A single worker sweeps every item through one accumulator.
        let jobs_seen = SweepDriver::new(1).sweep(
            5,
            |_| 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(jobs_seen, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn panicking_job_propagates_without_deadlocking_the_merge() {
        let result = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            SweepDriver::new(3).sweep(
                16,
                |_| (),
                |_, i| {
                    assert!(i != 5, "injected failure at item 5");
                    i
                },
            )
        }));
        assert!(result.is_err(), "the worker panic must reach the caller");
    }

    #[test]
    fn thread_count_floors_at_one() {
        assert_eq!(SweepDriver::new(0).threads(), 1);
        assert_eq!(SweepDriver::new(7).threads(), 7);
    }

    #[test]
    fn clamp_zero_means_all_cores_with_warning() {
        let plan = clamp_threads_to(0, 6);
        assert_eq!(plan.threads, 6);
        let warning = plan.warning.expect("zero must warn");
        assert!(warning.contains("--threads 0"), "{warning}");
    }

    #[test]
    fn clamp_excess_request_with_warning() {
        let plan = clamp_threads_to(64, 4);
        assert_eq!(plan.threads, 4);
        let warning = plan.warning.expect("excess must warn");
        assert!(warning.contains("64") && warning.contains('4'), "{warning}");
    }

    #[test]
    fn clamp_in_range_request_is_silent() {
        for requested in 1..=4 {
            let plan = clamp_threads_to(requested, 4);
            assert_eq!(plan.threads, requested);
            assert_eq!(plan.warning, None);
        }
    }

    #[test]
    fn clamp_tolerates_degenerate_core_count() {
        assert_eq!(clamp_threads_to(3, 0).threads, 1);
    }
}
