//! # aggtrack-parallel — deterministic fan-out over scoped threads
//!
//! The experiment pipeline is dominated by embarrassingly parallel loops:
//! independent seeded trials, independent figures, the store segments of
//! a ground-truth sweep. This crate provides the one primitive they need —
//! [`par_map_indexed`] — built on `std::thread::scope` so it works in this
//! dependency-free workspace (the build environment has no registry
//! access, so `rayon` is unavailable; see `shims/` for the same story on
//! other dependencies).
//!
//! Guarantees:
//!
//! * **Deterministic output order.** Results come back indexed; the
//!   returned `Vec` is in input order no matter which thread ran what or
//!   when it finished.
//! * **Work stealing.** Jobs are handed out from a shared atomic counter,
//!   so uneven job costs don't idle workers.
//! * **Panic propagation.** A panicking job panics the caller (after all
//!   workers stop picking up new jobs).
//!
//! Thread count resolution (first match wins): explicit
//! [`Threads::Fixed`], the `AGGTRACK_THREADS` environment variable,
//! [`std::thread::available_parallelism`].

#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Thread-count policy for [`par_map_indexed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Threads {
    /// `AGGTRACK_THREADS` if set, else the machine's available parallelism.
    #[default]
    Auto,
    /// Exactly this many worker threads.
    Fixed(NonZeroUsize),
}

impl Threads {
    /// A fixed thread count (panics on 0).
    pub fn fixed(n: usize) -> Self {
        Self::Fixed(NonZeroUsize::new(n).expect("thread count must be ≥ 1"))
    }

    /// Exactly one worker: jobs run inline on the caller's thread in
    /// index order, byte-identical to a plain loop. The default for
    /// fan-out APIs embedded in code that may itself already be running
    /// inside a pool (e.g. ground truth inside parallel trials).
    pub fn sequential() -> Self {
        Self::fixed(1)
    }

    /// Resolves the policy to a concrete count, capped by `jobs` (no point
    /// spawning idle workers).
    pub fn resolve(self, jobs: usize) -> usize {
        let n = match self {
            Threads::Fixed(n) => n.get(),
            Threads::Auto => std::env::var("AGGTRACK_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
                }),
        };
        n.min(jobs).max(1)
    }
}

/// Maps `f` over `0..jobs` on a scoped worker pool, returning results in
/// index order. `f` must be deterministic per index for the caller to get
/// run-to-run reproducibility — everything in this workspace derives its
/// RNG stream from the job index, so that holds by construction.
///
/// With one resolved thread the jobs run inline on the caller's thread in
/// index order (no spawn overhead, byte-identical to a plain loop).
pub fn par_map_indexed<T, F>(jobs: usize, threads: Threads, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = threads.resolve(jobs);
    if workers == 1 {
        return (0..jobs).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    return;
                }
                let out = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker finished without storing a result")
        })
        .collect()
}

/// Runs independent closures concurrently, returning their results in
/// input order — convenience wrapper over [`par_map_indexed`] for
/// heterogeneous jobs of the same output type.
pub fn par_run<T, F>(jobs: Vec<F>, threads: Threads) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    par_map_indexed(slots.len(), threads, |i| {
        let f = slots[i].lock().expect("job slot poisoned").take().expect("job ran twice");
        f()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        for threads in [Threads::fixed(1), Threads::fixed(4), Threads::Auto] {
            let out = par_map_indexed(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u8> = par_map_indexed(0, Threads::Auto, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_jobs_all_complete() {
        let out = par_map_indexed(37, Threads::fixed(5), |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn par_run_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..10)
            .map(|i: usize| Box::new(move || i * 3) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = par_run(jobs, Threads::fixed(3));
        assert_eq!(out, (0..10).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let _ = par_map_indexed(8, Threads::fixed(2), |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn threads_resolution_caps_at_jobs() {
        assert_eq!(Threads::fixed(16).resolve(3), 3);
        assert_eq!(Threads::fixed(2).resolve(100), 2);
        assert!(Threads::Auto.resolve(100) >= 1);
    }
}
