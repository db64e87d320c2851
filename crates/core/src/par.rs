//! Deterministic parallel execution of embarrassingly parallel task
//! grids (availability sweeps, Monte-Carlo replications, experiment
//! batches).
//!
//! Every evaluation surface in this repository — the figure sweeps of
//! `dynvote-markov`, the Monte-Carlo replications of `dynvote-mc`, the
//! multi-configuration experiment grids of `dynvote-sim` — is a list of
//! independent tasks indexed `0..count`. This module runs such a grid
//! on `jobs` OS threads (hand-rolled on [`std::thread::scope`]; the
//! build environment has no crates.io, so no rayon) under a contract
//! strong enough to treat parallelism as a pure optimization:
//!
//! **results are byte-identical for any worker count.**
//!
//! Three rules make that hold:
//!
//! 1. *Task identity, not schedule, selects the work.* Workers claim
//!    task indices from a shared atomic cursor; which worker runs which
//!    index varies run to run, but the index fully determines the task.
//! 2. *Randomness is derived from `(master_seed, task_index)`.* Tasks
//!    must never share an RNG stream; [`seed_for`] gives every index
//!    its own statistically independent seed, counter-based so it can
//!    be computed without running earlier tasks.
//! 3. *Results are placed by index.* Each worker returns the
//!    `(index, value)` pairs it computed through its join handle, and
//!    the caller orders them by index; output order is index order by
//!    construction and scheduling cannot leak into it.
//!
//! The module is std-only: `dynvote-core` stays dependency-clean.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of hardware threads, with a fallback of 1 when the
/// platform will not say.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolve a worker count: an explicit request (CLI `--jobs`) wins,
/// else [`available_parallelism`]. A request of `Some(0)` means "auto",
/// mirroring `make -j`/`cargo build -j` conventions; the result is
/// always at least 1.
#[must_use]
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    match requested {
        Some(n) if n > 0 => n,
        _ => available_parallelism(),
    }
}

/// The seed for task `task_index` of a run with `master_seed`.
///
/// Counter-based SplitMix64: the state is `master_seed` advanced by
/// `task_index + 1` steps of the Weyl sequence (golden-ratio
/// increment), pushed through the SplitMix64 finalizer. Every task's
/// seed is therefore a pure function of `(master_seed, task_index)` —
/// no task ever has to run, or even exist, for another's seed to be
/// computed — and consecutive indices land in statistically
/// independent parts of the output space (the finalizer is a bijection
/// with full avalanche).
///
/// The `+ 1` keeps `seed_for(s, 0) != splitmix64_finalize(s)`, so a
/// task seed never collides with a direct use of the master seed by
/// legacy single-stream code.
#[must_use]
pub fn seed_for(master_seed: u64, task_index: u64) -> u64 {
    let mut z = master_seed.wrapping_add(
        task_index
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `count` independent tasks on `jobs` worker threads and return
/// the results **in task-index order**, regardless of scheduling.
///
/// `task(i)` must be a pure function of `i` (draw any randomness from
/// [`seed_for`]); under that discipline the returned vector is
/// byte-identical for every `jobs` value, which the test suite and CI
/// enforce for the real sweep surfaces.
///
/// `jobs <= 1` (or a single task) runs inline on the caller's thread
/// with no thread machinery at all, so the serial path stays the
/// trivially obvious one.
///
/// # Panics
///
/// If a task panics the panic is propagated after the remaining
/// workers drain the queue (the [`std::thread::scope`] contract).
pub fn run<T, F>(jobs: usize, count: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || count <= 1 {
        return (0..count).map(task).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (cursor, task) = (&cursor, &task);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(count))
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Claim-one-index queue: task grids here are
                        // coarse (one Markov solve, one Monte-Carlo
                        // replication), so per-index claiming costs
                        // nothing measurable and balances tail latency
                        // better than static chunks.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return done;
                        }
                        done.push((i, task(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        let expected: Vec<u64> = (0..97).map(|i| (i as u64) * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 32] {
            let got = run(jobs, 97, |i| (i as u64) * 3 + 1);
            assert_eq!(got, expected, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_single_task_grids_work() {
        assert_eq!(run(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run(8, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        let results = run(4, 1000, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(results.len(), 1000);
        assert!(results.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        assert_eq!(run(64, 3, |i| i * i), vec![0, 1, 4]);
    }

    #[test]
    fn seed_splitter_is_stable() {
        // Pinned values: recorded experiment baselines (BENCH_sweep,
        // replication CSVs) depend on this stream never changing.
        assert_eq!(seed_for(0, 0), 0xE220_A839_7B1D_CDAF_u64);
        assert_eq!(seed_for(0xD1CE, 7), seed_for(0xD1CE, 7));
    }

    #[test]
    fn seed_splitter_has_no_easy_collisions() {
        let mut seen = std::collections::HashSet::new();
        for master in [0u64, 1, 0xD1CE, u64::MAX] {
            for index in 0..1000u64 {
                assert!(seen.insert(seed_for(master, index)), "collision");
            }
        }
    }

    #[test]
    fn seed_differs_from_master_and_between_indices() {
        let master = 42;
        assert_ne!(seed_for(master, 0), master);
        assert_ne!(seed_for(master, 0), seed_for(master, 1));
        assert_ne!(seed_for(master, 0), seed_for(master + 1, 0));
    }

    #[test]
    fn resolve_jobs_prefers_explicit_request() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
        assert!(resolve_jobs(Some(0)) >= 1);
    }

    #[test]
    fn parallel_matches_serial_on_a_stateful_computation() {
        // A task heavy enough to overlap workers: sum a per-task PRNG
        // stream seeded by the splitter, the exact discipline the
        // sweep surfaces use.
        let compute = |i: usize| {
            let mut state = seed_for(99, i as u64);
            let mut acc = 0u64;
            for _ in 0..1000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                acc = acc.wrapping_add(state >> 33);
            }
            acc
        };
        let serial = run(1, 64, compute);
        for jobs in [2, 4, 8] {
            assert_eq!(run(jobs, 64, compute), serial, "jobs = {jobs}");
        }
    }
}
