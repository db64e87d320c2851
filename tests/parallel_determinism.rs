//! The load-bearing test for the parallel engine's seed-splitter
//! contract: **every sweep surface produces byte-identical results for
//! any worker count.**
//!
//! Each surface is run at `jobs = 1` and at several parallel worker
//! counts (2, 8 and the machine's core count), and the
//! full result structures *and* their rendered CSV artifacts are
//! compared for equality. If scheduling ever leaks into results — a
//! shared RNG stream, a slot written by index-of-completion instead of
//! task index — this is the test that goes red.

use dynvote::markov::sweep;
use dynvote::mc::{simulate_replicated, McConfig};
use dynvote::par;
use dynvote::sim::experiments::{results_to_csv, ExperimentPlan};
use dynvote::AlgorithmKind;

/// The parallel worker counts to pit against the serial run: fixed 2
/// and 8, plus the machine's core count.
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![2, 8, par::resolve_jobs(None)];
    counts.sort_unstable();
    counts.dedup();
    counts.retain(|&j| j > 1);
    counts
}

#[test]
fn figure_sweep_is_byte_identical_for_any_worker_count() {
    // The ISSUE-mandated grid: 3 algorithms × 8 ratios.
    let algos = [
        AlgorithmKind::Hybrid,
        AlgorithmKind::DynamicLinear,
        AlgorithmKind::Voting,
    ];
    let grid = sweep::ratio_grid(0.25, 4.0, 7);
    assert_eq!(grid.len(), 8);
    let serial = sweep::figure_series_jobs(5, &algos, &grid, 1);
    for jobs in worker_counts() {
        let parallel = sweep::figure_series_jobs(5, &algos, &grid, jobs);
        assert_eq!(serial, parallel, "sweep structs diverged at jobs = {jobs}");
        assert_eq!(
            serial.to_csv(),
            parallel.to_csv(),
            "sweep CSV diverged at jobs = {jobs}"
        );
    }
}

#[test]
fn mc_replication_batch_is_byte_identical_for_any_worker_count() {
    let config = McConfig {
        n: 5,
        ratio: 1.5,
        horizon: 1_200.0,
        burn_in: 100.0,
        ..McConfig::default()
    };
    let serial = simulate_replicated(AlgorithmKind::Hybrid, &config, 8, 1);
    for jobs in worker_counts() {
        let parallel = simulate_replicated(AlgorithmKind::Hybrid, &config, 8, jobs);
        // Full-struct equality: every replication's every field, plus
        // the across-replication aggregates.
        assert_eq!(serial, parallel, "mc batch diverged at jobs = {jobs}");
    }
}

#[test]
fn experiment_grid_is_byte_identical_for_any_worker_count() {
    let plan = ExperimentPlan {
        algorithms: vec![AlgorithmKind::Hybrid, AlgorithmKind::Voting],
        replications: 2,
        duration: 25.0,
        ..ExperimentPlan::default()
    };
    let serial = plan.execute(1);
    let serial_csv = results_to_csv(&serial);
    for jobs in worker_counts() {
        let parallel = plan.execute(jobs);
        assert_eq!(
            serial, parallel,
            "experiment grid diverged at jobs = {jobs}"
        );
        assert_eq!(
            serial_csv,
            results_to_csv(&parallel),
            "experiment CSV diverged at jobs = {jobs}"
        );
    }
}

#[test]
fn replication_seeds_are_schedule_independent() {
    // The splitter is a pure function of (master, index): anyone can
    // reproduce replication i without running replications 0..i.
    let master = 0xD1CE;
    let batch = simulate_replicated(
        AlgorithmKind::DynamicVoting,
        &McConfig {
            horizon: 800.0,
            burn_in: 50.0,
            seed: master,
            ..McConfig::default()
        },
        4,
        8,
    );
    let lone = dynvote::mc::simulate(
        AlgorithmKind::DynamicVoting,
        &McConfig {
            horizon: 800.0,
            burn_in: 50.0,
            seed: par::seed_for(master, 3),
            ..McConfig::default()
        },
    );
    assert_eq!(batch.replications[3], lone);
}
