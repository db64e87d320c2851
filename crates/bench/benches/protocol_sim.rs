//! Bench: message-level protocol throughput.
//!
//! Times a fixed workload through the discrete-event engine: healthy
//! commits (the three-phase protocol end to end), and a chaos mix with
//! faults and message loss. Reported per-iteration times divide into
//! events for an events/second figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dynvote_core::{AlgorithmKind, SiteId};
use dynvote_sim::{ObjectId, SimConfig, Simulation};
use std::hint::black_box;

const HEALTHY_UPDATES: u64 = 100;

fn bench_healthy_commits(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol/healthy");
    group.throughput(Throughput::Elements(HEALTHY_UPDATES));
    group.sample_size(20);
    for kind in [AlgorithmKind::Voting, AlgorithmKind::Hybrid] {
        group.bench_with_input(BenchmarkId::from_parameter(kind.id()), &kind, |b, &kind| {
            b.iter(|| {
                let mut sim = Simulation::new(SimConfig {
                    n: 5,
                    algorithm: kind,
                    ..SimConfig::default()
                });
                for i in 0..HEALTHY_UPDATES {
                    sim.submit_update(SiteId::new((i % 5) as usize));
                    sim.quiesce();
                }
                assert_eq!(sim.stats().commits, HEALTHY_UPDATES);
                black_box(sim.clock())
            });
        });
    }
    group.finish();
}

fn bench_chaos_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol/chaos");
    group.sample_size(10);
    group.bench_function("hybrid_80tu", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(SimConfig {
                n: 5,
                algorithm: AlgorithmKind::Hybrid,
                drop_probability: 0.1,
                seed: 11,
                ..SimConfig::default()
            });
            sim.submit_update(SiteId(0));
            sim.quiesce();
            sim.schedule_poisson_arrivals(3.0, 80.0);
            sim.schedule_random_faults(0.5, 0.8, 80.0);
            sim.run_until(90.0);
            for i in 0..5 {
                sim.recover_site(SiteId::new(i));
                for j in i + 1..5 {
                    sim.repair_link(SiteId::new(i), SiteId::new(j));
                }
            }
            sim.quiesce();
            assert!(sim.check_invariants().is_empty());
            black_box(sim.stats().commits)
        });
    });
    group.finish();
}

fn bench_multifile_groups(c: &mut Criterion) {
    const GROUPS: u64 = 50;
    let mut group = c.benchmark_group("protocol/multifile");
    group.throughput(Throughput::Elements(GROUPS));
    group.sample_size(20);
    group.bench_function("two_file_groups", |b| {
        b.iter(|| {
            let files = [AlgorithmKind::Hybrid, AlgorithmKind::Voting];
            let mut sim = Simulation::with_files(SimConfig::default(), &files);
            for i in 0..GROUPS {
                sim.submit_group(SiteId::new((i % 5) as usize), &[ObjectId(0), ObjectId(1)]);
                sim.quiesce();
            }
            assert_eq!(sim.group_stats().group_commits, GROUPS);
            assert!(sim.check_atomicity().is_empty());
            black_box(sim.clock())
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    // Quick statistics: these benches exist to regenerate and
    // shape-check the paper's tables/figures and to catch gross
    // performance regressions; tight confidence intervals are not
    // worth minutes of wall clock per target.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(10);
    targets = bench_healthy_commits,
    bench_chaos_run,
    bench_multifile_groups
}
criterion_main!(benches);
