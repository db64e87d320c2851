//! Raw op records → numbers: one checked segment is summarized, then a
//! run's segments are combined (counts summed, metrics by median).

use crate::loadgen::{Generated, OpRec, Outcome};
use crate::run::{metric, FaultLog, Metric, RunResult, Segment, Traced};
use crate::stats::{median, percentile_ms};
use crate::sys;
use crate::workload::{Workload, SLO_MS, TRANSITION_MS};
use std::collections::BTreeMap;

/// Which part of the fault schedule an op was due in.
#[derive(PartialEq)]
enum Phase {
    Healthy,
    Degraded,
    Transition,
}

fn phase(op: &OpRec, fault: Option<&FaultLog>) -> Phase {
    let Some(f) = fault else {
        return Phase::Healthy;
    };
    let margin = (TRANSITION_MS * 1e6) as u64;
    let near = |t: u64| op.due.abs_diff(t) <= margin;
    if near(f.crashed_ns) || near(f.recovered_ns) {
        Phase::Transition
    } else if (f.crashed_ns..f.recovered_ns).contains(&op.due) {
        Phase::Degraded
    } else {
        Phase::Healthy
    }
}

fn sorted_latencies<'a>(ops: impl Iterator<Item = &'a OpRec>) -> Vec<u64> {
    let mut v: Vec<u64> = ops.map(|op| op.acked - op.due).collect();
    v.sort_unstable();
    v
}

/// Turn one checked segment into numbers.
pub fn summarize(
    w: &'static Workload,
    segment: &Segment,
    window_s: f64,
) -> Result<RunResult, String> {
    let at = &segment.schedule;
    let fault = segment.fault.as_ref();
    let in_window = || {
        segment
            .generated
            .iter()
            .flat_map(|g| g.ops.iter().map(move |op| (g, op)))
            .filter(|(_, op)| (at.t0..at.t1).contains(&op.due))
    };
    let ops = || in_window().map(|(_, op)| op);
    let attempted = ops().count() as u64;
    let ok = ops().filter(|op| op.outcome.is_ok()).count() as u64;
    let failed = attempted - ok;
    let mut fail_tally: BTreeMap<String, u64> = BTreeMap::new();
    for (g, op) in in_window() {
        let name = match op.outcome {
            Outcome::Failed(i) => g.fails.name(i),
            Outcome::Unanswered => "unanswered",
            _ => continue,
        };
        *fail_tally.entry(name.to_string()).or_default() += 1;
    }
    if attempted == 0 {
        return Err(format!("{}: no op fell due in the window", w.name));
    }
    if fail_tally.values().sum::<u64>() != failed {
        return Err(format!("{}: attempted != ok + failed", w.name));
    }
    let mut refusal_tally: BTreeMap<String, u64> = BTreeMap::new();
    for (name, count) in segment.generated.iter().flat_map(|g| g.fails.tally()) {
        *refusal_tally.entry(name.to_string()).or_default() += count;
    }

    let committed = |op: &&OpRec| matches!(op.outcome, Outcome::Committed(_));
    let commits = ops().filter(committed).count() as u64;
    // Self-consistency: the per-key commit counts are the throughput.
    let mut per_key = vec![0u64; w.objects];
    for op in ops().filter(committed) {
        per_key[op.key as usize] += 1;
    }
    if per_key.iter().sum::<u64>() != commits {
        return Err(format!(
            "{}: per-key commits do not sum to the total",
            w.name
        ));
    }

    // Requests sent for the window's ops: one per op plus one per retry.
    let tries: u64 = ops().map(|op| u64::from(op.tries)).sum();
    let ok_within = |limit_ms: f64| {
        let limit_ns = (limit_ms * 1e6) as u64;
        ops()
            .filter(|op| op.outcome.is_ok() && op.acked - op.due <= limit_ns)
            .count() as f64
            / attempted as f64
    };
    let end_to_end = vec![
        metric("setup_s", "s", segment.setup_s),
        metric("commits_per_s", "1/s", commits as f64 / window_s),
        metric("ok_share", "ratio", ok as f64 / tries as f64),
        metric("slo_ok_share", "ratio", ok_within(SLO_MS)),
        metric("tight_slo_ok_share", "ratio", ok_within(w.tight_slo_ms)),
    ];
    let mut result = RunResult {
        workload: w.name,
        attempted,
        ok,
        failed,
        fail_tally,
        refusal_tally,
        end_to_end,
        counts: BTreeMap::from([("commits".to_string(), commits)]),
        ..RunResult::default()
    };
    let Some(traced) = &segment.traced else {
        return Ok(result);
    };

    // A percentile without enough samples beyond it reads 0, not a guess.
    let ms = |sorted: &[u64], p: f64| percentile_ms(sorted, p).unwrap_or(0.0);
    let commit_ns = sorted_latencies(ops().filter(committed));
    let in_phase = |which: Phase| {
        sorted_latencies(
            ops()
                .filter(committed)
                .filter(|op| phase(op, fault) == which),
        )
    };
    let reads = sorted_latencies(ops().filter(|op| op.outcome == Outcome::ReadServed));
    let mut late: Vec<u64> = ops().map(|op| op.sent - op.due).collect();
    late.sort_unstable();
    let degraded = in_phase(Phase::Degraded);
    let transition_ops = ops()
        .filter(|op| phase(op, fault) == Phase::Transition)
        .count();
    result.per_layer = layer_metrics(segment, traced, commits as f64);
    result.per_layer.extend([
        metric("setup.boot_ms", "ms", segment.boot_s * 1e3),
        metric(
            "client.tries_per_op",
            "count",
            tries as f64 / attempted as f64,
        ),
        metric("latency.commit_p50_ms", "ms", ms(&commit_ns, 0.5)),
        metric("latency.commit_p90_ms", "ms", ms(&commit_ns, 0.9)),
        metric("latency.commit_p95_ms", "ms", ms(&commit_ns, 0.95)),
        metric("latency.read_p50_ms", "ms", ms(&reads, 0.5)),
        metric(
            "fault.healthy_commit_p50_ms",
            "ms",
            ms(&in_phase(Phase::Healthy), 0.5),
        ),
        metric("fault.degraded_commit_p50_ms", "ms", ms(&degraded, 0.5)),
        metric("fault.transition_ops", "count", transition_ops as f64),
        metric("loadgen.late_p95_ms", "ms", ms(&late, 0.95)),
    ]);
    result.counts.extend([
        ("commit_latency_samples".to_string(), commit_ns.len() as u64),
        ("read_latency_samples".to_string(), reads.len() as u64),
        (
            "degraded_latency_samples".to_string(),
            degraded.len() as u64,
        ),
    ]);
    result.spans = segment
        .generated
        .iter()
        .enumerate()
        .flat_map(|(i, g)| g.ops.iter().map(move |op| (i, *op)))
        .collect();
    Ok(result)
}

/// The longest the clients went without an ok reply around the crash:
/// the gap between the last ack before the crash instant and the first
/// one after it.
fn outage_ns(generated: &[Generated], fault: Option<&FaultLog>) -> u64 {
    let Some(f) = fault else {
        return 0;
    };
    let acks = || {
        generated
            .iter()
            .flat_map(|g| &g.ops)
            .filter(|op| op.outcome.is_ok())
            .map(|op| op.acked)
    };
    let before = acks().filter(|&t| t <= f.crashed_ns).max();
    let after = acks().filter(|&t| t > f.crashed_ns).min();
    match (before, after) {
        (Some(b), Some(a)) => a - b,
        _ => 0,
    }
}

/// Per-layer numbers from the counters scraped around a segment's load
/// and the process readings at its window's edges.
fn layer_metrics(segment: &Segment, x: &Traced, window_commits: f64) -> Vec<Metric> {
    let d = x.after.since(&x.before);
    // The counters span warm-up, window and drain, so ratios are taken
    // over every op of the load, not the window's alone.
    let all_ops = || segment.generated.iter().flat_map(|g| &g.ops);
    let total_commits = all_ops()
        .filter(|op| matches!(op.outcome, Outcome::Committed(_)))
        .count()
        .max(1) as f64;
    let total_ok = all_ops().filter(|op| op.outcome.is_ok()).count() as f64;
    let per_commit = |count: u64| count as f64 / total_commits;
    let window_commits = window_commits.max(1.0);
    let generator_cpu: u64 = segment.generated.iter().map(|g| g.cpu_ns).sum();
    let ms = |ns: u64| ns as f64 / 1e6;
    let fault = segment.fault.as_ref();
    vec![
        metric(
            "protocol.votes_per_commit",
            "count",
            per_commit(d.event("vote_granted") + d.event("vote_denied")),
        ),
        metric(
            "protocol.aborts_per_commit",
            "count",
            per_commit(d.event("aborted")),
        ),
        metric(
            "protocol.ops_per_round",
            "count",
            total_ok / d.event("quorum_assembled").max(1) as f64,
        ),
        metric(
            "protocol.catchups_per_commit",
            "count",
            per_commit(d.event("catch_up_started")),
        ),
        metric(
            "storage.wal_bytes_per_commit",
            "bytes",
            x.wal_growth as f64 / window_commits,
        ),
        metric(
            "node.merge_barriers_per_commit",
            "count",
            per_commit(d.merge_barriers),
        ),
        metric(
            "node.merge_wait_us_per_barrier",
            "us",
            d.merge_wait_ns as f64 / 1e3 / d.merge_barriers.max(1) as f64,
        ),
        metric("node.queue_peak", "count", d.queue_peak as f64),
        metric("node.batch_p50", "count", d.batch_p50() as f64),
        metric(
            "transport.frames_in_per_commit",
            "count",
            per_commit(d.net("frames_in")),
        ),
        metric(
            "transport.backpressure_drops",
            "count",
            d.net("backpressure_drops") as f64,
        ),
        metric(
            "transport.peer_write_errors",
            "count",
            d.net("peer_write_errors") as f64,
        ),
        metric("reactor.stalled_sites", "count", x.stalled_sites as f64),
        metric(
            "http.rejected_429",
            "count",
            d.net("http_rejected_429") as f64,
        ),
        metric(
            "proc.cpu_ms_per_kcommit",
            "ms",
            ms(x.close.cpu_ns - x.open.cpu_ns) / (window_commits / 1e3),
        ),
        metric(
            "proc.ctx_switches_per_commit",
            "count",
            (x.close.ctx_switches - x.open.ctx_switches) as f64 / window_commits,
        ),
        metric(
            "proc.peak_rss_mb",
            "MB",
            sys::rss_bytes().1 as f64 / (1024.0 * 1024.0),
        ),
        metric(
            "proc.rss_bytes_per_commit",
            "bytes",
            x.close.rss.saturating_sub(x.open.rss) as f64 / window_commits,
        ),
        metric(
            "loadgen.cpu_share",
            "ratio",
            generator_cpu as f64 / x.load_cpu_ns.max(1) as f64,
        ),
        metric(
            "fault.outage_ms",
            "ms",
            ms(outage_ns(&segment.generated, fault)),
        ),
        metric(
            "fault.rejoin_ms",
            "ms",
            fault.and_then(|f| f.rejoin_ns).map_or(0.0, ms),
        ),
    ]
}

/// Per-layer metrics that count events: a run reports their sum over
/// its segments. Every other metric is a median across segments.
const SUMMED: [&str; 5] = [
    "reactor.stalled_sites",
    "transport.backpressure_drops",
    "transport.peer_write_errors",
    "http.rejected_429",
    "fault.transition_ops",
];

pub fn combine(w: &'static Workload, segments: Vec<RunResult>) -> RunResult {
    let across = |pick: fn(&RunResult) -> &Vec<Metric>| -> Vec<Metric> {
        pick(&segments[0])
            .iter()
            .map(|first| {
                let values: Vec<f64> = segments
                    .iter()
                    .filter_map(|s| pick(s).iter().find(|m| m.name == first.name))
                    .map(|m| m.value)
                    .collect();
                let value = if SUMMED.contains(&first.name.as_str()) {
                    values.iter().sum()
                } else {
                    median(&values)
                };
                metric(&first.name, first.unit, value)
            })
            .collect()
    };
    let mut run = RunResult {
        workload: w.name,
        end_to_end: across(|s| &s.end_to_end),
        per_layer: across(|s| &s.per_layer),
        ..RunResult::default()
    };
    if let Some(rate) = run.end_to_end_value("commits_per_s") {
        if !run.per_layer.is_empty() {
            run.per_layer
                .push(metric("trace.commits_per_s", "1/s", rate));
        }
    }
    for segment in segments {
        run.attempted += segment.attempted;
        run.ok += segment.ok;
        run.failed += segment.failed;
        for (name, count) in segment.fail_tally {
            *run.fail_tally.entry(name).or_default() += count;
        }
        for (name, count) in segment.refusal_tally {
            *run.refusal_tally.entry(name).or_default() += count;
        }
        for (name, count) in segment.counts {
            *run.counts.entry(name).or_default() += count;
        }
        run.spans = segment.spans;
    }
    for m in &run.per_layer {
        let limit = match m.name.as_str() {
            "loadgen.late_p95_ms" => 1.0,
            "loadgen.cpu_share" => 0.5,
            _ => continue,
        };
        if m.value > limit {
            run.flags.push(format!(
                "{} = {:.3} {} exceeds {limit}: this run may be measuring the generator",
                m.name, m.value, m.unit
            ));
        }
    }
    run
}
