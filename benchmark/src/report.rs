//! Everything the benchmark prints or writes: the environment block,
//! per-run reports, the ladder table, the repeatability verdict, and a
//! traced run's span file. `BENCHMARK.json` is read here, so the bounds
//! a run is judged by are the ones the repository committed.

use crate::ladder::Ladder;
use crate::run::{run_workload, work_dir, Metric, RunConfig, RunResult};
use crate::stats::{median, quartiles};
use crate::sys;
use crate::workload::{
    DRAIN_S, FAULT_SCHEDULE, FAULT_SITE, SITES, SLO_MS, TRANSITION_MS, WARMUP_S, WORKLOADS,
};
use serde_json::Value;
use std::io::Write;
use std::path::Path;

/// A float as JSON: every digit the measurement has, never `NaN`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub bound: f64,
}

/// What `BENCHMARK.json` fixes.
pub struct Manifest {
    pub run_seconds: f64,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<String>,
}

impl Manifest {
    /// Read `BENCHMARK.json` from the repository root (the parent of
    /// this package's directory).
    pub fn load() -> Result<Manifest, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| json[key].as_array().cloned().unwrap_or_default();
        let name_of = |entry: &Value| entry["name"].as_str().unwrap_or_default().to_string();
        let declared: Vec<String> = list("workloads").iter().map(name_of).collect();
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        if declared != known {
            return Err(format!(
                "BENCHMARK.json names workloads {declared:?}, the benchmark has {known:?}"
            ));
        }
        Ok(Manifest {
            run_seconds: json["run_seconds"]
                .as_f64()
                .ok_or("BENCHMARK.json: run_seconds missing")?,
            end_to_end: list("end_to_end")
                .iter()
                .map(|entry| Declared {
                    name: name_of(entry),
                    bound: entry["bound"].as_f64().unwrap_or(0.0),
                })
                .collect(),
            per_layer: list("per_layer").iter().map(name_of).collect(),
        })
    }

    /// The metrics a driven run must print — exactly the declared ones,
    /// in declared order. A declared metric the run did not produce is
    /// an error, not a zero.
    pub fn select<'a>(
        &self,
        result: &'a RunResult,
        trace: bool,
    ) -> Result<Vec<&'a Metric>, String> {
        let (names, produced): (Vec<&str>, &[Metric]) = if trace {
            (
                self.per_layer.iter().map(String::as_str).collect(),
                &result.per_layer,
            )
        } else {
            (
                self.end_to_end.iter().map(|d| d.name.as_str()).collect(),
                &result.end_to_end,
            )
        };
        names
            .into_iter()
            .map(|name| {
                produced.iter().find(|m| m.name == name).ok_or(format!(
                    "{}: declared metric {name} was not produced",
                    result.workload
                ))
            })
            .collect()
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine, the code and every frozen constant, so a recorded
/// number can be placed.
pub fn print_environment(manifest: &Manifest, cfg: &RunConfig) {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("== environment");
    println!("cores                 {cores}");
    println!(
        "git rev               {}",
        command_output("git", &["rev-parse", "HEAD"])
    );
    println!(
        "rustc                 {}",
        command_output("rustc", &["--version"])
    );
    println!(
        "data-dir filesystem   {} ({})",
        sys::filesystem_of(&work_dir()),
        work_dir().display()
    );
    println!("seed                  {}", cfg.seed);
    println!(
        "window / warm-up      {} s over all segments / {} s per segment (BENCHMARK.json \
         run_seconds = {}, warm-up {} s)",
        cfg.seconds, cfg.warmup_s, manifest.run_seconds, WARMUP_S
    );
    println!(
        "cluster               {SITES} sites, hybrid, TCP transport, ClusterConfig::new defaults"
    );
    println!("drain deadline        {DRAIN_S} s");
    println!("latency limit         {SLO_MS} ms (slo_ok_share)");
    println!(
        "fault schedule        site {FAULT_SITE}: healthy {:.3} / down {:.3} / healthy {:.3} of the \
         window, {TRANSITION_MS} ms transition margins",
        FAULT_SCHEDULE[0], FAULT_SCHEDULE[1], FAULT_SCHEDULE[2]
    );
    for w in &WORKLOADS {
        let pace = format!(
            "open loop, {} ops/s per connection in bursts of {}, at most {} in flight",
            w.pace.rate(),
            w.pace.burst,
            w.pace.cap
        );
        println!(
            "workload {:<14} {} segments, {} objects, {} {:?} connection(s) to sites {:?}, {pace}, \
             {:.0}% reads{}{}{}",
            w.name,
            w.segments,
            w.objects,
            w.conns.len(),
            w.wire,
            w.conns.iter().map(|c| c.site).collect::<Vec<_>>(),
            w.read_share * 100.0,
            if w.durable { ", fsync-always data dir" } else { "" },
            if w.lockstep { ", same key at the same instant" } else { "" },
            if w.fault { ", crash + recover" } else { "" },
        );
    }
    println!();
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// One run, for a human.
pub fn print_run(result: &RunResult) {
    println!(
        "== {}{}",
        result.workload,
        if result.per_layer.is_empty() {
            ""
        } else {
            " (traced)"
        }
    );
    println!(
        "  attempted {}  ok {}  failed {}",
        result.attempted, result.ok, result.failed
    );
    for (name, count) in &result.fail_tally {
        println!("  fail.{name:<31} {count:>16}");
    }
    for (name, count) in &result.refusal_tally {
        println!("  refused.{name:<28} {count:>16}");
    }
    for (name, count) in &result.counts {
        println!("  {name:<36} {count:>16}");
    }
    print_metrics(&result.end_to_end);
    print_metrics(&result.per_layer);
    for flag in &result.flags {
        println!("  FLAG: {flag}");
    }
    println!();
}

/// Tracing overhead: the traced run's throughput against the untraced
/// run's, both from this process.
pub fn print_trace_overhead(plain: &RunResult, traced: &RunResult) {
    let rate = |r: &RunResult| r.end_to_end_value("commits_per_s").unwrap_or(0.0);
    if rate(plain) > 0.0 {
        println!(
            "  {:<36} {:>16.6} ratio (traced {:.1} vs untraced {:.1} commits/s)\n",
            "trace.overhead_share",
            1.0 - rate(traced) / rate(plain),
            rate(traced),
            rate(plain)
        );
    }
}

/// The rung table and the layer differences.
pub fn print_ladder(ladder: &Ladder) {
    println!("== ladder (single update, object 0, site 0, one op in flight)");
    println!(
        "  {:<16} {:>12} {:>12} {:>12} {:>9}",
        "rung", "median us", "q1 us", "q3 us", "samples"
    );
    for rung in &ladder.rungs {
        let (q1, q3) = rung.quartiles_us();
        println!(
            "  {:<16} {:>12.3} {:>12.3} {:>12.3} {:>9}",
            rung.name,
            rung.median_us(),
            q1,
            q3,
            rung.samples()
        );
    }
    print_metrics(&ladder.metrics);
    println!();
}

/// `--repeat N`: N full untraced sets on consecutive seeds; per
/// workload and end-to-end metric the median, quartiles and the largest
/// relative deviation from the median, which must stay within the
/// metric's `BENCHMARK.json` bound.
pub fn repeat(manifest: &Manifest, cfg: &RunConfig, sets: usize) -> Result<(), String> {
    let mut runs: Vec<Vec<RunResult>> = Vec::new();
    for set in 0..sets {
        let cfg = RunConfig {
            seed: cfg.seed + set as u64,
            trace: false,
            ..*cfg
        };
        let mut results = Vec::new();
        for w in &WORKLOADS {
            results.push(run_workload(w, &cfg)?);
        }
        println!("set {} (seed {}) done", set + 1, cfg.seed);
        runs.push(results);
    }
    println!(
        "\n{:<16} {:<24} {:>12} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "median", "q1", "q3", "max dev", "bound"
    );
    let mut worst: Option<String> = None;
    for (i, w) in WORKLOADS.iter().enumerate() {
        for declared in &manifest.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|set| set[i].end_to_end_value(&declared.name))
                .collect();
            if values.len() != sets {
                return Err(format!("{}: {} missing from a run", w.name, declared.name));
            }
            let mid = median(&values);
            let [q1, _, q3] = quartiles(&values);
            let deviation = values
                .iter()
                .map(|v| (v - mid).abs() / mid.abs().max(f64::MIN_POSITIVE))
                .fold(0.0, f64::max);
            let verdict = if deviation > declared.bound {
                worst.get_or_insert(format!("{} {}", w.name, declared.name));
                "EXCEEDS"
            } else {
                ""
            };
            println!(
                "{:<16} {:<24} {:>12.5} {:>12.5} {:>12.5} {:>8.2}% {:>6.0}% {verdict}",
                w.name,
                declared.name,
                mid,
                q1,
                q3,
                deviation * 100.0,
                declared.bound * 100.0
            );
        }
    }
    match worst {
        None => Ok(()),
        Some(which) => Err(format!(
            "{which} (and possibly others) deviates by more than its bound between sets"
        )),
    }
}

/// Write a traced run's spans as JSON lines: one span per op with the
/// time it waited in the generator and the time it was in flight as
/// child spans. Capped, because a hot-key run makes millions of ops.
pub fn write_spans(result: &RunResult) -> Result<(), String> {
    const MAX_OPS: usize = 100_000;
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}.jsonl", result.workload));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        for (op_id, (conn, op)) in result.spans.iter().take(MAX_OPS).enumerate() {
            let kind = if op.read { "read" } else { "update" };
            let end = op.acked.max(op.sent);
            writeln!(
                out,
                "{{\"name\":\"{kind}\",\"op\":{op_id},\"parent\":null,\"start_ns\":{},\"end_ns\":{end},\
                 \"conn\":{conn},\"key\":{},\"outcome\":\"{:?}\"}}",
                op.due, op.key, op.outcome
            )?;
            writeln!(
                out,
                "{{\"name\":\"loadgen.wait\",\"op\":{op_id},\"parent\":\"{kind}\",\"start_ns\":{},\"end_ns\":{}}}",
                op.due, op.sent
            )?;
            writeln!(
                out,
                "{{\"name\":\"in_flight\",\"op\":{op_id},\"parent\":\"{kind}\",\"start_ns\":{},\"end_ns\":{end}}}",
                op.sent
            )?;
        }
        for m in &result.per_layer {
            writeln!(
                out,
                "{{\"counter\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )?;
        }
        out.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}
