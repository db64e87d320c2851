//! The commit-path benchmark. See `benchmark/README.md`.
//!
//! Two ways to run it:
//!
//! * **one workload** — `--workload <name> --seed <n> --seconds <s>
//!   --trace <0|1>`: the form `BENCHMARK.json`'s command is driven in.
//!   The last line of standard output is one JSON object with the
//!   end-to-end metrics (`--trace 0`) or the per-layer ones
//!   (`--trace 1`).
//! * **everything** — no `--workload`: every workload untraced, then
//!   traced, then the ladder, as one human-readable report.
//!   `--repeat N` instead runs N untraced sets and judges their spread
//!   against the bounds in `BENCHMARK.json`; `--quick` shortens every
//!   window for smoke use.

mod alloc_count;
mod check;
mod ladder;
mod loadgen;
mod metrics;
mod report;
mod run;
mod scrape;
mod stats;
mod sys;
mod workload;

use run::{run_workload, RunConfig, RunResult};
use std::process::ExitCode;
use workload::{Workload, WARMUP_S, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// The parsed command line.
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<usize>,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: None,
        quick: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 sets".to_string());
                }
                args.repeat = Some(n);
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The single line a driven run ends with.
fn driver_line(result: &RunResult, metrics: &[&run::Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                report::json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        fields.join(", ")
    )
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let manifest = report::Manifest::load()?;
    let (default_seconds, warmup_s) = if args.quick {
        (3.0, 0.2)
    } else {
        (manifest.run_seconds, WARMUP_S)
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default_seconds),
        warmup_s,
        trace: args.trace,
    };

    if let Some(w) = args.workload {
        let mut result = run_workload(w, &cfg)?;
        if cfg.trace {
            result.per_layer.extend(ladder::run_ladder()?.metrics);
            report::write_spans(&result)?;
        }
        let declared = manifest.select(&result, cfg.trace)?;
        report::print_run(&result);
        println!("{}", driver_line(&result, &declared));
        return Ok(());
    }

    report::print_environment(&manifest, &cfg);
    if let Some(sets) = args.repeat {
        return report::repeat(&manifest, &cfg, sets);
    }
    let mut untraced = Vec::new();
    for w in &WORKLOADS {
        let result = run_workload(w, &cfg)?;
        report::print_run(&result);
        untraced.push(result);
    }
    let traced_cfg = RunConfig { trace: true, ..cfg };
    for (w, plain) in WORKLOADS.iter().zip(&untraced) {
        let result = run_workload(w, &traced_cfg)?;
        report::write_spans(&result)?;
        report::print_run(&result);
        report::print_trace_overhead(plain, &result);
    }
    report::print_ladder(&ladder::run_ladder()?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
