//! Integration tests of the `dynvote` binary: every subcommand runs,
//! exits cleanly, and prints what it promises.

use std::process::Command;

fn dynvote(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_dynvote"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn help_lists_every_subcommand() {
    let (ok, out, _) = dynvote(&["help"]);
    assert!(ok);
    for cmd in [
        "repro",
        "avail",
        "sweep",
        "figures",
        "mc",
        "crossover",
        "chain",
        "hetero",
        "transient",
        "witnesses",
        "joint",
        "votes",
        "simulate",
        "experiments",
        "chaos",
    ] {
        assert!(out.contains(cmd), "help must mention {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let (ok, _, err) = dynvote(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn repro_fig1_prints_the_table() {
    let (ok, out, _) = dynvote(&["repro", "fig1"]);
    assert!(ok);
    for needle in ["time 1", "time 4", "hybrid", "BC"] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
}

#[test]
fn repro_rejects_unknown_target() {
    let (ok, _, err) = dynvote(&["repro", "fig99"]);
    assert!(!ok);
    assert!(err.contains("unknown repro target"));
}

#[test]
fn avail_prints_analytic_value() {
    let (ok, out, _) = dynvote(&["avail", "--algo", "hybrid", "--n", "5", "--ratio", "2.0"]);
    assert!(ok);
    assert!(
        out.contains("0.6425"),
        "expected hybrid@5,2.0 ≈ 0.6425:\n{out}"
    );
}

#[test]
fn avail_validates_arguments() {
    let (ok, _, err) = dynvote(&["avail", "--n", "99"]);
    assert!(!ok && err.contains("--n"));
    let (ok, _, err) = dynvote(&["avail", "--algo", "quorumtron"]);
    assert!(!ok && err.contains("unknown algorithm"));
}

#[test]
fn sweep_emits_csv_and_json() {
    let (ok, out, _) = dynvote(&[
        "sweep", "--n", "4", "--lo", "1", "--hi", "2", "--steps", "2",
    ]);
    assert!(ok);
    assert!(out.starts_with("ratio,hybrid,dynamic-linear,voting"));
    assert_eq!(out.lines().count(), 4);

    let (ok, out, _) = dynvote(&[
        "sweep", "--n", "4", "--lo", "1", "--hi", "2", "--steps", "2", "--format", "json",
    ]);
    assert!(ok);
    let parsed: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
    assert_eq!(parsed["n"], 4);
    assert_eq!(parsed["rows"].as_array().unwrap().len(), 3);
}

#[test]
fn sweep_stdout_is_byte_identical_across_jobs() {
    let run = |jobs: &str| {
        let (ok, out, err) = dynvote(&[
            "sweep", "--n", "5", "--lo", "0.5", "--hi", "2", "--steps", "6", "--jobs", jobs,
        ]);
        assert!(ok, "{err}");
        // Progress goes to stderr, one line per grid point plus header.
        assert_eq!(err.lines().count(), 8, "{err}");
        out
    };
    let serial = run("1");
    assert_eq!(serial, run("4"), "sweep output depends on worker count");
}

#[test]
fn figures_prints_both_figure_series() {
    let (ok, out, _) = dynvote(&["figures", "--n", "4", "--jobs", "2"]);
    assert!(ok, "{out}");
    assert!(out.contains("# fig3 (n = 4)"));
    assert!(out.contains("# fig4 (n = 4)"));
    assert!(out.contains("ratio,hybrid,dynamic-linear,voting"));
}

#[test]
fn mc_replication_batch_is_deterministic_across_jobs() {
    let run = |jobs: &str| {
        let (ok, out, err) = dynvote(&[
            "mc",
            "--algo",
            "hybrid",
            "--ratio",
            "2",
            "--horizon",
            "1500",
            "--burn-in",
            "100",
            "--replications",
            "4",
            "--seed",
            "42",
            "--jobs",
            jobs,
        ]);
        assert!(ok, "{err}");
        out
    };
    let serial = run("1");
    assert!(serial.starts_with("replication,seed,site_availability"));
    assert!(serial.contains("# site availability"));
    assert!(serial.contains("# analytic reference  0.642520"));
    assert_eq!(serial, run("8"), "mc output depends on worker count");
}

#[test]
fn mc_rejects_invalid_config() {
    let (ok, _, err) = dynvote(&["mc", "--batches", "1"]);
    assert!(!ok && err.contains("batches"), "{err}");
    let (ok, _, err) = dynvote(&["mc", "--replications", "0"]);
    assert!(!ok && err.contains("replications"), "{err}");
}

#[test]
fn experiments_grid_is_deterministic_across_jobs() {
    let run = |jobs: &str| {
        let (ok, out, err) = dynvote(&[
            "experiments",
            "--algos",
            "hybrid,voting",
            "--replications",
            "2",
            "--duration",
            "20",
            "--jobs",
            jobs,
        ]);
        assert!(ok, "{err}");
        out
    };
    let serial = run("1");
    assert!(serial.starts_with("algorithm,replication,seed,"));
    assert!(serial.contains("# consistency OK across all 4 cells"));
    assert_eq!(
        serial,
        run("8"),
        "experiments output depends on worker count"
    );
}

#[test]
fn crossover_finds_the_headline_number() {
    let (ok, out, _) = dynvote(&[
        "crossover",
        "--first",
        "hybrid",
        "--second",
        "dynamic-linear",
        "--n",
        "5",
    ]);
    assert!(ok);
    assert!(out.contains("overtakes"), "{out}");
    assert!(
        out.contains("0.629") || out.contains("0.63"),
        "expected ~0.63:\n{out}"
    );
}

#[test]
fn chain_dot_output_is_graphviz() {
    let (ok, out, _) = dynvote(&["chain", "--algo", "hybrid", "--n", "3", "--format", "dot"]);
    assert!(ok);
    assert!(out.starts_with("digraph chain {"));
    assert!(out.contains("doublecircle"));
    assert!(out.trim_end().ends_with('}'));
}

#[test]
fn hetero_prints_the_order_study() {
    let (ok, out, _) = dynvote(&["hetero", "--rates", "1:1,1:2,1:4"]);
    assert!(ok);
    assert!(out.contains("reliable-first"));
    assert!(out.contains("dynamic-linear"));
}

#[test]
fn transient_starts_at_one_and_reports_steady_state() {
    let (ok, out, _) = dynvote(&[
        "transient",
        "--algo",
        "hybrid",
        "--n",
        "4",
        "--ratio",
        "1",
        "--until",
        "4",
        "--steps",
        "4",
    ]);
    assert!(ok);
    assert!(out.contains("0.0000,1.00000000"));
    assert!(out.contains("# steady state:"));
}

#[test]
fn witnesses_table_is_monotone() {
    let (ok, out, _) = dynvote(&["witnesses", "--n", "4", "--ratio", "2"]);
    assert!(ok, "{out}");
    assert!(out.contains("4 of 4"));
    assert!(out.contains("1 of 4"));
}

#[test]
fn joint_reports_marginals_and_product() {
    let (ok, out, _) = dynvote(&[
        "joint",
        "--horizon",
        "4000",
        "--n",
        "4",
        "--algos",
        "hybrid,dynamic",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("independence would predict"));
    assert!(out.contains("marginal hybrid"));
}

#[test]
fn votes_reports_optimal_assignment() {
    let (ok, out, _) = dynvote(&["votes", "--rates", "1:0.5,1:2,1:8", "--max-vote", "2"]);
    assert!(ok, "{out}");
    assert!(out.contains("assignment"));
    assert!(out.contains("uniform votes"));
}

#[test]
fn simulate_reports_consistency_ok() {
    let (ok, out, _) = dynvote(&[
        "simulate",
        "--n",
        "5",
        "--algo",
        "hybrid",
        "--duration",
        "30",
        "--seed",
        "3",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("consistency         OK"));
    assert!(out.contains("commits"));
}

/// `--trace` prints each event from the same drain that counts it: one
/// `[site i]` line per event in the `protocol events` tally.
#[test]
fn simulate_trace_lines_match_the_event_tallies() {
    let (ok, out, err) = dynvote(&[
        "simulate",
        "--n",
        "5",
        "--algo",
        "hybrid",
        "--duration",
        "50",
        "--seed",
        "7",
        "--fault-rate",
        "0.02",
        "--trace",
        "true",
    ]);
    assert!(ok, "{out}{err}");
    let tallies = out
        .lines()
        .find_map(|line| line.strip_prefix("protocol events"))
        .expect("a protocol events line");
    let counted: u64 = tallies
        .split_whitespace()
        .map(|pair| {
            let (_, count) = pair.split_once('=').expect("kind=count");
            count.parse::<u64>().expect("a count")
        })
        .sum();
    let traced = err
        .lines()
        .filter(|line| line.starts_with("[site "))
        .count() as u64;
    assert!(counted > 0, "{out}");
    assert_eq!(traced, counted, "{out}");
}

#[test]
fn chaos_runs_every_algorithm_clean() {
    let (ok, out, _) = dynvote(&["chaos", "--n", "5", "--seed", "3", "--duration", "25"]);
    assert!(ok, "{out}");
    assert!(out.contains("nemesis schedule"));
    for algo in [
        "voting",
        "dynamic",
        "dynamic-linear",
        "hybrid",
        "modified-hybrid",
        "optimal-candidate",
    ] {
        assert!(out.contains(algo), "missing {algo} row:\n{out}");
    }
    assert!(out.contains("OK for every algorithm"), "{out}");
}

#[test]
fn chaos_saved_schedule_replays_identically() {
    let dir = std::env::temp_dir().join(format!("dynvote-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("schedule.json");
    let path = path.to_str().unwrap();

    let (ok, first, _) = dynvote(&[
        "chaos",
        "--algo",
        "hybrid",
        "--n",
        "5",
        "--seed",
        "11",
        "--duration",
        "20",
        "--drop",
        "0.05",
        "--out",
        path,
    ]);
    assert!(ok, "{first}");
    assert!(std::fs::metadata(path).is_ok(), "schedule file written");

    // Replaying the saved schedule (same engine seed) must reproduce the
    // exact statistics table — determinism is what makes schedules
    // shareable bug reports.
    let replay_args = [
        "chaos",
        "--algo",
        "hybrid",
        "--n",
        "5",
        "--seed",
        "11",
        "--duration",
        "20",
        "--drop",
        "0.05",
        "--schedule",
        path,
    ];
    let (ok, second, _) = dynvote(&replay_args);
    assert!(ok, "{second}");
    let table = |s: &str| {
        s.lines()
            .filter(|l| l.starts_with("hybrid"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(table(&first), table(&second), "replay diverged");

    let (ok, third, _) = dynvote(&replay_args);
    assert!(ok);
    assert_eq!(second, third, "byte-identical output on re-replay");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_rejects_bad_input() {
    let (ok, _, err) = dynvote(&["chaos", "--n", "99"]);
    assert!(!ok && err.contains("2 <= n"), "{err}");
    let (ok, _, err) = dynvote(&["chaos", "--schedule", "/nonexistent/schedule.json"]);
    assert!(!ok && err.contains("cannot read"), "{err}");
    let (ok, _, err) = dynvote(&["chaos", "--algo", "quorumtron"]);
    assert!(!ok && err.contains("unknown algorithm"), "{err}");
}
