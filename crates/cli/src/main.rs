//! `dynvote` — the command-line harness.
//!
//! ```text
//! dynvote repro <target>      regenerate a paper table/figure
//! dynvote avail [...]         availability of one algorithm at (n, ratio)
//! dynvote sweep [...]         availability sweep as CSV or JSON
//! dynvote crossover [...]     crossover ratio between two algorithms
//! dynvote mc [...]            parallel Monte-Carlo replication batch
//! dynvote simulate [...]      message-level protocol simulation run
//! dynvote experiments [...]   algorithms × seeds protocol-sim grid
//! dynvote chaos [...]         nemesis schedules: run, replay, minimize
//! dynvote serve [...]         boot a live TCP loopback cluster
//! dynvote loadgen [...]       load a served cluster and audit it
//! dynvote recover [...]       inspect a serve data directory offline
//! dynvote help                this text
//! ```

/// `print!` for command output, in place of std's (so `println!` below
/// and every subcommand use it): once a reader closes the pipe early
/// (`dynvote repro fig3 | head -2`), the process ends quietly with
/// status 0 where std's `print!` panics.
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through the [`print!`] above.
macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        print!("{}\n", format_args!($($arg)*))
    };
}

mod live;
mod opts;
mod repro;
mod runs;

use opts::Opts;
use std::process::ExitCode;

const HELP: &str = "\
dynvote — dynamic voting replica control (Jajodia & Mutchler)

USAGE:
    dynvote repro <target>
        Regenerate a table/figure. Targets:
            fig1      the Fig. 1 partition graph scenario
            example4  the Section IV worked example
            fig2      the hybrid state diagram + machine cross-check
            theorem2  hybrid vs dynamic voting dominance
            table1    the Theorem 3 crossover table (n = 3..20)
            fig3      normalised availability, 5 sites, small ratios (CSV)
            fig4      normalised availability, 5 sites, big ratios (CSV)
            sigmod87  dynamic voting vs static voting (the 1987 claims)
            optimal   the Section VII conjectured-optimal variant
            mc        Markov vs Monte-Carlo cross-validation
            hetero / witnesses / joint / votes
                      the extension experiments (E11–E16), defaults
            extensions  all four extension experiments
            all       everything

    dynvote avail --algo <name> --n <sites> --ratio <mu/lambda> [--mc true]
        Site availability of one algorithm (analytic; --mc adds a
        Monte-Carlo estimate). Algorithms: voting, dynamic,
        dynamic-linear, hybrid, modified-hybrid, optimal-candidate.

    dynvote sweep --n <sites> --lo <r> --hi <r> --steps <k>
                  [--algos a,b,c] [--format csv|json] [--jobs j]
        Normalised-availability sweep over a ratio grid. Grid points
        run on --jobs worker threads (0 or absent = one per core);
        results are byte-identical for any job count. Progress lines
        go to stderr.

    dynvote crossover --first <algo> --second <algo> --n <sites>
        The ratio where `first` overtakes `second`.

    dynvote chain --algo <name> --n <sites> [--ratio r] [--format text|dot]
        The algorithm's availability Markov chain (machine-derived).
        DOT output draws the paper's Fig. 2: pipe into `dot -Tsvg`.

    dynvote hetero [--rates f:r,f:r,...]
        Heterogeneous per-site rates: availability of every algorithm
        with the distinguished site placed on the most vs. least
        reliable site (the Section VII challenge).

    dynvote transient --algo <name> --n <sites> [--ratio r]
                      [--until t] [--steps k]
        Availability trajectory from the all-up start (CSV), by
        uniformization of the derived chain.

    dynvote witnesses --n <sites> --ratio <r>
        Voting-with-witnesses availability as data copies are traded
        for witnesses (Paris's scheme).

    dynvote joint [--algos a,b] [--n k] [--ratio r]
        Joint availability of a transaction touching several files
        (footnote 2), vs the independence prediction.

    dynvote votes [--rates f:r,...] [--max-vote k]
        The availability-optimal static vote assignment (exhaustive,
        exact), compared against the dynamic algorithms.

    dynvote mc [--algo <name>] [--n k] [--ratio r] [--horizon t]
               [--burn-in t] [--batches b] [--replications R]
               [--seed s] [--jobs j]
        A batch of R independent Monte-Carlo replications; replication
        i is seeded by the counter-based splitter seed_for(seed, i), so
        the batch is byte-identical for any --jobs value. Prints one
        CSV row per replication plus the across-replication mean and
        95% interval.

    dynvote experiments [--algos a,b,c] [--replications R] [--n k]
                        [--duration t] [--update-rate r] [--fault-rate r]
                        [--link-fault-rate r] [--drop p] [--seed s]
                        [--jobs j]
        An algorithms × replications grid of message-level protocol
        simulations under fault injection, one CSV row per cell, run on
        --jobs worker threads. Exits non-zero if any cell violates
        one-copy serializability.

    dynvote simulate --n <sites> --algo <name> --duration <t>
                     [--update-rate r] [--fault-rate r] [--link-fault-rate r]
                     [--drop p] [--seed s] [--trace true]
        Run the message-level protocol under fault injection and report
        statistics, per-kind protocol event tallies, and invariant
        checks. --trace true prints every structured protocol event
        (votes, quorums, force-writes, termination rounds) to stderr.

    dynvote chaos [--algo <name|all>] [--n k] [--seed s] [--duration t]
                  [--update-rate r] [--drop p] [--schedule in.json]
                  [--out file.json] [--minimize true] [--min-out file.json]
        Generate (or replay, with --schedule) a serialized nemesis fault
        schedule — crashes, rolling and one-way partitions, lossy bursts,
        duplication, reordering — run it against one or all algorithms,
        and on a violation optionally delta-debug the schedule down to a
        minimal reproducer.

    dynvote serve [--n k] [--algo <name>] [--port-base p] [--duration secs]
                  [--keys k] [--trace true] [--data-dir path] [--fsync policy]
                  [--http-port p] [--max-inflight k] [--max-conns k]
        Boot a live n-node cluster on loopback TCP, node i listening on
        127.0.0.1:(port-base + i). With --duration 0 (default) it runs
        until killed; otherwise it audits consistency at the deadline
        and exits non-zero on a violation. --trace true renders every
        protocol event to stderr as it happens.

        --keys k hosts k independent replicated objects on the same
        sites (default 1). Each object runs its own voting state
        machine, all of them on the node's one thread; commit rounds
        from different objects share peer
        frames and, with --data-dir, one group-commit fsync barrier
        seals all objects' steps from a batch. Ops pick an object with
        a \"key\" field; an absent key means object 0, so single-object
        clients keep working unchanged.

        Ops against a locked object queue per object instead of being
        refused. When the lock frees, the run of same-kind ops at the
        head of the queue (at most 32) shares one quorum round: updates
        are sealed as consecutive log entries, reads are all served by
        one read round. An idle object still runs a lone op at once, so
        pipelining adds no idle latency. A full queue refuses with the
        typed Overloaded reply (HTTP 429).

        Each node runs on one thread: an epoll reactor that multiplexes
        its peer links and clients and runs the node's kernels and WAL.
        --http-port additionally opens an HTTP/1.1 front door on
        127.0.0.1:(http-port + i):
            POST /v1/op    submit {\"op\":\"update\"} or {\"op\":\"read\"}
            GET  /metrics  Prometheus-style text: protocol events, net
                           counters, op-latency histogram
            GET  /status   JSON: algorithm, VN/SC/DS, partition view,
                           log length, commits, WAL epoch
        --max-inflight caps ops admitted concurrently per node (excess
        is refused with 429 + Retry-After); --max-conns caps open
        connections per node (excess accepts are refused).

        Without --data-dir the cluster is explicitly amnesiac: durable
        state lives in process memory only. With --data-dir, site i
        keeps a checksummed write-ahead log plus snapshots under
        <path>/site-i; boot recovers from whatever is there, so killing
        the process (even SIGKILL) and re-running serve with the same
        --data-dir resumes from disk. --fsync always (default) forces
        each sealed record to disk before anything it guards leaves
        the site, so an acked commit survives a power loss; --fsync
        never leaves the flush to the OS, which survives a process
        kill but not a power loss. --fsync without --data-dir is a
        configuration error.

    dynvote recover --data-dir <path> [--n k]
        Offline inspection: run boot recovery (newest valid snapshot +
        WAL replay, truncating at the first torn record) for every
        site-<i> under the data directory and print the state each
        site would reboot with: a per-site summary (snapshot epoch,
        objects recovered, segments/records replayed) followed by one
        line per object (VN/SC/DS, log length, commits, orphaned
        prepare). Objects are discovered from disk, not configured.
        Read-only — repairs nothing, deletes nothing.

    dynvote loadgen [--n k] [--host h] [--port-base p] [--concurrency c]
                    [--duration secs] [--read-fraction f] [--seed s]
                    [--keys k] [--key-dist uniform|zipf] [--rate r]
                    [--http-port p]
                    [--crash <site>] [--crash-after secs] [--restart-after secs]
                    [--min-commits k] [--algo <label>]
        Workload against a served cluster: c workers issue updates/reads
        round-robin over the nodes, optionally crashing and restarting
        one site mid-run. Prints a JSON report with throughput,
        per-shard and aggregate commit counts, p50/p95/p99 commit
        latency, per-site protocol event tallies, net counters (dial
        failures, backpressure drops, decode errors) and node counters,
        audits every node, and exits non-zero on a serializability
        violation or if fewer than --min-commits updates committed.
        --algo only labels the report (the wire protocol is
        algorithm-agnostic).

        --keys k spreads ops over k objects (serve must host at least
        that many); --key-dist picks the sampling law: uniform
        (default) or zipf (exponent 1, key 0 hottest). The report's
        per_shard_commits array has one commit count per key.

        Without --rate each worker issues back to back (closed loop).
        --rate r schedules r arrivals per second on a fixed clock; a
        free worker takes the next due one, so at most c are in flight,
        latency counts from each arrival's intended instant, and
        arrivals no worker reached in time are reported as shed.
        --http-port p sends every op as POST /v1/op on its own
        connection to the front door at p + i (serve must be running
        with --http-port) instead of over the binary wire; front-door
        429s count as overloaded.
";

/// Write command output; a closed pipe ends the process with status 0,
/// any other write error panics as std's `print!` does.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::{ErrorKind, Write};
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let command = opts
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    let result = match command {
        "repro" => {
            let target = opts.positional.get(1).map(String::as_str).unwrap_or("all");
            let defaults = Opts::default();
            match target {
                // The extension experiments (E11–E16) run with their
                // default parameters under `repro`.
                "hetero" => runs::hetero_cmd(&defaults),
                "witnesses" => runs::witnesses_cmd(&defaults),
                "joint" => runs::joint_cmd(&defaults),
                "votes" => runs::votes_cmd(&defaults),
                "extensions" | "all" => (|| {
                    if target == "all" {
                        repro::run("all");
                    }
                    for (name, f) in [
                        (
                            "hetero (E11)",
                            runs::hetero_cmd as fn(&Opts) -> Result<(), String>,
                        ),
                        ("witnesses (E12)", runs::witnesses_cmd),
                        ("joint (E15)", runs::joint_cmd),
                        ("votes (E16)", runs::votes_cmd),
                    ] {
                        println!("================ repro {name} ================");
                        f(&defaults)?;
                        println!();
                    }
                    Ok(())
                })(),
                _ => {
                    if repro::run(target) {
                        Ok(())
                    } else {
                        Err(format!("unknown repro target {target:?}"))
                    }
                }
            }
        }
        "avail" => runs::avail(&opts),
        "sweep" => runs::sweep_cmd(&opts),
        "mc" => runs::mc_cmd(&opts),
        "experiments" => runs::experiments_cmd(&opts),
        "crossover" => runs::crossover_cmd(&opts),
        "chain" => runs::chain_cmd(&opts),
        "hetero" => runs::hetero_cmd(&opts),
        "transient" => runs::transient_cmd(&opts),
        "witnesses" => runs::witnesses_cmd(&opts),
        "joint" => runs::joint_cmd(&opts),
        "votes" => runs::votes_cmd(&opts),
        "simulate" => runs::simulate_cmd(&opts),
        "chaos" => runs::chaos_cmd(&opts),
        "serve" => live::serve_cmd(&opts),
        "loadgen" => live::loadgen_cmd(&opts),
        "recover" => live::recover_cmd(&opts),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `dynvote help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
