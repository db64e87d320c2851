//! `dynvote serve` / `dynvote loadgen` — the live-cluster commands.
//!
//! `serve` boots an n-node TCP loopback cluster at fixed ports and
//! keeps it running; `loadgen` connects from a separate process,
//! loads it over the binary wire or the HTTP front door, closed loop or
//! paced (optionally crashing and restarting one node mid-run), audits
//! every node, and emits a machine-readable JSON report. `loadgen` exits
//! non-zero on a consistency violation or a missed `--min-commits`
//! floor, so CI can gate on it directly.

use crate::opts::Opts;
use dynvote_cluster::wire::{ClientOp, ClientReply};
use dynvote_cluster::{
    check_concurrency, AuditOutcome, Cluster, ClusterConfig, EventCountEntry, FrontDoorConfig,
    HttpClient, LoadGen, LoadGenConfig, NetCounterEntry, NetStats, ShardCounterEntry, ShardStats,
    TcpClient, TransportKind, WorkloadTarget,
};
use dynvote_core::{AlgorithmKind, ConfigError, CopyMeta, SiteId};
use dynvote_protocol::{DurableState, EventKind, LogEntry};
use dynvote_storage::{FsyncPolicy, NodeStore};
use std::net::SocketAddr;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

fn parse_algo(name: &str) -> Result<AlgorithmKind, String> {
    name.parse()
        .map_err(|_| format!("unknown algorithm {name:?}; see `dynvote help`"))
}

fn secs(value: f64, flag: &str) -> Result<Duration, String> {
    if !value.is_finite() || value < 0.0 {
        return Err(format!("--{flag} must be a non-negative number of seconds"));
    }
    Ok(Duration::from_secs_f64(value))
}

/// `dynvote serve`.
pub fn serve_cmd(opts: &Opts) -> Result<(), String> {
    opts.reject_unknown(&[
        "algo",
        "n",
        "keys",
        "port-base",
        "duration",
        "trace",
        "data-dir",
        "fsync",
        "http-port",
        "max-inflight",
        "max-conns",
    ])
    .map_err(|e| format!("{e}; see `dynvote help`"))?;
    let algorithm = parse_algo(opts.get("algo").unwrap_or("hybrid"))?;
    let n: usize = opts.get_or("n", 5).map_err(|e| e.to_string())?;
    let keys: usize = opts.get_or("keys", 1).map_err(|e| e.to_string())?;
    let port_base: u16 = opts.get_or("port-base", 7700).map_err(|e| e.to_string())?;
    let duration = secs(
        opts.get_or("duration", 0.0).map_err(|e| e.to_string())?,
        "duration",
    )?;
    let trace: bool = opts.get_or("trace", false).map_err(|e| e.to_string())?;

    let mut config = ClusterConfig::new(n, algorithm)
        .with_transport(TransportKind::Tcp)
        .with_objects(keys)
        .with_port_base(port_base)
        .with_trace(trace);
    // The HTTP front door is opt-in; its tuning knobs without
    // --http-port are a typed configuration error, not a silent ignore.
    let http_port: Option<u16> = optional(opts, "http-port")?;
    if http_port.is_none()
        && (opts.get("max-inflight").is_some() || opts.get("max-conns").is_some())
    {
        return Err(ConfigError::Requires {
            field: "--max-inflight / --max-conns",
            requires: "--http-port",
        }
        .to_string());
    }
    if let Some(port) = http_port {
        config = config.with_http(FrontDoorConfig {
            http_port_base: Some(port),
            max_inflight: opts
                .get_or("max-inflight", 512)
                .map_err(|e| e.to_string())?,
            max_conns: opts.get_or("max-conns", 8192).map_err(|e| e.to_string())?,
        });
    }
    // Durability is opt-in; without --data-dir the cluster runs in
    // explicit amnesia mode, and asking for an fsync discipline there
    // is a typed configuration error, not a silent ignore.
    let durable = match (opts.get("data-dir"), opts.get("fsync")) {
        (None, Some(_)) => {
            return Err(ConfigError::Requires {
                field: "--fsync",
                requires: "--data-dir",
            }
            .to_string())
        }
        (None, None) => false,
        (Some(dir), spec) => {
            let fsync = FsyncPolicy::parse(spec.unwrap_or("always"))?;
            config = config.with_data_dir(dir, fsync);
            true
        }
    };
    // Typed validation up front (satellite: no panics on absurd input).
    config.validate().map_err(|e| e.to_string())?;
    let cluster = Cluster::boot(&config).map_err(|e| e.to_string())?;
    for i in 0..n {
        let site = SiteId(i as u8);
        let addr = cluster.addr(site).expect("tcp cluster has addresses");
        match cluster.http_addr(site) {
            Some(http) => println!("site {site} listening on {addr} (http {http})"),
            None => println!("site {site} listening on {addr}"),
        }
    }
    let mode = if durable { "durable" } else { "amnesia" };
    println!(
        "cluster ready: n={n} algo={algorithm} objects={keys} transport=tcp durability={mode}"
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    if duration.is_zero() {
        loop {
            thread::sleep(Duration::from_secs(3600));
        }
    }
    thread::sleep(duration);

    let quiesced = cluster.await_quiescence(Duration::from_secs(10));
    let audit = cluster.audit().map_err(|e| e.to_string())?;
    println!(
        "final audit: commits={} chain_len={} consistent={}",
        audit.commits, audit.chain_len, audit.consistent
    );
    for violation in &audit.violations {
        eprintln!("violation: {violation}");
    }
    cluster.shutdown();
    if !quiesced {
        return Err("cluster failed to quiesce before shutdown".into());
    }
    if !audit.consistent {
        return Err("consistency violation detected by the final audit".into());
    }
    Ok(())
}

/// `dynvote recover` — offline inspection of a serve data directory:
/// run the same recovery a booting site would (newest valid snapshot +
/// WAL tail replay, truncating at the first torn record) and print what
/// each site would come back with, without modifying anything.
pub fn recover_cmd(opts: &Opts) -> Result<(), String> {
    opts.reject_unknown(&["data-dir", "n"])
        .map_err(|e| format!("{e}; see `dynvote help`"))?;
    let data_dir = opts
        .get("data-dir")
        .ok_or("--data-dir is required; see `dynvote help`")?;
    let n: usize = opts.get_or("n", 5).map_err(|e| e.to_string())?;
    let root = Path::new(data_dir);
    let mut sites: Vec<(usize, std::path::PathBuf)> = std::fs::read_dir(root)
        .map_err(|e| format!("read {data_dir}: {e}"))?
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let name = entry.file_name().into_string().ok()?;
            let index = name.strip_prefix("site-")?.parse().ok()?;
            Some((index, entry.path()))
        })
        .collect();
    if sites.is_empty() {
        return Err(format!(
            "{data_dir} holds no site-<i> directories (is it a `dynvote serve --data-dir` root?)"
        ));
    }
    sites.sort();
    let mut truncated_sites = 0u32;
    for (index, dir) in &sites {
        let (states, report) = NodeStore::inspect(dir, DurableState::initial(n))
            .map_err(|e| format!("site-{index}: {e}"))?;
        let snapshot = report
            .snapshot_epoch
            .map_or_else(|| "none".to_owned(), |e| e.to_string());
        println!(
            "site-{index}: snapshot={snapshot} objects={} segments={} records={} corrupt_snapshots={}",
            states.len(),
            report.segments_replayed,
            report.records_replayed,
            report.corrupt_snapshots,
        );
        for (object, state) in states.iter().enumerate() {
            let prepared = state.prepared.map_or_else(
                || "none".to_owned(),
                |(txn, coordinator)| format!("{txn:?} via {coordinator}"),
            );
            println!(
                "site-{index}/object-{object}: VN={} SC={} DS={:?} log={} commits={} \
                 prepared={prepared} next_seq={}",
                state.meta.version,
                state.meta.cardinality,
                state.meta.distinguished,
                state.log.len(),
                state.commits.len(),
                state.next_seq,
            );
        }
        if let Some(torn) = &report.truncated {
            truncated_sites += 1;
            println!(
                "site-{index}: torn tail at epoch {} offset {}: {} (recovery stops there)",
                torn.epoch, torn.offset, torn.reason
            );
        }
    }
    if truncated_sites > 0 {
        eprintln!("{truncated_sites} site(s) had torn WAL tails; the prefixes above are what a reboot recovers");
    }
    Ok(())
}

/// `dynvote loadgen`.
pub fn loadgen_cmd(opts: &Opts) -> Result<(), String> {
    opts.reject_unknown(&[
        "algo",
        "n",
        "host",
        "port-base",
        "concurrency",
        "duration",
        "read-fraction",
        "keys",
        "key-dist",
        "seed",
        "min-commits",
        "crash",
        "crash-after",
        "restart-after",
        "rate",
        "http-port",
    ])
    .map_err(|e| format!("{e}; see `dynvote help`"))?;
    let n: usize = opts.get_or("n", 5).map_err(|e| e.to_string())?;
    let host = opts.get("host").unwrap_or("127.0.0.1");
    let port_base: u16 = opts.get_or("port-base", 7700).map_err(|e| e.to_string())?;
    let concurrency: usize = opts.get_or("concurrency", 4).map_err(|e| e.to_string())?;
    let config = LoadGenConfig {
        duration: secs(
            opts.get_or("duration", 5.0).map_err(|e| e.to_string())?,
            "duration",
        )?,
        rate: optional(opts, "rate")?,
        read_fraction: opts
            .get_or("read-fraction", 0.1)
            .map_err(|e| e.to_string())?,
        keys: opts.get_or("keys", 1).map_err(|e| e.to_string())?,
        key_dist: opts
            .get("key-dist")
            .unwrap_or("uniform")
            .parse()
            .map_err(|e: ConfigError| e.to_string())?,
        seed: opts.get_or("seed", 7).map_err(|e| e.to_string())?,
    };
    // Typed validation before any socket is touched: absurd rates,
    // read mixes or worker counts are rejected, never panicked on.
    config.validate().map_err(|e| e.to_string())?;
    check_concurrency(concurrency).map_err(|e| e.to_string())?;
    let http_port: Option<u16> = optional(opts, "http-port")?;
    let min_commits: u64 = opts.get_or("min-commits", 0).map_err(|e| e.to_string())?;
    let crash_site: Option<usize> = optional(opts, "crash")?;
    if let Some(site) = crash_site {
        if site >= n {
            return Err(format!("--crash {site} out of range for n={n}"));
        }
    }
    let crash_after = secs(
        opts.get_or("crash-after", 1.5).map_err(|e| e.to_string())?,
        "crash-after",
    )?;
    let restart_after = secs(
        opts.get_or("restart-after", 1.5)
            .map_err(|e| e.to_string())?,
        "restart-after",
    )?;

    let addrs = site_addrs(host, port_base, n)?;
    // Wait for the cluster to come up (serve may still be booting).
    let deadline = Instant::now() + Duration::from_secs(10);
    for addr in &addrs {
        loop {
            match TcpClient::connect(*addr) {
                Ok(_) => break,
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("cluster not reachable at {addr}: {e}"));
                }
                Err(_) => thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    // Workers go round-robin over the nodes: through the HTTP front
    // door with --http-port, else over the binary wire.
    let http_addrs = http_port
        .map(|base| site_addrs(host, base, n))
        .transpose()?;
    let targets = (0..concurrency)
        .map(|w| -> Result<Box<dyn WorkloadTarget>, String> {
            let site = w % n;
            if let Some(http) = &http_addrs {
                return Ok(Box::new(HttpClient::new(http[site])));
            }
            let addr = addrs[site];
            let client = TcpClient::connect(addr)
                .map_err(|e| format!("loadgen worker connect {addr}: {e}"))?;
            Ok(Box::new(client))
        })
        .collect::<Result<Vec<_>, String>>()?;

    // One induced crash/restart mid-run, driven over the same wire.
    let chaos = crash_site.map(|site| {
        let addr = addrs[site];
        thread::spawn(move || -> Result<(), String> {
            let mut client =
                TcpClient::connect(addr).map_err(|e| format!("chaos connect {addr}: {e}"))?;
            thread::sleep(crash_after);
            client
                .request(&ClientOp::Crash)
                .map_err(|e| format!("crash request: {e}"))?;
            thread::sleep(restart_after);
            client
                .request(&ClientOp::Recover)
                .map_err(|e| format!("recover request: {e}"))?;
            Ok(())
        })
    });

    let mut report = LoadGen::run(&config, targets).map_err(|e| e.to_string())?;
    if let Some(handle) = chaos {
        handle
            .join()
            .map_err(|_| "chaos thread panicked".to_string())??;
    }

    // Give in-flight commit fan-out a moment to drain, then pull every
    // node's commit count, its copy of every object, and its counters
    // over the wire: protocol event tallies, the reactor's transport and
    // front-door counters (dial failures, backpressure drops, decode
    // errors) and the node's kernel-step counters (steps run, merge
    // barriers, the pipelining queue peak and batch sizes). Zero counts
    // are omitted. The copies are audited as `Cluster::audit` audits
    // them in-process.
    thread::sleep(Duration::from_millis(200));
    let mut audited_commits = 0u64;
    let mut copies: Vec<Vec<(CopyMeta, Vec<LogEntry>)>> = Vec::new();
    for (site, addr) in addrs.iter().enumerate() {
        let mut client =
            TcpClient::connect(*addr).map_err(|e| format!("audit connect {addr}: {e}"))?;
        let mut ask = |op: ClientOp| {
            client
                .request(&op)
                .map_err(|e| format!("{op:?} request {addr}: {e}"))
        };
        let replies = (
            ask(ClientOp::Status)?,
            ask(ClientOp::Events)?,
            ask(ClientOp::NetStats)?,
            ask(ClientOp::ShardStats)?,
        );
        let (
            ClientReply::Status {
                commits, objects, ..
            },
            ClientReply::Events { counts: events },
            ClientReply::NetStats { counts: net },
            ClientReply::ShardStats {
                workers,
                counts: shard,
            },
        ) = replies
        else {
            return Err(format!("unexpected audit replies from {addr}: {replies:?}"));
        };
        audited_commits += commits;
        copies.resize_with(objects as usize, Vec::new);
        for (key, object) in (0..).zip(&mut copies) {
            let ClientReply::Log { meta, entries } = ask(ClientOp::DumpLog { key })? else {
                return Err(format!("unexpected DumpLog reply from {addr}"));
            };
            object.push((meta, entries));
        }
        let nonzero = |names: Vec<String>, counts: Vec<u64>| {
            names
                .into_iter()
                .zip(counts)
                .filter(|&(_, count)| count > 0)
        };
        let names = EventKind::ALL.iter().map(|k| k.name().to_owned()).collect();
        report.events.extend(
            nonzero(names, events).map(|(event, count)| EventCountEntry { site, event, count }),
        );
        let names = NetStats::NAMES.iter().map(|&n| n.to_owned()).collect();
        report
            .net
            .extend(nonzero(names, net).map(|(counter, count)| NetCounterEntry {
                site,
                counter,
                count,
            }));
        let names = ShardStats::names_for(workers as usize);
        report.shard.extend(
            nonzero(names, shard).map(|(counter, count)| ShardCounterEntry {
                site,
                counter,
                count,
            }),
        );
    }

    // The protocol is opaque to a wire client, so the report's algorithm
    // field is a caller-supplied label (matching serve's --algo).
    report.algorithm = opts.get("algo").unwrap_or("unlabeled").into();
    report.transport = if http_addrs.is_some() { "http" } else { "tcp" }.into();
    report.sites = n;
    println!("{}", report.to_json());
    let audit = AuditOutcome::of_logs(audited_commits, &copies);
    eprintln!(
        "audited: coordinator commits = {}, chain_len = {}, consistent = {} \
         (client observed {} commits)",
        audit.commits, audit.chain_len, audit.consistent, report.committed
    );
    for violation in &audit.violations {
        eprintln!("violation: {violation}");
    }

    if !audit.consistent {
        return Err("serializability violation: a node's log diverged from the chain".into());
    }
    if report.committed < min_commits {
        return Err(format!(
            "only {} updates committed; --min-commits {min_commits} not met",
            report.committed
        ));
    }
    Ok(())
}

/// Node `i`'s address: `host:(base + i)`, for `i` in `0..n`.
fn site_addrs(host: &str, base: u16, n: usize) -> Result<Vec<SocketAddr>, String> {
    (0..n)
        .map(|i| {
            let addr = format!("{host}:{}", base + i as u16);
            addr.parse().map_err(|_| format!("invalid address {addr}"))
        })
        .collect()
}

/// An optional flag's value: `None` when absent, an error when it does
/// not parse.
fn optional<T: std::str::FromStr>(opts: &Opts, flag: &str) -> Result<Option<T>, String> {
    opts.get(flag)
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("invalid value {raw:?} for --{flag}"))
        })
        .transpose()
}
