//! One run of one workload: several independent segments, each of which
//! boots a fresh cluster, warms it, measures a window, drains, quiesces
//! and checks that what the clients were told is what the cluster
//! holds. Only then are the raw op records turned into metrics, and the
//! run reports the median across its segments. A failed check returns
//! `Err` and no number is printed.

use crate::check::{check_durable, check_rejoined, check_versions, stuck_objects};
use crate::loadgen::{drive, Conn, FailNames, Generated, OpRec, Outcome, Plan};
use crate::metrics::{combine, summarize};
use crate::scrape::{self, Counters};
use crate::sys;
use crate::workload::{Rng, Wire, Workload, DRAIN_S, FAULT_SCHEDULE, FAULT_SITE, SITES};
use dynvote_cluster::{Cluster, ClusterConfig, FrontDoorConfig, TransportKind};
use dynvote_core::{AlgorithmKind, SiteId};
use dynvote_protocol::ObjectId;
use dynvote_storage::FsyncPolicy;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One named number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// What the command line fixes for a run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Total length of the measured windows, split evenly over the
    /// run's segments.
    pub seconds: f64,
    /// Untimed load before each segment's window.
    pub warmup_s: f64,
    /// Scrape counters, sample the process and keep spans.
    pub trace: bool,
}

/// Everything a run produced, all of it from segments that passed their
/// correctness checks. Counts are summed over the segments; metrics are
/// the median across them.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub workload: &'static str,
    /// Ops due inside the measured windows.
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    /// Ops that failed for good inside the windows, by the name of their
    /// last reply (`fail.<name>`).
    pub fail_tally: BTreeMap<String, u64>,
    /// Every refusal reply of the load, retried or not, by name
    /// (`refused.<name>`).
    pub refusal_tally: BTreeMap<String, u64>,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// Sample counts behind the percentiles, and other whole numbers a
    /// reader needs to judge them.
    pub counts: BTreeMap<String, u64>,
    /// Reasons this run may be measuring the generator, not the system.
    pub flags: Vec<String>,
    /// Every op of a traced run's last segment, for the span file.
    pub spans: Vec<(usize, OpRec)>,
}

impl RunResult {
    pub fn end_to_end_value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Where runs keep their scratch files (data directories, span files):
/// inside the benchmark's own directory, ignored by git.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// The cluster every workload runs against: five hybrid sites, every
/// server setting at its `ClusterConfig::new` default. Only what
/// defines the workload is set.
pub fn cluster_config(w: &Workload, data_dir: &Path) -> ClusterConfig {
    let mut config = ClusterConfig::new(SITES, AlgorithmKind::Hybrid)
        .with_transport(TransportKind::Tcp)
        .with_objects(w.objects);
    if w.durable {
        config = config.with_data_dir(data_dir, FsyncPolicy::Always);
    }
    if w.wire == Wire::Http {
        config = config.with_http(FrontDoorConfig::default());
    }
    config
}

/// A booted cluster with its load connections (and, on the fault
/// workload, the probe connection to the site that will crash), each
/// of which has seen one committed reply.
struct Ready {
    cluster: Cluster,
    conns: Vec<Conn>,
    probe: Option<Conn>,
    /// Committed `(key, version)` pairs acknowledged during set-up.
    acked: Vec<(u32, u64)>,
}

fn connect(w: &Workload, cluster: &Cluster, site: u8, wire: Wire) -> Result<Conn, String> {
    let site_id = SiteId(site);
    let conn = match wire {
        Wire::Binary => Conn::binary(cluster.addr(site_id).expect("TCP cluster has addresses")),
        Wire::Http => Conn::http(cluster.http_addr(site_id).expect("HTTP was configured")),
    };
    conn.map_err(|e| format!("{}: connect to site {site}: {e}", w.name))
}

/// Retry one update until it commits: right after boot the peer mesh is
/// still dialing, so the first attempts may be refused or time out.
fn first_commit(conn: &mut Conn, key: u32) -> Result<(u32, u64), String> {
    let mut fails = FailNames::default();
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        match conn.request(key, false, &mut fails) {
            Ok(Outcome::Committed(version)) => return Ok((key, version)),
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(format!("first commit: {e}")),
        }
    }
    Err("no update committed within 10 s of boot".to_string())
}

fn set_up(w: &Workload, data_dir: &Path) -> Result<Ready, String> {
    let cluster = Cluster::boot(&cluster_config(w, data_dir))
        .map_err(|e| format!("{}: boot: {e}", w.name))?;
    let mut ready = Ready {
        cluster,
        conns: Vec::new(),
        probe: None,
        acked: Vec::new(),
    };
    for (i, spec) in w.conns.iter().enumerate() {
        let mut conn = connect(w, &ready.cluster, spec.site, w.wire)?;
        ready.acked.push(first_commit(&mut conn, w.keys_of(i)[0])?);
        ready.conns.push(conn);
    }
    if w.fault {
        let mut conn = connect(w, &ready.cluster, FAULT_SITE, Wire::Binary)?;
        ready.acked.push(first_commit(&mut conn, probe_key(w))?);
        ready.probe = Some(conn);
    }
    Ok(ready)
}

/// The key the rejoin probe updates through the recovered site.
fn probe_key(w: &Workload) -> u32 {
    w.objects as u32 - 1
}

/// Keeps every site's reactor turning over once a measured window has
/// closed, by opening and dropping a connection to each site every
/// 20 ms. The seed's reactor can lose a wake-up for good (see the
/// README); a reactor in that state moves staged replies and peer
/// messages only when some socket event happens to arrive, so without
/// this a drain, a quiescence wait or a counter scrape could hang on a
/// run whose numbers are already in. Never runs during a window.
struct Kicker {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Kicker {
    fn start(cluster: &Cluster) -> Kicker {
        let addrs: Vec<SocketAddr> = (0..cluster.n())
            .filter_map(|site| cluster.addr(SiteId(site as u8)))
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::SeqCst) {
                for addr in &addrs {
                    drop(TcpStream::connect_timeout(addr, Duration::from_millis(200)));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        Kicker {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Kicker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            // The thread only connects and sleeps; nothing to report.
            let _ = thread.join();
        }
    }
}

/// When the fault thread crashed and recovered the site, and what its
/// probe saw.
#[derive(Debug, Default)]
pub struct FaultLog {
    pub crashed_ns: u64,
    pub recovered_ns: u64,
    /// `recover` → first update the recovered site coordinated to a
    /// commit.
    pub rejoin_ns: Option<u64>,
    acked: Vec<(u32, u64)>,
    unanswered: u64,
}

/// Absolute instants of one segment, nanoseconds since its epoch.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    epoch: Instant,
    start: u64,
    /// The measured window is `t0..t1`.
    pub t0: u64,
    pub t1: u64,
    drain: u64,
    crash: u64,
    recover: u64,
}

impl Schedule {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, t: u64) {
        std::thread::sleep(Duration::from_nanos(t.saturating_sub(self.now())));
    }
}

fn run_fault(
    cluster: &Cluster,
    probe: &mut Conn,
    key: u32,
    at: &Schedule,
) -> Result<FaultLog, String> {
    let site = SiteId(FAULT_SITE);
    let mut log = FaultLog::default();
    at.sleep_until(at.crash);
    cluster.crash(site).map_err(|e| format!("crash: {e}"))?;
    log.crashed_ns = at.now();
    at.sleep_until(at.recover);
    cluster.recover(site).map_err(|e| format!("recover: {e}"))?;
    log.recovered_ns = at.now();
    let mut fails = FailNames::default();
    while at.now() < at.t1 {
        match probe.request(key, false, &mut fails) {
            Ok(Outcome::Committed(version)) => {
                log.rejoin_ns = Some(at.now() - log.recovered_ns);
                log.acked.push((key, version));
                break;
            }
            Ok(Outcome::Unanswered) => log.unanswered += 1,
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(format!("rejoin probe: {e}")),
        }
    }
    Ok(log)
}

/// Process-wide readings taken at the edges of a measured window.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    pub cpu_ns: u64,
    pub ctx_switches: u64,
    pub rss: u64,
}

impl ProcSample {
    fn take() -> ProcSample {
        ProcSample {
            cpu_ns: sys::process_cpu_ns(),
            ctx_switches: sys::context_switches(),
            rss: sys::rss_bytes().0,
        }
    }
}

/// What a traced segment observed besides its ops.
pub struct Traced {
    pub before: Counters,
    pub after: Counters,
    pub open: ProcSample,
    pub close: ProcSample,
    /// Bytes the data directory grew by during the window.
    pub wal_growth: u64,
    /// CPU the whole process used while the generators ran.
    pub load_cpu_ns: u64,
    /// Sites whose reactor no longer answers a wake-up.
    pub stalled_sites: usize,
}

/// One segment's raw outcome.
pub struct Segment {
    /// Cluster boot, client connect and the first committed reply on
    /// every connection.
    pub boot_s: f64,
    /// `boot_s` plus the warm-up: segment start to window open.
    pub setup_s: f64,
    pub schedule: Schedule,
    pub generated: Vec<Generated>,
    pub fault: Option<FaultLog>,
    pub traced: Option<Traced>,
}

/// Run `w` once: `w.segments` segments, combined.
pub fn run_workload(w: &'static Workload, cfg: &RunConfig) -> Result<RunResult, String> {
    let root = work_dir().join(format!("{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let result = (0..w.segments)
        .map(|i| {
            let segment = run_segment(w, cfg, i, &root.join(format!("segment-{i}")))?;
            summarize(w, &segment, cfg.seconds / w.segments as f64)
        })
        .collect::<Result<Vec<RunResult>, String>>()
        .map(|segments| combine(w, segments));
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_segment(
    w: &'static Workload,
    cfg: &RunConfig,
    index: usize,
    data_dir: &Path,
) -> Result<Segment, String> {
    let started = Instant::now();
    let Ready {
        cluster,
        mut conns,
        mut probe,
        acked: mut acked_versions,
    } = set_up(w, data_dir)?;
    let boot_s = started.elapsed().as_secs_f64();

    let scrape = || Counters::scrape(&cluster).map_err(|e| format!("scrape: {e}"));
    let before = cfg.trace.then(scrape).transpose()?;

    let secs = |s: f64| (s * 1e9) as u64;
    let window = cfg.seconds / w.segments as f64;
    let start = secs(0.002);
    let t0 = start + secs(cfg.warmup_s);
    let t1 = t0 + secs(window);
    let crash = t0 + secs(window * FAULT_SCHEDULE[0]);
    let at = Schedule {
        epoch: Instant::now(),
        start,
        t0,
        t1,
        drain: t1 + secs(DRAIN_S),
        crash,
        recover: crash + secs(window * FAULT_SCHEDULE[1]),
    };

    // ---- load: one thread per connection, plus the fault thread
    let mut window_proc = None;
    let mut wal_growth = 0u64;
    let load_cpu_start = sys::process_cpu_ns();
    let (generated, fault, kicker) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                // In lockstep every connection draws the same stream.
                let stream = if w.lockstep { 0 } else { i };
                let plan = Plan {
                    pace: w.pace,
                    read_share: w.read_share,
                    keys: w.keys_of(i),
                    rng: Rng::new(cfg.seed, (index * 16 + stream) as u64),
                    retry_rng: Rng::new(!cfg.seed, (index * 16 + i) as u64),
                    epoch: at.epoch,
                    start_ns: at.start,
                    end_ns: at.t1,
                    drain_ns: at.drain,
                };
                scope.spawn(move || drive(conn, plan))
            })
            .collect();
        let fault = probe.as_mut().map(|conn| {
            let cluster = &cluster;
            scope.spawn(move || run_fault(cluster, conn, probe_key(w), &at))
        });
        at.sleep_until(at.t0);
        if cfg.trace {
            // The main thread has nothing else to do: it reads the
            // process counters at the window's edges and watches the
            // data directory grow in between. Growth is summed from
            // positive steps only, so a WAL rotation (which shrinks the
            // directory) is not mistaken for negative bytes.
            let at_open = ProcSample::take();
            let mut last = sys::dir_bytes(data_dir);
            while at.now() < at.t1 {
                std::thread::sleep(Duration::from_millis(100));
                let size = sys::dir_bytes(data_dir);
                wal_growth += size.saturating_sub(last);
                last = size;
            }
            window_proc = Some((at_open, ProcSample::take()));
        }
        at.sleep_until(at.t1);
        let kicker = Kicker::start(&cluster);
        let generated: Vec<Generated> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        let fault = fault.map(|h| h.join().expect("fault thread panicked"));
        (generated, fault, kicker)
    });
    let load_cpu_ns = sys::process_cpu_ns() - load_cpu_start;
    let fault = fault.transpose()?;
    if let Some(e) = generated.iter().find_map(|g| g.error.as_ref()) {
        return Err(format!("{}: transport error: {e}", w.name));
    }

    // ---- quiesce and audit, with the reactors kept turning
    if !cluster.await_quiescence(Duration::from_secs(10)) {
        return Err(format!(
            "{}: cluster did not quiesce: {}",
            w.name,
            stuck_objects(w, &cluster)
        ));
    }
    let audit = cluster.audit().map_err(|e| format!("audit: {e}"))?;
    if !audit.consistent {
        return Err(format!(
            "{}: audit inconsistent: {:?}",
            w.name, audit.violations
        ));
    }
    drop(kicker);

    // With nothing kicking them, which reactors still answer a wake-up?
    let stalled_sites = if cfg.trace {
        std::thread::sleep(Duration::from_millis(30));
        scrape::stalled_sites(&cluster)
    } else {
        0
    };
    let kicker = Kicker::start(&cluster);
    let after = cfg.trace.then(scrape).transpose()?;

    // ---- what the clients were told vs. what the cluster holds
    let mut unanswered = fault.as_ref().map_or(0, |f| f.unanswered);
    for op in generated.iter().flat_map(|g| &g.ops) {
        match op.outcome {
            Outcome::Committed(version) => acked_versions.push((op.key, version)),
            Outcome::Unanswered => unanswered += 1,
            _ => {}
        }
    }
    if let Some(f) = &fault {
        acked_versions.extend(&f.acked);
    }
    check_versions(w, &cluster, &acked_versions, unanswered, &audit)?;
    if let Some(probe) = probe.as_mut() {
        check_rejoined(w, &cluster, probe)?;
    }
    drop(kicker);

    let chain_lens: Vec<u64> = (0..w.objects)
        .map(|o| cluster.ledger().chain_len_of(ObjectId(o as u32)))
        .collect();
    drop(conns);
    drop(probe);
    cluster.shutdown();
    if w.durable {
        check_durable(w, data_dir, &acked_versions, &chain_lens)?;
    }
    let _ = std::fs::remove_dir_all(data_dir);

    let traced = match (before, after, window_proc) {
        (Some(before), Some(after), Some((open, close))) => Some(Traced {
            before,
            after,
            open,
            close,
            wal_growth,
            load_cpu_ns,
            stalled_sites,
        }),
        _ => None,
    };
    Ok(Segment {
        boot_s,
        // Set-up ends where the measured window opens.
        setup_s: boot_s + at.t0 as f64 / 1e9,
        schedule: at,
        generated,
        fault,
        traced,
    })
}
