//! The layer ladder: the same stream of single updates on object 0 at
//! site 0, one op in flight, through eight successively taller stacks.
//! Each rung is timed only from the benchmark's side of a public call,
//! so a layer's `self_us` is a difference of two rung medians and the
//! rungs telescope to the single-op HTTP latency by construction.
//!
//! 1. `kernel`          five `SiteActor`s under a zero-latency router
//! 2. `kernel-wire`     every routed message encoded and decoded
//! 3. `kernel-storage`  rung 1 with a WAL-backed `Persistence` per site
//! 4. `node`            channel-transport `Cluster`, in-process client
//! 5. `node-storage`    rung 4 with a data directory
//! 6. `peer-tcp`        TCP-transport `Cluster`, in-process client
//! 7. `client-tcp`      rung 6 through the binary wire on a socket
//! 8. `http`            rung 6 through `POST /v1/op`, keep-alive

use crate::alloc_count::allocs_on_this_thread;
use crate::loadgen::{write_http_op, Conn, FailNames, Outcome};
use crate::run::{metric, Metric};
use crate::stats::percentile;
use crate::workload::SITES;
use dynvote_cluster::wire::{self, ClientOp};
use dynvote_cluster::{ClientReply, Cluster, ClusterConfig, FrontDoorConfig, TransportKind};
use dynvote_core::{AlgorithmKind, CopyMeta, LinearOrder, PartitionView, SiteId, SiteSet};
use dynvote_net::{FrameDecoder, RequestParser};
use dynvote_protocol::persist::PersistOp;
use dynvote_protocol::{
    Action, DurableState, LogEntry, Message, ObjectId, Persistence, SiteActor, TimerKind, TxnId,
};
use dynvote_storage::{FsyncPolicy, NodeStore, StoreConfig};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Untimed ops before each rung is measured.
const WARMUP_OPS: usize = 200;
/// A rung stops at whichever comes first.
const MAX_OPS: usize = 5_000;
const MAX_TIME: Duration = Duration::from_millis(400);
/// The three TCP rungs are kept this short (after 50 untimed ops each):
/// the longer one op at a time runs over a socket, the likelier the
/// seed's reactor is to lose a wake-up under it.
const TCP_RUNG_OPS: usize = 300;
const TCP_WARMUP_OPS: usize = 50;
/// A rung with fewer samples than this has no median worth reporting.
const MIN_SAMPLES: usize = 20;

/// One rung's per-op latencies.
pub struct Rung {
    pub name: &'static str,
    sorted_ns: Vec<u64>,
}

impl Rung {
    fn new(name: &'static str, mut samples_ns: Vec<u64>) -> Rung {
        samples_ns.sort_unstable();
        Rung {
            name,
            sorted_ns: samples_ns,
        }
    }

    pub fn samples(&self) -> usize {
        self.sorted_ns.len()
    }

    fn quantile_us(&self, q: f64) -> f64 {
        let rank = ((q * self.sorted_ns.len() as f64).ceil() as usize).max(1);
        self.sorted_ns[rank - 1] as f64 / 1e3
    }

    pub fn median_us(&self) -> f64 {
        self.quantile_us(0.5)
    }

    pub fn quartiles_us(&self) -> (f64, f64) {
        (self.quantile_us(0.25), self.quantile_us(0.75))
    }
}

/// Time `op` once per iteration, after `warmup` untimed ones, until
/// `max_ops` samples are in or the rung's time budget is spent. An op
/// that ends in `Err` — an update the cluster refused, say because an
/// fsync outlasted the vote deadline — is not a sample; a rung where
/// such ops outnumber the samples has failed.
fn measure(
    name: &'static str,
    warmup: usize,
    max_ops: usize,
    mut op: impl FnMut() -> Result<(), String>,
) -> Result<Rung, String> {
    let mut samples = Vec::with_capacity(max_ops);
    let mut refused = 0usize;
    let mut done = 0usize;
    let mut started = Instant::now();
    while samples.len() < max_ops && (done < warmup || started.elapsed() < MAX_TIME) {
        if done == warmup {
            started = Instant::now();
        }
        let t = Instant::now();
        match op() {
            Ok(()) if done >= warmup => samples.push(t.elapsed().as_nanos() as u64),
            Ok(()) => {}
            Err(e) => {
                refused += 1;
                if refused > samples.len() + warmup {
                    return Err(format!("{name}: {refused} ops failed, last: {e}"));
                }
            }
        }
        done += 1;
    }
    if samples.len() < MIN_SAMPLES {
        return Err(format!(
            "{name}: only {} samples ({refused} ops failed)",
            samples.len()
        ));
    }
    Ok(Rung::new(name, samples))
}

// ----- rungs 1-3: the kernel under a router -------------------------------

/// What one site's `Persistence` hooks did to its `NodeStore`, timed
/// from outside the store.
struct StoreProbe {
    store: NodeStore,
    dirty: bool,
    append_ns: Vec<u64>,
    barrier_ns: Vec<u64>,
}

/// The benchmark's own `Persistence`: every hook is one
/// `NodeStore::append`, `sync` is one `NodeStore::barrier`.
struct TimedStore(Arc<Mutex<StoreProbe>>);

impl TimedStore {
    fn append(&self, op: PersistOp) {
        let mut probe = self.0.lock().expect("store probe poisoned");
        let t = Instant::now();
        probe.store.append(ObjectId::ZERO, &op).expect("WAL append");
        let ns = t.elapsed().as_nanos() as u64;
        probe.append_ns.push(ns);
        probe.dirty = true;
    }
}

impl Persistence for TimedStore {
    fn seq_advanced(&mut self, next_seq: u64) {
        self.append(PersistOp::Seq(next_seq));
    }
    fn prepared(&mut self, txn: TxnId, coordinator: SiteId) {
        self.append(PersistOp::Prepared(txn, coordinator));
    }
    fn prepare_cleared(&mut self, txn: TxnId) {
        self.append(PersistOp::PrepareCleared(txn));
    }
    fn entries_appended(&mut self, entries: &[LogEntry]) {
        self.append(PersistOp::Entries(entries.to_vec()));
    }
    fn meta_updated(&mut self, meta: CopyMeta) {
        self.append(PersistOp::Meta(meta));
    }
    fn committed(&mut self, txn: TxnId, meta: CopyMeta, participants: SiteSet) {
        self.append(PersistOp::Committed(txn, meta, participants));
    }
    fn sync(&mut self) {
        let mut probe = self.0.lock().expect("store probe poisoned");
        if !probe.dirty {
            return; // nothing appended since the last barrier
        }
        let t = Instant::now();
        probe.store.barrier().expect("WAL barrier");
        let ns = t.elapsed().as_nanos() as u64;
        probe.barrier_ns.push(ns);
        probe.dirty = false;
    }
}

/// A zero-latency single-threaded router over five kernels: every
/// `Send`/`Broadcast` is delivered at once, timers fire only when no
/// message is left.
struct Router {
    actors: Vec<SiteActor>,
    queue: VecDeque<(SiteId, SiteId, Message)>,
    timers: Vec<(SiteId, TxnId, TimerKind)>,
    sink: Vec<Action>,
    /// Rung 2: pass every message through the wire codec.
    codec: bool,
    codec_buf: Vec<u8>,
    /// Rung 3: one WAL-backed store per site.
    stores: Vec<Arc<Mutex<StoreProbe>>>,
    messages: u64,
    wire_bytes: u64,
    allocs: u64,
}

impl Router {
    fn new(codec: bool, store_dir: Option<&Path>) -> Result<Router, String> {
        let mut actors: Vec<SiteActor> = (0..SITES)
            .map(|i| {
                SiteActor::new(
                    SiteId(i as u8),
                    SITES,
                    AlgorithmKind::Hybrid.instantiate(SITES),
                )
            })
            .collect();
        let mut stores = Vec::new();
        if let Some(dir) = store_dir {
            for (i, actor) in actors.iter_mut().enumerate() {
                let store = open_store(&dir.join(format!("site-{i}")))?;
                let probe = Arc::new(Mutex::new(StoreProbe {
                    store,
                    dirty: false,
                    append_ns: Vec::new(),
                    barrier_ns: Vec::new(),
                }));
                actor.set_persistence(Box::new(TimedStore(Arc::clone(&probe))));
                stores.push(probe);
            }
        }
        Ok(Router {
            actors,
            queue: VecDeque::new(),
            timers: Vec::new(),
            sink: Vec::new(),
            codec,
            codec_buf: Vec::with_capacity(256),
            stores,
            messages: 0,
            wire_bytes: 0,
            allocs: 0,
        })
    }

    /// Interpret what the last kernel call on `site` staged: seal its
    /// durable ops first, as a harness must, then route.
    fn drain_sink(&mut self, site: SiteId) {
        self.actors[site.index()].sync_persistence();
        let mut actions = std::mem::take(&mut self.sink);
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => self.queue.push_back((site, to, msg)),
                Action::Broadcast { msg } => {
                    for i in 0..SITES {
                        let to = SiteId(i as u8);
                        if to != site {
                            self.queue.push_back((site, to, msg.clone()));
                        }
                    }
                }
                Action::SetTimer { txn, kind } => self.timers.push((site, txn, kind)),
                _ => {}
            }
        }
        self.sink = actions;
    }

    /// One update coordinated by site 0, run to quiescence.
    fn commit_one(&mut self, payload: u64) -> Result<(), String> {
        let before = self.actors[0].meta().version;
        self.actors[0].start_update(payload, &mut self.sink);
        self.drain_sink(SiteId(0));
        loop {
            while let Some((from, to, mut msg)) = self.queue.pop_front() {
                self.messages += 1;
                if self.codec {
                    self.codec_buf.clear();
                    wire::encode_message_into(&mut self.codec_buf, &msg);
                    self.wire_bytes += self.codec_buf.len() as u64;
                    msg = wire::decode_message(&self.codec_buf).map_err(|e| e.to_string())?;
                }
                self.actors[to.index()].handle_message(from, msg, &mut self.sink);
                self.drain_sink(to);
            }
            if self.timers.is_empty() {
                break;
            }
            for (site, txn, kind) in std::mem::take(&mut self.timers) {
                self.actors[site.index()].timer_fired(txn, kind, &mut self.sink);
                self.drain_sink(site);
            }
        }
        if self.actors[0].meta().version != before + 1 {
            return Err("kernel rung: an update did not commit".to_string());
        }
        Ok(())
    }
}

fn open_store(dir: &Path) -> Result<NodeStore, String> {
    let config = StoreConfig {
        fsync: FsyncPolicy::Always,
        ..StoreConfig::default()
    };
    NodeStore::open(dir, config, 1, DurableState::initial(SITES))
        .map(|(store, _states, _report)| store)
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

fn kernel_rung(name: &'static str, router: &mut Router) -> Result<(Rung, f64, f64), String> {
    let mut payload = 0u64;
    let mut op = |router: &mut Router| {
        payload += 1;
        // Counted around the kernel calls only, so the harness's own
        // allocations (the sample vector) stay out of the count.
        let before = allocs_on_this_thread();
        let result = router.commit_one(payload);
        router.allocs += allocs_on_this_thread() - before;
        result
    };
    for _ in 0..WARMUP_OPS {
        op(router)?;
    }
    router.messages = 0;
    router.wire_bytes = 0;
    router.allocs = 0;
    for store in &router.stores {
        let mut probe = store.lock().expect("store probe poisoned");
        probe.append_ns.clear();
        probe.barrier_ns.clear();
    }
    let rung = measure(name, 0, MAX_OPS, || op(router))?;
    let ops = rung.samples() as f64;
    Ok((
        rung,
        router.messages as f64 / ops,
        router.allocs as f64 / ops,
    ))
}

// ----- rungs 4-8: the cluster ----------------------------------------------

fn local_rung(
    name: &'static str,
    cluster: &Cluster,
    warmup: usize,
    max_ops: usize,
) -> Result<Rung, String> {
    let mut client = cluster.client(SiteId(0));
    let op = ClientOp::Update { key: 0 };
    measure(name, warmup, max_ops, || match client.request(op.clone()) {
        Ok(ClientReply::Committed { .. }) => Ok(()),
        other => Err(format!("{name}: update answered {other:?}")),
    })
}

/// A rung on a channel-transport cluster of its own. One hiccup of the
/// sandbox (a disk stall that outlasts a client timeout) can leave a
/// rung without samples, so it gets three tries, each on a fresh
/// cluster (and data directory).
fn channel_rung(
    name: &'static str,
    config: impl Fn(usize) -> ClusterConfig,
) -> Result<Rung, String> {
    let mut last = String::new();
    for attempt in 0..3 {
        let cluster = boot(&config(attempt))?;
        match local_rung(name, &cluster, WARMUP_OPS, MAX_OPS) {
            Ok(rung) => {
                checked_shutdown(name, cluster)?;
                return Ok(rung);
            }
            Err(e) => last = e,
        }
        cluster.shutdown();
    }
    Err(last)
}

fn socket_rung(name: &'static str, conn: &mut Conn) -> Result<Rung, String> {
    let mut fails = FailNames::default();
    let mut request = |conn: &mut Conn| conn.request(0, false, &mut fails);
    measure(name, TCP_WARMUP_OPS, TCP_RUNG_OPS, || match request(conn) {
        Ok(Outcome::Committed(_)) => Ok(()),
        other => Err(format!("{name}: update answered {other:?}")),
    })
}

/// Boot a ladder cluster and wait until site 0 commits (the TCP mesh
/// dials lazily).
fn boot(config: &ClusterConfig) -> Result<Cluster, String> {
    let cluster = Cluster::boot(config).map_err(|e| format!("ladder boot: {e}"))?;
    let mut client = cluster.client(SiteId(0));
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(ClientReply::Committed { .. }) = client.request(ClientOp::Update { key: 0 }) {
            return Ok(cluster);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err("ladder: no update committed within 10 s of boot".to_string())
}

/// Rungs 6 to 8 on one TCP cluster with the HTTP front door (the
/// listeners are idle until a rung connects to them). One op in flight
/// on a socket is exactly the traffic under which the seed's reactor
/// loses a wake-up for good (see the README); a rung that ran into that
/// measured the retry timers, not the stack. So the three rungs are kept
/// short, an attempt counts only if it ends with every reactor still
/// awake, and the samples of three clean attempts — three cluster
/// lifetimes — are pooled. Returns the rungs and the attempts it took.
fn tcp_rungs(config: &ClusterConfig) -> Result<([Rung; 3], usize), String> {
    const CLEAN: usize = 3;
    const ATTEMPTS: usize = 8;
    let names = ["peer-tcp", "client-tcp", "http"];
    let mut pooled: [Vec<u64>; 3] = Default::default();
    let mut clean = 0;
    let mut attempts = 0;
    let mut last = String::new();
    while clean < CLEAN && attempts < ATTEMPTS {
        attempts += 1;
        let cluster = boot(config)?;
        let site0 = SiteId(0);
        let rungs = (|| {
            let peer_tcp = local_rung(names[0], &cluster, TCP_WARMUP_OPS, TCP_RUNG_OPS)?;
            let mut binary = Conn::binary(cluster.addr(site0).expect("TCP cluster"))
                .map_err(|e| format!("client-tcp: connect: {e}"))?;
            let client_tcp = socket_rung(names[1], &mut binary)?;
            let mut http = Conn::http(cluster.http_addr(site0).expect("HTTP configured"))
                .map_err(|e| format!("http: connect: {e}"))?;
            let http = socket_rung(names[2], &mut http)?;
            Ok::<_, String>([peer_tcp, client_tcp, http])
        })();
        let stalled = crate::scrape::stalled_sites(&cluster);
        match rungs {
            Ok(rungs) if stalled == 0 => {
                checked_shutdown(names[0], cluster)?;
                for (pool, rung) in pooled.iter_mut().zip(rungs) {
                    pool.extend(rung.sorted_ns);
                }
                clean += 1;
                continue;
            }
            Ok(_) => last = format!("{stalled} reactor(s) lost a wake-up"),
            Err(e) => last = e,
        }
        // A stalled cluster may never quiesce; leave its threads to the
        // shutdown flag rather than wait on it.
        cluster.shutdown();
    }
    if clean == 0 {
        return Err(format!(
            "ladder: no clean TCP attempt in {ATTEMPTS}: {last}"
        ));
    }
    let [a, b, c] = pooled;
    Ok((
        [
            Rung::new(names[0], a),
            Rung::new(names[1], b),
            Rung::new(names[2], c),
        ],
        attempts,
    ))
}

fn checked_shutdown(name: &str, cluster: Cluster) -> Result<(), String> {
    if !cluster.await_quiescence(Duration::from_secs(5)) {
        return Err(format!("{name}: cluster did not quiesce"));
    }
    let audit = cluster.audit().map_err(|e| format!("{name}: audit: {e}"))?;
    cluster.shutdown();
    if audit.consistent {
        Ok(())
    } else {
        Err(format!(
            "{name}: audit inconsistent: {:?}",
            audit.violations
        ))
    }
}

// ----- microbenchmarks of single calls --------------------------------------

fn ns_per_call(iterations: u32, mut call: impl FnMut()) -> f64 {
    for _ in 0..iterations / 10 {
        call();
    }
    let t = Instant::now();
    for _ in 0..iterations {
        call();
    }
    t.elapsed().as_nanos() as f64 / f64::from(iterations)
}

fn decide_ns() -> f64 {
    let order = LinearOrder::lexicographic(SITES);
    let algo = AlgorithmKind::Hybrid.instantiate(SITES);
    let replies: Vec<(SiteId, CopyMeta)> = (0..SITES)
        .map(|i| (SiteId(i as u8), CopyMeta::initial(SITES, &order)))
        .collect();
    let view = PartitionView::new(SITES, &order, &replies).expect("a full view is valid");
    ns_per_call(1_000_000, || {
        black_box(algo.is_distinguished(black_box(&view)));
    })
}

/// The server's HTTP parser fed the exact bytes the generator sends.
fn http_parse_ns() -> f64 {
    let mut request = Vec::new();
    write_http_op(&mut request, 17, false);
    let mut parser = RequestParser::new();
    ns_per_call(200_000, || {
        parser.extend(&request);
        black_box(parser.next_request().expect("valid request"));
    })
}

/// The server's frame decoder fed the exact bytes the generator sends.
fn frame_decode_ns() -> f64 {
    let mut frame = Vec::new();
    wire::encode_frame_into(&mut frame, |body| {
        wire::encode_request_into(body, 7, &ClientOp::Update { key: 17 });
    });
    let mut decoder = FrameDecoder::new(wire::MAX_FRAME);
    ns_per_call(1_000_000, || {
        decoder.extend(&frame);
        black_box(decoder.next_frame().expect("valid frame"));
    })
}

// ----- the whole ladder -----------------------------------------------------

/// The ladder's rungs (for the report) and the per-layer metrics
/// derived from them.
pub struct Ladder {
    pub rungs: Vec<Rung>,
    pub metrics: Vec<Metric>,
}

/// Run all eight rungs and the single-call microbenchmarks.
pub fn run_ladder() -> Result<Ladder, String> {
    // Scratch for the rungs that write a WAL.
    let dir = crate::run::work_dir().join(format!("ladder-{}", std::process::id()));
    let ladder = run_ladder_in(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    ladder
}

fn run_ladder_in(dir: &Path) -> Result<Ladder, String> {
    let mut metrics = Vec::new();
    let mut rungs = Vec::new();

    let (kernel, msgs, allocs) = kernel_rung("kernel", &mut Router::new(false, None)?)?;
    metrics.push(metric("protocol.commit_us", "us", kernel.median_us()));
    metrics.push(metric("protocol.msgs_per_commit", "count", msgs));
    metrics.push(metric("protocol.allocs_per_commit", "count", allocs));

    let mut wired = Router::new(true, None)?;
    let (kernel_wire, _, _) = kernel_rung("kernel-wire", &mut wired)?;
    metrics.push(metric(
        "wire.codec_us",
        "us",
        kernel_wire.median_us() - kernel.median_us(),
    ));
    metrics.push(metric(
        "wire.bytes_per_commit",
        "bytes",
        wired.wire_bytes as f64 / kernel_wire.samples() as f64,
    ));

    let store_dir = dir.join("ladder-kernel-storage");
    let mut stored = Router::new(false, Some(&store_dir))?;
    let bytes_before = crate::sys::dir_bytes(&store_dir);
    let (kernel_storage, _, _) = kernel_rung("kernel-storage", &mut stored)?;
    let ops = kernel_storage.samples() as f64;
    let (mut appends, mut barriers) = (Vec::new(), Vec::new());
    for store in &stored.stores {
        let probe = store.lock().expect("store probe poisoned");
        appends.extend(&probe.append_ns);
        barriers.extend(&probe.barrier_ns);
    }
    appends.sort_unstable();
    barriers.sort_unstable();
    let us = |sorted: &[u64]| percentile(sorted, 0.5).map_or(0.0, |ns| ns as f64 / 1e3);
    metrics.push(metric("storage.append_us", "us", us(&appends)));
    metrics.push(metric("storage.barrier_us", "us", us(&barriers)));
    metrics.push(metric(
        "storage.barriers_per_commit",
        "count",
        barriers.len() as f64 / ops,
    ));
    // Over warm-up and measured ops alike: both wrote the same records.
    metrics.push(metric(
        "storage.rung_wal_bytes_per_commit",
        "bytes",
        (crate::sys::dir_bytes(&store_dir) - bytes_before) as f64 / (ops + WARMUP_OPS as f64),
    ));
    drop(stored);
    let t = Instant::now();
    open_store(&store_dir.join("site-0"))?;
    metrics.push(metric(
        "storage.reopen_ms",
        "ms",
        t.elapsed().as_secs_f64() * 1e3,
    ));

    let channel = ClusterConfig::new(SITES, AlgorithmKind::Hybrid);
    let node = channel_rung("node", |_| channel.clone())?;
    let node_storage = channel_rung("node-storage", |attempt| {
        let data_dir = dir.join(format!("ladder-node-storage-{attempt}"));
        channel.clone().with_data_dir(data_dir, FsyncPolicy::Always)
    })?;

    let tcp = channel
        .with_transport(TransportKind::Tcp)
        .with_http(FrontDoorConfig::default());
    let ([peer_tcp, client_tcp, http], attempts) = tcp_rungs(&tcp)?;
    metrics.push(metric("ladder.tcp_attempts", "count", attempts as f64));

    metrics.push(metric(
        "node.self_us",
        "us",
        node.median_us() - kernel.median_us(),
    ));
    metrics.push(metric(
        "storage.self_us",
        "us",
        node_storage.median_us() - node.median_us(),
    ));
    metrics.push(metric(
        "transport.self_us",
        "us",
        peer_tcp.median_us() - node.median_us(),
    ));
    metrics.push(metric(
        "client_edge.self_us",
        "us",
        client_tcp.median_us() - peer_tcp.median_us(),
    ));
    metrics.push(metric(
        "http.self_us",
        "us",
        http.median_us() - peer_tcp.median_us(),
    ));
    metrics.push(metric("core.decide_ns", "ns", decide_ns()));
    metrics.push(metric("net.http_parse_ns", "ns", http_parse_ns()));
    metrics.push(metric("net.frame_decode_ns", "ns", frame_decode_ns()));

    rungs.extend([
        kernel,
        kernel_wire,
        kernel_storage,
        node,
        node_storage,
        peer_tcp,
        client_tcp,
        http,
    ]);
    for rung in &rungs {
        metrics.push(metric(
            &format!("ladder.{}_us", rung.name),
            "us",
            rung.median_us(),
        ));
    }
    Ok(Ladder { rungs, metrics })
}
