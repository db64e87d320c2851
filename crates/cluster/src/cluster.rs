//! Booting and steering a whole cluster: one thread per site, a
//! transport mesh, clients, and fault injection.
//!
//! Under [`TransportKind::Tcp`] a site's thread is its reactor, which
//! owns the site's sockets, kernels and WAL together and writes the
//! node's outbox to the sockets; under [`TransportKind::Channel`] it is
//! the channel host (`transport::run`), which hands the outbox to the
//! peers' inboxes. Either way the only way into a site from another
//! thread is its `Inbox`, which [`Cluster`]'s control ops,
//! [`LocalClient`] and shutdown share.

use crate::audit::AuditOutcome;
use crate::frontdoor::{self, FrontDoor, FrontDoorConfig};
use crate::reactor::{Reactor, ReactorConfig, TOKEN_WAKER};
use crate::transport;
use crate::wire::{self, ClientOp, ClientReply, HELLO_CLIENT};
use dynvote_core::{check_site_count, AlgorithmKind, ConfigError, CopyMeta, SiteId, SiteSet};
use dynvote_net::{Poller, ResponseParser, Waker};
use dynvote_node::{Node, NodeEvent, ShardStats};
use dynvote_protocol::{EventTallies, LogEntry, ObjectId};
use dynvote_storage::{FsyncPolicy, StorageError, StoreConfig};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Ceiling on objects per cluster — a sanity bound on configuration,
/// not a protocol limit (object ids are `u32` on the wire). Each object
/// costs a full per-site state machine, so a runaway `--keys` should
/// fail loudly instead of allocating forever.
pub const MAX_OBJECTS: usize = 65_536;

/// Which transport carries inter-site messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process `mpsc` channels (no serialization).
    Channel,
    /// Loopback TCP with the [`crate::wire`] framing.
    Tcp,
}

/// Whether nodes survive a process death.
///
/// The default is explicit **amnesia**: a "recovered" node restarts
/// from whatever durable state the process still held in memory, which
/// models the paper's crash/recover faults but not a machine reboot.
/// [`DurabilityMode::Durable`] gives every site a data directory with a
/// checksummed WAL + snapshots; boot and every recovery then reload
/// state from disk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// No disk: durable state lives in process memory only.
    #[default]
    Amnesia,
    /// Every site persists to `data_dir/site-<i>` with the given fsync
    /// discipline.
    Durable {
        /// Root data directory; per-site subdirectories are created
        /// under it.
        data_dir: PathBuf,
        /// WAL fsync discipline.
        fsync: FsyncPolicy,
    },
}

/// Booting failed before any site ran a protocol step; every site
/// thread it started has been joined.
#[derive(Debug)]
pub enum BootError {
    /// The configuration was rejected by [`ClusterConfig::validate`].
    Config(ConfigError),
    /// A site's data directory could not be opened or recovered.
    Storage {
        /// The site whose store failed.
        site: SiteId,
        /// The underlying storage error.
        error: StorageError,
    },
    /// A loopback listener could not be bound (a fixed port already in
    /// use, say); every listener bound before it has been dropped.
    Bind {
        /// The port asked for (0: an ephemeral one).
        port: u16,
        /// The underlying socket error.
        error: io::Error,
    },
}

impl std::fmt::Display for BootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootError::Config(e) => write!(f, "{e}"),
            BootError::Storage { site, error } => {
                write!(f, "site {site} data directory: {error}")
            }
            BootError::Bind { port, error } => write!(f, "bind 127.0.0.1:{port}: {error}"),
        }
    }
}

impl std::error::Error for BootError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BootError::Config(e) => Some(e),
            BootError::Storage { error, .. } => Some(error),
            BootError::Bind { error, .. } => Some(error),
        }
    }
}

impl From<ConfigError> for BootError {
    fn from(e: ConfigError) -> Self {
        BootError::Config(e)
    }
}

/// Everything needed to boot a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of sites (`2..=MAX_SITES`).
    pub n: usize,
    /// Number of independent replicated objects every site hosts
    /// (`1..=MAX_OBJECTS`). Each object is its own shard: its own
    /// `(VN, SC, DS)` triple, commit chain, and lock domain.
    pub objects: usize,
    /// The replica-control algorithm every site runs.
    pub algorithm: AlgorithmKind,
    /// Inter-site transport.
    pub transport: TransportKind,
    /// TCP only: bind node `i` to `127.0.0.1:(port_base + i)` instead
    /// of an ephemeral port, so out-of-process clients (`dynvote
    /// loadgen`) can find the nodes.
    pub port_base: Option<u16>,
    /// Print every protocol event to stderr as `[site i] {event}` when
    /// the site's node drains it (events are always counted; this adds
    /// the human-readable stream).
    pub trace: bool,
    /// Whether sites persist durable state to disk.
    pub durability: DurabilityMode,
    /// How long a coordinator waits for votes: the node's one timing
    /// setting (see [`Node::new`]; 25 ms unless set).
    pub vote_deadline: Duration,
    /// TCP only: expose the HTTP front door (one listener per node; see
    /// [`FrontDoorConfig`]). `None` keeps the cluster binary-only.
    pub http: Option<FrontDoorConfig>,
}

impl ClusterConfig {
    /// A channel-transport cluster of `n` sites with default deadlines.
    #[must_use]
    pub fn new(n: usize, algorithm: AlgorithmKind) -> Self {
        ClusterConfig {
            n,
            objects: 1,
            algorithm,
            transport: TransportKind::Channel,
            port_base: None,
            trace: false,
            durability: DurabilityMode::default(),
            vote_deadline: dynvote_node::DEFAULT_VOTE_DEADLINE,
            http: None,
        }
    }

    /// Same configuration over a different transport.
    #[must_use]
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Host `objects` independent replicated objects per site.
    #[must_use]
    pub fn with_objects(mut self, objects: usize) -> Self {
        self.objects = objects;
        self
    }

    /// Bind TCP listeners at fixed loopback ports starting here.
    #[must_use]
    pub fn with_port_base(mut self, port_base: u16) -> Self {
        self.port_base = Some(port_base);
        self
    }

    /// Mirror every protocol event to stderr as it happens.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Persist every site under `data_dir/site-<i>` with the given
    /// fsync discipline.
    #[must_use]
    pub fn with_data_dir(mut self, data_dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> Self {
        self.durability = DurabilityMode::Durable {
            data_dir: data_dir.into(),
            fsync,
        };
        self
    }

    /// Expose the HTTP front door on every node (TCP transport only).
    #[must_use]
    pub fn with_http(mut self, http: FrontDoorConfig) -> Self {
        self.http = Some(http);
        self
    }

    /// Reject impossible parameters through the same typed error path
    /// the simulator uses — booting never panics on bad input.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let one_to = |field, value: usize, hi: usize| {
            if (1..=hi).contains(&value) {
                return Ok(());
            }
            let (value, hi) = (value as u64, hi as u64);
            Err(ConfigError::OutOfRange {
                field,
                value,
                lo: 1,
                hi,
            })
        };
        check_site_count(self.n)?;
        one_to("objects", self.objects, MAX_OBJECTS)?;
        // Node i binds base + i: the last site's port must exist.
        let last_base = u16::MAX as usize + 1 - self.n;
        let http_port_base = self.http.and_then(|http| http.http_port_base);
        for (field, base) in [
            ("port_base", self.port_base),
            ("http_port_base", http_port_base),
        ] {
            if let Some(base) = base.filter(|&base| usize::from(base) > last_base) {
                return Err(ConfigError::OutOfRange {
                    field,
                    value: base.into(),
                    lo: 0,
                    hi: last_base as u64,
                });
            }
        }
        if self.vote_deadline.is_zero() {
            return Err(ConfigError::NotPositive {
                field: "vote_deadline",
                value: 0.0,
            });
        }
        if let Some(http) = &self.http {
            if self.transport != TransportKind::Tcp {
                return Err(ConfigError::Requires {
                    field: "http",
                    requires: "tcp transport",
                });
            }
            if http.max_inflight == 0 {
                return Err(ConfigError::OutOfRange {
                    field: "max_inflight",
                    value: 0,
                    lo: 1,
                    hi: 1_000_000,
                });
            }
            if http.max_conns == 0 {
                return Err(ConfigError::OutOfRange {
                    field: "max_conns",
                    value: 0,
                    lo: 1,
                    hi: 1_000_000,
                });
            }
        }
        Ok(())
    }
}

/// A request through [`LocalClient`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The node's inbox is closed (cluster shut down).
    NodeGone,
    /// No reply arrived within the client timeout.
    Timeout,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::NodeGone => write!(f, "node shut down"),
            RequestError::Timeout => write!(f, "client request timed out"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<RecvTimeoutError> for RequestError {
    fn from(e: RecvTimeoutError) -> Self {
        match e {
            RecvTimeoutError::Timeout => RequestError::Timeout,
            RecvTimeoutError::Disconnected => RequestError::NodeGone,
        }
    }
}

/// Where an in-process client reads its answers: `(correlation id,
/// reply)`.
pub(crate) type ReplySender = Sender<(u64, ClientReply)>;

/// What another thread hands a site through its [`Inbox`].
#[derive(Debug)]
pub(crate) enum SiteEvent {
    /// For the node as it is: under the channel transport, every peer
    /// item arrives this way.
    Node(NodeEvent),
    /// An in-process client's request, answered on `reply`.
    Client {
        id: u64,
        op: ClientOp,
        reply: ReplySender,
    },
    /// Ask for a copy of the node's counters, taken between two
    /// batches. The host answers it itself and hands the node nothing.
    Stats(Sender<ShardStats>),
    /// Stop the site's thread (parked clients are failed with `Down`).
    Shutdown,
}

/// The one way into a site from another thread. A TCP site sleeps in
/// `epoll_pwait`, not on the channel, so every send rings its waker —
/// there is no way to send without waking it. A channel site blocks on
/// the channel itself and has no waker.
#[derive(Clone)]
struct Inbox {
    tx: Sender<SiteEvent>,
    waker: Option<Waker>,
}

impl Inbox {
    fn send(&self, event: SiteEvent) -> Result<(), RequestError> {
        self.tx.send(event).map_err(|_| RequestError::NodeGone)?;
        if let Some(waker) = &self.waker {
            waker.wake();
        }
        Ok(())
    }
}

/// An in-process client bound to one node's inbox. Requests are
/// synchronous: send, then block for the correlated reply.
pub struct LocalClient {
    inbox: Inbox,
    tx: ReplySender,
    rx: Receiver<(u64, ClientReply)>,
    next_id: u64,
    timeout: Duration,
}

impl LocalClient {
    fn new(inbox: Inbox) -> Self {
        let (tx, rx) = mpsc::channel();
        LocalClient {
            inbox,
            tx,
            rx,
            next_id: 0,
            timeout: Duration::from_secs(2),
        }
    }

    /// Issue one operation and wait for its reply.
    pub fn request(&mut self, op: ClientOp) -> Result<ClientReply, RequestError> {
        self.next_id += 1;
        let id = self.next_id;
        self.inbox.send(SiteEvent::Client {
            id,
            op,
            reply: self.tx.clone(),
        })?;
        let deadline = Instant::now() + self.timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok((rid, reply)) if rid == id => return Ok(reply),
                Ok(_) => continue, // stale reply from a timed-out request
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Submit an update on object 0 coordinated by this node.
    pub fn update(&mut self) -> Result<ClientReply, RequestError> {
        self.request(ClientOp::Update { key: 0 })
    }

    /// Submit an update on one keyed object.
    pub fn update_key(&mut self, key: u32) -> Result<ClientReply, RequestError> {
        self.request(ClientOp::Update { key })
    }

    /// Submit a read-only request on object 0.
    pub fn read(&mut self) -> Result<ClientReply, RequestError> {
        self.request(ClientOp::Read { key: 0 })
    }
}

/// A TCP client speaking the [`crate::wire`] client framing — what
/// `dynvote loadgen` uses against `dynvote serve`.
pub struct TcpClient {
    stream: TcpStream,
    next_id: u64,
    /// Reused frame-encode buffer: requests are encoded in place and
    /// written with one `write_all`, so a loadgen worker's steady-state
    /// request path allocates nothing on the send side.
    buf: Vec<u8>,
}

impl TcpClient {
    /// Connect to a node's listen address and identify as a client.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        stream.write_all(&[HELLO_CLIENT])?;
        Ok(TcpClient {
            stream,
            next_id: 0,
            buf: Vec::new(),
        })
    }

    /// Issue one operation and wait for its reply.
    pub fn request(&mut self, op: &ClientOp) -> io::Result<ClientReply> {
        self.next_id += 1;
        let id = self.next_id;
        self.buf.clear();
        wire::encode_frame_into(&mut self.buf, |out| wire::encode_request_into(out, id, op));
        self.stream.write_all(&self.buf)?;
        loop {
            let body = wire::read_frame(&mut self.stream)?;
            let (rid, reply) = wire::decode_reply(&body)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if rid == id {
                return Ok(reply);
            }
        }
    }
}

/// A blocking HTTP/1.1 client for one node's front door: each op is a
/// `POST /v1/op` on its own connection, with [`TcpClient`]'s 2 s
/// timeouts.
pub struct HttpClient {
    addr: SocketAddr,
}

impl HttpClient {
    /// A client for the front door at `addr`; each op connects afresh.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        HttpClient { addr }
    }

    /// Issue one update or read and wait for its reply. A response the
    /// front door does not send for an op is `InvalidData`.
    pub fn request(&self, op: &ClientOp) -> io::Result<ClientReply> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        let (verb, key) = match *op {
            ClientOp::Update { key } => ("update", key),
            ClientOp::Read { key } => ("read", key),
            ref other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{other:?} has no HTTP form"),
                ))
            }
        };
        let body = format!("{{\"op\":\"{verb}\",\"key\":{key}}}");
        let request = format!(
            "POST /v1/op HTTP/1.1\r\nhost: dynvote\r\ncontent-length: {}\r\n\
             connection: close\r\n\r\n{body}",
            body.len()
        );
        let timeout = Duration::from_secs(2);
        let mut stream = TcpStream::connect_timeout(&self.addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.write_all(request.as_bytes())?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let mut parser = ResponseParser::new();
        parser.extend(&raw);
        let response = parser
            .next_response()
            .map_err(|e| invalid(format!("{e:?}")))?
            .ok_or_else(|| invalid("connection closed mid-response".into()))?;
        frontdoor::parse_reply(response.status, &response.body)
            .ok_or_else(|| invalid(format!("unexpected HTTP {} reply", response.status)))
    }
}

/// A running cluster: one thread per site and their transport mesh.
pub struct Cluster {
    n: usize,
    inboxes: Vec<Inbox>,
    handles: Vec<JoinHandle<()>>,
    addrs: Vec<SocketAddr>,
    http_addrs: Vec<SocketAddr>,
}

impl Cluster {
    /// Boot all nodes, one thread each, named `dynvote-node-<i>`. With
    /// [`TransportKind::Tcp`] each node also gets a loopback listener
    /// (ephemeral port unless `port_base` is set), and its thread is a
    /// reactor multiplexing all of its connections around it — with
    /// [`ClusterConfig::http`], an HTTP front-door listener too.
    ///
    /// Each site thread builds its own node: with
    /// [`DurabilityMode::Durable`] it first opens and recovers its store
    /// under `data_dir/site-<i>` (an empty directory boots the initial
    /// state, a populated one resumes where the last process left off).
    /// It then reports ready and waits for go, which boot sends once
    /// every site is ready, so no site runs a protocol step before every
    /// store is open. If any store fails to open, boot
    /// joins every site thread, which drops its listeners unrun, and
    /// returns [`BootError::Storage`] for the lowest failing site. A
    /// port that cannot be bound is [`BootError::Bind`], returned before
    /// any site thread starts.
    pub fn boot(config: &ClusterConfig) -> Result<Self, BootError> {
        config.validate()?;
        let n = config.n;
        let (senders, receivers): (Vec<Sender<SiteEvent>>, Vec<_>) =
            (0..n).map(|_| mpsc::channel()).unzip();

        let mut addrs = Vec::new();
        let mut http_addrs = Vec::new();
        let mut listeners: Vec<Option<TcpListener>> = Vec::new();
        let mut http_listeners: Vec<Option<TcpListener>> = (0..n).map(|_| None).collect();
        if config.transport == TransportKind::Tcp {
            // An early return drops every listener bound so far.
            let bind = |base: Option<u16>, i: usize| {
                let port = base.map_or(0, |base| base + i as u16);
                TcpListener::bind(("127.0.0.1", port))
                    .map_err(|error| BootError::Bind { port, error })
            };
            for i in 0..n {
                let listener = bind(config.port_base, i)?;
                addrs.push(listener.local_addr().expect("listener address"));
                listeners.push(Some(listener));
            }
            if let Some(http) = &config.http {
                for (i, slot) in http_listeners.iter_mut().enumerate() {
                    let listener = bind(http.http_port_base, i)?;
                    http_addrs.push(listener.local_addr().expect("http listener address"));
                    *slot = Some(listener);
                }
            }
        }

        let shared = Arc::new(config.clone());
        let mut inboxes = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        let mut readies = Vec::with_capacity(n);
        let mut gos = Vec::with_capacity(n);
        for (i, rx) in receivers.into_iter().enumerate() {
            let (ready, ready_rx) = mpsc::channel();
            let (go_tx, go) = mpsc::channel();
            readies.push(ready_rx);
            gos.push(go_tx);
            let site = SiteBoot {
                config: Arc::clone(&shared),
                id: SiteId(i as u8),
                ready,
                go,
            };
            let thread = thread::Builder::new().name(format!("dynvote-node-{i}"));
            let (waker, handle) = match config.transport {
                TransportKind::Channel => {
                    let senders = senders.clone();
                    (None, thread.spawn(move || site.run_channel(rx, senders)))
                }
                TransportKind::Tcp => {
                    // The poller/waker pair exists before the thread
                    // does, so the inbox can hold the waker from the
                    // start.
                    let poller = Poller::new().expect("create epoll instance");
                    let waker = Waker::new(&poller, TOKEN_WAKER).expect("create reactor waker");
                    let reactor = ReactorConfig {
                        site: site.id,
                        peer_addrs: addrs.clone(),
                        listener: listeners[i].take().expect("listener bound above"),
                        http_listener: http_listeners[i].take(),
                        front: None,
                        max_conns: config.http.as_ref().map_or(8192, |http| http.max_conns),
                    };
                    let reactor_waker = waker.clone();
                    (
                        Some(waker),
                        thread.spawn(move || site.run_tcp(rx, poller, reactor_waker, reactor)),
                    )
                }
            };
            inboxes.push(Inbox {
                tx: senders[i].clone(),
                waker,
            });
            handles.push(handle.expect("spawn site thread"));
        }

        // Reports are taken in site order, so the first failure is the
        // lowest failing site's. Dropping every go sender then releases
        // each waiting site unrun.
        let ready = readies.iter().enumerate().try_for_each(|(i, ready)| {
            let report = ready.recv().expect("site thread panicked while booting");
            report.map_err(|error| BootError::Storage {
                site: SiteId(i as u8),
                error,
            })
        });
        if let Err(error) = ready {
            drop(gos);
            for handle in handles {
                let _ = handle.join();
            }
            return Err(error);
        }
        for go in &gos {
            let _ = go.send(());
        }

        Ok(Cluster {
            n,
            inboxes,
            handles,
            addrs,
            http_addrs,
        })
    }

    /// Number of sites.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// A node's TCP listen address (TCP transport only).
    #[must_use]
    pub fn addr(&self, site: SiteId) -> Option<SocketAddr> {
        self.addrs.get(site.index()).copied()
    }

    /// A node's HTTP front-door address (TCP transport with
    /// [`ClusterConfig::http`] only).
    #[must_use]
    pub fn http_addr(&self, site: SiteId) -> Option<SocketAddr> {
        self.http_addrs.get(site.index()).copied()
    }

    /// An in-process client bound to `site`.
    #[must_use]
    pub fn client(&self, site: SiteId) -> LocalClient {
        LocalClient::new(self.inboxes[site.index()].clone())
    }

    /// Benchmark shim; ROADMAP item 1 deletes.
    #[doc(hidden)]
    #[must_use]
    pub fn ledger(&self) -> &Self {
        self
    }

    /// A copy of one node's kernel-step, peer-health and routing
    /// counters — the ones `/metrics` serves, readable without an HTTP
    /// listener. The site's thread takes it between two batches.
    pub fn shard_stats(&self, site: SiteId) -> Result<ShardStats, RequestError> {
        let (tx, rx) = mpsc::channel();
        self.inboxes[site.index()].send(SiteEvent::Stats(tx))?;
        Ok(rx.recv_timeout(Duration::from_secs(2))?)
    }

    /// Per-site tallies of every protocol event emitted so far, one
    /// [`ClientOp::Events`] request per site.
    pub fn event_tallies(&self) -> Result<EventTallies, RequestError> {
        let mut tallies = EventTallies::default();
        for site in self.sites() {
            let ClientReply::Events { counts } = self.control(site, ClientOp::Events)? else {
                unreachable!("a node answers Events with its tally row");
            };
            tallies.set_row(site, counts.try_into().expect("one count per event kind"));
        }
        Ok(tallies)
    }

    fn control(&self, site: SiteId, op: ClientOp) -> Result<ClientReply, RequestError> {
        self.client(site).request(op)
    }

    /// Crash one site (volatile state lost, durable records kept).
    pub fn crash(&self, site: SiteId) -> Result<(), RequestError> {
        self.control(site, ClientOp::Crash).map(|_| ())
    }

    /// Recover one site; it runs the `Make_Current` restart protocol.
    pub fn recover(&self, site: SiteId) -> Result<(), RequestError> {
        self.control(site, ClientOp::Recover).map(|_| ())
    }

    /// Impose a partition: each site may only exchange messages within
    /// its group; sites in no group are isolated.
    pub fn set_partition(&self, groups: &[SiteSet]) -> Result<(), RequestError> {
        for site in self.sites() {
            let reachable = groups
                .iter()
                .copied()
                .find(|g| g.contains(site))
                .unwrap_or_else(|| SiteSet::singleton(site));
            self.control(site, ClientOp::SetReachable(reachable))?;
        }
        Ok(())
    }

    /// Repair all links (crashed sites stay crashed — the counterpart
    /// of the simulator's `impose_partitions(&[all])`).
    pub fn heal_links(&self) -> Result<(), RequestError> {
        let all = SiteSet::all(self.n);
        for site in self.sites() {
            self.control(site, ClientOp::SetReachable(all))?;
        }
        Ok(())
    }

    /// Probe one site's protocol state (object 0).
    pub fn probe(&self, site: SiteId) -> Result<ClientReply, RequestError> {
        self.control(site, ClientOp::Probe { key: 0 })
    }

    /// Probe one site's protocol state for one keyed object.
    pub fn probe_object(&self, site: SiteId, key: u32) -> Result<ClientReply, RequestError> {
        self.control(site, ClientOp::Probe { key })
    }

    /// Wait until no live site holds a lock or an in-doubt prepare
    /// record on **any** shard (in-flight protocol work has drained).
    /// Returns `false` on timeout.
    pub fn await_quiescence(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let mut quiet = true;
            for site in self.sites() {
                // Status aggregates lock/in-doubt across every shard,
                // so one request per site covers all objects.
                match self.control(site, ClientOp::Status) {
                    Ok(ClientReply::Status {
                        locked,
                        in_doubt,
                        down,
                        ..
                    }) => {
                        if !down && (locked || in_doubt) {
                            quiet = false;
                        }
                    }
                    _ => quiet = false,
                }
            }
            if quiet {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// Cluster-wide consistency audit: every site's `Status` (for its
    /// coordinator commit count) and its copy of every object, compared
    /// by [`AuditOutcome::of_logs`] — the same check `dynvote loadgen`
    /// runs over the wire.
    pub fn audit(&self) -> Result<AuditOutcome, RequestError> {
        let mut commits = 0;
        let mut objects = 0;
        for site in self.sites() {
            let ClientReply::Status {
                commits: c,
                objects: k,
                ..
            } = self.control(site, ClientOp::Status)?
            else {
                unreachable!("a node answers Status with its snapshot");
            };
            commits += c;
            objects = k;
        }
        let copies = (0..objects)
            .map(|o| self.copies(ObjectId(o)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AuditOutcome::of_logs(commits, &copies))
    }

    /// Length of one object's chain: its longest log across sites (0
    /// for an object the cluster does not host). Panics if a site does
    /// not answer.
    #[must_use]
    pub fn chain_len_of(&self, object: ObjectId) -> u64 {
        let copies = self.copies(object).expect("every site answers DumpLog");
        copies
            .iter()
            .map(|(_, log)| log.len() as u64)
            .max()
            .unwrap_or(0)
    }

    fn sites(&self) -> impl Iterator<Item = SiteId> {
        (0..self.n).map(|i| SiteId(i as u8))
    }

    /// Every site's copy of `object` — its metadata and committed log —
    /// in site order; none for an object the cluster does not host.
    fn copies(&self, object: ObjectId) -> Result<Vec<(CopyMeta, Vec<LogEntry>)>, RequestError> {
        let mut copies = Vec::with_capacity(self.n);
        for site in self.sites() {
            match self.control(site, ClientOp::DumpLog { key: object.0 })? {
                ClientReply::Log { meta, entries } => copies.push((meta, entries)),
                ClientReply::UnknownKey => return Ok(Vec::new()),
                other => unreachable!("a node answers DumpLog with its log, not {other:?}"),
            }
        }
        Ok(copies)
    }

    /// Stop every site's thread and join them all. Shutdown rides the
    /// inbox like any control op, so it wakes a sleeping reactor — no
    /// thread is ever parked in a blocking accept.
    pub fn shutdown(self) {
        for inbox in &self.inboxes {
            let _ = inbox.send(SiteEvent::Shutdown);
        }
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// What a site thread builds its node from, and its half of the boot
/// barrier.
struct SiteBoot {
    config: Arc<ClusterConfig>,
    id: SiteId,
    /// The site's one ready report: why its store failed to open, if
    /// it did.
    ready: Sender<Result<(), StorageError>>,
    /// Go, sent once every site is ready; dropped unsent when any
    /// site's open failed.
    go: Receiver<()>,
}

impl SiteBoot {
    /// Report `built` and wait for go: the host to run, or `None` when
    /// this site or another failed to open, so the thread returns
    /// without a protocol step.
    fn pass<H>(self, built: Result<H, StorageError>) -> Option<H> {
        let (host, report) = match built {
            Ok(host) => (Some(host), Ok(())),
            Err(error) => (None, Err(error)),
        };
        self.ready.send(report).ok()?;
        self.go.recv().ok()?;
        host
    }

    /// A channel site's thread: build the node, pass the barrier, run.
    fn run_channel(self, inbox: Receiver<SiteEvent>, senders: Vec<Sender<SiteEvent>>) {
        let built = self.node();
        let site = self.id;
        if let Some(node) = self.pass(built) {
            transport::run(node, site, inbox, &senders);
        }
    }

    /// A TCP site's thread: build the node and its front door into a
    /// reactor around the poller and sockets boot made for it, pass
    /// the barrier, run.
    fn run_tcp(
        self,
        inbox: Receiver<SiteEvent>,
        poller: Poller,
        waker: Waker,
        mut reactor: ReactorConfig,
    ) {
        let built = self.node().map(|node| {
            reactor.front = self.config.http.as_ref().map(|http| {
                FrontDoor::new(
                    self.id,
                    self.config.algorithm.to_string(),
                    self.config.objects as u32,
                    http.max_inflight,
                )
            });
            Reactor::new(poller, waker, node, inbox, reactor).expect("register reactor listeners")
        });
        if let Some(reactor) = self.pass(built) {
            reactor.run();
        }
    }

    /// This site's node: opened and recovered from its data directory
    /// if durable, ready for its host.
    fn node(&self) -> Result<Node, StorageError> {
        let config = &self.config;
        let mut node = Node::new(
            self.id,
            config.n,
            config.objects,
            config.algorithm,
            config.vote_deadline,
        );
        if let DurabilityMode::Durable { data_dir, fsync } = &config.durability {
            let dir = data_dir.join(format!("site-{}", self.id.index()));
            node.open_store(&dir, StoreConfig { fsync: *fsync })?;
        }
        node.set_trace(config.trace);
        Ok(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_core::MAX_SITES;

    /// A one-site cluster would wait out the whole vote deadline on
    /// every op; the simulator refuses it, and so does boot.
    #[test]
    fn fewer_than_two_sites_are_refused() {
        for n in [0, 1] {
            let config = ClusterConfig::new(n, AlgorithmKind::Hybrid);
            assert_eq!(config.validate(), Err(ConfigError::SiteCount { n }));
        }
        assert_eq!(
            ClusterConfig::new(2, AlgorithmKind::Hybrid).validate(),
            Ok(())
        );
        let too_many = ClusterConfig::new(MAX_SITES + 1, AlgorithmKind::Hybrid);
        assert_eq!(
            too_many.validate(),
            Err(ConfigError::SiteCount { n: MAX_SITES + 1 })
        );
    }

    /// Node i binds base + i, so a base whose last node would pass port
    /// 65535 is refused instead of wrapping round to port 0.
    #[test]
    fn a_port_range_past_65535_is_refused() {
        let tcp = ClusterConfig::new(5, AlgorithmKind::Hybrid).with_transport(TransportKind::Tcp);
        let refused = |field| ConfigError::OutOfRange {
            field,
            value: 65_532,
            lo: 0,
            hi: 65_531,
        };
        assert_eq!(tcp.clone().with_port_base(65_531).validate(), Ok(()));
        assert_eq!(
            tcp.clone().with_port_base(65_532).validate(),
            Err(refused("port_base"))
        );
        let http = |base| FrontDoorConfig {
            http_port_base: Some(base),
            ..FrontDoorConfig::default()
        };
        assert_eq!(tcp.clone().with_http(http(65_531)).validate(), Ok(()));
        assert_eq!(
            tcp.with_http(http(65_532)).validate(),
            Err(refused("http_port_base"))
        );
    }

    /// A port already taken is a typed boot error, for the peer and the
    /// HTTP listeners alike, not a panic.
    #[test]
    fn a_port_in_use_is_a_bind_error() {
        let held = TcpListener::bind(("127.0.0.1", 0)).expect("an ephemeral port");
        let taken = held.local_addr().expect("its address").port();
        let tcp = ClusterConfig::new(3, AlgorithmKind::Hybrid).with_transport(TransportKind::Tcp);
        let http = FrontDoorConfig {
            http_port_base: Some(taken),
            ..FrontDoorConfig::default()
        };
        for config in [tcp.clone().with_port_base(taken), tcp.with_http(http)] {
            match Cluster::boot(&config) {
                Err(BootError::Bind { port, .. }) => assert_eq!(port, taken),
                Err(other) => panic!("expected a bind error, got {other}"),
                Ok(_) => panic!("boot on a held port must fail"),
            }
        }
    }
}
