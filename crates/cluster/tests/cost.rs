//! What one committed op costs on the node path, as a golden table.
//!
//! n [`Node`]s are stepped through their public calls in synthetic
//! time: every peer item is handed to its target at the instant it was
//! sent, and when every node is quiet with an op still unanswered the
//! clock jumps to the earliest deadline. No socket, thread or sleep is
//! involved, so every count below is a property of the code, not of
//! the machine, and `cost.txt` holds it exactly. A change that moves a
//! per-access cost shows up as a reviewed diff of that file.
//!
//! Each shape runs on fresh nodes hosting 8 objects. Sites 0 and 1
//! first commit one update on every object each (so one-time growth of
//! tables and buffers is paid before counting), then run the shape's
//! setup phases, then its measured phase. Columns, each divided by the
//! ops the measured phase committed or served (`ops`):
//!
//! * `items` — peer items the nodes put in their outboxes;
//! * `bytes` — those items encoded as peer-link frames (the 4-byte
//!   length prefix included), as a TCP site writes them;
//! * `batches` — `end_batch` calls: one per node per delivery that
//!   reached it, and one per node a client op reached;
//! * `barriers` — merge barriers, summed over the sites;
//! * `wal` — bytes each site's data directory grew by, site 0 first
//!   (durable shapes only, every append forced);
//! * `timers` — times the clock had to jump to a deadline;
//! * `allocs` — heap allocations inside the nodes' calls on the
//!   stepping thread.
//!
//! If `cost.txt` no longer matches, the assertion prints the fresh
//! table: a change that means to move a cost replaces the file with it.

mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Forwards to the system allocator, counting every `alloc` and
    /// `realloc` on the calling thread only, so tests running on other
    /// threads cannot reach the count.
    struct Counting;

    thread_local! {
        // Const-initialised: reading it allocates nothing.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    // SAFETY: every call forwards to `System` unchanged; the count is a
    // thread-local `Cell`, which allocates nothing and cannot reenter.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            System.realloc(ptr, layout, new_size)
        }
    }

    fn bump() {
        // `try_with`: a thread tearing down its locals still allocates.
        let _ = ALLOCS.try_with(|count| count.set(count.get() + 1));
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    /// Run `f`, adding the allocations it made on this thread to
    /// `total`.
    pub fn counted<R>(total: &mut u64, f: impl FnOnce() -> R) -> R {
        let before = ALLOCS.with(Cell::get);
        let result = f();
        *total += ALLOCS.with(Cell::get) - before;
        result
    }
}

use alloc::counted;
use dynvote_cluster::wire;
use dynvote_core::{AlgorithmKind, SiteId};
use dynvote_node::{ClientOp, ClientReply, Node, NodeEvent};
use dynvote_node::{PeerFrame, ReplyTo, DEFAULT_VOTE_DEADLINE};
use dynvote_storage::{FsyncPolicy, StoreConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

const OBJECTS: u32 = 8;

/// One batch of client ops, `(site, op)`, handed over at one instant.
type Phase = Vec<(usize, ClientOp)>;

/// A row of the table: its setup phases and its measured phase.
struct Shape {
    name: &'static str,
    durable: bool,
    setup: Vec<Phase>,
    measured: Phase,
}

fn shapes() -> Vec<Shape> {
    let update = |key| ClientOp::Update { key };
    let read = ClientOp::Read { key: 0 };
    let rivals = vec![(0, update(0)), (1, update(0))];
    let shape = |name, durable, setup, measured| Shape {
        name,
        durable,
        setup,
        measured,
    };
    vec![
        shape("update", false, vec![], vec![(0, update(0))]),
        shape("8 ops, one key", false, vec![], vec![(0, update(0)); 8]),
        shape(
            "8 ops, 8 keys",
            false,
            vec![],
            (0..OBJECTS).map(|key| (0, update(key))).collect(),
        ),
        shape("read", false, vec![], vec![(0, read.clone())]),
        shape("8 reads, 1 key", false, vec![], vec![(0, read.clone()); 8]),
        shape("rivals", false, vec![], rivals.clone()),
        // Site 1 lost the race to a lower-numbered rival, so its next
        // op on the key goes to site 0.
        shape("forwarded", false, vec![rivals], vec![(1, update(0))]),
        shape("durable update", true, vec![], vec![(0, update(0))]),
        shape("durable read", true, vec![], vec![(0, read)]),
    ]
}

/// What one measured phase cost, summed over the sites.
#[derive(Default)]
struct Cost {
    ops: u64,
    items: u64,
    bytes: u64,
    batches: u64,
    barriers: u64,
    wal: Vec<u64>,
    timers: u64,
    allocs: u64,
}

/// n nodes, the synthetic clock, and what they have cost so far.
struct Pump {
    nodes: Vec<Node>,
    now: Instant,
    cost: Cost,
    frame: Vec<u8>,
    next_id: u64,
}

impl Pump {
    fn new(algorithm: AlgorithmKind, n: usize) -> Self {
        let nodes = (0..n)
            .map(|id| {
                let id = SiteId::new(id);
                Node::new(id, n, OBJECTS as usize, algorithm, DEFAULT_VOTE_DEADLINE)
            })
            .collect();
        Pump {
            nodes,
            now: Instant::now(),
            cost: Cost::default(),
            frame: Vec::new(),
            next_id: 0,
        }
    }

    /// Give every node its own data directory under `root`, each WAL
    /// append forced before the action that announced it leaves.
    fn make_durable(&mut self, root: &Path) {
        for (id, node) in self.nodes.iter_mut().enumerate() {
            let config = StoreConfig {
                fsync: FsyncPolicy::Always,
            };
            node.open_store(&root.join(format!("site-{id}")), config)
                .expect("a fresh data directory opens");
            node.start(self.now);
        }
    }

    /// Hand a phase's ops to their sites, close the batch of each site
    /// that got one, and run until every op is answered. Returns the
    /// replies.
    fn run(&mut self, phase: &Phase) -> Vec<ClientReply> {
        let mut fed = vec![false; self.nodes.len()];
        for (at, op) in phase {
            self.next_id += 1;
            let id = self.next_id;
            let event = NodeEvent::Client {
                id,
                op: op.clone(),
                reply: ReplyTo(id),
            };
            let (node, now) = (&mut self.nodes[*at], self.now);
            counted(&mut self.cost.allocs, || node.on_event(event, now));
            fed[*at] = true;
        }
        self.end_batches(&fed);
        let mut replies = Vec::new();
        loop {
            self.deliver();
            for node in &mut self.nodes {
                replies.extend(node.outbox().replies.drain(..).map(|(_, _, reply)| reply));
            }
            if replies.len() == phase.len() {
                return replies;
            }
            self.advance();
        }
    }

    fn end_batches(&mut self, which: &[bool]) {
        for (node, _) in self.nodes.iter_mut().zip(which).filter(|(_, &on)| on) {
            self.cost.batches += 1;
            counted(&mut self.cost.allocs, || node.end_batch(self.now));
        }
    }

    /// Hand every peer item in the outboxes to its target now, until no
    /// node has anything left to send.
    fn deliver(&mut self) {
        loop {
            let mut items = Vec::new();
            for (from, node) in self.nodes.iter_mut().enumerate() {
                let from = SiteId::new(from);
                let peers = node.outbox().peers.drain(..);
                items.extend(peers.map(|(to, frame)| (from, to, frame)));
            }
            if items.is_empty() {
                return;
            }
            let mut touched = vec![false; self.nodes.len()];
            for (from, to, frame) in items {
                self.cost.items += 1;
                self.frame.clear();
                wire::encode_frame_into(&mut self.frame, |out| match &frame {
                    PeerFrame::Msg(msg) => wire::encode_message_into(out, msg),
                    PeerFrame::Relay(relay) => wire::encode_relay_into(out, relay),
                });
                self.cost.bytes += self.frame.len() as u64;
                let (node, now) = (&mut self.nodes[to.index()], self.now);
                let event = NodeEvent::Peer { from, frame };
                counted(&mut self.cost.allocs, || node.on_event(event, now));
                touched[to.index()] = true;
            }
            self.end_batches(&touched);
        }
    }

    /// Every node is quiet and an op is unanswered: jump to the earliest
    /// deadline and close the batch of every node that has one due.
    fn advance(&mut self) {
        let now = self.now;
        let mut waits = Vec::new();
        for node in &mut self.nodes {
            waits.push(counted(&mut self.cost.allocs, || node.next_timer_in(now)));
        }
        let wait = waits.iter().flatten().min().copied();
        let wait = wait.expect("an op is unanswered and no node has a deadline");
        assert!(
            self.cost.timers < 100,
            "an op still unanswered after 100 deadlines"
        );
        self.cost.timers += 1;
        self.now += wait;
        let due: Vec<bool> = waits.iter().map(|w| *w == Some(wait)).collect();
        self.end_batches(&due);
    }

    fn barriers(&self) -> u64 {
        let barriers = |node: &Node| node.shard_stats().snapshot()[2];
        self.nodes.iter().map(barriers).sum()
    }
}

/// The bytes each site's data directory holds.
fn disk_bytes(root: &Path, n: usize) -> Vec<u64> {
    let bytes = |id: usize| -> u64 {
        let dir = root.join(format!("site-{id}"));
        let files = std::fs::read_dir(dir).expect("a data directory");
        let sizes = files.map(|f| f.expect("an entry").metadata().expect("a size").len());
        sizes.sum()
    };
    (0..n).map(bytes).collect()
}

/// Run one shape from fresh nodes and return its measured phase's cost.
fn measure(algorithm: AlgorithmKind, n: usize, shape: &Shape) -> Cost {
    let mut pump = Pump::new(algorithm, n);
    let root: Option<PathBuf> = shape.durable.then(|| {
        let tag = shape.name.replace(' ', "-");
        let root = std::env::temp_dir().join(format!(
            "dynvote-cost-{}-{algorithm}-{n}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        pump.make_durable(&root);
        root
    });
    for site in [0, 1] {
        let warm = (0..OBJECTS).map(|key| (site, ClientOp::Update { key }));
        pump.run(&warm.collect());
    }
    for phase in &shape.setup {
        pump.run(phase);
    }
    pump.cost = Cost::default();
    let barriers = pump.barriers();
    let disk = root.as_deref().map(|root| disk_bytes(root, n));
    let replies = pump.run(&shape.measured);
    let mut cost = std::mem::take(&mut pump.cost);
    cost.barriers = pump.barriers() - barriers;
    let served = |reply: &&ClientReply| {
        matches!(
            reply,
            ClientReply::Committed { .. } | ClientReply::ReadServed
        )
    };
    cost.ops = replies.iter().filter(served).count() as u64;
    if let (Some(root), Some(before)) = (&root, disk) {
        let after = disk_bytes(root, n);
        cost.wal = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        drop(pump);
        std::fs::remove_dir_all(root).expect("the data directories go");
    }
    cost
}

/// `total / ops` as an exact decimal: every op count here is 1, 2 or
/// 8, so three places always suffice.
fn per_op(total: u64, ops: u64) -> String {
    let text = format!("{:.3}", total as f64 / ops as f64);
    let text = text.trim_end_matches('0').trim_end_matches('.');
    text.to_string()
}

fn table() -> String {
    let mut out = String::new();
    let header = [
        "algorithm",
        "n",
        "shape",
        "ops",
        "items",
        "bytes",
        "batches",
        "barriers",
        "wal",
        "timers",
        "allocs",
    ];
    let row = |out: &mut String, cells: &[String]| {
        let line = format!(
            "{:<15} {:>1}  {:<14} {:>3} {:>6} {:>6} {:>7} {:>8}  {:<22} {:>6} {:>7}",
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4],
            cells[5],
            cells[6],
            cells[7],
            cells[8],
            cells[9],
            cells[10]
        );
        writeln!(out, "{}", line.trim_end()).expect("a String takes every write");
    };
    row(&mut out, &header.map(String::from));
    for algorithm in [AlgorithmKind::Hybrid, AlgorithmKind::DynamicVoting] {
        for n in [3, 5] {
            for shape in shapes() {
                let cost = measure(algorithm, n, &shape);
                assert!(
                    cost.ops > 0,
                    "{algorithm}, n = {n}, {}: nothing served",
                    shape.name
                );
                let per = |total| per_op(total, cost.ops);
                let wal = if cost.wal.is_empty() {
                    "-".to_string()
                } else {
                    let sites: Vec<String> = cost.wal.iter().map(|&b| per(b)).collect();
                    sites.join("/")
                };
                let cells = [
                    algorithm.to_string(),
                    n.to_string(),
                    shape.name.to_string(),
                    cost.ops.to_string(),
                    per(cost.items),
                    per(cost.bytes),
                    per(cost.batches),
                    per(cost.barriers),
                    wal,
                    per(cost.timers),
                    per(cost.allocs),
                ];
                row(&mut out, &cells);
            }
        }
    }
    out
}

#[test]
fn the_per_commit_cost_table_matches_the_golden() {
    let fresh = table();
    let golden = include_str!("cost.txt");
    assert!(
        fresh == golden,
        "the per-commit cost table moved; if that is intended, replace \
         crates/cluster/tests/cost.txt with:\n{fresh}"
    );
}

#[test]
fn a_hybrid_update_at_five_sites_costs_twelve_peer_items() {
    let shapes = shapes();
    let update = shapes.iter().find(|s| s.name == "update").expect("a shape");
    let cost = measure(AlgorithmKind::Hybrid, 5, update);
    assert_eq!(cost.ops, 1);
    assert_eq!(
        cost.items, 12,
        "four vote requests, four votes, four commits"
    );
    assert_eq!(cost.timers, 0, "a lossless path waits on no clock");
}
