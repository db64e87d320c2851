//! Bench: raw kernel dispatch throughput and allocation discipline.
//!
//! Unlike `protocol_sim` (which times the discrete-event engine around
//! the kernel), this measures [`SiteActor::step`] itself: a
//! synchronous in-process router delivers every `Send`/`Broadcast`
//! action immediately, so the numbers are messages dispatched per
//! second through the pure state machine with zero harness overhead.
//!
//! Two workloads bracket the protocol's cost spectrum:
//!
//! * `commit_heavy` — healthy five-site commits: vote round, quorum,
//!   commit fan-out, force-writes at every subordinate;
//! * `abort_heavy` — every subordinate holds its own lock, so each
//!   update collects four `VoteBusy` denials and aborts.
//!
//! A counting `#[global_allocator]` (bench binary only — the library
//! crates are untouched) reports steady-state heap allocations per
//! dispatched message alongside throughput, pinning the sink-based
//! kernel API's zero-allocation claim with a number.
//!
//! The measurements land in `BENCH_kernel.json` next to the bench's
//! working directory as a machine-readable perf baseline. Set
//! `DYNVOTE_BENCH_QUICK=1` for a fast smoke run (CI) that exercises
//! the same code and JSON schema at a fraction of the rounds.

use dynvote_core::{AlgorithmKind, SiteId};
use dynvote_protocol::{Action, Input, Message, SiteActor, TimerKind, TxnId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::time::Instant;

const SITES: usize = 5;
const ROUNDS: u64 = 20_000;
const QUICK_ROUNDS: u64 = 2_000;
/// Untimed rounds run first so one-time growth (durable logs, buffer
/// capacities, hash tables) is excluded from the steady-state
/// allocation count.
const WARMUP: u64 = 200;

// ----- counting allocator -------------------------------------------------

/// Forwards to the system allocator, counting every `alloc`/`realloc`
/// on the current thread. The bench is single-threaded, so a
/// `thread_local` counter (const-initialised: no allocation inside the
/// allocator) is exact.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.with(Cell::get)
}

// ----- router -------------------------------------------------------------

/// A zero-latency router: every action is interpreted immediately,
/// timers fire only at quiescence (mirroring the simulator's quiesce
/// loop, minus the event heap), and a site's `ClearTimers` disarms its
/// timers for that transaction. The kernel emits into one reusable
/// sink, exactly like the production harnesses.
struct Router {
    actors: Vec<SiteActor>,
    queue: VecDeque<(SiteId, SiteId, Message)>,
    timers: Vec<(SiteId, TxnId, TimerKind)>,
    dispatched: u64,
    sink: Vec<Action>,
}

impl Router {
    fn new(kind: AlgorithmKind) -> Router {
        Router {
            actors: (0..SITES)
                .map(|i| SiteActor::new(SiteId(i as u8), SITES, kind.instantiate(SITES)))
                .collect(),
            queue: VecDeque::new(),
            timers: Vec::new(),
            dispatched: 0,
            sink: Vec::new(),
        }
    }

    /// Step `site` with `input`, then interpret what it produced.
    fn step(&mut self, site: SiteId, input: Input<'_>) {
        self.actors[site.index()].step(input, &mut self.sink);
        self.drain_sink(site);
    }

    /// Drain the sink filled by the last step of `site`.
    fn drain_sink(&mut self, site: SiteId) {
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
                Action::ClearTimers { txn } => {
                    self.timers
                        .retain(|&(at, armed, _)| (at, armed) != (site, txn));
                }
                _ => {}
            }
        }
        self.sink = actions;
    }

    fn update(&mut self, site: SiteId, payload: u64) {
        let (payloads, hold) = (&[payload], false);
        self.step(site, Input::Update { payloads, hold });
    }

    /// Deliver every message, then fire the timers still armed, until
    /// neither is left. Returns how many timers fired.
    fn run_to_quiescence(&mut self) -> usize {
        let mut fired = 0;
        loop {
            while let Some((from, to, msg)) = self.queue.pop_front() {
                self.dispatched += 1;
                self.step(to, Input::Message { from, msg });
            }
            if self.timers.is_empty() {
                return fired;
            }
            let timers = std::mem::take(&mut self.timers);
            fired += timers.len();
            for (site, txn, kind) in timers {
                self.step(site, Input::Timer { txn, kind });
            }
        }
    }
}

struct Measurement {
    workload: &'static str,
    rounds: u64,
    messages: u64,
    seconds: f64,
    allocs: u64,
}

impl Measurement {
    fn msgs_per_sec(&self) -> f64 {
        self.messages as f64 / self.seconds
    }

    fn allocs_per_msg(&self) -> f64 {
        self.allocs as f64 / self.messages.max(1) as f64
    }
}

fn rounds() -> u64 {
    if std::env::var_os("DYNVOTE_BENCH_QUICK").is_some() {
        QUICK_ROUNDS
    } else {
        ROUNDS
    }
}

/// Healthy commits: every site up, round-robin coordinators. A commit
/// disarms every timer it armed, so no round leaves one to fire.
fn commit_heavy() -> Measurement {
    let rounds = rounds();
    let mut router = Router::new(AlgorithmKind::Hybrid);
    for i in 0..WARMUP {
        router.update(SiteId((i % SITES as u64) as u8), i);
        assert_eq!(router.run_to_quiescence(), 0, "a commit left a timer");
    }
    router.dispatched = 0;
    let allocs_before = allocs_now();
    let start = Instant::now();
    for i in 0..rounds {
        let coordinator = SiteId((i % SITES as u64) as u8);
        router.update(coordinator, WARMUP + i);
        assert_eq!(router.run_to_quiescence(), 0, "a commit left a timer");
    }
    let seconds = start.elapsed().as_secs_f64();
    let allocs = allocs_now() - allocs_before;
    let version = router.actors[0].meta().version;
    assert_eq!(
        version,
        WARMUP + rounds,
        "commit-heavy workload must commit every round"
    );
    Measurement {
        workload: "commit_heavy",
        rounds,
        messages: router.dispatched,
        seconds,
        allocs,
    }
}

/// Denied votes: sites B..E each hold their own never-resolving lock,
/// so site A's updates collect four `VoteBusy` replies and abort.
fn abort_heavy() -> Measurement {
    let rounds = rounds();
    let mut router = Router::new(AlgorithmKind::Hybrid);
    for i in 1..SITES {
        // Lock the subordinate with a local coordination attempt whose
        // vote requests are never delivered: the lock is held forever.
        let (payloads, hold) = (&[u64::MAX], false);
        router.actors[i].step(Input::Update { payloads, hold }, &mut Vec::new());
    }
    for i in 0..WARMUP {
        router.update(SiteId(0), i);
        router.run_to_quiescence();
    }
    router.dispatched = 0;
    let allocs_before = allocs_now();
    let start = Instant::now();
    for i in 0..rounds {
        router.update(SiteId(0), WARMUP + i);
        router.run_to_quiescence();
    }
    let seconds = start.elapsed().as_secs_f64();
    let allocs = allocs_now() - allocs_before;
    assert_eq!(
        router.actors[0].meta().version,
        0,
        "abort-heavy workload must never commit"
    );
    Measurement {
        workload: "abort_heavy",
        rounds,
        messages: router.dispatched,
        seconds,
        allocs,
    }
}

fn main() {
    let results = [commit_heavy(), abort_heavy()];
    let mut json = String::from("{\n  \"bench\": \"protocol_kernel\",\n  \"workloads\": [\n");
    for (i, m) in results.iter().enumerate() {
        println!(
            "{:<14} {:>8} rounds  {:>9} msgs  {:>8.3} s  {:>12.0} msgs/sec  {:>6.2} allocs/msg",
            m.workload,
            m.rounds,
            m.messages,
            m.seconds,
            m.msgs_per_sec(),
            m.allocs_per_msg()
        );
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"rounds\": {}, \"messages\": {}, \
             \"seconds\": {:.6}, \"msgs_per_sec\": {:.0}, \"allocs_per_msg\": {:.3}}}{}\n",
            m.workload,
            m.rounds,
            m.messages,
            m.seconds,
            m.msgs_per_sec(),
            m.allocs_per_msg(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_kernel.json";
    std::fs::write(path, &json).expect("write BENCH_kernel.json");
    println!("baseline written to {path}");
}
