//! The five workloads and every constant that defines them. Nothing
//! here is tunable from the command line except the seed and the
//! length of the measured window: a number recorded with one shape must
//! be comparable with the next run's.
//!
//! Every workload is **open loop at a few hundred ops a second**. That
//! is a property of the seed, not a preference: with several requests
//! in flight the TCP reactor's waker loses a wake-up within seconds
//! (see the README), after which latency is set by when the next
//! unrelated packet happens to arrive and closed-loop clients stall or
//! wedge outright. Paced load keeps node and reactor threads taking
//! turns, where the race is rare; what is left of it is absorbed by
//! measuring each run as several independent cluster lifetimes.

/// Sites in the cluster every workload boots.
pub const SITES: usize = 5;
/// Untimed load before each segment's measured window opens, so
/// connection set-up, first allocations and the lazy mesh dials are not
/// timed.
pub const WARMUP_S: f64 = 0.3;
/// Latency limit behind `slo_ok_share`: an op counts only if it is
/// acknowledged ok within this long of its due time. Each workload also
/// has a tight limit of its own ([`Workload::tight_slo_ms`]).
pub const SLO_MS: f64 = 10.0;
/// `site-down`: ops due this close to the crash or recover instant
/// belong to neither the healthy nor the degraded window.
pub const TRANSITION_MS: f64 = 100.0;
/// `site-down`: the site that crashes and recovers.
pub const FAULT_SITE: u8 = 4;
/// `site-down`: each measured window splits healthy / down / healthy in
/// these proportions (the 6 s / 6 s / 10 s of a 22 s window).
pub const FAULT_SCHEDULE: [f64; 3] = [6.0 / 22.0, 6.0 / 22.0, 10.0 / 22.0];
/// After a window closes a generator waits this long for replies still
/// outstanding; what has not arrived by then is "never answered".
pub const DRAIN_S: f64 = 2.0;

/// How a connection talks to its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// The binary client framing; request ids multiplex, so several
    /// requests can be in flight on one connection.
    Binary,
    /// `POST /v1/op` on a keep-alive connection; one op at a time.
    Http,
}

/// When a connection sends its ops: open loop, on a fixed clock.
/// `burst` ops fall due together at each of `ticks_per_s` instants a
/// second and are written at once; an op is held back only while `cap`
/// are already outstanding, and its latency counts from the due time
/// either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pace {
    pub ticks_per_s: f64,
    pub burst: usize,
    pub cap: usize,
}

impl Pace {
    /// Ops per second one connection offers.
    pub fn rate(&self) -> f64 {
        self.ticks_per_s * self.burst as f64
    }
}

/// Which keys a connection draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// Every object of the cluster.
    All,
    /// Objects whose key has this parity, so two connections never
    /// contend for a lock.
    Parity(u32),
}

/// One load connection.
#[derive(Debug, Clone, Copy)]
pub struct ConnSpec {
    /// The site it connects to (and which coordinates its updates).
    pub site: u8,
    /// The keys it uses.
    pub keys: Keys,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Replicated objects every site hosts.
    pub objects: usize,
    /// Sites persist to a data directory with `FsyncPolicy::Always`.
    pub durable: bool,
    pub wire: Wire,
    /// At most two, one generator thread each.
    pub conns: &'static [ConnSpec],
    pub pace: Pace,
    /// Share of ops that are reads; the rest are updates.
    pub read_share: f64,
    /// Every connection draws the same key sequence on the same clock,
    /// so each tick is a race between coordinators for one key.
    pub lockstep: bool,
    /// Crash and recover [`FAULT_SITE`] on [`FAULT_SCHEDULE`].
    pub fault: bool,
    /// Latency limit behind `tight_slo_ok_share`: two to four times the
    /// workload's recorded median, so that the share sits near 1 (near
    /// the healthy share on the fault workload) and a regression that
    /// doubles latency moves it, while the run-to-run drift of a
    /// sub-millisecond median on a shared two-core VM does not.
    pub tight_slo_ms: f64,
    /// A run measures this many independent segments, each on a freshly
    /// booted cluster, and reports the median across them: a cluster
    /// lifetime is fast or slow as a whole (thread placement, the
    /// reactor race), so one long window would report the luck of one
    /// boot. The fault workload takes fewer, longer segments so that
    /// each still holds enough ops due while the site is down.
    pub segments: usize,
}

impl Workload {
    /// The keys connection `conn` draws from, ascending.
    pub fn keys_of(&self, conn: usize) -> Vec<u32> {
        (0..self.objects as u32)
            .filter(|k| match self.conns[conn].keys {
                Keys::All => true,
                Keys::Parity(p) => k % 2 == p,
            })
            .collect()
    }
}

const fn conn(site: u8, keys: Keys) -> ConnSpec {
    ConnSpec { site, keys }
}

/// Every workload, in the order a full run executes them. Why each
/// exists is recorded in `BENCHMARK.json` and the README.
pub const WORKLOADS: [Workload; 5] = [
    // One key, one coordinator, bursts of 16: the first op of a burst
    // finds the object idle and runs alone, the other 15 queue behind
    // its lock and are sealed by one batched round.
    Workload {
        name: "hot-key",
        objects: 1,
        durable: false,
        wire: Wire::Binary,
        conns: &[conn(0, Keys::All)],
        pace: Pace {
            ticks_per_s: 25.0,
            burst: 16,
            cap: 64,
        },
        read_share: 0.0,
        lockstep: false,
        fault: false,
        tight_slo_ms: 2.0,
        segments: 12,
    },
    // 128 keys, fsync-always WAL, two coordinators on disjoint keys.
    Workload {
        name: "spread-durable",
        objects: 128,
        durable: true,
        wire: Wire::Binary,
        conns: &[conn(0, Keys::Parity(0)), conn(1, Keys::Parity(1))],
        pace: Pace {
            ticks_per_s: 200.0,
            burst: 1,
            cap: 16,
        },
        read_share: 0.1,
        lockstep: false,
        fault: false,
        tight_slo_ms: 4.0,
        segments: 12,
    },
    // Two coordinators update the same key at the same instant.
    Workload {
        name: "cross-site",
        objects: 4,
        durable: false,
        wire: Wire::Binary,
        conns: &[conn(0, Keys::All), conn(1, Keys::All)],
        pace: Pace {
            ticks_per_s: 100.0,
            burst: 1,
            cap: 8,
        },
        read_share: 0.0,
        lockstep: true,
        fault: false,
        tight_slo_ms: 3.0,
        segments: 12,
    },
    // What an SDK or proxy sees: the HTTP front door at 400 ops/s.
    Workload {
        name: "http-paced",
        objects: 128,
        durable: false,
        wire: Wire::Http,
        conns: &[conn(0, Keys::Parity(0)), conn(1, Keys::Parity(1))],
        pace: Pace {
            ticks_per_s: 200.0,
            burst: 1,
            cap: 1,
        },
        read_share: 0.1,
        lockstep: false,
        fault: false,
        tight_slo_ms: 2.0,
        segments: 12,
    },
    // The paper's scenario: requests keep coming while a site is down.
    Workload {
        name: "site-down",
        objects: 128,
        durable: false,
        wire: Wire::Binary,
        conns: &[conn(0, Keys::All)],
        pace: Pace {
            ticks_per_s: 200.0,
            burst: 1,
            cap: 64,
        },
        read_share: 0.0,
        lockstep: false,
        fault: true,
        tight_slo_ms: 1.5,
        segments: 6,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the generator's only source of randomness. Seeded from
/// `--seed`, the segment and the connection, so a seed fixes every op
/// stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the bias of the modulo is below 2^-32 for the
    /// key counts used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}
