//! Load generation and measurement: one driver for every client.
//!
//! [`LoadGen::run`] gives each caller-built [`WorkloadTarget`] (an
//! in-process, binary TCP or HTTP client bound to some node) its own
//! worker thread, which issues one request at a time, so the target
//! count bounds the ops in flight. Without a rate the workers issue
//! back to back — closed loop: offered load self-paces to what the
//! cluster sustains, and latency runs from send. With a rate, arrival
//! `i` is due at `start + i/rate` on a fixed clock; a free worker takes
//! the next due arrival from a shared ticket, and latency runs from the
//! arrival's *intended* instant, so a stalled cluster shows up as
//! latency instead of as politely reduced load (no coordinated
//! omission). Arrivals no worker took before the window closed are
//! counted as shed.
//!
//! Commit latencies land in a log-bucketed [`Histogram`] (64
//! power-of-two nanosecond buckets: the full range from
//! sub-microsecond channel hops to multi-second stalls in 64 counters),
//! and the run is summarized as a machine-readable [`LoadReport`].

use crate::cluster::{HttpClient, LocalClient, TcpClient};
use crate::wire::{ClientOp, ClientReply};
use dynvote_core::ConfigError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Number, Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Anything a load-generation worker can aim at. `None` means the
/// request could not even be delivered (transport failure) — distinct
/// from the protocol refusing it.
pub trait WorkloadTarget: Send {
    /// Issue one operation and wait for the outcome.
    fn submit(&mut self, op: &ClientOp) -> Option<ClientReply>;
}

impl WorkloadTarget for LocalClient {
    fn submit(&mut self, op: &ClientOp) -> Option<ClientReply> {
        self.request(op.clone()).ok()
    }
}

impl WorkloadTarget for TcpClient {
    fn submit(&mut self, op: &ClientOp) -> Option<ClientReply> {
        self.request(op).ok()
    }
}

impl WorkloadTarget for HttpClient {
    fn submit(&mut self, op: &ClientOp) -> Option<ClientReply> {
        self.request(op).ok()
    }
}

/// Most targets (and so worker threads) one run may drive, enforced by
/// [`check_concurrency`].
pub const MAX_CONCURRENCY: usize = 1024;

/// Reject a worker count outside `1..=MAX_CONCURRENCY`. [`LoadGen::run`]
/// applies it to its targets; a caller can apply it before building
/// any.
pub fn check_concurrency(workers: usize) -> Result<(), ConfigError> {
    if workers == 0 || workers > MAX_CONCURRENCY {
        return Err(ConfigError::OutOfRange {
            field: "concurrency",
            value: workers as u64,
            lo: 1,
            hi: MAX_CONCURRENCY as u64,
        });
    }
    Ok(())
}

/// How workload keys are drawn across the object space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyDist {
    /// Every key equally likely.
    #[default]
    Uniform,
    /// Zipf with exponent 1: key `k` (1-based rank) drawn with
    /// probability proportional to `1/k` — a few hot shards, a long
    /// cold tail.
    Zipf,
}

impl std::str::FromStr for KeyDist {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, ConfigError> {
        match s {
            "uniform" => Ok(KeyDist::Uniform),
            "zipf" => Ok(KeyDist::Zipf),
            _ => Err(ConfigError::Requires {
                field: "key-dist",
                requires: "uniform or zipf",
            }),
        }
    }
}

impl std::fmt::Display for KeyDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyDist::Uniform => write!(f, "uniform"),
            KeyDist::Zipf => write!(f, "zipf"),
        }
    }
}

/// The Zipf(1) cumulative distribution over `n` keys, normalized to
/// `[0, 1]`; sampling is a binary search ([`sample_key`]). Std-only —
/// no external distribution crates in this container.
pub(crate) fn zipf_cdf(n: u32) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n as usize);
    let mut acc = 0.0f64;
    for k in 1..=n {
        acc += 1.0 / f64::from(k);
        cdf.push(acc);
    }
    for v in &mut cdf {
        *v /= acc;
    }
    cdf
}

/// Draw one key: uniform over `0..keys`, or by binary search over the
/// precomputed Zipf CDF (`cdf` is `Some` iff the distribution is Zipf).
pub(crate) fn sample_key(rng: &mut StdRng, keys: u32, cdf: Option<&[f64]>) -> u32 {
    match cdf {
        None => rng.gen_range(0..keys),
        Some(cdf) => {
            let u: f64 = rng.gen();
            cdf.partition_point(|&c| c < u).min(keys as usize - 1) as u32
        }
    }
}

/// Load-generation parameters. The worker count is not among them: it
/// is the number of targets handed to [`LoadGen::run`].
#[derive(Debug, Clone, Copy)]
pub struct LoadGenConfig {
    /// How long to keep offering load.
    pub duration: Duration,
    /// Arrivals per second on a fixed clock, or `None` for closed loop
    /// (every worker issues back to back).
    pub rate: Option<f64>,
    /// Fraction of requests that are read-only (`0..=1`).
    pub read_fraction: f64,
    /// Number of distinct objects the workload targets (`>= 1`); each
    /// request carries a key in `0..keys`.
    pub keys: u32,
    /// How keys are drawn.
    pub key_dist: KeyDist,
    /// Seed for the per-worker operation-mix RNGs.
    pub seed: u64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            duration: Duration::from_secs(5),
            rate: None,
            read_fraction: 0.1,
            keys: 1,
            key_dist: KeyDist::Uniform,
            seed: 7,
        }
    }
}

impl LoadGenConfig {
    /// Reject absurd parameters through the shared typed error path.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(rate) = self.rate {
            if !rate.is_finite() || rate <= 0.0 {
                return Err(ConfigError::NotPositive {
                    field: "rate",
                    value: rate,
                });
            }
        }
        if !(0.0..=1.0).contains(&self.read_fraction) || !self.read_fraction.is_finite() {
            return Err(ConfigError::NotProbability {
                field: "read_fraction",
                value: self.read_fraction,
            });
        }
        if self.duration.is_zero() {
            return Err(ConfigError::NotPositive {
                field: "duration",
                value: 0.0,
            });
        }
        if self.keys == 0 {
            return Err(ConfigError::OutOfRange {
                field: "keys",
                value: 0,
                lo: 1,
                hi: u64::from(u32::MAX),
            });
        }
        Ok(())
    }
}

/// A log-bucketed latency histogram: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
    max_ns: u64,
}

/// JSON form: the 64 buckets are run-length encoded as flat
/// `[value, run, value, run, ...]` pairs — most buckets of a latency
/// histogram are zero, so a report shrinks from 64 lines of zeros to a
/// handful of pairs.
impl Serialize for Histogram {
    fn serialize(&self) -> Value {
        let mut rle = Vec::new();
        let mut i = 0;
        while i < self.buckets.len() {
            let value = self.buckets[i];
            let mut run = 1usize;
            while i + run < self.buckets.len() && self.buckets[i + run] == value {
                run += 1;
            }
            rle.push(Value::Number(Number::U64(value)));
            rle.push(Value::Number(Number::U64(run as u64)));
            i += run;
        }
        Value::Object(vec![
            ("buckets_rle".to_owned(), Value::Array(rle)),
            ("total".to_owned(), self.total.serialize()),
            ("max_ns".to_owned(), self.max_ns.serialize()),
        ])
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; 64],
            total: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The raw bucket counts: bucket `i` holds samples in
    /// `[2^i, 2^(i+1))` nanoseconds. Used by the `/metrics` exposition.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        let idx = 63 - (ns | 1).leading_zeros() as usize;
        self.buckets[idx] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in milliseconds, estimated as the upper bound
    /// of the bucket holding the `ceil(q * total)`-th sample (a
    /// conservative, at-most-2x estimate by construction). Zero when
    /// empty.
    #[must_use]
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let upper_ns = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                return upper_ns.min(self.max_ns.max(1)) as f64 / 1e6;
            }
        }
        self.max_ns as f64 / 1e6
    }

    /// The largest sample, in milliseconds.
    #[must_use]
    pub fn max_ms(&self) -> f64 {
        self.max_ns as f64 / 1e6
    }
}

/// Latency percentiles of committed updates, in milliseconds.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencyStats {
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
}

/// One per-site, per-kind protocol-event counter in a [`LoadReport`].
#[derive(Debug, Clone, Serialize)]
pub struct EventCountEntry {
    /// Site index.
    pub site: usize,
    /// Event kind name (snake_case, see `dynvote_protocol::EventKind`).
    pub event: String,
    /// Occurrences observed at that site.
    pub count: u64,
}

/// One per-site network counter in a [`LoadReport`]: the reactor's
/// [`crate::NetStats`] tallies (dial failures, decode errors,
/// backpressure drops, …) gathered after the run via
/// `ClientOp::NetStats`.
#[derive(Debug, Clone, Serialize)]
pub struct NetCounterEntry {
    /// Site index.
    pub site: usize,
    /// Counter name (see [`crate::NetStats::NAMES`]).
    pub counter: String,
    /// Value observed at that site.
    pub count: u64,
}

/// One per-site node counter in a [`LoadReport`]: kernel steps, merge
/// barriers, the pipelining queue peak and batch sizes (see
/// [`crate::ShardStats`]), gathered after the run via
/// `ClientOp::ShardStats`.
#[derive(Debug, Clone, Serialize)]
pub struct ShardCounterEntry {
    /// Site index.
    pub site: usize,
    /// Counter name (see [`crate::ShardStats::names_for`]).
    pub counter: String,
    /// Value observed at that site.
    pub count: u64,
}

/// Machine-readable summary of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Replica-control algorithm under test (caller-supplied context).
    pub algorithm: String,
    /// Transport under test (caller-supplied context).
    pub transport: String,
    /// Cluster size (caller-supplied context).
    pub sites: usize,
    /// Worker threads, one per target: the bound on ops in flight.
    pub workers: usize,
    /// Wall-clock measurement window in seconds.
    pub duration_secs: f64,
    /// Arrivals the clock scheduled in the window (paced), or ops
    /// issued (closed loop).
    pub offered: u64,
    /// Ops sent to a target; every one gets exactly one outcome below.
    pub issued: u64,
    /// Scheduled arrivals no worker took before the window closed
    /// (`offered - issued`; always 0 in closed loop).
    pub shed: u64,
    /// Updates that committed.
    pub committed: u64,
    /// Reads served from a distinguished partition.
    pub reads_served: u64,
    /// Aborted: partition not distinguished — it may not write.
    pub rejected: u64,
    /// Aborted: the round lost a lock race to a rival coordinator.
    pub contended: u64,
    /// Refused: the key names no hosted object (never worth resending).
    pub unknown_key: u64,
    /// Aborted: protocol deadline expired.
    pub timed_out: u64,
    /// Refused: target site was crashed.
    pub down: u64,
    /// Refused at admission: the object's pipeline queue was full.
    pub overloaded: u64,
    /// Requests that could not be delivered at all.
    pub transport_errors: u64,
    /// Number of distinct keys the workload targeted.
    pub keys: u32,
    /// How keys were drawn (`"uniform"` or `"zipf"`).
    pub key_dist: String,
    /// Committed updates per shard, indexed by key; sums to
    /// [`LoadReport::committed`] (the aggregate).
    pub per_shard_commits: Vec<u64>,
    /// Committed updates per second of wall-clock time.
    pub throughput_per_sec: f64,
    /// Commit-latency percentiles, from send (closed loop) or from the
    /// intended arrival instant (paced).
    pub update_latency: LatencyStats,
    /// The underlying commit-latency histogram.
    pub histogram: Histogram,
    /// Per-site protocol-event tallies gathered after the run via
    /// `ClientOp::Events` (zero-count entries omitted; empty when the
    /// caller does not collect them).
    pub events: Vec<EventCountEntry>,
    /// Per-site network counters gathered after the run via
    /// `ClientOp::NetStats` (zero-count entries omitted; empty under
    /// the channel transport or when the caller does not collect them).
    pub net: Vec<NetCounterEntry>,
    /// Per-site node counters gathered after the run via
    /// `ClientOp::ShardStats` (zero-count entries omitted; empty when
    /// the caller does not collect them).
    pub shard: Vec<ShardCounterEntry>,
}

impl LoadReport {
    /// Serialize as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// Hand-written so the optional sections stay out of the output: an
/// empty `events`/`net`/`shard` array (the common case — most callers
/// don't collect them) is omitted rather than serialized as `[]`.
impl Serialize for LoadReport {
    fn serialize(&self) -> Value {
        let mut fields = vec![
            ("algorithm".to_owned(), self.algorithm.serialize()),
            ("transport".to_owned(), self.transport.serialize()),
            ("sites".to_owned(), self.sites.serialize()),
            ("workers".to_owned(), self.workers.serialize()),
            ("duration_secs".to_owned(), self.duration_secs.serialize()),
            ("offered".to_owned(), self.offered.serialize()),
            ("issued".to_owned(), self.issued.serialize()),
            ("shed".to_owned(), self.shed.serialize()),
            ("committed".to_owned(), self.committed.serialize()),
            ("reads_served".to_owned(), self.reads_served.serialize()),
            ("rejected".to_owned(), self.rejected.serialize()),
            ("contended".to_owned(), self.contended.serialize()),
            ("unknown_key".to_owned(), self.unknown_key.serialize()),
            ("timed_out".to_owned(), self.timed_out.serialize()),
            ("down".to_owned(), self.down.serialize()),
            ("overloaded".to_owned(), self.overloaded.serialize()),
            (
                "transport_errors".to_owned(),
                self.transport_errors.serialize(),
            ),
            ("keys".to_owned(), self.keys.serialize()),
            ("key_dist".to_owned(), self.key_dist.serialize()),
            (
                "per_shard_commits".to_owned(),
                self.per_shard_commits.serialize(),
            ),
            (
                "throughput_per_sec".to_owned(),
                self.throughput_per_sec.serialize(),
            ),
            ("update_latency".to_owned(), self.update_latency.serialize()),
            ("histogram".to_owned(), self.histogram.serialize()),
        ];
        if !self.events.is_empty() {
            fields.push(("events".to_owned(), self.events.serialize()));
        }
        if !self.net.is_empty() {
            fields.push(("net".to_owned(), self.net.serialize()));
        }
        if !self.shard.is_empty() {
            fields.push(("shard".to_owned(), self.shard.serialize()));
        }
        Value::Object(fields)
    }
}

#[derive(Default)]
struct Tally {
    issued: u64,
    committed: u64,
    reads_served: u64,
    rejected: u64,
    contended: u64,
    unknown_key: u64,
    timed_out: u64,
    down: u64,
    overloaded: u64,
    transport_errors: u64,
    per_shard_commits: Vec<u64>,
    latency: Histogram,
}

impl Tally {
    fn with_keys(keys: u32) -> Self {
        Tally {
            per_shard_commits: vec![0; keys as usize],
            ..Tally::default()
        }
    }

    fn merge(&mut self, other: &Tally) {
        self.issued += other.issued;
        self.committed += other.committed;
        self.reads_served += other.reads_served;
        self.rejected += other.rejected;
        self.contended += other.contended;
        self.unknown_key += other.unknown_key;
        self.timed_out += other.timed_out;
        self.down += other.down;
        self.overloaded += other.overloaded;
        self.transport_errors += other.transport_errors;
        for (mine, theirs) in self
            .per_shard_commits
            .iter_mut()
            .zip(&other.per_shard_commits)
        {
            *mine += theirs;
        }
        self.latency.merge(&other.latency);
    }
}

/// When each worker's next op starts, shared by all workers of a run.
struct Clock {
    start: Instant,
    end: Instant,
    /// Paced runs: arrivals per second, the window's arrival count, and
    /// the next arrival no worker has taken yet.
    pace: Option<(f64, u64, AtomicU64)>,
}

impl Clock {
    fn new(config: &LoadGenConfig) -> Self {
        let start = Instant::now();
        Clock {
            start,
            end: start + config.duration,
            pace: config.rate.map(|rate| {
                let offered = (config.duration.as_secs_f64() * rate).ceil() as u64;
                (rate, offered, AtomicU64::new(0))
            }),
        }
    }

    /// The latency origin of a free worker's next op — now (closed
    /// loop), or the intended instant of the next due arrival, slept
    /// until if it lies ahead (paced) — or `None` once the window is
    /// over.
    fn next(&self) -> Option<Instant> {
        let now = Instant::now();
        if now >= self.end {
            return None;
        }
        let Some((rate, offered, ticket)) = &self.pace else {
            return Some(now);
        };
        let i = ticket.fetch_add(1, Ordering::Relaxed);
        if i >= *offered {
            return None;
        }
        let due = self.start + Duration::from_secs_f64(i as f64 / rate);
        thread::sleep(due.saturating_duration_since(Instant::now()));
        Some(due)
    }
}

/// The driver. Stateless: [`LoadGen::run`] does everything.
pub struct LoadGen;

impl LoadGen {
    /// Run one worker per target for `config.duration`, closed loop or
    /// paced per `config.rate`. Fails with a typed error, before any op
    /// is sent, on an absurd config or a target count outside
    /// `1..=MAX_CONCURRENCY`. Context fields of the returned report
    /// (`algorithm`, `transport`, `sites`) are left empty for the
    /// caller to fill.
    pub fn run(
        config: &LoadGenConfig,
        targets: Vec<Box<dyn WorkloadTarget>>,
    ) -> Result<LoadReport, ConfigError> {
        config.validate()?;
        check_concurrency(targets.len())?;
        let workers = targets.len();
        let clock = Clock::new(config);
        let mut tally = Tally::with_keys(config.keys);
        thread::scope(|s| {
            let handles: Vec<_> = targets
                .into_iter()
                .enumerate()
                .map(|(w, target)| {
                    let clock = &clock;
                    thread::Builder::new()
                        .name(format!("dynvote-loadgen-{w}"))
                        .spawn_scoped(s, move || worker_loop(config, w, clock, target))
                        .expect("spawn loadgen worker")
                })
                .collect();
            for handle in handles {
                tally.merge(&handle.join().expect("loadgen worker panicked"));
            }
        });
        let elapsed = clock.start.elapsed().as_secs_f64();
        let offered = clock.pace.map_or(tally.issued, |(_, offered, _)| offered);
        Ok(LoadReport {
            algorithm: String::new(),
            transport: String::new(),
            sites: 0,
            workers,
            duration_secs: elapsed,
            offered,
            issued: tally.issued,
            shed: offered - tally.issued,
            committed: tally.committed,
            reads_served: tally.reads_served,
            rejected: tally.rejected,
            contended: tally.contended,
            unknown_key: tally.unknown_key,
            timed_out: tally.timed_out,
            down: tally.down,
            overloaded: tally.overloaded,
            transport_errors: tally.transport_errors,
            keys: config.keys,
            key_dist: config.key_dist.to_string(),
            per_shard_commits: tally.per_shard_commits,
            throughput_per_sec: tally.committed as f64 / elapsed.max(f64::EPSILON),
            update_latency: LatencyStats {
                p50_ms: tally.latency.quantile_ms(0.50),
                p95_ms: tally.latency.quantile_ms(0.95),
                p99_ms: tally.latency.quantile_ms(0.99),
                max_ms: tally.latency.max_ms(),
            },
            histogram: tally.latency,
            events: Vec::new(),
            net: Vec::new(),
            shard: Vec::new(),
        })
    }
}

fn worker_loop(
    cfg: &LoadGenConfig,
    index: usize,
    clock: &Clock,
    mut target: Box<dyn WorkloadTarget>,
) -> Tally {
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut tally = Tally::with_keys(cfg.keys);
    let cdf = match cfg.key_dist {
        KeyDist::Uniform => None,
        KeyDist::Zipf => Some(zipf_cdf(cfg.keys)),
    };
    while let Some(origin) = clock.next() {
        let key = sample_key(&mut rng, cfg.keys, cdf.as_deref());
        let op = if cfg.read_fraction > 0.0 && rng.gen_bool(cfg.read_fraction) {
            ClientOp::Read { key }
        } else {
            ClientOp::Update { key }
        };
        tally.issued += 1;
        let reply = target.submit(&op);
        let ns = origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        match reply {
            Some(ClientReply::Committed { .. }) => {
                tally.committed += 1;
                tally.per_shard_commits[key as usize] += 1;
                tally.latency.record(ns);
            }
            Some(ClientReply::ReadServed) => tally.reads_served += 1,
            Some(ClientReply::Rejected) => tally.rejected += 1,
            Some(ClientReply::Contended) => tally.contended += 1,
            Some(ClientReply::UnknownKey) => tally.unknown_key += 1,
            Some(ClientReply::TimedOut) => tally.timed_out += 1,
            Some(ClientReply::Down) => {
                tally.down += 1;
                // The target site is crashed; don't spin on it.
                thread::sleep(Duration::from_millis(2));
            }
            Some(ClientReply::Overloaded) => {
                tally.overloaded += 1;
                // The object's queue or the front door's admission
                // budget is full; back off before retrying.
                thread::sleep(Duration::from_millis(1));
            }
            Some(_) => tally.transport_errors += 1,
            None => {
                tally.transport_errors += 1;
                thread::sleep(Duration::from_millis(2));
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_brackets_quantiles_within_a_factor_of_two() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(1_000_000); // 1 ms
        }
        for _ in 0..10 {
            h.record(64_000_000); // 64 ms
        }
        let p50 = h.quantile_ms(0.50);
        assert!((1.0..=2.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_ms(0.99);
        assert!((64.0..=128.0).contains(&p99), "p99 = {p99}");
        assert_eq!(h.max_ms(), 64.0);
        assert_eq!(h.total(), 100);
    }

    #[test]
    fn histogram_merge_is_additive_and_empty_is_zero() {
        let empty = Histogram::default();
        assert_eq!(empty.quantile_ms(0.99), 0.0);
        let mut a = Histogram::default();
        a.record(500);
        let mut b = Histogram::default();
        b.record(2_000_000_000);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.max_ms(), 2000.0);
    }

    #[test]
    fn histogram_json_is_rle_and_round_trips() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        h.record(1_100_000);
        h.record(64_000_000);
        let json = serde_json::to_string(&h).unwrap();
        // 64 buckets with two runs of samples compress to a handful of
        // value/run pairs, far fewer than 64 numbers.
        let value: Value = serde_json::from_str(&json).unwrap();
        let rle = value["buckets_rle"].as_array().unwrap();
        assert!(rle.len() < 16, "rle has {} entries", rle.len());
        // Expanding the pairs gives the buckets back.
        let pairs: Vec<u64> = rle.iter().map(|v| v.as_u64().unwrap()).collect();
        let expanded: Vec<u64> = pairs
            .chunks(2)
            .flat_map(|pair| std::iter::repeat(pair[0]).take(pair[1] as usize))
            .collect();
        assert_eq!(expanded, h.buckets);
        assert_eq!(value["total"].as_u64(), Some(3));
        assert_eq!(value["max_ns"].as_u64(), Some(64_000_000));
    }

    /// Answers every op with a commit after a fixed delay.
    struct Fixed(Duration);

    impl WorkloadTarget for Fixed {
        fn submit(&mut self, _: &ClientOp) -> Option<ClientReply> {
            thread::sleep(self.0);
            Some(ClientReply::Committed { version: 1 })
        }
    }

    fn fixed(count: usize, delay: Duration) -> Vec<Box<dyn WorkloadTarget>> {
        (0..count)
            .map(|_| Box::new(Fixed(delay)) as Box<dyn WorkloadTarget>)
            .collect()
    }

    #[test]
    fn report_json_omits_empty_sections() {
        let config = LoadGenConfig {
            duration: Duration::from_millis(1),
            ..LoadGenConfig::default()
        };
        let report = LoadGen::run(&config, fixed(1, Duration::ZERO)).unwrap();
        let value: Value = serde_json::from_str(&report.to_json()).unwrap();
        // No collected sections → no keys for them at all.
        for section in ["events", "net", "shard"] {
            assert!(value.get(section).is_none(), "{section}: {value:?}");
        }
        assert_eq!(value["overloaded"].as_u64(), Some(0));
        assert_eq!(value["committed"].as_u64(), Some(report.committed));
        assert!(value["histogram"].get("buckets_rle").is_some());
    }

    #[test]
    fn config_rejects_absurd_values_with_typed_errors() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = LoadGenConfig {
                rate: Some(rate),
                ..LoadGenConfig::default()
            };
            assert!(
                matches!(
                    cfg.validate(),
                    Err(ConfigError::NotPositive { field: "rate", .. })
                ),
                "rate {rate}"
            );
        }
        let cfg = LoadGenConfig {
            read_fraction: 1.5,
            ..LoadGenConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::NotProbability { .. })
        ));
        let cfg = LoadGenConfig {
            duration: Duration::ZERO,
            ..LoadGenConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::NotPositive { .. })
        ));
        let cfg = LoadGenConfig {
            keys: 0,
            ..LoadGenConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange { field: "keys", .. })
        ));
        for workers in [0, MAX_CONCURRENCY + 1] {
            assert!(matches!(
                check_concurrency(workers),
                Err(ConfigError::OutOfRange {
                    field: "concurrency",
                    ..
                })
            ));
        }
        assert!(check_concurrency(MAX_CONCURRENCY).is_ok());
        assert!(LoadGenConfig::default().validate().is_ok());
        let paced = LoadGenConfig {
            rate: Some(500.0),
            ..LoadGenConfig::default()
        };
        assert!(paced.validate().is_ok());
    }

    #[test]
    fn run_rejects_zero_or_too_many_targets() {
        let config = LoadGenConfig::default();
        for count in [0, MAX_CONCURRENCY + 1] {
            assert!(matches!(
                LoadGen::run(&config, fixed(count, Duration::ZERO)),
                Err(ConfigError::OutOfRange {
                    field: "concurrency",
                    ..
                })
            ));
        }
    }

    #[test]
    fn paced_run_sheds_what_a_slow_target_cannot_take() {
        // One 5 ms target cannot keep up with 1000 arrivals/s: it falls
        // behind the clock, its latency counts from each arrival's
        // intended instant, and what it never reached is shed.
        let config = LoadGenConfig {
            duration: Duration::from_millis(200),
            rate: Some(1000.0),
            read_fraction: 0.0,
            ..LoadGenConfig::default()
        };
        let report = LoadGen::run(&config, fixed(1, Duration::from_millis(5))).unwrap();
        assert_eq!(report.offered, 200, "{}", report.to_json());
        assert_eq!(report.issued + report.shed, report.offered);
        assert!(report.shed > 0, "{}", report.to_json());
        assert_eq!(report.committed, report.issued);
        assert!(report.update_latency.p50_ms >= 5.0, "{}", report.to_json());
    }

    #[test]
    fn closed_loop_run_sheds_nothing() {
        let config = LoadGenConfig {
            duration: Duration::from_millis(200),
            read_fraction: 0.0,
            ..LoadGenConfig::default()
        };
        let report = LoadGen::run(&config, fixed(1, Duration::from_millis(5))).unwrap();
        assert_eq!(report.shed, 0);
        assert_eq!(report.offered, report.issued);
        assert!(report.committed > 0, "{}", report.to_json());
    }

    #[test]
    fn key_dist_parses_and_renders_round_trip() {
        assert_eq!("uniform".parse::<KeyDist>().unwrap(), KeyDist::Uniform);
        assert_eq!("zipf".parse::<KeyDist>().unwrap(), KeyDist::Zipf);
        assert!("pareto".parse::<KeyDist>().is_err());
        assert_eq!(KeyDist::Uniform.to_string(), "uniform");
        assert_eq!(KeyDist::Zipf.to_string(), "zipf");
    }

    #[test]
    fn zipf_sampling_is_skewed_toward_low_keys_and_in_range() {
        let keys = 16u32;
        let cdf = zipf_cdf(keys);
        assert_eq!(cdf.len(), keys as usize);
        assert!((cdf[keys as usize - 1] - 1.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = vec![0u64; keys as usize];
        for _ in 0..20_000 {
            let k = sample_key(&mut rng, keys, Some(&cdf));
            assert!(k < keys);
            counts[k as usize] += 1;
        }
        // Zipf(1) over 16 keys gives key 0 ~30% of the mass; the tail
        // key gets ~1.8%. A loose ordering check is deterministic here.
        assert!(counts[0] > counts[7], "head should beat the middle");
        assert!(counts[0] > 4 * counts[15], "head should dwarf the tail");
    }

    #[test]
    fn uniform_sampling_covers_the_key_space() {
        let keys = 8u32;
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = vec![0u64; keys as usize];
        for _ in 0..8_000 {
            let k = sample_key(&mut rng, keys, None);
            assert!(k < keys);
            counts[k as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0));
    }
}
