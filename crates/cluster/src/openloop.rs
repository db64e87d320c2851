//! Open-loop HTTP load generation against the front door.
//!
//! The closed-loop generator ([`crate::LoadGen`]) self-paces: each
//! worker waits for a reply before offering the next request, so
//! offered load collapses to whatever the cluster sustains and queueing
//! delay hides from the latency numbers (coordinated omission). This
//! driver is the complement: arrivals are scheduled on a fixed clock
//! (`rate` per second, round-robin across the target nodes) regardless
//! of how the cluster is doing, each arrival opens its **own**
//! connection (thousands concurrently), and latency is measured from
//! the *intended* arrival instant — a stalled cluster shows up as
//! latency, not as politely reduced load.
//!
//! The driver is a single thread multiplexing every in-flight
//! connection on one [`Poller`] — the same readiness machinery the
//! server side runs, exercised from the client side. When the number of
//! concurrently open connections reaches `connections`, further
//! arrivals are *shed* and counted (`shed`), not silently skipped and
//! not allowed to queue without bound.

use crate::loadgen::{sample_key, zipf_cdf, Histogram, KeyDist, LatencyStats};
use dynvote_core::ConfigError;
use dynvote_net::{sys, Event, Events, Interest, Poller, ResponseParser, Token};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Cap on the `connections` knob (and so on driver memory).
pub const MAX_OPEN_CONNS: usize = 16 * 1024;

/// How long after the offered-load window the driver keeps draining
/// in-flight connections before abandoning them.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Open-loop driver parameters.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Target arrival rate, ops per second, paced on a fixed clock.
    pub rate: f64,
    /// How long to keep offering arrivals.
    pub duration: Duration,
    /// Concurrent-connection bound; arrivals beyond it are shed (and
    /// counted).
    pub connections: usize,
    /// Fraction of arrivals that are read-only (`0..=1`).
    pub read_fraction: f64,
    /// Number of distinct objects the workload targets (`>= 1`); each
    /// arrival carries a key in `0..keys`.
    pub keys: u32,
    /// How keys are drawn.
    pub key_dist: KeyDist,
    /// Seed for the operation-mix RNG.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            rate: 500.0,
            duration: Duration::from_secs(5),
            connections: 2048,
            read_fraction: 0.1,
            keys: 1,
            key_dist: KeyDist::Uniform,
            seed: 7,
        }
    }
}

impl OpenLoopConfig {
    /// Reject absurd parameters through the shared typed error path.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.rate.is_finite() || self.rate <= 0.0 {
            return Err(ConfigError::NotPositive {
                field: "rate",
                value: self.rate,
            });
        }
        if self.connections == 0 || self.connections > MAX_OPEN_CONNS {
            return Err(ConfigError::OutOfRange {
                field: "connections",
                value: self.connections as u64,
                lo: 1,
                hi: MAX_OPEN_CONNS as u64,
            });
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

/// Machine-readable summary of one open-loop run.
#[derive(Debug, Clone, Serialize)]
pub struct OpenLoopReport {
    /// Replica-control algorithm under test (caller-supplied context).
    pub algorithm: String,
    /// Cluster size (caller-supplied context).
    pub sites: usize,
    /// Configured arrival rate, ops per second.
    pub target_rate: f64,
    /// Wall-clock measurement window in seconds (offered-load window
    /// only; the drain grace is excluded).
    pub duration_secs: f64,
    /// Arrivals the clock scheduled.
    pub offered: u64,
    /// Arrivals shed at the concurrency bound.
    pub shed: u64,
    /// Connections that failed to establish or died mid-exchange.
    pub connect_errors: u64,
    /// In-flight exchanges abandoned when the drain grace expired.
    pub abandoned: u64,
    /// Updates that committed (HTTP 200, committed outcome).
    pub committed: u64,
    /// Reads served (HTTP 200, read_served outcome).
    pub reads_served: u64,
    /// Refused: partition not distinguished (409 rejected).
    pub rejected: u64,
    /// Refused: lost a lock race to a rival coordinator (409
    /// contended).
    pub contended: u64,
    /// Aborted: protocol deadline expired (504).
    pub timed_out: u64,
    /// Refused: site crashed (503).
    pub down: u64,
    /// Refused at admission: 429 with Retry-After.
    pub rejected_429: u64,
    /// Any other HTTP outcome (4xx/5xx the classifier does not know).
    pub http_errors: u64,
    /// Number of distinct keys the workload targeted.
    pub keys: u32,
    /// How keys were drawn (`"uniform"` or `"zipf"`).
    pub key_dist: String,
    /// Committed updates per shard, indexed by key; sums to
    /// [`OpenLoopReport::committed`] (the aggregate).
    pub per_shard_commits: Vec<u64>,
    /// Committed updates per second of offered-load window.
    pub throughput_per_sec: f64,
    /// Commit-latency percentiles, measured from the intended arrival
    /// instant (coordinated-omission-free).
    pub update_latency: LatencyStats,
    /// The underlying commit-latency histogram.
    pub histogram: Histogram,
    /// Peak concurrently open connections observed.
    pub peak_open: u64,
}

impl OpenLoopReport {
    /// Serialize as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

struct OpenConn {
    stream: TcpStream,
    parser: ResponseParser,
    out: Vec<u8>,
    connected: bool,
    /// The instant the arrival *should* have happened — the latency
    /// origin.
    intended: Instant,
    is_update: bool,
    key: u32,
}

#[derive(Default)]
struct Tally {
    per_shard_commits: Vec<u64>,
    shed: u64,
    connect_errors: u64,
    abandoned: u64,
    committed: u64,
    reads_served: u64,
    rejected: u64,
    contended: u64,
    timed_out: u64,
    down: u64,
    rejected_429: u64,
    http_errors: u64,
    latency: Histogram,
    peak_open: u64,
}

/// The open-loop driver. Stateless: [`OpenLoop::run`] does everything.
pub struct OpenLoop;

impl OpenLoop {
    /// Offer `config.rate` arrivals per second against `targets`
    /// (round-robin) for `config.duration`, then drain. Context fields
    /// of the returned report (`algorithm`, `sites`) are left for the
    /// caller to fill.
    pub fn run(config: &OpenLoopConfig, targets: &[SocketAddr]) -> io::Result<OpenLoopReport> {
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        if targets.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "open-loop run needs at least one target address",
            ));
        }
        let poller = Poller::new()?;
        let mut events = Events::with_capacity(1024);
        let mut conns: Vec<Option<OpenConn>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut open = 0usize;
        let mut tally = Tally {
            per_shard_commits: vec![0; config.keys as usize],
            ..Tally::default()
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let cdf = match config.key_dist {
            KeyDist::Uniform => None,
            KeyDist::Zipf => Some(zipf_cdf(config.keys)),
        };

        let start = Instant::now();
        let end = start + config.duration;
        let interval = Duration::from_secs_f64(1.0 / config.rate);
        let mut offered = 0u64;

        loop {
            let now = Instant::now();
            // Schedule every arrival whose intended instant has passed.
            while now >= start + interval.mul_f64(offered as f64) {
                let intended = start + interval.mul_f64(offered as f64);
                if intended >= end {
                    break;
                }
                offered += 1;
                if open >= config.connections {
                    tally.shed += 1;
                    continue;
                }
                let target = targets[(offered as usize - 1) % targets.len()];
                let key = sample_key(&mut rng, config.keys, cdf.as_deref());
                let is_update = !(config.read_fraction > 0.0 && rng.gen_bool(config.read_fraction));
                match start_request(
                    &poller, &mut conns, &mut free, target, intended, is_update, key,
                ) {
                    Ok(()) => {
                        open += 1;
                        tally.peak_open = tally.peak_open.max(open as u64);
                    }
                    Err(_) => tally.connect_errors += 1,
                }
            }

            let now = Instant::now();
            let offering = now < end;
            if !offering && open == 0 {
                break;
            }
            if !offering && now >= end + DRAIN_GRACE {
                tally.abandoned += open as u64;
                break;
            }
            let next_arrival = start + interval.mul_f64(offered as f64);
            let wake = if offering {
                next_arrival.min(end + DRAIN_GRACE)
            } else {
                end + DRAIN_GRACE
            };
            let timeout = wake
                .saturating_duration_since(now)
                .max(Duration::from_micros(100));
            poller.wait(&mut events, Some(timeout))?;
            for ev in events.iter() {
                let Token(slot) = ev.token();
                if let Some(done) = step_conn(&poller, &mut conns, slot, &ev, &mut tally) {
                    if done {
                        conns[slot] = None;
                        free.push(slot);
                        open -= 1;
                    }
                }
            }
        }

        let window = config.duration.as_secs_f64();
        Ok(OpenLoopReport {
            algorithm: String::new(),
            sites: 0,
            target_rate: config.rate,
            duration_secs: window,
            offered,
            shed: tally.shed,
            connect_errors: tally.connect_errors,
            abandoned: tally.abandoned,
            committed: tally.committed,
            reads_served: tally.reads_served,
            rejected: tally.rejected,
            contended: tally.contended,
            timed_out: tally.timed_out,
            down: tally.down,
            rejected_429: tally.rejected_429,
            http_errors: tally.http_errors,
            keys: config.keys,
            key_dist: config.key_dist.to_string(),
            per_shard_commits: tally.per_shard_commits,
            throughput_per_sec: tally.committed as f64 / window.max(f64::EPSILON),
            update_latency: LatencyStats {
                p50_ms: tally.latency.quantile_ms(0.50),
                p95_ms: tally.latency.quantile_ms(0.95),
                p99_ms: tally.latency.quantile_ms(0.99),
                max_ms: tally.latency.max_ms(),
            },
            histogram: tally.latency,
            peak_open: tally.peak_open,
        })
    }
}

/// Open a nonblocking connection and stage one `POST /v1/op`. A zero
/// key keeps the body keyless — byte-identical to the single-object
/// wire format.
fn start_request(
    poller: &Poller,
    conns: &mut Vec<Option<OpenConn>>,
    free: &mut Vec<usize>,
    target: SocketAddr,
    intended: Instant,
    is_update: bool,
    key: u32,
) -> io::Result<()> {
    let (fd, connected) = sys::connect_nonblocking(&target)?;
    let stream = TcpStream::from(fd);
    let _ = stream.set_nodelay(true);
    let verb = if is_update { "update" } else { "read" };
    let body = if key == 0 {
        format!("{{\"op\":\"{verb}\"}}")
    } else {
        format!("{{\"op\":\"{verb}\",\"key\":{key}}}")
    };
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(b"POST /v1/op HTTP/1.1\r\nhost: dynvote\r\ncontent-length: ");
    out.extend_from_slice(body.len().to_string().as_bytes());
    out.extend_from_slice(b"\r\nconnection: close\r\n\r\n");
    out.extend_from_slice(body.as_bytes());
    let conn = OpenConn {
        stream,
        parser: ResponseParser::new(),
        out,
        connected,
        intended,
        is_update,
        key,
    };
    let slot = match free.pop() {
        Some(slot) => {
            conns[slot] = Some(conn);
            slot
        }
        None => {
            conns.push(Some(conn));
            conns.len() - 1
        }
    };
    let conn = conns[slot].as_ref().expect("just stored");
    // Until connected, completion surfaces as writability; afterwards
    // we want both directions (write the request, read the response).
    poller.register(&conn.stream, Token(slot), Interest::BOTH)?;
    Ok(())
}

/// Advance one connection on readiness. `Some(true)` means the
/// exchange finished (or died) and the slot must be reclaimed; `None`
/// means the slot was already empty.
fn step_conn(
    _poller: &Poller,
    conns: &mut [Option<OpenConn>],
    slot: usize,
    ev: &Event,
    tally: &mut Tally,
) -> Option<bool> {
    let conn = conns.get_mut(slot)?.as_mut()?;
    if !conn.connected {
        if !ev.is_writable() && !ev.is_error() {
            return Some(false);
        }
        match conn.stream.take_error() {
            Ok(None) => conn.connected = true,
            _ => {
                tally.connect_errors += 1;
                return Some(true);
            }
        }
    }
    // Write whatever is left of the request.
    while !conn.out.is_empty() {
        match conn.stream.write(&conn.out) {
            Ok(0) => {
                tally.connect_errors += 1;
                return Some(true);
            }
            Ok(n) => {
                conn.out.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                tally.connect_errors += 1;
                return Some(true);
            }
        }
    }
    // Read until the response parses, the peer hangs up, or WouldBlock.
    let mut buf = [0u8; 4096];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                // EOF before a complete response.
                tally.connect_errors += 1;
                return Some(true);
            }
            Ok(n) => {
                conn.parser.extend(&buf[..n]);
                match conn.parser.next_response() {
                    Ok(Some(response)) => {
                        classify(response.status, &response.body, conn, tally);
                        return Some(true);
                    }
                    Ok(None) => continue,
                    Err(_) => {
                        tally.http_errors += 1;
                        return Some(true);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Some(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                tally.connect_errors += 1;
                return Some(true);
            }
        }
    }
}

fn classify(status: u16, body: &[u8], conn: &OpenConn, tally: &mut Tally) {
    match status {
        200 => {
            if conn.is_update {
                tally.committed += 1;
                if let Some(shard) = tally.per_shard_commits.get_mut(conn.key as usize) {
                    *shard += 1;
                }
                let ns = u64::try_from(conn.intended.elapsed().as_nanos()).unwrap_or(u64::MAX);
                tally.latency.record(ns);
            } else {
                tally.reads_served += 1;
            }
        }
        409 => {
            if body.windows(9).any(|w| w == b"contended") {
                tally.contended += 1;
            } else {
                tally.rejected += 1;
            }
        }
        429 => tally.rejected_429 += 1,
        503 => tally.down += 1,
        504 => tally.timed_out += 1,
        _ => tally.http_errors += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_rejects_absurd_values() {
        let bad_rate = OpenLoopConfig {
            rate: 0.0,
            ..OpenLoopConfig::default()
        };
        assert!(matches!(
            bad_rate.validate(),
            Err(ConfigError::NotPositive { field: "rate", .. })
        ));
        let bad_conns = OpenLoopConfig {
            connections: 0,
            ..OpenLoopConfig::default()
        };
        assert!(matches!(
            bad_conns.validate(),
            Err(ConfigError::OutOfRange {
                field: "connections",
                ..
            })
        ));
        let bad_frac = OpenLoopConfig {
            read_fraction: 2.0,
            ..OpenLoopConfig::default()
        };
        assert!(matches!(
            bad_frac.validate(),
            Err(ConfigError::NotProbability { .. })
        ));
        assert!(OpenLoopConfig::default().validate().is_ok());
    }

    #[test]
    fn run_requires_targets() {
        let err = OpenLoop::run(&OpenLoopConfig::default(), &[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
