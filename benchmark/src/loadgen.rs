//! The benchmark's own load generator: one thread per connection, at
//! most two of each, open loop on a fixed clock with several requests
//! in flight per binary connection, and one raw record per op kept in
//! memory.
//!
//! The repository's `LocalClient`, `TcpClient`, `LoadGen` and
//! `OpenLoop` are deliberately not used: they block per op, bucket
//! latency by powers of two, or open a connection per arrival.

use crate::sys;
use crate::workload::{Pace, Rng};
use dynvote_cluster::wire::{self, ClientOp, ClientReply};
use dynvote_net::FrameDecoder;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How one request ended. Ok is matched positively — a committed update
/// or a served read — and **every other reply** is a refusal, tallied
/// under the reply's own name. The generator never names a refusal
/// variant, so the server may add or remove refusal kinds without an
/// edit here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No reply arrived before the drain deadline.
    Unanswered,
    /// The update committed at this version of its key.
    Committed(u64),
    /// The read was served.
    ReadServed,
    /// Any other reply; the index names it in [`FailNames`].
    Failed(u16),
}

impl Outcome {
    pub fn is_ok(self) -> bool {
        matches!(self, Outcome::Committed(_) | Outcome::ReadServed)
    }
}

/// One op as the generator saw it. Times are nanoseconds since the
/// run's epoch; these records are also the spans a traced run writes.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    pub key: u32,
    pub read: bool,
    /// When the op was due: its slot on the fixed clock.
    pub due: u64,
    /// Just before the write that carried it.
    pub sent: u64,
    /// When its final reply had been read; 0 if it never came.
    pub acked: u64,
    /// Requests sent for it: one, plus one per refusal retried.
    pub tries: u8,
    /// How the last try ended.
    pub outcome: Outcome,
}

/// Refusal names seen so far, by first appearance, with how many
/// replies carried each. A name is the reply's `Debug` variant name
/// (binary wire) or its HTTP status.
#[derive(Debug, Default, Clone)]
pub struct FailNames {
    names: Vec<String>,
    counts: Vec<u64>,
    scratch: String,
}

impl FailNames {
    fn intern(&mut self, name: std::fmt::Arguments<'_>) -> Outcome {
        self.scratch.clear();
        let _ = self.scratch.write_fmt(name);
        let end = self
            .scratch
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .unwrap_or(self.scratch.len());
        let name = &self.scratch[..end];
        let index = match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.counts.push(0);
                self.names.len() - 1
            }
        };
        Outcome::Failed(index as u16)
    }

    fn count(&mut self, index: u16) {
        self.counts[index as usize] += 1;
    }

    pub fn name(&self, index: u16) -> &str {
        &self.names[index as usize]
    }

    /// Every refusal name with the number of replies that carried it.
    pub fn tally(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.counts.iter().copied())
    }
}

fn classify_binary(reply: &ClientReply, fails: &mut FailNames) -> Outcome {
    match reply {
        ClientReply::Committed { version } => Outcome::Committed(*version),
        ClientReply::ReadServed => Outcome::ReadServed,
        other => fails.intern(format_args!("{other:?}")),
    }
}

/// A load connection to one site.
pub struct Conn {
    stream: TcpStream,
    /// Requests queued and not yet written.
    out: Vec<u8>,
    scratch: Vec<u8>,
    next_id: u64,
    protocol: Protocol,
}

/// What differs between the two client edges.
enum Protocol {
    /// The binary client framing: replies carry their request's id.
    Binary(FrameDecoder),
    /// `POST /v1/op`, keep-alive.
    Http {
        inbuf: Vec<u8>,
        /// Requests written and not yet answered, oldest first: HTTP
        /// has no request ids, replies come back in order.
        inflight: VecDeque<(u64, bool)>,
    },
}

impl Conn {
    fn open(addr: SocketAddr, protocol: Protocol) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(4096),
            scratch: vec![0; 64 * 1024],
            next_id: 0,
            protocol,
        })
    }

    /// Connect over the binary client framing.
    pub fn binary(addr: SocketAddr) -> io::Result<Conn> {
        let mut conn = Conn::open(addr, Protocol::Binary(FrameDecoder::new(wire::MAX_FRAME)))?;
        conn.stream.write_all(&[wire::HELLO_CLIENT])?;
        Ok(conn)
    }

    /// Connect to the HTTP front door (keep-alive).
    pub fn http(addr: SocketAddr) -> io::Result<Conn> {
        Conn::open(
            addr,
            Protocol::Http {
                inbuf: Vec::with_capacity(4096),
                inflight: VecDeque::new(),
            },
        )
    }

    /// The id the next queued op will carry.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Append one op to the write buffer; returns its id.
    pub fn queue(&mut self, key: u32, read: bool) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        match &mut self.protocol {
            Protocol::Binary(_) => {
                let op = if read {
                    ClientOp::Read { key }
                } else {
                    ClientOp::Update { key }
                };
                wire::encode_frame_into(&mut self.out, |body| {
                    wire::encode_request_into(body, id, &op);
                });
            }
            Protocol::Http { inflight, .. } => {
                write_http_op(&mut self.out, key, read);
                inflight.push_back((id, read));
            }
        }
        id
    }

    /// Write everything queued.
    pub fn flush(&mut self) -> io::Result<()> {
        let result = self.stream.write_all(&self.out);
        self.out.clear();
        result
    }

    /// One `read` (call only when readable), then every complete reply
    /// in the buffer is classified and pushed to `sink` with its id.
    pub fn read_replies(
        &mut self,
        fails: &mut FailNames,
        sink: &mut Vec<(u64, Outcome)>,
    ) -> io::Result<()> {
        let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let n = read_some(&mut self.stream, &mut self.scratch)?;
        let bytes = &self.scratch[..n];
        match &mut self.protocol {
            Protocol::Binary(decoder) => {
                decoder.extend(bytes);
                while let Some(body) = decoder.next_frame().map_err(|e| invalid(e.to_string()))? {
                    let (id, reply) =
                        wire::decode_reply(body).map_err(|e| invalid(e.to_string()))?;
                    sink.push((id, classify_binary(&reply, fails)));
                }
            }
            Protocol::Http { inbuf, inflight } => {
                inbuf.extend_from_slice(bytes);
                while let Some((status, body, used)) = split_http_response(inbuf)? {
                    let (id, read) = inflight
                        .pop_front()
                        .ok_or_else(|| invalid("unsolicited HTTP response".to_string()))?;
                    let outcome = match (status, read, json_u64(body, "\"version\":")) {
                        (200, false, Some(version)) => Outcome::Committed(version),
                        (200, true, _) => Outcome::ReadServed,
                        _ => fails.intern(format_args!("{status}")),
                    };
                    sink.push((id, outcome));
                    inbuf.drain(..used);
                }
            }
        }
        Ok(())
    }

    /// Block until a reply can be read or `timeout` passes.
    pub fn wait_readable(&self, timeout: Duration) -> bool {
        sys::wait_readable(self.stream.as_raw_fd(), timeout)
    }

    /// Send one op and wait for its reply: set-up, probes and the
    /// one-op-in-flight ladder rungs. While none arrives the site is
    /// nudged with a throwaway connection every 20 ms, so that a reactor
    /// that has lost its wake-up (see the README) still writes the reply,
    /// late; no reply within two seconds is [`Outcome::Unanswered`].
    pub fn request(&mut self, key: u32, read: bool, fails: &mut FailNames) -> io::Result<Outcome> {
        let id = self.queue(key, read);
        self.flush()?;
        let site = self.stream.peer_addr()?;
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut replies = Vec::with_capacity(1);
        loop {
            if !self.wait_readable(Duration::from_millis(20)) {
                if Instant::now() >= deadline {
                    return Ok(Outcome::Unanswered);
                }
                drop(TcpStream::connect_timeout(
                    &site,
                    Duration::from_millis(200),
                ));
                continue;
            }
            self.read_replies(fails, &mut replies)?;
            if let Some(&(_, outcome)) = replies.iter().find(|(rid, _)| *rid == id) {
                return Ok(outcome);
            }
        }
    }
}

fn read_some(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match stream.read(buf) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// The exact bytes of one `POST /v1/op` (shared with the parser
/// microbenchmark, which feeds the server's parser what the generator
/// sends).
pub fn write_http_op(out: &mut Vec<u8>, key: u32, read: bool) {
    let op = if read { "read" } else { "update" };
    let body = format!("{{\"op\":\"{op}\",\"key\":{key}}}");
    let _ = write!(
        out,
        "POST /v1/op HTTP/1.1\r\nhost: dynvote\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    );
}

/// If `buf` starts with a complete response: its status, its body, and
/// how many bytes it spans.
fn split_http_response(buf: &[u8]) -> io::Result<Option<(u16, &[u8], usize)>> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let length: usize = head
        .lines()
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse().ok())
        .ok_or_else(|| bad("missing content-length"))?;
    let end = head_end + 4 + length;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some((status, &buf[head_end + 4..end], end)))
}

/// The unsigned integer following `label` in a JSON body.
fn json_u64(body: &[u8], label: &str) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find(label)? + label.len()..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}

/// A refused op is sent again, as an SDK would, up to this many tries in
/// all; only an op refused every time (or never answered) has failed.
pub const MAX_TRIES: u8 = 6;
/// A retry waits between one and two of these, drawn from the
/// connection's stream, so rivals do not collide again in step.
const RETRY_BACKOFF_NS: u64 = 250_000;

/// What one generator thread is to do.
pub struct Plan {
    pub pace: Pace,
    pub read_share: f64,
    /// Keys to draw from, uniformly.
    pub keys: Vec<u32>,
    pub rng: Rng,
    /// Draws retry backoffs, apart from `rng` so that connections in
    /// lockstep keep drawing the same keys whoever loses a race.
    pub retry_rng: Rng,
    /// All times are nanoseconds since this instant.
    pub epoch: Instant,
    /// First due time.
    pub start_ns: u64,
    /// No op is due at or after this; outstanding replies are then
    /// awaited until `drain_ns`.
    pub end_ns: u64,
    pub drain_ns: u64,
}

/// What one generator thread did.
pub struct Generated {
    pub ops: Vec<OpRec>,
    pub fails: FailNames,
    /// CPU time the generator thread used.
    pub cpu_ns: u64,
    /// A transport error that ended the run early, if any.
    pub error: Option<String>,
}

/// Run one connection's open-loop load to completion.
pub fn drive(conn: &mut Conn, mut plan: Plan) -> Generated {
    let cpu_start = sys::thread_cpu_ns();
    let now_ns = |epoch: Instant| epoch.elapsed().as_nanos() as u64;
    let tick_ns = (1e9 / plan.pace.ticks_per_s) as u64;
    let base = conn.next_id();
    let mut ops: Vec<OpRec> = Vec::with_capacity(1 << 14);
    // Request id minus `base` -> index of the op it is a try of.
    let mut tries: Vec<u32> = Vec::with_capacity(1 << 14);
    // Refused ops waiting out their backoff: (when to resend, op index).
    let mut retries: Vec<(u64, u32)> = Vec::new();
    let mut fails = FailNames::default();
    let mut replies: Vec<(u64, Outcome)> = Vec::with_capacity(64);
    let mut outstanding = 0usize;
    // The next new op is number `in_burst` of the burst due at `next_due`.
    let mut next_due = plan.start_ns;
    let mut in_burst = 0usize;
    let mut error = None;

    loop {
        let now = now_ns(plan.epoch);
        let sent_before = tries.len();
        retries.retain(|&(at, index)| {
            if at > now {
                return true;
            }
            let op = &mut ops[index as usize];
            conn.queue(op.key, op.read);
            op.tries += 1;
            tries.push(index);
            outstanding += 1;
            false
        });
        while next_due <= now && next_due < plan.end_ns && outstanding < plan.pace.cap {
            let key = plan.keys[plan.rng.below(plan.keys.len())];
            let read = plan.rng.chance(plan.read_share);
            conn.queue(key, read);
            tries.push(ops.len() as u32);
            ops.push(OpRec {
                key,
                read,
                due: next_due,
                sent: now,
                acked: 0,
                tries: 1,
                outcome: Outcome::Unanswered,
            });
            outstanding += 1;
            in_burst += 1;
            if in_burst == plan.pace.burst {
                in_burst = 0;
                next_due += tick_ns;
            }
        }
        if tries.len() > sent_before {
            if let Err(e) = conn.flush() {
                error = Some(format!("write: {e}"));
                break;
            }
        }
        let sending = next_due < plan.end_ns;
        if !sending && ((outstanding == 0 && retries.is_empty()) || now >= plan.drain_ns) {
            break;
        }
        // Sleep until a reply arrives, a retry's backoff ends, or the
        // next op falls due.
        let mut wake = if !sending {
            plan.drain_ns
        } else if outstanding < plan.pace.cap {
            next_due
        } else {
            plan.end_ns
        };
        if let Some(&(at, _)) = retries.iter().min() {
            wake = wake.min(at);
        }
        let wait = Duration::from_nanos(wake.saturating_sub(now_ns(plan.epoch)));
        if !conn.wait_readable(wait) {
            continue;
        }
        replies.clear();
        if let Err(e) = conn.read_replies(&mut fails, &mut replies) {
            error = Some(format!("read: {e}"));
            break;
        }
        let acked = now_ns(plan.epoch);
        for &(id, outcome) in &replies {
            // Ids below `base` answer requests made before the load.
            let Some(&index) = id.checked_sub(base).and_then(|i| tries.get(i as usize)) else {
                continue;
            };
            outstanding -= 1;
            let op = &mut ops[index as usize];
            if let Outcome::Failed(name) = outcome {
                fails.count(name);
                if op.tries < MAX_TRIES {
                    let jitter = plan.retry_rng.below(RETRY_BACKOFF_NS as usize) as u64;
                    retries.push((acked + RETRY_BACKOFF_NS + jitter, index));
                    continue;
                }
            }
            op.acked = acked;
            op.outcome = outcome;
        }
    }
    Generated {
        ops,
        fails,
        cpu_ns: sys::thread_cpu_ns() - cpu_start,
        error,
    }
}
