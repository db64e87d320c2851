//! The HTTP/1.1 client front door: admission control, op routing, and
//! the `/metrics` + `/status` observability endpoints.
//!
//! The reactor ([`crate::reactor`]) owns the sockets and the HTTP
//! parsing; this module owns the *policy*: how many ops may be in
//! flight at once (admission → `429 Too Many Requests` with
//! `Retry-After`), how a [`ClientReply`] maps onto an HTTP status and
//! JSON body, and how the node's counters render as a Prometheus-style
//! text exposition.
//!
//! Endpoints:
//!
//! | Route          | Semantics                                         |
//! |----------------|---------------------------------------------------|
//! | `POST /v1/op`  | Submit `{"op":"update"}` or `{"op":"read"}`       |
//! | `GET /metrics` | Text exposition: events, net counters, latency    |
//! | `GET /status`  | JSON snapshot: algorithm, partition view, VN/SC/DS|
//!
//! One op may be outstanding per connection (HTTP/1.1 pipelining of
//! *ops* would reorder replies); the reactor pauses reading the
//! connection while an op is in flight. `/metrics` is answered inline
//! by the reactor thread without a trip through the node. The reactor
//! owns its [`FrontDoor`] outright: admission, the latency histogram
//! and the answer to each op all happen on the site's one thread.

use crate::loadgen::Histogram;
use crate::transport::NetStats;
use crate::wire::{ClientOp, ClientReply};
use dynvote_core::SiteId;
use dynvote_net::http;
use dynvote_node::ShardStats;
use dynvote_protocol::EventKind;
use std::sync::Arc;
use std::time::Instant;

/// Front-door settings carried by
/// [`crate::ClusterConfig`](crate::ClusterConfig); present iff the
/// cluster exposes HTTP listeners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontDoorConfig {
    /// First HTTP port: node `i` listens on `port_base + i`. `None`
    /// picks ephemeral ports (see `Cluster::http_addr`).
    pub http_port_base: Option<u16>,
    /// Ops admitted concurrently per node before `429`.
    pub max_inflight: u64,
    /// Open connections per node (all kinds) before accepts are
    /// refused.
    pub max_conns: usize,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        FrontDoorConfig {
            http_port_base: None,
            max_inflight: 512,
            max_conns: 8192,
        }
    }
}

/// Per-node front-door state, owned by the site's reactor: the
/// admission budget, the latency histogram, and handles onto every
/// counter `/metrics` exposes.
pub(crate) struct FrontDoor {
    site: SiteId,
    algorithm: String,
    /// Objects this node hosts — the bound for `"key"` validation.
    objects: u32,
    max_inflight: u64,
    /// Admitted ops not yet answered.
    inflight: u64,
    /// Admission-to-answer latency of every admitted op.
    latency: Histogram,
    stats: Arc<NetStats>,
    shard: Arc<ShardStats>,
}

impl FrontDoor {
    pub(crate) fn new(
        site: SiteId,
        algorithm: String,
        objects: u32,
        max_inflight: u64,
        stats: Arc<NetStats>,
        shard: Arc<ShardStats>,
    ) -> Self {
        FrontDoor {
            site,
            algorithm,
            objects,
            max_inflight,
            inflight: 0,
            latency: Histogram::new(),
            stats,
            shard,
        }
    }

    /// Objects this node hosts (valid keys are `0..objects`).
    pub(crate) fn objects(&self) -> u32 {
        self.objects
    }

    /// Try to charge one slot of the inflight budget.
    pub(crate) fn try_admit(&mut self) -> bool {
        if self.inflight < self.max_inflight {
            self.inflight += 1;
            true
        } else {
            false
        }
    }

    /// An admitted op handed over at `started` was answered: record its
    /// latency and give back its slot.
    pub(crate) fn settle(&mut self, started: Instant) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.latency.record(ns);
        self.inflight -= 1;
    }

    /// Append the HTTP response for `reply` to `out`.
    pub(crate) fn write_reply(&self, out: &mut Vec<u8>, reply: &ClientReply, keep_alive: bool) {
        let (status, reason, mut body) = render_reply(reply);
        if matches!(reply, ClientReply::Status { .. }) {
            self.append_peer_health(&mut body);
        }
        // A queue-bound refusal is back-pressure, not conflict: tell
        // the client when to come back, like the admission 429 does.
        let extra: &[(&str, &str)] = if matches!(reply, ClientReply::Overloaded) {
            &[("retry-after", "1")]
        } else {
            &[]
        };
        http::write_response(
            out,
            status,
            reason,
            "application/json",
            extra,
            body.as_bytes(),
            keep_alive,
        );
    }

    /// Extend a `/status` JSON object with the node's peer-health and
    /// routing readings. They come from the counters shared with the
    /// node, not from the `Status` reply, so the binary wire format is
    /// untouched.
    fn append_peer_health(&self, body: &mut String) {
        let closed = body.pop();
        debug_assert_eq!(closed, Some('}'), "status body is a JSON object");
        let list = |counts: Vec<u64>| {
            let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
            counts.join(",")
        };
        body.push_str(&format!(
            ",\"suspected\":\"{}\",\"vote_deadline_missed\":[{}],\
             \"vote_grace_missed\":[{}],\"peer_vote_rtt_us\":[{}],\
             \"vote_grace_us\":{},\"rounds_closed_early\":{}",
            self.shard.suspected(),
            list(self.shard.vote_deadline_missed()),
            list(self.shard.vote_grace_missed()),
            list(self.shard.peer_vote_rtt_us()),
            self.shard.vote_grace_us(),
            self.shard.rounds_closed_early()
        ));
        for (name, value) in self.shard.routing() {
            body.push_str(&format!(",\"{name}\":{value}"));
        }
        body.push('}');
    }

    /// Render the Prometheus-style text exposition for `GET /metrics`:
    /// the node's protocol-event tally row `events`, net-stack
    /// counters, the inflight gauge, and the front-door op latency
    /// histogram.
    pub(crate) fn render_metrics(&self, events: &[u64; EventKind::COUNT]) -> String {
        let mut out = String::with_capacity(2048);
        let site = self.site.index();
        out.push_str("# TYPE dynvote_info gauge\n");
        out.push_str(&format!(
            "dynvote_info{{site=\"{site}\",algorithm=\"{}\"}} 1\n",
            self.algorithm
        ));
        out.push_str("# TYPE dynvote_event_total counter\n");
        for (kind, count) in EventKind::ALL.iter().zip(events) {
            out.push_str(&format!(
                "dynvote_event_total{{site=\"{site}\",kind=\"{}\"}} {count}\n",
                kind.name()
            ));
        }
        out.push_str("# TYPE dynvote_net_total counter\n");
        for (name, count) in NetStats::NAMES.iter().zip(self.stats.snapshot()) {
            out.push_str(&format!(
                "dynvote_net_total{{site=\"{site}\",counter=\"{name}\"}} {count}\n"
            ));
        }
        // Node counters, from the same 13-slot snapshot the binary
        // `ShardStats` op serves: [dispatched, queue_peak,
        // merge_barriers, merge_wait_ns, pipeline_queue_peak,
        // pipeline_batch(8)], with `worker="0"` on the one-thread rows.
        let shard = self.shard.snapshot();
        out.push_str("# TYPE dynvote_shard_worker_dispatched_total counter\n");
        out.push_str(&format!(
            "dynvote_shard_worker_dispatched_total{{site=\"{site}\",worker=\"0\"}} {}\n",
            shard[0]
        ));
        out.push_str("# TYPE dynvote_shard_worker_queue_peak gauge\n");
        out.push_str(&format!(
            "dynvote_shard_worker_queue_peak{{site=\"{site}\",worker=\"0\"}} {}\n",
            shard[1]
        ));
        out.push_str("# TYPE dynvote_shard_merge_barriers_total counter\n");
        out.push_str(&format!(
            "dynvote_shard_merge_barriers_total{{site=\"{site}\"}} {}\n",
            shard[2]
        ));
        out.push_str("# TYPE dynvote_shard_merge_wait_seconds_total counter\n");
        out.push_str(&format!(
            "dynvote_shard_merge_wait_seconds_total{{site=\"{site}\"}} {:.9}\n",
            shard[3] as f64 / 1e9
        ));
        // Commit-pipelining counters: the per-object FIFO's depth peak,
        // then the 8-bucket batch-size histogram (rounds sealed per
        // ops-per-round).
        out.push_str("# TYPE dynvote_pipeline_queue_peak gauge\n");
        out.push_str(&format!(
            "dynvote_pipeline_queue_peak{{site=\"{site}\",worker=\"0\"}} {}\n",
            shard[4]
        ));
        out.push_str("# TYPE dynvote_pipeline_batch_total histogram\n");
        let mut rounds = 0u64;
        for (bound, count) in ShardStats::BATCH_BUCKETS.iter().zip(&shard[5..]) {
            rounds += count;
            let le = if *bound == u64::MAX {
                "+Inf".to_owned()
            } else {
                bound.to_string()
            };
            out.push_str(&format!(
                "dynvote_pipeline_batch_total_bucket{{site=\"{site}\",le=\"{le}\"}} {rounds}\n"
            ));
        }
        out.push_str(&format!(
            "dynvote_pipeline_batch_total_count{{site=\"{site}\"}} {rounds}\n"
        ));
        // Peer health as this node's coordinators see it: who is
        // currently suspected silent, how fast each peer has been
        // voting and the straggler grace that follows from it, how many
        // graces and vote deadlines each peer has missed, and how many
        // rounds closed without waiting.
        let suspected = self.shard.suspected();
        let deadline_missed = self.shard.vote_deadline_missed();
        let suspected: Vec<u64> = (0..deadline_missed.len())
            .map(|peer| u64::from(suspected.contains(SiteId::new(peer))))
            .collect();
        for (name, kind, per_peer) in [
            ("peer_suspected", "gauge", suspected),
            ("peer_vote_rtt_us", "gauge", self.shard.peer_vote_rtt_us()),
            (
                "vote_grace_missed_total",
                "counter",
                self.shard.vote_grace_missed(),
            ),
            ("vote_deadline_missed_total", "counter", deadline_missed),
        ] {
            out.push_str(&format!("# TYPE dynvote_{name} {kind}\n"));
            for (peer, value) in per_peer.iter().enumerate().filter(|&(p, _)| p != site) {
                out.push_str(&format!(
                    "dynvote_{name}{{site=\"{site}\",peer=\"{peer}\"}} {value}\n"
                ));
            }
        }
        out.push_str("# TYPE dynvote_vote_grace_us gauge\n");
        out.push_str(&format!(
            "dynvote_vote_grace_us{{site=\"{site}\"}} {}\n",
            self.shard.vote_grace_us()
        ));
        out.push_str("# TYPE dynvote_rounds_closed_early_total counter\n");
        out.push_str(&format!(
            "dynvote_rounds_closed_early_total{{site=\"{site}\"}} {}\n",
            self.shard.rounds_closed_early()
        ));
        // Single-writer routing: lock races lost here, how many objects
        // this node now sends elsewhere, and the ops that travelled.
        for (name, value) in self.shard.routing() {
            let (name, kind) = match name {
                "routed_objects" => (name.to_owned(), "gauge"),
                _ => (format!("{name}_total"), "counter"),
            };
            out.push_str(&format!(
                "# TYPE dynvote_{name} {kind}\ndynvote_{name}{{site=\"{site}\"}} {value}\n"
            ));
        }
        out.push_str("# TYPE dynvote_http_inflight gauge\n");
        out.push_str(&format!(
            "dynvote_http_inflight{{site=\"{site}\"}} {}\n",
            self.inflight
        ));
        let hist = &self.latency;
        out.push_str("# TYPE dynvote_op_latency_seconds histogram\n");
        let mut cumulative = 0u64;
        for (i, count) in hist.buckets().iter().enumerate() {
            if *count == 0 {
                continue;
            }
            cumulative += count;
            // Bucket i holds latencies in [2^i, 2^{i+1}) ns.
            let le = 2f64.powi(i as i32 + 1) / 1e9;
            out.push_str(&format!(
                "dynvote_op_latency_seconds_bucket{{site=\"{site}\",le=\"{le:.9}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "dynvote_op_latency_seconds_bucket{{site=\"{site}\",le=\"+Inf\"}} {}\n",
            hist.total()
        ));
        out.push_str(&format!(
            "dynvote_op_latency_seconds_count{{site=\"{site}\"}} {}\n",
            hist.total()
        ));
        out
    }
}

/// Why a `POST /v1/op` body was refused. Each cause renders its own
/// 400 body, so a client that sent `"key":"three"` learns it sent a
/// bad key — not a generic "bad body" shrug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpParseError {
    /// The body is not one of the accepted op shapes.
    Syntax,
    /// A `"key"` field was present but its value is not a
    /// non-negative integer literal.
    KeyNotInteger,
    /// The key is an integer but names an object this cluster does not
    /// host.
    KeyOutOfRange {
        /// The key the client sent (saturated at `u64::MAX`).
        key: u64,
        /// How many objects the cluster hosts (valid keys are
        /// `0..objects`).
        objects: u32,
    },
}

impl OpParseError {
    /// The JSON error body for the 400 response.
    pub(crate) fn body(&self) -> String {
        match self {
            OpParseError::Syntax => "{\"error\":\"body must be {\\\"op\\\":\\\"update\\\"} or \
                 {\\\"op\\\":\\\"read\\\"}, optionally with \\\"key\\\":N\"}"
                .to_owned(),
            OpParseError::KeyNotInteger => {
                "{\"error\":\"\\\"key\\\" must be a non-negative integer\"}".to_owned()
            }
            OpParseError::KeyOutOfRange { key, objects } => format!(
                "{{\"error\":\"key {key} out of range: this cluster hosts \
                 {objects} objects (keys 0..{objects})\"}}"
            ),
        }
    }
}

/// Extract the op from a `POST /v1/op` body: `{"op":"update"}`,
/// `{"op":"read"}` (each optionally with `"key":N`), or the bare words
/// `update` / `read`. An absent key means object 0, so every pre-shard
/// body keeps its exact meaning.
pub(crate) fn parse_op(body: &[u8], objects: u32) -> Result<ClientOp, OpParseError> {
    let text = std::str::from_utf8(body).map_err(|_| OpParseError::Syntax)?;
    let value = match text.find("\"op\"") {
        Some(at) => {
            let rest = text[at + 4..]
                .trim_start()
                .strip_prefix(':')
                .ok_or(OpParseError::Syntax)?
                .trim_start();
            let rest = rest.strip_prefix('"').ok_or(OpParseError::Syntax)?;
            &rest[..rest.find('"').ok_or(OpParseError::Syntax)?]
        }
        None => text.trim(),
    };
    let key = parse_key(text, objects)?;
    match value {
        "update" => Ok(ClientOp::Update { key }),
        "read" => Ok(ClientOp::Read { key }),
        _ => Err(OpParseError::Syntax),
    }
}

/// Extract and validate the optional `"key"` field. Absent → object 0.
fn parse_key(text: &str, objects: u32) -> Result<u32, OpParseError> {
    let Some(at) = text.find("\"key\"") else {
        return Ok(0);
    };
    let rest = text[at + 5..]
        .trim_start()
        .strip_prefix(':')
        .ok_or(OpParseError::KeyNotInteger)?
        .trim_start();
    let digits_len = rest.bytes().take_while(u8::is_ascii_digit).count();
    if digits_len == 0 {
        // Quoted strings, negatives, booleans — not an integer.
        return Err(OpParseError::KeyNotInteger);
    }
    // The token must end cleanly: `3.5` or `3e2` are not integers.
    match rest.as_bytes().get(digits_len) {
        None | Some(b',' | b'}' | b' ' | b'\t' | b'\r' | b'\n') => {}
        Some(_) => return Err(OpParseError::KeyNotInteger),
    }
    let key: u64 = rest[..digits_len]
        .parse()
        // Wider than u64 is certainly not a hosted object.
        .map_err(|_| OpParseError::KeyOutOfRange {
            key: u64::MAX,
            objects,
        })?;
    if key >= u64::from(objects) {
        return Err(OpParseError::KeyOutOfRange { key, objects });
    }
    Ok(key as u32)
}

/// Map a node reply onto `(status, reason, JSON body)`.
fn render_reply(reply: &ClientReply) -> (u16, &'static str, String) {
    match reply {
        ClientReply::Committed { version } => (
            200,
            "OK",
            format!("{{\"outcome\":\"committed\",\"version\":{version}}}"),
        ),
        ClientReply::ReadServed => (200, "OK", "{\"outcome\":\"read_served\"}".to_owned()),
        ClientReply::Rejected => (409, "Conflict", "{\"outcome\":\"rejected\"}".to_owned()),
        ClientReply::Contended => (409, "Conflict", "{\"outcome\":\"contended\"}".to_owned()),
        ClientReply::UnknownKey => (404, "Not Found", "{\"outcome\":\"unknown_key\"}".to_owned()),
        ClientReply::TimedOut => (
            504,
            "Gateway Timeout",
            "{\"outcome\":\"timed_out\"}".to_owned(),
        ),
        ClientReply::Down => (
            503,
            "Service Unavailable",
            "{\"outcome\":\"down\"}".to_owned(),
        ),
        // The per-object pipeline queue is full: the op was never
        // admitted to a round. Same status as the admission gate so
        // clients count both as back-pressure.
        ClientReply::Overloaded => (
            429,
            "Too Many Requests",
            "{\"outcome\":\"overloaded\"}".to_owned(),
        ),
        ClientReply::Status {
            algorithm,
            objects,
            meta,
            reachable,
            locked,
            in_doubt,
            down,
            log_len,
            commits,
            wal_epoch,
        } => {
            let wal = wal_epoch.map_or("null".to_owned(), |e| e.to_string());
            (
                200,
                "OK",
                format!(
                    "{{\"algorithm\":\"{algorithm}\",\"objects\":{objects},\
                     \"vn\":{},\"sc\":{},\"ds\":\"{}\",\
                     \"reachable\":\"{reachable}\",\"locked\":{locked},\"in_doubt\":{in_doubt},\
                     \"down\":{down},\"log_len\":{log_len},\"commits\":{commits},\
                     \"wal_epoch\":{wal}}}",
                    meta.version, meta.cardinality, meta.distinguished
                ),
            )
        }
        other => (
            500,
            "Internal Server Error",
            format!("{{\"error\":\"unexpected reply {other:?}\"}}"),
        ),
    }
}

/// Decode a `POST /v1/op` response back into the node's reply: the
/// inverse of [`render_reply`] on the data-plane outcomes. Every `429`
/// is `Overloaded`, whether the admission gate or the object's queue
/// refused. Anything else (a `400`, a route miss, a body this module
/// never renders) is `None`.
pub(crate) fn parse_reply(status: u16, body: &[u8]) -> Option<ClientReply> {
    if status == 429 {
        return Some(ClientReply::Overloaded);
    }
    let text = std::str::from_utf8(body).ok()?;
    let (outcome, rest) = text.strip_prefix("{\"outcome\":\"")?.split_once('"')?;
    Some(match (status, outcome) {
        (200, "committed") => {
            let version = rest.strip_prefix(",\"version\":")?.strip_suffix('}')?;
            ClientReply::Committed {
                version: version.parse().ok()?,
            }
        }
        (200, "read_served") => ClientReply::ReadServed,
        (409, "rejected") => ClientReply::Rejected,
        (409, "contended") => ClientReply::Contended,
        (404, "unknown_key") => ClientReply::UnknownKey,
        (504, "timed_out") => ClientReply::TimedOut,
        (503, "down") => ClientReply::Down,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_op_accepts_json_and_bare_forms() {
        // Keyless bodies keep their exact pre-shard meaning: object 0.
        assert_eq!(
            parse_op(b"{\"op\":\"update\"}", 4),
            Ok(ClientOp::Update { key: 0 })
        );
        assert_eq!(
            parse_op(b"{ \"op\" : \"read\" }", 4),
            Ok(ClientOp::Read { key: 0 })
        );
        assert_eq!(parse_op(b"update", 4), Ok(ClientOp::Update { key: 0 }));
        assert_eq!(parse_op(b"  read\n", 4), Ok(ClientOp::Read { key: 0 }));
        assert_eq!(
            parse_op(b"{\"op\":\"drop_tables\"}", 4),
            Err(OpParseError::Syntax)
        );
        assert_eq!(parse_op(b"{\"op\":12}", 4), Err(OpParseError::Syntax));
        assert_eq!(parse_op(b"\xff\xfe", 4), Err(OpParseError::Syntax));
        assert_eq!(parse_op(b"", 4), Err(OpParseError::Syntax));
    }

    #[test]
    fn parse_op_keyed_bodies_route_to_their_object() {
        assert_eq!(
            parse_op(b"{\"op\":\"update\",\"key\":3}", 4),
            Ok(ClientOp::Update { key: 3 })
        );
        assert_eq!(
            parse_op(b"{\"key\": 2, \"op\": \"read\"}", 4),
            Ok(ClientOp::Read { key: 2 })
        );
        assert_eq!(
            parse_op(b"{ \"op\":\"update\" , \"key\" : 0 }", 1),
            Ok(ClientOp::Update { key: 0 })
        );
    }

    #[test]
    fn parse_op_bad_keys_get_their_own_typed_errors() {
        // Not an integer: quoted, negative, float, boolean.
        for body in [
            &b"{\"op\":\"update\",\"key\":\"3\"}"[..],
            b"{\"op\":\"update\",\"key\":-1}",
            b"{\"op\":\"update\",\"key\":1.5}",
            b"{\"op\":\"update\",\"key\":true}",
            b"{\"op\":\"update\",\"key\":}",
        ] {
            assert_eq!(
                parse_op(body, 4),
                Err(OpParseError::KeyNotInteger),
                "body {:?}",
                String::from_utf8_lossy(body)
            );
        }
        // Integer but unhosted — the error names both sides.
        assert_eq!(
            parse_op(b"{\"op\":\"read\",\"key\":4}", 4),
            Err(OpParseError::KeyOutOfRange { key: 4, objects: 4 })
        );
        // Wider than u64 is out of range, not a syntax shrug.
        assert_eq!(
            parse_op(b"{\"op\":\"read\",\"key\":99999999999999999999999}", 4),
            Err(OpParseError::KeyOutOfRange {
                key: u64::MAX,
                objects: 4
            })
        );
        // Each cause renders a distinct body.
        assert!(OpParseError::KeyNotInteger.body().contains("integer"));
        assert!(OpParseError::KeyOutOfRange { key: 7, objects: 4 }
            .body()
            .contains("key 7 out of range"));
        assert_ne!(
            OpParseError::Syntax.body(),
            OpParseError::KeyNotInteger.body()
        );
    }

    #[test]
    fn reply_status_mapping() {
        assert_eq!(render_reply(&ClientReply::Committed { version: 3 }).0, 200);
        assert_eq!(render_reply(&ClientReply::ReadServed).0, 200);
        assert_eq!(render_reply(&ClientReply::Rejected).0, 409);
        let (status, _, body) = render_reply(&ClientReply::Contended);
        assert_eq!(status, 409);
        assert_eq!(body, "{\"outcome\":\"contended\"}");
        assert_eq!(render_reply(&ClientReply::UnknownKey).0, 404);
        assert_eq!(render_reply(&ClientReply::TimedOut).0, 504);
        assert_eq!(render_reply(&ClientReply::Down).0, 503);
        let (status, _, body) = render_reply(&ClientReply::Overloaded);
        assert_eq!(status, 429);
        assert!(body.contains("overloaded"));
        assert_eq!(render_reply(&ClientReply::Ok).0, 500);
        let body = render_reply(&ClientReply::Committed { version: 3 }).2;
        assert!(body.contains("\"version\":3"));
    }

    #[test]
    fn parse_reply_inverts_render_reply_on_the_data_plane() {
        for reply in [
            ClientReply::Committed { version: 1 },
            ClientReply::Committed { version: u64::MAX },
            ClientReply::ReadServed,
            ClientReply::Rejected,
            ClientReply::Contended,
            ClientReply::UnknownKey,
            ClientReply::TimedOut,
            ClientReply::Down,
            ClientReply::Overloaded,
        ] {
            let (status, _, body) = render_reply(&reply);
            assert_eq!(parse_reply(status, body.as_bytes()), Some(reply));
        }
        // The admission gate's 429 carries no outcome; it is still
        // back-pressure.
        assert_eq!(
            parse_reply(429, b"{\"error\":\"inflight budget exhausted\"}"),
            Some(ClientReply::Overloaded)
        );
        // A status the data plane never sends, or a body that does not
        // match its status, is a transport error.
        assert_eq!(parse_reply(500, b"{\"outcome\":\"committed\"}"), None);
        assert_eq!(parse_reply(418, b""), None);
        assert_eq!(parse_reply(200, b"{\"outcome\":\"rejected\"}"), None);
        assert_eq!(
            parse_reply(400, OpParseError::Syntax.body().as_bytes()),
            None
        );
    }
}
