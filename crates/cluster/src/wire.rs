//! The hand-rolled wire codec: protocol and client frames over bytes.
//!
//! Frames are length-prefixed: a little-endian `u32` byte count
//! followed by the body. The body is a tagged binary encoding — one tag
//! byte per enum variant, little-endian fixed-width integers for every
//! field, no padding and no self-description. The format is the same in
//! both directions and shared by peer links and client connections; the
//! two are told apart by a one-byte connection preamble
//! ([`HELLO_PEER`] / [`HELLO_CLIENT`]) written immediately after
//! connecting.
//!
//! The codec is deliberately bincode-free: the container builds offline
//! and the repo's compat `serde` is a tree-walking stand-in, so the
//! cluster's hot path gets a purpose-built encoder whose cost is a
//! handful of `extend_from_slice` calls per message.

use dynvote_core::SiteId;
use dynvote_protocol::codec::{
    put_entries, put_meta, put_site_set, put_txn, put_u32, put_u64, put_u8, Reader,
};
use dynvote_protocol::{Message, StatusOutcome};
use std::io::{self, Read};

pub use dynvote_node::{ClientOp, ClientReply, PeerFrame, Relay};
pub use dynvote_protocol::codec::WireError;

/// Connection preamble byte announcing a peer (protocol) link; the next
/// byte is the sending site's id.
pub const HELLO_PEER: u8 = b'P';
/// Connection preamble byte announcing a client connection.
pub const HELLO_CLIENT: u8 = b'C';

/// Upper bound on an accepted frame body, guarding against corrupt
/// length prefixes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

// The primitive `put_*` encoders and the `Reader` decoder live in
// `dynvote_protocol::codec`, shared with the durable storage formats.

// ----- protocol messages -------------------------------------------------

/// Encode a protocol [`Message`] into a frame body.
///
/// Thin wrapper over [`encode_message_into`] for callers without a
/// reusable buffer.
#[must_use]
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_message_into(&mut out, msg);
    out
}

/// Append a protocol [`Message`] body to `out` (which is *not*
/// cleared: the reactor encodes each body behind its length prefix
/// straight onto the peer link's write buffer).
pub fn encode_message_into(out: &mut Vec<u8>, msg: &Message) {
    match msg {
        Message::VoteRequest { txn } => {
            put_u8(out, 1);
            put_txn(out, *txn);
        }
        Message::VoteGranted { txn, meta, from } => {
            put_u8(out, 2);
            put_txn(out, *txn);
            put_meta(out, *meta);
            put_u8(out, from.0);
        }
        Message::VoteBusy { txn, from } => {
            put_u8(out, 3);
            put_txn(out, *txn);
            put_u8(out, from.0);
        }
        Message::CatchUpRequest { txn, after_version } => {
            put_u8(out, 4);
            put_txn(out, *txn);
            put_u64(out, *after_version);
        }
        Message::CatchUpReply { txn, entries } => {
            put_u8(out, 5);
            put_txn(out, *txn);
            put_entries(out, entries);
        }
        Message::Commit {
            txn,
            meta,
            entries,
            participants,
        } => {
            put_u8(out, 6);
            put_txn(out, *txn);
            put_meta(out, *meta);
            put_entries(out, entries);
            put_site_set(out, *participants);
        }
        Message::Abort { txn } => {
            put_u8(out, 7);
            put_txn(out, *txn);
        }
        Message::StatusQuery {
            txn,
            after_version,
            from,
        } => {
            put_u8(out, 8);
            put_txn(out, *txn);
            put_u64(out, *after_version);
            put_u8(out, from.0);
        }
        Message::StatusReply { txn, outcome } => {
            put_u8(out, 9);
            put_txn(out, *txn);
            match outcome {
                StatusOutcome::Committed {
                    meta,
                    entries,
                    participants,
                } => {
                    put_u8(out, 0);
                    put_meta(out, *meta);
                    put_entries(out, entries);
                    put_site_set(out, *participants);
                }
                StatusOutcome::Aborted => put_u8(out, 1),
                StatusOutcome::Unknown => put_u8(out, 2),
            }
        }
    }
}

/// Decode a protocol [`Message`] from a frame body.
pub fn decode_message(body: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(body);
    let msg = match r.u8()? {
        1 => Message::VoteRequest { txn: r.txn()? },
        2 => Message::VoteGranted {
            txn: r.txn()?,
            meta: r.meta()?,
            from: SiteId(r.u8()?),
        },
        3 => Message::VoteBusy {
            txn: r.txn()?,
            from: SiteId(r.u8()?),
        },
        4 => Message::CatchUpRequest {
            txn: r.txn()?,
            after_version: r.u64()?,
        },
        5 => Message::CatchUpReply {
            txn: r.txn()?,
            entries: r.entries()?,
        },
        6 => Message::Commit {
            txn: r.txn()?,
            meta: r.meta()?,
            entries: r.entries()?,
            participants: r.site_set()?,
        },
        7 => Message::Abort { txn: r.txn()? },
        8 => Message::StatusQuery {
            txn: r.txn()?,
            after_version: r.u64()?,
            from: SiteId(r.u8()?),
        },
        9 => {
            let txn = r.txn()?;
            let outcome = match r.u8()? {
                0 => StatusOutcome::Committed {
                    meta: r.meta()?,
                    entries: r.entries()?,
                    participants: r.site_set()?,
                },
                1 => StatusOutcome::Aborted,
                2 => StatusOutcome::Unknown,
                tag => return Err(WireError::BadTag(tag)),
            };
            Message::StatusReply { txn, outcome }
        }
        tag => return Err(WireError::BadTag(tag)),
    };
    r.finish(msg)
}

// ----- relays -----------------------------------------------------------

/// Body tag of a [`Relay::Forward`] item; like every peer body tag it
/// is distinct from the message tags (1–9).
pub const FORWARD_TAG: u8 = 11;
/// Body tag of a [`Relay::ForwardReply`] item.
pub const FORWARD_REPLY_TAG: u8 = 12;

/// Append a [`Relay`] body to `out` (not cleared). It travels on a peer
/// link as a message body does: in a frame of its own.
pub fn encode_relay_into(out: &mut Vec<u8>, relay: &Relay) {
    match relay {
        Relay::Forward { id, key, read } => {
            put_u8(out, FORWARD_TAG);
            put_u64(out, *id);
            put_u32(out, *key);
            put_u8(out, u8::from(*read));
        }
        Relay::ForwardReply { id, reply } => {
            put_u8(out, FORWARD_REPLY_TAG);
            encode_reply_into(out, *id, reply);
        }
    }
}

/// Decode a peer frame body: the one item it holds, a [`Relay`] or a
/// protocol message.
pub fn decode_peer_frame(body: &[u8]) -> Result<PeerFrame, WireError> {
    match body.first() {
        Some(&FORWARD_TAG) => {
            let mut r = Reader::new(&body[1..]);
            let relay = Relay::Forward {
                id: r.u64()?,
                key: r.u32()?,
                read: match r.u8()? {
                    0 => false,
                    1 => true,
                    tag => return Err(WireError::BadTag(tag)),
                },
            };
            r.finish(PeerFrame::Relay(relay))
        }
        Some(&FORWARD_REPLY_TAG) => {
            let (id, reply) = decode_reply(&body[1..])?;
            Ok(PeerFrame::Relay(Relay::ForwardReply { id, reply }))
        }
        _ => decode_message(body).map(PeerFrame::Msg),
    }
}

// ----- client frames -----------------------------------------------------

/// Append a client request body to `out` (not cleared).
pub fn encode_request_into(out: &mut Vec<u8>, id: u64, op: &ClientOp) {
    put_u64(out, id);
    match op {
        ClientOp::Update { key } => {
            put_u8(out, 0);
            put_u32(out, *key);
        }
        ClientOp::Read { key } => {
            put_u8(out, 1);
            put_u32(out, *key);
        }
        ClientOp::Crash => put_u8(out, 2),
        ClientOp::Recover => put_u8(out, 3),
        ClientOp::SetReachable(set) => {
            put_u8(out, 4);
            put_site_set(out, *set);
        }
        ClientOp::Probe { key } => {
            put_u8(out, 5);
            put_u32(out, *key);
        }
        // Tag 6 was the retired `Audit` request; it is not reused.
        ClientOp::Events => put_u8(out, 7),
        ClientOp::DumpLog { key } => {
            put_u8(out, 8);
            put_u32(out, *key);
        }
        ClientOp::Status => put_u8(out, 9),
        ClientOp::NetStats => put_u8(out, 10),
        ClientOp::ShardStats => put_u8(out, 11),
    }
}

/// Decode a client request.
pub fn decode_request(body: &[u8]) -> Result<(u64, ClientOp), WireError> {
    let mut r = Reader::new(body);
    let id = r.u64()?;
    let op = match r.u8()? {
        0 => ClientOp::Update { key: r.u32()? },
        1 => ClientOp::Read { key: r.u32()? },
        2 => ClientOp::Crash,
        3 => ClientOp::Recover,
        4 => ClientOp::SetReachable(r.site_set()?),
        5 => ClientOp::Probe { key: r.u32()? },
        7 => ClientOp::Events,
        8 => ClientOp::DumpLog { key: r.u32()? },
        9 => ClientOp::Status,
        10 => ClientOp::NetStats,
        11 => ClientOp::ShardStats,
        tag => return Err(WireError::BadTag(tag)),
    };
    r.finish((id, op))
}

/// Append a client reply body to `out` (not cleared).
pub fn encode_reply_into(out: &mut Vec<u8>, id: u64, reply: &ClientReply) {
    put_u64(out, id);
    match reply {
        ClientReply::Committed { version } => {
            put_u8(out, 0);
            put_u64(out, *version);
        }
        ClientReply::ReadServed => put_u8(out, 1),
        ClientReply::Rejected => put_u8(out, 2),
        // Tag 3 was the retired `Busy` reply; it is not reused.
        ClientReply::TimedOut => put_u8(out, 4),
        ClientReply::Down => put_u8(out, 5),
        ClientReply::Ok => put_u8(out, 6),
        ClientReply::Probe {
            meta,
            locked,
            in_doubt,
            down,
        } => {
            put_u8(out, 7);
            put_meta(out, *meta);
            put_u8(out, u8::from(*locked));
            put_u8(out, u8::from(*in_doubt));
            put_u8(out, u8::from(*down));
        }
        // Tag 8 was the retired `Audit` reply; it is not reused.
        ClientReply::Events { counts } => {
            put_u8(out, 9);
            put_u32(out, counts.len() as u32);
            for &c in counts {
                put_u64(out, c);
            }
        }
        ClientReply::Log { meta, entries } => {
            put_u8(out, 10);
            put_meta(out, *meta);
            put_entries(out, entries);
        }
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
            put_u8(out, 11);
            put_u32(out, algorithm.len() as u32);
            out.extend_from_slice(algorithm.as_bytes());
            put_u32(out, *objects);
            put_meta(out, *meta);
            put_site_set(out, *reachable);
            put_u8(out, u8::from(*locked));
            put_u8(out, u8::from(*in_doubt));
            put_u8(out, u8::from(*down));
            put_u64(out, *log_len);
            put_u64(out, *commits);
            match wal_epoch {
                Some(e) => {
                    put_u8(out, 1);
                    put_u64(out, *e);
                }
                None => put_u8(out, 0),
            }
        }
        ClientReply::NetStats { counts } => {
            put_u8(out, 12);
            put_u32(out, counts.len() as u32);
            for &c in counts {
                put_u64(out, c);
            }
        }
        ClientReply::ShardStats { workers, counts } => {
            put_u8(out, 13);
            put_u32(out, *workers);
            put_u32(out, counts.len() as u32);
            for &c in counts {
                put_u64(out, c);
            }
        }
        // Tag 14: appended after every pre-pipelining reply tag so old
        // decoders only ever see it when talking to a new server.
        ClientReply::Overloaded => put_u8(out, 14),
        ClientReply::Contended => put_u8(out, 15),
        ClientReply::UnknownKey => put_u8(out, 16),
    }
}

/// Decode a client reply.
pub fn decode_reply(body: &[u8]) -> Result<(u64, ClientReply), WireError> {
    let mut r = Reader::new(body);
    let id = r.u64()?;
    let reply = match r.u8()? {
        0 => ClientReply::Committed { version: r.u64()? },
        1 => ClientReply::ReadServed,
        2 => ClientReply::Rejected,
        4 => ClientReply::TimedOut,
        5 => ClientReply::Down,
        6 => ClientReply::Ok,
        7 => ClientReply::Probe {
            meta: r.meta()?,
            locked: r.u8()? != 0,
            in_doubt: r.u8()? != 0,
            down: r.u8()? != 0,
        },
        9 => {
            let count = r.u32()? as usize;
            // Guard: each counter is 8 bytes, so a valid count is
            // bounded by the remaining body.
            if count > r.remaining() / 8 {
                return Err(WireError::Truncated);
            }
            let mut counts = Vec::with_capacity(count);
            for _ in 0..count {
                counts.push(r.u64()?);
            }
            ClientReply::Events { counts }
        }
        10 => ClientReply::Log {
            meta: r.meta()?,
            entries: r.entries()?,
        },
        11 => {
            let name_len = r.u32()? as usize;
            if name_len > r.remaining() {
                return Err(WireError::Truncated);
            }
            let mut name = Vec::with_capacity(name_len);
            for _ in 0..name_len {
                name.push(r.u8()?);
            }
            let algorithm = String::from_utf8_lossy(&name).into_owned();
            ClientReply::Status {
                algorithm,
                objects: r.u32()?,
                meta: r.meta()?,
                reachable: r.site_set()?,
                locked: r.u8()? != 0,
                in_doubt: r.u8()? != 0,
                down: r.u8()? != 0,
                log_len: r.u64()?,
                commits: r.u64()?,
                wal_epoch: match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    tag => return Err(WireError::BadTag(tag)),
                },
            }
        }
        12 => {
            let count = r.u32()? as usize;
            if count > r.remaining() / 8 {
                return Err(WireError::Truncated);
            }
            let mut counts = Vec::with_capacity(count);
            for _ in 0..count {
                counts.push(r.u64()?);
            }
            ClientReply::NetStats { counts }
        }
        13 => {
            let workers = r.u32()?;
            let count = r.u32()? as usize;
            if count > r.remaining() / 8 {
                return Err(WireError::Truncated);
            }
            let mut counts = Vec::with_capacity(count);
            for _ in 0..count {
                counts.push(r.u64()?);
            }
            ClientReply::ShardStats { workers, counts }
        }
        14 => ClientReply::Overloaded,
        15 => ClientReply::Contended,
        16 => ClientReply::UnknownKey,
        tag => return Err(WireError::BadTag(tag)),
    };
    r.finish((id, reply))
}

// ----- frame transport ---------------------------------------------------

/// Append one length-prefixed frame to `out`, letting `fill` append
/// the body directly into the same buffer.
///
/// Writes a 4-byte length placeholder, runs `fill`, then patches the
/// placeholder with the observed body length — one buffer, no copy.
/// The transport uses this to coalesce every frame of an event-loop
/// iteration into a single write buffer per peer.
///
/// # Panics
///
/// If `fill` appends more than `u32::MAX` bytes.
pub fn encode_frame_into(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    fill(out);
    let len = u32::try_from(out.len() - at - 4).expect("frame body exceeds u32::MAX bytes");
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Read one length-prefixed frame. Returns `UnexpectedEof` when the
/// connection closes cleanly between frames.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_core::{CopyMeta, Distinguished, SiteSet};
    use dynvote_protocol::{LogEntry, TxnId};
    use std::io::Write;

    fn txn(c: u8, seq: u64) -> TxnId {
        TxnId::new(SiteId(c), seq)
    }

    fn encode_request(id: u64, op: &ClientOp) -> Vec<u8> {
        let mut out = Vec::new();
        encode_request_into(&mut out, id, op);
        out
    }

    fn encode_reply(id: u64, reply: &ClientReply) -> Vec<u8> {
        let mut out = Vec::new();
        encode_reply_into(&mut out, id, reply);
        out
    }

    /// Write one length-prefixed frame.
    fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
        w.write_all(&(body.len() as u32).to_le_bytes())?;
        w.write_all(body)
    }

    fn sample_meta() -> CopyMeta {
        CopyMeta {
            version: 42,
            cardinality: 3,
            distinguished: Distinguished::Trio(SiteSet::parse("ABC").unwrap()),
        }
    }

    /// One value of every `Message` variant (and every `StatusOutcome`
    /// arm), shared by the round-trip and byte-identity tests so a new
    /// variant only needs listing once.
    fn all_message_variants() -> Vec<Message> {
        let entries = vec![
            LogEntry {
                version: 1,
                payload: 100,
            },
            LogEntry {
                version: 2,
                payload: u64::MAX,
            },
        ];
        vec![
            Message::VoteRequest { txn: txn(0, 1) },
            Message::VoteGranted {
                txn: txn(1, 2),
                meta: sample_meta(),
                from: SiteId(1),
            },
            Message::VoteBusy {
                txn: txn(2, 3),
                from: SiteId(2),
            },
            Message::CatchUpRequest {
                txn: txn(3, 4),
                after_version: 7,
            },
            Message::CatchUpReply {
                txn: txn(4, 5),
                entries: entries.clone(),
            },
            Message::Commit {
                txn: txn(0, 6),
                meta: CopyMeta {
                    version: 9,
                    cardinality: 4,
                    distinguished: Distinguished::Single(SiteId(3)),
                },
                entries: entries.clone(),
                participants: SiteSet::parse("ABCD").unwrap(),
            },
            Message::Abort { txn: txn(1, 7) },
            Message::StatusQuery {
                txn: txn(2, 8),
                after_version: 3,
                from: SiteId(4),
            },
            Message::StatusReply {
                txn: txn(3, 9),
                outcome: StatusOutcome::Committed {
                    meta: CopyMeta {
                        version: 5,
                        cardinality: 5,
                        distinguished: Distinguished::Irrelevant,
                    },
                    entries,
                    participants: SiteSet::all(5),
                },
            },
            Message::StatusReply {
                txn: txn(4, 10),
                outcome: StatusOutcome::Aborted,
            },
            Message::StatusReply {
                txn: txn(0, 11),
                outcome: StatusOutcome::Unknown,
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in all_message_variants() {
            let bytes = encode_message(&msg);
            assert_eq!(decode_message(&bytes).unwrap(), msg, "{}", msg.kind());
        }
    }

    #[test]
    fn into_encoders_are_byte_identical_and_append_only() {
        // The reusable-buffer encoders back the transport's batched
        // write path; appended after whatever the buffer already holds
        // (prior frames of the same batch), they must produce exactly
        // the bytes they write into an empty buffer.
        let preamble = b"prior-frame-bytes".to_vec();
        for msg in all_message_variants() {
            let mut buf = preamble.clone();
            encode_message_into(&mut buf, &msg);
            assert_eq!(&buf[..preamble.len()], &preamble[..], "{}", msg.kind());
            assert_eq!(
                &buf[preamble.len()..],
                encode_message(&msg),
                "{}",
                msg.kind()
            );
        }
        let mut buf = preamble.clone();
        encode_request_into(&mut buf, 7, &ClientOp::Update { key: 3 });
        assert_eq!(
            &buf[preamble.len()..],
            encode_request(7, &ClientOp::Update { key: 3 })
        );
        let mut buf = preamble.clone();
        let reply = ClientReply::Committed { version: 12 };
        encode_reply_into(&mut buf, 9, &reply);
        assert_eq!(&buf[preamble.len()..], encode_reply(9, &reply));
    }

    #[test]
    fn encode_frame_into_length_prefixes_in_place() {
        let msg = Message::VoteRequest { txn: txn(0, 1) };
        let mut buf = vec![0xAB, 0xCD];
        encode_frame_into(&mut buf, |out| encode_message_into(out, &msg));
        let body = encode_message(&msg);
        assert_eq!(&buf[..2], &[0xAB, 0xCD]);
        assert_eq!(&buf[2..6], (body.len() as u32).to_le_bytes());
        assert_eq!(&buf[6..], body);
    }

    #[test]
    fn every_distinguished_variant_round_trips() {
        for ds in [
            Distinguished::Irrelevant,
            Distinguished::Single(SiteId(7)),
            Distinguished::Trio(SiteSet::parse("BDE").unwrap()),
            Distinguished::Set(SiteSet::parse("AE").unwrap()),
        ] {
            let msg = Message::VoteGranted {
                txn: txn(0, 1),
                meta: CopyMeta {
                    version: 1,
                    cardinality: 2,
                    distinguished: ds,
                },
                from: SiteId(0),
            };
            let bytes = encode_message(&msg);
            assert_eq!(decode_message(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn every_client_frame_round_trips() {
        let ops = vec![
            ClientOp::Update { key: 0 },
            ClientOp::Update { key: 17 },
            ClientOp::Read { key: 0 },
            ClientOp::Read { key: u32::MAX },
            ClientOp::Crash,
            ClientOp::Recover,
            ClientOp::SetReachable(SiteSet::parse("ACE").unwrap()),
            ClientOp::Probe { key: 2 },
            ClientOp::Events,
            ClientOp::DumpLog { key: 5 },
            ClientOp::Status,
            ClientOp::NetStats,
            ClientOp::ShardStats,
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let bytes = encode_request(i as u64, &op);
            assert_eq!(decode_request(&bytes).unwrap(), (i as u64, op));
        }
        let replies = vec![
            ClientReply::Committed { version: 12 },
            ClientReply::ReadServed,
            ClientReply::Rejected,
            ClientReply::TimedOut,
            ClientReply::Down,
            ClientReply::Ok,
            ClientReply::Probe {
                meta: sample_meta(),
                locked: true,
                in_doubt: false,
                down: true,
            },
            ClientReply::Events {
                counts: vec![0, 3, 0, 17, u64::MAX],
            },
            ClientReply::Events { counts: Vec::new() },
            ClientReply::Log {
                meta: sample_meta(),
                entries: vec![
                    LogEntry {
                        version: 1,
                        payload: 11,
                    },
                    LogEntry {
                        version: 2,
                        payload: 22,
                    },
                ],
            },
            ClientReply::Log {
                meta: sample_meta(),
                entries: Vec::new(),
            },
            ClientReply::Status {
                algorithm: "hybrid".to_string(),
                objects: 16,
                meta: sample_meta(),
                reachable: SiteSet::parse("ABDE").unwrap(),
                locked: false,
                in_doubt: true,
                down: false,
                log_len: 42,
                commits: 17,
                wal_epoch: Some(3),
            },
            ClientReply::Status {
                algorithm: String::new(),
                objects: 1,
                meta: sample_meta(),
                reachable: SiteSet::all(5),
                locked: true,
                in_doubt: false,
                down: true,
                log_len: 0,
                commits: 0,
                wal_epoch: None,
            },
            ClientReply::NetStats {
                counts: vec![1, 0, 99, u64::MAX],
            },
            ClientReply::NetStats { counts: Vec::new() },
            ClientReply::ShardStats {
                workers: 4,
                counts: vec![10, 20, 30, 40, 3, 2, 1, 0, 7, 123_456],
            },
            ClientReply::ShardStats {
                workers: 1,
                counts: Vec::new(),
            },
            ClientReply::Overloaded,
            ClientReply::Contended,
            ClientReply::UnknownKey,
        ];
        for (i, reply) in replies.into_iter().enumerate() {
            let bytes = encode_reply(i as u64, &reply);
            assert_eq!(decode_reply(&bytes).unwrap(), (i as u64, reply));
        }
        // Retired tags are unknown, not misread: reply 3 (`Busy`) and
        // 8 (`Audit`), request 6 (`Audit`) — with or without the body
        // the old frame carried.
        for (tag, body) in [(3, 0), (8, 17), (8, 0)] {
            let mut retired = 7u64.to_le_bytes().to_vec();
            retired.push(tag);
            retired.resize(retired.len() + body, 0xFF);
            assert_eq!(decode_reply(&retired), Err(WireError::BadTag(tag)));
        }
        let mut retired = 7u64.to_le_bytes().to_vec();
        retired.push(6);
        assert_eq!(decode_request(&retired), Err(WireError::BadTag(6)));
    }

    #[test]
    fn malformed_bodies_are_rejected_not_panicked() {
        assert_eq!(decode_message(&[]), Err(WireError::Truncated));
        assert_eq!(decode_message(&[0xEE]), Err(WireError::BadTag(0xEE)));
        // VoteRequest with a truncated txn.
        assert_eq!(decode_message(&[1, 0]), Err(WireError::Truncated));
        // Valid VoteRequest with junk appended.
        let mut bytes = encode_message(&Message::VoteRequest { txn: txn(0, 1) });
        bytes.push(0);
        assert_eq!(decode_message(&bytes), Err(WireError::TrailingBytes(1)));
        // Entry count far beyond the body length must not allocate.
        let mut reply = Vec::new();
        put_u8(&mut reply, 5);
        put_txn(&mut reply, txn(0, 1));
        put_u32(&mut reply, u32::MAX);
        assert_eq!(decode_message(&reply), Err(WireError::Truncated));
    }

    /// One value of each relay kind for every data-plane reply, plus a
    /// reply that carries a vector.
    fn sample_relays() -> Vec<Relay> {
        let mut relays = vec![
            Relay::Forward {
                id: 1,
                key: 0,
                read: false,
            },
            Relay::Forward {
                id: u64::MAX,
                key: u32::MAX,
                read: true,
            },
        ];
        for (i, reply) in [
            ClientReply::Committed { version: 9 },
            ClientReply::ReadServed,
            ClientReply::Rejected,
            ClientReply::Contended,
            ClientReply::UnknownKey,
            ClientReply::Overloaded,
            ClientReply::TimedOut,
            ClientReply::Down,
            ClientReply::Events { counts: vec![1, 2] },
        ]
        .into_iter()
        .enumerate()
        {
            relays.push(Relay::ForwardReply {
                id: i as u64,
                reply,
            });
        }
        relays
    }

    #[test]
    fn relays_round_trip_alone_and_are_not_messages() {
        let relays = sample_relays();
        for relay in &relays {
            let mut body = Vec::new();
            encode_relay_into(&mut body, relay);
            assert_eq!(
                decode_peer_frame(&body),
                Ok(PeerFrame::Relay(relay.clone()))
            );
            // A relay is not a protocol message.
            assert!(decode_message(&body).is_err());
        }
    }

    /// A peer link is a stream of `[len][body]` frames, one per item:
    /// many objects' messages and every relay kind, back to back, come
    /// out in order however the stream is split.
    #[test]
    fn peer_items_round_trip_as_back_to_back_frames_split_anywhere() {
        use dynvote_net::FrameDecoder;
        use dynvote_protocol::ObjectId;
        let mut items: Vec<PeerFrame> = all_message_variants()
            .into_iter()
            .chain((0..5u32).map(|o| Message::VoteRequest {
                txn: TxnId::keyed(SiteId(0), u64::from(o) + 1, ObjectId(o)),
            }))
            .map(PeerFrame::Msg)
            .collect();
        items.extend(sample_relays().into_iter().map(PeerFrame::Relay));
        let mut stream = Vec::new();
        for item in &items {
            encode_frame_into(&mut stream, |out| match item {
                PeerFrame::Msg(msg) => encode_message_into(out, msg),
                PeerFrame::Relay(relay) => encode_relay_into(out, relay),
            });
        }
        for split in 0..=stream.len() {
            let mut decoder = FrameDecoder::new(MAX_FRAME);
            let mut decoded = Vec::new();
            for part in [&stream[..split], &stream[split..]] {
                decoder.extend(part);
                while let Some(body) = decoder.next_frame().expect("a well-formed stream") {
                    decoded.push(decode_peer_frame(body).expect("one item"));
                }
            }
            assert_eq!(decoded, items, "split at byte {split}");
        }
    }

    #[test]
    fn hostile_relay_bytes_are_errors_not_panics() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0F0A_57ED);
        let valid: Vec<Vec<u8>> = sample_relays()
            .iter()
            .map(|relay| {
                let mut body = Vec::new();
                encode_relay_into(&mut body, relay);
                body
            })
            .collect();
        for body in &valid {
            // Every strict prefix is truncated; trailing junk is
            // rejected, never ignored.
            for cut in 1..body.len() {
                assert!(decode_peer_frame(&body[..cut]).is_err());
            }
            let mut long = body.clone();
            long.push(0);
            assert!(decode_peer_frame(&long).is_err());
        }
        for round in 0..20_000 {
            // Arbitrary bytes behind each relay tag and tag 10 (the
            // retired batch envelope), and valid bodies with bytes
            // flipped.
            let mut body: Vec<u8> = if round % 2 == 0 {
                let len = rng.gen_range(0..48);
                let tag = [FORWARD_TAG, FORWARD_REPLY_TAG, 10][round / 2 % 3];
                std::iter::once(tag)
                    .chain((0..len).map(|_| rng.gen::<u32>() as u8))
                    .collect()
            } else {
                valid[rng.gen_range(0..valid.len())].clone()
            };
            if round % 2 == 1 {
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(0..body.len());
                    body[at] = rng.gen::<u32>() as u8;
                }
            }
            // Whatever it decodes to, it must not panic or allocate
            // from an unchecked length.
            let decoded = decode_peer_frame(&body);
            if round % 2 == 0 && body[0] == 10 {
                assert_eq!(decoded, Err(WireError::BadTag(10)));
            }
        }
        // A forward's read flag is a strict boolean.
        let mut body = Vec::new();
        encode_relay_into(
            &mut body,
            &Relay::Forward {
                id: 3,
                key: 4,
                read: true,
            },
        );
        *body.last_mut().unwrap() = 2;
        assert_eq!(decode_peer_frame(&body), Err(WireError::BadTag(2)));
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut stream = Vec::new();
        let a = encode_message(&Message::Abort { txn: txn(1, 2) });
        let b = encode_request(7, &ClientOp::Probe { key: 0 });
        write_frame(&mut stream, &a).unwrap();
        write_frame(&mut stream, &b).unwrap();
        let mut cursor = &stream[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), a);
        assert_eq!(read_frame(&mut cursor).unwrap(), b);
        assert!(read_frame(&mut cursor).is_err(), "clean EOF");
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = &stream[..];
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
