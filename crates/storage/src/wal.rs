//! WAL record and snapshot byte formats.
//!
//! A WAL record is the **batch** of keyed [`PersistOp`]s a node's
//! kernels emitted between two force-write barriers — one step of every
//! object the batch touched — framed as:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [body: len bytes = ([object: u32][op])*]
//! ```
//!
//! where `crc` is the CRC-32 (IEEE) of the body. Bodies reuse the
//! protocol's codec primitives (`put_txn`, `put_meta`, `put_entries`,
//! ...), so a WAL record and the wire messages that caused it encode
//! the same vocabulary with the same bytes. Every encoder appends to a
//! caller-owned buffer, mirroring the transport's reusable-buffer
//! discipline.
//!
//! Framing the step, not the op, is what makes recovery sound: a
//! commit mutates the log, the metadata, and the commit-record table
//! through three separate hooks, and a state holding only a prefix of
//! those mutations violates kernel invariants ("an update operation at
//! a site is atomic", Section V-B). Because a record either replays in
//! full or not at all, a killed process can only ever lose whole steps
//! — and a step that never reached its barrier never announced
//! anything to other sites, so losing it is indistinguishable from the
//! kill having happened a moment earlier.
//!
//! The [`RecordScanner`] decoder enforces the **torn-tail rule**: it
//! yields record batches until the first length/CRC/decode violation
//! and reports the byte offset where the valid prefix ends — recovery
//! truncates there. A record that was only partially written by a
//! killed process is indistinguishable from garbage, and both are
//! handled identically: the log simply ends early.

use crate::crc32::crc32;
use dynvote_core::SiteId;
use dynvote_protocol::codec::{
    put_entries, put_meta, put_site_set, put_txn, put_u32, put_u64, put_u8, Reader, WireError,
};
use dynvote_protocol::persist::PersistOp;
use dynvote_protocol::{CommitRecord, DurableState, ObjectId};
use std::collections::HashMap;

/// First bytes of a multi-object (node-wide) WAL segment, whose record
/// bodies are concatenated `[object][op]` keyed ops.
pub const WAL_MAGIC_MULTI: &[u8; 8] = b"DVWALM01";
/// First bytes of a multi-object snapshot, whose payload is a counted
/// run of per-object states.
pub const SNAP_MAGIC_MULTI: &[u8; 8] = b"DVSNAPM1";
/// Upper bound on one record body, guarding against corrupt length
/// prefixes (same cap as the wire transport's frames).
pub const MAX_RECORD: usize = 16 * 1024 * 1024;

// ----- record bodies -----------------------------------------------------

/// Append one keyed op — `[object: u32][op]` — the record vocabulary of
/// the node WAL. One node-wide record interleaves many objects' ops;
/// the object prefix routes each op back to its shard's state on
/// replay.
pub fn encode_keyed_op_into(out: &mut Vec<u8>, object: ObjectId, op: &PersistOp) {
    put_u32(out, object.0);
    match op {
        PersistOp::Seq(next_seq) => {
            put_u8(out, 1);
            put_u64(out, *next_seq);
        }
        PersistOp::Prepared(txn, coordinator) => {
            put_u8(out, 2);
            put_txn(out, *txn);
            put_u8(out, coordinator.0);
        }
        PersistOp::PrepareCleared(txn) => {
            put_u8(out, 3);
            put_txn(out, *txn);
        }
        PersistOp::Entries(entries) => {
            put_u8(out, 4);
            put_entries(out, entries);
        }
        PersistOp::Meta(meta) => {
            put_u8(out, 5);
            put_meta(out, *meta);
        }
        PersistOp::Committed(txn, meta, participants) => {
            put_u8(out, 6);
            put_txn(out, *txn);
            put_meta(out, *meta);
            put_site_set(out, *participants);
        }
    }
}

/// Decode a multi-object record body: the concatenated keyed ops of one
/// group-commit batch, in append order.
pub fn decode_keyed_ops(body: &[u8]) -> Result<Vec<(ObjectId, PersistOp)>, WireError> {
    let mut r = Reader::new(body);
    let mut ops = Vec::new();
    while r.remaining() > 0 {
        let object = ObjectId(r.u32()?);
        ops.push((object, decode_one(&mut r)?));
    }
    Ok(ops)
}

fn decode_one(r: &mut Reader) -> Result<PersistOp, WireError> {
    Ok(match r.u8()? {
        1 => PersistOp::Seq(r.u64()?),
        2 => PersistOp::Prepared(r.txn()?, SiteId(r.u8()?)),
        3 => PersistOp::PrepareCleared(r.txn()?),
        4 => PersistOp::Entries(r.entries()?),
        5 => PersistOp::Meta(r.meta()?),
        6 => PersistOp::Committed(r.txn()?, r.meta()?, r.site_set()?),
        tag => return Err(WireError::BadTag(tag)),
    })
}

/// The `[len: u32 LE][crc: u32 LE]` frame header for a record body.
#[must_use]
pub fn frame_header(body: &[u8]) -> [u8; 8] {
    let len = u32::try_from(body.len()).expect("record body exceeds u32::MAX");
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(body).to_le_bytes());
    header
}

// ----- scanning ----------------------------------------------------------

/// Why a scan stopped before the end of the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than 8 bytes left — a header was cut mid-write.
    ShortHeader,
    /// A zero-length record: no writer emits empty batches, so this is
    /// zeroed (or foreign) bytes whose empty body trivially matches the
    /// CRC of nothing.
    Empty,
    /// The length prefix exceeds [`MAX_RECORD`] (corrupt length).
    BadLength(u32),
    /// The body was cut short of its declared length.
    ShortBody,
    /// The CRC did not match the body.
    BadCrc,
    /// The body failed to decode despite a matching CRC (foreign or
    /// future record format).
    BadBody(WireError),
}

impl std::fmt::Display for TornReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornReason::ShortHeader => write!(f, "record header cut short"),
            TornReason::Empty => write!(f, "zero-length record"),
            TornReason::BadLength(len) => write!(f, "record length {len} exceeds {MAX_RECORD}"),
            TornReason::ShortBody => write!(f, "record body cut short"),
            TornReason::BadCrc => write!(f, "checksum mismatch"),
            TornReason::BadBody(e) => write!(f, "undecodable body: {e}"),
        }
    }
}

/// Cursor over a WAL segment's record region, enforcing the torn-tail
/// rule. After iteration, [`RecordScanner::valid_end`] is the offset of
/// the last byte of the last valid record — the truncation point when
/// the scan ended in [`TornReason`].
pub struct RecordScanner<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RecordScanner<'a> {
    /// Scan `buf`, the record region of a segment (after the header).
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        RecordScanner { buf, pos: 0 }
    }

    /// Offset of the end of the valid prefix scanned so far.
    #[must_use]
    pub fn valid_end(&self) -> usize {
        self.pos
    }

    /// Validate the next frame's header/length/CRC (decoding is the
    /// caller's job). Returns the body and the bytes to advance by.
    fn frame(&self) -> Option<Result<(&'a [u8], usize), TornReason>> {
        let remaining = &self.buf[self.pos..];
        if remaining.is_empty() {
            return None;
        }
        if remaining.len() < 8 {
            return Some(Err(TornReason::ShortHeader));
        }
        let len = u32::from_le_bytes([remaining[0], remaining[1], remaining[2], remaining[3]]);
        let crc = u32::from_le_bytes([remaining[4], remaining[5], remaining[6], remaining[7]]);
        if len == 0 {
            return Some(Err(TornReason::Empty));
        }
        if len as usize > MAX_RECORD {
            return Some(Err(TornReason::BadLength(len)));
        }
        let body_end = 8 + len as usize;
        if remaining.len() < body_end {
            return Some(Err(TornReason::ShortBody));
        }
        let body = &remaining[8..body_end];
        if crc32(body) != crc {
            return Some(Err(TornReason::BadCrc));
        }
        Some(Ok((body, body_end)))
    }

    /// The next record batch — one group-commit barrier's worth of ops
    /// across many objects: `None` at a clean end, `Some(Err(..))` at
    /// the first violation (the scanner stays put — further calls keep
    /// returning the same violation). A batch decodes in full or not at
    /// all, so replay can never apply half a protocol step.
    pub fn next_keyed(&mut self) -> Option<Result<Vec<(ObjectId, PersistOp)>, TornReason>> {
        match self.frame()? {
            Ok((body, advance)) => match decode_keyed_ops(body) {
                Ok(ops) => {
                    self.pos += advance;
                    Some(Ok(ops))
                }
                Err(e) => Some(Err(TornReason::BadBody(e))),
            },
            Err(reason) => Some(Err(reason)),
        }
    }
}

// ----- snapshots ---------------------------------------------------------

/// Append an encoded [`DurableState`] (snapshot payload, no framing).
///
/// Commit records are sorted by transaction id so identical states
/// encode to identical bytes regardless of hash-map iteration order.
pub fn encode_state_into(out: &mut Vec<u8>, state: &DurableState) {
    put_meta(out, state.meta);
    put_entries(out, &state.log);
    let mut txns: Vec<_> = state.commits.keys().copied().collect();
    txns.sort_unstable();
    put_u32(out, txns.len() as u32);
    for txn in txns {
        let record = &state.commits[&txn];
        put_txn(out, txn);
        put_meta(out, record.meta);
        put_site_set(out, record.participants);
    }
    match state.prepared {
        None => put_u8(out, 0),
        Some((txn, coordinator)) => {
            put_u8(out, 1);
            put_txn(out, txn);
            put_u8(out, coordinator.0);
        }
    }
    put_u64(out, state.next_seq);
}

/// Decode one [`DurableState`] at the reader's position, leaving the
/// reader just past it.
fn read_state(r: &mut Reader) -> Result<DurableState, WireError> {
    let meta = r.meta()?;
    let log = r.entries()?;
    let commit_count = r.u32()? as usize;
    // Guard: each commit record is at least 26 bytes.
    if commit_count > r.remaining() / 26 {
        return Err(WireError::Truncated);
    }
    let mut commits = HashMap::with_capacity(commit_count);
    for _ in 0..commit_count {
        let txn = r.txn()?;
        let meta = r.meta()?;
        let participants = r.site_set()?;
        commits.insert(txn, CommitRecord { meta, participants });
    }
    let prepared = match r.u8()? {
        0 => None,
        1 => Some((r.txn()?, SiteId(r.u8()?))),
        tag => return Err(WireError::BadTag(tag)),
    };
    let next_seq = r.u64()?;
    Ok(DurableState {
        meta,
        log,
        commits,
        prepared,
        next_seq,
    })
}

/// Append a multi-object snapshot payload: a counted run of per-object
/// states in object order (`states[o]` is object `o`'s state — objects
/// are dense, so the index is the id).
pub fn encode_states_into(out: &mut Vec<u8>, states: &[DurableState]) {
    put_u32(out, states.len() as u32);
    for state in states {
        encode_state_into(out, state);
    }
}

/// Decode a multi-object snapshot payload back into per-object states.
pub fn decode_states(body: &[u8]) -> Result<Vec<DurableState>, WireError> {
    let mut r = Reader::new(body);
    let count = r.u32()? as usize;
    // Guard: even an empty state encodes to well over 26 bytes.
    if count > r.remaining() / 26 + 1 {
        return Err(WireError::Truncated);
    }
    let mut states = Vec::with_capacity(count);
    for _ in 0..count {
        states.push(read_state(&mut r)?);
    }
    r.finish(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_core::{CopyMeta, Distinguished, SiteSet};
    use dynvote_protocol::{LogEntry, TxnId};

    fn sample_ops() -> Vec<PersistOp> {
        let txn = TxnId::new(SiteId(2), 9);
        let meta = CopyMeta {
            version: 4,
            cardinality: 3,
            distinguished: Distinguished::Trio(SiteSet::all(3)),
        };
        vec![
            PersistOp::Seq(10),
            PersistOp::Prepared(txn, SiteId(2)),
            PersistOp::PrepareCleared(txn),
            PersistOp::Entries(vec![
                LogEntry {
                    version: 1,
                    payload: 7,
                },
                LogEntry {
                    version: 2,
                    payload: 8,
                },
            ]),
            PersistOp::Meta(meta),
            PersistOp::Committed(txn, meta, SiteSet::all(3)),
        ]
    }

    fn sample_state() -> DurableState {
        let mut commits = HashMap::new();
        commits.insert(
            TxnId::new(SiteId(0), 3),
            CommitRecord {
                meta: CopyMeta {
                    version: 2,
                    cardinality: 2,
                    distinguished: Distinguished::Single(SiteId(1)),
                },
                participants: SiteSet::all(2),
            },
        );
        DurableState {
            meta: CopyMeta {
                version: 2,
                cardinality: 2,
                distinguished: Distinguished::Single(SiteId(1)),
            },
            log: vec![
                LogEntry {
                    version: 1,
                    payload: 100,
                },
                LogEntry {
                    version: 2,
                    payload: 200,
                },
            ],
            commits,
            prepared: Some((TxnId::new(SiteId(1), 5), SiteId(1))),
            next_seq: 7,
        }
    }

    /// One framed record holding `ops`, as `NodeStore::barrier` seals it.
    fn record_into(out: &mut Vec<u8>, ops: &[(ObjectId, PersistOp)]) {
        let mut body = Vec::new();
        for (object, op) in ops {
            encode_keyed_op_into(&mut body, *object, op);
        }
        out.extend_from_slice(&frame_header(&body));
        out.extend_from_slice(&body);
    }

    /// [`sample_ops`] spread over three objects.
    fn keyed_sample_ops() -> Vec<(ObjectId, PersistOp)> {
        sample_ops()
            .into_iter()
            .enumerate()
            .map(|(i, op)| (ObjectId((i % 3) as u32), op))
            .collect()
    }

    #[test]
    fn every_op_round_trips_framed() {
        let mut buf = Vec::new();
        let ops = keyed_sample_ops();
        for op in &ops {
            record_into(&mut buf, std::slice::from_ref(op));
        }
        let mut scanner = RecordScanner::new(&buf);
        for op in &ops {
            assert_eq!(scanner.next_keyed().unwrap().unwrap(), vec![op.clone()]);
        }
        assert!(scanner.next_keyed().is_none());
        assert_eq!(scanner.valid_end(), buf.len());
    }

    #[test]
    fn keyed_ops_round_trip_as_one_multi_object_record() {
        let keyed = keyed_sample_ops();
        let mut buf = Vec::new();
        record_into(&mut buf, &keyed);
        let mut scanner = RecordScanner::new(&buf);
        assert_eq!(scanner.next_keyed().unwrap().unwrap(), keyed);
        assert!(scanner.next_keyed().is_none());
        assert_eq!(scanner.valid_end(), buf.len());
        assert_eq!(decode_keyed_ops(&buf[8..]).unwrap(), keyed);
    }

    #[test]
    fn multi_object_snapshot_round_trips() {
        let states = vec![sample_state(), DurableState::initial(3), sample_state()];
        let mut buf = Vec::new();
        encode_states_into(&mut buf, &states);
        assert_eq!(decode_states(&buf).unwrap(), states);
        // Hostile count is rejected without allocating.
        let mut hostile = Vec::new();
        put_u32(&mut hostile, u32::MAX);
        assert_eq!(decode_states(&hostile), Err(WireError::Truncated));
    }

    #[test]
    fn snapshot_state_round_trips_and_is_deterministic() {
        let state = sample_state();
        let mut a = Vec::new();
        let mut b = Vec::new();
        let copy = state.clone();
        encode_states_into(&mut a, std::slice::from_ref(&state));
        encode_states_into(&mut b, std::slice::from_ref(&copy));
        assert_eq!(a, b, "snapshot encoding is deterministic");
        assert_eq!(decode_states(&a).unwrap(), vec![state]);
    }

    #[test]
    fn torn_tail_stops_at_first_violation() {
        let ops = keyed_sample_ops();
        let mut buf = Vec::new();
        for op in &ops {
            record_into(&mut buf, std::slice::from_ref(op));
        }
        // Truncate mid-record: every cut point either replays a whole
        // prefix or stops with a torn reason — never panics.
        for cut in 0..buf.len() {
            let mut scanner = RecordScanner::new(&buf[..cut]);
            let mut replayed = 0usize;
            while let Some(Ok(_)) = scanner.next_keyed() {
                replayed += 1;
            }
            assert!(replayed <= ops.len());
            assert!(scanner.valid_end() <= cut);
        }
    }

    #[test]
    fn bit_flip_in_body_is_caught_by_crc() {
        let mut buf = Vec::new();
        record_into(&mut buf, &keyed_sample_ops()[3..4]);
        let last = buf.len() - 1;
        buf[last] ^= 0x40; // flip a bit in the body
        let mut scanner = RecordScanner::new(&buf);
        assert_eq!(scanner.next_keyed(), Some(Err(TornReason::BadCrc)));
        assert_eq!(scanner.valid_end(), 0);
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut buf = vec![0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0];
        buf.extend_from_slice(&[0u8; 16]);
        let mut scanner = RecordScanner::new(&buf);
        assert!(matches!(
            scanner.next_keyed(),
            Some(Err(TornReason::BadLength(_)))
        ));
    }

    #[test]
    fn zero_fill_tail_is_torn_not_replayed() {
        let mut buf = Vec::new();
        record_into(&mut buf, &[(ObjectId(0), PersistOp::Seq(1))]);
        let good = buf.len();
        buf.extend_from_slice(&[0u8; 64]); // zero-filled tail
        let mut scanner = RecordScanner::new(&buf);
        assert!(scanner.next_keyed().unwrap().is_ok());
        // A zeroed header decodes as len=0/crc=0; crc32 of the empty
        // body is 0, so the CRC alone would pass — the explicit
        // zero-length check must reject it.
        assert_eq!(scanner.next_keyed(), Some(Err(TornReason::Empty)));
        assert_eq!(scanner.valid_end(), good);
    }
}
