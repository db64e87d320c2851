//! Store lifecycle and the corruption matrix, on a [`NodeStore`]
//! hosting one object (plus one two-object case).
//!
//! The matrix attacks a WAL segment the three ways a real crash can:
//! truncation mid-record (torn write), a bit flip inside a checksummed
//! body, and a zero-filled tail (preallocated-but-unwritten blocks).
//! Recovery must truncate at the first invalid record, reconstruct
//! exactly the valid prefix, and never panic.
//!
//! Ops reach the file only when a barrier seals the batch as one
//! record, so most tests here barrier after every op — one op per
//! record — to aim damage at exact frame boundaries.

use dynvote_core::{CopyMeta, Distinguished, LinearOrder, SiteId, SiteSet};
use dynvote_protocol::persist::{apply_op, effects, PersistEffect, PersistOp};
use dynvote_protocol::{Action, DurableState, LogEntry, ObjectId, TxnId};
use dynvote_storage::wal::{encode_keyed_op_into, frame_header};
use dynvote_storage::{FsyncPolicy, NodeStore, RecoveryReport, StoreConfig, TornReason};
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dynvote-storage-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn initial_state(n: usize) -> DurableState {
    DurableState {
        meta: CopyMeta::initial(n, &LinearOrder::lexicographic(n)),
        log: Vec::new(),
        commits: HashMap::new(),
        prepared: None,
        next_seq: 0,
    }
}

fn txn(c: u8, seq: u64) -> TxnId {
    TxnId::new(SiteId(c), seq)
}

fn meta_v(version: u64) -> CopyMeta {
    CopyMeta {
        version,
        cardinality: 3,
        distinguished: Distinguished::Trio(SiteSet::all(3)),
    }
}

/// A realistic hook stream: two commits and an in-doubt prepare.
fn sample_ops() -> Vec<PersistOp> {
    vec![
        PersistOp::Seq(1),
        PersistOp::Entries(vec![LogEntry {
            version: 1,
            payload: 111,
        }]),
        PersistOp::Meta(meta_v(1)),
        PersistOp::Committed(txn(0, 1), meta_v(1), SiteSet::all(3)),
        PersistOp::Entries(vec![LogEntry {
            version: 2,
            payload: 222,
        }]),
        PersistOp::Meta(meta_v(2)),
        PersistOp::Committed(txn(1, 1), meta_v(2), SiteSet::all(3)),
        PersistOp::Prepared(txn(2, 4), SiteId(2)),
    ]
}

fn reference_after(ops: &[PersistOp]) -> DurableState {
    let mut state = initial_state(3);
    for op in ops {
        apply_op(&mut state, op);
    }
    state
}

fn always() -> StoreConfig {
    StoreConfig {
        fsync: FsyncPolicy::Always,
    }
}

/// Open (and recover) a one-object store over `n` sites.
fn open(dir: &Path, config: StoreConfig, n: usize) -> (NodeStore, DurableState, RecoveryReport) {
    let (store, mut states, report) = NodeStore::open(dir, config, 1, initial_state(n)).unwrap();
    assert_eq!(states.len(), 1);
    (store, states.remove(0), report)
}

/// Append each op as its own sealed record (barrier per op).
fn append_sealed(store: &mut NodeStore, ops: &[PersistOp]) {
    for op in ops {
        store.append(ObjectId::ZERO, op).unwrap();
        store.barrier().unwrap();
    }
}

/// Seal one site's kernel output the way a node's merge barrier does:
/// every persist effect in `actions`, in emission order, entries read
/// from the site's `log`, then one barrier.
fn seal(store: &mut NodeStore, actions: &[Action], log: &[LogEntry]) {
    for (object, effect) in effects(actions) {
        store.append_effect(object, &effect, log);
    }
    store.barrier().unwrap();
}

/// The live WAL segment of a store that was just dropped (newest
/// epoch).
fn live_wal(dir: &PathBuf) -> PathBuf {
    let mut wals: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_prefix("wal-").map(|s| s.parse::<u64>().unwrap())
        })
        .collect();
    wals.sort_unstable();
    dir.join(format!("wal-{:016}", wals.last().unwrap()))
}

/// Every file in `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn fresh_directory_boots_initial_state() {
    let dir = temp_dir("fresh");
    let (store, state, report) = open(&dir, always(), 3);
    assert_eq!(state, initial_state(3));
    assert_eq!(report.snapshot_epoch, None);
    assert_eq!(report.records_replayed, 0);
    assert!(report.truncated.is_none());
    assert_eq!(store.epoch(), 1);
    // Nothing to recover, so nothing to snapshot: one forced segment.
    assert_eq!(file_names(&dir), ["wal-0000000000000001"]);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fresh_store_dropped_before_any_barrier_reopens_initial() {
    let dir = temp_dir("fresh-drop");
    drop(open(&dir, always(), 3));
    // The reopen has a segment to recover, so it rotates.
    let (store, state, report) = open(&dir, always(), 3);
    assert_eq!(state, initial_state(3));
    assert!(report.truncated.is_none());
    assert_eq!(report.segments_replayed, 1);
    assert_eq!(report.records_replayed, 0);
    assert_eq!(store.epoch(), 2);
    assert_eq!(
        file_names(&dir),
        ["snap-0000000000000002", "wal-0000000000000002"]
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn appended_records_survive_reopen() {
    let dir = temp_dir("reopen");
    let ops = sample_ops();
    {
        let (mut store, _, _) = open(&dir, always(), 3);
        append_sealed(&mut store, &ops);
        // Dropped without any graceful shutdown: the crash case. Every
        // op passed a barrier, so nothing is lost.
    }
    let (store, state, report) = open(&dir, always(), 3);
    assert_eq!(state, reference_after(&ops));
    assert_eq!(report.records_replayed, ops.len() as u64);
    assert!(report.truncated.is_none());
    assert_eq!(
        state.prepared,
        Some((txn(2, 4), SiteId(2))),
        "in-doubt prepare record recovered"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rotation_compacts_and_recovery_uses_the_snapshot() {
    let dir = temp_dir("rotate");
    let ops = sample_ops();
    {
        let (mut store, _, _) = open(&dir, always(), 3);
        append_sealed(&mut store, &ops);
        let state = reference_after(&ops);
        store.rotate(std::slice::from_ref(&state)).unwrap();
        assert_eq!(store.epoch(), 2);
        // Epoch-1 files are gone; only the new pair remains.
        assert_eq!(
            file_names(&dir),
            ["snap-0000000000000002", "wal-0000000000000002"]
        );
    }
    let (_store, state, report) = open(&dir, always(), 3);
    assert_eq!(state, reference_after(&ops));
    assert_eq!(report.snapshot_epoch, Some(2));
    assert_eq!(
        report.records_replayed, 0,
        "everything came off the snapshot"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The corruption matrix. Each case damages the live segment after a
/// clean append run, then asserts recovery truncates at the first
/// invalid record and reconstructs the exact valid prefix.
#[test]
fn corruption_matrix_truncate_bitflip_zerofill() {
    let ops = sample_ops();
    // Frame sizes (one op per record), to aim the damage precisely.
    let mut ends = Vec::new();
    let mut buf = Vec::new();
    for op in &ops {
        let mut body = Vec::new();
        encode_keyed_op_into(&mut body, ObjectId::ZERO, op);
        buf.extend_from_slice(&frame_header(&body));
        buf.extend_from_slice(&body);
        ends.push(16 + buf.len() as u64); // offsets within the file
    }

    // Case 1: torn write — cut the file mid-way through record 5.
    {
        let dir = temp_dir("torn");
        {
            let (mut store, _, _) = open(&dir, always(), 3);
            append_sealed(&mut store, &ops);
        }
        let wal = live_wal(&dir);
        let cut = ends[4] + 3; // 3 bytes into record index 5
        OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let (_s, state, report) = open(&dir, always(), 3);
        assert_eq!(state, reference_after(&ops[..5]));
        let torn = report.truncated.expect("torn tail reported");
        assert_eq!(torn.offset, ends[4]);
        assert_eq!(report.records_replayed, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Case 2: bit flip inside record 2's checksummed body.
    {
        let dir = temp_dir("bitflip");
        {
            let (mut store, _, _) = open(&dir, always(), 3);
            append_sealed(&mut store, &ops);
        }
        let wal = live_wal(&dir);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&wal)
            .unwrap();
        let flip_at = ends[1] + 10; // inside record index 2's frame
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[flip_at as usize] ^= 0x04;
        file.seek(SeekFrom::Start(0)).unwrap();
        file.write_all(&bytes).unwrap();
        drop(file);
        let (_s, state, report) = open(&dir, always(), 3);
        assert_eq!(state, reference_after(&ops[..2]));
        let torn = report.truncated.expect("bit flip detected");
        assert_eq!(torn.offset, ends[1]);
        assert!(
            matches!(torn.reason, TornReason::BadCrc | TornReason::BadBody(_)),
            "{:?}",
            torn.reason
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Case 3: zero-filled tail after record 3 (blocks allocated, data
    // never written).
    {
        let dir = temp_dir("zerofill");
        {
            let (mut store, _, _) = open(&dir, always(), 3);
            append_sealed(&mut store, &ops);
        }
        let wal = live_wal(&dir);
        let mut bytes = std::fs::read(&wal).unwrap();
        for b in bytes.iter_mut().skip(ends[2] as usize) {
            *b = 0;
        }
        std::fs::write(&wal, &bytes).unwrap();
        let (_s, state, report) = open(&dir, always(), 3);
        assert_eq!(state, reference_after(&ops[..3]));
        let torn = report.truncated.expect("zero fill detected");
        assert_eq!(torn.offset, ends[2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Case 4: one record carrying two objects' steps, torn inside the
    // second object's ops — the first object's ops are intact on disk,
    // yet the whole record is lost for both.
    {
        let dir = temp_dir("torn-second-object");
        let first_record_end;
        {
            let (mut store, _, _) = NodeStore::open(&dir, always(), 2, initial_state(3)).unwrap();
            for object in [ObjectId(0), ObjectId(1)] {
                store.append(object, &ops[0]).unwrap();
            }
            store.barrier().unwrap();
            first_record_end = store.wal_len();
            for object in [ObjectId(0), ObjectId(1)] {
                for op in &ops[1..4] {
                    store.append(object, op).unwrap();
                }
            }
            store.barrier().unwrap();
        }
        let wal = live_wal(&dir);
        let len = std::fs::metadata(&wal).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 3) // inside object 1's commit record
            .unwrap();
        let (_s, states, report) = NodeStore::open(&dir, always(), 2, initial_state(3)).unwrap();
        assert_eq!(states, vec![reference_after(&ops[..1]); 2]);
        let torn = report.truncated.expect("torn tail reported");
        assert_eq!(torn.offset, first_record_end);
        assert_eq!(report.records_replayed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn corrupt_snapshot_falls_back_to_older_one() {
    let dir = temp_dir("snapfall");
    let ops = sample_ops();
    // A fresh open writes no snapshot; the reopen rotates to `snap-2`.
    drop(open(&dir, always(), 3));
    {
        let (mut store, _, _) = open(&dir, always(), 3);
        append_sealed(&mut store, &ops);
    }
    // Plant a garbage "newest" snapshot; recovery must skip it, use the
    // epoch-2 snapshot, and still replay the epoch-2 WAL.
    std::fs::write(dir.join(format!("snap-{:016}", 7)), b"not a snapshot").unwrap();
    let (_s, state, report) = open(&dir, always(), 3);
    assert_eq!(state, reference_after(&ops));
    assert_eq!(report.corrupt_snapshots, 1);
    assert_eq!(report.snapshot_epoch, Some(2));
    assert_eq!(report.records_replayed, ops.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn group_commit_loses_only_the_unsynced_tail() {
    let dir = temp_dir("group");
    let ops = sample_ops();
    let config = StoreConfig {
        fsync: FsyncPolicy::Always,
    };
    {
        let (mut store, _, _) = open(&dir, config, 3);
        for op in &ops[..5] {
            store.append(ObjectId::ZERO, op).unwrap();
        }
        store.barrier().unwrap(); // group-commit point: first 5 sealed as one record
        for op in &ops[5..] {
            store.append(ObjectId::ZERO, op).unwrap();
        }
        // Killed before the next barrier: the tail lives only in the
        // user-space buffer and must be gone.
    }
    let (_s, state, report) = open(&dir, config, 3);
    assert_eq!(state, reference_after(&ops[..5]));
    assert_eq!(report.records_replayed, 1, "the batch is one record");
    assert!(report.truncated.is_none(), "clean cut at the barrier");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The whole point of batch framing: ops of one step become durable
/// together, and a tail that never reached its barrier is never
/// recovered — even under `fsync: always`.
#[test]
fn a_step_seals_as_one_record_and_an_unbarriered_tail_is_lost() {
    let dir = temp_dir("step");
    let ops = sample_ops();
    {
        let (mut store, _, _) = open(&dir, always(), 3);
        for op in &ops[..5] {
            store.append(ObjectId::ZERO, op).unwrap();
        }
        store.barrier().unwrap();
        for op in &ops[5..] {
            store.append(ObjectId::ZERO, op).unwrap();
        }
        // No barrier: these ops belong to a step that never announced
        // anything, so losing them is the same as crashing earlier.
    }
    let (_s, state, report) = open(&dir, always(), 3);
    assert_eq!(state, reference_after(&ops[..5]));
    assert_eq!(report.records_replayed, 1);
    assert!(report.truncated.is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn inspect_is_read_only() {
    let dir = temp_dir("inspect");
    let ops = sample_ops();
    {
        let (mut store, _, _) = open(&dir, always(), 3);
        append_sealed(&mut store, &ops);
    }
    let before = file_names(&dir);
    let (states, report) = NodeStore::inspect(&dir, initial_state(3)).unwrap();
    assert_eq!(states, vec![reference_after(&ops)]);
    assert_eq!(report.records_replayed, ops.len() as u64);
    assert_eq!(before, file_names(&dir), "inspect changed the directory");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sealing the actor's persist effects into the store and killing the
/// actor mid-protocol reproduces its durable state byte-for-byte.
#[test]
fn persistence_hooks_feed_the_wal() {
    use dynvote_core::AlgorithmKind;
    use dynvote_protocol::{Input, Message, SiteActor};

    let dir = temp_dir("hooks");
    let n = 3;
    let (mut store, state, _) = open(&dir, always(), n);
    let mut sub = SiteActor::restore(SiteId(1), n, AlgorithmKind::Hybrid.instantiate(n), state);
    let mut out = Vec::new();
    let t = txn(0, 1);
    let from = SiteId(0);
    let msg = Message::VoteRequest { txn: t };
    sub.step(Input::Message { from, msg }, &mut out);
    let msg = Message::Commit {
        txn: t,
        meta: meta_v(1),
        entries: vec![LogEntry {
            version: 1,
            payload: 321,
        }],
        participants: SiteSet::all(n),
    };
    sub.step(Input::Message { from, msg }, &mut out);
    // The node loop's durability barrier: runs before any of `out`
    // leaves the site. Only steps that passed it are recoverable.
    seal(&mut store, &out, sub.log());
    let live = sub.durable().clone();
    drop((sub, store)); // SIGKILL stand-in

    let (_s, recovered, report) = open(&dir, always(), n);
    assert_eq!(recovered, live);
    assert!(report.truncated.is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The barrier the node runs between batches flushes a buffered
/// effect under a group-commit policy.
#[test]
fn sync_hook_flushes_buffered_records() {
    let dir = temp_dir("synchook");
    let config = StoreConfig {
        fsync: FsyncPolicy::Always,
    };
    {
        let (mut store, _, _) = open(&dir, config, 3);
        store.append_effect(ObjectId::ZERO, &PersistEffect::Seq(9), &[]);
        store.barrier().unwrap();
    }
    let (_s, state, _) = open(&dir, config, 3);
    assert_eq!(state.next_seq, 9);
    std::fs::remove_dir_all(&dir).unwrap();
}
