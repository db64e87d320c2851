//! Property test: random interleavings of append / barrier / rotate /
//! crash-and-reopen, plus crash-at-byte-N truncation, always recover to
//! the state an in-memory reference (built with the same `apply_op`)
//! predicts.

use dynvote_core::{CopyMeta, Distinguished, LinearOrder, SiteId, SiteSet};
use dynvote_protocol::persist::{apply_op, PersistOp};
use dynvote_protocol::{DurableState, LogEntry, ObjectId, TxnId};
use dynvote_storage::wal::{encode_keyed_op_into, frame_header};
use dynvote_storage::{FsyncPolicy, NodeStore, RecoveryReport, StoreConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const N: usize = 5;

fn temp_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dynvote-storage-prop-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn initial_state() -> DurableState {
    DurableState {
        meta: CopyMeta::initial(N, &LinearOrder::lexicographic(N)),
        log: Vec::new(),
        commits: HashMap::new(),
        prepared: None,
        next_seq: 0,
    }
}

/// Open (and recover) a one-object store.
fn open(dir: &Path, config: StoreConfig) -> (NodeStore, DurableState, RecoveryReport) {
    let (store, mut states, report) = NodeStore::open(dir, config, 1, initial_state()).unwrap();
    assert_eq!(states.len(), 1);
    (store, states.remove(0), report)
}

/// Decode one fuzz tuple into a `PersistOp`. Values are arbitrary on
/// purpose: `apply_op` is the single definition of how a record mutates
/// state, so whatever its monotonicity guards accept or reject, the
/// reference and the recovery path agree by construction — the property
/// under test is byte-level round-trip fidelity, not op validity.
fn decode_cmd(kind: u64, a: u64, b: u64) -> PersistOp {
    let txn = TxnId::new(SiteId((a % N as u64) as u8), a >> 8);
    let meta = CopyMeta {
        version: a % 32,
        cardinality: (b % N as u64 + 1) as u32,
        distinguished: match b % 3 {
            0 => Distinguished::Single(SiteId((b % N as u64) as u8)),
            1 => Distinguished::Trio(SiteSet::all(3)),
            _ => Distinguished::Irrelevant,
        },
    };
    match kind % 6 {
        0 => PersistOp::Seq(a),
        1 => PersistOp::Prepared(txn, SiteId((b % N as u64) as u8)),
        2 => PersistOp::PrepareCleared(txn),
        3 => PersistOp::Entries(vec![LogEntry {
            version: a % 16,
            payload: b,
        }]),
        4 => PersistOp::Meta(meta),
        _ => PersistOp::Committed(txn, meta, SiteSet::all(N)),
    }
}

fn cmds(max: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..=max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleave appends with barriers, rotations, and full
    /// crash-reopen cycles; after every reopen the recovered state must
    /// equal the reference *as of the last seal* — ops past the last
    /// barrier belong to a step that never announced anything, and are
    /// honestly lost.
    #[test]
    fn interleaved_lifecycle_round_trips(raw in cmds(40), ctl in cmds(40)) {
        let dir = temp_dir();
        let config = StoreConfig {
            fsync: FsyncPolicy::Always,
        };
        let (mut store, state, _) = open(&dir, config);
        let mut reference = state;
        let mut sealed = reference.clone();
        for (i, &(kind, a, b)) in raw.iter().enumerate() {
            let op = decode_cmd(kind, a, b);
            store.append(ObjectId::ZERO, &op).unwrap();
            apply_op(&mut reference, &op);
            // The control stream decides what happens between appends.
            match ctl[i % ctl.len()].0 % 8 {
                0 => {
                    store.barrier().unwrap();
                    sealed = reference.clone();
                }
                1 => {
                    // A checkpoint subsumes even the pending batch: the
                    // snapshot is the caller's full live state.
                    store.rotate(std::slice::from_ref(&reference)).unwrap();
                    sealed = reference.clone();
                }
                2 => {
                    drop(store);
                    let (s, recovered, report) = open(&dir, config);
                    prop_assert_eq!(&recovered, &sealed, "reopen #{}: {:?}", i, report);
                    prop_assert!(report.truncated.is_none());
                    // The crash rolled the site back to its last seal;
                    // the reference must live on from there.
                    reference = recovered;
                    store = s;
                }
                _ => {}
            }
        }
        drop(store);
        let (_s, recovered, report) = open(&dir, config);
        prop_assert_eq!(&recovered, &sealed, "final reopen: {:?}", report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Crash at byte N: truncate the live segment at an arbitrary byte
    /// and reopen. Recovery must reconstruct exactly the state of the
    /// longest record-batch prefix that fits, and never panic.
    #[test]
    fn crash_at_any_byte_recovers_the_prefix(raw in cmds(24), cut_seed in any::<u64>()) {
        let dir = temp_dir();
        let config = StoreConfig {
            fsync: FsyncPolicy::Always,
        };
        // Mirror the on-disk layout: ops buffer into a batch, and each
        // barrier seals the batch as one framed record. Checkpoints are
        // the barrier offsets within the file (16-byte header) plus the
        // reference state sealed there.
        let mut frame = Vec::new();
        let mut batch = Vec::new();
        let mut checkpoints = Vec::new(); // (file_end_offset, state)
        let (mut store, state, _) = open(&dir, config);
        let mut reference = state;
        checkpoints.push((16u64, reference.clone()));
        for &(kind, a, b) in &raw {
            let op = decode_cmd(kind, a, b);
            store.append(ObjectId::ZERO, &op).unwrap();
            apply_op(&mut reference, &op);
            encode_keyed_op_into(&mut batch, ObjectId::ZERO, &op);
            // `b` doubles as the barrier control: ~3 in 4 ops end a step.
            if b % 4 != 0 {
                store.barrier().unwrap();
                frame.extend_from_slice(&frame_header(&batch));
                frame.extend_from_slice(&batch);
                batch.clear();
                checkpoints.push((16 + frame.len() as u64, reference.clone()));
            }
        }
        drop(store);

        let wal = dir.join(format!("wal-{:016}", 1));
        let total = 16 + frame.len() as u64;
        let cut = 16 + cut_seed % (total - 15); // anywhere in the record region
        OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let expected = checkpoints
            .iter()
            .rev()
            .find(|(end, _)| *end <= cut)
            .map(|(_, s)| s.clone())
            .unwrap();
        let expect_torn = checkpoints.iter().all(|(end, _)| *end != cut);

        let (_s, recovered, report) = open(&dir, config);
        prop_assert_eq!(&recovered, &expected, "cut at {}: {:?}", cut, report);
        prop_assert_eq!(report.truncated.is_some(), expect_torn, "cut at {}", cut);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
