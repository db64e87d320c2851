//! The node store: one WAL, many objects, group commit.
//!
//! A node hosts many independent per-object state machines
//! (`dynvote_protocol::ShardedSite`), but giving each shard its own WAL
//! would spend one fsync per shard per step — exactly the cost a
//! sharded data plane exists to amortize. [`NodeStore`] instead keeps
//! **one** segment file per node, owned by the node's thread: the node
//! encodes every shard's persist effects as keyed ops (`[object][op]`,
//! [`NodeStore::append_effect`]), and a single force-write barrier
//! seals them all as **one** record. That is group commit: a batch that
//! interleaves ten objects' prepare and commit records reaches the
//! platter with one `fdatasync`.
//!
//! Recovery is sound because the barrier sits between "effects emitted"
//! and "actions handed to the transport": nothing any shard announced
//! can be lost, and a torn tail only ever loses whole multi-object
//! batches whose effects were never visible outside the process.
//!
//! Snapshots are node-wide too: a rotation writes every object's state
//! as one counted payload (`[count]([state])*`), so per-object replay
//! starts from a mutually consistent cut.
//!
//! Files follow the epoch-pair lifecycle of [`crate::store`]
//! (`snap-<E>`/`wal-<E>`, boot rotation, torn-tail truncation,
//! compaction) under the magics `DVWALM01`/`DVSNAPM1`.

use crate::disk::{Disk, OsDisk};
use crate::store::{
    compact, create_segment, list_epochs, read_snapshot_bytes, snap_name, wal_name,
    write_snapshot_bytes, FsyncPolicy, RecoveryReport, StorageError, StoreConfig, TornTail,
    ROTATE_BYTES,
};
use crate::wal::{
    decode_states, encode_keyed_effect_into, encode_keyed_op_into, encode_states_into,
    frame_header, RecordScanner, TornReason, WAL_MAGIC_MULTI,
};
use dynvote_protocol::persist::{apply_op, PersistEffect, PersistOp};
use dynvote_protocol::{DurableState, LogEntry, ObjectId};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Bytes of a record's `[len][crc]` frame header.
const FRAME: usize = 8;

/// The durable store for one node: a single open WAL segment shared by
/// every hosted object, plus node-wide snapshots, on the [`Disk`] `D`.
pub struct NodeStore<D: Disk = OsDisk> {
    disk: D,
    dir: PathBuf,
    config: StoreConfig,
    epoch: u64,
    wal: D::File,
    /// Bytes written to the live segment: its header and sealed records.
    written: u64,
    /// The group-commit batch: the keyed op encodings accumulated since
    /// the last barrier, behind [`FRAME`] bytes reserved for the
    /// record's frame header. The barrier fills the header in and
    /// writes the whole record at once.
    pending: Vec<u8>,
    unsynced: bool,
    last_fsync: Instant,
}

impl<D: Disk> std::fmt::Debug for NodeStore<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeStore")
            .field("dir", &self.dir)
            .field("epoch", &self.epoch)
            .field("wal_len", &self.wal_len())
            .finish_non_exhaustive()
    }
}

impl NodeStore<OsDisk> {
    /// Open (and recover) the node store in `dir`, creating it if
    /// needed. `objects` is the configured shard count and `template`
    /// the fresh state for an object with no history.
    ///
    /// Returns the store, the recovered per-object states (always at
    /// least `objects` long — longer if the directory holds more
    /// objects than configured), and a [`RecoveryReport`]. Every open
    /// starts a fresh, forced segment one epoch past anything on disk,
    /// so every life writes its own. A directory with history ends its
    /// open with a boot rotation: the recovered states are snapshotted
    /// at that epoch and every older file — including any torn
    /// segment — is deleted. A directory with nothing to recover gets
    /// `wal-1` alone: its states are the template, which is what
    /// recovery starts from when no snapshot exists. When `open`
    /// creates `dir`, it also fsyncs the parent directory once the
    /// segment is down, so the new directory's own entry is as durable
    /// as the file inside it.
    ///
    /// `open` touches nothing outside `dir` but that parent fsync, so
    /// stores in different directories may be opened concurrently.
    pub fn open(
        dir: &Path,
        config: StoreConfig,
        objects: usize,
        template: DurableState,
    ) -> Result<(Self, Vec<DurableState>, RecoveryReport), StorageError> {
        Self::open_on(OsDisk, dir, config, objects, template)
    }

    /// Read-only recovery: reconstruct the per-object states a crashed
    /// node would boot with, without creating, truncating, rotating, or
    /// deleting anything. Objects are discovered from disk (`template`
    /// seeds any object a replayed op names that the snapshot did not),
    /// so a store that has never rebooted, and so holds no snapshot,
    /// lists only the objects its WAL names (always at least one).
    /// This is what `dynvote recover` prints per-object stats from.
    pub fn inspect(
        dir: &Path,
        template: DurableState,
    ) -> Result<(Vec<DurableState>, RecoveryReport), StorageError> {
        Self::inspect_on(&OsDisk, dir, template)
    }
}

impl<D: Disk> NodeStore<D> {
    /// [`NodeStore::open`] on `disk`.
    pub fn open_on(
        mut disk: D,
        dir: &Path,
        config: StoreConfig,
        objects: usize,
        template: DurableState,
    ) -> Result<(Self, Vec<DurableState>, RecoveryReport), StorageError> {
        assert!(objects >= 1, "a node hosts at least one object");
        let created = disk.create_dir_all(dir)?;
        let (states, report, max_epoch) = recover_multi(&disk, dir, &template, objects)?;
        let epoch = max_epoch + 1;

        let wal = if max_epoch == 0 {
            create_segment(&mut disk, dir, epoch)?
        } else {
            let mut payload = Vec::with_capacity(1024 * states.len());
            encode_states_into(&mut payload, &states);
            write_snapshot_bytes(&mut disk, dir, epoch, &payload)?;
            let segment = create_segment(&mut disk, dir, epoch)?;
            compact(&mut disk, dir, epoch)?;
            segment
        };
        if created {
            let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
            disk.sync_dir(parent.unwrap_or(Path::new(".")))?;
        }

        let mut pending = Vec::with_capacity(4096);
        pending.resize(FRAME, 0);
        let store = NodeStore {
            disk,
            dir: dir.to_path_buf(),
            config,
            epoch,
            wal,
            written: 16,
            pending,
            unsynced: false,
            last_fsync: Instant::now(),
        };
        Ok((store, states, report))
    }

    /// [`NodeStore::inspect`] on `disk`.
    pub fn inspect_on(
        disk: &D,
        dir: &Path,
        template: DurableState,
    ) -> Result<(Vec<DurableState>, RecoveryReport), StorageError> {
        let (states, report, _) = recover_multi(disk, dir, &template, 1)?;
        Ok((states, report))
    }

    /// The disk this store lives on.
    #[must_use]
    pub fn disk(&self) -> &D {
        &self.disk
    }

    /// The directory this store lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The live segment's epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bytes in the live segment (including not-yet-flushed ones).
    #[must_use]
    pub fn wal_len(&self) -> u64 {
        self.written + (self.pending.len() - FRAME) as u64
    }

    /// Buffer one object's op into the group-commit batch. Nothing
    /// reaches the file until [`NodeStore::barrier`] seals the batch.
    pub fn append(&mut self, object: ObjectId, op: &PersistOp) -> Result<(), StorageError> {
        encode_keyed_op_into(&mut self.pending, object, op);
        Ok(())
    }

    /// Buffer one object's persist effect — an
    /// [`Action::Persist`](dynvote_protocol::Action::Persist) — into the
    /// group-commit batch, reading an `Entries` effect's entries from
    /// `log`, that object's log. The bytes are exactly what
    /// [`NodeStore::append`] buffers for [`PersistEffect::op`], with no
    /// copy of the entries made on the way.
    pub fn append_effect(&mut self, object: ObjectId, effect: &PersistEffect, log: &[LogEntry]) {
        encode_keyed_effect_into(&mut self.pending, object, effect, log);
    }

    /// The group-commit barrier: seal the whole pending multi-object
    /// batch as **one** framed record, then fsync per policy. Every
    /// shard whose effects were buffered since the previous barrier
    /// becomes durable with this single force-write.
    pub fn barrier(&mut self) -> Result<(), StorageError> {
        if self.pending.len() > FRAME {
            let header = frame_header(&self.pending[FRAME..]);
            self.pending[..FRAME].copy_from_slice(&header);
            self.disk.append(&mut self.wal, &self.pending)?;
            self.written += self.pending.len() as u64;
            self.pending.truncate(FRAME);
            self.unsynced = true;
        }
        let due = match self.config.fsync {
            FsyncPolicy::Always => self.unsynced,
            FsyncPolicy::Interval(ms) => {
                self.unsynced && self.last_fsync.elapsed().as_millis() >= u128::from(ms)
            }
            FsyncPolicy::Never => false,
        };
        if due {
            self.disk.sync(&self.wal)?;
            self.unsynced = false;
            self.last_fsync = Instant::now();
        }
        Ok(())
    }

    /// True once the live segment has grown to [`ROTATE_BYTES`].
    /// The node polls this between batches and calls
    /// [`NodeStore::rotate`] with every shard's state — rotation is
    /// node-driven because the snapshot must cover all objects at once.
    #[must_use]
    pub fn wants_rotation(&self) -> bool {
        self.wal_len() >= ROTATE_BYTES
    }

    /// Snapshot all objects' states at the next epoch, switch to a
    /// fresh segment, and delete everything the snapshot covers.
    /// `states` are every object's states in object order, reflecting
    /// every op appended so far; ops still pending seal into the new
    /// segment at the next barrier, where replaying them over a
    /// snapshot that already holds them changes nothing.
    ///
    /// The segment is created first and the store switches to it before
    /// the snapshot is written, so no snapshot is ever newer than the
    /// segment being appended to. If the segment cannot be created,
    /// nothing changes. If the snapshot cannot be written, the old
    /// segment is not compacted and recovery replays it, then the new
    /// one, from the older snapshot.
    pub fn rotate<'a, I>(&mut self, states: I) -> Result<(), StorageError>
    where
        I: IntoIterator<Item = &'a DurableState>,
        I::IntoIter: ExactSizeIterator,
    {
        if self.unsynced {
            // Records sealed but not yet forced: force them before the
            // switch, since the snapshot that would subsume them may not
            // land.
            self.disk.sync(&self.wal)?;
        }
        let epoch = self.epoch + 1;
        self.wal = create_segment(&mut self.disk, &self.dir, epoch)?;
        self.epoch = epoch;
        self.written = 16;
        self.unsynced = false;
        let states = states.into_iter();
        let mut payload = Vec::with_capacity(1024 * states.len());
        encode_states_into(&mut payload, states);
        write_snapshot_bytes(&mut self.disk, &self.dir, epoch, &payload)?;
        compact(&mut self.disk, &self.dir, epoch)
    }
}

// ----- recovery ----------------------------------------------------------

/// The recovery scan: newest valid snapshot, then keyed replay of WAL
/// tails under the torn-tail rule. Returns the states, the report, and
/// the highest epoch seen on disk (0 for an empty directory). States
/// grow on demand (an op naming an object beyond the current map seeds
/// it from `template`) and never shrink below `min_objects`.
fn recover_multi<D: Disk>(
    disk: &D,
    dir: &Path,
    template: &DurableState,
    min_objects: usize,
) -> Result<(Vec<DurableState>, RecoveryReport, u64), StorageError> {
    let (snaps, wals) = list_epochs(disk, dir)?;
    let max_epoch = snaps.iter().chain(wals.iter()).copied().max().unwrap_or(0);

    let mut report = RecoveryReport::default();
    let mut states: Vec<DurableState> = vec![template.clone(); min_objects];
    let mut base_epoch = 0u64;
    for &epoch in snaps.iter().rev() {
        let path = dir.join(snap_name(epoch));
        let decoded = read_snapshot_bytes(disk, &path, epoch)
            .and_then(|payload| decode_states(&payload).ok());
        match decoded {
            Some(snapped) => {
                for (o, state) in snapped.into_iter().enumerate() {
                    if o < states.len() {
                        states[o] = state;
                    } else {
                        states.push(state);
                    }
                }
                base_epoch = epoch;
                report.snapshot_epoch = Some(epoch);
                break;
            }
            None => report.corrupt_snapshots += 1,
        }
    }

    'replay: for &epoch in wals.iter().filter(|&&e| e >= base_epoch) {
        let bytes = disk.read(&dir.join(wal_name(epoch)))?;
        let mut expected_header = Vec::with_capacity(16);
        expected_header.extend_from_slice(WAL_MAGIC_MULTI);
        expected_header.extend_from_slice(&epoch.to_le_bytes());
        if bytes.len() < 16 || bytes[..16] != expected_header[..] {
            // The segment was killed mid-creation: its header never
            // made it down. Nothing in it is trustworthy.
            report.truncated = Some(TornTail {
                epoch,
                offset: 0,
                reason: TornReason::ShortHeader,
            });
            break 'replay;
        }
        report.segments_replayed += 1;
        let mut scanner = RecordScanner::new(&bytes[16..]);
        loop {
            match scanner.next_keyed() {
                Some(Ok(ops)) => {
                    // One record = one step of every object it names:
                    // apply the whole batch. The scanner already
                    // rejected any record it could not decode in full.
                    for (object, op) in &ops {
                        while object.index() >= states.len() {
                            states.push(template.clone());
                        }
                        apply_op(&mut states[object.index()], op);
                    }
                    report.records_replayed += 1;
                }
                Some(Err(reason)) => {
                    report.truncated = Some(TornTail {
                        epoch,
                        offset: 16 + scanner.valid_end() as u64,
                        reason,
                    });
                    // Torn-tail rule: nothing after the first invalid
                    // record is trusted, in this segment or any later
                    // one.
                    break 'replay;
                }
                None => break,
            }
        }
    }
    Ok((states, report, max_epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_core::{CopyMeta, Distinguished, SiteId, SiteSet};
    use dynvote_protocol::{LogEntry, TxnId};
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dynvote-multi-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn commit_ops(object: u32, version: u64) -> Vec<(ObjectId, PersistOp)> {
        let txn = TxnId::keyed(SiteId(0), version, ObjectId(object));
        let meta = CopyMeta {
            version,
            cardinality: 3,
            distinguished: Distinguished::Irrelevant,
        };
        vec![
            (
                ObjectId(object),
                PersistOp::Entries(vec![LogEntry {
                    version,
                    payload: u64::from(object) * 1000 + version,
                }]),
            ),
            (ObjectId(object), PersistOp::Meta(meta)),
            (
                ObjectId(object),
                PersistOp::Committed(txn, meta, SiteSet::all(3)),
            ),
        ]
    }

    #[test]
    fn group_commit_batch_recovers_per_object() {
        let dir = tmpdir("group");
        let template = DurableState::initial(3);
        let (mut store, states, report) =
            NodeStore::open(&dir, StoreConfig::default(), 4, template.clone()).unwrap();
        assert_eq!(states.len(), 4);
        assert_eq!(report.records_replayed, 0);

        // One batch interleaving three objects' steps, sealed by a
        // single barrier.
        for ops in [commit_ops(0, 1), commit_ops(2, 1), commit_ops(3, 1)] {
            for (object, op) in &ops {
                store.append(*object, op).unwrap();
            }
        }
        store.barrier().unwrap();
        drop(store);

        let (reopened, states, report) =
            NodeStore::open(&dir, StoreConfig::default(), 4, template).unwrap();
        assert_eq!(report.records_replayed, 1, "one batch = one record");
        assert_eq!(states[0].meta.version, 1);
        assert_eq!(states[1].meta.version, 0, "untouched object stays fresh");
        assert_eq!(states[2].meta.version, 1);
        assert_eq!(states[3].meta.version, 1);
        assert_eq!(states[0].log[0].payload, 1);
        assert_eq!(states[3].log[0].payload, 3001);
        drop(reopened);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_snapshots_all_objects_and_compacts() {
        let dir = tmpdir("rotate");
        let template = DurableState::initial(3);
        let (mut store, mut states, _) =
            NodeStore::open(&dir, StoreConfig::default(), 2, template.clone()).unwrap();
        for (object, op) in commit_ops(1, 1) {
            store.append(object, &op).unwrap();
            apply_op(&mut states[1], &op);
        }
        store.barrier().unwrap();
        let old_epoch = store.epoch();
        store.rotate(&states).unwrap();
        assert_eq!(store.epoch(), old_epoch + 1);
        assert!(!dir.join(wal_name(old_epoch)).exists(), "compacted");
        drop(store);

        let (_, recovered, report) =
            NodeStore::open(&dir, StoreConfig::default(), 2, template).unwrap();
        assert_eq!(report.records_replayed, 0, "snapshot subsumed the WAL");
        assert_eq!(recovered[1].meta.version, 1);
        assert_eq!(recovered[0].meta.version, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_multi_record_loses_whole_batch_only() {
        let dir = tmpdir("torn");
        let template = DurableState::initial(3);
        let (mut store, _, _) =
            NodeStore::open(&dir, StoreConfig::default(), 2, template.clone()).unwrap();
        for (object, op) in commit_ops(0, 1) {
            store.append(object, &op).unwrap();
        }
        store.barrier().unwrap();
        for (object, op) in commit_ops(1, 1) {
            store.append(object, &op).unwrap();
        }
        store.barrier().unwrap();
        let wal_path = dir.join(wal_name(store.epoch()));
        drop(store);

        // Tear the tail: chop the last record short.
        let bytes = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();

        let (states, report) = NodeStore::inspect(&dir, template).unwrap();
        assert!(report.truncated.is_some());
        assert_eq!(report.records_replayed, 1);
        assert_eq!(states[0].meta.version, 1, "first batch survives whole");
        // No snapshot lists object 1, so only a surviving op could.
        assert!(
            states.len() < 2 || states[1].meta.version == 0,
            "torn batch fully discarded"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The effect a kernel emits for one of [`commit_ops`]'s ops, with
    /// the log its entries are read from.
    fn as_effect(op: &PersistOp) -> (PersistEffect, Vec<LogEntry>) {
        match op {
            PersistOp::Entries(entries) => {
                let upto = entries.len() as u64;
                (PersistEffect::Entries { after: 0, upto }, entries.clone())
            }
            PersistOp::Meta(m) => (PersistEffect::Meta(*m), Vec::new()),
            PersistOp::Committed(t, m, p) => (PersistEffect::Committed(*t, *m, *p), Vec::new()),
            other => panic!("unexpected op {other:?}"),
        }
    }

    /// Four objects' commits in the order a node's kernel steps
    /// interleave them: each object's ops in order, different objects'
    /// ops mixed.
    fn interleaved_steps() -> Vec<(ObjectId, PersistOp)> {
        let per_object: Vec<Vec<(ObjectId, PersistOp)>> =
            [0u32, 2, 1, 3].map(|o| commit_ops(o, 1)).into();
        let steps = per_object[0].len();
        (0..steps)
            .flat_map(|step| per_object.iter().map(move |ops| ops[step].clone()))
            .collect()
    }

    #[test]
    fn node_stage_merges_into_one_record_with_append_bytes() {
        // Two directories, same steps: one appended as owned ops, one
        // fed as the effects the node's merge barrier reads out of its
        // action buffer. Both must hold one record with the same bytes.
        let template = DurableState::initial(3);
        let dir_direct = tmpdir("staged-direct");
        let (mut direct, _, _) =
            NodeStore::open(&dir_direct, StoreConfig::default(), 4, template.clone()).unwrap();
        for (o, op) in interleaved_steps() {
            direct.append(o, &op).unwrap();
        }
        direct.barrier().unwrap();
        let direct_wal = fs::read(dir_direct.join(wal_name(direct.epoch()))).unwrap();
        drop(direct);

        let dir_effects = tmpdir("staged-node");
        let (mut store, _, _) =
            NodeStore::open(&dir_effects, StoreConfig::default(), 4, template.clone()).unwrap();
        for (o, op) in interleaved_steps() {
            let (effect, log) = as_effect(&op);
            store.append_effect(o, &effect, &log);
        }
        store.barrier().unwrap();
        let wal = fs::read(dir_effects.join(wal_name(store.epoch()))).unwrap();
        assert_eq!(wal, direct_wal);
        drop(store);

        let (direct, direct_report) = NodeStore::inspect(&dir_direct, template.clone()).unwrap();
        let (effects, effects_report) = NodeStore::inspect(&dir_effects, template).unwrap();
        assert_eq!(direct_report.records_replayed, 1);
        assert_eq!(effects_report.records_replayed, 1, "still one record");
        assert_eq!(direct, effects);
        let _ = fs::remove_dir_all(&dir_direct);
        let _ = fs::remove_dir_all(&dir_effects);
    }

    #[test]
    fn shards_share_one_store_and_one_barrier() {
        let dir = tmpdir("handles");
        let template = DurableState::initial(3);
        let (mut store, _, _) =
            NodeStore::open(&dir, StoreConfig::default(), 2, template.clone()).unwrap();
        store.append_effect(ObjectId(0), &PersistEffect::Seq(1), &[]);
        store.append_effect(ObjectId(1), &PersistEffect::Seq(5), &[]);
        store.barrier().unwrap();
        drop(store);

        let (states, report) = NodeStore::inspect(&dir, template).unwrap();
        assert_eq!(report.records_replayed, 1, "both shards in one record");
        assert_eq!(states[0].next_seq, 1);
        assert_eq!(states[1].next_seq, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A rotation that fails part-way must not strand later commits:
    /// recovery starts from the newest snapshot and replays only
    /// segments of its epoch or later, so a snapshot newer than the
    /// segment being appended to would hide every append after it.
    /// Each step of the rotation is made to fail in turn by planting a
    /// directory where its file goes.
    #[test]
    fn failed_rotation_loses_no_later_commit() {
        for blocked in [wal_name(2), snap_name(2)] {
            let dir = tmpdir("rotate-fail");
            let template = DurableState::initial(3);
            let (mut store, mut states, _) =
                NodeStore::open(&dir, StoreConfig::default(), 1, template.clone()).unwrap();
            let commit = |store: &mut NodeStore, states: &mut [DurableState], version| {
                for (object, op) in commit_ops(0, version) {
                    store.append(object, &op).unwrap();
                    apply_op(&mut states[0], &op);
                }
                store.barrier().unwrap();
            };
            commit(&mut store, &mut states, 1);
            assert_eq!(store.epoch(), 1);
            fs::create_dir(dir.join(&blocked)).unwrap();
            assert!(store.rotate(&states).is_err(), "{blocked} did not block");
            fs::remove_dir(dir.join(&blocked)).unwrap();
            commit(&mut store, &mut states, 2);
            drop(store);

            let (_, recovered, report) =
                NodeStore::open(&dir, StoreConfig::default(), 1, template).unwrap();
            assert_eq!(recovered[0].meta.version, 2, "{blocked}: {report:?}");
            assert_eq!(recovered[0].log.len(), 2);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
