//! Store configuration, the recovery report, and the epoch-pair file
//! lifecycle [`NodeStore`](crate::NodeStore) is built on.
//!
//! A data directory holds epoch-numbered pairs:
//!
//! ```text
//! snap-0000000000000007   state as of the epoch-7 rotation
//! wal-0000000000000007    records appended since that snapshot
//! ```
//!
//! A **rotation** (checkpoint) moves from epoch `E` to `E+1`: open a
//! fresh `wal-(E+1)` and append there from then on, write `snap-(E+1)`
//! (tmp file → fsync → rename → fsync dir), then delete every file of
//! epoch ≤ `E` — compaction is just that deletion, since the new
//! snapshot subsumes everything the old segments said. The segment
//! comes first so that no snapshot is ever newer than the segment being
//! appended to: recovery replays only segments at or past the snapshot
//! it starts from.
//!
//! **Recovery** inverts this: load the newest snapshot that passes its
//! CRC (falling back to older ones if the newest is corrupt), replay
//! every WAL segment of an epoch ≥ the snapshot's in ascending order,
//! and stop at the first torn record (see [`crate::wal`]). Every open
//! starts a fresh, empty segment, so each life writes its own. Opening
//! a store with history ends with a rotation, so that boot starts from
//! a clean `snapshot + empty WAL` pair and torn tails are physically
//! discarded, not just skipped. A directory with nothing to recover
//! gets only `wal-1`: no snapshot is what recovery reads as the initial
//! state anyway.

use crate::crc32::crc32;
use crate::disk::Disk;
use crate::wal::{TornReason, MAX_RECORD, SNAP_MAGIC_MULTI, WAL_MAGIC_MULTI};
use std::path::{Path, PathBuf};

/// Whether a sealed record is forced to the platter before the barrier
/// that sealed it returns.
///
/// Ops always buffer in memory until the force-write barrier
/// ([`NodeStore::barrier`](crate::NodeStore::barrier)) seals them as
/// one record — that is what makes a protocol step atomic on disk. The
/// policy only decides whether the barrier also fsyncs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` at every barrier that sealed a record — the classic
    /// force-write discipline: nothing acknowledged is lost, even to a
    /// power loss.
    Always,
    /// Write each sealed record to the OS but never fsync it; the
    /// kernel flushes on its own schedule. Survives a process kill,
    /// not a power loss.
    Never,
}

impl FsyncPolicy {
    /// Parse a CLI-style spec: `always` or `never`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy {other:?} (expected always | never)"
            )),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Rotate (snapshot + compact) once the live segment has grown to this
/// many bytes.
pub const ROTATE_BYTES: u64 = 4 * 1024 * 1024;

/// Store settings.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Fsync discipline for WAL appends.
    pub fsync: FsyncPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            fsync: FsyncPolicy::Always,
        }
    }
}

/// A storage failure, with the path it happened on.
#[derive(Debug)]
pub enum StorageError {
    /// An I/O operation failed.
    Io {
        /// File or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { path, source } => {
                write!(f, "storage I/O error at {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
        }
    }
}

/// Where a replay stopped short: the torn tail recovery cut off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Epoch of the segment holding the bad record.
    pub epoch: u64,
    /// Byte offset (within the file) where the valid prefix ends.
    pub offset: u64,
    /// What was wrong with the first invalid record.
    pub reason: TornReason,
}

/// What recovery found and did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Epoch of the snapshot recovery started from (`None` = fresh
    /// directory, started from the initial state).
    pub snapshot_epoch: Option<u64>,
    /// Snapshots that failed validation and were skipped.
    pub corrupt_snapshots: u32,
    /// WAL segments whose records were replayed.
    pub segments_replayed: u32,
    /// Valid records replayed across all segments (one record = the
    /// batch of ops sealed at one force-write barrier).
    pub records_replayed: u64,
    /// Set when replay stopped at a torn/corrupt record.
    pub truncated: Option<TornTail>,
}

pub(crate) fn snap_name(epoch: u64) -> String {
    format!("snap-{epoch:016}")
}

pub(crate) fn wal_name(epoch: u64) -> String {
    format!("wal-{epoch:016}")
}

pub(crate) fn parse_epoch(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.parse().ok()
}

/// List the snapshot and WAL epochs present in `dir`, sorted ascending.
/// A missing directory lists as empty.
pub(crate) fn list_epochs<D: Disk>(
    disk: &D,
    dir: &Path,
) -> Result<(Vec<u64>, Vec<u64>), StorageError> {
    let mut snaps: Vec<u64> = Vec::new();
    let mut wals: Vec<u64> = Vec::new();
    for name in disk.list(dir)? {
        if let Some(epoch) = parse_epoch(&name, "snap-") {
            snaps.push(epoch);
        } else if let Some(epoch) = parse_epoch(&name, "wal-") {
            wals.push(epoch);
        }
    }
    snaps.sort_unstable();
    wals.sort_unstable();
    Ok((snaps, wals))
}

/// Create `wal-<epoch>` with its `magic + epoch` header, fsynced.
pub(crate) fn create_segment<D: Disk>(
    disk: &mut D,
    dir: &Path,
    epoch: u64,
) -> Result<D::File, StorageError> {
    let mut wal = disk.create(&dir.join(wal_name(epoch)))?;
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(WAL_MAGIC_MULTI);
    header.extend_from_slice(&epoch.to_le_bytes());
    disk.append(&mut wal, &header)?;
    disk.sync(&wal)?;
    disk.sync_dir(dir)?;
    Ok(wal)
}

/// Validate + read one snapshot file's payload (magic, epoch stamp,
/// length, CRC); `None` if anything is off.
pub(crate) fn read_snapshot_bytes<D: Disk>(
    disk: &D,
    path: &Path,
    expected_epoch: u64,
) -> Option<Vec<u8>> {
    let mut bytes = disk.read(path).ok()?;
    if bytes.len() < 24 || &bytes[..8] != SNAP_MAGIC_MULTI {
        return None;
    }
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if epoch != expected_epoch {
        return None;
    }
    let len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    if len > MAX_RECORD || bytes.len() != 24 + len {
        return None;
    }
    let payload = bytes.split_off(24);
    if crc32(&payload) != crc {
        return None;
    }
    Some(payload)
}

/// Atomically write `snap-<epoch>` holding `payload`: tmp file, fsync,
/// rename, fsync dir.
pub(crate) fn write_snapshot_bytes<D: Disk>(
    disk: &mut D,
    dir: &Path,
    epoch: u64,
    payload: &[u8],
) -> Result<(), StorageError> {
    let mut bytes = Vec::with_capacity(24 + payload.len());
    bytes.extend_from_slice(SNAP_MAGIC_MULTI);
    bytes.extend_from_slice(&epoch.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);

    let tmp = dir.join(format!("{}.tmp", snap_name(epoch)));
    let mut file = disk.create(&tmp)?;
    disk.append(&mut file, &bytes)?;
    disk.sync(&file)?;
    drop(file);
    disk.rename(&tmp, &dir.join(snap_name(epoch)))?;
    disk.sync_dir(dir)
}

/// Delete every snapshot/segment/tmp file of an epoch below `keep` —
/// the new snapshot subsumes them.
pub(crate) fn compact<D: Disk>(disk: &mut D, dir: &Path, keep: u64) -> Result<(), StorageError> {
    for name in disk.list(dir)? {
        let stale = parse_epoch(&name, "snap-").is_some_and(|e| e < keep)
            || parse_epoch(&name, "wal-").is_some_and(|e| e < keep)
            || name.ends_with(".tmp");
        if stale {
            let _ = disk.remove(&dir.join(name));
        }
    }
    disk.sync_dir(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses_its_two_forms_and_nothing_else() {
        for policy in [FsyncPolicy::Always, FsyncPolicy::Never] {
            assert_eq!(FsyncPolicy::parse(&policy.to_string()), Ok(policy));
        }
        for spec in ["batch", "interval:5", "", "ALWAYS"] {
            let err = FsyncPolicy::parse(spec).unwrap_err();
            assert!(err.contains("always | never"), "{spec:?}: {err}");
        }
    }
}
