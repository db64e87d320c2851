//! # dynvote-storage — durable on-disk state for dynamic-voting sites
//!
//! The paper's Section V restart protocol assumes each site can replay
//! its durable `(VN, SC, DS)` triple, commit log, commit records, and
//! prepare record after a crash. This crate makes that assumption a
//! mechanism: a hand-rolled, CRC-checksummed write-ahead log plus
//! periodic snapshots, rotation/compaction, and recovery that obeys the
//! torn-tail rule.
//!
//! * [`NodeStore`] — the store: one WAL shared by every object a node
//!   hosts, group-commit barriers that seal many shards' steps as one
//!   record, node-wide snapshots. The node that owns it feeds it the
//!   kernels' [`Action::Persist`](dynvote_protocol::Action::Persist)
//!   effects ([`NodeStore::append_effect`]) and seals them before any
//!   action behind them leaves, so under [`FsyncPolicy::Always`] the
//!   prepare record is on disk before the vote is sent, the commit
//!   record before `COMMIT` fans out.
//! * [`disk`] — the one door to the filesystem: [`NodeStore`] is
//!   generic over a [`Disk`], [`OsDisk`] by default, and [`MemDisk`]
//!   holds the files in memory with a crash that keeps synced bytes only.
//! * [`wal`] — record/snapshot byte formats, built on the protocol
//!   crate's codec primitives.
//! * [`crc32`] — table-driven CRC-32 (IEEE), no external crates.
//!
//! Std-only by design: the container builds offline, and a WAL is an
//! excellent fit for plain `std::fs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod crc32;
pub mod disk;
mod multi;
mod store;
pub mod wal;

pub use disk::{Disk, MemDisk, OsDisk};
pub use multi::NodeStore;
pub use store::{FsyncPolicy, RecoveryReport, StorageError, StoreConfig, TornTail, ROTATE_BYTES};
pub use wal::TornReason;
