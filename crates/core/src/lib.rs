//! # dynvote-core — replica control by dynamic voting
//!
//! A from-scratch implementation of the family of *pessimistic replica
//! control algorithms* around **dynamic voting** (Jajodia & Mutchler,
//! SIGMOD 1987) and the **hybrid static/dynamic algorithm** of Jajodia &
//! Mutchler's "A Hybrid Replica Control Algorithm Combining Static and
//! Dynamic Voting".
//!
//! A replicated file is stored at `n` sites. Site and link failures may
//! split the network into partitions; a pessimistic algorithm allows
//! updates in at most one partition at a time (the *distinguished
//! partition*) so that copies never diverge. The algorithms here differ
//! only in how the distinguished partition is defined:
//!
//! * [`algorithms::StaticVoting`] — a fixed (weighted) majority;
//! * [`algorithms::DynamicVoting`] — a majority of the copies that were
//!   written by the most recent update;
//! * [`algorithms::DynamicLinear`] — dynamic voting plus a
//!   distinguished-site tie-break, letting the quorum shrink to one site;
//! * [`algorithms::Hybrid`] — dynamic-linear that freezes into a static
//!   three-site scheme when the quorum reaches three sites;
//! * [`algorithms::ModifiedHybrid`] / [`algorithms::OptimalCandidate`] —
//!   the Section VII refinements.
//!
//! ## Quickstart
//!
//! ```
//! use dynvote_core::{ReplicaSystem, SiteSet, algorithms::Hybrid};
//!
//! // A file replicated at five sites, managed by the hybrid algorithm.
//! let mut system = ReplicaSystem::new(5, Hybrid::new());
//!
//! // The full network commits an update.
//! assert!(system.attempt_update(SiteSet::all(5)).committed());
//!
//! // The network partitions; A, B and C still form a quorum...
//! let abc = SiteSet::parse("ABC").unwrap();
//! assert!(system.attempt_update(abc).committed());
//!
//! // ...and the minority partition is refused.
//! let de = SiteSet::parse("DE").unwrap();
//! assert!(!system.attempt_update(de).committed());
//! ```
//!
//! The decision kernel ([`ReplicaControl`]) is pure; everything driving
//! real executions (message-level protocol, Markov availability analysis,
//! Monte-Carlo simulation) lives in the sibling crates `dynvote-sim`,
//! `dynvote-markov` and `dynvote-mc`, all consuming this kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod algorithm;
pub mod algorithms;
mod backoff;
mod config;
mod meta;
pub mod multifile;
pub mod par;
pub mod quorum;
pub mod scenario;
mod site;
mod timer;
mod view;

pub use algorithm::{AcceptRule, AlgorithmKind, ReplicaControl, UnknownAlgorithm, Verdict};
pub use backoff::BackoffPolicy;
pub use config::{
    check_non_negative, check_positive, check_probability, check_site_count, ConfigError,
};
pub use meta::{CopyMeta, Distinguished};
pub use multifile::{FileId, MultiFileSystem, Transaction, TransactionOutcome};
pub use scenario::{
    fig1_partition_graph, run_scenario, ReplicaSystem, ScenarioStep, StepReport, UpdateOutcome,
};
pub use site::{LinearOrder, SiteId, SiteSet, MAX_SITES};
pub use timer::{TimerId, TimerWheel, VirtualInstant};
pub use view::{PartitionView, ViewError};
