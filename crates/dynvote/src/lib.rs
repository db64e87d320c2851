//! # dynvote — dynamic voting replica control
//!
//! A production-grade Rust implementation of the *dynamic voting* family
//! of pessimistic replica control algorithms (Jajodia & Mutchler:
//! "Dynamic Voting", SIGMOD 1987, and "A Hybrid Replica Control
//! Algorithm Combining Static and Dynamic Voting"), complete with the
//! analytic and simulation machinery that reproduces every table and
//! figure of the papers' evaluations.
//!
//! This facade re-exports the underlying crates:
//!
//! * [`core`](dynvote_core) — the algorithms themselves: metadata,
//!   decision rules, quorums, and a model-level executable system;
//! * [`protocol`] — the sans-IO protocol kernel:
//!   [`SiteActor`](dynvote_protocol::SiteActor) turning messages into
//!   actions, with a structured
//!   [`ProtocolEvent`](dynvote_protocol::ProtocolEvent) stream;
//! * [`sim`] — a message-level discrete-event distributed
//!   database running the full three-phase protocol under fault
//!   injection;
//! * [`cluster`] — a live multi-threaded cluster: the same protocol
//!   kernel on wall clocks and real transports (in-process channels or
//!   loopback TCP), plus a closed-loop load generator;
//! * [`markov`] — exact availability analysis via
//!   hand-derived and machine-derived Markov chains;
//! * [`mc`] — Monte-Carlo simulation of the stochastic
//!   availability model.
//!
//! ## Which entry point do I want?
//!
//! | Goal | Start at |
//! |---|---|
//! | Decide/commit logic for my own replication layer | [`ReplicaControl`], [`algorithms`] |
//! | Drive the full commit protocol from my own event loop | [`protocol::SiteActor`] |
//! | "What would algorithm X do in partition Y?" | [`ReplicaSystem`] |
//! | Exact availability numbers | [`markov::availability`](dynvote_markov::sweep::availability) |
//! | Protocol behaviour under crashes and partitions | [`sim::Simulation`] |
//! | Run a real multi-threaded cluster and load it | [`cluster::Cluster`], [`cluster::LoadGen`] |
//! | Reproduce the paper | the `dynvote` CLI (`crates/cli`) and `EXPERIMENTS.md` |
//!
//! ```
//! use dynvote::{AlgorithmKind, ReplicaSystem, SiteSet, markov};
//!
//! // Serve updates through a partition...
//! let mut system = ReplicaSystem::new(5, AlgorithmKind::Hybrid.instantiate(5));
//! assert!(system.attempt_update(SiteSet::parse("ABC").unwrap()).committed());
//! assert!(!system.attempt_update(SiteSet::parse("DE").unwrap()).committed());
//!
//! // ...and know exactly how often that will work in the long run.
//! let availability = markov::availability(AlgorithmKind::Hybrid, 5, 2.0);
//! assert!((availability - 0.6425).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dynvote_core::*;

/// Live multi-threaded cluster runtime (re-export of `dynvote-cluster`).
pub use dynvote_cluster as cluster;
/// Analytic availability (re-export of `dynvote-markov`).
pub use dynvote_markov as markov;
/// Monte-Carlo model simulation (re-export of `dynvote-mc`).
pub use dynvote_mc as mc;
/// Sans-IO protocol kernel and event layer (re-export of
/// `dynvote-protocol`).
pub use dynvote_protocol as protocol;
/// Message-level protocol simulation (re-export of `dynvote-sim`).
pub use dynvote_sim as sim;
