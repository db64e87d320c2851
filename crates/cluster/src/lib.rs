//! # dynvote-cluster — a live multi-threaded dynamic-voting cluster
//!
//! The simulator in `dynvote-sim` drives the protocol kernel
//! ([`dynvote_protocol::SiteActor`]) under a virtual clock and an
//! omniscient in-memory network. This crate runs the *same kernel*
//! against wall clocks and real byte streams: one OS thread per site,
//! each hosting a node whose sends and replies are data the thread
//! transmits over in-process channels or TCP, and a [`LoadGen`] that
//! drives any client, closed loop or paced on a fixed clock, and
//! measures throughput and latency percentiles of the resulting system.
//!
//! The layering is strictly sans-IO:
//!
//! ```text
//! dynvote-core      PartitionView / ReplicaControl   (pure decision rules)
//! dynvote-protocol  SiteActor: Message -> Vec<Action> (pure protocol kernel)
//! dynvote-net       epoll reactor primitives + incremental frame/HTTP decode
//! dynvote-node      Node: Action -> outbox (sends, replies to host tokens)
//!                   + deadlines against the host's `now`
//! this crate        hosts: in-process channels, or the per-node epoll
//!                   reactor multiplexing peer links, binary clients, and
//!                   the HTTP front door (`/v1/op`, `/metrics`, `/status`)
//!                   Cluster / LoadGen: boot, faults, measurement
//! ```
//!
//! Because the kernel is shared, a scripted scenario executed on the
//! simulator, on the channel transport, and on the TCP transport must
//! reach byte-identical per-site `(VN, SC, DS)` metadata — the
//! conformance suite in `tests/conformance.rs` pins exactly that for
//! all six algorithms.
//!
//! ## Quickstart
//!
//! ```
//! use dynvote_cluster::{Cluster, ClusterConfig, TransportKind};
//! use dynvote_core::AlgorithmKind;
//!
//! let config = ClusterConfig::new(5, AlgorithmKind::Hybrid);
//! let cluster = Cluster::boot(&config).unwrap();
//! let mut client = cluster.client(dynvote_core::SiteId(0));
//! let reply = client.update().unwrap();
//! assert!(matches!(reply, dynvote_cluster::ClientReply::Committed { version: 1 }));
//! cluster.shutdown();
//! # let _ = TransportKind::Channel;
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod audit;
mod cluster;
mod frontdoor;
mod loadgen;
mod reactor;
pub mod scenario;
mod transport;
pub mod wire;

pub use audit::{audit_logs, AuditOutcome};
pub use cluster::{
    BootError, Cluster, ClusterConfig, DurabilityMode, HttpClient, LocalClient, RequestError,
    TcpClient, TransportKind, MAX_BATCH, MAX_OBJECTS,
};
pub use dynvote_node::{NodeConfig, ShardStats, DEFAULT_MAX_BATCH};
pub use frontdoor::FrontDoorConfig;
pub use loadgen::{
    check_concurrency, EventCountEntry, Histogram, KeyDist, LoadGen, LoadGenConfig, LoadReport,
    NetCounterEntry, ShardCounterEntry, WorkloadTarget,
};
pub use transport::NetStats;
pub use wire::{ClientOp, ClientReply, WireError};
