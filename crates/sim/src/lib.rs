//! # dynvote-sim — a message-level distributed database simulator
//!
//! The paper specifies its replica control protocol operationally
//! (Section V): a three-phase exchange — voting, catch-up, commit —
//! embedded in two-phase commit, plus a restart protocol for recovering
//! sites and a termination protocol for transactions interrupted by
//! failures. The paper itself evaluates only analytically; this crate
//! *executes* the protocol, so its safety claims can be tested under
//! crashes, link failures, partitions, message loss and races:
//!
//! * [`SiteActor`] — the per-site state machine: coordinator,
//!   subordinate and restart roles; a durable/volatile state split with
//!   classic 2PC force-writes (prepare records before voting, commit
//!   records before announcing);
//! * [`Topology`] — sites, links, partitions as connected components;
//! * [`Simulation`] — the one deterministic discrete-event engine:
//!   message latency, loss, fault injection, Poisson workloads,
//!   read-only requests (paper footnote 5) and an *omniscient ledger*
//!   that flags any violation of one-copy serializability the instant
//!   it happens. Every site hosts one protocol instance per file: one
//!   file by default, several with [`Simulation::with_files`];
//! * [`multi`] — **atomic cross-file transactions** (paper footnote 2)
//!   on that engine: [`Simulation::submit_group`], per-site transaction
//!   managers, durable group commit records, crash redo, and the
//!   [`Simulation::check_atomicity`] audit;
//! * [`FaultSchedule`] — the nemesis layer: a serde-serializable DSL of
//!   windowed fault behaviors (crash storms, rolling and asymmetric
//!   one-way partitions, lossy bursts, duplication, reordering) that
//!   replays bit-for-bit from JSON, plus [`nemesis::minimize`], which
//!   delta-debugs a failing schedule to a minimal reproducer.
//!
//! ```
//! use dynvote_core::{AlgorithmKind, SiteId, SiteSet};
//! use dynvote_sim::{SimConfig, Simulation};
//!
//! let mut sim = Simulation::new(SimConfig {
//!     n: 5,
//!     algorithm: AlgorithmKind::Hybrid,
//!     ..SimConfig::default()
//! });
//! sim.submit_update(SiteId(0));
//! sim.quiesce();
//! assert_eq!(sim.stats().commits, 1);
//!
//! // Partition the network: the minority side is refused.
//! sim.impose_partitions(&[
//!     SiteSet::parse("AB").unwrap(),
//!     SiteSet::parse("CDE").unwrap(),
//! ]);
//! sim.submit_update(SiteId(0));
//! sim.quiesce();
//! assert_eq!(sim.stats().rejected, 1);
//! assert!(sim.check_invariants().is_empty());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod engine;
pub mod experiments;
pub mod multi;
pub mod nemesis;
mod topology;

pub use dynvote_core::ConfigError;
pub use dynvote_protocol::{
    Action, DurableState, EventKind, EventTallies, LogEntry, Message, ObjectId, ProtocolEvent,
    ResolveReason, SiteActor, StatusOutcome, TimerKind, TxnId,
};
pub use engine::{ConsistencyViolation, LedgerEntry, SimConfig, SimStats, Simulation};
pub use experiments::{results_to_csv, ExperimentPlan, ExperimentResult};
pub use multi::{GroupId, GroupStats};
pub use nemesis::{minimize, FaultSchedule, NemesisEvent, NemesisProfile};
pub use topology::Topology;
