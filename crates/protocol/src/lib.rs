//! # dynvote-protocol — the sans-IO dynamic-voting protocol kernel
//!
//! The paper's Section V protocol — three-phase voting (vote → catch-up
//! → commit) inside two-phase commit, the cooperative termination
//! protocol, and the `Make_Current` restart protocol — implemented once
//! as a pure state machine, [`SiteActor`]:
//!
//! ```text
//! Input  ->  SiteActor::step  ->  Vec<Action>
//! ```
//!
//! The kernel owns no clock, no RNG and no socket. Every input is one
//! [`Input`] value (request, message, timer, crash, recover, ...) fed
//! to [`SiteActor::step`]; every effect is an appended [`Action`]
//! (send, broadcast, set-timer, resolved, commit-recorded, persist,
//! event) for a *harness* to interpret. Two harnesses exist:
//!
//! * `dynvote-sim` — a discrete-event simulator under a virtual clock
//!   and an adversarial fault layer;
//! * `dynvote-cluster` — a live multi-threaded runtime on wall clocks
//!   and real transports (in-process channels or loopback TCP).
//!
//! Because both interpret the same kernel, scripted scenarios converge
//! to byte-identical per-site `(VN, SC, DS)` metadata on every
//! substrate — pinned by the three-way conformance tests.
//!
//! Observability is part of the kernel's contract: every protocol
//! decision (votes, quorums, catch-ups, force-writes, commits, aborts,
//! termination rounds, crash/recover) is an [`Action::Event`] carrying
//! a typed [`ProtocolEvent`], which the harness counts — see [`event`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod event;
mod message;
pub mod persist;
mod shard;
mod site;

pub use event::{EventKind, EventTallies, ProtocolEvent};
pub use message::{LogEntry, Message, ObjectId, StatusOutcome, TxnId};
pub use persist::{PersistEffect, Persistence};
pub use shard::ShardedSite;
pub use site::{
    Action, ActionSink, CloseCause, CommitRecord, DurableState, Hint, Input, ResolveReason,
    SiteActor, TimerKind,
};
