//! # dynvote-net — readiness-based networking primitives
//!
//! A std-only, libc-free networking layer for the cluster: a
//! hand-rolled epoll reactor core plus the incremental decoders the
//! reactor feeds. Nothing in this crate knows about the voting
//! protocol; `dynvote-cluster` composes these pieces into a per-node
//! reactor thread that multiplexes every peer connection and the HTTP
//! client front door.
//!
//! ```text
//! sys    raw syscalls: epoll_create1/ctl/pwait, pipe2, socket, connect
//! poll   Poller / Token / Interest / Events / Waker (mio-shaped)
//! frame  incremental u32-length-prefixed frame decoding
//! http   incremental HTTP/1.1 request + response parsing
//! ```
//!
//! Timer integration: the reactor owns a
//! [`dynvote_core::TimerWheel`]`<Instant, _>` and passes
//! `next_deadline() - now` as the [`Poller::wait`] timeout — see
//! [`poll_timeout`]. Level-triggered discipline, write-queue
//! backpressure, and ownership rules are documented in the workspace
//! DESIGN.md ("Readiness loop and front door").

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod frame;
pub mod http;
pub mod poll;
pub mod sys;

pub use frame::{FrameDecoder, FrameError};
pub use http::{HttpError, Method, Request, RequestParser, Response, ResponseParser};
pub use poll::{Event, Events, Interest, Poller, Token, Waker};

use std::time::{Duration, Instant};

/// Convert a timer wheel's next deadline into a `Poller::wait` timeout:
/// `None` means no timers are scheduled (block until I/O), `Some(0)`
/// means a timer is already due.
pub fn poll_timeout(next_deadline: Option<Instant>, now: Instant) -> Option<Duration> {
    next_deadline.map(|dl| dl.saturating_duration_since(now))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_timeout_clamps() {
        let now = Instant::now();
        assert_eq!(poll_timeout(None, now), None);
        assert_eq!(
            poll_timeout(Some(now), now + Duration::from_millis(5)),
            Some(Duration::ZERO)
        );
        let dl = now + Duration::from_millis(80);
        assert_eq!(poll_timeout(Some(dl), now), Some(Duration::from_millis(80)));
    }
}
