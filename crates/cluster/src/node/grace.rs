//! The straggler grace: how long a round that already holds a
//! distinguished set of votes goes on waiting for the peers that have
//! not answered, before it closes without them and the node suspects
//! them.
//!
//! The vote deadline says how slow a live peer *may* be; the grace is
//! scaled to how fast this node's peers *have been* answering. Per peer
//! the scheduler keeps the smoothed vote latency and its mean deviation
//! (the RFC 6298 `srtt`/`rttvar` pair), sampled from the instant a
//! round's vote deadline is armed to the instant that peer's vote for
//! it reaches the node — votes that arrive after the round closed
//! included, or a peer that is steadily slower than the grace would be
//! left out of every round and never widen it. The grace is the largest
//! `srtt + 4·rttvar` over the peers, held between a fixed fraction of
//! the vote deadline and the deadline itself; a peer that has never
//! answered contributes the whole deadline, so a node shortcuts nothing
//! until it has heard every peer vote once.
//!
//! A round's record here is only its start instant, kept for those
//! samples. The timers guarding a round live in the node's timer map,
//! and the kernel's `ClearTimers` retires them.

use dynvote_core::SiteId;
use dynvote_protocol::TxnId;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// The grace is never shorter than this fraction of the vote deadline:
/// 3.125 ms at the default 25 ms, some ten healthy rounds. A harness
/// that needs a live but descheduled peer never to be left out
/// lengthens the vote deadline, which is the one setting that says how
/// slow a live peer may be.
pub(crate) const GRACE_FLOOR_DIVISOR: u32 = 8;

/// One peer's vote latency, RFC 6298 style, in nanoseconds.
#[derive(Debug, Clone, Copy)]
struct Rtt {
    srtt: u64,
    rttvar: u64,
}

impl Rtt {
    fn first(sample: u64) -> Rtt {
        Rtt {
            srtt: sample,
            rttvar: sample / 2,
        }
    }

    fn update(&mut self, sample: u64) {
        self.rttvar = (3 * self.rttvar + self.srtt.abs_diff(sample)) / 4;
        self.srtt = (7 * self.srtt + sample) / 8;
    }

    fn bound(self) -> Duration {
        Duration::from_nanos(self.srtt.saturating_add(4 * self.rttvar))
    }
}

/// Per-peer vote latency plus the recent rounds it is sampled against.
#[derive(Debug)]
pub(crate) struct VoteClock {
    peers: Vec<Option<Rtt>>,
    /// When each round coordinated here that started less than a vote
    /// deadline ago opened.
    rounds: HashMap<TxnId, Instant>,
    /// `rounds` in start order. Every round gets the same allowance, so
    /// start order is expiry order.
    order: VecDeque<(Instant, TxnId)>,
}

impl VoteClock {
    pub(crate) fn new(sites: usize) -> Self {
        VoteClock {
            peers: vec![None; sites],
            rounds: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The grace a round started now gets: see the module comment.
    pub(crate) fn grace(&self, me: SiteId, vote_deadline: Duration) -> Duration {
        let slowest = self
            .peers
            .iter()
            .enumerate()
            .filter(|&(peer, _)| peer != me.index())
            .map(|(_, rtt)| rtt.map_or(vote_deadline, Rtt::bound))
            .max()
            .unwrap_or(Duration::ZERO);
        slowest.clamp(vote_deadline / GRACE_FLOOR_DIVISOR, vote_deadline)
    }

    /// A round's voting phase starts at `now`. Rounds older than
    /// `vote_deadline` are forgotten: a vote that late says nothing the
    /// clamp would let through.
    pub(crate) fn open(&mut self, txn: TxnId, now: Instant, vote_deadline: Duration) {
        while let Some(&(started, old)) = self.order.front() {
            if now.saturating_duration_since(started) <= vote_deadline {
                break;
            }
            self.order.pop_front();
            self.rounds.remove(&old);
        }
        self.order.push_back((now, txn));
        self.rounds.insert(txn, now);
    }

    /// `peer`'s vote for `txn` reached the inbox at `now`. Returns the
    /// peer's smoothed latency when `txn` is a recent round of this
    /// node.
    pub(crate) fn sample(&mut self, txn: TxnId, peer: SiteId, now: Instant) -> Option<Duration> {
        let started = *self.rounds.get(&txn)?;
        let rtt = self.peers.get_mut(peer.index())?;
        let sample = now.saturating_duration_since(started).as_nanos() as u64;
        let rtt = match rtt {
            Some(rtt) => {
                rtt.update(sample);
                rtt
            }
            None => rtt.insert(Rtt::first(sample)),
        };
        Some(Duration::from_nanos(rtt.srtt))
    }

    /// A crash: everything here is volatile.
    pub(crate) fn reset(&mut self) {
        *self = VoteClock::new(self.peers.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEADLINE: Duration = Duration::from_millis(24);
    const FLOOR: Duration = Duration::from_millis(3);
    const ME: SiteId = SiteId(0);

    fn txn(seq: u64) -> TxnId {
        TxnId::new(ME, seq)
    }

    /// One round in which every peer in `votes` answers after its delay.
    fn round(clock: &mut VoteClock, seq: u64, at: Instant, votes: &[(u8, Duration)]) {
        clock.open(txn(seq), at, DEADLINE);
        for &(peer, after) in votes {
            clock.sample(txn(seq), SiteId(peer), at + after);
        }
    }

    #[test]
    fn no_shortcut_until_every_peer_has_voted_once() {
        let mut clock = VoteClock::new(3);
        let t0 = Instant::now();
        assert_eq!(clock.grace(ME, DEADLINE), DEADLINE);
        round(&mut clock, 1, t0, &[(1, Duration::from_micros(300))]);
        assert_eq!(clock.grace(ME, DEADLINE), DEADLINE, "peer 2 unheard");
        round(&mut clock, 2, t0, &[(2, Duration::from_micros(300))]);
        assert_eq!(clock.grace(ME, DEADLINE), FLOOR, "fast peers: the floor");
    }

    #[test]
    fn a_slow_but_live_peer_widens_the_grace_even_when_its_vote_is_late() {
        let mut clock = VoteClock::new(3);
        let t0 = Instant::now();
        let fast = Duration::from_micros(300);
        round(&mut clock, 1, t0, &[(1, fast), (2, fast)]);
        assert_eq!(clock.grace(ME, DEADLINE), FLOOR);
        // Peer 2 takes 6 ms: round 2 closed without it at the grace,
        // and its vote is sampled all the same.
        clock.open(txn(2), t0, DEADLINE);
        clock.sample(txn(2), SiteId(1), t0 + fast);
        let late = Duration::from_millis(6);
        assert!(clock.sample(txn(2), SiteId(2), t0 + late).is_some());
        let widened = clock.grace(ME, DEADLINE);
        assert!(widened > late && widened < DEADLINE, "{widened:?}");
        // A peer slower than the deadline cannot push the grace past it.
        for seq in 3..8 {
            round(&mut clock, seq, t0, &[(2, Duration::from_millis(40))]);
        }
        assert_eq!(clock.grace(ME, DEADLINE), DEADLINE);
    }

    #[test]
    fn rounds_older_than_the_deadline_are_forgotten() {
        let mut clock = VoteClock::new(2);
        let t0 = Instant::now();
        clock.open(txn(1), t0, DEADLINE);
        clock.open(txn(2), t0 + DEADLINE / 2, DEADLINE);
        clock.open(txn(3), t0 + DEADLINE * 2, DEADLINE);
        assert!(clock.sample(txn(1), SiteId(1), t0).is_none());
        assert!(clock.sample(txn(2), SiteId(1), t0 + DEADLINE).is_none());
        assert!(clock.sample(txn(3), SiteId(1), t0 + DEADLINE * 2).is_some());
        assert!(
            clock.sample(txn(3), SiteId(9), t0).is_none(),
            "no such peer"
        );
    }
}
