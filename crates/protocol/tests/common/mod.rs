//! An in-memory network for kernel tests: `n` [`SiteActor`]s, a FIFO
//! message queue, a timer list, crash/recover and partitions — and,
//! optionally, the per-site peer-suspicion bookkeeping a live node
//! does (learn from `Unanswered` at the deadline, forget on a frame
//! from a suspected peer, wipe on crash), so a run with the hint can be
//! compared with a run without it. Likewise the node's single-writer
//! routing (learn a home from `Rival`, hand later updates to it, bypass
//! an unreachable home, wipe on crash) can be switched on.

// Each test binary that includes this module uses a different subset.
#![allow(dead_code)]

use dynvote_core::{AlgorithmKind, SiteId, SiteSet};
use dynvote_protocol::{Action, Hint, Message, SiteActor, TimerKind, TxnId};
use std::collections::VecDeque;

pub struct Net {
    pub sites: Vec<SiteActor>,
    /// `Some` = hand each site its suspicion set before every message.
    suspected: Option<Vec<SiteSet>>,
    down: SiteSet,
    /// Sites in one group talk to each other only.
    groups: Vec<SiteSet>,
    queue: VecDeque<(SiteId, SiteId, Message)>,
    timers: Vec<(SiteId, TxnId, TimerKind)>,
    /// Rounds that closed ahead of their deadline.
    pub closed_early: u64,
    /// `Unanswered` actions seen at a deadline.
    pub deadlines_missed: u64,
    /// `Some` = act on `Rival` as a node does: per site, the
    /// lower-numbered site it last raced, if any.
    homes: Option<Vec<Option<SiteId>>>,
    /// `Rival` actions seen.
    pub rivals: u64,
    /// Updates coordinated at their origin's home instead of the origin.
    pub forwarded: u64,
}

impl Net {
    pub fn new(algorithm: AlgorithmKind, n: usize, hinted: bool) -> Net {
        Net {
            sites: (0..n)
                .map(|i| SiteActor::new(SiteId(i as u8), n, algorithm.instantiate(n)))
                .collect(),
            suspected: hinted.then(|| vec![SiteSet::EMPTY; n]),
            down: SiteSet::EMPTY,
            groups: vec![SiteSet::all(n)],
            queue: VecDeque::new(),
            timers: Vec::new(),
            closed_early: 0,
            deadlines_missed: 0,
            homes: None,
            rivals: 0,
            forwarded: 0,
        }
    }

    /// Switch single-writer routing on (see [`Net::submit_update`]).
    pub fn routed(mut self) -> Net {
        self.homes = Some(vec![None; self.n()]);
        self
    }

    /// Where `site` sends its updates (`None` when it coordinates them
    /// itself or routing is off).
    pub fn home_of(&self, site: SiteId) -> Option<SiteId> {
        self.homes.as_ref().and_then(|homes| homes[site.index()])
    }

    fn n(&self) -> usize {
        self.sites.len()
    }

    pub fn is_down(&self, site: SiteId) -> bool {
        self.down.contains(site)
    }

    /// What `site` currently suspects (empty when the hint is off).
    pub fn suspected_by(&self, site: SiteId) -> SiteSet {
        self.suspected
            .as_ref()
            .map_or(SiteSet::EMPTY, |sets| sets[site.index()])
    }

    fn linked(&self, a: SiteId, b: SiteId) -> bool {
        !self.down.contains(a)
            && !self.down.contains(b)
            && self.groups.iter().any(|g| g.contains(a) && g.contains(b))
    }

    /// Interpret what a kernel call on `site` produced.
    fn stage(&mut self, site: SiteId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.queue.push_back((site, to, msg)),
                Action::Broadcast { msg } => {
                    for i in 0..self.n() {
                        let to = SiteId(i as u8);
                        if to != site {
                            self.queue.push_back((site, to, msg.clone()));
                        }
                    }
                }
                Action::SetTimer { txn, kind } => self.timers.push((site, txn, kind)),
                Action::Hint(Hint::Unanswered { early: true, .. }) => {
                    assert!(self.suspected.is_some(), "early close without a hint");
                    self.closed_early += 1;
                }
                Action::Hint(Hint::Unanswered { sites, .. }) => {
                    self.deadlines_missed += 1;
                    if let Some(sets) = self.suspected.as_mut() {
                        sets[site.index()] = sets[site.index()].union(sites);
                    }
                }
                Action::Hint(Hint::Rival { site: rival, .. }) => {
                    self.rivals += 1;
                    // As the node does: hints point strictly downward.
                    if let Some(home) = self.homes.as_mut().map(|homes| &mut homes[site.index()]) {
                        if rival < site {
                            *home = Some(home.map_or(rival, |known| known.min(rival)));
                        }
                    }
                }
                Action::Resolved { .. }
                | Action::CommitRecorded { .. }
                | Action::DecisionReady { .. } => {}
            }
        }
    }

    /// Deliver the oldest queued frame sent by `from`, ahead of its
    /// turn — how a test picks an arrival order. `false` if there is
    /// none.
    pub fn deliver_from(&mut self, from: SiteId) -> bool {
        let Some(at) = self.queue.iter().position(|(f, _, _)| *f == from) else {
            return false;
        };
        let frame = self.queue.remove(at).expect("position is in range");
        self.deliver(frame);
        true
    }

    /// Deliver queued messages in FIFO order until none is left.
    pub fn drain(&mut self) {
        while let Some(frame) = self.queue.pop_front() {
            self.deliver(frame);
        }
    }

    /// Hand one frame to its destination; frames across a dead link are
    /// lost.
    fn deliver(&mut self, (from, to, msg): (SiteId, SiteId, Message)) {
        if !self.linked(from, to) {
            return;
        }
        if let Some(sets) = self.suspected.as_mut() {
            // As the node does: a frame from a suspected peer voids the
            // whole set.
            if sets[to.index()].contains(from) {
                sets[to.index()] = SiteSet::EMPTY;
            }
            self.sites[to.index()].set_suspected(sets[to.index()]);
        }
        let mut out = Vec::new();
        self.sites[to.index()].handle_message(from, msg, &mut out);
        self.stage(to, out);
    }

    /// Run to rest: drain, fire every armed timer once, repeat while
    /// any coordinator deadline is still armed. A blocked subordinate's
    /// retry timer re-arms for ever, so those carry over to the next
    /// call after one firing.
    pub fn settle(&mut self) {
        loop {
            self.drain();
            let due = std::mem::take(&mut self.timers);
            if due.is_empty() {
                return;
            }
            for (site, txn, kind) in due {
                let mut out = Vec::new();
                self.sites[site.index()].timer_fired(txn, kind, &mut out);
                self.stage(site, out);
            }
            self.drain();
            if self
                .timers
                .iter()
                .all(|(_, _, kind)| *kind == TimerKind::PreparedRetry)
            {
                return;
            }
        }
    }

    /// Start an update at `site` without delivering anything yet.
    pub fn start_update(&mut self, site: SiteId, payload: u64) {
        let mut out = Vec::new();
        self.sites[site.index()].start_update(payload, &mut out);
        self.stage(site, out);
    }

    /// A client update arrives at `site`: with routing on and a
    /// reachable home on record it is coordinated there — one hop, the
    /// home's own hint is not consulted — otherwise at `site` itself.
    pub fn submit_update(&mut self, site: SiteId, payload: u64) {
        match self.home_of(site).filter(|&home| self.linked(site, home)) {
            Some(home) => {
                self.forwarded += 1;
                self.start_update(home, payload);
            }
            None => self.start_update(site, payload),
        }
    }

    pub fn crash(&mut self, site: SiteId) {
        if self.down.contains(site) {
            return;
        }
        self.down.insert(site);
        self.sites[site.index()].crash();
        self.timers.retain(|(s, _, _)| *s != site);
        if let Some(sets) = self.suspected.as_mut() {
            sets[site.index()] = SiteSet::EMPTY;
        }
        if let Some(homes) = self.homes.as_mut() {
            homes[site.index()] = None;
        }
    }

    /// Bring `site` back and start its restart protocol.
    pub fn recover(&mut self, site: SiteId, payload: u64) {
        if !self.down.contains(site) {
            return;
        }
        self.down.remove(site);
        let mut out = Vec::new();
        self.sites[site.index()].recover(payload, &mut out);
        self.stage(site, out);
    }

    pub fn partition(&mut self, groups: &[SiteSet]) {
        self.groups = groups.to_vec();
    }

    pub fn heal(&mut self) {
        self.groups = vec![SiteSet::all(self.n())];
    }
}
