//! An in-memory network for kernel tests: `n` [`SiteActor`]s, a FIFO
//! message queue, a timer list, crash/recover and partitions — and,
//! optionally, the per-site peer-suspicion bookkeeping a live node
//! does (learn from `Unanswered` at a grace or deadline, forget on a
//! frame from a suspected peer, wipe on crash) and the straggler grace
//! it arms beside every vote deadline, so a run with the shortcuts can
//! be compared with a run without them. Every commit any coordinator
//! records is checked against one ledger as it happens. Likewise the node's single-writer
//! routing (learn a home from `Rival`, hand later updates to it, bypass
//! an unreachable home, wipe on crash) can be switched on. Every site's
//! persist effects are kept, in emission order, so a test can replay
//! them the way WAL recovery does.

// Each test binary that includes this module uses a different subset.
#![allow(dead_code)]

use dynvote_core::{AlgorithmKind, SiteId, SiteSet};
use dynvote_protocol::persist::{apply_op, PersistEffect};
use dynvote_protocol::{
    Action, CloseCause, DurableState, Hint, Input, Message, SiteActor, TimerKind, TxnId,
};
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
    /// `Some` = arm a straggler grace beside every vote deadline, as a
    /// node does; it fires first. Counts the rounds a grace closed.
    pub graces_missed: Option<u64>,
    /// The payload committed at each version, in version order.
    pub ledger: Vec<u64>,
    /// Commits that re-used a version or skipped one.
    pub violations: Vec<String>,
    /// `Some` = act on `Rival` as a node does: per site, the
    /// lower-numbered site it last raced, if any.
    homes: Option<Vec<Option<SiteId>>>,
    /// `Rival` actions seen.
    pub rivals: u64,
    /// Updates coordinated at their origin's home instead of the origin.
    pub forwarded: u64,
    /// Per site, every persist effect it emitted, in order.
    pub persisted: Vec<Vec<PersistEffect>>,
    /// `Some` = every input stepped, with its site, in order.
    pub fed: Option<Vec<(SiteId, String)>>,
}

impl Net {
    pub fn new(algorithm: AlgorithmKind, n: usize, hinted: bool) -> Net {
        Net::restored(algorithm, vec![DurableState::initial(n); n], hinted)
    }

    /// A net whose site `i` is rebuilt from `states[i]`
    /// ([`SiteActor::restore`]), all up and mutually reachable. The
    /// longest log is taken as the chain so far.
    pub fn restored(algorithm: AlgorithmKind, states: Vec<DurableState>, hinted: bool) -> Net {
        let n = states.len();
        let longest = states
            .iter()
            .map(|state| &state.log)
            .max_by_key(|log| log.len());
        let ledger = longest.into_iter().flatten().map(|e| e.payload).collect();
        Net {
            sites: (0..n)
                .zip(states)
                .map(|(i, state)| {
                    SiteActor::restore(SiteId(i as u8), n, algorithm.instantiate(n), state)
                })
                .collect(),
            suspected: hinted.then(|| vec![SiteSet::EMPTY; n]),
            down: SiteSet::EMPTY,
            groups: vec![SiteSet::all(n)],
            queue: VecDeque::new(),
            timers: Vec::new(),
            closed_early: 0,
            deadlines_missed: 0,
            graces_missed: None,
            ledger,
            violations: Vec::new(),
            homes: None,
            rivals: 0,
            forwarded: 0,
            persisted: vec![Vec::new(); n],
            fed: None,
        }
    }

    /// Record every input stepped from now on (see [`Net::fed`]).
    pub fn traced(mut self) -> Net {
        self.fed = Some(Vec::new());
        self
    }

    /// Arm a straggler grace with every vote deadline from now on.
    pub fn graced(mut self) -> Net {
        self.graces_missed = Some(0);
        self
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

    /// Step `site` with `input` and interpret what it produced; returns
    /// the transaction the input started, if any.
    pub fn step(&mut self, site: SiteId, input: Input<'_>) -> Option<TxnId> {
        if let Some(fed) = self.fed.as_mut() {
            fed.push((site, format!("{input:?}")));
        }
        let mut out = Vec::new();
        let started = self.sites[site.index()].step(input, &mut out);
        self.stage(site, out);
        started
    }

    /// Interpret what a step of `site` produced.
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
                Action::SetTimer { txn, kind } => {
                    if kind == TimerKind::VoteDeadline && self.graces_missed.is_some() {
                        self.timers.push((site, txn, TimerKind::VoteGrace));
                    }
                    self.timers.push((site, txn, kind));
                }
                // As the node does: the kernel is done with `txn` here.
                Action::ClearTimers { txn } => {
                    self.timers.retain(|&(s, t, _)| s != site || t != txn);
                }
                Action::Hint(Hint::Unanswered {
                    cause: CloseCause::Suspected,
                    ..
                }) => {
                    assert!(self.suspected.is_some(), "early close without a hint");
                    self.closed_early += 1;
                }
                Action::Hint(Hint::Unanswered { sites, cause, .. }) => {
                    if cause == CloseCause::Grace {
                        *self.graces_missed.as_mut().expect("a grace nobody armed") += 1;
                    } else {
                        self.deadlines_missed += 1;
                    }
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
                Action::CommitRecorded {
                    version, payload, ..
                } => {
                    if version == self.ledger.len() as u64 + 1 {
                        self.ledger.push(payload);
                    } else {
                        self.violations.push(format!(
                            "site {site} committed version {version} (payload {payload}) \
                             on a chain of {}",
                            self.ledger.len()
                        ));
                    }
                }
                Action::Persist { effect, .. } => self.persisted[site.index()].push(effect),
                Action::Resolved { .. } | Action::DecisionReady { .. } | Action::Event(_) => {}
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
        self.deliver_next(usize::MAX);
    }

    /// Deliver up to `frames` queued messages in FIFO order.
    pub fn deliver_next(&mut self, frames: usize) {
        for _ in 0..frames {
            let Some(frame) = self.queue.pop_front() else {
                return;
            };
            self.deliver(frame);
        }
    }

    /// Every armed timer, with the site it is armed at.
    pub fn armed_timers(&self) -> &[(SiteId, TxnId, TimerKind)] {
        &self.timers
    }

    /// Frames sent and not yet delivered, as `(from, to, message)`.
    pub fn queued(&self) -> impl Iterator<Item = &(SiteId, SiteId, Message)> {
        self.queue.iter()
    }

    /// Lose every queued frame `lost` picks.
    pub fn discard(&mut self, lost: impl Fn(&Message) -> bool) {
        self.queue.retain(|(_, _, msg)| !lost(msg));
    }

    /// The rounds of `site` an armed `kind` timer still guards.
    fn armed(&self, site: SiteId, kind: TimerKind) -> Vec<TxnId> {
        self.timers
            .iter()
            .filter(|(s, _, k)| *s == site && *k == kind)
            .map(|(_, txn, _)| *txn)
            .collect()
    }

    /// `site`'s straggler grace runs out *now* for whatever round it has
    /// open, wherever its votes have got to.
    pub fn fire_grace(&mut self, site: SiteId) {
        assert!(self.graces_missed.is_some(), "a grace nobody armed");
        for txn in self.armed(site, TimerKind::VoteGrace) {
            let kind = TimerKind::VoteGrace;
            self.step(site, Input::Timer { txn, kind });
        }
    }

    /// `site` learns — from a round on some other object, say — that
    /// every site which really is down is silent, and re-tests the
    /// round it has open, as a node does when its set grows.
    pub fn suspect_the_down(&mut self, site: SiteId) {
        let down = self.down;
        let sets = self.suspected.as_mut().expect("a run with the hint");
        sets[site.index()] = sets[site.index()].union(down);
        self.sites[site.index()].set_suspected(sets[site.index()]);
        for txn in self.armed(site, TimerKind::VoteDeadline) {
            self.step(site, Input::SuspicionGrew { txn });
        }
    }

    /// What every copy must satisfy against the ledger: its log is a
    /// gapless prefix of the one chain and its version is the log's
    /// length. Returns what does not.
    pub fn audit(&self) -> Vec<String> {
        let mut found = self.violations.clone();
        for site in &self.sites {
            let log = site.log();
            if site.meta().version != log.len() as u64 {
                found.push(format!("site {}: VN disagrees with its log", site.id()));
            }
            for (i, entry) in log.iter().enumerate() {
                if entry.version != i as u64 + 1 || self.ledger.get(i) != Some(&entry.payload) {
                    found.push(format!("site {}: log leaves the chain at {i}", site.id()));
                    break;
                }
            }
        }
        found
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
        self.step(to, Input::Message { from, msg });
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
                self.step(site, Input::Timer { txn, kind });
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

    /// What recovery would rebuild `site`'s durable state from: its
    /// persist effects replayed into the initial state.
    pub fn replayed(&self, site: SiteId) -> DurableState {
        let actor = &self.sites[site.index()];
        let mut state = DurableState::initial(self.n());
        for effect in &self.persisted[site.index()] {
            apply_op(&mut state, &effect.op(actor.log()));
        }
        state
    }

    /// Start a batched round sealing `payloads` at `site` without
    /// delivering anything yet.
    pub fn start_batch(&mut self, site: SiteId, payloads: &[u64]) -> Option<TxnId> {
        let hold = false;
        self.step(site, Input::Update { payloads, hold })
    }

    /// A client update arrives at `site`: with routing on and a
    /// reachable home on record it is coordinated there — one hop, the
    /// home's own hint is not consulted — otherwise at `site` itself.
    pub fn submit_update(&mut self, site: SiteId, payload: u64) {
        match self.home_of(site).filter(|&home| self.linked(site, home)) {
            Some(home) => {
                self.forwarded += 1;
                self.start_batch(home, &[payload]);
            }
            None => {
                self.start_batch(site, &[payload]);
            }
        }
    }

    pub fn crash(&mut self, site: SiteId) {
        if self.down.contains(site) {
            return;
        }
        self.down.insert(site);
        self.step(site, Input::Crash);
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
        let restart_payload = payload;
        self.step(site, Input::Recover { restart_payload });
    }

    pub fn partition(&mut self, groups: &[SiteSet]) {
        self.groups = groups.to_vec();
    }

    pub fn heal(&mut self) {
        self.groups = vec![SiteSet::all(self.n())];
    }
}
