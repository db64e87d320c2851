//! The discrete-event simulation engine.
//!
//! Owns the topology, one [`ShardedSite`] per site (one protocol
//! instance per hosted object; a plain run hosts one), the event queue,
//! and an *omniscient ledger* per object against which every commit is
//! checked: two commits of the same version — the divergence
//! pessimistic replica control exists to prevent — are flagged the
//! instant they happen.
//!
//! Messages take `latency` time units and are delivered only if the
//! endpoints are connected (through up sites and up links) *at delivery
//! time*; an optional drop probability models lossy channels ("messages
//! may be lost or delivered out of order", Section II).

use crate::multi::GroupManager;
use crate::nemesis::{FaultSchedule, NemesisEvent};
use crate::topology::Topology;
use dynvote_core::{
    check_non_negative, check_positive, check_probability, check_site_count, AlgorithmKind,
    BackoffPolicy, ConfigError, SiteId, SiteSet, TimerWheel, VirtualInstant,
};
use dynvote_protocol::{
    Action, EventTallies, Input, LogEntry, Message, ObjectId, ResolveReason, ShardedSite,
    SiteActor, TimerKind, TxnId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of replica sites.
    pub n: usize,
    /// The replica control algorithm every site runs (for every object,
    /// unless [`Simulation::with_files`] names one per object).
    pub algorithm: AlgorithmKind,
    /// One-way message latency.
    pub latency: f64,
    /// Baseline per-message extra latency: each delivery adds a uniform
    /// draw from `[0, latency_jitter)`. Values above `latency` let
    /// later messages overtake earlier ones (reordering). Nemesis
    /// `Reorder` windows raise this temporarily.
    pub latency_jitter: f64,
    /// Coordinator's wait for votes before deciding with whoever
    /// answered.
    pub vote_timeout: f64,
    /// Coordinator's wait for a catch-up reply before aborting.
    pub catchup_timeout: f64,
    /// Prepared subordinate's delay before its *first*
    /// termination-protocol round; each further round doubles the delay
    /// (exponential backoff) up to [`SimConfig::max_backoff`].
    pub initial_backoff: f64,
    /// Upper bound on the termination-protocol retry delay.
    pub max_backoff: f64,
    /// Timer jitter fraction in `[0, 1)`: every timer delay is scaled
    /// by a uniform factor in `[1 - jitter, 1 + jitter)` so that retry
    /// storms from simultaneously blocked sites de-correlate.
    pub jitter: f64,
    /// Probability an individual message is lost in transit. Nemesis
    /// `Lossy` windows raise the effective probability temporarily.
    pub drop_probability: f64,
    /// Probability an individual message is delivered twice (the copy
    /// arrives after an independent extra delay). Nemesis `Duplicate`
    /// windows raise this temporarily.
    pub duplicate_probability: f64,
    /// PRNG seed (runs are deterministic given the seed and the
    /// scripted/driven events).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n: 5,
            algorithm: AlgorithmKind::Hybrid,
            latency: 0.01,
            latency_jitter: 0.0,
            vote_timeout: 0.05,
            catchup_timeout: 0.05,
            initial_backoff: 0.25,
            max_backoff: 2.0,
            jitter: 0.0,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            seed: 7,
        }
    }
}

impl SimConfig {
    /// Validate every field; [`Simulation::new`] refuses (panics on) a
    /// configuration this rejects, so callers accepting untrusted
    /// parameters (the CLI) should call it first and surface the error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_site_count(self.n)?;
        check_positive("latency", self.latency)?;
        check_non_negative("latency_jitter", self.latency_jitter)?;
        check_positive("vote_timeout", self.vote_timeout)?;
        check_positive("catchup_timeout", self.catchup_timeout)?;
        check_positive("initial_backoff", self.initial_backoff)?;
        check_positive("max_backoff", self.max_backoff)?;
        if self.max_backoff < self.initial_backoff {
            return Err(ConfigError::BackoffRange {
                initial: self.initial_backoff,
                max: self.max_backoff,
            });
        }
        if !(self.jitter.is_finite() && (0.0..1.0).contains(&self.jitter)) {
            return Err(ConfigError::NotProbability {
                field: "jitter",
                value: self.jitter,
            });
        }
        check_probability("drop_probability", self.drop_probability)?;
        check_probability("duplicate_probability", self.duplicate_probability)?;
        Ok(())
    }

    /// The termination-protocol retry policy these settings describe
    /// (shared with the live cluster runtime via [`BackoffPolicy`]).
    #[must_use]
    pub fn backoff(&self) -> BackoffPolicy {
        BackoffPolicy::new(self.initial_backoff, self.max_backoff).with_jitter(self.jitter)
    }
}

/// Aggregate statistics of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Updates submitted by the workload (excluding `Make_Current`).
    pub submitted: u64,
    /// Transactions that committed.
    pub commits: u64,
    /// Read-only requests served from a distinguished partition.
    pub reads_served: u64,
    /// Workload arrivals that found their target site down (counted as
    /// failed submissions by the paper's site-weighted availability
    /// measure).
    pub refused_down: u64,
    /// Aborted: the partition was not distinguished. This is the
    /// refusal the Markov and Monte-Carlo availability figures predict.
    pub rejected: u64,
    /// Aborted: a rival coordinator held a voter's lock (a lost lock
    /// race — says nothing about whether the partition may write).
    pub contended: u64,
    /// Aborted: the local copy was locked.
    pub lock_busy: u64,
    /// Aborted: votes or catch-up timed out.
    pub timeouts: u64,
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages lost (disconnection or random drop).
    pub messages_dropped: u64,
    /// Messages delivered twice (duplication injection).
    pub messages_duplicated: u64,
    /// Site crash events applied.
    pub site_crashes: u64,
    /// Site recovery events applied.
    pub site_recoveries: u64,
    /// `Make_Current` restart transactions that committed (kept apart
    /// from workload commits so availability measurements are not
    /// polluted by recovery traffic).
    pub restarts_committed: u64,
    /// `Make_Current` restart transactions that were refused.
    pub restarts_rejected: u64,
}

/// A simulation event.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Deliver {
        from: SiteId,
        to: SiteId,
        msg: Message,
    },
    Timer {
        site: SiteId,
        txn: TxnId,
        kind: TimerKind,
    },
    /// Workload: an update arrives at `site`.
    Arrival { site: SiteId },
    /// Fault injection: crash a random up site, or recover a random
    /// down one (chosen at execution time for determinism under a fixed
    /// seed).
    ToggleRandomSite,
    /// Fault injection: flip the state of a random link.
    ToggleRandomLink,
    /// Scripted fault: crash this site (no-op if already down).
    CrashSite { site: SiteId },
    /// Scripted fault: recover this site (no-op if already up).
    RecoverSite { site: SiteId },
    /// Nemesis: sever one direction of a link.
    FailOneWay { from: SiteId, to: SiteId },
    /// Nemesis: restore one direction of a link.
    RepairOneWay { from: SiteId, to: SiteId },
    /// Nemesis: impose an explicit partition layout.
    ImposePartition { parts: Vec<SiteSet> },
    /// Nemesis: repair every link (liveness untouched).
    HealLinks,
    /// Nemesis: set the windowed extra message-loss probability.
    SetLoss { p: f64 },
    /// Nemesis: set the windowed message-duplication probability.
    SetDuplication { p: f64 },
    /// Nemesis: set the windowed extra-latency bound (reordering).
    SetReorder { extra: f64 },
}

/// Windowed channel perturbations currently in force (driven by
/// [`FaultSchedule`] events; each combines with the corresponding
/// baseline [`SimConfig`] knob by `max`).
#[derive(Debug, Clone, Copy, Default)]
struct NemesisKnobs {
    loss: f64,
    duplication: f64,
    reorder_extra: f64,
}

/// A committed version in the omniscient ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The payload committed at this version.
    pub payload: u64,
    /// The committing transaction.
    pub txn: TxnId,
}

/// Violations of one-copy serializability detected by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyViolation {
    /// Two transactions committed the same version number.
    DivergentCommit {
        /// The contested version.
        version: u64,
        /// The first commit.
        first: LedgerEntry,
        /// The conflicting second commit.
        second: LedgerEntry,
    },
    /// A version was skipped in the global chain.
    VersionGap {
        /// The missing version.
        missing: u64,
    },
    /// A site's log disagrees with the global chain.
    LogMismatch {
        /// The offending site.
        site: SiteId,
        /// The version at which it disagrees.
        version: u64,
    },
    /// A site's metadata version does not match its log.
    MetaLogSkew {
        /// The offending site.
        site: SiteId,
    },
}

impl std::fmt::Display for ConsistencyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsistencyViolation::DivergentCommit {
                version,
                first,
                second,
            } => write!(
                f,
                "version {version} committed twice: by {} and {}",
                first.txn, second.txn
            ),
            ConsistencyViolation::VersionGap { missing } => {
                write!(f, "version {missing} missing from the global chain")
            }
            ConsistencyViolation::LogMismatch { site, version } => {
                write!(f, "site {site} log disagrees with the chain at v{version}")
            }
            ConsistencyViolation::MetaLogSkew { site } => {
                write!(f, "site {site} metadata version does not match its log")
            }
        }
    }
}

/// The discrete-event simulation.
pub struct Simulation {
    config: SimConfig,
    pub(crate) topology: Topology,
    /// `sites[site]` hosts every object's copy at that site.
    pub(crate) sites: Vec<ShardedSite>,
    /// The event queue: the shared [`TimerWheel`] under a virtual clock
    /// (the live cluster runtime arms the same wheel with `Instant`s).
    timers: TimerWheel<VirtualInstant, Event>,
    clock: f64,
    rng: StdRng,
    /// Counts every [`dynvote_protocol::ProtocolEvent`] the actors emit.
    tallies: EventTallies,
    /// Print every event as it is drained ([`Simulation::enable_trace`]).
    trace: bool,
    /// `ledgers[object][v-1]` = that object's version `v`.
    pub(crate) ledgers: Vec<Vec<Option<LedgerEntry>>>,
    violations: Vec<ConsistencyViolation>,
    pub(crate) stats: SimStats,
    next_payload: u64,
    /// Transactions started by the restart protocol, so their outcomes
    /// are booked separately from workload statistics.
    restart_rounds: HashSet<TxnId>,
    nemesis: NemesisKnobs,
    /// Test-only: crashing this site fabricates a consistency violation
    /// (see [`Simulation::set_divergence_trap`]).
    divergence_trap: Option<SiteId>,
    /// Reusable action sink: every kernel call emits into this buffer
    /// and [`Simulation::apply_actions`] drains it, so steady-state
    /// stepping allocates no per-event `Vec<Action>`.
    pub(crate) scratch: Vec<Action>,
    /// Cross-object transaction groups ([`crate::multi`]); idle unless
    /// [`Simulation::submit_group`] is called.
    pub(crate) groups: GroupManager,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("clock", &self.clock)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Build a simulation of one replicated file running
    /// `config.algorithm`, with all sites up and connected.
    ///
    /// # Panics
    ///
    /// If [`SimConfig::validate`] rejects the configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        let algorithm = config.algorithm;
        Self::with_files(config, &[algorithm])
    }

    /// Build a simulation of several replicated files (paper footnote
    /// 2), every one hosted at all `config.n` sites: file `o` is object
    /// `o` and runs `files[o]` (`config.algorithm` is not consulted).
    ///
    /// # Panics
    ///
    /// If [`SimConfig::validate`] rejects the configuration or `files`
    /// is empty.
    #[must_use]
    pub fn with_files(config: SimConfig, files: &[AlgorithmKind]) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid SimConfig: {e}");
        }
        assert!(!files.is_empty(), "{}", ConfigError::NoFiles);
        let n = config.n;
        let sites = (0..n)
            .map(|i| {
                let mut kinds = files.iter();
                ShardedSite::new(SiteId::new(i), n, files.len(), || {
                    kinds.next().expect("one kind per object").instantiate(n)
                })
            })
            .collect();
        Simulation {
            topology: Topology::fully_connected(n),
            sites,
            timers: TimerWheel::new(),
            clock: 0.0,
            rng: StdRng::seed_from_u64(config.seed),
            tallies: EventTallies::default(),
            trace: false,
            ledgers: vec![Vec::new(); files.len()],
            violations: Vec::new(),
            stats: SimStats::default(),
            next_payload: 0,
            restart_rounds: HashSet::new(),
            nemesis: NemesisKnobs::default(),
            divergence_trap: None,
            scratch: Vec::new(),
            groups: GroupManager::default(),
            config,
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The network state (for scripted fault injection).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Object 0's copy at a site (read-only inspection).
    #[must_use]
    pub fn site(&self, id: SiteId) -> &SiteActor {
        self.copy(ObjectId::ZERO, id)
    }

    /// One object's copy at a site (read-only inspection).
    #[must_use]
    pub fn copy(&self, object: ObjectId, site: SiteId) -> &SiteActor {
        let copy = self.sites[site.index()].shard(object);
        copy.expect("every site hosts every object")
    }

    /// Object 0's global committed chain (`ledger[v-1]` = version `v`).
    #[must_use]
    pub fn ledger(&self) -> &[Option<LedgerEntry>] {
        &self.ledgers[0]
    }

    /// Consistency violations detected so far (must stay empty).
    #[must_use]
    pub fn violations(&self) -> &[ConsistencyViolation] {
        &self.violations
    }

    /// Per-site tallies of every protocol event the actors emitted.
    #[must_use]
    pub fn event_tallies(&self) -> EventTallies {
        self.tallies.clone()
    }

    /// Mirror every protocol event to stderr as it happens (the tallies
    /// keep counting).
    pub fn enable_trace(&mut self) {
        self.trace = true;
    }

    fn schedule(&mut self, delay: f64, event: Event) {
        debug_assert!(delay >= 0.0);
        self.timers
            .schedule(VirtualInstant(self.clock + delay), event);
    }

    pub(crate) fn fresh_payload(&mut self) -> u64 {
        self.next_payload += 1;
        self.next_payload
    }

    /// Submit an update at `site` right now. Returns false if the site
    /// is down (the client cannot reach it).
    pub fn submit_update(&mut self, site: SiteId) -> bool {
        if !self.topology.is_up(site) {
            return false;
        }
        self.stats.submitted += 1;
        let (payloads, hold) = (&[self.fresh_payload()], false);
        self.feed(site, ObjectId::ZERO, Input::Update { payloads, hold });
        true
    }

    /// Submit a read-only request at `site` (paper footnote 5). Returns
    /// false if the site is down.
    pub fn submit_read(&mut self, site: SiteId) -> bool {
        if !self.topology.is_up(site) {
            return false;
        }
        self.stats.submitted += 1;
        self.feed(site, ObjectId::ZERO, Input::Read);
        true
    }

    /// Crash a site (volatile state lost; messages to it dropped). The
    /// restart rounds it coordinated end unresolved: a crash emits no
    /// `Resolved`, so they are forgotten here.
    pub fn crash_site(&mut self, site: SiteId) {
        if self.topology.is_up(site) {
            self.topology.crash(site);
            self.sites[site.index()].crash(&mut self.scratch);
            self.apply_actions(site);
            self.restart_rounds.retain(|txn| txn.coordinator != site);
            self.groups.crash(site);
            self.stats.site_crashes += 1;
            if self.divergence_trap == Some(site) {
                // Fabricate the divergence the armed trap promises; the
                // sentinel payload/txn make the fake origin obvious.
                let entry = LedgerEntry {
                    payload: u64::MAX,
                    txn: TxnId::new(site, u64::MAX),
                };
                self.violations.push(ConsistencyViolation::DivergentCommit {
                    version: 1,
                    first: entry,
                    second: entry,
                });
            }
        }
    }

    /// Arm a deliberate consistency violation on the next crash of
    /// `site`. This exists solely so tests (and the CLI's minimizer
    /// self-check) can exercise [`crate::nemesis::minimize`] against a
    /// deterministic failing oracle without a real protocol bug.
    #[doc(hidden)]
    pub fn set_divergence_trap(&mut self, site: SiteId) {
        self.divergence_trap = Some(site);
    }

    /// Recover a site: redo any durably committed group whose legs did
    /// not all finish, then run the restart protocol of Section V-C on
    /// every object it hosts.
    pub fn recover_site(&mut self, site: SiteId) {
        if !self.topology.is_up(site) {
            self.topology.recover(site);
            self.stats.site_recoveries += 1;
            self.redo_groups(site);
            for object in 0..self.ledgers.len() as u32 {
                let restart_payload = self.fresh_payload();
                let input = Input::Recover { restart_payload };
                // Tag the Make_Current transaction (if one started) so
                // its outcome is booked as restart traffic, not
                // workload. Nothing it starts resolves in the same step.
                let started = self.feed(site, ObjectId(object), input);
                self.restart_rounds.extend(started);
            }
        }
    }

    /// Step `site`'s copy of `object` with `input` and apply what it
    /// produced; returns the transaction the input started.
    pub(crate) fn feed(
        &mut self,
        site: SiteId,
        object: ObjectId,
        input: Input<'_>,
    ) -> Option<TxnId> {
        let started = self.sites[site.index()].step(object, input, &mut self.scratch);
        self.apply_actions(site);
        started
    }

    /// Fail the link between two sites.
    pub fn fail_link(&mut self, a: SiteId, b: SiteId) {
        self.topology.fail_link(a, b);
    }

    /// Repair the link between two sites.
    pub fn repair_link(&mut self, a: SiteId, b: SiteId) {
        self.topology.repair_link(a, b);
    }

    /// Sever only the `from → to` direction of a link (asymmetric
    /// failure: replies still flow, requests do not — or vice versa).
    pub fn fail_link_one_way(&mut self, from: SiteId, to: SiteId) {
        self.topology.fail_link_one_way(from, to);
    }

    /// Restore one direction of a link.
    pub fn repair_link_one_way(&mut self, from: SiteId, to: SiteId) {
        self.topology.repair_link_one_way(from, to);
    }

    /// Heal the world: recover every site, repair every link direction,
    /// and clear the windowed nemesis channel perturbations. (Pending
    /// duplicated/ jittered deliveries already in flight still arrive.)
    pub fn heal(&mut self) {
        for i in 0..self.config.n {
            self.recover_site(SiteId::new(i));
        }
        self.topology.heal_links();
        self.nemesis = NemesisKnobs::default();
    }

    /// Impose an explicit partition layout (see
    /// [`Topology::impose_partitions`]).
    pub fn impose_partitions(&mut self, parts: &[SiteSet]) {
        self.topology.impose_partitions(parts);
    }

    /// Drain the scratch sink, interpreting each action. The buffer is
    /// taken out of `self` for the duration and put back with its
    /// capacity intact, so nothing inside the loop may re-enter a
    /// kernel: a held leg's [`Action::DecisionReady`] is queued and the
    /// group manager runs after the drain.
    pub(crate) fn apply_actions(&mut self, site: SiteId) {
        let mut actions = std::mem::take(&mut self.scratch);
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => self.send(site, to, msg),
                Action::Broadcast { msg } => {
                    for i in 0..self.config.n {
                        let to = SiteId::new(i);
                        if to != site {
                            self.send(site, to, msg.clone());
                        }
                    }
                }
                Action::SetTimer { txn, kind } => {
                    let base = match kind {
                        // The kernel never asks for the host-armed grace; were
                        // it to, a grace as long as the deadline is the
                        // identity.
                        TimerKind::VoteDeadline | TimerKind::VoteGrace => self.config.vote_timeout,
                        TimerKind::CatchUpDeadline => self.config.catchup_timeout,
                        TimerKind::PreparedRetry => self
                            .config
                            .backoff()
                            .base_delay(self.copy(txn.object, site).prepared_rounds()),
                    };
                    let delay = self.jittered(base);
                    self.schedule(delay, Event::Timer { site, txn, kind });
                }
                // Left to fire: the kernel ignores a cleared timer, and
                // the event queue stays exactly what the seed made it.
                Action::ClearTimers { .. } => {}
                Action::Resolved { txn, reason } => {
                    let restart = self.restart_rounds.remove(&txn);
                    match reason {
                        ResolveReason::Committed if restart => {
                            self.stats.restarts_committed += 1;
                        }
                        ResolveReason::Committed => self.stats.commits += 1,
                        ResolveReason::ReadServed => self.stats.reads_served += 1,
                        ResolveReason::NotDistinguished
                        | ResolveReason::Contended
                        | ResolveReason::Timeout
                            if restart =>
                        {
                            self.stats.restarts_rejected += 1;
                        }
                        ResolveReason::NotDistinguished => self.stats.rejected += 1,
                        ResolveReason::Contended => self.stats.contended += 1,
                        ResolveReason::LockBusy => self.stats.lock_busy += 1,
                        ResolveReason::Timeout => self.stats.timeouts += 1,
                    }
                }
                Action::CommitRecorded {
                    version,
                    payload,
                    txn,
                } => self.record_commit(version, payload, txn),
                Action::DecisionReady { txn, distinguished } => {
                    self.groups.ready.push((txn, distinguished));
                }
                // The simulator keeps no suspicion set and no route
                // table: every round waits for all peers or the
                // deadline and every site coordinates its own arrivals,
                // as the paper's protocol does.
                Action::Hint(_) => {}
                Action::Event(event) => {
                    if self.trace {
                        eprintln!("[site {site}] {event}");
                    }
                    self.tallies.record(site, event.kind());
                }
                // A simulated crash keeps `DurableState` in memory, so
                // there is no disk to write.
                Action::Persist { .. } => {}
            }
        }
        self.scratch = actions;
        self.run_group_manager();
    }

    fn record_commit(&mut self, version: u64, payload: u64, txn: TxnId) {
        let entry = LedgerEntry { payload, txn };
        let idx = (version - 1) as usize;
        let ledger = &mut self.ledgers[txn.object.index()];
        if idx >= ledger.len() {
            ledger.resize(idx + 1, None);
        }
        match ledger[idx] {
            Some(existing) => self.violations.push(ConsistencyViolation::DivergentCommit {
                version,
                first: existing,
                second: entry,
            }),
            None => ledger[idx] = Some(entry),
        }
    }

    /// Scale a timer delay by the configured jitter fraction (via the
    /// shared [`BackoffPolicy`]). The RNG is only consulted when jitter
    /// is on, so default-config runs replay the exact event streams of
    /// jitter-free builds.
    fn jittered(&mut self, base: f64) -> f64 {
        if self.config.jitter > 0.0 {
            let u: f64 = self.rng.gen();
            self.config.backoff().scale(base, u)
        } else {
            base
        }
    }

    /// One delivery's transit time: base latency plus a uniform draw
    /// from the widest extra-latency window currently in force.
    fn delivery_delay(&mut self) -> f64 {
        let extra = self.config.latency_jitter.max(self.nemesis.reorder_extra);
        if extra > 0.0 {
            self.config.latency + self.rng.gen::<f64>() * extra
        } else {
            self.config.latency
        }
    }

    fn send(&mut self, from: SiteId, to: SiteId, msg: Message) {
        self.stats.messages_sent += 1;
        let drop_p = self.config.drop_probability.max(self.nemesis.loss);
        if drop_p > 0.0 && self.rng.gen::<f64>() < drop_p {
            self.stats.messages_dropped += 1;
            return;
        }
        let delay = self.delivery_delay();
        let dup_p = self
            .config
            .duplicate_probability
            .max(self.nemesis.duplication);
        if dup_p > 0.0 && self.rng.gen::<f64>() < dup_p {
            // The copy takes its own (independently jittered) transit
            // time on top of the original's, so duplicates also arrive
            // out of order relative to later traffic.
            let copy_delay = delay + self.delivery_delay();
            self.stats.messages_duplicated += 1;
            self.schedule(
                copy_delay,
                Event::Deliver {
                    from,
                    to,
                    msg: msg.clone(),
                },
            );
        }
        self.schedule(delay, Event::Deliver { from, to, msg });
    }

    /// Process one event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((when, event)) = self.timers.pop_next() else {
            return false;
        };
        self.clock = when.0;
        match event {
            Event::Deliver { from, to, msg } => {
                // Delivery requires connectivity *now*.
                if self.topology.connected(from, to) {
                    self.feed(to, msg.txn().object, Input::Message { from, msg });
                } else {
                    self.stats.messages_dropped += 1;
                }
            }
            Event::Timer { site, txn, kind } => {
                // Timers at a crashed site die with its volatile state.
                if self.topology.is_up(site) {
                    self.feed(site, txn.object, Input::Timer { txn, kind });
                }
            }
            Event::Arrival { site } => {
                if !self.submit_update(site) {
                    self.stats.refused_down += 1;
                }
            }
            Event::ToggleRandomSite => {
                let site = SiteId::new(self.rng.gen_range(0..self.config.n));
                if self.topology.is_up(site) {
                    self.crash_site(site);
                } else {
                    self.recover_site(site);
                }
            }
            Event::CrashSite { site } => self.crash_site(site),
            Event::RecoverSite { site } => self.recover_site(site),
            Event::FailOneWay { from, to } => self.topology.fail_link_one_way(from, to),
            Event::RepairOneWay { from, to } => self.topology.repair_link_one_way(from, to),
            Event::ImposePartition { parts } => self.topology.impose_partitions(&parts),
            Event::HealLinks => self.topology.heal_links(),
            Event::SetLoss { p } => self.nemesis.loss = p,
            Event::SetDuplication { p } => self.nemesis.duplication = p,
            Event::SetReorder { extra } => self.nemesis.reorder_extra = extra,
            Event::ToggleRandomLink => {
                let a = self.rng.gen_range(0..self.config.n);
                let mut b = self.rng.gen_range(0..self.config.n - 1);
                if b >= a {
                    b += 1;
                }
                let (a, b) = (SiteId::new(a), SiteId::new(b));
                if self.topology.link_up(a, b) {
                    self.fail_link(a, b);
                } else {
                    self.repair_link(a, b);
                }
            }
        }
        true
    }

    /// Run until the queue drains or the clock passes `deadline`.
    pub fn run_until(&mut self, deadline: f64) {
        while let Some(&VirtualInstant(t)) = self.timers.next_deadline() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.clock = self.clock.max(deadline);
    }

    /// Drain every pending event (quiesce).
    pub fn quiesce(&mut self) {
        // Timers re-arm (prepared retries), so bound by a generous
        // horizon rather than literal emptiness.
        let deadline = self.clock + 10_000.0 * self.config.max_backoff;
        let mut guard = 0u64;
        while let Some(&VirtualInstant(t)) = self.timers.next_deadline() {
            if t > deadline {
                break;
            }
            // Stop early once nothing but prepared-retry heartbeats of
            // permanently blocked transactions remain.
            guard += 1;
            if guard > 10_000_000 {
                break;
            }
            self.step();
        }
    }

    /// Schedule a Poisson workload: updates arrive at uniformly random
    /// sites at `rate` per time unit, for `duration` time units from
    /// now. (Arrivals at down sites are counted as failed submissions by
    /// the paper's availability measure — here they are simply ignored,
    /// matching the engine-side measure used in `dynvote-mc`.)
    pub fn schedule_poisson_arrivals(&mut self, rate: f64, duration: f64) {
        assert!(rate > 0.0 && duration > 0.0);
        let mut t = 0.0;
        loop {
            let u: f64 = self.rng.gen();
            t += -(1.0 - u).ln() / rate;
            if t > duration {
                break;
            }
            let site = SiteId::new(self.rng.gen_range(0..self.config.n));
            self.schedule(t, Event::Arrival { site });
        }
    }

    /// Schedule random fault injection: site crash/recovery toggles at
    /// `site_rate` per time unit and link fail/repair toggles at
    /// `link_rate`, for `duration` time units from now. The affected
    /// site/link is chosen at execution time, so a fixed seed gives a
    /// deterministic fault script.
    pub fn schedule_random_faults(&mut self, site_rate: f64, link_rate: f64, duration: f64) {
        assert!(duration > 0.0);
        for (rate, make) in [
            (site_rate, Event::ToggleRandomSite),
            (link_rate, Event::ToggleRandomLink),
        ] {
            if rate <= 0.0 {
                continue;
            }
            let mut t = 0.0;
            loop {
                let u: f64 = self.rng.gen();
                t += -(1.0 - u).ln() / rate;
                if t > duration {
                    break;
                }
                self.schedule(t, make.clone());
            }
        }
    }

    /// Install a [`FaultSchedule`]: every behavior's `at`/`duration`
    /// are offsets from the current clock. Each windowed behavior
    /// expands into a begin event and an end event (restart, heal,
    /// repair, knob reset), so schedules compose with the Poisson
    /// workload and with each other; overlapping windows of the same
    /// channel knob resolve last-writer-wins. Replaying the same
    /// schedule with the same seed and workload reproduces the run
    /// event-for-event — this is what makes serialized schedules
    /// replayable and [`crate::nemesis::minimize`] sound.
    ///
    /// Site ids outside `0..n` are ignored (a hand-edited schedule
    /// should not crash the engine), negative times clamp to now.
    pub fn apply_schedule(&mut self, schedule: &FaultSchedule) {
        let n = self.config.n;
        let site_ok = |s: usize| s < n;
        for event in &schedule.events {
            let at = event.at().max(0.0);
            let end = at + event.duration().max(0.0);
            match event {
                NemesisEvent::Crash { site, .. } => {
                    if site_ok(*site) {
                        let site = SiteId::new(*site);
                        self.schedule(at, Event::CrashSite { site });
                        self.schedule(end, Event::RecoverSite { site });
                    }
                }
                NemesisEvent::Partition { groups, .. } => {
                    let parts: Vec<SiteSet> = groups
                        .iter()
                        .map(|group| {
                            let mut set = SiteSet::EMPTY;
                            for &s in group.iter().filter(|&&s| site_ok(s)) {
                                set.insert(SiteId::new(s));
                            }
                            set
                        })
                        .filter(|set| !set.is_empty())
                        .collect();
                    if !parts.is_empty() {
                        self.schedule(at, Event::ImposePartition { parts });
                        self.schedule(end, Event::HealLinks);
                    }
                }
                NemesisEvent::OneWay { from, to, .. } => {
                    if site_ok(*from) && site_ok(*to) && from != to {
                        let (from, to) = (SiteId::new(*from), SiteId::new(*to));
                        self.schedule(at, Event::FailOneWay { from, to });
                        self.schedule(end, Event::RepairOneWay { from, to });
                    }
                }
                NemesisEvent::Lossy { p, .. } => {
                    let p = p.clamp(0.0, 1.0);
                    self.schedule(at, Event::SetLoss { p });
                    self.schedule(end, Event::SetLoss { p: 0.0 });
                }
                NemesisEvent::Duplicate { p, .. } => {
                    let p = p.clamp(0.0, 1.0);
                    self.schedule(at, Event::SetDuplication { p });
                    self.schedule(end, Event::SetDuplication { p: 0.0 });
                }
                NemesisEvent::Reorder { extra, .. } => {
                    let extra = extra.max(0.0);
                    self.schedule(at, Event::SetReorder { extra });
                    self.schedule(end, Event::SetReorder { extra: 0.0 });
                }
            }
        }
    }

    /// Schedule fault processes matching the paper's stochastic model:
    /// each site independently alternates `Exp(λ = 1)` up-times and
    /// `Exp(μ = ratio)` down-times, for `duration` time units from now
    /// (all sites start up). Combined with Poisson update arrivals this
    /// lets the *message-level protocol's* empirical availability
    /// (commits / submissions) be compared against the analytic model —
    /// see `tests/empirical_availability.rs`.
    pub fn schedule_model_faults(&mut self, ratio: f64, duration: f64) {
        assert!(ratio > 0.0 && duration > 0.0);
        for i in 0..self.config.n {
            let site = SiteId::new(i);
            let mut t = 0.0;
            let mut up = true;
            loop {
                let rate = if up { 1.0 } else { ratio };
                let u: f64 = self.rng.gen();
                t += -(1.0 - u).ln() / rate;
                if t > duration {
                    break;
                }
                let event = if up {
                    Event::CrashSite { site }
                } else {
                    Event::RecoverSite { site }
                };
                self.schedule(t, event);
                up = !up;
            }
        }
    }

    /// Verify the end-to-end consistency invariants (Theorem 1's
    /// observable consequences). Returns every violation found.
    #[must_use]
    pub fn check_invariants(&self) -> Vec<ConsistencyViolation> {
        let mut violations = self.violations.clone();
        for (object, ledger) in self.ledgers.iter().enumerate() {
            // The global chain must be gapless: versions 1..=max all
            // committed.
            for (i, slot) in ledger.iter().enumerate() {
                if slot.is_none() {
                    violations.push(ConsistencyViolation::VersionGap {
                        missing: (i + 1) as u64,
                    });
                }
            }
            // Every site's log must be a gapless prefix matching the
            // chain, and its metadata version must equal its log length.
            let object = ObjectId(object as u32);
            for site in self.sites.iter().filter_map(|s| s.shard(object)) {
                for (i, entry) in site.log().iter().enumerate() {
                    let expected_version = (i + 1) as u64;
                    let chain = ledger.get(i).copied().flatten();
                    if entry.version != expected_version
                        || chain.map_or(true, |c| c.payload != entry.payload)
                    {
                        violations.push(ConsistencyViolation::LogMismatch {
                            site: site.id(),
                            version: expected_version,
                        });
                        break;
                    }
                }
                if site.meta().version != site.log().last().map_or(0, LogEntry::version_of) {
                    violations.push(ConsistencyViolation::MetaLogSkew { site: site.id() });
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(n: usize) -> Simulation {
        Simulation::new(SimConfig {
            n,
            ..SimConfig::default()
        })
    }

    #[test]
    fn single_update_commits_everywhere() {
        let mut s = sim(5);
        assert!(s.submit_update(SiteId(0)));
        s.quiesce();
        assert_eq!(s.stats().commits, 1);
        for i in 0..5 {
            assert_eq!(s.site(SiteId(i)).meta().version, 1, "site {i}");
            assert_eq!(s.site(SiteId(i)).log().len(), 1);
        }
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn sequential_updates_build_a_chain() {
        let mut s = sim(5);
        for i in 0..10u8 {
            s.submit_update(SiteId(i % 5));
            s.quiesce();
        }
        assert_eq!(s.stats().commits, 10);
        assert_eq!(s.ledger().len(), 10);
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn minority_partition_cannot_commit() {
        let mut s = sim(5);
        s.submit_update(SiteId(0));
        s.quiesce();
        s.impose_partitions(&[
            SiteSet::parse("AB").unwrap(),
            SiteSet::parse("CDE").unwrap(),
        ]);
        s.submit_update(SiteId(0)); // in the AB minority
        s.quiesce();
        assert_eq!(s.stats().commits, 1);
        assert_eq!(s.stats().rejected, 1);
        // The majority partition still commits.
        s.submit_update(SiteId(3));
        s.quiesce();
        assert_eq!(s.stats().commits, 2);
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn crashed_site_catches_up_on_recovery() {
        let mut s = sim(5);
        s.submit_update(SiteId(0));
        s.quiesce();
        s.crash_site(SiteId(4));
        s.submit_update(SiteId(0));
        s.quiesce();
        assert_eq!(s.site(SiteId(4)).meta().version, 1, "missed the update");
        s.recover_site(SiteId(4));
        s.quiesce();
        // Make_Current commits a no-op version that brings E current
        // (booked as restart traffic, not a workload commit).
        assert_eq!(s.stats().commits, 2);
        assert_eq!(s.stats().restarts_committed, 1);
        assert_eq!(s.site(SiteId(4)).meta().version, 3);
        assert!(s.check_invariants().is_empty());
    }

    /// A crash during `Make_Current` ends that restart round for good:
    /// after the next recovery only the new round is booked as restart
    /// traffic.
    #[test]
    fn a_crash_forgets_the_restart_rounds_it_interrupts() {
        let mut s = sim(5);
        s.crash_site(SiteId(4));
        s.submit_update(SiteId(0));
        s.quiesce();
        s.recover_site(SiteId(4));
        let interrupted = s.restart_rounds.clone();
        assert_eq!(interrupted.len(), 1, "one Make_Current round started");
        s.crash_site(SiteId(4));
        assert!(s.restart_rounds.is_empty(), "{:?}", s.restart_rounds);
        s.recover_site(SiteId(4));
        assert_eq!(s.restart_rounds.len(), 1);
        assert!(s.restart_rounds.is_disjoint(&interrupted));
        s.quiesce();
        // Whether the new round commits or is refused (the interrupted
        // one can leave its peers locked), it is restart traffic.
        assert!(s.restart_rounds.is_empty(), "the new round resolved");
        let stats = s.stats();
        assert_eq!(stats.restarts_committed + stats.restarts_rejected, 1);
        assert_eq!((stats.commits, stats.rejected), (1, 0), "{stats:?}");
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn concurrent_updates_serialize() {
        let mut s = sim(5);
        // Two coordinators race; locks and votes serialize them (one may
        // be rejected for lock-busy or lack of quorum, or both commit in
        // sequence depending on timing).
        s.submit_update(SiteId(0));
        s.submit_update(SiteId(3));
        s.quiesce();
        assert!(s.check_invariants().is_empty());
        assert!(s.stats().commits >= 1);
    }

    #[test]
    fn coordinator_crash_mid_protocol_is_safe() {
        let mut s = sim(5);
        s.submit_update(SiteId(0));
        // Crash the coordinator before any message is delivered.
        s.crash_site(SiteId(0));
        s.run_until(5.0);
        // Subordinates are prepared and blocked; no commit can happen
        // from this transaction, and the update is lost (presumed
        // abort once the coordinator answers status queries).
        s.recover_site(SiteId(0));
        s.quiesce();
        assert!(s.check_invariants().is_empty());
        // After recovery, Make_Current runs; subordinates get released
        // via the termination protocol, so a fresh update must succeed.
        s.submit_update(SiteId(1));
        s.quiesce();
        assert!(s.stats().commits >= 1);
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn fig1_scenario_end_to_end() {
        // Drive the message-level protocol through the Fig. 1 partition
        // graph and check the hybrid's distinguished partitions.
        let mut s = sim(5);
        s.submit_update(SiteId(0));
        s.quiesce();

        for step in dynvote_core::fig1_partition_graph() {
            s.impose_partitions(&step.partitions);
            for p in &step.partitions {
                let coordinator = p.first().unwrap();
                s.submit_update(coordinator);
                s.quiesce();
            }
        }
        // Hybrid accepts at: t1 (ABC), t2 (AB), t4 (BC) — plus the
        // initial update: 4 commits.
        assert_eq!(s.stats().commits, 4);
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn config_backoff_matches_the_shared_policy() {
        let config = SimConfig {
            initial_backoff: 0.25,
            max_backoff: 2.0,
            jitter: 0.3,
            ..SimConfig::default()
        };
        let policy = config.backoff();
        assert_eq!(
            policy,
            BackoffPolicy::new(0.25, 2.0).with_jitter(0.3),
            "the engine arms PreparedRetry timers from the shared policy"
        );
        assert_eq!(policy.base_delay(0), 0.25);
        assert_eq!(policy.base_delay(3), 2.0);
        assert_eq!(policy.base_delay(40), 2.0);
    }

    #[test]
    fn validate_rejects_out_of_range_fields() {
        let ok = SimConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let cases: Vec<(SimConfig, ConfigError)> = vec![
            (
                SimConfig { n: 0, ..ok.clone() },
                ConfigError::SiteCount { n: 0 },
            ),
            (
                SimConfig { n: 1, ..ok.clone() },
                ConfigError::SiteCount { n: 1 },
            ),
            (
                SimConfig {
                    latency: 0.0,
                    ..ok.clone()
                },
                ConfigError::NotPositive {
                    field: "latency",
                    value: 0.0,
                },
            ),
            (
                SimConfig {
                    vote_timeout: -1.0,
                    ..ok.clone()
                },
                ConfigError::NotPositive {
                    field: "vote_timeout",
                    value: -1.0,
                },
            ),
            (
                SimConfig {
                    drop_probability: 1.5,
                    ..ok.clone()
                },
                ConfigError::NotProbability {
                    field: "drop_probability",
                    value: 1.5,
                },
            ),
            (
                SimConfig {
                    duplicate_probability: -0.1,
                    ..ok.clone()
                },
                ConfigError::NotProbability {
                    field: "duplicate_probability",
                    value: -0.1,
                },
            ),
            (
                SimConfig {
                    latency_jitter: f64::NAN,
                    ..ok.clone()
                },
                ConfigError::Negative {
                    field: "latency_jitter",
                    value: f64::NAN,
                },
            ),
            (
                SimConfig {
                    initial_backoff: 0.5,
                    max_backoff: 0.25,
                    ..ok.clone()
                },
                ConfigError::BackoffRange {
                    initial: 0.5,
                    max: 0.25,
                },
            ),
            (
                SimConfig {
                    jitter: 1.0,
                    ..ok.clone()
                },
                ConfigError::NotProbability {
                    field: "jitter",
                    value: 1.0,
                },
            ),
        ];
        for (config, expected) in cases {
            let got = config.validate().unwrap_err();
            // NaN != NaN, so compare the rendered error for that case.
            assert_eq!(format!("{got}"), format!("{expected}"));
        }
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig")]
    fn new_refuses_invalid_config() {
        let _ = Simulation::new(SimConfig {
            drop_probability: 2.0,
            ..SimConfig::default()
        });
    }

    #[test]
    fn exponential_backoff_thins_retry_storms() {
        // Coordinator crashes mid-vote; subordinates stay blocked for 60
        // time units. Exponential backoff must cut the termination-
        // protocol traffic by far more than half vs. flat retries.
        let run = |max_backoff: f64| {
            let mut s = Simulation::new(SimConfig {
                initial_backoff: 0.25,
                max_backoff,
                ..SimConfig::default()
            });
            s.submit_update(SiteId(0));
            s.run_until(0.015);
            s.crash_site(SiteId(0));
            s.run_until(60.0);
            s.stats().messages_sent
        };
        let flat = run(0.25);
        let exponential = run(8.0);
        assert!(
            exponential < flat / 2,
            "flat retries sent {flat}, exponential sent {exponential}"
        );
    }

    #[test]
    fn timer_jitter_keeps_the_protocol_live_and_safe() {
        let mut s = Simulation::new(SimConfig {
            jitter: 0.3,
            latency_jitter: 0.002,
            ..SimConfig::default()
        });
        for i in 0..10u8 {
            s.submit_update(SiteId(i % 5));
            s.quiesce();
        }
        assert_eq!(s.stats().commits, 10);
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn lossy_network_preserves_safety() {
        let mut s = Simulation::new(SimConfig {
            n: 5,
            drop_probability: 0.2,
            ..SimConfig::default()
        });
        s.schedule_poisson_arrivals(5.0, 50.0);
        s.run_until(60.0);
        s.quiesce();
        assert!(
            s.check_invariants().is_empty(),
            "{:?}",
            s.check_invariants()
        );
        assert!(s.stats().commits > 0);
    }
}
