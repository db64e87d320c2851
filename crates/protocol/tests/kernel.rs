//! Kernel-only protocol tests: 2PC's blocking window, durable prepare
//! records, and presumed abort — driven directly through [`SiteActor`]
//! method calls, with no engine, transport, or clock. What the
//! simulator and cluster harnesses exercise statistically, these pin
//! deterministically at the state-machine boundary.

mod common;

use common::Net;
use dynvote_core::{AlgorithmKind, CopyMeta, LinearOrder, SiteId, SiteSet};
use dynvote_protocol::{
    Action, CloseCause, EventKind, EventTallies, Hint, Input, Message, ObjectId, PersistEffect,
    ResolveReason, ShardedSite, SiteActor, StatusOutcome, TimerKind, TxnId,
};
use proptest::prelude::*;

fn site(id: u8, n: usize) -> SiteActor {
    SiteActor::new(SiteId(id), n, AlgorithmKind::Hybrid.instantiate(n))
}

fn txn(c: u8, seq: u64) -> TxnId {
    TxnId::new(SiteId(c), seq)
}

/// A one-payload update at `a`; the transaction it started, if any.
fn start(a: &mut SiteActor, payload: u64, out: &mut Vec<Action>) -> Option<TxnId> {
    let payloads = &[payload];
    a.step(
        Input::Update {
            payloads,
            hold: false,
        },
        out,
    )
}

/// `txn`'s `kind` timer fires at `a`.
fn fire_into(a: &mut SiteActor, txn: TxnId, kind: TimerKind, out: &mut Vec<Action>) {
    a.step(Input::Timer { txn, kind }, out);
}

/// Step a message into a fresh sink (tests care about one call's
/// actions at a time; production callers reuse one buffer).
fn deliver(a: &mut SiteActor, from: SiteId, msg: Message) -> Vec<Action> {
    let mut out = Vec::new();
    a.step(Input::Message { from, msg }, &mut out);
    out
}

/// The unavoidable blocking window of two-phase commit: a prepared
/// subordinate whose peers answer Unknown must stay blocked — lock
/// held, in doubt — for as many rounds as it takes, and release only
/// on a definite outcome.
#[test]
fn termination_protocol_blocks_until_a_definite_outcome() {
    let mut b = site(1, 3);
    let t = txn(0, 1);
    deliver(&mut b, SiteId(0), Message::VoteRequest { txn: t });
    assert!(b.is_locked() && b.is_in_doubt());

    // The decision never arrives; the retry timer fires. Each round
    // broadcasts a status query and re-arms the timer.
    for round in 1..=3u32 {
        let mut actions = Vec::new();
        fire_into(&mut b, t, TimerKind::PreparedRetry, &mut actions);
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: Message::StatusQuery { .. }
                }
            )),
            "round {round} must query the peers"
        );
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::SetTimer {
                    kind: TimerKind::PreparedRetry,
                    ..
                }
            )),
            "round {round} must re-arm"
        );
        assert_eq!(b.prepared_rounds(), round);

        // Nobody knows: the subordinate MUST stay blocked.
        deliver(
            &mut b,
            SiteId(2),
            Message::StatusReply {
                txn: t,
                outcome: StatusOutcome::Unknown,
            },
        );
        assert!(b.is_locked(), "Unknown must not release the lock");
        assert!(b.is_in_doubt(), "Unknown must not clear the prepare record");
    }

    // A definite Aborted ends the window and releases everything.
    deliver(
        &mut b,
        SiteId(2),
        Message::StatusReply {
            txn: t,
            outcome: StatusOutcome::Aborted,
        },
    );
    assert!(!b.is_locked());
    assert!(!b.is_in_doubt());
}

/// The prepare record is force-written before the vote leaves the
/// site, so a crash cannot silently release the in-doubt lock: the
/// record survives `crash()` and recovery re-acquires the lock and
/// resumes the termination protocol (not `Make_Current`).
#[test]
fn durable_prepare_record_survives_crash() {
    let mut b = site(1, 3);
    let t = txn(0, 1);
    deliver(&mut b, SiteId(0), Message::VoteRequest { txn: t });
    assert!(b.is_in_doubt());

    b.step(Input::Crash, &mut Vec::new());
    assert!(!b.is_locked(), "volatile lock is lost");
    assert!(b.is_in_doubt(), "the prepare record is durable");

    let mut actions = Vec::new();
    b.step(
        Input::Recover {
            restart_payload: 999,
        },
        &mut actions,
    );
    assert!(b.is_locked(), "recovery re-acquires the in-doubt lock");
    assert!(
        actions.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: Message::StatusQuery { txn, .. }
            } if *txn == t
        )),
        "recovery resumes the termination protocol for the in-doubt txn"
    );
    assert!(
        !actions.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: Message::VoteRequest { .. }
            }
        )),
        "Make_Current must not run while a prepare record exists"
    );
}

/// Presumed abort: a coordinator that crashed before deciding holds no
/// commit record after recovery, so it answers a status query about
/// its own lost transaction with Aborted — releasing the subordinate
/// the lost transaction left blocked.
#[test]
fn recovered_coordinator_presumes_abort_for_its_lost_transaction() {
    let mut a = site(0, 3);
    let mut b = site(1, 3);

    // A starts an update; B prepares for it.
    let mut actions = Vec::new();
    start(&mut a, 100, &mut actions);
    let t = match &actions[1] {
        Action::Broadcast {
            msg: Message::VoteRequest { txn },
        } => *txn,
        other => panic!("expected a vote request, got {other:?}"),
    };
    deliver(&mut b, SiteId(0), Message::VoteRequest { txn: t });
    assert!(b.is_in_doubt());

    // While the transaction is in flight the outcome is genuinely
    // undecided: A must answer Unknown, not Aborted.
    let reply = deliver(
        &mut a,
        SiteId(1),
        Message::StatusQuery {
            txn: t,
            after_version: 0,
            from: SiteId(1),
        },
    );
    assert!(matches!(
        &reply[0],
        Action::Send {
            msg: Message::StatusReply {
                outcome: StatusOutcome::Unknown,
                ..
            },
            ..
        }
    ));

    // A crashes before deciding; the in-flight transaction is volatile
    // and gone. After recovery there is no commit record for it, so it
    // can never commit: presumed abort.
    a.step(Input::Crash, &mut Vec::new());
    a.step(
        Input::Recover {
            restart_payload: 999,
        },
        &mut Vec::new(),
    );
    let reply = deliver(
        &mut a,
        SiteId(1),
        Message::StatusQuery {
            txn: t,
            after_version: 0,
            from: SiteId(1),
        },
    );
    assert!(matches!(
        &reply[0],
        Action::Send {
            msg: Message::StatusReply {
                outcome: StatusOutcome::Aborted,
                ..
            },
            ..
        }
    ));

    // The reply releases B.
    deliver(
        &mut b,
        SiteId(0),
        Message::StatusReply {
            txn: t,
            outcome: StatusOutcome::Aborted,
        },
    );
    assert!(!b.is_locked());
    assert!(!b.is_in_doubt());
}

/// The kernel disarms what it armed: a healthy update at n = 5 leaves no
/// timer armed anywhere. A subordinate keeps its retry timer only while
/// it is in doubt: with the coordinator's `Commit` frames lost, each of
/// the four still holds one, and firing it starts the termination
/// protocol.
#[test]
fn a_decided_transaction_leaves_no_timer_and_an_in_doubt_one_keeps_its_retry() {
    let mut net = Net::new(AlgorithmKind::Hybrid, 5, false);
    net.start_batch(SiteId(0), &[100]);
    net.drain();
    assert_eq!(net.sites[1].meta().version, 1);
    assert_eq!(net.armed_timers(), []);

    let txn = net.start_batch(SiteId(0), &[101]).expect("lock free");
    // The vote requests, then the votes: the coordinator commits.
    net.deliver_next(8);
    assert_eq!(net.sites[0].meta().version, 2);
    net.discard(|msg| matches!(msg, Message::Commit { .. }));
    assert_eq!(net.queued().count(), 0);
    let kind = TimerKind::PreparedRetry;
    let expected: Vec<_> = (1..5u8).map(|i| (SiteId(i), txn, kind)).collect();
    assert_eq!(net.armed_timers(), expected);
    for i in 1..5u8 {
        let sub = SiteId(i);
        assert!(net.sites[sub.index()].is_in_doubt());
        net.step(sub, Input::Timer { txn, kind });
        let queries = net
            .queued()
            .filter(|(from, _, msg)| *from == sub && matches!(msg, Message::StatusQuery { .. }))
            .count();
        assert_eq!(queries, 4, "site {sub} asks every peer");
    }
    // The coordinator's commit record answers them: nobody is left in
    // doubt, and nothing is left armed.
    net.drain();
    for site in &net.sites {
        assert_eq!(site.meta().version, 2, "site {}", site.id());
        assert!(!site.is_in_doubt());
    }
    assert_eq!(net.armed_timers(), []);
}

/// Count the events in `actions` into `site`'s row, as the host that
/// drained them would.
fn tally(site: SiteId, actions: &[Action]) -> EventTallies {
    let mut tallies = EventTallies::default();
    for action in actions {
        if let Action::Event(event) = action {
            tallies.record(site, event.kind());
        }
    }
    tallies
}

/// The action buffer carries the kernel's decisions: a
/// prepared-then-blocked subordinate emits prepare-forced, vote-granted,
/// termination rounds, crash and recover in its tally row.
#[test]
fn event_sink_observes_the_blocking_window() {
    let mut b = site(1, 3);
    let t = txn(0, 1);
    let mut out = Vec::new();
    b.step(
        Input::Message {
            from: SiteId(0),
            msg: Message::VoteRequest { txn: t },
        },
        &mut out,
    );
    fire_into(&mut b, t, TimerKind::PreparedRetry, &mut out);
    b.step(Input::Crash, &mut out);
    b.step(
        Input::Recover {
            restart_payload: 999,
        },
        &mut out,
    ); // in doubt: resumes termination, round 1 again

    let tallies = tally(b.id(), &out);
    let at = |kind| tallies.count(SiteId(1), kind);
    assert_eq!(at(EventKind::PrepareForced), 1);
    assert_eq!(at(EventKind::VoteGranted), 1);
    assert_eq!(at(EventKind::TerminationRound), 2);
    assert_eq!(at(EventKind::Crashed), 1);
    assert_eq!(at(EventKind::Recovered), 1);
    assert_eq!(tallies.count(SiteId(0), EventKind::VoteGranted), 0);
}

// ----- peer suspicion: a timing hint, never a different verdict --------

/// A coordinator (site 0 of five) that suspects site E, with its vote
/// round open.
fn coordinator_suspecting_e() -> (SiteActor, TxnId) {
    let mut a = site(0, 5);
    a.set_suspected(SiteSet::singleton(SiteId(4)));
    let t = open_round(&mut a, 100);
    (a, t)
}

/// Start an update at `a`; the transaction its one vote-request
/// broadcast (suspected sites are asked like any other) carries.
fn open_round(a: &mut SiteActor, payload: u64) -> TxnId {
    let mut out = Vec::new();
    start(a, payload, &mut out);
    assert!(out.iter().all(|act| !matches!(act, Action::Send { .. })));
    match &out[1] {
        Action::Broadcast {
            msg: Message::VoteRequest { txn },
        } => *txn,
        other => panic!("expected a vote request, got {other:?}"),
    }
}

fn grant(a: &mut SiteActor, t: TxnId, from: u8) -> Vec<Action> {
    let meta = CopyMeta::initial(5, &LinearOrder::lexicographic(5));
    deliver(
        a,
        SiteId(from),
        Message::VoteGranted {
            txn: t,
            meta,
            from: SiteId(from),
        },
    )
}

fn busy(a: &mut SiteActor, t: TxnId, from: u8) -> Vec<Action> {
    deliver(
        a,
        SiteId(from),
        Message::VoteBusy {
            txn: t,
            from: SiteId(from),
        },
    )
}

/// The participant set of the round's `COMMIT`, if `actions` commit.
fn committed_participants(actions: &[Action]) -> Option<SiteSet> {
    actions.iter().find_map(|act| match act {
        Action::Send {
            msg: Message::Commit { participants, .. },
            ..
        } => Some(*participants),
        _ => None,
    })
}

fn sites(text: &str) -> SiteSet {
    SiteSet::parse(text).expect("valid site list")
}

/// With E suspected, the round closes on the last unsuspected reply
/// instead of waiting out the deadline; E's vote, arriving late, finds
/// no round to join.
#[test]
fn round_closes_without_a_suspected_silent_site() {
    let (mut a, t) = coordinator_suspecting_e();
    assert!(grant(&mut a, t, 1).is_empty());
    assert!(grant(&mut a, t, 2).is_empty(), "D is unsuspected: wait");
    let closing = grant(&mut a, t, 3);
    assert!(matches!(
        closing[0],
        Action::Hint(Hint::Unanswered {
            sites: s,
            cause: CloseCause::Suspected,
            ..
        }) if s == sites("E")
    ));
    assert_eq!(committed_participants(&closing), Some(sites("ABCD")));
    assert_eq!(a.meta().cardinality, 4);
    assert!(grant(&mut a, t, 4).is_empty(), "the late vote is ignored");
    // The stale deadline is a no-op too.
    let mut out = Vec::new();
    fire_into(&mut a, t, TimerKind::VoteDeadline, &mut out);
    assert!(out.is_empty());
}

/// Suspicion never costs a site its place: E is still asked, and when
/// its vote is timely it is a counted participant like any other.
#[test]
fn a_suspected_sites_timely_vote_is_counted() {
    let (mut a, t) = coordinator_suspecting_e();
    assert!(grant(&mut a, t, 4).is_empty());
    assert!(grant(&mut a, t, 1).is_empty());
    assert!(
        grant(&mut a, t, 2).is_empty(),
        "four of five in hand, but D is unsuspected and silent: wait"
    );
    let closing = grant(&mut a, t, 3);
    assert!(
        !closing
            .iter()
            .any(|act| matches!(act, Action::Hint(Hint::Unanswered { .. }))),
        "everyone answered: nothing to report"
    );
    assert_eq!(committed_participants(&closing), Some(sites("ABCDE")));
    assert_eq!(a.meta().cardinality, 5);
}

/// A `VoteBusy` is an answer: the busy site is no longer awaited, so
/// the round can close without the suspected one as soon as the grants
/// in hand are distinguished.
#[test]
fn vote_busy_from_an_unsuspected_site_counts_as_an_answer() {
    let (mut a, t) = coordinator_suspecting_e();
    assert!(grant(&mut a, t, 1).is_empty());
    assert!(grant(&mut a, t, 2).is_empty());
    let closing = busy(&mut a, t, 3);
    assert!(closing.iter().any(|act| matches!(
        act,
        Action::Hint(Hint::Unanswered {
            cause: CloseCause::Suspected,
            ..
        })
    )));
    assert_eq!(committed_participants(&closing), Some(sites("ABC")));
}

/// The early close is never a refusal: when the replies in hand are not
/// distinguished the round keeps the full deadline for the suspected
/// site, and only then aborts — exactly as without the hint. (Two of
/// the answers were `VoteBusy`, so the abort is labelled a lost race.)
#[test]
fn undistinguished_replies_keep_waiting_for_the_suspected_site() {
    let (mut a, t) = coordinator_suspecting_e();
    assert!(grant(&mut a, t, 1).is_empty());
    assert!(busy(&mut a, t, 2).is_empty());
    assert!(
        busy(&mut a, t, 3).is_empty(),
        "two of five is no quorum: E gets its full deadline"
    );
    assert!(a.is_locked());
    let mut out = Vec::new();
    fire_into(&mut a, t, TimerKind::VoteDeadline, &mut out);
    assert!(matches!(
        out[0],
        Action::Hint(Hint::Unanswered {
            sites: s,
            cause: CloseCause::Deadline,
            ..
        }) if s == sites("E")
    ));
    assert!(out.iter().any(|act| matches!(
        act,
        Action::Resolved {
            reason: ResolveReason::Contended,
            ..
        }
    )));
}

// ----- the straggler grace and the re-test: two more callers, one test --

/// What a closing action list reports about the peers it left out.
fn unanswered(actions: &[Action]) -> Option<(SiteSet, CloseCause)> {
    actions.iter().find_map(|act| match act {
        Action::Hint(Hint::Unanswered { sites, cause, .. }) => Some((*sites, *cause)),
        _ => None,
    })
}

fn fire(a: &mut SiteActor, t: TxnId, kind: TimerKind) -> Vec<Action> {
    let mut out = Vec::new();
    fire_into(a, t, kind, &mut out);
    out
}

/// The grace runs out with three of five votes in hand: distinguished,
/// so the round closes now, names both silent peers, and commits with
/// the three — what the deadline would have decided, earlier. The
/// kernel never asked for the timer: no `SetTimer` names it.
#[test]
fn grace_with_distinguished_replies_closes_and_names_the_silent_peers() {
    let mut a = site(0, 5);
    let mut opening = Vec::new();
    start(&mut a, 100, &mut opening);
    let [Action::Persist {
        effect: PersistEffect::Seq(1),
        ..
    }, Action::Broadcast {
        msg: Message::VoteRequest { txn: t },
    }, Action::SetTimer {
        kind: TimerKind::VoteDeadline,
        ..
    }] = opening[..]
    else {
        panic!("a sequence number, a vote request and its deadline, nothing else: {opening:?}");
    };
    assert!(grant(&mut a, t, 1).is_empty());
    assert!(grant(&mut a, t, 2).is_empty());
    let closing = fire(&mut a, t, TimerKind::VoteGrace);
    assert_eq!(unanswered(&closing), Some((sites("DE"), CloseCause::Grace)));
    assert_eq!(committed_participants(&closing), Some(sites("ABC")));
    assert_eq!(a.meta().cardinality, 3);
    assert!(fire(&mut a, t, TimerKind::VoteDeadline).is_empty());
    assert!(fire(&mut a, t, TimerKind::VoteGrace).is_empty());
}

/// The grace is never a refusal: with two of five in hand it does
/// nothing at all, however often it fires, and the full deadline is
/// what decides — `NotDistinguished`, exactly as without a grace.
#[test]
fn grace_without_distinguished_replies_is_a_no_op_and_the_deadline_decides() {
    let mut a = site(0, 5);
    let t = open_round(&mut a, 100);
    assert!(grant(&mut a, t, 1).is_empty());
    for _ in 0..3 {
        assert!(fire(&mut a, t, TimerKind::VoteGrace).is_empty());
        assert!(a.is_locked(), "the round stays open");
    }
    let closing = fire(&mut a, t, TimerKind::VoteDeadline);
    assert_eq!(
        unanswered(&closing),
        Some((sites("CDE"), CloseCause::Deadline))
    );
    assert_eq!(resolved(&closing, t), Some(ResolveReason::NotDistinguished));
    // Nor does it act on a round that is past its voting phase, or on
    // somebody else's.
    assert!(fire(&mut a, t, TimerKind::VoteGrace).is_empty());
    assert!(fire(&mut a, TxnId::new(SiteId(3), 9), TimerKind::VoteGrace).is_empty());
}

/// A round whose live votes were all in hand before the host learned
/// that the other peers are silent never sees another vote: the re-test
/// is what closes it. A round that is not distinguished without them
/// stays open through the re-test and gets its full deadline.
#[test]
fn retest_after_growth_closes_a_round_whose_live_votes_are_all_in() {
    let mut a = site(0, 5);
    let t = open_round(&mut a, 100);
    for from in 1..=3 {
        assert!(grant(&mut a, t, from).is_empty(), "E unsuspected: wait");
    }
    let mut out = Vec::new();
    a.step(Input::SuspicionGrew { txn: t }, &mut out);
    assert!(out.is_empty(), "nothing grew: nothing to close");
    a.set_suspected(sites("E"));
    assert!(a.is_locked(), "setting the hint tests nothing by itself");
    a.step(Input::SuspicionGrew { txn: t }, &mut out);
    assert_eq!(unanswered(&out), Some((sites("E"), CloseCause::Suspected)));
    assert_eq!(committed_participants(&out), Some(sites("ABCD")));

    let mut minority = site(0, 5);
    let t = open_round(&mut minority, 100);
    assert!(grant(&mut minority, t, 1).is_empty());
    minority.set_suspected(sites("CDE"));
    let mut out = Vec::new();
    minority.step(Input::SuspicionGrew { txn: t }, &mut out);
    assert!(out.is_empty() && minority.is_locked(), "two of five: wait");
    // D is silent and unsuspected: the re-test must not close on E's
    // account alone either.
    let mut partial = site(0, 5);
    let t = open_round(&mut partial, 100);
    for from in 1..=2 {
        assert!(grant(&mut partial, t, from).is_empty());
    }
    partial.set_suspected(sites("E"));
    partial.step(Input::SuspicionGrew { txn: t }, &mut out);
    assert!(out.is_empty() && partial.is_locked(), "D is still awaited");
}

/// The wire does not bound a frame's sender id: a vote claiming to come
/// from a site outside the cluster (or from one never asked) is dropped
/// without touching the round.
#[test]
fn a_vote_from_an_unknown_site_is_ignored() {
    let (mut a, t) = coordinator_suspecting_e();
    assert!(grant(&mut a, t, 200).is_empty());
    assert!(busy(&mut a, t, 64).is_empty());
    assert!(grant(&mut a, t, 0).is_empty(), "the coordinator itself");
    for from in 1..=2 {
        assert!(grant(&mut a, t, from).is_empty(), "still three awaited");
    }
    assert!(a.is_locked());
}

/// A crash wipes the hint with the rest of the volatile state.
#[test]
fn crash_forgets_the_suspicion_hint() {
    let (mut a, _) = coordinator_suspecting_e();
    a.step(Input::Crash, &mut Vec::new());
    let t = open_round(&mut a, 101);
    for from in 1..=3 {
        assert!(
            grant(&mut a, t, from).is_empty(),
            "E is no longer suspected: the round waits for it"
        );
    }
}

/// Partition `ABC|DE`, commit in the majority, get refused in the
/// minority (so D suspects A, B and C), heal without a sound. D's next
/// round hears E first: `{D, E}` is not distinguished, so it keeps
/// waiting — and then commits with all five, as a coordinator without
/// the hint would.
#[test]
fn healed_minority_coordinator_commits_with_all_five() {
    let (c, d, e) = (SiteId(2), SiteId(3), SiteId(4));
    let mut net = Net::new(AlgorithmKind::Hybrid, 5, true);
    net.start_batch(SiteId(0), &[1]);
    net.settle();
    net.partition(&[sites("ABC"), sites("DE")]);
    net.start_batch(c, &[2]);
    net.settle();
    assert_eq!(net.sites[c.index()].meta().cardinality, 3);
    net.start_batch(d, &[3]);
    net.settle();
    assert_eq!(net.sites[d.index()].meta().version, 1, "minority refused");
    assert_eq!(net.suspected_by(d), sites("ABC"));

    net.heal();
    net.start_batch(d, &[4]);
    for _ in 0..4 {
        assert!(net.deliver_from(d), "four vote requests");
    }
    assert!(net.deliver_from(e), "E's vote arrives first");
    assert!(
        net.sites[d.index()].is_locked(),
        "{{D, E}} is not distinguished: the round stays open"
    );
    assert_eq!(net.suspected_by(d), sites("ABC"));
    net.settle();

    assert_eq!(net.closed_early, 0);
    assert_eq!(net.suspected_by(d), SiteSet::EMPTY);
    let committed = net.sites[d.index()].meta();
    assert_eq!(committed.version, 3);
    assert_eq!(committed.cardinality, 5);
    for site in &net.sites {
        assert_eq!(site.meta(), committed, "site {}", site.id());
    }
}

// ----- contention: a truthful label and an advisory action -------------

/// How the round `t` coordinated at `a` ended, if `actions` end it.
fn resolved(actions: &[Action], t: TxnId) -> Option<ResolveReason> {
    actions.iter().find_map(|act| match act {
        Action::Resolved { txn, reason } if *txn == t => Some(*reason),
        _ => None,
    })
}

/// The same two granted votes out of five abort the round either way;
/// the label says why the other three are missing. A site that answered
/// `VoteBusy` was reachable and locked by a rival: `Contended`. Sites
/// that never answered leave `NotDistinguished` — this partition may
/// not write. Both are one `aborted` event, as before.
#[test]
fn a_lost_lock_race_is_contended_and_a_minority_is_not_distinguished() {
    let aborted =
        |closing: &[Action]| tally(SiteId(0), closing).count(SiteId(0), EventKind::Aborted);

    let mut raced = site(0, 5);
    let t = open_round(&mut raced, 100);
    assert!(grant(&mut raced, t, 1).is_empty());
    assert!(busy(&mut raced, t, 2).is_empty());
    assert!(busy(&mut raced, t, 3).is_empty());
    let closing = busy(&mut raced, t, 4);
    assert_eq!(resolved(&closing, t), Some(ResolveReason::Contended));
    assert!(!raced.is_locked());
    assert_eq!(aborted(&closing), 1);

    let mut cut_off = site(0, 5);
    let t = open_round(&mut cut_off, 100);
    assert!(grant(&mut cut_off, t, 1).is_empty());
    let mut closing = Vec::new();
    fire_into(&mut cut_off, t, TimerKind::VoteDeadline, &mut closing);
    assert_eq!(resolved(&closing, t), Some(ResolveReason::NotDistinguished));
    assert_eq!(aborted(&closing), 1);

    // One busy voter does not relabel a round that commits anyway.
    let mut won = site(0, 5);
    let t = open_round(&mut won, 100);
    for from in 1..=3 {
        assert!(grant(&mut won, t, from).is_empty());
    }
    let closing = busy(&mut won, t, 4);
    assert_eq!(resolved(&closing, t), Some(ResolveReason::Committed));
    assert_eq!(committed_participants(&closing), Some(sites("ABCD")));
}

fn rivals(actions: &[Action]) -> Vec<(TxnId, SiteId)> {
    actions
        .iter()
        .filter_map(|act| match act {
            Action::Hint(Hint::Rival { txn, site }) => Some((*txn, *site)),
            _ => None,
        })
        .collect()
}

fn denies(actions: &[Action]) -> bool {
    actions.iter().any(|act| {
        matches!(
            act,
            Action::Send {
                msg: Message::VoteBusy { .. },
                ..
            }
        )
    })
}

/// `Rival` is what a *coordinator* says when it turns away another
/// coordinator of the same object — not what any locked site says.
#[test]
fn rival_is_emitted_only_while_coordinating_the_same_object() {
    // Coordinating: the denial names the local round and the rival.
    let mut a = site(1, 5);
    let mine = open_round(&mut a, 100);
    let out = deliver(&mut a, SiteId(0), Message::VoteRequest { txn: txn(0, 1) });
    assert!(denies(&out));
    assert_eq!(rivals(&out), vec![(mine, SiteId(0))]);
    // ...for every rival, whichever way the numbering points.
    let out = deliver(&mut a, SiteId(3), Message::VoteRequest { txn: txn(3, 1) });
    assert_eq!(rivals(&out), vec![(mine, SiteId(3))]);

    // Locked as a subordinate: a plain denial.
    let mut b = site(1, 5);
    deliver(&mut b, SiteId(0), Message::VoteRequest { txn: txn(0, 1) });
    let out = deliver(&mut b, SiteId(2), Message::VoteRequest { txn: txn(2, 1) });
    assert!(denies(&out));
    assert!(rivals(&out).is_empty());

    // Idle: a grant.
    let mut c = site(1, 5);
    let out = deliver(&mut c, SiteId(0), Message::VoteRequest { txn: txn(0, 1) });
    assert!(!denies(&out) && rivals(&out).is_empty());

    // Coordinating object 0 while a request for object 1 arrives: the
    // two shards share nothing, so it is granted without comment.
    let mut node = ShardedSite::new(SiteId(1), 5, 2, || AlgorithmKind::Hybrid.instantiate(5));
    let mut out = Vec::new();
    assert!(node
        .step(
            ObjectId(0),
            Input::Update {
                payloads: &[100],
                hold: false
            },
            &mut out
        )
        .is_some());
    out.clear();
    let other = TxnId::keyed(SiteId(0), 1, ObjectId(1));
    let msg = Message::VoteRequest { txn: other };
    node.step(
        ObjectId(1),
        Input::Message {
            from: SiteId(0),
            msg,
        },
        &mut out,
    );
    assert!(!denies(&out) && rivals(&out).is_empty());
    let same = TxnId::keyed(SiteId(0), 2, ObjectId(0));
    let msg = Message::VoteRequest { txn: same };
    node.step(
        ObjectId(0),
        Input::Message {
            from: SiteId(0),
            msg,
        },
        &mut out,
    );
    assert_eq!(rivals(&out).len(), 1);

    // Once the round is over the site is a subordinate like any other.
    let mut d = site(1, 5);
    let t = open_round(&mut d, 100);
    for from in [0, 2, 3] {
        busy(&mut d, t, from);
    }
    busy(&mut d, t, 4);
    assert!(!d.is_locked());
    let out = deliver(&mut d, SiteId(0), Message::VoteRequest { txn: txn(0, 1) });
    assert!(!denies(&out) && rivals(&out).is_empty());
}

/// Routing must actually bite, or the equivalence below is vacuous: B
/// races A once, and from then on B's updates are coordinated at A.
#[test]
fn the_loser_of_a_race_hands_its_next_update_to_the_winner() {
    let (a, b) = (SiteId(0), SiteId(1));
    let mut net = Net::new(AlgorithmKind::Hybrid, 5, false).routed();
    net.start_batch(a, &[1]);
    net.start_batch(b, &[2]);
    net.settle();
    assert_eq!(net.rivals, 2, "each coordinator turned the other away");
    assert_eq!(net.home_of(b), Some(a));
    assert_eq!(net.home_of(a), None, "hints point downward only");
    assert_eq!(net.sites[0].meta().version, 1, "one of the two committed");

    let rounds_at_a = net.sites[0].durable().next_seq;
    let rounds_at_b = net.sites[1].durable().next_seq;
    net.submit_update(b, 3);
    net.settle();
    assert_eq!(net.forwarded, 1);
    assert_eq!(net.sites[0].durable().next_seq, rounds_at_a + 1);
    assert_eq!(net.sites[1].durable().next_seq, rounds_at_b);
    assert_eq!(net.sites[1].meta().version, 2);

    // A home that cannot be reached is bypassed, and a crash forgets it.
    net.crash(a);
    net.submit_update(b, 4);
    net.settle();
    assert_eq!(net.forwarded, 1);
    assert_eq!(net.sites[1].meta().version, 3);
    net.crash(b);
    assert_eq!(net.home_of(b), None);
}

#[derive(Debug, Clone, Copy)]
enum RouteStep {
    Crash(u8),
    Recover(u8),
    Update(u8),
    /// Two sites start a round at the same instant — the only way a
    /// hint is ever learned.
    Race(u8, u8),
}

fn route_script() -> impl Strategy<Value = Vec<RouteStep>> {
    proptest::collection::vec(
        (0..8u8, 0..5u8, 0..5u8).prop_map(|(kind, s, t)| match kind {
            0 => RouteStep::Crash(s),
            1 => RouteStep::Recover(s),
            2 | 3 => RouteStep::Race(s, t),
            _ => RouteStep::Update(s),
        }),
        1..=40,
    )
}

fn run_route_script(algorithm: AlgorithmKind, script: &[RouteStep], routed: bool) -> Net {
    let mut net = Net::new(algorithm, 5, false);
    if routed {
        net = net.routed();
    }
    for (i, step) in script.iter().enumerate() {
        let payload = 1000 + 2 * i as u64;
        match *step {
            RouteStep::Crash(s) => net.crash(SiteId(s)),
            RouteStep::Recover(s) => net.recover(SiteId(s), payload),
            RouteStep::Update(s) => {
                if !net.is_down(SiteId(s)) {
                    net.submit_update(SiteId(s), payload);
                }
            }
            RouteStep::Race(s, t) => {
                for (site, payload) in [(s, payload), (t, payload + 1)] {
                    if !net.is_down(SiteId(site)) {
                        net.start_batch(SiteId(site), &[payload]);
                    }
                }
            }
        }
        net.settle();
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Rival` is advisory: a harness that acts on it — coordinating a
    /// site's later updates at the lower-numbered site it raced — and
    /// one that ignores it leave every site with byte-identical
    /// `(VN, SC, DS)` metadata and log, for every algorithm and every
    /// random crash/recover/race script. Each step runs to rest, so
    /// the only difference is *where* an update is coordinated.
    #[test]
    fn acting_on_rival_changes_no_durable_state(script in route_script()) {
        for algorithm in AlgorithmKind::ALL {
            let routed = run_route_script(algorithm, &script, true);
            let plain = run_route_script(algorithm, &script, false);
            prop_assert_eq!(plain.forwarded, 0);
            prop_assert_eq!(routed.rivals, plain.rivals);
            for (r, p) in routed.sites.iter().zip(&plain.sites) {
                prop_assert_eq!(
                    r.meta(),
                    p.meta(),
                    "{:?}: site {} metadata diverges",
                    algorithm,
                    r.id()
                );
                prop_assert_eq!(
                    r.log(),
                    p.log(),
                    "{:?}: site {} log diverges",
                    algorithm,
                    r.id()
                );
            }
        }
    }
}
