//! Kernel-only protocol tests: 2PC's blocking window, durable prepare
//! records, and presumed abort — driven directly through [`SiteActor`]
//! method calls, with no engine, transport, or clock. What the
//! simulator and cluster harnesses exercise statistically, these pin
//! deterministically at the state-machine boundary.

mod common;

use common::Net;
use dynvote_core::{AlgorithmKind, CopyMeta, LinearOrder, SiteId, SiteSet};
use dynvote_protocol::{
    Action, CountingSink, EventKind, Message, ResolveReason, SiteActor, StatusOutcome, TimerKind,
    TxnId,
};
use std::sync::Arc;

fn site(id: u8, n: usize) -> SiteActor {
    SiteActor::new(SiteId(id), n, AlgorithmKind::Hybrid.instantiate(n))
}

fn txn(c: u8, seq: u64) -> TxnId {
    TxnId::new(SiteId(c), seq)
}

/// Run `handle_message` into a fresh sink (tests care about one call's
/// actions at a time; production callers reuse one buffer).
fn deliver(a: &mut SiteActor, from: SiteId, msg: Message) -> Vec<Action> {
    let mut out = Vec::new();
    a.handle_message(from, msg, &mut out);
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
        b.timer_fired(t, TimerKind::PreparedRetry, &mut actions);
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

    b.crash();
    assert!(!b.is_locked(), "volatile lock is lost");
    assert!(b.is_in_doubt(), "the prepare record is durable");

    let mut actions = Vec::new();
    b.recover(999, &mut actions);
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
    a.start_update(100, &mut actions);
    let t = match &actions[0] {
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
    a.crash();
    a.recover(999, &mut Vec::new());
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

/// The sink sees the kernel's decisions: a prepared-then-blocked
/// subordinate emits prepare-forced, vote-granted, termination rounds,
/// crash and recover in its tally row.
#[test]
fn event_sink_observes_the_blocking_window() {
    let sink = Arc::new(CountingSink::new());
    let mut b = site(1, 3);
    b.set_sink(sink.clone());
    let t = txn(0, 1);
    let mut sink_buf = Vec::new();
    b.handle_message(SiteId(0), Message::VoteRequest { txn: t }, &mut sink_buf);
    b.timer_fired(t, TimerKind::PreparedRetry, &mut sink_buf);
    b.crash();
    b.recover(999, &mut sink_buf); // in doubt: resumes termination, round 1 again

    let tallies = sink.tallies();
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
    a.start_update(payload, &mut out);
    assert!(out.iter().all(|act| !matches!(act, Action::Send { .. })));
    match &out[0] {
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
        Action::Unanswered {
            sites: s,
            early: true,
            ..
        } if s == sites("E")
    ));
    assert_eq!(committed_participants(&closing), Some(sites("ABCD")));
    assert_eq!(a.meta().cardinality, 4);
    assert!(grant(&mut a, t, 4).is_empty(), "the late vote is ignored");
    // The stale deadline is a no-op too.
    let mut out = Vec::new();
    a.timer_fired(t, TimerKind::VoteDeadline, &mut out);
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
            .any(|act| matches!(act, Action::Unanswered { .. })),
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
    assert!(closing
        .iter()
        .any(|act| matches!(act, Action::Unanswered { early: true, .. })));
    assert_eq!(committed_participants(&closing), Some(sites("ABC")));
}

/// The early close is never a refusal: when the replies in hand are not
/// distinguished the round keeps the full deadline for the suspected
/// site, and only then aborts — exactly as without the hint.
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
    a.timer_fired(t, TimerKind::VoteDeadline, &mut out);
    assert!(matches!(
        out[0],
        Action::Unanswered {
            sites: s,
            early: false,
            ..
        } if s == sites("E")
    ));
    assert!(out.iter().any(|act| matches!(
        act,
        Action::Resolved {
            reason: ResolveReason::NotDistinguished,
            ..
        }
    )));
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
    a.crash();
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
    net.start_update(SiteId(0), 1);
    net.settle();
    net.partition(&[sites("ABC"), sites("DE")]);
    net.start_update(c, 2);
    net.settle();
    assert_eq!(net.sites[c.index()].meta().cardinality, 3);
    net.start_update(d, 3);
    net.settle();
    assert_eq!(net.sites[d.index()].meta().version, 1, "minority refused");
    assert_eq!(net.suspected_by(d), sites("ABC"));

    net.heal();
    net.start_update(d, 4);
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
