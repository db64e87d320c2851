//! A generic timer wheel shared by every event loop.
//!
//! Both harnesses of the protocol kernel need the same structure: a
//! binary heap of pending deadlines, ordered by `(deadline, arming
//! order)` so that ties fire in the order they were armed, with
//! per-timer *tombstones* for a deadline nobody waits on any more (its
//! transaction finished first) and [`TimerWheel::clear`] for a crash,
//! which voids every timer at once. The simulator instantiates it over
//! virtual time ([`VirtualInstant`], a totally ordered `f64`), the live
//! cluster over [`std::time::Instant`]; jittered delays come from
//! [`BackoffPolicy`](crate::BackoffPolicy) scaling the delay *before*
//! it is scheduled, so the wheel itself stays deterministic.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Virtual time for discrete-event simulation: a totally ordered
/// wrapper over `f64` seconds (NaN-free by construction — deadlines are
/// `clock + delay` with finite, validated delays).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualInstant(pub f64);

impl Eq for VirtualInstant {}

impl PartialOrd for VirtualInstant {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VirtualInstant {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One armed timer: a deadline, the arming order (tie-break), and the
/// caller's payload.
#[derive(Debug, Clone)]
struct Entry<T, P> {
    when: T,
    seq: u64,
    payload: P,
}

impl<T: Ord, P> PartialEq for Entry<T, P> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<T: Ord, P> Eq for Entry<T, P> {}

impl<T: Ord, P> PartialOrd for Entry<T, P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord, P> Ord for Entry<T, P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.when
            .cmp(&other.when)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Names one armed timer, for [`TimerWheel::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// A binary-heap timer wheel ordered by `(deadline, arming order)` with
/// per-timer tombstones.
///
/// [`cancel`](TimerWheel::cancel) retires one armed timer in O(1): its
/// entry is discarded lazily as the heap is inspected, so a
/// cancellation never walks the heap, and a wall-clock loop is never
/// woken for a deadline nobody waits on.
#[derive(Debug)]
pub struct TimerWheel<T, P> {
    heap: BinaryHeap<Reverse<Entry<T, P>>>,
    seq: u64,
    /// Tombstones: cancelled timers still sitting in the heap. Each
    /// leaves the set with its entry.
    cancelled: HashSet<u64>,
}

impl<T: Ord, P> Default for TimerWheel<T, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord, P> TimerWheel<T, P> {
    /// An empty wheel.
    #[must_use]
    pub fn new() -> Self {
        TimerWheel {
            heap: BinaryHeap::new(),
            seq: 0,
            cancelled: HashSet::new(),
        }
    }

    /// Arm a timer for `when`. Equal deadlines fire in arming order.
    pub fn schedule(&mut self, when: T, payload: P) -> TimerId {
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            when,
            seq: self.seq,
            payload,
        }));
        TimerId(self.seq)
    }

    /// Retire one armed timer: it will never be popped and no accessor
    /// reports its deadline. Cancel each timer at most once, and only
    /// while it is armed — a tombstone for an entry that has already
    /// left the heap would never be collected.
    pub fn cancel(&mut self, id: TimerId) {
        self.cancelled.insert(id.0);
    }

    /// Drop every timer, armed or cancelled (a crash boundary). Timers
    /// armed afterwards fire normally; no earlier [`TimerId`] may be
    /// cancelled.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
    }

    /// Discard cancelled entries sitting at the top of the heap.
    fn skim(&mut self) {
        while let Some(Reverse(e)) = self.heap.peek() {
            if self.cancelled.is_empty() || !self.cancelled.remove(&e.seq) {
                break;
            }
            self.heap.pop();
        }
        // Every tombstone leaves with its entry, so an empty heap keeps
        // none: one left over named a timer that was no longer armed.
        debug_assert!(
            !self.heap.is_empty() || self.cancelled.is_empty(),
            "a cancelled timer was not armed"
        );
    }

    /// The earliest live deadline, if any.
    pub fn next_deadline(&mut self) -> Option<&T> {
        self.skim();
        self.heap.peek().map(|Reverse(e)| &e.when)
    }

    /// Pop the earliest live timer regardless of the clock (the
    /// discrete-event loop: the pop *advances* time).
    pub fn pop_next(&mut self) -> Option<(T, P)> {
        self.skim();
        self.heap.pop().map(|Reverse(e)| (e.when, e.payload))
    }

    /// Pop the earliest live timer whose deadline is at or before
    /// `now`, or `None` if nothing is due yet (the wall-clock loop).
    pub fn pop_due(&mut self, now: &T) -> Option<(T, P)> {
        self.skim();
        if matches!(self.heap.peek(), Some(Reverse(e)) if e.when <= *now) {
            self.heap.pop().map(|Reverse(e)| (e.when, e.payload))
        } else {
            None
        }
    }

    /// Number of entries in the heap (cancelled entries included until
    /// they are lazily discarded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn entries_order_by_deadline_then_arming_order() {
        // Relocated from the cluster node runtime: two timers at the
        // same deadline fire in arming order; an earlier deadline armed
        // later still fires first.
        let mut wheel: TimerWheel<Instant, u32> = TimerWheel::new();
        let base = Instant::now();
        wheel.schedule(base + Duration::from_millis(10), 1);
        wheel.schedule(base + Duration::from_millis(5), 2);
        wheel.schedule(base + Duration::from_millis(5), 3);
        let order: Vec<u32> = std::iter::from_fn(|| wheel.pop_next().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn virtual_instants_total_order_and_tie_break() {
        let mut wheel: TimerWheel<VirtualInstant, &str> = TimerWheel::new();
        wheel.schedule(VirtualInstant(2.0), "late");
        wheel.schedule(VirtualInstant(1.0), "early");
        wheel.schedule(VirtualInstant(1.0), "early-second");
        assert_eq!(wheel.next_deadline(), Some(&VirtualInstant(1.0)));
        assert_eq!(wheel.pop_next(), Some((VirtualInstant(1.0), "early")));
        assert_eq!(
            wheel.pop_next(),
            Some((VirtualInstant(1.0), "early-second"))
        );
        assert_eq!(wheel.pop_next(), Some((VirtualInstant(2.0), "late")));
        assert_eq!(wheel.pop_next(), None);
    }

    #[test]
    fn cancelled_timers_are_skimmed() {
        let mut wheel: TimerWheel<VirtualInstant, u32> = TimerWheel::new();
        let first = wheel.schedule(VirtualInstant(1.0), 1);
        let second = wheel.schedule(VirtualInstant(2.0), 2);
        wheel.schedule(VirtualInstant(3.0), 3);
        wheel.cancel(first);
        wheel.cancel(second);
        // The cancelled entries are still physically present...
        assert_eq!(wheel.len(), 3);
        // ...but no accessor reports one: a wall-clock loop sleeping
        // until `next_deadline` is not woken for it.
        assert_eq!(wheel.next_deadline(), Some(&VirtualInstant(3.0)));
        assert_eq!(wheel.pop_due(&VirtualInstant(2.5)), None);
        assert_eq!(
            wheel.pop_due(&VirtualInstant(3.0)),
            Some((VirtualInstant(3.0), 3))
        );
        assert!(wheel.is_empty());
        // A tombstone dies with its entry.
        assert!(wheel.cancelled.is_empty());
    }

    #[test]
    fn clear_drops_every_timer_and_tombstone() {
        let mut wheel: TimerWheel<VirtualInstant, u32> = TimerWheel::new();
        wheel.schedule(VirtualInstant(1.0), 1);
        let doomed = wheel.schedule(VirtualInstant(2.0), 2);
        wheel.cancel(doomed);
        wheel.clear();
        assert!(wheel.is_empty());
        assert!(wheel.cancelled.is_empty());
        // Timers armed after a clear fire normally.
        wheel.schedule(VirtualInstant(3.0), 3);
        assert_eq!(wheel.pop_next(), Some((VirtualInstant(3.0), 3)));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a cancelled timer was not armed")]
    fn cancelling_a_timer_that_already_fired_is_caught() {
        let mut wheel: TimerWheel<VirtualInstant, u32> = TimerWheel::new();
        let fired = wheel.schedule(VirtualInstant(1.0), 1);
        assert_eq!(wheel.pop_next(), Some((VirtualInstant(1.0), 1)));
        wheel.cancel(fired);
        wheel.next_deadline();
    }

    #[test]
    fn pop_due_respects_the_clock() {
        let mut wheel: TimerWheel<VirtualInstant, u32> = TimerWheel::new();
        wheel.schedule(VirtualInstant(5.0), 1);
        wheel.schedule(VirtualInstant(10.0), 2);
        assert_eq!(wheel.pop_due(&VirtualInstant(4.9)), None);
        assert_eq!(
            wheel.pop_due(&VirtualInstant(5.0)),
            Some((VirtualInstant(5.0), 1))
        );
        assert_eq!(wheel.pop_due(&VirtualInstant(5.0)), None);
        assert_eq!(
            wheel.pop_due(&VirtualInstant(100.0)),
            Some((VirtualInstant(10.0), 2))
        );
    }
}
