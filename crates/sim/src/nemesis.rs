//! Nemesis fault orchestration: serializable schedules of composable
//! fault behaviors, plus automatic minimization of failing schedules.
//!
//! The paper's correctness claim (Theorem 1) is universally quantified:
//! *no* interleaving of site crashes, partitions, message losses,
//! duplications or reorderings may ever commit two different updates at
//! the same version. Ad-hoc random fault injection exercises that claim
//! but leaves two gaps this module closes:
//!
//! 1. **Reproducibility.** A [`FaultSchedule`] is a plain data value —
//!    a list of time-stamped, windowed behaviors — that serializes to
//!    JSON via `serde`. A failing run can be saved, attached to a bug
//!    report, and replayed bit-for-bit: the engine consumes the
//!    schedule through [`crate::Simulation::apply_schedule`], and with
//!    the same seed and workload the replay reproduces the original
//!    event stream exactly.
//! 2. **Debuggability.** When a schedule does trigger an invariant
//!    violation, [`minimize`] delta-debugs it: drop events, then shrink
//!    the surviving windows, until the schedule is 1-minimal — removing
//!    any single remaining event makes the failure disappear. What is
//!    left is usually a two-or-three-event reproducer a human can
//!    actually reason about.
//!
//! The vocabulary is deliberately broader than the paper's fault model:
//! besides crashes and (rolling) partitions it includes *asymmetric*
//! one-way link failures, lossy bursts, duplication windows, and
//! reordering via randomized per-message latency — the Section II
//! assumption "messages may be lost or delivered out of order" made
//! mechanically checkable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One time-stamped, windowed nemesis behavior.
///
/// `at` is the onset and `duration` the window length, both in
/// simulation time units relative to the moment the schedule is applied
/// ([`crate::Simulation::apply_schedule`]). Every behavior cleans up
/// after itself when its window closes: crashed sites restart,
/// partitions heal, severed directions repair, channel knobs reset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NemesisEvent {
    /// Crash `site` at `at`; restart it `duration` later (the restart
    /// protocol of Section V-C runs on recovery).
    Crash {
        /// Index of the site to crash.
        site: usize,
        /// Onset time.
        at: f64,
        /// Downtime before the automatic restart.
        duration: f64,
    },
    /// Impose an explicit partition layout at `at`; heal all links
    /// `duration` later. A sequence of these with shifting `groups`
    /// forms a rolling partition.
    Partition {
        /// The partition classes, each a list of site indices.
        groups: Vec<Vec<usize>>,
        /// Onset time.
        at: f64,
        /// How long the layout stays imposed.
        duration: f64,
    },
    /// Sever only the `from → to` direction of a link: `to` keeps
    /// reaching `from` while the reverse messages vanish — the
    /// asymmetric failure mode symmetric fault injectors cannot
    /// express.
    OneWay {
        /// Sending side of the severed direction.
        from: usize,
        /// Receiving side of the severed direction.
        to: usize,
        /// Onset time.
        at: f64,
        /// How long the direction stays severed.
        duration: f64,
    },
    /// Raise the message-drop probability to `p` for the window (lossy
    /// burst). Combines with the configured baseline by `max`.
    Lossy {
        /// Drop probability during the window.
        p: f64,
        /// Onset time.
        at: f64,
        /// Window length.
        duration: f64,
    },
    /// Deliver each message twice with probability `p` during the
    /// window; the copy takes an independent transit time, so it also
    /// arrives out of order.
    Duplicate {
        /// Duplication probability during the window.
        p: f64,
        /// Onset time.
        at: f64,
        /// Window length.
        duration: f64,
    },
    /// Add a uniform random extra latency in `[0, extra)` to every
    /// message sent during the window. Extra beyond one base latency
    /// lets later messages overtake earlier ones (reordering).
    Reorder {
        /// Upper bound on the per-message extra latency.
        extra: f64,
        /// Onset time.
        at: f64,
        /// Window length.
        duration: f64,
    },
}

impl NemesisEvent {
    /// The behavior's onset time.
    #[must_use]
    pub fn at(&self) -> f64 {
        match self {
            NemesisEvent::Crash { at, .. }
            | NemesisEvent::Partition { at, .. }
            | NemesisEvent::OneWay { at, .. }
            | NemesisEvent::Lossy { at, .. }
            | NemesisEvent::Duplicate { at, .. }
            | NemesisEvent::Reorder { at, .. } => *at,
        }
    }

    /// The behavior's window length.
    #[must_use]
    pub fn duration(&self) -> f64 {
        match self {
            NemesisEvent::Crash { duration, .. }
            | NemesisEvent::Partition { duration, .. }
            | NemesisEvent::OneWay { duration, .. }
            | NemesisEvent::Lossy { duration, .. }
            | NemesisEvent::Duplicate { duration, .. }
            | NemesisEvent::Reorder { duration, .. } => *duration,
        }
    }

    /// The same behavior with a different window length (used by the
    /// minimizer's window-shrinking pass).
    #[must_use]
    pub fn with_duration(&self, new: f64) -> Self {
        let mut event = self.clone();
        match &mut event {
            NemesisEvent::Crash { duration, .. }
            | NemesisEvent::Partition { duration, .. }
            | NemesisEvent::OneWay { duration, .. }
            | NemesisEvent::Lossy { duration, .. }
            | NemesisEvent::Duplicate { duration, .. }
            | NemesisEvent::Reorder { duration, .. } => *duration = new,
        }
        event
    }

    /// When the behavior's window closes.
    #[must_use]
    pub fn end(&self) -> f64 {
        self.at() + self.duration()
    }
}

/// Intensity knobs for [`FaultSchedule::generate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NemesisProfile {
    /// Number of crash/restart events.
    pub crashes: usize,
    /// Number of imposed-partition windows.
    pub partitions: usize,
    /// Number of one-way link severances.
    pub one_way: usize,
    /// Number of lossy bursts.
    pub lossy: usize,
    /// Number of duplication windows.
    pub duplicate: usize,
    /// Number of reordering windows.
    pub reorder: usize,
    /// Upper bound on a lossy burst's drop probability.
    pub max_loss: f64,
    /// Upper bound on a duplication window's probability.
    pub max_duplicate: f64,
    /// Upper bound on a reordering window's extra latency.
    pub max_extra_latency: f64,
}

impl Default for NemesisProfile {
    fn default() -> Self {
        NemesisProfile {
            crashes: 6,
            partitions: 3,
            one_way: 4,
            lossy: 2,
            duplicate: 2,
            reorder: 2,
            max_loss: 0.3,
            max_duplicate: 0.3,
            // Five times the default base latency: ample reordering.
            max_extra_latency: 0.05,
        }
    }
}

/// A serializable, replayable schedule of nemesis behaviors.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// The behaviors, in no particular order (the engine sorts by time
    /// when expanding them into its event queue).
    pub events: Vec<NemesisEvent>,
}

impl FaultSchedule {
    /// A schedule over the given behaviors.
    #[must_use]
    pub fn new(events: Vec<NemesisEvent>) -> Self {
        FaultSchedule { events }
    }

    /// Number of behaviors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the schedule has no behaviors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// When the last window closes (0 for an empty schedule).
    #[must_use]
    pub fn end_time(&self) -> f64 {
        self.events
            .iter()
            .map(NemesisEvent::end)
            .fold(0.0, f64::max)
    }

    /// Serialize to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("schedules always serialize")
    }

    /// Parse a schedule back from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid fault schedule: {e}"))
    }

    /// A randomized schedule for an `n`-site cluster over `[0,
    /// horizon)`: the event mix comes from `profile`, the placement from
    /// a dedicated PRNG seeded with `seed` — independent from the
    /// engine's seed, so the same schedule can be replayed under
    /// different engine seeds and vice versa.
    #[must_use]
    pub fn generate(n: usize, horizon: f64, seed: u64, profile: &NemesisProfile) -> Self {
        assert!(n >= 2 && horizon > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        // Windows span 2%..20% of the horizon so faults overlap but
        // none smothers the whole run.
        let window = |rng: &mut StdRng| -> (f64, f64) {
            let at = rng.gen::<f64>() * horizon * 0.9;
            let duration = horizon * (0.02 + 0.18 * rng.gen::<f64>());
            (at, duration)
        };
        for _ in 0..profile.crashes {
            let (at, duration) = window(&mut rng);
            events.push(NemesisEvent::Crash {
                site: rng.gen_range(0..n),
                at,
                duration,
            });
        }
        for _ in 0..profile.partitions {
            let (at, duration) = window(&mut rng);
            // A random two-way split with both sides non-empty.
            let pivot = rng.gen_range(0..n);
            let mut left = vec![pivot];
            let mut right: Vec<usize> = Vec::new();
            for site in (0..n).filter(|&s| s != pivot) {
                if right.is_empty() || rng.gen_bool(0.5) {
                    right.push(site);
                } else {
                    left.push(site);
                }
            }
            events.push(NemesisEvent::Partition {
                groups: vec![left, right],
                at,
                duration,
            });
        }
        for _ in 0..profile.one_way {
            let (at, duration) = window(&mut rng);
            let from = rng.gen_range(0..n);
            let mut to = rng.gen_range(0..n - 1);
            if to >= from {
                to += 1;
            }
            events.push(NemesisEvent::OneWay {
                from,
                to,
                at,
                duration,
            });
        }
        for _ in 0..profile.lossy {
            let (at, duration) = window(&mut rng);
            events.push(NemesisEvent::Lossy {
                p: profile.max_loss * rng.gen::<f64>(),
                at,
                duration,
            });
        }
        for _ in 0..profile.duplicate {
            let (at, duration) = window(&mut rng);
            events.push(NemesisEvent::Duplicate {
                p: profile.max_duplicate * rng.gen::<f64>(),
                at,
                duration,
            });
        }
        for _ in 0..profile.reorder {
            let (at, duration) = window(&mut rng);
            events.push(NemesisEvent::Reorder {
                extra: profile.max_extra_latency * (0.2 + 0.8 * rng.gen::<f64>()),
                at,
                duration,
            });
        }
        FaultSchedule { events }
    }
}

/// Delta-debug a failing schedule down to a locally minimal reproducer.
///
/// `failing` is the oracle: it must return `true` when running the
/// given schedule still exhibits the failure under investigation
/// (typically: build a fresh [`crate::Simulation`] with the *same* seed
/// and workload, apply the candidate, run, and check
/// [`crate::Simulation::check_invariants`]). Determinism of the engine
/// under a fixed seed is what makes the oracle meaningful.
///
/// Two passes run to a fixed point:
///
/// 1. **ddmin over events** (Zeller's algorithm): try chunks and chunk
///    complements at increasing granularity, keeping any smaller
///    schedule that still fails, until the event list is 1-minimal.
/// 2. **Window shrinking**: repeatedly halve each surviving event's
///    `duration` while the failure persists, stopping at millisecond
///    scale.
///
/// If the input schedule does not fail the oracle it is returned
/// unchanged — there is nothing to minimize.
pub fn minimize<F>(schedule: &FaultSchedule, mut failing: F) -> FaultSchedule
where
    F: FnMut(&FaultSchedule) -> bool,
{
    if schedule.is_empty() || !failing(schedule) {
        return schedule.clone();
    }
    let mut events = schedule.events.clone();
    let mut granularity = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0usize;
        while start < events.len() {
            let end = (start + chunk).min(events.len());
            // Try the chunk alone, then its complement — the classic
            // ddmin probe order (subset first converges faster when a
            // single event is responsible).
            let subset: Vec<NemesisEvent> = events[start..end].to_vec();
            if subset.len() < events.len() && failing(&FaultSchedule::new(subset.clone())) {
                events = subset;
                granularity = 2;
                reduced = true;
                break;
            }
            let complement: Vec<NemesisEvent> = events[..start]
                .iter()
                .chain(&events[end..])
                .cloned()
                .collect();
            if !complement.is_empty()
                && complement.len() < events.len()
                && failing(&FaultSchedule::new(complement.clone()))
            {
                events = complement;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= events.len() {
                break;
            }
            granularity = (granularity * 2).min(events.len());
        }
    }
    // Window shrinking: halve durations while the failure persists.
    for i in 0..events.len() {
        loop {
            let duration = events[i].duration();
            if duration <= 1e-3 {
                break;
            }
            let mut candidate = events.clone();
            candidate[i] = events[i].with_duration(duration / 2.0);
            if failing(&FaultSchedule::new(candidate.clone())) {
                events = candidate;
            } else {
                break;
            }
        }
    }
    FaultSchedule { events }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(site: usize, at: f64) -> NemesisEvent {
        NemesisEvent::Crash {
            site,
            at,
            duration: 4.0,
        }
    }

    #[test]
    fn json_round_trip_preserves_every_variant() {
        let schedule = FaultSchedule::new(vec![
            crash(3, 1.0),
            NemesisEvent::Partition {
                groups: vec![vec![0, 1], vec![2, 3, 4]],
                at: 2.0,
                duration: 5.0,
            },
            NemesisEvent::OneWay {
                from: 2,
                to: 0,
                at: 3.0,
                duration: 1.5,
            },
            NemesisEvent::Lossy {
                p: 0.25,
                at: 4.0,
                duration: 2.0,
            },
            NemesisEvent::Duplicate {
                p: 0.1,
                at: 5.0,
                duration: 2.0,
            },
            NemesisEvent::Reorder {
                extra: 0.05,
                at: 6.0,
                duration: 2.0,
            },
        ]);
        let json = schedule.to_json();
        let back = FaultSchedule::from_json(&json).unwrap();
        assert_eq!(schedule, back);
        assert_eq!(back.end_time(), 8.0);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(FaultSchedule::from_json("not json").is_err());
        assert!(FaultSchedule::from_json(r#"{"events": [{"Explode": {}}]}"#).is_err());
    }

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let profile = NemesisProfile::default();
        let a = FaultSchedule::generate(5, 60.0, 11, &profile);
        let b = FaultSchedule::generate(5, 60.0, 11, &profile);
        assert_eq!(a, b);
        let c = FaultSchedule::generate(5, 60.0, 12, &profile);
        assert_ne!(a, c, "different seeds give different schedules");
        let expected = profile.crashes
            + profile.partitions
            + profile.one_way
            + profile.lossy
            + profile.duplicate
            + profile.reorder;
        assert_eq!(a.len(), expected);
        for event in &a.events {
            assert!(event.at() >= 0.0 && event.end() <= 60.0 * 1.2);
        }
    }

    #[test]
    fn minimize_isolates_the_guilty_event() {
        let profile = NemesisProfile::default();
        let schedule = FaultSchedule::generate(5, 60.0, 3, &profile);
        assert!(schedule.len() > 10);
        // The failure is "any crash of site 0 is present".
        let guilty = |s: &FaultSchedule| {
            s.events
                .iter()
                .any(|e| matches!(e, NemesisEvent::Crash { site: 0, .. }))
        };
        assert!(
            guilty(&schedule),
            "seed 3 must produce a crash of site 0 for this test"
        );
        let minimal = minimize(&schedule, |s| guilty(s));
        assert_eq!(minimal.len(), 1, "1-minimal: exactly the guilty event");
        assert!(guilty(&minimal));
    }

    #[test]
    fn minimize_shrinks_windows() {
        // Failure: some lossy window still covers t = 10.
        let schedule = FaultSchedule::new(vec![
            NemesisEvent::Lossy {
                p: 0.5,
                at: 2.0,
                duration: 40.0,
            },
            crash(1, 5.0),
        ]);
        let covers = |s: &FaultSchedule| {
            s.events.iter().any(|e| {
                matches!(e, NemesisEvent::Lossy { .. }) && e.at() <= 10.0 && e.end() >= 10.0
            })
        };
        let minimal = minimize(&schedule, |s| covers(s));
        assert_eq!(minimal.len(), 1, "the crash is dropped");
        let window = &minimal.events[0];
        assert!(covers(&minimal));
        assert!(
            window.duration() <= 10.0,
            "duration shrank from 40 toward the minimum that still covers t=10, got {}",
            window.duration()
        );
    }

    #[test]
    fn minimize_returns_non_failing_input_unchanged() {
        let schedule = FaultSchedule::new(vec![crash(2, 1.0)]);
        let out = minimize(&schedule, |_| false);
        assert_eq!(out, schedule);
    }
}
