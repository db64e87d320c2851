//! Exponential backoff with jitter — the shared retry-timer policy.
//!
//! Both the discrete-event simulator (`dynvote-sim`) and the live
//! cluster runtime (`dynvote-cluster`) arm retry timers for the
//! cooperative termination protocol: a prepared subordinate that never
//! hears the coordinator's decision re-probes its peers, doubling the
//! delay between rounds so that simultaneously blocked sites do not
//! synchronize into retry storms. The computation used to live inside
//! the simulator's engine; it is extracted here so every runtime backs
//! off identically and the policy can be tuned (and tested) in one
//! place.
//!
//! Delays are plain `f64` time units: the simulator interprets them as
//! simulated time, the cluster runtime as seconds of wall-clock time.

use serde::{Deserialize, Serialize};

/// Exponential backoff with decorrelating jitter.
///
/// Round `r` (counted from 0) waits `initial · 2^r`, capped at `max`,
/// then scaled by a uniform factor in `[1 − jitter, 1 + jitter)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackoffPolicy {
    /// Delay before the first retry round.
    pub initial: f64,
    /// Upper bound on the (un-jittered) delay.
    pub max: f64,
    /// Jitter fraction in `[0, 1)`: `0` disables jitter entirely.
    pub jitter: f64,
}

impl BackoffPolicy {
    /// A jitter-free policy doubling from `initial` up to `max`.
    #[must_use]
    pub const fn new(initial: f64, max: f64) -> Self {
        BackoffPolicy {
            initial,
            max,
            jitter: 0.0,
        }
    }

    /// The same policy with a jitter fraction attached.
    #[must_use]
    pub const fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// The un-jittered delay for retry round `rounds` (counted from 0):
    /// `initial · 2^rounds`, capped at `max`.
    #[must_use]
    pub fn base_delay(&self, rounds: u32) -> f64 {
        // 2^62 already dwarfs any sane max/initial ratio.
        let factor = f64::powi(2.0, rounds.min(62) as i32);
        (self.initial * factor).min(self.max)
    }

    /// Scale an arbitrary base delay by the policy's jitter fraction,
    /// given a uniform draw `u ∈ [0, 1)`: the result is uniform in
    /// `[base·(1 − jitter), base·(1 + jitter))`. With `jitter == 0` the
    /// base is returned untouched (and callers need not consume
    /// randomness at all).
    #[must_use]
    pub fn scale(&self, base: f64, u: f64) -> f64 {
        if self.jitter > 0.0 {
            base * (1.0 - self.jitter + 2.0 * self.jitter * u)
        } else {
            base
        }
    }

    /// The jittered delay for retry round `rounds`, given a uniform
    /// draw `u ∈ [0, 1)`.
    #[must_use]
    pub fn delay(&self, rounds: u32, u: f64) -> f64 {
        self.scale(self.base_delay(rounds), u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_and_caps() {
        let p = BackoffPolicy::new(0.25, 2.0);
        assert_eq!(p.base_delay(0), 0.25);
        assert_eq!(p.base_delay(1), 0.5);
        assert_eq!(p.base_delay(2), 1.0);
        assert_eq!(p.base_delay(3), 2.0);
        assert_eq!(p.base_delay(40), 2.0);
        assert_eq!(
            BackoffPolicy::new(0.02, 0.02).base_delay(5),
            0.02,
            "flat when max == initial"
        );
    }

    #[test]
    fn jitter_spreads_around_the_base() {
        let p = BackoffPolicy::new(1.0, 8.0).with_jitter(0.5);
        assert_eq!(p.delay(0, 0.0), 0.5);
        assert_eq!(p.delay(0, 0.5), 1.0);
        assert!((p.delay(0, 1.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_jitter_is_exact() {
        let p = BackoffPolicy::new(0.25, 2.0);
        assert_eq!(p.delay(2, 0.987), 1.0);
        assert_eq!(p.scale(7.0, 0.1), 7.0);
    }

    #[test]
    fn serde_round_trip() {
        let p = BackoffPolicy::new(0.25, 2.0).with_jitter(0.2);
        let json = serde_json::to_string(&p).unwrap();
        let back: BackoffPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
