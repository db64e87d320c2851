//! # dynvote-mc — Monte-Carlo simulation of the stochastic model
//!
//! A direct discrete-event simulation of Section VI-B's model: each site
//! fails after `Exp(λ)` up-time and repairs after `Exp(μ)` down-time;
//! after every event an update is processed in the partition of up sites
//! (the "frequent updates" assumption), executed by the *actual*
//! decision kernel of `dynvote-core`.
//!
//! This is the third, fully independent estimate of availability — the
//! other two being the hand-derived chains and the machine-derived
//! chains of `dynvote-markov`. Where those share the modelling step
//! (state abstraction), this crate shares nothing but the kernel: it
//! tracks concrete per-site metadata with unbounded version numbers.
//! Agreement across all three is the repository's strongest correctness
//! evidence (see `tests/cross_validation.rs`).
//!
//! ```
//! use dynvote_core::AlgorithmKind;
//! use dynvote_mc::{McConfig, simulate_replicated};
//!
//! // Four independent replications with seeds derived from the master
//! // seed 42 — deterministic, and identical for any worker count.
//! let result = simulate_replicated(AlgorithmKind::Hybrid, &McConfig {
//!     n: 5,
//!     ratio: 2.0,
//!     horizon: 5_000.0,
//!     seed: 42,
//!     ..McConfig::default()
//! }, 4, 1);
//! // The Markov chains put this availability at 0.64252. The bound is
//! // the run's own across-replication 95% interval plus a little
//! // slack, not a magic constant tuned to one seed's luck.
//! assert!((result.site_availability - 0.64252).abs()
//!     < result.site_half_width + 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod stats;

pub mod multi;
pub mod replicate;

pub use multi::{simulate_joint, MultiMcConfig, MultiMcResult};
pub use replicate::{simulate_replicated, simulate_replicated_with_progress, ReplicatedResult};
pub use stats::{t975, BatchMeans, Summary, Welford};

use dynvote_core::{check_positive, ConfigError};

use dynvote_core::{AlgorithmKind, ReplicaControl, ReplicaSystem, SiteId, SiteSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// Number of replica sites.
    pub n: usize,
    /// Repair/failure ratio `μ/λ` (with `λ` fixed at 1).
    pub ratio: f64,
    /// Simulated time horizon (in units of `1/λ`), excluding burn-in.
    pub horizon: f64,
    /// Burn-in time discarded before measuring.
    pub burn_in: f64,
    /// Number of batches for the batch-means confidence interval.
    pub batches: usize,
    /// PRNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Per-site `(failure, repair)` rates. When set, overrides `n` and
    /// `ratio` — the heterogeneous model of the paper's Section VII
    /// challenge.
    pub rates: Option<Rates>,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            n: 5,
            ratio: 1.0,
            horizon: 50_000.0,
            burn_in: 500.0,
            batches: 20,
            seed: 0xD1CE,
            rates: None,
        }
    }
}

impl McConfig {
    /// Validate every numeric knob, matching the typed validation
    /// `SimConfig` already has: the horizon and ratio must be strictly
    /// positive, burn-in non-negative, at least two batches (one batch
    /// has no variance estimate), and explicit `rates` must be
    /// non-empty with every rate strictly positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_positive("horizon", self.horizon)?;
        dynvote_core::check_non_negative("burn_in", self.burn_in)?;
        check_batches(self.batches)?;
        match &self.rates {
            None => {
                dynvote_core::check_site_count(self.n)?;
                check_positive("ratio", self.ratio)?;
            }
            Some(rates) => {
                // An empty rate list leaves no sites at all; the site-
                // count check rejects it alongside the 1-site case.
                dynvote_core::check_site_count(rates.len())?;
                for &(fail, repair) in rates {
                    check_positive("failure rate", fail)?;
                    check_positive("repair rate", repair)?;
                }
            }
        }
        Ok(())
    }
}

/// Availability estimates from one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct McResult {
    /// Point estimate of the site-weighted availability (the paper's
    /// measure).
    pub site_availability: f64,
    /// 95% half-width of the site availability (batch means).
    pub site_half_width: f64,
    /// Point estimate of the traditional availability.
    pub system_availability: f64,
    /// 95% half-width of the traditional availability.
    pub system_half_width: f64,
    /// Time-average fraction of sites up (sanity: → `μ/(λ+μ)`).
    pub mean_up_fraction: f64,
    /// Number of failure/repair events simulated (after burn-in).
    pub events: u64,
    /// Number of committed updates (including burn-in).
    pub commits: u64,
}

/// Require at least two batches (one batch has no variance estimate).
fn check_batches(batches: usize) -> Result<(), ConfigError> {
    if batches >= 2 {
        Ok(())
    } else {
        Err(ConfigError::OutOfRange {
            field: "batches",
            value: batches as u64,
            lo: 2,
            hi: 100_000,
        })
    }
}

/// Sample an exponential variate with the given rate.
pub(crate) fn exponential(rng: &mut StdRng, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).ln() / rate
}

/// Per-site failure/repair rates for heterogeneous simulations.
pub type Rates = Vec<(f64, f64)>;

/// The event-driven model simulator.
///
/// Exposed (rather than only the [`simulate`] convenience) so callers
/// can step it manually, inspect the replica system mid-run, or drive
/// custom measurements.
#[derive(Debug)]
pub struct ModelSimulator<A> {
    system: ReplicaSystem<A>,
    up: SiteSet,
    /// `(failure, repair)` rate per site.
    rates: Rates,
    rng: StdRng,
    clock: f64,
    events: u64,
    commits: u64,
}

impl<A: ReplicaControl> ModelSimulator<A> {
    /// Create a simulator with all sites up and the given algorithm,
    /// with homogeneous rates `λ = 1`, `μ = ratio`.
    #[must_use]
    pub fn new(n: usize, ratio: f64, seed: u64, algo: A) -> Self {
        assert!(ratio > 0.0 && ratio.is_finite());
        Self::with_rates(vec![(1.0, ratio); n], seed, algo)
    }

    /// Create a simulator with per-site `(failure, repair)` rates — the
    /// heterogeneous setting of the paper's Section VII challenge.
    #[must_use]
    pub fn with_rates(rates: Rates, seed: u64, algo: A) -> Self {
        let n = rates.len();
        assert!(
            rates.iter().all(|&(f, r)| f > 0.0 && r > 0.0),
            "rates must be positive"
        );
        ModelSimulator {
            system: ReplicaSystem::new(n, algo),
            up: SiteSet::all(n),
            rates,
            rng: StdRng::seed_from_u64(seed),
            clock: 0.0,
            events: 0,
            commits: 0,
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The set of up sites.
    #[must_use]
    pub fn up(&self) -> SiteSet {
        self.up
    }

    /// The replica system (metadata state).
    #[must_use]
    pub fn system(&self) -> &ReplicaSystem<A> {
        &self.system
    }

    /// Total failure/repair events so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Number of committed updates so far.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Success probability of an update arriving *now* at a uniformly
    /// random site: `k/n` if the up partition is distinguished, else 0.
    #[must_use]
    pub fn instantaneous_site_availability(&self) -> f64 {
        if self.is_available() {
            self.up.len() as f64 / self.system.n() as f64
        } else {
            0.0
        }
    }

    /// True if a distinguished partition exists right now.
    #[must_use]
    pub fn is_available(&self) -> bool {
        !self.up.is_empty() && self.system.can_update(self.up)
    }

    /// Advance to the next failure/repair event; returns the holding
    /// time spent in the pre-event state.
    pub fn step(&mut self) -> f64 {
        let n = self.system.n();
        // Each up site races its failure clock; each down site its
        // repair clock. The next event is the minimum of exponentials:
        // total rate = Σ active rates, site chosen ∝ its rate.
        let active: Vec<(SiteId, f64)> = (0..n)
            .map(|i| {
                let site = SiteId::new(i);
                let (fail, repair) = self.rates[i];
                (site, if self.up.contains(site) { fail } else { repair })
            })
            .collect();
        let total: f64 = active.iter().map(|(_, r)| r).sum();
        let dt = exponential(&mut self.rng, total);
        self.clock += dt;
        self.events += 1;

        let mut pick = self.rng.gen::<f64>() * total;
        let mut chosen = active[0].0;
        for &(site, rate) in &active {
            if pick < rate {
                chosen = site;
                break;
            }
            pick -= rate;
        }
        if self.up.contains(chosen) {
            self.up.remove(chosen);
        } else {
            self.up.insert(chosen);
        }
        // Frequent updates: process one update in the up partition.
        if !self.up.is_empty() && self.system.attempt_update(self.up).committed() {
            self.commits += 1;
        }
        dt
    }
}

/// Run the simulation described by `config` and estimate availability.
///
/// # Panics
///
/// If `config` fails [`McConfig::validate`].
#[must_use]
pub fn simulate(kind: AlgorithmKind, config: &McConfig) -> McResult {
    config.validate().expect("invalid McConfig");
    let rates = config
        .rates
        .clone()
        .unwrap_or_else(|| vec![(1.0, config.ratio); config.n]);
    let n = rates.len();
    let mut sim = ModelSimulator::with_rates(rates, config.seed, kind.instantiate(n));

    // Burn-in: discard the initial all-up transient.
    while sim.clock() < config.burn_in {
        sim.step();
    }

    let mut site = BatchMeans::new(config.batches, config.horizon);
    let mut system = BatchMeans::new(config.batches, config.horizon);
    let mut up_integral = 0.0;
    let start = sim.clock();
    let events_start = sim.events();

    loop {
        let t0 = sim.clock() - start;
        if t0 >= config.horizon {
            break;
        }
        let site_value = sim.instantaneous_site_availability();
        let system_value = f64::from(u8::from(sim.is_available()));
        let k = sim.up().len();
        sim.step();
        let t1 = (sim.clock() - start).min(config.horizon);
        let weight = t1 - t0;
        site.add(t1, weight * site_value);
        system.add(t1, weight * system_value);
        up_integral += weight * k as f64;
    }

    let site_summary = site.summary();
    let system_summary = system.summary();
    McResult {
        site_availability: site_summary.mean,
        site_half_width: site_summary.half_width,
        system_availability: system_summary.mean,
        system_half_width: system_summary.half_width,
        mean_up_fraction: up_integral / (config.horizon * n as f64),
        events: sim.events() - events_start,
        commits: sim.commits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: usize, ratio: f64, horizon: f64, seed: u64) -> McConfig {
        McConfig {
            n,
            ratio,
            horizon,
            seed,
            ..McConfig::default()
        }
    }

    #[test]
    fn validate_accepts_the_default_and_rejects_each_bad_knob() {
        assert_eq!(McConfig::default().validate(), Ok(()));
        let bad = |f: fn(&mut McConfig)| {
            let mut c = McConfig::default();
            f(&mut c);
            c.validate()
        };
        assert!(bad(|c| c.batches = 1).is_err());
        assert!(bad(|c| c.horizon = 0.0).is_err());
        assert!(bad(|c| c.horizon = f64::NAN).is_err());
        assert!(bad(|c| c.ratio = -1.0).is_err());
        assert!(bad(|c| c.burn_in = -1.0).is_err());
        assert!(bad(|c| c.n = 1).is_err());
        assert!(bad(|c| c.rates = Some(vec![])).is_err());
        assert!(bad(|c| c.rates = Some(vec![(1.0, 0.0); 3])).is_err());
        assert!(bad(|c| c.rates = Some(vec![(1.0, 2.0); 3])).is_ok());
        // With explicit rates, `n`/`ratio` are overridden and ignored.
        assert!(bad(|c| {
            c.rates = Some(vec![(1.0, 2.0); 3]);
            c.n = 0;
            c.ratio = -5.0;
        })
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid McConfig")]
    fn simulate_panics_on_invalid_config() {
        let _ = simulate(
            AlgorithmKind::Hybrid,
            &McConfig {
                horizon: -1.0,
                ..McConfig::default()
            },
        );
    }

    #[test]
    fn up_fraction_converges_to_p() {
        let result = simulate(AlgorithmKind::Voting, &config(5, 2.0, 30_000.0, 7));
        let p = 2.0 / 3.0;
        assert!(
            (result.mean_up_fraction - p).abs() < 0.02,
            "{}",
            result.mean_up_fraction
        );
    }

    #[test]
    fn voting_availability_matches_closed_form() {
        let result = simulate(AlgorithmKind::Voting, &config(5, 1.5, 30_000.0, 11));
        // Closed form: Σ_{k>=3} C(5,k) p^k q^(5-k) k/5 at p = 0.6.
        let p: f64 = 0.6;
        let q = 1.0 - p;
        let closed: f64 = (3..=5)
            .map(|k| {
                let c = [10.0, 5.0, 1.0][k - 3];
                c * p.powi(k as i32) * q.powi(5 - k as i32) * k as f64 / 5.0
            })
            .sum();
        assert!(
            (result.site_availability - closed).abs() < 3.0 * result.site_half_width + 0.01,
            "sim {} vs closed {closed}",
            result.site_availability
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(AlgorithmKind::Hybrid, &config(5, 1.0, 2_000.0, 3));
        let b = simulate(AlgorithmKind::Hybrid, &config(5, 1.0, 2_000.0, 3));
        assert_eq!(a, b);
        let c = simulate(AlgorithmKind::Hybrid, &config(5, 1.0, 2_000.0, 4));
        assert_ne!(a.site_availability, c.site_availability);
    }

    #[test]
    fn hybrid_beats_dynamic_in_simulation() {
        // Theorem 2, observed empirically. The same seed gives both
        // algorithms the identical failure/repair trajectory (the RNG is
        // consumed identically), so this is a paired comparison.
        let h = simulate(AlgorithmKind::Hybrid, &config(5, 1.0, 40_000.0, 21));
        let d = simulate(AlgorithmKind::DynamicVoting, &config(5, 1.0, 40_000.0, 21));
        assert!(
            h.site_availability > d.site_availability,
            "hybrid {} vs dynamic {}",
            h.site_availability,
            d.site_availability
        );
    }

    #[test]
    fn commits_happen() {
        let result = simulate(AlgorithmKind::Hybrid, &config(5, 2.0, 5_000.0, 1));
        assert!(result.commits > 1_000);
        assert!(result.events > 1_000);
    }

    #[test]
    fn site_availability_never_exceeds_system_availability() {
        for kind in AlgorithmKind::ALL {
            let r = simulate(kind, &config(4, 1.0, 5_000.0, 9));
            assert!(
                r.site_availability <= r.system_availability + 1e-12,
                "{kind}"
            );
        }
    }

    #[test]
    fn confidence_interval_shrinks_with_horizon() {
        let short = simulate(AlgorithmKind::Hybrid, &config(5, 1.0, 2_000.0, 5));
        let long = simulate(AlgorithmKind::Hybrid, &config(5, 1.0, 60_000.0, 5));
        assert!(long.site_half_width < short.site_half_width);
    }
}
