//! Transient analysis: availability as a function of time.
//!
//! Steady-state availability (Section VI) describes the long run; a
//! deployment also cares about the transient — starting from all sites
//! up, how fast does availability decay towards its limit? We compute
//! the full distribution `π(t) = π(0)·e^{Qt}` by **uniformization**
//! (Jensen's method): with `Λ ≥ max_i |Q_ii|` and `P = I + Q/Λ`,
//!
//! ```text
//! π(t) = Σ_k  Poisson(k; Λt) · π(0) Pᵏ
//! ```
//!
//! a numerically benign positive series we truncate once the remaining
//! Poisson tail is below tolerance. Large `Λt` is handled by splitting
//! the horizon (`e^{Qt} = (e^{Qt/2})²` applied to the vector).

use crate::availability::AvailabilityChain;
use crate::ctmc::Ctmc;
use crate::linalg::Matrix;

/// Truncation tolerance for the Poisson tail.
const TAIL_TOLERANCE: f64 = 1e-12;
/// Split horizons so `Λ·t` stays below this per step (keeps
/// `e^{-Λt}` representable).
const MAX_LAMBDA_T: f64 = 120.0;

/// The uniformized jump matrix `P = I + Q/Λ` and its rate `Λ`.
fn uniformize(ctmc: &Ctmc) -> (Matrix, f64) {
    let n = ctmc.len();
    let max_exit = (0..n)
        .map(|s| ctmc.exit_rate(s))
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    let lambda = max_exit * 1.02; // slack keeps diagonal entries positive
    let q = ctmc.generator();
    let p = Matrix::from_fn(n, n, |r, c| {
        let base = if r == c { 1.0 } else { 0.0 };
        base + q[(r, c)] / lambda
    });
    (p, lambda)
}

/// One uniformization pass for `Λt ≤ MAX_LAMBDA_T`.
fn transient_step(p: &Matrix, lambda: f64, initial: &[f64], t: f64) -> Vec<f64> {
    let n = initial.len();
    let lt = lambda * t;
    debug_assert!(lt <= MAX_LAMBDA_T * 1.01);
    let mut weight = (-lt).exp(); // Poisson(0; Λt)
    let mut accumulated = weight;
    let mut term = initial.to_vec(); // π(0) P^k
    let mut result: Vec<f64> = term.iter().map(|v| v * weight).collect();
    let mut k = 0u32;
    while 1.0 - accumulated > TAIL_TOLERANCE && k < 100_000 {
        // term <- term · P   (row vector times matrix)
        let mut next = vec![0.0; n];
        for (r, &tr) in term.iter().enumerate() {
            if tr == 0.0 {
                continue;
            }
            for (c, slot) in next.iter_mut().enumerate() {
                *slot += tr * p[(r, c)];
            }
        }
        term = next;
        k += 1;
        weight *= lt / f64::from(k);
        accumulated += weight;
        for (slot, &tv) in result.iter_mut().zip(&term) {
            *slot += weight * tv;
        }
    }
    result
}

/// The distribution at time `t` starting from `initial`.
///
/// # Panics
///
/// If `initial` does not match the chain size or is not a distribution.
#[must_use]
pub fn transient_distribution(ctmc: &Ctmc, initial: &[f64], t: f64) -> Vec<f64> {
    assert_eq!(initial.len(), ctmc.len());
    let total: f64 = initial.iter().sum();
    assert!(
        (total - 1.0).abs() < 1e-9 && initial.iter().all(|&p| p >= 0.0),
        "initial must be a probability distribution"
    );
    assert!(t >= 0.0 && t.is_finite());
    if t == 0.0 {
        return initial.to_vec();
    }
    let (p, lambda) = uniformize(ctmc);
    // Split so each pass keeps Λ·Δt modest.
    let steps = (lambda * t / MAX_LAMBDA_T).ceil().max(1.0);
    let dt = t / steps;
    let mut dist = initial.to_vec();
    for _ in 0..steps as usize {
        dist = transient_step(&p, lambda, &dist, dt);
    }
    dist
}

impl AvailabilityChain {
    /// Site availability at time `t`, starting from chain state
    /// `initial_state` (typically the all-up state, index 0 for the
    /// derived chains).
    #[must_use]
    pub fn site_availability_at(&self, initial_state: usize, t: f64) -> f64 {
        let mut initial = vec![0.0; self.ctmc.len()];
        initial[initial_state] = 1.0;
        let dist = transient_distribution(&self.ctmc, &initial, t);
        self.states
            .iter()
            .zip(&dist)
            .filter(|(s, _)| s.accepting)
            .map(|(s, &p)| p * f64::from(s.up) / self.n as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::{site_up_probability, StateInfo};
    use crate::chains::hybrid_chain;

    fn one_site(ratio: f64) -> AvailabilityChain {
        let mut ctmc = Ctmc::new(2);
        ctmc.add(0, 1, 1.0);
        ctmc.add(1, 0, ratio);
        AvailabilityChain {
            ctmc,
            states: vec![
                StateInfo {
                    label: "up".into(),
                    up: 1,
                    accepting: true,
                },
                StateInfo {
                    label: "down".into(),
                    up: 0,
                    accepting: false,
                },
            ],
            n: 1,
        }
    }

    #[test]
    fn two_state_transient_matches_closed_form() {
        // p(t) = p∞ + (1 − p∞) e^{−(λ+μ)t}, starting up.
        let ratio = 3.0;
        let chain = one_site(ratio);
        let p_inf = site_up_probability(ratio);
        for t in [0.0, 0.1, 0.5, 1.0, 4.0] {
            let expected = p_inf + (1.0 - p_inf) * (-(1.0 + ratio) * t).exp();
            let measured = chain.site_availability_at(0, t);
            assert!(
                (measured - expected).abs() < 1e-10,
                "t={t}: {measured} vs {expected}"
            );
        }
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let chain = hybrid_chain(5, 2.0);
        let steady = chain.site_availability().unwrap();
        let late = chain.site_availability_at(0, 200.0);
        assert!((late - steady).abs() < 1e-9, "{late} vs {steady}");
    }

    #[test]
    fn starts_at_full_availability() {
        // All-up state, t = 0: availability is exactly k/n = 1.
        let chain = hybrid_chain(5, 1.0);
        // The hand chain's all-up state is A_n, the last top-row index.
        let all_up = chain
            .states
            .iter()
            .position(|s| s.up == 5)
            .expect("an all-up state exists");
        assert!((chain.site_availability_at(all_up, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trajectory_is_monotone_decreasing_from_all_up() {
        let chain = hybrid_chain(5, 2.0);
        let all_up = chain.states.iter().position(|s| s.up == 5).unwrap();
        let times: Vec<f64> = (0..30).map(|i| 0.2 * f64::from(i)).collect();
        let traj: Vec<f64> = times
            .iter()
            .map(|&t| chain.site_availability_at(all_up, t))
            .collect();
        for w in traj.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "availability rose: {w:?}");
        }
    }

    #[test]
    fn long_horizon_splitting_is_stable() {
        // Λ is large here (20 sites): exercise the horizon splitting.
        let chain = hybrid_chain(20, 1.0);
        let steady = chain.site_availability().unwrap();
        let all_up = chain.states.iter().position(|s| s.up == 20).unwrap();
        let late = chain.site_availability_at(all_up, 50.0);
        assert!((late - steady).abs() < 1e-8, "{late} vs {steady}");
    }

    #[test]
    fn distribution_stays_normalised() {
        let chain = hybrid_chain(6, 1.5);
        let mut initial = vec![0.0; chain.ctmc.len()];
        initial[0] = 1.0;
        for t in [0.3, 3.0, 30.0] {
            let dist = transient_distribution(&chain.ctmc, &initial, t);
            let total: f64 = dist.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "t={t}: Σ={total}");
            assert!(dist.iter().all(|&p| p >= -1e-12));
        }
    }
}
