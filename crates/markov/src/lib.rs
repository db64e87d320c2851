//! # dynvote-markov — analytic availability of replica control algorithms
//!
//! The paper evaluates its algorithms under a stochastic model
//! (Section VI-B): sites fail and repair as independent Poisson
//! processes (rates `λ`, `μ`), links never fail, and an update is
//! processed after every failure or repair. Each algorithm then induces
//! a finite continuous-time Markov chain, and *availability* — the
//! long-run probability that an update arriving at a random site
//! succeeds — is a weighted sum of steady-state probabilities.
//!
//! This crate computes those availabilities two independent ways:
//!
//! * [`chains`] — the hand-derived state diagrams transcribed from the
//!   papers (Fig. 2 for the hybrid), solved with an in-crate dense
//!   linear solver;
//! * [`statespace`] — chains *derived mechanically* from the executable
//!   decision kernel of `dynvote-core` by BFS with symmetry lumping.
//!
//! The two paths agree to ~1e−12 (asserted in tests), and both agree
//! with Monte-Carlo simulation (`dynvote-mc`). On top of them,
//! [`crossover`] reproduces the paper's Theorem 3 table and [`sweep`]
//! regenerates the data behind Figs. 3–4.
//!
//! ```
//! use dynvote_markov::{chains, crossover};
//!
//! // Hybrid availability at 5 sites, repair/failure ratio 2:
//! let a = chains::hybrid_chain(5, 2.0).site_availability().unwrap();
//! assert!(a > 0.6 && a < 0.667); // below p = 2/3, the hard ceiling
//!
//! // Theorem 3: at 5 sites the hybrid overtakes dynamic-linear at ~0.63.
//! let c = crossover::theorem3_crossover(5);
//! assert!((c.ratio - 0.63).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod availability;
pub mod chains;
pub mod crossover;
pub mod ctmc;
pub mod hetero;
pub mod linalg;
pub mod statespace;
pub mod sweep;
pub mod transient;
pub mod votes;

pub use availability::{normalized, site_up_probability, AvailabilityChain, StateInfo};
pub use crossover::{theorem3_crossover, theorem3_table, Crossover, THEOREM3_PAPER};
pub use ctmc::{Ctmc, SteadyStateError};
pub use hetero::{
    hetero_availability, hetero_chain, hetero_chain_for, optimal_order, order_study, OrderStudy,
    SiteRates,
};
pub use statespace::{derived_availability, DerivedChain};
pub use sweep::{availability, figure_series, ratio_grid, Sweep, SweepRow};
pub use transient::transient_distribution;
pub use votes::{
    optimal_vote_assignment, static_availability, static_voting_availability, OptimalVotes,
};
