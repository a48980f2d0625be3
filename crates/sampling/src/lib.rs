//! Influence-spread estimation for PITEX.
//!
//! A PITEX query evaluates `E[I(u|W)]` — the expected number of users
//! activated by an independent-cascade process seeded at `u` with edge
//! probabilities `p(e|W)` — for many candidate tag sets `W`. Exact
//! evaluation is #P-hard (§4), so the paper builds a sampling framework:
//!
//! * [`McSampler`] — forward Monte-Carlo sampling (§4, after Kempe et al.);
//! * [`RrSampler`] — reverse-reachable set sampling (§4, after Borgs et al.);
//! * [`LazySampler`] — the paper's lazy propagation sampling (Algo. 2):
//!   geometric skip counters that probe an edge only in the iterations where
//!   it actually fires;
//! * [`exact`] — a possible-world enumerator for small graphs, the ground
//!   truth every estimator is tested against;
//! * [`bounds`] — the Chernoff-based sample sizes of Lemmas 2–3 and the
//!   martingale stopping rule shared by all three samplers.
//!
//! All estimators implement [`SpreadEstimator`] and consume edge
//! probabilities through the [`pitex_model::EdgeProbs`] abstraction, so the
//! same machinery estimates real tag sets, Lemma-8 upper bounds, and the
//! `p_max` graph used by the index.

pub mod bounds;
pub mod estimator;
pub mod exact;
pub mod geometric;
pub mod lazy;
#[cfg(test)]
mod lazy_reference;
pub mod mc;
pub mod rr;

pub use bounds::{SampleBudget, SamplingParams};
pub use estimator::{Estimate, SpreadEstimator};
pub use exact::{exact_spread, ExactEstimator};
pub use lazy::LazySampler;
pub use mc::McSampler;
pub use rr::RrSampler;
