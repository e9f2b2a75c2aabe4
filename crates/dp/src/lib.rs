//! # rp-dp
//!
//! The output-perturbation (differential privacy) baseline of the
//! reconstruction-privacy workspace, reproducing Section 2 of
//! *Reconstruction Privacy: Enabling Statistical Learning* (EDBT 2015).
//!
//! The paper's first contribution is a quantitative condition under which
//! differentially-private count answers disclose sensitive information
//! through non-independent reasoning (NIR). This crate provides:
//!
//! * [`mechanism`] — the Laplace, Gaussian and geometric mechanisms with
//!   explicit sensitivity handling (the paper uses `Lap(b)` with `b = Δ/ε`,
//!   `Δ = 2` for its two-query attack), plus the Theorem-1-calibrated
//!   binomial mechanism of arXiv 1805.10559
//!   ([`mechanism::calibrated_binomial`]) used as the head-to-head DP
//!   baseline in `rpctl bakeoff`.
//! * [`attack`] — the two-query ratio attack of Equation 2, which reproduces
//!   Table 1 and exposes the Lemma-1 / Corollary-2 predictions.
//! * [`histogram`] — an ε-DP contingency-table release (`Lap(1/ε)` per
//!   cell), the output-perturbation *publishing* baseline that the paper's
//!   data-perturbation approach is compared against.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attack;
pub mod histogram;
pub mod mechanism;

pub use attack::{AttackOutcome, MeanSe, RatioAttack};
pub use histogram::{BinomialHistogram, DpHistogram};
pub use mechanism::calibrated_binomial::{CalibratedBinomial, QuerySensitivity};
pub use mechanism::{
    GaussianMechanism, GeometricMechanism, LaplaceMechanism, Mechanism, Sensitivity,
};
