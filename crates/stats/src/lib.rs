//! # rp-stats
//!
//! Statistics substrate for the reconstruction-privacy workspace, the Rust
//! reproduction of *Reconstruction Privacy: Enabling Statistical Learning*
//! (Wang, Han, Fu, Wong, Yu — EDBT 2015).
//!
//! The paper leans on a small but precise statistical toolkit, all of which
//! is implemented here from scratch:
//!
//! * [`special`] — log-gamma, regularized incomplete gamma, erfc.
//! * [`chi2`] — the χ² distribution and the unequal-totals two-binned test of
//!   Equation 4 (used to merge public-attribute values in Section 3.4).
//! * [`dist`] — Laplace, Gaussian and two-sided-geometric noise samplers used
//!   by the differential-privacy baseline and the analysis of Section 2.
//! * [`bounds`] — the simplified Chernoff bounds of Theorem 3, the backbone
//!   of the privacy test.
//! * [`ratio`] — Taylor moments of a ratio of noisy counts (Lemma 1) and the
//!   Laplace disclosure indicator `2(b/x)²` (Corollary 2, Table 2).
//! * [`sampling`] — categorical and binomial sampling and stochastic
//!   rounding used by the perturbation operators and SPS.
//! * [`summary`] — Welford streaming mean/variance/standard-error and the
//!   relative-error utility measure of Section 6.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod chi2;
pub mod dist;
pub mod gtest;
pub mod ratio;
pub mod sampling;
pub mod special;
pub mod summary;

pub use bounds::{chernoff_lower, chernoff_pair, chernoff_upper};
pub use chi2::{binned_chi2_test, BinnedTestResult, ChiSquared};
pub use dist::{Gaussian, Laplace, TwoSidedGeometric};
pub use gtest::binned_g_test;
pub use ratio::{laplace_disclosure_indicator, ratio_moments, RatioMoments};
pub use summary::{relative_error, OnlineStats};
