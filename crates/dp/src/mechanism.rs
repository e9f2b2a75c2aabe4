//! Output-perturbation mechanisms: Laplace, Gaussian, geometric and the
//! calibrated binomial ([`calibrated_binomial`]).
//!
//! These implement the differential-privacy baseline that Section 2 of the
//! paper analyses. The interface is deliberately small: a mechanism turns a
//! true count into a noisy answer, and exposes the scale/variance of its
//! noise so the ratio-attack analysis (Lemma 1 / Corollary 2) can be applied
//! to it.

pub mod calibrated_binomial;

use rand::Rng;
use rp_stats::dist::{Gaussian, Laplace, TwoSidedGeometric};

/// Worst-case change of a query answer when one record changes — the
/// sensitivity `Δ` of a query class.
///
/// For a single count query `Δ = 1`; the paper's Example 1 uses `Δ = 2` to
/// account for answering the two queries `Q1, Q2` in a row (sequential
/// composition folded into the sensitivity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensitivity(f64);

impl Sensitivity {
    /// Sensitivity covering a batch of `k` count queries answered together
    /// (the paper's `Δ = 2` for the `Q1, Q2` pair).
    pub fn count_query_batch(k: usize) -> Self {
        assert!(k > 0, "batch must contain at least one query");
        Self(k as f64)
    }

    /// The numeric value `Δ`.
    pub fn value(&self) -> f64 {
        self.0
    }
}

/// A randomized answer mechanism for real-valued query answers.
pub trait Mechanism {
    /// Returns the noisy answer for the true answer `ans`.
    fn answer<R: Rng + ?Sized>(&self, rng: &mut R, ans: f64) -> f64;

    /// The variance of the added noise.
    fn noise_variance(&self) -> f64;
}

/// The ε-differentially-private Laplace mechanism: adds `Lap(b)` with
/// `b = Δ/ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    epsilon: f64,
    sensitivity: Sensitivity,
    noise: Laplace,
}

impl LaplaceMechanism {
    /// Creates the mechanism for privacy parameter `epsilon` and the given
    /// query sensitivity.
    ///
    /// # Panics
    ///
    /// Panics unless `epsilon > 0` and finite.
    pub fn new(epsilon: f64, sensitivity: Sensitivity) -> Self {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "epsilon must be positive and finite, got {epsilon}"
        );
        Self {
            epsilon,
            sensitivity,
            noise: Laplace::new(sensitivity.value() / epsilon),
        }
    }

    /// The privacy parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The sensitivity Δ.
    pub fn sensitivity(&self) -> Sensitivity {
        self.sensitivity
    }

    /// The Laplace scale `b = Δ/ε`.
    pub fn scale(&self) -> f64 {
        self.noise.scale()
    }
}

impl Mechanism for LaplaceMechanism {
    fn answer<R: Rng + ?Sized>(&self, rng: &mut R, ans: f64) -> f64 {
        ans + self.noise.sample(rng)
    }

    fn noise_variance(&self) -> f64 {
        self.noise.variance()
    }
}

/// The (ε, δ)-differentially-private Gaussian mechanism: adds `N(0, σ²)`
/// with `σ = Δ · sqrt(2 ln(1.25/δ)) / ε` (the classic analytic calibration,
/// valid for `ε ∈ (0, 1)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianMechanism {
    epsilon: f64,
    delta: f64,
    sensitivity: Sensitivity,
    noise: Gaussian,
}

impl GaussianMechanism {
    /// Creates the mechanism for `(epsilon, delta)`-DP.
    ///
    /// # Panics
    ///
    /// Panics unless `epsilon ∈ (0, 1)` and `delta ∈ (0, 1)`.
    pub fn new(epsilon: f64, delta: f64, sensitivity: Sensitivity) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "classic Gaussian calibration needs epsilon in (0, 1), got {epsilon}"
        );
        assert!(
            delta > 0.0 && delta < 1.0,
            "delta must lie in (0, 1), got {delta}"
        );
        let sigma = sensitivity.value() * (2.0 * (1.25 / delta).ln()).sqrt() / epsilon;
        Self {
            epsilon,
            delta,
            sensitivity,
            noise: Gaussian::new(0.0, sigma),
        }
    }

    /// The privacy parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The privacy parameter δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The calibrated noise standard deviation σ.
    pub fn sigma(&self) -> f64 {
        self.noise.sd()
    }
}

impl Mechanism for GaussianMechanism {
    fn answer<R: Rng + ?Sized>(&self, rng: &mut R, ans: f64) -> f64 {
        ans + self.noise.sample(rng)
    }

    fn noise_variance(&self) -> f64 {
        self.noise.variance()
    }
}

/// The ε-differentially-private geometric mechanism for integer counts:
/// adds two-sided geometric noise with `α = exp(−ε/Δ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometricMechanism {
    epsilon: f64,
    sensitivity: Sensitivity,
    noise: TwoSidedGeometric,
}

impl GeometricMechanism {
    /// Creates the mechanism for privacy parameter `epsilon` and the given
    /// sensitivity.
    ///
    /// # Panics
    ///
    /// Panics unless `epsilon > 0` and finite.
    pub fn new(epsilon: f64, sensitivity: Sensitivity) -> Self {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "epsilon must be positive and finite, got {epsilon}"
        );
        Self {
            epsilon,
            sensitivity,
            noise: TwoSidedGeometric::new((-epsilon / sensitivity.value()).exp()),
        }
    }

    /// The privacy parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Mechanism for GeometricMechanism {
    fn answer<R: Rng + ?Sized>(&self, rng: &mut R, ans: f64) -> f64 {
        ans + self.noise.sample(rng) as f64
    }

    fn noise_variance(&self) -> f64 {
        self.noise.variance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol,
            "expected {expected}, got {actual} (tol {tol})"
        );
    }

    #[test]
    fn laplace_scale_is_delta_over_epsilon() {
        // The paper's Table 1 settings: Δ = 2, ε ∈ {0.01, 0.1, 0.5} give
        // b ∈ {200, 20, 4}.
        for &(eps, b) in &[(0.01, 200.0), (0.1, 20.0), (0.5, 4.0)] {
            let m = LaplaceMechanism::new(eps, Sensitivity::count_query_batch(2));
            assert_close(m.scale(), b, 1e-12);
            assert_close(m.noise_variance(), 2.0 * b * b, 1e-9);
        }
    }

    #[test]
    fn laplace_answers_are_centered() {
        let mut rng = StdRng::seed_from_u64(31);
        let m = LaplaceMechanism::new(0.5, Sensitivity::count_query_batch(1));
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| m.answer(&mut rng, 100.0)).sum::<f64>() / n as f64;
        assert_close(mean, 100.0, 0.1);
    }

    #[test]
    fn gaussian_sigma_matches_calibration() {
        let m = GaussianMechanism::new(0.5, 1e-5, Sensitivity::count_query_batch(1));
        let expected = (2.0 * (1.25 / 1e-5f64).ln()).sqrt() / 0.5;
        assert_close(m.sigma(), expected, 1e-12);
        assert_close(m.noise_variance(), expected * expected, 1e-9);
    }

    #[test]
    fn geometric_answers_are_integers() {
        let mut rng = StdRng::seed_from_u64(37);
        let m = GeometricMechanism::new(0.1, Sensitivity::count_query_batch(1));
        for _ in 0..100 {
            let a = m.answer(&mut rng, 50.0);
            assert_close(a.fract(), 0.0, 1e-12);
        }
    }

    #[test]
    fn geometric_variance_matches_closed_form() {
        let eps = 0.2;
        let m = GeometricMechanism::new(eps, Sensitivity::count_query_batch(1));
        let alpha: f64 = (-eps).exp();
        assert_close(
            m.noise_variance(),
            2.0 * alpha / ((1.0 - alpha) * (1.0 - alpha)),
            1e-9,
        );
    }

    #[test]
    fn epsilon_histogram_indistinguishability_monte_carlo() {
        // Weak empirical DP check for the geometric mechanism: for
        // neighbouring answers 10 and 11, the probability of every output
        // bucket must differ by at most e^ε (up to sampling error).
        let mut rng = StdRng::seed_from_u64(41);
        let eps = 0.5;
        let m = GeometricMechanism::new(eps, Sensitivity::count_query_batch(1));
        let n = 200_000;
        let mut h1 = std::collections::HashMap::new();
        let mut h2 = std::collections::HashMap::new();
        for _ in 0..n {
            *h1.entry(m.answer(&mut rng, 10.0) as i64).or_insert(0u64) += 1;
            *h2.entry(m.answer(&mut rng, 11.0) as i64).or_insert(0u64) += 1;
        }
        let bound = eps.exp() * 1.25; // slack for Monte-Carlo error
        for (k, &c1) in &h1 {
            if c1 < 500 {
                continue; // skip noisy buckets
            }
            let c2 = *h2.get(k).unwrap_or(&0);
            if c2 < 500 {
                continue;
            }
            let ratio = c1 as f64 / c2 as f64;
            assert!(
                ratio < bound && 1.0 / ratio < bound,
                "bucket {k}: ratio {ratio} exceeds e^eps"
            );
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn laplace_rejects_zero_epsilon() {
        LaplaceMechanism::new(0.0, Sensitivity::count_query_batch(1));
    }

    #[test]
    #[should_panic(expected = "epsilon in (0, 1)")]
    fn gaussian_rejects_large_epsilon() {
        GaussianMechanism::new(1.5, 1e-5, Sensitivity::count_query_batch(1));
    }
}
