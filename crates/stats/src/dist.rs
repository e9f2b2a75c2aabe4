//! Noise distributions used by the perturbation and differential-privacy
//! mechanisms: Laplace, Gaussian and the two-sided geometric distribution.
//!
//! Samplers take any [`rand::Rng`] so experiments can run on a seeded
//! `StdRng` for reproducibility.

use rand::Rng;

/// The Laplace distribution `Lap(b)` with density `exp(−|ξ|/b) / (2b)`.
///
/// This is the noise distribution of Example 1 and Section 2 of the paper:
/// zero mean, variance `2b²`, and scale `b = Δ/ε` for `ε`-differential
/// privacy with query sensitivity `Δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    scale: f64,
}

impl Laplace {
    /// Creates a Laplace distribution with the given scale factor `b`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive and finite.
    pub fn new(scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "Laplace scale must be positive and finite, got {scale}"
        );
        Self { scale }
    }

    /// The scale factor `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The variance, `2b²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }

    /// Draws one sample by inverse-CDF: if `U ~ Uniform(−1/2, 1/2)` then
    /// `−b · sgn(U) · ln(1 − 2|U|) ~ Lap(b)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(-0.5..0.5);
        -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.5 * (x / self.scale).exp()
        } else {
            1.0 - 0.5 * (-x / self.scale).exp()
        }
    }
}

/// The Gaussian (normal) distribution `N(mean, sd²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    sd: f64,
}

impl Gaussian {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sd` is not strictly positive and finite.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(
            sd > 0.0 && sd.is_finite(),
            "Gaussian standard deviation must be positive and finite, got {sd}"
        );
        Self { mean, sd }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// The variance `sd²`.
    pub fn variance(&self) -> f64 {
        self.sd * self.sd
    }

    /// Draws one sample via the Box–Muller transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller: avoid u1 == 0 so the logarithm stays finite.
        let u1: f64 = loop {
            let u: f64 = rng.gen();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2: f64 = rng.gen();
        let radius = (-2.0 * u1.ln()).sqrt();
        let angle = 2.0 * std::f64::consts::PI * u2;
        self.mean + self.sd * radius * angle.cos()
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        crate::special::std_normal_cdf((x - self.mean) / self.sd)
    }
}

/// The two-sided geometric distribution with parameter `alpha ∈ (0, 1)`:
/// `Pr[ξ = k] = (1 − α)/(1 + α) · α^{|k|}` for integer `k`.
///
/// This is the discrete analogue of the Laplace distribution used by the
/// geometric mechanism; with `α = exp(−ε/Δ)` the mechanism is
/// `ε`-differentially private for integer-valued queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoSidedGeometric {
    alpha: f64,
}

impl TwoSidedGeometric {
    /// Creates the distribution with decay parameter `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in the open interval `(0, 1)`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "two-sided geometric alpha must lie in (0, 1), got {alpha}"
        );
        Self { alpha }
    }

    /// The decay parameter `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The variance, `2α / (1 − α)²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.alpha / ((1.0 - self.alpha) * (1.0 - self.alpha))
    }

    /// Draws one integer sample as the difference of two geometric draws.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        let g1 = self.sample_geometric(rng);
        let g2 = self.sample_geometric(rng);
        g1 - g2
    }

    /// Samples `G ~ Geometric(1 − α)` counting failures before the first
    /// success, by inversion: `G = floor(ln U / ln α)`.
    fn sample_geometric<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        let u: f64 = loop {
            let u: f64 = rng.gen();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        (u.ln() / self.alpha.ln()).floor() as i64
    }

    /// Probability mass at integer `k`.
    pub fn pmf(&self, k: i64) -> f64 {
        (1.0 - self.alpha) / (1.0 + self.alpha) * self.alpha.powi(k.unsigned_abs() as i32)
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
    fn laplace_moments_match_monte_carlo() {
        let mut rng = StdRng::seed_from_u64(7);
        let dist = Laplace::new(20.0);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert_close(mean, 0.0, 0.3);
        assert_close(var, dist.variance(), 0.03 * dist.variance());
    }

    #[test]
    fn laplace_tail_symmetry() {
        let dist = Laplace::new(5.0);
        for &x in &[0.1, 1.0, 10.0] {
            assert_close(dist.cdf(-x), 1.0 - dist.cdf(x), 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "Laplace scale must be positive")]
    fn laplace_rejects_zero_scale() {
        Laplace::new(0.0);
    }

    #[test]
    fn gaussian_moments_match_monte_carlo() {
        let mut rng = StdRng::seed_from_u64(11);
        let dist = Gaussian::new(3.0, 4.0);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert_close(mean, 3.0, 0.05);
        assert_close(var, 16.0, 0.3);
    }

    #[test]
    fn gaussian_cdf_known_values() {
        // Tolerances reflect the ~1.2e-7 absolute error of the erfc fit.
        let std = Gaussian::new(0.0, 1.0);
        assert_close(std.cdf(0.0), 0.5, 2e-7);
        assert_close(std.cdf(1.96), 0.975, 1e-3);
        let shifted = Gaussian::new(10.0, 2.0);
        assert_close(shifted.cdf(10.0), 0.5, 2e-7);
    }

    #[test]
    fn geometric_pmf_sums_to_one() {
        let dist = TwoSidedGeometric::new(0.8);
        let total: f64 = (-2000..=2000).map(|k| dist.pmf(k)).sum();
        assert_close(total, 1.0, 1e-9);
    }

    #[test]
    fn geometric_moments_match_monte_carlo() {
        let mut rng = StdRng::seed_from_u64(13);
        let dist = TwoSidedGeometric::new(0.6);
        let n = 200_000;
        let samples: Vec<i64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<i64>() as f64 / n as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean) * (x as f64 - mean))
            .sum::<f64>()
            / n as f64;
        assert_close(mean, 0.0, 0.05);
        assert_close(var, dist.variance(), 0.1 * dist.variance());
    }

    #[test]
    #[should_panic(expected = "alpha must lie in (0, 1)")]
    fn geometric_rejects_alpha_one() {
        TwoSidedGeometric::new(1.0);
    }

    #[test]
    fn samplers_are_deterministic_under_seed() {
        let dist = Laplace::new(1.5);
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..10).map(|_| dist.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..10).map(|_| dist.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
