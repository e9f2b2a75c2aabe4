//! Taylor-expansion moments of the ratio of two noisy counts
//! (Lemma 1 and Corollary 2 of the paper).
//!
//! Section 2 analyses the attack where an adversary divides the noisy answer
//! `Y = y + ξ2` of the refined query by the noisy answer `X = x + ξ1` of the
//! base query to estimate the rule confidence `y/x`. For zero-mean,
//! fixed-variance noise the first-order Taylor moments show that `Y/X`
//! concentrates around `y/x` as `x` grows — the core observation motivating
//! reconstruction privacy.

/// Approximate moments of `Y/X` for noisy counts with independent zero-mean
/// noise of common variance `V` (Lemma 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioMoments {
    /// `E[Y/X] ≈ (y/x)(1 + V/x²)`.
    pub mean: f64,
    /// `Var[Y/X] ≈ (V/x²)(1 + y²/x²)`.
    pub variance: f64,
}

/// Computes the Lemma-1 Taylor approximations of `E[Y/X]` and `Var[Y/X]`.
///
/// # Panics
///
/// Panics if `x == 0` (the paper's lemma assumes `x ≠ 0`) or if
/// `noise_variance < 0`.
pub fn ratio_moments(x: f64, y: f64, noise_variance: f64) -> RatioMoments {
    assert!(x != 0.0, "Lemma 1 requires x != 0");
    assert!(
        noise_variance >= 0.0,
        "noise variance must be non-negative, got {noise_variance}"
    );
    let v_over_x2 = noise_variance / (x * x);
    RatioMoments {
        mean: (y / x) * (1.0 + v_over_x2),
        variance: v_over_x2 * (1.0 + (y * y) / (x * x)),
    }
}

/// The disclosure indicator `2(b/x)²` of Corollary 2 for Laplace noise
/// `Lap(b)`.
///
/// Corollary 2 states `|E[Y/X] − y/x| <= 2(b/x)²` and
/// `Var[Y/X] <= 4(b/x)²` whenever `y <= x`. Small values of the indicator
/// mean `Y/X` is a reliable estimate of the true confidence `y/x`, i.e. a
/// sensitive disclosure through NIR. The paper's rule of thumb is that
/// `b/x <= 1/20` (indicator `<= 2/400 = 0.005`) makes the attack accurate.
///
/// ```
/// use rp_stats::ratio::laplace_disclosure_indicator;
///
/// // Table 2 of the paper: b = 20 against a true answer of 500.
/// let indicator = laplace_disclosure_indicator(20.0, 500.0);
/// assert!((indicator - 0.0032).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `x == 0`.
pub fn laplace_disclosure_indicator(b: f64, x: f64) -> f64 {
    assert!(x != 0.0, "disclosure indicator requires x != 0");
    2.0 * (b / x) * (b / x)
}

/// The paper's rule-of-thumb disclosure test: the ratio estimate is
/// considered accurate enough to disclose when `b/x <= 1/20`.
pub fn is_disclosive_rule_of_thumb(b: f64, x: f64) -> bool {
    assert!(x != 0.0, "disclosure test requires x != 0");
    (b / x).abs() <= 1.0 / 20.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Laplace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol,
            "expected {expected}, got {actual} (tol {tol})"
        );
    }

    #[test]
    fn moments_match_closed_form() {
        let m = ratio_moments(500.0, 420.0, 800.0);
        let v_over_x2 = 800.0 / 250_000.0;
        assert_close(m.mean, 0.84 * (1.0 + v_over_x2), 1e-12);
        assert_close(m.variance, v_over_x2 * (1.0 + 0.84 * 0.84), 1e-12);
    }

    #[test]
    fn zero_noise_gives_exact_ratio() {
        let m = ratio_moments(200.0, 100.0, 0.0);
        assert_close(m.mean, 0.5, 1e-12);
        assert_close(m.variance, 0.0, 1e-12);
    }

    /// Corollary-2 bounds for Laplace noise: `(bias_bound, variance_bound)` =
    /// `(2(b/x)², 4(b/x)²)`.
    fn laplace_ratio_bounds(b: f64, x: f64) -> (f64, f64) {
        let indicator = laplace_disclosure_indicator(b, x);
        (indicator, 2.0 * indicator)
    }

    #[test]
    fn corollary2_dominates_lemma1_when_y_le_x() {
        // With y <= x and V = 2b², Lemma 1's bias term (y/x)·V/x² <= 2(b/x)²
        // and variance (V/x²)(1 + y²/x²) <= 4(b/x)².
        for &(x, y, b) in &[
            (500.0, 420.0, 20.0),
            (1000.0, 100.0, 40.0),
            (100.0, 100.0, 4.0),
        ] {
            let v = 2.0 * b * b;
            let m = ratio_moments(x, y, v);
            let (bias_bound, var_bound) = laplace_ratio_bounds(b, x);
            let bias = (m.mean - y / x).abs();
            assert!(
                bias <= bias_bound + 1e-12,
                "bias {bias} > bound {bias_bound}"
            );
            assert!(m.variance <= var_bound + 1e-12);
        }
    }

    #[test]
    fn indicator_matches_table2_of_paper() {
        // Table 2 of the paper, spot-checked: values of 2(b/x)².
        assert_close(laplace_disclosure_indicator(10.0, 5000.0), 0.000_008, 1e-9);
        assert_close(laplace_disclosure_indicator(20.0, 500.0), 0.0032, 1e-9);
        assert_close(laplace_disclosure_indicator(40.0, 100.0), 0.32, 1e-9);
        assert_close(laplace_disclosure_indicator(200.0, 200.0), 2.0, 1e-9);
        assert_close(laplace_disclosure_indicator(200.0, 100.0), 8.0, 1e-9);
    }

    #[test]
    fn rule_of_thumb_threshold() {
        assert!(is_disclosive_rule_of_thumb(20.0, 400.0));
        assert!(is_disclosive_rule_of_thumb(20.0, 401.0));
        assert!(!is_disclosive_rule_of_thumb(20.0, 399.0));
    }

    #[test]
    fn taylor_mean_matches_monte_carlo_for_large_x() {
        // For a large true answer the first-order Taylor mean should agree
        // with simulation to well within Monte-Carlo error.
        let mut rng = StdRng::seed_from_u64(23);
        let (x, y, b) = (5000.0, 4000.0, 20.0);
        let lap = Laplace::new(b);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let noisy_x = x + lap.sample(&mut rng);
            let noisy_y = y + lap.sample(&mut rng);
            sum += noisy_y / noisy_x;
        }
        let empirical = sum / n as f64;
        let predicted = ratio_moments(x, y, lap.variance()).mean;
        assert_close(empirical, predicted, 5e-4);
    }

    #[test]
    #[should_panic(expected = "x != 0")]
    fn zero_x_rejected() {
        ratio_moments(0.0, 1.0, 1.0);
    }
}
