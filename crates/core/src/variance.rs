//! Sampling variance and confidence intervals for the MLE reconstruction —
//! the analyst-facing companion of Lemma 2.
//!
//! The observed count `O*` is a sum of independent Poisson trials: records
//! carrying the value succeed with probability `p + (1−p)/m`, the rest
//! with `(1−p)/m`. Its variance is therefore exact and closed-form, and
//! `F′ = (O*/|S| − (1−p)/m)/p` inherits it scaled by `1/(|S|·p)²`:
//!
//! ```text
//! Var[F′] = [ f·q1·(1−q1) + (1−f)·q0·(1−q0) ] / (|S|·p²)
//!   with q1 = p + (1−p)/m,  q0 = (1−p)/m
//! ```
//!
//! This quantifies the law-of-large-numbers gap the paper exploits: the
//! standard error of an aggregate reconstruction over `|S|` records decays
//! as `1/√|S|`, while a personal group sampled down to `sg` records stays
//! noisy.

use rp_stats::special::std_normal_cdf;

/// Exact variance of the unbiased estimator `F′` for a value with true
/// frequency `f` in a record set of `support` perturbed records.
///
/// # Panics
///
/// Panics on `support == 0`, `f` outside `[0, 1]`, or invalid `(p, m)`.
pub fn reconstruction_variance(f: f64, support: u64, p: f64, m: usize) -> f64 {
    assert!(support > 0, "variance undefined on an empty record set");
    assert!(
        (0.0..=1.0).contains(&f),
        "frequency must lie in [0, 1], got {f}"
    );
    assert!(p > 0.0 && p < 1.0, "retention must lie in (0, 1), got {p}");
    assert!(m >= 2, "domain size must be at least 2, got {m}");
    let q0 = (1.0 - p) / m as f64;
    let q1 = p + q0;
    let var_o = support as f64 * (f * q1 * (1.0 - q1) + (1.0 - f) * q0 * (1.0 - q0));
    var_o / (support as f64 * p).powi(2)
}

/// Standard error of `F′` (square root of [`reconstruction_variance`]).
pub fn reconstruction_se(f: f64, support: u64, p: f64, m: usize) -> f64 {
    reconstruction_variance(f, support, p, m).sqrt()
}

/// A symmetric normal-approximation confidence interval for a
/// reconstructed frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The point estimate `F′`.
    pub estimate: f64,
    /// Interval lower bound (not clamped; may be negative like `F′`).
    pub lo: f64,
    /// Interval upper bound.
    pub hi: f64,
    /// The confidence level the interval was built for.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Interval half-width.
    pub fn half_width(&self) -> f64 {
        0.5 * (self.hi - self.lo)
    }

    /// Whether the interval contains `value`.
    pub fn contains(&self, value: f64) -> bool {
        (self.lo..=self.hi).contains(&value)
    }
}

/// The two-sided standard-normal critical value of a confidence `level`
/// (`z ≈ 1.96` at 0.95): the `(1 + level)/2` quantile.
///
/// It runs the 100-step bisection of the normal quantile, so a caller
/// building many intervals at one level computes it once and passes it to
/// [`confidence_interval_z`].
///
/// # Panics
///
/// Panics on `level` outside `(0, 1)`.
pub fn critical_value(level: f64) -> f64 {
    assert!(
        level > 0.0 && level < 1.0,
        "level must lie in (0, 1), got {level}"
    );
    normal_quantile(0.5 + level / 2.0)
}

/// Builds the normal-approximation CI around an estimate `f_hat`
/// reconstructed from `support` records. Uses `f_hat` clamped to `[0, 1]`
/// as the plug-in frequency for the variance.
///
/// # Panics
///
/// Panics on invalid `(support, p, m)` or `level` outside `(0, 1)`.
pub fn confidence_interval(
    f_hat: f64,
    support: u64,
    p: f64,
    m: usize,
    level: f64,
) -> ConfidenceInterval {
    confidence_interval_z(f_hat, support, p, m, level, critical_value(level))
}

/// [`confidence_interval`] with the critical value `z` computed beforehand
/// by [`critical_value`]`(level)`; the result is bit-identical.
///
/// # Panics
///
/// Panics on invalid `(support, p, m)`.
pub fn confidence_interval_z(
    f_hat: f64,
    support: u64,
    p: f64,
    m: usize,
    level: f64,
    z: f64,
) -> ConfidenceInterval {
    let se = reconstruction_se(f_hat.clamp(0.0, 1.0), support, p, m);
    ConfidenceInterval {
        estimate: f_hat,
        lo: f_hat - z * se,
        hi: f_hat + z * se,
        level,
    }
}

/// Standard-normal quantile by bisection on the CDF (built on the crate's
/// erfc). It always runs 100 halvings of `[-10, 10]`, far past the 1e-9
/// tolerance needed here, each one an `erfc` call — hence
/// [`critical_value`] is computed once per level, not once per interval.
fn normal_quantile(prob: f64) -> f64 {
    assert!(prob > 0.0 && prob < 1.0, "probability must lie in (0, 1)");
    let (mut lo, mut hi) = (-10.0_f64, 10.0_f64);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if std_normal_cdf(mid) < prob {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mle::reconstruct_histogram;
    use crate::perturb::UniformPerturbation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol,
            "expected {expected}, got {actual} (tol {tol})"
        );
    }

    #[test]
    fn variance_matches_monte_carlo() {
        let (p, m) = (0.3, 5);
        let op = UniformPerturbation::new(p, m);
        let hist = [600u64, 150, 0, 200, 50];
        let support: u64 = hist.iter().sum();
        let f = 0.6;
        let mut rng = StdRng::seed_from_u64(5);
        let runs = 30_000;
        let mut stats = rp_stats::OnlineStats::new();
        for _ in 0..runs {
            let observed = op.perturb_histogram(&mut rng, &hist);
            stats.push(reconstruct_histogram(&observed, p)[0]);
        }
        let predicted = reconstruction_variance(f, support, p, m);
        assert_close(
            stats.sample_variance().unwrap(),
            predicted,
            0.05 * predicted,
        );
    }

    #[test]
    fn variance_decays_as_one_over_support() {
        let v1 = reconstruction_variance(0.4, 100, 0.5, 10);
        let v2 = reconstruction_variance(0.4, 10_000, 0.5, 10);
        assert_close(v1 / v2, 100.0, 1e-6);
    }

    #[test]
    fn variance_grows_as_retention_falls() {
        assert!(
            reconstruction_variance(0.4, 1000, 0.1, 10)
                > reconstruction_variance(0.4, 1000, 0.9, 10)
        );
    }

    #[test]
    fn normal_quantile_known_values() {
        assert_close(normal_quantile(0.975), 1.959_964, 1e-4);
        assert_close(critical_value(0.95), 1.959_964, 1e-4);
        assert_close(normal_quantile(0.5), 0.0, 1e-6);
        assert_close(normal_quantile(0.841_344_7), 1.0, 1e-4);
    }

    #[test]
    fn interval_covers_truth_at_nominal_rate() {
        let (p, m) = (0.4, 4);
        let op = UniformPerturbation::new(p, m);
        let hist = [500u64, 300, 150, 50];
        let support: u64 = hist.iter().sum();
        let f_true = 0.5;
        let mut rng = StdRng::seed_from_u64(6);
        let runs = 4_000;
        let mut covered = 0;
        for _ in 0..runs {
            let observed = op.perturb_histogram(&mut rng, &hist);
            let f_hat = reconstruct_histogram(&observed, p)[0];
            if confidence_interval(f_hat, support, p, m, 0.95).contains(f_true) {
                covered += 1;
            }
        }
        let coverage = covered as f64 / runs as f64;
        assert_close(coverage, 0.95, 0.02);
    }

    #[test]
    fn interval_geometry() {
        let ci = confidence_interval(0.3, 1000, 0.5, 10, 0.9);
        assert!(ci.lo < ci.estimate && ci.estimate < ci.hi);
        assert_close(ci.estimate - ci.lo, ci.hi - ci.estimate, 1e-12);
        assert!(ci.contains(0.3));
        assert!(!ci.contains(1.0));
        assert_close(ci.half_width(), (ci.hi - ci.lo) / 2.0, 1e-12);
    }

    #[test]
    fn personal_vs_aggregate_se_gap() {
        // The quantitative heart of the paper: the same frequency is far
        // better estimated from a big aggregate than from an sg-sized
        // personal sample.
        let personal = reconstruction_se(0.7, 131, 0.5, 2); // sg-ish
        let aggregate = reconstruction_se(0.7, 45_222, 0.5, 2);
        assert!(personal > 10.0 * aggregate);
    }

    #[test]
    #[should_panic(expected = "level must lie in (0, 1)")]
    fn bad_level_rejected() {
        confidence_interval(0.5, 100, 0.5, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty record set")]
    fn zero_support_rejected() {
        reconstruction_variance(0.5, 0, 0.5, 2);
    }
}
