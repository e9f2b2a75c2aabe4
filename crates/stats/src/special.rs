//! Special functions needed by the statistical machinery.
//!
//! Everything here is implemented from scratch (Lanczos approximation for the
//! log-gamma function, series/continued-fraction evaluation for the
//! regularized incomplete gamma function, and an Abramowitz–Stegun style
//! rational approximation for the error function) so that the workspace does
//! not depend on an external scientific-computing crate.

/// Relative accuracy targeted by the iterative routines in this module.
const EPS: f64 = 1e-14;

/// Largest number of iterations allowed in series / continued-fraction loops.
const MAX_ITER: usize = 500;

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with g = 7 and 9 coefficients, which is
/// accurate to about 15 significant digits over the positive real axis.
///
/// # Panics
///
/// Panics if `x <= 0` (the log-gamma of a non-positive real is either a pole
/// or complex; callers in this workspace only need the positive axis).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");

    // Lanczos coefficients for g = 7, n = 9.
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];

    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }

    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// `P(a, x)` rises from 0 at `x = 0` to 1 as `x → ∞`. Follows the classic
/// Numerical Recipes split: a power series for `x < a + 1` and a continued
/// fraction (via [`reg_gamma_upper`]) otherwise.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_gamma_lower(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_gamma_lower requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_gamma_lower requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_continued_fraction(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
///
/// Evaluated directly by continued fraction for `x >= a + 1`, avoiding the
/// catastrophic cancellation that `1 − P(a, x)` would suffer in the far tail.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_gamma_upper(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_gamma_upper requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_gamma_upper requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_series(a, x)
    } else {
        gamma_continued_fraction(a, x)
    }
}

/// Power-series evaluation of `P(a, x)`, convergent for `x < a + 1`.
fn gamma_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut term = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Modified Lentz continued-fraction evaluation of `Q(a, x)`, convergent for
/// `x >= a + 1`.
fn gamma_continued_fraction(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Complementary error function `erfc(x) = 1 − erf(x)`, accurate to
/// ~1.2e-7.
pub fn erfc(x: f64) -> f64 {
    // Numerical Recipes `erfcc` Chebyshev fit; relative error < 1.2e-7.
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The error function, checked through its complement.
    fn erf(x: f64) -> f64 {
        1.0 - erfc(x)
    }

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol,
            "expected {expected}, got {actual} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n−1)! for integer n.
        assert_close(ln_gamma(1.0), 0.0, 1e-12);
        assert_close(ln_gamma(2.0), 0.0, 1e-12);
        assert_close(ln_gamma(5.0), (24.0f64).ln(), 1e-12);
        assert_close(ln_gamma(11.0), (3_628_800.0f64).ln(), 1e-10);
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π.
        assert_close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-12);
        // Γ(3/2) = √π / 2.
        assert_close(
            ln_gamma(1.5),
            0.5 * std::f64::consts::PI.ln() - std::f64::consts::LN_2,
            1e-12,
        );
    }

    #[test]
    #[should_panic(expected = "ln_gamma requires x > 0")]
    fn ln_gamma_rejects_non_positive() {
        ln_gamma(0.0);
    }

    #[test]
    fn incomplete_gamma_boundaries() {
        assert_close(reg_gamma_lower(2.5, 0.0), 0.0, 0.0);
        assert_close(reg_gamma_upper(2.5, 0.0), 1.0, 0.0);
        // P + Q = 1 across the split point of both algorithms.
        for &a in &[0.3, 1.0, 2.5, 10.0, 50.0] {
            for &x in &[0.01, 0.5, a, a + 0.999, a + 1.001, 3.0 * a + 10.0] {
                let p = reg_gamma_lower(a, x);
                let q = reg_gamma_upper(a, x);
                assert_close(p + q, 1.0, 1e-12);
                assert!((0.0..=1.0).contains(&p), "P({a},{x}) = {p} out of range");
            }
        }
    }

    #[test]
    fn incomplete_gamma_exponential_special_case() {
        // For a = 1, P(1, x) = 1 − e^{−x} exactly.
        for &x in &[0.1, 0.7, 1.5, 4.0, 9.0] {
            assert_close(reg_gamma_lower(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_known_values() {
        // Reference values computed with mpmath (50 digits).
        assert_close(reg_gamma_lower(0.5, 0.5), 0.682_689_492_137_086, 1e-10);
        assert_close(reg_gamma_lower(3.0, 2.0), 0.323_323_583_816_936_5, 1e-10);
        assert_close(reg_gamma_upper(5.0, 10.0), 0.029_252_688_076_961_3, 1e-10);
    }

    #[test]
    fn erf_known_values() {
        // The Chebyshev fit has ~1.2e-7 absolute error, so tolerances here
        // are set to the approximation's accuracy, not machine precision.
        assert_close(erf(0.0), 0.0, 2e-7);
        assert_close(erf(1.0), 0.842_700_792_949_715, 2e-7);
        assert_close(erf(-1.0), -0.842_700_792_949_715, 2e-7);
        assert_close(erf(2.0), 0.995_322_265_018_953, 2e-7);
    }

    #[test]
    fn erf_is_odd_and_erfc_complementary() {
        for &x in &[0.1, 0.5, 1.3, 2.7] {
            assert_close(erf(x) + erf(-x), 0.0, 4e-7);
            assert_close(erf(x) + erfc(x), 1.0, 1e-12);
        }
    }

    #[test]
    fn std_normal_cdf_symmetry_and_known_quantile() {
        assert_close(std_normal_cdf(0.0), 0.5, 2e-7);
        assert_close(std_normal_cdf(1.959_963_985), 0.975, 1e-6);
        for &x in &[0.3, 1.0, 2.5] {
            assert_close(std_normal_cdf(x) + std_normal_cdf(-x), 1.0, 4e-7);
        }
    }
}
