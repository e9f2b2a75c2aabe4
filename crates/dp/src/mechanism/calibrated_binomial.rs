//! The calibrated binomial mechanism of Agarwal et al., *cpSGD*
//! (<https://arxiv.org/abs/1805.10559>), Theorem 1.
//!
//! The binomial mechanism answers a `d`-dimensional query by adding
//! `s · (X − N·p)` per coordinate, `X ~ Binomial(N, p)` — discrete,
//! bounded, symmetric-for-`p = ½` noise that (unlike Laplace/Gaussian)
//! is exactly representable in fixed-point pipelines. Theorem 1 gives
//! the `(ε, δ)` it achieves for a query with ℓ₁/ℓ₂/ℓ∞ sensitivities
//! `Δ₁, Δ₂, Δ∞`:
//!
//! ```text
//! ε =   Δ₂·√(2·ln(1.25/δ)) / (s·√(N·p·(1−p)))                      (first term)
//!     + (Δ₂·c_p·√(ln(10/δ)) + Δ₁·b_p) / (s·N·p·(1−p)·(1−δ/10))    (second term)
//!     + (⅔·Δ∞·ln(1.25/δ) + Δ∞·d_p·ln(20d/δ)·ln(10/δ)) / (s·N·p·(1−p))
//! ```
//!
//! with the paper's equation-17 / 12 / 16 constants
//!
//! ```text
//! b_p = ⅔·(p² + (1−p)²) + 1 − 2p
//! c_p = √2·(3p³ + 3(1−p)³ + 2p² + 2(1−p)²)
//! d_p = 4/3·(p² + (1−p)²)
//! ```
//!
//! valid whenever `N·p·(1−p) ≥ max(23·ln(10d/δ), 2Δ∞/s)` (the theorem's
//! side constraint), at expected squared error `d·s²·N·p·(1−p)`.
//!
//! [`smallest_n`] inverts the bound by binary search — the smallest trial
//! count whose calibrated ε is at or under a target — and
//! [`CalibratedBinomial`] packages the result as a [`Mechanism`] so the
//! bake-off harness can swap it in wherever Laplace noise is used today.

use rand::Rng;

use super::Mechanism;

/// `b_p` of equation 17: `⅔·(p² + (1−p)²) + 1 − 2p`.
pub fn b_p(p: f64) -> f64 {
    let q = 1.0 - p;
    (2.0 / 3.0) * (p * p + q * q) + 1.0 - 2.0 * p
}

/// `c_p` of equation 12: `√2·(3p³ + 3(1−p)³ + 2p² + 2(1−p)²)`.
pub fn c_p(p: f64) -> f64 {
    let q = 1.0 - p;
    std::f64::consts::SQRT_2 * (3.0 * p.powi(3) + 3.0 * q.powi(3) + 2.0 * p * p + 2.0 * q * q)
}

/// `d_p` of equation 16: `4/3·(p² + (1−p)²)`.
pub fn d_p(p: f64) -> f64 {
    let q = 1.0 - p;
    (4.0 / 3.0) * (p * p + q * q)
}

/// The sensitivities of the answered query class: worst-case ℓ₁, ℓ₂ and
/// ℓ∞ change of the `d`-dimensional answer vector when one record changes.
///
/// For a histogram release one record moves one cell by one, so
/// `Δ₁ = Δ₂ = Δ∞ = 1` ([`QuerySensitivity::histogram`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySensitivity {
    /// ℓ₁ sensitivity `Δ₁`.
    pub l1: f64,
    /// ℓ₂ sensitivity `Δ₂`.
    pub l2: f64,
    /// ℓ∞ sensitivity `Δ∞`.
    pub linf: f64,
}

impl QuerySensitivity {
    /// Sensitivities of a disjoint-cell histogram: `Δ₁ = Δ₂ = Δ∞ = 1`.
    pub fn histogram() -> Self {
        Self {
            l1: 1.0,
            l2: 1.0,
            linf: 1.0,
        }
    }
}

/// Theorem-1 ε for `N` trials at success probability `p`, failure budget
/// `δ`, quantization scale `s`, dimension `d` and the given sensitivities.
///
/// The returned value is only a valid DP guarantee when
/// [`delta_constraint`] holds for the same parameters.
///
/// # Panics
///
/// Panics unless `N ≥ 1`, `p ∈ (0, 1)`, `δ ∈ (0, 1)`, `s > 0`, `d ≥ 1`
/// and every sensitivity is positive.
pub fn epsilon(n: u64, p: f64, delta: f64, s: f64, d: u64, sens: QuerySensitivity) -> f64 {
    validate(n, p, delta, s, d, sens);
    let npq = n as f64 * p * (1.0 - p);
    let first = sens.l2 * (2.0 * (1.25 / delta).ln()).sqrt() / (s * npq.sqrt());
    let second = (sens.l2 * c_p(p) * (10.0 / delta).ln().sqrt() + sens.l1 * b_p(p))
        / (s * npq * (1.0 - delta / 10.0));
    let third = ((2.0 / 3.0) * sens.linf * (1.25 / delta).ln()
        + sens.linf * d_p(p) * (20.0 * d as f64 / delta).ln() * (10.0 / delta).ln())
        / (s * npq);
    first + second + third
}

/// Theorem 1's side constraint: `N·p·(1−p) ≥ max(23·ln(10d/δ), 2Δ∞/s)`.
/// The ε of [`epsilon`] is only a guarantee when this holds.
pub fn delta_constraint(n: u64, p: f64, delta: f64, s: f64, d: u64, linf: f64) -> bool {
    let npq = n as f64 * p * (1.0 - p);
    npq >= (23.0 * (10.0 * d as f64 / delta).ln()).max(2.0 * linf / s)
}

/// The smallest `N` whose Theorem-1 ε is at most `target_epsilon` *and*
/// that satisfies the side constraint, by binary search (both the
/// constraint and ε are monotone in `N`). `None` if no `N ≤ 2⁵³`
/// qualifies (ε shrinks like `1/√N`, so in practice this means the
/// target is unreachably small for `f64`).
///
/// # Panics
///
/// Panics unless `target_epsilon > 0` and the shared parameters pass the
/// [`epsilon`] validation.
pub fn smallest_n(
    target_epsilon: f64,
    p: f64,
    delta: f64,
    s: f64,
    d: u64,
    sens: QuerySensitivity,
) -> Option<u64> {
    assert!(
        target_epsilon > 0.0 && target_epsilon.is_finite(),
        "target epsilon must be positive and finite, got {target_epsilon}"
    );
    let fits = |n: u64| {
        delta_constraint(n, p, delta, s, d, sens.linf)
            && epsilon(n, p, delta, s, d, sens) <= target_epsilon
    };
    let (mut lo, mut hi) = (1u64, 1u64 << 53);
    if !fits(hi) {
        return None;
    }
    // Invariant: fits(hi), !fits(lo - 1); shrink until lo == hi.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// A binomial mechanism calibrated to a target `(ε, δ)`: per answered
/// coordinate it adds `s·(X − N·p)`, `X ~ Binomial(N, p)`, with `N`
/// chosen by [`smallest_n`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedBinomial {
    n: u64,
    p: f64,
    s: f64,
    epsilon: f64,
    delta: f64,
}

impl CalibratedBinomial {
    /// Calibrates the mechanism: the smallest `N` making a `d`-dimensional
    /// release with the given sensitivities `(target_epsilon, delta)`-DP at
    /// success probability `p` and scale `s`.
    ///
    /// Returns `None` when no feasible `N` exists (see [`smallest_n`]).
    pub fn calibrate(
        target_epsilon: f64,
        delta: f64,
        p: f64,
        s: f64,
        d: u64,
        sens: QuerySensitivity,
    ) -> Option<Self> {
        let n = smallest_n(target_epsilon, p, delta, s, d, sens)?;
        Some(Self {
            n,
            p,
            s,
            epsilon: epsilon(n, p, delta, s, d, sens),
            delta,
        })
    }

    /// The calibrated trial count `N`.
    pub fn trials(&self) -> u64 {
        self.n
    }

    /// The success probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The quantization scale `s`.
    pub fn scale(&self) -> f64 {
        self.s
    }

    /// The achieved ε (at most the calibration target, by construction).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The failure budget δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// One centered noise draw `s·(X − N·p)`.
    pub fn sample_noise<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = rp_stats::sampling::sample_binomial(rng, self.n, self.p);
        self.s * (x as f64 - self.n as f64 * self.p)
    }
}

impl Mechanism for CalibratedBinomial {
    fn answer<R: Rng + ?Sized>(&self, rng: &mut R, ans: f64) -> f64 {
        ans + self.sample_noise(rng)
    }

    fn noise_variance(&self) -> f64 {
        self.s * self.s * self.n as f64 * self.p * (1.0 - self.p)
    }
}

fn validate(n: u64, p: f64, delta: f64, s: f64, d: u64, sens: QuerySensitivity) {
    assert!(n >= 1, "trial count must be at least 1");
    assert!(p > 0.0 && p < 1.0, "p must lie in (0, 1), got {p}");
    assert!(
        delta > 0.0 && delta < 1.0,
        "delta must lie in (0, 1), got {delta}"
    );
    assert!(s > 0.0 && s.is_finite(), "scale must be positive, got {s}");
    assert!(d >= 1, "dimension must be at least 1");
    assert!(
        sens.l1 > 0.0 && sens.l2 > 0.0 && sens.linf > 0.0,
        "sensitivities must be positive, got {sens:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(actual: f64, expected: f64) {
        assert!(
            (actual - expected).abs() <= 1e-12 * expected.abs().max(1.0),
            "expected {expected}, got {actual}"
        );
    }

    #[test]
    fn constants_match_reference_implementation() {
        // Golden values from the paper authors' reference calculation
        // (binomial_fixed_p.py) at p = 0.5 and p = 0.3.
        assert_close(b_p(0.5), 0.333_333_333_333_333_26);
        assert_close(c_p(0.5), 2.474_873_734_152_916_3);
        assert_close(d_p(0.5), 0.666_666_666_666_666_6);
        assert_close(b_p(0.3), 0.786_666_666_666_666_7);
        assert_close(c_p(0.3), 3.210_264_786_586_925_4);
        assert_close(d_p(0.3), 0.773_333_333_333_333_2);
    }

    #[test]
    fn epsilon_matches_reference_implementation() {
        let h = QuerySensitivity::histogram();
        assert_close(
            epsilon(2_000, 0.5, 1e-6, 1.0, 4, h),
            0.667_305_977_460_797_5,
        );
        assert_close(
            epsilon(10_000, 0.5, 1e-6, 1.0, 4, h),
            0.192_043_315_431_627_73,
        );
        assert_close(
            epsilon(100_000, 0.5, 1e-9, 1.0, 256, h),
            0.059_951_272_491_227_656,
        );
        // Non-histogram sensitivities exercise every Δ position.
        let sens = QuerySensitivity {
            l1: 2.0,
            l2: std::f64::consts::SQRT_2,
            linf: 1.0,
        };
        assert_close(
            epsilon(5_000, 0.3, 1e-8, 2.0, 16, sens),
            0.334_357_757_703_016_84,
        );
    }

    #[test]
    fn smallest_n_matches_reference_implementation() {
        let h = QuerySensitivity::histogram();
        // ε = 1 at d = 4 is constraint-bound: N = 1611 is the first N
        // satisfying N/4 ≥ 23·ln(4·10⁷), not the first with ε ≤ 1.
        assert_eq!(smallest_n(1.0, 0.5, 1e-6, 1.0, 4, h), Some(1_611));
        assert_eq!(smallest_n(0.5, 0.5, 1e-6, 1.0, 4, h), Some(2_854));
        assert_eq!(smallest_n(1.0, 0.5, 1e-6, 1.0, 256, h), Some(1_994));
        assert_eq!(smallest_n(0.1, 0.3, 1e-8, 1.0, 16, h), Some(49_403));
    }

    #[test]
    fn smallest_n_result_is_tight_and_feasible() {
        let h = QuerySensitivity::histogram();
        for &(target, p, delta, d) in &[(0.5, 0.5, 1e-6, 4u64), (0.25, 0.4, 1e-7, 32)] {
            let n = smallest_n(target, p, delta, 1.0, d, h).unwrap();
            assert!(delta_constraint(n, p, delta, 1.0, d, h.linf));
            assert!(epsilon(n, p, delta, 1.0, d, h) <= target);
            // One fewer trial either breaks the constraint or misses ε.
            assert!(
                !delta_constraint(n - 1, p, delta, 1.0, d, h.linf)
                    || epsilon(n - 1, p, delta, 1.0, d, h) > target,
                "N = {n} is not minimal"
            );
        }
    }

    #[test]
    fn delta_constraint_matches_reference() {
        // 1611·0.25 = 402.75 ≥ 23·ln(4·10⁷) ≈ 402.69; 1610 fails.
        assert!(delta_constraint(1_611, 0.5, 1e-6, 1.0, 4, 1.0));
        assert!(!delta_constraint(1_610, 0.5, 1e-6, 1.0, 4, 1.0));
        // The 2Δ∞/s arm takes over for tiny scales.
        assert!(!delta_constraint(1_611, 0.5, 1e-6, 1e-3, 4, 1.0));
    }

    #[test]
    fn calibrated_mechanism_is_centered_with_advertised_variance() {
        let m =
            CalibratedBinomial::calibrate(1.0, 1e-6, 0.5, 1.0, 4, QuerySensitivity::histogram())
                .unwrap();
        assert_eq!(m.trials(), 1_611);
        assert!(m.epsilon() <= 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| m.sample_noise(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let sd = m.noise_variance().sqrt();
        assert!(mean.abs() < 4.0 * sd / (n as f64).sqrt(), "mean {mean}");
        assert!(
            (var / m.noise_variance() - 1.0).abs() < 0.05,
            "variance {var} vs advertised {}",
            m.noise_variance()
        );
    }

    #[test]
    fn calibration_is_infeasible_for_absurd_targets() {
        // ε ~ 1/√N can never reach 1e-10 before N overflows the search
        // range at this δ.
        assert_eq!(
            CalibratedBinomial::calibrate(1e-10, 1e-6, 0.5, 1e-9, 4, QuerySensitivity::histogram()),
            None
        );
    }

    #[test]
    #[should_panic(expected = "p must lie in (0, 1)")]
    fn epsilon_rejects_degenerate_p() {
        epsilon(100, 1.0, 1e-6, 1.0, 4, QuerySensitivity::histogram());
    }
}
