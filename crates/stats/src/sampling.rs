//! Discrete sampling utilities: weighted categorical draws, a binomial
//! sampler and stochastic rounding.
//!
//! These back the histogram-level fast path of the perturbation operator
//! (timed against the record level by `bench_ablations`) and the
//! fractional record picks of the SPS
//! Sampling/Scaling steps.

use rand::Rng;

/// Samples an index from a discrete distribution given by non-negative
/// weights, by linear inversion.
///
/// # Panics
///
/// Panics if `weights` is empty, contains a negative or non-finite weight, or
/// sums to zero.
pub fn sample_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "weights must be non-empty");
    let mut total = 0.0;
    for &w in weights {
        assert!(
            w >= 0.0 && w.is_finite(),
            "weights must be non-negative and finite, got {w}"
        );
        total += w;
    }
    assert!(total > 0.0, "weights must not all be zero");
    let mut target = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    // Floating-point slack can walk past the end; the last positive weight
    // is the correct fallback.
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("at least one positive weight exists")
}

/// Below this (mirrored) success probability the waiting-time strategy of
/// [`sample_binomial`] beats direct Bernoulli summation; see its docs.
pub const WAITING_TIME_MAX_Q: f64 = 0.1;

/// Draws `X ~ Binomial(n, q)`.
///
/// Uses direct Bernoulli summation unless the (mirrored) probability is
/// genuinely small, where geometric waiting-time inversion wins: both loops
/// are `O(n)` worst case, but a waiting-time step costs an `ln()` (~15× a
/// branchless Bernoulli trial) and only performs `n·q + 1` of them, so it
/// pays off below `q ≈` [`WAITING_TIME_MAX_Q`]. All paths are exact (no
/// normal approximation), which keeps distribution-level tests honest.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, q: f64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&q),
        "probability must lie in [0, 1], got {q}"
    );
    if q == 0.0 || n == 0 {
        return 0;
    }
    if q == 1.0 {
        return n;
    }
    // Work with q <= 1/2 and mirror at the end.
    let (q, mirrored) = if q > 0.5 { (1.0 - q, true) } else { (q, false) };
    let x = if n <= 64 || q >= WAITING_TIME_MAX_Q {
        // Branchless accumulation: the comparison against a random uniform
        // is unpredictable by construction, so summing the 0/1 outcome
        // avoids one guaranteed-hostile branch per trial. Identical draws,
        // identical result.
        (0..n).map(|_| u64::from(rng.gen::<f64>() < q)).sum()
    } else {
        // Geometric waiting-time inversion: expected iterations n·q + 1.
        let log1mq = (1.0 - q).ln();
        let mut count = 0u64;
        let mut skipped = 0u64;
        loop {
            let u: f64 = loop {
                let u: f64 = rng.gen();
                if u > f64::MIN_POSITIVE {
                    break u;
                }
            };
            let gap = (u.ln() / log1mq).floor() as u64;
            if skipped + gap >= n {
                break;
            }
            skipped += gap + 1;
            count += 1;
            if skipped >= n {
                break;
            }
        }
        count
    };
    if mirrored {
        n - x
    } else {
        x
    }
}

/// Stochastic rounding of a non-negative real target count: returns
/// `floor(x)` plus one more with probability `frac(x)`.
///
/// This is exactly the "pick one additional record with probability
/// `|g_sa|·τ − ⌊|g_sa|·τ⌋`" device of the SPS Sampling and Scaling steps.
///
/// # Panics
///
/// Panics if `x` is negative or not finite.
pub fn stochastic_round<R: Rng + ?Sized>(rng: &mut R, x: f64) -> u64 {
    assert!(
        x >= 0.0 && x.is_finite(),
        "stochastic_round needs finite x >= 0, got {x}"
    );
    let base = x.floor();
    let frac = x - base;
    let extra = u64::from(frac > 0.0 && rng.gen::<f64>() < frac);
    base as u64 + extra
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
    fn weighted_sampling_matches_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let weights = [1.0, 3.0, 6.0];
        let n = 60_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[sample_weighted(&mut rng, &weights)] += 1;
        }
        assert_close(counts[0] as f64 / n as f64, 0.1, 0.01);
        assert_close(counts[1] as f64 / n as f64, 0.3, 0.01);
        assert_close(counts[2] as f64 / n as f64, 0.6, 0.01);
    }

    #[test]
    fn weighted_sampling_skips_zero_weights() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let i = sample_weighted(&mut rng, &[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn weighted_sampling_rejects_all_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        sample_weighted(&mut rng, &[0.0, 0.0]);
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 1.0), 100);
    }

    #[test]
    fn binomial_moments_small_and_large_n() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(n, q) in &[(40u64, 0.3f64), (5000, 0.02), (5000, 0.9), (200, 0.5)] {
            let trials = 20_000;
            let mut sum = 0.0;
            let mut sumsq = 0.0;
            for _ in 0..trials {
                let x = sample_binomial(&mut rng, n, q) as f64;
                assert!(x <= n as f64);
                sum += x;
                sumsq += x * x;
            }
            let mean = sum / trials as f64;
            let var = sumsq / trials as f64 - mean * mean;
            let expect_mean = n as f64 * q;
            let expect_var = n as f64 * q * (1.0 - q);
            assert_close(
                mean,
                expect_mean,
                4.0 * (expect_var / trials as f64).sqrt() + 0.05,
            );
            assert_close(var, expect_var, 0.08 * expect_var + 0.1);
        }
    }

    #[test]
    fn stochastic_round_integer_is_exact() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..100 {
            assert_eq!(stochastic_round(&mut rng, 7.0), 7);
            assert_eq!(stochastic_round(&mut rng, 0.0), 0);
        }
    }

    #[test]
    fn stochastic_round_is_unbiased() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = 3.7;
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| stochastic_round(&mut rng, x)).sum();
        assert_close(sum as f64 / n as f64, x, 0.01);
    }
}
