//! Maximum-likelihood reconstruction of SA frequencies from perturbed data
//! (Theorem 1 and Lemma 2 of the paper).
//!
//! Given the observed count `O*` of a value in a perturbed record set `S*`
//! of size `|S|`, the MLE of its true frequency is the closed form of
//! Lemma 2(ii):
//!
//! ```text
//! F′ = ( O*/|S| − (1−p)/m ) / p
//! ```
//!
//! The full-vector variant `F′ = P⁻¹ · O*/|S|` is identical (Lemma 2
//! derives one from the other); both are provided and the equality is kept
//! honest by tests and an ablation bench.

use crate::matrix::PerturbationMatrix;

/// Reconstructs the frequency of a single SA value from its observed count.
///
/// This is Lemma 2(ii). The estimate is unbiased (Lemma 2(iii)) but not
/// constrained to `[0, 1]` — small supports routinely produce negative
/// estimates, which the paper keeps as-is (they are exactly what makes
/// personal reconstruction unreliable). Clamp to `[0, 1]` when a proper
/// probability is needed downstream.
///
/// ```
/// use rp_core::mle::reconstruct_frequency;
///
/// // Example 2 of the paper: p = 0.2, m = 10, observed frequency 0.2
/// // reconstructs to (0.2 − 0.08) / 0.2 = 0.6.
/// let estimate = reconstruct_frequency(20, 100, 0.2, 10);
/// assert!((estimate - 0.6).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `support == 0` — the MLE is undefined on an empty record set —
/// or on invalid `p`/`m` (see [`PerturbationMatrix::new`]).
pub fn reconstruct_frequency(observed: u64, support: u64, p: f64, m: usize) -> f64 {
    assert!(support > 0, "cannot reconstruct from an empty record set");
    // Validate (p, m) through the matrix constructor.
    let _ = PerturbationMatrix::new(p, m);
    let observed_freq = observed as f64 / support as f64;
    (observed_freq - (1.0 - p) / m as f64) / p
}

/// Reconstructs the full frequency vector from an observed histogram using
/// the closed form, value by value.
///
/// # Panics
///
/// Panics if the histogram is empty, if its total is zero, or on invalid
/// `p`/`m` parameters implied by `hist.len()`.
pub fn reconstruct_histogram(hist: &[u64], p: f64) -> Vec<f64> {
    let support: u64 = hist.iter().sum();
    assert!(support > 0, "cannot reconstruct from an empty record set");
    let m = hist.len();
    hist.iter()
        .map(|&o| reconstruct_frequency(o, support, p, m))
        .collect()
}

/// Reconstructs the frequency vector through the matrix inverse
/// `F′ = P⁻¹ · (O*/|S|)` (Theorem 1). Mathematically identical to
/// [`reconstruct_histogram`]; retained as the reference implementation and
/// ablation target.
///
/// # Panics
///
/// As [`reconstruct_histogram`].
pub fn reconstruct_histogram_via_inverse(hist: &[u64], p: f64) -> Vec<f64> {
    let support: u64 = hist.iter().sum();
    assert!(support > 0, "cannot reconstruct from an empty record set");
    let m = hist.len();
    let matrix = PerturbationMatrix::new(p, m);
    let observed: Vec<f64> = hist.iter().map(|&o| o as f64 / support as f64).collect();
    matrix.inverse(&observed)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn closed_form_matches_example_2() {
        // Example 2: estimate of f_d is (f*_d − 0.08) / 0.2 at p = 0.2,
        // m = 10. With observed frequency 0.2 the estimate is 0.6.
        let est = reconstruct_frequency(20, 100, 0.2, 10);
        assert_close(est, (0.2 - 0.08) / 0.2, 1e-12);
    }

    #[test]
    fn closed_form_equals_matrix_inverse() {
        let hist = [37u64, 12, 5, 46];
        let a = reconstruct_histogram(&hist, 0.35);
        let b = reconstruct_histogram_via_inverse(&hist, 0.35);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_close(*x, *y, 1e-12);
        }
    }

    #[test]
    fn reconstruction_sums_to_one() {
        // The closed form preserves the simplex constraint: Σ F′ = 1
        // whenever Σ O* = |S|.
        let hist = [10u64, 20, 30, 40];
        let f = reconstruct_histogram(&hist, 0.5);
        assert_close(f.iter().sum::<f64>(), 1.0, 1e-12);
    }

    #[test]
    fn perfect_observation_reconstructs_exactly() {
        // If the observation happens to equal its expectation, the estimate
        // equals the true frequency.
        let p = 0.4;
        let m = 4;
        let f_true = 0.25;
        let support = 1000u64;
        let expected_observed = (f_true * p + (1.0 - p) / m as f64) * support as f64;
        let est = reconstruct_frequency(expected_observed.round() as u64, support, p, m);
        assert_close(est, f_true, 1e-3);
    }

    #[test]
    fn estimator_is_unbiased_monte_carlo() {
        // Lemma 2(iii): E[F′] = f. Perturb a fixed histogram many times and
        // average the estimates.
        let op = UniformPerturbation::new(0.3, 5);
        let hist = [120u64, 30, 0, 40, 10]; // f = 0.6, 0.15, 0, 0.2, 0.05
        let support: u64 = hist.iter().sum();
        let mut rng = StdRng::seed_from_u64(8);
        let runs = 20_000;
        let mut mean = [0f64; 5];
        for _ in 0..runs {
            let observed = op.perturb_histogram(&mut rng, &hist);
            let est = reconstruct_histogram(&observed, 0.3);
            for i in 0..5 {
                mean[i] += est[i] / runs as f64;
            }
        }
        for i in 0..5 {
            let f_true = hist[i] as f64 / support as f64;
            assert_close(mean[i], f_true, 0.01);
        }
    }

    #[test]
    fn negative_estimates_possible_and_clamped() {
        // Observed count far below the noise floor produces a negative MLE.
        let est = reconstruct_frequency(0, 100, 0.2, 10);
        assert!(est < 0.0);
    }

    #[test]
    #[should_panic(expected = "empty record set")]
    fn empty_support_panics() {
        reconstruct_frequency(0, 0, 0.5, 2);
    }

    #[test]
    #[should_panic(expected = "strictly in (0, 1)")]
    fn invalid_p_panics() {
        reconstruct_frequency(1, 10, 0.0, 2);
    }
}
