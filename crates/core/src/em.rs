//! Iterative Bayesian (EM) reconstruction of SA frequencies — an extension
//! beyond the paper's closed-form MLE.
//!
//! The paper reconstructs with the unconstrained MLE of Lemma 2, which can
//! produce negative frequencies on small supports. The classic alternative
//! (Agrawal–Aggarwal, PODS 2001) is the EM fixed-point
//!
//! ```text
//! θ_i ← θ_i · Σ_j  (O*_j / |S|) · P[j][i] / (Σ_k P[j][k] · θ_k)
//! ```
//!
//! which converges to the maximum-likelihood distribution *constrained to
//! the simplex*. It agrees with the closed form whenever the closed form is
//! already a probability vector, and projects gracefully when it is not.
//! `bench_ablations` times the closed form against EM.

use crate::matrix::PerturbationMatrix;

/// Convergence control for [`em_reconstruct`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmOptions {
    /// Maximum number of EM sweeps.
    pub max_iterations: usize,
    /// Terminate once the L1 change between successive iterates drops below
    /// this threshold.
    pub tolerance: f64,
}

impl Default for EmOptions {
    fn default() -> Self {
        Self {
            max_iterations: 1000,
            tolerance: 1e-10,
        }
    }
}

/// Result of an EM reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub struct EmReconstruction {
    /// The reconstructed frequency vector (a proper distribution).
    pub frequencies: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
}

/// Runs the EM fixed-point on an observed histogram.
///
/// # Panics
///
/// Panics if the histogram is empty or sums to zero, or on invalid `p`.
pub fn em_reconstruct(hist: &[u64], p: f64, options: EmOptions) -> EmReconstruction {
    let support: u64 = hist.iter().sum();
    assert!(support > 0, "cannot reconstruct from an empty record set");
    let m = hist.len();
    // Validate (p, m) through the matrix constructor; the update below
    // exploits the matrix structure instead of materializing it.
    let _ = PerturbationMatrix::new(p, m);
    let observed: Vec<f64> = hist.iter().map(|&o| o as f64 / support as f64).collect();

    // Uniform starting point: strictly interior, so no coordinate is stuck
    // at zero by the multiplicative update.
    let mut theta = vec![1.0 / m as f64; m];
    let mut iterations = 0;
    let mut converged = false;
    while iterations < options.max_iterations {
        iterations += 1;
        // Denominators: (P · θ)_j for every observed value j.
        // P·θ = p·θ + (1−p)/m · Σθ, exploiting the matrix structure.
        let theta_sum: f64 = theta.iter().sum();
        let base = (1.0 - p) / m as f64 * theta_sum;
        let denom: Vec<f64> = theta.iter().map(|&t| p * t + base).collect();
        // Multiplicative update.
        let mut next = vec![0.0; m];
        // Σ_j observed_j · P[j][i] / denom_j
        //   = observed_i · (p + (1−p)/m)/denom_i + Σ_{j≠i} observed_j · (1−p)/m / denom_j
        let uniform_term: f64 = observed
            .iter()
            .zip(&denom)
            .map(|(&o, &d)| if d > 0.0 { o / d } else { 0.0 })
            .sum::<f64>()
            * ((1.0 - p) / m as f64);
        for i in 0..m {
            let own = if denom[i] > 0.0 {
                observed[i] * p / denom[i]
            } else {
                0.0
            };
            next[i] = theta[i] * (own + uniform_term);
        }
        // Renormalize to guard against floating-point drift.
        let total: f64 = next.iter().sum();
        if total > 0.0 {
            for v in &mut next {
                *v /= total;
            }
        }
        let l1: f64 = next.iter().zip(&theta).map(|(a, b)| (a - b).abs()).sum();
        theta = next;
        if l1 < options.tolerance {
            converged = true;
            break;
        }
    }
    EmReconstruction {
        frequencies: theta,
        iterations,
        converged,
    }
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
    fn output_is_a_distribution() {
        let rec = em_reconstruct(&[5, 0, 95], 0.3, EmOptions::default());
        assert_close(rec.frequencies.iter().sum::<f64>(), 1.0, 1e-9);
        assert!(rec.frequencies.iter().all(|&f| (0.0..=1.0).contains(&f)));
        assert!(rec.converged);
    }

    #[test]
    fn agrees_with_closed_form_when_interior() {
        // A large, well-behaved histogram: the unconstrained MLE is interior
        // to the simplex, so EM must find the same point.
        let op = UniformPerturbation::new(0.5, 4);
        let hist = [4000u64, 3000, 2000, 1000];
        let mut rng = StdRng::seed_from_u64(9);
        let observed = op.perturb_histogram(&mut rng, &hist);
        let closed = reconstruct_histogram(&observed, 0.5);
        if closed.iter().all(|&f| f > 0.0) {
            let em = em_reconstruct(&observed, 0.5, EmOptions::default());
            for (a, b) in em.frequencies.iter().zip(closed.iter()) {
                assert_close(*a, *b, 1e-6);
            }
        } else {
            panic!("test setup expected an interior MLE");
        }
    }

    #[test]
    fn projects_negative_closed_form_onto_simplex() {
        // Observation below the noise floor: closed form goes negative,
        // EM stays non-negative.
        let hist = [0u64, 2, 98];
        let closed = reconstruct_histogram(&hist, 0.2);
        assert!(
            closed.iter().any(|&f| f < 0.0),
            "setup: closed form negative"
        );
        let em = em_reconstruct(&hist, 0.2, EmOptions::default());
        assert!(em.frequencies.iter().all(|&f| f >= 0.0));
        assert_close(em.frequencies.iter().sum::<f64>(), 1.0, 1e-9);
    }

    #[test]
    fn respects_iteration_cap() {
        let rec = em_reconstruct(
            &[1, 99],
            0.1,
            EmOptions {
                max_iterations: 3,
                tolerance: 0.0,
            },
        );
        assert_eq!(rec.iterations, 3);
        assert!(!rec.converged);
    }

    #[test]
    fn pure_data_reconstructs_itself_at_high_retention() {
        // With p close to 1 the observed distribution is nearly the truth.
        let rec = em_reconstruct(&[700, 200, 100], 0.99, EmOptions::default());
        assert_close(rec.frequencies[0], 0.7, 0.01);
        assert_close(rec.frequencies[1], 0.2, 0.01);
        assert_close(rec.frequencies[2], 0.1, 0.01);
    }

    #[test]
    #[should_panic(expected = "empty record set")]
    fn empty_histogram_panics() {
        em_reconstruct(&[0, 0], 0.5, EmOptions::default());
    }
}
