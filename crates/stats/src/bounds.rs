//! Upper bounds on tail probabilities of sums of independent Poisson trials.
//!
//! Reconstruction privacy (Definition 3) is phrased in terms of the *best
//! known upper bound* on the relative-error tails of the reconstructed
//! frequency. Theorem 2 reduces those tails to the tails of the observed
//! count `O*`, which is a sum of independent (non-identical) Bernoulli
//! trials, so the classical bound literature applies. This module provides
//! the bounds the paper adopts: the simplified Chernoff bounds of Theorem 3.

/// Chernoff upper-tail bound (Theorem 3, Equation 5):
/// `Pr[(X − µ)/µ > ω] < exp(−ω²µ / (2 + ω))` for `ω ∈ (0, ∞)`.
///
/// # Panics
///
/// Panics if `omega <= 0` or `mu < 0`.
pub fn chernoff_upper(omega: f64, mu: f64) -> f64 {
    assert!(
        omega > 0.0,
        "Chernoff upper bound needs omega > 0, got {omega}"
    );
    assert!(mu >= 0.0, "mean must be non-negative, got {mu}");
    (-(omega * omega * mu) / (2.0 + omega)).exp()
}

/// Chernoff lower-tail bound (Theorem 3, Equation 6):
/// `Pr[(X − µ)/µ < −ω] < exp(−ω²µ / 2)` for `ω ∈ (0, 1]`.
///
/// # Panics
///
/// Panics if `omega` is outside `(0, 1]` or `mu < 0`.
pub fn chernoff_lower(omega: f64, mu: f64) -> f64 {
    assert!(
        omega > 0.0 && omega <= 1.0,
        "Chernoff lower bound needs omega in (0, 1], got {omega}"
    );
    assert!(mu >= 0.0, "mean must be non-negative, got {mu}");
    (-(omega * omega * mu) / 2.0).exp()
}

/// The pair of simplified Chernoff bounds `(U, L)` used throughout the paper,
/// evaluated at the same `(ω, µ)`.
///
/// `L` is `None` when `ω > 1` (Equation 6 does not apply there).
pub fn chernoff_pair(omega: f64, mu: f64) -> (f64, Option<f64>) {
    let upper = chernoff_upper(omega, mu);
    let lower = if omega <= 1.0 {
        Some(chernoff_lower(omega, mu))
    } else {
        None
    };
    (upper, lower)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn chernoff_upper_decreases_in_mu_and_omega() {
        assert!(chernoff_upper(0.3, 100.0) > chernoff_upper(0.3, 1000.0));
        assert!(chernoff_upper(0.2, 500.0) > chernoff_upper(0.4, 500.0));
    }

    #[test]
    fn chernoff_lower_tighter_than_upper_on_shared_range() {
        // For ω ∈ (0, 1], exp(−ω²µ/2) < exp(−ω²µ/(2+ω)): L < U always
        // (up to f64 underflow to 0 when both exponents are below ~−745).
        for &omega in &[0.1, 0.5, 1.0] {
            for &mu in &[1.0, 50.0, 5000.0] {
                let (l, u) = (chernoff_lower(omega, mu), chernoff_upper(omega, mu));
                if u > 0.0 {
                    assert!(l < u, "L={l} not below U={u} at omega={omega}, mu={mu}");
                } else {
                    assert_eq!(l, 0.0);
                }
            }
        }
    }

    #[test]
    fn chernoff_exact_values() {
        let u = chernoff_upper(1.0, 3.0);
        assert!((u - (-1.0f64).exp()).abs() < 1e-12);
        let l = chernoff_lower(1.0, 4.0);
        assert!((l - (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn chernoff_bounds_hold_against_monte_carlo_binomial() {
        // X ~ Binomial(n, q) is a sum of Poisson trials; the bounds must
        // dominate the empirical tails.
        let mut rng = StdRng::seed_from_u64(17);
        let n = 2000_u64;
        let q = 0.3_f64;
        let mu = n as f64 * q;
        let trials = 20_000;
        for &omega in &[0.05_f64, 0.1, 0.2] {
            let mut upper_hits = 0u64;
            let mut lower_hits = 0u64;
            for _ in 0..trials {
                let x: u64 = (0..n).filter(|_| rng.gen::<f64>() < q).count() as u64;
                let rel = (x as f64 - mu) / mu;
                if rel > omega {
                    upper_hits += 1;
                }
                if rel < -omega {
                    lower_hits += 1;
                }
            }
            let emp_upper = upper_hits as f64 / trials as f64;
            let emp_lower = lower_hits as f64 / trials as f64;
            assert!(
                emp_upper <= chernoff_upper(omega, mu),
                "omega={omega}: empirical {emp_upper} > bound {}",
                chernoff_upper(omega, mu)
            );
            assert!(
                emp_lower <= chernoff_lower(omega, mu),
                "omega={omega}: empirical {emp_lower} > bound {}",
                chernoff_lower(omega, mu)
            );
        }
    }

    #[test]
    fn chernoff_pair_drops_lower_beyond_one() {
        let (_, l) = chernoff_pair(1.5, 100.0);
        assert!(l.is_none());
        let (_, l) = chernoff_pair(0.9, 100.0);
        assert!(l.is_some());
    }

    #[test]
    #[should_panic(expected = "omega in (0, 1]")]
    fn chernoff_lower_rejects_omega_above_one() {
        chernoff_lower(1.01, 10.0);
    }

    #[test]
    #[should_panic(expected = "omega > 0")]
    fn chernoff_upper_rejects_zero_omega() {
        chernoff_upper(0.0, 10.0);
    }
}
