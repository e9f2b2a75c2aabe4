//! The uniform perturbation matrix `P` of Equation 3 and its closed-form
//! inverse.
//!
//! For retention probability `p` and SA domain size `m`,
//!
//! ```text
//! P[j][i] = p + (1−p)/m   if j == i   (retain sa_i)
//!         = (1−p)/m       if j != i   (perturb sa_i to sa_j)
//! ```
//!
//! `P = p·I + ((1−p)/m)·J` where `J` is the all-ones matrix, so the inverse
//! has the closed form `P⁻¹ = (1/p)·(I − ((1−p)/m)·J)` (using `J² = mJ`).
//! The MLE reconstruction of Theorem 1 is `F′ = P⁻¹ · O*/|S|`.

/// The uniform perturbation operator's transition matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbationMatrix {
    p: f64,
    m: usize,
}

impl PerturbationMatrix {
    /// Creates the matrix for retention probability `p` over a domain of
    /// size `m`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1` and `m >= 2`. (The paper assumes `m > 2`
    /// for protection against negative-correlation prior knowledge, but the
    /// algebra only needs `m >= 2`; `m = 1` would make perturbation a no-op
    /// and reconstruction divide by zero frequency ranges.)
    pub fn new(p: f64, m: usize) -> Self {
        assert!(
            p > 0.0 && p < 1.0,
            "retention probability must lie strictly in (0, 1), got {p}"
        );
        assert!(m >= 2, "SA domain must have at least 2 values, got {m}");
        Self { p, m }
    }

    /// Retention probability `p`.
    pub fn retention(&self) -> f64 {
        self.p
    }

    /// Domain size `m`.
    pub fn domain_size(&self) -> usize {
        self.m
    }

    /// The probability that a record with SA value `i` ends up with value
    /// `j` after perturbation: `P[j][i]`.
    pub fn entry(&self, j: usize, i: usize) -> f64 {
        assert!(j < self.m && i < self.m, "matrix index out of range");
        let base = (1.0 - self.p) / self.m as f64;
        if j == i {
            self.p + base
        } else {
            base
        }
    }

    /// Entry `(j, i)` of the closed-form inverse `P⁻¹`.
    pub fn inverse_entry(&self, j: usize, i: usize) -> f64 {
        assert!(j < self.m && i < self.m, "matrix index out of range");
        let base = (1.0 - self.p) / self.m as f64;
        if j == i {
            (1.0 - base) / self.p
        } else {
            -base / self.p
        }
    }

    /// Applies `P⁻¹` to an observed frequency vector: the MLE
    /// `F′ = P⁻¹ · (O*/|S|)`.
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != m`.
    pub fn inverse(&self, observed: &[f64]) -> Vec<f64> {
        assert_eq!(observed.len(), self.m, "observed vector must have length m");
        let base = (1.0 - self.p) / self.m as f64;
        let total: f64 = observed.iter().sum();
        observed
            .iter()
            .map(|&o| (o - base * total) / self.p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol,
            "expected {expected}, got {actual} (tol {tol})"
        );
    }

    impl PerturbationMatrix {
        /// Applies `P` to a frequency vector: the expected observed distribution
        /// `E[O*]/|S| = P · f`.
        ///
        /// # Panics
        ///
        /// Panics if `freqs.len() != m`.
        fn forward(&self, freqs: &[f64]) -> Vec<f64> {
            assert_eq!(freqs.len(), self.m, "frequency vector must have length m");
            let base = (1.0 - self.p) / self.m as f64;
            let total: f64 = freqs.iter().sum();
            freqs.iter().map(|&f| self.p * f + base * total).collect()
        }
    }

    #[test]
    fn entries_match_equation_3() {
        let mat = PerturbationMatrix::new(0.2, 10);
        assert_close(mat.entry(0, 0), 0.2 + 0.08, 1e-12);
        assert_close(mat.entry(1, 0), 0.08, 1e-12);
        assert_close(mat.entry(9, 3), 0.08, 1e-12);
    }

    #[test]
    fn columns_sum_to_one() {
        for &(p, m) in &[(0.1, 2), (0.5, 10), (0.9, 50)] {
            let mat = PerturbationMatrix::new(p, m);
            for i in 0..m {
                let col_sum: f64 = (0..m).map(|j| mat.entry(j, i)).sum();
                assert_close(col_sum, 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn inverse_is_actual_inverse() {
        for &(p, m) in &[(0.2, 3), (0.5, 10), (0.7, 4)] {
            let mat = PerturbationMatrix::new(p, m);
            for j in 0..m {
                for i in 0..m {
                    let prod: f64 = (0..m)
                        .map(|k| mat.entry(j, k) * mat.inverse_entry(k, i))
                        .sum();
                    let expected = if i == j { 1.0 } else { 0.0 };
                    assert_close(prod, expected, 1e-12);
                }
            }
        }
    }

    #[test]
    fn forward_then_inverse_round_trips() {
        let mat = PerturbationMatrix::new(0.3, 5);
        let f = [0.5, 0.2, 0.1, 0.15, 0.05];
        let observed = mat.forward(&f);
        assert_close(observed.iter().sum::<f64>(), 1.0, 1e-12);
        let back = mat.inverse(&observed);
        for (a, b) in back.iter().zip(f.iter()) {
            assert_close(*a, *b, 1e-12);
        }
    }

    #[test]
    fn forward_matches_example_2() {
        // Example 2 of the paper: p = 0.2, m = 10,
        // E[F*_d] = (0.2 + 0.08)·f_d + 0.08·(1 − f_d).
        let mat = PerturbationMatrix::new(0.2, 10);
        let fd = 0.4;
        let mut f = vec![0.0; 10];
        f[0] = fd;
        // Spread the remainder over the other values arbitrarily.
        for v in f.iter_mut().skip(1) {
            *v = (1.0 - fd) / 9.0;
        }
        let observed = mat.forward(&f);
        assert_close(observed[0], 0.28 * fd + 0.08 * (1.0 - fd), 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly in (0, 1)")]
    fn p_one_rejected() {
        PerturbationMatrix::new(1.0, 5);
    }

    #[test]
    #[should_panic(expected = "at least 2 values")]
    fn m_one_rejected() {
        PerturbationMatrix::new(0.5, 1);
    }
}
