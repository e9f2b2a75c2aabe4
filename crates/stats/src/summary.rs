//! Streaming summary statistics (Welford's online algorithm) and the
//! mean / standard-error reporting used by the paper's Table 1.

/// Numerically stable streaming accumulator for mean and variance.
///
/// Uses Welford's algorithm, so it is safe for long runs of observations with
/// large offsets (e.g. noisy counts in the hundreds with sub-unit spread).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `None` when no observations were added.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Unbiased sample variance (denominator `n − 1`); `None` for fewer than
    /// two observations.
    pub fn sample_variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Sample standard deviation; `None` for fewer than two observations.
    pub fn sample_sd(&self) -> Option<f64> {
        self.sample_variance().map(f64::sqrt)
    }

    /// Standard error of the mean, `s / √n`, as reported in the paper's
    /// Table 1; `None` for fewer than two observations.
    pub fn standard_error(&self) -> Option<f64> {
        self.sample_sd().map(|sd| sd / (self.count as f64).sqrt())
    }
}

/// Relative error `|estimate − actual| / actual`, the utility measure of
/// Section 6.
///
/// # Panics
///
/// Panics if `actual == 0`.
pub fn relative_error(estimate: f64, actual: f64) -> f64 {
    assert!(actual != 0.0, "relative error undefined for actual == 0");
    (estimate - actual).abs() / actual.abs()
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

    #[test]
    fn empty_accumulator_returns_none() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.sample_variance(), None);
        assert_eq!(s.standard_error(), None);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_value_has_mean_but_no_variance() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), Some(42.0));
        assert_eq!(s.sample_variance(), None);
    }

    #[test]
    fn known_small_sample() {
        let mut s = OnlineStats::new();
        for &x in &[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_close(s.mean().unwrap(), 5.0, 1e-12);
        assert_close(s.sample_variance().unwrap(), 32.0 / 7.0, 1e-12);
        assert_close(
            s.standard_error().unwrap(),
            (32.0 / 7.0f64).sqrt() / (8.0f64).sqrt(),
            1e-12,
        );
    }

    #[test]
    fn welford_stable_under_large_offset() {
        let mut s = OnlineStats::new();
        let offset = 1e9;
        for &x in &[offset + 1.0, offset + 2.0, offset + 3.0] {
            s.push(x);
        }
        assert_close(s.mean().unwrap(), offset + 2.0, 1e-3);
        assert_close(s.sample_variance().unwrap(), 1.0, 1e-6);
    }

    #[test]
    fn relative_error_examples() {
        assert_close(relative_error(110.0, 100.0), 0.1, 1e-12);
        assert_close(relative_error(90.0, 100.0), 0.1, 1e-12);
        assert_close(relative_error(100.0, 100.0), 0.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "actual == 0")]
    fn relative_error_rejects_zero_actual() {
        relative_error(1.0, 0.0);
    }
}
