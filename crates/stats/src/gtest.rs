//! The G-test (log-likelihood-ratio test) for two binned distributions —
//! an alternative to the Equation-4 χ² statistic with the same asymptotic
//! null distribution.
//!
//! `G = 2 Σ o·ln(o/e)` summed over both histograms, where the expected
//! counts `e` come from the pooled distribution. The generalization pass
//! (`rp-core::generalize`) can run on either statistic.

use crate::chi2::{BinnedTestResult, ChiSquared};

/// G-test for two binned data sets over the same bins.
///
/// Degrees of freedom follow the paper's Equation-4 convention (`df = m`,
/// the bin count) so results are directly comparable with
/// [`crate::chi2::binned_chi2_test`]. Returns `None` when either histogram
/// is empty.
///
/// # Panics
///
/// Panics if the histograms have different lengths or are empty.
pub fn binned_g_test(o: &[u64], o2: &[u64], alpha: f64) -> Option<BinnedTestResult> {
    assert_eq!(o.len(), o2.len(), "histograms must have the same bin count");
    assert!(!o.is_empty(), "histograms must be non-empty");
    let r: u64 = o.iter().sum();
    let r2: u64 = o2.iter().sum();
    if r == 0 || r2 == 0 {
        return None;
    }
    let total = (r + r2) as f64;
    let mut statistic = 0.0;
    for (&a, &b) in o.iter().zip(o2.iter()) {
        let bin_total = (a + b) as f64;
        if bin_total == 0.0 {
            continue;
        }
        // Expected counts under the pooled null.
        let ea = bin_total * r as f64 / total;
        let eb = bin_total * r2 as f64 / total;
        if a > 0 {
            statistic += 2.0 * a as f64 * (a as f64 / ea).ln();
        }
        if b > 0 {
            statistic += 2.0 * b as f64 * (b as f64 / eb).ln();
        }
    }
    let dof = o.len() as f64;
    let dist = ChiSquared::new(dof);
    let critical = dist.critical_value(alpha);
    Some(BinnedTestResult {
        statistic,
        dof,
        critical,
        p_value: dist.sf(statistic),
        rejects_null: statistic > critical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chi2::binned_chi2_test;

    #[test]
    fn identical_histograms_give_zero_statistic() {
        let o = [100u64, 200, 300];
        let res = binned_g_test(&o, &o, 0.05).unwrap();
        assert!(res.statistic.abs() < 1e-9);
        assert!(!res.rejects_null);
    }

    #[test]
    fn scaled_histograms_do_not_reject() {
        let o = [50u64, 150, 300];
        let o2 = [150u64, 450, 900];
        let res = binned_g_test(&o, &o2, 0.05).unwrap();
        assert!(res.statistic.abs() < 1e-9, "statistic {}", res.statistic);
    }

    #[test]
    fn disjoint_histograms_reject() {
        let res = binned_g_test(&[1000, 0], &[0, 1000], 0.05).unwrap();
        assert!(res.rejects_null);
    }

    #[test]
    fn agrees_with_chi2_asymptotically() {
        // For moderate deviations the two statistics are close; they share
        // the same null distribution.
        let o = [480u64, 520, 1010, 990];
        let o2 = [520u64, 480, 990, 1010];
        let g = binned_g_test(&o, &o2, 0.05).unwrap();
        let c = binned_chi2_test(&o, &o2, 0.05).unwrap();
        assert!(
            (g.statistic - c.statistic).abs() < 0.15 * c.statistic.max(1.0),
            "G = {} vs chi2 = {}",
            g.statistic,
            c.statistic
        );
        assert_eq!(g.rejects_null, c.rejects_null);
        assert_eq!(g.critical, c.critical);
    }

    #[test]
    fn empty_histogram_yields_none() {
        assert!(binned_g_test(&[0, 0], &[5, 5], 0.05).is_none());
    }

    #[test]
    fn zero_bins_in_one_histogram_are_finite() {
        // A bin present in only one histogram must not produce NaN/inf.
        let res = binned_g_test(&[10, 0, 5], &[8, 3, 4], 0.05).unwrap();
        assert!(res.statistic.is_finite());
    }

    #[test]
    #[should_panic(expected = "same bin count")]
    fn mismatched_bins_panic() {
        binned_g_test(&[1], &[1, 2], 0.05);
    }
}
