//! The `(λ, δ)`-reconstruction-privacy criterion: Definition 3, the bound
//! conversion of Theorem 2, the Chernoff instantiation of Corollary 3, the
//! closed-form test of Corollary 4 and the group-size threshold `sg` of
//! Equation 10.
//!
//! A sensitive value with frequency `f` in a personal group `g` is
//! `(λ, δ)`-reconstruction-private when the best upper bound on
//! `Pr[(F′ − f)/f > λ]` or `Pr[(F′ − f)/f < −λ]` is still at least `δ` —
//! i.e. the adversary cannot certify a small relative error for the
//! personal reconstruction. Under the Chernoff bounds this reduces to the
//! size test `|g| <= sg`.

use crate::groups::PersonalGroups;

/// The privacy parameters `(λ, δ)` of Definition 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyParams {
    lambda: f64,
    delta: f64,
}

impl PrivacyParams {
    /// Creates the parameter pair.
    ///
    /// # Panics
    ///
    /// Panics unless `lambda > 0` and `delta ∈ (0, 1]`. (`δ = 0` would make
    /// every group trivially private and `δ > 1` is not a probability.)
    pub fn new(lambda: f64, delta: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "lambda must be positive and finite, got {lambda}"
        );
        assert!(
            delta > 0.0 && delta <= 1.0,
            "delta must lie in (0, 1], got {delta}"
        );
        Self { lambda, delta }
    }

    /// The relative-error threshold λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The probability floor δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

/// Theorem 2's change of variables between the observed-count deviation `ω`
/// and the reconstructed-frequency deviation `λ`:
/// `λ = ω·µ / (|S|·p·f)`, with `µ = |S|·(f·p + (1−p)/m)`.
///
/// Because `µ` is proportional to `|S|`, the map is independent of `|S|`:
/// `λ = ω·(f·p + (1−p)/m) / (p·f)`.
///
/// # Panics
///
/// Panics if `f <= 0` or parameters are invalid.
pub fn omega_to_lambda(omega: f64, p: f64, m: usize, f: f64) -> f64 {
    assert!(f > 0.0, "frequency must be positive, got {f}");
    assert!(p > 0.0 && p < 1.0, "retention must lie in (0, 1), got {p}");
    assert!(m >= 2, "domain size must be at least 2, got {m}");
    omega * (f * p + (1.0 - p) / m as f64) / (p * f)
}

/// Inverse of [`omega_to_lambda`]: `ω = λ·p·f / (f·p + (1−p)/m)`.
///
/// # Panics
///
/// As [`omega_to_lambda`].
pub fn lambda_to_omega(lambda: f64, p: f64, m: usize, f: f64) -> f64 {
    assert!(f > 0.0, "frequency must be positive, got {f}");
    assert!(p > 0.0 && p < 1.0, "retention must lie in (0, 1), got {p}");
    assert!(m >= 2, "domain size must be at least 2, got {m}");
    lambda * p * f / (f * p + (1.0 - p) / m as f64)
}

/// The Chernoff upper bounds on the reconstruction error tails of
/// Corollary 3, for a record set of size `support` in which the value has
/// frequency `f`.
///
/// Returns `(U, Some(L))` where
/// `U = exp(−ω²µ/(2+ω))` bounds `Pr[(F′−f)/f > λ]` and
/// `L = exp(−ω²µ/2)` bounds `Pr[(F′−f)/f < −λ]`; `L` is `None` when
/// `ω > 1` (Equation 6 does not apply there).
///
/// # Panics
///
/// Panics if `support == 0`, `f <= 0`, or invalid `(λ, p, m)`.
pub fn reconstruction_error_bounds(
    lambda: f64,
    support: u64,
    f: f64,
    p: f64,
    m: usize,
) -> (f64, Option<f64>) {
    assert!(support > 0, "bounds need a non-empty record set");
    assert!(lambda > 0.0, "lambda must be positive, got {lambda}");
    let omega = lambda_to_omega(lambda, p, m, f);
    let mu = support as f64 * (f * p + (1.0 - p) / m as f64);
    rp_stats::bounds::chernoff_pair(omega, mu)
}

/// The maximum private group size `sg` (Equation 10), generalized to every
/// `λ > 0`.
///
/// For `ω = λ·p·f/(f·p + (1−p)/m) <= 1` (the paper's Corollary-4 range)
/// this is exactly
///
/// ```text
/// sg = −2·(f·p + (1−p)/m)·ln δ / (λ·p·f)²
/// ```
///
/// For `ω > 1`, the lower-tail Chernoff bound no longer applies and the
/// binding constraint becomes the upper tail `U`, giving
/// `sg = −(2 + ω)·ln δ / (ω²·c)` with `c = f·p + (1−p)/m`.
///
/// `f` is the frequency of the SA value under test; for a whole-group test
/// pass the group's maximum frequency (the right-hand side of Equation 9 is
/// decreasing in `f`, so the maximum is binding — Equation 10).
///
/// Returns `f64::INFINITY` when `f == 0` (a value absent from the group has
/// no reconstruction to protect).
///
/// ```
/// use rp_core::privacy::{max_group_size, PrivacyParams};
///
/// // ADULT's default setting: p = 0.5, m = 2, a group with f = 0.7 may
/// // hold at most ~131 records before uniform perturbation violates
/// // (0.3, 0.3)-reconstruction privacy.
/// let sg = max_group_size(PrivacyParams::new(0.3, 0.3), 0.5, 2, 0.7);
/// assert!((sg - 131.0).abs() < 1.0);
/// ```
///
/// # Panics
///
/// Panics on invalid `(p, m)`, negative `f`, or `f > 1`.
pub fn max_group_size(params: PrivacyParams, p: f64, m: usize, f: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "retention must lie in (0, 1), got {p}");
    assert!(m >= 2, "domain size must be at least 2, got {m}");
    assert!(
        (0.0..=1.0).contains(&f),
        "frequency must lie in [0, 1], got {f}"
    );
    if f == 0.0 {
        return f64::INFINITY;
    }
    let c = f * p + (1.0 - p) / m as f64;
    let omega = lambda_to_omega(params.lambda(), p, m, f);
    let neg_ln_delta = -params.delta().ln(); // >= 0 since delta in (0, 1]
    if omega <= 1.0 {
        // −2·c·ln δ / (λpf)²  ==  2·(−ln δ)/(ω²·c)
        2.0 * neg_ln_delta * c / (params.lambda() * p * f).powi(2)
    } else {
        (2.0 + omega) * neg_ln_delta / (omega * omega * c)
    }
}

/// Corollary 4: whether a personal group of size `size` whose maximum SA
/// frequency is `f` satisfies `(λ, δ)`-reconstruction privacy, i.e.
/// `size <= sg`.
pub fn group_is_private(params: PrivacyParams, p: f64, m: usize, f: f64, size: u64) -> bool {
    size as f64 <= max_group_size(params, p, m, f)
}

/// Per-group verdict in a [`ViolationReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupVerdict {
    /// Index of the group in the [`PersonalGroups`] it was computed from.
    pub group_index: usize,
    /// Group size `|g|`.
    pub size: u64,
    /// Maximum SA frequency `f` in the group.
    pub max_frequency: f64,
    /// The threshold `sg` of Equation 10.
    pub sg: f64,
    /// Whether the group violates the criterion (`|g| > sg`).
    pub violates: bool,
}

/// The outcome of testing every personal group of a table (the `vg`/`vr`
/// measures of Section 6).
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationReport {
    /// One verdict per personal group, in group order.
    pub verdicts: Vec<GroupVerdict>,
    /// Total records across all groups.
    pub total_records: u64,
    /// Records belonging to violating groups.
    pub violating_records: u64,
}

impl ViolationReport {
    /// Number of violating groups.
    pub fn violating_groups(&self) -> usize {
        self.verdicts.iter().filter(|v| v.violates).count()
    }

    /// `vg`: fraction of personal groups that violate the criterion.
    /// Zero when there are no groups.
    pub fn vg(&self) -> f64 {
        if self.verdicts.is_empty() {
            return 0.0;
        }
        self.violating_groups() as f64 / self.verdicts.len() as f64
    }

    /// `vr`: fraction of records contained in violating groups.
    /// Zero when the table is empty.
    pub fn vr(&self) -> f64 {
        if self.total_records == 0 {
            return 0.0;
        }
        self.violating_records as f64 / self.total_records as f64
    }

    /// Whether the whole table satisfies `(λ, δ)`-reconstruction privacy.
    pub fn is_private(&self) -> bool {
        self.violating_records == 0 && self.verdicts.iter().all(|v| !v.violates)
    }
}

/// Tests every personal group against the criterion (the "Violation" halves
/// of Figures 2 and 4 run this against uniform perturbation's intended
/// publication).
///
/// Note that reconstruction privacy is a property of the perturbation
/// *design* `(p, m, |g|, f)`, not of a particular perturbed instance
/// (Definition 3), so the test consumes the raw groups plus `p`.
pub fn check_groups(groups: &PersonalGroups, p: f64, params: PrivacyParams) -> ViolationReport {
    let m = groups.spec().m();
    let mut verdicts = Vec::with_capacity(groups.len());
    let mut total_records = 0u64;
    let mut violating_records = 0u64;
    for (i, g) in groups.groups().enumerate() {
        let size = g.len() as u64;
        total_records += size;
        let f = if g.is_empty() { 0.0 } else { g.max_frequency() };
        let sg = max_group_size(params, p, m, f);
        let violates = size as f64 > sg;
        if violates {
            violating_records += size;
        }
        verdicts.push(GroupVerdict {
            group_index: i,
            size,
            max_frequency: f,
            sg,
            violates,
        });
    }
    ViolationReport {
        verdicts,
        total_records,
        violating_records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::SaSpec;
    use rp_table::{Attribute, Schema, Table, TableBuilder};

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol,
            "expected {expected}, got {actual} (tol {tol})"
        );
    }

    #[test]
    fn omega_lambda_round_trip() {
        for &(p, m, f) in &[(0.5, 2, 0.7), (0.2, 10, 0.1), (0.9, 50, 0.02)] {
            for &lambda in &[0.1, 0.3, 1.0] {
                let omega = lambda_to_omega(lambda, p, m, f);
                let back = omega_to_lambda(omega, p, m, f);
                assert_close(back, lambda, 1e-12);
            }
        }
    }

    #[test]
    fn sg_matches_equation_10_in_corollary4_range() {
        // Hand-evaluate Equation 10 and compare.
        let params = PrivacyParams::new(0.3, 0.3);
        let (p, m, f) = (0.5, 2, 0.7);
        let omega = lambda_to_omega(0.3, p, m, f);
        assert!(omega <= 1.0, "setup must stay in the Corollary-4 range");
        let c = f * p + (1.0 - p) / m as f64;
        let expected = -2.0 * c * (0.3f64).ln() / (0.3 * p * f) * (1.0 / (0.3 * p * f));
        let sg = max_group_size(params, p, m, f);
        assert_close(sg, expected, 1e-9);
    }

    #[test]
    fn sg_decreases_in_lambda_delta_and_f() {
        let base = max_group_size(PrivacyParams::new(0.3, 0.3), 0.5, 2, 0.7);
        assert!(max_group_size(PrivacyParams::new(0.4, 0.3), 0.5, 2, 0.7) < base);
        assert!(max_group_size(PrivacyParams::new(0.3, 0.4), 0.5, 2, 0.7) < base);
        assert!(max_group_size(PrivacyParams::new(0.3, 0.3), 0.5, 2, 0.8) < base);
    }

    #[test]
    fn sg_boosts_at_small_f() {
        // Figure 1's key observation: sg grows rapidly as f shrinks.
        let params = PrivacyParams::new(0.3, 0.3);
        let sg_small = max_group_size(params, 0.5, 50, 0.1);
        let sg_large = max_group_size(params, 0.5, 50, 0.9);
        assert!(
            sg_small > 10.0 * sg_large,
            "sg({sg_small}) vs sg({sg_large})"
        );
    }

    #[test]
    fn absent_value_is_always_private() {
        assert_eq!(
            max_group_size(PrivacyParams::new(0.3, 0.3), 0.5, 2, 0.0),
            f64::INFINITY
        );
    }

    #[test]
    fn delta_one_makes_everything_violate() {
        // δ = 1 ⇒ ln δ = 0 ⇒ sg = 0 ⇒ any non-empty group violates.
        let sg = max_group_size(PrivacyParams::new(0.3, 1.0), 0.5, 2, 0.7);
        assert_close(sg, 0.0, 1e-12);
        assert!(!group_is_private(
            PrivacyParams::new(0.3, 1.0),
            0.5,
            2,
            0.7,
            1
        ));
    }

    #[test]
    fn large_lambda_beyond_corollary4_uses_upper_tail() {
        // Choose f, p, m with ω > 1: λ big enough.
        let (p, m, f) = (0.9, 2, 0.9);
        let lambda = 2.0;
        let omega = lambda_to_omega(lambda, p, m, f);
        assert!(omega > 1.0, "setup: omega = {omega}");
        let params = PrivacyParams::new(lambda, 0.3);
        let sg = max_group_size(params, p, m, f);
        // Verify directly against the Chernoff upper bound: at size sg the
        // bound equals δ.
        let c = f * p + (1.0 - p) / m as f64;
        let u_at_sg = (-(omega * omega * sg * c) / (2.0 + omega)).exp();
        assert_close(u_at_sg, 0.3, 1e-9);
    }

    #[test]
    fn bounds_at_sg_equal_delta() {
        // In the Corollary-4 range, L evaluated at |S| = sg equals δ.
        let params = PrivacyParams::new(0.3, 0.3);
        let (p, m, f) = (0.5, 10, 0.4);
        let sg = max_group_size(params, p, m, f);
        let (_, l) = reconstruction_error_bounds(0.3, sg.round() as u64, f, p, m);
        assert_close(l.expect("omega <= 1 here"), 0.3, 0.01);
    }

    #[test]
    fn reconstruction_error_bounds_shrink_with_support() {
        let (u1, l1) = reconstruction_error_bounds(0.3, 100, 0.5, 0.5, 2);
        let (u2, l2) = reconstruction_error_bounds(0.3, 10_000, 0.5, 0.5, 2);
        assert!(u2 < u1);
        assert!(l2.unwrap() < l1.unwrap());
    }

    fn two_group_table(big: usize, small: usize) -> Table {
        let schema = Schema::new(vec![
            Attribute::new("G", ["a", "b"]),
            Attribute::new("SA", ["x", "y"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..big {
            let sa = if i % 10 < 7 { "x" } else { "y" }; // f = 0.7
            b.push_values(&["a", sa]).unwrap();
        }
        for i in 0..small {
            let sa = if i % 2 == 0 { "x" } else { "y" }; // f = 0.5
            b.push_values(&["b", sa]).unwrap();
        }
        b.build()
    }

    #[test]
    fn check_groups_reports_vg_and_vr() {
        let t = two_group_table(4000, 10);
        let groups = crate::groups::PersonalGroups::build(&t, SaSpec::new(&t, 1));
        let params = PrivacyParams::new(0.3, 0.3);
        let report = check_groups(&groups, 0.5, params);
        assert_eq!(report.verdicts.len(), 2);
        // The 4000-record group with f = 0.7 violates (sg ≈ 131); the
        // 10-record group (f = 0.5, sg ≈ 214) does not.
        assert_eq!(report.violating_groups(), 1);
        assert_close(report.vg(), 0.5, 1e-12);
        assert_close(report.vr(), 4000.0 / 4010.0, 1e-12);
        assert!(!report.is_private());
    }

    #[test]
    fn small_table_is_private() {
        let t = two_group_table(10, 10);
        let groups = crate::groups::PersonalGroups::build(&t, SaSpec::new(&t, 1));
        let report = check_groups(&groups, 0.5, PrivacyParams::new(0.3, 0.3));
        assert!(report.is_private());
        assert_close(report.vg(), 0.0, 1e-12);
        assert_close(report.vr(), 0.0, 1e-12);
    }

    #[test]
    fn verdicts_expose_sg_and_f() {
        let t = two_group_table(100, 50);
        let groups = crate::groups::PersonalGroups::build(&t, SaSpec::new(&t, 1));
        let report = check_groups(&groups, 0.5, PrivacyParams::new(0.3, 0.3));
        for v in &report.verdicts {
            assert!(v.sg > 0.0);
            assert!(v.max_frequency >= 0.5);
            assert_eq!(v.violates, v.size as f64 > v.sg);
        }
    }

    #[test]
    #[should_panic(expected = "delta must lie in (0, 1]")]
    fn delta_zero_rejected() {
        PrivacyParams::new(0.3, 0.0);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn negative_lambda_rejected() {
        PrivacyParams::new(-0.1, 0.3);
    }
}
