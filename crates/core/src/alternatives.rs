//! Alternative enforcement strategies the paper argues against —
//! implemented as comparison baselines.
//!
//! Section 5 motivates SPS by rejecting two simpler fixes for a violating
//! group (`|g| > sg`):
//!
//! * **Global retention reduction** — lower `p` until every group passes.
//!   "Reducing p has a global effect of making the perturbed data too
//!   noisy"; the experiments confirm it (Figure 3(a)).
//! * **Distribution distortion / suppression** — reducing the dominant
//!   frequency `f` distorts the data; the bluntest such instrument is
//!   suppressing violating groups outright.
//!
//! Both are provided here so the claim can be measured (the
//! `ablation_enforcement` bench and the `repro ablation` target).

use rand::Rng;
use rp_table::GroupHistograms;

use crate::groups::PersonalGroups;
use crate::privacy::{check_groups, group_is_private, PrivacyParams};
use crate::sps::up_histograms;

/// The largest retention probability (within `tolerance`) at which *every*
/// personal group satisfies `(λ, δ)`-reconstruction privacy under plain
/// uniform perturbation, found by bisection over `p ∈ (lo, hi)`.
///
/// Returns `None` when even the noisiest considered setting (`p = lo`)
/// still violates — on large data this happens routinely, which is exactly
/// the paper's argument: the threshold `sg` shrinks as `1/(pf)²` but group
/// sizes do not change, so some tables cannot be fixed by noise alone.
///
/// # Panics
///
/// Panics unless `0 < lo < hi < 1` and `tolerance > 0`.
pub fn max_private_retention(
    groups: &PersonalGroups,
    params: PrivacyParams,
    lo: f64,
    hi: f64,
    tolerance: f64,
) -> Option<f64> {
    assert!(0.0 < lo && lo < hi && hi < 1.0, "need 0 < lo < hi < 1");
    assert!(tolerance > 0.0, "tolerance must be positive");
    let private_at = |p: f64| check_groups(groups, p, params).is_private();
    if !private_at(lo) {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    if private_at(hi) {
        return Some(hi);
    }
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        if private_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Outcome of the suppression baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SuppressionOutput {
    /// Every personal group's key with its perturbed SA histogram, in key
    /// order; a suppressed group's histogram is all zero.
    pub histograms: GroupHistograms,
    /// Indices of the suppressed (violating) groups.
    pub suppressed: Vec<usize>,
    /// Records dropped by suppression.
    pub suppressed_records: u64,
}

/// Suppression baseline: perturb compliant groups with plain UP and drop
/// violating groups entirely. Trivially satisfies the criterion (a
/// suppressed group admits no reconstruction at all) at the cost of
/// erasing whole subpopulations — the distortion the paper's
/// frequency-preserving sampling avoids.
pub fn suppress_and_perturb<R: Rng + ?Sized>(
    rng: &mut R,
    groups: &PersonalGroups,
    p: f64,
    params: PrivacyParams,
) -> SuppressionOutput {
    let m = groups.spec().m();
    let mut histograms = up_histograms(rng, groups, p);
    let mut suppressed = Vec::new();
    let mut suppressed_records = 0u64;
    for (i, g) in groups.groups().enumerate() {
        let f = if g.is_empty() { 0.0 } else { g.max_frequency() };
        if !group_is_private(params, p, m, f, g.len() as u64) {
            histograms.hist_mut(i).fill(0);
            suppressed.push(i);
            suppressed_records += g.len() as u64;
        }
    }
    SuppressionOutput {
        histograms,
        suppressed,
        suppressed_records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::SaSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rp_table::{Attribute, Schema, Table, TableBuilder};

    /// One large skewed group and one small balanced group.
    fn demo_table(big: usize, small: usize) -> Table {
        let schema = Schema::new(vec![
            Attribute::new("G", ["a", "b"]),
            Attribute::with_anonymous_domain("SA", 2),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..big {
            b.push_codes(&[0, u32::from(i % 10 >= 7)]).unwrap();
        }
        for i in 0..small {
            b.push_codes(&[1, (i % 2) as u32]).unwrap();
        }
        b.build()
    }

    fn groups_of(t: &Table) -> PersonalGroups {
        PersonalGroups::build(t, SaSpec::new(t, 1))
    }

    #[test]
    fn bisection_finds_the_privacy_boundary() {
        let t = demo_table(300, 20);
        let groups = groups_of(&t);
        let params = PrivacyParams::new(0.3, 0.3);
        let p = max_private_retention(&groups, params, 0.01, 0.99, 1e-4)
            .expect("a small enough p exists for 300 records");
        // Just below the boundary: private; just above: not.
        assert!(check_groups(&groups, p, params).is_private());
        assert!(!check_groups(&groups, (p + 0.02).min(0.989), params).is_private());
    }

    #[test]
    fn unfixable_table_returns_none() {
        // sg at f = 0.7 stays bounded as p → 0 (sg → −2·(1/m)·lnδ/(λpf)²
        // grows actually)... use a pathological case instead: delta close
        // to 1 shrinks sg toward zero for every p.
        let t = demo_table(5000, 0);
        let groups = groups_of(&t);
        let params = PrivacyParams::new(0.5, 0.999);
        assert_eq!(
            max_private_retention(&groups, params, 0.01, 0.99, 1e-3),
            None
        );
    }

    #[test]
    fn already_private_table_keeps_high_p() {
        let t = demo_table(20, 10);
        let groups = groups_of(&t);
        let params = PrivacyParams::new(0.3, 0.3);
        let p = max_private_retention(&groups, params, 0.01, 0.95, 1e-4).unwrap();
        assert!((p - 0.95).abs() < 1e-9, "hi end is private, got {p}");
    }

    #[test]
    fn suppression_zeroes_violating_groups_only() {
        let t = demo_table(5000, 20);
        let groups = groups_of(&t);
        let params = PrivacyParams::new(0.3, 0.3);
        let mut rng = StdRng::seed_from_u64(1);
        let out = suppress_and_perturb(&mut rng, &groups, 0.5, params);
        assert_eq!(out.suppressed, vec![0], "only the 5000-record group");
        assert_eq!(out.suppressed_records, 5000);
        assert!(out.histograms.hist(0).iter().all(|&c| c == 0));
        assert_eq!(out.histograms.hist(1).iter().sum::<u64>(), 20);
    }

    #[test]
    fn suppression_on_private_table_is_plain_up() {
        let t = demo_table(30, 30);
        let groups = groups_of(&t);
        let params = PrivacyParams::new(0.3, 0.3);
        let mut rng = StdRng::seed_from_u64(2);
        let out = suppress_and_perturb(&mut rng, &groups, 0.5, params);
        assert!(out.suppressed.is_empty());
        assert_eq!(out.suppressed_records, 0);
        let total: u64 = out.histograms.iter().flat_map(|(_, h)| h).sum();
        assert_eq!(total, 60);
    }

    #[test]
    #[should_panic(expected = "0 < lo < hi < 1")]
    fn bad_bisection_range_rejected() {
        let t = demo_table(10, 10);
        let groups = groups_of(&t);
        max_private_retention(&groups, PrivacyParams::new(0.3, 0.3), 0.5, 0.2, 1e-3);
    }
}
