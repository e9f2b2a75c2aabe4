//! End-to-end integration: the full publication pipeline (generate →
//! generalize → test → enforce → publish → reconstruct) spanning
//! rp-datagen, rp-core and rp-table.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::estimate::{estimate_by_scan, GroupedView};
use rp_core::groups::{PersonalGroups, SaSpec};
use rp_core::privacy::{check_groups, max_group_size, PrivacyParams};
use rp_core::sps::{sps, uniform_perturb, SpsConfig};
use rp_datagen::adult::{self, AdultConfig};
use rp_experiments::config::PreparedDataset;
use rp_stats::summary::relative_error;
use rp_table::CountQuery;

fn fixture() -> PreparedDataset {
    PreparedDataset::adult_small(15_000)
}

#[test]
fn up_violates_and_sps_sample_sizes_respect_sg() {
    let d = fixture();
    let params = PrivacyParams::new(0.3, 0.3);
    let p = 0.5;
    // The paper's first claim: plain perturbation violates reconstruction
    // privacy on (a table shaped like) real data.
    let report = check_groups(&d.groups, p, params);
    assert!(
        report.vr() > 0.5,
        "vr = {} should be substantial",
        report.vr()
    );

    // Enforce with SPS; every sampled group must run at most ~sg trials.
    let mut rng = StdRng::seed_from_u64(99);
    let out = sps(&mut rng, &d.generalized, &d.groups, SpsConfig { p, params });
    assert!(out.stats.groups_sampled > 0);
    // Per-group check: recompute the sample budget.
    let m = d.groups.spec().m();
    let total_budget: f64 = d
        .groups
        .groups()
        .map(|g| {
            let sg = max_group_size(params, p, m, g.max_frequency());
            (g.len() as f64).min(sg.max(1.0)) + 2.0
        })
        .sum();
    assert!(
        (out.stats.sampled_records as f64)
            + (out.stats.input_records as f64 - out.stats.sampled_records as f64)
            >= 0.0
    );
    assert!(
        out.stats.sampled_records as f64 <= total_budget,
        "sampled {} exceeds the aggregate sg budget {total_budget}",
        out.stats.sampled_records
    );
}

#[test]
fn publication_size_matches_input_in_expectation() {
    let d = fixture();
    let params = PrivacyParams::new(0.3, 0.3);
    let mut rng = StdRng::seed_from_u64(3);
    let mut total = 0u64;
    let runs = 10;
    for _ in 0..runs {
        let out = sps(
            &mut rng,
            &d.generalized,
            &d.groups,
            SpsConfig { p: 0.5, params },
        );
        total += out.stats.output_records;
    }
    let avg = total as f64 / runs as f64;
    let expected = d.generalized.rows() as f64;
    assert!(
        (avg - expected).abs() < 0.02 * expected,
        "avg output {avg} vs input {expected}"
    );
}

#[test]
fn aggregate_reconstruction_unbiased_through_whole_pipeline() {
    // Theorem 5 end to end: reconstruct a large aggregate count from the
    // SPS publication; the mean over runs converges to the truth.
    let d = fixture();
    let params = PrivacyParams::new(0.3, 0.3);
    let p = 0.5;
    // Query: Gender = Male ∧ Income = >50K on the generalized table.
    let schema = d.generalized.schema();
    let male = schema
        .attribute(adult::attr::GENDER)
        .dictionary()
        .code("Male")
        .expect("gender survives generalization un-merged");
    let high = schema
        .attribute(adult::attr::INCOME)
        .dictionary()
        .code(">50K")
        .unwrap();
    let query = CountQuery::new(vec![(adult::attr::GENDER, male)], adult::attr::INCOME, high)
        .expect("valid count query");
    let truth = query.answer(&d.generalized) as f64;
    assert!(truth > 500.0, "need a large support for this test");
    let mut rng = StdRng::seed_from_u64(17);
    let runs = 40;
    let mut mean = 0.0;
    for _ in 0..runs {
        let out = sps(&mut rng, &d.generalized, &d.groups, SpsConfig { p, params });
        let view = GroupedView::from_table(&out.table, d.groups.spec());
        mean += view.estimate(&query, p) / runs as f64;
    }
    assert!(
        relative_error(mean, truth) < 0.05,
        "mean estimate {mean} vs truth {truth}"
    );
}

#[test]
fn scan_and_grouped_estimates_agree_on_up_publication() {
    let d = fixture();
    let mut rng = StdRng::seed_from_u64(5);
    let spec = SaSpec::new(&d.generalized, adult::attr::INCOME);
    let published = uniform_perturb(&mut rng, &d.generalized, &spec, 0.4);
    let view = GroupedView::from_table(&published, d.groups.spec());
    let schema = d.generalized.schema();
    for edu_code in 0..schema.attribute(0).domain_size() as u32 {
        let q = CountQuery::new(vec![(0, edu_code)], adult::attr::INCOME, 1)
            .expect("valid count query");
        let scan = estimate_by_scan(&published, &q, 0.4);
        let grouped = view.estimate(&q, 0.4);
        assert!(
            (scan - grouped).abs() < 1e-9,
            "strategies disagree on edu {edu_code}: {scan} vs {grouped}"
        );
    }
}

#[test]
fn degenerate_small_table_passes_through_sps_unsampled() {
    // A table small enough that every group is already private: SPS must
    // behave exactly like UP (no sampling).
    let t = adult::generate(AdultConfig {
        rows: 2_800,
        ..AdultConfig::default()
    });
    let spec = SaSpec::new(&t, adult::attr::INCOME);
    let groups = PersonalGroups::build(&t, spec);
    // Tiny groups (~1 record each): sg at f = 1 and p = 0.1 is well above 1.
    let params = PrivacyParams::new(0.1, 0.9);
    let mut rng = StdRng::seed_from_u64(31);
    let out = sps(&mut rng, &t, &groups, SpsConfig { p: 0.1, params });
    let report = check_groups(&groups, 0.1, params);
    if report.is_private() {
        assert_eq!(out.stats.groups_sampled, 0);
        assert_eq!(out.stats.output_records, t.rows() as u64);
    } else {
        assert!(out.stats.groups_sampled > 0);
    }
}
