//! Integration tests for the extension modules: alternatives, audit,
//! incremental publication, variance/CI, Anatomy, the DP histogram and the
//! CSV round trip through the whole pipeline.

use std::collections::BTreeMap;
use std::io::Cursor;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::audit::audit;
use rp_core::groups::{PersonalGroups, SaSpec};
use rp_core::incremental::{GroupStatus, LiveGroup};
use rp_core::perturb::UniformPerturbation;
use rp_core::privacy::{check_groups, PrivacyParams};
use rp_core::sps::{sps, SpsConfig};
use rp_core::variance::{confidence_interval, reconstruction_se};
use rp_dp::histogram::DpHistogram;
use rp_experiments::config::PreparedDataset;
use rp_table::{read_csv, write_csv, CountQuery};

#[test]
fn csv_round_trip_through_publication_pipeline() {
    // Generate → publish with SPS → write CSV → read back → the published
    // table survives intact and stays interpretable.
    let d = PreparedDataset::adult_small(8_000);
    let params = PrivacyParams::new(0.3, 0.3);
    let mut rng = StdRng::seed_from_u64(1);
    let out = sps(
        &mut rng,
        &d.generalized,
        &d.groups,
        SpsConfig { p: 0.5, params },
    );
    let mut buffer = Vec::new();
    write_csv(&out.table, &mut buffer).unwrap();
    let back = read_csv(Cursor::new(&buffer)).unwrap();
    assert_eq!(back.rows(), out.table.rows());
    assert_eq!(back.schema().arity(), 5);
    // Same value multiset per column (dictionaries may re-order codes).
    for attr in 0..5 {
        let mut a: Vec<&str> = (0..out.table.rows())
            .map(|r| out.table.decode_row(r).unwrap()[attr])
            .collect();
        let mut b: Vec<&str> = (0..back.rows())
            .map(|r| back.decode_row(r).unwrap()[attr])
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "column {attr} changed across the round trip");
    }
}

#[test]
fn audit_agrees_with_check_groups() {
    let d = PreparedDataset::adult_small(15_000);
    let params = PrivacyParams::new(0.3, 0.3);
    let a = audit(&d.groups, 0.5, params, 8);
    let report = check_groups(&d.groups, 0.5, params);
    assert_eq!(a.report, report);
    assert!(a.offenders.len() <= 8);
    // Offenders are genuinely the worst by excess factor.
    for w in a.offenders.windows(2) {
        assert!(w[0].excess_factor >= w[1].excess_factor);
    }
    assert!(a.expected_trial_fraction > 0.0 && a.expected_trial_fraction <= 1.0);
}

#[test]
fn incremental_publisher_matches_batch_semantics() {
    // Feeding a table record by record produces the same raw group
    // structure as the batch grouping.
    let d = PreparedDataset::adult_small(6_000);
    let params = PrivacyParams::new(0.3, 0.3);
    let spec = SaSpec::new(&d.generalized, d.sa);
    let op = UniformPerturbation::new(0.5, spec.m());
    let mut live: BTreeMap<Vec<u32>, LiveGroup> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(2);
    for row in 0..d.generalized.rows() {
        let key: Vec<u32> = spec
            .na()
            .iter()
            .map(|&a| d.generalized.code(row, a))
            .collect();
        let _ = live
            .entry(key.clone())
            .or_insert_with(|| LiveGroup::new(key, spec.m()))
            .insert(&mut rng, &op, params, d.generalized.code(row, spec.sa()));
    }
    let batch = PersonalGroups::build(&d.generalized, spec);
    assert_eq!(live.len(), batch.len());
    for g in batch.groups() {
        let group = live.get(g.key).expect("group exists");
        assert_eq!(group.raw_hist, g.sa_hist, "raw histogram mismatch");
    }
    // Flagged status must agree with the batch report.
    let report = check_groups(&batch, 0.5, params);
    for (g, verdict) in batch.groups().zip(&report.verdicts) {
        let group = &live[g.key];
        let expect = if verdict.violates {
            GroupStatus::NeedsResampling
        } else {
            GroupStatus::Compliant
        };
        assert_eq!(group.status, expect, "group {:?}", g.key);
    }
}

#[test]
fn confidence_intervals_scale_with_group_size() {
    let d = PreparedDataset::adult_small(15_000);
    // The biggest and smallest non-trivial groups.
    let mut sizes: Vec<(usize, u64)> = d
        .groups
        .groups()
        .enumerate()
        .map(|(i, g)| (i, g.len() as u64))
        .collect();
    sizes.sort_by_key(|&(_, n)| n);
    let (small_n, big_n) = (sizes[0].1.max(1), sizes.last().unwrap().1);
    let se_small = reconstruction_se(0.5, small_n, 0.5, 2);
    let se_big = reconstruction_se(0.5, big_n, 0.5, 2);
    assert!(se_small > se_big);
    let ci = confidence_interval(0.5, big_n, 0.5, 2, 0.95);
    assert!(ci.half_width() < 0.2, "big-group CI should be tight");
}

#[test]
fn dp_histogram_and_reconstruction_answer_the_same_query() {
    // Cross-paradigm sanity: both publishing paths estimate the same
    // large-support count to within a few percent.
    let d = PreparedDataset::adult_small(15_000);
    let schema = d.generalized.schema();
    let male = schema.attribute(3).dictionary().code("Male").unwrap();
    let high = schema.attribute(4).dictionary().code(">50K").unwrap();
    let query = CountQuery::new(vec![(3, male)], 4, high).expect("valid count query");
    let truth = query.answer(&d.generalized) as f64;
    let mut rng = StdRng::seed_from_u64(3);
    // DP histogram path.
    let release = DpHistogram::release(&mut rng, &d.generalized, &[0, 1, 2, 3, 4], 1.0);
    let dp_answer = release.answer(&query);
    assert!(
        (dp_answer - truth).abs() / truth < 0.05,
        "dp {dp_answer} vs {truth}"
    );
    // Data-perturbation path (UP + MLE), averaged over a few runs.
    let mut mean = 0.0;
    let runs = 30;
    for _ in 0..runs {
        let view = rp_core::estimate::GroupedView::assemble(
            d.groups.spec(),
            &rp_core::sps::up_histograms(&mut rng, &d.groups, 0.5),
        );
        mean += view.estimate(&query, 0.5) / runs as f64;
    }
    assert!(
        (mean - truth).abs() / truth < 0.05,
        "recon {mean} vs {truth}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Anatomy invariants across random SA compositions: buckets partition
    /// the records, satisfy distinct l-diversity, and the SA marginal
    /// estimator is exact.
    #[test]
    fn anatomy_invariants(
        seed in any::<u64>(),
        l in 2usize..4,
        bulk in 60u64..200
    ) {
        // Compose counts that always satisfy strict l-eligibility:
        // four SA values with counts within a factor of two of each other.
        let mut rng = StdRng::seed_from_u64(seed);
        let counts: Vec<u64> = (0..4)
            .map(|_| bulk + rand::Rng::gen_range(&mut rng, 0..bulk / 2))
            .collect();
        let total: u64 = counts.iter().sum();
        prop_assume!(counts.iter().all(|&c| c * l as u64 <= total));
        let schema = rp_table::Schema::new(vec![
            rp_table::Attribute::with_anonymous_domain("G", 3),
            rp_table::Attribute::with_anonymous_domain("SA", 4),
        ]);
        let mut b = rp_table::TableBuilder::new(schema);
        for (code, &c) in counts.iter().enumerate() {
            for i in 0..c {
                b.push_codes(&[(i % 3) as u32, code as u32]).unwrap();
            }
        }
        let t = b.build();
        let a = rp_anonymize::AnatomizedTable::build(&t, 1, l).unwrap();
        prop_assert!(a.is_l_diverse());
        let bucket_total: u64 = (0..a.bucket_count())
            .map(|bk| a.bucket_histogram(bk as u32).iter().sum::<u64>())
            .sum();
        prop_assert_eq!(bucket_total, total);
        for sa in 0..4u32 {
            let q = CountQuery::new(vec![], 1, sa).expect("valid count query");
            let truth = q.answer(&t) as f64;
            prop_assert!((a.estimate(&t, &q) - truth).abs() < 1e-6);
        }
    }
}
