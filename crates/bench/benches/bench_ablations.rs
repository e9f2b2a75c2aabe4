//! Ablation benches for the design choices the workspace keeps two ways
//! of making (README, *Performance: the vectorized data path*):
//!
//! 1. sort-based vs hash-based grouping;
//! 2. closed-form MLE vs matrix-inverse MLE vs EM reconstruction;
//! 3. record-level vs histogram-level perturbation inside SPS;
//! 4. grouped-index vs full-scan query answering.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_bench::adult_fixture;
use rp_core::em::{em_reconstruct, EmOptions};
use rp_core::estimate::{estimate_by_scan, GroupedView};
use rp_core::groups::SaSpec;
use rp_core::mle::{reconstruct_histogram, reconstruct_histogram_via_inverse};
use rp_core::privacy::PrivacyParams;
use rp_core::sps::{sps, sps_groups, uniform_perturb, SpsConfig};
use rp_datagen::adult;
use rp_table::{group_by_hash, group_by_sort, CountQuery};

fn ablation_grouping(c: &mut Criterion) {
    let dataset = adult_fixture();
    let na = [0usize, 1, 2, 3];
    let mut group = c.benchmark_group("ablation_grouping");
    group.sample_size(20);
    group.bench_function("sort_based_paper", |b| {
        b.iter(|| group_by_sort(&dataset.raw, &na));
    });
    group.bench_function("hash_based", |b| {
        b.iter(|| group_by_hash(&dataset.raw, &na));
    });
    group.finish();
}

fn ablation_reconstruction(c: &mut Criterion) {
    let hist: Vec<u64> = (0..50).map(|i| 37 + i * 11).collect();
    let mut group = c.benchmark_group("ablation_reconstruction");
    group.bench_function("closed_form", |b| {
        b.iter(|| reconstruct_histogram(&hist, 0.3));
    });
    group.bench_function("matrix_inverse", |b| {
        b.iter(|| reconstruct_histogram_via_inverse(&hist, 0.3));
    });
    group.bench_function("em_iterative", |b| {
        b.iter(|| em_reconstruct(&hist, 0.3, EmOptions::default()));
    });
    group.finish();
}

fn ablation_sps_level(c: &mut Criterion) {
    let dataset = adult_fixture();
    let config = SpsConfig {
        p: 0.5,
        params: PrivacyParams::new(0.3, 0.3),
    };
    let mut group = c.benchmark_group("ablation_sps_level");
    group.sample_size(10);
    group.bench_function("record_level", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| sps(&mut rng, &dataset.generalized, &dataset.groups, config));
    });
    group.bench_function("histogram_level", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| sps_groups(&mut rng, &dataset.groups, config));
    });
    group.finish();
}

fn ablation_query_strategy(c: &mut Criterion) {
    let dataset = adult_fixture();
    let mut rng = StdRng::seed_from_u64(4);
    let spec = SaSpec::new(&dataset.generalized, adult::attr::INCOME);
    let published = uniform_perturb(&mut rng, &dataset.generalized, &spec, 0.5);
    let view = GroupedView::from_table(&published, dataset.groups.spec());
    let query = CountQuery::new(vec![(0, 0)], adult::attr::INCOME, 1).expect("valid count query");
    let mut group = c.benchmark_group("ablation_query_strategy");
    group.bench_function("full_scan", |b| {
        b.iter(|| estimate_by_scan(&published, &query, 0.5));
    });
    group.bench_function("grouped_index", |b| {
        b.iter(|| view.estimate(&query, 0.5));
    });
    group.finish();
}

fn ablation_merge_test(c: &mut Criterion) {
    let dataset = adult_fixture();
    let spec = SaSpec::new(&dataset.raw, adult::attr::INCOME);
    let mut group = c.benchmark_group("ablation_merge_test");
    group.sample_size(10);
    group.bench_function("chi2_paper", |b| {
        b.iter(|| {
            rp_core::generalize::Generalization::fit_with(
                &dataset.raw,
                &spec,
                0.05,
                rp_core::MergeTest::Chi2,
            )
        });
    });
    group.bench_function("g_test", |b| {
        b.iter(|| {
            rp_core::generalize::Generalization::fit_with(
                &dataset.raw,
                &spec,
                0.05,
                rp_core::MergeTest::GTest,
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_grouping,
    ablation_reconstruction,
    ablation_sps_level,
    ablation_query_strategy,
    ablation_merge_test
);
criterion_main!(benches);
