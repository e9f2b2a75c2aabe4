//! Component microbenches: throughput of the primitives the experiments
//! are built from (perturbation, MLE/EM reconstruction, grouping, χ² test,
//! query answering).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_bench::adult_fixture;
use rp_core::em::{em_reconstruct, EmOptions};
use rp_core::estimate::GroupedView;
use rp_core::groups::{PersonalGroups, SaSpec};
use rp_core::mle::reconstruct_histogram;
use rp_core::perturb::UniformPerturbation;
use rp_core::sps::up_histograms;
use rp_datagen::adult::{self, AdultConfig};
use rp_stats::chi2::binned_chi2_test;
use rp_table::{group_by_hash, group_by_sort, group_histograms, CountQuery};

fn bench_perturbation(c: &mut Criterion) {
    let mut group = c.benchmark_group("perturbation");
    for rows in [10_000usize, 45_222] {
        let table = adult::generate(AdultConfig {
            rows,
            ..AdultConfig::default()
        });
        let op = UniformPerturbation::new(0.5, 2);
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(
            BenchmarkId::new("record_level", rows),
            &table,
            |b, table| {
                let mut rng = StdRng::seed_from_u64(1);
                b.iter(|| op.perturb_table(&mut rng, table, adult::attr::INCOME));
            },
        );
        let hist = table.histogram(adult::attr::INCOME).unwrap();
        group.bench_with_input(
            BenchmarkId::new("histogram_level", rows),
            &hist,
            |b, hist| {
                let mut rng = StdRng::seed_from_u64(1);
                b.iter(|| op.perturb_histogram(&mut rng, hist));
            },
        );
    }
    group.finish();
}

fn bench_reconstruction(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruction");
    let hist: Vec<u64> = (0..50).map(|i| 100 + i * 7).collect();
    group.bench_function("mle_m50", |b| {
        b.iter(|| reconstruct_histogram(&hist, 0.5));
    });
    group.bench_function("em_m50", |b| {
        b.iter(|| em_reconstruct(&hist, 0.5, EmOptions::default()));
    });
    group.finish();
}

fn bench_grouping(c: &mut Criterion) {
    let table = adult::generate(AdultConfig {
        rows: 45_222,
        ..AdultConfig::default()
    });
    let mut group = c.benchmark_group("grouping");
    group.sample_size(20);
    group.throughput(Throughput::Elements(table.rows() as u64));
    group.bench_function("personal_groups_sorted", |b| {
        b.iter(|| {
            let spec = SaSpec::new(&table, adult::attr::INCOME);
            PersonalGroups::build(&table, spec)
        });
    });
    group.bench_function("group_by_sort", |b| {
        b.iter(|| group_by_sort(&table, &[0, 1, 2, 3]));
    });
    group.bench_function("group_by_hash", |b| {
        b.iter(|| group_by_hash(&table, &[0, 1, 2, 3]));
    });
    group.bench_function("group_histograms", |b| {
        b.iter(|| group_histograms(&table, &[0, 1, 2, 3], adult::attr::INCOME));
    });
    group.finish();
}

fn bench_chi2(c: &mut Criterion) {
    let a: Vec<u64> = (0..50).map(|i| 1000 + i * 13).collect();
    let b_hist: Vec<u64> = (0..50).map(|i| 900 + i * 17).collect();
    c.bench_function("chi2/binned_test_m50", |b| {
        b.iter(|| binned_chi2_test(&a, &b_hist, 0.05));
    });
}

fn bench_query_answering(c: &mut Criterion) {
    let dataset = adult_fixture();
    let mut rng = StdRng::seed_from_u64(2);
    let view = GroupedView::from_histograms(
        &dataset.groups,
        up_histograms(&mut rng, &dataset.groups, 0.5),
    );
    let query = CountQuery::new(vec![(0, 0)], adult::attr::INCOME, 1).expect("valid count query");
    let mut group = c.benchmark_group("query_answering");
    group.bench_function("grouped_view", |b| {
        b.iter(|| view.estimate(&query, 0.5));
    });
    // Two NA terms: no marginal covers it, so this times the word matcher.
    let two_terms =
        CountQuery::new(vec![(0, 1), (1, 0)], adult::attr::INCOME, 0).expect("valid count query");
    group.bench_function("support_and_observed_2term", |b| {
        b.iter(|| view.support_and_observed(&two_terms));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_perturbation,
    bench_reconstruction,
    bench_grouping,
    bench_chi2,
    bench_query_answering
);
criterion_main!(benches);
