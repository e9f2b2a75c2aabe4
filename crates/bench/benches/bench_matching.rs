//! Benches for the vectorized matching kernel: bitmap AND-matching vs the
//! row-at-a-time scan for Section-6 count queries on a published table
//! (plus the one-off cost of building the bitmap index).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_bench::adult_fixture;
use rp_core::groups::SaSpec;
use rp_core::sps::uniform_perturb;
use rp_datagen::adult;
use rp_table::{BitmapIndex, CountQuery};

fn bench_matching(c: &mut Criterion) {
    let dataset = adult_fixture();
    let mut rng = StdRng::seed_from_u64(7);
    let spec = SaSpec::new(&dataset.generalized, adult::attr::INCOME);
    let published = uniform_perturb(&mut rng, &dataset.generalized, &spec, 0.5);
    let index = BitmapIndex::build(&published);
    let queries = [
        CountQuery::new(vec![(0, 0)], adult::attr::INCOME, 1).expect("valid count query"),
        CountQuery::new(vec![(0, 1), (1, 0)], adult::attr::INCOME, 0).expect("valid count query"),
        CountQuery::new(vec![(2, 0), (3, 1)], adult::attr::INCOME, 1).expect("valid count query"),
    ];
    let mut group = c.benchmark_group("matching");
    group.bench_function("row_scan", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| q.answer_with_support(&published))
                .collect::<Vec<_>>()
        });
    });
    group.bench_function("bitmap", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| q.answer_with_support_indexed(&index))
                .collect::<Vec<_>>()
        });
    });
    group.bench_function("bitmap_build", |b| {
        b.iter(|| BitmapIndex::build(&published));
    });
    group.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
