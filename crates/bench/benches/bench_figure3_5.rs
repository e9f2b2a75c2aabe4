//! Figures 3/5 regeneration bench: the UP-vs-SPS relative-error protocol
//! (pool generation, histogram-level publication, per-query answering)
//! at reduced pool/run counts.

use criterion::{criterion_group, criterion_main, Criterion};
use rp_bench::{adult_fixture, census_fixture};
use rp_experiments::error::{self, ErrorProtocol};
use rp_experiments::violation::SweepAxis;

fn protocol() -> ErrorProtocol {
    ErrorProtocol {
        pool_size: 300,
        runs: 2,
        seed: 1,
    }
}

fn bench(c: &mut Criterion) {
    let adult = adult_fixture();
    let census = census_fixture();
    let mut group = c.benchmark_group("figure3_5");
    group.sample_size(10);
    group.bench_function("figure3_adult_default_point", |b| {
        b.iter(|| error::sweep(&adult, SweepAxis::P, &[0.5], protocol()));
    });
    group.bench_function("figure5_census_default_point", |b| {
        b.iter(|| error::sweep(&census, SweepAxis::P, &[0.5], protocol()));
    });
    group.bench_function("pool_generation_adult", |b| {
        b.iter(|| error::build_pool(&adult, protocol()));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
