//! Benches for opening a release, the work `rpctl serve` does before its
//! first `HELLO`:
//!
//! * `open/serve` — `QueryEngine::open` over a saved CENSUS artifact held
//!   in memory: what `rpctl serve` runs, `open/load` then
//!   `open/engine_build`;
//! * `open/load` — `Publication::load` over the same bytes (the header
//!   and every group line checked, the groups read into the
//!   publication's two flat buffers, no table built);
//! * `open/engine_build` — `QueryEngine::new` over the loaded release
//!   (the grouped view and its key bitmaps and marginals, assembled from
//!   a borrow of the publication's groups).

use criterion::{criterion_group, criterion_main, Criterion};
use rp_bench::census_fixture;
use rp_engine::{Publication, Publisher, QueryEngine};

/// The reduced CENSUS fixture, published and saved to bytes.
fn census_artifact() -> Vec<u8> {
    let dataset = census_fixture();
    let publication = Publisher::new(dataset.generalized.clone())
        .sa(dataset.sa)
        .seed(7)
        .publish()
        .expect("generalized CENSUS publishes");
    let mut bytes = Vec::new();
    publication.save(&mut bytes).expect("in-memory save");
    bytes
}

fn bench_open(c: &mut Criterion) {
    let bytes = census_artifact();
    let publication = Publication::load(&bytes[..]).expect("artifact loads");

    let mut group = c.benchmark_group("open");
    group.bench_function("serve", |b| {
        b.iter(|| QueryEngine::open(&bytes[..]).expect("artifact opens"));
    });
    group.bench_function("load", |b| {
        b.iter(|| Publication::load(&bytes[..]).expect("artifact loads"));
    });
    group.bench_function("engine_build", |b| {
        b.iter(|| QueryEngine::new(&publication));
    });
    group.finish();
}

criterion_group!(benches, bench_open);
criterion_main!(benches);
