//! Benches for opening a release, the work `rpctl serve` does before its
//! first `HELLO`:
//!
//! * `open/serve` — `QueryEngine::open` over a saved CENSUS artifact held
//!   in memory: what `rpctl serve` runs. Every header, schema and record
//!   row is checked as `open/load` checks it, but each row only adds one
//!   to its personal group's SA histogram, and no table is built;
//! * `open/load` — `Publication::load` over the same bytes (every record
//!   row parsed into the table's columns, a row that repeats the row
//!   before it copied without a parse);
//! * `open/scan` — the same bytes through `BufRead::read_until`, line by
//!   line, with no parse: the I/O floor under `open/load`. CI gates the
//!   same-run ratio `open/load / open/scan`, which does not depend on the
//!   host's speed;
//! * `open/engine_build` — `QueryEngine::new` over the loaded release
//!   (personal-group keys, SA histograms and the key bitmaps), which
//!   `open/serve` folds into its one pass.

use std::io::BufRead;

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
    group.bench_function("scan", |b| {
        let mut line = Vec::new();
        b.iter(|| {
            let mut reader = &bytes[..];
            let mut lines = 0usize;
            loop {
                line.clear();
                match reader.read_until(b'\n', &mut line).expect("in-memory read") {
                    0 => break lines,
                    _ => lines += 1,
                }
            }
        });
    });
    group.bench_function("engine_build", |b| {
        b.iter(|| QueryEngine::new(&publication));
    });
    group.finish();
}

criterion_group!(benches, bench_open);
criterion_main!(benches);
