//! Benches for the streaming subsystem: the durable insert path, WAL
//! replay, snapshot serialization and the live query view.
//!
//! * `stream/insert_wal` — one record through the full durable path:
//!   WAL append + per-group RNG perturbation + live-group update
//!   (buffered log; the sync cost is `flush`'s, measured separately);
//! * `stream/flush` — the durability point: WAL sync to stable storage;
//! * `stream/commit_batch{1,8,64}` — one *durable* insert under group
//!   commit at that batch size: the batch's single fsync amortized over
//!   its inserts (batch 1 is sync-per-insert, the floor);
//! * `stream/replay_1k` — rebuilding stream state from a 1000-event WAL
//!   (clean start), the restart-time cost;
//! * `stream/snapshot_1k` — materializing the v2 artifact (base + live
//!   rows + live section) for a 1k-record stream;
//! * `stream/live_query` — one uncached count query answered against
//!   base + live view through a streaming `QueryService`.

use std::path::PathBuf;

use criterion::{criterion_group, criterion_main, Criterion};
use rp_engine::{
    Publication, Publisher, QueryService, Request, Response, ServiceConfig, SessionStats,
    StreamConfig, StreamPublisher, WireQuery,
};
use rp_table::{Attribute, Schema, TableBuilder};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rp-bench-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// A small base release: 12 groups over (Job, City), SA = Disease.
fn base_publication() -> Publication {
    let schema = Schema::new(vec![
        Attribute::new("Job", ["eng", "doc", "law"]),
        Attribute::new("City", ["rome", "oslo", "lima", "kiev"]),
        Attribute::new("Disease", ["flu", "hiv", "none"]),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..1200u32 {
        b.push_codes(&[i % 3, (i / 3) % 4, (i / 12) % 3]).unwrap();
    }
    Publisher::new(b.build()).sa(2).seed(5).publish().unwrap()
}

/// The record cycle the insert benches draw from.
fn record(i: u32) -> Vec<u32> {
    vec![i % 3, (i / 3) % 4, (i * 7 / 5) % 3]
}

/// A stream pre-loaded with `n` inserts on a fresh WAL.
fn loaded_stream(name: &str, n: u32) -> StreamPublisher {
    let mut stream =
        StreamPublisher::open(base_publication(), &tmp(name), StreamConfig::default()).unwrap();
    for i in 0..n {
        stream.insert_codes(&record(i)).unwrap();
    }
    stream
}

fn bench_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream");

    group.bench_function("insert_wal", |b| {
        let mut stream = loaded_stream("insert.rpwal", 0);
        let mut i = 0u32;
        b.iter(|| {
            let outcome = stream.insert_codes(&record(i)).unwrap();
            i += 1;
            outcome.group_size
        });
    });

    group.bench_function("flush", |b| {
        let mut stream = loaded_stream("sync.rpwal", 64);
        let mut i = 64u32;
        b.iter(|| {
            // One buffered insert then the durability point, so the
            // number tracks "cost to make one acknowledged record
            // durable" rather than an empty sync.
            stream.insert_codes(&record(i)).unwrap();
            i += 1;
            stream.flush().unwrap()
        });
    });

    // Group commit: each iteration pushes one full batch through the
    // durable path (appends + exactly one fsync), so the per-iteration
    // time divided by the batch size is the amortized per-insert cost.
    for batch in [1u64, 8, 64] {
        group.bench_function(format!("commit_batch{batch}"), |b| {
            let mut stream = StreamPublisher::open(
                base_publication(),
                &tmp(&format!("commit-{batch}.rpwal")),
                StreamConfig {
                    commit_batch: batch,
                },
            )
            .unwrap();
            let mut i = 0u32;
            b.iter(|| {
                for _ in 0..batch {
                    stream.insert_codes(&record(i)).unwrap();
                    i += 1;
                }
                stream.durable_seq()
            });
        });
    }

    {
        let wal = tmp("replay-1k.rpwal");
        let mut live =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        for i in 0..1000u32 {
            live.insert_codes(&record(i)).unwrap();
        }
        live.flush().unwrap();
        drop(live);
        let base = base_publication();
        group.bench_function("replay_1k", |b| {
            b.iter(|| {
                let stream =
                    StreamPublisher::replay(base.clone(), &wal, StreamConfig::default()).unwrap();
                assert_eq!(stream.inserted(), 1000);
                stream.wal_seq()
            });
        });
    }

    group.bench_function("snapshot_1k", |b| {
        let stream = loaded_stream("snapshot.rpwal", 1000);
        b.iter(|| {
            let snapshot = stream.snapshot();
            assert_eq!(snapshot.live().unwrap().inserted, 1000);
            snapshot.table().rows()
        });
    });

    group.bench_function("live_query", |b| {
        let stream = loaded_stream("query.rpwal", 1000);
        // Cache off: measure the computed base + live merge, not a hit.
        let service = QueryService::streaming(stream, None, ServiceConfig { cache_entries: 0 });
        let request = Request::Query(WireQuery::new(vec![("Job", "eng"), ("Disease", "flu")]));
        let mut session = SessionStats::default();
        b.iter(|| {
            let r = service.handle(&request, &mut session);
            assert!(matches!(r, Response::Answer(_)), "{}", r.encode());
            r
        });
    });

    group.finish();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
