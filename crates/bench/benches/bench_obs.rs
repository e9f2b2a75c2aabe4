//! Benches for the observability core: the per-event costs the serving
//! stack pays when instrumented, and the scrape-side rendering cost.
//!
//! * `obs/counter_inc` — one relaxed atomic counter increment through
//!   the enable switch, the cost of every `obs.inc(&obs.counters.x)` site;
//! * `obs/span` — open + drop one always-on span (two clock reads and a
//!   histogram record);
//! * `obs/histogram_record` — one log₂-bucketed record (bucket index,
//!   three relaxed atomics);
//! * `obs/histogram_quantile` — snapshot a populated histogram and
//!   derive p50/p90/p99 from its buckets;
//! * `obs/metrics_render` — render the full registry as one canonical
//!   rp/5 `metrics` response line (the scrape path).

use criterion::{criterion_group, criterion_main, Criterion};
use rp_engine::protocol::WireHistogram;
use rp_engine::{Registry, Response};

/// A local registry pre-populated so quantile/render paths see realistic
/// bucket occupancy (never the process-global one: benches must not
/// perturb other targets' metrics).
fn populated_registry() -> Registry {
    let registry = Registry::new();
    for i in 0..4096u64 {
        registry.record(&registry.histograms.wal_sync, i * 131 + 17);
        registry.record(&registry.histograms.serve_request, i * 7 + 3);
    }
    for _ in 0..1000 {
        registry.inc(&registry.counters.catalog_reload);
    }
    registry
}

/// The scrape path: registry contents to one canonical response line.
fn render_metrics(registry: &Registry) -> String {
    let response = Response::Metrics {
        counters: registry
            .counter_values()
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
        histograms: registry
            .histogram_summaries()
            .into_iter()
            .map(|(name, s)| WireHistogram {
                name: name.to_string(),
                count: s.count,
                p50: s.p50,
                p90: s.p90,
                p99: s.p99,
                max: s.max,
                mean: if s.count == 0 {
                    0.0
                } else {
                    s.sum as f64 / s.count as f64
                },
            })
            .collect(),
    };
    response.encode()
}

fn bench_obs(c: &mut Criterion) {
    let registry = populated_registry();

    let mut group = c.benchmark_group("obs");
    group.bench_function("counter_inc", |b| {
        b.iter(|| registry.inc(&registry.counters.stream_republish));
    });
    group.bench_function("span", |b| {
        b.iter(|| {
            let span = registry.span(&registry.histograms.wal_sync);
            drop(span);
        });
    });
    group.bench_function("histogram_record", |b| {
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            registry.record(&registry.histograms.serve_request, v >> 40);
        });
    });
    group.bench_function("histogram_quantile", |b| {
        b.iter(|| {
            let summaries = registry.histogram_summaries();
            let wal = summaries
                .iter()
                .find(|(name, _)| *name == "wal.sync")
                .expect("wal.sync is a registered histogram");
            assert!(wal.1.p50 <= wal.1.p99, "quantiles are monotone");
            (wal.1.p50, wal.1.p90, wal.1.p99)
        });
    });
    group.bench_function("metrics_render", |b| {
        b.iter(|| {
            let line = render_metrics(&registry);
            assert!(line.starts_with("metrics "), "canonical prefix");
            line
        });
    });
    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
