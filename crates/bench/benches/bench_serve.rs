//! Benches for the serving stack: requests/sec through one
//! `QueryService`, the layer every transport (stdio, TCP) runs over.
//!
//! * `serve/query_cache_on` — the steady-state hit path: the same query
//!   repeated against a warm answer cache;
//! * `serve/query_cache_off` — the same request stream with the cache
//!   disabled, i.e. a full bitmap-match + reconstruction per request (CI
//!   gates its ratio to `query_cache_on` from the same run at 3);
//! * `serve/query_distinct_cache_on` — 16 distinct queries cycling
//!   within capacity (hit path with key variety);
//! * `serve/batch8` — an 8-query batch line, answered query by query
//!   like eight uncached singles;
//! * `serve/handle_line` — the full per-line path every server runs:
//!   `CatalogSession::handle_line` over a one-release catalog (what
//!   `rpctl serve --publication` hosts) — parsing, routing and stage
//!   timing — plus response encoding, cache on (observability recording,
//!   the production default);
//! * `serve/handle_line_obs_off` — the same path with the metrics
//!   registry disabled; the ratio against `handle_line` is the
//!   instrumentation overhead CI guards (budget ~5%);
//! * `serve/batch32_line` — a 32-query `batch` line over the reduced
//!   CENSUS fixture through `CatalogSession::handle_line`, plus encoding
//!   its response: parse, resolve, bitmap match, estimate, encode;
//! * `serve/batch32_encode` — encoding that response alone, the
//!   float-formatting floor under `batch32_line`. CI gates the same-run
//!   ratio `batch32_line / batch32_encode`, which does not depend on the
//!   host's speed;
//! * `serve/f64_canon` — the 128 floats of that response (`est`, `f` and
//!   both `ci95` bounds of 32 answers) rendered through `canon_f64`, the
//!   writer behind every float on the wire;
//! * `serve/f64_std` — the same floats through `f64`'s `Display`, the
//!   format `canon_f64` reproduces byte for byte. CI gates the same-run
//!   ratio `f64_canon / f64_std`.

use std::fmt::Write;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_bench::{adult_fixture, census_fixture};
use rp_engine::protocol::is_token;
use rp_engine::{
    canon_f64, Catalog, CatalogSession, Publisher, QueryService, Request, Response, ServiceConfig,
    SessionStats, WireQuery,
};

/// Builds the service over the reduced published ADULT fixture.
fn service(cache_entries: usize) -> QueryService {
    let dataset = adult_fixture();
    let publication = Publisher::new(dataset.generalized.clone())
        .sa(dataset.sa)
        .seed(7)
        .publish()
        .expect("generalized ADULT publishes");
    QueryService::from_publication(&publication, ServiceConfig { cache_entries })
}

/// Wire queries built from the served schema: one NA condition from
/// `attr` plus an SA condition, all by name as a client would send them.
fn wire_queries(service: &QueryService, count: usize) -> Vec<WireQuery> {
    let schema = service.engine().schema();
    let sa = service.engine().sa();
    let sa_name = schema.attribute(sa).name().to_string();
    let sa_dict = schema.attribute(sa).dictionary();
    // The line protocol frames conditions as whitespace-separated tokens,
    // so generalized labels containing spaces cannot ride the wire; skip
    // them (clients query such releases by the remaining token values).
    let is_token = rp_engine::protocol::is_token;
    let na_conditions: Vec<(&str, &str)> = (0..schema.arity())
        .filter(|&attr| attr != sa)
        .flat_map(|attr| {
            let attribute = schema.attribute(attr);
            attribute
                .dictionary()
                .values()
                .iter()
                .map(move |value| (attribute.name(), value.as_str()))
        })
        .filter(|&(_, v)| is_token(v))
        .collect();
    let sa_values: Vec<&str> = sa_dict
        .values()
        .iter()
        .map(String::as_str)
        .filter(|v| is_token(v))
        .collect();
    assert!(
        !na_conditions.is_empty() && !sa_values.is_empty(),
        "fixture has token-safe values"
    );
    (0..count)
        .map(|i| {
            let (col, value) = na_conditions[i % na_conditions.len()];
            let sa_value = sa_values[i % sa_values.len()];
            WireQuery::new(vec![(col, value), (&sa_name, sa_value)])
        })
        .collect()
}

/// A one-release catalog over the reduced published CENSUS fixture and a
/// 32-query `batch` line over it: each query pins one to three NA columns
/// to the values of a random published row, plus that row's SA value.
fn census_batch32() -> (Catalog, String) {
    let dataset = census_fixture();
    let publication = Publisher::new(dataset.generalized.clone())
        .sa(dataset.sa)
        .seed(7)
        .publish()
        .expect("generalized CENSUS publishes");
    let table = publication.table();
    let schema = table.schema();
    let mut rng = StdRng::seed_from_u64(32);
    let na: Vec<usize> = (0..schema.arity()).filter(|&a| a != dataset.sa).collect();
    let mut queries = Vec::new();
    while queries.len() < 32 {
        let row = rng.gen_range(0..table.rows());
        let dims = rng.gen_range(1..=3);
        let mut attrs: Vec<usize> = Vec::new();
        while attrs.len() < dims {
            let attr = na[rng.gen_range(0..na.len())];
            if !attrs.contains(&attr) {
                attrs.push(attr);
            }
        }
        attrs.push(dataset.sa);
        let conditions: Vec<(&str, &str)> = attrs
            .iter()
            .map(|&a| {
                let attribute = schema.attribute(a);
                let value = attribute.dictionary().values()[table.code(row, a) as usize].as_str();
                (attribute.name(), value)
            })
            .collect();
        if conditions.iter().all(|&(_, v)| is_token(v)) {
            queries.push(WireQuery::new(conditions));
        }
    }
    let service = QueryService::from_publication(&publication, ServiceConfig::default());
    (
        Catalog::single(Arc::new(service)),
        Request::Batch(queries).encode(),
    )
}

fn expect_answered(response: &Response) {
    assert!(
        matches!(response, Response::Answer(_) | Response::Batch(_)),
        "service refused a bench request: {}",
        response.encode()
    );
}

fn bench_serve(c: &mut Criterion) {
    let cached = Arc::new(service(1024));
    let uncached = service(0);
    let catalog = Catalog::single(Arc::clone(&cached));
    let queries = wire_queries(&cached, 16);
    let single = Request::Query(queries[0].clone());
    let batch = Request::Batch(queries[..8].to_vec());
    let distinct: Vec<Request> = queries.iter().map(|q| Request::Query(q.clone())).collect();
    let line = single.encode();

    let mut group = c.benchmark_group("serve");
    group.bench_function("query_cache_on", |b| {
        let mut session = SessionStats::default();
        b.iter(|| {
            let r = cached.handle(&single, &mut session);
            expect_answered(&r);
            r
        });
    });
    group.bench_function("query_cache_off", |b| {
        let mut session = SessionStats::default();
        b.iter(|| {
            let r = uncached.handle(&single, &mut session);
            expect_answered(&r);
            r
        });
    });
    group.bench_function("query_distinct_cache_on", |b| {
        let mut session = SessionStats::default();
        let mut i = 0usize;
        b.iter(|| {
            let r = cached.handle(&distinct[i % distinct.len()], &mut session);
            i += 1;
            expect_answered(&r);
            r
        });
    });
    group.bench_function("batch8", |b| {
        let mut session = SessionStats::default();
        b.iter(|| {
            let r = uncached.handle(&batch, &mut session);
            expect_answered(&r);
            r
        });
    });
    group.bench_function("handle_line", |b| {
        let mut routing = CatalogSession::new(&catalog);
        let mut session = SessionStats::default();
        b.iter(|| {
            let r = routing
                .handle_line(&line, &mut session)
                .expect("non-empty line");
            expect_answered(&r);
            r.encode()
        });
    });
    group.bench_function("handle_line_obs_off", |b| {
        let obs = rp_engine::obs::global();
        obs.set_enabled(false);
        let mut routing = CatalogSession::new(&catalog);
        let mut session = SessionStats::default();
        b.iter(|| {
            let r = routing
                .handle_line(&line, &mut session)
                .expect("non-empty line");
            expect_answered(&r);
            r.encode()
        });
        obs.set_enabled(true);
    });
    let (census, batch32) = census_batch32();
    let mut routing = CatalogSession::new(&census);
    let response = routing
        .handle_line(&batch32, &mut SessionStats::default())
        .expect("non-empty line");
    expect_answered(&response);
    group.bench_function("batch32_line", |b| {
        let mut session = SessionStats::default();
        b.iter(|| {
            let r = routing
                .handle_line(&batch32, &mut session)
                .expect("non-empty line");
            expect_answered(&r);
            r.encode()
        });
    });
    group.bench_function("batch32_encode", |b| b.iter(|| response.encode()));
    let floats: Vec<f64> = match &response {
        Response::Batch(answers) => answers
            .iter()
            .flat_map(|a| {
                let ci = a.ci.map(|(lo, hi)| [lo, hi]);
                [a.estimate, a.frequency]
                    .into_iter()
                    .chain(ci.into_iter().flatten())
            })
            .collect(),
        other => panic!("expected a batch response, got {}", other.encode()),
    };
    let mut text = String::with_capacity(floats.len() * 24);
    group.bench_function("f64_canon", |b| {
        b.iter(|| {
            text.clear();
            for &v in &floats {
                canon_f64(v).append_to(&mut text);
                text.push(' ');
            }
            text.len()
        })
    });
    group.bench_function("f64_std", |b| {
        b.iter(|| {
            text.clear();
            for &v in &floats {
                write!(text, "{v} ").expect("infallible String write");
            }
            text.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
