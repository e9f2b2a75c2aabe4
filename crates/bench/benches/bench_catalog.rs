//! Benches for the multi-tenant catalog: what routing a request through
//! a two-tenant [`CatalogSession`] costs. Single-release serving runs the
//! same per-line path through a one-release catalog; `serve/handle_line`
//! measures that.
//!
//! * `catalog/handle_line_default_route` — one full per-line path
//!   (parse, route, dispatch) through a two-tenant catalog session's
//!   default route, the epoch-validated fast path;
//! * `catalog/handle_line_qualified` — the one-shot `count@beta` form:
//!   qualifier parsing plus a checkout of the non-current tenant;
//! * `catalog/use_switch` — rebinding the session between two tenants
//!   with `use`, the sticky counterpart of the qualifier.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rp_engine::{Catalog, CatalogSession, Publisher, QueryService, ServiceConfig, SessionStats};
use rp_table::{Attribute, Schema, TableBuilder};

/// One 6-group fixture release (groups stay UP-degenerate, so answers are
/// cache-friendly and deterministic).
fn fixture_service(rows: u32, seed: u64) -> QueryService {
    let schema = Schema::new(vec![
        Attribute::new("Job", ["eng", "doc", "law"]),
        Attribute::new("City", ["rome", "oslo"]),
        Attribute::new("Disease", ["flu", "none"]),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..rows {
        b.push_codes(&[i % 3, (i / 3) % 2, (i / 6) % 2]).unwrap();
    }
    let publication = Publisher::new(b.build())
        .sa(2)
        .seed(seed)
        .publish()
        .expect("fixture publishes");
    QueryService::from_publication(
        &publication,
        ServiceConfig {
            cache_entries: 1024,
        },
    )
}

fn fixture_catalog() -> Catalog {
    let catalog = Catalog::new("alpha").expect("valid default name");
    catalog
        .open("alpha", Arc::new(fixture_service(1800, 41)))
        .expect("open alpha");
    catalog
        .open("beta", Arc::new(fixture_service(1200, 43)))
        .expect("open beta");
    catalog
}

fn bench_catalog(c: &mut Criterion) {
    const LINE: &str = "count Job=eng Disease=flu";

    let catalog = fixture_catalog();

    let mut group = c.benchmark_group("catalog");
    group.bench_function("handle_line_default_route", |b| {
        let mut routing = CatalogSession::new(&catalog);
        let mut session = SessionStats::default();
        b.iter(|| {
            routing
                .handle_line(LINE, &mut session)
                .expect("non-blank line answers")
        });
    });
    group.bench_function("handle_line_qualified", |b| {
        let mut routing = CatalogSession::new(&catalog);
        let mut session = SessionStats::default();
        b.iter(|| {
            routing
                .handle_line("count@beta Job=eng Disease=flu", &mut session)
                .expect("non-blank line answers")
        });
    });
    group.bench_function("use_switch", |b| {
        let mut routing = CatalogSession::new(&catalog);
        let mut session = SessionStats::default();
        let mut to_beta = true;
        b.iter(|| {
            let line = if to_beta { "use beta" } else { "use alpha" };
            to_beta = !to_beta;
            routing
                .handle_line(line, &mut session)
                .expect("non-blank line answers")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_catalog);
criterion_main!(benches);
