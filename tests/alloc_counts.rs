//! Deterministic work counts on the serving path: heap allocations per
//! request line, counted by a global allocator that forwards to the
//! system allocator.
//!
//! Over the reduced CENSUS fixture (`rp_bench::census_fixture`), a
//! steady-state `count` line and `batch` lines of 1 and of 32 queries are
//! answered through `CatalogSession::handle_line` and encoded into a
//! reused buffer, as a serving session does. A `batch` line resolves its
//! queries into the session's reused term buffer and answers into one
//! list, so its allocation count must not depend on its query count.
//! Each line is measured as the fewest allocations over several runs, so
//! the sampled instrumentation cannot make the count vary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_bench::census_fixture;
use rp_repro::engine::protocol::is_token;
use rp_repro::engine::{
    Catalog, CatalogSession, Publication, Publisher, QueryService, Request, ServiceConfig,
    SessionStats, WireQuery,
};

/// Allocations (and reallocations) made through [`Counting`] so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting each allocation and reallocation.
struct Counting;

// rp-analyze: allow(safety, "a counting global allocator must implement the unsafe GlobalAlloc trait")
// SAFETY: every method forwards its arguments unchanged to `System`, so
// the memory handed out carries `System`'s guarantees; the counter is a
// relaxed atomic that touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards to `System::alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwards to `System::alloc_zeroed` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: forwards to `System::dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards to `System::realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `n` count queries over the published CENSUS fixture: each pins one to
/// three NA columns to the values of a random published row, plus that
/// row's SA value.
fn census_queries(publication: &Publication, sa: usize, n: usize) -> Vec<WireQuery> {
    let table = publication.table();
    let schema = table.schema();
    let na: Vec<usize> = (0..schema.arity()).filter(|&a| a != sa).collect();
    let mut rng = StdRng::seed_from_u64(26);
    let mut queries = Vec::new();
    while queries.len() < n {
        let row = rng.gen_range(0..table.rows());
        let dims = rng.gen_range(1..=3);
        let mut attrs: Vec<usize> = Vec::new();
        while attrs.len() < dims {
            let attr = na[rng.gen_range(0..na.len())];
            if !attrs.contains(&attr) {
                attrs.push(attr);
            }
        }
        attrs.push(sa);
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
    queries
}

#[test]
fn batch_lines_allocate_the_same_whatever_their_query_count() {
    let dataset = census_fixture();
    let publication = Publisher::new(dataset.generalized.clone())
        .sa(dataset.sa)
        .seed(7)
        .publish()
        .expect("generalized CENSUS publishes");
    let queries = census_queries(&publication, dataset.sa, 32);
    let service = QueryService::from_publication(&publication, ServiceConfig::default());
    let catalog = Catalog::single(Arc::new(service));
    let mut session = CatalogSession::new(&catalog);
    let mut stats = SessionStats::default();
    let mut text = String::new();
    let mut allocations = |line: &str| {
        (0..16)
            .map(|_| {
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                let response = session.handle_line(line, &mut stats).expect("not blank");
                text.clear();
                response.encode_into(&mut text);
                assert!(!response.is_error(), "`{line}` -> {text}");
                drop(response);
                ALLOCATIONS.load(Ordering::Relaxed) - before
            })
            .min()
            .unwrap_or_default()
    };
    let count = allocations(&Request::Query(queries[0].clone()).encode());
    let batch1 = allocations(&Request::Batch(queries[..1].to_vec()).encode());
    let batch32 = allocations(&Request::Batch(queries.clone()).encode());
    println!("allocations per line: count {count}, batch of 1 {batch1}, batch of 32 {batch32}");
    assert_eq!(
        batch1, batch32,
        "a batch line allocates per query: 1 query {batch1}, 32 queries {batch32}"
    );
}
