//! Deterministic work counts: heap allocations, and the bytes they
//! request, counted per thread by a global allocator that forwards to the
//! system allocator.
//!
//! Over the reduced CENSUS fixture (`rp_bench::census_fixture`):
//!
//! * a steady-state `count` line and `batch` lines of 1 and of 32 queries
//!   are answered through `CatalogSession::handle_line` and encoded into
//!   a reused buffer, as a serving session does. A `batch` line resolves
//!   its queries into the session's reused term buffer and answers into
//!   one list, so its allocation count must not depend on its query
//!   count;
//! * the saved release and the same release with every record row twice
//!   are opened as `rpctl serve` opens one: `Publication::load` parses the
//!   record rows in the reader's buffer, so it allocates as often for
//!   either, and `QueryEngine::new` groups the rows without a per-row key
//!   array, so over the same groups it allocates equal counts and equal
//!   bytes.
//!
//! Each figure is the fewest over several runs, so the sampled
//! instrumentation and the table crate's buffer pool cannot make it vary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_bench::census_fixture;
use rp_repro::engine::protocol::is_token;
use rp_repro::engine::{
    Catalog, CatalogSession, Publication, Publisher, QueryEngine, QueryService, Request,
    ServiceConfig, SessionStats, WireQuery,
};

thread_local! {
    /// Allocations (and reallocations) this thread made through
    /// [`Counting`] so far, and the bytes they requested.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Counts one allocation of `bytes` on the calling thread. During thread
/// teardown the counter may be gone; the allocation then goes uncounted.
fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| {
        let (n, total) = c.get();
        c.set((n + 1, total + bytes as u64));
    });
}

/// The `(allocations, bytes)` `f` makes on this thread: the fewest of
/// each over `runs` runs.
fn allocations_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (u64, u64) {
    let mut fewest = (u64::MAX, u64::MAX);
    for _ in 0..runs {
        let before = ALLOCATED.with(Cell::get);
        let value = f();
        let after = ALLOCATED.with(Cell::get);
        drop(value);
        fewest.0 = fewest.0.min(after.0 - before.0);
        fewest.1 = fewest.1.min(after.1 - before.1);
    }
    fewest
}

/// `f`'s result, run on a thread of its own: a measurement there starts
/// from an empty buffer pool, not from what earlier ones left in it.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("measurement thread"))
}

/// The system allocator, counting each allocation and reallocation.
struct Counting;

// rp-analyze: allow(safety, "a counting global allocator must implement the unsafe GlobalAlloc trait")
// SAFETY: every method forwards its arguments unchanged to `System`, so
// the memory handed out carries `System`'s guarantees; the counter is a
// const-initialized thread-local `Cell` that touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards to `System::alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: forwards to `System::alloc_zeroed` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: forwards to `System::dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards to `System::realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The generalized CENSUS fixture, published with a fixed seed.
fn census_publication() -> (Publication, usize) {
    let dataset = census_fixture();
    let publication = Publisher::new(dataset.generalized.clone())
        .sa(dataset.sa)
        .seed(7)
        .publish()
        .expect("generalized CENSUS publishes");
    (publication, dataset.sa)
}

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
    let (publication, sa) = census_publication();
    let queries = census_queries(&publication, sa, 32);
    let service = QueryService::from_publication(&publication, ServiceConfig::default());
    let catalog = Catalog::single(Arc::new(service));
    let mut session = CatalogSession::new(&catalog);
    let mut stats = SessionStats::default();
    let mut text = String::new();
    let mut allocations = |line: &str| {
        let (count, _) = allocations_of(16, || {
            let response = session.handle_line(line, &mut stats).expect("not blank");
            text.clear();
            response.encode_into(&mut text);
            assert!(!response.is_error(), "`{line}` -> {text}");
        });
        count
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

/// `saved` (a v1 artifact) with its record rows written twice and its
/// `rows` header doubled: the same personal groups, each twice as large.
fn doubled_rows(saved: &[u8]) -> Vec<u8> {
    let header = saved
        .windows(6)
        .position(|w| w == b"\nrows\t")
        .expect("a rows header")
        + 1;
    let records = header
        + saved[header..]
            .iter()
            .position(|&b| b == b'\n')
            .expect("a terminated rows header")
        + 1;
    let rows: usize = std::str::from_utf8(&saved[header + 5..records - 1])
        .unwrap()
        .parse()
        .unwrap();
    let mut out = saved[..header].to_vec();
    out.extend_from_slice(format!("rows\t{}\n", 2 * rows).as_bytes());
    out.extend_from_slice(&saved[records..]);
    out.extend_from_slice(&saved[records..]);
    out
}

#[test]
fn opening_a_release_allocates_alike_for_twice_the_rows() {
    let (publication, _) = census_publication();
    let mut saved = Vec::new();
    publication.save(&mut saved).expect("in-memory save");
    let doubled = doubled_rows(&saved);
    let loaded = Publication::load(&saved[..]).expect("artifact loads");
    let loaded_doubled = Publication::load(&doubled[..]).expect("doubled artifact loads");
    assert_eq!(loaded_doubled.table().rows(), 2 * loaded.table().rows());

    let load = on_fresh_thread(|| allocations_of(8, || Publication::load(&saved[..]).unwrap()));
    let load_doubled =
        on_fresh_thread(|| allocations_of(8, || Publication::load(&doubled[..]).unwrap()));
    let engine = on_fresh_thread(|| allocations_of(8, || QueryEngine::new(&loaded)));
    let engine_doubled =
        on_fresh_thread(|| allocations_of(8, || QueryEngine::new(&loaded_doubled)));
    println!(
        "Publication::load (allocations, bytes): {} rows {load:?}, {} rows {load_doubled:?}",
        loaded.table().rows(),
        loaded_doubled.table().rows()
    );
    println!("QueryEngine::new (allocations, bytes): {engine:?}, doubled {engine_doubled:?}");
    assert_eq!(
        load.0, load_doubled.0,
        "Publication::load allocates per row: {load:?} against {load_doubled:?} doubled"
    );
    assert_eq!(
        engine, engine_doubled,
        "QueryEngine::new allocates per row: {engine:?} against {engine_doubled:?} doubled"
    );
}
