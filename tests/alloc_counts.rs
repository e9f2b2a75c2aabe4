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
//! * the saved release and the same release with every record twice — the
//!   same group lines with doubled counts — are opened as `rpctl serve`
//!   opens one, through `QueryEngine::open`: `Publication::load` reads the
//!   group lines into the publication's two flat group buffers and
//!   `QueryEngine::new` assembles the grouped view from them, so each
//!   step, and the open as a whole, costs `O(groups)` and allocates equal
//!   counts and equal bytes for either. So does `StreamPublisher::open`
//!   of either over a fresh WAL, which splits a release from its live
//!   section without touching a record;
//! * a thread that expanded the saved release into its table
//!   (`Publication::table`) expands the doubled one as a fresh thread
//!   does: its full buffer pool trades the smaller columns for the larger
//!   ones;
//! * publishing holds every personal group in two flat buffers, from the
//!   grouping through SPS and UP to the release, so
//!   `PersonalGroups::build`, `sps_groups`, `up_histograms` and
//!   `Publisher::publish` each allocate fewer times than the fixture's
//!   40,000 rows have personal groups (1,512). With a vector per group
//!   they made 3,044, 1,514, 1,513 and 3,049 allocations; now 18, 3, 2
//!   and 24, of 2,279,188, 635,440, 635,040 and 2,975,204 bytes (x86-64
//!   Linux).
//!
//! Each figure is the fewest over several runs, so the sampled
//! instrumentation and the table crate's buffer pool cannot make it vary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_bench::census_fixture;
use rp_repro::core::groups::PersonalGroups;
use rp_repro::core::privacy::PrivacyParams;
use rp_repro::core::sps::{sps_groups, up_histograms, SpsConfig};
use rp_repro::engine::protocol::is_token;
use rp_repro::engine::{
    Catalog, CatalogSession, Publication, Publisher, QueryEngine, QueryService, Request,
    ServiceConfig, SessionStats, StreamConfig, StreamPublisher, WireQuery,
};
use rp_repro::table::GroupHistograms;

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
    allocations_after(runs, || (), |()| f())
}

/// The `(allocations, bytes)` `f` makes on this thread from what `setup`
/// returns, `setup` itself not counted: the fewest of each over `runs`
/// runs.
fn allocations_after<S, T>(
    runs: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> (u64, u64) {
    let mut fewest = (u64::MAX, u64::MAX);
    for _ in 0..runs {
        let input = setup();
        let before = ALLOCATED.with(Cell::get);
        let value = f(input);
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

/// `publication` with every record twice, saved: the same group lines
/// with each count doubled, and `rows` doubled.
fn doubled_records(publication: &Publication) -> Vec<u8> {
    let schema = publication.schema();
    let m = schema.attribute(publication.sa()).domain_size();
    let groups = publication.groups();
    let mut twice = GroupHistograms::with_capacity(schema.arity() - 1, m, groups.len());
    for (key, hist) in groups.iter() {
        twice.push(
            key,
            &hist.iter().map(|&count| 2 * count).collect::<Vec<_>>(),
        );
    }
    let doubled = Publication::from_parts(
        schema.clone(),
        twice,
        publication.sa(),
        publication.p(),
        publication.params(),
        publication.seed(),
        publication.stats(),
        publication.check(),
    );
    let mut bytes = Vec::new();
    doubled.save(&mut bytes).expect("in-memory save");
    bytes
}

/// The saved fixture's length in bytes: its header, then one line per
/// personal group.
const SAVED_LEN: usize = 168_041;

/// The `(allocations, bytes)` of opening a stream over `publication` and
/// a fresh WAL at `wal`, on a fresh thread; the publication's copy and
/// the removal of the last run's WAL are not counted.
fn stream_open_allocations(publication: &Publication, wal: &Path) -> (u64, u64) {
    on_fresh_thread(|| {
        let fresh = || {
            let _ = std::fs::remove_file(wal);
            publication.clone()
        };
        allocations_after(8, fresh, |base| {
            StreamPublisher::open(base, wal, StreamConfig::default()).unwrap()
        })
    })
}

#[test]
fn opening_a_release_allocates_alike_for_twice_the_rows() {
    let (publication, _) = census_publication();
    let mut saved = Vec::new();
    publication.save(&mut saved).expect("in-memory save");
    assert_eq!(saved.len(), SAVED_LEN, "the saved fixture's length");
    let doubled = doubled_records(&publication);
    assert_eq!(
        saved.iter().filter(|&&b| b == b'\n').count(),
        doubled.iter().filter(|&&b| b == b'\n').count(),
        "the doubled release has as many lines"
    );
    let loaded = Publication::load(&saved[..]).expect("artifact loads");
    let loaded_doubled = Publication::load(&doubled[..]).expect("doubled artifact loads");
    assert_eq!(loaded_doubled.records(), 2 * loaded.records());

    let load = on_fresh_thread(|| allocations_of(8, || Publication::load(&saved[..]).unwrap()));
    let load_doubled =
        on_fresh_thread(|| allocations_of(8, || Publication::load(&doubled[..]).unwrap()));
    let engine = on_fresh_thread(|| allocations_of(8, || QueryEngine::new(&loaded)));
    let engine_doubled =
        on_fresh_thread(|| allocations_of(8, || QueryEngine::new(&loaded_doubled)));
    let open = on_fresh_thread(|| allocations_of(8, || QueryEngine::open(&saved[..]).unwrap()));
    let open_doubled =
        on_fresh_thread(|| allocations_of(8, || QueryEngine::open(&doubled[..]).unwrap()));
    let dir = std::env::temp_dir().join(format!("rp-alloc-counts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (wal, wal_doubled) = (dir.join("release.rpwal"), dir.join("doubled.rpwal"));
    let stream = stream_open_allocations(&loaded, &wal);
    let stream_doubled = stream_open_allocations(&loaded_doubled, &wal_doubled);
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    println!(
        "Publication::load (allocations, bytes): {} records {load:?}, {} records {load_doubled:?}",
        loaded.records(),
        loaded_doubled.records()
    );
    println!("QueryEngine::new (allocations, bytes): {engine:?}, doubled {engine_doubled:?}");
    println!("QueryEngine::open (allocations, bytes): {open:?}, doubled {open_doubled:?}");
    println!("StreamPublisher::open (allocations, bytes): {stream:?}, doubled {stream_doubled:?}");
    assert_eq!(
        QueryEngine::open(&saved[..]).unwrap(),
        QueryEngine::new(&loaded),
        "the serving open differs from load and build"
    );
    assert_eq!(
        open, open_doubled,
        "QueryEngine::open allocates per row: {open:?} against {open_doubled:?} doubled"
    );
    assert_eq!(
        load, load_doubled,
        "Publication::load allocates per row: {load:?} against {load_doubled:?} doubled"
    );
    assert_eq!(
        engine, engine_doubled,
        "QueryEngine::new allocates per row: {engine:?} against {engine_doubled:?} doubled"
    );
    assert_eq!(
        stream, stream_doubled,
        "StreamPublisher::open allocates per row: {stream:?} against {stream_doubled:?} doubled"
    );
}

#[test]
fn a_thread_that_opened_a_smaller_release_pools_a_larger_ones_columns() {
    let (publication, _) = census_publication();
    let doubled = Publication::load(&doubled_records(&publication)[..]).unwrap();

    let fresh = on_fresh_thread(|| allocations_of(8, || doubled.table()));
    let after_smaller = on_fresh_thread(|| {
        allocations_of(8, || publication.table());
        allocations_of(8, || doubled.table())
    });
    println!(
        "doubled Publication::table (allocations, bytes): fresh thread {fresh:?}, \
         after the smaller release {after_smaller:?}"
    );
    assert_eq!(
        after_smaller, fresh,
        "the pool kept the smaller release's buffers over the larger one's"
    );
}

#[test]
fn the_publish_path_allocates_fewer_times_than_there_are_groups() {
    let dataset = census_fixture();
    let (table, spec) = (&dataset.generalized, dataset.groups.spec());
    let groups = PersonalGroups::build(table, spec.clone());
    assert_eq!((table.rows(), groups.len()), (40_000, 1_512), "the fixture");
    let config = SpsConfig {
        p: 0.5,
        params: PrivacyParams::new(0.3, 0.3),
    };

    let build = allocations_after(
        5,
        || spec.clone(),
        |spec| PersonalGroups::build(table, spec),
    );
    let sps = allocations_after(
        5,
        || StdRng::seed_from_u64(7),
        |mut rng| sps_groups(&mut rng, &groups, config),
    );
    let up = allocations_after(
        5,
        || StdRng::seed_from_u64(7),
        |mut rng| up_histograms(&mut rng, &groups, 0.5),
    );
    let publish = allocations_after(
        5,
        || Publisher::new(table.clone()).sa(spec.sa()).seed(7),
        |publisher| publisher.publish().unwrap(),
    );
    println!(
        "(allocations, bytes) over {} groups: PersonalGroups::build {build:?}, \
         sps_groups {sps:?}, up_histograms {up:?}, Publisher::publish {publish:?}",
        groups.len()
    );
    for (call, (allocations, _)) in [
        ("PersonalGroups::build", build),
        ("sps_groups", sps),
        ("up_histograms", up),
        ("Publisher::publish", publish),
    ] {
        assert!(
            allocations < groups.len() as u64,
            "{call} allocates per group: {allocations} allocations for {} groups",
            groups.len()
        );
    }
}
