//! Request-line tables and equivalence properties for the `count`/`batch`
//! answering path:
//!
//! * golden tables: every malformed or invalid `count`/`batch` line maps
//!   to one exact `error code=... message` line, run through the real
//!   session loop (`serve`) over a one-release catalog, through
//!   `CatalogSession::handle_line` and through the owned `Request` path,
//!   on a static and on a live release;
//! * precedence: a parse error anywhere in a line wins over routing, and
//!   routing over resolution; a parse error is charged to the session's
//!   current release whatever release the line names;
//! * separator forms (CRLF endings, tabs, runs of spaces) answer the same
//!   bytes as the canonical line;
//! * a property: every answer of a random `batch` line is byte-identical
//!   to `QueryEngine::answer` on the same resolved query.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_repro::engine::protocol::WireAnswer;
use rp_repro::engine::{
    serve, Catalog, CatalogSession, Publication, Publisher, QueryService, Request, Response,
    Server, ServerConfig, ServiceConfig, SessionStats, StreamConfig, StreamPublisher,
};
use rp_repro::table::{Attribute, Schema, TableBuilder};

/// `Job` × `City` personal groups over the SA `Disease`.
fn fixture_publication() -> Publication {
    let schema = Schema::new(vec![
        Attribute::new("Job", ["eng", "doc", "law"]),
        Attribute::new("City", ["rome", "oslo"]),
        Attribute::new("Disease", ["flu", "none"]),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..1800u32 {
        b.push_codes(&[i % 3, (i / 3) % 2, (i / 6) % 2]).unwrap();
    }
    Publisher::new(b.build())
        .sa(2)
        .seed(41)
        .publish()
        .expect("fixture publishes")
}

/// The fixture release served from its artifact.
fn fixture_service() -> QueryService {
    QueryService::from_publication(&fixture_publication(), ServiceConfig::default())
}

/// The response lines (banner dropped) of one stdio session fed `input`.
fn responses(catalog: &Catalog, input: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    serve(catalog, input, &mut out).expect("in-memory serve cannot fail");
    String::from_utf8(out)
        .unwrap()
        .lines()
        .skip(1)
        .map(str::to_string)
        .collect()
}

/// The one response line to `line`.
fn answer_line(catalog: &Catalog, line: &str) -> String {
    let lines = responses(catalog, format!("{line}\n").as_bytes());
    assert_eq!(lines.len(), 1, "`{line}` -> {lines:?}");
    lines.into_iter().next().unwrap()
}

const TRY: &str = "try `count Column=value ... SA=value`";

/// `(request line, exact response line)` for every way a `count` or
/// `batch` line can fail.
fn golden_errors() -> Vec<(&'static str, String)> {
    let parse = |m: &str| format!("error code=parse {m}");
    let bad_query = |m: &str| format!("error code=bad-query {m}");
    let unknown_column = "unknown attribute `Nope`";
    let unknown_value = "value `zzz` not in the dictionary of attribute `Job`";
    let missing_sa = "query needs a condition on the SA column `Disease`";
    let duplicate_sa = "query names the SA column `Disease` more than once";
    let duplicate_na = "query names the column `Job` more than once";
    vec![
        // Empty batch, empty part, trailing `;`.
        ("batch", parse("empty batch")),
        ("batch   ", parse("empty batch")),
        ("batch ;", parse(&format!("empty query; {TRY}"))),
        (
            "batch Job=eng Disease=flu;;City=oslo Disease=none",
            parse(&format!("empty query; {TRY}")),
        ),
        (
            "batch Job=eng Disease=flu;",
            parse(&format!("empty query; {TRY}")),
        ),
        (
            "batch Job=eng Disease=flu; count",
            parse("expected Column=value, got `count`"),
        ),
        ("count", parse(&format!("empty query; {TRY}"))),
        // A token without `=`; an empty column or value.
        (
            "count Job Disease=flu",
            parse("expected Column=value, got `Job`"),
        ),
        (
            "batch Job=eng Disease=flu; Job Disease=flu",
            parse("expected Column=value, got `Job`"),
        ),
        (
            "count count Job=eng Disease=flu",
            parse("expected Column=value, got `count`"),
        ),
        (
            "count =eng Disease=flu",
            parse("empty column or value in `=eng`"),
        ),
        ("=eng Disease=flu", parse("empty column or value in `=eng`")),
        (
            "count Job= Disease=flu",
            parse("empty column or value in `Job=`"),
        ),
        (
            "batch Disease=flu; Job= Disease=flu",
            parse("empty column or value in `Job=`"),
        ),
        // Resolution failures: unknown column or value, missing SA,
        // duplicate SA, duplicate NA column.
        ("count Nope=1 Disease=flu", bad_query(unknown_column)),
        ("Nope=1 Disease=flu", bad_query(unknown_column)),
        ("count Job=zzz Disease=flu", bad_query(unknown_value)),
        ("count Job=eng", bad_query(missing_sa)),
        ("count Disease=flu Disease=none", bad_query(duplicate_sa)),
        ("count Job=eng Job=doc Disease=flu", bad_query(duplicate_na)),
        // In a batch the failing query is named `query N:`.
        (
            "batch Nope=1 Disease=flu",
            bad_query(&format!("query 1: {unknown_column}")),
        ),
        (
            "batch Disease=flu; Job=zzz Disease=flu",
            bad_query(&format!("query 2: {unknown_value}")),
        ),
        (
            "batch Disease=flu; Disease=none; count Job=eng",
            bad_query(&format!("query 3: {missing_sa}")),
        ),
        (
            "batch Disease=flu; Disease=flu Disease=none",
            bad_query(&format!("query 2: {duplicate_sa}")),
        ),
        (
            "batch Job=doc Disease=flu; Job=eng Job=doc Disease=flu",
            bad_query(&format!("query 2: {duplicate_na}")),
        ),
        // A parse error anywhere wins over a resolution error earlier.
        (
            "batch Nope=1 Disease=flu; Job",
            parse("expected Column=value, got `Job`"),
        ),
        // Qualified forms: a bad `batch@name`, and an un-verbed first
        // column containing `@`.
        (
            "batch@ Job=eng Disease=flu",
            parse("bad release name `` in `batch@`"),
        ),
        (
            "batch@a@b Job=eng Disease=flu",
            parse("bad release name `a@b` in `batch@a@b`"),
        ),
        (
            "batch@nope Job=eng Disease=flu",
            "error code=unknown-release no release named `nope`".to_string(),
        ),
        ("batch@default", parse("empty batch")),
        (
            "batch@default Disease=flu; Nope=1 Disease=flu",
            bad_query(&format!("query 2: {unknown_column}")),
        ),
        ("count@default", parse(&format!("empty query; {TRY}"))),
        ("count@default Job=eng", bad_query(missing_sa)),
        (
            "C@x=v Disease=flu",
            parse("bad release name `x=v` in `C@x=v`"),
        ),
        (
            "Job@x Disease=flu",
            "error code=unknown-command unknown qualified command `Job`; \
             only count/batch/insert/flush/info take @x"
                .to_string(),
        ),
        (
            "count C@x=v Disease=flu",
            bad_query("unknown attribute `C@x`"),
        ),
        // Tabs separate tokens, but only `count ` (with a space) is
        // stripped from a batch part.
        (
            "batch\tcount\tJob=eng\tDisease=flu",
            parse("expected Column=value, got `count`"),
        ),
    ]
}

#[test]
fn count_and_batch_lines_fail_with_exact_error_lines() {
    let catalog = Catalog::single(Arc::new(fixture_service()));
    for (line, want) in golden_errors() {
        assert_eq!(answer_line(&catalog, line), want, "request `{line}`");
    }
}

#[test]
fn golden_error_lines_are_one_session_and_keep_it_serving() {
    let service = Arc::new(fixture_service());
    let catalog = Catalog::single(Arc::clone(&service));
    let table = golden_errors();
    let mut input: String = table.iter().map(|(line, _)| format!("{line}\n")).collect();
    input.push_str("ping\n");
    let lines = responses(&catalog, input.as_bytes());
    let mut want: Vec<String> = table.into_iter().map(|(_, want)| want).collect();
    want.push("pong".to_string());
    assert_eq!(lines, want);
    // Every error line is charged to the release except the routing
    // failure (`batch@nope`), which has no release to charge.
    let stats = service.stats();
    assert_eq!(stats.requests, want.len() as u64 - 1);
    assert_eq!(stats.errors, want.len() as u64 - 2);
}

/// The fixture release served live: a fresh WAL under the temp dir,
/// removed when the guard drops.
struct LiveFixture {
    service: Arc<QueryService>,
    wal: PathBuf,
}

impl LiveFixture {
    fn new(tag: &str) -> Self {
        let wal = std::env::temp_dir().join(format!(
            "rp-request-lines-{tag}-{}.rpwal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&wal);
        let stream = StreamPublisher::open(fixture_publication(), &wal, StreamConfig::default())
            .expect("open a fresh stream");
        let service = QueryService::streaming(stream, None, ServiceConfig::default());
        Self {
            service: Arc::new(service),
            wal,
        }
    }
}

impl Drop for LiveFixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.wal);
    }
}

/// Every golden line answers the same bytes through
/// `CatalogSession::handle_line` as through the session loop, and through
/// the owned path (`Request::parse`, then `CatalogSession::handle`), on a
/// static release and on a live one.
#[test]
fn golden_error_lines_answer_alike_through_the_catalog_session_and_the_owned_path() {
    let live = LiveFixture::new("golden");
    for service in [Arc::new(fixture_service()), Arc::clone(&live.service)] {
        let catalog = Catalog::single(service);
        let mut lines = CatalogSession::new(&catalog);
        let mut owned = CatalogSession::new(&catalog);
        let mut stats = SessionStats::default();
        for (line, want) in golden_errors() {
            let response = lines.handle_line(line, &mut stats).expect("not blank");
            assert_eq!(response.encode(), want, "line `{line}`");
            let response = match Request::parse(line) {
                Ok(Some(request)) => owned.handle(&request, &mut stats),
                Ok(None) => panic!("`{line}` parsed as blank"),
                Err(e) => Response::from(e),
            };
            assert_eq!(response.encode(), want, "owned `{line}`");
        }
    }
}

/// `(line, exact response)` for each resolve failure in `count` and
/// `batch` form, a failure in query k of a longer batch, and conditions
/// whose value contains `=` (split at the first `=`).
fn resolve_failures() -> Vec<(&'static str, String)> {
    let bad_query = |m: &str| format!("error code=bad-query {m}");
    vec![
        (
            "count Nope=1 Disease=flu",
            bad_query("unknown attribute `Nope`"),
        ),
        (
            "batch Nope=1 Disease=flu",
            bad_query("query 1: unknown attribute `Nope`"),
        ),
        (
            "count Job=zzz Disease=flu",
            bad_query("value `zzz` not in the dictionary of attribute `Job`"),
        ),
        (
            "batch Job=zzz Disease=flu",
            bad_query("query 1: value `zzz` not in the dictionary of attribute `Job`"),
        ),
        (
            "count Job=eng=doc Disease=flu",
            bad_query("value `eng=doc` not in the dictionary of attribute `Job`"),
        ),
        (
            "count Disease=flu=none",
            bad_query("value `flu=none` not in the dictionary of attribute `Disease`"),
        ),
        (
            "count Job=eng City=oslo",
            bad_query("query needs a condition on the SA column `Disease`"),
        ),
        (
            "batch Job=eng City=oslo",
            bad_query("query 1: query needs a condition on the SA column `Disease`"),
        ),
        (
            "count Disease=flu Job=eng Disease=flu",
            bad_query("query names the SA column `Disease` more than once"),
        ),
        (
            "batch Disease=flu Job=eng Disease=flu",
            bad_query("query 1: query names the SA column `Disease` more than once"),
        ),
        (
            "count City=oslo Job=eng Disease=flu City=rome",
            bad_query("query names the column `City` more than once"),
        ),
        (
            "batch City=oslo Job=eng Disease=flu City=rome",
            bad_query("query 1: query names the column `City` more than once"),
        ),
        // The first failing query is named, whatever follows it; within
        // a query, the first failing condition is reported.
        (
            "batch Disease=flu; Job=eng Disease=none; City=oslo Disease=flu; \
             Job=law City=rome Disease=none; Job=doc Nope=1 Disease=flu; Job=zzz",
            bad_query("query 5: unknown attribute `Nope`"),
        ),
        (
            "batch Disease=flu; Job=eng Disease=none; count Job=doc Nope=1 Job=zzz",
            bad_query("query 3: unknown attribute `Nope`"),
        ),
        // A repeated column's value is looked up before the repeat is
        // reported.
        (
            "batch Disease=flu; Job=eng Disease=none; Job=doc Job=zzz Nope=1",
            bad_query("query 3: value `zzz` not in the dictionary of attribute `Job`"),
        ),
        (
            "batch Disease=flu; Job=eng Disease=none; Job=doc Job=eng Nope=1",
            bad_query("query 3: query names the column `Job` more than once"),
        ),
        (
            "batch Disease=none; City=rome; Job=eng Disease=flu",
            bad_query("query 2: query needs a condition on the SA column `Disease`"),
        ),
    ]
}

#[test]
fn resolve_failures_answer_exact_lines_through_the_catalog_session() {
    let live = LiveFixture::new("resolve");
    for service in [Arc::new(fixture_service()), Arc::clone(&live.service)] {
        let catalog = Catalog::single(Arc::clone(&service));
        let mut session = CatalogSession::new(&catalog);
        let mut stats = SessionStats::default();
        let table = resolve_failures();
        for (line, want) in &table {
            let response = session.handle_line(line, &mut stats).expect("not blank");
            assert_eq!(&response.encode(), want, "line `{line}`");
            let request = Request::parse(line).expect("parses").expect("not blank");
            let response = session.handle(&request, &mut stats);
            assert_eq!(&response.encode(), want, "owned `{line}`");
        }
        let n = 2 * table.len() as u64;
        assert_eq!((stats.requests, stats.errors, stats.answered), (n, n, 0));
        let release = service.stats();
        assert_eq!((release.requests, release.errors), (n, n));
    }
}

/// A parse error is reported before routing and charged to the session's
/// current release, whichever release the line names; a routing failure
/// is reported before any resolve failure and charged to no release.
#[test]
fn parse_errors_win_over_routing_and_routing_over_resolution() {
    let alpha = Arc::new(fixture_service());
    let beta = Arc::new(fixture_service());
    let catalog = Catalog::new("alpha").expect("valid default name");
    catalog
        .open("alpha", Arc::clone(&alpha))
        .expect("open alpha");
    catalog.open("beta", Arc::clone(&beta)).expect("open beta");
    let mut session = CatalogSession::new(&catalog);
    let mut stats = SessionStats::default();
    let parse = |m: &str| format!("error code=parse {m}");
    let script: Vec<(&str, String)> = vec![
        (
            "batch@beta Nope=1 Disease=flu; Job",
            parse("expected Column=value, got `Job`"),
        ),
        ("count@beta Job", parse("expected Column=value, got `Job`")),
        (
            "batch@beta Disease=flu;",
            parse(&format!("empty query; {TRY}")),
        ),
        (
            "batch@nope Nope=1 Disease=flu; Job=",
            parse("empty column or value in `Job=`"),
        ),
        (
            "batch@nope Nope=1 Disease=flu",
            "error code=unknown-release no release named `nope`".to_string(),
        ),
        (
            "count@nope Job=zzz",
            "error code=unknown-release no release named `nope`".to_string(),
        ),
        (
            "batch@beta Disease=flu; Nope=1 Disease=flu",
            "error code=bad-query query 2: unknown attribute `Nope`".to_string(),
        ),
    ];
    for (line, want) in &script {
        let response = session.handle_line(line, &mut stats).expect("not blank");
        assert_eq!(&response.encode(), want, "line `{line}`");
    }
    assert_eq!((stats.requests, stats.errors), (7, 7));
    let (a, b) = (alpha.stats(), beta.stats());
    assert_eq!((a.requests, a.errors), (4, 4), "alpha {a:?}");
    assert_eq!((b.requests, b.errors), (1, 1), "beta {b:?}");

    // With the current release gone, a parse error is still a parse
    // error, charged to the session alone.
    let orphan = Catalog::new("gone").expect("valid default name");
    orphan.open("beta", Arc::clone(&beta)).expect("open beta");
    let mut session = CatalogSession::new(&orphan);
    let mut stats = SessionStats::default();
    for (line, want) in [
        (
            "batch Disease=flu; Job",
            parse("expected Column=value, got `Job`"),
        ),
        (
            "batch Nope=1 Disease=flu",
            "error code=unknown-release no release named `gone`".to_string(),
        ),
        (
            "count Job=eng Disease=flu",
            "error code=unknown-release no release named `gone`".to_string(),
        ),
    ] {
        let response = session.handle_line(line, &mut stats).expect("not blank");
        assert_eq!(response.encode(), want, "line `{line}`");
    }
    assert_eq!((stats.requests, stats.errors), (3, 3));
    let b = beta.stats();
    assert_eq!((b.requests, b.errors), (1, 1), "beta {b:?}");
}

/// `(separator variant, canonical line)`: each pair answers the same bytes.
const SEPARATOR_FORMS: &[(&str, &str)] = &[
    ("count Job=eng Disease=flu\r", "count Job=eng Disease=flu"),
    ("count\tJob=eng\tDisease=flu", "count Job=eng Disease=flu"),
    ("\t Job=eng  Disease=flu \t", "count Job=eng Disease=flu"),
    ("Job=eng\tDisease=flu", "count Job=eng Disease=flu"),
    (
        "count@default\tJob=eng Disease=flu",
        "count Job=eng Disease=flu",
    ),
    (
        "batch\tJob=eng Disease=flu;\tcount Disease=none",
        "batch count Job=eng Disease=flu; count Disease=none",
    ),
    (
        "batch   count   Job=eng\t Disease=flu ;count Disease=none  \r",
        "batch count Job=eng Disease=flu; count Disease=none",
    ),
    (
        "batch@default Job=eng Disease=flu;City=oslo Disease=none",
        "batch count Job=eng Disease=flu; count City=oslo Disease=none",
    ),
];

#[test]
fn crlf_tab_and_space_runs_answer_like_the_canonical_line() {
    let catalog = Catalog::single(Arc::new(fixture_service()));
    for &(variant, canonical) in SEPARATOR_FORMS {
        let want = answer_line(&catalog, canonical);
        assert!(!want.starts_with("error"), "`{canonical}` -> {want}");
        assert_eq!(
            answer_line(&catalog, variant),
            want,
            "request `{variant:?}`"
        );
    }
    // CRLF line endings through the session loop.
    let input = "count Job=eng Disease=flu\r\nbatch Disease=flu; Job=doc Disease=none\r\n";
    let lines = responses(&catalog, input.as_bytes());
    assert_eq!(lines[0], answer_line(&catalog, "count Job=eng Disease=flu"));
    assert_eq!(
        lines[1],
        answer_line(&catalog, "batch Disease=flu; Job=doc Disease=none")
    );
}

#[test]
fn a_non_utf8_line_keeps_the_tcp_session_open() {
    let service = Arc::new(fixture_service());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind an ephemeral port");
    let handle = server.spawn().expect("spawn server");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = stream;
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        line
    };
    assert!(read_line().starts_with("HELLO "));
    let mut exchange = |request: &[u8]| {
        writer.write_all(request).expect("send request");
        writer.flush().expect("flush");
        read_line()
    };
    assert_eq!(exchange(b"ping\n"), "pong\n");
    assert_eq!(
        exchange(b"count Job=\xe9ng Disease=flu\n"),
        "error code=parse request line is not valid UTF-8\n"
    );
    assert_eq!(
        exchange(b"count Job=eng Disease=flu\n"),
        format!(
            "{}\n",
            answer_line(
                &Catalog::single(Arc::new(fixture_service())),
                "count Job=eng Disease=flu"
            )
        )
    );
    assert_eq!(exchange(b"quit\n"), "bye\n");
    handle.shutdown().expect("graceful shutdown");
    let stats = service.stats();
    assert_eq!((stats.requests, stats.errors), (4, 1));
}

// ---------------------------------------------------------------------------
// Batch answers equal engine answers.
// ---------------------------------------------------------------------------

const NA_DOMAINS: [usize; 4] = [5, 7, 3, 4];
const SA_VALUES: [&str; 3] = ["s0", "s1", "s2"];

/// Four NA columns (`A0`..`A3`, values `vK`) and SA `S`: up to 420
/// groups, so the group bitmaps span several words with a ragged tail.
/// Built once and shared by every case.
fn wide_service() -> Arc<QueryService> {
    static SERVICE: OnceLock<Arc<QueryService>> = OnceLock::new();
    Arc::clone(SERVICE.get_or_init(|| Arc::new(build_wide_service())))
}

fn build_wide_service() -> QueryService {
    let mut attributes: Vec<Attribute> = NA_DOMAINS
        .iter()
        .enumerate()
        .map(|(i, &d)| Attribute::new(format!("A{i}"), (0..d).map(|v| format!("v{v}"))))
        .collect();
    attributes.push(Attribute::new("S", SA_VALUES));
    let mut rng = StdRng::seed_from_u64(19);
    let mut b = TableBuilder::new(Schema::new(attributes));
    for _ in 0..4000 {
        let mut codes: Vec<u32> = NA_DOMAINS
            .iter()
            .map(|&d| rng.gen_range(0..d) as u32)
            .collect();
        codes.push(rng.gen_range(0..SA_VALUES.len()) as u32);
        b.push_codes(&codes).unwrap();
    }
    let publication = Publisher::new(b.build())
        .sa(NA_DOMAINS.len())
        .seed(5)
        .publish()
        .expect("wide fixture publishes");
    QueryService::from_publication(&publication, ServiceConfig { cache_entries: 0 })
}

/// Random whitespace: one to three spaces or tabs.
fn gap(rng: &mut StdRng) -> String {
    (0..rng.gen_range(1..4))
        .map(|_| if rng.gen_bool(0.8) { ' ' } else { '\t' })
        .collect()
}

/// A random batch line over the wide schema and its queries' conditions.
fn random_batch(rng: &mut StdRng) -> (String, Vec<Vec<(String, String)>>) {
    let queries: Vec<Vec<(String, String)>> = (0..rng.gen_range(1..=40))
        .map(|_| {
            let mut conditions = Vec::new();
            for (i, &d) in NA_DOMAINS.iter().enumerate() {
                if rng.gen_bool(0.5) {
                    conditions.push((format!("A{i}"), format!("v{}", rng.gen_range(0..d))));
                }
            }
            let sa = SA_VALUES[rng.gen_range(0..SA_VALUES.len())];
            conditions.push(("S".to_string(), sa.to_string()));
            for i in (1..conditions.len()).rev() {
                conditions.swap(i, rng.gen_range(0..=i));
            }
            conditions
        })
        .collect();
    let mut line = format!("batch{}", gap(rng));
    for (i, conditions) in queries.iter().enumerate() {
        if i > 0 {
            line.push(';');
            if rng.gen_bool(0.7) {
                line.push(' ');
            }
        }
        if rng.gen_bool(0.5) {
            line.push_str("count ");
        }
        for (j, (column, value)) in conditions.iter().enumerate() {
            if j > 0 {
                line.push_str(&gap(rng));
            }
            line.push_str(&format!("{column}={value}"));
        }
        if rng.gen_bool(0.2) {
            line.push_str(&gap(rng));
        }
    }
    (line, queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_answers_equal_engine_answers(seed in any::<u64>()) {
        let service = wide_service();
        let engine = service.engine();
        let catalog = Catalog::single(Arc::clone(&service));
        let mut rng = StdRng::seed_from_u64(seed);
        let (line, queries) = random_batch(&mut rng);
        let answers: Vec<WireAnswer> = queries
            .iter()
            .map(|conditions| {
                let pairs: Vec<(&str, &str)> = conditions
                    .iter()
                    .map(|(c, v)| (c.as_str(), v.as_str()))
                    .collect();
                let query = engine.query_from_values(&pairs).expect("valid query");
                WireAnswer::from(&engine.answer(&query).expect("answerable"))
            })
            .collect();
        let want = Response::Batch(answers).encode();
        prop_assert_eq!(answer_line(&catalog, &line), want, "line `{}`", line);
    }
}
