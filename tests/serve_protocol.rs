//! Integration tests for the serving stack (`rp-engine`'s protocol /
//! service / server layers):
//!
//! * the wire protocol round-trips: `parse ∘ encode = id` over generated
//!   [`Request`]s and [`Response`]s (property test), rp/3 catalog verbs
//!   (`use`/`releases`/`reload`/`verb@release`), the rp/4 degradation
//!   surface (`error code=degraded`, the `degraded`/`faults` stats
//!   counters) and the rp/5 observability surface (`metrics`/`trace`)
//!   included;
//! * observability changes no response bytes: the same script produces
//!   byte-identical transcripts with the metrics registry enabled and
//!   disabled;
//! * stdio and TCP are the same protocol: N concurrent TCP clients
//!   running an interleaved request stream each receive bytes identical
//!   to the sequential stdio loop's transcript;
//! * single-release and catalog serving are one path: a script answers
//!   byte-identically from a one-release catalog and from a catalog that
//!   names its release, except the banner's `release=` token;
//! * the answer cache changes no response bytes — only the hit counters
//!   observable through `stats`;
//! * two catalog tenants served concurrently stay isolated: per-tenant
//!   transcripts are byte-identical to their stdio references and no
//!   session's queries touch the other tenant's cache.
//! * condition resolution: `QueryEngine::query_from_values` resolves every
//!   `(column, value)` pair of random schemas (with `=` inside names and
//!   values), and random misses, exactly as `Schema::attr_id` plus
//!   `Dictionary::code` do.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_repro::core::groups::{PersonalGroups, SaSpec};
use rp_repro::engine::protocol::{
    ErrorCode, ReleaseEntry, ReleaseMeta, StatsSnapshot, WireAnswer, WireHistogram, WireTraceEvent,
};
use rp_repro::engine::{
    serve, Catalog, Publisher, QueryEngine, QueryService, Request, Response, Server, ServerConfig,
    ServiceConfig, WireQuery, WireRecord,
};
use rp_repro::table::{Attribute, CountQuery, Schema, TableBuilder};

// ---------------------------------------------------------------------------
// Generators: typed requests/responses from a seeded RNG. The vendored
// proptest draws the seed; the value is a pure function of it.
// ---------------------------------------------------------------------------

const COLUMNS: [&str; 4] = ["Job", "Disease", "Zip-Code", "Age_Band"];
const VALUES: [&str; 5] = ["eng", "flu", ">50K", "n/a", "v_7-x"];
/// Valid catalog release names (tokens without `@`).
const RELEASES: [&str; 4] = ["alpha", "beta", "adult-2015", "r_0"];

fn arb_release(rng: &mut StdRng) -> String {
    RELEASES[rng.gen_range(0..RELEASES.len())].to_string()
}

fn arb_condition(rng: &mut StdRng) -> (String, String) {
    (
        COLUMNS[rng.gen_range(0..COLUMNS.len())].to_string(),
        VALUES[rng.gen_range(0..VALUES.len())].to_string(),
    )
}

fn arb_wire_query(rng: &mut StdRng) -> WireQuery {
    let n = rng.gen_range(1..=4usize);
    WireQuery {
        conditions: (0..n).map(|_| arb_condition(rng)).collect(),
    }
}

/// Metric/trace names: protocol tokens over the obs label alphabet.
const METRIC_NAMES: [&str; 4] = [
    "serve.request",
    "wal.sync",
    "service.cache_lookup",
    "fault:x-1",
];

fn arb_metric_name(rng: &mut StdRng) -> String {
    METRIC_NAMES[rng.gen_range(0..METRIC_NAMES.len())].to_string()
}

fn arb_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0..14u32) {
        0 => Request::Ping,
        1 => Request::Quit,
        2 => Request::Info,
        3 => Request::Stats,
        4 => Request::Query(arb_wire_query(rng)),
        5 => Request::Flush,
        6 => {
            let n = rng.gen_range(1..=4usize);
            Request::Insert(WireRecord {
                fields: (0..n).map(|_| arb_condition(rng)).collect(),
            })
        }
        7 => Request::Use(arb_release(rng)),
        8 => Request::Releases,
        9 => Request::Reload(arb_release(rng)),
        10 => Request::At {
            release: arb_release(rng),
            // Only routable verbs can carry a qualifier; the parser
            // rejects `use@x`/`ping@x`, so the generator mirrors that.
            inner: Box::new(match rng.gen_range(0..5u32) {
                0 => Request::Query(arb_wire_query(rng)),
                1 => Request::Batch(
                    (0..rng.gen_range(1..=3usize))
                        .map(|_| arb_wire_query(rng))
                        .collect(),
                ),
                2 => Request::Insert(WireRecord {
                    fields: (0..rng.gen_range(1..=3usize))
                        .map(|_| arb_condition(rng))
                        .collect(),
                }),
                3 => Request::Flush,
                _ => Request::Info,
            }),
        },
        12 => Request::Metrics,
        13 => Request::Trace(if rng.gen_range(0..2u32) == 0 {
            None
        } else {
            Some(rng.gen_range(0..10_000u64))
        }),
        _ => {
            let n = rng.gen_range(1..=3usize);
            Request::Batch((0..n).map(|_| arb_wire_query(rng)).collect())
        }
    }
}

/// Finite floats across several magnitudes (the codec encodes with the
/// shortest round-trip `Display`, so any finite value must survive).
fn arb_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4u32) {
        0 => 0.0,
        1 => rng.gen_range(0.0..1.0),
        2 => rng.gen_range(0.0..1.0e9),
        _ => f64::from(rng.gen_range(1..1_000_000u32)) / 977.0,
    }
}

fn arb_answer(rng: &mut StdRng) -> WireAnswer {
    WireAnswer {
        estimate: arb_f64(rng),
        support: rng.gen_range(0..1_000_000u64),
        observed: rng.gen_range(0..1_000_000u64),
        frequency: arb_f64(rng),
        ci: if rng.gen_range(0..2u32) == 0 {
            Some((arb_f64(rng), arb_f64(rng)))
        } else {
            None
        },
    }
}

fn arb_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0..15u32) {
        0 => Response::Hello {
            version: rng.gen_range(1..100u32),
            sa: COLUMNS[rng.gen_range(0..COLUMNS.len())].to_string(),
            records: rng.gen_range(0..10_000_000u64),
            groups: rng.gen_range(0..100_000u64),
            p: arb_f64(rng),
            release: if rng.gen_range(0..2u32) == 0 {
                Some(arb_release(rng))
            } else {
                None
            },
        },
        10 => Response::Using {
            release: arb_release(rng),
            sa: COLUMNS[rng.gen_range(0..COLUMNS.len())].to_string(),
            records: rng.gen_range(0..10_000_000u64),
            groups: rng.gen_range(0..100_000u64),
            p: arb_f64(rng),
        },
        11 => {
            let n = rng.gen_range(0..=3usize);
            Response::Releases(
                (0..n)
                    .map(|i| ReleaseEntry {
                        // Distinct names: a listing never repeats a tenant.
                        name: format!("{}-{i}", arb_release(rng)),
                        sa: COLUMNS[rng.gen_range(0..COLUMNS.len())].to_string(),
                        records: rng.gen_range(0..10_000_000u64),
                        groups: rng.gen_range(0..100_000u64),
                        live: rng.gen_range(0..2u32) == 0,
                    })
                    .collect(),
            )
        }
        12 => Response::Reloaded {
            release: arb_release(rng),
            records: rng.gen_range(0..10_000_000u64),
            groups: rng.gen_range(0..100_000u64),
        },
        1 => Response::Answer(arb_answer(rng)),
        2 => {
            let n = rng.gen_range(0..=3usize);
            Response::Batch((0..n).map(|_| arb_answer(rng)).collect())
        }
        3 => Response::Info {
            sa: COLUMNS[rng.gen_range(0..COLUMNS.len())].to_string(),
            records: rng.gen_range(0..10_000_000u64),
            groups: rng.gen_range(0..100_000u64),
            p: arb_f64(rng),
            release: if rng.gen_range(0..2u32) == 0 {
                Some(ReleaseMeta {
                    lambda: arb_f64(rng),
                    delta: arb_f64(rng),
                    seed: rng.gen_range(0..u64::MAX),
                })
            } else {
                None
            },
        },
        4 => Response::Stats(StatsSnapshot {
            requests: rng.gen_range(0..u64::MAX),
            answered: rng.gen_range(0..u64::MAX),
            errors: rng.gen_range(0..u64::MAX),
            cache_hits: rng.gen_range(0..u64::MAX),
            cache_misses: rng.gen_range(0..u64::MAX),
            sessions: rng.gen_range(0..u64::MAX),
            inserts: rng.gen_range(0..u64::MAX),
            degraded: rng.gen_range(0..u64::MAX),
            faults: rng.gen_range(0..u64::MAX),
        }),
        5 => Response::Pong,
        6 => Response::Bye,
        7 => Response::Inserted {
            group_size: rng.gen_range(0..u64::MAX),
            republished: rng.gen_range(0..2u32) == 0,
        },
        8 => Response::Flushed {
            events: rng.gen_range(0..u64::MAX),
        },
        13 => {
            let nc = rng.gen_range(0..=3usize);
            let nh = rng.gen_range(0..=3usize);
            Response::Metrics {
                counters: (0..nc)
                    .map(|i| {
                        (
                            format!("{}-{i}", arb_metric_name(rng)),
                            rng.gen_range(0..u64::MAX),
                        )
                    })
                    .collect(),
                histograms: (0..nh)
                    .map(|i| WireHistogram {
                        name: format!("{}-{i}", arb_metric_name(rng)),
                        count: rng.gen_range(0..u64::MAX),
                        p50: rng.gen_range(0..u64::MAX),
                        p90: rng.gen_range(0..u64::MAX),
                        p99: rng.gen_range(0..u64::MAX),
                        max: rng.gen_range(0..u64::MAX),
                        mean: arb_f64(rng),
                    })
                    .collect(),
            }
        }
        14 => {
            let n = rng.gen_range(0..=4usize);
            Response::Trace(
                (0..n)
                    .map(|_| WireTraceEvent {
                        seq: rng.gen_range(0..u64::MAX),
                        label: arb_metric_name(rng),
                    })
                    .collect(),
            )
        }
        _ => Response::Error {
            code: [
                ErrorCode::Parse,
                ErrorCode::UnknownCommand,
                ErrorCode::BadQuery,
                ErrorCode::Busy,
                ErrorCode::Internal,
                ErrorCode::ReadOnly,
                ErrorCode::UnknownRelease,
                ErrorCode::Degraded,
            ][rng.gen_range(0..8usize)],
            message: "query needs a condition on the SA column `Disease`".to_string(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse ∘ encode = id` over generated requests.
    #[test]
    fn request_parse_encode_is_identity(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = arb_request(&mut rng);
        let line = request.encode();
        let parsed = Request::parse(&line).expect("canonical line parses");
        prop_assert_eq!(parsed, Some(request));
    }

    /// `parse ∘ encode = id` over generated responses.
    #[test]
    fn response_parse_encode_is_identity(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let response = arb_response(&mut rng);
        let line = response.encode();
        let parsed = Response::parse(&line).expect("canonical line parses");
        prop_assert_eq!(parsed, response);
    }

    /// Encoding is canonical: re-encoding a parsed line reproduces it.
    #[test]
    fn request_encoding_is_idempotent(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = arb_request(&mut rng).encode();
        let reparsed = Request::parse(&line).unwrap().unwrap();
        prop_assert_eq!(reparsed.encode(), line);
    }
}

// ---------------------------------------------------------------------------
// Condition resolution: every (column, value) pair of a random schema
// resolves as `Schema::attr_id` plus `Dictionary::code` say it does.
// ---------------------------------------------------------------------------

/// Name and value pieces: with `=` among them, pairs such as (`A`, `b=c`)
/// and (`A=b`, `c`) spell the same `column=value` text.
const NAME_PIECES: [&str; 4] = ["A", "b", "=", "c"];

fn arb_piece_string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(1..=3usize))
        .map(|_| NAME_PIECES[rng.gen_range(0..NAME_PIECES.len())])
        .collect()
}

/// `n` distinct piece strings.
fn distinct_piece_strings(rng: &mut StdRng, n: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(n);
    while out.len() < n {
        let s = arb_piece_string(rng);
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// The reference resolution of one condition list by name scan and
/// dictionary lookup, as `query_from_values` reports it.
fn reference_query(
    schema: &Schema,
    sa: usize,
    conditions: &[(&str, &str)],
) -> Result<CountQuery, String> {
    let mut na = Vec::new();
    let mut sa_value = None;
    for &(col, value) in conditions {
        let attr = schema.attr_id(col).map_err(|e| e.to_string())?;
        let Some(code) = schema.attribute(attr).dictionary().code(value) else {
            return Err(format!(
                "value `{value}` not in the dictionary of attribute `{col}`"
            ));
        };
        if attr == sa {
            if sa_value.is_some() {
                return Err(format!(
                    "query names the SA column `{}` more than once",
                    schema.attribute(sa).name()
                ));
            }
            sa_value = Some(code);
        } else {
            if na.iter().any(|&(a, _)| a == attr) {
                return Err(format!("query names the column `{col}` more than once"));
            }
            na.push((attr, code));
        }
    }
    let Some(sa_value) = sa_value else {
        return Err(format!(
            "query needs a condition on the SA column `{}`",
            schema.attribute(sa).name()
        ));
    };
    na.sort_unstable_by_key(|&(attr, _)| attr);
    CountQuery::new(na, sa, sa_value).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `query_from_values` resolves every (column, value) pair of a random
    /// schema, and random misses, exactly as `attr_id` + `Dictionary::code`
    /// do — with `=` inside column names and values.
    #[test]
    fn query_from_values_resolves_like_attr_id_and_dictionary_code(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arity = rng.gen_range(2..=5usize);
        let sa = rng.gen_range(0..arity);
        let names = distinct_piece_strings(&mut rng, arity);
        let attributes: Vec<Attribute> = names
            .iter()
            .enumerate()
            .map(|(attr, name)| {
                // The SA domain needs two values at least.
                let domain = rng.gen_range(usize::from(attr == sa) + 1..=4);
                Attribute::new(name.clone(), distinct_piece_strings(&mut rng, domain))
            })
            .collect();
        let schema = Schema::new(attributes);
        let mut b = TableBuilder::new(schema.clone());
        for _ in 0..rng.gen_range(1..=12usize) {
            let row: Vec<u32> = schema
                .iter()
                .map(|(_, a)| rng.gen_range(0..a.domain_size() as u32))
                .collect();
            b.push_codes(&row).unwrap();
        }
        let table = b.build();
        let groups = PersonalGroups::build(&table, SaSpec::new(&table, sa));
        let hists = groups.groups().iter().map(|g| g.sa_hist.clone()).collect();
        let engine = QueryEngine::from_histograms(&groups, hists, &schema, 0.5);
        let resolve = |conditions: &[(&str, &str)]| {
            engine.query_from_values(conditions).map_err(|e| e.to_string())
        };
        let sa_name = schema.attribute(sa).name();
        let sa_dict = schema.attribute(sa).dictionary();
        for (attr, attribute) in schema.iter() {
            for (code, value) in attribute.dictionary().iter() {
                let sa_value = sa_dict.values()[code as usize % sa_dict.len()].as_str();
                let conditions = if attr == sa {
                    vec![(attribute.name(), value)]
                } else {
                    vec![(sa_name, sa_value), (attribute.name(), value)]
                };
                let want = reference_query(&schema, sa, &conditions);
                prop_assert!(want.is_ok(), "{conditions:?}: {want:?}");
                prop_assert_eq!(resolve(&conditions), want);
            }
        }
        for _ in 0..16 {
            let (col, value) = (arb_piece_string(&mut rng), arb_piece_string(&mut rng));
            let (other, other_value) = (arb_piece_string(&mut rng), arb_piece_string(&mut rng));
            for conditions in [
                vec![(col.as_str(), value.as_str())],
                vec![(col.as_str(), value.as_str()), (sa_name, sa_dict.values()[0].as_str())],
                vec![(other.as_str(), other_value.as_str()), (col.as_str(), value.as_str())],
            ] {
                prop_assert_eq!(resolve(&conditions), reference_query(&schema, sa, &conditions));
            }
        }
    }
}

/// Tokens appended by [`mutate_response_line`]: garbage, keys of other
/// lines, and separators.
const JUNK: [&str; 6] = ["junk", "x=1", "est=1", ";", "c:x=1", "seq=1"];

/// One token-level mutation of a canonical response line: drop,
/// duplicate or swap tokens, append a junk token, or inflate a list
/// count (`batch N;`, `releases N;`, `counters=`, `hists=`, `n=`) to 2⁴⁰.
fn mutate_response_line(line: &str, rng: &mut StdRng) -> String {
    let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
    let i = rng.gen_range(0..tokens.len());
    let counts: Vec<usize> = (0..tokens.len())
        .filter(|&k| {
            let t = &tokens[k];
            (k == 1 && (tokens[0] == "batch" || tokens[0] == "releases"))
                || ["counters=", "hists=", "n="]
                    .iter()
                    .any(|p| t.starts_with(p))
        })
        .collect();
    match rng.gen_range(0..5u32) {
        0 => {
            tokens.remove(i);
        }
        1 => {
            let t = tokens[i].clone();
            tokens.insert(i, t);
        }
        2 => {
            let j = rng.gen_range(0..tokens.len());
            tokens.swap(i, j);
        }
        4 if !counts.is_empty() => {
            let k = counts[rng.gen_range(0..counts.len())];
            let t = &tokens[k];
            let key = t.split_once('=').map_or("", |(key, _)| key);
            let sep = if key.is_empty() { "" } else { "=" };
            let tail = if t.ends_with(';') { ";" } else { "" };
            tokens[k] = format!("{key}{sep}{}{tail}", 1u64 << 40);
        }
        _ => tokens.push(JUNK[rng.gen_range(0..JUNK.len())].to_string()),
    }
    tokens.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The response parser accepts only canonical lines: every
    /// token-level mutation of an encoded response either fails to parse
    /// (with `code=parse`) or parses to a value that encodes back to the
    /// mutated line exactly.
    #[test]
    fn mutated_response_lines_are_rejected_or_canonical(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = arb_response(&mut rng).encode();
        let mutated = mutate_response_line(&line, &mut rng);
        match Response::parse(&mutated) {
            Ok(parsed) => prop_assert_eq!(parsed.encode(), mutated, "from `{}`", line),
            Err(e) => prop_assert_eq!(e.code, ErrorCode::Parse, "`{}`: {}", mutated, e),
        }
    }
}

// ---------------------------------------------------------------------------
// Transport equivalence over a real publication.
// ---------------------------------------------------------------------------

fn fixture_service(cache_entries: usize) -> QueryService {
    fixture_service_with(cache_entries, 1800, 41)
}

fn fixture_service_with(cache_entries: usize, rows: u32, seed: u64) -> QueryService {
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
    QueryService::from_publication(&publication, ServiceConfig { cache_entries })
}

/// A deterministic request stream: queries (with a repeat for the cache),
/// a batch, structured errors of every class, info and ping — everything
/// except `stats`, whose counters legitimately depend on interleaving.
const SCRIPT: &[&str] = &[
    "info",
    "ping",
    "count Job=eng Disease=flu",
    "Disease=none Job=doc",
    "garbage",
    "count Job=eng",
    "count Nope=1 Disease=flu",
    "count Job=eng Job=doc Disease=flu",
    "batch Job=eng Disease=flu; City=oslo Disease=none",
    // Streaming verbs on a static artifact: deterministic `read-only`
    // errors on every transport.
    "insert Job=eng City=rome Disease=flu",
    "flush",
    "Disease=flu Job=eng",
    "quit",
];

/// One sequential stdio session of `script` against `catalog`.
fn session_transcript(catalog: &Catalog, script: &[&str]) -> String {
    let input = script.join("\n") + "\n";
    let mut out = Vec::new();
    serve(catalog, input.as_bytes(), &mut out).expect("in-memory serve cannot fail");
    String::from_utf8(out).unwrap()
}

/// The sequential stdio transcript of the script over a fresh service.
fn stdio_transcript(cache_entries: usize) -> (String, StatsSnapshot) {
    let service = Arc::new(fixture_service(cache_entries));
    let transcript = session_transcript(&Catalog::single(Arc::clone(&service)), SCRIPT);
    (transcript, service.stats())
}

#[test]
fn single_release_and_named_catalog_modes_answer_identically() {
    let single = Arc::new(fixture_service(1024));
    let named = Arc::new(fixture_service(1024));
    let single_catalog = Catalog::single(Arc::clone(&single));
    let named_catalog = Catalog::new("alpha").expect("valid default name");
    named_catalog
        .open("alpha", Arc::clone(&named))
        .expect("open alpha");
    let single_out = session_transcript(&single_catalog, SCRIPT);
    let named_out = session_transcript(&named_catalog, SCRIPT);
    // Byte-identical except the banner's `release=` token, which appears
    // exactly when the operator named the release.
    let (single_banner, single_rest) = single_out.split_once('\n').unwrap();
    let (named_banner, named_rest) = named_out.split_once('\n').unwrap();
    assert!(!single_banner.contains(" release="), "{single_banner}");
    assert_eq!(format!("{single_banner} release=alpha"), named_banner);
    assert_eq!(single_rest, named_rest);
    // Both modes charge the line-level parse error (`garbage`) to the
    // release: the same 6 errors over the whole script.
    for stats in [single.stats(), named.stats()] {
        assert_eq!(stats.requests, SCRIPT.len() as u64, "{stats:?}");
        assert_eq!(stats.errors, 6, "{stats:?}");
    }
    // The single-release server is a catalog of exactly one release,
    // and unknown names answer `unknown-release` in either mode. Catalog
    // verbs and routing failures are charged to no release.
    let out = session_transcript(
        &single_catalog,
        &["releases", "use nope", "count@nope Disease=flu"],
    );
    assert_eq!(single.stats().requests, SCRIPT.len() as u64);
    assert_eq!(single.stats().sessions, 2, "each banner charges a session");
    let lines: Vec<&str> = out.lines().skip(1).collect();
    let Ok(Response::Releases(entries)) = Response::parse(lines[0]) else {
        panic!("expected a releases line: {out}");
    };
    assert_eq!(entries.len(), 1, "{out}");
    for line in &lines[1..] {
        let parsed = Response::parse(line).expect("error line parses");
        assert!(
            matches!(
                parsed,
                Response::Error {
                    code: ErrorCode::UnknownRelease,
                    ..
                }
            ),
            "{line}"
        );
    }
}

#[test]
fn concurrent_tcp_sessions_match_sequential_stdio_bytes() {
    const CLIENTS: usize = 4;
    let (reference, _) = stdio_transcript(1024);

    let service = Arc::new(fixture_service(1024));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind an ephemeral port");
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
                let mut writer = stream;
                let mut transcript = String::new();
                let read_line = |reader: &mut BufReader<TcpStream>, transcript: &mut String| {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("read response");
                    transcript.push_str(&line);
                };
                read_line(&mut reader, &mut transcript); // HELLO banner
                                                         // One line at a time — send, then read the single response
                                                         // — so the N sessions genuinely interleave on the server.
                for request in SCRIPT {
                    writeln!(writer, "{request}").expect("send request");
                    writer.flush().expect("flush");
                    read_line(&mut reader, &mut transcript);
                }
                transcript
            })
        })
        .collect();

    for worker in workers {
        let transcript = worker.join().expect("client thread");
        assert_eq!(
            transcript, reference,
            "a TCP session diverged from the stdio transcript"
        );
    }
    handle.shutdown().expect("graceful shutdown");

    let stats = service.stats();
    assert_eq!(stats.sessions, CLIENTS as u64);
    assert_eq!(stats.requests, (SCRIPT.len() * CLIENTS) as u64);
    // 6 of the script lines are errors (unknown command, missing SA,
    // unknown column, duplicated column, and the two read-only streaming
    // verbs), on every session.
    assert_eq!(stats.errors, 6 * CLIENTS as u64);
    // Every session's repeated query hits the shared cache (its first
    // occurrence already populated it within the same session); the first
    // occurrences may race and each count a miss, so only the repeat is
    // guaranteed.
    // 3 single queries per session consult the cache (batches bypass it).
    assert_eq!(stats.cache_hits + stats.cache_misses, 3 * CLIENTS as u64);
    assert!(stats.cache_hits >= CLIENTS as u64, "{stats:?}");
}

#[test]
fn cache_changes_no_response_bytes_only_counters() {
    let (cached, cached_stats) = stdio_transcript(1024);
    let (uncached, uncached_stats) = stdio_transcript(0);
    assert_eq!(cached, uncached, "the answer cache altered response bytes");
    assert_eq!(cached_stats.cache_hits, 1, "{cached_stats:?}");
    assert_eq!(cached_stats.cache_misses, 2, "{cached_stats:?}");
    assert_eq!(uncached_stats.cache_hits, 0);
    assert_eq!(uncached_stats.cache_misses, 0);
    // Everything else agrees exactly.
    assert_eq!(cached_stats.requests, uncached_stats.requests);
    assert_eq!(cached_stats.answered, uncached_stats.answered);
    assert_eq!(cached_stats.errors, uncached_stats.errors);
}

#[test]
fn observability_changes_no_response_bytes() {
    // The zero-byte-impact contract of `rp_repro::engine::obs`: the
    // instrumented serving stack must produce byte-identical transcripts
    // whether the registry is recording or disabled. The registry is
    // process-global, so the flag is restored even on panic.
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            rp_repro::engine::obs::global().set_enabled(true);
        }
    }
    // The script ends in `stats`, so the compared bytes carry all nine
    // release counters: the enable switch must not gate them.
    let (quit, rest) = SCRIPT.split_last().expect("script is non-empty");
    let script = [rest, &["stats", quit]].concat();
    let transcript = || {
        let service = Arc::new(fixture_service(1024));
        let text = session_transcript(&Catalog::single(Arc::clone(&service)), &script);
        (text, service.stats())
    };
    let (enabled, enabled_stats) = transcript();
    let _restore = Restore;
    rp_repro::engine::obs::global().set_enabled(false);
    let (disabled, disabled_stats) = transcript();
    assert_eq!(
        enabled, disabled,
        "observability instrumentation altered response bytes"
    );
    let stats_line = enabled
        .lines()
        .find(|l| l.starts_with("stats "))
        .expect("stats response present");
    assert!(stats_line.contains(" sessions=1 "), "{stats_line}");
    assert_eq!(enabled_stats, disabled_stats);
}

#[test]
fn metrics_and_trace_verbs_answer_canonical_lines() {
    // `metrics` and `trace` answered by a live service parse back to the
    // exact response (parse ∘ encode = id on real registry contents).
    let catalog = Catalog::single(Arc::new(fixture_service(1024)));
    let text = session_transcript(
        &catalog,
        &[
            "ping",
            "count Job=eng Disease=flu",
            "metrics",
            "trace 8",
            "quit",
        ],
    );
    let metrics_line = text
        .lines()
        .find(|l| l.starts_with("metrics "))
        .expect("metrics response present");
    let parsed = Response::parse(metrics_line).expect("metrics line parses");
    assert_eq!(parsed.encode(), metrics_line, "metrics encoding canonical");
    let Response::Metrics { counters, .. } = parsed else {
        panic!("expected a metrics response: {metrics_line}");
    };
    // This service's own counters are deterministic regardless of what
    // other tests recorded into the shared registry.
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    // Counters are snapshotted before the `metrics` request itself is
    // accounted, so only the preceding ping + count are visible.
    assert_eq!(get("service.requests"), 2, "ping + count");
    assert_eq!(get("service.answered"), 2);
    let trace_line = text
        .lines()
        .find(|l| l.starts_with("trace "))
        .expect("trace response present");
    let parsed = Response::parse(trace_line).expect("trace line parses");
    assert_eq!(parsed.encode(), trace_line, "trace encoding canonical");
}

#[test]
fn every_script_response_parses_as_typed_protocol() {
    let (transcript, _) = stdio_transcript(1024);
    for line in transcript.lines() {
        let parsed = Response::parse(line);
        assert!(parsed.is_ok(), "unparseable response line `{line}`");
    }
}

// ---------------------------------------------------------------------------
// Multi-tenant isolation over TCP.
// ---------------------------------------------------------------------------

/// A two-tenant catalog: `alpha` (the default) and `beta` differ in size
/// and seed, so their answers to the same query differ observably. The
/// tenant service handles are returned for per-tenant cache accounting.
fn fixture_catalog() -> (Catalog, Arc<QueryService>, Arc<QueryService>) {
    let alpha = Arc::new(fixture_service_with(1024, 1800, 41));
    let beta = Arc::new(fixture_service_with(1024, 1200, 43));
    let catalog = Catalog::new("alpha").expect("valid default name");
    catalog
        .open("alpha", Arc::clone(&alpha))
        .expect("open alpha");
    catalog.open("beta", Arc::clone(&beta)).expect("open beta");
    (catalog, alpha, beta)
}

/// The default tenant's session: rp/2-era un-qualified verbs only.
const ALPHA_SCRIPT: &[&str] = &[
    "info",
    "count Job=eng Disease=flu",
    "count Job=eng Disease=flu",
    "releases",
    "count City=oslo Disease=none",
    "quit",
];

/// The second tenant's session: `use beta`, then the same queries.
const BETA_SCRIPT: &[&str] = &[
    "use beta",
    "info",
    "count Job=eng Disease=flu",
    "count Job=eng Disease=flu",
    "count City=oslo Disease=none",
    "quit",
];

/// The sequential stdio transcript of `script` over a fresh catalog.
fn catalog_stdio_transcript(script: &[&str]) -> String {
    session_transcript(&fixture_catalog().0, script)
}

#[test]
fn concurrent_tenants_get_isolated_byte_identical_transcripts() {
    let alpha_ref = catalog_stdio_transcript(ALPHA_SCRIPT);
    let beta_ref = catalog_stdio_transcript(BETA_SCRIPT);
    // The same queries answered from different releases: if routing or
    // caching ever leaked across tenants these references would agree.
    assert_ne!(alpha_ref, beta_ref, "tenants must answer differently");

    let (catalog, alpha, beta) = fixture_catalog();
    let server = Server::bind_catalog("127.0.0.1:0", Arc::new(catalog), ServerConfig::default())
        .expect("bind an ephemeral port");
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    // Two clients per tenant, all interleaving line-at-a-time.
    let workers: Vec<_> = [ALPHA_SCRIPT, BETA_SCRIPT, ALPHA_SCRIPT, BETA_SCRIPT]
        .into_iter()
        .map(|script| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
                let mut writer = stream;
                let mut transcript = String::new();
                let read_line = |reader: &mut BufReader<TcpStream>| {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("read response");
                    line
                };
                transcript.push_str(&read_line(&mut reader)); // HELLO banner
                for request in script {
                    writeln!(writer, "{request}").expect("send request");
                    writer.flush().expect("flush");
                    transcript.push_str(&read_line(&mut reader));
                }
                (script, transcript)
            })
        })
        .collect();

    for worker in workers {
        let (script, transcript) = worker.join().expect("client thread");
        let reference = if std::ptr::eq(script, ALPHA_SCRIPT) {
            &alpha_ref
        } else {
            &beta_ref
        };
        assert_eq!(
            &transcript, reference,
            "a tenant session diverged from its stdio reference"
        );
    }
    handle.shutdown().expect("graceful shutdown");

    // Per-tenant cache isolation: each tenant's counters account exactly
    // for its own sessions' three cache-consulting queries — the other
    // tenant's identical query lines contributed zero hits or misses.
    let alpha_stats = alpha.stats();
    let beta_stats = beta.stats();
    assert_eq!(
        alpha_stats.cache_hits + alpha_stats.cache_misses,
        6,
        "{alpha_stats:?}"
    );
    assert_eq!(
        beta_stats.cache_hits + beta_stats.cache_misses,
        6,
        "{beta_stats:?}"
    );
    assert!(alpha_stats.cache_hits >= 2, "{alpha_stats:?}");
    assert!(beta_stats.cache_hits >= 2, "{beta_stats:?}");
    // Session starts are charged to the default tenant (the banner's
    // release); `use beta` does not re-charge.
    assert_eq!(alpha_stats.sessions, 4);
    assert_eq!(beta_stats.sessions, 0);
}
