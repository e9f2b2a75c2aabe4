//! The traced run: feeds the seed's inputs through each layer's public
//! functions in-process and times every call with the benchmark's own
//! clock reads, so no instrumentation is added to the program.
//!
//! Every workload prints every per-layer metric. The serving layers use
//! the workload's own request lines (`count` lines for `query_hot`, `batch`
//! lines for `query_batch`); the stream and publish layers, which no
//! workload's server runs, use the seed's insert lines and ADULT-10x CSV.
//! Where a layer is reachable only through an outer one (the engine behind
//! `QueryService::handle`, the stages behind `Publisher::publish`), a
//! second pass calls the inner layer on the same inputs: `remainder_share`
//! is the share of the client's round trip that parse, handle and encode
//! do not account for, and `publisher.self_ms` what `Publisher::publish`
//! spends outside its stages.
//!
//! Each check compares a count (or the answer bytes) with its expected
//! value; `--tamper NAME` makes the named check expect a wrong value.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::generalize::Generalization;
use rp_core::groups::{PersonalGroups, SaSpec};
use rp_core::privacy::{check_groups, PrivacyParams};
use rp_core::sps::{sps, SpsConfig};
use rp_engine::publisher::{DEFAULT_DELTA, DEFAULT_LAMBDA, DEFAULT_P};
use rp_engine::{
    Catalog, CatalogSession, Publication, Publisher, QueryEngine, QueryService, Request, Response,
    Server, ServerConfig, ServiceConfig, SessionStats, StreamConfig, StreamPublisher,
};
use rp_table::CountQuery;

use crate::gen::{read_lines, read_table};
use crate::load::Zipf;
use crate::{median, percentile, sub_seed, Args, Json};

/// Per-layer results: name → (value, unit), printed sorted by name.
#[derive(Default)]
struct Layers {
    values: BTreeMap<String, (f64, &'static str)>,
    checks: BTreeMap<&'static str, bool>,
    calls: u64,
    /// The check whose expected value is deliberately wrong, if any.
    tamper: Option<String>,
}

impl Layers {
    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Mean, p50 and p99 of per-call times (ns) as `<name>_us` metrics.
    fn timings(&mut self, name: &str, ns: &mut [u64], quantiles: bool) -> f64 {
        self.calls += ns.len() as u64;
        ns.sort_unstable();
        let mean = ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e3;
        if quantiles {
            self.set(
                &format!("{name}_p50_us"),
                percentile(ns, 50.0) as f64 / 1e3,
                "us",
            );
            self.set(
                &format!("{name}_p99_us"),
                percentile(ns, 99.0) as f64 / 1e3,
                "us",
            );
        } else {
            self.set(&format!("{name}_us"), mean, "us");
        }
        mean
    }

    fn tampered(&self, name: &str) -> bool {
        self.tamper.as_deref() == Some(name)
    }

    fn record(&mut self, name: &'static str, ok: bool) {
        if !ok {
            eprintln!("perfbench trace: check {name} failed");
        }
        self.checks.insert(name, ok);
    }

    /// Checks that `actual` equals `expected` (one more when tampered).
    fn check_count(&mut self, name: &'static str, actual: u64, expected: u64) {
        let expected = expected + u64::from(self.tampered(name));
        self.record(name, actual == expected);
    }
}

/// Times one call, returning its result and nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_nanos() as u64)
}

/// Median milliseconds over `reps` runs of `f`.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (out, ns) = timed(&mut f);
        times.push(ns as f64 / 1e6);
        last = Some(out);
    }
    (last.expect("reps >= 1"), median(&mut times))
}

/// One reading of the process registry: histogram `(count, sum)` and
/// counter values by name.
struct Registry {
    hists: BTreeMap<&'static str, (u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
}

impl Registry {
    fn read() -> Self {
        let obs = rp_engine::obs::global();
        Self {
            hists: obs
                .histogram_summaries()
                .into_iter()
                .map(|(name, s)| (name, (s.count, s.sum)))
                .collect(),
            counters: obs.counter_values().into_iter().collect(),
        }
    }

    /// `(count, mean)` of a histogram's observations since `before`.
    fn hist_since(&self, before: &Registry, name: &str) -> (u64, f64) {
        let (c0, s0) = before.hists.get(name).copied().unwrap_or_default();
        let (c1, s1) = self.hists.get(name).copied().unwrap_or_default();
        let count = c1 - c0;
        (count, (s1 - s0) as f64 / count.max(1) as f64)
    }

    /// A counter's increments since `before`.
    fn counter_since(&self, before: &Registry, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)
    }
}

/// The publish pipeline on the 10x ADULT CSV, stage by stage, exactly as
/// `rpctl publish` runs it.
fn publish_layers(
    dir: &Path,
    work: &Path,
    reps: usize,
    seed: u64,
    l: &mut Layers,
) -> Result<(), String> {
    let csv = dir.join("adult10x.csv");
    let (table, read_ms) = median_ms(reps, || read_table(&csv));
    let table = table?;
    let sa = table
        .schema()
        .attr_id("Income")
        .map_err(|e| e.to_string())?;
    let (generalization, fit_ms) = median_ms(reps, || {
        Generalization::fit(&table, &SaSpec::new(&table, sa), 0.05)
    });
    let (generalized, apply_ms) = median_ms(reps, || generalization.apply(&table));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = if threads > 1 { threads * 4 } else { 1 };
    // Publisher consumes its table; the copies are made outside the clock.
    let mut inputs = vec![generalized.clone(); reps].into_iter();
    let (publication, publish_ms) = median_ms(reps, || {
        Publisher::new(inputs.next().expect("one input per rep"))
            .sa(sa)
            .seed(seed)
            .parallelism(shards, threads)
            .publish()
    });
    let publication = publication.map_err(|e| e.to_string())?;
    // Second pass: the stages behind `Publisher::publish` on the same table.
    let spec = SaSpec::new(&generalized, sa);
    let (groups, groups_ms) = median_ms(reps, || {
        PersonalGroups::build_sharded(&generalized, spec.clone(), shards, threads)
    });
    let params = PrivacyParams::new(DEFAULT_LAMBDA, DEFAULT_DELTA);
    let (_, check_ms) = median_ms(reps, || check_groups(&groups, DEFAULT_P, params));
    let (out, sps_ms) = median_ms(reps, || {
        let mut rng = StdRng::seed_from_u64(seed);
        sps(
            &mut rng,
            &generalized,
            &groups,
            SpsConfig {
                p: DEFAULT_P,
                params,
            },
        )
    });
    let artifact = work.join("trace-adult10x.rppub");
    let (saved, save_ms) = median_ms(reps, || publication.save_to_path(&artifact));
    saved.map_err(|e| e.to_string())?;
    l.check_count(
        "publish_rows_match",
        out.table.rows() as u64,
        publication.table().rows() as u64,
    );
    l.check_count(
        "publish_groups_match",
        groups.len() as u64,
        out.stats.groups as u64,
    );
    l.set("table.read_csv_ms", read_ms, "ms");
    l.set("generalize.fit_ms", fit_ms, "ms");
    l.set("generalize.apply_ms", apply_ms, "ms");
    l.set("groups.build_ms", groups_ms, "ms");
    l.set("groups.count", groups.len() as f64, "count");
    l.set("privacy.check_ms", check_ms, "ms");
    l.set("sps.run_ms", sps_ms, "ms");
    l.set(
        "sps.sampled_ratio",
        out.stats.groups_sampled as f64 / out.stats.groups.max(1) as f64,
        "ratio",
    );
    l.set("publication.save_ms", save_ms, "ms");
    l.set(
        "publisher.self_ms",
        publish_ms - groups_ms - check_ms - sps_ms,
        "ms",
    );
    l.calls += 7 * reps as u64;
    Ok(())
}

/// Resolved queries of a `count` or `batch` line.
fn line_queries(engine: &QueryEngine, line: &str) -> Result<Vec<CountQuery>, String> {
    let wire = match Request::parse(line) {
        Ok(Some(Request::Query(q))) => vec![q],
        Ok(Some(Request::Batch(qs))) => qs,
        other => return Err(format!("not a query line: `{line}` ({other:?})")),
    };
    wire.iter()
        .map(|q| {
            let conditions: Vec<(&str, &str)> = q
                .conditions
                .iter()
                .map(|(c, v)| (c.as_str(), v.as_str()))
                .collect();
            engine
                .query_from_values(&conditions)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Closed-loop request lines over TCP to an in-process server; returns
/// per-request client latencies (ns) and the response lines.
fn tcp_pass(addr: &str, lines: &[&str]) -> Result<(Vec<u64>, Vec<String>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut banner = String::new();
    reader.read_line(&mut banner).map_err(|e| e.to_string())?;
    if !banner.starts_with("HELLO ") {
        return Err(format!("unexpected banner `{banner}`"));
    }
    let mut times = Vec::with_capacity(lines.len());
    let mut responses = Vec::with_capacity(lines.len());
    for request in lines {
        let mut line = String::new();
        let t0 = Instant::now();
        writeln!(writer, "{request}").map_err(|e| e.to_string())?;
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_nanos() as u64);
        responses.push(line.trim_end().to_string());
    }
    let _ = writeln!(writer, "quit");
    Ok((times, responses))
}

/// `trace`: the traced run of one workload.
pub fn run(args: &Args) -> Result<Json, String> {
    let workload = args.str("workload")?;
    let dir = Path::new(args.str("dir")?);
    let work = Path::new(args.str("work")?);
    let seed: u64 = args.num("seed")?;
    let toy = args.opt("scale") == Some("toy");
    let reps = if toy { 1 } else { 3 };
    let mut l = Layers {
        tamper: args.opt("tamper").map(str::to_string),
        ..Layers::default()
    };

    // -- publish layers (`rpctl publish`'s path) --
    publish_layers(dir, work, reps, sub_seed(seed, 9), &mut l)?;

    // -- artifact load and engine build (set-up of every serve workload) --
    let census = dir.join("census.rppub");
    let (publication, load_ms) = median_ms(reps, || Publication::load_from_path(&census));
    let publication = publication.map_err(|e| e.to_string())?;
    let (engine, build_ms) = median_ms(reps, || QueryEngine::new(&publication));
    l.set("publication.load_ms", load_ms, "ms");
    l.set("engine.build_ms", build_ms, "ms");

    // -- the workload's request lines --
    let hot = read_lines(&dir.join("hot.txt"))?;
    let batches = read_lines(&dir.join("batch.txt"))?;
    let inserts = read_lines(&dir.join("inserts.txt"))?;
    let n_counts = if toy { 2_000 } else { 50_000 };
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 20));
    let zipf = Zipf::new(hot.len());
    let counts: Vec<&str> = (0..n_counts)
        .map(|_| hot[zipf.sample(&mut rng)].as_str())
        .collect();
    let lines: Vec<&str> = match workload {
        "query_hot" => counts.clone(),
        "query_batch" => batches.iter().map(String::as_str).collect(),
        other => return Err(format!("unknown workload `{other}`")),
    };

    // -- protocol: parse and encode --
    let mut parse_ns = Vec::with_capacity(lines.len());
    let mut requests = Vec::with_capacity(lines.len());
    for line in &lines {
        let (parsed, ns) = timed(|| Request::parse(line));
        parse_ns.push(ns);
        requests.push(
            parsed
                .map_err(|e| e.to_string())?
                .ok_or("blank request line")?,
        );
    }
    let parse_us = l.timings("protocol.parse", &mut parse_ns, false);

    // -- service: handle per verb, on the serving path of the workload --
    let config = ServiceConfig::default();
    let service = QueryService::from_publication(&publication, config);
    let stats0 = service.stats();
    let mut session = SessionStats::default();
    let mut handle_ns = 0u64;
    let mut per_verb: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut responses = Vec::with_capacity(requests.len());
    for request in &requests {
        let (response, ns) = timed(|| service.handle(request, &mut session));
        handle_ns += ns;
        let verb = match request {
            Request::Query(_) => "count",
            Request::Batch(_) => "batch",
            Request::Insert(_) => "insert",
            _ => "other",
        };
        per_verb.entry(verb).or_default().push(ns);
        responses.push(response);
    }
    let stats1 = service.stats();
    let handle_us = handle_ns as f64 / requests.len().max(1) as f64 / 1e3;
    l.check_count(
        "service_answers",
        responses.iter().filter(|r| !r.is_error()).count() as u64,
        requests.len() as u64,
    );
    // Verbs this workload does not send are timed on the seed's own
    // lines, so every workload prints every verb; inserts go to a live
    // service over a fresh WAL.
    let static_service = QueryService::from_publication(&publication, config);
    let stream = StreamPublisher::open(
        publication.clone(),
        &work.join("trace-service.rpwal"),
        StreamConfig {
            commit_batch: 64,
            ..StreamConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let insert_service =
        QueryService::streaming(stream, Some(work.join("trace-service.rppub")), config);
    let batch_lines: Vec<&str> = batches.iter().map(String::as_str).collect();
    let insert_lines: Vec<&str> = inserts.iter().map(String::as_str).collect();
    for (verb, source, fallback) in [
        ("count", &counts, &static_service),
        ("batch", &batch_lines, &static_service),
        ("insert", &insert_lines, &insert_service),
    ] {
        if per_verb.contains_key(verb) {
            continue;
        }
        let mut times = Vec::new();
        for line in source.iter().take(2_000) {
            let request = Request::parse(line)
                .map_err(|e| e.to_string())?
                .ok_or("blank request line")?;
            times.push(timed(|| fallback.handle(&request, &mut SessionStats::default())).1);
        }
        per_verb.insert(verb, times);
    }
    for (verb, ns) in per_verb.iter_mut().filter(|(v, _)| **v != "other") {
        l.timings(&format!("service.{verb}"), ns, true);
    }
    let lookups =
        (stats1.cache_hits + stats1.cache_misses) - (stats0.cache_hits + stats0.cache_misses);
    l.set(
        "service.cache_hit_ratio",
        (stats1.cache_hits - stats0.cache_hits) as f64 / lookups.max(1) as f64,
        "ratio",
    );
    let mut encode_ns: Vec<u64> = responses.iter().map(|r| timed(|| r.encode()).1).collect();
    let encode_us = l.timings("protocol.encode", &mut encode_ns, false);

    // -- engine: resolve, bitmap counts, prepare + answer_batch --
    let mut resolve_ns = Vec::new();
    let mut resolved = Vec::new();
    for line in &lines {
        let (queries, ns) = timed(|| line_queries(&engine, line));
        let queries = queries?;
        resolve_ns.push(ns / queries.len() as u64);
        resolved.push(queries);
    }
    l.timings("engine.resolve", &mut resolve_ns, false);
    let mut counts_ns: Vec<u64> = resolved
        .iter()
        .flatten()
        .take(50_000)
        .map(|q| timed(|| engine.counts(q)).1)
        .collect();
    l.timings("engine.counts", &mut counts_ns, false);
    let batch_queries: Vec<Vec<CountQuery>> = batches
        .iter()
        .take(if toy { 16 } else { 256 })
        .map(|line| line_queries(&engine, line))
        .collect::<Result<_, _>>()?;
    let mut prepare_ns = Vec::new();
    let mut answer_ns = Vec::new();
    for queries in &batch_queries {
        let (prepared, ns) = timed(|| engine.prepare(queries));
        prepare_ns.push(ns);
        let prepared = prepared.map_err(|e| e.to_string())?;
        answer_ns.push(timed(|| engine.answer_batch(queries, &prepared)).1);
    }
    l.timings("engine.prepare", &mut prepare_ns, false);
    l.timings("engine.answer_batch", &mut answer_ns, false);

    // -- catalog routing over the workload's query lines --
    let catalog = Catalog::new("census").map_err(|e| e.to_string())?;
    catalog
        .open(
            "census",
            Arc::new(QueryService::from_publication(&publication, config)),
        )
        .map_err(|e| e.to_string())?;
    let adult = Publication::load_from_path(dir.join("adult.rppub")).map_err(|e| e.to_string())?;
    catalog
        .open(
            "adult",
            Arc::new(QueryService::from_publication(&adult, config)),
        )
        .map_err(|e| e.to_string())?;
    let r0 = Registry::read();
    let mut routing = CatalogSession::new(&catalog);
    let routed: Vec<&str> = lines.iter().copied().take(20_000).collect();
    let routed_ok = routed
        .iter()
        .filter(|line| {
            routing
                .handle_line(line, &mut SessionStats::default())
                .is_some_and(|r| !r.is_error())
        })
        .count();
    let r1 = Registry::read();
    let fast = r1.counter_since(&r0, "catalog.route_fast");
    let slow = r1.counter_since(&r0, "catalog.route_slow");
    l.set(
        "catalog.fast_route_ratio",
        fast as f64 / (fast + slow).max(1) as f64,
        "ratio",
    );
    l.check_count("catalog_answers", routed_ok as u64, routed.len() as u64);

    // -- stream: inserts straight into a StreamPublisher, then the live
    //    query scan and the flush --
    let n_inserts = if toy { 1_000 } else { 20_000 }.min(inserts.len());
    let direct_wal = work.join("trace-direct.rpwal");
    let mut stream = StreamPublisher::open(
        publication.clone(),
        &direct_wal,
        StreamConfig {
            commit_batch: 64,
            ..StreamConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let r0 = Registry::read();
    let mut insert_ns = Vec::with_capacity(n_inserts);
    for line in inserts.iter().take(n_inserts) {
        let Ok(Some(Request::Insert(record))) = Request::parse(line) else {
            return Err(format!("not an insert line: `{line}`"));
        };
        let values: Vec<(&str, &str)> = record
            .fields
            .iter()
            .map(|(c, v)| (c.as_str(), v.as_str()))
            .collect();
        let (outcome, ns) = timed(|| stream.insert_values(&values));
        outcome.map_err(|e| e.to_string())?;
        insert_ns.push(ns);
    }
    let r1 = Registry::read();
    l.timings("stream.insert", &mut insert_ns, true);
    let (syncs, sync_ns) = r1.hist_since(&r0, "wal.sync");
    let (_, batch_events) = r1.hist_since(&r0, "commit.batch_events");
    l.set("wal.sync_ms", sync_ns / 1e6, "ms");
    l.set("wal.syncs", syncs as f64, "count");
    l.set("commit.batch_events", batch_events, "count");
    l.set(
        "stream.republish_ratio",
        r1.counter_since(&r0, "stream.republish") as f64 / n_inserts.max(1) as f64,
        "ratio",
    );
    let hot_queries: Vec<CountQuery> = hot
        .iter()
        .map(|line| line_queries(&engine, line).map(|mut q| q.remove(0)))
        .collect::<Result<_, _>>()?;
    let mut live_ns: Vec<u64> = (0..reps)
        .flat_map(|_| hot_queries.iter())
        .map(|q| timed(|| stream.live_support_observed(q)).1)
        .collect();
    l.timings("stream.live_query", &mut live_ns, false);
    l.set("stream.live_groups", stream.live_groups() as f64, "count");
    l.check_count("stream_inserted", stream.inserted(), n_inserts as u64);
    let live_service =
        QueryService::streaming(stream, Some(work.join("trace-flush.rppub")), config);
    let (flushed, flush_ms) = timed(|| live_service.checkpoint());
    flushed.map_err(|e| e.to_string())?;
    l.set("stream.flush_ms", flush_ms as f64 / 1e6, "ms");

    // -- transport: an in-process TCP server over the workload's service --
    let service = Arc::new(service);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .map_err(|e| e.to_string())?
        .spawn()
        .map_err(|e| e.to_string())?;
    let addr = server.addr().to_string();
    let n_pings = if toy { 500 } else { 10_000 };
    let (mut ping_ns, pongs) = tcp_pass(&addr, &vec!["ping"; n_pings])?;
    l.timings("server.ping_rtt", &mut ping_ns, false);
    let tcp_lines: Vec<&str> = lines
        .iter()
        .copied()
        .take(if toy { 2_000 } else { 20_000 })
        .collect();
    let r0 = Registry::read();
    let (mut client_ns, answers) = tcp_pass(&addr, &tcp_lines)?;
    let r1 = Registry::read();
    server.shutdown().map_err(|e| e.to_string())?;
    let client_us = l.timings("client.request", &mut client_ns, false);
    let (served, request_ns) = r1.hist_since(&r0, "serve.request");
    let request_us = request_ns / 1e3;
    l.set("serve.request_us", request_us, "us");
    l.set("transport.remainder_us", client_us - request_us, "us");
    // Over TCP the server must answer byte-equal to the in-process service.
    let mut expected: Vec<String> = responses.iter().map(Response::encode).collect();
    if l.tampered("tcp_answers_equal_service") {
        expected[0].insert(0, 'x');
    }
    let equal = answers
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a == e)
        .count();
    l.record(
        "tcp_answers_equal_service",
        answers.len() == tcp_lines.len() && equal == answers.len(),
    );
    l.check_count(
        "tcp_pongs",
        pongs.iter().filter(|p| *p == "pong").count() as u64,
        n_pings as u64,
    );
    // The registry may also count the `quit` lines ending each pass.
    l.check_count(
        "tcp_served_every_line",
        served.min(tcp_lines.len() as u64),
        tcp_lines.len() as u64,
    );

    // The client's round trip less parse, the mean service call of the
    // workload's lines, and encode: what the layer times leave unexplained.
    l.set(
        "remainder_share",
        (client_us - parse_us - handle_us - encode_us) / client_us,
        "ratio",
    );

    let mut metrics = Json::default();
    for (name, (value, unit)) in &l.values {
        let mut pair = Json::default();
        pair.num("value", *value).str("unit", unit);
        metrics.obj(name, &pair);
    }
    let mut checks = Json::default();
    for (name, ok) in &l.checks {
        checks.int(name, u64::from(*ok));
    }
    let mut json = Json::default();
    json.str("workload", workload)
        .int("attempted", l.calls)
        .obj("checks", &checks)
        .obj("metrics", &metrics);
    Ok(json)
}
