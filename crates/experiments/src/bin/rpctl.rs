//! `rpctl` — reconstruction-privacy control for CSV microdata.
//!
//! A user-facing workflow tool: point it at a CSV file (header + one
//! record per line, all attributes categorical), name the sensitive
//! column, and it will audit, publish, query or serve.
//!
//! ```text
//! rpctl audit   --input data.csv --sa Income [--p 0.5 --lambda 0.3 --delta 0.3]
//! rpctl publish --input data.csv --sa Income --output release.rppub
//!               [--csv published.csv --p 0.5 --lambda 0.3 --delta 0.3
//!                --no-generalize --seed N]
//! rpctl publish --adult adult.data --sa Income --output release.rppub
//! rpctl query   --publication release.rppub --where Gender=Male --value >50K
//!               [--raw data.csv]
//! rpctl query   --connect HOST:PORT --where Gender=Male --value >50K
//!               [--release NAME --timeout MS]
//! rpctl serve   --publication release.rppub | --release alpha=a.rppub [--release beta=b.rppub ...]
//!               [--listen HOST:PORT --max-conns N --cache N
//!                --read-timeout MS --write-timeout MS --trace-buffer N]
//!               [--wal stream.rpwal --state-out state.rppub
//!                --commit-batch N --fault-fsync-at N]
//!               # the stream attaches to the first release
//! rpctl releases --connect HOST:PORT
//! rpctl reload  --connect HOST:PORT --release NAME
//! rpctl metrics --connect HOST:PORT
//! rpctl trace   --connect HOST:PORT [-n N]
//! rpctl bakeoff --input data.csv --sa Income
//!               [--p P --lambda L --delta D --seed N]
//!               [--dp-epsilon E --dp-delta D --dp-p P --max-queries N --detail N]
//! rpctl ingest  --connect HOST:PORT --input new.csv
//! rpctl ingest  --publication state.rppub --wal stream.rpwal --input new.csv
//!               --output state2.rppub [--commit-batch N]
//! rpctl replay  --publication base-or-snapshot.rppub --wal stream.rpwal
//!               --output replayed.rppub
//! rpctl compact --wal stream.rpwal [--output compacted.rpwal]
//! ```
//!
//! `publish` runs the full paper pipeline — χ²-generalization of the
//! public attributes (Section 3.4), the (λ, δ) design check (Corollary 4)
//! and SPS enforcement (Section 5) — through `rp_engine::Publisher`, and
//! writes a `Publication` artifact that carries the published records
//! *and* every estimator parameter (`p`, λ, δ, seed, SPS counters).
//!
//! `query` and `serve` answer count queries through a
//! `rp_engine::QueryService` with the MLE estimator `est = |S*|·F′` and
//! 95% confidence intervals — no parameter re-derivation out-of-band.
//! `serve` runs the typed line protocol (`rp_engine::protocol`) over
//! stdin/stdout, or over TCP with `--listen` (thread-per-connection over
//! one shared engine, bounded answer cache, connection cap); `query
//! --connect` is the matching TCP client.
//!
//! With `--wal`, `serve` becomes a **streaming** server: `insert`/`flush`
//! requests mutate the live release (each record perturbed on arrival,
//! groups re-sampled through SPS when they cross `sg`), every mutation is
//! write-ahead logged, `flush` syncs the log and writes the v2 snapshot
//! to `--state-out`. `--commit-batch N` turns on group commit: the WAL
//! is fsynced every N events instead of only on explicit `flush`,
//! amortizing the sync cost over a batch — the logged bytes are
//! identical either way, only durability *timing* changes. `ingest` feeds
//! a CSV into a streaming server (over TCP, or locally straight into the
//! WAL); `replay` reconstructs the stream state from artifact + WAL and
//! writes the snapshot — byte-identical to the live run's, which is the
//! determinism contract extended to streams. `compact` rewrites a WAL
//! dropping events superseded by a later re-publication (their effect
//! moves into per-group state records) — replay of the compacted log is
//! byte-identical to replay of the full one.
//!
//! `serve` always hosts an `rp_engine::Catalog`. `--publication PATH` is
//! a catalog of one release the operator did not name: its HELLO banner
//! carries no `release=` token, and `releases`/`use`/`reload` address it
//! as `default`. With repeated `--release NAME=PATH` flags instead, every
//! named artifact gets its own `QueryService` — its own answer cache and
//! counters — and sessions route between them with the rp/3 verbs
//! (`use NAME`, `releases`, `reload NAME`, or a one-shot
//! `count@NAME ...`). The first `--release` is the default that
//! un-qualified verbs hit, so rp/2-era request streams keep working
//! unchanged. `releases` and `reload` are the matching TCP clients;
//! `query --connect --release NAME` targets one release by sending `use`
//! first (and trusts the `using` response — not the HELLO banner — for
//! that release's SA column and `p`).
//!
//! `bakeoff` publishes one CSV under both philosophies — the paper's SPS
//! data perturbation and a calibrated binomial-DP contingency release
//! (Theorem 1 of arXiv 1805.10559) — and scores the same query pool
//! against both, reporting per-query estimates/CI widths and per-mechanism
//! bias, |error|, RMSE, relative error and CI width.
//!
//! `publish --adult <path>` loads the raw UCI ADULT file when it exists
//! (falling back to `RP_ADULT_PATH`, then to the synthetic shape-matched
//! generator), so paper figures can be validated against the real data.
//!
//! Robustness knobs: every TCP client arms a socket read deadline
//! (`--timeout MS`, default 30000, `0` disables) so a stalled server
//! produces a clear error and a nonzero exit instead of blocking forever;
//! `serve` can arm per-connection `--read-timeout`/`--write-timeout`
//! deadlines so idle sessions are reaped and their connection slots
//! freed. `--fault-fsync-at N` arms deterministic fault injection on the
//! streaming release — the Nth WAL fsync fails, counted from the stream's
//! open (creating a fresh WAL takes two), the stream poisons and degrades
//! to read-only (`error code=degraded`), and `reload` recovers it from
//! disk. That flag exists for the fault-matrix CI round and for
//! rehearsing the degradation contract; never use it in production.
//!
//! Observability (rp/5): `metrics` scrapes a live server's counter and
//! latency-histogram registry (`rp_engine::obs`) — p50/p90/p99/max per
//! instrumented stage — and `trace` tails its bounded ring of structured
//! events (session lifecycle, cache hit/miss, commit flushes, faults,
//! degradation). `serve --trace-buffer N` resizes that ring (`0`
//! disables tracing). Scraping reads the registry without touching any
//! response bytes of the other verbs.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use rp_core::audit::{audit, render as render_audit};
use rp_core::generalize::Generalization;
use rp_core::groups::{PersonalGroups, SaSpec};
use rp_core::privacy::PrivacyParams;
use rp_datagen::adult::AdultSource;
use rp_engine::{
    serve, Catalog, FaultHandle, FaultSchedule, Publication, PublicationError, Publisher,
    QueryEngine, QueryService, Request, Response, Server, ServerConfig, ServiceConfig,
    StreamConfig, StreamPublisher, WireAnswer, WireQuery, WireRecord, UNNAMED_RELEASE,
};
use rp_experiments::bakeoff;
use rp_table::{read_csv, write_csv, Pattern, Table, Term};

/// Parsed command-line options.
#[derive(Debug, Default)]
struct Options {
    command: String,
    input: Option<String>,
    publication: Option<String>,
    raw: Option<String>,
    output: Option<String>,
    csv: Option<String>,
    sa: Option<String>,
    p: f64,
    lambda: f64,
    delta: f64,
    seed: u64,
    generalize: bool,
    conditions: Vec<(String, String)>,
    value: Option<String>,
    listen: Option<String>,
    connect: Option<String>,
    max_conns: usize,
    cache: usize,
    wal: Option<String>,
    state_out: Option<String>,
    commit_batch: u64,
    /// Client-side socket read deadline in ms (`0` disables).
    timeout: u64,
    /// Server-side per-connection read deadline in ms (`0` disables).
    read_timeout: u64,
    /// Server-side per-connection write deadline in ms (`0` disables).
    write_timeout: u64,
    /// Fail the Nth WAL fsync of a streaming release (`0` disables).
    fault_fsync_at: u64,
    adult: Option<String>,
    /// `--release` values: `NAME=PATH` pairs for `serve`, a bare release
    /// name for `query`/`reload`.
    releases: Vec<String>,
    dp_epsilon: f64,
    dp_delta: f64,
    dp_p: f64,
    max_queries: usize,
    detail: usize,
    /// `serve --trace-buffer N`: resize the obs trace ring (`0` disables).
    trace_buffer: Option<usize>,
    /// `trace -n N`: how many trailing trace events to fetch.
    trace_n: Option<u64>,
}

impl Options {
    /// The stream tuning the flags describe.
    fn stream_config(&self) -> StreamConfig {
        StreamConfig {
            commit_batch: self.commit_batch,
        }
    }

    /// The server tuning the flags describe (`0` means no deadline).
    fn server_config(&self) -> ServerConfig {
        let deadline = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
        ServerConfig {
            max_conns: self.max_conns,
            read_timeout: deadline(self.read_timeout),
            write_timeout: deadline(self.write_timeout),
        }
    }

    /// The client-side socket read deadline (`--timeout 0` disables).
    fn client_timeout(&self) -> Option<Duration> {
        (self.timeout > 0).then(|| Duration::from_millis(self.timeout))
    }

    /// The fault policy `--fault-fsync-at` describes: a scripted schedule
    /// failing exactly that WAL fsync, or passthrough when unset.
    fn fault_handle(&self) -> FaultHandle {
        if self.fault_fsync_at > 0 {
            Arc::new(FaultSchedule::fsync_at(self.fault_fsync_at))
        } else {
            rp_engine::fault::passthrough()
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rpctl audit   --input FILE --sa COLUMN [--p P --lambda L --delta D]\n  \
         rpctl publish --input FILE | --adult FILE --sa COLUMN --output FILE.rppub [--csv FILE.csv] [--p P --lambda L --delta D --no-generalize --seed N]\n  \
         rpctl query   --publication FILE.rppub --where COL=VALUE ... --value SA_VALUE [--raw FILE.csv]\n  \
         rpctl query   --connect HOST:PORT --where COL=VALUE ... --value SA_VALUE [--release NAME --timeout MS]\n  \
         rpctl serve   --publication FILE.rppub | --release NAME=FILE.rppub [--release NAME=FILE.rppub ...] [--listen HOST:PORT --max-conns N --cache ENTRIES --read-timeout MS --write-timeout MS --trace-buffer N] [--wal FILE.rpwal --state-out FILE.rppub --commit-batch N --fault-fsync-at N]\n  \
         rpctl releases --connect HOST:PORT\n  \
         rpctl reload  --connect HOST:PORT --release NAME\n  \
         rpctl metrics --connect HOST:PORT\n  \
         rpctl trace   --connect HOST:PORT [-n N]\n  \
         rpctl bakeoff --input FILE.csv --sa COLUMN [--p P --lambda L --delta D --seed N --dp-epsilon E --dp-delta D --dp-p P --max-queries N --detail N]\n  \
         rpctl ingest  --connect HOST:PORT --input FILE.csv\n  \
         rpctl ingest  --publication FILE.rppub --wal FILE.rpwal --input FILE.csv --output FILE.rppub [--commit-batch N]\n  \
         rpctl replay  --publication FILE.rppub --wal FILE.rpwal --output FILE.rppub\n  \
         rpctl compact --wal FILE.rpwal [--output FILE.rpwal]"
    );
    ExitCode::from(2)
}

/// How long a TCP client waits on one socket read before declaring the
/// server stalled (`--timeout`, milliseconds; `0` disables).
const DEFAULT_CLIENT_TIMEOUT_MS: u64 = 30_000;

fn parse(args: &[String]) -> Option<Options> {
    let mut opts = Options {
        p: rp_engine::publisher::DEFAULT_P,
        lambda: rp_engine::publisher::DEFAULT_LAMBDA,
        delta: rp_engine::publisher::DEFAULT_DELTA,
        seed: rp_engine::publisher::DEFAULT_SEED,
        generalize: true,
        max_conns: rp_engine::server::DEFAULT_MAX_CONNS,
        cache: rp_engine::service::DEFAULT_CACHE_ENTRIES,
        timeout: DEFAULT_CLIENT_TIMEOUT_MS,
        dp_epsilon: 1.0,
        dp_delta: 1e-6,
        dp_p: 0.5,
        detail: 16,
        ..Options::default()
    };
    let mut it = args.iter();
    opts.command = it.next()?.clone();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--input" => opts.input = Some(it.next()?.clone()),
            "--publication" => opts.publication = Some(it.next()?.clone()),
            "--raw" => opts.raw = Some(it.next()?.clone()),
            "--output" => opts.output = Some(it.next()?.clone()),
            "--csv" => opts.csv = Some(it.next()?.clone()),
            "--sa" => opts.sa = Some(it.next()?.clone()),
            "--p" => opts.p = it.next()?.parse().ok()?,
            "--lambda" => opts.lambda = it.next()?.parse().ok()?,
            "--delta" => opts.delta = it.next()?.parse().ok()?,
            "--seed" => opts.seed = it.next()?.parse().ok()?,
            "--no-generalize" => opts.generalize = false,
            "--where" => {
                let cond = it.next()?;
                let (col, value) = cond.split_once('=')?;
                opts.conditions.push((col.to_string(), value.to_string()));
            }
            "--value" => opts.value = Some(it.next()?.clone()),
            "--listen" => opts.listen = Some(it.next()?.clone()),
            "--connect" => opts.connect = Some(it.next()?.clone()),
            "--max-conns" => {
                opts.max_conns = it.next()?.parse().ok()?;
                if opts.max_conns == 0 {
                    return None;
                }
            }
            "--cache" => opts.cache = it.next()?.parse().ok()?,
            "--wal" => opts.wal = Some(it.next()?.clone()),
            "--state-out" => opts.state_out = Some(it.next()?.clone()),
            "--commit-batch" => opts.commit_batch = it.next()?.parse().ok()?,
            "--timeout" => opts.timeout = it.next()?.parse().ok()?,
            "--read-timeout" => opts.read_timeout = it.next()?.parse().ok()?,
            "--write-timeout" => opts.write_timeout = it.next()?.parse().ok()?,
            "--fault-fsync-at" => opts.fault_fsync_at = it.next()?.parse().ok()?,
            "--adult" => opts.adult = Some(it.next()?.clone()),
            "--release" => opts.releases.push(it.next()?.clone()),
            "--dp-epsilon" => opts.dp_epsilon = it.next()?.parse().ok()?,
            "--dp-delta" => opts.dp_delta = it.next()?.parse().ok()?,
            "--dp-p" => opts.dp_p = it.next()?.parse().ok()?,
            "--max-queries" => opts.max_queries = it.next()?.parse().ok()?,
            "--detail" => opts.detail = it.next()?.parse().ok()?,
            "--trace-buffer" => opts.trace_buffer = Some(it.next()?.parse().ok()?),
            "-n" | "--n" => opts.trace_n = Some(it.next()?.parse().ok()?),
            _ => return None,
        }
    }
    Some(opts)
}

fn load(path: &str) -> Result<Table, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_csv(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn publication_path(opts: &Options) -> Result<&str, String> {
    Ok(opts
        .publication
        .as_deref()
        .ok_or("--publication is required")?)
}

fn load_publication(opts: &Options) -> Result<Publication, String> {
    let path = publication_path(opts)?;
    Publication::load_from_path(path).map_err(|e| format!("cannot load {path}: {e}"))
}

/// The engine over `--publication`, opened with no table built.
fn open_engine(opts: &Options) -> Result<QueryEngine, String> {
    let path = publication_path(opts)?;
    File::open(path)
        .map_err(PublicationError::from)
        .and_then(|file| QueryEngine::open(BufReader::new(file)))
        .map_err(|e| format!("cannot load {path}: {e}"))
}

fn sa_attr(table: &Table, name: &str) -> Result<usize, String> {
    table
        .schema()
        .attr_id(name)
        .map_err(|e| format!("sensitive column: {e}"))
}

fn cmd_audit(opts: &Options) -> Result<(), String> {
    let input = opts.input.as_deref().ok_or("--input is required")?;
    let sa_name = opts.sa.as_deref().ok_or("--sa is required")?;
    let table = load(input)?;
    let sa = sa_attr(&table, sa_name)?;
    let params = PrivacyParams::new(opts.lambda, opts.delta);
    let spec = SaSpec::new(&table, sa);
    let (table, label) = if opts.generalize {
        let g = Generalization::fit(&table, &spec, 0.05);
        (g.apply(&table), "generalized")
    } else {
        (table.clone(), "raw")
    };
    let spec = SaSpec::new(&table, sa);
    let groups = PersonalGroups::build(&table, spec);
    println!(
        "{input}: {} records, {} personal groups ({label} public attributes)",
        table.rows(),
        groups.len()
    );
    print!("{}", render_audit(&audit(&groups, opts.p, params, 10)));
    Ok(())
}

fn cmd_publish(opts: &Options) -> Result<(), String> {
    let output = opts.output.as_deref().ok_or("--output is required")?;
    let sa_name = opts.sa.as_deref().ok_or("--sa is required")?;
    let table = match (&opts.adult, &opts.input) {
        (Some(_), Some(_)) => return Err("--input and --adult are mutually exclusive".into()),
        (Some(adult), None) => {
            let (table, source) =
                rp_datagen::adult::load_or_synthesize(Some(Path::new(adult.as_str())))
                    .map_err(|e| format!("cannot load UCI file: {e}"))?;
            match source {
                AdultSource::Uci(path) => {
                    println!(
                        "loaded UCI ADULT extract: {} ({} records)",
                        path.display(),
                        table.rows()
                    );
                }
                AdultSource::Synthetic => println!(
                    "no UCI file at {adult} (or ${}); using the synthetic ADULT table ({} records)",
                    rp_datagen::adult::RP_ADULT_PATH_ENV,
                    table.rows()
                ),
            }
            table
        }
        (None, Some(input)) => load(input)?,
        (None, None) => return Err("--input or --adult is required".into()),
    };
    let sa = sa_attr(&table, sa_name)?;
    let published_input = if opts.generalize {
        let spec = SaSpec::new(&table, sa);
        let g = Generalization::fit(&table, &spec, 0.05);
        let t = g.apply(&table);
        for ag in g.attributes() {
            let before = table.schema().attribute(ag.attr).domain_size();
            let after = ag.new_domain_size();
            if after < before {
                println!(
                    "generalized {}: {before} -> {after} values",
                    table.schema().attribute(ag.attr).name()
                );
            }
        }
        t
    } else {
        table
    };
    let publication = Publisher::new(published_input)
        .sa(sa)
        .privacy(opts.lambda, opts.delta)
        .retention(opts.p)
        .seed(opts.seed)
        .publish()
        .map_err(|e| e.to_string())?;
    let check = publication.check();
    println!(
        "design check: vg = {:.2}%, vr = {:.2}%",
        100.0 * check.vg(),
        100.0 * check.vr()
    );
    let stats = publication.stats();
    println!(
        "SPS: sampled {} of {} groups; publishing {} records",
        stats.groups_sampled, stats.groups, stats.output_records
    );
    publication
        .save_to_path(output)
        .map_err(|e| format!("cannot write {output}: {e}"))?;
    println!("wrote {output} (p = {}, seed = {})", opts.p, opts.seed);
    if let Some(csv_path) = opts.csv.as_deref() {
        let file = File::create(csv_path).map_err(|e| format!("cannot create {csv_path}: {e}"))?;
        write_csv(publication.table(), BufWriter::new(file))
            .map_err(|e| format!("cannot write: {e}"))?;
        println!("wrote {csv_path} (records only, no metadata)");
    }
    Ok(())
}

fn cmd_query(opts: &Options) -> Result<(), String> {
    if let Some(addr) = opts.connect.as_deref() {
        return cmd_query_remote(opts, addr);
    }
    let value = opts.value.as_deref().ok_or("--value is required")?;
    let engine = open_engine(opts)?;
    let mut conditions: Vec<(&str, &str)> = opts
        .conditions
        .iter()
        .map(|(c, v)| (c.as_str(), v.as_str()))
        .collect();
    let sa_name = engine.schema().attribute(engine.sa()).name().to_string();
    conditions.push((&sa_name, value));
    let query = engine
        .query_from_values(&conditions)
        .map_err(|e| e.to_string())?;
    let answer = engine.answer(&query).map_err(|e| e.to_string())?;
    print_answer(&WireAnswer::from(&answer), engine.p(), "artifact");
    if answer.support == 0 {
        return Ok(());
    }
    if let Some(raw_path) = opts.raw.as_deref() {
        match true_answer(&load(raw_path)?, &conditions) {
            Ok(truth) => println!("(true answer on {raw_path}: {truth})"),
            Err(msg) => println!("(no true answer on {raw_path}: {msg})"),
        }
    }
    Ok(())
}

/// Renders one answer the same way for both query modes (local artifact
/// and TCP client); `p_source` names where `p` came from.
fn print_answer(answer: &WireAnswer, p: f64, p_source: &str) {
    if answer.support == 0 {
        println!("no published records match the WHERE conditions; estimate = 0");
        return;
    }
    println!(
        "estimate = {:.1} records ({} matching rows, reconstructed frequency {:.4}, \
         p = {p} from the {p_source})",
        answer.estimate, answer.support, answer.frequency
    );
    if let Some((lo, hi)) = answer.ci {
        println!(
            "95% CI for the frequency: [{lo:.4}, {hi:.4}] -> counts [{:.1}, {:.1}]",
            answer.support as f64 * lo,
            answer.support as f64 * hi
        );
    }
}

/// An open client session after the `HELLO` handshake: the socket halves
/// plus the banner's release description.
struct RemoteSession {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The armed socket read deadline — kept for the timeout message.
    timeout: Option<Duration>,
    sa: String,
    records: u64,
    p: f64,
}

impl RemoteSession {
    /// Connects, reads the banner, and checks the protocol revision —
    /// the shared head of every TCP client (`query --connect`,
    /// `ingest --connect`). `timeout` arms a socket read deadline so a
    /// stalled server yields a clear error instead of blocking forever.
    fn connect(addr: &str, timeout: Option<Duration>) -> Result<Self, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_read_timeout(timeout)
            .map_err(|e| format!("cannot arm read timeout on {addr}: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone socket: {e}"))?,
        );
        let mut session = Self {
            addr: addr.to_string(),
            reader,
            writer: stream,
            timeout,
            sa: String::new(),
            records: 0,
            p: 0.0,
        };
        let version = match session.read_response()? {
            Response::Hello {
                version,
                sa,
                records,
                p,
                ..
            } => {
                session.sa = sa;
                session.records = records;
                session.p = p;
                version
            }
            // A server at its connection cap refuses with one structured
            // line before any banner — surface the code and retry hint.
            Response::Error { code, message } => {
                return Err(format!("server refused ({code}): {message}"));
            }
            other => {
                return Err(format!(
                    "{addr} did not send a HELLO banner (got `{}`)",
                    other.encode()
                ));
            }
        };
        if version != rp_engine::PROTOCOL_VERSION {
            return Err(format!(
                "{addr} speaks rp/{version}, this client speaks rp/{}; upgrade one side",
                rp_engine::PROTOCOL_VERSION
            ));
        }
        eprintln!(
            "connected to {addr} (rp/{version}, {} records, sa = {})",
            session.records, session.sa
        );
        Ok(session)
    }

    fn read_response(&mut self) -> Result<Response, String> {
        let mut line = String::new();
        self.reader.read_line(&mut line).map_err(|e| {
            // A timed-out blocking read surfaces as WouldBlock (Unix) or
            // TimedOut (Windows); either way the server stalled, not us.
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                let ms = self.timeout.map_or(0, |t| t.as_millis());
                format!(
                    "no response from {} within {ms} ms; the server may be stalled \
                     (raise or disable the deadline with --timeout)",
                    self.addr
                )
            } else {
                format!("read from {}: {e}", self.addr)
            }
        })?;
        if line.is_empty() {
            return Err(format!("{} closed the connection", self.addr));
        }
        Response::parse(&line).map_err(|e| format!("bad response from {}: {e}", self.addr))
    }

    fn send(&mut self, request: &Request) -> Result<(), String> {
        writeln!(self.writer, "{}", request.encode())
            .map_err(|e| format!("write to {}: {e}", self.addr))
    }

    /// Sends one request and reads its response; an `error` line becomes
    /// the `server refused` error.
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.send(request)?;
        match self.read_response()? {
            Response::Error { code, message } => Err(format!("server refused ({code}): {message}")),
            other => Ok(other),
        }
    }

    /// Switches the session to a named catalog release. The `using`
    /// response — not the HELLO banner, which described the *default*
    /// release — is the authority for the active release's SA column,
    /// record count and `p`, so the session fields are rebound from it.
    fn use_release(&mut self, name: &str) -> Result<(), String> {
        self.send(&Request::Use(name.to_string()))?;
        match self.read_response()? {
            Response::Using {
                release,
                sa,
                records,
                p,
                ..
            } => {
                self.sa = sa;
                self.records = records;
                self.p = p;
                eprintln!(
                    "using release {release} ({} records, sa = {})",
                    self.records, self.sa
                );
                Ok(())
            }
            Response::Error { code, message } => {
                Err(format!("cannot use release {name} ({code}): {message}"))
            }
            other => Err(format!("unexpected response: {}", other.encode())),
        }
    }
}

/// The one-shot TCP client: connects to `--connect`, makes one call, and
/// says a best-effort `quit` (the response is already in hand).
fn one_shot(opts: &Options, request: &Request) -> Result<Response, String> {
    let addr = opts.connect.as_deref().ok_or("--connect is required")?;
    let mut session = RemoteSession::connect(addr, opts.client_timeout())?;
    let response = session.call(request);
    let _ = writeln!(session.writer, "quit");
    response
}

/// Speaks the `rp_engine::protocol` over TCP: HELLO banner (which names
/// the SA column), one `count` request, one response, `quit`.
fn cmd_query_remote(opts: &Options, addr: &str) -> Result<(), String> {
    let value = opts.value.as_deref().ok_or("--value is required")?;
    let mut session = RemoteSession::connect(addr, opts.client_timeout())?;
    // Against a catalog server, `--release` pins the tenant; the SA name
    // and `p` used below come from the `using` response, because the
    // HELLO banner described the default release, not this one.
    if let Some(name) = opts.releases.first() {
        session.use_release(name)?;
    }
    let p = session.p;
    let mut conditions: Vec<(String, String)> = opts.conditions.clone();
    conditions.push((session.sa.clone(), value.to_string()));
    let response = session.call(&Request::Query(WireQuery::new(conditions.clone())));
    // Best-effort farewell; the answer is already in hand.
    let _ = writeln!(session.writer, "quit");
    match response? {
        Response::Answer(answer) => {
            print_answer(&answer, p, "server");
            // --raw is a purely client-side comparison; it works the same
            // against a remote server as against a local artifact, and
            // like the local mode it is skipped on empty support.
            if answer.support == 0 {
                return Ok(());
            }
            if let Some(raw_path) = opts.raw.as_deref() {
                let borrowed: Vec<(&str, &str)> = conditions
                    .iter()
                    .map(|(c, v)| (c.as_str(), v.as_str()))
                    .collect();
                match true_answer(&load(raw_path)?, &borrowed) {
                    Ok(truth) => println!("(true answer on {raw_path}: {truth})"),
                    Err(msg) => println!("(no true answer on {raw_path}: {msg})"),
                }
            }
            Ok(())
        }
        other => Err(format!("unexpected response: {}", other.encode())),
    }
}

/// Counts raw rows matching every `(column, value)` condition by resolving
/// the value strings against the raw schema. Generalized values ("a|b")
/// will not resolve there — the caller reports that instead of failing.
fn true_answer(raw: &Table, conditions: &[(&str, &str)]) -> Result<u64, String> {
    let schema = raw.schema();
    let mut resolved = Vec::with_capacity(conditions.len());
    for &(col, value) in conditions {
        let attr = schema.attr_id(col).map_err(|e| e.to_string())?;
        let code = schema
            .attribute(attr)
            .dictionary()
            .code(value)
            .ok_or_else(|| {
                format!("value `{value}` not in raw column `{col}` (generalized label?)")
            })?;
        resolved.push((attr, Term::Value(code)));
    }
    Ok(Pattern::new(resolved).count(raw))
}

/// `serve`: one catalog behind stdio or TCP. `--publication PATH` is a
/// one-release catalog whose release the operator did not name (its
/// banner carries no `release=` token); each `--release NAME=PATH` is one
/// named release, the first being the default that un-qualified verbs
/// hit. With `--wal` the first release streams.
fn cmd_serve(opts: &Options) -> Result<(), String> {
    let (catalog, releases) = match (opts.publication.as_deref(), opts.releases.as_slice()) {
        (Some(path), []) => (Catalog::unnamed(), vec![(UNNAMED_RELEASE, path)]),
        (None, [_, ..]) => {
            let releases = opts
                .releases
                .iter()
                .map(|spec| {
                    spec.split_once('=')
                        .ok_or_else(|| format!("--release wants NAME=PATH, got `{spec}`"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let catalog = Catalog::new(releases[0].0).map_err(|e| e.to_string())?;
            (catalog, releases)
        }
        (Some(_), [_, ..]) => {
            return Err("--release is mutually exclusive with --publication".into())
        }
        (None, []) => return Err("--publication is required".into()),
    };
    if opts.fault_fsync_at > 0 && opts.wal.is_none() {
        return Err("--fault-fsync-at wants a streaming release; add --wal".into());
    }
    apply_trace_buffer(opts);
    let config = ServiceConfig {
        cache_entries: opts.cache,
    };
    for (i, &(name, path)) in releases.iter().enumerate() {
        match opts.wal.as_deref().filter(|_| i == 0) {
            Some(wal) => {
                if opts.fault_fsync_at > 0 {
                    eprintln!(
                        "fault injection armed on release {name}: WAL fsync {} will fail and \
                         degrade the stream to read-only (`reload {name}` recovers)",
                        opts.fault_fsync_at
                    );
                }
                catalog.open_stream_path(
                    name,
                    Path::new(path),
                    Path::new(wal),
                    opts.stream_config(),
                    opts.state_out.as_deref().map(PathBuf::from),
                    config,
                    opts.fault_handle(),
                )
            }
            None => catalog.open_path(name, Path::new(path), config),
        }
        .map_err(|e| e.to_string())?;
        let service = catalog.checkout(name).map_err(|e| e.to_string())?;
        warn_non_token_columns(&service);
        let (sa, records, groups, _) = service.release_summary();
        eprintln!(
            "release {name}: {records} records in {groups} groups (sa = {sa}{}){}",
            if service.is_streaming() { ", live" } else { "" },
            if i == 0 { " [default]" } else { "" }
        );
    }
    eprintln!(
        "serving {} release(s) (cache = {} entries each); one request per line, `quit` to \
         stop; `use NAME`, `releases` and `count@NAME ...` route between releases",
        releases.len(),
        opts.cache,
    );
    let catalog = Arc::new(catalog);
    if let Some(addr) = opts.listen.as_deref() {
        let server = Server::bind_catalog(addr, Arc::clone(&catalog), opts.server_config())
            .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        let bound = server
            .local_addr()
            .map_err(|e| format!("cannot resolve listen address: {e}"))?;
        eprintln!(
            "listening on {bound} (max {} concurrent sessions); \
             connect with `rpctl query --connect {bound} [--release NAME] ...`",
            opts.max_conns
        );
        server.run().map_err(|e| format!("serve loop: {e}"))?;
    } else {
        let stats = serve(&catalog, std::io::stdin().lock(), std::io::stdout().lock())
            .map_err(|e| format!("serve loop: {e}"))?;
        eprintln!(
            "served {} requests ({} answered, {} errors, {} cache hits, {} inserts, \
             {} degraded refusals, {} faults)",
            stats.requests,
            stats.answered,
            stats.errors,
            stats.cache_hits,
            stats.inserts,
            stats.degraded,
            stats.faults
        );
    }
    // Final durability point: sync every stream's WAL (and write its
    // snapshot) so a graceful shutdown never loses acknowledged events.
    for (name, outcome) in catalog.checkpoint_all() {
        match outcome {
            Ok(Some(events)) => eprintln!("checkpoint {name}: {events} events durable"),
            Ok(None) => {}
            Err(e) => eprintln!("warning: final checkpoint of {name} failed: {e}"),
        }
    }
    Ok(())
}

/// The line protocol frames names and values as whitespace-separated
/// tokens; a non-token SA name even breaks the HELLO banner. Serve anyway
/// (other columns stay queryable) but say so up front, from the opened
/// release's schema.
fn warn_non_token_columns(service: &QueryService) {
    let schema = service.engine().schema();
    for attr in 0..schema.arity() {
        let name = schema.attribute(attr).name();
        if !rp_engine::protocol::is_token(name) {
            eprintln!(
                "warning: column `{name}` is not a protocol token (whitespace/`;`/`=`); \
                 it cannot be {} over the wire",
                if attr == service.engine().sa() {
                    "served — HELLO and info lines will not parse"
                } else {
                    "queried"
                }
            );
        }
    }
}

/// `--trace-buffer N` resizes the process-wide obs trace ring before the
/// serve loop starts (`0` disables tracing entirely).
fn apply_trace_buffer(opts: &Options) {
    if let Some(capacity) = opts.trace_buffer {
        rp_engine::obs::global().set_trace_capacity(capacity);
        eprintln!("trace ring: {capacity} events");
    }
}

/// Lists a catalog server's releases over TCP.
fn cmd_releases(opts: &Options) -> Result<(), String> {
    match one_shot(opts, &Request::Releases)? {
        Response::Releases(entries) => {
            for e in &entries {
                println!(
                    "{}: {} records in {} groups (sa = {}{})",
                    e.name,
                    e.records,
                    e.groups,
                    e.sa,
                    if e.live { ", live" } else { "" }
                );
            }
            println!("{} releases", entries.len());
            Ok(())
        }
        other => Err(format!("unexpected response: {}", other.encode())),
    }
}

/// Hot-reloads one release of a catalog server from its source artifact.
fn cmd_reload(opts: &Options) -> Result<(), String> {
    // A missing `--connect` is named before a missing `--release`.
    opts.connect.as_deref().ok_or("--connect is required")?;
    let name = opts
        .releases
        .first()
        .ok_or("--release NAME names the release to reload")?;
    match one_shot(opts, &Request::Reload(name.clone()))? {
        Response::Reloaded {
            release,
            records,
            groups,
        } => {
            println!("reloaded {release}: {records} records in {groups} groups");
            Ok(())
        }
        other => Err(format!("unexpected response: {}", other.encode())),
    }
}

/// Scrapes a live server's metrics registry over TCP: every counter,
/// then every latency histogram with its bucket-derived quantiles.
fn cmd_metrics(opts: &Options) -> Result<(), String> {
    match one_shot(opts, &Request::Metrics)? {
        Response::Metrics {
            counters,
            histograms,
        } => {
            for (name, value) in &counters {
                println!("{name} = {value}");
            }
            for h in &histograms {
                println!(
                    "{}: count={} p50={}ns p90={}ns p99={}ns max={}ns mean={:.1}ns",
                    h.name, h.count, h.p50, h.p90, h.p99, h.max, h.mean
                );
            }
            println!(
                "{} counters, {} histograms",
                counters.len(),
                histograms.len()
            );
            Ok(())
        }
        other => Err(format!("unexpected response: {}", other.encode())),
    }
}

/// Tails a live server's trace ring over TCP: the most recent `-n N`
/// structured events (default: the whole retained ring), oldest first.
fn cmd_trace(opts: &Options) -> Result<(), String> {
    match one_shot(opts, &Request::Trace(opts.trace_n))? {
        Response::Trace(events) => {
            for e in &events {
                println!("{} {}", e.seq, e.label);
            }
            println!("{} trace events", events.len());
            Ok(())
        }
        other => Err(format!("unexpected response: {}", other.encode())),
    }
}

/// SPS vs binomial-DP on one CSV: publish both ways, answer the same
/// query pool, print per-query estimates and per-mechanism utility.
fn cmd_bakeoff(opts: &Options) -> Result<(), String> {
    let input = opts.input.as_deref().ok_or("--input is required")?;
    let sa_name = opts.sa.as_deref().ok_or("--sa is required")?;
    let table = load(input)?;
    let sa = sa_attr(&table, sa_name)?;
    let config = bakeoff::BakeoffConfig {
        p: opts.p,
        lambda: opts.lambda,
        delta: opts.delta,
        seed: opts.seed,
        dp_epsilon: opts.dp_epsilon,
        dp_delta: opts.dp_delta,
        dp_p: opts.dp_p,
        max_queries: opts.max_queries,
    };
    let report = bakeoff::run(&table, sa, &config)?;
    print!("{}", bakeoff::render(&report, opts.detail));
    Ok(())
}

/// Record `row` of an ingest CSV as `(column, value)` pairs.
fn ingest_record(records: &Table, row: usize) -> Result<Vec<(&str, &str)>, String> {
    let values = records.decode_row(row).map_err(|e| e.to_string())?;
    Ok(records.schema().names().into_iter().zip(values).collect())
}

fn cmd_ingest(opts: &Options) -> Result<(), String> {
    let input = opts.input.as_deref().ok_or("--input is required")?;
    let records = load(input)?;
    if let Some(addr) = opts.connect.as_deref() {
        return cmd_ingest_remote(addr, opts.client_timeout(), &records);
    }
    // Local ingest: straight into the WAL, then snapshot.
    let wal = opts
        .wal
        .as_deref()
        .ok_or("--wal is required (or --connect)")?;
    let output = opts.output.as_deref().ok_or("--output is required")?;
    let publication = load_publication(opts)?;
    let mut stream = StreamPublisher::open(publication, Path::new(wal), opts.stream_config())
        .map_err(|e| format!("cannot open stream (wal = {wal}): {e}"))?;
    let mut republished = 0u64;
    for row in 0..records.rows() {
        let outcome = stream
            .insert_values(&ingest_record(&records, row)?)
            .map_err(|e| format!("{input} record {}: {e}", row + 1))?;
        republished += u64::from(outcome.republished);
    }
    stream.flush().map_err(|e| format!("flush: {e}"))?;
    stream
        .save_snapshot(output)
        .map_err(|e| format!("cannot write {output}: {e}"))?;
    println!(
        "ingested {} records ({republished} re-publications); wal = {wal} ({} events), \
         snapshot = {output} ({} live groups, {} live records)",
        records.rows(),
        stream.wal_seq(),
        stream.live_groups(),
        stream.live_records()
    );
    Ok(())
}

/// Feeds the records into a streaming server over TCP: one `insert` line
/// per record, then `flush` (durability on the server), then `quit`.
fn cmd_ingest_remote(addr: &str, timeout: Option<Duration>, records: &Table) -> Result<(), String> {
    let mut session = RemoteSession::connect(addr, timeout)?;
    let mut republished = 0u64;
    for i in 0..records.rows() {
        let record = WireRecord::new(ingest_record(records, i)?);
        session.send(&Request::Insert(record))?;
        match session.read_response()? {
            Response::Inserted { republished: r, .. } => republished += u64::from(r),
            Response::Error { code, message } => {
                return Err(format!("record {} refused ({code}): {message}", i + 1));
            }
            other => return Err(format!("unexpected response: {}", other.encode())),
        }
    }
    session.send(&Request::Flush)?;
    let events = match session.read_response()? {
        Response::Flushed { events } => events,
        Response::Error { code, message } => {
            return Err(format!("flush refused ({code}): {message}"));
        }
        other => return Err(format!("unexpected response: {}", other.encode())),
    };
    let _ = writeln!(session.writer, "quit");
    println!(
        "ingested {} records over {addr} ({republished} re-publications); \
         server durable through event {events}",
        records.rows()
    );
    Ok(())
}

fn cmd_replay(opts: &Options) -> Result<(), String> {
    let wal = opts.wal.as_deref().ok_or("--wal is required")?;
    let output = opts.output.as_deref().ok_or("--output is required")?;
    let publication = load_publication(opts)?;
    let from_snapshot = publication.live().is_some();
    let stream = StreamPublisher::replay(publication, Path::new(wal), opts.stream_config())
        .map_err(|e| format!("replay failed: {e}"))?;
    stream
        .save_snapshot(output)
        .map_err(|e| format!("cannot write {output}: {e}"))?;
    println!(
        "replayed {} through event {} ({}): {} inserts, {} re-publications, \
         {} live groups, {} live records -> {output}",
        wal,
        stream.wal_seq(),
        if from_snapshot {
            "snapshot + tail"
        } else {
            "clean start"
        },
        stream.inserted(),
        stream.republished(),
        stream.live_groups(),
        stream.live_records()
    );
    Ok(())
}

fn cmd_compact(opts: &Options) -> Result<(), String> {
    let wal = opts.wal.as_deref().ok_or("--wal is required")?;
    // Default is in place: the rewrite is atomic (temp file + rename),
    // so a crash mid-compaction leaves the original log intact.
    let output = opts.output.as_deref().unwrap_or(wal);
    let stats = rp_engine::stream::wal::compact_wal(Path::new(wal), Path::new(output))
        .map_err(|e| format!("cannot compact {wal}: {e}"))?;
    println!(
        "compacted {wal} -> {output}: {} events in, {} retained, {} absorbed \
         into {} group state records (floor = event {})",
        stats.events_in, stats.events_out, stats.absorbed, stats.groups, stats.floor_seq
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(opts) = parse(&args) else {
        return usage();
    };
    let result = match opts.command.as_str() {
        "audit" => cmd_audit(&opts),
        "publish" => cmd_publish(&opts),
        "query" => cmd_query(&opts),
        "serve" => cmd_serve(&opts),
        "ingest" => cmd_ingest(&opts),
        "replay" => cmd_replay(&opts),
        "compact" => cmd_compact(&opts),
        "releases" => cmd_releases(&opts),
        "reload" => cmd_reload(&opts),
        "metrics" => cmd_metrics(&opts),
        "trace" => cmd_trace(&opts),
        "bakeoff" => cmd_bakeoff(&opts),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
