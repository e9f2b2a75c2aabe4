//! The typed wire protocol of the query service: [`Request`] and
//! [`Response`] enums with a canonical line-oriented encoding.
//!
//! One request per line, one response per line. Every transport — the
//! stdio loop of [`crate::serve::serve`] and the TCP listener of
//! [`crate::server::Server`] — speaks exactly this grammar, so a session
//! transcript is transport-independent byte for byte:
//!
//! ```text
//! request  := "ping" | "quit" | "info" | "stats" | "flush"
//!           | "metrics" | "trace" [" " N]
//!           | ["count "] cond (" " cond)*
//!           | "batch " query ("; " query)*
//!           | "insert " cond (" " cond)*      (one cond per schema column)
//!           | "use " RELEASE | "releases" | "reload " RELEASE
//!           | qverb "@" RELEASE rest          (qverb: count|batch|insert|flush|info)
//! cond     := COLUMN "=" VALUE              (tokens: no whitespace / ";")
//! query    := ["count "] cond (" " cond)*
//! RELEASE  := token without "@"
//!
//! response := "HELLO rp/5 sa=" NAME " records=" N " groups=" N " p=" P
//!             [" release=" RELEASE]
//!           | "pong" | "bye"
//!           | "publication sa=" NAME " records=" N " groups=" N " p=" P
//!             [" lambda=" L " delta=" D " seed=" S]
//!           | "est=" E " support=" N " observed=" N " f=" F
//!             [" ci95=" LO "," HI]
//!           | "batch " N "; " answer ("; " answer)*
//!           | "inserted group_size=" N " republished=" ("true"|"false")
//!           | "flushed events=" N
//!           | "using release=" RELEASE " sa=" NAME " records=" N " groups=" N " p=" P
//!           | "releases " N "; " entry ("; " entry)*
//!             entry := "name=" RELEASE " sa=" NAME " records=" N " groups=" N
//!                      " live=" ("true"|"false")
//!           | "reloaded release=" RELEASE " records=" N " groups=" N
//!           | "stats requests=" N " answered=" N " errors=" N
//!             " cache_hits=" N " cache_misses=" N " sessions=" N
//!             " inserts=" N " degraded=" N " faults=" N
//!           | "metrics counters=" N " hists=" N (" c:" NAME "=" N)*
//!             (" h:" NAME "=" COUNT ":" P50 ":" P90 ":" P99 ":" MAX ":" MEAN)*
//!           | "trace n=" N (" seq=" N " label=" LABEL)*
//!           | "error code=" CODE " " MESSAGE
//! ```
//!
//! `insert` and `flush` are the streaming pair (rp/2): they mutate the
//! live release behind a [`crate::QueryService`] opened in streaming
//! mode, and answer `error code=read-only` on a static artifact.
//!
//! The catalog verbs (rp/3) route a session among the named releases of a
//! [`crate::catalog::Catalog`]: `use` rebinds the session's default
//! release, `releases` lists the open ones, `reload` hot-swaps one from
//! its source artifact, and a `verb@release` qualifier answers a single
//! request against a named release without rebinding. Un-qualified verbs
//! keep their rp/2 meaning against the session's current (initially the
//! catalog's default) release, so an rp/2 transcript replayed against a
//! catalog session still parses and routes. On a single-release server
//! the catalog verbs answer `error code=unknown-release`.
//!
//! The degradation surface (rp/4): a release whose WAL poisoned after a
//! failed write or fsync answers `insert`/`flush` with
//! `error code=degraded` — the message reports the durable sequence
//! number, the loss boundary a client can trust — while queries keep
//! answering from the in-memory state. `stats` gained the `degraded`
//! and `faults` counters, and catalog `reload` is the recovery path.
//!
//! The observability surface (rp/5): `metrics` renders the process-wide
//! [`crate::obs`] registry — counters as `c:name=value`, histograms as
//! `h:name=count:p50:p90:p99:max:mean` (nanoseconds; `mean` is the one
//! float, canonically encoded) — merged with the serving counters of the
//! answering service under `service.*` names, all sorted by name.
//! `trace [N]` returns the most recent `N` ring-buffered trace events
//! (all buffered events when `N` is omitted), oldest first. Both verbs
//! only *read* instrumentation: they change zero response bytes of every
//! other verb.
//!
//! Parsing and encoding are exact inverses over the canonical forms:
//! `parse(encode(x)) == x` for every value expressible in the token
//! grammar (floats are encoded with Rust's shortest round-trip
//! `Display`). Names and values containing whitespace, `;`, or newlines
//! cannot be framed on this line protocol: a schema whose SA column name
//! is not a token produces an unparseable `HELLO` banner, and such
//! values cannot be queried over the wire (use [`is_token`] to check;
//! `rpctl serve` warns about non-token schemas at startup). The parser
//! additionally accepts
//! a few human conveniences — the optional `count` verb, the `exit` alias
//! for `quit`, surrounding whitespace — which normalize into the same
//! typed values. Errors are structured: every failure carries an
//! [`ErrorCode`] so clients can distinguish a malformed line from an
//! invalid query without string matching.

use std::fmt;

use crate::codec::canon_f64;

/// Protocol revision spoken by this build, advertised in the
/// [`Response::Hello`] banner as `rp/<version>`. Revision 2 added the
/// streaming pair (`insert`/`flush`, `inserted`/`flushed`), the
/// `read-only` error code and the `inserts` stats counter. Revision 3
/// added the catalog verbs (`use`/`releases`/`reload`, the `verb@release`
/// qualifier, the `using`/`releases`/`reloaded` responses), the optional
/// `release=` token on the banner and the `unknown-release` error code.
/// Revision 4 added the `degraded` error code (a poisoned live release
/// refusing writes after a failed WAL write or fsync) and the `degraded`
/// and `faults` stats counters. Revision 5 added the observability pair
/// (`metrics`/`trace [N]`, the `metrics`/`trace` responses) exposing the
/// [`crate::obs`] registry.
pub const PROTOCOL_VERSION: u32 = 5;

/// Whether `s` can ride the line protocol as a single token in any
/// position (non-empty, no whitespace, no `;`, no `=`). Column names and
/// values that fail this cannot be framed in requests, and a non-token
/// SA column name breaks the `HELLO` / `publication` response lines.
/// (`=` is conservative: a value containing `=` happens to survive the
/// first-`=` condition split, but a column name never does.)
pub fn is_token(s: &str) -> bool {
    !s.is_empty() && !s.contains(char::is_whitespace) && !s.contains([';', '='])
}

/// Whether `s` can name a catalog release on the wire: a [token](is_token)
/// that additionally contains no `@` (the qualifier separator in
/// `count@release ...`).
pub fn is_release_name(s: &str) -> bool {
    is_token(s) && !s.contains('@')
}

/// Machine-readable failure classes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The request line did not parse (bad token, empty batch, ...).
    Parse,
    /// The first token is neither a known verb nor a `Column=value` pair.
    UnknownCommand,
    /// The request parsed but the query failed engine validation
    /// (unknown column or value, missing or duplicate SA condition).
    BadQuery,
    /// The server refused the connection at its concurrency cap.
    Busy,
    /// The service failed internally; the session stays up.
    Internal,
    /// An `insert`/`flush` reached a service without a live stream
    /// behind it (static artifact, no WAL).
    ReadOnly,
    /// A catalog verb named a release the server does not host — or
    /// reached a single-release server with no catalog at all.
    UnknownRelease,
    /// An `insert`/`flush` reached a live release whose WAL poisoned
    /// after a failed write or fsync: the release is read-only until it
    /// is reloaded from disk. The message reports the durable sequence
    /// number — everything past it should be considered lost.
    Degraded,
}

impl ErrorCode {
    /// The wire token of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::UnknownCommand => "unknown-command",
            ErrorCode::BadQuery => "bad-query",
            ErrorCode::Busy => "busy",
            ErrorCode::Internal => "internal",
            ErrorCode::ReadOnly => "read-only",
            ErrorCode::UnknownRelease => "unknown-release",
            ErrorCode::Degraded => "degraded",
        }
    }

    /// Parses a wire token back into a code.
    pub fn from_str_token(s: &str) -> Option<Self> {
        Some(match s {
            "parse" => ErrorCode::Parse,
            "unknown-command" => ErrorCode::UnknownCommand,
            "bad-query" => ErrorCode::BadQuery,
            "busy" => ErrorCode::Busy,
            "internal" => ErrorCode::Internal,
            "read-only" => ErrorCode::ReadOnly,
            "unknown-release" => ErrorCode::UnknownRelease,
            "degraded" => ErrorCode::Degraded,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A protocol-level failure: what went wrong and which [`ErrorCode`] the
/// service should answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The failure class.
    pub code: ErrorCode,
    /// Human-readable single-line detail.
    pub message: String,
}

impl ProtocolError {
    fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// One count query as it appears on the wire: unresolved
/// `(column, value)` string conditions. Resolution against the release
/// schema (and the SA split) happens in the service layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WireQuery {
    /// Equality conditions in request order.
    pub conditions: Vec<(String, String)>,
}

impl WireQuery {
    /// Builds a wire query from `(column, value)` pairs.
    pub fn new<C: Into<String>, V: Into<String>>(conditions: Vec<(C, V)>) -> Self {
        Self {
            conditions: conditions
                .into_iter()
                .map(|(c, v)| (c.into(), v.into()))
                .collect(),
        }
    }

    fn encode_into(&self, out: &mut String) {
        out.push_str("count");
        for (col, value) in &self.conditions {
            out.push(' ');
            out.push_str(col);
            out.push('=');
            out.push_str(value);
        }
    }

    /// Parses the body of a query (the `count` verb already stripped if
    /// present). At least one condition is required.
    fn parse_body(body: &str) -> Result<Self, ProtocolError> {
        let mut conditions = Vec::new();
        for token in body.split_whitespace() {
            let (col, value) = token.split_once('=').ok_or_else(|| {
                ProtocolError::new(
                    ErrorCode::Parse,
                    format!("expected Column=value, got `{token}`"),
                )
            })?;
            if col.is_empty() || value.is_empty() {
                return Err(ProtocolError::new(
                    ErrorCode::Parse,
                    format!("empty column or value in `{token}`"),
                ));
            }
            conditions.push((col.to_string(), value.to_string()));
        }
        if conditions.is_empty() {
            return Err(ProtocolError::new(
                ErrorCode::Parse,
                "empty query; try `count Column=value ... SA=value`",
            ));
        }
        Ok(Self { conditions })
    }
}

/// One record to insert, as it appears on the wire: unresolved
/// `(column, value)` string fields. The service resolves them against
/// the live schema — every column must appear exactly once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WireRecord {
    /// `(column, value)` fields in request order.
    pub fields: Vec<(String, String)>,
}

impl WireRecord {
    /// Builds a wire record from `(column, value)` pairs.
    pub fn new<C: Into<String>, V: Into<String>>(fields: Vec<(C, V)>) -> Self {
        Self {
            fields: fields
                .into_iter()
                .map(|(c, v)| (c.into(), v.into()))
                .collect(),
        }
    }

    fn encode_into(&self, out: &mut String) {
        out.push_str("insert");
        for (col, value) in &self.fields {
            out.push(' ');
            out.push_str(col);
            out.push('=');
            out.push_str(value);
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Request {
    /// Answer one count query.
    Query(WireQuery),
    /// Answer several queries, each exactly as a `count` line would be.
    Batch(Vec<WireQuery>),
    /// Insert one record into the live release (streaming services).
    Insert(WireRecord),
    /// Commit the live release: sync the WAL (and write the snapshot,
    /// when the server is configured with one).
    Flush,
    /// Describe the release being served.
    Info,
    /// Report aggregate service counters.
    Stats,
    /// Render the process-wide observability registry (rp/5): counters
    /// and histogram summaries, merged with the answering service's own
    /// counters under `service.*` names.
    Metrics,
    /// Return the most recent `N` trace events from the observability
    /// ring buffer, oldest first (`None` = all buffered events) (rp/5).
    Trace(Option<u64>),
    /// Liveness probe.
    Ping,
    /// End the session.
    Quit,
    /// Rebind the session's default release (catalog sessions, rp/3).
    Use(String),
    /// List the releases the catalog hosts (rp/3).
    Releases,
    /// Hot-swap a release from its source artifact (rp/3).
    Reload(String),
    /// Answer one request against a named release without rebinding the
    /// session, encoded as `verb@release ...` (rp/3). Only
    /// [`Request::Query`], [`Request::Batch`], [`Request::Insert`],
    /// [`Request::Flush`] and [`Request::Info`] can be qualified; an
    /// `At` wrapping any other variant (or a nested `At`) is outside the
    /// wire grammar and encodes to a line the parser rejects.
    At {
        /// The release the inner request is routed to.
        release: String,
        /// The qualified request.
        inner: Box<Request>,
    },
}

impl Request {
    /// Encodes the canonical line for this request (no trailing newline).
    ///
    /// Encoding never fails, but only values inside the wire grammar
    /// produce parseable lines: a [`Request::Batch`] with no queries, a
    /// [`WireQuery`] with no conditions, or names/values that are not
    /// tokens (see [`is_token`]) encode to lines the parser — and thus
    /// the server — rejects.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        match self {
            Request::Query(q) => q.encode_into(&mut out),
            Request::Batch(queries) => {
                out.push_str("batch ");
                for (i, q) in queries.iter().enumerate() {
                    if i > 0 {
                        out.push_str("; ");
                    }
                    q.encode_into(&mut out);
                }
            }
            Request::Insert(record) => record.encode_into(&mut out),
            Request::Flush => out.push_str("flush"),
            Request::Info => out.push_str("info"),
            Request::Stats => out.push_str("stats"),
            Request::Metrics => out.push_str("metrics"),
            Request::Trace(n) => {
                out.push_str("trace");
                if let Some(n) = n {
                    put(&mut out, format_args!(" {n}"));
                }
            }
            Request::Ping => out.push_str("ping"),
            Request::Quit => out.push_str("quit"),
            Request::Use(release) => {
                out.push_str("use ");
                out.push_str(release);
            }
            Request::Releases => out.push_str("releases"),
            Request::Reload(release) => {
                out.push_str("reload ");
                out.push_str(release);
            }
            Request::At { release, inner } => {
                // Splice `@release` onto the inner verb token: `count
                // Job=eng` becomes `count@alpha Job=eng`. Inner variants
                // outside the qualifiable set produce out-of-grammar
                // lines, like other unencodable values.
                let line = inner.encode();
                match line.split_once(' ') {
                    Some((verb, rest)) => {
                        out.push_str(verb);
                        out.push('@');
                        out.push_str(release);
                        out.push(' ');
                        out.push_str(rest);
                    }
                    None => {
                        out.push_str(&line);
                        out.push('@');
                        out.push_str(release);
                    }
                }
            }
        }
        out
    }

    fn parse_insert_body(rest: &str) -> Result<Self, ProtocolError> {
        if rest.trim().is_empty() {
            return Err(ProtocolError::new(
                ErrorCode::Parse,
                "empty record; try `insert Column=value ...` covering every column",
            ));
        }
        Ok(Request::Insert(WireRecord {
            fields: WireQuery::parse_body(rest)?.conditions,
        }))
    }

    fn parse_batch_body(rest: &str) -> Result<Self, ProtocolError> {
        if rest.trim().is_empty() {
            return Err(ProtocolError::new(ErrorCode::Parse, "empty batch"));
        }
        let mut queries = Vec::new();
        for part in rest.split(';') {
            let part = part.trim();
            let body = part.strip_prefix("count ").unwrap_or(part);
            queries.push(WireQuery::parse_body(body)?);
        }
        Ok(Request::Batch(queries))
    }

    /// Parses one request line. Returns `Ok(None)` for blank lines (the
    /// serve loops skip them without counting a request).
    ///
    /// rp/3 reserves `@` in the verb position for the release qualifier,
    /// so an un-verbed condition query whose *first column name* contains
    /// `@` must spell the `count` verb explicitly; `@` anywhere else
    /// (values, later columns) is unaffected.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] with [`ErrorCode::Parse`] on malformed
    /// lines and [`ErrorCode::UnknownCommand`] when the first token is
    /// neither a verb nor a `Column=value` condition.
    pub fn parse(line: &str) -> Result<Option<Self>, ProtocolError> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(None);
        }
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim_start()),
            None => (line, ""),
        };
        // `verb@release` qualifier (rp/3). A `=` before the `@` means the
        // token is really a condition like `Job=a@b`; fall through.
        if let Some((base, release)) = verb.split_once('@') {
            if !base.contains('=') {
                if !is_release_name(release) {
                    return Err(ProtocolError::new(
                        ErrorCode::Parse,
                        format!("bad release name `{release}` in `{verb}`"),
                    ));
                }
                let inner = match base {
                    "count" => Request::Query(WireQuery::parse_body(rest)?),
                    "batch" => Request::parse_batch_body(rest)?,
                    "insert" => Request::parse_insert_body(rest)?,
                    "flush" | "info" => {
                        if !rest.is_empty() {
                            return Err(ProtocolError::new(
                                ErrorCode::Parse,
                                format!("`{base}@{release}` takes no arguments"),
                            ));
                        }
                        if base == "flush" {
                            Request::Flush
                        } else {
                            Request::Info
                        }
                    }
                    _ => {
                        return Err(ProtocolError::new(
                            ErrorCode::UnknownCommand,
                            format!(
                                "unknown qualified command `{base}`; only count/batch/insert/flush/info take @{release}"
                            ),
                        ));
                    }
                };
                return Ok(Some(Request::At {
                    release: release.to_string(),
                    inner: Box::new(inner),
                }));
            }
        }
        let no_args = |req: Request| {
            if rest.is_empty() {
                Ok(Some(req))
            } else {
                Err(ProtocolError::new(
                    ErrorCode::Parse,
                    format!("`{verb}` takes no arguments"),
                ))
            }
        };
        let release_arg = || {
            if !is_release_name(rest) {
                return Err(ProtocolError::new(
                    ErrorCode::Parse,
                    format!("`{verb}` expects one release name, got `{rest}`"),
                ));
            }
            Ok(rest.to_string())
        };
        match verb {
            "quit" | "exit" => no_args(Request::Quit),
            "ping" => no_args(Request::Ping),
            "info" => no_args(Request::Info),
            "stats" => no_args(Request::Stats),
            "metrics" => no_args(Request::Metrics),
            "trace" => {
                if rest.is_empty() {
                    Ok(Some(Request::Trace(None)))
                } else {
                    Ok(Some(Request::Trace(Some(parse_u64(rest)?))))
                }
            }
            "flush" => no_args(Request::Flush),
            "releases" => no_args(Request::Releases),
            "use" => Ok(Some(Request::Use(release_arg()?))),
            "reload" => Ok(Some(Request::Reload(release_arg()?))),
            "count" => Ok(Some(Request::Query(WireQuery::parse_body(rest)?))),
            "insert" => Ok(Some(Request::parse_insert_body(rest)?)),
            "batch" => Ok(Some(Request::parse_batch_body(rest)?)),
            _ if verb.contains('=') => Ok(Some(Request::Query(WireQuery::parse_body(line)?))),
            _ => Err(ProtocolError::new(
                ErrorCode::UnknownCommand,
                format!(
                    "unknown command `{verb}`; try count/batch/insert/flush/info/stats/metrics/trace/ping/quit/use/releases/reload"
                ),
            )),
        }
    }
}

/// One answered query as encoded on the wire. Mirrors
/// [`crate::Answer`] but keeps only the wire-visible fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireAnswer {
    /// The Section-6 estimate `est = |S*| · F′`.
    pub estimate: f64,
    /// Published records matching the NA conditions.
    pub support: u64,
    /// Matching records carrying the queried SA value.
    pub observed: u64,
    /// The reconstructed frequency `F′`.
    pub frequency: f64,
    /// 95% confidence interval `(lo, hi)` for `F′`, absent on empty
    /// support.
    pub ci: Option<(f64, f64)>,
}

impl From<&crate::Answer> for WireAnswer {
    fn from(a: &crate::Answer) -> Self {
        Self {
            estimate: a.estimate,
            support: a.support,
            observed: a.observed,
            frequency: a.frequency,
            ci: a.ci.map(|ci| (ci.lo, ci.hi)),
        }
    }
}

impl WireAnswer {
    fn encode_into(&self, out: &mut String) {
        put(
            out,
            format_args!(
                "est={} support={} observed={} f={}",
                canon_f64(self.estimate),
                self.support,
                self.observed,
                canon_f64(self.frequency)
            ),
        );
        if let Some((lo, hi)) = self.ci {
            put(
                out,
                format_args!(" ci95={},{}", canon_f64(lo), canon_f64(hi)),
            );
        }
    }

    fn parse_body(part: &str) -> Result<Self, ProtocolError> {
        let bad = |msg: &str| ProtocolError::new(ErrorCode::Parse, format!("answer: {msg}"));
        let mut estimate = None;
        let mut support = None;
        let mut observed = None;
        let mut frequency = None;
        let mut ci = None;
        for token in part.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| bad(&format!("expected key=value, got `{token}`")))?;
            match key {
                "est" => estimate = Some(parse_f64(value)?),
                "support" => support = Some(parse_u64(value)?),
                "observed" => observed = Some(parse_u64(value)?),
                "f" => frequency = Some(parse_f64(value)?),
                "ci95" => {
                    let (lo, hi) = value
                        .split_once(',')
                        .ok_or_else(|| bad("ci95 expects lo,hi"))?;
                    ci = Some((parse_f64(lo)?, parse_f64(hi)?));
                }
                _ => return Err(bad(&format!("unknown field `{key}`"))),
            }
        }
        Ok(Self {
            estimate: estimate.ok_or_else(|| bad("missing est"))?,
            support: support.ok_or_else(|| bad("missing support"))?,
            observed: observed.ok_or_else(|| bad("missing observed"))?,
            frequency: frequency.ok_or_else(|| bad("missing f"))?,
            ci,
        })
    }
}

/// Release parameters reported by [`Response::Info`] when the service was
/// built from a full [`crate::Publication`] artifact (absent for bare
/// histogram-level engines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleaseMeta {
    /// The enforced relative-error threshold λ.
    pub lambda: f64,
    /// The enforced probability floor δ.
    pub delta: f64,
    /// The publication seed.
    pub seed: u64,
}

/// One catalog release as listed by [`Response::Releases`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseEntry {
    /// The release's catalog name.
    pub name: String,
    /// The sensitive attribute's name.
    pub sa: String,
    /// Records in the release.
    pub records: u64,
    /// Personal groups in the release.
    pub groups: u64,
    /// Whether the release has a live stream behind it (accepts
    /// `insert`/`flush`).
    pub live: bool,
}

/// Aggregate service counters reported by [`Response::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Non-empty request lines received.
    pub requests: u64,
    /// Requests answered successfully.
    pub answered: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Single-query answers served from the cache.
    pub cache_hits: u64,
    /// Single-query answers computed and inserted into the cache.
    pub cache_misses: u64,
    /// Sessions started (stdio runs and TCP connections alike).
    pub sessions: u64,
    /// Records inserted into the live release.
    pub inserts: u64,
    /// Requests refused because a live release is degraded (its WAL
    /// poisoned after a failed write or fsync).
    pub degraded: u64,
    /// Storage faults observed by the service: every degradation plus
    /// internal I/O errors on insert/flush/checkpoint paths.
    pub faults: u64,
}

/// One histogram summary as rendered by [`Response::Metrics`]:
/// `h:name=count:p50:p90:p99:max:mean`. Latency histograms are in
/// nanoseconds; `mean` is `sum / count` (0 when empty) and the only
/// float on the metrics line.
#[derive(Debug, Clone, PartialEq)]
pub struct WireHistogram {
    /// The histogram's registry name, e.g. `wal.sync`.
    pub name: String,
    /// Recorded observations.
    pub count: u64,
    /// Derived median upper bound (see [`crate::obs::HistogramSummary`]).
    pub p50: u64,
    /// Derived 90th-percentile upper bound.
    pub p90: u64,
    /// Derived 99th-percentile upper bound.
    pub p99: u64,
    /// Exact observed maximum.
    pub max: u64,
    /// Mean observation (`sum / count`, 0 when empty).
    pub mean: f64,
}

/// One trace-ring entry as rendered by [`Response::Trace`]:
/// `seq=N label=LABEL`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTraceEvent {
    /// Position in the process-wide event stream.
    pub seq: u64,
    /// The sanitized event label, e.g. `session.open`.
    pub label: String,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The versioned banner sent when a session opens.
    Hello {
        /// Protocol revision (see [`PROTOCOL_VERSION`]).
        version: u32,
        /// The sensitive attribute's name.
        sa: String,
        /// Records in the release.
        records: u64,
        /// Personal groups in the release.
        groups: u64,
        /// Retention probability used by the estimator.
        p: f64,
        /// The catalog name of the session's initial release (catalog
        /// servers only; `None` on single-release servers).
        release: Option<String>,
    },
    /// Answer to a [`Request::Query`].
    Answer(WireAnswer),
    /// Answers to a [`Request::Batch`], aligned with the request.
    Batch(Vec<WireAnswer>),
    /// Answer to [`Request::Info`].
    Info {
        /// The sensitive attribute's name.
        sa: String,
        /// Records in the release.
        records: u64,
        /// Personal groups in the release.
        groups: u64,
        /// Retention probability used by the estimator.
        p: f64,
        /// Artifact parameters when served from a [`crate::Publication`].
        release: Option<ReleaseMeta>,
    },
    /// Answer to a [`Request::Insert`].
    Inserted {
        /// Raw size of the record's group after the insert.
        group_size: u64,
        /// Whether the insert pushed the group past `sg` and it was
        /// re-sampled through SPS.
        republished: bool,
    },
    /// Answer to [`Request::Flush`]: the WAL is durable through this
    /// many events.
    ///
    /// Flush is the protocol's durability barrier. Under group commit
    /// an `inserted` response only acknowledges that the event is
    /// *logged* — it may sit in the commit batch's OS buffer until the
    /// batch fills, the commit window expires, or this request forces
    /// the sync. A client that needs an insert to survive a crash sends
    /// `flush` and waits for `flushed` before acting on it.
    Flushed {
        /// Sequence number of the last durable event.
        events: u64,
    },
    /// Answer to a [`Request::Use`]: the session is now bound to this
    /// release, whose banner-level parameters follow so clients can
    /// retarget (notably the SA name for un-columned query values).
    Using {
        /// The release the session now speaks to.
        release: String,
        /// The sensitive attribute's name.
        sa: String,
        /// Records in the release.
        records: u64,
        /// Personal groups in the release.
        groups: u64,
        /// Retention probability used by the estimator.
        p: f64,
    },
    /// Answer to [`Request::Releases`].
    Releases(Vec<ReleaseEntry>),
    /// Answer to a [`Request::Reload`]: the release was hot-swapped from
    /// its source artifact.
    Reloaded {
        /// The reloaded release's catalog name.
        release: String,
        /// Records in the freshly loaded artifact.
        records: u64,
        /// Personal groups in the freshly loaded artifact.
        groups: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Answer to [`Request::Metrics`] (rp/5): every counter and histogram
    /// summary, sorted by name within each class.
    Metrics {
        /// `c:name=value` counters, sorted by name.
        counters: Vec<(String, u64)>,
        /// `h:name=...` histogram summaries, sorted by name.
        histograms: Vec<WireHistogram>,
    },
    /// Answer to a [`Request::Trace`] (rp/5): the requested tail of the
    /// trace ring, oldest first.
    Trace(Vec<WireTraceEvent>),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Session farewell (answer to [`Request::Quit`]).
    Bye,
    /// A structured failure; the session keeps serving.
    Error {
        /// The failure class.
        code: ErrorCode,
        /// Single-line human-readable detail.
        message: String,
    },
}

fn parse_f64(s: &str) -> Result<f64, ProtocolError> {
    s.parse()
        .map_err(|_| ProtocolError::new(ErrorCode::Parse, format!("bad float `{s}`")))
}

fn parse_u64(s: &str) -> Result<u64, ProtocolError> {
    s.parse()
        .map_err(|_| ProtocolError::new(ErrorCode::Parse, format!("bad integer `{s}`")))
}

/// Splits `key=value` asserting the expected key.
fn expect_kv<'a>(token: Option<&'a str>, key: &str) -> Result<&'a str, ProtocolError> {
    let token =
        token.ok_or_else(|| ProtocolError::new(ErrorCode::Parse, format!("missing {key}=")))?;
    token
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| {
            ProtocolError::new(
                ErrorCode::Parse,
                format!("expected {key}=..., got `{token}`"),
            )
        })
}

/// Appends formatted text to a response buffer. Every encoder routes
/// through here so the serving stack carries exactly one waived panic
/// site for the infallible `fmt::Write`-to-`String` case.
fn put(out: &mut String, args: fmt::Arguments<'_>) {
    use fmt::Write;
    // rp-analyze: allow(no-panic-serving, "fmt::Write to a String is infallible; sole waived expect for all wire encoders")
    out.write_fmt(args).expect("infallible String write");
}

impl Response {
    /// Encodes the canonical line for this response (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        match self {
            Response::Hello {
                version,
                sa,
                records,
                groups,
                p,
                release,
            } => {
                put(
                    &mut out,
                    format_args!(
                        "HELLO rp/{version} sa={sa} records={records} groups={groups} p={}",
                        canon_f64(*p)
                    ),
                );
                if let Some(release) = release {
                    put(&mut out, format_args!(" release={release}"));
                }
            }
            Response::Answer(a) => a.encode_into(&mut out),
            Response::Batch(answers) => {
                put(&mut out, format_args!("batch {}", answers.len()));
                for a in answers {
                    out.push_str("; ");
                    a.encode_into(&mut out);
                }
            }
            Response::Info {
                sa,
                records,
                groups,
                p,
                release,
            } => {
                put(
                    &mut out,
                    format_args!(
                        "publication sa={sa} records={records} groups={groups} p={}",
                        canon_f64(*p)
                    ),
                );
                if let Some(meta) = release {
                    put(
                        &mut out,
                        format_args!(
                            " lambda={} delta={} seed={}",
                            canon_f64(meta.lambda),
                            canon_f64(meta.delta),
                            meta.seed
                        ),
                    );
                }
            }
            Response::Inserted {
                group_size,
                republished,
            } => {
                put(
                    &mut out,
                    format_args!("inserted group_size={group_size} republished={republished}"),
                );
            }
            Response::Flushed { events } => {
                put(&mut out, format_args!("flushed events={events}"));
            }
            Response::Using {
                release,
                sa,
                records,
                groups,
                p,
            } => {
                put(
                    &mut out,
                    format_args!(
                        "using release={release} sa={sa} records={records} groups={groups} p={}",
                        canon_f64(*p)
                    ),
                );
            }
            Response::Releases(entries) => {
                put(&mut out, format_args!("releases {}", entries.len()));
                for e in entries {
                    put(
                        &mut out,
                        format_args!(
                            "; name={} sa={} records={} groups={} live={}",
                            e.name, e.sa, e.records, e.groups, e.live
                        ),
                    );
                }
            }
            Response::Reloaded {
                release,
                records,
                groups,
            } => {
                put(
                    &mut out,
                    format_args!("reloaded release={release} records={records} groups={groups}"),
                );
            }
            Response::Stats(s) => {
                put(
                    &mut out,
                    format_args!(
                        "stats requests={} answered={} errors={} cache_hits={} cache_misses={} sessions={} inserts={} degraded={} faults={}",
                        s.requests, s.answered, s.errors, s.cache_hits, s.cache_misses, s.sessions, s.inserts, s.degraded, s.faults
                    ),
                );
            }
            Response::Metrics {
                counters,
                histograms,
            } => {
                put(
                    &mut out,
                    format_args!(
                        "metrics counters={} hists={}",
                        counters.len(),
                        histograms.len()
                    ),
                );
                for (name, value) in counters {
                    put(&mut out, format_args!(" c:{name}={value}"));
                }
                for h in histograms {
                    put(
                        &mut out,
                        format_args!(
                            " h:{}={}:{}:{}:{}:{}:{}",
                            h.name,
                            h.count,
                            h.p50,
                            h.p90,
                            h.p99,
                            h.max,
                            canon_f64(h.mean)
                        ),
                    );
                }
            }
            Response::Trace(events) => {
                put(&mut out, format_args!("trace n={}", events.len()));
                for e in events {
                    put(&mut out, format_args!(" seq={} label={}", e.seq, e.label));
                }
            }
            Response::Pong => out.push_str("pong"),
            Response::Bye => out.push_str("bye"),
            Response::Error { code, message } => {
                put(&mut out, format_args!("error code={code} {message}"));
            }
        }
        out
    }

    /// Parses one response line (the client side of the protocol).
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] with [`ErrorCode::Parse`] on anything
    /// that is not a canonical response line.
    pub fn parse(line: &str) -> Result<Self, ProtocolError> {
        let line = line.trim();
        let bad = |msg: String| ProtocolError::new(ErrorCode::Parse, msg);
        if line == "pong" {
            return Ok(Response::Pong);
        }
        if line == "bye" {
            return Ok(Response::Bye);
        }
        if let Some(rest) = line.strip_prefix("HELLO ") {
            let mut tokens = rest.split_whitespace();
            let proto = tokens
                .next()
                .ok_or_else(|| bad("missing protocol tag".into()))?;
            let version = proto
                .strip_prefix("rp/")
                .ok_or_else(|| bad(format!("expected rp/<version>, got `{proto}`")))?
                .parse()
                .map_err(|_| bad(format!("bad protocol version in `{proto}`")))?;
            let sa = expect_kv(tokens.next(), "sa")?.to_string();
            let records = parse_u64(expect_kv(tokens.next(), "records")?)?;
            let groups = parse_u64(expect_kv(tokens.next(), "groups")?)?;
            let p = parse_f64(expect_kv(tokens.next(), "p")?)?;
            let release = match tokens.next() {
                None => None,
                token => Some(expect_kv(token, "release")?.to_string()),
            };
            return Ok(Response::Hello {
                version,
                sa,
                records,
                groups,
                p,
                release,
            });
        }
        if line.starts_with("est=") {
            return Ok(Response::Answer(WireAnswer::parse_body(line)?));
        }
        if let Some(rest) = line.strip_prefix("batch ") {
            let mut parts = rest.split(';');
            let count: usize = parts
                .next()
                .and_then(|n| n.trim().parse().ok())
                .ok_or_else(|| bad("batch response needs a count".into()))?;
            let answers: Vec<WireAnswer> = parts
                .map(|p| WireAnswer::parse_body(p.trim()))
                .collect::<Result<_, _>>()?;
            if answers.len() != count {
                return Err(bad(format!(
                    "batch count {count} does not match {} answers",
                    answers.len()
                )));
            }
            return Ok(Response::Batch(answers));
        }
        if let Some(rest) = line.strip_prefix("publication ") {
            let mut tokens = rest.split_whitespace();
            let sa = expect_kv(tokens.next(), "sa")?.to_string();
            let records = parse_u64(expect_kv(tokens.next(), "records")?)?;
            let groups = parse_u64(expect_kv(tokens.next(), "groups")?)?;
            let p = parse_f64(expect_kv(tokens.next(), "p")?)?;
            let release = match tokens.next() {
                None => None,
                lambda_token => Some(ReleaseMeta {
                    lambda: parse_f64(expect_kv(lambda_token, "lambda")?)?,
                    delta: parse_f64(expect_kv(tokens.next(), "delta")?)?,
                    seed: parse_u64(expect_kv(tokens.next(), "seed")?)?,
                }),
            };
            return Ok(Response::Info {
                sa,
                records,
                groups,
                p,
                release,
            });
        }
        if let Some(rest) = line.strip_prefix("inserted ") {
            let mut tokens = rest.split_whitespace();
            let group_size = parse_u64(expect_kv(tokens.next(), "group_size")?)?;
            let republished = match expect_kv(tokens.next(), "republished")? {
                "true" => true,
                "false" => false,
                other => return Err(bad(format!("bad republished flag `{other}`"))),
            };
            return Ok(Response::Inserted {
                group_size,
                republished,
            });
        }
        if let Some(rest) = line.strip_prefix("flushed ") {
            let mut tokens = rest.split_whitespace();
            let events = parse_u64(expect_kv(tokens.next(), "events")?)?;
            return Ok(Response::Flushed { events });
        }
        if let Some(rest) = line.strip_prefix("using ") {
            let mut tokens = rest.split_whitespace();
            return Ok(Response::Using {
                release: expect_kv(tokens.next(), "release")?.to_string(),
                sa: expect_kv(tokens.next(), "sa")?.to_string(),
                records: parse_u64(expect_kv(tokens.next(), "records")?)?,
                groups: parse_u64(expect_kv(tokens.next(), "groups")?)?,
                p: parse_f64(expect_kv(tokens.next(), "p")?)?,
            });
        }
        if let Some(rest) = line.strip_prefix("releases ") {
            let mut parts = rest.split(';');
            let count: usize = parts
                .next()
                .and_then(|n| n.trim().parse().ok())
                .ok_or_else(|| bad("releases response needs a count".into()))?;
            let entries: Vec<ReleaseEntry> = parts
                .map(|part| {
                    let mut tokens = part.split_whitespace();
                    Ok(ReleaseEntry {
                        name: expect_kv(tokens.next(), "name")?.to_string(),
                        sa: expect_kv(tokens.next(), "sa")?.to_string(),
                        records: parse_u64(expect_kv(tokens.next(), "records")?)?,
                        groups: parse_u64(expect_kv(tokens.next(), "groups")?)?,
                        live: match expect_kv(tokens.next(), "live")? {
                            "true" => true,
                            "false" => false,
                            other => return Err(bad(format!("bad live flag `{other}`"))),
                        },
                    })
                })
                .collect::<Result<_, _>>()?;
            if entries.len() != count {
                return Err(bad(format!(
                    "releases count {count} does not match {} entries",
                    entries.len()
                )));
            }
            return Ok(Response::Releases(entries));
        }
        if let Some(rest) = line.strip_prefix("reloaded ") {
            let mut tokens = rest.split_whitespace();
            return Ok(Response::Reloaded {
                release: expect_kv(tokens.next(), "release")?.to_string(),
                records: parse_u64(expect_kv(tokens.next(), "records")?)?,
                groups: parse_u64(expect_kv(tokens.next(), "groups")?)?,
            });
        }
        if let Some(rest) = line.strip_prefix("stats ") {
            let mut tokens = rest.split_whitespace();
            return Ok(Response::Stats(StatsSnapshot {
                requests: parse_u64(expect_kv(tokens.next(), "requests")?)?,
                answered: parse_u64(expect_kv(tokens.next(), "answered")?)?,
                errors: parse_u64(expect_kv(tokens.next(), "errors")?)?,
                cache_hits: parse_u64(expect_kv(tokens.next(), "cache_hits")?)?,
                cache_misses: parse_u64(expect_kv(tokens.next(), "cache_misses")?)?,
                sessions: parse_u64(expect_kv(tokens.next(), "sessions")?)?,
                inserts: parse_u64(expect_kv(tokens.next(), "inserts")?)?,
                degraded: parse_u64(expect_kv(tokens.next(), "degraded")?)?,
                faults: parse_u64(expect_kv(tokens.next(), "faults")?)?,
            }));
        }
        if let Some(rest) = line.strip_prefix("metrics ") {
            let mut tokens = rest.split_whitespace();
            let counter_count: usize = parse_u64(expect_kv(tokens.next(), "counters")?)?
                .try_into()
                .map_err(|_| bad("counter count does not fit".into()))?;
            let hist_count: usize = parse_u64(expect_kv(tokens.next(), "hists")?)?
                .try_into()
                .map_err(|_| bad("histogram count does not fit".into()))?;
            let mut counters = Vec::with_capacity(counter_count);
            let mut histograms = Vec::with_capacity(hist_count);
            for token in tokens {
                if let Some(pair) = token.strip_prefix("c:") {
                    let (name, value) = pair
                        .split_once('=')
                        .ok_or_else(|| bad(format!("expected c:name=value, got `{token}`")))?;
                    if name.is_empty() {
                        return Err(bad(format!("empty counter name in `{token}`")));
                    }
                    counters.push((name.to_string(), parse_u64(value)?));
                } else if let Some(pair) = token.strip_prefix("h:") {
                    let (name, value) = pair
                        .split_once('=')
                        .ok_or_else(|| bad(format!("expected h:name=summary, got `{token}`")))?;
                    if name.is_empty() {
                        return Err(bad(format!("empty histogram name in `{token}`")));
                    }
                    let mut fields = value.split(':');
                    let mut next = |what: &str| -> Result<&str, ProtocolError> {
                        fields
                            .next()
                            .ok_or_else(|| bad(format!("histogram `{name}` missing {what}")))
                    };
                    let histogram = WireHistogram {
                        name: name.to_string(),
                        count: parse_u64(next("count")?)?,
                        p50: parse_u64(next("p50")?)?,
                        p90: parse_u64(next("p90")?)?,
                        p99: parse_u64(next("p99")?)?,
                        max: parse_u64(next("max")?)?,
                        mean: parse_f64(next("mean")?)?,
                    };
                    if fields.next().is_some() {
                        return Err(bad(format!("trailing fields on histogram `{name}`")));
                    }
                    histograms.push(histogram);
                } else {
                    return Err(bad(format!("expected c: or h: token, got `{token}`")));
                }
            }
            if counters.len() != counter_count || histograms.len() != hist_count {
                return Err(bad(format!(
                    "metrics counts {counter_count}/{hist_count} do not match {}/{} tokens",
                    counters.len(),
                    histograms.len()
                )));
            }
            return Ok(Response::Metrics {
                counters,
                histograms,
            });
        }
        if let Some(rest) = line.strip_prefix("trace ") {
            let mut tokens = rest.split_whitespace();
            let count: usize = parse_u64(expect_kv(tokens.next(), "n")?)?
                .try_into()
                .map_err(|_| bad("trace count does not fit".into()))?;
            let mut events = Vec::with_capacity(count.min(4096));
            while let Some(token) = tokens.next() {
                events.push(WireTraceEvent {
                    seq: parse_u64(expect_kv(Some(token), "seq")?)?,
                    label: expect_kv(tokens.next(), "label")?.to_string(),
                });
            }
            if events.len() != count {
                return Err(bad(format!(
                    "trace count {count} does not match {} events",
                    events.len()
                )));
            }
            return Ok(Response::Trace(events));
        }
        if let Some(rest) = line.strip_prefix("error ") {
            let (code_token, message) = match rest.split_once(char::is_whitespace) {
                Some((c, m)) => (c, m),
                None => (rest, ""),
            };
            let code_str = code_token
                .strip_prefix("code=")
                .ok_or_else(|| bad(format!("expected code=..., got `{code_token}`")))?;
            let code = ErrorCode::from_str_token(code_str)
                .ok_or_else(|| bad(format!("unknown error code `{code_str}`")))?;
            return Ok(Response::Error {
                code,
                message: message.to_string(),
            });
        }
        Err(bad(format!("unrecognized response line `{line}`")))
    }

    /// Whether this response reports a failure.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }
}

impl From<ProtocolError> for Response {
    fn from(e: ProtocolError) -> Self {
        Response::Error {
            code: e.code,
            message: e.message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(r: &Request) {
        let line = r.encode();
        let parsed = Request::parse(&line).unwrap().expect("non-empty");
        assert_eq!(&parsed, r, "canonical line `{line}`");
    }

    fn roundtrip_response(r: &Response) {
        let line = r.encode();
        let parsed = Response::parse(&line).unwrap();
        assert_eq!(&parsed, r, "canonical line `{line}`");
    }

    #[test]
    fn requests_round_trip() {
        let q1 = WireQuery::new(vec![("Job", "eng"), ("Disease", "flu")]);
        let q2 = WireQuery::new(vec![("Disease", "none")]);
        for r in [
            Request::Ping,
            Request::Quit,
            Request::Info,
            Request::Stats,
            Request::Flush,
            Request::Query(q1.clone()),
            Request::Batch(vec![q1, q2]),
            Request::Insert(WireRecord::new(vec![("Job", "eng"), ("Disease", "flu")])),
        ] {
            roundtrip_request(&r);
        }
    }

    #[test]
    fn catalog_requests_round_trip() {
        let q1 = WireQuery::new(vec![("Job", "eng"), ("Disease", "flu")]);
        let q2 = WireQuery::new(vec![("Disease", "none")]);
        let at = |release: &str, inner: Request| Request::At {
            release: release.into(),
            inner: Box::new(inner),
        };
        for r in [
            Request::Use("alpha".into()),
            Request::Releases,
            Request::Reload("beta".into()),
            at("alpha", Request::Query(q1.clone())),
            at("beta", Request::Batch(vec![q1.clone(), q2])),
            at(
                "alpha",
                Request::Insert(WireRecord::new(vec![("Job", "eng")])),
            ),
            at("beta", Request::Flush),
            at("alpha", Request::Info),
        ] {
            roundtrip_request(&r);
        }
    }

    #[test]
    fn qualifier_reserves_at_in_verb_position_only() {
        // A value containing `@` still rides as a bare condition: the
        // token has a `=` before the `@`.
        assert_eq!(
            Request::parse("Mail=a@b Disease=flu").unwrap().unwrap(),
            Request::Query(WireQuery::new(vec![("Mail", "a@b"), ("Disease", "flu")]))
        );
        // A first *column* containing `@` needs the explicit verb.
        assert_eq!(
            Request::parse("count C@x=v").unwrap().unwrap(),
            Request::Query(WireQuery::new(vec![("C@x", "v")]))
        );
        // Qualified failures.
        for (line, code) in [
            ("count@ Job=eng", ErrorCode::Parse),
            ("count@a@b Job=eng", ErrorCode::Parse),
            ("ping@alpha", ErrorCode::UnknownCommand),
            ("stats@alpha", ErrorCode::UnknownCommand),
            ("use@alpha", ErrorCode::UnknownCommand),
            ("flush@alpha now", ErrorCode::Parse),
            ("info@alpha now", ErrorCode::Parse),
            ("count@alpha", ErrorCode::Parse),
            ("use", ErrorCode::Parse),
            ("use two names", ErrorCode::Parse),
            ("use a@b", ErrorCode::Parse),
            ("reload", ErrorCode::Parse),
            ("releases beta", ErrorCode::Parse),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, code, "line `{line}` -> {err}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let answer = WireAnswer {
            estimate: 412.5,
            support: 2000,
            observed: 309,
            frequency: 0.20625,
            ci: Some((0.1621, 0.2499)),
        };
        let no_ci = WireAnswer {
            estimate: 0.0,
            support: 0,
            observed: 3,
            frequency: 0.0,
            ci: None,
        };
        for r in [
            Response::Hello {
                version: PROTOCOL_VERSION,
                sa: "Disease".into(),
                records: 6000,
                groups: 6,
                p: 0.5,
                release: None,
            },
            Response::Hello {
                version: PROTOCOL_VERSION,
                sa: "Disease".into(),
                records: 6000,
                groups: 6,
                p: 0.5,
                release: Some("alpha".into()),
            },
            Response::Answer(answer),
            Response::Batch(vec![answer, no_ci]),
            Response::Batch(Vec::new()),
            Response::Info {
                sa: "Disease".into(),
                records: 6000,
                groups: 6,
                p: 0.5,
                release: Some(ReleaseMeta {
                    lambda: 0.3,
                    delta: 0.3,
                    seed: 7,
                }),
            },
            Response::Info {
                sa: "Income".into(),
                records: 30162,
                groups: 127,
                p: 0.25,
                release: None,
            },
            Response::Stats(StatsSnapshot {
                requests: 10,
                answered: 8,
                errors: 2,
                cache_hits: 5,
                cache_misses: 3,
                sessions: 2,
                inserts: 7,
                degraded: 1,
                faults: 4,
            }),
            Response::Inserted {
                group_size: 501,
                republished: true,
            },
            Response::Inserted {
                group_size: 1,
                republished: false,
            },
            Response::Flushed { events: 12345 },
            Response::Pong,
            Response::Bye,
            Response::Error {
                code: ErrorCode::BadQuery,
                message: "query needs a condition on the SA column `Disease`".into(),
            },
            Response::Error {
                code: ErrorCode::ReadOnly,
                message: "serving a static artifact; restart with --wal to ingest".into(),
            },
        ] {
            roundtrip_response(&r);
        }
    }

    #[test]
    fn catalog_responses_round_trip() {
        for r in [
            Response::Using {
                release: "alpha".into(),
                sa: "Disease".into(),
                records: 6000,
                groups: 6,
                p: 0.5,
            },
            Response::Releases(vec![
                ReleaseEntry {
                    name: "alpha".into(),
                    sa: "Disease".into(),
                    records: 6000,
                    groups: 6,
                    live: false,
                },
                ReleaseEntry {
                    name: "beta".into(),
                    sa: "Income".into(),
                    records: 30162,
                    groups: 127,
                    live: true,
                },
            ]),
            Response::Releases(Vec::new()),
            Response::Reloaded {
                release: "beta".into(),
                records: 30163,
                groups: 127,
            },
            Response::Error {
                code: ErrorCode::UnknownRelease,
                message: "no release named `gamma`".into(),
            },
        ] {
            roundtrip_response(&r);
        }
    }

    #[test]
    fn observability_requests_round_trip() {
        for r in [
            Request::Metrics,
            Request::Trace(None),
            Request::Trace(Some(0)),
            Request::Trace(Some(32)),
        ] {
            roundtrip_request(&r);
        }
        assert_eq!(Request::Metrics.encode(), "metrics");
        assert_eq!(Request::Trace(None).encode(), "trace");
        assert_eq!(Request::Trace(Some(7)).encode(), "trace 7");
    }

    #[test]
    fn observability_responses_round_trip() {
        let hist = |name: &str, count: u64, mean: f64| WireHistogram {
            name: name.into(),
            count,
            p50: 511,
            p90: 2047,
            p99: 8191,
            max: 6200,
            mean,
        };
        for r in [
            Response::Metrics {
                counters: Vec::new(),
                histograms: Vec::new(),
            },
            Response::Metrics {
                counters: vec![
                    ("serve.sessions_opened".into(), 3),
                    ("service.requests".into(), 41),
                ],
                histograms: vec![hist("serve.request", 41, 812.5), hist("wal.sync", 0, 0.0)],
            },
            Response::Trace(Vec::new()),
            Response::Trace(vec![
                WireTraceEvent {
                    seq: 17,
                    label: "session.open".into(),
                },
                WireTraceEvent {
                    seq: 18,
                    label: "cache.miss".into(),
                },
            ]),
        ] {
            roundtrip_response(&r);
        }
        assert_eq!(
            Response::Metrics {
                counters: vec![("catalog.reload".into(), 1)],
                histograms: vec![hist("wal.sync", 2, 1.5)],
            }
            .encode(),
            "metrics counters=1 hists=1 c:catalog.reload=1 h:wal.sync=2:511:2047:8191:6200:1.5"
        );
        assert_eq!(
            Response::Trace(vec![WireTraceEvent {
                seq: 5,
                label: "stream.degraded".into(),
            }])
            .encode(),
            "trace n=1 seq=5 label=stream.degraded"
        );
    }

    #[test]
    fn observability_parse_failures() {
        for line in [
            "metrics counters=1 hists=0",                   // count mismatch
            "metrics counters=0 hists=0 c:x=1",             // extra token
            "metrics counters=1 hists=0 x=1",               // missing class prefix
            "metrics counters=1 hists=0 c:=1",              // empty name
            "metrics counters=0 hists=1 h:x=1:2:3",         // short summary
            "metrics counters=0 hists=1 h:x=1:2:3:4:5:6:7", // long summary
            "trace n=2 seq=1 label=a",                      // count mismatch
            "trace n=1 seq=1",                              // missing label
            "trace n=1 label=a seq=1",                      // wrong field order
        ] {
            let err = Response::parse(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::Parse, "line `{line}`");
        }
        for line in ["trace x", "trace -3", "metrics now"] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::Parse, "line `{line}`");
        }
    }

    #[test]
    fn verb_is_optional_and_aliases_normalize() {
        let canonical = Request::parse("count Job=eng Disease=flu")
            .unwrap()
            .unwrap();
        assert_eq!(
            Request::parse("  Job=eng Disease=flu ").unwrap().unwrap(),
            canonical
        );
        assert_eq!(Request::parse("exit").unwrap().unwrap(), Request::Quit);
        assert_eq!(Request::parse("   ").unwrap(), None);
        assert_eq!(Request::parse("").unwrap(), None);
    }

    #[test]
    fn batch_accepts_optional_verbs() {
        let parsed = Request::parse("batch Job=eng Disease=flu; count Disease=none")
            .unwrap()
            .unwrap();
        let Request::Batch(queries) = parsed else {
            panic!("expected batch");
        };
        assert_eq!(queries.len(), 2);
        assert_eq!(
            queries[1].conditions,
            vec![("Disease".into(), "none".into())]
        );
    }

    #[test]
    fn parse_failures_carry_distinct_codes() {
        for (line, code) in [
            ("garbage", ErrorCode::UnknownCommand),
            ("count Job", ErrorCode::Parse),
            ("count", ErrorCode::Parse),
            ("batch", ErrorCode::Parse),
            ("batch ; ;", ErrorCode::Parse),
            ("ping me", ErrorCode::Parse),
            ("count =v", ErrorCode::Parse),
            ("count k=", ErrorCode::Parse),
            ("insert", ErrorCode::Parse),
            ("insert Job", ErrorCode::Parse),
            ("flush now", ErrorCode::Parse),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, code, "line `{line}` -> {err}");
        }
    }

    #[test]
    fn floats_encode_shortest_round_trip() {
        // Rust's `{}` Display for f64 is the shortest string that parses
        // back to the same bits — the protocol relies on that for exact
        // round-trips.
        let a = WireAnswer {
            estimate: 1.0 / 3.0,
            support: 1,
            observed: 1,
            frequency: 0.1 + 0.2,
            ci: Some((f64::MIN_POSITIVE, 1e300)),
        };
        roundtrip_response(&Response::Answer(a));
    }

    #[test]
    fn error_code_tokens_round_trip() {
        for code in [
            ErrorCode::Parse,
            ErrorCode::UnknownCommand,
            ErrorCode::BadQuery,
            ErrorCode::Busy,
            ErrorCode::Internal,
            ErrorCode::ReadOnly,
            ErrorCode::UnknownRelease,
            ErrorCode::Degraded,
        ] {
            assert_eq!(ErrorCode::from_str_token(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_str_token("nope"), None);
    }
}
