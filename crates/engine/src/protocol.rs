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
//!           | answer
//!           | "batch " N ("; " answer)*              (N answers)
//!           | "inserted group_size=" N " republished=" ("true"|"false")
//!           | "flushed events=" N
//!           | "using release=" RELEASE " sa=" NAME " records=" N " groups=" N " p=" P
//!           | "releases " N ("; " entry)*            (N entries)
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
//! answer   := "est=" E " support=" N " observed=" N " f=" F [" ci95=" LO "," HI]
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
//! One tokenizer reads every `count` and `batch` body (and `insert`
//! records): it yields each condition as a borrowed `(column, value)` span
//! of the request line, query by query. A session keeps a `count` or
//! `batch` body unsplit and the release that answers it resolves each
//! condition as the tokenizer yields it, in one pass over the line; a
//! parse error found on the way is still reported as a parse error, ahead
//! of any routing or resolution failure, and charged as one (see
//! [`crate::catalog::CatalogSession::handle_line`]). [`Request::parse`]
//! walks the same tokenizer into owned [`WireQuery`]s, and
//! [`crate::QueryService::handle`] walks an owned request's conditions
//! the same way, so there is one answering path and one set of parse
//! errors.
//!
//! Parsing and encoding are exact inverses over the canonical forms:
//! `parse(encode(x)) == x` for every value expressible in the token
//! grammar (floats are encoded with Rust's shortest round-trip
//! `Display`). Names and values containing whitespace, `;`, or newlines
//! cannot be framed on this line protocol: a schema whose SA column name
//! is not a token produces an unparseable `HELLO` banner, and such
//! values cannot be queried over the wire (use [`is_token`] to check;
//! `rpctl serve` warns about non-token schemas at startup). The request
//! parser additionally accepts
//! a few human conveniences — the optional `count` verb, the `exit` alias
//! for `quit`, surrounding whitespace — which normalize into the same
//! typed values. Errors are structured: every failure carries an
//! [`ErrorCode`] so clients can distinguish a malformed line from an
//! invalid query without string matching.
//!
//! Each response line is declared once and both directions are driven
//! from that declaration: a private `Wire` trait says how a scalar rides
//! (` key=value`), how a record rides (its fields in wire order, declared
//! by `record!`) and how an optional tail rides (absent at the end of the
//! line), and one table (`keyed_lines!`) lists the lines that are a head
//! followed by keyed parts. The response parser reads exactly the
//! declared tokens and then requires the end of the line, so it accepts
//! only canonical lines and never reserves memory for an untrusted count.

use std::fmt;
use std::iter::Peekable;
use std::str::SplitWhitespace;

use crate::codec::{canon_f64, put_u64};

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

/// Declares [`ErrorCode`] from one table of variants and wire tokens.
macro_rules! error_codes {
    ($($(#[$doc:meta])* $variant:ident = $token:literal,)*) => {
        /// Machine-readable failure classes carried by [`Response::Error`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum ErrorCode {
            $($(#[$doc])* $variant,)*
        }

        impl ErrorCode {
            /// The wire token of this code.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(ErrorCode::$variant => $token,)*
                }
            }

            /// Parses a wire token back into a code.
            fn from_str_token(s: &str) -> Option<Self> {
                match s {
                    $($token => Some(ErrorCode::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

error_codes! {
    /// The request line did not parse (bad token, empty batch, ...).
    Parse = "parse",
    /// The first token is neither a known verb nor a `Column=value` pair.
    UnknownCommand = "unknown-command",
    /// The request parsed but the query failed engine validation
    /// (unknown column or value, missing or duplicate SA condition).
    BadQuery = "bad-query",
    /// The server refused the connection at its concurrency cap.
    Busy = "busy",
    /// The service failed internally; the session stays up.
    Internal = "internal",
    /// An `insert`/`flush` reached a service without a live stream
    /// behind it (static artifact, no WAL).
    ReadOnly = "read-only",
    /// A catalog verb named a release the server does not host — or
    /// reached a single-release server with no catalog at all.
    UnknownRelease = "unknown-release",
    /// An `insert`/`flush` reached a live release whose WAL poisoned
    /// after a failed write or fsync: the release is read-only until it
    /// is reloaded from disk. The message reports the durable sequence
    /// number — everything past it should be considered lost.
    Degraded = "degraded",
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

/// A malformed line: an [`ErrorCode::Parse`] failure.
fn bad(message: impl Into<String>) -> ProtocolError {
    ProtocolError::new(ErrorCode::Parse, message)
}

/// One count query as it appears on the wire: unresolved
/// `(column, value)` string conditions. Resolution against the release
/// schema (and the SA split) happens in the service layer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
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
}

/// The queries of one `count` or `batch` request: the body of a request
/// line, tokenized only as it is walked, or owned [`WireQuery`]s.
/// [`Queries::walk`] hands out either one's conditions as borrowed
/// `(column, value)` pairs, query by query: the one form every query is
/// resolved and answered from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queries<'a> {
    /// Whether the request is a `batch`, answered as one `batch N` list
    /// even for a single query, rather than a `count`.
    pub(crate) batch: bool,
    source: Source<'a>,
}

/// Where the conditions of [`Queries`] come from.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    /// The body of a line after its verb (the whole line for a query
    /// with no verb).
    Line(&'a str),
    /// Owned wire queries, tokenized when they were parsed.
    Wire(&'a [WireQuery]),
}

/// One step of [`Queries::walk`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Token<'a> {
    /// A `(column, value)` condition of the current query.
    Condition(&'a str, &'a str),
    /// The end of the current query.
    End,
}

impl<'a> Queries<'a> {
    /// Borrows owned wire queries.
    pub(crate) fn of_wire(batch: bool, queries: &'a [WireQuery]) -> Self {
        Self {
            batch,
            source: Source::Wire(queries),
        }
    }

    /// The one query of a `count` body.
    fn single(body: &'a str) -> Self {
        Self {
            batch: false,
            source: Source::Line(body),
        }
    }

    /// The queries of a `batch` body: `;`-separated parts, each with an
    /// optional `count ` verb.
    fn batch(body: &'a str) -> Self {
        Self {
            batch: true,
            source: Source::Line(body),
        }
    }

    /// Walks every query in request order: `f` gets each condition, then
    /// [`Token::End`] after each query. A line body is tokenized here, in
    /// this one pass, so its first malformed token stops the walk with
    /// that parse error; owned queries never fail.
    pub(crate) fn walk(&self, mut f: impl FnMut(Token<'a>)) -> Result<(), ProtocolError> {
        match self.source {
            Source::Wire(queries) => {
                for q in queries {
                    for (col, value) in &q.conditions {
                        f(Token::Condition(col, value));
                    }
                    f(Token::End);
                }
                Ok(())
            }
            Source::Line(body) if !self.batch => walk_query(body, &mut f),
            Source::Line(body) => body.split(';').try_for_each(|part| {
                let part = part.trim();
                walk_query(part.strip_prefix("count ").unwrap_or(part), &mut f)
            }),
        }
    }

    /// The owned wire queries.
    fn to_wire(self) -> Result<Vec<WireQuery>, ProtocolError> {
        let mut wire = Vec::new();
        let mut query = WireQuery::default();
        self.walk(|token| match token {
            Token::Condition(col, value) => {
                query.conditions.push((col.to_string(), value.to_string()));
            }
            Token::End => wire.push(std::mem::take(&mut query)),
        })?;
        Ok(wire)
    }
}

/// The one tokenizer of query and record bodies: hands `f` the
/// whitespace-separated `Column=value` tokens of `body` (the `count` verb
/// already stripped if present), each split at its first `=`, then
/// [`Token::End`]. At least one condition is required.
fn walk_query<'a>(body: &'a str, f: &mut impl FnMut(Token<'a>)) -> Result<(), ProtocolError> {
    let mut rest = body.trim_start();
    if rest.is_empty() {
        return Err(bad("empty query; try `count Column=value ... SA=value`"));
    }
    while !rest.is_empty() {
        let (token, tail, eq) = split_token(rest);
        let Some((col, value)) = eq.and_then(|eq| token.get(..eq).zip(token.get(eq + 1..))) else {
            return Err(bad(format!("expected Column=value, got `{token}`")));
        };
        if col.is_empty() || value.is_empty() {
            return Err(bad(format!("empty column or value in `{token}`")));
        }
        f(Token::Condition(col, value));
        rest = tail.trim_start();
    }
    f(Token::End);
    Ok(())
}

/// Splits the token that opens `s` from the rest of `s` at the token's
/// first whitespace character (as [`char::is_whitespace`] has it), with
/// the offset of the token's first `=`. Eight bytes are tested at a time
/// for the only bytes that need a closer look: ASCII controls and space,
/// `=`, and the bytes of non-ASCII characters.
fn split_token(s: &str) -> (&str, &str, Option<usize>) {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    const EQ: u64 = u64::from_le_bytes([b'='; 8]);
    let bytes = s.as_bytes();
    let (mut end, mut eq) = (0, None);
    loop {
        while let Some(&chunk) = bytes.get(end..).and_then(|b| b.first_chunk::<8>()) {
            let word = u64::from_le_bytes(chunk);
            // High bit of each byte below 0x21 (`below`), equal to `=`
            // (`equals`) or at least 0x80 (`word`). A borrow can mark
            // bytes above a true hit, never below one, so the lowest set
            // bit is exact.
            let below = word.wrapping_sub(ONES * 0x21) & !word;
            let equals = (word ^ EQ).wrapping_sub(ONES) & !(word ^ EQ);
            let hits = (below | equals | word) & HIGH;
            if hits != 0 {
                end += hits.trailing_zeros() as usize / 8;
                break;
            }
            end += 8;
        }
        // The character at a hit, or one of the last seven bytes.
        let Some(c) = s.get(end..).and_then(|rest| rest.chars().next()) else {
            break;
        };
        if c.is_whitespace() {
            break;
        }
        if c == '=' {
            eq.get_or_insert(end);
        }
        end += c.len_utf8();
    }
    let (token, tail) = s.split_at_checked(end).unwrap_or((s, ""));
    (token, tail, eq)
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
}

/// Appends `verb` followed by ` column=value` per pair.
fn put_pairs(out: &mut String, verb: &str, pairs: &[(String, String)]) {
    out.push_str(verb);
    for (col, value) in pairs {
        put(out, format_args!(" {col}={value}"));
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

/// Declares the argument-less request verbs, one row each: the wire verb
/// and its variant.
macro_rules! bare_verbs {
    ($($verb:literal => $variant:ident,)*) => {
        impl Request {
            /// The wire verb of an argument-less request.
            fn bare_verb(&self) -> Option<&'static str> {
                match self {
                    $(Request::$variant => Some($verb),)*
                    _ => None,
                }
            }

            /// The argument-less request named by `verb`.
            fn from_bare_verb(verb: &str) -> Option<Self> {
                match verb {
                    $($verb => Some(Request::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

bare_verbs! {
    "ping" => Ping,
    "quit" => Quit,
    "info" => Info,
    "stats" => Stats,
    "metrics" => Metrics,
    "flush" => Flush,
    "releases" => Releases,
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
            Request::Query(q) => put_pairs(&mut out, "count", &q.conditions),
            Request::Batch(queries) => {
                out.push_str("batch ");
                for (i, q) in queries.iter().enumerate() {
                    if i > 0 {
                        out.push_str("; ");
                    }
                    put_pairs(&mut out, "count", &q.conditions);
                }
            }
            Request::Insert(record) => put_pairs(&mut out, "insert", &record.fields),
            Request::Trace(n) => {
                out.push_str("trace");
                if let Some(n) = n {
                    put(&mut out, format_args!(" {n}"));
                }
            }
            Request::Use(release) => put(&mut out, format_args!("use {release}")),
            Request::Reload(release) => put(&mut out, format_args!("reload {release}")),
            Request::At { release, inner } => {
                // Splice `@release` onto the inner verb token: `count
                // Job=eng` becomes `count@alpha Job=eng`. Inner variants
                // outside the qualifiable set produce out-of-grammar
                // lines, like other unencodable values.
                let line = inner.encode();
                match line.split_once(' ') {
                    Some((verb, rest)) => put(&mut out, format_args!("{verb}@{release} {rest}")),
                    None => put(&mut out, format_args!("{line}@{release}")),
                }
            }
            bare => out.push_str(bare.bare_verb().unwrap_or_default()),
        }
        out
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
        Line::parse(line)?.map(Line::into_request).transpose()
    }
}

/// One request line as a session parses it: a `count` or `batch` line
/// keeps its body borrowed from the line, to be tokenized as it is
/// resolved; any other line is an owned [`Request`].
#[derive(Debug)]
pub(crate) enum Line<'a> {
    /// A `count` or `batch` line, qualified with `@release` or not.
    Queries {
        /// The `@release` qualifier, if any.
        release: Option<&'a str>,
        /// The line's queries.
        queries: Queries<'a>,
    },
    /// Any other request.
    Request(Request),
}

impl<'a> Line<'a> {
    /// Parses one request line; see [`Request::parse`].
    pub(crate) fn parse(line: &'a str) -> Result<Option<Self>, ProtocolError> {
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
        let qualified = verb.split_once('@').filter(|(base, _)| !base.contains('='));
        let Some((base, release)) = qualified else {
            return Self::parse_verb(verb, verb, rest, line, None).map(Some);
        };
        if !is_release_name(release) {
            return Err(bad(format!("bad release name `{release}` in `{verb}`")));
        }
        if !matches!(base, "count" | "batch" | "insert" | "flush" | "info") {
            return Err(ProtocolError::new(
                ErrorCode::UnknownCommand,
                format!(
                    "unknown qualified command `{base}`; only count/batch/insert/flush/info take @{release}"
                ),
            ));
        }
        Self::parse_verb(verb, base, rest, line, Some(release)).map(Some)
    }

    /// Parses the request named by `base` (the verb token `verb` without
    /// its `@release` qualifier) with arguments `rest`; messages quote
    /// the whole token.
    fn parse_verb(
        verb: &str,
        base: &str,
        rest: &'a str,
        line: &'a str,
        release: Option<&'a str>,
    ) -> Result<Self, ProtocolError> {
        let base = if base == "exit" { "quit" } else { base };
        let queries = match base {
            "count" => Queries::single(rest),
            "batch" if rest.is_empty() => return Err(bad("empty batch")),
            "batch" => Queries::batch(rest),
            _ if verb.contains('=') => Queries::single(line),
            _ => {
                let request = Self::parse_other(verb, base, rest)?;
                return Ok(Line::Request(qualify(release, request)));
            }
        };
        Ok(Line::Queries { release, queries })
    }

    /// Parses a request that is neither `count` nor `batch`.
    fn parse_other(verb: &str, base: &str, rest: &str) -> Result<Request, ProtocolError> {
        if let Some(request) = Request::from_bare_verb(base) {
            if !rest.is_empty() {
                return Err(bad(format!("`{verb}` takes no arguments")));
            }
            return Ok(request);
        }
        let release_arg = || {
            if !is_release_name(rest) {
                return Err(bad(format!(
                    "`{verb}` expects one release name, got `{rest}`"
                )));
            }
            Ok(rest.to_string())
        };
        Ok(match base {
            "trace" if rest.is_empty() => Request::Trace(None),
            "trace" => Request::Trace(Some(parse_u64(rest)?)),
            "use" => Request::Use(release_arg()?),
            "reload" => Request::Reload(release_arg()?),
            "insert" if rest.is_empty() => {
                return Err(bad(
                    "empty record; try `insert Column=value ...` covering every column",
                ));
            }
            "insert" => {
                let record = Queries::single(rest).to_wire()?.into_iter().next();
                Request::Insert(WireRecord {
                    fields: record.unwrap_or_default().conditions,
                })
            }
            _ => {
                return Err(ProtocolError::new(
                    ErrorCode::UnknownCommand,
                    format!(
                        "unknown command `{verb}`; try count/batch/insert/flush/info/stats/metrics/trace/ping/quit/use/releases/reload"
                    ),
                ));
            }
        })
    }

    /// The owned request; a `count` or `batch` body is tokenized here.
    fn into_request(self) -> Result<Request, ProtocolError> {
        let (release, queries) = match self {
            Line::Request(request) => return Ok(request),
            Line::Queries { release, queries } => (release, queries),
        };
        let wire = queries.to_wire()?;
        let request = if queries.batch {
            Request::Batch(wire)
        } else {
            // A `count` line holds exactly one query.
            Request::Query(wire.into_iter().next().unwrap_or_default())
        };
        Ok(qualify(release, request))
    }
}

/// `request`, wrapped in [`Request::At`] when it carries a qualifier.
fn qualify(release: Option<&str>, request: Request) -> Request {
    match release {
        Some(release) => Request::At {
            release: release.to_string(),
            inner: Box::new(request),
        },
        None => request,
    }
}

/// A value riding a response line, described once for both directions:
/// a scalar is one ` key=value` token, a record is its fields in wire
/// order (see `record!`), and an `Option` is a tail that is absent at the
/// end of the line.
trait Wire: Sized {
    /// Appends the value under `key` (a record ignores the key).
    fn put(&self, key: &str, out: &mut String);

    /// Reads back what [`Wire::put`] wrote under `key`.
    fn take(key: &str, r: &mut Reader<'_>) -> Result<Self, ProtocolError>;
}

/// The whitespace-separated tokens of one response line (or one `;`
/// part of it), read in declared order.
struct Reader<'a>(Peekable<SplitWhitespace<'a>>);

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Self {
        Reader(s.split_whitespace().peekable())
    }

    /// The value of the next token, which must be `key=value`.
    fn value(&mut self, key: &str) -> Result<&'a str, ProtocolError> {
        let token = self
            .0
            .next()
            .ok_or_else(|| bad(format!("missing {key}=")))?;
        token
            .strip_prefix(key)
            .and_then(|r| r.strip_prefix('='))
            .ok_or_else(|| bad(format!("expected {key}=..., got `{token}`")))
    }

    /// Requires that every token was read.
    fn end(mut self) -> Result<(), ProtocolError> {
        match self.0.next() {
            None => Ok(()),
            Some(token) => Err(bad(format!("unexpected trailing token `{token}`"))),
        }
    }
}

/// Reads exactly one `T` from `s`: its declared tokens, then the end.
fn read<T: Wire>(s: &str) -> Result<T, ProtocolError> {
    let mut r = Reader::new(s);
    let value = T::take("", &mut r)?;
    r.end().map(|()| value)
}

/// Implements [`Wire`] for scalars: `|v, out| put` appends the value
/// after `key=` (straight into the line, with no `fmt` in between) and
/// `|s| read` parses it back.
macro_rules! scalar {
    ($($ty:ty: |$v:ident, $out:ident| $put:expr, |$s:ident| $read:expr;)*) => {$(
        impl Wire for $ty {
            fn put(&self, key: &str, $out: &mut String) {
                let $v = self;
                $out.push(' ');
                $out.push_str(key);
                $out.push('=');
                $put;
            }

            fn take(key: &str, r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
                let $s = r.value(key)?;
                $read
            }
        }
    )*};
}

scalar! {
    u64: |v, out| put_u64(out, *v), |s| parse_u64(s);
    bool: |v, out| out.push_str(if *v { "true" } else { "false" }),
        |s| s.parse().map_err(|_| bad(format!("bad flag `{s}`")));
    String: |v, out| out.push_str(v), |s| Ok(s.to_string());
    f64: |v, out| canon_f64(*v).append_to(out), |s| parse_f64(s);
    (f64, f64): |v, out| {
        canon_f64(v.0).append_to(out);
        out.push(',');
        canon_f64(v.1).append_to(out);
    }, |s| {
        let (lo, hi) = s.split_once(',').ok_or_else(|| bad(format!("expected lo,hi, got `{s}`")))?;
        Ok((parse_f64(lo)?, parse_f64(hi)?))
    };
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, key: &str, out: &mut String) {
        if let Some(v) = self {
            v.put(key, out);
        }
    }

    fn take(key: &str, r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        if r.0.peek().is_none() {
            return Ok(None);
        }
        T::take(key, r).map(Some)
    }
}

/// The first of its token trees: an explicit key or binding when one is
/// given, else the default that follows it.
macro_rules! first {
    ($first:tt $($rest:tt)*) => {
        $first
    };
}

/// Implements [`Wire`] for a struct riding as its fields in wire order,
/// each keyed by its name or by its `as "key"`.
macro_rules! record {
    ($ty:ident { $($field:ident $(as $key:literal)?),* }) => {
        impl Wire for $ty {
            fn put(&self, _: &str, out: &mut String) {
                $(self.$field.put(first!($($key)? (stringify!($field))), out);)*
            }

            fn take(_: &str, r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
                Ok($ty {
                    $($field: Wire::take(first!($($key)? (stringify!($field))), r)?,)*
                })
            }
        }
    };
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

record! { WireAnswer { estimate as "est", support, observed, frequency as "f", ci as "ci95" } }

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

record! { ReleaseMeta { lambda, delta, seed } }

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

record! { ReleaseEntry { name, sa, records, groups, live } }

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

record! {
    StatsSnapshot {
        requests, answered, errors, cache_hits, cache_misses, sessions, inserts, degraded, faults
    }
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

record! { WireTraceEvent { seq, label } }

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
    /// batch fills or this request forces
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
    s.parse().map_err(|_| bad(format!("bad float `{s}`")))
}

fn parse_u64(s: &str) -> Result<u64, ProtocolError> {
    s.parse().map_err(|_| bad(format!("bad integer `{s}`")))
}

/// Appends formatted text to a response buffer. Every encoder routes
/// through here so the serving stack carries exactly one waived panic
/// site for the infallible `fmt::Write`-to-`String` case.
fn put(out: &mut String, args: fmt::Arguments<'_>) {
    use fmt::Write;
    // rp-analyze: allow(no-panic-serving, "fmt::Write to a String is infallible; sole waived expect for all wire encoders")
    out.write_fmt(args).expect("infallible String write");
}

/// Encodes a counted list: `head N`, then `; item` per item.
fn put_list<T: Wire>(out: &mut String, head: &str, items: &[T]) {
    out.push_str(head);
    out.push(' ');
    put_u64(out, items.len() as u64);
    for item in items {
        out.push(';');
        item.put("", out);
    }
}

/// Parses what [`put_list`] wrote after `head`.
fn take_list<T: Wire>(head: &str, rest: &str) -> Result<Vec<T>, ProtocolError> {
    let mut parts = rest.split(';');
    let count: usize = parts
        .next()
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| bad(format!("{head} response needs a count")))?;
    let items: Vec<T> = parts.map(read).collect::<Result<_, _>>()?;
    if items.len() != count {
        let found = items.len();
        return Err(bad(format!(
            "{head} count {count} does not match {found} items"
        )));
    }
    Ok(items)
}

/// Declares the response lines that are a head followed by keyed parts,
/// one row each: the head, then the variant's fields in wire order (a
/// tuple variant binds its record as `0: name`).
macro_rules! keyed_lines {
    ($($head:literal => $variant:ident { $($field:tt $(: $bind:ident)?),* },)*) => {
        impl Response {
            /// Encodes a keyed line; any other variant appends nothing.
            fn put_keyed(&self, out: &mut String) {
                match self {
                    $(Response::$variant { $($field: first!($($bind)? $field)),* } => {
                        out.push_str($head);
                        $(first!($($bind)? $field).put(stringify!($field), out);)*
                    })*
                    _ => {}
                }
            }

            /// Parses the keyed line opened by `head` (`None` for any
            /// other head).
            fn take_keyed(head: &str, rest: &str) -> Result<Option<Self>, ProtocolError> {
                let mut r = Reader::new(rest);
                let response = match head {
                    $($head => Response::$variant {
                        $($field: Wire::take(stringify!($field), &mut r)?,)*
                    },)*
                    _ => return Ok(None),
                };
                r.end().map(|()| Some(response))
            }
        }
    };
}

keyed_lines! {
    "publication" => Info { sa, records, groups, p, release },
    "inserted" => Inserted { group_size, republished },
    "flushed" => Flushed { events },
    "using" => Using { release, sa, records, groups, p },
    "reloaded" => Reloaded { release, records, groups },
    "stats" => Stats { 0: stats },
    "pong" => Pong {},
    "bye" => Bye {},
}

/// Bytes reserved per answer on a response line: its keys and separators
/// take 35, its two counts at most 40 and each of its four floats rarely
/// more than 24 at full precision.
const ANSWER_BYTES: usize = 176;

impl Response {
    /// Encodes the canonical line for this response (no trailing newline).
    pub fn encode(&self) -> String {
        // One allocation for the whole line and the `\n` a caller may
        // append to it: a batch is sized from its answer count, any other
        // line as one answer (a `metrics` line may still grow).
        let answers = match self {
            Response::Batch(answers) => answers.len(),
            _ => 1,
        };
        let mut out = String::with_capacity(16 + answers * ANSWER_BYTES + 1);
        self.encode_into(&mut out);
        out
    }

    /// Appends the canonical line for this response (no trailing newline)
    /// to `out`, exactly the bytes of [`Response::encode`]. A session
    /// encodes every response into one buffer it reuses, so a line
    /// allocates only when it outgrows every line before it.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Response::Hello {
                version,
                sa,
                records,
                groups,
                p,
                release,
            } => {
                put(out, format_args!("HELLO rp/{version}"));
                sa.put("sa", out);
                records.put("records", out);
                groups.put("groups", out);
                p.put("p", out);
                release.put("release", out);
            }
            Response::Answer(a) => {
                let start = out.len();
                a.put("", out);
                out.remove(start); // the answer opens its line: no separator
            }
            Response::Batch(answers) => put_list(out, "batch", answers),
            Response::Releases(entries) => put_list(out, "releases", entries),
            Response::Metrics {
                counters,
                histograms,
            } => {
                let (nc, nh) = (counters.len(), histograms.len());
                put(out, format_args!("metrics counters={nc} hists={nh}"));
                for (name, value) in counters {
                    put(out, format_args!(" c:{name}={value}"));
                }
                for h in histograms {
                    put(
                        out,
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
                put(out, format_args!("trace n={}", events.len()));
                for e in events {
                    e.put("", out);
                }
            }
            Response::Error { code, message } => {
                put(out, format_args!("error code={code} {message}"));
            }
            keyed => keyed.put_keyed(out),
        }
    }

    /// Parses one response line (the client side of the protocol).
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] with [`ErrorCode::Parse`] on anything
    /// that is not a canonical response line.
    pub fn parse(line: &str) -> Result<Self, ProtocolError> {
        let line = line.trim();
        if line.starts_with("est=") {
            return read(line).map(Response::Answer);
        }
        let (head, rest) = line.split_once(' ').unwrap_or((line, ""));
        if let Some(response) = Self::take_keyed(head, rest)? {
            return Ok(response);
        }
        let mut r = Reader::new(rest);
        let response = match head {
            "HELLO" => {
                let proto = r.0.next().unwrap_or_default();
                Response::Hello {
                    version: proto
                        .strip_prefix("rp/")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad(format!("expected rp/<version>, got `{proto}`")))?,
                    sa: Wire::take("sa", &mut r)?,
                    records: Wire::take("records", &mut r)?,
                    groups: Wire::take("groups", &mut r)?,
                    p: Wire::take("p", &mut r)?,
                    release: Wire::take("release", &mut r)?,
                }
            }
            "batch" => return take_list(head, rest).map(Response::Batch),
            "releases" => return take_list(head, rest).map(Response::Releases),
            "metrics" => {
                // Untrusted counts: read token by token, reserving nothing.
                let nc: u64 = Wire::take("counters", &mut r)?;
                let nh: u64 = Wire::take("hists", &mut r)?;
                let mut named = |class: &str| {
                    let token = r.0.next().unwrap_or_default();
                    token
                        .strip_prefix(class)
                        .and_then(|t| t.split_once('='))
                        .filter(|(name, _)| !name.is_empty())
                        .ok_or_else(|| bad(format!("expected {class}name=..., got `{token}`")))
                };
                let counters = (0..nc)
                    .map(|_| named("c:").and_then(|(n, v)| Ok((n.to_string(), parse_u64(v)?))))
                    .collect::<Result<_, _>>()?;
                let histograms = (0..nh)
                    .map(|_| named("h:").and_then(|(n, v)| histogram(n, v)))
                    .collect::<Result<_, _>>()?;
                Response::Metrics {
                    counters,
                    histograms,
                }
            }
            "trace" => {
                let n: u64 = Wire::take("n", &mut r)?;
                Response::Trace(
                    (0..n)
                        .map(|_| Wire::take("", &mut r))
                        .collect::<Result<_, _>>()?,
                )
            }
            "error" => {
                let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
                let code = code
                    .strip_prefix("code=")
                    .and_then(ErrorCode::from_str_token)
                    .ok_or_else(|| bad(format!("expected code=CODE, got `{code}`")))?;
                return Ok(Response::Error {
                    code,
                    message: message.to_string(),
                });
            }
            _ => return Err(bad(format!("unrecognized response line `{line}`"))),
        };
        r.end().map(|()| response)
    }

    /// Whether this response reports a failure.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }
}

/// Parses one `count:p50:p90:p99:max:mean` histogram summary.
fn histogram(name: &str, summary: &str) -> Result<WireHistogram, ProtocolError> {
    match summary.split(':').collect::<Vec<_>>().as_slice() {
        [count, p50, p90, p99, max, mean] => Ok(WireHistogram {
            name: name.to_string(),
            count: parse_u64(count)?,
            p50: parse_u64(p50)?,
            p90: parse_u64(p90)?,
            p99: parse_u64(p99)?,
            max: parse_u64(max)?,
            mean: parse_f64(mean)?,
        }),
        _ => Err(bad(format!(
            "histogram `{name}` needs count:p50:p90:p99:max:mean"
        ))),
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

    /// The tokenizer before its byte scanner: `split_whitespace`, then a
    /// split at each token's first `=`.
    fn reference_tokens(body: &str) -> Result<Vec<(&str, &str)>, ProtocolError> {
        let mut conditions = Vec::new();
        for token in body.split_whitespace() {
            let (col, value) = token
                .split_once('=')
                .ok_or_else(|| bad(format!("expected Column=value, got `{token}`")))?;
            if col.is_empty() || value.is_empty() {
                return Err(bad(format!("empty column or value in `{token}`")));
            }
            conditions.push((col, value));
        }
        if conditions.is_empty() {
            return Err(bad("empty query; try `count Column=value ... SA=value`"));
        }
        Ok(conditions)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2_000))]

        /// The byte scanner splits a body exactly as the reference does,
        /// errors included, over runs of letters long enough for its
        /// eight-byte steps, ASCII controls that are and are not
        /// whitespace, `=`, `;`, multi-byte letters and Unicode spaces.
        #[test]
        fn tokenizer_splits_as_split_whitespace(
            picks in proptest::collection::vec(0usize..TOKEN_PIECES.len(), 0..24),
        ) {
            let body: String = picks.iter().map(|&i| TOKEN_PIECES[i]).collect();
            let mut conditions = Vec::new();
            let scanned = Queries::single(&body)
                .walk(|token| {
                    if let Token::Condition(col, value) = token {
                        conditions.push((col, value));
                    }
                })
                .map(|()| conditions);
            proptest::prop_assert_eq!(scanned, reference_tokens(&body), "{:?}", body);
        }
    }

    /// What the tokenizer proptest builds bodies from.
    const TOKEN_PIECES: &[&str] = &[
        "a",
        "Occupation",
        "Occupation_49",
        "Gender=Gender_1",
        "=",
        "==",
        ";",
        " ",
        "  ",
        "\t",
        "\n",
        "\r",
        "\u{b}",
        "\u{c}",
        "\u{1}",
        "\u{1f}",
        "\u{7f}",
        "\u{85}",
        "\u{a0}",
        "\u{2003}",
        "\u{3000}",
        "é",
        "€",
        "😀",
        "ab=cd=ef",
        "x=é",
    ];

    /// A 32-answer line at full float precision, negative and tiny values
    /// included, fits the buffer `encode` reserves for it, with room for
    /// the session's `\n`: the line is sized once and never regrows.
    #[test]
    fn batch_line_fits_its_reservation() {
        let answer = WireAnswer {
            estimate: -1234.5678901234567,
            support: 4_000_000_000,
            observed: 3_999_999_999,
            frequency: -0.00012345678901234567,
            ci: Some((-0.0012345678901234567, 0.009876543210987654)),
        };
        let reserved = 16 + 32 * ANSWER_BYTES + 1;
        let mut line = Response::Batch(vec![answer; 32]).encode();
        assert!(line.len() < reserved, "{} bytes", line.len());
        assert_eq!(line.capacity(), reserved);
        line.push('\n');
        assert_eq!(line.capacity(), reserved);
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

    /// One value of every request variant with its canonical line.
    fn golden_requests() -> Vec<(Request, &'static str)> {
        let q = WireQuery::new(vec![("Job", "eng"), ("Disease", "flu")]);
        let q2 = WireQuery::new(vec![("Disease", "none")]);
        let rec = WireRecord::new(vec![("Job", "eng"), ("Disease", "flu")]);
        let at = |release: &str, inner: Request| Request::At {
            release: release.into(),
            inner: Box::new(inner),
        };
        vec![
            (Request::Query(q.clone()), "count Job=eng Disease=flu"),
            (
                Request::Batch(vec![q.clone(), q2.clone()]),
                "batch count Job=eng Disease=flu; count Disease=none",
            ),
            (Request::Insert(rec.clone()), "insert Job=eng Disease=flu"),
            (Request::Flush, "flush"),
            (Request::Info, "info"),
            (Request::Stats, "stats"),
            (Request::Metrics, "metrics"),
            (Request::Trace(None), "trace"),
            (Request::Trace(Some(7)), "trace 7"),
            (Request::Ping, "ping"),
            (Request::Quit, "quit"),
            (Request::Use("alpha".into()), "use alpha"),
            (Request::Releases, "releases"),
            (Request::Reload("beta".into()), "reload beta"),
            (
                at("alpha", Request::Query(q.clone())),
                "count@alpha Job=eng Disease=flu",
            ),
            (
                at("beta", Request::Batch(vec![q, q2])),
                "batch@beta count Job=eng Disease=flu; count Disease=none",
            ),
            (
                at("alpha", Request::Insert(rec)),
                "insert@alpha Job=eng Disease=flu",
            ),
            (at("beta", Request::Flush), "flush@beta"),
            (at("alpha", Request::Info), "info@alpha"),
        ]
    }

    /// One value of every response variant with its canonical line.
    fn golden_responses() -> Vec<(Response, &'static str)> {
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
        let entry = |name: &str, sa: &str, records, groups, live| ReleaseEntry {
            name: name.into(),
            sa: sa.into(),
            records,
            groups,
            live,
        };
        vec![
            (
                Response::Hello {
                    version: 5,
                    sa: "Disease".into(),
                    records: 6000,
                    groups: 6,
                    p: 0.5,
                    release: None,
                },
                "HELLO rp/5 sa=Disease records=6000 groups=6 p=0.5",
            ),
            (
                Response::Hello {
                    version: 5,
                    sa: "Disease".into(),
                    records: 6000,
                    groups: 6,
                    p: 0.5,
                    release: Some("alpha".into()),
                },
                "HELLO rp/5 sa=Disease records=6000 groups=6 p=0.5 release=alpha",
            ),
            (
                Response::Answer(answer),
                "est=412.5 support=2000 observed=309 f=0.20625 ci95=0.1621,0.2499",
            ),
            (Response::Answer(no_ci), "est=0 support=0 observed=3 f=0"),
            (
                Response::Batch(vec![answer, no_ci]),
                "batch 2; est=412.5 support=2000 observed=309 f=0.20625 ci95=0.1621,0.2499; \
                 est=0 support=0 observed=3 f=0",
            ),
            (Response::Batch(Vec::new()), "batch 0"),
            (
                Response::Info {
                    sa: "Disease".into(),
                    records: 6000,
                    groups: 6,
                    p: 0.5,
                    release: Some(ReleaseMeta {
                        lambda: 0.3,
                        delta: 0.25,
                        seed: 7,
                    }),
                },
                "publication sa=Disease records=6000 groups=6 p=0.5 lambda=0.3 delta=0.25 seed=7",
            ),
            (
                Response::Info {
                    sa: "Income".into(),
                    records: 30162,
                    groups: 127,
                    p: 0.25,
                    release: None,
                },
                "publication sa=Income records=30162 groups=127 p=0.25",
            ),
            (
                Response::Inserted {
                    group_size: 501,
                    republished: true,
                },
                "inserted group_size=501 republished=true",
            ),
            (Response::Flushed { events: 12345 }, "flushed events=12345"),
            (
                Response::Using {
                    release: "alpha".into(),
                    sa: "Disease".into(),
                    records: 6000,
                    groups: 6,
                    p: 0.5,
                },
                "using release=alpha sa=Disease records=6000 groups=6 p=0.5",
            ),
            (
                Response::Releases(vec![
                    entry("alpha", "Disease", 6000, 6, false),
                    entry("beta", "Income", 30162, 127, true),
                ]),
                "releases 2; name=alpha sa=Disease records=6000 groups=6 live=false; \
                 name=beta sa=Income records=30162 groups=127 live=true",
            ),
            (Response::Releases(Vec::new()), "releases 0"),
            (
                Response::Reloaded {
                    release: "beta".into(),
                    records: 30163,
                    groups: 127,
                },
                "reloaded release=beta records=30163 groups=127",
            ),
            (
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
                "stats requests=10 answered=8 errors=2 cache_hits=5 cache_misses=3 sessions=2 \
                 inserts=7 degraded=1 faults=4",
            ),
            (
                Response::Metrics {
                    counters: vec![
                        ("catalog.reload".into(), 1),
                        ("service.requests".into(), 41),
                    ],
                    histograms: vec![WireHistogram {
                        name: "wal.sync".into(),
                        count: 2,
                        p50: 511,
                        p90: 2047,
                        p99: 8191,
                        max: 6200,
                        mean: 1.5,
                    }],
                },
                "metrics counters=2 hists=1 c:catalog.reload=1 c:service.requests=41 \
                 h:wal.sync=2:511:2047:8191:6200:1.5",
            ),
            (
                Response::Trace(vec![
                    WireTraceEvent {
                        seq: 5,
                        label: "stream.degraded".into(),
                    },
                    WireTraceEvent {
                        seq: 6,
                        label: "session.open".into(),
                    },
                ]),
                "trace n=2 seq=5 label=stream.degraded seq=6 label=session.open",
            ),
            (Response::Trace(Vec::new()), "trace n=0"),
            (Response::Pong, "pong"),
            (Response::Bye, "bye"),
            (
                Response::Error {
                    code: ErrorCode::UnknownRelease,
                    message: "no release named `gamma`".into(),
                },
                "error code=unknown-release no release named `gamma`",
            ),
        ]
    }

    #[test]
    fn golden_wire_lines() {
        for (request, line) in golden_requests() {
            assert_eq!(request.encode(), line);
            assert_eq!(Request::parse(line).unwrap(), Some(request), "`{line}`");
        }
        for (response, line) in golden_responses() {
            assert_eq!(response.encode(), line);
            assert_eq!(Response::parse(line).unwrap(), response, "`{line}`");
        }
        for (code, token) in [
            (ErrorCode::Parse, "parse"),
            (ErrorCode::UnknownCommand, "unknown-command"),
            (ErrorCode::BadQuery, "bad-query"),
            (ErrorCode::Busy, "busy"),
            (ErrorCode::Internal, "internal"),
            (ErrorCode::ReadOnly, "read-only"),
            (ErrorCode::UnknownRelease, "unknown-release"),
            (ErrorCode::Degraded, "degraded"),
        ] {
            let line = format!("error code={token} m");
            let response = Response::Error {
                code,
                message: "m".into(),
            };
            assert_eq!(response.encode(), line);
            assert_eq!(Response::parse(&line).unwrap(), response);
        }
    }

    #[test]
    fn non_canonical_response_lines_are_rejected() {
        for line in [
            "flushed events=3 junk",
            "HELLO rp/5 sa=D records=1 groups=1 p=0.5 release=a junk",
            "reloaded release=a records=1 groups=1 x",
            "stats requests=1 answered=1 errors=0 cache_hits=0 cache_misses=0 sessions=1 \
             inserts=0 degraded=0 faults=0 x=1",
            "est=1 est=2 support=1 observed=1 f=0.5",
            "est=1 support=1 observed=1 f=0.5 ci95=0.1,0.2 junk",
            "publication sa=D records=1 groups=1 p=0.5 lambda=0.3",
            "pong now",
            "metrics counters=1 hists=1 h:x=1:2:3:4:5:6 c:y=1",
            // An untrusted count reserves nothing: this line once aborted
            // the client on a 128 GiB allocation.
            "metrics counters=4294967296 hists=0",
            "metrics counters=0 hists=4294967296",
            "trace n=1099511627776",
            "batch 1099511627776; est=1 support=1 observed=1 f=0.5",
        ] {
            let err = Response::parse(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::Parse, "line `{line}`");
        }
    }

    /// Every head and `key=` of every golden line appears in the README's
    /// grammar blocks and in this module's doc grammar, so neither copy
    /// can drift from the codec.
    #[test]
    fn grammar_docs_cover_every_encoded_line() {
        let readme = include_str!("../../../README.md");
        let readme_grammar: String = readme
            .split("```text")
            .skip(1)
            .filter_map(|block| block.split("```").next())
            .filter(|block| block.contains(":="))
            .collect();
        let module_doc: String = include_str!("protocol.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .collect::<Vec<_>>()
            .join("\n");
        let module_grammar = module_doc.split("```").nth(1).unwrap();
        // Needles: the version tag, every request verb (and the `@`
        // qualifier), every response head, and every `key=` (`c:`/`h:`
        // for metrics) up to an error's free-text message.
        let mut needles = vec![format!("rp/{PROTOCOL_VERSION}")];
        for (request, _) in golden_requests() {
            let line = request.encode();
            needles.push(line.split([' ', '@']).next().unwrap().into());
            if line.contains('@') {
                needles.push("@".into());
            }
        }
        for (response, _) in golden_responses() {
            let line = response.encode();
            let keyed = if response.is_error() { 2 } else { usize::MAX };
            for (i, token) in line.split(' ').take(keyed).enumerate() {
                if let Some(class) = ["c:", "h:"].into_iter().find(|c| token.starts_with(c)) {
                    needles.push(class.into());
                } else if let Some((key, _)) = token.split_once('=') {
                    needles.push(format!("{key}="));
                } else if i == 0 {
                    needles.push(token.into());
                }
            }
        }
        // A needle opens a quoted literal or follows a space inside one.
        let covers = |grammar: &str, needle: &str| {
            grammar.contains(&format!("\"{needle}")) || grammar.contains(&format!(" {needle}"))
        };
        for needle in &needles {
            assert!(
                covers(&readme_grammar, needle),
                "README grammar lacks `{needle}`"
            );
            assert!(
                covers(module_grammar, needle),
                "module grammar lacks `{needle}`"
            );
        }
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
