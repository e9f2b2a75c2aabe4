//! The transport-agnostic [`QueryService`]: one shared answering service
//! behind every serve surface.
//!
//! The service owns an `Arc<`[`QueryEngine`]`>` plus everything a session
//! needs that the engine itself does not carry: the release parameters for
//! `info`, a bounded deterministic answer cache keyed by the canonical
//! query form, and the release's counters. Transports — the
//! stdio loop in [`crate::serve()`](crate::serve::serve) and the TCP
//! listener in [`crate::server`] — are thin: they frame lines and hand
//! them to a [`crate::catalog::CatalogSession`], which routes each request
//! to a release's [`QueryService::handle`], so every transport provably
//! speaks the identical protocol.
//!
//! ## Release counters
//!
//! Each service owns one `ServiceCounters` set, declared once with the
//! same `metric_set!` table as the process-scope [`crate::obs::Counters`]
//! and shared by every session of the release. `stats` renders it as a
//! [`StatsSnapshot`]; `metrics` exports it under its `service.*` names,
//! sorted in among the process counters. These counters count requests,
//! not performance, so the observability enable switch does not gate
//! them: `stats` answers the same with the registry on or off.
//!
//! ## Caching
//!
//! Single-query answers are cached under their *canonical* form — the
//! resolved [`CountQuery`] with NA conditions sorted by attribute — so
//! `count A=a SA=s`, `A=a SA=s` and `count SA=s A=a` share one entry.
//! The cache is a bounded FIFO map: eviction depends only on the request
//! stream, never on wall-time or pointer order, keeping sessions
//! deterministic. Because the engine itself is deterministic, caching can
//! never change a response byte — only the `cache_hits` / `cache_misses`
//! counters observable through `stats`.
//!
//! Batches bypass the answer cache: every query of a `batch` line is
//! resolved first (a bad one fails the whole line, naming it), then
//! answered one by one through the same computation as an uncached
//! `count`, so a batch answer is byte-equal to the single answer. A line
//! is resolved as it is tokenized, each condition by one probe of the
//! engine's condition index, into a term buffer the session reuses, and
//! counted straight from those terms. A streaming batch holds the stream
//! lock across its queries, taken only once every query is resolved, so
//! every answer of one line sees the same live view.
//!
//! ## Degradation
//!
//! A streaming service whose WAL poisons (a failed write or fsync — see
//! the fsync-poisoning rule in [`crate::stream`]) degrades to read-only:
//! `insert`/`flush` answer `error code=degraded` carrying the durable
//! sequence number, queries keep answering from the in-memory live view
//! (which may include acknowledged-but-lost events until recovery), and
//! the `degraded`/`faults` stats counters record every refusal. Recovery
//! is reopening the stream from disk — the catalog `reload` verb.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::BufRead;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use rp_core::privacy::PrivacyParams;
use rp_table::{AttrId, CountQuery, Term};

use crate::engine::{Answer, QueryEngine, ResolvedQueries};
use crate::obs::{metric_set, Counter};
use crate::protocol::{
    ErrorCode, ProtocolError, Queries, ReleaseMeta, Request, Response, StatsSnapshot, Token,
    WireAnswer, WireQuery, WireRecord,
};
use crate::publication::{Publication, PublicationError};
use crate::stream::{StreamError, StreamPublisher};

/// What `info` reports of a release with these parameters and seed.
fn release_meta(params: PrivacyParams, seed: u64) -> ReleaseMeta {
    ReleaseMeta {
        lambda: params.lambda(),
        delta: params.delta(),
        seed,
    }
}

/// The error a checkpoint/seal returns when the publisher lock was
/// poisoned by an earlier panic: an I/O-classed stream failure, so the
/// wire mapping lands on `error code=internal` and the fault counter.
fn poisoned_stream() -> StreamError {
    StreamError::Io(std::io::Error::other(
        "stream state lock poisoned by an earlier panic",
    ))
}

/// Default answer-cache capacity of [`ServiceConfig`].
pub const DEFAULT_CACHE_ENTRIES: usize = 1024;

/// Tuning knobs of a [`QueryService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum cached single-query answers; `0` disables the cache.
    pub cache_entries: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            cache_entries: DEFAULT_CACHE_ENTRIES,
        }
    }
}

/// Counters of one serve session (one stdio run or one TCP connection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Non-empty request lines read.
    pub requests: u64,
    /// Requests answered successfully.
    pub answered: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Single-query answers this session served from the shared cache.
    pub cache_hits: u64,
    /// Single-query answers this session computed into the shared cache.
    pub cache_misses: u64,
    /// Records this session inserted into the live release.
    pub inserts: u64,
    /// Requests this session had refused because the live release is
    /// degraded (same meaning as [`StatsSnapshot::degraded`]).
    pub degraded: u64,
    /// Storage faults this session observed (same meaning as
    /// [`StatsSnapshot::faults`]; lock-poison refusals, which have no
    /// session context, count only in the release counters).
    pub faults: u64,
}

/// Bounded FIFO answer cache. Insertion order alone decides eviction, so
/// behaviour is a pure function of the request stream.
#[derive(Debug)]
struct AnswerCache {
    capacity: usize,
    map: HashMap<CountQuery, Answer>,
    order: VecDeque<CountQuery>,
}

impl AnswerCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: &CountQuery) -> Option<Answer> {
        self.map.get(key).copied()
    }

    fn insert(&mut self, key: CountQuery, answer: Answer) {
        if self.capacity == 0 {
            return;
        }
        if self.map.len() == self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        if self.map.insert(key.clone(), answer).is_none() {
            self.order.push_back(key);
        }
    }

    /// Drops every cached answer whose query satisfies `stale` — the
    /// insert path's surgical invalidation. Eviction order keeps the
    /// surviving entries' relative FIFO positions.
    fn invalidate_matching(&mut self, stale: impl Fn(&CountQuery) -> bool) {
        self.map.retain(|query, _| !stale(query));
        self.order.retain(|query| self.map.contains_key(query));
    }
}

metric_set! {
    /// The release-scope counters of one [`QueryService`], shared by all
    /// its sessions (see the module docs).
    #[derive(Debug)]
    pub(crate) struct ServiceCounters<Counter> {
        answered => "service.answered",
        cache_hits => "service.cache_hits",
        cache_misses => "service.cache_misses",
        degraded => "service.degraded",
        errors => "service.errors",
        faults => "service.faults",
        inserts => "service.inserts",
        requests => "service.requests",
        sessions => "service.sessions",
    }
}

/// The live half of a streaming service: the stream publisher behind a
/// lock, plus where `flush` persists snapshots.
#[derive(Debug)]
struct StreamBackend {
    publisher: Mutex<StreamPublisher>,
    state_out: Option<PathBuf>,
}

/// The shared query-answering service every transport runs over.
///
/// Cheap to share: a catalog holds an `Arc<QueryService>` per release and
/// its sessions call [`QueryService::handle`] per routed request. All
/// interior state (cache, counters) is synchronized, so concurrent
/// sessions are safe.
#[derive(Debug)]
pub struct QueryService {
    engine: Arc<QueryEngine>,
    release: Option<ReleaseMeta>,
    /// The live stream behind `insert`/`flush`; `None` for a static
    /// (batch-artifact) service, which answers them `read-only`.
    stream: Option<StreamBackend>,
    /// Mirrors the cache's capacity so a disabled cache (capacity 0)
    /// never takes the lock on the hot path.
    cache_capacity: usize,
    cache: Mutex<AnswerCache>,
    counters: ServiceCounters,
}

impl QueryService {
    /// Builds a service over an existing engine. `release` supplies the
    /// artifact parameters reported by `info` (pass `None` for engines
    /// built from raw histograms).
    pub fn new(
        engine: Arc<QueryEngine>,
        release: Option<ReleaseMeta>,
        config: ServiceConfig,
    ) -> Self {
        Self {
            engine,
            release,
            stream: None,
            cache_capacity: config.cache_entries,
            cache: Mutex::new(AnswerCache::new(config.cache_entries)),
            counters: ServiceCounters::default(),
        }
    }

    /// Builds a *streaming* service: the engine answers the immutable
    /// base of `stream` and every answer is merged with the live view,
    /// so `insert`/`flush` work and queries see new records immediately.
    /// `state_out` is where `flush` writes the snapshot (WAL sync
    /// alone when `None`).
    ///
    /// Cache coherence is surgical: an insert to group *g* invalidates
    /// exactly the cached answers whose NA match set contains *g* —
    /// other entries keep serving hits.
    pub fn streaming(
        stream: StreamPublisher,
        state_out: Option<PathBuf>,
        config: ServiceConfig,
    ) -> Self {
        let base = stream.base();
        let release = release_meta(base.params(), base.seed());
        let mut service = Self::new(Arc::new(QueryEngine::new(base)), Some(release), config);
        service.stream = Some(StreamBackend {
            publisher: Mutex::new(stream),
            state_out,
        });
        service
    }

    /// Whether this service accepts `insert`/`flush`.
    pub fn is_streaming(&self) -> bool {
        self.stream.is_some()
    }

    /// Syncs the WAL and writes the snapshot (when configured), exactly
    /// like a client `flush`. Transport shutdown paths call this so a
    /// server never exits with acknowledged-but-unsynced events. Returns
    /// the durable event count, or `None` on a static service.
    ///
    /// # Errors
    ///
    /// Returns the stream failure (I/O, snapshot serialization).
    pub fn checkpoint(&self) -> Result<Option<u64>, StreamError> {
        let Some(backend) = &self.stream else {
            return Ok(None);
        };
        let mut publisher = backend.publisher.lock().map_err(|_| poisoned_stream())?;
        let events = publisher.flush()?;
        if let Some(path) = &backend.state_out {
            publisher.save_snapshot(path)?;
        }
        Ok(Some(events))
    }

    /// Like [`QueryService::checkpoint`], but additionally **seals** the
    /// live stream's WAL write handle: after this returns, no code path
    /// through this service can ever write the WAL file again —
    /// `insert`/`flush` refuse with the degraded error — while queries
    /// keep answering from memory. The flush and the seal latch happen
    /// under one publisher lock acquisition, so no insert can slip
    /// between them. The catalog calls this before rebuilding a
    /// streaming release from disk; a static service seals trivially.
    ///
    /// # Errors
    ///
    /// The stream failure; an already-degraded stream refuses the flush
    /// but stays sealed by its own poison either way.
    pub fn seal(&self) -> Result<Option<u64>, StreamError> {
        let Some(backend) = &self.stream else {
            return Ok(None);
        };
        let mut publisher = backend.publisher.lock().map_err(|_| poisoned_stream())?;
        let events = publisher.seal()?;
        if let Some(path) = &backend.state_out {
            publisher.save_snapshot(path)?;
        }
        Ok(Some(events))
    }

    /// Builds the engine from a publication artifact and wraps it in a
    /// service carrying the artifact's `(λ, δ, seed)` for `info`.
    pub fn from_publication(publication: &Publication, config: ServiceConfig) -> Self {
        let release = release_meta(publication.params(), publication.seed());
        Self::new(
            Arc::new(QueryEngine::new(publication)),
            Some(release),
            config,
        )
    }

    /// Opens a saved release as a static service:
    /// `QueryService::from_publication(&Publication::load(r)?, config)`.
    ///
    /// # Errors
    ///
    /// As [`Publication::load`].
    pub fn open<R: BufRead>(r: R, config: ServiceConfig) -> Result<Self, PublicationError> {
        Ok(Self::from_publication(&Publication::load(r)?, config))
    }

    /// The engine answering for this service.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Records and groups of the served view: the base release plus, on
    /// a streaming service, the live records and the live groups whose
    /// key the base does not already contain (a shared key is one group,
    /// not two).
    fn records_groups(&self) -> (u64, u64) {
        let mut records = self.engine.records();
        let mut groups = self.engine.groups() as u64;
        if let Some(backend) = &self.stream {
            // A poisoned stream lock degrades `hello`/`info` to the
            // base view rather than killing the session thread.
            if let Ok(publisher) = backend.publisher.lock() {
                records += publisher.live_records();
                groups += publisher.novel_live_groups() as u64;
            }
        }
        (records, groups)
    }

    /// The banner-level parameters of the served view, as reported by the
    /// session `HELLO` banner and by [`Response::Using`] when a catalog
    /// session binds this release: `(sa, records, groups, p)`.
    pub fn release_summary(&self) -> (String, u64, u64, f64) {
        let (records, groups) = self.records_groups();
        (self.sa_name().to_string(), records, groups, self.engine.p())
    }

    /// The sensitive attribute's name in the served schema.
    pub fn sa_name(&self) -> &str {
        self.engine.schema().attribute(self.engine.sa()).name()
    }

    /// Registers one session start (transports call this once per
    /// connection or stdio run).
    pub fn session_started(&self) {
        self.counters.sessions.inc();
    }

    /// A snapshot of the release counters across all sessions.
    pub fn stats(&self) -> StatsSnapshot {
        let c = &self.counters;
        StatsSnapshot {
            requests: c.requests.get(),
            answered: c.answered.get(),
            errors: c.errors.get(),
            cache_hits: c.cache_hits.get(),
            cache_misses: c.cache_misses.get(),
            sessions: c.sessions.get(),
            inserts: c.inserts.get(),
            degraded: c.degraded.get(),
            faults: c.faults.get(),
        }
    }

    /// Answers one raw request line from this release alone — no routing,
    /// no stage timing — counting it exactly like a routed line. Returns
    /// `None` for blank lines. Servers answer lines through
    /// [`CatalogSession::handle_line`](crate::catalog::CatalogSession::handle_line);
    /// this un-routed form remains for in-process reference answers
    /// (`perfbench/harness`).
    pub fn handle_line(&self, line: &str, session: &mut SessionStats) -> Option<Response> {
        Some(match Request::parse(line).transpose()? {
            Ok(request) => self.handle(&request, session),
            Err(e) => {
                let response = Response::from(e);
                self.count(&response, session);
                response
            }
        })
    }

    /// Handles one typed request (already parsed and routed to this
    /// release), counting it in `session` and in the release counters.
    /// A `count` or `batch` request is answered from its conditions
    /// borrowed in the same form as a line a session parses.
    pub fn handle(&self, request: &Request, session: &mut SessionStats) -> Response {
        let response = self.dispatch(request, session);
        self.count(&response, session);
        response
    }

    /// Answers the queries of one routed `count` or `batch` line,
    /// resolved into the session's reused term buffer `resolved`, and
    /// counts the request, like [`QueryService::handle`].
    ///
    /// # Errors
    ///
    /// The parse error of a malformed body, found as it is walked. Nothing
    /// was answered or counted: the caller reports it as a line that did
    /// not parse.
    pub(crate) fn handle_queries(
        &self,
        queries: &Queries<'_>,
        resolved: &mut ResolvedQueries,
        session: &mut SessionStats,
    ) -> Result<Response, ProtocolError> {
        let response = self.answer(queries, resolved, session)?;
        self.count(&response, session);
        Ok(response)
    }

    /// Charges one answered request to `session` and to this release's
    /// counters.
    pub(crate) fn count(&self, response: &Response, session: &mut SessionStats) {
        session.requests += 1;
        self.counters.requests.inc();
        if response.is_error() {
            session.errors += 1;
            self.counters.errors.inc();
        } else {
            session.answered += 1;
            self.counters.answered.inc();
        }
    }

    fn dispatch(&self, request: &Request, session: &mut SessionStats) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Quit => Response::Bye,
            Request::Info => {
                let (records, groups) = self.records_groups();
                Response::Info {
                    sa: self.sa_name().to_string(),
                    records,
                    groups,
                    p: self.engine.p(),
                    release: self.release,
                }
            }
            // Snapshot precedes counting, so a `stats` response reports
            // the totals as of just before the request itself.
            Request::Stats => Response::Stats(self.stats()),
            Request::Metrics => self.metrics(),
            Request::Trace(n) => {
                let obs = crate::obs::global();
                let limit = n
                    .map(|n| usize::try_from(n).unwrap_or(usize::MAX))
                    .unwrap_or(usize::MAX);
                Response::Trace(
                    obs.trace_recent(limit)
                        .into_iter()
                        .map(|e| crate::protocol::WireTraceEvent {
                            seq: e.seq,
                            label: e.label,
                        })
                        .collect(),
                )
            }
            Request::Query(q) => self.answer_wire(false, std::slice::from_ref(q), session),
            Request::Batch(queries) => self.answer_wire(true, queries, session),
            Request::Insert(record) => match self.insert(record, session) {
                Ok(r) => r,
                Err(e) => Response::from(e),
            },
            Request::Flush => match self.flush(session) {
                Ok(r) => r,
                Err(e) => Response::from(e),
            },
            // A [`crate::catalog::CatalogSession`] answers catalog verbs
            // itself; one reaching a release is a routing bug.
            Request::Use(_) | Request::Releases | Request::Reload(_) | Request::At { .. } => {
                Response::Error {
                    code: ErrorCode::Internal,
                    message: "catalog verb reached a release unrouted".to_string(),
                }
            }
        }
    }

    /// Renders the rp/5 `metrics` response: the process-global
    /// observability registry merged with this release's
    /// `ServiceCounters`, everything sorted by name within its class.
    /// Like `stats`, the snapshot is taken before the in-flight request
    /// is counted.
    fn metrics(&self) -> Response {
        let obs = crate::obs::global();
        let mut counters: Vec<(String, u64)> = obs
            .counter_values()
            .into_iter()
            .chain(self.counters.iter().map(|(name, c)| (name, c.get())))
            .map(|(name, value)| (name.to_string(), value))
            .collect();
        counters.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let histograms = obs
            .histogram_summaries()
            .into_iter()
            .map(|(name, s)| crate::protocol::WireHistogram {
                name: name.to_string(),
                count: s.count,
                p50: s.p50,
                p90: s.p90,
                p99: s.p99,
                max: s.max,
                mean: if s.count == 0 {
                    0.0
                } else {
                    s.sum as f64 / s.count as f64
                },
            })
            .collect();
        Response::Metrics {
            counters,
            histograms,
        }
    }

    /// Acquires the stream publisher lock, converting poison into a
    /// typed `error code=internal` response. The publisher owns
    /// multi-step WAL/commit state, so a thread that panicked while
    /// holding this lock may have left that state inconsistent — the
    /// only safe serving behavior is to refuse stream operations (the
    /// fault counter records each refusal) while static queries keep
    /// answering.
    fn publisher_guard<'a>(
        &self,
        backend: &'a StreamBackend,
    ) -> Result<MutexGuard<'a, StreamPublisher>, ProtocolError> {
        backend.publisher.lock().map_err(|_| {
            self.counters.faults.inc();
            ProtocolError {
                code: ErrorCode::Internal,
                message:
                    "stream state lock poisoned by an earlier panic; restart or reload the release"
                        .to_string(),
            }
        })
    }

    /// Acquires the answer-cache lock. The cache is correctness-
    /// transparent — it only ever re-serves answers the deterministic
    /// engine already computed — so poison is recovered by resetting to
    /// an empty cache and continuing, never by failing the request.
    fn cache_guard(&self) -> MutexGuard<'_, AnswerCache> {
        match self.cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.cache.clear_poison();
                let mut guard = poisoned.into_inner();
                *guard = AnswerCache::new(self.cache_capacity);
                guard
            }
        }
    }

    /// The streaming backend, or the `read-only` refusal.
    fn backend(&self) -> Result<&StreamBackend, ProtocolError> {
        self.stream.as_ref().ok_or_else(|| ProtocolError {
            code: ErrorCode::ReadOnly,
            message: "serving a static artifact; restart `rpctl serve` with --wal to ingest"
                .to_string(),
        })
    }

    /// One insert: log + apply under the stream lock, then surgically
    /// drop exactly the cached answers whose match set contains the
    /// record's group.
    fn insert(
        &self,
        record: &WireRecord,
        session: &mut SessionStats,
    ) -> Result<Response, ProtocolError> {
        let backend = self.backend()?;
        let mut publisher = self.publisher_guard(backend)?;
        let values: Vec<(&str, &str)> = record
            .fields
            .iter()
            .map(|(c, v)| (c.as_str(), v.as_str()))
            .collect();
        let outcome = publisher
            .insert_values(&values)
            .map_err(|e| self.stream_error(e, session))?;
        if self.cache_capacity > 0 {
            self.cache_guard()
                .invalidate_matching(|query| publisher.key_matches(&outcome.key, query));
        }
        session.inserts += 1;
        self.counters.inserts.inc();
        Ok(Response::Inserted {
            group_size: outcome.group_size,
            republished: outcome.republished,
        })
    }

    /// One flush: WAL sync plus snapshot (when configured). This is the
    /// durability barrier that closes any open group-commit batch —
    /// inserts are acknowledged when logged, durable when flushed.
    fn flush(&self, session: &mut SessionStats) -> Result<Response, ProtocolError> {
        self.backend()?; // read-only refusal before any I/O
        let events = self
            .checkpoint()
            .map_err(|e| self.stream_error(e, session))?
            .ok_or_else(|| ProtocolError {
                code: ErrorCode::Internal,
                message: "stream backend vanished during flush".to_string(),
            })?;
        Ok(Response::Flushed { events })
    }

    /// Maps a stream failure to its wire error, recording the fault
    /// counters (release *and* per-session): a degradation counts
    /// under both `degraded` and `faults`, any other I/O failure under
    /// `faults` alone, and validation failures (bad column, unknown
    /// value) under neither.
    fn stream_error(&self, e: StreamError, session: &mut SessionStats) -> ProtocolError {
        let code = match &e {
            StreamError::Degraded { .. } => ErrorCode::Degraded,
            StreamError::Io(_) => ErrorCode::Internal,
            _ => ErrorCode::BadQuery,
        };
        match code {
            ErrorCode::Degraded => {
                session.degraded += 1;
                session.faults += 1;
                self.counters.degraded.inc();
                self.counters.faults.inc();
            }
            ErrorCode::Internal => {
                session.faults += 1;
                self.counters.faults.inc();
            }
            _ => {}
        }
        ProtocolError {
            code,
            message: e.to_string(),
        }
    }

    /// Locks the live view for answering: the stream publisher on a
    /// streaming service, `None` on a static one.
    fn live_view(&self) -> Result<Option<MutexGuard<'_, StreamPublisher>>, ProtocolError> {
        self.stream
            .as_ref()
            .map(|backend| self.publisher_guard(backend))
            .transpose()
    }

    /// Answers one resolved query, NA `terms` and SA code `sa`, against
    /// the served view: base-release counts plus, given the caller's
    /// locked `live` view, the live groups' counts, estimated over the
    /// union.
    fn compute(&self, terms: &[(AttrId, Term)], sa: u32, live: Option<&StreamPublisher>) -> Answer {
        let (mut support, mut observed) = self.engine.counts_terms(terms, sa);
        if let Some(publisher) = live {
            let (live_support, live_observed) = publisher.live_support_observed_terms(terms, sa);
            support += live_support;
            observed += live_observed;
        }
        self.engine.answer_from_counts(support, observed)
    }

    /// Records a cache miss and stores the freshly computed answer.
    fn cache_miss(&self, key: CountQuery, answer: Answer, session: &mut SessionStats) {
        session.cache_misses += 1;
        self.counters.cache_misses.inc();
        self.cache_guard().insert(key, answer);
    }

    /// The response to a `count` request (one query, answered through the
    /// cache) or a `batch` request (every query, bypassing it). Every
    /// condition is resolved through the engine's condition index as the
    /// request is walked, into the caller's term buffer `resolved`; the
    /// first failing query fails the request, and in a batch the message
    /// names it. A streaming release resolves every query before it takes
    /// the stream lock.
    ///
    /// # Errors
    ///
    /// The parse error of a malformed line body (see
    /// [`QueryService::handle_queries`]); it wins over any resolve
    /// failure, so the walk goes on to the end of the line after one.
    fn answer(
        &self,
        queries: &Queries<'_>,
        resolved: &mut ResolvedQueries,
        session: &mut SessionStats,
    ) -> Result<Response, ProtocolError> {
        resolved.clear();
        let mut failed = None;
        queries.walk(|token| {
            if failed.is_some() {
                return;
            }
            let step = match token {
                Token::Condition(col, value) => self.engine.resolve_condition(resolved, col, value),
                Token::End => self.engine.end_query(resolved),
            };
            failed = step.err();
        })?;
        if let Some(e) = failed {
            let message = if queries.batch {
                format!("query {}: {e}", resolved.len() + 1)
            } else {
                e.to_string()
            };
            return Ok(Response::Error {
                code: ErrorCode::BadQuery,
                message,
            });
        }
        let answered = if queries.batch {
            self.answer_batch(resolved).map(Response::Batch)
        } else {
            self.answer_single(resolved, session).map(Response::Answer)
        };
        Ok(answered.unwrap_or_else(Response::from))
    }

    /// [`QueryService::answer`] over owned wire queries, resolved into a
    /// buffer sized for them. They were tokenized when they were parsed,
    /// so walking them cannot fail.
    fn answer_wire(
        &self,
        batch: bool,
        queries: &[WireQuery],
        session: &mut SessionStats,
    ) -> Response {
        let conditions = queries.iter().map(|q| q.conditions.len()).sum();
        let mut resolved = ResolvedQueries::with_capacity(queries.len(), conditions);
        self.answer(&Queries::of_wire(batch, queries), &mut resolved, session)
            .unwrap_or_else(Response::from)
    }

    fn answer_single(
        &self,
        resolved: &ResolvedQueries,
        session: &mut SessionStats,
    ) -> Result<WireAnswer, ProtocolError> {
        let (terms, sa) = resolved.iter().next().unwrap_or_default();
        // The canonical query (NA terms sorted by attribute) is the cache
        // key.
        let key = self
            .engine
            .canonical_query(terms, sa)
            .map_err(|e| ProtocolError {
                code: ErrorCode::BadQuery,
                message: e.to_string(),
            })?;
        if self.cache_capacity > 0 {
            // Sampled lookup timing; the same 1-in-8 decision gates the
            // cache hit/miss trace events so tracing stays off the
            // steady-state hot path.
            let obs = crate::obs::global();
            let cache_lookup = &obs.histograms.service_cache_lookup;
            let t0 = obs.sampled_start(cache_lookup);
            let hit = self.cache_guard().get(&key);
            if let Some(t0) = t0 {
                cache_lookup.record(obs.now_ns().saturating_sub(t0));
                obs.trace(if hit.is_some() {
                    "cache.hit"
                } else {
                    "cache.miss"
                });
            }
            if let Some(hit) = hit {
                session.cache_hits += 1;
                self.counters.cache_hits.inc();
                return Ok(WireAnswer::from(&hit));
            }
        }
        // Streaming: compute AND cache under the stream lock. Releasing it
        // in between would race with a concurrent insert — its surgical
        // invalidation could run before this (pre-insert) answer lands in
        // the cache, leaving a stale entry behind. The insert path takes
        // the locks in the same stream→cache order, so no deadlock. A
        // static release holds no lock: its engine is immutable.
        let live = self.live_view()?;
        let answer = self.compute(terms, sa, live.as_deref());
        if self.cache_capacity > 0 {
            self.cache_miss(key, answer, session);
        }
        Ok(WireAnswer::from(&answer))
    }

    /// Every query of a resolved batch, answered under one hold of the
    /// live view into a list sized once.
    fn answer_batch(&self, resolved: &ResolvedQueries) -> Result<Vec<WireAnswer>, ProtocolError> {
        let live = self.live_view()?;
        let mut answers = Vec::with_capacity(resolved.len());
        for (terms, sa) in resolved.iter() {
            answers.push(WireAnswer::from(&self.compute(terms, sa, live.as_deref())));
        }
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PROTOCOL_VERSION;
    use crate::publisher::Publisher;
    use rp_table::{Attribute, Schema, TableBuilder};

    fn fixture_publication() -> Publication {
        let schema = Schema::new(vec![
            Attribute::new("Job", ["eng", "doc"]),
            Attribute::new("Disease", ["flu", "none"]),
        ]);
        // Balanced SA frequencies keep both 200-record groups under their
        // Equation-10 threshold, so SPS degenerates to UP and published
        // record counts stay exact — the protocol tests rely on that.
        let mut b = TableBuilder::new(schema);
        for i in 0..400u32 {
            b.push_codes(&[i % 2, (i / 2) % 2]).unwrap();
        }
        Publisher::new(b.build()).sa(1).seed(3).publish().unwrap()
    }

    fn service(cache_entries: usize) -> QueryService {
        QueryService::from_publication(&fixture_publication(), ServiceConfig { cache_entries })
    }

    fn query(line: &str) -> Request {
        Request::parse(line).unwrap().unwrap()
    }

    impl QueryService {
        /// Cached single-query answers currently held.
        pub(crate) fn cached_answers(&self) -> usize {
            self.cache_guard().map.len()
        }
    }

    #[test]
    fn single_query_answers_and_counts() {
        let s = service(8);
        let mut session = SessionStats::default();
        let r = s
            .handle_line("count Job=eng Disease=flu", &mut session)
            .unwrap();
        let Response::Answer(a) = r else {
            panic!("expected answer, got {r:?}");
        };
        assert_eq!(a.support, 200);
        assert!(a.ci.is_some());
        assert_eq!(session.requests, 1);
        assert_eq!(session.answered, 1);
        assert_eq!(session.cache_misses, 1);
        assert_eq!(s.stats().answered, 1);
    }

    #[test]
    fn cache_hits_on_canonical_form() {
        let s = service(8);
        let mut session = SessionStats::default();
        let first = s.handle_line("count Job=eng Disease=flu", &mut session);
        // Same query: no verb, reordered conditions — still one entry.
        let second = s.handle_line("Disease=flu Job=eng", &mut session);
        assert_eq!(first, second);
        assert_eq!(session.cache_misses, 1);
        assert_eq!(session.cache_hits, 1);
        assert_eq!(s.cached_answers(), 1);
    }

    #[test]
    fn disabled_cache_counts_nothing_and_answers_identically() {
        let cached = service(8);
        let uncached = service(0);
        let mut sc = SessionStats::default();
        let mut su = SessionStats::default();
        for line in ["count Job=eng Disease=flu", "count Job=eng Disease=flu"] {
            let a = cached.handle_line(line, &mut sc).unwrap();
            let b = uncached.handle_line(line, &mut su).unwrap();
            assert_eq!(a.encode(), b.encode(), "cache changed response bytes");
        }
        assert_eq!(sc.cache_hits, 1);
        assert_eq!(su.cache_hits, 0);
        assert_eq!(su.cache_misses, 0);
        assert_eq!(uncached.cached_answers(), 0);
    }

    #[test]
    fn cache_eviction_is_fifo_and_bounded() {
        let s = service(2);
        let mut session = SessionStats::default();
        s.handle_line("Job=eng Disease=flu", &mut session);
        s.handle_line("Job=doc Disease=flu", &mut session);
        s.handle_line("Job=eng Disease=none", &mut session); // evicts the first
        assert_eq!(s.cached_answers(), 2);
        s.handle_line("Job=eng Disease=flu", &mut session); // must recompute
        assert_eq!(session.cache_misses, 4);
        assert_eq!(session.cache_hits, 0);
    }

    #[test]
    fn batch_errors_name_the_failing_query() {
        let s = service(0);
        let mut session = SessionStats::default();
        let r = s.handle(&query("batch Job=eng Disease=flu; Job=doc"), &mut session);
        let Response::Error { code, message } = r else {
            panic!("expected error, got {r:?}");
        };
        assert_eq!(code, ErrorCode::BadQuery);
        assert!(message.starts_with("query 2:"), "{message}");
    }

    #[test]
    fn error_codes_distinguish_failure_classes() {
        let s = service(0);
        let mut session = SessionStats::default();
        for (line, want) in [
            ("garbage", ErrorCode::UnknownCommand),
            ("count Job", ErrorCode::Parse),
            ("count Job=eng", ErrorCode::BadQuery), // missing SA condition
            ("count Nope=1 Disease=flu", ErrorCode::BadQuery),
            ("count Job=zzz Disease=flu", ErrorCode::BadQuery),
            // Duplicated column: typed error, never the Pattern panic.
            ("count Job=eng Job=doc Disease=flu", ErrorCode::BadQuery),
        ] {
            let r = s.handle_line(line, &mut session).unwrap();
            let Response::Error { code, .. } = r else {
                panic!("expected error for `{line}`, got {r:?}");
            };
            assert_eq!(code, want, "line `{line}`");
        }
        assert_eq!(session.errors, 6);
        assert_eq!(s.stats().errors, 6);
    }

    #[test]
    fn info_reports_release_parameters() {
        let s = service(0);
        let mut session = SessionStats::default();
        let r = s.handle(&Request::Info, &mut session);
        let Response::Info {
            sa,
            records,
            p,
            release,
            ..
        } = r
        else {
            panic!("expected info");
        };
        assert_eq!(sa, "Disease");
        assert_eq!(records, 400);
        assert_eq!(p, 0.5);
        let meta = release.expect("built from a publication");
        assert_eq!(meta.lambda, 0.3);
        assert_eq!(meta.seed, 3);
    }

    #[test]
    fn stats_snapshot_counts_sessions() {
        let s = service(4);
        s.session_started();
        s.session_started();
        let mut session = SessionStats::default();
        s.handle_line("ping", &mut session);
        let Some(Response::Stats(snap)) = s.handle_line("stats", &mut session) else {
            panic!("expected stats");
        };
        assert_eq!(snap.sessions, 2);
        // The snapshot is taken before the in-flight `stats` request is
        // counted, so it reports only the ping.
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.answered, 1);
    }

    fn stream_tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rp-service-stream-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn streaming_service(name: &str, cache_entries: usize) -> QueryService {
        let stream = StreamPublisher::open(
            fixture_publication(),
            &stream_tmp(name),
            crate::stream::StreamConfig::default(),
        )
        .unwrap();
        QueryService::streaming(stream, None, ServiceConfig { cache_entries })
    }

    /// Sends one `batch` line over every fixture query shape (NA-free,
    /// one NA condition, either condition order) and asserts its encoding
    /// is byte-equal to the `count` answers of the same queries, before
    /// and after those singles warmed the cache.
    fn assert_batch_bytes_equal_singles(s: &QueryService) {
        let queries = [
            "Job=eng Disease=flu",
            "Disease=none Job=doc",
            "Job=doc Disease=flu",
            "Disease=flu",
            "Disease=none",
        ];
        let mut session = SessionStats::default();
        let batch_line = format!("batch {}", queries.join("; "));
        let batch = s.handle_line(&batch_line, &mut session).unwrap().encode();
        let mut singles = format!("batch {}", queries.len());
        for q in queries {
            let single = s.handle_line(&format!("count {q}"), &mut session).unwrap();
            assert!(matches!(single, Response::Answer(_)), "{single:?}");
            singles.push_str("; ");
            singles.push_str(&single.encode());
        }
        assert_eq!(batch, singles);
        let again = s.handle_line(&batch_line, &mut session).unwrap().encode();
        assert_eq!(again, singles, "a warm cache changed batch bytes");
    }

    #[test]
    fn batch_answers_are_byte_equal_to_single_counts() {
        for cache_entries in [0, DEFAULT_CACHE_ENTRIES] {
            assert_batch_bytes_equal_singles(&service(cache_entries));
        }
        let s = streaming_service("batch-bytes.rpwal", DEFAULT_CACHE_ENTRIES);
        let mut session = SessionStats::default();
        for line in [
            "insert Job=eng Disease=flu",
            "insert Job=eng Disease=flu",
            "insert Job=doc Disease=none",
        ] {
            let r = s.handle_line(line, &mut session).unwrap();
            assert!(matches!(r, Response::Inserted { .. }), "{r:?}");
        }
        assert_batch_bytes_equal_singles(&s);
    }

    #[test]
    fn static_service_answers_insert_and_flush_read_only() {
        let s = service(4);
        let mut session = SessionStats::default();
        for line in ["insert Job=eng Disease=flu", "flush"] {
            let r = s.handle_line(line, &mut session).unwrap();
            let Response::Error { code, .. } = r else {
                panic!("expected read-only error for `{line}`, got {r:?}");
            };
            assert_eq!(code, ErrorCode::ReadOnly, "line `{line}`");
        }
        assert!(!s.is_streaming());
        assert_eq!(s.checkpoint().unwrap(), None);
    }

    #[test]
    fn streaming_service_merges_live_records_into_answers() {
        let s = streaming_service("merge.rpwal", 8);
        assert!(s.is_streaming());
        let mut session = SessionStats::default();
        let before = s.handle_line("count Job=eng Disease=flu", &mut session);
        let Some(Response::Answer(a0)) = before else {
            panic!("expected answer, got {before:?}");
        };
        assert_eq!(a0.support, 200, "base-only before any insert");
        // Three inserts into the queried group: the next answer must see
        // exactly them (the fixture's SPS degenerated to UP, and inserts
        // retain published size exactly).
        for _ in 0..3 {
            let r = s
                .handle_line("insert Job=eng Disease=flu", &mut session)
                .unwrap();
            assert!(
                matches!(
                    r,
                    Response::Inserted {
                        group_size: _,
                        republished: false
                    }
                ),
                "{r:?}"
            );
        }
        let after = s.handle_line("count Job=eng Disease=flu", &mut session);
        let Some(Response::Answer(a1)) = after else {
            panic!("expected answer, got {after:?}");
        };
        assert_eq!(a1.support, 203, "live records joined the support");
        assert_eq!(session.inserts, 3);
        assert_eq!(s.stats().inserts, 3);
        // The banner and info also report the live view — records grow,
        // but inserts into existing base keys add no new groups.
        let (_, records, groups, _) = s.release_summary();
        assert_eq!(records, 403);
        assert_eq!(groups, 2, "shared keys must not double-count");
        // Batches agree with singles on the merged view.
        let batch = s.handle_line(
            "batch Job=eng Disease=flu; Job=doc Disease=none",
            &mut session,
        );
        let Some(Response::Batch(answers)) = batch else {
            panic!("expected batch, got {batch:?}");
        };
        assert_eq!(answers[0], a1);
    }

    #[test]
    fn insert_invalidates_exactly_the_intersecting_cache_entries() {
        let s = streaming_service("invalidate.rpwal", 16);
        let mut session = SessionStats::default();
        // Warm three entries: two touching Job=eng, one disjoint.
        s.handle_line("count Job=eng Disease=flu", &mut session);
        s.handle_line("count Disease=flu", &mut session); // wildcard Job: intersects every group
        s.handle_line("count Job=doc Disease=none", &mut session);
        assert_eq!(s.cached_answers(), 3);
        assert_eq!(session.cache_misses, 3);
        // Insert into (Job=eng): must evict the two intersecting entries
        // and keep the doc-only one.
        s.handle_line("insert Job=eng Disease=none", &mut session)
            .unwrap();
        assert_eq!(s.cached_answers(), 1, "only the disjoint entry survives");
        s.handle_line("count Job=doc Disease=none", &mut session);
        assert_eq!(session.cache_hits, 1, "disjoint entry still serves hits");
        // The invalidated query recomputes against the live view.
        let r = s.handle_line("count Job=eng Disease=flu", &mut session);
        let Some(Response::Answer(a)) = r else {
            panic!("expected answer");
        };
        assert_eq!(a.support, 201);
        assert_eq!(session.cache_misses, 4);
    }

    #[test]
    fn flush_syncs_and_writes_the_snapshot() {
        let state_out = stream_tmp("flush-state.rppub");
        let stream = StreamPublisher::open(
            fixture_publication(),
            &stream_tmp("flush.rpwal"),
            crate::stream::StreamConfig::default(),
        )
        .unwrap();
        let s = QueryService::streaming(stream, Some(state_out.clone()), ServiceConfig::default());
        let mut session = SessionStats::default();
        s.handle_line("insert Job=eng Disease=flu", &mut session)
            .unwrap();
        let r = s.handle_line("flush", &mut session).unwrap();
        let Response::Flushed { events } = r else {
            panic!("expected flushed, got {r:?}");
        };
        assert_eq!(events, 1);
        let snapshot = Publication::load_from_path(&state_out).unwrap();
        assert_eq!(snapshot.live().unwrap().inserted, 1);
        assert_eq!(snapshot.table().rows(), 401);
    }

    #[test]
    fn a_degraded_stream_refuses_writes_but_keeps_answering() {
        use crate::fault::{FaultHandle, FaultSchedule};
        // `Wal::create_with` consumes syncs 1–2, so the first flush-time
        // fsync is sync 3 — scripted to fail.
        let faults: FaultHandle = Arc::new(FaultSchedule::fsync_at(3));
        let stream = StreamPublisher::open_with(
            fixture_publication(),
            &stream_tmp("degraded.rpwal"),
            crate::stream::StreamConfig::default(),
            faults,
        )
        .unwrap();
        let s = QueryService::streaming(stream, None, ServiceConfig::default());
        let mut session = SessionStats::default();
        s.handle_line("insert Job=eng Disease=flu", &mut session)
            .unwrap();
        // The flush hits the scripted fsync failure: the stream poisons
        // and the response reports the durable boundary.
        let r = s.handle_line("flush", &mut session).unwrap();
        let Response::Error { code, message } = r else {
            panic!("expected degraded error, got {r:?}");
        };
        assert_eq!(code, ErrorCode::Degraded);
        assert!(message.contains("durable through event 0"), "{message}");
        // Writes keep refusing — the fsync is never retried-and-acked...
        let r = s
            .handle_line("insert Job=eng Disease=flu", &mut session)
            .unwrap();
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::Degraded,
                    ..
                }
            ),
            "{r:?}"
        );
        // ...while queries keep answering from the in-memory live view.
        let r = s
            .handle_line("count Job=eng Disease=flu", &mut session)
            .unwrap();
        let Response::Answer(a) = r else {
            panic!("expected answer, got {r:?}");
        };
        assert_eq!(a.support, 201, "the acked insert still answers");
        let snap = s.stats();
        assert_eq!(snap.degraded, 2);
        assert_eq!(snap.faults, 2);
        // Per-session stats carry the same schema as the aggregate.
        assert_eq!(session.degraded, 2);
        assert_eq!(session.faults, 2);
    }

    #[test]
    fn bad_insert_records_are_typed_errors() {
        let s = streaming_service("bad-insert.rpwal", 4);
        let mut session = SessionStats::default();
        for line in [
            "insert Job=eng",                     // missing columns
            "insert Job=eng Job=doc Disease=flu", // duplicate
            "insert Job=zzz Disease=flu",         // unknown value
            "insert Nope=1 Job=eng Disease=flu",  // unknown column
        ] {
            let r = s.handle_line(line, &mut session).unwrap();
            let Response::Error { code, .. } = r else {
                panic!("expected error for `{line}`, got {r:?}");
            };
            assert_eq!(code, ErrorCode::BadQuery, "line `{line}`");
        }
        assert_eq!(s.stats().inserts, 0, "failed inserts are not counted");
    }

    #[test]
    fn metrics_merges_service_counters_sorted() {
        let s = service(4);
        let mut session = SessionStats::default();
        s.handle_line("ping", &mut session);
        s.handle_line("count Job=eng Disease=flu", &mut session);
        let Some(r) = s.handle_line("metrics", &mut session) else {
            panic!("expected metrics response");
        };
        let Response::Metrics {
            counters,
            histograms,
        } = &r
        else {
            panic!("expected metrics, got {r:?}");
        };
        // Sorted by name within each class, and the service.* counters
        // report this service's own snapshot (taken before the metrics
        // request itself is counted).
        // Exactly the declared names, sorted, each once.
        let names: Vec<&str> = counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut declared = [crate::obs::Counters::NAMES, ServiceCounters::NAMES].concat();
        declared.sort_unstable();
        declared.dedup();
        assert_eq!(
            declared.len(),
            crate::obs::Counters::NAMES.len() + ServiceCounters::NAMES.len(),
            "a release counter shadows a process counter"
        );
        assert_eq!(names, declared);
        let lookup = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing counter {name}"))
                .1
        };
        assert_eq!(lookup("service.requests"), 2);
        assert_eq!(lookup("service.answered"), 2);
        assert_eq!(lookup("service.cache_misses"), 1);
        let hist_names: Vec<&str> = histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(hist_names, crate::obs::Histograms::NAMES);
        // The response is wire-canonical: parse ∘ encode = id.
        assert_eq!(Response::parse(&r.encode()).unwrap(), r);
        // `trace` answers a canonical line too.
        let Some(t) = s.handle_line("trace 4", &mut session) else {
            panic!("expected trace response");
        };
        assert!(matches!(t, Response::Trace(_)), "{t:?}");
        assert_eq!(Response::parse(&t.encode()).unwrap(), t);
    }

    #[test]
    fn hello_is_versioned() {
        // A single release is served as a one-release catalog whose
        // banner carries no `release=` token.
        let catalog = crate::catalog::Catalog::single(Arc::new(service(0)));
        let Response::Hello {
            version,
            sa,
            records,
            release,
            ..
        } = crate::catalog::CatalogSession::new(&catalog).hello()
        else {
            panic!("expected hello");
        };
        assert_eq!(version, PROTOCOL_VERSION);
        assert_eq!(sa, "Disease");
        assert_eq!(records, 400);
        assert_eq!(release, None);
    }
}
