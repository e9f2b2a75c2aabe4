//! The multi-tenant publication [`Catalog`]: one server, many releases.
//!
//! A catalog owns N named releases, each a full [`QueryService`] with its
//! own answer cache, aggregate counters and (optionally) live stream —
//! per-tenant isolation is enforced by construction, because tenants
//! simply never share state. Sessions route by release name using the
//! rp/3 catalog verbs (see [`crate::protocol`]): `use` rebinds the
//! session, `verb@release` qualifies a single request, and un-qualified
//! verbs keep their rp/2 meaning against the session's current release
//! (initially the catalog's default), so old transcripts replay
//! unchanged.
//!
//! Single-release serving is the same machinery: [`Catalog::unnamed`] /
//! [`Catalog::single`] host one release the operator did not name (it
//! answers to [`UNNAMED_RELEASE`]), whose `HELLO` banner carries no
//! `release=` token. [`CatalogSession::handle_line`] is therefore the one
//! per-line entry of every server.
//!
//! ## Reload
//!
//! Every request checks out its target release's service — a cheap `Arc`
//! clone under the catalog lock. Hot-reload ([`Catalog::reload_from_source`],
//! the `reload` verb) atomically swaps the service `Arc` without waiting:
//! requests already holding the old `Arc` finish against the old release
//! while new checkouts see the new one, so no tenant's session is ever
//! dropped by another tenant's reload. Releases are never removed, so a
//! checkout of an open name cannot fail. [`Catalog::reload_from_source`]
//! on a streaming release additionally **seals** the old service's WAL
//! write handle before reopening the log from disk
//! ([`QueryService::seal`]): holders of the old service keep querying but
//! degrade to read-only, so the old handle can never append concurrently
//! with — or be truncated under — the rebuilt release's writer. A
//! concurrent reload of the same release is refused
//! ([`CatalogError::Reloading`]) for the same reason.
//!
//! ## The routing fast path
//!
//! A [`CatalogSession`] caches its current release's service, tagged with
//! the catalog's *epoch* — a counter bumped by every reload, the only
//! operation that changes the service behind a name. A request whose tag
//! still matches routes with one epoch load and compare instead of the
//! catalog lock; any reload invalidates every session's cache, and the
//! next request re-routes through a full checkout.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::engine::ResolvedQueries;
use crate::fault::FaultHandle;
use crate::protocol::{
    is_release_name, ErrorCode, Line, ProtocolError, Queries, ReleaseEntry, Request, Response,
    PROTOCOL_VERSION,
};
use crate::publication::{Publication, PublicationError};
use crate::service::{QueryService, ServiceConfig, SessionStats};
use crate::stream::{StreamConfig, StreamError, StreamPublisher};

/// A failure of a catalog operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// No open release has this name.
    UnknownRelease(String),
    /// [`Catalog::open`] was given a name that is already open.
    AlreadyOpen(String),
    /// The name does not satisfy [`is_release_name`].
    BadName(String),
    /// [`Catalog::reload_from_source`] on a release opened without a
    /// source artifact path.
    NoSource(String),
    /// Loading a source artifact failed (`name`, detail).
    Load(String, String),
    /// A concurrent [`Catalog::reload_from_source`] on the same release
    /// is still rebuilding it. Two rebuilds of a streaming release would
    /// race two write handles onto one WAL file, so the second caller is
    /// refused instead.
    Reloading(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownRelease(name) => write!(f, "no release named `{name}`"),
            CatalogError::AlreadyOpen(name) => write!(f, "release `{name}` is already open"),
            CatalogError::BadName(name) => write!(
                f,
                "bad release name `{name}`: need a token without whitespace, `;`, `=` or `@`"
            ),
            CatalogError::NoSource(name) => {
                write!(f, "release `{name}` has no source artifact to reload from")
            }
            CatalogError::Load(name, detail) => {
                write!(f, "loading release `{name}` failed: {detail}")
            }
            CatalogError::Reloading(name) => {
                write!(f, "release `{name}` is already reloading")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

impl CatalogError {
    /// The wire error this failure maps to when it reaches a session.
    /// Only routing and reload failures can: the rest guard the
    /// programmatic `open` API.
    fn wire(self) -> Response {
        let code = match self {
            CatalogError::UnknownRelease(_) => ErrorCode::UnknownRelease,
            _ => ErrorCode::Internal,
        };
        Response::Error {
            code,
            message: self.to_string(),
        }
    }
}

/// Where a release can be rebuilt from on
/// [`Catalog::reload_from_source`].
#[derive(Debug, Clone)]
enum TenantSource {
    /// A static publication artifact.
    Artifact {
        /// The `.rppub` file the release was loaded from.
        path: PathBuf,
        /// Service knobs to rebuild with.
        config: ServiceConfig,
    },
    /// A live stream: base artifact plus its WAL. Reloading reopens the
    /// stream from disk — replaying exactly the durable prefix — which
    /// is how a degraded release (poisoned WAL) recovers.
    Stream {
        /// The base `.rppub` artifact.
        artifact: PathBuf,
        /// The write-ahead log of the live release.
        wal: PathBuf,
        /// Stream knobs (residency bound, group commit) to reopen with.
        stream_config: StreamConfig,
        /// Where `flush` persists snapshots, if anywhere.
        state_out: Option<PathBuf>,
        /// Service knobs to rebuild with.
        config: ServiceConfig,
    },
}

/// One hosted release: its service and where it can be reloaded from.
#[derive(Debug)]
struct Tenant {
    service: Arc<QueryService>,
    /// Source for [`Catalog::reload_from_source`]; `None` for
    /// programmatic opens.
    source: Option<TenantSource>,
    /// Held by an in-flight [`Catalog::reload_from_source`] (which runs
    /// outside the catalog lock): a second concurrent reload is refused
    /// rather than racing a second rebuild onto the same WAL file.
    reloading: Arc<AtomicBool>,
}

/// The name the one release of a [`Catalog::unnamed`] catalog answers to
/// in `releases`, `use`, `reload` and `verb@release`.
pub const UNNAMED_RELEASE: &str = "default";

/// A catalog of named releases behind one server. See the
/// [module docs](self) for reload and routing.
#[derive(Debug)]
pub struct Catalog {
    default: String,
    /// Whether session banners name the default release (`release=`):
    /// true exactly when the operator named it ([`Catalog::new`]).
    named: bool,
    state: Mutex<BTreeMap<String, Tenant>>,
    /// Bumped by every reload; sessions revalidate their cached route
    /// against it (see the [module docs](self)).
    epoch: AtomicU64,
}

impl Catalog {
    /// Acquires the catalog state lock, recovering from poison instead
    /// of propagating the panic to every session thread. Safe because
    /// every critical section over this lock is a single map operation
    /// plus atomic flag updates — there is no multi-step invariant a
    /// mid-section panic could tear.
    fn state_guard(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Tenant>> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.state.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Creates an empty catalog whose sessions start on `default` (open
    /// it before serving).
    ///
    /// # Errors
    ///
    /// [`CatalogError::BadName`] if `default` is not a release name.
    pub fn new(default: &str) -> Result<Self, CatalogError> {
        if !is_release_name(default) {
            return Err(CatalogError::BadName(default.to_string()));
        }
        Ok(Self::with_default(default, true))
    }

    /// Creates an empty catalog for one release the operator did not name
    /// (open it as [`UNNAMED_RELEASE`]): its sessions' `HELLO` banner
    /// carries no `release=` token.
    pub fn unnamed() -> Self {
        Self::with_default(UNNAMED_RELEASE, false)
    }

    /// A [`Catalog::unnamed`] catalog serving `service` — how one bare
    /// service is served.
    pub fn single(service: Arc<QueryService>) -> Self {
        let catalog = Self::unnamed();
        // A fresh catalog and a valid constant name: nothing to refuse.
        let _ = catalog.insert(UNNAMED_RELEASE, service, None);
        catalog
    }

    fn with_default(default: &str, named: bool) -> Self {
        Self {
            default: default.to_string(),
            named,
            state: Mutex::new(BTreeMap::new()),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current reload epoch (see the [module docs](self)).
    fn epoch_now(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Opens `name` over an existing service (no reload source).
    ///
    /// # Errors
    ///
    /// [`CatalogError::BadName`] or [`CatalogError::AlreadyOpen`].
    pub fn open(&self, name: &str, service: Arc<QueryService>) -> Result<(), CatalogError> {
        self.insert(name, service, None)
    }

    /// Opens the artifact at `path` as `name` through
    /// [`QueryService::open`], which builds no table, remembering the
    /// path so [`Catalog::reload_from_source`] can hot-swap it later.
    ///
    /// # Errors
    ///
    /// [`CatalogError::BadName`], [`CatalogError::AlreadyOpen`] or
    /// [`CatalogError::Load`].
    pub fn open_path(
        &self,
        name: &str,
        path: &Path,
        config: ServiceConfig,
    ) -> Result<(), CatalogError> {
        let source = TenantSource::Artifact {
            path: path.to_path_buf(),
            config,
        };
        let service = build_source(name, &source, crate::fault::passthrough())?;
        self.insert(name, service, Some(source))
    }

    /// Opens a *streaming* release as `name`: loads the base artifact at
    /// `artifact`, attaches (creating or replaying) the WAL at `wal`
    /// through `faults` — so WAL-creation fsyncs count against an
    /// injected schedule — and remembers both paths so
    /// [`Catalog::reload_from_source`] can rebuild the release from disk,
    /// with passthrough I/O: the recovery path when its stream degrades
    /// after a storage fault.
    ///
    /// # Errors
    ///
    /// [`CatalogError::BadName`], [`CatalogError::AlreadyOpen`] or
    /// [`CatalogError::Load`].
    // The stream's whole opening recipe; a parameter struct would only
    // ever be built at this one call.
    #[allow(clippy::too_many_arguments)]
    pub fn open_stream_path(
        &self,
        name: &str,
        artifact: &Path,
        wal: &Path,
        stream_config: StreamConfig,
        state_out: Option<PathBuf>,
        config: ServiceConfig,
        faults: FaultHandle,
    ) -> Result<(), CatalogError> {
        let source = TenantSource::Stream {
            artifact: artifact.to_path_buf(),
            wal: wal.to_path_buf(),
            stream_config,
            state_out,
            config,
        };
        let service = build_source(name, &source, faults)?;
        self.insert(name, service, Some(source))
    }

    fn insert(
        &self,
        name: &str,
        service: Arc<QueryService>,
        source: Option<TenantSource>,
    ) -> Result<(), CatalogError> {
        if !is_release_name(name) {
            return Err(CatalogError::BadName(name.to_string()));
        }
        let mut state = self.state_guard();
        if state.contains_key(name) {
            return Err(CatalogError::AlreadyOpen(name.to_string()));
        }
        // No epoch bump: no session can hold a route to a name that was
        // not open.
        state.insert(
            name.to_string(),
            Tenant {
                service,
                source,
                reloading: Arc::new(AtomicBool::new(false)),
            },
        );
        Ok(())
    }

    /// Checks out `name`'s current service for one request (or session
    /// banner). A later reload does not wait for it: the `Arc` keeps the
    /// old service alive until the request finishes.
    ///
    /// # Errors
    ///
    /// [`CatalogError::UnknownRelease`].
    pub fn checkout(&self, name: &str) -> Result<Arc<QueryService>, CatalogError> {
        self.state_guard()
            .get(name)
            .map(|tenant| Arc::clone(&tenant.service))
            .ok_or_else(|| CatalogError::UnknownRelease(name.to_string()))
    }

    /// Hot-swaps `name` to a new service without waiting: new checkouts
    /// see `service` immediately, requests in flight finish against the
    /// old one (kept alive by their `Arc` clones). Returns the new
    /// `(records, groups)`. The reload source is left unchanged.
    fn reload(&self, name: &str, service: Arc<QueryService>) -> Result<(u64, u64), CatalogError> {
        let summary = service.release_summary();
        let mut state = self.state_guard();
        let tenant = state
            .get_mut(name)
            .ok_or_else(|| CatalogError::UnknownRelease(name.to_string()))?;
        tenant.service = service;
        // Invalidates every session's cached route.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok((summary.1, summary.2))
    }

    /// Reloads `name` from the source it was opened with
    /// ([`Catalog::open_path`] or [`Catalog::open_stream_path`]). The
    /// load runs *outside* the catalog lock, so a slow disk never stalls
    /// other tenants' routing; the swap itself is atomic and waits for no
    /// request in flight.
    ///
    /// For a streaming release this is the **recovery path**, and it is
    /// equally safe on a *healthy* live release: before the WAL is
    /// reopened from disk the old service is **sealed**
    /// ([`QueryService::seal`] — flush, then latch its write handle
    /// refused, atomically with respect to inserts). The old handle can
    /// therefore never append concurrently with the reopened one, and
    /// the reopen's end-of-log repositioning cannot truncate an
    /// acknowledged commit racing in through it. Requests still holding
    /// the old service keep querying it; their `insert`/`flush` get
    /// the degraded error until they route to the new service. On a
    /// degraded stream the seal's flush refuses — the poisoned WAL
    /// wrote its last good byte long ago — and the reopen recovers
    /// exactly the durable prefix.
    ///
    /// If the rebuild itself fails, the sealed old service stays
    /// installed: queries keep answering, writes refuse, and a later
    /// `reload` retries recovery — never a corrupt WAL.
    ///
    /// # Errors
    ///
    /// [`CatalogError::UnknownRelease`], [`CatalogError::NoSource`],
    /// [`CatalogError::Reloading`] (a concurrent reload of the same
    /// release) or [`CatalogError::Load`].
    pub fn reload_from_source(&self, name: &str) -> Result<(u64, u64), CatalogError> {
        let (source, old_service, reloading) = {
            let state = self.state_guard();
            let tenant = state
                .get(name)
                .ok_or_else(|| CatalogError::UnknownRelease(name.to_string()))?;
            let source = tenant
                .source
                .clone()
                .ok_or_else(|| CatalogError::NoSource(name.to_string()))?;
            // Claim the rebuild before leaving the lock: two concurrent
            // rebuilds would race two write handles onto one WAL file.
            if tenant.reloading.swap(true, Ordering::SeqCst) {
                return Err(CatalogError::Reloading(name.to_string()));
            }
            (
                source,
                Arc::clone(&tenant.service),
                Arc::clone(&tenant.reloading),
            )
        };
        let result = (|| {
            if matches!(source, TenantSource::Stream { .. }) {
                // Quiesce before reopening: flush any open commit batch,
                // then seal the old write handle so nothing can append
                // to (or be truncated out of) the WAL while — and after
                // — the rebuild reopens it. Best-effort by design: a
                // degraded stream refuses the flush but is already
                // write-refusing, which is the property the reopen
                // needs.
                let _ = old_service.seal();
                let obs = crate::obs::global();
                obs.inc(&obs.counters.catalog_seal);
                obs.trace("catalog.seal");
            }
            let service = build_source(name, &source, crate::fault::passthrough())?;
            self.reload(name, service)
        })();
        reloading.store(false, Ordering::SeqCst);
        if result.is_ok() {
            let obs = crate::obs::global();
            obs.inc(&obs.counters.catalog_reload);
            obs.trace("catalog.reload");
        }
        result
    }

    /// Lists the open releases, sorted by name.
    pub fn list(&self) -> Vec<ReleaseEntry> {
        let state = self.state_guard();
        state
            .iter()
            .map(|(name, tenant)| {
                let (sa, records, groups, _p) = tenant.service.release_summary();
                ReleaseEntry {
                    name: name.clone(),
                    sa,
                    records,
                    groups,
                    live: tenant.service.is_streaming(),
                }
            })
            .collect()
    }

    /// Checkpoints every release that has a live stream (WAL sync +
    /// snapshot, exactly like a client `flush`), returning per-release
    /// outcomes. Server shutdown paths call this.
    pub fn checkpoint_all(&self) -> Vec<(String, Result<Option<u64>, StreamError>)> {
        let services: Vec<(String, Arc<QueryService>)> = {
            let state = self.state_guard();
            state
                .iter()
                .map(|(name, t)| (name.clone(), Arc::clone(&t.service)))
                .collect()
        };
        services
            .into_iter()
            .map(|(name, service)| {
                let outcome = service.checkpoint();
                (name, outcome)
            })
            .collect()
    }
}

/// Builds a fresh service from a tenant's source, its stream (if any)
/// writing through `faults`. Reloads pass passthrough I/O: recovery must
/// never re-enter an injected schedule.
fn build_source(
    name: &str,
    source: &TenantSource,
    faults: FaultHandle,
) -> Result<Arc<QueryService>, CatalogError> {
    let load = |e: &dyn std::fmt::Display| CatalogError::Load(name.to_string(), e.to_string());
    match source {
        TenantSource::Artifact { path, config } => {
            let service = File::open(path)
                .map_err(PublicationError::from)
                .and_then(|file| QueryService::open(BufReader::new(file), *config))
                .map_err(|e| load(&e))?;
            Ok(Arc::new(service))
        }
        TenantSource::Stream {
            artifact,
            wal,
            stream_config,
            state_out,
            config,
        } => {
            let publication = Publication::load_from_path(artifact).map_err(|e| load(&e))?;
            let stream = StreamPublisher::open_with(publication, wal, *stream_config, faults)
                .map_err(|e| load(&e))?;
            Ok(Arc::new(QueryService::streaming(
                stream,
                state_out.clone(),
                *config,
            )))
        }
    }
}

/// Counts a catalog-level response into the session counters only — the
/// routing layer has no tenant to charge, and per-tenant aggregates must
/// never mix tenants.
fn count_local(session: &mut SessionStats, response: &Response) {
    session.requests += 1;
    if response.is_error() {
        session.errors += 1;
    } else {
        session.answered += 1;
    }
}

/// One session's routing state over a [`Catalog`]: the current release
/// plus the rp/3 verb dispatch. Transports build one per connection and
/// feed it every line.
///
/// Tenant-bound requests — and lines that do not parse — are charged to
/// the target (or current) release's own aggregate counters (via
/// [`QueryService::handle`]); catalog-level verbs (`use`, `releases`,
/// `reload`) and routing failures are counted in the [`SessionStats`]
/// only.
#[derive(Debug)]
pub struct CatalogSession<'a> {
    catalog: &'a Catalog,
    current: String,
    /// Cached route for the current release: its service, valid while
    /// the tagged epoch matches the catalog's (see the [module docs](self)).
    route: Option<(u64, Arc<QueryService>)>,
    /// The term buffer every `count` and `batch` line of the session is
    /// resolved into, reused from line to line.
    resolved: ResolvedQueries,
}

impl<'a> CatalogSession<'a> {
    /// Starts a session bound to the catalog's default release.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self {
            catalog,
            current: catalog.default.clone(),
            route: None,
            resolved: ResolvedQueries::default(),
        }
    }

    /// Opens the session: charges its start to the current (default)
    /// release and returns the banner — that release's parameters, plus
    /// its name as the trailing `release=` token when the operator named
    /// it. An unopened default yields the routing error instead (the
    /// transport should close).
    pub fn hello(&self) -> Response {
        match self.catalog.checkout(&self.current) {
            Ok(service) => {
                service.session_started();
                let (sa, records, groups, p) = service.release_summary();
                Response::Hello {
                    version: PROTOCOL_VERSION,
                    sa,
                    records,
                    groups,
                    p,
                    release: self.catalog.named.then(|| self.current.clone()),
                }
            }
            Err(e) => e.wire(),
        }
    }

    /// Handles one raw request line: parse, route, count. Returns `None`
    /// for blank lines. This is the one per-line entry every transport
    /// uses, so a request line maps to the same response bytes on every
    /// transport and in every serving mode. A `count` or `batch` line,
    /// qualified or not, is answered straight from its body borrowed from
    /// `line`, which the release tokenizes as it resolves it; any other
    /// line becomes an owned [`Request`].
    pub fn handle_line(&mut self, line: &str, session: &mut SessionStats) -> Option<Response> {
        // Sampled stage timing (1-in-8 requests; see `crate::obs`). The
        // three stages share one clock-read pair per boundary: parse =
        // t1-t0, execute = t2-t1, handle = t2-t0.
        let obs = crate::obs::global();
        let stages = &obs.histograms;
        let t0 = obs.sampled_start(&stages.service_handle);
        let parsed = Line::parse(line).transpose()?;
        let t1 = t0.map(|_| obs.now_ns());
        let response = match parsed {
            Ok(Line::Queries { release, queries }) => {
                self.answer_queries(release, &queries, session)
            }
            Ok(Line::Request(request)) => self.handle(&request, session),
            Err(e) => self.refuse(e, session),
        };
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let t2 = obs.now_ns();
            stages.service_parse.record(t1.saturating_sub(t0));
            stages.service_execute.record(t2.saturating_sub(t1));
            stages.service_handle.record(t2.saturating_sub(t0));
        }
        Some(response)
    }

    /// As [`CatalogSession::handle_line`] over the raw bytes of a line: a
    /// line that is not UTF-8 answers `error code=parse` and is charged
    /// like any other line that does not parse.
    pub(crate) fn handle_bytes(
        &mut self,
        line: &[u8],
        session: &mut SessionStats,
    ) -> Option<Response> {
        match std::str::from_utf8(line) {
            Ok(line) => self.handle_line(line, session),
            Err(_) => {
                let e = ProtocolError {
                    code: ErrorCode::Parse,
                    message: "request line is not valid UTF-8".to_string(),
                };
                Some(self.refuse(e, session))
            }
        }
    }

    /// Answers a `count` or `batch` line on the named or the current
    /// release. Its body is tokenized only as that release resolves it, so
    /// a malformed body is found after routing; it is answered exactly as
    /// a line that failed to parse before routing: the parse error wins
    /// over a routing failure, and it is charged to the current release
    /// whatever release the line names.
    fn answer_queries(
        &mut self,
        release: Option<&str>,
        queries: &Queries<'_>,
        session: &mut SessionStats,
    ) -> Response {
        let mut resolved = std::mem::take(&mut self.resolved);
        let routed = match release {
            Some(name) => self
                .catalog
                .checkout(name)
                .map(|service| service.handle_queries(queries, &mut resolved, session)),
            // The routed release is the current one: charge it here.
            None => self.with_current(|service| {
                Ok(service
                    .handle_queries(queries, &mut resolved, session)
                    .unwrap_or_else(|e| {
                        let response = Response::from(e);
                        service.count(&response, session);
                        response
                    }))
            }),
        };
        self.resolved = resolved;
        match routed {
            Ok(Ok(response)) => response,
            Ok(Err(e)) => self.refuse(e, session),
            Err(e) => match queries.walk(|_| {}) {
                // The current release is not open: the session alone is
                // charged, as `refuse` would find.
                Err(parse) if release.is_none() => {
                    let response = Response::from(parse);
                    count_local(session, &response);
                    response
                }
                Err(parse) => self.refuse(parse, session),
                Ok(()) => {
                    let response = e.wire();
                    count_local(session, &response);
                    response
                }
            },
        }
    }

    /// The response to a line that does not parse, charged to the current
    /// release like any request it answers; with no release to charge, to
    /// the session only.
    fn refuse(&mut self, e: ProtocolError, session: &mut SessionStats) -> Response {
        let response = Response::from(e);
        if self
            .with_current(|service| service.count(&response, session))
            .is_err()
        {
            count_local(session, &response);
        }
        response
    }

    /// Handles one typed request: catalog verbs are answered here,
    /// everything else checks out the target release and delegates.
    pub fn handle(&mut self, request: &Request, session: &mut SessionStats) -> Response {
        let local = match request {
            Request::Use(name) => {
                // Epoch before checkout: if a reload slips in between,
                // the cache is tagged stale and the next request re-routes.
                let epoch = self.catalog.epoch_now();
                match self.catalog.checkout(name) {
                    Ok(service) => {
                        let (sa, records, groups, p) = service.release_summary();
                        self.current = name.clone();
                        self.route = Some((epoch, service));
                        Response::Using {
                            release: name.clone(),
                            sa,
                            records,
                            groups,
                            p,
                        }
                    }
                    Err(e) => e.wire(),
                }
            }
            Request::Releases => Response::Releases(self.catalog.list()),
            Request::Reload(name) => match self.catalog.reload_from_source(name) {
                Ok((records, groups)) => Response::Reloaded {
                    release: name.clone(),
                    records,
                    groups,
                },
                Err(e) => e.wire(),
            },
            Request::At { release, inner } => {
                return self.route(Some(release), session, |service, s| {
                    service.handle(inner, s)
                });
            }
            unqualified => {
                return self.route(None, session, |service, s| service.handle(unqualified, s));
            }
        };
        count_local(session, &local);
        local
    }

    /// Answers a tenant-bound request with `f` on the named release (a
    /// checkout per request) or, for `None`, on the current release. A
    /// routing failure answers the catalog error, counted in the session
    /// only.
    fn route(
        &mut self,
        release: Option<&str>,
        session: &mut SessionStats,
        f: impl FnOnce(&QueryService, &mut SessionStats) -> Response,
    ) -> Response {
        let routed = match release {
            Some(name) => self
                .catalog
                .checkout(name)
                .map(|service| f(&service, session)),
            None => self.with_current(|service| f(service, session)),
        };
        routed.unwrap_or_else(|e| {
            let response = e.wire();
            count_local(session, &response);
            response
        })
    }

    /// Runs `f` on the current release: the cached fast path when the
    /// epoch still matches, a full checkout (which repopulates the cache)
    /// otherwise.
    fn with_current<T>(&mut self, f: impl FnOnce(&QueryService) -> T) -> Result<T, CatalogError> {
        let obs = crate::obs::global();
        let epoch = self.catalog.epoch_now();
        if let Some((_, service)) = self.route.as_ref().filter(|(at, _)| *at == epoch) {
            obs.inc(&obs.counters.catalog_route_fast);
            return Ok(f(service));
        }
        obs.inc(&obs.counters.catalog_route_slow);
        let service = self.catalog.checkout(&self.current)?;
        let (_, service) = self.route.insert((epoch, service));
        Ok(f(service))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publisher::Publisher;
    use rp_table::{Attribute, Schema, TableBuilder};
    use std::sync::atomic::AtomicUsize;

    /// Scales by group *count*, not group size: every group stays at 200
    /// records (under its Equation-10 threshold, so SPS degenerates to UP
    /// and published counts are exact) while total `records` distinguish
    /// the releases.
    fn publication(rows: u32) -> Publication {
        const JOBS: [&str; 6] = ["eng", "doc", "law", "art", "vet", "cop"];
        let groups = (rows / 200) as usize;
        let schema = Schema::new(vec![
            Attribute::new("Job", JOBS[..groups].iter().copied()),
            Attribute::new("Disease", ["flu", "none"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_codes(&[i % groups as u32, (i / groups as u32) % 2])
                .unwrap();
        }
        Publisher::new(b.build()).sa(1).seed(3).publish().unwrap()
    }

    fn service(rows: u32) -> Arc<QueryService> {
        Arc::new(QueryService::from_publication(
            &publication(rows),
            ServiceConfig::default(),
        ))
    }

    fn two_tenant_catalog() -> Catalog {
        let catalog = Catalog::new("alpha").unwrap();
        catalog.open("alpha", service(400)).unwrap();
        catalog.open("beta", service(800)).unwrap();
        catalog
    }

    #[test]
    fn open_close_list_lifecycle() {
        let catalog = two_tenant_catalog();
        let names: Vec<String> = catalog.list().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["alpha", "beta"]);
        assert_eq!(catalog.list()[0].records, 400);
        assert_eq!(catalog.list()[1].records, 800);
        assert_eq!(
            catalog.open("beta", service(200)).unwrap_err(),
            CatalogError::AlreadyOpen("beta".into())
        );
        assert_eq!(
            catalog.open("not a token", service(200)).unwrap_err(),
            CatalogError::BadName("not a token".into())
        );
        assert_eq!(
            catalog.open("with@at", service(200)).unwrap_err(),
            CatalogError::BadName("with@at".into())
        );
    }

    #[test]
    fn session_routes_by_use_and_qualifier() {
        let catalog = two_tenant_catalog();
        let mut s = CatalogSession::new(&catalog);
        let mut stats = SessionStats::default();

        let Response::Hello {
            release, records, ..
        } = s.hello()
        else {
            panic!("expected hello");
        };
        assert_eq!(release.as_deref(), Some("alpha"));
        assert_eq!(records, 400);

        // Un-qualified: current (default) release. The SA-only query's
        // support is the whole release, so tenants are distinguishable.
        let r = s.handle_line("count Disease=flu", &mut stats).unwrap();
        let Response::Answer(a) = r else {
            panic!("{r:?}")
        };
        assert_eq!(a.support, 400);

        // Qualified: routes without rebinding.
        let r = s.handle_line("count@beta Disease=flu", &mut stats).unwrap();
        let Response::Answer(a) = r else {
            panic!("{r:?}")
        };
        assert_eq!(a.support, 800);
        assert_eq!(s.current, "alpha");

        // `use` rebinds and reports the target's parameters.
        let r = s.handle_line("use beta", &mut stats).unwrap();
        let Response::Using {
            release,
            records,
            sa,
            ..
        } = r
        else {
            panic!("{r:?}")
        };
        assert_eq!(release, "beta");
        assert_eq!(records, 800);
        assert_eq!(sa, "Disease");
        assert_eq!(s.current, "beta");
        let r = s.handle_line("count Disease=flu", &mut stats).unwrap();
        let Response::Answer(a) = r else {
            panic!("{r:?}")
        };
        assert_eq!(a.support, 800);

        // Unknown names are structured errors, session keeps serving.
        for line in ["use gamma", "count@gamma Disease=flu", "reload gamma"] {
            let r = s.handle_line(line, &mut stats).unwrap();
            let Response::Error { code, .. } = r else {
                panic!("{r:?}")
            };
            assert_eq!(code, ErrorCode::UnknownRelease, "line `{line}`");
        }
        assert_eq!(stats.errors, 3);
    }

    #[test]
    fn tenant_stats_and_caches_are_isolated() {
        let catalog = two_tenant_catalog();
        let alpha = catalog.checkout("alpha").unwrap();
        let beta = catalog.checkout("beta").unwrap();
        let mut s = CatalogSession::new(&catalog);
        let mut stats = SessionStats::default();

        // Same query twice on alpha (miss + hit), once on beta (miss):
        // identical canonical keys must not cross tenants.
        s.handle_line("count Job=eng Disease=flu", &mut stats);
        s.handle_line("count Job=eng Disease=flu", &mut stats);
        s.handle_line("count@beta Job=eng Disease=flu", &mut stats);
        assert_eq!(alpha.stats().cache_misses, 1);
        assert_eq!(alpha.stats().cache_hits, 1);
        assert_eq!(alpha.stats().requests, 2);
        assert_eq!(beta.stats().cache_misses, 1);
        assert_eq!(beta.stats().cache_hits, 0);
        assert_eq!(beta.stats().requests, 1);
        assert_eq!(alpha.cached_answers(), 1);
        assert_eq!(beta.cached_answers(), 1);

        // Catalog verbs charge no tenant.
        s.handle_line("releases", &mut stats);
        s.handle_line("use beta", &mut stats);
        assert_eq!(alpha.stats().requests, 2);
        assert_eq!(beta.stats().requests, 1);
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.answered, 5);
    }

    #[test]
    fn reload_swaps_without_dropping_outstanding_leases() {
        let catalog = two_tenant_catalog();
        let old = catalog.checkout("beta").unwrap();
        let (records, _groups) = catalog.reload("beta", service(1200)).unwrap();
        assert_eq!(records, 1200);
        // The outstanding checkout still answers against the old release...
        let mut stats = SessionStats::default();
        let q = Request::parse("count Disease=flu").unwrap().unwrap();
        let Response::Answer(a) = old.handle(&q, &mut stats) else {
            panic!("the old service must keep answering");
        };
        assert_eq!(a.support, 800, "old view");
        // ...while new checkouts see the new one.
        let new = catalog.checkout("beta").unwrap();
        let Response::Answer(a) = new.handle(&q, &mut stats) else {
            panic!("expected answer");
        };
        assert_eq!(a.support, 1200, "new view");
        // And the other tenant never noticed.
        let alpha = catalog.checkout("alpha").unwrap();
        assert_eq!(alpha.stats().requests, 0);
    }

    #[test]
    fn reload_from_source_rereads_the_artifact() {
        let dir = std::env::temp_dir().join(format!("rp-catalog-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("beta.rppub");
        publication(400).save_to_path(&path).unwrap();

        let catalog = Catalog::new("alpha").unwrap();
        catalog.open("alpha", service(400)).unwrap();
        catalog
            .open_path("beta", &path, ServiceConfig::default())
            .unwrap();
        assert_eq!(catalog.list()[1].records, 400);

        // Republish the artifact in place, then hot-reload by name.
        publication(800).save_to_path(&path).unwrap();
        let mut s = CatalogSession::new(&catalog);
        let mut stats = SessionStats::default();
        let r = s.handle_line("reload beta", &mut stats).unwrap();
        let Response::Reloaded {
            release, records, ..
        } = r
        else {
            panic!("{r:?}");
        };
        assert_eq!(release, "beta");
        assert_eq!(records, 800);
        assert_eq!(catalog.list()[1].records, 800);

        // A programmatic open has no source.
        let r = s.handle_line("reload alpha", &mut stats).unwrap();
        let Response::Error { code, message } = r else {
            panic!("{r:?}")
        };
        assert_eq!(code, ErrorCode::Internal);
        assert!(message.contains("no source artifact"), "{message}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reload_recovers_a_degraded_streaming_tenant() {
        use crate::fault::{FaultHandle, FaultSchedule};
        let dir = std::env::temp_dir().join(format!("rp-catalog-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("live.rppub");
        let wal = dir.join("live.rpwal");
        let _ = std::fs::remove_file(&wal);
        publication(400).save_to_path(&artifact).unwrap();

        let catalog = Catalog::new("alpha").unwrap();
        catalog.open("alpha", service(400)).unwrap();
        // The schedule is handed to the stream at open: creating the
        // fresh WAL consumes syncs 1-2, so the first flush-time fsync is
        // sync 3. The reload source stays registered, fault-free.
        let faults: FaultHandle = Arc::new(FaultSchedule::fsync_at(3));
        catalog
            .open_stream_path(
                "live",
                &artifact,
                &wal,
                StreamConfig::default(),
                None,
                ServiceConfig::default(),
                faults,
            )
            .unwrap();
        assert!(catalog.list()[1].live, "streaming tenant reports live");

        let mut s = CatalogSession::new(&catalog);
        let mut stats = SessionStats::default();
        // The insert is acked (buffered); the flush hits the scripted
        // fsync failure and the tenant degrades.
        let r = s
            .handle_line("insert@live Job=eng Disease=flu", &mut stats)
            .unwrap();
        assert!(!r.is_error(), "{r:?}");
        let r = s.handle_line("flush@live", &mut stats).unwrap();
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
        // Degraded: writes refuse, queries keep answering, and the
        // other tenant is untouched.
        let r = s
            .handle_line("insert@live Job=eng Disease=flu", &mut stats)
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
        let r = s
            .handle_line("count@live Job=eng Disease=flu", &mut stats)
            .unwrap();
        assert!(!r.is_error(), "{r:?}");
        let r = s
            .handle_line("count Job=eng Disease=flu", &mut stats)
            .unwrap();
        assert!(!r.is_error(), "default tenant unaffected: {r:?}");
        // `reload` rebuilds the stream from the artifact + WAL on disk:
        // the release accepts writes again.
        let r = s.handle_line("reload live", &mut stats).unwrap();
        assert!(matches!(r, Response::Reloaded { .. }), "{r:?}");
        let r = s
            .handle_line("insert@live Job=eng Disease=flu", &mut stats)
            .unwrap();
        assert!(!r.is_error(), "recovered release ingests: {r:?}");
        let r = s.handle_line("flush@live", &mut stats).unwrap();
        assert!(matches!(r, Response::Flushed { .. }), "{r:?}");
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn reloading_a_healthy_streaming_tenant_seals_the_old_write_handle() {
        let dir = std::env::temp_dir().join(format!("rp-catalog-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("healthy.rppub");
        let wal = dir.join("healthy.rpwal");
        let _ = std::fs::remove_file(&wal);
        publication(400).save_to_path(&artifact).unwrap();

        let catalog = Catalog::new("alpha").unwrap();
        catalog.open("alpha", service(400)).unwrap();
        catalog
            .open_stream_path(
                "live",
                &artifact,
                &wal,
                StreamConfig::default(),
                None,
                ServiceConfig::default(),
                crate::fault::passthrough(),
            )
            .unwrap();

        let mut s = CatalogSession::new(&catalog);
        let mut stats = SessionStats::default();
        // Acked-but-unsynced tail (no flush): the reload must not lose it.
        for _ in 0..3 {
            let r = s
                .handle_line("insert@live Job=eng Disease=flu", &mut stats)
                .unwrap();
            assert!(!r.is_error(), "{r:?}");
        }
        // A service checked out *before* the reload stays alive — exactly
        // the writer that must not race the reopened WAL.
        let old = catalog.checkout("live").unwrap();
        let (records, _) = catalog.reload_from_source("live").unwrap();
        assert_eq!(records, 403, "the unsynced tail was flushed, not lost");

        // The old service is sealed: its holder's writes refuse...
        let ins = Request::parse("insert Job=eng Disease=flu")
            .unwrap()
            .unwrap();
        let r = old.handle(&ins, &mut stats);
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
        // ...while its queries keep answering.
        let q = Request::parse("count Job=eng Disease=flu")
            .unwrap()
            .unwrap();
        assert!(!old.handle(&q, &mut stats).is_error());
        // The reopened service owns the WAL exclusively: it ingests,
        // flushes, and serves the full durable history.
        let r = s
            .handle_line("insert@live Job=eng Disease=flu", &mut stats)
            .unwrap();
        assert!(!r.is_error(), "{r:?}");
        let r = s.handle_line("flush@live", &mut stats).unwrap();
        assert!(matches!(r, Response::Flushed { .. }), "{r:?}");
        assert_eq!(catalog.list()[1].records, 404);
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn a_concurrent_reload_of_the_same_release_is_refused() {
        let dir = std::env::temp_dir().join(format!("rp-catalog-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("guard.rppub");
        publication(400).save_to_path(&path).unwrap();
        let catalog = Catalog::new("alpha").unwrap();
        catalog.open("alpha", service(400)).unwrap();
        catalog
            .open_path("beta", &path, ServiceConfig::default())
            .unwrap();
        // Simulate a rebuild still in flight on another thread.
        {
            let state = catalog.state.lock().unwrap();
            state
                .get("beta")
                .unwrap()
                .reloading
                .store(true, Ordering::SeqCst);
        }
        assert_eq!(
            catalog.reload_from_source("beta").unwrap_err(),
            CatalogError::Reloading("beta".into())
        );
        // The finished rebuild releases the claim; reload works again.
        {
            let state = catalog.state.lock().unwrap();
            state
                .get("beta")
                .unwrap()
                .reloading
                .store(false, Ordering::SeqCst);
        }
        catalog.reload_from_source("beta").unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// Opens `alpha` (static) and `beta` over a fresh artifact of `rows`
    /// records at `file`, so `beta` can be republished and reloaded.
    fn reloadable_catalog(file: &str, rows: u32) -> (Catalog, PathBuf) {
        let dir = std::env::temp_dir().join(format!("rp-catalog-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        publication(rows).save_to_path(&path).unwrap();
        let catalog = Catalog::new("alpha").unwrap();
        catalog.open("alpha", service(400)).unwrap();
        catalog
            .open_path("beta", &path, ServiceConfig::default())
            .unwrap();
        (catalog, path)
    }

    /// The support of an un-qualified `count Disease=flu` — the whole
    /// release — on `s`, panicking on any non-answer.
    fn release_support(s: &mut CatalogSession<'_>, stats: &mut SessionStats) -> u64 {
        match s.handle_line("count Disease=flu", stats).unwrap() {
            Response::Answer(a) => a.support,
            r => panic!("expected an answer, got {r:?}"),
        }
    }

    /// The epoch is the only thing that invalidates a warm route: a
    /// reload on another session must reach this session's next request.
    #[test]
    fn reload_invalidates_a_warm_route_of_another_session() {
        let (catalog, path) = reloadable_catalog("warm.rppub", 800);
        let mut bound = CatalogSession::new(&catalog);
        let mut stats = SessionStats::default();
        bound.handle_line("use beta", &mut stats).unwrap();
        assert_eq!(release_support(&mut bound, &mut stats), 800);
        assert_eq!(release_support(&mut bound, &mut stats), 800, "warm route");

        publication(1200).save_to_path(&path).unwrap();
        let mut other = CatalogSession::new(&catalog);
        let r = other.handle_line("reload beta", &mut stats).unwrap();
        assert!(
            matches!(r, Response::Reloaded { records: 1200, .. }),
            "{r:?}"
        );
        assert_eq!(release_support(&mut bound, &mut stats), 1200);
        let _ = std::fs::remove_file(&path);
    }

    /// Sessions routing un-qualified lines while their release reloads
    /// underneath them always answer from one whole release, and see the
    /// last reload on their next request.
    #[test]
    fn routing_during_repeated_reloads_answers_from_a_whole_release() {
        // Odd, so the last release (1200 rows) differs from the first.
        const RELOADS: usize = 15;
        const SESSIONS: usize = 3;
        let (catalog, path) = reloadable_catalog("churn.rppub", 800);
        let done = AtomicBool::new(false);
        let warm = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..SESSIONS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut s = CatalogSession::new(&catalog);
                        let mut stats = SessionStats::default();
                        s.handle_line("use beta", &mut stats).unwrap();
                        assert_eq!(release_support(&mut s, &mut stats), 800);
                        warm.fetch_add(1, Ordering::SeqCst);
                        while !done.load(Ordering::SeqCst) {
                            let support = release_support(&mut s, &mut stats);
                            assert!([800, 1200].contains(&support), "support {support}");
                        }
                        release_support(&mut s, &mut stats)
                    })
                })
                .collect();
            // A worker that panicked before warming up ends the wait; its
            // join below reports the panic.
            while warm.load(Ordering::SeqCst) < SESSIONS && !workers.iter().any(|w| w.is_finished())
            {
                std::thread::yield_now();
            }
            for i in 0..RELOADS {
                let rows = if i % 2 == 0 { 1200 } else { 800 };
                publication(rows).save_to_path(&path).unwrap();
                let (records, _) = catalog.reload_from_source("beta").unwrap();
                assert_eq!(records, u64::from(rows));
            }
            done.store(true, Ordering::SeqCst);
            for worker in workers {
                assert_eq!(
                    worker.join().unwrap(),
                    1200,
                    "stale route after the last reload"
                );
            }
        });
        let _ = std::fs::remove_file(&path);
    }

    /// Regression: the per-line stage histograms are recorded on the
    /// routed path, not only on a bare service's line entry.
    #[test]
    fn routed_lines_record_the_per_line_stage_histograms() {
        const STAGES: [&str; 3] = ["service.handle", "service.parse", "service.execute"];
        let h = &crate::obs::global().histograms;
        let counts = || {
            [&h.service_handle, &h.service_parse, &h.service_execute].map(|h| h.snapshot().count)
        };
        let before = counts();
        let catalog = two_tenant_catalog();
        let mut s = CatalogSession::new(&catalog);
        let mut stats = SessionStats::default();
        for _ in 0..64 {
            let r = s
                .handle_line("count Job=eng Disease=flu", &mut stats)
                .unwrap();
            assert!(!r.is_error(), "{r:?}");
        }
        let after = counts();
        for ((name, b), a) in STAGES.iter().zip(before).zip(after) {
            assert!(a > b, "{name} recorded nothing: {b} -> {a}");
        }
    }
}
