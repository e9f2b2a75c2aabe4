//! # rp-engine
//!
//! The operable surface of the reproduction: a first-class publication API
//! over the paper's *publish once, answer many count queries* workflow
//! (Wang et al., *Reconstruction Privacy*, EDBT 2015).
//!
//! Three types replace the hand-threaded pipeline of free functions:
//!
//! * [`Publisher`] — a builder that runs personal grouping, the
//!   Equation-10 design check and SPS in one `publish()` call;
//! * [`Publication`] — the published table bundled with its schema, the
//!   retention probability `p`, the `(λ, δ)` parameters, the SPS run
//!   counters and the seed, (de)serializable to a line-oriented on-disk
//!   format ([`Publication::save`] / [`Publication::load`]);
//! * [`QueryEngine`] — a long-lived answering service built from a
//!   release: per-group SA histograms, key bitmaps and marginals are built
//!   at construction, with a condition index over every `(column, value)`
//!   pair of the schema, so a query's text resolves in one probe per
//!   condition and single queries, batches and whole Section-6 pools are
//!   answered without rescanning.
//!
//! ## The serving stack
//!
//! On top of the engine, four layers turn one release into a
//! transport-agnostic — and, with a WAL, *live* — query service
//! (`rpctl serve` / `rpctl query --connect` / `rpctl ingest` are thin
//! shells over them):
//!
//! ```text
//! Publisher ─▶ Publication (v1 batch / v2 streaming artifact)
//!                  │                        ▲
//!                  ▼                        │ snapshot / restore
//!             QueryEngine ◀── base ─── stream::StreamPublisher
//!                  │                        │  insert WAL · per-group RNG
//!                  │   base + live counts   │  auto-republish · compaction
//!                  ▼                        ▼
//!             service::QueryService (answer cache, counters)
//!                  │
//!     catalog::Catalog (1..N releases) ─ CatalogSession (routing)
//!                  │
//!          protocol::Request/Response (one canonical line codec)
//!                  │
//!        server: stdio serve() loop │ TCP thread-per-connection
//! ```
//!
//! * [`protocol`] — the typed wire protocol: [`Request`] and [`Response`]
//!   enums with a canonical line-oriented encode/parse round-trip, a
//!   versioned `HELLO` banner, and structured
//!   [`ErrorCode`]-carrying errors instead of free-form strings;
//! * [`stream`] — the streaming subsystem: a durable
//!   [`StreamPublisher`] running `rp-core`'s per-group insert and
//!   republish steps behind a write-ahead log of inserts, counter-based
//!   per-group RNG streams (one `u64` cursor each, kept in the group's
//!   own record), automatic SPS re-publication when a group
//!   crosses `sg`, WAL compaction, and v2 snapshots — every live group
//!   stays resident and persists as one [`GroupState`] record, and state
//!   is a pure function of `(base artifact, WAL)`, so replay and
//!   snapshot+tail restore are byte-identical to the live run;
//! * [`service`] — the shared [`QueryService`]: an `Arc<QueryEngine>`
//!   plus a bounded deterministic answer cache keyed by canonical query
//!   form, batches answered query by query like uncached singles,
//!   per-session / aggregate serve counters, and (in streaming mode) the
//!   live view — answers merge base and live counts, and an insert
//!   invalidates exactly the cached answers whose match set contains its
//!   group;
//! * [`server`] — the transports: [`serve()`](serve::serve) runs one
//!   session over any `BufRead`/`Write` pair (stdin/stdout included), and
//!   [`Server`] is a TCP listener running that same loop
//!   thread-per-connection over a shared catalog, with a connection cap
//!   and graceful shutdown. Both surfaces answer a given request stream
//!   byte-identically;
//! * [`catalog`] — the one serving path: a [`Catalog`] hosts 1..N
//!   releases (each its own [`QueryService`] — caches, counters and
//!   streams are per-tenant by construction) that opens releases and
//!   hot-reloads them without waiting, and [`CatalogSession`] — the one
//!   per-line entry of every session — routes the rp/3 verbs (`use`,
//!   `releases`, `reload`, `verb@release`) with one epoch check per
//!   request. A single release is a one-release catalog
//!   ([`Catalog::single`], as [`Server::bind`] builds it) whose banner
//!   carries no `release=` token;
//! * [`fault`] — deterministic fault injection: an injectable I/O
//!   facade ([`fault::FaultIo`], default passthrough) threaded through
//!   every durable writer, driven by a seeded counter-based schedule so
//!   EIO/ENOSPC/short-write/failed-fsync runs replay exactly from
//!   `(seed, op count)`. A failed WAL fsync *poisons* the stream
//!   (never retried, never falsely acked) and degrades its service to
//!   read-only; catalog `reload` is the recovery path;
//! * [`obs`] — observability: a process-global [`obs::Registry`]
//!   of atomic counters, log₂-bucketed latency histograms and a bounded
//!   trace ring, threaded through every layer above and exposed by the
//!   rp/5 `metrics` / `trace` verbs. Instrumentation changes zero response
//!   bytes of the other verbs, and every production clock read routes
//!   through [`obs::Clock`] (enforced by `rp-analyze`'s `obs-clock` rule).
//!
//! ## Quickstart
//!
//! ```
//! use rp_engine::{Publication, Publisher, QueryEngine};
//! use rp_table::{Attribute, Schema, TableBuilder};
//!
//! // A toy table: Gender is public, Disease sensitive.
//! let schema = Schema::new(vec![
//!     Attribute::new("Gender", ["male", "female"]),
//!     Attribute::new("Disease", ["flu", "hiv", "none"]),
//! ]);
//! let mut builder = TableBuilder::new(schema);
//! for i in 0..5000u32 {
//!     let gender = if i % 2 == 0 { "male" } else { "female" };
//!     let disease = if i % 10 < 8 { "none" } else { "flu" };
//!     builder.push_values(&[gender, disease]).unwrap();
//! }
//! let table = builder.build();
//!
//! // Publish once: grouping + the (0.3, 0.3) check + SPS in one call.
//! let publication = Publisher::new(table)
//!     .sa_named("Disease")
//!     .privacy(0.3, 0.3)
//!     .retention(0.5)
//!     .seed(1)
//!     .publish()
//!     .unwrap();
//! assert!(!publication.check().is_private(), "large groups violate");
//! assert!(publication.stats().groups_sampled > 0, "so SPS sampled them");
//!
//! // The release round-trips through its on-disk format...
//! let mut bytes = Vec::new();
//! publication.save(&mut bytes).unwrap();
//! let restored = Publication::load(&bytes[..]).unwrap();
//! assert_eq!(publication, restored);
//!
//! // ...and a long-lived engine answers count queries from it.
//! let engine = QueryEngine::new(&restored);
//! let query = engine
//!     .query_from_values(&[("Gender", "male"), ("Disease", "flu")])
//!     .unwrap();
//! let answer = engine.answer(&query).unwrap();
//! // SPS scaling restores the group size in expectation (2500 here).
//! assert!((answer.support as f64 - 2500.0).abs() < 250.0);
//! assert!(answer.ci.is_some(), "answers carry confidence intervals");
//! ```
//!
//! The primitive layer (perturbation matrices, MLE reconstruction, the
//! criterion, SPS itself) lives in `rp-core`; this crate composes it and
//! adds persistence plus the serving loop. Everything here is, like the
//! rest of the workspace, a pure function of its seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
mod codec;
pub mod engine;
pub mod fault;
mod fsutil;
pub mod obs;
pub mod protocol;
pub mod publication;
pub mod publisher;
pub mod serve;
pub mod server;
pub mod service;
pub mod stream;

pub use catalog::{Catalog, CatalogError, CatalogSession, UNNAMED_RELEASE};
pub use codec::{canon_f64, CanonF64};
pub use engine::{Answer, EngineError, PreparedQueries, QueryEngine};
pub use fault::{FaultHandle, FaultIo, FaultKind, FaultSchedule};
pub use obs::{Clock, HistogramSummary, MonotonicClock, Registry, TraceEvent};
pub use protocol::{
    ErrorCode, ProtocolError, ReleaseEntry, ReleaseMeta, Request, Response, StatsSnapshot,
    WireAnswer, WireQuery, WireRecord, PROTOCOL_VERSION,
};
pub use publication::{DesignCheck, GroupState, LiveState, Publication, PublicationError};
pub use publisher::{PublishError, Publisher};
pub use serve::serve;
pub use server::{Server, ServerConfig, ServerHandle, ShutdownHandle};
pub use service::{QueryService, ServiceConfig, SessionStats};
pub use stream::{InsertOutcome, StreamConfig, StreamError, StreamPublisher};
