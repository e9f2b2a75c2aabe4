//! Process-wide observability: typed counters, log₂-bucketed latency
//! histograms, scope-timing spans, and a bounded ring buffer of recent
//! structured trace events.
//!
//! The subsystem is dependency-free and lock-free on the hot path: counters
//! and histogram buckets are plain [`AtomicU64`]s, and only the trace ring
//! takes a (leaf-only, never nested) mutex. Everything hangs off a
//! [`Registry`]; production code uses the process-global registry returned by
//! [`global`], while tests construct private registries with
//! [`Registry::with_clock`] over a mock [`Clock`] for deterministic
//! timings.
//!
//! # Closed world by type
//!
//! Every metric is declared once, as a field of a `metric_set!` table
//! that also fixes its exported name: [`Counters`] and [`Histograms`] for
//! the process scope, and `ServiceCounters` for each release
//! ([`crate::service`]). A call site names the cell, not a string —
//! `obs.inc(&obs.counters.stream_republish)` — so recording is a field
//! access plus an atomic, and a misspelt metric is a compile error.
//! Trace labels stay free-form strings.
//!
//! # Contracts
//!
//! Two invariants are load-bearing and enforced elsewhere in the workspace:
//!
//! * **Zero byte impact.** Instrumentation never changes the response bytes
//!   of any pre-existing protocol verb. Counters and histograms are only
//!   *read* by the rp/5 `metrics` / `trace` verbs; no other encoder consults
//!   them. The transcript-equivalence suite replays full sessions with
//!   observability enabled and disabled and asserts byte-identical output.
//! * **Clock routing.** All production time reads go through the [`Clock`]
//!   trait (via [`Registry::now_ns`]); raw `Instant::now` / `SystemTime::now`
//!   calls outside this module are rejected by the `rp-analyze` `obs-clock`
//!   rule. This keeps every latency measurement mockable and keeps wall-clock
//!   nondeterminism quarantined in one file.
//!
//! # Cost model
//!
//! Per-request stage timings (`service.parse` / `service.execute` /
//! `service.handle`, `service.cache_lookup`, `serve.encode`) are sampled
//! 1-in-[`SAMPLE_EVERY`] via a per-histogram tick counter so the steady-state
//! overhead on the serving hot path stays within a few percent; the first
//! event at each site is always sampled, so one request is enough to make
//! every driven histogram non-empty. Expensive, infrequent operations (WAL
//! `sync_data`, replay, whole sessions) are timed on every occurrence.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of log₂ histogram buckets. Bucket 0 holds exact zeros; bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`; the last bucket absorbs
/// everything from `2^62` up.
pub const BUCKET_COUNT: usize = 64;

/// Sampled instrumentation sites record one event in every `SAMPLE_EVERY`
/// (the tick counter starts at zero, so the first event is always recorded).
pub const SAMPLE_EVERY: u64 = 8;

/// Default capacity of the trace ring buffer (`serve --trace-buffer N`
/// overrides it at startup).
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Declares a set of metric cells: one public field per metric, each with
/// its exported name, listed in sorted name order. The set gets `NAMES`
/// (every exported name, in declaration order) and `iter` (every cell
/// with its name, in the same order).
macro_rules! metric_set {
    ($(#[$meta:meta])* $vis:vis struct $set:ident<$cell:ty> {
        $($field:ident => $name:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Default)]
        $vis struct $set {
            $(#[doc = concat!("`", $name, "`")] pub $field: $cell,)+
        }

        impl $set {
            /// Every exported name, sorted.
            pub const NAMES: &'static [&'static str] = &[$($name),+];

            /// Every cell with its exported name, in [`Self::NAMES`] order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, &$cell)> {
                Self::NAMES.iter().copied().zip([$(&self.$field),+])
            }
        }
    };
}
pub(crate) use metric_set;

metric_set! {
    /// Every process-scope counter the engine increments.
    pub struct Counters<Counter> {
        catalog_reload => "catalog.reload",
        catalog_route_fast => "catalog.route_fast",
        catalog_route_slow => "catalog.route_slow",
        catalog_seal => "catalog.seal",
        fault_injected => "fault.injected",
        serve_sessions_closed => "serve.sessions_closed",
        serve_sessions_opened => "serve.sessions_opened",
        serve_writes => "serve.writes",
        server_busy_refused => "server.busy_refused",
        stream_degraded => "stream.degraded",
        stream_replayed_events => "stream.replayed_events",
        stream_republish => "stream.republish",
    }
}

metric_set! {
    /// Every process-scope histogram the engine records into. Values are
    /// nanoseconds except `commit.batch_events` (events per commit batch).
    pub struct Histograms<Histogram> {
        commit_batch_events => "commit.batch_events",
        serve_encode => "serve.encode",
        serve_request => "serve.request",
        serve_session => "serve.session",
        service_cache_lookup => "service.cache_lookup",
        service_execute => "service.execute",
        service_handle => "service.handle",
        service_parse => "service.parse",
        stream_replay => "stream.replay",
        wal_append => "wal.append",
        wal_sync => "wal.sync",
    }
}

/// A monotonic nanosecond clock. Implementations must be cheap: `now_ns` sits
/// on every span and sampled stage timing.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin. Must never decrease.
    fn now_ns(&self) -> u64;
}

/// Production clock: nanoseconds since the clock was constructed, measured
/// with the OS monotonic clock. This is the only place in the workspace
/// (outside tests) allowed to touch `Instant` directly.
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of uptime; saturate rather than
        // wrap if something absurd happens.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Map a value to its log₂ bucket index (see [`BUCKET_COUNT`]).
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (BUCKET_COUNT - v.leading_zeros() as usize).min(BUCKET_COUNT - 1)
    }
}

/// Largest value a bucket can hold (before clamping to the observed max).
pub fn bucket_ceiling(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= BUCKET_COUNT - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A lock-free log₂-bucketed histogram. Quantiles are derived from the
/// bucket vector: a reported pXX is the ceiling of the bucket containing the
/// rank-⌈XX% · count⌉ observation, clamped to the exact observed maximum, so
/// it is an upper bound tight to one power of two.
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum: AtomicU64,
    max: AtomicU64,
    tick: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            tick: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Deterministic 1-in-[`SAMPLE_EVERY`] sampling decision, advancing this
    /// histogram's private tick. The first call returns `true`.
    pub fn tick_sampled(&self) -> bool {
        self.tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
    }

    /// Snapshot counts and derived quantiles. Concurrent recording makes the
    /// snapshot approximate (never torn per-bucket, but buckets are read one
    /// by one); that is fine for an exposition surface.
    pub fn snapshot(&self) -> HistogramSummary {
        let mut buckets = [0u64; BUCKET_COUNT];
        let mut count: u64 = 0;
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
            count = count.saturating_add(*slot);
        }
        let max = self.max.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(&buckets, count, max, 50),
            p90: quantile(&buckets, count, max, 90),
            p99: quantile(&buckets, count, max, 99),
        }
    }
}

/// Upper-bound value for the `percent`-th percentile of a bucket vector.
fn quantile(buckets: &[u64; BUCKET_COUNT], count: u64, max: u64, percent: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    // rank = ceil(count * percent / 100), at least 1; u128 avoids overflow.
    let rank = ((u128::from(count) * u128::from(percent)).div_ceil(100)).max(1);
    let mut seen: u128 = 0;
    for (index, &n) in buckets.iter().enumerate() {
        seen += u128::from(n);
        if seen >= rank {
            return bucket_ceiling(index).min(max);
        }
    }
    max
}

/// A point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations (for deriving the mean).
    pub sum: u64,
    /// Exact maximum observation.
    pub max: u64,
    /// Upper bound of the median bucket, clamped to `max`.
    pub p50: u64,
    /// Upper bound of the 90th-percentile bucket, clamped to `max`.
    pub p90: u64,
    /// Upper bound of the 99th-percentile bucket, clamped to `max`.
    pub p99: u64,
}

/// One entry in the trace ring: a monotonically increasing sequence number
/// and a protocol-token-safe label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Position in the session-wide event stream (never reused).
    pub seq: u64,
    /// Sanitized event label, e.g. `session.open` or `stream.degraded`.
    pub label: String,
}

struct TraceBuf {
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    capacity: usize,
}

/// Bounded ring buffer of recent structured events. Pushes take a leaf-only
/// mutex; the lock is never held across any other lock acquisition.
pub struct TraceLog {
    inner: Mutex<TraceBuf>,
}

impl TraceLog {
    /// An empty ring with the given capacity (0 disables recording).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(TraceBuf {
                events: VecDeque::new(),
                next_seq: 0,
                capacity,
            }),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, TraceBuf> {
        // A panic while holding this leaf lock cannot corrupt the ring
        // (pushes are single VecDeque ops), so recover from poisoning.
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Append an event, evicting the oldest when full. Labels are sanitized
    /// to protocol-safe tokens (`[A-Za-z0-9._:,-]`).
    pub fn push(&self, label: &str) {
        let mut buf = self.locked();
        if buf.capacity == 0 {
            return;
        }
        let seq = buf.next_seq;
        buf.next_seq += 1;
        let label = sanitize_label(label);
        buf.events.push_back(TraceEvent { seq, label });
        while buf.events.len() > buf.capacity {
            buf.events.pop_front();
        }
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<TraceEvent> {
        let buf = self.locked();
        let skip = buf.events.len().saturating_sub(n);
        buf.events.iter().skip(skip).cloned().collect()
    }

    /// Resize the ring, evicting oldest entries if it shrinks.
    pub fn set_capacity(&self, capacity: usize) {
        let mut buf = self.locked();
        buf.capacity = capacity;
        while buf.events.len() > capacity {
            buf.events.pop_front();
        }
    }
}

/// Map an arbitrary label to a protocol-token-safe form: alphanumerics and
/// `. _ : , -` pass through, everything else becomes `_`.
pub fn sanitize_label(label: &str) -> String {
    if label.is_empty() {
        return "_".to_string();
    }
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | ':' | ',' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// A scope timer: created by [`Registry::span`], records the elapsed
/// nanoseconds into its histogram when dropped. Inert when observability is
/// disabled. Bind it to a named variable (`let _span = ...;`), not `_`,
/// or it drops immediately.
pub struct Span<'a> {
    hist: Option<&'a Histogram>,
    clock: &'a dyn Clock,
    start: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(hist) = self.hist {
            hist.record(self.clock.now_ns().saturating_sub(self.start));
        }
    }
}

/// The registry: the process-scope [`Counters`] and [`Histograms`], a
/// trace ring, an injectable clock, and a global enable switch. Exposition
/// order is the sorted name order, which is what the rp/5 `metrics` verb
/// renders.
pub struct Registry {
    clock: Arc<dyn Clock>,
    enabled: AtomicBool,
    /// Every process-scope counter.
    pub counters: Counters,
    /// Every process-scope histogram.
    pub histograms: Histograms,
    trace: TraceLog,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry on the production [`MonotonicClock`], enabled, with the
    /// default trace capacity.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A registry on an injected clock (tests pass a mock one).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            clock,
            enabled: AtomicBool::new(true),
            counters: Counters::default(),
            histograms: Histograms::default(),
            trace: TraceLog::new(DEFAULT_TRACE_CAPACITY),
        }
    }

    /// Whether instrumentation records anything. The `metrics` / `trace`
    /// verbs still answer while disabled; they just see frozen values.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip the global enable switch.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Read the registry clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Increment a counter by one (no-op while disabled).
    pub fn inc(&self, counter: &Counter) {
        if self.enabled() {
            counter.inc();
        }
    }

    /// Increment a counter by `n` (no-op while disabled).
    pub fn add(&self, counter: &Counter, n: u64) {
        if self.enabled() {
            counter.add(n);
        }
    }

    /// Record one histogram observation (no-op while disabled).
    pub fn record(&self, hist: &Histogram, v: u64) {
        if self.enabled() {
            hist.record(v);
        }
    }

    /// Start an always-on scope timer into `hist`; the returned [`Span`]
    /// records on drop. Inert while disabled.
    pub fn span<'a>(&'a self, hist: &'a Histogram) -> Span<'a> {
        let enabled = self.enabled();
        Span {
            hist: enabled.then_some(hist),
            clock: self.clock.as_ref(),
            start: if enabled { self.clock.now_ns() } else { 0 },
        }
    }

    /// Sampled stage timing: returns `Some(start_ns)` on the sampled
    /// 1-in-[`SAMPLE_EVERY`] ticks of `hist`, `None` otherwise (and always
    /// while disabled). Pair with [`Registry::record`].
    pub fn sampled_start(&self, hist: &Histogram) -> Option<u64> {
        (self.enabled() && hist.tick_sampled()).then(|| self.clock.now_ns())
    }

    /// Append a trace event (no-op while disabled).
    pub fn trace(&self, label: &str) {
        if self.enabled() {
            self.trace.push(label);
        }
    }

    /// The most recent `n` trace events, oldest first.
    pub fn trace_recent(&self, n: usize) -> Vec<TraceEvent> {
        self.trace.recent(n)
    }

    /// Resize the trace ring (`serve --trace-buffer N`).
    pub fn set_trace_capacity(&self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// All counters in sorted name order.
    pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().map(|(n, c)| (n, c.get())).collect()
    }

    /// All histogram summaries in sorted name order.
    pub fn histogram_summaries(&self) -> Vec<(&'static str, HistogramSummary)> {
        self.histograms
            .iter()
            .map(|(n, h)| (n, h.snapshot()))
            .collect()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry (created on first use, on the production
/// monotonic clock). All engine instrumentation routes through this.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic test clock: time advances only when the test says so.
    #[derive(Default)]
    struct MockClock {
        now: AtomicU64,
    }

    impl MockClock {
        fn advance(&self, ns: u64) {
            self.now.fetch_add(ns, Ordering::Relaxed);
        }
    }

    impl Clock for MockClock {
        fn now_ns(&self) -> u64 {
            self.now.load(Ordering::Relaxed)
        }
    }

    fn mock_registry() -> (Arc<MockClock>, Registry) {
        let clock = Arc::new(MockClock::default());
        let registry = Registry::with_clock(clock.clone());
        (clock, registry)
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Golden boundary cases: (value, bucket index).
        let cases: &[(u64, usize)] = &[
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (1023, 10),
            (1024, 11),
            (u64::MAX, 63),
            (1u64 << 62, 63),
            ((1u64 << 62) - 1, 62),
        ];
        for &(v, want) in cases {
            assert_eq!(bucket_index(v), want, "value {v}");
        }
        assert_eq!(bucket_ceiling(0), 0);
        assert_eq!(bucket_ceiling(1), 1);
        assert_eq!(bucket_ceiling(3), 7);
        assert_eq!(bucket_ceiling(10), 1023);
        assert_eq!(bucket_ceiling(63), u64::MAX);
    }

    #[test]
    fn quantiles_derive_from_buckets() {
        let h = Histogram::new();
        // 100 observations of 5 (bucket 3, ceiling 7) and one slow outlier.
        for _ in 0..100 {
            h.record(5);
        }
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 101);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 1500);
        assert_eq!(s.p50, 7);
        assert_eq!(s.p90, 7);
        // rank(p99) = ceil(101*99/100) = 100 → still the fast bucket.
        assert_eq!(s.p99, 7);
        // A second outlier pushes p99 into the slow bucket, clamped to max.
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.p99, 1000);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSummary::default());
    }

    #[test]
    fn quantiles_clamp_to_observed_max() {
        let h = Histogram::new();
        h.record(100); // bucket 7, ceiling 127
        let s = h.snapshot();
        assert_eq!((s.p50, s.p90, s.p99, s.max), (100, 100, 100, 100));
    }

    #[test]
    fn span_times_scope_under_mock_clock() {
        let (clock, registry) = mock_registry();
        let wal_sync = &registry.histograms.wal_sync;
        {
            let _span = registry.span(wal_sync);
            clock.advance(1_500);
        }
        {
            let _span = registry.span(wal_sync);
            clock.advance(40);
        }
        let s = wal_sync.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 1_500);
        assert_eq!(s.sum, 1_540);
        // 1500 lands in bucket 11 (ceiling 2047), clamped to the max.
        assert_eq!(s.p99, 1_500);
        assert_eq!(s.p50, 63); // 40 → bucket 6, ceiling 63 (< max, no clamp)
    }

    #[test]
    fn sampling_takes_first_then_every_eighth() {
        let h = Histogram::new();
        let sampled: Vec<bool> = (0..17).map(|_| h.tick_sampled()).collect();
        let taken: Vec<usize> = sampled
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i))
            .collect();
        assert_eq!(taken, vec![0, 8, 16]);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let (clock, registry) = mock_registry();
        let (reload, wal_sync) = (
            &registry.counters.catalog_reload,
            &registry.histograms.wal_sync,
        );
        registry.set_enabled(false);
        registry.inc(reload);
        registry.add(reload, 3);
        registry.record(wal_sync, 9);
        registry.trace("session.open");
        assert!(registry
            .sampled_start(&registry.histograms.service_handle)
            .is_none());
        {
            let _span = registry.span(wal_sync);
            clock.advance(100);
        }
        assert_eq!(reload.get(), 0);
        assert_eq!(wal_sync.snapshot().count, 0);
        assert!(registry.trace_recent(10).is_empty());

        registry.set_enabled(true);
        registry.inc(reload);
        assert_eq!(reload.get(), 1);
    }

    #[test]
    fn exposition_order_is_sorted_and_complete() {
        let (_clock, registry) = mock_registry();
        let counters: Vec<&str> = registry.counter_values().iter().map(|&(n, _)| n).collect();
        assert_eq!(counters, Counters::NAMES);
        let hists: Vec<&str> = registry
            .histogram_summaries()
            .iter()
            .map(|&(n, _)| n)
            .collect();
        assert_eq!(hists, Histograms::NAMES);
        for names in [Counters::NAMES, Histograms::NAMES] {
            assert!(
                names.windows(2).all(|w| w[0] < w[1]),
                "metric_set! names must be declared sorted and unique: {names:?}"
            );
        }
    }

    #[test]
    fn trace_ring_wraps_and_keeps_order() {
        let log = TraceLog::new(3);
        for label in ["a", "b", "c", "d", "e"] {
            log.push(label);
        }
        let events = log.recent(10);
        let got: Vec<(u64, &str)> = events.iter().map(|e| (e.seq, e.label.as_str())).collect();
        assert_eq!(got, vec![(2, "c"), (3, "d"), (4, "e")]);
        // A narrower window returns the most recent slice, still oldest first.
        let tail = log.recent(2);
        let got: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(got, vec![3, 4]);
    }

    #[test]
    fn trace_capacity_is_runtime_settable() {
        let log = TraceLog::new(4);
        for label in ["a", "b", "c", "d"] {
            log.push(label);
        }
        log.set_capacity(2);
        let got: Vec<u64> = log.recent(10).iter().map(|e| e.seq).collect();
        assert_eq!(got, vec![2, 3]);
        log.set_capacity(0);
        log.push("ignored");
        assert!(log.recent(10).is_empty());
    }

    #[test]
    fn labels_sanitize_to_protocol_tokens() {
        assert_eq!(sanitize_label("session.open"), "session.open");
        assert_eq!(sanitize_label("bad label;x=1"), "bad_label_x_1");
        assert_eq!(sanitize_label(""), "_");
    }
}
