//! The streaming publication subsystem: a durable, deterministically
//! replayable live release.
//!
//! The paper's Section 3.1 argues data perturbation is uniquely amenable
//! to record insertion — each record is perturbed independently, and a
//! group that outgrows its threshold `sg` is re-sampled in place. Both
//! per-group steps live on `rp-core`'s [`LiveGroup`]
//! (`insert` and `republish`); this module wraps them in the machinery a
//! server needs to run them for real:
//!
//! * **[`wal`]** — a write-ahead log of inserts and re-publications with
//!   the crate's usual codec discipline (versioned header recording the
//!   seed, `(p, λ, δ)` and the schema up front; `parse ∘ encode = id`;
//!   contiguous sequence numbers; torn tails truncated on open), plus
//!   [`compaction`](wal::compact_wal): events superseded by a later
//!   re-publication collapse into per-group state records, and replay of
//!   the compacted log is byte-identical to replay of the full one.
//! * **commit** — a group-commit log manager over the WAL: appends
//!   accumulate and one `fsync` makes a whole batch durable
//!   ([`StreamConfig::commit_batch`]), amortizing
//!   the dominant cost of the insert path.
//! * **[`rng`]** — one counter-based RNG *per group*, derived from
//!   `(stream seed, group key)`. A group's stream depends only on its own
//!   event count, so WAL replay is exact regardless of how unrelated
//!   groups interleaved, and the whole cursor snapshots as one `u64`.
//! * **`LiveGroups`** — every live group once: one [`GroupState`] (the
//!   [`LiveGroup`] plus its RNG cursor) per key in one key-ordered map,
//!   always resident, and the one place a WAL event is applied to it.
//!   The live insert path, replay, restore and
//!   [`compaction`](wal::compact_wal) all go through it, and all persist
//!   a group as that same record, in the map's order.
//! * **snapshot/restore** — [`StreamPublisher::snapshot`] materializes
//!   the whole stream as a v2 [`Publication`]: base rows + live rows in
//!   one table (so batch consumers just see a bigger release) plus the
//!   [`LiveState`] extension to resume from. Restore = load snapshot +
//!   replay the WAL tail.
//!
//! ## The determinism contract, extended to streams
//!
//! A stream's state is a pure function of `(base artifact, WAL)`:
//! replaying a WAL against the base from a clean start is byte-identical
//! to the live run, and any snapshot + tail replay lands on the same
//! bytes — no matter how many restarts or where they fell. The root
//! determinism suite (`tests/stream_determinism.rs`) proves this
//! property over random insert interleavings and restart points.
//!
//! ## The durability contract
//!
//! Two artifacts, two different promises (tortured end to end by
//! `tests/stream_crash.rs`):
//!
//! * **WAL** — an insert is *acknowledged* once logged and *durable*
//!   once synced. With group commit off (the default) the two coincide
//!   only at [`StreamPublisher::flush`]; with `commit_batch` set, at
//!   most one batch of acknowledged events can roll back in a crash, and
//!   [`StreamPublisher::durable_seq`] reports the guaranteed cursor.
//!   Recovery truncates a torn final line and replays the longest
//!   complete prefix — commit policy changes durability *timing*, never
//!   one written byte.
//! * **Snapshot** — replacement is atomic: the new artifact is written
//!   to a temp sibling, fsynced, renamed over the target, and the
//!   directory synced. A crash at any byte leaves either the complete
//!   old snapshot or the complete new one, never a torn mix.
//!
//! ## The fsync-poisoning rule
//!
//! A failed WAL `fsync` is **terminal**. After reporting an fsync error
//! the kernel may drop the dirty pages it could not write, so a retried
//! fsync that returns success proves nothing about the bytes the first
//! one lost — retry-and-ack is how systems have silently lost committed
//! data ("fsyncgate"). The log manager therefore latches *poisoned* on
//! the first failed sync (a failed append poisons too — a torn buffered
//! line is equally untrustworthy): the durable cursor freezes at the
//! last good sync, [`StreamPublisher::durable_seq`] reports
//! acknowledged-but-unsynced events as lost, and every later
//! [`insert`](StreamPublisher::insert_codes) or
//! [`flush`](StreamPublisher::flush) refuses with
//! [`StreamError::Degraded`] carrying that cursor. The stream keeps
//! answering queries from its in-memory state; reopening it from disk
//! (the catalog's `reload`) recovers exactly the durable prefix.
//!
//! Snapshot I/O sits outside this rule: an atomic snapshot replacement
//! is idempotent, so it absorbs *transient* faults with bounded
//! retry-with-backoff ([`crate::fault::with_retry`]) and only a
//! persistent fault surfaces — loudly, with the stream's state intact.
//! Every durable writer in the subsystem consults an injectable
//! [`crate::fault::FaultIo`] facade (default passthrough), so
//! `tests/fault_matrix.rs` can drive all of the above from a seeded,
//! replayable fault schedule.

mod commit;
pub mod rng;
pub mod wal;

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

use rp_core::incremental::{GroupStatus, LiveGroup};
use rp_core::perturb::UniformPerturbation;
use rp_core::privacy::PrivacyParams;
use rp_table::{
    group_histograms, terms_match_key, AttrId, CountQuery, Schema, TableBuilder, TableError, Term,
};

use crate::fault::{self, FaultHandle};
use crate::publication::{GroupState, LiveState, Publication, PublicationError};
use crate::stream::commit::LogManager;
use crate::stream::rng::GroupRng;
use crate::stream::wal::{Wal, WalEvent, WalHeader};

/// Tuning knobs of a [`StreamPublisher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamConfig {
    /// Group commit by count: fsync the WAL automatically after this
    /// many logged events. `0` (the default) disables count-based
    /// commit — the log is synced only on an explicit
    /// [`flush`](StreamPublisher::flush). Larger batches amortize the
    /// sync cost over more inserts at the price of a wider crash-loss
    /// window; the *written bytes* are identical under every setting.
    pub commit_batch: u64,
}

/// Errors raised by the streaming subsystem.
#[derive(Debug)]
pub enum StreamError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A structural problem in a WAL or snapshot at a 1-based line.
    Format {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Artifact/WAL/record inconsistency (wrong schema, stale log,
    /// replayed event for an unknown group, ...).
    Mismatch(String),
    /// A record failed schema validation on insert.
    Table(TableError),
    /// The publication artifact failed to (de)serialize.
    Publication(PublicationError),
    /// The stream's WAL is poisoned after a failed write or fsync (the
    /// fsync-poisoning rule): the stream is read-only for mutations and
    /// reports the prefix guaranteed durable. Reopening the stream from
    /// disk (the catalog's `reload`) is the recovery path.
    Degraded {
        /// Highest sequence number guaranteed to survive — everything
        /// past it is reported lost.
        durable_seq: u64,
        /// The write failure that poisoned the log.
        message: String,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "I/O error: {e}"),
            StreamError::Format { line, message } => write!(f, "line {line}: {message}"),
            StreamError::Mismatch(m) => write!(f, "{m}"),
            StreamError::Table(e) => write!(f, "{e}"),
            StreamError::Publication(e) => write!(f, "{e}"),
            StreamError::Degraded {
                durable_seq,
                message,
            } => write!(
                f,
                "stream degraded to read-only after a write failure ({message}); \
                 durable through event {durable_seq} — reload the release to recover"
            ),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Table(e) => Some(e),
            StreamError::Publication(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<TableError> for StreamError {
    fn from(e: TableError) -> Self {
        StreamError::Table(e)
    }
}

impl From<PublicationError> for StreamError {
    fn from(e: PublicationError) -> Self {
        // Format errors keep their line numbers; everything else wraps.
        match e {
            PublicationError::Format { line, message } => StreamError::Format { line, message },
            other => StreamError::Publication(other),
        }
    }
}

/// What one insert did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// The group key the record landed in (public-attribute codes).
    pub key: Vec<u32>,
    /// Raw group size after the insert.
    pub group_size: u64,
    /// Whether the insert pushed the group past `sg` and it was
    /// re-sampled through SPS (logged as its own WAL event).
    pub republished: bool,
}

/// Every live group, once: one [`GroupState`] (the group plus its RNG
/// cursor) per key in a key-ordered map, and the one place a WAL event
/// is applied to it.
///
/// The live insert path, clean-start replay, snapshot+tail restore and
/// WAL compaction all apply events through [`LiveGroups::apply`] and
/// persist groups through [`LiveGroups::states`], so they cannot drift.
/// The map's order is the canonical key order of the artifact's `lgroup`
/// lines and the WAL's `s` records, so persisting sorts nothing.
#[derive(Debug)]
struct LiveGroups {
    seed: u64,
    sa: AttrId,
    op: UniformPerturbation,
    params: PrivacyParams,
    groups: BTreeMap<Vec<u32>, GroupState>,
    /// Highest applied sequence number (compaction's absorption floor).
    seq: u64,
    inserted: u64,
    republished: u64,
}

impl LiveGroups {
    /// No groups, under the stream parameters a WAL header records.
    fn new(header: &WalHeader) -> Self {
        let m = header.schema.attribute(header.sa).domain_size();
        Self {
            seed: header.seed,
            sa: header.sa,
            op: UniformPerturbation::new(header.p, m),
            params: header.params,
            groups: BTreeMap::new(),
            seq: 0,
            inserted: 0,
            republished: 0,
        }
    }

    /// Resumes persisted state — a snapshot's live section or a WAL's
    /// compaction section: its groups, plus the cursor and counters of
    /// the events it covers.
    ///
    /// # Errors
    ///
    /// A group whose key is already live: two persisted sections claim
    /// the same group, and merging them would double its counts.
    fn resume(
        &mut self,
        seq: u64,
        inserted: u64,
        republished: u64,
        groups: impl IntoIterator<Item = GroupState>,
    ) -> Result<(), StreamError> {
        for state in groups {
            if let Some(prev) = self.groups.insert(state.group.key.clone(), state) {
                return Err(StreamError::Mismatch(format!(
                    "group {:?} is resumed twice (a snapshot's live section and a \
                     compacted WAL both hold it)",
                    prev.group.key
                )));
            }
        }
        self.seq = self.seq.max(seq);
        self.inserted += inserted;
        self.republished += republished;
        Ok(())
    }

    /// Applies one WAL event: draws from the group's RNG (derived fresh
    /// for a brand-new group), perturbs an insert or re-samples a group
    /// through SPS, and stores the advanced cursor in the group's record.
    /// Returns the group key and its status afterwards.
    ///
    /// # Errors
    ///
    /// A re-publication of a group with no prior state (a corrupted
    /// log); inserts cannot fail.
    fn apply(&mut self, event: &WalEvent) -> Result<(Vec<u32>, GroupStatus), StreamError> {
        let key = event.group_key(self.sa);
        let state = match event {
            WalEvent::Insert { .. } => {
                self.groups
                    .entry(key.clone())
                    .or_insert_with(|| GroupState {
                        rng_state: GroupRng::for_group(self.seed, &key).state(),
                        group: LiveGroup::new(key.clone(), self.op.domain_size()),
                    })
            }
            WalEvent::Republish { seq, .. } => self.groups.get_mut(&key).ok_or_else(|| {
                StreamError::Mismatch(format!(
                    "event {seq} re-publishes unknown group {key:?} (corrupted log?)"
                ))
            })?,
        };
        let mut rng = GroupRng::from_state(state.rng_state);
        let status = match event {
            WalEvent::Insert { codes, .. } => {
                self.inserted += 1;
                state
                    .group
                    .insert(&mut rng, &self.op, self.params, codes[self.sa])
            }
            WalEvent::Republish { .. } => {
                self.republished += 1;
                state.group.republish(&mut rng, &self.op, self.params)
            }
        };
        state.rng_state = rng.state();
        // `max`, not assignment: a compacted log can retain events below
        // the absorption floor the cursor already sits at.
        self.seq = self.seq.max(event.seq());
        Ok((key, status))
    }

    /// Every group's state in key order — the canonical order of both
    /// the artifact's `lgroup` lines and the WAL's `s` records.
    fn states(&self) -> Vec<GroupState> {
        self.groups.values().cloned().collect()
    }

    /// Iterates over the live groups in key order.
    fn groups(&self) -> impl Iterator<Item = &LiveGroup> {
        self.groups.values().map(|state| &state.group)
    }
}

/// A durable live publication: the streaming counterpart of
/// [`crate::Publisher`].
///
/// Opened over a base artifact (a v1 batch release to start streaming on,
/// or a v2 snapshot to resume) plus a WAL path. Every insert is logged
/// before it is applied; a group crossing its threshold is automatically
/// re-sampled through SPS and the re-publication is logged too.
/// [`StreamPublisher::snapshot`] folds the whole live state back into a
/// v2 [`Publication`].
#[derive(Debug)]
pub struct StreamPublisher {
    base: Publication,
    /// The sorted group keys of the base release, computed once per open
    /// — so group counts (and the snapshot's `SpsStats::groups`) count a
    /// key shared by base and live once, not twice.
    base_keys: Vec<Vec<u32>>,
    schema: Schema,
    sa: AttrId,
    /// The public attributes in schema order: the attributes a group key
    /// holds.
    na: Vec<AttrId>,
    live: LiveGroups,
    /// `None` in replay-only mode (no appends).
    wal: Option<LogManager>,
    /// The fault policy every durable writer of this stream consults
    /// (passthrough in production, a schedule under fault injection).
    faults: FaultHandle,
}

impl StreamPublisher {
    /// Opens a stream for appending: `artifact` is the base release (v1)
    /// or a snapshot to resume (v2), `wal_path` the log. An existing log
    /// is validated against the artifact and its tail (events after the
    /// snapshot's cursor) replayed; a missing log is created fresh,
    /// taking over at the snapshot's cursor — so "snapshot, archive the
    /// old log, start a new one" is the supported truncation story.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, a log that does not belong to
    /// this artifact, or a log with a gap against the snapshot.
    pub fn open(
        artifact: Publication,
        wal_path: &Path,
        config: StreamConfig,
    ) -> Result<Self, StreamError> {
        Self::build(artifact, wal_path, config, true, fault::passthrough())
    }

    /// [`StreamPublisher::open`] behind an injectable fault policy:
    /// every durable write the stream performs (WAL appends and syncs,
    /// snapshot replacement) consults `faults` first. Production uses
    /// [`StreamPublisher::open`] (passthrough); the fault matrix drives
    /// this with seeded schedules.
    ///
    /// # Errors
    ///
    /// As [`StreamPublisher::open`], plus whatever `faults` injects.
    pub fn open_with(
        artifact: Publication,
        wal_path: &Path,
        config: StreamConfig,
        faults: FaultHandle,
    ) -> Result<Self, StreamError> {
        Self::build(artifact, wal_path, config, true, faults)
    }

    /// Reconstructs the stream state by replay only — no appends, the
    /// log is left untouched. This is `rpctl replay`: prove that base +
    /// WAL (or snapshot + tail) lands on the same bytes as the live run.
    ///
    /// # Errors
    ///
    /// As [`StreamPublisher::open`], plus an error if the log is missing
    /// (a replay without a log is meaningless).
    pub fn replay(
        artifact: Publication,
        wal_path: &Path,
        config: StreamConfig,
    ) -> Result<Self, StreamError> {
        if !wal_path.exists() {
            return Err(StreamError::Mismatch(format!(
                "cannot replay: no WAL at {}",
                wal_path.display()
            )));
        }
        Self::build(artifact, wal_path, config, false, fault::passthrough())
    }

    fn build(
        artifact: Publication,
        wal_path: &Path,
        config: StreamConfig,
        append: bool,
        faults: FaultHandle,
    ) -> Result<Self, StreamError> {
        let sa = artifact.sa();
        let na: Vec<AttrId> = (0..artifact.schema().arity())
            .filter(|&a| a != sa)
            .collect();
        let (base, base_keys, live_state) = split_artifact(artifact, &na)?;
        let schema = base.schema().clone();
        // The last event the artifact's live section covers: `None` when
        // it covers none (no live section, or one taken before the first
        // event), which is a clean start. A section that covers no event
        // can hold no live group; one that lists groups would be merged
        // with a compacted log's state records and replay their events a
        // second time, so it is refused.
        let covered = match &live_state {
            Some(l) if l.wal_seq == 0 && !l.groups.is_empty() => {
                return Err(StreamError::Mismatch(format!(
                    "the artifact's live section covers no event yet lists {} live groups",
                    l.groups.len()
                )));
            }
            Some(l) => Some(l.wal_seq).filter(|&seq| seq > 0),
            None => None,
        };
        let header = WalHeader {
            seed: base.seed(),
            p: base.p(),
            params: base.params(),
            sa,
            schema: schema.clone(),
            base_rows: base.table().rows(),
            first_seq: covered.map_or(1, |seq| seq + 1),
        };
        let mut live = LiveGroups::new(&header);
        if let Some(l) = live_state {
            live.resume(l.wal_seq, l.inserted, l.republished, l.groups)?;
        }
        // `open_append_with` validates the log's sequence coverage against
        // `header.first_seq = covered + 1`: a log starting past it is
        // missing events, a log (even an empty one) whose next append
        // would rewind behind the snapshot is stale.
        let (wal, file) = if wal_path.exists() {
            let (wal, file) = Wal::open_append_with(wal_path, &header, faults.clone())?;
            (wal, Some(file))
        } else if append {
            (Wal::create_with(wal_path, &header, faults.clone())?, None)
        } else {
            unreachable!("replay checked existence")
        };
        if let Some(file) = file {
            if let Some(compaction) = file.compaction {
                match covered {
                    // Clean start on a compacted log: the state records
                    // stand in for the absorbed events.
                    None => live.resume(
                        compaction.floor_seq,
                        compaction.absorbed_inserts,
                        compaction.absorbed_republishes,
                        compaction.groups,
                    )?,
                    // The snapshot's cursor falls strictly inside the
                    // absorbed range: those events no longer exist
                    // individually, so a partial replay is impossible.
                    // Refuse rather than guess.
                    Some(covered) if covered < compaction.floor_seq => {
                        return Err(StreamError::Mismatch(format!(
                            "snapshot covers events through {covered} but the WAL at {} is \
                             compacted through {}: resume from the base artifact or from a \
                             snapshot taken at or past the compaction floor",
                            wal_path.display(),
                            compaction.floor_seq
                        )));
                    }
                    // covered >= floor: the snapshot supersedes the whole
                    // compaction section; only retained events past the
                    // cursor replay below.
                    Some(_) => {}
                }
            }
            let obs = crate::obs::global();
            let _replay_span = obs.span(&obs.histograms.stream_replay);
            let mut replayed: u64 = 0;
            let covered = covered.unwrap_or(0);
            for event in &file.events {
                if event.seq() > covered {
                    live.apply(event)?;
                    replayed += 1;
                }
            }
            if replayed > 0 {
                obs.add(&obs.counters.stream_replayed_events, replayed);
                obs.trace("stream.replay");
            }
        }
        Ok(Self {
            base,
            base_keys,
            schema,
            sa,
            na,
            live,
            wal: append.then(|| LogManager::new(wal, &config)),
            faults,
        })
    }

    // -- accessors ---------------------------------------------------------

    /// The immutable base release the stream grows on.
    pub fn base(&self) -> &Publication {
        &self.base
    }

    /// The published schema (shared by base and live records).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The sensitive attribute index.
    pub fn sa(&self) -> AttrId {
        self.sa
    }

    /// Retention probability `p`.
    pub fn p(&self) -> f64 {
        self.base.p()
    }

    /// The enforced `(λ, δ)` requirement.
    pub fn params(&self) -> PrivacyParams {
        self.base.params()
    }

    /// Records inserted into the stream so far (all restarts included).
    pub fn inserted(&self) -> u64 {
        self.live.inserted
    }

    /// SPS re-publication events so far.
    pub fn republished(&self) -> u64 {
        self.live.republished
    }

    /// Sequence number of the last applied WAL event.
    pub fn wal_seq(&self) -> u64 {
        self.live.seq
    }

    /// Live groups.
    pub fn live_groups(&self) -> usize {
        self.live.groups.len()
    }

    /// Live groups whose key does not already exist in the base release
    /// — the number of *new* personal groups the stream added. Group
    /// totals (`HELLO`/`info`, the snapshot's `SpsStats::groups`) use
    /// this so a key shared by base and live counts once.
    pub fn novel_live_groups(&self) -> usize {
        self.live
            .groups()
            .filter(|g| self.base_keys.binary_search(&g.key).is_err())
            .count()
    }

    /// Published records contributed by the live groups.
    pub fn live_records(&self) -> u64 {
        self.live
            .groups()
            .map(|g| g.published_hist.iter().sum::<u64>())
            .sum()
    }

    // -- the insert path ---------------------------------------------------

    /// Inserts one record given as `(column, value)` pairs — every schema
    /// column exactly once, resolved by name. The record is logged,
    /// perturbed and applied; if its group crosses `sg`, the group is
    /// re-sampled through SPS and the re-publication logged too.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown columns or values, missing/duplicate
    /// columns, a read-only (replay) stream, or WAL I/O failure.
    pub fn insert_values(&mut self, values: &[(&str, &str)]) -> Result<InsertOutcome, StreamError> {
        let arity = self.schema.arity();
        let mut codes: Vec<Option<u32>> = vec![None; arity];
        for &(col, value) in values {
            let attr = self.schema.attr_id(col)?;
            if codes[attr].is_some() {
                return Err(StreamError::Mismatch(format!(
                    "column `{col}` appears more than once"
                )));
            }
            let code = self
                .schema
                .attribute(attr)
                .dictionary()
                .code(value)
                .ok_or_else(|| {
                    StreamError::Table(TableError::UnknownValue {
                        attribute: col.to_string(),
                        value: value.to_string(),
                    })
                })?;
            codes[attr] = Some(code);
        }
        let codes: Vec<u32> = codes
            .into_iter()
            .enumerate()
            .map(|(attr, c)| {
                c.ok_or_else(|| {
                    StreamError::Mismatch(format!(
                        "record is missing column `{}`",
                        self.schema.attribute(attr).name()
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        self.insert_codes(&codes)
    }

    /// Inserts one record given as dictionary codes in schema order.
    ///
    /// # Errors
    ///
    /// As [`StreamPublisher::insert_values`].
    pub fn insert_codes(&mut self, codes: &[u32]) -> Result<InsertOutcome, StreamError> {
        let arity = self.schema.arity();
        if codes.len() != arity {
            return Err(StreamError::Mismatch(format!(
                "record needs {arity} codes, got {}",
                codes.len()
            )));
        }
        for (attr, &code) in codes.iter().enumerate() {
            let domain = self.schema.attribute(attr).domain_size();
            if code as usize >= domain {
                return Err(StreamError::Table(TableError::CodeOutOfRange {
                    attribute: self.schema.attribute(attr).name().to_string(),
                    code,
                    domain_size: domain,
                }));
            }
        }
        let Some(wal) = self.wal.as_mut() else {
            return Err(StreamError::Mismatch(
                "stream is read-only (opened for replay)".into(),
            ));
        };
        // Write-ahead: the event is logged before it is applied.
        let seq = wal.next_seq();
        let insert = WalEvent::Insert {
            seq,
            codes: codes.to_vec(),
        };
        wal.append(&insert)?;
        let (key, status) = self.live.apply(&insert)?;
        let republished = status == GroupStatus::NeedsResampling;
        if republished {
            // The paper's remedy, automated: re-sample the group through
            // SPS in place. Its own WAL event keeps replay literal.
            let event = WalEvent::Republish {
                seq: seq + 1,
                key: key.clone(),
            };
            wal.append(&event)?;
            self.live.apply(&event)?;
            let obs = crate::obs::global();
            obs.inc(&obs.counters.stream_republish);
            obs.trace("stream.republish");
        }
        let group_size = self
            .live
            .groups
            .get(&key)
            .expect("the applied insert holds its group")
            .group
            .len();
        // Group commit: the log manager decides whether this insert
        // completes a batch that warrants an fsync now.
        wal.maybe_commit()?;
        Ok(InsertOutcome {
            key,
            group_size,
            republished,
        })
    }

    // -- durability --------------------------------------------------------

    /// Forces the WAL to stable storage — the durability point — and
    /// returns the sequence number now durable. Under group commit
    /// ([`StreamConfig::commit_batch`]) inserts
    /// are acknowledged before they are synced; this is the explicit
    /// barrier that closes the gap. With nothing pending it skips the
    /// fsync entirely, so an idle flush is free.
    ///
    /// # Errors
    ///
    /// Returns the I/O failure, or a mismatch on a read-only stream.
    pub fn flush(&mut self) -> Result<u64, StreamError> {
        match &mut self.wal {
            Some(wal) => {
                wal.commit()?;
                Ok(self.live.seq)
            }
            None => Err(StreamError::Mismatch(
                "stream is read-only (opened for replay)".into(),
            )),
        }
    }

    /// The highest WAL sequence number guaranteed to survive a crash.
    /// Lags [`wal_seq`](Self::wal_seq) by up to one commit batch
    /// while group commit holds acknowledged events in the OS
    /// buffer; [`flush`](Self::flush) closes the gap. A replay-only
    /// stream reports its cursor: everything it knows came from disk.
    pub fn durable_seq(&self) -> u64 {
        match &self.wal {
            Some(wal) => wal.durable_seq(),
            None => self.live.seq,
        }
    }

    /// Why the stream is degraded (its WAL poisoned after a failed
    /// write or fsync), if it is. A degraded stream keeps answering
    /// queries from its in-memory state but refuses `insert`/`flush`
    /// with [`StreamError::Degraded`]; reopening it from disk (the
    /// catalog's `reload`) recovers exactly the durable prefix.
    pub fn degraded(&self) -> Option<&str> {
        self.wal.as_ref().and_then(LogManager::poisoned)
    }

    /// Flushes the WAL, then **seals** this publisher's write handle:
    /// every later `insert`/`flush` refuses with
    /// [`StreamError::Degraded`] (durable through the returned cursor)
    /// while queries keep answering from memory. The catalog's reload
    /// path seals the old publisher before reopening the WAL from disk,
    /// so the old handle can never append — or truncate a racing commit
    /// — concurrently with the reopened one. On an already-degraded
    /// stream the original poison stands and its loss boundary is
    /// reported; a replay-only stream holds no write handle and seals
    /// trivially.
    ///
    /// # Errors
    ///
    /// [`StreamError::Degraded`] if the stream was already poisoned, or
    /// the flush failure that poisoned (and therefore still sealed) it.
    pub fn seal(&mut self) -> Result<u64, StreamError> {
        match &mut self.wal {
            Some(wal) => wal.seal(),
            None => Ok(self.live.seq),
        }
    }

    /// Materializes the stream as a v2 [`Publication`]: the base rows
    /// plus every live group's published histogram expanded to rows
    /// (sorted by key, then SA code — the canonical order), with the
    /// [`LiveState`] extension attached.
    /// A pure function of the stream state: live run, clean-start replay
    /// and snapshot+tail restore all serialize to identical bytes.
    pub fn snapshot(&self) -> Publication {
        let groups = self.live.states();
        let base_table = self.base.table();
        let base_rows = base_table.rows();
        let arity = self.schema.arity();
        let live_rows: u64 = groups
            .iter()
            .map(|g| g.group.published_hist.iter().sum::<u64>())
            .sum();
        let mut builder =
            TableBuilder::with_capacity(self.schema.clone(), base_rows + live_rows as usize);
        let mut row = Vec::with_capacity(arity);
        for r in 0..base_rows {
            row.clear();
            for a in 0..arity {
                row.push(base_table.code(r, a));
            }
            builder.push_codes(&row).expect("base rows are in-domain");
        }
        for GroupState { group: g, .. } in &groups {
            for (sa_code, &count) in g.published_hist.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                row.clear();
                let mut k = g.key.iter();
                for a in 0..arity {
                    if a == self.sa {
                        row.push(sa_code as u32);
                    } else {
                        row.push(*k.next().expect("key covers every NA attribute"));
                    }
                }
                builder
                    .push_codes_batch(&row, count as usize)
                    .expect("live rows are in-domain");
            }
        }
        let mut stats = self.base.stats();
        stats.groups += self.novel_live_groups();
        stats.groups_sampled += self.live.republished as usize;
        stats.input_records += self.live.inserted;
        stats.output_records = base_rows as u64 + live_rows;
        let live = LiveState {
            base_rows,
            wal_seq: self.live.seq,
            inserted: self.live.inserted,
            republished: self.live.republished,
            groups,
        };
        Publication::from_parts(
            builder.build(),
            self.sa,
            self.base.p(),
            self.base.params(),
            self.base.seed(),
            stats,
            self.base.check(),
        )
        .with_live(live)
    }

    /// Snapshots to a file, atomically and durably (temp sibling +
    /// fsync + rename + parent-directory sync): a crash mid-snapshot
    /// leaves the previous snapshot intact — the snapshot atomicity
    /// rule of the durability contract.
    ///
    /// # Errors
    ///
    /// File-creation, I/O and serialization errors.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), StreamError> {
        use std::io::Write as _;
        let publication = self.snapshot();
        // Serialize exactly once, outside the retry: a serialization
        // failure is deterministic, so re-running it could never
        // succeed — only the I/O below is transient-retryable.
        let mut bytes = Vec::new();
        publication.save(&mut bytes)?;
        // Atomic replacement is safe to retry wholesale — each attempt
        // starts from a fresh temp sibling — so transient injected
        // faults are absorbed here; a persistent fault surfaces with
        // the previous snapshot untouched.
        fault::with_retry(|| {
            crate::fsutil::write_atomic_with(path.as_ref(), &self.faults, |w| {
                w.write_all(&bytes).map_err(StreamError::from)
            })
        })
    }

    // -- the live query view -----------------------------------------------

    /// `(support, observed)` of the live groups matching the query's NA
    /// conditions — the live half of an answer (the base half comes from
    /// the [`crate::QueryEngine`] over the base release).
    pub fn live_support_observed(&self, query: &CountQuery) -> (u64, u64) {
        self.live_support_observed_terms(query.na_pattern().terms(), query.sa_value())
    }

    /// [`StreamPublisher::live_support_observed`] over borrowed NA `terms`
    /// and SA code `sa`, the form a served line is resolved into.
    pub(crate) fn live_support_observed_terms(
        &self,
        terms: &[(AttrId, Term)],
        sa: u32,
    ) -> (u64, u64) {
        let sa_value = sa as usize;
        let mut support = 0u64;
        let mut observed = 0u64;
        for g in self.live.groups() {
            if terms_match_key(terms, &self.na, &g.key) {
                support += g.published_hist.iter().sum::<u64>();
                observed += g.published_hist[sa_value];
            }
        }
        (support, observed)
    }

    /// Whether a group key matches the query's NA conditions — the exact
    /// predicate the cache-invalidation guarantee is stated over: an
    /// insert to group *g* invalidates precisely the cached answers
    /// whose match set contains *g*.
    pub fn key_matches(&self, key: &[u32], query: &CountQuery) -> bool {
        query.na_pattern().matches_key(&self.na, key)
    }
}

/// An artifact split into its base release, the sorted group keys of the
/// base and its live extension.
type Split = (Publication, Vec<Vec<u32>>, Option<LiveState>);

/// Splits an artifact into its immutable base publication (table
/// truncated to the base rows, batch counters rolled back to the base
/// release), the sorted group keys of the base over the public
/// attributes `na`, and its live extension.
fn split_artifact(artifact: Publication, na: &[AttrId]) -> Result<Split, StreamError> {
    let Some(live) = artifact.live().cloned() else {
        let (base_keys, _) = group_histograms(artifact.table(), na, artifact.sa());
        return Ok((artifact, base_keys, None));
    };
    let table = artifact.table();
    let arity = table.schema().arity();
    let mut builder = TableBuilder::with_capacity(table.schema().clone(), live.base_rows);
    let mut row = Vec::with_capacity(arity);
    for r in 0..live.base_rows {
        row.clear();
        for a in 0..arity {
            row.push(table.code(r, a));
        }
        builder.push_codes(&row)?;
    }
    // Roll the stream's contributions back out of the snapshot counters
    // so re-snapshotting reproduces them identically (saturating: a
    // hand-edited artifact must not panic here). The group rollback
    // mirrors `snapshot`: only live groups whose key is absent from the
    // base were counted.
    let base = builder.build();
    let (base_keys, _) = group_histograms(&base, na, artifact.sa());
    let novel = live
        .groups
        .iter()
        .filter(|g| base_keys.binary_search(&g.group.key).is_err())
        .count();
    let mut stats = artifact.stats();
    stats.groups = stats.groups.saturating_sub(novel);
    stats.groups_sampled = stats
        .groups_sampled
        .saturating_sub(live.republished as usize);
    stats.input_records = stats.input_records.saturating_sub(live.inserted);
    stats.output_records = live.base_rows as u64;
    let base = Publication::from_parts(
        base,
        artifact.sa(),
        artifact.p(),
        artifact.params(),
        artifact.seed(),
        stats,
        artifact.check(),
    );
    Ok((base, base_keys, Some(live)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publisher::Publisher;
    use rp_table::Attribute;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rp-stream-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn base_publication() -> Publication {
        let schema = Schema::new(vec![
            Attribute::new("Job", ["eng", "doc"]),
            Attribute::new("City", ["rome", "oslo"]),
            Attribute::new("Disease", ["flu", "none"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..200u32 {
            b.push_codes(&[i % 2, (i / 2) % 2, (i / 4) % 2]).unwrap();
        }
        Publisher::new(b.build()).sa(2).seed(11).publish().unwrap()
    }

    fn save_bytes(p: &Publication) -> Vec<u8> {
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        bytes
    }

    /// A deterministic pseudo-stream of records over the fixture schema.
    fn record(i: u32) -> Vec<u32> {
        vec![i % 2, (i / 3) % 2, (i * 7 / 5) % 2]
    }

    #[test]
    fn inserts_log_and_apply_and_snapshot_round_trips() {
        let wal = tmp("basic.rpwal");
        let mut s =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        for i in 0..300u32 {
            let outcome = s.insert_codes(&record(i)).unwrap();
            assert_eq!(outcome.key.len(), 2);
        }
        assert_eq!(s.inserted(), 300);
        assert_eq!(s.live_records(), 300);
        s.flush().unwrap();
        let snapshot = s.snapshot();
        assert_eq!(snapshot.table().rows(), 200 + 300);
        assert_eq!(snapshot.live().unwrap().inserted, 300);
        // The snapshot round-trips bytes.
        let bytes = save_bytes(&snapshot);
        let reloaded = Publication::load(&bytes[..]).unwrap();
        assert_eq!(save_bytes(&reloaded), bytes);
    }

    #[test]
    fn clean_start_replay_is_byte_identical_to_the_live_run() {
        let wal = tmp("replay.rpwal");
        let mut live =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        for i in 0..500u32 {
            live.insert_codes(&record(i)).unwrap();
        }
        live.flush().unwrap();
        let live_bytes = save_bytes(&live.snapshot());
        drop(live);
        let mut replayed =
            StreamPublisher::replay(base_publication(), &wal, StreamConfig::default()).unwrap();
        assert_eq!(save_bytes(&replayed.snapshot()), live_bytes);
        // Replay-only streams refuse writes.
        assert!(replayed.insert_codes(&record(0)).is_err());
        assert!(replayed.flush().is_err());
    }

    #[test]
    fn group_commit_changes_durability_timing_not_bytes() {
        let wal_sync = tmp("commit-sync.rpwal");
        let wal_batch = tmp("commit-batch.rpwal");
        let mut sync =
            StreamPublisher::open(base_publication(), &wal_sync, StreamConfig::default()).unwrap();
        let mut batched = StreamPublisher::open(
            base_publication(),
            &wal_batch,
            StreamConfig { commit_batch: 8 },
        )
        .unwrap();
        for i in 0..100u32 {
            sync.insert_codes(&record(i)).unwrap();
            sync.flush().unwrap();
            batched.insert_codes(&record(i)).unwrap();
        }
        // The durable cursor trails the applied cursor by the open tail
        // of the current batch...
        assert_eq!(sync.durable_seq(), sync.wal_seq());
        assert!(batched.durable_seq() < batched.wal_seq());
        assert!(batched.wal_seq() - batched.durable_seq() < 8 + 2);
        // ...until an explicit flush closes the gap.
        batched.flush().unwrap();
        assert_eq!(batched.durable_seq(), batched.wal_seq());
        // The commit policy never changes a written byte: logs and
        // snapshots agree exactly.
        assert_eq!(
            std::fs::read(&wal_sync).unwrap(),
            std::fs::read(&wal_batch).unwrap()
        );
        assert_eq!(
            save_bytes(&sync.snapshot()),
            save_bytes(&batched.snapshot())
        );
    }

    #[test]
    fn a_poisoned_wal_degrades_the_stream_to_read_only() {
        use crate::fault::FaultSchedule;
        let wal = tmp("poisoned.rpwal");
        // `Wal::create_with` consumes syncs 1–2 (header + parent dir),
        // so sync 3 is the first flush-time fsync.
        let faults: FaultHandle = std::sync::Arc::new(FaultSchedule::fsync_at(3));
        let mut s =
            StreamPublisher::open_with(base_publication(), &wal, StreamConfig::default(), faults)
                .unwrap();
        for i in 0..10u32 {
            s.insert_codes(&record(i)).unwrap();
        }
        let all = CountQuery::new(vec![], 2, 0).unwrap();
        let before = s.live_support_observed(&all);
        // The failing fsync poisons the stream: the acked-but-unsynced
        // inserts are reported lost via the frozen durable cursor...
        let err = s.flush().unwrap_err();
        assert!(
            matches!(err, StreamError::Degraded { durable_seq: 0, .. }),
            "{err}"
        );
        assert!(s.degraded().is_some());
        // ...every later mutation refuses...
        assert!(matches!(
            s.insert_codes(&record(0)),
            Err(StreamError::Degraded { .. })
        ));
        assert!(matches!(s.flush(), Err(StreamError::Degraded { .. })));
        assert_eq!(s.durable_seq(), 0);
        // ...but queries keep answering from the in-memory state.
        assert_eq!(s.live_support_observed(&all), before);
        drop(s);
        // Recovery is a fresh fault-free open: it replays exactly what
        // reached the disk (at least the durable prefix) and accepts
        // writes again.
        let mut recovered =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        assert!(recovered.degraded().is_none());
        assert!(recovered.wal_seq() >= recovered.durable_seq());
        recovered.insert_codes(&record(0)).unwrap();
        recovered.flush().unwrap();
    }

    #[test]
    fn compacted_wal_replays_byte_identically() {
        let wal = tmp("compact-replay.rpwal");
        let mut live =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        // Skewed traffic forces republications, which make compaction
        // actually absorb a prefix.
        for i in 0..2000u32 {
            live.insert_codes(&[0, 0, u32::from(i % 10 == 0)]).unwrap();
        }
        for i in 0..200u32 {
            live.insert_codes(&record(i)).unwrap();
        }
        live.flush().unwrap();
        assert!(live.republished() > 0, "fixture must republish");
        let live_bytes = save_bytes(&live.snapshot());
        drop(live);
        let full = wal::read_wal(&wal).unwrap();
        let stats = wal::compact_wal(&wal, &wal).unwrap();
        assert!(stats.absorbed > 0, "compaction must absorb something");
        assert!(stats.events_out < full.events.len());
        // Clean-start replay of the compacted log lands on the same
        // snapshot bytes as the live run over the full log.
        let replayed =
            StreamPublisher::replay(base_publication(), &wal, StreamConfig::default()).unwrap();
        assert_eq!(save_bytes(&replayed.snapshot()), live_bytes);
        // And the compacted log remains appendable: new inserts resume
        // the sequence past everything absorbed.
        let mut resumed =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        let before = resumed.wal_seq();
        resumed.insert_codes(&record(7)).unwrap();
        resumed.flush().unwrap();
        assert!(resumed.wal_seq() > before);
    }

    #[test]
    fn snapshot_inside_the_absorbed_range_is_refused() {
        let wal = tmp("compact-mid.rpwal");
        let mut live =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        for i in 0..500u32 {
            live.insert_codes(&[0, 0, u32::from(i % 10 == 0)]).unwrap();
        }
        live.flush().unwrap();
        let early = live.snapshot();
        let early_seq = live.wal_seq();
        for i in 0..1500u32 {
            live.insert_codes(&[0, 0, u32::from(i % 10 == 0)]).unwrap();
        }
        live.flush().unwrap();
        let late = live.snapshot();
        drop(live);
        let stats = wal::compact_wal(&wal, &wal).unwrap();
        assert!(
            stats.floor_seq > early_seq,
            "the early snapshot must fall inside the absorbed range"
        );
        // A snapshot whose cursor the compaction swallowed cannot replay
        // its tail: the stream says so instead of guessing.
        let err = StreamPublisher::open(early, &wal, StreamConfig::default()).unwrap_err();
        assert!(err.to_string().contains("compacted"), "{err}");
        // A snapshot at/past the floor resumes fine and matches.
        let resumed = StreamPublisher::open(late.clone(), &wal, StreamConfig::default()).unwrap();
        assert_eq!(save_bytes(&resumed.snapshot()), save_bytes(&late));
    }

    #[test]
    fn a_live_section_at_event_zero_listing_groups_is_refused() {
        // A live section that claims `wal_seq = 0` yet lists groups would
        // take the clean-start branch on a compacted log, which also
        // resumes the log's state records; it is refused on open, before
        // any key held by both could be resumed twice.
        let wal = tmp("resumed-twice.rpwal");
        let mut live =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        for i in 0..2000u32 {
            live.insert_codes(&[0, 0, u32::from(i % 10 == 0)]).unwrap();
        }
        live.flush().unwrap();
        let snapshot = live.snapshot();
        drop(live);
        assert!(wal::compact_wal(&wal, &wal).unwrap().absorbed > 0);
        let mut forged_live = snapshot.live().unwrap().clone();
        forged_live.wal_seq = 0;
        let forged = snapshot.clone().with_live(forged_live);
        let err = StreamPublisher::open(forged, &wal, StreamConfig::default()).unwrap_err();
        assert!(matches!(err, StreamError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("covers no event"), "{err}");
    }

    #[test]
    fn snapshot_plus_tail_restore_matches_the_uninterrupted_run() {
        let wal_a = tmp("uninterrupted.rpwal");
        let mut a =
            StreamPublisher::open(base_publication(), &wal_a, StreamConfig::default()).unwrap();
        for i in 0..400u32 {
            a.insert_codes(&record(i)).unwrap();
        }
        let reference = save_bytes(&a.snapshot());

        // Same stream, interrupted at 150 with a snapshot, then resumed
        // from (snapshot, same WAL) — the tail after the snapshot cursor
        // replays on open.
        let wal_b = tmp("interrupted.rpwal");
        let mut b =
            StreamPublisher::open(base_publication(), &wal_b, StreamConfig::default()).unwrap();
        for i in 0..150u32 {
            b.insert_codes(&record(i)).unwrap();
        }
        let mid = b.snapshot();
        for i in 150..220u32 {
            b.insert_codes(&record(i)).unwrap();
        }
        b.flush().unwrap();
        drop(b); // crash: events 150..220 exist only in the WAL
        let mut b2 = StreamPublisher::open(mid, &wal_b, StreamConfig::default()).unwrap();
        assert_eq!(b2.inserted(), 220, "tail replayed");
        for i in 220..400u32 {
            b2.insert_codes(&record(i)).unwrap();
        }
        assert_eq!(save_bytes(&b2.snapshot()), reference);
    }

    #[test]
    fn growth_past_sg_republishes_automatically_and_logs_it() {
        let wal = tmp("republish.rpwal");
        let mut s =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        // Hammer one skewed group until it crosses its threshold.
        let mut republished = 0u32;
        for i in 0..2000u32 {
            let outcome = s.insert_codes(&[0, 0, u32::from(i % 10 == 0)]).unwrap();
            if outcome.republished {
                republished += 1;
            }
        }
        assert!(republished >= 1, "the group must cross sg");
        assert_eq!(s.republished(), u64::from(republished));
        // The log records the republish events.
        s.flush().unwrap();
        let events = wal::read_wal(&wal).unwrap().events;
        let logged = events
            .iter()
            .filter(|e| matches!(e, WalEvent::Republish { .. }))
            .count();
        assert_eq!(logged, republished as usize);
        // And replay (which applies them literally) matches.
        let replayed =
            StreamPublisher::replay(base_publication(), &wal, StreamConfig::default()).unwrap();
        let live = s;
        assert_eq!(
            save_bytes(&replayed.snapshot()),
            save_bytes(&live.snapshot())
        );
    }

    #[test]
    fn insert_values_resolves_names_and_rejects_bad_records() {
        let wal = tmp("values.rpwal");
        let mut s =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        let outcome = s
            .insert_values(&[("Disease", "flu"), ("Job", "eng"), ("City", "oslo")])
            .unwrap();
        assert_eq!(outcome.key, vec![0, 1]);
        for (values, needle) in [
            (vec![("Job", "eng"), ("City", "oslo")], "missing column"),
            (
                vec![("Job", "eng"), ("Job", "doc"), ("Disease", "flu")],
                "more than once",
            ),
            (
                vec![("Job", "zzz"), ("City", "oslo"), ("Disease", "flu")],
                "zzz",
            ),
            (
                vec![("Nope", "eng"), ("City", "oslo"), ("Disease", "flu")],
                "Nope",
            ),
        ] {
            let err = s.insert_values(&values).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
        // Bad records never reach the log.
        s.flush().unwrap();
        assert_eq!(wal::read_wal(&wal).unwrap().events.len(), 1);
    }

    #[test]
    fn fresh_wal_after_snapshot_continues_the_sequence() {
        let wal1 = tmp("rotate-1.rpwal");
        let mut s =
            StreamPublisher::open(base_publication(), &wal1, StreamConfig::default()).unwrap();
        for i in 0..100u32 {
            s.insert_codes(&record(i)).unwrap();
        }
        let snapshot = s.snapshot();
        let covered = s.wal_seq();
        drop(s);
        // The old log is archived; a fresh one takes over at the cursor.
        let wal2 = tmp("rotate-2.rpwal");
        let mut s2 =
            StreamPublisher::open(snapshot.clone(), &wal2, StreamConfig::default()).unwrap();
        for i in 100..150u32 {
            s2.insert_codes(&record(i)).unwrap();
        }
        assert!(s2.wal_seq() > covered);
        let final_bytes = save_bytes(&s2.snapshot());
        drop(s2);
        // Snapshot + new log replays to the same bytes.
        let replayed = StreamPublisher::replay(snapshot, &wal2, StreamConfig::default()).unwrap();
        assert_eq!(save_bytes(&replayed.snapshot()), final_bytes);
    }

    #[test]
    fn stale_and_gapped_logs_are_rejected() {
        let wal = tmp("stale.rpwal");
        let mut s =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        for i in 0..50u32 {
            s.insert_codes(&record(i)).unwrap();
        }
        let early = s.snapshot();
        for i in 50..100u32 {
            s.insert_codes(&record(i)).unwrap();
        }
        let late = s.snapshot();
        drop(s);
        // A snapshot older than the log start (fresh log + stale
        // snapshot) is a gap.
        let fresh = tmp("fresh-after-late.rpwal");
        let mut s2 = StreamPublisher::open(late, &fresh, StreamConfig::default()).unwrap();
        s2.insert_codes(&record(0)).unwrap();
        drop(s2);
        let err = StreamPublisher::open(early, &fresh, StreamConfig::default()).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn empty_leftover_wal_is_rejected_as_stale() {
        // A header-only WAL from an earlier session (first_seq = 1, no
        // events) must not be accepted by a snapshot that already covers
        // events — appending would rewind the sequence numbering.
        let wal = tmp("empty-stale.rpwal");
        let mut s =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        for i in 0..30u32 {
            s.insert_codes(&record(i)).unwrap();
        }
        let snapshot = s.snapshot();
        drop(s);
        let leftover = tmp("empty-leftover.rpwal");
        let fresh =
            StreamPublisher::open(base_publication(), &leftover, StreamConfig::default()).unwrap();
        drop(fresh); // header written, zero events
        let err = StreamPublisher::open(snapshot, &leftover, StreamConfig::default()).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
    }

    #[test]
    fn group_counts_do_not_double_count_base_keys() {
        let wal = tmp("group-count.rpwal");
        let mut s =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        // The base fixture covers every (Job, City) combination, so an
        // insert into an existing key adds no new group...
        s.insert_codes(&[0, 0, 0]).unwrap();
        assert_eq!(s.live_groups(), 1);
        assert_eq!(s.novel_live_groups(), 0);
        let snapshot = s.snapshot();
        assert_eq!(
            snapshot.stats().groups,
            s.base().stats().groups,
            "a shared key is one group, not two"
        );
        // ...and the snapshot's grouped view agrees with the counter.
        let engine = crate::QueryEngine::new(&snapshot);
        assert_eq!(engine.groups(), snapshot.stats().groups);
    }

    #[test]
    fn live_view_and_key_matching_agree_with_count_queries() {
        let wal = tmp("view.rpwal");
        let mut s =
            StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
        for i in 0..200u32 {
            s.insert_codes(&record(i)).unwrap();
        }
        // Wildcard NA: everything matches.
        let all = CountQuery::new(vec![], 2, 0).unwrap();
        let (support, observed) = s.live_support_observed(&all);
        assert_eq!(support, 200);
        assert!(observed <= support);
        // A pinned condition partitions the support.
        let eng = CountQuery::new(vec![(0, 0)], 2, 0).unwrap();
        let doc = CountQuery::new(vec![(0, 1)], 2, 0).unwrap();
        let (se, _) = s.live_support_observed(&eng);
        let (sd, _) = s.live_support_observed(&doc);
        assert_eq!(se + sd, 200);
        assert!(s.key_matches(&[0, 1], &eng));
        assert!(!s.key_matches(&[1, 1], &eng));
    }
}
