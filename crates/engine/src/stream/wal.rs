//! The insert write-ahead log: a line-oriented, versioned record of every
//! mutation a [`crate::stream::StreamPublisher`] applied.
//!
//! Same codec discipline as the rest of the crate's formats
//! (`parse ∘ encode = id`, tab-separated, versioned magic): the header
//! records everything needed to re-derive the run — the stream seed, the
//! perturbation parameters `(p, λ, δ)`, the schema and the base-release
//! fingerprint — followed by one event per line:
//!
//! ```text
//! wal     := "rp-wal v1" NL
//!            "seed" TAB u64 NL  "p" TAB f64 NL
//!            "lambda" TAB f64 NL  "delta" TAB f64 NL
//!            "sa" TAB attr NL
//!            "attrs" TAB n NL  ("attr" TAB name (TAB value)* NL){n}
//!            "base" TAB rows NL
//!            "start" TAB first_seq NL
//!            compact?
//!            event*
//! event   := "i" TAB seq (TAB code){arity} NL      -- one inserted record
//!          | "r" TAB seq (TAB code){arity-1} NL    -- SPS re-publication of a group key
//! compact := "compact" TAB floor TAB inserts TAB republishes TAB n NL
//!            ("s" group NL){n}                     -- key-sorted group states
//! ```
//!
//! `group` is the field codec of [`GroupState`], shared with the `lgroup`
//! lines of a snapshot artifact.
//!
//! Sequence numbers are contiguous from the header's `first_seq` (1 for
//! a stream's first log; a log started fresh after a snapshot records
//! where it takes over), so a snapshot can record "the last event I
//! cover" and restore replays exactly the tail. A torn final line (crash
//! mid-append) is detected by its missing newline and truncated away on
//! open — the WAL never replays a half-written event.
//!
//! ## The compaction rule
//!
//! An SPS re-publication (`r`) re-derives a group's published histogram
//! from its raw histogram, so a group's state after its *last* `r` event
//! is a pure function of its own event subsequence up to that point —
//! per-group RNG streams make it independent of how other groups
//! interleaved. [`compact_wal`] exploits this: for every group with at
//! least one `r` event it absorbs all of that group's events up to and
//! including its last `r` into a single `s` state record (key-sorted),
//! and retains everything else untouched. The `compact` line records the
//! absorption floor (the highest absorbed sequence number) and the
//! absorbed insert/republish counts so replay reconstructs the stream
//! counters exactly. Below the floor, retained sequence numbers are
//! merely strictly increasing (absorbed events leave gaps); above it
//! they are contiguous as usual. Replaying a compacted log is
//! byte-identical to replaying the original (the determinism suite
//! proves it); a snapshot whose cursor lies strictly *between* zero and
//! the floor cannot resume on a compacted log and is refused loudly.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use rp_core::privacy::PrivacyParams;
use rp_table::{AttrId, Schema};

use crate::codec::{parse_codes, read_params, read_schema, write_params, write_schema, Lines};
use crate::fault::{self, CheckedFile, FaultHandle};
use crate::fsutil;
use crate::publication::{GroupState, PublicationError};
use crate::stream::{LiveGroups, StreamError};

/// Magic line opening every WAL file.
pub const WAL_MAGIC: &str = "rp-wal v1";

/// The WAL header: the full initial condition of a stream, recorded up
/// front so a clean-start replay needs nothing but the base artifact the
/// header fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct WalHeader {
    /// The stream seed every per-group RNG derives from.
    pub seed: u64,
    /// Retention probability of the perturbation.
    pub p: f64,
    /// The enforced `(λ, δ)` requirement.
    pub params: PrivacyParams,
    /// The sensitive attribute index.
    pub sa: usize,
    /// The published schema (shared by base and live records).
    pub schema: Schema,
    /// Rows of the immutable base release the stream grows on.
    pub base_rows: usize,
    /// Sequence number of the first event this log may contain: 1 for a
    /// stream's first log, `snapshot.wal_seq + 1` for a log started
    /// fresh after a snapshot (the archived predecessor holds the rest).
    pub first_seq: u64,
}

impl WalHeader {
    /// Whether two headers describe the same stream (everything but
    /// `first_seq`, which legitimately differs across log rotations).
    pub fn same_stream(&self, other: &WalHeader) -> bool {
        self.seed == other.seed
            && self.p == other.p
            && self.params == other.params
            && self.sa == other.sa
            && self.schema == other.schema
            && self.base_rows == other.base_rows
    }

    fn write<W: Write>(&self, mut w: W) -> Result<(), PublicationError> {
        writeln!(w, "{WAL_MAGIC}")?;
        writeln!(w, "seed\t{}", self.seed)?;
        write_params(&mut w, self.p, self.params)?;
        writeln!(w, "sa\t{}", self.sa)?;
        write_schema(&mut w, &self.schema)?;
        writeln!(w, "base\t{}", self.base_rows)?;
        writeln!(w, "start\t{}", self.first_seq)?;
        Ok(())
    }

    fn read<R: BufRead>(lines: &mut Lines<R>) -> Result<Self, PublicationError> {
        let magic_err = {
            let magic = lines.next_line()?;
            (magic != WAL_MAGIC).then(|| format!("expected magic `{WAL_MAGIC}`, got `{magic}`"))
        };
        if let Some(message) = magic_err {
            return Err(PublicationError::Format { line: 1, message });
        }
        let seed: u64 = lines.field("seed")?.parse_one()?;
        let (p, params) = read_params(lines)?;
        let sa: usize = lines.field("sa")?.parse_one()?;
        let attributes = read_schema(lines)?;
        if sa >= attributes.len() {
            return Err(lines.err(format!(
                "sa index {sa} out of range for arity {}",
                attributes.len()
            )));
        }
        let base_rows: usize = lines.field("base")?.parse_one()?;
        let first_seq: u64 = lines.field("start")?.parse_one()?;
        if first_seq == 0 {
            return Err(lines.err("first_seq must be at least 1".into()));
        }
        Ok(Self {
            seed,
            p,
            params,
            sa,
            schema: Schema::new(attributes),
            base_rows,
            first_seq,
        })
    }
}

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEvent {
    /// One record inserted: full dictionary codes in schema order.
    Insert {
        /// Contiguous 1-based sequence number.
        seq: u64,
        /// The record's codes (arity values, SA at its schema position).
        codes: Vec<u32>,
    },
    /// One group re-published through SPS.
    Republish {
        /// Contiguous 1-based sequence number.
        seq: u64,
        /// The group key (public-attribute codes, schema order).
        key: Vec<u32>,
    },
}

impl WalEvent {
    /// The event's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalEvent::Insert { seq, .. } | WalEvent::Republish { seq, .. } => *seq,
        }
    }

    /// The personal group the event touches: an insert's codes with the
    /// SA position `sa` removed, or a re-publication's key.
    pub(crate) fn group_key(&self, sa: AttrId) -> Vec<u32> {
        match self {
            WalEvent::Insert { codes, .. } => codes
                .iter()
                .enumerate()
                .filter(|&(a, _)| a != sa)
                .map(|(_, &c)| c)
                .collect(),
            WalEvent::Republish { key, .. } => key.clone(),
        }
    }

    /// Encodes the canonical line for this event (no trailing newline).
    pub fn encode(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let (tag, seq, codes) = match self {
            WalEvent::Insert { seq, codes } => ('i', seq, codes),
            WalEvent::Republish { seq, key } => ('r', seq, key),
        };
        write!(out, "{tag}\t{seq}").expect("writing to a String cannot fail");
        for &c in codes {
            write!(out, "\t{c}").expect("writing to a String cannot fail");
        }
        out
    }

    /// Parses one event line, validating the code count and domains
    /// against the header's schema.
    ///
    /// # Errors
    ///
    /// Returns a [`StreamError::Format`] on anything that is not a
    /// canonical event line for this schema.
    pub fn parse(line: &str, line_no: usize, header: &WalHeader) -> Result<Self, StreamError> {
        let bad = |message: String| StreamError::Format {
            line: line_no,
            message,
        };
        let mut parts = line.split('\t');
        let tag = parts.next().unwrap_or("");
        let seq: u64 = parts
            .next()
            .ok_or_else(|| bad("event needs a sequence number".into()))?
            .parse()
            .map_err(|e| bad(format!("bad sequence number: {e}")))?;
        let mut codes = Vec::new();
        parse_codes(parts, &mut codes).map_err(bad)?;
        let arity = header.schema.arity();
        let (want, attrs): (usize, Vec<usize>) = match tag {
            "i" => (arity, (0..arity).collect()),
            "r" => (arity - 1, (0..arity).filter(|&a| a != header.sa).collect()),
            other => return Err(bad(format!("unknown event tag `{other}`"))),
        };
        if codes.len() != want {
            return Err(bad(format!(
                "`{tag}` event needs {want} codes, got {}",
                codes.len()
            )));
        }
        for (&code, &attr) in codes.iter().zip(&attrs) {
            let domain = header.schema.attribute(attr).domain_size();
            if code as usize >= domain {
                return Err(bad(format!(
                    "code {code} out of range for attribute `{}` (domain {domain})",
                    header.schema.attribute(attr).name()
                )));
            }
        }
        Ok(match tag {
            "i" => WalEvent::Insert { seq, codes },
            _ => WalEvent::Republish { seq, key: codes },
        })
    }
}

/// The compaction section of a WAL: per-group state absorbing every
/// event at or below `floor_seq` that a later re-publication superseded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalCompaction {
    /// Highest absorbed sequence number. Retained events at or below it
    /// are strictly increasing (absorption leaves gaps); above it the
    /// sequence is contiguous as in an uncompacted log.
    pub floor_seq: u64,
    /// Insert events absorbed into the state records.
    pub absorbed_inserts: u64,
    /// Re-publication events absorbed into the state records.
    pub absorbed_republishes: u64,
    /// Absorbed group states, strictly sorted by key.
    pub groups: Vec<GroupState>,
}

impl WalCompaction {
    /// Writes the section: the `compact` line, then one `s` record per
    /// group.
    fn write<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "compact\t{}\t{}\t{}\t{}",
            self.floor_seq,
            self.absorbed_inserts,
            self.absorbed_republishes,
            self.groups.len()
        )?;
        for g in &self.groups {
            writeln!(w, "s{}", g.encode())?;
        }
        Ok(())
    }
}

/// Everything read from one WAL file: the header, the optional
/// compaction section, every complete event, and the byte offset of the
/// end of the last complete line (a torn final line — crash mid-append —
/// is excluded so appending resumes cleanly).
#[derive(Debug)]
pub struct WalFile {
    /// The validated header.
    pub header: WalHeader,
    /// The compaction section, if the log was compacted.
    pub compaction: Option<WalCompaction>,
    /// Every complete event, sequence-validated.
    pub events: Vec<WalEvent>,
    /// Byte offset just past the last complete line.
    pub end_offset: u64,
}

/// Reads a WAL file: header, optional compaction section, then every
/// *complete* event line.
///
/// Sequence numbers are checked — contiguous from the header's
/// `first_seq`, or (in a compacted log) strictly increasing up to the
/// compaction floor and contiguous past it — so a gap or duplicate
/// (manual tampering, interleaved writers) fails loudly instead of
/// replaying a corrupted history. A torn *event* tail is truncated away
/// silently (the event was never durable); a torn compaction section is
/// a loud error, because compacted logs are written atomically and a
/// partial section can only mean external corruption.
pub fn read_wal(path: &Path) -> Result<WalFile, StreamError> {
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    let header = {
        let mut lines = Lines::new(&mut reader);
        WalHeader::read(&mut lines)?
    };
    // Track the offset of the last complete line so a torn tail can be
    // truncated before appending resumes.
    let mut offset = reader.stream_position()?;
    let mut compaction: Option<WalCompaction> = None;
    let mut events = Vec::new();
    let mut line = String::new();
    // Lines consumed by the header: magic + 5 fields + attrs + one line
    // per attribute + base + start.
    let mut line_no = 9 + header.schema.arity();
    let mut first_line = true;
    let mut last_seq = header.first_seq - 1;
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            break;
        }
        line_no += 1;
        let torn = !line.ends_with('\n');
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if first_line && trimmed.starts_with("compact\t") {
            first_line = false;
            if torn {
                return Err(StreamError::Format {
                    line: line_no,
                    message: "truncated compaction header".into(),
                });
            }
            offset += n as u64;
            let (section, lines_read, bytes_read) =
                read_compact_section(trimmed, &mut reader, line_no, &header)?;
            line_no += lines_read;
            offset += bytes_read;
            compaction = Some(section);
            continue;
        }
        first_line = false;
        if torn {
            // Torn final line: the append was cut mid-write. Ignore it —
            // the event was never acknowledged as durable.
            break;
        }
        if trimmed.is_empty() {
            return Err(StreamError::Format {
                line: line_no,
                message: "blank line inside the event log".into(),
            });
        }
        let event = WalEvent::parse(trimmed, line_no, &header)?;
        let floor = compaction.as_ref().map_or(0, |c| c.floor_seq);
        if event.seq() <= floor {
            // Below the compaction floor absorption leaves gaps, but the
            // retained order must still be strictly increasing.
            if event.seq() <= last_seq {
                return Err(StreamError::Format {
                    line: line_no,
                    message: format!(
                        "event sequence {} out of order (expected past {last_seq})",
                        event.seq()
                    ),
                });
            }
        } else {
            let expected = last_seq.max(floor) + 1;
            if event.seq() != expected {
                return Err(StreamError::Format {
                    line: line_no,
                    message: format!("event sequence {} (expected {expected})", event.seq()),
                });
            }
        }
        last_seq = event.seq();
        events.push(event);
        offset += n as u64;
    }
    Ok(WalFile {
        header,
        compaction,
        events,
        end_offset: offset,
    })
}

/// Parses the `compact` line plus its counted `s` records. Returns the
/// section and the lines/bytes it consumed past the `compact` line.
fn read_compact_section<R: BufRead>(
    compact_line: &str,
    reader: &mut R,
    compact_line_no: usize,
    header: &WalHeader,
) -> Result<(WalCompaction, usize, u64), StreamError> {
    let bad = |line: usize, message: String| StreamError::Format { line, message };
    let fields: Vec<&str> = compact_line.split('\t').skip(1).collect();
    if fields.len() != 4 {
        return Err(bad(
            compact_line_no,
            format!("`compact` line needs 4 fields, got {}", fields.len()),
        ));
    }
    let parse_u64 = |raw: &str, what: &str| -> Result<u64, StreamError> {
        raw.parse()
            .map_err(|e| bad(compact_line_no, format!("bad {what} `{raw}`: {e}")))
    };
    let floor_seq = parse_u64(fields[0], "compaction floor")?;
    let absorbed_inserts = parse_u64(fields[1], "absorbed insert count")?;
    let absorbed_republishes = parse_u64(fields[2], "absorbed republish count")?;
    let n_groups = parse_u64(fields[3], "group count")? as usize;
    if floor_seq < header.first_seq {
        return Err(bad(
            compact_line_no,
            format!(
                "compaction floor {floor_seq} precedes the log start {}",
                header.first_seq
            ),
        ));
    }
    // The count is untrusted: cap the pre-allocation (a real count past
    // the cap still loads, slower).
    let mut groups = Vec::with_capacity(n_groups.min(1 << 10));
    let mut line = String::new();
    let mut bytes = 0u64;
    for i in 0..n_groups {
        let line_no = compact_line_no + i + 1;
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 || !line.ends_with('\n') {
            return Err(bad(
                line_no,
                format!("truncated compaction section ({i} of {n_groups} state records)"),
            ));
        }
        let mut fields = line.trim_end_matches(['\n', '\r']).split('\t');
        if fields.next() != Some("s") {
            return Err(bad(line_no, "expected an `s` state record".into()));
        }
        let fields: Vec<&str> = fields.collect();
        let after = groups.last().map(|g: &GroupState| g.group.key.as_slice());
        let g = GroupState::parse(&fields, &header.schema, header.sa, after)
            .map_err(|message| bad(line_no, message))?;
        groups.push(g);
        bytes += n as u64;
    }
    Ok((
        WalCompaction {
            floor_seq,
            absorbed_inserts,
            absorbed_republishes,
            groups,
        },
        n_groups,
        bytes,
    ))
}

/// An open WAL accepting appends. Create with [`Wal::create`] (new file,
/// header written) or [`Wal::open_append_with`] (existing file validated,
/// torn tail truncated, positioned at the end).
#[derive(Debug)]
pub struct Wal {
    writer: BufWriter<CheckedFile>,
    next_seq: u64,
    path: PathBuf,
    /// Whether the directory entry is known durable. [`Wal::create`]
    /// syncs the parent directory up front; a log opened for append
    /// syncs it on the first [`Wal::sync`] instead.
    dir_synced: bool,
}

impl Wal {
    /// Creates a fresh WAL at `path`, writing the header **durably**:
    /// the header bytes are fsynced and so is the parent directory, so a
    /// crash right after a stream reports itself live can leave neither
    /// a torn header nor a missing directory entry. Refuses to overwrite
    /// an existing file — an existing log must be opened with
    /// [`Wal::open_append_with`] so its history is validated, not
    /// clobbered.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, an already-existing file, or a
    /// schema not representable in the line format.
    pub fn create(path: &Path, header: &WalHeader) -> Result<Self, StreamError> {
        Self::create_with(path, header, fault::passthrough())
    }

    /// [`Wal::create`] behind an injectable fault policy: every header
    /// write, the header fsync and the directory fsync consult `faults`
    /// before touching the disk (production passes the passthrough).
    ///
    /// # Errors
    ///
    /// As [`Wal::create`], plus whatever `faults` injects.
    pub fn create_with(
        path: &Path,
        header: &WalHeader,
        faults: FaultHandle,
    ) -> Result<Self, StreamError> {
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        let mut writer = BufWriter::new(CheckedFile::new(file, faults));
        header.write(&mut writer)?;
        writer.flush()?;
        writer.get_ref().sync_all()?;
        fsutil::sync_parent_dir_with(path, writer.get_ref().faults())?;
        Ok(Self {
            writer,
            next_seq: header.first_seq,
            path: path.to_path_buf(),
            dir_synced: true,
        })
    }

    /// Opens an existing WAL for appending: validates the header against
    /// `expected` — including that the log's sequence coverage dovetails
    /// with `expected.first_seq` (the caller's first uncovered event) —
    /// reads every complete event, truncates a torn final line, and
    /// positions writes at the end. Returns the log handle and the
    /// parsed file (compaction section + events, for replay). The opened
    /// log's future writes and syncs consult `faults` before touching the
    /// disk (the validating read is never faulted — reads are outside the
    /// injection surface).
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, malformed content, a header that
    /// does not match the expected stream parameters, a log that starts
    /// after the expected sequence (events are missing), or a stale log
    /// whose next append would rewind the sequence.
    pub fn open_append_with(
        path: &Path,
        expected: &WalHeader,
        faults: FaultHandle,
    ) -> Result<(Self, WalFile), StreamError> {
        let wal_file = read_wal(path)?;
        if !wal_file.header.same_stream(expected) {
            return Err(StreamError::Mismatch(format!(
                "WAL header at {} does not match the stream's artifact \
                 (seed/parameters/schema/base differ)",
                path.display()
            )));
        }
        // The snapshot covers events 1..expected.first_seq; the log must
        // pick up no later than that (no gap) and its next append — past
        // the last event, the compaction floor, or the header's
        // first_seq for a log that is still empty — must not rewind
        // behind the snapshot (stale log).
        if wal_file.header.first_seq > expected.first_seq {
            return Err(StreamError::Mismatch(format!(
                "WAL at {} starts at event {} but the snapshot covers only {} — \
                 events are missing (archived log newer than the snapshot?)",
                path.display(),
                wal_file.header.first_seq,
                expected.first_seq - 1
            )));
        }
        let log_next = Self::next_after(&wal_file);
        if log_next < expected.first_seq {
            return Err(StreamError::Mismatch(format!(
                "WAL at {} ends at event {} but the snapshot covers {} — stale log \
                 (appending would rewind the sequence)",
                path.display(),
                log_next - 1,
                expected.first_seq - 1
            )));
        }
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(wal_file.end_offset)?; // drop a torn tail, if any
        file.seek(SeekFrom::End(0))?;
        let writer = BufWriter::new(CheckedFile::new(file, faults));
        Ok((
            Self {
                writer,
                next_seq: log_next,
                path: path.to_path_buf(),
                dir_synced: false,
            },
            wal_file,
        ))
    }

    /// The sequence number following everything a parsed log covers: its
    /// last event, or the compaction floor, or (empty log) the header's
    /// start.
    fn next_after(wal_file: &WalFile) -> u64 {
        let floor = wal_file.compaction.as_ref().map_or(0, |c| c.floor_seq);
        wal_file
            .events
            .last()
            .map_or(0, WalEvent::seq)
            .max(floor)
            .max(wal_file.header.first_seq - 1)
            + 1
    }

    /// The sequence number the next appended event must carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one event (buffered; call [`Wal::sync`] for durability).
    ///
    /// # Panics
    ///
    /// Panics if the event's sequence number is not the next in line —
    /// the caller constructs events from [`Wal::next_seq`], so a gap is
    /// a logic error, never data.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O failure.
    pub fn append(&mut self, event: &WalEvent) -> std::io::Result<()> {
        assert_eq!(
            event.seq(),
            self.next_seq,
            "WAL events must be appended in sequence"
        );
        let obs = crate::obs::global();
        let t0 = obs.sampled_start(&obs.histograms.wal_append);
        writeln!(self.writer, "{}", event.encode())?;
        if let Some(t0) = t0 {
            obs.record(&obs.histograms.wal_append, obs.now_ns().saturating_sub(t0));
        }
        self.next_seq += 1;
        Ok(())
    }

    /// Flushes buffered events and syncs file data to stable storage —
    /// the durability point `flush` requests commit to. The first sync
    /// of a log opened for append also syncs the parent directory, in
    /// case the creating process never reached its own directory sync.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O failure.
    pub fn sync(&mut self) -> std::io::Result<()> {
        // Always-on: fsync dominates its own measurement cost, and the
        // sync-latency distribution is the whole point of group commit.
        let obs = crate::obs::global();
        let _span = obs.span(&obs.histograms.wal_sync);
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        if !self.dir_synced {
            fsutil::sync_parent_dir_with(&self.path, self.writer.get_ref().faults())?;
            self.dir_synced = true;
        }
        Ok(())
    }
}

/// What [`compact_wal`] did, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Events in the input log (after its own compaction section).
    pub events_in: usize,
    /// Events retained in the output log.
    pub events_out: usize,
    /// Events newly absorbed into state records by this pass.
    pub absorbed: u64,
    /// State records in the output's compaction section.
    pub groups: usize,
    /// The output's absorption floor (0 when nothing was absorbable).
    pub floor_seq: u64,
}

/// Compacts a WAL: every event of a group that a later `r` event of the
/// same group supersedes is absorbed into one `s` state record, computed
/// by applying exactly that group's event subsequence through the
/// stream's own `LiveGroups` (valid because a group's state is a pure
/// function of its own events under per-group RNG streams). Retained
/// events keep their sequence numbers; replaying the compacted log is
/// byte-identical to replaying the original. The output is written
/// atomically and durably, so `output` may equal `input` for in-place
/// rotation. An already-compacted input composes: its state records seed
/// the absorption.
///
/// # Errors
///
/// Returns an error on I/O failure, a malformed input log, or a
/// republish event referencing a group with no prior state.
pub fn compact_wal(input: &Path, output: &Path) -> Result<CompactionStats, StreamError> {
    let mut wal_file = read_wal(input)?;
    let mut absorbed = LiveGroups::new(&wal_file.header);
    if let Some(prior) = wal_file.compaction.take() {
        absorbed.resume(
            prior.floor_seq,
            prior.absorbed_inserts,
            prior.absorbed_republishes,
            prior.groups,
        )?;
    }
    let header = &wal_file.header;
    // Per group, the sequence number of its last re-publication: every
    // event of the group at or before it is absorbable.
    let mut last_republish: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
    for event in &wal_file.events {
        if let WalEvent::Republish { seq, key } = event {
            last_republish.insert(key.clone(), *seq);
        }
    }
    let mut retained = Vec::new();
    for event in &wal_file.events {
        let key = event.group_key(header.sa);
        if last_republish.get(&key).is_some_and(|&q| event.seq() <= q) {
            // An absorbed insert's status is deliberately dropped: whether
            // the group needed re-sampling at this point is recorded by
            // the *next* `r` event in the log, not re-decided here.
            absorbed.apply(event)?;
        } else {
            retained.push(event);
        }
    }
    let compaction = WalCompaction {
        floor_seq: absorbed.seq,
        absorbed_inserts: absorbed.inserted,
        absorbed_republishes: absorbed.republished,
        groups: absorbed.states(),
    };
    let stats = CompactionStats {
        events_in: wal_file.events.len(),
        events_out: retained.len(),
        absorbed: (wal_file.events.len() - retained.len()) as u64,
        groups: compaction.groups.len(),
        floor_seq: compaction.floor_seq,
    };
    fsutil::write_atomic::<StreamError>(output, |w| {
        header.write(&mut *w).map_err(StreamError::from)?;
        if !compaction.groups.is_empty() {
            compaction.write(&mut *w)?;
        }
        for event in &retained {
            writeln!(w, "{}", event.encode())?;
        }
        Ok(())
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publication::{DesignCheck, LiveState, Publication};
    use rp_core::incremental::{GroupStatus, LiveGroup};
    use rp_core::sps::SpsStats;
    use rp_table::{Attribute, GroupHistograms};

    fn header() -> WalHeader {
        WalHeader {
            seed: 7,
            p: 0.5,
            params: PrivacyParams::new(0.3, 0.3),
            sa: 1,
            schema: Schema::new(vec![
                Attribute::new("Job", ["eng", "doc"]),
                Attribute::new("Disease", ["flu", "none"]),
            ]),
            base_rows: 40,
            first_seq: 1,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rp-wal-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn events_round_trip_through_the_line_codec() {
        let h = header();
        for event in [
            WalEvent::Insert {
                seq: 1,
                codes: vec![0, 1],
            },
            WalEvent::Republish {
                seq: 2,
                key: vec![1],
            },
        ] {
            let line = event.encode();
            let parsed = WalEvent::parse(&line, 1, &h).unwrap();
            assert_eq!(parsed, event, "line `{line}`");
        }
    }

    #[test]
    fn parse_rejects_malformed_events() {
        let h = header();
        for (line, needle) in [
            ("x\t1\t0\t0", "unknown event tag"),
            ("i\t1\t0", "needs 2 codes"),
            ("i\tone\t0\t0", "bad sequence"),
            ("i\t1\t0\t9", "out of range"),
            ("r\t1\t0\t0", "needs 1 codes"),
            ("i", "sequence number"),
        ] {
            let err = WalEvent::parse(line, 3, &h).unwrap_err();
            assert!(err.to_string().contains(needle), "`{line}` -> {err}");
        }
    }

    #[test]
    fn create_append_read_round_trips() {
        let path = tmp("roundtrip.rpwal");
        let _ = std::fs::remove_file(&path);
        let h = header();
        let mut wal = Wal::create(&path, &h).unwrap();
        let events = vec![
            WalEvent::Insert {
                seq: 1,
                codes: vec![0, 1],
            },
            WalEvent::Insert {
                seq: 2,
                codes: vec![1, 0],
            },
            WalEvent::Republish {
                seq: 3,
                key: vec![0],
            },
        ];
        for e in &events {
            wal.append(e).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let file = read_wal(&path).unwrap();
        assert_eq!(file.header, h);
        assert_eq!(file.events, events);
        assert!(file.compaction.is_none());
        // Reopen for append and continue the sequence.
        let (mut wal, replayed) = Wal::open_append_with(&path, &h, fault::passthrough()).unwrap();
        assert_eq!(replayed.events, events);
        assert_eq!(wal.next_seq(), 4);
        wal.append(&WalEvent::Insert {
            seq: 4,
            codes: vec![0, 0],
        })
        .unwrap();
        wal.sync().unwrap();
        assert_eq!(read_wal(&path).unwrap().events.len(), 4);
    }

    #[test]
    fn torn_tail_is_ignored_and_truncated_on_reopen() {
        let path = tmp("torn.rpwal");
        let _ = std::fs::remove_file(&path);
        let h = header();
        let mut wal = Wal::create(&path, &h).unwrap();
        wal.append(&WalEvent::Insert {
            seq: 1,
            codes: vec![0, 1],
        })
        .unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Simulate a crash mid-append: half an event, no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "i\t2\t1").unwrap();
        }
        let events = read_wal(&path).unwrap().events;
        assert_eq!(events.len(), 1, "torn line must not replay");
        let (mut wal, replayed) = Wal::open_append_with(&path, &h, fault::passthrough()).unwrap();
        assert_eq!(replayed.events.len(), 1);
        assert_eq!(wal.next_seq(), 2);
        wal.append(&WalEvent::Insert {
            seq: 2,
            codes: vec![1, 1],
        })
        .unwrap();
        wal.sync().unwrap();
        let events = read_wal(&path).unwrap().events;
        assert_eq!(events.len(), 2, "the torn bytes were truncated away");
    }

    #[test]
    fn sequence_gaps_and_header_mismatches_are_rejected() {
        let path = tmp("gaps.rpwal");
        let _ = std::fs::remove_file(&path);
        let h = header();
        let mut wal = Wal::create(&path, &h).unwrap();
        wal.append(&WalEvent::Insert {
            seq: 1,
            codes: vec![0, 1],
        })
        .unwrap();
        wal.sync().unwrap();
        drop(wal);
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "i\t3\t0\t0").unwrap(); // gap: 2 is missing
        }
        let err = read_wal(&path).unwrap_err();
        assert!(err.to_string().contains("sequence"), "{err}");

        let other = WalHeader {
            seed: 8,
            ..header()
        };
        let path2 = tmp("mismatch.rpwal");
        let _ = std::fs::remove_file(&path2);
        Wal::create(&path2, &h).unwrap();
        let err = Wal::open_append_with(&path2, &other, fault::passthrough()).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let path = tmp("exists.rpwal");
        let _ = std::fs::remove_file(&path);
        let h = header();
        Wal::create(&path, &h).unwrap();
        assert!(Wal::create(&path, &h).is_err());
    }

    /// A log where group `[0]` re-publishes at seq 3 and group `[1]`
    /// never does: events 1..3 are absorbable, 4..5 are not. Its `δ` of
    /// 0.99 puts `sg` below 2, so the inserts at seq 1 and 2 flag group
    /// `[0]` and the re-publication is one replay accepts.
    fn compactable_log(name: &str) -> (std::path::PathBuf, WalHeader) {
        let path = tmp(name);
        let _ = std::fs::remove_file(&path);
        let h = WalHeader {
            params: PrivacyParams::new(0.3, 0.99),
            ..header()
        };
        let mut wal = Wal::create(&path, &h).unwrap();
        for event in [
            WalEvent::Insert {
                seq: 1,
                codes: vec![0, 0],
            },
            WalEvent::Insert {
                seq: 2,
                codes: vec![0, 1],
            },
            WalEvent::Republish {
                seq: 3,
                key: vec![0],
            },
            WalEvent::Insert {
                seq: 4,
                codes: vec![1, 0],
            },
            WalEvent::Insert {
                seq: 5,
                codes: vec![0, 1],
            },
        ] {
            wal.append(&event).unwrap();
        }
        wal.sync().unwrap();
        (path, h)
    }

    #[test]
    fn compaction_absorbs_superseded_events() {
        let (path, h) = compactable_log("compact-src.rpwal");
        let out = tmp("compact-out.rpwal");
        let stats = compact_wal(&path, &out).unwrap();
        assert_eq!(stats.events_in, 5);
        assert_eq!(stats.events_out, 2, "events 4 and 5 are retained");
        assert_eq!(stats.absorbed, 3);
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.floor_seq, 3);
        let file = read_wal(&out).unwrap();
        let c = file.compaction.expect("compaction section");
        assert_eq!(c.floor_seq, 3);
        assert_eq!(c.absorbed_inserts, 2);
        assert_eq!(c.absorbed_republishes, 1);
        assert_eq!(c.groups.len(), 1);
        assert_eq!(c.groups[0].group.key, vec![0]);
        assert_eq!(c.groups[0].group.raw_hist.iter().sum::<u64>(), 2);
        assert_eq!(
            file.events.iter().map(WalEvent::seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        // Appending resumes past everything the log covers.
        let (wal, _) = Wal::open_append_with(&out, &h, fault::passthrough()).unwrap();
        assert_eq!(wal.next_seq(), 6);
    }

    #[test]
    fn compacting_twice_is_idempotent() {
        let (path, _) = compactable_log("compact-twice.rpwal");
        let once = tmp("compact-once.rpwal");
        let twice = tmp("compact-twice-out.rpwal");
        compact_wal(&path, &once).unwrap();
        let stats = compact_wal(&once, &twice).unwrap();
        assert_eq!(stats.absorbed, 0, "nothing new to absorb");
        assert_eq!(
            std::fs::read(&once).unwrap(),
            std::fs::read(&twice).unwrap(),
            "a second pass is byte-identical"
        );
    }

    #[test]
    fn in_place_compaction_is_supported() {
        let (path, h) = compactable_log("compact-inplace.rpwal");
        compact_wal(&path, &path).unwrap();
        let file = read_wal(&path).unwrap();
        assert!(file.compaction.is_some());
        assert_eq!(file.events.len(), 2);
        let (wal, _) = Wal::open_append_with(&path, &h, fault::passthrough()).unwrap();
        assert_eq!(wal.next_seq(), 6);
    }

    #[test]
    fn torn_compaction_section_errors_loudly() {
        let (path, _) = compactable_log("compact-torn-src.rpwal");
        let out = tmp("compact-torn.rpwal");
        compact_wal(&path, &out).unwrap();
        let bytes = std::fs::read(&out).unwrap();
        // Cut inside the `s` record (the line after `compact`).
        let compact_at = bytes
            .windows(8)
            .position(|w| w == b"compact\t")
            .expect("compact line");
        let s_end = compact_at
            + bytes[compact_at..]
                .iter()
                .position(|&b| b == b'\n')
                .unwrap()
            + 4;
        std::fs::write(&out, &bytes[..s_end]).unwrap();
        let err = read_wal(&out).unwrap_err();
        assert!(err.to_string().contains("truncated compaction"), "{err}");
    }

    #[test]
    fn sequence_rules_below_and_above_the_floor() {
        let h = header();
        let (src, _) = compactable_log("compact-seq-src.rpwal");
        let out = tmp("compact-seq.rpwal");
        compact_wal(&src, &out).unwrap();
        let bytes = std::fs::read(&out).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let (head, _events) = text.split_at(text.find("i\t4").unwrap());
        // Retained events below the floor may leave gaps but must stay
        // strictly increasing...
        let ok = tmp("below-floor-ok.rpwal");
        std::fs::write(&ok, format!("{head}i\t2\t1\t0\ni\t4\t1\t0\ni\t5\t0\t1\n")).unwrap();
        let file = read_wal(&ok).unwrap();
        assert_eq!(
            file.events.iter().map(WalEvent::seq).collect::<Vec<_>>(),
            vec![2, 4, 5]
        );
        // ...an out-of-order pair below the floor is rejected...
        let bad = tmp("below-floor-bad.rpwal");
        std::fs::write(&bad, format!("{head}i\t2\t1\t0\ni\t1\t1\t0\n")).unwrap();
        let err = read_wal(&bad).unwrap_err();
        assert!(err.to_string().contains("sequence"), "{err}");
        // ...and above the floor the sequence must be contiguous.
        let gap = tmp("above-floor-gap.rpwal");
        std::fs::write(&gap, format!("{head}i\t5\t1\t0\n")).unwrap();
        let err = read_wal(&gap).unwrap_err();
        assert!(err.to_string().contains("sequence"), "{err}");
        let _ = h;
    }

    // -- the group-state codec, shared with the snapshot artifact ---------

    /// SA in the middle of the schema, so a key skips a position.
    fn codec_header() -> WalHeader {
        WalHeader {
            seed: 3,
            p: 0.5,
            params: PrivacyParams::new(0.3, 0.3),
            sa: 1,
            schema: Schema::new(vec![
                Attribute::new("Job", ["eng", "doc", "law"]),
                Attribute::new("Disease", ["flu", "hiv", "none"]),
                Attribute::new("City", ["rome", "oslo"]),
            ]),
            base_rows: 0,
            first_seq: 1,
        }
    }

    /// Random key-sorted group states over [`codec_header`]'s schema.
    fn random_states(seed: u64) -> Vec<GroupState> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<Vec<u32>> = (0..3u32)
            .flat_map(|job| (0..2u32).map(move |city| vec![job, city]))
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        keys.into_iter()
            .map(|key| {
                let raw_hist = (0..3).map(|_| rng.gen_range(0..40u64)).collect();
                let published_hist = (0..3).map(|_| rng.gen_range(0..40u64)).collect();
                let rng_state = rng.gen();
                let status = if rng.gen_bool(0.5) {
                    GroupStatus::Compliant
                } else {
                    GroupStatus::NeedsResampling
                };
                let group = LiveGroup {
                    key,
                    raw_hist,
                    published_hist,
                    status,
                    republished_len: rng.gen(),
                };
                GroupState { group, rng_state }
            })
            .collect()
    }

    /// A snapshot with no base group over the codec schema, with `groups`
    /// as its live section at `wal_seq`.
    fn snapshot_of(groups: &[GroupState], wal_seq: u64) -> Publication {
        let h = codec_header();
        let m = h.schema.attribute(h.sa).domain_size();
        Publication::from_parts(
            h.schema.clone(),
            GroupHistograms::with_capacity(h.schema.arity() - 1, m, 0),
            h.sa,
            h.p,
            h.params,
            h.seed,
            SpsStats::default(),
            DesignCheck::default(),
        )
        .with_live(LiveState {
            base_rows: 0,
            wal_seq,
            inserted: 0,
            republished: 0,
            groups: groups.to_vec(),
        })
    }

    /// The groups through a snapshot artifact: saved, then loaded back.
    fn artifact_round_trip(groups: &[GroupState]) -> Vec<GroupState> {
        let mut bytes = Vec::new();
        snapshot_of(groups, 9).save(&mut bytes).unwrap();
        let loaded = Publication::load(&bytes[..]).unwrap();
        loaded.live().unwrap().groups.clone()
    }

    /// The groups through a compacted WAL's `s` records.
    fn wal_round_trip(name: &str, groups: &[GroupState]) -> Vec<GroupState> {
        let path = tmp(name);
        let compaction = WalCompaction {
            floor_seq: 5,
            absorbed_inserts: 4,
            absorbed_republishes: 1,
            groups: groups.to_vec(),
        };
        let mut bytes = Vec::new();
        codec_header().write(&mut bytes).unwrap();
        compaction.write(&mut bytes).unwrap();
        std::fs::write(&path, bytes).unwrap();
        let read = read_wal(&path).unwrap().compaction.unwrap();
        assert_eq!(read.floor_seq, 5);
        read.groups
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// `parse ∘ encode = id` for group states, through both
        /// containers that persist them.
        #[test]
        fn group_states_round_trip_through_artifact_and_wal(seed in proptest::any::<u64>()) {
            let groups = random_states(seed);
            proptest::prop_assert_eq!(artifact_round_trip(&groups), groups.clone());
            proptest::prop_assert_eq!(wal_round_trip(&format!("codec-{seed:016x}.rpwal"), &groups), groups);
        }
    }

    /// Loads `records` (the fields after the tag) as the `lgroup` lines
    /// of a snapshot artifact.
    fn load_as_lgroups(records: &[&str]) -> Result<Vec<GroupState>, String> {
        let mut bytes = Vec::new();
        snapshot_of(&[], 0).save(&mut bytes).unwrap();
        let mut text = String::from_utf8(bytes).unwrap();
        assert!(text.ends_with("live\t0\t0\t0\t0\t0\n"));
        text.truncate(text.len() - "live\t0\t0\t0\t0\t0\n".len());
        text += &format!("live\t{}\t0\t0\t0\t0\n", records.len());
        for r in records {
            text += &format!("lgroup{r}\n");
        }
        Publication::load(text.as_bytes())
            .map(|p| p.live().unwrap().groups.clone())
            .map_err(|e| e.to_string())
    }

    /// Reads `records` (the fields after the tag) as the `s` records of a
    /// compacted WAL.
    fn read_as_s_records(name: &str, records: &[&str]) -> Result<Vec<GroupState>, String> {
        let path = tmp(name);
        let mut bytes = Vec::new();
        codec_header().write(&mut bytes).unwrap();
        writeln!(bytes, "compact\t5\t4\t1\t{}", records.len()).unwrap();
        for r in records {
            writeln!(bytes, "s{r}").unwrap();
        }
        std::fs::write(&path, bytes).unwrap();
        read_wal(&path)
            .map(|f| f.compaction.unwrap().groups)
            .map_err(|e| e.to_string())
    }

    #[test]
    fn both_containers_reject_the_same_malformed_group_fields() {
        // Key (doc, oslo); hists over (flu, hiv, none); cursor 7; status
        // `c`; republished_len 3.
        let valid = "\t1\t1\t1\t2\t0\t2\t0\t1\t7\tc\t3";
        // The valid record parses in both containers (the artifact then
        // refuses it only because its rows are not materialized).
        let err = load_as_lgroups(&[valid]).unwrap_err();
        assert!(err.contains("the groups hold 3 rows"), "{err}");
        assert_eq!(
            read_as_s_records("codec-valid.rpwal", &[valid])
                .unwrap()
                .len(),
            1
        );
        for (records, needle) in [
            (
                vec!["\t1\t1\t2\t0\t2\t0\t1\t7\tc\t3"],
                "needs 11 fields, got 10",
            ),
            (vec!["\t1\t5\t1\t2\t0\t2\t0\t1\t7\tc\t3"], "out of range"),
            (vec!["\t1\t1\t1\t2\t0\t2\t0\t1\t7\tz\t3"], "bad status"),
            (
                vec!["\t1\t1\t1\t2\t0\t2\t0\t1\t7\tc\t3\t9"],
                "needs 11 fields, got 12",
            ),
            (vec!["\t1\t1\tx\t2\t0\t2\t0\t1\t7\tc\t3"], "bad count"),
            (
                vec![valid, "\t0\t1\t1\t2\t0\t2\t0\t1\t7\tc\t3"],
                "strictly increasing",
            ),
            (vec![valid, valid], "strictly increasing"),
        ] {
            let err = load_as_lgroups(&records).unwrap_err();
            assert!(err.contains(needle), "lgroup {records:?}: {err}");
            let err = read_as_s_records("codec-bad.rpwal", &records).unwrap_err();
            assert!(err.contains(needle), "s {records:?}: {err}");
        }
    }
}
