//! The [`Publication`] artifact: a published table bundled with everything
//! needed to answer queries on it correctly.
//!
//! The paper's workflow is *publish once, answer many count queries*
//! (Section 6: `est = |S*| · F′`). Answering requires more than the
//! perturbed records: the estimator needs the retention probability `p` and
//! the SA domain, reproducing a release needs the seed, and auditing needs
//! the `(λ, δ)` requirement the release was checked against. A
//! `Publication` carries all of it as one typed value, (de)serializable to
//! a simple line-oriented on-disk format so the publish and query sides of
//! a deployment stop re-deriving parameters out-of-band.
//!
//! The record rows are nearly all of an artifact's bytes, so both
//! directions treat them as bytes (the code-row codec of `crate::codec`).
//! [`Publication::save`] formats them without `fmt`. Reading is split in
//! three: the header, the record rows into a sink, and the trailer (a v2
//! artifact's live section, then the end of input). [`Publication::load`]
//! sends the rows into a table's columns; the serving open
//! ([`crate::QueryEngine::open`]) sends them into per-group SA histograms
//! (`rp_table::GroupCounts`) and builds no table. Both sinks take rows a
//! buffered block at a time, each row's digits straight from the reader's
//! buffer, and a row whose bytes repeat the row before it in the block
//! without a parse. A row is parsed as text only when it is in another
//! accepted form, invalid, or cut by the end of the buffer, so that every
//! error keeps its message and line number, whichever sink reads it.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use rp_core::groups::SaSpec;
use rp_core::incremental::{GroupStatus, LiveGroup};
use rp_core::privacy::PrivacyParams;
use rp_core::sps::SpsStats;
use rp_table::{AttrId, CodeRows, Schema, Table, TableBuilder};

use crate::codec::{
    parse_code, read_params, read_schema, write_code_row, write_params, write_schema, Lines,
};

/// Summary of the Equation-10 design check the publisher ran before SPS:
/// how the *uniform-perturbation* design stood against `(λ, δ)` on the
/// input table (SPS then enforced the criterion on whatever violated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesignCheck {
    /// Personal groups in the input table.
    pub total_groups: usize,
    /// Groups whose size exceeded their threshold `sg`.
    pub violating_groups: usize,
    /// Records in the input table.
    pub total_records: u64,
    /// Records belonging to violating groups.
    pub violating_records: u64,
}

impl DesignCheck {
    /// Fraction of groups violating (`vg` of Section 6.2).
    pub fn vg(&self) -> f64 {
        if self.total_groups == 0 {
            0.0
        } else {
            self.violating_groups as f64 / self.total_groups as f64
        }
    }

    /// Fraction of records at risk (`vr` of Section 6.2).
    pub fn vr(&self) -> f64 {
        if self.total_records == 0 {
            0.0
        } else {
            self.violating_records as f64 / self.total_records as f64
        }
    }

    /// Whether plain uniform perturbation already satisfied the criterion
    /// (in which case SPS degenerated to UP).
    pub fn is_private(&self) -> bool {
        self.violating_groups == 0
    }
}

/// The state of one live personal group: everything
/// [`crate::stream::StreamPublisher`] needs to resume the group exactly
/// where the live run left it — the group itself plus its RNG cursor.
///
/// Two containers persist it — the `lgroup` lines of a streaming (v2)
/// artifact and the `s` state records of a compacted WAL — and both
/// write the same tab-separated fields after their tag:
///
/// ```text
/// (TAB code){arity-1}                      -- group key, schema order
/// (TAB count){m} (TAB count){m}            -- raw + published histograms
/// TAB rng TAB ("c"|"f") TAB len            -- cursor, status, republish baseline
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupState {
    /// The group: key, raw and published histograms, compliance status
    /// and republish baseline.
    pub group: LiveGroup,
    /// The group's RNG cursor: the full state of its counter-based
    /// per-group generator (see `crate::stream::rng`).
    pub rng_state: u64,
}

impl GroupState {
    /// The record's fields, each preceded by a tab, for writing after
    /// the container's tag (`lgroup` or `s`).
    pub(crate) fn encode(&self) -> impl fmt::Display + '_ {
        EncodedFields(self)
    }

    /// Parses the fields after the container's tag, validating the key
    /// codes and the histogram arity against `schema`. `after` is the
    /// previous record's key: both containers keep their records
    /// strictly sorted by key. Errors are bare messages; the container
    /// attaches its line number.
    pub(crate) fn parse(
        fields: &[&str],
        schema: &Schema,
        sa: AttrId,
        after: Option<&[u32]>,
    ) -> Result<Self, String> {
        fn number<T: std::str::FromStr>(raw: &str, what: &str) -> Result<T, String>
        where
            T::Err: fmt::Display,
        {
            raw.parse().map_err(|e| format!("bad {what} `{raw}`: {e}"))
        }
        let m = schema.attribute(sa).domain_size();
        let k = schema.arity() - 1;
        let width = k + 2 * m + 3;
        if fields.len() != width {
            return Err(format!(
                "group state needs {width} fields, got {}",
                fields.len()
            ));
        }
        let key = (0..schema.arity())
            .filter(|&a| a != sa)
            .zip(fields)
            .map(|(attr, raw)| {
                let code = parse_code(raw, "key code")?;
                let domain = schema.attribute(attr).domain_size();
                if code as usize >= domain {
                    return Err(format!(
                        "key code {code} out of range for attribute `{}` (domain {domain})",
                        schema.attribute(attr).name()
                    ));
                }
                Ok(code)
            })
            .collect::<Result<Vec<u32>, String>>()?;
        let hist = |raw: &[&str]| -> Result<Vec<u64>, String> {
            raw.iter().map(|r| number(r, "count")).collect()
        };
        let raw_hist = hist(&fields[k..k + m])?;
        let published_hist = hist(&fields[k + m..k + 2 * m])?;
        let rng_state = number(fields[k + 2 * m], "rng state")?;
        let status = match fields[k + 2 * m + 1] {
            "c" => GroupStatus::Compliant,
            "f" => GroupStatus::NeedsResampling,
            other => return Err(format!("bad status `{other}` (want `c` or `f`)")),
        };
        let republished_len = number(fields[k + 2 * m + 2], "republished_len")?;
        if after.is_some_and(|prev| prev >= key.as_slice()) {
            return Err("group keys must be strictly increasing".into());
        }
        Ok(Self {
            group: LiveGroup {
                key,
                raw_hist,
                published_hist,
                status,
                republished_len,
            },
            rng_state,
        })
    }
}

/// See [`GroupState::encode`].
struct EncodedFields<'a>(&'a GroupState);

impl fmt::Display for EncodedFields<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = &self.0.group;
        for c in &g.key {
            write!(f, "\t{c}")?;
        }
        for c in g.raw_hist.iter().chain(&g.published_hist) {
            write!(f, "\t{c}")?;
        }
        let status = match g.status {
            GroupStatus::Compliant => 'c',
            GroupStatus::NeedsResampling => 'f',
        };
        write!(f, "\t{}\t{status}\t{}", self.0.rng_state, g.republished_len)
    }
}

/// The live extension of a v2 publication: the owner-side state of a
/// streaming run, serialized alongside the batch fields so live and
/// batch releases share one artifact format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveState {
    /// Rows of [`Publication::table`] that belong to the immutable batch
    /// base; the remaining rows are materialized from the live groups.
    pub base_rows: usize,
    /// Sequence number of the last WAL event this snapshot covers;
    /// restore replays only events after it.
    pub wal_seq: u64,
    /// Records inserted into the stream so far.
    pub inserted: u64,
    /// Re-publication events so far.
    pub republished: u64,
    /// Every live group, sorted by key (the canonical order).
    pub groups: Vec<GroupState>,
}

/// A reconstruction-private release: the published table `D*₂` plus the
/// metadata required to audit it and to answer count queries from it.
///
/// Build one with [`crate::Publisher`], persist it with
/// [`Publication::save`], and answer from it with [`crate::QueryEngine`].
/// A release produced by the streaming path additionally carries a
/// [`LiveState`] extension (the v2 on-disk format) from which
/// [`crate::stream::StreamPublisher`] resumes; batch consumers can ignore
/// it — the [`Publication::table`] already includes the rows
/// materialized from the live groups.
#[derive(Debug, Clone, PartialEq)]
pub struct Publication {
    table: Table,
    sa: AttrId,
    p: f64,
    params: PrivacyParams,
    seed: u64,
    stats: SpsStats,
    check: DesignCheck,
    live: Option<LiveState>,
}

impl Publication {
    /// Assembles a publication from its parts. Intended for
    /// [`crate::Publisher`] and deserialization; answering code should not
    /// need it.
    ///
    /// # Panics
    ///
    /// Panics if `sa` is out of range for the table's schema.
    pub fn from_parts(
        table: Table,
        sa: AttrId,
        p: f64,
        params: PrivacyParams,
        seed: u64,
        stats: SpsStats,
        check: DesignCheck,
    ) -> Self {
        assert!(
            sa < table.schema().arity(),
            "SA attribute {sa} out of range for arity {}",
            table.schema().arity()
        );
        Self {
            table,
            sa,
            p,
            params,
            seed,
            stats,
            check,
            live: None,
        }
    }

    /// Attaches a live-state extension (turning the artifact into the v2
    /// format on save). Intended for [`crate::stream::StreamPublisher`].
    ///
    /// # Panics
    ///
    /// Panics if `live.base_rows` exceeds the table's row count or the
    /// live published histograms do not sum to the non-base rows.
    pub fn with_live(mut self, live: LiveState) -> Self {
        assert!(
            live.base_rows <= self.table.rows(),
            "base_rows {} exceeds table rows {}",
            live.base_rows,
            self.table.rows()
        );
        let live_rows: u64 = live
            .groups
            .iter()
            .map(|g| g.group.published_hist.iter().sum::<u64>())
            .sum();
        assert_eq!(
            live_rows,
            (self.table.rows() - live.base_rows) as u64,
            "live published histograms must account for every non-base row"
        );
        self.live = Some(live);
        self
    }

    /// The live-state extension of a streaming (v2) release, if any.
    pub fn live(&self) -> Option<&LiveState> {
        self.live.as_ref()
    }

    /// The published table `D*₂`.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The published schema (generalized public attributes + SA).
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// The sensitive attribute index.
    pub fn sa(&self) -> AttrId {
        self.sa
    }

    /// The sensitive attribute's name.
    pub fn sa_name(&self) -> &str {
        self.schema().attribute(self.sa).name()
    }

    /// The retention probability `p` the release was perturbed with.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The `(λ, δ)` requirement the release enforces.
    pub fn params(&self) -> PrivacyParams {
        self.params
    }

    /// The RNG seed the release was produced from (the whole pipeline is a
    /// pure function of it — see `tests/determinism.rs`).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Counters of the SPS run that produced the release.
    pub fn stats(&self) -> SpsStats {
        self.stats
    }

    /// The pre-publication Equation-10 design check.
    pub fn check(&self) -> DesignCheck {
        self.check
    }

    /// The SA/NA split of the published schema.
    pub fn spec(&self) -> SaSpec {
        SaSpec::new(&self.table, self.sa)
    }

    /// Serializes the publication to its on-disk format: v1 for batch
    /// releases, v2 when a [`LiveState`] extension is attached.
    ///
    /// The format is line-oriented and tab-separated: a magic line, one
    /// `key\t...` metadata line per field, one `attr` line per schema
    /// attribute (name followed by its domain values), then the records as
    /// rows of dictionary codes; a v2 artifact appends a `live` header and
    /// one `lgroup` line per live group. Identical publications serialize
    /// to identical bytes, so `save ∘ load` is the identity on files.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or if an attribute name or domain
    /// value contains a tab or newline (unrepresentable in the format).
    pub fn save<W: Write>(&self, mut w: W) -> Result<(), PublicationError> {
        let schema = self.table.schema();
        let magic = if self.live.is_some() {
            MAGIC_V2
        } else {
            MAGIC_V1
        };
        writeln!(w, "{magic}")?;
        writeln!(w, "sa\t{}", self.sa)?;
        write_params(&mut w, self.p, self.params)?;
        writeln!(w, "seed\t{}", self.seed)?;
        writeln!(
            w,
            "stats\t{}\t{}\t{}\t{}\t{}",
            self.stats.groups,
            self.stats.groups_sampled,
            self.stats.input_records,
            self.stats.sampled_records,
            self.stats.output_records
        )?;
        writeln!(
            w,
            "check\t{}\t{}\t{}\t{}",
            self.check.total_groups,
            self.check.violating_groups,
            self.check.total_records,
            self.check.violating_records
        )?;
        write_schema(&mut w, schema)?;
        writeln!(w, "rows\t{}", self.table.rows())?;
        let columns: Vec<&[u32]> = (0..schema.arity())
            .map(|a| self.table.column(a).codes())
            .collect();
        let mut out = Vec::with_capacity(1 << 16);
        for r in 0..self.table.rows() {
            write_code_row(&mut out, columns.iter().map(|c| c[r]));
            if out.len() >= 1 << 16 {
                w.write_all(&out)?;
                out.clear();
            }
        }
        w.write_all(&out)?;
        if let Some(live) = &self.live {
            writeln!(
                w,
                "live\t{}\t{}\t{}\t{}\t{}",
                live.groups.len(),
                live.base_rows,
                live.wal_seq,
                live.inserted,
                live.republished
            )?;
            for g in &live.groups {
                writeln!(w, "lgroup{}", g.encode())?;
            }
        }
        Ok(())
    }

    /// Saves to a file path, atomically and durably: the artifact is
    /// written to a temp sibling, fsynced, renamed over `path`, and the
    /// parent directory synced — a crash mid-save leaves the previous
    /// artifact intact, never a torn or clobbered file.
    ///
    /// # Errors
    ///
    /// As [`Publication::save`], plus file-creation errors.
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> Result<(), PublicationError> {
        crate::fsutil::write_atomic(path.as_ref(), |w| self.save(w))
    }

    /// Deserializes a publication from the on-disk format (v1 or v2 —
    /// the two magics; v1 artifacts keep loading unchanged).
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or any structural problem (bad
    /// magic, missing fields, malformed numbers, out-of-domain codes, an
    /// inconsistent live section).
    pub fn load<R: BufRead>(r: R) -> Result<Self, PublicationError> {
        // The row count is untrusted input: cap the pre-allocation so a
        // corrupt header cannot force a huge reservation before any record
        // is parsed (the builder grows past the cap as real rows arrive).
        let (header, builder, live) = read_artifact(r, |h| {
            TableBuilder::with_capacity(h.schema.clone(), h.rows.min(1 << 20))
        })?;
        Ok(Self {
            table: builder.build(),
            sa: header.sa,
            p: header.p,
            params: header.params,
            seed: header.seed,
            stats: header.stats,
            check: header.check,
            live,
        })
    }

    /// Loads from a file path (buffered).
    ///
    /// # Errors
    ///
    /// As [`Publication::load`], plus file-open errors.
    pub fn load_from_path(path: impl AsRef<Path>) -> Result<Self, PublicationError> {
        let file = File::open(path)?;
        Self::load(BufReader::new(file))
    }
}

const MAGIC_V1: &str = "rp-publication v1";
const MAGIC_V2: &str = "rp-publication v2";

/// An artifact's header: every line before its record rows, checked.
pub(crate) struct Header {
    version: u8,
    pub(crate) sa: AttrId,
    pub(crate) p: f64,
    pub(crate) params: PrivacyParams,
    pub(crate) seed: u64,
    stats: SpsStats,
    check: DesignCheck,
    pub(crate) schema: Schema,
    /// The declared record row count.
    pub(crate) rows: usize,
}

/// Reads an artifact from `r`: its header, then its record rows into the
/// sink `sink` makes from the header, then a v2 artifact's live section
/// and the end of input. [`Publication::load`] and the serving open
/// ([`crate::QueryEngine::open`]) both read through it, so they share
/// every check, message and line number.
pub(crate) fn read_artifact<R: BufRead, S: CodeRows>(
    r: R,
    sink: impl FnOnce(&Header) -> S,
) -> Result<(Header, S, Option<LiveState>), PublicationError> {
    let mut lines = Lines::new(r);
    let header = read_header(&mut lines)?;
    let mut rows = sink(&header);
    read_rows(&mut lines, header.rows, &mut rows)?;
    let live = if header.version >= 2 {
        Some(read_live(
            &mut lines,
            &header.schema,
            header.sa,
            header.rows,
        )?)
    } else {
        None
    };
    // A rows header that undercounts the actual content would otherwise
    // load as a silently truncated release.
    lines.expect_eof()?;
    Ok((header, rows, live))
}

fn read_header<R: BufRead>(lines: &mut Lines<R>) -> Result<Header, PublicationError> {
    let version = match lines.next_line()? {
        m if m == MAGIC_V1 => 1,
        m if m == MAGIC_V2 => 2,
        other => {
            let message = format!("expected magic `{MAGIC_V1}` or `{MAGIC_V2}`, got `{other}`");
            return Err(PublicationError::Format { line: 1, message });
        }
    };
    let sa: AttrId = lines.field("sa")?.parse_one()?;
    let sa_line = lines.line_no;
    let (p, params) = read_params(lines)?;
    let seed: u64 = lines.field("seed")?.parse_one()?;
    let stats_fields = lines.field("stats")?;
    let stats = SpsStats {
        groups: stats_fields.parse_at(0)?,
        groups_sampled: stats_fields.parse_at(1)?,
        input_records: stats_fields.parse_at(2)?,
        sampled_records: stats_fields.parse_at(3)?,
        output_records: stats_fields.parse_at(4)?,
    };
    let check_fields = lines.field("check")?;
    let check = DesignCheck {
        total_groups: check_fields.parse_at(0)?,
        violating_groups: check_fields.parse_at(1)?,
        total_records: check_fields.parse_at(2)?,
        violating_records: check_fields.parse_at(3)?,
    };
    let attributes = read_schema(lines)?;
    let arity = attributes.len();
    if sa >= arity {
        return Err(PublicationError::Format {
            line: sa_line,
            message: format!("sa index {sa} out of range for arity {arity}"),
        });
    }
    // Mirror the publish-time shape invariants: the answering side
    // assumes at least one public attribute and a non-trivial SA
    // domain (`PerturbationMatrix` asserts m >= 2 at query time).
    if arity < 2 {
        return Err(lines.err(format!(
            "publication needs at least one public attribute besides SA, got arity {arity}"
        )));
    }
    let m = attributes[sa].domain_size();
    if m < 2 {
        return Err(lines.err(format!("SA domain must have at least 2 values, got {m}")));
    }
    let rows: usize = lines.field("rows")?.parse_one()?;
    Ok(Header {
        version,
        sa,
        p,
        params,
        seed,
        stats,
        check,
        schema: Schema::new(attributes),
        rows,
    })
}

/// Reads `rows` record rows into `sink`: a buffered block at a time
/// through [`CodeRows::push_code_rows`], and each row it does not take
/// as text.
fn read_rows<R: BufRead>(
    lines: &mut Lines<R>,
    rows: usize,
    sink: &mut impl CodeRows,
) -> Result<(), PublicationError> {
    let mut codes = Vec::new();
    let mut left = rows;
    while left > 0 {
        let (taken, bytes) = sink.push_code_rows(lines.block()?, left);
        lines.consume_rows(taken, bytes);
        left -= taken;
        if taken == 0 {
            lines.next_row_codes(&mut codes)?;
            sink.push_codes(&codes)
                .map_err(|e| lines.err(e.to_string()))?;
            left -= 1;
        }
    }
    Ok(())
}

/// Parses the live section of a v2 artifact, validating it against the
/// already-parsed batch part (key domains, histogram arity `m`, and that
/// the live published histograms account exactly for the non-base rows).
fn read_live<R: BufRead>(
    lines: &mut Lines<R>,
    schema: &Schema,
    sa: AttrId,
    rows: usize,
) -> Result<LiveState, PublicationError> {
    let header = lines.field("live")?;
    let count: usize = header.parse_at(0)?;
    let base_rows: usize = header.parse_at(1)?;
    let wal_seq: u64 = header.parse_at(2)?;
    let inserted: u64 = header.parse_at(3)?;
    let republished: u64 = header.parse_at(4)?;
    if base_rows > rows {
        return Err(lines.err(format!(
            "live base_rows {base_rows} exceeds row count {rows}"
        )));
    }
    // Like the row count, the group count is untrusted: cap the
    // pre-allocation; real groups past the cap still load.
    let mut groups: Vec<GroupState> = Vec::with_capacity(count.min(1 << 16));
    let mut live_rows = 0u64;
    for _ in 0..count {
        let f = lines.field("lgroup")?;
        let after = groups.last().map(|g| g.group.key.as_slice());
        let g = GroupState::parse(&f.values, schema, sa, after).map_err(|m| f.error(m))?;
        live_rows += g.group.published_hist.iter().sum::<u64>();
        groups.push(g);
    }
    if live_rows != (rows - base_rows) as u64 {
        return Err(lines.err(format!(
            "live published histograms sum to {live_rows} but the artifact has {} non-base rows",
            rows - base_rows
        )));
    }
    Ok(LiveState {
        base_rows,
        wal_seq,
        inserted,
        republished,
        groups,
    })
}

/// Errors raised by publication (de)serialization.
#[derive(Debug)]
pub enum PublicationError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the input at a 1-based line number.
    Format {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An attribute name or value contains a tab or newline and cannot be
    /// written in the line-oriented format.
    Unrepresentable(String),
}

impl fmt::Display for PublicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublicationError::Io(e) => write!(f, "I/O error: {e}"),
            PublicationError::Format { line, message } => {
                write!(f, "line {line}: {message}")
            }
            PublicationError::Unrepresentable(s) => {
                write!(f, "value `{}` contains tab/newline", s.escape_debug())
            }
        }
    }
}

impl std::error::Error for PublicationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PublicationError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PublicationError {
    fn from(e: io::Error) -> Self {
        PublicationError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_table::Attribute;

    fn demo_publication() -> Publication {
        let schema = Schema::new(vec![
            Attribute::new("Gender", ["male", "female"]),
            Attribute::new("Disease", ["flu", "hiv", "none"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..50u32 {
            b.push_codes(&[i % 2, i % 3]).unwrap();
        }
        Publication::from_parts(
            b.build(),
            1,
            0.5,
            PrivacyParams::new(0.3, 0.3),
            42,
            SpsStats {
                groups: 2,
                groups_sampled: 1,
                input_records: 50,
                sampled_records: 20,
                output_records: 50,
            },
            DesignCheck {
                total_groups: 2,
                violating_groups: 1,
                total_records: 50,
                violating_records: 30,
            },
        )
    }

    #[test]
    fn save_load_round_trips_value() {
        let p = demo_publication();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        let p2 = Publication::load(&bytes[..]).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let p = demo_publication();
        let mut first = Vec::new();
        p.save(&mut first).unwrap();
        let p2 = Publication::load(&first[..]).unwrap();
        let mut second = Vec::new();
        p2.save(&mut second).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn load_rejects_bad_magic() {
        let err = Publication::load(&b"not a publication\n"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn load_rejects_truncation() {
        let p = demo_publication();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        let cut = bytes.len() - 10;
        let err = Publication::load(&bytes[..cut]).unwrap_err();
        assert!(err.to_string().contains("end of input") || err.to_string().contains("bad"));
    }

    #[test]
    fn load_rejects_invalid_privacy_params_without_panicking() {
        let p = demo_publication();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        for (needle, replacement, expect) in [
            ("lambda\t0.3\n", "lambda\t0\n", "lambda"),
            ("delta\t0.3\n", "delta\t2\n", "delta"),
        ] {
            let broken = text.replace(needle, replacement);
            assert_ne!(text, broken, "fixture must contain `{needle}`");
            let err = Publication::load(broken.as_bytes()).unwrap_err();
            assert!(err.to_string().contains(expect), "{err}");
        }
    }

    #[test]
    fn load_caps_preallocation_from_untrusted_arity() {
        let p = demo_publication();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        // A huge claimed arity must fail cleanly (truncation), not panic
        // with a capacity overflow while pre-allocating.
        let broken = text.replace("attrs\t2\n", "attrs\t99999999999999999\n");
        assert_ne!(text, broken);
        let err = Publication::load(broken.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected `attr` line"), "{err}");
    }

    #[test]
    fn load_rejects_degenerate_shapes() {
        let p = demo_publication();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        // SA domain collapsed to one value: must fail at load, not panic
        // at answer time.
        let broken = text.replace("attr\tDisease\tflu\thiv\tnone\n", "attr\tDisease\tflu\n");
        assert_ne!(text, broken);
        let err = Publication::load(broken.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("at least 2 values"), "{err}");
    }

    #[test]
    fn load_rejects_trailing_content() {
        let p = demo_publication();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        // An undercounting rows header must not load as a truncated release.
        let text = String::from_utf8(bytes).unwrap();
        let broken = text.replace("rows\t50\n", "rows\t49\n");
        assert_ne!(text, broken);
        let err = Publication::load(broken.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("trailing content"), "{err}");
    }

    #[test]
    fn load_caps_preallocation_from_untrusted_row_count() {
        let p = demo_publication();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        // A huge claimed row count with no rows behind it must fail with a
        // clean truncation error, not an allocation abort.
        let broken = text.replace("rows\t50\n", &format!("rows\t{}\n", u64::MAX));
        assert_ne!(text, broken);
        let err = Publication::load(broken.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("end of input"), "{err}");
    }

    #[test]
    fn load_rejects_out_of_domain_code() {
        let p = demo_publication();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let broken = text.replace("\n0\t0\n", "\n0\t9\n");
        assert_ne!(text, broken, "fixture must contain the row");
        let err = Publication::load(broken.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    /// The demo artifact with the record on row `row` (line `13 + row`)
    /// replaced by `bytes` and the `rows` header set to `rows`.
    fn demo_bytes_with_row(row: usize, bytes: &[u8], rows: usize) -> Vec<u8> {
        let p = demo_publication();
        let mut saved = Vec::new();
        p.save(&mut saved).unwrap();
        let mut out = Vec::new();
        for (i, line) in saved.split_inclusive(|&b| b == b'\n').enumerate() {
            match i {
                11 => out.extend_from_slice(format!("rows\t{rows}\n").as_bytes()),
                i if i == 12 + row => {
                    out.extend_from_slice(bytes);
                    out.push(b'\n');
                }
                _ => out.extend_from_slice(line),
            }
        }
        out
    }

    /// Golden table of malformed record rows: each case pins the whole
    /// message, line number included.
    #[test]
    fn load_rejects_malformed_rows_with_exact_messages() {
        for (row, bytes, rows, want) in [
            (
                3,
                &b"1\tx"[..],
                50,
                "line 16: bad code `x`: invalid digit found in string",
            ),
            (
                3,
                b"1\t",
                50,
                "line 16: bad code ``: cannot parse integer from empty string",
            ),
            (
                3,
                b"",
                50,
                "line 16: bad code ``: cannot parse integer from empty string",
            ),
            (
                4,
                b"4294967296\t0",
                50,
                "line 17: bad code `4294967296`: number too large to fit in target type",
            ),
            (
                4,
                b"-1\t0",
                50,
                "line 17: bad code `-1`: invalid digit found in string",
            ),
            (
                4,
                b"+\t0",
                50,
                "line 17: bad code `+`: invalid digit found in string",
            ),
            (
                4,
                b"++1\t0",
                50,
                "line 17: bad code `++1`: invalid digit found in string",
            ),
            (
                4,
                b" 1\t0",
                50,
                "line 17: bad code ` 1`: invalid digit found in string",
            ),
            (
                4,
                b"1\r\t0",
                50,
                "line 17: bad code `1\r`: invalid digit found in string",
            ),
            (
                5,
                b"0\t9",
                50,
                "line 18: code 9 out of range for attribute `Disease` (domain size 3)",
            ),
            (
                5,
                b"7\tx",
                50,
                "line 18: bad code `x`: invalid digit found in string",
            ),
            (
                5,
                b"2\t0",
                50,
                "line 18: code 2 out of range for attribute `Gender` (domain size 2)",
            ),
            (
                6,
                b"1\t\xff",
                50,
                "I/O error: stream did not contain valid UTF-8",
            ),
            (
                6,
                b"x\t\xff",
                50,
                "I/O error: stream did not contain valid UTF-8",
            ),
            (
                7,
                b"1",
                50,
                "line 20: row has 1 values but the schema has 2 attributes",
            ),
            (
                7,
                b"1\t0\t0",
                50,
                "line 20: row has 3 values but the schema has 2 attributes",
            ),
            (
                7,
                b"1\t0\t9\t9",
                50,
                "line 20: row has 4 values but the schema has 2 attributes",
            ),
            (
                7,
                b"1\t0\tz",
                50,
                "line 20: bad code `z`: invalid digit found in string",
            ),
            (
                0,
                b"0\t0",
                49,
                "line 62: trailing content after the declared row count",
            ),
            (0, b"0\t0", 51, "line 63: unexpected end of input"),
        ] {
            let broken = demo_bytes_with_row(row, bytes, rows);
            let err = Publication::load(&broken[..]).unwrap_err();
            assert_eq!(
                err.to_string(),
                want,
                "row {row} = {:?}",
                bytes.escape_ascii()
            );
        }
    }

    /// Forms `str::parse::<u32>` accepts keep loading as the same table:
    /// a leading `+`, leading zeros, CRLF endings, a missing final newline.
    #[test]
    fn load_accepts_every_form_str_parse_accepts() {
        let p = demo_publication();
        let mut saved = Vec::new();
        p.save(&mut saved).unwrap();
        let text = String::from_utf8(saved.clone()).unwrap();
        let plus = demo_bytes_with_row(3, b"+1\t+0", 50);
        let zeros = demo_bytes_with_row(3, b"0001\t000", 50);
        let long_zeros = demo_bytes_with_row(3, b"0000000001\t0000000000000", 50);
        let crlf = text.replace('\n', "\r\n").into_bytes();
        let cr_runs = text.replace('\n', "\r\r\n").into_bytes();
        let unterminated = saved[..saved.len() - 1].to_vec();
        for bytes in [plus, zeros, long_zeros, crlf, cr_runs, unterminated] {
            let loaded = Publication::load(&bytes[..]).unwrap();
            assert_eq!(loaded, p, "{:?}", String::from_utf8_lossy(&bytes));
        }
    }

    /// A reader whose every other read is interrupted, as a read of a pipe
    /// can be by a signal: the record rows load as from memory, because
    /// an interrupted fill is retried like an interrupted `read_until`.
    /// A one-byte buffer is empty at every block, so each block reads.
    #[test]
    fn load_retries_interrupted_reads() {
        struct Interrupting<'a>(&'a [u8], bool);
        impl io::Read for Interrupting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 = !self.1;
                if self.1 {
                    return Err(io::ErrorKind::Interrupted.into());
                }
                self.0.read(buf)
            }
        }
        let p = demo_publication();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        let reader = BufReader::with_capacity(1, Interrupting(&bytes, false));
        assert_eq!(Publication::load(reader).unwrap(), p);
    }

    /// A random table over multi-digit domains, with its SA attribute.
    fn random_publication(seed: u64) -> Publication {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let arity = rng.gen_range(2..6usize);
        let domains: Vec<usize> = (0..arity)
            .map(|_| match rng.gen_range(0..3) {
                0 => rng.gen_range(2..10),
                1 => rng.gen_range(10..2_000),
                _ => rng.gen_range(10_000..20_000),
            })
            .collect();
        let schema = Schema::new(
            domains
                .iter()
                .enumerate()
                .map(|(i, &d)| Attribute::with_anonymous_domain(format!("A{i}"), d))
                .collect(),
        );
        let mut b = TableBuilder::new(schema);
        for _ in 0..rng.gen_range(0..200) {
            let codes: Vec<u32> = domains
                .iter()
                .map(|&d| rng.gen_range(0..d) as u32)
                .collect();
            b.push_codes(&codes).unwrap();
        }
        let sa = rng.gen_range(0..arity);
        Publication::from_parts(
            b.build(),
            sa,
            0.5,
            PrivacyParams::new(0.3, 0.3),
            seed,
            SpsStats::default(),
            DesignCheck::default(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn save_load_round_trips_random_tables(seed in proptest::any::<u64>()) {
            let p = random_publication(seed);
            let mut first = Vec::new();
            p.save(&mut first).unwrap();
            let loaded = Publication::load(&first[..]).unwrap();
            proptest::prop_assert_eq!(&loaded, &p);
            let mut second = Vec::new();
            loaded.save(&mut second).unwrap();
            proptest::prop_assert_eq!(first, second);
        }
    }

    #[test]
    fn unrepresentable_values_refused_at_save() {
        let schema = Schema::new(vec![
            Attribute::new("A", ["x\ty"]),
            Attribute::new("B", ["u", "v"]),
        ]);
        let t = TableBuilder::new(schema).build();
        let p = Publication::from_parts(
            t,
            1,
            0.5,
            PrivacyParams::new(0.3, 0.3),
            0,
            SpsStats::default(),
            DesignCheck::default(),
        );
        let mut bytes = Vec::new();
        assert!(matches!(
            p.save(&mut bytes),
            Err(PublicationError::Unrepresentable(_))
        ));
    }

    /// A v2 publication: the 50 base rows plus two live groups
    /// materialized as 5 extra rows.
    fn demo_v2_publication() -> Publication {
        let schema = Schema::new(vec![
            Attribute::new("Gender", ["male", "female"]),
            Attribute::new("Disease", ["flu", "hiv", "none"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..50u32 {
            b.push_codes(&[i % 2, i % 3]).unwrap();
        }
        // Materialized live rows, sorted by (key, sa).
        for codes in [[0, 0], [0, 0], [0, 2], [1, 1], [1, 1]] {
            b.push_codes(&codes).unwrap();
        }
        let live = LiveState {
            base_rows: 50,
            wal_seq: 7,
            inserted: 5,
            republished: 1,
            groups: vec![
                GroupState {
                    group: LiveGroup {
                        key: vec![0],
                        raw_hist: vec![1, 1, 1],
                        published_hist: vec![2, 0, 1],
                        status: GroupStatus::Compliant,
                        republished_len: 3,
                    },
                    rng_state: 0xDEAD_BEEF,
                },
                GroupState {
                    group: LiveGroup {
                        key: vec![1],
                        raw_hist: vec![0, 2, 0],
                        published_hist: vec![0, 2, 0],
                        status: GroupStatus::NeedsResampling,
                        republished_len: 0,
                    },
                    rng_state: 42,
                },
            ],
        };
        Publication::from_parts(
            b.build(),
            1,
            0.5,
            PrivacyParams::new(0.3, 0.3),
            42,
            SpsStats::default(),
            DesignCheck::default(),
        )
        .with_live(live)
    }

    #[test]
    fn v2_save_load_round_trips_value_and_bytes() {
        let p = demo_v2_publication();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(text.starts_with("rp-publication v2\n"), "{text}");
        let p2 = Publication::load(&bytes[..]).unwrap();
        assert_eq!(p, p2);
        assert_eq!(p2.live().unwrap().groups.len(), 2);
        let mut second = Vec::new();
        p2.save(&mut second).unwrap();
        assert_eq!(bytes, second, "v2 save ∘ load must be byte-identical");
    }

    #[test]
    fn v1_artifacts_still_load_without_live_state() {
        let p = demo_publication();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        assert!(bytes.starts_with(b"rp-publication v1\n"));
        let p2 = Publication::load(&bytes[..]).unwrap();
        assert!(p2.live().is_none());
        assert_eq!(p, p2);
    }

    #[test]
    fn v2_rejects_inconsistent_live_sections() {
        let p = demo_v2_publication();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        for (needle, replacement, expect) in [
            // Published sums no longer match the non-base rows.
            ("\t2\t0\t1\t3735928559", "\t9\t0\t1\t3735928559", "sum to"),
            // Unknown status token.
            ("\t3735928559\tc\t3", "\t3735928559\tz\t3", "bad status"),
            // base_rows beyond the row count.
            ("live\t2\t50\t7", "live\t2\t5000\t7", "exceeds row count"),
            // Key out of the attribute domain.
            ("lgroup\t1\t0\t2\t0", "lgroup\t7\t0\t2\t0", "out of range"),
            // Truncated live section: fewer lgroup lines than declared.
            ("live\t2\t50\t7", "live\t3\t50\t7", "end of input"),
        ] {
            let broken = text.replace(needle, replacement);
            assert_ne!(text, broken, "fixture must contain `{needle}`");
            let err = Publication::load(broken.as_bytes()).unwrap_err();
            assert!(err.to_string().contains(expect), "{needle} -> {err}");
        }
        // Reordered groups violate the canonical key order.
        let g0 = text
            .lines()
            .find(|l| l.starts_with("lgroup\t0"))
            .unwrap()
            .to_string();
        let g1 = text
            .lines()
            .find(|l| l.starts_with("lgroup\t1"))
            .unwrap()
            .to_string();
        let swapped = text
            .replace(&g0, "PLACEHOLDER")
            .replace(&g1, &g0)
            .replace("PLACEHOLDER", &g1);
        let err = Publication::load(swapped.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("strictly increasing"), "{err}");
    }

    #[test]
    fn check_rates() {
        let c = DesignCheck {
            total_groups: 4,
            violating_groups: 1,
            total_records: 100,
            violating_records: 30,
        };
        assert!((c.vg() - 0.25).abs() < 1e-12);
        assert!((c.vr() - 0.3).abs() < 1e-12);
        assert!(!c.is_private());
        assert!(DesignCheck::default().is_private());
    }
}
