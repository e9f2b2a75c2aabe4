//! The [`Publication`] artifact: a release's personal groups bundled with
//! everything needed to answer queries on them correctly.
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
//! Every record of a personal group carries the group's key, and SPS
//! publishes a group as one run per SA value, so a release is fully
//! described by each group's published SA histogram. A `Publication`
//! holds exactly that, in memory as on disk: its base groups as one
//! [`GroupHistograms`] (sorted keys and their histograms in two flat
//! buffers), plus a snapshot's live groups. The artifact stores one line
//! per non-empty personal group, its key codes then its `m` counts, in
//! strictly increasing key order; [`Publication::load`] reads those lines
//! straight back into the flat buffers and [`Publication::save`] writes
//! them out, with no table in between. [`crate::QueryEngine::new`]
//! assembles its grouped view from the same buffers. The one place a
//! release becomes records again is [`Publication::table`].

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use rp_core::groups::SaSpec;
use rp_core::incremental::{GroupStatus, LiveGroup};
use rp_core::privacy::PrivacyParams;
use rp_core::sps::SpsStats;
use rp_table::{AttrId, GroupHistograms, Schema, Table, TableBuilder};

use crate::codec::{
    parse_code, put_u64, read_params, read_schema, write_params, write_schema, Lines,
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
/// Two containers persist it — the `lgroup` lines of a snapshot
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
        let m = schema.attribute(sa).domain_size();
        let k = schema.arity() - 1;
        let width = k + 2 * m + 3;
        if fields.len() != width {
            return Err(format!(
                "group state needs {width} fields, got {}",
                fields.len()
            ));
        }
        let mut key = Vec::with_capacity(k);
        parse_key(fields[..k].iter().copied(), schema, sa, after, &mut key)?;
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

/// Parses one number field; a rejection reads ``bad {what} `{raw}`: {e}``.
fn number<T: std::str::FromStr>(raw: &str, what: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    raw.parse().map_err(|e| format!("bad {what} `{raw}`: {e}"))
}

/// Parses a group key into `key` (cleared first): one code per public
/// attribute of `schema`, in schema order (every attribute but `sa`),
/// each inside its domain, the key strictly after `after`, the key of the
/// record before it.
fn parse_key<'a>(
    fields: impl Iterator<Item = &'a str>,
    schema: &Schema,
    sa: AttrId,
    after: Option<&[u32]>,
    key: &mut Vec<u32>,
) -> Result<(), String> {
    key.clear();
    for (attr, raw) in (0..schema.arity()).filter(|&a| a != sa).zip(fields) {
        let code = parse_code(raw, "key code")?;
        let domain = schema.attribute(attr).domain_size();
        if code as usize >= domain {
            let name = schema.attribute(attr).name();
            return Err(format!(
                "key code {code} out of range for attribute `{name}` (domain {domain})"
            ));
        }
        key.push(code);
    }
    if after.is_some_and(|prev| prev >= key.as_slice()) {
        return Err("group keys must be strictly increasing".into());
    }
    Ok(())
}

/// Parses one group line of an artifact's record section into `key` and
/// `hist`: the group's key codes, then its `m` published counts, strictly
/// after `after`. A group with no record has no line.
fn parse_group_line(
    line: &str,
    schema: &Schema,
    sa: AttrId,
    after: Option<&[u32]>,
    (key, hist): (&mut Vec<u32>, &mut Vec<u64>),
) -> Result<(), String> {
    let (k, m) = (schema.arity() - 1, schema.attribute(sa).domain_size());
    // A one-char array pattern walks the line; on fields this short it
    // splits about a quarter faster than the `'\t'` pattern's search.
    let mut fields = line.split(['\t']);
    parse_key(fields.by_ref().take(k), schema, sa, after, key)?;
    hist.clear();
    for raw in fields.by_ref().take(m) {
        hist.push(number(raw, "count")?);
    }
    let width = key.len() + hist.len() + fields.count();
    if width != k + m {
        return Err(format!("group line needs {} fields, got {width}", k + m));
    }
    if hist.iter().all(|&count| count == 0) {
        return Err("group histogram is all zero (an empty group has no line)".into());
    }
    Ok(())
}

/// The sum of `counts`, or `None` if it overflows `u64`.
fn count_rows<'a>(mut counts: impl Iterator<Item = &'a u64>) -> Option<u64> {
    counts.try_fold(0u64, |sum, &count| sum.checked_add(count))
}

/// The live extension of a stream snapshot: the owner-side state of a
/// streaming run, serialized after the base groups so live and batch
/// releases share one artifact format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveState {
    /// Records of the immutable batch base, the records its groups hold;
    /// the live groups' published histograms hold the rest.
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

/// A reconstruction-private release: the personal groups of the published
/// table `D*₂`, each its key and published SA histogram, plus the metadata
/// required to audit it and to answer count queries from it.
///
/// Build one with [`crate::Publisher`], persist it with
/// [`Publication::save`], and answer from it with [`crate::QueryEngine`].
/// A snapshot of the streaming path additionally carries a [`LiveState`]
/// extension (the artifact's `live` section) from which
/// [`crate::stream::StreamPublisher`] resumes; its live groups are part of
/// the release ([`Publication::records`], [`Publication::table`] and the
/// engine count them), its [`Publication::groups`] are the base's alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Publication {
    schema: Schema,
    groups: GroupHistograms,
    sa: AttrId,
    p: f64,
    params: PrivacyParams,
    seed: u64,
    stats: SpsStats,
    check: DesignCheck,
    live: Option<LiveState>,
}

impl Publication {
    /// Assembles a publication from its parts: the published `schema` and
    /// its base `groups`, keyed over every attribute but `sa` in schema
    /// order. Intended for [`crate::Publisher`] and deserialization;
    /// answering code should not need it. A table groups into its parts
    /// through [`rp_table::group_histograms`].
    ///
    /// # Panics
    ///
    /// Panics if `sa` is out of range for `schema`, if the schema has no
    /// public attribute besides it (a release is stored as its personal
    /// groups, which the public attributes key), or if a group is not a
    /// personal group of the schema: a key of the wrong width or out of
    /// key order, or a histogram of the wrong arity or with no record.
    // One argument per part of a release; a parameter struct would only
    // restate the publication.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        schema: Schema,
        groups: GroupHistograms,
        sa: AttrId,
        p: f64,
        params: PrivacyParams,
        seed: u64,
        stats: SpsStats,
        check: DesignCheck,
    ) -> Self {
        let arity = schema.arity();
        assert!(
            sa < arity,
            "SA attribute {sa} out of range for arity {arity}"
        );
        assert!(arity >= 2, "need at least one public attribute besides SA");
        let m = schema.attribute(sa).domain_size();
        let mut after: Option<&[u32]> = None;
        for (key, hist) in groups.iter() {
            assert!(
                key.len() == arity - 1 && hist.len() == m,
                "group shape {}+{} is not {}+{m}",
                key.len(),
                hist.len(),
                arity - 1
            );
            assert!(after < Some(key), "group keys must be strictly increasing");
            assert!(hist.iter().any(|&c| c > 0), "group {key:?} holds no record");
            after = Some(key);
        }
        Self {
            schema,
            groups,
            sa,
            p,
            params,
            seed,
            stats,
            check,
            live: None,
        }
    }

    /// Attaches a live-state extension (saved as the artifact's `live`
    /// section). Intended for [`crate::stream::StreamPublisher`].
    ///
    /// # Panics
    ///
    /// Panics if `live.base_rows` is not the number of records the base
    /// groups hold.
    pub fn with_live(mut self, live: LiveState) -> Self {
        assert_eq!(
            live.base_rows as u64,
            self.base_records(),
            "live base_rows must count the base groups' records"
        );
        self.live = Some(live);
        self
    }

    /// The live-state extension of a stream snapshot, if any.
    pub fn live(&self) -> Option<&LiveState> {
        self.live.as_ref()
    }

    /// The base release's personal groups: sorted keys over the public
    /// attributes in schema order, each with its published SA histogram.
    /// A snapshot's live groups are in its [`Publication::live`] section.
    pub fn groups(&self) -> &GroupHistograms {
        &self.groups
    }

    /// The published table `D*₂`, expanded from the groups: the base
    /// groups, then a snapshot's live groups, each in key order and each
    /// group's records in SA code order ([`TableBuilder::push_group`]),
    /// the row order [`crate::Publisher`] emits. Serving needs only the
    /// groups; this is for consumers of records (a CSV export, a scan).
    pub fn table(&self) -> Table {
        let mut builder = TableBuilder::with_capacity(self.schema.clone(), self.records() as usize);
        let live = self.live.iter().flat_map(|l| &l.groups);
        let live = live.map(|g| (&g.group.key[..], &g.group.published_hist[..]));
        for (key, hist) in self.groups.iter().chain(live) {
            builder
                .push_group(key, self.sa, hist)
                .expect("group codes are in their domains");
        }
        builder.build()
    }

    /// Records in the release: the base groups' and a snapshot's live
    /// groups'.
    pub fn records(&self) -> u64 {
        let live = self.live.iter().flat_map(|l| &l.groups);
        self.base_records() + live.flat_map(|g| &g.group.published_hist).sum::<u64>()
    }

    /// Records the base groups hold.
    fn base_records(&self) -> u64 {
        self.groups.iter().flat_map(|(_, hist)| hist).sum()
    }

    /// Takes the live section off a snapshot, leaving its base release.
    /// Intended for [`crate::stream::StreamPublisher`].
    pub(crate) fn take_live(&mut self) -> Option<LiveState> {
        self.live.take()
    }

    /// The release with `stats` as its SPS counters. Intended for
    /// [`crate::stream::StreamPublisher`], whose counters a snapshot
    /// extends and a resumed base rolls back.
    pub(crate) fn with_stats(mut self, stats: SpsStats) -> Self {
        self.stats = stats;
        self
    }

    /// The published schema (generalized public attributes + SA).
    pub fn schema(&self) -> &Schema {
        &self.schema
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
        SaSpec::for_schema(&self.schema, self.sa)
    }

    /// Serializes the publication to its on-disk format.
    ///
    /// The format is line-oriented and tab-separated: a magic line, one
    /// `key\t...` metadata line per field, one `attr` line per schema
    /// attribute (name followed by its domain values), the `rows` and
    /// `groups` counts, then one line per non-empty personal group of the
    /// base release in strictly increasing key order — its key codes
    /// (every public attribute, in schema order), then its `m` published
    /// SA counts. A snapshot appends a `live` header and one `lgroup` line
    /// per live group; its group lines hold the base groups alone, and
    /// `rows` counts base and live records. The lines are the groups the
    /// publication holds, so `save ∘ load` is the identity on files and
    /// `load ∘ save` the identity on publications.
    ///
    /// ```text
    /// rp-publication v3
    /// sa, p, lambda, delta, seed, stats, check   -- one line each
    /// attrs N, then N attr lines                 -- the schema
    /// rows R
    /// groups G
    /// (code TAB){arity-1} count (TAB count){m-1} -- G group lines
    /// live ..., then lgroup lines                -- a snapshot only
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or if an attribute name or domain
    /// value contains a tab or newline (unrepresentable in the format).
    pub fn save<W: Write>(&self, mut w: W) -> Result<(), PublicationError> {
        writeln!(w, "{MAGIC}")?;
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
        write_schema(&mut w, &self.schema)?;
        writeln!(w, "rows\t{}", self.records())?;
        writeln!(w, "groups\t{}", self.groups.len())?;
        let mut line = String::new();
        for (key, hist) in self.groups.iter() {
            line.clear();
            for field in key
                .iter()
                .map(|&c| u64::from(c))
                .chain(hist.iter().copied())
            {
                put_u64(&mut line, field);
                line.push('\t');
            }
            line.pop();
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
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

    /// Deserializes a publication from the on-disk format. The group
    /// lines are parsed into the two flat buffers of the publication's
    /// [`GroupHistograms`], with no allocation per group and none per
    /// record: the declared `rows` is checked against the counts, never
    /// allocated for.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or any structural problem (bad or
    /// retired magic, missing fields, malformed numbers, out-of-domain or
    /// unsorted keys, counts that do not add up, an inconsistent live
    /// section).
    pub fn load<R: BufRead>(r: R) -> Result<Self, PublicationError> {
        let mut lines = Lines::new(r);
        let header = read_header(&mut lines)?;
        let (schema, sa) = (&header.schema, header.sa);
        let (k, m) = (schema.arity() - 1, schema.attribute(sa).domain_size());
        // Like the row count, the group count is untrusted: cap the
        // pre-allocation at about 2^20 fields; real groups past it still load.
        let reserve = header.groups.min((1 << 20) / (k + m));
        let mut groups = GroupHistograms::with_capacity(k, m, reserve);
        let (mut key, mut hist) = (Vec::with_capacity(k), Vec::with_capacity(m));
        for g in 0..header.groups {
            let after = g.checked_sub(1).map(|last| groups.key(last));
            parse_group_line(lines.next_line()?, schema, sa, after, (&mut key, &mut hist))
                .map_err(|message| lines.err(message))?;
            groups.push(&key, &hist);
        }
        let base_rows = count_rows(groups.iter().flat_map(|(_, hist)| hist));
        let base_rows = base_rows.ok_or_else(|| lines.err("group counts overflow u64".into()))?;
        let live = match lines.at_eof()? {
            true => None,
            false => Some(read_live(&mut lines, &header, base_rows)?),
        };
        let live_counts = live
            .iter()
            .flat_map(|l| &l.groups)
            .flat_map(|g| &g.group.published_hist);
        let rows = count_rows(live_counts).and_then(|live_rows| live_rows.checked_add(base_rows));
        if rows != Some(header.rows as u64) {
            let held = rows.map_or("more than u64::MAX".to_string(), |rows| rows.to_string());
            let (line, declared) = (header.rows_line, header.rows);
            let message = format!("the groups hold {held} rows but `rows` declares {declared}");
            return Err(PublicationError::Format { line, message });
        }
        Ok(Self {
            schema: header.schema,
            groups,
            sa,
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

const MAGIC: &str = "rp-publication v3";

/// The magics of the record-row formats this one replaced.
const RETIRED_MAGICS: [&str; 2] = ["rp-publication v1", "rp-publication v2"];

/// An artifact's header: every line before its group lines, checked.
struct Header {
    sa: AttrId,
    p: f64,
    params: PrivacyParams,
    seed: u64,
    stats: SpsStats,
    check: DesignCheck,
    schema: Schema,
    /// The declared record count, base and live.
    rows: usize,
    /// The line number of the `rows` line.
    rows_line: usize,
    /// The declared number of group lines.
    groups: usize,
}

fn read_header<R: BufRead>(lines: &mut Lines<R>) -> Result<Header, PublicationError> {
    let magic = lines.next_line()?;
    if magic != MAGIC {
        let message = match RETIRED_MAGICS.contains(&magic) {
            true => format!(
                "`{magic}` is a retired record-row artifact format; re-publish it as `{MAGIC}`"
            ),
            false => format!("expected magic `{MAGIC}`, got `{magic}`"),
        };
        return Err(PublicationError::Format { line: 1, message });
    }
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
        let message = format!("sa index {sa} out of range for arity {arity}");
        return Err(PublicationError::Format {
            line: sa_line,
            message,
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
    let rows_line = lines.line_no;
    let groups: usize = lines.field("groups")?.parse_one()?;
    Ok(Header {
        sa,
        p,
        params,
        seed,
        stats,
        check,
        schema: Schema::new(attributes),
        rows,
        rows_line,
        groups,
    })
}

/// Parses a snapshot's live section, validating it against the base part
/// already read: key domains, histogram arity `m`, and `base_rows` equal
/// to the `base` rows the group lines hold.
fn read_live<R: BufRead>(
    lines: &mut Lines<R>,
    header: &Header,
    base: u64,
) -> Result<LiveState, PublicationError> {
    let f = lines.field("live")?;
    let count: usize = f.parse_at(0)?;
    let base_rows: usize = f.parse_at(1)?;
    let wal_seq: u64 = f.parse_at(2)?;
    let inserted: u64 = f.parse_at(3)?;
    let republished: u64 = f.parse_at(4)?;
    if base_rows as u64 != base {
        return Err(f.error(format!(
            "live base_rows {base_rows} but the group lines hold {base} rows"
        )));
    }
    // Like the row count, the group count is untrusted: cap the
    // pre-allocation; real groups past the cap still load.
    let mut groups: Vec<GroupState> = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let f = lines.field("lgroup")?;
        let after = groups.last().map(|g| g.group.key.as_slice());
        let g = GroupState::parse(&f.values, &header.schema, header.sa, after)
            .map_err(|m| f.error(m))?;
        groups.push(g);
    }
    if !lines.at_eof()? {
        let message = "trailing content after the live section".to_string();
        return Err(PublicationError::Format {
            line: lines.line_no + 1,
            message,
        });
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

    /// The personal groups of `rows` over `schema`, with SA `sa`, grouped
    /// through an ordered map.
    fn groups_of(schema: &Schema, sa: AttrId, rows: &[Vec<u32>]) -> GroupHistograms {
        let m = schema.attribute(sa).domain_size();
        let mut by_key = std::collections::BTreeMap::new();
        for row in rows {
            let mut key = row.clone();
            let value = key.remove(sa);
            by_key.entry(key).or_insert_with(|| vec![0u64; m])[value as usize] += 1;
        }
        let mut groups = GroupHistograms::with_capacity(schema.arity() - 1, m, by_key.len());
        for (key, hist) in &by_key {
            groups.push(key, hist);
        }
        groups
    }

    fn demo_publication() -> Publication {
        let schema = Schema::new(vec![
            Attribute::new("Gender", ["male", "female"]),
            Attribute::new("Disease", ["flu", "hiv", "none"]),
        ]);
        let rows: Vec<Vec<u32>> = (0..50u32).map(|i| vec![i % 2, i % 3]).collect();
        Publication::from_parts(
            schema.clone(),
            groups_of(&schema, 1, &rows),
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

    fn saved(p: &Publication) -> Vec<u8> {
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        bytes
    }

    /// `bytes` with each 1-based line `n` of `edits` replaced by its bytes.
    fn with_lines(bytes: &[u8], edits: &[(usize, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
            match edits.iter().find(|&&(n, _)| n == i + 1) {
                Some(&(_, edit)) => {
                    out.extend_from_slice(edit);
                    out.push(b'\n');
                }
                None => out.extend_from_slice(line),
            }
        }
        out
    }

    #[test]
    fn save_load_round_trips_value() {
        let p = demo_publication();
        let p2 = Publication::load(&saved(&p)[..]).unwrap();
        assert_eq!(p, p2);
    }

    /// The record section is one line per personal group, its key then
    /// its SA counts.
    #[test]
    fn save_load_save_is_byte_identical() {
        let p = demo_publication();
        let first = saved(&p);
        let text = String::from_utf8(first.clone()).unwrap();
        assert!(
            text.starts_with("rp-publication v3\n")
                && text.ends_with("rows\t50\ngroups\t2\n0\t9\t8\t8\n1\t8\t9\t8\n"),
            "{text}"
        );
        let p2 = Publication::load(&first[..]).unwrap();
        assert_eq!(first, saved(&p2));
    }

    #[test]
    fn load_rejects_bad_magic() {
        let err = Publication::load(&b"not a publication\n"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn load_rejects_truncation() {
        let bytes = saved(&demo_publication());
        let cut = bytes.len() - 10;
        let err = Publication::load(&bytes[..cut]).unwrap_err();
        assert!(err.to_string().contains("end of input") || err.to_string().contains("bad"));
    }

    #[test]
    fn load_rejects_invalid_privacy_params_without_panicking() {
        let text = String::from_utf8(saved(&demo_publication())).unwrap();
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
        let text = String::from_utf8(saved(&demo_publication())).unwrap();
        // A huge claimed arity must fail cleanly (truncation), not panic
        // with a capacity overflow while pre-allocating.
        let broken = text.replace("attrs\t2\n", "attrs\t99999999999999999\n");
        assert_ne!(text, broken);
        let err = Publication::load(broken.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected `attr` line"), "{err}");
    }

    #[test]
    fn load_rejects_degenerate_shapes() {
        let text = String::from_utf8(saved(&demo_publication())).unwrap();
        // SA domain collapsed to one value: must fail at load, not panic
        // at answer time.
        let broken = text.replace("attr\tDisease\tflu\thiv\tnone\n", "attr\tDisease\tflu\n");
        assert_ne!(text, broken);
        let err = Publication::load(broken.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("at least 2 values"), "{err}");
    }

    /// Content past the last section is refused, whether it follows the
    /// group lines of a batch release or a snapshot's live section.
    #[test]
    fn load_rejects_trailing_content() {
        let mut batch = saved(&demo_publication());
        batch.extend_from_slice(b"0\t1\t0\t0\n");
        let err = Publication::load(&batch[..]).unwrap_err();
        assert_eq!(err.to_string(), "line 16: expected `live` line, got `0`");
        let mut snapshot = saved(&demo_v2_publication());
        snapshot.extend_from_slice(b"\n");
        let err = Publication::load(&snapshot[..]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 19: trailing content after the live section"
        );
    }

    /// Huge claimed row and group counts never allocate for what they
    /// claim: the rows never match the group lines, or the groups run
    /// out, with a clean error; and where the group lines do hold the
    /// declared rows, the release loads, holding them as counts, and
    /// saves back to the same bytes.
    #[test]
    fn load_caps_preallocation_from_untrusted_row_count() {
        let bytes = saved(&demo_publication());
        let max = u64::MAX;
        for (edits, want) in [
            (
                vec![(12, format!("rows\t{max}"))],
                format!("line 12: the groups hold 50 rows but `rows` declares {max}"),
            ),
            (
                vec![(13, format!("groups\t{max}"))],
                "line 16: unexpected end of input".to_string(),
            ),
        ] {
            let edits: Vec<(usize, &[u8])> =
                edits.iter().map(|(n, e)| (*n, e.as_bytes())).collect();
            let broken = with_lines(&bytes, &edits);
            let err = Publication::load(&broken[..]).unwrap_err();
            assert_eq!(err.to_string(), want);
        }
        // The second group line holds 25 rows: both artifacts add up.
        for rows in [max / 2, 1_000_000_000_000_000] {
            let (declared, group) = (format!("rows\t{rows}"), format!("0\t{}\t0\t0", rows - 25));
            let huge = with_lines(&bytes, &[(12, declared.as_bytes()), (14, group.as_bytes())]);
            let loaded = Publication::load(&huge[..]).unwrap();
            assert_eq!(loaded.records(), rows);
            assert_eq!(saved(&loaded), huge);
        }
    }

    #[test]
    fn load_rejects_out_of_domain_code() {
        let text = String::from_utf8(saved(&demo_publication())).unwrap();
        let broken = text.replace("\n1\t8\t9\t8\n", "\n9\t8\t9\t8\n");
        assert_ne!(text, broken, "fixture must contain the group line");
        let err = Publication::load(broken.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    /// Golden table of malformed group lines and counts: each case pins
    /// the whole message, line number included. Lines 12 and 13 are the
    /// `rows` and `groups` counts, lines 14 and 15 the two group lines.
    #[test]
    fn load_rejects_malformed_rows_with_exact_messages() {
        let bytes = saved(&demo_publication());
        let max = u64::MAX;
        let overflow = format!("0\t{max}\t1\t0");
        let at_max = format!("0\t{max}\t0\t0");
        for (edits, want) in [
            (
                vec![(14, &b"0\tx\t8\t8"[..])],
                "line 14: bad count `x`: invalid digit found in string",
            ),
            (
                vec![(14, b"0\t9\t8")],
                "line 14: group line needs 4 fields, got 3",
            ),
            (
                vec![(14, b"0\t9\t8\t8\t")],
                "line 14: group line needs 4 fields, got 5",
            ),
            (
                vec![(14, b"")],
                "line 14: bad key code ``: cannot parse integer from empty string",
            ),
            (
                vec![(14, b"2\t9\t8\t8")],
                "line 14: key code 2 out of range for attribute `Gender` (domain 2)",
            ),
            (
                vec![(14, b"x\t9\t8\t8")],
                "line 14: bad key code `x`: invalid digit found in string",
            ),
            (
                vec![(14, b"4294967296\t9\t8\t8")],
                "line 14: bad key code `4294967296`: number too large to fit in target type",
            ),
            (
                vec![(14, b"-1\t9\t8\t8")],
                "line 14: bad key code `-1`: invalid digit found in string",
            ),
            (
                vec![(14, b"0\t-9\t8\t8")],
                "line 14: bad count `-9`: invalid digit found in string",
            ),
            (
                vec![(14, b"0\t0\t0\t0")],
                "line 14: group histogram is all zero (an empty group has no line)",
            ),
            (
                vec![(14, overflow.as_bytes())],
                "line 15: group counts overflow u64",
            ),
            (
                vec![(14, at_max.as_bytes()), (15, b"1\t1\t0\t0")],
                "line 15: group counts overflow u64",
            ),
            (
                vec![(15, b"0\t8\t9\t8")],
                "line 15: group keys must be strictly increasing",
            ),
            (
                vec![(14, b"1\t9\t8\t8"), (15, b"0\t8\t9\t8")],
                "line 15: group keys must be strictly increasing",
            ),
            (
                vec![(15, b"1\t8\t9\t\xff")],
                "I/O error: stream did not contain valid UTF-8",
            ),
            (
                vec![(14, b"0\t9\t8\t7")],
                "line 12: the groups hold 49 rows but `rows` declares 50",
            ),
            (
                vec![(12, b"rows\t51")],
                "line 12: the groups hold 50 rows but `rows` declares 51",
            ),
            (vec![(13, b"groups\t3")], "line 16: unexpected end of input"),
            (
                vec![(13, b"groups\t1")],
                "line 15: expected `live` line, got `1`",
            ),
            (
                vec![(13, b"group\t2")],
                "line 13: expected `groups` line, got `group`",
            ),
        ] {
            let broken = with_lines(&bytes, &edits);
            let err = Publication::load(&broken[..]).unwrap_err();
            assert_eq!(err.to_string(), want, "{edits:?}");
        }
    }

    /// Forms `str::parse` accepts keep loading as the same release: a
    /// leading `+` and leading zeros in a group line, CRLF endings, a
    /// missing final newline.
    #[test]
    fn load_accepts_every_form_str_parse_accepts() {
        let p = demo_publication();
        let bytes = saved(&p);
        let text = String::from_utf8(bytes.clone()).unwrap();
        let plus = with_lines(&bytes, &[(14, b"+0\t+9\t8\t8")]);
        let zeros = with_lines(&bytes, &[(15, b"0001\t008\t09\t0000000000008")]);
        let crlf = text.replace('\n', "\r\n").into_bytes();
        let cr_runs = text.replace('\n', "\r\r\n").into_bytes();
        let unterminated = bytes[..bytes.len() - 1].to_vec();
        for bytes in [plus, zeros, crlf, cr_runs, unterminated] {
            let loaded = Publication::load(&bytes[..]).unwrap();
            assert_eq!(loaded, p, "{:?}", String::from_utf8_lossy(&bytes));
        }
    }

    /// A reader whose every other read is interrupted, as a read of a pipe
    /// can be by a signal: the artifact loads as from memory, because an
    /// interrupted fill is retried like an interrupted `read_until`. A
    /// one-byte buffer is empty at the end of every line.
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
        for p in [demo_publication(), demo_v2_publication()] {
            let bytes = saved(&p);
            let reader = BufReader::with_capacity(1, Interrupting(&bytes, false));
            assert_eq!(Publication::load(reader).unwrap(), p);
        }
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
        let sa = rng.gen_range(0..arity);
        let rows: Vec<Vec<u32>> = (0..rng.gen_range(0..200))
            .map(|_| {
                domains
                    .iter()
                    .map(|&d| rng.gen_range(0..d) as u32)
                    .collect()
            })
            .collect();
        Publication::from_parts(
            schema.clone(),
            groups_of(&schema, sa, &rows),
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
            let first = saved(&p);
            let loaded = Publication::load(&first[..]).unwrap();
            proptest::prop_assert_eq!(&loaded, &p);
            proptest::prop_assert_eq!(first, saved(&loaded));
        }
    }

    #[test]
    fn unrepresentable_values_refused_at_save() {
        let schema = Schema::new(vec![
            Attribute::new("A", ["x\ty"]),
            Attribute::new("B", ["u", "v"]),
        ]);
        let p = Publication::from_parts(
            schema,
            GroupHistograms::with_capacity(1, 2, 0),
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

    /// A snapshot: the 50 base records plus two live groups holding 5.
    fn demo_v2_publication() -> Publication {
        let base = demo_publication();
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
            base.schema().clone(),
            base.groups().clone(),
            1,
            0.5,
            PrivacyParams::new(0.3, 0.3),
            42,
            SpsStats::default(),
            DesignCheck::default(),
        )
        .with_live(live)
    }

    /// A snapshot's group lines hold its base groups alone: its live
    /// groups are in its `lgroup` lines and are not written twice.
    #[test]
    fn v2_save_load_round_trips_value_and_bytes() {
        let p = demo_v2_publication();
        let bytes = saved(&p);
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(
            text.contains("rows\t55\ngroups\t2\n0\t9\t8\t8\n1\t8\t9\t8\nlive\t2\t50\t7\t5\t1\n"),
            "{text}"
        );
        let p2 = Publication::load(&bytes[..]).unwrap();
        assert_eq!(p, p2);
        assert_eq!(p2.live().unwrap().groups.len(), 2);
        assert_eq!(bytes, saved(&p2), "save ∘ load must be byte-identical");
    }

    /// An artifact of the record-row formats v3 replaced is refused, by
    /// its magic, with the advice to re-publish.
    #[test]
    fn retired_formats_are_refused_by_their_magic() {
        let bytes = saved(&demo_publication());
        for version in [1, 2] {
            let magic = format!("rp-publication v{version}");
            let broken = with_lines(&bytes, &[(1, magic.as_bytes())]);
            let err = Publication::load(&broken[..]).unwrap_err();
            assert!(matches!(err, PublicationError::Format { line: 1, .. }));
            assert_eq!(
                err.to_string(),
                format!(
                    "line 1: `{magic}` is a retired record-row artifact format; \
                     re-publish it as `rp-publication v3`"
                )
            );
        }
    }

    #[test]
    fn v2_rejects_inconsistent_live_sections() {
        let text = String::from_utf8(saved(&demo_v2_publication())).unwrap();
        for (needle, replacement, expect) in [
            // Published sums no longer match the non-base rows.
            (
                "\t2\t0\t1\t3735928559",
                "\t9\t0\t1\t3735928559",
                "line 12: the groups hold 62 rows but `rows` declares 55",
            ),
            // Unknown status token.
            ("\t3735928559\tc\t3", "\t3735928559\tz\t3", "bad status"),
            // base_rows other than the rows of the group lines.
            (
                "live\t2\t50\t7",
                "live\t2\t5000\t7",
                "live base_rows 5000 but the group lines hold 50 rows",
            ),
            (
                "live\t2\t50\t7",
                "live\t2\t49\t7",
                "the group lines hold 50 rows",
            ),
            // Key out of the attribute domain.
            ("lgroup\t1\t0\t2\t0", "lgroup\t7\t0\t2\t0", "out of range"),
            // Truncated live section: fewer lgroup lines than declared.
            ("live\t2\t50\t7", "live\t3\t50\t7", "end of input"),
            // Live counts that overflow.
            (
                "\t2\t0\t1\t3735928559",
                "\t18446744073709551615\t0\t1\t3735928559",
                "line 12: the groups hold more than u64::MAX rows",
            ),
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

    /// The one expansion of a release into records: base groups, then
    /// live groups, each in key order and each group's records in SA
    /// code order.
    #[test]
    fn table_expands_base_then_live_groups_in_key_then_sa_order() {
        let snapshot = demo_v2_publication();
        let table = snapshot.table();
        assert_eq!(table.rows() as u64, snapshot.records());
        let rows: Vec<Vec<u32>> = (0..table.rows()).map(|r| table.row(r).unwrap()).collect();
        let mut want = Vec::new();
        for (key, hist) in [
            (0, [9, 8, 8]),
            (1, [8, 9, 8]),
            (0, [2, 0, 1]),
            (1, [0, 2, 0]),
        ] {
            for (sa, &count) in (0u32..).zip(&hist) {
                want.extend(std::iter::repeat_n(vec![key, sa], count));
            }
        }
        assert_eq!(rows, want);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_refuses_groups_out_of_key_order() {
        let schema = demo_publication().schema().clone();
        let mut groups = GroupHistograms::with_capacity(1, 3, 2);
        groups.push(&[1], &[1, 0, 0]);
        groups.push(&[0], &[1, 0, 0]);
        let params = PrivacyParams::new(0.3, 0.3);
        let (stats, check) = (SpsStats::default(), DesignCheck::default());
        Publication::from_parts(schema, groups, 1, 0.5, params, 0, stats, check);
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
