//! The long-lived [`QueryEngine`]: answer many Section-6 count queries
//! from one release without rescanning it.
//!
//! Construction pays the preprocessing once — the personal-group keys and
//! SA histograms of the published table (the engine keeps only keys and
//! histograms, the per-group reconstruction substrate; a direct-addressable
//! key space builds them in one pass with no member row lists), plus
//! per-`(NA attribute, code)` selection bitmaps over the group keys.
//! Since an answer needs nothing of a release but those histograms,
//! [`QueryEngine::open`], the open `rpctl serve` and `rpctl query` run,
//! counts them straight from a saved artifact's record rows as they are
//! parsed and never builds the table; [`QueryEngine::new`] builds the same
//! engine from a loaded [`Publication`]. The
//! histograms are stored SA-major, one contiguous column of group counts
//! per SA value, beside the marginals of every `(NA attribute, code)`
//! and of the whole release. A query that pins at most one NA column
//! reads its marginal in one step; any other is answered by ANDing its
//! terms' cached bitmaps word by word into a stack buffer, 64 groups per
//! word and no bitmap copied, and by adding each matching group's size
//! and its entry of the queried SA column — never key by key. Singles,
//! batches and Section-6 pools are all counted this one way
//! ([`QueryEngine::answer`]).
//!
//! Construction also builds the condition index: one flat open-addressing
//! table over every `(column, value)` pair of the schema, mapping each to
//! its `(attribute, code)`. A query condition is resolved by one probe
//! under a fixed, unkeyed hash of the pair. Unkeyed is safe because the
//! keys are the release's own schema: a client can only probe the table,
//! never insert into it. The table is keyed on the pair, not on the text
//! `column=value`, so a column name containing `=` cannot alias another
//! pair. [`QueryEngine::query_from_values`], the borrowed line path and the
//! owned request path of the service all resolve through it; a miss asks
//! [`Schema::attr_id`] only to tell an unknown column from an unknown
//! value. The served path resolves a whole line into one flat buffer of
//! terms and counts straight from it, with no [`CountQuery`] built and no
//! code validated twice.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::io::BufRead;

use rp_core::estimate::GroupedView;
use rp_core::groups::{PersonalGroups, SaSpec};
use rp_core::mle::reconstruct_frequency;
use rp_core::variance::{confidence_interval_z, critical_value, ConfidenceInterval};
use rp_table::{AttrId, CountQuery, GroupCounts, Schema, TableError, Term};

use crate::publication::{read_artifact, Header, Publication, PublicationError};

/// Confidence level of every answer's interval.
const CI_LEVEL: f64 = 0.95;

/// One answered count query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// The Section-6 estimate `est = |S*| · F′` (0 on empty support).
    pub estimate: f64,
    /// `|S*|` — published records matching the NA conditions (exact; public
    /// attributes are never perturbed).
    pub support: u64,
    /// `O*` — records in `S*` carrying the queried SA value.
    pub observed: u64,
    /// The reconstructed frequency `F′` (0 on empty support).
    pub frequency: f64,
    /// 95% confidence interval for `F′` (`None` on empty support).
    pub ci: Option<ConfidenceInterval>,
}

impl Answer {
    /// The estimate's 95% interval in record counts, if available.
    pub fn count_interval(&self) -> Option<(f64, f64)> {
        self.ci
            .map(|ci| (self.support as f64 * ci.lo, self.support as f64 * ci.hi))
    }
}

/// A validated query list, fingerprinted so that [`QueryEngine::answer_batch`]
/// answers exactly the list it was prepared for: a different (even
/// same-length) or reordered list is a [`EngineError::PreparedMismatch`].
/// It holds no match state, so it is valid on any engine over the same
/// schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedQueries {
    len: usize,
    fingerprint: u64,
}

/// Order-sensitive hash of a query list, for prepared-batch validation.
fn fingerprint(queries: &[CountQuery]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for q in queries {
        q.hash(&mut hasher);
    }
    hasher.finish()
}

impl PreparedQueries {
    /// Number of prepared queries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no queries were prepared.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Errors raised by query answering.
#[derive(Debug)]
pub enum EngineError {
    /// The query failed schema validation.
    Table(TableError),
    /// The query's SA attribute is not the publication's SA attribute.
    SaMismatch {
        /// The publication's sensitive attribute.
        expected: AttrId,
        /// The query's sensitive attribute.
        got: AttrId,
    },
    /// A query line or condition list named no SA condition.
    MissingSaCondition {
        /// The sensitive attribute's name.
        sa_name: String,
    },
    /// A query named the SA condition more than once.
    DuplicateSaCondition {
        /// The sensitive attribute's name.
        sa_name: String,
    },
    /// A query named the same NA column more than once (conjunctive
    /// equality conditions on one column cannot both hold).
    DuplicateCondition {
        /// The repeated column's name.
        name: String,
    },
    /// Prepared queries were validated for a different query list.
    PreparedMismatch {
        /// What was inconsistent.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Table(e) => write!(f, "{e}"),
            EngineError::SaMismatch { expected, got } => write!(
                f,
                "query counts SA attribute {got} but the publication's SA is {expected}"
            ),
            EngineError::MissingSaCondition { sa_name } => {
                write!(f, "query needs a condition on the SA column `{sa_name}`")
            }
            EngineError::DuplicateSaCondition { sa_name } => {
                write!(f, "query names the SA column `{sa_name}` more than once")
            }
            EngineError::DuplicateCondition { name } => {
                write!(f, "query names the column `{name}` more than once")
            }
            EngineError::PreparedMismatch { detail } => {
                write!(f, "prepared queries do not match: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Table(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TableError> for EngineError {
    fn from(e: TableError) -> Self {
        EngineError::Table(e)
    }
}

/// One step of [`pair_hash`]: `h` mixed with the word `w` by a folded
/// 64×64→128-bit multiply.
fn fold(h: u64, w: u64) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let x = u128::from(h ^ w) * u128::from(K);
    (x as u64) ^ ((x >> 64) as u64)
}

/// `h` mixed with the length and every byte of `s`: eight bytes at a
/// time, then a tail of up to seven read as two overlapping four-byte
/// words (or byte by byte below four), so no byte is copied.
fn fold_str(h: u64, s: &str) -> u64 {
    let mut bytes = s.as_bytes();
    let mut h = fold(h, bytes.len() as u64);
    while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
        h = fold(h, u64::from_le_bytes(*word));
        bytes = rest;
    }
    let tail = match (bytes.first_chunk::<4>(), bytes.last_chunk::<4>()) {
        (Some(lo), Some(hi)) => {
            u64::from(u32::from_le_bytes(*lo)) | u64::from(u32::from_le_bytes(*hi)) << 32
        }
        _ => bytes.iter().fold(0, |t, &b| t << 8 | u64::from(b)),
    };
    fold(h, tail)
}

/// A fixed, unkeyed hash of a `(column, value)` pair. Each string's
/// length is mixed in ahead of its bytes, so the two strings of a pair
/// never run together.
fn pair_hash(column: &str, value: &str) -> u64 {
    fold_str(fold_str(0, column), value)
}

/// A vacant slot of the [`ConditionIndex`].
const VACANT: u32 = u32::MAX;

/// Every `(column, value)` pair of a schema in one flat open-addressing
/// table (see the module docs): each slot holds an `(attribute, code)`
/// or is [`VACANT`], and the table is at most half full, so a probe ends
/// at a vacant slot within a few steps. A slot stores no text: a probe
/// compares the column name and the value it reaches in the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ConditionIndex {
    slots: Vec<(u32, u32)>,
}

impl ConditionIndex {
    fn new(schema: &Schema) -> Self {
        let pairs: usize = schema.iter().map(|(_, a)| a.domain_size()).sum();
        let len = (2 * pairs).next_power_of_two().max(2);
        let mut slots = vec![(VACANT, 0); len];
        for (attr, attribute) in schema.iter() {
            for (code, value) in attribute.dictionary().iter() {
                let mut i = pair_hash(attribute.name(), value) as usize;
                while let Some(slot) = slots.get_mut(i & (len - 1)) {
                    if slot.0 == VACANT {
                        *slot = (attr as u32, code);
                        break;
                    }
                    i += 1;
                }
            }
        }
        Self { slots }
    }

    /// The `(attribute, code)` of `column = value` in `schema` (the schema
    /// the index was built over), or `None` if it names no pair.
    fn get(&self, schema: &Schema, column: &str, value: &str) -> Option<(AttrId, u32)> {
        let mask = self.slots.len() - 1;
        let mut i = pair_hash(column, value) as usize;
        loop {
            let &(attr, code) = self.slots.get(i & mask)?;
            if attr == VACANT {
                return None;
            }
            let attribute = schema.get(attr as usize).ok()?;
            if attribute.name() == column
                && attribute
                    .dictionary()
                    .value(code)
                    .is_some_and(|v| v == value)
            {
                return Some((attr as usize, code));
            }
            i += 1;
        }
    }
}

/// The queries of one request resolved to terms: every query's NA terms
/// back to back in one buffer, and per query the end of its terms and its
/// SA code. A serving session keeps one and clears it for each line, so
/// once it has held the session's longest line, resolving a line
/// allocates nothing, whatever its query count.
#[derive(Debug, Default)]
pub(crate) struct ResolvedQueries {
    terms: Vec<(AttrId, Term)>,
    queries: Vec<(usize, u32)>,
    /// The SA code of the query being resolved, once it is named.
    open_sa: Option<u32>,
}

impl ResolvedQueries {
    /// Room for `queries` queries of `conditions` conditions in all.
    pub(crate) fn with_capacity(queries: usize, conditions: usize) -> Self {
        Self {
            terms: Vec::with_capacity(conditions),
            queries: Vec::with_capacity(queries),
            open_sa: None,
        }
    }

    /// Empties the buffer for the next request, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.terms.clear();
        self.queries.clear();
        self.open_sa = None;
    }

    /// The number of resolved queries.
    pub(crate) fn len(&self) -> usize {
        self.queries.len()
    }

    /// Each resolved query's NA terms and SA code, in request order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[(AttrId, Term)], u32)> + '_ {
        self.queries.iter().scan(0, |start, &(end, sa)| {
            let terms = self.terms.get(*start..end).unwrap_or_default();
            *start = end;
            Some((terms, sa))
        })
    }

    /// The NA terms of the query being resolved.
    fn open_terms(&self) -> &[(AttrId, Term)] {
        let start = self.queries.last().map_or(0, |&(end, _)| end);
        self.terms.get(start..).unwrap_or_default()
    }
}

/// A query-answering service over one release.
///
/// Holds the published schema, the condition index, the estimator
/// parameters and the per-group SA histograms, and answers count queries
/// ([`QueryEngine::answer`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEngine {
    schema: Schema,
    sa: AttrId,
    m: usize,
    p: f64,
    /// [`critical_value`]`(CI_LEVEL)`, computed once per engine rather
    /// than once per answer.
    z: f64,
    view: GroupedView,
    index: ConditionIndex,
}

impl QueryEngine {
    /// Builds the engine from a release: one pass over the published
    /// table keeps each personal group's key and SA histogram, and nothing
    /// else of the table; the condition index is built over its schema.
    pub fn new(publication: &Publication) -> Self {
        let spec = publication.spec();
        let view = GroupedView::from_table(publication.table(), &spec);
        Self::over_view(publication.schema(), &spec, publication.p(), view)
    }

    /// Opens a saved release straight into an engine, building no table:
    /// each record row, parsed in the reader's buffer, adds one to its
    /// personal group's SA histogram (`rp_table::GroupCounts`), and a row
    /// that repeats the row before it adds one to the same cell. The
    /// engine equals `QueryEngine::new(&Publication::load(r)?)`, and the
    /// two reads share every check, so a bad artifact fails with the
    /// same error and line.
    ///
    /// # Errors
    ///
    /// As [`Publication::load`].
    pub fn open<R: BufRead>(r: R) -> Result<Self, PublicationError> {
        Self::open_release(r).map(|(engine, _)| engine)
    }

    /// [`QueryEngine::open`], with the artifact's header.
    pub(crate) fn open_release<R: BufRead>(r: R) -> Result<(Self, Header), PublicationError> {
        let (header, counts, _) = read_artifact(r, |h| GroupCounts::new(&h.schema, h.sa, h.rows))?;
        let spec = SaSpec::for_schema(&header.schema, header.sa);
        let (keys, hists) = counts.finish();
        let view = GroupedView::assemble(&spec, keys, hists);
        Ok((
            Self::over_view(&header.schema, &spec, header.p, view),
            header,
        ))
    }

    fn over_view(schema: &Schema, spec: &SaSpec, p: f64, view: GroupedView) -> Self {
        Self {
            schema: schema.clone(),
            sa: spec.sa(),
            m: spec.m(),
            p,
            z: critical_value(CI_LEVEL),
            view,
            index: ConditionIndex::new(schema),
        }
    }

    /// Builds the engine directly from histogram-level perturbation output
    /// (`up_histograms` / `sps_histograms`) — the fast path of the paper's
    /// parameter sweeps, which never materializes published records.
    ///
    /// `groups` is the *raw* table's grouping (for the keys), `hists` one
    /// perturbed histogram per group, `schema` the published schema.
    ///
    /// # Panics
    ///
    /// Panics if `hists` is not aligned with `groups` or `p` is outside
    /// `(0, 1)`.
    pub fn from_histograms(
        groups: &PersonalGroups,
        hists: Vec<Vec<u64>>,
        schema: &Schema,
        p: f64,
    ) -> Self {
        assert!(p > 0.0 && p < 1.0, "retention must lie in (0, 1), got {p}");
        let view = GroupedView::from_histograms(groups, hists);
        Self::over_view(schema, groups.spec(), p, view)
    }

    /// The published schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The sensitive attribute index.
    pub fn sa(&self) -> AttrId {
        self.sa
    }

    /// The retention probability used by the estimator.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Records in the release the engine answers from.
    pub fn records(&self) -> u64 {
        self.view.total_records()
    }

    /// Personal groups in the release.
    pub fn groups(&self) -> usize {
        self.view.len()
    }

    /// The underlying grouped view (for statistics consumers such as
    /// `rp-learn`'s sufficient-statistics extraction).
    pub fn view(&self) -> &GroupedView {
        &self.view
    }

    /// The SA column's name, for the errors that cite it.
    fn sa_name(&self) -> String {
        self.schema.attribute(self.sa).name().to_string()
    }

    fn validate(&self, query: &CountQuery) -> Result<(), EngineError> {
        if query.sa_attr() != self.sa {
            return Err(EngineError::SaMismatch {
                expected: self.sa,
                got: query.sa_attr(),
            });
        }
        query.validate(&self.schema)?;
        Ok(())
    }

    /// `(support, observed)` of the release subset matching the query —
    /// the raw counts behind [`QueryEngine::answer`], exposed so a
    /// streaming service can combine them with the live view's counts.
    ///
    /// # Errors
    ///
    /// As [`QueryEngine::answer`].
    pub fn counts(&self, query: &CountQuery) -> Result<(u64, u64), EngineError> {
        self.validate(query)?;
        Ok(self.view.support_and_observed(query))
    }

    /// `(support, observed)` of resolved NA `terms` and SA code `sa`, with
    /// no validation: the terms come from [`QueryEngine::resolve_condition`],
    /// whose codes are the schema's own.
    pub(crate) fn counts_terms(&self, terms: &[(AttrId, Term)], sa: u32) -> (u64, u64) {
        self.view.support_and_observed_terms(terms, sa)
    }

    /// Builds the Section-6 answer from raw `(support, observed)` counts
    /// using this release's estimator parameters. The merge point of the
    /// streaming path: a live service sums the base release's counts with
    /// the live groups' counts and estimates over the union.
    pub fn answer_from_counts(&self, support: u64, observed: u64) -> Answer {
        if support == 0 {
            return Answer {
                estimate: 0.0,
                support: 0,
                observed,
                frequency: 0.0,
                ci: None,
            };
        }
        let frequency = reconstruct_frequency(observed, support, self.p, self.m);
        Answer {
            estimate: support as f64 * frequency,
            support,
            observed,
            frequency,
            ci: Some(confidence_interval_z(
                frequency, support, self.p, self.m, CI_LEVEL, self.z,
            )),
        }
    }

    /// Answers one count query.
    ///
    /// # Errors
    ///
    /// Returns an error if the query fails schema validation or counts a
    /// different SA attribute than the release.
    pub fn answer(&self, query: &CountQuery) -> Result<Answer, EngineError> {
        self.validate(query)?;
        let (support, observed) = self.view.support_and_observed(query);
        Ok(self.answer_from_counts(support, observed))
    }

    /// Builds a count query from `(column name, value)` conditions.
    /// Exactly one condition must name the SA column; the rest become NA
    /// equality conditions, sorted by attribute, so the query is canonical:
    /// condition order never changes it (it is the answer cache's key).
    ///
    /// # Errors
    ///
    /// Returns an error on unknown columns or values, or if the SA column
    /// appears zero or multiple times.
    pub fn query_from_values(
        &self,
        conditions: &[(&str, &str)],
    ) -> Result<CountQuery, EngineError> {
        let mut resolved = ResolvedQueries::with_capacity(1, conditions.len());
        for &(col, value) in conditions {
            self.resolve_condition(&mut resolved, col, value)?;
        }
        self.end_query(&mut resolved)?;
        let (terms, sa) = resolved.iter().next().unwrap_or_default();
        self.canonical_query(terms, sa)
    }

    /// Resolves one condition of the query `resolved` has open through the
    /// condition index: the SA condition sets the query's SA code, any
    /// other appends an NA term. The first failing condition of a query
    /// fails it; its value is looked up before a repeated column is
    /// reported.
    pub(crate) fn resolve_condition(
        &self,
        resolved: &mut ResolvedQueries,
        col: &str,
        value: &str,
    ) -> Result<(), EngineError> {
        let Some((attr, code)) = self.index.get(&self.schema, col, value) else {
            return Err(EngineError::Table(match self.schema.attr_id(col) {
                Err(unknown) => unknown,
                Ok(_) => TableError::UnknownValue {
                    attribute: col.to_string(),
                    value: value.to_string(),
                },
            }));
        };
        if attr == self.sa {
            if resolved.open_sa.replace(code).is_some() {
                return Err(EngineError::DuplicateSaCondition {
                    sa_name: self.sa_name(),
                });
            }
        } else {
            // Pattern construction rejects duplicate attributes with a
            // panic; catch them here as a typed error instead.
            if resolved.open_terms().iter().any(|&(a, _)| a == attr) {
                return Err(EngineError::DuplicateCondition {
                    name: col.to_string(),
                });
            }
            resolved.terms.push((attr, Term::Value(code)));
        }
        Ok(())
    }

    /// Closes the query `resolved` has open.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingSaCondition`] if it named no SA condition.
    pub(crate) fn end_query(&self, resolved: &mut ResolvedQueries) -> Result<(), EngineError> {
        let Some(sa) = resolved.open_sa.take() else {
            return Err(EngineError::MissingSaCondition {
                sa_name: self.sa_name(),
            });
        };
        resolved.queries.push((resolved.terms.len(), sa));
        Ok(())
    }

    /// The canonical count query of resolved NA `terms` and SA code `sa`:
    /// NA conditions sorted by attribute.
    pub(crate) fn canonical_query(
        &self,
        terms: &[(AttrId, Term)],
        sa: u32,
    ) -> Result<CountQuery, EngineError> {
        let mut na: Vec<(AttrId, u32)> = terms
            .iter()
            .filter_map(|&(attr, term)| match term {
                Term::Value(code) => Some((attr, code)),
                Term::Wildcard => None,
            })
            .collect();
        na.sort_unstable_by_key(|&(attr, _)| attr);
        Ok(CountQuery::new(na, self.sa, sa)?)
    }

    /// Validates a query list once and fingerprints it for
    /// [`QueryEngine::answer_batch`]. Kept, with `answer_batch`, only
    /// because the `perfbench` harness still times the pair; removed once
    /// the harness stops doing so.
    ///
    /// # Errors
    ///
    /// Returns the first query validation failure.
    pub fn prepare(&self, queries: &[CountQuery]) -> Result<PreparedQueries, EngineError> {
        for q in queries {
            self.validate(q)?;
        }
        Ok(PreparedQueries {
            len: queries.len(),
            fingerprint: fingerprint(queries),
        })
    }

    /// Answers a prepared batch, each query through [`QueryEngine::answer`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PreparedMismatch`] if `prepared` was built
    /// for a different query list, and otherwise any error of
    /// [`QueryEngine::answer`].
    pub fn answer_batch(
        &self,
        queries: &[CountQuery],
        prepared: &PreparedQueries,
    ) -> Result<Vec<Answer>, EngineError> {
        if prepared.len != queries.len() {
            return Err(EngineError::PreparedMismatch {
                detail: format!(
                    "prepared {} queries, batch has {}",
                    prepared.len,
                    queries.len()
                ),
            });
        }
        if prepared.fingerprint != fingerprint(queries) {
            return Err(EngineError::PreparedMismatch {
                detail: "prepared for a different query list".to_string(),
            });
        }
        queries.iter().map(|q| self.answer(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publisher::Publisher;
    use rp_core::estimate::estimate_by_scan;
    use rp_table::{Attribute, Schema, Table, TableBuilder};

    fn demo_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("G", ["a", "b"]),
            Attribute::new("J", ["x", "y"]),
            Attribute::new("SA", ["s0", "s1", "s2", "s3"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..1200u32 {
            b.push_codes(&[0, 0, (i % 2) * 2]).unwrap();
        }
        for i in 0..800u32 {
            b.push_codes(&[1, 1, if i % 4 == 0 { 3 } else { 1 }])
                .unwrap();
        }
        b.build()
    }

    fn demo_publication() -> crate::Publication {
        Publisher::new(demo_table())
            .sa(2)
            .seed(9)
            .publish()
            .unwrap()
    }

    #[test]
    fn engine_matches_scan_estimates_exactly() {
        let publication = demo_publication();
        let engine = QueryEngine::new(&publication);
        for q in [
            CountQuery::new(vec![(0, 0)], 2, 0).unwrap(),
            CountQuery::new(vec![(0, 1), (1, 1)], 2, 1).unwrap(),
            CountQuery::new(vec![], 2, 3).unwrap(),
        ] {
            let scan = estimate_by_scan(publication.table(), &q, publication.p());
            let a = engine.answer(&q).unwrap();
            assert!((a.estimate - scan).abs() < 1e-9, "{a:?} vs {scan}");
        }
    }

    #[test]
    fn empty_support_answers_zero_without_ci() {
        let publication = demo_publication();
        let engine = QueryEngine::new(&publication);
        // G=a ∧ J=y never occurs.
        let q = CountQuery::new(vec![(0, 0), (1, 1)], 2, 0).unwrap();
        let a = engine.answer(&q).unwrap();
        assert_eq!(a.support, 0);
        assert_eq!(a.estimate, 0.0);
        assert!(a.ci.is_none());
        assert!(a.count_interval().is_none());
    }

    #[test]
    fn answers_carry_confidence_intervals() {
        let publication = demo_publication();
        let engine = QueryEngine::new(&publication);
        let q = CountQuery::new(vec![(0, 0)], 2, 0).unwrap();
        let a = engine.answer(&q).unwrap();
        // The group was sampled and rescaled, so support is near (not
        // exactly) the original 1200.
        assert!((a.support as f64 - 1200.0).abs() < 150.0, "{a:?}");
        let ci = a.ci.unwrap();
        assert!(ci.contains(a.frequency));
        let (lo, hi) = a.count_interval().unwrap();
        assert!(lo <= a.estimate && a.estimate <= hi);
    }

    #[test]
    fn answer_intervals_are_bit_identical_to_confidence_interval() {
        use rp_core::variance::confidence_interval;
        let publication = demo_publication();
        let engine = QueryEngine::new(&publication);
        let (p, m) = (engine.p, engine.m);
        for support in [1u64, 2, 3, 7, 10, 99, 1_000, 4_096, 65_537, 1_000_000] {
            let step = (support / 16).max(1);
            let observed = (0..=support).step_by(step as usize).chain([support]);
            for observed in observed {
                let a = engine.answer_from_counts(support, observed);
                let ci = a.ci.expect("non-empty support");
                let want = confidence_interval(a.frequency, support, p, m, 0.95);
                assert_eq!(ci.lo.to_bits(), want.lo.to_bits(), "{support}/{observed}");
                assert_eq!(ci.hi.to_bits(), want.hi.to_bits(), "{support}/{observed}");
            }
        }
    }

    #[test]
    fn batch_matches_single_answers() {
        let publication = demo_publication();
        let engine = QueryEngine::new(&publication);
        let queries = vec![
            CountQuery::new(vec![(0, 0)], 2, 0).unwrap(),
            CountQuery::new(vec![(1, 1)], 2, 1).unwrap(),
            CountQuery::new(vec![(0, 1), (1, 0)], 2, 2).unwrap(),
        ];
        let prepared = engine.prepare(&queries).unwrap();
        let batch = engine.answer_batch(&queries, &prepared).unwrap();
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(&engine.answer(q).unwrap(), b);
        }
    }

    #[test]
    fn wrong_sa_and_invalid_codes_rejected() {
        let publication = demo_publication();
        let engine = QueryEngine::new(&publication);
        let wrong_sa = CountQuery::new(vec![(0, 0)], 1, 0).unwrap();
        assert!(matches!(
            engine.answer(&wrong_sa),
            Err(EngineError::SaMismatch {
                expected: 2,
                got: 1
            })
        ));
        let bad_code = CountQuery::new(vec![(0, 7)], 2, 0).unwrap();
        assert!(matches!(
            engine.answer(&bad_code),
            Err(EngineError::Table(_))
        ));
    }

    #[test]
    fn query_from_values_splits_na_and_sa() {
        let publication = demo_publication();
        let engine = QueryEngine::new(&publication);
        let q = engine
            .query_from_values(&[("G", "a"), ("SA", "s0")])
            .unwrap();
        assert_eq!(q.sa_attr(), 2);
        assert_eq!(q.sa_value(), 0);
        assert_eq!(q.dimensionality(), 1);
        // NA conditions come back sorted by attribute whatever their order,
        // so the query is the answer cache's canonical key.
        assert_eq!(
            engine
                .query_from_values(&[("J", "y"), ("SA", "s1"), ("G", "b")])
                .unwrap(),
            CountQuery::new(vec![(0, 1), (1, 1)], 2, 1).unwrap()
        );
        assert!(matches!(
            engine.query_from_values(&[("G", "a")]),
            Err(EngineError::MissingSaCondition { .. })
        ));
        assert!(matches!(
            engine.query_from_values(&[("SA", "s0"), ("SA", "s1")]),
            Err(EngineError::DuplicateSaCondition { .. })
        ));
        // A repeated NA column must be a typed error, never the Pattern
        // duplicate-attribute panic.
        assert!(matches!(
            engine.query_from_values(&[("G", "a"), ("G", "a"), ("SA", "s0")]),
            Err(EngineError::DuplicateCondition { .. })
        ));
        assert!(matches!(
            engine.query_from_values(&[("Nope", "a"), ("SA", "s0")]),
            Err(EngineError::Table(TableError::UnknownAttribute(_)))
        ));
        assert!(matches!(
            engine.query_from_values(&[("G", "zzz"), ("SA", "s0")]),
            Err(EngineError::Table(TableError::UnknownValue { .. }))
        ));
    }

    #[test]
    fn prepared_mismatch_detected() {
        let publication = demo_publication();
        let engine = QueryEngine::new(&publication);
        let queries = vec![CountQuery::new(vec![(0, 0)], 2, 0).unwrap()];
        let prepared = engine.prepare(&queries).unwrap();
        let more = vec![
            CountQuery::new(vec![(0, 0)], 2, 0).unwrap(),
            CountQuery::new(vec![(0, 1)], 2, 1).unwrap(),
        ];
        assert!(matches!(
            engine.answer_batch(&more, &prepared),
            Err(EngineError::PreparedMismatch { .. })
        ));
        // Same length, different queries: the fingerprint catches it.
        let different = vec![CountQuery::new(vec![(0, 1)], 2, 3).unwrap()];
        assert!(matches!(
            engine.answer_batch(&different, &prepared),
            Err(EngineError::PreparedMismatch { .. })
        ));
        // Reordering is also a mismatch (answers align by position).
        let two = vec![
            CountQuery::new(vec![(0, 0)], 2, 0).unwrap(),
            CountQuery::new(vec![(1, 1)], 2, 1).unwrap(),
        ];
        let prepared_two = engine.prepare(&two).unwrap();
        let reordered: Vec<CountQuery> = two.iter().rev().cloned().collect();
        assert!(matches!(
            engine.answer_batch(&reordered, &prepared_two),
            Err(EngineError::PreparedMismatch { .. })
        ));
        assert!(engine.answer_batch(&two, &prepared_two).is_ok());
    }

    #[test]
    fn histogram_engine_reuses_prepared_index_across_runs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rp_core::groups::{PersonalGroups, SaSpec};
        use rp_core::sps::up_histograms;

        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        let groups = PersonalGroups::build(&t, spec);
        let mut rng = StdRng::seed_from_u64(31);
        let queries = vec![
            CountQuery::new(vec![(0, 0)], 2, 0).unwrap(),
            CountQuery::new(vec![(1, 1)], 2, 1).unwrap(),
        ];
        let base = QueryEngine::from_histograms(
            &groups,
            groups.groups().iter().map(|g| g.sa_hist.clone()).collect(),
            t.schema(),
            0.5,
        );
        let prepared = base.prepare(&queries).unwrap();
        for _ in 0..3 {
            let engine = QueryEngine::from_histograms(
                &groups,
                up_histograms(&mut rng, &groups, 0.5),
                t.schema(),
                0.5,
            );
            let batch = engine.answer_batch(&queries, &prepared).unwrap();
            for (q, b) in queries.iter().zip(&batch) {
                assert_eq!(&engine.answer(q).unwrap(), b);
            }
        }
    }
}
