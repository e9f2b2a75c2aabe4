//! The long-lived [`QueryEngine`]: answer many Section-6 count queries
//! from one release without rescanning it.
//!
//! Construction pays the preprocessing once — the personal-group keys and
//! SA histograms of the published table (the engine keeps only keys and
//! histograms, the per-group reconstruction substrate; a direct-addressable
//! key space builds them in one pass with no member row lists), plus
//! per-`(NA attribute, code)` selection bitmaps over the group keys. The
//! histograms are stored SA-major, one contiguous column of group counts
//! per SA value, beside the marginals of every `(NA attribute, code)`
//! and of the whole release. A query that pins at most one NA column
//! reads its marginal in one step; any other is answered by ANDing its
//! terms' cached bitmaps word by word into a stack buffer, 64 groups per
//! word and no bitmap copied, and by adding each matching group's size
//! and its entry of the queried SA column — never key by key. For query
//! batches and pools the NA match index is precomputed too
//! ([`QueryEngine::prepare`]), so repeated workloads over the same release
//! touch each group key once.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use rp_core::estimate::GroupedView;
use rp_core::groups::PersonalGroups;
use rp_core::mle::reconstruct_frequency;
use rp_core::variance::{confidence_interval_z, critical_value, ConfidenceInterval};
use rp_datagen::querypool::QueryPool;
use rp_stats::summary::relative_error;
use rp_table::{AttrId, CountQuery, Schema, TableError};

use crate::publication::Publication;

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

/// A precomputed NA match index for a fixed query list (one group-id list
/// per query). Reusable across engines built over the same grouping — the
/// sweeps of Figures 3/5 answer 10 perturbation runs through one index.
/// The query list is fingerprinted at preparation time, so using the index
/// with a different (even same-length) list is a [`EngineError::PreparedMismatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedQueries {
    index: Vec<Vec<u32>>,
    groups: usize,
    fingerprint: u64,
}

/// Order-sensitive hash of a query list, for prepared-index validation.
fn fingerprint<'a>(queries: impl Iterator<Item = &'a CountQuery>) -> u64 {
    let mut hasher = DefaultHasher::new();
    for q in queries {
        q.hash(&mut hasher);
    }
    hasher.finish()
}

impl PreparedQueries {
    /// Number of prepared queries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no queries were prepared.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
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
    /// A prepared index was built for a different query list or grouping.
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

/// A query-answering service over one release.
///
/// Holds the published schema, the estimator parameters and the per-group
/// SA histograms; answers single queries ([`QueryEngine::answer`]), batches
/// ([`QueryEngine::answer_batch`]) and whole Section-6 pools
/// ([`QueryEngine::answer_pool`]).
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
}

impl QueryEngine {
    /// Builds the engine from a release: one pass over the published
    /// table keeps each personal group's key and SA histogram, and nothing
    /// else of the table.
    pub fn new(publication: &Publication) -> Self {
        let spec = publication.spec();
        Self {
            schema: publication.schema().clone(),
            sa: spec.sa(),
            m: spec.m(),
            p: publication.p(),
            z: critical_value(CI_LEVEL),
            view: GroupedView::from_table(publication.table(), &spec),
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
        Self {
            schema: schema.clone(),
            sa: groups.spec().sa(),
            m: groups.spec().m(),
            p,
            z: critical_value(CI_LEVEL),
            view: GroupedView::from_histograms(groups, hists),
        }
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

    /// Builds the Section-6 answer from raw `(support, observed)` counts
    /// using this release's estimator parameters. The merge point of the
    /// streaming path: a live service sums the base release's counts with
    /// the live groups' counts and estimates over the union.
    pub fn answer_from_counts(&self, support: u64, observed: u64) -> Answer {
        self.answer_from(support, observed)
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

    fn answer_from(&self, support: u64, observed: u64) -> Answer {
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
        Ok(self.answer_from(support, observed))
    }

    /// Builds a count query from `(column name, value)` conditions.
    /// Exactly one condition must name the SA column; the rest become NA
    /// equality conditions.
    ///
    /// # Errors
    ///
    /// Returns an error on unknown columns or values, or if the SA column
    /// appears zero or multiple times.
    pub fn query_from_values(
        &self,
        conditions: &[(&str, &str)],
    ) -> Result<CountQuery, EngineError> {
        let mut na = Vec::new();
        let mut sa_value: Option<u32> = None;
        for &(col, value) in conditions {
            let attr = self.schema.attr_id(col)?;
            let code = self
                .schema
                .attribute(attr)
                .dictionary()
                .code(value)
                .ok_or_else(|| {
                    EngineError::Table(TableError::UnknownValue {
                        attribute: col.to_string(),
                        value: value.to_string(),
                    })
                })?;
            if attr == self.sa {
                if sa_value.is_some() {
                    return Err(EngineError::DuplicateSaCondition {
                        sa_name: self.sa_name(),
                    });
                }
                sa_value = Some(code);
            } else {
                // Pattern construction rejects duplicate attributes with a
                // panic; catch them here as a typed error instead.
                if na.iter().any(|&(a, _)| a == attr) {
                    return Err(EngineError::DuplicateCondition {
                        name: col.to_string(),
                    });
                }
                na.push((attr, code));
            }
        }
        let Some(sa_value) = sa_value else {
            return Err(EngineError::MissingSaCondition {
                sa_name: self.sa_name(),
            });
        };
        Ok(CountQuery::new(na, self.sa, sa_value)?)
    }

    /// Precomputes the NA match index for a query list, validating each
    /// query once. The index depends only on the group keys, so it is
    /// reusable across engines built over the same grouping (e.g. the 10
    /// perturbation runs of a sweep).
    ///
    /// # Errors
    ///
    /// Returns the first query validation failure.
    pub fn prepare(&self, queries: &[CountQuery]) -> Result<PreparedQueries, EngineError> {
        for q in queries {
            self.validate(q)?;
        }
        Ok(PreparedQueries {
            index: self.view.match_index(queries),
            groups: self.view.len(),
            fingerprint: fingerprint(queries.iter()),
        })
    }

    /// Precomputes the match index for a Section-6 query pool.
    ///
    /// # Errors
    ///
    /// As [`QueryEngine::prepare`].
    pub fn prepare_pool(&self, pool: &QueryPool) -> Result<PreparedQueries, EngineError> {
        let queries: Vec<CountQuery> = pool.queries.iter().map(|pq| pq.query.clone()).collect();
        self.prepare(&queries)
    }

    /// Answers a batch through a prepared match index.
    ///
    /// # Errors
    ///
    /// Returns an error if `prepared` was built for a different query count
    /// or grouping.
    pub fn answer_batch(
        &self,
        queries: &[CountQuery],
        prepared: &PreparedQueries,
    ) -> Result<Vec<Answer>, EngineError> {
        self.check_prepared(queries.iter(), prepared)?;
        Ok(queries
            .iter()
            .zip(&prepared.index)
            .map(|(q, matching)| {
                let (support, observed) = self.view.support_and_observed_indexed(q, matching);
                self.answer_from(support, observed)
            })
            .collect())
    }

    /// Answers a whole Section-6 pool through a prepared index, returning
    /// one answer per pooled query (aligned with `pool.queries`).
    ///
    /// # Errors
    ///
    /// As [`QueryEngine::answer_batch`].
    pub fn answer_pool(
        &self,
        pool: &QueryPool,
        prepared: &PreparedQueries,
    ) -> Result<Vec<Answer>, EngineError> {
        self.check_prepared(pool.queries.iter().map(|pq| &pq.query), prepared)?;
        Ok(pool
            .queries
            .iter()
            .zip(&prepared.index)
            .map(|(pq, matching)| {
                let (support, observed) =
                    self.view.support_and_observed_indexed(&pq.query, matching);
                self.answer_from(support, observed)
            })
            .collect())
    }

    /// Mean relative error `|est − ans| / ans` over a pool — the paper's
    /// Section-6 utility measure for one perturbation run.
    ///
    /// # Errors
    ///
    /// As [`QueryEngine::answer_batch`].
    pub fn mean_relative_error(
        &self,
        pool: &QueryPool,
        prepared: &PreparedQueries,
    ) -> Result<f64, EngineError> {
        if pool.is_empty() {
            return Ok(0.0);
        }
        let answers = self.answer_pool(pool, prepared)?;
        let total: f64 = pool
            .queries
            .iter()
            .zip(&answers)
            .map(|(pq, a)| relative_error(a.estimate, pq.answer as f64))
            .sum();
        Ok(total / pool.queries.len() as f64)
    }

    fn check_prepared<'a>(
        &self,
        queries: impl ExactSizeIterator<Item = &'a CountQuery> + Clone,
        prepared: &PreparedQueries,
    ) -> Result<(), EngineError> {
        if prepared.index.len() != queries.len() {
            return Err(EngineError::PreparedMismatch {
                detail: format!(
                    "index covers {} queries, batch has {}",
                    prepared.index.len(),
                    queries.len()
                ),
            });
        }
        if prepared.groups != self.view.len() {
            return Err(EngineError::PreparedMismatch {
                detail: format!(
                    "index built over {} groups, engine has {}",
                    prepared.groups,
                    self.view.len()
                ),
            });
        }
        if prepared.fingerprint != fingerprint(queries) {
            return Err(EngineError::PreparedMismatch {
                detail: "index was prepared for a different query list".to_string(),
            });
        }
        Ok(())
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
