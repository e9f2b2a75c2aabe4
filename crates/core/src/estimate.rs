//! Answering count queries on perturbed data (Section 6's utility measure).
//!
//! Given a published `D*` (or `D*₂`), the Section-6 estimator for
//! `SELECT COUNT(*) WHERE NA-conditions AND SA = sa` is
//!
//! ```text
//! est = |S*| · F′
//! ```
//!
//! where `S*` is the set of perturbed records matching the `NA` conditions
//! (public attributes are never perturbed, so `S*` is exact) and `F′` is
//! the MLE of `sa`'s frequency reconstructed from `S*`.
//!
//! Two evaluation strategies are provided (DESIGN.md ablation #4):
//!
//! * [`estimate_by_scan`] — select `S*` with a full table scan per query;
//! * [`GroupedView`] — pre-aggregate per-personal-group SA histograms once,
//!   then answer each query by summing over the matching groups. The large
//!   CENSUS sweeps are only tractable this way.

use rp_table::{group_histograms, AttrId, BitmapIndex, CountQuery, Table};

use crate::groups::{PersonalGroups, SaSpec};
use crate::mle::reconstruct_frequency;

/// Estimates the answer to `query` against the perturbed table by a full
/// scan: `est = |S*| · F′` (zero when `S*` is empty).
///
/// # Panics
///
/// Panics on invalid `p` or if the query's SA attribute domain size is
/// inconsistent with the table.
pub fn estimate_by_scan(perturbed: &Table, query: &CountQuery, p: f64) -> f64 {
    let m = perturbed.schema().attribute(query.sa_attr()).domain_size();
    let (support, observed) = query.answer_with_support(perturbed);
    if support == 0 {
        return 0.0;
    }
    support as f64 * reconstruct_frequency(observed, support, p, m)
}

/// Per-personal-group SA histograms of a perturbed publication, indexed for
/// fast aggregate-query answering.
///
/// Built either from a perturbed [`Table`] ([`GroupedView::from_table`])
/// or directly from histogram-level perturbation output (`up_histograms` /
/// `sps_histograms`), paired with the *raw* table's [`PersonalGroups`] for
/// the group keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupedView {
    na_attrs: Vec<AttrId>,
    sa_attr: AttrId,
    m: usize,
    keys: Vec<Vec<u32>>,
    hists: Vec<Vec<u64>>,
    sizes: Vec<u64>,
    /// Per-`(NA attribute, code)` selection bitmaps over the group keys:
    /// every query's NA conjunction is the AND of the named bitmaps, 64
    /// groups per word. Built once at construction, so pool workloads over
    /// the same release never re-match keys row by row.
    key_index: BitmapIndex,
}

/// Builds the per-`(attribute, code)` bitmap index over group keys. Code
/// domains are taken as `max key code + 1` per attribute — queries naming a
/// larger code match no group, exactly like the key scan they replace.
fn build_key_index(
    na_attrs: &[AttrId],
    keys: &[Vec<u32>],
    shards: usize,
    threads: usize,
) -> BitmapIndex {
    let width = na_attrs.len();
    let mut columns: Vec<Vec<u32>> = vec![vec![0u32; keys.len()]; width];
    for (g, key) in keys.iter().enumerate() {
        for (column, &code) in columns.iter_mut().zip(key) {
            column[g] = code;
        }
    }
    let domains: Vec<usize> = columns
        .iter()
        .map(|c| c.iter().max().map_or(0, |&max| max as usize + 1))
        .collect();
    let column_refs: Vec<&[u32]> = columns.iter().map(Vec::as_slice).collect();
    BitmapIndex::from_columns(na_attrs, &column_refs, &domains, shards, threads)
}

impl GroupedView {
    /// Builds the view from per-group perturbed histograms aligned with
    /// `groups.groups()`.
    ///
    /// # Panics
    ///
    /// Panics if `hists` is not aligned with the groups or a histogram has
    /// the wrong arity.
    pub fn from_histograms(groups: &PersonalGroups, hists: Vec<Vec<u64>>) -> Self {
        Self::from_histograms_sharded(groups, hists, 1, 1)
    }

    /// As [`GroupedView::from_histograms`], building the key bitmap index
    /// in `shards` word-aligned chunks on up to `threads` scoped workers.
    /// The view is bit-for-bit identical for every `(shards, threads)`
    /// combination; sharding only changes how the construction work is cut.
    ///
    /// # Panics
    ///
    /// As [`GroupedView::from_histograms`], and if `shards == 0`.
    pub fn from_histograms_sharded(
        groups: &PersonalGroups,
        hists: Vec<Vec<u64>>,
        shards: usize,
        threads: usize,
    ) -> Self {
        assert_eq!(
            hists.len(),
            groups.len(),
            "one histogram per personal group required"
        );
        let m = groups.spec().m();
        for h in &hists {
            assert_eq!(h.len(), m, "histogram arity must equal the SA domain size");
        }
        let keys = groups.groups().iter().map(|g| g.key.clone()).collect();
        Self::assemble(groups.spec(), keys, hists, shards, threads)
    }

    /// Builds the view by grouping a perturbed table along the same spec as
    /// `groups` (the raw-table grouping): the keys are recomputed from the
    /// perturbed table, whose public attributes are identical to the raw
    /// table's.
    pub fn from_perturbed_table(groups: &PersonalGroups, perturbed: &Table) -> Self {
        Self::from_table(perturbed, groups.spec())
    }

    /// Builds the view straight from a published table: the sorted keys
    /// of `spec`'s personal groups with their SA histograms, from
    /// [`group_histograms`] (one pass and no member row lists when the
    /// key space can be addressed directly).
    pub fn from_table(table: &Table, spec: &SaSpec) -> Self {
        let (keys, hists) = group_histograms(table, spec.na(), spec.sa());
        Self::assemble(spec, keys, hists, 1, 1)
    }

    /// The view over sorted `keys` and their aligned histograms.
    fn assemble(
        spec: &SaSpec,
        keys: Vec<Vec<u32>>,
        hists: Vec<Vec<u64>>,
        shards: usize,
        threads: usize,
    ) -> Self {
        let sizes = hists.iter().map(|h| h.iter().sum()).collect();
        let key_index = build_key_index(spec.na(), &keys, shards, threads);
        Self {
            na_attrs: spec.na().to_vec(),
            sa_attr: spec.sa(),
            m: spec.m(),
            keys,
            hists,
            sizes,
            key_index,
        }
    }

    /// Number of groups in the view.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the view has no groups.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total records across all groups.
    pub fn total_records(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// `(support, observed)` of the perturbed subset matching the query's
    /// `NA` pattern: `|S*|` and `O*`. The NA conjunction is evaluated on the
    /// cached key bitmaps (bitwise AND over 64-group words), never key by
    /// key; answers are identical to the scan it replaces.
    pub fn support_and_observed(&self, query: &CountQuery) -> (u64, u64) {
        let sa = query.sa_value() as usize;
        match self.key_index.select_bitmap(query.na_pattern()) {
            None => (
                self.sizes.iter().sum(),
                self.hists.iter().map(|h| h[sa]).sum(),
            ),
            Some(matching) => {
                let mut support = 0u64;
                let mut observed = 0u64;
                for g in matching.iter_ones() {
                    support += self.sizes[g as usize];
                    observed += self.hists[g as usize][sa];
                }
                (support, observed)
            }
        }
    }

    /// Precomputes, for each query, the indices of the matching groups (by
    /// ANDing the cached key bitmaps). Matching depends only on the (fixed)
    /// keys, so the index can be reused across perturbation runs — this is
    /// what makes the 10-run sweeps of Figures 3/5 cheap.
    pub fn match_index(&self, queries: &[CountQuery]) -> Vec<Vec<u32>> {
        queries
            .iter()
            .map(|q| match self.key_index.select_bitmap(q.na_pattern()) {
                None => (0..self.keys.len() as u32).collect(),
                Some(matching) => matching.iter_ones().collect(),
            })
            .collect()
    }

    /// `(support, observed)` using a precomputed match index entry.
    pub fn support_and_observed_indexed(&self, query: &CountQuery, matching: &[u32]) -> (u64, u64) {
        let sa = query.sa_value() as usize;
        let mut support = 0u64;
        let mut observed = 0u64;
        for &g in matching {
            support += self.sizes[g as usize];
            observed += self.hists[g as usize][sa];
        }
        (support, observed)
    }

    /// The Section-6 estimate `est = |S*| · F′` for the query.
    pub fn estimate(&self, query: &CountQuery, p: f64) -> f64 {
        let (support, observed) = self.support_and_observed(query);
        if support == 0 {
            return 0.0;
        }
        support as f64 * reconstruct_frequency(observed, support, p, self.m)
    }

    /// As [`GroupedView::estimate`] but through a match-index entry.
    pub fn estimate_indexed(&self, query: &CountQuery, matching: &[u32], p: f64) -> f64 {
        let (support, observed) = self.support_and_observed_indexed(query, matching);
        if support == 0 {
            return 0.0;
        }
        support as f64 * reconstruct_frequency(observed, support, p, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sps::{uniform_perturb, up_histograms};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rp_stats::summary::relative_error;
    use rp_table::{Attribute, Schema, TableBuilder};

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol,
            "expected {expected}, got {actual} (tol {tol})"
        );
    }

    fn demo_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("G", ["a", "b"]),
            Attribute::new("J", ["x", "y"]),
            Attribute::with_anonymous_domain("SA", 4),
        ]);
        let mut b = TableBuilder::new(schema);
        // Group (a, x): 1200 records, SA 0 at 50%.
        for i in 0..1200u32 {
            b.push_codes(&[0, 0, (i % 2) * 2]).unwrap();
        }
        // Group (b, y): 800 records, SA 1 at 75%.
        for i in 0..800u32 {
            b.push_codes(&[1, 1, if i % 4 == 0 { 3 } else { 1 }])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn scan_estimate_is_close_on_large_support() {
        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        let mut rng = StdRng::seed_from_u64(51);
        let perturbed = uniform_perturb(&mut rng, &t, &spec, 0.5);
        let q = CountQuery::new(vec![(0, 0)], 2, 0).expect("valid count query"); // G=a ∧ SA=0: 600
        let est = estimate_by_scan(&perturbed, &q, 0.5);
        assert!(relative_error(est, 600.0) < 0.15, "est = {est}");
    }

    #[test]
    fn grouped_view_matches_scan_exactly() {
        // The two strategies must agree answer-by-answer on the same D*.
        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        let groups = PersonalGroups::build(&t, spec.clone());
        let mut rng = StdRng::seed_from_u64(52);
        let perturbed = uniform_perturb(&mut rng, &t, &spec, 0.5);
        let view = GroupedView::from_perturbed_table(&groups, &perturbed);
        for q in [
            CountQuery::new(vec![(0, 0)], 2, 0).expect("valid count query"),
            CountQuery::new(vec![(0, 1), (1, 1)], 2, 1).expect("valid count query"),
            CountQuery::new(vec![], 2, 3).expect("valid count query"),
        ] {
            let scan = estimate_by_scan(&perturbed, &q, 0.5);
            let grouped = view.estimate(&q, 0.5);
            assert_close(grouped, scan, 1e-9);
        }
    }

    #[test]
    fn histogram_built_view_counts_support() {
        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        let groups = PersonalGroups::build(&t, spec);
        let mut rng = StdRng::seed_from_u64(53);
        let hists = up_histograms(&mut rng, &groups, 0.5);
        let view = GroupedView::from_histograms(&groups, hists);
        assert_eq!(view.total_records(), 2000);
        let q = CountQuery::new(vec![(0, 0)], 2, 0).expect("valid count query");
        let (support, _) = view.support_and_observed(&q);
        assert_eq!(support, 1200, "support is exact: NA never perturbed");
    }

    #[test]
    fn match_index_agrees_with_direct_answering() {
        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        let groups = PersonalGroups::build(&t, spec);
        let mut rng = StdRng::seed_from_u64(54);
        let view = GroupedView::from_histograms(&groups, up_histograms(&mut rng, &groups, 0.3));
        let queries = vec![
            CountQuery::new(vec![(0, 0)], 2, 0).expect("valid count query"),
            CountQuery::new(vec![(1, 1)], 2, 1).expect("valid count query"),
            CountQuery::new(vec![(0, 1), (1, 0)], 2, 2).expect("valid count query"), // empty group
        ];
        let index = view.match_index(&queries);
        for (q, matching) in queries.iter().zip(&index) {
            assert_close(
                view.estimate_indexed(q, matching, 0.3),
                view.estimate(q, 0.3),
                1e-12,
            );
        }
    }

    #[test]
    fn empty_support_estimates_zero() {
        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        let groups = PersonalGroups::build(&t, spec.clone());
        let mut rng = StdRng::seed_from_u64(55);
        let perturbed = uniform_perturb(&mut rng, &t, &spec, 0.5);
        let view = GroupedView::from_perturbed_table(&groups, &perturbed);
        // G=a ∧ J=y never occurs.
        let q = CountQuery::new(vec![(0, 0), (1, 1)], 2, 0).expect("valid count query");
        assert_eq!(estimate_by_scan(&perturbed, &q, 0.5), 0.0);
        assert_eq!(view.estimate(&q, 0.5), 0.0);
    }

    #[test]
    fn estimator_is_unbiased_across_runs() {
        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        let groups = PersonalGroups::build(&t, spec);
        let q = CountQuery::new(vec![(1, 1)], 2, 1).expect("valid count query"); // J=y ∧ SA=1: 600
        let mut rng = StdRng::seed_from_u64(56);
        let runs = 500;
        let mut mean = 0.0;
        for _ in 0..runs {
            let view = GroupedView::from_histograms(&groups, up_histograms(&mut rng, &groups, 0.4));
            mean += view.estimate(&q, 0.4) / runs as f64;
        }
        assert_close(mean, 600.0, 10.0);
    }

    #[test]
    fn bitmap_matching_equals_reference_key_scan() {
        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        let groups = PersonalGroups::build(&t, spec);
        let mut rng = StdRng::seed_from_u64(57);
        let view = GroupedView::from_histograms(&groups, up_histograms(&mut rng, &groups, 0.5));
        let queries = [
            CountQuery::new(vec![(0, 0)], 2, 0).expect("valid count query"),
            CountQuery::new(vec![(0, 1), (1, 1)], 2, 1).expect("valid count query"),
            CountQuery::new(vec![], 2, 3).expect("valid count query"),
            CountQuery::new(vec![(0, 1), (1, 0)], 2, 2).expect("valid count query"),
        ];
        for q in &queries {
            // Reference: the row-at-a-time key scan the bitmaps replaced.
            let sa = q.sa_value() as usize;
            let mut support = 0u64;
            let mut observed = 0u64;
            for ((key, hist), &size) in view.keys.iter().zip(&view.hists).zip(&view.sizes) {
                if q.na_pattern().matches_key(&view.na_attrs, key) {
                    support += size;
                    observed += hist[sa];
                }
            }
            assert_eq!(view.support_and_observed(q), (support, observed), "{q:?}");
        }
        let index = view.match_index(&queries);
        for (q, matching) in queries.iter().zip(&index) {
            let reference: Vec<u32> = view
                .keys
                .iter()
                .enumerate()
                .filter(|(_, key)| q.na_pattern().matches_key(&view.na_attrs, key))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(matching, &reference, "{q:?}");
        }
    }

    #[test]
    fn sharded_view_construction_is_identical() {
        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        let groups = PersonalGroups::build(&t, spec);
        let mut rng = StdRng::seed_from_u64(58);
        let hists = up_histograms(&mut rng, &groups, 0.5);
        let reference = GroupedView::from_histograms(&groups, hists.clone());
        for shards in [2, 4, 16] {
            for threads in [1, 3] {
                let sharded =
                    GroupedView::from_histograms_sharded(&groups, hists.clone(), shards, threads);
                assert_eq!(reference, sharded, "shards={shards} threads={threads}");
            }
        }
    }

    /// A random table over one of three key spaces: `0` dense (packed,
    /// direct-addressable), `1` sparse (packed, past `direct_addressable`),
    /// `2` too wide to pack into a `u64` (eight 256-value attributes).
    fn random_table(seed: u64, shape: u8) -> (Table, AttrId) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let na_domains: Vec<usize> = match shape {
            0 => (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(1..7))
                .collect(),
            1 => vec![rng.gen_range(3_000..5_000), rng.gen_range(3_000..5_000)],
            _ => vec![256; 8],
        };
        let m = rng.gen_range(2..6);
        let sa = rng.gen_range(0..=na_domains.len());
        let mut domains = na_domains;
        domains.insert(sa, m);
        let schema = Schema::new(
            domains
                .iter()
                .enumerate()
                .map(|(i, &d)| Attribute::with_anonymous_domain(format!("A{i}"), d))
                .collect(),
        );
        // Few distinct values per attribute, so groups repeat in every shape.
        let picks: Vec<Vec<u32>> = domains
            .iter()
            .map(|&d| (0..3).map(|_| rng.gen_range(0..d) as u32).collect())
            .collect();
        let mut b = TableBuilder::new(schema);
        for _ in 0..rng.gen_range(0..300) {
            let codes: Vec<u32> = domains
                .iter()
                .zip(&picks)
                .map(|(&d, pick)| {
                    if rng.gen_bool(0.2) {
                        rng.gen_range(0..d) as u32
                    } else {
                        pick[rng.gen_range(0..pick.len())]
                    }
                })
                .collect();
            b.push_codes(&codes).unwrap();
        }
        (b.build(), sa)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn from_table_equals_histograms_of_personal_groups(
            seed in proptest::any::<u64>(),
            shape in 0u8..3,
        ) {
            let (t, sa) = random_table(seed, shape);
            let spec = SaSpec::new(&t, sa);
            let groups = PersonalGroups::build(&t, spec.clone());
            let hists = groups.groups().iter().map(|g| g.sa_hist.clone()).collect();
            let reference = GroupedView::from_histograms(&groups, hists);
            let view = GroupedView::from_table(&t, &spec);
            proptest::prop_assert_eq!(&view.keys, &reference.keys);
            proptest::prop_assert_eq!(&view.hists, &reference.hists);
            proptest::prop_assert_eq!(&view.sizes, &reference.sizes);
            proptest::prop_assert_eq!(&view, &reference);
            // Answers over queries pinning random subsets of NA attributes
            // to the codes of one row (code 0 on an empty table).
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            for _ in 0..16 {
                use rand::Rng;
                let row = if t.is_empty() { None } else { Some(rng.gen_range(0..t.rows())) };
                let na: Vec<(AttrId, u32)> = spec
                    .na()
                    .iter()
                    .filter(|_| rng.gen_bool(0.5))
                    .map(|&a| (a, row.map_or(0, |r| t.code(r, a))))
                    .collect();
                let q = CountQuery::new(na, sa, rng.gen_range(0..spec.m()) as u32).unwrap();
                proptest::prop_assert_eq!(view.support_and_observed(&q), reference.support_and_observed(&q));
                proptest::prop_assert_eq!(view.estimate(&q, 0.5).to_bits(), reference.estimate(&q, 0.5).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "one histogram per personal group")]
    fn misaligned_histograms_panic() {
        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        let groups = PersonalGroups::build(&t, spec);
        GroupedView::from_histograms(&groups, vec![vec![0; 4]]);
    }
}
