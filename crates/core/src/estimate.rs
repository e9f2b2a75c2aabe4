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
//!
//! Every count goes through [`GroupedView::support_and_observed_terms`],
//! which reads borrowed `(attribute, term)` pairs and the SA code, so a
//! server that resolves query text straight into terms counts without
//! building a [`CountQuery`]; [`GroupedView::support_and_observed`] hands
//! it a query's pattern.
//!
//! The view stores the histograms SA-major: one block of `m` columns,
//! `counts[sa * groups + g]`, beside the group sizes. A query ANDs the key
//! bitmaps of its NA terms word by word and, for every set bit `g`, adds
//! `sizes[g]` and entry `g` of the queried SA column — two flat arrays,
//! with no per-group heap row and no bitmap copy. A query that constrains
//! at most one NA attribute (most served queries pin one NA column) never
//! walks the bitmaps: the view keeps the marginal of every `(NA attribute,
//! code)` and of the whole view, its summed size and its summed count of
//! every SA code, so such a query reads two entries.

use rp_table::{group_histograms, AttrId, BitmapIndex, CountQuery, Table, Term};

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
    /// Number of groups; the key bitmaps and the marginals hold what
    /// queries read of the keys, so the keys themselves are not kept.
    groups: usize,
    /// The SA histograms as one SA-major column block: `counts[sa *
    /// groups + g]` is group `g`'s count of SA code `sa`, so a query reads
    /// one contiguous column.
    counts: Vec<u64>,
    sizes: Vec<u64>,
    /// The marginals of the patterns that constrain at most one NA
    /// attribute, one slot each: slot 0 is the whole view, NA position
    /// `pos` takes slots `term_slots[pos]..term_slots[pos + 1]` (one per
    /// code of its key domain), and the last slot is the empty selection
    /// that a code past the domain makes. `marginal_sizes[slot]` sums the
    /// sizes of the groups a slot selects and `marginal_counts[slot * m +
    /// sa]` sums their SA column `sa`, so a group adds its histogram to a
    /// slot's row in one contiguous pass.
    term_slots: Vec<usize>,
    marginal_sizes: Vec<u64>,
    marginal_counts: Vec<u64>,
    /// Per-`(NA attribute, code)` selection bitmaps over the group keys:
    /// a query that constrains two or more NA attributes is the AND of the
    /// named bitmaps, 64 groups per word. Built once at construction.
    key_index: BitmapIndex,
}

/// Builds the per-`(attribute, code)` bitmap index over group keys. Code
/// domains are taken as `max key code + 1` per attribute — queries naming a
/// larger code match no group, exactly like the key scan they replace.
fn build_key_index(na_attrs: &[AttrId], keys: &[Vec<u32>]) -> BitmapIndex {
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
    BitmapIndex::from_columns(na_attrs, &column_refs, &domains)
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
        Self::assemble(groups.spec(), keys, hists)
    }

    /// Builds the view straight from a published table: the sorted keys
    /// of `spec`'s personal groups with their SA histograms, from
    /// [`group_histograms`] (one pass and no member row lists when the
    /// key space can be addressed directly).
    pub fn from_table(table: &Table, spec: &SaSpec) -> Self {
        let (keys, hists) = group_histograms(table, spec.na(), spec.sa());
        Self::assemble(spec, keys, hists)
    }

    /// The view over sorted `keys` and their aligned histograms, which are
    /// transposed into the SA-major column block and dropped; the same
    /// pass adds each group into the marginals of the whole view and of
    /// each of its key codes.
    fn assemble(spec: &SaSpec, keys: Vec<Vec<u32>>, hists: Vec<Vec<u64>>) -> Self {
        let groups = hists.len();
        let m = spec.m();
        // Key domains are `max key code + 1`, as in `build_key_index`.
        let mut term_slots = vec![1];
        for pos in 0..spec.na().len() {
            let domain = keys.iter().map(|k| k[pos] as usize + 1).max().unwrap_or(0);
            term_slots.push(term_slots[pos] + domain);
        }
        let slots = term_slots[spec.na().len()] + 1;
        let mut counts = vec![0u64; m * groups];
        let mut sizes = Vec::with_capacity(groups);
        let mut marginal_sizes = vec![0u64; slots];
        let mut marginal_counts = vec![0u64; m * slots];
        for (g, (key, hist)) in keys.iter().zip(&hists).enumerate() {
            let size = hist.iter().sum();
            sizes.push(size);
            let group_slots = key
                .iter()
                .zip(&term_slots)
                .map(|(&code, &start)| start + code as usize);
            for slot in std::iter::once(0).chain(group_slots) {
                marginal_sizes[slot] += size;
                let row = &mut marginal_counts[slot * m..][..m];
                for (total, &count) in row.iter_mut().zip(hist) {
                    *total += count;
                }
            }
            for (sa, &count) in hist.iter().enumerate() {
                counts[sa * groups + g] = count;
            }
        }
        let key_index = build_key_index(spec.na(), &keys);
        Self {
            na_attrs: spec.na().to_vec(),
            sa_attr: spec.sa(),
            m,
            groups,
            counts,
            sizes,
            term_slots,
            marginal_sizes,
            marginal_counts,
            key_index,
        }
    }

    /// Number of groups in the view.
    pub fn len(&self) -> usize {
        self.groups
    }

    /// Whether the view has no groups.
    pub fn is_empty(&self) -> bool {
        self.groups == 0
    }

    /// Total records across all groups.
    pub fn total_records(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// The SA-major column of SA code `sa`: one count per group.
    fn column(&self, sa: u32) -> &[u64] {
        &self.counts[sa as usize * self.groups..][..self.groups]
    }

    /// `(support, observed)` of the perturbed subset matching the query's
    /// `NA` pattern: `|S*|` and `O*`, counted by
    /// [`GroupedView::support_and_observed_terms`].
    pub fn support_and_observed(&self, query: &CountQuery) -> (u64, u64) {
        self.support_and_observed_terms(query.na_pattern().terms(), query.sa_value())
    }

    /// `(support, observed)` of the groups matching the NA `terms`, with
    /// `sa` the queried SA code: the one counting path, over borrowed
    /// terms so a caller need not build a [`CountQuery`]. Terms that
    /// constrain at most one NA attribute read their marginal; any others
    /// are evaluated on the cached key bitmaps (bitwise AND over 64-group
    /// words), never key by key, and each matching group adds its size
    /// and its entry of the queried SA column. Answers are identical to
    /// the scan they replace.
    ///
    /// # Panics
    ///
    /// Panics if `sa` is not a code of the view's SA domain.
    pub fn support_and_observed_terms(&self, terms: &[(AttrId, Term)], sa: u32) -> (u64, u64) {
        if let Some(slot) = self.marginal_slot(terms) {
            let row = &self.marginal_counts[slot * self.m..][..self.m];
            return (self.marginal_sizes[slot], row[sa as usize]);
        }
        let column = self.column(sa);
        let (mut support, mut observed) = (0u64, 0u64);
        self.key_index.for_each_match(terms, |g| {
            support += self.sizes[g];
            observed += column[g];
        });
        (support, observed)
    }

    /// The marginal slot of terms with at most one equality term on an NA
    /// attribute of the view, or `None` for terms with more. Terms the key
    /// index does not constrain (wildcards, other attributes) are skipped
    /// as the bitmap matcher skips them, and a code past the key domain
    /// selects the empty slot as it matches no group.
    fn marginal_slot(&self, terms: &[(AttrId, Term)]) -> Option<usize> {
        let mut term_slot = None;
        for &(attr, term) in terms {
            let Term::Value(code) = term else { continue };
            let Some(pos) = self.na_attrs.iter().position(|&a| a == attr) else {
                continue;
            };
            if term_slot.is_some() {
                return None;
            }
            let (start, end) = (self.term_slots[pos], self.term_slots[pos + 1]);
            term_slot = Some(if (code as usize) < end - start {
                start + code as usize
            } else {
                self.marginal_sizes.len() - 1
            });
        }
        Some(term_slot.unwrap_or(0))
    }

    /// The Section-6 estimate `est = |S*| · F′` for the query.
    pub fn estimate(&self, query: &CountQuery, p: f64) -> f64 {
        let (support, observed) = self.support_and_observed(query);
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
        let mut rng = StdRng::seed_from_u64(52);
        let perturbed = uniform_perturb(&mut rng, &t, &spec, 0.5);
        let view = GroupedView::from_table(&perturbed, &spec);
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
    fn empty_support_estimates_zero() {
        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        let mut rng = StdRng::seed_from_u64(55);
        let perturbed = uniform_perturb(&mut rng, &t, &spec, 0.5);
        let view = GroupedView::from_table(&perturbed, &spec);
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
            for (g, (group, &size)) in groups.groups().iter().zip(&view.sizes).enumerate() {
                if q.na_pattern().matches_key(&view.na_attrs, &group.key) {
                    support += size;
                    observed += view.counts[sa * view.len() + g];
                }
            }
            assert_eq!(view.support_and_observed(q), (support, observed), "{q:?}");
        }
    }

    /// A random table over one of four key spaces: `0` dense (packed,
    /// direct-addressable), `1` sparse (packed, past `direct_addressable`),
    /// `2` too wide to pack into a `u64` (eight 256-value attributes), `3`
    /// a 2 × 10 × 10 key space drawn uniformly by 1,000 rows or more, so
    /// about 200 groups over four bitmap words.
    fn random_table(seed: u64, shape: u8) -> (Table, AttrId) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let na_domains: Vec<usize> = match shape {
            0 => (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(1..7))
                .collect(),
            1 => vec![rng.gen_range(3_000..5_000), rng.gen_range(3_000..5_000)],
            2 => vec![256; 8],
            _ => vec![2, 10, 10],
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
        let (rows, uniform) = if shape == 3 {
            (rng.gen_range(1_000..1_500), 1.0)
        } else {
            (rng.gen_range(0..300), 0.2)
        };
        let mut b = TableBuilder::new(schema);
        for _ in 0..rows {
            let codes: Vec<u32> = domains
                .iter()
                .zip(&picks)
                .map(|(&d, pick)| {
                    if rng.gen_bool(uniform) {
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
            shape in 0u8..4,
        ) {
            let (t, sa) = random_table(seed, shape);
            let spec = SaSpec::new(&t, sa);
            let groups = PersonalGroups::build(&t, spec.clone());
            let hists = groups.groups().iter().map(|g| g.sa_hist.clone()).collect();
            let reference = GroupedView::from_histograms(&groups, hists);
            let view = GroupedView::from_table(&t, &spec);
            proptest::prop_assert_eq!(&view.counts, &reference.counts);
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The view's counts equal a key-by-key scan of the personal
        /// groups, over group counts that are rarely a multiple of 64,
        /// queries without NA terms, NA codes past the domain and every
        /// SA code up to `m − 1`.
        #[test]
        fn support_and_observed_equals_reference_key_scan(
            seed in proptest::any::<u64>(),
            shape in 0u8..4,
        ) {
            use rand::Rng;
            let (t, sa) = random_table(seed, shape);
            let spec = SaSpec::new(&t, sa);
            let groups = PersonalGroups::build(&t, spec.clone());
            let view = GroupedView::from_table(&t, &spec);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc01);
            for _ in 0..24 {
                let row = if t.is_empty() { None } else { Some(rng.gen_range(0..t.rows())) };
                let mut na: Vec<(AttrId, u32)> = Vec::new();
                for &a in spec.na() {
                    if rng.gen_bool(0.6) {
                        continue;
                    }
                    let domain = t.schema().attribute(a).domain_size() as u32;
                    let code = match row {
                        Some(r) if rng.gen_bool(0.8) => t.code(r, a),
                        _ => rng.gen_range(0..domain + 2),
                    };
                    na.push((a, code));
                }
                let sa_value = if rng.gen_bool(0.3) {
                    spec.m() as u32 - 1
                } else {
                    rng.gen_range(0..spec.m()) as u32
                };
                let q = CountQuery::new(na, sa, sa_value).unwrap();
                let mut reference = (0u64, 0u64);
                for g in groups.groups() {
                    if q.na_pattern().matches_key(spec.na(), &g.key) {
                        reference.0 += g.sa_hist.iter().sum::<u64>();
                        reference.1 += g.sa_hist[sa_value as usize];
                    }
                }
                proptest::prop_assert_eq!(view.support_and_observed(&q), reference, "{:?}", q);
            }
        }
    }

    /// 260 groups (2 × 10 × 13 keys, every one present, so the last of
    /// five bitmap words is partial). The no-term query, every one-term
    /// query (codes past the key domain included) and some two-term ones
    /// must equal the key-by-key scan for every SA code: the first two
    /// through the marginals, the last through the bitmaps.
    #[test]
    fn one_term_queries_read_marginals() {
        let schema = Schema::new(vec![
            Attribute::with_anonymous_domain("A", 2),
            Attribute::with_anonymous_domain("B", 10),
            Attribute::with_anonymous_domain("C", 14),
            Attribute::with_anonymous_domain("SA", 4),
        ]);
        let mut b = TableBuilder::new(schema);
        for a in 0..2u32 {
            for bb in 0..10u32 {
                for c in 0..13u32 {
                    for i in 0..(a + bb + c) % 5 + 1 {
                        b.push_codes(&[a, bb, c, (i + bb * c) % 4]).unwrap();
                    }
                }
            }
        }
        let t = b.build();
        let spec = SaSpec::new(&t, 3);
        let groups = PersonalGroups::build(&t, spec.clone());
        let view = GroupedView::from_table(&t, &spec);
        assert_eq!(view.len(), 260);
        // The whole view, 2 + 10 + 13 codes and the empty slot.
        assert_eq!(view.marginal_sizes.len(), 1 + 25 + 1);
        let mut patterns = vec![vec![], vec![(0, 1), (1, 9)], vec![(1, 3), (2, 12)]];
        for (attr, domain) in [(0, 2), (1, 10), (2, 13)] {
            // `C = 13` is in the schema's domain but past the key domain.
            patterns.extend((0..=domain).map(|code| vec![(attr, code)]));
        }
        for na in patterns {
            for sa_value in 0..4 {
                let q = CountQuery::new(na.clone(), 3, sa_value).unwrap();
                let mut reference = (0u64, 0u64);
                for g in groups.groups() {
                    if q.na_pattern().matches_key(spec.na(), &g.key) {
                        reference.0 += g.sa_hist.iter().sum::<u64>();
                        reference.1 += g.sa_hist[sa_value as usize];
                    }
                }
                assert_eq!(view.support_and_observed(&q), reference, "{q:?}");
            }
        }
        let everything = CountQuery::new(vec![], 3, 0).unwrap();
        assert_eq!(view.support_and_observed(&everything).0, t.rows() as u64);
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
