//! The personal / aggregate group model of Section 3.2.
//!
//! Fixing one attribute as `SA` and the rest as `NA`, a *personal group*
//! `D(x1, ..., xn)` collects all records agreeing on every public attribute;
//! an *aggregate group* leaves at least one attribute wild. Personal groups
//! are the unit at which reconstruction privacy is tested and enforced.
//! Every public attribute is constant within a personal group, so a group
//! is fully described by its key and its SA histogram; member row lists are
//! never materialized.

use rp_table::{group_histograms, AttrId, Pattern, Table};

/// Declares which attribute of a table is sensitive; all others are public.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaSpec {
    sa: AttrId,
    na: Vec<AttrId>,
    m: usize,
}

impl SaSpec {
    /// Creates the spec for a table, marking `sa` sensitive and every other
    /// attribute public.
    ///
    /// # Panics
    ///
    /// Panics if `sa` is out of range, if the table has no public attribute
    /// left over, or if the SA domain has fewer than 2 values (the paper
    /// assumes `m > 2`; the algebra needs `m >= 2`).
    pub fn new(table: &Table, sa: AttrId) -> Self {
        let arity = table.schema().arity();
        assert!(
            sa < arity,
            "SA attribute {sa} out of range for arity {arity}"
        );
        assert!(arity >= 2, "need at least one public attribute besides SA");
        let m = table.schema().attribute(sa).domain_size();
        assert!(m >= 2, "SA domain must have at least 2 values, got {m}");
        Self {
            sa,
            na: (0..arity).filter(|&a| a != sa).collect(),
            m,
        }
    }

    /// The sensitive attribute.
    pub fn sa(&self) -> AttrId {
        self.sa
    }

    /// The public attributes, in schema order.
    pub fn na(&self) -> &[AttrId] {
        &self.na
    }

    /// SA domain size `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Whether a selection pattern over the public attributes identifies a
    /// personal group (every public attribute pinned, none wild).
    pub fn is_personal_pattern(&self, pattern: &Pattern) -> bool {
        !pattern.has_wildcard()
            && self
                .na
                .iter()
                .all(|&a| pattern.terms().iter().any(|&(pa, _)| pa == a))
    }
}

/// One personal group with its SA statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersonalGroup {
    /// Codes of the public attributes (in [`SaSpec::na`] order).
    pub key: Vec<u32>,
    /// Histogram of SA values within the group.
    pub sa_hist: Vec<u64>,
}

impl PersonalGroup {
    /// Group size `|g|`: the sum of the SA histogram.
    pub fn len(&self) -> usize {
        self.sa_hist.iter().sum::<u64>() as usize
    }

    /// Whether the group has no members.
    pub fn is_empty(&self) -> bool {
        self.sa_hist.iter().all(|&c| c == 0)
    }

    /// Frequency (in fraction) of SA value `code` within the group.
    ///
    /// # Panics
    ///
    /// Panics if the group is empty or `code` out of range.
    pub fn frequency(&self, code: usize) -> f64 {
        assert!(!self.is_empty(), "frequency undefined on an empty group");
        self.sa_hist[code] as f64 / self.len() as f64
    }

    /// The maximum SA frequency `f` in the group — the quantity the
    /// group-size threshold `sg` of Equation 10 is computed from.
    ///
    /// # Panics
    ///
    /// Panics if the group is empty.
    pub fn max_frequency(&self) -> f64 {
        assert!(!self.is_empty(), "frequency undefined on an empty group");
        let max = *self.sa_hist.iter().max().expect("non-empty histogram");
        max as f64 / self.len() as f64
    }
}

/// All personal groups of a table under an [`SaSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersonalGroups {
    spec: SaSpec,
    total_rows: usize,
    groups: Vec<PersonalGroup>,
}

impl PersonalGroups {
    /// Partitions `table` into personal groups, sorted by key, with each
    /// group's SA histogram, in one pass of [`group_histograms`]. The
    /// paper's sort-based strategy (`rp_table::group_by_sort`) yields the
    /// same groups and is kept as the grouping ablation.
    pub fn build(table: &Table, spec: SaSpec) -> Self {
        let (keys, hists) = group_histograms(table, spec.na(), spec.sa());
        let groups = keys
            .into_iter()
            .zip(hists)
            .map(|(key, sa_hist)| PersonalGroup { key, sa_hist })
            .collect();
        Self {
            spec,
            total_rows: table.rows(),
            groups,
        }
    }

    /// Forwards to [`PersonalGroups::build`]; `shards` and `threads` are
    /// ignored. Kept only because the `perfbench` harness still calls it,
    /// and removed once the harness stops doing so.
    pub fn build_sharded(table: &Table, spec: SaSpec, _shards: usize, _threads: usize) -> Self {
        Self::build(table, spec)
    }

    /// The SA/NA spec the groups were built under.
    pub fn spec(&self) -> &SaSpec {
        &self.spec
    }

    /// All groups, sorted by key.
    pub fn groups(&self) -> &[PersonalGroup] {
        &self.groups
    }

    /// Number of personal groups `|G|`.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups (empty table).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Total number of records `|D|` in the grouped table.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Average personal-group size `|D| / |G|` (Tables 4 and 5).
    ///
    /// # Panics
    ///
    /// Panics if there are no groups.
    pub fn average_size(&self) -> f64 {
        assert!(!self.is_empty(), "no groups to average over");
        self.total_rows as f64 / self.len() as f64
    }

    /// The groups whose keys satisfy `pattern` (an aggregate group is a
    /// union of personal groups).
    pub fn matching<'a>(
        &'a self,
        pattern: &'a Pattern,
    ) -> impl Iterator<Item = &'a PersonalGroup> + 'a {
        let attrs = self.spec.na().to_vec();
        self.groups
            .iter()
            .filter(move |g| pattern.matches_key(&attrs, &g.key))
    }

    /// Sums `(support, sa_hist)` over the personal groups matching
    /// `pattern`: the size and SA histogram of the corresponding aggregate
    /// group.
    pub fn aggregate_histogram(&self, pattern: &Pattern) -> (u64, Vec<u64>) {
        let mut support = 0u64;
        let mut hist = vec![0u64; self.spec.m()];
        for g in self.matching(pattern) {
            support += g.len() as u64;
            for (h, &c) in hist.iter_mut().zip(&g.sa_hist) {
                *h += c;
            }
        }
        (support, hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_table::{Attribute, Schema, TableBuilder, Term};

    /// Gender × Job with Disease sensitive — the running Example 2 shape.
    fn demo_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("Gender", ["male", "female"]),
            Attribute::new("Job", ["eng", "doc"]),
            Attribute::new("Disease", ["flu", "hiv", "bc"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for row in [
            ["male", "eng", "flu"],
            ["male", "eng", "flu"],
            ["male", "eng", "hiv"],
            ["male", "doc", "bc"],
            ["female", "eng", "bc"],
            ["female", "eng", "bc"],
            ["female", "eng", "flu"],
        ] {
            b.push_values(&row).unwrap();
        }
        b.build()
    }

    #[test]
    fn spec_partitions_attributes() {
        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        assert_eq!(spec.sa(), 2);
        assert_eq!(spec.na(), &[0, 1]);
        assert_eq!(spec.m(), 3);
    }

    #[test]
    fn groups_cover_table_disjointly() {
        let t = demo_table();
        let groups = PersonalGroups::build(&t, SaSpec::new(&t, 2));
        assert_eq!(groups.len(), 3); // (m,e), (m,d), (f,e)
        let total: usize = groups.groups().iter().map(PersonalGroup::len).sum();
        assert_eq!(total, t.rows());
        assert_eq!(groups.total_rows(), 7);
    }

    #[test]
    fn sa_histograms_match_members() {
        let t = demo_table();
        let groups = PersonalGroups::build(&t, SaSpec::new(&t, 2));
        // Key [0, 0] = male engineers: 2 flu, 1 hiv.
        let me = groups
            .groups()
            .iter()
            .find(|g| g.key == vec![0, 0])
            .unwrap();
        assert_eq!(me.sa_hist, vec![2, 1, 0]);
        assert!((me.frequency(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((me.max_frequency() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_histogram_unions_personal_groups() {
        let t = demo_table();
        let groups = PersonalGroups::build(&t, SaSpec::new(&t, 2));
        // Pattern: Job = eng (Gender wild) — D(⁎, eng).
        let pattern = Pattern::new(vec![(0, Term::Wildcard), (1, Term::Value(0))]);
        let (support, hist) = groups.aggregate_histogram(&pattern);
        assert_eq!(support, 6);
        assert_eq!(hist, vec![3, 1, 2]);
    }

    #[test]
    fn matching_with_empty_pattern_yields_all() {
        let t = demo_table();
        let groups = PersonalGroups::build(&t, SaSpec::new(&t, 2));
        let all = Pattern::new(vec![]);
        assert_eq!(groups.matching(&all).count(), groups.len());
        let (support, _) = groups.aggregate_histogram(&all);
        assert_eq!(support, 7);
    }

    #[test]
    fn is_personal_pattern_detects_full_specification() {
        let t = demo_table();
        let spec = SaSpec::new(&t, 2);
        let personal = Pattern::from_codes(&[0, 1], &[0, 0]);
        assert!(spec.is_personal_pattern(&personal));
        let aggregate = Pattern::new(vec![(0, Term::Wildcard), (1, Term::Value(0))]);
        assert!(!spec.is_personal_pattern(&aggregate));
        let partial = Pattern::from_codes(&[1], &[0]);
        assert!(!spec.is_personal_pattern(&partial));
    }

    #[test]
    fn average_size() {
        let t = demo_table();
        let groups = PersonalGroups::build(&t, SaSpec::new(&t, 2));
        assert!((groups.average_size() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn build_on_empty_table() {
        let schema = Schema::new(vec![
            Attribute::new("NA", ["x", "y"]),
            Attribute::new("SA", ["a", "b"]),
        ]);
        let t = TableBuilder::new(schema).build();
        let spec = SaSpec::new(&t, 1);
        let g = PersonalGroups::build(&t, spec);
        assert!(g.is_empty());
        assert_eq!(g.total_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one public attribute")]
    fn single_attribute_table_rejected() {
        let schema = Schema::new(vec![Attribute::new("SA", ["a", "b"])]);
        let t = TableBuilder::new(schema).build();
        SaSpec::new(&t, 0);
    }

    #[test]
    #[should_panic(expected = "at least 2 values")]
    fn unary_sa_domain_rejected() {
        let schema = Schema::new(vec![
            Attribute::new("NA", ["x", "y"]),
            Attribute::new("SA", ["only"]),
        ]);
        let t = TableBuilder::new(schema).build();
        SaSpec::new(&t, 1);
    }
}
