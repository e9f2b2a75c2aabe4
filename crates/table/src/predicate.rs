//! Predicates over table rows: conjunctions of equality conditions with
//! wildcard support.
//!
//! This mirrors the paper's `D(x1, ..., xn)` notation, where each `xi` is
//! either a domain value of attribute `Ai` or the wildcard `⁎` that matches
//! every value. A pattern with no wildcards selects a *personal group*; a
//! pattern with at least one wildcard selects an *aggregate group*
//! (Section 3.2).

use crate::error::TableError;
use crate::schema::{AttrId, Schema};
use crate::table::Table;

/// One coordinate of a selection pattern: a concrete value code or the
/// wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// Matches every domain value of the attribute.
    Wildcard,
    /// Matches exactly this code.
    Value(u32),
}

impl Term {
    /// Whether this term matches `code`.
    #[inline]
    pub fn matches(&self, code: u32) -> bool {
        match self {
            Term::Wildcard => true,
            Term::Value(v) => *v == code,
        }
    }

    /// Whether this term is the wildcard.
    pub fn is_wildcard(&self) -> bool {
        matches!(self, Term::Wildcard)
    }
}

/// A selection pattern `(x1, ..., xk)` over a subset of attributes: the
/// conjunction of equality conditions, with wildcards allowed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    terms: Vec<(AttrId, Term)>,
}

impl Pattern {
    /// Creates a pattern from explicit `(attribute, term)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the same attribute appears twice.
    pub fn new(terms: Vec<(AttrId, Term)>) -> Self {
        for (i, (a, _)) in terms.iter().enumerate() {
            for (b, _) in &terms[i + 1..] {
                assert!(a != b, "attribute {a} appears twice in pattern");
            }
        }
        Self { terms }
    }

    /// Creates the all-wildcard pattern over `attrs` (matches everything).
    pub fn all_wildcards(attrs: &[AttrId]) -> Self {
        Self::new(attrs.iter().map(|&a| (a, Term::Wildcard)).collect())
    }

    /// Creates a fully-specified (no wildcard) pattern from parallel slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or repeat an attribute.
    pub fn from_codes(attrs: &[AttrId], codes: &[u32]) -> Self {
        assert_eq!(attrs.len(), codes.len(), "attrs and codes must be parallel");
        Self::new(
            attrs
                .iter()
                .zip(codes)
                .map(|(&a, &c)| (a, Term::Value(c)))
                .collect(),
        )
    }

    /// The `(attribute, term)` pairs.
    pub fn terms(&self) -> &[(AttrId, Term)] {
        &self.terms
    }

    /// Number of non-wildcard conditions (the query dimensionality `d` of
    /// Section 6).
    pub fn dimensionality(&self) -> usize {
        self.terms.iter().filter(|(_, t)| !t.is_wildcard()).count()
    }

    /// Whether this pattern has at least one wildcard among its terms.
    pub fn has_wildcard(&self) -> bool {
        self.terms.iter().any(|(_, t)| t.is_wildcard())
    }

    /// Validates the pattern against a schema (attribute ids in range, codes
    /// within their domains).
    pub fn validate(&self, schema: &Schema) -> Result<(), TableError> {
        for &(attr, term) in &self.terms {
            schema.get(attr)?;
            if let Term::Value(code) = term {
                schema.check_code(attr, code)?;
            }
        }
        Ok(())
    }

    /// Whether row `row` of `table` satisfies every term.
    #[inline]
    pub fn matches_row(&self, table: &Table, row: usize) -> bool {
        self.terms
            .iter()
            .all(|&(attr, term)| term.matches(table.code(row, attr)))
    }

    /// Indices of all rows of `table` matching the pattern.
    pub fn select(&self, table: &Table) -> Vec<u32> {
        (0..table.rows())
            .filter(|&r| self.matches_row(table, r))
            .map(|r| r as u32)
            .collect()
    }

    /// Number of rows of `table` matching the pattern (a COUNT(*) without
    /// materializing indices).
    pub fn count(&self, table: &Table) -> u64 {
        (0..table.rows())
            .filter(|&r| self.matches_row(table, r))
            .count() as u64
    }

    /// Whether a group key (codes over `attrs`, in the same order) satisfies
    /// the pattern. Attributes absent from `attrs` are treated as wildcards.
    pub fn matches_key(&self, attrs: &[AttrId], key: &[u32]) -> bool {
        terms_match_key(&self.terms, attrs, key)
    }
}

impl AsRef<[(AttrId, Term)]> for Pattern {
    fn as_ref(&self) -> &[(AttrId, Term)] {
        &self.terms
    }
}

/// [`Pattern::matches_key`] over a bare `(attribute, term)` slice, so a
/// caller holding terms need not build a [`Pattern`].
pub fn terms_match_key(terms: &[(AttrId, Term)], attrs: &[AttrId], key: &[u32]) -> bool {
    terms.iter().all(
        |&(attr, term)| match attrs.iter().position(|&a| a == attr) {
            Some(i) => term.matches(key[i]),
            None => true,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use crate::table::TableBuilder;

    fn demo_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("Gender", ["male", "female"]),
            Attribute::new("Job", ["eng", "doc"]),
            Attribute::new("Disease", ["flu", "hiv", "bc"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for row in [
            ["male", "eng", "flu"],
            ["male", "eng", "hiv"],
            ["female", "doc", "bc"],
            ["female", "eng", "flu"],
            ["male", "doc", "flu"],
        ] {
            b.push_values(&row).unwrap();
        }
        b.build()
    }

    #[test]
    fn personal_pattern_selects_exact_rows() {
        let t = demo_table();
        // male ∧ eng
        let p = Pattern::from_codes(&[0, 1], &[0, 0]);
        assert_eq!(p.select(&t), vec![0, 1]);
        assert_eq!(p.count(&t), 2);
        assert!(!p.has_wildcard());
        assert_eq!(p.dimensionality(), 2);
    }

    #[test]
    fn wildcard_pattern_is_aggregate() {
        let t = demo_table();
        // ⁎ ∧ eng
        let p = Pattern::new(vec![(0, Term::Wildcard), (1, Term::Value(0))]);
        assert_eq!(p.select(&t), vec![0, 1, 3]);
        assert!(p.has_wildcard());
        assert_eq!(p.dimensionality(), 1);
    }

    #[test]
    fn all_wildcards_matches_everything() {
        let t = demo_table();
        let p = Pattern::all_wildcards(&[0, 1, 2]);
        assert_eq!(p.count(&t), 5);
        assert_eq!(p.dimensionality(), 0);
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let t = demo_table();
        let p = Pattern::new(vec![]);
        assert_eq!(p.count(&t), 5);
        assert!(!p.has_wildcard());
    }

    #[test]
    fn validate_catches_bad_terms() {
        let t = demo_table();
        let bad_attr = Pattern::new(vec![(7, Term::Value(0))]);
        assert!(bad_attr.validate(t.schema()).is_err());
        let bad_code = Pattern::new(vec![(0, Term::Value(9))]);
        assert!(bad_code.validate(t.schema()).is_err());
        let ok = Pattern::new(vec![(0, Term::Value(1)), (2, Term::Wildcard)]);
        assert!(ok.validate(t.schema()).is_ok());
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_attribute_rejected() {
        Pattern::new(vec![(0, Term::Value(0)), (0, Term::Value(1))]);
    }

    #[test]
    fn matches_key_ignores_absent_attrs() {
        // Pattern over Gender=male, Disease=flu; keys only carry Gender+Job.
        let p = Pattern::new(vec![(0, Term::Value(0)), (2, Term::Value(0))]);
        assert!(p.matches_key(&[0, 1], &[0, 1]));
        assert!(!p.matches_key(&[0, 1], &[1, 1]));
        // With Disease present in the key, it is enforced.
        assert!(!p.matches_key(&[0, 2], &[0, 1]));
        assert!(p.matches_key(&[0, 2], &[0, 0]));
    }

    #[test]
    fn count_matches_select_len() {
        let t = demo_table();
        for p in [
            Pattern::from_codes(&[2], &[0]),
            Pattern::new(vec![(1, Term::Value(1)), (2, Term::Wildcard)]),
        ] {
            assert_eq!(p.count(&t) as usize, p.select(&t).len());
        }
    }
}
