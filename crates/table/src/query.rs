//! Count queries of the paper's Section 6 form:
//!
//! ```sql
//! SELECT COUNT(*) FROM D
//! WHERE A1 = a1 AND ... AND Ad = ad AND SA = sa
//! ```
//!
//! A [`CountQuery`] separates the public-attribute (`NA`) conditions from
//! the sensitive-attribute condition because the two are treated differently
//! when answering on perturbed data: the `NA` part selects the subset `S*`
//! exactly (public attributes are never perturbed), while the `SA` part must
//! be *reconstructed* from the perturbed column.

use crate::error::TableError;
use crate::predicate::{Pattern, Term};
use crate::schema::{AttrId, Schema};
use crate::table::Table;

/// A conjunctive count query with an optional sensitive-attribute condition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CountQuery {
    na_pattern: Pattern,
    sa_attr: AttrId,
    sa_value: u32,
}

impl CountQuery {
    /// Creates a query from `NA` equality conditions plus the condition
    /// `SA = sa_value`.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::SaAmongConditions`] if `sa_attr` also appears
    /// among the `NA` conditions (the SA condition would be double-counted).
    pub fn new(
        na_conditions: Vec<(AttrId, u32)>,
        sa_attr: AttrId,
        sa_value: u32,
    ) -> Result<Self, TableError> {
        if na_conditions.iter().any(|&(a, _)| a == sa_attr) {
            return Err(TableError::SaAmongConditions { sa_attr });
        }
        let na_pattern = Pattern::new(
            na_conditions
                .into_iter()
                .map(|(a, c)| (a, Term::Value(c)))
                .collect(),
        );
        Ok(Self {
            na_pattern,
            sa_attr,
            sa_value,
        })
    }

    /// The public-attribute part of the WHERE clause.
    pub fn na_pattern(&self) -> &Pattern {
        &self.na_pattern
    }

    /// The sensitive attribute being counted.
    pub fn sa_attr(&self) -> AttrId {
        self.sa_attr
    }

    /// The sensitive value being counted.
    pub fn sa_value(&self) -> u32 {
        self.sa_value
    }

    /// Query dimensionality `d` — the number of `NA` conditions.
    pub fn dimensionality(&self) -> usize {
        self.na_pattern.dimensionality()
    }

    /// Validates attribute ids and codes against a schema.
    pub fn validate(&self, schema: &Schema) -> Result<(), TableError> {
        self.na_pattern.validate(schema)?;
        schema.get(self.sa_attr)?;
        schema.check_code(self.sa_attr, self.sa_value)
    }

    /// The exact answer `ans` on a raw table: rows matching both the `NA`
    /// conditions and `SA = sa`.
    pub fn answer(&self, table: &Table) -> u64 {
        (0..table.rows())
            .filter(|&r| {
                self.na_pattern.matches_row(table, r)
                    && table.code(r, self.sa_attr) == self.sa_value
            })
            .count() as u64
    }

    /// The number of rows matching only the `NA` part (`|S|`), and the
    /// number also matching `SA = sa` (`ans`), in one scan.
    pub fn answer_with_support(&self, table: &Table) -> (u64, u64) {
        let mut support = 0u64;
        let mut ans = 0u64;
        for r in 0..table.rows() {
            if self.na_pattern.matches_row(table, r) {
                support += 1;
                if table.code(r, self.sa_attr) == self.sa_value {
                    ans += 1;
                }
            }
        }
        (support, ans)
    }

    /// Selectivity `ans / |D|` on a raw table. Zero for an empty table.
    pub fn selectivity(&self, table: &Table) -> f64 {
        if table.is_empty() {
            return 0.0;
        }
        self.answer(table) as f64 / table.rows() as f64
    }

    /// Rewrites this query through a per-attribute code translation, used
    /// when queries posed on original `NA` values must be answered on a
    /// generalized table. `translate(attr, code)` returns the new code.
    pub fn map_codes(&self, mut translate: impl FnMut(AttrId, u32) -> u32) -> Self {
        let terms = self
            .na_pattern
            .terms()
            .iter()
            .map(|&(a, t)| match t {
                Term::Wildcard => (a, Term::Wildcard),
                Term::Value(c) => (a, Term::Value(translate(a, c))),
            })
            .collect();
        Self {
            na_pattern: Pattern::new(terms),
            sa_attr: self.sa_attr,
            sa_value: self.sa_value,
        }
    }
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
            ["male", "eng", "flu"],
            ["female", "doc", "bc"],
            ["female", "eng", "flu"],
        ] {
            b.push_values(&row).unwrap();
        }
        b.build()
    }

    #[test]
    fn answer_counts_conjunction() {
        let t = demo_table();
        // Gender=male AND Job=eng AND Disease=flu
        let q = CountQuery::new(vec![(0, 0), (1, 0)], 2, 0).unwrap();
        assert_eq!(q.answer(&t), 2);
        assert_eq!(q.dimensionality(), 2);
    }

    #[test]
    fn answer_with_support_splits_na_and_sa() {
        let t = demo_table();
        let q = CountQuery::new(vec![(0, 0), (1, 0)], 2, 0).unwrap();
        let (support, ans) = q.answer_with_support(&t);
        assert_eq!(support, 3); // male engineers
        assert_eq!(ans, 2); // of which flu
    }

    #[test]
    fn empty_na_counts_sa_marginal() {
        let t = demo_table();
        let q = CountQuery::new(vec![], 2, 0).unwrap();
        assert_eq!(q.answer(&t), 3);
        let (support, ans) = q.answer_with_support(&t);
        assert_eq!(support, 5);
        assert_eq!(ans, 3);
    }

    #[test]
    fn selectivity_fraction() {
        let t = demo_table();
        let q = CountQuery::new(vec![(0, 1)], 2, 2).unwrap(); // female AND bc
        assert!((q.selectivity(&t) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn validate_checks_schema() {
        let t = demo_table();
        let ok = CountQuery::new(vec![(0, 0)], 2, 1).unwrap();
        assert!(ok.validate(t.schema()).is_ok());
        let bad_code = CountQuery::new(vec![(0, 5)], 2, 1).unwrap();
        assert!(bad_code.validate(t.schema()).is_err());
        let bad_sa = CountQuery::new(vec![(0, 0)], 2, 9).unwrap();
        assert!(bad_sa.validate(t.schema()).is_err());
    }

    #[test]
    fn sa_in_na_rejected() {
        assert!(matches!(
            CountQuery::new(vec![(2, 0)], 2, 1),
            Err(TableError::SaAmongConditions { sa_attr: 2 })
        ));
    }

    #[test]
    fn map_codes_rewrites_na_only() {
        let q = CountQuery::new(vec![(0, 1), (1, 0)], 2, 2).unwrap();
        // Collapse every NA code to 0.
        let mapped = q.map_codes(|_, _| 0);
        assert_eq!(mapped.sa_value(), 2, "SA condition untouched");
        let codes: Vec<u32> = mapped
            .na_pattern()
            .terms()
            .iter()
            .map(|&(_, t)| match t {
                Term::Value(c) => c,
                Term::Wildcard => u32::MAX,
            })
            .collect();
        assert_eq!(codes, vec![0, 0]);
    }
}
