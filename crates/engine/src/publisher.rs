//! The builder-style [`Publisher`]: one call from a raw table to a
//! reconstruction-private [`Publication`].
//!
//! ```text
//! Publisher::new(table).sa(attr).privacy(0.3, 0.3).retention(0.5).seed(7).publish()
//! ```
//!
//! runs the paper's enforcement pipeline — personal grouping (Section 3.2),
//! the Equation-10 design check (Corollary 4), and SPS (Section 5) — and
//! returns the published personal groups, each its key and published SA
//! histogram, bundled with every parameter a query side needs. Unlike the
//! free functions in `rp-core`, the builder validates all parameters up
//! front and returns typed errors instead of panicking.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::groups::{PersonalGroups, SaSpec};
use rp_core::privacy::{check_groups, PrivacyParams};
use rp_core::sps::{sps_groups, SpsConfig};
use rp_table::{AttrId, Schema, Table, TableError};

use crate::publication::{DesignCheck, Publication};

/// Default retention probability (the paper's Table 6 bold default).
pub const DEFAULT_P: f64 = 0.5;
/// Default relative-error threshold λ.
pub const DEFAULT_LAMBDA: f64 = 0.3;
/// Default probability floor δ.
pub const DEFAULT_DELTA: f64 = 0.3;
/// Default RNG seed (shared with `rpctl`).
pub const DEFAULT_SEED: u64 = 0x5EED_0C71;

#[derive(Debug, Clone)]
enum SaSelector {
    Id(AttrId),
    Name(String),
}

/// Builder for a reconstruction-private release of one table.
///
/// All setters are chainable; every parameter except the sensitive
/// attribute has the paper's default. [`Publisher::publish`] validates the
/// whole configuration and returns a [`Publication`].
#[derive(Debug, Clone)]
pub struct Publisher {
    table: Table,
    sa: Option<SaSelector>,
    p: f64,
    lambda: f64,
    delta: f64,
    seed: u64,
}

impl Publisher {
    /// Starts a release of `table` with the paper's default parameters
    /// (`p = 0.5`, `λ = δ = 0.3`).
    pub fn new(table: Table) -> Self {
        Self {
            table,
            sa: None,
            p: DEFAULT_P,
            lambda: DEFAULT_LAMBDA,
            delta: DEFAULT_DELTA,
            seed: DEFAULT_SEED,
        }
    }

    /// Returns the builder unchanged; `shards` and `threads` are ignored.
    /// Kept only because the `perfbench` harness still calls it, and
    /// removed once the harness stops doing so.
    pub fn parallelism(self, _shards: usize, _threads: usize) -> Self {
        self
    }

    /// Marks the attribute at `attr` sensitive (all others are public).
    pub fn sa(mut self, attr: AttrId) -> Self {
        self.sa = Some(SaSelector::Id(attr));
        self
    }

    /// Marks the attribute named `name` sensitive, resolved against the
    /// table's schema at publish time.
    pub fn sa_named(mut self, name: impl Into<String>) -> Self {
        self.sa = Some(SaSelector::Name(name.into()));
        self
    }

    /// Sets the `(λ, δ)`-reconstruction-privacy requirement to enforce.
    pub fn privacy(mut self, lambda: f64, delta: f64) -> Self {
        self.lambda = lambda;
        self.delta = delta;
        self
    }

    /// Sets the retention probability `p` of the underlying uniform
    /// perturbation.
    pub fn retention(mut self, p: f64) -> Self {
        self.p = p;
        self
    }

    /// Sets the RNG seed. The release is a pure function of the input
    /// table, the parameters and this seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs grouping, the Equation-10 check and SPS, returning the release.
    ///
    /// # Errors
    ///
    /// Returns a [`PublishError`] when the sensitive attribute is missing
    /// or unresolvable, a parameter is outside its valid range, or the
    /// table shape cannot support the criterion (no public attribute, or an
    /// SA domain smaller than 2).
    pub fn publish(self) -> Result<Publication, PublishError> {
        let sa = match self.sa.ok_or(PublishError::MissingSa)? {
            SaSelector::Id(id) => {
                self.table.schema().get(id)?;
                id
            }
            SaSelector::Name(name) => self.table.schema().attr_id(&name)?,
        };
        let (spec, params) =
            check_parameters(self.table.schema(), sa, self.p, self.lambda, self.delta)?;
        let groups = PersonalGroups::build(&self.table, spec);
        let report = check_groups(&groups, self.p, params);
        let check = DesignCheck {
            total_groups: groups.len(),
            violating_groups: report.violating_groups(),
            total_records: report.total_records,
            violating_records: report.violating_records,
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        let config = SpsConfig { p: self.p, params };
        let (published, stats) = sps_groups(&mut rng, &groups, config);
        Ok(Publication::from_parts(
            self.table.schema().clone(),
            published,
            sa,
            self.p,
            params,
            self.seed,
            stats,
            check,
        ))
    }
}

/// The checks [`Publisher::publish`] runs before it groups a table over
/// `schema` with the attribute at `sa` sensitive: `p` in `(0, 1)`, `λ`
/// positive and finite, `δ` in `(0, 1]`, a public attribute besides SA
/// and an SA domain of at least 2 values. Returns the grouping's spec and
/// the privacy requirement.
///
/// # Errors
///
/// The [`PublishError`] of the first check that fails, in that order.
///
/// # Panics
///
/// Panics if `sa` is out of range for `schema`.
pub fn check_parameters(
    schema: &Schema,
    sa: AttrId,
    p: f64,
    lambda: f64,
    delta: f64,
) -> Result<(SaSpec, PrivacyParams), PublishError> {
    if !(p > 0.0 && p < 1.0) {
        return Err(PublishError::InvalidRetention(p));
    }
    if !(lambda > 0.0 && lambda.is_finite()) {
        return Err(PublishError::InvalidLambda(lambda));
    }
    if !(delta > 0.0 && delta <= 1.0) {
        return Err(PublishError::InvalidDelta(delta));
    }
    if schema.arity() < 2 {
        return Err(PublishError::NoPublicAttributes);
    }
    let m = schema.attribute(sa).domain_size();
    if m < 2 {
        return Err(PublishError::SaDomainTooSmall { m });
    }
    Ok((
        SaSpec::for_schema(schema, sa),
        PrivacyParams::new(lambda, delta),
    ))
}

/// Errors raised by [`Publisher::publish`].
#[derive(Debug)]
pub enum PublishError {
    /// No sensitive attribute was selected.
    MissingSa,
    /// The sensitive attribute name or index did not resolve.
    Table(TableError),
    /// Retention `p` outside `(0, 1)`.
    InvalidRetention(f64),
    /// `λ` not positive and finite.
    InvalidLambda(f64),
    /// `δ` outside `(0, 1]`.
    InvalidDelta(f64),
    /// The table has no public attribute besides SA.
    NoPublicAttributes,
    /// The SA domain has fewer than 2 values.
    SaDomainTooSmall {
        /// The offending domain size.
        m: usize,
    },
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::MissingSa => {
                write!(f, "no sensitive attribute selected (call .sa or .sa_named)")
            }
            PublishError::Table(e) => write!(f, "sensitive attribute: {e}"),
            PublishError::InvalidRetention(p) => {
                // rp-analyze: allow(canonical-floats, "human-facing error message, not artifact or wire bytes")
                write!(f, "retention p must lie in (0, 1), got {p}")
            }
            PublishError::InvalidLambda(l) => {
                write!(f, "lambda must be positive and finite, got {l}")
            }
            PublishError::InvalidDelta(d) => write!(f, "delta must lie in (0, 1], got {d}"),
            PublishError::NoPublicAttributes => {
                write!(f, "table needs at least one public attribute besides SA")
            }
            PublishError::SaDomainTooSmall { m } => {
                write!(f, "SA domain must have at least 2 values, got {m}")
            }
        }
    }
}

impl std::error::Error for PublishError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PublishError::Table(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TableError> for PublishError {
    fn from(e: TableError) -> Self {
        PublishError::Table(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::sps::{sps, uniform_perturb};
    use rp_table::{Attribute, Schema, TableBuilder};

    fn demo_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("G", ["a", "b"]),
            Attribute::new("SA", ["x", "y"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..5000u32 {
            b.push_codes(&[0, u32::from(i % 10 >= 7)]).unwrap();
        }
        for i in 0..20u32 {
            b.push_codes(&[1, i % 2]).unwrap();
        }
        b.build()
    }

    #[test]
    fn publish_matches_manual_pipeline_exactly() {
        let t = demo_table();
        let publication = Publisher::new(t.clone())
            .sa(1)
            .privacy(0.3, 0.3)
            .retention(0.5)
            .seed(77)
            .publish()
            .unwrap();
        // The legacy free-function path with the same seed.
        let spec = SaSpec::new(&t, 1);
        let groups = PersonalGroups::build(&t, spec);
        let mut rng = StdRng::seed_from_u64(77);
        let out = sps(
            &mut rng,
            &t,
            &groups,
            SpsConfig {
                p: 0.5,
                params: PrivacyParams::new(0.3, 0.3),
            },
        );
        assert_eq!(publication.table(), out.table);
        assert_eq!(publication.stats(), out.stats);
        assert_eq!(publication.seed(), 77);
        assert!(!publication.check().is_private(), "big group violates");
    }

    #[test]
    fn sa_by_name_resolves() {
        let p = Publisher::new(demo_table())
            .sa_named("SA")
            .publish()
            .unwrap();
        assert_eq!(p.sa(), 1);
        assert_eq!(p.sa_name(), "SA");
        assert_eq!(p.p(), DEFAULT_P);
    }

    #[test]
    fn missing_and_unknown_sa_are_errors() {
        assert!(matches!(
            Publisher::new(demo_table()).publish(),
            Err(PublishError::MissingSa)
        ));
        assert!(matches!(
            Publisher::new(demo_table()).sa_named("Nope").publish(),
            Err(PublishError::Table(TableError::UnknownAttribute(_)))
        ));
        assert!(matches!(
            Publisher::new(demo_table()).sa(9).publish(),
            Err(PublishError::Table(
                TableError::AttributeIndexOutOfRange { .. }
            ))
        ));
    }

    #[test]
    fn invalid_parameters_are_errors() {
        let t = demo_table();
        assert!(matches!(
            Publisher::new(t.clone()).sa(1).retention(1.0).publish(),
            Err(PublishError::InvalidRetention(_))
        ));
        assert!(matches!(
            Publisher::new(t.clone()).sa(1).privacy(0.0, 0.3).publish(),
            Err(PublishError::InvalidLambda(_))
        ));
        assert!(matches!(
            Publisher::new(t).sa(1).privacy(0.3, 1.5).publish(),
            Err(PublishError::InvalidDelta(_))
        ));
    }

    #[test]
    fn private_design_degenerates_to_up() {
        // A table whose groups are all tiny: check passes, SPS == UP.
        let schema = Schema::new(vec![
            Attribute::new("G", ["a", "b"]),
            Attribute::new("SA", ["x", "y"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..40u32 {
            b.push_codes(&[i % 2, (i / 2) % 2]).unwrap();
        }
        let t = b.build();
        let publication = Publisher::new(t.clone()).sa(1).seed(5).publish().unwrap();
        assert!(publication.check().is_private());
        assert_eq!(publication.stats().groups_sampled, 0);
        // With no sampling, SPS is plain UP over the sorted groups — same
        // record count.
        assert_eq!(publication.table().rows(), t.rows());
        let spec = SaSpec::new(&t, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let up = uniform_perturb(&mut rng, &t, &spec, DEFAULT_P);
        assert_eq!(up.rows(), publication.table().rows());
    }

    #[test]
    fn error_display_is_informative() {
        for (e, needle) in [
            (PublishError::MissingSa, "sensitive"),
            (PublishError::InvalidRetention(2.0), "(0, 1)"),
            (PublishError::NoPublicAttributes, "public attribute"),
            (PublishError::SaDomainTooSmall { m: 1 }, "at least 2"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
