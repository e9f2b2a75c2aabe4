//! # rp-core
//!
//! Rust implementation of *Reconstruction Privacy: Enabling Statistical
//! Learning* (Ke Wang, Chao Han, Ada Wai-Chee Fu, Raymond Chi-Wing Wong,
//! Philip S. Yu — EDBT 2015): the `(λ, δ)`-reconstruction-privacy criterion
//! and the Sampling–Perturbing–Scaling (SPS) enforcement algorithm, together
//! with every piece the paper builds them from.
//!
//! ## Map from paper to modules
//!
//! | Paper | Module |
//! |---|---|
//! | Eq. 3: uniform perturbation matrix `P` and its inverse | [`matrix`] |
//! | §3.1: retain-with-probability-`p` perturbation of `SA` | [`perturb`] |
//! | Thm. 1 / Lemma 2: MLE reconstruction `F′` | [`mle`] (plus [`em`], an iterative-Bayes extension) |
//! | §3.2: personal vs aggregate groups | [`groups`] |
//! | Def. 3, Thm. 2, Cor. 3, Cor. 4, Eq. 10: the criterion and its test | [`privacy`] |
//! | §3.4 / Eq. 4: χ²-merging of public-attribute values | [`generalize`] |
//! | §5: the SPS algorithm (record- and histogram-level) | [`mod@sps`] |
//! | §6: count-query estimation `est = \|S*\|·F′` | [`estimate`] |
//! | ρ1-ρ2 / l-diversity / t-closeness side criteria | [`criteria`] |
//! | §5's rejected alternatives (reduce-p, suppression) | [`alternatives`] |
//! | §3.1's record-insertion story as a live publisher | [`incremental`] |
//! | Estimator variance / confidence intervals | [`variance`] |
//!
//! ## Quick example
//!
//! This crate is the *primitive layer*: free functions over tables,
//! groups and histograms. The ergonomic publish-once/answer-many surface
//! — `Publisher`, `Publication`, `QueryEngine` — lives in `rp-engine`,
//! which composes these primitives; start there (its crate docs carry the
//! full quickstart) unless you need a single stage in isolation:
//!
//! ```
//! use rand::SeedableRng;
//! use rp_core::groups::{PersonalGroups, SaSpec};
//! use rp_core::privacy::{check_groups, PrivacyParams};
//! use rp_core::sps::{sps, SpsConfig};
//! use rp_table::{Attribute, Schema, TableBuilder};
//!
//! // A toy table: Gender is public, Disease sensitive.
//! let schema = Schema::new(vec![
//!     Attribute::new("Gender", ["male", "female"]),
//!     Attribute::new("Disease", ["flu", "hiv", "none"]),
//! ]);
//! let mut builder = TableBuilder::new(schema);
//! for i in 0..5000u32 {
//!     let gender = if i % 2 == 0 { "male" } else { "female" };
//!     let disease = if i % 10 < 8 { "none" } else { "flu" };
//!     builder.push_values(&[gender, disease]).unwrap();
//! }
//! let table = builder.build();
//!
//! // One stage at a time: does plain uniform perturbation at p = 0.5
//! // satisfy (0.3, 0.3)-reconstruction privacy?
//! let spec = SaSpec::new(&table, 1);
//! let groups = PersonalGroups::build(&table, spec);
//! let params = PrivacyParams::new(0.3, 0.3);
//! let report = check_groups(&groups, 0.5, params);
//! assert!(!report.is_private(), "large groups violate");
//!
//! // Enforce it with SPS. (`rp_engine::Publisher` runs these three stages
//! // in one call and bundles the output into a `Publication`.)
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let output = sps(&mut rng, &table, &groups, SpsConfig { p: 0.5, params });
//! assert!(output.stats.groups_sampled > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alternatives;
pub mod audit;
pub mod criteria;
pub mod em;
pub mod estimate;
pub mod generalize;
pub mod groups;
pub mod incremental;
pub mod matrix;
pub mod mle;
pub mod perturb;
pub mod privacy;
pub mod sps;
pub mod variance;

pub use alternatives::{max_private_retention, suppress_and_perturb, SuppressionOutput};
pub use audit::{audit, PublicationAudit};
pub use estimate::{estimate_by_scan, GroupedView};
pub use generalize::{AttributeGeneralization, Generalization, MergeTest};
pub use groups::{PersonalGroup, PersonalGroups, SaSpec};
pub use incremental::{GroupStatus, IncrementalPublisher, LiveGroup};
pub use matrix::PerturbationMatrix;
pub use mle::{estimate_count, reconstruct_frequency, reconstruct_histogram};
pub use perturb::UniformPerturbation;
pub use privacy::{check_groups, group_is_private, max_group_size, PrivacyParams, ViolationReport};
pub use sps::{sps, sps_histograms, uniform_perturb, up_histograms, SpsConfig, SpsOutput};
pub use variance::{
    confidence_interval, confidence_interval_z, critical_value, reconstruction_se,
    reconstruction_variance, ConfidenceInterval,
};
