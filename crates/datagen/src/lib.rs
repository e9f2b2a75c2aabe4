//! # rp-datagen
//!
//! Synthetic-data substrate for the reconstruction-privacy workspace.
//!
//! The paper evaluates on two data sets that cannot be redistributed here:
//! the UCI ADULT extract and a 500K CENSUS extract. This crate synthesizes
//! both with the properties the experiments actually exercise (domain
//! sizes, marginals, the Example-1 rule, and the latent-class conditional
//! structure that drives the χ²-merge of Section 3.4), plus the Section-6
//! query-pool generator.
//!
//! * [`adult`] — 45,222-record ADULT-like table (Income sensitive).
//! * [`census`] — 100K–500K CENSUS-like table (Occupation sensitive).
//! * [`querypool`] — selective conjunctive count queries (`d ∈ {1,2,3}`,
//!   selectivity ≥ 0.1%).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adult;
pub mod census;
pub mod querypool;

pub use adult::{generate as generate_adult, AdultConfig};
pub use census::{generate as generate_census, CensusConfig};
pub use querypool::{PooledQuery, QueryPool, QueryPoolConfig};
