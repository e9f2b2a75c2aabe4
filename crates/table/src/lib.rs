//! # rp-table
//!
//! In-memory columnar store for categorical microdata — the database
//! substrate of the reconstruction-privacy workspace (Rust reproduction of
//! *Reconstruction Privacy: Enabling Statistical Learning*, EDBT 2015).
//!
//! The paper's data model is a table `D` with several public attributes
//! (`NA`) and one sensitive attribute (`SA`), all categorical. This crate
//! provides:
//!
//! * [`dictionary`] — bidirectional value↔code maps per attribute.
//! * [`schema`] — named attributes with fixed domains.
//! * [`table`] — dictionary-encoded columns, a row builder, row selection
//!   and histograms.
//! * [`predicate`] — the `D(x1, ..., xn)` selection patterns with wildcards
//!   (personal vs aggregate groups, Section 3.2).
//! * [`group`] — sort-based (as prescribed by the paper's SPS algorithm) and
//!   hash-based group-by, and the one-pass per-group histogram kernel that
//!   personal grouping and the query engine are built from, also fed
//!   straight from a saved release's record rows ([`GroupCounts`]).
//! * [`query`] — the Section-6 conjunctive count queries with one `SA`
//!   condition.
//! * [`bitmap`] — per-`(attribute, code)` selection bitmaps combined with
//!   bitwise AND: the word-at-a-time matcher that `rp-core`'s grouped view
//!   runs conjunctive patterns through over its group keys.
//! * [`csv`] — CSV import/export so real microdata (e.g. the actual UCI
//!   ADULT file) can be loaded in place of the synthetic substitutes.
//!
//! Which attribute plays the role of `SA` is decided by the layers above
//! (`rp-core`); this crate is policy-free.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitmap;
pub mod csv;
pub mod dictionary;
pub mod error;
pub mod group;
pub mod predicate;
pub mod query;
mod recycle;
pub mod schema;
pub mod table;

pub use bitmap::BitmapIndex;
pub use csv::{read_csv, write_csv, CsvError};
pub use dictionary::Dictionary;
pub use error::TableError;
pub use group::{group_by_hash, group_by_sort, group_histograms, Group, GroupCounts, Grouping};
pub use predicate::{terms_match_key, Pattern, Term};
pub use query::CountQuery;
pub use schema::{AttrId, Attribute, Schema};
pub use table::{CodeRows, Column, RunWriter, Table, TableBuilder};
