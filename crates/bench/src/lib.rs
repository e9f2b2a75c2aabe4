//! # rp-bench
//!
//! Criterion benchmark harness for the reconstruction-privacy workspace:
//! one bench per paper table/figure (reduced scale — the full-scale
//! regeneration lives in the `repro` binary of `rp-experiments`), plus
//! component microbenches, the ablation benches called out in DESIGN.md
//! §6, and the serving-path benches (`bench_serve`, `bench_catalog`,
//! `bench_open`, `bench_stream`, `bench_obs`). Every count query is
//! answered by `GroupedView::support_and_observed`; `bench_components`'
//! `query_answering` group times its one-term marginal read and its
//! multi-term word matcher.
//!
//! Shared fixtures live here so every bench sees identical inputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rp_experiments::config::PreparedDataset;

/// Rows used for the reduced ADULT fixture in benches.
pub const BENCH_ADULT_ROWS: usize = 12_000;

/// Rows used for the reduced CENSUS fixture in benches.
pub const BENCH_CENSUS_ROWS: usize = 40_000;

/// The reduced ADULT fixture (generated + generalized + grouped).
pub fn adult_fixture() -> PreparedDataset {
    PreparedDataset::adult_small(BENCH_ADULT_ROWS)
}

/// The reduced CENSUS fixture.
pub fn census_fixture() -> PreparedDataset {
    PreparedDataset::census(BENCH_CENSUS_ROWS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_materialize() {
        let a = adult_fixture();
        assert_eq!(a.raw.rows(), BENCH_ADULT_ROWS);
        let c = census_fixture();
        assert_eq!(c.raw.rows(), BENCH_CENSUS_ROWS);
    }
}
