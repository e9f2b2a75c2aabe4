//! Figures 3 and 5: average relative error of count queries answered from
//! the UP and SPS publications, swept over p, λ, δ and (CENSUS) `|D|`.
//!
//! Utility protocol of Section 6.1: a pool of 5,000 selective queries, the
//! estimator `est = |S*| · F′`, relative error `|est − ans| / ans`
//! averaged over the pool, then averaged again over 10 independent
//! perturbation runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::privacy::PrivacyParams;
use rp_core::sps::{sps_groups, up_histograms, SpsConfig};
use rp_datagen::querypool::{QueryPool, QueryPoolConfig};
use rp_engine::{EngineError, QueryEngine};
use rp_stats::summary::relative_error;

use crate::config::{defaults, PreparedDataset};
use crate::violation::SweepAxis;

/// One sweep point: the mean relative error of both methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorPoint {
    /// The swept parameter's value.
    pub value: f64,
    /// Average relative error answering from plain uniform perturbation.
    pub up: f64,
    /// Average relative error answering from the SPS publication.
    pub sps: f64,
}

/// One relative-error sweep (a sub-figure of Figures 3/5).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSweep {
    /// Data set name.
    pub dataset: String,
    /// The swept axis.
    pub axis: SweepAxis,
    /// The sweep points.
    pub points: Vec<ErrorPoint>,
}

/// Protocol knobs (pool size and run count shrink for tests/benches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProtocol {
    /// Queries in the pool.
    pub pool_size: usize,
    /// Perturbation runs averaged.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ErrorProtocol {
    fn default() -> Self {
        Self {
            pool_size: defaults::POOL_SIZE,
            runs: defaults::RUNS,
            seed: 0x5EED_E881,
        }
    }
}

/// Mean relative error of UP and SPS for one `(p, λ, δ)` setting.
///
/// The query pool is generated by the caller so sweeps reuse it across
/// settings; every perturbed engine below answers it query by query.
fn measure(
    dataset: &PreparedDataset,
    pool: &QueryPool,
    p: f64,
    params: PrivacyParams,
    runs: usize,
    rng: &mut StdRng,
) -> (f64, f64) {
    let groups = &dataset.groups;
    let schema = dataset.generalized.schema();
    let mut up_total = 0.0;
    let mut sps_total = 0.0;
    for _ in 0..runs {
        let up = up_histograms(rng, groups, p);
        let up_engine = QueryEngine::from_groups(schema, groups.spec(), p, &up);
        let (sps, _) = sps_groups(rng, groups, SpsConfig { p, params });
        let sps_engine = QueryEngine::from_groups(schema, groups.spec(), p, &sps);
        up_total +=
            mean_relative_error(&up_engine, pool).expect("pool queries fit the generalized schema");
        sps_total += mean_relative_error(&sps_engine, pool)
            .expect("pool queries fit the generalized schema");
    }
    (up_total / runs as f64, sps_total / runs as f64)
}

/// Mean relative error `|est − ans| / ans` over a pool — the paper's
/// Section-6 utility measure for one perturbation run. Each pooled query
/// is answered through [`QueryEngine::answer`]; an empty pool measures 0.
///
/// # Errors
///
/// As [`QueryEngine::answer`].
pub fn mean_relative_error(engine: &QueryEngine, pool: &QueryPool) -> Result<f64, EngineError> {
    if pool.is_empty() {
        return Ok(0.0);
    }
    let mut total = 0.0;
    for pq in &pool.queries {
        total += relative_error(engine.answer(&pq.query)?.estimate, pq.answer as f64);
    }
    Ok(total / pool.queries.len() as f64)
}

/// Builds the Section-6 query pool for a data set.
pub fn build_pool(dataset: &PreparedDataset, protocol: ErrorProtocol) -> QueryPool {
    let mut rng = StdRng::seed_from_u64(protocol.seed);
    QueryPool::generate(
        &mut rng,
        dataset.raw.schema(),
        &dataset.generalization,
        &dataset.groups,
        QueryPoolConfig {
            pool_size: protocol.pool_size,
            ..QueryPoolConfig::default()
        },
    )
}

/// Runs one sweep, holding the other parameters at the paper's defaults.
pub fn sweep(
    dataset: &PreparedDataset,
    axis: SweepAxis,
    values: &[f64],
    protocol: ErrorProtocol,
) -> ErrorSweep {
    let pool = build_pool(dataset, protocol);
    let mut rng = StdRng::seed_from_u64(protocol.seed ^ 0xABCD);
    let points = values
        .iter()
        .map(|&value| {
            let (p, lambda, delta) = match axis {
                SweepAxis::P => (value, defaults::LAMBDA, defaults::DELTA),
                SweepAxis::Lambda => (defaults::P, value, defaults::DELTA),
                SweepAxis::Delta => (defaults::P, defaults::LAMBDA, value),
            };
            let params = PrivacyParams::new(lambda, delta);
            let (up, sps) = measure(dataset, &pool, p, params, protocol.runs, &mut rng);
            ErrorPoint { value, up, sps }
        })
        .collect();
    ErrorSweep {
        dataset: dataset.name.clone(),
        axis,
        points,
    }
}

/// The paper's three sweeps for one data set (Figure 3 on ADULT, the first
/// three panels of Figure 5 on CENSUS).
pub fn run_all(dataset: &PreparedDataset, protocol: ErrorProtocol) -> Vec<ErrorSweep> {
    vec![
        sweep(dataset, SweepAxis::P, &defaults::P_SWEEP, protocol),
        sweep(
            dataset,
            SweepAxis::Lambda,
            &defaults::LAMBDA_SWEEP,
            protocol,
        ),
        sweep(dataset, SweepAxis::Delta, &defaults::DELTA_SWEEP, protocol),
    ]
}

/// The `|D|` panel of Figure 5: relative error at defaults across CENSUS
/// sizes.
pub fn census_size_sweep(sizes: &[usize], protocol: ErrorProtocol) -> ErrorSweep {
    let params = PrivacyParams::new(defaults::LAMBDA, defaults::DELTA);
    let mut points = Vec::with_capacity(sizes.len());
    for &rows in sizes {
        let dataset = PreparedDataset::census(rows);
        let pool = build_pool(&dataset, protocol);
        let mut rng = StdRng::seed_from_u64(protocol.seed ^ rows as u64);
        let (up, sps) = measure(
            &dataset,
            &pool,
            defaults::P,
            params,
            protocol.runs,
            &mut rng,
        );
        points.push(ErrorPoint {
            value: rows as f64,
            up,
            sps,
        });
    }
    ErrorSweep {
        dataset: "CENSUS".to_string(),
        axis: SweepAxis::P, // size axis; label handled by the renderer
        points,
    }
}

/// Renders a sweep with a custom axis label.
pub fn render(sweep: &ErrorSweep, axis_label: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: avg relative error vs {axis_label} (defaults p={}, lambda={}, delta={})",
        sweep.dataset,
        defaults::P,
        defaults::LAMBDA,
        defaults::DELTA
    );
    let _ = writeln!(out, "{:<12}{:<12}{:<12}", axis_label, "UP", "SPS");
    for pt in &sweep.points {
        let _ = writeln!(out, "{:<12}{:<12.4}{:<12.4}", pt.value, pt.up, pt.sps);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_protocol() -> ErrorProtocol {
        ErrorProtocol {
            pool_size: 150,
            runs: 3,
            seed: 9,
        }
    }

    #[test]
    fn sps_error_dominates_up_error() {
        // SPS trades accuracy for privacy: its error must be at least UP's
        // (up to Monte-Carlo slack) and both must be sane fractions.
        let d = PreparedDataset::adult_small(20_000);
        let s = sweep(&d, SweepAxis::P, &[0.5], test_protocol());
        let pt = s.points[0];
        assert!(pt.up > 0.0 && pt.up < 1.5, "UP error {pt:?}");
        assert!(pt.sps >= pt.up * 0.9, "SPS should not beat UP: {pt:?}");
    }

    #[test]
    fn error_decreases_with_p_for_up() {
        // More retention ⇒ less noise ⇒ smaller UP error.
        let d = PreparedDataset::adult_small(20_000);
        let s = sweep(&d, SweepAxis::P, &[0.1, 0.9], test_protocol());
        assert!(
            s.points[0].up > s.points[1].up,
            "UP error should fall with p: {:?}",
            s.points
        );
    }

    #[test]
    fn pool_reuse_is_deterministic() {
        let d = PreparedDataset::adult_small(10_000);
        let a = sweep(&d, SweepAxis::Delta, &[0.3], test_protocol());
        let b = sweep(&d, SweepAxis::Delta, &[0.3], test_protocol());
        assert_eq!(a, b);
    }

    #[test]
    fn render_has_both_methods() {
        let d = PreparedDataset::adult_small(10_000);
        let s = sweep(&d, SweepAxis::Lambda, &[0.3], test_protocol());
        let text = render(&s, "lambda");
        assert!(text.contains("UP") && text.contains("SPS"));
    }
}
