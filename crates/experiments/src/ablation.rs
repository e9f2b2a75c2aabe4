//! Extension experiment (beyond the paper's figures): utility of the four
//! publishing strategies at a common privacy demand.
//!
//! The paper *argues* that the alternatives to SPS are worse but never
//! measures them. This experiment does, on the same data set and query
//! pool:
//!
//! * **SPS** — the paper's algorithm (sampling only where needed);
//! * **Reduce-p** — plain uniform perturbation with the retention lowered
//!   until *every* group passes the criterion (Section 5's "not preferred"
//!   option; infeasible on large data);
//! * **Suppress** — plain perturbation with violating groups dropped;
//! * **DP histogram** — the output-perturbation philosophy: an ε-DP
//!   contingency release answering the same queries (no reconstruction
//!   privacy at all; shown for calibration);
//! * **Anatomy (l = 2)** — the posterior/prior-criteria philosophy the
//!   introduction contrasts with: l-diverse bucketization (no
//!   reconstruction-privacy guarantee either; a different trade-off).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::alternatives::{max_private_retention, suppress_and_perturb};
use rp_core::privacy::PrivacyParams;
use rp_core::sps::{sps_histograms, up_histograms, SpsConfig};
use rp_dp::histogram::DpHistogram;
use rp_engine::QueryEngine;
use rp_stats::summary::{relative_error, OnlineStats};

use crate::config::PreparedDataset;
use crate::error::{build_pool, ErrorProtocol};

/// A per-run producer of perturbed per-group histograms.
type HistogramProducer = Box<dyn FnMut(&mut StdRng) -> Vec<Vec<u64>>>;

/// Result of the strategy comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Data set name.
    pub dataset: String,
    /// The `(λ, δ)` demand all data-perturbation strategies must meet.
    pub params: PrivacyParams,
    /// Retention used by SPS / Suppress.
    pub p: f64,
    /// Mean relative error of SPS.
    pub sps: f64,
    /// Mean relative error of UP at the reduced retention, with the
    /// retention found; `None` when no retention in `(0.01, p)` makes the
    /// whole table private.
    pub reduce_p: Option<(f64, f64)>,
    /// Mean relative error of the suppression strategy.
    pub suppress: f64,
    /// Fraction of records suppressed by that strategy.
    pub suppressed_fraction: f64,
    /// Mean relative error of the ε-DP histogram release and the ε used.
    pub dp_histogram: (f64, f64),
    /// Mean relative error of Anatomy at `l = 2`; `None` when the table is
    /// not l-eligible (some SA value holds more than `|D|/2` records).
    pub anatomy: Option<f64>,
    /// Baseline: plain UP at `p` (violates the criterion).
    pub up_unsafe: f64,
}

/// Runs the comparison. `epsilon` parameterizes the DP-histogram release.
pub fn run(
    dataset: &PreparedDataset,
    p: f64,
    params: PrivacyParams,
    epsilon: f64,
    protocol: ErrorProtocol,
) -> AblationResult {
    let pool = build_pool(dataset, protocol);
    let groups = &dataset.groups;
    let schema = dataset.generalized.schema();
    let mut rng = StdRng::seed_from_u64(protocol.seed ^ 0x0B1A);

    // Evaluate a per-run histogram producer against the pool through a
    // QueryEngine, one answer per pooled query.
    let evaluate = |mut make_hists: HistogramProducer, answer_p: f64, rng: &mut StdRng| {
        let mut err = OnlineStats::new();
        for _ in 0..protocol.runs {
            let engine = QueryEngine::from_histograms(groups, make_hists(rng), schema, answer_p);
            err.push(
                engine
                    .mean_relative_error(&pool)
                    .expect("pool queries fit the generalized schema"),
            );
        }
        err.mean().unwrap_or(f64::NAN)
    };

    // SPS at the nominal retention.
    let groups_ref = groups.clone();
    let sps_err = evaluate(
        Box::new(move |rng| sps_histograms(rng, &groups_ref, SpsConfig { p, params })),
        p,
        &mut rng,
    );

    // Plain UP at the nominal retention (the unsafe baseline).
    let groups_ref = groups.clone();
    let up_err = evaluate(
        Box::new(move |rng| up_histograms(rng, &groups_ref, p)),
        p,
        &mut rng,
    );

    // Reduce-p: find the largest compliant retention below the nominal.
    let reduce_p = max_private_retention(groups, params, 0.01, p, 1e-3).map(|p_safe| {
        let groups_ref = groups.clone();
        let err = evaluate(
            Box::new(move |rng| up_histograms(rng, &groups_ref, p_safe)),
            p_safe,
            &mut rng,
        );
        (p_safe, err)
    });

    // Suppression.
    let groups_ref = groups.clone();
    let suppress_err = evaluate(
        Box::new(move |rng| suppress_and_perturb(rng, &groups_ref, p, params).histograms),
        p,
        &mut rng,
    );
    let suppressed_fraction = {
        let mut one_rng = StdRng::seed_from_u64(protocol.seed);
        let out = suppress_and_perturb(&mut one_rng, groups, p, params);
        out.suppressed_records as f64 / groups.total_rows() as f64
    };

    // DP histogram over the generalized NA attributes plus SA.
    let mut attrs: Vec<usize> = groups.spec().na().to_vec();
    attrs.push(groups.spec().sa());
    let mut dp_err = OnlineStats::new();
    for _ in 0..protocol.runs {
        let release = DpHistogram::release(&mut rng, &dataset.generalized, &attrs, epsilon);
        for pq in &pool.queries {
            dp_err.push(relative_error(release.answer(&pq.query), pq.answer as f64));
        }
    }

    // Anatomy at l = 2 over the generalized table (deterministic given the
    // table, so one evaluation suffices).
    let anatomy = rp_anonymize::AnatomizedTable::build(&dataset.generalized, groups.spec().sa(), 2)
        .ok()
        .map(|anatomized| {
            let mut err = OnlineStats::new();
            for pq in &pool.queries {
                err.push(relative_error(
                    anatomized.estimate(&dataset.generalized, &pq.query),
                    pq.answer as f64,
                ));
            }
            err.mean().unwrap_or(f64::NAN)
        });

    AblationResult {
        dataset: dataset.name.clone(),
        params,
        p,
        sps: sps_err,
        reduce_p,
        suppress: suppress_err,
        suppressed_fraction,
        dp_histogram: (dp_err.mean().unwrap_or(f64::NAN), epsilon),
        anatomy,
        up_unsafe: up_err,
    }
}

/// Renders the comparison.
pub fn render(r: &AblationResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Enforcement-strategy ablation on {} (p = {}, lambda = {}, delta = {})",
        r.dataset,
        r.p,
        r.params.lambda(),
        r.params.delta()
    );
    let _ = writeln!(out, "{:<34}{:<14}notes", "strategy", "rel. error");
    let _ = writeln!(
        out,
        "{:<34}{:<14.4}violates the criterion",
        "UP (no enforcement)", r.up_unsafe
    );
    let _ = writeln!(out, "{:<34}{:<14.4}compliant", "SPS (paper)", r.sps);
    match r.reduce_p {
        Some((p_safe, err)) => {
            let _ = writeln!(
                out,
                "{:<34}{:<14.4}compliant at p = {:.3}",
                "Reduce-p (global noise)", err, p_safe
            );
        }
        None => {
            let _ = writeln!(
                out,
                "{:<34}{:<14}no retention in (0.01, p] is compliant",
                "Reduce-p (global noise)", "-"
            );
        }
    }
    let _ = writeln!(
        out,
        "{:<34}{:<14.4}compliant, drops {:.1}% of records",
        "Suppress violating groups",
        r.suppress,
        100.0 * r.suppressed_fraction
    );
    let _ = writeln!(
        out,
        "{:<34}{:<14.4}eps = {} (no reconstruction privacy)",
        "DP histogram (output pert.)", r.dp_histogram.0, r.dp_histogram.1
    );
    match r.anatomy {
        Some(err) => {
            let _ = writeln!(
                out,
                "{:<34}{:<14.4}l-diverse, not reconstruction-private",
                "Anatomy l=2 (posterior crit.)", err
            );
        }
        None => {
            let _ = writeln!(
                out,
                "{:<34}{:<14}table not l-eligible",
                "Anatomy l=2 (posterior crit.)", "-"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn protocol() -> ErrorProtocol {
        ErrorProtocol {
            pool_size: 120,
            runs: 2,
            seed: 77,
        }
    }

    #[test]
    fn ablation_runs_and_orders_strategies_sanely() {
        let d = PreparedDataset::adult_small(15_000);
        let params = PrivacyParams::new(0.3, 0.3);
        let r = run(&d, 0.5, params, 1.0, protocol());
        // All errors are finite and positive.
        assert!(r.sps.is_finite() && r.sps > 0.0);
        assert!(r.up_unsafe.is_finite() && r.up_unsafe > 0.0);
        assert!(r.suppress.is_finite());
        // Enforcement costs something relative to the unsafe baseline.
        assert!(
            r.sps >= r.up_unsafe * 0.8,
            "sps {} vs up {}",
            r.sps,
            r.up_unsafe
        );
        // Suppression erases whole subpopulations, so on a heavily
        // violating table its error is large.
        assert!(r.suppressed_fraction > 0.5);
        assert!(
            r.suppress > r.sps,
            "suppress {} should lose to SPS {}",
            r.suppress,
            r.sps
        );
    }

    #[test]
    fn reduce_p_absent_when_table_unfixable() {
        let d = PreparedDataset::adult_small(15_000);
        // Near-impossible demand: δ → 1 shrinks sg to ~0, so every
        // non-trivial group violates at every retention.
        let params = PrivacyParams::new(0.3, 0.999);
        let r = run(&d, 0.5, params, 1.0, protocol());
        assert!(r.reduce_p.is_none());
    }

    #[test]
    fn render_mentions_all_strategies() {
        let d = PreparedDataset::adult_small(12_000);
        let r = run(&d, 0.5, PrivacyParams::new(0.3, 0.3), 1.0, protocol());
        let text = render(&r);
        for needle in [
            "SPS",
            "Reduce-p",
            "Suppress",
            "DP histogram",
            "UP",
            "Anatomy",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
