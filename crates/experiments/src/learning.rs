//! Extension experiment: statistical learning from the publication.
//!
//! A Naive Bayes classifier for the sensitive attribute is fitted four
//! ways — from the raw table, from reconstructed statistics of a UP
//! publication, of an SPS publication, and from an ε-DP histogram — then
//! evaluated on a held-out sample of the same synthetic population. The
//! paper's thesis predicts UP- and SPS-trained models to land close to
//! the raw ceiling ("enabling statistical learning") even though SPS
//! makes targeted personal reconstruction unreliable.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::privacy::PrivacyParams;
use rp_core::sps::{sps_groups, up_histograms, SpsConfig};
use rp_dp::histogram::DpHistogram;
use rp_engine::QueryEngine;
use rp_learn::{NaiveBayes, SufficientStats};
use rp_table::{CountQuery, Table};

use crate::config::PreparedDataset;

/// Held-out accuracy of the four training paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningResult {
    /// Trained on the raw (generalized) table — the ceiling.
    pub raw: f64,
    /// Trained on statistics reconstructed from a UP publication.
    pub up: f64,
    /// Trained on statistics reconstructed from an SPS publication.
    pub sps: f64,
    /// Trained on an ε-DP histogram's noisy statistics.
    pub dp: f64,
    /// Majority-class baseline on the test set.
    pub majority: f64,
}

/// Fits from DP-histogram statistics: noisy marginal sums take the place
/// of the reconstructed counts.
fn fit_from_dp(release: &DpHistogram, table: &Table, sa: usize, alpha: f64) -> NaiveBayes {
    let schema = table.schema();
    let m = schema.attribute(sa).domain_size();
    let na_attrs: Vec<usize> = (0..schema.arity()).filter(|&a| a != sa).collect();
    let class_counts: Vec<f64> = (0..m as u32)
        .map(|s| release.answer(&CountQuery::new(vec![], sa, s).expect("valid count query")))
        .collect();
    let feature_counts = na_attrs
        .iter()
        .map(|&a| {
            (0..schema.attribute(a).domain_size() as u32)
                .map(|v| {
                    (0..m as u32)
                        .map(|s| {
                            release.answer(
                                &CountQuery::new(vec![(a, v)], sa, s).expect("valid count query"),
                            )
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    NaiveBayes::fit(
        &SufficientStats {
            class_counts,
            feature_counts,
            na_attrs,
            sa_attr: sa,
        },
        alpha,
    )
}

/// Runs the comparison. The test set is drawn from the same generator
/// with a different seed, then generalized with the training
/// generalization so codes align.
pub fn run(
    train: &PreparedDataset,
    test_raw: &Table,
    p: f64,
    epsilon: f64,
    seed: u64,
) -> LearningResult {
    let sa = train.sa;
    let test = train.generalization.apply(test_raw);
    let params = PrivacyParams::new(0.3, 0.3);
    let alpha = 1.0;
    let mut rng = StdRng::seed_from_u64(seed);

    let raw_model = NaiveBayes::fit(&SufficientStats::from_raw(&train.generalized, sa), alpha);

    let schema = train.generalized.schema();
    let spec = train.groups.spec();
    let up = up_histograms(&mut rng, &train.groups, p);
    let up_engine = QueryEngine::from_groups(schema, spec, p, &up);
    let up_model = NaiveBayes::fit(
        &SufficientStats::from_view(up_engine.view(), schema, sa, p),
        alpha,
    );

    let (sps, _) = sps_groups(&mut rng, &train.groups, SpsConfig { p, params });
    let sps_engine = QueryEngine::from_groups(schema, spec, p, &sps);
    let sps_model = NaiveBayes::fit(
        &SufficientStats::from_view(sps_engine.view(), schema, sa, p),
        alpha,
    );

    let mut attrs: Vec<usize> = (0..train.generalized.schema().arity()).collect();
    attrs.retain(|&a| a != sa);
    attrs.push(sa);
    let release = DpHistogram::release(&mut rng, &train.generalized, &attrs, epsilon);
    let dp_model = fit_from_dp(&release, &train.generalized, sa, alpha);

    // Majority baseline.
    let hist = test
        .histogram(sa)
        .expect("test-table codes are validated at construction");
    let majority = *hist.iter().max().expect("non-empty domain") as f64 / test.rows() as f64;

    LearningResult {
        raw: raw_model.accuracy(&test),
        up: up_model.accuracy(&test),
        sps: sps_model.accuracy(&test),
        dp: dp_model.accuracy(&test),
        majority,
    }
}

/// Renders the result.
pub fn render(r: &LearningResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "Naive Bayes accuracy predicting SA on held-out data");
    let _ = writeln!(out, "{:<40}accuracy", "training statistics");
    let _ = writeln!(out, "{:<40}{:.4}", "raw table (ceiling)", r.raw);
    let _ = writeln!(
        out,
        "{:<40}{:.4}",
        "reconstructed from UP publication", r.up
    );
    let _ = writeln!(
        out,
        "{:<40}{:.4}",
        "reconstructed from SPS publication", r.sps
    );
    let _ = writeln!(out, "{:<40}{:.4}", "eps-DP histogram", r.dp);
    let _ = writeln!(out, "{:<40}{:.4}", "majority-class baseline", r.majority);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_datagen::adult::{self, AdultConfig};

    #[test]
    fn publication_trained_models_track_the_raw_ceiling() {
        let train = PreparedDataset::adult_small(20_000);
        let test_raw = adult::generate(AdultConfig {
            rows: 6_000,
            seed: 0xBEEF,
        });
        let r = run(&train, &test_raw, 0.5, 1.0, 1);
        // All accuracies are valid probabilities and beat nothing weirdly.
        for acc in [r.raw, r.up, r.sps, r.dp, r.majority] {
            assert!((0.0..=1.0).contains(&acc), "{r:?}");
        }
        // The raw model must beat majority (income is predictable).
        assert!(r.raw > r.majority, "{r:?}");
        // The paper's claim: learning survives the publications.
        assert!(r.up > r.raw - 0.05, "UP-trained too weak: {r:?}");
        assert!(r.sps > r.raw - 0.08, "SPS-trained too weak: {r:?}");
    }

    #[test]
    fn render_lists_all_paths() {
        let r = LearningResult {
            raw: 0.8,
            up: 0.79,
            sps: 0.77,
            dp: 0.8,
            majority: 0.7,
        };
        let text = render(&r);
        for needle in ["raw table", "UP", "SPS", "DP histogram", "majority"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
