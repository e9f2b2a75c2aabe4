//! Categorical Naive Bayes over the public attributes, predicting the
//! sensitive attribute.
//!
//! Training needs only the sufficient statistics `N(sa)` and
//! `N(Ai = v, sa)` — exactly the counts the Section-6 estimator
//! reconstructs from a perturbed publication. [`SufficientStats`] can
//! therefore be collected either from a raw table or from a
//! [`rp_core::estimate::GroupedView`] of published data, and the same
//! classifier is fitted from both.

use rp_core::estimate::GroupedView;
use rp_table::{AttrId, CountQuery, Schema, Table};

/// The counts Naive Bayes is estimated from. All values are `f64` because
/// the reconstructed path produces real-valued (possibly negative)
/// estimates; fitting clamps as needed.
#[derive(Debug, Clone, PartialEq)]
pub struct SufficientStats {
    /// Class (SA value) totals, `N(sa)`.
    pub class_counts: Vec<f64>,
    /// `feature_counts[k][v][sa] = N(Ak = v, sa)` for the k-th public
    /// attribute (indexed by position in `na_attrs`).
    pub feature_counts: Vec<Vec<Vec<f64>>>,
    /// The public attributes, in `feature_counts` order.
    pub na_attrs: Vec<AttrId>,
    /// The sensitive attribute.
    pub sa_attr: AttrId,
}

impl SufficientStats {
    /// Collects exact statistics from a raw table.
    ///
    /// # Panics
    ///
    /// Panics if `sa` is out of range or the table has no other attribute.
    pub fn from_raw(table: &Table, sa: AttrId) -> Self {
        let arity = table.schema().arity();
        assert!(sa < arity, "SA attribute out of range");
        assert!(arity >= 2, "need at least one public attribute");
        let na_attrs: Vec<AttrId> = (0..arity).filter(|&a| a != sa).collect();
        let m = table.schema().attribute(sa).domain_size();
        let mut class_counts = vec![0.0; m];
        for &code in table.column(sa).codes() {
            class_counts[code as usize] += 1.0;
        }
        let feature_counts = na_attrs
            .iter()
            .map(|&a| {
                let domain = table.schema().attribute(a).domain_size();
                let mut counts = vec![vec![0.0; m]; domain];
                let av = table.column(a).codes();
                let sv = table.column(sa).codes();
                for (&v, &s) in av.iter().zip(sv) {
                    counts[v as usize][s as usize] += 1.0;
                }
                counts
            })
            .collect();
        Self {
            class_counts,
            feature_counts,
            na_attrs,
            sa_attr: sa,
        }
    }

    /// Reconstructs the statistics from a published [`GroupedView`] using
    /// the Section-6 estimator for every `(Ai = v, sa)` marginal, at
    /// retention `p`. `schema` is the published table's schema.
    ///
    /// Negative reconstructed counts are clamped to zero at fit time.
    pub fn from_view(view: &GroupedView, schema: &Schema, sa: AttrId, p: f64) -> Self {
        let arity = schema.arity();
        assert!(sa < arity, "SA attribute out of range");
        let na_attrs: Vec<AttrId> = (0..arity).filter(|&a| a != sa).collect();
        let m = schema.attribute(sa).domain_size();
        // Class totals from the unconditioned marginal queries.
        let class_counts: Vec<f64> = (0..m as u32)
            .map(|s| {
                view.estimate(
                    &CountQuery::new(vec![], sa, s).expect("valid count query"),
                    p,
                )
            })
            .collect();
        let feature_counts = na_attrs
            .iter()
            .map(|&a| {
                (0..schema.attribute(a).domain_size() as u32)
                    .map(|v| {
                        (0..m as u32)
                            .map(|s| {
                                view.estimate(
                                    &CountQuery::new(vec![(a, v)], sa, s)
                                        .expect("valid count query"),
                                    p,
                                )
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Self {
            class_counts,
            feature_counts,
            na_attrs,
            sa_attr: sa,
        }
    }
}

/// A fitted categorical Naive Bayes model.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayes {
    na_attrs: Vec<AttrId>,
    sa_attr: AttrId,
    /// `log P(sa)`.
    class_log_prior: Vec<f64>,
    /// `log P(Ak = v | sa)` indexed `[k][v][sa]`.
    feature_log_likelihood: Vec<Vec<Vec<f64>>>,
}

impl NaiveBayes {
    /// Fits the model from sufficient statistics with additive (Laplace)
    /// smoothing `alpha`.
    ///
    /// Negative counts (possible on the reconstructed path) are clamped to
    /// zero before smoothing.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0`, the statistics are shape-inconsistent, or
    /// every class count is non-positive.
    pub fn fit(stats: &SufficientStats, alpha: f64) -> Self {
        assert!(alpha > 0.0, "smoothing must be positive, got {alpha}");
        let m = stats.class_counts.len();
        assert!(m >= 2, "need at least two classes");
        let clamped_class: Vec<f64> = stats.class_counts.iter().map(|&c| c.max(0.0)).collect();
        let class_total: f64 = clamped_class.iter().sum();
        assert!(class_total > 0.0, "all class counts are non-positive");
        let class_log_prior: Vec<f64> = clamped_class
            .iter()
            .map(|&c| ((c + alpha) / (class_total + alpha * m as f64)).ln())
            .collect();
        let feature_log_likelihood = stats
            .feature_counts
            .iter()
            .map(|per_value| {
                let domain = per_value.len();
                // Per-class totals over this attribute.
                let mut class_attr_total = vec![0.0; m];
                for value_counts in per_value {
                    assert_eq!(value_counts.len(), m, "inconsistent class arity");
                    for (s, &c) in value_counts.iter().enumerate() {
                        class_attr_total[s] += c.max(0.0);
                    }
                }
                per_value
                    .iter()
                    .map(|value_counts| {
                        (0..m)
                            .map(|s| {
                                let c = value_counts[s].max(0.0);
                                ((c + alpha) / (class_attr_total[s] + alpha * domain as f64)).ln()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Self {
            na_attrs: stats.na_attrs.clone(),
            sa_attr: stats.sa_attr,
            class_log_prior,
            feature_log_likelihood,
        }
    }

    /// The sensitive attribute the model predicts.
    pub fn sa_attr(&self) -> AttrId {
        self.sa_attr
    }

    /// Log-posterior (up to a constant) of every class for a full row of
    /// the table the model was built against.
    pub fn log_scores(&self, table: &Table, row: usize) -> Vec<f64> {
        let m = self.class_log_prior.len();
        let mut scores = self.class_log_prior.clone();
        for (k, &attr) in self.na_attrs.iter().enumerate() {
            let v = table.code(row, attr) as usize;
            for (s, score) in scores.iter_mut().enumerate().take(m) {
                *score += self.feature_log_likelihood[k][v][s];
            }
        }
        scores
    }

    /// Predicts the SA code for one row.
    pub fn predict(&self, table: &Table, row: usize) -> u32 {
        let scores = self.log_scores(table, row);
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
            .map(|(i, _)| i as u32)
            .expect("at least two classes")
    }

    /// Fraction of rows of `table` whose SA value the model predicts
    /// correctly.
    ///
    /// # Panics
    ///
    /// Panics on an empty table.
    pub fn accuracy(&self, table: &Table) -> f64 {
        assert!(!table.is_empty(), "accuracy undefined on an empty table");
        let correct = (0..table.rows())
            .filter(|&r| self.predict(table, r) == table.code(r, self.sa_attr))
            .count();
        correct as f64 / table.rows() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rp_core::groups::{PersonalGroups, SaSpec};
    use rp_core::sps::up_histograms;
    use rp_table::{Attribute, Schema, TableBuilder};

    /// A table where SA is strongly predictable from the two features.
    fn predictable_table(n: usize, seed: u64) -> Table {
        let schema = Schema::new(vec![
            Attribute::with_anonymous_domain("A", 3),
            Attribute::with_anonymous_domain("B", 2),
            Attribute::with_anonymous_domain("SA", 3),
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = TableBuilder::new(schema);
        for _ in 0..n {
            let a = rng.gen_range(0..3u32);
            let bb = rng.gen_range(0..2u32);
            // SA mostly follows A, flipped sometimes by B.
            let sa = if rng.gen::<f64>() < 0.85 {
                a
            } else if bb == 0 {
                (a + 1) % 3
            } else {
                (a + 2) % 3
            };
            b.push_codes(&[a, bb, sa]).unwrap();
        }
        b.build()
    }

    #[test]
    fn raw_fit_beats_majority_class() {
        let train = predictable_table(6000, 1);
        let test = predictable_table(2000, 2);
        let model = NaiveBayes::fit(&SufficientStats::from_raw(&train, 2), 1.0);
        let acc = model.accuracy(&test);
        // Majority class is ~1/3; the model should reach ~0.85.
        assert!(acc > 0.75, "accuracy {acc}");
    }

    #[test]
    fn from_raw_statistics_are_exact_counts() {
        let t = predictable_table(500, 3);
        let stats = SufficientStats::from_raw(&t, 2);
        let total: f64 = stats.class_counts.iter().sum();
        assert!((total - 500.0).abs() < 1e-9);
        for per_value in &stats.feature_counts {
            let sum: f64 = per_value.iter().flatten().sum();
            assert!((sum - 500.0).abs() < 1e-9);
        }
    }

    #[test]
    fn reconstructed_fit_tracks_raw_fit() {
        // Train from a UP publication's reconstructed statistics: held-out
        // accuracy should be within a few points of the raw-trained model.
        let train = predictable_table(20_000, 4);
        let test = predictable_table(4_000, 5);
        let raw_model = NaiveBayes::fit(&SufficientStats::from_raw(&train, 2), 1.0);
        let spec = SaSpec::new(&train, 2);
        let groups = PersonalGroups::build(&train, spec);
        let mut rng = StdRng::seed_from_u64(6);
        let p = 0.5;
        let view = GroupedView::assemble(groups.spec(), &up_histograms(&mut rng, &groups, p));
        let stats = SufficientStats::from_view(&view, train.schema(), 2, p);
        let recon_model = NaiveBayes::fit(&stats, 1.0);
        let raw_acc = raw_model.accuracy(&test);
        let recon_acc = recon_model.accuracy(&test);
        assert!(
            (raw_acc - recon_acc).abs() < 0.05,
            "raw {raw_acc} vs reconstructed {recon_acc}"
        );
    }

    #[test]
    fn negative_reconstructed_counts_are_tolerated() {
        let mut stats = SufficientStats::from_raw(&predictable_table(200, 7), 2);
        stats.class_counts[0] = -5.0;
        stats.feature_counts[0][0][1] = -3.0;
        let model = NaiveBayes::fit(&stats, 1.0);
        let t = predictable_table(50, 8);
        let acc = model.accuracy(&t);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn log_scores_are_finite_and_ordered_by_evidence() {
        let t = predictable_table(3000, 9);
        let model = NaiveBayes::fit(&SufficientStats::from_raw(&t, 2), 1.0);
        for row in 0..20 {
            let scores = model.log_scores(&t, row);
            assert!(scores.iter().all(|s| s.is_finite()));
            let predicted = model.predict(&t, row) as usize;
            let best = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!((scores[predicted] - best).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "smoothing must be positive")]
    fn zero_alpha_rejected() {
        let t = predictable_table(100, 10);
        NaiveBayes::fit(&SufficientStats::from_raw(&t, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "accuracy undefined")]
    fn empty_accuracy_panics() {
        let t = predictable_table(100, 11);
        let model = NaiveBayes::fit(&SufficientStats::from_raw(&t, 2), 1.0);
        let schema = t.schema().clone();
        let empty = TableBuilder::new(schema).build();
        model.accuracy(&empty);
    }
}
