//! The Section-2 NIR ratio attack against differentially-private count
//! answers.
//!
//! An adversary who wants to learn whether individual `t` has sensitive
//! value `sa` issues the two queries of Equation 2:
//!
//! * `Q1: NA = t.NA` with true answer `x`,
//! * `Q2: NA = t.NA ∧ SA = sa` with true answer `y`,
//!
//! receives noisy answers `X`, `Y`, and gauges the rule confidence `y/x` by
//! `Y/X`. This module simulates the attack (reproducing the paper's Table 1)
//! and reports the theoretical Lemma-1/Corollary-2 predictions next to the
//! empirical outcome.

use rand::Rng;
use rp_stats::ratio::{laplace_disclosure_indicator, ratio_moments, RatioMoments};
use rp_stats::summary::OnlineStats;
use rp_table::{CountQuery, Table};

use crate::mechanism::Mechanism;

/// A `(mean, standard error)` pair as reported in the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanSe {
    /// Sample mean over the attack trials.
    pub mean: f64,
    /// Standard error of that mean.
    pub se: f64,
}

impl MeanSe {
    fn from_stats(stats: &OnlineStats) -> Self {
        Self {
            mean: stats.mean().unwrap_or(f64::NAN),
            se: stats.standard_error().unwrap_or(0.0),
        }
    }
}

/// Result of simulating the ratio attack for a fixed mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// True answer `x` of the base query `Q1`.
    pub base_answer: u64,
    /// True answer `y` of the refined query `Q2`.
    pub refined_answer: u64,
    /// True confidence `y/x`.
    pub true_confidence: f64,
    /// Number of noisy trials simulated.
    pub trials: usize,
    /// Mean/SE of the estimated confidence `Conf′ = Y/X`.
    pub confidence: MeanSe,
    /// Mean/SE of the relative error `|x − X| / x` of the base answer.
    pub base_relative_error: MeanSe,
    /// Mean/SE of the relative error `|y − Y| / y` of the refined answer.
    pub refined_relative_error: MeanSe,
}

/// The ratio attack bound to one refined count query.
///
/// The base query `Q1` is the query's `NA` pattern alone; the refined query
/// `Q2` adds the `SA` condition — exactly Equation 2 of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RatioAttack {
    query: CountQuery,
}

impl RatioAttack {
    /// Creates the attack for the given refined query.
    pub fn new(query: CountQuery) -> Self {
        Self { query }
    }

    /// The underlying refined query.
    pub fn query(&self) -> &CountQuery {
        &self.query
    }

    /// True answers `(x, y)` of `Q1`/`Q2` on the raw table.
    pub fn true_answers(&self, table: &Table) -> (u64, u64) {
        self.query.answer_with_support(table)
    }

    /// Lemma-1 predictions of `E[Y/X]` and `Var[Y/X]` for a mechanism's
    /// noise variance against this table.
    ///
    /// # Panics
    ///
    /// Panics if the base answer is zero (the lemma requires `x ≠ 0`).
    pub fn predicted_moments<M: Mechanism>(&self, table: &Table, mechanism: &M) -> RatioMoments {
        let (x, y) = self.true_answers(table);
        ratio_moments(x as f64, y as f64, mechanism.noise_variance())
    }

    /// The Corollary-2 disclosure indicator `2(b/x)²` for a Laplace scale
    /// `b` against this table.
    ///
    /// # Panics
    ///
    /// Panics if the base answer is zero.
    pub fn disclosure_indicator(&self, table: &Table, laplace_scale: f64) -> f64 {
        let (x, _) = self.true_answers(table);
        laplace_disclosure_indicator(laplace_scale, x as f64)
    }

    /// Simulates `trials` independent pairs of noisy answers and aggregates
    /// the confidence estimate and per-query relative errors (the paper's
    /// Table 1 with `trials = 10`).
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or if either true answer is zero (the paper's
    /// relative-error and confidence measures are undefined there).
    pub fn run<M: Mechanism, R: Rng + ?Sized>(
        &self,
        table: &Table,
        mechanism: &M,
        trials: usize,
        rng: &mut R,
    ) -> AttackOutcome {
        assert!(trials > 0, "at least one trial is required");
        let (x, y) = self.true_answers(table);
        assert!(x > 0, "base query answer is zero; the attack is undefined");
        assert!(
            y > 0,
            "refined query answer is zero; the attack is undefined"
        );
        let mut conf = OnlineStats::new();
        let mut base_err = OnlineStats::new();
        let mut refined_err = OnlineStats::new();
        for _ in 0..trials {
            let noisy_x = mechanism.answer(rng, x as f64);
            let noisy_y = mechanism.answer(rng, y as f64);
            conf.push(noisy_y / noisy_x);
            base_err.push((x as f64 - noisy_x).abs() / x as f64);
            refined_err.push((y as f64 - noisy_y).abs() / y as f64);
        }
        AttackOutcome {
            base_answer: x,
            refined_answer: y,
            true_confidence: y as f64 / x as f64,
            trials,
            confidence: MeanSe::from_stats(&conf),
            base_relative_error: MeanSe::from_stats(&base_err),
            refined_relative_error: MeanSe::from_stats(&refined_err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{LaplaceMechanism, Sensitivity};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rp_table::{Attribute, Schema, TableBuilder};

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol,
            "expected {expected}, got {actual} (tol {tol})"
        );
    }

    /// 100 male engineers, 80 of whom have the flu: Conf = 0.8.
    fn demo_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("Gender", ["male", "female"]),
            Attribute::new("Job", ["eng", "doc"]),
            Attribute::new("Disease", ["flu", "hiv", "bc"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..100 {
            let disease = if i < 80 { "flu" } else { "hiv" };
            b.push_values(&["male", "eng", disease]).unwrap();
        }
        for _ in 0..50 {
            b.push_values(&["female", "doc", "bc"]).unwrap();
        }
        b.build()
    }

    #[test]
    fn true_answers_split_base_and_refined() {
        let t = demo_table();
        let attack = RatioAttack::new(
            CountQuery::new(vec![(0, 0), (1, 0)], 2, 0).expect("valid count query"),
        );
        let (x, y) = attack.true_answers(&t);
        assert_eq!(x, 100);
        assert_eq!(y, 80);
    }

    #[test]
    fn small_noise_recovers_confidence() {
        let t = demo_table();
        let attack = RatioAttack::new(
            CountQuery::new(vec![(0, 0), (1, 0)], 2, 0).expect("valid count query"),
        );
        let mech = LaplaceMechanism::new(2.0, Sensitivity::count_query_batch(1));
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = attack.run(&t, &mech, 400, &mut rng);
        assert_close(outcome.true_confidence, 0.8, 1e-12);
        assert_close(outcome.confidence.mean, 0.8, 0.01);
        assert!(outcome.base_relative_error.mean < 0.02);
    }

    #[test]
    fn large_noise_destroys_confidence_estimate() {
        let t = demo_table();
        let attack = RatioAttack::new(
            CountQuery::new(vec![(0, 0), (1, 0)], 2, 0).expect("valid count query"),
        );
        // b = 200 against x = 100: indicator 2(b/x)² = 8, hopeless.
        let mech = LaplaceMechanism::new(0.01, Sensitivity::count_query_batch(2));
        let mut rng = StdRng::seed_from_u64(7);
        let outcome = attack.run(&t, &mech, 200, &mut rng);
        assert!(
            outcome.base_relative_error.mean > 0.5,
            "relative error {} should be large at b = 200",
            outcome.base_relative_error.mean
        );
        assert_close(attack.disclosure_indicator(&t, 200.0), 8.0, 1e-9);
    }

    #[test]
    fn predicted_moments_use_mechanism_variance() {
        let t = demo_table();
        let attack = RatioAttack::new(
            CountQuery::new(vec![(0, 0), (1, 0)], 2, 0).expect("valid count query"),
        );
        let mech = LaplaceMechanism::new(0.25, Sensitivity::count_query_batch(1));
        let m = attack.predicted_moments(&t, &mech);
        let expected = ratio_moments(100.0, 80.0, 32.0);
        assert_eq!(m, expected);
    }

    #[test]
    fn deterministic_under_seed() {
        let t = demo_table();
        let attack = RatioAttack::new(
            CountQuery::new(vec![(0, 0), (1, 0)], 2, 0).expect("valid count query"),
        );
        let mech = LaplaceMechanism::new(0.1, Sensitivity::count_query_batch(1));
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            attack.run(&t, &mech, 10, &mut rng)
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    #[should_panic(expected = "refined query answer is zero")]
    fn zero_refined_answer_panics() {
        let t = demo_table();
        // male engineers with breast cancer: none.
        let attack = RatioAttack::new(
            CountQuery::new(vec![(0, 0), (1, 0)], 2, 2).expect("valid count query"),
        );
        let mech = LaplaceMechanism::new(1.0, Sensitivity::count_query_batch(1));
        let mut rng = StdRng::seed_from_u64(1);
        attack.run(&t, &mech, 5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let t = demo_table();
        let attack = RatioAttack::new(
            CountQuery::new(vec![(0, 0), (1, 0)], 2, 0).expect("valid count query"),
        );
        let mech = LaplaceMechanism::new(1.0, Sensitivity::count_query_batch(1));
        let mut rng = StdRng::seed_from_u64(1);
        attack.run(&t, &mech, 0, &mut rng);
    }
}
