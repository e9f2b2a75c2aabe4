//! The uniform perturbation operator (Section 3.1): retain each record's SA
//! value with probability `p`, otherwise replace it with a uniform draw from
//! the SA domain.
//!
//! Two equivalent implementations are provided:
//!
//! * **record-level** — flips a biased coin per record, producing a real
//!   perturbed table `D*` (what a publisher would actually release);
//! * **histogram-level** — draws the perturbed SA *histogram* of a record
//!   set directly via binomial/multinomial sampling. Distributionally
//!   identical for any consumer that only looks at counts, and orders of
//!   magnitude faster for the large parameter sweeps of Section 6
//!   (ablation #3 in DESIGN.md).

use rand::Rng;
use rp_stats::sampling::sample_binomial;
use rp_table::{AttrId, Column, Table};

use crate::matrix::PerturbationMatrix;

/// The uniform perturbation operator for one sensitive attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformPerturbation {
    matrix: PerturbationMatrix,
}

impl UniformPerturbation {
    /// Creates the operator with retention probability `p` over an SA domain
    /// of size `m`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1` and `m >= 2` (see
    /// [`PerturbationMatrix::new`]).
    pub fn new(p: f64, m: usize) -> Self {
        Self {
            matrix: PerturbationMatrix::new(p, m),
        }
    }

    /// The transition matrix `P`.
    pub fn matrix(&self) -> &PerturbationMatrix {
        &self.matrix
    }

    /// Retention probability `p`.
    pub fn retention(&self) -> f64 {
        self.matrix.retention()
    }

    /// SA domain size `m`.
    pub fn domain_size(&self) -> usize {
        self.matrix.domain_size()
    }

    /// Perturbs a single SA code: keep with probability `p`, otherwise
    /// replace with a uniform draw over the whole domain (the original value
    /// included, matching Equation 3's `p + (1−p)/m` diagonal).
    #[inline]
    pub fn perturb_code<R: Rng + ?Sized>(&self, rng: &mut R, code: u32) -> u32 {
        debug_assert!((code as usize) < self.domain_size());
        if rng.gen::<f64>() < self.retention() {
            code
        } else {
            rng.gen_range(0..self.domain_size() as u32)
        }
    }

    /// Record-level perturbation of a whole SA column.
    pub fn perturb_column<R: Rng + ?Sized>(&self, rng: &mut R, column: &Column) -> Column {
        Column::from_codes(
            column
                .codes()
                .iter()
                .map(|&c| self.perturb_code(rng, c))
                .collect(),
        )
    }

    /// Record-level perturbation of a table's SA attribute, producing the
    /// published `D*`. Public attributes are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if the attribute's domain size differs from the operator's `m`.
    pub fn perturb_table<R: Rng + ?Sized>(&self, rng: &mut R, table: &Table, sa: AttrId) -> Table {
        assert_eq!(
            table.schema().attribute(sa).domain_size(),
            self.domain_size(),
            "operator domain size does not match the SA attribute"
        );
        let perturbed = self.perturb_column(rng, table.column(sa));
        table
            .with_column_replaced(sa, perturbed)
            .expect("perturbed codes stay within the SA domain")
    }

    /// Histogram-level perturbation: given the SA histogram of a record set,
    /// draws the histogram the record-level operator would have produced.
    ///
    /// For each value `i` with count `c_i`, `Binomial(c_i, p)` records
    /// retain `i` and the rest scatter uniformly (multinomial) over all `m`
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `hist.len() != m`.
    pub fn perturb_histogram<R: Rng + ?Sized>(&self, rng: &mut R, hist: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        self.perturb_histogram_into(rng, hist, &mut out);
        out
    }

    /// As [`UniformPerturbation::perturb_histogram`], writing the perturbed
    /// histogram into `out` (cleared and refilled) so per-group callers on
    /// the hot SPS path can reuse one buffer instead of allocating per
    /// group. Identical RNG draws and results.
    ///
    /// # Panics
    ///
    /// Panics if `hist.len() != m`.
    pub fn perturb_histogram_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        hist: &[u64],
        out: &mut Vec<u64>,
    ) {
        let m = self.domain_size();
        assert_eq!(hist.len(), m, "histogram must have length m");
        out.clear();
        out.resize(m, 0);
        let mut scattered_total = 0u64;
        for (i, &c) in hist.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let retained = sample_binomial(rng, c, self.retention());
            out[i] += retained;
            scattered_total += c - retained;
        }
        if scattered_total > 0 {
            // Uniform multinomial scatter by conditional binomials over
            // `vec![1.0 / m; m]`, step for step (the test module's
            // reference sampler pins the RNG stream), but without
            // materializing the probability and count vectors.
            let p = 1.0 / m as f64;
            let mut remaining_n = scattered_total;
            let mut remaining_p = 1.0;
            for (i, o) in out.iter_mut().enumerate() {
                if i + 1 == m {
                    *o += remaining_n;
                    break;
                }
                if remaining_n == 0 || remaining_p <= 0.0 {
                    continue;
                }
                let cond = (p / remaining_p).clamp(0.0, 1.0);
                let c = sample_binomial(rng, remaining_n, cond);
                *o += c;
                remaining_n -= c;
                remaining_p -= p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rp_table::{Attribute, Schema, TableBuilder};

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol,
            "expected {expected}, got {actual} (tol {tol})"
        );
    }

    fn sa_table(counts: &[u64]) -> Table {
        let m = counts.len();
        let schema = Schema::new(vec![
            Attribute::new("NA", ["only"]),
            Attribute::with_anonymous_domain("SA", m),
        ]);
        let mut b = TableBuilder::new(schema);
        for (code, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                b.push_codes(&[0, code as u32]).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn perturb_table_keeps_public_attributes() {
        let t = sa_table(&[50, 30, 20]);
        let op = UniformPerturbation::new(0.5, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let perturbed = op.perturb_table(&mut rng, &t, 1);
        assert_eq!(perturbed.rows(), t.rows());
        assert_eq!(
            perturbed.histogram(0).unwrap(),
            t.histogram(0).unwrap(),
            "NA column untouched"
        );
    }

    #[test]
    fn retained_fraction_matches_p() {
        let t = sa_table(&[10_000, 0]);
        let op = UniformPerturbation::new(0.7, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let perturbed = op.perturb_table(&mut rng, &t, 1);
        // Expected observed frequency of value 0: 0.7 + 0.3/2 = 0.85.
        let observed = perturbed.histogram(1).unwrap()[0] as f64 / 10_000.0;
        assert_close(observed, 0.85, 0.02);
    }

    #[test]
    fn record_and_histogram_levels_agree_in_distribution() {
        // Compare mean histograms of both implementations over many runs.
        let hist = [400u64, 300, 200, 100];
        let op = UniformPerturbation::new(0.3, 4);
        let t = sa_table(&hist);
        let runs = 300;
        let mut rec_mean = [0f64; 4];
        let mut his_mean = [0f64; 4];
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..runs {
            let p1 = op.perturb_table(&mut rng, &t, 1).histogram(1).unwrap();
            let p2 = op.perturb_histogram(&mut rng, &hist);
            for i in 0..4 {
                rec_mean[i] += p1[i] as f64 / runs as f64;
                his_mean[i] += p2[i] as f64 / runs as f64;
            }
        }
        for i in 0..4 {
            let expected = 0.3 * hist[i] as f64 + 0.7 * 1000.0 / 4.0;
            assert_close(rec_mean[i], expected, 12.0);
            assert_close(his_mean[i], expected, 12.0);
        }
    }

    #[test]
    fn histogram_perturbation_preserves_total() {
        let op = UniformPerturbation::new(0.5, 5);
        let mut rng = StdRng::seed_from_u64(4);
        for hist in [
            vec![10u64, 0, 5, 3, 2],
            vec![0, 0, 0, 0, 0],
            vec![1000, 1, 1, 1, 1],
        ] {
            let total: u64 = hist.iter().sum();
            let out = op.perturb_histogram(&mut rng, &hist);
            assert_eq!(out.iter().sum::<u64>(), total);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let t = sa_table(&[100, 100]);
        let op = UniformPerturbation::new(0.5, 2);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            op.perturb_table(&mut rng, &t, 1).histogram(1).unwrap()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    #[should_panic(expected = "does not match the SA attribute")]
    fn mismatched_domain_size_panics() {
        let t = sa_table(&[10, 10, 10]);
        let op = UniformPerturbation::new(0.5, 2);
        let mut rng = StdRng::seed_from_u64(6);
        op.perturb_table(&mut rng, &t, 1);
    }

    /// Draws a multinomial sample: `n` items distributed over categories with
    /// probabilities `probs` (which must sum to ~1).
    ///
    /// Implemented by conditional binomials, so it is exact and `O(k)` binomial
    /// draws for `k` categories.
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty, has negative entries, or sums to something
    /// farther than 1e-9 from 1.
    fn sample_multinomial<R: Rng + ?Sized>(rng: &mut R, n: u64, probs: &[f64]) -> Vec<u64> {
        assert!(!probs.is_empty(), "probability vector must be non-empty");
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "probabilities must sum to 1, got {total}"
        );
        let mut counts = Vec::with_capacity(probs.len());
        let mut remaining_n = n;
        let mut remaining_p = 1.0;
        for (i, &p) in probs.iter().enumerate() {
            assert!(p >= 0.0, "probabilities must be non-negative, got {p}");
            if i + 1 == probs.len() {
                counts.push(remaining_n);
                break;
            }
            if remaining_n == 0 || remaining_p <= 0.0 {
                counts.push(0);
                continue;
            }
            let cond = (p / remaining_p).clamp(0.0, 1.0);
            let c = rp_stats::sampling::sample_binomial(rng, remaining_n, cond);
            counts.push(c);
            remaining_n -= c;
            remaining_p -= p;
        }
        counts
    }

    /// The inlined uniform scatter of `perturb_histogram_into` must stay in
    /// RNG lockstep with the reference `sample_multinomial` above over a
    /// uniform probability vector — the byte-identical-publication contract
    /// rests on the two implementations drawing and landing identically.
    /// This pins that equivalence draw for draw.
    #[test]
    fn scatter_stays_in_lockstep_with_sample_multinomial() {
        for (seed, m, hist) in [
            (7u64, 2usize, vec![120u64, 40]),
            (8, 5, vec![0, 13, 200, 1, 77]),
            (9, 3, vec![1000, 0, 500]),
            (10, 4, vec![3, 3, 3, 3]),
        ] {
            for p in [0.2, 0.5, 0.8] {
                let op = UniformPerturbation::new(p, m);
                // Reference: the pre-inline implementation — binomial
                // retentions, then sample_multinomial over vec![1/m; m].
                let mut rng = StdRng::seed_from_u64(seed);
                let mut reference = vec![0u64; m];
                let mut scattered = 0u64;
                for (i, &c) in hist.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let retained = rp_stats::sampling::sample_binomial(&mut rng, c, p);
                    reference[i] += retained;
                    scattered += c - retained;
                }
                if scattered > 0 {
                    let uniform = vec![1.0 / m as f64; m];
                    for (o, extra) in reference
                        .iter_mut()
                        .zip(sample_multinomial(&mut rng, scattered, &uniform))
                    {
                        *o += extra;
                    }
                }
                let trailing_ref: u64 = rng.gen();
                // The inlined path from the same seed.
                let mut rng = StdRng::seed_from_u64(seed);
                let inlined = op.perturb_histogram(&mut rng, &hist);
                let trailing: u64 = rng.gen();
                assert_eq!(inlined, reference, "outputs diverged (p={p})");
                assert_eq!(trailing, trailing_ref, "RNG stream diverged (p={p})");
            }
        }
    }
}
