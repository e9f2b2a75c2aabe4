//! The Sampling–Perturbing–Scaling (SPS) algorithm of Section 5.
//!
//! For each personal group `g` whose size exceeds the threshold
//! `sg` of Equation 10, SPS
//!
//! 1. **Sampling** — draws a frequency-preserving sample `g1` of (expected)
//!    size `sg`: for each SA value, `⌊|g_sa|·τ⌋` records plus one more with
//!    probability `frac(|g_sa|·τ)`, where `τ = sg/|g|`;
//! 2. **Perturbing** — applies uniform perturbation to `g1`, yielding `g1*`;
//! 3. **Scaling** — duplicates every record of `g1*` `⌊τ′⌋` times plus one
//!    with probability `frac(τ′)`, `τ′ = |g|/|g1*|`, restoring the original
//!    group size in expectation without adding random trials.
//!
//! Groups already within the threshold are perturbed verbatim, so on data
//! that is small enough the algorithm degrades to plain uniform
//! perturbation (UP).
//!
//! Every public attribute is constant within a personal group, so a
//! group's output is fully described by its histogram of SA codes.
//! [`sps_group`] is the one per-group kernel: it maps a raw SA histogram to
//! the published one, and the streaming re-publication in
//! [`crate::incremental`] runs it group by group. [`sps_groups`] is the one
//! loop that runs it over a whole table's personal groups: it returns the
//! published groups as one [`GroupHistograms`] (the input keys, in order,
//! each with its published histogram) with the run's counters. The
//! Section-6 parameter sweeps and the engine's publisher keep those
//! groups as they are; the record-level executor [`sps`] expands them
//! into a publishable [`Table`], so for one seed the per-group SA
//! histograms of [`sps`]'s table equal [`sps_groups`]' exactly.
//! [`up_histograms`] is the plain-UP baseline at the same level.

use rand::Rng;
use rp_stats::sampling::{sample_binomial, stochastic_round};
use rp_table::{GroupHistograms, Table, TableBuilder};

use crate::groups::{PersonalGroups, SaSpec};
use crate::perturb::UniformPerturbation;
use crate::privacy::{max_group_size, PrivacyParams};

/// Configuration of one SPS run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpsConfig {
    /// Retention probability of the underlying uniform perturbation.
    pub p: f64,
    /// The `(λ, δ)` reconstruction-privacy requirement to enforce.
    pub params: PrivacyParams,
}

/// Counters describing what one SPS run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpsStats {
    /// Personal groups processed.
    pub groups: usize,
    /// Groups that exceeded `sg` and were sampled.
    pub groups_sampled: usize,
    /// Records in the input table.
    pub input_records: u64,
    /// Records drawn into samples (Σ |g1| over sampled groups).
    pub sampled_records: u64,
    /// Records in the output table.
    pub output_records: u64,
}

/// Output of the record-level SPS executor.
#[derive(Debug, Clone)]
pub struct SpsOutput {
    /// The published table `D*₂ = ⋃ g*₂`.
    pub table: Table,
    /// Run counters.
    pub stats: SpsStats,
}

/// Plain uniform perturbation (UP) of the whole table — the baseline the
/// paper compares SPS against. Equivalent to
/// [`UniformPerturbation::perturb_table`]; re-exported here so experiments
/// read symmetrically.
pub fn uniform_perturb<R: Rng + ?Sized>(
    rng: &mut R,
    table: &Table,
    spec: &SaSpec,
    p: f64,
) -> Table {
    UniformPerturbation::new(p, spec.m()).perturb_table(rng, table, spec.sa())
}

/// SPS on one personal group at histogram level: writes the published SA
/// histogram of `g*₂` for the raw histogram `hist` into `out` (cleared and
/// refilled) and returns `Some(|g1|)` when the group exceeded its threshold
/// `sg` and was sampled, `None` when it was perturbed whole.
///
/// Draw order: within the threshold, one `perturb_in_place`; above it,
/// one `stochastic_round` per SA value (sampling), `perturb_in_place` of
/// the sample, then one `sample_binomial` per SA value (scaling: the `c`
/// records of a cell get `⌊τ′⌋` copies each plus `Binomial(c, frac(τ′))`
/// extras). An empty histogram draws nothing and publishes zeros.
///
/// # Panics
///
/// Panics if `hist` is non-empty and its length is not the operator's
/// domain size.
pub fn sps_group<R: Rng + ?Sized>(
    rng: &mut R,
    op: &UniformPerturbation,
    params: PrivacyParams,
    hist: &[u64],
    out: &mut Vec<u64>,
) -> Option<u64> {
    let size: u64 = hist.iter().sum();
    let max = hist.iter().copied().max().unwrap_or(0);
    out.clear();
    if size == 0 {
        out.resize(hist.len(), 0);
        return None;
    }
    let f_max = max as f64 / size as f64;
    let sg = max_group_size(params, op.retention(), op.domain_size(), f_max);
    if size as f64 <= sg {
        out.extend_from_slice(hist);
        op.perturb_in_place(rng, out);
        return None;
    }
    // Sampling: per SA value, a frequency-preserving draw. Records within
    // one (group, SA value) cell are identical, so sampling "any" ⌊c·τ⌋
    // records is just a count.
    let tau = sg / size as f64;
    out.extend(
        hist.iter()
            .map(|&c| stochastic_round(rng, c as f64 * tau).min(c)),
    );
    let mut g1: u64 = out.iter().sum();
    if g1 == 0 {
        // Degenerate draw (tiny sg): keep one record of the most common
        // value (the last one on a tie) so the group does not vanish from
        // the publication.
        let argmax = hist.iter().rposition(|&c| c == max).expect("non-empty");
        out[argmax] = 1;
        g1 = 1;
    }
    op.perturb_in_place(rng, out);
    // Scaling back to the original size.
    let tau_prime = size as f64 / g1 as f64;
    let floor = tau_prime.floor();
    for c in out.iter_mut() {
        *c = floor as u64 * *c + sample_binomial(rng, *c, tau_prime - floor);
    }
    Some(g1)
}

/// SPS over every personal group of `groups`, in key order: runs
/// [`sps_group`] on each group's raw SA histogram and returns the
/// published groups — each input key with its published histogram — and
/// the run's counters (`output_records` is the published histograms'
/// total).
///
/// # Panics
///
/// Panics on invalid `p`.
pub fn sps_groups<R: Rng + ?Sized>(
    rng: &mut R,
    groups: &PersonalGroups,
    config: SpsConfig,
) -> (GroupHistograms, SpsStats) {
    let spec = groups.spec();
    let op = UniformPerturbation::new(config.p, spec.m());
    let mut stats = SpsStats {
        groups: groups.len(),
        input_records: groups.total_rows() as u64,
        ..SpsStats::default()
    };
    let mut published = GroupHistograms::with_capacity(spec.na().len(), spec.m(), groups.len());
    let mut hist = Vec::new();
    for group in groups.groups() {
        if let Some(g1) = sps_group(rng, &op, config.params, group.sa_hist, &mut hist) {
            stats.groups_sampled += 1;
            stats.sampled_records += g1;
        }
        stats.output_records += hist.iter().sum::<u64>();
        published.push(group.key, &hist);
    }
    (published, stats)
}

/// Record-level SPS: returns the published `D*₂` plus run statistics.
///
/// The input is consumed as [`PersonalGroups`] (the grouping preprocessing
/// of Section 5); `table` must be the table those groups were built from.
/// The groups run through [`sps_groups`], and each published group is
/// emitted as one columnar run (`TableBuilder::push_group`): every NA
/// column a constant fill from the group key, the SA column one fill per
/// non-empty value of the published histogram.
///
/// # Panics
///
/// Panics if `groups` was not built from `table` (detected via row counts)
/// or on invalid `p`.
pub fn sps<R: Rng + ?Sized>(
    rng: &mut R,
    table: &Table,
    groups: &PersonalGroups,
    config: SpsConfig,
) -> SpsOutput {
    assert_eq!(
        groups.total_rows(),
        table.rows(),
        "groups were not built from this table"
    );
    let (published, stats) = sps_groups(rng, groups, config);
    let sa = groups.spec().sa();
    let mut builder = TableBuilder::with_capacity(table.schema().clone(), table.rows());
    for (key, hist) in published.iter() {
        builder
            .push_group(key, sa, hist)
            .expect("group key and SA codes are valid");
    }
    SpsOutput {
        table: builder.build(),
        stats,
    }
}

/// Histogram-level UP: every personal group's key with its SA histogram
/// perturbed by plain uniform perturbation, in key order. The baseline
/// counterpart of [`sps_groups`].
pub fn up_histograms<R: Rng + ?Sized>(
    rng: &mut R,
    groups: &PersonalGroups,
    p: f64,
) -> GroupHistograms {
    let op = UniformPerturbation::new(p, groups.spec().m());
    let mut published = groups.histograms().clone();
    for g in 0..published.len() {
        op.perturb_in_place(rng, published.hist_mut(g));
    }
    published
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy::check_groups;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rp_table::{Attribute, Schema, TableBuilder};

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol,
            "expected {expected}, got {actual} (tol {tol})"
        );
    }

    /// One large violating group (a, f = 0.7) and one small private group.
    fn demo_table(big: usize, small: usize) -> Table {
        let schema = Schema::new(vec![
            Attribute::new("G", ["a", "b"]),
            Attribute::with_anonymous_domain("SA", 2),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..big {
            b.push_codes(&[0, u32::from(i % 10 >= 7)]).unwrap();
        }
        for i in 0..small {
            b.push_codes(&[1, (i % 2) as u32]).unwrap();
        }
        b.build()
    }

    fn config() -> SpsConfig {
        SpsConfig {
            p: 0.5,
            params: PrivacyParams::new(0.3, 0.3),
        }
    }

    #[test]
    fn output_size_tracks_input_in_expectation() {
        let t = demo_table(5000, 20);
        let spec = SaSpec::new(&t, 1);
        let groups = PersonalGroups::build(&t, spec);
        let mut rng = StdRng::seed_from_u64(21);
        let mut total = 0u64;
        let runs = 30;
        for _ in 0..runs {
            let out = sps(&mut rng, &t, &groups, config());
            total += out.stats.output_records;
            assert_eq!(out.stats.groups, 2);
            assert_eq!(out.stats.groups_sampled, 1, "only the big group samples");
        }
        let avg = total as f64 / runs as f64;
        assert_close(avg, 5020.0, 60.0);
    }

    #[test]
    fn sampled_group_uses_sg_records() {
        let t = demo_table(5000, 20);
        let spec = SaSpec::new(&t, 1);
        let groups = PersonalGroups::build(&t, spec.clone());
        let sg = max_group_size(config().params, 0.5, 2, 0.7);
        let mut rng = StdRng::seed_from_u64(22);
        let out = sps(&mut rng, &t, &groups, config());
        // Sample size ≈ sg (stochastic rounding of per-value targets).
        assert_close(out.stats.sampled_records as f64, sg, 3.0);
    }

    #[test]
    fn small_groups_pass_through_perturbed_only() {
        let t = demo_table(20, 20);
        let spec = SaSpec::new(&t, 1);
        let groups = PersonalGroups::build(&t, spec);
        let mut rng = StdRng::seed_from_u64(23);
        let out = sps(&mut rng, &t, &groups, config());
        assert_eq!(out.stats.groups_sampled, 0);
        assert_eq!(out.stats.output_records, 40, "no sampling ⇒ exact size");
    }

    #[test]
    fn output_satisfies_reconstruction_privacy_theorem_4() {
        // Theorem 4: every g*₂ must satisfy (λ, δ)-reconstruction privacy.
        // Privacy is determined by the number of *independent random
        // trials*, i.e. the sample size |g1| ≈ sg, regardless of the scaled
        // output size. We verify the enforced invariant: every sampled
        // group's trial count is within sg (+1 for stochastic rounding).
        let t = demo_table(5000, 20);
        let spec = SaSpec::new(&t, 1);
        let groups = PersonalGroups::build(&t, spec);
        let sg = max_group_size(config().params, 0.5, 2, 0.7);
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..20 {
            let out = sps(&mut rng, &t, &groups, config());
            assert!(
                (out.stats.sampled_records as f64) <= sg + 2.0,
                "sample of {} exceeds sg = {sg}",
                out.stats.sampled_records
            );
        }
    }

    #[test]
    fn frequency_preserved_by_sampling_and_scaling() {
        // Theorem 5 (utility): E[F′ from D*₂] ≈ f. Check the SA histogram
        // of the sampled group's output keeps frequencies near the truth
        // after MLE reconstruction, averaged over runs.
        let t = demo_table(5000, 0);
        let spec = SaSpec::new(&t, 1);
        let groups = PersonalGroups::build(&t, spec);
        let mut rng = StdRng::seed_from_u64(25);
        let runs = 300;
        let mut mean_est = [0f64; 2];
        for _ in 0..runs {
            let (hists, _) = sps_groups(&mut rng, &groups, config());
            let hist = hists.hist(0);
            let support: u64 = hist.iter().sum();
            if support == 0 {
                continue;
            }
            let est = crate::mle::reconstruct_histogram(hist, 0.5);
            for i in 0..2 {
                mean_est[i] += est[i] / runs as f64;
            }
        }
        assert_close(mean_est[0], 0.7, 0.03);
        assert_close(mean_est[1], 0.3, 0.03);
    }

    #[test]
    fn record_and_histogram_executors_agree_in_distribution() {
        let t = demo_table(3000, 50);
        let spec = SaSpec::new(&t, 1);
        let groups = PersonalGroups::build(&t, spec.clone());
        let runs = 200;
        let mut rec_mean = [0f64; 2];
        let mut his_mean = [0f64; 2];
        let mut rng = StdRng::seed_from_u64(26);
        for _ in 0..runs {
            let out = sps(&mut rng, &t, &groups, config());
            let h = out.table.histogram(1).unwrap();
            let (hists, _) = sps_groups(&mut rng, &groups, config());
            let mut h2 = [0u64; 2];
            for (_, hist) in hists.iter() {
                h2[0] += hist[0];
                h2[1] += hist[1];
            }
            for i in 0..2 {
                rec_mean[i] += h[i] as f64 / runs as f64;
                his_mean[i] += h2[i] as f64 / runs as f64;
            }
        }
        for i in 0..2 {
            let diff = (rec_mean[i] - his_mean[i]).abs();
            assert!(
                diff < 0.03 * rec_mean[i].max(1.0),
                "executors diverge on value {i}: {rec_mean:?} vs {his_mean:?}"
            );
        }
    }

    /// For one seed, the per-group SA histograms of `sps`' table equal
    /// `sps_groups`' groups, and `sampled_records` is Σ g1 over the groups
    /// `sps_group` sampled: within the threshold, sampled, and with every
    /// sample degenerate (δ = 1 makes `sg` = 0, so each draw keeps no record
    /// and falls back to g1 = 1).
    #[test]
    fn record_level_histograms_equal_histogram_level_for_one_seed() {
        let degenerate = SpsConfig {
            p: 0.5,
            params: PrivacyParams::new(0.3, 1.0),
        };
        for (seed, table, config, sampled) in [
            (31, demo_table(20, 20), config(), 0),
            (32, demo_table(5000, 20), config(), 1),
            (33, demo_table(5000, 20), degenerate, 2),
        ] {
            let spec = SaSpec::new(&table, 1);
            let groups = PersonalGroups::build(&table, spec.clone());
            let out = sps(&mut StdRng::seed_from_u64(seed), &table, &groups, config);
            let (hists, _) = sps_groups(&mut StdRng::seed_from_u64(seed), &groups, config);
            let published = rp_table::group_histograms(&out.table, spec.na(), spec.sa());
            assert_eq!(published, hists, "seed {seed}");
            let keys = hists.iter().map(|(key, _)| key);
            assert!(keys.eq(groups.groups().map(|g| g.key)), "seed {seed}");
            assert_eq!(out.stats.groups_sampled, sampled, "seed {seed}");

            let mut rng = StdRng::seed_from_u64(seed);
            let op = UniformPerturbation::new(config.p, spec.m());
            let mut scratch = Vec::new();
            let g1: u64 = groups
                .groups()
                .filter_map(|g| sps_group(&mut rng, &op, config.params, g.sa_hist, &mut scratch))
                .sum();
            assert_eq!(out.stats.sampled_records, g1, "seed {seed}");
            if config == degenerate {
                assert_eq!(g1, sampled as u64, "one record per degenerate sample");
            }
        }
    }

    #[test]
    fn up_histograms_match_plain_perturbation_mean() {
        let t = demo_table(2000, 0);
        let spec = SaSpec::new(&t, 1);
        let groups = PersonalGroups::build(&t, spec);
        let mut rng = StdRng::seed_from_u64(27);
        let runs = 300;
        let mut mean = [0f64; 2];
        for _ in 0..runs {
            let up = up_histograms(&mut rng, &groups, 0.5);
            let h = up.hist(0);
            mean[0] += h[0] as f64 / runs as f64;
            mean[1] += h[1] as f64 / runs as f64;
        }
        // E[O*_0] = |S|(f·p + (1−p)/m) = 2000·(0.7·0.5 + 0.25) = 1200.
        assert_close(mean[0], 1200.0, 25.0);
        assert_close(mean[1], 800.0, 25.0);
    }

    #[test]
    fn up_violates_where_sps_enforces() {
        // The before/after picture of Section 6: UP leaves the large group
        // violating; SPS's sample is private by construction.
        let t = demo_table(5000, 20);
        let spec = SaSpec::new(&t, 1);
        let groups = PersonalGroups::build(&t, spec);
        let report = check_groups(&groups, 0.5, config().params);
        assert!(!report.is_private(), "UP design must violate here");
        let mut rng = StdRng::seed_from_u64(28);
        let out = sps(&mut rng, &t, &groups, config());
        // The *trial design* after SPS: sampled groups run sg trials.
        assert!(out.stats.groups_sampled >= 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let t = demo_table(1000, 10);
        let spec = SaSpec::new(&t, 1);
        let groups = PersonalGroups::build(&t, spec);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            sps(&mut rng, &t, &groups, config())
                .table
                .histogram(1)
                .unwrap()
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    #[should_panic(expected = "not built from this table")]
    fn mismatched_groups_panic() {
        let t1 = demo_table(100, 0);
        let t2 = demo_table(50, 0);
        let spec = SaSpec::new(&t1, 1);
        let groups = PersonalGroups::build(&t1, spec);
        let mut rng = StdRng::seed_from_u64(29);
        sps(&mut rng, &t2, &groups, config());
    }
}
