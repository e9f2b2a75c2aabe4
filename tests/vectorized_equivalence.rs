//! Equivalence suites for the vectorized data path: the bitmap matching
//! kernel must agree with the row-at-a-time scan on arbitrary tables and
//! queries, the one-pass personal grouping must equal the paper's
//! sort-based grouping, and the histogram-level SPS emission must match the
//! row-at-a-time reference in distribution.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_core::groups::{PersonalGroups, SaSpec};
use rp_core::perturb::UniformPerturbation;
use rp_core::privacy::{max_group_size, PrivacyParams};
use rp_core::sps::{sps, SpsConfig};
use rp_stats::sampling::stochastic_round;
use rp_stats::summary::OnlineStats;
use rp_table::{
    group_by_hash, group_by_sort, group_histograms, Attribute, BitmapIndex, CountQuery, Pattern,
    Schema, Table, TableBuilder, Term,
};

/// A random categorical table over `arity` attributes with the given domain
/// sizes, filled from a seeded RNG.
fn random_table(seed: u64, rows: usize, domains: &[usize]) -> Table {
    let schema = Schema::new(
        domains
            .iter()
            .enumerate()
            .map(|(i, &d)| Attribute::with_anonymous_domain(format!("A{i}"), d))
            .collect(),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = TableBuilder::with_capacity(schema, rows);
    let mut codes = vec![0u32; domains.len()];
    for _ in 0..rows {
        for (c, &d) in codes.iter_mut().zip(domains) {
            *c = rng.gen_range(0..d as u32);
        }
        builder.push_codes(&codes).expect("codes in domain");
    }
    builder.build()
}

/// The bitmap index over every column of `table`, one bit per row.
fn table_index(table: &Table) -> BitmapIndex {
    let attrs: Vec<usize> = (0..table.schema().arity()).collect();
    let columns: Vec<&[u32]> = attrs.iter().map(|&a| table.column(a).codes()).collect();
    let domains: Vec<usize> = attrs
        .iter()
        .map(|&a| table.schema().attribute(a).domain_size())
        .collect();
    BitmapIndex::from_columns(&attrs, &columns, &domains)
}

/// A random pattern over the table's attributes: each attribute is absent,
/// wildcarded, or pinned to a (possibly out-of-domain) code.
fn random_pattern(rng: &mut StdRng, domains: &[usize]) -> Pattern {
    let terms = domains
        .iter()
        .enumerate()
        .filter_map(|(attr, &d)| match rng.gen_range(0..4u32) {
            0 => None,
            1 => Some((attr, Term::Wildcard)),
            // Codes drawn past the domain exercise the no-match path.
            _ => Some((attr, Term::Value(rng.gen_range(0..(d as u32 + 2))))),
        })
        .collect();
    Pattern::new(terms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bitmap selection (AND of per-(attr, code) bitmaps) agrees with the
    /// row-at-a-time pattern scan on arbitrary tables and patterns, bit by
    /// bit and word by word.
    #[test]
    fn bitmap_select_matches_row_scan(seed in 0u64..5_000, rows in 0usize..300) {
        let domains = [2 + (seed % 5) as usize, 3, 2 + (seed % 3) as usize];
        let table = random_table(seed, rows, &domains);
        let index = table_index(&table);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        for _ in 0..8 {
            let pattern = random_pattern(&mut rng, &domains);
            let mut selected = Vec::new();
            index.for_each_match(&pattern, |r| selected.push(r as u32));
            prop_assert_eq!(selected, pattern.select(&table));
            let mut count = 0;
            index.for_each_match_word(&pattern, |_, word| count += u64::from(word.count_ones()));
            prop_assert_eq!(count, pattern.count(&table));
        }
    }

    /// Bitmap count-query evaluation returns the same `(support, observed)`
    /// pair as the scan for random conjunctive queries.
    #[test]
    fn bitmap_queries_match_row_scan(seed in 0u64..5_000, rows in 0usize..300) {
        let domains = [3usize, 4, 3];
        let table = random_table(seed, rows, &domains);
        let index = table_index(&table);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        for _ in 0..8 {
            let sa = rng.gen_range(0..domains.len());
            let mut na: Vec<(usize, u32)> = Vec::new();
            for (a, &domain) in domains.iter().enumerate() {
                if a != sa && rng.gen::<f64>() < 0.6 {
                    na.push((a, rng.gen_range(0..domain as u32)));
                }
            }
            let sa_value = rng.gen_range(0..domains[sa] as u32);
            let query = CountQuery::new(na, sa, sa_value).expect("valid count query");
            let (mut support, mut observed) = (0u64, 0u64);
            index.for_each_match(query.na_pattern(), |r| {
                support += 1;
                observed += u64::from(table.code(r, sa) == sa_value);
            });
            prop_assert_eq!((support, observed), query.answer_with_support(&table));
        }
    }

    /// The one-pass `PersonalGroups::build` equals the paper's sort-based
    /// grouping with per-group SA histograms, and the sort- and hash-based
    /// strategies agree with each other.
    #[test]
    fn personal_groups_match_sorted_grouping(seed in 0u64..5_000, rows in 0usize..400) {
        let domains = [4usize, 3, 2, 5];
        let table = random_table(seed, rows, &domains);
        let spec = SaSpec::new(&table, 3);
        let sorted = group_by_sort(&table, spec.na());
        prop_assert_eq!(&sorted, &group_by_hash(&table, spec.na()));
        let groups = PersonalGroups::build(&table, spec.clone());
        prop_assert_eq!(groups.len(), sorted.len());
        for (group, reference) in groups.groups().iter().zip(sorted.groups()) {
            prop_assert_eq!(&group.key, &reference.key);
            prop_assert_eq!(&group.sa_hist, &table.histogram_over(spec.sa(), &reference.rows));
            prop_assert_eq!(group.len(), reference.len());
        }
    }
}

/// Row-at-a-time SPS over the member rows of `group_by_sort`, as the
/// paper describes it: one `perturb_code` per record of a within-threshold
/// group; for a sampled group, a per-value frequency-preserving sample, its
/// perturbation, and `stochastic_round(τ′)` copies of every perturbed
/// record. Returns the published per-group SA histograms in key order.
fn reference_sps<R: Rng + ?Sized>(
    rng: &mut R,
    table: &Table,
    spec: &SaSpec,
    config: SpsConfig,
) -> Vec<Vec<u64>> {
    let op = UniformPerturbation::new(config.p, spec.m());
    let sa_column = table.column(spec.sa()).codes();
    group_by_sort(table, spec.na())
        .groups()
        .iter()
        .map(|group| {
            let sa_hist = table.histogram_over(spec.sa(), &group.rows);
            let size = group.len() as u64;
            let f_max = *sa_hist.iter().max().expect("m >= 2") as f64 / size as f64;
            let sg = max_group_size(config.params, config.p, spec.m(), f_max);
            let mut out = vec![0u64; spec.m()];
            if size as f64 <= sg {
                for &r in &group.rows {
                    out[op.perturb_code(rng, sa_column[r as usize]) as usize] += 1;
                }
                return out;
            }
            let tau = sg / size as f64;
            let mut sample: Vec<u64> = sa_hist
                .iter()
                .map(|&c| stochastic_round(rng, c as f64 * tau).min(c))
                .collect();
            let mut g1: u64 = sample.iter().sum();
            if g1 == 0 {
                let argmax = sa_hist
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .map(|(i, _)| i)
                    .expect("m >= 2");
                sample[argmax] = 1;
                g1 = 1;
            }
            let tau_prime = size as f64 / g1 as f64;
            for (code, &count) in sample.iter().enumerate() {
                for _ in 0..count {
                    let published = op.perturb_code(rng, code as u32) as usize;
                    out[published] += stochastic_round(rng, tau_prime);
                }
            }
            out
        })
        .collect()
}

/// The published per-group SA histograms of `sps`' table, in key order.
fn published_histograms(table: &Table, spec: &SaSpec) -> Vec<Vec<u64>> {
    group_histograms(table, spec.na(), spec.sa()).1
}

/// Over `RUNS` seeded runs per fixture, every (group, SA value) output
/// count of the histogram-level `sps` has the same mean and variance as the
/// row-at-a-time reference. With `s` the larger of the two sample standard
/// deviations, means may differ by at most `Z` standard errors of the
/// difference (`Z · s · √(2/RUNS)`) and variances by at most `Z` standard
/// errors of the variance difference under normality (`Z · s² · 2/√(RUNS − 1)`),
/// each with a floor of 0.05 for cells that are nearly constant.
#[test]
fn histogram_emission_matches_row_reference_in_distribution() {
    const RUNS: usize = 400;
    const Z: f64 = 5.0;
    for (seed, rows, domains) in [
        // Few, large personal groups: the sampled (scaled) path dominates.
        (11u64, 6_000usize, vec![3usize, 2, 2]),
        (12, 4_000, vec![2, 2, 5]),
        // Many small groups: the within-threshold path dominates.
        (13, 800, vec![6, 5, 8]),
    ] {
        let table = random_table(seed, rows, &domains);
        let spec = SaSpec::new(&table, domains.len() - 1);
        let groups = PersonalGroups::build(&table, spec.clone());
        let config = SpsConfig {
            p: 0.5,
            params: PrivacyParams::new(0.3, 0.3),
        };
        let cells = groups.len() * spec.m();
        let mut columnar = vec![OnlineStats::new(); cells];
        let mut reference = vec![OnlineStats::new(); cells];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let mut sampled = 0;
        for _ in 0..RUNS {
            let out = sps(&mut rng, &table, &groups, config);
            sampled += out.stats.groups_sampled;
            let hists = published_histograms(&out.table, &spec);
            assert_eq!(hists.len(), groups.len(), "every group is published");
            for (cell, &count) in columnar.iter_mut().zip(hists.iter().flatten()) {
                cell.push(count as f64);
            }
            let hists = reference_sps(&mut rng, &table, &spec, config);
            for (cell, &count) in reference.iter_mut().zip(hists.iter().flatten()) {
                cell.push(count as f64);
            }
        }
        assert!(
            sampled > 0 || rows < 1_000,
            "fixture should exercise the sampled path (seed {seed})"
        );
        for (cell, (a, b)) in columnar.iter().zip(&reference).enumerate() {
            let (mean_a, mean_b) = (a.mean().unwrap(), b.mean().unwrap());
            let (var_a, var_b) = (a.sample_variance().unwrap(), b.sample_variance().unwrap());
            let s = var_a.max(var_b).sqrt();
            let mean_tol = (Z * s * (2.0 / RUNS as f64).sqrt()).max(0.05);
            let var_tol = (Z * s * s * 2.0 / ((RUNS - 1) as f64).sqrt()).max(0.05);
            assert!(
                (mean_a - mean_b).abs() <= mean_tol,
                "seed {seed} cell {cell}: mean {mean_a} vs reference {mean_b} (tol {mean_tol})"
            );
            assert!(
                (var_a - var_b).abs() <= var_tol,
                "seed {seed} cell {cell}: variance {var_a} vs reference {var_b} (tol {var_tol})"
            );
        }
    }
}
