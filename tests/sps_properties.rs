//! Property-based tests for the SPS algorithm itself (Section 5): the
//! perturbation matrix is a proper transition matrix, the Sampling step
//! respects the Equation-10 budget `sg` in every group, groups within the
//! budget pass through unsampled and intact, and the Scaling step restores
//! the original group size in expectation.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_core::groups::{PersonalGroups, SaSpec};
use rp_core::matrix::PerturbationMatrix;
use rp_core::privacy::{max_group_size, PrivacyParams};
use rp_core::sps::{sps, SpsConfig};
use rp_table::{Attribute, Schema, Table, TableBuilder};

/// A random categorical table: two public attributes and one SA column,
/// dense enough that personal groups span the interesting size range.
fn random_table(seed: u64, rows: usize, na1: usize, na2: usize, m: usize) -> Table {
    let schema = Schema::new(vec![
        Attribute::with_anonymous_domain("A", na1),
        Attribute::with_anonymous_domain("B", na2),
        Attribute::with_anonymous_domain("SA", m),
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = TableBuilder::new(schema);
    for _ in 0..rows {
        let a = rng.gen_range(0..na1 as u32);
        let b = rng.gen_range(0..na2 as u32);
        // Correlate SA with A so group histograms are skewed (varied f_max).
        let sa = if rng.gen::<f64>() < 0.6 {
            (a as usize % m) as u32
        } else {
            rng.gen_range(0..m as u32)
        };
        builder.push_codes(&[a, b, sa]).expect("codes in domain");
    }
    builder.build()
}

/// Per-group published sizes, keyed by the group's NA codes.
fn sizes_by_key(groups: &PersonalGroups) -> HashMap<Vec<u32>, u64> {
    groups
        .groups()
        .map(|g| (g.key.to_vec(), g.len() as u64))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equation 3: `P` is a transition matrix — entries in [0, 1], every
    /// column (outgoing probabilities of one true value) sums to 1, and by
    /// the uniform structure every row does too. Its inverse also has unit
    /// row/column sums (`P·1 = 1` implies `P⁻¹·1 = 1`), which is what makes
    /// the MLE reconstruction preserve the simplex.
    #[test]
    fn perturbation_matrix_is_doubly_stochastic(p in 0.05f64..0.95, m in 2usize..40) {
        let mat = PerturbationMatrix::new(p, m);
        for i in 0..m {
            let mut col = 0.0;
            let mut row = 0.0;
            let mut inv_col = 0.0;
            for j in 0..m {
                let e = mat.entry(j, i);
                prop_assert!((0.0..=1.0).contains(&e), "entry {e} out of [0,1]");
                col += e;
                row += mat.entry(i, j);
                inv_col += mat.inverse_entry(j, i);
            }
            prop_assert!((col - 1.0).abs() < 1e-10, "column {i} sums to {col}");
            prop_assert!((row - 1.0).abs() < 1e-10, "row {i} sums to {row}");
            prop_assert!((inv_col - 1.0).abs() < 1e-9, "inverse column {i} sums to {inv_col}");
        }
    }

    /// The Sampling step: a group is sampled if and only if it exceeds the
    /// Equation-10 threshold `sg(f_max)`, and the records drawn across all
    /// sampled groups stay within the per-group budget (`sg` plus the
    /// stochastic-rounding slack of at most one record per SA value).
    #[test]
    fn sampling_respects_the_eq10_budget(
        seed in any::<u64>(),
        p in 0.2f64..0.8,
        rows in 800usize..3000,
        m in 2usize..5
    ) {
        let table = random_table(seed, rows, 6, 4, m);
        let spec = SaSpec::new(&table, 2);
        let groups = PersonalGroups::build(&table, spec);
        let params = PrivacyParams::new(0.3, 0.3);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let out = sps(&mut rng, &table, &groups, SpsConfig { p, params });

        let mut expect_sampled = 0usize;
        let mut budget = 0.0f64;
        for g in groups.groups() {
            let sg = max_group_size(params, p, m, g.max_frequency());
            if g.len() as f64 > sg {
                expect_sampled += 1;
                // Per-cell stochastic rounding can exceed c·τ by < 1.
                budget += sg + m as f64;
            }
        }
        prop_assert_eq!(out.stats.groups_sampled, expect_sampled);
        prop_assert!(
            (out.stats.sampled_records as f64) <= budget + 1e-9,
            "sampled {} records, budget {budget}",
            out.stats.sampled_records
        );
        prop_assert_eq!(out.stats.groups, groups.len());
        prop_assert_eq!(out.stats.input_records, rows as u64);
    }

    /// Groups at or under `sg` take the no-sampling path: every record is
    /// perturbed in place, so the published group has exactly the original
    /// size (perturbation only rewrites the SA column).
    #[test]
    fn compliant_groups_pass_through_with_exact_size(
        seed in any::<u64>(),
        p in 0.2f64..0.8,
        rows in 800usize..2500
    ) {
        let m = 3;
        let table = random_table(seed, rows, 5, 5, m);
        let spec = SaSpec::new(&table, 2);
        let groups = PersonalGroups::build(&table, spec);
        let params = PrivacyParams::new(0.3, 0.3);

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1E);
        let out = sps(&mut rng, &table, &groups, SpsConfig { p, params });
        let out_spec = SaSpec::new(&out.table, 2);
        let out_sizes = sizes_by_key(&PersonalGroups::build(&out.table, out_spec));

        for g in groups.groups() {
            let sg = max_group_size(params, p, m, g.max_frequency());
            if g.len() as f64 <= sg {
                let published = out_sizes.get(g.key).copied().unwrap_or(0);
                prop_assert_eq!(
                    published,
                    g.len() as u64,
                    "compliant group {:?} changed size",
                    g.key
                );
            }
        }
    }
}

/// The Scaling step: for a single oversized group, the mean published size
/// across independent seeded runs equals the original size (`E[g*₂] = |g|`
/// — the sample of `~sg` records is blown back up by `τ' = |g|/|g₁|`).
#[test]
fn scaling_restores_group_size_in_expectation() {
    let m = 3;
    let size = 600u64;
    let schema = Schema::new(vec![
        Attribute::with_anonymous_domain("A", 1),
        Attribute::with_anonymous_domain("SA", m),
    ]);
    let mut builder = TableBuilder::new(schema);
    for (code, count) in [(0u32, 300u64), (1, 200), (2, 100)] {
        for _ in 0..count {
            builder.push_codes(&[0, code]).expect("codes in domain");
        }
    }
    let table = builder.build();
    let spec = SaSpec::new(&table, 1);
    let groups = PersonalGroups::build(&table, spec);
    assert_eq!(groups.len(), 1);

    let p = 0.5;
    let params = PrivacyParams::new(0.3, 0.3);
    let sg = max_group_size(params, p, m, 0.5);
    assert!(
        sg < size as f64,
        "fixture must exceed sg = {sg} or the test exercises nothing"
    );

    let runs = 40;
    let mut total = 0u64;
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = sps(&mut rng, &table, &groups, SpsConfig { p, params });
        assert_eq!(out.stats.groups_sampled, 1);
        total += out.stats.output_records;
    }
    let mean = total as f64 / runs as f64;
    let tolerance = size as f64 * 0.02;
    assert!(
        (mean - size as f64).abs() < tolerance,
        "mean published size {mean} drifted from {size} (tolerance {tolerance})"
    );
}
