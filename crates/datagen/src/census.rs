//! Synthetic CENSUS data set.
//!
//! The paper's second data set is a 500K-record extract of US census
//! microdata (previously used by the Anatomy and small-domain-randomization
//! papers) with attributes Age (77), Gender (2), Education (14),
//! Marital (6), Race (9) and sensitive Occupation (50 roughly balanced
//! values). The file is not publicly distributed, so this generator
//! synthesizes the same shape (DESIGN.md §4):
//!
//! * Occupation depends on Gender, Education, Marital and Race — each value
//!   of those attributes carries a *distinct* occupation profile — but is
//!   independent of Age. The χ²-merge of Section 3.4 therefore reproduces
//!   Table 5: Age collapses 77 → 1 while the other domains survive, giving
//!   2·14·6·9 = 1512 generalized personal groups;
//! * at 300K+ rows, all 77·2·14·6·9 = 116,424 NA combinations are covered,
//!   matching Table 5's `|G|` before aggregation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_stats::sampling::sample_weighted;
use rp_table::{Attribute, Schema, Table, TableBuilder};

/// Domain sizes.
pub mod domain {
    /// Age values.
    pub const AGE: usize = 77;
    /// Gender values.
    pub const GENDER: usize = 2;
    /// Education values.
    pub const EDUCATION: usize = 14;
    /// Marital-status values.
    pub const MARITAL: usize = 6;
    /// Race values.
    pub const RACE: usize = 9;
    /// Occupation values (the sensitive attribute).
    pub const OCCUPATION: usize = 50;
    /// Number of NA combinations.
    pub const NA_COMBINATIONS: usize = AGE * GENDER * EDUCATION * MARITAL * RACE;
}

/// Attribute indices of the generated table.
pub mod attr {
    /// Age (77 values, merged away by generalization).
    pub const AGE: usize = 0;
    /// Gender.
    pub const GENDER: usize = 1;
    /// Education.
    pub const EDUCATION: usize = 2;
    /// Marital status.
    pub const MARITAL: usize = 3;
    /// Race.
    pub const RACE: usize = 4;
    /// Occupation — the sensitive attribute.
    pub const OCCUPATION: usize = 5;
}

/// Configuration for [`generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CensusConfig {
    /// Number of records (the paper samples 100K–500K).
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CensusConfig {
    fn default() -> Self {
        Self {
            rows: 300_000,
            seed: 0x5EED_CE25,
        }
    }
}

/// Logit amplitude of the per-value occupation profiles. Large enough that
/// (a) every pair of values of an influencing attribute is distinguishable
/// by the χ² test at the paper's sample sizes, and (b) the conditional
/// occupation distributions are concentrated enough (group-level max
/// frequency ≈ 0.2–0.4) that the Figure-4 violation pattern — few violating
/// groups covering many records — materializes as in the paper.
const PROFILE_AMPLITUDE: f64 = 1.5;

/// The CENSUS schema with anonymous domain values.
pub fn schema() -> Schema {
    Schema::new(vec![
        Attribute::with_anonymous_domain("Age", domain::AGE),
        Attribute::with_anonymous_domain("Gender", domain::GENDER),
        Attribute::with_anonymous_domain("Education", domain::EDUCATION),
        Attribute::with_anonymous_domain("Marital", domain::MARITAL),
        Attribute::with_anonymous_domain("Race", domain::RACE),
        Attribute::with_anonymous_domain("Occupation", domain::OCCUPATION),
    ])
}

/// Deterministic pseudo-random profile entry for (attribute tag, value,
/// occupation): a fixed hash mapped into [−1, 1]. Age has no profile, which
/// is exactly what lets it merge away.
fn profile(tag: u64, value: usize, occupation: usize) -> f64 {
    // SplitMix64 on a composed key: cheap, stateless and stable across runs.
    let mut z = tag
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((value as u64) << 24)
        .wrapping_add(occupation as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Profile centered across the attribute's domain: subtracting the
/// per-occupation mean removes systematic occupation bias, keeping the
/// marginal occupation distribution roughly balanced while preserving the
/// *differences* between attribute values that the χ² test must detect.
fn centered_profile(tag: u64, n_values: usize, value: usize, occupation: usize) -> f64 {
    let mean: f64 = (0..n_values)
        .map(|v| profile(tag, v, occupation))
        .sum::<f64>()
        / n_values as f64;
    profile(tag, value, occupation) - mean
}

/// Occupation distribution conditioned on (gender, education, marital,
/// race): softmax over summed per-attribute centered profiles. Age is
/// absent by design.
fn occupation_distribution(
    gender: usize,
    education: usize,
    marital: usize,
    race: usize,
) -> Vec<f64> {
    let mut weights: Vec<f64> = (0..domain::OCCUPATION)
        .map(|occ| {
            let logit = PROFILE_AMPLITUDE
                * (centered_profile(1, domain::GENDER, gender, occ)
                    + centered_profile(2, domain::EDUCATION, education, occ)
                    + centered_profile(3, domain::MARITAL, marital, occ)
                    + centered_profile(4, domain::RACE, race, occ));
            logit.exp()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    weights
}

/// Marginal of a NA attribute: mildly skewed but bounded away from zero so
/// every value keeps χ² power (min weight ≈ 0.6 / n).
fn na_marginal(n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (0..n)
        .map(|i| 0.6 + 0.8 * ((i * 7 + 3) % n) as f64 / n as f64)
        .collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Generates the synthetic CENSUS table.
///
/// When `rows >= `[`domain::NA_COMBINATIONS`], all NA combinations are
/// seeded once (Table 5's `|G| = 116424` at 300K); below that the groups
/// emerge from sampling alone.
///
/// # Panics
///
/// Panics if `rows == 0`.
pub fn generate(config: CensusConfig) -> Table {
    assert!(config.rows > 0, "need at least one row");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut builder = TableBuilder::with_capacity(schema(), config.rows);

    // Cache the conditional occupation distributions: 2·14·6·9 = 1512
    // distinct profiles, reused by every record.
    let mut conditionals: Vec<Vec<f64>> =
        Vec::with_capacity(domain::GENDER * domain::EDUCATION * domain::MARITAL * domain::RACE);
    for gender in 0..domain::GENDER {
        for education in 0..domain::EDUCATION {
            for marital in 0..domain::MARITAL {
                for race in 0..domain::RACE {
                    conditionals.push(occupation_distribution(gender, education, marital, race));
                }
            }
        }
    }
    let cond_index = |gender: usize, education: usize, marital: usize, race: usize| {
        ((gender * domain::EDUCATION + education) * domain::MARITAL + marital) * domain::RACE + race
    };

    let push = |builder: &mut TableBuilder,
                rng: &mut StdRng,
                age: usize,
                gender: usize,
                education: usize,
                marital: usize,
                race: usize| {
        let occupation = sample_weighted(
            rng,
            &conditionals[cond_index(gender, education, marital, race)],
        );
        builder
            .push_codes(&[
                age as u32,
                gender as u32,
                education as u32,
                marital as u32,
                race as u32,
                occupation as u32,
            ])
            .expect("generator produces in-domain codes");
    };

    // Coverage seed when the sample is large enough to hold it.
    if config.rows >= domain::NA_COMBINATIONS {
        for age in 0..domain::AGE {
            for gender in 0..domain::GENDER {
                for education in 0..domain::EDUCATION {
                    for marital in 0..domain::MARITAL {
                        for race in 0..domain::RACE {
                            push(
                                &mut builder,
                                &mut rng,
                                age,
                                gender,
                                education,
                                marital,
                                race,
                            );
                        }
                    }
                }
            }
        }
    }

    // The bulk: independent draws from the marginals.
    let age_m = na_marginal(domain::AGE);
    let gender_m = na_marginal(domain::GENDER);
    let education_m = na_marginal(domain::EDUCATION);
    let marital_m = na_marginal(domain::MARITAL);
    let race_m = na_marginal(domain::RACE);
    while builder.rows() < config.rows {
        let age = sample_weighted(&mut rng, &age_m);
        let gender = sample_weighted(&mut rng, &gender_m);
        let education = sample_weighted(&mut rng, &education_m);
        let marital = sample_weighted(&mut rng, &marital_m);
        let race = sample_weighted(&mut rng, &race_m);
        push(
            &mut builder,
            &mut rng,
            age,
            gender,
            education,
            marital,
            race,
        );
    }

    builder.build()
}

/// Generates the paper's default 300K sample.
pub fn generate_default() -> Table {
    generate(CensusConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_count_and_schema() {
        let t = generate(CensusConfig {
            rows: 20_000,
            seed: 1,
        });
        assert_eq!(t.rows(), 20_000);
        assert_eq!(t.schema().arity(), 6);
        assert_eq!(t.schema().attribute(attr::AGE).domain_size(), 77);
        assert_eq!(t.schema().attribute(attr::OCCUPATION).domain_size(), 50);
    }

    #[test]
    fn occupation_roughly_balanced() {
        let t = generate(CensusConfig {
            rows: 100_000,
            seed: 2,
        });
        let hist = t.histogram(attr::OCCUPATION).unwrap();
        let min = *hist.iter().min().unwrap() as f64;
        let max = *hist.iter().max().unwrap() as f64;
        // "Balanced" in the paper's loose sense: within an order of
        // magnitude, no dominant value.
        assert!(max / min < 10.0, "occupation skew {min}..{max}");
        assert!(max / 100_000.0 < 0.10);
    }

    #[test]
    fn age_merges_away_under_generalization() {
        // Individual age pairs can produce the ~5% false rejection the χ²
        // significance permits, but the connected-component merge of
        // Section 3.4 must still collapse all 77 ages into one generalized
        // value (Table 5), while the influencing attributes survive intact.
        let t = generate(CensusConfig {
            rows: 150_000,
            seed: 3,
        });
        let spec = rp_core::groups::SaSpec::new(&t, attr::OCCUPATION);
        let g = rp_core::generalize::Generalization::fit(&t, &spec, 0.05);
        let sizes: Vec<usize> = g.attributes().iter().map(|a| a.new_domain_size()).collect();
        assert_eq!(
            sizes,
            vec![1, 2, 14, 6, 9],
            "Table 5 after-aggregation domains"
        );
    }

    #[test]
    fn education_values_have_distinct_impact() {
        let t = generate(CensusConfig {
            rows: 150_000,
            seed: 4,
        });
        let hist_for = |edu: u32| -> Vec<u64> {
            let mut h = vec![0u64; domain::OCCUPATION];
            for r in 0..t.rows() {
                if t.code(r, attr::EDUCATION) == edu {
                    h[t.code(r, attr::OCCUPATION) as usize] += 1;
                }
            }
            h
        };
        for (a, b) in [(0u32, 1u32), (3, 9), (12, 13)] {
            let res = rp_stats::binned_chi2_test(&hist_for(a), &hist_for(b), 0.05).unwrap();
            assert!(
                res.rejects_null,
                "education {a} vs {b} should differ: chi2 = {}",
                res.statistic
            );
        }
    }

    #[test]
    fn full_coverage_at_paper_size() {
        // 116,424 NA combinations at 150K would not fit; use a quick check
        // on the seeding rule instead of generating 300K here (the
        // experiment binary does that): rows >= combos implies coverage.
        let t = generate(CensusConfig {
            rows: domain::NA_COMBINATIONS,
            seed: 5,
        });
        let groups = rp_table::group_by_hash(&t, &[0, 1, 2, 3, 4]);
        assert_eq!(groups.len(), domain::NA_COMBINATIONS);
    }

    #[test]
    fn conditional_distributions_are_cached_consistently() {
        let d1 = occupation_distribution(0, 3, 2, 5);
        let d2 = occupation_distribution(0, 3, 2, 5);
        assert_eq!(d1, d2);
        assert!((d1.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let d3 = occupation_distribution(1, 3, 2, 5);
        assert_ne!(d1, d3, "different gender, different profile");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate(CensusConfig {
            rows: 3000,
            seed: 7,
        });
        let b = generate(CensusConfig {
            rows: 3000,
            seed: 7,
        });
        assert_eq!(a, b);
    }

    #[test]
    fn marginals_are_positive_and_normalized() {
        for n in [2usize, 6, 9, 14, 77] {
            let m = na_marginal(n);
            assert_eq!(m.len(), n);
            assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(m.iter().all(|&w| w > 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_rejected() {
        generate(CensusConfig { rows: 0, seed: 1 });
    }
}
