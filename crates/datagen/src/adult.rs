//! Synthetic ADULT data set.
//!
//! The paper evaluates on the UCI ADULT extract (45,222 complete records;
//! attributes Education, Occupation, Race, Gender + sensitive Income).
//! We do not ship the UCI file; instead this generator synthesizes a table
//! with the same *shape*:
//!
//! * the original domain sizes 16 / 14 / 5 / 2 and Income = {<=50K, >50K};
//! * an overall Income marginal calibrated to 75.22% / 24.78%;
//! * the Example-1 subpopulation embedded exactly: 501 records matching
//!   (Prof-school, Prof-specialty, White, Male), 420 of them >50K
//!   (confidence 83.83%);
//! * a latent-class conditional structure in which the 16 education values
//!   carry 7 distinct income profiles, the 14 occupations 4 profiles and
//!   the 5 races 2 profiles, so the χ²-merge of Section 3.4 reproduces
//!   Table 4's "after" domain sizes (7 / 4 / 2 / 2, hence 112 generalized
//!   personal groups);
//! * full coverage of all 16·14·5·2 = 2240 NA combinations, so `|G|`
//!   before aggregation matches Table 4.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_stats::sampling::sample_weighted;
use rp_table::{Attribute, Schema, Table, TableBuilder};

/// Number of records in the ADULT extract used by the paper.
pub const ADULT_ROWS: usize = 45_222;

/// Attribute indices of the generated table.
pub mod attr {
    /// Education (16 values).
    pub const EDUCATION: usize = 0;
    /// Occupation (14 values).
    pub const OCCUPATION: usize = 1;
    /// Race (5 values).
    pub const RACE: usize = 2;
    /// Gender (2 values).
    pub const GENDER: usize = 3;
    /// Income — the sensitive attribute (2 values).
    pub const INCOME: usize = 4;
}

/// The 16 UCI education values.
pub const EDUCATION_VALUES: [&str; 16] = [
    "Preschool",
    "1st-4th",
    "5th-6th",
    "7th-8th",
    "9th",
    "10th",
    "11th",
    "12th",
    "HS-grad",
    "Some-college",
    "Assoc-acdm",
    "Assoc-voc",
    "Bachelors",
    "Masters",
    "Doctorate",
    "Prof-school",
];

/// Latent income-profile class of each education value (7 classes).
/// Prof-school sits alone so the embedded Example-1 subpopulation cannot
/// distort a within-class identity.
pub const EDUCATION_CLASS: [usize; 16] = [0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 6];

/// Relative frequency of each education value (sums to 1; min ≈ 3% so every
/// pairwise χ² test retains power — the merge is by connected components, so
/// separating two classes requires *every* cross pair to reject).
const EDUCATION_MARGINAL: [f64; 16] = [
    0.032, 0.030, 0.030, 0.032, 0.030, 0.036, 0.045, 0.030, 0.235, 0.175, 0.032, 0.042, 0.120,
    0.063, 0.030, 0.038,
];

/// The 14 UCI occupation values.
pub const OCCUPATION_VALUES: [&str; 14] = [
    "Prof-specialty",
    "Exec-managerial",
    "Protective-serv",
    "Tech-support",
    "Sales",
    "Craft-repair",
    "Transport-moving",
    "Adm-clerical",
    "Armed-Forces",
    "Machine-op-inspct",
    "Farming-fishing",
    "Other-service",
    "Handlers-cleaners",
    "Priv-house-serv",
];

/// Latent income-profile class of each occupation (4 classes);
/// Prof-specialty sits alone for the same reason as Prof-school.
pub const OCCUPATION_CLASS: [usize; 14] = [0, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3];

const OCCUPATION_MARGINAL: [f64; 14] = [
    0.126, 0.120, 0.030, 0.032, 0.110, 0.120, 0.048, 0.112, 0.028, 0.062, 0.032, 0.096, 0.042,
    0.042,
];

/// The 5 UCI race values.
pub const RACE_VALUES: [&str; 5] = [
    "White",
    "Asian-Pac-Islander",
    "Black",
    "Amer-Indian-Eskimo",
    "Other",
];

/// Latent class of each race value (2 classes).
pub const RACE_CLASS: [usize; 5] = [0, 0, 1, 1, 1];

const RACE_MARGINAL: [f64; 5] = [0.828, 0.034, 0.086, 0.026, 0.026];

/// The 2 gender values.
pub const GENDER_VALUES: [&str; 2] = ["Male", "Female"];

const GENDER_MARGINAL: [f64; 2] = [0.676, 0.324];

/// The income values; `>50K` is the sensitive rare class.
pub const INCOME_VALUES: [&str; 2] = ["<=50K", ">50K"];

/// Income marginal of the UCI extract: 75.22% / 24.78%.
pub const INCOME_HIGH_FRACTION: f64 = 0.2478;

/// Logit-scale income effect per education class. The model is logistic —
/// `P(>50K) = sigmoid(base + edu + occ + race + gender)` — so within-class
/// identity is exact and no clamping erodes the cross-class gaps.
const EDU_EFFECT: [f64; 7] = [-1.96, -1.10, -0.49, 0.0, 0.48, 0.98, 1.72];
/// Logit effect per occupation class.
const OCC_EFFECT: [f64; 4] = [0.95, 0.40, -0.15, -0.75];
/// Logit effect per race class.
const RACE_EFFECT: [f64; 2] = [0.20, -0.40];
/// Logit effect per gender.
const GENDER_EFFECT: [f64; 2] = [0.30, -0.45];

/// Example-1 embedding: records matching (Prof-school, Prof-specialty,
/// White, Male).
pub const EXAMPLE1_BASE_COUNT: u64 = 501;
/// Example-1 embedding: of those, records with Income >50K.
pub const EXAMPLE1_HIGH_COUNT: u64 = 420;

/// Configuration for [`generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdultConfig {
    /// Number of records (the paper's extract has [`ADULT_ROWS`]).
    pub rows: usize,
    /// RNG seed; the same seed reproduces the same table bit-for-bit.
    pub seed: u64,
}

impl Default for AdultConfig {
    fn default() -> Self {
        Self {
            rows: ADULT_ROWS,
            seed: 0x5EED_AD01,
        }
    }
}

/// The ADULT schema: Education, Occupation, Race, Gender public; Income
/// sensitive.
pub fn schema() -> Schema {
    Schema::new(vec![
        Attribute::new("Education", EDUCATION_VALUES),
        Attribute::new("Occupation", OCCUPATION_VALUES),
        Attribute::new("Race", RACE_VALUES),
        Attribute::new("Gender", GENDER_VALUES),
        Attribute::new("Income", INCOME_VALUES),
    ])
}

/// Logistic function.
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Income probability of a full NA combination under the latent-class
/// logistic model.
fn income_probability(base: f64, edu: usize, occ: usize, race: usize, gender: usize) -> f64 {
    sigmoid(
        base + EDU_EFFECT[EDUCATION_CLASS[edu]]
            + OCC_EFFECT[OCCUPATION_CLASS[occ]]
            + RACE_EFFECT[RACE_CLASS[race]]
            + GENDER_EFFECT[gender],
    )
}

/// Expected income marginal of the logistic model at a given base logit,
/// taken exactly over the 16·14·5·2 cell grid weighted by the NA marginals.
fn expected_income_marginal(base: f64) -> f64 {
    let mut expectation = 0.0;
    for (edu, &we) in EDUCATION_MARGINAL.iter().enumerate() {
        for (occ, &wo) in OCCUPATION_MARGINAL.iter().enumerate() {
            for (race, &wr) in RACE_MARGINAL.iter().enumerate() {
                for (gender, &wg) in GENDER_MARGINAL.iter().enumerate() {
                    expectation +=
                        we * wo * wr * wg * income_probability(base, edu, occ, race, gender);
                }
            }
        }
    }
    expectation
}

/// Base logit calibrated by bisection so the expected income marginal is
/// [`INCOME_HIGH_FRACTION`] (the expectation is strictly increasing in the
/// base, so bisection always converges).
fn calibrated_base() -> f64 {
    let (mut lo, mut hi) = (-6.0_f64, 4.0_f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if expected_income_marginal(mid) < INCOME_HIGH_FRACTION {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Whether the NA combination is the Example-1 cell.
fn is_example1_cell(edu: usize, occ: usize, race: usize, gender: usize) -> bool {
    EDUCATION_VALUES[edu] == "Prof-school"
        && OCCUPATION_VALUES[occ] == "Prof-specialty"
        && RACE_VALUES[race] == "White"
        && GENDER_VALUES[gender] == "Male"
}

/// Generates the synthetic ADULT table.
///
/// When `config.rows >= 2240 + 501` (always true at the paper's size), all
/// 2240 NA combinations are covered and the Example-1 cell holds exactly
/// 501 records with exactly 420 of them >50K.
///
/// # Panics
///
/// Panics if `config.rows` is too small to hold the coverage seed plus the
/// Example-1 embedding (2240 − 1 + 501 records).
pub fn generate(config: AdultConfig) -> Table {
    let min_rows = (16 * 14 * 5 * 2 - 1) + EXAMPLE1_BASE_COUNT as usize;
    assert!(
        config.rows >= min_rows,
        "ADULT generator needs at least {min_rows} rows, got {}",
        config.rows
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let base = calibrated_base();
    let mut builder = TableBuilder::with_capacity(schema(), config.rows);

    let push = |builder: &mut TableBuilder,
                rng: &mut StdRng,
                edu: usize,
                occ: usize,
                race: usize,
                gender: usize| {
        let p_high = income_probability(base, edu, occ, race, gender);
        let income = u32::from(rng.gen::<f64>() < p_high);
        builder
            .push_codes(&[edu as u32, occ as u32, race as u32, gender as u32, income])
            .expect("generator produces in-domain codes");
    };

    // 1. The Example-1 embedding: exactly 501 records, exactly 420 >50K.
    let (e1_edu, e1_occ, e1_race, e1_gender) = (15usize, 0usize, 0usize, 0usize);
    debug_assert!(is_example1_cell(e1_edu, e1_occ, e1_race, e1_gender));
    for i in 0..EXAMPLE1_BASE_COUNT {
        let income = u32::from(i < EXAMPLE1_HIGH_COUNT);
        builder
            .push_codes(&[
                e1_edu as u32,
                e1_occ as u32,
                e1_race as u32,
                e1_gender as u32,
                income,
            ])
            .expect("Example-1 codes are valid");
    }

    // 2. Coverage seed: one record per remaining NA combination, so every
    //    personal group of Table 4 exists.
    for edu in 0..16 {
        for occ in 0..14 {
            for race in 0..5 {
                for gender in 0..2 {
                    if is_example1_cell(edu, occ, race, gender) {
                        continue;
                    }
                    push(&mut builder, &mut rng, edu, occ, race, gender);
                }
            }
        }
    }

    // 3. The bulk: independent draws from the NA marginals (re-drawing the
    //    Example-1 cell so its count stays exactly 501), income from the
    //    latent-class model.
    while builder.rows() < config.rows {
        let edu = sample_weighted(&mut rng, &EDUCATION_MARGINAL);
        let occ = sample_weighted(&mut rng, &OCCUPATION_MARGINAL);
        let race = sample_weighted(&mut rng, &RACE_MARGINAL);
        let gender = sample_weighted(&mut rng, &GENDER_MARGINAL);
        if is_example1_cell(edu, occ, race, gender) {
            continue;
        }
        push(&mut builder, &mut rng, edu, occ, race, gender);
    }

    builder.build()
}

/// Generates the paper-sized ADULT table with the default seed.
pub fn generate_default() -> Table {
    generate(AdultConfig::default())
}

// ---------------------------------------------------------------------------
// The real UCI file.
// ---------------------------------------------------------------------------

/// Environment variable naming the raw UCI ADULT file (`adult.data` /
/// `adult.test` dialect). When set and the file exists,
/// [`load_or_synthesize`] uses the real extract instead of the synthetic
/// substitute, so figures can be validated against the paper's numbers.
pub const RP_ADULT_PATH_ENV: &str = "RP_ADULT_PATH";

/// Column indices of the 15-field raw UCI file for the attributes the
/// paper uses (age, workclass, fnlwgt, ... are dropped).
const UCI_FIELDS: usize = 15;
const UCI_EDUCATION: usize = 3;
const UCI_OCCUPATION: usize = 6;
const UCI_RACE: usize = 8;
const UCI_SEX: usize = 9;
const UCI_INCOME: usize = 14;

/// Errors raised by the raw UCI loader.
#[derive(Debug)]
pub enum UciError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data line with the wrong field count.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        got: usize,
    },
    /// A value outside the known UCI domain of its column.
    UnknownValue {
        /// 1-based line number.
        line: usize,
        /// The column the value appeared in.
        column: &'static str,
        /// The offending value.
        value: String,
    },
    /// The file contained no complete records at all.
    Empty,
}

impl std::fmt::Display for UciError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UciError::Io(e) => write!(f, "I/O error: {e}"),
            UciError::FieldCount { line, got } => {
                write!(f, "line {line}: {got} fields, expected {UCI_FIELDS}")
            }
            UciError::UnknownValue {
                line,
                column,
                value,
            } => write!(f, "line {line}: unknown {column} value `{value}`"),
            UciError::Empty => write!(f, "no complete records in the UCI file"),
        }
    }
}

impl std::error::Error for UciError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UciError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for UciError {
    fn from(e: std::io::Error) -> Self {
        UciError::Io(e)
    }
}

/// Reads the raw UCI ADULT dialect (`adult.data` / `adult.test`): 15
/// comma-separated fields per line, no header, `?` for missing values, a
/// `|`-prefixed banner in the test split, and a trailing `.` on the test
/// split's income labels. Keeps the paper's extract — the complete
/// records (no `?` anywhere) projected onto Education, Occupation, Race,
/// Gender and Income — on the exact schema of the synthetic generator,
/// so everything downstream (generalization classes included) applies
/// unchanged.
///
/// # Errors
///
/// Returns a [`UciError`] on I/O failure, ragged rows, values outside
/// the UCI domains, or a file with no complete records.
pub fn load_uci<R: BufRead>(reader: R) -> Result<Table, UciError> {
    let mut builder = TableBuilder::new(schema());
    let target = schema();
    let code_of = |attr: usize, column: &'static str, value: &str, line: usize| {
        target
            .attribute(attr)
            .dictionary()
            .code(value)
            .ok_or_else(|| UciError::UnknownValue {
                line,
                column,
                value: value.to_string(),
            })
    };
    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('|') {
            continue; // blank or the adult.test banner
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if fields.len() != UCI_FIELDS {
            return Err(UciError::FieldCount {
                line: line_no,
                got: fields.len(),
            });
        }
        if fields.contains(&"?") {
            continue; // the paper keeps complete records only
        }
        let income = fields[UCI_INCOME].trim_end_matches('.');
        let codes = [
            code_of(attr::EDUCATION, "education", fields[UCI_EDUCATION], line_no)?,
            code_of(
                attr::OCCUPATION,
                "occupation",
                fields[UCI_OCCUPATION],
                line_no,
            )?,
            code_of(attr::RACE, "race", fields[UCI_RACE], line_no)?,
            code_of(attr::GENDER, "sex", fields[UCI_SEX], line_no)?,
            code_of(attr::INCOME, "income", income, line_no)?,
        ];
        builder
            .push_codes(&codes)
            .expect("codes come from the schema's own dictionaries");
    }
    if builder.rows() == 0 {
        return Err(UciError::Empty);
    }
    Ok(builder.build())
}

/// Loads the raw UCI file from a path (buffered).
///
/// # Errors
///
/// As [`load_uci`], plus file-open errors.
pub fn load_uci_path(path: impl AsRef<Path>) -> Result<Table, UciError> {
    let file = File::open(path)?;
    load_uci(BufReader::new(file))
}

/// Where an ADULT table came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdultSource {
    /// The real UCI file at this path.
    Uci(PathBuf),
    /// The synthetic shape-matched substitute.
    Synthetic,
}

/// Loads the real UCI ADULT extract when available, falling back to the
/// synthetic generator otherwise. The lookup order is: the explicit
/// `path` argument, then the [`RP_ADULT_PATH_ENV`] environment variable;
/// a candidate that does not exist falls through (so a missing file
/// degrades to the synthetic table), but a candidate that exists and
/// fails to *parse* is a hard error — silently synthesizing over a
/// corrupt real file would taint every downstream figure.
///
/// # Errors
///
/// Returns a [`UciError`] only for an existing file that fails to load.
pub fn load_or_synthesize(path: Option<&Path>) -> Result<(Table, AdultSource), UciError> {
    let candidates = path
        .map(Path::to_path_buf)
        .into_iter()
        .chain(std::env::var_os(RP_ADULT_PATH_ENV).map(PathBuf::from));
    for candidate in candidates {
        if candidate.exists() {
            let table = load_uci_path(&candidate)?;
            return Ok((table, AdultSource::Uci(candidate)));
        }
    }
    Ok((generate_default(), AdultSource::Synthetic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_table::CountQuery;

    #[test]
    fn row_count_and_schema() {
        let t = generate(AdultConfig {
            rows: 10_000,
            seed: 1,
        });
        assert_eq!(t.rows(), 10_000);
        assert_eq!(t.schema().arity(), 5);
        assert_eq!(t.schema().attribute(attr::EDUCATION).domain_size(), 16);
        assert_eq!(t.schema().attribute(attr::OCCUPATION).domain_size(), 14);
        assert_eq!(t.schema().attribute(attr::RACE).domain_size(), 5);
        assert_eq!(t.schema().attribute(attr::GENDER).domain_size(), 2);
        assert_eq!(t.schema().attribute(attr::INCOME).domain_size(), 2);
    }

    #[test]
    fn example1_cell_embedded_exactly() {
        let t = generate(AdultConfig {
            rows: 10_000,
            seed: 2,
        });
        let schema = t.schema();
        let q_base = [
            (
                attr::EDUCATION,
                schema
                    .attribute(0)
                    .dictionary()
                    .code("Prof-school")
                    .unwrap(),
            ),
            (
                attr::OCCUPATION,
                schema
                    .attribute(1)
                    .dictionary()
                    .code("Prof-specialty")
                    .unwrap(),
            ),
            (
                attr::RACE,
                schema.attribute(2).dictionary().code("White").unwrap(),
            ),
            (
                attr::GENDER,
                schema.attribute(3).dictionary().code("Male").unwrap(),
            ),
        ];
        let high = schema.attribute(4).dictionary().code(">50K").unwrap();
        let q = CountQuery::new(q_base.to_vec(), attr::INCOME, high).expect("valid count query");
        let (support, ans) = q.answer_with_support(&t);
        assert_eq!(support, EXAMPLE1_BASE_COUNT);
        assert_eq!(ans, EXAMPLE1_HIGH_COUNT);
        // Conf = 420/501 = 83.83%.
        let conf = ans as f64 / support as f64;
        assert!((conf - 0.8383).abs() < 1e-3);
    }

    #[test]
    fn income_marginal_near_uci() {
        let t = generate(AdultConfig {
            rows: ADULT_ROWS,
            seed: 3,
        });
        let hist = t.histogram(attr::INCOME).unwrap();
        let high_frac = hist[1] as f64 / t.rows() as f64;
        assert!(
            (high_frac - INCOME_HIGH_FRACTION).abs() < 0.02,
            "income marginal {high_frac} too far from {INCOME_HIGH_FRACTION}"
        );
    }

    #[test]
    fn all_na_combinations_covered() {
        let t = generate(AdultConfig {
            rows: 10_000,
            seed: 4,
        });
        let groups = rp_table::group_by_hash(&t, &[0, 1, 2, 3]);
        assert_eq!(groups.len(), 2240, "Table 4: |G| before aggregation");
    }

    #[test]
    fn within_class_values_share_income_profile() {
        // 11th and 12th grade are in the same latent class: their income
        // conditionals must be statistically indistinguishable.
        let t = generate(AdultConfig {
            rows: ADULT_ROWS,
            seed: 5,
        });
        let hist_for = |edu: u32| -> Vec<u64> {
            let mut h = vec![0u64; 2];
            for r in 0..t.rows() {
                if t.code(r, attr::EDUCATION) == edu {
                    h[t.code(r, attr::INCOME) as usize] += 1;
                }
            }
            h
        };
        let h11 = hist_for(6); // 11th
        let h12 = hist_for(7); // 12th
        let res = rp_stats::binned_chi2_test(&h11, &h12, 0.05).unwrap();
        assert!(
            !res.rejects_null,
            "same-class values must not differ: chi2 = {}",
            res.statistic
        );
    }

    #[test]
    fn cross_class_values_differ() {
        let t = generate(AdultConfig {
            rows: ADULT_ROWS,
            seed: 6,
        });
        let hist_for = |edu: u32| -> Vec<u64> {
            let mut h = vec![0u64; 2];
            for r in 0..t.rows() {
                if t.code(r, attr::EDUCATION) == edu {
                    h[t.code(r, attr::INCOME) as usize] += 1;
                }
            }
            h
        };
        // Preschool (class 0) vs HS-grad (class 3).
        let res = rp_stats::binned_chi2_test(&hist_for(0), &hist_for(8), 0.05).unwrap();
        assert!(res.rejects_null, "cross-class chi2 = {}", res.statistic);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate(AdultConfig {
            rows: 5000,
            seed: 9,
        });
        let b = generate(AdultConfig {
            rows: 5000,
            seed: 9,
        });
        assert_eq!(a, b);
        let c = generate(AdultConfig {
            rows: 5000,
            seed: 10,
        });
        assert_ne!(a, c);
    }

    #[test]
    fn generalization_reproduces_table_4() {
        // Table 4 of the paper: 16/14/5/2 → 7/4/2/2, |G| 2240 → 112.
        let t = generate_default();
        let spec = rp_core::groups::SaSpec::new(&t, attr::INCOME);
        let g = rp_core::generalize::Generalization::fit(&t, &spec, 0.05);
        let sizes: Vec<usize> = g.attributes().iter().map(|a| a.new_domain_size()).collect();
        assert_eq!(sizes, vec![7, 4, 2, 2], "Table 4 after-aggregation domains");
        let t2 = g.apply(&t);
        let groups = rp_table::group_by_hash(&t2, &[0, 1, 2, 3]);
        assert_eq!(groups.len(), 112, "Table 4: |G| after aggregation");
    }

    #[test]
    fn marginals_sum_to_one() {
        for m in [
            EDUCATION_MARGINAL.as_slice(),
            OCCUPATION_MARGINAL.as_slice(),
            RACE_MARGINAL.as_slice(),
            GENDER_MARGINAL.as_slice(),
        ] {
            let s: f64 = m.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "marginal sums to {s}");
        }
    }

    #[test]
    #[should_panic(expected = "needs at least")]
    fn too_few_rows_rejected() {
        generate(AdultConfig { rows: 100, seed: 1 });
    }

    /// Two raw UCI-dialect lines (the second from the `.test` split:
    /// trailing dot on income) plus one incomplete and one banner line.
    const UCI_SAMPLE: &str = "\
|1x3 Cross validator
39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K
50, Self-emp-not-inc, 83311, Prof-school, 13, Married-civ-spouse, Prof-specialty, Husband, White, Male, 0, 0, 13, United-States, >50K.
38, Private, 215646, HS-grad, 9, Divorced, ?, Not-in-family, Black, Female, 0, 0, 40, United-States, <=50K
";

    #[test]
    fn uci_dialect_parses_complete_records_onto_the_fixed_schema() {
        let t = load_uci(UCI_SAMPLE.as_bytes()).unwrap();
        assert_eq!(t.rows(), 2, "banner skipped, incomplete record dropped");
        assert_eq!(t.schema().arity(), 5);
        let dict = |a: usize| t.schema().attribute(a).dictionary().clone();
        assert_eq!(
            t.code(0, attr::EDUCATION),
            dict(0).code("Bachelors").unwrap()
        );
        assert_eq!(
            t.code(1, attr::EDUCATION),
            dict(0).code("Prof-school").unwrap()
        );
        assert_eq!(t.code(1, attr::INCOME), dict(4).code(">50K").unwrap());
        // The fixed schema keeps the full UCI domains even for values the
        // sample never mentions — generalization classes stay aligned.
        assert_eq!(t.schema().attribute(attr::EDUCATION).domain_size(), 16);
    }

    #[test]
    fn uci_loader_rejects_garbage() {
        assert!(matches!(
            load_uci(&b"1, 2, 3\n"[..]).unwrap_err(),
            UciError::FieldCount { got: 3, .. }
        ));
        let bad_value = UCI_SAMPLE.replace("Bachelors", "Hogwarts");
        assert!(matches!(
            load_uci(bad_value.as_bytes()).unwrap_err(),
            UciError::UnknownValue {
                column: "education",
                ..
            }
        ));
        assert!(matches!(
            load_uci(&b"|banner only\n"[..]).unwrap_err(),
            UciError::Empty
        ));
    }

    #[test]
    fn load_or_synthesize_falls_back_to_the_generator() {
        // A missing explicit path degrades to the synthetic table (the
        // env var may legitimately be set on machines with the file; the
        // explicit-path branch is deterministic either way).
        let missing = Path::new("/nonexistent/rp-adult-test/adult.data");
        if std::env::var_os(RP_ADULT_PATH_ENV).is_some() {
            return; // covered by uci_adult_file_loads_when_present
        }
        let (t, source) = load_or_synthesize(Some(missing)).unwrap();
        assert_eq!(source, AdultSource::Synthetic);
        assert_eq!(t.rows(), ADULT_ROWS);
    }

    /// Gated on the real file: set `RP_ADULT_PATH=/path/to/adult.data`
    /// to validate against the actual UCI extract.
    #[test]
    fn uci_adult_file_loads_when_present() {
        let Some(path) = std::env::var_os(RP_ADULT_PATH_ENV).map(PathBuf::from) else {
            eprintln!("RP_ADULT_PATH not set; skipping the real-file check");
            return;
        };
        if !path.exists() {
            eprintln!("RP_ADULT_PATH={} does not exist; skipping", path.display());
            return;
        }
        let (t, source) = load_or_synthesize(None).unwrap();
        assert_eq!(source, AdultSource::Uci(path));
        assert!(
            t.rows() > 10_000,
            "the extract has tens of thousands of rows"
        );
        // The paper's extract: income >50K around 24.78%.
        let hist = t.histogram(attr::INCOME).unwrap();
        let high = hist[1] as f64 / t.rows() as f64;
        assert!(
            (high - INCOME_HIGH_FRACTION).abs() < 0.03,
            "income marginal {high} far from the paper's {INCOME_HIGH_FRACTION}"
        );
    }
}
