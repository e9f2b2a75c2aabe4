//! Determinism contract: every randomized pipeline stage is a pure function
//! of its seed. Two runs with the same `StdRng` seed must produce
//! byte-identical tables (compared through their CSV serialization), so
//! criterion numbers and figure reproductions stay comparable across PRs,
//! machines and runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_core::groups::{PersonalGroups, SaSpec};
use rp_core::privacy::PrivacyParams;
use rp_core::sps::{sps, sps_groups, uniform_perturb, up_histograms, SpsConfig};
use rp_datagen::{adult, census};
use rp_table::{write_csv, Table};

/// The table's canonical byte representation.
fn csv_bytes(table: &Table) -> Vec<u8> {
    let mut buffer = Vec::new();
    write_csv(table, &mut buffer).expect("in-memory write cannot fail");
    buffer
}

#[test]
fn datagen_is_a_pure_function_of_the_seed() {
    let config = adult::AdultConfig {
        rows: 5_000,
        seed: 42,
    };
    let a = csv_bytes(&adult::generate(config));
    let b = csv_bytes(&adult::generate(config));
    assert_eq!(a, b, "same ADULT seed must give byte-identical tables");

    let other = adult::generate(adult::AdultConfig {
        rows: 5_000,
        seed: 43,
    });
    assert_ne!(a, csv_bytes(&other), "different seeds must differ");

    let config = census::CensusConfig {
        rows: 8_000,
        seed: 7,
    };
    let c = csv_bytes(&census::generate(config));
    let d = csv_bytes(&census::generate(config));
    assert_eq!(c, d, "same CENSUS seed must give byte-identical tables");
}

#[test]
fn uniform_perturbation_is_deterministic_per_seed() {
    let table = adult::generate(adult::AdultConfig {
        rows: 4_000,
        seed: 1,
    });
    let spec = SaSpec::new(&table, 4);

    let mut rng = StdRng::seed_from_u64(99);
    let first = uniform_perturb(&mut rng, &table, &spec, 0.5);
    let mut rng = StdRng::seed_from_u64(99);
    let second = uniform_perturb(&mut rng, &table, &spec, 0.5);
    assert_eq!(csv_bytes(&first), csv_bytes(&second));

    let mut rng = StdRng::seed_from_u64(100);
    let third = uniform_perturb(&mut rng, &table, &spec, 0.5);
    assert_ne!(csv_bytes(&first), csv_bytes(&third));
}

#[test]
fn sps_is_deterministic_per_seed() {
    let table = adult::generate(adult::AdultConfig {
        rows: 6_000,
        seed: 2,
    });
    let spec = SaSpec::new(&table, 4);
    let groups = PersonalGroups::build(&table, spec);
    let config = SpsConfig {
        p: 0.5,
        params: PrivacyParams::new(0.3, 0.3),
    };

    let mut rng = StdRng::seed_from_u64(1234);
    let first = sps(&mut rng, &table, &groups, config);
    let mut rng = StdRng::seed_from_u64(1234);
    let second = sps(&mut rng, &table, &groups, config);
    assert_eq!(first.stats, second.stats, "run counters must match");
    assert_eq!(
        csv_bytes(&first.table),
        csv_bytes(&second.table),
        "same SPS seed must publish byte-identical tables"
    );
}

#[test]
fn histogram_level_paths_are_deterministic_per_seed() {
    let table = adult::generate(adult::AdultConfig {
        rows: 6_000,
        seed: 3,
    });
    let spec = SaSpec::new(&table, 4);
    let groups = PersonalGroups::build(&table, spec);
    let config = SpsConfig {
        p: 0.5,
        params: PrivacyParams::new(0.3, 0.3),
    };

    let mut rng = StdRng::seed_from_u64(5);
    let up_a = up_histograms(&mut rng, &groups, 0.5);
    let sps_a = sps_groups(&mut rng, &groups, config);
    let mut rng = StdRng::seed_from_u64(5);
    let up_b = up_histograms(&mut rng, &groups, 0.5);
    let sps_b = sps_groups(&mut rng, &groups, config);

    assert_eq!(up_a, up_b, "up_histograms must replay exactly");
    assert_eq!(sps_a, sps_b, "sps_groups must replay exactly");
}
