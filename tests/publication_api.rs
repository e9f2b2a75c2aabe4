//! Integration tests for the publication API (`rp-engine`): the
//! `Publisher` → `Publication` → `QueryEngine` surface must agree exactly
//! with the legacy free-function pipeline it wraps, and the on-disk
//! artifact must round-trip byte-for-byte.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_repro::core::estimate::estimate_by_scan;
use rp_repro::core::groups::{PersonalGroups, SaSpec};
use rp_repro::core::privacy::PrivacyParams;
use rp_repro::core::sps::{sps, SpsConfig};
use rp_repro::datagen::adult::{self, AdultConfig};
use rp_repro::datagen::querypool::{QueryPool, QueryPoolConfig};
use rp_repro::engine::{Publication, Publisher, QueryEngine};
use rp_repro::experiments::config::PreparedDataset;
use rp_repro::table::Table;

const SEED: u64 = 0xA11_5EED;
const P: f64 = 0.5;

fn adult_table() -> Table {
    adult::generate(AdultConfig {
        rows: 20_000,
        seed: 33,
    })
}

fn publish(table: &Table) -> Publication {
    Publisher::new(table.clone())
        .sa(adult::attr::INCOME)
        .privacy(0.3, 0.3)
        .retention(P)
        .seed(SEED)
        .publish()
        .expect("ADULT shape supports the criterion")
}

/// The builder must be a faithful wrapper: same seed, same input ⇒ the
/// exact published table the legacy `sps()` free function produces.
#[test]
fn publisher_reproduces_the_legacy_pipeline() {
    let table = adult_table();
    let publication = publish(&table);

    let spec = SaSpec::new(&table, adult::attr::INCOME);
    let groups = PersonalGroups::build(&table, spec);
    let mut rng = StdRng::seed_from_u64(SEED);
    let legacy = sps(
        &mut rng,
        &table,
        &groups,
        SpsConfig {
            p: P,
            params: PrivacyParams::new(0.3, 0.3),
        },
    );
    assert_eq!(publication.table(), &legacy.table);
    assert_eq!(publication.stats(), legacy.stats);
}

/// Engine answers must equal the legacy one-shot `estimate_by_scan` path
/// on the same release, query by query, over a pooled Section-6 workload.
#[test]
fn engine_answers_match_one_shot_estimation_over_a_pool() {
    let dataset = PreparedDataset::adult_small(20_000);
    let publication = Publisher::new(dataset.generalized.clone())
        .sa(dataset.sa)
        .privacy(0.3, 0.3)
        .retention(P)
        .seed(SEED)
        .publish()
        .expect("generalized ADULT supports the criterion");
    let engine = QueryEngine::new(&publication);

    let mut rng = StdRng::seed_from_u64(91);
    let pool = QueryPool::generate(
        &mut rng,
        dataset.raw.schema(),
        &dataset.generalization,
        &dataset.groups,
        QueryPoolConfig {
            pool_size: 300,
            ..QueryPoolConfig::default()
        },
    );
    assert!(pool.len() >= 100, "pool too small to be meaningful");

    for pq in &pool.queries {
        let answer = engine.answer(&pq.query).expect("query fits");
        let scan = estimate_by_scan(publication.table(), &pq.query, P);
        assert!(
            (answer.estimate - scan).abs() < 1e-9,
            "engine {} vs scan {scan} on {:?}",
            answer.estimate,
            pq.query
        );
    }
}

/// Artifact round-trip: `save ∘ load ∘ save` must be byte-identical and
/// the loaded value must answer identically to the original.
#[test]
fn artifact_round_trip_is_byte_identical() {
    let publication = publish(&adult_table());
    let mut first = Vec::new();
    publication.save(&mut first).expect("serializable");
    let restored = Publication::load(&first[..]).expect("well-formed artifact");
    assert_eq!(publication, restored);
    let mut second = Vec::new();
    restored.save(&mut second).expect("serializable");
    assert_eq!(first, second, "save/load round trip must be byte-identical");

    // The restored release answers exactly like the original.
    let engine = QueryEngine::new(&publication);
    let engine2 = QueryEngine::new(&restored);
    let query = engine
        .query_from_values(&[("Gender", "Male"), ("Income", ">50K")])
        .expect("values exist");
    assert_eq!(
        engine.answer(&query).expect("fits"),
        engine2.answer(&query).expect("fits")
    );
}

/// The artifact file path helpers work against a real filesystem.
#[test]
fn artifact_survives_disk() {
    let publication = publish(&adult_table());
    let dir = std::env::temp_dir();
    let path = dir.join(format!("rp_publication_test_{}.rppub", std::process::id()));
    publication.save_to_path(&path).expect("writable temp dir");
    let restored = Publication::load_from_path(&path).expect("readable artifact");
    std::fs::remove_file(&path).ok();
    assert_eq!(publication, restored);
}

/// Determinism contract extends to the publication API: the same seed
/// produces the same artifact bytes.
#[test]
fn publication_is_a_pure_function_of_its_seed() {
    let table = adult_table();
    let a = publish(&table);
    let b = publish(&table);
    assert_eq!(a, b);
    let mut bytes_a = Vec::new();
    let mut bytes_b = Vec::new();
    a.save(&mut bytes_a).unwrap();
    b.save(&mut bytes_b).unwrap();
    assert_eq!(bytes_a, bytes_b);
}
