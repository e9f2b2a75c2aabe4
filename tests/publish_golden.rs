//! Golden bytes of the batch publish path: a seeded `Publisher` run must
//! save exactly the recorded artifact.
//!
//! `tests/stream_golden.rs` pins what a stream writes on top of a base
//! release; this suite pins the base releases themselves, so a change to
//! how SPS runs per group, how a `Publication` holds its groups or how it
//! saves them cannot move a published byte unnoticed. Each artifact's
//! length and 64-bit FNV-1a hash were recorded once and must not move
//! unless the artifact format or the seed contract is bumped on purpose.
//! On a mismatch the failure message prints the new values.
//!
//! The histogram-level executors the experiments run (`sps_groups`,
//! `up_histograms`, `suppress_and_perturb`) are pinned the same way, over
//! the bytes of their groups: each key's codes, then each count, then the
//! run's counters, little-endian.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_bench::{adult_fixture, census_fixture};
use rp_repro::core::alternatives::suppress_and_perturb;
use rp_repro::core::privacy::PrivacyParams;
use rp_repro::core::sps::{sps_groups, up_histograms, SpsConfig};
use rp_repro::engine::{Publication, Publisher};
use rp_repro::table::{Attribute, GroupHistograms, Schema, TableBuilder};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(length, FNV-1a)` of a publication's saved bytes.
fn fingerprint(p: &Publication) -> (usize, u64) {
    let mut bytes = Vec::new();
    p.save(&mut bytes).unwrap();
    (bytes.len(), fnv1a(&bytes))
}

/// The reduced CENSUS fixture, generalized, published with seed 7: the
/// release `tests/alloc_counts.rs` measures.
fn census_publication() -> Publication {
    let dataset = census_fixture();
    Publisher::new(dataset.generalized.clone())
        .sa(dataset.sa)
        .seed(7)
        .publish()
        .expect("generalized CENSUS publishes")
}

/// The base release of `tests/stream_golden.rs`: the SA in the middle of
/// the schema, and no record under the `law` keys.
fn stream_base_publication() -> Publication {
    let schema = Schema::new(vec![
        Attribute::new("Job", ["eng", "doc", "law"]),
        Attribute::new("Disease", ["flu", "hiv", "none"]),
        Attribute::new("City", ["rome", "oslo"]),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..300u32 {
        b.push_codes(&[i % 2, (i / 2) % 3, (i / 6) % 2]).unwrap();
    }
    Publisher::new(b.build()).sa(1).seed(41).publish().unwrap()
}

#[test]
fn published_release_bytes_are_pinned() {
    let got = [
        ("census", fingerprint(&census_publication())),
        ("stream base", fingerprint(&stream_base_publication())),
    ];
    let want = [
        ("census", (168_041, 0xb922_7e06_926d_2e40)),
        ("stream base", (239, 0xd498_60c1_7860_7eca)),
    ];
    assert_eq!(
        got,
        want,
        "published bytes moved: {}",
        got.map(|(what, (len, hash))| format!("{what} ({len}, 0x{hash:016x})"))
            .join(", ")
    );
}

/// Appends `values` to `bytes`, each as 8 little-endian bytes.
fn put(bytes: &mut Vec<u8>, values: impl IntoIterator<Item = u64>) {
    for value in values {
        bytes.extend_from_slice(&value.to_le_bytes());
    }
}

/// Each group's key codes, then its counts, as [`put`] writes them.
fn put_groups(bytes: &mut Vec<u8>, groups: &GroupHistograms) {
    for (key, hist) in groups.iter() {
        put(bytes, key.iter().map(|&c| u64::from(c)));
        put(bytes, hist.iter().copied());
    }
}

/// `(length, FNV-1a)` of `bytes`.
fn digest(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
}

/// The reduced ADULT fixture's 90 personal groups under `p = 0.5` and
/// `λ = δ = 0.3`: 29 of them exceed `sg`, so SPS samples them and the
/// suppression baseline drops them.
#[test]
fn histogram_level_executors_are_pinned() {
    let dataset = adult_fixture();
    let groups = &dataset.groups;
    let params = PrivacyParams::new(0.3, 0.3);
    let config = SpsConfig { p: 0.5, params };

    let mut sps_bytes = Vec::new();
    let (published, stats) = sps_groups(&mut StdRng::seed_from_u64(7), groups, config);
    put_groups(&mut sps_bytes, &published);
    put(
        &mut sps_bytes,
        [
            stats.groups as u64,
            stats.groups_sampled as u64,
            stats.input_records,
            stats.sampled_records,
            stats.output_records,
        ],
    );

    let mut up_bytes = Vec::new();
    put_groups(
        &mut up_bytes,
        &up_histograms(&mut StdRng::seed_from_u64(8), groups, 0.5),
    );

    let mut suppressed_bytes = Vec::new();
    let out = suppress_and_perturb(&mut StdRng::seed_from_u64(9), groups, 0.5, params);
    put_groups(&mut suppressed_bytes, &out.histograms);
    put(
        &mut suppressed_bytes,
        out.suppressed.iter().map(|&g| g as u64),
    );
    put(&mut suppressed_bytes, [out.suppressed_records]);

    assert!(stats.groups_sampled > 0, "the fixture samples no group");
    assert!(
        !out.suppressed.is_empty(),
        "the fixture suppresses no group"
    );
    let got = [
        ("sps_groups", digest(&sps_bytes)),
        ("up_histograms", digest(&up_bytes)),
        ("suppress_and_perturb", digest(&suppressed_bytes)),
    ];
    let want = [
        ("sps_groups", (4360, 0xb3f2_7926_c213_1782)),
        ("up_histograms", (4320, 0x02fa_3fb5_84b3_b0f4)),
        ("suppress_and_perturb", (4560, 0x1cab_27be_e4a2_33ff)),
    ];
    assert_eq!(
        got,
        want,
        "histogram-level output moved: {}",
        got.map(|(what, (len, hash))| format!("{what} ({len}, 0x{hash:016x})"))
            .join(", ")
    );
}
