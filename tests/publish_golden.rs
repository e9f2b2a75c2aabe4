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

use rp_bench::census_fixture;
use rp_repro::engine::{Publication, Publisher};
use rp_repro::table::{Attribute, Schema, TableBuilder};

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
