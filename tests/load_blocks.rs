//! Block boundaries of `Publication::load`.
//!
//! `Publication::load` parses record rows a buffered block at a time and
//! sends every row the block parser does not take whole through the
//! per-row text path: a row in another accepted form, an invalid row, a
//! CRLF row, a last row with no `\n`, and a row cut by the end of the
//! reader's buffer. Where the buffer ends must therefore never show. Each
//! artifact here — valid or corrupted — is loaded through
//! `BufReader::with_capacity(k)` for several `k` and as an in-memory
//! slice (one block holding everything), and every load must give an
//! equal `Publication` or the same error text, line number included.
//! Capacity 1 never holds a whole row, so it runs the per-row path alone
//! and is the reference.
//!
//! The corrupted artifacts are those of `publication.rs`'s error tables,
//! rebuilt on the same fixtures, plus every prefix of each fixture and
//! random one-byte corruptions of random tables.

use std::io::BufReader;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_bench::census_fixture;
use rp_repro::core::incremental::{GroupStatus, LiveGroup};
use rp_repro::core::privacy::PrivacyParams;
use rp_repro::core::sps::SpsStats;
use rp_repro::engine::{DesignCheck, GroupState, LiveState, Publication, Publisher};
use rp_repro::table::{Attribute, Schema, TableBuilder};

/// Buffer capacities every artifact is loaded with, besides the
/// reference capacity 1, one random capacity and the in-memory slice.
const CAPACITIES: [usize; 5] = [2, 3, 7, 64, 8192];

/// Loads `bytes` through a reader with `capacity` bytes of buffer, or as
/// an in-memory slice for `None`; an error becomes its message.
fn load(bytes: &[u8], capacity: Option<usize>) -> Result<Publication, String> {
    match capacity {
        Some(k) => Publication::load(BufReader::with_capacity(k, bytes)),
        None => Publication::load(bytes),
    }
    .map_err(|e| e.to_string())
}

/// Loads `bytes` with every capacity and checks each load against the
/// capacity-1 reference, which it returns.
fn load_everywhere(what: &str, bytes: &[u8], rng: &mut StdRng) -> Result<Publication, String> {
    let reference = load(bytes, Some(1));
    let random = rng.gen_range(2..300);
    for capacity in CAPACITIES
        .into_iter()
        .chain([random])
        .map(Some)
        .chain([None])
    {
        assert_eq!(
            load(bytes, capacity),
            reference,
            "{what}: capacity {capacity:?} differs from capacity 1"
        );
    }
    reference
}

fn save(p: &Publication) -> Vec<u8> {
    let mut bytes = Vec::new();
    p.save(&mut bytes).unwrap();
    bytes
}

fn demo_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("Gender", ["male", "female"]),
        Attribute::new("Disease", ["flu", "hiv", "none"]),
    ])
}

/// The 50-row v1 fixture of `publication.rs`'s tests.
fn demo_v1() -> Publication {
    let mut b = TableBuilder::new(demo_schema());
    for i in 0..50u32 {
        b.push_codes(&[i % 2, i % 3]).unwrap();
    }
    Publication::from_parts(
        b.build(),
        1,
        0.5,
        PrivacyParams::new(0.3, 0.3),
        42,
        SpsStats {
            groups: 2,
            groups_sampled: 1,
            input_records: 50,
            sampled_records: 20,
            output_records: 50,
        },
        DesignCheck {
            total_groups: 2,
            violating_groups: 1,
            total_records: 50,
            violating_records: 30,
        },
    )
}

/// The v2 fixture of `publication.rs`'s tests: the 50 base rows plus two
/// live groups materialized as 5 extra rows.
fn demo_v2() -> Publication {
    let mut b = TableBuilder::new(demo_schema());
    for i in 0..50u32 {
        b.push_codes(&[i % 2, i % 3]).unwrap();
    }
    for codes in [[0, 0], [0, 0], [0, 2], [1, 1], [1, 1]] {
        b.push_codes(&codes).unwrap();
    }
    let group =
        |key: u32, raw_hist, published_hist, status, republished_len, rng_state| GroupState {
            group: LiveGroup {
                key: vec![key],
                raw_hist,
                published_hist,
                status,
                republished_len,
            },
            rng_state,
        };
    let live = LiveState {
        base_rows: 50,
        wal_seq: 7,
        inserted: 5,
        republished: 1,
        groups: vec![
            group(
                0,
                vec![1, 1, 1],
                vec![2, 0, 1],
                GroupStatus::Compliant,
                3,
                0xDEAD_BEEF,
            ),
            group(
                1,
                vec![0, 2, 0],
                vec![0, 2, 0],
                GroupStatus::NeedsResampling,
                0,
                42,
            ),
        ],
    };
    Publication::from_parts(
        b.build(),
        1,
        0.5,
        PrivacyParams::new(0.3, 0.3),
        42,
        SpsStats::default(),
        DesignCheck::default(),
    )
    .with_live(live)
}

/// `saved` with the record on row `row` (line `13 + row`) replaced by
/// `bytes` and the `rows` header set to `rows`.
fn with_row(saved: &[u8], row: usize, bytes: &[u8], rows: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, line) in saved.split_inclusive(|&b| b == b'\n').enumerate() {
        match i {
            11 => out.extend_from_slice(format!("rows\t{rows}\n").as_bytes()),
            i if i == 12 + row => {
                out.extend_from_slice(bytes);
                out.push(b'\n');
            }
            _ => out.extend_from_slice(line),
        }
    }
    out
}

/// `text` with `needle` replaced, which it must contain.
fn replaced(text: &str, needle: &str, replacement: &str) -> Vec<u8> {
    assert!(text.contains(needle), "fixture must contain `{needle}`");
    text.replace(needle, replacement).into_bytes()
}

/// The valid artifacts: v1, v2 with a live section, CRLF and `\r\r\n`
/// ends, `+` and leading-zero rows, and a last row with no `\n`. Each
/// comes with the publication it must load as.
fn valid_artifacts() -> Vec<(String, Vec<u8>, Publication)> {
    let (v1, v2) = (demo_v1(), demo_v2());
    let (v1_bytes, v2_bytes) = (save(&v1), save(&v2));
    let v1_text = String::from_utf8(v1_bytes.clone()).unwrap();
    let v2_text = String::from_utf8(v2_bytes.clone()).unwrap();
    let mut out = vec![
        ("v1".to_string(), v1_bytes.clone(), v1.clone()),
        ("v2".to_string(), v2_bytes.clone(), v2.clone()),
    ];
    for (name, text, p) in [("v1", &v1_text, &v1), ("v2", &v2_text, &v2)] {
        out.push((
            format!("{name} crlf"),
            text.replace('\n', "\r\n").into_bytes(),
            p.clone(),
        ));
        out.push((
            format!("{name} cr runs"),
            text.replace('\n', "\r\r\n").into_bytes(),
            p.clone(),
        ));
    }
    for (name, row) in [
        ("plus", &b"+1\t+0"[..]),
        ("zeros", b"0001\t000"),
        ("long zeros", b"0000000001\t0000000000000"),
    ] {
        out.push((
            name.to_string(),
            with_row(&v1_bytes, 3, row, 50),
            v1.clone(),
        ));
        out.push((
            format!("v2 {name}"),
            with_row(&v2_bytes, 3, row, 55),
            v2.clone(),
        ));
    }
    out.push((
        "unterminated".to_string(),
        v1_bytes[..v1_bytes.len() - 1].to_vec(),
        v1,
    ));
    out
}

/// The corrupted artifacts of `publication.rs`'s error tables.
fn corrupted_artifacts() -> Vec<(String, Vec<u8>)> {
    let v1_bytes = save(&demo_v1());
    let v1 = String::from_utf8(v1_bytes.clone()).unwrap();
    let v2 = String::from_utf8(save(&demo_v2())).unwrap();
    let mut out = vec![
        ("bad magic".to_string(), b"not a publication\n".to_vec()),
        (
            "truncation".to_string(),
            v1_bytes[..v1_bytes.len() - 10].to_vec(),
        ),
    ];
    for (needle, replacement) in [
        ("lambda\t0.3\n", "lambda\t0\n"),
        ("delta\t0.3\n", "delta\t2\n"),
        ("attrs\t2\n", "attrs\t99999999999999999\n"),
        ("attr\tDisease\tflu\thiv\tnone\n", "attr\tDisease\tflu\n"),
        ("rows\t50\n", "rows\t49\n"),
        ("rows\t50\n", &format!("rows\t{}\n", u64::MAX)),
        ("\n0\t0\n", "\n0\t9\n"),
    ] {
        out.push((
            format!("v1 {needle:?} -> {replacement:?}"),
            replaced(&v1, needle, replacement),
        ));
    }
    for (row, bytes, rows) in [
        (3, &b"1\tx"[..], 50),
        (3, b"1\t", 50),
        (3, b"", 50),
        (4, b"4294967296\t0", 50),
        (4, b"-1\t0", 50),
        (4, b"+\t0", 50),
        (4, b"++1\t0", 50),
        (4, b" 1\t0", 50),
        (4, b"1\r\t0", 50),
        (5, b"0\t9", 50),
        (5, b"7\tx", 50),
        (5, b"2\t0", 50),
        (6, b"1\t\xff", 50),
        (6, b"x\t\xff", 50),
        (7, b"1", 50),
        (7, b"1\t0\t0", 50),
        (7, b"1\t0\t9\t9", 50),
        (7, b"1\t0\tz", 50),
        (0, b"0\t0", 49),
        (0, b"0\t0", 51),
    ] {
        out.push((
            format!("row {row} = {:?}, rows {rows}", bytes.escape_ascii()),
            with_row(&v1_bytes, row, bytes, rows),
        ));
    }
    for (needle, replacement) in [
        ("\t2\t0\t1\t3735928559", "\t9\t0\t1\t3735928559"),
        ("\t3735928559\tc\t3", "\t3735928559\tz\t3"),
        ("live\t2\t50\t7", "live\t2\t5000\t7"),
        ("lgroup\t1\t0\t2\t0", "lgroup\t7\t0\t2\t0"),
        ("live\t2\t50\t7", "live\t3\t50\t7"),
        ("rows\t55\n", "rows\t54\n"),
        ("rows\t55\n", "rows\t56\n"),
    ] {
        out.push((
            format!("v2 {needle:?} -> {replacement:?}"),
            replaced(&v2, needle, replacement),
        ));
    }
    let g0 = v2.lines().find(|l| l.starts_with("lgroup\t0")).unwrap();
    let g1 = v2.lines().find(|l| l.starts_with("lgroup\t1")).unwrap();
    let swapped = v2
        .replace(g0, "PLACEHOLDER")
        .replace(g1, g0)
        .replace("PLACEHOLDER", g1);
    out.push(("v2 swapped groups".to_string(), swapped.into_bytes()));
    out
}

#[test]
fn valid_artifacts_load_equal_whatever_the_buffer() {
    let mut rng = StdRng::seed_from_u64(1);
    for (what, bytes, want) in valid_artifacts() {
        let loaded = load_everywhere(&what, &bytes, &mut rng);
        assert_eq!(loaded.as_ref(), Ok(&want), "{what}");
    }
}

#[test]
fn corrupted_artifacts_fail_alike_whatever_the_buffer() {
    let mut rng = StdRng::seed_from_u64(2);
    for (what, bytes) in corrupted_artifacts() {
        let loaded = load_everywhere(&what, &bytes, &mut rng);
        assert!(loaded.is_err(), "{what} loaded");
    }
}

/// Every prefix of each valid artifact: a cut inside a row, at a row's
/// end and inside the header or live section.
#[test]
fn every_prefix_loads_alike_whatever_the_buffer() {
    let mut rng = StdRng::seed_from_u64(3);
    for (what, bytes, _) in valid_artifacts().into_iter().take(2) {
        for cut in 0..bytes.len() {
            let _ = load_everywhere(&format!("{what} cut at {cut}"), &bytes[..cut], &mut rng);
        }
    }
}

/// The reduced CENSUS release saved to a file loads from its path, as
/// `rpctl serve` opens it, through dozens of buffer ends, as it loads
/// from memory.
#[test]
fn a_release_loads_from_its_path_as_from_memory() {
    let dataset = census_fixture();
    let publication = Publisher::new(dataset.generalized.clone())
        .sa(dataset.sa)
        .seed(7)
        .publish()
        .expect("generalized CENSUS publishes");
    let path = std::env::temp_dir().join(format!("rp-load-blocks-{}.rppub", std::process::id()));
    publication.save_to_path(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.len() > 32 * 8192, "{} bytes", bytes.len());
    let from_path = Publication::load_from_path(&path);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(from_path.unwrap(), publication);
    assert_eq!(load(&bytes, None), Ok(publication));
}

/// A random table over one- to three-digit domains, so rows differ in
/// length and blocks end at every offset within a row. (The schema
/// section spells every domain value, so larger domains only lengthen
/// the header.)
fn random_artifact(rng: &mut StdRng) -> Vec<u8> {
    let arity = rng.gen_range(2..6usize);
    let domains: Vec<usize> = (0..arity)
        .map(|_| match rng.gen_range(0..3) {
            0 => rng.gen_range(2..10),
            1 => rng.gen_range(10..100),
            _ => rng.gen_range(100..400),
        })
        .collect();
    let schema = Schema::new(
        domains
            .iter()
            .enumerate()
            .map(|(i, &d)| Attribute::with_anonymous_domain(format!("A{i}"), d))
            .collect(),
    );
    let mut b = TableBuilder::new(schema);
    for _ in 0..rng.gen_range(0..300) {
        let codes: Vec<u32> = domains
            .iter()
            .map(|&d| rng.gen_range(0..d) as u32)
            .collect();
        b.push_codes(&codes).unwrap();
    }
    let sa = rng.gen_range(0..arity);
    save(&Publication::from_parts(
        b.build(),
        sa,
        0.5,
        PrivacyParams::new(0.3, 0.3),
        rng.gen(),
        SpsStats::default(),
        DesignCheck::default(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A random table loads alike with every buffer, and so does each of
    /// a few one-byte corruptions of its record rows: a digit, a sign, a
    /// tab, a `\r`, a `\n`, a letter or a byte that is not UTF-8.
    #[test]
    fn random_tables_and_corruptions_load_alike(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = random_artifact(&mut rng);
        let loaded = load_everywhere("random table", &bytes, &mut rng);
        prop_assert!(loaded.is_ok(), "{loaded:?}");
        let rows_start = bytes
            .windows(5)
            .position(|w| w == b"rows\t")
            .expect("a rows header");
        for _ in 0..8 {
            let mut broken = bytes.clone();
            let at = rng.gen_range(rows_start..broken.len());
            broken[at] = b"05+\t\r\nx\xff"[rng.gen_range(0..8usize)];
            let what = format!("byte {at} = {:#04x}", broken[at]);
            let _ = load_everywhere(&what, &broken, &mut rng);
        }
    }
}
