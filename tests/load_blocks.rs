//! Buffer boundaries of the two ways to read a saved release.
//!
//! A release is saved as one line per personal group: its key codes,
//! then its published SA counts. `Publication::load` reads those lines
//! into the publication's group buffers; `QueryEngine::open`, the serving
//! open, is that load followed by `QueryEngine::new`. Neither builds a
//! table. Where the reader's buffer ends must never show. Each artifact
//! here — valid or corrupted — is read both ways through
//! `BufReader::with_capacity(k)` for several `k` and as an in-memory slice
//! (one buffer holding everything), and every load must give an equal
//! `Publication` or the same error text, line number included, and every
//! open an engine equal to `QueryEngine::new` over that publication or
//! that same error. Capacity 1 is the reference.
//!
//! The corrupted artifacts are those of `publication.rs`'s error tables,
//! rebuilt on the same fixtures — among them each way a group line can be
//! wrong: a key code out of its domain, a key repeated or out of order, a
//! wrong field count, an all-zero histogram, counts that overflow `u64` or
//! do not sum to `rows`, a declared group count larger than the lines
//! present, and the retired v1 and v2 magics — plus every prefix of each
//! fixture and random one-byte corruptions of random tables. The valid
//! ones add CRLF and unterminated forms and a key space too large to
//! address directly. A consistent artifact that declares more rows than
//! memory holds must open and answer everywhere: nothing on an untrusted
//! path allocates per declared row.

use std::io::BufReader;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_bench::census_fixture;
use rp_repro::core::incremental::{GroupStatus, LiveGroup};
use rp_repro::core::privacy::PrivacyParams;
use rp_repro::core::sps::SpsStats;
use rp_repro::engine::{
    DesignCheck, GroupState, LiveState, Publication, Publisher, QueryEngine, QueryService,
    ServiceConfig, StreamConfig, StreamPublisher,
};
use rp_repro::table::{group_histograms, Attribute, Schema, TableBuilder};

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

/// Opens `bytes` as `rpctl serve` does, through the serving open, with
/// `capacity` bytes of buffer as [`load`].
fn open(bytes: &[u8], capacity: Option<usize>) -> Result<QueryEngine, String> {
    match capacity {
        Some(k) => QueryEngine::open(BufReader::with_capacity(k, bytes)),
        None => QueryEngine::open(bytes),
    }
    .map_err(|e| e.to_string())
}

/// Loads and opens `bytes` with every capacity and checks each load
/// against the capacity-1 reference, which it returns, and each open
/// against the engine built from the reference (or its error).
fn load_everywhere(what: &str, bytes: &[u8], rng: &mut StdRng) -> Result<Publication, String> {
    let reference = load(bytes, Some(1));
    let engine = reference
        .as_ref()
        .map(QueryEngine::new)
        .map_err(Clone::clone);
    let random = rng.gen_range(2..300);
    for capacity in [Some(1)]
        .into_iter()
        .chain(CAPACITIES.into_iter().chain([random]).map(Some))
        .chain([None])
    {
        assert_eq!(
            load(bytes, capacity),
            reference,
            "{what}: capacity {capacity:?} differs from capacity 1"
        );
        assert_eq!(
            open(bytes, capacity),
            engine,
            "{what}: the serving open at capacity {capacity:?} differs from load"
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

/// A publication of the personal groups of `rows` over `schema`, with SA
/// `sa`.
fn publication_of(schema: Schema, sa: usize, rows: Vec<Vec<u32>>) -> Publication {
    let mut b = TableBuilder::new(schema.clone());
    for row in &rows {
        b.push_codes(row).unwrap();
    }
    let na: Vec<usize> = (0..schema.arity()).filter(|&a| a != sa).collect();
    Publication::from_parts(
        schema,
        group_histograms(&b.build(), &na, sa),
        sa,
        0.5,
        PrivacyParams::new(0.3, 0.3),
        9,
        SpsStats::default(),
        DesignCheck::default(),
    )
}

/// The 50-row batch fixture of `publication.rs`'s tests. Its group lines
/// are lines 14 and 15: `0\t9\t8\t8` and `1\t8\t9\t8`.
fn demo_batch() -> Publication {
    let rows = (0..50u32).map(|i| vec![i % 2, i % 3]).collect();
    let p = publication_of(demo_schema(), 1, rows);
    Publication::from_parts(
        demo_schema(),
        p.groups().clone(),
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

/// The snapshot fixture of `publication.rs`'s tests: the 50 base records
/// plus two live groups holding 5.
fn demo_snapshot() -> Publication {
    let base = demo_batch();
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
        demo_schema(),
        base.groups().clone(),
        1,
        0.5,
        PrivacyParams::new(0.3, 0.3),
        42,
        SpsStats::default(),
        DesignCheck::default(),
    )
    .with_live(live)
}

/// `saved` with each 1-based line `n` of `edits` replaced by its bytes.
fn with_lines(saved: &[u8], edits: &[(usize, &[u8])]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, line) in saved.split_inclusive(|&b| b == b'\n').enumerate() {
        match edits.iter().find(|&&(n, _)| n == i + 1) {
            Some(&(_, edit)) => {
                out.extend_from_slice(edit);
                out.push(b'\n');
            }
            None => out.extend_from_slice(line),
        }
    }
    out
}

/// `text` with `needle` replaced, which it must contain.
fn replaced(text: &str, needle: &str, replacement: &str) -> Vec<u8> {
    assert!(text.contains(needle), "fixture must contain `{needle}`");
    text.replace(needle, replacement).into_bytes()
}

/// The valid artifacts: a batch release, a snapshot with a live section,
/// CRLF and `\r\r\n` ends, a last line with no `\n`, and a key space of
/// 300³ keys, too large to address directly. Each comes with the
/// publication it must load as.
fn valid_artifacts() -> Vec<(String, Vec<u8>, Publication)> {
    let (batch, snapshot) = (demo_batch(), demo_snapshot());
    let (batch_bytes, snapshot_bytes) = (save(&batch), save(&snapshot));
    let batch_text = String::from_utf8(batch_bytes.clone()).unwrap();
    let snapshot_text = String::from_utf8(snapshot_bytes.clone()).unwrap();
    let mut out = vec![
        ("batch".to_string(), batch_bytes.clone(), batch.clone()),
        ("snapshot".to_string(), snapshot_bytes, snapshot.clone()),
    ];
    for (name, text, p) in [
        ("batch", &batch_text, &batch),
        ("snapshot", &snapshot_text, &snapshot),
    ] {
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
    out.push((
        "unterminated".to_string(),
        batch_bytes[..batch_bytes.len() - 1].to_vec(),
        batch,
    ));
    let sparse_rows: Vec<Vec<u32>> = (0..120u32)
        .map(|i| {
            let g = i / 7;
            vec![(g * 37) % 300, 299 - g, (g * g) % 300, i % 3]
        })
        .collect();
    let schema = Schema::new(
        [300, 300, 300, 3]
            .iter()
            .enumerate()
            .map(|(i, &d)| Attribute::with_anonymous_domain(format!("W{i}"), d))
            .collect(),
    );
    let sparse = publication_of(schema, 3, sparse_rows);
    out.push(("sparse key space".to_string(), save(&sparse), sparse));
    out
}

/// The corrupted artifacts of `publication.rs`'s error tables.
fn corrupted_artifacts() -> Vec<(String, Vec<u8>)> {
    let batch_bytes = save(&demo_batch());
    let batch = String::from_utf8(batch_bytes.clone()).unwrap();
    let snapshot = String::from_utf8(save(&demo_snapshot())).unwrap();
    let mut out = vec![
        ("bad magic".to_string(), b"not a publication\n".to_vec()),
        (
            "truncation".to_string(),
            batch_bytes[..batch_bytes.len() - 10].to_vec(),
        ),
    ];
    for (needle, replacement) in [
        ("rp-publication v3\n", "rp-publication v1\n"),
        ("rp-publication v3\n", "rp-publication v2\n"),
        ("lambda\t0.3\n", "lambda\t0\n"),
        ("delta\t0.3\n", "delta\t2\n"),
        ("attrs\t2\n", "attrs\t99999999999999999\n"),
        ("attr\tDisease\tflu\thiv\tnone\n", "attr\tDisease\tflu\n"),
        ("rows\t50\n", "rows\t49\n"),
        ("rows\t50\n", &format!("rows\t{}\n", u64::MAX)),
        ("groups\t2\n", "groups\t3\n"),
        ("groups\t2\n", "groups\t1\n"),
        ("groups\t2\n", &format!("groups\t{}\n", u64::MAX)),
    ] {
        out.push((
            format!("batch {needle:?} -> {replacement:?}"),
            replaced(&batch, needle, replacement),
        ));
    }
    let max = u64::MAX;
    let overflow = format!("0\t{max}\t1\t0");
    let at_max = format!("0\t{max}\t0\t0");
    for edits in [
        // A key code out of its domain, or not a code.
        vec![(14, &b"2\t9\t8\t8"[..])],
        vec![(14, b"x\t9\t8\t8")],
        vec![(14, b"4294967296\t9\t8\t8")],
        // A key repeated, or out of order.
        vec![(15, b"0\t8\t9\t8")],
        vec![(14, b"1\t9\t8\t8"), (15, b"0\t8\t9\t8")],
        // A wrong field count.
        vec![(14, b"0\t9\t8")],
        vec![(14, b"0\t9\t8\t8\t")],
        vec![(14, b"")],
        // An all-zero histogram.
        vec![(14, b"0\t0\t0\t0")],
        // Counts that overflow `u64`, in one line and across two.
        vec![(14, overflow.as_bytes())],
        vec![(14, at_max.as_bytes()), (15, b"1\t1\t0\t0")],
        // Counts that do not sum to `rows`.
        vec![(14, b"0\t9\t8\t7")],
        vec![(15, b"1\t8\t9\t9")],
        // A count that is not a number, or not UTF-8.
        vec![(14, b"0\tx\t8\t8")],
        vec![(14, b"0\t-9\t8\t8")],
        vec![(15, b"1\t8\t9\t\xff")],
    ] {
        out.push((
            format!("batch lines {edits:?}"),
            with_lines(&batch_bytes, &edits),
        ));
    }
    for (needle, replacement) in [
        ("\t2\t0\t1\t3735928559", "\t9\t0\t1\t3735928559"),
        ("\t3735928559\tc\t3", "\t3735928559\tz\t3"),
        ("live\t2\t50\t7", "live\t2\t5000\t7"),
        ("live\t2\t50\t7", "live\t2\t49\t7"),
        ("lgroup\t1\t0\t2\t0", "lgroup\t7\t0\t2\t0"),
        ("live\t2\t50\t7", "live\t3\t50\t7"),
        ("rows\t55\n", "rows\t54\n"),
        ("rows\t55\n", "rows\t56\n"),
        ("1\t8\t9\t8\nlive", "1\t8\t9\t7\nlive"),
    ] {
        out.push((
            format!("snapshot {needle:?} -> {replacement:?}"),
            replaced(&snapshot, needle, replacement),
        ));
    }
    let g0 = snapshot
        .lines()
        .find(|l| l.starts_with("lgroup\t0"))
        .unwrap();
    let g1 = snapshot
        .lines()
        .find(|l| l.starts_with("lgroup\t1"))
        .unwrap();
    let swapped = snapshot
        .replace(g0, "PLACEHOLDER")
        .replace(g1, g0)
        .replace("PLACEHOLDER", g1);
    out.push(("snapshot swapped groups".to_string(), swapped.into_bytes()));
    let mut trailing = snapshot.into_bytes();
    trailing.extend_from_slice(b"lgroup\n");
    out.push(("snapshot trailing line".to_string(), trailing));
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

/// Every prefix of the batch and snapshot artifacts: a cut inside a group
/// line, at a line's end and inside the header or live section.
#[test]
fn every_prefix_loads_alike_whatever_the_buffer() {
    let mut rng = StdRng::seed_from_u64(3);
    for (what, bytes, _) in valid_artifacts().into_iter().take(2) {
        for cut in 0..bytes.len() {
            let _ = load_everywhere(&format!("{what} cut at {cut}"), &bytes[..cut], &mut rng);
        }
    }
}

/// A short artifact whose one group line holds as many records as `rows`
/// declares, far more than memory holds. Nothing that opens an untrusted
/// artifact allocates per declared record, so at every buffer capacity it
/// loads and opens, and answers a query over all of them; a stream opens
/// on it, takes an insert and saves a snapshot that loads and answers
/// too.
#[test]
fn a_huge_consistent_row_count_opens_and_answers_everywhere() {
    let rows = u64::MAX / 2;
    let text = String::from_utf8(save(&demo_batch())).unwrap();
    let groups = "rows\t50\ngroups\t2\n0\t9\t8\t8\n1\t8\t9\t8\n";
    let huge = text.replace(
        groups,
        &format!("rows\t{rows}\ngroups\t1\n0\t{rows}\t0\t0\n"),
    );
    assert_ne!(huge, text, "fixture must end with its group lines");
    let male_flu = [("Gender", "male"), ("Disease", "flu")];
    let support = |engine: &QueryEngine| {
        let query = engine.query_from_values(&male_flu).unwrap();
        engine.answer(&query).unwrap().support
    };
    for capacity in [Some(1)]
        .into_iter()
        .chain(CAPACITIES.map(Some))
        .chain([None])
    {
        let loaded = load(huge.as_bytes(), capacity).unwrap();
        assert_eq!(loaded.records(), rows, "{capacity:?}");
        assert_eq!(support(&QueryEngine::new(&loaded)), rows, "{capacity:?}");
        assert_eq!(support(&open(huge.as_bytes(), capacity).unwrap()), rows);
    }
    let dir = std::env::temp_dir().join(format!("rp-load-blocks-huge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (wal, state) = (dir.join("huge.rpwal"), dir.join("huge-state.rppub"));
    let _ = std::fs::remove_file(&wal);
    let base = load(huge.as_bytes(), None).unwrap();
    let mut stream = StreamPublisher::open(base, &wal, StreamConfig::default()).unwrap();
    stream.insert_values(&male_flu).unwrap();
    stream.save_snapshot(&state).unwrap();
    drop(stream);
    let snapshot = Publication::load_from_path(&state);
    std::fs::remove_dir_all(&dir).unwrap();
    let snapshot = snapshot.unwrap();
    assert_eq!(snapshot.records(), rows + 1);
    let live = support(&QueryEngine::new(&snapshot));
    assert!((rows..=rows + 1).contains(&live), "{live}");
}

/// The reduced CENSUS release saved to a file loads from its path, and
/// opens from it as `rpctl serve` opens it, through dozens of buffer
/// ends, as it loads and opens from memory.
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
    assert!(bytes.len() > 16 * 8192, "{} bytes", bytes.len());
    let from_path = Publication::load_from_path(&path);
    let served = std::fs::File::open(&path)
        .map(|file| QueryService::open(BufReader::new(file), ServiceConfig::default()));
    std::fs::remove_file(&path).unwrap();
    let engine = QueryEngine::new(&publication);
    assert_eq!(from_path.unwrap(), publication);
    assert_eq!(served.unwrap().unwrap().engine(), &engine);
    assert_eq!(open(&bytes, None), Ok(engine));
    assert_eq!(load(&bytes, None), Ok(publication));
}

/// A random table over one- to three-digit domains, so group lines differ
/// in length and buffers end at every offset within a line. (The schema
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
    let rows: Vec<Vec<u32>> = (0..rng.gen_range(0..300))
        .map(|_| {
            domains
                .iter()
                .map(|&d| rng.gen_range(0..d) as u32)
                .collect()
        })
        .collect();
    let sa = rng.gen_range(0..arity);
    save(&publication_of(schema, sa, rows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A random table loads alike with every buffer, and so does each of
    /// a few one-byte corruptions of its counts and group lines: a digit,
    /// a sign, a tab, a `\r`, a `\n`, a letter or a byte that is not
    /// UTF-8.
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
