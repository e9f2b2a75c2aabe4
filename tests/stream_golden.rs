//! Golden bytes of the streaming path: a fixed, seeded insert sequence
//! must produce exactly the recorded snapshot, WAL and compacted WAL.
//!
//! The other stream suites compare a run with its own replay, so a change
//! in the order of RNG draws (or in either codec) would still pass them.
//! This suite pins the bytes themselves: each artifact's length and
//! 64-bit FNV-1a hash were recorded once and must not move unless the
//! stream format or seed contract is bumped on purpose. On a mismatch the
//! failure message prints the new values.

use std::path::PathBuf;

use rp_repro::engine::stream::wal::compact_wal;
use rp_repro::engine::{Publication, Publisher, StreamConfig, StreamPublisher};
use rp_repro::table::{Attribute, Schema, TableBuilder};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rp-stream-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A base release with the SA in the middle of the schema (so group keys
/// skip a position) that leaves the `law` keys empty, so live inserts
/// open groups the base does not have.
fn base_publication() -> Publication {
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

/// The fixed insert sequence: every fourth record lands in one hot,
/// skewed group (re-published more than once); the rest walk every key
/// from a multiplicative hash of the index.
fn record(i: u32) -> [u32; 3] {
    if i.is_multiple_of(4) {
        [2, u32::from(i.is_multiple_of(40)), 1]
    } else {
        let x = i.wrapping_mul(2_654_435_761) >> 7;
        [x % 3, (x / 3) % 3, (x / 9) % 2]
    }
}

fn save_bytes(p: &Publication) -> Vec<u8> {
    let mut bytes = Vec::new();
    p.save(&mut bytes).unwrap();
    bytes
}

/// `(length, FNV-1a)` of an artifact's bytes.
fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
}

#[test]
fn stream_snapshot_wal_and_compaction_bytes_are_pinned() {
    let wal = tmp("golden.rpwal");
    let mut stream =
        StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
    for i in 0..2_400u32 {
        stream.insert_codes(&record(i)).unwrap();
    }
    stream.flush().unwrap();
    assert!(
        stream.republished() >= 2,
        "the fixture must re-publish, got {}",
        stream.republished()
    );
    assert!(
        stream.novel_live_groups() > 0,
        "the fixture must open new groups"
    );
    let snapshot = save_bytes(&stream.snapshot());
    drop(stream);
    let wal_bytes = std::fs::read(&wal).unwrap();

    let compacted = tmp("golden-compacted.rpwal");
    let stats = compact_wal(&wal, &compacted).unwrap();
    assert!(stats.absorbed > 0, "compaction must absorb events");
    let compacted_bytes = std::fs::read(&compacted).unwrap();
    // The compacted log replays to the live run's bytes.
    let replayed =
        StreamPublisher::replay(base_publication(), &compacted, StreamConfig::default()).unwrap();
    assert_eq!(save_bytes(&replayed.snapshot()), snapshot);

    let got = [
        ("snapshot", fingerprint(&snapshot)),
        ("wal", fingerprint(&wal_bytes)),
        ("compacted wal", fingerprint(&compacted_bytes)),
    ];
    let want = [
        ("snapshot", (615, 0x8625_5c22_9b0c_e947)),
        ("wal", (30_323, 0x8faf_e012_ffaa_7272)),
        ("compacted wal", (19_247, 0xb46e_a8ec_c63c_4690)),
    ];
    assert_eq!(
        got,
        want,
        "stream bytes moved: {}",
        got.map(|(what, (len, hash))| format!("{what} ({len}, 0x{hash:016x})"))
            .join(", ")
    );
}
