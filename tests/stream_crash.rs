//! Crash-torture for the storage layer: cut the durable artifacts at
//! sampled byte offsets and prove that recovery lands exactly on the
//! durable prefix — or refuses loudly — but never invents state, never
//! returns a silently wrong artifact, and never clobbers a predecessor.
//!
//! Two artifacts, two contracts:
//!
//! * **WAL** — a torn final line is discarded on open (the write that
//!   never completed) and the stream recovers to the longest complete
//!   event prefix, byte-identically to a run that only saw those events;
//!   a cut inside the header is a structured error, not a guess.
//! * **Snapshot** — replacement is atomic (temp sibling + rename), so a
//!   crashed writer leaves the *old* snapshot fully intact; a truncated
//!   artifact never loads as a shorter-but-valid one (the header's
//!   `rows` and `groups` counts and the `live` line's group count are
//!   declared before the data they promise).
//! * **Live section** — a snapshot whose live section claims to cover no
//!   event yet lists groups is refused, never merged with a compacted
//!   log's state records.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use rp_repro::engine::{Publication, Publisher, StreamConfig, StreamPublisher};
use rp_repro::table::{Attribute, Schema, TableBuilder};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rp-stream-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// A small base release over a 3-attribute schema (SA = Disease).
fn base_publication() -> Publication {
    let schema = Schema::new(vec![
        Attribute::new("Job", ["eng", "doc", "law"]),
        Attribute::new("City", ["rome", "oslo"]),
        Attribute::new("Disease", ["flu", "hiv", "none"]),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..600u32 {
        b.push_codes(&[i % 3, (i / 3) % 2, (i / 6) % 3]).unwrap();
    }
    Publisher::new(b.build()).sa(2).seed(23).publish().unwrap()
}

fn save_bytes(p: &Publication) -> Vec<u8> {
    let mut bytes = Vec::new();
    p.save(&mut bytes).unwrap();
    bytes
}

/// Deterministic skewed records: group (1,1) hot enough to re-publish.
fn record(i: u32) -> Vec<u32> {
    if i % 3 != 2 {
        vec![1, 1, u32::from(i.is_multiple_of(10))]
    } else {
        vec![i % 3, (i / 3) % 2, (i / 6) % 3]
    }
}

/// Byte offset where the WAL's event section starts, and the end offset
/// of every complete event line (both derived purely from the grammar:
/// events are the lines tagged `i` or `r`).
fn event_boundaries(bytes: &[u8]) -> (usize, Vec<usize>) {
    let mut offset = 0;
    let mut header_end = None;
    let mut ends = Vec::new();
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let is_event = line.starts_with(b"i\t") || line.starts_with(b"r\t");
        offset += line.len();
        if is_event {
            header_end.get_or_insert(offset - line.len());
            if line.ends_with(b"\n") {
                ends.push(offset);
            }
        }
    }
    (header_end.expect("log has events"), ends)
}

#[test]
fn wal_truncation_recovers_the_durable_prefix_exactly() {
    // Reference run, snapshotting after every insert call: the oracle
    // maps each WAL cursor to the exact bytes a recovery must produce.
    let wal_ref = tmp("torture-ref.rpwal");
    let mut oracle: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut live =
        StreamPublisher::open(base_publication(), &wal_ref, StreamConfig::default()).unwrap();
    oracle.insert(0, save_bytes(&live.snapshot()));
    for i in 0..120u32 {
        live.insert_codes(&record(i)).unwrap();
        oracle.insert(live.wal_seq(), save_bytes(&live.snapshot()));
    }
    live.flush().unwrap();
    drop(live);
    let full = std::fs::read(&wal_ref).unwrap();
    let (header_end, event_ends) = event_boundaries(&full);

    // Sample cut points across the whole file, plus both edges of every
    // region that matters (header boundary, last byte, full length).
    let mut cuts: Vec<usize> = (0..full.len()).step_by(41).collect();
    cuts.extend([header_end - 1, header_end, full.len() - 1, full.len()]);
    for (case, &cut) in cuts.iter().enumerate() {
        let path = tmp(&format!("torture-{case}.rpwal"));
        std::fs::write(&path, &full[..cut]).unwrap();
        let result = StreamPublisher::open(base_publication(), &path, StreamConfig::default());
        let durable = event_ends.iter().filter(|&&e| e <= cut).count() as u64;
        let recovered = match result {
            Err(err) => {
                // Refusal is only legitimate while the header itself is
                // incomplete: past it there is always a well-defined
                // durable prefix to recover to.
                assert!(cut < header_end, "cut at byte {cut} must recover: {err}");
                assert!(!err.to_string().is_empty(), "errors carry a message");
                continue;
            }
            // An open below the header boundary can only mean the cut
            // lost nothing but the header's final newline — all content
            // present, zero events, normal recovery from here on.
            Ok(recovered) => recovered,
        };
        // The durable prefix is the complete event lines before the cut;
        // the torn tail (if any) must be discarded — including from the
        // file itself, so the next append continues a well-formed log.
        assert_eq!(recovered.wal_seq(), durable, "cut at byte {cut}");
        let boundary = event_ends
            .iter()
            .rfind(|&&e| e <= cut)
            .copied()
            .unwrap_or(header_end);
        if cut >= header_end {
            assert_eq!(
                std::fs::read(&path).unwrap(),
                &full[..boundary],
                "cut at byte {cut}: torn tail must be truncated away"
            );
        }
        let bytes = save_bytes(&recovered.snapshot());
        match oracle.get(&durable) {
            // The cut fell on an insert-call boundary: recovery must
            // reproduce that moment of the live run byte for byte.
            Some(expected) => assert_eq!(&bytes, expected, "cut at byte {cut}"),
            // The cut split an insert from its republish event. The
            // live run never paused there, so no oracle bytes exist —
            // but recovery must still be a pure function of the prefix.
            None => {
                drop(recovered);
                std::fs::write(&path, &full[..boundary]).unwrap();
                let again =
                    StreamPublisher::replay(base_publication(), &path, StreamConfig::default())
                        .unwrap();
                assert_eq!(
                    save_bytes(&again.snapshot()),
                    bytes,
                    "cut at byte {cut}: recovery must be deterministic"
                );
            }
        }
    }
}

#[test]
fn snapshot_truncation_fails_loudly_never_quietly() {
    let wal = tmp("snap-trunc.rpwal");
    let mut live =
        StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
    for i in 0..80u32 {
        live.insert_codes(&record(i)).unwrap();
    }
    live.flush().unwrap();
    let snap = tmp("snap-trunc.rppub");
    live.save_snapshot(&snap).unwrap();
    let full = std::fs::read(&snap).unwrap();
    assert!(Publication::load_from_path(&snap).is_ok());
    let mut cuts: Vec<usize> = (0..full.len()).step_by(37).collect();
    cuts.push(full.len() - 1);
    for (case, &cut) in cuts.iter().enumerate() {
        let path = tmp(&format!("snap-trunc-{case}.rppub"));
        std::fs::write(&path, &full[..cut]).unwrap();
        // A truncated artifact must refuse to load — the header's counts
        // and the `live` line promise every line after them, so losing
        // the tail cannot masquerade as a complete shorter artifact. The one admissible exception:
        // a cut that only lost the final newline still carries every
        // byte of data, and then the loaded artifact must round-trip to
        // exactly the full bytes. Loud error or right answer — nothing
        // in between.
        match Publication::load_from_path(&path) {
            Err(err) => assert!(!err.to_string().is_empty(), "errors carry a message"),
            Ok(loaded) => assert_eq!(
                save_bytes(&loaded),
                full,
                "cut at byte {cut} loaded as a *different* artifact"
            ),
        }
    }
}

/// Cutting between an insert and the republish event it triggered is the
/// nastiest torn point: the pair was atomic for the live run. Recovery
/// must land exactly on the prefix (insert applied, republish not) and
/// be deterministic about it.
#[test]
fn cut_between_insert_and_its_republish_recovers_deterministically() {
    let wal = tmp("pair-cut.rpwal");
    let mut live =
        StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
    for i in 0..3000u32 {
        live.insert_codes(&[1, 1, u32::from(i % 10 == 0)]).unwrap();
    }
    assert!(live.republished() > 0, "fixture must re-publish");
    live.flush().unwrap();
    drop(live);
    let full = std::fs::read(&wal).unwrap();
    let (_, event_ends) = event_boundaries(&full);
    // The boundary just before the first `r` line, and a cut torn
    // mid-`r`: both must recover to the same durable prefix.
    let r_start = full
        .split_inclusive(|&b| b == b'\n')
        .scan(0usize, |off, line| {
            let start = *off;
            *off += line.len();
            Some((start, line))
        })
        .find(|(_, line)| line.starts_with(b"r\t"))
        .map(|(start, _)| start)
        .expect("log has a republish event");
    let durable = event_ends.iter().filter(|&&e| e <= r_start).count() as u64;
    let mut recovered_bytes = Vec::new();
    for (case, cut) in [r_start, r_start + 2].into_iter().enumerate() {
        let path = tmp(&format!("pair-cut-{case}.rpwal"));
        std::fs::write(&path, &full[..cut]).unwrap();
        let recovered =
            StreamPublisher::open(base_publication(), &path, StreamConfig::default()).unwrap();
        assert_eq!(
            recovered.wal_seq(),
            durable,
            "the republish must roll back, its insert must not"
        );
        recovered_bytes.push(save_bytes(&recovered.snapshot()));
    }
    assert_eq!(
        recovered_bytes[0], recovered_bytes[1],
        "a torn `r` line and a missing one must recover identically"
    );
}

#[test]
fn crashed_snapshot_writer_leaves_the_old_snapshot_intact() {
    let wal = tmp("snap-atomic.rpwal");
    let snap = tmp("snap-atomic.rppub");
    let mut live =
        StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
    for i in 0..40u32 {
        live.insert_codes(&record(i)).unwrap();
    }
    live.flush().unwrap();
    live.save_snapshot(&snap).unwrap();
    let old = std::fs::read(&snap).unwrap();

    // A later snapshot attempt that dies mid-write leaves its partial
    // bytes in the temp sibling — never in the live path.
    let tmp_sibling = format!("{}.tmp", snap.display());
    std::fs::write(&tmp_sibling, &old[..old.len() / 2]).unwrap();
    assert_eq!(
        std::fs::read(&snap).unwrap(),
        old,
        "a partial write must not touch the published snapshot"
    );
    let restored = Publication::load_from_path(&snap).unwrap();
    assert_eq!(save_bytes(&restored), old);

    // The next successful snapshot atomically replaces both: the target
    // advances, the stale temp litter is gone.
    for i in 40..60u32 {
        live.insert_codes(&record(i)).unwrap();
    }
    live.flush().unwrap();
    live.save_snapshot(&snap).unwrap();
    let new = std::fs::read(&snap).unwrap();
    assert_ne!(new, old, "the snapshot must have advanced");
    assert!(
        !Path::new(&tmp_sibling).exists(),
        "a completed save cleans up the temp sibling"
    );
    assert!(Publication::load_from_path(&snap).is_ok());
}

/// A forged snapshot whose live section claims to cover no event yet
/// lists groups is refused on a compacted log. Taken as a clean start, it
/// was merged with the log's state records: the group it holds was
/// counted once from it and once more from the log, and the stream
/// reopened with 2,020 inserted and 2,019 live records where 2,010 and
/// 2,009 are true.
#[test]
fn a_live_section_claiming_no_event_is_refused_on_a_compacted_log() {
    let wal = tmp("forged-seq-zero.rpwal");
    let mut live = StreamPublisher::open(base_publication(), &wal, StreamConfig::default())
        .expect("open a fresh stream");
    for i in 0..10u32 {
        live.insert_codes(&[0, 0, i % 3]).expect("insert");
    }
    live.flush().expect("flush");
    let early = live.snapshot();
    for i in 0..2_000u32 {
        live.insert_codes(&[1, 1, u32::from(i.is_multiple_of(10))])
            .expect("insert");
    }
    live.flush().expect("flush");
    let (inserted, records) = (live.inserted(), live.live_records());
    assert_eq!((inserted, records), (2_010, 2_009));
    let late = live.snapshot();
    drop(live);
    let stats = rp_repro::engine::stream::wal::compact_wal(&wal, &wal).expect("compact");
    assert!(stats.absorbed > 0, "the compaction absorbed events");

    // The latest snapshot and a clean start both recover the true counts.
    for artifact in [late, base_publication()] {
        let reopened =
            StreamPublisher::open(artifact, &wal, StreamConfig::default()).expect("reopen");
        assert_eq!(
            (reopened.inserted(), reopened.live_records()),
            (inserted, records)
        );
    }

    let mut forged_live = early.live().expect("a live section").clone();
    forged_live.wal_seq = 0;
    let forged = early.clone().with_live(forged_live);
    match StreamPublisher::open(forged, &wal, StreamConfig::default()) {
        Err(e) => assert!(e.to_string().contains("covers no event"), "{e}"),
        Ok(s) => panic!(
            "a forged live section was merged: {} inserted, {} live records",
            s.inserted(),
            s.live_records()
        ),
    }
}
