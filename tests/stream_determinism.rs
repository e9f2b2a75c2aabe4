//! The determinism contract, extended to streams: a streaming
//! publication's state is a pure function of `(base artifact, WAL)`.
//!
//! The property proven here (satellite of the Publication-v2 PR): for a
//! random insert sequence split across N restarts — each restart either
//! resuming from a fresh snapshot ("clean handoff") or from the previous
//! artifact plus the WAL tail ("crash recovery") — the final snapshot
//! bytes and the query answers are identical to the single uninterrupted
//! run's. A clean-start replay of the full WAL lands on the same bytes
//! too.

use std::path::PathBuf;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_repro::engine::{
    Publication, Publisher, QueryEngine, QueryService, ServiceConfig, SessionStats, StreamConfig,
    StreamPublisher,
};
use rp_repro::table::{Attribute, CountQuery, Schema, TableBuilder};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rp-stream-determinism-{}", std::process::id()));
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

/// Skewed random records: one hot group draws most of the traffic so
/// re-publications genuinely fire inside the property.
fn arb_records(rng: &mut StdRng, n: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.6) {
                // The hot, skewed group: mostly one SA value.
                let sa = if rng.gen_bool(0.85) {
                    0
                } else {
                    rng.gen_range(0..3u32)
                };
                vec![0, 0, sa]
            } else {
                vec![
                    rng.gen_range(0..3u32),
                    rng.gen_range(0..2u32),
                    rng.gen_range(0..3u32),
                ]
            }
        })
        .collect()
}

/// Probe queries covering the hot group, a cold group and a wildcard.
fn probes() -> Vec<CountQuery> {
    vec![
        CountQuery::new(vec![(0, 0), (1, 0)], 2, 0).unwrap(),
        CountQuery::new(vec![(0, 2)], 2, 1).unwrap(),
        CountQuery::new(vec![], 2, 2).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any interleaving of inserts split across N restarts — snapshot
    /// handoffs, crash recoveries, group-commit batching — reproduces
    /// the single-run publication bytes and query answers exactly.
    #[test]
    fn restarts_reproduce_the_single_run_exactly(case_seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let n = rng.gen_range(60..240usize);
        let records = arb_records(&mut rng, n);

        // Reference: the uninterrupted live run.
        let wal_ref = tmp(&format!("ref-{case_seed:016x}.rpwal"));
        let mut reference =
            StreamPublisher::open(base_publication(), &wal_ref, StreamConfig::default()).unwrap();
        for r in &records {
            reference.insert_codes(r).unwrap();
        }
        reference.flush().unwrap();
        let reference_snapshot = reference.snapshot();
        let reference_bytes = save_bytes(&reference_snapshot);

        // The restarted run: 1..4 restart points, each a snapshot
        // handoff or a crash recovery.
        let restarts = rng.gen_range(1..=3usize);
        let mut cuts: Vec<usize> = (0..restarts).map(|_| rng.gen_range(0..=n)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let config = StreamConfig {
            // Group commit changes durability timing only, never bytes;
            // random batches let the property double as proof.
            commit_batch: if rng.gen_bool(0.5) { rng.gen_range(2..32) } else { 0 },
        };
        let wal = tmp(&format!("split-{case_seed:016x}.rpwal"));
        // `artifact` is what a restart reopens: the base at first, then
        // whatever the previous incarnation last snapshotted (crash
        // recoveries deliberately reuse an older artifact and lean on
        // the WAL tail).
        let mut artifact = base_publication();
        let mut done = 0usize;
        for &cut in &cuts {
            let mut stream = StreamPublisher::open(artifact.clone(), &wal, config).unwrap();
            for r in &records[done..cut] {
                stream.insert_codes(r).unwrap();
            }
            stream.flush().unwrap();
            if rng.gen_bool(0.5) {
                // Clean handoff: the next incarnation resumes from a
                // fresh snapshot plus an empty tail.
                artifact = stream.snapshot();
            }
            // Crash recovery otherwise: `artifact` stays stale and the
            // next open replays the tail from the WAL.
            done = cut;
            drop(stream);
        }
        let mut last = StreamPublisher::open(artifact, &wal, config).unwrap();
        for r in &records[done..] {
            last.insert_codes(r).unwrap();
        }
        last.flush().unwrap();
        prop_assert_eq!(
            &save_bytes(&last.snapshot()),
            &reference_bytes,
            "restarted run diverged from the single run"
        );

        // Clean-start replay of the full WAL: same bytes again.
        let replayed =
            StreamPublisher::replay(base_publication(), &wal, StreamConfig::default()).unwrap();
        prop_assert_eq!(
            &save_bytes(&replayed.snapshot()),
            &reference_bytes,
            "clean-start replay diverged from the live run"
        );

        // Query answers agree between the live view (base engine + live
        // groups) and the materialized v2 table — and therefore between
        // the single run and every restart (identical bytes).
        let service = QueryService::streaming(last, None, ServiceConfig::default());
        let batch_engine = QueryEngine::new(&reference_snapshot);
        let mut session = SessionStats::default();
        for query in probes() {
            let via_batch = batch_engine.answer(&query).unwrap();
            let line = {
                let mut s = String::from("count");
                for &(attr, code) in query.na_pattern().terms() {
                    if let rp_repro::table::Term::Value(code) = code {
                        let a = batch_engine.schema().attribute(attr);
                        s.push_str(&format!(
                            " {}={}",
                            a.name(),
                            a.dictionary().value(code).unwrap()
                        ));
                    }
                }
                let sa = batch_engine.schema().attribute(2);
                s.push_str(&format!(
                    " {}={}",
                    sa.name(),
                    sa.dictionary().value(query.sa_value()).unwrap()
                ));
                s
            };
            let response = service.handle_line(&line, &mut session).unwrap();
            let rp_repro::engine::Response::Answer(live) = response else {
                panic!("expected an answer for `{line}`, got {response:?}");
            };
            prop_assert_eq!(live.support, via_batch.support, "{}", line);
            prop_assert_eq!(live.observed, via_batch.observed, "{}", line);
            prop_assert_eq!(live.estimate, via_batch.estimate, "{}", line);
        }
    }
}

/// The WAL records re-publication events and replay applies them
/// literally: a run heavy enough to trigger SPS re-sampling still
/// replays byte-identically (deterministic per-group RNG streams).
#[test]
fn republication_heavy_stream_replays_exactly() {
    let wal = tmp("republish-heavy.rpwal");
    let mut live =
        StreamPublisher::open(base_publication(), &wal, StreamConfig::default()).unwrap();
    for i in 0..3000u32 {
        // One group, 90/10 skew: crosses sg repeatedly.
        live.insert_codes(&[1, 1, u32::from(i % 10 == 0)]).unwrap();
    }
    assert!(live.republished() > 0, "the stream must re-publish");
    live.flush().unwrap();
    let live_bytes = save_bytes(&live.snapshot());
    drop(live);
    let replayed =
        StreamPublisher::replay(base_publication(), &wal, StreamConfig::default()).unwrap();
    assert_eq!(save_bytes(&replayed.snapshot()), live_bytes);
}

/// WAL compaction absorbs events superseded by a later re-publication
/// into per-group state records; replaying the compacted log must land
/// on exactly the bytes of replaying the full log — and the compacted
/// log must remain appendable with the stream continuing byte-for-byte.
#[test]
fn compacted_replay_is_byte_identical_to_full_replay() {
    use rp_repro::engine::stream::wal;

    let wal_full = tmp("compact-full.rpwal");
    let mut live =
        StreamPublisher::open(base_publication(), &wal_full, StreamConfig::default()).unwrap();
    for i in 0..3000u32 {
        live.insert_codes(&[1, 1, u32::from(i % 10 == 0)]).unwrap();
    }
    // A mixed tail keeps several groups live past the absorption floor.
    for i in 0..300u32 {
        live.insert_codes(&[i % 3, (i / 3) % 2, (i / 6) % 3])
            .unwrap();
    }
    assert!(live.republished() > 0, "the stream must re-publish");
    live.flush().unwrap();
    let full_bytes = save_bytes(&live.snapshot());
    drop(live);

    let wal_compact = tmp("compact-small.rpwal");
    let stats = wal::compact_wal(&wal_full, &wal_compact).unwrap();
    assert!(stats.absorbed > 0, "compaction must absorb events");
    assert!(
        stats.events_out < stats.events_in,
        "the compacted log must be shorter"
    );
    let replayed =
        StreamPublisher::replay(base_publication(), &wal_compact, StreamConfig::default()).unwrap();
    assert_eq!(
        save_bytes(&replayed.snapshot()),
        full_bytes,
        "compacted replay diverged from full replay"
    );

    // Appending the same suffix to the full and the compacted log keeps
    // producing identical snapshots: compaction is transparent forward.
    for target in [&wal_full, &wal_compact] {
        let mut resumed =
            StreamPublisher::open(base_publication(), target, StreamConfig::default()).unwrap();
        for i in 0..50u32 {
            resumed.insert_codes(&[i % 3, 0, i % 3]).unwrap();
        }
        resumed.flush().unwrap();
    }
    let a =
        StreamPublisher::replay(base_publication(), &wal_full, StreamConfig::default()).unwrap();
    let b =
        StreamPublisher::replay(base_publication(), &wal_compact, StreamConfig::default()).unwrap();
    assert_eq!(
        save_bytes(&a.snapshot()),
        save_bytes(&b.snapshot()),
        "post-compaction appends diverged"
    );
}
