//! The fault matrix: deterministic fault injection across every durable
//! path of the storage stack — WAL appends, group commit fsyncs,
//! snapshot replacement — proving the failure
//! contract end to end:
//!
//! * every faulted run either **fails loudly** (a structured error with a
//!   message) or recovers to exactly the durable prefix, byte-identical
//!   to a fault-free oracle over the same events;
//! * a failed fsync is **never** followed by a successful ack — the
//!   stream poisons and refuses writes from that point on (fsyncgate);
//! * fault schedules are replayable: the same `(seed, period)` produces
//!   the same outcome transcript, run after run;
//! * a degraded catalog tenant keeps answering queries while the other
//!   tenants' transcripts stay byte-identical to a no-fault run, and the
//!   catalog `reload` verb recovers the degraded tenant from disk.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rp_repro::engine::{
    serve, Catalog, FaultHandle, FaultSchedule, Publication, Publisher, QueryService,
    ServiceConfig, StreamConfig, StreamError, StreamPublisher,
};
use rp_repro::table::{Attribute, Schema, TableBuilder};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rp-fault-matrix-{}", std::process::id()));
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

/// Deterministic skewed records: group (1,1) runs hot, so the sweep also
/// exercises re-publication events riding the same WAL.
fn record(i: u32) -> Vec<u32> {
    if i % 3 != 2 {
        vec![1, 1, u32::from(i.is_multiple_of(10))]
    } else {
        vec![i % 3, (i / 3) % 2, (i / 6) % 3]
    }
}

/// End offset of every complete WAL event line plus the header boundary
/// (both derived purely from the grammar: events are `i`/`r` lines).
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
    (header_end.unwrap_or(bytes.len()), ends)
}

/// The fault-free oracle: the snapshot bytes after each insert call,
/// keyed by WAL cursor. Any faulted run recovering to cursor `s` must
/// land on exactly `oracle[s]` (or, when `s` splits an insert from its
/// republish event, on a deterministic pure function of the prefix).
fn build_oracle(records: u32, config: StreamConfig) -> HashMap<u64, Vec<u8>> {
    let wal = tmp("oracle.rpwal");
    let mut live = StreamPublisher::open(base_publication(), &wal, config).unwrap();
    let mut oracle = HashMap::new();
    oracle.insert(0, save_bytes(&live.snapshot()));
    for i in 0..records {
        live.insert_codes(&record(i)).unwrap();
        oracle.insert(live.wal_seq(), save_bytes(&live.snapshot()));
    }
    live.flush().unwrap();
    oracle
}

/// Recovered state must match the oracle at its cursor; a cursor between
/// an insert and its republish has no oracle entry, and then recovery
/// must at least be a deterministic pure function of the WAL prefix.
fn assert_matches_oracle(
    oracle: &HashMap<u64, Vec<u8>>,
    wal: &Path,
    config: StreamConfig,
    label: &str,
) {
    let recovered = StreamPublisher::open(base_publication(), wal, config).unwrap();
    let seq = recovered.wal_seq();
    let bytes = save_bytes(&recovered.snapshot());
    drop(recovered);
    match oracle.get(&seq) {
        Some(expected) => assert_eq!(&bytes, expected, "{label}: diverged from the oracle"),
        None => {
            let again = StreamPublisher::replay(base_publication(), wal, config).unwrap();
            assert_eq!(
                save_bytes(&again.snapshot()),
                bytes,
                "{label}: recovery must be deterministic"
            );
        }
    }
}

const SWEEP_RECORDS: u32 = 60;

/// Drives one faulted run and checks the per-run contract: no ack ever
/// follows a failed fsync, errors carry messages, and the reported
/// durable cursor never exceeds what a fault-free reopen finds on disk.
/// Returns the outcome transcript (the replayability witness).
fn drive_sweep_run(wal: &Path, schedule: Arc<FaultSchedule>, config: StreamConfig) -> String {
    let mut log = String::new();
    let mut stream =
        match StreamPublisher::open_with(base_publication(), wal, config, schedule.clone()) {
            Ok(stream) => stream,
            Err(e) => {
                assert!(!e.to_string().is_empty(), "errors carry a message");
                return format!("open-failed({e});");
            }
        };
    let mut poisoned = false;
    for i in 0..SWEEP_RECORDS {
        match stream.insert_codes(&record(i)) {
            Ok(_) => {
                assert!(!poisoned, "insert {i}: acked after a failed fsync");
                log.push_str("ok;");
            }
            Err(e) => {
                assert!(!e.to_string().is_empty(), "errors carry a message");
                if matches!(e, StreamError::Degraded { .. }) {
                    poisoned = true;
                    assert!(stream.degraded().is_some(), "degraded error without poison");
                }
                log.push_str("err;");
            }
        }
        if poisoned {
            // Once poisoned, always poisoned: the next op must refuse too.
            assert!(
                matches!(stream.flush(), Err(StreamError::Degraded { .. })),
                "insert {i}: a poisoned stream accepted a flush"
            );
        }
    }
    match stream.flush() {
        Ok(_) => assert!(!poisoned, "flush acked after a failed fsync"),
        Err(e) => assert!(!e.to_string().is_empty(), "errors carry a message"),
    }
    let durable = stream.durable_seq();
    log.push_str(&format!("durable={durable}"));
    drop(stream);

    // Fault-free recovery sees at least the durable prefix (the process
    // did not crash, so flushed-but-unsynced bytes may also survive).
    let recovered = StreamPublisher::open(base_publication(), wal, config).unwrap();
    assert!(
        recovered.wal_seq() >= durable,
        "disk lost acked events: wal_seq {} < durable {durable}",
        recovered.wal_seq()
    );
    drop(recovered);
    log
}

#[test]
fn seeded_fault_sweep_fails_loudly_or_recovers_the_durable_prefix() {
    // Group commit every 4 events: commit-time fsyncs interleave with
    // appends, so sync faults land mid-stream, not only at flush.
    let config = StreamConfig { commit_batch: 4 };
    let oracle = build_oracle(SWEEP_RECORDS, config);

    for seed in 0..6u64 {
        for period in [3u64, 5, 9] {
            // Replayability: the same (seed, period) schedule produces
            // the same outcome transcript on a fresh run.
            let transcripts: Vec<String> = (0..2)
                .map(|run| {
                    let wal = tmp(&format!("sweep-{seed}-{period}-{run}.rpwal"));
                    let schedule = Arc::new(FaultSchedule::sampled(seed, period));
                    let log = drive_sweep_run(&wal, schedule, config);
                    if !log.starts_with("open-failed") {
                        assert_matches_oracle(
                            &oracle,
                            &wal,
                            config,
                            &format!("seed {seed} period {period}"),
                        );
                    }
                    log
                })
                .collect();
            assert_eq!(
                transcripts[0], transcripts[1],
                "seed {seed} period {period}: the schedule must replay identically"
            );
        }
    }
}

#[test]
fn simulated_crash_at_the_durable_boundary_recovers_exactly_durable_seq() {
    let config = StreamConfig { commit_batch: 4 };
    let oracle = build_oracle(SWEEP_RECORDS, config);

    // Fail the 7th fsync: the creation consumes two, so the poison lands
    // a few commit batches into the stream.
    let wal = tmp("crash-boundary.rpwal");
    let schedule = Arc::new(FaultSchedule::fsync_at(7));
    let mut stream =
        StreamPublisher::open_with(base_publication(), &wal, config, schedule).unwrap();
    let mut degraded_at = None;
    for i in 0..SWEEP_RECORDS {
        if let Err(e) = stream.insert_codes(&record(i)) {
            assert!(matches!(e, StreamError::Degraded { .. }), "{e}");
            degraded_at = Some(i);
            break;
        }
    }
    let durable = stream.durable_seq();
    assert!(degraded_at.is_some(), "the scripted fsync fault must land");
    drop(stream);

    // Crash: everything past the last good fsync is lost. Cut the log at
    // the durable boundary; recovery must land on exactly durable_seq,
    // byte-identical to the fault-free oracle at that prefix.
    let full = std::fs::read(&wal).unwrap();
    let (header_end, event_ends) = event_boundaries(&full);
    let cut = match usize::try_from(durable).unwrap() {
        0 => header_end,
        n => event_ends[n - 1],
    };
    std::fs::write(&wal, &full[..cut]).unwrap();
    let recovered = StreamPublisher::open(base_publication(), &wal, config).unwrap();
    assert_eq!(
        recovered.wal_seq(),
        durable,
        "recovery must land on durable_seq"
    );
    drop(recovered);
    assert_matches_oracle(&oracle, &wal, config, "crash at the durable boundary");
}

#[test]
fn snapshot_faults_leave_the_target_untouched_or_land_oracle_bytes() {
    let config = StreamConfig::default();
    let wal = tmp("snap-fault.rpwal");
    let snap = tmp("snap-fault.rppub");

    // Build durable state fault-free and publish a first snapshot.
    let mut live = StreamPublisher::open(base_publication(), &wal, config).unwrap();
    for i in 0..40u32 {
        live.insert_codes(&record(i)).unwrap();
    }
    live.flush().unwrap();
    live.save_snapshot(&snap).unwrap();
    let old = std::fs::read(&snap).unwrap();
    drop(live);

    // Reopen behind a schedule that fails *every* operation: the retry
    // burns its attempts and save_snapshot must fail loudly — with the
    // published snapshot untouched and no temp litter left behind.
    let everything_fails = Arc::new(FaultSchedule::sampled(7, 1));
    let faulted =
        StreamPublisher::open_with(base_publication(), &wal, config, everything_fails).unwrap();
    let err = faulted
        .save_snapshot(&snap)
        .expect_err("a persistently faulted snapshot must fail");
    assert!(!err.to_string().is_empty(), "errors carry a message");
    assert_eq!(
        std::fs::read(&snap).unwrap(),
        old,
        "a failed snapshot touched the published artifact"
    );
    assert!(
        !Path::new(&format!("{}.tmp", snap.display())).exists(),
        "a failed snapshot left its temp sibling behind"
    );
    drop(faulted);

    // A single scripted write fault is absorbed by the retry (each
    // attempt writes a fresh temp file): the save succeeds and the bytes
    // equal the fault-free oracle's.
    let reference = StreamPublisher::open(base_publication(), &wal, config).unwrap();
    let oracle_snap = tmp("snap-fault-oracle.rppub");
    reference.save_snapshot(&oracle_snap).unwrap();
    let expected = std::fs::read(&oracle_snap).unwrap();
    drop(reference);
    let one_fault = Arc::new(FaultSchedule::write_at(1, rp_repro::engine::FaultKind::Eio));
    let retried = StreamPublisher::open_with(base_publication(), &wal, config, one_fault).unwrap();
    retried.save_snapshot(&snap).unwrap();
    assert_eq!(
        std::fs::read(&snap).unwrap(),
        expected,
        "an absorbed snapshot fault changed the artifact bytes"
    );
}

// ---------------------------------------------------------------------------
// Catalog round: a degraded tenant must not bleed into its neighbours.
// ---------------------------------------------------------------------------

/// A static tenant over a differently-shaped table, so its answers are
/// observably its own.
fn alpha_service() -> Arc<QueryService> {
    let schema = Schema::new(vec![
        Attribute::new("Job", ["eng", "doc", "law"]),
        Attribute::new("City", ["rome", "oslo"]),
        Attribute::new("Disease", ["flu", "none"]),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..1800u32 {
        b.push_codes(&[i % 3, (i / 3) % 2, (i / 6) % 2]).unwrap();
    }
    let publication = Publisher::new(b.build()).sa(2).seed(41).publish().unwrap();
    Arc::new(QueryService::from_publication(
        &publication,
        ServiceConfig::default(),
    ))
}

/// Builds the two-tenant catalog: `alpha` static (the default) and
/// `live` streaming from `artifact` + `wal`, with the source recorded so
/// the `reload` verb can rebuild it. When `fsync_at > 0` the live
/// tenant's stream opens behind that scripted schedule — exactly what
/// `rpctl serve --fault-fsync-at` does — so the fresh WAL's two creation
/// syncs count against it.
fn fixture_catalog(artifact: &Path, wal: &Path, fsync_at: u64) -> Catalog {
    let faults: FaultHandle = if fsync_at > 0 {
        Arc::new(FaultSchedule::fsync_at(fsync_at))
    } else {
        rp_repro::engine::fault::passthrough()
    };
    let catalog = Catalog::new("alpha").unwrap();
    catalog.open("alpha", alpha_service()).unwrap();
    catalog
        .open_stream_path(
            "live",
            artifact,
            wal,
            StreamConfig::default(),
            None,
            ServiceConfig::default(),
            faults,
        )
        .unwrap();
    catalog
}

/// One stdio session against `catalog`; returns the response transcript.
fn run_session(catalog: &Catalog, script: &[&str]) -> String {
    let input = script.join("\n") + "\n";
    let mut out = Vec::new();
    serve(catalog, input.as_bytes(), &mut out).expect("in-memory serve cannot fail");
    String::from_utf8(out).unwrap()
}

/// The live tenant's degradation-and-recovery session.
const LIVE_SCRIPT: &[&str] = &[
    "insert@live Job=eng City=rome Disease=flu",
    "flush@live",
    "insert@live Job=doc City=oslo Disease=flu",
    "count@live Job=eng Disease=flu",
    "count Job=eng Disease=flu",
    "reload live",
    "insert@live Job=doc City=oslo Disease=flu",
    "flush@live",
    "quit",
];

/// The neighbour tenant's session: pure reads on the default release.
const ALPHA_SCRIPT: &[&str] = &[
    "info",
    "count Job=eng Disease=flu",
    "count City=oslo Disease=none",
    "count Job=doc Disease=flu",
    "ping",
    "quit",
];

#[test]
fn a_degraded_tenant_keeps_answering_and_neighbours_stay_byte_identical() {
    let artifact = tmp("catalog-live.rppub");
    base_publication().save_to_path(&artifact).unwrap();

    // Reference: the same catalog and the same sessions, no faults.
    let ref_wal = tmp("catalog-ref.rpwal");
    let reference = fixture_catalog(&artifact, &ref_wal, 0);
    let _ = run_session(&reference, LIVE_SCRIPT);
    let alpha_reference = run_session(&reference, ALPHA_SCRIPT);

    // Faulted: the live tenant's first flush-time fsync (sync 3, after
    // the fresh WAL's two creation syncs) fails.
    let wal = tmp("catalog-fault.rpwal");
    let catalog = fixture_catalog(&artifact, &wal, 3);
    let live = run_session(&catalog, LIVE_SCRIPT);
    let lines: Vec<&str> = live.lines().skip(1).collect(); // skip the banner
    assert!(lines[0].starts_with("inserted"), "{live}");
    assert!(
        lines[1].starts_with("error code=degraded"),
        "the failed fsync must answer a degraded error: {live}"
    );
    assert!(
        lines[1].contains("durable through event 0"),
        "the degraded error must report the durable cursor: {live}"
    );
    assert!(
        lines[2].starts_with("error code=degraded"),
        "a poisoned stream must refuse further writes: {live}"
    );
    assert!(
        lines[3].starts_with("est="),
        "a degraded tenant must keep answering queries: {live}"
    );
    assert!(
        lines[4].starts_with("est="),
        "the default tenant must answer through the degradation: {live}"
    );
    assert!(
        lines[5].starts_with("reloaded"),
        "reload must recover the degraded tenant: {live}"
    );
    assert!(
        lines[6].starts_with("inserted"),
        "a recovered tenant must accept writes again: {live}"
    );
    assert!(
        lines[7].starts_with("flushed"),
        "a recovered tenant must flush durably again: {live}"
    );

    // The neighbour's transcript is byte-identical to the no-fault run.
    let alpha = run_session(&catalog, ALPHA_SCRIPT);
    assert_eq!(
        alpha, alpha_reference,
        "a degraded tenant bled into its neighbour's transcript"
    );
}
