//! Group commit: amortizing WAL fsyncs over batches of appends.
//!
//! An `fsync` costs orders of magnitude more than formatting and
//! buffering a WAL line, so syncing after every insert caps ingest at
//! the disk's flush rate. The [`LogManager`] wraps a [`Wal`] and turns
//! the per-append sync into a *policy*: appends accumulate as pending,
//! and the log is forced to stable storage when the pending count
//! reaches `commit_batch`, or on an explicit
//! [`commit`](LogManager::commit) (the
//! [`StreamPublisher::flush`](crate::stream::StreamPublisher::flush)
//! path). `commit_batch = 0` — the [`StreamConfig`] default — means
//! *explicit flush only*, the subsystem's original behavior.
//!
//! Group commit changes **when** bytes become durable, never which
//! bytes are written: the WAL content, and therefore replay, is
//! byte-identical under any commit policy. What a crash can cost is
//! bounded by the policy — at most `commit_batch − 1` acknowledged but
//! unsynced events roll back to the durable prefix, which replay then
//! reconstructs exactly.
//!
//! ## The fsync-poisoning rule
//!
//! A failed `fsync` is **terminal**. After the kernel reports an fsync
//! error it may drop the dirty pages it could not write, so a retried
//! fsync that returns success proves nothing about the bytes the first
//! one lost — acking on retry is how databases have silently lost
//! committed data (the "fsyncgate" failure mode). The [`LogManager`]
//! therefore *latches poisoned* on the first failed sync (or failed
//! append — a torn buffered line is equally untrustworthy): the durable
//! cursor freezes at the last successful sync, every later append or
//! commit refuses with [`StreamError::Degraded`] carrying that cursor,
//! and the stream's events past the cursor are reported lost. Recovery
//! is a fresh open (catalog `reload`), which replays exactly the
//! durable prefix from disk.

use crate::stream::wal::{Wal, WalEvent};
use crate::stream::{StreamConfig, StreamError};

/// A [`Wal`] plus a group-commit policy: appends are buffered and
/// fsynced in batches, trading a bounded durability window for
/// amortized sync cost.
#[derive(Debug)]
pub(crate) struct LogManager {
    wal: Wal,
    /// Appends per automatic sync; `0` disables automatic commit.
    commit_batch: u64,
    /// Appended-but-not-yet-synced event count.
    pending: u64,
    /// Highest sequence number known to be on stable storage.
    durable_seq: u64,
    /// Set once a sync or append has failed: the manager is dead, and
    /// every later mutation refuses with the message recorded here.
    poisoned: Option<String>,
}

impl LogManager {
    /// Wraps an open log. Everything already in the file was read from
    /// (or truncated on) stable storage, so the durable cursor starts
    /// at the last existing sequence number.
    pub(crate) fn new(wal: Wal, config: &StreamConfig) -> Self {
        let durable_seq = wal.next_seq().saturating_sub(1);
        LogManager {
            wal,
            commit_batch: config.commit_batch,
            pending: 0,
            durable_seq,
            poisoned: None,
        }
    }

    /// The sequence number the next append will carry.
    pub(crate) fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// The highest sequence number guaranteed to survive a crash.
    pub(crate) fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// Why the manager is poisoned, if it is. A poisoned manager
    /// refuses every append and commit; the owning stream is read-only
    /// until it is reopened from disk.
    pub(crate) fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Latches the poison and returns the degradation error every
    /// later mutation will repeat: the durable cursor is frozen at the
    /// last successful sync.
    fn poison(&mut self, message: String) -> StreamError {
        self.poisoned = Some(message.clone());
        let obs = crate::obs::global();
        obs.inc(&obs.counters.stream_degraded);
        obs.trace("stream.degraded");
        StreamError::Degraded {
            durable_seq: self.durable_seq,
            message,
        }
    }

    /// Refuses the mutation if the manager is already poisoned.
    fn check_poison(&self) -> Result<(), StreamError> {
        match &self.poisoned {
            Some(message) => Err(StreamError::Degraded {
                durable_seq: self.durable_seq,
                message: message.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Appends one event to the log buffer. The event is *logged* but
    /// not yet *durable*; a commit (automatic or explicit) makes it so.
    /// A failed append poisons the manager — a torn buffered line means
    /// nothing later written to this handle can be trusted.
    pub(crate) fn append(&mut self, event: &WalEvent) -> Result<(), StreamError> {
        self.check_poison()?;
        if let Err(e) = self.wal.append(event) {
            return Err(self.poison(format!("WAL append failed: {e}")));
        }
        self.pending += 1;
        Ok(())
    }

    /// Commits any pending tail, then latches the manager **sealed**:
    /// every later append or commit refuses exactly like a poisoned
    /// manager, so nothing can ever reach the underlying file handle
    /// again. The catalog's reload path seals the old manager before
    /// reopening the WAL from disk — the file never has two live write
    /// handles, so the reopen's `set_len` repositioning cannot truncate
    /// a commit racing in through the old one.
    ///
    /// On an already-poisoned manager the original poison (and its loss
    /// boundary) stands: the commit refuses, which is the seal property
    /// already.
    pub(crate) fn seal(&mut self) -> Result<u64, StreamError> {
        let durable = self.commit()?;
        self.poisoned = Some("WAL handle sealed for reload".to_string());
        Ok(durable)
    }

    /// Commits if the pending count reached the batch size. Called once
    /// per insert by the publisher.
    pub(crate) fn maybe_commit(&mut self) -> Result<(), StreamError> {
        if self.commit_batch > 0 && self.pending >= self.commit_batch {
            self.commit()?;
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage and returns
    /// the new durable sequence number. A no-op sync-wise when nothing
    /// is pending — an idle flush costs nothing.
    ///
    /// A failed sync **poisons** the manager (the fsync-poisoning rule
    /// above): the sync is never retried, `pending` is deliberately not
    /// cleared, the durable cursor stays at the last good sync, and the
    /// returned [`StreamError::Degraded`] — repeated by every later
    /// mutation — reports that cursor as the loss boundary.
    pub(crate) fn commit(&mut self) -> Result<u64, StreamError> {
        self.check_poison()?;
        let obs = crate::obs::global();
        if self.pending > 0 {
            obs.record(&obs.histograms.commit_batch_events, self.pending);
            obs.trace("commit.flush");
            if let Err(e) = self.wal.sync() {
                return Err(self.poison(format!("WAL fsync failed: {e}")));
            }
            self.durable_seq = self.wal.next_seq() - 1;
            self.pending = 0;
        }
        Ok(self.durable_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::wal::WalHeader;
    use rp_core::privacy::PrivacyParams;
    use rp_table::{Attribute, Schema};

    fn header() -> WalHeader {
        WalHeader {
            seed: 7,
            p: 0.5,
            params: PrivacyParams::new(0.3, 0.3),
            sa: 1,
            schema: Schema::new(vec![
                Attribute::new("Zip", ["a", "b"]),
                Attribute::new("Disease", ["flu", "none"]),
            ]),
            base_rows: 0,
            first_seq: 1,
        }
    }

    fn insert(seq: u64) -> WalEvent {
        WalEvent::Insert {
            seq,
            codes: vec![0, 0],
        }
    }

    fn manager(name: &str, batch: u64) -> LogManager {
        let path = std::env::temp_dir().join(format!("rp-commit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = StreamConfig {
            commit_batch: batch,
        };
        LogManager::new(Wal::create(&path, &header()).unwrap(), &config)
    }

    #[test]
    fn batch_policy_syncs_every_nth_append() {
        let mut lm = manager("batch.rpwal", 3);
        assert_eq!(lm.durable_seq(), 0);
        for seq in 1..=2 {
            lm.append(&insert(seq)).unwrap();
            lm.maybe_commit().unwrap();
            assert_eq!(lm.durable_seq(), 0, "below the batch size nothing syncs");
        }
        lm.append(&insert(3)).unwrap();
        lm.maybe_commit().unwrap();
        assert_eq!(lm.durable_seq(), 3, "the batch boundary commits");
        lm.append(&insert(4)).unwrap();
        lm.maybe_commit().unwrap();
        assert_eq!(lm.durable_seq(), 3, "and the counter restarts");
    }

    #[test]
    fn explicit_commit_flushes_any_pending_tail() {
        let mut lm = manager("explicit.rpwal", 64);
        for seq in 1..=5 {
            lm.append(&insert(seq)).unwrap();
            lm.maybe_commit().unwrap();
        }
        assert_eq!(lm.durable_seq(), 0);
        assert_eq!(lm.commit().unwrap(), 5);
        // An idle commit is a cheap no-op that reports the same cursor.
        assert_eq!(lm.commit().unwrap(), 5);
    }

    /// A manager over a WAL whose `nth` fsync is scripted to fail.
    /// `Wal::create_with` itself consumes two syncs (the header fsync
    /// and the parent-directory fsync), so the first commit-time sync
    /// is number 3.
    fn faulted_manager(name: &str, nth_sync: u64) -> LogManager {
        use crate::fault::FaultSchedule;
        let path = std::env::temp_dir().join(format!("rp-commit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let faults = std::sync::Arc::new(FaultSchedule::fsync_at(nth_sync));
        let wal = Wal::create_with(&path, &header(), faults).unwrap();
        LogManager::new(wal, &StreamConfig::default())
    }

    #[test]
    fn a_failed_fsync_poisons_the_manager_for_good() {
        let mut lm = faulted_manager("poison.rpwal", 3);
        lm.append(&insert(1)).unwrap();
        lm.append(&insert(2)).unwrap();
        let err = lm.commit().unwrap_err();
        assert!(
            matches!(err, StreamError::Degraded { durable_seq: 0, .. }),
            "{err}"
        );
        assert_eq!(lm.poisoned().map(|m| m.contains("fsync")), Some(true));
        // The fsync is never retried: a second commit refuses instead
        // of syncing again and falsely acking the lost events...
        let err = lm.commit().unwrap_err();
        assert!(
            matches!(err, StreamError::Degraded { durable_seq: 0, .. }),
            "{err}"
        );
        // ...appends refuse too, and the durable cursor stays frozen.
        assert!(lm.append(&insert(3)).is_err());
        assert_eq!(lm.durable_seq(), 0);
    }

    #[test]
    fn poisoning_freezes_the_cursor_at_the_last_good_sync() {
        let mut lm = faulted_manager("poison-late.rpwal", 4);
        lm.append(&insert(1)).unwrap();
        assert_eq!(lm.commit().unwrap(), 1, "sync 3 succeeds");
        lm.append(&insert(2)).unwrap();
        let err = lm.commit().unwrap_err();
        assert!(
            matches!(err, StreamError::Degraded { durable_seq: 1, .. }),
            "{err}"
        );
        assert_eq!(lm.durable_seq(), 1, "event 2 is reported lost");
    }

    #[test]
    fn seal_flushes_the_tail_and_refuses_every_later_mutation() {
        let mut lm = manager("seal.rpwal", 64);
        lm.append(&insert(1)).unwrap();
        lm.append(&insert(2)).unwrap();
        assert_eq!(lm.seal().unwrap(), 2, "the pending tail is synced");
        assert_eq!(lm.poisoned().map(|m| m.contains("sealed")), Some(true));
        // Sealed behaves like poisoned: the handle can never write again.
        assert!(matches!(
            lm.append(&insert(3)),
            Err(StreamError::Degraded { durable_seq: 2, .. })
        ));
        assert!(matches!(
            lm.commit(),
            Err(StreamError::Degraded { durable_seq: 2, .. })
        ));
        assert_eq!(lm.durable_seq(), 2);
    }

    #[test]
    fn sealing_a_poisoned_manager_keeps_the_original_poison() {
        let mut lm = faulted_manager("seal-poisoned.rpwal", 3);
        lm.append(&insert(1)).unwrap();
        assert!(lm.commit().is_err(), "sync 3 is scripted to fail");
        let err = lm.seal().unwrap_err();
        assert!(
            matches!(err, StreamError::Degraded { durable_seq: 0, .. }),
            "{err}"
        );
        assert_eq!(
            lm.poisoned().map(|m| m.contains("fsync")),
            Some(true),
            "the fsync poison (the true loss boundary) is not overwritten"
        );
    }

    #[test]
    fn defaults_never_commit_automatically() {
        let mut lm = manager("default.rpwal", 0);
        for seq in 1..=100 {
            lm.append(&insert(seq)).unwrap();
            lm.maybe_commit().unwrap();
        }
        assert_eq!(lm.durable_seq(), 0, "only explicit flush syncs");
        assert_eq!(lm.commit().unwrap(), 100);
    }
}
