//! Deterministic fault injection for the storage stack.
//!
//! The durability contract (see [`crate::stream`]) is only worth its
//! words if the code that upholds it is exercised *under failure*: an
//! `fsync` that returns `EIO`, a write cut short by a full disk, a torn
//! page. This module makes those failures part of the tested state
//! space without perturbing production behavior:
//!
//! * [`FaultIo`] — the injectable I/O facade every durable writer in
//!   this crate consults before touching the disk. The default handle
//!   ([`passthrough`]) approves everything.
//! * [`FaultSchedule`] — a seeded, counter-based schedule over the same
//!   SplitMix64 discipline as the stream's per-group RNG: whether
//!   operation index *i* faults (and how) is a pure function of
//!   `(seed, i)`, so a failing run is replayable from its seed and
//!   operation count alone.
//! * [`CheckedFile`] — a [`File`] wrapper that routes writes and syncs
//!   through a [`FaultIo`] handle, translating a scheduled fault into
//!   the failure shape the real world produces: an error before any
//!   byte moves (EIO/ENOSPC), a short write that tears the tail, or a
//!   failed fsync.
//! * [`with_retry`] — bounded retry with backoff for the *transient*
//!   fault domain of snapshot replacement. WAL fsync failures
//!   are **never** retried: a failed `sync_data` leaves the kernel's
//!   dirty-page state unknowable, so the log manager latches poisoned
//!   instead (the fsync-poisoning rule in [`crate::stream`]).

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64's additive constant (the golden-ratio increment) — the
/// same discipline as the stream's per-group generator, so fault draws
/// are pure functions of `(seed, op index)`.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Finalizes one SplitMix64 output from a state word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The draw deciding whether (and how) operation `op` faults under
/// `seed`. Counter-based: independent of call interleaving or wall
/// clock, so a schedule replays exactly from `(seed, op count)`.
fn fault_draw(seed: u64, op: u64) -> u64 {
    mix(seed.wrapping_add(GOLDEN.wrapping_mul(op.wrapping_add(1))))
}

/// How many attempts [`with_retry`] makes before giving up.
const RETRY_ATTEMPTS: u32 = 3;

/// The kind of failure an injected fault simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The device refuses the write outright (`EIO`): no bytes move.
    Eio,
    /// The volume is full (`ENOSPC`): no bytes move.
    Enospc,
    /// The write tears: a prefix reaches the disk, then the call fails.
    ShortWrite,
    /// `fsync`/`fdatasync` reports failure; dirty-page fate is unknown.
    FailedFsync,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::Eio => "EIO",
            FaultKind::Enospc => "ENOSPC",
            FaultKind::ShortWrite => "short write",
            FaultKind::FailedFsync => "failed fsync",
        };
        f.write_str(name)
    }
}

/// The injectable I/O facade. Durable writers consult it immediately
/// before each write or sync; the passthrough implementation approves
/// everything, a [`FaultSchedule`] vetoes sampled operation indices.
pub trait FaultIo: Send + Sync + fmt::Debug {
    /// Called before writing `len` bytes. `Ok(n)` with `n >= len` means
    /// proceed; `n < len` instructs the wrapper to put exactly `n`
    /// bytes on disk, report the shorter count, and fail the *next*
    /// write (the torn-write shape — see [`CheckedFile`]); `Err`
    /// refuses the write before any byte moves (EIO/ENOSPC).
    fn check_write(&self, len: usize) -> io::Result<usize>;

    /// Called before `sync_data`/`sync_all` (including directory
    /// syncs). `Err` simulates a failed fsync: the wrapper must report
    /// the error *without* syncing, leaving durability unknown.
    fn check_sync(&self) -> io::Result<()>;
}

/// A shared, thread-safe handle to a fault policy.
pub type FaultHandle = Arc<dyn FaultIo>;

/// The default policy: every operation is approved, nothing faults.
#[derive(Debug)]
struct Passthrough;

impl FaultIo for Passthrough {
    fn check_write(&self, len: usize) -> io::Result<usize> {
        Ok(len)
    }

    fn check_sync(&self) -> io::Result<()> {
        Ok(())
    }
}

/// A handle that never injects anything — production default.
pub fn passthrough() -> FaultHandle {
    Arc::new(Passthrough)
}

/// How a [`FaultSchedule`] decides which operations fault.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Fault roughly one in `period` operations, chosen by the seeded
    /// SplitMix64 draw; the draw's high bits pick the [`FaultKind`].
    Sampled { seed: u64, period: u64 },
    /// Fail exactly the `nth` sync (1-based); writes pass through.
    SyncAt { nth: u64 },
    /// Fail exactly the `nth` write (1-based) with `kind`.
    WriteAt { nth: u64, kind: FaultKind },
}

/// A deterministic, counter-based fault schedule.
///
/// Every consultation (write or sync) advances a shared operation
/// counter; whether that operation faults is a pure function of the
/// schedule parameters and the counter value. Two runs driving the
/// same operation sequence through the same schedule therefore fault
/// identically — a failing run is replayable from `(seed, op count)`.
#[derive(Debug)]
pub struct FaultSchedule {
    mode: Mode,
    ops: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
    injected: AtomicU64,
}

impl FaultSchedule {
    fn new(mode: Mode) -> Self {
        Self {
            mode,
            ops: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// A seeded sampling schedule: roughly one in `period` operations
    /// faults (writes draw EIO/ENOSPC/short-write, syncs fail their
    /// fsync). `period = 0` never faults.
    pub fn sampled(seed: u64, period: u64) -> Self {
        Self::new(Mode::Sampled { seed, period })
    }

    /// A scripted schedule failing exactly the `nth` sync (1-based).
    pub fn fsync_at(nth: u64) -> Self {
        Self::new(Mode::SyncAt { nth })
    }

    /// A scripted schedule failing exactly the `nth` write (1-based)
    /// with the given kind ([`FaultKind::FailedFsync`] is treated as
    /// EIO here — syncs are scripted via [`FaultSchedule::fsync_at`]).
    pub fn write_at(nth: u64, kind: FaultKind) -> Self {
        Self::new(Mode::WriteAt { nth, kind })
    }

    /// Total operations (writes + syncs) consulted so far — together
    /// with the seed, enough to replay the run.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// How many faults the schedule has injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn inject(&self, kind: FaultKind, op: u64) -> io::Error {
        self.injected.fetch_add(1, Ordering::Relaxed);
        let obs = crate::obs::global();
        obs.inc(&obs.counters.fault_injected);
        obs.trace("fault.injected");
        io::Error::other(format!("injected {kind} (op {op})"))
    }
}

impl FaultIo for FaultSchedule {
    fn check_write(&self, len: usize) -> io::Result<usize> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let write = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        let kind = match self.mode {
            Mode::Sampled { seed, period } => {
                let draw = fault_draw(seed, op);
                if period == 0 || !draw.is_multiple_of(period) {
                    return Ok(len);
                }
                match (draw >> 32) % 3 {
                    0 => FaultKind::Eio,
                    1 => FaultKind::Enospc,
                    _ => FaultKind::ShortWrite,
                }
            }
            Mode::SyncAt { .. } => return Ok(len),
            Mode::WriteAt { nth, kind } => {
                if write != nth {
                    return Ok(len);
                }
                kind
            }
        };
        match kind {
            FaultKind::ShortWrite if len > 1 => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                let obs = crate::obs::global();
                obs.inc(&obs.counters.fault_injected);
                obs.trace("fault.injected");
                Ok(len / 2)
            }
            // A 1-byte (or empty) write has no non-empty strict prefix
            // to tear: approving 0 bytes would surface as `WriteZero`
            // (or spin a raw retry loop) instead of the armed torn
            // error, so the tear degrades to a whole-write EIO.
            FaultKind::ShortWrite => Err(self.inject(FaultKind::Eio, op)),
            other => Err(self.inject(other, op)),
        }
    }

    fn check_sync(&self) -> io::Result<()> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let sync = self.syncs.fetch_add(1, Ordering::Relaxed) + 1;
        let fail = match self.mode {
            Mode::Sampled { seed, period } => {
                period > 0 && fault_draw(seed, op).is_multiple_of(period)
            }
            Mode::SyncAt { nth } => sync == nth,
            Mode::WriteAt { .. } => false,
        };
        if fail {
            Err(self.inject(FaultKind::FailedFsync, op))
        } else {
            Ok(())
        }
    }
}

/// A [`File`] whose writes and syncs consult a [`FaultIo`] handle.
///
/// A vetoed write fails before
/// any byte moves; a short write puts the approved prefix on disk and
/// honestly reports the shorter count — the *next* write on the file is
/// the one that fails, exactly like a disk that tore a write and then
/// refused the continuation. Looping callers (`write_all`,
/// `BufWriter::flush`) therefore always see the error before any sync
/// can acknowledge, while a buffered writer is never tricked into
/// re-writing a prefix that already landed (which would duplicate bytes
/// mid-file instead of tearing the tail). A vetoed sync fails without
/// syncing, so whether the data is durable is — exactly as with a real
/// fsync failure — unknowable to the caller.
#[derive(Debug)]
pub struct CheckedFile {
    file: File,
    faults: FaultHandle,
    /// Set by an injected short write; the next write fails and clears it.
    torn: bool,
}

impl CheckedFile {
    /// Wraps `file` so its writes and syncs consult `faults`.
    pub fn new(file: File, faults: FaultHandle) -> Self {
        Self {
            file,
            faults,
            torn: false,
        }
    }

    /// Flushes file data (not necessarily metadata) to the device,
    /// consulting the fault policy first.
    pub fn sync_data(&self) -> io::Result<()> {
        self.faults.check_sync()?;
        self.file.sync_data()
    }

    /// Flushes file data and metadata to the device, consulting the
    /// fault policy first.
    pub fn sync_all(&self) -> io::Result<()> {
        self.faults.check_sync()?;
        self.file.sync_all()
    }

    /// The fault policy this file consults.
    pub fn faults(&self) -> &FaultHandle {
        &self.faults
    }
}

impl Write for CheckedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.torn {
            self.torn = false;
            return Err(io::Error::other(
                "injected short write: the continuation after the torn prefix fails",
            ));
        }
        let allowed = self.faults.check_write(buf.len())?;
        if allowed >= buf.len() {
            return self.file.write(buf);
        }
        // A short write: the approved prefix reaches the disk — that is
        // the tear recovery has to cope with — and the shorter count is
        // reported honestly, so a buffered caller drops exactly those
        // bytes from its buffer. The follow-up write delivers the error.
        self.file.write_all(&buf[..allowed])?;
        self.torn = true;
        Ok(allowed)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// Runs `op` up to 3 times with a short doubling backoff, returning
/// the first success or the last error.
///
/// Only for operations that are safe to repeat wholesale, such as
/// atomic file replacement (each attempt builds a fresh tmp sibling).
/// Never used for WAL fsync — see the fsync-poisoning rule in
/// [`crate::stream`].
pub fn with_retry<T, E>(mut op: impl FnMut() -> Result<T, E>) -> Result<T, E> {
    let mut backoff = Duration::from_millis(1);
    let mut last = op();
    for _ in 1..RETRY_ATTEMPTS {
        if last.is_ok() {
            return last;
        }
        std::thread::sleep(backoff);
        backoff *= 2;
        last = op();
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rp-fault-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn sampled_schedule_is_a_pure_function_of_seed_and_op() {
        let a = FaultSchedule::sampled(42, 5);
        let b = FaultSchedule::sampled(42, 5);
        let mut outcomes_a = Vec::new();
        let mut outcomes_b = Vec::new();
        for _ in 0..200 {
            outcomes_a.push(a.check_write(64).map_err(|e| e.to_string()));
            outcomes_b.push(b.check_write(64).map_err(|e| e.to_string()));
            outcomes_a.push(a.check_sync().map_err(|e| e.to_string()).map(|()| 0));
            outcomes_b.push(b.check_sync().map_err(|e| e.to_string()).map(|()| 0));
        }
        assert_eq!(outcomes_a, outcomes_b);
        assert!(a.injected() > 0, "period 5 over 400 ops must fault");
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn sampled_schedule_draws_every_fault_kind() {
        let schedule = FaultSchedule::sampled(7, 3);
        let mut kinds = std::collections::BTreeSet::new();
        for _ in 0..500 {
            match schedule.check_write(64) {
                Ok(n) if n < 64 => {
                    kinds.insert("short");
                }
                Err(e) if e.to_string().contains("EIO") => {
                    kinds.insert("eio");
                }
                Err(_) => {
                    kinds.insert("enospc");
                }
                Ok(_) => {}
            }
            if schedule.check_sync().is_err() {
                kinds.insert("fsync");
            }
        }
        assert_eq!(kinds.len(), 4, "saw only {kinds:?}");
    }

    #[test]
    fn scripted_fsync_at_fails_exactly_the_nth_sync() {
        let schedule = FaultSchedule::fsync_at(3);
        assert!(schedule.check_write(10).is_ok(), "writes pass through");
        assert!(schedule.check_sync().is_ok());
        assert!(schedule.check_sync().is_ok());
        assert!(schedule.check_sync().is_err(), "third sync fails");
        assert!(schedule.check_sync().is_ok(), "and only the third");
        assert_eq!(schedule.injected(), 1);
    }

    #[test]
    fn checked_file_short_write_leaves_the_prefix_on_disk() {
        let path = tmp("short-write");
        let schedule = Arc::new(FaultSchedule::write_at(1, FaultKind::ShortWrite));
        let mut file = CheckedFile::new(std::fs::File::create(&path).unwrap(), schedule.clone());
        // The torn call reports the landed prefix honestly; the error
        // arrives on the continuation, before any sync could ack.
        let landed = file.write(b"0123456789").unwrap();
        assert_eq!(landed, 5, "the approved prefix is reported, not the ask");
        let err = file.write(b"56789").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        // One failure per tear: a retried continuation goes through.
        file.write_all(b"56789").unwrap();
        file.flush().unwrap();
        drop(file);
        assert_eq!(std::fs::read(&path).unwrap(), b"0123456789");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_short_write_on_a_one_byte_buffer_fails_whole_instead_of_ok_zero() {
        // Ok(0) would surface as `WriteZero` from `write_all` (or spin a
        // raw retry loop) without ever reaching the armed torn error.
        let schedule = FaultSchedule::write_at(1, FaultKind::ShortWrite);
        let err = schedule.check_write(1).unwrap_err();
        assert!(err.to_string().contains("EIO"), "{err}");
        assert_eq!(schedule.injected(), 1);

        let path = tmp("short-write-one-byte");
        let schedule = Arc::new(FaultSchedule::write_at(1, FaultKind::ShortWrite));
        let mut file = CheckedFile::new(std::fs::File::create(&path).unwrap(), schedule);
        let err = file.write_all(b"x").unwrap_err();
        assert!(err.to_string().contains("EIO"), "{err}");
        file.write_all(b"x").unwrap();
        file.flush().unwrap();
        drop(file);
        assert_eq!(std::fs::read(&path).unwrap(), b"x");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn passthrough_checked_file_behaves_like_a_plain_file() {
        let path = tmp("passthrough");
        let mut file = CheckedFile::new(std::fs::File::create(&path).unwrap(), passthrough());
        file.write_all(b"hello").unwrap();
        file.flush().unwrap();
        file.sync_data().unwrap();
        file.sync_all().unwrap();
        drop(file);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn with_retry_absorbs_transient_failures_and_reports_persistent_ones() {
        let mut attempts = 0;
        let result: Result<u32, &str> = with_retry(|| {
            attempts += 1;
            if attempts < 3 {
                Err("transient")
            } else {
                Ok(attempts)
            }
        });
        assert_eq!(result, Ok(3), "third attempt succeeds");

        let mut attempts = 0;
        let result: Result<u32, &str> = with_retry(|| {
            attempts += 1;
            Err("persistent")
        });
        assert_eq!(result, Err("persistent"));
        assert_eq!(attempts, 3, "bounded: exactly three attempts");
    }
}
