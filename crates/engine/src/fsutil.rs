//! Crash-safe filesystem helpers shared by the persistent artifacts.
//!
//! Every durable file this crate owns (the publication artifact, a stream
//! snapshot, a compacted WAL) is replaced through the same three-step
//! dance: write the new content to a temporary sibling, force it to
//! stable storage, then atomically rename it over the target and sync
//! the parent directory so the *rename itself* is durable. A crash at
//! any byte of the sequence leaves either the complete old file or the
//! complete new one — never a torn mix, and never a clobbered
//! predecessor (`tests/stream_crash.rs` tortures this property).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::fault::{self, CheckedFile, FaultHandle};

/// The temporary sibling a pending atomic write goes to: `<path>.tmp`,
/// in the same directory so the final rename cannot cross filesystems.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Fsyncs the directory containing `path`, making a just-completed
/// rename (or file creation) durable. A path without a parent component
/// lives in the current directory.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// [`sync_parent_dir`] behind the fault facade: the directory fsync is
/// a durability point like any other, so an injected schedule can fail
/// it too.
pub(crate) fn sync_parent_dir_with(path: &Path, faults: &FaultHandle) -> io::Result<()> {
    faults.check_sync()?;
    sync_parent_dir(path)
}

/// Writes a file atomically and durably: `write` produces the content
/// into a buffered temp file in the target's directory, which is then
/// flushed, fsynced, renamed over `path`, and the parent directory
/// fsynced. On any error the temp file is removed and the previous
/// target (if one existed) is left untouched.
pub(crate) fn write_atomic<E: From<io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<CheckedFile>) -> Result<(), E>,
) -> Result<(), E> {
    write_atomic_with(path, &fault::passthrough(), write)
}

/// [`write_atomic`] behind the fault facade: every write to the temp
/// sibling, its fsync, and the directory fsync after the rename consult
/// `faults`. The failure contract is unchanged — on any error the temp
/// file is removed and the previous target is left untouched — which is
/// also what makes retrying a whole `write_atomic_with` safe: each
/// attempt starts from a fresh temp sibling.
pub(crate) fn write_atomic_with<E: From<io::Error>>(
    path: &Path,
    faults: &FaultHandle,
    write: impl FnOnce(&mut BufWriter<CheckedFile>) -> Result<(), E>,
) -> Result<(), E> {
    let tmp = tmp_sibling(path);
    let result = (|| {
        let file = CheckedFile::new(File::create(&tmp)?, std::sync::Arc::clone(faults));
        let mut writer = BufWriter::new(file);
        write(&mut writer)?;
        writer.flush()?;
        writer.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir_with(path, faults)?;
        Ok(())
    })();
    if result.is_err() {
        // Best-effort cleanup; the target was never touched.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rp-fsutil-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_and_survives_failures() {
        let path = tmp_dir().join("atomic.txt");
        write_atomic::<io::Error>(&path, |w| w.write_all(b"first")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        // A failing writer leaves the old content and no temp litter.
        let err = write_atomic::<io::Error>(&path, |w| {
            w.write_all(b"partial")?;
            Err(io::Error::other("boom"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "boom");
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        assert!(!tmp_sibling(&path).exists());
        // A second successful write replaces the content.
        write_atomic::<io::Error>(&path, |w| w.write_all(b"second")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
    }

    #[test]
    fn write_atomic_with_an_injected_fault_leaves_the_target_untouched() {
        use crate::fault::{FaultKind, FaultSchedule};
        let path = tmp_dir().join("faulted.txt");
        write_atomic::<io::Error>(&path, |w| w.write_all(b"stable")).unwrap();
        let faults: FaultHandle =
            std::sync::Arc::new(FaultSchedule::write_at(1, FaultKind::Enospc));
        let err =
            write_atomic_with::<io::Error>(&path, &faults, |w| w.write_all(b"doomed")).unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"stable", "old file intact");
        assert!(!tmp_sibling(&path).exists(), "no temp litter");
    }

    #[test]
    fn stale_tmp_from_a_crashed_writer_is_overwritten() {
        let path = tmp_dir().join("stale.txt");
        write_atomic::<io::Error>(&path, |w| w.write_all(b"good")).unwrap();
        // Simulate a crash that left a half-written temp sibling behind.
        std::fs::write(tmp_sibling(&path), b"torn garb").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"good", "target untouched");
        write_atomic::<io::Error>(&path, |w| w.write_all(b"newer")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"newer");
        assert!(!tmp_sibling(&path).exists());
    }
}
