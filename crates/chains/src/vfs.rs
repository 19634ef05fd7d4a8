//! Storage virtualization and deterministic fault injection.
//!
//! [`CheckpointStore`](crate::CheckpointStore) performs every I/O operation
//! through the [`Vfs`] trait rather than calling `std::fs` directly. Two
//! implementations exist:
//!
//! * [`RealVfs`] — the production backend, a thin mapping onto `std::fs`
//!   that additionally knows how to fsync a *directory* (required for
//!   rename durability on POSIX filesystems);
//! * [`FaultyVfs`] — a deterministic in-memory filesystem that models
//!   crash-consistency semantics: data written but never fsynced may be
//!   lost or torn at a crash, a rename is volatile until its directory is
//!   fsynced, and any individual operation can be made to fail with
//!   `ENOSPC` or a simulated process kill.
//!
//! # The crash model
//!
//! [`FaultyVfs`] tracks, per file, both the *live* content (what the
//! process observes through subsequent reads) and the *durable* content
//! (what a crash is guaranteed to preserve):
//!
//! * [`Vfs::create`] / [`Vfs::write`] change only the live content;
//! * [`Vfs::sync`] promotes the live content to durable and makes the
//!   file's directory entry durable (the behavior of ext4-like journaling
//!   filesystems, where fsyncing a freshly created file also persists its
//!   name);
//! * [`Vfs::rename`] moves the live entry but leaves the durable image
//!   untouched: until [`Vfs::sync_dir`] runs, a crash rolls the rename
//!   back (the old name reappears with its last-synced content, the new
//!   name vanishes);
//! * [`Vfs::remove`] likewise becomes durable only at the next
//!   [`Vfs::sync_dir`] — a crash may resurrect pruned files.
//!
//! [`FaultyVfs::crash`] rebuilds the live state from the durable image
//! under a chosen [`CrashStyle`] — dropping unsynced data, tearing it at a
//! byte offset, or flipping a bit — exactly as a kill at that instant
//! could. The crash-point fuzzer (see `tests/crash_fuzzer.rs`) iterates
//! [`FaultyVfs::kill_after`] over every operation index of a checkpointed
//! run and asserts recovery always lands on a valid, bitwise-correct prior
//! snapshot.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The filesystem operations the checkpoint store needs, abstracted so
/// storage faults can be injected deterministically in tests.
///
/// All methods operate on whole files: the store writes each snapshot in
/// one `create` / `write` / `sync` / `rename` / `sync_dir` sequence, and
/// the seam exposes each of those steps as a separate operation so a
/// simulated crash can land between any two of them.
pub trait Vfs: Send + Sync {
    /// Creates (or truncates) an empty file.
    fn create(&self, path: &Path) -> io::Result<()>;

    /// Replaces the content of an existing file.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Fsyncs a file: its current content (and, per the ext4-like model,
    /// its directory entry) survive a crash.
    fn sync(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames a file. Volatile until [`Vfs::sync_dir`].
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Fsyncs a directory, making completed renames and removals in it
    /// durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Lists the files directly inside `dir` (full paths, unsorted).
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Removes a file. Durable at the next [`Vfs::sync_dir`].
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Creates a directory and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

/// The production [`Vfs`]: a direct mapping onto `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn create(&self, path: &Path) -> io::Result<()> {
        fs::File::create(path).map(|_| ())
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(path)?;
        f.write_all(data)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        fs::OpenOptions::new().write(true).open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it is the POSIX way
        // to persist its entries; on platforms where directories cannot be
        // opened this degrades to a no-op rather than failing the save.
        match fs::File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        Ok(fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }
}

/// How a [`FaultyVfs::crash`] treats file content that was written but
/// never fsynced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashStyle {
    /// Unsynced data and unsynced directory entries vanish entirely —
    /// the conventional "nothing survives without fsync" reading.
    DropUnsynced,
    /// Unsynced files survive under their live name but torn: truncated
    /// to at most `keep` bytes. Models a journal flush racing the kill.
    TornUnsynced {
        /// Maximum number of leading bytes that survive.
        keep: usize,
    },
    /// Unsynced files survive full-length but with `mask` XORed into the
    /// byte at `flip_at` (modulo the file length). Models sector-level
    /// corruption of an in-flight write.
    CorruptUnsynced {
        /// Byte offset to corrupt (taken modulo the file length).
        flip_at: usize,
        /// Bit mask XORed into that byte (0 degrades to no corruption).
        mask: u8,
    },
}

#[derive(Clone, Debug, Default)]
struct MemFile {
    /// What the process sees through [`Vfs::read`].
    data: Vec<u8>,
    /// Content guaranteed to survive a crash (set by [`Vfs::sync`]).
    synced: Option<Vec<u8>>,
    /// Whether this *name* survives a crash.
    name_durable: bool,
}

#[derive(Debug, Default)]
struct MemState {
    files: BTreeMap<PathBuf, MemFile>,
    dirs: Vec<PathBuf>,
    /// Renamed-away or removed names whose durable content would reappear
    /// after a crash because no `sync_dir` has run since.
    ghosts: BTreeMap<PathBuf, Vec<u8>>,
}

/// A deterministic in-memory filesystem with crash semantics and fault
/// injection, for testing the checkpoint store's durability contract.
///
/// Thread-safe (all state behind a mutex) so it can back stores shared
/// across the sweep supervisor's worker threads.
#[derive(Default)]
pub struct FaultyVfs {
    state: Mutex<MemState>,
    ops: AtomicU64,
    /// Every operation with index ≥ this fails with a simulated kill.
    kill_after: AtomicU64,
    /// This single operation index fails with `ENOSPC` (transient).
    enospc_at: AtomicU64,
}

impl fmt::Debug for FaultyVfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyVfs")
            .field("ops", &self.ops.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

/// The error message carried by a simulated kill, so tests can tell a
/// planned crash from a genuine failure.
pub(crate) const SIMULATED_CRASH: &str = "simulated crash (FaultyVfs kill-point)";

impl FaultyVfs {
    /// A fresh, fault-free in-memory filesystem.
    #[must_use]
    pub fn new() -> Self {
        FaultyVfs {
            state: Mutex::new(MemState::default()),
            ops: AtomicU64::new(0),
            kill_after: AtomicU64::new(u64::MAX),
            enospc_at: AtomicU64::new(u64::MAX),
        }
    }

    /// Number of I/O operations performed so far (attempted operations
    /// count too — a failed op consumes an index).
    #[must_use]
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Arms the kill-point: every operation with index ≥ `n` (0-based)
    /// fails with `SIMULATED_CRASH`, as if the process died mid-run.
    pub fn kill_after(&self, n: u64) {
        self.kill_after.store(n, Ordering::SeqCst);
    }

    /// Arms a one-shot `ENOSPC`: the operation with exactly index `n`
    /// fails with `StorageFull`; later operations proceed normally.
    pub fn enospc_at(&self, n: u64) {
        self.enospc_at.store(n, Ordering::SeqCst);
    }

    /// Simulates the machine dying and rebooting: rebuilds the live state
    /// from the durable image under `style`, disarms all fault points, and
    /// resets the operation counter. After this call the filesystem holds
    /// exactly what a real crash at this instant could have left behind.
    pub fn crash(&self, style: CrashStyle) {
        let mut st = self.state.lock().expect("vfs mutex");
        let mut survivors: BTreeMap<PathBuf, MemFile> = BTreeMap::new();
        for (path, file) in std::mem::take(&mut st.files) {
            let content = match (&file.synced, file.name_durable, style) {
                // Synced content always survives under a durable name.
                (Some(synced), true, _) => Some(synced.clone()),
                // Unsynced content under a durable name: style decides.
                (None, true, CrashStyle::DropUnsynced) => None,
                (None, true, CrashStyle::TornUnsynced { keep }) => {
                    Some(file.data[..keep.min(file.data.len())].to_vec())
                }
                (None, true, CrashStyle::CorruptUnsynced { flip_at, mask }) => {
                    let mut data = file.data.clone();
                    if !data.is_empty() {
                        let at = flip_at % data.len();
                        data[at] ^= mask;
                    }
                    Some(data)
                }
                // Name never made durable: under the lenient styles the
                // entry may still have hit the journal (torn/corrupt), so
                // treat it like an unsynced durable name; under the strict
                // style it vanishes.
                (_, false, CrashStyle::DropUnsynced) => None,
                (_, false, CrashStyle::TornUnsynced { keep }) => {
                    Some(file.data[..keep.min(file.data.len())].to_vec())
                }
                (_, false, CrashStyle::CorruptUnsynced { flip_at, mask }) => {
                    let mut data = file.data.clone();
                    if !data.is_empty() {
                        let at = flip_at % data.len();
                        data[at] ^= mask;
                    }
                    Some(data)
                }
            };
            if let Some(data) = content {
                survivors.insert(
                    path,
                    MemFile {
                        data: data.clone(),
                        synced: Some(data),
                        name_durable: true,
                    },
                );
            }
        }
        // Unsynced renames / removals roll back: the old durable names
        // reappear with their last-synced content (unless the crash image
        // already holds that name).
        for (path, data) in std::mem::take(&mut st.ghosts) {
            survivors.entry(path).or_insert_with(|| MemFile {
                data: data.clone(),
                synced: Some(data),
                name_durable: true,
            });
        }
        st.files = survivors;
        drop(st);
        self.kill_after.store(u64::MAX, Ordering::SeqCst);
        self.enospc_at.store(u64::MAX, Ordering::SeqCst);
        self.ops.store(0, Ordering::SeqCst);
    }

    /// The live content of `path`, if it exists (test inspection).
    #[must_use]
    pub fn peek(&self, path: &Path) -> Option<Vec<u8>> {
        let st = self.state.lock().expect("vfs mutex");
        st.files.get(path).map(|f| f.data.clone())
    }

    /// Charges one operation against the fault schedule.
    fn charge(&self) -> io::Result<()> {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        if op >= self.kill_after.load(Ordering::SeqCst) {
            return Err(io::Error::other(SIMULATED_CRASH));
        }
        if op == self.enospc_at.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "simulated ENOSPC (FaultyVfs)",
            ));
        }
        Ok(())
    }
}

impl Vfs for FaultyVfs {
    fn create(&self, path: &Path) -> io::Result<()> {
        self.charge()?;
        let mut st = self.state.lock().expect("vfs mutex");
        st.files.insert(path.to_path_buf(), MemFile::default());
        Ok(())
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.charge()?;
        let mut st = self.state.lock().expect("vfs mutex");
        let file = st.files.get_mut(path).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
        })?;
        file.data = data.to_vec();
        file.synced = None;
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.charge()?;
        let mut st = self.state.lock().expect("vfs mutex");
        let file = st.files.get_mut(path).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
        })?;
        file.synced = Some(file.data.clone());
        file.name_durable = true;
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.charge()?;
        let mut st = self.state.lock().expect("vfs mutex");
        let file = st.files.remove(from).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("{}", from.display()))
        })?;
        // A durable old name survives a crash until the directory syncs.
        if file.name_durable {
            if let Some(synced) = &file.synced {
                st.ghosts.insert(from.to_path_buf(), synced.clone());
            }
        }
        st.files.insert(
            to.to_path_buf(),
            MemFile {
                name_durable: false,
                ..file
            },
        );
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.charge()?;
        let mut st = self.state.lock().expect("vfs mutex");
        st.ghosts.retain(|p, _| p.parent() != Some(dir));
        for (path, file) in st.files.iter_mut() {
            if path.parent() == Some(dir) {
                file.name_durable = true;
            }
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.charge()?;
        let st = self.state.lock().expect("vfs mutex");
        st.files
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display())))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.charge()?;
        let st = self.state.lock().expect("vfs mutex");
        Ok(st
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.charge()?;
        let mut st = self.state.lock().expect("vfs mutex");
        let file = st.files.remove(path).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
        })?;
        if file.name_durable {
            if let Some(synced) = file.synced {
                st.ghosts.insert(path.to_path_buf(), synced);
            }
        }
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.charge()?;
        let mut st = self.state.lock().expect("vfs mutex");
        let dir = dir.to_path_buf();
        if !st.dirs.contains(&dir) {
            st.dirs.push(dir);
        }
        Ok(())
    }
}

/// Writes `data` to `path` with the crash-safe discipline: temp-file
/// create → write → fsync → atomic rename → directory fsync. A crash at
/// any intermediate operation leaves either the previous content of
/// `path` (still durable) or a `*.tmp` orphan that [`reap_tmp_files`]
/// removes on recovery — never a torn `path`.
///
/// This is the one persistence primitive: [`CheckpointStore`] writes
/// every snapshot through it, and session manifests use it directly.
/// Nothing stops a write part-way: once started, it runs the whole
/// sequence or fails with the first failing operation.
///
/// [`CheckpointStore`]: crate::CheckpointStore
///
/// # Errors
///
/// Propagates the first failing [`Vfs`] operation; `path` must have a
/// file name and a parent directory that already exists.
pub fn write_atomic(vfs: &dyn Vfs, path: &Path, data: &[u8]) -> io::Result<()> {
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("write_atomic target has no file name: {}", path.display()),
            )
        })?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    vfs.create(&tmp)?;
    vfs.write(&tmp, data)?;
    vfs.sync(&tmp)?;
    vfs.rename(&tmp, path)?;
    // The rename only becomes durable once the directory entry is
    // flushed; without this a crash can silently drop a write the caller
    // was told is safe.
    if let Some(parent) = path.parent() {
        vfs.sync_dir(parent)?;
    }
    Ok(())
}

/// Removes every `*.tmp` orphan directly inside `dir` and returns the
/// reaped paths (sorted). Orphans are the residue of a crash between
/// [`write_atomic`]'s temp-file creation and its rename; they carry no
/// recoverable data and are safe to delete unconditionally.
///
/// # Errors
///
/// Propagates a failed directory listing; individual removals that race
/// with other cleanup are tolerated (`NotFound` is ignored).
pub fn reap_tmp_files(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut reaped = Vec::new();
    for path in vfs.list(dir)? {
        if path.extension().is_some_and(|e| e == "tmp") {
            match vfs.remove(&path) {
                Ok(()) => reaped.push(path),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
    }
    reaped.sort();
    Ok(reaped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn write_atomic_survives_a_crash_at_every_kill_point() {
        // Establish a durable prior version, then re-write it and crash at
        // every operation index: the live view after the crash must be
        // either the old or the new content, never a torn intermediate.
        let probe = FaultyVfs::new();
        probe.create_dir_all(&p("/d")).unwrap();
        write_atomic(&probe, &p("/d/m"), b"old").unwrap();
        let base = probe.op_count();
        write_atomic(&probe, &p("/d/m"), b"newer").unwrap();
        let total = probe.op_count();

        for kill in base..total {
            let vfs = FaultyVfs::new();
            vfs.create_dir_all(&p("/d")).unwrap();
            write_atomic(&vfs, &p("/d/m"), b"old").unwrap();
            vfs.kill_after(kill);
            let err = write_atomic(&vfs, &p("/d/m"), b"newer").unwrap_err();
            assert!(err.to_string().contains("simulated crash"), "{err}");
            vfs.crash(CrashStyle::DropUnsynced);
            // Three recoverable outcomes, never a torn target: the old
            // content (kill before the rename), the new content (kill
            // after sync_dir's effect was already journaled), or no file
            // at all — FaultyVfs models a rename that *overwrites* a
            // durable name as volatile until sync_dir, so a kill inside
            // that window loses the entry. Callers treat a missing or
            // checksum-invalid record as "unknown", which is why this
            // primitive suits manifests (re-creatable) and the snapshot
            // store uses unique names (never overwrites).
            match vfs.read(&p("/d/m")) {
                Ok(live) => assert!(
                    live == b"old" || live == b"newer",
                    "kill at op {kill} left torn content {live:?}"
                ),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::NotFound, "kill at op {kill}: {e}"),
            }
            let orphans = reap_tmp_files(&vfs, &p("/d")).unwrap();
            assert!(orphans.len() <= 1);
            for orphan in orphans {
                assert!(orphan.extension().is_some_and(|e| e == "tmp"));
            }
        }
    }

    #[test]
    fn write_atomic_round_trips_and_reap_removes_only_tmp() {
        let vfs = FaultyVfs::new();
        vfs.create_dir_all(&p("/d")).unwrap();
        write_atomic(&vfs, &p("/d/keep"), b"payload").unwrap();
        vfs.create(&p("/d/orphan.tmp")).unwrap();
        let reaped = reap_tmp_files(&vfs, &p("/d")).unwrap();
        assert_eq!(reaped, vec![p("/d/orphan.tmp")]);
        assert_eq!(vfs.read(&p("/d/keep")).unwrap(), b"payload");
        assert!(vfs.read(&p("/d/orphan.tmp")).is_err());
    }

    #[test]
    fn synced_content_survives_any_crash_style() {
        for style in [
            CrashStyle::DropUnsynced,
            CrashStyle::TornUnsynced { keep: 1 },
            CrashStyle::CorruptUnsynced {
                flip_at: 0,
                mask: 0xff,
            },
        ] {
            let vfs = FaultyVfs::new();
            vfs.create(&p("/d/a")).unwrap();
            vfs.write(&p("/d/a"), b"hello").unwrap();
            vfs.sync(&p("/d/a")).unwrap();
            vfs.crash(style);
            assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"hello", "{style:?}");
        }
    }

    #[test]
    fn unsynced_content_is_dropped_torn_or_corrupted() {
        let make = || {
            let vfs = FaultyVfs::new();
            vfs.create(&p("/d/a")).unwrap();
            vfs.write(&p("/d/a"), b"hello").unwrap();
            vfs
        };
        let vfs = make();
        vfs.crash(CrashStyle::DropUnsynced);
        assert!(vfs.read(&p("/d/a")).is_err());

        let vfs = make();
        vfs.crash(CrashStyle::TornUnsynced { keep: 3 });
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"hel");

        let vfs = make();
        vfs.crash(CrashStyle::CorruptUnsynced {
            flip_at: 1,
            mask: 0x01,
        });
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"hdllo");
    }

    #[test]
    fn rename_rolls_back_without_dir_sync_and_holds_with_it() {
        // Without sync_dir: crash resurrects the old name, drops the new.
        let vfs = FaultyVfs::new();
        vfs.create(&p("/d/tmp")).unwrap();
        vfs.write(&p("/d/tmp"), b"snap").unwrap();
        vfs.sync(&p("/d/tmp")).unwrap();
        vfs.rename(&p("/d/tmp"), &p("/d/final")).unwrap();
        vfs.crash(CrashStyle::DropUnsynced);
        assert_eq!(vfs.read(&p("/d/tmp")).unwrap(), b"snap");
        assert!(vfs.read(&p("/d/final")).is_err());

        // With sync_dir: the rename is durable.
        let vfs = FaultyVfs::new();
        vfs.create(&p("/d/tmp")).unwrap();
        vfs.write(&p("/d/tmp"), b"snap").unwrap();
        vfs.sync(&p("/d/tmp")).unwrap();
        vfs.rename(&p("/d/tmp"), &p("/d/final")).unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        vfs.crash(CrashStyle::DropUnsynced);
        assert_eq!(vfs.read(&p("/d/final")).unwrap(), b"snap");
        assert!(vfs.read(&p("/d/tmp")).is_err());
    }

    #[test]
    fn removal_is_volatile_until_dir_sync() {
        let vfs = FaultyVfs::new();
        vfs.create(&p("/d/a")).unwrap();
        vfs.write(&p("/d/a"), b"old").unwrap();
        vfs.sync(&p("/d/a")).unwrap();
        vfs.remove(&p("/d/a")).unwrap();
        assert!(vfs.read(&p("/d/a")).is_err(), "live view sees the removal");
        vfs.crash(CrashStyle::DropUnsynced);
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"old", "removal rolled back");

        let vfs = FaultyVfs::new();
        vfs.create(&p("/d/a")).unwrap();
        vfs.write(&p("/d/a"), b"old").unwrap();
        vfs.sync(&p("/d/a")).unwrap();
        vfs.remove(&p("/d/a")).unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        vfs.crash(CrashStyle::DropUnsynced);
        assert!(vfs.read(&p("/d/a")).is_err(), "synced removal sticks");
    }

    #[test]
    fn kill_point_fails_every_subsequent_op() {
        let vfs = FaultyVfs::new();
        vfs.create(&p("/d/a")).unwrap();
        vfs.kill_after(1);
        let err = vfs.write(&p("/d/a"), b"x").unwrap_err();
        assert!(err.to_string().contains("simulated crash"), "{err}");
        assert!(vfs.read(&p("/d/a")).is_err(), "still dead");
    }

    #[test]
    fn enospc_is_transient() {
        let vfs = FaultyVfs::new();
        vfs.create(&p("/d/a")).unwrap();
        vfs.enospc_at(1);
        let err = vfs.write(&p("/d/a"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        vfs.write(&p("/d/a"), b"x").unwrap();
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"x");
    }

    #[test]
    fn list_scopes_to_directory() {
        let vfs = FaultyVfs::new();
        vfs.create(&p("/d/a")).unwrap();
        vfs.create(&p("/d/b")).unwrap();
        vfs.create(&p("/e/c")).unwrap();
        let mut names = vfs.list(&p("/d")).unwrap();
        names.sort();
        assert_eq!(names, vec![p("/d/a"), p("/d/b")]);
    }

    #[test]
    fn real_vfs_round_trips_and_renames() {
        let dir = std::env::temp_dir().join(format!("sops-vfs-test-{}", std::process::id()));
        let vfs = RealVfs;
        vfs.create_dir_all(&dir).unwrap();
        let tmp = dir.join("x.tmp");
        let fin = dir.join("x");
        vfs.create(&tmp).unwrap();
        vfs.write(&tmp, b"payload").unwrap();
        vfs.sync(&tmp).unwrap();
        vfs.rename(&tmp, &fin).unwrap();
        vfs.sync_dir(&dir).unwrap();
        assert_eq!(vfs.read(&fin).unwrap(), b"payload");
        assert!(vfs.list(&dir).unwrap().contains(&fin));
        vfs.remove(&fin).unwrap();
        assert!(vfs.read(&fin).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
