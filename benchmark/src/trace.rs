//! Span recording at the public seams of the crates under test.
//!
//! The benchmark never edits the program to trace it. It swaps in wrapper
//! types where the crates already take a trait object or generic:
//!
//! * [`Timed`] around the chain (`MarkovChain::run` → `core.kernel`) and
//!   around its state (`Auditable` → `core.audit`, `StateCodec` →
//!   `chains.codec.encode` / `chains.codec.decode`);
//! * [`MemVfs`] as the `Vfs` under every checkpoint and session store
//!   (`chains.vfs.<op>`, classified `checkpoint` or `manifest`);
//! * explicit spans the workloads open around `run_cells`, `run_chain`,
//!   each job payload, `submit*`, `open_with` and `recover_sessions`.
//!
//! The wrappers are always in place; recording is switched on only for
//! the measured phase of a traced run, so an untraced run pays one relaxed
//! atomic load per wrapped call — per chunk, never per step. Spans are
//! kept in per-thread memory and collected once, after the run.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rand::Rng;
use sops_chains::{Auditable, MarkovChain, Repairable, StateCodec, Vfs};

/// Owner id of a span that belongs to no job or cell.
pub const NO_OWNER: u64 = u64::MAX;
/// Parent id of a root span.
pub const NO_PARENT: u64 = 0;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.kernel` or `chains.vfs.write`.
    pub name: &'static str,
    /// For storage spans, `checkpoint` or `manifest`; empty otherwise.
    pub class: &'static str,
    /// Unique id (never [`NO_PARENT`]).
    pub id: u64,
    /// The enclosing span, or [`NO_PARENT`].
    pub parent: u64,
    /// The job or cell the span worked for, or [`NO_OWNER`].
    pub owner: u64,
    /// The recording thread.
    pub track: u32,
    /// Start, in nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the process epoch.
    pub end_ns: u64,
    /// Work count: steps for the kernel, bytes for codec and storage.
    pub n: u64,
    /// Secondary count: accepted steps for the kernel.
    pub m: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as one JSON line.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"class\": \"{}\", \"id\": {}, \"parent\": {}, \"job\": {}, \
             \"track\": {}, \"start_ns\": {}, \"end_ns\": {}, \"n\": {}, \"m\": {}}}",
            self.name,
            self.class,
            self.id,
            self.parent,
            if self.owner == NO_OWNER {
                "null".to_string()
            } else {
                self.owner.to_string()
            },
            self.track,
            self.start_ns,
            self.end_ns,
            self.n,
            self.m
        )
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);
static REGISTRY: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

/// Nanoseconds since the process epoch (the first call).
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Switches span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh span id.
#[must_use]
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

struct Local {
    buf: Arc<Mutex<Vec<Span>>>,
    track: u32,
    stack: RefCell<Vec<u64>>,
    owner: Cell<u64>,
}

impl Local {
    fn new() -> Self {
        let buf = Arc::new(Mutex::new(Vec::new()));
        REGISTRY
            .lock()
            .expect("span registry poisoned")
            .push(Arc::clone(&buf));
        Local {
            buf,
            track: NEXT_TRACK.fetch_add(1, Ordering::Relaxed),
            stack: RefCell::new(Vec::new()),
            owner: Cell::new(NO_OWNER),
        }
    }
}

thread_local! {
    static LOCAL: Local = Local::new();
}

/// Takes every span recorded so far, from every thread, sorted by start.
#[must_use]
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for buf in REGISTRY.lock().expect("span registry poisoned").iter() {
        all.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// An open span; it is recorded when dropped.
pub struct SpanGuard {
    span: Span,
}

impl SpanGuard {
    /// Sets the span's work counts.
    pub fn counts(&mut self, n: u64, m: u64) {
        self.span.n = n;
        self.span.m = m;
    }

    #[cfg(test)]
    fn id(&self) -> u64 {
        self.span.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.span.end_ns = now_ns();
        LOCAL.with(|l| {
            l.stack.borrow_mut().pop();
            l.buf
                .lock()
                .expect("span buffer poisoned")
                .push(self.span.clone());
        });
    }
}

/// Opens a span under the innermost open span of this thread, owned by
/// the thread's current owner; `None` while recording is off.
#[must_use]
pub fn span(name: &'static str) -> Option<SpanGuard> {
    span_owned(name, "", None)
}

fn span_owned(name: &'static str, class: &'static str, owner: Option<u64>) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    let id = next_id();
    Some(LOCAL.with(|l| {
        let mut stack = l.stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(NO_PARENT);
        stack.push(id);
        SpanGuard {
            span: Span {
                name,
                class,
                id,
                parent,
                owner: owner.unwrap_or_else(|| l.owner.get()),
                track: l.track,
                start_ns: now_ns(),
                end_ns: 0,
                n: 0,
                m: 0,
            },
        }
    }))
}

/// Restores the previous owner when dropped.
pub struct OwnerGuard(u64);

impl Drop for OwnerGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| l.owner.set(self.0));
    }
}

/// Makes `owner` the owner of spans this thread opens until the guard
/// drops.
#[must_use]
pub fn own(owner: u64) -> OwnerGuard {
    OwnerGuard(LOCAL.with(|l| l.owner.replace(owner)))
}

/// Measures what recording one span costs on this thread, in
/// nanoseconds, and discards the spans it recorded. Call before the
/// measured phase; it leaves recording off.
#[must_use]
pub fn cost_per_span_ns() -> f64 {
    const N: u64 = 20_000;
    set_enabled(true);
    let start = now_ns();
    for _ in 0..N {
        drop(span("calibration"));
    }
    let cost = (now_ns() - start) as f64 / N as f64;
    set_enabled(false);
    drop(drain());
    cost
}

/// Length of the union of `intervals` that falls inside `[lo, hi)`.
#[must_use]
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// A span's self time: its duration minus the part its children cover.
#[must_use]
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    span.1.saturating_sub(span.0) - covered(span.0, span.1, children)
}

/// A wrapper that times a chain's kernel or a state's audit and codec.
#[derive(Clone, Debug, PartialEq)]
pub struct Timed<T>(pub T);

impl<C: MarkovChain> MarkovChain for Timed<C> {
    type State = Timed<C::State>;

    fn step<R: Rng + ?Sized>(&self, state: &mut Self::State, rng: &mut R) -> bool {
        self.0.step(&mut state.0, rng)
    }

    fn run<R: Rng + ?Sized>(&self, state: &mut Self::State, steps: u64, rng: &mut R) -> u64 {
        let mut guard = span("core.kernel");
        let accepted = self.0.run(&mut state.0, steps, rng);
        if let Some(g) = guard.as_mut() {
            g.counts(steps, accepted);
        }
        accepted
    }
}

impl<S: StateCodec> StateCodec for Timed<S> {
    fn encode_state(&self) -> Vec<u8> {
        let mut guard = span("chains.codec.encode");
        let bytes = self.0.encode_state();
        if let Some(g) = guard.as_mut() {
            g.counts(bytes.len() as u64, 0);
        }
        bytes
    }

    fn decode_state(bytes: &[u8]) -> Result<Self, String> {
        let mut guard = span("chains.codec.decode");
        if let Some(g) = guard.as_mut() {
            g.counts(bytes.len() as u64, 0);
        }
        S::decode_state(bytes).map(Timed)
    }
}

impl<S: Auditable> Auditable for Timed<S> {
    fn audit_violations(&self) -> Vec<String> {
        let _guard = span("core.audit");
        self.0.audit_violations()
    }
}

impl<S: Repairable> Repairable for Timed<S> {
    fn repair_state(&mut self) -> Result<Vec<String>, Vec<String>> {
        self.0.repair_state()
    }
}

/// The benchmark's storage backend: an in-memory filesystem with tmpfs
/// semantics, every operation timed.
///
/// Files and directories live in process memory, so no device latency
/// (100–400 µs per fsync on a virtual disk, drifting between runs) or
/// journal stall of the host filesystem reaches numbers meant to show the
/// program's own work; `sync` and `sync_dir` are counted and timed, and,
/// as on tmpfs, force nothing. Operations fail as a POSIX filesystem's
/// would — `NotFound` for a missing file or parent directory — so the
/// stores run their real error paths.
#[derive(Debug, Default)]
pub struct MemVfs {
    tree: Mutex<Tree>,
}

#[derive(Debug, Default)]
struct Tree {
    files: HashMap<PathBuf, Vec<u8>>,
    /// Every directory, with the full paths of its entries.
    dirs: HashMap<PathBuf, BTreeSet<PathBuf>>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl Tree {
    /// Registers `path` in its parent directory, which must exist.
    fn link(&mut self, path: &Path) -> io::Result<()> {
        let parent = path.parent().ok_or_else(|| not_found(path))?;
        self.dirs
            .get_mut(parent)
            .ok_or_else(|| not_found(parent))?
            .insert(path.to_path_buf());
        Ok(())
    }

    fn unlink(&mut self, path: &Path) {
        if let Some(entries) = path.parent().and_then(|p| self.dirs.get_mut(p)) {
            entries.remove(path);
        }
    }
}

impl MemVfs {
    fn tree(&self) -> std::sync::MutexGuard<'_, Tree> {
        self.tree.lock().expect("in-memory filesystem poisoned")
    }

    fn op(name: &'static str, path: &Path) -> Option<SpanGuard> {
        if !enabled() {
            return None;
        }
        let class = if path.components().any(|c| c.as_os_str() == "manifests") {
            "manifest"
        } else {
            "checkpoint"
        };
        let own = LOCAL.with(|l| l.owner.get());
        let owner = if own == NO_OWNER {
            job_in_path(path)
        } else {
            Some(own)
        };
        span_owned(name, class, owner)
    }
}

/// The job a session path belongs to. Sessions are named `j<id>`, and the
/// service stores them as `<root>/manifests/j<id>-<hash>.session` and
/// `<root>/sessions/j<id>-<hash>/…`.
#[must_use]
pub fn job_in_path(path: &Path) -> Option<u64> {
    path.components().rev().take(2).find_map(|c| {
        let Component::Normal(part) = c else {
            return None;
        };
        let rest = part.to_str()?.strip_prefix('j')?;
        let digits = rest.split_once('-')?.0;
        if digits.is_empty() {
            return None;
        }
        digits.parse().ok()
    })
}

impl Vfs for MemVfs {
    fn create(&self, path: &Path) -> io::Result<()> {
        let _g = Self::op("chains.vfs.create", path);
        let mut tree = self.tree();
        tree.link(path)?;
        tree.files.insert(path.to_path_buf(), Vec::new());
        Ok(())
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut g = Self::op("chains.vfs.write", path);
        if let Some(g) = g.as_mut() {
            g.counts(data.len() as u64, 0);
        }
        let mut tree = self.tree();
        let file = tree.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.clear();
        file.extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let _g = Self::op("chains.vfs.sync", path);
        if self.tree().files.contains_key(path) {
            Ok(())
        } else {
            Err(not_found(path))
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let _g = Self::op("chains.vfs.rename", to);
        let mut tree = self.tree();
        if !tree.files.contains_key(from) {
            return Err(not_found(from));
        }
        tree.link(to)?;
        tree.unlink(from);
        let data = tree.files.remove(from).expect("checked above");
        tree.files.insert(to.to_path_buf(), data);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let _g = Self::op("chains.vfs.sync_dir", dir);
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut g = Self::op("chains.vfs.read", path);
        let data = self
            .tree()
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))?;
        if let Some(g) = g.as_mut() {
            g.counts(data.len() as u64, 0);
        }
        Ok(data)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let _g = Self::op("chains.vfs.list", dir);
        let tree = self.tree();
        let entries = tree.dirs.get(dir).ok_or_else(|| not_found(dir))?;
        Ok(entries.iter().cloned().collect())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let _g = Self::op("chains.vfs.remove", path);
        let mut tree = self.tree();
        tree.files.remove(path).ok_or_else(|| not_found(path))?;
        tree.unlink(path);
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let _g = Self::op("chains.vfs.create_dir_all", dir);
        let mut tree = self.tree();
        let missing: Vec<&Path> = dir
            .ancestors()
            .take_while(|a| !tree.dirs.contains_key(*a))
            .collect();
        for a in missing.into_iter().rev() {
            if tree.files.contains_key(a) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("{} is a file", a.display()),
                ));
            }
            tree.dirs.insert(a.to_path_buf(), BTreeSet::new());
            if let Some(parent) = a.parent() {
                if let Some(entries) = tree.dirs.get_mut(parent) {
                    entries.insert(a.to_path_buf());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (15, 30), (50, 60)]), 30);
        // Clipped to the parent's interval on both sides.
        assert_eq!(covered(10, 20, &[(0, 12), (18, 40)]), 4);
        // Nested and duplicate children count once.
        assert_eq!(covered(0, 100, &[(10, 90), (20, 30), (10, 90)]), 80);
        // Children entirely outside contribute nothing.
        assert_eq!(covered(10, 20, &[(0, 5), (25, 30)]), 0);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_time((100, 200), &[]), 100);
        assert_eq!(self_time((100, 200), &[(110, 150), (140, 160)]), 50);
        assert_eq!(self_time((100, 200), &[(90, 210)]), 0);
    }

    #[test]
    fn nested_spans_link_parent_and_owner() {
        // One test owns the global switch; others only use pure helpers.
        set_enabled(true);
        let (outer_id, inner_id) = {
            let _owner = own(42);
            let outer = span("outer").unwrap();
            let inner = span("inner").unwrap();
            let ids = (outer.id(), inner.id());
            drop(inner);
            drop(outer);
            ids
        };
        set_enabled(false);
        assert!(span("off").is_none());
        let spans: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.id == outer_id || s.id == inner_id)
            .collect();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.id == outer_id).unwrap();
        let inner = spans.iter().find(|s| s.id == inner_id).unwrap();
        assert_eq!(outer.parent, NO_PARENT);
        assert_eq!(inner.parent, outer_id);
        assert_eq!((outer.owner, inner.owner), (42, 42));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn mem_vfs_behaves_like_a_posix_filesystem() {
        let fs = MemVfs::default();
        let dir = Path::new("/r/sessions/j1-ab");
        let file = dir.join("step-1.ckpt.tmp");
        let done = dir.join("step-1.ckpt");
        assert_eq!(
            fs.create(&file).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        fs.create_dir_all(dir).unwrap();
        fs.create_dir_all(dir).unwrap();
        assert_eq!(
            fs.list(Path::new("/r/sessions")).unwrap(),
            vec![dir.to_path_buf()]
        );
        fs.create(&file).unwrap();
        fs.write(&file, b"abc").unwrap();
        fs.sync(&file).unwrap();
        fs.rename(&file, &done).unwrap();
        fs.sync_dir(dir).unwrap();
        assert_eq!(fs.list(dir).unwrap(), vec![done.clone()]);
        assert_eq!(fs.read(&done).unwrap(), b"abc");
        assert_eq!(fs.read(&file).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!(fs.sync(&file).unwrap_err().kind(), io::ErrorKind::NotFound);
        // Create truncates; rename replaces the target.
        fs.create(&file).unwrap();
        fs.rename(&file, &done).unwrap();
        assert_eq!(fs.read(&done).unwrap(), b"");
        fs.remove(&done).unwrap();
        assert!(fs.list(dir).unwrap().is_empty());
        assert_eq!(
            fs.remove(&done).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert_eq!(fs.list(&done).unwrap_err().kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn session_paths_name_their_job() {
        let p = Path::new("/s/manifests/j4294967301-1a2b3c4d.session.tmp");
        assert_eq!(job_in_path(p), Some(4_294_967_301));
        let p = Path::new("/s/sessions/j7-00ff00ff/step-00000000000000001000.ckpt");
        assert_eq!(job_in_path(p), Some(7));
        assert_eq!(job_in_path(Path::new("/s/sessions")), None);
        assert_eq!(job_in_path(Path::new("/s/j-x/jx-1")), None);
        // Only the last two components can name a session.
        assert_eq!(job_in_path(Path::new("/j9-x/manifests/m.session")), None);
    }
}
