//! Durable session state: per-session manifests (tenant, status, durable
//! progress) persisted next to the session's checkpoint
//! directory, written with the tmp+rename+fsync discipline and validated
//! with a checksum on every load.
//!
//! The checksum is not optional hygiene. Under the crash models the
//! chaos suite injects ([`sops_chains::FaultyVfs`] with torn or
//! corrupted unsynced writes), a crash mid-rename can leave *torn
//! content at the final manifest name*. Recovery must treat such a file
//! as absent-but-reported, never as truth — so every parse checks magic,
//! version, and an FNV-1a checksum of the body before believing a byte.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sops_chains::checkpoint::{CheckpointError, CheckpointStore};
use sops_chains::{fnv1a64, reap_tmp_files, write_atomic, CancelToken, Vfs};

/// Where a session is in its lifecycle, as recorded durably.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionStatus {
    /// Admitted but never yet dispatched.
    Pending,
    /// Dispatched to a worker. A manifest recovered in this state means
    /// the process died mid-job: the session is resumable from its
    /// newest durable checkpoint.
    Running,
    /// Finished its requested work.
    Completed,
    /// Terminated with a typed error.
    Failed,
    /// Evicted by drain, shutdown, or cancellation; resumable.
    Evicted,
}

impl SessionStatus {
    /// Stable machine-readable code (also the on-disk encoding).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            SessionStatus::Pending => "pending",
            SessionStatus::Running => "running",
            SessionStatus::Completed => "completed",
            SessionStatus::Failed => "failed",
            SessionStatus::Evicted => "evicted",
        }
    }

    fn parse(code: &str) -> Option<Self> {
        Some(match code {
            "pending" => SessionStatus::Pending,
            "running" => SessionStatus::Running,
            "completed" => SessionStatus::Completed,
            "failed" => SessionStatus::Failed,
            "evicted" => SessionStatus::Evicted,
            _ => return None,
        })
    }

    /// Whether a recovered manifest in this state should be offered for
    /// resumption. `Running` counts: it means the previous process died
    /// mid-job, which is precisely the crash-recovery case.
    #[must_use]
    pub(crate) fn is_resumable(self) -> bool {
        matches!(
            self,
            SessionStatus::Pending | SessionStatus::Running | SessionStatus::Evicted
        )
    }
}

/// The durable record of one session.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionManifest {
    /// Caller-chosen session id (unique per tenant).
    pub session: String,
    /// Owning tenant.
    pub tenant: String,
    /// The v1 layout's `priority` line. The service neither sets nor
    /// reads it: a new manifest holds what [`SessionManifest::new`] was
    /// given, and a loaded one keeps its value, so its bytes round-trip.
    pub priority: u8,
    /// Lifecycle state at last durable write.
    pub status: SessionStatus,
    /// Newest checkpoint step known durable when this was written.
    pub last_durable_step: Option<u64>,
    /// How many times the session has been dispatched.
    pub runs: u32,
    /// `JobError::kind()` of the terminal failure, when `status` is
    /// [`SessionStatus::Failed`].
    pub error_kind: Option<String>,
}

const MANIFEST_MAGIC: &str = "sops-session v1";

impl SessionManifest {
    /// A fresh manifest for a session that has never run; `priority` is
    /// written to the `priority` line as is.
    #[must_use]
    pub fn new(session: &str, tenant: &str, priority: u8) -> Self {
        SessionManifest {
            session: session.to_string(),
            tenant: tenant.to_string(),
            priority,
            status: SessionStatus::Pending,
            last_durable_step: None,
            runs: 0,
            error_kind: None,
        }
    }

    /// Serializes to the line-oriented v1 text form: a magic line, a
    /// checksum of everything after the checksum line, then `key value`
    /// lines. Session and tenant ids are the last token-free fields on
    /// their lines, so they may contain spaces but not newlines (rejected
    /// at save).
    #[must_use]
    pub(crate) fn to_text(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!("session {}\n", self.session));
        body.push_str(&format!("tenant {}\n", self.tenant));
        body.push_str(&format!("priority {}\n", self.priority));
        body.push_str(&format!("status {}\n", self.status.code()));
        match self.last_durable_step {
            Some(step) => body.push_str(&format!("last_durable_step {step}\n")),
            None => body.push_str("last_durable_step none\n"),
        }
        body.push_str(&format!("runs {}\n", self.runs));
        match &self.error_kind {
            Some(kind) => body.push_str(&format!("error_kind {kind}\n")),
            None => body.push_str("error_kind none\n"),
        }
        format!(
            "{MANIFEST_MAGIC}\nchecksum {:016x}\n{body}",
            fnv1a64(body.as_bytes())
        )
    }

    /// Parses and validates the v1 text form. Torn, truncated, corrupted,
    /// or future-versioned content is an error — recovery treats such
    /// manifests as rejected, not as sessions.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first validation failure.
    pub(crate) fn from_text(text: &str) -> Result<Self, String> {
        let Some((magic, rest)) = text.split_once('\n') else {
            return Err("manifest is a single line".to_string());
        };
        if magic != MANIFEST_MAGIC {
            return Err(format!("bad magic {magic:?}, want {MANIFEST_MAGIC:?}"));
        }
        let Some((checksum_line, body)) = rest.split_once('\n') else {
            return Err("manifest missing checksum line".to_string());
        };
        let declared = checksum_line
            .strip_prefix("checksum ")
            .ok_or_else(|| format!("bad checksum line {checksum_line:?}"))?;
        let declared =
            u64::from_str_radix(declared, 16).map_err(|e| format!("bad checksum hex: {e}"))?;
        let actual = fnv1a64(body.as_bytes());
        if declared != actual {
            return Err(format!(
                "checksum mismatch: declared {declared:016x}, body hashes to {actual:016x}"
            ));
        }
        let mut session = None;
        let mut tenant = None;
        let mut priority = None;
        let mut status = None;
        let mut last_durable_step = None;
        let mut runs = None;
        let mut error_kind = None;
        for line in body.lines() {
            let Some((key, value)) = line.split_once(' ') else {
                return Err(format!("bad manifest line {line:?}"));
            };
            match key {
                "session" => session = Some(value.to_string()),
                "tenant" => tenant = Some(value.to_string()),
                "priority" => {
                    priority = Some(
                        value
                            .parse::<u8>()
                            .map_err(|e| format!("bad priority: {e}"))?,
                    );
                }
                "status" => {
                    status = Some(
                        SessionStatus::parse(value)
                            .ok_or_else(|| format!("unknown status {value:?}"))?,
                    );
                }
                "last_durable_step" => {
                    last_durable_step = Some(if value == "none" {
                        None
                    } else {
                        Some(value.parse::<u64>().map_err(|e| format!("bad step: {e}"))?)
                    });
                }
                "runs" => runs = Some(value.parse::<u32>().map_err(|e| format!("bad runs: {e}"))?),
                "error_kind" => {
                    error_kind = Some(if value == "none" {
                        None
                    } else {
                        Some(value.to_string())
                    });
                }
                other => return Err(format!("unknown manifest key {other:?}")),
            }
        }
        Ok(SessionManifest {
            session: session.ok_or("missing session")?,
            tenant: tenant.ok_or("missing tenant")?,
            priority: priority.ok_or("missing priority")?,
            status: status.ok_or("missing status")?,
            last_durable_step: last_durable_step.ok_or("missing last_durable_step")?,
            runs: runs.ok_or("missing runs")?,
            error_kind: error_kind.ok_or("missing error_kind")?,
        })
    }
}

/// What a restart found on disk.
#[derive(Debug, Default)]
pub struct SessionRecovery {
    /// Manifests that parsed and validated.
    pub manifests: Vec<SessionManifest>,
    /// Manifest files that failed validation (torn/corrupt), with the
    /// reason — reported, never silently dropped.
    pub rejected: Vec<(PathBuf, String)>,
    /// Orphaned temp files reaped from the manifest directory.
    pub reaped: Vec<PathBuf>,
}

impl SessionRecovery {
    /// The recovered sessions that should resume (pending, running at
    /// crash time, or evicted-resumable).
    pub fn resumable(&self) -> impl Iterator<Item = &SessionManifest> {
        self.manifests.iter().filter(|m| m.status.is_resumable())
    }
}

/// Maps a session id to a filesystem-safe, collision-free stem:
/// sanitized printable characters plus an FNV-1a hash of the raw id, so
/// `a/b` and `a-b` never alias each other's state.
fn session_stem(session: &str) -> String {
    let safe: String = session
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    format!("{safe}-{:08x}", fnv1a64(session.as_bytes()) as u32)
}

/// The durable side of the job service: one manifest file per session
/// under `<root>/manifests/` (flat — the fault-injecting VFS lists only
/// direct children) and one checkpoint directory per session under
/// `<root>/sessions/`.
pub struct SessionStore {
    root: PathBuf,
    retain: usize,
    vfs: Arc<dyn Vfs>,
}

impl SessionStore {
    /// Opens (creating if needed) a session store rooted at `root` on
    /// `vfs` — the real filesystem, or the seam the chaos suite uses to
    /// crash the store at every I/O operation.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory layout.
    pub fn open_with(root: &Path, retain: usize, vfs: Arc<dyn Vfs>) -> io::Result<Self> {
        let store = SessionStore {
            root: root.to_path_buf(),
            retain: retain.max(1),
            vfs,
        };
        store.vfs.create_dir_all(&store.manifest_dir())?;
        store.vfs.create_dir_all(&store.root.join("sessions"))?;
        Ok(store)
    }

    fn manifest_dir(&self) -> PathBuf {
        self.root.join("manifests")
    }

    /// The manifest file for `session`.
    #[must_use]
    pub(crate) fn manifest_path(&self, session: &str) -> PathBuf {
        self.manifest_dir()
            .join(format!("{}.session", session_stem(session)))
    }

    /// The checkpoint directory for `session`.
    #[must_use]
    pub fn checkpoint_dir(&self, session: &str) -> PathBuf {
        self.root.join("sessions").join(session_stem(session))
    }

    /// Persists `manifest` atomically (tmp + write + fsync + rename +
    /// dir-fsync).
    ///
    /// # Errors
    ///
    /// I/O errors from any step; a failed save leaves either the old
    /// manifest or no manifest, never a torn one that validates.
    pub fn save(&self, manifest: &SessionManifest) -> io::Result<()> {
        if manifest.session.contains('\n') || manifest.tenant.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "session and tenant ids must not contain newlines",
            ));
        }
        write_atomic(
            self.vfs.as_ref(),
            &self.manifest_path(&manifest.session),
            manifest.to_text().as_bytes(),
            None,
        )
    }

    /// Loads and validates the manifest for `session`.
    ///
    /// # Errors
    ///
    /// `NotFound` when no manifest exists; `InvalidData` when the file
    /// exists but fails validation.
    pub fn load(&self, session: &str) -> io::Result<SessionManifest> {
        let path = self.manifest_path(session);
        let bytes = self.vfs.read(&path)?;
        let text = String::from_utf8(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        SessionManifest::from_text(&text).map_err(|reason| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid manifest {}: {reason}", path.display()),
            )
        })
    }

    /// Opens the per-session [`CheckpointStore`], optionally wired to a
    /// cancel token so in-flight checkpoint I/O aborts on eviction.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] creating the checkpoint directory.
    pub fn checkpoint_store(
        &self,
        session: &str,
        cancel: Option<CancelToken>,
    ) -> Result<CheckpointStore, CheckpointError> {
        let store = CheckpointStore::open_with(
            self.checkpoint_dir(session),
            self.retain,
            Arc::clone(&self.vfs),
        )?;
        Ok(match cancel {
            Some(token) => store.with_cancel(token),
            None => store,
        })
    }

    /// Rebuilds the session table from disk after a restart: reaps
    /// orphaned temp files, then parses and validates every manifest.
    /// Files that fail validation are reported in
    /// [`SessionRecovery::rejected`] — a torn manifest must never
    /// masquerade as a session, and must never be silently dropped
    /// either.
    ///
    /// # Errors
    ///
    /// Directory-level I/O errors only; per-file read or parse failures
    /// are classified into the recovery report instead.
    pub fn recover(&self) -> io::Result<SessionRecovery> {
        let dir = self.manifest_dir();
        let mut recovery = SessionRecovery {
            reaped: reap_tmp_files(self.vfs.as_ref(), &dir)?,
            ..SessionRecovery::default()
        };
        let mut paths: BTreeSet<PathBuf> = self.vfs.list(&dir)?.into_iter().collect();
        paths.retain(|p| p.extension().is_some_and(|e| e == "session"));
        for path in paths {
            let parsed = self
                .vfs
                .read(&path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| String::from_utf8(bytes).map_err(|e| e.to_string()))
                .and_then(|text| SessionManifest::from_text(&text));
            match parsed {
                Ok(manifest) => recovery.manifests.push(manifest),
                Err(reason) => recovery.rejected.push((path, reason)),
            }
        }
        recovery.manifests.sort_by(|a, b| a.session.cmp(&b.session));
        Ok(recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_chains::FaultyVfs;

    fn manifest() -> SessionManifest {
        SessionManifest {
            session: "acme/s-1".to_string(),
            tenant: "acme".to_string(),
            priority: 3,
            status: SessionStatus::Evicted,
            last_durable_step: Some(4_096),
            runs: 2,
            error_kind: None,
        }
    }

    #[test]
    fn manifest_text_codec_round_trips() {
        let m = manifest();
        let parsed = SessionManifest::from_text(&m.to_text()).unwrap();
        assert_eq!(parsed, m);
        let failed = SessionManifest {
            status: SessionStatus::Failed,
            last_durable_step: None,
            error_kind: Some("panic".to_string()),
            ..manifest()
        };
        assert_eq!(
            SessionManifest::from_text(&failed.to_text()).unwrap(),
            failed
        );
    }

    #[test]
    fn manifest_rejects_torn_and_tampered_content() {
        let text = manifest().to_text();
        // Torn write: any truncation must fail the checksum (or the
        // structure check), never parse as a shorter-but-valid manifest.
        for cut in 1..text.len() {
            assert!(
                SessionManifest::from_text(&text[..cut]).is_err(),
                "truncation at {cut} parsed"
            );
        }
        // Bit corruption in the body fails the checksum.
        let tampered = text.replace("priority 3", "priority 9");
        let err = SessionManifest::from_text(&tampered).unwrap_err();
        assert!(err.contains("checksum"), "got {err}");
        // Future versions are rejected, not misparsed.
        let future = text.replace("v1", "v2");
        assert!(SessionManifest::from_text(&future)
            .unwrap_err()
            .contains("magic"));
    }

    #[test]
    fn store_round_trips_and_recovers_sessions() {
        let vfs = Arc::new(FaultyVfs::new());
        let store = SessionStore::open_with(Path::new("/svc"), 2, vfs).unwrap();
        let m = manifest();
        store.save(&m).unwrap();
        assert_eq!(store.load("acme/s-1").unwrap(), m);
        let recovery = store.recover().unwrap();
        assert_eq!(recovery.manifests, vec![m]);
        assert!(recovery.rejected.is_empty());
        assert_eq!(recovery.resumable().count(), 1);
    }

    #[test]
    fn similar_session_ids_never_alias() {
        let a = session_stem("a/b");
        let b = session_stem("a-b");
        assert_ne!(a, b, "sanitization must not collide distinct sessions");
        // Stems name directories on disk: a hash drift would orphan every
        // existing session.
        assert_eq!(a, "a-b-0468cf61");
        assert_eq!(b, "a-b-04644883");
    }

    #[test]
    fn manifest_bytes_are_pinned() {
        assert_eq!(
            manifest().to_text(),
            "sops-session v1\nchecksum 8254af2eefbcbf7b\nsession acme/s-1\ntenant acme\n\
             priority 3\nstatus evicted\nlast_durable_step 4096\nruns 2\nerror_kind none\n"
        );
    }

    #[test]
    fn a_v1_manifest_with_status_shed_is_rejected_and_never_resumed() {
        // `shed` was a v1 status of overload shedding, which is gone: a
        // manifest that still carries it is reported, not resumed.
        let vfs = Arc::new(FaultyVfs::new());
        let store = SessionStore::open_with(Path::new("/svc"), 2, Arc::clone(&vfs) as _).unwrap();
        store.save(&manifest()).unwrap();
        let body = "session acme/s-2\ntenant acme\npriority 0\nstatus shed\n\
                    last_durable_step none\nruns 0\nerror_kind none\n";
        let text = format!(
            "{MANIFEST_MAGIC}\nchecksum {:016x}\n{body}",
            fnv1a64(body.as_bytes())
        );
        let shed = store.manifest_path("acme/s-2");
        vfs.create(&shed).unwrap();
        vfs.write(&shed, text.as_bytes()).unwrap();
        let recovery = store.recover().unwrap();
        assert_eq!(recovery.manifests, vec![manifest()]);
        assert_eq!(recovery.rejected.len(), 1);
        assert_eq!(recovery.rejected[0].0, shed);
        assert!(
            recovery.rejected[0].1.contains("unknown status \"shed\""),
            "got {}",
            recovery.rejected[0].1
        );
        let resumable: Vec<&str> = recovery.resumable().map(|m| m.session.as_str()).collect();
        assert_eq!(resumable, ["acme/s-1"]);
    }

    #[test]
    fn recovery_rejects_corrupt_manifests_and_reaps_orphans() {
        let vfs = Arc::new(FaultyVfs::new());
        let store = SessionStore::open_with(Path::new("/svc"), 2, Arc::clone(&vfs) as _).unwrap();
        store.save(&manifest()).unwrap();
        // Plant a torn manifest and an orphaned temp file, as a crash
        // mid-save would.
        let torn = Path::new("/svc/manifests/torn.session");
        vfs.create(torn).unwrap();
        vfs.write(
            torn,
            b"sops-session v1\nchecksum 0000000000000000\ngarbage\n",
        )
        .unwrap();
        let orphan = Path::new("/svc/manifests/dead.session.tmp");
        vfs.create(orphan).unwrap();
        let recovery = store.recover().unwrap();
        assert_eq!(recovery.manifests.len(), 1);
        assert_eq!(recovery.rejected.len(), 1);
        assert!(recovery.rejected[0].1.contains("checksum"));
        assert_eq!(recovery.reaped, vec![orphan.to_path_buf()]);
        // A second recovery is clean: the orphan is gone.
        assert!(store.recover().unwrap().reaped.is_empty());
    }
}
