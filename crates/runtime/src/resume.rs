//! How far a session durably got, without recovering it.
//!
//! Recovery itself — reading, checksumming and decoding the newest valid
//! snapshot, then positioning state and RNG — happens once per run inside
//! [`sops_chains::run_supervised`]. Callers that only need the resume
//! step for telemetry or a session manifest read it from snapshot
//! filenames here.

use sops_chains::checkpoint::CheckpointStore;

use crate::error::JobError;

/// The step count of the newest snapshot *named* in `store`, read from
/// filenames alone — no payload is decoded or validated, so this is the
/// cheap telemetry-grade answer ("how far did this session durably
/// get?"), not a recovery decision. [`sops_chains::run_supervised`]
/// performs the actual recovery, falling back past corrupt snapshots.
///
/// # Errors
///
/// Returns [`JobError::Io`] when the store directory cannot be listed.
pub fn last_durable_step(store: &CheckpointStore) -> Result<Option<u64>, JobError> {
    let mut newest = None;
    for path in store.list()? {
        let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Some(step) = name
            .strip_prefix("step-")
            .and_then(|d| d.parse::<u64>().ok())
        else {
            continue;
        };
        newest = newest.max(Some(step));
    }
    Ok(newest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(label: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sops-resume-{label}-{}", std::process::id()))
    }

    #[test]
    fn last_durable_step_names_the_newest_snapshot() {
        let dir = scratch("newest");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, 3).unwrap();
        assert_eq!(last_durable_step(&store).unwrap(), None);
        for step in [1_000u64, 3_000, 2_000] {
            store
                .save_parts(step, step / 4, &[0u8; 32], &[(0, 0.0)], &step)
                .unwrap();
        }
        assert_eq!(last_durable_step(&store).unwrap(), Some(3_000));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
