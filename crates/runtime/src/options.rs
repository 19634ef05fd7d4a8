//! [`SweepOptions`] — the CLI surface and per-cell plumbing shared by
//! every sweep binary.
//!
//! Flags ([`SweepOptions::from_args`]): `--checkpoint-dir DIR` persists
//! per-cell snapshots there, `--resume` continues from them (without it a
//! fresh run clears stale cell state), `--audit-every N` re-verifies
//! configuration invariants from scratch every `N` steps, `--retries K`
//! bounds per-cell retry attempts, `--backoff-ms B` sets the base retry
//! backoff, `--no-telemetry` suppresses the per-cell JSONL metric
//! streams, `--adaptive` runs cells under the streaming convergence
//! engine (stop when mixed instead of burning the full budget), `--smoke`
//! (or env `SOPS_BENCH_SMOKE=1`) shrinks grids and budgets for CI, and the
//! [`crate::ResourceBudget`] flags: `--deadline-ms D` caps the sweep's
//! wall-clock time (each cell checks it before every chunk, so the chunk
//! in flight when it passes is finished and, with `--checkpoint-dir`,
//! persisted), `--max-steps N` caps chain steps per cell,
//! `--max-rollbacks R` bounds the recovery ladder.

use std::path::{Path, PathBuf};

use sops_chains::{CheckpointError, CheckpointStore, JsonlSink, RunManifest};

use crate::backoff::BackoffPolicy;
use crate::budget::ResourceBudget;
use crate::error::ConfigError;

/// Runtime options shared by every sweep binary.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepOptions {
    /// Where to persist per-cell checkpoints; `None` disables snapshots.
    pub checkpoint_dir: Option<PathBuf>,
    /// Whether to resume from existing snapshots instead of starting over.
    pub resume: bool,
    /// Re-audit configuration invariants every this many steps.
    pub audit_every: Option<u64>,
    /// How many snapshots each cell retains (at least 1).
    pub retain: usize,
    /// Whether to emit per-cell JSONL telemetry streams.
    pub telemetry: bool,
    /// Delay schedule between retry attempts.
    pub backoff: BackoffPolicy,
    /// The resource envelope every cell runs within.
    pub budget: ResourceBudget,
    /// Whether to run cells under the adaptive convergence engine
    /// (`--adaptive`): a streaming convergence monitor ends a cell once its
    /// observable has demonstrably settled instead of burning the full
    /// step budget, and convergence diagnostics land in the cells report.
    pub adaptive: bool,
    /// Smoke mode (`--smoke` or `SOPS_BENCH_SMOKE=1` via
    /// [`SweepOptions::from_arg_list`]): shrink grids and budgets for CI.
    pub smoke: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            checkpoint_dir: None,
            resume: false,
            audit_every: None,
            retain: 3,
            telemetry: true,
            backoff: BackoffPolicy::default(),
            budget: ResourceBudget::default(),
            adaptive: false,
            smoke: false,
        }
    }
}

impl SweepOptions {
    /// Parses the process arguments ([`SweepOptions::from_arg_list`] on
    /// every argument after the program name).
    #[must_use]
    pub fn from_args() -> Self {
        Self::from_arg_list(std::env::args().skip(1))
    }

    /// Parses `args`, a binary's arguments without the program name, so a
    /// binary can take out the flags it handles itself first. Unknown flags
    /// are reported to stderr (one line each, with the value that follows
    /// one) and ignored, so binaries stay usable from wrapper scripts that
    /// pass extra context. A rejected value or combination (see
    /// `SweepOptions::try_parse`) prints the typed error and exits with
    /// status 2 — a sweep that could never produce a result must not start.
    /// `SOPS_BENCH_SMOKE=1` in the environment sets smoke mode.
    #[must_use]
    pub fn from_arg_list(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = match Self::try_parse(args) {
            Ok((opts, ignored)) => {
                for arg in ignored {
                    eprintln!("ignoring unknown flag {arg:?}");
                }
                opts
            }
            Err(e) => {
                eprintln!("invalid configuration ({}): {e}", e.code());
                std::process::exit(2);
            }
        };
        // The CI smoke legs select smoke mode via the environment; the
        // flag exists so local runs can do the same without exporting.
        if std::env::var("SOPS_BENCH_SMOKE").is_ok_and(|v| v == "1") {
            opts.smoke = true;
        }
        opts
    }

    /// Parses an argument list into options, rejecting malformed values
    /// and nonsensical budget combinations with a typed [`ConfigError`]
    /// instead of letting them pass through silently: `--deadline-ms 0`
    /// and `--retries N` with `--max-rollbacks 0` are configuration bugs,
    /// not requests. Unknown arguments are ignored and returned, for the
    /// caller to report. No sweep bin takes positional arguments, so a
    /// token after an unknown `--flag` that does not start with `-` is
    /// that flag's value, and is returned with it (`"--flag value"`).
    /// Combination checks run after the whole list is consumed, so flag
    /// order never matters.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] encountered.
    pub(crate) fn try_parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Self, Vec<String>), ConfigError> {
        fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ConfigError> {
            value.parse().map_err(|_| ConfigError::InvalidValue {
                flag: flag.to_string(),
                value: value.to_string(),
            })
        }
        let mut opts = SweepOptions::default();
        let mut ignored = Vec::new();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let mut take_value = |flag: &str| {
                args.next().ok_or_else(|| ConfigError::MissingValue {
                    flag: flag.to_string(),
                })
            };
            match arg.as_str() {
                "--checkpoint-dir" => {
                    opts.checkpoint_dir = Some(PathBuf::from(take_value("--checkpoint-dir")?));
                }
                "--resume" => opts.resume = true,
                "--audit-every" => {
                    let v = take_value("--audit-every")?;
                    opts.audit_every = Some(parsed("--audit-every", &v)?);
                }
                "--retries" => {
                    let v = take_value("--retries")?;
                    opts.budget.max_retries = parsed("--retries", &v)?;
                }
                "--backoff-ms" => {
                    let v = take_value("--backoff-ms")?;
                    opts.backoff.base_ms = parsed("--backoff-ms", &v)?;
                }
                "--deadline-ms" => {
                    let v = take_value("--deadline-ms")?;
                    let ms: u64 = parsed("--deadline-ms", &v)?;
                    opts.budget.deadline = Some(std::time::Duration::from_millis(ms));
                }
                "--max-steps" => {
                    let v = take_value("--max-steps")?;
                    opts.budget.max_steps = Some(parsed("--max-steps", &v)?);
                }
                "--max-rollbacks" => {
                    let v = take_value("--max-rollbacks")?;
                    opts.budget.max_rollbacks = parsed("--max-rollbacks", &v)?;
                }
                "--adaptive" => opts.adaptive = true,
                "--smoke" => opts.smoke = true,
                "--no-telemetry" => opts.telemetry = false,
                other => {
                    let value = if other.starts_with("--") {
                        args.next_if(|v| !v.starts_with('-'))
                    } else {
                        None
                    };
                    ignored.push(match value {
                        Some(value) => format!("{other} {value}"),
                        None => other.to_string(),
                    });
                }
            }
        }
        opts.budget.validate()?;
        Ok((opts, ignored))
    }

    #[cfg(test)]
    pub(crate) fn parse(args: impl IntoIterator<Item = String>) -> Self {
        Self::try_parse(args).expect("valid test flags").0
    }

    /// Opens the checkpoint store for one named sweep cell, or `None` when
    /// checkpointing is disabled. Without `--resume`, any stale snapshots
    /// for the cell are cleared first so the run starts from scratch. The
    /// store retains `retain` snapshots (at least one).
    ///
    /// # Errors
    ///
    /// Returns an error when the cell directory cannot be prepared.
    pub fn store_for(&self, cell: &str) -> Result<Option<CheckpointStore>, CheckpointError> {
        let Some(dir) = &self.checkpoint_dir else {
            return Ok(None);
        };
        let cell_dir = dir.join(sanitize(cell));
        if !self.resume && cell_dir.exists() {
            std::fs::remove_dir_all(&cell_dir)?;
        }
        CheckpointStore::open(cell_dir, self.retain).map(Some)
    }

    /// Opens the JSONL telemetry sink for one sweep cell at
    /// `<logs_dir>/<bin>-<cell>.telemetry.jsonl`, or `None` when telemetry
    /// is disabled via `--no-telemetry`.
    ///
    /// On a resumed run (`--resume` with `resumed_at`), an existing stream
    /// for the cell is appended to — the sink records a `resumed` marker —
    /// so one file holds the cell's full history across restarts. Otherwise
    /// the stream is recreated from scratch with a fresh manifest line.
    ///
    /// # Errors
    ///
    /// Returns an error when the log file cannot be created or appended.
    pub fn telemetry_sink(
        &self,
        logs_dir: &Path,
        bin: &str,
        cell: &str,
        manifest: &RunManifest,
        resumed_at: Option<u64>,
    ) -> std::io::Result<Option<JsonlSink>> {
        if !self.telemetry {
            return Ok(None);
        }
        let path = logs_dir.join(format!("{bin}-{}.telemetry.jsonl", sanitize(cell)));
        let sink = match resumed_at {
            Some(step) if self.resume => JsonlSink::resume(&path, manifest, step)?,
            _ => JsonlSink::create(&path, manifest)?,
        };
        Ok(Some(sink))
    }
}

/// Makes a cell label safe as a directory or file name.
#[must_use]
pub(crate) fn sanitize(cell: &str) -> String {
    cell.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn parse_recognizes_all_flags() {
        let opts = SweepOptions::parse(
            [
                "--checkpoint-dir",
                "/tmp/ckpt",
                "--resume",
                "--audit-every",
                "50000",
                "--retries",
                "2",
                "--backoff-ms",
                "50",
                "--deadline-ms",
                "90000",
                "--max-steps",
                "1000000",
                "--max-rollbacks",
                "5",
                "--adaptive",
                "--smoke",
                "--no-telemetry",
                "--bogus",
            ]
            .map(String::from),
        );
        assert_eq!(opts.checkpoint_dir, Some(PathBuf::from("/tmp/ckpt")));
        assert!(opts.resume);
        assert_eq!(opts.audit_every, Some(50_000));
        assert_eq!(opts.budget.max_retries, 2);
        assert_eq!(opts.backoff.base_ms, 50);
        assert_eq!(opts.budget.deadline, Some(Duration::from_millis(90_000)));
        assert_eq!(opts.budget.max_steps, Some(1_000_000));
        assert_eq!(opts.budget.max_rollbacks, 5);
        assert!(opts.adaptive);
        assert!(opts.smoke);
        assert!(!opts.telemetry);
    }

    fn try_parse(args: &[&str]) -> Result<SweepOptions, ConfigError> {
        SweepOptions::try_parse(args.iter().map(|s| (*s).to_string())).map(|(opts, _)| opts)
    }

    #[test]
    fn from_arg_list_parses_the_list_it_is_given() {
        // Not the process arguments: `fig3` passes its own without
        // `--quick`.
        let opts = SweepOptions::from_arg_list(["--resume", "--max-steps", "7"].map(String::from));
        assert!(opts.resume);
        assert_eq!(opts.budget.max_steps, Some(7));
    }

    #[test]
    fn try_parse_ignores_an_unknown_flag_with_its_value() {
        let (opts, ignored) =
            SweepOptions::try_parse(["--memory-mb", "0", "--quick", "--resume"].map(String::from))
                .unwrap();
        assert!(opts.resume);
        assert_eq!(ignored, ["--memory-mb 0", "--quick"]);
    }

    #[test]
    fn try_parse_rejects_zero_deadline() {
        assert_eq!(
            try_parse(&["--deadline-ms", "0"]),
            Err(ConfigError::ZeroDeadline)
        );
    }

    #[test]
    fn try_parse_rejects_retries_without_rollbacks() {
        assert_eq!(
            try_parse(&["--retries", "2", "--max-rollbacks", "0"]),
            Err(ConfigError::RetriesWithoutRollbacks { retries: 2 })
        );
        // Order must not matter: the combination is checked after the
        // whole argument list is consumed.
        assert_eq!(
            try_parse(&["--max-rollbacks", "0", "--retries", "2"]),
            Err(ConfigError::RetriesWithoutRollbacks { retries: 2 })
        );
        // Explicitly disabling retries alongside rollbacks is fail-fast
        // mode, not a configuration bug.
        assert!(try_parse(&["--retries", "0", "--max-rollbacks", "0"]).is_ok());
    }

    #[test]
    fn try_parse_rejects_malformed_and_missing_values() {
        assert_eq!(
            try_parse(&["--deadline-ms", "soon"]),
            Err(ConfigError::InvalidValue {
                flag: "--deadline-ms".to_string(),
                value: "soon".to_string(),
            })
        );
        assert_eq!(
            try_parse(&["--max-steps"]),
            Err(ConfigError::MissingValue {
                flag: "--max-steps".to_string(),
            })
        );
    }

    #[test]
    fn parse_defaults_without_flags() {
        let opts = SweepOptions::parse(std::iter::empty());
        assert_eq!(opts, SweepOptions::default());
        assert_eq!(opts.budget, ResourceBudget::default());
    }

    #[test]
    fn store_for_is_none_without_checkpoint_dir() {
        let opts = SweepOptions::default();
        assert!(opts.store_for("cell").unwrap().is_none());
    }

    #[test]
    fn telemetry_sink_is_none_when_disabled() {
        let opts = SweepOptions {
            telemetry: false,
            ..SweepOptions::default()
        };
        let manifest = RunManifest {
            run: "test/cell".to_string(),
            seed: 0,
            lambda: 4.0,
            gamma: 4.0,
            n: 10,
            steps: 100,
        };
        assert!(opts
            .telemetry_sink(Path::new("/tmp"), "test", "cell", &manifest, None)
            .unwrap()
            .is_none());
    }

    #[test]
    fn store_for_clears_stale_cells_unless_resuming() {
        let base = std::env::temp_dir().join(format!("sops-runtime-test-{}", std::process::id()));
        let opts = SweepOptions {
            checkpoint_dir: Some(base.clone()),
            ..SweepOptions::default()
        };
        let store = opts.store_for("gamma=4.0").unwrap().unwrap();
        assert_eq!(store.retain(), 3);
        let stale = store.dir().join("step-00000000000000000001.ckpt");
        std::fs::write(&stale, "junk").unwrap();
        // Fresh run: stale snapshot is cleared.
        let store = opts.store_for("gamma=4.0").unwrap().unwrap();
        assert!(store.list().unwrap().is_empty());
        // Resumed run: snapshots survive.
        std::fs::write(&stale, "junk").unwrap();
        let resume = SweepOptions {
            resume: true,
            ..opts.clone()
        };
        let store = resume.store_for("gamma=4.0").unwrap().unwrap();
        assert_eq!(store.list().unwrap().len(), 1);
        // Resumability is never traded away: a store keeps at least one.
        let none = SweepOptions {
            retain: 0,
            ..resume
        };
        assert_eq!(none.store_for("gamma=4.0").unwrap().unwrap().retain(), 1);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn sanitize_keeps_labels_path_safe() {
        assert_eq!(sanitize("gamma=4.0/x"), "gamma-4.0-x");
        assert_eq!(sanitize("n100"), "n100");
    }
}
