//! Shared infrastructure for the experiment harness.
//!
//! Each binary in `src/bin/` regenerates one figure or quantitative claim
//! of the paper (see DESIGN.md's experiment index and EXPERIMENTS.md for
//! recorded results). This library provides the common pieces: fixed-width
//! table printing, an output directory for SVG snapshots, seeded RNG
//! construction, and a parallel parameter-sweep helper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::path::PathBuf;

use sops_chains::telemetry::series_record_json;
use sops_chains::{Instrumented, JsonlSink, RecoveryEvent, RunManifest, SupervisedRun};
use sops_core::SeparationChain;
use sops_runtime::{JobContext, SweepOptions};

// Seeding moved to `sops-runtime` with the rest of the supervision stack;
// re-exported here so experiment code keeps one import path.
pub use sops_runtime::{seed_hash, seed_hash_attempt, seeded, seeded_attempt};

/// How often the instrumented experiment chains sample their observable
/// series (perimeter, heterogeneous edges), in steps.
const OBSERVABLE_EVERY: u64 = 25_000;

/// Wraps a separation chain in the standard experiment instrument: outcome
/// counters, acceptance-rate windows, and perimeter / heterogeneous-edge
/// observable series sampled every `OBSERVABLE_EVERY` (25,000) steps. With
/// `enabled = false` the wrapper records nothing and forwards steps at
/// (measured) near-zero overhead — see `BENCH_chain.json`.
#[must_use]
pub fn instrument_chain(chain: SeparationChain, enabled: bool) -> Instrumented<SeparationChain> {
    if !enabled {
        return Instrumented::disabled(chain);
    }
    Instrumented::new(chain)
        .with_observable("perimeter", OBSERVABLE_EVERY, |c| c.perimeter() as f64)
        .with_observable("hetero_edges", OBSERVABLE_EVERY, |c| {
            c.hetero_edge_count() as f64
        })
}

/// Reports on stderr, one `cell: …` line each, what a chain run recovered
/// from: the snapshot step it resumed from, the corrupt snapshots it
/// skipped, the orphaned temp files it reaped, and its ladder events.
pub fn log_recovery(cell: &str, run: &SupervisedRun) {
    if let Some(step) = run.resumed_from {
        eprintln!("{cell}: resumed from step {step}");
    }
    for path in &run.rejected {
        eprintln!("{cell}: skipped corrupt snapshot {}", path.display());
    }
    for path in &run.reaped {
        eprintln!("{cell}: reaped orphaned temp file {}", path.display());
    }
    for event in &run.events {
        eprintln!("{}", recovery_line(cell, event));
    }
}

/// One ladder event as a plain `cell: …` line, naming the repair actions
/// or the violations that forced a rollback.
fn recovery_line(cell: &str, event: &RecoveryEvent) -> String {
    match event {
        RecoveryEvent::Repaired { step, actions } => {
            format!("{cell}: repaired at step {step}: {}", actions.join("; "))
        }
        RecoveryEvent::RolledBack {
            from_step,
            to_step,
            violations,
        } => format!(
            "{cell}: rolled back from step {from_step} to step {to_step}: {}",
            violations.join("; ")
        ),
        RecoveryEvent::Cancelled { step } => format!("{cell}: cancelled at step {step}"),
    }
}

/// A cell's step-telemetry stream, the file
/// [`SweepOptions::telemetry_sink`] opens, on the run's own step axis.
///
/// The instrument counts only this process's steps, so every record is
/// offset by `t0`, the step the run resumed from (0 for a fresh run), and a
/// resumed stream continues where the last one stopped. `t0` is read off
/// the run: at its first chunk it is the chunk's step less the steps the
/// instrument counted, since no rollback can have replayed steps by then,
/// and a run that ends before its first chunk reports it as
/// [`SupervisedRun::resumed_from`]. The stream opens there, so behind a
/// corrupt newest snapshot its `resumed` marker and every `metrics` step
/// follow the older snapshot the run really resumed from.
pub struct CellTelemetry<'a> {
    opts: &'a SweepOptions,
    logs_dir: PathBuf,
    bin: &'a str,
    cell: &'a str,
    manifest: RunManifest,
    metrics_every: u64,
    /// `t0`, once the stream is open.
    t0: Option<u64>,
    /// The open stream; `None` with telemetry off.
    sink: Option<JsonlSink>,
    /// The write error that stopped the run.
    error: Option<std::io::Error>,
}

impl<'a> CellTelemetry<'a> {
    /// A stream that opens under `logs_dir` at the run's first chunk and
    /// records metrics every `metrics_every` steps from `t0`. With
    /// telemetry off it never opens.
    #[must_use]
    pub fn new(
        opts: &'a SweepOptions,
        logs_dir: PathBuf,
        bin: &'a str,
        cell: &'a str,
        manifest: RunManifest,
        metrics_every: u64,
    ) -> Self {
        CellTelemetry {
            opts,
            logs_dir,
            bin,
            cell,
            manifest,
            metrics_every,
            t0: None,
            sink: None,
            error: None,
        }
    }

    /// The chunk hook's half: opens the stream at the first chunk, and
    /// writes a `metrics` record whenever `t − t0` is a multiple of
    /// `metrics_every`. A write error breaks the run;
    /// [`CellTelemetry::finish`] returns it.
    pub fn on_chunk(&mut self, t: u64, chain: &Instrumented<SeparationChain>) -> ControlFlow<()> {
        if !self.opts.telemetry {
            return ControlFlow::Continue(());
        }
        match self.record_chunk(t, chain) {
            Ok(()) => ControlFlow::Continue(()),
            Err(e) => {
                self.error = Some(e);
                ControlFlow::Break(())
            }
        }
    }

    fn record_chunk(
        &mut self,
        t: u64,
        chain: &Instrumented<SeparationChain>,
    ) -> std::io::Result<()> {
        let t0 = match self.t0 {
            Some(t0) => t0,
            None => self.open(t - chain.report().steps)?,
        };
        if let Some(sink) = &mut self.sink {
            if (t - t0) % self.metrics_every == 0 {
                sink.record_metrics(t0, &chain.report())?;
            }
        }
        Ok(())
    }

    /// Opens the stream at `t0`, with a `resumed` marker when `t0 > 0` and
    /// the sweep resumes, and returns `t0`.
    fn open(&mut self, t0: u64) -> std::io::Result<u64> {
        self.sink = self.opts.telemetry_sink(
            &self.logs_dir,
            self.bin,
            self.cell,
            &self.manifest,
            (t0 > 0).then_some(t0),
        )?;
        self.t0 = Some(t0);
        Ok(t0)
    }

    /// Ends the stream after `run`: the write error that stopped it, if
    /// any; otherwise the final `metrics` and `series` records and the
    /// cell's runtime events, opening the stream first if no chunk did.
    ///
    /// # Errors
    ///
    /// Returns the first write error.
    pub fn finish(
        mut self,
        run: &SupervisedRun,
        chain: &Instrumented<SeparationChain>,
        ctx: &JobContext<'_>,
    ) -> std::io::Result<()> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let t0 = match self.t0 {
            Some(t0) => t0,
            None => self.open(run.resumed_from.unwrap_or(0))?,
        };
        if let Some(sink) = &mut self.sink {
            let report = chain.report();
            sink.record_metrics(t0, &report)?;
            sink.record_line(&series_record_json(t0, &report))?;
            for line in ctx.event_lines() {
                sink.record_line(&line)?;
            }
        }
        Ok(())
    }
}

/// A fixed-width text table, printed to stdout and embeddable in
/// EXPERIMENTS.md as-is.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row/header arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The experiment output directory (`results/` under the workspace root),
/// created on first use.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn out_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("cannot create results directory");
    dir
}

/// The telemetry log directory (`results/logs/` under the workspace root),
/// created on first use. JSONL metric streams from the experiment binaries
/// land here (see EXPERIMENTS.md for the schema).
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn logs_dir() -> PathBuf {
    let dir = out_dir().join("logs");
    std::fs::create_dir_all(&dir).expect("cannot create results/logs directory");
    dir
}

/// Where a sweep bin writes its JSONL telemetry streams: [`logs_dir`],
/// or, in smoke mode, `target/smoke-logs/` under the workspace root, which
/// git ignores. A smoke run's streams are no committed result, and their
/// wall-clock fields differ from run to run.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn telemetry_dir(opts: &SweepOptions) -> PathBuf {
    if opts.smoke {
        uncommitted_dir()
    } else {
        logs_dir()
    }
}

/// Where `fig3` and `mixing` write their cells report: [`out_dir`] for an
/// `--adaptive --smoke` run, the mode whose report is committed (CI diffs
/// it), and `target/smoke-logs/`, beside smoke telemetry, for every other
/// mode.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn report_dir(opts: &SweepOptions) -> PathBuf {
    if opts.adaptive && opts.smoke {
        out_dir()
    } else {
        uncommitted_dir()
    }
}

/// `target/smoke-logs/` under the workspace root, which git ignores: where
/// a run writes what is no committed result. Created on first use.
fn uncommitted_dir() -> PathBuf {
    let dir = workspace_root().join("target").join("smoke-logs");
    std::fs::create_dir_all(&dir).expect("cannot create target/smoke-logs directory");
    dir
}

/// The workspace root directory (where `Cargo.toml`, `BENCH_chain.json`,
/// and the top-level docs live).
#[must_use]
pub(crate) fn repo_root() -> PathBuf {
    workspace_root()
}

fn workspace_root() -> PathBuf {
    // crates/bench → workspace root is two levels up from this crate.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("bench crate lives at <root>/crates/bench")
        .to_path_buf()
}

/// Saves experiment output (e.g. an SVG snapshot) under `results/`.
///
/// # Panics
///
/// Panics on I/O errors.
pub fn save(name: &str, content: &str) {
    let path = out_dir().join(name);
    std::fs::write(&path, content).expect("cannot write experiment output");
    println!("  saved {}", path.display());
}

/// Saves a machine-readable artifact at the workspace root (e.g. the
/// `BENCH_chain.json` perf baseline).
///
/// # Panics
///
/// Panics on I/O errors.
pub fn save_at_root(name: &str, content: &str) {
    let path = repo_root().join(name);
    std::fs::write(&path, content).expect("cannot write root artifact");
    println!("  saved {}", path.display());
}

/// Maps `jobs` through `work` using one scoped thread per job
/// (`std::thread::scope`), preserving order. On single-core machines this
/// degrades gracefully to sequential execution speed.
pub fn parallel_map<T, R, F>(jobs: Vec<T>, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(work).collect();
    }
    let n = jobs.len();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let work = &work;
        let mut handles = Vec::new();
        for (i, job) in jobs.into_iter().enumerate() {
            handles.push(scope.spawn(move || (i, work(job))));
        }
        for h in handles {
            let (i, r) = h.join().expect("worker panicked");
            slots[i] = Some(r);
        }
    });
    slots.into_iter().map(|s| s.expect("slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["n", "perimeter"]);
        t.row(["3", "3"]);
        t.row(["100", "38"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("perimeter"));
        assert!(lines[3].ends_with("38"));
    }

    #[test]
    fn recovery_events_print_as_plain_lines() {
        let line = |event| recovery_line("gamma=4.0000", &event);
        assert_eq!(
            line(RecoveryEvent::Repaired {
                step: 4_000_000,
                actions: vec!["rebuilt edges 7 → 5".into(), "rebuilt hetero 3 → 2".into()],
            }),
            "gamma=4.0000: repaired at step 4000000: rebuilt edges 7 → 5; rebuilt hetero 3 → 2"
        );
        assert_eq!(
            line(RecoveryEvent::RolledBack {
                from_step: 3_000_000,
                to_step: 2_000_000,
                violations: vec!["occupancy desync".into(), "disconnected".into()],
            }),
            "gamma=4.0000: rolled back from step 3000000 to step 2000000: \
             occupancy desync; disconnected"
        );
        assert_eq!(
            line(RecoveryEvent::Cancelled { step: 4_000_000 }),
            "gamma=4.0000: cancelled at step 4000000"
        );
    }

    #[test]
    fn smoke_runs_stream_telemetry_outside_the_committed_results() {
        assert_eq!(telemetry_dir(&SweepOptions::default()), logs_dir());
        let smoke = SweepOptions {
            smoke: true,
            ..SweepOptions::default()
        };
        let dir = telemetry_dir(&smoke);
        assert!(dir.ends_with("target/smoke-logs"), "{}", dir.display());
        assert!(!dir.starts_with(out_dir()), "{}", dir.display());
    }

    #[test]
    fn only_adaptive_smoke_reports_land_in_the_committed_results() {
        let adaptive_smoke = SweepOptions {
            adaptive: true,
            smoke: true,
            ..SweepOptions::default()
        };
        assert_eq!(report_dir(&adaptive_smoke), out_dir());
        for (adaptive, smoke) in [(false, false), (true, false), (false, true)] {
            let opts = SweepOptions {
                adaptive,
                smoke,
                ..SweepOptions::default()
            };
            assert_eq!(report_dir(&opts), uncommitted_dir());
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..20).collect(), |x: i32| x * x);
        assert_eq!(out, (0..20).map(|x| x * x).collect::<Vec<_>>());
    }
}
