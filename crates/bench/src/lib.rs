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
use std::path::PathBuf;

use sops_chains::{Instrumented, SupervisedRun};
use sops_core::SeparationChain;

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
        eprintln!("{cell}: {event:?}");
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
