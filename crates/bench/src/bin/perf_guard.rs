//! CI perf-regression guard over the `BENCH_chain.json` baseline.
//!
//! Compares a fresh microbench run against the committed baseline and fails
//! (exit code 1) when any of three figures regresses:
//!
//! * the kernel's cost relative to its own RNG draws — the
//!   `kernel_over_draws` of the `instrumented_overhead` row `n = 100` with
//!   swaps enabled, the paper's Figure 2 working point — rises by more than
//!   the tolerance over the committed figure. The microbench times the bare
//!   `run` and a loop of the two draws a step makes in interleaved batches
//!   of one process, so a host running slower or faster moves both and
//!   cancels in the ratio, where an absolute steps/sec figure swings with
//!   it;
//! * any fresh `instrumented_overhead` row's `enabled_over_bare` — `run`
//!   through the experiment bins' enabled telemetry wrapper over the bare
//!   `run`, timed the same way — exceeds [`ENABLED_OVER_BARE_MAX`];
//! * a `memory` block heap count (`config_heap_bytes_n100`, `_n1000`: the
//!   bytes one seeded `Configuration` holds) exceeds the committed one.
//!   These are exact counting-allocator counts that repeat from run to run,
//!   so any growth fails.
//!
//! Every figure is printed either way, so each CI run logs the current and
//! recorded values side by side.
//!
//! ```text
//! perf_guard <baseline.json> <fresh.json> [--tolerance-pct <pct>]
//! ```
//!
//! The tolerance defaults to 25%: wide enough to absorb smoke-mode noise on
//! shared CI runners, tight enough to catch a hot-path change that, e.g.,
//! reintroduces a per-proposal allocation (which costs well over 25%).

use std::process::ExitCode;

/// The guarded `kernel_over_draws` row: `n = 100`, swaps enabled.
const GUARD_N: u64 = 100;

/// The largest fresh `enabled_over_bare` that passes.
const ENABLED_OVER_BARE_MAX: f64 = 1.3;

/// The guarded heap counts of the `memory` block.
const HEAP_COUNTS: [&str; 2] = ["config_heap_bytes_n100", "config_heap_bytes_n1000"];

/// The guarded figures of one `BENCH_chain.json`.
struct Baseline {
    /// The guarded row's `kernel_over_draws`.
    kernel_over_draws: f64,
    /// `(n, swaps, enabled_over_bare)` of every `instrumented_overhead` row.
    enabled_over_bare: Vec<(u64, bool, f64)>,
    heap: [u64; HEAP_COUNTS.len()],
}

/// Reads `(n, swaps, kernel_over_draws, enabled_over_bare)` off one
/// `instrumented_overhead` row. The microbench harness writes the file
/// line-per-row, so a line-oriented scan is exact for its own output (and
/// tolerant of reformatting, since it keys on field names, not position).
fn overhead_row(line: &str) -> Option<(u64, bool, f64, f64)> {
    let value = |key: &str| field(line, &format!("\"{key}\":"));
    Some((
        value("n")?.parse().ok()?,
        value("swaps")?.parse().ok()?,
        value("kernel_over_draws")?.parse().ok()?,
        value("enabled_over_bare")?.parse().ok()?,
    ))
}

/// Extracts the heap count `name` from `BENCH_chain.json` text, by the same
/// line scan (the microbench writes the `memory` block on one line).
fn heap_count(json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    json.lines()
        .find_map(|line| field(line, &key)?.parse().ok())
}

/// The trimmed text after `key` up to the next comma or closing brace.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn load(path: &str) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rows: Vec<_> = text.lines().filter_map(overhead_row).collect();
    let kernel_over_draws = rows
        .iter()
        .find(|(n, swaps, ..)| *n == GUARD_N && *swaps)
        .map(|row| row.2)
        .ok_or_else(|| {
            format!("{path}: no instrumented_overhead row with n={GUARD_N}, swaps=true")
        })?;
    let mut heap = [0; HEAP_COUNTS.len()];
    for (count, name) in heap.iter_mut().zip(HEAP_COUNTS) {
        *count = heap_count(&text, name).ok_or_else(|| format!("{path}: no {name} count"))?;
    }
    Ok(Baseline {
        kernel_over_draws,
        enabled_over_bare: rows.iter().map(|&(n, swaps, _, r)| (n, swaps, r)).collect(),
        heap,
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(baseline_path), Some(fresh_path)) = (args.next(), args.next()) else {
        eprintln!("usage: perf_guard <baseline.json> <fresh.json> [--tolerance-pct <pct>]");
        return ExitCode::FAILURE;
    };
    let mut tolerance_pct = 25.0_f64;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--tolerance-pct" => match args.next().as_deref().map(str::parse) {
                Some(Ok(pct)) => tolerance_pct = pct,
                _ => {
                    eprintln!("--tolerance-pct needs a numeric argument");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (baseline, fresh) = match (load(&baseline_path), load(&fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("perf_guard: {err}");
            }
            return ExitCode::FAILURE;
        }
    };

    let mut passed = true;
    let (committed, measured) = (baseline.kernel_over_draws, fresh.kernel_over_draws);
    let change_pct = (measured / committed - 1.0) * 100.0;
    println!("perf guard: kernel run over its RNG draws, n={GUARD_N} swaps=true");
    println!("  baseline  {committed:>8.3}×  ({baseline_path})");
    println!("  fresh     {measured:>8.3}×  ({fresh_path})");
    println!("  change    {change_pct:>+7.1}%   (tolerance +{tolerance_pct}%)");
    if measured > committed * (1.0 + tolerance_pct / 100.0) {
        eprintln!(
            "perf_guard: FAIL — the kernel's cost over its draws rose {change_pct:.1}% \
             (> {tolerance_pct}% allowed)"
        );
        passed = false;
    }
    println!(
        "perf guard: enabled telemetry over the bare run (fresh, at most {ENABLED_OVER_BARE_MAX}×)"
    );
    for &(n, swaps, ratio) in &fresh.enabled_over_bare {
        println!("  n={n:<5} swaps={swaps:<5} {ratio:>8.3}×");
        if ratio > ENABLED_OVER_BARE_MAX {
            eprintln!(
                "perf_guard: FAIL — enabled telemetry costs {ratio:.3}× the bare run at \
                 n={n}, swaps={swaps} (> {ENABLED_OVER_BARE_MAX}× allowed)"
            );
            passed = false;
        }
    }
    println!("perf guard: heap bytes (fresh must not exceed baseline)");
    for ((name, committed), measured) in HEAP_COUNTS.iter().zip(baseline.heap).zip(fresh.heap) {
        println!("  {name:<24} baseline {committed:>8}  fresh {measured:>8}");
        if measured > committed {
            eprintln!("perf_guard: FAIL — {name} grew from {committed} to {measured} bytes");
            passed = false;
        }
    }
    if !passed {
        return ExitCode::FAILURE;
    }
    println!("perf guard: OK (within tolerance)");
    ExitCode::SUCCESS
}
