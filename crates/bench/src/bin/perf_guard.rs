//! CI perf-regression guard over the `BENCH_chain.json` baseline.
//!
//! Compares a freshly measured chain-step throughput against the committed
//! baseline and fails (exit code 1) when the reference row — `n = 100` with
//! swaps enabled, the paper's Figure 2 working point — regresses by more
//! than the tolerance. Both numbers are printed either way, so every CI run
//! logs the current and recorded throughput side by side.
//!
//! ```text
//! perf_guard <baseline.json> <fresh.json> [--tolerance-pct <pct>]
//! ```
//!
//! The tolerance defaults to 25%: wide enough to absorb smoke-mode noise on
//! shared CI runners, tight enough to catch a hot-path change that, e.g.,
//! reintroduces a per-proposal allocation (which costs well over 25%).

use std::process::ExitCode;

/// The guarded row: `n = 100`, swaps enabled.
const GUARD_N: u64 = 100;

/// Extracts `steps_per_sec` of the guarded row from `BENCH_chain.json`
/// text. The file is written line-per-row by the microbench harness, so a
/// line-oriented scan is exact for its own output (and tolerant of
/// reformatting, since it keys on the `"n"`/`"swaps"` fields, not
/// position).
fn guarded_throughput(json: &str) -> Option<f64> {
    json.lines()
        .filter(|line| {
            field(line, "\"n\":").and_then(|n| n.parse().ok()) == Some(GUARD_N)
                && field(line, "\"swaps\":") == Some("true")
        })
        .find_map(|line| field(line, "\"steps_per_sec\":")?.parse().ok())
}

/// The trimmed text after `key` up to the next comma or closing brace.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn load(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    guarded_throughput(&text)
        .ok_or_else(|| format!("{path}: no throughput row with n={GUARD_N}, swaps=true"))
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

    let change_pct = (fresh / baseline - 1.0) * 100.0;
    println!("perf guard: chain_step n={GUARD_N} swaps=true");
    println!("  baseline  {baseline:>14.0} steps/sec  ({baseline_path})");
    println!("  fresh     {fresh:>14.0} steps/sec  ({fresh_path})");
    println!("  change    {change_pct:>+13.1}%   (tolerance −{tolerance_pct}%)");
    if fresh < baseline * (1.0 - tolerance_pct / 100.0) {
        eprintln!(
            "perf_guard: FAIL — throughput regressed {:.1}% (> {tolerance_pct}% allowed)",
            -change_pct
        );
        return ExitCode::FAILURE;
    }
    println!("perf guard: OK (within tolerance)");
    ExitCode::SUCCESS
}
