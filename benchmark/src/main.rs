//! End-to-end benchmark of the separation chain through its three layers:
//! the `sops-core` kernel, the `sops-chains`/`sops-runtime` chunk loop
//! (audit, checkpoint, storage) and the `sops-service` job queue.
//!
//! ```text
//! sops-benchmark run --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! sops-benchmark run --all [--seed S] [--seconds T] [--trace] [--smoke]
//! sops-benchmark run (--all | --workload W) --repeat N [--seed S] [--seconds T]
//! sops-benchmark manifest
//! ```
//!
//! `run --workload` measures one workload in this process and prints one
//! `workload metric value unit` line per metric, then a JSON result line.
//! `run --all` runs each workload in a child process, one at a time
//! (untraced, then traced with `--trace`), and exits non-zero if any check
//! fails. `--repeat N` alternates N untraced runs of every workload (or of
//! the one given), one seed each, and prints each metric's median and
//! quartiles. `manifest`
//! prints `BENCHMARK.json`. See README.md.

mod chains;
mod metrics;
mod schedule;
mod service;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use metrics::{Line, Spec, END_TO_END, PER_LAYER};
use workload::{Ctx, RunData, Workload};

/// The seed the golden digests are committed for.
const DEFAULT_SEED: u64 = 1;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<u32>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: None,
    };
    let mut it = it.by_ref().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                a.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--all" => a.all = true,
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => a.smoke = true,
            "--repeat" => {
                let n: u32 = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                a.repeat = Some(n.max(1));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.all == a.workload.is_some() {
        return Err("give exactly one of --workload W and --all".into());
    }
    Ok(a)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        Some("run") => match parse_args(argv) {
            Ok(args) => match (args.workload, args.repeat) {
                (_, Some(n)) => repeat(&args, n),
                (Some(w), None) => run_one(w, &args),
                (None, None) => run_all(&args),
            },
            Err(e) => {
                eprintln!("sops-benchmark: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!(
                "usage: sops-benchmark run (--workload W | --all) [--seed S] [--seconds T] \
                 [--trace [0|1]] [--smoke] [--repeat N]\n       sops-benchmark manifest"
            );
            ExitCode::from(2)
        }
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Measures one workload in this process.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("sops-benchmark: cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let seconds = args.seconds.unwrap_or(if args.smoke {
        0.0
    } else {
        metrics::RUN_SECONDS as f64
    });
    eprintln!(
        "# {} seed {} seconds {seconds} trace {}{}; state in an in-memory filesystem; {} cores",
        w.name(),
        args.seed,
        u8::from(args.trace),
        if args.smoke { " smoke" } else { "" },
        cores()
    );
    let ctx = Ctx {
        workload: w,
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        trace: args.trace,
    };
    let cost = if args.trace {
        trace::cost_per_span_ns()
    } else {
        0.0
    };
    let mut data = match w {
        Workload::ChainLong | Workload::ChainCkptDense => chains::run(&ctx),
        Workload::ServiceSmall => service::run_small(&ctx),
        Workload::ServiceResume => service::run_resume(&ctx),
    };
    check_digests(&ctx, &mut data, &out);

    let e2e = metrics::end_to_end(&data);
    let mut lines: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .zip(&e2e)
        .map(|(s, &v)| (s.name.to_string(), v, s.unit))
        .collect();
    let latency = stats::tail(&data.latency_ms);
    if let Some((p, v)) = latency.tail {
        lines.push((format!("latency_p{p}_ms"), v, "ms"));
    }
    lines.push(("latency_samples".into(), latency.count as f64, "count"));
    lines.push(("rounds".into(), data.digests.len() as f64, "count"));
    lines.push(("measured_s".into(), data.measured_s, "s"));
    lines.extend(data.extra.iter().map(|(n, v, u)| (n.clone(), *v, *u)));
    let reported: Vec<(&Spec, f64)> = if args.trace {
        let mut spans = trace::drain();
        spans.extend(metrics::derive(&data.marks, &spans));
        metrics::attach(&mut spans);
        write_trace(&out, w, &spans);
        let ledger = metrics::ledger(&spans);
        let (values, extra) = metrics::per_layer(&data, &ledger, cost);
        lines.extend(extra);
        lines.extend(metrics::phase_figures(&spans, &data));
        PER_LAYER.iter().zip(values).collect()
    } else {
        END_TO_END.iter().zip(e2e).collect()
    };
    for (spec, value) in &reported {
        if !value.is_finite() {
            data.fail(format!("{} is not a finite number", spec.name));
        }
    }
    let reported: Vec<(&Spec, f64)> = reported
        .into_iter()
        .map(|(s, v)| (s, if v.is_finite() { v } else { 0.0 }))
        .collect();

    let mut text = String::new();
    for (name, value, unit) in &lines {
        if value.is_finite() {
            let _ = writeln!(text, "{}", metrics::line(w.name(), name, *value, unit));
        }
    }
    if args.trace {
        for (spec, value) in &reported {
            let _ = writeln!(
                text,
                "{}",
                metrics::line(w.name(), spec.name, *value, spec.unit)
            );
        }
    }
    let correct = data.failures.is_empty();
    let result = metrics::result_json(correct, data.attempted, data.failed, &reported);
    let _ = std::fs::write(
        out.join(format!("{}-trace{}.txt", w.name(), u8::from(args.trace))),
        format!("{text}{result}\n"),
    );
    print!("{text}");
    println!("{result}");
    ExitCode::SUCCESS
}

/// Identifies this build, so digests recorded by one build are only ever
/// compared with digests of the same build.
fn build_id() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    let mtime = meta
        .as_ref()
        .ok()
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    format!("{:x}-{:x}", meta.map_or(0, |m| m.len()), mtime)
}

/// The golden check on the default seed, and the traced-equals-untraced
/// check against the other mode's digests from this build, when present.
fn check_digests(ctx: &Ctx, data: &mut RunData, out: &Path) {
    let shape = if ctx.smoke { "smoke" } else { "full" };
    let name = ctx.workload.name();
    if let Some(d) = data.digests.first() {
        eprintln!("# digest {shape} {name} {} round 0 {d:016x}", ctx.seed);
    }
    if ctx.seed == DEFAULT_SEED {
        match (workload::golden(ctx.workload, ctx.smoke, ctx.seed), data.digests.first()) {
            (Some(want), Some(&got)) if want == got => {}
            (want, got) => data.fail(format!(
                "round 0 digest {got:016x?} differs from the golden {want:016x?} ({shape} {name} seed {})",
                ctx.seed
            )),
        }
    }
    let file = |trace: bool| {
        out.join(format!(
            "digests-{name}-{shape}-seed{}-trace{}-{}.txt",
            ctx.seed,
            u8::from(trace),
            build_id()
        ))
    };
    if let Ok(text) = std::fs::read_to_string(file(!ctx.trace)) {
        for (r, (mine, theirs)) in data.digests.clone().iter().zip(text.lines()).enumerate() {
            if format!("{mine:016x}") != theirs {
                data.fail(format!(
                    "round {r} digest {mine:016x} differs from the {} run's {theirs}",
                    if ctx.trace { "untraced" } else { "traced" }
                ));
            }
        }
    }
    let text: String = data.digests.iter().map(|d| format!("{d:016x}\n")).collect();
    let _ = std::fs::write(file(ctx.trace), text);
}

fn write_trace(out: &Path, w: Workload, spans: &[trace::Span]) {
    let mut text = String::with_capacity(spans.len() * 160);
    for s in spans {
        text.push_str(&s.to_json());
        text.push('\n');
    }
    let path = out.join(format!("trace-{}.jsonl", w.name()));
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("sops-benchmark: cannot write {}: {e}", path.display());
    }
}

/// One child run's outcome.
struct Child {
    workload: Workload,
    trace: bool,
    ok: bool,
    lines: Vec<Line>,
}

fn run_child(w: Workload, args: &Args, seed: u64, trace: bool) -> Child {
    let exe = std::env::current_exe().expect("locate own executable");
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn workload run");
    let mut lines = Vec::new();
    let mut result = None;
    let stdout = child.stdout.take().expect("piped stdout");
    for text in BufReader::new(stdout).lines().map_while(Result::ok) {
        println!("{text}");
        if let Some(line) = metrics::parse_line(&text) {
            lines.push(line);
        } else if let Some(r) = metrics::parse_result(&text) {
            result = Some(r);
        }
    }
    let status = child.wait().expect("wait for workload run");
    let ok = status.success() && matches!(result, Some((true, a, 0)) if a > 0);
    if !ok {
        eprintln!(
            "FAILED: {} (trace {}): exit {status}, result {result:?}",
            w.name(),
            u8::from(trace)
        );
    }
    Child {
        workload: w,
        trace,
        ok,
        lines,
    }
}

/// Every workload, each in its own process, untraced and (with
/// `--trace`) traced.
fn run_all(args: &Args) -> ExitCode {
    let mut children = Vec::new();
    for w in Workload::ALL {
        children.push(run_child(w, args, args.seed, false));
        if args.trace {
            children.push(run_child(w, args, args.seed, true));
        }
    }
    // Tracing overhead as the end-to-end numbers see it.
    for w in Workload::ALL {
        let steps = |trace: bool| {
            children
                .iter()
                .filter(|c| c.workload == w && c.trace == trace)
                .flat_map(|c| &c.lines)
                .find(|l| l.name == "steps_per_s")
                .map(|l| l.value)
        };
        if let (Some(off), Some(on)) = (steps(false), steps(true)) {
            println!(
                "{}",
                metrics::line(
                    w.name(),
                    "trace.overhead_measured_pct",
                    (off - on) / off * 100.0,
                    "%"
                )
            );
        }
    }
    let mut summary = String::from("[\n");
    let rows: Vec<String> = children
        .iter()
        .flat_map(|c| {
            c.lines.iter().map(move |l| {
                format!(
                    "  {{\"workload\": \"{}\", \"trace\": {}, \"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
                    l.workload, c.trace, l.name, l.value, l.unit
                )
            })
        })
        .collect();
    summary.push_str(&rows.join(",\n"));
    summary.push_str("\n]\n");
    let _ = std::fs::write(out_dir().join("summary.json"), summary);
    let failed: Vec<String> = children
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{} (trace {})", c.workload.name(), u8::from(c.trace)))
        .collect();
    if failed.is_empty() {
        eprintln!("all {} runs correct", children.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// `n` alternating untraced runs of every selected workload, seed
/// `seed + i` in repetition `i`; prints each end-to-end metric's median,
/// quartiles and spread, flagging a spread wider than the metric's bound.
fn repeat(args: &Args, n: u32) -> ExitCode {
    let mut values: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    let mut all_ok = true;
    for i in 0..n {
        let mut order: Vec<(usize, Workload)> = Workload::ALL
            .into_iter()
            .enumerate()
            .filter(|(_, w)| args.workload.is_none_or(|only| only == *w))
            .collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for (wi, w) in order {
            let child = run_child(w, args, args.seed + u64::from(i), false);
            all_ok &= child.ok;
            for (si, spec) in END_TO_END.iter().enumerate() {
                if let Some(l) = child.lines.iter().find(|l| l.name == spec.name) {
                    values.entry((wi, si)).or_default().push(l.value);
                }
            }
        }
    }
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{:<17} {:<15} {:>15} {:>15} {:>15} {:>7} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut json = Vec::new();
    let mut wide = 0;
    for ((wi, si), v) in &values {
        let (w, spec) = (Workload::ALL[*wi], &END_TO_END[*si]);
        let (q1, med, q3) = stats::quartiles(v);
        let spread = (q3 - q1) / med;
        let bound = spec.bound.unwrap_or(0.0);
        // setup_s is exempt from the spread rule; only its median is gated.
        let flag = if spread > bound && spec.name != "setup_s" {
            wide += 1;
            "  WIDER THAN BOUND"
        } else if spread > bound / 3.0 {
            "  above a third of bound"
        } else {
            ""
        };
        let _ = writeln!(
            report,
            "{:<17} {:<15} {q1:>15.6} {med:>15.6} {q3:>15.6} {spread:>7.4} {bound:>6.2}{flag}",
            w.name(),
            spec.name
        );
        json.push(format!(
            "  {{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"runs\": {}, \"q1\": {q1}, \
             \"median\": {med}, \"q3\": {q3}, \"spread\": {spread}, \"bound\": {bound}, \"values\": [{}]}}",
            w.name(),
            spec.name,
            spec.unit,
            v.len(),
            v.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
        ));
    }
    print!("{report}");
    let _ = std::io::stdout().flush();
    let _ = std::fs::write(
        out_dir().join("repeat.json"),
        format!(
            "{{\"cores\": {}, \"runs\": {n}, \"seed\": {}, \"rows\": [\n{}\n]}}\n",
            cores(),
            args.seed,
            json.join(",\n")
        ),
    );
    if all_ok && wide == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_single_workload_invocation() {
        let a = args("--workload service-small --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::ServiceSmall));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        let a = args("--workload chain-long --trace 1").unwrap();
        assert!(a.trace);
        assert_eq!(a.seed, DEFAULT_SEED);
    }

    #[test]
    fn parses_the_all_form() {
        let a = args("--all --trace --smoke").unwrap();
        assert!(a.all && a.trace && a.smoke);
        let a = args("--all --repeat 5 --seed 3").unwrap();
        assert_eq!((a.repeat, a.seed, a.trace), (Some(5), 3, false));
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(args("").is_err());
        assert!(args("--all --workload chain-long").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload chain-long --seconds -1").is_err());
        assert!(args("--workload chain-long --seed").is_err());
        assert!(args("--workload chain-long --bogus").is_err());
    }
}
