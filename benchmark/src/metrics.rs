//! The metric catalogue, the per-layer ledger built from spans, and the
//! printed forms: one `workload metric value unit` line per metric and a
//! final JSON result line.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::stats;
use crate::trace::{self, Span, NO_OWNER, NO_PARENT};
use crate::workload::{Marks, RunData, Workload};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name in reports and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [Spec; 4] = [
    e2e("steps_per_s", "steps/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics, printed by every traced run. Each is defined on
/// every workload; a job is a cell in the chain workloads.
pub const PER_LAYER: [Spec; 22] = [
    layer("core.kernel.ns_per_step", "ns", Better::Lower),
    layer("core.kernel.share", "fraction", Better::Higher),
    layer("core.audit.us_per_call", "us", Better::Lower),
    layer("core.audit.calls_per_job", "count", Better::Lower),
    layer("core.audit.share", "fraction", Better::Lower),
    layer("chains.boundary.self_share", "fraction", Better::Lower),
    layer(
        "chains.checkpoint.snapshots_per_job",
        "count",
        Better::Lower,
    ),
    layer(
        "chains.checkpoint.bytes_per_snapshot",
        "bytes",
        Better::Lower,
    ),
    layer("chains.checkpoint.reads_per_job", "count", Better::Lower),
    layer("chains.codec.us_per_call", "us", Better::Lower),
    layer("chains.codec.decode_calls_per_job", "count", Better::Lower),
    layer("chains.codec.share", "fraction", Better::Lower),
    layer("chains.vfs.us_per_op", "us", Better::Lower),
    layer("chains.vfs.ops_per_job", "count", Better::Lower),
    layer("chains.vfs.syncs_per_job", "count", Better::Lower),
    layer("chains.vfs.share", "fraction", Better::Lower),
    layer("runtime.dispatch.us_per_job", "us", Better::Lower),
    layer("runtime.dispatch.share", "fraction", Better::Lower),
    layer("job.latency_tail_ms", "ms", Better::Lower),
    layer("trace.generator_share", "fraction", Better::Lower),
    layer("trace.unattributed_share", "fraction", Better::Lower),
    layer("trace.overhead_pct", "%", Better::Lower),
];

/// The command that runs one workload, as `BENCHMARK.json` lists it.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Measured seconds per run, as `BENCHMARK.json` lists it.
pub const RUN_SECONDS: u64 = 15;

/// The catalogue as `BENCHMARK.json`.
#[must_use]
pub fn manifest() -> String {
    let quote = |s: &str| format!("\"{s}\"");
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|s| quote(s)).collect();
    let _ = writeln!(out, "  \"command\": [{}],", command.join(", "));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let specs: Vec<String> = END_TO_END
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                s.name,
                s.unit,
                s.better.as_str(),
                s.bound.unwrap_or(0.0)
            )
        })
        .collect();
    out.push_str(&specs.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let specs: Vec<String> = PER_LAYER
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                s.name,
                s.unit,
                s.better.as_str()
            )
        })
        .collect();
    out.push_str(&specs.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The end-to-end metrics of an untraced run, in catalogue order.
#[must_use]
pub fn end_to_end(data: &RunData) -> Vec<f64> {
    vec![
        stats::median(&data.steps_per_s),
        stats::median(&data.latency_ms),
        data.peak_rss_mb,
        stats::median(&data.setup_s),
    ]
}

/// Where a span's self time is booked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// `core.kernel`: the chain's proposal loop.
    Kernel,
    /// `core.audit`: full recomputations of the state's invariants.
    Audit,
    /// `chains.codec.*`: state encode and decode.
    Codec,
    /// `chains.vfs.*`: storage operations.
    Vfs,
    /// The chunk loop around them: `run_chain` or the job payload, minus
    /// its children (snapshot rendering, parsing, logs, recovery logic).
    Boundary,
    /// Getting the job to and from its work: `run_cells`, or the
    /// service's admission, queue, pre-dispatch and finish phases.
    Dispatch,
    /// `gen.late`: the load generator offering a job after it was due.
    Generator,
    /// Time inside a job's timeline that no layer span covers.
    Unattributed,
}

fn layer_of(name: &str) -> Layer {
    match name {
        "core.kernel" => Layer::Kernel,
        "core.audit" => Layer::Audit,
        n if n.starts_with("chains.codec.") => Layer::Codec,
        n if n.starts_with("chains.vfs.") => Layer::Vfs,
        "chains.run_chain" | "service.payload" => Layer::Boundary,
        "runtime.run_cells" | "service.submit" | "service.queue_wait" | "service.pre"
        | "service.finish" => Layer::Dispatch,
        "gen.late" => Layer::Generator,
        _ => Layer::Unattributed,
    }
}

/// The root of every job's timeline.
const ROOT: &str = "job";

fn derived(name: &'static str, owner: u64, parent: u64, start: u64, end: u64) -> Span {
    Span {
        name,
        class: "",
        id: trace::next_id(),
        parent,
        owner,
        track: u32::MAX,
        start_ns: start,
        end_ns: end.max(start),
        n: 0,
        m: 0,
    }
}

/// The phases that marks imply: a `job` root per job or cell spanning
/// request to delivery, and under it `runtime.run_cells` for a cell, or
/// `gen.late`, `service.queue_wait`, `service.pre` and `service.finish`
/// for a service job. A service job is dispatched at its first storage
/// operation outside any span (`run_job` opening its checkpoint store).
#[must_use]
pub fn derive(marks: &[Marks], recorded: &[Span]) -> Vec<Span> {
    let mut first_io: HashMap<u64, u64> = HashMap::new();
    for s in recorded {
        if s.parent == NO_PARENT && s.owner != NO_OWNER && s.name.starts_with("chains.vfs.") {
            let t = first_io.entry(s.owner).or_insert(s.start_ns);
            *t = (*t).min(s.start_ns);
        }
    }
    let mut out = Vec::new();
    for m in marks {
        match *m {
            Marks::Cell {
                owner,
                requested,
                delivered,
            } => {
                let root = derived(ROOT, owner, NO_PARENT, requested, delivered);
                out.push(derived(
                    "runtime.run_cells",
                    owner,
                    root.id,
                    requested,
                    delivered,
                ));
                out.push(root);
            }
            Marks::Job {
                owner,
                due,
                submit_start,
                submit_end,
                payload_start,
                payload_end,
                classified,
            } => {
                let root = derived(ROOT, owner, NO_PARENT, due, classified);
                let dispatch = first_io
                    .get(&owner)
                    .copied()
                    .filter(|&t| t >= submit_start && t <= payload_start)
                    .unwrap_or(payload_start)
                    .max(submit_end);
                for (name, a, b) in [
                    ("gen.late", due, submit_start),
                    ("service.queue_wait", submit_end, dispatch),
                    ("service.pre", dispatch, payload_start),
                    ("service.finish", payload_end, classified),
                ] {
                    if b > a {
                        out.push(derived(name, owner, root.id, a, b));
                    }
                }
                out.push(root);
            }
        }
    }
    out
}

/// Gives every parentless span that belongs to a job the innermost
/// derived phase of that job containing its start.
pub fn attach(spans: &mut [Span]) {
    let mut phases: HashMap<u64, Vec<(u64, u64, bool, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.track == u32::MAX) {
        phases
            .entry(s.owner)
            .or_default()
            .push((s.start_ns, s.end_ns, s.name != ROOT, s.id));
    }
    for s in spans.iter_mut() {
        if s.parent != NO_PARENT || s.owner == NO_OWNER || s.track == u32::MAX {
            continue;
        }
        let Some(candidates) = phases.get(&s.owner) else {
            continue;
        };
        let inner = candidates
            .iter()
            .filter(|(a, b, ..)| *a <= s.start_ns && s.start_ns < *b)
            .max_by_key(|(a, _, nested, _)| (*a, *nested));
        if let Some(&(.., id)) = inner {
            s.parent = id;
        }
    }
}

/// Calls, total duration and summed counts of one span name and class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Spans.
    pub calls: u64,
    /// Summed durations, ns.
    pub dur_ns: u64,
    /// Summed `n`.
    pub n: u64,
    /// Summed `m`.
    pub m: u64,
}

/// Self time per layer over every job's timeline.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Jobs (or cells) in the ledger.
    pub jobs: u64,
    /// Summed timelines of all jobs, ns.
    pub timeline_ns: u64,
    /// Self time booked to each layer, ns.
    pub self_ns: BTreeMap<Layer, u64>,
    /// Tallies of every span under a job, by `(name, class)`.
    pub tally: BTreeMap<(&'static str, &'static str), Tally>,
    /// Spans under a job.
    pub spans: u64,
}

impl Ledger {
    /// Self time of `layer` as a share of all timelines.
    #[must_use]
    pub fn share(&self, layer: Layer) -> f64 {
        ratio(
            self.self_ns.get(&layer).copied().unwrap_or(0) as f64,
            self.timeline_ns as f64,
        )
    }

    /// The summed tally of every class of spans named `name`, or of every
    /// name starting with `name` when it ends in a dot.
    #[must_use]
    pub fn sum(&self, name: &str) -> Tally {
        let mut t = Tally::default();
        for (&(n, _), x) in &self.tally {
            if n == name || (name.ends_with('.') && n.starts_with(name)) {
                t.calls += x.calls;
                t.dur_ns += x.dur_ns;
                t.n += x.n;
                t.m += x.m;
            }
        }
        t
    }

    /// The tally of spans named `name` of class `class`.
    #[must_use]
    pub fn get(&self, name: &'static str, class: &'static str) -> Tally {
        self.tally.get(&(name, class)).copied().unwrap_or_default()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Books every span under a `job` root by self time.
#[must_use]
pub fn ledger(spans: &[Span]) -> Ledger {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut root_of: HashMap<u64, bool> = HashMap::new();
    let mut under_job = |s: &Span| -> bool {
        let mut path = Vec::new();
        let mut cur = s;
        let verdict = loop {
            if let Some(&v) = root_of.get(&cur.id) {
                break v;
            }
            path.push(cur.id);
            match by_id.get(&cur.parent) {
                Some(p) if cur.parent != NO_PARENT => cur = p,
                _ => break cur.name == ROOT,
            }
        };
        for id in path {
            root_of.insert(id, verdict);
        }
        verdict
    };
    let mut ledger = Ledger::default();
    for s in spans {
        if !under_job(s) {
            continue;
        }
        if s.name == ROOT {
            ledger.jobs += 1;
            ledger.timeline_ns += s.dur();
        }
        let own = trace::self_time(
            (s.start_ns, s.end_ns),
            children.get(&s.id).map_or(&[][..], Vec::as_slice),
        );
        *ledger.self_ns.entry(layer_of(s.name)).or_default() += own;
        let t = ledger.tally.entry((s.name, s.class)).or_default();
        t.calls += 1;
        t.dur_ns += s.dur();
        t.n += s.n;
        t.m += s.m;
        ledger.spans += 1;
    }
    ledger
}

/// The per-layer metrics of a traced run in catalogue order, and the
/// workload-specific figures printed beside them.
#[must_use]
pub fn per_layer(
    data: &RunData,
    l: &Ledger,
    cost_per_span_ns: f64,
) -> (Vec<f64>, Vec<(String, f64, &'static str)>) {
    let jobs = l.jobs.max(1) as f64;
    let per_job = |t: Tally| t.calls as f64 / jobs;
    let us_per_call = |t: Tally| ratio(t.dur_ns as f64, t.calls as f64) / 1e3;
    let kernel = l.sum("core.kernel");
    let audit = l.sum("core.audit");
    let codec = l.sum("chains.codec.");
    let vfs = l.sum("chains.vfs.");
    let ckpt_writes = l.get("chains.vfs.write", "checkpoint");
    let syncs = l.sum("chains.vfs.sync").calls + l.sum("chains.vfs.sync_dir").calls;
    let latency = stats::tail(&data.latency_ms);
    let values = vec![
        ratio(kernel.dur_ns as f64, kernel.n as f64),
        l.share(Layer::Kernel),
        us_per_call(audit),
        per_job(audit),
        l.share(Layer::Audit),
        l.share(Layer::Boundary),
        per_job(ckpt_writes),
        ratio(ckpt_writes.n as f64, ckpt_writes.calls as f64),
        per_job(l.get("chains.vfs.read", "checkpoint")),
        us_per_call(codec),
        per_job(l.sum("chains.codec.decode")),
        l.share(Layer::Codec),
        us_per_call(vfs),
        per_job(vfs),
        syncs as f64 / jobs,
        l.share(Layer::Vfs),
        l.self_ns.get(&Layer::Dispatch).copied().unwrap_or(0) as f64 / jobs / 1e3,
        l.share(Layer::Dispatch),
        latency.tail.map_or(latency.p50, |(_, v)| v),
        l.share(Layer::Generator),
        l.share(Layer::Unattributed),
        ratio(l.spans as f64 * cost_per_span_ns, l.timeline_ns as f64) * 100.0,
    ];

    let mut extra: Vec<(String, f64, &'static str)> = vec![
        (
            "core.kernel.accept_ratio".into(),
            ratio(kernel.m as f64, kernel.n as f64),
            "ratio",
        ),
        ("trace.spans".into(), l.spans as f64, "count"),
        ("trace.jobs".into(), l.jobs as f64, "count"),
    ];
    if let Some((p, _)) = latency.tail {
        extra.push((
            format!("job.latency_tail_percentile.p{p}"),
            latency.count as f64,
            "samples",
        ));
    }
    for (&(name, class), t) in &l.tally {
        if let Some(op) = name.strip_prefix("chains.vfs.") {
            extra.push((
                format!("chains.vfs.{class}.{op}.calls_per_job"),
                per_job(*t),
                "count",
            ));
            extra.push((
                format!("chains.vfs.{class}.{op}.us_per_call"),
                us_per_call(*t),
                "us",
            ));
        }
    }
    let manifest_ops: Vec<Tally> = l
        .tally
        .iter()
        .filter(|((n, c), _)| n.starts_with("chains.vfs.") && *c == "manifest")
        .map(|(_, t)| *t)
        .collect();
    let ops: u64 = manifest_ops.iter().map(|t| t.calls).sum();
    let ns: u64 = manifest_ops.iter().map(|t| t.dur_ns).sum();
    extra.push((
        "service.manifest.ops_per_job".into(),
        ops as f64 / jobs,
        "count",
    ));
    extra.push((
        "service.manifest.us_per_job".into(),
        ns as f64 / jobs / 1e3,
        "us",
    ));
    (values, extra)
}

/// Medians and tails of the derived service phases and of the submit and
/// payload spans, and `run_cells` overhead for the chain workloads.
#[must_use]
pub fn phase_figures(spans: &[Span], data: &RunData) -> Vec<(String, f64, &'static str)> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.dur() as f64);
    }
    let mut out = Vec::new();
    for (name, label) in [
        ("service.submit", "service.admission"),
        ("service.queue_wait", "service.queue_wait"),
        ("service.pre", "service.pre"),
        ("service.payload", "service.payload"),
        ("service.finish", "service.finish"),
    ] {
        let Some(durs) = by_name.get(name) else {
            continue;
        };
        let t = stats::tail(durs);
        out.push((format!("{label}.us_p50"), t.p50 / 1e3, "us"));
        if let Some((p, v)) = t.tail {
            out.push((format!("{label}.us_p{p}"), v / 1e3, "us"));
        }
    }
    if let Some(payload) = by_name.get("service.payload") {
        let busy: f64 = ["service.pre", "service.payload", "service.finish"]
            .iter()
            .filter_map(|n| by_name.get(n))
            .flatten()
            .sum();
        let workers = sops_service::ServiceConfig::default().workers as f64;
        out.push((
            "service.busy_share".into(),
            ratio(busy, workers * data.measured_s * 1e9),
            "fraction",
        ));
        out.push(("service.payloads".into(), payload.len() as f64, "count"));
    }
    // `run_cells` wall time minus its slowest cell, per round.
    let mut rounds: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for m in &data.marks {
        if let Marks::Cell {
            owner,
            requested,
            delivered,
        } = *m
        {
            rounds
                .entry(owner >> 32)
                .or_insert((delivered - requested, 0));
        }
    }
    for s in spans.iter().filter(|s| s.name == "runtime.cell") {
        if let Some(r) = rounds.get_mut(&(s.owner >> 32)) {
            r.1 = r.1.max(s.dur());
        }
    }
    if !rounds.is_empty() {
        let overhead: Vec<f64> = rounds
            .values()
            .map(|&(wall, slowest)| wall.saturating_sub(slowest) as f64 / 1e6)
            .collect();
        out.push((
            "runtime.cells.overhead_ms".into(),
            stats::median(&overhead),
            "ms",
        ));
    }
    out
}

/// One metric line: `workload metric value unit`.
#[must_use]
pub fn line(workload: &str, name: &str, value: f64, unit: &str) -> String {
    format!("{workload} {name} {value} {unit}")
}

/// A parsed metric line.
#[derive(Clone, Debug, PartialEq)]
pub struct Line {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Parses a `workload metric value unit` line; anything else is `None`.
#[must_use]
pub fn parse_line(text: &str) -> Option<Line> {
    let fields: Vec<&str> = text.split_whitespace().collect();
    let [workload, name, value, unit] = fields[..] else {
        return None;
    };
    Workload::parse(workload)?;
    let value: f64 = value.parse().ok()?;
    value.is_finite().then(|| Line {
        workload: workload.to_string(),
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    })
}

/// The final result line of a run.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&Spec, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(s, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                s.name, s.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// `correct`, `attempted` and `failed` from a result line.
#[must_use]
pub fn parse_result(text: &str) -> Option<(bool, u64, u64)> {
    let field = |key: &str| -> Option<&str> {
        let rest = text.split_once(&format!("\"{key}\": "))?.1;
        rest.split([',', '}']).next()
    };
    let correct = match field("correct")? {
        "true" => true,
        "false" => false,
        _ => return None,
    };
    Some((
        correct,
        field("attempted")?.parse().ok()?,
        field("failed")?.parse().ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorded span; ids are offset clear of those `derive` draws.
    fn span(name: &'static str, id: u64, parent: u64, owner: u64, a: u64, b: u64) -> Span {
        let far = |id: u64| if id == NO_PARENT { id } else { id + (1 << 40) };
        Span {
            name,
            class: "",
            id: far(id),
            parent: far(parent),
            owner,
            track: 0,
            start_ns: a,
            end_ns: b,
            n: 0,
            m: 0,
        }
    }

    #[test]
    fn metric_lines_round_trip() {
        let text = line("chain-long", "steps_per_s", 123_456_789.5, "steps/s");
        assert_eq!(text, "chain-long steps_per_s 123456789.5 steps/s");
        assert_eq!(
            parse_line(&text),
            Some(Line {
                workload: "chain-long".into(),
                name: "steps_per_s".into(),
                value: 123_456_789.5,
                unit: "steps/s".into(),
            })
        );
        assert_eq!(parse_line("# state dir on ext4"), None);
        assert_eq!(parse_line("nope steps_per_s 1 s"), None);
        assert_eq!(parse_line("chain-long steps_per_s NaN s"), None);
        assert_eq!(parse_line("chain-long steps_per_s 1"), None);
        assert_eq!(parse_line("chain-long steps_per_s 1 s extra"), None);
    }

    #[test]
    fn result_line_round_trips() {
        let json = result_json(
            true,
            12,
            0,
            &[(&END_TO_END[0], 1.5), (&END_TO_END[3], 0.25)],
        );
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"steps_per_s\": {\"value\": 1.5, \"unit\": \"steps/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(parse_result(&json), Some((true, 12, 0)));
        assert_eq!(
            parse_result(&result_json(false, 3, 2, &[])),
            Some((false, 3, 2))
        );
        assert_eq!(parse_result("{}"), None);
    }

    #[test]
    fn ledger_books_self_time_by_layer() {
        // A cell: job root 0–100, run_cells 0–100, cell 10–90,
        // run_chain 12–88 with kernel 12–70 and audit 70–75 and a vfs
        // write 75–80.
        let mut spans = vec![
            span("runtime.cell", 3, NO_PARENT, 7, 10, 90),
            span("chains.run_chain", 4, 3, 7, 12, 88),
            span("core.kernel", 5, 4, 7, 12, 70),
            span("core.audit", 6, 4, 7, 70, 75),
            span("chains.vfs.write", 8, 4, 7, 75, 80),
            span("service.open", 9, NO_PARENT, NO_OWNER, 0, 5),
        ];
        spans.extend(derive(
            &[Marks::Cell {
                owner: 7,
                requested: 0,
                delivered: 100,
            }],
            &spans,
        ));
        attach(&mut spans);
        let run_cells = spans
            .iter()
            .find(|s| s.name == "runtime.run_cells")
            .unwrap();
        assert_eq!(spans[0].parent, run_cells.id);
        let l = ledger(&spans);
        assert_eq!((l.jobs, l.timeline_ns), (1, 100));
        assert_eq!(l.self_ns[&Layer::Kernel], 58);
        assert_eq!(l.self_ns[&Layer::Audit], 5);
        assert_eq!(l.self_ns[&Layer::Vfs], 5);
        assert_eq!(l.self_ns[&Layer::Boundary], 76 - 68);
        assert_eq!(l.self_ns[&Layer::Dispatch], 20);
        // The cell span's own 4 ns of glue; the root is fully covered.
        assert_eq!(l.self_ns[&Layer::Unattributed], 4);
        assert_eq!(l.self_ns.values().sum::<u64>(), 100);
        // service.open belongs to no job.
        assert_eq!(l.spans, 7);
        assert!((l.share(Layer::Kernel) - 0.58).abs() < 1e-12);
    }

    #[test]
    fn service_phases_split_at_first_storage_operation() {
        let mut spans = vec![
            span("service.submit", 2, NO_PARENT, 1, 12, 15),
            span("chains.vfs.create_dir_all", 3, NO_PARENT, 1, 20, 22),
            span("service.payload", 4, NO_PARENT, 1, 30, 60),
            span("core.kernel", 5, 4, 1, 31, 50),
            span("chains.vfs.write", 6, NO_PARENT, 1, 62, 64),
        ];
        spans.extend(derive(
            &[Marks::Job {
                owner: 1,
                due: 10,
                submit_start: 12,
                submit_end: 15,
                payload_start: 30,
                payload_end: 60,
                classified: 70,
            }],
            &spans,
        ));
        attach(&mut spans);
        let id = |name: &str| spans.iter().find(|s| s.name == name).unwrap().id;
        let parent = |name: &str| spans.iter().find(|s| s.name == name).unwrap().parent;
        assert_eq!(parent("chains.vfs.create_dir_all"), id("service.pre"));
        assert_eq!(parent("chains.vfs.write"), id("service.finish"));
        assert_eq!(parent("service.payload"), id(ROOT));
        assert_eq!(parent("service.submit"), id(ROOT));
        let l = ledger(&spans);
        assert_eq!(l.timeline_ns, 60);
        // late 2 (generator); submit 3 + queue 5 + pre 10−2 + finish
        // 10−2 (dispatch); payload 30−19 (boundary); kernel 19; vfs 4.
        assert_eq!(l.self_ns[&Layer::Generator], 2);
        assert_eq!(l.self_ns[&Layer::Unattributed], 0);
        assert_eq!(l.self_ns[&Layer::Dispatch], 3 + 5 + 8 + 8);
        assert_eq!(l.self_ns[&Layer::Boundary], 11);
        assert_eq!(l.self_ns[&Layer::Kernel], 19);
        assert_eq!(l.self_ns[&Layer::Vfs], 4);
        assert_eq!(l.self_ns.values().sum::<u64>(), 60);
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn catalogue_respects_the_manifest_limits() {
        let specs: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, s) in specs.iter().enumerate() {
            assert!(s.name.len() <= 64 && s.unit.len() <= 16, "{}", s.name);
            assert!(
                specs[..i].iter().all(|o| o.name != s.name),
                "duplicate {}",
                s.name
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|s| s.bound <= setup.bound));
    }
}
