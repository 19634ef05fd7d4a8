//! Telemetry records for chain runs.
//!
//! The paper analyzes chain `M` through per-step quantities — acceptance
//! probabilities, perimeter `p(σ)`, heterogeneous edges `h(σ)` — yet a bare
//! [`MarkovChain::run`](crate::MarkovChain::run) only reports the accepted
//! count. `sops-core`'s `Instrumented` accumulates those quantities; this
//! module holds what it reports and where the reports go:
//!
//! * [`TelemetryReport`] + [`ObservableSeries`] — a snapshot of outcome
//!   counters, windowed acceptance rates, steps/sec throughput, and
//!   ring-buffered observable time series;
//! * [`JsonlSink`] + [`RunManifest`] — a line-oriented metrics file: one
//!   manifest record (seed, `(λ, γ)`, `n`, step budget) followed by periodic
//!   metric records, designed to be appended to across checkpoint resumes;
//! * [`json_escape`] and [`json_f64`] — the JSON rendering every record of
//!   the workspace shares.

use std::fs::{File, OpenOptions};
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};

/// One observable's recorded time series, as [`TelemetryReport::series`]
/// holds it for the instrumented experiment bins.
#[derive(Clone, Debug, PartialEq)]
pub struct ObservableSeries {
    /// The observable's name (e.g. `"perimeter"`).
    pub name: String,
    /// The sampling interval in steps.
    pub every: u64,
    /// Retained `(step, value)` samples, oldest first.
    pub samples: Vec<(u64, f64)>,
    /// Total samples ever taken, including ring-evicted ones.
    pub total_samples: u64,
}

/// A point-in-time snapshot of an instrumented chain's accumulation
/// (`sops-core`'s `Instrumented::report`).
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryReport {
    /// Steps recorded since construction.
    pub steps: u64,
    /// Accepted (state-changing) steps.
    pub accepted: u64,
    /// Per-outcome-class `(label, count)` pairs; the counts sum to `steps`.
    pub counts: Vec<(&'static str, u64)>,
    /// The acceptance-rate window width in steps.
    pub window: u64,
    /// Completed-window `(end_step, acceptance_rate)` pairs, oldest first.
    pub window_rates: Vec<(u64, f64)>,
    /// Recorded steps divided by elapsed wall-clock, when any step ran.
    pub steps_per_sec: Option<f64>,
    /// One series per configured observable.
    pub series: Vec<ObservableSeries>,
}

impl TelemetryReport {
    /// Overall fraction of recorded steps that changed the state.
    #[must_use]
    pub fn acceptance_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.accepted as f64 / self.steps as f64
        }
    }

    /// The count recorded for outcome class `label` (0 if unknown).
    #[must_use]
    pub fn count(&self, label: &str) -> u64 {
        self.counts
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |(_, c)| *c)
    }
}

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON value (`null` for non-finite numbers, which
/// raw JSON cannot represent).
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a decimal point; keep them
        // unambiguously floating-point for strict readers.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

/// The identifying header of one telemetry file: everything needed to
/// reproduce the run it describes.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// A human-readable run label (binary and cell, e.g. `"mixing/n=70"`).
    pub run: String,
    /// The RNG seed (or seed hash) the run started from.
    pub seed: u64,
    /// The compression bias `λ`.
    pub lambda: f64,
    /// The separation bias `γ`.
    pub gamma: f64,
    /// Number of particles `n`.
    pub n: u64,
    /// The step budget of the run (0 when open-ended).
    pub steps: u64,
}

impl RunManifest {
    /// Renders the manifest as a single JSON line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"manifest\",\"run\":\"{}\",\"seed\":{},\"lambda\":{},\"gamma\":{},\"n\":{},\"steps\":{}}}",
            json_escape(&self.run),
            self.seed,
            json_f64(self.lambda),
            json_f64(self.gamma),
            self.n,
            self.steps,
        )
    }
}

/// A line-oriented (JSONL) telemetry file: one manifest record followed by
/// periodic metric records.
///
/// Integrates with the checkpoint layer's resume semantics: opening a sink
/// with [`JsonlSink::resume`] appends to an existing file whose first line
/// is a valid manifest (recording a `"resumed"` marker), and falls back to
/// a fresh file otherwise — so an interrupted-and-resumed run yields one
/// coherent log instead of a truncated or duplicated one.
#[derive(Debug)]
pub struct JsonlSink {
    file: File,
}

impl JsonlSink {
    /// Creates (truncating) a telemetry file and writes the manifest line.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be created or written.
    pub fn create(path: impl Into<PathBuf>, manifest: &RunManifest) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = File::create(&path)?;
        let mut sink = JsonlSink { file };
        sink.record_line(&manifest.to_json())?;
        Ok(sink)
    }

    /// Opens a telemetry file for a resumed run: appends to `path` when its
    /// first line is a valid manifest record (writing a
    /// `{"kind":"resumed","step":…}` marker), otherwise starts a fresh file
    /// with `manifest` as if by [`JsonlSink::create`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn resume(
        path: impl Into<PathBuf>,
        manifest: &RunManifest,
        at_step: u64,
    ) -> std::io::Result<Self> {
        let path = path.into();
        if Self::has_manifest(&path) {
            let file = OpenOptions::new().append(true).open(&path)?;
            let mut sink = JsonlSink { file };
            sink.record_line(&format!("{{\"kind\":\"resumed\",\"step\":{at_step}}}"))?;
            return Ok(sink);
        }
        Self::create(path, manifest)
    }

    /// Whether `path` exists and starts with a manifest record.
    #[must_use]
    pub(crate) fn has_manifest(path: &Path) -> bool {
        let Ok(file) = File::open(path) else {
            return false;
        };
        let mut first = String::new();
        if BufReader::new(file).read_line(&mut first).is_err() {
            return false;
        }
        first.trim_start().starts_with("{\"kind\":\"manifest\"")
    }

    /// Appends one pre-rendered JSON line.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn record_line(&mut self, json: &str) -> std::io::Result<()> {
        self.file.write_all(json.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()
    }

    /// Appends one metrics record for `report`, with all step counts offset
    /// by `base_step` (nonzero when the process resumed mid-run, so a
    /// resumed log continues the original step axis).
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn record_metrics(
        &mut self,
        base_step: u64,
        report: &TelemetryReport,
    ) -> std::io::Result<()> {
        self.record_line(&metrics_record_json(base_step, report))
    }
}

/// Renders one `{"kind":"metrics",…}` line for `report`, offsetting every
/// step coordinate by `base_step`.
#[must_use]
pub(crate) fn metrics_record_json(base_step: u64, report: &TelemetryReport) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(&format!(
        "{{\"kind\":\"metrics\",\"step\":{},\"steps_recorded\":{},\"accepted\":{},\"acceptance_rate\":{}",
        base_step + report.steps,
        report.steps,
        report.accepted,
        json_f64(report.acceptance_rate()),
    ));
    out.push_str(&format!(
        ",\"steps_per_sec\":{}",
        report.steps_per_sec.map_or("null".into(), json_f64)
    ));
    out.push_str(",\"outcomes\":{");
    for (i, (label, count)) in report.counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{count}", json_escape(label)));
    }
    out.push('}');
    out.push_str(&format!(",\"window\":{},\"window_rates\":[", report.window));
    for (i, (step, rate)) in report.window_rates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{},{}]", base_step + step, json_f64(*rate)));
    }
    out.push_str("],\"observables\":{");
    for (i, s) in report.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"every\":{},\"last\":",
            json_escape(&s.name),
            s.every
        ));
        match s.samples.last() {
            Some((step, v)) => out.push_str(&format!("[{},{}]", base_step + step, json_f64(*v))),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Renders one `{"kind":"series",…}` line dumping every retained sample of
/// every observable — written once at the end of a run, where the periodic
/// metrics records only carry the latest sample.
#[must_use]
pub fn series_record_json(base_step: u64, report: &TelemetryReport) -> String {
    let mut out = String::from("{\"kind\":\"series\",\"observables\":{");
    for (i, s) in report.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"every\":{},\"total_samples\":{},\"samples\":[",
            json_escape(&s.name),
            s.every,
            s.total_samples
        ));
        for (j, (step, v)) in s.samples.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{}]", base_step + step, json_f64(*v)));
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report as an instrumented run of 50 steps with two outcome
    /// classes and one observable sampled every 10 steps leaves it.
    fn report() -> TelemetryReport {
        TelemetryReport {
            steps: 50,
            accepted: 20,
            counts: vec![("hold", 30), ("accepted", 20)],
            window: 10_000,
            window_rates: Vec::new(),
            steps_per_sec: Some(1e6),
            series: vec![ObservableSeries {
                name: "state".into(),
                every: 10,
                samples: (1..=5).map(|k| (10 * k, k as f64)).collect(),
                total_samples: 5,
            }],
        }
    }

    #[test]
    fn json_f64_handles_edge_values() {
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(4.0), "4.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        // Large magnitudes must stay parseable and round-trip exactly.
        assert_eq!(json_f64(1e300).parse::<f64>().unwrap(), 1e300);
    }

    #[test]
    fn manifest_json_is_well_formed() {
        let m = RunManifest {
            run: "test\"run".into(),
            seed: 42,
            lambda: 4.0,
            gamma: 2.5,
            n: 100,
            steps: 1_000,
        };
        let json = m.to_json();
        assert!(json.starts_with("{\"kind\":\"manifest\""));
        assert!(json.contains("\"run\":\"test\\\"run\""));
        assert!(json.contains("\"lambda\":4.0"));
        assert!(json.contains("\"gamma\":2.5"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn sink_writes_manifest_then_metrics_and_resumes_by_appending() {
        let dir = std::env::temp_dir().join(format!("sops-telemetry-test-{}", std::process::id()));
        let path = dir.join("run.jsonl");
        let manifest = RunManifest {
            run: "unit".into(),
            seed: 1,
            lambda: 4.0,
            gamma: 4.0,
            n: 10,
            steps: 100,
        };

        let mut sink = JsonlSink::create(&path, &manifest).unwrap();
        sink.record_metrics(
            0,
            &TelemetryReport {
                steps: 100,
                ..report()
            },
        )
        .unwrap();

        // Resume appends (manifest already present), new process offset 100.
        let mut sink = JsonlSink::resume(&path, &manifest, 100).unwrap();
        sink.record_metrics(100, &report()).unwrap();
        sink.record_line(&series_record_json(100, &report()))
            .unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("{\"kind\":\"manifest\""));
        assert!(lines[1].starts_with("{\"kind\":\"metrics\""));
        assert!(lines[1].contains("\"step\":100"));
        assert_eq!(lines[2], "{\"kind\":\"resumed\",\"step\":100}");
        assert!(lines[3].contains("\"step\":150"));
        assert!(lines[4].starts_with("{\"kind\":\"series\""));
        assert!(lines[4].contains("\"total_samples\":5,\"samples\":[[110,1.0],"));

        // A file without a manifest is replaced, not appended to.
        let bogus = dir.join("bogus.jsonl");
        std::fs::write(&bogus, "not json\n").unwrap();
        let _sink = JsonlSink::resume(&bogus, &manifest, 0).unwrap();
        let text = std::fs::read_to_string(&bogus).unwrap();
        assert!(text.starts_with("{\"kind\":\"manifest\""));
        assert!(!text.contains("not json"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_record_offsets_steps_by_base() {
        let json = metrics_record_json(1_000, &report());
        assert!(json.contains("\"step\":1050"), "{json}");
        assert!(json.contains("\"steps_recorded\":50"));
        assert!(json.contains("\"outcomes\":{\"hold\":30,\"accepted\":20}"));
        assert!(json.contains("\"last\":[1050,5.0]"), "{json}");
    }

    #[test]
    fn report_counts_by_label_and_rates_its_steps() {
        let report = report();
        assert_eq!(report.count("accepted"), 20);
        assert_eq!(report.count("no_such_label"), 0);
        assert_eq!(report.acceptance_rate(), 0.4);
        let empty = TelemetryReport { steps: 0, ..report };
        assert_eq!(empty.acceptance_rate(), 0.0);
    }
}
