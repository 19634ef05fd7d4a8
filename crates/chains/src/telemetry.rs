//! Step-level observability for chain runs.
//!
//! The paper analyzes chain `M` through per-step quantities — acceptance
//! probabilities, perimeter `p(σ)`, heterogeneous edges `h(σ)` — yet a bare
//! [`MarkovChain::step`] only reports accepted/hold. This module closes the
//! gap without touching the samplers:
//!
//! * [`OutcomeClass`] / [`ClassifiedChain`] — a chain that can classify each
//!   step into a small fixed set of typed outcomes (e.g. which guard
//!   rejected a proposal), with the contract that classification consumes
//!   exactly the same RNG stream as the plain step;
//! * [`Instrumented`] — a zero-configuration wrapper accumulating outcome
//!   counters, windowed acceptance rates, steps/sec throughput, and
//!   ring-buffered observable time series. It implements [`MarkovChain`]
//!   itself, so checkpointed runners and trajectory recorders compose with
//!   it unchanged. Disabled instrumentation delegates straight to the inner
//!   chain — no counters, no clock reads — so the overhead is one branch;
//! * [`JsonlSink`] + [`RunManifest`] — a line-oriented metrics file: one
//!   manifest record (seed, `(λ, γ)`, `n`, step budget) followed by periodic
//!   metric records, designed to be appended to across checkpoint resumes.
//!
//! # Determinism contract
//!
//! Instrumentation must never perturb the simulation: [`Instrumented`]
//! draws nothing from the RNG itself and observes state only at sample
//! boundaries, so an instrumented run visits bitwise-identical states to a
//! bare run with the same seed. The cross-layer tests assert this.

use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::Rng;

use crate::chain::MarkovChain;

/// A small fixed alphabet of per-step outcomes.
///
/// Implementors are tiny enums ("move accepted", "rejected by guard", …)
/// with a stable dense indexing so counters are plain arrays.
pub trait OutcomeClass: Copy {
    /// Number of distinct outcome classes.
    const CLASSES: usize;

    /// The dense index of this outcome, in `0..Self::CLASSES`.
    fn index(self) -> usize;

    /// A stable snake_case label for class `index` (used as a JSON key).
    ///
    /// # Panics
    ///
    /// May panic when `index ≥ Self::CLASSES`.
    fn label(index: usize) -> &'static str;

    /// Whether this outcome changed the state.
    fn accepted(self) -> bool;
}

/// The two-class outcome of an unclassified chain: hold or accepted.
///
/// Lets [`Instrumented`] wrap any [`MarkovChain`] whose `step` already
/// returns the acceptance bit, at the cost of outcome granularity.
impl OutcomeClass for bool {
    const CLASSES: usize = 2;

    fn index(self) -> usize {
        usize::from(self)
    }

    fn label(index: usize) -> &'static str {
        ["hold", "accepted"][index]
    }

    fn accepted(self) -> bool {
        self
    }
}

/// A chain whose steps can be classified into typed outcomes.
///
/// # Contract
///
/// [`ClassifiedChain::step_classified`] must perform *exactly* the
/// transition [`MarkovChain::step`] would perform, consuming exactly the
/// same RNG stream, with `outcome.accepted()` equal to `step`'s return
/// value. The intended implementation pattern is the reverse: `step` is a
/// thin wrapper over `step_classified` (as in `sops-core`'s
/// `SeparationChain::step_detailed`), which makes the contract structural.
pub trait ClassifiedChain: MarkovChain {
    /// The outcome alphabet of one step.
    type Outcome: OutcomeClass;

    /// Performs one transition, reporting which outcome class it fell into.
    fn step_classified<R: Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        rng: &mut R,
    ) -> Self::Outcome;
}

/// A bounded FIFO over the most recent samples of a time series.
///
/// Pushing beyond capacity evicts the oldest entry, so memory stays O(cap)
/// over arbitrarily long runs while [`RingBuffer::total_pushed`] still
/// reports the unbounded count.
#[derive(Clone, Debug)]
pub(crate) struct RingBuffer<T> {
    buf: Vec<T>,
    cap: usize,
    start: usize,
    pushed: u64,
}

impl<T> RingBuffer<T> {
    /// Creates a buffer retaining at most `cap` entries (`cap ≥ 1`).
    #[must_use]
    pub(crate) fn new(cap: usize) -> Self {
        RingBuffer {
            buf: Vec::new(),
            cap: cap.max(1),
            start: 0,
            pushed: 0,
        }
    }

    /// Appends a sample, evicting the oldest if the buffer is full.
    pub(crate) fn push(&mut self, value: T) {
        if self.buf.len() < self.cap {
            self.buf.push(value);
        } else {
            self.buf[self.start] = value;
            self.start = (self.start + 1) % self.cap;
        }
        self.pushed += 1;
    }

    /// Total entries ever pushed, including evicted ones.
    #[must_use]
    pub(crate) fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Iterates oldest-to-newest over the retained entries.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        let (tail, head) = self.buf.split_at(self.start);
        head.iter().chain(tail.iter())
    }
}

/// One configured observable: a named closure sampled every `every` steps
/// into a bounded ring.
struct Observer<S> {
    name: String,
    every: u64,
    ring: RingBuffer<(u64, f64)>,
    observe: Box<dyn Fn(&S) -> f64 + Send>,
}

/// The mutable accumulation behind an [`Instrumented`] chain.
struct Accumulator<S> {
    counts: Vec<u64>,
    steps: u64,
    accepted: u64,
    window: u64,
    window_steps: u64,
    window_accepted: u64,
    window_rates: RingBuffer<(u64, f64)>,
    started: Option<Instant>,
    observers: Vec<Observer<S>>,
    ring_capacity: usize,
}

impl<S> Accumulator<S> {
    fn new(classes: usize, window: u64) -> Self {
        Accumulator {
            counts: vec![0; classes],
            steps: 0,
            accepted: 0,
            window: window.max(1),
            window_steps: 0,
            window_accepted: 0,
            window_rates: RingBuffer::new(DEFAULT_RING_CAPACITY),
            started: None,
            observers: Vec::new(),
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

/// Default retention for windowed acceptance rates and observable series.
const DEFAULT_RING_CAPACITY: usize = 256;

/// Default acceptance-rate window width, in steps.
const DEFAULT_WINDOW: u64 = 10_000;

/// A [`MarkovChain`] wrapper that accumulates step-level telemetry.
///
/// Wraps any [`ClassifiedChain`] and counts every step's typed outcome,
/// tracks windowed acceptance rates and wall-clock throughput, and samples
/// configured observables into bounded rings. The wrapper implements both
/// [`MarkovChain`] and [`ClassifiedChain`], so it drops into `run` and
/// `run_supervised` unchanged.
///
/// When constructed [`Instrumented::disabled`], `step` and `run` forward
/// directly to the inner chain — no counter updates, no clock reads — so
/// the cost is a single predictable branch per call, and a `run` keeps
/// whatever the inner chain's own `run` saves over its step loop.
///
/// # Example
///
/// Any [`MarkovChain`] already classifies into the two-class `bool`
/// alphabet (hold / accepted), so a plain chain can be lifted by a trivial
/// [`ClassifiedChain`] impl. `sops-core`'s `SeparationChain` provides the
/// full eight-class `StepOutcome` alphabet instead.
///
/// ```
/// use rand::{rngs::StdRng, Rng, RngExt as _, SeedableRng};
/// use sops_chains::telemetry::{ClassifiedChain, Instrumented};
/// use sops_chains::MarkovChain;
///
/// /// Lazy walk on ℤ mod 10.
/// struct Walk;
/// impl MarkovChain for Walk {
///     type State = u8;
///     fn step<R: Rng + ?Sized>(&self, s: &mut u8, rng: &mut R) -> bool {
///         self.step_classified(s, rng)
///     }
/// }
/// impl ClassifiedChain for Walk {
///     type Outcome = bool;
///     fn step_classified<R: Rng + ?Sized>(&self, s: &mut u8, rng: &mut R) -> bool {
///         match rng.random_range(0..3u8) {
///             0 => { *s = (*s + 1) % 10; true }
///             1 => { *s = (*s + 9) % 10; true }
///             _ => false,
///         }
///     }
/// }
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut s = 0u8;
/// let chain = Instrumented::new(Walk)
///     .with_observable("position", 100, |s: &u8| f64::from(*s));
/// chain.run(&mut s, 5_000, &mut rng);
/// let report = chain.report();
/// assert_eq!(report.steps, 5_000);
/// assert_eq!(report.counts.iter().map(|(_, c)| c).sum::<u64>(), 5_000);
/// assert_eq!(report.count("accepted"), report.accepted);
/// ```
pub struct Instrumented<C: ClassifiedChain> {
    inner: C,
    enabled: bool,
    acc: RefCell<Accumulator<C::State>>,
}

impl<C: ClassifiedChain> Instrumented<C> {
    /// Wraps `inner` with telemetry enabled.
    #[must_use]
    pub fn new(inner: C) -> Self {
        Instrumented {
            acc: RefCell::new(Accumulator::new(C::Outcome::CLASSES, DEFAULT_WINDOW)),
            inner,
            enabled: true,
        }
    }

    /// Wraps `inner` with telemetry disabled: `step` forwards directly to
    /// the inner chain and nothing is recorded.
    #[must_use]
    pub fn disabled(inner: C) -> Self {
        let mut this = Self::new(inner);
        this.enabled = false;
        this
    }

    /// Sets the acceptance-rate window width in steps (default 10 000).
    #[must_use]
    pub fn with_window(self, window: u64) -> Self {
        self.acc.borrow_mut().window = window.max(1);
        self
    }

    /// Bounds every retention ring (windowed acceptance rates and all
    /// observables registered so far or later) to `cap` entries — the
    /// memory-ceiling knob: telemetry retention is the only unbounded-ish
    /// buffer in a long run, so capping the rings caps the footprint.
    ///
    /// Call before recording; resizing discards already-retained samples.
    #[must_use]
    pub fn with_ring_capacity(self, cap: usize) -> Self {
        let cap = cap.max(1);
        {
            let mut acc = self.acc.borrow_mut();
            acc.window_rates = RingBuffer::new(cap);
            for o in &mut acc.observers {
                o.ring = RingBuffer::new(cap);
            }
            acc.ring_capacity = cap;
        }
        self
    }

    /// Registers a named observable sampled every `every` steps into a
    /// bounded ring (the most recent 256 samples are retained).
    ///
    /// # Panics
    ///
    /// Panics if `every` is 0.
    #[must_use]
    pub fn with_observable(
        self,
        name: impl Into<String>,
        every: u64,
        observe: impl Fn(&C::State) -> f64 + Send + 'static,
    ) -> Self {
        assert!(every > 0, "observable sampling interval must be positive");
        {
            let mut acc = self.acc.borrow_mut();
            let cap = acc.ring_capacity;
            acc.observers.push(Observer {
                name: name.into(),
                every,
                ring: RingBuffer::new(cap),
                observe: Box::new(observe),
            });
        }
        self
    }

    /// Snapshots the accumulated telemetry.
    #[must_use]
    pub fn report(&self) -> TelemetryReport {
        let acc = self.acc.borrow();
        TelemetryReport {
            steps: acc.steps,
            accepted: acc.accepted,
            counts: (0..C::Outcome::CLASSES)
                .map(|i| (C::Outcome::label(i), acc.counts[i]))
                .collect(),
            window: acc.window,
            window_rates: acc.window_rates.iter().copied().collect(),
            steps_per_sec: acc.started.and_then(|t| {
                let secs = t.elapsed().as_secs_f64();
                (secs > 0.0).then(|| acc.steps as f64 / secs)
            }),
            series: acc
                .observers
                .iter()
                .map(|o| ObservableSeries {
                    name: o.name.clone(),
                    every: o.every,
                    samples: o.ring.iter().copied().collect(),
                    total_samples: o.ring.total_pushed(),
                })
                .collect(),
        }
    }

    fn record(&self, outcome: C::Outcome, state: &C::State) {
        let mut acc = self.acc.borrow_mut();
        let acc = &mut *acc;
        if acc.started.is_none() {
            acc.started = Some(Instant::now());
        }
        acc.counts[outcome.index()] += 1;
        acc.steps += 1;
        let accepted = u64::from(outcome.accepted());
        acc.accepted += accepted;
        acc.window_steps += 1;
        acc.window_accepted += accepted;
        if acc.window_steps >= acc.window {
            let rate = acc.window_accepted as f64 / acc.window_steps as f64;
            acc.window_rates.push((acc.steps, rate));
            acc.window_steps = 0;
            acc.window_accepted = 0;
        }
        let steps = acc.steps;
        for o in &mut acc.observers {
            if steps % o.every == 0 {
                o.ring.push((steps, (o.observe)(state)));
            }
        }
    }
}

impl<C: ClassifiedChain> MarkovChain for Instrumented<C> {
    type State = C::State;

    #[inline]
    fn step<R: Rng + ?Sized>(&self, state: &mut Self::State, rng: &mut R) -> bool {
        if !self.enabled {
            return self.inner.step(state, rng);
        }
        self.step_classified(state, rng).accepted()
    }

    /// Disabled, this is the inner chain's own `run` (which may be faster
    /// than its step loop); enabled, every step is classified and recorded.
    fn run<R: Rng + ?Sized>(&self, state: &mut Self::State, steps: u64, rng: &mut R) -> u64 {
        if !self.enabled {
            return self.inner.run(state, steps, rng);
        }
        let mut accepted = 0;
        for _ in 0..steps {
            accepted += u64::from(self.step_classified(state, rng).accepted());
        }
        accepted
    }
}

impl<C: ClassifiedChain> ClassifiedChain for Instrumented<C> {
    type Outcome = C::Outcome;

    #[inline]
    fn step_classified<R: Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        rng: &mut R,
    ) -> Self::Outcome {
        let outcome = self.inner.step_classified(state, rng);
        if self.enabled {
            self.record(outcome, state);
        }
        outcome
    }
}

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

/// A point-in-time snapshot of an [`Instrumented`] chain's accumulation.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryReport {
    /// Steps recorded since construction (or the last reset).
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
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    /// A chain with a three-class outcome: hold low, hold high, step.
    #[derive(Clone, Copy)]
    struct Biased;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Out {
        HoldLow,
        HoldHigh,
        Stepped,
    }

    impl OutcomeClass for Out {
        const CLASSES: usize = 3;
        fn index(self) -> usize {
            self as usize
        }
        fn label(index: usize) -> &'static str {
            ["hold_low", "hold_high", "stepped"][index]
        }
        fn accepted(self) -> bool {
            matches!(self, Out::Stepped)
        }
    }

    impl MarkovChain for Biased {
        type State = u64;
        fn step<R: Rng + ?Sized>(&self, s: &mut u64, rng: &mut R) -> bool {
            self.step_classified(s, rng).accepted()
        }
    }

    impl ClassifiedChain for Biased {
        type Outcome = Out;
        fn step_classified<R: Rng + ?Sized>(&self, s: &mut u64, rng: &mut R) -> Out {
            match rng.random_range(0..4u8) {
                0 => Out::HoldLow,
                1 | 2 => Out::HoldHigh,
                _ => {
                    *s += 1;
                    Out::Stepped
                }
            }
        }
    }

    #[test]
    fn ring_buffer_retains_newest() {
        let mut ring = RingBuffer::new(4);
        for v in 0..10 {
            ring.push(v);
        }
        assert_eq!(ring.total_pushed(), 10);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_buffer_partial_fill() {
        let mut ring = RingBuffer::new(8);
        ring.push(1);
        ring.push(2);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn counters_sum_to_steps_and_match_bare_chain() {
        let steps = 10_000u64;
        let mut rng_bare = StdRng::seed_from_u64(9);
        let mut rng_inst = StdRng::seed_from_u64(9);
        let mut s_bare = 0u64;
        let mut s_inst = 0u64;

        let accepted_bare = Biased.run(&mut s_bare, steps, &mut rng_bare);
        let inst = Instrumented::new(Biased).with_window(1_000);
        let accepted_inst = inst.run(&mut s_inst, steps, &mut rng_inst);

        assert_eq!(s_bare, s_inst, "instrumentation perturbed the state");
        assert_eq!(accepted_bare, accepted_inst);
        let report = inst.report();
        assert_eq!(report.steps, steps);
        assert_eq!(report.accepted, accepted_inst);
        assert_eq!(report.counts.iter().map(|(_, c)| c).sum::<u64>(), steps);
        assert_eq!(report.count("stepped"), accepted_inst);
        assert!(report.count("hold_high") > report.count("hold_low"));
        assert_eq!(report.count("no_such_label"), 0);
        // 10 complete windows of 1 000 steps.
        assert_eq!(report.window_rates.len(), 10);
        assert!(report
            .window_rates
            .iter()
            .all(|(_, r)| (0.0..=1.0).contains(r)));
        assert!(report.steps_per_sec.unwrap_or(0.0) > 0.0);
    }

    /// [`Biased`] with a `run` of its own that counts its calls, so a test
    /// can tell forwarding from the default step loop.
    #[derive(Default)]
    struct OwnRun(std::cell::Cell<u64>);

    impl MarkovChain for OwnRun {
        type State = u64;
        fn step<R: Rng + ?Sized>(&self, s: &mut u64, rng: &mut R) -> bool {
            Biased.step(s, rng)
        }
        fn run<R: Rng + ?Sized>(&self, s: &mut u64, steps: u64, rng: &mut R) -> u64 {
            self.0.set(self.0.get() + 1);
            Biased.run(s, steps, rng)
        }
    }

    impl ClassifiedChain for OwnRun {
        type Outcome = Out;
        fn step_classified<R: Rng + ?Sized>(&self, s: &mut u64, rng: &mut R) -> Out {
            Biased.step_classified(s, rng)
        }
    }

    #[test]
    fn disabled_wrapper_records_nothing_and_matches_bare() {
        let mut rng_bare = StdRng::seed_from_u64(4);
        let mut rng_inst = StdRng::seed_from_u64(4);
        let mut s_bare = 0u64;
        let mut s_inst = 0u64;
        let accepted_bare = Biased.run(&mut s_bare, 5_000, &mut rng_bare);
        let inst = Instrumented::disabled(OwnRun::default());
        let accepted_inst = inst.run(&mut s_inst, 5_000, &mut rng_inst);
        assert_eq!(s_bare, s_inst);
        assert_eq!(accepted_bare, accepted_inst);
        assert_eq!(rng_bare, rng_inst);
        // Disabled, `run` is the inner chain's own `run`, called once.
        assert_eq!(inst.inner.0.get(), 1);
        let report = inst.report();
        assert_eq!(report.steps, 0);
        assert!(report.steps_per_sec.is_none());

        // Enabled, every step goes through the recorder instead.
        let inst = Instrumented::new(OwnRun::default());
        let mut s = 0u64;
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(inst.run(&mut s, 5_000, &mut rng), accepted_bare);
        assert_eq!(inst.inner.0.get(), 0);
        assert_eq!(inst.report().steps, 5_000);
    }

    #[test]
    fn observables_sample_on_schedule() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut s = 0u64;
        let inst = Instrumented::new(Biased).with_observable("state", 100, |s| *s as f64);
        inst.run(&mut s, 1_000, &mut rng);
        let report = inst.report();
        assert_eq!(report.series.len(), 1);
        let series = &report.series[0];
        assert_eq!(series.name, "state");
        assert_eq!(series.samples.len(), 10);
        assert_eq!(series.total_samples, 10);
        assert!(series.samples.windows(2).all(|w| w[1].0 - w[0].0 == 100));
        assert_eq!(series.samples.last().unwrap().1, s as f64);
    }

    #[test]
    fn bool_outcome_class_lifts_plain_chains() {
        assert!(<bool as OutcomeClass>::accepted(true));
        assert_eq!(<bool as OutcomeClass>::index(false), 0);
        assert_eq!(<bool as OutcomeClass>::label(1), "accepted");
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

        let mut rng = StdRng::seed_from_u64(3);
        let mut s = 0u64;
        let inst = Instrumented::new(Biased).with_window(50);
        let mut sink = JsonlSink::create(&path, &manifest).unwrap();
        inst.run(&mut s, 100, &mut rng);
        sink.record_metrics(0, &inst.report()).unwrap();

        // Resume appends (manifest already present), new process offset 100.
        let mut sink = JsonlSink::resume(&path, &manifest, 100).unwrap();
        let inst = Instrumented::new(Biased).with_window(50);
        inst.run(&mut s, 50, &mut rng);
        sink.record_metrics(100, &inst.report()).unwrap();
        sink.record_line(&series_record_json(100, &inst.report()))
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
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = 0u64;
        let inst = Instrumented::new(Biased)
            .with_window(25)
            .with_observable("state", 10, |s| *s as f64);
        inst.run(&mut s, 50, &mut rng);
        let json = metrics_record_json(1_000, &inst.report());
        assert!(json.contains("\"step\":1050"), "{json}");
        assert!(json.contains("\"steps_recorded\":50"));
        assert!(json.contains("\"outcomes\":{\"hold_low\":"));
        assert!(json.contains("\"last\":[1050,"), "{json}");
    }
}
