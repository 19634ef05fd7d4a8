//! Streaming convergence detection: single-pass estimators and the stop
//! decision of the adaptive experiment engine.
//!
//! The paper's separation/integration claims are statements about the
//! *stationary* distribution of chain `M`, but every sweep bin used to burn
//! a fixed step budget per cell whether or not the observable had settled.
//! This module provides the machinery to stop when mixed instead:
//!
//! * `Welford` — numerically stable streaming moments (count, mean,
//!   variance, min/max) in O(1) per sample;
//! * [`StreamingAcf`] — an incremental Geyer initial-positive-sequence
//!   estimator of the integrated autocorrelation time `τ_int` and effective
//!   sample size, O(max_lag) per sample, equal to the batch estimator
//!   ([`crate::stats::integrated_autocorrelation_time`]) on non-degenerate
//!   series whose truncation lag fits the window;
//! * `split_r_hat` / [`r_hat`] — the Gelman–Rubin potential scale
//!   reduction factor, over window halves or across replica chains (the
//!   per-attempt RNG streams `seeded_attempt` provides);
//! * [`ConvergenceMonitor`] — the stop decision evaluated at chunk
//!   boundaries: a certificate streak plus plateau, windowed-ESS and
//!   split-R̂ tests over one trailing window. Its whole decision state
//!   serializes into the checkpoint sidecar, so a killed-and-resumed run
//!   makes *bit-identical* stop decisions.
//!
//! Every estimator here is total: constant and too-short series produce
//! defined values (a frozen observable is treated as settled), never
//! panics — a fully-converged chain must not abort a supervised cell.

use std::collections::VecDeque;

use crate::stats::Summary;
use crate::telemetry::json_f64;

// ---------------------------------------------------------------------------
// Byte codec helpers: fixed-width little-endian fields, f64 as exact bits so
// serialized decision state round-trips bitwise.

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn put_f64s<'a>(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = &'a f64>) {
    put_u64(out, values.len() as u64);
    for &x in values {
        put_f64(out, x);
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take_u8(&mut self) -> Result<u8, String> {
        let byte = *self.bytes.get(self.pos).ok_or("truncated u8 field")?;
        self.pos += 1;
        Ok(byte)
    }

    fn take_flag(&mut self) -> Result<bool, String> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("flag byte {b} is neither 0 nor 1")),
        }
    }

    fn take_opt_u64(&mut self) -> Result<Option<u64>, String> {
        if self.take_flag()? {
            self.take_u64().map(Some)
        } else {
            Ok(None)
        }
    }

    fn take_u64(&mut self) -> Result<u64, String> {
        let end = self.pos.checked_add(8).ok_or("length overflow")?;
        let chunk = self.bytes.get(self.pos..end).ok_or("truncated u64 field")?;
        self.pos = end;
        Ok(u64::from_le_bytes(chunk.try_into().expect("8-byte slice")))
    }

    fn take_f64(&mut self) -> Result<f64, String> {
        self.take_u64().map(f64::from_bits)
    }

    fn take_usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.take_u64()?).map_err(|_| "usize overflow".to_string())
    }

    fn take_bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.take_usize()?;
        let end = self.pos.checked_add(len).ok_or("length overflow")?;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated byte field")?;
        self.pos = end;
        Ok(chunk)
    }

    /// Reads at most `max` values written by `put_f64s`.
    fn take_f64s(&mut self, max: usize) -> Result<Vec<f64>, String> {
        let len = self.take_usize()?;
        if len > max {
            return Err(format!("{len} values where at most {max} fit"));
        }
        (0..len).map(|_| self.take_f64()).collect()
    }

    /// Reads a `bytes(name) bytes(body)` section, checking its name, and
    /// returns a reader over its body.
    fn section(&mut self, name: &str) -> Result<Reader<'a>, String> {
        let got = self.take_bytes()?;
        if got != name.as_bytes() {
            return Err(format!(
                "monitor section {:?} where {name:?} belongs",
                String::from_utf8_lossy(got)
            ));
        }
        Ok(Reader::new(self.take_bytes()?))
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after decode",
                self.bytes.len() - self.pos
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming moments.

/// Welford's streaming moment accumulator: count, mean, variance, min, max
/// in one pass, O(1) per sample, without catastrophic cancellation.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    #[must_use]
    pub(crate) fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one sample in.
    pub(crate) fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Running mean (0 when empty).
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n − 1 denominator; 0 for fewer than 2 samples).
    #[must_use]
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The equivalent batch [`Summary`], or `None` when empty. This is how
    /// the convergence engine reaches [`Summary::ci95_half_width_ess`]
    /// without materializing the series.
    #[must_use]
    pub(crate) fn summary(&self) -> Option<Summary> {
        if self.count == 0 {
            return None;
        }
        Some(Summary {
            n: usize::try_from(self.count).unwrap_or(usize::MAX),
            mean: self.mean,
            std_dev: self.std_dev(),
            min: self.min,
            max: self.max,
        })
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.count);
        put_f64(out, self.mean);
        put_f64(out, self.m2);
        put_f64(out, self.min);
        put_f64(out, self.max);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(Welford {
            count: r.take_u64()?,
            mean: r.take_f64()?,
            m2: r.take_f64()?,
            min: r.take_f64()?,
            max: r.take_f64()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Incremental Geyer estimator.

/// Single-pass incremental estimator of the integrated autocorrelation
/// time (Geyer's initial-positive-sequence truncation) over a stream.
///
/// Keeps the first and last `max_lag` samples plus cumulative
/// cross-products `Σ xᵢ·xᵢ₊ₖ` for every lag `k ≤ max_lag`, so each push is
/// O(max_lag) and [`StreamingAcf::tau_int`] needs no second pass over the
/// series. Lag-`k` autocovariances follow exactly from the identity
/// `Σᵢ (xᵢ−m)(xᵢ₊ₖ−m) = Σᵢ xᵢxᵢ₊ₖ − m·(S_head(k) + S_tail(k)) + (n−k)m²`
/// where `S_head(k)`/`S_tail(k)` drop the last/first `k` samples from the
/// total sum — which is why only the stream's two edges must be retained.
///
/// Equal to the batch estimator on non-degenerate series whose truncation
/// lag is below `max_lag` (up to float summation order); when the series
/// stays positively correlated past `max_lag`, the sum is truncated there
/// and `τ_int` is a lower bound.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamingAcf {
    max_lag: usize,
    count: u64,
    sum: f64,
    /// First `max_lag` samples, frozen once full.
    head: Vec<f64>,
    /// Last `max_lag` samples, in arrival order.
    tail: VecDeque<f64>,
    /// `cross[k] = Σ_i x_i · x_{i+k}` for `k = 0..=max_lag`.
    cross: Vec<f64>,
}

impl StreamingAcf {
    /// Creates an estimator summing autocorrelations up to `max_lag`.
    ///
    /// # Panics
    ///
    /// Panics if `max_lag` is 0.
    #[must_use]
    pub fn new(max_lag: usize) -> Self {
        assert!(max_lag > 0, "StreamingAcf needs max_lag >= 1");
        StreamingAcf {
            max_lag,
            count: 0,
            sum: 0.0,
            head: Vec::with_capacity(max_lag),
            tail: VecDeque::with_capacity(max_lag + 1),
            cross: vec![0.0; max_lag + 1],
        }
    }

    /// Folds one sample in. O(max_lag).
    pub fn push(&mut self, x: f64) {
        let n = usize::try_from(self.count).unwrap_or(usize::MAX);
        self.cross[0] += x * x;
        for k in 1..=self.max_lag.min(n) {
            self.cross[k] += self.tail[self.tail.len() - k] * x;
        }
        self.sum += x;
        if self.head.len() < self.max_lag {
            self.head.push(x);
        }
        self.tail.push_back(x);
        if self.tail.len() > self.max_lag {
            self.tail.pop_front();
        }
        self.count += 1;
    }

    /// The lag cap the estimator was built with.
    #[must_use]
    pub(crate) fn max_lag(&self) -> usize {
        self.max_lag
    }

    /// Integrated autocorrelation time `τ_int = 1 + 2 Σ ρ(k)` with Geyer
    /// initial-positive-sequence truncation. Total: fewer than 2 samples
    /// ⇒ 1, a constant stream of `n` samples ⇒ `n` (matching
    /// [`crate::stats::integrated_autocorrelation_time`]).
    #[must_use]
    pub fn tau_int(&self) -> f64 {
        let n = self.count as f64;
        if self.count < 2 {
            return 1.0;
        }
        let m = self.sum / n;
        let lags = self
            .max_lag
            .min(usize::try_from(self.count).unwrap_or(usize::MAX) - 1);
        // Prefix sums over the retained edges, so each lag is O(1).
        let mut head_prefix = Vec::with_capacity(lags + 1);
        let mut tail_suffix = Vec::with_capacity(lags + 1);
        head_prefix.push(0.0);
        tail_suffix.push(0.0);
        for k in 1..=lags {
            head_prefix.push(head_prefix[k - 1] + self.head[k - 1]);
            tail_suffix.push(tail_suffix[k - 1] + self.tail[self.tail.len() - k]);
        }
        let cov = |k: usize| -> f64 {
            let dropped = head_prefix[k] + tail_suffix[k];
            self.cross[k] - m * (2.0 * self.sum - dropped) + (n - k as f64) * m * m
        };
        let var = cov(0);
        if var <= 0.0 {
            return n; // constant stream: fully correlated
        }
        let mut tau = 1.0;
        for k in 1..=lags {
            let rho = cov(k) / var;
            if rho <= 0.0 {
                break;
            }
            tau += 2.0 * rho;
        }
        tau
    }

    /// Effective sample size `n / τ_int` (0 when empty, 1 for a constant
    /// stream).
    #[must_use]
    pub fn ess(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.count as f64 / self.tau_int()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.max_lag as u64);
        put_u64(out, self.count);
        put_f64(out, self.sum);
        put_f64s(out, self.head.iter());
        put_f64s(out, self.tail.iter());
        put_f64s(out, self.cross.iter());
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, String> {
        let max_lag = r.take_usize()?;
        if max_lag == 0 {
            return Err("StreamingAcf max_lag 0".into());
        }
        let count = r.take_u64()?;
        let sum = r.take_f64()?;
        let head = r.take_f64s(max_lag)?;
        let tail = r.take_f64s(max_lag)?.into();
        let cross = r.take_f64s(max_lag + 1)?;
        if cross.len() != max_lag + 1 {
            return Err("StreamingAcf cross length mismatch".into());
        }
        Ok(StreamingAcf {
            max_lag,
            count,
            sum,
            head,
            tail,
            cross,
        })
    }
}

// ---------------------------------------------------------------------------
// R-hat.

/// The Gelman–Rubin potential scale reduction factor `R̂` across replica
/// chains (each truncated to the shortest length).
///
/// Total on degenerate input: fewer than 2 chains or fewer than 2 samples
/// per chain carry no between/within evidence and return `INFINITY` (not
/// converged); chains that are all identical constants return exactly 1
/// (a frozen observable has trivially converged); constant chains with
/// *differing* values return `INFINITY`.
#[must_use]
pub fn r_hat(chains: &[&[f64]]) -> f64 {
    let m = chains.len();
    if m < 2 {
        return f64::INFINITY;
    }
    let n = chains.iter().map(|c| c.len()).min().unwrap_or(0);
    if n < 2 {
        return f64::INFINITY;
    }
    let means: Vec<f64> = chains
        .iter()
        .map(|c| c[..n].iter().sum::<f64>() / n as f64)
        .collect();
    let grand = means.iter().sum::<f64>() / m as f64;
    let b = n as f64 / (m - 1) as f64 * means.iter().map(|mu| (mu - grand).powi(2)).sum::<f64>();
    let w = chains
        .iter()
        .zip(&means)
        .map(|(c, mu)| c[..n].iter().map(|x| (x - mu).powi(2)).sum::<f64>() / (n - 1) as f64)
        .sum::<f64>()
        / m as f64;
    if w <= 0.0 {
        return if b <= 0.0 { 1.0 } else { f64::INFINITY };
    }
    let var_plus = (n - 1) as f64 / n as f64 * w + b / n as f64;
    (var_plus / w).sqrt()
}

/// Split-`R̂` of a single series: the series is halved and the halves are
/// compared as two chains, so a trending (unconverged) stream shows up as
/// between-half variance. Same degenerate-input conventions as [`r_hat`].
#[must_use]
pub(crate) fn split_r_hat(series: &[f64]) -> f64 {
    let n = series.len() / 2;
    if n < 2 {
        return f64::INFINITY;
    }
    r_hat(&[&series[..n], &series[series.len() - n..]])
}

// ---------------------------------------------------------------------------
// Diagnostics.

/// A snapshot of the monitor's estimator values, recorded when a stop
/// decision fires and queryable any time before.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostics {
    /// Observable samples folded in when the snapshot was taken.
    pub samples: u64,
    /// Named estimator values (`tau_int`, `ess`, `r_hat`, …), in the
    /// order of the monitor's tests.
    pub entries: Vec<(String, f64)>,
}

impl Diagnostics {
    /// Looks up an entry by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Renders the snapshot as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"samples\": {}", self.samples);
        for (k, v) in &self.entries {
            out.push_str(&format!(
                ", \"{}\": {}",
                crate::telemetry::json_escape(k),
                json_f64(*v)
            ));
        }
        out.push('}');
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.samples);
        put_u64(out, self.entries.len() as u64);
        for (k, v) in &self.entries {
            put_bytes(out, k.as_bytes());
            put_f64(out, *v);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, String> {
        let samples = r.take_u64()?;
        let len = r.take_usize()?;
        let mut entries = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            let name = String::from_utf8(r.take_bytes()?.to_vec())
                .map_err(|_| "diagnostics name not UTF-8".to_string())?;
            entries.push((name, r.take_f64()?));
        }
        Ok(Diagnostics { samples, entries })
    }
}

// ---------------------------------------------------------------------------
// The monitor.

/// Version tag leading every serialized monitor payload.
const MONITOR_CODEC_VERSION: u8 = 1;

/// Samples the monitor observes before it may latch, and the length of the
/// trailing window its statistical tests read.
const WINDOW: usize = 48;
/// Length of each of the two trailing halves the plateau test compares.
const PLATEAU_HALF: usize = 16;
/// Largest relative gap between the plateau halves' means.
const PLATEAU_TOL: f64 = 0.05;
/// Smallest effective sample size of the window.
const MIN_ESS: f64 = 12.0;
/// Lag cap of the full-stream `τ_int` the diagnostics report.
const MAX_LAG: usize = 24;
/// Largest split-`R̂` of the window's two halves.
const MAX_R_HAT: f64 = 1.05;

/// The stop decision of an adaptive run, evaluated at chunk boundaries.
///
/// From its 48th sample on, the monitor latches at the first sample at
/// which four tests hold together:
///
/// * **plateau** — the means of the last two 16-sample halves agree
///   within 5% of the larger mean's magnitude (or of 1, if larger);
/// * **ESS** — the last 48 samples carry an effective sample size of at
///   least 12, or are all equal: a frozen observable has settled, though
///   [`crate::stats::effective_sample_size`] pins its ESS to 1;
/// * **split-`R̂`** — the two 24-sample halves of the last 48 samples
///   agree to `R̂ ≤ 1.05`, so a trending window fails;
/// * **certificate** — the certificate flag held for the last
///   `certificate_streak` samples.
///
/// The three statistical tests read one trailing 48-sample window. The
/// diagnostics add full-stream moments and `τ_int` (to lag 24), and the
/// step of the first certified sample (`first_certified_step`), which the
/// hitting-time experiments read.
///
/// Once latched, the decision (step and diagnostics) is immutable. The
/// chunk loop does not persist the chunk at which the monitor stops a
/// run, so its snapshots hold the monitor unlatched, and a resumed run
/// re-observes the stopping chunk and latches at the identical step.
#[derive(Debug)]
pub struct ConvergenceMonitor {
    certificate_streak: u64,
    samples: u64,
    last_step: Option<u64>,
    /// The last 48 samples, oldest first.
    window: VecDeque<f64>,
    moments: Welford,
    acf: StreamingAcf,
    /// Consecutive certified samples, ending at the newest.
    streak: u64,
    first_certified_step: Option<u64>,
    converged: Option<(u64, Diagnostics)>,
}

impl ConvergenceMonitor {
    /// Creates a monitor whose certificate test needs `certificate_streak`
    /// consecutive certified samples.
    ///
    /// # Panics
    ///
    /// Panics if `certificate_streak` is 0.
    #[must_use]
    pub fn new(certificate_streak: u64) -> Self {
        assert!(
            certificate_streak > 0,
            "certificate streak must be positive"
        );
        ConvergenceMonitor {
            certificate_streak,
            samples: 0,
            last_step: None,
            window: VecDeque::with_capacity(WINDOW),
            moments: Welford::new(),
            acf: StreamingAcf::new(MAX_LAG),
            streak: 0,
            first_certified_step: None,
            converged: None,
        }
    }

    /// Folds in the observable sample (and certificate flag) taken at
    /// `step`, then evaluates the stop decision. Steps must be strictly
    /// increasing: replayed or duplicate steps (a rollback replays the
    /// same chunk) are ignored, so recovery cannot double-count. Once
    /// converged, the monitor latches and further samples are ignored.
    pub fn observe(&mut self, step: u64, value: f64, certified: bool) {
        if self.converged.is_some() || self.last_step.is_some_and(|last| step <= last) {
            return;
        }
        self.last_step = Some(step);
        if self.window.len() == WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(value);
        self.moments.push(value);
        self.acf.push(value);
        if certified {
            self.streak += 1;
            self.first_certified_step.get_or_insert(step);
        } else {
            self.streak = 0;
        }
        self.samples += 1;
        if self.samples >= WINDOW as u64 && self.settled() {
            self.converged = Some((step, self.diagnostics()));
        }
    }

    /// The latched convergence decision, if any.
    #[must_use]
    pub fn converged(&self) -> Option<(u64, &Diagnostics)> {
        self.converged.as_ref().map(|(step, diag)| (*step, diag))
    }

    /// Whether all four tests hold; called once the window is full.
    fn settled(&self) -> bool {
        self.streak >= self.certificate_streak
            && self.plateau_delta() <= PLATEAU_TOL
            && self.window_r_hat() <= MAX_R_HAT
            && (self.window_is_constant() || self.window_ess() >= MIN_ESS)
    }

    /// The plateau test's relative gap between the means of the last two
    /// 16-sample halves; infinite until there are 32 samples.
    fn plateau_delta(&self) -> f64 {
        let Some(start) = self.window.len().checked_sub(2 * PLATEAU_HALF) else {
            return f64::INFINITY;
        };
        let half = PLATEAU_HALF as f64;
        let m1 = self.window.range(start..start + PLATEAU_HALF).sum::<f64>() / half;
        let m2 = self.window.range(start + PLATEAU_HALF..).sum::<f64>() / half;
        let scale = m1.abs().max(m2.abs()).max(1.0);
        (m2 - m1).abs() / scale
    }

    fn window_series(&self) -> Vec<f64> {
        self.window.iter().copied().collect()
    }

    /// The batch effective sample size of the window.
    fn window_ess(&self) -> f64 {
        crate::stats::effective_sample_size(&self.window_series())
    }

    fn window_is_constant(&self) -> bool {
        let mut it = self.window.iter();
        it.next()
            .is_none_or(|first| it.all(|x| x.to_bits() == first.to_bits()))
    }

    /// Split-`R̂` of the window; infinite until it is full.
    fn window_r_hat(&self) -> f64 {
        if self.window.len() < WINDOW {
            return f64::INFINITY;
        }
        split_r_hat(&self.window_series())
    }

    /// The current estimator values, in the order the sidecar's sections
    /// name them.
    fn diagnostics(&self) -> Diagnostics {
        // The ESS-adjusted confidence interval: the convergence engine
        // always reports the autocorrelation-aware width, never the
        // too-narrow i.i.d. one.
        let ci95_ess = self
            .moments
            .summary()
            .map_or(f64::INFINITY, |s| s.ci95_half_width_ess(self.acf.ess()));
        let mut entries = vec![
            ("plateau_delta".to_string(), self.plateau_delta()),
            ("mean".to_string(), self.moments.mean()),
            ("tau_int".to_string(), self.acf.tau_int()),
            ("ess".to_string(), self.window_ess()),
            ("ci95_ess".to_string(), ci95_ess),
            ("r_hat".to_string(), self.window_r_hat()),
            ("certificate_streak".to_string(), self.streak as f64),
        ];
        if let Some(step) = self.first_certified_step {
            entries.push(("first_certified_step".to_string(), step as f64));
        }
        Diagnostics {
            samples: self.samples,
            entries,
        }
    }

    /// The sidecar: the monitor's whole decision state, persisted in every
    /// snapshot of an adaptive run.
    ///
    /// Layout, codec version 1. Every field is a little-endian `u64`
    /// unless marked; `f64` is the value's IEEE bits as a `u64`;
    /// `bytes(x)` is a length, then `x`; `f64s(..)` is a count, then that
    /// many `f64`; and `opt(x)` is `u8 0`, or `u8 1` then `x`:
    ///
    /// ```text
    /// u8 1                       codec version
    /// 48                         samples before the monitor may latch
    /// samples
    /// opt(last_step)
    /// opt(step diagnostics)      the latched decision; diagnostics are
    ///                            samples, a count, then per entry
    ///                            bytes(name) f64
    /// 4                          sections, each bytes(name) bytes(body):
    ///   "plateau"      16, f64 0.05, f64s(the last ≤ 32 samples),
    ///                  f64 delta, u8 (delta ≤ 0.05)
    ///   "ess"          f64 12, 48, f64s(the last ≤ 48 samples),
    ///                  moments: count, f64 mean, f64 m2, f64 min, f64 max,
    ///                  τ_int: 24, count, f64 sum, f64s(the first ≤ 24
    ///                  samples), f64s(the last ≤ 24), f64s(the 25 lag
    ///                  cross-products)
    ///   "r_hat"        f64 1.05, 24, f64s(the last ≤ 48 samples)
    ///   "certificate"  certificate_streak, streak,
    ///                  opt(first_certified_step)
    /// 0                          an always-empty second section group
    /// ```
    ///
    /// The three sample lists are views of the one trailing window, and
    /// the plateau's `delta` follows from it.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        fn section(out: &mut Vec<u8>, name: &str, body: impl FnOnce(&mut Vec<u8>)) {
            let mut bytes = Vec::new();
            body(&mut bytes);
            put_bytes(out, name.as_bytes());
            put_bytes(out, &bytes);
        }
        let plateau_start = self.window.len().saturating_sub(2 * PLATEAU_HALF);
        let mut out = vec![MONITOR_CODEC_VERSION];
        put_u64(&mut out, WINDOW as u64);
        put_u64(&mut out, self.samples);
        put_opt_u64(&mut out, self.last_step);
        match &self.converged {
            Some((step, diag)) => {
                out.push(1);
                put_u64(&mut out, *step);
                diag.encode_into(&mut out);
            }
            None => out.push(0),
        }
        put_u64(&mut out, 4);
        section(&mut out, "plateau", |b| {
            let delta = self.plateau_delta();
            put_u64(b, PLATEAU_HALF as u64);
            put_f64(b, PLATEAU_TOL);
            put_f64s(b, self.window.range(plateau_start..));
            put_f64(b, delta);
            b.push(u8::from(delta <= PLATEAU_TOL));
        });
        section(&mut out, "ess", |b| {
            put_f64(b, MIN_ESS);
            put_u64(b, WINDOW as u64);
            put_f64s(b, self.window.iter());
            self.moments.encode_into(b);
            self.acf.encode_into(b);
        });
        section(&mut out, "r_hat", |b| {
            put_f64(b, MAX_R_HAT);
            put_u64(b, (WINDOW / 2) as u64);
            put_f64s(b, self.window.iter());
        });
        section(&mut out, "certificate", |b| {
            put_u64(b, self.certificate_streak);
            put_u64(b, self.streak);
            put_opt_u64(b, self.first_certified_step);
        });
        put_u64(&mut out, 0);
        out
    }

    /// Restores the state [`ConvergenceMonitor::encode`] wrote, on resume
    /// and after every rollback. Empty bytes (a snapshot without a
    /// sidecar, from a non-adaptive run) reset the monitor to fresh.
    ///
    /// # Errors
    ///
    /// Returns a description when the bytes are malformed, were written
    /// under another certificate streak or other criteria, or hold sample
    /// lists that are not views of one window. The monitor is then
    /// unchanged: every field is parsed and checked before any is
    /// assigned.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        *self = if bytes.is_empty() {
            ConvergenceMonitor::new(self.certificate_streak)
        } else {
            self.decode(bytes)?
        };
        Ok(())
    }

    /// Parses a non-empty sidecar into a monitor with this one's streak.
    fn decode(&self, bytes: &[u8]) -> Result<Self, String> {
        fn same(what: &str, got: u64, want: u64) -> Result<(), String> {
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "monitor {what} changed since snapshot ({got} != {want})"
                ))
            }
        }
        let mut r = Reader::new(bytes);
        let version = r.take_u8()?;
        if version != MONITOR_CODEC_VERSION {
            return Err(format!("unknown monitor codec version {version}"));
        }
        same("gate", r.take_u64()?, WINDOW as u64)?;
        let samples = r.take_u64()?;
        let last_step = r.take_opt_u64()?;
        let converged = if r.take_flag()? {
            Some((r.take_u64()?, Diagnostics::decode_from(&mut r)?))
        } else {
            None
        };
        same("section count", r.take_u64()?, 4)?;

        let mut b = r.section("plateau")?;
        same("plateau half", b.take_u64()?, PLATEAU_HALF as u64)?;
        same("plateau tolerance", b.take_u64()?, PLATEAU_TOL.to_bits())?;
        let plateau = b.take_f64s(2 * PLATEAU_HALF)?;
        let delta = b.take_f64()?;
        let passed = b.take_flag()?;
        b.finish()?;

        let mut b = r.section("ess")?;
        same("ESS threshold", b.take_u64()?, MIN_ESS.to_bits())?;
        same("ESS window", b.take_u64()?, WINDOW as u64)?;
        let window = b.take_f64s(WINDOW)?;
        let moments = Welford::decode_from(&mut b)?;
        let acf = StreamingAcf::decode_from(&mut b)?;
        same("tau_int lag cap", acf.max_lag() as u64, MAX_LAG as u64)?;
        b.finish()?;

        let mut b = r.section("r_hat")?;
        same("R-hat threshold", b.take_u64()?, MAX_R_HAT.to_bits())?;
        same("R-hat half", b.take_u64()?, (WINDOW / 2) as u64)?;
        let r_hat_window = b.take_f64s(WINDOW)?;
        b.finish()?;

        let mut b = r.section("certificate")?;
        same("certificate streak", b.take_u64()?, self.certificate_streak)?;
        let streak = b.take_u64()?;
        let first_certified_step = b.take_opt_u64()?;
        b.finish()?;

        same("second section group", r.take_u64()?, 0)?;
        r.finish()?;

        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let monitor = ConvergenceMonitor {
            certificate_streak: self.certificate_streak,
            samples,
            last_step,
            window: window.iter().copied().collect(),
            moments,
            acf,
            streak,
            first_certified_step,
            converged,
        };
        let derived = monitor.plateau_delta();
        let views_agree = window.len() as u64 == samples.min(WINDOW as u64)
            && bits(&r_hat_window) == bits(&window)
            && bits(&plateau) == bits(&window[window.len().saturating_sub(2 * PLATEAU_HALF)..])
            && delta.to_bits() == derived.to_bits()
            && passed == (derived <= PLATEAU_TOL);
        if !views_agree {
            return Err("monitor sample lists are not views of one window".into());
        }
        Ok(monitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn noisy_series(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1_000) as f64 / 100.0
            })
            .collect()
    }

    #[test]
    fn welford_matches_batch_summary() {
        let series = noisy_series(500, 42);
        let mut w = Welford::new();
        for &x in &series {
            w.push(x);
        }
        let s = stats::Summary::of(&series);
        assert!((w.mean() - s.mean).abs() < 1e-9);
        assert!((w.std_dev() - s.std_dev).abs() < 1e-9);
        let ws = w.summary().unwrap();
        assert_eq!(ws.min, s.min);
        assert_eq!(ws.max, s.max);
    }

    #[test]
    fn streaming_acf_matches_batch_tau() {
        for (block, seed) in [(1usize, 7u64), (5, 9), (25, 11)] {
            let raw = noisy_series(800, seed);
            let series: Vec<f64> = (0..800).map(|i| raw[i / block * block]).collect();
            let mut acf = StreamingAcf::new(200);
            for &x in &series {
                acf.push(x);
            }
            let batch = stats::integrated_autocorrelation_time(&series);
            let streamed = acf.tau_int();
            assert!(
                (batch - streamed).abs() <= 1e-6 * batch.max(1.0),
                "block {block}: streamed {streamed} vs batch {batch}"
            );
            let ess = stats::effective_sample_size(&series);
            assert!((acf.ess() - ess).abs() <= 1e-6 * ess.max(1.0));
        }
    }

    #[test]
    fn streaming_acf_is_total_on_degenerate_streams() {
        let mut acf = StreamingAcf::new(16);
        assert_eq!(acf.tau_int(), 1.0);
        assert_eq!(acf.ess(), 0.0);
        acf.push(3.0);
        assert_eq!(acf.tau_int(), 1.0);
        assert_eq!(acf.ess(), 1.0);
        for _ in 0..99 {
            acf.push(3.0);
        }
        // Constant stream: fully correlated, one effective sample.
        assert_eq!(acf.tau_int(), 100.0);
        assert_eq!(acf.ess(), 1.0);
    }

    #[test]
    fn streaming_acf_roundtrips_bitwise() {
        let mut acf = StreamingAcf::new(32);
        for &x in &noisy_series(100, 3) {
            acf.push(x);
        }
        let mut bytes = Vec::new();
        acf.encode_into(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = StreamingAcf::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(acf, back);
        assert_eq!(acf.tau_int().to_bits(), back.tau_int().to_bits());
    }

    #[test]
    fn r_hat_conventions() {
        // Two identical constant chains: trivially converged.
        assert_eq!(r_hat(&[&[2.0, 2.0, 2.0], &[2.0, 2.0, 2.0]]), 1.0);
        // Constant chains at different values: not converged.
        assert_eq!(r_hat(&[&[1.0, 1.0], &[2.0, 2.0]]), f64::INFINITY);
        // Too little data: not converged.
        assert_eq!(r_hat(&[&[1.0, 2.0]]), f64::INFINITY);
        assert_eq!(r_hat(&[&[1.0], &[2.0]]), f64::INFINITY);
        assert_eq!(split_r_hat(&[1.0, 2.0]), f64::INFINITY);
        // Same-distribution halves agree; shifted halves do not.
        let a = noisy_series(2_000, 5);
        assert!(split_r_hat(&a) < 1.05, "split R-hat {}", split_r_hat(&a));
        let shifted: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(i, &x)| if i < 1_000 { x } else { x + 50.0 })
            .collect();
        assert!(split_r_hat(&shifted) > 1.5);
    }

    #[test]
    fn constant_windows_pass_the_full_stopping_path_without_panicking() {
        // Regression: a frozen (fully converged) chain feeds constant
        // windows through plateau + ESS + R-hat; this used to panic inside
        // the autocorrelation estimator and must now converge cleanly.
        let mut monitor = ConvergenceMonitor::new(3);
        for i in 0..64u64 {
            monitor.observe(i + 1, 42.0, true);
            let _ = monitor.diagnostics();
        }
        let (step, diag) = monitor.converged().expect("frozen observable converges");
        assert_eq!(step, 48, "the gate opens at the 48th sample");
        assert_eq!(diag.get("plateau_delta"), Some(0.0));
        assert_eq!(diag.get("r_hat"), Some(1.0));
        assert!(diag.get("ess").is_some());
        assert!(diag.get("tau_int").is_some());
    }

    #[test]
    fn trending_observable_does_not_converge() {
        let mut monitor = ConvergenceMonitor::new(3);
        for i in 0..200u64 {
            monitor.observe(i + 1, i as f64 * 10.0, true);
        }
        assert!(monitor.converged().is_none());
    }

    #[test]
    fn settled_noisy_observable_converges_and_latches() {
        let mut monitor = ConvergenceMonitor::new(3);
        let series = noisy_series(400, 77);
        for (i, &x) in series.iter().enumerate() {
            monitor.observe(i as u64 + 1, x, true);
        }
        let (step, diag) = monitor.converged().expect("noisy stationary converges");
        let latched = diag.clone();
        // Further samples must not move the latched decision.
        for i in 400..500u64 {
            monitor.observe(i + 1, 1e9, true);
        }
        let (step2, diag2) = monitor.converged().unwrap();
        assert_eq!(step, step2);
        assert_eq!(&latched, diag2);
    }

    #[test]
    fn monitor_state_roundtrips_and_resumes_to_identical_decision() {
        // Certified from sample 61 on, so the cut falls after the gate
        // opened but before the stop.
        let series = noisy_series(400, 123);
        let certified = |i: usize| i >= 60 && i % 7 != 0;
        // Uninterrupted run.
        let mut full = ConvergenceMonitor::new(3);
        for (i, &x) in series.iter().enumerate() {
            full.observe(i as u64 + 1, x, certified(i));
        }
        // Interrupted at an arbitrary point, serialized, restored into a
        // freshly built monitor, and resumed.
        let cut = 53;
        let mut first = ConvergenceMonitor::new(3);
        for (i, &x) in series[..cut].iter().enumerate() {
            first.observe(i as u64 + 1, x, certified(i));
        }
        assert!(first.converged().is_none(), "the cut precedes the stop");
        let bytes = first.encode();
        let mut resumed = ConvergenceMonitor::new(3);
        resumed.restore(&bytes).unwrap();
        for (i, &x) in series.iter().enumerate().skip(cut) {
            resumed.observe(i as u64 + 1, x, certified(i));
        }
        let (s1, d1) = full.converged().expect("converges");
        let (s2, d2) = resumed.converged().expect("converges after resume");
        assert_eq!(s1, s2, "stop step must be bit-identical across resume");
        assert_eq!(d1, d2, "diagnostics must be identical across resume");
        assert_eq!(full.encode(), resumed.encode());
    }

    #[test]
    fn monitor_ignores_replayed_steps() {
        let mut monitor = ConvergenceMonitor::new(3);
        monitor.observe(10, 1.0, false);
        monitor.observe(10, 2.0, false); // rollback replay: ignored
        monitor.observe(5, 3.0, false); // regression: ignored
        assert_eq!(monitor.samples, 1);
    }

    /// A monitor fed `n` noisy, certified samples.
    fn fed(streak: u64, n: usize) -> ConvergenceMonitor {
        let mut monitor = ConvergenceMonitor::new(streak);
        for (i, &x) in noisy_series(n, 9).iter().enumerate() {
            monitor.observe(i as u64 + 1, x, true);
        }
        monitor
    }

    #[test]
    fn restore_rejects_mismatched_configuration() {
        let bytes = fed(3, 40).encode();
        assert!(ConvergenceMonitor::new(4).restore(&bytes).is_err());
        // A forged window: the R-hat section's newest sample, the last
        // f64 before the certificate section's name, no longer matches
        // the ESS section's.
        let name = bytes.windows(11).position(|w| w == b"certificate").unwrap();
        let mut forged = bytes.clone();
        forged[name - 9] ^= 0x01;
        let err = ConvergenceMonitor::new(3).restore(&forged).unwrap_err();
        assert!(err.contains("views of one window"), "{err}");
        // Empty payload (legacy snapshot): resets to fresh.
        let mut fresh = fed(3, 1);
        fresh.restore(&[]).unwrap();
        assert_eq!(fresh.samples, 0);
    }

    #[test]
    fn a_failed_restore_leaves_the_monitor_unchanged() {
        let mut monitor = fed(3, 40);
        let before = monitor.encode();
        // Each payload parses its leading fields (samples, window, ...)
        // cleanly and fails later: under another streak, truncated, or
        // with a trailing byte.
        let other = fed(4, 20).encode();
        let mut trailing = fed(3, 20).encode();
        trailing.push(0);
        let truncated = &trailing[..trailing.len() - 2];
        for bad in [&other[..], truncated, &trailing] {
            assert!(monitor.restore(bad).is_err());
            assert_eq!(monitor.encode(), before);
        }
    }

    #[test]
    fn certificate_tracker_records_first_hit_across_resume() {
        // Ten samples keep the gate shut, so the certificate keeps
        // observing through all of them.
        let mut monitor = ConvergenceMonitor::new(2);
        for i in 0..10u64 {
            monitor.observe(i + 1, 1.0, i >= 6);
        }
        assert_eq!(monitor.diagnostics().get("first_certified_step"), Some(7.0));
        let bytes = monitor.encode();
        let mut resumed = ConvergenceMonitor::new(2);
        resumed.restore(&bytes).unwrap();
        assert_eq!(resumed.diagnostics().get("first_certified_step"), Some(7.0));
    }

    /// A perimeter-like feed in 2,000-step chunks: a falling transient
    /// over the first 24 samples, then noise on a plateau. The certificate
    /// holds from sample 31 on, but breaks at every eleventh sample.
    fn pinned_feed() -> Vec<(u64, f64, bool)> {
        let noise = noisy_series(300, 2024);
        (0..300)
            .map(|i| {
                let base = if i < 24 {
                    300.0 - 5.0 * i as f64
                } else {
                    180.0
                };
                let certified = i >= 30 && i % 11 != 0;
                ((i as u64 + 1) * 2_000, base + noise[i], certified)
            })
            .collect()
    }

    #[test]
    fn production_sidecars_are_pinned_and_resume_to_the_same_stop() {
        // `mixing`'s monitor (streak 3) and `fig3`'s (streak 8). Per
        // streak: the sidecar after 40 samples (the gate is still shut)
        // and after the latch, as (length, checksum), and the latch step.
        // The numbers were recorded from the monitor of earlier builds, so
        // stores those builds wrote resume under this one and back.
        for (streak, pre_gate_pin, latch_pin, latched_pin) in [
            (
                3,
                (1807, 10_438_511_521_705_092_143),
                140_000,
                (2165, 4_896_694_755_711_549_432),
            ),
            (
                8,
                (1807, 13_465_381_510_614_923_011),
                150_000,
                (2165, 13_830_038_000_710_782_447),
            ),
        ] {
            let pin = |bytes: &[u8]| (bytes.len(), crate::checkpoint::snapshot_checksum(bytes));
            let feed = pinned_feed();
            let mut monitor = ConvergenceMonitor::new(streak);
            for &(step, value, certified) in &feed[..40] {
                monitor.observe(step, value, certified);
            }
            let pre_gate = monitor.encode();
            for &(step, value, certified) in &feed[40..] {
                monitor.observe(step, value, certified);
            }
            let (step, diagnostics) = monitor.converged().expect("the feed converges");
            let latched = monitor.encode();
            assert_eq!(pin(&pre_gate), pre_gate_pin, "streak {streak}");
            assert_eq!(step, latch_pin, "streak {streak}");
            assert_eq!(pin(&latched), latched_pin, "streak {streak}");

            let mut resumed = ConvergenceMonitor::new(streak);
            resumed.restore(&pre_gate).unwrap();
            for &(step, value, certified) in &feed[40..] {
                resumed.observe(step, value, certified);
            }
            assert_eq!(resumed.converged(), Some((step, diagnostics)));
            assert_eq!(resumed.encode(), latched);
        }
    }

    #[test]
    fn diagnostics_render_json() {
        let d = Diagnostics {
            samples: 12,
            entries: vec![("tau_int".into(), 3.5), ("r_hat".into(), f64::INFINITY)],
        };
        let json = d.to_json();
        assert!(json.starts_with("{\"samples\": 12"));
        assert!(json.contains("\"tau_int\": 3.5"));
        // Non-finite values render as null per the telemetry convention.
        assert!(json.contains("\"r_hat\": null"));
    }
}
