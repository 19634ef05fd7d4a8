//! Streaming convergence detection: single-pass estimators and composable
//! stopping rules for the adaptive experiment engine.
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
//! * [`StoppingRule`] — the composable rule trait, with the concrete
//!   rules [`PlateauRule`], [`EssRule`], [`RHatRule`], and
//!   [`CertificateRule`];
//! * [`ConvergenceMonitor`] — the conjunction of rules evaluated at chunk
//!   boundaries, whose full decision state serializes into checkpoints
//!   (via [`crate::checkpoint::AuxCodec`]) so a killed-and-resumed run
//!   makes *bit-identical* stop decisions.
//!
//! Every estimator here is total: constant and too-short series produce
//! defined values (a frozen observable is treated as settled), never
//! panics — a fully-converged chain must not abort a supervised cell.

use std::collections::VecDeque;

use crate::checkpoint::AuxCodec;
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

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
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
        put_u64(out, self.head.len() as u64);
        for &x in &self.head {
            put_f64(out, x);
        }
        put_u64(out, self.tail.len() as u64);
        for &x in &self.tail {
            put_f64(out, x);
        }
        put_u64(out, self.cross.len() as u64);
        for &x in &self.cross {
            put_f64(out, x);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, String> {
        let max_lag = r.take_usize()?;
        if max_lag == 0 {
            return Err("StreamingAcf max_lag 0".into());
        }
        let count = r.take_u64()?;
        let sum = r.take_f64()?;
        let head_len = r.take_usize()?;
        if head_len > max_lag {
            return Err("StreamingAcf head longer than max_lag".into());
        }
        let mut head = Vec::with_capacity(head_len);
        for _ in 0..head_len {
            head.push(r.take_f64()?);
        }
        let tail_len = r.take_usize()?;
        if tail_len > max_lag {
            return Err("StreamingAcf tail longer than max_lag".into());
        }
        let mut tail = VecDeque::with_capacity(max_lag + 1);
        for _ in 0..tail_len {
            tail.push_back(r.take_f64()?);
        }
        let cross_len = r.take_usize()?;
        if cross_len != max_lag + 1 {
            return Err("StreamingAcf cross length mismatch".into());
        }
        let mut cross = Vec::with_capacity(cross_len);
        for _ in 0..cross_len {
            cross.push(r.take_f64()?);
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
    /// Named estimator values (`tau_int`, `ess`, `r_hat`, …), in rule
    /// order.
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
// Stopping rules.

/// One composable convergence criterion.
///
/// Rules are fed every observable sample (plus the separation-certificate
/// flag) at chunk boundaries and asked whether they are currently
/// satisfied; the [`ConvergenceMonitor`] declares convergence when *all*
/// its gating rules agree. Rule state must serialize exactly
/// ([`StoppingRule::encode_state`]/[`StoppingRule::restore_state`]) so a
/// resumed run replays the same decisions bit for bit.
pub trait StoppingRule {
    /// Stable rule name, used to match serialized state on restore.
    fn name(&self) -> &'static str;
    /// Folds in the observable sample taken at `step`. `certified` is the
    /// separation-certificate flag evaluated on the same state.
    fn observe(&mut self, step: u64, value: f64, certified: bool);
    /// Whether the criterion currently holds.
    fn satisfied(&self) -> bool;
    /// Appends this rule's diagnostic estimator values.
    fn diagnostics(&self, out: &mut Vec<(String, f64)>);
    /// Serializes the rule's full decision state.
    fn encode_state(&self) -> Vec<u8>;
    /// Restores state produced by [`StoppingRule::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns a description when the bytes are malformed or were written
    /// by a rule with different configuration.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String>;
    /// Drops all accumulated state, as after construction.
    fn reset(&mut self);
}

/// Windowed-mean plateau: satisfied when the means of the two most recent
/// `window`-sample halves agree within `rel_tol` (relative to the larger
/// of the means' magnitudes and 1). A constant window has delta 0 and is
/// trivially satisfied.
#[derive(Clone, Debug)]
pub struct PlateauRule {
    window: usize,
    rel_tol: f64,
    ring: VecDeque<f64>,
    delta: f64,
    ok: bool,
}

impl PlateauRule {
    /// Creates a plateau rule over `2 × window` recent samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0 or `rel_tol` is not positive.
    #[must_use]
    pub fn new(window: usize, rel_tol: f64) -> Self {
        assert!(window > 0, "plateau window must be positive");
        assert!(rel_tol > 0.0, "plateau tolerance must be positive");
        PlateauRule {
            window,
            rel_tol,
            ring: VecDeque::with_capacity(2 * window + 1),
            delta: f64::INFINITY,
            ok: false,
        }
    }
}

impl StoppingRule for PlateauRule {
    fn name(&self) -> &'static str {
        "plateau"
    }

    fn observe(&mut self, _step: u64, value: f64, _certified: bool) {
        self.ring.push_back(value);
        if self.ring.len() > 2 * self.window {
            self.ring.pop_front();
        }
        if self.ring.len() == 2 * self.window {
            let w = self.window as f64;
            let m1 = self.ring.iter().take(self.window).sum::<f64>() / w;
            let m2 = self.ring.iter().skip(self.window).sum::<f64>() / w;
            let scale = m1.abs().max(m2.abs()).max(1.0);
            self.delta = (m2 - m1).abs() / scale;
            self.ok = self.delta <= self.rel_tol;
        }
    }

    fn satisfied(&self) -> bool {
        self.ok
    }

    fn diagnostics(&self, out: &mut Vec<(String, f64)>) {
        out.push(("plateau_delta".into(), self.delta));
    }

    fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.window as u64);
        put_f64(&mut out, self.rel_tol);
        put_u64(&mut out, self.ring.len() as u64);
        for &x in &self.ring {
            put_f64(&mut out, x);
        }
        put_f64(&mut out, self.delta);
        out.push(u8::from(self.ok));
        out
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        let window = r.take_usize()?;
        let rel_tol = r.take_f64()?;
        if window != self.window || rel_tol.to_bits() != self.rel_tol.to_bits() {
            return Err("plateau rule configuration changed since snapshot".into());
        }
        let len = r.take_usize()?;
        if len > 2 * window {
            return Err("plateau ring longer than window".into());
        }
        let mut ring = VecDeque::with_capacity(2 * window + 1);
        for _ in 0..len {
            ring.push_back(r.take_f64()?);
        }
        let delta = r.take_f64()?;
        let ok = match r.bytes.get(r.pos) {
            Some(&b) if b <= 1 => b == 1,
            _ => return Err("plateau flag malformed".into()),
        };
        r.pos += 1;
        r.finish()?;
        self.ring = ring;
        self.delta = delta;
        self.ok = ok;
        Ok(())
    }

    fn reset(&mut self) {
        self.ring.clear();
        self.delta = f64::INFINITY;
        self.ok = false;
    }
}

/// Effective-sample-size threshold over a recent window, with full-stream
/// moments (`Welford`) and an incremental full-stream `τ_int`
/// ([`StreamingAcf`]) carried for diagnostics.
///
/// The *gate* evaluates the batch ESS of the last `window` samples, so an
/// early non-stationary transient cannot poison the estimate forever. A
/// zero-variance (frozen) window counts as satisfied once full: a frozen
/// observable is settled by definition, and
/// [`crate::stats::effective_sample_size`] pins its ESS to 1, which no
/// threshold above 1 would ever pass.
#[derive(Clone, Debug)]
pub struct EssRule {
    min_ess: f64,
    window: usize,
    ring: VecDeque<f64>,
    moments: Welford,
    acf: StreamingAcf,
}

impl EssRule {
    /// Creates an ESS rule gating on the last `window` samples, tracking
    /// full-stream `τ_int` up to `max_lag`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0, `max_lag` is 0, or `min_ess` is not
    /// positive.
    #[must_use]
    pub fn new(min_ess: f64, window: usize, max_lag: usize) -> Self {
        assert!(window > 0, "ESS window must be positive");
        assert!(min_ess > 0.0, "ESS threshold must be positive");
        EssRule {
            min_ess,
            window,
            ring: VecDeque::with_capacity(window + 1),
            moments: Welford::new(),
            acf: StreamingAcf::new(max_lag),
        }
    }

    fn window_series(&self) -> Vec<f64> {
        self.ring.iter().copied().collect()
    }

    fn window_ess(&self) -> f64 {
        crate::stats::effective_sample_size(&self.window_series())
    }

    fn window_is_constant(&self) -> bool {
        let mut it = self.ring.iter();
        match it.next() {
            None => true,
            Some(first) => it.all(|x| x.to_bits() == first.to_bits()),
        }
    }
}

impl StoppingRule for EssRule {
    fn name(&self) -> &'static str {
        "ess"
    }

    fn observe(&mut self, _step: u64, value: f64, _certified: bool) {
        self.ring.push_back(value);
        if self.ring.len() > self.window {
            self.ring.pop_front();
        }
        self.moments.push(value);
        self.acf.push(value);
    }

    fn satisfied(&self) -> bool {
        if self.ring.len() < self.window {
            return false;
        }
        self.window_is_constant() || self.window_ess() >= self.min_ess
    }

    fn diagnostics(&self, out: &mut Vec<(String, f64)>) {
        out.push(("mean".into(), self.moments.mean()));
        out.push(("tau_int".into(), self.acf.tau_int()));
        out.push(("ess".into(), self.window_ess()));
        // The ESS-adjusted confidence interval: the convergence engine
        // always reports the autocorrelation-aware width, never the
        // too-narrow i.i.d. one.
        let ci = self
            .moments
            .summary()
            .map_or(f64::INFINITY, |s| s.ci95_half_width_ess(self.acf.ess()));
        out.push(("ci95_ess".into(), ci));
    }

    fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_f64(&mut out, self.min_ess);
        put_u64(&mut out, self.window as u64);
        put_u64(&mut out, self.ring.len() as u64);
        for &x in &self.ring {
            put_f64(&mut out, x);
        }
        self.moments.encode_into(&mut out);
        self.acf.encode_into(&mut out);
        out
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        let min_ess = r.take_f64()?;
        let window = r.take_usize()?;
        if window != self.window || min_ess.to_bits() != self.min_ess.to_bits() {
            return Err("ESS rule configuration changed since snapshot".into());
        }
        let len = r.take_usize()?;
        if len > window {
            return Err("ESS ring longer than window".into());
        }
        let mut ring = VecDeque::with_capacity(window + 1);
        for _ in 0..len {
            ring.push_back(r.take_f64()?);
        }
        let moments = Welford::decode_from(&mut r)?;
        let acf = StreamingAcf::decode_from(&mut r)?;
        if acf.max_lag() != self.acf.max_lag() {
            return Err("ESS rule max_lag changed since snapshot".into());
        }
        r.finish()?;
        self.ring = ring;
        self.moments = moments;
        self.acf = acf;
        Ok(())
    }

    fn reset(&mut self) {
        self.ring.clear();
        self.moments = Welford::new();
        self.acf = StreamingAcf::new(self.acf.max_lag());
    }
}

/// Split-`R̂` threshold over the `2 × window` most recent samples:
/// satisfied when the window halves agree to `R̂ ≤ threshold`. Frozen
/// windows have `R̂ = 1` and pass; trending windows push `R̂` up through
/// the between-half variance.
#[derive(Clone, Debug)]
pub struct RHatRule {
    threshold: f64,
    window: usize,
    ring: VecDeque<f64>,
}

impl RHatRule {
    /// Creates a split-`R̂` rule (the conventional threshold is 1.05).
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0 or `threshold < 1`.
    #[must_use]
    pub fn new(threshold: f64, window: usize) -> Self {
        assert!(window > 0, "R-hat window must be positive");
        assert!(threshold >= 1.0, "R-hat threshold must be at least 1");
        RHatRule {
            threshold,
            window,
            ring: VecDeque::with_capacity(2 * window + 1),
        }
    }

    fn current(&self) -> f64 {
        if self.ring.len() < 2 * self.window {
            return f64::INFINITY;
        }
        let series: Vec<f64> = self.ring.iter().copied().collect();
        split_r_hat(&series)
    }
}

impl StoppingRule for RHatRule {
    fn name(&self) -> &'static str {
        "r_hat"
    }

    fn observe(&mut self, _step: u64, value: f64, _certified: bool) {
        self.ring.push_back(value);
        if self.ring.len() > 2 * self.window {
            self.ring.pop_front();
        }
    }

    fn satisfied(&self) -> bool {
        self.current() <= self.threshold
    }

    fn diagnostics(&self, out: &mut Vec<(String, f64)>) {
        out.push(("r_hat".into(), self.current()));
    }

    fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_f64(&mut out, self.threshold);
        put_u64(&mut out, self.window as u64);
        put_u64(&mut out, self.ring.len() as u64);
        for &x in &self.ring {
            put_f64(&mut out, x);
        }
        out
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        let threshold = r.take_f64()?;
        let window = r.take_usize()?;
        if window != self.window || threshold.to_bits() != self.threshold.to_bits() {
            return Err("R-hat rule configuration changed since snapshot".into());
        }
        let len = r.take_usize()?;
        if len > 2 * window {
            return Err("R-hat ring longer than window".into());
        }
        let mut ring = VecDeque::with_capacity(2 * window + 1);
        for _ in 0..len {
            ring.push_back(r.take_f64()?);
        }
        r.finish()?;
        self.ring = ring;
        Ok(())
    }

    fn reset(&mut self) {
        self.ring.clear();
    }
}

/// Separation-certificate check: satisfied after `need` consecutive
/// samples whose certificate flag held. Also records the first step the
/// certificate was ever observed (`first_certified_step` in diagnostics),
/// which survives kill-and-resume because it rides in the serialized
/// state — the hitting-time experiments read it from here.
#[derive(Clone, Debug)]
pub struct CertificateRule {
    need: u64,
    streak: u64,
    first_certified_step: Option<u64>,
}

impl CertificateRule {
    /// Creates a certificate rule requiring `need` consecutive certified
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `need` is 0.
    #[must_use]
    pub fn new(need: u64) -> Self {
        assert!(need > 0, "certificate streak must be positive");
        CertificateRule {
            need,
            streak: 0,
            first_certified_step: None,
        }
    }
}

impl StoppingRule for CertificateRule {
    fn name(&self) -> &'static str {
        "certificate"
    }

    fn observe(&mut self, step: u64, _value: f64, certified: bool) {
        if certified {
            self.streak += 1;
            if self.first_certified_step.is_none() {
                self.first_certified_step = Some(step);
            }
        } else {
            self.streak = 0;
        }
    }

    fn satisfied(&self) -> bool {
        self.streak >= self.need
    }

    fn diagnostics(&self, out: &mut Vec<(String, f64)>) {
        out.push(("certificate_streak".into(), self.streak as f64));
        if let Some(step) = self.first_certified_step {
            out.push(("first_certified_step".into(), step as f64));
        }
    }

    fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.need);
        put_u64(&mut out, self.streak);
        match self.first_certified_step {
            Some(step) => {
                out.push(1);
                put_u64(&mut out, step);
            }
            None => out.push(0),
        }
        out
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        let need = r.take_u64()?;
        if need != self.need {
            return Err("certificate rule configuration changed since snapshot".into());
        }
        let streak = r.take_u64()?;
        let tag = *r.bytes.get(r.pos).ok_or("certificate flag truncated")?;
        r.pos += 1;
        let first = match tag {
            0 => None,
            1 => Some(r.take_u64()?),
            _ => return Err("certificate flag malformed".into()),
        };
        r.finish()?;
        self.streak = streak;
        self.first_certified_step = first;
        Ok(())
    }

    fn reset(&mut self) {
        self.streak = 0;
        self.first_certified_step = None;
    }
}

// ---------------------------------------------------------------------------
// The monitor.

/// Version tag leading every serialized monitor payload.
const MONITOR_CODEC_VERSION: u8 = 1;

/// The conjunction of stopping rules a supervised run evaluates at chunk
/// boundaries.
///
/// Gating rules must *all* be satisfied (after `min_samples` observations)
/// for the monitor to latch a convergence decision; tracker rules are fed
/// and serialized the same way but only contribute diagnostics (e.g. a
/// [`CertificateRule`] recording the first separation step without gating
/// the stop). Once latched, the decision — step and diagnostics snapshot —
/// is immutable and rides in the serialized state, so a resumed run
/// reports the identical `converged_at_step`.
pub struct ConvergenceMonitor {
    rules: Vec<Box<dyn StoppingRule + Send>>,
    trackers: Vec<Box<dyn StoppingRule + Send>>,
    min_samples: u64,
    samples: u64,
    last_step: Option<u64>,
    converged: Option<(u64, Diagnostics)>,
}

impl std::fmt::Debug for ConvergenceMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConvergenceMonitor")
            .field(
                "rules",
                &self.rules.iter().map(|r| r.name()).collect::<Vec<_>>(),
            )
            .field(
                "trackers",
                &self.trackers.iter().map(|r| r.name()).collect::<Vec<_>>(),
            )
            .field("min_samples", &self.min_samples)
            .field("samples", &self.samples)
            .field("converged", &self.converged)
            .finish()
    }
}

use std::fmt;

impl ConvergenceMonitor {
    /// Creates an empty monitor that starts checking its rules after
    /// `min_samples` observations.
    #[must_use]
    pub fn new(min_samples: u64) -> Self {
        ConvergenceMonitor {
            rules: Vec::new(),
            trackers: Vec::new(),
            min_samples,
            samples: 0,
            last_step: None,
            converged: None,
        }
    }

    /// Adds a gating rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: Box<dyn StoppingRule + Send>) -> Self {
        self.rules.push(rule);
        self
    }

    /// Adds a tracker: observed and serialized like a rule, but excluded
    /// from the stop conjunction (builder style). No production monitor
    /// has a tracker; the monitor's persisted state keeps the tracker
    /// group, and tests use this to fill it.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_tracker(mut self, rule: Box<dyn StoppingRule + Send>) -> Self {
        self.trackers.push(rule);
        self
    }

    /// Folds in the observable sample (and certificate flag) taken at
    /// `step`, then evaluates the conjunction. Steps must be strictly
    /// increasing: replayed or duplicate steps (a rollback replays the
    /// same chunk) are ignored, so recovery cannot double-count. Once
    /// converged, the monitor latches and further samples are ignored.
    pub fn observe(&mut self, step: u64, value: f64, certified: bool) {
        if self.converged.is_some() {
            return;
        }
        if self.last_step.is_some_and(|last| step <= last) {
            return;
        }
        self.last_step = Some(step);
        for rule in self.rules.iter_mut().chain(self.trackers.iter_mut()) {
            rule.observe(step, value, certified);
        }
        self.samples += 1;
        if self.samples >= self.min_samples
            && !self.rules.is_empty()
            && self.rules.iter().all(|r| r.satisfied())
        {
            let diagnostics = self.diagnostics();
            self.converged = Some((step, diagnostics));
        }
    }

    /// The latched convergence decision, if any.
    #[must_use]
    pub fn converged(&self) -> Option<(u64, &Diagnostics)> {
        self.converged.as_ref().map(|(step, diag)| (*step, diag))
    }

    /// A diagnostics snapshot of the current estimator values (the
    /// latched snapshot, frozen at decision time, once converged is
    /// reported by [`ConvergenceMonitor::converged`]).
    #[must_use]
    pub fn diagnostics(&self) -> Diagnostics {
        let mut entries = Vec::new();
        for rule in self.rules.iter().chain(self.trackers.iter()) {
            rule.diagnostics(&mut entries);
        }
        Diagnostics {
            samples: self.samples,
            entries,
        }
    }

    fn reset(&mut self) {
        self.samples = 0;
        self.last_step = None;
        self.converged = None;
        for rule in self.rules.iter_mut().chain(self.trackers.iter_mut()) {
            rule.reset();
        }
    }
}

impl AuxCodec for ConvergenceMonitor {
    fn encode_aux(&self) -> Vec<u8> {
        let mut out = vec![MONITOR_CODEC_VERSION];
        put_u64(&mut out, self.min_samples);
        put_u64(&mut out, self.samples);
        match self.last_step {
            Some(step) => {
                out.push(1);
                put_u64(&mut out, step);
            }
            None => out.push(0),
        }
        match &self.converged {
            Some((step, diag)) => {
                out.push(1);
                put_u64(&mut out, *step);
                diag.encode_into(&mut out);
            }
            None => out.push(0),
        }
        for group in [&self.rules, &self.trackers] {
            put_u64(&mut out, group.len() as u64);
            for rule in group {
                put_bytes(&mut out, rule.name().as_bytes());
                put_bytes(&mut out, &rule.encode_state());
            }
        }
        out
    }

    fn restore_aux(&mut self, _step: u64, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            // The snapshot predates convergence monitoring (or was written
            // by a non-adaptive run): start the decision state fresh.
            self.reset();
            return Ok(());
        }
        let mut r = Reader::new(bytes);
        match r.bytes.first() {
            Some(&MONITOR_CODEC_VERSION) => r.pos = 1,
            Some(v) => return Err(format!("unknown monitor codec version {v}")),
            None => return Err("empty monitor payload".into()),
        }
        let min_samples = r.take_u64()?;
        if min_samples != self.min_samples {
            return Err("monitor min_samples changed since snapshot".into());
        }
        let samples = r.take_u64()?;
        let tag = *r.bytes.get(r.pos).ok_or("last_step flag truncated")?;
        r.pos += 1;
        let last_step = match tag {
            0 => None,
            1 => Some(r.take_u64()?),
            _ => return Err("last_step flag malformed".into()),
        };
        let tag = *r.bytes.get(r.pos).ok_or("converged flag truncated")?;
        r.pos += 1;
        let converged = match tag {
            0 => None,
            1 => {
                let step = r.take_u64()?;
                Some((step, Diagnostics::decode_from(&mut r)?))
            }
            _ => return Err("converged flag malformed".into()),
        };
        // Rule states are matched by position and verified by name, so a
        // monitor built with a different rule set fails loudly instead of
        // silently misapplying state.
        let mut restored: Vec<(String, Vec<u8>)> = Vec::new();
        for group_len in [self.rules.len(), self.trackers.len()] {
            let len = r.take_usize()?;
            if len != group_len {
                return Err(format!(
                    "monitor rule count changed since snapshot ({len} != {group_len})"
                ));
            }
            for _ in 0..len {
                let name = String::from_utf8(r.take_bytes()?.to_vec())
                    .map_err(|_| "rule name not UTF-8".to_string())?;
                let state = r.take_bytes()?.to_vec();
                restored.push((name, state));
            }
        }
        r.finish()?;
        let mut it = restored.into_iter();
        for rule in self.rules.iter_mut().chain(self.trackers.iter_mut()) {
            let (name, state) = it.next().expect("counts verified above");
            if name != rule.name() {
                return Err(format!(
                    "monitor rule order changed since snapshot ({name} != {})",
                    rule.name()
                ));
            }
            rule.restore_state(&state)?;
        }
        self.samples = samples;
        self.last_step = last_step;
        self.converged = converged;
        Ok(())
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

    fn test_monitor() -> ConvergenceMonitor {
        ConvergenceMonitor::new(16)
            .with_rule(Box::new(PlateauRule::new(8, 0.05)))
            .with_rule(Box::new(EssRule::new(4.0, 16, 32)))
            .with_rule(Box::new(RHatRule::new(1.1, 8)))
            .with_tracker(Box::new(CertificateRule::new(1)))
    }

    #[test]
    fn constant_windows_pass_the_full_stopping_path_without_panicking() {
        // Regression: a frozen (fully converged) chain feeds constant
        // windows through plateau + ESS + R-hat; this used to panic inside
        // the autocorrelation estimator and must now converge cleanly.
        let mut monitor = test_monitor();
        for i in 0..64u64 {
            monitor.observe(i + 1, 42.0, false);
            let _ = monitor.diagnostics();
        }
        let (step, diag) = monitor.converged().expect("frozen observable converges");
        assert_eq!(step, 16);
        assert_eq!(diag.get("plateau_delta"), Some(0.0));
        assert_eq!(diag.get("r_hat"), Some(1.0));
        assert!(diag.get("ess").is_some());
        assert!(diag.get("tau_int").is_some());
    }

    #[test]
    fn trending_observable_does_not_converge() {
        let mut monitor = test_monitor();
        for i in 0..200u64 {
            monitor.observe(i + 1, i as f64 * 10.0, false);
        }
        assert!(monitor.converged().is_none());
    }

    #[test]
    fn settled_noisy_observable_converges_and_latches() {
        let mut monitor = test_monitor();
        let series = noisy_series(400, 77);
        for (i, &x) in series.iter().enumerate() {
            monitor.observe(i as u64 + 1, x, false);
        }
        let (step, diag) = monitor.converged().expect("noisy stationary converges");
        let latched = diag.clone();
        // Further samples must not move the latched decision.
        for i in 400..500u64 {
            monitor.observe(i + 1, 1e9, false);
        }
        let (step2, diag2) = monitor.converged().unwrap();
        assert_eq!(step, step2);
        assert_eq!(&latched, diag2);
    }

    #[test]
    fn monitor_state_roundtrips_and_resumes_to_identical_decision() {
        let series = noisy_series(400, 123);
        // Uninterrupted run.
        let mut full = test_monitor();
        for (i, &x) in series.iter().enumerate() {
            full.observe(i as u64 + 1, x, i % 3 == 0);
        }
        // Interrupted at an arbitrary point, serialized, restored into a
        // freshly built monitor, and resumed.
        let cut = 133;
        let mut first = test_monitor();
        for (i, &x) in series[..cut].iter().enumerate() {
            first.observe(i as u64 + 1, x, i % 3 == 0);
        }
        let bytes = first.encode_aux();
        let mut resumed = test_monitor();
        resumed.restore_aux(cut as u64, &bytes).unwrap();
        for (i, &x) in series.iter().enumerate().skip(cut) {
            resumed.observe(i as u64 + 1, x, i % 3 == 0);
        }
        let (s1, d1) = full.converged().expect("converges");
        let (s2, d2) = resumed.converged().expect("converges after resume");
        assert_eq!(s1, s2, "stop step must be bit-identical across resume");
        assert_eq!(d1, d2, "diagnostics must be identical across resume");
        assert_eq!(full.encode_aux(), resumed.encode_aux());
    }

    #[test]
    fn monitor_ignores_replayed_steps() {
        let mut monitor = test_monitor();
        monitor.observe(10, 1.0, false);
        monitor.observe(10, 2.0, false); // rollback replay: ignored
        monitor.observe(5, 3.0, false); // regression: ignored
        assert_eq!(monitor.samples, 1);
    }

    #[test]
    fn restore_rejects_mismatched_configuration() {
        let bytes = test_monitor().encode_aux();
        let mut other = ConvergenceMonitor::new(16).with_rule(Box::new(PlateauRule::new(8, 0.05)));
        assert!(other.restore_aux(0, &bytes).is_err());
        let mut different_window = ConvergenceMonitor::new(16)
            .with_rule(Box::new(PlateauRule::new(9, 0.05)))
            .with_rule(Box::new(EssRule::new(4.0, 16, 32)))
            .with_rule(Box::new(RHatRule::new(1.1, 8)))
            .with_tracker(Box::new(CertificateRule::new(1)));
        assert!(different_window.restore_aux(0, &bytes).is_err());
        // Empty payload (legacy snapshot): resets to fresh.
        let mut fresh = test_monitor();
        fresh.observe(1, 1.0, false);
        fresh.restore_aux(0, &[]).unwrap();
        assert_eq!(fresh.samples, 0);
    }

    #[test]
    fn certificate_tracker_records_first_hit_across_resume() {
        // min_samples above the sample count keeps the gate from latching,
        // so the tracker keeps observing through all ten samples.
        let make = || {
            ConvergenceMonitor::new(100)
                .with_rule(Box::new(PlateauRule::new(2, 0.5)))
                .with_tracker(Box::new(CertificateRule::new(2)))
        };
        let mut monitor = make();
        for i in 0..10u64 {
            monitor.observe(i + 1, 1.0, i >= 6);
        }
        assert_eq!(monitor.diagnostics().get("first_certified_step"), Some(7.0));
        let bytes = monitor.encode_aux();
        let mut resumed = make();
        resumed.restore_aux(10, &bytes).unwrap();
        assert_eq!(resumed.diagnostics().get("first_certified_step"), Some(7.0));
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
