//! Crash-tolerant checkpoint/resume for long chain runs.
//!
//! The mixing experiments in this workspace run chains for 10⁸–10⁹ steps;
//! a crash (OOM kill, preemption, power loss) hours into a sweep should
//! not discard the run. This module provides:
//!
//! * [`Checkpoint`] — a snapshot bundling the chain state, the RNG state
//!   and the step/acceptance counters: everything a resumed run of the
//!   memoryless chain needs, so its size does not grow with the run;
//! * [`CheckpointStore`] — a directory of snapshots with atomic writes
//!   (temp file + rename), content checksums, and bounded retention.
//!
//! # Layout
//!
//! The store writes the v2 layout: ASCII header lines, then the
//! [`StateCodec`] bytes and the hooks' sidecar as raw, length-prefixed
//! sections, then a fixed 26-byte checksum line over everything before
//! it:
//!
//! ```text
//! sops-checkpoint v2
//! step <decimal>
//! accepted <decimal>
//! rng <hex>
//! log <count>                       then <count> lines `<t> <16 hex bits>`
//! state <len>\n<len raw bytes>\n
//! aux <len>\n<len raw bytes>\n       only when the sidecar is non-empty
//! checksum <16 lower-case hex>
//! ```
//!
//! [`Checkpoint::from_bytes`] also reads v1, the earlier all-text layout
//! (hex state under an FNV-1a checksum), so snapshots written before v2
//! still resume bit-identically.
//!
//! [`run_supervised`](crate::recovery::run_supervised) persists a snapshot
//! at every chunk boundary but the one its `on_chunk` hook stops at, and
//! resumes from the newest *valid* one on restart.
//!
//! # Determinism contract
//!
//! A resumed run is bitwise-identical to an uninterrupted run with the
//! same seed: the RNG stream depends only on the number of
//! [`MarkovChain::step`](crate::MarkovChain::step) calls, and the full
//! RNG state travels inside the snapshot. The cross-layer test suite
//! asserts this equivalence end to end.
//!
//! # Corruption handling
//!
//! Every v2 snapshot carries a [`snapshot_checksum`] over its payload, and
//! every v1 snapshot an [`fnv1a64`]. On resume the store walks snapshots
//! newest-first and silently falls back past any snapshot whose checksum,
//! header, or state decoding fails, reporting the rejected paths in
//! [`Recovery::rejected`]. Recovery never panics; a store with no
//! readable snapshot simply starts from scratch.
//!
//! # Durability contract
//!
//! All I/O goes through the [`Vfs`] seam. A snapshot is
//! durable — guaranteed to survive a crash — once [`CheckpointStore::save`]
//! returns: the temp file is written and fsynced, renamed into place, and
//! the parent directory is fsynced so the rename itself persists. A crash
//! at any earlier point leaves at worst an orphaned `*.ckpt.tmp` file,
//! which [`CheckpointStore::recover`] reaps (reporting it in
//! [`Recovery::reaped`]); the previous durable snapshot is untouched. The
//! crash-point fuzzer in `tests/crash_fuzzer.rs` verifies this claim at
//! every I/O operation boundary against the deterministic
//! [`FaultyVfs`](crate::vfs::FaultyVfs) crash model.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;

use crate::recovery::Repairable;
use crate::vfs::{write_atomic, RealVfs, Vfs};

/// Errors from checkpoint persistence and recovery.
#[derive(Debug)]
pub enum CheckpointError {
    /// An I/O failure while reading or writing the store directory.
    Io(std::io::Error),
    /// A snapshot failed validation (checksum mismatch, truncated or
    /// malformed payload). Recovery treats this as "skip and fall back";
    /// it only surfaces as an error from direct [`CheckpointStore::load`].
    Corrupt {
        /// The offending snapshot file.
        path: PathBuf,
        /// What failed to validate.
        reason: String,
    },
    /// The state failed its invariant audit; the snapshot was *not*
    /// persisted, so the store never holds a corrupt state.
    AuditFailed {
        /// Step count at which the audit fired.
        step: u64,
        /// Human-readable invariant violations.
        violations: Vec<String>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { path, reason } => {
                write!(f, "corrupt checkpoint {}: {reason}", path.display())
            }
            CheckpointError::AuditFailed { step, violations } => {
                write!(
                    f,
                    "invariant audit failed at step {step}: {}",
                    violations.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Serialization of a chain state into a self-contained byte string.
///
/// Implementations must round-trip exactly: `decode_state(encode_state(s))`
/// reconstructs a state indistinguishable from `s`, including any
/// incrementally-tracked counters, so that a resumed run behaves
/// identically to an uninterrupted one.
pub trait StateCodec: Sized {
    /// Encodes the state into bytes.
    fn encode_state(&self) -> Vec<u8>;

    /// Decodes a state previously produced by [`StateCodec::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation on any invalid input;
    /// decoding untrusted bytes must never panic.
    fn decode_state(bytes: &[u8]) -> Result<Self, String>;
}

/// An RNG whose full internal state can be captured and restored, so a
/// resumed run continues the exact random stream of the original.
pub trait SnapshotRng {
    /// Captures the generator's complete internal state.
    fn rng_state(&self) -> Vec<u8>;

    /// Restores a state captured by [`SnapshotRng::rng_state`].
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation on any invalid input.
    fn restore_rng_state(&mut self, bytes: &[u8]) -> Result<(), String>;
}

impl SnapshotRng for StdRng {
    fn rng_state(&self) -> Vec<u8> {
        self.to_state_bytes().to_vec()
    }

    fn restore_rng_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let arr: [u8; 32] = bytes
            .try_into()
            .map_err(|_| format!("RNG state must be 32 bytes, got {}", bytes.len()))?;
        *self = StdRng::from_state_bytes(arr);
        Ok(())
    }
}

/// A state that can recompute its own invariants from scratch.
///
/// [`run_supervised`](crate::recovery::run_supervised) audits the state
/// before persisting every snapshot and never writes one whose audit
/// reports violations, so on-disk snapshots are always internally
/// consistent.
pub trait Auditable {
    /// Returns a list of invariant violations; empty means consistent.
    fn audit_violations(&self) -> Vec<String>;
}

// Integer states (the test walks' states) derive nothing from anything:
// their audit is empty and repair has nothing to rebuild.
macro_rules! trivial_state_impls {
    ($($t:ty),*) => {$(
        impl StateCodec for $t {
            fn encode_state(&self) -> Vec<u8> {
                self.to_le_bytes().to_vec()
            }
            fn decode_state(bytes: &[u8]) -> Result<Self, String> {
                Ok(<$t>::from_le_bytes(bytes.try_into().map_err(|_| {
                    format!("expected {} bytes, got {}", size_of::<$t>(), bytes.len())
                })?))
            }
        }
        impl Auditable for $t {
            fn audit_violations(&self) -> Vec<String> {
                Vec::new()
            }
        }
        impl Repairable for $t {
            fn repair_state(&mut self) -> Result<Vec<String>, Vec<String>> {
                Ok(Vec::new())
            }
        }
    )*};
}

trivial_state_impls!(u8, u16, u32, u64, i64);

/// A point-in-time snapshot of a checkpointed run.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint<S> {
    /// Number of steps completed when the snapshot was taken.
    pub step: u64,
    /// Number of accepted (state-changing) steps so far.
    pub accepted: u64,
    /// Full RNG state at the snapshot point.
    pub rng_state: Vec<u8>,
    /// Observable samples `(time, value)`. Snapshots written by
    /// [`run_supervised`](crate::recovery::run_supervised) carry none
    /// (`log 0`); logs in older snapshots still parse, and resume ignores
    /// them.
    pub log: Vec<(u64, f64)>,
    /// The chain state.
    pub state: S,
    /// Opaque sidecar payload ([`SupervisedHooks::encode_aux`]): the
    /// [`ConvergenceMonitor`]'s decision state in adaptive runs, empty
    /// otherwise. An empty sidecar is serialized as *no* `aux` section.
    ///
    /// [`SupervisedHooks::encode_aux`]: crate::recovery::SupervisedHooks::encode_aux
    /// [`ConvergenceMonitor`]: crate::convergence::ConvergenceMonitor
    pub aux: Vec<u8>,
}

/// First line of a v1 snapshot: hex text under an FNV-1a checksum. Read,
/// never written.
const MAGIC_V1: &str = "sops-checkpoint v1";

/// First line of a v2 snapshot: raw state bytes under [`snapshot_checksum`].
const MAGIC_V2: &str = "sops-checkpoint v2";

/// FNV-1a 64-bit hash: the checksum of v1 snapshots and of session
/// manifests, and the hash in session directory names. Byte-serial by
/// construction (each step multiplies the previous hash), which is why
/// v2 snapshots use [`snapshot_checksum`].
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// XXH64's five primes.
const PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME_5: u64 = 0x27d4_eb2f_1656_67c5;

/// One lane step: multiply, rotate, multiply. The rotate carries the high
/// bits of each product down, so two flips of the same bit in one lane
/// cannot cancel as they would under a bare `(h ^ w)·P`.
fn lane_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// The little-endian word in an 8-byte chunk.
fn le_word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

/// The content checksum of v2 snapshots: XXH64 with seed 0. Four
/// independent lanes each take one little-endian word of every 32-byte
/// stripe, so the hash runs at memory speed instead of one dependent
/// multiply per byte as [`fnv1a64`] does. The lanes are then merged, the
/// length and the tail bytes folded in, and the result avalanched.
#[must_use]
pub fn snapshot_checksum(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [
            PRIME_1.wrapping_add(PRIME_2),
            PRIME_2,
            0,
            PRIME_1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = lane_round(*lane, le_word(word));
            }
        }
        let [a, b, c, d] = lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in lanes {
            h = (h ^ lane_round(0, lane))
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
        }
        h
    } else {
        PRIME_5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ lane_round(0, le_word(word)))
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
    }
    let mut tail = words.remainder();
    if let Some((half, rest)) = tail.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        tail = rest;
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME_3);
    h ^ (h >> 32)
}

/// Lower-case hex digit of each nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not an ASCII hex digit in [`NIBBLE`].
const NOT_HEX: u8 = 0xff;

/// Nibble value of every byte: `0..=15` for an ASCII hex digit of either
/// case, [`NOT_HEX`] for anything else (signs and non-ASCII included).
const NIBBLE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
};

/// Digits in the longest decimal `u64`.
const MAX_DECIMAL: usize = 20;

/// The longest `t bits` log line: decimal time, space, 16 hex digits,
/// newline.
const LOG_LINE: usize = MAX_DECIMAL + 1 + 16 + 1;

/// The v2 trailer: `checksum `, 16 hex digits, newline.
const TRAILER: usize = "checksum ".len() + 16 + 1;

/// Appends `bytes` as lower-case hex, two digits per byte.
fn push_hex(out: &mut Vec<u8>, bytes: &[u8]) {
    let start = out.len();
    out.resize(start + 2 * bytes.len(), 0);
    for (pair, &b) in out[start..].chunks_exact_mut(2).zip(bytes) {
        pair[0] = HEX_DIGITS[usize::from(b >> 4)];
        pair[1] = HEX_DIGITS[usize::from(b & 0x0f)];
    }
}

/// `v` as exactly 16 lower-case hex digits, as `{v:016x}` formats it.
fn hex_u64(v: u64) -> [u8; 16] {
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = HEX_DIGITS[(v >> (60 - 4 * i)) as usize & 0x0f];
    }
    digits
}

/// Writes `v` in decimal, as `{v}` formats it, right-aligned at the end
/// of `buf` (at least [`MAX_DECIMAL`] bytes), and returns the index of
/// its first digit.
fn write_decimal(buf: &mut [u8], mut v: u64) -> usize {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return i;
        }
    }
}

/// Appends `v` in decimal.
fn push_decimal(out: &mut Vec<u8>, v: u64) {
    let mut digits = [0u8; MAX_DECIMAL];
    let first = write_decimal(&mut digits, v);
    out.extend_from_slice(&digits[first..]);
}

/// Appends one `t bits` log line, assembled on the stack so the buffer
/// grows once per line. The value is written as its exact bits, so the
/// resumed log is bitwise-identical.
fn push_log_line(out: &mut Vec<u8>, t: u64, v: f64) {
    let mut line = [0u8; LOG_LINE];
    let first = write_decimal(&mut line[..MAX_DECIMAL], t);
    line[MAX_DECIMAL] = b' ';
    line[MAX_DECIMAL + 1..LOG_LINE - 1].copy_from_slice(&hex_u64(v.to_bits()));
    line[LOG_LINE - 1] = b'\n';
    out.extend_from_slice(&line[first..]);
}

/// Appends a `name <len>\n<raw bytes>\n` section.
fn push_section(out: &mut Vec<u8>, name: &[u8], bytes: &[u8]) {
    out.extend_from_slice(name);
    push_decimal(out, bytes.len() as u64);
    out.push(b'\n');
    out.extend_from_slice(bytes);
    out.push(b'\n');
}

fn hex_decode(s: &[u8]) -> Result<Vec<u8>, String> {
    if s.len() % 2 != 0 {
        return Err("odd-length hex string".into());
    }
    let mut bytes = Vec::with_capacity(s.len() / 2);
    for (i, pair) in s.chunks_exact(2).enumerate() {
        let (hi, lo) = (NIBBLE[usize::from(pair[0])], NIBBLE[usize::from(pair[1])]);
        if hi == NOT_HEX || lo == NOT_HEX {
            return Err(format!("invalid hex at byte {i}"));
        }
        bytes.push(hi << 4 | lo);
    }
    Ok(bytes)
}

/// A decimal `u64` as [`push_decimal`] writes it: 1 to 20 ASCII digits,
/// no sign, no overflow.
fn parse_decimal(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() || digits.len() > MAX_DECIMAL {
        return None;
    }
    digits.iter().try_fold(0u64, |v, &d| {
        let d = d.checked_sub(b'0').filter(|d| *d < 10)?;
        v.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// A `u64` as [`hex_u64`] writes it: exactly 16 hex digits.
fn parse_hex_u64(digits: &[u8]) -> Option<u64> {
    if digits.len() != 16 {
        return None;
    }
    digits
        .iter()
        .try_fold(0u64, |v, &d| match NIBBLE[usize::from(d)] {
            NOT_HEX => None,
            nibble => Some(v << 4 | u64::from(nibble)),
        })
}

/// Serializes snapshot parts in the v2 layout, checksum line included,
/// from borrowed parts so the runner can serialize without moving the
/// state. The ASCII header, then the `encode_state` bytes as they are,
/// go into one buffer sized up front; one checksum pass covers it.
fn render<S: StateCodec>(
    step: u64,
    accepted: u64,
    rng_state: &[u8],
    log: &[(u64, f64)],
    state: &S,
    aux: &[u8],
) -> Vec<u8> {
    let state = state.encode_state();
    let capacity = MAGIC_V2.len()
        + "\nstep \naccepted \nrng \nlog \nstate \n\naux \n\n".len()
        + 5 * MAX_DECIMAL
        + 2 * rng_state.len()
        + LOG_LINE * log.len()
        + state.len()
        + aux.len()
        + TRAILER;
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(MAGIC_V2.as_bytes());
    out.extend_from_slice(b"\nstep ");
    push_decimal(&mut out, step);
    out.extend_from_slice(b"\naccepted ");
    push_decimal(&mut out, accepted);
    out.extend_from_slice(b"\nrng ");
    push_hex(&mut out, rng_state);
    out.extend_from_slice(b"\nlog ");
    push_decimal(&mut out, log.len() as u64);
    out.push(b'\n');
    for &(t, v) in log {
        push_log_line(&mut out, t, v);
    }
    push_section(&mut out, b"state ", &state);
    if !aux.is_empty() {
        push_section(&mut out, b"aux ", aux);
    }
    let checksum = snapshot_checksum(&out);
    out.extend_from_slice(b"checksum ");
    out.extend_from_slice(&hex_u64(checksum));
    out.push(b'\n');
    out
}

/// A cursor over a v2 payload: header lines, then length-prefixed raw
/// sections. Lines are searched for their newline only inside a window
/// as long as the longest valid line, and a section's bytes are sliced
/// by its declared length, never searched.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    /// The next line without its newline, if one ends within `max` bytes.
    fn line(&mut self, max: usize) -> Option<&'a [u8]> {
        let window = &self.0[..self.0.len().min(max)];
        let end = window.iter().position(|&b| b == b'\n')?;
        let line = &self.0[..end];
        self.0 = &self.0[end + 1..];
        Some(line)
    }

    /// The value of a `name value` line at most `max` bytes long.
    fn field(&mut self, name: &str, max: usize) -> Result<&'a [u8], String> {
        let line = self
            .line(name.len() + 1 + max + 1)
            .ok_or_else(|| format!("missing field {name}"))?;
        line.strip_prefix(name.as_bytes())
            .and_then(|rest| rest.strip_prefix(b" "))
            .ok_or_else(|| {
                format!(
                    "expected field {name}, got {:?}",
                    String::from_utf8_lossy(line)
                )
            })
    }

    /// The value of a `name <decimal>` line.
    fn decimal(&mut self, name: &str) -> Result<u64, String> {
        parse_decimal(self.field(name, MAX_DECIMAL)?).ok_or_else(|| format!("bad {name}"))
    }

    /// One `t bits` log line.
    fn log_entry(&mut self) -> Result<(u64, f64), String> {
        let line = self.line(LOG_LINE).ok_or("truncated log")?;
        let space = line
            .iter()
            .position(|&b| b == b' ')
            .ok_or("malformed log entry")?;
        let t = parse_decimal(&line[..space]).ok_or("bad log time")?;
        let bits = parse_hex_u64(&line[space + 1..]).ok_or("bad log value")?;
        Ok((t, f64::from_bits(bits)))
    }

    /// The raw bytes of a `name <len>\n<len bytes>\n` section, borrowed.
    /// The declared length is checked against the bytes left before
    /// anything is sliced.
    fn section(&mut self, name: &str) -> Result<&'a [u8], String> {
        let len = self.decimal(name)?;
        let left = self.0.len();
        let len = usize::try_from(len)
            .ok()
            .filter(|&len| len < left)
            .ok_or_else(|| format!("{name} length {len} overruns the {left} bytes left"))?;
        let (bytes, rest) = self.0.split_at(len);
        self.0 = rest
            .strip_prefix(b"\n")
            .ok_or_else(|| format!("{name} section does not end in a newline"))?;
        Ok(bytes)
    }
}

/// Parses and validates a v2 snapshot.
fn parse_v2<S: StateCodec>(bytes: &[u8]) -> Result<Checkpoint<S>, String> {
    let split = bytes
        .len()
        .checked_sub(TRAILER)
        .ok_or("missing checksum line")?;
    let (payload, trailer) = bytes.split_at(split);
    let recorded = trailer
        .strip_prefix(b"checksum ")
        .and_then(|rest| rest.strip_suffix(b"\n"))
        .ok_or("missing checksum line")?;
    let actual = snapshot_checksum(payload);
    if recorded != hex_u64(actual) {
        return Err(format!(
            "checksum mismatch: recorded {}, computed {actual:016x}",
            String::from_utf8_lossy(recorded)
        ));
    }

    let mut fields = Fields(payload);
    if fields.line(MAGIC_V2.len() + 1) != Some(MAGIC_V2.as_bytes()) {
        return Err("bad magic header".into());
    }
    let step = fields.decimal("step")?;
    let accepted = fields.decimal("accepted")?;
    let rng_state = hex_decode(fields.field("rng", payload.len())?)?;
    let count = fields.decimal("log")?;
    // The count is untrusted: reserve no more entries than the payload
    // has bytes for (a log line is at least `0 ` and 16 digits).
    let mut log = Vec::with_capacity(count.min(payload.len() as u64 / 19) as usize);
    for _ in 0..count {
        log.push(fields.log_entry()?);
    }
    let state = S::decode_state(fields.section("state")?)?;
    let aux = if fields.0.is_empty() {
        Vec::new()
    } else {
        fields.section("aux")?.to_vec()
    };
    if !fields.0.is_empty() {
        return Err("trailing data after the last section".into());
    }
    Ok(Checkpoint {
        step,
        accepted,
        rng_state,
        log,
        state,
        aux,
    })
}

/// Parses and validates a v1 snapshot. v1 snapshots on disk were written
/// for this parser, so it must keep accepting exactly what it accepts for
/// them to resume bit-identically.
fn parse_v1<S: StateCodec>(text: &str) -> Result<Checkpoint<S>, String> {
    let (payload, checksum_line) = text
        .rsplit_once("checksum ")
        .ok_or("missing checksum line")?;
    let recorded = u64::from_str_radix(checksum_line.trim(), 16)
        .map_err(|_| "malformed checksum".to_string())?;
    let actual = fnv1a64(payload.as_bytes());
    if recorded != actual {
        return Err(format!(
            "checksum mismatch: recorded {recorded:016x}, computed {actual:016x}"
        ));
    }

    let mut lines = payload.lines();
    if lines.next() != Some(MAGIC_V1) {
        return Err("bad magic header".into());
    }
    fn field<'a>(lines: &mut impl Iterator<Item = &'a str>, name: &str) -> Result<&'a str, String> {
        let line = lines
            .next()
            .ok_or_else(|| format!("missing field {name}"))?;
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| format!("expected field {name}, got {line:?}"))
    }
    let step: u64 = field(&mut lines, "step")?
        .parse()
        .map_err(|_| "bad step".to_string())?;
    let accepted: u64 = field(&mut lines, "accepted")?
        .parse()
        .map_err(|_| "bad accepted".to_string())?;
    let rng_state = hex_decode(field(&mut lines, "rng")?.as_bytes())?;
    let count: usize = field(&mut lines, "log")?
        .parse()
        .map_err(|_| "bad log count".to_string())?;
    // The count is untrusted: reserve no more entries than the payload
    // has bytes for (a log line is at least `0 0\n`), so a forged count
    // fails as a truncated log instead of aborting on allocation.
    let mut log = Vec::with_capacity(count.min(payload.len() / 4));
    for _ in 0..count {
        let line = lines.next().ok_or("truncated log")?;
        let (t, bits) = line.split_once(' ').ok_or("malformed log entry")?;
        let t: u64 = t.parse().map_err(|_| "bad log time".to_string())?;
        let bits = u64::from_str_radix(bits, 16).map_err(|_| "bad log value".to_string())?;
        log.push((t, f64::from_bits(bits)));
    }
    let state = S::decode_state(&hex_decode(field(&mut lines, "state")?.as_bytes())?)?;
    // Optional trailing sidecar; absent in pre-sidecar and non-adaptive
    // snapshots.
    let aux = match lines.next() {
        None => Vec::new(),
        Some(line) => {
            let hex = line
                .strip_prefix("aux ")
                .ok_or_else(|| format!("unexpected trailing line {line:?}"))?;
            let bytes = hex_decode(hex.as_bytes())?;
            if lines.next().is_some() {
                return Err("trailing data after aux field".into());
            }
            bytes
        }
    };
    Ok(Checkpoint {
        step,
        accepted,
        rng_state,
        log,
        state,
        aux,
    })
}

impl<S: StateCodec> Checkpoint<S> {
    /// Serializes the snapshot in the v2 layout, checksum line included.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        render(
            self.step,
            self.accepted,
            &self.rng_state,
            &self.log,
            &self.state,
            &self.aux,
        )
    }

    /// Parses and validates a serialized snapshot of either version,
    /// chosen by its first line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first validation failure: bad magic,
    /// checksum mismatch, malformed field, or state decode error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let magic = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        if magic == MAGIC_V2.as_bytes() {
            parse_v2(bytes)
        } else if magic == MAGIC_V1.as_bytes() {
            parse_v1(std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?)
        } else {
            Err("bad magic header".into())
        }
    }
}

/// A directory of checkpoint snapshots with atomic writes and bounded
/// retention.
#[derive(Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
    vfs: Arc<dyn Vfs>,
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("retain", &self.retain)
            .finish_non_exhaustive()
    }
}

/// The outcome of scanning a store for a resumable snapshot.
#[derive(Debug)]
pub struct Recovery<S> {
    /// The newest snapshot that passed validation, if any.
    pub checkpoint: Option<Checkpoint<S>>,
    /// Snapshot files that failed validation and were skipped, newest
    /// first. Callers may log or delete these; recovery leaves them in
    /// place as forensic evidence.
    pub rejected: Vec<PathBuf>,
    /// Orphaned `*.ckpt.tmp` files left by a crash mid-save, deleted
    /// during this recovery scan.
    pub reaped: Vec<PathBuf>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a snapshot directory on the real
    /// filesystem, keeping at most `retain` snapshots; older ones are
    /// pruned after each save. Opening reads nothing: orphaned temp files
    /// from a previous crash stay until [`CheckpointStore::recover`] reaps
    /// and reports them.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<Self, CheckpointError> {
        Self::open_with(dir, retain, Arc::new(RealVfs))
    }

    /// [`CheckpointStore::open`] over an explicit [`Vfs`] backend — the
    /// injection point for [`FaultyVfs`](crate::vfs::FaultyVfs) in
    /// crash-consistency tests.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be created.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        retain: usize,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            retain: retain.max(1),
            vfs,
        })
    }

    /// The directory this store persists into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How many snapshots this store retains before pruning the oldest.
    #[must_use]
    pub fn retain(&self) -> usize {
        self.retain
    }

    /// Snapshot paths in ascending step order (filenames embed the step
    /// count zero-padded, so lexical order is step order).
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be read.
    pub fn list(&self) -> Result<Vec<PathBuf>, CheckpointError> {
        let mut paths: Vec<PathBuf> = self
            .vfs
            .list(&self.dir)?
            .into_iter()
            .filter(|p| is_snapshot(p))
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// The step of the newest snapshot the store *names*, read from file
    /// names alone: no payload is read or validated, so this answers "how
    /// far did this run durably get?" for telemetry or a session manifest,
    /// not which snapshot a resume would load ([`CheckpointStore::recover`]
    /// falls back past corrupt ones).
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be read.
    pub fn newest_step(&self) -> Result<Option<u64>, CheckpointError> {
        Ok(self
            .list()?
            .iter()
            .filter_map(|p| step_from_filename(p))
            .max())
    }

    /// Atomically persists a snapshot: the serialized form is written to a
    /// temporary file in the same directory, fsynced, renamed into place,
    /// and the parent directory is fsynced so the rename itself survives
    /// a crash. A crash mid-write never leaves a half-written snapshot
    /// under the final name. Older snapshots beyond the retention bound
    /// are pruned afterwards.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn save<S: StateCodec>(&self, ckpt: &Checkpoint<S>) -> Result<PathBuf, CheckpointError> {
        self.save_parts_aux(
            ckpt.step,
            ckpt.accepted,
            &ckpt.rng_state,
            &ckpt.log,
            &ckpt.state,
            &ckpt.aux,
        )
    }

    /// [`CheckpointStore::save`] from borrowed parts; used by the runner
    /// to persist without cloning the (potentially large) state.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn save_parts<S: StateCodec>(
        &self,
        step: u64,
        accepted: u64,
        rng_state: &[u8],
        log: &[(u64, f64)],
        state: &S,
    ) -> Result<PathBuf, CheckpointError> {
        self.save_parts_aux(step, accepted, rng_state, log, state, &[])
    }

    /// [`CheckpointStore::save_parts`] with a sidecar payload. Empty `aux`
    /// writes no `aux` section.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub(crate) fn save_parts_aux<S: StateCodec>(
        &self,
        step: u64,
        accepted: u64,
        rng_state: &[u8],
        log: &[(u64, f64)],
        state: &S,
        aux: &[u8],
    ) -> Result<PathBuf, CheckpointError> {
        let path = self.dir.join(format!("step-{step:020}.ckpt"));
        let bytes = render(step, accepted, rng_state, log, state, aux);
        // Each snapshot has a name of its own, so the rename never
        // replaces a durable file.
        write_atomic(self.vfs.as_ref(), &path, &bytes)?;
        self.prune()?;
        Ok(path)
    }

    fn prune(&self) -> Result<(), CheckpointError> {
        let paths = self.list()?;
        if paths.len() > self.retain {
            for p in &paths[..paths.len() - self.retain] {
                // Best-effort: a failed prune must not fail the save.
                let _ = self.vfs.remove(p);
            }
        }
        Ok(())
    }

    /// Loads and validates one specific snapshot file. Beyond the payload
    /// checksum, the step embedded in the payload must agree with the step
    /// encoded in the filename — a mismatch means the file was moved or
    /// its content belongs to a different snapshot, and trusting either
    /// number would break resume ordering.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Corrupt`] when validation fails and
    /// [`CheckpointError::Io`] when the file cannot be read.
    pub fn load<S: StateCodec>(&self, path: &Path) -> Result<Checkpoint<S>, CheckpointError> {
        let corrupt = |reason: String| CheckpointError::Corrupt {
            path: path.to_path_buf(),
            reason,
        };
        let ckpt = Checkpoint::from_bytes(&self.vfs.read(path)?).map_err(corrupt)?;
        if let Some(name_step) = step_from_filename(path) {
            if name_step != ckpt.step {
                return Err(corrupt(format!(
                    "filename says step {name_step} but payload says step {}",
                    ckpt.step
                )));
            }
        }
        Ok(ckpt)
    }

    /// Scans newest-to-oldest for a valid snapshot, skipping (and
    /// reporting) any that fail validation. The one directory listing it
    /// scans also names the orphaned `step-*.ckpt.tmp` files a crash
    /// mid-save left behind; this is the only place they are reaped, so
    /// [`Recovery::reaped`] reports every one. Never panics on corrupt
    /// input; an empty or fully-corrupt store yields `checkpoint: None`.
    ///
    /// # Errors
    ///
    /// Returns an error only for directory-level I/O failures.
    pub fn recover<S: StateCodec>(&self) -> Result<Recovery<S>, CheckpointError> {
        let (mut snapshots, mut reaped) = (Vec::new(), Vec::new());
        for path in self.vfs.list(&self.dir)? {
            if is_snapshot(&path) {
                snapshots.push(path);
            } else if is_orphan(&path) && self.vfs.remove(&path).is_ok() {
                reaped.push(path);
            }
        }
        if !reaped.is_empty() {
            reaped.sort();
            // Make the reaping durable too; best-effort, as a resurrected
            // orphan is harmless: the next recovery reaps it again.
            let _ = self.vfs.sync_dir(&self.dir);
        }
        snapshots.sort();
        let mut rejected = Vec::new();
        for path in snapshots.into_iter().rev() {
            match self.load::<S>(&path) {
                Ok(ckpt) => {
                    return Ok(Recovery {
                        checkpoint: Some(ckpt),
                        rejected,
                        reaped,
                    })
                }
                Err(_) => rejected.push(path),
            }
        }
        Ok(Recovery {
            checkpoint: None,
            rejected,
            reaped,
        })
    }
}

/// Whether `path` names a snapshot: `step-*.ckpt`.
fn is_snapshot(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "ckpt")
        && path
            .file_stem()
            .and_then(|s| s.to_str())
            .is_some_and(|s| s.starts_with("step-"))
}

/// Whether `path` names the debris of a save interrupted between
/// temp-file creation and rename: `step-*.ckpt.tmp`.
fn is_orphan(path: &Path) -> bool {
    path.file_name()
        .and_then(|s| s.to_str())
        .is_some_and(|s| s.starts_with("step-") && s.ends_with(".ckpt.tmp"))
}

/// Parses the step count out of a `step-<N>.ckpt` filename, if the path
/// matches that shape.
fn step_from_filename(path: &Path) -> Option<u64> {
    path.file_name()
        .and_then(|s| s.to_str())
        .and_then(|s| s.strip_prefix("step-"))
        .and_then(|s| s.strip_suffix(".ckpt"))
        .and_then(|s| s.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::MarkovChain;
    use crate::recovery::{run_supervised, SupervisedOptions};
    use crate::vfs::{CrashStyle, FaultyVfs};
    use rand::rngs::StdRng;
    use rand::{Rng, RngExt as _, SeedableRng};
    use std::fs;
    use std::ops::ControlFlow;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh scratch directory per test, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "sops-ckpt-test-{}-{tag}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// Lazy walk on ℤ mod m; consumes exactly one RNG draw per step.
    struct Walk(u64);

    impl MarkovChain for Walk {
        type State = u64;
        fn step<R: Rng + ?Sized>(&self, s: &mut u64, rng: &mut R) -> bool {
            match rng.random_range(0..4u8) {
                0 => {
                    *s = (*s + 1) % self.0;
                    true
                }
                1 => {
                    *s = (*s + self.0 - 1) % self.0;
                    true
                }
                _ => false,
            }
        }
    }

    #[test]
    fn snapshot_text_round_trips() {
        let ckpt = Checkpoint {
            step: 42,
            accepted: 17,
            rng_state: vec![1, 2, 3, 4],
            // 0.1 + 0.2 is an awkward value: exact bit round-trip matters.
            log: vec![(0, 0.5), (21, -1.25), (42, 0.1 + 0.2)],
            state: 7u64,
            aux: Vec::new(),
        };
        let back = Checkpoint::<u64>::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back, ckpt);
    }

    /// Whether `needle` occurs in `haystack`.
    fn contains(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }

    #[test]
    fn aux_sidecar_round_trips_and_is_omitted_when_empty() {
        let base = Checkpoint {
            step: 5,
            accepted: 2,
            rng_state: vec![7; 32],
            log: vec![(0, 1.0)],
            state: 9u64,
            aux: Vec::new(),
        };
        let bytes = base.to_bytes();
        assert!(
            !contains(&bytes, b"\naux "),
            "an empty sidecar writes no aux section"
        );
        // No aux section parses to an empty sidecar.
        assert_eq!(Checkpoint::<u64>::from_bytes(&bytes).unwrap(), base);

        let with_aux = Checkpoint {
            aux: vec![0, 1, 2, 0xfe, 0xff],
            ..base
        };
        let bytes = with_aux.to_bytes();
        assert!(contains(
            &bytes,
            b"\naux 5\n\x00\x01\x02\xfe\xff\nchecksum "
        ));
        assert_eq!(Checkpoint::<u64>::from_bytes(&bytes).unwrap(), with_aux);
        // A tampered aux byte breaks the checksum like any other field.
        let mut tampered = bytes;
        let last_aux = tampered.len() - TRAILER - 2;
        tampered[last_aux] ^= 0x01;
        let err = Checkpoint::<u64>::from_bytes(&tampered).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn corrupt_text_is_rejected_not_panicked() {
        let ckpt = Checkpoint {
            step: 1,
            accepted: 0,
            rng_state: vec![9; 32],
            log: vec![(0, 1.0)],
            state: 3u64,
            aux: Vec::new(),
        };
        let good = ckpt.to_bytes();
        // Flip one payload byte: checksum must catch it.
        let mut bad = good.clone();
        bad[MAGIC_V2.len() + 6] ^= 0x01;
        let err = Checkpoint::<u64>::from_bytes(&bad).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        // Truncation must also fail cleanly.
        assert!(Checkpoint::<u64>::from_bytes(&good[..good.len() / 2]).is_err());
        assert!(Checkpoint::<u64>::from_bytes(b"").is_err());
    }

    #[test]
    fn direct_writers_match_format() {
        for v in [
            0,
            1,
            9,
            10,
            99,
            100,
            12_345,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            push_decimal(&mut out, v);
            assert_eq!(out, format!("{v}").into_bytes());
            assert_eq!(parse_decimal(&out), Some(v));
            assert_eq!(hex_u64(v), format!("{v:016x}").as_bytes());
            assert_eq!(parse_hex_u64(&hex_u64(v)), Some(v));
            let x = f64::from_bits(v);
            out.clear();
            push_log_line(&mut out, v, x);
            assert_eq!(out, format!("{v} {:016x}\n", x.to_bits()).into_bytes());
        }
        let all: Vec<u8> = (0..=255).collect();
        let mut out = Vec::new();
        push_hex(&mut out, &all);
        let expected: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(out, expected.as_bytes());
        assert_eq!(hex_decode(expected.as_bytes()).unwrap(), all);
        assert_eq!(hex_decode(b"0A0b").unwrap(), vec![0x0a, 0x0b]);
        // The v2 readers take only what the writers write.
        for bad in ["", "+1", "-0", " 1", "1 ", "0x1", "18446744073709551616"] {
            assert_eq!(parse_decimal(bad.as_bytes()), None, "{bad:?}");
        }
        for bad in [
            "",
            "000000000000000",
            "0000000000000000 ",
            "+000000000000000",
        ] {
            assert_eq!(parse_hex_u64(bad.as_bytes()), None, "{bad:?}");
        }
    }

    #[test]
    fn snapshot_checksum_is_xxh64_and_keeps_paired_flips_apart() {
        // Published XXH64 digests (seed 0): the empty input, the sub-word
        // tails, and one 32-byte stripe plus a 4-byte and a 3-byte tail.
        for (input, digest) in [
            (&b""[..], 0xef46_db37_51d8_e999),
            (b"a", 0xd24e_c4f1_a98c_6e5b),
            (b"abc", 0x44bc_2cf5_ad77_0999),
            (
                b"Nobody inspects the spammish repetition",
                0xfbce_a83c_8a37_8bf1,
            ),
        ] {
            assert_eq!(snapshot_checksum(input), digest, "{input:?}");
        }
        // Bit 63 of words 0 and 4 feeds the same lane twice. Without the
        // rotate the two flips would cancel.
        let zeros = [0u8; 64];
        let mut flipped = zeros;
        flipped[7] ^= 0x80;
        flipped[39] ^= 0x80;
        assert_ne!(snapshot_checksum(&zeros), snapshot_checksum(&flipped));
    }

    /// Snapshot text around `payload` with a correct v1 checksum line, so
    /// parsing gets past the checksum to the field decoders.
    fn with_checksum(payload: &str) -> String {
        format!("{payload}checksum {:016x}\n", fnv1a64(payload.as_bytes()))
    }

    /// `payload` with a correct v2 checksum line appended.
    fn with_v2_checksum(payload: &[u8]) -> Vec<u8> {
        let mut bytes = payload.to_vec();
        bytes.extend_from_slice(b"checksum ");
        bytes.extend_from_slice(&hex_u64(snapshot_checksum(payload)));
        bytes.push(b'\n');
        bytes
    }

    /// A v2 payload up to and including `log 0`.
    fn v2_header(rng: &str) -> Vec<u8> {
        format!("{MAGIC_V2}\nstep 1\naccepted 0\nrng {rng}\nlog 0\n").into_bytes()
    }

    /// A v2 `state` section holding the `u64` 3.
    const V2_STATE: &[u8] = b"state 8\n\x03\0\0\0\0\0\0\0\n";

    #[test]
    fn non_hex_bytes_under_a_valid_checksum_are_rejected_not_panicked() {
        let snapshot = |rng: &str, state: &str| {
            with_checksum(&format!(
                "{MAGIC_V1}\nstep 1\naccepted 0\nrng {rng}\nlog 0\nstate {state}\n"
            ))
        };
        let v2 = |rng: &str| with_v2_checksum(&[&v2_header(rng)[..], V2_STATE].concat());
        let good = "0300000000000000";
        let parse = |bytes: &[u8]| Checkpoint::<u64>::from_bytes(bytes);
        assert_eq!(parse(snapshot("0102", good).as_bytes()).unwrap().state, 3);
        assert_eq!(parse(&v2("0102")).unwrap().state, 3);
        // A multi-byte character splits a hex pair mid-character, and
        // `+f` is what `u8::from_str_radix` would accept as 0x0f.
        for bad in ["a\u{e9}a", "+f", "0g", " 1", "\u{e9}"] {
            let err = parse(snapshot(bad, good).as_bytes()).unwrap_err();
            assert!(err.contains("hex"), "rng {bad:?}: {err}");
            let err = parse(snapshot("0102", &format!("{bad}000000")).as_bytes()).unwrap_err();
            assert!(err.contains("hex"), "state {bad:?}: {err}");
            let err = parse(&v2(bad)).unwrap_err();
            assert!(err.contains("hex"), "v2 rng {bad:?}: {err}");
        }
    }

    #[test]
    fn forged_log_counts_under_a_valid_checksum_are_rejected_not_panicked() {
        let snapshot = |count: &str| {
            with_checksum(&format!(
                "{MAGIC_V1}\nstep 1\naccepted 0\nrng 0102\nlog {count}\n0 0000000000000000\n\
                 state 0300000000000000\n"
            ))
        };
        let v2 = |count: &str| {
            let header = format!(
                "{MAGIC_V2}\nstep 1\naccepted 0\nrng 0102\nlog {count}\n0 0000000000000000\n"
            );
            with_v2_checksum(&[header.as_bytes(), V2_STATE].concat())
        };
        let parse = |bytes: &[u8]| Checkpoint::<u64>::from_bytes(bytes);
        assert_eq!(parse(snapshot("1").as_bytes()).unwrap().log, vec![(0, 0.0)]);
        assert_eq!(parse(&v2("1")).unwrap().log, vec![(0, 0.0)]);
        // A count the payload cannot hold must fail as malformed, not
        // reserve memory for it: 10¹² entries would abort the process.
        for count in ["1000000000000", &u64::MAX.to_string(), "2"] {
            assert!(parse(snapshot(count).as_bytes()).is_err(), "log {count}");
            assert!(parse(&v2(count)).is_err(), "v2 log {count}");
        }
    }

    /// Raw state bytes that decode to themselves: whatever reaches
    /// `decode_state` is accepted, so only the codec can reject.
    #[derive(Debug)]
    struct Raw(Vec<u8>);

    impl StateCodec for Raw {
        fn encode_state(&self) -> Vec<u8> {
            self.0.clone()
        }
        fn decode_state(bytes: &[u8]) -> Result<Self, String> {
            Ok(Raw(bytes.to_vec()))
        }
    }

    #[test]
    fn every_bit_flip_and_truncation_of_a_v2_snapshot_is_rejected_not_panicked() {
        // An n = 100 configuration's encoding is a u32 count and 9 bytes
        // per particle. Raw sections may hold newlines and `checksum `, so
        // a few particles are overwritten with a forged trailer.
        let mut state = 100u32.to_le_bytes().to_vec();
        for i in 0..100i32 {
            state.extend_from_slice(&(i % 10 - 5).to_le_bytes());
            state.extend_from_slice(&(i / 10 - 5).to_le_bytes());
            state.push((i % 2) as u8);
        }
        state[100..126].copy_from_slice(b"checksum 0123456789abcdef\n");
        let ckpt = Checkpoint {
            step: 25_000,
            accepted: 1_234,
            rng_state: (0..32).collect(),
            log: Vec::new(),
            state: Raw(state),
            aux: b"\nchecksum \n".to_vec(),
        };
        let good = ckpt.to_bytes();
        assert!((1_000..1_100).contains(&good.len()), "{}", good.len());
        let back = Checkpoint::<Raw>::from_bytes(&good).unwrap();
        assert_eq!((back.state.0, back.aux), (ckpt.state.0, ckpt.aux));

        let mut bad = good.clone();
        for at in 0..bad.len() {
            for bit in 0..8 {
                bad[at] ^= 1 << bit;
                assert!(
                    Checkpoint::<Raw>::from_bytes(&bad).is_err(),
                    "bit {bit} of byte {at}"
                );
                bad[at] ^= 1 << bit;
            }
        }
        for len in 0..good.len() {
            assert!(
                Checkpoint::<Raw>::from_bytes(&good[..len]).is_err(),
                "truncated to {len}"
            );
        }
        bad.push(b'\n');
        assert!(
            Checkpoint::<Raw>::from_bytes(&bad).is_err(),
            "trailing byte"
        );
    }

    #[test]
    fn forged_section_lengths_under_a_valid_checksum_are_rejected_not_panicked() {
        let snapshot = |state_len: &str, aux_len: &str| {
            let mut payload = v2_header("0102");
            payload.extend_from_slice(format!("state {state_len}\n").as_bytes());
            payload.extend_from_slice(b"\x03\0\0\0\0\0\0\0\n");
            payload.extend_from_slice(format!("aux {aux_len}\n").as_bytes());
            payload.extend_from_slice(b"\x07\n");
            with_v2_checksum(&payload)
        };
        let parse = |bytes: &[u8]| Checkpoint::<u64>::from_bytes(bytes);
        let ckpt = parse(&snapshot("8", "1")).unwrap();
        assert_eq!((ckpt.state, ckpt.aux), (3, vec![7]));

        // Bytes after each length line: the state, its newline and the
        // aux section; then the aux byte and its newline.
        let state_left = 9 + "aux 1\n".len() + 2;
        let aux_left = 2;
        let non_decimal = [
            "",
            "-1",
            "+8",
            " 8",
            "8 ",
            "0x8",
            "eight",
            "99999999999999999999",
        ];
        let usize_max = usize::MAX.to_string();
        for len in [
            usize_max.clone(),
            state_left.to_string(),
            (state_left + 1).to_string(),
        ]
        .iter()
        .map(String::as_str)
        .chain(non_decimal)
        {
            assert!(parse(&snapshot(len, "1")).is_err(), "state {len:?}");
        }
        for len in [
            usize_max.clone(),
            aux_left.to_string(),
            (aux_left + 1).to_string(),
        ]
        .iter()
        .map(String::as_str)
        .chain(non_decimal)
        {
            assert!(parse(&snapshot("8", len)).is_err(), "aux {len:?}");
        }
        // Shorter lengths misalign the sections and fail too.
        assert!(parse(&snapshot("7", "1")).is_err());
        assert!(parse(&snapshot("8", "0")).is_err());
        // So does anything after the last section.
        let header = v2_header("0102");
        for tail in [&b"x"[..], b"\n", b"aux 1\n\x07\nx"] {
            let bytes = with_v2_checksum(&[&header[..], V2_STATE, tail].concat());
            assert!(parse(&bytes).is_err(), "{}", tail.escape_ascii());
        }
    }

    #[test]
    fn store_retains_bounded_history() {
        let scratch = Scratch::new("retain");
        let store = CheckpointStore::open(&scratch.0, 3).unwrap();
        for step in 1..=10u64 {
            store
                .save(&Checkpoint {
                    step,
                    accepted: 0,
                    rng_state: vec![0; 32],
                    log: vec![],
                    state: step,
                    aux: Vec::new(),
                })
                .unwrap();
        }
        let paths = store.list().unwrap();
        assert_eq!(paths.len(), 3);
        let newest: Checkpoint<u64> = store.load(paths.last().unwrap()).unwrap();
        assert_eq!(newest.step, 10);
    }

    #[test]
    fn recovery_falls_back_past_corrupt_snapshots() {
        let scratch = Scratch::new("fallback");
        let store = CheckpointStore::open(&scratch.0, 5).unwrap();
        for step in [10u64, 20, 30] {
            store
                .save(&Checkpoint {
                    step,
                    accepted: step / 2,
                    rng_state: vec![1; 32],
                    log: vec![(0, 0.0)],
                    state: step,
                    aux: Vec::new(),
                })
                .unwrap();
        }
        // Corrupt the newest two snapshots in different ways.
        let paths = store.list().unwrap();
        fs::write(&paths[2], "garbage").unwrap();
        let mut bytes = fs::read(&paths[1]).unwrap();
        let len = bytes.len();
        bytes[len / 2] ^= 0xff;
        fs::write(&paths[1], bytes).unwrap();

        let rec: Recovery<u64> = store.recover().unwrap();
        let ckpt = rec.checkpoint.unwrap();
        assert_eq!(ckpt.step, 10);
        assert_eq!(rec.rejected.len(), 2);
    }

    #[test]
    fn fully_corrupt_store_recovers_to_none() {
        let scratch = Scratch::new("allbad");
        let store = CheckpointStore::open(&scratch.0, 5).unwrap();
        fs::write(scratch.0.join("step-00000000000000000001.ckpt"), "junk").unwrap();
        let rec: Recovery<u64> = store.recover().unwrap();
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.rejected.len(), 1);
    }

    #[test]
    fn empty_store_recovers_to_none() {
        let scratch = Scratch::new("empty");
        let store = CheckpointStore::open(&scratch.0, 5).unwrap();
        let rec: Recovery<u64> = store.recover().unwrap();
        assert!(rec.checkpoint.is_none());
        assert!(rec.rejected.is_empty());
        assert!(rec.reaped.is_empty());
    }

    #[test]
    fn recover_reaps_orphaned_tmp_files() {
        let scratch = Scratch::new("reap");
        let store = CheckpointStore::open(&scratch.0, 5).unwrap();
        store
            .save(&Checkpoint {
                step: 10,
                accepted: 3,
                rng_state: vec![1; 32],
                log: vec![],
                state: 10u64,
                aux: Vec::new(),
            })
            .unwrap();
        let orphan = scratch.0.join("step-00000000000000000020.ckpt.tmp");
        fs::write(&orphan, "half-written snapshot").unwrap();

        let rec: Recovery<u64> = store.recover().unwrap();
        assert_eq!(rec.checkpoint.unwrap().step, 10);
        assert_eq!(rec.reaped, vec![orphan.clone()]);
        assert!(!orphan.exists(), "orphan must be deleted");
        // A second scan finds nothing left to reap.
        let rec: Recovery<u64> = store.recover().unwrap();
        assert!(rec.reaped.is_empty());
    }

    #[test]
    fn reopened_store_reports_a_crash_orphan_on_recover() {
        let vfs = Arc::new(FaultyVfs::new());
        let dir = PathBuf::from("/ckpt");
        let snapshot = |step| Checkpoint {
            step,
            accepted: 1,
            rng_state: vec![1; 32],
            log: vec![],
            state: step,
            aux: Vec::new(),
        };
        let store = CheckpointStore::open_with(&dir, 5, vfs.clone()).unwrap();
        store.save(&snapshot(10)).unwrap();
        // Die after the next save fsyncs its temp file (create, write,
        // sync), before the rename.
        vfs.kill_after(vfs.op_count() + 3);
        assert!(store.save(&snapshot(20)).is_err());
        vfs.crash(CrashStyle::DropUnsynced);

        // The restarted process opens the store, which leaves the orphan
        // in place, and its recovery reaps and reports it.
        let orphan = dir.join("step-00000000000000000020.ckpt.tmp");
        let store = CheckpointStore::open_with(&dir, 5, vfs.clone()).unwrap();
        assert!(vfs.peek(&orphan).is_some(), "open must not reap");
        let rec: Recovery<u64> = store.recover().unwrap();
        assert_eq!(rec.checkpoint.unwrap().step, 10);
        assert_eq!(rec.reaped, vec![orphan.clone()]);
        assert!(vfs.peek(&orphan).is_none(), "orphan must be deleted");
    }

    #[test]
    fn newest_step_names_the_newest_snapshot() {
        let scratch = Scratch::new("newest");
        let store = CheckpointStore::open(&scratch.0, 3).unwrap();
        assert_eq!(store.newest_step().unwrap(), None);
        for step in [1_000u64, 3_000, 2_000] {
            store
                .save_parts(step, step / 4, &[0u8; 32], &[(0, 0.0)], &step)
                .unwrap();
        }
        assert_eq!(store.newest_step().unwrap(), Some(3_000));
    }

    #[test]
    fn duplicate_step_snapshots_resolve_without_rejection() {
        let scratch = Scratch::new("dup");
        let store = CheckpointStore::open(&scratch.0, 5).unwrap();
        let path = store
            .save(&Checkpoint {
                step: 10,
                accepted: 4,
                rng_state: vec![2; 32],
                log: vec![(0, 1.0)],
                state: 10u64,
                aux: Vec::new(),
            })
            .unwrap();
        // A second file whose unpadded name encodes the same step — both
        // are internally valid, recovery just picks one deterministically.
        fs::copy(&path, scratch.0.join("step-10.ckpt")).unwrap();
        let rec: Recovery<u64> = store.recover().unwrap();
        assert_eq!(rec.checkpoint.unwrap().step, 10);
        assert!(rec.rejected.is_empty());
    }

    #[test]
    fn filename_step_disagreement_is_rejected() {
        let scratch = Scratch::new("mismatch");
        let store = CheckpointStore::open(&scratch.0, 5).unwrap();
        let mut saved = Vec::new();
        for step in [10u64, 20] {
            saved.push(
                store
                    .save(&Checkpoint {
                        step,
                        accepted: step,
                        rng_state: vec![3; 32],
                        log: vec![],
                        state: step,
                        aux: Vec::new(),
                    })
                    .unwrap(),
            );
        }
        // The newest file now holds the *older* snapshot's bytes: its
        // checksum still validates, but the embedded step disagrees with
        // the filename, so trusting it would rewind the run silently.
        fs::copy(&saved[0], &saved[1]).unwrap();
        let err = store.load::<u64>(&saved[1]).unwrap_err();
        match err {
            CheckpointError::Corrupt { reason, .. } => {
                assert!(reason.contains("filename says step 20"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        let rec: Recovery<u64> = store.recover().unwrap();
        assert_eq!(rec.checkpoint.unwrap().step, 10);
        assert_eq!(rec.rejected, vec![saved[1].clone()]);
    }

    #[test]
    fn resumed_run_matches_uninterrupted_run() {
        const STEPS: u64 = 10_000;
        const EVERY: u64 = 1_000;
        let run = |steps, state: &mut u64, rng: &mut StdRng, store: &CheckpointStore| {
            let opts = SupervisedOptions {
                steps,
                every: EVERY,
                max_rollbacks: 0,
                audit_every: None,
            };
            run_supervised(
                &Walk(97),
                state,
                rng,
                store,
                &opts,
                |s| *s as f64,
                |_, _| ControlFlow::Continue(()),
            )
            .unwrap()
        };

        // Uninterrupted reference run.
        let scratch_a = Scratch::new("ref");
        let store_a = CheckpointStore::open(&scratch_a.0, 2).unwrap();
        let mut state_a = 0u64;
        let mut rng_a = StdRng::seed_from_u64(123);
        let run_a = run(STEPS, &mut state_a, &mut rng_a, &store_a);
        assert!(run_a.resumed_from.is_none());

        // Interrupted run: stop at 40%, then re-invoke for the full length
        // with a *fresh* RNG and state (both restored from the snapshot).
        let scratch_b = Scratch::new("resume");
        let store_b = CheckpointStore::open(&scratch_b.0, 2).unwrap();
        let mut state_b = 0u64;
        let mut rng_b = StdRng::seed_from_u64(123);
        run(4 * EVERY, &mut state_b, &mut rng_b, &store_b);
        let mut state_c = 0u64;
        let mut rng_c = StdRng::seed_from_u64(999); // wrong seed: must be overwritten
        let run_c = run(STEPS, &mut state_c, &mut rng_c, &store_b);

        assert_eq!(run_c.resumed_from, Some(4 * EVERY));
        assert_eq!(state_c, state_a);
        assert_eq!(run_c.accepted, run_a.accepted);
        // Snapshots carry no log: the resumed invocation samples from its
        // resume step on, exactly as the uninterrupted run did.
        assert_eq!(run_c.log, run_a.log[4..]);
        assert_eq!(rng_c.to_state_bytes(), rng_a.to_state_bytes());
    }

    #[test]
    fn audit_failure_blocks_persistence() {
        struct Poisoned;
        impl MarkovChain for Poisoned {
            type State = BadState;
            fn step<R: Rng + ?Sized>(&self, s: &mut BadState, _rng: &mut R) -> bool {
                s.0 += 1;
                true
            }
        }
        struct BadState(u64);
        impl StateCodec for BadState {
            fn encode_state(&self) -> Vec<u8> {
                self.0.encode_state()
            }
            fn decode_state(bytes: &[u8]) -> Result<Self, String> {
                u64::decode_state(bytes).map(BadState)
            }
        }
        impl Auditable for BadState {
            fn audit_violations(&self) -> Vec<String> {
                vec!["deliberately inconsistent".into()]
            }
        }
        impl Repairable for BadState {
            fn repair_state(&mut self) -> Result<Vec<String>, Vec<String>> {
                Err(vec!["deliberately unrepairable".into()])
            }
        }

        let scratch = Scratch::new("audit");
        let store = CheckpointStore::open(&scratch.0, 2).unwrap();
        let mut state = BadState(0);
        let mut rng = StdRng::seed_from_u64(5);
        let opts = SupervisedOptions {
            steps: 10,
            every: 5,
            max_rollbacks: 0,
            audit_every: None,
        };
        let err = run_supervised(
            &Poisoned,
            &mut state,
            &mut rng,
            &store,
            &opts,
            |s| s.0 as f64,
            |_, _| ControlFlow::Continue(()),
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::AuditFailed { step: 5, .. }));
        // Nothing was persisted.
        assert!(store.list().unwrap().is_empty());
    }
}
