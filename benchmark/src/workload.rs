//! What every workload shares: names, the run context, the round loop,
//! digests, the state directory and the process's peak memory.

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use sops_chains::StateCodec;
use sops_core::Configuration;

/// The four workloads. Each stresses a different layer; see
/// [`Workload::why`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Long cells at sparse checkpoints: kernel-bound.
    ChainLong,
    /// Short chunks, one snapshot each: checkpoint-write-bound.
    ChainCkptDense,
    /// Open-loop stream of tiny service jobs: service-overhead-bound.
    ServiceSmall,
    /// Closed-loop resumption of evicted sessions after a restart:
    /// checkpoint-read-bound.
    ServiceResume,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ChainLong,
        Workload::ChainCkptDense,
        Workload::ServiceSmall,
        Workload::ServiceResume,
    ];

    /// The workload's name on the command line and in every report.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainLong => "chain-long",
            Workload::ChainCkptDense => "chain-ckpt-dense",
            Workload::ServiceSmall => "service-small",
            Workload::ServiceResume => "service-resume",
        }
    }

    /// Why the workload exists, in one line.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::ChainLong => {
                "kernel-bound: one n=1000 cell through run_cells and run_chain, a checkpoint every 1e7 steps"
            }
            Workload::ChainCkptDense => {
                "checkpoint-write-bound: one n=100 cell, swaps off, a snapshot every 25,000 steps"
            }
            Workload::ServiceSmall => {
                "service-bound: open-loop Poisson stream of 800 jobs/s, each 1e3 steps of n=100 with one snapshot"
            }
            Workload::ServiceResume => {
                "checkpoint-read-bound: restart the service, recover and resume 512 evicted n=1000 sessions, one at a time"
            }
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// A tag that separates this workload's seed streams from the others'.
    #[must_use]
    pub fn tag(self) -> u64 {
        match self {
            Workload::ChainLong => 1,
            Workload::ChainCkptDense => 2,
            Workload::ServiceSmall => 3,
            Workload::ServiceResume => 4,
        }
    }
}

/// How one workload run is configured.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// The seed every input is derived from.
    pub seed: u64,
    /// Measured seconds to accumulate; rounds repeat until reached (at
    /// least one round always runs).
    pub seconds: f64,
    /// Small inputs and a single round, for the smoke check.
    pub smoke: bool,
    /// Whether spans are recorded during the measured phases.
    pub trace: bool,
}

impl Ctx {
    /// The state directory of round `round`, inside the round's
    /// in-memory filesystem.
    #[must_use]
    pub fn round_dir(&self, round: u32) -> PathBuf {
        PathBuf::from(format!("/{}/round-{round}", self.workload.name()))
    }
}

/// The marks that place one job or cell on the time line, from which the
/// per-layer ledger derives its phases. Times are `trace::now_ns`.
#[derive(Clone, Copy, Debug)]
pub enum Marks {
    /// A sweep cell: requested when `run_cells` was called, delivered when
    /// it returned.
    Cell {
        /// The cell's owner id.
        owner: u64,
        /// `run_cells` call.
        requested: u64,
        /// `run_cells` return.
        delivered: u64,
    },
    /// A service job.
    Job {
        /// The job's owner id.
        owner: u64,
        /// When the job was due (open loop) or first offered (closed loop).
        due: u64,
        /// `submit` call.
        submit_start: u64,
        /// `submit` return.
        submit_end: u64,
        /// Payload start on the worker.
        payload_start: u64,
        /// Payload end on the worker.
        payload_end: u64,
        /// When the generator saw the ticket classified.
        classified: u64,
    },
}

/// Everything a workload run measured and checked.
#[derive(Debug, Default)]
pub struct RunData {
    /// Cells or jobs attempted.
    pub attempted: u64,
    /// Cells or jobs that did not end `Ok`/`Completed`: failed, rejected,
    /// evicted, shed, recovered or unclassified.
    pub failed: u64,
    /// Correctness checks that failed, one line each.
    pub failures: Vec<String>,
    /// Set-up seconds, one per round.
    pub setup_s: Vec<f64>,
    /// Chain steps per second, one per round.
    pub steps_per_s: Vec<f64>,
    /// Latency samples in milliseconds: checkpoint intervals for chain
    /// workloads, jobs for service workloads.
    pub latency_ms: Vec<f64>,
    /// One digest per round.
    pub digests: Vec<u64>,
    /// Seconds spent in measured phases.
    pub measured_s: f64,
    /// Peak resident set (VmHWM) after the last measured phase, in MB.
    pub peak_rss_mb: f64,
    /// The marks of every measured job or cell.
    pub marks: Vec<Marks>,
    /// Workload-specific figures `(name, value, unit)` printed beside the
    /// catalogue metrics.
    pub extra: Vec<(String, f64, &'static str)>,
}

impl RunData {
    /// Records a failed check.
    pub fn fail(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("CHECK FAILED: {why}");
        self.failures.push(why);
    }
}

/// Runs rounds until `ctx.seconds` of measured time accumulate (one round
/// at least). `round` returns the seconds it measured.
pub fn rounds(ctx: &Ctx, data: &mut RunData, mut round: impl FnMut(u32, &mut RunData) -> f64) {
    let mut r = 0;
    loop {
        data.measured_s += round(r, data);
        r += 1;
        if data.measured_s >= ctx.seconds {
            break;
        }
    }
}

/// Seconds elapsed since `start`.
#[must_use]
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// FNV-1a over `bytes`, continuing from `h`.
#[must_use]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The final-state digest: FNV-1a of the encoded state followed by the
/// RNG's 32-byte state.
#[must_use]
pub fn state_digest(state_bytes: &[u8], rng_bytes: &[u8; 32]) -> u64 {
    fnv1a(fnv1a(FNV_BASIS, state_bytes), rng_bytes)
}

/// [`state_digest`] of a configuration and its RNG.
#[must_use]
pub fn config_digest(config: &Configuration, rng: &StdRng) -> u64 {
    state_digest(&config.encode_state(), &rng.to_state_bytes())
}

/// Folds per-cell or per-session digests, in order, into one.
#[must_use]
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(FNV_BASIS, |h, d| fnv1a(h, &d.to_le_bytes()))
}

/// The owner id of job or cell `index` of round `round`.
#[must_use]
pub fn owner(round: u32, index: usize) -> u64 {
    (u64::from(round) << 32) | index as u64
}

/// Peak resident set size of this process (VmHWM), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The golden digest committed for `(workload, shape, seed)`, if any.
/// `golden.txt` lines read `<full|smoke> <workload> <seed> <hex digest>`.
#[must_use]
pub fn golden(workload: Workload, smoke: bool, seed: u64) -> Option<u64> {
    parse_golden(include_str!("../golden.txt"), workload.name(), smoke, seed)
}

fn parse_golden(text: &str, workload: &str, smoke: bool, seed: u64) -> Option<u64> {
    let shape = if smoke { "smoke" } else { "full" };
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        match l.split_whitespace().collect::<Vec<_>>()[..] {
            [s, w, sd, hex] if s == shape && w == workload && sd.parse() == Ok(seed) => {
                u64::from_str_radix(hex, 16).ok()
            }
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn golden_lines_select_by_shape_workload_and_seed() {
        let text = "# comment\nfull chain-long 1 00000000000000ff\nsmoke chain-long 1 10\n";
        assert_eq!(parse_golden(text, "chain-long", false, 1), Some(0xff));
        assert_eq!(parse_golden(text, "chain-long", true, 1), Some(0x10));
        assert_eq!(parse_golden(text, "chain-long", false, 2), None);
        assert_eq!(parse_golden(text, "service-small", false, 1), None);
    }

    #[test]
    fn digests_depend_on_order() {
        assert_ne!(fold_digests([1, 2]), fold_digests([2, 1]));
        assert_ne!(state_digest(b"a", &[0; 32]), state_digest(b"b", &[0; 32]));
    }
}
