//! Kill-and-resume determinism for the adaptive convergence engine: a
//! monitored run interrupted mid-flight and resumed from its checkpoint
//! (chain state + RNG + monitor sidecar) must reach the *bit-identical*
//! stop decision — same converged step, same diagnostics, same final
//! state and RNG — as the same run left uninterrupted. Also drives a
//! constant-observable chain through the full stopping path end to end
//! (the regression for the estimator panics this PR fixed).
//!
//! A second run on a finished store, and a run whose certificate compares
//! each state with the previous one (fig3's shape), end exactly as the
//! uninterrupted run did.

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, RngExt as _, SeedableRng};
use sops_chains::{Auditable, MarkovChain, Repairable, StateCodec};
use sops_runtime::{
    run_cells, run_chain_monitored, BackoffPolicy, CellStatus, ChainJob, CheckpointStore,
    ConvergenceMonitor, ResourceBudget, StopReason, SweepOptions,
};

/// A fresh scratch directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sops-adaptive-resume-{}-{tag}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Clone, Debug, PartialEq)]
struct Counter {
    x: u64,
}

impl StateCodec for Counter {
    fn encode_state(&self) -> Vec<u8> {
        self.x.to_le_bytes().to_vec()
    }
    fn decode_state(bytes: &[u8]) -> Result<Self, String> {
        let arr: [u8; 8] = bytes.try_into().map_err(|_| "bad length".to_string())?;
        Ok(Counter {
            x: u64::from_le_bytes(arr),
        })
    }
}

impl Auditable for Counter {
    fn audit_violations(&self) -> Vec<String> {
        Vec::new()
    }
}

impl Repairable for Counter {
    fn repair_state(&mut self) -> Result<Vec<String>, Vec<String>> {
        Ok(Vec::new())
    }
}

/// A lazy walk that freezes once the counter reaches 40,000: its
/// observable plateaus, so the monitor's plateau ∧ ESS ∧ R̂ ∧
/// certificate tests eventually latch. The RNG keeps being drawn after the freeze, so
/// RNG-state equality below is a real check, not vacuous.
struct Freezes;

impl MarkovChain for Freezes {
    type State = Counter;
    fn step<R: Rng + ?Sized>(&self, s: &mut Counter, rng: &mut R) -> bool {
        if rng.random_range(0..2u8) == 0 && s.x < 40_000 {
            s.x += 1;
            true
        } else {
            false
        }
    }
}

fn fast_opts() -> SweepOptions {
    SweepOptions {
        backoff: BackoffPolicy { base_ms: 0 },
        ..SweepOptions::default()
    }
}

/// What a leg ends with: the stop decision as (step, diagnostics JSON),
/// the final state bytes, the final RNG bytes, and the steps it ran.
type Leg = (Option<(u64, String)>, Vec<u8>, Vec<u8>, u64);

/// One monitored leg against `store`, budgeted to `max_steps`. Its
/// certificate is `x ≥ 40,000`, or with `history` fig3's shape: the
/// certified value equals the one the previous call saw.
fn run_leg(store: &CheckpointStore, max_steps: Option<u64>, history: bool) -> Leg {
    let opts = SweepOptions {
        budget: ResourceBudget {
            max_steps,
            ..ResourceBudget::default()
        },
        ..fast_opts()
    };
    let outcomes = run_cells(vec!["cell"], &opts, |_, ctx| {
        let mut state = Counter { x: 0 };
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let job = ChainJob {
            steps: 2_000_000,
            every: 1_000,
            store: Some(store),
            audit_every: None,
        };
        let mut monitor = ConvergenceMonitor::new(3);
        let mut previous = None;
        let (run, stop) = run_chain_monitored(
            ctx,
            &Freezes,
            &mut state,
            &mut rng,
            job,
            &mut monitor,
            |s| s.x as f64,
            |s| {
                if !history {
                    return s.x >= 40_000;
                }
                let unchanged = previous == Some(s.x);
                previous = Some(s.x);
                unchanged
            },
            |_, _| ControlFlow::Continue(()),
        )?;
        let stop =
            stop.map(|StopReason::Converged { step, diagnostics }| (step, diagnostics.to_json()));
        Ok((
            stop,
            state.encode_state(),
            rng.to_state_bytes().to_vec(),
            run.steps,
        ))
    });
    outcomes[0].result.clone().expect("leg produced a result")
}

#[test]
fn interrupted_and_resumed_run_reaches_the_identical_stop_decision() {
    // Reference: one uninterrupted run.
    let scratch_a = Scratch::new("uninterrupted");
    let store_a = CheckpointStore::open(&scratch_a.0, 3).unwrap();
    let (stop_a, state_a, rng_a, _) = run_leg(&store_a, None, false);
    let (step_a, diag_a) = stop_a.expect("uninterrupted run converges");

    // Interrupted: leg 1 is killed by its step budget before the monitor
    // can latch; leg 2 resumes chain state, RNG, and the monitor sidecar
    // from the same store.
    let scratch_b = Scratch::new("interrupted");
    let store_b = CheckpointStore::open(&scratch_b.0, 3).unwrap();
    let (stop_b1, _, _, steps_b1) = run_leg(&store_b, Some(50_000), false);
    assert!(stop_b1.is_none(), "leg 1 must be cut before convergence");
    assert_eq!(steps_b1, 50_000);
    assert!(step_a > 50_000, "interruption must precede the stop step");
    let (stop_b2, state_b, rng_b, _) = run_leg(&store_b, None, false);
    let (step_b, diag_b) = stop_b2.expect("resumed run converges");

    // Bit-identical stop decision and trajectory.
    assert_eq!(step_a, step_b, "converged step");
    assert_eq!(diag_a, diag_b, "diagnostics snapshot");
    assert_eq!(state_a, state_b, "final chain state bytes");
    assert_eq!(rng_a, rng_b, "final RNG state bytes");
}

#[test]
fn a_resume_on_a_finished_store_ends_where_the_run_stopped() {
    let scratch = Scratch::new("finished");
    let store = CheckpointStore::open(&scratch.0, 3).unwrap();
    let first = run_leg(&store, None, false);
    let (step, _) = first.0.clone().expect("the run converges");
    assert_eq!(first.3, step, "a converged run stops at its stop step");
    // The stopping chunk was never persisted, so the second leg replays it
    // and stops there again.
    let second = run_leg(&store, None, false);
    assert_eq!(second, first);
}

#[test]
fn a_history_keeping_certificate_resumes_to_the_uninterrupted_stop() {
    let scratch_a = Scratch::new("history-uninterrupted");
    let store_a = CheckpointStore::open(&scratch_a.0, 3).unwrap();
    let uninterrupted = run_leg(&store_a, None, true);
    let (step, _) = uninterrupted.0.clone().expect("the run converges");
    // Cut two chunks before the stop, inside the certificate's streak: a
    // certificate that restarted without history would fail the first
    // check after the resume and push the stop back.
    let cut = step - 2_000;
    let scratch_b = Scratch::new("history-interrupted");
    let store_b = CheckpointStore::open(&scratch_b.0, 3).unwrap();
    let (stop, _, _, steps) = run_leg(&store_b, Some(cut), true);
    assert!(stop.is_none(), "the cut must precede the stop");
    assert_eq!(steps, cut);
    let resumed = run_leg(&store_b, None, true);
    assert_eq!(resumed.0, uninterrupted.0, "stop step and diagnostics");
    assert_eq!(resumed.1, uninterrupted.1, "final state bytes");
    assert_eq!(resumed.2, uninterrupted.2, "final RNG bytes");
}

/// A chain that never moves: every observable window is constant from
/// step one. The full stopping path (plateau, ESS, R̂, certificate) must
/// classify it as converged — not panic, not divide by zero — which is
/// exactly the degenerate input the statistics estimators used to choke
/// on.
struct Frozen;

impl MarkovChain for Frozen {
    type State = Counter;
    fn step<R: Rng + ?Sized>(&self, _s: &mut Counter, rng: &mut R) -> bool {
        let _ = rng.random_range(0..2u8);
        false
    }
}

#[test]
fn constant_observable_chain_converges_through_the_full_stopping_path() {
    let outcomes = run_cells(vec!["cell"], &fast_opts(), |_, ctx| {
        let mut state = Counter { x: 7 };
        let mut rng = StdRng::seed_from_u64(1);
        let job = ChainJob {
            steps: 1_000_000,
            every: 500,
            store: None,
            audit_every: None,
        };
        let mut monitor = ConvergenceMonitor::new(3);
        let (_, stop) = run_chain_monitored(
            ctx,
            &Frozen,
            &mut state,
            &mut rng,
            job,
            &mut monitor,
            |s| s.x as f64,
            |_| true,
            |_, _| ControlFlow::Continue(()),
        )?;
        let Some(StopReason::Converged { step, diagnostics }) = stop else {
            panic!("constant chain must converge, got {stop:?}");
        };
        assert_eq!(diagnostics.get("plateau_delta"), Some(0.0));
        assert_eq!(diagnostics.get("r_hat"), Some(1.0));
        Ok(step)
    });
    assert_eq!(outcomes[0].status, CellStatus::Ok);
    // The gate opens at the 48th sample: at 500-step chunks, step 24,000.
    assert_eq!(outcomes[0].result, Some(24_000));
}
