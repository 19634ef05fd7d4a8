//! Crash-point fuzzer for the checkpoint store's durability contract.
//!
//! Strategy: run a checkpointed chain over the deterministic
//! [`FaultyVfs`] and record, per chunk, the exact snapshot bytes a
//! fault-free run persists. Then, for every I/O operation index `k` and
//! every crash style, re-run with a kill-point armed at `k`, simulate the
//! machine dying (torn writes, dropped entries, bit flips on unsynced
//! data), and assert:
//!
//! 1. `recover()` never yields a torn or corrupt snapshot — whatever it
//!    returns is bitwise-identical to a snapshot the fault-free run wrote;
//! 2. no data is lost past the last *durable* save: every `save_parts`
//!    call that returned `Ok` is still recoverable after the crash;
//! 3. resuming from the recovered snapshot under `run_supervised`
//!    reproduces the uninterrupted run exactly — final state, RNG stream
//!    and acceptance count bitwise-identical, and the observable log
//!    equal to the uninterrupted one from the resume step on.
//!
//! This is the test that fails if the store forgets to fsync the parent
//! directory after rename (the entry vanishes, violating 2) or trusts a
//! torn file (violating 1).

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngExt as _, SeedableRng};
use sops_chains::{
    run_supervised, Checkpoint, CheckpointStore, CrashStyle, FaultyVfs, MarkovChain,
    SnapshotRng as _, SupervisedOptions,
};

const SEED: u64 = 20_260_806;
const STEPS: u64 = 4_000;
const EVERY: u64 = 500;
const RETAIN: usize = 3;

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

fn observe(s: &u64) -> f64 {
    *s as f64
}

/// What the fault-free run produces: per-chunk snapshot bytes plus the
/// final state/RNG/counters, computed purely in memory.
struct Reference {
    texts: Vec<(u64, Vec<u8>)>,
    state: u64,
    rng_bytes: Vec<u8>,
    accepted: u64,
    log: Vec<(u64, f64)>,
}

fn reference() -> Reference {
    let chain = Walk(97);
    let mut state = 0u64;
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut accepted = 0u64;
    let mut log = vec![(0, observe(&state))];
    let mut texts = Vec::new();
    let mut t = 0u64;
    while t < STEPS {
        accepted += chain.run(&mut state, EVERY, &mut rng);
        t += EVERY;
        log.push((t, observe(&state)));
        let text = Checkpoint {
            step: t,
            accepted,
            rng_state: rng.rng_state(),
            log: log.clone(),
            state,
            aux: Vec::new(),
        }
        .to_bytes();
        texts.push((t, text));
    }
    Reference {
        texts,
        state,
        rng_bytes: rng.to_state_bytes().to_vec(),
        accepted,
        log,
    }
}

/// Drives the same chunked save loop [`reference`] models, against a
/// (possibly fault-armed) store. Returns the last step whose save
/// completed — i.e. the newest snapshot the caller was told is durable.
fn run_until_crash(store: &CheckpointStore) -> Option<u64> {
    let chain = Walk(97);
    let mut state = 0u64;
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut accepted = 0u64;
    let mut log = vec![(0, observe(&state))];
    let mut t = 0u64;
    let mut last_durable = None;
    while t < STEPS {
        accepted += chain.run(&mut state, EVERY, &mut rng);
        t += EVERY;
        log.push((t, observe(&state)));
        match store.save_parts(t, accepted, &rng.rng_state(), &log, &state) {
            Ok(_) => last_durable = Some(t),
            Err(_) => break, // the simulated kill landed
        }
    }
    last_durable
}

/// Total I/O operations a fault-free run issues (open + all saves), the
/// bound for the kill-point sweep.
fn fault_free_op_count() -> u64 {
    let vfs = Arc::new(FaultyVfs::new());
    let store = CheckpointStore::open_with(PathBuf::from("/ckpt"), RETAIN, vfs.clone()).unwrap();
    run_until_crash(&store);
    vfs.op_count()
}

#[test]
fn every_kill_point_recovers_a_bitwise_correct_prior_snapshot() {
    let reference = reference();
    let total_ops = fault_free_op_count();
    assert!(
        total_ops > 30,
        "sweep too small to be meaningful: {total_ops}"
    );

    let mut crashed = 0u64;
    for k in 0..=total_ops {
        for style in [
            CrashStyle::DropUnsynced,
            // Vary the tear point and flip target with k so the sweep
            // exercises many corruption shapes, deterministically.
            CrashStyle::TornUnsynced {
                keep: (k as usize * 7) % 48,
            },
            CrashStyle::CorruptUnsynced {
                flip_at: k as usize,
                mask: 1 << (k % 8),
            },
        ] {
            let vfs = Arc::new(FaultyVfs::new());
            let dir = PathBuf::from("/ckpt");
            let Ok(store) = CheckpointStore::open_with(dir, RETAIN, vfs.clone()) else {
                // Kill landed inside open itself: nothing persisted yet,
                // nothing to check.
                continue;
            };
            vfs.kill_after(k);
            let last_durable = run_until_crash(&store);
            if vfs.op_count() <= k {
                continue; // run finished before reaching the kill-point
            }
            crashed += 1;
            vfs.crash(style);

            // Claim 1 + 2: recovery lands on a bitwise-correct snapshot,
            // no older than the last save that reported success.
            let rec = store.recover::<u64>().unwrap();
            match &rec.checkpoint {
                Some(ckpt) => {
                    if let Some(durable) = last_durable {
                        assert!(
                            ckpt.step >= durable,
                            "k={k} {style:?}: durable save at step {durable} lost, \
                             recovered only step {}",
                            ckpt.step
                        );
                    }
                    let expected = reference
                        .texts
                        .iter()
                        .find(|(s, _)| *s == ckpt.step)
                        .map(|(_, text)| text)
                        .unwrap_or_else(|| {
                            panic!("k={k} {style:?}: recovered unknown step {}", ckpt.step)
                        });
                    assert_eq!(
                        &ckpt.to_bytes(),
                        expected,
                        "k={k} {style:?}: recovered snapshot differs from reference"
                    );
                }
                None => {
                    assert!(
                        last_durable.is_none(),
                        "k={k} {style:?}: durable save at step {last_durable:?} \
                         lost entirely"
                    );
                }
            }

            // Claim 3: resuming reproduces the uninterrupted run exactly.
            // The walk's audit is empty, so the ladder never fires.
            let mut state = 0u64;
            let mut rng = StdRng::seed_from_u64(SEED);
            let opts = SupervisedOptions {
                steps: STEPS,
                every: EVERY,
                max_rollbacks: 0,
                audit_every: None,
            };
            let run = run_supervised(
                &Walk(97),
                &mut state,
                &mut rng,
                &store,
                &opts,
                observe,
                |_, _| ControlFlow::Continue(()),
            )
            .unwrap();
            assert_eq!(state, reference.state, "k={k} {style:?}: state diverged");
            assert_eq!(
                rng.to_state_bytes().to_vec(),
                reference.rng_bytes,
                "k={k} {style:?}: RNG stream diverged"
            );
            assert_eq!(run.accepted, reference.accepted, "k={k} {style:?}");
            // Snapshots carry no log, so the resumed run logs from its
            // resume step on; those samples match the reference's exactly.
            let from = run.resumed_from.unwrap_or(0);
            let expected: Vec<_> = reference.log.iter().filter(|(t, _)| *t >= from).collect();
            assert_eq!(run.log.len(), expected.len(), "k={k} {style:?}");
            for (x, y) in run.log.iter().zip(expected) {
                assert_eq!(
                    (x.0, x.1.to_bits()),
                    (y.0, y.1.to_bits()),
                    "k={k} {style:?}: log diverged"
                );
            }
        }
    }
    assert!(crashed > 50, "fuzzer barely crashed anything: {crashed}");
}

#[test]
fn completed_save_survives_crash_thanks_to_dir_fsync() {
    // The regression test for the rename-durability gap: a save that
    // returned Ok must survive even the strictest crash style, which
    // drops every directory entry that was never fsynced.
    let vfs = Arc::new(FaultyVfs::new());
    let store = CheckpointStore::open_with(PathBuf::from("/ckpt"), RETAIN, vfs.clone()).unwrap();
    store
        .save(&Checkpoint {
            step: 500,
            accepted: 123,
            rng_state: vec![7; 32],
            log: vec![(0, 0.0), (500, 1.0)],
            state: 42u64,
            aux: Vec::new(),
        })
        .unwrap();
    vfs.crash(CrashStyle::DropUnsynced);
    let rec = store.recover::<u64>().unwrap();
    let ckpt = rec.checkpoint.expect("durable snapshot lost by crash");
    assert_eq!(ckpt.step, 500);
    assert_eq!(ckpt.state, 42);
}

#[test]
fn crash_between_sync_and_rename_leaves_a_reapable_tmp() {
    let vfs = Arc::new(FaultyVfs::new());
    let store = CheckpointStore::open_with(PathBuf::from("/ckpt"), RETAIN, vfs.clone()).unwrap();
    store
        .save(&Checkpoint {
            step: 500,
            accepted: 1,
            rng_state: vec![1; 32],
            log: vec![],
            state: 9u64,
            aux: Vec::new(),
        })
        .unwrap();
    // Kill right after the *next* save fsyncs its tmp file (ops: create,
    // write, sync — rename never happens). The synced tmp survives the
    // crash as an orphan.
    let base = vfs.op_count();
    vfs.kill_after(base + 3);
    let err = store
        .save(&Checkpoint {
            step: 1_000,
            accepted: 2,
            rng_state: vec![2; 32],
            log: vec![],
            state: 10u64,
            aux: Vec::new(),
        })
        .unwrap_err();
    assert!(err.to_string().contains("simulated crash"), "{err}");
    vfs.crash(CrashStyle::DropUnsynced);

    let rec = store.recover::<u64>().unwrap();
    assert_eq!(
        rec.reaped,
        vec![PathBuf::from("/ckpt/step-00000000000000001000.ckpt.tmp")],
        "orphaned tmp must be reaped and reported"
    );
    assert_eq!(rec.checkpoint.unwrap().step, 500, "prior snapshot intact");
    assert!(
        vfs.peek(&PathBuf::from("/ckpt/step-00000000000000001000.ckpt.tmp"))
            .is_none(),
        "reaped tmp must be gone from the store"
    );
}

#[test]
fn transient_enospc_fails_one_save_then_recovers() {
    let vfs = Arc::new(FaultyVfs::new());
    let store = CheckpointStore::open_with(PathBuf::from("/ckpt"), RETAIN, vfs.clone()).unwrap();
    let ckpt = Checkpoint {
        step: 500,
        accepted: 3,
        rng_state: vec![5; 32],
        log: vec![(0, 0.5)],
        state: 11u64,
        aux: Vec::new(),
    };
    // Fail the write op of the upcoming save (ops: create, write, ...).
    vfs.enospc_at(vfs.op_count() + 1);
    let err = store.save(&ckpt).unwrap_err();
    assert!(err.to_string().contains("ENOSPC"), "{err}");
    // The disk "frees up"; the retried save succeeds and is durable.
    store.save(&ckpt).unwrap();
    vfs.crash(CrashStyle::DropUnsynced);
    let rec = store.recover::<u64>().unwrap();
    assert_eq!(rec.checkpoint.unwrap().step, 500);
}
