//! The standard chain payload: wraps any [`MarkovChain`] into a
//! [`JobPayload`] that checkpoints through the session's store, honors
//! the job's eviction signal, and resumes bit-identically after a crash
//! or eviction.
//!
//! Determinism contract: the RNG is seeded once per *session* (not per
//! dispatch). On resume [`run_supervised`] restores the exact [`StdRng`]
//! stream from the snapshot's 32-byte state, so an interrupted-and-resumed
//! run and an uninterrupted run of the same session produce
//! byte-identical final states — the property the chaos suite checks.

use std::ops::ControlFlow;

use rand::rngs::StdRng;
use rand::SeedableRng as _;
use sops_chains::checkpoint::StateCodec;
use sops_chains::recovery::{run_supervised, SupervisedOptions};
use sops_chains::{Auditable, MarkovChain, RecoveryEvent, Repairable};
use sops_runtime::ResourceBudget;

use crate::service::{ExecCtx, JobOutcome, JobPayload};

/// Builds a [`JobPayload`] that runs `chain` for `steps` steps,
/// checkpointing every `every` steps, with the default rollback budget
/// ([`ResourceBudget::default`]'s `max_rollbacks`). `on_done`
/// fires only on completion, with the final state and RNG — the
/// bit-identity witness for tests and result collection.
///
/// The payload is resume-aware: dispatched into a session with durable
/// checkpoints, it continues from the newest valid snapshot instead of
/// starting over, and `initial`/the seed are ignored in favor of the
/// recovered state. The store is recovered once per dispatch, by the
/// supervised runner; [`sops_runtime::RuntimeEvent::Resumed`] is emitted
/// from its report when the run returns, followed by one event per repair
/// or rollback. A cancelled run emits no `cancelled` event: the service
/// reports the eviction itself.
pub fn chain_payload<C, F>(
    chain: C,
    initial: C::State,
    seed: u64,
    steps: u64,
    every: u64,
    on_done: F,
) -> JobPayload
where
    C: MarkovChain + Send + 'static,
    C::State: StateCodec + Auditable + Repairable + Send + 'static,
    F: FnOnce(&C::State, &StdRng) + Send + 'static,
{
    Box::new(move |ctx: &ExecCtx<'_>| {
        let mut state = initial;
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = SupervisedOptions {
            steps,
            every: every.max(1),
            max_rollbacks: ResourceBudget::default().max_rollbacks,
            audit_every: None,
        };
        let run = run_supervised(
            &chain,
            &mut state,
            &mut rng,
            ctx.store(),
            &opts,
            ctx.cancel,
            |_| 0.0,
            |_, _| ControlFlow::Continue(()),
        )?;
        if let Some(step) = run.resumed_from {
            ctx.note_resumed(step);
        }
        for event in &run.events {
            if !matches!(event, RecoveryEvent::Cancelled { .. }) {
                ctx.emit(event.into());
            }
        }
        if run.completed {
            on_done(&state, &rng);
            Ok(JobOutcome::Completed { steps: run.steps })
        } else {
            // Cancelled cooperatively mid-run (eviction): the newest
            // durable snapshot is the resume point.
            Ok(JobOutcome::Yielded {
                last_durable_step: run.last_durable_step,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::io;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    use rand::{Rng, RngExt as _};
    use sops_chains::{FaultyVfs, Vfs};

    use super::*;
    use crate::{Admission, JobService, JobSpec, ServiceConfig, TerminalStatus};

    /// The in-memory filesystem, counting operations by kind and by the
    /// class of file or directory they touch.
    struct CountingVfs {
        inner: FaultyVfs,
        counts: Mutex<BTreeMap<(&'static str, &'static str), u64>>,
    }

    impl CountingVfs {
        fn new() -> Self {
            CountingVfs {
                inner: FaultyVfs::new(),
                counts: Mutex::new(BTreeMap::new()),
            }
        }

        /// Counts `op` on `path`: a manifest, anything in a session's
        /// checkpoint directory, or the store root.
        fn count(&self, op: &'static str, path: &Path) {
            let under = |dir: &str| path.components().any(|c| c.as_os_str() == dir);
            let class = if under("manifests") {
                "manifest"
            } else if under("sessions") {
                "checkpoint"
            } else {
                "root"
            };
            *self.counts.lock().unwrap().entry((op, class)).or_default() += 1;
        }

        /// The counts since the last call, resetting them.
        fn take(&self) -> BTreeMap<(&'static str, &'static str), u64> {
            std::mem::take(&mut *self.counts.lock().unwrap())
        }
    }

    impl Vfs for CountingVfs {
        fn create(&self, path: &Path) -> io::Result<()> {
            self.count("create", path);
            self.inner.create(path)
        }
        fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            self.count("write", path);
            self.inner.write(path, data)
        }
        fn sync(&self, path: &Path) -> io::Result<()> {
            self.count("sync", path);
            self.inner.sync(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.count("rename", to);
            self.inner.rename(from, to)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.count("sync_dir", dir);
            self.inner.sync_dir(dir)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.count("read", path);
            self.inner.read(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            self.count("list", dir);
            self.inner.list(dir)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            self.count("remove", path);
            self.inner.remove(path)
        }
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            self.count("create_dir_all", dir);
            self.inner.create_dir_all(dir)
        }
    }

    /// A walk position; `stale` stands for a drifted cache, which the
    /// audit reports and repair rebuilds. It is not encoded.
    #[derive(Default)]
    struct Counter {
        x: u64,
        stale: bool,
    }

    impl StateCodec for Counter {
        fn encode_state(&self) -> Vec<u8> {
            self.x.encode_state()
        }
        fn decode_state(bytes: &[u8]) -> Result<Self, String> {
            u64::decode_state(bytes).map(|x| Counter { x, stale: false })
        }
    }

    impl Auditable for Counter {
        fn audit_violations(&self) -> Vec<String> {
            if self.stale {
                vec!["stale cache".to_string()]
            } else {
                Vec::new()
            }
        }
    }

    impl Repairable for Counter {
        fn repair_state(&mut self) -> Result<Vec<String>, Vec<String>> {
            self.stale = false;
            Ok(vec!["rebuilt cache".to_string()])
        }
    }

    struct Walk;

    impl MarkovChain for Walk {
        type State = Counter;
        fn step<R: Rng + ?Sized>(&self, s: &mut Counter, rng: &mut R) -> bool {
            s.x = s.x.wrapping_add(u64::from(rng.random_range(0..3u8)));
            true
        }
    }

    /// [`Walk`] that drifts the cache on its first step only.
    struct DriftOnce(AtomicBool);

    impl MarkovChain for DriftOnce {
        type State = Counter;
        fn step<R: Rng + ?Sized>(&self, s: &mut Counter, rng: &mut R) -> bool {
            if !self.0.swap(true, Ordering::Relaxed) {
                s.stale = true;
            }
            Walk.step(s, rng)
        }
    }

    fn run<C>(svc: &JobService, chain: C, steps: u64) -> TerminalStatus
    where
        C: MarkovChain<State = Counter> + Send + 'static,
    {
        let payload = chain_payload(chain, Counter::default(), 5, steps, 1_000, |_, _| {});
        let Admission::Admitted(ticket) = svc.submit(JobSpec::new("t", "t/s", payload)) else {
            panic!("rejected")
        };
        ticket.wait()
    }

    fn service(vfs: &Arc<CountingVfs>) -> JobService {
        JobService::open_with(
            Path::new("/svc"),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            Arc::clone(vfs) as _,
        )
        .unwrap()
    }

    #[test]
    fn resumed_dispatch_recovers_once_and_reports_one_resume() {
        let vfs = Arc::new(CountingVfs::new());
        let svc = service(&vfs);
        assert_eq!(
            run(&svc, Walk, 3_000),
            TerminalStatus::Completed { steps: 3_000 }
        );

        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&lines);
        svc.set_telemetry(move |line| sink.lock().unwrap().push(line.to_string()));
        vfs.take();
        assert_eq!(
            run(&svc, Walk, 6_000),
            TerminalStatus::Completed { steps: 6_000 }
        );
        svc.shutdown(std::time::Duration::from_secs(5));

        let lines = lines.lock().unwrap();
        let resumed: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"event\": \"resumed\""))
            .collect();
        assert_eq!(resumed.len(), 1, "{lines:?}");
        assert!(resumed[0].contains("\"from_step\": 3000"), "{}", resumed[0]);
        let snapshot_reads = vfs.take().get(&("read", "checkpoint")).copied();
        assert_eq!(snapshot_reads, Some(1));
    }

    /// Every storage operation of a fresh job with one snapshot, by kind
    /// and class: one manifest read, two atomic manifest writes (`Running`
    /// before the payload, the terminal status after), one atomic
    /// snapshot write, and the checkpoint store's listings.
    #[test]
    fn a_fresh_job_makes_a_pinned_set_of_storage_operations() {
        let vfs = Arc::new(CountingVfs::new());
        let svc = service(&vfs);
        vfs.take();
        assert_eq!(
            run(&svc, Walk, 1_000),
            TerminalStatus::Completed { steps: 1_000 }
        );
        svc.shutdown(std::time::Duration::from_secs(5));
        let mut expected = BTreeMap::from([
            (("read", "manifest"), 1),
            (("create_dir_all", "checkpoint"), 1),
            (("list", "checkpoint"), 3),
        ]);
        for (class, atomic_writes) in [("manifest", 2), ("checkpoint", 1)] {
            for op in ["create", "write", "sync", "rename", "sync_dir"] {
                expected.insert((op, class), atomic_writes);
            }
        }
        assert_eq!(vfs.take(), expected);
    }

    /// A repair inside a service job reaches the service telemetry stream,
    /// as a sweep cell's reaches its cell telemetry.
    #[test]
    fn a_repaired_drift_reaches_the_service_telemetry() {
        let vfs = Arc::new(CountingVfs::new());
        let svc = service(&vfs);
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&lines);
        svc.set_telemetry(move |line| sink.lock().unwrap().push(line.to_string()));
        assert_eq!(
            run(&svc, DriftOnce(AtomicBool::new(false)), 3_000),
            TerminalStatus::Completed { steps: 3_000 }
        );
        svc.shutdown(std::time::Duration::from_secs(5));

        let lines = lines.lock().unwrap();
        let repaired: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"event\": \"repaired\""))
            .collect();
        assert_eq!(repaired.len(), 1, "{lines:?}");
        assert!(repaired[0].contains("\"step\": 1000"), "{}", repaired[0]);
    }
}
