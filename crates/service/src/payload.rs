//! The standard chain payload: wraps any [`MarkovChain`] into a
//! [`JobPayload`] that checkpoints through the session's store, stops
//! before its next chunk once the job is evicted, and resumes
//! bit-identically after a crash or eviction.
//!
//! Determinism contract: the RNG is seeded once per *session* (not per
//! dispatch). On resume [`run_supervised_hooked`] restores the exact
//! [`StdRng`] stream from the snapshot's 32-byte state, so an
//! interrupted-and-resumed run and an uninterrupted run of the same
//! session produce byte-identical final states — the property the chaos
//! suite checks.

use std::ops::ControlFlow;

use rand::rngs::StdRng;
use rand::SeedableRng as _;
use sops_chains::checkpoint::StateCodec;
use sops_chains::recovery::{run_supervised_hooked, SupervisedHooks, SupervisedOptions};
use sops_chains::{Auditable, MarkovChain, Repairable};
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
/// or rollback. An evicted job lets the chunk in flight finish and be
/// persisted, stops before its next chunk and yields; it emits no event
/// of its own, since the service reports the eviction. The run's newest
/// durable step goes back to the service with the outcome, so the worker
/// need not list the store again for the session manifest.
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
        let run = run_supervised_hooked(
            &chain,
            &mut state,
            &mut rng,
            Some(ctx.store()),
            &opts,
            |_| 0.0,
            &mut EvictionHooks(ctx),
        )?;
        ctx.note_durable(run.last_durable_step);
        if let Some(step) = run.resumed_from {
            ctx.note_resumed(step);
        }
        for event in &run.events {
            ctx.emit(event.into());
        }
        if run.completed {
            on_done(&state, &rng);
            Ok(JobOutcome::Completed { steps: run.steps })
        } else {
            // Evicted mid-run: the newest durable snapshot is the resume
            // point.
            Ok(JobOutcome::Yielded {
                last_durable_step: run.last_durable_step,
            })
        }
    })
}

/// The hooks of a [`chain_payload`] run: stop before a chunk once the job
/// is evicted.
struct EvictionHooks<'a, 'ctx>(&'a ExecCtx<'ctx>);

impl<S> SupervisedHooks<S> for EvictionHooks<'_, '_> {
    fn before_chunk(&mut self) -> ControlFlow<()> {
        if self.0.evicting() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn on_chunk(&mut self, _: u64, _: &mut S) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeMap;
    use std::io;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    use rand::{Rng, RngExt as _};
    use sops_chains::{CancelToken, CheckpointStore, FaultyVfs, Vfs};
    use sops_runtime::RuntimeEvent;

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

    /// [`Walk`] that counts the chunks it runs and fires `eviction` while
    /// chunk `evict_in` runs (1-based; 0 never fires it).
    struct Evicting {
        eviction: CancelToken,
        evict_in: u64,
        chunks: Arc<AtomicU64>,
    }

    impl MarkovChain for Evicting {
        type State = Counter;
        fn step<R: Rng + ?Sized>(&self, s: &mut Counter, rng: &mut R) -> bool {
            Walk.step(s, rng)
        }
        fn run<R: Rng + ?Sized>(&self, s: &mut Counter, steps: u64, rng: &mut R) -> u64 {
            if self.chunks.fetch_add(1, Ordering::Relaxed) + 1 == self.evict_in {
                self.eviction.cancel();
            }
            (0..steps).map(|_| u64::from(self.step(s, rng))).sum()
        }
    }

    /// A 5,000-step [`chain_payload`] of [`Evicting`] in 1,000-step chunks,
    /// which must not complete.
    fn evicting_payload(
        eviction: &CancelToken,
        evict_in: u64,
        chunks: &Arc<AtomicU64>,
    ) -> JobPayload {
        let chain = Evicting {
            eviction: eviction.clone(),
            evict_in,
            chunks: Arc::clone(chunks),
        };
        chain_payload(chain, Counter::default(), 5, 5_000, 1_000, |_, _| {
            panic!("an evicted job does not complete")
        })
    }

    /// Runs `payload` on `store` under `eviction`, as the worker runs it.
    /// Returns its outcome, the durable step it noted and the events it
    /// emitted.
    fn exec(
        payload: JobPayload,
        store: &CheckpointStore,
        eviction: &CancelToken,
    ) -> (JobOutcome, Option<Option<u64>>, Vec<RuntimeEvent>) {
        let events = RefCell::new(Vec::new());
        let emit = |event| events.borrow_mut().push(event);
        let ctx = ExecCtx {
            eviction,
            store,
            session: "t/s",
            events: &emit,
            durable: Cell::new(None),
        };
        let outcome = payload(&ctx).unwrap();
        let durable = ctx.durable.get();
        (outcome, durable, events.into_inner())
    }

    /// An eviction that lands while chunk 2 runs lets that chunk finish
    /// and be persisted, starts no chunk after it, and yields at chunk 2's
    /// step without an event of the payload's own.
    #[test]
    fn an_eviction_during_chunk_2_yields_before_chunk_3() {
        let store = CheckpointStore::open_with("/ckpt", 2, Arc::new(FaultyVfs::new())).unwrap();
        let eviction = CancelToken::new();
        let chunks = Arc::new(AtomicU64::new(0));
        let (outcome, durable, events) =
            exec(evicting_payload(&eviction, 2, &chunks), &store, &eviction);
        assert_eq!(
            outcome,
            JobOutcome::Yielded {
                last_durable_step: Some(2_000)
            }
        );
        assert_eq!(durable, Some(Some(2_000)));
        assert_eq!(store.newest_step().unwrap(), Some(2_000));
        assert_eq!(chunks.load(Ordering::Relaxed), 2);
        assert!(events.is_empty(), "{events:?}");
    }

    /// A job evicted before its first chunk still recovers its session: it
    /// reports the resume, runs no chunk, and yields at the durable step.
    #[test]
    fn an_eviction_before_the_first_chunk_yields_at_the_durable_step() {
        let store = CheckpointStore::open_with("/ckpt", 2, Arc::new(FaultyVfs::new())).unwrap();
        let done = chain_payload(Walk, Counter::default(), 5, 1_000, 1_000, |_, _| {});
        let (outcome, ..) = exec(done, &store, &CancelToken::new());
        assert_eq!(outcome, JobOutcome::Completed { steps: 1_000 });

        let eviction = CancelToken::new();
        eviction.cancel();
        let chunks = Arc::new(AtomicU64::new(0));
        let (outcome, durable, events) =
            exec(evicting_payload(&eviction, 0, &chunks), &store, &eviction);
        assert_eq!(
            outcome,
            JobOutcome::Yielded {
                last_durable_step: Some(1_000)
            }
        );
        assert_eq!(durable, Some(Some(1_000)));
        assert_eq!(chunks.load(Ordering::Relaxed), 0);
        assert_eq!(store.newest_step().unwrap(), Some(1_000));
        assert_eq!(
            events,
            [RuntimeEvent::Resumed {
                session: "t/s".to_string(),
                from_step: 1_000
            }]
        );
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
    /// snapshot write, and two listings of the checkpoint store (recovery
    /// and `prune`; the worker takes the durable step from the payload).
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
            (("list", "checkpoint"), 2),
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
