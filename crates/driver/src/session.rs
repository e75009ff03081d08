//! Observable run sessions: runs as *jobs*.
//!
//! The paper's convergence statements are about trajectories — the hitting
//! time of the accumulator sequence `x_t` on the success region (§6.1) — not
//! just terminal states, and an SGD service at scale needs runs that are
//! observable while in flight, cancellable, and schedulable many at a time.
//! This module is that front door:
//!
//! * [`RunObserver`] — typed [`RunEvent`]s streamed live from every backend:
//!   `Started`, periodic [`Progress`], strided [`TrajectorySample`]s, and
//!   `Finished` with the full report;
//! * [`SessionCtx`] — the per-run wiring (observer + cancel flag) accepted
//!   by [`Backend::run_session`](crate::Backend) and
//!   [`run_spec_session`](crate::run_spec_session);
//! * [`Driver`] — `submit` a spec and get a [`RunHandle`] with `cancel()`,
//!   `wait()` and non-blocking `try_report()`; or execute whole sweeps
//!   concurrently on a bounded worker pool with [`Driver::run_many`].
//!
//! Observation is pure: attaching an observer never consumes RNG state or
//! reorders operations, so an observed run is bit-identical to an unobserved
//! one on every deterministic backend (and single-threaded native runs).

use crate::error::DriverError;
use crate::report::{RunReport, TrajectorySample};
use crate::spec::{BackendKind, RunSpec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Locks a mutex, recovering the inner value if a previous holder panicked.
///
/// Every mutex in this module guards plain data (an `Instant`, a sample
/// vector, a result slot) whose invariants cannot be broken mid-update, so
/// poisoning carries no information here — but propagating it would let one
/// panicking observer cascade-panic every later `observe`/`try_report` on
/// unrelated threads of the same pool.
fn lock_recovered<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a `catch_unwind` payload for [`DriverError::Panicked`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Progress stride used when an observer is attached but the spec did not
/// request trajectory collection.
pub const DEFAULT_PROGRESS_STRIDE: u64 = 1024;

/// A periodic progress snapshot streamed to observers.
#[derive(Debug, Clone, PartialEq)]
pub struct Progress {
    /// Updates reflected in the observed state (claim index on native
    /// backends, ordered iteration count on simulated/sequential ones).
    pub iterations: u64,
    /// Distance evaluations performed so far on behalf of this session.
    pub evaluations: u64,
    /// `‖x − x*‖²` at the observation point.
    pub dist_sq: f64,
    /// Seconds since the run started.
    pub elapsed_secs: f64,
}

/// A typed event in a run session's lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// The spec validated and is about to execute.
    Started {
        /// Execution model.
        backend: BackendKind,
        /// Oracle kind.
        oracle: String,
        /// Thread count.
        threads: usize,
        /// Total iteration budget.
        iterations: u64,
        /// Master seed.
        seed: u64,
    },
    /// Periodic progress (every sample point).
    Progress(Progress),
    /// A strided trajectory sample (only when the spec enabled collection
    /// via `RunSpec::trajectory_every`).
    TrajectorySample(TrajectorySample),
    /// A model snapshot was published for serving (only when a
    /// [`ServeHook`](asgd_hogwild::ServeHook) is attached via
    /// [`SessionCtx::serve`]).
    SnapshotPublished {
        /// Publication version (1-based, strictly increasing).
        version: u64,
        /// Training claim index the snapshot was taken at.
        iteration: u64,
    },
    /// A drift scenario shifted the data stream's ground-truth minimizer
    /// mid-run. Emitted by the ingest tier (`asgd-ingest`), which owns the
    /// drift schedule, through the session's observer — backends never
    /// originate it.
    DriftInjected {
        /// Training iterations reflected at the injection point (0 when
        /// the injector could not observe a count).
        iteration: u64,
        /// Seconds since the run started.
        elapsed_secs: f64,
    },
    /// The serving front-end's load shedder moved to a new tier. Emitted by
    /// the net tier (`asgd-net`), which owns the shedder, through the
    /// observer it was configured with — backends never originate it.
    ShedTierChanged {
        /// The tier now in force: 0 healthy, 1 degraded (Low shed), 2
        /// overloaded (Low and Normal shed).
        tier: u8,
        /// The rolling p99 that drove the transition, in nanoseconds.
        p99_ns: u64,
        /// The latency objective, in nanoseconds.
        slo_ns: u64,
    },
    /// An ingest queue refused an observation because it was full (or the
    /// producer timed out waiting for room). Emitted by the net tier on
    /// behalf of the ingest tier.
    QueueSaturated {
        /// Queue depth at the refusal.
        depth: u64,
        /// The queue's configured capacity.
        capacity: u64,
    },
    /// The run finished; the same report the blocking call returns, shared
    /// rather than copied. An observer may keep the `Arc`; the blocking
    /// call then returns a copy of it.
    Finished(Arc<RunReport>),
}

/// A streaming observer of [`RunEvent`]s.
///
/// Implementations must be `Send + Sync`: native backends invoke the
/// observer from worker threads. Any `Fn(&RunEvent) + Send + Sync` closure
/// implements it.
pub trait RunObserver: Send + Sync {
    /// Receives one event. Called synchronously from the run's execution
    /// context — keep it fast (or hand off to a channel).
    fn on_event(&self, event: &RunEvent);
}

impl<F: Fn(&RunEvent) + Send + Sync> RunObserver for F {
    fn on_event(&self, event: &RunEvent) {
        self(event)
    }
}

/// Per-run session wiring passed to [`Backend::run_session`](crate::Backend).
///
/// The default is inert — `run_session(spec, &SessionCtx::default())` is
/// exactly `run(spec)`.
#[derive(Clone, Default)]
pub struct SessionCtx {
    /// Event sink, shared with the run (native backends call it from worker
    /// threads).
    pub observer: Option<Arc<dyn RunObserver>>,
    /// Cooperative cancel flag: raise it to stop the run early; the report
    /// then carries `stop: Some("cancelled")` and the iterations actually
    /// executed.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Serving attachment: the backend exposes a live
    /// [`ModelReader`](asgd_hogwild::ModelReader) through the hook and
    /// publishes coherent snapshots at the hook's stride (streamed to the
    /// observer as [`RunEvent::SnapshotPublished`]). Implemented by the
    /// `hogwild` backend; other backends accept and ignore the hook (it
    /// then never attaches). One hook serves one run.
    pub serve: Option<Arc<asgd_hogwild::ServeHook>>,
    /// Training-oracle override: when set, every backend trains on *this*
    /// oracle instead of building one from `spec.oracle` (whose kind then
    /// only labels the report; its `dim` must match the override's
    /// dimension). The ingest tier threads a
    /// [`StreamingOracle`](asgd_oracle::StreamingOracle) — whose ingress
    /// queue outlives the run — into sessions this way.
    pub oracle: Option<Arc<dyn asgd_oracle::GradientOracle>>,
}

impl std::fmt::Debug for SessionCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCtx")
            .field("observer", &self.observer.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("serve", &self.serve.is_some())
            .field("oracle", &self.oracle.is_some())
            .finish()
    }
}

impl SessionCtx {
    /// A context with just an observer.
    #[must_use]
    pub fn observed(observer: Arc<dyn RunObserver>) -> Self {
        Self {
            observer: Some(observer),
            ..Self::default()
        }
    }

    /// Adds a cancel flag.
    #[must_use]
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Adds a serving hook (native `hogwild` backend only).
    #[must_use]
    pub fn with_serve(mut self, hook: Arc<asgd_hogwild::ServeHook>) -> Self {
        self.serve = Some(hook);
        self
    }

    /// Overrides the training oracle (see [`SessionCtx::oracle`]).
    #[must_use]
    pub fn with_oracle(mut self, oracle: Arc<dyn asgd_oracle::GradientOracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }
}

/// Internal sample fan-out shared by all backends: collects trajectory
/// samples (when the spec asked for them) and forwards progress/trajectory
/// events to the observer. Thread-safe — native workers call
/// [`SampleHub::observe`] concurrently.
pub(crate) struct SampleHub {
    observer: Option<Arc<dyn RunObserver>>,
    start: Mutex<Instant>,
    collect: bool,
    /// Exclusive upper bound on sample indices (the spec's iteration
    /// budget). Native claim loops sample indices `0..T` by construction;
    /// the simulated accumulator fold would additionally emit the terminal
    /// `index == T` state when `T` is a stride multiple — filtering here
    /// keeps sample indices aligned across backends.
    index_limit: u64,
    samples: Mutex<Vec<TrajectorySample>>,
    evaluations: AtomicU64,
}

impl SampleHub {
    /// Builds the hub for one run. `collect` mirrors
    /// `spec.trajectory_stride.is_some()`; `index_limit` is the spec's
    /// iteration budget.
    pub(crate) fn new(ctx: &SessionCtx, collect: bool, index_limit: u64) -> Self {
        Self {
            observer: ctx.observer.clone(),
            start: Mutex::new(Instant::now()),
            collect,
            index_limit,
            samples: Mutex::new(Vec::new()),
            evaluations: AtomicU64::new(0),
        }
    }

    /// True if any sink wants samples (otherwise backends skip sampling
    /// entirely).
    pub(crate) fn active(&self) -> bool {
        self.collect || self.observer.is_some()
    }

    /// Re-anchors the elapsed clock. Backends call this at the same point
    /// they start their own wall-time measurement, so `elapsed_secs` in
    /// samples and `wall_time_secs` in the report share one origin (oracle
    /// construction and model allocation are excluded from both).
    pub(crate) fn start_now(&self) {
        *lock_recovered(&self.start) = Instant::now();
    }

    /// Records one sample: `index` updates applied, observed `dist²`.
    pub(crate) fn observe(&self, index: u64, dist_sq: f64) {
        if index >= self.index_limit {
            return;
        }
        let elapsed_secs = lock_recovered(&self.start).elapsed().as_secs_f64();
        let evaluations = self.evaluations.fetch_add(1, Ordering::Relaxed) + 1;
        let sample = TrajectorySample {
            index,
            dist_sq,
            elapsed_secs,
        };
        if self.collect {
            lock_recovered(&self.samples).push(sample.clone());
        }
        if let Some(obs) = &self.observer {
            if self.collect {
                obs.on_event(&RunEvent::TrajectorySample(sample));
            }
            obs.on_event(&RunEvent::Progress(Progress {
                iterations: index,
                evaluations,
                dist_sq,
                elapsed_secs,
            }));
        }
    }

    /// Drains the collected trajectory, ordered by index (`None` when
    /// collection was not requested). Native workers sample concurrently, so
    /// arrival order is not index order.
    pub(crate) fn take_trajectory(&self) -> Option<Vec<TrajectorySample>> {
        self.collect.then(|| {
            let mut samples = std::mem::take(&mut *lock_recovered(&self.samples));
            samples.sort_by_key(|s| s.index);
            samples
        })
    }
}

/// The session front door: submits specs as cancellable background jobs and
/// executes sweeps on a bounded worker pool.
///
/// Sweep results are deterministic wherever the backends are: every spec
/// carries its own master seed, so concurrent execution order cannot leak
/// into any run's coin streams, and `run_many` returns reports in spec
/// order, equal (modulo wall-time fields) to serial `run` calls of the same
/// specs.
#[derive(Debug, Clone)]
pub struct Driver {
    workers: usize,
}

impl Default for Driver {
    fn default() -> Self {
        Self::new()
    }
}

impl Driver {
    /// A driver with one pool worker per available core.
    #[must_use]
    pub fn new() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(4, usize::from),
        }
    }

    /// Overrides the pool width for [`Driver::run_many`] (clamped to ≥ 1).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Submits a spec as a background job.
    #[must_use]
    pub fn submit(&self, spec: RunSpec) -> RunHandle {
        self.spawn(spec, SessionCtx::default())
    }

    /// Submits a spec as a background job with an observer attached.
    #[must_use]
    pub fn submit_observed(&self, spec: RunSpec, observer: Arc<dyn RunObserver>) -> RunHandle {
        self.spawn(
            spec,
            SessionCtx {
                observer: Some(observer),
                ..SessionCtx::default()
            },
        )
    }

    /// Submits a spec as a background job under a caller-built context
    /// (observer and/or serving hook). The handle's cancel flag is the
    /// context's one when set, or a fresh flag otherwise — either way
    /// [`RunHandle::cancel`] stops the run.
    #[must_use]
    pub fn submit_with(&self, spec: RunSpec, ctx: SessionCtx) -> RunHandle {
        self.spawn(spec, ctx)
    }

    fn spawn(&self, spec: RunSpec, mut ctx: SessionCtx) -> RunHandle {
        let cancel = ctx
            .cancel
            .get_or_insert_with(|| Arc::new(AtomicBool::new(false)))
            .clone();
        let slot: Arc<Mutex<Option<Result<RunReport, DriverError>>>> = Arc::new(Mutex::new(None));
        let worker_slot = Arc::clone(&slot);
        let join = std::thread::spawn(move || {
            // Contain panics (a throwing observer, a worker-thread unwind):
            // the handle then reports `DriverError::Panicked` instead of
            // propagating the unwind through `wait()`.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crate::run_spec_session(&spec, &ctx)
            }))
            .unwrap_or_else(|payload| Err(DriverError::Panicked(panic_message(&*payload))));
            *lock_recovered(&worker_slot) = Some(result);
        });
        RunHandle {
            cancel,
            slot,
            join: Some(join),
        }
    }

    /// Executes every spec concurrently on a bounded worker pool and returns
    /// per-spec results **in spec order**.
    #[must_use]
    pub fn run_many(&self, specs: &[RunSpec]) -> Vec<Result<RunReport, DriverError>> {
        self.run_many_with(specs, crate::run_spec)
    }

    /// Generalised sweep: runs `f` over every spec on the pool, in spec
    /// order. Used by experiments that need more than a [`RunReport`] per
    /// run (e.g. the detailed simulated entry point).
    #[must_use]
    pub fn run_many_with<T, F>(&self, specs: &[RunSpec], f: F) -> Vec<Result<T, DriverError>>
    where
        T: Send,
        F: Fn(&RunSpec) -> Result<T, DriverError> + Sync,
    {
        let slots: Vec<Mutex<Option<Result<T, DriverError>>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicU64::new(0);
        let workers = self.workers.min(specs.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst) as usize;
                    let Some(spec) = specs.get(i) else {
                        return;
                    };
                    // One panicking run (e.g. a throwing observer) becomes
                    // that spec's `Err(Panicked)`; the pool worker survives
                    // to execute the remaining, unrelated jobs.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(spec)))
                        .unwrap_or_else(|payload| {
                            Err(DriverError::Panicked(panic_message(&*payload)))
                        });
                    *lock_recovered(&slots[i]) = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every claimed spec stores a result")
            })
            .collect()
    }
}

/// Handle to a run submitted via [`Driver::submit`]: cancel it, poll it, or
/// block for its report.
///
/// Dropping the handle without [`RunHandle::wait`] detaches the job — it
/// keeps running to completion (or until cancelled) in the background.
#[derive(Debug)]
pub struct RunHandle {
    cancel: Arc<AtomicBool>,
    slot: Arc<Mutex<Option<Result<RunReport, DriverError>>>>,
    join: Option<JoinHandle<()>>,
}

impl RunHandle {
    /// Requests cancellation. Executors honour the flag within one
    /// success-check stride (simulated backends: one engine step); the run
    /// then finishes with `stop: Some("cancelled")` and partial iterations.
    /// Idempotent; racing a natural finish is harmless.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// True once [`RunHandle::cancel`] has been called.
    #[must_use]
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// True once the run has finished and a report is available.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        lock_recovered(&self.slot).is_some()
    }

    /// Non-blocking result check: `None` while the run is still in flight,
    /// the (cloned) outcome once it finished.
    #[must_use]
    pub fn try_report(&self) -> Option<Result<RunReport, DriverError>> {
        lock_recovered(&self.slot).clone()
    }

    /// Blocks until the run finishes and returns its outcome.
    ///
    /// # Errors
    ///
    /// Returns whatever [`crate::run_spec`] would for the same spec, plus
    /// [`DriverError::Panicked`] if the run (or an attached observer)
    /// panicked. Cancelled runs are **not** errors — they return `Ok` with
    /// `stop: Some("cancelled")`.
    ///
    /// # Panics
    ///
    /// Panics only if the contained run thread failed to store any result —
    /// unreachable through this module's spawn path.
    pub fn wait(mut self) -> Result<RunReport, DriverError> {
        if let Some(join) = self.join.take() {
            // The worker contains its own panics; a join error would mean
            // the containment itself unwound, which catch_unwind precludes.
            let _ = join.join();
        }
        lock_recovered(&self.slot)
            .take()
            .expect("joined run always stores a result")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SchedulerSpec;
    use asgd_oracle::OracleSpec;

    fn quick_spec(seed: u64) -> RunSpec {
        RunSpec::new(
            OracleSpec::new("noisy-quadratic", 2).sigma(0.1),
            BackendKind::Sequential,
        )
        .threads(1)
        .iterations(300)
        .learning_rate(0.05)
        .x0(vec![1.0, -1.0])
        .scheduler(SchedulerSpec::Serial)
        .seed(seed)
    }

    #[test]
    fn submit_wait_returns_the_blocking_result() {
        let handle = Driver::new().submit(quick_spec(3));
        let report = handle.wait().expect("valid spec");
        let serial = crate::run_spec(&quick_spec(3)).unwrap();
        assert_eq!(report.final_model, serial.final_model);
        assert_eq!(report.iterations, 300);
    }

    #[test]
    fn try_report_is_none_until_finished_then_some() {
        let handle = Driver::new().submit(quick_spec(4));
        let report = loop {
            if let Some(result) = handle.try_report() {
                break result.expect("valid spec");
            }
            std::thread::yield_now();
        };
        assert!(handle.is_finished());
        assert_eq!(report.iterations, 300);
        // try_report clones: still available, and wait() agrees.
        let again = handle.try_report().unwrap().unwrap();
        assert_eq!(again, report);
        assert_eq!(handle.wait().unwrap(), report);
    }

    #[test]
    fn run_many_preserves_spec_order_with_more_specs_than_workers() {
        let specs: Vec<RunSpec> = (0..9).map(quick_spec).collect();
        let reports = Driver::new().workers(2).run_many(&specs);
        assert_eq!(reports.len(), 9);
        for (i, (spec, report)) in specs.iter().zip(&reports).enumerate() {
            let report = report.as_ref().expect("valid spec");
            assert_eq!(report.seed, spec.seed, "slot {i} out of order");
        }
    }

    #[test]
    fn run_many_reports_per_spec_errors_without_aborting_the_sweep() {
        let mut bad = quick_spec(1);
        bad.oracle.kind = "no-such-oracle".to_string();
        let specs = vec![quick_spec(0), bad, quick_spec(2)];
        let results = Driver::new().run_many(&specs);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(DriverError::Oracle(_))));
        assert!(results[2].is_ok());
    }

    #[test]
    fn poisoned_sample_clock_recovers_instead_of_cascading() {
        // Regression: the clock/sink mutexes used `.expect("poisoned")`, so
        // one panic while a guard was alive turned every later observe()
        // from other worker threads into a second panic.
        let hub = Arc::new(SampleHub::new(&SessionCtx::default(), true, 1_000));
        let poisoner = Arc::clone(&hub);
        let _ = std::thread::spawn(move || {
            let _clock = poisoner.start.lock().unwrap();
            let _sink = poisoner.samples.lock().unwrap();
            panic!("observer exploded while sampling");
        })
        .join();
        assert!(hub.start.is_poisoned(), "precondition: clock poisoned");
        // All hub operations must keep working on the recovered values.
        hub.start_now();
        hub.observe(7, 0.25);
        let trajectory = hub.take_trajectory().expect("collection stays on");
        assert_eq!(trajectory.len(), 1);
        assert_eq!(trajectory[0].index, 7);
    }

    #[test]
    fn panicking_observer_fails_only_its_own_pooled_job() {
        // One pooled run whose observer throws must come back as
        // Err(Panicked) while unrelated jobs in the same run_many sweep
        // complete normally.
        let specs = vec![quick_spec(0), quick_spec(13), quick_spec(2)];
        let results = Driver::new().workers(2).run_many_with(&specs, |spec| {
            if spec.seed == 13 {
                let observer = Arc::new(|_: &RunEvent| panic!("observer exploded"));
                crate::run_spec_session(spec, &SessionCtx::observed(observer))
            } else {
                crate::run_spec(spec)
            }
        });
        assert!(results[0].is_ok(), "{:?}", results[0]);
        assert!(results[2].is_ok(), "{:?}", results[2]);
        match &results[1] {
            Err(DriverError::Panicked(msg)) => {
                assert!(msg.contains("observer exploded"), "{msg}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn submitted_run_with_panicking_observer_reports_panicked() {
        let observer = Arc::new(|_: &RunEvent| panic!("observer exploded"));
        let handle = Driver::new().submit_observed(quick_spec(5), observer);
        match handle.wait() {
            Err(DriverError::Panicked(msg)) => {
                assert!(msg.contains("observer exploded"), "{msg}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn observer_closures_receive_lifecycle_events() {
        let events: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let observer = Arc::new(move |ev: &RunEvent| {
            let label = match ev {
                RunEvent::Started { .. } => "started",
                RunEvent::Progress(_) => "progress",
                RunEvent::TrajectorySample(_) => "sample",
                RunEvent::SnapshotPublished { .. } => "snapshot",
                RunEvent::DriftInjected { .. } => "drift",
                RunEvent::ShedTierChanged { .. } => "shed-tier",
                RunEvent::QueueSaturated { .. } => "queue-saturated",
                RunEvent::Finished(_) => "finished",
            };
            sink.lock().unwrap().push(label.to_string());
        });
        let spec = quick_spec(7).trajectory_every(100);
        let report = Driver::new()
            .submit_observed(spec, observer)
            .wait()
            .expect("valid spec");
        let events = events.lock().unwrap();
        assert_eq!(events.first().map(String::as_str), Some("started"));
        assert_eq!(events.last().map(String::as_str), Some("finished"));
        assert!(events.iter().any(|e| e == "progress"));
        assert!(events.iter().any(|e| e == "sample"));
        assert_eq!(
            report.trajectory.as_ref().map(Vec::len),
            Some(3),
            "samples at 0, 100, 200"
        );
    }
}
