//! The [`Backend`] trait and its seven implementations.
//!
//! Each backend interprets one [`RunSpec`] on a different execution model
//! and produces the same [`RunReport`], so experiments swap execution models
//! by changing one enum value.

use crate::error::DriverError;
use crate::report::{ContentionSummary, RunReport};
use crate::session::{RunEvent, SampleHub, SessionCtx, DEFAULT_PROGRESS_STRIDE};
use crate::spec::{BackendKind, PinSpec, RunSpec, ShardsSpec, SparsePathSpec};
use asgd_core::full_sgd::{run_simulated_session, FullSgdConfig, SimSession};
use asgd_core::runner::LockFreeSgd;
use asgd_core::sequential::SequentialSgd;
use asgd_hogwild::{
    ExecTuning, GuardedEpochSgd, GuardedEpochSgdConfig, Hogwild, HogwildConfig, LockedSgd,
    MetricsSink, NativeFullSgd, NativeFullSgdConfig, RunControl, ShardPolicy, ShardRouter,
    SparsePolicy, TimingSink,
};
use asgd_math::rng::SeedSequence;
use asgd_oracle::GradientOracle;
use asgd_shmem::StopReason;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Maps the spec-level tuning knobs onto the native executors' [`ExecTuning`].
fn native_tuning(spec: &RunSpec) -> ExecTuning {
    ExecTuning {
        sparse: match spec.sparse {
            SparsePathSpec::Auto => SparsePolicy::Auto,
            SparsePathSpec::Dense => SparsePolicy::ForceDense,
            SparsePathSpec::Sparse => SparsePolicy::ForceSparse,
        },
        shards: match spec.shards {
            ShardsSpec::Auto => ShardPolicy::Auto,
            ShardsSpec::Fixed(n) => ShardPolicy::Fixed(n),
        },
        pin: spec.pin == PinSpec::On,
        ..ExecTuning::default()
    }
}

/// The realised shard count a native store backend reports: the count the
/// store's power-of-two router actually built (chunk rounding can realise
/// fewer shards than [`ShardPolicy::resolve`] requests). The executor
/// builds its store through the same resolve → [`ShardRouter::new`] path,
/// so this is the count that actually ran, not a request.
fn realized_shards(spec: &RunSpec, d: usize) -> u64 {
    let requested = native_tuning(spec).shards.resolve(d);
    ShardRouter::new(d, requested).shard_count() as u64
}

/// The sampling stride a session uses: the spec's trajectory stride, or a
/// coarse default for observer-only sessions.
fn effective_stride(spec: &RunSpec) -> u64 {
    spec.trajectory_stride
        .unwrap_or(DEFAULT_PROGRESS_STRIDE)
        .max(1)
}

/// Builds the per-run sample hub, or `None` when nothing observes this run
/// (backends then skip sampling work entirely).
fn hub_for(spec: &RunSpec, ctx: &SessionCtx) -> Option<SampleHub> {
    let hub = SampleHub::new(ctx, spec.trajectory_stride.is_some(), spec.iterations);
    hub.active().then_some(hub)
}

/// The shared session wiring of the four native backends: builds the hub
/// and the [`RunControl`] (stop flag + strided metrics sink forwarding into
/// the hub), re-anchors the sample clock, invokes the executor, and drains
/// the collected trajectory. One definition, so session semantics cannot
/// silently diverge between native backends.
fn with_native_control<R>(
    spec: &RunSpec,
    ctx: &SessionCtx,
    run: impl FnOnce(RunControl<'_>) -> R,
) -> (R, Option<Vec<crate::report::TrajectorySample>>) {
    let hub = hub_for(spec, ctx);
    let sink = |claim: u64, dist_sq: f64| {
        if let Some(hub) = &hub {
            hub.observe(claim, dist_sq);
        }
    };
    // Worker-interval step timing feeds the process-wide telemetry
    // registry: the histogram handle is resolved once per run, the sink
    // records the amortised per-step latency of each stride window. The
    // sink is unconditional — the bench-check overhead gate holds its cost
    // (one strided Instant read + one striped histogram record) at ≤ 3%.
    let step_hist = asgd_telemetry::global().histogram("asgd_hogwild_step_ns");
    let timing = move |_claim: u64, elapsed_ns: u64, steps: u64| {
        step_hist.record(elapsed_ns / steps.max(1));
    };
    let ctrl = RunControl {
        stop: ctx.cancel.as_deref(),
        metrics: hub.as_ref().map(|_| MetricsSink {
            stride: effective_stride(spec),
            f: &sink,
        }),
        timing: Some(TimingSink { f: &timing }),
        serve: ctx.serve.as_deref(),
    };
    if let Some(hub) = &hub {
        // The executor starts its own wall-time clock inside `run`; anchor
        // the sample clock here so both share one origin.
        hub.start_now();
    }
    let out = run(ctrl);
    let trajectory = hub.as_ref().and_then(SampleHub::take_trajectory);
    (out, trajectory)
}

/// An execution model that can run a [`RunSpec`].
pub trait Backend {
    /// Which [`BackendKind`] this backend implements.
    fn kind(&self) -> BackendKind;

    /// Canonical name (mirrors [`BackendKind::name`]).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Executes the spec as a blocking one-shot call — a thin wrapper over
    /// [`Backend::run_session`] with an inert context.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError`] when the spec cannot be built or is not
    /// executable on this backend.
    fn run(&self, spec: &RunSpec) -> Result<RunReport, DriverError> {
        self.run_session(spec, &SessionCtx::default())
    }

    /// Executes the spec under a session context: progress/trajectory
    /// observation and cooperative cancellation. Attaching a context is pure
    /// observation — it never changes the run's coin streams or update
    /// sequence.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Backend::run`].
    fn run_session(&self, spec: &RunSpec, ctx: &SessionCtx) -> Result<RunReport, DriverError>;
}

/// Returns the backend implementing `kind`.
#[must_use]
pub fn backend(kind: BackendKind) -> Box<dyn Backend> {
    match kind {
        BackendKind::Sequential => Box::new(SequentialBackend),
        BackendKind::SimulatedLockFree => Box::new(SimulatedLockFreeBackend),
        BackendKind::SimulatedFullSgd => Box::new(SimulatedFullSgdBackend),
        BackendKind::Hogwild => Box::new(HogwildBackend),
        BackendKind::Locked => Box::new(LockedBackend),
        BackendKind::GuardedEpoch => Box::new(GuardedEpochBackend),
        BackendKind::NativeFullSgd => Box::new(NativeFullSgdBackend),
    }
}

/// Executes `spec` on the backend it selects — the driver's front door.
///
/// # Errors
///
/// Returns [`DriverError::Oracle`] when the oracle spec cannot be built,
/// [`DriverError::InvalidSpec`] for configurations the backend cannot
/// execute, and [`DriverError::Runner`] when the simulator rejects the run.
pub fn run_spec(spec: &RunSpec) -> Result<RunReport, DriverError> {
    run_spec_session(spec, &SessionCtx::default())
}

/// Like [`run_spec`], with a [`SessionCtx`] attached: the observer receives
/// `Started`, periodic `Progress`/`TrajectorySample`, and `Finished` events,
/// and raising the cancel flag ends the run early with
/// `stop: Some("cancelled")`.
///
/// # Errors
///
/// Same conditions as [`run_spec`]. Cancellation is not an error.
pub fn run_spec_session(spec: &RunSpec, ctx: &SessionCtx) -> Result<RunReport, DriverError> {
    validate(spec)?;
    if let Some(obs) = &ctx.observer {
        obs.on_event(&RunEvent::Started {
            backend: spec.backend,
            oracle: spec.oracle.kind.clone(),
            threads: spec.threads,
            iterations: spec.iterations,
            seed: spec.seed,
        });
    }
    // Serving hook + observer: forward each snapshot publication as a typed
    // session event (the listener is invoked from the publishing worker, so
    // observers see publications live, in order of version).
    if let (Some(hook), Some(obs)) = (&ctx.serve, &ctx.observer) {
        let obs = Arc::clone(obs);
        hook.set_listener(Box::new(move |version, iteration| {
            obs.on_event(&RunEvent::SnapshotPublished { version, iteration });
        }));
    }
    let result = backend(spec.backend).run_session(spec, ctx);
    match (&ctx.observer, result) {
        (Some(obs), Ok(report)) => {
            let report = Arc::new(report);
            obs.on_event(&RunEvent::Finished(Arc::clone(&report)));
            // Deep-copied only if the observer kept its `Arc`.
            Ok(Arc::try_unwrap(report).unwrap_or_else(|kept| (*kept).clone()))
        }
        (_, result) => result,
    }
}

/// Like [`run_spec`] restricted to the simulated lock-free backend, but also
/// returning the full engine-level [`asgd_core::runner::LockFreeRun`]
/// (execution report, raw contention records) for experiments that audit
/// more than the summary — e.g. the Lemma 6.2/6.4 contention experiments.
///
/// # Errors
///
/// Same conditions as [`run_spec`].
pub fn run_simulated_lockfree_detailed(
    spec: &RunSpec,
) -> Result<(RunReport, asgd_core::runner::LockFreeRun), DriverError> {
    validate(spec)?;
    SimulatedLockFreeBackend::run_detailed(spec, &SessionCtx::default())
}

fn validate(spec: &RunSpec) -> Result<(), DriverError> {
    if spec.threads == 0 {
        return Err(DriverError::InvalidSpec(
            "at least one thread required".to_string(),
        ));
    }
    if spec.trajectory_stride == Some(0) {
        return Err(DriverError::InvalidSpec(
            "trajectory stride must be at least 1".to_string(),
        ));
    }
    let alpha = spec.step.initial_alpha();
    if !alpha.is_finite() || alpha <= 0.0 {
        return Err(DriverError::InvalidSpec(format!(
            "learning rate must be positive and finite, got {alpha}"
        )));
    }
    // The scheduler only drives the simulated backends; check that its
    // thread references exist there, so misconfigurations surface as errors
    // instead of panics inside the adversary.
    if matches!(
        spec.backend,
        BackendKind::SimulatedLockFree | BackendKind::SimulatedFullSgd
    ) {
        if let crate::spec::SchedulerSpec::StaleGradient { runner, victim, .. } = spec.scheduler {
            if runner == victim {
                return Err(DriverError::InvalidSpec(format!(
                    "stale-gradient scheduler needs distinct threads, got runner = victim = \
                     {runner}"
                )));
            }
            let highest = runner.max(victim);
            if highest >= spec.threads {
                return Err(DriverError::InvalidSpec(format!(
                    "stale-gradient scheduler references thread {highest}, but the spec runs \
                     only {} threads",
                    spec.threads
                )));
            }
        }
    }
    Ok(())
}

/// A session's oracle and its initial point.
type OracleAndX0<'s> = (Arc<dyn GradientOracle>, Cow<'s, [f64]>);

/// Builds the oracle — honouring a [`SessionCtx::oracle`] override — and
/// resolves the initial point, checking dimensions. The point borrows
/// `spec.x0` when the spec sets one: native executors only read it into
/// their store, so it is not copied on the way in.
fn oracle_and_x0<'s>(spec: &'s RunSpec, ctx: &SessionCtx) -> Result<OracleAndX0<'s>, DriverError> {
    let oracle = match &ctx.oracle {
        Some(oracle) => {
            if oracle.dimension() != spec.oracle.dim {
                return Err(DriverError::InvalidSpec(format!(
                    "session oracle override has dimension {}, spec declares {}",
                    oracle.dimension(),
                    spec.oracle.dim
                )));
            }
            Arc::clone(oracle)
        }
        None => spec.oracle.build()?,
    };
    let d = oracle.dimension();
    let x0 = match &spec.x0 {
        Some(x0) if x0.len() != d => {
            return Err(DriverError::InvalidSpec(format!(
                "x0 has dimension {}, oracle `{}` has {d}",
                x0.len(),
                spec.oracle.kind
            )));
        }
        Some(x0) => Cow::Borrowed(x0.as_slice()),
        None => Cow::Owned(vec![0.0; d]),
    };
    Ok((oracle, x0))
}

/// Splits the total iteration budget across Algorithm-2 epochs.
///
/// Epochs share the budget equally; a non-divisible budget is floored, and
/// every epoch backend executes (and reports) the same
/// `per_epoch × epochs` total, so cross-backend head-to-heads stay
/// equal-budget.
fn epoch_split(spec: &RunSpec) -> Result<(u64, usize), DriverError> {
    let epochs = spec.step.halving_epochs() + 1;
    let per_epoch = spec.iterations / epochs as u64;
    if per_epoch == 0 {
        return Err(DriverError::InvalidSpec(format!(
            "iteration budget {} cannot cover {epochs} epochs",
            spec.iterations
        )));
    }
    Ok((per_epoch, epochs))
}

fn stop_label(stop: StopReason) -> String {
    // Every variant maps to a distinct label: cancellation must never be
    // mistaken for a completed run by JSON consumers.
    match stop {
        StopReason::AllDone => "all-done".to_string(),
        StopReason::StepBudgetExhausted => "step-budget-exhausted".to_string(),
        StopReason::Cancelled => "cancelled".to_string(),
    }
}

/// Stop label of a native run: `None` for a normal completion (native
/// executors do not distinguish reasons), `Some("cancelled")` when the
/// session's cancel flag ended it early.
fn native_stop(cancelled: bool) -> Option<String> {
    cancelled.then(|| "cancelled".to_string())
}

struct SequentialBackend;

impl Backend for SequentialBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sequential
    }

    fn run_session(&self, spec: &RunSpec, ctx: &SessionCtx) -> Result<RunReport, DriverError> {
        let alpha = spec.step.constant_alpha(self.kind())?;
        let (oracle, x0) = oracle_and_x0(spec, ctx)?;
        // Thread 0's coin stream of the concurrent backends, so one spec
        // yields bit-identical trajectories here, on the simulated serial
        // schedule, and on single-threaded Hogwild.
        let seed = SeedSequence::new(spec.seed).child_seed(0);
        let hub = hub_for(spec, ctx).map(Arc::new);
        let mut runner = SequentialSgd::new(&oracle)
            .learning_rate(alpha)
            .iterations(spec.iterations)
            .initial_point(x0.into_owned())
            .seed(seed);
        if let Some(eps) = spec.success_radius_sq {
            runner = runner.success_radius_sq(eps);
        }
        if let Some(hub) = &hub {
            let sink = Arc::clone(hub);
            runner = runner.inspect(effective_stride(spec), move |t, dist_sq| {
                sink.observe(t, dist_sq);
            });
        }
        if let Some(flag) = &ctx.cancel {
            runner = runner.stop_flag(Arc::clone(flag));
        }
        let started = Instant::now();
        if let Some(hub) = &hub {
            hub.start_now();
        }
        let report = runner.run();
        let wall = started.elapsed().as_secs_f64();
        Ok(RunReport {
            backend: self.name().to_string(),
            oracle: spec.oracle.kind.clone(),
            threads: spec.threads,
            iterations: report.iterations,
            seed: spec.seed,
            hit_iteration: report.hit_iteration,
            min_dist_sq: Some(report.min_dist_sq),
            final_dist_sq: report.final_dist_sq,
            final_model: report.final_x,
            wall_time_secs: wall,
            steps: None,
            fingerprint: None,
            stop: native_stop(report.cancelled),
            contention: None,
            stale_rejected: None,
            sparse_path: None,
            shards: None,
            trajectory: hub.as_ref().and_then(|h| h.take_trajectory()),
        })
    }
}

struct SimulatedLockFreeBackend;

impl SimulatedLockFreeBackend {
    fn run_detailed(
        spec: &RunSpec,
        ctx: &SessionCtx,
    ) -> Result<(RunReport, asgd_core::runner::LockFreeRun), DriverError> {
        let alpha = spec.step.constant_alpha(BackendKind::SimulatedLockFree)?;
        let (oracle, x0) = oracle_and_x0(spec, ctx)?;
        let hub = hub_for(spec, ctx).map(Arc::new);
        let mut builder = LockFreeSgd::builder(oracle)
            .threads(spec.threads)
            .iterations(spec.iterations)
            .learning_rate(alpha)
            .initial_point(x0.into_owned())
            .scheduler(spec.scheduler.build())
            .seed(spec.seed)
            // The dense op scan is the paper-faithful sequence; sparse ops
            // are an explicit opt-in for the simulator.
            .sparse(matches!(spec.sparse, SparsePathSpec::Sparse));
        if let Some(eps) = spec.success_radius_sq {
            builder = builder.success_radius_sq(eps);
        }
        if let Some(steps) = spec.max_steps {
            builder = builder.max_steps(steps);
        }
        if let Some(hub) = &hub {
            let sink = Arc::clone(hub);
            builder = builder.progress(effective_stride(spec), move |t, dist_sq| {
                sink.observe(t, dist_sq);
            });
        }
        if let Some(flag) = &ctx.cancel {
            builder = builder.stop_flag(Arc::clone(flag));
        }
        let started = Instant::now();
        if let Some(hub) = &hub {
            hub.start_now();
        }
        let run = builder.try_run()?;
        let wall = started.elapsed().as_secs_f64();
        let report = RunReport {
            backend: BackendKind::SimulatedLockFree.name().to_string(),
            oracle: spec.oracle.kind.clone(),
            threads: spec.threads,
            iterations: run.execution.contention.iterations(),
            seed: spec.seed,
            hit_iteration: run.hit_iteration,
            min_dist_sq: spec.success_radius_sq.map(|_| run.min_dist_sq),
            final_dist_sq: run.final_dist_sq,
            final_model: run.final_model.clone(),
            wall_time_secs: wall,
            steps: Some(run.execution.steps),
            fingerprint: Some(run.execution.fingerprint),
            stop: Some(stop_label(run.execution.stop)),
            contention: Some(ContentionSummary::from_report(&run.execution.contention)),
            stale_rejected: None,
            sparse_path: Some(run.used_sparse),
            shards: None,
            trajectory: hub.as_ref().and_then(|h| h.take_trajectory()),
        };
        Ok((report, run))
    }
}

impl Backend for SimulatedLockFreeBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::SimulatedLockFree
    }

    fn run_session(&self, spec: &RunSpec, ctx: &SessionCtx) -> Result<RunReport, DriverError> {
        Self::run_detailed(spec, ctx).map(|(report, _)| report)
    }
}

struct SimulatedFullSgdBackend;

impl Backend for SimulatedFullSgdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::SimulatedFullSgd
    }

    fn run_session(&self, spec: &RunSpec, ctx: &SessionCtx) -> Result<RunReport, DriverError> {
        let (per_epoch, epochs) = epoch_split(spec)?;
        let (oracle, x0) = oracle_and_x0(spec, ctx)?;
        let cfg = FullSgdConfig {
            alpha0: spec.step.initial_alpha(),
            epoch_iterations: per_epoch,
            halving_epochs: epochs - 1,
        };
        let hub = hub_for(spec, ctx).map(Arc::new);
        let session = SimSession {
            stop_flag: ctx.cancel.clone(),
            progress: hub.as_ref().map(|hub| {
                let sink = Arc::clone(hub);
                let f: Box<dyn FnMut(u64, f64)> =
                    Box::new(move |t, dist_sq| sink.observe(t, dist_sq));
                (effective_stride(spec), f)
            }),
        };
        let started = Instant::now();
        if let Some(hub) = &hub {
            hub.start_now();
        }
        let report = run_simulated_session(
            oracle,
            cfg,
            spec.threads,
            &x0,
            spec.scheduler.build(),
            spec.seed,
            spec.max_steps,
            session,
        );
        let wall = started.elapsed().as_secs_f64();
        let cancelled = report.execution.stop == StopReason::Cancelled;
        Ok(RunReport {
            backend: self.name().to_string(),
            oracle: spec.oracle.kind.clone(),
            threads: spec.threads,
            // The claim budget is executed in full unless the run was cut
            // short; then report the ordered iterations actually started.
            iterations: if cancelled {
                report.execution.contention.iterations()
            } else {
                per_epoch * epochs as u64
            },
            seed: spec.seed,
            hit_iteration: None,
            min_dist_sq: None,
            final_dist_sq: report.dist_to_opt * report.dist_to_opt,
            final_model: report.r,
            wall_time_secs: wall,
            steps: Some(report.execution.steps),
            fingerprint: Some(report.execution.fingerprint),
            stop: Some(stop_label(report.execution.stop)),
            contention: Some(ContentionSummary::from_report(&report.execution.contention)),
            stale_rejected: None,
            sparse_path: None,
            shards: None,
            trajectory: hub.as_ref().and_then(|h| h.take_trajectory()),
        })
    }
}

struct HogwildBackend;

impl Backend for HogwildBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Hogwild
    }

    fn run_session(&self, spec: &RunSpec, ctx: &SessionCtx) -> Result<RunReport, DriverError> {
        let alpha = spec.step.constant_alpha(self.kind())?;
        let (oracle, x0) = oracle_and_x0(spec, ctx)?;
        let (report, trajectory) = with_native_control(spec, ctx, |ctrl| {
            Hogwild::new(
                oracle,
                HogwildConfig {
                    threads: spec.threads,
                    iterations: spec.iterations,
                    alpha,
                    seed: spec.seed,
                    success_radius_sq: spec.success_radius_sq,
                },
            )
            .tuning(native_tuning(spec))
            .run_controlled(&x0, ctrl)
        });
        Ok(RunReport {
            backend: self.name().to_string(),
            oracle: spec.oracle.kind.clone(),
            threads: spec.threads,
            iterations: report.iterations,
            seed: spec.seed,
            hit_iteration: report.first_success_claim,
            min_dist_sq: None,
            final_dist_sq: report.final_dist_sq,
            final_model: report.final_model,
            wall_time_secs: report.elapsed.as_secs_f64(),
            steps: None,
            fingerprint: None,
            stop: native_stop(report.cancelled),
            contention: None,
            stale_rejected: None,
            sparse_path: Some(report.used_sparse),
            shards: Some(realized_shards(spec, x0.len())),
            trajectory,
        })
    }
}

struct LockedBackend;

impl Backend for LockedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Locked
    }

    fn run_session(&self, spec: &RunSpec, ctx: &SessionCtx) -> Result<RunReport, DriverError> {
        let alpha = spec.step.constant_alpha(self.kind())?;
        let (oracle, x0) = oracle_and_x0(spec, ctx)?;
        let (report, trajectory) = with_native_control(spec, ctx, |ctrl| {
            LockedSgd::new(oracle, spec.threads, spec.iterations, alpha, spec.seed)
                .tuning(native_tuning(spec))
                .run_controlled(&x0, ctrl)
        });
        Ok(RunReport {
            backend: self.name().to_string(),
            oracle: spec.oracle.kind.clone(),
            threads: spec.threads,
            iterations: report.iterations,
            seed: spec.seed,
            hit_iteration: None,
            min_dist_sq: None,
            final_dist_sq: report.final_dist_sq,
            final_model: report.final_model,
            wall_time_secs: report.elapsed.as_secs_f64(),
            steps: None,
            fingerprint: None,
            stop: native_stop(report.cancelled),
            contention: None,
            stale_rejected: None,
            sparse_path: Some(report.used_sparse),
            // The locked baseline's global mutex serialises every update;
            // arenas would shard nothing, so the knob is ignored here.
            shards: None,
            trajectory,
        })
    }
}

struct GuardedEpochBackend;

impl Backend for GuardedEpochBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::GuardedEpoch
    }

    fn run_session(&self, spec: &RunSpec, ctx: &SessionCtx) -> Result<RunReport, DriverError> {
        // Same floored per-epoch budget as the other epoch backends, so one
        // spec compares equal iteration counts everywhere (the executor
        // itself can distribute remainders, but the driver keeps backends
        // aligned).
        let (per_epoch, epochs) = epoch_split(spec)?;
        let (oracle, x0) = oracle_and_x0(spec, ctx)?;
        let (report, trajectory) = with_native_control(spec, ctx, |ctrl| {
            GuardedEpochSgd::new(
                oracle,
                GuardedEpochSgdConfig {
                    threads: spec.threads,
                    iterations: per_epoch * epochs as u64,
                    alpha0: spec.step.initial_alpha(),
                    halving_epochs: spec.step.halving_epochs(),
                    seed: spec.seed,
                    success_radius_sq: spec.success_radius_sq,
                },
            )
            .tuning(native_tuning(spec))
            .run_controlled(&x0, ctrl)
        });
        Ok(RunReport {
            backend: self.name().to_string(),
            oracle: spec.oracle.kind.clone(),
            threads: spec.threads,
            iterations: report.iterations,
            seed: spec.seed,
            hit_iteration: report.first_success_claim,
            min_dist_sq: None,
            final_dist_sq: report.final_dist_sq,
            final_model: report.final_model,
            wall_time_secs: report.elapsed.as_secs_f64(),
            steps: None,
            fingerprint: None,
            stop: native_stop(report.cancelled),
            contention: None,
            stale_rejected: Some(report.stale_rejected),
            sparse_path: Some(report.used_sparse),
            shards: Some(realized_shards(spec, x0.len())),
            trajectory,
        })
    }
}

struct NativeFullSgdBackend;

impl Backend for NativeFullSgdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::NativeFullSgd
    }

    fn run_session(&self, spec: &RunSpec, ctx: &SessionCtx) -> Result<RunReport, DriverError> {
        let (per_epoch, epochs) = epoch_split(spec)?;
        let (oracle, x0) = oracle_and_x0(spec, ctx)?;
        let (report, trajectory) = with_native_control(spec, ctx, |ctrl| {
            NativeFullSgd::new(
                oracle,
                NativeFullSgdConfig {
                    alpha0: spec.step.initial_alpha(),
                    epoch_iterations: per_epoch,
                    halving_epochs: epochs - 1,
                    threads: spec.threads,
                    seed: spec.seed,
                },
            )
            .tuning(native_tuning(spec))
            .run_controlled(&x0, ctrl)
        });
        Ok(RunReport {
            backend: self.name().to_string(),
            oracle: spec.oracle.kind.clone(),
            threads: spec.threads,
            iterations: report.iterations,
            seed: spec.seed,
            hit_iteration: None,
            min_dist_sq: None,
            final_dist_sq: report.dist_to_opt * report.dist_to_opt,
            final_model: report.r,
            wall_time_secs: report.elapsed.as_secs_f64(),
            steps: None,
            fingerprint: None,
            stop: native_stop(report.cancelled),
            contention: None,
            stale_rejected: None,
            sparse_path: Some(report.used_sparse),
            shards: Some(realized_shards(spec, x0.len())),
            trajectory,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SchedulerSpec, StepSize};
    use asgd_oracle::OracleSpec;

    fn base_spec() -> RunSpec {
        RunSpec::new(
            OracleSpec::new("noisy-quadratic", 2).sigma(0.1),
            BackendKind::SimulatedLockFree,
        )
        .threads(2)
        .iterations(400)
        .learning_rate(0.05)
        .x0(vec![1.0, -1.0])
        .success_radius_sq(0.05)
        .seed(11)
        .scheduler(SchedulerSpec::Random { seed: 3 })
    }

    #[test]
    fn every_backend_reports_its_kind() {
        for &kind in BackendKind::all() {
            assert_eq!(backend(kind).kind(), kind);
            assert_eq!(backend(kind).name(), kind.name());
        }
    }

    #[test]
    fn validation_rejects_broken_specs() {
        let spec = base_spec().threads(0);
        assert!(matches!(run_spec(&spec), Err(DriverError::InvalidSpec(_))));
        let mut spec = base_spec();
        spec.step = StepSize::Constant { alpha: -0.5 };
        assert!(matches!(run_spec(&spec), Err(DriverError::InvalidSpec(_))));
        let spec = base_spec().x0(vec![1.0]);
        assert!(matches!(run_spec(&spec), Err(DriverError::InvalidSpec(_))));
        let mut spec = base_spec();
        spec.oracle.kind = "no-such-oracle".to_string();
        assert!(matches!(run_spec(&spec), Err(DriverError::Oracle(_))));
    }

    #[test]
    fn halving_schedule_is_rejected_on_constant_backends() {
        for kind in [
            BackendKind::Sequential,
            BackendKind::SimulatedLockFree,
            BackendKind::Hogwild,
            BackendKind::Locked,
        ] {
            let spec = base_spec().backend(kind).halving(0.1, 2);
            assert!(
                matches!(run_spec(&spec), Err(DriverError::InvalidSpec(_))),
                "{kind} must reject halving schedules"
            );
        }
    }

    #[test]
    fn epoch_backends_need_budget_for_every_epoch() {
        for kind in [
            BackendKind::SimulatedFullSgd,
            BackendKind::NativeFullSgd,
            BackendKind::GuardedEpoch,
        ] {
            let spec = base_spec().backend(kind).halving(0.1, 7).iterations(4);
            assert!(
                matches!(run_spec(&spec), Err(DriverError::InvalidSpec(_))),
                "{kind} must reject budget 4 over 8 epochs"
            );
        }
    }

    #[test]
    fn stale_scheduler_thread_references_are_validated() {
        // A stale-gradient adversary naming a thread the spec does not run
        // must be an error, not an index-out-of-bounds panic in the
        // scheduler.
        let spec = base_spec()
            .threads(1)
            .scheduler(SchedulerSpec::StaleGradient {
                runner: 0,
                victim: 1,
                delay: 4,
            });
        assert!(matches!(run_spec(&spec), Err(DriverError::InvalidSpec(_))));
        let spec = base_spec().scheduler(SchedulerSpec::StaleGradient {
            runner: 1,
            victim: 1,
            delay: 4,
        });
        assert!(matches!(run_spec(&spec), Err(DriverError::InvalidSpec(_))));
        // Native backends ignore the scheduler; the same spec runs there.
        let spec = base_spec()
            .backend(BackendKind::Hogwild)
            .threads(1)
            .scheduler(SchedulerSpec::StaleGradient {
                runner: 0,
                victim: 1,
                delay: 4,
            });
        assert!(run_spec(&spec).is_ok());
    }

    #[test]
    fn epoch_backends_execute_identical_floored_budgets() {
        // 100 iterations over 3 epochs floors to 33 × 3 = 99 on *every*
        // epoch backend — cross-backend head-to-heads stay equal-budget.
        let spec = base_spec().halving(0.1, 2).iterations(100);
        for kind in [
            BackendKind::SimulatedFullSgd,
            BackendKind::NativeFullSgd,
            BackendKind::GuardedEpoch,
        ] {
            let report = run_spec(&spec.clone().backend(kind)).unwrap();
            assert_eq!(report.iterations, 99, "{kind}");
        }
    }

    #[test]
    fn sparse_knob_reaches_every_concurrent_backend() {
        use crate::spec::SparsePathSpec;
        let base = RunSpec::new(
            OracleSpec::new("sparse-quadratic", 16).sigma(0.0),
            BackendKind::Hogwild,
        )
        .threads(2)
        .iterations(600)
        .learning_rate(0.01)
        .x0(vec![1.0; 16])
        .seed(5);
        // Constant-step native backends + the simulator honour the forced
        // paths and report which one ran.
        for kind in [
            BackendKind::Hogwild,
            BackendKind::Locked,
            BackendKind::SimulatedLockFree,
        ] {
            let dense = run_spec(&base.clone().backend(kind).sparse(SparsePathSpec::Dense))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(dense.sparse_path, Some(false), "{kind}");
            let sparse = run_spec(&base.clone().backend(kind).sparse(SparsePathSpec::Sparse))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(sparse.sparse_path, Some(true), "{kind}");
        }
        for kind in [BackendKind::GuardedEpoch, BackendKind::NativeFullSgd] {
            let report = run_spec(&base.clone().backend(kind).sparse(SparsePathSpec::Sparse))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(report.sparse_path, Some(true), "{kind}");
        }
        // Sequential has no dense/sparse distinction.
        let seq = run_spec(&base.clone().backend(BackendKind::Sequential)).unwrap();
        assert_eq!(seq.sparse_path, None);
    }

    #[test]
    fn shards_knob_reaches_sharding_backends_and_reports_the_realized_count() {
        use crate::spec::{PinSpec, ShardsSpec};
        let base = RunSpec::new(
            OracleSpec::new("noisy-quadratic", 8).sigma(0.0),
            BackendKind::Hogwild,
        )
        .threads(2)
        .iterations(200)
        .learning_rate(0.05)
        .x0(vec![1.0; 8])
        .seed(5);
        for kind in [BackendKind::Hogwild, BackendKind::NativeFullSgd] {
            let spec = match kind {
                BackendKind::NativeFullSgd => base.clone().backend(kind).halving(0.05, 1),
                _ => base.clone().backend(kind),
            };
            let flat = run_spec(&spec).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(flat.shards, Some(1), "{kind}: one shard by default");
            let sharded = run_spec(&spec.shards(ShardsSpec::Fixed(4)).pin(PinSpec::On))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(sharded.shards, Some(4), "{kind}");
        }
        // The guarded backend shards its packed-word store the same way —
        // and the report carries the *realised* count: Fixed(3) at d = 8
        // rounds the chunk ceil(8/3) = 3 up to 4, so 2 shards actually run.
        let guarded = run_spec(
            &base
                .clone()
                .backend(BackendKind::GuardedEpoch)
                .halving(0.05, 1)
                .shards(ShardsSpec::Fixed(3)),
        )
        .unwrap();
        assert_eq!(guarded.shards, Some(2));
        // The locked baseline serialises on a global mutex: knob ignored.
        let locked = run_spec(
            &base
                .clone()
                .backend(BackendKind::Locked)
                .shards(ShardsSpec::Fixed(4)),
        )
        .unwrap();
        assert_eq!(locked.shards, None);
        // Fixed counts clamp to the dimension, and the report shows the
        // clamped (realised) count, not the request.
        let clamped = run_spec(&base.clone().shards(ShardsSpec::Fixed(1000))).unwrap();
        assert_eq!(clamped.shards, Some(8));
    }

    #[test]
    fn detailed_run_matches_summary() {
        let spec = base_spec();
        let (mut report, run) = run_simulated_lockfree_detailed(&spec).unwrap();
        assert_eq!(report.fingerprint, Some(run.execution.fingerprint));
        assert_eq!(
            report.contention.as_ref().unwrap().tau_max,
            run.execution.contention.tau_max()
        );
        let mut again = run_spec(&spec).unwrap();
        // Wall time is the one non-deterministic field.
        report.wall_time_secs = 0.0;
        again.wall_time_secs = 0.0;
        assert_eq!(again, report, "deterministic backend");
    }
}
