//! Empirical theory validation: the paper's formulas as an executable check.
//!
//! The theory crate computes what the paper *promises* — learning rates
//! (Eq. 12), horizons (Corollary 6.7), epoch budgets (Corollary 7.1) — and
//! the driver measures what the backends *do*. This module closes the loop:
//! a [`ValidationPlan`] derives, for every `(backend, n, ε)` grid cell,
//!
//! 1. a step size `α` from the **Eq. 12** rate (or a caller override),
//!    checked against the Lemma 6.6 stability condition through
//!    [`RateSupermartingale::try_new`] — an unstable rate surfaces as
//!    [`DriverError::InvalidSpec`], never as a panic inside a worker thread;
//! 2. a horizon `T` from **Corollary 6.7** (`bounds::corollary_6_7_horizon`
//!    at the plan's failure-probability target) and, for the Algorithm 2
//!    backends, a halving-epoch budget from **Corollary 7.1**
//!    (`corollary_7_1::{epoch_count, total_iterations}` with `T` per epoch);
//! 3. the predicted failure-probability bound for that configuration.
//!    Eq. 13 is a statement about the Eq. 12 rate specifically, so an
//!    *overridden* `α` is instead judged through **Theorem 6.5** — horizon
//!    and bound from `E[W₀]/((1 − α²HLMC√d)·T)` with `H`, `E[W₀]` taken
//!    from the Lemma 6.6 supermartingale at that `α` (preconditions that
//!    fail at the override are errors, not silent vacuous cells);
//!
//! materialises one [`RunSpec`] per trial seed, executes them on the
//! session driver's bounded pool ([`Driver::run_many`]), and aggregates the
//! measured failure frequency into a Wilson 95% interval
//! ([`ProbabilityEstimate`]). The per-cell verdict is
//! [`ProbabilityEstimate::consistent_with_upper_bound`]: a valid upper
//! bound must not sit below the measurement's lower confidence limit.
//!
//! Two criteria cover the seven backends:
//!
//! * **hitting** (`sequential`, `simulated-lockfree`, `hogwild`,
//!   `guarded-epoch`): the failure event is `F_T` — the run never enters
//!   the success region `S = {‖x − x*‖² ≤ ε}` within `T` iterations — and
//!   the bound is Eq. 13 evaluated at the derived horizon. Native backends
//!   report their observable proxy (first claim whose freshly read view
//!   qualified); the simulated lock-free backend runs under the
//!   bounded-delay adversary at the plan's `τ_max`, so the bound's
//!   contention premise is actually exercised.
//! * **terminal** (`simulated-fullsgd`, `native-fullsgd`): Corollary 7.1
//!   guarantees `E‖r − x*‖ ≤ √ε` after the derived epochs, so by Markov's
//!   inequality `P(‖r − x*‖ > 2√ε) ≤ ½` — the failure event is
//!   `‖r − x*‖² > 4ε` and the bound is [`TERMINAL_FAILURE_BOUND`].
//!
//! The `locked` backend has no hitting-time instrumentation and is
//! rejected with an error rather than silently producing a vacuous cell.
//!
//! The resulting [`ValidationReport`] serialises to JSON with the same
//! exact-round-trip contract as [`RunReport`](crate::RunReport) — the
//! committed `BENCH_validation.json` is one of these.
//!
//! ```
//! use asgd_driver::{validate, ValidationPlan, ValidationReport};
//! use asgd_driver::BackendKind;
//! use asgd_oracle::OracleSpec;
//!
//! let plan = ValidationPlan::new(OracleSpec::new("noisy-quadratic", 2).sigma(0.5))
//!     .backends(vec![BackendKind::Sequential])
//!     .thread_counts(vec![2])
//!     .eps_grid(vec![0.04])
//!     .trials(4);
//! let report = validate(&plan).expect("valid plan");
//! assert!(report.all_consistent());
//! assert_eq!(ValidationReport::from_json(&report.to_json()).unwrap(), report);
//! ```

use crate::error::DriverError;
use crate::json::DecodeError;
use crate::session::Driver;
use crate::spec::{BackendKind, RunSpec, SchedulerSpec};
use asgd_math::rng::SeedSequence;
use asgd_math::WilsonInterval;
use asgd_metrics::ProbabilityEstimate;
use asgd_oracle::OracleSpec;
use asgd_theory::martingale::RateSupermartingale;
use asgd_theory::{bounds, corollary_7_1};

/// The Markov bound on the terminal-criterion failure probability: from
/// Corollary 7.1's `E‖r − x*‖ ≤ √ε`, `P(‖r − x*‖ > 2√ε) ≤ ½`.
pub const TERMINAL_FAILURE_BOUND: f64 = 0.5;

/// Squared-distance factor of the terminal failure event: failure iff
/// `‖r − x*‖² > 4ε`, i.e. the final model missed `2√ε`.
pub const TERMINAL_DIST_SQ_FACTOR: f64 = 4.0;

/// Which theorem-to-measurement comparison a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationCriterion {
    /// `P(F_T)` — never hitting `S` within the Corollary 6.7 horizon —
    /// against the Eq. 13 bound.
    Hitting,
    /// `P(‖r − x*‖² > 4ε)` after the Corollary 7.1 epoch budget against the
    /// Markov bound [`TERMINAL_FAILURE_BOUND`].
    Terminal,
}

impl ValidationCriterion {
    /// Canonical JSON/CLI name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Hitting => "hitting",
            Self::Terminal => "terminal",
        }
    }

    fn from_label(label: &str) -> Option<Self> {
        match label {
            "hitting" => Some(Self::Hitting),
            "terminal" => Some(Self::Terminal),
            _ => None,
        }
    }

    /// The criterion validating `backend`, or an error for backends without
    /// the required instrumentation.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::InvalidSpec`] for [`BackendKind::Locked`],
    /// which reports no hitting time.
    pub fn for_backend(backend: BackendKind) -> Result<Self, DriverError> {
        match backend {
            BackendKind::Sequential
            | BackendKind::SimulatedLockFree
            | BackendKind::Hogwild
            | BackendKind::GuardedEpoch => Ok(Self::Hitting),
            BackendKind::SimulatedFullSgd | BackendKind::NativeFullSgd => Ok(Self::Terminal),
            BackendKind::Locked => Err(DriverError::InvalidSpec(
                "backend `locked` has no hitting-time instrumentation; validation covers the \
                 other six backends"
                    .to_string(),
            )),
        }
    }
}

impl std::fmt::Display for ValidationCriterion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The backends [`ValidationPlan`] covers by default: every backend with a
/// theorem-matched measurement (all but `locked`).
#[must_use]
pub fn default_backends() -> Vec<BackendKind> {
    BackendKind::all()
        .iter()
        .copied()
        .filter(|&k| k != BackendKind::Locked)
        .collect()
}

/// A backend × n × ε validation grid over one workload.
///
/// Build with [`ValidationPlan::new`] and the chained setters, then execute
/// with [`validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationPlan {
    /// Workload, by name through the oracle registry.
    pub oracle: OracleSpec,
    /// Backends to validate (default: [`default_backends`]).
    pub backends: Vec<BackendKind>,
    /// Thread counts `n` to sweep.
    pub thread_counts: Vec<usize>,
    /// Success thresholds `ε` (on `‖x − x*‖²`) to sweep.
    pub eps_grid: Vec<f64>,
    /// Assumed maximum interval contention `τ_max` — the bound's premise.
    /// Simulated lock-free cells enforce it with the bounded-delay
    /// adversary; native cells assume the OS stays below it.
    pub tau_max: u64,
    /// The `ϑ ∈ (0, 1]` slack of the Eq. 12 learning rate.
    pub theta: f64,
    /// Failure-probability target the derived horizon must reach. Terminal
    /// (Algorithm 2) cells clamp their per-epoch target to at most ½ —
    /// Corollary 7.1's premise needs every epoch to succeed w.p. ≥ ½
    /// regardless of how loose a hitting target the plan asks for.
    pub target: f64,
    /// Radius (around `x*`) at which the oracle's `(c, L, M²)` constants are
    /// taken.
    pub radius: f64,
    /// Step-size override. `None` derives the Eq. 12 rate and compares
    /// against the Eq. 13 bound; `Some(α)` is judged through Theorem 6.5 at
    /// that `α` instead (Eq. 13 only covers the Eq. 12 rate). Either way
    /// the Lemma 6.6 stability condition is enforced through
    /// [`RateSupermartingale::try_new`].
    pub alpha_override: Option<f64>,
    /// Independent seeded trials per cell.
    pub trials: u64,
    /// Master seed; every cell and trial derives its own child seed.
    pub seed: u64,
    /// Pool width for [`Driver::run_many`] (`None`: one per core).
    pub workers: Option<usize>,
}

impl ValidationPlan {
    /// A plan with the defaults the committed `BENCH_validation.json` grid
    /// uses: all validatable backends, `n ∈ {1, 2, 4}`, `ε ∈ {0.04, 0.01}`,
    /// `τ_max = 8`, `ϑ = 1`, target `½`, radius 2, 40 trials.
    #[must_use]
    pub fn new(oracle: OracleSpec) -> Self {
        Self {
            oracle,
            backends: default_backends(),
            thread_counts: vec![1, 2, 4],
            eps_grid: vec![0.04, 0.01],
            tau_max: 8,
            theta: 1.0,
            target: 0.5,
            radius: 2.0,
            alpha_override: None,
            trials: 40,
            seed: 0x7A11_DA7E,
            workers: None,
        }
    }

    /// Selects the backends to validate.
    #[must_use]
    pub fn backends(mut self, backends: Vec<BackendKind>) -> Self {
        self.backends = backends;
        self
    }

    /// Selects the thread counts to sweep.
    #[must_use]
    pub fn thread_counts(mut self, thread_counts: Vec<usize>) -> Self {
        self.thread_counts = thread_counts;
        self
    }

    /// Selects the `ε` grid.
    #[must_use]
    pub fn eps_grid(mut self, eps_grid: Vec<f64>) -> Self {
        self.eps_grid = eps_grid;
        self
    }

    /// Sets the assumed `τ_max`.
    #[must_use]
    pub fn tau_max(mut self, tau_max: u64) -> Self {
        self.tau_max = tau_max;
        self
    }

    /// Sets the Eq. 12 slack `ϑ`.
    #[must_use]
    pub fn theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Sets the failure-probability target for the derived horizon.
    #[must_use]
    pub fn target(mut self, target: f64) -> Self {
        self.target = target;
        self
    }

    /// Sets the constants radius.
    #[must_use]
    pub fn radius(mut self, radius: f64) -> Self {
        self.radius = radius;
        self
    }

    /// Overrides the step size (still stability-checked).
    #[must_use]
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha_override = Some(alpha);
        self
    }

    /// Sets the trials per cell.
    #[must_use]
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the pool width.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Rejects plans whose parameters would panic inside the theory
    /// formulas (which assert their domains) instead of erroring.
    fn check(&self) -> Result<(), DriverError> {
        let invalid = |msg: String| Err(DriverError::InvalidSpec(msg));
        if self.backends.is_empty() {
            return invalid("validation needs at least one backend".into());
        }
        if self.thread_counts.is_empty() || self.thread_counts.contains(&0) {
            return invalid("thread counts must be non-empty and positive".into());
        }
        if self.eps_grid.is_empty() {
            return invalid("eps grid must be non-empty".into());
        }
        for &eps in &self.eps_grid {
            if !eps.is_finite() || eps <= 0.0 {
                return invalid(format!("eps must be positive and finite, got {eps}"));
            }
        }
        if !self.theta.is_finite() || self.theta <= 0.0 || self.theta > 1.0 {
            return invalid(format!("theta must be in (0, 1], got {}", self.theta));
        }
        if !self.target.is_finite() || self.target <= 0.0 || self.target >= 1.0 {
            return invalid(format!("target must be in (0, 1), got {}", self.target));
        }
        if !self.radius.is_finite() || self.radius <= 0.0 {
            return invalid(format!("radius must be positive, got {}", self.radius));
        }
        if let Some(alpha) = self.alpha_override {
            if !alpha.is_finite() || alpha <= 0.0 {
                return invalid(format!(
                    "step-size override must be positive and finite, got {alpha}"
                ));
            }
        }
        if self.trials == 0 {
            return invalid("at least one trial per cell required".into());
        }
        Ok(())
    }
}

/// Everything the theory derives for one grid cell before any run executes.
#[derive(Debug, Clone, Copy)]
struct CellDerivation {
    criterion: ValidationCriterion,
    alpha: f64,
    horizon: u64,
    halving_epochs: Option<u64>,
    total_iterations: u64,
    bound: f64,
}

/// One `(backend, n, ε)` cell of a [`ValidationReport`]: the derived
/// configuration, the measured failure estimate, and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationCell {
    /// Backend name (see [`BackendKind::name`]).
    pub backend: String,
    /// Which comparison ran (`"hitting"` or `"terminal"`).
    pub criterion: String,
    /// Thread count `n`.
    pub threads: usize,
    /// Success threshold `ε` on `‖x − x*‖²`.
    pub eps: f64,
    /// Assumed maximum interval contention.
    pub tau_max: u64,
    /// Step size actually run (Eq. 12 unless overridden).
    pub alpha: f64,
    /// Corollary 6.7 horizon `T` (per epoch for the terminal criterion).
    pub horizon: u64,
    /// Corollary 7.1 halving epochs (terminal criterion only).
    pub halving_epochs: Option<u64>,
    /// Total iteration budget each trial executed.
    pub total_iterations: u64,
    /// Independent trials run.
    pub trials: u64,
    /// Trials in which the failure event occurred.
    pub failures: u64,
    /// Point estimate `failures / trials`.
    pub measured: f64,
    /// Lower end of the Wilson 95% interval on the failure probability.
    pub ci_lower: f64,
    /// Upper end of the Wilson 95% interval.
    pub ci_upper: f64,
    /// The theory's upper bound on the failure probability (unclamped; may
    /// exceed 1, in which case it is vacuous but still valid).
    pub bound: f64,
    /// The verdict: the bound does not sit below the measured lower
    /// confidence limit.
    pub consistent_with_upper_bound: bool,
}

impl ValidationCell {
    /// Reconstructs the measurement as a [`ProbabilityEstimate`].
    ///
    /// # Panics
    ///
    /// Panics if the cell records zero trials (never produced by
    /// [`validate`]).
    #[must_use]
    pub fn estimate(&self) -> ProbabilityEstimate {
        ProbabilityEstimate {
            occurrences: self.failures,
            trials: self.trials,
            interval: WilsonInterval::ci95(self.failures, self.trials),
        }
    }

    /// Rejects a `criterion` label no [`ValidationCriterion`] carries.
    fn check_criterion(&self) -> Result<(), DecodeError> {
        ValidationCriterion::from_label(&self.criterion)
            .map(|_| ())
            .ok_or(DecodeError::field(
                "criterion",
                "expected `hitting` or `terminal`",
            ))
    }
}

crate::json_record! {
    ValidationCell {
        backend,
        criterion,
        threads,
        eps,
        tau_max,
        alpha,
        horizon,
        halving_epochs,
        total_iterations,
        trials,
        failures,
        measured,
        ci_lower,
        ci_upper,
        bound,
        consistent_with_upper_bound,
    }
    check ValidationCell::check_criterion
}

/// The outcome of [`validate`]: the full grid with per-cell verdicts.
/// Serialises to JSON with the exact-round-trip contract of
/// [`RunReport`](crate::RunReport).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Oracle kind the grid ran.
    pub oracle: String,
    /// Model dimension `d`.
    pub dim: usize,
    /// Oracle noise level σ.
    pub sigma: f64,
    /// The Eq. 12 slack `ϑ` used for every cell.
    pub theta: f64,
    /// Failure-probability target the horizons were derived for.
    pub target: f64,
    /// Constants radius.
    pub radius: f64,
    /// `‖x₀ − x*‖²` every trial started from.
    pub x0_dist_sq: f64,
    /// Trials per cell.
    pub trials: u64,
    /// Master seed of the sweep.
    pub seed: u64,
    /// The grid, in backend × n × ε order.
    pub cells: Vec<ValidationCell>,
}

impl ValidationReport {
    /// True if every cell's measurement is consistent with its bound — the
    /// headline verdict.
    #[must_use]
    pub fn all_consistent(&self) -> bool {
        self.cells.iter().all(|c| c.consistent_with_upper_bound)
    }
}

// `all_consistent` is written for readers of the artifact and recomputed
// from the cells on read.
crate::json_record! {
    ValidationReport {
        oracle,
        dim,
        sigma,
        theta,
        target,
        radius,
        x0_dist_sq,
        trials,
        seed,
        cells,
    }
    derived { all_consistent: ValidationReport::all_consistent }
}

/// Derives the cell configuration from the theory crate — no run executes
/// here, so every failure is a recoverable [`DriverError`].
fn derive_cell(
    plan: &ValidationPlan,
    consts: &asgd_oracle::Constants,
    d: usize,
    x0_dist_sq: f64,
    backend: BackendKind,
    n: usize,
    eps: f64,
) -> Result<CellDerivation, DriverError> {
    let criterion = ValidationCriterion::for_backend(backend)?;
    let alpha = plan.alpha_override.unwrap_or_else(|| {
        bounds::corollary_6_7_learning_rate(consts, eps, plan.tau_max, n, d, plan.theta)
    });
    // Satellite contract: the Lemma 6.6 stability gate runs here, on the
    // planning thread, through try_new — `RateSupermartingale::new`'s panic
    // can never fire inside a pooled worker.
    let mart = RateSupermartingale::try_new(alpha, consts, eps)?;
    // The Eq. 13 bound (and the horizon inverting it) is a statement about
    // the Eq. 12 learning rate specifically. An overridden α therefore goes
    // through the theorem Eq. 13 instantiates — Theorem 6.5, whose bound
    // E[W₀]/((1 − α²HLMC√d)·T) holds for *any* stable step size, with H and
    // E[W₀] from the Lemma 6.6 supermartingale at that α. Judging an
    // arbitrary α against the Eq. 12-rate bound would produce false
    // verdicts in both directions (a slower stable α misses the Eq. 12
    // horizon; a faster one makes the check vacuous).
    let horizon_and_bound = |target: f64| -> Result<(u64, f64), DriverError> {
        match plan.alpha_override {
            None => {
                let horizon = bounds::corollary_6_7_horizon(
                    consts,
                    eps,
                    plan.tau_max,
                    n,
                    d,
                    plan.theta,
                    target,
                    x0_dist_sq,
                );
                let bound = bounds::corollary_6_7(
                    consts,
                    eps,
                    plan.tau_max,
                    n,
                    d,
                    plan.theta,
                    horizon,
                    x0_dist_sq,
                );
                Ok((horizon, bound))
            }
            Some(_) => {
                let h = mart.lipschitz_h();
                let pre = bounds::theorem_6_5_precondition(alpha, h, consts, plan.tau_max, n, d);
                if pre >= 1.0 {
                    return Err(DriverError::InvalidSpec(format!(
                        "step-size override {alpha} fails the Theorem 6.5 precondition \
                         α²HLMC√d < 1 (got {pre}) at n = {n}, eps = {eps}; no bound applies — \
                         use a smaller alpha"
                    )));
                }
                let e_w0 = mart.w0_upper_bound(x0_dist_sq);
                // Smallest T with E[W₀]/((1 − pre)·T) ≤ target; saturating
                // cast as in `corollary_6_7_horizon`.
                let horizon = (e_w0 / ((1.0 - pre) * target)).ceil().max(1.0) as u64;
                let bound =
                    bounds::theorem_6_5(e_w0, alpha, h, consts, plan.tau_max, n, d, horizon);
                Ok((horizon, bound))
            }
        }
    };
    let (horizon, halving_epochs, total_iterations, bound) = match criterion {
        ValidationCriterion::Hitting => {
            let (horizon, bound) = horizon_and_bound(plan.target)?;
            (horizon, None, horizon, bound)
        }
        ValidationCriterion::Terminal => {
            // Corollary 7.1's E‖r − x*‖ ≤ √ε (and so the Markov ½ bound)
            // needs every epoch to succeed w.p. ≥ ½ — a plan target looser
            // than ½ would silently break the premise and manufacture false
            // inconsistencies, so the per-epoch horizon is derived at the
            // tighter of the two.
            let per_epoch_target = plan.target.min(TERMINAL_FAILURE_BOUND);
            let (horizon, _) = horizon_and_bound(per_epoch_target)?;
            let halving = corollary_7_1::epoch_count(alpha, consts, n, eps);
            let total = corollary_7_1::total_iterations(horizon, halving);
            (horizon, Some(halving as u64), total, TERMINAL_FAILURE_BOUND)
        }
    };
    if total_iterations == u64::MAX {
        return Err(DriverError::InvalidSpec(format!(
            "derived iteration budget for backend `{backend}` at n = {n}, eps = {eps} saturates \
             u64 — the configuration is not runnable; relax eps/target or override alpha"
        )));
    }
    Ok(CellDerivation {
        criterion,
        alpha,
        horizon,
        halving_epochs,
        total_iterations,
        bound,
    })
}

/// Materialises the spec for one trial of a cell.
fn trial_spec(
    plan: &ValidationPlan,
    der: &CellDerivation,
    backend: BackendKind,
    n: usize,
    eps: f64,
    x0: &[f64],
    seed: u64,
) -> RunSpec {
    let mut spec = RunSpec::new(plan.oracle.clone(), backend)
        .threads(n)
        .iterations(der.total_iterations)
        .x0(x0.to_vec())
        .seed(seed);
    spec = match der.criterion {
        ValidationCriterion::Hitting => spec.learning_rate(der.alpha).success_radius_sq(eps),
        ValidationCriterion::Terminal => spec.halving(
            der.alpha,
            der.halving_epochs.expect("terminal cells derive epochs") as usize,
        ),
    };
    match backend {
        // Exercise the bound's τ_max premise with the adversary that
        // manufactures exactly that much interval contention.
        BackendKind::SimulatedLockFree => {
            spec = spec.scheduler(SchedulerSpec::BoundedDelay {
                budget: plan.tau_max,
            });
        }
        // Vary the interleaving across trials (the c71 experiment's setup).
        BackendKind::SimulatedFullSgd => {
            spec = spec.scheduler(SchedulerSpec::Random {
                seed: seed ^ 0x5EED,
            });
        }
        _ => {}
    }
    spec
}

/// True if this report realises the cell's failure event.
fn is_failure(criterion: ValidationCriterion, eps: f64, report: &crate::RunReport) -> bool {
    match criterion {
        ValidationCriterion::Hitting => report.hit_iteration.is_none(),
        ValidationCriterion::Terminal => report.final_dist_sq > TERMINAL_DIST_SQ_FACTOR * eps,
    }
}

/// Executes a [`ValidationPlan`]: derive → materialise → run → aggregate.
///
/// Trials run on the session driver's bounded pool; every cell and trial
/// draws its own child seed from the plan's master seed, so the sweep is
/// reproducible wherever the backends are deterministic.
///
/// # Errors
///
/// Returns [`DriverError::InvalidSpec`] for unrunnable plans (empty grids,
/// out-of-domain parameters, an unstable step size, a backend without the
/// required instrumentation), [`DriverError::Oracle`] when the workload
/// cannot be built, and whatever [`crate::run_spec`] returns if a
/// materialised trial fails.
pub fn validate(plan: &ValidationPlan) -> Result<ValidationReport, DriverError> {
    plan.check()?;
    let oracle = plan.oracle.build()?;
    let d = oracle.dimension();
    let consts = oracle.constants(plan.radius);
    // Start every trial at distance ~1 from the optimum, spread evenly over
    // the coordinates (works for any registry oracle: the offset is applied
    // to the oracle's own minimizer).
    let offset = 1.0 / (d as f64).sqrt();
    let x0: Vec<f64> = oracle.minimizer().iter().map(|m| m + offset).collect();
    let x0_dist_sq = asgd_math::vec::l2_dist_sq(&x0, oracle.minimizer());
    let driver = plan
        .workers
        .map_or_else(Driver::new, |w| Driver::new().workers(w));
    let mut cells = Vec::new();
    let seq = SeedSequence::new(plan.seed);
    let mut cell_index = 0_u64;
    for &backend in &plan.backends {
        for &n in &plan.thread_counts {
            for &eps in &plan.eps_grid {
                let der = derive_cell(plan, &consts, d, x0_dist_sq, backend, n, eps)?;
                let cell_seeds = seq.subsequence(cell_index);
                cell_index += 1;
                let specs: Vec<RunSpec> = (0..plan.trials)
                    .map(|i| trial_spec(plan, &der, backend, n, eps, &x0, cell_seeds.child_seed(i)))
                    .collect();
                let mut failures = 0_u64;
                for outcome in driver.run_many(&specs) {
                    if is_failure(der.criterion, eps, &outcome?) {
                        failures += 1;
                    }
                }
                let interval = WilsonInterval::ci95(failures, plan.trials);
                let estimate = ProbabilityEstimate {
                    occurrences: failures,
                    trials: plan.trials,
                    interval,
                };
                cells.push(ValidationCell {
                    backend: backend.name().to_string(),
                    criterion: der.criterion.label().to_string(),
                    threads: n,
                    eps,
                    tau_max: plan.tau_max,
                    alpha: der.alpha,
                    horizon: der.horizon,
                    halving_epochs: der.halving_epochs,
                    total_iterations: der.total_iterations,
                    trials: plan.trials,
                    failures,
                    measured: estimate.estimate(),
                    ci_lower: interval.lower,
                    ci_upper: interval.upper,
                    bound: der.bound,
                    consistent_with_upper_bound: estimate.consistent_with_upper_bound(der.bound),
                });
            }
        }
    }
    Ok(ValidationReport {
        oracle: plan.oracle.kind.clone(),
        dim: d,
        sigma: plan.oracle.sigma,
        theta: plan.theta,
        target: plan.target,
        radius: plan.radius,
        x0_dist_sq,
        trials: plan.trials,
        seed: plan.seed,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_plan() -> ValidationPlan {
        ValidationPlan::new(OracleSpec::new("noisy-quadratic", 2).sigma(0.5))
            .backends(vec![
                BackendKind::Sequential,
                BackendKind::SimulatedLockFree,
            ])
            .thread_counts(vec![2])
            .eps_grid(vec![0.04])
            .trials(4)
            .workers(2)
    }

    fn sample_report() -> ValidationReport {
        ValidationReport {
            oracle: "noisy-quadratic".to_string(),
            dim: 2,
            sigma: 0.5,
            theta: 1.0,
            target: 0.5,
            radius: 2.0,
            x0_dist_sq: 1.0 - f64::EPSILON,
            trials: 7,
            seed: u64::MAX - 1,
            cells: vec![
                ValidationCell {
                    backend: "sequential".to_string(),
                    criterion: "hitting".to_string(),
                    threads: 2,
                    eps: 0.04,
                    tau_max: 8,
                    alpha: 0.002_183,
                    horizon: 4_711,
                    halving_epochs: None,
                    total_iterations: 4_711,
                    trials: 7,
                    failures: 0,
                    measured: 0.0,
                    ci_lower: 0.0,
                    ci_upper: 0.35,
                    bound: 0.499_999,
                    consistent_with_upper_bound: true,
                },
                ValidationCell {
                    backend: "native-fullsgd".to_string(),
                    criterion: "terminal".to_string(),
                    threads: 4,
                    eps: 0.01,
                    tau_max: 8,
                    alpha: 0.000_88,
                    horizon: 12_600,
                    halving_epochs: Some(1),
                    total_iterations: 25_200,
                    trials: 7,
                    failures: 7,
                    measured: 1.0,
                    ci_lower: 0.64,
                    ci_upper: 1.0,
                    bound: 0.5,
                    consistent_with_upper_bound: false,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_exactly() {
        let report = sample_report();
        assert_eq!(
            ValidationReport::from_json(&report.to_json()).unwrap(),
            report
        );
        assert_eq!(
            ValidationReport::from_json(&report.to_json_pretty()).unwrap(),
            report
        );
        assert!(!report.all_consistent(), "second cell is inconsistent");
    }

    #[test]
    fn decode_rejects_unknown_criterion() {
        let text = sample_report().to_json().replace("hitting", "vibes");
        let err = ValidationReport::from_json(&text).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("criterion"), "{err}");
    }

    #[test]
    fn quick_grid_validates_and_holds() {
        let report = validate(&quick_plan()).expect("valid plan");
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert_eq!(cell.criterion, "hitting");
            assert!(cell.alpha > 0.0 && cell.horizon >= 1);
            assert!(
                cell.consistent_with_upper_bound,
                "{}: measured {} (CI ≥ {}) vs bound {}",
                cell.backend, cell.measured, cell.ci_lower, cell.bound
            );
        }
        assert!(report.all_consistent());
        // Exact JSON round-trip on a real, measured report.
        assert_eq!(
            ValidationReport::from_json(&report.to_json()).unwrap(),
            report
        );
    }

    #[test]
    fn validation_is_reproducible_on_deterministic_backends() {
        let plan = quick_plan().backends(vec![BackendKind::Sequential]);
        assert_eq!(validate(&plan).unwrap(), validate(&plan).unwrap());
    }

    #[test]
    fn locked_backend_is_rejected_not_vacuous() {
        let plan = quick_plan().backends(vec![BackendKind::Locked]);
        match validate(&plan) {
            Err(DriverError::InvalidSpec(msg)) => assert!(msg.contains("locked"), "{msg}"),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn overridden_alpha_is_judged_through_theorem_6_5_not_eq_13() {
        // A stable α well below the Eq. 12 rate: under the old Eq. 13
        // coupling the run would miss the Eq. 12-derived horizon and be
        // falsely flagged inconsistent. Theorem 6.5 derives a horizon that
        // matches the actual rate, so the verdict holds.
        let eq12 = validate(&quick_plan().backends(vec![BackendKind::Sequential])).unwrap();
        let slow = validate(
            &quick_plan()
                .backends(vec![BackendKind::Sequential])
                .alpha(2e-4),
        )
        .unwrap();
        let (fast_cell, slow_cell) = (&eq12.cells[0], &slow.cells[0]);
        assert!(
            slow_cell.horizon > fast_cell.horizon,
            "slower rate must get a longer Theorem 6.5 horizon: {} vs {}",
            slow_cell.horizon,
            fast_cell.horizon
        );
        assert!(slow_cell.bound <= quick_plan().target + 1e-9);
        assert!(
            slow_cell.consistent_with_upper_bound,
            "measured {} (CI ≥ {}) vs bound {}",
            slow_cell.measured, slow_cell.ci_lower, slow_cell.bound
        );
    }

    #[test]
    fn override_failing_theorem_6_5_precondition_is_rejected() {
        // α just under the Lemma 6.6 stability limit 2cε/M² ≈ 0.0178: H
        // blows up, α²HLMC√d ≥ 1, and no bound applies — must be an error,
        // not a vacuous or false cell.
        let plan = quick_plan().alpha(0.0177);
        match validate(&plan) {
            Err(DriverError::InvalidSpec(msg)) => {
                assert!(msg.contains("Theorem 6.5 precondition"), "{msg}");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn unstable_step_override_surfaces_as_invalid_spec() {
        // 2cε/M² with c=1, ε=0.04, M²=4.5 is ≈ 0.0178: α = 1.0 violates the
        // Lemma 6.6 stability condition and must error, not panic.
        let plan = quick_plan().alpha(1.0);
        match validate(&plan) {
            Err(DriverError::InvalidSpec(msg)) => {
                assert!(msg.contains("stability limit"), "{msg}");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn plan_domain_errors_are_recoverable() {
        for plan in [
            quick_plan().eps_grid(vec![]),
            quick_plan().eps_grid(vec![-1.0]),
            quick_plan().theta(1.5),
            quick_plan().target(1.0),
            quick_plan().radius(0.0),
            quick_plan().alpha(f64::NAN),
            quick_plan().trials(0),
            quick_plan().thread_counts(vec![0]),
            quick_plan().backends(vec![]),
        ] {
            assert!(
                matches!(validate(&plan), Err(DriverError::InvalidSpec(_))),
                "plan {plan:?} must be rejected"
            );
        }
    }

    #[test]
    fn terminal_cells_derive_epoch_budgets() {
        let plan = quick_plan()
            .backends(vec![BackendKind::SimulatedFullSgd])
            .trials(3);
        let report = validate(&plan).expect("valid plan");
        let cell = &report.cells[0];
        assert_eq!(cell.criterion, "terminal");
        let halving = cell.halving_epochs.expect("terminal derives epochs");
        assert!(halving >= 1);
        assert_eq!(cell.total_iterations, cell.horizon * (halving + 1));
        assert_eq!(cell.bound, TERMINAL_FAILURE_BOUND);
    }

    #[test]
    fn loose_targets_do_not_weaken_terminal_epoch_budgets() {
        // Corollary 7.1 needs per-epoch success w.p. ≥ ½. A plan target of
        // 0.9 must clamp the terminal per-epoch horizon to the one derived
        // at ½ (and keep the ½ Markov bound), not shrink the budget and
        // manufacture false inconsistencies.
        let base = quick_plan()
            .backends(vec![BackendKind::SimulatedFullSgd])
            .trials(3);
        let at_half = validate(&base.clone()).expect("valid plan");
        let loose = validate(&base.clone().target(0.9)).expect("valid plan");
        assert_eq!(loose.cells[0].horizon, at_half.cells[0].horizon);
        assert_eq!(loose.cells[0].bound, TERMINAL_FAILURE_BOUND);
        assert!(loose.cells[0].consistent_with_upper_bound);
        // Tighter targets than ½ are honoured (longer epochs, same bound).
        let tight = validate(&base.target(0.1)).expect("valid plan");
        assert!(tight.cells[0].horizon > at_half.cells[0].horizon);
        assert_eq!(tight.cells[0].bound, TERMINAL_FAILURE_BOUND);
    }
}
