//! [`RunSpec`] — one value describing an SGD run end to end.

use crate::error::DriverError;
use asgd_oracle::OracleSpec;
use asgd_shmem::sched::{
    BoundedDelayAdversary, IterationSerial, RandomScheduler, Scheduler, SerialScheduler,
    StaleGradientAdversary, StepRoundRobin,
};

/// The execution models a [`RunSpec`] can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The classic sequential iteration (Eq. 1), single coin stream.
    Sequential,
    /// Algorithm 1 in the simulator under a [`SchedulerSpec`] adversary.
    SimulatedLockFree,
    /// Algorithm 2 (epoch halving) in the simulator.
    SimulatedFullSgd,
    /// Algorithm 1 on OS threads (Hogwild-style, lock-free).
    Hogwild,
    /// The coarse-grained-locking baseline on OS threads.
    Locked,
    /// Epoch-guarded SGD on OS threads (single-word-CAS DCAS rendition).
    GuardedEpoch,
    /// Algorithm 2 on OS threads.
    NativeFullSgd,
}

impl BackendKind {
    /// Canonical CLI/JSON name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Sequential => "sequential",
            Self::SimulatedLockFree => "simulated-lockfree",
            Self::SimulatedFullSgd => "simulated-fullsgd",
            Self::Hogwild => "hogwild",
            Self::Locked => "locked",
            Self::GuardedEpoch => "guarded-epoch",
            Self::NativeFullSgd => "native-fullsgd",
        }
    }

    /// Every backend, in documentation order.
    #[must_use]
    pub fn all() -> &'static [BackendKind] {
        &[
            Self::Sequential,
            Self::SimulatedLockFree,
            Self::SimulatedFullSgd,
            Self::Hogwild,
            Self::Locked,
            Self::GuardedEpoch,
            Self::NativeFullSgd,
        ]
    }

    /// True if executions on this backend are deterministic given the spec
    /// (the simulator and the single-stream sequential baseline are; native
    /// thread interleavings are not).
    #[must_use]
    pub fn deterministic(self) -> bool {
        matches!(
            self,
            Self::Sequential | Self::SimulatedLockFree | Self::SimulatedFullSgd
        )
    }
}

impl std::str::FromStr for BackendKind {
    type Err = DriverError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BackendKind::all()
            .iter()
            .copied()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                DriverError::InvalidSpec(format!(
                    "unknown backend `{s}` (known: {})",
                    BackendKind::all()
                        .iter()
                        .map(|k| k.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Dense-vs-sparse gradient path selection.
///
/// Native backends interpret `Auto` as "sparse iff the oracle's support
/// bound Δ satisfies 4·Δ ≤ d". The simulated lock-free backend treats the
/// dense op scan as paper-faithful and only declares sparse ops under
/// `Sparse` (for oracles with the two-phase decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SparsePathSpec {
    /// Let each backend pick (native: by Δ vs d; simulated: dense).
    #[default]
    Auto,
    /// Force the dense O(d) path everywhere.
    Dense,
    /// Force the O(Δ) path wherever the oracle supports it.
    Sparse,
}

impl SparsePathSpec {
    /// Canonical CLI/JSON name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Dense => "dense",
            Self::Sparse => "sparse",
        }
    }
}

impl std::str::FromStr for SparsePathSpec {
    type Err = DriverError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Self::Auto),
            "dense" => Ok(Self::Dense),
            "sparse" => Ok(Self::Sparse),
            other => Err(DriverError::InvalidSpec(format!(
                "unknown sparse path `{other}` (known: auto, dense, sparse)"
            ))),
        }
    }
}

/// Parameter-store sharding for the native backends (simulated registers
/// have no arenas; ignored there, as is the serializing locked baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardsSpec {
    /// Derive the shard count from the detected topology.
    Auto,
    /// At most this many power-of-two chunks (clamped to `1..=d`); chunk
    /// rounding can realise fewer, and the report carries the realised
    /// count. `Fixed(1)`, one flat arena, is the default.
    Fixed(usize),
}

impl Default for ShardsSpec {
    fn default() -> Self {
        Self::Fixed(1)
    }
}

impl ShardsSpec {
    /// Canonical CLI/JSON rendering (`auto` or the count).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Self::Auto => "auto".to_string(),
            Self::Fixed(n) => n.to_string(),
        }
    }
}

impl std::str::FromStr for ShardsSpec {
    type Err = DriverError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Self::Auto),
            other => other
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .map(Self::Fixed)
                .ok_or_else(|| {
                    DriverError::InvalidSpec(format!(
                        "unknown shards `{other}` (known: auto, or a count >= 1)"
                    ))
                }),
        }
    }
}

/// Worker-to-core pinning for the native backends (best effort; the
/// simulator has no OS threads to pin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PinSpec {
    /// Do not pin — the default.
    #[default]
    Off,
    /// Pin workers round-robin to cores at spawn.
    On,
}

impl PinSpec {
    /// Canonical CLI/JSON name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::On => "on",
        }
    }
}

impl std::str::FromStr for PinSpec {
    type Err = DriverError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(Self::Off),
            "on" => Ok(Self::On),
            other => Err(DriverError::InvalidSpec(format!(
                "unknown pin `{other}` (known: on, off)"
            ))),
        }
    }
}

/// Step-size schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepSize {
    /// Constant learning rate `α`.
    Constant {
        /// The learning rate.
        alpha: f64,
    },
    /// Algorithm 2's halving schedule: `α₀ / 2^e` across
    /// `halving_epochs + 1` epochs of equal share of the iteration budget.
    Halving {
        /// Initial learning rate `α₀`.
        alpha0: f64,
        /// Halving epochs after the first.
        halving_epochs: usize,
    },
}

impl StepSize {
    /// The epoch-0 learning rate.
    #[must_use]
    pub fn initial_alpha(self) -> f64 {
        match self {
            Self::Constant { alpha } => alpha,
            Self::Halving { alpha0, .. } => alpha0,
        }
    }

    /// Halving epochs (0 for a constant schedule).
    #[must_use]
    pub fn halving_epochs(self) -> usize {
        match self {
            Self::Constant { .. } => 0,
            Self::Halving { halving_epochs, .. } => halving_epochs,
        }
    }

    /// The constant rate, or an error for epoch schedules — used by
    /// single-epoch backends.
    pub(crate) fn constant_alpha(self, backend: BackendKind) -> Result<f64, DriverError> {
        match self {
            Self::Constant { alpha } => Ok(alpha),
            Self::Halving { .. } => Err(DriverError::InvalidSpec(format!(
                "backend `{backend}` runs a constant step size; use simulated-fullsgd, \
                 native-fullsgd or guarded-epoch for halving schedules"
            ))),
        }
    }
}

/// Scheduler (adversary) selection for the simulated backends. Native
/// backends ignore it — the OS is their scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// Thread 0 runs to completion, then thread 1, …
    Serial,
    /// One step per thread, cyclically.
    RoundRobin,
    /// Serial iterations, rotating the executing thread per iteration.
    IterationSerial,
    /// Uniformly random runnable thread (oblivious stochastic scheduler).
    Random {
        /// Scheduler seed (independent of the run seed).
        seed: u64,
    },
    /// Adaptive adversary manufacturing interval contention up to `budget`.
    BoundedDelay {
        /// Contention budget `τ`.
        budget: u64,
    },
    /// The §5 lower-bound adversary: freeze a victim's gradient for `delay`
    /// iterations, then merge it stale.
    StaleGradient {
        /// Thread executing the foreground iterations.
        runner: usize,
        /// Thread whose gradient is frozen.
        victim: usize,
        /// Delay `τ` before the stale merge.
        delay: u64,
    },
}

impl SchedulerSpec {
    /// Builds the scheduler.
    #[must_use]
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            Self::Serial => Box::new(SerialScheduler::new()),
            Self::RoundRobin => Box::new(StepRoundRobin::new()),
            Self::IterationSerial => Box::new(IterationSerial::new()),
            Self::Random { seed } => Box::new(RandomScheduler::new(seed)),
            Self::BoundedDelay { budget } => Box::new(BoundedDelayAdversary::new(budget)),
            Self::StaleGradient {
                runner,
                victim,
                delay,
            } => Box::new(StaleGradientAdversary::new(runner, victim, delay)),
        }
    }

    /// Canonical CLI/JSON rendering (`kind` or `kind:param`).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Self::Serial => "serial".to_string(),
            Self::RoundRobin => "round-robin".to_string(),
            Self::IterationSerial => "iteration-serial".to_string(),
            Self::Random { seed } => format!("random:{seed}"),
            Self::BoundedDelay { budget } => format!("delay:{budget}"),
            Self::StaleGradient { delay, .. } => format!("stale:{delay}"),
        }
    }
}

impl std::str::FromStr for SchedulerSpec {
    type Err = DriverError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, param) = match s.split_once(':') {
            Some((k, p)) => (k, Some(p)),
            None => (s, None),
        };
        let num = |what: &str| -> Result<u64, DriverError> {
            param
                .ok_or_else(|| {
                    DriverError::InvalidSpec(format!("scheduler `{kind}` needs `:{what}`"))
                })?
                .parse()
                .map_err(|_| DriverError::InvalidSpec(format!("scheduler `{s}`: bad {what} value")))
        };
        match kind {
            "serial" => Ok(Self::Serial),
            "rr" | "round-robin" => Ok(Self::RoundRobin),
            "iteration-serial" => Ok(Self::IterationSerial),
            "random" => Ok(Self::Random { seed: num("seed")? }),
            "delay" => Ok(Self::BoundedDelay {
                budget: num("budget")?,
            }),
            "stale" => Ok(Self::StaleGradient {
                runner: 0,
                victim: 1,
                delay: num("delay")?,
            }),
            other => Err(DriverError::InvalidSpec(format!(
                "unknown scheduler `{other}` (known: serial, round-robin, \
                 iteration-serial, random:SEED, delay:BUDGET, stale:DELAY)"
            ))),
        }
    }
}

/// One value describing an SGD run: workload, execution model, concurrency,
/// schedule, success region and seed. The same spec runs unchanged on every
/// compatible [`BackendKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Workload, built by name through the oracle registry.
    pub oracle: OracleSpec,
    /// Execution model.
    pub backend: BackendKind,
    /// Thread count `n` (the sequential backend runs one stream regardless).
    pub threads: usize,
    /// Total iteration budget `T` (shared across epochs for the FullSGD
    /// backends).
    pub iterations: u64,
    /// Step-size schedule.
    pub step: StepSize,
    /// Initial point (defaults to the origin).
    pub x0: Option<Vec<f64>>,
    /// Success region threshold `ε` on `‖x − x*‖²`, enabling hitting-time
    /// tracking where the backend supports it.
    pub success_radius_sq: Option<f64>,
    /// Master seed for all coin streams.
    pub seed: u64,
    /// Scheduler/adversary for simulated backends (ignored natively).
    pub scheduler: SchedulerSpec,
    /// Step cap for simulated backends (needed with starving adversaries).
    pub max_steps: Option<u64>,
    /// Dense-vs-sparse gradient path.
    pub sparse: SparsePathSpec,
    /// Parameter-store sharding for native backends (ignored by the
    /// simulator and by the serializing locked baseline).
    pub shards: ShardsSpec,
    /// Worker-to-core pinning for native backends (best effort).
    pub pin: PinSpec,
    /// Trajectory collection stride: `Some(k)` records a
    /// [`TrajectorySample`](crate::TrajectorySample) roughly every `k`
    /// iterations into [`RunReport::trajectory`](crate::RunReport) (and
    /// streams it to any attached observer). `None` (the default) collects
    /// nothing; observers then still receive progress at a default stride.
    /// Sampling is pure observation — it never changes a run's trajectory.
    pub trajectory_stride: Option<u64>,
}

impl RunSpec {
    /// A spec with defaults: 2 threads, `T = 1000`, constant `α = 0.05`,
    /// origin start, no success region, seed 0, round-robin scheduler.
    #[must_use]
    pub fn new(oracle: OracleSpec, backend: BackendKind) -> Self {
        Self {
            oracle,
            backend,
            threads: 2,
            iterations: 1000,
            step: StepSize::Constant { alpha: 0.05 },
            x0: None,
            success_radius_sq: None,
            seed: 0,
            scheduler: SchedulerSpec::RoundRobin,
            max_steps: None,
            sparse: SparsePathSpec::Auto,
            shards: ShardsSpec::Fixed(1),
            pin: PinSpec::Off,
            trajectory_stride: None,
        }
    }

    /// Selects a different backend (the cheap way to run one spec
    /// everywhere).
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the thread count.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets the total iteration budget.
    #[must_use]
    pub fn iterations(mut self, t: u64) -> Self {
        self.iterations = t;
        self
    }

    /// Sets a constant learning rate.
    #[must_use]
    pub fn learning_rate(mut self, alpha: f64) -> Self {
        self.step = StepSize::Constant { alpha };
        self
    }

    /// Sets a halving (Algorithm 2) schedule.
    #[must_use]
    pub fn halving(mut self, alpha0: f64, halving_epochs: usize) -> Self {
        self.step = StepSize::Halving {
            alpha0,
            halving_epochs,
        };
        self
    }

    /// Sets the initial point.
    #[must_use]
    pub fn x0(mut self, x0: Vec<f64>) -> Self {
        self.x0 = Some(x0);
        self
    }

    /// Enables success-region tracking with threshold `ε`.
    #[must_use]
    pub fn success_radius_sq(mut self, eps: f64) -> Self {
        self.success_radius_sq = Some(eps);
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulated scheduler/adversary.
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Caps simulated steps.
    #[must_use]
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Selects the dense-vs-sparse gradient path.
    #[must_use]
    pub fn sparse(mut self, sparse: SparsePathSpec) -> Self {
        self.sparse = sparse;
        self
    }

    /// Selects the native parameter-store sharding.
    #[must_use]
    pub fn shards(mut self, shards: ShardsSpec) -> Self {
        self.shards = shards;
        self
    }

    /// Selects native worker-to-core pinning.
    #[must_use]
    pub fn pin(mut self, pin: PinSpec) -> Self {
        self.pin = pin;
        self
    }

    /// Enables trajectory collection: one sample roughly every `stride`
    /// iterations lands in `RunReport::trajectory`. A zero stride is
    /// rejected at validation time.
    #[must_use]
    pub fn trajectory_every(mut self, stride: u64) -> Self {
        self.trajectory_stride = Some(stride);
        self
    }

    /// Executes the spec on its backend.
    ///
    /// # Errors
    ///
    /// See [`crate::run_spec`].
    pub fn run(&self) -> Result<crate::RunReport, DriverError> {
        crate::run_spec(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for &kind in BackendKind::all() {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("warp-drive".parse::<BackendKind>().is_err());
    }

    #[test]
    fn scheduler_labels_parse_back() {
        for spec in [
            SchedulerSpec::Serial,
            SchedulerSpec::RoundRobin,
            SchedulerSpec::IterationSerial,
            SchedulerSpec::Random { seed: 7 },
            SchedulerSpec::BoundedDelay { budget: 16 },
            SchedulerSpec::StaleGradient {
                runner: 0,
                victim: 1,
                delay: 30,
            },
        ] {
            assert_eq!(spec.label().parse::<SchedulerSpec>().unwrap(), spec);
            let _ = spec.build(); // constructible
        }
        assert!("random".parse::<SchedulerSpec>().is_err(), "missing seed");
        assert!("bogus".parse::<SchedulerSpec>().is_err());
    }

    #[test]
    fn tuning_labels_parse_back() {
        for sparse in [
            SparsePathSpec::Auto,
            SparsePathSpec::Dense,
            SparsePathSpec::Sparse,
        ] {
            assert_eq!(sparse.label().parse::<SparsePathSpec>().unwrap(), sparse);
        }
        for shards in [
            ShardsSpec::Fixed(1),
            ShardsSpec::Auto,
            ShardsSpec::Fixed(12),
        ] {
            assert_eq!(shards.label().parse::<ShardsSpec>().unwrap(), shards);
        }
        for pin in [PinSpec::Off, PinSpec::On] {
            assert_eq!(pin.label().parse::<PinSpec>().unwrap(), pin);
        }
        assert!("banana".parse::<SparsePathSpec>().is_err());
        assert!("banana".parse::<ShardsSpec>().is_err());
        assert!("0".parse::<ShardsSpec>().is_err(), "zero shards rejected");
        assert!("flat".parse::<ShardsSpec>().is_err(), "the flat store is 1");
        assert!("banana".parse::<PinSpec>().is_err());
    }

    #[test]
    fn tuning_builders_apply_and_default_is_paper_faithful() {
        let spec = RunSpec::new(OracleSpec::new("noisy-quadratic", 2), BackendKind::Hogwild);
        assert_eq!(spec.sparse, SparsePathSpec::Auto);
        assert_eq!(spec.shards, ShardsSpec::Fixed(1));
        assert_eq!(spec.shards, ShardsSpec::default());
        assert_eq!(spec.pin, PinSpec::Off);
        let spec = spec
            .sparse(SparsePathSpec::Sparse)
            .shards(ShardsSpec::Fixed(4))
            .pin(PinSpec::On);
        assert_eq!(spec.sparse, SparsePathSpec::Sparse);
        assert_eq!(spec.shards, ShardsSpec::Fixed(4));
        assert_eq!(spec.pin, PinSpec::On);
    }

    #[test]
    fn step_size_accessors() {
        let c = StepSize::Constant { alpha: 0.1 };
        assert_eq!(c.initial_alpha(), 0.1);
        assert_eq!(c.halving_epochs(), 0);
        assert_eq!(c.constant_alpha(BackendKind::Hogwild).unwrap(), 0.1);
        let h = StepSize::Halving {
            alpha0: 0.4,
            halving_epochs: 3,
        };
        assert_eq!(h.initial_alpha(), 0.4);
        assert_eq!(h.halving_epochs(), 3);
        assert!(h.constant_alpha(BackendKind::Hogwild).is_err());
    }
}
