//! `asyncsgd` — lock-free stochastic gradient descent in asynchronous shared
//! memory.
//!
//! A full reproduction of *"The Convergence of Stochastic Gradient Descent
//! in Asynchronous Shared Memory"* (Dan Alistarh, Christopher De Sa, Nikola
//! Konstantinov; PODC 2018, arXiv:1803.08841): the asynchronous shared-
//! memory machine with a strong adaptive adversary, Algorithm 1
//! (`EpochSGD`) and Algorithm 2 (`FullSGD`) both simulated and on native
//! threads, every convergence bound as computable functions, and an
//! experiment harness regenerating each theorem's table.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`driver`] | `asgd-driver` | **the front door**: one `RunSpec`, every backend, one `RunReport`; observable/cancellable sessions (`Driver`, `RunHandle`, `RunObserver`) and pooled sweeps (`run_many`) |
//! | [`math`] | `asgd-math` | vector kernels, Gaussian sampling, statistics |
//! | [`shmem`] | `asgd-shmem` | the simulated machine: registers, engine, schedulers/adversaries, contention audits |
//! | [`oracle`] | `asgd-oracle` | workloads with known `(c, L, M²)` constants + by-name registry |
//! | [`core`] | `asgd-core` | the paper's algorithms on the simulator |
//! | [`theory`] | `asgd-theory` | Theorems 3.1/6.3/6.5, Corollaries 6.7/7.1, §5 lower bound |
//! | [`hogwild`] | `asgd-hogwild` | native lock-free runtime + locked baseline + epoch guard + snapshot publication |
//! | [`serve`] | `asgd-serve` | online model serving: live/snapshot reads racing a training run, multi-model `ModelRegistry`, closed-loop traffic harness, latency/staleness telemetry |
//! | [`net`] | `asgd-net` | the network tier: length-prefixed wire protocol over TCP (v2: submit-observe streaming opcode), thread-per-connection server with admission control and SLO load shedding, blocking + retrying clients, seeded fault injection, open-loop socket workloads |
//! | [`ingest`] | `asgd-ingest` | continual learning from the live stream: producer fleets pushing labeled observations through the wire into bounded ingress queues, scheduled ground-truth drift, and time-to-recover measurement |
//! | [`chaos`] | `asgd-chaos` | adversarial robustness: bounded-preemption model checking of the workspace's own concurrent protocols (snapshot seqlock, atomic CAS loop, registry lifecycle, ingress queue) with replayable counterexample traces, plus the zero-wrong-answers net fault campaign |
//! | [`metrics`] | `asgd-metrics` | trial harness, tables, exact order statistics |
//!
//! # Quickstart: the unified driver
//!
//! One [`RunSpec`](driver::RunSpec) value runs unchanged on every execution
//! model and yields one JSON-serialisable [`RunReport`](driver::RunReport):
//!
//! ```
//! use asyncsgd::prelude::*;
//!
//! let spec = RunSpec::new(OracleSpec::new("noisy-quadratic", 2).sigma(0.1), BackendKind::Hogwild)
//!     .threads(2)
//!     .iterations(2_000)
//!     .learning_rate(0.05)
//!     .x0(vec![1.0, -1.0])
//!     .seed(7);
//! for backend in [
//!     BackendKind::Sequential,
//!     BackendKind::SimulatedLockFree,
//!     BackendKind::Hogwild,
//!     BackendKind::Locked,
//!     BackendKind::GuardedEpoch,
//! ] {
//!     let report = run_spec(&spec.clone().backend(backend)).expect("valid spec");
//!     assert!(report.final_dist_sq < 0.5, "{backend}: {}", report.final_dist_sq);
//!     let _json = report.to_json(); // machine-readable summary
//! }
//! ```
//!
//! # Quickstart: native lock-free SGD
//!
//! ```
//! use asyncsgd::prelude::*;
//! use std::sync::Arc;
//!
//! let oracle = Arc::new(NoisyQuadratic::new(4, 0.1).expect("valid"));
//! let report = Hogwild::new(oracle, HogwildConfig {
//!     threads: 2,
//!     iterations: 5_000,
//!     alpha: 0.05,
//!     seed: 42,
//!     success_radius_sq: Some(0.01),
//! })
//! .run(&[1.0, -1.0, 1.0, -1.0]);
//! assert!(report.final_dist_sq < 0.1);
//! ```
//!
//! # Quickstart: the paper's adversary in the simulator
//!
//! ```
//! use asyncsgd::prelude::*;
//! use std::sync::Arc;
//!
//! let oracle = Arc::new(NoisyQuadratic::new(1, 0.0).expect("valid"));
//! let tau = 30;
//! let run = LockFreeSgd::builder(oracle)
//!     .threads(2)
//!     .iterations(tau + 1)
//!     .learning_rate(0.1)
//!     .initial_point(vec![1.0])
//!     .scheduler(StaleGradientAdversary::new(0, 1, tau))
//!     .seed(7)
//!     .run();
//! // The §5 closed form, reproduced by a real execution:
//! let predicted = asyncsgd::theory::lower_bound::adversarial_iterate(0.1, tau, 1.0);
//! assert!((run.final_model[0] - predicted).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use asgd_chaos as chaos;
pub use asgd_core as core;
pub use asgd_driver as driver;
pub use asgd_hogwild as hogwild;
pub use asgd_ingest as ingest;
pub use asgd_math as math;
pub use asgd_metrics as metrics;
pub use asgd_net as net;
pub use asgd_oracle as oracle;
pub use asgd_serve as serve;
pub use asgd_shmem as shmem;
pub use asgd_telemetry as telemetry;
pub use asgd_theory as theory;

/// The most common imports in one place.
pub mod prelude {
    pub use asgd_chaos::{run_net_chaos, Explorer, NetChaosSpec, Schedulable};
    pub use asgd_core::full_sgd::{run_simulated as run_full_sgd_simulated, FullSgdConfig};
    pub use asgd_core::runner::{LockFreeRun, LockFreeSgd, RunnerError};
    pub use asgd_core::sequential::SequentialSgd;
    pub use asgd_driver::{
        run_spec, run_spec_session, validate, BackendKind, Driver, DriverError, ModelReader,
        ModelSnapshot, PinSpec, Progress, RunEvent, RunHandle, RunObserver, RunReport, RunSpec,
        SchedulerSpec, ServeHook, SessionCtx, ShardsSpec, SnapshotCell, SparsePathSpec, StepSize,
        TrajectorySample, ValidationCell, ValidationCriterion, ValidationPlan, ValidationReport,
    };
    pub use asgd_hogwild::full_sgd::{NativeFullSgd, NativeFullSgdConfig};
    pub use asgd_hogwild::guarded::{GuardedEpochSgd, GuardedEpochSgdConfig};
    pub use asgd_hogwild::hogwild::{Hogwild, HogwildConfig};
    pub use asgd_hogwild::locked::LockedSgd;
    pub use asgd_hogwild::{
        ExecTuning, ParamStore, ShardPolicy, ShardRouter, ShardTopology, ShardedVec, SparsePolicy,
        StoreWriter,
    };
    pub use asgd_ingest::{
        heterogeneous_fleet, DriftKind, DriftSpec, GroundTruth, IngestReport, IngestSpec,
        ProducerSpec, RecoveryLog, RecoveryMonitor,
    };
    pub use asgd_net::{
        run_net_workload, FaultPlan, NetClient, NetConfig, NetOp, NetReport, NetServer,
        NetWorkloadSpec, Priority, RetryPolicy, RetryingClient, SloPolicy,
    };
    pub use asgd_oracle::{
        BackpressurePolicy, Constants, Flat, GradientOracle, IngressQueue, LinearRegression,
        Minibatch, ModelView, NoisyQuadratic, Observation, OracleSpec, RidgeLogistic, SparseGrad,
        SparseQuadratic, StreamingOracle,
    };
    pub use asgd_serve::{
        run_workload, Arrival, LatencySummary, ModelEntry, ModelId, ModelRegistry, ModelService,
        ModelStats, QueryClient, QueryKind, QueryOutcome, ReadMode, ServeError, ServeReport,
        ServeSpec, StalenessSummary,
    };
    pub use asgd_shmem::sched::{
        BoundedDelayAdversary, CrashAdversary, RandomScheduler, Scheduler, SerialScheduler,
        StaleGradientAdversary, StepRoundRobin,
    };
    pub use asgd_shmem::{Engine, Memory, TraceLevel};
    pub use asgd_telemetry::{MetricsRegistry, MetricsSnapshot, TraceSink};
    pub use asgd_theory::bounds;
}
