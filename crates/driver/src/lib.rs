//! Unified execution driver for asynchronous SGD — **the front door of the
//! workspace**.
//!
//! The paper (Alistarh, De Sa, Konstantinov; PODC 2018) is a comparison of
//! *one* SGD iteration across execution models: the sequential baseline, the
//! simulated asynchronous machine under adversarial schedulers, and native
//! lock-free runtimes. This crate makes that comparison a one-struct
//! operation:
//!
//! * [`RunSpec`] — one plain-data value describing a run: workload (by name,
//!   through the oracle registry), backend, threads, iteration budget,
//!   step-size schedule, success region, seed, scheduler/adversary;
//! * [`Backend`] — the execution-model abstraction, with seven
//!   implementations ([`BackendKind`]): `sequential`, `simulated-lockfree`,
//!   `simulated-fullsgd`, `hogwild`, `locked`, `guarded-epoch`,
//!   `native-fullsgd`;
//! * [`RunReport`] — the unified outcome every backend produces: hitting
//!   time, distances, wall time, contention statistics, optional strided
//!   [`TrajectorySample`]s, and (for deterministic backends) the execution
//!   fingerprint. Serialisable to and from JSON via the built-in codec
//!   ([`json`]);
//! * [`session`] — runs as *jobs*: [`Driver::submit`] returns a
//!   [`RunHandle`] with `cancel()` / `wait()` / `try_report()`,
//!   [`Driver::run_many`] executes sweeps on a bounded worker pool, and a
//!   [`RunObserver`] streams typed [`RunEvent`]s (progress, trajectory
//!   samples) live from any backend. Runs can additionally carry a serving
//!   attachment ([`SessionCtx::serve`] with a [`ServeHook`]): the `hogwild`
//!   backend then exposes a live [`ModelReader`] and publishes coherent
//!   [`ModelSnapshot`]s at a stride, streamed as
//!   [`RunEvent::SnapshotPublished`] — the engine under the `asgd-serve`
//!   crate's `ModelService`;
//! * [`validation`] — the paper's formulas as an executable check: a
//!   [`ValidationPlan`] derives step sizes, horizons and epoch budgets from
//!   the theory crate, runs multi-seed sweeps across the backends, and
//!   produces a [`ValidationReport`] of bound-vs-measurement verdicts.
//!
//! # Example: one spec, several execution models
//!
//! ```
//! use asgd_driver::{run_spec, BackendKind, RunSpec, SchedulerSpec};
//! use asgd_oracle::OracleSpec;
//!
//! let spec = RunSpec::new(OracleSpec::new("noisy-quadratic", 2).sigma(0.1), BackendKind::Sequential)
//!     .threads(2)
//!     .iterations(500)
//!     .learning_rate(0.05)
//!     .x0(vec![1.0, -1.0])
//!     .success_radius_sq(0.05)
//!     .scheduler(SchedulerSpec::Serial)
//!     .seed(7);
//!
//! let sequential = run_spec(&spec).expect("valid spec");
//! let simulated = run_spec(&spec.clone().backend(BackendKind::SimulatedLockFree)).unwrap();
//! // Under the serial scheduler the simulator replays the sequential
//! // trajectory bit for bit:
//! assert_eq!(sequential.final_model, simulated.final_model);
//!
//! // And every report round-trips through JSON:
//! let json = simulated.to_json();
//! assert_eq!(asgd_driver::RunReport::from_json(&json).unwrap(), simulated);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod error;
pub mod json;
pub mod report;
pub mod session;
pub mod spec;
pub mod trace;
pub mod validation;

pub use backend::{backend, run_simulated_lockfree_detailed, run_spec, run_spec_session, Backend};
pub use error::DriverError;
pub use json::DecodeError;
pub use report::{ContentionSummary, RunReport, TrajectorySample};
pub use session::{Driver, Progress, RunEvent, RunHandle, RunObserver, SessionCtx};
pub use trace::TraceObserver;
// Serving attachment types, re-exported so session consumers need only this
// crate: build a `ServeHook`, pass it via `SessionCtx::with_serve`, read the
// training model live through the attached `ModelReader`.
pub use asgd_hogwild::{ModelReader, ModelSnapshot, ServeHook, SnapshotCell};
pub use spec::{
    BackendKind, PinSpec, RunSpec, SchedulerSpec, ShardsSpec, SparsePathSpec, StepSize,
};
pub use validation::{
    validate, ValidationCell, ValidationCriterion, ValidationPlan, ValidationReport,
};
