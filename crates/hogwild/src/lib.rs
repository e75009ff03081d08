//! Native lock-free SGD on real threads — the practical counterpart of the
//! simulated model.
//!
//! The paper's Algorithm 1 maps directly onto commodity hardware: the shared
//! model is an array of atomically updatable `f64`s, the iteration counter is
//! an `AtomicU64`, and gradient entries are applied with `fetch&add` (a CAS
//! loop on `f64` bits, [`atomic::AtomicF64`]). This crate provides:
//!
//! * [`atomic`] — `AtomicF64` with lock-free sequentially consistent
//!   `fetch_add`;
//! * [`shard`] — [`ParamStore`], the one shared parameter vector every
//!   native claim loop holds: contiguous power-of-two index ranges routed
//!   shift-and-mask to per-shard arenas (one shard by default, or a count
//!   derived from the topology), with per-shard counters of applied
//!   updates;
//! * [`pin`] — best-effort worker-to-core pinning (enabled by
//!   `ExecTuning::pin`);
//! * [`tuning`] — [`ExecTuning`]: the sparse-path, shard-count and pinning
//!   knobs every native executor accepts; Δ-sparse oracles get an O(Δ) hot
//!   loop instead of the O(d) dense scan;
//! * [`control`] — [`RunControl`]: a cooperative stop flag and a strided
//!   metrics sink threaded into every executor's claim loop (the
//!   `run_controlled` entry points), with cancellation latency bounded by
//!   the success-check stride;
//! * [`snapshot`] — model serving attachments: epoch-versioned
//!   double-buffered snapshot publication ([`SnapshotCell`]) and cloneable
//!   [`ModelReader`] handles (live per-entry reads racing the trainers +
//!   coherent published snapshots), threaded into the lock-free executor
//!   through [`RunControl::serve`] ([`ServeHook`]);
//! * [`hogwild`] — the lock-free executor (Algorithm 1 on OS threads);
//! * [`locked`] — the coarse-grained-locking baseline the paper's
//!   introduction contrasts against (one mutex around the whole model,
//!   serialising iterations);
//! * [`full_sgd`] — native Algorithm 2 with per-epoch model arrays and the
//!   final accumulating epoch;
//! * [`guarded`] — an op-level epoch guard packing `(epoch, f32 value)`
//!   into one atomic word, demonstrating the DCAS-style guard of §7 with a
//!   single-word CAS (at the cost of `f32` precision), plus
//!   [`guarded::GuardedEpochSgd`], a full epoch-guarded SGD executor on top
//!   of it.
//!
//! **Front door:** new code should usually go through the unified driver
//! (`asgd-driver`): one `RunSpec` selects this crate's executors via the
//! `hogwild`, `locked`, `guarded-epoch` and `native-fullsgd` backends and
//! returns one serialisable `RunReport`. The types here remain supported as
//! the native backends' engine-level API.
//!
//! Native runs are *not* deterministic (real interleavings); tests assert
//! statistical properties — update conservation, convergence, monotone
//! scaling — never exact trajectories.
//!
//! # Example
//!
//! ```
//! use asgd_hogwild::hogwild::{Hogwild, HogwildConfig};
//! use asgd_oracle::NoisyQuadratic;
//! use std::sync::Arc;
//!
//! let oracle = Arc::new(NoisyQuadratic::new(4, 0.05).expect("valid"));
//! let report = Hogwild::new(oracle, HogwildConfig {
//!     threads: 2,
//!     iterations: 2_000,
//!     alpha: 0.05,
//!     seed: 7,
//!     success_radius_sq: Some(0.05),
//! })
//! .run(&[1.0, -1.0, 0.5, -0.5]);
//! assert!(report.final_dist_sq < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod control;
pub mod full_sgd;
pub mod guarded;
pub mod hogwild;
pub mod locked;
pub mod pin;
pub mod shard;
pub mod snapshot;
pub mod tuning;

pub use atomic::{AtomicF64, CacheAligned};
pub use control::{MetricsFn, MetricsSink, RunControl, TimingFn, TimingSink, WorkerPoll};
pub use full_sgd::{NativeFullSgd, NativeFullSgdConfig, NativeFullSgdReport};
pub use guarded::{GuardedEpochSgd, GuardedEpochSgdConfig, GuardedEpochSgdReport, GuardedModel};
pub use hogwild::{Hogwild, HogwildConfig, HogwildReport};
pub use locked::{LockedSgd, LockedSgdReport};
pub use shard::{ParamStore, ShardRouter, ShardTopology, ShardedVec, StoreWriter};
pub use snapshot::{ModelReader, ModelSnapshot, PublishListener, ServeHook, SnapshotCell};
pub use tuning::{ExecTuning, ShardPolicy, SparsePolicy};
