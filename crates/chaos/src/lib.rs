//! Adversarial robustness campaign for the workspace: bounded-preemption
//! **model checking** of its concurrent protocols, plus a seeded
//! **fault-injection campaign** against the serving-net stack.
//!
//! The paper's setting is adversarial scheduling — §2's strong adaptive
//! adversary chooses every interleaving. The `asgd-shmem` simulator plays
//! that adversary over simulated SGD programs; this crate turns the same
//! idea on the workspace's *own* concurrent code:
//!
//! * [`explore`] — a DFS [`Explorer`] that enumerates **every** schedule
//!   of a [`Schedulable`] protocol within a preemption bound, checks an
//!   invariant after each atomic step, and minimizes any counterexample
//!   into a replayable trace in the shmem simulator's schedule vocabulary
//!   ([`asgd_shmem::sched::encode_schedule`]).
//! * [`snapshot_model`] — the [`SnapshotCell`](asgd_hogwild::SnapshotCell)
//!   seqlock publish/read protocol, with a deliberately weakened publish
//!   fence ([`FenceMode::WeakPublish`]) the explorer must catch (a torn
//!   snapshot accepted by a reader).
//! * [`atomic_model`] — the [`AtomicF64`](asgd_hogwild::AtomicF64)
//!   CAS-loop `fetch_add`, conservation at quiescence, with a blind-store
//!   bug mode ([`AddMode::BlindStore`]) that loses updates.
//! * [`registry_model`] — the
//!   [`ModelRegistry`](asgd_serve::ModelRegistry) create/query/drop
//!   lifecycle (map coherence, monotone ids, no leaked services), with a
//!   split check-then-insert bug mode ([`RegistryMode::SplitCheck`]).
//! * [`ingest_model`] — the bounded
//!   [`IngressQueue`](asgd_oracle::IngressQueue) push/pop protocol under
//!   every backpressure policy (bounded depth, no loss or duplication,
//!   FIFO, drop accounting), with a non-atomic check-then-push bug mode
//!   ([`LenMode::SplitCheck`]) that overflows the capacity under one
//!   adversarial preemption.
//! * [`sharded_model`] — the
//!   [`ParamStore`](asgd_hogwild::ParamStore) per-shard progress
//!   counters and their `coherent_update_counts` double-collect read
//!   protocol (coherence of the published cross-shard vector), with a
//!   validation-free split-read bug mode ([`ScanMode::SplitRead`]) that
//!   publishes a torn snapshot under one adversarial preemption.
//! * [`stop_check_model`] — the native executors' cooperative stop check
//!   (every worker polls the flag every `stride` of its *own* claims, via
//!   the shipped [`WorkerPoll`](asgd_hogwild::WorkerPoll) countdown), with
//!   a global-claim-index bug mode ([`PollMode::GlobalIndex`]) that lets a
//!   worker run two strides past the flag under two adversarial
//!   preemptions.
//! * [`netchaos`] — [`run_net_chaos`]: a fleet of retrying clients versus
//!   a server under seeded [`FaultPlan`](asgd_net::FaultPlan) injection
//!   (partial writes, short reads, delays, mid-frame disconnects),
//!   scored bit-for-bit; the bar is **zero wrong answers** under churn.
//!
//! Verification here is *within the preemption bound*: a verified report
//! means no schedule with at most `k` preemptions violates the invariant
//! — the classic context-bounded guarantee, which in practice catches the
//! bugs that matter because almost all real concurrency bugs need very
//! few preemptions placed adversarially.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic_model;
pub mod explore;
pub mod ingest_model;
pub mod netchaos;
pub mod registry_model;
pub mod sharded_model;
pub mod snapshot_model;
pub mod stop_check_model;
pub mod telemetry_model;

pub use atomic_model::{AddMode, AtomicAddModel};
pub use explore::{
    minimize, replay, Counterexample, ExploreReport, Explorer, ReplayOutcome, Schedulable,
    StepStatus, Violation,
};
pub use ingest_model::{IngestQueueModel, LenMode};
pub use netchaos::{run_net_chaos, NetChaosError, NetChaosReport, NetChaosSpec};
pub use registry_model::{RegistryMode, RegistryModel};
pub use sharded_model::{ScanMode, ShardedCounterModel};
pub use snapshot_model::{FenceMode, SnapshotModel};
pub use stop_check_model::{PollMode, StopCheckModel};
pub use telemetry_model::{CollectMode, TelemetryCellModel};
