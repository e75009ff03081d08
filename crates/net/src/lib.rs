//! Wire-protocol serving front-end for asynchronous SGD — the network
//! tier above `asgd-serve`: real TCP clients querying live training runs.
//!
//! Everything below `asgd-serve` shares one address space; this crate
//! puts a socket boundary in front of it, dependency-free on std:
//!
//! * [`protocol`] — the length-prefixed, versioned binary protocol:
//!   `dot-score`, `predict`, `fetch-range`, `model-stats`, and (v2)
//!   `submit-observe` requests (each carrying a [`Priority`]) and
//!   value/error/shed/ingested responses. `f64`s travel as IEEE-754 bit
//!   patterns, so a served model reads **bit-identically** through the
//!   socket path (the workspace's sequential-equivalence oracle extends
//!   across the wire; see `tests/net.rs`). Malformed, truncated, or
//!   oversized frames are typed errors, never panics.
//! * [`NetServer`] — a thread-per-connection front-end over a shared
//!   [`ModelRegistry`](asgd_serve::ModelRegistry) (multi-model tenancy:
//!   many named concurrent training runs, addressed by id). Robustness is
//!   explicit: connection-budget **admission control** (`AdmissionDenied`
//!   frames), a bounded in-flight window (`Busy` frames as
//!   backpressure), per-connection idle/write timeouts, and **SLO load
//!   shedding**.
//! * [`LoadShedder`] — tracks the rolling p99 of executed requests in a
//!   lock-free log-linear
//!   [`TelemetryHistogram`](asgd_telemetry::TelemetryHistogram) windowed
//!   by count-rotated bucket snapshots and, past the objective, sheds lowest-priority traffic first with
//!   explicit [`Response::Shed`] frames. Shed requests skip their compute
//!   entirely — that reclaimed CPU is what holds the admitted p99.
//! * [`NetClient`] — a blocking client; [`run_net_workload`] — an
//!   **open-loop** socket fleet (fixed tick schedule, latency charged
//!   from the scheduled send instant) whose per-priority [`NetReport`]
//!   is how the bench demonstrates shedding under deliberate overload.
//! * [`fault`] — deterministic fault injection under the framing layer:
//!   [`FaultyStream`] perturbs delivery (partial writes, short reads,
//!   delays, mid-frame disconnects) per a seeded [`FaultPlan`], on both
//!   the server ([`NetConfig::fault`]) and the client side.
//!   [`RetryingClient`] is the survival strategy: every [`ClientError`]
//!   carries a [`RetryClass`], and retryable failures are replayed with
//!   capped exponential backoff, jitter, and reconnect-on-broken-pipe.
//!   Replay is gated per operation on [`Request::idempotent`]: the read
//!   ops replay freely, but `submit-observe` — the protocol's one write —
//!   is never re-sent after an indeterminate mid-call transport failure
//!   (at-most-once; a duplicate observation would silently skew the live
//!   gradient stream). The `asgd-chaos` crate drives this pair as a
//!   campaign and asserts zero wrong answers under churn.
//! * `submit-observe` routes through the
//!   [`ModelRegistry`](asgd_serve::ModelRegistry) into a streaming
//!   model's bounded ingress queue (`ModelRegistry::create_streaming`) —
//!   the continual-learning write path `asgd-ingest` builds on. Queue
//!   refusals come back as typed [`ErrorCode::Overloaded`] frames, which
//!   guarantee the observation was not enqueued and are therefore always
//!   safe to retry.
//!
//! # Example
//!
//! ```
//! use asgd_driver::{BackendKind, RunSpec};
//! use asgd_net::{NetClient, NetConfig, NetServer, Priority};
//! use asgd_oracle::OracleSpec;
//! use asgd_serve::{ModelRegistry, ReadMode};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(ModelRegistry::new());
//! let train = RunSpec::new(
//!     OracleSpec::new("sparse-quadratic", 32).sigma(0.0),
//!     BackendKind::Hogwild,
//! )
//! .threads(1)
//! .iterations(100_000)
//! .learning_rate(0.002)
//! .x0(vec![1.0; 32])
//! .seed(7);
//! let id = registry
//!     .create("ranker", &train, ReadMode::Snapshot, 1_000)
//!     .expect("creates");
//!
//! let server = NetServer::serve(Arc::clone(&registry), NetConfig::default()).expect("binds");
//! let mut client = NetClient::connect(server.local_addr()).expect("connects");
//! let (score, _staleness) = client
//!     .dot_score(id.0, &[(0, 1.0), (3, -0.5)], Priority::Normal)
//!     .expect("scores");
//! assert!(score.is_finite());
//! server.stop();
//! registry.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod protocol;
pub mod server;
pub mod shed;
pub mod workload;

pub use client::{ClientError, NetClient, RetryClass, RetryPolicy, RetryingClient};
pub use fault::{FaultPlan, FaultyStream};
pub use protocol::{
    read_frame, write_frame, ErrorCode, FrameError, Priority, Request, RequestFrame, Response,
    StatsSelector, MAX_FRAME_LEN, MAX_OBSERVE_LEN, MAX_PROBE_LEN, PROTOCOL_VERSION,
};
pub use server::{NetConfig, NetServer, ServerStats};
pub use shed::{LoadShedder, SloPolicy, Verdict};
pub use workload::{
    run_net_workload, ClassReport, NetOp, NetReport, NetWorkloadSpec, WorkloadError,
};
