//! Experiment plumbing: repeated trials, probability estimation, exact
//! order statistics and table/CSV rendering.
//!
//! The paper's guarantees are *probabilistic* (bounds on `P(F_T)`), so the
//! experiment harness estimates failure probabilities over many independent
//! seeded trials and reports Wilson confidence intervals next to the
//! theoretical bounds. This crate provides those estimators plus the
//! fixed-width tables and CSV files every experiment emits.
//!
//! # Example
//!
//! ```
//! use asgd_metrics::trials::estimate_probability;
//!
//! // A "failure" occurs when the seed is even — P = 0.5.
//! let est = estimate_probability(200, 42, |seed| seed % 2 == 0);
//! assert!(est.interval.lower < 0.5 && 0.5 < est.interval.upper);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod quantile;
pub mod queue;
pub mod table;
pub mod trials;

pub use quantile::nearest_rank;
pub use queue::{QueueCounters, QueueStats};
pub use table::Table;
pub use trials::{estimate_probability, trial_stats, ProbabilityEstimate};
