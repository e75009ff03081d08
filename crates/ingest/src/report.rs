//! The ingest experiment report: what the fleet sent, what the queue did
//! with it, and how fast the trainer recovered from drift.
//!
//! Serializes through [`asgd_driver::json_record!`] with an exact
//! round-trip (`to_json` → [`IngestReport::from_json`] → equal), matching
//! the repo-wide report convention so bench artifacts can be committed and
//! re-checked.

use asgd_driver::json_record;

/// The drift event as it actually happened (vs. the scheduled spec).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftOutcome {
    /// What moved (canonical [`DriftKind::label`](crate::DriftKind::label)).
    pub kind: String,
    /// Seconds into the run when it fired.
    pub at_secs: f64,
    /// Training iterations reflected when it fired.
    pub at_iteration: u64,
}

json_record!(DriftOutcome {
    kind,
    at_secs,
    at_iteration
});

/// One ingest run, end to end: fleet → wire → queue → trainer → recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Producers in the fleet.
    pub producers: usize,
    /// Backpressure policy label (`block`, `drop-oldest`, `reject`).
    pub policy: String,
    /// Ingress queue capacity.
    pub capacity: usize,
    /// Observations acknowledged by the server across the fleet.
    pub observations_sent: u64,
    /// Submit calls that ended in a client-side error (refused, shed,
    /// or indeterminate transport failure — never silently retried).
    pub send_failures: u64,
    /// Observations accepted into the queue.
    pub pushed: u64,
    /// Observations consumed by the trainer.
    pub consumed: u64,
    /// Observations evicted under `drop-oldest`.
    pub dropped: u64,
    /// Observations refused under `reject` / full `block` timeouts.
    pub rejected: u64,
    /// Pops that found the queue empty (prior-fallback gradient steps).
    pub starved: u64,
    /// Mean queue depth seen by consumed observations (the delay τ
    /// analogue of the stream tier).
    pub lag_mean: f64,
    /// Maximum queue depth seen by a consumed observation.
    pub lag_max: u64,
    /// The drift that fired, if any.
    pub drift: Option<DriftOutcome>,
    /// `‖x − θ*‖²` just before drift (last pre-drift recovery sample).
    pub baseline_dist_sq: f64,
    /// `‖x − θ*‖²` just after drift (first post-drift recovery sample).
    pub drift_dist_sq: f64,
    /// Seconds from drift to the first sample back inside the success
    /// region (`None`: never recovered within the run).
    pub time_to_recover_secs: Option<f64>,
    /// `‖x − θ*‖²` at teardown.
    pub final_dist_sq: f64,
    /// Training iterations completed by teardown.
    pub train_iterations: u64,
    /// Wall-clock seconds the fleet ran.
    pub wall_time_secs: f64,
}

json_record!(IngestReport {
    producers,
    policy,
    capacity,
    observations_sent,
    send_failures,
    pushed,
    consumed,
    dropped,
    rejected,
    starved,
    lag_mean,
    lag_max,
    drift,
    baseline_dist_sq,
    drift_dist_sq,
    time_to_recover_secs,
    final_dist_sq,
    train_iterations,
    wall_time_secs
});

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_driver::json::{Json, Value};

    fn sample(drifted: bool) -> IngestReport {
        IngestReport {
            producers: 4,
            policy: "drop-oldest".to_string(),
            capacity: 256,
            observations_sent: 10_000,
            send_failures: 12,
            pushed: 10_000,
            consumed: 9_200,
            dropped: 800,
            rejected: 0,
            starved: 123_456,
            lag_mean: 17.25,
            lag_max: 256,
            drift: drifted.then(|| DriftOutcome {
                kind: "negate".to_string(),
                at_secs: 0.5,
                at_iteration: 1_000_000,
            }),
            baseline_dist_sq: 0.002,
            drift_dist_sq: 0.31,
            time_to_recover_secs: drifted.then_some(0.0625),
            final_dist_sq: 0.0015,
            train_iterations: 4_200_000,
            wall_time_secs: 1.5,
        }
    }

    #[test]
    fn reports_round_trip_exactly() {
        for drifted in [true, false] {
            let report = sample(drifted);
            let back = IngestReport::from_json(&report.to_json()).expect("parses");
            assert_eq!(back, report);
        }
    }

    #[test]
    fn missing_fields_are_typed_errors() {
        assert!(IngestReport::from_json("{}").is_err());
        assert!(IngestReport::from_json("not json").is_err());
        // A present-but-mistyped optional field is an error, not None.
        let mut v = sample(true).to_value();
        if let Value::Obj(fields) = &mut v {
            fields.insert(
                "time_to_recover_secs".to_string(),
                Value::Str("soon".to_string()),
            );
        }
        assert!(IngestReport::from_value(&v).is_err());
    }
}
