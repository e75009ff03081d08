//! **Continual learning from the live stream** — the closed loop:
//! producer fleets push labeled observations through the wire protocol's
//! submit-observe opcode into a bounded ingress queue, a hogwild trainer
//! consumes them through its streaming oracle, the ground truth drifts
//! mid-run, and the measured quantity is the **time to recover** — the
//! stream-side analogue of the paper's success-region hitting time after
//! an adversarial perturbation.
//!
//! The sweep crosses fleet size × backpressure policy, every cell with a
//! scheduled negate drift (θ* flips sign halfway through). Each cell runs
//! the full loop over a real TCP socket: the contrast the table carries is
//! how the policies degrade — `block` applies backpressure to the fleet,
//! `drop-oldest` sheds stale observations (bounding the queue-lag τ),
//! `reject` refuses at the wire with explicit `Overloaded` frames — while
//! every cell still recovers in finite time.
//!
//! Full (non-quick) runs write `BENCH_ingest.json` into the current
//! directory — the committed continual-learning artifact.

use crate::ExperimentOutput;
use asgd_driver::json::{Json, Value};
use asgd_driver::{BackendKind, RunSpec};
use asgd_ingest::{heterogeneous_fleet, DriftSpec, IngestReport, IngestSpec};
use asgd_metrics::table::fmt_f;
use asgd_metrics::Table;
use asgd_oracle::{BackpressurePolicy, OracleSpec};
use std::time::Duration;

/// Model dimension of every cell. Small on purpose: the interesting
/// dynamics are queueing and recovery, not gradient arithmetic, and a
/// small model keeps per-observation work far below the socket cost so
/// the trainer is never the bottleneck.
pub const DIM: usize = 8;

/// Ingress queue capacity of every cell.
pub const CAPACITY: usize = 64;

/// Per-observation learning rate. With unit-magnitude sparse features at
/// sparsity 4 this closes the drift gap in tens of milliseconds of
/// stream traffic — well inside every cell's window.
pub const ALPHA: f64 = 0.05;

/// Builds one cell's spec: a flat-prior streaming trainer (starved steps
/// hold position, so the live stream alone shapes the model), a
/// heterogeneous fleet alternating fast and slow producers, and a negate
/// drift scheduled at `drift_at` seconds.
#[must_use]
pub fn cell_spec(
    producers: usize,
    policy: BackpressurePolicy,
    duration_secs: f64,
    drift_at: f64,
) -> IngestSpec {
    IngestSpec {
        train: RunSpec::new(OracleSpec::new("flat", DIM), BackendKind::Hogwild)
            .threads(2)
            .iterations(u64::MAX / 4)
            .learning_rate(ALPHA)
            .x0(vec![0.0; DIM])
            .seed(11),
        capacity: CAPACITY,
        policy,
        producers: heterogeneous_fleet(producers, Duration::from_micros(200), 4),
        label_noise: 0.0,
        theta0: vec![0.8; DIM],
        drift: Some(DriftSpec::negate_after(drift_at)),
        duration_secs,
        recover_frac: 0.5,
        sample_interval: Duration::from_millis(2),
        seed: 0x106E57,
    }
}

/// Runs the sweep serially (each cell owns the machine): fleet size ×
/// backpressure policy, every cell drifted.
#[must_use]
pub fn sweep(quick: bool) -> Vec<IngestReport> {
    let (fleets, duration, drift_at) = if quick {
        (vec![2], 0.8, 0.3)
    } else {
        (vec![1, 4], 1.6, 0.6)
    };
    let mut rows = Vec::new();
    for &producers in &fleets {
        for policy in [
            BackpressurePolicy::Block,
            BackpressurePolicy::DropOldest,
            BackpressurePolicy::Reject,
        ] {
            let report = cell_spec(producers, policy, duration, drift_at)
                .run(None)
                .expect("ingest cell runs");
            rows.push(report);
        }
    }
    rows
}

/// Serialises the sweep to the `BENCH_ingest.json` value tree.
#[must_use]
pub fn to_json(rows: &[IngestReport]) -> Value {
    Value::obj([
        ("experiment", Value::Str("ingest".to_string())),
        ("prior", Value::Str("flat".to_string())),
        ("dim", Value::U64(DIM as u64)),
        ("transport", Value::Str("tcp-loopback".to_string())),
        (
            "rows",
            Value::Arr(rows.iter().map(Json::to_value).collect()),
        ),
    ])
}

/// Runs the experiment. Non-quick runs also write `BENCH_ingest.json`
/// into the current directory.
#[must_use]
pub fn run(quick: bool) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("ingest");
    let rows = sweep(quick);
    let mut table = Table::new(
        "Continual learning over TCP loopback: producer fleet -> bounded ingress queue -> streaming hogwild, negate drift mid-run (flat prior)",
        &[
            "producers", "policy", "sent", "consumed", "dropped", "rejected", "lag mean",
            "drift @s", "jump dist2", "recover ms", "final dist2", "iters",
        ],
    );
    for r in &rows {
        table.row(&[
            r.producers.to_string(),
            r.policy.clone(),
            r.observations_sent.to_string(),
            r.consumed.to_string(),
            r.dropped.to_string(),
            r.rejected.to_string(),
            fmt_f(r.lag_mean),
            r.drift
                .as_ref()
                .map_or_else(|| "-".to_string(), |d| format!("{:.2}", d.at_secs)),
            fmt_f(r.drift_dist_sq),
            r.time_to_recover_secs
                .map_or_else(|| "never".to_string(), |t| format!("{:.1}", t * 1e3)),
            fmt_f(r.final_dist_sq),
            r.train_iterations.to_string(),
        ]);
    }
    out.tables.push(table);
    let recovered = rows
        .iter()
        .filter(|r| r.time_to_recover_secs.is_some())
        .count();
    out.notes.push(format!(
        "[ingest] {recovered}/{} drifted cells recovered (closed >= 50% of the drift gap)",
        rows.len()
    ));
    if !quick {
        let path = std::path::Path::new("BENCH_ingest.json");
        match std::fs::write(path, to_json(&rows).to_json_pretty() + "\n") {
            Ok(()) => out.notes.push(format!("[json] {}", path.display())),
            Err(e) => out
                .notes
                .push(format!("[json] failed to write {}: {e}", path.display())),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_recovers_under_every_policy_and_round_trips_json() {
        let rows = sweep(true);
        assert_eq!(rows.len(), 3, "one quick cell per backpressure policy");
        for r in &rows {
            assert!(r.observations_sent > 0, "{r:?}: fleet delivered nothing");
            assert!(r.consumed > 0, "{r:?}: trainer never consumed the stream");
            let drift = r.drift.as_ref().expect("drift fired");
            assert_eq!(drift.kind, "negate");
            let ttr = r.time_to_recover_secs.expect("cell recovered");
            assert!(ttr >= 0.0 && ttr < r.wall_time_secs, "{r:?}");
        }
        // The policies must be distinguishable in the artifact.
        let policies: Vec<&str> = rows.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(policies, ["block", "drop-oldest", "reject"]);
        let json = to_json(&rows).to_json();
        let back = asgd_driver::json::parse(&json).expect("valid JSON");
        let parsed = back.get("rows").and_then(Value::as_arr).expect("rows");
        assert_eq!(parsed.len(), rows.len());
        for (v, r) in parsed.iter().zip(&rows) {
            assert_eq!(&IngestReport::from_value(v).expect("row parses"), r);
        }
    }
}
