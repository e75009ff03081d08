//! **Serving under training fire** — latency/throughput/staleness of
//! concurrent model reads racing live hogwild writers.
//!
//! The ROADMAP's north star is a model that serves traffic *while*
//! training; the paper's bounded-delay analysis is exactly why that is
//! sound. This experiment measures the serving plane: a hogwild run on
//! `sparse-quadratic` with closed-loop dot-score clients hammering the
//! shared model, sweeping client count × read mode × trainer threads.
//! `live` reads race the trainers entry by entry; `snapshot` reads go
//! through the epoch-versioned double buffer (coherent, at most
//! `publish_stride` iterations stale).
//!
//! Full (non-quick) runs write `BENCH_serving.json` into the current
//! directory — the committed serving-telemetry artifact.

use crate::ExperimentOutput;
use asgd_driver::json::{Json, Value};
use asgd_driver::{json_record, BackendKind, RunSpec};
use asgd_metrics::table::fmt_f;
use asgd_metrics::Table;
use asgd_oracle::OracleSpec;
use asgd_serve::{QueryKind, ReadMode, ServeSpec};

/// One measured serving configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// `"live"` or `"snapshot"`.
    pub mode: String,
    /// Trainer threads underneath.
    pub trainer_threads: usize,
    /// Queries answered in the window.
    pub queries: u64,
    /// Aggregate throughput (queries/s).
    pub qps: f64,
    /// Median query latency (ns).
    pub p50_ns: u64,
    /// 99th-percentile query latency (ns).
    pub p99_ns: u64,
    /// 99.9th-percentile query latency (ns).
    pub p999_ns: u64,
    /// Mean snapshot staleness in training iterations (0 for live mode).
    pub staleness_mean: f64,
    /// Worst observed staleness (0 for live mode).
    pub staleness_max: u64,
    /// Training iterations executed during the window.
    pub train_iterations: u64,
    /// Training throughput sustained under serving load (iters/s).
    pub train_iters_per_sec: f64,
}

json_record!(Row {
    clients,
    mode,
    trainer_threads,
    queries,
    qps,
    p50_ns,
    p99_ns,
    p999_ns,
    staleness_mean,
    staleness_max,
    train_iterations,
    train_iters_per_sec
});

/// Model dimension of the sweep (big enough that a coherent copy is real
/// work, small enough for CI smoke runs).
pub const DIM: usize = 4_096;

fn serve_spec(clients: usize, mode: ReadMode, trainer_threads: usize, secs: f64) -> ServeSpec {
    // Δ=1 sparse gradients: the trainers run the O(Δ) path, so training
    // makes real progress even while client threads steal the cores. The
    // iteration budget is effectively unbounded — the serving window closes
    // the run via cancellation.
    let train = RunSpec::new(
        OracleSpec::new("sparse-quadratic", DIM).sigma(0.0),
        BackendKind::Hogwild,
    )
    .threads(trainer_threads)
    .iterations(u64::MAX / 2)
    .learning_rate(0.5 / DIM as f64)
    .x0(vec![1.0; DIM])
    .seed(0x5E1_F00D);
    ServeSpec::new(train)
        .mode(mode)
        .query(QueryKind::DotScore)
        .clients(clients)
        .duration_secs(secs)
        .publish_every(2_048)
        .serve_seed(0xCAFE)
}

/// Runs the sweep serially (each cell owns the machine: the latency and
/// throughput columns are the output, so cells must not share cores).
#[must_use]
pub fn sweep(quick: bool) -> Vec<Row> {
    let (client_counts, thread_counts, secs): (Vec<usize>, Vec<usize>, f64) = if quick {
        (vec![1, 4], vec![1, 2], 0.08)
    } else {
        (vec![1, 8, 64], vec![1, 4], 0.3)
    };
    let mut rows = Vec::new();
    for &clients in &client_counts {
        for mode in [ReadMode::Live, ReadMode::Snapshot] {
            for &threads in &thread_counts {
                let report = serve_spec(clients, mode, threads, secs)
                    .run()
                    .expect("serving sweep cell runs");
                rows.push(Row {
                    clients,
                    mode: mode.label().to_string(),
                    trainer_threads: threads,
                    queries: report.queries,
                    qps: report.qps,
                    p50_ns: report.latency.p50_ns,
                    p99_ns: report.latency.p99_ns,
                    p999_ns: report.latency.p999_ns,
                    staleness_mean: report.staleness.as_ref().map_or(0.0, |s| s.mean),
                    staleness_max: report.staleness.as_ref().map_or(0, |s| s.max),
                    train_iterations: report.train.iterations,
                    train_iters_per_sec: report.train.iterations as f64
                        / report.train.wall_time_secs.max(f64::MIN_POSITIVE),
                });
            }
        }
    }
    rows
}

/// Serialises the sweep to the `BENCH_serving.json` value tree.
#[must_use]
pub fn to_json(rows: &[Row]) -> Value {
    Value::obj([
        ("experiment", Value::Str("serving".to_string())),
        ("backend", Value::Str("hogwild".to_string())),
        ("oracle", Value::Str("sparse-quadratic".to_string())),
        ("dim", Value::U64(DIM as u64)),
        ("query", Value::Str("dot-score".to_string())),
        ("arrival", Value::Str("closed-loop".to_string())),
        (
            "rows",
            Value::Arr(rows.iter().map(Json::to_value).collect()),
        ),
    ])
}

/// Runs the experiment. Non-quick runs also write `BENCH_serving.json`
/// into the current directory.
#[must_use]
pub fn run(quick: bool) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("serving");
    let rows = sweep(quick);
    let mut table = Table::new(
        "Serving under training: closed-loop dot-score clients vs live hogwild writers (sparse-quadratic)",
        &[
            "clients",
            "mode",
            "trainers",
            "queries",
            "qps",
            "p50 µs",
            "p99 µs",
            "p999 µs",
            "stale avg",
            "stale max",
            "train iters/s",
        ],
    );
    for r in &rows {
        table.row(&[
            r.clients.to_string(),
            r.mode.clone(),
            r.trainer_threads.to_string(),
            r.queries.to_string(),
            fmt_f(r.qps),
            format!("{:.1}", r.p50_ns as f64 / 1e3),
            format!("{:.1}", r.p99_ns as f64 / 1e3),
            format!("{:.1}", r.p999_ns as f64 / 1e3),
            fmt_f(r.staleness_mean),
            r.staleness_max.to_string(),
            fmt_f(r.train_iters_per_sec),
        ]);
    }
    out.tables.push(table);
    if !quick {
        let path = std::path::Path::new("BENCH_serving.json");
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
    fn quick_sweep_covers_both_modes_and_round_trips_json() {
        let rows = sweep(true);
        assert_eq!(rows.len(), 2 * 2 * 2, "clients × modes × trainers");
        assert!(rows.iter().any(|r| r.mode == "live"));
        assert!(rows.iter().any(|r| r.mode == "snapshot"));
        for r in &rows {
            assert!(r.queries > 0, "{r:?}: no queries answered");
            assert!(r.qps > 0.0, "{r:?}");
            assert!(r.p99_ns >= r.p50_ns, "{r:?}: percentile order");
            assert!(r.p999_ns >= r.p99_ns, "{r:?}: percentile order");
            assert!(r.train_iterations > 0, "{r:?}: training starved");
            if r.mode == "live" {
                assert_eq!(r.staleness_max, 0, "{r:?}: live reads have no staleness");
            }
        }
        let json = to_json(&rows).to_json();
        let back = asgd_driver::json::parse(&json).expect("valid JSON");
        assert_eq!(
            back.get("rows").and_then(|v| v.as_arr()).map(<[_]>::len),
            Some(rows.len())
        );
        // No latency assertions (CI boxes are noisy); the committed
        // BENCH_serving.json carries the full-run numbers.
    }
}
