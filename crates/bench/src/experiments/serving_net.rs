//! **Serving over the wire** — real TCP clients querying live training
//! runs through `asgd-net`, sweeping clients × read mode × hosted models,
//! plus a deliberate saturation cell demonstrating SLO load shedding.
//!
//! Where the `serving` experiment measures the in-process query path,
//! this one puts the socket boundary in the measured path: a
//! [`NetServer`] over a multi-model [`ModelRegistry`], closed-loop
//! dot-score clients for the grid, and an **open-loop overload pair**
//! (fixed-rate predict traffic past capacity against a compute-heavy
//! model, priorities mixed low/normal/high) run with shedding off and
//! on: the off row shows every class collapsing together, the on row
//! shows the shedder refusing low-priority traffic with explicit `Shed`
//! frames so the executed-request p99 holds at the SLO.
//!
//! Full (non-quick) runs write `BENCH_net.json` into the current
//! directory — the committed wire-serving artifact.

use crate::ExperimentOutput;
use asgd_driver::json::{Json, Value};
use asgd_driver::{json_record, BackendKind, RunSpec};
use asgd_metrics::table::fmt_f;
use asgd_metrics::Table;
use asgd_net::{
    run_net_workload, NetConfig, NetOp, NetServer, NetWorkloadSpec, Priority, SloPolicy,
};
use asgd_oracle::OracleSpec;
use asgd_serve::{Arrival, ModelRegistry, ReadMode};
use std::sync::Arc;
use std::time::Duration;

/// Model dimension of the grid cells (matches the in-process `serving`
/// experiment, so the socket tax is directly readable by comparison).
pub const DIM: usize = 4_096;

/// Model dimension of the overload cells. Deliberately large: a predict
/// walks the whole iterate, so service time (~hundreds of µs) dominates
/// scheduling noise and the shedder's feedback loop genuinely controls
/// the executed-request p99 it observes. With a small model the latency
/// tail is thread-preemption, which no admission policy can remove.
pub const OVERLOAD_DIM: usize = 262_144;

/// The overload cell's latency objective on executed requests, in ns.
pub const OVERLOAD_SLO_NS: u64 = 5_000_000; // 5 ms

/// One measured wire-serving configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"grid"` (closed-loop dot-score), `"overload"` (open-loop predict
    /// at a fixed rate past capacity, mixed priorities, SLO shedding on)
    /// or `"overload-unshed"` (identical traffic, shedding off — the
    /// uncontrolled baseline the shed cell is read against).
    pub cell: String,
    /// Model dimension hosted by the cell.
    pub dim: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// `"live"` or `"snapshot"` (every model in the cell).
    pub mode: String,
    /// Hosted models in the registry (clients round-robin across them).
    pub models: usize,
    /// Arrival label (`closed-loop` / `rate:QPS` per client).
    pub arrival: String,
    /// Op label.
    pub op: String,
    /// Requests put on the wire.
    pub sent: u64,
    /// Requests answered with a value.
    pub answered: u64,
    /// Requests refused with a `Shed` frame.
    pub shed: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Answered throughput (requests/s).
    pub qps: f64,
    /// Median answered latency (ns; client-side, queueing included).
    pub p50_ns: u64,
    /// 99th-percentile answered latency (ns).
    pub p99_ns: u64,
    /// High-priority-class p99 (ns; equals `p99_ns` for grid cells).
    pub high_p99_ns: u64,
    /// The SLO on executed requests (ns; 0 = shedding off).
    pub slo_ns: u64,
    /// The server's rolling p99 over executed requests at window close
    /// (ns; 0 = not enough samples). This is the quantity the SLO
    /// governs — client-side latency additionally pays queueing.
    pub server_p99_ns: u64,
}

json_record!(Row {
    cell,
    dim,
    clients,
    mode,
    models,
    arrival,
    op,
    sent,
    answered,
    shed,
    errors,
    qps,
    p50_ns,
    p99_ns,
    high_p99_ns,
    slo_ns,
    server_p99_ns
});

/// Builds a registry hosting `models` training runs (one trainer thread
/// each — cells must not oversubscribe the measurement machine more than
/// the sweep intends).
fn build_registry(dim: usize, models: usize, mode: ReadMode) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    for m in 0..models {
        let train = RunSpec::new(
            OracleSpec::new("sparse-quadratic", dim).sigma(0.0),
            BackendKind::Hogwild,
        )
        .threads(1)
        .iterations(u64::MAX / 2)
        .learning_rate(0.5 / dim as f64)
        .x0(vec![1.0; dim])
        .seed(0x5E1_F00D + m as u64);
        registry
            .create(&format!("model-{m}"), &train, mode, 2_048)
            .expect("sweep model starts");
    }
    registry
}

/// Runs one cell: fresh registry, fresh server, one socket workload.
fn run_cell(
    cell: &str,
    dim: usize,
    clients: usize,
    mode: ReadMode,
    models: usize,
    spec_for: impl FnOnce(Vec<u32>) -> NetWorkloadSpec,
    config: NetConfig,
) -> Row {
    let registry = build_registry(dim, models, mode);
    let ids: Vec<u32> = registry.list().iter().map(|e| e.id().0).collect();
    let server = NetServer::serve(Arc::clone(&registry), config).expect("server binds loopback");
    let spec = spec_for(ids);
    let report = run_net_workload(server.local_addr(), &spec).expect("workload cell runs");
    let stats = server.stats();
    server.stop();
    registry.shutdown();
    let high_p99_ns = report
        .classes
        .iter()
        .rev() // classes are lowest-priority first
        .find(|c| c.answered > 0)
        .map_or(0, |c| c.latency.p99_ns);
    Row {
        cell: cell.to_string(),
        dim,
        clients,
        mode: mode.label().to_string(),
        models,
        arrival: report.arrival.clone(),
        op: spec.op.label().to_string(),
        sent: report.sent,
        answered: report.answered,
        shed: report.shed,
        errors: report.errors,
        qps: report.qps,
        p50_ns: report.latency.p50_ns,
        p99_ns: report.latency.p99_ns,
        high_p99_ns,
        slo_ns: server
            .shedder()
            .policy()
            .slo
            .map_or(0, |s| s.as_nanos().min(u128::from(u64::MAX)) as u64),
        server_p99_ns: stats.rolling_p99_ns.unwrap_or(0),
    }
}

/// Runs the sweep serially (each cell owns the machine).
#[must_use]
pub fn sweep(quick: bool) -> Vec<Row> {
    // Cell duration bounds the gate's noise floor: closed-loop qps on a
    // shared core swings ~2x between back-to-back 80 ms windows, so the
    // quick cells `bench-check` re-runs need a long enough window to sit
    // inside the 30% tolerance, and the committed full cells longer still.
    let (client_counts, model_counts, secs) = if quick {
        (vec![1, 4], vec![1, 2], 0.25)
    } else {
        (vec![1, 4, 16], vec![1, 4], 1.0)
    };
    let mut rows = Vec::new();
    for &clients in &client_counts {
        for mode in [ReadMode::Live, ReadMode::Snapshot] {
            for &models in &model_counts {
                rows.push(run_cell(
                    "grid",
                    DIM,
                    clients,
                    mode,
                    models,
                    |ids| {
                        NetWorkloadSpec::new(ids)
                            .clients(clients)
                            .duration_secs(secs)
                            .op(NetOp::DotScore)
                            .probe_len(8)
                            .seed(0xCAFE)
                    },
                    NetConfig::default(),
                ));
            }
        }
    }
    rows.extend(overload_cells(quick));
    rows
}

/// The deliberate saturation pair: identical open-loop predict traffic
/// past single-core capacity (one third of the clients in each priority
/// class), run once with shedding off and once with the SLO on. The
/// demonstration the committed artifact carries is the contrast: unshed,
/// every class's latency collapses together; shed, low-priority traffic
/// is refused with explicit frames and the server's executed-request p99
/// holds at the objective for the admitted classes.
#[must_use]
pub fn overload_cells(quick: bool) -> Vec<Row> {
    let (dim, clients, rate, secs) = if quick {
        (32_768, 6, 2_000.0, 0.25)
    } else {
        (OVERLOAD_DIM, 6, 600.0, 2.0)
    };
    let cell = |name: &'static str, config: NetConfig| {
        run_cell(
            name,
            dim,
            clients,
            ReadMode::Snapshot,
            1,
            |ids| {
                NetWorkloadSpec::new(ids)
                    .clients(clients)
                    .duration_secs(secs)
                    .arrival(Arrival::FixedRate { qps: rate })
                    .op(NetOp::Predict)
                    // Client i sends at priorities[i % len]: with six
                    // clients this pins 3×Low / 2×Normal / 1×High, so
                    // the degraded tiers carry 1/2 and 1/6 of the
                    // offered load — room for the admitted classes to
                    // actually meet the objective once Low is refused.
                    .priorities(vec![
                        Priority::Low,
                        Priority::Low,
                        Priority::Low,
                        Priority::Normal,
                        Priority::Normal,
                        Priority::High,
                    ])
                    .seed(0xBAD_10AD)
            },
            config.max_connections(clients + 4),
        )
    };
    vec![
        cell("overload-unshed", NetConfig::default()),
        cell(
            "overload",
            NetConfig::default().slo(SloPolicy {
                slo: Some(Duration::from_nanos(OVERLOAD_SLO_NS)),
                // Shed at 70% of the objective: the threshold controller
                // regulates the rolling p99 to its trigger, so the
                // headroom is what keeps the settled value *inside* the
                // declared SLO rather than hovering at it.
                trigger_ratio: 0.7,
                release_ratio: 0.85,
                window_buckets: 8,
                bucket_capacity: 128,
                min_samples: 64,
            }),
        ),
    ]
}

/// Serialises the sweep to the `BENCH_net.json` value tree.
#[must_use]
pub fn to_json(rows: &[Row]) -> Value {
    Value::obj([
        ("experiment", Value::Str("serving-net".to_string())),
        ("backend", Value::Str("hogwild".to_string())),
        ("oracle", Value::Str("sparse-quadratic".to_string())),
        ("dim", Value::U64(DIM as u64)),
        ("transport", Value::Str("tcp-loopback".to_string())),
        (
            "rows",
            Value::Arr(rows.iter().map(Json::to_value).collect()),
        ),
    ])
}

/// Runs the experiment. Non-quick runs also write `BENCH_net.json` into
/// the current directory.
#[must_use]
pub fn run(quick: bool) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("serving-net");
    let rows = sweep(quick);
    let mut table = Table::new(
        "Serving over TCP loopback: wire-protocol clients vs live hogwild training (sparse-quadratic, multi-model registry)",
        &[
            "cell", "dim", "clients", "mode", "models", "arrival", "op", "sent", "answered",
            "shed", "qps", "p50 µs", "p99 µs", "high p99 µs", "srv p99 µs", "slo µs",
        ],
    );
    for r in &rows {
        table.row(&[
            r.cell.clone(),
            r.dim.to_string(),
            r.clients.to_string(),
            r.mode.clone(),
            r.models.to_string(),
            r.arrival.clone(),
            r.op.clone(),
            r.sent.to_string(),
            r.answered.to_string(),
            r.shed.to_string(),
            fmt_f(r.qps),
            format!("{:.1}", r.p50_ns as f64 / 1e3),
            format!("{:.1}", r.p99_ns as f64 / 1e3),
            format!("{:.1}", r.high_p99_ns as f64 / 1e3),
            format!("{:.1}", r.server_p99_ns as f64 / 1e3),
            format!("{:.1}", r.slo_ns as f64 / 1e3),
        ]);
    }
    out.tables.push(table);
    if let Some(over) = rows.iter().find(|r| r.cell == "overload") {
        out.notes.push(format!(
            "[overload] offered {} reqs, answered {}, shed {} ({}%); server executed-request p99 {:.1} µs against a {:.1} µs SLO",
            over.sent,
            over.answered,
            over.shed,
            (over.shed * 100).checked_div(over.sent).unwrap_or(0),
            over.server_p99_ns as f64 / 1e3,
            over.slo_ns as f64 / 1e3,
        ));
        if let Some(base) = rows.iter().find(|r| r.cell == "overload-unshed") {
            out.notes.push(format!(
                "[overload] same traffic unshed: client p99 {:.1} µs vs {:.1} µs shed ({:.1}x); server p99 {:.1} µs vs {:.1} µs",
                base.p99_ns as f64 / 1e3,
                over.p99_ns as f64 / 1e3,
                if over.p99_ns > 0 { base.p99_ns as f64 / over.p99_ns as f64 } else { 0.0 },
                base.server_p99_ns as f64 / 1e3,
                over.server_p99_ns as f64 / 1e3,
            ));
        }
    }
    if !quick {
        let path = std::path::Path::new("BENCH_net.json");
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
    fn quick_sweep_covers_grid_and_overload_and_round_trips_json() {
        let rows = sweep(true);
        assert_eq!(rows.len(), 2 * 2 * 2 + 2, "grid cells + overload pair");
        assert!(rows.iter().any(|r| r.mode == "live"));
        assert!(rows.iter().any(|r| r.mode == "snapshot"));
        for r in rows.iter().filter(|r| r.cell == "grid") {
            assert!(r.answered > 0, "{r:?}: nothing answered");
            assert_eq!(r.errors, 0, "{r:?}: grid traffic must not error");
            assert_eq!(r.shed, 0, "{r:?}: shedding is off for grid cells");
            assert!(r.qps > 0.0, "{r:?}");
            assert!(r.p99_ns >= r.p50_ns, "{r:?}: percentile order");
        }
        let base = rows
            .iter()
            .find(|r| r.cell == "overload-unshed")
            .expect("baseline cell");
        assert_eq!(base.slo_ns, 0, "{base:?}: baseline runs with shedding off");
        assert_eq!(base.shed, 0, "{base:?}: nothing to shed without an SLO");
        let over = rows.iter().find(|r| r.cell == "overload").expect("cell");
        assert!(over.sent > 0 && over.answered > 0, "{over:?}");
        assert_eq!(over.slo_ns, OVERLOAD_SLO_NS);
        assert_eq!(
            over.errors, 0,
            "{over:?}: overload answers are shed, not errors"
        );
        // Whether shedding engages in a sub-second quick cell is machine-
        // dependent; the committed BENCH_net.json carries the full-run
        // demonstration. Structure must hold either way:
        assert_eq!(
            over.sent,
            over.answered + over.shed + over.errors,
            "{over:?}: every request gets an explicit outcome"
        );
        let json = to_json(&rows).to_json();
        let back = asgd_driver::json::parse(&json).expect("valid JSON");
        assert_eq!(
            back.get("rows").and_then(|v| v.as_arr()).map(<[_]>::len),
            Some(rows.len())
        );
    }
}
