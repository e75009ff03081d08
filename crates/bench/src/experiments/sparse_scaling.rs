//! **O(Δ) vs O(d)** — the sparse fast path's measured d/Δ win.
//!
//! The paper's bounds are parameterized by the gradient sparsity Δ (§3);
//! this experiment measures what that parameterisation is worth on real
//! hardware: the same `sparse-quadratic` workload (Δ = 1) run through the
//! native Hogwild backend on the dense O(d) path and the sparse O(Δ) path,
//! sweeping d ∈ {16, 1k, 64k} × threads ∈ {1, 2, 4, 8} at a fixed
//! iteration budget. At d = 64k the dense path reads and scans 64k entries
//! per iteration to apply one update; the sparse path reads one.
//!
//! A second grid takes the sparse path to serving-scale dimensions —
//! d ∈ {1M, 10M} — and compares the default single-arena (1-shard) store
//! against the topology-sharded one ([`sweep_store_cells`]): same claims,
//! same coin streams, different arena routing. At these dimensions one flat
//! arena spans hundreds of cache-line-sized pages; sharding keeps each
//! worker's hot range compact.
//!
//! Full (non-quick) runs write `BENCH_sparse_path.json` into the current
//! directory — the workspace's perf trajectory artifact.

use crate::ExperimentOutput;
use asgd_driver::json::{Json, Value};
use asgd_driver::{json_record, BackendKind, Driver, PinSpec, RunSpec, ShardsSpec, SparsePathSpec};
use asgd_metrics::table::fmt_f;
use asgd_metrics::Table;
use asgd_oracle::OracleSpec;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// Model dimension.
    pub d: usize,
    /// Worker threads.
    pub threads: usize,
    /// `"dense"` or `"sparse"`.
    pub path: String,
    /// `"flat"` (one shard, the default) or `"sharded"` (`auto` shards) —
    /// how the parameter store was split.
    pub store: String,
    /// Iteration budget (identical across paths).
    pub iterations: u64,
    /// Wall-clock seconds of the parallel section.
    pub wall_time_secs: f64,
    /// Iterations per second.
    pub iters_per_sec: f64,
}

json_record!(Row {
    d,
    threads,
    path,
    store,
    iterations,
    wall_time_secs,
    iters_per_sec
});

fn cell_spec(
    d: usize,
    threads: usize,
    sparse: SparsePathSpec,
    shards: ShardsSpec,
    iterations: u64,
) -> RunSpec {
    // Δ = 1 single-coordinate gradients have magnitude d·x_j, so stability
    // needs α ~ 1/d; noiseless keeps every run finite at any d.
    RunSpec::new(
        OracleSpec::new("sparse-quadratic", d).sigma(0.0),
        BackendKind::Hogwild,
    )
    .threads(threads)
    .iterations(iterations)
    .learning_rate(0.5 / d as f64)
    .x0(vec![1.0; d])
    .seed(0xD0_0D)
    .sparse(sparse)
    .shards(shards)
}

fn row_from(spec: &RunSpec, report: &asgd_driver::RunReport) -> Row {
    Row {
        d: spec.oracle.dim,
        threads: spec.threads,
        path: if report.sparse_path == Some(true) {
            "sparse"
        } else {
            "dense"
        }
        .to_string(),
        store: match spec.shards {
            ShardsSpec::Auto => "sharded",
            ShardsSpec::Fixed(_) => "flat",
        }
        .to_string(),
        iterations: spec.iterations,
        wall_time_secs: report.wall_time_secs,
        iters_per_sec: report.iterations_per_sec(),
    }
}

/// Runs a spec list through [`Driver::run_many`] with a single-worker pool:
/// like the `speedup` experiment, the throughput columns are the output, so
/// a cell must not share cores with the twin it is being compared against.
fn measure(specs: &[RunSpec]) -> Vec<Row> {
    let reports = Driver::new().workers(1).run_many(specs);
    specs
        .iter()
        .zip(reports)
        .map(|(spec, report)| row_from(spec, &report.expect("sparse-scaling spec runs")))
        .collect()
}

/// The dense-vs-sparse grid (1-shard store).
#[must_use]
pub fn sweep(quick: bool) -> Vec<Row> {
    if quick {
        sweep_cells(&[16, 1024], &[1, 2], 2_000)
    } else {
        sweep_cells(&[16, 1024, 65_536], &[1, 2, 4, 8], 20_000)
    }
}

/// Measures an explicit `dims × thread_counts` grid at a caller-chosen
/// iteration budget (both paths per cell, dense first; 1-shard store).
/// `bench-check` uses this to re-measure a corner of the committed grid at
/// the committed budget, so its throughput comparison is apples-to-apples.
#[must_use]
pub fn sweep_cells(dims: &[usize], thread_counts: &[usize], iterations: u64) -> Vec<Row> {
    let mut specs = Vec::new();
    for &d in dims {
        for &threads in thread_counts {
            for path in [SparsePathSpec::Dense, SparsePathSpec::Sparse] {
                specs.push(cell_spec(
                    d,
                    threads,
                    path,
                    ShardsSpec::Fixed(1),
                    iterations,
                ));
            }
        }
    }
    measure(&specs)
}

/// The flat-vs-sharded store grid: every cell runs the sparse O(Δ) path
/// (the dense O(d) scan at d = 10M would measure memory bandwidth, not the
/// store), the 1-shard store first, then the topology-sharded store.
/// Workers are pinned in both cells so the comparison shares one placement.
#[must_use]
pub fn sweep_store_cells(dims: &[usize], thread_counts: &[usize], iterations: u64) -> Vec<Row> {
    let mut specs = Vec::new();
    for &d in dims {
        for &threads in thread_counts {
            for shards in [ShardsSpec::Fixed(1), ShardsSpec::Auto] {
                specs.push(
                    cell_spec(d, threads, SparsePathSpec::Sparse, shards, iterations)
                        .pin(PinSpec::On),
                );
            }
        }
    }
    measure(&specs)
}

/// The sparse/dense throughput ratio for each `(d, threads)` cell of the
/// dense-vs-sparse grid.
#[must_use]
pub fn speedups(rows: &[Row]) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for pair in rows.chunks(2) {
        let [dense, sparse] = pair else { continue };
        debug_assert_eq!(dense.path, "dense");
        debug_assert_eq!(sparse.path, "sparse");
        out.push((
            dense.d,
            dense.threads,
            sparse.iters_per_sec / dense.iters_per_sec,
        ));
    }
    out
}

/// The sharded/flat throughput ratio for each `(d, threads)` cell of the
/// store grid.
#[must_use]
pub fn store_speedups(rows: &[Row]) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for pair in rows.chunks(2) {
        let [flat, sharded] = pair else { continue };
        debug_assert_eq!(flat.store, "flat");
        debug_assert_eq!(sharded.store, "sharded");
        out.push((
            flat.d,
            flat.threads,
            sharded.iters_per_sec / flat.iters_per_sec,
        ));
    }
    out
}

/// Serialises the sweep to the `BENCH_sparse_path.json` value tree.
#[must_use]
pub fn to_json(rows: &[Row]) -> Value {
    Value::obj([
        ("experiment", Value::Str("sparse-scaling".to_string())),
        ("backend", Value::Str("hogwild".to_string())),
        ("oracle", Value::Str("sparse-quadratic".to_string())),
        (
            "rows",
            Value::Arr(rows.iter().map(Json::to_value).collect()),
        ),
    ])
}

/// Runs the experiment. Non-quick runs also write `BENCH_sparse_path.json`
/// into the current directory.
#[must_use]
pub fn run(quick: bool) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("sparse_scaling");
    let path_rows = sweep(quick);
    // The store grid gets a deeper budget than the path grid: its cells
    // differ by a few percent (not the sparse path's orders of magnitude),
    // so thread spawn and pinning overhead must be amortised away for the
    // flat/sharded ratio to measure the stores.
    let store_rows = if quick {
        sweep_store_cells(&[1024], &[2], 2_000)
    } else {
        sweep_store_cells(&[1 << 20, 10_000_000], &[1, 4], 1_000_000)
    };
    let mut table = Table::new(
        "O(Δ) sparse path vs O(d) dense path: hogwild on sparse-quadratic (Δ=1), equal budgets",
        &["d", "threads", "path", "store", "wall s", "iters/s"],
    );
    for r in path_rows.iter().chain(&store_rows) {
        table.row(&[
            r.d.to_string(),
            r.threads.to_string(),
            r.path.clone(),
            r.store.clone(),
            format!("{:.4}", r.wall_time_secs),
            fmt_f(r.iters_per_sec),
        ]);
    }
    out.tables.push(table);
    for (d, threads, speedup) in speedups(&path_rows) {
        out.notes.push(format!(
            "d={d} n={threads}: sparse path {speedup:.1}x dense throughput"
        ));
    }
    for (d, threads, ratio) in store_speedups(&store_rows) {
        out.notes.push(format!(
            "d={d} n={threads}: sharded store {ratio:.2}x flat throughput (sparse path)"
        ));
    }
    if !quick {
        let mut rows = path_rows;
        rows.extend(store_rows);
        let path = std::path::Path::new("BENCH_sparse_path.json");
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
    fn quick_sweep_covers_both_paths_and_round_trips_json() {
        let rows = sweep(true);
        assert_eq!(rows.len(), 2 * 2 * 2, "dims × threads × paths");
        assert!(rows.iter().any(|r| r.path == "sparse"));
        assert!(rows.iter().any(|r| r.path == "dense"));
        for r in &rows {
            assert_eq!(r.store, "flat");
            assert!(r.wall_time_secs >= 0.0);
            assert!(r.iters_per_sec > 0.0, "{r:?}");
        }
        let json = to_json(&rows).to_json();
        let back = asgd_driver::json::parse(&json).expect("valid JSON");
        assert_eq!(
            back.get("rows").and_then(|v| v.as_arr()).map(<[_]>::len),
            Some(rows.len())
        );
        // No perf assertion here (CI boxes are noisy); the committed
        // BENCH_sparse_path.json carries the full-run numbers.
        assert_eq!(speedups(&rows).len(), rows.len() / 2);
    }

    #[test]
    fn store_sweep_pairs_flat_with_sharded_on_the_sparse_path() {
        let rows = sweep_store_cells(&[512], &[2], 1_000);
        assert_eq!(rows.len(), 2, "flat + sharded");
        assert_eq!(rows[0].store, "flat");
        assert_eq!(rows[1].store, "sharded");
        for r in &rows {
            assert_eq!(r.path, "sparse", "{r:?}");
            assert!(r.iters_per_sec > 0.0, "{r:?}");
        }
        let ratios = store_speedups(&rows);
        assert_eq!(ratios.len(), 1);
        assert!(ratios[0].2.is_finite() && ratios[0].2 > 0.0);
    }
}
