//! `bench-check` — the committed-artifact regression gate.
//!
//! The repo commits full-run artifacts for the serving tiers
//! (`BENCH_serving.json`, `BENCH_net.json`) **and** the training side
//! (`BENCH_sparse_path.json`, `BENCH_validation.json`). This module
//! re-measures fresh and compares every cell whose configuration appears
//! on both sides, all under one tolerance (default 30%):
//!
//! - **serving / serving-net**: fresh *quick* sweeps; answered throughput
//!   must not drop, and p99 latency must not rise, past the tolerance
//!   (p99 breaches additionally need [`P99_NOISE_FLOOR_NS`] of absolute
//!   slack before they count). The deliberately saturated `overload` cell
//!   is excluded on principle — its latency is governed by the shedding
//!   policy, not by code speed.
//! - **sparse-path**: the committed grid's `d ≤ 1024` corner re-measured
//!   at the committed iteration budget (quick cells are too short — thread
//!   spawn would dominate); per-cell `iters_per_sec` must not drop.
//! - **validation**: a fresh quick theory-validation corner derived at the
//!   committed plan parameters; every intersecting cell must stay
//!   consistent with its upper bound, and the *derived* quantities
//!   (α, horizon, total iterations, bound) must agree with the committed
//!   artifact within the tolerance. Fewer fresh trials only coarsen the
//!   measured rate, which the gate does not compare.
//! - **ingest**: the committed `BENCH_ingest.json` rows must decode as
//!   [`IngestReport`]s, and every drifted cell must carry a finite
//!   time-to-recover — a committed cell that never got back inside the
//!   success region is not a baseline, it is a regression already. One
//!   fresh quick drift cell then re-runs the live loop end to end and must
//!   itself recover; TTR magnitudes are not compared (wall-clock recovery
//!   on a shared core is far noisier than the tolerance).
//!
//! - **telemetry overhead**: the instrumentation contract — a hogwild run
//!   with the strided step-timing sink installed (the same sink the driver
//!   wires into every session, feeding `asgd_hogwild_step_ns`) must keep
//!   at least [`TELEMETRY_OVERHEAD_FLOOR`] of the uninstrumented run's
//!   throughput at serving scale (d = 1M, 4 pinned threads, best-of-N
//!   both arms). Skipped in unoptimised builds, where the ratio would
//!   gate compiler settings rather than the sink.
//!
//! Cells only one side measured (the full grids are wider than the fresh
//! ones) are skipped. An empty intersection is itself a failure: a gate
//! that compares nothing gates nothing.
//!
//! Committed rows are read through [`read_rows`] into the same `Row` /
//! report records the experiments write, so committed and fresh cells are
//! keyed by one function per artifact.

use crate::experiments::{ingest, serving, serving_net, sparse_scaling};
use asgd_driver::json::{self, DecodeError, Json};
use asgd_driver::{validate, ValidationCell, ValidationPlan, ValidationReport};
use asgd_ingest::IngestReport;
use asgd_oracle::OracleSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Default allowed regression: 30% on throughput and on p99.
pub const DEFAULT_TOLERANCE: f64 = 0.30;

/// Absolute p99 slack beneath which a ratio breach is not a failure.
/// Tail quantiles of sub-second quick cells on a shared core move by
/// hundreds of µs from scheduler noise alone; a regression must clear
/// both the relative ceiling *and* this absolute floor to be real.
pub const P99_NOISE_FLOOR_NS: u64 = 1_000_000; // 1 ms

/// One artifact's measured baseline for a cell.
#[derive(Debug, Clone, Copy)]
struct Baseline {
    qps: f64,
    p99_ns: u64,
}

/// The gate's outcome: human-readable per-cell lines plus the failures
/// that make it red.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Per-cell comparison lines (and skip notes), in artifact order.
    pub lines: Vec<String>,
    /// Regressions and structural problems. Empty means the gate passes.
    pub failures: Vec<String>,
}

impl CheckReport {
    /// Whether the gate passes.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the report for the terminal.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        if self.passed() {
            let _ = writeln!(out, "bench-check: PASS");
        } else {
            for f in &self.failures {
                let _ = writeln!(out, "FAIL: {f}");
            }
            let _ = writeln!(
                out,
                "bench-check: FAIL ({} regression(s))",
                self.failures.len()
            );
        }
        out
    }
}

/// Reads a committed artifact's `rows` array as typed records.
///
/// # Errors
///
/// The path plus the read, parse or decode error.
pub fn read_rows<T: Json>(path: &Path) -> Result<Vec<T>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
        .map_err(DecodeError::from)
        .and_then(|root| json::field(&root, "rows"))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares fresh cells against committed baselines; appends one line per
/// intersecting cell and failure entries for regressions past `tol`.
fn compare(
    label: &str,
    committed: &BTreeMap<String, Baseline>,
    fresh: &BTreeMap<String, Baseline>,
    tol: f64,
    report: &mut CheckReport,
) {
    let mut matched = 0usize;
    for (key, now) in fresh {
        let Some(base) = committed.get(key) else {
            continue;
        };
        matched += 1;
        let qps_ratio = if base.qps > 0.0 {
            now.qps / base.qps
        } else {
            1.0
        };
        let p99_ratio = if base.p99_ns > 0 {
            now.p99_ns as f64 / base.p99_ns as f64
        } else {
            1.0
        };
        let mut verdict = "ok";
        if qps_ratio < 1.0 - tol {
            verdict = "REGRESSED";
            report.failures.push(format!(
                "{label} {key}: throughput {:.0}/s vs committed {:.0}/s (x{qps_ratio:.2}, floor x{:.2})",
                now.qps,
                base.qps,
                1.0 - tol
            ));
        }
        if p99_ratio > 1.0 + tol && now.p99_ns > base.p99_ns.saturating_add(P99_NOISE_FLOOR_NS) {
            verdict = "REGRESSED";
            report.failures.push(format!(
                "{label} {key}: p99 {}ns vs committed {}ns (x{p99_ratio:.2}, ceiling x{:.2})",
                now.p99_ns,
                base.p99_ns,
                1.0 + tol
            ));
        }
        report.lines.push(format!(
            "{label} {key}: qps x{qps_ratio:.2}, p99 x{p99_ratio:.2} [{verdict}]"
        ));
    }
    report.lines.push(format!(
        "{label}: compared {matched} cell(s) ({} fresh, {} committed)",
        fresh.len(),
        committed.len()
    ));
    if matched == 0 {
        report.failures.push(format!(
            "{label}: no comparable cells — the gate is vacuous"
        ));
    }
}

fn serving_cells(rows: &[serving::Row]) -> BTreeMap<String, Baseline> {
    rows.iter()
        .map(|r| {
            (
                format!(
                    "clients={},mode={},threads={}",
                    r.clients, r.mode, r.trainer_threads
                ),
                Baseline {
                    qps: r.qps,
                    p99_ns: r.p99_ns,
                },
            )
        })
        .collect()
}

/// The corner of the committed sparse-path grid the gate re-measures, at
/// the committed iteration budget (20k). The quick sweep's 2k-iteration
/// cells are a few hundred µs of work — thread-spawn overhead would read
/// as a throughput regression — so the gate pays for real cells instead;
/// at `d ≤ 1024` the whole corner is still well under a second.
const SPARSE_GATE_DIMS: &[usize] = &[16, 1024];
const SPARSE_GATE_THREADS: &[usize] = &[1, 2];
const SPARSE_GATE_ITERATIONS: u64 = 20_000;

fn sparse_cells(rows: &[sparse_scaling::Row]) -> BTreeMap<String, Baseline> {
    rows.iter()
        .map(|r| {
            (
                format!(
                    "d={},path={},store={},threads={}",
                    r.d, r.path, r.store, r.threads
                ),
                Baseline {
                    qps: r.iters_per_sec,
                    p99_ns: 0, // throughput-only: the artifact has no latency column
                },
            )
        })
        .collect()
}

/// The dimension floor above which the committed artifact must show the
/// sharded store holding its own against the flat one.
const SHARDED_GATE_MIN_D: usize = 1 << 20;
/// The thread floor for the same gate: below real concurrency the stores
/// are equivalent by construction, so the comparison would gate nothing.
const SHARDED_GATE_MIN_THREADS: usize = 4;

/// Gates the committed artifact's own store comparison: at every
/// `(d ≥ 1M, threads ≥ 4)` sparse-path cell measured on both stores, the
/// sharded store's throughput must be at least `1 − tol` of the flat
/// store's. This reads the committed rows only — re-measuring d = 10M
/// cells on every check would dominate the gate's runtime — so it pins the
/// claim the artifact was committed to support: sharding does not lose
/// throughput where it is supposed to win.
fn sharded_store_gate(rows: &[sparse_scaling::Row], tol: f64, report: &mut CheckReport) {
    let mut by_cell: BTreeMap<(usize, usize), (Option<f64>, Option<f64>)> = BTreeMap::new();
    for row in rows {
        if row.d < SHARDED_GATE_MIN_D
            || row.threads < SHARDED_GATE_MIN_THREADS
            || row.path != "sparse"
        {
            continue;
        }
        let slot = by_cell.entry((row.d, row.threads)).or_default();
        match row.store.as_str() {
            "flat" => slot.0 = Some(row.iters_per_sec),
            "sharded" => slot.1 = Some(row.iters_per_sec),
            _ => {}
        }
    }
    let mut matched = 0usize;
    for ((d, threads), (flat, sharded)) in &by_cell {
        let (Some(flat), Some(sharded)) = (flat, sharded) else {
            continue;
        };
        matched += 1;
        let ratio = if *flat > 0.0 { sharded / flat } else { 1.0 };
        let mut verdict = "ok";
        if ratio < 1.0 - tol {
            verdict = "REGRESSED";
            report.failures.push(format!(
                "sharded-store d={d},threads={threads}: sharded {sharded:.0}/s vs flat \
                 {flat:.0}/s (x{ratio:.2}, floor x{:.2})",
                1.0 - tol
            ));
        }
        report.lines.push(format!(
            "sharded-store d={d},threads={threads}: sharded/flat x{ratio:.2} [{verdict}]"
        ));
    }
    report.lines.push(format!(
        "sharded-store: compared {matched} committed cell(s) at d ≥ {SHARDED_GATE_MIN_D}, \
         threads ≥ {SHARDED_GATE_MIN_THREADS}"
    ));
    if matched == 0 {
        report.failures.push(
            "sharded-store: no committed flat/sharded pair at gate scale — the gate is vacuous"
                .to_string(),
        );
    }
}

/// The telemetry overhead gate's fixed cell: the serving-scale sparse
/// configuration the instrumentation contract is written against.
const TELEMETRY_GATE_DIM: usize = 1 << 20;
const TELEMETRY_GATE_THREADS: usize = 4;
const TELEMETRY_GATE_ITERATIONS: u64 = 200_000;
const TELEMETRY_GATE_TRIALS: usize = 3;

/// Instrumented throughput must stay at or above this fraction of the
/// uninstrumented run's: the strided timing sink (one `Instant` read per
/// success-check window plus one striped histogram record) is allowed at
/// most 3%.
pub const TELEMETRY_OVERHEAD_FLOOR: f64 = 0.97;

/// Judges the measured overhead ratio; split out of the measurement so the
/// verdict logic is unit-testable without paying for d = 1M runs.
fn judge_telemetry_overhead(
    instrumented: f64,
    baseline: f64,
    samples: u64,
    report: &mut CheckReport,
) {
    if samples == 0 {
        report.failures.push(
            "telemetry-overhead: instrumented runs recorded no step samples — the gate is vacuous"
                .to_string(),
        );
        return;
    }
    let ratio = if baseline > 0.0 {
        instrumented / baseline
    } else {
        1.0
    };
    let mut verdict = "ok";
    if ratio < TELEMETRY_OVERHEAD_FLOOR {
        verdict = "REGRESSED";
        report.failures.push(format!(
            "telemetry-overhead: instrumented {instrumented:.0}/s vs uninstrumented \
             {baseline:.0}/s (x{ratio:.3}, floor x{TELEMETRY_OVERHEAD_FLOOR:.2})"
        ));
    }
    report.lines.push(format!(
        "telemetry-overhead: instrumented/uninstrumented x{ratio:.3} over {samples} step \
         sample(s) [{verdict}]"
    ));
}

/// Measures the instrumentation contract live: best-of-N hogwild
/// throughput with the step-timing sink installed versus without, at
/// d = 1M on 4 pinned threads. The sink is the exact shape the driver
/// installs in every session (strided interval timing recorded into the
/// process-wide `asgd_hogwild_step_ns` histogram), so the ratio gates
/// what users actually pay, not a synthetic stand-in.
fn telemetry_overhead_gate(report: &mut CheckReport) {
    use asgd_hogwild::{ExecTuning, Hogwild, HogwildConfig, RunControl, TimingSink};
    if cfg!(debug_assertions) {
        report.lines.push(
            "telemetry-overhead: skipped (unoptimised build — the ratio would gate compiler \
             settings, not the sink)"
                .to_string(),
        );
        return;
    }
    let oracle = match OracleSpec::new("sparse-quadratic", TELEMETRY_GATE_DIM)
        .sigma(0.0)
        .build()
    {
        Ok(oracle) => oracle,
        Err(e) => {
            report
                .failures
                .push(format!("telemetry-overhead: building the oracle: {e}"));
            return;
        }
    };
    let exec = Hogwild::new(
        oracle,
        HogwildConfig {
            threads: TELEMETRY_GATE_THREADS,
            iterations: TELEMETRY_GATE_ITERATIONS,
            alpha: 0.5 / TELEMETRY_GATE_DIM as f64,
            seed: 0x0B5E,
            success_radius_sq: None,
        },
    )
    .tuning(ExecTuning {
        pin: true,
        ..ExecTuning::default()
    });
    let x0 = vec![1.0; TELEMETRY_GATE_DIM];
    let hist = asgd_telemetry::global().histogram("asgd_hogwild_step_ns");
    let recorded_before = hist.snapshot().count;
    let timing = |_claim: u64, elapsed_ns: u64, steps: u64| {
        hist.record(elapsed_ns / steps.max(1));
    };
    let best_of = |instrumented: bool| -> f64 {
        let mut best = 0.0_f64;
        for _ in 0..TELEMETRY_GATE_TRIALS {
            let ctrl = if instrumented {
                RunControl {
                    timing: Some(TimingSink { f: &timing }),
                    ..RunControl::default()
                }
            } else {
                RunControl::default()
            };
            best = best.max(exec.run_controlled(&x0, ctrl).iterations_per_sec());
        }
        best
    };
    let baseline = best_of(false);
    let instrumented = best_of(true);
    let samples = hist.snapshot().count.saturating_sub(recorded_before);
    judge_telemetry_overhead(instrumented, baseline, samples, report);
}

fn validation_cell_key(cell: &ValidationCell) -> String {
    format!(
        "backend={},criterion={},threads={},eps={}",
        cell.backend, cell.criterion, cell.threads, cell.eps
    )
}

/// Compares fresh validation cells against committed ones: every
/// intersecting cell must remain consistent with its upper bound, and its
/// derived quantities must sit within `tol` of the committed values.
fn compare_validation_cells(
    committed: &[ValidationCell],
    fresh: &[ValidationCell],
    tol: f64,
    report: &mut CheckReport,
) {
    let by_key: BTreeMap<String, &ValidationCell> = committed
        .iter()
        .map(|c| (validation_cell_key(c), c))
        .collect();
    let mut matched = 0usize;
    for cell in fresh {
        let key = validation_cell_key(cell);
        let Some(base) = by_key.get(&key) else {
            continue;
        };
        matched += 1;
        let mut verdict = "ok";
        if !cell.consistent_with_upper_bound {
            verdict = "REGRESSED";
            report.failures.push(format!(
                "validation {key}: measured failure rate {:.3} is no longer consistent with its bound {:.3}",
                cell.measured, cell.bound
            ));
        }
        for (name, now, then) in [
            ("alpha", cell.alpha, base.alpha),
            ("horizon", cell.horizon as f64, base.horizon as f64),
            (
                "total_iterations",
                cell.total_iterations as f64,
                base.total_iterations as f64,
            ),
            ("bound", cell.bound, base.bound),
        ] {
            let ratio = if then != 0.0 {
                now / then
            } else if now == 0.0 {
                1.0
            } else {
                f64::INFINITY
            };
            if !(1.0 - tol..=1.0 + tol).contains(&ratio) {
                verdict = "REGRESSED";
                report.failures.push(format!(
                    "validation {key}: derived {name} {now} vs committed {then} (x{ratio:.2}, tolerance ±{:.0}%)",
                    tol * 100.0
                ));
            }
        }
        report.lines.push(format!("validation {key}: [{verdict}]"));
    }
    report.lines.push(format!(
        "validation: compared {matched} cell(s) ({} fresh, {} committed)",
        fresh.len(),
        committed.len()
    ));
    if matched == 0 {
        report
            .failures
            .push("validation: no comparable cells — the gate is vacuous".to_string());
    }
}

/// Loads the committed validation artifact, re-derives a quick corner of
/// its grid at the same plan parameters, and compares.
fn validation_gate(dir: &Path, tol: f64, report: &mut CheckReport) {
    let path = dir.join("BENCH_validation.json");
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|text| {
            ValidationReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
        });
    let committed = match committed {
        Ok(committed) => committed,
        Err(e) => {
            report.failures.push(format!("validation baseline: {e}"));
            return;
        }
    };
    // Fewer trials than the committed 40 only widens the fresh cells'
    // confidence intervals; the derived (α, T, bound) depend on the plan
    // alone, so they must reproduce the committed values exactly (the
    // tolerance is slack for float-environment drift, not for noise).
    let plan = ValidationPlan::new(
        OracleSpec::new(&committed.oracle, committed.dim).sigma(committed.sigma),
    )
    .thread_counts(vec![1, 2])
    .eps_grid(vec![0.04])
    .tau_max(committed.cells.first().map_or(8, |c| c.tau_max))
    .theta(committed.theta)
    .target(committed.target)
    .radius(committed.radius)
    .trials(8)
    .seed(committed.seed);
    match validate(&plan) {
        Ok(fresh) => compare_validation_cells(&committed.cells, &fresh.cells, tol, report),
        Err(e) => report
            .failures
            .push(format!("validation: fresh quick validate failed: {e}")),
    }
}

/// Validates the committed ingest artifact (every drifted cell recovered)
/// and re-runs one fresh quick drift cell over the live socket, which must
/// also recover. Absolute TTRs are too noisy to compare across machines;
/// what the gate pins is the *property* every committed and fresh cell
/// must have — finite recovery.
fn ingest_gate(dir: &Path, report: &mut CheckReport) {
    let rows: Vec<IngestReport> = match read_rows(&dir.join("BENCH_ingest.json")) {
        Ok(rows) => rows,
        Err(e) => {
            report.failures.push(format!("ingest baseline: {e}"));
            return;
        }
    };
    if rows.is_empty() {
        report
            .failures
            .push("ingest: committed artifact has no rows — the gate is vacuous".to_string());
        return;
    }
    for cell in &rows {
        let key = format!("producers={},policy={}", cell.producers, cell.policy);
        let mut verdict = "ok";
        if cell.consumed == 0 {
            verdict = "REGRESSED";
            report
                .failures
                .push(format!("ingest {key}: committed cell consumed nothing"));
        }
        if cell.drift.is_some() && cell.time_to_recover_secs.is_none() {
            verdict = "REGRESSED";
            report.failures.push(format!(
                "ingest {key}: committed drifted cell never recovered"
            ));
        }
        report.lines.push(format!(
            "ingest {key}: recover {} [{verdict}]",
            cell.time_to_recover_secs
                .map_or_else(|| "never".to_string(), |t| format!("{:.1}ms", t * 1e3)),
        ));
    }
    // One live cell: the loop itself must still close after drift.
    match ingest::cell_spec(2, asgd_oracle::BackpressurePolicy::DropOldest, 0.8, 0.3).run(None) {
        Ok(fresh) => match fresh.time_to_recover_secs {
            Some(ttr) => report.lines.push(format!(
                "ingest fresh drift cell: recovered in {:.1}ms",
                ttr * 1e3
            )),
            None => report.failures.push(format!(
                "ingest: fresh drift cell never recovered (consumed {}, jump {:.3e})",
                fresh.consumed, fresh.drift_dist_sq
            )),
        },
        Err(e) => report
            .failures
            .push(format!("ingest: fresh drift cell failed to run: {e}")),
    }
}

fn serving_net_cells(rows: &[serving_net::Row]) -> BTreeMap<String, Baseline> {
    rows.iter()
        .filter(|r| r.cell == "grid")
        .map(|r| {
            (
                format!("clients={},mode={},models={}", r.clients, r.mode, r.models),
                Baseline {
                    qps: r.qps,
                    p99_ns: r.p99_ns,
                },
            )
        })
        .collect()
}

/// Runs the full gate: fresh quick sweeps of `serving` and `serving-net`
/// compared against `BENCH_serving.json` and `BENCH_net.json`, a fresh
/// budget-matched sparse-path corner against `BENCH_sparse_path.json`, a
/// fresh quick validation corner against `BENCH_validation.json`, the
/// committed-plus-fresh ingest recovery gate against `BENCH_ingest.json`,
/// all read from `dir`, plus the artifact-free telemetry overhead gate
/// (instrumented vs uninstrumented hogwild throughput, optimised builds
/// only).
///
/// Missing or malformed artifacts are failures — they are committed files
/// in this repository, so their absence means the gate's baseline is gone.
#[must_use]
pub fn run_bench_check(dir: &Path, tol: f64) -> CheckReport {
    let mut report = CheckReport::default();
    report.lines.push(format!("tolerance: {:.0}%", tol * 100.0));

    match read_rows(&dir.join("BENCH_serving.json")) {
        Ok(rows) => compare(
            "serving",
            &serving_cells(&rows),
            &serving_cells(&serving::sweep(true)),
            tol,
            &mut report,
        ),
        Err(e) => report.failures.push(format!("serving baseline: {e}")),
    }

    match read_rows(&dir.join("BENCH_net.json")) {
        Ok(rows) => compare(
            "serving-net",
            &serving_net_cells(&rows),
            &serving_net_cells(&serving_net::sweep(true)),
            tol,
            &mut report,
        ),
        Err(e) => report.failures.push(format!("serving-net baseline: {e}")),
    }

    match read_rows::<sparse_scaling::Row>(&dir.join("BENCH_sparse_path.json")) {
        Ok(rows) => {
            let fresh = sparse_scaling::sweep_cells(
                SPARSE_GATE_DIMS,
                SPARSE_GATE_THREADS,
                SPARSE_GATE_ITERATIONS,
            );
            compare(
                "sparse-path",
                &sparse_cells(&rows),
                &sparse_cells(&fresh),
                tol,
                &mut report,
            );
            sharded_store_gate(&rows, tol, &mut report);
        }
        Err(e) => report.failures.push(format!("sparse-path baseline: {e}")),
    }

    validation_gate(dir, tol, &mut report);

    ingest_gate(dir, &mut report);

    telemetry_overhead_gate(&mut report);

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(qps: f64, p99_ns: u64) -> Baseline {
        Baseline { qps, p99_ns }
    }

    #[test]
    fn identical_measurements_pass() {
        let base: BTreeMap<_, _> = [("a".to_string(), cell(1000.0, 500))].into();
        let mut report = CheckReport::default();
        compare("t", &base, &base.clone(), DEFAULT_TOLERANCE, &mut report);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn regressions_past_tolerance_fail_with_named_cell() {
        let base: BTreeMap<_, _> = [("a".to_string(), cell(1000.0, 5_000_000))].into();
        let slow: BTreeMap<_, _> = [("a".to_string(), cell(600.0, 9_000_000))].into();
        let mut report = CheckReport::default();
        compare("t", &base, &slow, DEFAULT_TOLERANCE, &mut report);
        assert_eq!(report.failures.len(), 2, "{report:?}");
        assert!(report.failures[0].contains("t a:"), "{report:?}");
        assert!(report.render().contains("bench-check: FAIL"));
    }

    #[test]
    fn sub_floor_tail_noise_passes_even_past_the_ratio_ceiling() {
        // 500ns → 900ns is x1.8 but only 400ns absolute — scheduler
        // noise on a tail quantile, not a regression.
        let base: BTreeMap<_, _> = [("a".to_string(), cell(1000.0, 500))].into();
        let noisy: BTreeMap<_, _> = [("a".to_string(), cell(1000.0, 900))].into();
        let mut report = CheckReport::default();
        compare("t", &base, &noisy, DEFAULT_TOLERANCE, &mut report);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn within_tolerance_noise_passes() {
        let base: BTreeMap<_, _> = [("a".to_string(), cell(1000.0, 500))].into();
        let noisy: BTreeMap<_, _> = [("a".to_string(), cell(750.0, 620))].into();
        let mut report = CheckReport::default();
        compare("t", &base, &noisy, DEFAULT_TOLERANCE, &mut report);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn disjoint_grids_make_the_gate_fail_as_vacuous() {
        let base: BTreeMap<_, _> = [("a".to_string(), cell(1000.0, 500))].into();
        let other: BTreeMap<_, _> = [("b".to_string(), cell(1000.0, 500))].into();
        let mut report = CheckReport::default();
        compare("t", &base, &other, DEFAULT_TOLERANCE, &mut report);
        assert!(!report.passed());
        assert!(report.failures[0].contains("vacuous"), "{report:?}");
    }

    #[test]
    fn missing_artifacts_fail_for_every_gate() {
        let report = run_bench_check(Path::new("/nonexistent-dir-for-test"), DEFAULT_TOLERANCE);
        assert!(!report.passed());
        for artifact in [
            "BENCH_serving.json",
            "BENCH_net.json",
            "BENCH_sparse_path.json",
            "BENCH_validation.json",
            "BENCH_ingest.json",
        ] {
            assert!(
                report.failures.iter().any(|f| f.contains(artifact)),
                "no failure names {artifact}: {report:?}"
            );
        }
    }

    fn store_row(
        d: usize,
        threads: usize,
        path: &str,
        store: &str,
        ips: f64,
    ) -> sparse_scaling::Row {
        sparse_scaling::Row {
            d,
            threads,
            path: path.to_string(),
            store: store.to_string(),
            iterations: 20_000,
            wall_time_secs: 0.1,
            iters_per_sec: ips,
        }
    }

    #[test]
    fn sharded_gate_passes_when_the_sharded_store_holds_throughput() {
        let rows = vec![
            store_row(1 << 20, 4, "sparse", "flat", 1000.0),
            store_row(1 << 20, 4, "sparse", "sharded", 950.0),
            // Sub-scale cells and dense cells are outside the gate.
            store_row(1024, 4, "sparse", "flat", 1000.0),
            store_row(1024, 4, "sparse", "sharded", 1.0),
            store_row(1 << 20, 2, "sparse", "sharded", 1.0),
        ];
        let mut report = CheckReport::default();
        sharded_store_gate(&rows, DEFAULT_TOLERANCE, &mut report);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn sharded_gate_fails_on_a_sharded_regression_past_tolerance() {
        let rows = vec![
            store_row(10_000_000, 4, "sparse", "flat", 1000.0),
            store_row(10_000_000, 4, "sparse", "sharded", 600.0),
        ];
        let mut report = CheckReport::default();
        sharded_store_gate(&rows, DEFAULT_TOLERANCE, &mut report);
        assert!(!report.passed());
        assert!(
            report.failures[0].contains("sharded-store d=10000000"),
            "{report:?}"
        );
    }

    #[test]
    fn sharded_gate_without_gate_scale_pairs_is_vacuous() {
        let rows = vec![
            store_row(1024, 4, "sparse", "flat", 1000.0),
            store_row(1024, 4, "sparse", "sharded", 1000.0),
            // A gate-scale flat cell with no sharded twin gates nothing.
            store_row(1 << 20, 8, "sparse", "flat", 1000.0),
        ];
        let mut report = CheckReport::default();
        sharded_store_gate(&rows, DEFAULT_TOLERANCE, &mut report);
        assert!(!report.passed());
        assert!(report.failures[0].contains("vacuous"), "{report:?}");
    }

    #[test]
    fn telemetry_overhead_within_floor_passes() {
        let mut report = CheckReport::default();
        judge_telemetry_overhead(980.0, 1000.0, 1_000, &mut report);
        assert!(report.passed(), "{report:?}");
        assert!(report.lines[0].contains("x0.980"), "{report:?}");
    }

    #[test]
    fn telemetry_overhead_past_floor_fails_with_both_rates() {
        let mut report = CheckReport::default();
        judge_telemetry_overhead(900.0, 1000.0, 1_000, &mut report);
        assert!(!report.passed());
        assert!(
            report.failures[0].contains("instrumented 900/s"),
            "{report:?}"
        );
        assert!(report.failures[0].contains("floor x0.97"), "{report:?}");
    }

    #[test]
    fn telemetry_overhead_without_samples_is_vacuous() {
        // A sink that never fired measured nothing: the instrumented arm
        // silently ran uninstrumented, which must fail, not pass at x1.0.
        let mut report = CheckReport::default();
        judge_telemetry_overhead(1000.0, 1000.0, 0, &mut report);
        assert!(!report.passed());
        assert!(report.failures[0].contains("vacuous"), "{report:?}");
    }

    fn vcell(backend: &str, threads: usize, alpha: f64, consistent: bool) -> ValidationCell {
        ValidationCell {
            backend: backend.to_string(),
            criterion: "hitting".to_string(),
            threads,
            eps: 0.04,
            tau_max: 8,
            alpha,
            horizon: 3_000,
            halving_epochs: None,
            total_iterations: 3_000,
            trials: 8,
            failures: 0,
            measured: 0.0,
            ci_lower: 0.0,
            ci_upper: 0.3,
            bound: 0.5,
            consistent_with_upper_bound: consistent,
        }
    }

    #[test]
    fn matching_validation_cells_pass() {
        let committed = vec![vcell("hogwild", 1, 0.003, true)];
        let fresh = vec![vcell("hogwild", 1, 0.003, true)];
        let mut report = CheckReport::default();
        compare_validation_cells(&committed, &fresh, DEFAULT_TOLERANCE, &mut report);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn drifted_derivations_and_broken_bounds_fail() {
        let committed = vec![
            vcell("hogwild", 1, 0.003, true),
            vcell("hogwild", 2, 0.003, true),
        ];
        // Cell 1: alpha drifted x2 past tolerance. Cell 2: the measured
        // failure rate escaped the theorem's bound.
        let fresh = vec![
            vcell("hogwild", 1, 0.006, true),
            vcell("hogwild", 2, 0.003, false),
        ];
        let mut report = CheckReport::default();
        compare_validation_cells(&committed, &fresh, DEFAULT_TOLERANCE, &mut report);
        assert_eq!(report.failures.len(), 2, "{report:?}");
        assert!(report.failures.iter().any(|f| f.contains("alpha")));
        assert!(report.failures.iter().any(|f| f.contains("consistent")));
    }

    #[test]
    fn disjoint_validation_grids_are_vacuous_failures() {
        let committed = vec![vcell("hogwild", 4, 0.003, true)];
        let fresh = vec![vcell("sequential", 1, 0.003, true)];
        let mut report = CheckReport::default();
        compare_validation_cells(&committed, &fresh, DEFAULT_TOLERANCE, &mut report);
        assert!(!report.passed());
        assert!(report.failures[0].contains("vacuous"), "{report:?}");
    }
}
