//! `sparse-1m`: Hogwild on a Δ = 1 sparse quadratic at d = 2^20 (8 MiB,
//! four times the total L2), two workers, the sparse path and the shipped
//! store defaults. Fixed-budget sessions alternate with at least 100
//! sessions cancelled mid-run. Every session reuses one prebuilt oracle.

use crate::session::{store_probe, CancelPhases, Lifecycle, TracedTraining};
use crate::stats::{median, Samples};
use crate::trace::{StepTotals, TimedOracle, ROOT};
use crate::{Bench, Inputs};
use asgd_driver::{BackendKind, Driver, RunReport, RunSpec, SessionCtx, SparsePathSpec};
use asgd_oracle::{GradientOracle, OracleSpec, SparseQuadratic};
use std::sync::Arc;
use std::time::{Duration, Instant};

const D: usize = 1 << 20;
const THREADS: usize = 2;
const FIXED_ITERATIONS: u64 = 2_000_000;
/// Cancelled sessions never reach this budget.
const CANCEL_BUDGET: u64 = 1 << 40;
const MIN_CANCELS: usize = 100;
const CANCELS_PER_ROUND: usize = 3;

fn spec(x0: &[f64], seed: u64, iterations: u64) -> RunSpec {
    RunSpec::new(OracleSpec::new("sparse-quadratic", D), BackendKind::Hogwild)
        .threads(THREADS)
        .iterations(iterations)
        // α·d = 0.5: each update halves its coordinate's distance to x*.
        .learning_rate(0.5 / D as f64)
        .x0(x0.to_vec())
        .sparse(SparsePathSpec::Sparse)
        .seed(seed)
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    // Set-up: build the oracle and generate the start point, nine times.
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..9 {
        let t = Instant::now();
        let oracle: Arc<dyn GradientOracle> =
            Arc::new(SparseQuadratic::uniform(D, 1.0, 0.1).map_err(|e| e.to_string())?);
        let mut inputs = Inputs::new(b.seed, 1);
        let x0: Vec<f64> = (0..D).map(|_| inputs.range(-1.0, 1.0)).collect();
        let fixed = spec(&x0, b.seed, FIXED_ITERATIONS);
        let cancelled = spec(&x0, b.seed, CANCEL_BUDGET).trajectory_every(CANCEL_BUDGET);
        setup.push(t.elapsed().as_secs_f64());
        built = Some((oracle, x0, fixed, cancelled));
    }
    b.put("setup_s", median(&setup), "s");
    let (oracle, x0, fixed, cancel_spec) = built.expect("set-up ran");
    let start_dist = oracle.dist_sq_to_opt(&x0);
    let timed = Arc::new(TimedOracle::new(Arc::clone(&oracle)));
    let traced_oracle: Arc<dyn GradientOracle> = timed.clone();
    let driver = Driver::new();
    let mut schedule = Inputs::new(b.seed, 2);

    // Warm-up (untimed): one fixed session and one cancelled session.
    let warm = driver
        .submit_with(
            fixed.clone(),
            SessionCtx::default().with_oracle(Arc::clone(&oracle)),
        )
        .wait()
        .map_err(|e| e.to_string())?;
    check_fixed(b, &warm, start_dist);
    let h = driver.submit_with(
        cancel_spec.clone(),
        SessionCtx::default().with_oracle(Arc::clone(&oracle)),
    );
    std::thread::sleep(Duration::from_millis(10));
    h.cancel();
    h.wait().map_err(|e| e.to_string())?;

    // Rounds of one fixed-budget session and three cancelled ones, so both
    // kinds sample the whole window. Traced runs alternate untraced and
    // traced rounds; the gap between them is the tracing overhead.
    let mut training = TracedTraining::new(Arc::clone(&timed));
    let mut overhead_ms = Samples::with_capacity(4096);
    let mut latency = Samples::with_capacity(4096);
    let mut phases = CancelPhases::new(4096, &x0, oracle.minimizer());
    let (mut untraced_cancels, mut cancel_time) = (0usize, 0.0);
    let end = b.deadline();
    let mut session = 0u64;
    let mut round = 0u64;
    // Past the window, keep going only to reach the minimum sample counts,
    // and only while every check holds.
    while Instant::now() < end
        || (b.ledger.failed == 0 && (untraced_cancels < MIN_CANCELS || training.rates[0].len() < 3))
    {
        round += 1;
        let traced = b.trace && round.is_multiple_of(2);
        let ctx_oracle = if traced { &traced_oracle } else { &oracle };

        session += 1;
        let before = StepTotals::now();
        let t0 = Instant::now();
        let report = driver
            .submit_with(
                fixed.clone(),
                SessionCtx::default().with_oracle(Arc::clone(ctx_oracle)),
            )
            .wait()
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let after = StepTotals::now();
        b.spans.record("driver.session", ROOT, session, t0, t1);
        check_fixed(b, &report, start_dist);
        let outside = t1.duration_since(t0).as_secs_f64();
        training.session(traced, &report, outside, (before, after));
        if traced == b.trace {
            overhead_ms.push((outside - report.wall_time_secs) * 1e3);
        }

        // Cancelled sessions: each runs for a seeded 10-20 ms, then is
        // cancelled; the latency is cancel() → wait() returned.
        for _ in 0..CANCELS_PER_ROUND {
            session += 1;
            let life = Arc::new(Lifecycle::default());
            let ctx = if traced {
                SessionCtx::observed(life.observer()).with_oracle(Arc::clone(&traced_oracle))
            } else {
                SessionCtx::default().with_oracle(Arc::clone(&oracle))
            };
            let submitted = Instant::now();
            let handle = driver.submit_with(cancel_spec.clone(), ctx);
            std::thread::sleep(Duration::from_secs_f64(schedule.range(0.010, 0.020)));
            let flagged = Instant::now();
            handle.cancel();
            let report = handle.wait().map_err(|e| e.to_string())?;
            let returned = Instant::now();
            let ok = b.ledger.check(
                report.stop.as_deref() == Some("cancelled") && report.iterations < CANCEL_BUDGET,
                || format!("cancelled session reported stop {:?}", report.stop),
            );
            let parent = b
                .spans
                .record("driver.session", ROOT, session, submitted, returned);
            let cancel_span = b
                .spans
                .record("driver.cancel", parent, session, flagged, returned);
            if traced {
                training.counted(report.iterations);
                phases.record(
                    b,
                    cancel_span,
                    session,
                    &life,
                    report.wall_time_secs,
                    flagged,
                    returned,
                );
            } else if ok {
                latency.push(returned.duration_since(flagged).as_secs_f64() * 1e3);
                cancel_time += returned.duration_since(submitted).as_secs_f64();
                untraced_cancels += 1;
            }
        }
    }
    b.put("train_iters_per_s", median(&training.rates[0]), "1/s");
    b.put_n(
        "driver.overhead_ms",
        overhead_ms.quantile(0.5),
        "ms",
        overhead_ms.len(),
    );
    let cancels = latency.len();
    b.put_n("cancel_p50_ms", latency.quantile(0.5), "ms", cancels);
    b.put_n("cancel_p90_ms", latency.quantile(0.9), "ms", cancels);
    b.put("op_p50_ms", latency.quantile(0.5), "ms");
    b.put("op_tail_ms", latency.quantile(0.9), "ms");
    b.put("ops_per_s", untraced_cancels as f64 / cancel_time, "1/s");

    if b.trace {
        training.report(b, THREADS);
        phases.report(b);
        store_probe(b, &x0, 2_000_000);
    }
    Ok(())
}

fn check_fixed(b: &mut Bench, r: &RunReport, start_dist: f64) {
    b.ledger.check(
        r.iterations == FIXED_ITERATIONS
            && r.stop.is_none()
            && r.final_dist_sq.is_finite()
            && r.final_dist_sq < start_dist
            && r.sparse_path == Some(true),
        || {
            format!(
                "fixed session: {} of {FIXED_ITERATIONS} iterations, stop {:?}, \
                 dist² {} from {start_dist}, sparse {:?}",
                r.iterations, r.stop, r.final_dist_sq, r.sparse_path
            )
        },
    );
}
