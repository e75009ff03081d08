//! `converge-minibatch`: Hogwild on minibatch least squares (d = 256,
//! batch 64), two workers, the dense path, run until the first strided
//! trajectory sample lies in the success region ‖x − x*‖² ≤ ε and then
//! cancelled. The sequential backend on the same spec and seed is the
//! single-worker baseline; the ratio of their iterations to target is the
//! price of asynchrony.

use crate::session::{store_probe, CancelPhases, Lifecycle, TracedTraining};
use crate::stats::{median, Samples};
use crate::trace::{StepTotals, TimedOracle, ROOT};
use crate::Bench;
use asgd_driver::{
    BackendKind, Driver, RunEvent, RunObserver, RunReport, RunSpec, SessionCtx, SparsePathSpec,
};
use asgd_oracle::{GradientOracle, OracleSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

const D: usize = 256;
const BATCH: usize = 64;
const DATASET: usize = 1024;
const THREADS: usize = 2;
const ALPHA: f64 = 1e-4;
const EPS: f64 = 1e-2;
const STRIDE: u64 = 512;
/// Sessions must reach ε well inside this budget.
const BUDGET: u64 = 20_000_000;
const MIN_SESSIONS: usize = 3;

/// The data set is the same for every seed, so iterations to target do not
/// change with the instance; `--seed` draws the runs' coin streams.
const DATA_SEED: u64 = 0x5EED;

fn spec(b: &Bench, backend: BackendKind) -> RunSpec {
    RunSpec::new(
        OracleSpec::new("minibatch-regression", D)
            .batch(BATCH)
            .dataset(DATASET)
            .data_seed(DATA_SEED),
        backend,
    )
    .threads(THREADS)
    .iterations(BUDGET)
    .learning_rate(ALPHA)
    .success_radius_sq(EPS)
    .sparse(SparsePathSpec::Dense)
    .trajectory_every(STRIDE)
    .seed(b.seed)
}

/// One session to target: the first in-ε sample (claim index, instant)
/// raises the cancel flag.
struct ToTarget {
    flag: Arc<AtomicBool>,
    hit: Arc<OnceLock<(u64, Instant)>>,
    life: Arc<Lifecycle>,
}

impl ToTarget {
    fn new() -> Self {
        Self {
            flag: Arc::new(AtomicBool::new(false)),
            hit: Arc::new(OnceLock::new()),
            life: Arc::new(Lifecycle::default()),
        }
    }

    fn ctx(&self, oracle: &Arc<dyn GradientOracle>) -> SessionCtx {
        let (flag, hit, life) = (
            Arc::clone(&self.flag),
            Arc::clone(&self.hit),
            self.life.observer(),
        );
        let observer: Arc<dyn RunObserver> = Arc::new(move |event: &RunEvent| {
            if let RunEvent::TrajectorySample(s) = event {
                if s.dist_sq <= EPS && hit.set((s.index, Instant::now())).is_ok() {
                    flag.store(true, Ordering::SeqCst);
                }
            }
            life.on_event(event);
        });
        SessionCtx::observed(observer)
            .with_cancel(Arc::clone(&self.flag))
            .with_oracle(Arc::clone(oracle))
    }
}

struct Reached {
    report: RunReport,
    submitted: Instant,
    returned: Instant,
    /// (first in-ε sample index, its receipt instant).
    hit: Option<(u64, Instant)>,
}

fn to_target(
    driver: &Driver,
    spec: &RunSpec,
    oracle: &Arc<dyn GradientOracle>,
) -> Result<(Reached, ToTarget), String> {
    let target = ToTarget::new();
    let submitted = Instant::now();
    let report = driver
        .submit_with(spec.clone(), target.ctx(oracle))
        .wait()
        .map_err(|e| e.to_string())?;
    let returned = Instant::now();
    let hit = target.hit.get().copied();
    Ok((
        Reached {
            report,
            submitted,
            returned,
            hit,
        },
        target,
    ))
}

/// Every session must reach ε within budget, stop as cancelled, stay on the
/// dense path, and report a hit iteration no later than the observer's
/// first in-ε sample.
fn check(b: &mut Bench, r: &Reached, start_dist: f64) -> bool {
    let rep = &r.report;
    b.ledger.check(
        r.hit.is_some_and(|(index, _)| {
            rep.hit_iteration.is_some_and(|h| h <= index.max(1))
                && rep.sparse_path != Some(true)
                && rep.stop.as_deref() == Some("cancelled")
                && rep.iterations < BUDGET
                && rep.final_dist_sq.is_finite()
                && rep.final_dist_sq < start_dist
        }),
        || {
            format!(
                "{} session: sample hit {:?}, report hit {:?}, stop {:?}, {} iterations, \
                 dist² {}",
                rep.backend,
                r.hit.map(|h| h.0),
                rep.hit_iteration,
                rep.stop,
                rep.iterations,
                rep.final_dist_sq
            )
        },
    )
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    let hogwild = spec(b, BackendKind::Hogwild);
    let sequential = spec(b, BackendKind::Sequential);
    // Set-up: generate the data set and solve for x*, three times.
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..3 {
        let t = Instant::now();
        let oracle = hogwild.oracle.build().map_err(|e| e.to_string())?;
        setup.push(t.elapsed().as_secs_f64());
        built = Some(oracle);
    }
    b.put("setup_s", median(&setup), "s");
    let oracle = built.expect("set-up ran");
    let start_dist = oracle.dist_sq_to_opt(&vec![0.0; D]);
    let timed = Arc::new(TimedOracle::new(Arc::clone(&oracle)));
    let traced_oracle: Arc<dyn GradientOracle> = timed.clone();
    let driver = Driver::new();

    // Warm-up (untimed), then the sequential baseline (deterministic in its
    // iterations, so one session per run).
    let (warm, _) = to_target(&driver, &hogwild, &oracle)?;
    check(b, &warm, start_dist);
    let (seq, _) = to_target(&driver, &sequential, &oracle)?;
    check(b, &seq, start_dist);
    let seq_iters = seq.report.hit_iteration.unwrap_or(0) as f64;
    let seq_ttt = seq.hit.map_or(f64::NAN, |(_, t)| {
        t.duration_since(seq.submitted).as_secs_f64()
    });

    let mut ttt = Samples::with_capacity(1024);
    let mut iters_to_target = Samples::with_capacity(1024);
    let mut training = TracedTraining::new(Arc::clone(&timed));
    let mut phases = CancelPhases::new(1024, &vec![0.0; D], oracle.minimizer());
    let mut busy = 0.0;
    let end = b.deadline();
    let mut session = 0u64;
    // Past the window, keep going only to reach the minimum session count,
    // and only while every check holds.
    while Instant::now() < end || (b.ledger.failed == 0 && ttt.len() < MIN_SESSIONS) {
        session += 1;
        let traced = b.trace && session.is_multiple_of(2);
        let before = StepTotals::now();
        let (r, target) = to_target(
            &driver,
            &hogwild,
            if traced { &traced_oracle } else { &oracle },
        )?;
        let after = StepTotals::now();
        let outside = r.returned.duration_since(r.submitted).as_secs_f64();
        training.session(traced, &r.report, outside, (before, after));
        let parent = b
            .spans
            .record("driver.session", ROOT, session, r.submitted, r.returned);
        if !check(b, &r, start_dist) {
            continue;
        }
        let (_, hit_at) = r.hit.expect("checked");
        b.spans
            .record("converge.to_target", parent, session, r.submitted, hit_at);
        if traced {
            let cancel_span = b
                .spans
                .record("driver.cancel", parent, session, hit_at, r.returned);
            phases.record(
                b,
                cancel_span,
                session,
                &target.life,
                r.report.wall_time_secs,
                hit_at,
                r.returned,
            );
        } else {
            ttt.push(hit_at.duration_since(r.submitted).as_secs_f64() * 1e3);
            iters_to_target.push(r.report.hit_iteration.unwrap_or(0) as f64);
            busy += outside;
        }
    }
    let n = ttt.len();
    let ttt_p50 = ttt.quantile(0.5);
    b.put_n("time_to_target_s", ttt_p50 / 1e3, "s", n);
    b.put_n(
        "async_price",
        iters_to_target.quantile(0.5) / seq_iters,
        "ratio",
        n,
    );
    b.put("sequential_time_to_target_s", seq_ttt, "s");
    b.put("sequential_iters_to_target", seq_iters, "count");
    b.put_n(
        "hogwild_iters_to_target",
        iters_to_target.quantile(0.5),
        "count",
        n,
    );
    b.put("train_iters_per_s", median(&training.rates[0]), "1/s");
    b.put("op_p50_ms", ttt_p50, "ms");
    // Too few sessions for a percentile with ten samples beyond it: the
    // tail reading is the upper quartile.
    b.put_n("op_tail_ms", ttt.quantile(0.75), "ms", n);
    b.put("ops_per_s", n as f64 / busy, "1/s");

    if b.trace {
        training.report(b, THREADS);
        phases.report(b);
        store_probe(b, &vec![0.0; D], 2_000_000);
    }
    Ok(())
}
