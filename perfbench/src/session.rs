//! Training-session helpers shared by the two training workloads: the
//! lifecycle observer and cancellation phases, the traced-training totals,
//! and the parameter-store probe.

use crate::stats::{median, Samples};
use crate::trace::{OracleTotals, StepTotals, TimedOracle};
use crate::{Bench, Inputs};
use asgd_driver::{RunEvent, RunObserver, RunReport};
use asgd_hogwild::{ExecTuning, ParamStore, StoreWriter};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Observes one session's lifecycle instants: the receipt of its claim-0
/// trajectory sample (a worker has claimed and scanned the model once) and
/// of its `Finished` event (the report exists).
#[derive(Default)]
pub struct Lifecycle {
    first_sample: OnceLock<Instant>,
    finished: OnceLock<Instant>,
}

impl Lifecycle {
    pub fn observer(self: &Arc<Self>) -> Arc<dyn RunObserver> {
        let me = Arc::clone(self);
        Arc::new(move |event: &RunEvent| match event {
            RunEvent::TrajectorySample(s) if s.index == 0 => {
                let _ = me.first_sample.set(Instant::now());
            }
            RunEvent::Finished(_) => {
                let _ = me.finished.set(Instant::now());
            }
            _ => {}
        })
    }
}

/// The three phases of one cancellation, in ms.
pub struct CancelPhases {
    workers_out: Samples,
    finalize: Samples,
    handoff: Samples,
    /// Time of the distance scan the claim-0 sample performs before it is
    /// emitted, measured on a store like the run's.
    scan: Duration,
}

impl CancelPhases {
    pub fn new(capacity: usize, x0: &[f64], minimizer: &[f64]) -> Self {
        let store = ParamStore::with_tuning(x0, &ExecTuning::default());
        let scans: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(store.dist_sq_to(minimizer));
                t.elapsed().as_secs_f64()
            })
            .collect();
        Self {
            workers_out: Samples::with_capacity(capacity),
            finalize: Samples::with_capacity(capacity),
            handoff: Samples::with_capacity(capacity),
            scan: Duration::from_secs_f64(median(&scans)),
        }
    }

    /// Splits `flag → wait returned` at the executor's end and the
    /// `Finished` event, and records the three phases as child spans of
    /// `parent`. The executor's clock starts just before its first claim,
    /// so its end is (claim-0 sample receipt − one distance scan) + the
    /// report's wall time.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        b: &mut Bench,
        parent: u32,
        request: u64,
        life: &Lifecycle,
        wall_time_secs: f64,
        flagged: Instant,
        returned: Instant,
    ) {
        let (Some(&sampled), Some(&finished)) = (life.first_sample.get(), life.finished.get())
        else {
            return;
        };
        let executor_end = sampled - self.scan + Duration::from_secs_f64(wall_time_secs);
        let ms = |a: Instant, z: Instant| z.saturating_duration_since(a).as_secs_f64() * 1e3;
        self.workers_out.push(ms(flagged, executor_end));
        self.finalize.push(ms(executor_end, finished));
        self.handoff.push(ms(finished, returned));
        b.spans
            .record("cancel.workers_out", parent, request, flagged, executor_end);
        b.spans
            .record("cancel.finalize", parent, request, executor_end, finished);
        b.spans
            .record("cancel.handoff", parent, request, finished, returned);
    }

    pub fn report(&mut self, b: &mut Bench) {
        for (name, s) in [
            ("cancel.workers_out_ms", &mut self.workers_out),
            ("cancel.finalize_ms", &mut self.finalize),
            ("cancel.handoff_ms", &mut self.handoff),
        ] {
            let n = s.len();
            if n > 0 {
                b.put_n(name, s.quantile(0.5), "ms", n);
            }
        }
    }
}

/// Largest relative gap allowed between `hogwild.step_ns × iterations ÷
/// threads` and the traced sessions' summed executor wall time.
pub const STEP_WALL_TOLERANCE: f64 = 0.5;

/// What one run's training sessions add up to: throughput of untraced and
/// traced sessions, and, over the traced ones, step-time telemetry deltas,
/// executor wall time and the iterations the oracle must have served.
pub struct TracedTraining {
    oracle: Arc<TimedOracle>,
    before: OracleTotals,
    step: StepTotals,
    step_iterations: u64,
    wall_secs: f64,
    iterations: u64,
    /// Iterations per outside-wall second of untraced `[0]` and traced
    /// `[1]` sessions.
    pub rates: [Vec<f64>; 2],
}

impl TracedTraining {
    pub fn new(oracle: Arc<TimedOracle>) -> Self {
        Self {
            before: oracle.totals(),
            oracle,
            step: StepTotals::default(),
            step_iterations: 0,
            wall_secs: 0.0,
            iterations: 0,
            rates: [Vec::new(), Vec::new()],
        }
    }

    /// A session run to its end: its rate, and for a traced one the
    /// step-time histogram delta taken around it.
    pub fn session(
        &mut self,
        traced: bool,
        r: &RunReport,
        outside_secs: f64,
        steps: (StepTotals, StepTotals),
    ) {
        self.rates[usize::from(traced)].push(r.iterations as f64 / outside_secs);
        if traced {
            self.step.sum += steps.1.sum.wrapping_sub(steps.0.sum);
            self.step.count += steps.1.count - steps.0.count;
            self.step_iterations += r.iterations;
            self.wall_secs += r.wall_time_secs;
            self.iterations += r.iterations;
        }
    }

    /// A traced session whose iterations count only towards the oracle's
    /// call total.
    pub fn counted(&mut self, iterations: u64) {
        self.iterations += iterations;
    }

    /// Reports the per-layer training metrics and checks that the oracle
    /// saw exactly the traced iterations and that the step time accounts
    /// for the executors' wall time.
    pub fn report(&self, b: &mut Bench, threads: usize) {
        let (calls, grad_ns) = self.before.since(self.oracle.totals());
        let expected = self.iterations;
        b.ledger.invariant(calls == expected, || {
            format!("oracle.calls {calls} != traced iterations {expected}")
        });
        let step_ns = self.step.sum as f64 / self.step.count.max(1) as f64;
        b.put("oracle.grad_ns", grad_ns, "ns");
        b.put("oracle.calls", calls as f64, "count");
        b.put_n("hogwild.step_ns", step_ns, "ns", self.step.count as usize);
        b.put("hogwild.self_ns", step_ns - grad_ns, "ns");
        let predicted = step_ns * self.step_iterations as f64 / threads as f64 / 1e9;
        let ratio = predicted / self.wall_secs;
        b.put("hogwild.step_wall_ratio", ratio, "ratio");
        b.ledger
            .invariant((ratio - 1.0).abs() <= STEP_WALL_TOLERANCE, || {
                format!(
                    "step_ns × iterations ÷ threads = {predicted:.4} s vs wall {:.4} s \
                 (tolerance ±{STEP_WALL_TOLERANCE})",
                    self.wall_secs
                )
            });
        let traced_rate = median(&self.rates[1]);
        b.put("train_iters_per_s_traced", traced_rate, "1/s");
        b.put(
            "trace.overhead_pct",
            (median(&self.rates[0]) / traced_rate - 1.0) * 100.0,
            "%",
        );
    }
}

/// Two threads drive a parameter store built as the executors build it
/// (shipped defaults: flat, compact, sequentially consistent) through
/// `StoreWriter::fetch_add` and `ParamStore::read` at seeded random
/// indices; reports the mean ns per operation.
pub fn store_probe(b: &mut Bench, x0: &[f64], ops_per_thread: usize) {
    const THREADS: usize = 2;
    let store = ParamStore::with_tuning(x0, &ExecTuning::default());
    let d = x0.len();
    let indices: Vec<Vec<u32>> = (0..THREADS as u64)
        .map(|t| {
            let mut inputs = Inputs::new(b.seed, 100 + t);
            (0..ops_per_thread)
                .map(|_| inputs.index(d) as u32)
                .collect()
        })
        .collect();
    let barrier = Barrier::new(THREADS);
    let times: Vec<[(Instant, Instant); 2]> = std::thread::scope(|scope| {
        let handles: Vec<_> = indices
            .iter()
            .map(|idx| {
                let (store, barrier) = (&store, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let mut writer = StoreWriter::new(store);
                    let a0 = Instant::now();
                    for &j in idx {
                        writer.fetch_add(j as usize, 1e-12);
                    }
                    drop(writer);
                    let a1 = Instant::now();
                    barrier.wait();
                    let r0 = Instant::now();
                    let mut acc = 0.0;
                    for &j in idx {
                        acc += store.read(j as usize);
                    }
                    std::hint::black_box(acc);
                    [(a0, a1), (r0, Instant::now())]
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("store probe thread panicked"))
            .collect()
    });
    let ns_per_op = |k: usize| {
        times
            .iter()
            .map(|t| t[k].1.duration_since(t[k].0).as_nanos() as f64)
            .sum::<f64>()
            / (THREADS * ops_per_thread) as f64
    };
    for t in &times {
        b.spans
            .record("store.fetch_add", crate::trace::ROOT, 0, t[0].0, t[0].1);
        b.spans
            .record("store.read", crate::trace::ROOT, 0, t[1].0, t[1].1);
    }
    b.put("store.fetch_add_ns", ns_per_op(0), "ns");
    b.put("store.read_ns", ns_per_op(1), "ns");
}
