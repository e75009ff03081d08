//! The coarse-grained-locking baseline.
//!
//! Early parallel SGD systems (Langford et al., cited as \[16\] in the
//! paper's introduction) kept the process "consistent to a sequential
//! execution" via coarse-grained locking — and paid for it in scalability.
//! This executor holds one mutex across a whole iteration (view read +
//! gradient application), serialising all model access. It exists as the
//! comparison point for the `speedup` experiment and the
//! `hogwild_scaling` bench.

use crate::control::{RunControl, WorkerPoll};
use crate::tuning::ExecTuning;
use asgd_math::rng::SeedSequence;
use asgd_oracle::{GradientOracle, SparseGrad};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Outcome of a locked-baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct LockedSgdReport {
    /// Final model.
    pub final_model: Vec<f64>,
    /// `‖X_final − x*‖²`.
    pub final_dist_sq: f64,
    /// Iterations executed (= configured `T`, or fewer if cancelled).
    pub iterations: u64,
    /// Wall-clock duration of the parallel section.
    pub elapsed: Duration,
    /// Whether the run took the O(Δ) sparse gradient path.
    pub used_sparse: bool,
    /// Whether the run was ended early by [`RunControl::stop`].
    pub cancelled: bool,
}

impl LockedSgdReport {
    /// Iteration throughput in iterations per second.
    #[must_use]
    pub fn iterations_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            f64::INFINITY
        } else {
            self.iterations as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Coarse-grained-locking SGD: `n` threads contend on one model mutex.
#[derive(Debug)]
pub struct LockedSgd<O> {
    oracle: O,
    threads: usize,
    iterations: u64,
    alpha: f64,
    seed: u64,
    tuning: ExecTuning,
}

impl<O: GradientOracle> LockedSgd<O> {
    /// Creates the executor with default [`ExecTuning`] (only the sparse
    /// knob applies — the model lives under one mutex, so sharding is
    /// moot).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `alpha` is not finite and positive.
    #[must_use]
    pub fn new(oracle: O, threads: usize, iterations: u64, alpha: f64, seed: u64) -> Self {
        assert!(threads >= 1, "at least one thread required");
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        Self {
            oracle,
            threads,
            iterations,
            alpha,
            seed,
            tuning: ExecTuning::default(),
        }
    }

    /// Overrides the execution tuning.
    #[must_use]
    pub fn tuning(mut self, tuning: ExecTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Runs to completion.
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run(&self, x0: &[f64]) -> LockedSgdReport {
        self.run_controlled(x0, RunControl::default())
    }

    /// Like [`LockedSgd::run`], with a [`RunControl`] for cancellation and
    /// strided metrics (dist² computed under a brief model lock).
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run_controlled(&self, x0: &[f64], ctrl: RunControl<'_>) -> LockedSgdReport {
        let d = self.oracle.dimension();
        assert_eq!(x0.len(), d, "x0 dimension mismatch");
        let model = Mutex::new(x0.to_vec());
        let counter = AtomicU64::new(0);
        let executed = AtomicU64::new(0);
        let interrupted = AtomicBool::new(false);
        let seeds = SeedSequence::new(self.seed);
        let use_sparse = self.tuning.sparse.use_sparse(d, self.oracle.max_support());
        let stride = self.tuning.stride();
        let minimizer = self.oracle.minimizer();
        let grad_cap = self.oracle.max_support().unwrap_or(1);

        let start = Instant::now();
        std::thread::scope(|scope| {
            for tid in 0..self.threads {
                let model = &model;
                let counter = &counter;
                let executed = &executed;
                let interrupted = &interrupted;
                let oracle = &self.oracle;
                let (alpha, iterations) = (self.alpha, self.iterations);
                let mut rng = seeds.child_rng(tid as u64);
                scope.spawn(move || {
                    let mut done = 0u64;
                    // Strided control point shared by both paths: stop
                    // every stride of this worker's own claims, metrics at
                    // their own stride of the global claim index.
                    let mut poll = WorkerPoll::new(stride);
                    let mut observe = |claim: u64| -> bool {
                        if poll.stop_due(&ctrl, claim) {
                            interrupted.store(true, Ordering::SeqCst);
                            return true;
                        }
                        if ctrl.metrics_at(claim) {
                            // Hold the lock only for the distance read; the
                            // observer pipeline must run outside the critical
                            // section or it stalls every worker.
                            let dist_sq = {
                                let x = model.lock();
                                asgd_math::vec::l2_dist_sq(&x, minimizer)
                            };
                            ctrl.emit_metrics(claim, dist_sq);
                        }
                        false
                    };
                    if use_sparse {
                        // Even under the lock, a Δ-sparse iteration need not
                        // copy or scan the full model: sample through the
                        // locked slice, update only the support.
                        let mut grad = SparseGrad::with_capacity(grad_cap);
                        loop {
                            let claim = counter.fetch_add(1, Ordering::SeqCst);
                            if claim >= iterations || observe(claim) {
                                break;
                            }
                            let mut x = model.lock();
                            oracle.sample_gradient_sparse(&*x, &mut rng, &mut grad);
                            for &(j, gj) in grad.entries() {
                                if gj != 0.0 {
                                    x[j] -= alpha * gj;
                                }
                            }
                            done += 1;
                        }
                    } else {
                        let mut grad = vec![0.0; d];
                        let mut view = vec![0.0; d];
                        loop {
                            let claim = counter.fetch_add(1, Ordering::SeqCst);
                            if claim >= iterations || observe(claim) {
                                break;
                            }
                            // The whole iteration holds the lock: fully serial
                            // semantics (and fully serial performance).
                            let mut x = model.lock();
                            view.copy_from_slice(&x);
                            oracle.sample_gradient(&view, &mut rng, &mut grad);
                            asgd_math::vec::axpy(&mut x, -alpha, &grad);
                            done += 1;
                        }
                    }
                    executed.fetch_add(done, Ordering::SeqCst);
                });
            }
        });
        let elapsed = start.elapsed();

        let final_model = model.into_inner();
        let final_dist_sq = asgd_math::vec::l2_dist_sq(&final_model, self.oracle.minimizer());
        LockedSgdReport {
            final_model,
            final_dist_sq,
            iterations: executed.load(Ordering::SeqCst),
            elapsed,
            used_sparse: use_sparse,
            cancelled: interrupted.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_oracle::NoisyQuadratic;
    use std::sync::Arc;

    #[test]
    fn converges_like_sequential() {
        let oracle = Arc::new(NoisyQuadratic::new(2, 0.1).unwrap());
        let report = LockedSgd::new(Arc::clone(&oracle), 4, 10_000, 0.02, 5).run(&[2.0, -2.0]);
        assert!(
            report.final_dist_sq < 0.05,
            "final dist² {}",
            report.final_dist_sq
        );
        assert_eq!(report.iterations, 10_000);
        assert!(report.iterations_per_sec() > 0.0);
    }

    #[test]
    fn noiseless_run_is_exactly_sequential() {
        // Locked iterations are serialisable: the noiseless quadratic
        // contracts deterministically regardless of which thread runs when.
        let oracle = Arc::new(NoisyQuadratic::new(1, 0.0).unwrap());
        let report = LockedSgd::new(oracle, 4, 100, 0.1, 1).run(&[1.0]);
        assert!((report.final_model[0] - 0.9_f64.powi(100)).abs() < 1e-12);
    }

    #[test]
    fn sparse_path_matches_dense_bitwise_single_threaded() {
        let oracle = Arc::new(asgd_oracle::SparseQuadratic::uniform(8, 1.0, 0.5).unwrap());
        let run = |sparse| {
            LockedSgd::new(Arc::clone(&oracle), 1, 2_000, 0.02, 3)
                .tuning(crate::tuning::ExecTuning {
                    sparse,
                    ..crate::tuning::ExecTuning::default()
                })
                .run(&[1.0; 8])
        };
        let dense = run(crate::tuning::SparsePolicy::ForceDense);
        let sparse = run(crate::tuning::SparsePolicy::ForceSparse);
        assert!(!dense.used_sparse);
        assert!(sparse.used_sparse);
        for (j, (a, b)) in dense
            .final_model
            .iter()
            .zip(&sparse.final_model)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "entry {j}");
        }
    }

    #[test]
    fn stop_flag_cancels_and_metrics_fire() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Mutex as StdMutex;
        let oracle = Arc::new(NoisyQuadratic::new(2, 0.0).unwrap());
        let flag = AtomicBool::new(false);
        let samples: StdMutex<Vec<u64>> = StdMutex::new(Vec::new());
        let sink = |claim: u64, _dist_sq: f64| {
            samples.lock().unwrap().push(claim);
            // Cancel as soon as the first strided sample lands.
            flag.store(true, Ordering::SeqCst);
        };
        let report = LockedSgd::new(oracle, 2, u64::MAX / 2, 0.1, 3).run_controlled(
            &[1.0, 1.0],
            crate::control::RunControl {
                stop: Some(&flag),
                metrics: Some(crate::control::MetricsSink {
                    stride: 16,
                    f: &sink,
                }),
                ..RunControl::default()
            },
        );
        assert!(report.cancelled);
        let stride = crate::tuning::ExecTuning::default().stride();
        assert!(report.iterations <= 2 * stride + 2);
        assert!(!samples.lock().unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_bad_alpha() {
        let oracle = Arc::new(NoisyQuadratic::new(1, 0.0).unwrap());
        let _ = LockedSgd::new(oracle, 1, 1, f64::NAN, 0);
    }
}
