//! Native Algorithm 2 — `FullSGD` on OS threads.
//!
//! Same structure as the simulated version in `asgd-core`: per-epoch model
//! arrays (the paper's own alternative to DCAS), an init race per epoch won
//! by CAS with losers spinning until the winner marks the epoch ready, a
//! snapshot of the final epoch's start state, and a shared `Acc` region the
//! final epoch's threads publish their locally accumulated updates into.
//! The result is `r = snapshot + Σᵢ Acc[i]` (Algorithm 2, line 9).

use crate::control::{RunControl, WorkerPoll};
use crate::shard::{ParamStore, StoreWriter};
use crate::tuning::{dense_scratch, ExecTuning};
use asgd_math::rng::SeedSequence;
use asgd_oracle::{apply_dense_chunk, GradientOracle, SparseGrad};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Configuration of a native Algorithm-2 run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NativeFullSgdConfig {
    /// Initial learning rate `α₀ > 0`.
    pub alpha0: f64,
    /// Iterations per epoch `T`.
    pub epoch_iterations: u64,
    /// Halving epochs before the final accumulating epoch.
    pub halving_epochs: usize,
    /// Worker thread count `n ≥ 1`.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
}

/// Outcome of a native Algorithm-2 run.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeFullSgdReport {
    /// The collected result `r`.
    pub r: Vec<f64>,
    /// Final model of the last epoch (≈ `r` up to f64 summation order).
    pub final_model: Vec<f64>,
    /// `‖r − x*‖` (the Corollary 7.1 quantity).
    pub dist_to_opt: f64,
    /// Wall-clock duration of the parallel section.
    pub elapsed: Duration,
    /// Total epochs executed.
    pub epochs: usize,
    /// Iterations actually executed (= `epoch_iterations ×` total epochs, or
    /// fewer if cancelled).
    pub iterations: u64,
    /// Whether the run took the O(Δ) sparse gradient path.
    pub used_sparse: bool,
    /// Whether the run was ended early by [`RunControl::stop`]. The final
    /// epoch's local accumulators are still published, so `r` remains the
    /// snapshot-plus-sum of every applied final-epoch update.
    pub cancelled: bool,
}

/// The native Algorithm-2 executor.
#[derive(Debug)]
pub struct NativeFullSgd<O> {
    oracle: O,
    cfg: NativeFullSgdConfig,
    tuning: ExecTuning,
}

const GUARD_UNINIT: u64 = 0;
const GUARD_BUSY: u64 = 1;
const GUARD_READY: u64 = 2;

impl<O: GradientOracle> NativeFullSgd<O> {
    /// Creates the executor with default [`ExecTuning`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `alpha0` is not finite and positive.
    #[must_use]
    pub fn new(oracle: O, cfg: NativeFullSgdConfig) -> Self {
        assert!(cfg.threads >= 1, "at least one thread required");
        assert!(
            cfg.alpha0.is_finite() && cfg.alpha0 > 0.0,
            "alpha0 must be positive"
        );
        Self {
            oracle,
            cfg,
            tuning: ExecTuning::default(),
        }
    }

    /// Overrides the execution tuning (sparse policy, shards, pinning).
    #[must_use]
    pub fn tuning(mut self, tuning: ExecTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Runs Algorithm 2 to completion.
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run(&self, x0: &[f64]) -> NativeFullSgdReport {
        self.run_controlled(x0, RunControl::default())
    }

    /// Like [`NativeFullSgd::run`], with a [`RunControl`] for cancellation
    /// and strided metrics (claim indices in the callback are global across
    /// epochs; dist² is measured on the current epoch's model).
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run_controlled(&self, x0: &[f64], ctrl: RunControl<'_>) -> NativeFullSgdReport {
        let d = self.oracle.dimension();
        assert_eq!(x0.len(), d, "x0 dimension mismatch");
        let total_epochs = self.cfg.halving_epochs + 1;

        // Per-epoch stores (sharded per the tuning); epoch 0 seeded
        // with x₀, later epochs zeroed until their init winner copies the
        // predecessor in.
        let mut models: Vec<ParamStore> = (0..total_epochs)
            .map(|e| {
                if e == 0 {
                    ParamStore::with_tuning(x0, &self.tuning)
                } else {
                    ParamStore::zeros_with_tuning(d, &self.tuning)
                }
            })
            .collect();
        let snapshot = ParamStore::zeros_with_tuning(d, &self.tuning);
        let acc = ParamStore::zeros_with_tuning(d, &self.tuning);
        let counters: Vec<AtomicU64> = (0..total_epochs).map(|_| AtomicU64::new(0)).collect();
        let guards: Vec<AtomicU64> = (0..total_epochs)
            .map(|e| AtomicU64::new(if e == 0 { GUARD_READY } else { GUARD_UNINIT }))
            .collect();
        // Epoch 0 of a single-epoch run starts from x₀; pre-fill the
        // snapshot accordingly (no init race writes it in that case).
        if total_epochs == 1 {
            for (j, &v) in x0.iter().enumerate() {
                snapshot.write(j, v);
            }
        }
        let seeds = SeedSequence::new(self.cfg.seed);
        let use_sparse = self.tuning.sparse.use_sparse(d, self.oracle.max_support());
        let stride = self.tuning.stride();
        let minimizer = self.oracle.minimizer();
        let grad_cap = self.oracle.max_support().unwrap_or(1);
        let interrupted = AtomicBool::new(false);
        let executed = AtomicU64::new(0);

        let start = Instant::now();
        std::thread::scope(|scope| {
            for tid in 0..self.cfg.threads {
                let models = &models;
                let snapshot = &snapshot;
                let acc = &acc;
                let counters = &counters;
                let guards = &guards;
                let interrupted = &interrupted;
                let executed = &executed;
                let oracle = &self.oracle;
                let cfg = self.cfg;
                let mut rng = seeds.child_rng(tid as u64);
                let pin = self.tuning.pin;
                scope.spawn(move || {
                    if pin {
                        let _ = crate::pin::pin_current_thread(tid);
                    }
                    // O(d) scratch exists only on the dense path; the sparse
                    // path streams its metrics samples and keeps its final-
                    // epoch accumulator sparse (asserted by `dense_scratch`).
                    let mut view = dense_scratch(d, use_sparse, !use_sparse);
                    let mut grad = dense_scratch(d, use_sparse, !use_sparse);
                    let mut local_acc = dense_scratch(d, use_sparse, !use_sparse);
                    let mut sgrad = SparseGrad::with_capacity(grad_cap);
                    let mut sparse_acc: BTreeMap<usize, f64> = BTreeMap::new();
                    let mut done = 0u64;
                    let mut poll = WorkerPoll::new(stride);
                    let mut stopped = false;
                    for epoch in 0..total_epochs {
                        let is_final = epoch + 1 == total_epochs;
                        // Epoch initialisation protocol.
                        if epoch > 0 {
                            match guards[epoch].compare_exchange(
                                GUARD_UNINIT,
                                GUARD_BUSY,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            ) {
                                Ok(_) => {
                                    // Winner: copy predecessor (late epoch-
                                    // (e−1) writes after this copy are
                                    // dropped — the guard semantics).
                                    for j in 0..d {
                                        let v = models[epoch - 1].read(j);
                                        models[epoch].write(j, v);
                                        if is_final {
                                            snapshot.write(j, v);
                                        }
                                    }
                                    guards[epoch].store(GUARD_READY, Ordering::SeqCst);
                                }
                                Err(_) => {
                                    while guards[epoch].load(Ordering::SeqCst) != GUARD_READY {
                                        std::hint::spin_loop();
                                    }
                                }
                            }
                        }
                        // EpochSGD on this epoch's model.
                        let alpha = cfg.alpha0 / (1u64 << epoch.min(63)) as f64;
                        let model = &models[epoch];
                        // Batched shard-counter accounting for this epoch's
                        // store; flushes on drop at epoch end.
                        let mut writer = StoreWriter::new(model);
                        if is_final {
                            local_acc.fill(0.0);
                            sparse_acc.clear();
                        }
                        loop {
                            let claim = counters[epoch].fetch_add(1, Ordering::SeqCst);
                            if claim >= cfg.epoch_iterations {
                                break;
                            }
                            let global_claim = epoch as u64 * cfg.epoch_iterations + claim;
                            if poll.stop_due(&ctrl, global_claim) {
                                interrupted.store(true, Ordering::SeqCst);
                                stopped = true;
                                break;
                            }
                            if use_sparse {
                                // O(Δ): per-entry reads of the gradient's
                                // support, no full view materialisation —
                                // the strided metrics sample streams too.
                                if ctrl.metrics_at(global_claim) {
                                    ctrl.emit_metrics(global_claim, model.dist_sq_to(minimizer));
                                }
                                oracle.sample_gradient_sparse(model, &mut rng, &mut sgrad);
                                for &(j, gj) in sgrad.entries() {
                                    if gj != 0.0 {
                                        let delta = -alpha * gj;
                                        writer.fetch_add(j, delta);
                                        if is_final {
                                            *sparse_acc.entry(j).or_insert(0.0) += delta;
                                        }
                                    }
                                }
                            } else {
                                model.read_view(&mut view);
                                if ctrl.metrics_at(global_claim) {
                                    ctrl.emit_metrics(
                                        global_claim,
                                        asgd_math::vec::l2_dist_sq(&view, minimizer),
                                    );
                                }
                                oracle.sample_gradient(&view, &mut rng, &mut grad);
                                apply_dense_chunk(&grad, -alpha, |j, delta| {
                                    writer.fetch_add(j, delta);
                                    if is_final {
                                        local_acc[j] += delta;
                                    }
                                });
                            }
                            done += 1;
                        }
                        if is_final {
                            // Both accumulators publish in ascending index
                            // order, skipping entries that net to zero —
                            // identical `Acc` arithmetic on either path
                            // (`BTreeMap` iterates keys ascending).
                            for (j, &a) in local_acc.iter().enumerate() {
                                if a != 0.0 {
                                    acc.fetch_add(j, a);
                                }
                            }
                            for (&j, &a) in &sparse_acc {
                                if a != 0.0 {
                                    acc.fetch_add(j, a);
                                }
                            }
                        }
                        if stopped {
                            break;
                        }
                    }
                    executed.fetch_add(done, Ordering::SeqCst);
                });
            }
        });
        let elapsed = start.elapsed();

        let cancelled = interrupted.load(Ordering::SeqCst);
        // A run cancelled before the final epoch was initialised has an
        // untouched (all-zero) snapshot/Acc/final-model; report the deepest
        // *live* epoch's model instead, so cancelled reports always describe
        // real partial progress.
        let live_epoch = (0..total_epochs)
            .rev()
            .find(|&e| guards[e].load(Ordering::SeqCst) == GUARD_READY)
            .unwrap_or(0);
        // Every worker has joined and the stores are owned here: take their
        // values in place rather than copying them.
        let (r, final_model) = if cancelled && live_epoch + 1 < total_epochs {
            let live = models.swap_remove(live_epoch).into_values();
            (live.clone(), live)
        } else {
            let acc_final = acc.into_values();
            // r = snapshot + Acc, built in the snapshot's buffer (`s += a`
            // is `s + a`: the same bits as a separate sum vector).
            let mut r = snapshot.into_values();
            for (s, a) in r.iter_mut().zip(&acc_final) {
                *s += a;
            }
            let last = models.pop().expect("at least one epoch");
            (r, last.into_values())
        };
        let dist_to_opt = asgd_math::vec::l2_dist(&r, self.oracle.minimizer());
        NativeFullSgdReport {
            r,
            final_model,
            dist_to_opt,
            elapsed,
            epochs: total_epochs,
            iterations: executed.load(Ordering::SeqCst),
            used_sparse: use_sparse,
            cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_oracle::NoisyQuadratic;
    use std::sync::Arc;

    #[test]
    fn r_reconstructs_final_model() {
        let oracle = Arc::new(NoisyQuadratic::new(3, 0.3).unwrap());
        let report = NativeFullSgd::new(
            Arc::clone(&oracle),
            NativeFullSgdConfig {
                alpha0: 0.2,
                epoch_iterations: 500,
                halving_epochs: 2,
                threads: 4,
                seed: 3,
            },
        )
        .run(&[1.0, -1.0, 0.5]);
        assert_eq!(report.epochs, 3);
        for j in 0..3 {
            assert!(
                (report.r[j] - report.final_model[j]).abs() < 1e-9,
                "entry {j}: r={} model={}",
                report.r[j],
                report.final_model[j]
            );
        }
    }

    #[test]
    fn halving_beats_fixed_alpha_noise_floor() {
        let oracle = Arc::new(NoisyQuadratic::new(1, 1.0).unwrap());
        let single = NativeFullSgd::new(
            Arc::clone(&oracle),
            NativeFullSgdConfig {
                alpha0: 0.5,
                epoch_iterations: 1_000,
                halving_epochs: 0,
                threads: 2,
                seed: 5,
            },
        )
        .run(&[4.0]);
        let halved = NativeFullSgd::new(
            Arc::clone(&oracle),
            NativeFullSgdConfig {
                alpha0: 0.5,
                epoch_iterations: 1_000,
                halving_epochs: 6,
                threads: 2,
                seed: 5,
            },
        )
        .run(&[4.0]);
        assert!(
            halved.dist_to_opt < single.dist_to_opt,
            "halving {} vs fixed {}",
            halved.dist_to_opt,
            single.dist_to_opt
        );
        assert!(halved.dist_to_opt < 0.25, "dist {}", halved.dist_to_opt);
    }

    #[test]
    fn single_epoch_uses_x0_snapshot() {
        let oracle = Arc::new(NoisyQuadratic::new(2, 0.0).unwrap());
        let report = NativeFullSgd::new(
            oracle,
            NativeFullSgdConfig {
                alpha0: 0.1,
                epoch_iterations: 200,
                halving_epochs: 0,
                threads: 2,
                seed: 1,
            },
        )
        .run(&[1.0, 1.0]);
        for j in 0..2 {
            assert!(
                (report.r[j] - report.final_model[j]).abs() < 1e-9,
                "entry {j} mismatch in single-epoch mode"
            );
        }
    }

    #[test]
    fn converges_with_many_threads() {
        let oracle = Arc::new(NoisyQuadratic::new(4, 0.5).unwrap());
        let report = NativeFullSgd::new(
            oracle,
            NativeFullSgdConfig {
                alpha0: 0.25,
                epoch_iterations: 2_000,
                halving_epochs: 5,
                threads: 8,
                seed: 11,
            },
        )
        .run(&[2.0, -2.0, 2.0, -2.0]);
        assert!(report.dist_to_opt < 0.5, "dist {}", report.dist_to_opt);
        assert!(report.elapsed > Duration::ZERO);
    }

    #[test]
    fn sparse_path_still_reconstructs_r() {
        // The r = snapshot + ΣAcc identity must hold on the O(Δ) path too:
        // local accumulation sees exactly the applied deltas either way.
        let oracle = Arc::new(asgd_oracle::SparseQuadratic::uniform(8, 1.0, 0.2).unwrap());
        let report = NativeFullSgd::new(
            oracle,
            NativeFullSgdConfig {
                alpha0: 0.05,
                epoch_iterations: 800,
                halving_epochs: 2,
                threads: 4,
                seed: 9,
            },
        )
        .run(&[1.0; 8]);
        assert!(report.used_sparse, "Auto selects sparse at Δ=1,d=8");
        for j in 0..8 {
            assert!(
                (report.r[j] - report.final_model[j]).abs() < 1e-9,
                "entry {j}: r={} model={}",
                report.r[j],
                report.final_model[j]
            );
        }
    }

    #[test]
    fn completed_runs_report_their_full_budget() {
        let oracle = Arc::new(NoisyQuadratic::new(2, 0.1).unwrap());
        let report = NativeFullSgd::new(
            oracle,
            NativeFullSgdConfig {
                alpha0: 0.1,
                epoch_iterations: 300,
                halving_epochs: 2,
                threads: 3,
                seed: 4,
            },
        )
        .run(&[1.0, -1.0]);
        assert_eq!(report.iterations, 900);
        assert!(!report.cancelled);
    }

    #[test]
    fn stop_flag_cancels_and_r_still_reconstructs_applied_updates() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let oracle = Arc::new(NoisyQuadratic::new(2, 0.1).unwrap());
        let flag = AtomicBool::new(false);
        // Single epoch so every applied update is accumulator-tracked; raise
        // the flag from the metrics callback after a few strides.
        let sink = |claim: u64, _d: f64| {
            if claim >= 64 {
                flag.store(true, Ordering::SeqCst);
            }
        };
        let report = NativeFullSgd::new(
            oracle,
            NativeFullSgdConfig {
                alpha0: 0.01,
                epoch_iterations: u64::MAX / 4,
                halving_epochs: 0,
                threads: 2,
                seed: 6,
            },
        )
        .run_controlled(
            &[1.0, -1.0],
            RunControl {
                stop: Some(&flag),
                metrics: Some(crate::control::MetricsSink {
                    stride: 16,
                    f: &sink,
                }),
                ..RunControl::default()
            },
        );
        assert!(report.cancelled);
        assert!(report.iterations < 100_000, "{}", report.iterations);
        // r = snapshot + ΣAcc must still reconstruct the final model.
        for j in 0..2 {
            assert!(
                (report.r[j] - report.final_model[j]).abs() < 1e-9,
                "entry {j}: r={} model={}",
                report.r[j],
                report.final_model[j]
            );
        }
    }

    #[test]
    #[should_panic(expected = "alpha0 must be positive")]
    fn rejects_bad_alpha() {
        let oracle = Arc::new(NoisyQuadratic::new(1, 0.0).unwrap());
        let _ = NativeFullSgd::new(
            oracle,
            NativeFullSgdConfig {
                alpha0: -1.0,
                epoch_iterations: 1,
                halving_epochs: 0,
                threads: 1,
                seed: 0,
            },
        );
    }
}
