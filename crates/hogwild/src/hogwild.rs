//! The native lock-free executor — Algorithm 1 on OS threads.

use crate::control::{RunControl, WorkerPoll};
use crate::shard::{ParamStore, StoreWriter};
use crate::snapshot::{ModelReader, SnapshotCell};
use crate::tuning::{dense_scratch, ExecTuning};
use asgd_math::rng::SeedSequence;
use asgd_oracle::{apply_dense_chunk, GradientOracle, SparseGrad};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a native Hogwild run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HogwildConfig {
    /// Worker thread count `n ≥ 1`.
    pub threads: usize,
    /// Total iteration budget `T` (shared claim counter).
    pub iterations: u64,
    /// Constant learning rate `α > 0`.
    pub alpha: f64,
    /// Master seed; thread `i` derives coin stream `i`.
    pub seed: u64,
    /// Optional `ε`: threads record the first claim index at which a freshly
    /// read view satisfied `‖v − x*‖² ≤ ε` (a native proxy for the hitting
    /// time; exact accumulator-order tracking is a simulator-only facility).
    pub success_radius_sq: Option<f64>,
}

/// Outcome of a native Hogwild run.
#[derive(Debug, Clone, PartialEq)]
pub struct HogwildReport {
    /// Final shared model, taken after all threads joined (consistent).
    /// The store's own allocation is handed out when the run owns it alone;
    /// a run with a serving hook attached, whose reader still shares the
    /// store, copies it instead. Either way the values are the same bits.
    pub final_model: Vec<f64>,
    /// `‖X_final − x*‖²`.
    pub final_dist_sq: f64,
    /// Iterations actually executed (= `T`, or fewer if cancelled).
    pub iterations: u64,
    /// Per-thread completed iteration counts (sums to `iterations`).
    pub per_thread_iterations: Vec<u64>,
    /// Smallest claim index whose view was inside the success region, if
    /// tracking was enabled and any view qualified. On the sparse path the
    /// check is *sampled* (every [`ExecTuning::success_check_stride`]
    /// claims), so this is an upper bound on the first qualifying claim.
    pub first_success_claim: Option<u64>,
    /// Wall-clock duration of the parallel section.
    pub elapsed: Duration,
    /// Whether the run took the O(Δ) sparse gradient path.
    pub used_sparse: bool,
    /// Whether the run was ended early by [`RunControl::stop`] (each worker
    /// stops within one success-check stride of its own claims after the
    /// flag is raised).
    pub cancelled: bool,
}

impl HogwildReport {
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

/// The lock-free executor.
///
/// Shares one [`GradientOracle`] and one [`ParamStore`] across `n` threads;
/// each thread loops: claim a slot via `fetch&add` on the iteration counter,
/// read an (inconsistent) view, sample a gradient, apply nonzero entries via
/// per-entry `fetch&add`. No locks, no barriers.
///
/// For Δ-sparse oracles ([`GradientOracle::max_support`]) the hot loop takes
/// the O(Δ) path: no full view scan, per-entry atomic reads of just the
/// gradient's support, Δ `fetch&add`s — the d/Δ cost factor the paper's
/// sparsity parameterisation promises. [`Hogwild::tuning`] selects the path
/// and the shared model's shard count.
#[derive(Debug)]
pub struct Hogwild<O> {
    oracle: O,
    cfg: HogwildConfig,
    tuning: ExecTuning,
}

impl<O: GradientOracle> Hogwild<O> {
    /// Creates the executor with default [`ExecTuning`] (one-shard store,
    /// automatic sparse-path selection).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `alpha` is not finite and positive.
    #[must_use]
    pub fn new(oracle: O, cfg: HogwildConfig) -> Self {
        assert!(cfg.threads >= 1, "at least one thread required");
        assert!(
            cfg.alpha.is_finite() && cfg.alpha > 0.0,
            "alpha must be positive"
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

    /// Runs Algorithm 1 to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run(&self, x0: &[f64]) -> HogwildReport {
        self.run_controlled(x0, RunControl::default())
    }

    /// Like [`Hogwild::run`], with a [`RunControl`] for cancellation and
    /// strided metrics. Each worker checks the stop flag every
    /// [`ExecTuning::success_check_stride`] of its own claims; metrics fire
    /// on global claim-index multiples of their own stride. So their cost
    /// and the cancellation latency are bounded regardless of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run_controlled(&self, x0: &[f64], ctrl: RunControl<'_>) -> HogwildReport {
        let d = self.oracle.dimension();
        assert_eq!(x0.len(), d, "x0 dimension mismatch");
        // The store and claim counter live in `Arc`s so a serving attachment
        // can keep reading them after this call returns (one allocation per
        // run — irrelevant next to the model itself). The store is sharded
        // per `ExecTuning::shards`; the claim loop is oblivious.
        let model = Arc::new(ParamStore::with_tuning(x0, &self.tuning));
        let counter = Arc::new(AtomicU64::new(0));
        // Snapshot storage, only when a serving hook is attached.
        let cell = ctrl.serve.map(|_| Arc::new(SnapshotCell::new(d)));
        if let (Some(hook), Some(cell)) = (ctrl.serve, &cell) {
            hook.attach(ModelReader::new(
                Arc::clone(&model),
                Arc::clone(cell),
                Arc::clone(&counter),
                self.cfg.iterations,
            ));
        }
        let first_success = AtomicU64::new(u64::MAX);
        let interrupted = AtomicBool::new(false);
        let seeds = SeedSequence::new(self.cfg.seed);
        let mut per_thread = vec![0u64; self.cfg.threads];
        let use_sparse = self.tuning.sparse.use_sparse(d, self.oracle.max_support());
        let stride = self.tuning.stride();
        // The minimizer slice and the gradient capacity are loop-invariant;
        // resolve the virtual calls once, outside the claim loop.
        let minimizer = self.oracle.minimizer();
        let grad_cap = self.oracle.max_support().unwrap_or(1);

        let start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.cfg.threads)
                .map(|tid| {
                    let model = &*model;
                    let counter = &*counter;
                    let cell = cell.as_deref();
                    let first_success = &first_success;
                    let interrupted = &interrupted;
                    let oracle = &self.oracle;
                    let cfg = self.cfg;
                    let mut rng = seeds.child_rng(tid as u64);
                    let pin = self.tuning.pin;
                    scope.spawn(move || {
                        if pin {
                            let _ = crate::pin::pin_current_thread(tid);
                        }
                        let mut done = 0u64;
                        // Stop check and step timing every `stride` of this
                        // worker's own claims (see `control`).
                        let mut poll = WorkerPoll::new(stride);
                        // Batched shard-counter accounting: one RMW per
                        // COUNTER_FLUSH updates instead of one per entry.
                        let mut writer = StoreWriter::new(model);
                        if use_sparse {
                            let mut grad = SparseGrad::with_capacity(grad_cap);
                            loop {
                                let claim = counter.fetch_add(1, Ordering::SeqCst);
                                if claim >= cfg.iterations {
                                    return done;
                                }
                                if poll.stop_due(&ctrl, claim) {
                                    interrupted.store(true, Ordering::SeqCst);
                                    return done;
                                }
                                if let (Some(hook), Some(cell)) = (ctrl.serve, cell) {
                                    if hook.publishes_at(claim) {
                                        // Tag with the global claim counter at copy
                                        // start (not this worker's own claim index,
                                        // which can be arbitrarily stale if the
                                        // worker was descheduled after claiming).
                                        // Single-threaded, the two coincide: x_claim
                                        // exactly.
                                        let progress = (counter.load(Ordering::SeqCst) - 1)
                                            .min(cfg.iterations);
                                        // Notify inside the publish critical
                                        // section: versions reach the listener
                                        // in strictly increasing order.
                                        let _ =
                                            cell.try_publish_notify(model, progress, |v, tag| {
                                                hook.notify_published(v, tag)
                                            });
                                    }
                                }
                                let at_success =
                                    cfg.success_radius_sq.is_some() && claim.is_multiple_of(stride);
                                let at_metrics = ctrl.metrics_at(claim);
                                if at_success || at_metrics {
                                    // Streaming per-entry distance: identical
                                    // read order and arithmetic to a view scan
                                    // + `l2_dist_sq`, with no O(d) scratch.
                                    let dist_sq = model.dist_sq_to(minimizer);
                                    if at_success
                                        && cfg.success_radius_sq.is_some_and(|eps| dist_sq <= eps)
                                    {
                                        first_success.fetch_min(claim, Ordering::SeqCst);
                                    }
                                    if at_metrics {
                                        ctrl.emit_metrics(claim, dist_sq);
                                    }
                                }
                                oracle.sample_gradient_sparse(model, &mut rng, &mut grad);
                                for &(j, gj) in grad.entries() {
                                    if gj != 0.0 {
                                        writer.fetch_add(j, -cfg.alpha * gj);
                                    }
                                }
                                done += 1;
                            }
                        } else {
                            let mut view = dense_scratch(d, use_sparse, true);
                            let mut grad = dense_scratch(d, use_sparse, true);
                            loop {
                                let claim = counter.fetch_add(1, Ordering::SeqCst);
                                if claim >= cfg.iterations {
                                    return done;
                                }
                                if poll.stop_due(&ctrl, claim) {
                                    interrupted.store(true, Ordering::SeqCst);
                                    return done;
                                }
                                if let (Some(hook), Some(cell)) = (ctrl.serve, cell) {
                                    if hook.publishes_at(claim) {
                                        // See the sparse loop: counter-based tag,
                                        // exact for one thread.
                                        let progress = (counter.load(Ordering::SeqCst) - 1)
                                            .min(cfg.iterations);
                                        // Notify inside the publish critical
                                        // section: versions reach the listener
                                        // in strictly increasing order.
                                        let _ =
                                            cell.try_publish_notify(model, progress, |v, tag| {
                                                hook.notify_published(v, tag)
                                            });
                                    }
                                }
                                model.read_view(&mut view);
                                let at_metrics = ctrl.metrics_at(claim);
                                if cfg.success_radius_sq.is_some() || at_metrics {
                                    let dist_sq = asgd_math::vec::l2_dist_sq(&view, minimizer);
                                    if let Some(eps) = cfg.success_radius_sq {
                                        if dist_sq <= eps {
                                            first_success.fetch_min(claim, Ordering::SeqCst);
                                        }
                                    }
                                    if at_metrics {
                                        ctrl.emit_metrics(claim, dist_sq);
                                    }
                                }
                                oracle.sample_gradient(&view, &mut rng, &mut grad);
                                // Chunked delta computation; same products,
                                // same order, same skip-zero contract as the
                                // scalar loop (bit-identical).
                                apply_dense_chunk(&grad, -cfg.alpha, |j, delta| {
                                    writer.fetch_add(j, delta);
                                });
                                done += 1;
                            }
                        }
                    })
                })
                .collect();
            for (tid, h) in handles.into_iter().enumerate() {
                per_thread[tid] = h.join().expect("worker thread panicked");
            }
        });
        let elapsed = start.elapsed();

        let executed: u64 = per_thread.iter().sum();
        // Publish the quiescent final state (also on cancellation): the last
        // snapshot a reader sees always reflects the reported final model.
        // The cell keeps tags monotone, so a cancelled run whose last
        // strided tag counted aborted claims reports that (≤ executed + n)
        // tag rather than regressing.
        if let (Some(hook), Some(cell)) = (ctrl.serve, &cell) {
            let _ = cell.try_publish_notify(&model, executed, |version, tag| {
                hook.notify_published(version, tag);
            });
        }
        // Every worker has joined, so the store is quiescent. Unless a
        // serving reader still shares it, hand its values out in place.
        let final_model = match Arc::try_unwrap(model) {
            Ok(store) => store.into_values(),
            Err(shared) => shared.snapshot(),
        };
        let final_dist_sq = asgd_math::vec::l2_dist_sq(&final_model, self.oracle.minimizer());
        let hit = first_success.load(Ordering::SeqCst);
        HogwildReport {
            final_model,
            final_dist_sq,
            iterations: executed,
            per_thread_iterations: per_thread,
            first_success_claim: (hit != u64::MAX).then_some(hit),
            elapsed,
            used_sparse: use_sparse,
            cancelled: interrupted.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_oracle::{LinearRegression, NoisyQuadratic, SparseQuadratic};
    use std::sync::Arc;

    #[test]
    fn iterations_partition_exactly() {
        let oracle = Arc::new(NoisyQuadratic::new(2, 0.5).unwrap());
        let report = Hogwild::new(
            oracle,
            HogwildConfig {
                threads: 4,
                iterations: 1_000,
                alpha: 0.01,
                seed: 1,
                success_radius_sq: None,
            },
        )
        .run(&[1.0, 1.0]);
        assert_eq!(report.per_thread_iterations.iter().sum::<u64>(), 1_000);
        assert_eq!(report.iterations, 1_000);
        assert!(report.iterations_per_sec() > 0.0);
    }

    #[test]
    fn converges_on_quadratic_multithreaded() {
        let oracle = Arc::new(NoisyQuadratic::new(4, 0.1).unwrap());
        let report = Hogwild::new(
            oracle,
            HogwildConfig {
                threads: 4,
                iterations: 20_000,
                alpha: 0.02,
                seed: 3,
                success_radius_sq: Some(0.05),
            },
        )
        .run(&[2.0, -2.0, 1.0, -1.0]);
        assert!(
            report.final_dist_sq < 0.05,
            "final dist² {}",
            report.final_dist_sq
        );
        assert!(report.first_success_claim.is_some());
    }

    #[test]
    fn converges_on_linear_regression() {
        let oracle = Arc::new(LinearRegression::synthetic(200, 6, 0.05, 5).unwrap());
        let report = Hogwild::new(
            Arc::clone(&oracle),
            HogwildConfig {
                threads: 3,
                iterations: 40_000,
                alpha: 0.01,
                seed: 9,
                success_radius_sq: None,
            },
        )
        .run(&[0.0; 6]);
        assert!(
            report.final_dist_sq < 0.05,
            "final dist² {}",
            report.final_dist_sq
        );
    }

    #[test]
    fn sparse_gradients_native() {
        let oracle = Arc::new(SparseQuadratic::uniform(8, 1.0, 0.0).unwrap());
        let report = Hogwild::new(
            oracle,
            HogwildConfig {
                threads: 4,
                iterations: 30_000,
                alpha: 0.02,
                seed: 4,
                success_radius_sq: None,
            },
        )
        .run(&[1.0; 8]);
        assert!(
            report.used_sparse,
            "Auto selects the sparse path at Δ=1,d=8"
        );
        assert!(
            report.final_dist_sq < 0.01,
            "final dist² {}",
            report.final_dist_sq
        );
    }

    #[test]
    fn sparse_and_dense_paths_agree_bitwise_single_threaded() {
        use crate::tuning::{ExecTuning, SparsePolicy};
        let oracle = Arc::new(SparseQuadratic::uniform(16, 1.0, 0.4).unwrap());
        let cfg = HogwildConfig {
            threads: 1,
            iterations: 2_000,
            alpha: 0.01,
            seed: 77,
            success_radius_sq: None,
        };
        let x0 = vec![1.0; 16];
        let dense = Hogwild::new(Arc::clone(&oracle), cfg)
            .tuning(ExecTuning {
                sparse: SparsePolicy::ForceDense,
                ..ExecTuning::default()
            })
            .run(&x0);
        let sparse = Hogwild::new(Arc::clone(&oracle), cfg)
            .tuning(ExecTuning {
                sparse: SparsePolicy::ForceSparse,
                ..ExecTuning::default()
            })
            .run(&x0);
        assert!(!dense.used_sparse);
        assert!(sparse.used_sparse);
        for (j, (a, b)) in dense
            .final_model
            .iter()
            .zip(&sparse.final_model)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "entry {j}: dense {a} sparse {b}");
        }
    }

    #[test]
    fn final_model_is_the_same_whether_moved_out_or_copied_from_a_served_store() {
        use crate::snapshot::ServeHook;
        use crate::tuning::SparsePolicy;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let oracle = Arc::new(SparseQuadratic::uniform(16, 1.0, 0.4).unwrap());
        let x0 = vec![1.0; 16];
        for sparse in [SparsePolicy::ForceDense, SparsePolicy::ForceSparse] {
            let run = |serve: Option<&ServeHook>| {
                Hogwild::new(
                    Arc::clone(&oracle),
                    HogwildConfig {
                        threads: 1,
                        iterations: 1_000,
                        alpha: 0.01,
                        seed: 9,
                        success_radius_sq: None,
                    },
                )
                .tuning(ExecTuning {
                    sparse,
                    ..ExecTuning::default()
                })
                .run_controlled(
                    &x0,
                    RunControl {
                        serve,
                        ..RunControl::default()
                    },
                )
            };
            // Unserved: the run owns the store and moves it out.
            let owned = run(None);
            // Served: the hook's reader outlives the run and still reads
            // the store, so the run had to copy it.
            let hook = ServeHook::new(64);
            let served = run(Some(&hook));
            let reader = hook.reader().expect("attached");
            assert_eq!(bits(&reader.model().snapshot()), bits(&served.final_model));
            let last = reader.snapshot().expect("final publication");
            assert_eq!(last.iteration, 1_000, "{sparse:?}");
            assert_eq!(bits(&last.values), bits(&served.final_model), "{sparse:?}");
            // One thread, same seed: publishing changes no update, so both
            // arms report the same bits, distance included.
            assert_eq!(bits(&owned.final_model), bits(&served.final_model));
            for report in [&owned, &served] {
                let dist = asgd_math::vec::l2_dist_sq(&report.final_model, oracle.minimizer());
                assert_eq!(report.final_dist_sq.to_bits(), dist.to_bits(), "{sparse:?}");
            }
        }
    }

    #[test]
    fn tuned_variants_converge_multithreaded() {
        use crate::tuning::{ExecTuning, ShardPolicy};
        let oracle = Arc::new(NoisyQuadratic::new(4, 0.1).unwrap());
        for shards in [1, 4] {
            let report = Hogwild::new(
                Arc::clone(&oracle),
                HogwildConfig {
                    threads: 4,
                    iterations: 20_000,
                    alpha: 0.02,
                    seed: 3,
                    success_radius_sq: None,
                },
            )
            .tuning(ExecTuning {
                shards: ShardPolicy::Fixed(shards),
                ..ExecTuning::default()
            })
            .run(&[2.0, -2.0, 1.0, -1.0]);
            assert!(
                report.final_dist_sq < 0.05,
                "{shards} shards: dist² {}",
                report.final_dist_sq
            );
        }
    }

    #[test]
    fn single_thread_matches_iteration_count() {
        let oracle = Arc::new(NoisyQuadratic::new(1, 0.0).unwrap());
        let report = Hogwild::new(
            oracle,
            HogwildConfig {
                threads: 1,
                iterations: 64,
                alpha: 0.1,
                seed: 0,
                success_radius_sq: None,
            },
        )
        .run(&[1.0]);
        assert_eq!(report.per_thread_iterations, vec![64]);
        // Single-threaded noiseless run is exactly (1−α)^T.
        assert!((report.final_model[0] - 0.9_f64.powi(64)).abs() < 1e-12);
    }

    #[test]
    fn pre_raised_stop_flag_cancels_within_one_stride() {
        use std::sync::atomic::AtomicBool;
        let oracle = Arc::new(NoisyQuadratic::new(2, 0.1).unwrap());
        let flag = AtomicBool::new(true);
        let report = Hogwild::new(
            oracle,
            HogwildConfig {
                threads: 4,
                iterations: u64::MAX / 2, // effectively unbounded
                alpha: 0.01,
                seed: 1,
                success_radius_sq: None,
            },
        )
        .run_controlled(
            &[1.0, 1.0],
            RunControl {
                stop: Some(&flag),
                ..RunControl::default()
            },
        );
        assert!(report.cancelled);
        let stride = ExecTuning::default().stride();
        assert!(
            report.iterations <= 4 * stride,
            "each worker stops within one stride: {} claims",
            report.iterations
        );
    }

    /// Forces two workers to take turns step by step, so their claim
    /// indices split by parity (the interleaving that starves a stop check
    /// keyed on the global claim index). Step `raise_at` (counted over both
    /// workers) raises the stop flag; each worker's later steps are
    /// counted.
    struct Alternating<O> {
        inner: O,
        flag: Arc<AtomicBool>,
        raise_at: u64,
        slots: std::sync::Mutex<Vec<std::thread::ThreadId>>,
        turn: std::sync::atomic::AtomicUsize,
        steps: AtomicU64,
        after_flag: [AtomicU64; 2],
    }

    impl<O> Alternating<O> {
        fn new(inner: O, raise_at: u64) -> Self {
            Self {
                inner,
                flag: Arc::new(AtomicBool::new(false)),
                raise_at,
                slots: std::sync::Mutex::new(Vec::new()),
                turn: std::sync::atomic::AtomicUsize::new(0),
                steps: AtomicU64::new(0),
                after_flag: [AtomicU64::new(0), AtomicU64::new(0)],
            }
        }

        /// Waits for this worker's turn (bounded: once the other worker
        /// has exited, nobody hands the turn back), then runs `step`.
        fn take_turn(&self, step: impl FnOnce()) {
            let me = std::thread::current().id();
            let slot = {
                let mut slots = self.slots.lock().unwrap();
                slots.iter().position(|&t| t == me).unwrap_or_else(|| {
                    slots.push(me);
                    slots.len() - 1
                })
            };
            let deadline = Instant::now() + Duration::from_millis(5);
            while self.turn.load(Ordering::SeqCst) != slot && Instant::now() < deadline {
                std::thread::yield_now();
            }
            if self.flag.load(Ordering::SeqCst) {
                self.after_flag[slot].fetch_add(1, Ordering::SeqCst);
            }
            if self.steps.fetch_add(1, Ordering::SeqCst) == self.raise_at {
                self.flag.store(true, Ordering::SeqCst);
            }
            step();
            self.turn.store(1 - slot, Ordering::SeqCst);
        }
    }

    impl<O: GradientOracle> GradientOracle for Alternating<O> {
        fn dimension(&self) -> usize {
            self.inner.dimension()
        }
        fn sample_gradient(&self, x: &[f64], rng: &mut dyn rand::RngCore, out: &mut [f64]) {
            self.take_turn(|| self.inner.sample_gradient(x, rng, out));
        }
        fn max_support(&self) -> Option<usize> {
            self.inner.max_support()
        }
        fn sample_gradient_sparse(
            &self,
            view: &dyn asgd_oracle::ModelView,
            rng: &mut dyn rand::RngCore,
            out: &mut SparseGrad,
        ) {
            self.take_turn(|| self.inner.sample_gradient_sparse(view, rng, out));
        }
        fn full_gradient(&self, x: &[f64], out: &mut [f64]) {
            self.inner.full_gradient(x, out);
        }
        fn objective(&self, x: &[f64]) -> f64 {
            self.inner.objective(x)
        }
        fn minimizer(&self) -> &[f64] {
            self.inner.minimizer()
        }
        fn constants(&self, radius: f64) -> asgd_oracle::Constants {
            self.inner.constants(radius)
        }
    }

    fn alternating_stop<O: GradientOracle + 'static>(inner: O) -> [u64; 2] {
        // Raised on an even claim just after a global stride multiple: a
        // global-index check lets the odd-claim worker run on for about
        // 1.5 strides of its own claims.
        let stride = ExecTuning::default().stride();
        let oracle = Arc::new(Alternating::new(inner, 10 * stride));
        let d = oracle.dimension();
        let report = Hogwild::new(
            Arc::clone(&oracle),
            HogwildConfig {
                threads: 2,
                iterations: u64::MAX / 2, // effectively unbounded
                alpha: 0.01,
                seed: 5,
                success_radius_sq: None,
            },
        )
        .run_controlled(
            &vec![1.0; d],
            RunControl {
                stop: Some(&oracle.flag),
                ..RunControl::default()
            },
        );
        assert!(report.cancelled);
        [0, 1].map(|slot| oracle.after_flag[slot].load(Ordering::SeqCst))
    }

    #[test]
    fn each_worker_stops_within_a_stride_of_its_own_claims() {
        let stride = ExecTuning::default().stride();
        for after in [
            alternating_stop(NoisyQuadratic::new(3, 0.1).unwrap()),
            alternating_stop(SparseQuadratic::uniform(64, 1.0, 0.1).unwrap()),
        ] {
            assert!(
                after.iter().all(|&n| n <= stride),
                "steps per worker after the flag {after:?} exceed the stride {stride}"
            );
        }
    }

    #[test]
    fn metrics_callback_fires_at_stride_multiples_on_both_paths() {
        use crate::tuning::SparsePolicy;
        use std::sync::Mutex;
        let oracle = Arc::new(SparseQuadratic::uniform(16, 1.0, 0.0).unwrap());
        for sparse in [SparsePolicy::ForceDense, SparsePolicy::ForceSparse] {
            let samples: Mutex<Vec<(u64, f64)>> = Mutex::new(Vec::new());
            let sink = |claim: u64, dist_sq: f64| {
                samples.lock().unwrap().push((claim, dist_sq));
            };
            let report = Hogwild::new(
                Arc::clone(&oracle),
                HogwildConfig {
                    threads: 2,
                    iterations: 200,
                    alpha: 0.01,
                    seed: 5,
                    success_radius_sq: None,
                },
            )
            .tuning(ExecTuning {
                sparse,
                ..ExecTuning::default()
            })
            .run_controlled(
                &[1.0; 16],
                RunControl {
                    metrics: Some(crate::control::MetricsSink {
                        stride: 50,
                        f: &sink,
                    }),
                    ..RunControl::default()
                },
            );
            assert!(!report.cancelled);
            let got = samples.into_inner().unwrap();
            let mut claims: Vec<u64> = got.iter().map(|&(c, _)| c).collect();
            claims.sort_unstable();
            assert_eq!(claims, vec![0, 50, 100, 150], "{sparse:?}");
            assert!(got.iter().all(|&(_, d)| d.is_finite() && d >= 0.0));
        }
    }

    #[test]
    fn timing_sink_accounts_for_every_step_on_both_paths() {
        use crate::tuning::SparsePolicy;
        use std::sync::atomic::AtomicU64;
        let oracle = Arc::new(SparseQuadratic::uniform(16, 1.0, 0.0).unwrap());
        for sparse in [SparsePolicy::ForceDense, SparsePolicy::ForceSparse] {
            let observed_steps = AtomicU64::new(0);
            let observed_ns = AtomicU64::new(0);
            let sink = |_claim: u64, ns: u64, steps: u64| {
                observed_ns.fetch_add(ns, Ordering::Relaxed);
                observed_steps.fetch_add(steps, Ordering::Relaxed);
            };
            let iterations = 10_000;
            let report = Hogwild::new(
                Arc::clone(&oracle),
                HogwildConfig {
                    threads: 2,
                    iterations,
                    alpha: 0.01,
                    seed: 5,
                    success_radius_sq: None,
                },
            )
            .tuning(ExecTuning {
                sparse,
                ..ExecTuning::default()
            })
            .run_controlled(
                &[1.0; 16],
                RunControl {
                    timing: Some(crate::control::TimingSink { f: &sink }),
                    ..RunControl::default()
                },
            );
            assert_eq!(report.iterations, iterations);
            let steps = observed_steps.load(Ordering::Relaxed);
            // Each worker's last partial stride window is never flushed, so
            // the sink sees all but at most (threads × stride) steps.
            let stride = ExecTuning::default().stride();
            assert!(
                steps >= iterations.saturating_sub(2 * stride),
                "{sparse:?}: observed only {steps} of {iterations} steps"
            );
            assert!(steps <= iterations);
            assert!(observed_ns.load(Ordering::Relaxed) > 0, "{sparse:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn rejects_zero_threads() {
        let oracle = Arc::new(NoisyQuadratic::new(1, 0.0).unwrap());
        let _ = Hogwild::new(
            oracle,
            HogwildConfig {
                threads: 0,
                iterations: 1,
                alpha: 0.1,
                seed: 0,
                success_radius_sq: None,
            },
        );
    }
}
