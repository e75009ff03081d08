//! Op-level epoch guard: `(epoch, value)` packed into one atomic word.
//!
//! §7 of the paper requires that "a gradient update can only be applied to X
//! in the same epoch when it was generated", naming double-compare-single-
//! swap (DCAS) as one enforcement mechanism. DCAS does not exist on
//! commodity hardware, but packing a 32-bit epoch tag and an `f32` value
//! into one 64-bit word makes a single-word CAS express exactly the DCAS
//! condition — at the cost of `f32` precision. [`GuardedModel`] implements
//! this variant; the main Algorithm-2 implementations use the paper's other
//! sanctioned mechanism (distinct model per epoch, full `f64`), and this
//! type exists to demonstrate and test the guard semantics at the op level.

use crate::control::{RunControl, WorkerPoll};
use crate::shard::{ShardRouter, ShardedVec};
use crate::tuning::{dense_scratch, ExecTuning};
use asgd_oracle::{ModelView, SparseGrad};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Error returned when an update is rejected because its epoch tag does not
/// match the entry's current epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleEpochError {
    /// Epoch the update was generated in.
    pub update_epoch: u32,
    /// Epoch the entry is currently in.
    pub current_epoch: u32,
}

impl std::fmt::Display for StaleEpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale update from epoch {} rejected (entry is in epoch {})",
            self.update_epoch, self.current_epoch
        )
    }
}

impl std::error::Error for StaleEpochError {}

fn pack(epoch: u32, value: f32) -> u64 {
    (u64::from(epoch) << 32) | u64::from(value.to_bits())
}

fn unpack(word: u64) -> (u32, f32) {
    ((word >> 32) as u32, f32::from_bits(word as u32))
}

/// A model whose every entry carries an epoch tag enforced on each update —
/// the single-word-CAS rendition of the paper's DCAS epoch guard.
///
/// The packed words live in a [`ShardedVec`]: the same router-backed
/// per-range arenas as the `f64` [`ParamStore`](crate::ParamStore), so the
/// guarded executor's claim loop routes through the shard layer like the
/// plain lock-free one ([`GuardedModel::new`] builds the single-shard
/// layout).
#[derive(Debug)]
pub struct GuardedModel {
    entries: ShardedVec<AtomicU64>,
}

impl GuardedModel {
    /// Creates a model at epoch 0 initialised to `x0` (values narrowed to
    /// `f32`), in a single arena.
    #[must_use]
    pub fn new(x0: &[f64]) -> Self {
        Self::with_shards(x0, 1)
    }

    /// Like [`GuardedModel::new`] with at most `shards` power-of-two chunked
    /// arenas (clamped to `1..=d`; shift-and-mask routing, same chunk
    /// rounding as [`crate::ParamStore::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty.
    #[must_use]
    pub fn with_shards(x0: &[f64], shards: usize) -> Self {
        let router = ShardRouter::new(x0.len(), shards);
        Self {
            entries: ShardedVec::from_fn(router, |j| AtomicU64::new(pack(0, x0[j] as f32))),
        }
    }

    /// Model dimension.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.entries.dimension()
    }

    /// Number of shards the packed words are split into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.entries.router().shard_count()
    }

    /// Reads `(epoch, value)` of entry `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[must_use]
    pub fn read(&self, j: usize) -> (u32, f32) {
        unpack(self.entries.get(j).load(Ordering::SeqCst))
    }

    /// Streaming `‖X − y‖²` over the widened `f32` values, accumulated in
    /// index order — identical arithmetic to `l2_dist_sq` over a widened
    /// view scan, with no O(d) scratch.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != d`.
    #[must_use]
    pub fn dist_sq_to(&self, y: &[f64]) -> f64 {
        assert_eq!(y.len(), self.dimension(), "dist_sq_to dimension mismatch");
        y.iter()
            .enumerate()
            .map(|(j, &b)| {
                let a = f64::from(self.read(j).1);
                (a - b) * (a - b)
            })
            .sum()
    }

    /// Epoch-guarded `fetch&add`: adds `delta` to entry `j` **only if** the
    /// entry is still in `epoch`. Returns the prior value on success.
    ///
    /// # Errors
    ///
    /// Returns [`StaleEpochError`] if the entry has moved to a different
    /// epoch — the stale update is dropped, which is the whole point of the
    /// guard.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn guarded_add(&self, j: usize, epoch: u32, delta: f32) -> Result<f32, StaleEpochError> {
        let entry = self.entries.get(j);
        let mut current = entry.load(Ordering::SeqCst);
        loop {
            let (cur_epoch, cur_value) = unpack(current);
            if cur_epoch != epoch {
                return Err(StaleEpochError {
                    update_epoch: epoch,
                    current_epoch: cur_epoch,
                });
            }
            let new = pack(epoch, cur_value + delta);
            match entry.compare_exchange_weak(current, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Ok(cur_value),
                Err(actual) => current = actual,
            }
        }
    }

    /// Advances entry `j` to `new_epoch`, carrying its value over — the
    /// epoch-transition step (performed entry-wise by whichever thread
    /// starts the new epoch).
    ///
    /// # Errors
    ///
    /// Returns [`StaleEpochError`] if the entry is not in `from_epoch`
    /// anymore (someone else already advanced it).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn advance_epoch(
        &self,
        j: usize,
        from_epoch: u32,
        new_epoch: u32,
    ) -> Result<(), StaleEpochError> {
        let entry = self.entries.get(j);
        let mut current = entry.load(Ordering::SeqCst);
        loop {
            let (cur_epoch, cur_value) = unpack(current);
            if cur_epoch != from_epoch {
                return Err(StaleEpochError {
                    update_epoch: from_epoch,
                    current_epoch: cur_epoch,
                });
            }
            let new = pack(new_epoch, cur_value);
            match entry.compare_exchange_weak(current, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    /// Snapshot of all values (epochs discarded).
    #[must_use]
    pub fn snapshot_values(&self) -> Vec<f32> {
        self.entries
            .iter()
            .map(|e| unpack(e.load(Ordering::SeqCst)).1)
            .collect()
    }
}

/// Per-entry reads for sparse oracles: one atomic load per call, widening
/// the guard's `f32` storage back to `f64` (epoch tags discarded — the
/// guard is enforced on the *write* side).
impl ModelView for GuardedModel {
    fn dimension(&self) -> usize {
        self.dimension()
    }

    fn entry(&self, j: usize) -> f64 {
        f64::from(self.read(j).1)
    }
}

/// Configuration of a [`GuardedEpochSgd`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardedEpochSgdConfig {
    /// Worker thread count `n ≥ 1`.
    pub threads: usize,
    /// Total iteration budget across all epochs.
    pub iterations: u64,
    /// Initial learning rate `α₀ > 0` (halved every epoch).
    pub alpha0: f64,
    /// Halving epochs after the first (0 ⇒ a single constant-α epoch).
    pub halving_epochs: usize,
    /// Master seed; thread `i` derives coin stream `i`.
    pub seed: u64,
    /// Optional `ε`: record the first global claim index whose freshly read
    /// view satisfied `‖v − x*‖² ≤ ε`.
    pub success_radius_sq: Option<f64>,
}

/// Outcome of a [`GuardedEpochSgd`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedEpochSgdReport {
    /// Final model (entries widened from the guard's `f32` storage).
    pub final_model: Vec<f64>,
    /// `‖X_final − x*‖²`.
    pub final_dist_sq: f64,
    /// Iterations executed (= configured total, or fewer if cancelled).
    pub iterations: u64,
    /// Total epochs executed.
    pub epochs: usize,
    /// Gradient-entry updates dropped by the epoch guard (stale updates from
    /// threads still finishing an epoch after its entries advanced).
    pub stale_rejected: u64,
    /// Smallest global claim index whose view was inside the success region,
    /// if tracking was enabled and any view qualified (sampled every
    /// [`ExecTuning::success_check_stride`] claims on the sparse path).
    pub first_success_claim: Option<u64>,
    /// Wall-clock duration of the parallel section.
    pub elapsed: std::time::Duration,
    /// Whether the run took the O(Δ) sparse gradient path.
    pub used_sparse: bool,
    /// Whether the run was ended early by [`RunControl::stop`].
    pub cancelled: bool,
}

/// SGD on a [`GuardedModel`]: Algorithm 2's epoch structure enforced at the
/// *operation* level by the single-word-CAS epoch guard, on OS threads.
///
/// The first thread to exhaust an epoch's claim counter advances every
/// entry's epoch tag; updates still in flight from slower threads are then
/// rejected by the guard — exactly the "only apply updates in the epoch they
/// were generated" rule of §7, paid for with `f32` value precision.
#[derive(Debug)]
pub struct GuardedEpochSgd<O> {
    oracle: O,
    cfg: GuardedEpochSgdConfig,
    tuning: ExecTuning,
}

impl<O: asgd_oracle::GradientOracle> GuardedEpochSgd<O> {
    /// Creates the executor with default [`ExecTuning`] (the guard packs its
    /// own words, so only the sparse-path knobs apply here).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `alpha0` is not finite and positive.
    #[must_use]
    pub fn new(oracle: O, cfg: GuardedEpochSgdConfig) -> Self {
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

    /// Overrides the execution tuning (sparse policy, shards and check
    /// stride).
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
    pub fn run(&self, x0: &[f64]) -> GuardedEpochSgdReport {
        self.run_controlled(x0, RunControl::default())
    }

    /// Like [`GuardedEpochSgd::run`], with a [`RunControl`] for cancellation
    /// and strided metrics (claim indices in the callback are global across
    /// epochs).
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run_controlled(&self, x0: &[f64], ctrl: RunControl<'_>) -> GuardedEpochSgdReport {
        let d = self.oracle.dimension();
        assert_eq!(x0.len(), d, "x0 dimension mismatch");
        let epochs = self.cfg.halving_epochs + 1;
        let base = self.cfg.iterations / epochs as u64;
        let rem = (self.cfg.iterations % epochs as u64) as usize;
        // Budgets sum to exactly `iterations`; early epochs absorb the
        // remainder.
        let budgets: Vec<u64> = (0..epochs).map(|e| base + u64::from(e < rem)).collect();
        let offsets: Vec<u64> = budgets
            .iter()
            .scan(0u64, |acc, b| {
                let off = *acc;
                *acc += b;
                Some(off)
            })
            .collect();

        let model = GuardedModel::with_shards(x0, self.tuning.shards.resolve(d));
        let counters: Vec<AtomicU64> = (0..epochs).map(|_| AtomicU64::new(0)).collect();
        // advance[e] guards the transition into epoch e (0 = pending,
        // 1 = advancing, 2 = done); epoch 0 needs no transition.
        let advance: Vec<AtomicU64> = (0..epochs)
            .map(|e| AtomicU64::new(if e == 0 { 2 } else { 0 }))
            .collect();
        let stale = AtomicU64::new(0);
        let first_success = AtomicU64::new(u64::MAX);
        let interrupted = AtomicBool::new(false);
        let executed = AtomicU64::new(0);
        let seeds = asgd_math::rng::SeedSequence::new(self.cfg.seed);
        let use_sparse = self.tuning.sparse.use_sparse(d, self.oracle.max_support());
        let stride = self.tuning.stride();
        let grad_cap = self.oracle.max_support().unwrap_or(1);
        // Loop-invariant: resolve the minimizer virtual call once.
        let minimizer = self.oracle.minimizer();

        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for tid in 0..self.cfg.threads {
                let model = &model;
                let counters = &counters;
                let advance = &advance;
                let stale = &stale;
                let first_success = &first_success;
                let interrupted = &interrupted;
                let executed = &executed;
                let budgets = &budgets;
                let offsets = &offsets;
                let oracle = &self.oracle;
                let cfg = self.cfg;
                let mut rng = seeds.child_rng(tid as u64);
                let pin = self.tuning.pin;
                scope.spawn(move || {
                    if pin {
                        let _ = crate::pin::pin_current_thread(tid);
                    }
                    let mut view = dense_scratch(d, use_sparse, !use_sparse);
                    let mut grad = dense_scratch(d, use_sparse, !use_sparse);
                    let mut sgrad = SparseGrad::with_capacity(grad_cap);
                    let mut done = 0u64;
                    let mut poll = WorkerPoll::new(stride);
                    'epochs: for epoch in 0..epochs {
                        // Transition protocol: one thread advances every
                        // entry's epoch tag, the rest wait until done.
                        match advance[epoch].compare_exchange(
                            0,
                            1,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        ) {
                            Ok(_) => {
                                for j in 0..d {
                                    model
                                        .advance_epoch(j, epoch as u32 - 1, epoch as u32)
                                        .expect("single winner advances each entry once");
                                }
                                advance[epoch].store(2, Ordering::SeqCst);
                            }
                            Err(state) => {
                                if state != 2 {
                                    while advance[epoch].load(Ordering::SeqCst) != 2 {
                                        std::hint::spin_loop();
                                    }
                                }
                            }
                        }
                        let alpha = cfg.alpha0 / (1u64 << epoch.min(63)) as f64;
                        loop {
                            let claim = counters[epoch].fetch_add(1, Ordering::SeqCst);
                            if claim >= budgets[epoch] {
                                break;
                            }
                            let global_claim = offsets[epoch] + claim;
                            if poll.stop_due(&ctrl, global_claim) {
                                interrupted.store(true, Ordering::SeqCst);
                                break 'epochs;
                            }
                            if use_sparse {
                                // O(Δ) path: sampled success check/metrics,
                                // per-entry reads of just the support.
                                let at_success = cfg.success_radius_sq.is_some()
                                    && global_claim.is_multiple_of(stride);
                                let at_metrics = ctrl.metrics_at(global_claim);
                                if at_success || at_metrics {
                                    // Streaming per-entry distance — no O(d)
                                    // scratch on the sparse path.
                                    let dist_sq = model.dist_sq_to(minimizer);
                                    if at_success
                                        && cfg.success_radius_sq.is_some_and(|eps| dist_sq <= eps)
                                    {
                                        first_success.fetch_min(global_claim, Ordering::SeqCst);
                                    }
                                    if at_metrics {
                                        ctrl.emit_metrics(global_claim, dist_sq);
                                    }
                                }
                                oracle.sample_gradient_sparse(model, &mut rng, &mut sgrad);
                                for &(j, gj) in sgrad.entries() {
                                    if gj != 0.0 {
                                        let delta = (-alpha * gj) as f32;
                                        if model.guarded_add(j, epoch as u32, delta).is_err() {
                                            stale.fetch_add(1, Ordering::SeqCst);
                                        }
                                    }
                                }
                            } else {
                                for (j, v) in view.iter_mut().enumerate() {
                                    *v = f64::from(model.read(j).1);
                                }
                                let at_metrics = ctrl.metrics_at(global_claim);
                                if cfg.success_radius_sq.is_some() || at_metrics {
                                    let dist_sq = asgd_math::vec::l2_dist_sq(&view, minimizer);
                                    if cfg.success_radius_sq.is_some_and(|eps| dist_sq <= eps) {
                                        first_success.fetch_min(global_claim, Ordering::SeqCst);
                                    }
                                    if at_metrics {
                                        ctrl.emit_metrics(global_claim, dist_sq);
                                    }
                                }
                                oracle.sample_gradient(&view, &mut rng, &mut grad);
                                for (j, &gj) in grad.iter().enumerate() {
                                    if gj != 0.0 {
                                        let delta = (-alpha * gj) as f32;
                                        if model.guarded_add(j, epoch as u32, delta).is_err() {
                                            stale.fetch_add(1, Ordering::SeqCst);
                                        }
                                    }
                                }
                            }
                            done += 1;
                        }
                    }
                    executed.fetch_add(done, Ordering::SeqCst);
                });
            }
        });
        let elapsed = start.elapsed();

        let final_model: Vec<f64> = model
            .snapshot_values()
            .iter()
            .map(|&v| f64::from(v))
            .collect();
        let final_dist_sq = asgd_math::vec::l2_dist_sq(&final_model, self.oracle.minimizer());
        let hit = first_success.load(Ordering::SeqCst);
        GuardedEpochSgdReport {
            final_model,
            final_dist_sq,
            iterations: executed.load(Ordering::SeqCst),
            epochs,
            stale_rejected: stale.load(Ordering::SeqCst),
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
    use std::sync::Arc;

    #[test]
    fn pack_unpack_roundtrip() {
        for (e, v) in [(0u32, 0.0f32), (7, -1.25), (u32::MAX, f32::MAX)] {
            let (e2, v2) = unpack(pack(e, v));
            assert_eq!(e, e2);
            assert_eq!(v.to_bits(), v2.to_bits());
        }
    }

    #[test]
    fn same_epoch_updates_accumulate() {
        let m = GuardedModel::new(&[1.0]);
        assert_eq!(m.guarded_add(0, 0, 0.5), Ok(1.0));
        assert_eq!(m.guarded_add(0, 0, 0.25), Ok(1.5));
        assert_eq!(m.read(0), (0, 1.75));
        assert_eq!(m.dimension(), 1);
    }

    #[test]
    fn stale_epoch_update_is_dropped() {
        let m = GuardedModel::new(&[2.0]);
        m.advance_epoch(0, 0, 1).unwrap();
        let err = m.guarded_add(0, 0, 100.0).unwrap_err();
        assert_eq!(err.update_epoch, 0);
        assert_eq!(err.current_epoch, 1);
        assert!(err.to_string().contains("stale update"));
        // Value untouched, epoch-1 updates proceed.
        assert_eq!(m.read(0), (1, 2.0));
        assert_eq!(m.guarded_add(0, 1, 1.0), Ok(2.0));
    }

    #[test]
    fn advance_epoch_is_exactly_once() {
        let m = GuardedModel::new(&[3.0]);
        assert!(m.advance_epoch(0, 0, 1).is_ok());
        assert!(m.advance_epoch(0, 0, 1).is_err(), "second advance rejected");
    }

    #[test]
    fn concurrent_guarded_adds_conserve_within_epoch() {
        let m = Arc::new(GuardedModel::new(&[0.0]));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        m.guarded_add(0, 0, 1.0).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.read(0), (0, 40_000.0));
    }

    #[test]
    fn guarded_epoch_sgd_converges_on_quadratic() {
        let oracle = Arc::new(asgd_oracle::NoisyQuadratic::new(3, 0.1).unwrap());
        let report = GuardedEpochSgd::new(
            Arc::clone(&oracle),
            GuardedEpochSgdConfig {
                threads: 4,
                iterations: 12_000,
                alpha0: 0.1,
                halving_epochs: 3,
                seed: 7,
                success_radius_sq: Some(0.05),
            },
        )
        .run(&[2.0, -2.0, 1.0]);
        assert_eq!(report.epochs, 4);
        assert_eq!(report.iterations, 12_000);
        assert!(
            report.final_dist_sq < 0.05,
            "final dist² {} (f32 precision)",
            report.final_dist_sq
        );
        assert!(report.first_success_claim.is_some());
    }

    #[test]
    fn guarded_epoch_sgd_single_thread_drops_nothing() {
        let oracle = Arc::new(asgd_oracle::NoisyQuadratic::new(2, 0.0).unwrap());
        let report = GuardedEpochSgd::new(
            oracle,
            GuardedEpochSgdConfig {
                threads: 1,
                iterations: 100,
                alpha0: 0.1,
                halving_epochs: 1,
                seed: 0,
                success_radius_sq: None,
            },
        )
        .run(&[1.0, 1.0]);
        assert_eq!(report.stale_rejected, 0, "no concurrency, no stale drops");
        assert!(report.final_dist_sq < 1.0);
    }

    #[test]
    fn guarded_epoch_budgets_cover_total_exactly() {
        // Odd totals distribute the remainder without losing iterations:
        // visible through convergence with an exact, non-divisible budget.
        let oracle = Arc::new(asgd_oracle::NoisyQuadratic::new(1, 0.0).unwrap());
        let report = GuardedEpochSgd::new(
            oracle,
            GuardedEpochSgdConfig {
                threads: 1,
                iterations: 101,
                alpha0: 0.2,
                halving_epochs: 2,
                seed: 0,
                success_radius_sq: None,
            },
        )
        .run(&[1.0]);
        assert_eq!(report.iterations, 101);
        // 101 noiseless contraction steps with α ∈ {0.2, 0.1, 0.05}.
        let expected = 0.8_f64.powi(34) * 0.9_f64.powi(34) * 0.95_f64.powi(33);
        assert!(
            (report.final_model[0] - expected).abs() < 1e-3,
            "got {} expected ≈ {expected} (f32 rounding)",
            report.final_model[0]
        );
    }

    #[test]
    fn guarded_epoch_sgd_sparse_path_converges_and_is_exact_single_thread() {
        // 1-thread, sparse path: guard drops nothing, and the O(Δ) loop
        // applies the same f32-narrowed updates the dense loop would.
        let oracle = Arc::new(asgd_oracle::SparseQuadratic::uniform(8, 1.0, 0.0).unwrap());
        let run = |sparse| {
            GuardedEpochSgd::new(
                Arc::clone(&oracle),
                GuardedEpochSgdConfig {
                    threads: 1,
                    iterations: 4_000,
                    alpha0: 0.05,
                    halving_epochs: 1,
                    seed: 11,
                    success_radius_sq: None,
                },
            )
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
        assert_eq!(sparse.stale_rejected, 0);
        for (j, (a, b)) in dense
            .final_model
            .iter()
            .zip(&sparse.final_model)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "entry {j}");
        }
        assert!(
            sparse.final_dist_sq < 0.05,
            "dist² {}",
            sparse.final_dist_sq
        );
    }

    #[test]
    fn stop_flag_cancels_across_epochs_without_deadlock() {
        use std::sync::atomic::AtomicBool;
        let oracle = Arc::new(asgd_oracle::NoisyQuadratic::new(2, 0.1).unwrap());
        let flag = AtomicBool::new(true);
        let report = GuardedEpochSgd::new(
            oracle,
            GuardedEpochSgdConfig {
                threads: 4,
                iterations: u64::MAX / 8,
                alpha0: 0.01,
                halving_epochs: 3,
                seed: 2,
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
        assert!(report.iterations <= 4 * stride, "{}", report.iterations);
    }

    #[test]
    fn sharded_guarded_model_matches_single_arena_semantics() {
        let x0 = [1.0, 2.0, 3.0, 4.0, 5.0];
        let flat = GuardedModel::new(&x0);
        let sharded = GuardedModel::with_shards(&x0, 3);
        assert_eq!(flat.shard_count(), 1);
        assert_eq!(sharded.shard_count(), 3);
        for j in 0..5 {
            assert_eq!(flat.read(j), sharded.read(j), "entry {j}");
            assert_eq!(
                flat.guarded_add(j, 0, 0.5),
                sharded.guarded_add(j, 0, 0.5),
                "entry {j}"
            );
        }
        sharded.advance_epoch(2, 0, 1).unwrap();
        assert!(sharded.guarded_add(2, 0, 1.0).is_err());
        assert_eq!(flat.snapshot_values()[3], sharded.snapshot_values()[3]);
        let y = vec![0.0; 5];
        let widened: Vec<f64> = sharded
            .snapshot_values()
            .iter()
            .map(|&v| f64::from(v))
            .collect();
        assert_eq!(
            sharded.dist_sq_to(&y).to_bits(),
            asgd_math::vec::l2_dist_sq(&widened, &y).to_bits(),
            "streaming dist² matches the widened scan bitwise"
        );
    }

    #[test]
    fn guarded_model_is_a_model_view() {
        let m = GuardedModel::new(&[1.5, -2.5]);
        let view: &dyn asgd_oracle::ModelView = &m;
        assert_eq!(view.dimension(), 2);
        assert_eq!(view.entry(0), 1.5);
        assert_eq!(view.entry(1), -2.5);
    }

    #[test]
    #[should_panic(expected = "alpha0 must be positive")]
    fn guarded_epoch_sgd_rejects_bad_alpha() {
        let oracle = Arc::new(asgd_oracle::NoisyQuadratic::new(1, 0.0).unwrap());
        let _ = GuardedEpochSgd::new(
            oracle,
            GuardedEpochSgdConfig {
                threads: 1,
                iterations: 1,
                alpha0: 0.0,
                halving_epochs: 0,
                seed: 0,
                success_radius_sq: None,
            },
        );
    }

    #[test]
    fn concurrent_epoch_transition_drops_exactly_the_stale_tail() {
        // Writers add in epoch 0 while one thread advances the epoch; every
        // successful add is reflected, every failed add is not: the final
        // value equals the number of Ok(_) results.
        let m = Arc::new(GuardedModel::new(&[0.0]));
        let oks = std::thread::scope(|s| {
            let writers: Vec<_> = (0..4)
                .map(|_| {
                    let m = Arc::clone(&m);
                    s.spawn(move || {
                        let mut oks = 0u32;
                        for _ in 0..50_000 {
                            if m.guarded_add(0, 0, 1.0).is_ok() {
                                oks += 1;
                            }
                        }
                        oks
                    })
                })
                .collect();
            let advancer = {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    // Let some writes land first.
                    std::thread::yield_now();
                    m.advance_epoch(0, 0, 1).expect("sole advancer");
                })
            };
            advancer.join().unwrap();
            writers.into_iter().map(|w| w.join().unwrap()).sum::<u32>()
        });
        let (epoch, value) = m.read(0);
        assert_eq!(epoch, 1);
        assert_eq!(
            value, oks as f32,
            "value reflects exactly the accepted adds"
        );
    }
}
