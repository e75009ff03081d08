//! Minibatch gradients: average `b` per-sample gradients per oracle call.
//!
//! Practical data-parallel SGD (the deployment the paper's §8 discussion
//! speaks to) rarely applies single-sample gradients: each iteration
//! averages a small batch, making the computation per iteration `O(b·d)`
//! while the shared-memory update stays `O(d)`. That ratio is what lets
//! lock-free execution convert thread parallelism into wall-clock speedup.
//! [`MinibatchRegression`] wraps [`LinearRegression`] with exactly that
//! access pattern; it is the workload of the `speedup` experiment and the
//! `hogwild_scaling` bench.
//!
//! The `O(b·d)` part runs through the least-squares row-blocked residual
//! kernel (see [`crate::linreg`]): the batch's rows are drawn in the usual
//! RNG order and processed eight at a time, so the `b` residuals are eight
//! independent add chains instead of one serial chain each. The gradient is
//! bit-identical to the one-row-at-a-time loop.

use crate::constants::Constants;
use crate::linreg::{residual_pass, LinearRegression, RankDeficientError};
use crate::oracle::GradientOracle;
use crate::sparse_grad::{ModelView, SparseGrad};
use rand::{Rng, RngCore};

/// Least squares with size-`b` minibatch stochastic gradients.
///
/// `g̃(x) = (1/b)·Σ_{i∈B} (a_iᵀx − b_i)·a_i` over a uniformly drawn batch
/// `B` (with replacement). Unbiased for `∇f`; same `c` and `L` as the
/// underlying regression; the single-sample `M²` remains a valid (now
/// conservative, since averaging only shrinks second moments) bound.
///
/// One call costs `2·b·d` multiply-adds plus `b` RNG draws; see the module
/// docs for how the residuals are blocked.
#[derive(Debug, Clone, PartialEq)]
pub struct MinibatchRegression {
    inner: LinearRegression,
    batch: usize,
    name: String,
}

impl MinibatchRegression {
    /// Wraps a regression workload with batch size `b ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    #[must_use]
    pub fn new(inner: LinearRegression, batch: usize) -> Self {
        assert!(batch >= 1, "batch size must be at least 1");
        Self {
            name: format!("minibatch-linreg(b={batch})"),
            inner,
            batch,
        }
    }

    /// Generates a synthetic dataset and wraps it in one call.
    ///
    /// # Errors
    ///
    /// Returns [`RankDeficientError`] if the generated design matrix is rank
    /// deficient.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn synthetic(
        m: usize,
        d: usize,
        noise: f64,
        batch: usize,
        seed: u64,
    ) -> Result<Self, RankDeficientError> {
        Ok(Self::new(
            LinearRegression::synthetic(m, d, noise, seed)?,
            batch,
        ))
    }

    /// The batch size `b`.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The wrapped single-sample workload.
    #[must_use]
    pub fn inner(&self) -> &LinearRegression {
        &self.inner
    }
}

impl GradientOracle for MinibatchRegression {
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }

    fn sample_gradient(&self, x: &[f64], rng: &mut dyn RngCore, out: &mut [f64]) {
        let d = self.dimension();
        assert_eq!(x.len(), d, "x dimension mismatch");
        assert_eq!(out.len(), d, "out dimension mismatch");
        out.fill(0.0);
        let data = self.inner.data();
        let rows = (0..self.batch).map(|_| rng.gen_range(0..data.len()));
        residual_pass(data, x, rows, Some(out));
        let inv_b = 1.0 / self.batch as f64;
        for o in out.iter_mut() {
            *o *= inv_b;
        }
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

    fn constants(&self, radius: f64) -> Constants {
        // Averaging cannot increase E‖g̃‖² (Jensen), so the single-sample
        // bound remains valid; c and L carry over unchanged.
        self.inner.constants(radius)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Minibatch averaging over *any* inner oracle, sparsity-preserving.
///
/// `g̃(x) = (1/b)·Σ_{k<b} g̃_inner(x)` with `b` independent inner samples.
/// Unlike [`MinibatchRegression`] (which is tied to least squares and always
/// dense), this wrapper keeps the inner oracle's sparse fast path: a batch
/// over a Δ-sparse inner oracle is at most `b·Δ`-sparse, so the shared
/// memory update cost stays O(b·Δ) instead of O(d). Same `c`/`L` as the
/// inner oracle; the inner single-sample `M²` stays a valid (conservative)
/// bound since averaging only shrinks second moments.
#[derive(Debug, Clone, PartialEq)]
pub struct Minibatch<O> {
    inner: O,
    batch: usize,
    name: String,
}

impl<O: GradientOracle> Minibatch<O> {
    /// Wraps `inner` with batch size `b ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    #[must_use]
    pub fn new(inner: O, batch: usize) -> Self {
        assert!(batch >= 1, "batch size must be at least 1");
        Self {
            name: format!("minibatch-{}(b={batch})", inner.name()),
            inner,
            batch,
        }
    }

    /// The batch size `b`.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The wrapped oracle.
    #[must_use]
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: GradientOracle> GradientOracle for Minibatch<O> {
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }

    fn sample_gradient(&self, x: &[f64], rng: &mut dyn RngCore, out: &mut [f64]) {
        let d = self.dimension();
        assert_eq!(x.len(), d, "x dimension mismatch");
        assert_eq!(out.len(), d, "out dimension mismatch");
        out.fill(0.0);
        if let Some(delta) = self.inner.max_support() {
            // Δ-sparse inner: route each sample through the sparse interface
            // so this costs O(b·Δ), not O(b·d).
            let mut sample = SparseGrad::with_capacity(delta);
            for _ in 0..self.batch {
                self.inner.sample_gradient_sparse(&x, rng, &mut sample);
                for &(j, g) in sample.entries() {
                    out[j] += g;
                }
            }
        } else {
            // Dense inner: sample directly into one reused scratch (the
            // sparse fallback would re-materialise the view and allocate
            // per sample for the identical RNG stream).
            let mut sample = vec![0.0; d];
            for _ in 0..self.batch {
                self.inner.sample_gradient(x, rng, &mut sample);
                for (o, &g) in out.iter_mut().zip(&sample) {
                    *o += g;
                }
            }
        }
        let inv_b = 1.0 / self.batch as f64;
        for o in out.iter_mut() {
            *o *= inv_b;
        }
    }

    fn max_support(&self) -> Option<usize> {
        // b·Δ bounds the *entry count* of the sparse gradient (duplicate
        // coordinates stay separate entries), so it must not be capped at d.
        self.inner
            .max_support()
            .map(|s| s.saturating_mul(self.batch))
    }

    fn sample_gradient_sparse(
        &self,
        view: &dyn ModelView,
        rng: &mut dyn RngCore,
        out: &mut SparseGrad,
    ) {
        assert_eq!(
            view.dimension(),
            self.dimension(),
            "view dimension mismatch"
        );
        out.clear();
        let mut sample = SparseGrad::with_capacity(self.inner.max_support().unwrap_or(1));
        for _ in 0..self.batch {
            self.inner.sample_gradient_sparse(view, rng, &mut sample);
            for &(j, g) in sample.entries() {
                out.push(j, g);
            }
        }
        out.scale(1.0 / self.batch as f64);
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

    fn constants(&self, radius: f64) -> Constants {
        // Jensen: averaging cannot increase E‖g̃‖²; c and L carry over.
        self.inner.constants(radius)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::unbiasedness_gap;
    use crate::SparseQuadratic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(batch: usize) -> MinibatchRegression {
        MinibatchRegression::synthetic(100, 4, 0.1, batch, 5).expect("well-conditioned")
    }

    #[test]
    fn batch_one_matches_single_sample_statistics() {
        let w = workload(1);
        assert_eq!(w.batch(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        let gap = unbiasedness_gap(&w, &[0.5, -0.5, 0.2, 0.0], &mut rng, 40_000);
        assert!(gap < 0.2, "gap {gap}");
    }

    #[test]
    fn minibatch_gradient_is_unbiased() {
        let w = workload(8);
        let mut rng = StdRng::seed_from_u64(2);
        let gap = unbiasedness_gap(&w, &[0.3, 0.1, -0.7, 0.4], &mut rng, 20_000);
        assert!(gap < 0.2, "gap {gap}");
    }

    #[test]
    fn larger_batches_reduce_variance() {
        let w1 = workload(1);
        let w16 = workload(16);
        let x = [0.5, -0.5, 0.2, 0.1];
        let measure = |w: &MinibatchRegression, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = vec![0.0; 4];
            let mut stats = asgd_math::OnlineStats::new();
            let mut exact = vec![0.0; 4];
            w.full_gradient(&x, &mut exact);
            for _ in 0..5_000 {
                w.sample_gradient(&x, &mut rng, &mut g);
                stats.push(asgd_math::vec::l2_dist_sq(&g, &exact));
            }
            stats.mean()
        };
        let v1 = measure(&w1, 3);
        let v16 = measure(&w16, 3);
        assert!(
            v16 < v1 / 4.0,
            "batch-16 variance {v16} should be ≪ single-sample {v1}"
        );
    }

    #[test]
    fn delegated_quantities_match_inner() {
        let w = workload(4);
        assert_eq!(w.minimizer(), w.inner().minimizer());
        assert_eq!(w.objective(&[0.0; 4]), w.inner().objective(&[0.0; 4]));
        let k = w.constants(1.0);
        let ki = w.inner().constants(1.0);
        assert_eq!(k.c, ki.c);
        assert_eq!(k.l, ki.l);
        assert!(w.name().contains("b=4"));
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn rejects_zero_batch() {
        let _ = workload(0);
    }

    fn sparse_batch(batch: usize) -> Minibatch<SparseQuadratic> {
        Minibatch::new(SparseQuadratic::uniform(8, 1.0, 0.3).unwrap(), batch)
    }

    #[test]
    fn generic_minibatch_support_is_b_delta() {
        assert_eq!(sparse_batch(3).max_support(), Some(3));
        assert_eq!(
            sparse_batch(100).max_support(),
            Some(100),
            "b·Δ bounds entry count (duplicates included), so no cap at d"
        );
        let dense = Minibatch::new(crate::NoisyQuadratic::new(4, 0.1).unwrap(), 5);
        assert_eq!(dense.max_support(), None, "dense inner stays dense");
        assert!(sparse_batch(2).name().contains("b=2"));
        assert_eq!(sparse_batch(2).batch(), 2);
        assert_eq!(sparse_batch(2).inner().dimension(), 8);
    }

    #[test]
    fn batch_larger_than_dimension_respects_the_entry_bound() {
        // b > d: every sample contributes an entry (duplicates allowed), so
        // len() can exceed d but never the declared b·Δ bound.
        let w = Minibatch::new(SparseQuadratic::uniform(4, 1.0, 0.2).unwrap(), 9);
        let x = vec![1.0; 4];
        let mut sparse = SparseGrad::new();
        for seed in 0..20 {
            w.sample_gradient_sparse(&x, &mut StdRng::seed_from_u64(seed), &mut sparse);
            assert_eq!(sparse.len(), 9, "one entry per inner sample");
            assert!(sparse.len() <= w.max_support().unwrap());
        }
    }

    #[test]
    fn dense_inner_minibatch_matches_per_sample_accumulation() {
        // The dense-inner path must consume the same RNG stream as b direct
        // inner samples and average them exactly.
        let inner = crate::NoisyQuadratic::new(3, 0.5).unwrap();
        let w = Minibatch::new(inner.clone(), 4);
        let x = [1.0, -2.0, 0.5];
        let mut got = vec![0.0; 3];
        w.sample_gradient(&x, &mut StdRng::seed_from_u64(7), &mut got);
        let mut rng = StdRng::seed_from_u64(7);
        let mut expected = vec![0.0; 3];
        let mut g = vec![0.0; 3];
        for _ in 0..4 {
            inner.sample_gradient(&x, &mut rng, &mut g);
            for (e, &gi) in expected.iter_mut().zip(&g) {
                *e += gi;
            }
        }
        for e in &mut expected {
            *e *= 0.25;
        }
        for (a, b) in got.iter().zip(&expected) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn generic_minibatch_sparse_and_dense_paths_agree() {
        let w = sparse_batch(4);
        let x = vec![1.0, -0.5, 2.0, 0.25, -1.0, 0.75, 3.0, -2.0];
        for seed in 0..10 {
            let mut dense = vec![0.0; 8];
            w.sample_gradient(&x, &mut StdRng::seed_from_u64(seed), &mut dense);
            let mut sparse = SparseGrad::new();
            w.sample_gradient_sparse(&&x[..], &mut StdRng::seed_from_u64(seed), &mut sparse);
            assert!(sparse.len() <= 4);
            let mut densified = vec![0.0; 8];
            sparse.densify_into(&mut densified);
            for (j, (a, b)) in dense.iter().zip(&densified).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                    "entry {j}: dense {a} vs sparse {b}"
                );
            }
        }
    }

    #[test]
    fn generic_minibatch_is_unbiased() {
        let w = sparse_batch(4);
        let mut rng = StdRng::seed_from_u64(3);
        let x = [0.5, -0.5, 0.2, 0.1, 1.0, -1.0, 0.0, 0.3];
        let gap = unbiasedness_gap(&w, &x, &mut rng, 60_000);
        assert!(gap < 0.15, "gap {gap}");
    }
}
