//! Sparse gradient scratch storage and the per-entry model-read abstraction.
//!
//! The paper's bounds are parameterized by the gradient sparsity Δ (§3): a
//! Δ-sparse stochastic gradient touches at most Δ coordinates, so an
//! iteration only *needs* Δ model reads and Δ `fetch&add`s. The dense
//! `sample_gradient(&[f64], …, &mut [f64])` interface forces O(d) work per
//! iteration regardless; the types here let sparse oracles express the O(Δ)
//! access pattern:
//!
//! * [`SparseGrad`] — a reusable index/value scratch buffer a sparse oracle
//!   writes its (at most Δ) nonzero gradient entries into;
//! * [`ModelView`] — per-entry reads of a (possibly shared, possibly
//!   inconsistent) model, so a sparse oracle reads only its support instead
//!   of requiring a fully materialised `&[f64]` snapshot.

/// A stochastic gradient stored as `(coordinate, value)` pairs.
///
/// The buffer is meant to be allocated once per worker and reused across
/// iterations ([`SparseGrad::clear`] keeps capacity). Entries are stored in
/// push order; duplicate coordinates are allowed and *accumulate* when the
/// gradient is applied or densified (this is what a minibatch of overlapping
/// sparse samples produces).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseGrad {
    entries: Vec<(usize, f64)>,
}

impl SparseGrad {
    /// An empty gradient.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty gradient with room for `cap` entries.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Appends the entry `g[j] = value`.
    pub fn push(&mut self, j: usize, value: f64) {
        self.entries.push((j, value));
    }

    /// Number of stored entries (counting duplicates).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries as `(coordinate, value)` pairs, in push order.
    #[must_use]
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Multiplies every stored value by `factor` (minibatch averaging).
    pub fn scale(&mut self, factor: f64) {
        for (_, v) in &mut self.entries {
            *v *= factor;
        }
    }

    /// Writes the densified gradient into `out` (zeroing it first);
    /// duplicate coordinates accumulate in push order.
    ///
    /// # Panics
    ///
    /// Panics if any stored coordinate is out of bounds for `out`.
    pub fn densify_into(&self, out: &mut [f64]) {
        out.fill(0.0);
        for &(j, v) in &self.entries {
            out[j] += v;
        }
    }
}

/// Entry width of [`apply_dense_chunk`]'s batched delta computation: eight
/// `f64`s, one 512-bit SIMD register (or two 256-bit ones) and exactly one
/// 64-byte cache line of a compact store.
pub const DENSE_CHUNK_WIDTH: usize = 8;

/// Streams the scaled dense update `delta[j] = scale * grad[j]` through
/// `apply`, computing deltas in [`DENSE_CHUNK_WIDTH`]-wide batches.
///
/// The multiply pass over each chunk is branch-free (auto-vectorizable); the
/// apply pass then skips exact zeros, preserving the executors' "only nonzero
/// entries touch the store" contract bit for bit: entries are visited in
/// index order and each nonzero receives exactly `scale * grad[j]`, the same
/// product the scalar loop computes. Both the flat and the sharded parameter
/// stores drive their dense claim loops through this helper, so a chunk never
/// straddles a power-of-two shard boundary of at least this width.
pub fn apply_dense_chunk(grad: &[f64], scale: f64, mut apply: impl FnMut(usize, f64)) {
    let mut chunks = grad.chunks_exact(DENSE_CHUNK_WIDTH);
    let mut base = 0;
    for chunk in &mut chunks {
        let mut deltas = [0.0_f64; DENSE_CHUNK_WIDTH];
        for (slot, &g) in deltas.iter_mut().zip(chunk) {
            *slot = scale * g;
        }
        for (k, &g) in chunk.iter().enumerate() {
            if g != 0.0 {
                apply(base + k, deltas[k]);
            }
        }
        base += DENSE_CHUNK_WIDTH;
    }
    for (k, &g) in chunks.remainder().iter().enumerate() {
        if g != 0.0 {
            apply(base + k, scale * g);
        }
    }
}

/// Per-entry reads of a model vector.
///
/// Implemented by plain slices (a local iterate) and by shared-memory models
/// (`asgd-hogwild`'s `ParamStore`, where each call is one atomic load). A
/// sparse oracle receives `&dyn ModelView` and reads *only* the coordinates
/// in its gradient's support — the whole point of the O(Δ) fast path. As
/// with Algorithm 1's entry-wise scan, reads of distinct entries need not be
/// mutually consistent.
pub trait ModelView {
    /// Model dimension `d`.
    fn dimension(&self) -> usize;

    /// Reads entry `j`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `j ≥ d`.
    fn entry(&self, j: usize) -> f64;
}

impl ModelView for &[f64] {
    fn dimension(&self) -> usize {
        self.len()
    }

    fn entry(&self, j: usize) -> f64 {
        self[j]
    }
}

impl ModelView for Vec<f64> {
    fn dimension(&self) -> usize {
        self.len()
    }

    fn entry(&self, j: usize) -> f64 {
        self[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_clear_and_capacity_reuse() {
        let mut g = SparseGrad::with_capacity(4);
        assert!(g.is_empty());
        g.push(2, 1.5);
        g.push(0, -0.5);
        assert_eq!(g.len(), 2);
        assert_eq!(g.entries(), &[(2, 1.5), (0, -0.5)]);
        g.clear();
        assert!(g.is_empty());
        assert!(g.entries().is_empty());
    }

    #[test]
    fn densify_accumulates_duplicates() {
        let mut g = SparseGrad::new();
        g.push(1, 2.0);
        g.push(1, 3.0);
        g.push(3, -1.0);
        let mut out = vec![9.0; 4];
        g.densify_into(&mut out);
        assert_eq!(out, vec![0.0, 5.0, 0.0, -1.0]);
    }

    #[test]
    fn scale_applies_to_all_entries() {
        let mut g = SparseGrad::new();
        g.push(0, 4.0);
        g.push(2, -2.0);
        g.scale(0.5);
        assert_eq!(g.entries(), &[(0, 2.0), (2, -1.0)]);
    }

    #[test]
    fn apply_dense_chunk_matches_the_scalar_loop_bitwise() {
        // Cover a full chunk, a ragged remainder, zeros inside and outside
        // chunk boundaries, and negative scales.
        for d in [0, 1, 7, 8, 9, 16, 27] {
            let grad: Vec<f64> = (0..d)
                .map(|j| {
                    if j % 3 == 0 {
                        0.0
                    } else {
                        (j as f64).mul_add(0.37, -1.5)
                    }
                })
                .collect();
            let scale = -0.013;
            let mut scalar = Vec::new();
            for (j, &g) in grad.iter().enumerate() {
                if g != 0.0 {
                    scalar.push((j, scale * g));
                }
            }
            let mut chunked = Vec::new();
            apply_dense_chunk(&grad, scale, |j, delta| chunked.push((j, delta)));
            assert_eq!(scalar.len(), chunked.len(), "d={d}");
            for ((ja, a), (jb, b)) in scalar.iter().zip(&chunked) {
                assert_eq!(ja, jb, "d={d}");
                assert_eq!(a.to_bits(), b.to_bits(), "d={d} entry {ja}");
            }
        }
    }

    #[test]
    fn slices_and_vecs_are_model_views() {
        let x: &[f64] = &[1.0, 2.0, 3.0];
        let view: &dyn ModelView = &x;
        assert_eq!(view.dimension(), 3);
        assert_eq!(view.entry(1), 2.0);
        let v = vec![4.0, 5.0];
        let view: &dyn ModelView = &v;
        assert_eq!(view.dimension(), 2);
        assert_eq!(view.entry(0), 4.0);
    }
}
