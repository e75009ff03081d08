//! Execution tuning knobs shared by all native executors.

/// When to take the O(Δ) sparse gradient path instead of the O(d) dense one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SparsePolicy {
    /// Sparse iff the oracle declares a support bound Δ with `4·Δ ≤ d` — the
    /// regime where skipping the dense view scan clearly pays. The default.
    #[default]
    Auto,
    /// Always run the dense path (the paper-faithful full view scan).
    ForceDense,
    /// Run the sparse path whenever the oracle declares *any* support bound
    /// (oracles without one fall back to dense — the sparse machinery needs
    /// a bound to be meaningful).
    ForceSparse,
}

impl SparsePolicy {
    /// Decides the path for a model of dimension `d` and an oracle reporting
    /// `max_support`.
    #[must_use]
    pub fn use_sparse(self, d: usize, max_support: Option<usize>) -> bool {
        match self {
            Self::ForceDense => false,
            Self::ForceSparse => max_support.is_some(),
            Self::Auto => max_support.is_some_and(|s| s.saturating_mul(4) <= d),
        }
    }
}

/// How many per-range arenas the parameter store is split into.
///
/// Resolution to an actual shard count lives in
/// `crate::shard::ShardPolicy::resolve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardPolicy {
    /// Derive the shard count from the detected topology (cores and
    /// coherency-line size).
    Auto,
    /// At most this many power-of-two chunks (clamped to `1..=d`); chunk
    /// rounding can realise fewer. `Fixed(1)`, one flat arena, is the
    /// default.
    Fixed(usize),
}

impl Default for ShardPolicy {
    fn default() -> Self {
        Self::Fixed(1)
    }
}

/// Tuning of a native executor's hot loop, orthogonal to the algorithmic
/// configuration (`threads`, `iterations`, `alpha`, …).
///
/// The defaults reproduce the paper-faithful execution on dense oracles and
/// switch Δ-sparse oracles onto the O(Δ) path automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecTuning {
    /// Dense-vs-sparse path selection.
    pub sparse: SparsePolicy,
    /// Parameter-store sharding (topology-derived or a fixed count).
    pub shards: ShardPolicy,
    /// Pin worker threads round-robin to cores at spawn (best effort; a
    /// failed pin is ignored). Off by default.
    pub pin: bool,
    /// On the sparse path, the success-region check needs a full O(d)
    /// distance accumulation; it is sampled every this many claims instead
    /// of every claim (the dense path, which has the view anyway, keeps
    /// checking every claim). The same stride paces each worker's stop
    /// check and step timing, counted in that worker's own claims.
    /// Clamped to ≥ 1.
    pub success_check_stride: u64,
}

impl Default for ExecTuning {
    fn default() -> Self {
        Self {
            sparse: SparsePolicy::Auto,
            shards: ShardPolicy::Fixed(1),
            pin: false,
            success_check_stride: 16,
        }
    }
}

impl ExecTuning {
    /// The stride, clamped to ≥ 1.
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.success_check_stride.max(1)
    }
}

/// Allocates the dense O(d) scratch vector a claim loop needs — and asserts
/// (in debug builds) that the sparse path never asks for one.
///
/// Every executor routes its view/accumulator allocations through here with
/// `use_sparse` from its path decision and `needed` from its own logic, so
/// the "sparse path materialises no dense scratch" invariant is *checked* at
/// every allocation site rather than promised in a comment. Returns an empty
/// vector when `needed` is false.
#[must_use]
pub fn dense_scratch(d: usize, use_sparse: bool, needed: bool) -> Vec<f64> {
    debug_assert!(
        !(use_sparse && needed),
        "sparse path must not materialise a dense O(d) scratch vector"
    );
    if needed {
        vec![0.0; d]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_policy_requires_headroom() {
        let p = SparsePolicy::Auto;
        assert!(p.use_sparse(16, Some(1)), "Δ=1, d=16");
        assert!(p.use_sparse(4, Some(1)), "Δ=1, d=4 is the boundary");
        assert!(!p.use_sparse(3, Some(1)), "Δ=1, d=3: too dense to pay off");
        assert!(!p.use_sparse(1 << 20, None), "dense oracle stays dense");
    }

    #[test]
    fn force_policies() {
        assert!(!SparsePolicy::ForceDense.use_sparse(1 << 20, Some(1)));
        assert!(SparsePolicy::ForceSparse.use_sparse(2, Some(1)));
        assert!(
            !SparsePolicy::ForceSparse.use_sparse(2, None),
            "no support bound ⇒ no sparse path even when forced"
        );
    }

    #[test]
    fn default_tuning_is_paper_faithful_with_auto_sparse() {
        let t = ExecTuning::default();
        assert_eq!(t.sparse, SparsePolicy::Auto);
        assert_eq!(t.shards, ShardPolicy::Fixed(1), "one shard is the default");
        assert!(!t.pin, "pinning defaults off");
        assert!(t.stride() >= 1);
        let zero = ExecTuning {
            success_check_stride: 0,
            ..ExecTuning::default()
        };
        assert_eq!(zero.stride(), 1, "stride clamps to 1");
    }

    #[test]
    fn dense_scratch_allocates_only_when_needed() {
        assert_eq!(dense_scratch(8, false, true), vec![0.0; 8]);
        assert!(dense_scratch(8, false, false).is_empty());
        assert!(dense_scratch(8, true, false).is_empty());
    }

    #[test]
    #[should_panic(expected = "sparse path must not materialise")]
    #[cfg(debug_assertions)]
    fn dense_scratch_rejects_sparse_path_allocations() {
        let _ = dense_scratch(8, true, true);
    }
}
