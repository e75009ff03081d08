//! Lock-free atomic `f64` built on `AtomicU64` bit transmutation.
//!
//! Commodity CPUs have no native floating-point `fetch&add`; the standard
//! construction (also what the paper's model assumes as a primitive) is a
//! compare-and-swap loop over the bit pattern. The loop is lock-free: a
//! failed CAS means *another* update succeeded, so system-wide progress is
//! guaranteed — exactly the property that prevents a delayed thread from
//! obliterating others' progress (§1).
//!
//! Update conservation — concurrent `fetch_add`s never lose an addend — is
//! model-checked in `asgd-chaos` (`AtomicAddModel`): the CAS loop verifies
//! over every bounded-preemption schedule, while a load-then-store variant
//! is caught losing updates with one preemption.

use std::sync::atomic::{AtomicU64, Ordering};

/// An atomically updatable `f64`.
///
/// Loads, stores and successful CASes are sequentially consistent, matching
/// the sequentially consistent shared-memory model assumed in §2 of the
/// paper.
/// (On x86-64 a relaxed load and CAS loop compile to the same `mov` and
/// `lock cmpxchg` instructions, so a weaker ordering would buy nothing
/// there.)
///
/// # Example
///
/// ```
/// use asgd_hogwild::AtomicF64;
///
/// let x = AtomicF64::new(1.0);
/// assert_eq!(x.fetch_add(0.5), 1.0); // returns the prior value
/// assert_eq!(x.load(), 1.5);
/// ```
#[derive(Debug, Default)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// Creates a new atomic with the given initial value.
    #[must_use]
    pub fn new(value: f64) -> Self {
        Self {
            bits: AtomicU64::new(value.to_bits()),
        }
    }

    /// Atomically reads the value.
    #[must_use]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::SeqCst))
    }

    /// Consumes the atomic and returns its value (no synchronisation needed:
    /// ownership proves no other thread can touch it).
    #[must_use]
    pub fn into_inner(self) -> f64 {
        f64::from_bits(self.bits.into_inner())
    }

    /// Atomically writes the value.
    pub fn store(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::SeqCst);
    }

    /// Atomic `fetch&add`: adds `delta` and returns the *previous* value —
    /// the primitive of Algorithm 1, line 7.
    pub fn fetch_add(&self, delta: f64) -> f64 {
        // A failed CAS only needs the freshly observed value, not a fence:
        // Relaxed failure ordering, with a spin hint before the retry (the
        // failure means another core just wrote this line).
        let mut current = self.bits.load(Ordering::SeqCst);
        loop {
            let new = f64::from_bits(current) + delta;
            match self.bits.compare_exchange_weak(
                current,
                new.to_bits(),
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(prev) => return f64::from_bits(prev),
                Err(actual) => {
                    std::hint::spin_loop();
                    current = actual;
                }
            }
        }
    }

    /// Atomic compare-and-swap on the exact bit pattern. Returns `Ok(prev)`
    /// on success and `Err(observed)` on failure.
    ///
    /// # Errors
    ///
    /// Returns the observed value when it differs bitwise from `expected`.
    pub fn compare_exchange(&self, expected: f64, new: f64) -> Result<f64, f64> {
        self.bits
            .compare_exchange(
                expected.to_bits(),
                new.to_bits(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .map(f64::from_bits)
            .map_err(f64::from_bits)
    }
}

/// A value alone on its own 64-byte cache line.
///
/// Used for the parameter store's per-shard update counters (one counter
/// per line): threads hammering *different* counters must not ping-pong
/// one line between cores. The alignment matches the coherency line size of
/// every x86-64 and most AArch64 parts; on CPUs with larger lines the type
/// still removes the worst of the false sharing.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CacheAligned<T>(pub T);

impl From<f64> for AtomicF64 {
    fn from(v: f64) -> Self {
        Self::new(v)
    }
}

impl Clone for AtomicF64 {
    fn clone(&self) -> Self {
        Self::new(self.load())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_load_store() {
        let x = AtomicF64::new(2.5);
        assert_eq!(x.load(), 2.5);
        x.store(-1.25);
        assert_eq!(x.load(), -1.25);
        assert_eq!(AtomicF64::default().load(), 0.0);
        assert_eq!(AtomicF64::from(3.0).load(), 3.0);
    }

    #[test]
    fn fetch_add_returns_prior() {
        let x = AtomicF64::new(1.0);
        assert_eq!(x.fetch_add(2.0), 1.0);
        assert_eq!(x.fetch_add(-0.5), 3.0);
        assert_eq!(x.load(), 2.5);
    }

    #[test]
    fn compare_exchange_success_and_failure() {
        let x = AtomicF64::new(1.0);
        assert_eq!(x.compare_exchange(1.0, 5.0), Ok(1.0));
        assert_eq!(x.compare_exchange(1.0, 9.0), Err(5.0));
        assert_eq!(x.load(), 5.0);
    }

    #[test]
    fn clone_snapshots_value() {
        let x = AtomicF64::new(7.0);
        let y = x.clone();
        x.store(0.0);
        assert_eq!(y.load(), 7.0);
    }

    #[test]
    fn concurrent_fetch_add_conserves_sum() {
        // The defining property of fetch&add (vs racy read-modify-write):
        // no update is ever lost, regardless of interleaving.
        let x = Arc::new(AtomicF64::new(0.0));
        let threads = 8;
        let per_thread = 10_000;
        std::thread::scope(|s| {
            for t in 0..threads {
                let x = Arc::clone(&x);
                s.spawn(move || {
                    let delta = if t % 2 == 0 { 1.0 } else { -1.0 };
                    for _ in 0..per_thread {
                        x.fetch_add(delta);
                    }
                });
            }
        });
        assert_eq!(x.load(), 0.0);
    }

    #[test]
    fn concurrent_mixed_magnitudes_conserve_exactly() {
        // Powers of two are exact in binary floating point, so the final
        // value is deterministic even under arbitrary interleavings.
        let x = Arc::new(AtomicF64::new(0.0));
        std::thread::scope(|s| {
            for t in 0..4 {
                let x = Arc::clone(&x);
                s.spawn(move || {
                    let delta = 2.0_f64.powi(t);
                    for _ in 0..1000 {
                        x.fetch_add(delta);
                    }
                });
            }
        });
        assert_eq!(x.load(), 1000.0 * (1.0 + 2.0 + 4.0 + 8.0));
    }

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtomicF64>();
    }

    #[test]
    fn cache_aligned_occupies_a_full_line() {
        assert_eq!(std::mem::align_of::<CacheAligned<AtomicF64>>(), 64);
        assert_eq!(std::mem::size_of::<CacheAligned<AtomicF64>>(), 64);
        let c = CacheAligned(AtomicF64::new(1.5));
        assert_eq!(c.0.load(), 1.5);
    }
}
