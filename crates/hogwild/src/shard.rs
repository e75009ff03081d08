//! The shared parameter store `X[d]`, split into per-range arenas.
//!
//! The paper's machine (§2, Algorithm 1) has one shared array read entry by
//! entry and updated with per-entry atomic `fetch&add`. Nothing in the
//! analysis requires that array to live in one allocation: the adversary
//! model only needs per-entry atomic reads and non-lost `fetch&add`s. At
//! `d = 10M+` a single arena leaves locality on the table — every NUMA node
//! and cache slice hammers one allocation — so the store can split the
//! iterate into contiguous index ranges (*shards*), each backed by its own
//! arena. One shard, the default, is the plain flat array:
//!
//! * [`ShardTopology`] — detected core count and coherency-line size (with
//!   explicit overrides) from which the `auto` shard count is derived;
//! * [`ShardRouter`] — the index→(shard, offset) map. Chunk sizes are powers
//!   of two, so routing is a shift and a mask — no table, no search;
//! * [`ShardedVec`] — a generic routed arena container (the sharded twin of
//!   a `Vec<T>`), reused by [`GuardedModel`](crate::GuardedModel) for its
//!   epoch-tagged words;
//! * [`ParamStore`] — the `AtomicF64` store behind the router, plus one
//!   cache-line-padded counter of applied updates per shard. The counters
//!   count `fetch&add`s landed in each range — they are not delays (τ) —
//!   and [`ParamStore::coherent_update_counts`] reads them as an
//!   instantaneous cross-shard vector via double-collect validation. The
//!   serving tier's stats-scrape mirrors these counters into the
//!   process-wide telemetry registry (`asgd-telemetry`) as
//!   `asgd_shard_updates_total{model=…,shard=…}` counters plus derived
//!   `asgd_shard_update_rate` and `asgd_shard_claim_gap` gauges, and the
//!   registry's snapshot uses this same double-collect protocol;
//! * [`StoreWriter`] — the per-worker write handle claim loops update
//!   through, batching the counter bumps.
//!
//! Values are bit-identical across shard counts by construction: routing
//! never changes *which* `AtomicF64` cell an index denotes, only where the
//! cell lives, so every shard count performs the exact same reads and CAS
//! loops in the exact same order.

use crate::atomic::{AtomicF64, CacheAligned};
use crate::tuning::{ExecTuning, ShardPolicy};
use asgd_oracle::ModelView;
use std::sync::atomic::{AtomicU64, Ordering};

/// Detected (or overridden) machine topology the `auto` shard count is
/// derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTopology {
    /// Available cores (≥ 1).
    pub cores: usize,
    /// Coherency line size in bytes (≥ 8).
    pub cache_line: usize,
}

impl ShardTopology {
    /// Detects the topology: cores from `available_parallelism`, line size
    /// from sysfs on Linux (64 bytes when unreadable — correct for every
    /// current x86-64 part).
    #[must_use]
    pub fn detect() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cache_line = std::fs::read_to_string(
            "/sys/devices/system/cpu/cpu0/cache/index0/coherency_line_size",
        )
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&b| b >= 8)
        .unwrap_or(64);
        Self { cores, cache_line }
    }

    /// Explicit override of both parameters (clamped to their minima).
    #[must_use]
    pub fn with(cores: usize, cache_line: usize) -> Self {
        Self {
            cores: cores.max(1),
            cache_line: cache_line.max(8),
        }
    }

    /// The `auto` shard count for a `d`-dimensional model: one shard per
    /// core rounded up to a power of two (shift-and-mask routing), but never
    /// so many that a shard would span less than one coherency line of
    /// entries — at tiny `d` it collapses to a single shard.
    #[must_use]
    pub fn auto_shards(&self, d: usize) -> usize {
        let per_line = (self.cache_line / std::mem::size_of::<f64>()).max(1);
        let max_shards = (d / per_line).max(1);
        // Round the cap *down* to a power of two so every shard keeps at
        // least a line of entries.
        let cap = if max_shards.is_power_of_two() {
            max_shards
        } else {
            max_shards.next_power_of_two() / 2
        };
        self.cores.next_power_of_two().min(cap)
    }
}

/// The index→(shard, offset) map over power-of-two chunks: routing entry
/// `j` is `j >> shift` and `j & mask`, with the final shard allowed to be
/// ragged (shorter than the chunk) when `d` is not a multiple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    /// `log2` of the chunk size.
    shift: u32,
    /// `chunk − 1`, the offset mask.
    mask: usize,
    /// Shard count (= `ceil(d / chunk)`).
    shards: usize,
    /// Total dimension.
    d: usize,
}

impl ShardRouter {
    /// A router splitting `d` entries into at most `shards` chunks (clamped
    /// to `1..=d`). The chunk is `ceil(d / shards)` rounded up to a power of
    /// two, so the realised shard count can be lower than requested when
    /// rounding swallows a chunk; the last shard is ragged when `d` is not a
    /// chunk multiple.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn new(d: usize, shards: usize) -> Self {
        assert!(d > 0, "cannot route an empty model");
        let shards = shards.clamp(1, d);
        let chunk = d.div_ceil(shards).next_power_of_two();
        Self {
            shift: chunk.trailing_zeros(),
            mask: chunk - 1,
            shards: d.div_ceil(chunk),
            d,
        }
    }

    /// Total dimension routed.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.d
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Routes entry `j` to `(shard, offset)`.
    ///
    /// Returns an out-of-range shard if `j ≥ d`; arena lookups bounds-check
    /// downstream.
    #[inline]
    #[must_use]
    pub fn route(&self, j: usize) -> (usize, usize) {
        (j >> self.shift, j & self.mask)
    }

    /// The index range shard `s` covers.
    ///
    /// # Panics
    ///
    /// Panics if `s ≥ shard_count()`.
    #[must_use]
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        assert!(s < self.shards, "shard {s} out of range");
        (s << self.shift)..(((s + 1) << self.shift).min(self.d))
    }
}

/// A `Vec<T>` split into per-shard arena allocations behind a
/// [`ShardRouter`]. Indexing cost is one route plus one bounds-checked
/// arena access; iteration walks the shards in index order.
#[derive(Debug)]
pub struct ShardedVec<T> {
    router: ShardRouter,
    arenas: Vec<Box<[T]>>,
}

impl<T> ShardedVec<T> {
    /// Builds the container, initialising entry `j` with `init(j)` (arenas
    /// are filled shard by shard, i.e. in index order).
    #[must_use]
    pub fn from_fn(router: ShardRouter, mut init: impl FnMut(usize) -> T) -> Self {
        let arenas = (0..router.shard_count())
            .map(|s| router.range(s).map(&mut init).collect())
            .collect();
        Self { router, arenas }
    }

    /// Total element count.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.router.dimension()
    }

    /// The routing map.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Routed access to entry `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ dimension()`.
    #[inline]
    #[must_use]
    pub fn get(&self, j: usize) -> &T {
        let (s, off) = self.router.route(j);
        &self.arenas[s][off]
    }

    /// One shard's contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn shard(&self, s: usize) -> &[T] {
        &self.arenas[s]
    }

    /// All entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.arenas.iter().flat_map(|a| a.iter())
    }
}

impl<'a, T> IntoIterator for &'a ShardedVec<T> {
    type Item = &'a T;
    type IntoIter = std::iter::FlatMap<
        std::slice::Iter<'a, Box<[T]>>,
        std::slice::Iter<'a, T>,
        fn(&'a Box<[T]>) -> std::slice::Iter<'a, T>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.arenas.iter().flat_map(|a| a.iter())
    }
}

/// How many times [`ParamStore::coherent_update_counts`] re-collects before
/// settling for the (still per-entry-atomic) last collect.
const COHERENT_RETRIES: usize = 16;

/// The shared parameter vector every native claim loop holds: per-shard
/// `AtomicF64` arenas behind a [`ShardRouter`], plus one cache-line-padded
/// update counter per shard.
///
/// Access follows Algorithm 1 exactly: entry-wise sequentially consistent
/// reads (building a possibly inconsistent view) and entry-wise CAS-loop
/// `fetch&add`s. Every applied `fetch&add` is also counted against its
/// shard (relaxed; the counter is a monotone progress observation, not a
/// synchronisation edge). Built from [`ExecTuning`] so every executor
/// resolves the shard policy identically; the default is one shard.
#[derive(Debug)]
pub struct ParamStore {
    entries: ShardedVec<AtomicF64>,
    counters: Vec<CacheAligned<AtomicU64>>,
}

impl ParamStore {
    /// Creates a store initialised to `x0` with at most `shards`
    /// power-of-two chunked ranges. Chunk rounding can realise fewer shards
    /// than requested; [`ParamStore::shard_count`] reports the realised
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty.
    #[must_use]
    pub fn new(x0: &[f64], shards: usize) -> Self {
        // Each arena is built from its slice of `x0`: a straight copy loop,
        // with no per-index bounds check.
        let router = ShardRouter::new(x0.len(), shards);
        let arenas = (0..router.shard_count())
            .map(|s| {
                x0[router.range(s)]
                    .iter()
                    .map(|&v| AtomicF64::new(v))
                    .collect()
            })
            .collect();
        Self::from_entries(ShardedVec { router, arenas })
    }

    /// A zero store of dimension `d` (Algorithm 1's `X = (0, …, 0)`),
    /// without materialising a temporary `vec![0.0; d]`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn zeros(d: usize, shards: usize) -> Self {
        Self::from_entries(ShardedVec::from_fn(ShardRouter::new(d, shards), |_| {
            AtomicF64::new(0.0)
        }))
    }

    /// Builds the store `tuning` asks for, initialised to `x0`.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty.
    #[must_use]
    pub fn with_tuning(x0: &[f64], tuning: &ExecTuning) -> Self {
        Self::new(x0, tuning.shards.resolve(x0.len()))
    }

    /// A zero store of dimension `d` per `tuning`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn zeros_with_tuning(d: usize, tuning: &ExecTuning) -> Self {
        Self::zeros(d, tuning.shards.resolve(d))
    }

    fn from_entries(entries: ShardedVec<AtomicF64>) -> Self {
        let counters = (0..entries.router().shard_count())
            .map(|_| CacheAligned(AtomicU64::new(0)))
            .collect();
        Self { entries, counters }
    }

    /// Model dimension `d`.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.entries.dimension()
    }

    /// The routing map.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        self.entries.router()
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.counters.len()
    }

    /// Atomically reads entry `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[inline]
    #[must_use]
    pub fn read(&self, j: usize) -> f64 {
        self.entries.get(j).load()
    }

    /// Reads the whole model entry by entry into `view`, walking the shards
    /// in index order — the inconsistent scan of Algorithm 1 line 4 (other
    /// threads may update between entry reads; that is the point).
    ///
    /// # Panics
    ///
    /// Panics if `view.len() != d`.
    pub fn read_view(&self, view: &mut [f64]) {
        assert_eq!(view.len(), self.dimension(), "view dimension mismatch");
        let mut rest = view;
        for s in 0..self.shard_count() {
            let shard = self.entries.shard(s);
            let (head, tail) = rest.split_at_mut(shard.len());
            for (v, e) in head.iter_mut().zip(shard) {
                *v = e.load();
            }
            rest = tail;
        }
    }

    /// Atomic `fetch&add` on entry `j`, returning the prior value and
    /// bumping the owning shard's update counter.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[inline]
    pub fn fetch_add(&self, j: usize, delta: f64) -> f64 {
        let (s, prev) = self.fetch_add_uncounted(j, delta);
        self.counters[s].0.fetch_add(1, Ordering::Relaxed);
        prev
    }

    /// Atomic `fetch&add` on entry `j` *without* bumping the shard counter,
    /// returning the owning shard and the prior value — the building block
    /// of [`StoreWriter`]'s batched accounting, which owes the counter its
    /// credit.
    #[inline]
    fn fetch_add_uncounted(&self, j: usize, delta: f64) -> (usize, f64) {
        let (s, off) = self.entries.router().route(j);
        (s, self.entries.shard(s)[off].fetch_add(delta))
    }

    /// Atomically overwrites entry `j` (epoch initialisation only — not an
    /// SGD update, so the shard counter is untouched).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn write(&self, j: usize, value: f64) {
        self.entries.get(j).store(value);
    }

    /// Copies the store into a fresh vector: one O(d) allocation and
    /// entry-wise atomic reads, consistent only when no writers are active.
    /// This is the way to read a store that is still shared (a serving
    /// reader holds it); an owner done with the store should take
    /// [`ParamStore::into_values`] instead.
    #[must_use]
    pub fn snapshot(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dimension()];
        self.read_view(&mut out);
        out
    }

    /// Consumes the store and returns its values in index order, equal
    /// bitwise to [`ParamStore::snapshot`]. Ownership proves the store is
    /// quiescent, so no atomic read is needed, and the first arena's
    /// allocation becomes the result (an in-place collect: no allocation,
    /// no copy). Further arenas are appended.
    #[must_use]
    pub fn into_values(self) -> Vec<f64> {
        let d = self.dimension();
        let values = |a: Box<[AtomicF64]>| a.into_vec().into_iter().map(AtomicF64::into_inner);
        let mut arenas = self.entries.arenas.into_iter();
        let first = arenas.next().expect("a store has at least one shard");
        let mut out: Vec<f64> = values(first).collect();
        out.reserve_exact(d - out.len());
        for a in arenas {
            out.extend(values(a));
        }
        out
    }

    /// Streaming `‖X − y‖²`: per-entry atomic reads accumulated in index
    /// order — bit-identical to `l2_dist_sq(&view, y)` over a freshly read
    /// view, with no O(d) scratch materialised. This is what the sparse
    /// claim loops' strided success/metrics samples use.
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
                let a = self.read(j);
                (a - b) * (a - b)
            })
            .sum()
    }

    /// Updates applied to shard `s` so far (monotone, relaxed read).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn shard_updates(&self, s: usize) -> u64 {
        self.counters[s].0.load(Ordering::Relaxed)
    }

    /// Total updates applied across all shards (sum of per-shard counters;
    /// each counter read is atomic, the sum is not an instantaneous state —
    /// use [`ParamStore::coherent_update_counts`] for that).
    #[must_use]
    pub fn total_updates(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.0.load(Ordering::Acquire))
            .sum()
    }

    /// Reads the per-shard update counters as an *instantaneous* vector via
    /// double-collect validation: collect all counters, collect again — if
    /// the two collects are equal, no counter moved between its two reads,
    /// so (counters being monotone) the vector is a state the store actually
    /// passed through. Retries a bounded number of times under churn and
    /// then returns `false` with the last collect (each entry still
    /// individually atomic, the cross-shard cut possibly torn).
    ///
    /// This is the read side snapshot tagging needs: summing a torn collect
    /// can attribute updates to a progress tag that never existed. The
    /// protocol (and a seeded split-read twin) is model-checked in
    /// `asgd-chaos` (`ShardedCounterModel`).
    pub fn coherent_update_counts(&self, out: &mut Vec<u64>) -> bool {
        out.clear();
        out.extend(self.counters.iter().map(|c| c.0.load(Ordering::Acquire)));
        for _ in 0..COHERENT_RETRIES {
            let mut stable = true;
            for (seen, counter) in out.iter_mut().zip(&self.counters) {
                let again = counter.0.load(Ordering::Acquire);
                if again != *seen {
                    *seen = again;
                    stable = false;
                }
            }
            if stable {
                return true;
            }
        }
        false
    }
}

/// Per-entry reads for sparse oracles: each [`ModelView::entry`] call is one
/// atomic load of the live shared model — exactly the O(Δ) access pattern
/// the sparse fast path exists for.
impl ModelView for ParamStore {
    fn dimension(&self) -> usize {
        self.dimension()
    }

    fn entry(&self, j: usize) -> f64 {
        self.read(j)
    }
}

/// Updates a [`StoreWriter`] buffers before crediting shard counters in
/// bulk. Mid-run counter observations therefore lag the applied updates by
/// at most `COUNTER_FLUSH − 1` per worker — a bounded, monotone skew that
/// observability reads (`ModelReader::shard_updates`, snapshot progress
/// tags) absorb by design; quiescent totals are exact because every writer
/// flushes on drop.
const COUNTER_FLUSH: u32 = 64;

/// A per-worker write handle over a [`ParamStore`] that batches shard
/// counter bumps.
///
/// [`ParamStore::fetch_add`] pays a second lock-prefixed RMW (the shard
/// counter) next to every entry CAS — measurable on the O(Δ) sparse path,
/// where the entry CAS is the whole iteration. Claim loops instead route
/// updates through a `StoreWriter`: entries update atomically as always,
/// while counts accumulate in a plain local table credited to the shared
/// counters every `COUNTER_FLUSH` (64) updates and on drop. Values are
/// untouched — bit-identity across shard counts is unaffected — and
/// counters stay monotone with bounded lag, exact at quiescence.
#[derive(Debug)]
pub struct StoreWriter<'a> {
    store: &'a ParamStore,
    /// Locally accumulated per-shard bump counts.
    pending: Vec<u32>,
    /// Total buffered bumps since the last flush.
    buffered: u32,
}

impl<'a> StoreWriter<'a> {
    /// A writer over `store`.
    #[must_use]
    pub fn new(store: &'a ParamStore) -> Self {
        Self {
            store,
            pending: vec![0; store.shard_count()],
            buffered: 0,
        }
    }

    /// Atomic `fetch&add` on entry `j`, returning the prior value; the
    /// shard counter credit is buffered.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[inline]
    pub fn fetch_add(&mut self, j: usize, delta: f64) -> f64 {
        let (s, prev) = self.store.fetch_add_uncounted(j, delta);
        self.pending[s] += 1;
        self.buffered += 1;
        if self.buffered >= COUNTER_FLUSH {
            self.flush();
        }
        prev
    }

    /// Credits every buffered bump to its shard's counter now.
    pub fn flush(&mut self) {
        if self.buffered == 0 {
            return;
        }
        for (counter, n) in self.store.counters.iter().zip(&mut self.pending) {
            if *n > 0 {
                counter.0.fetch_add(u64::from(*n), Ordering::Relaxed);
                *n = 0;
            }
        }
        self.buffered = 0;
    }
}

impl Drop for StoreWriter<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl ShardPolicy {
    /// Resolves the policy to a *requested* shard count for a
    /// `d`-dimensional model, clamped to `1..=d`; chunk rounding can
    /// realise fewer (see [`ShardRouter::new`]).
    #[must_use]
    pub fn resolve(self, d: usize) -> usize {
        match self {
            Self::Auto => ShardTopology::detect().auto_shards(d),
            Self::Fixed(n) => n.clamp(1, d.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_detection_and_overrides() {
        let t = ShardTopology::detect();
        assert!(t.cores >= 1);
        assert!(t.cache_line >= 8);
        let o = ShardTopology::with(0, 0);
        assert_eq!((o.cores, o.cache_line), (1, 8));
    }

    #[test]
    fn auto_shards_respects_dimension_and_cores() {
        let t = ShardTopology::with(8, 64);
        assert_eq!(t.auto_shards(1 << 20), 8, "plenty of entries: one/core");
        assert_eq!(t.auto_shards(4), 1, "d below one line: single shard");
        assert_eq!(t.auto_shards(17), 2, "17 entries = 2 full lines");
        let many = ShardTopology::with(6, 64);
        assert_eq!(many.auto_shards(1 << 20), 8, "cores round up to pow2");
    }

    #[test]
    fn router_routes_every_index_to_its_range() {
        for (d, shards) in [(16, 4), (100, 4), (1, 1), (10, 3), (1 << 20, 8)] {
            let r = ShardRouter::new(d, shards);
            assert_eq!(r.dimension(), d);
            let n = r.shard_count();
            assert!(n >= 1 && n <= shards, "d={d} requested={shards} got={n}");
            let mut covered = 0;
            for s in 0..n {
                let range = r.range(s);
                assert_eq!(range.start, covered, "ranges contiguous");
                assert!(!range.is_empty(), "shard {s} empty at d={d}");
                for j in range.clone() {
                    assert_eq!(r.route(j), (s, j - range.start), "d={d} j={j}");
                }
                covered = range.end;
            }
            assert_eq!(covered, d, "ranges cover the dimension");
        }
        // ceil(10/3) = 4 is a power of two yielding exactly 3 shards, the
        // last one ragged; ceil(11/2) = 6 rounds up to 8, so 2 shards of 8
        // and 3.
        assert_eq!(ShardRouter::new(10, 3).range(2), 8..10);
        assert_eq!(ShardRouter::new(11, 2).range(1), 8..11);
    }

    #[test]
    fn sharded_vec_orders_entries_like_a_flat_vec() {
        let v = ShardedVec::from_fn(ShardRouter::new(11, 3), |j| j * 10);
        assert_eq!(v.dimension(), 11);
        for j in 0..11 {
            assert_eq!(*v.get(j), j * 10);
        }
        let flat: Vec<usize> = v.iter().copied().collect();
        assert_eq!(flat, (0..11).map(|j| j * 10).collect::<Vec<_>>());
        let by_ref: Vec<usize> = (&v).into_iter().copied().collect();
        assert_eq!(by_ref, flat);
    }

    #[test]
    fn construction_reads_writes_and_views() {
        for shards in [1, 3] {
            let m = ParamStore::new(&[1.0, -2.0, 3.0, 4.0], shards);
            assert_eq!(m.dimension(), 4);
            assert_eq!((m.read(0), m.read(1)), (1.0, -2.0));
            assert_eq!(m.fetch_add(1, 0.5), -2.0);
            m.write(2, -1.0);
            let mut view = vec![0.0; 4];
            m.read_view(&mut view);
            assert_eq!(view, vec![1.0, -1.5, -1.0, 4.0]);
            assert_eq!(view, m.snapshot());
            assert_eq!(ParamStore::zeros(3, shards).snapshot(), vec![0.0; 3]);
        }
    }

    #[test]
    fn into_values_reuses_the_first_arena_and_matches_the_snapshot() {
        let x0: Vec<f64> = (0..11).map(|j| f64::from(j as u32).sin()).collect();
        for shards in [1, 3] {
            let m = ParamStore::new(&x0, shards);
            m.fetch_add(4, 0.25);
            m.write(9, -0.0);
            let arena = m.entries.shard(0).as_ptr() as usize;
            let snapshot = m.snapshot();
            let values = m.into_values();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&values), bits(&snapshot), "{shards} shards");
            if shards == 1 {
                assert_eq!(values.as_ptr() as usize, arena, "allocation reused");
            }
        }
    }

    #[test]
    #[should_panic(expected = "view dimension mismatch")]
    fn view_size_checked() {
        let m = ParamStore::zeros(2, 1);
        let mut view = vec![0.0; 3];
        m.read_view(&mut view);
    }

    #[test]
    fn model_view_reads_the_live_entries() {
        for shards in [1, 2] {
            let m = ParamStore::new(&[3.0, -4.0], shards);
            let view: &dyn ModelView = &m;
            assert_eq!(view.dimension(), 2);
            assert_eq!(view.entry(1), -4.0);
            m.fetch_add(1, 1.0);
            assert_eq!(view.entry(1), -3.0, "reads are live, not a snapshot");
        }
    }

    #[test]
    fn concurrent_updates_never_lost() {
        for shards in [1, 4] {
            let m = ParamStore::zeros(4, shards);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let mut w = StoreWriter::new(&m);
                        for j in 0..4 {
                            for _ in 0..5_000 {
                                w.fetch_add(j, 1.0);
                            }
                        }
                    });
                }
            });
            assert_eq!(m.snapshot(), vec![20_000.0; 4], "{shards} shards");
            assert_eq!(m.total_updates(), 80_000, "{shards} shards");
        }
    }

    #[test]
    fn per_shard_counters_track_applied_updates() {
        let m = ParamStore::zeros(16, 4);
        assert_eq!(m.shard_count(), 4);
        m.fetch_add(0, 1.0);
        m.fetch_add(3, 1.0);
        m.fetch_add(4, 1.0);
        m.fetch_add(15, 1.0);
        m.write(8, 9.0); // writes are init, not updates
        assert_eq!(m.shard_updates(0), 2);
        assert_eq!(m.shard_updates(1), 1);
        assert_eq!(m.shard_updates(2), 0);
        assert_eq!(m.shard_updates(3), 1);
        assert_eq!(m.total_updates(), 4);
        let mut counts = Vec::new();
        assert!(m.coherent_update_counts(&mut counts), "quiescent: coherent");
        assert_eq!(counts, vec![2, 1, 0, 1]);
    }

    #[test]
    fn coherent_counts_are_instantaneous_under_churn() {
        use std::sync::atomic::AtomicBool;
        let m = ParamStore::zeros(64, 4);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut j = 0;
                while !stop.load(Ordering::Relaxed) {
                    m.fetch_add(j % 64, 1.0);
                    j += 1;
                }
            });
            let mut counts = Vec::new();
            for _ in 0..200 {
                let coherent = m.coherent_update_counts(&mut counts);
                assert_eq!(counts.len(), 4);
                // A validated collect's total can never exceed a later total
                // (monotonicity of an instantaneous state).
                if coherent {
                    let total: u64 = counts.iter().sum();
                    assert!(total <= m.total_updates());
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn store_writer_batches_counter_credits_and_flushes_on_drop() {
        let x0 = vec![0.0; 16];
        let tuning = ExecTuning {
            shards: ShardPolicy::Fixed(4),
            ..ExecTuning::default()
        };
        let store = ParamStore::with_tuning(&x0, &tuning);
        {
            let mut w = StoreWriter::new(&store);
            // Values land immediately; counter credits are buffered.
            assert_eq!(w.fetch_add(0, 1.0), 0.0);
            assert_eq!(w.fetch_add(0, 1.0), 1.0);
            assert_eq!(w.fetch_add(15, 2.0), 0.0);
            assert_eq!(store.read(0), 2.0);
            assert_eq!(store.read(15), 2.0);
            assert_eq!(store.total_updates(), 0, "credits still buffered");
            w.flush();
            assert_eq!(store.shard_updates(0), 2);
            assert_eq!(store.shard_updates(3), 1);
            w.fetch_add(4, 1.0);
            // Dropped without an explicit flush: the drop flushes.
        }
        assert_eq!(store.shard_updates(1), 1);
        assert_eq!(store.total_updates(), 4);
    }

    #[test]
    fn store_writer_crosses_the_flush_threshold_mid_stream() {
        let store = ParamStore::zeros(8, 2);
        let mut w = StoreWriter::new(&store);
        for i in 0..200 {
            w.fetch_add(i % 8, 1.0);
        }
        // 200 = 3 × 64 + 8: three threshold flushes have happened, the tail
        // is still buffered — mid-run observations lag by less than one
        // flush window.
        assert_eq!(store.total_updates(), 192);
        drop(w);
        assert_eq!(store.total_updates(), 200);
        assert_eq!(store.shard_updates(0), 100);
        assert_eq!(store.shard_updates(1), 100);
    }

    #[test]
    fn tuning_builds_one_shard_by_default() {
        let x0 = [1.0, 2.0, 3.0, 4.0];
        let tuning = ExecTuning::default();
        assert_eq!(ParamStore::with_tuning(&x0, &tuning).shard_count(), 1);
        let two = ExecTuning {
            shards: ShardPolicy::Fixed(2),
            ..tuning
        };
        assert_eq!(ParamStore::with_tuning(&x0, &two).shard_count(), 2);
        let zeros = ParamStore::zeros_with_tuning(6, &two);
        assert_eq!(zeros.snapshot(), vec![0.0; 6]);
        assert_eq!(zeros.shard_count(), 2);
    }

    #[test]
    fn dist_sq_streams_bit_identically_to_the_dense_scan() {
        let x0: Vec<f64> = (0..23).map(|j| (f64::from(j as u32)).sin()).collect();
        let y: Vec<f64> = (0..23).map(|j| (f64::from(j as u32)).cos()).collect();
        for shards in [1, 5] {
            let store = ParamStore::new(&x0, shards);
            let mut view = vec![0.0; 23];
            store.read_view(&mut view);
            let dense = asgd_math::vec::l2_dist_sq(&view, &y);
            assert_eq!(store.dist_sq_to(&y).to_bits(), dense.to_bits());
        }
    }

    #[test]
    fn shard_policy_resolution() {
        assert_eq!(ShardPolicy::default(), ShardPolicy::Fixed(1));
        assert_eq!(ShardPolicy::Fixed(4).resolve(1 << 20), 4);
        assert_eq!(ShardPolicy::Fixed(0).resolve(8), 1, "clamps up");
        assert_eq!(ShardPolicy::Fixed(64).resolve(8), 8, "clamps to d");
        let auto = ShardPolicy::Auto.resolve(1 << 20);
        assert!(auto >= 1 && auto.is_power_of_two());
    }
}
