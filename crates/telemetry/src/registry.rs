//! The lock-free [`MetricsRegistry`]: monotone counters, gauges, and
//! bucketed histograms with cache-line-padded per-thread cells.
//!
//! Hot-path updates never take a lock: every thread is assigned a stripe
//! once (a process-wide monotone id, folded modulo [`STRIPES`]) and bumps
//! its own cache-line-padded `AtomicU64` cell with relaxed ordering, so
//! concurrent writers on different cores never bounce a line — the same
//! layout discipline as `ParamStore`'s per-shard update counters.
//! Registration (the first `counter("name")` call for a name) takes a short
//! mutex; the returned handles are `Arc`s callers keep, so steady state is
//! lock-free.
//!
//! Collection is *validated*: [`MetricsRegistry::snapshot`] double-collects
//! every monotone progress cell (counter stripes and histogram bucket
//! totals) and only flags the snapshot `coherent` when two consecutive
//! collects agree — the registry-wide generalisation of
//! `ParamStore::coherent_update_counts`, model-checked in `asgd-chaos`
//! (`TelemetryCellModel`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of padded cells each counter/histogram stripes its updates over.
/// Threads beyond this many share cells (correctness is unaffected — cells
/// are atomic — only isolation degrades).
pub const STRIPES: usize = 16;

/// How many times a validated collect re-reads before settling for the
/// (possibly torn) last collect — mirrors `ParamStore`'s retry bound.
const COHERENT_RETRIES: usize = 16;

/// One cache line of its own for every stripe cell: concurrent writers on
/// different stripes never share a coherency line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCell(AtomicU64);

/// Process-wide monotone thread ids, folded into stripe indices.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// The calling thread's stripe index (assigned once per thread, stable for
/// the thread's lifetime).
#[must_use]
pub fn thread_stripe() -> usize {
    STRIPE.with(|s| *s)
}

/// A monotone counter striped over [`STRIPES`] padded cells. `add` is one
/// relaxed `fetch_add` on the caller's own cell; `value` sums the stripes
/// (each read atomic, the sum monotone but not an instantaneous cut — use
/// [`MetricsRegistry::snapshot`] for a validated cut).
#[derive(Debug, Default)]
pub struct Counter {
    cells: [PaddedCell; STRIPES],
}

impl Counter {
    /// Adds `n` to the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[thread_stripe()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the calling thread's stripe.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all stripes (monotone; relaxed per-cell reads).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Acquire)).sum()
    }

    /// Overwrites the total: the calling thread's stripe absorbs the
    /// difference to `v` when `v` is ahead of the current sum (a *set* that
    /// would run the counter backwards is ignored — counters are monotone).
    /// Used to mirror externally-maintained monotone counters (e.g. shedder
    /// totals) into the registry at scrape time.
    pub fn record_total(&self, v: u64) {
        let now = self.value();
        if v > now {
            self.add(v - now);
        }
    }

    /// Appends every stripe cell's value to `out` (the monotone progress
    /// cells a validated registry collect re-reads).
    fn collect_cells(&self, out: &mut Vec<u64>) {
        out.extend(self.cells.iter().map(|c| c.0.load(Ordering::Acquire)));
    }
}

/// A last-write-wins gauge holding one `f64` (stored as IEEE-754 bits in an
/// `AtomicU64`). Gauges move both ways, so they carry no stripes and take
/// no part in coherence validation.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0.0_f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Linear sub-buckets per power-of-two major bucket, as a bit count: each
/// major `[2^k, 2^(k+1))` splits into `2^SUB_BITS = 16` equal sub-buckets.
const SUB_BITS: u32 = 4;

/// Values below this are bucketed exactly, one bucket per value.
const EXACT_BELOW: u64 = 2 << SUB_BITS;

/// Buckets in the log-linear layout: values `0..32` exactly, then 16 linear
/// sub-buckets for each major `[2^k, 2^(k+1))`, `k = 5..=63`, so every
/// `u64` falls in a finite bucket (no overflow bucket). A bucket's width is
/// at most 1/16 of its lower bound, which bounds every reported quantile:
/// it lies in `[x, x + x/16)` for the exact order statistic `x`.
pub const BUCKET_COUNT: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// The bucket index observing `v`.
#[must_use]
fn bucket_index(v: u64) -> usize {
    if v < EXACT_BELOW {
        return v as usize;
    }
    // v ≥ 32, so its top bit k ≥ 5 and shift = k − 4 ≥ 1; `v >> shift` is
    // the major's leading 1 plus four sub-bucket bits, in 16..32.
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((shift as usize) << SUB_BITS) + (v >> shift) as usize
}

/// The largest value bucket `index` observes (its inclusive `le` bound).
#[must_use]
fn bucket_upper(index: usize) -> u64 {
    if index < EXACT_BELOW as usize {
        return index as u64;
    }
    let shift = (index >> SUB_BITS) - 1;
    let lead = ((index & ((1 << SUB_BITS) - 1)) + (1 << SUB_BITS)) as u64;
    (lead << shift) + ((1 << shift) - 1)
}

/// Per-stripe histogram cells: bucket counts in a separate allocation, and
/// the sum on a cache line of its own, so writers never share lines.
#[repr(align(64))]
#[derive(Debug)]
struct HistStripe {
    buckets: Box<[AtomicU64; BUCKET_COUNT]>,
    sum: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: AtomicU64::new(0),
        }
    }
}

/// A lock-free log-linear histogram over `u64` observations (latencies in
/// nanoseconds, staleness in iterations). The [`BUCKET_COUNT`] buckets are
/// fixed, so `record` is a `leading_zeros`, a shift and two relaxed adds
/// on the caller's stripe.
#[derive(Debug)]
pub struct TelemetryHistogram {
    stripes: [HistStripe; STRIPES],
}

impl Default for TelemetryHistogram {
    fn default() -> Self {
        Self {
            stripes: std::array::from_fn(|_| HistStripe::default()),
        }
    }
}

impl TelemetryHistogram {
    /// Records one observation on the calling thread's stripe.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = &self.stripes[thread_stripe()];
        s.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations across all stripes (the buckets' total).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Sum of all observations across all stripes (wrapping, like the
    /// underlying atomic adds).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.stripes.iter().fold(0u64, |acc, s| {
            acc.wrapping_add(s.sum.load(Ordering::Acquire))
        })
    }

    /// Per-bucket observation counts summed over the stripes (per-cell
    /// atomic reads, not validated).
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; BUCKET_COUNT] {
        let mut counts = [0u64; BUCKET_COUNT];
        for s in &self.stripes {
            for (acc, cell) in counts.iter_mut().zip(s.buckets.iter()) {
                *acc += cell.load(Ordering::Acquire);
            }
        }
        counts
    }

    /// A point-in-time snapshot (per-cell atomic reads, not validated).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::from_bucket_counts(&self.bucket_counts(), self.sum())
    }

    /// Appends the per-bucket counts and then the sum to `out`. The bucket
    /// totals are monotone, so two equal collects pin every stripe cell.
    fn collect_cells(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.bucket_counts());
        out.push(self.sum());
    }
}

/// The `(le, cumulative count)` pairs of the non-empty buckets in
/// `counts`, in increasing bound order.
pub fn cumulative_buckets(counts: &[u64]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let mut acc = 0;
    counts.iter().enumerate().filter_map(move |(i, &n)| {
        acc += n;
        (n > 0).then(|| (bucket_upper(i), acc))
    })
}

/// The nearest-rank `q`-quantile of a bucketed distribution, reported as
/// the bound of the bucket holding it: the first `le` whose cumulative
/// count reaches `⌈q · count⌉` (at least 1). `None` when `count` is 0 or
/// no bucket reaches the rank. Over the [`BUCKET_COUNT`] layout the result
/// lies in `[x, x + x/16)` for the exact order statistic `x`, and equals
/// `x` below 32.
#[must_use]
pub fn quantile_le(
    cumulative: impl IntoIterator<Item = (u64, u64)>,
    count: u64,
    q: f64,
) -> Option<u64> {
    if count == 0 {
        return None;
    }
    let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    cumulative
        .into_iter()
        .find(|&(_, cum)| cum >= target)
        .map(|(le, _)| le)
}

/// A histogram's point-in-time state: cumulative `(le, count)` pairs for
/// every non-empty bucket, plus the total count and sum. Every observation
/// falls under a finite bound, so a snapshot taken from a histogram has a
/// last cumulative count equal to `count`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// `(upper bound, cumulative count ≤ bound)` in increasing bound order.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The snapshot of per-bucket `counts` as
    /// [`TelemetryHistogram::bucket_counts`] returns them; `count` is their
    /// total.
    #[must_use]
    pub fn from_bucket_counts(counts: &[u64], sum: u64) -> Self {
        Self {
            buckets: cumulative_buckets(counts).collect(),
            count: counts.iter().sum(),
            sum,
        }
    }

    /// The [`quantile_le`] of this snapshot.
    #[must_use]
    pub fn quantile_le(&self, q: f64) -> Option<u64> {
        quantile_le(self.buckets.iter().copied(), self.count, q)
    }
}

/// A validated point-in-time view of every registered metric, renderable to
/// (and parseable back from) the Prometheus text exposition format.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// True when the double-collect validated: no monotone cell moved
    /// between the two collects, so the counters and histogram buckets are
    /// an instantaneous cross-metric state. Gauges are always last-write.
    pub coherent: bool,
    /// `(name, total)` per counter, in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, in name order.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` per histogram, in name order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// The metric maps behind one registration mutex. Updates never touch the
/// mutex — handles are `Arc`s handed out at registration.
#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<TelemetryHistogram>>,
}

/// A registry of named metrics with lock-free updates and validated
/// coherent collection.
///
/// Metric names may carry a Prometheus label block
/// (`asgd_shard_updates{model="m",shard="3"}`); the registry treats the
/// whole string as the key and the exposition renderer emits it verbatim.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

/// Recovers a poisoned registration lock (metric maps are always valid —
/// a panicking registrant leaves them registered, never torn).
fn lock_inner(m: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            lock_inner(&self.inner)
                .counters
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            lock_inner(&self.inner)
                .gauges
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<TelemetryHistogram> {
        Arc::clone(
            lock_inner(&self.inner)
                .histograms
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// A validated snapshot of every registered metric.
    ///
    /// Collects every monotone progress cell (counter stripes, histogram
    /// bucket totals), then re-collects: equal collects mean no metric moved
    /// between the two passes, so the snapshot is an instantaneous state the
    /// registry actually passed through (`coherent = true`). Under churn the
    /// collect retries a bounded number of times and then returns the last
    /// (per-cell-atomic, possibly torn) collect flagged `coherent = false`.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Handles cloned under the lock; the collects below are lock-free.
        let (counters, gauges, histograms) = {
            let inner = lock_inner(&self.inner);
            (
                inner
                    .counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Arc::clone(v)))
                    .collect::<Vec<_>>(),
                inner
                    .gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Arc::clone(v)))
                    .collect::<Vec<_>>(),
                inner
                    .histograms
                    .iter()
                    .map(|(k, v)| (k.clone(), Arc::clone(v)))
                    .collect::<Vec<_>>(),
            )
        };
        let collect = |out: &mut Vec<u64>| {
            out.clear();
            for (_, c) in &counters {
                c.collect_cells(out);
            }
            for (_, h) in &histograms {
                h.collect_cells(out);
            }
        };
        let mut seen = Vec::new();
        let mut again = Vec::new();
        collect(&mut seen);
        let mut coherent = false;
        for _ in 0..COHERENT_RETRIES {
            collect(&mut again);
            if seen == again {
                coherent = true;
                break;
            }
            std::mem::swap(&mut seen, &mut again);
        }
        // Counter totals and whole histograms (buckets, count, sum) are
        // derived from the *validated* collect, never re-read — re-reading
        // after validation would let movement slip between the validated
        // instant and the published values, silently un-pinning a
        // coherent-flagged snapshot (the torn-read twin `asgd-chaos`
        // catches).
        let (counter_cells, hist_cells) = seen.split_at(counters.len() * STRIPES);
        let counters = counters
            .iter()
            .zip(counter_cells.chunks_exact(STRIPES))
            .map(|((k, _), c)| (k.clone(), c.iter().sum()))
            .collect();
        let histograms = histograms
            .iter()
            .zip(hist_cells.chunks_exact(BUCKET_COUNT + 1))
            .map(|((k, _), c)| {
                let (counts, sum) = c.split_at(BUCKET_COUNT);
                (
                    k.clone(),
                    HistogramSnapshot::from_bucket_counts(counts, sum[0]),
                )
            })
            .collect();
        MetricsSnapshot {
            coherent,
            counters,
            gauges: gauges.iter().map(|(k, g)| (k.clone(), g.value())).collect(),
            histograms,
        }
    }
}

/// The process-wide registry every instrumented tier records into; scrapes
/// render this one.
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: std::sync::OnceLock<MetricsRegistry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_stripe_and_sum() {
        let c = Counter::default();
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
        c.record_total(10);
        assert_eq!(c.value(), 10);
        c.record_total(5); // backwards set ignored: counters are monotone
        assert_eq!(c.value(), 10);
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let c = std::sync::Arc::new(Counter::default());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn gauges_hold_the_last_write() {
        let g = Gauge::default();
        assert_eq!(g.value(), 0.0);
        g.set(2.5);
        assert_eq!(g.value(), 2.5);
        g.set(-1.0);
        assert_eq!(g.value(), -1.0);
    }

    #[test]
    fn log_linear_buckets_are_exact_below_32_and_tile_u64() {
        for v in 0..32 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(33), 32);
        assert_eq!(bucket_index(34), 33);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_upper(BUCKET_COUNT - 1), u64::MAX);
        // Buckets are contiguous, and each is at most 1/16 of its lower
        // bound wide.
        for i in 1..BUCKET_COUNT {
            let lo = bucket_upper(i - 1) + 1;
            let hi = bucket_upper(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            assert!(
                lo < 32 || (hi - lo + 1) * 16 <= lo,
                "bucket {i}: {lo}..={hi}"
            );
        }
        let h = TelemetryHistogram::default();
        for v in [1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006_u64.wrapping_add(u64::MAX));
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        // Every observation sits under a finite bound: no overflow bucket.
        assert_eq!(snap.buckets.last(), Some(&(u64::MAX, 5)));
        for w in snap.buckets.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 <= w[1].1);
        }
        // Median target is the 3rd observation (value 3), recorded exactly.
        assert_eq!(snap.quantile_le(0.5), Some(3));
        assert_eq!(snap.quantile_le(1.0), Some(u64::MAX));
        assert_eq!(HistogramSnapshot::default().quantile_le(0.5), None);
    }

    #[test]
    fn quantiles_above_every_power_of_two_bound_are_reported() {
        // Values past 2^47 stay visible to quantiles: there is no
        // overflow bucket for them to vanish into.
        let v = (1_u64 << 50) + 12_345;
        let h = TelemetryHistogram::default();
        h.record(v);
        let median = h.snapshot().quantile_le(0.5);
        assert!(
            median.is_some_and(|m| m >= v && m - v < v / 16),
            "{median:?}"
        );
        // A quantile falling past the last power-of-two bound must not
        // report a bound below the observation.
        let h = TelemetryHistogram::default();
        h.record(1);
        h.record(1 << 60);
        let max = h.snapshot().quantile_le(1.0);
        assert!(max.is_some_and(|m| m >= 1 << 60), "{max:?}");
    }

    #[test]
    fn coherent_histogram_snapshots_close_at_their_count_under_churn() {
        // One writer records while snapshots are taken. Buckets, count and
        // sum must come from the one validated collect: a coherent snapshot
        // whose last cumulative count differs from `count` renders a `+Inf`
        // bucket below a finite one.
        let r = MetricsRegistry::new();
        let h = r.histogram("churn_ns");
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut bad = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut v = 0_u64;
                while !stop.load(Ordering::Relaxed) {
                    h.record(v % 5_000);
                    v += 7;
                }
            });
            for _ in 0..600 {
                let snap = r.snapshot();
                let hs = &snap.histograms[0].1;
                let last = hs.buckets.last().map_or(0, |b| b.1);
                let monotone = hs.buckets.windows(2).all(|w| w[0].1 <= w[1].1);
                if !monotone || last > hs.count || (snap.coherent && last != hs.count) {
                    bad.push((snap.coherent, last, hs.count));
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(
            bad.is_empty(),
            "{} of 600 snapshots malformed (coherent, last cumulative, count): {:?}",
            bad.len(),
            &bad[..bad.len().min(5)]
        );
    }

    #[test]
    fn registry_returns_shared_handles() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.value(), 1);
        r.gauge("g").set(7.0);
        r.histogram("h").record(42);
        let snap = r.snapshot();
        assert!(snap.coherent, "quiescent registry collects coherently");
        assert_eq!(snap.counters, vec![("x".to_string(), 1)]);
        assert_eq!(snap.gauges, vec![("g".to_string(), 7.0)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    fn snapshot_stays_sane_under_churn() {
        let r = MetricsRegistry::new();
        let c = r.counter("churn");
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    c.inc();
                }
            });
            for _ in 0..100 {
                let snap = r.snapshot();
                // Coherent or not, the per-metric totals are monotone.
                assert!(snap.counters[0].1 <= c.value());
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("asgd_test_global_total").add(2);
        let snap = global().snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(k, v)| k == "asgd_test_global_total" && *v >= 2));
    }
}
