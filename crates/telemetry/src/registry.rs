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
//! every monotone progress cell (counter stripes and histogram counts) and
//! only flags the snapshot `coherent` when two consecutive collects agree —
//! the registry-wide generalisation of
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

/// Power-of-two bucket upper bounds: `1, 2, 4, …, 2^(BUCKET_COUNT-1)`, with
/// an implicit `+Inf` overflow bucket. 48 doublings cover 1 ns to ~3.3 days
/// in nanoseconds — every latency this runtime can plausibly record.
pub const BUCKET_COUNT: usize = 48;

/// Per-stripe histogram cells: bucket counts plus sum/count, each stripe a
/// separate allocation so writers never share lines.
#[derive(Debug)]
struct HistStripe {
    buckets: Box<[AtomicU64; BUCKET_COUNT + 1]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A lock-free bucketed histogram over `u64` observations (latencies in
/// nanoseconds, staleness in iterations). Buckets are fixed powers of two
/// ([`BUCKET_COUNT`] of them plus overflow), so `record` is a
/// `leading_zeros` and three relaxed adds on the caller's stripe.
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

/// The bucket index observing `v`: smallest `b` with `v ≤ 2^b`, or the
/// overflow bucket.
#[must_use]
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    let b = (64 - (v - 1).leading_zeros()) as usize;
    b.min(BUCKET_COUNT)
}

impl TelemetryHistogram {
    /// Records one observation on the calling thread's stripe.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = &self.stripes[thread_stripe()];
        s.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations across all stripes.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.count.load(Ordering::Acquire))
            .sum()
    }

    /// Sum of all observations across all stripes (wrapping, like the
    /// underlying atomic adds).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.stripes.iter().fold(0u64, |acc, s| {
            acc.wrapping_add(s.sum.load(Ordering::Acquire))
        })
    }

    /// A point-in-time snapshot (per-cell atomic reads, not validated).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut per_bucket = [0u64; BUCKET_COUNT + 1];
        for s in &self.stripes {
            for (acc, cell) in per_bucket.iter_mut().zip(s.buckets.iter()) {
                *acc += cell.load(Ordering::Acquire);
            }
        }
        // Cumulative `le` counts over the non-empty prefix plus overflow.
        let mut buckets = Vec::new();
        let mut acc = 0;
        for (b, &n) in per_bucket.iter().enumerate().take(BUCKET_COUNT) {
            acc += n;
            if n > 0 {
                buckets.push((1u64 << b, acc));
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
        }
    }

    fn collect_cells(&self, out: &mut Vec<u64>) {
        out.extend(self.stripes.iter().map(|s| s.count.load(Ordering::Acquire)));
    }
}

/// A histogram's point-in-time state: cumulative `(le, count)` pairs for
/// every non-empty power-of-two bucket (observations above the last bound
/// appear only in `count`), plus the total count and sum.
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
    /// The smallest bucket bound with cumulative count ≥ `q · count` — a
    /// conservative (upper-bounded) quantile estimate from bucketed data.
    #[must_use]
    pub fn quantile_le(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        for &(le, cum) in &self.buckets {
            if cum >= target {
                return Some(le);
            }
        }
        self.buckets.last().map(|&(le, _)| le)
    }
}

/// A validated point-in-time view of every registered metric, renderable to
/// (and parseable back from) the Prometheus text exposition format.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// True when the double-collect validated: no monotone cell moved
    /// between the two collects, so the counters and histogram counts are
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
    /// counts), then re-collects: equal collects mean no metric moved
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
        // Counter totals and histogram counts are derived from the
        // *validated* collect, never re-read — re-reading after validation
        // would let movement slip between the validated instant and the
        // published values, silently un-pinning a coherent-flagged
        // snapshot (the torn-read twin `asgd-chaos` catches).
        let mut cells = seen.chunks_exact(STRIPES);
        let counters = counters
            .iter()
            .map(|(k, _)| {
                let total = cells.next().map_or(0, |c| c.iter().sum());
                (k.clone(), total)
            })
            .collect();
        let histograms = histograms
            .iter()
            .map(|(k, h)| {
                let count = cells.next().map_or(0, |c| c.iter().sum());
                let mut snap = h.snapshot();
                snap.count = count;
                (k.clone(), snap)
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
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT);
        let h = TelemetryHistogram::default();
        for v in [1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006_u64.wrapping_add(u64::MAX));
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        // The overflow observation is in count but under no finite bound.
        let last_cum = snap.buckets.last().unwrap().1;
        assert_eq!(last_cum, 4);
        // Bounds increase and cumulative counts are monotone.
        for w in snap.buckets.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 <= w[1].1);
        }
        // Median target is the 3rd observation (value 3), bucketed ≤ 4.
        assert_eq!(snap.quantile_le(0.5), Some(4));
        assert_eq!(HistogramSnapshot::default().quantile_le(0.5), None);
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
