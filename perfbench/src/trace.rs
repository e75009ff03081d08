//! Tracing from the benchmark's side of each layer boundary: in-memory
//! spans around calls into the layers' public functions, a timing
//! decorator for the gradient oracle, and exact deltas of the step-time
//! telemetry the executors already record.

use asgd_oracle::{Constants, GradientOracle, ModelView, SparseGrad};
use asgd_telemetry::Counter;
use rand::RngCore;
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One span: a named interval, the span that caused it, and the request
/// (session or served request) it belongs to.
struct Span {
    id: u32,
    parent: u32,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory, in a buffer preallocated before the run, and
/// written out once when the benchmark ends. Disabled recorders record
/// nothing and cost one branch.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Spans that did not fit the buffer.
    pub dropped: u64,
}

/// Span id 0 means "no parent".
pub const ROOT: u32 = 0;

impl Spans {
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` under `parent`; returns the new span's id (0
    /// when not recorded).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each worker times one gradient sample in this many (and counts all).
const TIME_EVERY: u32 = 64;

thread_local! {
    static TICK: Cell<u32> = const { Cell::new(0) };
}

/// A gradient-oracle decorator that counts every gradient sample, times
/// one in [`TIME_EVERY`] of each thread's, and forwards every
/// `GradientOracle` method to the wrapped oracle, so the executors take
/// exactly the path they take without it. Counts live on striped
/// telemetry counters: the two workers never share a cache line for them.
pub struct TimedOracle {
    inner: Arc<dyn GradientOracle>,
    calls: Counter,
    timed_calls: Counter,
    ns: Counter,
}

/// Totals of a [`TimedOracle`]: all gradient samples, the timed ones, and
/// the nanoseconds inside the timed ones.
#[derive(Clone, Copy)]
pub struct OracleTotals {
    pub calls: u64,
    pub timed: u64,
    pub ns: u64,
}

impl OracleTotals {
    /// `(calls, mean ns per timed call)` between `self` and `later`.
    pub fn since(self, later: Self) -> (u64, f64) {
        let timed = later.timed - self.timed;
        (
            later.calls - self.calls,
            (later.ns - self.ns) as f64 / timed.max(1) as f64,
        )
    }
}

impl TimedOracle {
    pub fn new(inner: Arc<dyn GradientOracle>) -> Self {
        Self {
            inner,
            calls: Counter::default(),
            timed_calls: Counter::default(),
            ns: Counter::default(),
        }
    }

    pub fn totals(&self) -> OracleTotals {
        OracleTotals {
            calls: self.calls.value(),
            timed: self.timed_calls.value(),
            ns: self.ns.value(),
        }
    }

    #[inline]
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        self.calls.inc();
        let tick = TICK.with(|t| {
            let v = t.get().wrapping_add(1);
            t.set(v);
            v
        });
        if !tick.is_multiple_of(TIME_EVERY) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns.add(t.elapsed().as_nanos() as u64);
        self.timed_calls.inc();
        r
    }
}

impl GradientOracle for TimedOracle {
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }
    fn sample_gradient(&self, x: &[f64], rng: &mut dyn RngCore, out: &mut [f64]) {
        self.timed(|| self.inner.sample_gradient(x, rng, out));
    }
    fn max_support(&self) -> Option<usize> {
        self.inner.max_support()
    }
    fn sample_gradient_sparse(
        &self,
        view: &dyn ModelView,
        rng: &mut dyn RngCore,
        out: &mut SparseGrad,
    ) {
        self.timed(|| self.inner.sample_gradient_sparse(view, rng, out));
    }
    fn sample_support(&self, rng: &mut dyn RngCore, out: &mut Vec<usize>) -> bool {
        self.inner.sample_support(rng, out)
    }
    fn gradient_on_support(
        &self,
        support: &[usize],
        values: &[f64],
        rng: &mut dyn RngCore,
        out: &mut SparseGrad,
    ) {
        self.inner.gradient_on_support(support, values, rng, out);
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
        self.inner.constants(radius)
    }
    fn dist_sq_to_opt(&self, x: &[f64]) -> f64 {
        self.inner.dist_sq_to_opt(x)
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Exact sum/count of the process-wide `asgd_hogwild_step_ns` histogram
/// (each record is one worker's mean step time over one stride window).
/// Only the exact sum and count are read — never its bucket percentiles.
#[derive(Clone, Copy, Default)]
pub struct StepTotals {
    pub sum: u64,
    pub count: u64,
}

impl StepTotals {
    pub fn now() -> Self {
        let h = asgd_telemetry::global().histogram("asgd_hogwild_step_ns");
        Self {
            sum: h.sum(),
            count: h.count(),
        }
    }

    /// Mean step time between `self` (earlier) and `later`, in ns.
    pub fn mean_since(self, later: Self) -> f64 {
        let n = later.count.saturating_sub(self.count);
        if n == 0 {
            return 0.0;
        }
        later.sum.wrapping_sub(self.sum) as f64 / n as f64
    }
}
