//! Exact order statistics over raw samples, and the run's correctness
//! ledger.
//!
//! Every latency sample lands in a buffer allocated before the timed window
//! opens, so recording never allocates; percentiles are nearest-rank order
//! statistics of the raw values, computed once after the window closes.

/// Raw samples in a buffer preallocated to a fixed capacity.
pub struct Samples {
    values: Vec<f64>,
    /// Samples that arrived after the buffer was full (reported, never
    /// silently folded into the percentiles).
    pub overflow: u64,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            values: Vec::with_capacity(capacity.max(1)),
            overflow: 0,
            sorted: false,
        }
    }

    /// Records one sample without allocating.
    #[inline]
    pub fn push(&mut self, v: f64) {
        if self.values.len() < self.values.capacity() {
            self.values.push(v);
            self.sorted = false;
        } else {
            self.overflow += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`): the smallest sample
    /// with at least `q·n` samples at or below it. NaN when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            self.values.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.values[rank - 1]
    }
}

/// The median of a small set of values (set-up repeats, per-session rates).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::with_capacity(values.len());
    for &v in values {
        s.push(v);
    }
    s.quantile(0.5)
}

/// Attempted operations and the checks that failed among them.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Counts one attempted operation; a failed `ok` counts it as failed
    /// and prints why on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    /// A whole-run invariant: counted as a failure when it does not hold,
    /// without counting as an attempted operation.
    pub fn invariant(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.attempted = self.attempted.max(self.failed);
            eprintln!("check failed: {}", what());
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_order_statistics() {
        let mut s = Samples::with_capacity(100);
        for v in (1..=100).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        s.push(1.0);
        assert_eq!(s.overflow, 1, "a full buffer counts, never grows");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
