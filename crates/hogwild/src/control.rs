//! Cross-thread run control shared by all native executors.
//!
//! Native runs are *jobs* from the driver's point of view: they must be
//! cancellable while in flight and observable at a bounded cost. Both
//! facilities ride the executors' success-check stride
//! ([`crate::ExecTuning::success_check_stride`]), so cancellation latency
//! and observation overhead are bounded by the stride regardless of the
//! model dimension.
//!
//! Two clocks drive them. The stop check and the step-timing sink bound
//! *each worker's* progress, so every worker runs them every `stride` of
//! its own claims (a per-worker countdown). Metrics, success sampling and
//! snapshot publishing describe the *shared* trajectory, so they fire on
//! global claim-index multiples. A stop check on global multiples would be
//! wrong: two workers claiming in near lockstep split the indices by
//! parity, and the one holding odd indices would never look at the flag.

use crate::snapshot::ServeHook;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Strided metrics sink function: called from worker threads with
/// `(claim index, ‖view − x*‖²)`, where the view is the freshly read shared
/// model at the moment the claim was taken (i.e. with `claim` updates
/// logically issued before it, modulo in-flight writes).
pub type MetricsFn<'a> = &'a (dyn Fn(u64, f64) + Sync);

/// A metrics callback with its own firing stride: the sink fires on every
/// claim index that is a multiple of `stride`, independent of the
/// success-check stride, so callers get samples exactly where they asked for
/// them (and single-threaded runs sample at identical indices across
/// executors).
#[derive(Clone, Copy)]
pub struct MetricsSink<'a> {
    /// Claim-index stride between samples (clamped to ≥ 1).
    pub stride: u64,
    /// The sink.
    pub f: MetricsFn<'a>,
}

impl MetricsSink<'_> {
    /// True if `claim` is a sample point.
    #[must_use]
    pub fn fires_at(&self, claim: u64) -> bool {
        claim.is_multiple_of(self.stride.max(1))
    }
}

impl std::fmt::Debug for MetricsSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSink")
            .field("stride", &self.stride)
            .finish_non_exhaustive()
    }
}

/// Strided step-timing sink function: called from worker threads with
/// `(claim index, elapsed_ns, steps)` — the wall time and the number of
/// updates this worker applied since its previous firing. `elapsed_ns /
/// steps` is the worker's amortised per-step latency over the interval.
pub type TimingFn<'a> = &'a (dyn Fn(u64, u64, u64) + Sync);

/// A step-timing callback riding the executors' success-check stride: each
/// worker reads one `Instant` per `stride` of its own claims (never per
/// claim), so the hot path stays O(Δ), the cost is bounded by the stride
/// exactly like cancellation, and every worker's steps are timed. Used by
/// the driver to feed the `asgd_hogwild_step_ns` telemetry histogram.
#[derive(Clone, Copy)]
pub struct TimingSink<'a> {
    /// The sink.
    pub f: TimingFn<'a>,
}

impl std::fmt::Debug for TimingSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingSink").finish_non_exhaustive()
    }
}

/// Per-run control handles threaded into a native executor's claim loops.
///
/// The default is inert: no stop flag, no metrics — executors behave exactly
/// as their plain `run` entry points always have. Both hooks are pure
/// observation/termination: they never consume RNG state, so attaching them
/// cannot perturb a run's trajectory.
#[derive(Clone, Copy, Default, Debug)]
pub struct RunControl<'a> {
    /// Cooperative stop flag. Every worker checks it on its first claim
    /// and then every success-check stride of its own claims; once it reads
    /// `true`, workers stop claiming and the run returns early with its
    /// report marked cancelled.
    pub stop: Option<&'a AtomicBool>,
    /// Strided metrics callback.
    pub metrics: Option<MetricsSink<'a>>,
    /// Strided step-timing callback (fires every success-check stride of
    /// each worker's own claims).
    pub timing: Option<TimingSink<'a>>,
    /// Serving attachment: the executor exposes a
    /// [`ModelReader`](crate::snapshot::ModelReader) through the hook before
    /// its workers start and publishes coherent snapshots every
    /// [`ServeHook::publish_stride`] claims (plus a final one after the
    /// join). Currently implemented by the lock-free [`crate::Hogwild`]
    /// executor; the other native executors accept and ignore it.
    pub serve: Option<&'a ServeHook>,
}

impl RunControl<'_> {
    /// True once the stop flag has been raised.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.stop.is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// True if the metrics sink is installed and fires at `claim`.
    #[must_use]
    pub fn metrics_at(&self, claim: u64) -> bool {
        self.metrics.is_some_and(|m| m.fires_at(claim))
    }

    /// Invokes the metrics sink (no-op when none is installed).
    pub fn emit_metrics(&self, claim: u64, dist_sq: f64) {
        if let Some(m) = self.metrics {
            (m.f)(claim, dist_sq);
        }
    }

    /// Invokes the timing sink (no-op when none is installed).
    pub fn emit_timing(&self, claim: u64, elapsed_ns: u64, steps: u64) {
        if let Some(t) = self.timing {
            (t.f)(claim, elapsed_ns, steps);
        }
    }

    /// True if either hook is installed (workers then need view scratch for
    /// strided sampling even on the sparse path). The timing sink is not
    /// included: it never reads the model, so it needs no scratch.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.stop.is_some() || self.metrics.is_some()
    }
}

/// One worker's countdown to its next stop check and timing emission.
///
/// Every native executor's worker owns one. [`WorkerPoll::stop_due`] is
/// called once per claim, before the claim's work. It checks the flag on
/// the worker's first claim and then every `stride` of its own claims. So
/// once the flag is visible a worker takes at most `stride` further claims,
/// however the claim indices interleave across workers. (The chaos
/// explorer's stop-check model drives this type directly.)
#[derive(Debug, Clone)]
pub struct WorkerPoll {
    stride: u64,
    /// Claims left before the next check; the first claim checks.
    countdown: u64,
    /// Start of the current timing window (set at the first check).
    window: Option<Instant>,
}

impl WorkerPoll {
    /// A countdown for one worker; `stride` is clamped to ≥ 1.
    #[must_use]
    pub fn new(stride: u64) -> Self {
        Self {
            stride: stride.max(1),
            countdown: 0,
            window: None,
        }
    }

    /// True when this worker must stop before working on `claim`. On the
    /// check claims that do not stop, also emits the elapsed time of the
    /// last `stride` steps to the timing sink, if one is installed.
    #[inline]
    pub fn stop_due(&mut self, ctrl: &RunControl<'_>, claim: u64) -> bool {
        if self.countdown > 0 {
            self.countdown -= 1;
            return false;
        }
        self.countdown = self.stride - 1;
        if ctrl.is_stopped() {
            return true;
        }
        if ctrl.timing.is_some() {
            let now = Instant::now();
            if let Some(start) = self.window.replace(now) {
                let ns = now.duration_since(start).as_nanos();
                ctrl.emit_timing(claim, ns.min(u128::from(u64::MAX)) as u64, self.stride);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_poll_checks_every_stride_of_own_claims() {
        let flag = AtomicBool::new(false);
        let ctrl = RunControl {
            stop: Some(&flag),
            ..RunControl::default()
        };
        let mut poll = WorkerPoll::new(4);
        // The claim index plays no part: this worker could hold any claims.
        for claim in [1, 3, 5, 7] {
            assert!(!poll.stop_due(&ctrl, claim));
        }
        flag.store(true, Ordering::Relaxed);
        let steps = (0..)
            .take_while(|&k| !poll.stop_due(&ctrl, 2 * k + 9))
            .count();
        assert_eq!(steps, 0, "the fifth claim is a check claim");
        let mut fresh = WorkerPoll::new(4);
        flag.store(false, Ordering::Relaxed);
        assert!(!fresh.stop_due(&ctrl, 0));
        flag.store(true, Ordering::Relaxed);
        let steps = (1..).take_while(|&c| !fresh.stop_due(&ctrl, c)).count();
        assert_eq!(steps, 3, "at most stride − 1 steps after the flag");
    }

    #[test]
    fn worker_poll_times_whole_strides() {
        use std::sync::atomic::AtomicU64;
        let steps = AtomicU64::new(0);
        let calls = AtomicU64::new(0);
        let record: &(dyn Fn(u64, u64, u64) + Sync) = &|_claim, _ns, n| {
            steps.fetch_add(n, Ordering::Relaxed);
            calls.fetch_add(1, Ordering::Relaxed);
        };
        let ctrl = RunControl {
            timing: Some(TimingSink { f: record }),
            ..RunControl::default()
        };
        let mut poll = WorkerPoll::new(8);
        for claim in 0..41 {
            assert!(!poll.stop_due(&ctrl, claim));
        }
        // Checks at claims 0, 8, …, 40: the first opens the window, each
        // later one closes a window of exactly one stride.
        assert_eq!(calls.load(Ordering::Relaxed), 5);
        assert_eq!(steps.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn default_control_is_inert() {
        let ctrl = RunControl::default();
        assert!(!ctrl.is_stopped());
        assert!(!ctrl.is_active());
        assert!(!ctrl.metrics_at(0));
        ctrl.emit_metrics(0, 1.0); // no sink: no-op
        assert!(format!("{ctrl:?}").contains("stop: None"));
    }

    #[test]
    fn stop_flag_is_observed() {
        let flag = AtomicBool::new(false);
        let ctrl = RunControl {
            stop: Some(&flag),
            ..RunControl::default()
        };
        assert!(!ctrl.is_stopped());
        assert!(ctrl.is_active());
        flag.store(true, Ordering::Relaxed);
        assert!(ctrl.is_stopped());
    }

    #[test]
    fn metrics_sink_fires_at_its_own_stride() {
        let noop: &(dyn Fn(u64, f64) + Sync) = &|_, _| {};
        let sink = MetricsSink {
            stride: 50,
            f: noop,
        };
        assert!(sink.fires_at(0));
        assert!(sink.fires_at(100));
        assert!(!sink.fires_at(16));
        let zero = MetricsSink { stride: 0, f: noop };
        assert!(zero.fires_at(7), "zero stride clamps to every claim");
        assert!(format!("{sink:?}").contains("stride: 50"));
    }

    #[test]
    fn timing_sink_receives_interval_observations() {
        use std::sync::atomic::AtomicU64;
        let total_ns = AtomicU64::new(0);
        let total_steps = AtomicU64::new(0);
        let record: &(dyn Fn(u64, u64, u64) + Sync) = &|_claim, ns, steps| {
            total_ns.fetch_add(ns, Ordering::Relaxed);
            total_steps.fetch_add(steps, Ordering::Relaxed);
        };
        let ctrl = RunControl {
            timing: Some(TimingSink { f: record }),
            ..RunControl::default()
        };
        // Timing alone must not force view scratch on the sparse path.
        assert!(!ctrl.is_active());
        ctrl.emit_timing(128, 64_000, 128);
        ctrl.emit_timing(256, 60_000, 128);
        assert_eq!(total_ns.load(Ordering::Relaxed), 124_000);
        assert_eq!(total_steps.load(Ordering::Relaxed), 256);
        // And the default is inert.
        RunControl::default().emit_timing(0, 1, 1);
        assert!(format!("{:?}", ctrl.timing).contains("TimingSink"));
    }
}
