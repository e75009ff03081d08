//! SLO-based load shedding.
//!
//! The server tracks the rolling p99 of *executed* request latencies over
//! a count-rotated window (so old overload decays as fresh traffic
//! arrives) and compares it against a latency objective. Tiers are
//! evaluated at the *shed trigger* — the SLO scaled by
//! [`SloPolicy::trigger_ratio`] — so an operator can shed early enough
//! that the declared objective itself still holds (a threshold controller
//! with no headroom regulates the p99 *to* its threshold, which would
//! leave it hovering at the SLO):
//!
//! * p99 ≤ trigger — healthy; every priority is admitted;
//! * trigger < p99 ≤ 2×trigger — degraded; [`Priority::Low`] is shed;
//! * p99 > 2×trigger — overloaded; only [`Priority::High`] is admitted.
//!
//! Tier changes are **hysteretic**: a tier engages at its trigger
//! threshold but only releases once the p99 falls below
//! [`SloPolicy::release_ratio`] × that threshold. Without the gap, a p99
//! hovering at the trigger flaps the shedder every refresh — each flap
//! admits a burst of traffic that re-degrades the p99, re-engaging the
//! tier it just left. The engaged/held/released tier is recomputed at
//! every p99 refresh and cached, so the verdict hot path stays one atomic
//! load.
//!
//! Shed requests get an explicit [`Response::Shed`](crate::Response::Shed)
//! frame carrying the observed p99 and the objective — never a silent
//! drop — and skip the request's compute entirely, which is what frees
//! capacity for the admitted traffic. Shed requests are *not* recorded in
//! the window (they complete in ~µs; recording them would drag the p99
//! down and oscillate the shedder), so recovery is driven by the rotation
//! of the window as admitted requests complete.
//!
//! The window is a log-linear [`TelemetryHistogram`] (the telemetry
//! registry's layout) plus a ring of per-bucket count snapshots, one
//! taken every [`SloPolicy::bucket_capacity`] executions. The window's
//! counts are the live counts minus the oldest snapshot still in scope, so
//! after `n` executions it holds the last
//! `(window_buckets − 1) · bucket_capacity + 1 ..= window_buckets ·
//! bucket_capacity` of them, evicting a whole bucket's worth at each
//! rotation. Recording takes no lock and allocates nothing; the p99 is
//! [`quantile_le`] over the window, within 1/16 above the exact order
//! statistic.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

use asgd_telemetry::{cumulative_buckets, quantile_le, TelemetryHistogram, BUCKET_COUNT};

use crate::protocol::Priority;

/// The shedder's latency objective and window geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Target p99, as a duration. `None` disables shedding entirely.
    pub slo: Option<Duration>,
    /// Fraction of the SLO at which shedding engages (the *shed
    /// trigger*). `1.0` sheds only once the objective is already
    /// violated; values below 1 buy headroom so the executed-request
    /// p99 settles *inside* the objective instead of hovering at it.
    /// Values outside `(0, 1]` are treated as `1.0`.
    pub trigger_ratio: f64,
    /// Hysteresis: an engaged tier releases only once the p99 falls below
    /// `release_ratio` × its engage threshold. `1.0` means no hysteresis
    /// (engage and release at the same point); values outside `(0, 1]`
    /// are treated as `1.0`.
    pub release_ratio: f64,
    /// Number of rotation buckets in the rolling window.
    pub window_buckets: usize,
    /// Executed requests per bucket before the window rotates.
    pub bucket_capacity: u64,
    /// Minimum executed requests in the window before the shedder trusts
    /// its p99 estimate (cold-start guard: a handful of slow warm-up
    /// requests must not shed the whole warm-up).
    pub min_samples: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self {
            slo: None,
            trigger_ratio: 1.0,
            release_ratio: 0.85,
            window_buckets: 8,
            bucket_capacity: 256,
            min_samples: 64,
        }
    }
}

impl SloPolicy {
    /// A policy with the given p99 objective and default window geometry.
    #[must_use]
    pub fn with_slo(slo: Duration) -> Self {
        Self {
            slo: Some(slo),
            ..Self::default()
        }
    }
}

/// The verdict for one arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Execute the request.
    Admit,
    /// Refuse it with a `Shed` frame.
    Shed {
        /// The rolling p99 that triggered shedding, ns.
        p99_ns: u64,
        /// The objective, ns.
        slo_ns: u64,
    },
}

/// Rolling-p99 load shedder shared by every connection thread.
///
/// The hot path ([`LoadShedder::verdict`]) is a single relaxed atomic
/// load of the cached p99. Recording a completed request is a striped
/// histogram record and a counter bump; every `bucket_capacity / 8`
/// recordings one thread re-derives the p99 in O([`BUCKET_COUNT`]), while
/// concurrent recorders skip the refresh rather than wait for it.
#[derive(Debug)]
pub struct LoadShedder {
    policy: SloPolicy,
    /// Every executed request's latency, ns.
    hist: TelemetryHistogram,
    /// `window_buckets + 1` per-bucket count snapshots: slot `m % len`
    /// holds `hist`'s counts after `m · capacity` executions.
    ring: Box<[[AtomicU64; BUCKET_COUNT]]>,
    /// Executions per rotation (`bucket_capacity`, at least 1).
    capacity: u64,
    /// Cached rolling p99 in ns; 0 = "no estimate yet".
    p99_ns: AtomicU64,
    /// Held by the one thread re-deriving the p99.
    refreshing: AtomicBool,
    /// Refresh the cached p99 every this many recordings.
    refresh_stride: u64,
    /// Cached shedding tier: 0 healthy, 1 degraded (shed Low), 2
    /// overloaded (shed Low and Normal). Recomputed hysteretically at
    /// every p99 refresh.
    tier: AtomicU8,
    /// Tier changes since construction (flap detector).
    transitions: AtomicU64,
    shed_total: AtomicU64,
    executed_total: AtomicU64,
}

impl LoadShedder {
    /// A shedder with the given policy.
    #[must_use]
    pub fn new(policy: SloPolicy) -> Self {
        // A stride of 1/8 of a rotation keeps the estimate fresh while
        // amortising the O(BUCKET_COUNT) scan.
        let refresh_stride = (policy.bucket_capacity / 8).max(1);
        let ring = (0..=policy.window_buckets.max(1))
            .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
            .collect();
        Self {
            policy,
            hist: TelemetryHistogram::default(),
            ring,
            capacity: policy.bucket_capacity.max(1),
            p99_ns: AtomicU64::new(0),
            refreshing: AtomicBool::new(false),
            refresh_stride,
            tier: AtomicU8::new(0),
            transitions: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            executed_total: AtomicU64::new(0),
        }
    }

    /// The policy this shedder enforces.
    #[must_use]
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// The shed trigger in ns: the SLO scaled by the (validated)
    /// trigger ratio. `None` when shedding is off.
    fn trigger_ns(&self) -> Option<u64> {
        let slo_ns = self.slo_ns()?;
        let ratio = self.policy.trigger_ratio;
        Some(if ratio.is_finite() && ratio > 0.0 && ratio < 1.0 {
            ((slo_ns as f64 * ratio) as u64).max(1)
        } else {
            slo_ns
        })
    }

    fn slo_ns(&self) -> Option<u64> {
        self.policy
            .slo
            .map(|slo| slo.as_nanos().min(u128::from(u64::MAX)) as u64)
    }

    /// The validated release ratio (out-of-range values mean no
    /// hysteresis).
    fn release_ratio(&self) -> f64 {
        let r = self.policy.release_ratio;
        if r.is_finite() && r > 0.0 && r < 1.0 {
            r
        } else {
            1.0
        }
    }

    /// The hysteretic tier update, run at every p99 refresh:
    /// `engage` is the tier the fresh p99 demands outright; `hold` is the
    /// highest tier whose *release* threshold (release_ratio × its engage
    /// threshold) the p99 still exceeds. The new tier engages upward
    /// immediately but releases downward only past the hold thresholds —
    /// `max(engage, min(current, hold))`.
    fn retier(&self, p99_ns: u64) {
        let Some(trigger_ns) = self.trigger_ns() else {
            return;
        };
        let tier_from = |p99: u64, low: u64, high: u64| -> u8 {
            if p99 > high {
                2
            } else if p99 > low {
                1
            } else {
                0
            }
        };
        let new = if p99_ns == 0 {
            0 // estimate lost (window below min_samples): start over
        } else {
            let high_ns = trigger_ns.saturating_mul(2);
            let engage = tier_from(p99_ns, trigger_ns, high_ns);
            let release = self.release_ratio();
            let hold = tier_from(
                p99_ns,
                ((trigger_ns as f64 * release) as u64).max(1),
                ((high_ns as f64 * release) as u64).max(1),
            );
            let current = self.tier.load(Ordering::Relaxed);
            engage.max(current.min(hold))
        };
        if self.tier.swap(new, Ordering::Relaxed) != new {
            self.transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Decides whether a request at `priority` is admitted right now.
    pub fn verdict(&self, priority: Priority) -> Verdict {
        let Some(slo_ns) = self.slo_ns() else {
            return Verdict::Admit;
        };
        let p99_ns = self.p99_ns.load(Ordering::Relaxed);
        if p99_ns == 0 {
            return Verdict::Admit; // no estimate yet
        }
        let floor = match self.tier.load(Ordering::Relaxed) {
            0 => return Verdict::Admit,
            1 => Priority::Normal, // degraded: shed Low
            _ => Priority::High,   // overloaded: only High survives
        };
        if priority >= floor {
            Verdict::Admit
        } else {
            self.shed_total.fetch_add(1, Ordering::Relaxed);
            Verdict::Shed { p99_ns, slo_ns }
        }
    }

    /// Records the latency of one *executed* request and periodically
    /// refreshes the cached p99. Shed requests must not be recorded.
    pub fn record(&self, latency: Duration) {
        self.hist
            .record(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
        let n = self.executed_total.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.capacity) {
            // Rotation m = n / capacity: snapshot the counts so far.
            let slot = &self.ring[(n / self.capacity) as usize % self.ring.len()];
            for (cell, count) in slot.iter().zip(self.hist.bucket_counts()) {
                cell.store(count, Ordering::Relaxed);
            }
        }
        if n.is_multiple_of(self.refresh_stride)
            && self
                .refreshing
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            let window = self.window(n);
            let total = window.iter().sum();
            let p99 = if total >= self.policy.min_samples {
                quantile_le(cumulative_buckets(&window), total, 0.99).unwrap_or(0)
            } else {
                0
            };
            self.p99_ns.store(p99, Ordering::Relaxed);
            self.retier(p99);
            self.refreshing.store(false, Ordering::Release);
        }
    }

    /// The window's per-bucket counts after `n` executions: live counts
    /// minus the snapshot taken at the start of the oldest rotation bucket
    /// still in the window (all zeros before the first eviction).
    fn window(&self, n: u64) -> [u64; BUCKET_COUNT] {
        let buckets = self.ring.len() as u64 - 1;
        let oldest = (n.saturating_sub(1) / self.capacity + 1).saturating_sub(buckets);
        let slot = &self.ring[oldest as usize % self.ring.len()];
        let mut window = self.hist.bucket_counts();
        for (w, cell) in window.iter_mut().zip(slot.iter()) {
            *w = w.saturating_sub(cell.load(Ordering::Relaxed));
        }
        window
    }

    /// The current shedding tier: 0 healthy, 1 degraded, 2 overloaded.
    #[must_use]
    pub fn tier(&self) -> u8 {
        self.tier.load(Ordering::Relaxed)
    }

    /// Tier changes since construction — the flap detector hysteresis
    /// exists to keep small.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// The cached rolling p99 in ns (`None` before enough samples).
    #[must_use]
    pub fn rolling_p99_ns(&self) -> Option<u64> {
        match self.p99_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(ns),
        }
    }

    /// Requests shed since construction.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Requests executed (recorded) since construction.
    #[must_use]
    pub fn executed_total(&self) -> u64 {
        self.executed_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn saturate(shedder: &LoadShedder, latency: Duration, n: u64) {
        for _ in 0..n {
            shedder.record(latency);
        }
    }

    #[test]
    fn no_slo_admits_everything() {
        let shedder = LoadShedder::new(SloPolicy::default());
        saturate(&shedder, ms(1_000), 500);
        for &p in Priority::all() {
            assert_eq!(shedder.verdict(p), Verdict::Admit);
        }
        assert_eq!(shedder.shed_total(), 0);
    }

    #[test]
    fn healthy_latencies_admit_everything() {
        let shedder = LoadShedder::new(SloPolicy::with_slo(ms(10)));
        saturate(&shedder, ms(1), 500);
        for &p in Priority::all() {
            assert_eq!(shedder.verdict(p), Verdict::Admit);
        }
    }

    #[test]
    fn degraded_sheds_low_only() {
        let shedder = LoadShedder::new(SloPolicy::with_slo(ms(10)));
        // p99 lands between SLO and 2×SLO.
        saturate(&shedder, ms(15), 500);
        assert!(matches!(
            shedder.verdict(Priority::Low),
            Verdict::Shed { .. }
        ));
        assert_eq!(shedder.verdict(Priority::Normal), Verdict::Admit);
        assert_eq!(shedder.verdict(Priority::High), Verdict::Admit);
        assert!(shedder.shed_total() > 0);
    }

    #[test]
    fn overloaded_admits_only_high() {
        let shedder = LoadShedder::new(SloPolicy::with_slo(ms(10)));
        saturate(&shedder, ms(100), 500);
        let v = shedder.verdict(Priority::Low);
        let Verdict::Shed { p99_ns, slo_ns } = v else {
            panic!("low must be shed, got {v:?}");
        };
        assert!(p99_ns > slo_ns * 2);
        assert!(matches!(
            shedder.verdict(Priority::Normal),
            Verdict::Shed { .. }
        ));
        assert_eq!(shedder.verdict(Priority::High), Verdict::Admit);
    }

    #[test]
    fn trigger_ratio_sheds_before_the_objective_is_violated() {
        let shedder = LoadShedder::new(SloPolicy {
            trigger_ratio: 0.5, // trigger at 5 ms against a 10 ms SLO
            ..SloPolicy::with_slo(ms(10))
        });
        // p99 ~7 ms: inside the SLO, past the trigger — Low is shed with
        // the frame still reporting the declared objective.
        saturate(&shedder, ms(7), 500);
        let v = shedder.verdict(Priority::Low);
        let Verdict::Shed { p99_ns, slo_ns } = v else {
            panic!("low must be shed at the trigger, got {v:?}");
        };
        assert!(p99_ns <= slo_ns, "shed engaged while still inside the SLO");
        assert_eq!(shedder.verdict(Priority::Normal), Verdict::Admit);
        // p99 ~12 ms: past 2×trigger — only High survives.
        saturate(&shedder, ms(12), 2_000);
        assert!(matches!(
            shedder.verdict(Priority::Normal),
            Verdict::Shed { .. }
        ));
        assert_eq!(shedder.verdict(Priority::High), Verdict::Admit);
    }

    #[test]
    fn out_of_range_trigger_ratio_falls_back_to_the_objective() {
        for ratio in [0.0, -1.0, 2.0, f64::NAN] {
            let shedder = LoadShedder::new(SloPolicy {
                trigger_ratio: ratio,
                ..SloPolicy::with_slo(ms(10))
            });
            saturate(&shedder, ms(8), 500); // inside the SLO
            assert_eq!(shedder.verdict(Priority::Low), Verdict::Admit);
        }
    }

    #[test]
    fn cold_start_never_sheds() {
        let policy = SloPolicy {
            slo: Some(ms(10)),
            min_samples: 64,
            ..SloPolicy::default()
        };
        let shedder = LoadShedder::new(policy);
        // Fewer than min_samples slow requests: estimate not trusted yet.
        saturate(&shedder, ms(500), 40);
        assert_eq!(shedder.verdict(Priority::Low), Verdict::Admit);
    }

    #[test]
    fn hysteresis_holds_the_tier_through_an_oscillating_p99() {
        // Trigger 10 ms, release at 0.8 × 10 = 8 ms. A p99 ramping
        // 11 → 9 → 11 → … crosses the engage threshold every burst but
        // never the release threshold, so the tier must engage once and
        // hold.
        let shedder = LoadShedder::new(SloPolicy {
            release_ratio: 0.8,
            window_buckets: 4,
            bucket_capacity: 64,
            min_samples: 32,
            ..SloPolicy::with_slo(ms(10))
        });
        saturate(&shedder, ms(11), 256);
        assert_eq!(shedder.tier(), 1, "degraded engages past the trigger");
        let engaged = shedder.transitions();
        assert!(engaged >= 1);
        for _ in 0..6 {
            saturate(&shedder, ms(9), 256); // below trigger, above release
            assert_eq!(shedder.tier(), 1, "held: 9 ms is above the 8 ms release");
            assert!(matches!(
                shedder.verdict(Priority::Low),
                Verdict::Shed { .. }
            ));
            saturate(&shedder, ms(11), 256);
            assert_eq!(shedder.tier(), 1);
        }
        assert_eq!(
            shedder.transitions(),
            engaged,
            "no flapping across the whole ramp"
        );
        // A real recovery (clearly below release) still releases the tier.
        saturate(&shedder, ms(1), 256);
        assert_eq!(shedder.tier(), 0);
        assert_eq!(shedder.verdict(Priority::Low), Verdict::Admit);
        assert_eq!(shedder.transitions(), engaged + 1);
    }

    #[test]
    fn without_hysteresis_the_same_ramp_flaps() {
        // Control experiment: release_ratio 1.0 turns hysteresis off, and
        // the identical 11/9 ms ramp now toggles the tier every burst.
        let shedder = LoadShedder::new(SloPolicy {
            release_ratio: 1.0,
            window_buckets: 4,
            bucket_capacity: 64,
            min_samples: 32,
            ..SloPolicy::with_slo(ms(10))
        });
        saturate(&shedder, ms(11), 256);
        let engaged = shedder.transitions();
        for _ in 0..6 {
            saturate(&shedder, ms(9), 256);
            saturate(&shedder, ms(11), 256);
        }
        assert!(
            shedder.transitions() >= engaged + 12,
            "expected a flap per burst, saw {} transitions",
            shedder.transitions()
        );
    }

    #[test]
    fn out_of_range_release_ratios_mean_no_hysteresis() {
        for ratio in [0.0, -0.5, 1.5, f64::NAN] {
            let shedder = LoadShedder::new(SloPolicy {
                release_ratio: ratio,
                window_buckets: 4,
                bucket_capacity: 64,
                min_samples: 32,
                ..SloPolicy::with_slo(ms(10))
            });
            saturate(&shedder, ms(11), 256);
            assert_eq!(shedder.tier(), 1);
            saturate(&shedder, ms(9), 256); // below the trigger releases
            assert_eq!(shedder.tier(), 0, "ratio {ratio} must disable the hold");
        }
    }

    /// The window's observations after the last recording.
    fn window_of(shedder: &LoadShedder) -> asgd_telemetry::HistogramSnapshot {
        let counts = shedder.window(shedder.executed_total());
        asgd_telemetry::HistogramSnapshot::from_bucket_counts(&counts, 0)
    }

    fn ns_policy(window_buckets: usize, bucket_capacity: u64) -> SloPolicy {
        SloPolicy {
            window_buckets,
            bucket_capacity,
            min_samples: 1,
            ..SloPolicy::with_slo(ms(10))
        }
    }

    #[test]
    fn empty_window_gives_no_estimate() {
        let shedder = LoadShedder::new(ns_policy(4, 128));
        let window = window_of(&shedder);
        assert_eq!(window.count, 0);
        assert_eq!(window.quantile_le(0.99), None);
        assert_eq!(shedder.rolling_p99_ns(), None);
    }

    #[test]
    fn geometry_is_clamped_to_one_bucket_of_one() {
        // A zero-capacity window could never hold an observation: both
        // knobs clamp to 1, so the window is the latest execution alone.
        let shedder = LoadShedder::new(ns_policy(0, 0));
        for ns in [7, 9, 11] {
            shedder.record(Duration::from_nanos(ns));
            let window = window_of(&shedder);
            assert_eq!(window.count, 1);
            assert_eq!(window.quantile_le(0.5), Some(ns));
        }
        assert_eq!(shedder.rolling_p99_ns(), Some(11));
    }

    #[test]
    fn window_without_eviction_keeps_every_execution() {
        let shedder = LoadShedder::new(ns_policy(4, 100));
        for ns in 0..300 {
            shedder.record(Duration::from_nanos(ns));
        }
        let window = window_of(&shedder);
        assert_eq!(window.count, 300);
        // Nearest-rank p99 of 0..300 is 296; its bucket 288..=303 reports
        // the bound, within the 1/16 error bound.
        assert_eq!(window.quantile_le(0.99), Some(303));
        assert_eq!(shedder.rolling_p99_ns(), Some(303));
    }

    #[test]
    fn old_executions_are_evicted_by_count() {
        // Fill the whole window with slow executions, then record fast
        // ones: after `capacity` fast recordings every slow one is gone and
        // the p99 recovers. A cumulative histogram never would.
        let shedder = LoadShedder::new(ns_policy(4, 50));
        saturate(&shedder, Duration::from_millis(1), 200);
        let p99 = shedder.rolling_p99_ns().expect("estimate");
        assert!((1_000_000..1_000_000 + 1_000_000 / 16).contains(&p99));
        saturate(&shedder, Duration::from_nanos(10), 200);
        let window = window_of(&shedder);
        assert_eq!(window.quantile_le(1.0), Some(10), "spike fully forgotten");
        assert_eq!(window.count, 200);
        assert_eq!(shedder.rolling_p99_ns(), Some(10));
    }

    #[test]
    fn eviction_is_wholesale_per_bucket() {
        // 2 buckets × 2: the 5th execution evicts executions 1 and 2
        // together.
        let shedder = LoadShedder::new(ns_policy(2, 2));
        for ns in [1, 2, 3, 4] {
            shedder.record(Duration::from_nanos(ns));
        }
        assert_eq!(window_of(&shedder).quantile_le(0.0), Some(1));
        shedder.record(Duration::from_nanos(5));
        let window = window_of(&shedder);
        assert_eq!(window.quantile_le(0.0), Some(3), "oldest bucket evicted");
        assert_eq!(window.count, 3);
    }

    #[test]
    fn recovery_after_overload_passes() {
        let shedder = LoadShedder::new(SloPolicy {
            slo: Some(ms(10)),
            window_buckets: 4,
            bucket_capacity: 64,
            min_samples: 32,
            ..SloPolicy::default()
        });
        saturate(&shedder, ms(100), 256);
        assert!(matches!(
            shedder.verdict(Priority::Normal),
            Verdict::Shed { .. }
        ));
        // Healthy traffic rotates the overload out of the window.
        saturate(&shedder, ms(1), 256);
        assert_eq!(shedder.verdict(Priority::Low), Verdict::Admit);
        assert!(shedder.executed_total() >= 512);
    }
}
