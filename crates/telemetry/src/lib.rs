//! `asgd-telemetry` — the runtime's observability plane: a lock-free
//! [`MetricsRegistry`], Prometheus-text exposition ([`render`]/[`parse`]),
//! and a structured JSONL [`TraceSink`].
//!
//! The paper's bounds are driven by quantities the system already produces
//! or that an operator needs — per-shard counts of applied updates, snapshot
//! staleness, queue lag, shed-tier state — and this crate is where they become *scrapeable*:
//! every tier records into the process-wide [`global`] registry, the net
//! tier's `stats-scrape` opcode renders it live, and `experiments stats`
//! scrapes it from the CLI.
//!
//! Design constraints, in order:
//!
//! 1. **Hot paths stay lock-free and unshared.** Counters and histograms
//!    stripe updates over cache-line-padded per-thread cells (relaxed
//!    atomics), exactly like `ParamStore`'s per-shard update counters, so
//!    instrumentation never introduces a coherence hot spot. The committed
//!    bench gate holds instrumented hogwild throughput at ≥ 97% of
//!    uninstrumented (d = 1M, 4 pinned threads).
//! 2. **Collection is validated.** [`MetricsRegistry::snapshot`]
//!    double-collects every monotone cell and flags the result `coherent`
//!    only when two collects agree — the registry-wide generalisation of
//!    `ParamStore::coherent_update_counts`, model-checked in `asgd-chaos`
//!    (`TelemetryCellModel`, with a seeded torn-read twin the explorer
//!    catches).
//! 3. **Exposition is lossless.** `parse(render(snapshot)) == snapshot` for
//!    every snapshot (property-tested below), so a scrape is a transport of
//!    the registry state, not a lossy pretty-print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod registry;
pub mod trace;

pub use expo::{parse, render, ParseError};
pub use registry::{
    global, thread_stripe, Counter, Gauge, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    TelemetryHistogram, BUCKET_COUNT, STRIPES,
};
pub use trace::{replay, FieldValue, Span, TraceSink};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A plausible metric name, optionally label-suffixed.
    fn name_strategy() -> impl Strategy<Value = String> {
        (0_u64..4, 0_u64..8).prop_map(|(kind, n)| {
            let base = ["asgd_updates_total", "asgd_tau", "latency_ns", "q_depth"][kind as usize];
            if n % 2 == 0 {
                base.to_string()
            } else {
                format!("{base}{{model=\"m{n}\",shard=\"{}\"}}", n / 2)
            }
        })
    }

    fn histogram_strategy() -> impl Strategy<Value = HistogramSnapshot> {
        (
            proptest::collection::vec((0_u64..30, 1_u64..1000), 0..6),
            0_u64..1_000_000,
        )
            .prop_map(|(raw, sum)| {
                // Strictly increasing bounds with monotone cumulative counts.
                let mut bounds: Vec<u64> = raw.iter().map(|&(b, _)| 1 << b).collect();
                bounds.sort_unstable();
                bounds.dedup();
                let mut cum = 0;
                let buckets: Vec<(u64, u64)> = bounds
                    .into_iter()
                    .zip(raw.iter())
                    .map(|(le, &(_, c))| {
                        cum += c;
                        (le, cum)
                    })
                    .collect();
                let count = buckets.last().map_or(0, |&(_, c)| c);
                HistogramSnapshot {
                    buckets,
                    count,
                    sum,
                }
            })
    }

    /// Gauge values from the full finite f64 grid Rust's `Display` renders
    /// shortest-exact (including negatives and subnormal-ish magnitudes).
    fn gauge_value_strategy() -> impl Strategy<Value = f64> {
        (any::<u64>(), 0_u64..4).prop_map(|(bits, kind)| match kind {
            0 => f64::from_bits(bits % (1 << 40)) * 1e-12,
            1 => -((bits % 10_000) as f64) / 7.0,
            2 => (bits % 1_000_000) as f64,
            _ => {
                let v = f64::from_bits(bits);
                if v.is_finite() {
                    v
                } else {
                    0.5
                }
            }
        })
    }

    fn dedup_by_name<T>(mut items: Vec<(String, T)>) -> Vec<(String, T)> {
        items.sort_by(|a, b| a.0.cmp(&b.0));
        items.dedup_by(|a, b| a.0 == b.0);
        items
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Satellite: any `MetricsSnapshot` round-trips the exposition text
        /// format exactly.
        #[test]
        fn exposition_round_trips_exactly(
            coherent in any::<bool>(),
            counters in proptest::collection::vec((name_strategy(), any::<u64>()), 0..5),
            gauges in proptest::collection::vec((name_strategy(), gauge_value_strategy()), 0..5),
            hists in proptest::collection::vec((name_strategy(), histogram_strategy()), 0..3),
        ) {
            let snap = MetricsSnapshot {
                coherent,
                counters: dedup_by_name(counters),
                gauges: dedup_by_name(gauges),
                // Histogram series parse by base-name suffix match, so keep
                // base names distinct the way the registry does (one entry
                // per name).
                histograms: dedup_by_name(hists)
                    .into_iter()
                    .map(|(n, h)| (n.split('{').next().unwrap_or(&n).to_string(), h))
                    .collect::<std::collections::BTreeMap<_, _>>()
                    .into_iter()
                    .collect(),
            };
            let text = render(&snap);
            let back = parse(&text).expect("rendered exposition parses");
            prop_assert_eq!(back, snap);
        }
    }

    #[test]
    fn live_registry_snapshot_round_trips() {
        let r = MetricsRegistry::new();
        r.counter("asgd_rt_total").add(41);
        r.gauge("asgd_rt_gauge{model=\"m\"}").set(-2.75);
        let h = r.histogram("asgd_rt_latency_ns");
        for v in [3, 900, 900, 1 << 20] {
            h.record(v);
        }
        let snap = r.snapshot();
        let back = parse(&render(&snap)).expect("parses");
        assert_eq!(back, snap);
    }
}
