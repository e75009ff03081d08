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
//!    (`TelemetryCellModel`, with seeded single-pass and re-read twins the
//!    explorer catches). A histogram's buckets, count and sum all come from
//!    that one collect, so its last cumulative count equals its count.
//! 3. **Quantiles carry a stated error bound.** [`TelemetryHistogram`] is
//!    log-linear: values 0–31 exactly, then 16 linear sub-buckets per
//!    power of two up to `u64::MAX` ([`BUCKET_COUNT`] buckets, no overflow
//!    bucket). [`quantile_le`] reports the bound of the bucket holding the
//!    nearest-rank order statistic `x`, a value in `[x, x + x/16)`
//!    (property-tested below). The net tier's load shedder windows the same
//!    type, so its p99 and a scraped p99 share one layout and one
//!    quantile function.
//! 4. **Exposition is lossless.** `parse(render(snapshot)) == snapshot` for
//!    every snapshot (property-tested below), so a scrape is a transport of
//!    the registry state, not a lossy pretty-print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod registry;
pub mod trace;

pub use expo::{parse, render, ParseError};
pub use registry::{
    cumulative_buckets, global, quantile_le, thread_stripe, Counter, Gauge, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot, TelemetryHistogram, BUCKET_COUNT, STRIPES,
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

    /// Observations concentrated on the layout's edges: 0, the exact range
    /// 1–31, powers of two ±1, `u64::MAX`, and arbitrary values.
    fn edge_value_strategy() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0_u64..6).prop_map(|(bits, kind)| match kind {
            0 => 0,
            1 => 1 + bits % 31,
            2 => {
                let p = 1_u64 << (bits % 64);
                match (bits >> 6) % 3 {
                    0 => p,
                    1 => p - 1,
                    _ => p.saturating_add(1),
                }
            }
            3 => u64::MAX,
            4 => bits % 1_000_000,
            _ => bits,
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The stated error bound: for any multiset, `quantile_le(q)` is the
        /// exact nearest-rank order statistic `x`, or exceeds it by less
        /// than `x/16`. Drawing from a few distinct values gives heavy ties.
        #[test]
        fn quantile_le_is_within_one_sixteenth_of_the_order_statistic(
            pool in proptest::collection::vec(edge_value_strategy(), 1..6),
            picks in proptest::collection::vec(0_usize..6, 1..300),
            q in 0.0_f64..1.0,
        ) {
            let h = TelemetryHistogram::default();
            let mut sorted: Vec<u64> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
            for &v in &sorted {
                h.record(v);
            }
            sorted.sort_unstable();
            let snap = h.snapshot();
            prop_assert_eq!(snap.count, sorted.len() as u64);
            for q in [q, 0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let x = sorted[rank - 1];
                let got = snap.quantile_le(q).expect("non-empty");
                prop_assert!(
                    got == x || (got > x && u128::from(got - x) * 16 < u128::from(x)),
                    "q {} of {:?}: got {} for order statistic {}", q, sorted, got, x
                );
            }
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
