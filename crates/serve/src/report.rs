//! [`ServeReport`] — the serving workload's outcome, with exact JSON
//! through [`asgd_driver::json_record!`].

use asgd_driver::json_record;
use asgd_driver::RunReport;
use asgd_metrics::nearest_rank;

/// Latency telemetry of one serving run, in nanoseconds. Percentiles are
/// nearest-rank order statistics of the raw per-query samples: the `q`
/// percentile is the sample at rank `⌈q·n⌉` ([`nearest_rank`]), `max_ns` is
/// the slowest sample and `mean_ns` the exact mean (`0` everywhere when no
/// query ran).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Queries measured.
    pub count: u64,
    /// Mean latency.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Slowest query.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarises raw latency samples, sorting them in place.
    #[must_use]
    pub fn from_samples(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        let q = |q| nearest_rank(samples, q).unwrap_or(0);
        Self {
            count: samples.len() as u64,
            mean_ns: mean(samples),
            p50_ns: q(0.50),
            p90_ns: q(0.90),
            p99_ns: q(0.99),
            p999_ns: q(0.999),
            max_ns: q(1.0),
        }
    }
}

/// The exact mean of `samples` (`0` when empty); the sum is taken in
/// `u128`, so it cannot overflow.
fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&v| u128::from(v)).sum::<u128>() as f64 / samples.len() as f64
}

json_record!(LatencySummary {
    count,
    mean_ns,
    p50_ns,
    p90_ns,
    p99_ns,
    p999_ns,
    max_ns
});

/// Staleness telemetry of snapshot-mode queries: training iterations
/// between each query's snapshot publication and the query itself.
/// Percentiles are nearest-rank order statistics of the raw samples, as in
/// [`LatencySummary`]; `max` is the worst sample and `mean` the exact mean.
#[derive(Debug, Clone, PartialEq)]
pub struct StalenessSummary {
    /// Queries that measured staleness (snapshot reads).
    pub samples: u64,
    /// Mean staleness in iterations.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst observed staleness.
    pub max: u64,
}

impl StalenessSummary {
    /// Summarises raw staleness samples, sorting them in place (`None`
    /// when no snapshot-mode query ran — e.g. live-mode workloads).
    #[must_use]
    pub fn from_samples(samples: &mut [u64]) -> Option<Self> {
        samples.sort_unstable();
        let q = |q| nearest_rank(samples, q);
        Some(Self {
            samples: samples.len() as u64,
            mean: mean(samples),
            p50: q(0.50)?,
            p99: q(0.99)?,
            max: q(1.0)?,
        })
    }
}

json_record!(StalenessSummary {
    samples,
    mean,
    p50,
    p99,
    max
});

/// The outcome of one serving workload: traffic shape, throughput, latency
/// percentiles, staleness, and the (final or cancelled) training report
/// underneath. Serialises to and from JSON exactly; the embedded latency
/// block is the same [`LatencySummary`] record `asgd-net` reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Read mode label (`live` / `snapshot`).
    pub mode: String,
    /// Query kind label.
    pub query: String,
    /// Arrival label (`closed-loop` / `rate:QPS`).
    pub arrival: String,
    /// Client thread count.
    pub clients: usize,
    /// Snapshot publication stride the run actually used (`u64::MAX` for
    /// live-mode runs started via `ServeSpec::run`, which skip strided
    /// publication entirely).
    pub publish_stride: u64,
    /// Actual serving window in seconds.
    pub duration_secs: f64,
    /// Total queries answered.
    pub queries: u64,
    /// Aggregate throughput (queries / `duration_secs`).
    pub qps: f64,
    /// Latency telemetry.
    pub latency: LatencySummary,
    /// Staleness telemetry (`None` when no snapshot-mode query ran).
    pub staleness: Option<StalenessSummary>,
    /// Snapshot versions published over the run (including the final one).
    pub snapshots: u64,
    /// The training run's report (cancelled if it outlived the window).
    pub train: RunReport,
}

json_record!(ServeReport {
    mode,
    query,
    arrival,
    clients,
    publish_stride,
    duration_secs,
    queries,
    qps,
    latency,
    staleness,
    snapshots,
    train
});

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_train() -> RunReport {
        RunReport {
            backend: "hogwild".to_string(),
            oracle: "sparse-quadratic".to_string(),
            threads: 4,
            iterations: 123_456,
            seed: 7,
            hit_iteration: Some(321),
            min_dist_sq: None,
            final_dist_sq: 0.125,
            final_model: vec![0.5, -0.25],
            wall_time_secs: 0.75,
            steps: None,
            fingerprint: None,
            stop: Some("cancelled".to_string()),
            contention: None,
            stale_rejected: None,
            sparse_path: Some(true),
            shards: None,
            trajectory: None,
        }
    }

    fn sample() -> ServeReport {
        ServeReport {
            mode: "snapshot".to_string(),
            query: "dot-score".to_string(),
            arrival: "closed-loop".to_string(),
            clients: 8,
            publish_stride: 256,
            duration_secs: 0.5 + f64::EPSILON,
            queries: 10_000,
            qps: 20_000.5,
            latency: LatencySummary {
                count: 10_000,
                mean_ns: 48_000.25,
                p50_ns: 41_000,
                p90_ns: 70_000,
                p99_ns: 140_000,
                p999_ns: 900_000,
                max_ns: u64::MAX - 3,
            },
            staleness: Some(StalenessSummary {
                samples: 9_990,
                mean: 130.5,
                p50: 120,
                p99: 255,
                max: 256,
            }),
            snapshots: 40,
            train: sample_train(),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = sample();
        assert_eq!(ServeReport::from_json(&report.to_json()).unwrap(), report);
        assert_eq!(
            ServeReport::from_json(&report.to_json_pretty()).unwrap(),
            report
        );
    }

    #[test]
    fn live_mode_report_without_staleness_round_trips() {
        let report = ServeReport {
            mode: "live".to_string(),
            staleness: None,
            ..sample()
        };
        let back = ServeReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert!(back.staleness.is_none());
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = ServeReport::from_json("{}").map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("mode"), "{err}");
        let mut text = sample().to_json();
        text = text.replace("\"p999_ns\":900000,", "");
        let err = ServeReport::from_json(&text).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("p999_ns"), "{err}");
    }

    #[test]
    fn empty_samples_summarise_to_zeros() {
        let lat = LatencySummary::from_samples(&mut []);
        assert_eq!(lat.count, 0);
        assert_eq!(lat.p999_ns, 0);
        assert_eq!(lat.mean_ns, 0.0);
        assert_eq!(StalenessSummary::from_samples(&mut []), None);
        let s = StalenessSummary::from_samples(&mut [42]).unwrap();
        assert_eq!((s.samples, s.p50, s.max), (1, 42, 42));
        let lat = LatencySummary::from_samples(&mut [30, 10, 20, 40]);
        assert_eq!((lat.p50_ns, lat.p90_ns, lat.max_ns), (20, 40, 40));
        assert_eq!(lat.mean_ns, 25.0);
    }
}
