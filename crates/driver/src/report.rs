//! [`RunReport`] — the unified outcome of a run on any backend.

/// One strided trajectory sample: the observed squared distance to the
/// optimum after `index` updates, with the wall-clock offset at which it was
/// taken. Collected into [`RunReport::trajectory`] when the spec requests it
/// (`RunSpec::trajectory_every`) and streamed live to any attached
/// [`RunObserver`](crate::RunObserver).
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectorySample {
    /// Number of updates reflected in the measured state: the claim index on
    /// native backends, the ordered iteration count on simulated/sequential
    /// ones.
    pub index: u64,
    /// `‖x_index − x*‖²` at the sample point.
    pub dist_sq: f64,
    /// Seconds since the run started when the sample was taken (the one
    /// wall-clock-dependent field; everything else is deterministic on
    /// deterministic backends).
    pub elapsed_secs: f64,
}

crate::json_record!(TrajectorySample {
    index,
    dist_sq,
    elapsed_secs
});

/// Contention statistics of a simulated execution, summarised for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionSummary {
    /// Ordered iterations executed.
    pub iterations: u64,
    /// Iterations that started but never completed (crashes/step cap).
    pub incomplete: u64,
    /// Maximum interval contention `τ_max`.
    pub tau_max: u64,
    /// Average interval contention `τ_avg` (≤ 2n by Gibson–Gramoli).
    pub tau_avg: f64,
    /// Maximum view staleness.
    pub staleness_max: u64,
    /// Whether `τ_avg ≤ 2n` held on this execution.
    pub gibson_gramoli_holds: bool,
    /// Whether the Lemma 6.4 window bound held on this execution.
    pub lemma_6_4_holds: bool,
}

impl ContentionSummary {
    /// Summarises a full contention report.
    #[must_use]
    pub fn from_report(report: &asgd_shmem::ContentionReport) -> Self {
        Self {
            iterations: report.iterations(),
            incomplete: report.incomplete(),
            tau_max: report.tau_max(),
            tau_avg: report.tau_avg(),
            staleness_max: report.staleness_max(),
            gibson_gramoli_holds: report.gibson_gramoli_holds(),
            lemma_6_4_holds: report.lemma_6_4().holds,
        }
    }
}

crate::json_record!(ContentionSummary {
    iterations,
    incomplete,
    tau_max,
    tau_avg,
    staleness_max,
    gibson_gramoli_holds,
    lemma_6_4_holds
});

/// The unified outcome of executing a [`RunSpec`](crate::RunSpec): every
/// backend produces this one shape, so experiments compare execution models
/// field by field and dump machine-readable summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Backend name (see `BackendKind::name`).
    pub backend: String,
    /// Oracle kind the run used.
    pub oracle: String,
    /// Thread count the spec requested.
    pub threads: usize,
    /// Total iterations executed.
    pub iterations: u64,
    /// Master seed of the run.
    pub seed: u64,
    /// First (1-based) iteration inside the success region, if tracking was
    /// enabled and the region was reached. Simulated backends measure the
    /// paper's ordered accumulator process; native backends report the first
    /// claim whose freshly read view qualified (their observable proxy).
    pub hit_iteration: Option<u64>,
    /// Minimum `‖x_t − x*‖²` along the tracked trajectory, when available.
    pub min_dist_sq: Option<f64>,
    /// `‖X_final − x*‖²`.
    pub final_dist_sq: f64,
    /// Final model.
    pub final_model: Vec<f64>,
    /// Wall-clock seconds of the run's parallel/iteration section.
    pub wall_time_secs: f64,
    /// Simulator steps fired (simulated backends only).
    pub steps: Option<u64>,
    /// Deterministic execution fingerprint (simulated backends only).
    pub fingerprint: Option<u64>,
    /// Why the run stopped, when the backend distinguishes reasons.
    pub stop: Option<String>,
    /// Contention statistics (simulated backends only).
    pub contention: Option<ContentionSummary>,
    /// Updates dropped by the epoch guard (guarded-epoch backend only).
    pub stale_rejected: Option<u64>,
    /// Whether the run took the O(Δ) sparse gradient path (`None` for
    /// backends without the dense/sparse distinction, e.g. sequential).
    pub sparse_path: Option<bool>,
    /// Realised parameter-store shard count for every native store run
    /// (`None` for backends without arenas — simulated, sequential,
    /// locked).
    pub shards: Option<u64>,
    /// Strided trajectory samples, ordered by index — present when the spec
    /// enabled collection (`RunSpec::trajectory_every`).
    pub trajectory: Option<Vec<TrajectorySample>>,
}

impl RunReport {
    /// Iteration throughput in iterations per second.
    #[must_use]
    pub fn iterations_per_sec(&self) -> f64 {
        if self.wall_time_secs <= 0.0 {
            f64::INFINITY
        } else {
            self.iterations as f64 / self.wall_time_secs
        }
    }
}

crate::json_record!(RunReport {
    backend,
    oracle,
    threads,
    iterations,
    seed,
    hit_iteration,
    min_dist_sq,
    final_dist_sq,
    final_model,
    wall_time_secs,
    steps,
    fingerprint,
    stop,
    contention,
    stale_rejected,
    sparse_path,
    shards,
    trajectory
});

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            backend: "simulated-lockfree".to_string(),
            oracle: "noisy-quadratic".to_string(),
            threads: 3,
            iterations: 500,
            seed: 42,
            hit_iteration: Some(77),
            min_dist_sq: Some(0.012),
            final_dist_sq: 0.03,
            final_model: vec![0.1, -0.2, 0.05],
            wall_time_secs: 0.25,
            steps: Some(4123),
            fingerprint: Some(u64::MAX - 5),
            stop: Some("all-done".to_string()),
            contention: Some(ContentionSummary {
                iterations: 500,
                incomplete: 0,
                tau_max: 9,
                tau_avg: 2.5,
                staleness_max: 4,
                gibson_gramoli_holds: true,
                lemma_6_4_holds: true,
            }),
            stale_rejected: None,
            sparse_path: Some(false),
            shards: Some(8),
            trajectory: Some(vec![
                TrajectorySample {
                    index: 0,
                    dist_sq: 4.41,
                    elapsed_secs: 0.0,
                },
                TrajectorySample {
                    index: 128,
                    dist_sq: 0.5 + f64::EPSILON,
                    elapsed_secs: 0.125,
                },
            ]),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = sample();
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        let back = RunReport::from_json(&report.to_json_pretty()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn round_trip_with_all_options_absent() {
        let report = RunReport {
            hit_iteration: None,
            min_dist_sq: None,
            steps: None,
            fingerprint: None,
            stop: None,
            contention: None,
            stale_rejected: None,
            sparse_path: None,
            shards: None,
            trajectory: None,
            ..sample()
        };
        assert_eq!(RunReport::from_json(&report.to_json()).unwrap(), report);
    }

    #[test]
    fn empty_trajectory_stays_distinct_from_absent() {
        let report = RunReport {
            trajectory: Some(Vec::new()),
            ..sample()
        };
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.trajectory, Some(Vec::new()));
    }

    #[test]
    fn malformed_trajectory_is_rejected_by_field_name() {
        let mut text = sample().to_json();
        text = text.replace(
            "\"trajectory\":[",
            "\"trajectory\":[{\"index\":1,\"elapsed_secs\":0.0},",
        );
        let err = RunReport::from_json(&text).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("dist_sq"), "{err}");
    }

    #[test]
    fn fingerprint_survives_exactly() {
        let report = RunReport {
            fingerprint: Some(u64::MAX),
            ..sample()
        };
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.fingerprint, Some(u64::MAX), "no f64 mangling");
    }

    #[test]
    fn missing_field_is_reported_by_name() {
        let err = RunReport::from_json("{}").map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("backend"), "{err}");
        assert!(RunReport::from_json("not json").is_err());
    }

    #[test]
    fn throughput_helper() {
        let mut r = sample();
        assert!((r.iterations_per_sec() - 2000.0).abs() < 1e-9);
        r.wall_time_secs = 0.0;
        assert!(r.iterations_per_sec().is_infinite());
    }
}
