//! Query execution and the closed-loop/fixed-rate traffic harness.

use crate::error::ServeError;
use crate::report::{LatencySummary, ServeReport, StalenessSummary};
use crate::service::ModelService;
use crate::spec::{Arrival, QueryKind, ReadMode, ServeSpec};
use asgd_driver::ModelReader;
use asgd_math::rng::SeedSequence;
use asgd_oracle::GradientOracle;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The answer to one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOutcome {
    /// The computed value (score, objective, or fetched parameter).
    pub value: f64,
    /// Snapshot staleness at query time — training iterations claimed since
    /// the snapshot this query read was published. `None` for live reads
    /// (they have no publication lag) and for snapshot reads that had to
    /// fall back to a live scan before the first publication.
    pub staleness: Option<u64>,
}

/// One client's query engine: owns its RNG stream, its scratch buffers and
/// (in snapshot mode) a version-cached copy of the latest snapshot, so the
/// steady-state query path allocates nothing.
pub struct QueryClient {
    reader: ModelReader,
    oracle: Arc<dyn GradientOracle>,
    mode: ReadMode,
    kind: QueryKind,
    probe_len: usize,
    rng: StdRng,
    /// Cached snapshot (snapshot mode): refreshed only when the published
    /// version moves, so consecutive queries between publications cost
    /// O(query), not O(d).
    snap: Vec<f64>,
    snap_tag: Option<(u64, u64)>,
    /// Full-view scratch for live predict reads (and snapshot fallback).
    live: Vec<f64>,
}

impl std::fmt::Debug for QueryClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryClient")
            .field("mode", &self.mode)
            .field("kind", &self.kind)
            .field("probe_len", &self.probe_len)
            .finish_non_exhaustive()
    }
}

impl QueryClient {
    /// A client for `service`, drawing its coins from `seed`.
    #[must_use]
    pub fn new(service: &ModelService, spec: &ServeSpec, seed: u64) -> Self {
        Self::from_parts(
            service.reader(),
            Arc::clone(service.oracle()),
            spec.mode,
            spec.query,
            spec.probe_len,
            seed,
        )
    }

    /// Assembles a client from its parts (the reader may outlive the
    /// service).
    #[must_use]
    pub fn from_parts(
        reader: ModelReader,
        oracle: Arc<dyn GradientOracle>,
        mode: ReadMode,
        kind: QueryKind,
        probe_len: usize,
        seed: u64,
    ) -> Self {
        let d = reader.dimension();
        Self {
            reader,
            oracle,
            mode,
            kind,
            probe_len: probe_len.clamp(1, d.max(1)),
            rng: SeedSequence::new(seed).child_rng(0),
            snap: Vec::new(),
            snap_tag: None,
            live: vec![0.0; d],
        }
    }

    /// Refreshes the cached snapshot if a newer version was published.
    /// Returns `false` when nothing has been published yet.
    fn refresh_snapshot(&mut self) -> bool {
        let current = self.reader.snapshot_version();
        if current == 0 {
            return false;
        }
        if self.snap_tag.is_none_or(|(version, _)| version != current) {
            self.snap_tag = self.reader.snapshot_into(&mut self.snap);
        }
        self.snap_tag.is_some()
    }

    /// Staleness of the cached snapshot at this instant.
    fn staleness(&self) -> Option<u64> {
        let (_, published_at) = self.snap_tag?;
        Some(self.reader.iterations().saturating_sub(published_at))
    }

    /// Executes one query against the service's model.
    pub fn query(&mut self) -> QueryOutcome {
        let d = self.reader.dimension();
        match self.kind {
            QueryKind::Fetch => {
                let j = (self.rng.next_u64() % d as u64) as usize;
                match self.mode {
                    ReadMode::Live => QueryOutcome {
                        value: self.reader.read_entry(j),
                        staleness: None,
                    },
                    ReadMode::Snapshot => {
                        if self.refresh_snapshot() {
                            QueryOutcome {
                                value: self.snap[j],
                                staleness: self.staleness(),
                            }
                        } else {
                            QueryOutcome {
                                value: self.reader.read_entry(j),
                                staleness: None,
                            }
                        }
                    }
                }
            }
            QueryKind::DotScore => {
                let use_snapshot = self.mode == ReadMode::Snapshot && self.refresh_snapshot();
                let mut score = 0.0;
                for _ in 0..self.probe_len {
                    let j = (self.rng.next_u64() % d as u64) as usize;
                    let weight = self.rng.gen_range(-1.0..1.0);
                    let xj = if use_snapshot {
                        self.snap[j]
                    } else {
                        self.reader.read_entry(j)
                    };
                    score += weight * xj;
                }
                QueryOutcome {
                    value: score,
                    staleness: use_snapshot.then(|| self.staleness()).flatten(),
                }
            }
            QueryKind::Predict => {
                let use_snapshot = self.mode == ReadMode::Snapshot && self.refresh_snapshot();
                let value = if use_snapshot {
                    self.oracle.objective(&self.snap)
                } else {
                    self.reader.read_live(&mut self.live);
                    self.oracle.objective(&self.live)
                };
                QueryOutcome {
                    value,
                    staleness: use_snapshot.then(|| self.staleness()).flatten(),
                }
            }
        }
    }
}

/// Per-client telemetry folded into the final [`ServeReport`].
struct ClientStats {
    latency_ns: Vec<u64>,
    staleness: Vec<u64>,
}

/// Drives `spec.clients` concurrent clients against `service` for the
/// serving window, then stops the training run and folds everything into a
/// [`ServeReport`].
///
/// Closed-loop clients re-query immediately; fixed-rate clients follow a
/// tick schedule. Latency is measured per query (request start → value
/// computed); staleness per snapshot-mode query. When the window closes, a
/// still-running training run is cancelled (its report then carries
/// `stop: "cancelled"` and the executed iteration count) — a run that ended
/// earlier on its own keeps its natural report, and the quiescent model
/// keeps serving for the remainder of the window.
///
/// # Errors
///
/// Returns [`ServeError::InvalidSpec`]/[`ServeError::UnsupportedBackend`]
/// for unexecutable specs and [`ServeError::Driver`] when the training run
/// fails.
pub fn run_workload(service: &ModelService, spec: &ServeSpec) -> Result<ServeReport, ServeError> {
    spec.validate()?;
    let window = Duration::from_secs_f64(spec.duration_secs);
    let seeds = SeedSequence::new(spec.serve_seed);
    let started = Instant::now();
    let deadline = started + window;
    let stats: Vec<ClientStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|client_id| {
                let mut client =
                    QueryClient::new(service, spec, seeds.child_seed(client_id as u64));
                let interval = match spec.arrival {
                    Arrival::ClosedLoop => None,
                    Arrival::FixedRate { qps } => Some(Duration::from_secs_f64(1.0 / qps)),
                };
                scope.spawn(move || {
                    let mut stats = ClientStats {
                        latency_ns: Vec::new(),
                        staleness: Vec::new(),
                    };
                    let mut next_tick = Instant::now();
                    loop {
                        let now = Instant::now();
                        if now >= deadline {
                            return stats;
                        }
                        if let Some(interval) = interval {
                            if now < next_tick {
                                std::thread::sleep((next_tick - now).min(deadline - now));
                                continue;
                            }
                            // Fixed schedule; when behind, fire immediately
                            // without accumulating a backlog.
                            next_tick = next_tick.max(now) + interval;
                        }
                        let issued = Instant::now();
                        let outcome = client.query();
                        let latency = issued.elapsed();
                        stats
                            .latency_ns
                            .push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
                        if let Some(staleness) = outcome.staleness {
                            stats.staleness.push(staleness);
                        }
                        // Keep the computed value observable in release
                        // builds: without this, snapshot-mode scoring
                        // (plain Vec reads, no side effects) could be
                        // dead-code-eliminated out of the measured path.
                        std::hint::black_box(outcome.value);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let served_secs = started.elapsed().as_secs_f64();
    let train = service.stop()?;

    let mut latency_ns: Vec<u64> = stats.iter().flat_map(|s| &s.latency_ns).copied().collect();
    let mut staleness: Vec<u64> = stats.iter().flat_map(|s| &s.staleness).copied().collect();
    let queries = latency_ns.len() as u64;
    Ok(ServeReport {
        mode: spec.mode.label().to_string(),
        query: spec.query.label().to_string(),
        arrival: spec.arrival.label(),
        clients: spec.clients,
        // The stride the *run* actually used (the service may have been
        // started with a different one than the spec carries — e.g.
        // `ServeSpec::run` disables strided publication for live reads).
        publish_stride: service.hook().publish_stride(),
        duration_secs: served_secs,
        queries,
        qps: if served_secs > 0.0 {
            queries as f64 / served_secs
        } else {
            f64::INFINITY
        },
        latency: LatencySummary::from_samples(&mut latency_ns),
        staleness: StalenessSummary::from_samples(&mut staleness),
        snapshots: service.reader().snapshot_version(),
        train,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_driver::{BackendKind, RunSpec};
    use asgd_oracle::OracleSpec;

    fn serve_spec() -> ServeSpec {
        let train = RunSpec::new(
            OracleSpec::new("sparse-quadratic", 64).sigma(0.0),
            BackendKind::Hogwild,
        )
        .threads(1)
        .iterations(200_000)
        .learning_rate(0.002)
        .x0(vec![1.0; 64])
        .seed(5);
        ServeSpec::new(train)
            .clients(2)
            .duration_secs(0.15)
            .publish_every(500)
            .serve_seed(77)
    }

    #[test]
    fn every_query_kind_runs_in_both_modes() {
        for kind in QueryKind::all() {
            for mode in ReadMode::all() {
                let spec = serve_spec().query(*kind).mode(*mode).duration_secs(0.05);
                let report = spec.run().unwrap_or_else(|e| panic!("{kind}/{mode}: {e}"));
                assert!(report.queries > 0, "{kind}/{mode}: no queries ran");
                assert_eq!(report.latency.count, report.queries);
                assert!(report.qps > 0.0);
                assert_eq!(report.mode, mode.label());
                assert_eq!(report.query, kind.label());
                match mode {
                    ReadMode::Live => assert!(
                        report.staleness.is_none(),
                        "{kind}: live reads have no staleness"
                    ),
                    ReadMode::Snapshot => {
                        // Publications start at claim 0; at most the first
                        // few queries fall back to live reads.
                        let s = report
                            .staleness
                            .as_ref()
                            .unwrap_or_else(|| panic!("{kind}: snapshot staleness missing"));
                        assert!(s.samples > 0);
                        // Progress counts claims issued; a cancelled run's
                        // executed count can trail by one per trainer.
                        assert!(s.max <= report.train.iterations + 1);
                    }
                }
                assert!(report.snapshots >= 1, "final publication always lands");
            }
        }
    }

    #[test]
    fn fixed_rate_arrival_throttles_throughput() {
        let spec = serve_spec()
            .query(QueryKind::Fetch)
            .arrival(Arrival::FixedRate { qps: 100.0 })
            .clients(1)
            .duration_secs(0.2);
        let report = spec.run().expect("runs");
        // 100 qps over 0.2 s ≈ 20 queries; allow generous scheduling slop
        // but rule out closed-loop rates (tens of thousands).
        assert!(
            report.queries <= 60,
            "fixed rate did not throttle: {} queries",
            report.queries
        );
    }

    #[test]
    fn workload_over_a_finished_run_serves_the_quiescent_model() {
        // Training completes long before the window opens; every query then
        // reads the same final state.
        let mut spec = serve_spec().query(QueryKind::Fetch).duration_secs(0.05);
        spec.train = spec.train.iterations(1_000);
        let service = ModelService::start(&spec.train, spec.publish_stride).expect("starts");
        let finished = service.wait().expect("completes");
        let report = run_workload(&service, &spec).expect("serves");
        assert!(report.queries > 0);
        assert_eq!(report.train, finished, "stop() keeps the natural report");
        // All snapshot queries see the final iteration: staleness 0.
        if let Some(s) = &report.staleness {
            assert_eq!(s.max, 0);
        }
    }

    #[test]
    fn client_outcomes_are_deterministic_given_seed_and_quiescent_model() {
        let mut spec = serve_spec();
        spec.train = spec.train.iterations(500);
        let service = ModelService::start(&spec.train, spec.publish_stride).expect("starts");
        let _ = service.wait().expect("completes");
        let run = |seed| {
            let mut client = QueryClient::new(&service, &spec, seed);
            (0..32).map(|_| client.query().value).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1), "same seed, same quiescent answers");
        assert_ne!(run(1), run(2), "distinct seeds draw distinct probes");
    }
}
