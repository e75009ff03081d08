//! [`RunReport`] — the unified outcome of a run on any backend.

use crate::json::{self, Value};

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

impl TrajectorySample {
    fn to_value(&self) -> Value {
        Value::obj([
            ("index", Value::U64(self.index)),
            ("dist_sq", Value::f64(self.dist_sq)),
            ("elapsed_secs", Value::f64(self.elapsed_secs)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, DecodeError> {
        Ok(Self {
            index: field_u64(v, "index")?,
            dist_sq: field_f64(v, "dist_sq")?,
            elapsed_secs: field_f64(v, "elapsed_secs")?,
        })
    }
}

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

    fn to_value(&self) -> Value {
        Value::obj([
            ("iterations", Value::U64(self.iterations)),
            ("incomplete", Value::U64(self.incomplete)),
            ("tau_max", Value::U64(self.tau_max)),
            ("tau_avg", Value::f64(self.tau_avg)),
            ("staleness_max", Value::U64(self.staleness_max)),
            (
                "gibson_gramoli_holds",
                Value::Bool(self.gibson_gramoli_holds),
            ),
            ("lemma_6_4_holds", Value::Bool(self.lemma_6_4_holds)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, DecodeError> {
        Ok(Self {
            iterations: field_u64(v, "iterations")?,
            incomplete: field_u64(v, "incomplete")?,
            tau_max: field_u64(v, "tau_max")?,
            tau_avg: field_f64(v, "tau_avg")?,
            staleness_max: field_u64(v, "staleness_max")?,
            gibson_gramoli_holds: field_bool(v, "gibson_gramoli_holds")?,
            lemma_6_4_holds: field_bool(v, "lemma_6_4_holds")?,
        })
    }
}

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

    /// Converts into the JSON value tree.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("backend", Value::Str(self.backend.clone())),
            ("oracle", Value::Str(self.oracle.clone())),
            ("threads", Value::U64(self.threads as u64)),
            ("iterations", Value::U64(self.iterations)),
            ("seed", Value::U64(self.seed)),
            (
                "hit_iteration",
                Value::opt(self.hit_iteration.map(Value::U64)),
            ),
            ("min_dist_sq", Value::opt(self.min_dist_sq.map(Value::f64))),
            ("final_dist_sq", Value::f64(self.final_dist_sq)),
            (
                "final_model",
                Value::Arr(self.final_model.iter().map(|&v| Value::f64(v)).collect()),
            ),
            ("wall_time_secs", Value::f64(self.wall_time_secs)),
            ("steps", Value::opt(self.steps.map(Value::U64))),
            ("fingerprint", Value::opt(self.fingerprint.map(Value::U64))),
            ("stop", Value::opt(self.stop.clone().map(Value::Str))),
            (
                "contention",
                Value::opt(self.contention.as_ref().map(ContentionSummary::to_value)),
            ),
            (
                "stale_rejected",
                Value::opt(self.stale_rejected.map(Value::U64)),
            ),
            ("sparse_path", Value::opt(self.sparse_path.map(Value::Bool))),
            ("shards", Value::opt(self.shards.map(Value::U64))),
            (
                "trajectory",
                Value::opt(self.trajectory.as_ref().map(|samples| {
                    Value::Arr(samples.iter().map(TrajectorySample::to_value).collect())
                })),
            ),
        ])
    }

    /// Serialises to compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Serialises to pretty-printed JSON.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed JSON or missing/mistyped fields.
    pub fn from_json(text: &str) -> Result<Self, DecodeError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Decodes from a JSON value tree.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Field`] on missing/mistyped fields.
    pub fn from_value(v: &Value) -> Result<Self, DecodeError> {
        Ok(Self {
            backend: field_str(v, "backend")?,
            oracle: field_str(v, "oracle")?,
            threads: field_u64(v, "threads")? as usize,
            iterations: field_u64(v, "iterations")?,
            seed: field_u64(v, "seed")?,
            hit_iteration: opt_field(v, "hit_iteration", |f| f.as_u64().ok_or("expected integer"))?,
            min_dist_sq: opt_field(v, "min_dist_sq", |f| f.as_f64().ok_or("expected number"))?,
            final_dist_sq: field_f64(v, "final_dist_sq")?,
            final_model: v
                .get("final_model")
                .and_then(Value::as_arr)
                .ok_or_else(|| DecodeError::field("final_model", "expected array"))?
                .iter()
                .map(|item| {
                    item.as_f64()
                        .ok_or_else(|| DecodeError::field("final_model", "expected numbers"))
                })
                .collect::<Result<_, _>>()?,
            wall_time_secs: field_f64(v, "wall_time_secs")?,
            steps: opt_field(v, "steps", |f| f.as_u64().ok_or("expected integer"))?,
            fingerprint: opt_field(v, "fingerprint", |f| f.as_u64().ok_or("expected integer"))?,
            stop: opt_field(v, "stop", |f| {
                f.as_str().map(str::to_string).ok_or("expected string")
            })?,
            contention: opt_field(v, "contention", |f| {
                ContentionSummary::from_value(f).map_err(|_| "invalid contention summary")
            })?,
            stale_rejected: opt_field(v, "stale_rejected", |f| {
                f.as_u64().ok_or("expected integer")
            })?,
            sparse_path: opt_field(v, "sparse_path", |f| f.as_bool().ok_or("expected bool"))?,
            shards: opt_field(v, "shards", |f| f.as_u64().ok_or("expected integer"))?,
            trajectory: match v.get("trajectory") {
                None => None,
                Some(item) if item.is_null() => None,
                Some(item) => Some(
                    item.as_arr()
                        .ok_or_else(|| DecodeError::field("trajectory", "expected array"))?
                        .iter()
                        .map(TrajectorySample::from_value)
                        .collect::<Result<_, _>>()?,
                ),
            },
        })
    }
}

/// Error decoding a [`RunReport`] from JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The text is not valid JSON.
    Parse(json::ParseError),
    /// A field is missing or has the wrong type.
    Field {
        /// Field name.
        field: &'static str,
        /// What was expected.
        expected: &'static str,
    },
}

impl DecodeError {
    pub(crate) fn field(field: &'static str, expected: &'static str) -> Self {
        Self::Field { field, expected }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse(e) => e.fmt(f),
            Self::Field { field, expected } => {
                write!(f, "report field `{field}`: {expected}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<json::ParseError> for DecodeError {
    fn from(e: json::ParseError) -> Self {
        Self::Parse(e)
    }
}

/// Required-field lookup for report codecs in the `asgd_driver::json`
/// style. Public so downstream report types (e.g. `asgd-serve`'s
/// `ServeReport`) decode with the same helpers and error shape.
///
/// # Errors
///
/// Returns [`DecodeError::Field`] when `name` is absent.
pub fn field<'v>(v: &'v Value, name: &'static str) -> Result<&'v Value, DecodeError> {
    v.get(name).ok_or(DecodeError::Field {
        field: name,
        expected: "missing",
    })
}

/// Required `u64` field (see [`field`]).
///
/// # Errors
///
/// Returns [`DecodeError::Field`] when absent or not a non-negative
/// integer.
pub fn field_u64(v: &Value, name: &'static str) -> Result<u64, DecodeError> {
    field(v, name)?
        .as_u64()
        .ok_or_else(|| DecodeError::field(name, "expected integer"))
}

/// Required `f64` field (integers widen; see [`field`]).
///
/// # Errors
///
/// Returns [`DecodeError::Field`] when absent or not a number.
pub fn field_f64(v: &Value, name: &'static str) -> Result<f64, DecodeError> {
    field(v, name)?
        .as_f64()
        .ok_or_else(|| DecodeError::field(name, "expected number"))
}

/// Required `bool` field (see [`field`]).
///
/// # Errors
///
/// Returns [`DecodeError::Field`] when absent or not a bool.
pub fn field_bool(v: &Value, name: &'static str) -> Result<bool, DecodeError> {
    field(v, name)?
        .as_bool()
        .ok_or_else(|| DecodeError::field(name, "expected bool"))
}

/// Required string field (see [`field`]).
///
/// # Errors
///
/// Returns [`DecodeError::Field`] when absent or not a string.
pub fn field_str(v: &Value, name: &'static str) -> Result<String, DecodeError> {
    field(v, name)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| DecodeError::field(name, "expected string"))
}

/// Optional field: absent or `null` decode to `None`; a present value must
/// decode through `f`.
pub(crate) fn opt_field<T>(
    v: &Value,
    name: &'static str,
    f: impl FnOnce(&Value) -> Result<T, &'static str>,
) -> Result<Option<T>, DecodeError> {
    match v.get(name) {
        None => Ok(None),
        Some(item) if item.is_null() => Ok(None),
        Some(item) => f(item).map(Some).map_err(|expected| DecodeError::Field {
            field: name,
            expected,
        }),
    }
}

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
