//! Experiment harness regenerating every paper-claim table, and the
//! regression gates (`check`) of the `experiments` CLI.
//!
//! Each submodule of [`experiments`] reproduces one artifact of the paper
//! (a theorem's bound-vs-measurement table, the Figure-1 grid, a §8
//! discussion claim). Every experiment has two sizes: `quick` (seconds,
//! used by tests and smoke runs) and full (the defaults; run via
//! `cargo run -p asgd-bench --release --bin experiments -- all`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod experiments;

use asgd_metrics::Table;

/// Output of one experiment: tables plus free-form notes (verdicts, fitted
/// slopes, rendered grids).
#[derive(Debug, Default)]
pub struct ExperimentOutput {
    /// Identifier (e.g. `"t65"`), used for CSV file names.
    pub id: String,
    /// The generated tables.
    pub tables: Vec<Table>,
    /// Additional findings to print verbatim.
    pub notes: Vec<String>,
}

impl ExperimentOutput {
    /// Creates an empty output for experiment `id`.
    #[must_use]
    pub fn new(id: &str) -> Self {
        Self {
            id: id.to_string(),
            ..Self::default()
        }
    }

    /// Renders everything for stdout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== experiment {} ===\n", self.id));
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out
    }
}

/// The registry of all experiments, in the order `all` runs them.
#[must_use]
pub fn experiment_ids() -> Vec<&'static str> {
    vec![
        "fig1",
        "t31",
        "t51",
        "t65",
        "c67",
        "l62",
        "l64",
        "tavg",
        "c71",
        "stepsize",
        "regimes",
        "speedup",
        "sparse",
        "sparse-scaling",
        "serving",
        "serving-net",
        "ingest",
    ]
}

/// An experiment id that is not in [`experiment_ids`] — a usage error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment(pub String);

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown experiment id `{}` (known: {})",
            self.0,
            experiment_ids().join(", ")
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// Resolves an experiment id to its runner (which takes `quick`).
///
/// # Errors
///
/// Returns [`UnknownExperiment`] if `id` is not in [`experiment_ids`].
pub fn experiment(id: &str) -> Result<fn(bool) -> ExperimentOutput, UnknownExperiment> {
    Ok(match id {
        "fig1" => experiments::fig1::run,
        "t31" => experiments::t31::run,
        "t51" => experiments::t51::run,
        "t65" => experiments::t65::run,
        "c67" => experiments::c67::run,
        "l62" => experiments::contention::run_l62,
        "l64" => experiments::contention::run_l64,
        "tavg" => experiments::contention::run_tavg,
        "c71" => experiments::c71::run,
        "stepsize" => experiments::stepsize::run,
        "regimes" => experiments::regimes::run,
        "speedup" => experiments::speedup::run,
        "sparse" => experiments::sparse::run,
        "sparse-scaling" => experiments::sparse_scaling::run,
        "serving" => experiments::serving::run,
        "serving-net" => experiments::serving_net::run,
        "ingest" => experiments::ingest::run,
        other => return Err(UnknownExperiment(other.to_string())),
    })
}

/// Runs one experiment by id.
///
/// # Errors
///
/// Returns [`UnknownExperiment`] if `id` is not in [`experiment_ids`].
pub fn run_experiment(id: &str, quick: bool) -> Result<ExperimentOutput, UnknownExperiment> {
    experiment(id).map(|run| run(quick))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_runnable_ids_exist() {
        // Every listed id dispatches (the experiments themselves are smoke-
        // tested in their own modules; here we only check the registry
        // wiring for a trivially cheap one).
        assert!(experiment_ids().contains(&"t51"));
        assert!(experiment_ids().contains(&"sparse-scaling"));
        assert!(experiment_ids().contains(&"serving"));
        assert!(experiment_ids().contains(&"serving-net"));
        assert!(experiment_ids().contains(&"ingest"));
        assert_eq!(experiment_ids().len(), 17);
    }

    #[test]
    fn unknown_id_is_a_typed_error_listing_the_known_ids() {
        let err = run_experiment("nope", true).expect_err("unknown id");
        assert_eq!(err, UnknownExperiment("nope".to_string()));
        let message = err.to_string();
        assert!(
            message.contains("unknown experiment id `nope`"),
            "{message}"
        );
        for id in experiment_ids() {
            assert!(message.contains(id), "{message} lacks {id}");
            assert!(experiment(id).is_ok(), "{id} resolves");
        }
    }

    #[test]
    fn output_render_includes_id() {
        let out = ExperimentOutput::new("demo");
        assert!(out.render().contains("=== experiment demo ==="));
    }
}
