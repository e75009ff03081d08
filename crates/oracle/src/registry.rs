//! By-name oracle construction for spec-driven experiment harnesses.
//!
//! Every workload in this crate can be built from an [`OracleSpec`] — a
//! plain-data description (kind, dimension, noise, dataset parameters) that
//! can live in a config file or CLI arguments. The unified execution driver
//! (`asgd-driver`) embeds an `OracleSpec` in its `RunSpec` so one value
//! describes a run end to end.
//!
//! # Example
//!
//! ```
//! use asgd_oracle::registry::OracleSpec;
//! use asgd_oracle::GradientOracle;
//!
//! let oracle = OracleSpec::new("noisy-quadratic", 4).sigma(0.5).build().unwrap();
//! assert_eq!(oracle.dimension(), 4);
//! assert_eq!(oracle.name(), "noisy-quadratic");
//! ```

use crate::{
    Flat, GradientOracle, LinearRegression, Minibatch, MinibatchRegression, NoisyQuadratic,
    RidgeLogistic, SparseQuadratic,
};
use std::sync::Arc;

/// The oracle kinds the registry can build, by canonical name.
#[must_use]
pub fn known_kinds() -> &'static [&'static str] {
    &[
        "noisy-quadratic",
        "sparse-quadratic",
        "linear-regression",
        "ridge-logistic",
        "minibatch-regression",
        "minibatch-sparse",
        "streaming",
        "flat",
    ]
}

/// Error building an oracle from a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleSpecError {
    /// The `kind` string names no registered oracle.
    UnknownKind(String),
    /// The parameters were rejected by the workload constructor.
    Invalid(String),
}

impl std::fmt::Display for OracleSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownKind(kind) => write!(
                f,
                "unknown oracle kind `{kind}` (known: {})",
                known_kinds().join(", ")
            ),
            Self::Invalid(msg) => write!(f, "invalid oracle parameters: {msg}"),
        }
    }
}

impl std::error::Error for OracleSpecError {}

/// Plain-data description of a workload, buildable by name.
///
/// Fields not relevant to a kind are ignored (e.g. `batch` for
/// `noisy-quadratic`), so one spec type covers every oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleSpec {
    /// Canonical kind name (see [`known_kinds`]).
    pub kind: String,
    /// Model dimension `d`.
    pub dim: usize,
    /// Gradient noise σ (quadratics) or label noise (dataset oracles).
    pub sigma: f64,
    /// Dataset size `m` for dataset-backed oracles.
    pub dataset: usize,
    /// Minibatch size `b` for `minibatch-regression`.
    pub batch: usize,
    /// Ridge coefficient λ for `ridge-logistic`.
    pub lambda: f64,
    /// Seed used to generate synthetic datasets (not the run seed).
    pub data_seed: u64,
}

impl OracleSpec {
    /// A spec with sensible defaults: σ = 0.1, m = 500, b = 32, λ = 0.1,
    /// dataset seed `0x5EED`.
    #[must_use]
    pub fn new(kind: impl Into<String>, dim: usize) -> Self {
        Self {
            kind: kind.into(),
            dim,
            sigma: 0.1,
            dataset: 500,
            batch: 32,
            lambda: 0.1,
            data_seed: 0x5EED,
        }
    }

    /// Sets the noise level σ.
    #[must_use]
    pub fn sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// Sets the dataset size `m`.
    #[must_use]
    pub fn dataset(mut self, m: usize) -> Self {
        self.dataset = m;
        self
    }

    /// Sets the minibatch size `b`.
    #[must_use]
    pub fn batch(mut self, b: usize) -> Self {
        self.batch = b;
        self
    }

    /// Sets the ridge coefficient λ.
    #[must_use]
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the synthetic-dataset seed.
    #[must_use]
    pub fn data_seed(mut self, seed: u64) -> Self {
        self.data_seed = seed;
        self
    }

    /// Builds the oracle.
    ///
    /// # Errors
    ///
    /// Returns [`OracleSpecError::UnknownKind`] for unregistered names and
    /// [`OracleSpecError::Invalid`] when the constructor rejects the
    /// parameters.
    pub fn build(&self) -> Result<Arc<dyn GradientOracle>, OracleSpecError> {
        let invalid = |e: &dyn std::fmt::Display| OracleSpecError::Invalid(e.to_string());
        match self.kind.as_str() {
            "noisy-quadratic" => NoisyQuadratic::new(self.dim, self.sigma)
                .map(|o| Arc::new(o) as Arc<dyn GradientOracle>)
                .map_err(|e| invalid(&e)),
            "sparse-quadratic" => SparseQuadratic::uniform(self.dim, 1.0, self.sigma)
                .map(|o| Arc::new(o) as Arc<dyn GradientOracle>)
                .map_err(|e| invalid(&e)),
            "linear-regression" => {
                LinearRegression::synthetic(self.dataset, self.dim, self.sigma, self.data_seed)
                    .map(|o| Arc::new(o) as Arc<dyn GradientOracle>)
                    .map_err(|e| invalid(&e))
            }
            "ridge-logistic" => RidgeLogistic::synthetic(
                self.dataset,
                self.dim,
                self.sigma,
                self.lambda,
                self.data_seed,
            )
            .map(|o| Arc::new(o) as Arc<dyn GradientOracle>)
            .map_err(|e| invalid(&e)),
            "minibatch-regression" => MinibatchRegression::synthetic(
                self.dataset,
                self.dim,
                self.sigma,
                self.batch,
                self.data_seed,
            )
            .map(|o| Arc::new(o) as Arc<dyn GradientOracle>)
            .map_err(|e| invalid(&e)),
            // Δ-sparse gradients averaged in minibatches: the batch keeps
            // the O(b·Δ) update footprint (`batch == 0` is rejected here so
            // the constructor's panic never fires on spec input).
            "minibatch-sparse" => {
                if self.batch == 0 {
                    return Err(OracleSpecError::Invalid(
                        "batch size must be at least 1".to_string(),
                    ));
                }
                SparseQuadratic::uniform(self.dim, 1.0, self.sigma)
                    .map(|o| Arc::new(Minibatch::new(o, self.batch)) as Arc<dyn GradientOracle>)
                    .map_err(|e| invalid(&e))
            }
            // Continual learning: a noisy-quadratic prior behind a bounded
            // drop-oldest ingress queue (`dataset` is reused as the queue
            // capacity). Until observations are pushed through
            // `StreamingOracle::queue`, it behaves exactly like its prior;
            // serving-path callers construct their queue explicitly and
            // wire producers to it (see `asgd-ingest`).
            "streaming" => NoisyQuadratic::new(self.dim, self.sigma)
                .map(|prior| {
                    let queue = crate::streaming::IngressQueue::new(
                        self.dataset,
                        crate::streaming::BackpressurePolicy::DropOldest,
                    );
                    Arc::new(crate::streaming::StreamingOracle::new(
                        Arc::new(prior),
                        queue,
                    )) as Arc<dyn GradientOracle>
                })
                .map_err(|e| invalid(&e)),
            // The inert oracle (`f ≡ 0`): the hold-position prior for
            // streaming models — starved fallback steps become no-ops so
            // live observations alone shape the model (see `crate::Flat`).
            "flat" => Flat::new(self.dim)
                .map(|o| Arc::new(o) as Arc<dyn GradientOracle>)
                .map_err(|e| invalid(&e)),
            other => Err(OracleSpecError::UnknownKind(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_known_kind_builds() {
        // Drift guard: `known_kinds()` is the list CLIs and docs advertise,
        // so every entry must actually construct through `build` at a small
        // dimension — adding an oracle to the match without the list (or
        // vice versa) fails here, not in a user's hands. Default spec
        // parameters must also work: that is what spec-driven callers start
        // from.
        for kind in known_kinds() {
            for spec in [
                OracleSpec::new(*kind, 4),
                OracleSpec::new(*kind, 4).dataset(64).batch(8),
            ] {
                let oracle = spec.build().unwrap_or_else(|e| panic!("{kind}: {e}"));
                assert_eq!(oracle.dimension(), 4, "{kind}");
                let k = oracle.constants(1.0);
                assert!(k.c > 0.0, "{kind}: constants must be positive");
            }
        }
    }

    #[test]
    fn unknown_kind_is_reported_by_name() {
        let err = OracleSpec::new("nope", 2).build().map(|_| ()).unwrap_err();
        assert!(matches!(err, OracleSpecError::UnknownKind(_)));
        let message = err.to_string();
        // The message must name the offending kind (so a typo in a config
        // is findable) and list every known kind (so the fix is, too).
        assert!(message.contains("`nope`"), "{message}");
        for kind in known_kinds() {
            assert!(message.contains(kind), "{message} missing {kind}");
        }
    }

    #[test]
    fn invalid_parameters_are_reported() {
        let err = OracleSpec::new("noisy-quadratic", 2)
            .sigma(-1.0)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, OracleSpecError::Invalid(_)));
    }

    #[test]
    fn builder_setters_apply() {
        let s = OracleSpec::new("ridge-logistic", 3)
            .sigma(0.2)
            .dataset(99)
            .batch(7)
            .lambda(0.5)
            .data_seed(42);
        assert_eq!(
            (s.sigma, s.dataset, s.batch, s.lambda, s.data_seed),
            (0.2, 99, 7, 0.5, 42)
        );
        assert!(s.build().is_ok());
    }
}
