//! [`ModelRegistry`] — many named training runs served concurrently.
//!
//! [`ModelService`] owns *one* run; the registry
//! generalises it to a multi-tenant host: models are **created** under a
//! unique name, **addressed** by a compact numeric [`ModelId`] (what the
//! wire protocol puts in request frames), and **dropped** when their
//! traffic goes away. Every hosted run is submitted through one shared
//! [`Driver`], and each model carries its own [`ReadMode`] — a registry can
//! serve a live-read model next to a snapshot-read one.
//!
//! Lookup after drop is a typed error ([`ServeError::NoSuchModelId`] /
//! [`ServeError::NoSuchModel`]), never a panic: a front-end keeps answering
//! queries for the models that still exist while one tenant churns.
//! Handles obtained *before* a drop stay readable (the underlying
//! [`ModelReader`](asgd_driver::ModelReader) outlives the run); the drop
//! cancels training and unpublishes the name and id.
//!
//! The create/query/drop lifecycle is model-checked in `asgd-chaos`
//! (`RegistryModel`): the lock-recheck-insert shape used by `create` keeps
//! both name→id and id→entry maps coherent on every bounded-preemption
//! schedule, while a split check-then-insert variant is caught orphaning
//! an entry with a single preemption.

use crate::error::ServeError;
use crate::service::ModelService;
use crate::spec::ReadMode;
use asgd_driver::{Driver, DriverError, RunReport, RunSpec};
use asgd_hogwild::snapshot::lock_recovered;
use asgd_oracle::{BackpressurePolicy, IngressQueue, StreamingOracle};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Longest accepted model name, in bytes. The wire protocol's model-stats
/// frame carries names behind a `u16` length, but practical names are
/// short; the cap keeps hostile create calls from bloating the registry.
pub const MAX_MODEL_NAME_LEN: usize = 255;

/// Compact identifier of a hosted model — the address request frames carry.
/// Ids are assigned once, increase monotonically, and are never reused, so
/// a query racing a drop/create cycle can never silently hit the *wrong*
/// model: a stale id is a typed error, not a different tenant's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(pub u32);

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model#{}", self.0)
    }
}

/// A point-in-time statistics snapshot of one hosted model (the payload of
/// the wire protocol's model-stats response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    /// The model's registry id.
    pub id: u32,
    /// The model's unique name.
    pub name: String,
    /// Model dimension `d`.
    pub dim: u64,
    /// How queries read this model.
    pub mode: ReadMode,
    /// Training iterations claimed so far.
    pub iterations: u64,
    /// Snapshot versions published so far.
    pub snapshots: u64,
    /// True once the training run finished (normally or cancelled).
    pub finished: bool,
    /// Staleness of the latest published snapshot, in training iterations
    /// (`iterations − published_at`; `None` before the first publication).
    pub staleness: Option<u64>,
    /// Per-shard counters of applied updates, one per shard of the store
    /// (differenced between calls they give each range's update rate; they
    /// are not delays τ).
    pub shard_updates: Vec<u64>,
}

/// One hosted model: its identity plus the [`ModelService`] that owns the
/// training run.
pub struct ModelEntry {
    id: ModelId,
    name: String,
    mode: ReadMode,
    service: ModelService,
    /// The live ingress queue for streaming models (`None` for models
    /// trained purely on their spec-built workload). Submit-observe
    /// traffic lands here.
    ingress: Option<IngressQueue>,
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("service", &self.service)
            .field("ingress", &self.ingress.is_some())
            .finish()
    }
}

impl ModelEntry {
    /// The registry id queries address this model by.
    #[must_use]
    pub fn id(&self) -> ModelId {
        self.id
    }

    /// The unique name the model was created under.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How queries read this model (fixed at creation).
    #[must_use]
    pub fn mode(&self) -> ReadMode {
        self.mode
    }

    /// The serving service owning the training run.
    #[must_use]
    pub fn service(&self) -> &ModelService {
        &self.service
    }

    /// The model's live ingress queue (`None` unless created through
    /// [`ModelRegistry::create_streaming`]). Pushing an
    /// [`Observation`](asgd_oracle::Observation) here feeds the trainer's
    /// [`StreamingOracle`] directly.
    #[must_use]
    pub fn ingress(&self) -> Option<&IngressQueue> {
        self.ingress.as_ref()
    }

    /// A point-in-time statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> ModelStats {
        let reader = self.service.reader();
        let iterations = reader.iterations();
        // (version, iteration) of the latest snapshot; staleness is how far
        // training has advanced past the published point.
        let staleness = reader
            .snapshot_tag()
            .map(|(_, at)| iterations.saturating_sub(at));
        // A torn (unvalidated) collect is still per-counter atomic; stats
        // report it either way.
        let mut shard_updates = Vec::new();
        let _ = reader.shard_updates(&mut shard_updates);
        ModelStats {
            id: self.id.0,
            name: self.name.clone(),
            dim: reader.dimension() as u64,
            mode: self.mode,
            iterations,
            snapshots: reader.snapshot_version(),
            finished: self.service.is_finished(),
            staleness,
            shard_updates,
        }
    }
}

/// The name/id maps behind one mutex: every mutation (create, drop) swaps
/// both maps atomically, so a name and its id can never disagree.
#[derive(Default)]
struct Inner {
    by_name: HashMap<String, ModelId>,
    by_id: HashMap<u32, Arc<ModelEntry>>,
    next_id: u32,
}

/// A multi-tenant model host: named concurrent training runs sharing one
/// [`Driver`], each served under its own [`ReadMode`].
pub struct ModelRegistry {
    driver: Driver,
    inner: Mutex<Inner>,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_recovered(&self.inner);
        f.debug_struct("ModelRegistry")
            .field("models", &inner.by_id.len())
            .field("next_id", &inner.next_id)
            .finish_non_exhaustive()
    }
}

impl ModelRegistry {
    /// An empty registry with its own [`Driver`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_driver(Driver::new())
    }

    /// An empty registry submitting every hosted run through `driver`.
    #[must_use]
    pub fn with_driver(driver: Driver) -> Self {
        Self {
            driver,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Creates (and starts training) a model under a unique `name`.
    ///
    /// Live-mode models skip strided snapshot publication entirely (the
    /// stride is forced to `u64::MAX`, leaving only the claim-0 and final
    /// publications), exactly like `ServeSpec::run` — live queries never
    /// consume snapshots, so trainers must not pay the strided O(d) copy.
    ///
    /// Duplicate-name races are safe: the service is started *before* the
    /// name is claimed, and the loser of a race (or a straight duplicate)
    /// has its just-started run cancelled before the error returns.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateModel`] when the name is taken,
    /// [`ServeError::InvalidSpec`] for an empty or over-long name, plus
    /// everything [`ModelService::start`] can return.
    pub fn create(
        &self,
        name: &str,
        train: &RunSpec,
        mode: ReadMode,
        publish_stride: u64,
    ) -> Result<ModelId, ServeError> {
        self.create_inner(name, train, mode, publish_stride, None)
    }

    /// Creates a **streaming** model: training consumes live labeled
    /// observations from a fresh bounded [`IngressQueue`] (capacity and
    /// backpressure policy given here) through a [`StreamingOracle`], and
    /// falls back to the spec-built workload (the *prior*) whenever the
    /// queue is starved — so the trainer never stalls waiting for traffic.
    ///
    /// The queue is reachable from the returned entry via
    /// [`ModelEntry::ingress`]; the wire protocol's submit-observe opcode
    /// routes into it. Predict queries keep evaluating against a held-out
    /// prior instance, never the live stream.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ModelRegistry::create`].
    pub fn create_streaming(
        &self,
        name: &str,
        train: &RunSpec,
        mode: ReadMode,
        publish_stride: u64,
        capacity: usize,
        policy: BackpressurePolicy,
    ) -> Result<ModelId, ServeError> {
        let prior = train.oracle.build().map_err(DriverError::from)?;
        let queue = IngressQueue::new(capacity, policy);
        let oracle: Arc<dyn asgd_oracle::GradientOracle> =
            Arc::new(StreamingOracle::new(prior, queue.clone()));
        self.create_inner(name, train, mode, publish_stride, Some((oracle, queue)))
    }

    fn create_inner(
        &self,
        name: &str,
        train: &RunSpec,
        mode: ReadMode,
        publish_stride: u64,
        streaming: Option<(Arc<dyn asgd_oracle::GradientOracle>, IngressQueue)>,
    ) -> Result<ModelId, ServeError> {
        if name.is_empty() {
            return Err(ServeError::InvalidSpec(
                "model name must not be empty".to_string(),
            ));
        }
        if name.len() > MAX_MODEL_NAME_LEN {
            return Err(ServeError::InvalidSpec(format!(
                "model name exceeds {MAX_MODEL_NAME_LEN} bytes ({} given)",
                name.len()
            )));
        }
        // Fast-path duplicate check without starting a run; the
        // authoritative check re-runs under the lock below.
        if self.resolve(name).is_some() {
            return Err(ServeError::DuplicateModel(name.to_string()));
        }
        let stride = match mode {
            ReadMode::Snapshot => publish_stride,
            ReadMode::Live => u64::MAX,
        };
        let (train_oracle, ingress) = match streaming {
            Some((oracle, queue)) => (Some(oracle), Some(queue)),
            None => (None, None),
        };
        let service =
            ModelService::start_with_oracle(&self.driver, train, stride, None, train_oracle)?;
        let mut inner = lock_recovered(&self.inner);
        if inner.by_name.contains_key(name) {
            // Lost a create race: tear the fresh run down outside the maps.
            drop(inner);
            let _ = service.stop();
            // A raced streaming queue dies with its run: close it so any
            // producer already holding a clone gets a typed error instead
            // of feeding a cancelled trainer.
            if let Some(queue) = &ingress {
                queue.close();
            }
            return Err(ServeError::DuplicateModel(name.to_string()));
        }
        let id = ModelId(inner.next_id);
        inner.next_id += 1;
        let entry = Arc::new(ModelEntry {
            id,
            name: name.to_string(),
            mode,
            service,
            ingress,
        });
        inner.by_name.insert(name.to_string(), id);
        inner.by_id.insert(id.0, entry);
        Ok(id)
    }

    /// Resolves a name to its id (`None` when absent).
    #[must_use]
    pub fn resolve(&self, name: &str) -> Option<ModelId> {
        lock_recovered(&self.inner).by_name.get(name).copied()
    }

    /// The entry addressed by `id`.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchModelId`] when no live model has this id
    /// (never created, or already dropped).
    pub fn lookup(&self, id: ModelId) -> Result<Arc<ModelEntry>, ServeError> {
        lock_recovered(&self.inner)
            .by_id
            .get(&id.0)
            .cloned()
            .ok_or(ServeError::NoSuchModelId(id.0))
    }

    /// The entry named `name`.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchModel`] when the name is not registered.
    pub fn attach(&self, name: &str) -> Result<Arc<ModelEntry>, ServeError> {
        let inner = lock_recovered(&self.inner);
        let id = inner
            .by_name
            .get(name)
            .ok_or_else(|| ServeError::NoSuchModel(name.to_string()))?;
        Ok(Arc::clone(
            inner
                .by_id
                .get(&id.0)
                .expect("name and id maps mutate together"),
        ))
    }

    /// Every live entry, in id order.
    #[must_use]
    pub fn list(&self) -> Vec<Arc<ModelEntry>> {
        let inner = lock_recovered(&self.inner);
        let mut entries: Vec<_> = inner.by_id.values().cloned().collect();
        entries.sort_by_key(|e| e.id);
        entries
    }

    /// Number of live models.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_recovered(&self.inner).by_id.len()
    }

    /// True when no model is hosted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        lock_recovered(&self.inner).by_id.is_empty()
    }

    /// Drops the model named `name`: unpublishes the name and id first
    /// (new lookups fail immediately with a typed error), then cancels its
    /// training run and waits for the (partial) report. Readers attached
    /// before the drop stay usable — they observe the cancelled run's
    /// final published state.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchModel`] when the name is not registered,
    /// [`ServeError::Driver`] when the run itself failed.
    pub fn drop_model(&self, name: &str) -> Result<RunReport, ServeError> {
        let entry = {
            let mut inner = lock_recovered(&self.inner);
            let id = inner
                .by_name
                .remove(name)
                .ok_or_else(|| ServeError::NoSuchModel(name.to_string()))?;
            inner
                .by_id
                .remove(&id.0)
                .expect("name and id maps mutate together")
        };
        // Close the ingress first so producers holding queue clones fail
        // with a typed error instead of feeding a cancelled trainer.
        if let Some(queue) = &entry.ingress {
            queue.close();
        }
        entry.service.stop().map_err(ServeError::Driver)
    }

    /// Drops every model, returning `(name, outcome)` pairs in id order.
    /// The registry is empty afterwards.
    pub fn shutdown(&self) -> Vec<(String, Result<RunReport, DriverError>)> {
        let entries = {
            let mut inner = lock_recovered(&self.inner);
            let mut entries: Vec<_> = inner.by_id.drain().map(|(_, e)| e).collect();
            inner.by_name.clear();
            entries.sort_by_key(|e| e.id);
            entries
        };
        entries
            .into_iter()
            .map(|e| {
                if let Some(queue) = &e.ingress {
                    queue.close();
                }
                (e.name.clone(), e.service.stop())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_driver::BackendKind;
    use asgd_oracle::OracleSpec;

    fn train(dim: usize) -> RunSpec {
        RunSpec::new(
            OracleSpec::new("noisy-quadratic", dim).sigma(0.1),
            BackendKind::Hogwild,
        )
        .threads(1)
        .iterations(20_000)
        .learning_rate(0.02)
        .x0(vec![1.0; dim])
        .seed(3)
    }

    #[test]
    fn create_lookup_drop_lifecycle() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        let a = registry
            .create("ranker", &train(4), ReadMode::Snapshot, 128)
            .expect("creates");
        let b = registry
            .create("scorer", &train(6), ReadMode::Live, 128)
            .expect("creates");
        assert_ne!(a, b);
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.resolve("ranker"), Some(a));
        assert_eq!(registry.lookup(a).unwrap().name(), "ranker");
        assert_eq!(registry.attach("scorer").unwrap().id(), b);
        assert_eq!(registry.attach("scorer").unwrap().mode(), ReadMode::Live);
        let stats: Vec<ModelStats> = registry.list().iter().map(|e| e.stats()).collect();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "ranker");
        assert_eq!(stats[0].dim, 4);
        assert_eq!(stats[1].dim, 6);
        // Dropping cancels the trainer, which may not have stepped yet on a
        // loaded machine. Wait (bounded) until it has claimed twice: its
        // single worker claims again only after finishing a step, so the
        // report then counts at least one iteration.
        let trainer = registry.lookup(a).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while trainer.stats().iterations < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(trainer);
        let report = registry.drop_model("ranker").expect("drops");
        assert!(report.iterations > 0);
        assert_eq!(registry.len(), 1);
        // Dropped addresses are typed errors, and ids are never reused.
        assert!(matches!(
            registry.lookup(a),
            Err(ServeError::NoSuchModelId(id)) if id == a.0
        ));
        assert!(matches!(
            registry.drop_model("ranker"),
            Err(ServeError::NoSuchModel(_))
        ));
        let c = registry
            .create("ranker", &train(4), ReadMode::Snapshot, 128)
            .expect("name free again after drop");
        assert!(c.0 > b.0, "ids increase monotonically, no reuse");
        for (name, outcome) in registry.shutdown() {
            outcome.unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(registry.is_empty());
    }

    #[test]
    fn duplicate_and_invalid_names_are_rejected() {
        let registry = ModelRegistry::new();
        registry
            .create("m", &train(4), ReadMode::Snapshot, 64)
            .expect("creates");
        assert!(matches!(
            registry.create("m", &train(4), ReadMode::Snapshot, 64),
            Err(ServeError::DuplicateModel(name)) if name == "m"
        ));
        assert!(matches!(
            registry.create("", &train(4), ReadMode::Snapshot, 64),
            Err(ServeError::InvalidSpec(_))
        ));
        let long = "x".repeat(MAX_MODEL_NAME_LEN + 1);
        assert!(matches!(
            registry.create(&long, &train(4), ReadMode::Snapshot, 64),
            Err(ServeError::InvalidSpec(_))
        ));
        assert_eq!(registry.len(), 1);
        registry.shutdown();
    }

    #[test]
    fn live_mode_models_skip_strided_publication() {
        let registry = ModelRegistry::new();
        let id = registry
            .create("live", &train(4), ReadMode::Live, 64)
            .expect("creates");
        let entry = registry.lookup(id).unwrap();
        assert_eq!(entry.service().hook().publish_stride(), u64::MAX);
        registry.shutdown();
    }

    #[test]
    fn streaming_models_expose_a_live_ingress_queue() {
        use asgd_oracle::Observation;
        let registry = ModelRegistry::new();
        let spec = train(4).iterations(200_000);
        let id = registry
            .create_streaming(
                "stream",
                &spec,
                ReadMode::Live,
                64,
                32,
                BackpressurePolicy::Block,
            )
            .expect("creates");
        let entry = registry.lookup(id).unwrap();
        let queue = entry.ingress().expect("streaming entries carry a queue");
        assert_eq!(queue.capacity(), 32);
        // Observations pushed here are consumed by the live trainer.
        for _ in 0..16 {
            queue
                .push(Observation::new(vec![(0, 1.0), (2, -0.5)], 0.25))
                .expect("queue open");
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while queue.counters().popped() < 16 {
            assert!(
                std::time::Instant::now() < deadline,
                "trainer never drained"
            );
            std::thread::yield_now();
        }
        // Non-streaming entries have no ingress.
        let plain = registry
            .create("plain", &train(4), ReadMode::Snapshot, 64)
            .expect("creates");
        assert!(registry.lookup(plain).unwrap().ingress().is_none());
        // Dropping the streaming model closes its queue: producer clones
        // fail typed instead of feeding a cancelled trainer.
        let producer = queue.clone();
        registry.drop_model("stream").expect("drops");
        assert!(matches!(
            producer.push(Observation::new(vec![(0, 1.0)], 0.0)),
            Err(asgd_oracle::IngressError::Closed)
        ));
        registry.shutdown();
    }

    #[test]
    fn readers_survive_a_drop() {
        let registry = ModelRegistry::new();
        let id = registry
            .create("m", &train(4), ReadMode::Snapshot, 64)
            .expect("creates");
        let entry = registry.lookup(id).unwrap();
        let reader = entry.service().reader();
        let report = registry.drop_model("m").expect("drops");
        // The pre-drop handle still reads the final published state.
        let snap = reader.snapshot().expect("final publication");
        assert_eq!(snap.values, report.final_model);
        let mut live = vec![0.0; 4];
        reader.read_live(&mut live);
        assert_eq!(live, report.final_model);
    }
}
