//! Snapshot publication and live reader handles for model serving.
//!
//! The paper's central claim is that the shared iterate stays *useful while
//! training is still mutating it*: inference may read `X` concurrently with
//! the lock-free writers, under exactly the inconsistent-view semantics the
//! adversary is allowed (§2). This module gives external readers two ways
//! into a running executor:
//!
//! * **live reads** through [`ModelReader`] — per-entry atomic loads of the
//!   executing [`ParamStore`], racing the trainers entry
//!   by entry (inconsistent across entries, exactly like a worker's own
//!   view scan);
//! * **coherent snapshots** through [`SnapshotCell`] — an epoch-versioned
//!   double buffer the executor publishes into every
//!   [`ServeHook::publish_stride`] claims; a reader always obtains one
//!   internally consistent vector (for a single trainer thread, an *exact*
//!   trajectory point `x_c`), tagged with the claim index it was taken at.
//!   The tag's age at read time is the *staleness* the serving tiers report
//!   — per-query in `ServeReport`, and as the
//!   `asgd_model_snapshot_staleness` gauge and `asgd_net_serve_staleness`
//!   histogram in the process-wide telemetry registry (`asgd-telemetry`)
//!   served over the wire by the stats-scrape opcode.
//!
//! The cell is a wait-free-for-writers, lock-free-for-readers seqlock over
//! two buffers, built from safe atomics only: publishers bit-store `f64`s
//! into the buffer the current version does *not* expose, then release the
//! next version; readers validate after copying that no publisher has
//! re-entered their buffer (two publishes ahead) and retry otherwise.
//! Publication is pure observation — it never touches the model, the claim
//! counter, or any RNG stream, so an attached serving layer cannot perturb a
//! run's trajectory.
//!
//! The publish/read protocol is model-checked in `asgd-chaos`
//! (`SnapshotModel`): every schedule within a preemption bound is explored
//! for torn snapshots, version regressions, and unbounded reader retries,
//! and a deliberately weakened publish fence is shown to tear — evidence
//! the announce-before-fill ordering below is load-bearing.

use crate::shard::ParamStore;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One published, internally consistent model snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// Publication version (1-based; strictly increasing per cell).
    pub version: u64,
    /// Training progress the snapshot was taken at, **monotone across
    /// versions** (the cell clamps a stalled publisher's tag up to the
    /// previously published one). With one trainer thread this is exactly
    /// the number of updates applied; with several it is the global claim
    /// count at the moment the copy started (in-flight writers may land
    /// mid-copy — the *copy* is coherent, the training point it names is
    /// approximate, as the paper's inconsistent views are, overstating
    /// completed updates by at most the thread count).
    pub iteration: u64,
    /// The snapshot vector.
    pub values: Vec<f64>,
}

/// Epoch-versioned double-buffered snapshot storage.
///
/// Writers publish at most one at a time (a CAS writer latch makes losers
/// skip rather than wait — publication from a training hot loop must never
/// block); readers copy without locking and retry only if two publications
/// completed during their copy.
#[derive(Debug)]
pub struct SnapshotCell {
    /// Last fully published version; `0` means "nothing published yet".
    /// Version `k` lives in buffer `k % 2`.
    seq: AtomicU64,
    /// Version currently (or last) being written. Readers use it to detect
    /// a publisher re-entering the buffer they are copying.
    wseq: AtomicU64,
    /// Publisher exclusivity latch.
    writer: AtomicBool,
    /// The two value buffers (f64 bit patterns).
    bufs: [Box<[AtomicU64]>; 2],
    /// Claim index each buffer's snapshot was taken at.
    iters: [AtomicU64; 2],
}

impl SnapshotCell {
    /// An empty cell for models of dimension `d`.
    #[must_use]
    pub fn new(d: usize) -> Self {
        let buf = || (0..d).map(|_| AtomicU64::new(0)).collect::<Box<[_]>>();
        Self {
            seq: AtomicU64::new(0),
            wseq: AtomicU64::new(0),
            writer: AtomicBool::new(false),
            bufs: [buf(), buf()],
            iters: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Model dimension the cell stores.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.bufs[0].len()
    }

    /// Latest published version (`0` before the first publication).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// True once at least one snapshot has been published.
    #[must_use]
    pub fn has_snapshot(&self) -> bool {
        self.version() != 0
    }

    /// Publishes the model's current state as the next version, tagged with
    /// `iteration` (clamped up to the previous version's tag, so published
    /// tags never regress even when a stalled publisher wins the latch
    /// late), unless another publisher is mid-publication (then the call is
    /// skipped and `None` returned — the next stride boundary will publish
    /// a fresher state anyway). Returns `(version, stored tag)` on success.
    ///
    /// # Panics
    ///
    /// Panics if the model's dimension differs from the cell's.
    pub fn try_publish(&self, model: &ParamStore, iteration: u64) -> Option<(u64, u64)> {
        self.try_publish_notify(model, iteration, |_, _| {})
    }

    /// Like [`SnapshotCell::try_publish`], invoking `notify` with the
    /// published `(version, tag)` **before releasing the writer latch** —
    /// notifications therefore observe versions in strictly increasing
    /// order even when racing publishers alternate (a publisher preempted
    /// between publishing and notifying would otherwise let a later version
    /// notify first). While `notify` runs, concurrent publishers skip
    /// (they never block), so keep it fast.
    ///
    /// # Panics
    ///
    /// Panics if the model's dimension differs from the cell's.
    pub fn try_publish_notify(
        &self,
        model: &ParamStore,
        iteration: u64,
        notify: impl FnOnce(u64, u64),
    ) -> Option<(u64, u64)> {
        assert_eq!(
            model.dimension(),
            self.dimension(),
            "snapshot dimension mismatch"
        );
        if self
            .writer
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        let version = self.seq.load(Ordering::Relaxed) + 1;
        // Monotone tags: under the latch the currently exposed buffer is
        // stable, so its tag is safe to read directly.
        let prev_tag = if version >= 2 {
            self.iters[((version - 1) % 2) as usize].load(Ordering::Relaxed)
        } else {
            0
        };
        let tag = iteration.max(prev_tag);
        // Seqlock write protocol: announce the write target first, fence so
        // any reader that observes one of our buffer stores also observes
        // `wseq >= version` after its own acquire fence, then fill the
        // buffer the current version does not expose.
        self.wseq.store(version, Ordering::Relaxed);
        fence(Ordering::Release);
        let buf = &self.bufs[(version % 2) as usize];
        for (j, slot) in buf.iter().enumerate() {
            slot.store(model.read(j).to_bits(), Ordering::Relaxed);
        }
        self.iters[(version % 2) as usize].store(tag, Ordering::Relaxed);
        // Release: every buffer store above happens-before a reader's
        // acquire load of the new version.
        self.seq.store(version, Ordering::Release);
        notify(version, tag);
        self.writer.store(false, Ordering::Release);
        Some((version, tag))
    }

    /// Copies the latest snapshot into `out` (resized to the model
    /// dimension) and returns its `(version, iteration)` tag, or `None`
    /// before the first publication. Lock-free: retries only if two
    /// publications completed while copying.
    pub fn read_into(&self, out: &mut Vec<f64>) -> Option<(u64, u64)> {
        loop {
            let version = self.seq.load(Ordering::Acquire);
            if version == 0 {
                return None;
            }
            let buf = &self.bufs[(version % 2) as usize];
            out.clear();
            out.extend(
                buf.iter()
                    .map(|slot| f64::from_bits(slot.load(Ordering::Relaxed))),
            );
            let iteration = self.iters[(version % 2) as usize].load(Ordering::Relaxed);
            // Seqlock read validation (see `try_publish`): if any load above
            // observed a store from publication `version + 2k`, the fence
            // pairing guarantees this `wseq` load sees it and we retry.
            fence(Ordering::Acquire);
            if self.wseq.load(Ordering::Relaxed) < version + 2 {
                return Some((version, iteration));
            }
        }
    }

    /// The latest snapshot's `(version, iteration)` tag without copying the
    /// vector — an O(1) staleness probe (`None` before the first
    /// publication). Validated like [`SnapshotCell::read_into`].
    #[must_use]
    pub fn latest_tag(&self) -> Option<(u64, u64)> {
        loop {
            let version = self.seq.load(Ordering::Acquire);
            if version == 0 {
                return None;
            }
            let iteration = self.iters[(version % 2) as usize].load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if self.wseq.load(Ordering::Relaxed) < version + 2 {
                return Some((version, iteration));
            }
        }
    }

    /// Copies the latest snapshot into a fresh [`ModelSnapshot`] (`None`
    /// before the first publication).
    #[must_use]
    pub fn read(&self) -> Option<ModelSnapshot> {
        let mut values = Vec::new();
        let (version, iteration) = self.read_into(&mut values)?;
        Some(ModelSnapshot {
            version,
            iteration,
            values,
        })
    }
}

/// A cloneable handle for reading a (possibly still training) run's model:
/// live per-entry loads, coherent published snapshots, and the training
/// progress counter. Obtained from a [`ServeHook`] once the executor
/// attaches; stays fully usable after the run finishes (the final state is
/// published as the last snapshot, and live reads then see the quiescent
/// final model exactly).
#[derive(Debug, Clone)]
pub struct ModelReader {
    model: Arc<ParamStore>,
    cell: Arc<SnapshotCell>,
    claims: Arc<AtomicU64>,
    budget: u64,
}

impl ModelReader {
    /// Assembles a reader. Executors call this when attaching to a
    /// [`ServeHook`]; services receive the result.
    #[must_use]
    pub fn new(
        model: Arc<ParamStore>,
        cell: Arc<SnapshotCell>,
        claims: Arc<AtomicU64>,
        budget: u64,
    ) -> Self {
        Self {
            model,
            cell,
            claims,
            budget,
        }
    }

    /// Model dimension `d`.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.model.dimension()
    }

    /// Live atomic read of entry `j` — races concurrent trainers, exactly
    /// like one entry of a worker's view scan.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[must_use]
    pub fn read_entry(&self, j: usize) -> f64 {
        self.model.read(j)
    }

    /// Live entry-by-entry scan into `out` — the inconsistent view of
    /// Algorithm 1 line 4, taken by a reader instead of a trainer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the model dimension.
    pub fn read_live(&self, out: &mut [f64]) {
        self.model.read_view(out);
    }

    /// The live shared store, for [`asgd_oracle::ModelView`]-based
    /// per-entry access (e.g. sparse scoring against the training state).
    #[must_use]
    pub fn model(&self) -> &ParamStore {
        &self.model
    }

    /// Shard count of the underlying store.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.model.shard_count()
    }

    /// Reads the per-shard counters of applied updates into `out`, one
    /// count per shard, as an instantaneous cross-shard vector
    /// (double-collect validated — see
    /// [`ParamStore::coherent_update_counts`]); returns whether the collect
    /// validated. Differencing two calls gives each range's update rate;
    /// the counts are not delays (τ).
    pub fn shard_updates(&self, out: &mut Vec<u64>) -> bool {
        self.model.coherent_update_counts(out)
    }

    /// Copies the latest coherent snapshot into `out`, returning its
    /// `(version, iteration)` tag (`None` before the first publication).
    /// Callers that cache by version get O(1) freshness checks via
    /// [`ModelReader::snapshot_version`].
    pub fn snapshot_into(&self, out: &mut Vec<f64>) -> Option<(u64, u64)> {
        self.cell.read_into(out)
    }

    /// The latest coherent snapshot (`None` before the first publication).
    #[must_use]
    pub fn snapshot(&self) -> Option<ModelSnapshot> {
        self.cell.read()
    }

    /// Latest published snapshot version (`0` before the first).
    #[must_use]
    pub fn snapshot_version(&self) -> u64 {
        self.cell.version()
    }

    /// The latest snapshot's `(version, iteration)` tag — an O(1) staleness
    /// probe (`None` before the first publication).
    #[must_use]
    pub fn snapshot_tag(&self) -> Option<(u64, u64)> {
        self.cell.latest_tag()
    }

    /// Training iterations claimed so far, clamped to the run's budget (the
    /// claim counter overshoots by up to one claim per worker at the end of
    /// a run). The staleness of a snapshot taken at iteration `i` is
    /// `iterations() - i`.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.claims.load(Ordering::SeqCst).min(self.budget)
    }

    /// The run's total iteration budget `T`.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

/// Callback invoked after each snapshot publication with
/// `(version, iteration)`.
pub type PublishListener = Box<dyn Fn(u64, u64) + Send + Sync>;

/// The serving attachment point threaded into a native executor through
/// [`RunControl::serve`](crate::RunControl).
///
/// One hook serves one run: the executor calls [`ServeHook::attach`] with a
/// [`ModelReader`] before its workers start and publishes snapshots every
/// [`ServeHook::publish_stride`] claims (plus a final publication of the
/// quiescent model after the workers join — also on cancellation, so the
/// last snapshot always reflects the reported final state). The serving
/// side blocks on [`ServeHook::wait_reader`] and reads from then on.
pub struct ServeHook {
    publish_stride: u64,
    reader: Mutex<Option<ModelReader>>,
    ready: Condvar,
    listener: Mutex<Option<PublishListener>>,
}

impl std::fmt::Debug for ServeHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHook")
            .field("publish_stride", &self.publish_stride)
            .field("attached", &self.reader().is_some())
            .finish_non_exhaustive()
    }
}

/// Locks a mutex, recovering the inner value if a previous holder
/// panicked. The data guarded across the serving stack (a reader slot, a
/// listener, a cached report) has no invariants a panicking holder could
/// break, and serving must keep working even if one listener panicked —
/// exposed so downstream serving layers apply the same policy without
/// re-implementing it.
pub fn lock_recovered<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ServeHook {
    /// A hook publishing every `publish_stride` claims (clamped to ≥ 1).
    #[must_use]
    pub fn new(publish_stride: u64) -> Self {
        Self {
            publish_stride: publish_stride.max(1),
            reader: Mutex::new(None),
            ready: Condvar::new(),
            listener: Mutex::new(None),
        }
    }

    /// Claim-index stride between snapshot publications.
    #[must_use]
    pub fn publish_stride(&self) -> u64 {
        self.publish_stride
    }

    /// True if `claim` is a publication point.
    #[must_use]
    pub fn publishes_at(&self, claim: u64) -> bool {
        claim.is_multiple_of(self.publish_stride)
    }

    /// Installs (replaces) the publication listener. The driver uses this to
    /// forward publications as session events.
    pub fn set_listener(&self, listener: PublishListener) {
        *lock_recovered(&self.listener) = Some(listener);
    }

    /// Executor side: exposes the run's reader and wakes waiting services.
    pub fn attach(&self, reader: ModelReader) {
        *lock_recovered(&self.reader) = Some(reader);
        self.ready.notify_all();
    }

    /// The attached reader, if the executor has started (cloned — readers
    /// are handles).
    #[must_use]
    pub fn reader(&self) -> Option<ModelReader> {
        lock_recovered(&self.reader).clone()
    }

    /// Blocks until the executor attaches (or `timeout` elapses).
    #[must_use]
    pub fn wait_reader(&self, timeout: Duration) -> Option<ModelReader> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock_recovered(&self.reader);
        loop {
            if let Some(reader) = &*slot {
                return Some(reader.clone());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (guard, _) = self
                .ready
                .wait_timeout(slot, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            slot = guard;
        }
    }

    /// Executor side: notifies the listener (if any) that `version` was
    /// published at claim `iteration`.
    pub fn notify_published(&self, version: u64, iteration: u64) {
        if let Some(listener) = &*lock_recovered(&self.listener) {
            listener(version, iteration);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(values: &[f64]) -> Arc<ParamStore> {
        Arc::new(ParamStore::new(values, 1))
    }

    #[test]
    fn empty_cell_has_no_snapshot() {
        let cell = SnapshotCell::new(3);
        assert_eq!(cell.dimension(), 3);
        assert_eq!(cell.version(), 0);
        assert!(!cell.has_snapshot());
        assert_eq!(cell.read(), None);
        assert_eq!(cell.read_into(&mut Vec::new()), None);
    }

    #[test]
    fn publish_and_read_round_trip() {
        let cell = SnapshotCell::new(2);
        let m = model(&[1.5, -2.5]);
        assert_eq!(cell.try_publish(&m, 7), Some((1, 7)));
        let snap = cell.read().expect("published");
        assert_eq!(snap.version, 1);
        assert_eq!(snap.iteration, 7);
        assert_eq!(snap.values, vec![1.5, -2.5]);
        // A second publication lands in the other buffer and supersedes.
        m.write(0, 9.0);
        assert_eq!(cell.try_publish(&m, 8), Some((2, 8)));
        let snap = cell.read().expect("published");
        assert_eq!((snap.version, snap.iteration), (2, 8));
        assert_eq!(snap.values, vec![9.0, -2.5]);
        assert_eq!(cell.latest_tag(), Some((2, 8)));
    }

    #[test]
    fn published_tags_never_regress() {
        // A publisher that stalled between reading its progress and winning
        // the latch must not move the published iteration backwards.
        let cell = SnapshotCell::new(1);
        let m = model(&[0.5]);
        assert_eq!(cell.try_publish(&m, 100), Some((1, 100)));
        assert_eq!(
            cell.try_publish(&m, 40),
            Some((2, 100)),
            "stale tag clamps up to the previous one"
        );
        assert_eq!(cell.try_publish(&m, 140), Some((3, 140)));
        assert_eq!(cell.read().map(|s| s.iteration), Some(140));
    }

    #[test]
    #[should_panic(expected = "snapshot dimension mismatch")]
    fn dimension_mismatch_is_rejected() {
        let cell = SnapshotCell::new(2);
        let m = model(&[1.0, 2.0, 3.0]);
        let _ = cell.try_publish(&m, 0);
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_snapshot() {
        // Publisher alternates between two recognisable vectors; readers
        // must only ever see one of them, never a mix.
        let d = 64;
        let cell = Arc::new(SnapshotCell::new(d));
        let a = model(&vec![1.0; d]);
        let b = model(&vec![-1.0; d]);
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let writer_cell = Arc::clone(&cell);
            let writer_stop = Arc::clone(&stop);
            scope.spawn(move || {
                for i in 0..20_000_u64 {
                    let m = if i % 2 == 0 { &a } else { &b };
                    let _ = writer_cell.try_publish(m, i);
                }
                writer_stop.store(true, Ordering::SeqCst);
            });
            for _ in 0..2 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut buf = Vec::new();
                    let mut seen = 0_u64;
                    let mut last_version = 0;
                    while !stop.load(Ordering::SeqCst) || seen == 0 {
                        let Some((version, iteration)) = cell.read_into(&mut buf) else {
                            continue;
                        };
                        assert!(version >= last_version, "versions are monotone");
                        last_version = version;
                        let first = buf[0];
                        assert!(first == 1.0 || first == -1.0);
                        assert!(
                            buf.iter().all(|&v| v == first),
                            "torn snapshot at version {version} (iteration {iteration})"
                        );
                        seen += 1;
                    }
                });
            }
        });
    }

    #[test]
    fn reader_handle_reads_live_and_snapshots() {
        let m = model(&[2.0, 4.0]);
        let cell = Arc::new(SnapshotCell::new(2));
        let claims = Arc::new(AtomicU64::new(0));
        let reader = ModelReader::new(Arc::clone(&m), Arc::clone(&cell), Arc::clone(&claims), 100);
        assert_eq!(reader.dimension(), 2);
        assert_eq!(reader.read_entry(1), 4.0);
        let mut live = vec![0.0; 2];
        reader.read_live(&mut live);
        assert_eq!(live, vec![2.0, 4.0]);
        assert_eq!(reader.snapshot(), None);
        assert_eq!(reader.snapshot_version(), 0);
        // Live reads track the model; snapshots only move on publication.
        m.fetch_add(0, 1.0);
        claims.fetch_add(5, Ordering::SeqCst);
        assert_eq!(reader.read_entry(0), 3.0);
        assert_eq!(reader.iterations(), 5);
        let _ = cell.try_publish(&m, 5);
        let snap = reader.snapshot().expect("published");
        assert_eq!(snap.values, vec![3.0, 4.0]);
        assert_eq!(reader.snapshot_version(), 1);
        // The claim counter clamps to the budget.
        claims.store(10_000, Ordering::SeqCst);
        assert_eq!(reader.iterations(), 100);
        assert_eq!(reader.budget(), 100);
        // The model is reachable for ModelView-style access.
        assert_eq!(asgd_oracle::ModelView::entry(reader.model(), 1), 4.0);
    }

    #[test]
    fn reader_exposes_shard_progress() {
        let flat = model(&[1.0, 2.0]);
        flat.fetch_add(1, 1.0);
        let flat_reader = ModelReader::new(
            Arc::clone(&flat),
            Arc::new(SnapshotCell::new(2)),
            Arc::new(AtomicU64::new(0)),
            10,
        );
        assert_eq!(flat_reader.shard_count(), 1);
        let mut counts = Vec::new();
        assert!(flat_reader.shard_updates(&mut counts), "quiescent");
        assert_eq!(counts, vec![1]);

        let sharded = Arc::new(ParamStore::zeros(8, 4));
        sharded.fetch_add(0, 1.0);
        sharded.fetch_add(7, 1.0);
        let reader = ModelReader::new(
            Arc::clone(&sharded),
            Arc::new(SnapshotCell::new(8)),
            Arc::new(AtomicU64::new(0)),
            10,
        );
        assert_eq!(reader.shard_count(), 4);
        assert!(reader.shard_updates(&mut counts), "quiescent");
        assert_eq!(counts, vec![1, 0, 0, 1]);
    }

    #[test]
    fn hook_attach_wakes_waiters_and_notifies_listener() {
        let hook = Arc::new(ServeHook::new(0));
        assert_eq!(hook.publish_stride(), 1, "stride clamps to 1");
        assert!(hook.publishes_at(0) && hook.publishes_at(5));
        assert!(ServeHook::new(4).publishes_at(8));
        assert!(!ServeHook::new(4).publishes_at(6));
        assert!(hook.reader().is_none());
        let waiter = Arc::clone(&hook);
        let handle = std::thread::spawn(move || {
            waiter
                .wait_reader(Duration::from_secs(10))
                .expect("attached")
                .dimension()
        });
        let published = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&published);
        hook.set_listener(Box::new(move |version, iteration| {
            sink.lock().unwrap().push((version, iteration));
        }));
        let m = model(&[0.0; 3]);
        let cell = Arc::new(SnapshotCell::new(3));
        hook.attach(ModelReader::new(
            Arc::clone(&m),
            Arc::clone(&cell),
            Arc::new(AtomicU64::new(0)),
            10,
        ));
        assert_eq!(handle.join().unwrap(), 3);
        let (version, tag) = cell.try_publish(&m, 4).expect("no contention");
        hook.notify_published(version, tag);
        assert_eq!(*published.lock().unwrap(), vec![(1, 4)]);
        assert!(format!("{hook:?}").contains("attached: true"));
    }

    #[test]
    fn wait_reader_times_out_cleanly() {
        let hook = ServeHook::new(8);
        assert!(hook.wait_reader(Duration::from_millis(10)).is_none());
    }
}
