//! The telemetry registry's padded-cell coherent-collect protocol
//! (`MetricsRegistry::snapshot` in `asgd-telemetry`) as an explorable step
//! function — the registry-wide generalisation of
//! [`ShardedCounterModel`](crate::sharded_model::ShardedCounterModel).
//!
//! A telemetry counter stripes its updates over cache-line-padded cells
//! (one per writer thread); the registry snapshot assembles a cross-metric
//! state by reading every monotone cell of every counter, one atomic load
//! at a time. Exactly like the sharded store's progress vector, the *cut*
//! across cells can be torn: counter A's cell read before a burst, counter
//! B's after, yielding per-metric totals the registry never simultaneously
//! held. The shipped snapshot repairs this with double-collect validation
//! — collect every cell, collect again, and only flag the snapshot
//! `coherent` when a whole validation pass observes no movement — and then
//! **derives the published totals from the validated collect itself**.
//! That last clause matters: a reader that validates but then re-reads the
//! cells to build its totals re-opens the race it just closed (movement
//! between the validated instant and the re-read goes out flagged
//! coherent). [`CollectMode::Validated`] models the shipped protocol. Two
//! deliberately seeded bug twins break it, and the explorer tears each
//! with a single adversarial preemption and minimizes it to a replayable
//! trace: [`CollectMode::SinglePass`] publishes its first collect as
//! coherent with no validation pass, and
//! [`CollectMode::ReReadAfterValidation`] validates but then publishes a
//! fresh re-read, as a snapshot that re-reads histogram buckets after
//! validating only their counts would.
//!
//! Invariants, checked after every atomic step:
//!
//! * **Coherence**: per-metric totals published as coherent must equal an
//!   instantaneous totals state the cells actually passed through;
//! * **Monotone reads**: every collected cell is ≤ its live value (reads
//!   never invent progress), and the live totals always equal the bump
//!   history's last state;
//! * **Honest failure**: a publish flagged *incoherent* (validation
//!   retries exhausted) is allowed to be torn — the flag, not the vector,
//!   is the contract.

use crate::explore::{Schedulable, StepStatus};

/// Atomicity the modeled snapshot claims for its collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectMode {
    /// The shipped protocol: collect every cell, re-collect until a whole
    /// validation pass observes no movement (bounded retries; exhaustion
    /// publishes the last collect flagged incoherent), and derive the
    /// published totals from the validated collect.
    Validated,
    /// Seeded bug: the first per-cell collect is published as coherent
    /// with no validation pass.
    SinglePass,
    /// Seeded bug: the collect validates, but the published totals come
    /// from a second per-cell read taken after validation, flagged
    /// coherent.
    ReReadAfterValidation,
}

/// Model parameters: `writers × bumps_each` striped counter bumps against
/// one snapshot reader assembling cross-metric totals.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryCellModel {
    /// Registered counters (the metrics whose totals the snapshot
    /// publishes).
    pub metrics: usize,
    /// Padded cells per counter (the model's `STRIPES`).
    pub stripes: usize,
    /// Concurrent writer threads; writer `t` always bumps stripe
    /// `t % stripes`, like the registry's per-thread stripe assignment.
    pub writers: usize,
    /// Bumps each writer applies, rotating through metrics from metric 0
    /// (the cross-metric spread that tears a single-pass collect).
    pub bumps_each: usize,
    /// Validation passes the reader may retry beyond the first (the
    /// model's `COHERENT_RETRIES`).
    pub retries: usize,
    /// Collect atomicity under test.
    pub collect_mode: CollectMode,
}

impl TelemetryCellModel {
    /// The headline race: one writer bumping two different counters while
    /// the reader assembles its totals. One adversarial preemption between
    /// the reader's two cell loads tears the [`CollectMode::SinglePass`]
    /// twin's published snapshot.
    #[must_use]
    pub fn contended(collect_mode: CollectMode) -> Self {
        Self {
            metrics: 2,
            stripes: 1,
            writers: 1,
            bumps_each: 2,
            retries: 2,
            collect_mode,
        }
    }

    /// A deeper configuration: two writers on distinct stripes keep both
    /// counters moving, so the validation-retry and exhaustion paths are
    /// actually exercised across a 2×2 cell matrix.
    #[must_use]
    pub fn churning(collect_mode: CollectMode) -> Self {
        Self {
            metrics: 2,
            stripes: 2,
            writers: 2,
            bumps_each: 2,
            retries: 2,
            collect_mode,
        }
    }

    /// Cells in the registry: `metrics × stripes`, row-major by metric.
    fn cells(&self) -> usize {
        self.metrics * self.stripes
    }

    /// Per-metric totals of a row-major cell vector.
    fn totals(&self, cells: &[u64]) -> Vec<u64> {
        cells.chunks(self.stripes).map(|c| c.iter().sum()).collect()
    }
}

/// Where the reader is in its collect/validate program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReaderPc {
    /// Initial collect, next reading cell `i`.
    Collect(usize),
    /// Validation pass, next re-reading cell `i`; `stable` is true while
    /// no re-read of this pass has observed movement.
    Validate { i: usize, stable: bool },
    /// After a stable validation ([`CollectMode::ReReadAfterValidation`]
    /// only), next re-reading cell `i` into the published totals.
    ReRead(usize),
}

/// Published per-metric totals plus the coherence the reader claimed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Published {
    totals: Vec<u64>,
    coherent: bool,
}

/// The modeled cells plus every thread's control state.
#[derive(Debug, Clone)]
pub struct TelemetryCellState {
    /// Live cells, row-major by metric (`metric × stripes + stripe`).
    cells: Vec<u64>,
    /// Every instantaneous per-metric totals state, in order — bumps are
    /// the only mutations and each changes exactly one total, so this is
    /// the exact set of totals the registry passed through.
    history: Vec<Vec<u64>>,
    /// Bumps applied by each writer so far.
    bumps_done: Vec<usize>,
    reader_pc: ReaderPc,
    /// The reader's in-progress per-cell collect.
    collect: Vec<u64>,
    retries_left: usize,
    published: Option<Published>,
}

impl Schedulable for TelemetryCellModel {
    type State = TelemetryCellState;

    fn init(&self) -> TelemetryCellState {
        TelemetryCellState {
            cells: vec![0; self.cells()],
            history: vec![vec![0; self.metrics]],
            bumps_done: vec![0; self.writers],
            reader_pc: ReaderPc::Collect(0),
            collect: Vec::new(),
            retries_left: self.retries,
            published: None,
        }
    }

    fn thread_count(&self) -> usize {
        self.writers + 1
    }

    fn step(&self, state: &mut TelemetryCellState, tid: usize) -> StepStatus {
        if tid < self.writers {
            self.writer_step(state, tid)
        } else {
            self.reader_step(state)
        }
    }

    fn check(&self, state: &TelemetryCellState, _done: bool) -> Result<(), String> {
        // The live totals are, by construction, the last recorded state; a
        // mismatch is a model bug, caught loudly.
        let live = self.totals(&state.cells);
        if state.history.last() != Some(&live) {
            return Err(format!(
                "history desynchronised: live {:?} vs recorded {:?}",
                live,
                state.history.last()
            ));
        }
        // Monotone reads: a collected cell can never exceed its live value
        // (cells only go up after the read).
        for (i, &v) in state.collect.iter().enumerate() {
            if v > state.cells[i] {
                return Err(format!(
                    "collect invented progress: cell {i} read {v} > live {}",
                    state.cells[i]
                ));
            }
        }
        if let Some(p) = &state.published {
            if p.totals.len() != self.metrics {
                return Err(format!(
                    "published {} totals for {} metrics",
                    p.totals.len(),
                    self.metrics
                ));
            }
            // The invariant the seeded twin breaks: coherent-flagged
            // totals must be a state the registry simultaneously held.
            if p.coherent && !state.history.contains(&p.totals) {
                return Err(format!(
                    "torn snapshot published as coherent: {:?} was never an \
                     instantaneous totals state (history {:?})",
                    p.totals, state.history
                ));
            }
        }
        Ok(())
    }
}

impl TelemetryCellModel {
    fn writer_step(&self, state: &mut TelemetryCellState, tid: usize) -> StepStatus {
        // Bumps rotate through metrics from metric 0 on the writer's own
        // stripe — the cross-metric spread that tears a single-pass read.
        let metric = state.bumps_done[tid] % self.metrics;
        let stripe = tid % self.stripes;
        state.cells[metric * self.stripes + stripe] += 1;
        let totals = self.totals(&state.cells);
        state.history.push(totals);
        state.bumps_done[tid] += 1;
        if state.bumps_done[tid] == self.bumps_each {
            StepStatus::Done
        } else {
            StepStatus::Runnable
        }
    }

    fn reader_step(&self, state: &mut TelemetryCellState) -> StepStatus {
        match state.reader_pc {
            ReaderPc::Collect(i) => {
                state.collect.push(state.cells[i]);
                if i + 1 < self.cells() {
                    state.reader_pc = ReaderPc::Collect(i + 1);
                    return StepStatus::Runnable;
                }
                match self.collect_mode {
                    CollectMode::SinglePass => {
                        // The seeded bug: the first collect goes out as
                        // coherent — no pass ever validated the cut.
                        self.publish(state, true)
                    }
                    CollectMode::Validated | CollectMode::ReReadAfterValidation => {
                        state.reader_pc = ReaderPc::Validate { i: 0, stable: true };
                        StepStatus::Runnable
                    }
                }
            }
            ReaderPc::Validate { i, stable } => {
                let again = state.cells[i];
                let stable = stable && again == state.collect[i];
                state.collect[i] = again;
                if i + 1 < self.cells() {
                    state.reader_pc = ReaderPc::Validate { i: i + 1, stable };
                    return StepStatus::Runnable;
                }
                if stable && self.collect_mode == CollectMode::ReReadAfterValidation {
                    // The seeded bug: the pinned collect is thrown away
                    // and the totals are read afresh.
                    state.reader_pc = ReaderPc::ReRead(0);
                    StepStatus::Runnable
                } else if stable {
                    // A whole pass saw no movement: monotone cells pin
                    // every entry through the instant between the passes,
                    // and the totals are derived from that pinned collect.
                    self.publish(state, true)
                } else if state.retries_left == 0 {
                    // Honest failure: the last collect, flagged torn.
                    self.publish(state, false)
                } else {
                    state.retries_left -= 1;
                    state.reader_pc = ReaderPc::Validate { i: 0, stable: true };
                    StepStatus::Runnable
                }
            }
            ReaderPc::ReRead(i) => {
                state.collect[i] = state.cells[i];
                if i + 1 < self.cells() {
                    state.reader_pc = ReaderPc::ReRead(i + 1);
                    StepStatus::Runnable
                } else {
                    self.publish(state, true)
                }
            }
        }
    }

    fn publish(&self, state: &mut TelemetryCellState, coherent: bool) -> StepStatus {
        state.published = Some(Published {
            totals: self.totals(&state.collect),
            coherent,
        });
        StepStatus::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{replay, Explorer, ReplayOutcome};

    #[test]
    fn the_shipped_validated_collect_verifies_under_churn() {
        let model = TelemetryCellModel::churning(CollectMode::Validated);
        let report = Explorer::with_bound(2).explore(&model);
        assert!(report.verified(), "{:?}", report.counterexample);
        assert!(report.schedules > 50, "exhaustiveness: {report:?}");
    }

    #[test]
    fn single_pass_publishes_torn_totals_and_the_trace_replays_identically() {
        let model = TelemetryCellModel::contended(CollectMode::SinglePass);
        let report = Explorer::with_bound(2).explore(&model);
        let cex = report.counterexample.expect("single pass must tear");
        assert!(
            cex.violation.message.contains("torn snapshot"),
            "{:?}",
            cex.violation
        );
        // The classic torn cut needs exactly one adversarial preemption:
        // the writer's cross-metric burst lands between two of the
        // reader's cell loads.
        assert_eq!(cex.preemptions, 1, "{cex:?}");
        match replay(&model, &cex.trace) {
            Err(ReplayOutcome::Violation(v)) => assert_eq!(v, cex.violation),
            other => panic!("minimized trace must reproduce the tear, got {other:?}"),
        }
        // And the artifact text round-trips to the same trace.
        let decoded = asgd_shmem::sched::decode_schedule(&cex.artifact()).expect("artifact parses");
        assert_eq!(decoded, cex.trace);
    }

    #[test]
    fn single_pass_is_safe_with_a_single_bump() {
        // One bump mutates one total once, so any assembled totals vector
        // equals the before- or after-state — sanity that the model only
        // reports real torn cuts, not every interleaving.
        let model = TelemetryCellModel {
            metrics: 2,
            stripes: 1,
            writers: 1,
            bumps_each: 1,
            retries: 2,
            collect_mode: CollectMode::SinglePass,
        };
        let report = Explorer::with_bound(3).explore(&model);
        assert!(report.verified(), "{:?}", report.counterexample);
    }

    #[test]
    fn striping_isolates_writers_but_not_the_cut() {
        // Two writers on distinct stripes never touch the same cell — the
        // padding discipline — yet a single-pass collect across the 2×2
        // matrix still tears, because isolation of *writes* does nothing
        // for the atomicity of a multi-cell *read*.
        let model = TelemetryCellModel::churning(CollectMode::SinglePass);
        let report = Explorer::with_bound(2).explore(&model);
        let cex = report
            .counterexample
            .expect("striping must not save a single-pass read");
        assert!(cex.violation.message.contains("torn snapshot"));
    }

    #[test]
    fn exhausted_retries_publish_the_last_collect_flagged_incoherent() {
        // Deterministic schedule through the honest-failure path: the
        // reader collects [0, 0], a writer bump dirties metric 0 so the
        // validation pass is unstable, and with zero retries the reader
        // publishes the repaired collect flagged incoherent.
        let model = TelemetryCellModel {
            metrics: 2,
            stripes: 1,
            writers: 1,
            bumps_each: 1,
            retries: 0,
            collect_mode: CollectMode::Validated,
        };
        let reader = model.writers; // reader tid follows the writers
        let mut state = model.init();
        assert_eq!(model.step(&mut state, reader), StepStatus::Runnable);
        assert_eq!(model.step(&mut state, reader), StepStatus::Runnable);
        assert_eq!(model.step(&mut state, 0), StepStatus::Done);
        assert_eq!(model.step(&mut state, reader), StepStatus::Runnable);
        assert_eq!(model.step(&mut state, reader), StepStatus::Done);
        assert_eq!(
            state.published,
            Some(Published {
                totals: vec![1, 0],
                coherent: false
            })
        );
        assert!(model.check(&state, true).is_ok());
    }
}
