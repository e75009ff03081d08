//! The [`ParamStore`](asgd_hogwild::ParamStore) per-shard progress
//! counters and their double-collect read protocol
//! (`coherent_update_counts`) as an explorable step function.
//!
//! The parameter store bumps one cache-line-padded counter per applied
//! `fetch&add`; each counter read is individually atomic, but a cross-shard
//! progress vector is assembled one shard at a time, so the *cut* across
//! shards can be torn: shard 0 read before a burst of updates, shard 1 read
//! after, producing a vector the store never passed through. The shipped
//! read side repairs this with double-collect validation: collect every
//! counter, collect again, and only call the vector *instantaneous* when a
//! whole validation pass observes no movement (counters are monotone, so an
//! unchanged pair of reads pins each counter through the instant between
//! the passes — one instant all shards share).
//!
//! [`ScanMode::Coherent`] mirrors that protocol step for step (each shard
//! read is its own atomic step, exactly the granularity the hardware
//! gives). [`ScanMode::SplitRead`] is the deliberately seeded bug: the
//! first collect is published as coherent with no validation pass — the
//! naive loop everyone writes first. Under one adversarial preemption
//! between two of the reader's per-shard loads, a writer slips a bump into
//! each shard and the published "instantaneous" vector is a state that
//! never existed, which the explorer catches and minimizes to a replayable
//! trace.
//!
//! Invariants, checked after every atomic step:
//!
//! * **Coherence**: a vector published as coherent must equal some
//!   instantaneous counter state the store actually passed through (the
//!   invariant the seeded twin breaks);
//! * **Monotone reads**: every collected entry is ≤ its shard's current
//!   counter (reads never invent progress), and the live counters always
//!   equal the bump history's last state;
//! * **Honest failure**: a publish flagged *incoherent* (validation retries
//!   exhausted) is allowed to be torn — the flag, not the vector, is the
//!   contract.

use crate::explore::{Schedulable, StepStatus};

/// Atomicity the modeled progress reader claims for its collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// The shipped protocol: collect, then re-collect until a whole
    /// validation pass observes no counter movement (bounded retries;
    /// exhaustion publishes the last collect flagged incoherent).
    Coherent,
    /// Seeded bug: the first per-shard collect is published as coherent
    /// with no validation pass.
    SplitRead,
}

/// Model parameters: `writers × bumps_each` shard-routed counter bumps
/// against one progress reader assembling a cross-shard vector.
#[derive(Debug, Clone, Copy)]
pub struct ShardedCounterModel {
    /// Shard (and counter) count.
    pub shards: usize,
    /// Concurrent writer threads bumping counters.
    pub writers: usize,
    /// Bumps each writer applies, rotating through shards from shard 0.
    pub bumps_each: usize,
    /// Validation passes the coherent reader may retry beyond the first
    /// (the model's `COHERENT_RETRIES`).
    pub retries: usize,
    /// Collect atomicity under test.
    pub scan_mode: ScanMode,
}

impl ShardedCounterModel {
    /// The headline race: one writer spraying a bump into each of two
    /// shards while the reader assembles its vector. One adversarial
    /// preemption between the reader's two loads tears the
    /// [`ScanMode::SplitRead`] twin's published snapshot.
    #[must_use]
    pub fn contended(scan_mode: ScanMode) -> Self {
        Self {
            shards: 2,
            writers: 1,
            bumps_each: 2,
            retries: 2,
            scan_mode,
        }
    }

    /// A deeper configuration: two writers keep both counters moving so
    /// the validation-retry and exhaustion paths are actually exercised.
    #[must_use]
    pub fn churning(scan_mode: ScanMode) -> Self {
        Self {
            shards: 2,
            writers: 2,
            bumps_each: 2,
            retries: 2,
            scan_mode,
        }
    }
}

/// Where the reader is in its collect/validate program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReaderPc {
    /// Initial collect, next reading shard `s`.
    Collect(usize),
    /// Validation pass, next re-reading shard `s`; `stable` is true while
    /// no re-read of this pass has observed movement.
    Validate { s: usize, stable: bool },
}

#[derive(Debug, Clone)]
struct Writer {
    bumps_done: usize,
}

/// A published progress vector plus the coherence the reader claimed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Published {
    counts: Vec<u64>,
    coherent: bool,
}

/// The modeled counters plus every thread's control state.
#[derive(Debug, Clone)]
pub struct ShardedCounterState {
    /// Live per-shard counters.
    counters: Vec<u64>,
    /// Every instantaneous counter state, in order (bumps are the only
    /// mutations, so this is the exact set of states the store passed
    /// through — the ground truth coherence is checked against).
    history: Vec<Vec<u64>>,
    writers: Vec<Writer>,
    reader_pc: ReaderPc,
    /// The reader's in-progress collect.
    collect: Vec<u64>,
    retries_left: usize,
    published: Option<Published>,
}

impl Schedulable for ShardedCounterModel {
    type State = ShardedCounterState;

    fn init(&self) -> ShardedCounterState {
        ShardedCounterState {
            counters: vec![0; self.shards],
            history: vec![vec![0; self.shards]],
            writers: (0..self.writers)
                .map(|_| Writer { bumps_done: 0 })
                .collect(),
            reader_pc: ReaderPc::Collect(0),
            collect: Vec::new(),
            retries_left: self.retries,
            published: None,
        }
    }

    fn thread_count(&self) -> usize {
        self.writers + 1
    }

    fn step(&self, state: &mut ShardedCounterState, tid: usize) -> StepStatus {
        if tid < self.writers {
            self.writer_step(state, tid)
        } else {
            self.reader_step(state)
        }
    }

    fn check(&self, state: &ShardedCounterState, _done: bool) -> Result<(), String> {
        // The live counters are, by construction, the last recorded state;
        // a mismatch is a model bug, caught loudly.
        if state.history.last() != Some(&state.counters) {
            return Err(format!(
                "history desynchronised: live {:?} vs recorded {:?}",
                state.counters,
                state.history.last()
            ));
        }
        // Monotone reads: a collected entry can never exceed the shard's
        // current counter (counters only go up after the read).
        for (s, &v) in state.collect.iter().enumerate() {
            if v > state.counters[s] {
                return Err(format!(
                    "collect invented progress: shard {s} read {v} > live {}",
                    state.counters[s]
                ));
            }
        }
        if let Some(p) = &state.published {
            if p.counts.len() != self.shards {
                return Err(format!(
                    "published vector has {} entries for {} shards",
                    p.counts.len(),
                    self.shards
                ));
            }
            // The invariant the seeded twin breaks: a coherent-flagged
            // vector must be a state the counters simultaneously held.
            if p.coherent && !state.history.contains(&p.counts) {
                return Err(format!(
                    "torn snapshot published as coherent: {:?} was never an \
                     instantaneous state (history {:?})",
                    p.counts, state.history
                ));
            }
        }
        Ok(())
    }
}

impl ShardedCounterModel {
    fn writer_step(&self, state: &mut ShardedCounterState, tid: usize) -> StepStatus {
        // Bumps rotate through shards from shard 0, so a writer's burst
        // touches distinct counters — the spread that tears a split read.
        let shard = state.writers[tid].bumps_done % self.shards;
        state.counters[shard] += 1;
        let snapshot = state.counters.clone();
        state.history.push(snapshot);
        state.writers[tid].bumps_done += 1;
        if state.writers[tid].bumps_done == self.bumps_each {
            StepStatus::Done
        } else {
            StepStatus::Runnable
        }
    }

    fn reader_step(&self, state: &mut ShardedCounterState) -> StepStatus {
        match state.reader_pc {
            ReaderPc::Collect(s) => {
                state.collect.push(state.counters[s]);
                if s + 1 < self.shards {
                    state.reader_pc = ReaderPc::Collect(s + 1);
                    return StepStatus::Runnable;
                }
                match self.scan_mode {
                    ScanMode::SplitRead => {
                        // The seeded bug: the first collect goes out as
                        // coherent — no pass ever validated the cut.
                        self.publish(state, true)
                    }
                    ScanMode::Coherent => {
                        state.reader_pc = ReaderPc::Validate { s: 0, stable: true };
                        StepStatus::Runnable
                    }
                }
            }
            ReaderPc::Validate { s, stable } => {
                let again = state.counters[s];
                let stable = stable && again == state.collect[s];
                state.collect[s] = again;
                if s + 1 < self.shards {
                    state.reader_pc = ReaderPc::Validate { s: s + 1, stable };
                    return StepStatus::Runnable;
                }
                if stable {
                    // A whole pass saw no movement: monotone counters pin
                    // every entry through the instant between the passes.
                    self.publish(state, true)
                } else if state.retries_left == 0 {
                    // Honest failure: the last collect, flagged torn.
                    self.publish(state, false)
                } else {
                    state.retries_left -= 1;
                    state.reader_pc = ReaderPc::Validate { s: 0, stable: true };
                    StepStatus::Runnable
                }
            }
        }
    }

    fn publish(&self, state: &mut ShardedCounterState, coherent: bool) -> StepStatus {
        state.published = Some(Published {
            counts: state.collect.clone(),
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
    fn the_shipped_double_collect_verifies_under_churn() {
        let model = ShardedCounterModel::churning(ScanMode::Coherent);
        let report = Explorer::with_bound(2).explore(&model);
        assert!(report.verified(), "{:?}", report.counterexample);
        assert!(report.schedules > 50, "exhaustiveness: {report:?}");
    }

    #[test]
    fn split_read_publishes_a_torn_vector_and_the_trace_replays_identically() {
        let model = ShardedCounterModel::contended(ScanMode::SplitRead);
        let report = Explorer::with_bound(2).explore(&model);
        let cex = report.counterexample.expect("split read must tear");
        assert!(
            cex.violation.message.contains("torn snapshot"),
            "{:?}",
            cex.violation
        );
        // The classic torn cut needs exactly one adversarial preemption:
        // the writer's burst lands between two of the reader's loads.
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
    fn split_read_is_safe_with_a_single_bump() {
        // One bump mutates one shard once, so any assembled vector equals
        // the before- or after-state — sanity that the model only reports
        // real torn cuts, not every interleaving.
        let model = ShardedCounterModel {
            shards: 2,
            writers: 1,
            bumps_each: 1,
            retries: 2,
            scan_mode: ScanMode::SplitRead,
        };
        let report = Explorer::with_bound(3).explore(&model);
        assert!(report.verified(), "{:?}", report.counterexample);
    }

    #[test]
    fn exhausted_retries_publish_the_last_collect_flagged_incoherent() {
        // Deterministic schedule through the honest-failure path: the
        // reader collects [0, 0], a writer bump dirties shard 0 so the
        // validation pass is unstable, and with zero retries the reader
        // publishes the repaired collect flagged incoherent.
        let model = ShardedCounterModel {
            shards: 2,
            writers: 1,
            bumps_each: 1,
            retries: 0,
            scan_mode: ScanMode::Coherent,
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
                counts: vec![1, 0],
                coherent: false
            })
        );
        assert!(model.check(&state, true).is_ok());
    }
}
