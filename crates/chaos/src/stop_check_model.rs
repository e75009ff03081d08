//! The native executors' cooperative stop check as an explorable step
//! function.
//!
//! Every native executor's workers claim iterations from one shared
//! counter and check the run's stop flag every `stride` claims. *Whose*
//! claims matters. The shipped protocol ([`PollMode::WorkerLocal`]) counts
//! each worker's own claims with a [`WorkerPoll`] countdown, so a worker
//! takes at most `stride` claims after the flag rises, however the claim
//! indices interleave. [`PollMode::GlobalIndex`] is the seeded bug, the
//! check the executors used to make: look at the flag only when the
//! *global* claim index is a stride multiple. A worker whose claims keep
//! missing the multiples runs on. Two preemptions suffice: the canceller
//! raises the flag while one worker is mid-run, and the other worker takes
//! the one multiple that falls due and exits. The first worker then runs
//! about two strides past the flag.
//!
//! Each worker step is one atomic action of the claim loop: either *claim
//! and check* (the counter's `fetch_add`, then the poll) or *work* (the
//! gradient step for the held claim). The canceller is one more thread
//! with a single step that raises the flag. The invariant, checked after
//! every step: no worker has taken more than `stride` claims since the
//! flag rose.

use crate::explore::{Schedulable, StepStatus};
use asgd_hogwild::{RunControl, WorkerPoll};
use std::sync::atomic::AtomicBool;

/// When a modeled worker looks at the stop flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollMode {
    /// The shipped protocol: the executors' [`WorkerPoll`] countdown over
    /// the worker's own claims.
    WorkerLocal,
    /// Seeded bug: check only when the global claim index is a multiple
    /// of the stride.
    GlobalIndex,
}

/// `workers` claim loops sharing one counter with a claim budget, plus a
/// canceller thread that raises the stop flag once.
#[derive(Debug, Clone, Copy)]
pub struct StopCheckModel {
    /// Concurrent worker threads.
    pub workers: usize,
    /// Claims between stop checks.
    pub stride: u64,
    /// Total claim budget (claims at or past it end a worker normally).
    pub budget: u64,
    /// Stop-check discipline.
    pub mode: PollMode,
}

impl StopCheckModel {
    /// Two workers, stride 4, a budget of 12 claims: room for a worker to
    /// run two strides past the flag under the seeded bug.
    #[must_use]
    pub fn two_workers(mode: PollMode) -> Self {
        Self {
            workers: 2,
            stride: 4,
            budget: 12,
            mode,
        }
    }

    /// True when the worker must stop before working on `claim`.
    fn stop_due(&self, poll: &mut WorkerPoll, flag: bool, claim: u64) -> bool {
        match self.mode {
            PollMode::WorkerLocal => {
                let flag = AtomicBool::new(flag);
                let ctrl = RunControl {
                    stop: Some(&flag),
                    ..RunControl::default()
                };
                poll.stop_due(&ctrl, claim)
            }
            PollMode::GlobalIndex => claim.is_multiple_of(self.stride) && flag,
        }
    }
}

#[derive(Debug, Clone)]
struct Worker {
    poll: WorkerPoll,
    /// The claim taken and checked but not yet worked on.
    holding: bool,
    /// Claims taken since the flag rose.
    claims_after_flag: u64,
}

/// The shared claim counter and stop flag, plus each worker's loop state.
#[derive(Debug, Clone)]
pub struct StopCheckState {
    counter: u64,
    flag: bool,
    workers: Vec<Worker>,
}

impl Schedulable for StopCheckModel {
    type State = StopCheckState;

    fn init(&self) -> StopCheckState {
        StopCheckState {
            counter: 0,
            flag: false,
            workers: (0..self.workers)
                .map(|_| Worker {
                    poll: WorkerPoll::new(self.stride),
                    holding: false,
                    claims_after_flag: 0,
                })
                .collect(),
        }
    }

    /// Workers `0..workers`, then the canceller.
    fn thread_count(&self) -> usize {
        self.workers + 1
    }

    fn step(&self, state: &mut StopCheckState, tid: usize) -> StepStatus {
        if tid == self.workers {
            state.flag = true;
            return StepStatus::Done;
        }
        let flag = state.flag;
        let worker = &mut state.workers[tid];
        if worker.holding {
            worker.holding = false;
            return StepStatus::Runnable;
        }
        let claim = state.counter;
        state.counter += 1;
        if claim >= self.budget {
            return StepStatus::Done;
        }
        if flag {
            worker.claims_after_flag += 1;
        }
        if self.stop_due(&mut worker.poll, flag, claim) {
            return StepStatus::Done;
        }
        worker.holding = true;
        StepStatus::Runnable
    }

    fn check(&self, state: &StopCheckState, _done: bool) -> Result<(), String> {
        for (w, worker) in state.workers.iter().enumerate() {
            if worker.claims_after_flag > self.stride {
                return Err(format!(
                    "worker {w} took {} claims after the stop flag rose (stride {})",
                    worker.claims_after_flag, self.stride
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{replay, Explorer, ReplayOutcome};

    #[test]
    fn worker_local_checks_bound_every_worker_under_two_preemptions() {
        let model = StopCheckModel::two_workers(PollMode::WorkerLocal);
        let report = Explorer::with_bound(2).explore(&model);
        assert!(report.verified(), "{:?}", report.counterexample);
        assert!(report.schedules > 100, "exhaustiveness: {report:?}");
    }

    #[test]
    fn three_workers_stay_bounded_too() {
        let model = StopCheckModel {
            workers: 3,
            stride: 2,
            budget: 8,
            mode: PollMode::WorkerLocal,
        };
        let report = Explorer::with_bound(2).explore(&model);
        assert!(report.verified(), "{:?}", report.counterexample);
    }

    #[test]
    fn global_index_check_lets_a_worker_run_past_the_stride() {
        let model = StopCheckModel::two_workers(PollMode::GlobalIndex);
        let report = Explorer::with_bound(2).explore(&model);
        let cex = report
            .counterexample
            .expect("global-index twin must be caught");
        assert_eq!(cex.preemptions, 2, "{cex:?}");
        assert!(
            cex.violation
                .message
                .contains("claims after the stop flag rose"),
            "{}",
            cex.violation.message
        );
        match replay(&model, &cex.trace) {
            Err(ReplayOutcome::Violation(v)) => assert_eq!(v, cex.violation),
            other => panic!("minimized trace must reproduce, got {other:?}"),
        }
    }
}
