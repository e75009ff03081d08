//! The chaos tier's contract, end to end: the bounded-preemption explorer
//! exhaustively verifies the shipped snapshot protocol (2 publishers × 1
//! reader, every ≤k-preemption schedule), catches a deliberately weakened
//! publish fence with a minimized counterexample whose trace replays to
//! the *identical* violation and round-trips through the shmem schedule
//! codec, and — property-tested — every counterexample any buggy model
//! configuration produces replays bit-for-bit. On the network side, a
//! served workload under chaotic fault injection (partial frames, short
//! reads, mid-frame disconnects on both ends of every connection) answers
//! with zero wrong bits: only retried successes or typed errors.

use asyncsgd::chaos::{
    replay, AddMode, AtomicAddModel, CollectMode, Explorer, FenceMode, NetChaosSpec, PollMode,
    RegistryMode, RegistryModel, ReplayOutcome, SnapshotModel, StopCheckModel, TelemetryCellModel,
    Violation,
};
use asyncsgd::net::FaultPlan;
use asyncsgd::shmem::sched::decode_schedule;
use proptest::prelude::*;

// ------------------------------------------------------ explorer, exhaustive

/// The ISSUE's headline cell: `SnapshotCell`'s seqlock with 2 publishers
/// and 1 reader, exhaustively model-checked over every schedule within the
/// preemption bound — no torn snapshot, no version regression, bounded
/// reader retries, on *all* of them.
#[test]
fn snapshot_two_publishers_one_reader_verifies_exhaustively() {
    for bound in 0..=3 {
        let report = Explorer::with_bound(bound).explore(
            &SnapshotModel::two_publishers_one_reader(FenceMode::Correct),
        );
        assert!(
            report.verified(),
            "bound {bound}: {:?}",
            report.counterexample
        );
        assert!(!report.truncated, "bound {bound} must enumerate fully");
    }
}

/// The same cell under buffer reuse (each publisher publishes twice, so a
/// slot is overwritten while a reader may still be copying) — the regime
/// where a weak fence actually tears — still verifies with the correct
/// fence.
#[test]
fn snapshot_buffer_reuse_verifies_within_the_bound() {
    let report = Explorer::with_bound(2).explore(&SnapshotModel::buffer_reuse(FenceMode::Correct));
    assert!(report.verified(), "{:?}", report.counterexample);
    assert!(report.schedules > 100, "exhaustive run, not a single path");
}

/// The deliberately seeded ordering bug: announcing the write sequence
/// *after* filling the buffer lets a reader validate a torn copy. The
/// explorer must catch it, the counterexample must be minimal in
/// preemptions (iterative deepening), its trace must replay to the
/// bit-identical violation, and the artifact string must round-trip
/// through the shmem schedule codec it reuses.
#[test]
fn weakened_fence_yields_a_minimized_replayable_artifact() {
    let model = SnapshotModel::buffer_reuse(FenceMode::WeakPublish);
    let report = Explorer::with_bound(3).explore(&model);
    let cex = report.counterexample.expect("seeded bug must be caught");
    assert!(cex.violation.message.contains("torn snapshot"), "{cex:?}");
    assert!(
        cex.preemptions <= 2,
        "deepening finds few-preemption traces"
    );

    // Bit-for-bit replay: same message, same step.
    assert_eq!(
        replay(&model, &cex.trace),
        Err(ReplayOutcome::Violation(cex.violation.clone()))
    );

    // The artifact is a shmem schedule: decode, then replay the decoded
    // trace — still the identical violation.
    let decoded = decode_schedule(&cex.artifact()).expect("artifact decodes");
    assert_eq!(decoded, cex.trace);
    assert_eq!(
        replay(&model, &decoded),
        Err(ReplayOutcome::Violation(cex.violation.clone()))
    );
}

/// Conservation and lifecycle cells: the shipped implementations verify;
/// the seeded bugs are caught.
#[test]
fn conservation_and_lifecycle_cells_split_correct_from_buggy() {
    assert!(Explorer::with_bound(2)
        .explore(&AtomicAddModel::two_by_two(AddMode::Cas))
        .verified());
    assert!(Explorer::with_bound(2)
        .explore(&RegistryModel::name_race(RegistryMode::Locked))
        .verified());
    assert!(Explorer::with_bound(2)
        .explore(&AtomicAddModel::two_by_two(AddMode::BlindStore))
        .counterexample
        .is_some());
    assert!(Explorer::with_bound(2)
        .explore(&RegistryModel::name_race(RegistryMode::SplitCheck))
        .counterexample
        .is_some());
}

/// Stop-check cells: the per-worker countdown the executors ship bounds
/// every worker's claims after the flag; the global-claim-index twin is
/// caught, and its minimized artifact replays to the identical violation.
#[test]
fn stop_check_cells_split_worker_local_from_global_index() {
    assert!(Explorer::with_bound(2)
        .explore(&StopCheckModel::two_workers(PollMode::WorkerLocal))
        .verified());
    let twin = StopCheckModel::two_workers(PollMode::GlobalIndex);
    let cex = Explorer::with_bound(2)
        .explore(&twin)
        .counterexample
        .expect("global-index twin must be caught");
    assert_replays_identically(&twin, &cex);
}

/// Telemetry collect cells (`telemetry-collect-validated` and
/// `telemetry-collect-reread` in `experiments chaos`): the validated
/// collect the registry ships verifies at bound 2; the twin that validates
/// and then publishes a fresh re-read is caught, and its minimized
/// artifact replays to the identical violation.
#[test]
fn telemetry_collect_cells_split_validated_from_re_read() {
    assert!(Explorer::with_bound(2)
        .explore(&TelemetryCellModel::churning(CollectMode::Validated))
        .verified());
    let twin = TelemetryCellModel::contended(CollectMode::ReReadAfterValidation);
    let cex = Explorer::with_bound(2)
        .explore(&twin)
        .counterexample
        .expect("re-read twin must be caught");
    assert!(cex.violation.message.contains("torn snapshot"), "{cex:?}");
    // Validation passes on a quiet registry; the writer's burst lands
    // between the reader's two re-reads.
    assert_eq!(cex.preemptions, 1, "{cex:?}");
    assert_replays_identically(&twin, &cex);
}

// -------------------------------------------------- replay fidelity (property)

/// Replays `cex` against `model` and asserts the identical violation plus
/// artifact round-trip — the shared body of the property tests.
fn assert_replays_identically<P: asyncsgd::chaos::Schedulable>(
    model: &P,
    cex: &asyncsgd::chaos::Counterexample,
) {
    let outcome = replay(model, &cex.trace);
    assert_eq!(
        outcome,
        Err(ReplayOutcome::Violation(Violation {
            message: cex.violation.message.clone(),
            step: cex.violation.step,
        })),
        "a counterexample must reproduce its own violation"
    );
    let decoded = decode_schedule(&cex.artifact()).expect("artifact decodes");
    assert_eq!(decoded, cex.trace, "artifact round-trips losslessly");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any counterexample the explorer finds — across buggy atomic-model
    /// shapes and preemption bounds — replays bit-for-bit.
    #[test]
    fn atomic_counterexamples_replay_bit_for_bit(
        threads in 2..4_usize,
        adds_each in 1..3_usize,
        bound in 1..3_usize,
    ) {
        let model = AtomicAddModel { threads, adds_each, mode: AddMode::BlindStore };
        let report = Explorer::with_bound(bound).explore(&model);
        if let Some(cex) = &report.counterexample {
            assert_replays_identically(&model, cex);
        }
    }

    /// Same property across the snapshot model's fence modes and bounds:
    /// whenever there is a counterexample at all, it replays identically.
    #[test]
    fn snapshot_counterexamples_replay_bit_for_bit(
        weak in any::<bool>(),
        bound in 1..3_usize,
    ) {
        let fence = if weak { FenceMode::WeakPublish } else { FenceMode::Correct };
        let model = SnapshotModel::buffer_reuse(fence);
        let report = Explorer::with_bound(bound).explore(&model);
        if let Some(cex) = &report.counterexample {
            assert_replays_identically(&model, cex);
        }
    }
}

// ------------------------------------------------------------- net campaign

/// The fault-injection campaign: chaotic plans on both sides of every
/// connection — partial writes, short reads, delays, and a budget of
/// mid-frame disconnects — against a live server. Zero wrong answers is
/// the whole point; retries/reconnects prove the churn was real rather
/// than the test passing vacuously.
#[test]
fn net_campaign_under_churn_has_zero_wrong_answers() {
    let mut spec = NetChaosSpec::new(0xD15C0);
    spec.clients = 3;
    spec.requests_per_client = 24;
    spec.dim = 16;
    let report = asyncsgd::chaos::run_net_chaos(&spec).expect("harness runs");
    assert_eq!(report.requests, 72);
    assert!(report.zero_wrong(), "{report:?}");
    assert!(report.exact > 0, "some requests must succeed: {report:?}");
    assert!(
        report.retries + report.reconnects > 0,
        "chaotic plans must actually cause churn: {report:?}"
    );
}

/// Determinism of the fault layer itself: the same campaign seed yields
/// the same fault decisions, so two identical campaigns agree on how much
/// churn they injected (the reports' retry/reconnect counters can shift
/// with thread timing, but the *plans* derived per connection must not).
#[test]
fn fault_plans_derive_deterministically_per_connection() {
    let plan = FaultPlan::chaotic(42);
    for salt in 0..8 {
        assert_eq!(plan.child(salt), plan.child(salt));
    }
    // distinct connections get decorrelated sequences
    assert_ne!(plan.child(0).seed, plan.child(1).seed);
}
