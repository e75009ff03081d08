//! Determinism and replay: the simulator is a scientific instrument — equal
//! seeds must reproduce executions exactly, recorded schedules must
//! replay to identical machines, and a 1-thread streaming hogwild run
//! consuming a fixed observation sequence must be bit-identical to a
//! sequential run consuming the same sequence. The least-squares oracle's
//! arithmetic is pinned bit for bit by a golden run.

use asyncsgd::core::lockfree::{EpochSgdConfig, EpochSgdProcess};
use asyncsgd::prelude::*;
use asyncsgd::shmem::sched::{RecordingScheduler, ReplayScheduler};
use asyncsgd::shmem::Engine;
use std::sync::Arc;

fn build_engine(
    oracle: &Arc<NoisyQuadratic>,
    scheduler: impl Scheduler + 'static,
    seed: u64,
) -> Engine {
    Engine::builder()
        .memory(Memory::with_model(&[1.0, -1.0], 1))
        .process(EpochSgdProcess::new(
            Arc::clone(oracle),
            EpochSgdConfig::simple(0.05, 60),
        ))
        .process(EpochSgdProcess::new(
            Arc::clone(oracle),
            EpochSgdConfig::simple(0.05, 60),
        ))
        .scheduler(scheduler)
        .trace(TraceLevel::Events)
        .seed(seed)
        .build()
}

#[test]
fn recorded_schedule_replays_to_identical_execution() {
    let oracle = Arc::new(NoisyQuadratic::new(2, 0.6).expect("valid"));
    let rec = RecordingScheduler::new(RandomScheduler::new(1234));
    let log = rec.log();
    let original = build_engine(&oracle, rec, 42).run();
    let replayed = build_engine(&oracle, ReplayScheduler::from_log(&log), 42).run();
    assert_eq!(original.fingerprint, replayed.fingerprint);
    assert_eq!(original.memory, replayed.memory);
    assert_eq!(original.steps, replayed.steps);
}

#[test]
fn fingerprint_is_stable_across_runs_and_sensitive_to_everything() {
    let oracle = Arc::new(NoisyQuadratic::new(2, 0.6).expect("valid"));
    let base = build_engine(&oracle, RandomScheduler::new(7), 42)
        .run()
        .fingerprint;
    // Same everything → same fingerprint.
    assert_eq!(
        base,
        build_engine(&oracle, RandomScheduler::new(7), 42)
            .run()
            .fingerprint
    );
    // Different engine seed (coin streams) → different.
    assert_ne!(
        base,
        build_engine(&oracle, RandomScheduler::new(7), 43)
            .run()
            .fingerprint
    );
    // Different scheduler randomness → different.
    assert_ne!(
        base,
        build_engine(&oracle, RandomScheduler::new(8), 42)
            .run()
            .fingerprint
    );
}

#[test]
fn adversarial_runs_are_reproducible_too() {
    let oracle = Arc::new(NoisyQuadratic::new(2, 0.4).expect("valid"));
    let run = |seed: u64| {
        LockFreeSgd::builder(Arc::clone(&oracle))
            .threads(3)
            .iterations(150)
            .learning_rate(0.05)
            .scheduler(BoundedDelayAdversary::new(6))
            .seed(seed)
            .run()
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.execution.fingerprint, b.execution.fingerprint);
    assert_eq!(a.final_model, b.final_model);
    assert_eq!(
        a.execution.contention.tau_max(),
        b.execution.contention.tau_max()
    );
}

#[test]
fn full_sgd_simulated_is_deterministic() {
    let oracle = Arc::new(NoisyQuadratic::new(2, 0.8).expect("valid"));
    let go = || {
        asyncsgd::core::full_sgd::run_simulated(
            Arc::clone(&oracle),
            asyncsgd::core::full_sgd::FullSgdConfig {
                alpha0: 0.2,
                epoch_iterations: 40,
                halving_epochs: 2,
            },
            3,
            &[1.0, 1.0],
            RandomScheduler::new(11),
            13,
            None,
        )
    };
    let a = go();
    let b = go();
    assert_eq!(a.execution.fingerprint, b.execution.fingerprint);
    assert_eq!(a.r, b.r);
}

#[test]
fn streaming_one_thread_hogwild_is_bit_identical_to_sequential() {
    // The workspace's sequential-equivalence oracle extended to the stream
    // tier: two identical ingress queues preloaded with the same fixed
    // observation sequence, one consumed by the sequential backend, one by
    // 1-thread hogwild. The prior is flat (a starved step holds position
    // exactly: x - α·0 is bit-identity), so however the fallback steps
    // interleave with the stream, the trajectory is determined by the
    // observation sequence alone — and the two backends must land on
    // bit-identical models.
    let dim = 6;
    let observations: Vec<Observation> = (0..48_u32)
        .map(|k| {
            let j = k % dim as u32;
            let value = 1.0 + f64::from(k % 7) * 0.125;
            let label = 0.75 - f64::from(k % 5) * 0.25;
            Observation::new(vec![(j, value), ((j + 2) % dim as u32, -0.5)], label)
        })
        .collect();
    let preloaded = || {
        let queue = IngressQueue::new(observations.len(), BackpressurePolicy::Block);
        for obs in &observations {
            queue.push(obs.clone()).expect("preloads within capacity");
        }
        // Closed: queued observations stay poppable, so the trainer drains
        // exactly this sequence and then starves into the flat prior.
        queue.close();
        Arc::new(StreamingOracle::new(
            Arc::new(Flat::new(dim).expect("valid prior")),
            queue,
        ))
    };
    // More iterations than observations: the surplus steps are starved
    // no-ops and must not perturb the equivalence.
    let spec = RunSpec::new(OracleSpec::new("flat", dim), BackendKind::Sequential)
        .threads(1)
        .iterations(observations.len() as u64 + 64)
        .learning_rate(0.05)
        .x0(vec![0.2; dim])
        .seed(9);

    let seq_oracle = preloaded();
    let sequential = run_spec_session(
        &spec,
        &SessionCtx::default().with_oracle(seq_oracle.clone()),
    )
    .expect("sequential streaming run");
    let hog_oracle = preloaded();
    let hogwild = run_spec_session(
        &spec.clone().backend(BackendKind::Hogwild),
        &SessionCtx::default().with_oracle(hog_oracle.clone()),
    )
    .expect("hogwild streaming run");

    // Both drained the whole sequence (and starved for the surplus).
    for oracle in [&seq_oracle, &hog_oracle] {
        assert_eq!(oracle.consumed(), observations.len() as u64);
        assert_eq!(oracle.fallbacks(), 64);
    }
    assert_eq!(sequential.final_model.len(), dim);
    for (j, (s, h)) in sequential
        .final_model
        .iter()
        .zip(&hogwild.final_model)
        .enumerate()
    {
        assert_eq!(
            s.to_bits(),
            h.to_bits(),
            "x[{j}] diverges between sequential and 1-thread streaming hogwild: {s} vs {h}"
        );
    }
    // The stream moved the model: this is not vacuous zero-vs-zero.
    assert!(
        sequential.final_model.iter().any(|v| *v != 0.2),
        "observations never reached the trainer"
    );
}

fn fnv1a(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden bits of a 1-thread sequential run on `minibatch-regression`,
/// recorded with the one-row-at-a-time residual loop and the one-shot
/// augmented elimination. The blocked residual kernel and the factor-once
/// solve must reproduce them exactly. `d = 19` and `b = 13` leave a ragged
/// tail in every batch (one block of eight, five single rows) and rows
/// that are not a multiple of any vector width.
#[test]
fn minibatch_regression_sequential_run_matches_golden_bits() {
    const GOLDEN_MODEL: [u64; 19] = [
        0xbfe1_11c3_643a_d361,
        0x3fd1_9550_fa10_e3e2,
        0x3fed_0359_3122_04a4,
        0x3fb4_0e60_67ae_c94e,
        0x3faf_81b8_e95a_4b71,
        0x3fde_f9f8_0712_bfa4,
        0x3fc7_adea_797b_4eed,
        0x3fd5_a97a_645c_1202,
        0x3fdf_cf09_7565_7d4e,
        0xbfdb_7d8b_e2d5_3464,
        0xbfed_7677_d68c_9913,
        0x3fba_8075_059d_df52,
        0x3fe0_b66c_1442_90a6,
        0x3fe5_1042_d8a8_4b80,
        0x3fdb_66e7_5c9c_9cc0,
        0xbfbd_4672_52b1_a551,
        0x3fee_8bb0_0339_2921,
        0x3fce_bfba_cff8_10e2,
        0x3fe6_796e_e04c_23e7,
    ];
    let oracle_spec = OracleSpec::new("minibatch-regression", 19)
        .batch(13)
        .dataset(80)
        .data_seed(0x60_1D);
    let report = RunSpec::new(oracle_spec.clone(), BackendKind::Sequential)
        .threads(1)
        .iterations(3_000)
        .learning_rate(0.01)
        .x0(vec![0.5; 19])
        .seed(7)
        .run()
        .expect("sequential run");
    assert_eq!(report.iterations, 3_000);
    let bits: Vec<u64> = report.final_model.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, GOLDEN_MODEL, "final model bits moved");

    let oracle = oracle_spec.build().expect("builds");
    // c = λ_min(AᵀA/m) from inverse power iteration; x* from the normal
    // equations; f and ∇f from full passes of the residual kernel.
    assert_eq!(oracle.constants(1.0).c.to_bits(), 0x3fd6_6d42_e700_b5f0);
    assert_eq!(fnv1a(oracle.minimizer()), 0xfd43_7109_9385_b1a3);
    assert_eq!(
        oracle.objective(&report.final_model).to_bits(),
        0x3f71_cc17_aa3d_8d36
    );
    let mut grad = vec![0.0; 19];
    oracle.full_gradient(&report.final_model, &mut grad);
    assert_eq!(fnv1a(&grad), 0x0b12_83ea_e35e_44fc);
}
