//! The unified driver's cross-backend contract: one `RunSpec` runs
//! unchanged on every compatible backend, reports serialise exactly, and
//! deterministic backends agree where the theory says they must.

use asyncsgd::prelude::*;

fn base_spec() -> RunSpec {
    RunSpec::new(
        OracleSpec::new("noisy-quadratic", 3).sigma(0.2),
        BackendKind::Sequential,
    )
    .threads(3)
    .iterations(4_000)
    .learning_rate(0.05)
    .x0(vec![1.5, -1.5, 1.0])
    .success_radius_sq(0.05)
    .scheduler(SchedulerSpec::Random { seed: 5 })
    .seed(21)
}

#[test]
fn one_spec_runs_on_five_constant_step_backends() {
    let spec = base_spec();
    let x0_dist_sq = 1.5 * 1.5 + 1.5 * 1.5 + 1.0;
    let backends = [
        BackendKind::Sequential,
        BackendKind::SimulatedLockFree,
        BackendKind::Hogwild,
        BackendKind::Locked,
        BackendKind::GuardedEpoch,
    ];
    for backend in backends {
        let report =
            run_spec(&spec.clone().backend(backend)).unwrap_or_else(|e| panic!("{backend}: {e}"));
        assert_eq!(report.backend, backend.name());
        assert_eq!(report.oracle, "noisy-quadratic");
        assert_eq!(report.iterations, 4_000, "{backend}");
        assert!(
            report.final_dist_sq < x0_dist_sq / 10.0,
            "{backend}: no progress, dist² {}",
            report.final_dist_sq
        );
        assert!(report.final_model.len() == 3, "{backend}");
        assert!(report.wall_time_secs >= 0.0);
        // Every backend's report serialises and round-trips exactly.
        let json = report.to_json();
        assert_eq!(
            RunReport::from_json(&json).unwrap_or_else(|e| panic!("{backend}: {e}")),
            report,
            "{backend}: JSON round-trip must be exact"
        );
    }
}

#[test]
fn the_same_spec_also_runs_the_fullsgd_backends_with_halving() {
    let spec = base_spec().halving(0.1, 3);
    for backend in [BackendKind::SimulatedFullSgd, BackendKind::NativeFullSgd] {
        let report =
            run_spec(&spec.clone().backend(backend)).unwrap_or_else(|e| panic!("{backend}: {e}"));
        assert_eq!(report.iterations, 4_000, "{backend}: budget preserved");
        assert!(
            report.final_dist_sq < 0.5,
            "{backend}: dist² {}",
            report.final_dist_sq
        );
    }
}

#[test]
fn sequential_and_simulated_serial_schedule_agree_exactly() {
    // Under the serial scheduler, simulated thread 0 executes every
    // iteration with coin stream 0 — which is precisely what the sequential
    // backend runs. Same spec ⇒ bit-identical trajectory, same hitting time.
    let spec = base_spec().scheduler(SchedulerSpec::Serial);
    let sequential = run_spec(&spec).expect("sequential runs");
    let simulated =
        run_spec(&spec.clone().backend(BackendKind::SimulatedLockFree)).expect("simulated runs");
    assert_eq!(sequential.final_model.len(), simulated.final_model.len());
    for (j, (a, b)) in sequential
        .final_model
        .iter()
        .zip(&simulated.final_model)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "entry {j}: sequential {a} vs simulated {b}"
        );
    }
    assert_eq!(
        sequential.hit_iteration, simulated.hit_iteration,
        "ordered-accumulator hitting times must agree on the serial schedule"
    );
    assert_eq!(
        sequential.final_dist_sq.to_bits(),
        simulated.final_dist_sq.to_bits()
    );
    // And single-threaded Hogwild shares the same coin stream too — with a
    // live observer attached, which must not perturb the run.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let events = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&events);
    let ctx = SessionCtx::observed(Arc::new(move |_: &RunEvent| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));
    let native = run_spec_session(&spec.clone().backend(BackendKind::Hogwild).threads(1), &ctx)
        .expect("hogwild runs");
    for (a, b) in sequential.final_model.iter().zip(&native.final_model) {
        assert_eq!(a.to_bits(), b.to_bits(), "native single-thread parity");
    }
    assert!(
        events.load(Ordering::SeqCst) >= 2,
        "observer saw at least Started and Finished"
    );
}

#[test]
fn deterministic_backends_reproduce_and_diverge_by_seed() {
    let spec = base_spec().backend(BackendKind::SimulatedLockFree);
    let a = run_spec(&spec).unwrap();
    let b = run_spec(&spec).unwrap();
    assert_eq!(a.fingerprint, b.fingerprint, "same seed, same fingerprint");
    assert_eq!(a.final_model, b.final_model);
    let c = run_spec(&spec.clone().seed(22)).unwrap();
    assert_ne!(a.fingerprint, c.fingerprint, "different seed diverges");
}

#[test]
fn reports_survive_a_json_file_round_trip() {
    // The `experiments run --json` pipeline in miniature: write, read back,
    // compare — including the u64 fingerprint, which must not be mangled
    // through any float path.
    let report = run_spec(&base_spec().backend(BackendKind::SimulatedLockFree)).unwrap();
    let dir = std::env::temp_dir().join("asgd_driver_api_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("BENCH_simulated-lockfree.json");
    std::fs::write(&path, report.to_json_pretty()).expect("write");
    let text = std::fs::read_to_string(&path).expect("read");
    let back = RunReport::from_json(&text).expect("parse");
    assert_eq!(back, report);
    assert!(back.fingerprint.is_some());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_diverged_run_decodes_with_nan_where_the_writer_wrote_null() {
    // α = 5 is far outside the stable step-size region: the iterate
    // overflows, and the report spells its non-finite floats `null`.
    let spec = RunSpec::new(
        OracleSpec::new("noisy-quadratic", 4),
        BackendKind::Sequential,
    )
    .iterations(20_000)
    .learning_rate(5.0);
    let report = run_spec(&spec).unwrap();
    let json = report.to_json();
    assert!(json.contains("\"final_dist_sq\":null"), "{json}");
    assert!(
        json.contains("\"final_model\":[null,null,null,null]"),
        "{json}"
    );
    let back = RunReport::from_json(&json).expect("a diverged report decodes");
    assert!(back.final_dist_sq.is_nan());
    assert!(back.final_model.iter().all(|v| v.is_nan()));
    assert_eq!(back.iterations, report.iterations);
    assert_eq!(back.to_json(), json, "re-encodes to the same bytes");
}

#[test]
fn guarded_epoch_reports_guard_statistics() {
    let report = run_spec(
        &base_spec()
            .backend(BackendKind::GuardedEpoch)
            .halving(0.1, 2),
    )
    .expect("guarded runs");
    assert!(
        report.stale_rejected.is_some(),
        "guard statistics must be reported"
    );
}

#[test]
fn driver_errors_are_descriptive() {
    let spec = base_spec().halving(0.1, 2).backend(BackendKind::Hogwild);
    let err = run_spec(&spec).map(|_| ()).unwrap_err();
    assert!(matches!(err, DriverError::InvalidSpec(_)));
    assert!(err.to_string().contains("constant step"), "{err}");

    let mut spec = base_spec();
    spec.oracle.kind = "nonexistent".to_string();
    let err = run_spec(&spec).map(|_| ()).unwrap_err();
    assert!(err.to_string().contains("unknown oracle kind"), "{err}");
}
