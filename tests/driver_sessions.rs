//! The session API's contract: observation is pure, cancellation is bounded,
//! pooled sweeps equal serial execution, and trajectories round-trip JSON
//! exactly.

use asyncsgd::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn base_spec() -> RunSpec {
    RunSpec::new(
        OracleSpec::new("noisy-quadratic", 3).sigma(0.2),
        BackendKind::Sequential,
    )
    .threads(1)
    .iterations(2_000)
    .learning_rate(0.05)
    .x0(vec![1.5, -1.5, 1.0])
    .scheduler(SchedulerSpec::Serial)
    .seed(21)
}

/// Counts events and records trajectory samples.
#[derive(Default)]
struct Recorder {
    started: AtomicU64,
    progress: AtomicU64,
    finished: AtomicU64,
    samples: Mutex<Vec<TrajectorySample>>,
}

impl RunObserver for Recorder {
    fn on_event(&self, event: &RunEvent) {
        match event {
            RunEvent::Started { .. } => {
                self.started.fetch_add(1, Ordering::SeqCst);
            }
            RunEvent::Progress(_) => {
                self.progress.fetch_add(1, Ordering::SeqCst);
            }
            RunEvent::TrajectorySample(sample) => {
                self.samples.lock().unwrap().push(sample.clone());
            }
            RunEvent::SnapshotPublished { .. }
            | RunEvent::DriftInjected { .. }
            | RunEvent::ShedTierChanged { .. }
            | RunEvent::QueueSaturated { .. } => {}
            RunEvent::Finished(_) => {
                self.finished.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

#[test]
fn observed_one_thread_hogwild_stays_bit_identical_to_sequential() {
    // The PR-1 invariant, now with a live observer attached to the hogwild
    // run: observation must not consume RNG state or reorder updates.
    let spec = base_spec().trajectory_every(500);
    let sequential = run_spec(&spec).expect("sequential runs");
    let recorder = Arc::new(Recorder::default());
    let ctx = SessionCtx::observed(Arc::clone(&recorder) as Arc<dyn RunObserver>);
    let hogwild =
        run_spec_session(&spec.clone().backend(BackendKind::Hogwild), &ctx).expect("hogwild runs");
    for (j, (a, b)) in sequential
        .final_model
        .iter()
        .zip(&hogwild.final_model)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "entry {j}: sequential {a} vs observed hogwild {b}"
        );
    }
    assert_eq!(recorder.started.load(Ordering::SeqCst), 1);
    assert_eq!(recorder.finished.load(Ordering::SeqCst), 1);
    assert!(recorder.progress.load(Ordering::SeqCst) >= 4);

    // Trajectory parity: same sample indices, bitwise-equal distances (both
    // observe the state with exactly `index` updates applied).
    let seq_traj = sequential.trajectory.as_ref().expect("collected");
    let hog_traj = hogwild.trajectory.as_ref().expect("collected");
    assert_eq!(
        seq_traj.iter().map(|s| s.index).collect::<Vec<_>>(),
        vec![0, 500, 1000, 1500]
    );
    assert_eq!(seq_traj.len(), hog_traj.len());
    for (a, b) in seq_traj.iter().zip(hog_traj) {
        assert_eq!(a.index, b.index);
        assert_eq!(
            a.dist_sq.to_bits(),
            b.dist_sq.to_bits(),
            "index {}: sequential {} vs hogwild {}",
            a.index,
            a.dist_sq,
            b.dist_sq
        );
    }
    // The streamed samples are the collected ones.
    assert_eq!(recorder.samples.lock().unwrap().len(), hog_traj.len());
}

#[test]
fn an_observer_keeping_the_finished_report_leaves_wait_an_equal_copy() {
    let spec = base_spec().backend(BackendKind::Hogwild);
    let kept: Arc<Mutex<Option<Arc<RunReport>>>> = Arc::default();
    let keeper = Arc::clone(&kept);
    let observer: Arc<dyn RunObserver> = Arc::new(move |event: &RunEvent| {
        if let RunEvent::Finished(report) = event {
            *keeper.lock().unwrap() = Some(Arc::clone(report));
        }
    });
    let report = Driver::new()
        .submit_observed(spec.clone(), observer)
        .wait()
        .expect("hogwild runs");
    let kept = kept.lock().unwrap().take().expect("Finished was observed");
    assert_eq!(*kept, report);
    assert_eq!(Arc::strong_count(&kept), 1, "wait() returned a copy");
    let unobserved = run_spec(&spec).expect("hogwild runs");
    let bits = |r: &RunReport| {
        r.final_model
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&report), bits(&unobserved));
}

/// Wall-time fields are the only legitimate difference between a pooled and
/// a serial execution of the same spec.
fn scrub_wall_time(mut report: RunReport) -> RunReport {
    report.wall_time_secs = 0.0;
    if let Some(trajectory) = &mut report.trajectory {
        for sample in trajectory {
            sample.elapsed_secs = 0.0;
        }
    }
    report
}

#[test]
fn run_many_over_the_speedup_sweep_matches_serial_backend_runs() {
    // The bench speedup sweep, serial vs pooled. Single-threaded native
    // cells are bit-deterministic, so their reports must be byte-equal
    // modulo wall time; multi-threaded cells still agree on every
    // configuration field.
    let specs = asgd_bench::experiments::speedup::specs(true);
    assert!(specs.len() >= 4, "sweep covers several cells");
    let serial: Vec<RunReport> = specs
        .iter()
        .map(|spec| run_spec(spec).expect("sweep spec runs"))
        .collect();
    let pooled = Driver::new().workers(3).run_many(&specs);
    for ((spec, serial), pooled) in specs.iter().zip(serial).zip(pooled) {
        let pooled = pooled.expect("sweep spec runs");
        assert_eq!(pooled.backend, serial.backend);
        assert_eq!(pooled.oracle, serial.oracle);
        assert_eq!(pooled.threads, serial.threads);
        assert_eq!(pooled.iterations, serial.iterations);
        assert_eq!(pooled.seed, serial.seed);
        if spec.threads == 1 {
            assert_eq!(
                scrub_wall_time(pooled),
                scrub_wall_time(serial),
                "single-threaded cell must be byte-equal modulo wall time"
            );
        }
    }
}

#[test]
fn run_many_is_byte_equal_to_serial_on_deterministic_backends() {
    let mut specs = Vec::new();
    for seed in 0..4_u64 {
        specs.push(base_spec().seed(seed).trajectory_every(700));
        specs.push(
            base_spec()
                .backend(BackendKind::SimulatedLockFree)
                .threads(3)
                .scheduler(SchedulerSpec::Random { seed })
                .seed(seed),
        );
    }
    let serial: Vec<RunReport> = specs
        .iter()
        .map(|spec| run_spec(spec).expect("spec runs"))
        .collect();
    let pooled = Driver::new().workers(2).run_many(&specs);
    for (serial, pooled) in serial.into_iter().zip(pooled) {
        assert_eq!(
            scrub_wall_time(pooled.expect("spec runs")),
            scrub_wall_time(serial)
        );
    }
}

#[test]
fn hogwild_cancellation_latency_is_bounded() {
    // A run with an effectively unbounded step budget must stop within
    // 250 ms of cancel() even at a large model dimension.
    let spec = RunSpec::new(
        OracleSpec::new("sparse-quadratic", 65_536).sigma(0.0),
        BackendKind::Hogwild,
    )
    .threads(2)
    .iterations(u64::MAX / 2)
    .learning_rate(1e-6)
    .x0(vec![1.0; 65_536])
    .sparse(SparsePathSpec::Dense) // O(d) per claim: the worst case
    .seed(1);
    let handle = Driver::new().submit(spec);
    std::thread::sleep(Duration::from_millis(50));
    assert!(handle.try_report().is_none(), "still running");
    let cancelled_at = Instant::now();
    handle.cancel();
    let report = handle.wait().expect("cancelled runs report Ok");
    let latency = cancelled_at.elapsed();
    assert!(
        latency <= Duration::from_millis(250),
        "cancellation took {latency:?}"
    );
    assert_eq!(report.stop.as_deref(), Some("cancelled"));
    assert!(report.iterations < u64::MAX / 2);
}

#[test]
fn simulated_backends_cancel_through_the_engine() {
    for backend in [
        BackendKind::SimulatedLockFree,
        BackendKind::SimulatedFullSgd,
    ] {
        let mut spec = base_spec()
            .backend(backend)
            .threads(2)
            .iterations(u64::MAX / 4)
            .scheduler(SchedulerSpec::RoundRobin);
        if backend == BackendKind::SimulatedFullSgd {
            spec = spec.halving(0.05, 1);
        }
        let handle = Driver::new().submit(spec);
        std::thread::sleep(Duration::from_millis(20));
        handle.cancel();
        let report = handle.wait().unwrap_or_else(|e| panic!("{backend}: {e}"));
        assert_eq!(report.stop.as_deref(), Some("cancelled"), "{backend}");
    }
}

#[test]
fn sample_indices_align_across_backends_even_when_stride_divides_t() {
    // T = 2000 with stride 500: the simulated accumulator fold reaches the
    // terminal t = 2000 state, but the sample set must still match the
    // native/sequential claim indices 0..T.
    let spec = base_spec().trajectory_every(500);
    let expected = vec![0_u64, 500, 1000, 1500];
    for backend in [
        BackendKind::Sequential,
        BackendKind::SimulatedLockFree,
        BackendKind::Hogwild,
    ] {
        let report = run_spec(&spec.clone().backend(backend)).unwrap();
        let indices: Vec<u64> = report
            .trajectory
            .expect("collected")
            .iter()
            .map(|s| s.index)
            .collect();
        assert_eq!(indices, expected, "{backend}");
    }
}

#[test]
fn fullsgd_cancelled_before_the_final_epoch_reports_live_progress() {
    // Cancelled epoch runs must never report the untouched zero buffers of
    // an uninitialised final epoch as their result (x* is the origin here,
    // so a zero final_model would masquerade as perfect convergence).
    let x0 = vec![1.5, -1.5, 1.0];
    for backend in [BackendKind::NativeFullSgd, BackendKind::SimulatedFullSgd] {
        let spec = base_spec()
            .backend(backend)
            .threads(2)
            .halving(0.05, 3)
            .iterations(u64::MAX / 8)
            .scheduler(SchedulerSpec::RoundRobin);
        let cancel = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let ctx = SessionCtx::default().with_cancel(Arc::clone(&cancel));
        let report = run_spec_session(&spec, &ctx).unwrap_or_else(|e| panic!("{backend}: {e}"));
        assert_eq!(report.stop.as_deref(), Some("cancelled"), "{backend}");
        // The run stops within one stride of epoch 0: the reported model is
        // epoch 0's live state near x₀ — NOT the final epoch's zero region
        // (which would read as dist² = 0, i.e. fake-perfect convergence).
        assert!(
            report.final_model.iter().any(|&v| v != 0.0),
            "{backend}: zero buffer reported"
        );
        assert!(
            report.final_dist_sq > 0.5,
            "{backend}: dist² {} looks fake-converged",
            report.final_dist_sq
        );
        if backend == BackendKind::SimulatedFullSgd {
            // The engine checks the flag before the very first step.
            assert_eq!(report.final_model, x0, "{backend}");
        }
    }
}

#[test]
fn zero_trajectory_stride_is_rejected() {
    let spec = base_spec().trajectory_every(0);
    assert!(matches!(run_spec(&spec), Err(DriverError::InvalidSpec(_))));
}

#[test]
fn every_backend_collects_a_trajectory() {
    let constant = base_spec().threads(2).trajectory_every(300);
    for &backend in BackendKind::all() {
        let spec = match backend {
            BackendKind::SimulatedFullSgd | BackendKind::NativeFullSgd => {
                constant.clone().backend(backend).halving(0.05, 1)
            }
            _ => constant.clone().backend(backend),
        };
        let report = run_spec(&spec).unwrap_or_else(|e| panic!("{backend}: {e}"));
        let trajectory = report
            .trajectory
            .as_ref()
            .unwrap_or_else(|| panic!("{backend}: no trajectory"));
        assert!(!trajectory.is_empty(), "{backend}");
        assert!(
            trajectory.windows(2).all(|w| w[0].index < w[1].index),
            "{backend}: samples ordered by index"
        );
        // And the collected trajectory round-trips JSON exactly.
        assert_eq!(
            RunReport::from_json(&report.to_json()).unwrap(),
            report,
            "{backend}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Registry-wide: for every oracle kind, a run with trajectory
    /// collection produces a non-empty trajectory whose report round-trips
    /// JSON exactly (f64 distances and elapsed times included).
    #[test]
    fn reports_with_trajectories_round_trip_for_every_registry_oracle(
        seed in 0_u64..10_000,
        stride in 1_u64..40,
    ) {
        for kind in asyncsgd::oracle::registry::known_kinds() {
            let spec = RunSpec::new(
                OracleSpec::new(*kind, 6).dataset(48).batch(4).sigma(0.1),
                BackendKind::Sequential,
            )
            .iterations(80)
            .learning_rate(0.01)
            .seed(seed)
            .trajectory_every(stride);
            let report = run_spec(&spec)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let trajectory = report.trajectory.as_ref().expect("collected");
            prop_assert!(!trajectory.is_empty(), "{kind}: empty trajectory");
            prop_assert_eq!(
                trajectory.len() as u64,
                80_u64.div_ceil(stride),
                "{}: samples at every stride multiple below T", kind
            );
            let back = RunReport::from_json(&report.to_json())
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            prop_assert_eq!(back, report, "{}: exact round trip", kind);
        }
    }
}
