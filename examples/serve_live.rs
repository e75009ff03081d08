//! Serve a model that is training right now.
//!
//! ```text
//! cargo run --release --example serve_live
//! ```
//!
//! Starts hogwild training on `sparse-quadratic` at d = 64k (O(Δ) sparse
//! path, effectively unbounded budget), hammers it with a handful of
//! closed-loop dot-score clients reading the live shared model's published
//! snapshots, prints live p99 latency + snapshot staleness once per tick,
//! then cancels the training run cleanly and verifies the last snapshot
//! matches the cancelled run's final state.

use asyncsgd::metrics::nearest_rank;
use asyncsgd::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const DIM: usize = 65_536;
const CLIENTS: usize = 4;
const TICKS: usize = 5;

fn main() {
    let train = RunSpec::new(
        OracleSpec::new("sparse-quadratic", DIM).sigma(0.0),
        BackendKind::Hogwild,
    )
    .threads(2)
    .iterations(u64::MAX / 2)
    .learning_rate(0.5 / DIM as f64)
    .x0(vec![1.0; DIM])
    .seed(7);
    let serve = ServeSpec::new(train.clone())
        .mode(ReadMode::Snapshot)
        .query(QueryKind::DotScore)
        .clients(CLIENTS)
        .publish_every(4_096)
        .serve_seed(0xBEEF);

    let service = ModelService::start(&train, serve.publish_stride).expect("service starts");
    println!(
        "serving d={DIM} while {} trainer threads run underneath ({CLIENTS} closed-loop clients)",
        train.threads
    );

    let stop = AtomicBool::new(false);
    // Clients push latencies into a per-tick shared buffer; the main
    // thread drains and prints it once per tick.
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for i in 0..CLIENTS {
            let mut client = QueryClient::new(&service, &serve, 0xBEEF + i as u64);
            let stop = &stop;
            let latencies = &latencies;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let outcome = client.query();
                    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    latencies.lock().unwrap().push(ns);
                    assert!(outcome.value.is_finite());
                }
            });
        }

        for tick in 1..=TICKS {
            std::thread::sleep(Duration::from_millis(200));
            let mut window = std::mem::take(&mut *latencies.lock().unwrap());
            window.sort_unstable();
            let p99_us = nearest_rank(&window, 0.99).map_or(0.0, |p99| p99 as f64 / 1e3);
            println!(
                "tick {tick}: {q} queries ({qps:.0}/s), p99 {p99_us:.1} µs, staleness {stale} \
                 iters, trained {iters} iters",
                q = window.len(),
                qps = window.len() as f64 / 0.2,
                stale = service.staleness().unwrap_or(0),
                iters = service.reader().iterations(),
            );
        }

        println!("cancelling training…");
        let cancelled_at = Instant::now();
        let report = service.stop().expect("cancelled runs report Ok");
        println!(
            "training stopped in {:.1} ms: {} iterations, stop={}",
            cancelled_at.elapsed().as_secs_f64() * 1e3,
            report.iterations,
            report.stop.as_deref().unwrap_or("-"),
        );
        stop.store(true, Ordering::Relaxed);

        // The serving plane outlives the run: the last published snapshot
        // is the cancelled run's final state (tags are monotone, so the tag
        // may exceed the executed count by at most the trainer count), and
        // live reads agree.
        let snap = service.reader().snapshot().expect("final publication");
        assert!(snap.iteration >= report.iterations);
        assert_eq!(snap.values, report.final_model);
        println!(
            "final snapshot v{} at iteration {} matches the cancelled report — serving stays up",
            snap.version, snap.iteration
        );
    });
}
