//! The network tier's contract: the wire codec round-trips every frame —
//! including the v2 submit-observe opcode and its `Ingested` reply, NaN
//! payloads and all — and rejects malformed bytes, truncations, oversized
//! observations, and foreign protocol versions without panicking
//! (property-tested), the
//! multi-model registry survives concurrent create/query/drop races under
//! live socket load, dropped models answer with typed errors, cancellation
//! through `drop_model` stays inside the session latency bound even while
//! clients hammer the socket, and a 1-thread served run reads back
//! **bit-identically** to the sequential backend through the socket path —
//! the workspace's sequential-equivalence oracle extended across TCP.

use asyncsgd::net::{
    ErrorCode, FrameError, NetClient, NetConfig, NetServer, Priority, Request, RequestFrame,
    Response, StatsSelector, MAX_OBSERVE_LEN, MAX_PROBE_LEN, PROTOCOL_VERSION,
};
use asyncsgd::prelude::*;
use asyncsgd::serve::ModelRegistry;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ----------------------------------------------------------- wire codec

fn arb_priority() -> impl Strategy<Value = Priority> {
    prop_oneof![
        Just(Priority::Low),
        Just(Priority::Normal),
        Just(Priority::High),
    ]
}

/// Arbitrary f64 *bit patterns* — including NaNs, infinities, and
/// subnormals. The protocol ships bits, so every pattern must survive.
fn arb_f64_bits() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

/// ASCII strings of the wire's practical shapes (model names, messages).
fn arb_string(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(32_u8..127, 0..max)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            any::<u32>(),
            proptest::collection::vec((any::<u32>(), arb_f64_bits()), 0..16),
        )
            .prop_map(|(model, probe)| Request::DotScore { model, probe }),
        any::<u32>().prop_map(|model| Request::Predict { model }),
        (any::<u32>(), any::<u32>(), 0..1024_u32)
            .prop_map(|(model, start, len)| { Request::FetchRange { model, start, len } }),
        any::<u32>().prop_map(|id| Request::ModelStats {
            selector: StatsSelector::ById(id),
        }),
        arb_string(64).prop_map(|name| Request::ModelStats {
            selector: StatsSelector::ByName(name),
        }),
        (
            any::<u32>(),
            proptest::collection::vec((any::<u32>(), arb_f64_bits()), 0..16),
            arb_f64_bits(),
        )
            .prop_map(|(model, features, label)| Request::SubmitObserve {
                model,
                features,
                label,
            }),
        Just(Request::StatsScrape),
    ]
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::NoSuchModel),
        Just(ErrorCode::BadRequest),
        Just(ErrorCode::VersionMismatch),
        Just(ErrorCode::AdmissionDenied),
        Just(ErrorCode::Busy),
        Just(ErrorCode::Internal),
        Just(ErrorCode::Overloaded),
    ]
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_stats() -> impl Strategy<Value = asyncsgd::serve::ModelStats> {
    (
        (any::<u32>(), arb_string(64), any::<u64>()),
        (any::<bool>(), any::<u64>(), any::<u64>(), any::<bool>()),
        (
            arb_opt_u64(),
            proptest::collection::vec(any::<u64>(), 0..16),
        ),
    )
        .prop_map(
            |(
                (id, name, dim),
                (live, iterations, snapshots, finished),
                (staleness, shard_updates),
            )| {
                asyncsgd::serve::ModelStats {
                    id,
                    name,
                    dim,
                    mode: if live {
                        ReadMode::Live
                    } else {
                        ReadMode::Snapshot
                    },
                    iterations,
                    snapshots,
                    finished,
                    staleness,
                    shard_updates,
                }
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (arb_f64_bits(), arb_opt_u64())
            .prop_map(|(value, staleness)| Response::Score { value, staleness }),
        (
            any::<u32>(),
            proptest::collection::vec(arb_f64_bits(), 0..64),
            arb_opt_u64(),
        )
            .prop_map(|(start, values, staleness)| Response::Values {
                start,
                values,
                staleness,
            }),
        arb_stats().prop_map(Response::Stats),
        (arb_error_code(), arb_string(80))
            .prop_map(|(code, message)| Response::Error { code, message }),
        (arb_priority(), any::<u64>(), any::<u64>()).prop_map(|(priority, p99_ns, slo_ns)| {
            Response::Shed {
                priority,
                p99_ns,
                slo_ns,
            }
        }),
        any::<u64>().prop_map(|depth| Response::Ingested { depth }),
        // Realistic exposition-text shapes: newlines, braces, quotes.
        proptest::collection::vec(
            prop_oneof![arb_string(40), Just("a_total{x=\"y\"} 1\n".to_string())],
            0..8,
        )
        .prop_map(|lines| Response::ScrapeText {
            text: lines.concat(),
        }),
    ]
}

proptest! {
    /// Every request frame round-trips exactly. Equality is on the
    /// re-encoded bytes, so NaN payloads are covered too.
    #[test]
    fn request_frames_round_trip(request in arb_request(), priority in arb_priority()) {
        let frame = RequestFrame::new(request).priority(priority);
        let bytes = frame.encode().expect("in-bounds frame encodes");
        let back = RequestFrame::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back.encode().expect("re-encodes"), bytes);
    }

    /// Every response frame — values, stats, error, and shed alike —
    /// round-trips exactly.
    #[test]
    fn response_frames_round_trip(response in arb_response()) {
        let bytes = response.encode().expect("in-bounds frame encodes");
        let back = Response::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back.encode().expect("re-encodes"), bytes);
    }

    /// Truncating a valid frame at *any* interior point is a typed decode
    /// error — never a panic, never a silent short read.
    #[test]
    fn truncated_request_frames_are_typed_errors(
        request in arb_request(),
        priority in arb_priority(),
        cut in any::<usize>(),
    ) {
        let bytes = RequestFrame::new(request).priority(priority).encode().expect("encodes");
        let cut = cut % bytes.len();
        prop_assert!(RequestFrame::decode(&bytes[..cut]).is_err());
    }

    /// Same for responses.
    #[test]
    fn truncated_response_frames_are_typed_errors(
        response in arb_response(),
        cut in any::<usize>(),
    ) {
        let bytes = response.encode().expect("encodes");
        let cut = cut % bytes.len();
        prop_assert!(Response::decode(&bytes[..cut]).is_err());
    }

    /// Arbitrary garbage never panics the decoders: each byte string is
    /// either a valid frame or a typed [`FrameError`].
    #[test]
    fn garbage_bytes_never_panic_the_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _: Result<RequestFrame, FrameError> = RequestFrame::decode(&bytes);
        let _: Result<Response, FrameError> = Response::decode(&bytes);
    }

    /// A forged probe count past the protocol cap is rejected by `encode`
    /// on the way out — oversized payloads never reach the wire.
    #[test]
    fn oversized_probes_are_rejected_on_encode(model in any::<u32>()) {
        let probe = vec![(0_u32, 1.0_f64); MAX_PROBE_LEN + 1];
        prop_assert!(RequestFrame::new(Request::DotScore { model, probe }).encode().is_err());
    }

    /// Oversized observations are refused the same way: a submit-observe
    /// past [`MAX_OBSERVE_LEN`] coordinates never reaches the wire.
    #[test]
    fn oversized_observations_are_rejected_on_encode(
        model in any::<u32>(),
        label in arb_f64_bits(),
        excess in 1..4_usize,
    ) {
        let features = vec![(0_u32, 1.0_f64); MAX_OBSERVE_LEN + excess];
        prop_assert!(
            RequestFrame::new(Request::SubmitObserve { model, features, label })
                .encode()
                .is_err()
        );
    }

    /// NaN payloads survive the v2 stream opcode bit-for-bit: labels and
    /// feature values travel as IEEE-754 bit patterns, never as text.
    #[test]
    fn submit_observe_round_trips_nan_payloads(
        model in any::<u32>(),
        nan_bits in (0..0x000F_FFFF_FFFF_FFFF_u64).prop_map(|m| 0x7FF0_0000_0000_0001 | m),
        priority in arb_priority(),
    ) {
        let label = f64::from_bits(nan_bits);
        prop_assert!(label.is_nan());
        let frame = RequestFrame::new(Request::SubmitObserve {
            model,
            features: vec![(3, label), (7, f64::NEG_INFINITY)],
            label,
        })
        .priority(priority);
        let bytes = frame.encode().expect("encodes");
        let back = RequestFrame::decode(&bytes).expect("decodes");
        match back.request {
            Request::SubmitObserve { features, label: got, .. } => {
                prop_assert_eq!(got.to_bits(), nan_bits);
                prop_assert_eq!(features[0].1.to_bits(), nan_bits);
                prop_assert_eq!(features[1].1.to_bits(), f64::NEG_INFINITY.to_bits());
            }
            other => prop_assert!(false, "decoded the wrong opcode: {other:?}"),
        }
    }

    /// A frame stamped with any version other than this build's is a typed
    /// mismatch, both directions — the v1→v2 bump is load-bearing because
    /// v1 peers cannot know opcode 5 or response tag 6.
    #[test]
    fn foreign_protocol_versions_are_typed_mismatches(
        request in arb_request(),
        response in arb_response(),
        version in any::<u8>()
            .prop_map(|v| if v == PROTOCOL_VERSION { v.wrapping_add(1) } else { v }),
    ) {
        let mut req = RequestFrame::new(request).encode().expect("encodes");
        req[0] = version;
        prop_assert_eq!(RequestFrame::decode(&req), Err(FrameError::BadVersion(version)));
        let mut resp = response.encode().expect("encodes");
        resp[0] = version;
        prop_assert_eq!(Response::decode(&resp), Err(FrameError::BadVersion(version)));
    }
}

/// The version byte this suite's frames carry is the v2 bump that
/// introduced the stream opcode: if someone reverts the constant, the
/// submit-observe strategy above would be encoding frames v1 peers
/// mis-parse silently.
#[test]
fn the_wire_speaks_version_two() {
    assert_eq!(PROTOCOL_VERSION, 2, "submit-observe shipped with v2");
    let frame = RequestFrame::new(Request::SubmitObserve {
        model: 0,
        features: vec![(0, 1.0)],
        label: -1.0,
    });
    assert_eq!(frame.encode().expect("encodes")[0], PROTOCOL_VERSION);
}

// ------------------------------------------------- registry under load

fn servable_spec(dim: usize, threads: usize, iterations: u64, seed: u64) -> RunSpec {
    RunSpec::new(
        OracleSpec::new("sparse-quadratic", dim).sigma(0.0),
        BackendKind::Hogwild,
    )
    .threads(threads)
    .iterations(iterations)
    .learning_rate(0.4 / dim as f64)
    .x0(vec![1.0; dim])
    .seed(seed)
}

#[test]
fn concurrent_create_query_drop_of_one_name_stays_coherent() {
    // Three parties race on the same model name while real socket traffic
    // flows: a creator re-creating it, a dropper cancelling it, and socket
    // clients querying it by name. Every outcome must be a typed success
    // or a typed error — no panics, no wedged locks, no malformed frames.
    let registry = Arc::new(ModelRegistry::new());
    let server =
        NetServer::serve(Arc::clone(&registry), NetConfig::default()).expect("server binds");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let creator = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut created = 0_u64;
                while !stop.load(Ordering::Relaxed) {
                    let spec = servable_spec(64, 1, u64::MAX / 2, 7);
                    match registry.create("contested", &spec, ReadMode::Snapshot, 512) {
                        Ok(_) => created += 1,
                        Err(ServeError::DuplicateModel(_)) => {}
                        Err(e) => panic!("unexpected create error: {e}"),
                    }
                }
                created
            })
        };
        let dropper = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut dropped = 0_u64;
                while !stop.load(Ordering::Relaxed) {
                    match registry.drop_model("contested") {
                        Ok(_) => dropped += 1,
                        Err(ServeError::NoSuchModel(_)) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => panic!("unexpected drop error: {e}"),
                    }
                }
                dropped
            })
        };
        let queriers: Vec<_> = (0..2)
            .map(|_| {
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("connects");
                    let (mut hits, mut misses) = (0_u64, 0_u64);
                    while !stop.load(Ordering::Relaxed) {
                        match client.stats_by_name("contested") {
                            Ok(stats) => {
                                assert_eq!(stats.name, "contested");
                                assert_eq!(stats.dim, 64);
                                hits += 1;
                            }
                            Err(asyncsgd::net::ClientError::Remote { code, .. }) => {
                                assert_eq!(code, ErrorCode::NoSuchModel, "only typed misses");
                                misses += 1;
                            }
                            Err(e) => panic!("transport failure mid-race: {e}"),
                        }
                    }
                    (hits, misses)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        let created = creator.join().expect("creator clean");
        let dropped = dropper.join().expect("dropper clean");
        assert!(created > 0, "creator never won the race");
        assert!(dropped > 0, "dropper never won the race");
        let mut answered = 0;
        for q in queriers {
            let (hits, misses) = q.join().expect("querier clean");
            answered += hits + misses;
            assert!(hits + misses > 0, "querier starved");
        }
        assert!(answered > 0);
    });
    assert_eq!(server.stats().bad_frames, 0, "races never corrupt framing");
    server.stop();
    registry.shutdown();
}

#[test]
fn dropped_models_answer_with_typed_errors_on_every_op() {
    let registry = Arc::new(ModelRegistry::new());
    let spec = servable_spec(32, 1, 50_000, 11);
    let id = registry
        .create("ephemeral", &spec, ReadMode::Snapshot, 1_000)
        .expect("creates")
        .0;
    let server =
        NetServer::serve(Arc::clone(&registry), NetConfig::default()).expect("server binds");
    let mut client = NetClient::connect(server.local_addr()).expect("connects");
    client.stats_by_id(id).expect("live model answers");
    registry.drop_model("ephemeral").expect("drops");

    let remote_code = |err: asyncsgd::net::ClientError| match err {
        asyncsgd::net::ClientError::Remote { code, .. } => code,
        other => panic!("wanted a typed remote error, got {other}"),
    };
    let err = client
        .dot_score(id, &[(0, 1.0)], Priority::Normal)
        .expect_err("dropped model must not score");
    assert_eq!(remote_code(err), ErrorCode::NoSuchModel);
    let err = client
        .predict(id, Priority::Normal)
        .expect_err("dropped model must not predict");
    assert_eq!(remote_code(err), ErrorCode::NoSuchModel);
    let err = client
        .fetch_range(id, 0, 4, Priority::Normal)
        .expect_err("dropped model must not serve values");
    assert_eq!(remote_code(err), ErrorCode::NoSuchModel);
    let err = client
        .stats_by_id(id)
        .expect_err("dropped model must not report stats");
    assert_eq!(remote_code(err), ErrorCode::NoSuchModel);
    // The connection itself survives all four misses.
    client.stats_by_name("nope").expect_err("still answering");
    server.stop();
    registry.shutdown();
}

#[test]
fn stats_scrape_serves_live_prometheus_text_consistent_with_model_stats() {
    // The observability front door: a `stats-scrape` over the socket must
    // return exposition text that (a) parses back into the exact snapshot
    // it rendered, (b) carries non-vacuous series from every tier that saw
    // traffic, and (c) agrees bit-for-bit with what `model-stats` reports
    // once training is quiescent.
    let iterations = 20_000;
    let spec = servable_spec(64, 2, iterations, 17).shards(ShardsSpec::Fixed(4));
    let registry = Arc::new(ModelRegistry::new());
    let id = registry
        .create("scraped", &spec, ReadMode::Snapshot, 1_024)
        .expect("creates")
        .0;
    // A second model on the default (1-shard) store: its one shard counter
    // is scraped like any other.
    let plain = registry
        .create(
            "default-store",
            &servable_spec(64, 1, 5_000, 19),
            ReadMode::Snapshot,
            1_024,
        )
        .expect("creates")
        .0;
    let server =
        NetServer::serve(Arc::clone(&registry), NetConfig::default()).expect("server binds");
    let mut client = NetClient::connect(server.local_addr()).expect("connects");

    // Wait for the runs to finish so counters are quiescent, then drive a
    // few reads so the serve-latency histogram is non-vacuous.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut finished = |id| loop {
        let stats = client.stats_by_id(id).expect("stats answer");
        if stats.finished {
            break stats;
        }
        assert!(Instant::now() < deadline, "training never finished");
        std::thread::sleep(Duration::from_millis(10));
    };
    let stats = finished(id);
    let plain_stats = finished(plain);
    assert_eq!(stats.iterations, iterations);
    assert_eq!(stats.shard_updates.len(), 4, "fixed(4) topology reported");
    assert_eq!(plain_stats.shard_updates.len(), 1, "default store: 1 shard");
    for _ in 0..4 {
        client.predict(id, Priority::Normal).expect("predicts");
    }

    let text = client.stats_scrape().expect("scrape answers");
    let snap = asyncsgd::telemetry::parse(&text).expect("scrape text parses");
    assert_eq!(
        asyncsgd::telemetry::render(&snap),
        text,
        "exposition text and snapshot are exact inverses"
    );

    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("series {name} missing from scrape"))
            .1
    };
    // Training-tier series agree with the model-stats view bit for bit.
    assert_eq!(
        counter("asgd_model_iterations_total{model=\"scraped\"}"),
        iterations
    );
    for (shard, &updates) in stats.shard_updates.iter().enumerate() {
        assert_eq!(
            counter(&format!(
                "asgd_shard_updates_total{{model=\"scraped\",shard=\"{shard}\"}}"
            )),
            updates,
            "shard {shard} update counter disagrees with model-stats"
        );
    }
    let plain_updates = counter("asgd_shard_updates_total{model=\"default-store\",shard=\"0\"}");
    assert!(
        plain_updates > 0,
        "default store's shard 0 counter is vacuous"
    );
    assert_eq!(plain_updates, plain_stats.shard_updates[0]);
    // Quiescent run: every claimed iteration has been applied somewhere.
    assert_eq!(stats.shard_updates.iter().sum::<u64>(), iterations);
    // Net-tier series saw this connection's own traffic.
    assert!(counter("asgd_net_executed_total") >= 5);
    let (_, latency) = snap
        .histograms
        .iter()
        .find(|(k, _)| k == "asgd_net_serve_latency_ns")
        .expect("serve latency histogram present");
    assert!(latency.count >= 5, "latency histogram is vacuous");
    assert!(latency.sum > 0);
    // Scrapes are idempotent reads: a second one still answers and its
    // monotone series never run backwards.
    let again =
        asyncsgd::telemetry::parse(&client.stats_scrape().expect("second scrape")).expect("parses");
    for (name, v) in &snap.counters {
        if let Some((_, v2)) = again.counters.iter().find(|(k, _)| k == name) {
            assert!(v2 >= v, "counter {name} ran backwards: {v2} < {v}");
        }
    }
    server.stop();
    registry.shutdown();
}

#[test]
fn cancellation_under_socket_load_stays_inside_the_session_bound() {
    // The registry's drop cancels an effectively-unbounded training run
    // while socket clients are mid-flight. The ISSUE's bound: the whole
    // cancel-and-join completes within 250ms.
    let registry = Arc::new(ModelRegistry::new());
    let spec = servable_spec(256, 1, u64::MAX / 2, 13);
    let id = registry
        .create("long-haul", &spec, ReadMode::Snapshot, 2_048)
        .expect("creates")
        .0;
    let server =
        NetServer::serve(Arc::clone(&registry), NetConfig::default()).expect("server binds");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connects");
                while !stop.load(Ordering::Relaxed) {
                    // Hits and typed misses (after the drop) both fine.
                    let _ = client.dot_score(id, &[(0, 1.0), (5, -2.0)], Priority::Normal);
                }
            });
        }
        // Let traffic actually reach the serving path first.
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        let report = registry.drop_model("long-haul").expect("drops");
        let elapsed = started.elapsed();
        assert_eq!(report.stop.as_deref(), Some("cancelled"));
        assert!(
            elapsed < Duration::from_millis(250),
            "cancellation took {elapsed:?} under socket load"
        );
        stop.store(true, Ordering::Relaxed);
    });
    server.stop();
    registry.shutdown();
}

// ------------------------------------- sequential equivalence over TCP

#[test]
fn one_thread_served_run_is_bit_identical_to_sequential_through_the_socket() {
    // The workspace's equivalence oracle: a 1-thread hogwild run replays
    // the sequential trajectory exactly. Here the read side goes through
    // frame encode → TCP loopback → frame decode, and must still match
    // bit for bit — f64s travel as IEEE-754 bit patterns, never text.
    let dim = 48;
    let iterations = 30_000;
    let spec = servable_spec(dim, 1, iterations, 21);
    let sequential = run_spec(&spec.clone().backend(BackendKind::Sequential))
        .expect("sequential reference runs");
    assert_eq!(sequential.final_model.len(), dim);

    let registry = Arc::new(ModelRegistry::new());
    let id = registry
        .create("replica", &spec, ReadMode::Snapshot, 4_096)
        .expect("creates")
        .0;
    let server =
        NetServer::serve(Arc::clone(&registry), NetConfig::default()).expect("server binds");
    let mut client = NetClient::connect(server.local_addr()).expect("connects");

    // Wait (over the socket) for training to finish; the final snapshot
    // publication then holds the complete trajectory endpoint.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats_by_id(id).expect("stats answer");
        if stats.finished {
            assert_eq!(stats.iterations, iterations);
            break;
        }
        assert!(Instant::now() < deadline, "training never finished");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (served, staleness) = client
        .fetch_range(id, 0, dim as u32, Priority::Normal)
        .expect("full fetch");
    assert_eq!(served.len(), dim);
    assert_eq!(staleness, Some(0), "final publication is current");
    for (j, (got, want)) in served.iter().zip(&sequential.final_model).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "x[{j}] differs across the socket: {got} vs {want}"
        );
    }

    // A served dot-score equals the same reduction over the fetched
    // values — the compute happens on exactly the bits we read back.
    let probe: Vec<(u32, f64)> = (0..8).map(|k| (k * 5, 0.25 + k as f64)).collect();
    let (score, _) = client
        .dot_score(id, &probe, Priority::High)
        .expect("scores");
    let local: f64 = probe.iter().map(|&(j, w)| w * served[j as usize]).sum();
    assert_eq!(score.to_bits(), local.to_bits());
    server.stop();
    registry.shutdown();
}

// ------------------------------------------------- admission control

#[test]
fn over_budget_connections_get_an_explicit_denial_frame() {
    let registry = Arc::new(ModelRegistry::new());
    let id = registry
        .create(
            "solo",
            &servable_spec(16, 1, u64::MAX / 2, 3),
            ReadMode::Snapshot,
            1_024,
        )
        .expect("creates")
        .0;
    let config = NetConfig::default().max_connections(1);
    let server = NetServer::serve(Arc::clone(&registry), config).expect("server binds");
    let mut first = NetClient::connect(server.local_addr()).expect("first connects");
    first.stats_by_id(id).expect("admitted connection serves");
    let mut second = NetClient::connect(server.local_addr()).expect("TCP accept still happens");
    let err = second
        .stats_by_id(id)
        .expect_err("over-budget connection must be refused");
    match err {
        asyncsgd::net::ClientError::Remote { code, .. } => {
            assert_eq!(code, ErrorCode::AdmissionDenied);
        }
        // The denial frame may race the close; a clean disconnect is the
        // only other acceptable outcome — never a hang or a wrong answer.
        asyncsgd::net::ClientError::Io(_) => {}
        other => panic!("unexpected refusal shape: {other}"),
    }
    assert!(server.stats().denied >= 1);
    // The admitted connection is unaffected.
    first.stats_by_id(id).expect("still serving");
    registry.drop_model("solo").expect("drops");
    server.stop();
    registry.shutdown();
}
