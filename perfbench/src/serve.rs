//! `serve-mixed`: one `NetServer` on loopback hosting one streaming model
//! (sparse-quadratic prior, d = 4096, snapshot reads, one trainer thread,
//! drop-oldest ingress). One closed-loop client connection sends three
//! `dot_score` reads for every `submit_observe` write, so reads and writes
//! share the connection and a gain for one at the other's cost shows.

use crate::stats::{median, Samples};
use crate::trace::{StepTotals, ROOT};
use crate::{Bench, Inputs};
use asgd_driver::{BackendKind, RunSpec};
use asgd_net::{NetClient, NetConfig, NetServer, Priority, Request, RequestFrame, Response};
use asgd_oracle::{BackpressurePolicy, OracleSpec};
use asgd_serve::{ModelEntry, ModelRegistry, ReadMode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Busy threads: the hosted trainer, the client and the server's
/// connection thread.
pub const THREADS: usize = 3;
const D: usize = 4096;
const PUBLISH_STRIDE: u64 = 4096;
const CAPACITY: usize = 1024;
const PROBE_LEN: usize = 8;
const POOL: usize = 1024;
const WARMUP_OPS: usize = 4000;
const SETUP_REPEATS: usize = 15;
/// Traced runs alternate untraced and traced blocks of this many requests.
const BLOCK: u64 = 4096;
/// One traced request in this many gets a span.
const SPAN_EVERY: u64 = 8;
const MODEL: &str = "serve-mixed";
/// Connections opened, one after another, over the window.
const RECONNECTS: u32 = 10;

struct Hosted {
    registry: Arc<ModelRegistry>,
    server: NetServer,
    client: NetClient,
    id: u32,
    entry: Arc<ModelEntry>,
}

fn host(seed: u64) -> Result<Hosted, String> {
    let registry = Arc::new(ModelRegistry::new());
    let server = NetServer::serve(Arc::clone(&registry), NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let train = RunSpec::new(OracleSpec::new("sparse-quadratic", D), BackendKind::Hogwild)
        .threads(1)
        .iterations(1 << 40)
        .learning_rate(0.5 / D as f64)
        .seed(seed);
    let id = registry
        .create_streaming(
            MODEL,
            &train,
            ReadMode::Snapshot,
            PUBLISH_STRIDE,
            CAPACITY,
            BackpressurePolicy::DropOldest,
        )
        .map_err(|e| e.to_string())?;
    let entry = registry.lookup(id).map_err(|e| e.to_string())?;
    // The model serves once its first snapshot (the start point, published
    // at claim 0) is out. Polling every 200 µs rather than spinning keeps
    // the poll off the cores the trainer is starting on.
    let deadline = Instant::now() + Duration::from_secs(10);
    while entry.stats().snapshots == 0 {
        if Instant::now() > deadline {
            return Err("no snapshot published within 10 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let client = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    Ok(Hosted {
        registry,
        server,
        client,
        id: id.0,
        entry,
    })
}

/// Stops the front-end and the hosted run; the run must end cancelled.
fn teardown(b: &mut Bench, h: &Hosted) {
    h.server.stop();
    let report = h.registry.drop_model(MODEL);
    b.ledger.invariant(
        report
            .as_ref()
            .is_ok_and(|r| r.stop.as_deref() == Some("cancelled")),
        || {
            format!(
                "hosted run did not end cancelled: {:?}",
                report.map(|r| r.stop)
            )
        },
    );
}

/// `(server-executed ns sum, count)` of `asgd_net_serve_latency_ns` from a
/// Prometheus scrape (exact sum and count only).
fn scrape_latency(client: &mut NetClient) -> Result<(u64, u64), String> {
    let text = client.stats_scrape().map_err(|e| e.to_string())?;
    let field = |suffix: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("asgd_net_serve_latency_ns_{suffix} ")))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .ok_or_else(|| format!("scrape lacks asgd_net_serve_latency_ns_{suffix}"))
    };
    Ok((field("sum")?, field("count")?))
}

/// Mean ns to encode and decode one read request and its response frame.
fn codec_ns(model: u32, probes: &[Vec<(u32, f64)>]) -> Result<f64, String> {
    let mut checksum = 0usize;
    let rounds = 50;
    let t = Instant::now();
    for _ in 0..rounds {
        for probe in probes {
            let frame = RequestFrame::new(Request::DotScore {
                model,
                probe: probe.clone(),
            });
            let bytes = frame.encode().map_err(|e| e.to_string())?;
            let back = RequestFrame::decode(&bytes).map_err(|e| e.to_string())?;
            let response = Response::Score {
                value: probe[0].1,
                staleness: Some(7),
            };
            let rbytes = response.encode().map_err(|e| e.to_string())?;
            let rback = Response::decode(&rbytes).map_err(|e| e.to_string())?;
            checksum += bytes.len() + rbytes.len();
            if back != frame || rback != response {
                return Err("codec round trip changed a frame".into());
            }
        }
    }
    std::hint::black_box(checksum);
    Ok(t.elapsed().as_nanos() as f64 / (rounds * probes.len()) as f64)
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    // Inputs: probe and observation pools, and the write positions.
    let mut inputs = Inputs::new(b.seed, 3);
    let planted: Vec<f64> = (0..D).map(|_| inputs.range(-1.0, 1.0)).collect();
    let sparse_vec = |inputs: &mut Inputs| -> Vec<(u32, f64)> {
        (0..PROBE_LEN)
            .map(|_| (inputs.index(D) as u32, inputs.range(-1.0, 1.0)))
            .collect()
    };
    let probes: Vec<Vec<(u32, f64)>> = (0..POOL).map(|_| sparse_vec(&mut inputs)).collect();
    let observations: Vec<(Vec<(u32, f64)>, f64)> = (0..POOL)
        .map(|_| {
            let f = sparse_vec(&mut inputs);
            let label = f.iter().map(|&(j, w)| w * planted[j as usize]).sum();
            (f, label)
        })
        .collect();

    // Set-up: registry, server, streaming model and client, fifteen times.
    let mut setup = Vec::new();
    let mut hosted = None;
    for rep in 0..SETUP_REPEATS {
        let t = Instant::now();
        let h = host(b.seed)?;
        setup.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPEATS {
            teardown(b, &h);
        } else {
            hosted = Some(h);
        }
    }
    b.put("setup_s", median(&setup), "s");
    let mut h = hosted.expect("set-up ran");
    let queue = h
        .entry
        .ingress()
        .expect("streaming model has an ingress")
        .clone();

    // Warm-up (untimed): cycle the mix.
    let mut op = 0u64;
    let id = h.id;
    let seed = b.seed;
    // One closed-loop request: a write at one seeded position in each group
    // of four, reads elsewhere. Returns (is write, start, end, outcome),
    // where the outcome is the acked queue depth of a write.
    let call = |client: &mut NetClient, op: u64| {
        let k = (op as usize / 4) % POOL;
        let write = op % 4 == Inputs::new(seed ^ (op / 4), 4).next_u64() % 4;
        let t0 = Instant::now();
        let outcome = if write {
            let (f, label) = &observations[k];
            client
                .submit_observe(id, f, *label, Priority::Normal)
                .and_then(|depth| {
                    if depth <= CAPACITY as u64 {
                        Ok(Some(depth))
                    } else {
                        Err(asgd_net::ClientError::UnexpectedResponse(
                            "depth over capacity",
                        ))
                    }
                })
        } else {
            client
                .dot_score(id, &probes[k], Priority::Normal)
                .and_then(|(v, _)| {
                    if v.is_finite() {
                        Ok(None)
                    } else {
                        Err(asgd_net::ClientError::UnexpectedResponse(
                            "non-finite score",
                        ))
                    }
                })
        };
        (write, t0, Instant::now(), outcome)
    };
    for _ in 0..WARMUP_OPS {
        let (_, _, _, outcome) = call(&mut h.client, op);
        b.ledger.invariant(outcome.is_ok(), || {
            format!("warm-up request failed: {outcome:?}")
        });
        op += 1;
    }

    // The timed window.
    // Room for 120k requests/s, about twice the rate seen on the reference
    // host; anything beyond is counted as overflow and printed.
    let cap = (b.seconds * 120_000.0) as usize + 1024;
    let mut reads = Samples::with_capacity(cap / 4 * 3);
    let mut writes = Samples::with_capacity(cap / 4);
    let mut traced_rtt = Samples::with_capacity(if b.trace { cap } else { 1 });
    let (mut depth_sum, mut depth_n) = (0u64, 0u64);
    let (mut block_ops, mut block_secs) = ([0u64; 2], [0.0f64; 2]);
    let net0 = h.server.stats();
    let q0 = queue.counters().snapshot();
    let scrape0 = scrape_latency(&mut h.client)?;
    let stats0 = h.entry.stats();
    let step0 = StepTotals::now();
    let started = Instant::now();
    let end = b.deadline();
    let mut answered = 0u64;
    let mut block_start = Instant::now();
    // One connection at a time, reopened every tenth of the window: each
    // connection's server thread lands on a core afresh, so one run samples
    // several placements of client, connection thread and trainer.
    let addr = h.server.local_addr();
    let reconnect_every = Duration::from_secs_f64(b.seconds / RECONNECTS as f64);
    let mut reconnect_at = started + reconnect_every;
    'window: loop {
        for _ in 0..256 {
            let block = (answered / BLOCK) as usize % 2;
            let traced = b.trace && block == 1;
            let (write, t0, t1, outcome) = call(&mut h.client, op);
            op += 1;
            match outcome {
                Ok(depth) => {
                    b.ledger.attempted += 1;
                    if let Some(depth) = depth {
                        depth_sum += depth;
                        depth_n += 1;
                    }
                }
                Err(e) => {
                    b.ledger.check(false, || format!("request failed: {e}"));
                    continue;
                }
            }
            answered += 1;
            let ns = t1.duration_since(t0).as_nanos() as f64;
            if traced {
                traced_rtt.push(ns);
                if answered.is_multiple_of(SPAN_EVERY) {
                    let name = if write {
                        "net.submit_observe"
                    } else {
                        "net.dot_score"
                    };
                    b.spans.record(name, ROOT, answered, t0, t1);
                }
            } else {
                if write {
                    writes.push(ns / 1e3);
                } else {
                    reads.push(ns / 1e3);
                }
            }
            if answered.is_multiple_of(BLOCK) {
                let now = Instant::now();
                block_ops[block] += BLOCK;
                block_secs[block] += now.duration_since(block_start).as_secs_f64();
                block_start = now;
            }
        }
        let now = Instant::now();
        if now >= end {
            break 'window;
        }
        if now >= reconnect_at {
            h.client = NetClient::connect(addr).map_err(|e| e.to_string())?;
            reconnect_at += reconnect_every;
        }
    }
    let window = started.elapsed().as_secs_f64();
    let step1 = StepTotals::now();
    let stats1 = h.entry.stats();
    let net1 = h.server.stats();
    let scrape1 = scrape_latency(&mut h.client)?;
    let q1 = queue.counters().snapshot();

    // Server-executed requests must equal the client's answers (the first
    // scrape is executed inside the window's accounting too).
    b.ledger
        .invariant(net1.executed - net0.executed == answered + 1, || {
            format!(
                "server executed {} requests, client got {} answers",
                net1.executed - net0.executed,
                answered + 1
            )
        });
    let (read_n, write_n) = (reads.len(), writes.len());
    b.put_n("read_p50_us", reads.quantile(0.5), "us", read_n);
    b.put_n("read_p99_us", reads.quantile(0.99), "us", read_n);
    b.put_n("write_p50_us", writes.quantile(0.5), "us", write_n);
    b.put_n("write_p99_us", writes.quantile(0.99), "us", write_n);
    let served = if b.trace {
        block_ops[0] as f64 / block_secs[0]
    } else {
        answered as f64 / window
    };
    b.put("served_ops_per_s", served, "1/s");
    b.put(
        "train_iters_per_s",
        (stats1.iterations - stats0.iterations) as f64 / window,
        "1/s",
    );
    // Both classes together, after the window: µs → ms.
    let mut all = Samples::with_capacity(read_n + write_n);
    for &v in reads.values().iter().chain(writes.values()) {
        all.push(v / 1e3);
    }
    b.put_n("op_p50_ms", all.quantile(0.5), "ms", all.len());
    b.put_n("op_tail_ms", all.quantile(0.99), "ms", all.len());
    b.put(
        "sample_overflow",
        (reads.overflow + writes.overflow) as f64,
        "count",
    );
    b.put("ops_per_s", served, "1/s");

    if b.trace {
        let executed = scrape1.1 - scrape0.1;
        let server_ns = (scrape1.0 - scrape0.0) as f64 / executed.max(1) as f64;
        b.put_n("net.server_ns", server_ns, "ns", executed as usize);
        let mut rtt = Samples::with_capacity(all.len() + traced_rtt.len());
        for &v in all.values() {
            rtt.push(v * 1e6);
        }
        for &v in traced_rtt.values() {
            rtt.push(v);
        }
        b.put("net.outside_ns", rtt.mean() - server_ns, "ns");
        b.put("net.codec_ns", codec_ns(h.id, &probes)?, "ns");
        b.put("net.busy", (net1.busy - net0.busy) as f64, "count");
        b.put("net.shed", (net1.shed - net0.shed) as f64, "count");
        b.put(
            "net.bad_frames",
            (net1.bad_frames - net0.bad_frames) as f64,
            "count",
        );
        b.put_n(
            "ingest.depth_mean",
            depth_sum as f64 / depth_n.max(1) as f64,
            "count",
            depth_n as usize,
        );
        b.put("ingest.dropped", (q1.dropped - q0.dropped) as f64, "count");
        b.put(
            "ingest.used_ratio",
            (q1.popped - q0.popped) as f64 / (q1.pushed - q0.pushed).max(1) as f64,
            "ratio",
        );
        let step_ns = step0.mean_since(step1);
        b.put("hogwild.step_ns", step_ns, "ns");
        b.put("hogwild.self_ns", step_ns, "ns");
        let traced_ops = block_ops[1] as f64 / block_secs[1];
        b.put("served_ops_per_s_traced", traced_ops, "1/s");
        b.put(
            "trace.overhead_pct",
            (served / traced_ops - 1.0) * 100.0,
            "%",
        );
        crate::session::store_probe(b, &vec![0.0; D], 2_000_000);
    }

    teardown(b, &h);
    // Queue counters conserve once the trainer has stopped.
    let q = queue.counters().snapshot();
    let held = queue.len() as u64;
    b.ledger
        .invariant(q.pushed == q.popped + q.dropped + held, || {
            format!(
            "ingress counters do not conserve: pushed {} != popped {} + dropped {} + depth {held}",
            q.pushed, q.popped, q.dropped
        )
        });
    Ok(())
}
