//! Socket-level traffic harness: a fleet of real TCP clients driving a
//! [`NetServer`](crate::NetServer) over loopback, closed-loop or
//! **open-loop**.
//!
//! Open-loop is the shape that makes overload visible: each client sends
//! on a fixed tick schedule *without waiting for responses* (a sender
//! thread and a reader thread share the connection via `try_clone`), and
//! latency is measured from the **scheduled** send instant — so queueing
//! delay under saturation is charged to the measurement instead of
//! silently slowing the offered load (the coordinated-omission trap a
//! closed-loop harness falls into). Responses arrive in request order
//! (the server is serial per connection), which is what lets the reader
//! match latencies without sequence numbers.
//!
//! The report splits outcomes per priority class: under SLO pressure the
//! server sheds low-priority traffic first, and the per-class latency
//! summaries are what show admitted traffic holding its p99 while shed
//! traffic is refused explicitly.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use asgd_driver::json_record;
use asgd_math::rng::SeedSequence;
use asgd_serve::{Arrival, LatencySummary};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::client::{ClientError, NetClient};
use crate::protocol::{
    read_frame, write_frame, Priority, Request, RequestFrame, Response, MAX_FRAME_LEN,
};

/// What each request computes (the wire ops, minus stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NetOp {
    /// Sparse dot-product scoring (O(probe) per request). The default.
    #[default]
    DotScore,
    /// Held-out objective evaluation (O(d) per request) — the expensive
    /// op, used to saturate the server.
    Predict,
    /// Raw parameter range fetch.
    FetchRange,
}

impl NetOp {
    /// Canonical CLI/JSON name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::DotScore => "dot-score",
            Self::Predict => "predict",
            Self::FetchRange => "fetch-range",
        }
    }

    /// Every op, in documentation order.
    #[must_use]
    pub fn all() -> &'static [NetOp] {
        &[Self::DotScore, Self::Predict, Self::FetchRange]
    }
}

impl std::str::FromStr for NetOp {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dot-score" => Ok(Self::DotScore),
            "predict" => Ok(Self::Predict),
            "fetch-range" => Ok(Self::FetchRange),
            other => Err(format!(
                "unknown net op `{other}` (known: dot-score, predict, fetch-range)"
            )),
        }
    }
}

impl std::fmt::Display for NetOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One value describing a socket workload against a running server.
#[derive(Debug, Clone, PartialEq)]
pub struct NetWorkloadSpec {
    /// Concurrent client connections (`≥ 1`).
    pub clients: usize,
    /// Traffic window in seconds.
    pub duration_secs: f64,
    /// Arrival pattern per client: closed loop, or an open-loop fixed
    /// rate (per-client qps).
    pub arrival: Arrival,
    /// The op every request performs.
    pub op: NetOp,
    /// Probe support size for [`NetOp::DotScore`].
    pub probe_len: usize,
    /// Range length for [`NetOp::FetchRange`] (clamped to the dimension).
    pub fetch_len: u32,
    /// Model ids to target; client `i` drives `models[i % len]`.
    pub models: Vec<u32>,
    /// Priority classes; client `i` sends at `priorities[i % len]`.
    pub priorities: Vec<Priority>,
    /// Master seed for the per-client RNG streams.
    pub seed: u64,
}

impl NetWorkloadSpec {
    /// A closed-loop dot-score workload against `models`.
    #[must_use]
    pub fn new(models: Vec<u32>) -> Self {
        Self {
            clients: 4,
            duration_secs: 1.0,
            arrival: Arrival::ClosedLoop,
            op: NetOp::DotScore,
            probe_len: 8,
            fetch_len: 16,
            models,
            priorities: vec![Priority::Normal],
            seed: 0x00E7_5EED,
        }
    }

    /// Sets the client count.
    #[must_use]
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n;
        self
    }

    /// Sets the traffic window.
    #[must_use]
    pub fn duration_secs(mut self, secs: f64) -> Self {
        self.duration_secs = secs;
        self
    }

    /// Sets the arrival pattern.
    #[must_use]
    pub fn arrival(mut self, arrival: Arrival) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the op.
    #[must_use]
    pub fn op(mut self, op: NetOp) -> Self {
        self.op = op;
        self
    }

    /// Sets the dot-score probe size.
    #[must_use]
    pub fn probe_len(mut self, len: usize) -> Self {
        self.probe_len = len;
        self
    }

    /// Sets the fetch-range length.
    #[must_use]
    pub fn fetch_len(mut self, len: u32) -> Self {
        self.fetch_len = len;
        self
    }

    /// Sets the priority mix (client `i` → `priorities[i % len]`).
    #[must_use]
    pub fn priorities(mut self, priorities: Vec<Priority>) -> Self {
        self.priorities = priorities;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        if self.clients == 0 {
            return Err(WorkloadError::Invalid(
                "at least one client required".to_string(),
            ));
        }
        if !(self.duration_secs.is_finite() && self.duration_secs > 0.0) {
            return Err(WorkloadError::Invalid(format!(
                "duration must be positive and finite, got {}",
                self.duration_secs
            )));
        }
        if let Arrival::FixedRate { qps } = self.arrival {
            if !(qps.is_finite() && qps > 0.0) {
                return Err(WorkloadError::Invalid(format!(
                    "fixed-rate qps must be positive and finite, got {qps}"
                )));
            }
        }
        if self.models.is_empty() {
            return Err(WorkloadError::Invalid(
                "at least one target model required".to_string(),
            ));
        }
        if self.priorities.is_empty() {
            return Err(WorkloadError::Invalid(
                "at least one priority class required".to_string(),
            ));
        }
        if self.probe_len == 0 {
            return Err(WorkloadError::Invalid(
                "probe length must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// What a workload run can fail with. Per-request failures during the
/// window are *counted* (`errors`/`lost` in the report), not returned —
/// only an unexecutable spec or a dead server fails the run itself.
#[derive(Debug)]
pub enum WorkloadError {
    /// The spec is not executable.
    Invalid(String),
    /// A client could not connect or discover its target model.
    Setup(ClientError),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(msg) => write!(f, "invalid net workload: {msg}"),
            Self::Setup(e) => write!(f, "client setup: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<ClientError> for WorkloadError {
    fn from(e: ClientError) -> Self {
        Self::Setup(e)
    }
}

/// Per-priority-class outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// The class label (`low` / `normal` / `high`).
    pub priority: String,
    /// Requests put on the wire.
    pub sent: u64,
    /// Requests answered with a value.
    pub answered: u64,
    /// Requests refused with a `Shed` frame.
    pub shed: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Requests with no response (connection died mid-window).
    pub lost: u64,
    /// Latency of *answered* requests, measured from the scheduled send
    /// instant (open loop) or the actual send instant (closed loop).
    pub latency: LatencySummary,
}

json_record!(ClassReport {
    priority,
    sent,
    answered,
    shed,
    errors,
    lost,
    latency
});

/// The outcome of one socket workload, with exact JSON round-trip.
#[derive(Debug, Clone, PartialEq)]
pub struct NetReport {
    /// Client connection count.
    pub clients: usize,
    /// Arrival label (`closed-loop` / `rate:QPS`).
    pub arrival: String,
    /// Op label.
    pub op: String,
    /// Distinct target models.
    pub models: usize,
    /// Actual traffic window in seconds.
    pub duration_secs: f64,
    /// Requests put on the wire, all classes.
    pub sent: u64,
    /// Requests answered with a value.
    pub answered: u64,
    /// Requests refused with a `Shed` frame.
    pub shed: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Requests with no response.
    pub lost: u64,
    /// Answered throughput (`answered / duration_secs`).
    pub qps: f64,
    /// Latency over all answered requests.
    pub latency: LatencySummary,
    /// Per-priority breakdown (classes that sent traffic, lowest first).
    pub classes: Vec<ClassReport>,
}

// `classes` leads the list so it is decoded (and reported missing) first.
json_record!(NetReport {
    classes,
    clients,
    arrival,
    op,
    models,
    duration_secs,
    sent,
    answered,
    shed,
    errors,
    lost,
    qps,
    latency
});

/// Per-client tallies folded into the final report.
struct ClientTally {
    priority: Priority,
    sent: u64,
    answered: u64,
    shed: u64,
    errors: u64,
    lost: u64,
    latency_ns: Vec<u64>,
}

impl ClientTally {
    fn new(priority: Priority) -> Self {
        Self {
            priority,
            sent: 0,
            answered: 0,
            shed: 0,
            errors: 0,
            lost: 0,
            latency_ns: Vec::new(),
        }
    }

    fn classify(&mut self, response: &Response, latency: Duration) {
        match response {
            Response::Shed { .. } => self.shed += 1,
            Response::Error { .. } => self.errors += 1,
            _ => {
                self.answered += 1;
                self.latency_ns
                    .push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
            }
        }
    }
}

/// One client's pre-generated request template.
fn build_request(spec: &NetWorkloadSpec, model: u32, dim: u64, rng: &mut StdRng) -> Request {
    match spec.op {
        NetOp::DotScore => {
            let k = spec.probe_len.min(dim.max(1) as usize);
            let probe = (0..k)
                .map(|_| {
                    (
                        (rng.next_u64() % dim.max(1)) as u32,
                        rng.gen_range(-1.0..1.0),
                    )
                })
                .collect();
            Request::DotScore { model, probe }
        }
        NetOp::Predict => Request::Predict { model },
        NetOp::FetchRange => {
            let len = u64::from(spec.fetch_len).clamp(1, dim.max(1)) as u32;
            let span = dim.max(1) - u64::from(len) + 1;
            Request::FetchRange {
                model,
                start: (rng.next_u64() % span) as u32,
                len,
            }
        }
    }
}

/// Drives `spec.clients` real TCP connections against the server at
/// `addr` for the traffic window and folds the outcomes into a
/// [`NetReport`].
///
/// # Errors
///
/// [`WorkloadError::Invalid`] for unexecutable specs;
/// [`WorkloadError::Setup`] when a client cannot connect or discover its
/// target model. Failures *during* the window are counted in the report
/// (`errors`, `lost`), not returned.
pub fn run_net_workload(
    addr: SocketAddr,
    spec: &NetWorkloadSpec,
) -> Result<NetReport, WorkloadError> {
    spec.validate()?;
    let seeds = SeedSequence::new(spec.seed);
    // Discover every target model's dimension once, up front (High
    // priority: discovery must survive an already-overloaded server).
    let mut dims = Vec::with_capacity(spec.models.len());
    {
        let mut probe_client = NetClient::connect(addr)?;
        for &model in &spec.models {
            dims.push(probe_client.stats_by_id(model)?.dim);
        }
    }
    let window = Duration::from_secs_f64(spec.duration_secs);
    let started = Instant::now();
    let deadline = started + window;
    let tallies: Vec<Result<ClientTally, WorkloadError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|i| {
                let model = spec.models[i % spec.models.len()];
                let dim = dims[i % spec.models.len()];
                let priority = spec.priorities[i % spec.priorities.len()];
                let mut rng: StdRng = seeds.child_rng(i as u64);
                scope.spawn(move || match spec.arrival {
                    Arrival::ClosedLoop => {
                        closed_loop_client(addr, spec, model, dim, priority, &mut rng, deadline)
                    }
                    Arrival::FixedRate { qps } => {
                        open_loop_client(addr, spec, model, dim, priority, &mut rng, deadline, qps)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let duration_secs = started.elapsed().as_secs_f64();

    let mut per_class: Vec<(Priority, ClientTally)> = Priority::all()
        .iter()
        .map(|&p| (p, ClientTally::new(p)))
        .collect();
    for tally in tallies {
        let tally = tally?;
        let slot = &mut per_class
            .iter_mut()
            .find(|(p, _)| *p == tally.priority)
            .expect("every priority has a slot")
            .1;
        slot.sent += tally.sent;
        slot.answered += tally.answered;
        slot.shed += tally.shed;
        slot.errors += tally.errors;
        slot.lost += tally.lost;
        slot.latency_ns.extend(tally.latency_ns);
    }
    let (mut sent, mut answered, mut shed, mut errors, mut lost) = (0, 0, 0, 0, 0);
    let classes: Vec<ClassReport> = per_class
        .iter_mut()
        .filter(|(_, t)| t.sent > 0)
        .map(|(p, t)| {
            sent += t.sent;
            answered += t.answered;
            shed += t.shed;
            errors += t.errors;
            lost += t.lost;
            ClassReport {
                priority: p.label().to_string(),
                sent: t.sent,
                answered: t.answered,
                shed: t.shed,
                errors: t.errors,
                lost: t.lost,
                latency: LatencySummary::from_samples(&mut t.latency_ns),
            }
        })
        .collect();
    let mut all_latency: Vec<u64> = per_class
        .iter()
        .flat_map(|(_, t)| &t.latency_ns)
        .copied()
        .collect();
    Ok(NetReport {
        clients: spec.clients,
        arrival: spec.arrival.label(),
        op: spec.op.label().to_string(),
        models: spec.models.len(),
        duration_secs,
        sent,
        answered,
        shed,
        errors,
        lost,
        qps: if duration_secs > 0.0 {
            answered as f64 / duration_secs
        } else {
            0.0
        },
        latency: LatencySummary::from_samples(&mut all_latency),
        classes,
    })
}

/// Closed loop: send, block for the answer, repeat.
fn closed_loop_client(
    addr: SocketAddr,
    spec: &NetWorkloadSpec,
    model: u32,
    dim: u64,
    priority: Priority,
    rng: &mut StdRng,
    deadline: Instant,
) -> Result<ClientTally, WorkloadError> {
    let mut client = NetClient::connect(addr)?;
    let mut tally = ClientTally::new(priority);
    while Instant::now() < deadline {
        let request = build_request(spec, model, dim, rng);
        let frame = RequestFrame::new(request).priority(priority);
        let issued = Instant::now();
        tally.sent += 1;
        match client.call(&frame) {
            Ok(response) => tally.classify(&response, issued.elapsed()),
            Err(_) => {
                tally.lost += 1;
                return Ok(tally); // connection is dead; stop this client
            }
        }
    }
    Ok(tally)
}

/// Open loop: a sender thread on a fixed tick schedule and a reader
/// thread draining responses off a cloned stream handle. Latency runs
/// from the *scheduled* tick, so server-side queueing is measured, not
/// hidden.
#[allow(clippy::too_many_arguments)]
fn open_loop_client(
    addr: SocketAddr,
    spec: &NetWorkloadSpec,
    model: u32,
    dim: u64,
    priority: Priority,
    rng: &mut StdRng,
    deadline: Instant,
    qps: f64,
) -> Result<ClientTally, WorkloadError> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(ClientError::from)?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(5))))
        .map_err(ClientError::from)?;
    let mut read_half = stream.try_clone().map_err(ClientError::from)?;
    read_half
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(ClientError::from)?;
    let interval = Duration::from_secs_f64(1.0 / qps);
    let (tx, rx) = mpsc::channel::<Instant>();

    let mut tally = ClientTally::new(priority);
    let (sent, reader_tally) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut tally = ClientTally::new(priority);
            let mut buf = Vec::new();
            let mut dead = false;
            while let Ok(scheduled) = rx.recv() {
                if dead {
                    tally.lost += 1;
                    continue;
                }
                let outcome = read_frame(&mut read_half, &mut buf, MAX_FRAME_LEN)
                    .map_err(|_| ())
                    .and_then(|()| Response::decode(&buf).map_err(|_| ()));
                match outcome {
                    Ok(response) => tally.classify(&response, scheduled.elapsed()),
                    Err(()) => {
                        // Connection died (or the server sent garbage):
                        // this and every still-queued request is lost.
                        tally.lost += 1;
                        dead = true;
                    }
                }
            }
            tally
        });

        let mut sent = 0_u64;
        let mut next_tick = Instant::now();
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if now < next_tick {
                std::thread::sleep((next_tick - now).min(deadline - now));
                continue;
            }
            // Fixed schedule; when behind, fire immediately without
            // accumulating a backlog.
            let scheduled = next_tick;
            next_tick = next_tick.max(now) + interval;
            let request = build_request(spec, model, dim, rng);
            let frame = RequestFrame::new(request).priority(priority);
            let Ok(body) = frame.encode() else { break };
            if write_frame(&mut stream, &body).is_err() {
                break;
            }
            sent += 1;
            if tx.send(scheduled).is_err() {
                break;
            }
        }
        drop(tx); // reader drains the queue, then returns
        (sent, reader.join().expect("reader thread panicked"))
    });
    tally.sent = sent;
    tally.answered = reader_tally.answered;
    tally.shed = reader_tally.shed;
    tally.errors = reader_tally.errors;
    tally.lost = reader_tally.lost;
    tally.latency_ns = reader_tally.latency_ns;
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> NetReport {
        let latency = LatencySummary {
            count: 90,
            mean_ns: 1_000.5,
            p50_ns: 900,
            p90_ns: 1_500,
            p99_ns: 3_000,
            p999_ns: 4_000,
            max_ns: 5_000,
        };
        NetReport {
            clients: 3,
            arrival: "rate:200".to_string(),
            op: "dot-score".to_string(),
            models: 2,
            duration_secs: 0.5,
            sent: 100,
            answered: 90,
            shed: 8,
            errors: 1,
            lost: 1,
            qps: 180.0,
            latency: latency.clone(),
            classes: vec![
                ClassReport {
                    priority: "low".to_string(),
                    sent: 50,
                    answered: 42,
                    shed: 8,
                    errors: 0,
                    lost: 0,
                    latency: latency.clone(),
                },
                ClassReport {
                    priority: "high".to_string(),
                    sent: 50,
                    answered: 48,
                    shed: 0,
                    errors: 1,
                    lost: 1,
                    latency,
                },
            ],
        }
    }

    #[test]
    fn report_json_round_trip_is_exact() {
        let report = sample_report();
        assert_eq!(NetReport::from_json(&report.to_json()).unwrap(), report);
        assert_eq!(
            NetReport::from_json(&report.to_json_pretty()).unwrap(),
            report
        );
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = NetReport::from_json("{}").map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("classes"), "{err}");
        let text = sample_report()
            .to_json()
            .replace("\"classes\":", "\"classez\":");
        assert!(NetReport::from_json(&text).is_err());
    }

    #[test]
    fn report_percentiles_agree_with_the_scraped_histogram_to_a_bucket() {
        // The report's percentiles are exact order statistics `x`; the
        // scrape's `quantile_le` uses the same rank rule and reports the
        // bound of the telemetry bucket holding `x`: x ≤ le < x + x/16 + 1,
        // exact below 32. Six samples in ten land in that exact range, so
        // the median sits below 32 and the tail spans many octaves; the
        // short prefixes are where a different rank rule would show.
        let mut rng: StdRng = SeedSequence::new(16).child_rng(0);
        let stream: Vec<u64> = (0..20_000)
            .map(|_| match rng.gen_range(0..10) {
                0..=5 => rng.gen_range(0..32),
                _ => rng.next_u64() >> rng.gen_range(24..64u32),
            })
            .collect();
        for n in [2, 3, 5, 10, 100, stream.len()] {
            let mut samples = stream[..n].to_vec();
            let hist = asgd_telemetry::TelemetryHistogram::default();
            samples.iter().for_each(|&v| hist.record(v));
            let scraped = hist.snapshot();
            let exact = LatencySummary::from_samples(&mut samples);
            for (q, x) in [
                (0.5, exact.p50_ns),
                (0.9, exact.p90_ns),
                (0.99, exact.p99_ns),
                (0.999, exact.p999_ns),
                (1.0, exact.max_ns),
            ] {
                let le = scraped.quantile_le(q).unwrap();
                assert!(x <= le && le < x + x / 16 + 1, "n={n} q={q}: x={x} le={le}");
                if x < 32 {
                    assert_eq!(le, x, "n={n} q={q}");
                }
            }
            if n == stream.len() {
                assert!(exact.p50_ns < 32 && exact.p90_ns >= 32);
            }
        }
    }

    #[test]
    fn op_labels_parse_back() {
        for op in NetOp::all() {
            assert_eq!(op.label().parse::<NetOp>().unwrap(), *op);
            assert_eq!(op.to_string(), op.label());
        }
        assert!("bogus".parse::<NetOp>().is_err());
    }

    #[test]
    fn validation_rejects_broken_specs() {
        let ok = NetWorkloadSpec::new(vec![0]);
        assert!(ok.validate().is_ok());
        assert!(NetWorkloadSpec::new(vec![]).validate().is_err());
        assert!(NetWorkloadSpec::new(vec![0]).clients(0).validate().is_err());
        assert!(NetWorkloadSpec::new(vec![0])
            .duration_secs(0.0)
            .validate()
            .is_err());
        assert!(NetWorkloadSpec::new(vec![0])
            .arrival(Arrival::FixedRate { qps: f64::NAN })
            .validate()
            .is_err());
        assert!(NetWorkloadSpec::new(vec![0])
            .probe_len(0)
            .validate()
            .is_err());
        assert!(NetWorkloadSpec::new(vec![0])
            .priorities(vec![])
            .validate()
            .is_err());
        let e = WorkloadError::Invalid("nope".to_string());
        assert!(e.to_string().contains("nope"));
    }
}
