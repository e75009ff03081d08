//! [`NetServer`] — the TCP front-end: thread-per-connection serving over a
//! shared [`ModelRegistry`], with admission control, per-connection IO
//! timeouts, a bounded in-flight execution window, and SLO load shedding.
//!
//! Threading model: one nonblocking accept loop (polling a stop flag, so
//! shutdown needs no self-connect trick) plus one thread per admitted
//! connection. Each connection executes its requests serially — the
//! protocol is strictly request/response per connection — so the global
//! in-flight window is bounded by the connection budget, and tightened
//! further by [`NetConfig::max_inflight`].
//!
//! Overload behaviour is always *explicit*:
//!
//! * connection budget exhausted → one `AdmissionDenied` error frame,
//!   then the connection closes;
//! * in-flight window full → a `Busy` error frame (backpressure: the
//!   client retries);
//! * rolling p99 past the SLO → a `Shed` frame from the
//!   [`LoadShedder`], skipping the request's compute
//!   entirely (that skipped work is what lets admitted traffic recover);
//! * malformed or oversized frames → a typed error frame, never a panic.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use asgd_driver::{RunEvent, RunObserver};
use asgd_oracle::{IngressError, Observation};
use asgd_serve::{ModelEntry, ModelId, ModelRegistry, ReadMode, ServeError};

use crate::fault::{FaultPlan, FaultyStream};
use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameError, Request, RequestFrame, Response, StatsSelector,
    MAX_FRAME_LEN, MAX_SCRAPE_LEN,
};
use crate::shed::{LoadShedder, SloPolicy, Verdict};

/// How often blocked reads wake to poll the stop flag, and the floor for
/// user-supplied timeouts.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long a submit-observe may wait on a full `Block`-policy ingress
/// queue before the server answers `Overloaded` instead — a slow trainer
/// must never wedge a connection thread indefinitely.
const OBSERVE_ENQUEUE_TIMEOUT: Duration = Duration::from_millis(250);

/// Server configuration: bind address, robustness budgets, SLO policy.
#[derive(Clone)]
pub struct NetConfig {
    /// Bind address (`127.0.0.1:0` by default — loopback, ephemeral port).
    pub addr: String,
    /// Connection budget: accepts past this many live connections get an
    /// `AdmissionDenied` frame and an immediate close.
    pub max_connections: usize,
    /// Global bound on concurrently *executing* requests; arrivals past it
    /// get a `Busy` frame (backpressure, not denial — the connection
    /// stays open).
    pub max_inflight: usize,
    /// Close a connection that stays idle (no complete request frame) this
    /// long.
    pub idle_timeout: Duration,
    /// Per-connection write timeout: a peer that stops draining its socket
    /// is disconnected rather than wedging a server thread.
    pub write_timeout: Duration,
    /// The load-shedding policy (no SLO by default — shedding off).
    pub slo: SloPolicy,
    /// Fault injection on every admitted connection (passthrough by
    /// default). Each connection's faults are re-seeded from the accept
    /// counter, so a campaign seed reproduces the same churn.
    pub fault: FaultPlan,
    /// Structured-event observer for net-tier transitions: receives
    /// [`RunEvent::ShedTierChanged`] whenever the load shedder moves tier
    /// and [`RunEvent::QueueSaturated`] whenever a submit-observe is
    /// refused by a full ingress queue. `None` (the default) disables
    /// emission; wire a `TraceObserver` here to land these in the run's
    /// JSONL trace.
    pub observer: Option<Arc<dyn RunObserver>>,
}

impl std::fmt::Debug for NetConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetConfig")
            .field("addr", &self.addr)
            .field("max_connections", &self.max_connections)
            .field("max_inflight", &self.max_inflight)
            .field("idle_timeout", &self.idle_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("slo", &self.slo)
            .field("fault", &self.fault)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            max_inflight: 64,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            slo: SloPolicy::default(),
            fault: FaultPlan::passthrough(),
            observer: None,
        }
    }
}

impl NetConfig {
    /// Sets the bind address.
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the connection budget (clamped to ≥ 1).
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    /// Sets the in-flight execution window (clamped to ≥ 1).
    #[must_use]
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n.max(1);
        self
    }

    /// Sets the idle timeout.
    #[must_use]
    pub fn idle_timeout(mut self, t: Duration) -> Self {
        self.idle_timeout = t;
        self
    }

    /// Sets the write timeout.
    #[must_use]
    pub fn write_timeout(mut self, t: Duration) -> Self {
        self.write_timeout = t;
        self
    }

    /// Sets the SLO policy.
    #[must_use]
    pub fn slo(mut self, slo: SloPolicy) -> Self {
        self.slo = slo;
        self
    }

    /// Sets the fault-injection plan for admitted connections.
    #[must_use]
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Sets the structured-event observer for tier and queue transitions.
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn RunObserver>) -> Self {
        self.observer = Some(observer);
        self
    }
}

/// Monotonic counters shared by the accept loop and every connection.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    denied: AtomicU64,
    busy: AtomicU64,
    bad_frames: AtomicU64,
    active: AtomicUsize,
    inflight: AtomicUsize,
    /// The shedder tier as of the last executed request, so any connection
    /// thread can detect a transition edge and emit exactly one
    /// [`RunEvent::ShedTierChanged`] per change.
    last_tier: AtomicU8,
    /// Per-model scrape state: the shard-update counters and instant of the
    /// previous `stats-scrape`, differenced into per-shard update *rates*.
    /// Shared across connections so rates survive client reconnects.
    scrape: Mutex<HashMap<String, (Vec<u64>, Instant)>>,
}

/// A point-in-time statistics snapshot of a running server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and admitted.
    pub accepted: u64,
    /// Connections refused by admission control.
    pub denied: u64,
    /// Requests refused with `Busy` (in-flight window full).
    pub busy: u64,
    /// Malformed/oversized frames answered with an error.
    pub bad_frames: u64,
    /// Requests executed to completion.
    pub executed: u64,
    /// Requests refused by the load shedder.
    pub shed: u64,
    /// Currently live connections.
    pub active_connections: usize,
    /// The shedder's rolling p99 estimate, ns (`None` before warm-up).
    pub rolling_p99_ns: Option<u64>,
}

/// A running TCP serving front-end. Dropping the server stops it.
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    shedder: Arc<LoadShedder>,
    registry: Arc<ModelRegistry>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds the configured address and starts accepting.
    ///
    /// # Errors
    ///
    /// Whatever `TcpListener::bind` returns (address in use, permission).
    pub fn serve(registry: Arc<ModelRegistry>, config: NetConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let shedder = Arc::new(LoadShedder::new(config.slo));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let shedder = Arc::clone(&shedder);
            let registry = Arc::clone(&registry);
            let config = config.clone();
            std::thread::Builder::new()
                .name("asgd-net-accept".to_string())
                .spawn(move || {
                    accept_loop(&listener, &config, &stop, &counters, &shedder, &registry);
                })?
        };
        Ok(Self {
            local_addr,
            stop,
            counters,
            shedder,
            registry,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The address the server actually bound (resolves `:0` ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry this server answers queries from.
    #[must_use]
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The load shedder (for inspection; the server owns its updates).
    #[must_use]
    pub fn shedder(&self) -> &Arc<LoadShedder> {
        &self.shedder
    }

    /// A point-in-time statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            denied: self.counters.denied.load(Ordering::Relaxed),
            busy: self.counters.busy.load(Ordering::Relaxed),
            bad_frames: self.counters.bad_frames.load(Ordering::Relaxed),
            executed: self.shedder.executed_total(),
            shed: self.shedder.shed_total(),
            active_connections: self.counters.active.load(Ordering::Relaxed),
            rolling_p99_ns: self.shedder.rolling_p99_ns(),
        }
    }

    /// Stops accepting, disconnects every connection at its next poll tick,
    /// and joins the server threads. Idempotent. The registry (and its
    /// training runs) is left untouched — stopping the front-end never
    /// cancels training.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let handle = self
            .accept_thread
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accepts until the stop flag rises; joins every connection on the way
/// out.
fn accept_loop(
    listener: &TcpListener,
    config: &NetConfig,
    stop: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
    shedder: &Arc<LoadShedder>,
    registry: &Arc<ModelRegistry>,
) {
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                workers.retain(|w| !w.is_finished());
                let _ = stream.set_nodelay(true);
                let _ = stream.set_write_timeout(Some(config.write_timeout));
                if counters.active.load(Ordering::SeqCst) >= config.max_connections {
                    counters.denied.fetch_add(1, Ordering::Relaxed);
                    deny(stream);
                    continue;
                }
                let salt = counters.accepted.fetch_add(1, Ordering::Relaxed);
                counters.active.fetch_add(1, Ordering::SeqCst);
                let stream = FaultyStream::new(stream, config.fault.child(salt));
                let conn = Connection {
                    stop: Arc::clone(stop),
                    counters: Arc::clone(counters),
                    shedder: Arc::clone(shedder),
                    registry: Arc::clone(registry),
                    config: config.clone(),
                };
                let spawned = std::thread::Builder::new()
                    .name("asgd-net-conn".to_string())
                    .spawn(move || conn.run(stream));
                match spawned {
                    Ok(handle) => workers.push(handle),
                    Err(_) => {
                        // Out of threads: treat like an exhausted budget.
                        counters.active.fetch_sub(1, Ordering::SeqCst);
                        counters.denied.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    for w in workers {
        let _ = w.join();
    }
}

/// Best-effort `AdmissionDenied` frame on a connection we are refusing.
fn deny(mut stream: TcpStream) {
    let response = Response::Error {
        code: ErrorCode::AdmissionDenied,
        message: "connection budget exhausted, try again later".to_string(),
    };
    if let Ok(body) = response.encode() {
        let _ = write_frame(&mut stream, &body);
    }
}

/// Per-model per-connection read state: the version-cached snapshot and a
/// live-read scratch buffer, so the steady-state query path allocates
/// nothing once warm.
#[derive(Default)]
struct ModelCache {
    snap: Vec<f64>,
    snap_tag: Option<(u64, u64)>,
    live: Vec<f64>,
}

/// One admitted connection: serially decodes, admits, executes, replies.
struct Connection {
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    shedder: Arc<LoadShedder>,
    registry: Arc<ModelRegistry>,
    config: NetConfig,
}

impl Connection {
    fn run(self, mut stream: FaultyStream) {
        // Decrement `active` however this thread exits.
        struct ActiveGuard(Arc<Counters>);
        impl Drop for ActiveGuard {
            fn drop(&mut self) {
                self.0.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let _guard = ActiveGuard(Arc::clone(&self.counters));
        // Reads wake every POLL_INTERVAL to check the stop flag; the idle
        // timeout is enforced across consecutive wake-ups.
        let _ = stream.get_ref().set_read_timeout(Some(POLL_INTERVAL));
        let mut cache: HashMap<u32, ModelCache> = HashMap::new();
        let mut body = Vec::new();
        let mut idle_since = Instant::now();
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            match read_frame(&mut stream, &mut body, MAX_FRAME_LEN) {
                Ok(()) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if idle_since.elapsed() >= self.config.idle_timeout {
                        return; // idle disconnect
                    }
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    // Oversized length prefix: answer, then close — the
                    // stream's framing can no longer be trusted.
                    self.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                    let _ = self.respond(
                        &mut stream,
                        &Response::Error {
                            code: ErrorCode::BadRequest,
                            message: format!("oversized frame: {e}"),
                        },
                    );
                    return;
                }
                Err(_) => return, // peer closed or hard IO error
            }
            idle_since = Instant::now();
            let frame = match RequestFrame::decode(&body) {
                Ok(frame) => frame,
                Err(err) => {
                    self.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                    let fatal = matches!(err, FrameError::BadVersion(_));
                    let code = if fatal {
                        ErrorCode::VersionMismatch
                    } else {
                        ErrorCode::BadRequest
                    };
                    let ok = self.respond(
                        &mut stream,
                        &Response::Error {
                            code,
                            message: err.to_string(),
                        },
                    );
                    // Framing survived (the frame was complete, just
                    // malformed inside), so keep serving — except a
                    // version mismatch, which will never get better.
                    if fatal || !ok {
                        return;
                    }
                    continue;
                }
            };
            let response = self.admit_and_execute(&frame, &mut cache);
            if !self.respond(&mut stream, &response) {
                return;
            }
        }
    }

    /// Runs a decoded request through shedding, the in-flight window, and
    /// execution; always produces a response frame.
    fn admit_and_execute(
        &self,
        frame: &RequestFrame,
        cache: &mut HashMap<u32, ModelCache>,
    ) -> Response {
        match self.shedder.verdict(frame.priority) {
            Verdict::Shed { p99_ns, slo_ns } => Response::Shed {
                priority: frame.priority,
                p99_ns,
                slo_ns,
            },
            Verdict::Admit => {
                if self.counters.inflight.fetch_add(1, Ordering::SeqCst) >= self.config.max_inflight
                {
                    self.counters.inflight.fetch_sub(1, Ordering::SeqCst);
                    self.counters.busy.fetch_add(1, Ordering::Relaxed);
                    return Response::Error {
                        code: ErrorCode::Busy,
                        message: "in-flight request window full, retry".to_string(),
                    };
                }
                let started = Instant::now();
                let response = execute(self, frame, cache);
                self.counters.inflight.fetch_sub(1, Ordering::SeqCst);
                let elapsed = started.elapsed();
                self.shedder.record(elapsed);
                self.observe_execution(&response, elapsed);
                response
            }
        }
    }

    /// Records one executed request into the process-wide telemetry
    /// registry and emits a [`RunEvent::ShedTierChanged`] span on a tier
    /// transition edge. Both paths are a handful of relaxed atomic adds —
    /// cheap enough to run unconditionally.
    fn observe_execution(&self, response: &Response, elapsed: Duration) {
        let telemetry = asgd_telemetry::global();
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        telemetry.histogram("asgd_net_serve_latency_ns").record(ns);
        if let Response::Score {
            staleness: Some(s), ..
        }
        | Response::Values {
            staleness: Some(s), ..
        } = response
        {
            telemetry.histogram("asgd_net_serve_staleness").record(*s);
        }
        // `retier` runs inside `record`, so the freshest tier is visible
        // here; the swap makes exactly one thread own each edge.
        let tier = self.shedder.tier();
        if self.counters.last_tier.swap(tier, Ordering::Relaxed) != tier {
            if let Some(observer) = &self.config.observer {
                let slo_ns = self
                    .shedder
                    .policy()
                    .slo
                    .map_or(0, |slo| slo.as_nanos().min(u128::from(u64::MAX)) as u64);
                observer.on_event(&RunEvent::ShedTierChanged {
                    tier,
                    p99_ns: self.shedder.rolling_p99_ns().unwrap_or(0),
                    slo_ns,
                });
            }
        }
    }

    /// Writes one response frame; false when the connection is dead.
    fn respond(&self, stream: &mut FaultyStream, response: &Response) -> bool {
        let body = match response.encode() {
            Ok(body) => body,
            Err(e) => {
                // An unencodable response is a server bug surfaced to the
                // client as Internal rather than a silent close.
                match (Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("response encoding failed: {e}"),
                })
                .encode()
                {
                    Ok(body) => body,
                    Err(_) => return false,
                }
            }
        };
        write_frame(stream, &body)
            .and_then(|()| stream.flush())
            .is_ok()
    }
}

/// Executes one admitted request against the connection's registry.
/// Takes the whole [`Connection`] because stats-scrape reads the server
/// counters and shedder, and submit-observe refusals emit through the
/// configured observer.
fn execute(
    conn: &Connection,
    frame: &RequestFrame,
    cache: &mut HashMap<u32, ModelCache>,
) -> Response {
    let registry = &*conn.registry;
    match &frame.request {
        Request::DotScore { model, probe } => with_model(registry, *model, cache, |entry, c| {
            let reader = entry.service().reader();
            let d = reader.dimension();
            if let Some(&(idx, _)) = probe.iter().find(|(idx, _)| *idx as usize >= d) {
                return Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("probe index {idx} out of range (dimension {d})"),
                };
            }
            let use_snapshot = entry.mode() == ReadMode::Snapshot && c.refresh(&reader);
            let mut value = 0.0;
            for &(idx, weight) in probe {
                let xj = if use_snapshot {
                    c.snap[idx as usize]
                } else {
                    reader.read_entry(idx as usize)
                };
                value += weight * xj;
            }
            Response::Score {
                value,
                staleness: use_snapshot.then(|| c.staleness(&reader)).flatten(),
            }
        }),
        Request::Predict { model } => with_model(registry, *model, cache, |entry, c| {
            let reader = entry.service().reader();
            let use_snapshot = entry.mode() == ReadMode::Snapshot && c.refresh(&reader);
            let value = if use_snapshot {
                entry.service().oracle().objective(&c.snap)
            } else {
                c.live.resize(reader.dimension(), 0.0);
                reader.read_live(&mut c.live);
                entry.service().oracle().objective(&c.live)
            };
            Response::Score {
                value,
                staleness: use_snapshot.then(|| c.staleness(&reader)).flatten(),
            }
        }),
        Request::FetchRange { model, start, len } => {
            with_model(registry, *model, cache, |entry, c| {
                let reader = entry.service().reader();
                let d = reader.dimension();
                let (start, len) = (*start as usize, *len as usize);
                let Some(end) = start.checked_add(len).filter(|&end| end <= d) else {
                    return Response::Error {
                        code: ErrorCode::BadRequest,
                        message: format!(
                            "range [{start}, {start}+{len}) out of bounds (dimension {d})"
                        ),
                    };
                };
                let use_snapshot = entry.mode() == ReadMode::Snapshot && c.refresh(&reader);
                let values = if use_snapshot {
                    c.snap[start..end].to_vec()
                } else {
                    (start..end).map(|j| reader.read_entry(j)).collect()
                };
                Response::Values {
                    start: start as u32,
                    values,
                    staleness: use_snapshot.then(|| c.staleness(&reader)).flatten(),
                }
            })
        }
        Request::ModelStats { selector } => {
            let entry = match selector {
                StatsSelector::ById(id) => registry.lookup(ModelId(*id)),
                StatsSelector::ByName(name) => registry.attach(name),
            };
            match entry {
                Ok(entry) => Response::Stats(entry.stats()),
                Err(e) => serve_error_response(&e),
            }
        }
        Request::SubmitObserve {
            model,
            features,
            label,
        } => with_model(registry, *model, cache, |entry, _c| {
            let Some(queue) = entry.ingress() else {
                return Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("model {model} is not a streaming model (no ingress queue)"),
                };
            };
            let d = entry.service().dimension();
            if let Some(&(idx, _)) = features.iter().find(|(idx, _)| *idx as usize >= d) {
                return Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("feature index {idx} out of range (dimension {d})"),
                };
            }
            let obs = Observation::new(features.clone(), *label);
            // `Ingested` is the at-most-once anchor: it is sent only after
            // the push succeeded, so a client that never saw it knows the
            // observation *may* be queued (mid-frame disconnect) but a
            // typed refusal below means it definitely is not.
            match queue.push_timeout(obs, OBSERVE_ENQUEUE_TIMEOUT) {
                Ok(()) => Response::Ingested {
                    depth: queue.len() as u64,
                },
                Err(IngressError::Full { capacity }) => {
                    queue_saturated(conn, queue.len() as u64, capacity as u64);
                    Response::Error {
                        code: ErrorCode::Overloaded,
                        message: format!("ingress queue full ({capacity} capacity), not enqueued"),
                    }
                }
                Err(IngressError::Timeout) => {
                    queue_saturated(conn, queue.len() as u64, queue.capacity() as u64);
                    Response::Error {
                        code: ErrorCode::Overloaded,
                        message:
                            "ingress queue stayed full past the enqueue deadline, not enqueued"
                                .to_string(),
                    }
                }
                Err(IngressError::Closed) => Response::Error {
                    code: ErrorCode::NoSuchModel,
                    message: format!("model {model} ingress is closed (model dropping)"),
                },
            }
        }),
        Request::StatsScrape => scrape(conn),
    }
}

/// Emits a [`RunEvent::QueueSaturated`] span (when an observer is wired)
/// and bumps the saturation counter — a typed ingress refusal is exactly
/// the overload signal an operator wants on the trace timeline.
fn queue_saturated(conn: &Connection, depth: u64, capacity: u64) {
    asgd_telemetry::global()
        .counter("asgd_ingest_saturated_total")
        .inc();
    if let Some(observer) = &conn.config.observer {
        observer.on_event(&RunEvent::QueueSaturated { depth, capacity });
    }
}

/// Answers a `stats-scrape`: mirrors every tier's live state into the
/// process-wide [`asgd_telemetry::MetricsRegistry`], takes one validated
/// snapshot, and returns it rendered in the Prometheus text exposition
/// format.
///
/// Monotone sources (server counters, shedder totals, per-shard applied-
/// update counters, ingress queue counters) land in registry *counters*
/// via `record_total`, so series stay monotone across scrapes no matter
/// which connection thread answers. Point-in-time values (tier, p99,
/// depths, staleness) land in gauges. Per-shard update *rates* are
/// differenced against the previous scrape's counters, shared across
/// connections.
fn scrape(conn: &Connection) -> Response {
    let telemetry = asgd_telemetry::global();
    // Server-wide counters and gauges.
    let c = &conn.counters;
    telemetry
        .counter("asgd_net_accepted_total")
        .record_total(c.accepted.load(Ordering::Relaxed));
    telemetry
        .counter("asgd_net_denied_total")
        .record_total(c.denied.load(Ordering::Relaxed));
    telemetry
        .counter("asgd_net_busy_total")
        .record_total(c.busy.load(Ordering::Relaxed));
    telemetry
        .counter("asgd_net_bad_frames_total")
        .record_total(c.bad_frames.load(Ordering::Relaxed));
    telemetry
        .counter("asgd_net_executed_total")
        .record_total(conn.shedder.executed_total());
    telemetry
        .counter("asgd_net_shed_total")
        .record_total(conn.shedder.shed_total());
    telemetry
        .counter("asgd_net_shed_transitions_total")
        .record_total(conn.shedder.transitions());
    telemetry
        .gauge("asgd_net_active_connections")
        .set(c.active.load(Ordering::Relaxed) as f64);
    telemetry
        .gauge("asgd_net_inflight")
        .set(c.inflight.load(Ordering::Relaxed) as f64);
    telemetry
        .gauge("asgd_net_shed_tier")
        .set(f64::from(conn.shedder.tier()));
    telemetry
        .gauge("asgd_net_rolling_p99_ns")
        .set(conn.shedder.rolling_p99_ns().unwrap_or(0) as f64);
    // Per-model training and ingest state.
    let now = Instant::now();
    let mut prev = conn
        .counters
        .scrape
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for entry in conn.registry.list() {
        let stats = entry.stats();
        let model = &stats.name;
        telemetry
            .counter(&format!("asgd_model_iterations_total{{model=\"{model}\"}}"))
            .record_total(stats.iterations);
        telemetry
            .gauge(&format!("asgd_model_snapshots{{model=\"{model}\"}}"))
            .set(stats.snapshots as f64);
        if let Some(staleness) = stats.staleness {
            telemetry
                .gauge(&format!(
                    "asgd_model_snapshot_staleness{{model=\"{model}\"}}"
                ))
                .set(staleness as f64);
        }
        // Claim gap: iterations claimed by workers minus updates already
        // credited to the shards. A progress gap, not a delay: an
        // iteration applies one update per nonzero gradient entry.
        let applied: u64 = stats.shard_updates.iter().sum();
        telemetry
            .gauge(&format!("asgd_shard_claim_gap{{model=\"{model}\"}}"))
            .set(stats.iterations.saturating_sub(applied) as f64);
        let rates = prev.get(model.as_str()).map(|(prev_updates, at)| {
            let dt = now.duration_since(*at).as_secs_f64().max(1e-9);
            (prev_updates.clone(), dt)
        });
        for (shard, &updates) in stats.shard_updates.iter().enumerate() {
            telemetry
                .counter(&format!(
                    "asgd_shard_updates_total{{model=\"{model}\",shard=\"{shard}\"}}"
                ))
                .record_total(updates);
            let rate = rates.as_ref().map_or(0.0, |(prev_updates, dt)| {
                prev_updates
                    .get(shard)
                    .map_or(0.0, |&p| updates.saturating_sub(p) as f64 / dt)
            });
            telemetry
                .gauge(&format!(
                    "asgd_shard_update_rate{{model=\"{model}\",shard=\"{shard}\"}}"
                ))
                .set(rate);
        }
        prev.insert(model.clone(), (stats.shard_updates.clone(), now));
        if let Some(queue) = entry.ingress() {
            let q = queue.counters();
            telemetry
                .counter(&format!("asgd_ingest_pushed_total{{model=\"{model}\"}}"))
                .record_total(q.pushed());
            telemetry
                .counter(&format!("asgd_ingest_popped_total{{model=\"{model}\"}}"))
                .record_total(q.popped());
            telemetry
                .counter(&format!("asgd_ingest_dropped_total{{model=\"{model}\"}}"))
                .record_total(q.dropped());
            telemetry
                .counter(&format!("asgd_ingest_rejected_total{{model=\"{model}\"}}"))
                .record_total(q.rejected());
            telemetry
                .counter(&format!("asgd_ingest_starved_total{{model=\"{model}\"}}"))
                .record_total(q.starved());
            telemetry
                .gauge(&format!("asgd_ingest_queue_depth{{model=\"{model}\"}}"))
                .set(queue.len() as f64);
            telemetry
                .gauge(&format!("asgd_ingest_lag_mean{{model=\"{model}\"}}"))
                .set(q.snapshot().lag_mean());
        }
    }
    drop(prev);
    let text = asgd_telemetry::render(&telemetry.snapshot());
    if text.len() > MAX_SCRAPE_LEN {
        return Response::Error {
            code: ErrorCode::Internal,
            message: format!(
                "scrape text {} bytes exceeds the {MAX_SCRAPE_LEN}-byte frame budget",
                text.len()
            ),
        };
    }
    Response::ScrapeText { text }
}

/// Looks up `model`, pruning the connection cache when the model is gone
/// (a drop/create cycle must not leak stale per-model buffers).
fn with_model(
    registry: &ModelRegistry,
    model: u32,
    cache: &mut HashMap<u32, ModelCache>,
    f: impl FnOnce(&ModelEntry, &mut ModelCache) -> Response,
) -> Response {
    match registry.lookup(ModelId(model)) {
        Ok(entry) => f(&entry, cache.entry(model).or_default()),
        Err(e) => {
            cache.remove(&model);
            serve_error_response(&e)
        }
    }
}

/// Maps a registry error onto a wire error frame.
fn serve_error_response(e: &ServeError) -> Response {
    let code = match e {
        ServeError::NoSuchModel(_) | ServeError::NoSuchModelId(_) => ErrorCode::NoSuchModel,
        ServeError::InvalidSpec(_) | ServeError::DuplicateModel(_) => ErrorCode::BadRequest,
        _ => ErrorCode::Internal,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

impl ModelCache {
    /// Refreshes the cached snapshot if a newer version was published;
    /// false when nothing has been published yet (caller falls back to
    /// live reads).
    fn refresh(&mut self, reader: &asgd_driver::ModelReader) -> bool {
        let current = reader.snapshot_version();
        if current == 0 {
            return false;
        }
        if self.snap_tag.is_none_or(|(version, _)| version != current) {
            self.snap_tag = reader.snapshot_into(&mut self.snap);
        }
        self.snap_tag.is_some()
    }

    /// Staleness of the cached snapshot at this instant.
    fn staleness(&self, reader: &asgd_driver::ModelReader) -> Option<u64> {
        let (_, published_at) = self.snap_tag?;
        Some(reader.iterations().saturating_sub(published_at))
    }
}
