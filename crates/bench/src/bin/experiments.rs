//! Experiment CLI: paper-claim tables *and* spec-driven single runs.
//!
//! Table mode (regenerates the paper artifacts, as before):
//!
//! ```text
//! cargo run -p asgd-bench --release --bin experiments -- all
//! cargo run -p asgd-bench --release --bin experiments -- t51 t65
//! cargo run -p asgd-bench --release --bin experiments -- --quick all
//! ```
//!
//! Run mode (the unified driver from the command line — one `RunSpec`, any
//! backend, JSON out):
//!
//! ```text
//! cargo run -p asgd-bench --release --bin experiments -- run \
//!     --backend hogwild --oracle noisy-quadratic --dim 8 --threads 4 \
//!     --iterations 50000 --alpha 0.02 --seed 7 --json out.json
//! cargo run -p asgd-bench --release --bin experiments -- run --backend all --pretty
//! ```
//!
//! `--json PATH` writes the report; if `PATH` is a directory, files named
//! `BENCH_<backend>.json` are created inside it. Without `--json`, reports
//! print to stdout.
//!
//! Validate mode (the paper's bounds against live measurements — derives
//! step sizes/horizons/epoch budgets from the theory crate, runs a
//! backend × n × ε grid of multi-seed sweeps, and emits per-cell
//! bound-vs-measurement verdicts; the committed `BENCH_validation.json` is
//! its output):
//!
//! ```text
//! cargo run -p asgd-bench --release --bin experiments -- validate \
//!     --json BENCH_validation.json
//! cargo run -p asgd-bench --release --bin experiments -- validate --quick
//! ```
//!
//! Serve-net mode (the wire path: a multi-model registry behind a TCP
//! front-end, hammered by open- or closed-loop socket clients):
//!
//! ```text
//! cargo run -p asgd-bench --release --bin experiments -- serve-net \
//!     --models 2 --clients 8 --arrival rate:2000 --slo-ms 1 --pretty
//! ```
//!
//! Bench-check mode (the committed-artifact regression gate: re-measures
//! the serving, serving-net, sparse-path, and theory-validation grids and
//! fails on >30% regressions against `BENCH_serving.json` /
//! `BENCH_net.json` / `BENCH_sparse_path.json` / `BENCH_validation.json`,
//! and requires every drifted cell of `BENCH_ingest.json` — plus one
//! fresh live drift cell — to have recovered in finite time):
//!
//! ```text
//! cargo run -p asgd-bench --release --bin experiments -- bench-check
//! ```
//!
//! Chaos mode (the adversarial-robustness gate: bounded-preemption model
//! checking of the workspace's concurrent protocols — correct variants
//! must verify, seeded bugs must be caught with replayable minimized
//! traces — plus the zero-wrong-answers fault-injection net campaign):
//!
//! ```text
//! cargo run -p asgd-bench --release --bin experiments -- chaos
//! cargo run -p asgd-bench --release --bin experiments -- chaos \
//!     --suite net --seed 7 --clients 4 --requests 64
//! ```
//!
//! Stats mode (the observability scraper: issue the wire protocol's
//! stats-scrape opcode against a live server and print the Prometheus
//! text, or run the self-contained telemetry smoke gate):
//!
//! ```text
//! cargo run -p asgd-bench --release --bin experiments -- stats \
//!     --addr 127.0.0.1:7878
//! cargo run -p asgd-bench --release --bin experiments -- stats \
//!     --smoke --dim 8192 --artifacts bench-artifacts
//! ```

use asgd_bench::{experiment, experiment_ids};
use asgd_driver::validation::default_backends;
use asgd_driver::{
    run_spec, validate, BackendKind, Driver, DriverError, PinSpec, RunReport, RunSpec,
    SchedulerSpec, ShardsSpec, SparsePathSpec, ValidationPlan,
};
use asgd_metrics::table::fmt_f;
use asgd_metrics::Table;
use asgd_net::{
    run_net_workload, NetClient, NetConfig, NetOp, NetServer, NetWorkloadSpec, Priority, SloPolicy,
};
use asgd_oracle::{registry, OracleSpec};
use asgd_serve::ModelRegistry;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_mode(&args[1..]),
        Some("validate") => validate_mode(&args[1..]),
        Some("serve") => serve_mode(&args[1..]),
        Some("serve-net") => serve_net_mode(&args[1..]),
        Some("bench-check") => bench_check_mode(&args[1..]),
        Some("chaos") => chaos_mode(&args[1..]),
        Some("stats") => stats_mode(&args[1..]),
        _ => table_mode(args),
    }
}

// ------------------------------------------------- shared flag plumbing

/// Pulls a flag's value off the argument iterator, or prints the calling
/// mode's usage and exits.
fn flag_value<'a>(it: &mut std::slice::Iter<'a, String>, name: &str, usage: fn() -> !) -> &'a str {
    match it.next() {
        Some(v) => v,
        None => {
            eprintln!("error: {name} needs a value");
            usage();
        }
    }
}

/// [`flag_value`] + `FromStr`, with the uniform bad-value error (exit 2).
macro_rules! parse_flag {
    ($it:expr, $name:literal, $usage:path) => {{
        let raw = flag_value($it, $name, $usage);
        match raw.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("error: bad value `{raw}` for {}", $name);
                exit(2);
            }
        }
    }};
}

/// Parses a comma-separated list, trimming around each element.
fn parse_csv<T: std::str::FromStr>(raw: &str) -> Result<Vec<T>, T::Err> {
    raw.split(',').map(str::trim).map(str::parse).collect()
}

// ---------------------------------------------------------------- run mode

struct RunArgs {
    backend: String,
    oracle: OracleSpec,
    threads: usize,
    iterations: u64,
    alpha: f64,
    halving_epochs: Option<usize>,
    scheduler: SchedulerSpec,
    seed: u64,
    eps: Option<f64>,
    max_steps: Option<u64>,
    x0: Option<Vec<f64>>,
    sparse: SparsePathSpec,
    shards: ShardsSpec,
    pin: PinSpec,
    trajectory_every: Option<u64>,
    json: Option<PathBuf>,
    pretty: bool,
    parallel: bool,
}

fn usage_run() -> ! {
    eprintln!(
        "usage: experiments run [options]\n\
         \n\
         options (defaults in parentheses):\n\
         \x20 --backend NAME|all     execution model ({backends}; default hogwild)\n\
         \x20 --oracle KIND          workload ({oracles}; default noisy-quadratic)\n\
         \x20 --dim D                model dimension (4)\n\
         \x20 --sigma S              noise level (0.1)\n\
         \x20 --dataset M            dataset size for dataset oracles (500)\n\
         \x20 --batch B              minibatch size (32)\n\
         \x20 --lambda L             ridge coefficient (0.1)\n\
         \x20 --threads N            worker threads (2)\n\
         \x20 --iterations T         total iteration budget (10000)\n\
         \x20 --alpha A              learning rate (0.05)\n\
         \x20 --halving-epochs E     use Algorithm 2's halving schedule with E halvings\n\
         \x20 --scheduler SPEC       simulated scheduler: serial | round-robin |\n\
         \x20                        iteration-serial | random:SEED | delay:BUDGET |\n\
         \x20                        stale:DELAY (round-robin)\n\
         \x20 --seed S               master seed (0)\n\
         \x20 --eps EPS              success region threshold on ‖x−x*‖²\n\
         \x20 --x0 V1,V2,…           initial point (origin; must match --dim)\n\
         \x20 --max-steps K          simulated step cap\n\
         \x20 --sparse P             gradient path: auto | dense | sparse (auto)\n\
         \x20 --shards S             native parameter-store shards: auto | N (1)\n\
         \x20 --pin P                pin native workers to cores: on | off (off)\n\
         \x20 --trajectory-every K   record a trajectory sample every K iterations\n\
         \x20 --parallel             run multiple backends concurrently (Driver::run_many)\n\
         \x20 --json PATH            write JSON report(s); directory ⇒ BENCH_<backend>.json\n\
         \x20 --pretty               pretty-print JSON",
        backends = BackendKind::all()
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(" | "),
        oracles = registry::known_kinds().join(" | "),
    );
    exit(2);
}

fn run_mode(args: &[String]) {
    let parsed = parse_run_args(args);
    let mut spec = RunSpec::new(parsed.oracle.clone(), BackendKind::Hogwild)
        .threads(parsed.threads)
        .iterations(parsed.iterations)
        .seed(parsed.seed)
        .scheduler(parsed.scheduler)
        .sparse(parsed.sparse)
        .shards(parsed.shards)
        .pin(parsed.pin);
    spec = match parsed.halving_epochs {
        Some(epochs) => spec.halving(parsed.alpha, epochs),
        None => spec.learning_rate(parsed.alpha),
    };
    if let Some(eps) = parsed.eps {
        spec = spec.success_radius_sq(eps);
    }
    if let Some(steps) = parsed.max_steps {
        spec = spec.max_steps(steps);
    }
    if let Some(x0) = parsed.x0.clone() {
        spec = spec.x0(x0);
    }
    if let Some(stride) = parsed.trajectory_every {
        spec = spec.trajectory_every(stride);
    }

    let backends: Vec<BackendKind> = if parsed.backend == "all" {
        BackendKind::all().to_vec()
    } else {
        match parsed.backend.parse() {
            Ok(kind) => vec![kind],
            Err(e) => {
                eprintln!("{e}");
                exit(2);
            }
        }
    };

    let specs: Vec<RunSpec> = backends
        .iter()
        .map(|&backend| spec.clone().backend(backend))
        .collect();
    let outcomes: Vec<Result<RunReport, DriverError>> = if parsed.parallel {
        // The session driver's bounded pool: all backends at once, results
        // in spec order.
        Driver::new().run_many(&specs)
    } else {
        specs.iter().map(run_spec).collect()
    };

    let mut reports = Vec::new();
    for (backend, outcome) in backends.iter().zip(outcomes) {
        match outcome {
            Ok(report) => {
                eprintln!(
                    "[{}] T={} dist²={:.3e} wall={:.3}s{}{}",
                    report.backend,
                    report.iterations,
                    report.final_dist_sq,
                    report.wall_time_secs,
                    report
                        .hit_iteration
                        .map(|t| format!(" hit@{t}"))
                        .unwrap_or_default(),
                    report
                        .fingerprint
                        .map(|f| format!(" fp={f:016x}"))
                        .unwrap_or_default(),
                );
                reports.push(report);
            }
            Err(e) => {
                if parsed.backend == "all" {
                    eprintln!("[{backend}] skipped: {e}");
                } else {
                    eprintln!("error: {e}");
                    exit(1);
                }
            }
        }
    }
    if reports.is_empty() {
        eprintln!("error: no backend produced a report");
        exit(1);
    }
    emit_reports(&reports, parsed.json.as_deref(), parsed.pretty);
}

fn emit_reports(reports: &[RunReport], json: Option<&Path>, pretty: bool) {
    let render = |report: &RunReport| {
        if pretty {
            report.to_json_pretty()
        } else {
            report.to_json()
        }
    };
    match json {
        None => {
            for report in reports {
                println!("{}", render(report));
            }
        }
        Some(path) if path.is_dir() => {
            for report in reports {
                let file = path.join(format!("BENCH_{}.json", report.backend));
                if let Err(e) = std::fs::write(&file, render(report) + "\n") {
                    eprintln!("error: writing {}: {e}", file.display());
                    exit(1);
                }
                println!("[json] {}", file.display());
            }
        }
        Some(path) => {
            let payload = if reports.len() == 1 {
                render(&reports[0]) + "\n"
            } else {
                // An array of reports, preserving individual formatting.
                let items: Vec<String> = reports.iter().map(render).collect();
                format!("[{}]\n", items.join(","))
            };
            if let Err(e) = std::fs::write(path, payload) {
                eprintln!("error: writing {}: {e}", path.display());
                exit(1);
            }
            println!("[json] {}", path.display());
        }
    }
}

fn parse_run_args(args: &[String]) -> RunArgs {
    let mut parsed = RunArgs {
        backend: "hogwild".to_string(),
        oracle: OracleSpec::new("noisy-quadratic", 4),
        threads: 2,
        iterations: 10_000,
        alpha: 0.05,
        halving_epochs: None,
        scheduler: SchedulerSpec::RoundRobin,
        seed: 0,
        eps: None,
        max_steps: None,
        x0: None,
        sparse: SparsePathSpec::Auto,
        shards: ShardsSpec::default(),
        pin: PinSpec::Off,
        trajectory_every: None,
        json: None,
        pretty: false,
        parallel: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--backend" => parsed.backend = flag_value(&mut it, "--backend", usage_run).to_string(),
            "--oracle" => {
                parsed.oracle.kind = flag_value(&mut it, "--oracle", usage_run).to_string()
            }
            "--dim" => parsed.oracle.dim = parse_flag!(&mut it, "--dim", usage_run),
            "--sigma" => parsed.oracle.sigma = parse_flag!(&mut it, "--sigma", usage_run),
            "--dataset" => parsed.oracle.dataset = parse_flag!(&mut it, "--dataset", usage_run),
            "--batch" => parsed.oracle.batch = parse_flag!(&mut it, "--batch", usage_run),
            "--lambda" => parsed.oracle.lambda = parse_flag!(&mut it, "--lambda", usage_run),
            "--threads" => parsed.threads = parse_flag!(&mut it, "--threads", usage_run),
            "--iterations" => parsed.iterations = parse_flag!(&mut it, "--iterations", usage_run),
            "--alpha" => parsed.alpha = parse_flag!(&mut it, "--alpha", usage_run),
            "--halving-epochs" => {
                parsed.halving_epochs = Some(parse_flag!(&mut it, "--halving-epochs", usage_run));
            }
            "--scheduler" => {
                let raw = flag_value(&mut it, "--scheduler", usage_run);
                parsed.scheduler = match raw.parse() {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: {e}");
                        exit(2);
                    }
                };
            }
            "--seed" => parsed.seed = parse_flag!(&mut it, "--seed", usage_run),
            "--eps" => parsed.eps = Some(parse_flag!(&mut it, "--eps", usage_run)),
            "--x0" => {
                let raw = flag_value(&mut it, "--x0", usage_run);
                match parse_csv(raw) {
                    Ok(x0) => parsed.x0 = Some(x0),
                    Err(_) => {
                        eprintln!("error: bad value `{raw}` for --x0 (want V1,V2,…)");
                        exit(2);
                    }
                }
            }
            "--max-steps" => {
                parsed.max_steps = Some(parse_flag!(&mut it, "--max-steps", usage_run))
            }
            "--sparse" => parsed.sparse = parse_flag!(&mut it, "--sparse", usage_run),
            "--shards" => parsed.shards = parse_flag!(&mut it, "--shards", usage_run),
            "--pin" => parsed.pin = parse_flag!(&mut it, "--pin", usage_run),
            "--trajectory-every" => {
                parsed.trajectory_every =
                    Some(parse_flag!(&mut it, "--trajectory-every", usage_run));
            }
            "--json" => parsed.json = Some(PathBuf::from(flag_value(&mut it, "--json", usage_run))),
            "--pretty" => parsed.pretty = true,
            "--parallel" => parsed.parallel = true,
            "--help" | "-h" => usage_run(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage_run();
            }
        }
    }
    parsed
}

// ------------------------------------------------------------ serve mode

fn usage_serve() -> ! {
    eprintln!(
        "usage: experiments serve [options]\n\
         \n\
         Starts a hogwild training run and serves it: N client threads read\n\
         the live shared model (or its published snapshots) while training\n\
         mutates it underneath, then prints the ServeReport (latency\n\
         percentiles, throughput, snapshot staleness, training report).\n\
         \n\
         options (defaults in parentheses):\n\
         \x20 --oracle KIND          workload ({oracles}; default sparse-quadratic)\n\
         \x20 --dim D                model dimension (4096)\n\
         \x20 --sigma S              noise level (0.0)\n\
         \x20 --threads N            trainer threads (2)\n\
         \x20 --iterations T         training budget (effectively unbounded)\n\
         \x20 --alpha A              learning rate (0.5/d)\n\
         \x20 --seed S               training master seed (0)\n\
         \x20 --mode M               read mode: live | snapshot (snapshot)\n\
         \x20 --query Q              query kind: dot-score | predict | fetch (dot-score)\n\
         \x20 --arrival A            closed-loop | rate:QPS per client (closed-loop)\n\
         \x20 --clients N            client threads (4)\n\
         \x20 --duration SECS        serving window (1.0)\n\
         \x20 --publish-every K      snapshot publication stride (2048)\n\
         \x20 --probe K              dot-score probe support (8)\n\
         \x20 --serve-seed S         client RNG master seed (0xCAFE)\n\
         \x20 --json PATH            write the ServeReport JSON\n\
         \x20 --pretty               pretty-print JSON",
        oracles = registry::known_kinds().join(" | "),
    );
    exit(2);
}

fn serve_mode(args: &[String]) {
    let mut oracle = OracleSpec::new("sparse-quadratic", 4096).sigma(0.0);
    let mut threads = 2_usize;
    let mut iterations = u64::MAX / 2;
    let mut alpha: Option<f64> = None;
    let mut seed = 0_u64;
    let mut mode = asgd_serve::ReadMode::Snapshot;
    let mut query = asgd_serve::QueryKind::DotScore;
    let mut arrival = asgd_serve::Arrival::ClosedLoop;
    let mut clients = 4_usize;
    let mut duration = 1.0_f64;
    let mut publish_every = 2_048_u64;
    let mut probe = 8_usize;
    let mut serve_seed = 0xCAFE_u64;
    let mut json: Option<PathBuf> = None;
    let mut pretty = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--oracle" => oracle.kind = flag_value(&mut it, "--oracle", usage_serve).to_string(),
            "--dim" => oracle.dim = parse_flag!(&mut it, "--dim", usage_serve),
            "--sigma" => oracle.sigma = parse_flag!(&mut it, "--sigma", usage_serve),
            "--dataset" => oracle.dataset = parse_flag!(&mut it, "--dataset", usage_serve),
            "--batch" => oracle.batch = parse_flag!(&mut it, "--batch", usage_serve),
            "--lambda" => oracle.lambda = parse_flag!(&mut it, "--lambda", usage_serve),
            "--threads" => threads = parse_flag!(&mut it, "--threads", usage_serve),
            "--iterations" => iterations = parse_flag!(&mut it, "--iterations", usage_serve),
            "--alpha" => alpha = Some(parse_flag!(&mut it, "--alpha", usage_serve)),
            "--seed" => seed = parse_flag!(&mut it, "--seed", usage_serve),
            "--mode" => mode = parse_serve_flag(flag_value(&mut it, "--mode", usage_serve)),
            "--query" => query = parse_serve_flag(flag_value(&mut it, "--query", usage_serve)),
            "--arrival" => {
                arrival = parse_serve_flag(flag_value(&mut it, "--arrival", usage_serve));
            }
            "--clients" => clients = parse_flag!(&mut it, "--clients", usage_serve),
            "--duration" => duration = parse_flag!(&mut it, "--duration", usage_serve),
            "--publish-every" => {
                publish_every = parse_flag!(&mut it, "--publish-every", usage_serve);
            }
            "--probe" => probe = parse_flag!(&mut it, "--probe", usage_serve),
            "--serve-seed" => serve_seed = parse_flag!(&mut it, "--serve-seed", usage_serve),
            "--json" => json = Some(PathBuf::from(flag_value(&mut it, "--json", usage_serve))),
            "--pretty" => pretty = true,
            "--help" | "-h" => usage_serve(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage_serve();
            }
        }
    }
    let alpha = alpha.unwrap_or(0.5 / oracle.dim as f64);
    let train = RunSpec::new(oracle.clone(), BackendKind::Hogwild)
        .threads(threads)
        .iterations(iterations)
        .learning_rate(alpha)
        .x0(vec![1.0; oracle.dim])
        .seed(seed);
    let spec = asgd_serve::ServeSpec::new(train)
        .mode(mode)
        .query(query)
        .arrival(arrival)
        .clients(clients)
        .duration_secs(duration)
        .publish_every(publish_every)
        .probe_len(probe)
        .serve_seed(serve_seed);
    let report = match spec.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };
    eprintln!(
        "[serve] {} clients={} mode={} queries={} qps={:.0} p50={:.1}µs p99={:.1}µs p999={:.1}µs{} train: T={} ({:.0} iters/s)",
        report.query,
        report.clients,
        report.mode,
        report.queries,
        report.qps,
        report.latency.p50_ns as f64 / 1e3,
        report.latency.p99_ns as f64 / 1e3,
        report.latency.p999_ns as f64 / 1e3,
        report
            .staleness
            .as_ref()
            .map(|s| format!(" staleness avg={:.0} max={}", s.mean, s.max))
            .unwrap_or_default(),
        report.train.iterations,
        report.train.iterations_per_sec(),
    );
    let payload = if pretty {
        report.to_json_pretty()
    } else {
        report.to_json()
    };
    match json {
        None => println!("{payload}"),
        Some(path) => {
            if let Err(e) = std::fs::write(&path, payload + "\n") {
                eprintln!("error: writing {}: {e}", path.display());
                exit(1);
            }
            println!("[json] {}", path.display());
        }
    }
}

/// Parses a serve-mode enum flag (`ReadMode`/`QueryKind`/`Arrival`),
/// exiting with the error's own message (it lists the known labels).
fn parse_serve_flag<T: std::str::FromStr<Err = asgd_serve::ServeError>>(raw: &str) -> T {
    match raw.parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    }
}

// -------------------------------------------------------- serve-net mode

fn usage_serve_net() -> ! {
    eprintln!(
        "usage: experiments serve-net [options]\n\
         \n\
         Hosts N hogwild training runs in a ModelRegistry behind the TCP\n\
         wire protocol, drives them with socket clients over loopback, and\n\
         prints the per-priority NetReport plus the server's own counters\n\
         (admissions, busy rejections, shed requests, rolling p99).\n\
         \n\
         options (defaults in parentheses):\n\
         \x20 --oracle KIND          workload ({oracles}; default sparse-quadratic)\n\
         \x20 --dim D                model dimension (4096)\n\
         \x20 --sigma S              noise level (0.0)\n\
         \x20 --models N             hosted models, named model-0… (1)\n\
         \x20 --threads N            trainer threads per model (1)\n\
         \x20 --iterations T         training budget (effectively unbounded)\n\
         \x20 --alpha A              learning rate (0.5/d)\n\
         \x20 --seed S               training master seed (0x5E1F00D + model index)\n\
         \x20 --mode M               read mode: live | snapshot (snapshot)\n\
         \x20 --publish-every K      snapshot publication stride (2048)\n\
         \x20 --op OP                request op: dot-score | predict | fetch-range (dot-score)\n\
         \x20 --arrival A            closed-loop | rate:QPS per client (closed-loop)\n\
         \x20 --clients N            client connections (4)\n\
         \x20 --duration SECS        serving window (1.0)\n\
         \x20 --probe K              dot-score probe support (8)\n\
         \x20 --fetch K              fetch-range length (16)\n\
         \x20 --priorities CSV       client priority classes, round-robin over\n\
         \x20                        clients: low,normal,high (normal)\n\
         \x20 --serve-seed S         client RNG master seed (0xE75EED)\n\
         \x20 --slo-ms MS            executed-request p99 objective; enables\n\
         \x20                        SLO load shedding (off)\n\
         \x20 --shed-trigger R       shed at R x the SLO, 0 < R <= 1: headroom\n\
         \x20                        so the settled p99 lands inside the\n\
         \x20                        objective, not at it (1.0)\n\
         \x20 --max-connections N    admission-control connection budget (64)\n\
         \x20 --max-inflight N       bounded in-flight window (64)\n\
         \x20 --addr HOST:PORT       bind address (127.0.0.1:0)\n\
         \x20 --json PATH            write the NetReport JSON\n\
         \x20 --pretty               pretty-print JSON",
        oracles = registry::known_kinds().join(" | "),
    );
    exit(2);
}

#[allow(clippy::too_many_lines)]
fn serve_net_mode(args: &[String]) {
    let mut oracle = OracleSpec::new("sparse-quadratic", 4096).sigma(0.0);
    let mut models = 1_usize;
    let mut threads = 1_usize;
    let mut iterations = u64::MAX / 2;
    let mut alpha: Option<f64> = None;
    let mut seed = 0x5E1_F00D_u64;
    let mut mode = asgd_serve::ReadMode::Snapshot;
    let mut publish_every = 2_048_u64;
    let mut op = NetOp::DotScore;
    let mut arrival = asgd_serve::Arrival::ClosedLoop;
    let mut clients = 4_usize;
    let mut duration = 1.0_f64;
    let mut probe = 8_usize;
    let mut fetch = 16_u32;
    let mut priorities = vec![Priority::Normal];
    let mut serve_seed = 0x00E7_5EED_u64;
    let mut slo_ms: Option<f64> = None;
    let mut shed_trigger = 1.0_f64;
    let mut config = NetConfig::default();
    let mut json: Option<PathBuf> = None;
    let mut pretty = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--oracle" => {
                oracle.kind = flag_value(&mut it, "--oracle", usage_serve_net).to_string();
            }
            "--dim" => oracle.dim = parse_flag!(&mut it, "--dim", usage_serve_net),
            "--sigma" => oracle.sigma = parse_flag!(&mut it, "--sigma", usage_serve_net),
            "--dataset" => oracle.dataset = parse_flag!(&mut it, "--dataset", usage_serve_net),
            "--batch" => oracle.batch = parse_flag!(&mut it, "--batch", usage_serve_net),
            "--lambda" => oracle.lambda = parse_flag!(&mut it, "--lambda", usage_serve_net),
            "--models" => models = parse_flag!(&mut it, "--models", usage_serve_net),
            "--threads" => threads = parse_flag!(&mut it, "--threads", usage_serve_net),
            "--iterations" => iterations = parse_flag!(&mut it, "--iterations", usage_serve_net),
            "--alpha" => alpha = Some(parse_flag!(&mut it, "--alpha", usage_serve_net)),
            "--seed" => seed = parse_flag!(&mut it, "--seed", usage_serve_net),
            "--mode" => mode = parse_serve_flag(flag_value(&mut it, "--mode", usage_serve_net)),
            "--publish-every" => {
                publish_every = parse_flag!(&mut it, "--publish-every", usage_serve_net);
            }
            "--op" => op = parse_flag!(&mut it, "--op", usage_serve_net),
            "--arrival" => {
                arrival = parse_serve_flag(flag_value(&mut it, "--arrival", usage_serve_net));
            }
            "--clients" => clients = parse_flag!(&mut it, "--clients", usage_serve_net),
            "--duration" => duration = parse_flag!(&mut it, "--duration", usage_serve_net),
            "--probe" => probe = parse_flag!(&mut it, "--probe", usage_serve_net),
            "--fetch" => fetch = parse_flag!(&mut it, "--fetch", usage_serve_net),
            "--priorities" => {
                let raw = flag_value(&mut it, "--priorities", usage_serve_net);
                match parse_csv(raw) {
                    Ok(list) => priorities = list,
                    Err(e) => {
                        eprintln!("error: {e}");
                        exit(2);
                    }
                }
            }
            "--serve-seed" => serve_seed = parse_flag!(&mut it, "--serve-seed", usage_serve_net),
            "--slo-ms" => slo_ms = Some(parse_flag!(&mut it, "--slo-ms", usage_serve_net)),
            "--shed-trigger" => {
                shed_trigger = parse_flag!(&mut it, "--shed-trigger", usage_serve_net);
            }
            "--max-connections" => {
                config = config.max_connections(parse_flag!(
                    &mut it,
                    "--max-connections",
                    usage_serve_net
                ));
            }
            "--max-inflight" => {
                config =
                    config.max_inflight(parse_flag!(&mut it, "--max-inflight", usage_serve_net));
            }
            "--addr" => config = config.addr(flag_value(&mut it, "--addr", usage_serve_net)),
            "--json" => {
                json = Some(PathBuf::from(flag_value(
                    &mut it,
                    "--json",
                    usage_serve_net,
                )))
            }
            "--pretty" => pretty = true,
            "--help" | "-h" => usage_serve_net(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage_serve_net();
            }
        }
    }
    if let Some(ms) = slo_ms {
        if !ms.is_finite() || ms <= 0.0 {
            eprintln!("error: --slo-ms must be positive");
            exit(2);
        }
        if !shed_trigger.is_finite() || shed_trigger <= 0.0 || shed_trigger > 1.0 {
            eprintln!("error: --shed-trigger must be in (0, 1]");
            exit(2);
        }
        config = config.slo(SloPolicy {
            trigger_ratio: shed_trigger,
            ..SloPolicy::with_slo(Duration::from_secs_f64(ms / 1e3))
        });
    }

    let alpha = alpha.unwrap_or(0.5 / oracle.dim as f64);
    let model_registry = Arc::new(ModelRegistry::new());
    let mut ids = Vec::new();
    for m in 0..models {
        let train = RunSpec::new(oracle.clone(), BackendKind::Hogwild)
            .threads(threads)
            .iterations(iterations)
            .learning_rate(alpha)
            .x0(vec![1.0; oracle.dim])
            .seed(seed + m as u64);
        match model_registry.create(&format!("model-{m}"), &train, mode, publish_every) {
            Ok(id) => ids.push(id.0),
            Err(e) => {
                eprintln!("error: creating model-{m}: {e}");
                exit(1);
            }
        }
    }
    let server = match NetServer::serve(Arc::clone(&model_registry), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: binding server: {e}");
            model_registry.shutdown();
            exit(1);
        }
    };
    eprintln!(
        "[serve-net] listening on {} ({} model(s), mode={})",
        server.local_addr(),
        models,
        mode.label(),
    );
    let spec = NetWorkloadSpec::new(ids)
        .clients(clients)
        .duration_secs(duration)
        .arrival(arrival)
        .op(op)
        .probe_len(probe)
        .fetch_len(fetch)
        .priorities(priorities)
        .seed(serve_seed);
    let report = match run_net_workload(server.local_addr(), &spec) {
        Ok(report) => report,
        Err(e) => {
            server.stop();
            model_registry.shutdown();
            eprintln!("error: {e}");
            exit(1);
        }
    };
    let stats = server.stats();
    server.stop();
    model_registry.shutdown();
    eprintln!(
        "[serve-net] {} clients={} sent={} answered={} shed={} errors={} lost={} qps={:.0} p50={:.1}µs p99={:.1}µs",
        report.op,
        report.clients,
        report.sent,
        report.answered,
        report.shed,
        report.errors,
        report.lost,
        report.qps,
        report.latency.p50_ns as f64 / 1e3,
        report.latency.p99_ns as f64 / 1e3,
    );
    for class in &report.classes {
        eprintln!(
            "[serve-net]   class {}: sent={} answered={} shed={} p99={:.1}µs",
            class.priority,
            class.sent,
            class.answered,
            class.shed,
            class.latency.p99_ns as f64 / 1e3,
        );
    }
    eprintln!(
        "[serve-net] server: accepted={} denied={} busy={} bad_frames={} executed={} shed={} rolling_p99={}",
        stats.accepted,
        stats.denied,
        stats.busy,
        stats.bad_frames,
        stats.executed,
        stats.shed,
        stats
            .rolling_p99_ns
            .map_or_else(|| "-".to_string(), |ns| format!("{:.1}µs", ns as f64 / 1e3)),
    );
    let payload = if pretty {
        report.to_json_pretty()
    } else {
        report.to_json()
    };
    match json {
        None => println!("{payload}"),
        Some(path) => {
            if let Err(e) = std::fs::write(&path, payload + "\n") {
                eprintln!("error: writing {}: {e}", path.display());
                exit(1);
            }
            println!("[json] {}", path.display());
        }
    }
}

// ------------------------------------------------------ bench-check mode

fn usage_bench_check() -> ! {
    eprintln!(
        "usage: experiments bench-check [options]\n\
         \n\
         Re-runs the quick `serving` and `serving-net` sweeps and compares\n\
         every cell both grids measured against the committed artifacts\n\
         (BENCH_serving.json, BENCH_net.json). Exits non-zero when answered\n\
         throughput drops, or p99 latency rises, past the tolerance. Also\n\
         gates the sparse-path and validation artifacts, and the ingest\n\
         artifact (every committed drifted cell, and one fresh live drift\n\
         cell, must have recovered in finite time).\n\
         \n\
         options (defaults in parentheses):\n\
         \x20 --dir PATH        directory holding the committed artifacts (.)\n\
         \x20 --tolerance F     allowed fractional regression (0.30)",
    );
    exit(2);
}

fn bench_check_mode(args: &[String]) {
    let mut dir = PathBuf::from(".");
    let mut tolerance = asgd_bench::check::DEFAULT_TOLERANCE;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dir" => dir = PathBuf::from(flag_value(&mut it, "--dir", usage_bench_check)),
            "--tolerance" => tolerance = parse_flag!(&mut it, "--tolerance", usage_bench_check),
            "--help" | "-h" => usage_bench_check(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage_bench_check();
            }
        }
    }
    if !(0.0..1.0).contains(&tolerance) {
        eprintln!("error: --tolerance must be in [0, 1)");
        exit(2);
    }
    let report = asgd_bench::check::run_bench_check(&dir, tolerance);
    print!("{}", report.render());
    if !report.passed() {
        exit(1);
    }
}

// -------------------------------------------------------------- chaos mode

fn usage_chaos() -> ! {
    eprintln!(
        "usage: experiments chaos [options]\n\
         \n\
         Adversarial-robustness gate. The `explore` suite model-checks the\n\
         workspace's concurrent protocols (snapshot seqlock, AtomicF64 CAS\n\
         loop, registry lifecycle, ingress queue under every backpressure\n\
         policy, the telemetry registry's striped-cell validated collect,\n\
         the executors' per-worker stop check) over every schedule within\n\
         a preemption\n\
         bound: the shipped protocols must verify, and deliberately seeded\n\
         bugs must be caught with minimized traces that replay to the\n\
         identical violation. The `net` suite runs the fault-injection\n\
         campaign against a live server and fails on any wrong answer.\n\
         Counterexample traces are written to the artifact directory.\n\
         \n\
         options (defaults in parentheses):\n\
         \x20 --suite NAME      explore | net | all (all)\n\
         \x20 --bound K         explorer preemption bound (2)\n\
         \x20 --seed S          net campaign seed (3405691582)\n\
         \x20 --clients N       net campaign client threads (4)\n\
         \x20 --requests N      net campaign requests per client (48)\n\
         \x20 --artifacts DIR   counterexample trace directory (chaos-artifacts)",
    );
    exit(2);
}

/// Writes a counterexample trace artifact and prints how to replay it.
fn write_trace(dir: &Path, name: &str, cex: &asgd_chaos::Counterexample) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("chaos: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.trace"));
    let body = format!(
        "model: {name}\nviolation: {}\nviolation_step: {}\npreemptions: {}\nschedule: {}\n",
        cex.violation.message,
        cex.violation.step,
        cex.preemptions,
        cex.artifact()
    );
    match std::fs::write(&path, body) {
        Ok(()) => println!(
            "  trace -> {} (decode_schedule + asgd_chaos::replay reproduces it)",
            path.display()
        ),
        Err(e) => eprintln!("chaos: cannot write {}: {e}", path.display()),
    }
}

/// Runs one explorer cell: a protocol that must verify (`expect_bug =
/// false`) or a seeded-bug variant that must be caught with a replayable
/// minimized trace (`expect_bug = true`). Returns whether the cell passed.
fn chaos_explore_cell<P: asgd_chaos::Schedulable>(
    name: &str,
    protocol: &P,
    bound: usize,
    expect_bug: bool,
    artifacts: &Path,
) -> bool {
    let report = asgd_chaos::Explorer::with_bound(bound).explore(protocol);
    match (&report.counterexample, expect_bug) {
        (None, false) => {
            if report.truncated {
                println!(
                    "FAIL {name}: search truncated at {} schedules",
                    report.schedules
                );
                return false;
            }
            println!(
                "  ok  {name}: verified over {} schedules ({} steps, bound {bound})",
                report.schedules, report.steps
            );
            true
        }
        (None, true) => {
            println!("FAIL {name}: seeded bug escaped the explorer (bound {bound})");
            false
        }
        (Some(cex), expect) => {
            let replayed = asgd_chaos::replay(protocol, &cex.trace);
            let reproduces =
                replayed == Err(asgd_chaos::ReplayOutcome::Violation(cex.violation.clone()));
            if expect {
                println!(
                    "  ok  {name}: caught `{}` in {} steps / {} preemption(s); replay {}",
                    cex.violation.message,
                    cex.trace.len(),
                    cex.preemptions,
                    if reproduces { "identical" } else { "DIVERGED" }
                );
            } else {
                println!("FAIL {name}: counterexample `{}`", cex.violation.message);
            }
            write_trace(artifacts, name, cex);
            expect && reproduces
        }
    }
}

fn chaos_mode(args: &[String]) {
    use asgd_chaos::{
        AddMode, AtomicAddModel, CollectMode, FenceMode, IngestQueueModel, LenMode, PollMode,
        RegistryMode, RegistryModel, ScanMode, ShardedCounterModel, SnapshotModel, StopCheckModel,
        TelemetryCellModel,
    };
    use asgd_oracle::BackpressurePolicy;

    let mut suite = "all".to_string();
    let mut bound = 2usize;
    let mut seed = 0xCAFE_BABE_u64;
    let mut clients: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut artifacts = PathBuf::from("chaos-artifacts");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--suite" => suite = flag_value(&mut it, "--suite", usage_chaos).to_string(),
            "--bound" => bound = parse_flag!(&mut it, "--bound", usage_chaos),
            "--seed" => seed = parse_flag!(&mut it, "--seed", usage_chaos),
            "--clients" => clients = Some(parse_flag!(&mut it, "--clients", usage_chaos)),
            "--requests" => requests = Some(parse_flag!(&mut it, "--requests", usage_chaos)),
            "--artifacts" => {
                artifacts = PathBuf::from(flag_value(&mut it, "--artifacts", usage_chaos));
            }
            "--help" | "-h" => usage_chaos(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage_chaos();
            }
        }
    }
    if !matches!(suite.as_str(), "explore" | "net" | "all") {
        eprintln!("error: --suite must be explore, net, or all");
        exit(2);
    }

    let mut failed = false;

    if suite != "net" {
        println!("explore suite (preemption bound {bound}):");
        // The shipped protocols: every schedule within the bound must hold.
        failed |= !chaos_explore_cell(
            "snapshot-correct",
            &SnapshotModel::buffer_reuse(FenceMode::Correct),
            bound,
            false,
            &artifacts,
        );
        failed |= !chaos_explore_cell(
            "atomic-cas",
            &AtomicAddModel::two_by_two(AddMode::Cas),
            bound,
            false,
            &artifacts,
        );
        failed |= !chaos_explore_cell(
            "registry-locked",
            &RegistryModel::name_race(RegistryMode::Locked),
            bound,
            false,
            &artifacts,
        );
        for (name, policy) in [
            ("ingest-queue-block", BackpressurePolicy::Block),
            ("ingest-queue-drop-oldest", BackpressurePolicy::DropOldest),
            ("ingest-queue-reject", BackpressurePolicy::Reject),
        ] {
            failed |= !chaos_explore_cell(
                name,
                &IngestQueueModel::churning(policy, LenMode::Atomic),
                bound,
                false,
                &artifacts,
            );
        }
        failed |= !chaos_explore_cell(
            "sharded-counters",
            &ShardedCounterModel::churning(ScanMode::Coherent),
            bound,
            false,
            &artifacts,
        );
        failed |= !chaos_explore_cell(
            "telemetry-collect-validated",
            &TelemetryCellModel::churning(CollectMode::Validated),
            bound,
            false,
            &artifacts,
        );
        failed |= !chaos_explore_cell(
            "stop-check-worker-local",
            &StopCheckModel::two_workers(PollMode::WorkerLocal),
            bound,
            false,
            &artifacts,
        );
        // Seeded bugs: the explorer must catch each one, and the minimized
        // trace must replay to the identical violation.
        failed |= !chaos_explore_cell(
            "snapshot-weak-fence",
            &SnapshotModel::buffer_reuse(FenceMode::WeakPublish),
            bound,
            true,
            &artifacts,
        );
        failed |= !chaos_explore_cell(
            "atomic-blind-store",
            &AtomicAddModel::two_by_two(AddMode::BlindStore),
            bound,
            true,
            &artifacts,
        );
        failed |= !chaos_explore_cell(
            "registry-split-check",
            &RegistryModel::name_race(RegistryMode::SplitCheck),
            bound,
            true,
            &artifacts,
        );
        failed |= !chaos_explore_cell(
            "ingest-queue-split-check",
            &IngestQueueModel::contended(BackpressurePolicy::Block, LenMode::SplitCheck),
            bound,
            true,
            &artifacts,
        );
        failed |= !chaos_explore_cell(
            "sharded-counters-split-read",
            &ShardedCounterModel::contended(ScanMode::SplitRead),
            bound,
            true,
            &artifacts,
        );
        failed |= !chaos_explore_cell(
            "telemetry-collect-single-pass",
            &TelemetryCellModel::contended(CollectMode::SinglePass),
            bound,
            true,
            &artifacts,
        );
        failed |= !chaos_explore_cell(
            "telemetry-collect-reread",
            &TelemetryCellModel::contended(CollectMode::ReReadAfterValidation),
            bound,
            true,
            &artifacts,
        );
        failed |= !chaos_explore_cell(
            "stop-check-global-index",
            &StopCheckModel::two_workers(PollMode::GlobalIndex),
            bound,
            true,
            &artifacts,
        );
    }

    if suite != "explore" {
        let mut spec = asgd_chaos::NetChaosSpec::new(seed);
        if let Some(clients) = clients {
            spec.clients = clients;
        }
        if let Some(requests) = requests {
            spec.requests_per_client = requests;
        }
        println!(
            "net suite (seed {seed}, {} clients x {} requests):",
            spec.clients, spec.requests_per_client
        );
        match asgd_chaos::run_net_chaos(&spec) {
            Ok(report) => {
                println!(
                    "  {} requests: {} exact, {} wrong, {} gave up; {} retries, {} reconnects",
                    report.requests,
                    report.exact,
                    report.wrong,
                    report.gave_up,
                    report.retries,
                    report.reconnects
                );
                if !report.zero_wrong() {
                    println!(
                        "FAIL net: {} wrong answer(s) under fault injection",
                        report.wrong
                    );
                    failed = true;
                }
                if report.exact == 0 {
                    println!("FAIL net: no request ever succeeded — the campaign is vacuous");
                    failed = true;
                }
            }
            Err(e) => {
                println!("FAIL net: campaign harness error: {e}");
                failed = true;
            }
        }
    }

    if failed {
        println!("chaos: FAIL");
        exit(1);
    }
    println!("chaos: PASS");
}

// -------------------------------------------------------------- stats mode

fn usage_stats() -> ! {
    eprintln!(
        "usage: experiments stats --addr HOST:PORT\n\
         \x20      experiments stats --smoke [options]\n\
         \n\
         The observability scraper. With --addr it connects to a running\n\
         asgd-net server, issues the wire protocol's stats-scrape opcode,\n\
         and prints the Prometheus exposition text. With --smoke it runs\n\
         the self-contained end-to-end gate: a streaming hogwild model\n\
         behind a real loopback socket under live query/ingest load, a\n\
         mid-run scrape that must be non-vacuous (iteration and per-shard\n\
         counters moving, serve-latency histogram filling, ingest gauges\n\
         present) and well formed (serve-latency cumulative counts never\n\
         decrease and close at _count), a trace sink whose JSONL must\n\
         replay into a monotone per-run timeline, and a final scrape whose\n\
         iteration counter must equal the training run's RunReport\n\
         exactly.\n\
         \n\
         options (defaults in parentheses):\n\
         \x20 --addr HOST:PORT    scrape a live server and print the text\n\
         \x20 --smoke             run the self-contained smoke gate\n\
         \x20 --dim D             smoke model dimension (8192)\n\
         \x20 --artifacts DIR     write telemetry_scrape.prom and\n\
         \x20                     telemetry_trace.jsonl under DIR",
    );
    exit(2);
}

fn stats_mode(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut smoke = false;
    let mut dim = 8_192_usize;
    let mut artifacts: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = Some(flag_value(&mut it, "--addr", usage_stats).to_string()),
            "--smoke" => smoke = true,
            "--dim" => dim = parse_flag!(&mut it, "--dim", usage_stats),
            "--artifacts" => {
                artifacts = Some(PathBuf::from(flag_value(
                    &mut it,
                    "--artifacts",
                    usage_stats,
                )));
            }
            "--help" | "-h" => usage_stats(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage_stats();
            }
        }
    }
    match (addr, smoke) {
        (Some(addr), false) => {
            let mut client = match NetClient::connect(addr.as_str()) {
                Ok(client) => client,
                Err(e) => {
                    eprintln!("error: connecting to {addr}: {e}");
                    exit(1);
                }
            };
            match client.stats_scrape() {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("error: scraping {addr}: {e}");
                    exit(1);
                }
            }
        }
        (None, true) => stats_smoke(dim, artifacts.as_deref()),
        _ => {
            eprintln!("error: pass exactly one of --addr or --smoke");
            usage_stats();
        }
    }
}

/// Looks a counter up in a parsed scrape (0 when absent).
fn scraped_counter(snap: &asgd_telemetry::MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

/// The self-contained telemetry smoke gate: every assertion it makes is a
/// non-vacuity check — a scrape that parses but shows nothing moving means
/// the instrumentation rotted even though the wire path still works.
#[allow(clippy::too_many_lines)]
fn stats_smoke(dim: usize, artifacts: Option<&Path>) {
    use asgd_driver::{run_spec_session, SessionCtx, TraceObserver};
    use asgd_oracle::BackpressurePolicy;
    use asgd_serve::ReadMode;
    use asgd_telemetry::TraceSink;

    fn fail(msg: &str) -> ! {
        eprintln!("stats smoke: FAIL: {msg}");
        exit(1);
    }

    // Trace sink: a JSONL file when artifacts are requested, else memory.
    let (sink, trace_buffer, trace_path) = match artifacts {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                fail(&format!("cannot create {}: {e}", dir.display()));
            }
            let path = dir.join("telemetry_trace.jsonl");
            match TraceSink::to_file(&path) {
                Ok(sink) => (Arc::new(sink), None, Some(path)),
                Err(e) => fail(&format!("cannot open trace sink: {e}")),
            }
        }
        None => {
            let (sink, buffer) = TraceSink::in_memory();
            (Arc::new(sink), Some(buffer), None)
        }
    };

    // A streaming hogwild model behind a real socket. The budget is finite
    // and large enough that the mid-run scrape lands while training is
    // still in flight; sharding is fixed so the per-shard counter families
    // are guaranteed to exist.
    let model = "stats-smoke";
    let iterations = 1_500_000_u64;
    let spec = RunSpec::new(
        OracleSpec::new("sparse-quadratic", dim).sigma(0.0),
        BackendKind::Hogwild,
    )
    .threads(2)
    .iterations(iterations)
    .learning_rate(0.4 / dim as f64)
    .x0(vec![1.0; dim])
    .shards(ShardsSpec::Fixed(4))
    .seed(0x57A75);
    let model_registry = Arc::new(ModelRegistry::new());
    let id = match model_registry.create_streaming(
        model,
        &spec,
        ReadMode::Snapshot,
        1_024,
        256,
        BackpressurePolicy::DropOldest,
    ) {
        Ok(id) => id.0,
        Err(e) => fail(&format!("creating {model}: {e}")),
    };
    let observer = Arc::new(TraceObserver::new(Arc::clone(&sink), model));
    let server = match NetServer::serve(
        Arc::clone(&model_registry),
        NetConfig::default().observer(observer),
    ) {
        Ok(server) => server,
        Err(e) => fail(&format!("binding server: {e}")),
    };
    let mut client = match NetClient::connect(server.local_addr()) {
        Ok(client) => client,
        Err(e) => fail(&format!("connecting: {e}")),
    };

    // Live load while training runs: predictions, probes, and submitted
    // observations, so every metric family the scrape asserts on is fed.
    let load = 64_u32;
    for i in 0..load {
        let key = i % dim as u32;
        if let Err(e) = client.predict(id, Priority::Normal) {
            fail(&format!("predict under load: {e}"));
        }
        if let Err(e) = client.dot_score(id, &[(key, 1.0)], Priority::Normal) {
            fail(&format!("dot-score under load: {e}"));
        }
        if let Err(e) = client.submit_observe(id, &[(key, 1.0)], 0.0, Priority::Normal) {
            fail(&format!("submit-observe under load: {e}"));
        }
    }

    // Mid-run scrape: live Prometheus text over the wire, non-vacuous.
    let mid = match client.stats_scrape() {
        Ok(text) => text,
        Err(e) => fail(&format!("mid-run scrape: {e}")),
    };
    let mid_snap = match asgd_telemetry::parse(&mid) {
        Ok(snap) => snap,
        Err(e) => fail(&format!("mid-run scrape does not parse: {e}")),
    };
    let iter_key = format!("asgd_model_iterations_total{{model=\"{model}\"}}");
    if scraped_counter(&mid_snap, &iter_key) == 0 {
        fail("mid-run scrape shows zero training iterations");
    }
    let shard_prefix = format!("asgd_shard_updates_total{{model=\"{model}\"");
    if !mid_snap
        .counters
        .iter()
        .any(|(k, v)| k.starts_with(&shard_prefix) && *v > 0)
    {
        fail("mid-run scrape shows no per-shard update counter moving");
    }
    if scraped_counter(&mid_snap, "asgd_net_executed_total") < u64::from(load) {
        fail("mid-run scrape undercounts executed requests");
    }
    if scraped_counter(
        &mid_snap,
        &format!("asgd_ingest_pushed_total{{model=\"{model}\"}}"),
    ) == 0
    {
        fail("mid-run scrape shows no ingested observations");
    }
    let Some((_, latency)) = mid_snap
        .histograms
        .iter()
        .find(|(k, h)| k == "asgd_net_serve_latency_ns" && h.count > 0 && h.sum > 0)
    else {
        fail("mid-run scrape's serve-latency histogram is empty");
    };
    // Well formed: cumulative counts never decrease, and no finite bucket
    // exceeds `+Inf` (= `_count`); every observation sits under a finite
    // bound, so a coherent snapshot closes exactly at `_count`.
    if latency.buckets.windows(2).any(|w| w[0].1 > w[1].1) {
        fail("serve-latency cumulative bucket counts decrease");
    }
    let last = latency.buckets.last().map_or(0, |&(_, cum)| cum);
    if last > latency.count || (mid_snap.coherent && last != latency.count) {
        fail(&format!(
            "serve-latency last finite bucket {last} vs _count {} (coherent: {})",
            latency.count, mid_snap.coherent
        ));
    }
    if !mid_snap
        .gauges
        .iter()
        .any(|(k, _)| k == &format!("asgd_ingest_queue_depth{{model=\"{model}\"}}"))
    {
        fail("mid-run scrape is missing the ingest queue depth gauge");
    }
    println!(
        "[stats] mid-run scrape: {} counters, {} gauges, {} histograms (coherent: {})",
        mid_snap.counters.len(),
        mid_snap.gauges.len(),
        mid_snap.histograms.len(),
        mid_snap.coherent,
    );

    // One observed driver session shares the trace sink, so the artifact
    // carries a full run lifecycle (started → progress → finished) next to
    // whatever serving events the load produced.
    let train_run = "stats-smoke-train";
    let tiny = RunSpec::new(
        OracleSpec::new("noisy-quadratic", 8).sigma(0.1),
        BackendKind::Hogwild,
    )
    .threads(2)
    .iterations(20_000)
    .learning_rate(0.02)
    .trajectory_every(5_000)
    .seed(7);
    let train_observer = Arc::new(TraceObserver::new(Arc::clone(&sink), train_run));
    if let Err(e) = run_spec_session(&tiny, &SessionCtx::observed(train_observer)) {
        fail(&format!("observed driver session: {e}"));
    }

    // Wait for the hosted run to finish so the final scrape has a
    // quiescent truth to be bit-consistent with.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let final_stats = loop {
        match client.stats_by_id(id) {
            Ok(stats) if stats.finished => break stats,
            Ok(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(_) => fail("training never finished within the smoke deadline"),
            Err(e) => fail(&format!("polling stats: {e}")),
        }
    };

    // Final scrape: exact render∘parse inversion, and bit-consistency with
    // the model's own stats and (below) the RunReport the registry hands
    // back at drop.
    let text = match client.stats_scrape() {
        Ok(text) => text,
        Err(e) => fail(&format!("final scrape: {e}")),
    };
    let snap = match asgd_telemetry::parse(&text) {
        Ok(snap) => snap,
        Err(e) => fail(&format!("final scrape does not parse: {e}")),
    };
    if asgd_telemetry::render(&snap) != text {
        fail("render(parse(scrape)) is not the identical text");
    }
    let scraped_iterations = scraped_counter(&snap, &iter_key);
    if scraped_iterations != final_stats.iterations {
        fail(&format!(
            "scraped iteration counter {scraped_iterations} != model stats {}",
            final_stats.iterations
        ));
    }
    server.stop();
    let report = match model_registry.drop_model(model) {
        Ok(report) => report,
        Err(e) => fail(&format!("dropping {model}: {e}")),
    };
    model_registry.shutdown();
    if scraped_iterations != report.iterations {
        fail(&format!(
            "scraped iteration counter {scraped_iterations} != RunReport {}",
            report.iterations
        ));
    }
    println!(
        "[stats] final scrape: {} bytes, iterations counter {} == RunReport ({} shards live)",
        text.len(),
        scraped_iterations,
        final_stats.shard_updates.len(),
    );
    if let Some(dir) = artifacts {
        let path = dir.join("telemetry_scrape.prom");
        if let Err(e) = std::fs::write(&path, &text) {
            fail(&format!("writing {}: {e}", path.display()));
        }
        println!("[stats] scrape -> {}", path.display());
    }

    // The trace must replay into a monotone per-run timeline and carry the
    // observed session's lifecycle.
    sink.flush();
    let trace_text = match (&trace_buffer, &trace_path) {
        (Some(buffer), _) => {
            let bytes = buffer
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        (None, Some(path)) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => fail(&format!("reading {}: {e}", path.display())),
        },
        (None, None) => unreachable!("the sink is either buffered or file-backed"),
    };
    let spans = match asgd_telemetry::replay(&trace_text) {
        Ok(spans) => spans,
        Err(line) => fail(&format!("trace line {line} is malformed")),
    };
    let lifecycle: Vec<&str> = spans
        .iter()
        .filter(|s| s.run == train_run)
        .map(|s| s.event.as_str())
        .collect();
    if lifecycle.first() != Some(&"started") || lifecycle.last() != Some(&"finished") {
        fail(&format!(
            "observed session lifecycle is not started→finished: {lifecycle:?}"
        ));
    }
    let mut last_ts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for span in &spans {
        let prev = last_ts.entry(span.run.as_str()).or_insert(0);
        if span.ts_ns < *prev {
            fail(&format!(
                "trace timeline for run `{}` runs backwards at {}ns",
                span.run, span.ts_ns
            ));
        }
        *prev = span.ts_ns;
    }
    println!(
        "[stats] trace: {} span(s), {} run(s), monotone per-run timeline",
        spans.len(),
        last_ts.len(),
    );
    if let Some(path) = &trace_path {
        println!("[stats] trace -> {}", path.display());
    }
    println!("stats smoke: PASS");
}

// --------------------------------------------------------- validate mode

fn usage_validate() -> ! {
    eprintln!(
        "usage: experiments validate [options]\n\
         \n\
         Derives (α, horizon, epoch budget) from the paper's formulas for a\n\
         backend × n × ε grid, measures failure probabilities over seeded\n\
         trials, and reports whether every bound is consistent with its\n\
         measurement. Exits non-zero if any cell is inconsistent.\n\
         \n\
         options (defaults in parentheses):\n\
         \x20 --oracle KIND     workload ({oracles}; default noisy-quadratic)\n\
         \x20 --dim D           model dimension (2)\n\
         \x20 --sigma S         noise level (0.5)\n\
         \x20 --backends CSV    backends or `all` (all validatable: {backends})\n\
         \x20 --threads CSV     thread counts n (1,2,4; quick: 1,2)\n\
         \x20 --eps CSV         success thresholds ε (0.04,0.01; quick: 0.04)\n\
         \x20 --tau T           assumed τ_max (8)\n\
         \x20 --theta TH        Eq. 12 slack ϑ in (0,1] (1.0)\n\
         \x20 --target P        failure-probability target in (0,1) (0.5)\n\
         \x20 --radius R        constants radius (2.0)\n\
         \x20 --alpha A         step-size override, judged via Theorem 6.5 (default: Eq. 12 rate vs Eq. 13)\n\
         \x20 --trials K        trials per cell (40; quick: 8)\n\
         \x20 --seed S          master seed (0x7A11DA7E)\n\
         \x20 --workers W       run_many pool width (one per core)\n\
         \x20 --quick           smaller grid for smoke runs\n\
         \x20 --json PATH       write the ValidationReport JSON\n\
         \x20 --pretty          pretty-print JSON",
        oracles = registry::known_kinds().join(" | "),
        backends = default_backends()
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(","),
    );
    exit(2);
}

fn validate_mode(args: &[String]) {
    let mut oracle = OracleSpec::new("noisy-quadratic", 2).sigma(0.5);
    let mut backends: Option<Vec<BackendKind>> = None;
    let mut threads: Option<Vec<usize>> = None;
    let mut eps: Option<Vec<f64>> = None;
    let mut plan_tweaks: Vec<Box<dyn FnOnce(ValidationPlan) -> ValidationPlan>> = Vec::new();
    let mut trials: Option<u64> = None;
    let mut quick = false;
    let mut json: Option<PathBuf> = None;
    let mut pretty = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--oracle" => oracle.kind = flag_value(&mut it, "--oracle", usage_validate).to_string(),
            "--dim" => oracle.dim = parse_flag!(&mut it, "--dim", usage_validate),
            "--sigma" => oracle.sigma = parse_flag!(&mut it, "--sigma", usage_validate),
            "--backends" => {
                let raw = flag_value(&mut it, "--backends", usage_validate);
                if raw == "all" {
                    backends = Some(default_backends());
                } else {
                    match parse_csv(raw) {
                        Ok(list) => backends = Some(list),
                        Err(e) => {
                            eprintln!("error: {e}");
                            exit(2);
                        }
                    }
                }
            }
            "--threads" => match parse_csv(flag_value(&mut it, "--threads", usage_validate)) {
                Ok(list) => threads = Some(list),
                Err(_) => {
                    eprintln!("error: bad value for --threads (want N1,N2,…)");
                    exit(2);
                }
            },
            "--eps" => match parse_csv(flag_value(&mut it, "--eps", usage_validate)) {
                Ok(list) => eps = Some(list),
                Err(_) => {
                    eprintln!("error: bad value for --eps (want E1,E2,…)");
                    exit(2);
                }
            },
            "--tau" => {
                let tau: u64 = parse_flag!(&mut it, "--tau", usage_validate);
                plan_tweaks.push(Box::new(move |p| p.tau_max(tau)));
            }
            "--theta" => {
                let theta: f64 = parse_flag!(&mut it, "--theta", usage_validate);
                plan_tweaks.push(Box::new(move |p| p.theta(theta)));
            }
            "--target" => {
                let target: f64 = parse_flag!(&mut it, "--target", usage_validate);
                plan_tweaks.push(Box::new(move |p| p.target(target)));
            }
            "--radius" => {
                let radius: f64 = parse_flag!(&mut it, "--radius", usage_validate);
                plan_tweaks.push(Box::new(move |p| p.radius(radius)));
            }
            "--alpha" => {
                let alpha: f64 = parse_flag!(&mut it, "--alpha", usage_validate);
                plan_tweaks.push(Box::new(move |p| p.alpha(alpha)));
            }
            "--trials" => trials = Some(parse_flag!(&mut it, "--trials", usage_validate)),
            "--seed" => {
                let seed: u64 = parse_flag!(&mut it, "--seed", usage_validate);
                plan_tweaks.push(Box::new(move |p| p.seed(seed)));
            }
            "--workers" => {
                let workers: usize = parse_flag!(&mut it, "--workers", usage_validate);
                plan_tweaks.push(Box::new(move |p| p.workers(workers)));
            }
            "--quick" => quick = true,
            "--json" => json = Some(PathBuf::from(flag_value(&mut it, "--json", usage_validate))),
            "--pretty" => pretty = true,
            "--help" | "-h" => usage_validate(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage_validate();
            }
        }
    }

    let mut plan = ValidationPlan::new(oracle)
        .thread_counts(threads.unwrap_or(if quick { vec![1, 2] } else { vec![1, 2, 4] }))
        .eps_grid(eps.unwrap_or(if quick { vec![0.04] } else { vec![0.04, 0.01] }))
        .trials(trials.unwrap_or(if quick { 8 } else { 40 }));
    if let Some(backends) = backends {
        plan = plan.backends(backends);
    }
    for tweak in plan_tweaks {
        plan = tweak(plan);
    }

    let report = match validate(&plan) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };

    let mut table = Table::new(
        format!(
            "Theory validation: {} d={} σ={} τ_max={} ϑ={} target={} ({} trials/cell)",
            report.oracle,
            report.dim,
            report.sigma,
            plan.tau_max,
            report.theta,
            report.target,
            report.trials,
        ),
        &[
            "backend",
            "criterion",
            "n",
            "eps",
            "alpha",
            "T",
            "epochs",
            "P(fail) measured",
            "CI",
            "bound",
            "consistent",
        ],
    );
    for c in &report.cells {
        table.row(&[
            c.backend.clone(),
            c.criterion.clone(),
            c.threads.to_string(),
            fmt_f(c.eps),
            fmt_f(c.alpha),
            c.total_iterations.to_string(),
            c.halving_epochs
                .map_or_else(|| "-".to_string(), |h| (h + 1).to_string()),
            format!("{}/{} = {}", c.failures, c.trials, fmt_f(c.measured)),
            format!("[{}, {}]", fmt_f(c.ci_lower), fmt_f(c.ci_upper)),
            fmt_f(c.bound),
            c.consistent_with_upper_bound.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "every bound consistent with its measurement: {}",
        report.all_consistent()
    );

    if let Some(path) = &json {
        let payload = if pretty {
            report.to_json_pretty()
        } else {
            report.to_json()
        };
        if let Err(e) = std::fs::write(path, payload + "\n") {
            eprintln!("error: writing {}: {e}", path.display());
            exit(1);
        }
        println!("[json] {}", path.display());
    }
    if !report.all_consistent() {
        exit(1);
    }
}

// -------------------------------------------------------------- table mode

fn table_mode(mut args: Vec<String>) {
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    if args.is_empty() {
        eprintln!("usage: experiments [--quick] <id…|all>");
        eprintln!(
            "       experiments run|validate|serve|serve-net|bench-check|chaos|stats [--help for options]"
        );
        eprintln!("known experiments: {}", experiment_ids().join(", "));
        exit(2);
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        experiment_ids()
    } else {
        args.iter().map(String::as_str).collect()
    };
    // Resolve every id before running any, so a typo fails fast.
    let runs: Vec<_> = ids
        .iter()
        .map(|&id| {
            experiment(id).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(2);
            })
        })
        .collect();

    let out_dir = PathBuf::from("target").join("experiments");
    for (id, run) in ids.into_iter().zip(runs) {
        let started = std::time::Instant::now();
        let output = run(quick);
        print!("{}", output.render());
        for (i, table) in output.tables.iter().enumerate() {
            let name = if output.tables.len() == 1 {
                output.id.clone()
            } else {
                format!("{}_{i}", output.id)
            };
            match table.write_csv(&out_dir, &name) {
                Ok(path) => println!("[csv] {}", path.display()),
                Err(e) => eprintln!("[csv] failed to write {name}: {e}"),
            }
        }
        println!(
            "[done] {id} in {:.1}s{}\n",
            started.elapsed().as_secs_f64(),
            if quick { " (quick mode)" } else { "" }
        );
    }
}
