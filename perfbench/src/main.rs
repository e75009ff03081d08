//! The repository benchmark: training throughput, time to target,
//! cancellation and served read/write latency on three workloads.
//!
//! ```text
//! perfbench --workload <sparse-1m|converge-minibatch|serve-mixed|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. `--trace 0` measures the
//! end-to-end metrics with nothing but the benchmark's own clocks around
//! the public entry points; `--trace 1` is a separate run that also times
//! the calls into each layer, writes its spans to
//! `.bench_out/spans-<workload>-seed<n>.jsonl`, and reports the per-layer
//! metrics. Each metric is printed by name with its unit (and, for a
//! percentile, its sample count); the last line of standard output is one
//! JSON object with the metrics the mode reports. Any failed correctness
//! check makes the exit code non-zero.

mod converge;
mod host;
mod serve;
mod session;
mod sparse;
mod stats;
mod trace;

use stats::Ledger;
use std::time::Instant;
use trace::Spans;

/// End-to-end metrics, reported on every workload with `--trace 0`:
/// `(name, unit)`. What each reads on each workload is in the README.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("train_iters_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, reported on every workload with `--trace 1` (0 where
/// the workload does not exercise the layer).
pub const PER_LAYER: [(&str, &str); 20] = [
    ("hogwild.step_ns", "ns"),
    ("hogwild.self_ns", "ns"),
    ("store.fetch_add_ns", "ns"),
    ("store.read_ns", "ns"),
    ("oracle.grad_ns", "ns"),
    ("oracle.calls", "count"),
    ("driver.overhead_ms", "ms"),
    ("cancel.workers_out_ms", "ms"),
    ("cancel.finalize_ms", "ms"),
    ("cancel.handoff_ms", "ms"),
    ("net.server_ns", "ns"),
    ("net.outside_ns", "ns"),
    ("net.codec_ns", "ns"),
    ("net.busy", "count"),
    ("net.shed", "count"),
    ("net.bad_frames", "count"),
    ("ingest.depth_mean", "count"),
    ("ingest.dropped", "count"),
    ("ingest.used_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: [&str; 3] = ["sparse-1m", "converge-minibatch", "serve-mixed"];

/// One run's state: its inputs, clocks, spans, checks and results.
pub struct Bench {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Spans,
    pub ledger: Ledger,
    /// Everything measured, in report order: `(name, value, unit, samples)`.
    pub results: Vec<(String, f64, &'static str, Option<usize>)>,
}

impl Bench {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.results.push((name.to_string(), value, unit, None));
    }

    /// A percentile or mean, with the number of samples behind it.
    pub fn put_n(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.results.push((name.to_string(), value, unit, Some(n)));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.results.iter().rev().find(|r| r.0 == name).map(|r| r.1)
    }

    /// The end of a measured window that opens now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + std::time::Duration::from_secs_f64(self.seconds)
    }
}

/// A deterministic input stream (SplitMix64): the benchmark's only source
/// of randomness for generated inputs.
pub struct Inputs(u64);

impl Inputs {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, b: &mut Bench) -> Result<(), String> {
    match name {
        "sparse-1m" => sparse::run(b),
        "converge-minibatch" => converge::run(b),
        "serve-mixed" => serve::run(b),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = host::Provenance::detect();
    println!("# host: {}", host.line());
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut last = None;
    let mut any_failed = false;
    for name in names {
        let mut b = Bench {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            spans: Spans::new(args.trace, 1 << 18),
            ledger: Ledger::default(),
            results: Vec::new(),
        };
        let threads = match name {
            "serve-mixed" => serve::THREADS,
            _ => 2,
        };
        println!(
            "# workload {name}: seed {} seconds {} trace {} threads {threads} {}",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            host.subscription(threads)
        );
        if let Err(e) = run_workload(name, &mut b) {
            eprintln!("perfbench: {name}: {e}");
            std::process::exit(1);
        }
        b.put("failed_ratio", b.ledger.failed_ratio(), "ratio");
        for (metric, value, unit, n) in &b.results {
            match n {
                Some(n) => println!("{name} {metric} = {value:.6} {unit} (n={n})"),
                None => println!("{name} {metric} = {value:.6} {unit}"),
            }
        }
        if b.trace {
            let path = std::path::PathBuf::from(format!(
                ".bench_out/spans-{name}-seed{}.jsonl",
                args.seed
            ));
            match b.spans.write_jsonl(&path) {
                Ok(()) => println!(
                    "# spans: {} written to {} ({} dropped)",
                    b.spans.len(),
                    path.display(),
                    b.spans.dropped
                ),
                Err(e) => {
                    eprintln!("perfbench: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        println!(
            "# {name}: attempted {} failed {}",
            b.ledger.attempted, b.ledger.failed
        );
        any_failed |= b.ledger.failed > 0;
        last = Some(b);
    }
    let b = last.expect("at least one workload ran");
    // The result line: the last workload's metrics of the requested mode.
    let table: &[(&str, &str)] = if b.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match b.get(name) {
            Some(v) => v,
            None if b.trace => 0.0,
            None => {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                std::process::exit(1);
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        !any_failed,
        b.ledger.attempted.max(1),
        b.ledger.failed,
        metrics.join(", ")
    );
    if any_failed {
        std::process::exit(1);
    }
}
