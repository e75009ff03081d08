//! Audit the paper's contention lemmas on live executions: interval
//! contention ρ(θ), τ_max / τ_avg ≤ 2n, Lemma 6.2's bad-iteration windows
//! and Lemma 6.4's √(τ_max·n) indicator sum.
//!
//! ```text
//! cargo run --release --example contention_audit
//! ```

use asyncsgd::core::runner::LockFreeSgd;
use asyncsgd::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn audit(name: &str, scheduler: Box<dyn Scheduler>, n: usize) {
    let oracle = Arc::new(NoisyQuadratic::new(4, 1.0).expect("valid"));
    let run = LockFreeSgd::builder(oracle)
        .threads(n)
        .iterations(1_000)
        .learning_rate(0.02)
        .initial_point(vec![1.0; 4])
        .scheduler(scheduler)
        .seed(0xA0D17)
        .run();
    let c = &run.execution.contention;
    println!("--- {name} (n = {n}) ---");
    println!(
        "iterations: {}   τ_max = {}   τ_avg = {:.2}  (2n = {})   Gibson–Gramoli holds: {}",
        c.iterations(),
        c.tau_max(),
        c.tau_avg(),
        2 * n,
        c.gibson_gramoli_holds()
    );
    if let Some(a) = c.lemma_6_2(2) {
        println!(
            "Lemma 6.2 (K=2): max bad completions per window = {} < n = {}: {}",
            a.max_bad_completions, a.bound, a.holds
        );
    }
    let a64 = c.lemma_6_4();
    println!(
        "Lemma 6.4: max_t Σ 1{{τ_t+m ≥ m}} = {} ≤ 2√(τ_max·n) = {:.2}: {}",
        a64.max_sum, a64.bound, a64.holds
    );
    let mut counts = BTreeMap::new();
    for &rho in c.rho_values() {
        *counts.entry(rho).or_insert(0_u64) += 1;
    }
    let widest = counts.values().copied().max().unwrap_or(1);
    println!("interval-contention histogram (ρ(θ)):");
    for (rho, n) in counts {
        let bar = "#".repeat((n * 40).div_ceil(widest) as usize);
        println!("{rho:>8} | {bar:<40} {n}");
    }
    println!();
}

fn main() {
    audit("round-robin", Box::new(StepRoundRobin::new()), 4);
    audit("random", Box::new(RandomScheduler::new(5)), 4);
    audit(
        "bounded-delay adversary (budget 16)",
        Box::new(BoundedDelayAdversary::new(16)),
        4,
    );
    audit(
        "crash adversary (3 of 4 threads crash)",
        Box::new(CrashAdversary::new(
            RandomScheduler::new(9),
            vec![(2_000, 1), (4_000, 2), (6_000, 3)],
        )),
        4,
    );
}
