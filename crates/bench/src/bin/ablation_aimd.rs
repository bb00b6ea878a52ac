//! Ablation — AIMD backoff-constant sensitivity.
//!
//! The paper chooses a 10% backoff (×0.9), "much smaller than other AIMD
//! schemes", arguing the optimal batch size is stable. This ablation
//! sweeps the backoff factor against a simulated linear-latency container
//! and reports convergence time, steady-state batch size, oscillation
//! band, and SLO-violation rate — showing why gentle backoff wins.

use clipper_core::batching::{AimdController, BatchController};
use clipper_workload::Table;
use std::time::Duration;

fn main() {
    println!("== Ablation: AIMD backoff constant ==\n");
    let slo = Duration::from_millis(20);
    // Container: 1ms base + 20µs/item, 5% multiplicative jitter.
    let latency = |b: usize, tick: u64| -> Duration {
        let jitter = 1.0 + 0.05 * (((tick * 2_654_435_761) % 1_000) as f64 / 500.0 - 1.0);
        Duration::from_nanos(((1_000_000.0 + 20_000.0 * b as f64) * jitter) as u64)
    };
    let optimal = 950usize;

    let mut table = Table::new(&[
        "backoff",
        "ticks to 90% of optimal",
        "steady mean batch",
        "oscillation band",
        "violation rate",
    ]);

    for backoff in [0.5, 0.75, 0.9, 0.99] {
        let mut c = AimdController::new(slo, 2.0, backoff, 4096);
        let mut converged_at = None;
        let mut violations = 0u64;
        let (mut steady_sum, mut steady_n) = (0f64, 0u64);
        let (mut band_min, mut band_max) = (usize::MAX, 0usize);
        let ticks = 6_000u64;
        for t in 0..ticks {
            let b = c.max_batch();
            let lat = latency(b, t);
            if lat > slo {
                violations += 1;
            }
            if converged_at.is_none() && b >= optimal * 9 / 10 {
                converged_at = Some(t);
            }
            if t >= ticks - 2_000 {
                steady_sum += b as f64;
                steady_n += 1;
                band_min = band_min.min(b);
                band_max = band_max.max(b);
            }
            c.record(b, lat);
        }
        table.row(&[
            format!("{backoff}"),
            converged_at.map_or("never".into(), |t| format!("{t}")),
            format!("{:.0}", steady_sum / steady_n.max(1) as f64),
            format!("{}..{}", band_min, band_max),
            format!("{:.2}%", 100.0 * violations as f64 / ticks as f64),
        ]);
    }
    table.print();
    println!("\nexpected: aggressive backoff (0.5) converges but oscillates in a wide band and loses mean batch size;");
    println!("0.9 (the paper's choice) holds a tight band near the knee with a low violation rate");
}
