//! Figure 4 — comparison of dynamic batching strategies.
//!
//! For each Figure-3 container, drive a saturating closed-loop workload
//! through the full serving stack under a 20 ms SLO, with three batching
//! strategies: adaptive (AIMD, the default), quantile regression, and no
//! batching. Reports sustained throughput and P99 latency.
//!
//! Paper shape to reproduce: adaptive ≈ quantile ≫ no batching, with the
//! largest gain (~26×) on the Scikit-Learn linear SVM, and the kernel SVM
//! orders of magnitude below everything else in absolute throughput.

use clipper_bench::{distinct_input, phase_duration, profile_transport, single_model_stack};
use clipper_containers::Fig3Model;
use clipper_core::{BatchConfig, BatchStrategy};
use clipper_workload::report::fmt_qps;
use clipper_workload::{run_closed_loop, Table};
use std::time::Duration;

#[tokio::main(flavor = "multi_thread", worker_threads = 8)]
async fn main() {
    println!("== Figure 4: Comparison of Dynamic Batching Strategies ==\n");
    let slo = Duration::from_millis(20);
    let strategies: [(&str, BatchStrategy); 3] = [
        ("adaptive", BatchStrategy::default()),
        ("quantile", BatchStrategy::QuantileRegression),
        ("no-batching", BatchStrategy::Fixed { size: 1 }),
    ];

    let mut table = Table::new(&["container", "strategy", "throughput (qps)", "p99 (µs)"]);
    let mut sklearn_svm: (f64, f64) = (0.0, 0.0); // (adaptive, no batching)

    for model in Fig3Model::all() {
        for (sname, strategy) in &strategies {
            let transport = profile_transport("fig4", model, 7);
            // The 20 ms SLO drives the *batching* controllers; the app
            // deadline is generous so we measure completion latency
            // instead of triggering straggler substitution (which would
            // count default answers as served predictions).
            let (clipper, _) = single_model_stack(
                transport,
                BatchConfig {
                    strategy: strategy.clone(),
                    slo,
                    ..Default::default()
                },
                Duration::from_secs(5),
            );
            // Saturating closed loop for the batching strategies; moderate
            // concurrency for no-batching (its serial capacity is tiny and
            // deep queues would only measure queueing, not the strategy).
            let clients = match (model, *sname) {
                (Fig3Model::KernelSvmSklearn, "no-batching") => 8,
                (Fig3Model::KernelSvmSklearn, _) => 64,
                (_, "no-batching") => 16,
                _ => 768,
            };
            // Warmup lets AIMD/quantile climb to the knee.
            let c = clipper.clone();
            run_closed_loop(clients, phase_duration(), move |client, seq| {
                let clipper = c.clone();
                async move {
                    clipper
                        .predict("bench", None, distinct_input(client, seq, 8))
                        .await
                        .map(|p| p.models_used > 0)
                        .unwrap_or(false)
                }
            })
            .await;
            let c = clipper.clone();
            let report = run_closed_loop(clients, phase_duration(), move |client, seq| {
                let clipper = c.clone();
                async move {
                    clipper
                        .predict("bench", None, distinct_input(client, 1_000_000 + seq, 8))
                        .await
                        .map(|p| p.models_used > 0)
                        .unwrap_or(false)
                }
            })
            .await;
            table.row(&[
                model.label().to_string(),
                sname.to_string(),
                fmt_qps(report.throughput()),
                format!("{}", report.latency.p99()),
            ]);
            if model == Fig3Model::LinearSvmSklearn {
                match *sname {
                    "adaptive" => sklearn_svm.0 = report.throughput(),
                    "no-batching" => sklearn_svm.1 = report.throughput(),
                    _ => {}
                }
            }
        }
    }
    table.print();
    if sklearn_svm.1 > 0.0 {
        println!(
            "\nSKLearn linear SVM adaptive vs no-batching: {:.1}x (paper: ~26x)",
            sklearn_svm.0 / sklearn_svm.1
        );
    }
    println!("paper reference: adaptive ≈ quantile ≫ no batching; P99 stays ≈ SLO under adaptive batching");
}
