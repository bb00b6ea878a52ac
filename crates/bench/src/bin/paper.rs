//! The paper's evaluation, recorded: Tables 1–2, Figures 3–11, §4.2's
//! caching claim and the AIMD / η ablations, each with the paper's value
//! beside ours and a gate on its shape (`BENCH_paper.json`; see
//! `clipper_bench::paper` for the sections and their gates).
//!
//! Presets: 3 s load phases, `--smoke` 0.3 s.

use clipper_bench::harness::{Args, Report};

#[tokio::main(flavor = "multi_thread", worker_threads = 8)]
async fn main() {
    let args = Args::parse("paper");
    let mut report = Report::new(&args, "paper");
    clipper_bench::paper::run(&mut report, args.smoke).await;
    report.finish()
}
