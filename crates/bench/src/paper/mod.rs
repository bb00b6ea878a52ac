//! The paper's evaluation as one recorded bench (`BENCH_paper.json`):
//! Tables 1–2, Figures 3–11, the §4.2 caching claim and the two
//! ablations, each one section that runs its scenario, pushes rows with
//! the paper's value beside ours, and derives its shape from those rows.
//!
//! | section | reproduces | shape (gated unless noted) |
//! |---|---|---|
//! | `table1` | Table 1, datasets | label counts and corpus sizes equal the paper's |
//! | `table2` | Table 2, deep model zoo | every model's layers equal the paper's |
//! | `fig3` | container latency profiles, `α + β·b` fits | linear / kernel SVM max batch under the 20 ms SLO |
//! | `fig4` | batching strategies | SKLearn SVM adaptive / no batching; quantile / adaptive |
//! | `fig5` | delayed batching | 2 ms wait / no wait capacity headroom |
//! | `fig6` | replica scaling, 1 vs 10 Gbps | 10 Gbps 4 / 1 replicas; 1 Gbps / 10 Gbps at 4 |
//! | `fig7` | ensemble accuracy, confidence split | error ceilings |
//! | `fig8` | Exp3 / Exp4 under model failure | final policy / best static error |
//! | `fig9` | straggler mitigation | mitigated / blocking p99 |
//! | `fig10` | contextual selection | final policy / no-dialect error |
//! | `fig11` | Clipper vs TF-Serving | TF-C++ / TF-Serving throughput |
//! | `caching` | §4.2 feedback throughput | cache on / off |
//! | `ablation_aimd` | AIMD backoff constant | 0.9 / 0.5 oscillation band |
//! | `ablation_eta` | Exp3 learning rate | adaptation never slows as η grows |
//!
//! Every shape is recorded as a `shape` row (the paper's claim, our
//! value, the bound, whether it holds and whether it was gated). A shape
//! gates the run only where ten full runs all held it; the smoke preset
//! shrinks phases and datasets and leaves out the gates it cannot hold,
//! naming them in the `smoke_ungated` param.

mod batching;
mod scaling;
mod selection;
mod tables;

use crate::harness::{Op, Report};
use clipper_core::Clipper;
use clipper_workload::{run_closed_loop, LoadReport};
use serde::Serialize;
use std::time::{Duration, Instant};

/// When a shape is a gate.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Gated {
    /// In both presets.
    Always,
    /// In the full preset only: the smoke preset's shortened run cannot
    /// hold it.
    FullOnly,
    /// Never: a run of the full preset broke it; it stays a row.
    Never,
}

/// One section's shape: a value derived from the section's rows alone,
/// and the bound the paper's claim puts on it.
#[derive(Debug)]
struct Shape {
    name: &'static str,
    /// The paper's claim, with its number where it gives one.
    paper: &'static str,
    value: f64,
    op: Op,
    bound: f64,
    gated: Gated,
}

impl Shape {
    fn new(name: &'static str, paper: &'static str, value: f64, op: Op, bound: f64) -> Shape {
        Shape {
            name,
            paper,
            value,
            op,
            bound,
            gated: Gated::Always,
        }
    }

    fn full_only(self) -> Shape {
        Shape {
            gated: Gated::FullOnly,
            ..self
        }
    }

    fn ungated(self) -> Shape {
        Shape {
            gated: Gated::Never,
            ..self
        }
    }

    fn holds(&self) -> bool {
        self.op.holds(self.value, self.bound)
    }
}

#[derive(Serialize)]
struct ShapeRow {
    name: &'static str,
    paper: &'static str,
    value: Option<f64>,
    op: &'static str,
    bound: f64,
    holds: bool,
    gated: bool,
}

/// One run of the paper bench: the report, the preset, and the shapes
/// each preset leaves ungated.
struct Paper<'a> {
    report: &'a mut Report,
    smoke: bool,
    /// A measured load phase: 3 s, smoke 0.3 s.
    phase: Duration,
    smoke_ungated: Vec<&'static str>,
    ungated: Vec<&'static str>,
}

impl Paper<'_> {
    /// Record `kind` rows, one per item.
    fn rows<T: Serialize>(&mut self, kind: &str, rows: &[T]) {
        for row in rows {
            self.report.row(kind, row);
        }
    }

    /// Record each shape as a row, and as a gate where this preset
    /// gates it.
    fn shapes(&mut self, shapes: Vec<Shape>) {
        for s in shapes {
            let gated = match s.gated {
                Gated::Always => true,
                Gated::FullOnly if self.smoke => {
                    self.smoke_ungated.push(s.name);
                    false
                }
                Gated::FullOnly => true,
                Gated::Never => {
                    self.ungated.push(s.name);
                    false
                }
            };
            self.report.row(
                "shape",
                &ShapeRow {
                    name: s.name,
                    paper: s.paper,
                    value: s.value.is_finite().then_some(s.value),
                    op: s.op.name(),
                    bound: s.bound,
                    holds: s.holds(),
                    gated,
                },
            );
            if gated {
                self.report.gate(s.name, s.value, s.op, s.bound);
            }
        }
    }
}

/// Run every section into `report`.
pub async fn run(report: &mut Report, smoke: bool) {
    let phase = Duration::from_secs_f64(if smoke { 0.3 } else { 3.0 });
    report.param("phase_seconds", phase.as_secs_f64());
    let mut p = Paper {
        report,
        smoke,
        phase,
        smoke_ungated: Vec::new(),
        ungated: Vec::new(),
    };
    // Each section in turn, its wall time printed.
    macro_rules! sections {
        ($($module:ident::$section:ident),*) => {$(
            let t = Instant::now();
            $module::$section(&mut p).await;
            println!("{}: {:.1} s", stringify!($section), t.elapsed().as_secs_f64());
        )*};
    }
    sections!(
        tables::table1,
        tables::table2,
        tables::fig3,
        batching::fig4,
        batching::fig5,
        scaling::fig6,
        selection::fig7,
        selection::fig8,
        scaling::fig9,
        selection::fig10,
        scaling::fig11,
        scaling::caching,
        batching::ablation_aimd,
        selection::ablation_eta
    );
    let (smoke_ungated, ungated) = (p.smoke_ungated, p.ungated);
    report.param("smoke_ungated", smoke_ungated);
    report.param("ungated", ungated);
}

/// A warm-up closed loop, then a measured one, of predicts on the
/// `bench` app with distinct `dim`-float inputs; a query counts as served
/// when a model answered it. Returns the measured phase.
async fn predict_loop(
    clipper: &Clipper,
    clients: usize,
    warmup: Duration,
    phase: Duration,
    dim: usize,
) -> LoadReport {
    let run = |duration, offset: u64| {
        let c = clipper.clone();
        run_closed_loop(clients, duration, move |client, seq| {
            let clipper = c.clone();
            async move {
                let input = crate::distinct_input(client, offset | seq, dim);
                clipper
                    .predict("bench", None, input)
                    .await
                    .is_ok_and(|p| p.models_used > 0)
            }
        })
    };
    run(warmup, 0).await;
    run(phase, 1 << 20).await
}

/// The largest of `values`: NaN if there are none or any is NaN, so a
/// missing row can never pass a gate.
fn max_of(values: impl Iterator<Item = f64>) -> f64 {
    values
        .reduce(|a, b| {
            if a.is_nan() || b.is_nan() {
                f64::NAN
            } else {
                a.max(b)
            }
        })
        .unwrap_or(f64::NAN)
}

/// The smallest of `values`, NaN as for [`max_of`].
fn min_of(values: impl Iterator<Item = f64>) -> f64 {
    -max_of(values.map(|v| -v))
}

/// The mean of the first histogram in `clipper`'s registry whose name
/// ends with `suffix` (0 when none does).
fn hist_mean(clipper: &Clipper, suffix: &str) -> f64 {
    clipper
        .registry()
        .snapshot()
        .values
        .iter()
        .find(|(k, _)| k.ends_with(suffix))
        .map_or(0.0, |(_, v)| match v {
            clipper_metrics::MetricValue::Histogram { mean, .. } => *mean,
            _ => 0.0,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every shape a section derives from `rows` holds.
    pub(super) fn all_hold(shapes: &[Shape]) -> bool {
        shapes.iter().all(Shape::holds)
    }

    #[test]
    fn a_shape_holds_only_inside_its_bound_and_nan_never() {
        let s = |v| Shape::new("s", "p", v, Op::AtLeast, 1.0);
        assert!(s(1.0).holds() && s(2.0).holds());
        assert!(!s(0.9).holds() && !s(f64::NAN).holds());
        assert_eq!(s(1.0).full_only().gated, Gated::FullOnly);
        assert_eq!(s(1.0).ungated().gated, Gated::Never);
    }
}
