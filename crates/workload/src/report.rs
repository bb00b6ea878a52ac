//! Aligned text tables and phase-windowed stats for experiment output.
//!
//! A recorded bench prints its gates through [`Table`]; its rows, the
//! paper's values among them, go to its `BENCH_*.json`. Soak-style runs
//! that pass through distinct regimes (steady → crash → recovery → chaos)
//! record through a phase recorder, which keeps one latency histogram
//! and outcome counters per timeline phase plus a whole-run rollup; a
//! [`PhaseStats`] is one phase's frozen view.

use clipper_metrics::{Counter, Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one request ended, from the *client's* point of view — the
/// taxonomy soak runs grade on. `Ok`/`Shed` mirror
/// [`RequestOutcome`](crate::driver::RequestOutcome); `Refused` and
/// `Lost` split the old `Error` bucket into "the client was promptly
/// told no" (connection refused while a frontend is down — visible,
/// honest, retryable) and "the query vanished or hard-failed" (the one
/// thing a lossless soak must never see).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PhaseOutcome {
    /// Completed successfully; latency recorded.
    Ok,
    /// Shed by admission control (answered 429).
    Shed,
    /// Refused at the door (e.g. the target frontend was down).
    Refused,
    /// Lost: timed out, hung, or hard-failed.
    Lost,
}

/// Frozen view of one timeline phase.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// Phase label (phases may repeat, e.g. `steady` on both sides of a
    /// crash window).
    pub name: String,
    /// Offset into the run at which the phase opened.
    pub started_at: Duration,
    /// How long the phase lasted (up to "now" for the open phase).
    pub duration: Duration,
    /// Successful requests attributed to this phase.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests refused because the target frontend was down.
    pub refused: u64,
    /// Requests lost — must be 0 for a lossless run.
    pub lost: u64,
    /// Latency distribution of successful requests (µs).
    pub latency: HistogramSnapshot,
}

impl PhaseStats {
    /// P99 latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.latency.p99() as f64 / 1_000.0
    }

    /// Successful requests per second over the phase.
    pub fn throughput(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.duration.as_secs_f64()
        }
    }
}

/// Per-phase instruments. `Histogram`/`Counter` are atomic and shared by
/// clone, so every frontend driver records into the same cell — that IS
/// the cross-frontend aggregation (histograms have no merge operation;
/// sharing the recorder sidesteps needing one).
struct PhaseCell {
    name: String,
    started_at: Duration,
    ended_at: Option<Duration>,
    latency: Histogram,
    completed: Counter,
    shed: Counter,
    refused: Counter,
    lost: Counter,
}

impl PhaseCell {
    fn open(name: &str, at: Duration) -> Self {
        PhaseCell {
            name: name.to_string(),
            started_at: at,
            ended_at: None,
            latency: Histogram::new(),
            completed: Counter::new(),
            shed: Counter::new(),
            refused: Counter::new(),
            lost: Counter::new(),
        }
    }

    fn stats(&self, now: Duration) -> PhaseStats {
        PhaseStats {
            name: self.name.clone(),
            started_at: self.started_at,
            duration: self.ended_at.unwrap_or(now).saturating_sub(self.started_at),
            completed: self.completed.get(),
            shed: self.shed.get(),
            refused: self.refused.get(),
            lost: self.lost.get(),
            latency: self.latency.snapshot(),
        }
    }
}

/// Records request outcomes into the currently-open timeline phase, plus
/// a whole-run rollup. Shared (`Arc`) across every frontend's driver
/// task in a soak; [`advance`](Self::advance) is called by the event
/// timeline, records land in whichever phase is open at completion time.
pub(crate) struct PhaseRecorder {
    start: Instant,
    phases: Mutex<Vec<PhaseCell>>,
    total: PhaseCell,
}

impl PhaseRecorder {
    /// Start the clock and open the first phase.
    pub(crate) fn new(first_phase: &str) -> Arc<Self> {
        Arc::new(PhaseRecorder {
            start: Instant::now(),
            phases: Mutex::new(vec![PhaseCell::open(first_phase, Duration::ZERO)]),
            total: PhaseCell::open("total", Duration::ZERO),
        })
    }

    /// Close the open phase and open a new one named `name`.
    pub(crate) fn advance(&self, name: &str) {
        let now = self.start.elapsed();
        let mut phases = self.phases.lock();
        if let Some(open) = phases.last_mut() {
            open.ended_at = Some(now);
        }
        phases.push(PhaseCell::open(name, now));
    }

    /// Record one request outcome (latency in µs, used for `Ok` only)
    /// into the open phase and the run-wide rollup.
    pub(crate) fn record(&self, outcome: PhaseOutcome, latency_us: u64) {
        let (latency, completed, shed, refused, lost) = {
            let phases = self.phases.lock();
            let cell = phases.last().expect("≥1 phase");
            (
                cell.latency.clone(),
                cell.completed.clone(),
                cell.shed.clone(),
                cell.refused.clone(),
                cell.lost.clone(),
            )
        };
        for (lat, comp, sh, refu, lo) in [
            (&latency, &completed, &shed, &refused, &lost),
            (
                &self.total.latency,
                &self.total.completed,
                &self.total.shed,
                &self.total.refused,
                &self.total.lost,
            ),
        ] {
            match outcome {
                PhaseOutcome::Ok => {
                    lat.record(latency_us);
                    comp.inc();
                }
                PhaseOutcome::Shed => sh.inc(),
                PhaseOutcome::Refused => refu.inc(),
                PhaseOutcome::Lost => lo.inc(),
            }
        }
    }

    /// Frozen per-phase stats, in timeline order.
    pub(crate) fn phase_stats(&self) -> Vec<PhaseStats> {
        let now = self.start.elapsed();
        self.phases.lock().iter().map(|c| c.stats(now)).collect()
    }

    /// Whole-run rollup across every phase.
    pub(crate) fn totals(&self) -> PhaseStats {
        self.total.stats(self.start.elapsed())
    }
}

/// A simple aligned text table.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths.iter()).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<w$}"));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["model", "qps"]);
        t.row(&["linear-svm".into(), "29,801".into()]);
        t.row(&["kernel".into(), "201".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("model"));
        assert!(lines[2].contains("linear-svm"));
        // Columns align: "qps" column starts at the same offset in every row.
        let col = lines[0].find("qps").unwrap();
        assert_eq!(&lines[2][col - 2..col], "  ");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(&["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn phase_recorder_attributes_outcomes_to_the_open_phase() {
        let rec = PhaseRecorder::new("steady");
        rec.record(PhaseOutcome::Ok, 1_000);
        rec.record(PhaseOutcome::Shed, 0);
        rec.advance("chaos");
        rec.record(PhaseOutcome::Ok, 9_000);
        rec.record(PhaseOutcome::Refused, 0);
        rec.record(PhaseOutcome::Lost, 0);

        let phases = rec.phase_stats();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "steady");
        assert_eq!(
            (
                phases[0].completed,
                phases[0].shed,
                phases[0].refused,
                phases[0].lost
            ),
            (1, 1, 0, 0)
        );
        assert_eq!(phases[1].name, "chaos");
        assert_eq!(
            (
                phases[1].completed,
                phases[1].shed,
                phases[1].refused,
                phases[1].lost
            ),
            (1, 0, 1, 1)
        );
        // Phases tile the timeline: second starts where the first ended.
        assert!(phases[1].started_at >= phases[0].duration);

        // The rollup sees everything, including latency from both phases.
        let totals = rec.totals();
        assert_eq!(totals.completed, 2);
        assert_eq!(totals.shed, 1);
        assert_eq!(totals.refused, 1);
        assert_eq!(totals.lost, 1);
        assert!(totals.latency.p99() >= 9_000);
    }

    #[test]
    fn phase_recorder_aggregates_across_concurrent_recorders() {
        // Cross-frontend aggregation = sharing the recorder. Two threads
        // (standing in for two frontend drivers) record concurrently.
        let rec = PhaseRecorder::new("steady");
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        rec.record(PhaseOutcome::Ok, 100);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.totals().completed, 1_000);
        assert_eq!(rec.phase_stats()[0].completed, 1_000);
        assert!(rec.phase_stats()[0].throughput() > 0.0);
    }
}
