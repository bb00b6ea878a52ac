//! What the box says about a run: peak memory, CPU time per thread
//! group, and how long the box stood still.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::trace::now_ns;

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Thread groups the CPU metrics are reported for, by thread name.
pub fn thread_group(comm: &str) -> &'static str {
    if comm.starts_with("tokio-worker") {
        "workers"
    } else if comm.starts_with("tokio-blocking") {
        "blocking"
    } else {
        "other"
    }
}

fn on_cpu_ns(schedstat: &str) -> u64 {
    schedstat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// On-CPU nanoseconds of the calling thread so far. Generator threads end
/// with their phase, so each reads its own before it does.
pub fn thread_cpu_ns() -> u64 {
    on_cpu_ns(&std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default())
}

/// On-CPU nanoseconds so far per thread group, from each thread's
/// `schedstat`. Threads of this runtime never exit, so the difference of
/// two snapshots is the CPU a phase used.
pub fn cpu_ns_by_group() -> HashMap<&'static str, u64> {
    let mut out = HashMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let read = |f: &str| std::fs::read_to_string(task.path().join(f)).unwrap_or_default();
        *out.entry(thread_group(read("comm").trim())).or_insert(0) += on_cpu_ns(&read("schedstat"));
    }
    out
}

/// A thread that sleeps 1 ms at a time and notes every gap above 20 ms:
/// time in which nothing in this process could have run on time, whatever
/// the program under test was doing.
pub struct StallTicker {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<(u64, u64)>>,
}

const STALL_THRESHOLD_NS: u64 = 20_000_000;

impl StallTicker {
    pub fn start() -> StallTicker {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("bench-ticker".into())
            .spawn(move || {
                let mut stalls = Vec::new();
                let mut last = now_ns();
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                    let now = now_ns();
                    if now - last > STALL_THRESHOLD_NS {
                        stalls.push((last, now));
                    }
                    last = now;
                }
                stalls
            })
            .expect("spawn ticker thread");
        StallTicker { stop, thread }
    }

    /// Stop the thread and return every stall as `(from, to)` in `now_ns`
    /// time.
    pub fn finish(self) -> Vec<(u64, u64)> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("ticker thread")
    }
}

/// Which of `segments` segments of `seg_ns` from `t0` a stall touched,
/// and the one after each: an open loop is still working off there what
/// the stall queued up.
pub fn stalled_segments(stalls: &[(u64, u64)], t0: u64, seg_ns: u64, segments: usize) -> Vec<bool> {
    let mut stalled = vec![false; segments];
    for &(from, to) in stalls {
        let first = (from.saturating_sub(t0) / seg_ns) as usize;
        let last = (to.saturating_sub(t0) / seg_ns) as usize + 1;
        for s in stalled.iter_mut().take(last + 1).skip(first) {
            *s = true;
        }
    }
    stalled
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_group_by_name() {
        assert_eq!(thread_group("tokio-worker-3"), "workers");
        assert_eq!(thread_group("tokio-blocking"), "blocking");
        assert_eq!(thread_group("tokio-reactor"), "other");
    }

    #[test]
    fn proc_readers_return_something_on_linux() {
        assert!(rss_peak_mb() > 0.0);
        assert!(cpu_ns_by_group().values().sum::<u64>() > 0);
        let before = thread_cpu_ns();
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(5) {}
        assert!(thread_cpu_ns() > before);
    }

    #[test]
    fn a_stall_marks_its_segments_and_the_next() {
        let marked = |stalls: &[(u64, u64)]| stalled_segments(stalls, 1_000, 100, 6);
        assert_eq!(marked(&[]), vec![false; 6]);
        assert_eq!(
            marked(&[(1_150, 1_180)]),
            [false, true, true, false, false, false]
        );
        assert_eq!(
            marked(&[(1_190, 1_310)]),
            [false, true, true, true, true, false]
        );
        // Before the first segment and past the last.
        assert_eq!(
            marked(&[(900, 1_010), (1_590, 1_900)]),
            [true, true, false, false, false, true]
        );
    }

    #[test]
    fn the_ticker_reports_only_gaps_above_its_threshold() {
        let ticker = StallTicker::start();
        std::thread::sleep(Duration::from_millis(30));
        let stalls = ticker.finish();
        assert!(stalls
            .iter()
            .all(|(from, to)| to - from > STALL_THRESHOLD_NS));
    }
}
