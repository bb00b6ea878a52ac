//! Arrival processes for load generation.

use rand::prelude::*;
use rand_distr::Exp;
use std::time::Duration;

/// How queries arrive at the system.
#[derive(Clone, Debug)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` queries/second (exponential gaps).
    Poisson {
        /// Mean arrival rate (qps).
        rate: f64,
    },
    /// Deterministic arrivals at `rate` queries/second.
    Uniform {
        /// Arrival rate (qps).
        rate: f64,
    },
    /// On/off bursts: Poisson at `on_rate` for `on`, silent for `off`.
    Bursty {
        /// Rate during a burst (qps).
        on_rate: f64,
        /// Burst duration.
        on: Duration,
        /// Gap duration.
        off: Duration,
    },
}

impl ArrivalProcess {
    /// Long-run average rate (qps).
    pub fn mean_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::Uniform { rate } => *rate,
            ArrivalProcess::Bursty { on_rate, on, off } => {
                let total = on.as_secs_f64() + off.as_secs_f64();
                if total <= 0.0 {
                    *on_rate
                } else {
                    on_rate * on.as_secs_f64() / total
                }
            }
        }
    }

    /// Build an iterator of inter-arrival gaps, seeded for repeatability.
    pub(crate) fn gaps(&self, seed: u64) -> ArrivalIter {
        ArrivalIter {
            process: self.clone(),
            rng: StdRng::seed_from_u64(seed),
            burst_elapsed: Duration::ZERO,
        }
    }
}

/// Iterator over inter-arrival gaps.
pub(crate) struct ArrivalIter {
    process: ArrivalProcess,
    rng: StdRng,
    burst_elapsed: Duration,
}

impl Iterator for ArrivalIter {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        match &self.process {
            ArrivalProcess::Poisson { rate } => {
                if *rate <= 0.0 {
                    return None;
                }
                let exp = Exp::new(*rate).ok()?;
                Some(Duration::from_secs_f64(exp.sample(&mut self.rng)))
            }
            ArrivalProcess::Uniform { rate } => {
                if *rate <= 0.0 {
                    return None;
                }
                Some(Duration::from_secs_f64(1.0 / rate))
            }
            ArrivalProcess::Bursty { on_rate, on, off } => {
                if *on_rate <= 0.0 {
                    return None;
                }
                let exp = Exp::new(*on_rate).ok()?;
                let mut gap = Duration::from_secs_f64(exp.sample(&mut self.rng));
                self.burst_elapsed += gap;
                if self.burst_elapsed >= *on {
                    // Burst over: insert the off-period, start a new burst.
                    gap += *off;
                    self.burst_elapsed = Duration::ZERO;
                }
                Some(gap)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_gaps_are_constant() {
        let p = ArrivalProcess::Uniform { rate: 100.0 };
        let gaps: Vec<Duration> = p.gaps(1).take(5).collect();
        assert!(gaps.iter().all(|&g| g == Duration::from_millis(10)));
        assert_eq!(p.mean_rate(), 100.0);
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let p = ArrivalProcess::Poisson { rate: 1_000.0 };
        let total: Duration = p.gaps(42).take(10_000).sum();
        let mean_gap = total.as_secs_f64() / 10_000.0;
        assert!(
            (mean_gap - 0.001).abs() < 0.0002,
            "mean gap {mean_gap} vs expected 0.001"
        );
    }

    #[test]
    fn poisson_is_seeded_deterministic() {
        let p = ArrivalProcess::Poisson { rate: 500.0 };
        let a: Vec<Duration> = p.gaps(7).take(10).collect();
        let b: Vec<Duration> = p.gaps(7).take(10).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn bursty_inserts_off_periods() {
        let p = ArrivalProcess::Bursty {
            on_rate: 1_000.0,
            on: Duration::from_millis(10),
            off: Duration::from_millis(100),
        };
        let gaps: Vec<Duration> = p.gaps(3).take(1_000).collect();
        let long_gaps = gaps
            .iter()
            .filter(|g| **g >= Duration::from_millis(100))
            .count();
        assert!(long_gaps > 0, "bursty stream must contain off-period gaps");
        // Mean rate accounts for the duty cycle.
        let expected = 1_000.0 * (10.0 / 110.0);
        assert!((p.mean_rate() - expected).abs() < 1.0);
    }

    #[test]
    fn zero_rate_terminates() {
        let p = ArrivalProcess::Poisson { rate: 0.0 };
        assert!(p.gaps(0).next().is_none());
    }
}
