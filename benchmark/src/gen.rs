//! Seeded inputs and the reply oracle.
//!
//! Everything the benchmark sends is a pure function of `--seed`: the
//! feature tail, the key draws, the arrival schedule. The program under
//! test sees only the generated inputs. Every input carries its request
//! id in features 0–1, so the expected label can be computed from the
//! request alone — by the harness when a reply comes back, and by the
//! tracing decorators when a batch goes past.

/// SplitMix64: the benchmark's own generator, so a change to the vendored
/// `rand` stream cannot move the workloads.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Features per input.
pub const DIM: usize = 32;
/// Labels are in `0..CLASSES`.
pub const CLASSES: u32 = 10;

/// Both id features are `ID_BASE + x` with `x < ID_BASE`: seven decimal
/// digits, exactly representable in an `f32`, and of fixed width in JSON
/// so an HTTP request can be patched in place.
const ID_BASE: u64 = 1_000_000;
/// Ids are below this.
pub const ID_LIMIT: u64 = ID_BASE * ID_BASE;

pub fn id_features(id: u64) -> (u32, u32) {
    debug_assert!(id < ID_LIMIT);
    (
        (ID_BASE + id % ID_BASE) as u32,
        (ID_BASE + id / ID_BASE) as u32,
    )
}

/// The request id an input carries.
pub fn id_of(input: &[f32]) -> u64 {
    let lo = (input[0] as u64).wrapping_sub(ID_BASE);
    let hi = (input[1] as u64).wrapping_sub(ID_BASE);
    hi.wrapping_mul(ID_BASE).wrapping_add(lo)
}

/// Features 2.. of every input of a run: multiples of 1/64 in [0, 1), so
/// their JSON form is short and exact.
pub fn feature_tail(seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed ^ 0x7A11);
    (2..DIM).map(|_| rng.below(64) as f32 / 64.0).collect()
}

pub fn input(id: u64, tail: &[f32]) -> Vec<f32> {
    let (lo, hi) = id_features(id);
    let mut v = Vec::with_capacity(DIM);
    v.push(lo as f32);
    v.push(hi as f32);
    v.extend_from_slice(tail);
    v
}

/// Ground truth for a request.
pub fn truth(id: u64) -> u32 {
    (mix64(id ^ 0x7047) % CLASSES as u64) as u32
}

/// What model `m` answers for a request: the truth, except on an
/// `err_pct` share of ids, where each model errs to a different label —
/// so a vote among models can beat every single one of them.
pub fn model_label(id: u64, m: u32, err_pct: u32) -> u32 {
    let t = truth(id);
    if mix64(id ^ (0xE44 + m as u64)) % 100 < err_pct as u64 {
        (t + 1 + m) % CLASSES
    } else {
        t
    }
}

/// Zipf(s) over `n` keys by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Key rank in `0..n`, rank 0 the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability mass of the `k` most popular keys.
    #[cfg(test)]
    pub fn top_share(&self, k: usize) -> f64 {
        self.cdf[k - 1]
    }
}

/// Due times in nanoseconds from the start of a Poisson process of
/// `rate_per_s`, up to `horizon_ns`.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, horizon_ns: u64) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate_per_s * horizon_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s * 1e9;
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_survives_the_f32_round_trip() {
        let tail = feature_tail(1);
        for id in [0, 1, 999_999, 1_000_000, 123_456_789_012, ID_LIMIT - 1] {
            let x = input(id, &tail);
            assert_eq!(x.len(), DIM);
            assert_eq!(id_of(&x), id);
        }
    }

    #[test]
    fn models_err_at_their_rate_and_to_different_labels() {
        let n = 100_000u64;
        for (m, pct) in [(0u32, 5u32), (3, 35)] {
            let wrong = (0..n)
                .filter(|&id| model_label(id, m, pct) != truth(id))
                .count();
            let share = wrong as f64 / n as f64;
            assert!(
                (share - pct as f64 / 100.0).abs() < 0.01,
                "model {m}: {share}"
            );
        }
        assert!((0..n).all(|id| model_label(id, 0, 0) == truth(id)));
        let id = (0..n)
            .find(|&id| model_label(id, 0, 100) != model_label(id, 1, 100))
            .expect("some id");
        assert_ne!(model_label(id, 0, 100), truth(id));
    }

    #[test]
    fn zipf_matches_its_analytic_top_share() {
        let z = Zipf::new(4096, 1.1);
        let mut rng = Rng::new(7);
        let draws = 200_000;
        for k in [1usize, 16, 256] {
            let mut rng2 = Rng::new(k as u64);
            let hits = (0..draws).filter(|_| z.sample(&mut rng2) < k).count();
            let measured = hits as f64 / draws as f64;
            assert!(
                (measured - z.top_share(k)).abs() < 0.005,
                "top {k}: measured {measured}, analytic {}",
                z.top_share(k)
            );
        }
        assert!((0..1000).all(|_| z.sample(&mut rng) < 4096));
        assert!((z.top_share(4096) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(&mut Rng::new(3), 4000.0, 1_000_000_000);
        let b = poisson_schedule(&mut Rng::new(3), 4000.0, 1_000_000_000);
        let c = poisson_schedule(&mut Rng::new(4), 4000.0, 1_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((a.len() as f64 - 4000.0).abs() < 300.0, "{}", a.len());
        assert!(*a.last().unwrap() < 1_000_000_000);
    }
}
