//! Samplers used by the generator.

use safetx_sim::SimRng;
use safetx_types::Duration;
use serde::{Deserialize, Serialize};

/// Distribution of the number of queries per transaction (`u`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryCount {
    /// Every transaction has exactly this many queries.
    Fixed(usize),
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Minimum queries (inclusive), at least 1.
        lo: usize,
        /// Maximum queries (inclusive).
        hi: usize,
    },
}

impl QueryCount {
    /// Draws a query count (always ≥ 1).
    pub fn sample(self, rng: &mut SimRng) -> usize {
        match self {
            QueryCount::Fixed(u) => u.max(1),
            QueryCount::Uniform { lo, hi } => {
                let lo = lo.max(1);
                let hi = hi.max(lo);
                rng.range_u64(lo as u64, hi as u64 + 1) as usize
            }
        }
    }

    /// The mean of the distribution.
    #[must_use]
    pub fn mean(self) -> f64 {
        match self {
            QueryCount::Fixed(u) => u.max(1) as f64,
            QueryCount::Uniform { lo, hi } => (lo.max(1) + hi.max(lo.max(1))) as f64 / 2.0,
        }
    }
}

/// Zipf-distributed selection over `0..n` (rank 0 most popular), the
/// standard model for skewed data access.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` items with exponent `s` (`s = 0` is
    /// uniform; larger is more skewed).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `s` is negative/non-finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over zero items");
        assert!(s >= 0.0 && s.is_finite(), "invalid zipf exponent {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit_f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite"))
        {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Never true: the constructor rejects `n == 0`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// An infinite open-loop Poisson arrival process: successive absolute
/// arrival offsets with exponential inter-arrival gaps (truncated to whole
/// microseconds, minimum 1 µs so arrivals are strictly monotone).
///
/// This is the arrival side of an open-loop load driver: arrivals are
/// generated independently of completions, so a saturated service sheds
/// the excess instead of slowing the offered load down.
#[derive(Debug)]
pub struct PoissonArrivals {
    rng: SimRng,
    mean_micros: f64,
    at: Duration,
}

impl PoissonArrivals {
    /// Creates the process with the given mean inter-arrival time and its
    /// own deterministic RNG stream.
    ///
    /// # Panics
    ///
    /// Panics when `mean_interarrival` is zero.
    #[must_use]
    pub fn new(mean_interarrival: Duration, seed: u64) -> Self {
        assert!(
            mean_interarrival > Duration::ZERO,
            "zero mean inter-arrival time"
        );
        PoissonArrivals {
            rng: SimRng::new(seed),
            mean_micros: mean_interarrival.as_micros() as f64,
            at: Duration::ZERO,
        }
    }

    /// The offered load in arrivals per second.
    #[must_use]
    pub fn rate_per_sec(&self) -> f64 {
        1_000_000.0 / self.mean_micros
    }
}

impl Iterator for PoissonArrivals {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        let gap = self.rng.exponential(self.mean_micros).max(1.0);
        self.at += Duration::from_micros(gap as u64);
        Some(self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_query_count_is_fixed_and_positive() {
        let mut rng = SimRng::new(0);
        assert_eq!(QueryCount::Fixed(5).sample(&mut rng), 5);
        assert_eq!(QueryCount::Fixed(0).sample(&mut rng), 1, "clamped to 1");
        assert_eq!(QueryCount::Fixed(5).mean(), 5.0);
    }

    #[test]
    fn uniform_query_count_stays_in_bounds() {
        let mut rng = SimRng::new(1);
        for _ in 0..1_000 {
            let u = QueryCount::Uniform { lo: 2, hi: 6 }.sample(&mut rng);
            assert!((2..=6).contains(&u));
        }
        assert_eq!(QueryCount::Uniform { lo: 2, hi: 6 }.mean(), 4.0);
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = SimRng::new(2);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn zipf_skew_prefers_low_ranks() {
        let zipf = Zipf::new(100, 1.2);
        let mut rng = SimRng::new(3);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            if zipf.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        assert!(
            head > n / 2,
            "top-10 of 100 should draw most samples, got {head}/{n}"
        );
    }

    #[test]
    fn zipf_samples_are_in_range() {
        let zipf = Zipf::new(7, 0.9);
        let mut rng = SimRng::new(4);
        for _ in 0..1_000 {
            assert!(zipf.sample(&mut rng) < 7);
        }
        assert_eq!(zipf.len(), 7);
    }

    #[test]
    #[should_panic(expected = "zero items")]
    fn zipf_rejects_empty_domain() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn poisson_arrivals_are_strictly_monotone() {
        let arrivals: Vec<Duration> = PoissonArrivals::new(Duration::from_millis(1), 42)
            .take(1_000)
            .collect();
        for pair in arrivals.windows(2) {
            assert!(pair[0] < pair[1], "arrivals must strictly increase");
        }
    }

    #[test]
    fn poisson_arrivals_deterministic_under_fixed_seed() {
        let a: Vec<Duration> = PoissonArrivals::new(Duration::from_micros(500), 7)
            .take(256)
            .collect();
        let b: Vec<Duration> = PoissonArrivals::new(Duration::from_micros(500), 7)
            .take(256)
            .collect();
        assert_eq!(a, b);
        let c: Vec<Duration> = PoissonArrivals::new(Duration::from_micros(500), 8)
            .take(256)
            .collect();
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn poisson_mean_gap_tracks_configured_mean() {
        let n = 20_000u64;
        let last = PoissonArrivals::new(Duration::from_micros(1_000), 3)
            .take(n as usize)
            .last()
            .unwrap();
        let mean_gap = last.as_micros() as f64 / n as f64;
        assert!(
            (800.0..1_200.0).contains(&mean_gap),
            "mean gap {mean_gap} off the configured 1000µs"
        );
        let p = PoissonArrivals::new(Duration::from_micros(1_000), 3);
        assert!((p.rate_per_sec() - 1_000.0).abs() < f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "zero mean")]
    fn poisson_rejects_zero_mean() {
        let _ = PoissonArrivals::new(Duration::ZERO, 0);
    }
}
