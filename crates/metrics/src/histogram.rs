//! Latency histogram: exact up to a retain cap, log-bucketed past it.
//!
//! Small experiments keep every raw sample, so quantiles are exact and
//! existing `BENCH_*.json` runs are byte-identical. Million-sample scale
//! sweeps (and merges of many per-shard histograms) would grow without
//! bound, so past [`RETAIN_CAP`] samples the histogram folds new samples
//! into log-linear buckets with a **bounded relative error**: each bucket
//! spans one `1/32` octave and reports its geometric midpoint, so any
//! quantile drawn from the folded region is within `2^(1/64) − 1 ≈ 1.1%`
//! of the true sample value. Counts, means, minima and maxima stay exact
//! in both regimes.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Raw samples retained exactly before folding into buckets.
pub const RETAIN_CAP: usize = 8192;

/// Log-linear sub-buckets per octave (power of two). 32 gives a worst-case
/// relative quantile error of `2^(1/64) − 1 ≈ 1.1%` for folded samples.
const SUBDIV: f64 = 32.0;

/// Bucket key for non-positive samples (latencies are non-negative; a
/// folded zero reports exactly `0.0`).
const NONPOS_BUCKET: i64 = i64::MIN;

/// A histogram that retains raw samples up to `RETAIN_CAP` (exact
/// quantiles), then folds the overflow into log-linear buckets (quantiles
/// with ≤ ~1.1% relative error). [`Histogram::merge`] combines both
/// representations, so per-shard histograms aggregate into one report
/// without losing p95/p99 fidelity beyond that bound.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
    /// Folded samples by log-linear bucket (ascending key = ascending
    /// representative value, with [`NONPOS_BUCKET`] first).
    buckets: BTreeMap<i64, u64>,
    folded: u64,
    folded_sum: f64,
    folded_min: f64,
    folded_max: f64,
}

/// The log-linear bucket a positive sample falls into.
fn bucket_of(sample: f64) -> i64 {
    if sample <= 0.0 {
        NONPOS_BUCKET
    } else {
        (sample.log2() * SUBDIV).floor() as i64
    }
}

/// The representative value of a bucket: the geometric midpoint of its
/// bounds (exactly `0.0` for the non-positive bucket).
fn bucket_rep(bucket: i64) -> f64 {
    if bucket == NONPOS_BUCKET {
        0.0
    } else {
        ((bucket as f64 + 0.5) / SUBDIV).exp2()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Non-finite samples are rejected.
    pub fn record(&mut self, sample: f64) {
        if !sample.is_finite() {
            return;
        }
        if self.samples.len() < RETAIN_CAP {
            self.samples.push(sample);
            self.sorted = false;
        } else {
            self.fold(sample, 1);
        }
    }

    fn fold(&mut self, sample: f64, count: u64) {
        *self.buckets.entry(bucket_of(sample)).or_insert(0) += count;
        if self.folded == 0 {
            self.folded_min = sample;
            self.folded_max = sample;
        } else {
            self.folded_min = self.folded_min.min(sample);
            self.folded_max = self.folded_max.max(sample);
        }
        self.folded += count;
        self.folded_sum += sample * count as f64;
    }

    /// Number of samples (exact, folded or not).
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len() + self.folded as usize
    }

    /// True when no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Arithmetic mean (exact in both regimes), or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            let sum = self.samples.iter().sum::<f64>() + self.folded_sum;
            Some(sum / self.count() as f64)
        }
    }

    /// Smallest sample (exact in both regimes).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        let retained = self.samples.iter().copied().reduce(f64::min);
        match (retained, self.folded > 0) {
            (Some(r), true) => Some(r.min(self.folded_min)),
            (None, true) => Some(self.folded_min),
            (r, false) => r,
        }
    }

    /// Largest sample (exact in both regimes).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        let retained = self.samples.iter().copied().reduce(f64::max);
        match (retained, self.folded > 0) {
            (Some(r), true) => Some(r.max(self.folded_max)),
            (None, true) => Some(self.folded_max),
            (r, false) => r,
        }
    }

    /// Quantile in `[0, 1]` by nearest-rank over the merged retained +
    /// folded distribution, or `None` when empty. Exact while everything
    /// is retained; folded samples answer with their bucket's
    /// representative (≤ ~1.1% relative error, see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let total = self.count();
        if total == 0 {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            self.sorted = true;
        }
        let rank = ((q * total as f64).ceil() as usize).clamp(1, total);
        // Merged ascending walk: sorted retained samples (weight 1 each)
        // interleaved with bucket representatives (bucket weight each).
        let mut cum = 0usize;
        let mut si = 0usize;
        let mut bi = self.buckets.iter().peekable();
        loop {
            let sample = self.samples.get(si).copied();
            let bucket = bi.peek().map(|(&b, &c)| (bucket_rep(b), c as usize));
            let take_sample = match (sample, bucket) {
                (Some(s), Some((rep, _))) => s <= rep,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!("rank {rank} exceeds total {total}"),
            };
            if take_sample {
                cum += 1;
                si += 1;
                if cum >= rank {
                    return sample;
                }
            } else {
                let (rep, c) = bucket.expect("bucket branch");
                cum += c;
                bi.next();
                if cum >= rank {
                    return Some(rep);
                }
            }
        }
    }

    /// Median (p50).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Merges another histogram into this one: retained samples transfer
    /// exactly (folding only past `RETAIN_CAP`); folded buckets combine
    /// count-for-count, so the merged error bound is the same ~1.1% as
    /// each input's.
    pub fn merge(&mut self, other: &Histogram) {
        for &s in &other.samples {
            self.record(s);
        }
        for (&bucket, &count) in &other.buckets {
            self.fold(bucket_rep(bucket), count);
        }
        if other.folded > 0 {
            // fold() saw only representatives; restore the exact extremes
            // and sum the other side tracked.
            self.folded_min = self.folded_min.min(other.folded_min);
            self.folded_max = self.folded_max.max(other.folded_max);
            self.folded_sum += other.folded_sum
                - other
                    .buckets
                    .iter()
                    .map(|(&b, &c)| bucket_rep(b) * c as f64)
                    .sum::<f64>();
        }
    }

    /// Machine-readable summary (count, mean, min/max, p50/p95/p99) for
    /// `BENCH_*.json` emitters. Empty histograms report `count: 0` and
    /// `null` statistics.
    pub fn to_json(&mut self) -> crate::Json {
        let opt = |v: Option<f64>| v.map_or(crate::Json::Null, crate::Json::Num);
        let mean = self.mean();
        let min = self.min();
        let max = self.max();
        crate::Json::object()
            .with("count", self.count())
            .with("mean", opt(mean))
            .with("min", opt(min))
            .with("max", opt(max))
            .with("p50", opt(self.quantile(0.5)))
            .with("p95", opt(self.quantile(0.95)))
            .with("p99", opt(self.quantile(0.99)))
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(f, "n={} mean={:.3}", self.count(), mean),
            None => write!(f, "n=0"),
        }
    }
}

impl FromIterator<f64> for Histogram {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for s in iter {
            h.record(s);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_min_max() {
        let h: Histogram = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(h.mean(), Some(2.0));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(3.0));
    }

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut h: Histogram = (1..=100).map(f64::from).collect();
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.95), Some(95.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    fn empty_histogram_returns_none() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.median(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn non_finite_samples_rejected() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(1.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a: Histogram = [1.0, 2.0].into_iter().collect();
        let b: Histogram = [3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), Some(2.5));
    }

    #[test]
    fn to_json_summarizes_and_round_trips() {
        let mut h: Histogram = (1..=100).map(f64::from).collect();
        let json = h.to_json();
        let parsed = crate::Json::parse(&json.render()).expect("valid json");
        assert_eq!(parsed.get("count").and_then(crate::Json::as_u64), Some(100));
        assert_eq!(parsed.get("p50").and_then(crate::Json::as_f64), Some(50.0));
        assert_eq!(parsed.get("p95").and_then(crate::Json::as_f64), Some(95.0));
        assert_eq!(parsed.get("p99").and_then(crate::Json::as_f64), Some(99.0));
        assert_eq!(parsed.get("min").and_then(crate::Json::as_f64), Some(1.0));
        assert_eq!(parsed.get("max").and_then(crate::Json::as_f64), Some(100.0));
    }

    #[test]
    fn empty_histogram_to_json_is_null_stats() {
        let json = Histogram::new().to_json();
        assert_eq!(json.get("count").and_then(crate::Json::as_u64), Some(0));
        assert_eq!(json.get("p99"), Some(&crate::Json::Null));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_quantile_panics() {
        let mut h: Histogram = [1.0].into_iter().collect();
        h.quantile(1.5);
    }

    #[test]
    fn folding_keeps_counts_and_moments_exact() {
        let n = RETAIN_CAP + 10_000;
        let mut h = Histogram::new();
        let mut sum = 0.0;
        for i in 0..n {
            let v = (i % 1000) as f64 + 1.0;
            h.record(v);
            sum += v;
        }
        assert_eq!(h.count(), n);
        assert!((h.mean().unwrap() - sum / n as f64).abs() < 1e-9);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(1000.0));
    }

    #[test]
    fn folded_quantiles_stay_within_error_bound() {
        // Uniform 1..=1000, repeated far past the cap: every quantile of
        // the true distribution is known, and the folded answer must land
        // within the documented ~1.1% relative bound.
        let n = 4 * RETAIN_CAP;
        let mut h = Histogram::new();
        for i in 0..n {
            h.record((i % 1000) as f64 + 1.0);
        }
        let bound = (1.0f64 / 64.0).exp2() - 1.0 + 1e-12;
        for (q, truth) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = h.quantile(q).unwrap();
            let rel = (got - truth).abs() / truth;
            // Nearest-rank granularity adds at most one bucket of slack on
            // top of the representative-value bound.
            assert!(
                rel <= 2.0 * bound + 2.0 / 1000.0,
                "q={q}: got {got}, truth {truth}, rel {rel}"
            );
        }
    }

    #[test]
    fn folded_memory_is_bounded() {
        let mut h = Histogram::new();
        for i in 0..(10 * RETAIN_CAP) {
            h.record((i as f64).max(0.5));
        }
        assert_eq!(h.samples.len(), RETAIN_CAP);
        // log2(10 * 8192) ≈ 16.3 octaves × 32 sub-buckets + slack.
        assert!(h.buckets.len() <= 17 * 32, "{} buckets", h.buckets.len());
        assert_eq!(h.count(), 10 * RETAIN_CAP);
    }

    #[test]
    fn merge_of_folded_histograms_preserves_count_mean_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..(2 * RETAIN_CAP) {
            a.record((i % 500) as f64 + 1.0);
            b.record((i % 500) as f64 + 501.0);
        }
        let (asum, bsum) = (
            a.mean().unwrap() * a.count() as f64,
            b.mean().unwrap() * b.count() as f64,
        );
        a.merge(&b);
        assert_eq!(a.count(), 4 * RETAIN_CAP);
        assert!((a.mean().unwrap() - (asum + bsum) / a.count() as f64).abs() < 1e-6);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(1000.0));
        let p99 = a.quantile(0.99).unwrap();
        assert!((960.0..=1005.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn zero_and_subnormal_samples_fold_to_zero_bucket() {
        let mut h = Histogram::new();
        for _ in 0..RETAIN_CAP {
            h.record(5.0);
        }
        h.record(0.0);
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.count(), RETAIN_CAP + 1);
        assert_eq!(h.quantile(0.0), Some(0.0));
    }
}
