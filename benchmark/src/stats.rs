//! Order statistics used by every reported value.

/// Percentiles the benchmark reports, lowest first, each with the share of
/// samples beyond it in thousandths (kept whole: 100 − 99.9 is not 0.1 in
/// binary floating point).
const LADDER: [(f64, usize); 5] = [(50.0, 500), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest percentile of [`LADDER`] that still has at least ten samples
/// beyond it among `n` samples (the choosing-metrics rule). 50 when even
/// p90 is unsupported.
pub fn highest_supported_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .find(|(_, beyond)| n * beyond >= 10 * 1_000)
        .map_or(50.0, |&(p, _)| p)
}

/// Nearest-rank percentile of an ascending slice. `None` when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The `asked` percentile of `samples`, lowered to the highest percentile
/// the sample count supports. Returns `(value, percentile used)`.
pub fn capped_percentile(samples: &mut [f64], asked: f64) -> Option<(f64, f64)> {
    samples.sort_by(f64::total_cmp);
    let used = asked.min(highest_supported_percentile(samples.len()));
    percentile_sorted(samples, used).map(|v| (v, used))
}

/// Median (mean of the two middle values for an even count). `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The distance between the first and the third quartile as a share of the
/// median — the rule run-to-run spreads are judged by, applied to the
/// segments of one run. Quartiles as Python's `statistics.quantiles(v, n=4)`
/// gives them. `None` below two values or at a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        // Exclusive method: position k(n + 1)/4, counted from 1, clamped.
        let at = (k * (sorted.len() + 1)) as f64 / 4.0;
        let below = (at.floor() as usize).clamp(1, sorted.len() - 1);
        let share = at - below as f64;
        sorted[below - 1] + share * (sorted[below] - sorted[below - 1])
    };
    let mid = median(&sorted)?;
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99.9 needs 10_000 samples, p99 1_000, p95 200, p90 100.
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(9_999), 99.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(0), 50.0);
    }

    #[test]
    fn capped_percentile_lowers_an_unsupported_request() {
        let mut few: Vec<f64> = (1..=150).map(f64::from).collect();
        let (value, used) = capped_percentile(&mut few, 95.0).unwrap();
        assert_eq!(used, 90.0);
        assert_eq!(value, 135.0);
        let mut many: Vec<f64> = (1..=400).rev().map(f64::from).collect();
        let (value, used) = capped_percentile(&mut many, 95.0).unwrap();
        assert_eq!(used, 95.0);
        assert_eq!(value, 380.0);
        assert!(capped_percentile(&mut [], 95.0).is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&sorted, 50.0), Some(2.0));
        assert_eq!(percentile_sorted(&sorted, 75.0), Some(3.0));
        assert_eq!(percentile_sorted(&sorted, 100.0), Some(4.0));
        assert_eq!(percentile_sorted(&sorted, 0.0), Some(1.0));
    }

    #[test]
    fn median_of_segments_and_their_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 5.0, 4.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // One outlier segment moves neither the median nor the quartiles.
        let segments = [
            100.0, 101.0, 99.0, 100.0, 50.0, 102.0, 98.0, 100.0, 101.0, 99.0,
        ];
        assert_eq!(median(&segments), Some(100.0));
        assert!(quartile_spread(&segments).unwrap() < 0.03);
    }

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_spread(&ten), Some((8.25 - 2.75) / 5.5));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5].
        assert_eq!(quartile_spread(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some(1.0));
        assert_eq!(quartile_spread(&[7.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0]), None);
    }
}
