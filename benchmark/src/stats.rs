//! Order statistics for the harness: nearest-rank percentiles inside a
//! round, and the median / quartiles **across** rounds that every
//! reported timing is made of.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// such that at least `p` percent of the samples are at or below it.
/// An empty slice reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort ascending (timings are never NaN; a NaN sorts as equal).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// First quartile, median and third quartile of `values`, computed the
/// way Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so a spread printed here is the spread an
/// outside checker computes from the same numbers. Fewer than two values
/// read as that value three times (0 when empty).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    sort(&mut data);
    let n = data.len();
    if n < 2 {
        return [data.first().copied().unwrap_or(0.0); 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The median of `values` (mean of the two middle samples when even).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// `(q3 - q1) / median`: the run-to-run spread as a share of the median
/// (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// One timing reported as the **median of per-round values**: each round
/// computes its own quantile over its own samples, and the rounds are
/// then summarised — never pooled — so one disturbed round moves the
/// quartiles, not the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverRounds {
    /// First quartile across rounds.
    pub q1: f64,
    /// Median across rounds — the reported value.
    pub median: f64,
    /// Third quartile across rounds.
    pub q3: f64,
    /// Rounds summarised.
    pub rounds: usize,
}

impl OverRounds {
    /// Summarise one value per round.
    pub fn of(per_round: &[f64]) -> OverRounds {
        let [q1, median, q3] = quartiles(per_round);
        OverRounds {
            q1,
            median,
            q3,
            rounds: per_round.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), 5.0);
        assert_eq!(percentile(&data, 99.0), 10.0);
        assert_eq!(percentile(&data, 90.0), 9.0);
        assert_eq!(
            percentile(&data, 0.0),
            1.0,
            "rank clamps to the first sample"
        );
        assert_eq!(percentile(&data, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 99.5), 100.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
        assert_eq!(quartiles(&[4.0]), [4.0, 4.0, 4.0]);
        assert_eq!(quartiles(&[]), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn median_of_rounds_ignores_one_disturbed_round() {
        let calm = [12.0, 12.1, 11.9, 12.0, 12.2, 12.0, 11.8, 12.1, 12.0];
        let mut disturbed = calm.to_vec();
        disturbed.push(40.0);
        let a = OverRounds::of(&calm);
        let b = OverRounds::of(&disturbed);
        assert_eq!(a.median, 12.0);
        assert!((b.median - 12.0).abs() < 0.06, "{b:?}");
        assert_eq!(b.rounds, 10);
        assert!(b.q1 <= b.median && b.median <= b.q3);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&data) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
