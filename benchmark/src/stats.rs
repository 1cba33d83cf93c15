//! Order statistics: the percentile rule every timing is reported by, and
//! the quartiles `bench suite` and `bench compare` summarise repeats with.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;
/// The tail percentile reported when the sample supports it.
pub const TAIL_CAP: f64 = 0.99;

/// Sort ascending (NaN-free inputs; a NaN would be a bug upstream).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// Median of an ascending slice (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The tail of an ascending sample: p99 when at least [`TAIL_MIN_BEYOND`]
/// samples lie beyond it, otherwise the highest percentile that still has
/// that many beyond — but never a rank below the upper middle sample, so the
/// tail of a small sample is never under its [`median`]. Returns `(value,
/// percentile)` so the percentile actually used is always printed next to
/// the value.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let cap_rank = ((TAIL_CAP * n as f64).ceil() as usize).clamp(1, n);
    let floor_rank = n / 2 + 1;
    let rank = cap_rank
        .min(n.saturating_sub(TAIL_MIN_BEYOND))
        .max(floor_rank)
        .min(n);
    (sorted[rank - 1], rank as f64 / n as f64)
}

/// The `p`-th percentile of an ascending sample by the nearest-rank rule.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The p99 of a sample taken in time order that one stall of the shared
/// host does not move: the p99 of every full window of `window` consecutive
/// samples, and the median over the windows (the whole sample is the one
/// window when it is shorter than that). A stall inflates a run of
/// consecutive samples; in the p99 of the whole sample, which has 1 % of the
/// samples beyond it, a stall longer than 1 % of the run is the result,
/// while here it is one window's, and the median passes over it. The windows
/// together keep as many samples beyond their p99s as the whole sample has.
pub fn windowed_p99(in_order: &[f64], window: usize) -> f64 {
    let p99 = |samples: &[f64]| {
        let mut sorted = samples.to_vec();
        sort(&mut sorted);
        percentile(&sorted, TAIL_CAP)
    };
    let mut tails: Vec<f64> = in_order.chunks_exact(window).map(p99).collect();
    if tails.is_empty() {
        return p99(in_order);
    }
    sort(&mut tails);
    median(&tails)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method), so
/// the spread printed here is the spread the driver computes.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        let (value, p) = tail(&ramp(2_000));
        assert_eq!(value, 1_980.0);
        assert!((p - 0.99).abs() < 1e-12);
        // Exactly 1 000 samples: rank 990 leaves exactly ten beyond.
        assert_eq!(tail(&ramp(1_000)).0, 990.0);
    }

    #[test]
    fn tail_backs_off_to_the_highest_percentile_with_ten_beyond() {
        // 999 samples: p99 is rank 990, but only 9 lie beyond it.
        let (value, p) = tail(&ramp(999));
        assert_eq!(value, 989.0);
        assert!(p < 0.99);
        let (value, p) = tail(&ramp(50));
        assert_eq!(value, 40.0);
        assert!((p - 0.8).abs() < 1e-12);
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        // Even n: the median averages samples 6 and 7, so the floor is 7.
        assert_eq!(tail(&ramp(12)).0, 7.0);
        assert_eq!(tail(&ramp(4)).0, 3.0);
        assert_eq!(tail(&ramp(5)).0, 3.0);
        assert_eq!(tail(&ramp(1)).0, 1.0);
        for n in 1..=40 {
            let sample = ramp(n);
            assert!(tail(&sample).0 >= median(&sample), "n = {n}");
        }
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_windowed_p99() {
        // Five windows of 250 samples, each 1..=250: p99 = 248 in each.
        let quiet: Vec<f64> = (0..5).flat_map(|_| ramp(250)).collect();
        assert_eq!(windowed_p99(&quiet, 250), 248.0);
        // A stall inflates 40 consecutive samples of the second window: the
        // p99 of the whole sample (1 250 samples, 13 beyond) is the stall.
        let mut stalled = quiet.clone();
        for sample in &mut stalled[300..340] {
            *sample = 9_000.0;
        }
        assert_eq!(windowed_p99(&stalled, 250), 248.0);
        let mut sorted = stalled.clone();
        sort(&mut sorted);
        assert_eq!(percentile(&sorted, TAIL_CAP), 9_000.0);
        // Stalls in most of the windows do move it.
        for window in [0, 2, 3] {
            stalled[window * 250 + 7..window * 250 + 17].fill(9_000.0);
        }
        assert_eq!(windowed_p99(&stalled, 250), 9_000.0);
        // Shorter than a window: the p99 of what there is; the remainder
        // of a longer sample is left out.
        assert_eq!(windowed_p99(&ramp(100), 250), 99.0);
        assert_eq!(windowed_p99(&quiet[..700], 250), 248.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 4.0, 5.5));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&ramp(4)), 2.5);
        assert_eq!(median(&ramp(5)), 3.0);
    }
}
