//! Order statistics and rate arithmetic for the reported metrics.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Candidate tail percentiles, in tenths of a percent, highest first.
const TAIL_PERMILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Inputs a tail percentile must leave beyond it.
const TAIL_MIN_BEYOND: u64 = 10;

/// The tail statistic of a run that timed every one of `inputs`
/// distinct inputs at least once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The highest candidate percentile that leaves at least ten inputs
    /// beyond its rank (50 when even p50 leaves fewer).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank over all samples).
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: u64,
    /// Sample count.
    pub samples: u64,
}

/// Nearest-rank index (1-based) of the `permille`/1000 quantile of `n`.
fn rank(n: u64, permille: u64) -> u64 {
    (permille * n).div_ceil(1000).max(1)
}

/// Selects the tail percentile from the number of distinct `inputs`, so
/// it stays fixed however many passes over them a run makes, and reads
/// it off all samples `xs`. `None` when there are no samples.
pub fn tail(xs: &[f64], inputs: usize) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let k = inputs as u64;
    let permille = TAIL_PERMILLE
        .into_iter()
        .find(|&p| k - rank(k, p).min(k) >= TAIL_MIN_BEYOND)
        .unwrap_or(500);
    let n = xs.len() as u64;
    let r = rank(n, permille);
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: permille as f64 / 10.0,
        value: v[(r - 1) as usize],
        beyond: n - r,
        samples: n,
    })
}

/// `count` per second of `seconds`; 0 when no time was measured.
pub fn per_second(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

/// `part / whole`; 0 when the base is 0 (the layer did no work).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the selection has to sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_inputs_beyond() {
        for (n, pct, value, beyond) in [
            (20, 50.0, 10.0, 10),
            (39, 50.0, 20.0, 19),
            (40, 75.0, 30.0, 10),
            (99, 75.0, 75.0, 24),
            (100, 90.0, 90.0, 10),
            (199, 90.0, 180.0, 19),
            (200, 95.0, 190.0, 10),
            (1000, 99.0, 990.0, 10),
            (10_000, 99.9, 9990.0, 10),
        ] {
            let t = tail(&ramp(n), n).unwrap();
            assert_eq!(
                (t.percentile, t.value, t.beyond, t.samples),
                (pct, value, beyond, n as u64),
                "n = {n}"
            );
        }
    }

    #[test]
    fn repeated_passes_keep_the_percentile() {
        // Three passes over 40 inputs: still p75, read off all 120.
        let t = tail(&ramp(120), 40).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 90.0, 30));
    }

    #[test]
    fn tail_falls_back_to_p50_below_twenty_inputs() {
        let t = tail(&ramp(7), 7).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 4.0, 3));
        assert_eq!(tail(&[], 7), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rates_and_ratios_guard_empty_bases() {
        // 1200 useful deliveries over 0.4 s of measured time.
        assert_eq!(per_second(1200.0, 0.4), 3000.0);
        assert_eq!(per_second(5.0, 0.0), 0.0);
        // 85 duplicates out of 100 deliveries leave 15 useful.
        assert_eq!(ratio(100.0 - 85.0, 100.0), 0.15);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
