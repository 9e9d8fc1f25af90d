//! Order statistics for the reported timings.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, so a tail
//! figure never rests on a handful of outliers.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest tail percentile ever reported. Above it, on a shared host, a
/// tail sits on the knee where the scheduler starts to delay a thread, and
/// runs of the same code disagree by a third: a `ppsimd-mixed` hit's p98 to
/// p99.5 spans 0.07–0.20 ms while its p95 stays near 0.05 ms.
pub const TAIL_MAX_PERCENTILE: u32 = 95;

/// The median of `samples` (the mean of the two middle values for an even
/// count), or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// The coefficient of variation (population standard deviation over mean)
/// of `samples`, or `None` when there are none.
pub fn cv(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    Some(var.sqrt() / mean)
}

/// The nearest-rank `p`-th percentile of an ascending slice.
fn nearest_rank(sorted: &[f64], p: u32) -> f64 {
    let rank = (p as usize * sorted.len()).div_ceil(100);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile `p ≤ TAIL_MAX_PERCENTILE`, at or above the
/// median, whose nearest-rank sample still has at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond it. `None` when `count` is too small for any
/// percentile at or above the 50th to qualify.
pub fn tail_percentile(count: usize) -> Option<u32> {
    (50..=TAIL_MAX_PERCENTILE).rev().find(|&p| {
        let rank = (p as usize * count).div_ceil(100).max(1);
        count >= rank + TAIL_MIN_BEYOND
    })
}

/// The tail of `samples` by the [`tail_percentile`] rule: `(p, value)`.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let p = tail_percentile(samples.len())?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((p, nearest_rank(&sorted, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Too few samples for any tail at or above the median.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: p50 is rank 10, with exactly 10 beyond it.
        assert_eq!(tail_percentile(20), Some(50));
        // 100 samples: p90 is rank 90 (10 beyond); p91 would leave 9.
        assert_eq!(tail_percentile(100), Some(90));
        // 200 samples: p95 is rank 190, 10 beyond.
        assert_eq!(tail_percentile(200), Some(95));
        // Capped at p95 however many samples there are.
        assert_eq!(tail_percentile(1000), Some(95));
        assert_eq!(tail_percentile(1_000_000), Some(95));
        for count in 20..3000 {
            let p = tail_percentile(count).expect("20+ samples always qualify");
            let rank = (p as usize * count).div_ceil(100);
            assert!(count - rank >= TAIL_MIN_BEYOND, "count {count}: p{p}");
            if p < TAIL_MAX_PERCENTILE {
                let next = ((p as usize + 1) * count).div_ceil(100);
                assert!(count - next < TAIL_MIN_BEYOND, "count {count}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn tail_reads_the_nearest_rank_sample() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((90, 90.0)));
        let shuffled: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&shuffled), Some((90, 90.0)));
        assert_eq!(tail(&samples[..10]), None);
    }
}
