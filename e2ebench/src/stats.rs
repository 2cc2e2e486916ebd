//! Order statistics and open-loop schedule arithmetic.

use std::time::{Duration, Instant};

/// Fewest samples that must lie beyond a reported percentile. A p99 over
/// 200 samples rests on two values; below this tail the number is noise.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`, refusing (`None`)
/// when fewer than `min_tail` samples lie beyond the selected rank.
///
/// The rank is `⌈p/100 · n⌉` (1-based) and the samples beyond it are the
/// `n − rank` larger ones.
pub fn percentile(values: &[f64], p: f64, min_tail: usize) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < min_tail {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Plain median (mean of the two middle values for even counts).
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
        0.5 * (sorted[mid - 1] + sorted[mid])
    })
}

/// Throughput of each of `windows` equal slices of `total` processed
/// packets: `crossings[k]` is the elapsed time, in seconds from the start
/// of the pass, at which the processed count first reached
/// `(k + 1) · total / windows`. Returns packets per second per window.
pub fn window_rates(crossings: &[f64], total: u64, windows: usize) -> Vec<f64> {
    let per_window = total as f64 / windows as f64;
    let mut prev = 0.0;
    crossings
        .iter()
        .map(|&t| {
            let rate = per_window / (t - prev).max(1e-9);
            prev = t;
            rate
        })
        .collect()
}

/// The processed count at which window `k` (0-based) of `windows` closes.
pub fn window_boundary(k: usize, total: u64, windows: usize) -> u64 {
    ((k as u64 + 1) * total).div_ceil(windows as u64)
}

/// An open-loop arrival schedule: packet `i` is due `i / rate` seconds
/// after the pass starts, whatever happened to the packets before it.
#[derive(Clone, Copy, Debug)]
pub struct Arrivals {
    start: Instant,
    rate_pps: f64,
}

impl Arrivals {
    /// A schedule at `rate_pps` packets per second starting at `start`.
    pub fn new(start: Instant, rate_pps: f64) -> Self {
        Arrivals { start, rate_pps }
    }

    /// When packet `index` is due.
    pub fn due(&self, index: usize) -> Instant {
        self.start + self.offset(index)
    }

    /// Due time of packet `index` relative to the start.
    pub fn offset(&self, index: usize) -> Duration {
        Duration::from_secs_f64(index as f64 / self.rate_pps)
    }

    /// The gap between consecutive arrivals: a generator later than this
    /// is no longer offering the load it claims.
    pub fn gap(&self) -> Duration {
        Duration::from_secs_f64(1.0 / self.rate_pps)
    }
}

/// How late a packet was offered: zero when on time or early.
pub fn lateness(due: Instant, offered: Instant) -> Duration {
    offered.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0, MIN_TAIL), Some(50.0));
        assert_eq!(percentile(&v, 90.0, MIN_TAIL), Some(90.0));
        assert_eq!(percentile(&v, 1.0, MIN_TAIL), Some(1.0));
        // 50.5% of 100 rounds up to rank 51.
        assert_eq!(percentile(&v, 50.5, MIN_TAIL), Some(51.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        // p90 of 100 leaves exactly 10 beyond: allowed.
        assert!(percentile(&v, 90.0, MIN_TAIL).is_some());
        // p91 leaves 9: refused.
        assert_eq!(percentile(&v, 91.0, MIN_TAIL), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&v, 99.0, MIN_TAIL), None);
        let w: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0, MIN_TAIL), Some(989.0));
        assert_eq!(percentile(&[], 50.0, 0), None);
        assert_eq!(percentile(&v, 0.0, 0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_rates_split_the_pass_into_equal_packet_slices() {
        // 100 packets in 4 windows of 25: the second window took twice as
        // long as the others.
        let crossings = [1.0, 3.0, 4.0, 5.0];
        let rates = window_rates(&crossings, 100, 4);
        assert_eq!(rates, vec![25.0, 12.5, 25.0, 25.0]);
        assert_eq!(median(&rates), Some(25.0));
        assert_eq!(window_boundary(0, 100, 4), 25);
        assert_eq!(window_boundary(3, 100, 4), 100);
        // Uneven totals round each boundary up, and the last is the total.
        assert_eq!(window_boundary(0, 10, 3), 4);
        assert_eq!(window_boundary(2, 10, 3), 10);
    }

    #[test]
    fn due_times_follow_the_rate_and_lateness_is_clamped() {
        let t0 = Instant::now();
        let a = Arrivals::new(t0, 2000.0);
        assert_eq!(a.offset(0), Duration::ZERO);
        assert_eq!(a.offset(2000), Duration::from_secs(1));
        assert_eq!(a.due(1), t0 + Duration::from_micros(500));
        assert_eq!(a.gap(), Duration::from_micros(500));
        let due = a.due(10);
        assert_eq!(
            lateness(due, due + Duration::from_micros(7)),
            Duration::from_micros(7)
        );
        assert_eq!(lateness(due, t0), Duration::ZERO);
    }
}
