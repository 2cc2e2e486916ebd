//! Statistics utilities: means, variances, percentiles, empirical CDFs, and
//! a least-squares line fit.
//!
//! The SpotFi evaluation reports everything as CDFs of error (Figs. 7–9),
//! the likelihood metric (Eq. 8) consumes population variances of clustered
//! AoA/ToF estimates, and ToF sanitization (Algorithm 1) fits one line to
//! unwrapped phase — these helpers serve all three.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`, matching the paper's "population
/// variances of the estimated AoA and ToF"); 0 for fewer than 2 samples.
pub fn population_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn population_std(xs: &[f64]) -> f64 {
    population_variance(xs).sqrt()
}

/// Linear-interpolation percentile, `p ∈ [0, 100]`.
///
/// # Panics
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {} out of range", p);
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = rank - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// An empirical CDF: sorted samples with query helpers; the backbone of the
/// evaluation figures.
///
/// ```
/// use spotfi_math::stats::Ecdf;
///
/// let errors = [0.3, 0.5, 0.4, 1.8, 0.9];
/// let cdf = Ecdf::new(&errors);
/// assert_eq!(cdf.median(), 0.5);
/// assert_eq!(cdf.fraction_below(1.0), 0.8);
/// ```
#[derive(Clone, Debug)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an empirical CDF from samples.
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN.
    pub fn new(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "Ecdf of empty sample set");
        assert!(samples.iter().all(|x| !x.is_nan()), "Ecdf sample is NaN");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ecdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if no samples (unreachable via `new`, kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF at fraction `q ∈ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile(&self.sorted, q * 100.0)
    }

    /// Median sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Samples at evenly spaced CDF fractions, as `(value, fraction)` pairs —
    /// ready to plot or print as a figure series.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2);
        (0..points)
            .map(|i| {
                let q = i as f64 / (points - 1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }
}

/// Fits `y ≈ slope·x + intercept`; returns `(slope, intercept)`.
///
/// This is the core of SpotFi's ToF sanitization (Algorithm 1): the common
/// linear-in-subcarrier phase slope *is* the sampling-time offset.
///
/// Returns `None` if fewer than 2 points or all `x` identical.
pub fn linear_fit(x: &[f64], y: &[f64]) -> Option<(f64, f64)> {
    assert_eq!(x.len(), y.len(), "linear_fit length mismatch");
    let n = x.len() as f64;
    if x.len() < 2 {
        return None;
    }
    let sx: f64 = x.iter().sum();
    let sy: f64 = y.iter().sum();
    let sxx: f64 = x.iter().map(|v| v * v).sum();
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 * (n * sxx).abs().max(1.0) {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    Some((slope, intercept))
}

/// Histogram with fixed-width bins over `[lo, hi)`; out-of-range samples are
/// clamped into the edge bins.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    assert!(bins > 0 && hi > lo);
    let mut counts = vec![0usize; bins];
    let w = (hi - lo) / bins as f64;
    for &x in xs {
        let b = (((x - lo) / w) as isize).clamp(0, bins as isize - 1) as usize;
        counts[b] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((population_variance(&xs) - 4.0).abs() < 1e-12);
        assert!((population_std(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn variance_invariant_to_shift() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let shifted: Vec<f64> = xs.iter().map(|x| x + 100.0).collect();
        assert!((population_variance(&xs) - population_variance(&shifted)).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert!((median(&xs) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_fraction_below() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert!((e.fraction_below(0.5) - 0.0).abs() < 1e-12);
        assert!((e.fraction_below(2.0) - 0.5).abs() < 1e-12);
        assert!((e.fraction_below(10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_quantile_median() {
        let e = Ecdf::new(&[3.0, 1.0, 2.0]);
        assert!((e.median() - 2.0).abs() < 1e-12);
        assert!((e.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((e.quantile(1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_series_monotone() {
        let e = Ecdf::new(&[0.4, 1.8, 0.2, 2.5, 0.9, 1.1]);
        let s = e.series(11);
        assert_eq!(s.len(), 11);
        for w in s.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn linear_fit_exact() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| -3.0 * v + 0.5).collect();
        let (m, b) = linear_fit(&x, &y).unwrap();
        assert!((m + 3.0).abs() < 1e-12);
        assert!((b - 0.5).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn histogram_counts() {
        let xs = [0.1, 0.2, 0.5, 0.9, -5.0, 5.0];
        let h = histogram(&xs, 0.0, 1.0, 2);
        // -5 clamps into bin 0, 5 and 0.9 into bin 1; 0.5 lands in bin 1.
        assert_eq!(h, vec![3, 3]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_percentile_panics() {
        percentile(&[], 50.0);
    }
}
