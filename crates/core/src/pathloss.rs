//! Log-distance path-loss model (paper Sec. 3.3, citing RADAR/Goldsmith).
//!
//! SpotFi relates RSSI to distance with the standard model
//!
//! ```text
//! p(d) = p₀ − 10·η·log10(d / d₀),      d₀ = 1 m
//! ```
//!
//! The intercept `p₀` and exponent `η` are treated as optimization variables
//! alongside the target location (Algorithm 2, step 12). Because both enter
//! the model linearly (in `log10 d`), for any candidate location they have a
//! closed-form weighted least-squares solution — which is how the
//! localization solver stays fast.

/// Log-distance path-loss model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathLossModel {
    /// RSSI at the 1 m reference distance, dBm.
    pub p0_dbm: f64,
    /// Path-loss exponent (2 in free space, 2.5–4 indoors).
    pub exponent: f64,
}

impl PathLossModel {
    /// Predicted RSSI at distance `d` meters (clamped at 0.1 m).
    pub fn predict_dbm(&self, distance_m: f64) -> f64 {
        self.p0_dbm - 10.0 * self.exponent * distance_m.max(0.1).log10()
    }

    /// Weighted least-squares fit of `(p₀, η)` to `(distance, rssi)` pairs
    /// with weights `w_i ≥ 0`:
    /// minimizes `Σ w_i·(p₀ − 10·η·log10(d_i) − rssi_i)²`.
    ///
    /// Returns `None` when fewer than 2 effective points or all distances
    /// (numerically) equal.
    pub fn fit_weighted(samples: &[(f64, f64)], weights: &[f64]) -> Option<PathLossModel> {
        assert_eq!(samples.len(), weights.len());
        // Weighted linear regression of rssi on x = −10·log10(d).
        let mut sw = 0.0;
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut n_eff = 0usize;
        for (&(d, rssi), &w) in samples.iter().zip(weights) {
            if w <= 0.0 || !d.is_finite() || !rssi.is_finite() || d <= 0.0 {
                continue;
            }
            let x = -10.0 * d.max(0.1).log10();
            sw += w;
            sx += w * x;
            sy += w * rssi;
            sxx += w * x * x;
            sxy += w * x * rssi;
            n_eff += 1;
        }
        if n_eff < 2 || sw <= 0.0 {
            return None;
        }
        let denom = sw * sxx - sx * sx;
        if denom.abs() < 1e-9 * (sw * sxx).abs().max(1.0) {
            return None;
        }
        let exponent = (sw * sxy - sx * sy) / denom;
        let p0 = (sy - exponent * sx) / sw;
        Some(PathLossModel {
            p0_dbm: p0,
            exponent,
        })
    }

    /// Unweighted fit.
    pub fn fit(samples: &[(f64, f64)]) -> Option<PathLossModel> {
        let w = vec![1.0; samples.len()];
        Self::fit_weighted(samples, &w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_free_space_slope() {
        let m = PathLossModel {
            p0_dbm: -40.0,
            exponent: 2.0,
        };
        assert!((m.predict_dbm(1.0) - -40.0).abs() < 1e-12);
        // Free-space: −20 dB per decade.
        assert!((m.predict_dbm(10.0) - -60.0).abs() < 1e-12);
        assert!((m.predict_dbm(100.0) - -80.0).abs() < 1e-12);
    }

    #[test]
    fn fit_recovers_exact_model() {
        let truth = PathLossModel {
            p0_dbm: -42.0,
            exponent: 2.7,
        };
        let samples: Vec<(f64, f64)> = [1.0, 2.0, 5.0, 8.0, 15.0]
            .iter()
            .map(|&d| (d, truth.predict_dbm(d)))
            .collect();
        let fit = PathLossModel::fit(&samples).unwrap();
        assert!((fit.p0_dbm - truth.p0_dbm).abs() < 1e-9);
        assert!((fit.exponent - truth.exponent).abs() < 1e-9);
    }

    #[test]
    fn weights_downweight_outliers() {
        let truth = PathLossModel {
            p0_dbm: -42.0,
            exponent: 2.7,
        };
        let mut samples: Vec<(f64, f64)> = [1.0, 2.0, 5.0, 8.0]
            .iter()
            .map(|&d| (d, truth.predict_dbm(d)))
            .collect();
        samples.push((10.0, 30.0)); // absurd outlier
        let w_out = [1.0, 1.0, 1.0, 1.0, 0.0];
        let fit = PathLossModel::fit_weighted(&samples, &w_out).unwrap();
        assert!((fit.exponent - truth.exponent).abs() < 1e-9);
        let w_in = [1.0, 1.0, 1.0, 1.0, 1.0];
        let bad = PathLossModel::fit_weighted(&samples, &w_in).unwrap();
        assert!(
            (bad.exponent - truth.exponent).abs() > 0.5,
            "outlier should distort"
        );
    }

    #[test]
    fn degenerate_fits_return_none() {
        assert!(PathLossModel::fit(&[(1.0, -40.0)]).is_none());
        // All same distance: slope undetermined.
        assert!(PathLossModel::fit(&[(2.0, -40.0), (2.0, -45.0), (2.0, -42.0)]).is_none());
        // All weights zero.
        assert!(PathLossModel::fit_weighted(&[(1.0, -40.0), (5.0, -55.0)], &[0.0, 0.0]).is_none());
    }
}
