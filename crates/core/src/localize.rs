//! Likelihood-weighted localization (paper Sec. 3.3, Eq. 9 / Algorithm 2
//! step 12).
//!
//! Given each AP's direct-path AoA estimate `θ_i`, its likelihood `l_i`, and
//! its observed RSSI `p_i`, SpotFi finds the location minimizing
//!
//! ```text
//! Σ_i l_i·[(p̄_i(x) − p_i)² + w·(θ̄_i(x) − θ_i)²]
//! ```
//!
//! where `θ̄_i(x)` is the AoA the `i`-th AP would observe for a target at
//! `x` and `p̄_i(x)` the RSSI predicted by a log-distance path-loss model
//! whose parameters `(p₀, η)` are optimization variables too.
//!
//! The objective is non-convex in `x`; the paper applies sequential convex
//! optimization. We use its deterministic equivalent for a 2-D search
//! space:
//!
//! 1. `(p₀, η)` enter linearly, so for any candidate `x` they are solved in
//!    closed form ([`crate::pathloss::PathLossModel::fit_weighted`]);
//! 2. a coarse grid over the deployment area finds the global basin;
//! 3. Nelder–Mead polishes within the basin.

use spotfi_channel::{AntennaArray, Point};
use spotfi_math::optimize::nelder_mead_2d;

use crate::config::LocalizeConfig;
use crate::error::{Result, SpotFiError};
use crate::pathloss::PathLossModel;

/// One AP's contribution to localization.
#[derive(Clone, Copy, Debug)]
pub struct ApMeasurement {
    /// The AP's antenna array (position + orientation).
    pub array: AntennaArray,
    /// Direct-path AoA estimate, degrees.
    pub direct_aoa_deg: f64,
    /// Likelihood weight `l_i` from Eq. 8.
    pub likelihood: f64,
    /// Mean observed RSSI, dBm.
    pub rssi_dbm: f64,
}

/// A localization fix.
#[derive(Clone, Copy, Debug)]
pub struct LocationEstimate {
    /// Estimated target position, meters.
    pub position: Point,
    /// Final value of the Eq. 9 objective.
    pub cost: f64,
    /// The path-loss model fitted at the solution.
    pub path_loss: PathLossModel,
}

/// Axis-aligned search bounds.
#[derive(Clone, Copy, Debug)]
pub struct SearchBounds {
    /// Minimum x, meters.
    pub min_x: f64,
    /// Maximum x, meters.
    pub max_x: f64,
    /// Minimum y, meters.
    pub min_y: f64,
    /// Maximum y, meters.
    pub max_y: f64,
}

impl SearchBounds {
    /// The AP bounding box expanded by `margin` meters.
    pub fn around_aps(aps: &[ApMeasurement], margin: f64) -> SearchBounds {
        let xs: Vec<f64> = aps.iter().map(|a| a.array.position.x).collect();
        let ys: Vec<f64> = aps.iter().map(|a| a.array.position.y).collect();
        let fold =
            |v: &[f64], f: fn(f64, f64) -> f64, init: f64| v.iter().fold(init, |a, &b| f(a, b));
        SearchBounds {
            min_x: fold(&xs, f64::min, f64::INFINITY) - margin,
            max_x: fold(&xs, f64::max, f64::NEG_INFINITY) + margin,
            min_y: fold(&ys, f64::min, f64::INFINITY) - margin,
            max_y: fold(&ys, f64::max, f64::NEG_INFINITY) + margin,
        }
    }

    fn clamp(&self, p: [f64; 2]) -> [f64; 2] {
        [
            p[0].clamp(self.min_x, self.max_x),
            p[1].clamp(self.min_y, self.max_y),
        ]
    }
}

/// Evaluates the Eq. 9 objective at `pos`, fitting the path-loss parameters
/// in closed form. Returns `(cost, model)`.
pub fn objective_at(
    aps: &[ApMeasurement],
    pos: Point,
    cfg: &LocalizeConfig,
) -> (f64, PathLossModel) {
    let samples: Vec<(f64, f64)> = aps
        .iter()
        .map(|a| (a.array.position.distance(pos), a.rssi_dbm))
        .collect();
    let weights: Vec<f64> = aps.iter().map(|a| a.likelihood).collect();
    // Fall back to a generic indoor model when the fit is degenerate (e.g.
    // two APs equidistant from the candidate).
    let model = PathLossModel::fit_weighted(&samples, &weights).unwrap_or(PathLossModel {
        p0_dbm: aps
            .iter()
            .zip(&samples)
            .map(|(a, s)| a.rssi_dbm + 10.0 * 3.0 * s.0.max(0.1).log10())
            .sum::<f64>()
            / aps.len().max(1) as f64,
        exponent: 3.0,
    });

    let mut cost = 0.0;
    for (a, &(d, _)) in aps.iter().zip(&samples) {
        let p_pred = model.predict_dbm(d);
        let rssi_dev = p_pred - a.rssi_dbm;
        let aoa_pred = a.array.aoa_from_deg(pos);
        let aoa_dev = aoa_pred - a.direct_aoa_deg;
        cost += a.likelihood * (rssi_dev * rssi_dev + cfg.aoa_weight * aoa_dev * aoa_dev);
    }
    (cost, model)
}

/// Localizes the target from per-AP measurements within explicit bounds.
pub fn localize_in_bounds(
    aps: &[ApMeasurement],
    bounds: SearchBounds,
    cfg: &LocalizeConfig,
) -> Result<LocationEstimate> {
    let _span = spotfi_obs::span("stage.localize");
    let usable: Vec<ApMeasurement> = aps.iter().copied().filter(|a| a.likelihood > 0.0).collect();
    if usable.len() < 2 {
        spotfi_obs::counter("localize.insufficient_aps", 1);
        return Err(SpotFiError::InsufficientAps {
            usable: usable.len(),
        });
    }
    if spotfi_obs::enabled() {
        spotfi_obs::counter("localize.solves", 1);
        spotfi_obs::value("localize.usable_aps", usable.len() as f64);
    }

    // Fold link quality into the weights: estimator variance grows as SNR
    // falls, so APs far below the strongest received power are discounted
    // beyond their Eq. 8 likelihood (see `LocalizeConfig::rssi_trust_per_10db`).
    let rssi_max = usable
        .iter()
        .map(|a| a.rssi_dbm)
        .fold(f64::NEG_INFINITY, f64::max);
    let weighted: Vec<ApMeasurement> = usable
        .iter()
        .map(|a| ApMeasurement {
            likelihood: a.likelihood
                * (-cfg.rssi_trust_per_10db * (rssi_max - a.rssi_dbm) / 10.0).exp(),
            ..*a
        })
        .collect();

    // Normalize likelihoods so the objective scale (and hence the polish
    // tolerances) is independent of Eq. 8's arbitrary scale.
    let lmax = weighted
        .iter()
        .map(|a| a.likelihood)
        .fold(f64::NEG_INFINITY, f64::max);
    let aps_norm: Vec<ApMeasurement> = weighted
        .iter()
        .map(|a| ApMeasurement {
            likelihood: a.likelihood / lmax,
            ..*a
        })
        .collect();

    let (position, cost, grid_evals, polish_evals) =
        grid_then_polish(bounds, cfg.grid_step_m, cfg.polish_iterations, |p| {
            objective_at(&aps_norm, p, cfg).0
        });
    if spotfi_obs::enabled() {
        spotfi_obs::counter("localize.grid_evals", grid_evals);
        spotfi_obs::counter("localize.polish_evals", polish_evals);
    }
    let (_, path_loss) = objective_at(&aps_norm, position, cfg);
    spotfi_obs::value("localize.cost", cost);

    Ok(LocationEstimate {
        position,
        cost,
        path_loss,
    })
}

/// The 2-D search behind Eq. 9 (steps 2–3 of the module doc), shared with
/// the ArrayTrack baseline: `cost` is minimized over a grid of pitch `step`
/// covering `bounds`, then Nelder–Mead (`iterations` steps, scaled by
/// `step`, clamped to `bounds`) polishes the best grid point. A polish
/// that ends uphill of that grid point is discarded.
///
/// Returns `(point, cost, grid_evals, polish_evals)`: the grid's and the
/// polish's calls of `cost`. One more call scores the polished point.
pub fn grid_then_polish(
    bounds: SearchBounds,
    step: f64,
    iterations: usize,
    mut cost: impl FnMut(Point) -> f64,
) -> (Point, f64, u64, u64) {
    let nx = (((bounds.max_x - bounds.min_x) / step).ceil() as usize).max(1) + 1;
    let ny = (((bounds.max_y - bounds.min_y) / step).ceil() as usize).max(1) + 1;
    let mut best = (Point::new(bounds.min_x, bounds.min_y), f64::INFINITY);
    for ix in 0..nx {
        for iy in 0..ny {
            let p = Point::new(
                (bounds.min_x + ix as f64 * step).min(bounds.max_x),
                (bounds.min_y + iy as f64 * step).min(bounds.max_y),
            );
            let c = cost(p);
            if c < best.1 {
                best = (p, c);
            }
        }
    }

    let mut polish_evals = 0u64;
    let ([x, y], _) = nelder_mead_2d(
        |p| {
            polish_evals += 1;
            let q = bounds.clamp(p);
            cost(Point::new(q[0], q[1]))
        },
        [best.0.x, best.0.y],
        step,
        iterations,
        1e-10,
    );
    let refined = bounds.clamp([x, y]);
    let pos = Point::new(refined[0], refined[1]);
    let c = cost(pos);
    let (point, c) = if c <= best.1 { (pos, c) } else { best };
    (point, c, (nx * ny) as u64, polish_evals)
}

/// Localizes using bounds derived from the AP bounding box plus the
/// configured margin.
pub fn localize(aps: &[ApMeasurement], cfg: &LocalizeConfig) -> Result<LocationEstimate> {
    if aps.is_empty() {
        return Err(SpotFiError::InsufficientAps { usable: 0 });
    }
    let bounds = SearchBounds::around_aps(aps, cfg.search_margin_m);
    localize_in_bounds(aps, bounds, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotfi_channel::constants::DEFAULT_CARRIER_HZ;

    /// Builds an AP whose normal points at the room center (5, 5).
    fn ap_at(x: f64, y: f64) -> AntennaArray {
        let toward_center = (Point::new(5.0, 5.0) - Point::new(x, y)).angle();
        AntennaArray::intel5300(Point::new(x, y), toward_center, DEFAULT_CARRIER_HZ)
    }

    /// Perfect measurements from a ground-truth target.
    fn perfect_measurements(target: Point, aps: &[AntennaArray]) -> Vec<ApMeasurement> {
        let model = PathLossModel {
            p0_dbm: -40.0,
            exponent: 2.5,
        };
        aps.iter()
            .map(|a| ApMeasurement {
                array: *a,
                direct_aoa_deg: a.aoa_from_deg(target),
                likelihood: 1.0,
                rssi_dbm: model.predict_dbm(a.position.distance(target)),
            })
            .collect()
    }

    fn four_corner_aps() -> Vec<AntennaArray> {
        vec![
            ap_at(0.0, 0.0),
            ap_at(10.0, 0.0),
            ap_at(10.0, 10.0),
            ap_at(0.0, 10.0),
        ]
    }

    #[test]
    fn perfect_data_localizes_exactly() {
        let target = Point::new(3.0, 6.5);
        let aps = perfect_measurements(target, &four_corner_aps());
        let est = localize(&aps, &LocalizeConfig::default()).unwrap();
        let err = est.position.distance(target);
        assert!(err < 0.05, "error {} m at {:?}", err, est.position);
        assert!(est.cost < 1e-3);
    }

    #[test]
    fn recovers_several_targets() {
        let cfg = LocalizeConfig::default();
        for &(x, y) in &[(1.0, 1.0), (9.0, 2.0), (5.0, 5.0), (2.5, 8.5)] {
            let target = Point::new(x, y);
            let aps = perfect_measurements(target, &four_corner_aps());
            let est = localize(&aps, &cfg).unwrap();
            assert!(
                est.position.distance(target) < 0.1,
                "target {:?} → {:?}",
                target,
                est.position
            );
        }
    }

    #[test]
    fn low_likelihood_ap_is_ignored() {
        let target = Point::new(4.0, 4.0);
        let mut aps = perfect_measurements(target, &four_corner_aps());
        // Corrupt one AP's AoA badly but with near-zero likelihood.
        aps[3].direct_aoa_deg = -80.0;
        aps[3].likelihood = 1e-6;
        let est = localize(&aps, &LocalizeConfig::default()).unwrap();
        assert!(
            est.position.distance(target) < 0.2,
            "error {} m",
            est.position.distance(target)
        );
    }

    #[test]
    fn corrupt_ap_with_high_likelihood_hurts() {
        // Sanity check of the weighting story: same corruption with full
        // likelihood must displace the estimate more.
        let target = Point::new(4.0, 4.0);
        let make = |lik: f64| {
            let mut aps = perfect_measurements(target, &four_corner_aps());
            aps[3].direct_aoa_deg = -80.0;
            aps[3].likelihood = lik;
            localize(&aps, &LocalizeConfig::default())
                .unwrap()
                .position
                .distance(target)
        };
        assert!(make(1.0) > make(1e-6) + 0.05, "weighting had no effect");
    }

    #[test]
    fn two_aps_suffice_with_aoa() {
        let target = Point::new(6.0, 3.0);
        let aps = perfect_measurements(target, &[ap_at(0.0, 0.0), ap_at(10.0, 0.0)]);
        let est = localize(&aps, &LocalizeConfig::default()).unwrap();
        assert!(
            est.position.distance(target) < 0.3,
            "error {} m",
            est.position.distance(target)
        );
    }

    #[test]
    fn fewer_than_two_usable_aps_errors() {
        let target = Point::new(5.0, 5.0);
        let mut aps = perfect_measurements(target, &four_corner_aps());
        for a in aps.iter_mut().skip(1) {
            a.likelihood = 0.0;
        }
        match localize(&aps, &LocalizeConfig::default()) {
            Err(SpotFiError::InsufficientAps { usable }) => assert_eq!(usable, 1),
            other => panic!(
                "expected InsufficientAps, got {:?}",
                other.map(|e| e.position)
            ),
        }
        assert!(matches!(
            localize(&[], &LocalizeConfig::default()),
            Err(SpotFiError::InsufficientAps { usable: 0 })
        ));
    }

    #[test]
    fn estimate_stays_within_bounds() {
        // Wildly inconsistent AoAs: the solution must still be inside the
        // search bounds.
        let aps: Vec<ApMeasurement> = four_corner_aps()
            .into_iter()
            .enumerate()
            .map(|(i, array)| ApMeasurement {
                array,
                direct_aoa_deg: if i % 2 == 0 { 80.0 } else { -80.0 },
                likelihood: 1.0,
                rssi_dbm: -50.0,
            })
            .collect();
        let cfg = LocalizeConfig::default();
        let est = localize(&aps, &cfg).unwrap();
        let b = SearchBounds::around_aps(&aps, cfg.search_margin_m);
        assert!(est.position.x >= b.min_x && est.position.x <= b.max_x);
        assert!(est.position.y >= b.min_y && est.position.y <= b.max_y);
    }

    #[test]
    fn grid_then_polish_lands_on_the_boundary_nearest_an_outside_minimum() {
        // A bowl centred at (20, 3.3), right of the 10 m × 10 m box: the
        // constrained minimum is (10, 3.3) on the east edge, between grid
        // rows, so the polish has to move off the grid point (10, 3).
        let bounds = SearchBounds {
            min_x: 0.0,
            max_x: 10.0,
            min_y: 0.0,
            max_y: 10.0,
        };
        let mut calls = 0u64;
        let (p, c, grid_evals, polish_evals) = grid_then_polish(bounds, 1.0, 200, |p| {
            calls += 1;
            (p.x - 20.0).powi(2) + (p.y - 3.3).powi(2)
        });
        assert_eq!(p.x, 10.0);
        assert!((p.y - 3.3).abs() < 1e-3, "y = {}", p.y);
        assert!(
            c <= 100.0 + 0.3f64.powi(2),
            "cost {} above the grid's best",
            c
        );
        assert_eq!(grid_evals, 11 * 11);
        assert!(polish_evals > 0);
        // The grid, the polish, and one call scoring the polished point.
        assert_eq!(calls, grid_evals + polish_evals + 1);
    }

    #[test]
    fn path_loss_recovered_at_solution() {
        let target = Point::new(3.0, 7.0);
        let aps = perfect_measurements(target, &four_corner_aps());
        let est = localize(&aps, &LocalizeConfig::default()).unwrap();
        assert!(
            (est.path_loss.exponent - 2.5).abs() < 0.2,
            "η {}",
            est.path_loss.exponent
        );
        assert!(
            (est.path_loss.p0_dbm - -40.0).abs() < 2.0,
            "p0 {}",
            est.path_loss.p0_dbm
        );
    }
}
