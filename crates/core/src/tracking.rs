//! Tracking moving targets across successive fixes.
//!
//! The paper's conclusion names motion tracing as the natural extension of
//! SpotFi's primitives. This module provides the standard tool for it: a
//! constant-velocity **Kalman filter** over the 2-D location fixes that
//! [`crate::pipeline::SpotFi::localize`] produces, with innovation gating
//! so a single bad fix (a mis-selected direct path at several APs) cannot
//! yank the track.
//!
//! State: `[x, y, vx, vy]`. Process noise models random acceleration;
//! measurement noise can be scaled per fix from the Eq. 9 residual cost, so
//! confident fixes pull the track harder.

use spotfi_channel::Point;

/// Configuration of the track filter.
#[derive(Clone, Copy, Debug)]
pub struct TrackerConfig {
    /// Random-acceleration standard deviation, m/s² — how agile targets
    /// can be (walking ≈ 0.5–1).
    pub accel_std: f64,
    /// Base measurement standard deviation, meters (SpotFi's per-fix
    /// accuracy; ~0.5 m in offices).
    pub measurement_std_m: f64,
    /// Innovation gate in standard deviations: fixes whose Mahalanobis
    /// distance exceeds this are rejected as outliers. `f64::INFINITY`
    /// disables gating.
    pub gate_sigma: f64,
    /// Initial velocity standard deviation, m/s.
    pub initial_velocity_std: f64,
    /// Maximum gap between fixes, seconds: a fix arriving more than this
    /// long after the previous one re-initializes the track at the new
    /// fix instead of coasting a constant-velocity prediction across the
    /// outage (the extrapolation — and the innovation gate built on it —
    /// is meaningless after a long gap). `f64::INFINITY` disables the
    /// reset.
    pub max_gap_s: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            accel_std: 0.8,
            measurement_std_m: 0.6,
            gate_sigma: 4.0,
            initial_velocity_std: 1.5,
            max_gap_s: 10.0,
        }
    }
}

/// Outcome of feeding one fix to the tracker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// First fix: track initialized.
    Initialized,
    /// Fix accepted and fused.
    Accepted,
    /// Fix rejected by the innovation gate (track coasted instead).
    Rejected,
}

/// A constant-velocity Kalman tracker over 2-D fixes.
///
/// ```
/// use spotfi_channel::Point;
/// use spotfi_core::tracking::{Tracker, TrackerConfig};
///
/// let mut tracker = Tracker::new(TrackerConfig::default());
/// for i in 0..20 {
///     // A target walking +x at 1 m/s, with noisy fixes.
///     let noise = if i % 2 == 0 { 0.3 } else { -0.3 };
///     tracker.update(i as f64, Point::new(i as f64 + noise, 2.0), None);
/// }
/// let (vx, _) = tracker.velocity().unwrap();
/// assert!((vx - 1.0).abs() < 0.3);
/// ```
#[derive(Clone, Debug)]
pub struct Tracker {
    config: TrackerConfig,
    /// State `[x, y, vx, vy]`, or `None` before the first fix.
    state: Option<[f64; 4]>,
    /// Covariance, row-major 4×4.
    cov: [[f64; 4]; 4],
    last_time_s: f64,
}

impl Tracker {
    /// Creates an empty tracker.
    pub fn new(config: TrackerConfig) -> Self {
        Tracker {
            config,
            state: None,
            cov: [[0.0; 4]; 4],
            last_time_s: 0.0,
        }
    }

    /// Current position estimate.
    pub fn position(&self) -> Option<Point> {
        self.state.map(|s| Point::new(s[0], s[1]))
    }

    /// Current velocity estimate, m/s.
    pub fn velocity(&self) -> Option<(f64, f64)> {
        self.state.map(|s| (s[2], s[3]))
    }

    /// Feeds a fix taken at `time_s`. `measurement_std_m` overrides the
    /// configured default when the caller has a per-fix quality signal
    /// (e.g. derived from `LocationEstimate::cost`).
    pub fn update(
        &mut self,
        time_s: f64,
        fix: Point,
        measurement_std_m: Option<f64>,
    ) -> UpdateOutcome {
        let r_std = measurement_std_m.unwrap_or(self.config.measurement_std_m);
        let r = r_std * r_std;

        // Re-initialize on the first fix or after a stale gap.
        let reinit = match self.state {
            None => true,
            Some(_) => time_s - self.last_time_s > self.config.max_gap_s,
        };
        if reinit {
            self.state = Some([fix.x, fix.y, 0.0, 0.0]);
            self.cov = [[0.0; 4]; 4];
            self.cov[0][0] = r;
            self.cov[1][1] = r;
            let v0 = self.config.initial_velocity_std;
            self.cov[2][2] = v0 * v0;
            self.cov[3][3] = v0 * v0;
            self.last_time_s = time_s;
            return UpdateOutcome::Initialized;
        }
        let state = self.state.expect("non-reinit update has a state");

        // ── Predict ────────────────────────────────────────────────────
        let dt = (time_s - self.last_time_s).max(1e-6);
        let mut s = state;
        s[0] += s[2] * dt;
        s[1] += s[3] * dt;

        // P ← F·P·Fᵀ + Q with F = [[I, dt·I], [0, I]].
        let p = self.cov;
        let mut fp = [[0.0; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                fp[i][j] = p[i][j] + if i < 2 { dt * p[i + 2][j] } else { 0.0 };
            }
        }
        let mut pp = [[0.0; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                pp[i][j] = fp[i][j] + if j < 2 { dt * fp[i][j + 2] } else { 0.0 };
            }
        }
        // White-acceleration process noise.
        let q = self.config.accel_std * self.config.accel_std;
        let dt2 = dt * dt;
        let q_pos = 0.25 * dt2 * dt2 * q;
        let q_pv = 0.5 * dt2 * dt * q;
        let q_vel = dt2 * q;
        for d in 0..2 {
            pp[d][d] += q_pos;
            pp[d][d + 2] += q_pv;
            pp[d + 2][d] += q_pv;
            pp[d + 2][d + 2] += q_vel;
        }

        // ── Gate ───────────────────────────────────────────────────────
        // Innovation covariance S = H·P·Hᵀ + R with H = [I₂ 0].
        let sxx = pp[0][0] + r;
        let syy = pp[1][1] + r;
        let sxy = pp[0][1];
        let det = (sxx * syy - sxy * sxy).max(1e-12);
        let ix = fix.x - s[0];
        let iy = fix.y - s[1];
        // Mahalanobis distance² = innovationᵀ·S⁻¹·innovation.
        let d2 = (syy * ix * ix - 2.0 * sxy * ix * iy + sxx * iy * iy) / det;
        if d2.sqrt() > self.config.gate_sigma {
            // Coast: keep the prediction, inflate nothing further.
            self.state = Some(s);
            self.cov = pp;
            self.last_time_s = time_s;
            return UpdateOutcome::Rejected;
        }

        // ── Update ─────────────────────────────────────────────────────
        // K = P·Hᵀ·S⁻¹ (4×2).
        let inv = [[syy / det, -sxy / det], [-sxy / det, sxx / det]];
        let mut k = [[0.0; 2]; 4];
        for i in 0..4 {
            for j in 0..2 {
                k[i][j] = pp[i][0] * inv[0][j] + pp[i][1] * inv[1][j];
            }
        }
        for (i, si) in s.iter_mut().enumerate() {
            *si += k[i][0] * ix + k[i][1] * iy;
        }
        // P ← (I − K·H)·P.
        let mut np = [[0.0; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                np[i][j] = pp[i][j] - k[i][0] * pp[0][j] - k[i][1] * pp[1][j];
            }
        }

        self.state = Some(s);
        self.cov = np;
        self.last_time_s = time_s;
        UpdateOutcome::Accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(tracker: &mut Tracker, fixes: &[(f64, f64, f64)]) -> Vec<Point> {
        fixes
            .iter()
            .map(|&(t, x, y)| {
                tracker.update(t, Point::new(x, y), None);
                tracker.position().unwrap()
            })
            .collect()
    }

    #[test]
    fn initializes_at_first_fix() {
        let mut t = Tracker::new(TrackerConfig::default());
        assert!(t.position().is_none());
        let out = t.update(0.0, Point::new(3.0, 4.0), None);
        assert_eq!(out, UpdateOutcome::Initialized);
        let p = t.position().unwrap();
        assert_eq!((p.x, p.y), (3.0, 4.0));
    }

    #[test]
    fn smooths_noisy_straight_walk() {
        // Target walks +x at 1 m/s; fixes have ±0.4 m of alternating noise.
        let mut t = Tracker::new(TrackerConfig::default());
        let fixes: Vec<(f64, f64, f64)> = (0..30)
            .map(|i| {
                let time = i as f64;
                let noise = if i % 2 == 0 { 0.4 } else { -0.4 };
                (time, time * 1.0 + noise, 5.0 - noise)
            })
            .collect();
        let track = walk(&mut t, &fixes);
        // Late-track residuals must be smaller than the raw noise.
        let late_err: f64 = track[20..]
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let time = (i + 20) as f64;
                ((p.x - time).powi(2) + (p.y - 5.0).powi(2)).sqrt()
            })
            .sum::<f64>()
            / 10.0;
        assert!(
            late_err < 0.4,
            "late-track error {} m (raw noise 0.57 m RMS)",
            late_err
        );
        // Velocity estimate converges to (1, 0).
        let (vx, vy) = t.velocity().unwrap();
        assert!((vx - 1.0).abs() < 0.3, "vx {}", vx);
        assert!(vy.abs() < 0.3, "vy {}", vy);
    }

    #[test]
    fn gate_rejects_teleporting_fix() {
        let mut t = Tracker::new(TrackerConfig::default());
        for i in 0..10 {
            t.update(i as f64, Point::new(i as f64 * 0.5, 2.0), None);
        }
        let before = t.position().unwrap();
        // An absurd fix 20 m away (a mis-localization).
        let out = t.update(10.0, Point::new(25.0, 18.0), None);
        assert_eq!(out, UpdateOutcome::Rejected);
        let after = t.position().unwrap();
        assert!(
            after.distance(before) < 1.5,
            "track jumped {} m on a gated fix",
            after.distance(before)
        );
    }

    #[test]
    fn gating_disabled_accepts_everything() {
        let cfg = TrackerConfig {
            gate_sigma: f64::INFINITY,
            ..TrackerConfig::default()
        };
        let mut t = Tracker::new(cfg);
        t.update(0.0, Point::new(0.0, 0.0), None);
        let out = t.update(1.0, Point::new(50.0, 50.0), None);
        assert_eq!(out, UpdateOutcome::Accepted);
    }

    #[test]
    fn prediction_extrapolates_velocity() {
        let mut t = Tracker::new(TrackerConfig::default());
        for i in 0..20 {
            t.update(i as f64, Point::new(i as f64 * 2.0, 0.0), None);
        }
        let (vx, _) = t.velocity().unwrap();
        assert!((vx - 2.0).abs() < 0.5, "velocity {vx} m/s in x");
    }

    #[test]
    fn per_fix_noise_scaling_matters() {
        // A noisy fix with a large stated std should move the track less
        // than the same fix with a small stated std.
        let run = |std: f64| {
            let mut t = Tracker::new(TrackerConfig::default());
            for i in 0..10 {
                t.update(i as f64, Point::new(0.0, 0.0), None);
            }
            t.update(10.0, Point::new(2.0, 0.0), Some(std));
            t.position().unwrap().x
        };
        assert!(run(5.0) < run(0.2), "high-noise fix pulled harder");
    }

    #[test]
    fn stationary_target_converges() {
        let mut t = Tracker::new(TrackerConfig::default());
        for i in 0..50 {
            let noise = ((i * 37) % 11) as f64 / 11.0 - 0.5;
            t.update(
                i as f64 * 0.5,
                Point::new(4.0 + noise * 0.6, 7.0 - noise * 0.6),
                None,
            );
        }
        let p = t.position().unwrap();
        assert!(
            p.distance(Point::new(4.0, 7.0)) < 0.35,
            "converged to {:?}",
            p
        );
        let (vx, vy) = t.velocity().unwrap();
        assert!(vx.hypot(vy) < 0.3, "phantom velocity {} {}", vx, vy);
        // Convergence is monotone in the aggregate: the last 10 fixes'
        // mean error must beat the first 10's.
        let mut t2 = Tracker::new(TrackerConfig::default());
        let mut errs = Vec::new();
        for i in 0..50 {
            let noise = ((i * 37) % 11) as f64 / 11.0 - 0.5;
            t2.update(
                i as f64 * 0.5,
                Point::new(4.0 + noise * 0.6, 7.0 - noise * 0.6),
                None,
            );
            errs.push(t2.position().unwrap().distance(Point::new(4.0, 7.0)));
        }
        let early: f64 = errs[..10].iter().sum::<f64>() / 10.0;
        let late: f64 = errs[40..].iter().sum::<f64>() / 10.0;
        assert!(late < early, "late error {} vs early {}", late, early);
    }

    #[test]
    fn constant_velocity_lag_stays_bounded() {
        // Exact fixes from a target walking +x at 1.5 m/s: once the
        // velocity estimate has converged, the steady-state lag behind
        // the true position must stay small at every step.
        let mut t = Tracker::new(TrackerConfig::default());
        let mut worst_lag: f64 = 0.0;
        for i in 0..40 {
            let time = i as f64 * 0.5;
            let truth = Point::new(1.5 * time, 3.0);
            t.update(time, truth, None);
            if i >= 10 {
                worst_lag = worst_lag.max(t.position().unwrap().distance(truth));
            }
        }
        assert!(
            worst_lag < 0.2,
            "steady-state lag {} m on a 1.5 m/s walk",
            worst_lag
        );
        let (vx, vy) = t.velocity().unwrap();
        assert!((vx - 1.5).abs() < 0.2, "vx {}", vx);
        assert!(vy.abs() < 0.2, "vy {}", vy);
    }

    #[test]
    fn long_gap_resets_track_at_new_fix() {
        let mut t = Tracker::new(TrackerConfig::default());
        for i in 0..10 {
            t.update(i as f64 * 0.5, Point::new(i as f64, 2.0), None);
        }
        // 95 s outage (config default max_gap_s = 10), target re-appears
        // far from the coasted constant-velocity extrapolation: the
        // filter must restart at the fix, not gate it out or blend it.
        let out = t.update(100.0, Point::new(1.0, 8.0), None);
        assert_eq!(out, UpdateOutcome::Initialized);
        let p = t.position().unwrap();
        assert_eq!((p.x, p.y), (1.0, 8.0));
        let (vx, vy) = t.velocity().unwrap();
        assert_eq!((vx, vy), (0.0, 0.0));
    }

    #[test]
    fn gap_reset_disabled_with_infinite_max_gap() {
        let cfg = TrackerConfig {
            max_gap_s: f64::INFINITY,
            ..TrackerConfig::default()
        };
        let mut t = Tracker::new(cfg);
        for i in 0..10 {
            t.update(i as f64 * 0.5, Point::new(i as f64, 2.0), None);
        }
        let out = t.update(100.0, Point::new(1.0, 8.0), None);
        assert_ne!(out, UpdateOutcome::Initialized);
    }
}
