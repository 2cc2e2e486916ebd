//! Angle wrapping.
//!
//! AoAs in SpotFi live in `[-90°, 90°]` relative to the AP array normal;
//! phases and angle differences are compared after wrapping into `(-π, π]`.

/// Wraps an angle (radians) into `(-π, π]`.
#[inline]
pub fn wrap_pi(theta: f64) -> f64 {
    crate::unwrap::wrap_phase(theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn wrapped_differences_take_the_short_way_round() {
        assert!((wrap_pi(3.1 - -3.1).abs() - (2.0 * PI - 6.2)).abs() < 1e-12);
        let deg = |a: f64, b: f64| wrap_pi(a.to_radians() - b.to_radians()).abs().to_degrees();
        assert!((deg(179.0, -179.0) - 2.0).abs() < 1e-9);
        assert!((deg(10.0, 350.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn wrapped_differences_are_symmetric_and_bounded() {
        for i in 0..36 {
            for j in 0..36 {
                let a = (i as f64 * 10.0).to_radians();
                let b = (j as f64 * 10.0).to_radians();
                let d = wrap_pi(a - b).abs();
                assert!((d - wrap_pi(b - a).abs()).abs() < 1e-9);
                assert!((0.0..=PI + 1e-9).contains(&d));
            }
        }
    }
}
