//! Phase unwrapping.
//!
//! CSI phase is reported modulo 2π. Before SpotFi can fit and subtract the
//! linear STO slope (Algorithm 1), the per-antenna phase response must be
//! unwrapped across subcarriers so that the underlying linear-in-frequency
//! trend is visible instead of sawtooth jumps.

use std::f64::consts::PI;

/// Unwraps a phase sequence in place: whenever consecutive samples jump by
/// more than π, a multiple of 2π is added to the remainder of the sequence so
/// the result is continuous. Identical semantics to NumPy/MATLAB `unwrap`.
pub fn unwrap_in_place(phase: &mut [f64]) {
    let mut offset = 0.0;
    for i in 1..phase.len() {
        phase[i] = unwrap_step(phase[i - 1], phase[i], &mut offset);
    }
}

/// The unwrapped phases of a sequence, computed as it is read: the values
/// [`unwrap_in_place`] leaves in the collected sequence, bit for bit, with
/// no buffer.
pub fn unwrap_iter(phase: impl IntoIterator<Item = f64>) -> impl Iterator<Item = f64> {
    let mut offset = 0.0;
    let mut prev: Option<f64> = None;
    phase.into_iter().map(move |p| {
        let u = match prev {
            Some(prev) => unwrap_step(prev, p, &mut offset),
            None => p,
        };
        prev = Some(u);
        u
    })
}

/// Unwraps `sample` against the previous unwrapped sample `prev`, with the
/// multiple of 2π the sequence has accumulated so far in `offset`.
fn unwrap_step(prev: f64, sample: f64, offset: &mut f64) -> f64 {
    let raw = sample + *offset;
    let mut d = raw - prev;
    while d > PI {
        *offset -= 2.0 * PI;
        d -= 2.0 * PI;
    }
    while d < -PI {
        *offset += 2.0 * PI;
        d += 2.0 * PI;
    }
    prev + d
}

/// Returns an unwrapped copy of `phase`.
pub fn unwrapped(phase: &[f64]) -> Vec<f64> {
    let mut out = phase.to_vec();
    unwrap_in_place(&mut out);
    out
}

/// Wraps a single angle into `(-π, π]`.
pub fn wrap_phase(theta: f64) -> f64 {
    let mut t = theta % (2.0 * PI);
    if t > PI {
        t -= 2.0 * PI;
    } else if t <= -PI {
        t += 2.0 * PI;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn already_continuous_is_untouched() {
        let p = [0.0, 0.1, 0.3, 0.2, -0.1];
        let u = unwrapped(&p);
        for (a, b) in p.iter().zip(u.iter()) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn recovers_linear_ramp() {
        // Steep negative ramp (like a large ToF) wrapped into (-π, π].
        let slope = -2.3;
        let true_phase: Vec<f64> = (0..40).map(|n| slope * n as f64).collect();
        let wrapped: Vec<f64> = true_phase.iter().map(|&t| wrap_phase(t)).collect();
        let u = unwrapped(&wrapped);
        for (a, b) in true_phase.iter().zip(u.iter()) {
            assert!((a - b).abs() < 1e-9, "expected {} got {}", a, b);
        }
    }

    #[test]
    fn recovers_positive_ramp() {
        let slope = 1.7;
        let true_phase: Vec<f64> = (0..40).map(|n| slope * n as f64 + 0.4).collect();
        let wrapped: Vec<f64> = true_phase.iter().map(|&t| wrap_phase(t)).collect();
        let u = unwrapped(&wrapped);
        // Unwrap can only recover up to a global 2πk; anchor at sample 0.
        let shift = u[0] - true_phase[0];
        for (a, b) in true_phase.iter().zip(u.iter()) {
            assert!((a + shift - b).abs() < 1e-9);
        }
    }

    #[test]
    fn differences_never_exceed_pi() {
        let wrapped: Vec<f64> = (0..100)
            .map(|n| wrap_phase(-0.9 * n as f64 + 0.01 * (n as f64).sin()))
            .collect();
        let u = unwrapped(&wrapped);
        for w in u.windows(2) {
            assert!((w[1] - w[0]).abs() <= PI + 1e-12);
        }
    }

    #[test]
    fn wrap_phase_range() {
        for k in -20..20 {
            let t = k as f64 * 0.7;
            let w = wrap_phase(t);
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12);
            // Same angle modulo 2π.
            assert!(((t - w) / (2.0 * PI)).round() * 2.0 * PI - (t - w) < 1e-9);
        }
    }

    #[test]
    fn wrapped_differences_take_the_short_way_round() {
        assert!((wrap_phase(3.1 - -3.1).abs() - (2.0 * PI - 6.2)).abs() < 1e-12);
        let deg = |a: f64, b: f64| {
            wrap_phase(a.to_radians() - b.to_radians())
                .abs()
                .to_degrees()
        };
        assert!((deg(179.0, -179.0) - 2.0).abs() < 1e-9);
        assert!((deg(10.0, 350.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn wrapped_differences_are_symmetric_and_bounded() {
        for i in 0..36 {
            for j in 0..36 {
                let a = (i as f64 * 10.0).to_radians();
                let b = (j as f64 * 10.0).to_radians();
                let d = wrap_phase(a - b).abs();
                assert!((d - wrap_phase(b - a).abs()).abs() < 1e-9);
                assert!((0.0..=PI + 1e-9).contains(&d));
            }
        }
    }

    #[test]
    fn empty_and_single() {
        unwrap_in_place(&mut []);
        let mut one = [1.5];
        unwrap_in_place(&mut one);
        assert_eq!(one[0], 1.5);
    }
}
