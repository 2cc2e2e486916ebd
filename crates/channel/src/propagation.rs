//! Per-path propagation gain.
//!
//! Converts a traced path's length and interaction history into a linear
//! amplitude under free-space (Friis) spreading plus material losses.

/// Linear amplitude of free-space spreading over `length_m` at `wavelength`:
/// the Friis factor `λ / (4π·d)` (amplitude, not power).
///
/// Lengths below 10 cm are clamped to keep the near field finite.
pub fn friis_amplitude(length_m: f64, wavelength_m: f64) -> f64 {
    let d = length_m.max(0.1);
    wavelength_m / (4.0 * std::f64::consts::PI * d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn friis_decays_with_distance() {
        let l = 0.0563; // ≈ 5.32 GHz wavelength
        let a1 = friis_amplitude(1.0, l);
        let a2 = friis_amplitude(2.0, l);
        let a10 = friis_amplitude(10.0, l);
        assert!(
            (a1 / a2 - 2.0).abs() < 1e-12,
            "amplitude halves per doubling"
        );
        assert!((a1 / a10 - 10.0).abs() < 1e-12, "20 dB per decade");
    }

    #[test]
    fn near_field_clamped() {
        let l = 0.0563;
        assert_eq!(friis_amplitude(0.0, l), friis_amplitude(0.1, l));
        assert!(friis_amplitude(0.0, l).is_finite());
    }
}
