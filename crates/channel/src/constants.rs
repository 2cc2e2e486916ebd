//! Physical and 802.11n constants used throughout the simulator.

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Default carrier frequency: 5.32 GHz (802.11n channel 64, the 5 GHz band
/// the paper's Intel 5300 NICs operate in).
pub const DEFAULT_CARRIER_HZ: f64 = 5.32e9;

/// 802.11n OFDM subcarrier spacing: 312.5 kHz.
pub const SUBCARRIER_SPACING_HZ: f64 = 312_500.0;

/// The Intel 5300 firmware reports CSI on 30 subcarriers. In 40 MHz mode
/// these are every 4th data subcarrier, so the effective spacing between
/// *reported* subcarriers is 4 × 312.5 kHz = 1.25 MHz — this is the `f_δ`
/// in the paper's Ω(τ) (Eq. 6).
pub const INTEL5300_NUM_SUBCARRIERS: usize = 30;

/// Spacing between consecutive *reported* Intel 5300 subcarriers in 40 MHz
/// mode.
pub const INTEL5300_SUBCARRIER_SPACING_HZ: f64 = 4.0 * SUBCARRIER_SPACING_HZ;

/// Number of receive antennas on the Intel 5300 NIC.
pub const INTEL5300_NUM_ANTENNAS: usize = 3;

/// Wavelength at a carrier frequency, meters.
#[inline]
pub fn wavelength(carrier_hz: f64) -> f64 {
    SPEED_OF_LIGHT / carrier_hz
}

/// Half-wavelength antenna spacing at a carrier frequency, meters — the
/// standard ULA spacing assumed by the paper.
#[inline]
pub fn half_wavelength_spacing(carrier_hz: f64) -> f64 {
    wavelength(carrier_hz) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_at_5ghz() {
        let l = wavelength(DEFAULT_CARRIER_HZ);
        assert!(
            l > 0.05 && l < 0.06,
            "5.32 GHz wavelength ≈ 5.6 cm, got {}",
            l
        );
        assert!((half_wavelength_spacing(DEFAULT_CARRIER_HZ) - l / 2.0).abs() < 1e-15);
    }

    #[test]
    fn reported_grid_spans_under_40mhz() {
        let span = (INTEL5300_NUM_SUBCARRIERS - 1) as f64 * INTEL5300_SUBCARRIER_SPACING_HZ;
        assert!(span < 40.0e6, "reported grid must fit in channel bandwidth");
        assert!(
            span > 30.0e6,
            "reported grid should span most of the channel"
        );
    }
}
