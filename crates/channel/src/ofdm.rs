//! OFDM channel configuration: the subcarrier grid CSI is measured on.

use crate::constants;

/// Configuration of the OFDM channel whose CSI the simulator produces.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OfdmConfig {
    /// Carrier (center) frequency, Hz.
    pub carrier_hz: f64,
    /// Spacing between consecutive *reported* subcarriers, Hz (the paper's
    /// `f_δ`).
    pub subcarrier_spacing_hz: f64,
    /// Number of reported subcarriers.
    pub num_subcarriers: usize,
}

impl OfdmConfig {
    /// The Intel 5300 40 MHz configuration the paper uses: 30 reported
    /// subcarriers spaced 1.25 MHz at a 5.32 GHz carrier.
    pub fn intel5300_40mhz() -> Self {
        OfdmConfig {
            carrier_hz: constants::DEFAULT_CARRIER_HZ,
            subcarrier_spacing_hz: constants::INTEL5300_SUBCARRIER_SPACING_HZ,
            num_subcarriers: constants::INTEL5300_NUM_SUBCARRIERS,
        }
    }

    /// Frequency of the `n`-th reported subcarrier (0-based). The grid is
    /// centered on the carrier.
    pub fn subcarrier_freq(&self, n: usize) -> f64 {
        debug_assert!(n < self.num_subcarriers);
        let center = (self.num_subcarriers as f64 - 1.0) / 2.0;
        self.carrier_hz + (n as f64 - center) * self.subcarrier_spacing_hz
    }

    /// Wavelength at the carrier, meters.
    pub fn wavelength(&self) -> f64 {
        constants::wavelength(self.carrier_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intel5300_grid() {
        let c = OfdmConfig::intel5300_40mhz();
        assert_eq!(c.num_subcarriers, 30);
        assert_eq!(c.subcarrier_spacing_hz, 1.25e6);
    }

    #[test]
    fn grid_is_centered_and_equispaced() {
        let c = OfdmConfig::intel5300_40mhz();
        let mid = (c.subcarrier_freq(14) + c.subcarrier_freq(15)) / 2.0;
        assert!((mid - c.carrier_hz).abs() < 1.0);
        for n in 1..c.num_subcarriers {
            let d = c.subcarrier_freq(n) - c.subcarrier_freq(n - 1);
            assert!((d - c.subcarrier_spacing_hz).abs() < 1e-6);
        }
    }
}
