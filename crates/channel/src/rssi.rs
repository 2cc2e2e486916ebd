//! RSSI generation.
//!
//! SpotFi's localization objective (Eq. 9) fuses per-AP RSSI with the direct
//! path AoA under a standard log-distance path-loss model. The simulator
//! derives RSSI from the traced paths' total received power, adds log-normal
//! shadowing, and quantizes to integer dB — which is all a commodity NIC
//! reports.

use crate::rng::Rng;

use crate::raytrace::Path;
use crate::rng::normal;

/// RSSI model parameters.
#[derive(Clone, Copy, Debug)]
pub struct RssiModel {
    /// Transmit power + antenna gains folded into one constant, dBm. The
    /// absolute value only shifts every RSSI equally; SpotFi fits the
    /// path-loss intercept anyway.
    pub tx_power_dbm: f64,
    /// Log-normal shadowing standard deviation, dB (0 disables).
    pub shadowing_std_db: f64,
    /// Quantize reported RSSI to integer dB like commodity NICs.
    pub quantize: bool,
}

impl RssiModel {
    /// Typical indoor values: 15 dBm EIRP, 2 dB shadowing, quantized.
    pub fn typical() -> Self {
        RssiModel {
            tx_power_dbm: 15.0,
            shadowing_std_db: 2.0,
            quantize: true,
        }
    }

    /// Noiseless, unquantized RSSI (ablations/tests).
    pub fn ideal() -> Self {
        RssiModel {
            tx_power_dbm: 15.0,
            shadowing_std_db: 0.0,
            quantize: false,
        }
    }

    /// The RSSI (dBm) of a set of traced paths before shadowing and
    /// quantization: constant while the paths are, so a link computes it
    /// once per trace. Path amplitudes already include Friis spreading and
    /// material losses, so the received linear power is simply their sum of
    /// squares (incoherent sum — RSSI is averaged over the packet, washing
    /// out inter-path phase). `None` when the paths carry no power (nothing
    /// heard).
    pub(crate) fn mean_dbm(&self, paths: &[Path]) -> Option<f64> {
        let power: f64 = paths.iter().map(|p| p.amplitude * p.amplitude).sum();
        if power <= 0.0 {
            return None;
        }
        Some(self.tx_power_dbm + 10.0 * power.log10())
    }

    /// One packet's RSSI around `mean_dbm`: shadowed, then quantized.
    pub(crate) fn packet_dbm(&self, mean_dbm: f64, rng: &mut Rng) -> f64 {
        let mut rssi = mean_dbm;
        if self.shadowing_std_db > 0.0 {
            rssi = normal(rng, rssi, self.shadowing_std_db);
        }
        if self.quantize {
            rssi = rssi.round();
        }
        rssi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raytrace::PathKind;
    use crate::rng::Rng;

    fn path_with_amplitude(a: f64) -> Path {
        Path {
            kind: PathKind::Direct,
            length_m: 5.0,
            tof_s: 5.0 / crate::constants::SPEED_OF_LIGHT,
            sin_aoa: 0.0,
            aoa_rad: 0.0,
            amplitude: a,
            phase: 0.0,
            vertices: vec![],
        }
    }

    #[test]
    fn stronger_paths_give_higher_rssi() {
        let model = RssiModel::ideal();
        let weak = model.mean_dbm(&[path_with_amplitude(1e-4)]).unwrap();
        let strong = model.mean_dbm(&[path_with_amplitude(1e-3)]).unwrap();
        assert!(
            (strong - weak - 20.0).abs() < 1e-9,
            "10× amplitude = +20 dB"
        );
    }

    #[test]
    fn power_sums_incoherently() {
        let model = RssiModel::ideal();
        let one = model.mean_dbm(&[path_with_amplitude(1e-3)]).unwrap();
        let two = model
            .mean_dbm(&[path_with_amplitude(1e-3), path_with_amplitude(1e-3)])
            .unwrap();
        assert!((two - one - 10.0 * 2.0f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn no_paths_no_rssi() {
        assert!(RssiModel::typical().mean_dbm(&[]).is_none());
    }

    #[test]
    fn quantized_rssi_is_integer() {
        let model = RssiModel {
            tx_power_dbm: 15.0,
            shadowing_std_db: 0.0,
            quantize: true,
        };
        let mut rng = Rng::seed_from_u64(0);
        let mean = model.mean_dbm(&[path_with_amplitude(3.3e-4)]).unwrap();
        let r = model.packet_dbm(mean, &mut rng);
        assert_eq!(r, r.round());
    }

    #[test]
    fn shadowing_spreads_samples() {
        let model = RssiModel {
            tx_power_dbm: 15.0,
            shadowing_std_db: 3.0,
            quantize: false,
        };
        let mut rng = Rng::seed_from_u64(11);
        let mean_dbm = model.mean_dbm(&[path_with_amplitude(1e-3)]).unwrap();
        let samples: Vec<f64> = (0..2000)
            .map(|_| model.packet_dbm(mean_dbm, &mut rng))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let std = (samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / samples.len() as f64)
            .sqrt();
        assert!((std - 3.0).abs() < 0.3, "std {}", std);
    }
}
