//! Receiver impairments: the reasons commodity CSI is hard to use.
//!
//! SpotFi's whole second contribution (ToF sanitization + direct-path
//! likelihoods) exists because commodity WiFi measurements are corrupted by:
//!
//! * **Sampling time offset (STO)** — sender and receiver ADC/DAC clocks are
//!   not synchronized; every packet's CSI picks up a linear-in-subcarrier
//!   phase ramp `−2π·f_δ·(n−1)·τ_s`, identical across antennas of one NIC.
//! * **Sampling frequency offset (SFO)** — the clocks also *drift*, so τ_s
//!   changes packet to packet.
//! * **Packet detection delay** — the synchronization point jitters per
//!   packet, adding more random delay.
//! * **Carrier phase offset** — residual CFO leaves a random common phase
//!   per packet.
//! * **AWGN** — thermal noise at the measured SNR.
//! * **Quantization** — the Intel 5300 reports each CSI component as a
//!   signed 8-bit integer.
//!
//! Each effect is independently switchable so tests can isolate it
//! (fault-injection style, after smoltcp's example options).

use crate::rng::Rng;
use spotfi_math::{c64, CMat};

use crate::ofdm::OfdmConfig;
use crate::raytrace::Path;
use crate::rng::{normal, standard_normal, uniform_phase};

/// Clock model: how the effective sampling time offset evolves per packet.
#[derive(Clone, Copy, Debug)]
pub struct ClockModel {
    /// Mean STO, seconds. Real offsets are on the order of the cyclic
    /// prefix / detection window — tens to hundreds of ns.
    pub base_sto_s: f64,
    /// Per-packet STO drift from SFO, seconds per packet.
    pub sfo_drift_s_per_packet: f64,
    /// Standard deviation of the random packet-detection delay, seconds.
    pub detection_jitter_s: f64,
}

impl ClockModel {
    /// Typical commodity-WiFi values: ~50 ns base offset, ~0.1 ns/packet
    /// SFO drift, and packet-detection jitter on the order of one sample
    /// period (25 ns at 40 MHz) — the dominant reason raw per-packet ToFs
    /// are incomparable (paper Sec. 3.2.2, Fig. 5a).
    pub fn typical() -> Self {
        ClockModel {
            base_sto_s: 50e-9,
            sfo_drift_s_per_packet: 0.1e-9,
            detection_jitter_s: 25e-9,
        }
    }

    /// Perfectly synchronized clocks (for ablations).
    pub fn synchronized() -> Self {
        ClockModel {
            base_sto_s: 0.0,
            sfo_drift_s_per_packet: 0.0,
            detection_jitter_s: 0.0,
        }
    }

    /// The sampling time offset applied to packet `packet_idx`.
    pub fn sto_for_packet(&self, packet_idx: usize, rng: &mut Rng) -> f64 {
        self.base_sto_s
            + self.sfo_drift_s_per_packet * packet_idx as f64
            + if self.detection_jitter_s > 0.0 {
                normal(rng, 0.0, self.detection_jitter_s)
            } else {
                0.0
            }
    }
}

/// Per-packet multipath jitter: the physical channel is never perfectly
/// static — people move, the target cart vibrates, scatterers shift. A
/// reflected path's geometry changes *more* per disturbance than the direct
/// path's (every bounce compounds the perturbation), which is precisely the
/// effect SpotFi's Fig. 5(c) exploits: across packets, direct-path (AoA,
/// ToF) estimates cluster tightly while reflected paths smear.
///
/// All standard deviations grow linearly with reflection order:
/// `σ(order) = direct + per_order · order`.
#[derive(Clone, Copy, Debug)]
pub struct PathJitter {
    /// ToF standard deviation of the direct path, ns (~cm-scale sway).
    pub direct_tof_std_ns: f64,
    /// Extra ToF std per reflection order, ns.
    pub per_order_tof_std_ns: f64,
    /// AoA standard deviation of the direct path, degrees.
    pub direct_aoa_std_deg: f64,
    /// Extra AoA std per reflection order, degrees.
    pub per_order_aoa_std_deg: f64,
    /// Interaction-phase std per reflection order, radians (direct gets a
    /// tenth of this).
    pub per_order_phase_std_rad: f64,
    /// Fractional amplitude std per reflection order.
    pub per_order_amplitude_std: f64,
    /// Packet-to-packet correlation of the perturbations (AR(1)
    /// coefficient). A static target's channel drifts slowly: at 100 ms
    /// packet spacing consecutive packets see almost the same perturbed
    /// geometry, so multipath bias does **not** average out over a
    /// packet group — only over long windows (the paper's 170-packet
    /// Fig. 5c). `0` reduces to independent per-packet jitter.
    pub correlation: f64,
}

impl PathJitter {
    /// Typical occupied-building values for a *static* target: the channel
    /// is dominated by its persistent geometry, with only centimeter-scale
    /// per-packet motion (people breathing/shifting, cart sway). The
    /// systematic multipath bias therefore does NOT average out across a
    /// 10-packet group — only the spread widens with reflection order.
    pub fn typical() -> Self {
        PathJitter {
            direct_tof_std_ns: 0.15,
            per_order_tof_std_ns: 1.5,
            direct_aoa_std_deg: 0.15,
            per_order_aoa_std_deg: 1.5,
            per_order_phase_std_rad: 0.5,
            per_order_amplitude_std: 0.1,
            correlation: 0.99,
        }
    }

    /// Perturbs one packet's view of the multipath with independent draws
    /// (the `correlation == 0` special case; see [`JitterProcess`] for the
    /// temporally correlated evolution used by trace generation).
    pub fn apply(&self, paths: &[Path], rng: &mut Rng) -> Vec<Path> {
        let mut process = JitterProcess::new(
            paths.to_vec(),
            PathJitter {
                correlation: 0.0,
                ..*self
            },
        );
        process.advance(rng)
    }
}

/// Temporally correlated per-packet channel evolution.
///
/// Each path carries an AR(1) deviation state for (ToF, AoA, phase,
/// amplitude): `x_p = ρ·x_{p−1} + √(1−ρ²)·σ·ε`. The stationary standard
/// deviations are exactly the [`PathJitter`] σ's, so long windows (the
/// 170-packet Fig. 5c trace) see the full spread while short windows see a
/// slowly drifting — i.e. *biased*, not averaging-out — channel.
pub struct JitterProcess {
    paths: Vec<Path>,
    jitter: PathJitter,
    /// Per-path deviations `[tof_s, aoa_rad, phase_rad, amp_frac]`.
    state: Vec<[f64; 4]>,
    started: bool,
}

impl JitterProcess {
    /// Creates the process around the nominal `paths`.
    pub fn new(paths: Vec<Path>, jitter: PathJitter) -> Self {
        let n = paths.len();
        JitterProcess {
            paths,
            jitter,
            state: vec![[0.0; 4]; n],
            started: false,
        }
    }

    /// Stationary sigmas for one path.
    fn sigmas(&self, path: &Path) -> [f64; 4] {
        let order = path.kind.order() as f64;
        [
            (self.jitter.direct_tof_std_ns + self.jitter.per_order_tof_std_ns * order) * 1e-9,
            (self.jitter.direct_aoa_std_deg + self.jitter.per_order_aoa_std_deg * order)
                .to_radians(),
            self.jitter.per_order_phase_std_rad * (order + 0.1),
            self.jitter.per_order_amplitude_std * order.max(0.1),
        ]
    }

    /// Advances one packet and returns that packet's perturbed paths.
    pub fn advance(&mut self, rng: &mut Rng) -> Vec<Path> {
        let rho = self.jitter.correlation.clamp(0.0, 0.999_999);
        let innov = (1.0 - rho * rho).sqrt();
        let sigmas: Vec<[f64; 4]> = self.paths.iter().map(|p| self.sigmas(p)).collect();
        for (sig, state) in sigmas.iter().zip(self.state.iter_mut()) {
            for (x, s) in state.iter_mut().zip(sig.iter()) {
                if !self.started {
                    // Start from the stationary distribution: the window's
                    // systematic offset.
                    *x = normal(rng, 0.0, *s);
                } else {
                    *x = rho * *x + innov * normal(rng, 0.0, *s);
                }
            }
        }
        self.started = true;

        self.paths
            .iter()
            .zip(self.state.iter())
            .map(|(p, st)| {
                let mut q = p.clone();
                q.tof_s = (p.tof_s + st[0]).max(0.0);
                q.aoa_rad = (p.aoa_rad + st[1])
                    .clamp(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
                q.sin_aoa = q.aoa_rad.sin();
                q.phase = p.phase + st[2];
                q.amplitude = p.amplitude * (1.0 + st[3]).max(0.05);
                q
            })
            .collect()
    }
}

/// Impairment configuration; every effect independently switchable.
#[derive(Clone, Copy, Debug)]
pub struct Impairments {
    /// Clock model, or `None` for synchronized radios.
    pub clock: Option<ClockModel>,
    /// Random common carrier phase per packet.
    pub random_carrier_phase: bool,
    /// Signal-to-noise ratio in dB, or `None` for noiseless CSI.
    pub snr_db: Option<f64>,
    /// Quantize to Intel-5300-style signed 8-bit components.
    pub quantize: bool,
    /// Per-packet multipath jitter, or `None` for a perfectly static
    /// channel.
    pub path_jitter: Option<PathJitter>,
}

impl Impairments {
    /// Everything a commodity deployment suffers: typical clocks, random
    /// carrier phase, 25 dB SNR, 8-bit quantization.
    pub fn commodity() -> Self {
        Impairments {
            clock: Some(ClockModel::typical()),
            random_carrier_phase: true,
            snr_db: Some(25.0),
            quantize: true,
            path_jitter: Some(PathJitter::typical()),
        }
    }

    /// Ideal measurements (for unit tests and ablations).
    pub fn none() -> Self {
        Impairments {
            clock: None,
            random_carrier_phase: false,
            snr_db: None,
            quantize: false,
            path_jitter: None,
        }
    }

    /// Applies all enabled impairments to an ideal CSI matrix, in place,
    /// returning the STO that was injected (for tests / oracles).
    pub fn apply(
        &self,
        csi: &mut CMat,
        ofdm: &OfdmConfig,
        packet_idx: usize,
        rng: &mut Rng,
    ) -> f64 {
        let mut sto = 0.0;
        if let Some(clock) = &self.clock {
            sto = clock.sto_for_packet(packet_idx, rng);
            apply_sto(csi, ofdm, sto);
        }
        if self.random_carrier_phase {
            let phi = c64::cis(uniform_phase(rng));
            for n in 0..csi.cols() {
                for m in 0..csi.rows() {
                    csi[(m, n)] *= phi;
                }
            }
        }
        if let Some(snr_db) = self.snr_db {
            apply_awgn(csi, snr_db, rng);
        }
        if self.quantize {
            quantize_intel5300(csi);
        }
        sto
    }
}

/// Adds the STO phase ramp `e^{−j·2π·f_δ·(n−1)·τ_s}` — identical across
/// antennas, linear across subcarriers (paper Sec. 3.2.2).
pub fn apply_sto(csi: &mut CMat, ofdm: &OfdmConfig, sto_s: f64) {
    for n in 0..csi.cols() {
        let ramp =
            c64::cis(-2.0 * std::f64::consts::PI * ofdm.subcarrier_spacing_hz * n as f64 * sto_s);
        for m in 0..csi.rows() {
            csi[(m, n)] *= ramp;
        }
    }
}

/// Adds complex AWGN such that mean signal power / noise power = SNR.
pub fn apply_awgn(csi: &mut CMat, snr_db: f64, rng: &mut Rng) {
    let n_elem = (csi.rows() * csi.cols()) as f64;
    let signal_power = csi.as_slice().iter().map(|z| z.norm_sqr()).sum::<f64>() / n_elem;
    if signal_power <= 0.0 {
        return;
    }
    let noise_power = signal_power / 10f64.powf(snr_db / 10.0);
    let sigma = (noise_power / 2.0).sqrt(); // per real component
    for n in 0..csi.cols() {
        for m in 0..csi.rows() {
            csi[(m, n)] += c64::new(sigma * standard_normal(rng), sigma * standard_normal(rng));
        }
    }
}

/// Quantizes each complex component to a signed 8-bit integer, scaling the
/// matrix so its largest component maps to 127 (the Intel 5300 reports CSI
/// with a per-packet AGC scale; SpotFi only uses relative values, so the
/// scale itself is irrelevant — the *rounding error* is the impairment).
pub fn quantize_intel5300(csi: &mut CMat) {
    let max = csi
        .as_slice()
        .iter()
        .map(|z| z.re.abs().max(z.im.abs()))
        .fold(0.0f64, f64::max);
    if max <= 0.0 {
        return;
    }
    let scale = 127.0 / max;
    for n in 0..csi.cols() {
        for m in 0..csi.rows() {
            let z = csi[(m, n)];
            csi[(m, n)] = c64::new(
                (z.re * scale).round() / scale,
                (z.im * scale).round() / scale,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn test_csi() -> CMat {
        CMat::from_fn(3, 30, |m, n| {
            c64::from_polar(1.0 + 0.1 * m as f64, 0.2 * n as f64 - 0.1 * m as f64)
        })
    }

    #[test]
    fn none_is_identity() {
        let mut csi = test_csi();
        let orig = csi.clone();
        let ofdm = OfdmConfig::intel5300_40mhz();
        let mut rng = Rng::seed_from_u64(1);
        let sto = Impairments::none().apply(&mut csi, &ofdm, 0, &mut rng);
        assert_eq!(sto, 0.0);
        assert!((&csi - &orig).max_abs() < 1e-15);
    }

    #[test]
    fn sto_ramp_is_linear_and_antenna_independent() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let mut csi = test_csi();
        let orig = csi.clone();
        let sto = 40e-9;
        apply_sto(&mut csi, &ofdm, sto);
        for n in 0..30 {
            let expected =
                -2.0 * std::f64::consts::PI * ofdm.subcarrier_spacing_hz * n as f64 * sto;
            for m in 0..3 {
                let d = (csi[(m, n)] / orig[(m, n)]).arg();
                assert!(
                    spotfi_math::wrap_pi(d - expected).abs() < 1e-9,
                    "({},{}) phase {}",
                    m,
                    n,
                    d
                );
                // Magnitude untouched.
                assert!((csi[(m, n)].abs() - orig[(m, n)].abs()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn awgn_achieves_requested_snr() {
        let mut rng = Rng::seed_from_u64(5);
        let snr_db = 20.0;
        // Average over many draws to estimate realized SNR.
        let mut noise_power_sum = 0.0;
        let mut signal_power_sum = 0.0;
        for _ in 0..200 {
            let clean = test_csi();
            let mut noisy = clean.clone();
            apply_awgn(&mut noisy, snr_db, &mut rng);
            let diff = &noisy - &clean;
            noise_power_sum += diff.as_slice().iter().map(|z| z.norm_sqr()).sum::<f64>();
            signal_power_sum += clean.as_slice().iter().map(|z| z.norm_sqr()).sum::<f64>();
        }
        let realized = 10.0 * (signal_power_sum / noise_power_sum).log10();
        assert!((realized - snr_db).abs() < 0.5, "realized SNR {}", realized);
    }

    #[test]
    fn quantization_error_is_small_but_nonzero() {
        let mut csi = test_csi();
        let orig = csi.clone();
        quantize_intel5300(&mut csi);
        let err = (&csi - &orig).max_abs();
        assert!(err > 0.0, "quantization must perturb the matrix");
        // Max component ≈ 1.3 ⇒ step ≈ 1.3/127 ⇒ max rounding error ≈ 0.0051.
        assert!(err < 0.01, "error {}", err);
    }

    #[test]
    fn quantization_is_idempotent() {
        let mut csi = test_csi();
        quantize_intel5300(&mut csi);
        let once = csi.clone();
        quantize_intel5300(&mut csi);
        assert!((&csi - &once).max_abs() < 1e-12);
    }

    #[test]
    fn sfo_makes_sto_drift() {
        let clock = ClockModel {
            base_sto_s: 50e-9,
            sfo_drift_s_per_packet: 1e-9,
            detection_jitter_s: 0.0,
        };
        let mut rng = Rng::seed_from_u64(2);
        let s0 = clock.sto_for_packet(0, &mut rng);
        let s10 = clock.sto_for_packet(10, &mut rng);
        assert!((s0 - 50e-9).abs() < 1e-15);
        assert!((s10 - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn carrier_phase_preserves_relative_structure() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let imp = Impairments {
            clock: None,
            random_carrier_phase: true,
            snr_db: None,
            quantize: false,
            path_jitter: None,
        };
        let mut rng = Rng::seed_from_u64(3);
        let mut csi = test_csi();
        let orig = csi.clone();
        imp.apply(&mut csi, &ofdm, 0, &mut rng);
        // All entries rotated by the same phase.
        let rot = csi[(0, 0)] / orig[(0, 0)];
        assert!((rot.abs() - 1.0).abs() < 1e-12);
        for n in 0..30 {
            for m in 0..3 {
                assert!(((csi[(m, n)] / orig[(m, n)]) - rot).abs() < 1e-9);
            }
        }
    }
}
