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

use crate::csi::ROW;
use crate::ofdm::OfdmConfig;
use crate::raytrace::Path;
use crate::rng::{fill_standard_normal, normal, uniform_phase};

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

    /// Stationary sigmas of one path's `[tof_s, aoa_rad, phase_rad,
    /// amp_frac]` deviations: they grow with its reflection order.
    fn sigmas(&self, path: &Path) -> [f64; 4] {
        let order = path.kind.order() as f64;
        [
            (self.direct_tof_std_ns + self.per_order_tof_std_ns * order) * 1e-9,
            (self.direct_aoa_std_deg + self.per_order_aoa_std_deg * order).to_radians(),
            self.per_order_phase_std_rad * (order + 0.1),
            self.per_order_amplitude_std * order.max(0.1),
        ]
    }
}

/// Temporally correlated per-packet channel evolution.
///
/// Each path carries an AR(1) deviation state for (ToF, AoA, phase,
/// amplitude): `x_p = ρ·x_{p−1} + √(1−ρ²)·σ·ε`. The stationary standard
/// deviations are exactly the [`PathJitter`] σ's, so long windows (the
/// 170-packet Fig. 5c trace) see the full spread while short windows see a
/// slowly drifting — i.e. *biased*, not averaging-out — channel.
///
/// The nominal paths stay with the link that owns the process, which
/// passes them to every [`JitterProcess::advance`].
pub(crate) struct JitterProcess {
    jitter: PathJitter,
    /// Per-path stationary sigmas, in `state`'s layout.
    sigmas: Vec<[f64; 4]>,
    /// Per-path deviations `[tof_s, aoa_rad, phase_rad, amp_frac]`.
    state: Vec<[f64; 4]>,
    /// The latest packet's perturbed paths: the nominal paths with the
    /// deviations applied, rewritten in place by every
    /// [`JitterProcess::advance`].
    perturbed: Vec<Path>,
    /// One packet's standard normal draws, four per path in `state`'s
    /// layout.
    draws: Vec<f64>,
    started: bool,
}

impl JitterProcess {
    /// Creates the process around the nominal `paths`.
    pub(crate) fn new(paths: &[Path], jitter: PathJitter) -> Self {
        let sigmas = paths.iter().map(|p| jitter.sigmas(p)).collect();
        let n = paths.len();
        JitterProcess {
            perturbed: paths.to_vec(),
            jitter,
            sigmas,
            state: vec![[0.0; 4]; n],
            draws: vec![0.0; 4 * n],
            started: false,
        }
    }

    /// Advances one packet and returns that packet's perturbed `paths`,
    /// the nominal paths the process was created around.
    pub(crate) fn advance(&mut self, paths: &[Path], rng: &mut Rng) -> &[Path] {
        assert_eq!(paths.len(), self.state.len(), "nominal path count");
        let rho = self.jitter.correlation.clamp(0.0, 0.999_999);
        let innov = (1.0 - rho * rho).sqrt();
        fill_standard_normal(rng, &mut self.draws);
        let draws = self.draws.chunks_exact(4);
        for ((sig, state), z) in self.sigmas.iter().zip(self.state.iter_mut()).zip(draws) {
            for ((x, s), z) in state.iter_mut().zip(sig).zip(z) {
                // `0.0 + σ·z` is `normal(rng, 0.0, σ)` to the bit.
                let d = 0.0 + s * z;
                if !self.started {
                    // Start from the stationary distribution: the window's
                    // systematic offset.
                    *x = d;
                } else {
                    *x = rho * *x + innov * d;
                }
            }
        }
        self.started = true;

        for ((q, p), st) in self.perturbed.iter_mut().zip(paths).zip(&self.state) {
            q.tof_s = (p.tof_s + st[0]).max(0.0);
            q.aoa_rad = (p.aoa_rad + st[1])
                .clamp(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
            q.sin_aoa = q.aoa_rad.sin();
            q.phase = p.phase + st[2];
            q.amplitude = p.amplitude * (1.0 + st[3]).max(0.05);
        }
        &self.perturbed
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
}

/// [`Impairments`] with one link's constants computed once: the STO
/// ramp's phase scale and the linear SNR. A packet draws its STO and
/// carrier phase ([`LinkImpairments::draw_rotation`]), is rotated as it is
/// written, then gets noise and quantization ([`LinkImpairments::finish`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkImpairments {
    impairments: Impairments,
    /// `−2π·f_δ`: the STO ramp's per-subcarrier phase per second of offset.
    sto_phase_per_s: f64,
    /// The linear SNR `10^(SNR/10)`, or `None` for noiseless CSI.
    snr: Option<f64>,
}

impl LinkImpairments {
    pub(crate) fn new(impairments: Impairments, ofdm: &OfdmConfig) -> Self {
        LinkImpairments {
            impairments,
            sto_phase_per_s: sto_phase_per_s(ofdm),
            snr: impairments.snr_db.map(linear_snr),
        }
    }

    /// Draws one packet's STO (0 with synchronized clocks), then its
    /// carrier phase, and returns the STO with the rotation they make.
    pub(crate) fn draw_rotation(&self, packet_idx: usize, rng: &mut Rng) -> (f64, Rotation) {
        let mut sto = 0.0;
        let mut rotation = Rotation::default();
        if let Some(clock) = &self.impairments.clock {
            sto = clock.sto_for_packet(packet_idx, rng);
            rotation.sto_step = Some(c64::cis(self.sto_phase_per_s * sto));
        }
        if self.impairments.random_carrier_phase {
            rotation.carrier = Some(c64::cis(uniform_phase(rng)));
        }
        (sto, rotation)
    }

    /// Adds the noise, then quantizes, each if enabled.
    pub(crate) fn finish(&self, csi: &mut CMat, rng: &mut Rng) {
        if let Some(snr) = self.snr {
            add_awgn(csi, snr, rng);
        }
        if self.impairments.quantize {
            quantize_intel5300(csi);
        }
    }
}

/// A packet's phase rotations of every CSI entry: the STO ramp
/// `e^{−j·2π·f_δ·n·τ_s}` across subcarriers, then the common carrier
/// phase. A disabled one is `None` and skips its multiply: multiplying by
/// 1 is not a no-op on an infinity or a signed zero.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Rotation {
    /// The STO ramp's step from one subcarrier to the next.
    pub(crate) sto_step: Option<c64>,
    /// The carrier phase `e^{jψ}`.
    pub(crate) carrier: Option<c64>,
}

impl Rotation {
    /// Rotates an entry whose subcarrier's STO ramp value is `ramp`.
    #[inline(always)]
    pub(crate) fn apply(&self, h: c64, ramp: c64) -> c64 {
        let h = if self.sto_step.is_some() { h * ramp } else { h };
        match self.carrier {
            Some(phi) => h * phi,
            None => h,
        }
    }

    /// The STO ramp from the first subcarrier on.
    pub(crate) fn ramp(&self) -> Ramp {
        Ramp {
            step: self.sto_step,
            next: c64::ONE,
        }
    }

    /// Rotates every entry of `csi` in place.
    pub(crate) fn rotate(&self, csi: &mut CMat) {
        let (rows, cols) = csi.shape();
        let mut ramp = self.ramp();
        for n0 in (0..cols).step_by(ROW) {
            let block = ramp.next_block();
            for (n, r) in (n0..cols.min(n0 + ROW)).zip(block) {
                for m in 0..rows {
                    csi[(m, n)] = self.apply(csi[(m, n)], r);
                }
            }
        }
    }
}

/// The STO ramp, walked one block of subcarriers at a time by one phasor
/// step per subcarrier, like `Ω(τ)^n` in the CSI synthesis.
pub(crate) struct Ramp {
    step: Option<c64>,
    next: c64,
}

impl Ramp {
    /// The ramp over the next [`ROW`] subcarriers (unused 1s without an
    /// STO).
    pub(crate) fn next_block(&mut self) -> [c64; ROW] {
        let mut block = [c64::ONE; ROW];
        if let Some(step) = self.step {
            for r in &mut block {
                *r = self.next;
                self.next *= step;
            }
        }
        block
    }
}

/// `−2π·f_δ`: the STO ramp's per-subcarrier phase per second of offset.
fn sto_phase_per_s(ofdm: &OfdmConfig) -> f64 {
    -2.0 * std::f64::consts::PI * ofdm.subcarrier_spacing_hz
}

/// `10^(SNR/10)`.
fn linear_snr(snr_db: f64) -> f64 {
    10f64.powf(snr_db / 10.0)
}

/// Adds the STO phase ramp `e^{−j·2π·f_δ·(n−1)·τ_s}` — identical across
/// antennas, linear across subcarriers (paper Sec. 3.2.2). The ramp is
/// built by one phasor step per subcarrier, like `Ω(τ)^n` in the CSI
/// synthesis.
pub fn apply_sto(csi: &mut CMat, ofdm: &OfdmConfig, sto_s: f64) {
    let rotation = Rotation {
        sto_step: Some(c64::cis(sto_phase_per_s(ofdm) * sto_s)),
        carrier: None,
    };
    rotation.rotate(csi);
}

/// Adds complex AWGN such that mean signal power / noise power = `snr`
/// (linear). One (re, im) pair of draws per entry, in column-major order,
/// drawn into a stack buffer.
fn add_awgn(csi: &mut CMat, snr: f64, rng: &mut Rng) {
    /// Entries per buffer of draws: a 4-antenna tile.
    const ENTRIES: usize = 4 * ROW;
    let n_elem = (csi.rows() * csi.cols()) as f64;
    let signal_power = csi.as_slice().iter().map(|z| z.norm_sqr()).sum::<f64>() / n_elem;
    if signal_power <= 0.0 {
        return;
    }
    let noise_power = signal_power / snr;
    let sigma = (noise_power / 2.0).sqrt(); // per real component
    let mut z = [0.0; 2 * ENTRIES];
    for chunk in csi.as_mut_slice().chunks_mut(ENTRIES) {
        let z = &mut z[..2 * chunk.len()];
        fill_standard_normal(rng, z);
        for (h, pair) in chunk.iter_mut().zip(z.chunks_exact(2)) {
            *h += c64::new(sigma * pair[0], sigma * pair[1]);
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

    /// Every enabled impairment applied to an ideal matrix in place, in a
    /// packet's order; returns the injected STO.
    fn impair(
        imp: Impairments,
        csi: &mut CMat,
        ofdm: &OfdmConfig,
        packet_idx: usize,
        rng: &mut Rng,
    ) -> f64 {
        let link = LinkImpairments::new(imp, ofdm);
        let (sto, rotation) = link.draw_rotation(packet_idx, rng);
        rotation.rotate(csi);
        link.finish(csi, rng);
        sto
    }

    #[test]
    fn none_is_identity() {
        let mut csi = test_csi();
        let orig = csi.clone();
        let ofdm = OfdmConfig::intel5300_40mhz();
        let mut rng = Rng::seed_from_u64(1);
        let sto = impair(Impairments::none(), &mut csi, &ofdm, 0, &mut rng);
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
                    spotfi_math::unwrap::wrap_phase(d - expected).abs() < 1e-9,
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

    /// The per-subcarrier ramp `apply_sto` replaced: one `cis` per
    /// subcarrier, the reference the recurrence is checked against.
    fn naive_sto(csi: &mut CMat, ofdm: &OfdmConfig, sto_s: f64) {
        for n in 0..csi.cols() {
            let ramp = c64::cis(
                -2.0 * std::f64::consts::PI * ofdm.subcarrier_spacing_hz * n as f64 * sto_s,
            );
            for m in 0..csi.rows() {
                csi[(m, n)] *= ramp;
            }
        }
    }

    /// Per entry, `|recurrence − naive| ≤ |h|·(4·ulp(φ_max) + 8·N·ε)` with
    /// `φ_max = 2π·f_δ·(N−1)·|τ_s|`: the naive argument rounds about
    /// 2 ulp away from the exact phase and the step's rounding, multiplied
    /// by `n`, about 1 ulp; each of the `N − 1` steps adds one complex
    /// product and the step's own `cis` error, about 2.2·ε.
    #[test]
    fn sto_recurrence_matches_per_subcarrier_ramp_within_rounding_bound() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let mut rng = Rng::seed_from_u64(0x5707);
        for trial in 0..200 {
            let sto = rng.gen_range(-1e-6..1e-6);
            let orig = CMat::from_fn(3, 30, |_, _| {
                c64::from_polar(rng.gen_range(0.01..2.0), uniform_phase(&mut rng))
            });
            let mut fast = orig.clone();
            apply_sto(&mut fast, &ofdm, sto);
            let mut slow = orig.clone();
            naive_sto(&mut slow, &ofdm, sto);
            let n_sub = ofdm.num_subcarriers as f64;
            let phase_max =
                2.0 * std::f64::consts::PI * ofdm.subcarrier_spacing_hz * (n_sub - 1.0) * sto;
            let rel = 4.0 * crate::csi::ulp(phase_max) + 8.0 * n_sub * f64::EPSILON;
            for ((a, b), h) in fast
                .as_slice()
                .iter()
                .zip(slow.as_slice())
                .zip(orig.as_slice())
            {
                assert!(
                    (*a - *b).abs() <= h.abs() * rel,
                    "trial {trial}, sto {sto:e}: {a:?} vs {b:?}"
                );
            }
        }
    }

    /// The clone-per-packet evolution `JitterProcess::advance` replaced:
    /// the reference its in-place buffer must reproduce to the bit.
    fn cloning_advance(
        paths: &[Path],
        jitter: PathJitter,
        packets: usize,
        rng: &mut Rng,
    ) -> Vec<Vec<Path>> {
        let rho = jitter.correlation.clamp(0.0, 0.999_999);
        let innov = (1.0 - rho * rho).sqrt();
        let mut state = vec![[0.0; 4]; paths.len()];
        (0..packets)
            .map(|packet| {
                for (path, st) in paths.iter().zip(state.iter_mut()) {
                    for (x, s) in st.iter_mut().zip(jitter.sigmas(path)) {
                        *x = if packet == 0 {
                            normal(rng, 0.0, s)
                        } else {
                            rho * *x + innov * normal(rng, 0.0, s)
                        };
                    }
                }
                paths
                    .iter()
                    .zip(&state)
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
            })
            .collect()
    }

    fn path_bits(p: &Path) -> [u64; 6] {
        [
            p.length_m.to_bits(),
            p.tof_s.to_bits(),
            p.sin_aoa.to_bits(),
            p.aoa_rad.to_bits(),
            p.amplitude.to_bits(),
            p.phase.to_bits(),
        ]
    }

    #[test]
    fn in_place_advance_matches_cloning_reference_bit_for_bit() {
        use crate::geometry::Point;
        use crate::raytrace::PathKind;
        let path = |kind: PathKind, tof_ns: f64, aoa_deg: f64, amplitude: f64| {
            let aoa = f64::to_radians(aoa_deg);
            Path {
                kind,
                length_m: tof_ns * 0.3,
                tof_s: tof_ns * 1e-9,
                sin_aoa: aoa.sin(),
                aoa_rad: aoa,
                amplitude,
                phase: 0.1 * tof_ns,
                vertices: vec![Point::new(0.0, 0.0), Point::new(1.0, tof_ns)],
            }
        };
        // Specular and diffuse paths, two of them at the ToF and AoA
        // clamps.
        let paths = vec![
            path(PathKind::Direct, 0.05, 89.9, 1.0),
            path(PathKind::Reflected { walls: vec![2] }, 31.0, -40.0, 0.4),
            path(PathKind::Reflected { walls: vec![0, 3] }, 58.0, 17.0, 0.2),
            path(PathKind::Diffuse, 44.0, -89.5, 0.05),
            path(PathKind::Diffuse, 120.0, 5.0, 0.02),
        ];
        let wild = PathJitter {
            per_order_amplitude_std: 0.8,
            correlation: 0.5,
            ..PathJitter::typical()
        };
        for jitter in [PathJitter::typical(), wild] {
            let mut process = JitterProcess::new(&paths, jitter);
            let mut rng = Rng::seed_from_u64(0xADCE);
            let reference = cloning_advance(&paths, jitter, 64, &mut Rng::seed_from_u64(0xADCE));
            for (packet, expected) in reference.iter().enumerate() {
                let got = process.advance(&paths, &mut rng);
                assert_eq!(got.len(), expected.len());
                for (k, (g, e)) in got.iter().zip(expected).enumerate() {
                    assert_eq!(path_bits(g), path_bits(e), "packet {packet}, path {k}");
                    assert_eq!(g.kind, e.kind);
                    assert_eq!(g.vertices, e.vertices);
                }
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
            add_awgn(&mut noisy, linear_snr(snr_db), &mut rng);
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
        impair(imp, &mut csi, &ofdm, 0, &mut rng);
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
