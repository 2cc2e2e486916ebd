//! Joint AoA/ToF steering vectors (paper Eqs. 1, 6, 7).
//!
//! A propagation path with AoA θ and (relative) ToF τ imposes two phase
//! ramps on the CSI:
//!
//! * across antennas: `Φ(θ) = e^{−j·2π·d·sin θ·f/c}` per antenna step;
//! * across subcarriers: `Ω(τ) = e^{−j·2π·f_δ·τ}` per subcarrier step.
//!
//! The joint steering vector over an `M × N` (antennas × subcarriers) sensor
//! array is the Kronecker structure of Eq. 7, ordered antenna-major:
//! element `(m, n)` at index `m·N + n` equals `Φ^m · Ω^n`.

use spotfi_channel::constants::{half_wavelength_spacing, SPEED_OF_LIGHT};
use spotfi_math::c64;

use crate::config::SpotFiConfig;
use crate::music::{coarse_aoa, coarse_rows};

/// Per-antenna phase factor `Φ(θ)` (Eq. 1).
///
/// `sin_theta` is the sine of the AoA; `spacing_m` the antenna spacing;
/// `carrier_hz` the carrier frequency.
#[inline]
pub fn phi(sin_theta: f64, spacing_m: f64, carrier_hz: f64) -> c64 {
    c64::cis(-2.0 * std::f64::consts::PI * spacing_m * sin_theta * carrier_hz / SPEED_OF_LIGHT)
}

/// Per-subcarrier phase factor `Ω(τ)` (Eq. 6).
#[inline]
pub fn omega(tof_s: f64, subcarrier_spacing_hz: f64) -> c64 {
    c64::cis(-2.0 * std::f64::consts::PI * subcarrier_spacing_hz * tof_s)
}

/// The joint steering vector of Eq. 7 for an `m_ant × n_sub` sensor array,
/// antenna-major ordering.
pub fn steering_vector(
    sin_theta: f64,
    tof_s: f64,
    m_ant: usize,
    n_sub: usize,
    spacing_m: f64,
    carrier_hz: f64,
    subcarrier_spacing_hz: f64,
) -> Vec<c64> {
    let phi_step = phi(sin_theta, spacing_m, carrier_hz);
    let omega_step = omega(tof_s, subcarrier_spacing_hz);
    let mut out = Vec::with_capacity(m_ant * n_sub);
    let mut phi_m = c64::ONE;
    for _m in 0..m_ant {
        let mut w = phi_m;
        for _n in 0..n_sub {
            out.push(w);
            w *= omega_step;
        }
        phi_m *= phi_step;
    }
    out
}

/// Powers `Ω(τ)^0 .. Ω(τ)^{n−1}` — one antenna's row of the steering
/// structure, used by the factored MUSIC spectrum evaluation — into a
/// caller-owned buffer of `n`: one `cis` for the step,
/// then the repeated-multiplication recurrence — no per-subcarrier
/// transcendental. This is what makes off-grid point evaluation of the
/// MUSIC pseudospectrum cheap enough for the coarse-to-fine sweep's polish
/// stage.
#[inline]
pub fn omega_powers_into(tof_s: f64, subcarrier_spacing_hz: f64, out: &mut [c64]) {
    let step = omega(tof_s, subcarrier_spacing_hz);
    step_powers_into(step, out);
}

/// Powers `Φ(θ)^0 .. Φ^{m−1}` into a caller-owned buffer, by the same
/// one-`cis`-then-recurrence scheme as [`omega_powers_into`].
#[inline]
pub fn phi_powers_into(sin_theta: f64, spacing_m: f64, carrier_hz: f64, out: &mut [c64]) {
    let step = phi(sin_theta, spacing_m, carrier_hz);
    step_powers_into(step, out);
}

/// `step^0 .. step^{n−1}` by the sequential repeated-multiplication chain.
#[inline]
fn step_powers_into(step: c64, out: &mut [c64]) {
    let mut cur = c64::ONE;
    for o in out.iter_mut() {
        *o = cur;
        cur *= step;
    }
}

/// Precomputed steering-vector factors for one `SpotFiConfig`'s MUSIC grid.
///
/// The factored spectrum evaluation needs `Φ(θ)^0..Φ^{M_s−1}` for every AoA
/// grid point and `Ω(τ)^0..Ω^{N_s−1}` for every ToF grid point. Those only
/// depend on the configuration — not on the packet — so [`crate::SpotFi`]
/// builds this table once at construction instead of re-deriving it inside
/// every `music_spectrum` call (the seed implementation rebuilt ~181 Φ rows
/// and ~251 Ω rows per packet).
///
/// Rows are computed with the exact same repeated-multiplication recurrence
/// the uncached path used, so cached and uncached spectra are bit-identical.
#[derive(Clone, Debug)]
pub struct SteeringCache {
    n_aoa: usize,
    n_tof: usize,
    ms: usize,
    ns: usize,
    /// Flattened `[n_aoa × ms]`: row `ia` is `Φ(θ_ia)^0..Φ^{ms−1}`.
    phi_pows: Vec<c64>,
    /// Flattened `[n_tof × ns]`: row `it` is `Ω(τ_it)^0..Ω^{ns−1}`.
    omega_pows: Vec<c64>,
    /// For a two-antenna subarray (empty otherwise), per row of MUSIC's
    /// coarse detection level: `(|Φ⁰|², |Φ¹|², Φ⁰, conj(Φ¹))` of the
    /// row's AoA, the constants its `M_s = 2` fill reads for every τ column.
    detection_rows2: Vec<(f64, f64, c64, c64)>,
}

impl SteeringCache {
    /// Builds the table for the config's AoA/ToF grids and subarray shape.
    pub fn new(cfg: &SpotFiConfig) -> Self {
        let ms = cfg.smoothing.sub_antennas;
        let ns = cfg.smoothing.sub_subcarriers;
        let aoa = cfg.music.aoa_grid_deg;
        let tof = cfg.music.tof_grid_ns;
        let spacing = half_wavelength_spacing(cfg.ofdm.carrier_hz);

        let mut phi_pows = vec![c64::ZERO; aoa.len() * ms];
        for (ia, row) in phi_pows.chunks_exact_mut(ms).enumerate() {
            let theta = aoa.value(ia).to_radians();
            phi_powers_into(theta.sin(), spacing, cfg.ofdm.carrier_hz, row);
        }
        let mut omega_pows = vec![c64::ZERO; tof.len() * ns];
        for (it, row) in omega_pows.chunks_exact_mut(ns).enumerate() {
            let tau = tof.value(it) * 1e-9;
            omega_powers_into(tau, cfg.ofdm.subcarrier_spacing_hz, row);
        }
        let detection_rows2 = if ms == 2 {
            (0..coarse_rows(aoa.len()))
                .map(|r| {
                    let ia = coarse_aoa(r, aoa.len());
                    let ph = &phi_pows[ia * ms..(ia + 1) * ms];
                    (ph[0].norm_sqr(), ph[1].norm_sqr(), ph[0], ph[1].conj())
                })
                .collect()
        } else {
            Vec::new()
        };
        SteeringCache {
            n_aoa: aoa.len(),
            n_tof: tof.len(),
            ms,
            ns,
            phi_pows,
            omega_pows,
            detection_rows2,
        }
    }

    /// Number of AoA grid points covered.
    #[inline]
    pub fn n_aoa(&self) -> usize {
        self.n_aoa
    }

    /// Number of ToF grid points covered.
    #[inline]
    pub fn n_tof(&self) -> usize {
        self.n_tof
    }

    /// `Φ(θ_ia)` powers for AoA grid index `ia` (length `ms`).
    #[inline]
    pub fn phi_row(&self, ia: usize) -> &[c64] {
        &self.phi_pows[ia * self.ms..(ia + 1) * self.ms]
    }

    /// `Ω(τ_it)` powers for ToF grid index `it` (length `ns`).
    #[inline]
    pub fn omega_row(&self, it: usize) -> &[c64] {
        &self.omega_pows[it * self.ns..(it + 1) * self.ns]
    }

    /// The detection level's per-row constants for a two-antenna subarray,
    /// one per coarse row; empty for any other subarray.
    #[inline]
    pub(crate) fn detection_rows2(&self) -> &[(f64, f64, c64, c64)] {
        &self.detection_rows2
    }

    /// `true` if the table matches this config's grids and subarray shape.
    pub fn matches(&self, cfg: &SpotFiConfig) -> bool {
        self.n_aoa == cfg.music.aoa_grid_deg.len()
            && self.n_tof == cfg.music.tof_grid_ns.len()
            && self.ms == cfg.smoothing.sub_antennas
            && self.ns == cfg.smoothing.sub_subcarriers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotfi_channel::constants::{DEFAULT_CARRIER_HZ, INTEL5300_SUBCARRIER_SPACING_HZ};

    const SPACING: f64 = 0.028;

    #[test]
    fn phi_is_unit_modulus() {
        for k in -10..=10 {
            let s = k as f64 / 10.0;
            assert!((phi(s, SPACING, DEFAULT_CARRIER_HZ).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn phi_zero_aoa_is_one() {
        let p = phi(0.0, SPACING, DEFAULT_CARRIER_HZ);
        assert!((p - c64::ONE).abs() < 1e-12);
    }

    #[test]
    fn omega_matches_eq6() {
        let tau = 25e-9;
        let w = omega(tau, INTEL5300_SUBCARRIER_SPACING_HZ);
        let expected = -2.0 * std::f64::consts::PI * INTEL5300_SUBCARRIER_SPACING_HZ * tau;
        assert!((w.arg() - spotfi_math::unwrap::wrap_phase(expected)).abs() < 1e-12);
    }

    #[test]
    fn steering_vector_structure() {
        let m_ant = 2;
        let n_sub = 4;
        let v = steering_vector(
            0.5,
            30e-9,
            m_ant,
            n_sub,
            SPACING,
            DEFAULT_CARRIER_HZ,
            INTEL5300_SUBCARRIER_SPACING_HZ,
        );
        assert_eq!(v.len(), 8);
        let p = phi(0.5, SPACING, DEFAULT_CARRIER_HZ);
        let w = omega(30e-9, INTEL5300_SUBCARRIER_SPACING_HZ);
        // Element (m, n) = Φ^m · Ω^n.
        for m in 0..m_ant {
            for n in 0..n_sub {
                let expect = p.powi(m as i32) * w.powi(n as i32);
                let got = v[m * n_sub + n];
                assert!((got - expect).abs() < 1e-12, "({}, {})", m, n);
            }
        }
    }

    #[test]
    fn first_element_is_one() {
        let v = steering_vector(
            -0.3,
            100e-9,
            3,
            30,
            SPACING,
            DEFAULT_CARRIER_HZ,
            INTEL5300_SUBCARRIER_SPACING_HZ,
        );
        assert!((v[0] - c64::ONE).abs() < 1e-14);
        // All unit modulus.
        for z in &v {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn power_buffers_are_the_recurrence() {
        let tau = 37.5e-9;
        let mut wbuf = [c64::ZERO; 15];
        omega_powers_into(tau, INTEL5300_SUBCARRIER_SPACING_HZ, &mut wbuf);
        let step = omega(tau, INTEL5300_SUBCARRIER_SPACING_HZ);
        let mut cur = c64::ONE;
        for (n, got) in wbuf.iter().enumerate() {
            assert_eq!(*got, cur, "omega power {}", n);
            cur *= step;
        }

        let mut pbuf = [c64::ZERO; 3];
        phi_powers_into(0.37, SPACING, DEFAULT_CARRIER_HZ, &mut pbuf);
        let step = phi(0.37, SPACING, DEFAULT_CARRIER_HZ);
        let mut cur = c64::ONE;
        for (m, got) in pbuf.iter().enumerate() {
            assert_eq!(*got, cur, "phi power {}", m);
            cur *= step;
        }
    }

    #[test]
    fn omega_powers_match_steering_vector() {
        let tau = 60e-9;
        let mut pw = [c64::ZERO; 15];
        omega_powers_into(tau, INTEL5300_SUBCARRIER_SPACING_HZ, &mut pw);
        let v = steering_vector(
            0.0,
            tau,
            1,
            15,
            SPACING,
            DEFAULT_CARRIER_HZ,
            INTEL5300_SUBCARRIER_SPACING_HZ,
        );
        for (a, b) in pw.iter().zip(v.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn steering_cache_rows_are_bit_identical_to_recurrence() {
        let cfg = SpotFiConfig::fast_test();
        let cache = SteeringCache::new(&cfg);
        assert!(cache.matches(&cfg));
        let spacing = half_wavelength_spacing(cfg.ofdm.carrier_hz);
        // Every Ω row must equal omega_powers_into() and the sequential
        // recurrence exactly (same code path).
        let mut expect = vec![c64::ZERO; cfg.smoothing.sub_subcarriers];
        for it in [0usize, 1, cache.n_tof() / 2, cache.n_tof() - 1] {
            let tau = cfg.music.tof_grid_ns.value(it) * 1e-9;
            omega_powers_into(tau, cfg.ofdm.subcarrier_spacing_hz, &mut expect);
            assert_eq!(cache.omega_row(it), &expect[..], "tof row {}", it);
            let step = omega(tau, cfg.ofdm.subcarrier_spacing_hz);
            let mut cur = c64::ONE;
            for (n, got) in cache.omega_row(it).iter().enumerate() {
                assert_eq!(*got, cur, "tof row {} power {}", it, n);
                cur *= step;
            }
        }
        // Every Φ row must equal the repeated-multiplication powers exactly.
        for ia in [0usize, 7, cache.n_aoa() / 2, cache.n_aoa() - 1] {
            let theta = cfg.music.aoa_grid_deg.value(ia).to_radians();
            let step = phi(theta.sin(), spacing, cfg.ofdm.carrier_hz);
            let mut cur = c64::ONE;
            for (m, got) in cache.phi_row(ia).iter().enumerate() {
                assert_eq!(*got, cur, "aoa row {} power {}", ia, m);
                cur *= step;
            }
        }
    }

    #[test]
    fn steering_cache_detects_config_mismatch() {
        let cfg = SpotFiConfig::fast_test();
        let cache = SteeringCache::new(&cfg);
        let mut other = cfg.clone();
        other.music.aoa_grid_deg = crate::config::GridSpec::new(-90.0, 90.0, 1.0);
        assert!(!cache.matches(&other));
    }

    #[test]
    fn distinct_parameters_give_distinct_vectors() {
        let a = steering_vector(
            0.2,
            50e-9,
            2,
            15,
            SPACING,
            DEFAULT_CARRIER_HZ,
            INTEL5300_SUBCARRIER_SPACING_HZ,
        );
        let b = steering_vector(
            0.3,
            50e-9,
            2,
            15,
            SPACING,
            DEFAULT_CARRIER_HZ,
            INTEL5300_SUBCARRIER_SPACING_HZ,
        );
        let c = steering_vector(
            0.2,
            80e-9,
            2,
            15,
            SPACING,
            DEFAULT_CARRIER_HZ,
            INTEL5300_SUBCARRIER_SPACING_HZ,
        );
        // Normalized correlation < 1 means linearly independent.
        let corr = |x: &[c64], y: &[c64]| {
            let dot: c64 = x.iter().zip(y).map(|(a, b)| a.conj() * *b).sum();
            dot.abs() / x.len() as f64
        };
        assert!(corr(&a, &b) < 0.99);
        assert!(corr(&a, &c) < 0.99);
    }
}
