//! ToF sanitization (paper Algorithm 1).
//!
//! The sampling time offset (STO) between an unsynchronized sender and
//! receiver adds `−2π·f_δ·(n−1)·τ_s` to the CSI phase of subcarrier `n` —
//! the same ramp at every antenna. Because the STO changes packet to packet
//! (SFO, detection jitter), raw ToF estimates are incomparable across
//! packets. Algorithm 1 removes the ramp:
//!
//! 1. unwrap the CSI phase across subcarriers, per antenna;
//! 2. fit one common linear slope in the subcarrier index to all antennas'
//!    unwrapped phases (least squares);
//! 3. subtract the fitted slope from every phase.
//!
//! After sanitization, every packet's CSI carries the *same* residual offset
//! (that of the linear fit of the multipath channel itself), so ToF
//! estimates become comparable across packets — which is all SpotFi needs,
//! since it never uses absolute ToF for ranging.

use spotfi_math::stats::linear_fit;
use spotfi_math::unwrap::unwrap_in_place;
use spotfi_math::{c64, CMat};

use crate::error::{Result, SpotFiError};

/// Result of sanitizing one packet's CSI.
#[derive(Clone, Debug)]
pub struct SanitizedCsi {
    /// The CSI with the common linear phase ramp removed.
    pub csi: CMat,
    /// The fitted slope expressed as an STO estimate `τ̂_s` in seconds
    /// (slope = −2π·f_δ·τ̂_s per subcarrier).
    pub estimated_sto_s: f64,
}

/// Applies Algorithm 1 to a CSI matrix (`antennas × subcarriers`).
///
/// ```
/// use spotfi_math::{c64, CMat};
/// use spotfi_core::sanitize_csi;
///
/// // A pure linear phase ramp (what an STO looks like) sanitizes to flat.
/// let csi = CMat::from_fn(3, 30, |_m, n| c64::cis(-0.5 * n as f64));
/// let s = sanitize_csi(&csi, 1.25e6).unwrap();
/// assert!(s.csi[(0, 29)].arg().abs() < 1e-9);
/// // slope = −2π·f_δ·τ̂ ⇒ τ̂ = 0.5 / (2π·1.25 MHz) ≈ 63.7 ns.
/// assert!((s.estimated_sto_s * 1e9 - 63.66).abs() < 0.1);
/// ```
pub fn sanitize_csi(csi: &CMat, subcarrier_spacing_hz: f64) -> Result<SanitizedCsi> {
    let _span = spotfi_obs::span("stage.sanitize");
    let result = sanitize_csi_impl(csi, subcarrier_spacing_hz);
    if spotfi_obs::enabled() {
        match &result {
            Ok(s) => {
                spotfi_obs::counter("sanitize.packets_ok", 1);
                spotfi_obs::value("sanitize.sto_ns", s.estimated_sto_s * 1e9);
            }
            Err(_) => spotfi_obs::counter("sanitize.packets_rejected", 1),
        }
    }
    result
}

fn sanitize_csi_impl(csi: &CMat, subcarrier_spacing_hz: f64) -> Result<SanitizedCsi> {
    let (m_ant, n_sub) = csi.shape();
    if n_sub < 2 || m_ant == 0 {
        return Err(SpotFiError::DegenerateCsi);
    }
    if !csi.as_slice().iter().all(|z| z.is_finite()) {
        return Err(SpotFiError::DegenerateCsi);
    }
    if csi.as_slice().iter().all(|z| z.abs() == 0.0) {
        return Err(SpotFiError::DegenerateCsi);
    }

    // Unwrapped phase response per antenna, then one pooled linear fit
    // ψ(m, n) ≈ slope·n + intercept across all antennas.
    let mut xs = Vec::with_capacity(m_ant * n_sub);
    let mut ys = Vec::with_capacity(m_ant * n_sub);
    for m in 0..m_ant {
        let start = ys.len();
        ys.extend((0..n_sub).map(|n| csi[(m, n)].arg()));
        unwrap_in_place(&mut ys[start..]);
        xs.extend((0..n_sub).map(|n| n as f64));
    }
    let (slope, _intercept) = linear_fit(&xs, &ys).ok_or(SpotFiError::DegenerateCsi)?;

    // slope = −2π·f_δ·τ̂_s  ⇒  τ̂_s = −slope / (2π·f_δ).
    let estimated_sto_s = -slope / (2.0 * std::f64::consts::PI * subcarrier_spacing_hz);

    // Subtract the fitted ramp: multiply subcarrier n by e^{−j·slope·n}.
    let mut out = csi.clone();
    for n in 0..n_sub {
        let corr = c64::cis(-slope * n as f64);
        for m in 0..m_ant {
            out[(m, n)] *= corr;
        }
    }
    Ok(SanitizedCsi {
        csi: out,
        estimated_sto_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotfi_channel::impairments::apply_sto;
    use spotfi_channel::OfdmConfig;

    const F_DELTA: f64 = 1.25e6;

    /// Multi-path-like CSI: two tones across subcarriers, AoA ramp across
    /// antennas.
    fn synthetic_csi() -> CMat {
        CMat::from_fn(3, 30, |m, n| {
            let t1 = c64::cis(-0.4 * n as f64 - 0.9 * m as f64);
            let t2 = c64::cis(-0.9 * n as f64 - 0.2 * m as f64).scale(0.5);
            t1 + t2
        })
    }

    #[test]
    fn removes_injected_sto() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let clean = synthetic_csi();
        let base = sanitize_csi(&clean, ofdm.subcarrier_spacing_hz).unwrap();

        for sto_ns in [10.0, 57.0, 133.0] {
            let mut dirty = clean.clone();
            apply_sto(&mut dirty, &ofdm, sto_ns * 1e-9);
            let s = sanitize_csi(&dirty, ofdm.subcarrier_spacing_hz).unwrap();
            // The sanitized CSI must match the sanitized clean CSI — the
            // paper's Fig. 5(b): modified phase identical across packets
            // with different STOs.
            let d = (&s.csi - &base.csi).max_abs();
            assert!(d < 1e-6, "sto {} ns: residual {}", sto_ns, d);
        }
    }

    #[test]
    fn estimated_sto_tracks_injected_sto() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let clean = synthetic_csi();
        let base = sanitize_csi(&clean, ofdm.subcarrier_spacing_hz).unwrap();
        let mut dirty = clean.clone();
        let injected = 80e-9;
        apply_sto(&mut dirty, &ofdm, injected);
        let s = sanitize_csi(&dirty, ofdm.subcarrier_spacing_hz).unwrap();
        // The estimate includes the channel's own mean delay (from `base`);
        // the *difference* must equal the injected STO.
        let recovered = s.estimated_sto_s - base.estimated_sto_s;
        assert!(
            (recovered - injected).abs() < 1e-10,
            "recovered {} vs {}",
            recovered,
            injected
        );
    }

    #[test]
    fn pure_ramp_becomes_flat() {
        // Single path at ToF τ with no AoA structure: after sanitization
        // the subcarrier phase ramp is entirely removed.
        let tau_slope = -0.7; // radians per subcarrier
        let csi = CMat::from_fn(3, 30, |_m, n| c64::cis(tau_slope * n as f64));
        let s = sanitize_csi(&csi, F_DELTA).unwrap();
        for n in 0..30 {
            for m in 0..3 {
                assert!(
                    s.csi[(m, n)].arg().abs() < 1e-9,
                    "({}, {}) phase {}",
                    m,
                    n,
                    s.csi[(m, n)].arg()
                );
            }
        }
    }

    #[test]
    fn magnitudes_untouched() {
        let csi = synthetic_csi();
        let s = sanitize_csi(&csi, F_DELTA).unwrap();
        for n in 0..30 {
            for m in 0..3 {
                assert!((s.csi[(m, n)].abs() - csi[(m, n)].abs()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn antenna_phase_differences_preserved() {
        // Sanitization subtracts the same ramp from all antennas, so AoA
        // information (inter-antenna phase) is untouched.
        let csi = synthetic_csi();
        let s = sanitize_csi(&csi, F_DELTA).unwrap();
        for n in 0..30 {
            let before = (csi[(1, n)] * csi[(0, n)].conj()).arg();
            let after = (s.csi[(1, n)] * s.csi[(0, n)].conj()).arg();
            assert!((before - after).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_degenerate_input() {
        let zero = CMat::zeros(3, 30);
        assert_eq!(
            sanitize_csi(&zero, F_DELTA).unwrap_err(),
            SpotFiError::DegenerateCsi
        );
        let tiny = CMat::zeros(3, 1);
        assert!(sanitize_csi(&tiny, F_DELTA).is_err());
        let mut nan = CMat::zeros(3, 30);
        nan[(0, 0)] = c64::new(f64::NAN, 0.0);
        assert!(sanitize_csi(&nan, F_DELTA).is_err());
    }

    #[test]
    fn idempotent_after_first_pass() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let mut dirty = synthetic_csi();
        apply_sto(&mut dirty, &ofdm, 95e-9);
        let once = sanitize_csi(&dirty, ofdm.subcarrier_spacing_hz).unwrap();
        let twice = sanitize_csi(&once.csi, ofdm.subcarrier_spacing_hz).unwrap();
        assert!((&once.csi - &twice.csi).max_abs() < 1e-9);
        assert!(twice.estimated_sto_s.abs() < 1e-12);
    }
}
