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
use spotfi_math::unwrap::unwrap_iter;
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
    let slope = ramp_slope(csi, subcarrier_spacing_hz)?;
    let mut out = csi.clone();
    for (n, &corr) in RampRemoval::new(slope, csi.cols())
        .factors()
        .iter()
        .enumerate()
    {
        for m in 0..csi.rows() {
            out[(m, n)] *= corr;
        }
    }
    Ok(SanitizedCsi {
        csi: out,
        estimated_sto_s: sto_from_slope(slope, subcarrier_spacing_hz),
    })
}

/// Algorithm 1's fit alone: the slope, in radians per subcarrier, of the
/// common phase ramp that [`sanitize_csi`] removes, with the same checks,
/// span and counters. The pipeline removes the ramp while it gathers the
/// smoothed columns ([`crate::smoothing`]), entry by entry with the same
/// [`RampRemoval`], so it never copies the CSI.
pub(crate) fn ramp_slope(csi: &CMat, subcarrier_spacing_hz: f64) -> Result<f64> {
    let _span = spotfi_obs::span("stage.sanitize");
    let result = fit_slope(csi);
    if spotfi_obs::enabled() {
        match &result {
            Ok(slope) => {
                spotfi_obs::counter("sanitize.packets_ok", 1);
                let sto_s = sto_from_slope(*slope, subcarrier_spacing_hz);
                spotfi_obs::value("sanitize.sto_ns", sto_s * 1e9);
            }
            Err(_) => spotfi_obs::counter("sanitize.packets_rejected", 1),
        }
    }
    result
}

/// Most subcarriers whose factors a [`RampRemoval`] keeps on the stack
/// (the Intel 5300 reports 30); more take one heap buffer.
const STACK_SUBCARRIERS: usize = 64;

/// Algorithm 1's ramp removal: the factor `e^{−j·slope·n}` that multiplies
/// subcarrier `n`, for every subcarrier, computed once per packet.
/// [`sanitize_csi`] applies it to its copy; the pipeline applies it to each
/// entry it gathers into a smoothed column, so both hold the same bits.
pub(crate) struct RampRemoval {
    stack: [c64; STACK_SUBCARRIERS],
    heap: Vec<c64>,
    len: usize,
}

impl RampRemoval {
    /// The factors of a ramp of `slope` radians per subcarrier over `n_sub`
    /// subcarriers.
    pub(crate) fn new(slope: f64, n_sub: usize) -> Self {
        let mut ramp = RampRemoval {
            stack: [c64::ZERO; STACK_SUBCARRIERS],
            heap: Vec::new(),
            len: n_sub,
        };
        let factors = if n_sub <= STACK_SUBCARRIERS {
            &mut ramp.stack[..n_sub]
        } else {
            ramp.heap.resize(n_sub, c64::ZERO);
            &mut ramp.heap[..]
        };
        for (n, f) in factors.iter_mut().enumerate() {
            *f = c64::cis(-slope * n as f64);
        }
        ramp
    }

    /// The factor of each subcarrier, in order.
    pub(crate) fn factors(&self) -> &[c64] {
        if self.len <= STACK_SUBCARRIERS {
            &self.stack[..self.len]
        } else {
            &self.heap
        }
    }
}

/// The STO estimate `τ̂_s` in seconds of a fitted slope:
/// slope = −2π·f_δ·τ̂_s ⇒ τ̂_s = −slope / (2π·f_δ).
fn sto_from_slope(slope: f64, subcarrier_spacing_hz: f64) -> f64 {
    -slope / (2.0 * std::f64::consts::PI * subcarrier_spacing_hz)
}

fn fit_slope(csi: &CMat) -> Result<f64> {
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
    // ψ(m, n) ≈ slope·n + intercept across all antennas, fed antenna by
    // antenna as each phase is unwrapped.
    let (slope, _intercept) = linear_fit(pooled_phases(csi)).ok_or(SpotFiError::DegenerateCsi)?;
    Ok(slope)
}

/// Every antenna's unwrapped phase response as `(n, ψ(m, n))` points, one
/// antenna after another: the pooled data Algorithm 1 fits its line to.
fn pooled_phases(csi: &CMat) -> impl Iterator<Item = (f64, f64)> + '_ {
    let (m_ant, n_sub) = csi.shape();
    (0..m_ant).flat_map(move |m| {
        let phases = unwrap_iter((0..n_sub).map(move |n| csi[(m, n)].arg()));
        (0..n_sub).map(|n| n as f64).zip(phases)
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

    /// The least-squares line fit as it ran on collected slices.
    fn slice_linear_fit(x: &[f64], y: &[f64]) -> Option<(f64, f64)> {
        let n = x.len() as f64;
        if x.len() < 2 {
            return None;
        }
        let sx: f64 = x.iter().sum();
        let sy: f64 = y.iter().sum();
        let sxx: f64 = x.iter().map(|v| v * v).sum();
        let sxy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 * (n * sxx).abs().max(1.0) {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        Some((slope, intercept))
    }

    /// The in-place unwrap as it ran before it shared its step with the
    /// streamed one.
    fn slice_unwrap(phase: &mut [f64]) {
        use std::f64::consts::PI;
        let mut offset = 0.0;
        for i in 1..phase.len() {
            let raw = phase[i] + offset;
            let prev = phase[i - 1];
            let mut d = raw - prev;
            while d > PI {
                offset -= 2.0 * PI;
                d -= 2.0 * PI;
            }
            while d < -PI {
                offset += 2.0 * PI;
                d += 2.0 * PI;
            }
            phase[i] = prev + d;
        }
    }

    /// Algorithm 1 as it ran before its fit was streamed: every antenna's
    /// phases collected into `ys` and unwrapped there, the subcarrier
    /// indices into `xs`, then the slice fit. Returns the fit, the STO
    /// estimate and the sanitized CSI.
    fn collected_sanitize(csi: &CMat, f_delta: f64) -> Option<((f64, f64), f64, CMat)> {
        let (m_ant, n_sub) = csi.shape();
        let mut xs = Vec::with_capacity(m_ant * n_sub);
        let mut ys = Vec::with_capacity(m_ant * n_sub);
        for m in 0..m_ant {
            let start = ys.len();
            ys.extend((0..n_sub).map(|n| csi[(m, n)].arg()));
            slice_unwrap(&mut ys[start..]);
            xs.extend((0..n_sub).map(|n| n as f64));
        }
        let (slope, intercept) = slice_linear_fit(&xs, &ys)?;
        let sto = -slope / (2.0 * std::f64::consts::PI * f_delta);
        let mut out = csi.clone();
        for n in 0..n_sub {
            let corr = c64::cis(-slope * n as f64);
            for m in 0..m_ant {
                out[(m, n)] *= corr;
            }
        }
        Some(((slope, intercept), sto, out))
    }

    #[test]
    fn streamed_fit_is_bitwise_the_collected_fit() {
        // Seeded multipath CSI whose phases wrap many times across the
        // band (ToFs up to 600 ns, plus an STO of up to 400 ns, turn the
        // phase by up to ~6 rad per subcarrier), at several array shapes:
        // the fit streamed through the unwrap must give the collected
        // fit's slope and intercept, STO estimate and sanitized CSI, bit
        // for bit.
        let bits = |m: &CMat| -> Vec<(u64, u64)> {
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        let mut rng = spotfi_channel::Rng::seed_from_u64(0x5A41);
        for (m_ant, n_sub) in [(3, 30), (1, 2), (2, 57), (4, 30)] {
            for packet in 0..12 {
                let paths: Vec<(f64, f64, c64)> = (0..1 + packet % 5)
                    .map(|_| {
                        (
                            rng.gen_range(-3.0..3.0),
                            rng.gen_range(0.0..600e-9),
                            c64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                        )
                    })
                    .collect();
                let sto = rng.gen_range(-400e-9..400e-9);
                let csi = CMat::from_fn(m_ant, n_sub, |m, n| {
                    let mut h = c64::ZERO;
                    for &(phi, tau, a) in &paths {
                        let turn = -2.0 * std::f64::consts::PI * F_DELTA * (tau + sto) * n as f64;
                        h += a * c64::cis(turn - phi * m as f64);
                    }
                    h
                });
                let what = format!("{m_ant} × {n_sub}, packet {packet}");
                let (fit, want_sto, want_csi) =
                    collected_sanitize(&csi, F_DELTA).expect("a fit over distinct subcarriers");
                let streamed = linear_fit(pooled_phases(&csi)).expect("the same fit");
                assert_eq!(streamed.0.to_bits(), fit.0.to_bits(), "slope, {what}");
                assert_eq!(streamed.1.to_bits(), fit.1.to_bits(), "intercept, {what}");
                let got = sanitize_csi(&csi, F_DELTA).unwrap();
                assert_eq!(got.estimated_sto_s.to_bits(), want_sto.to_bits(), "{what}");
                assert_eq!(bits(&got.csi), bits(&want_csi), "{what}");
            }
        }
        // The degenerate-denominator rejection: too few points, one
        // repeated x, x values too close for the denominator to clear its
        // relative floor, and values just past it, each with the slice
        // fit's outcome.
        let cases: [&[(f64, f64)]; 6] = [
            &[],
            &[(1.0, 2.0)],
            &[(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)],
            &[(1.0, 0.0), (1.0 + 1e-13, 1.0)],
            &[(1.0, 0.0), (1.0 + 1e-5, 1.0)],
            &[(0.0, -0.0), (1.0, -0.0), (2.0, -0.0)],
        ];
        for points in cases {
            let (x, y): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
            let want = slice_linear_fit(&x, &y).map(|(a, b)| (a.to_bits(), b.to_bits()));
            let got = linear_fit(points.iter().copied()).map(|(a, b)| (a.to_bits(), b.to_bits()));
            assert_eq!(got, want, "{points:?}");
        }
        assert!(linear_fit([(1.0, 0.0), (1.0 + 1e-13, 1.0)]).is_none());
        assert!(sanitize_csi(&CMat::from_fn(3, 1, |_, _| c64::ONE), F_DELTA).is_err());
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
