//! MUSIC-AoA: antenna-only MUSIC (paper Sec. 3.1.1 / Fig. 8a's baseline).
//!
//! This is the AoA estimator of Phaser's localization application — the
//! paper's "practical implementation of ArrayTrack" on a 3-antenna NIC.
//! Each subcarrier's 3×1 CSI column is a covariance snapshot; the steering
//! model contains only the inter-antenna phase `Φ(θ)` (AoA introduces no
//! measurable phase across subcarriers, Sec. 3.1.2).
//!
//! With M antennas the signal subspace can hold at most M − 1 paths, so in
//! a 6–8-path indoor channel this estimator is fundamentally
//! under-resolved — exactly the deficiency SpotFi's joint AoA/ToF estimator
//! fixes.

use spotfi_channel::CsiPacket;
use spotfi_core::config::GridSpec;
use spotfi_core::error::{Result, SpotFiError};
use spotfi_core::steering::phi;
use spotfi_math::{c64, hermitian_eigen_partial, CMat};

/// Configuration of the MUSIC-AoA baseline.
#[derive(Clone, Copy, Debug)]
pub struct MusicAoaConfig {
    /// AoA grid, degrees.
    pub aoa_grid_deg: GridSpec,
    /// Maximum signal-subspace dimension (≤ antennas − 1).
    pub max_paths: usize,
    /// Eigenvalue threshold ratio for the noise subspace.
    pub noise_threshold_ratio: f64,
    /// Carrier frequency, Hz (for the steering phase).
    pub carrier_hz: f64,
    /// Antenna spacing, meters.
    pub spacing_m: f64,
}

impl MusicAoaConfig {
    /// Defaults matching the paper's comparison: 1° grid, Intel 5300
    /// geometry.
    pub fn intel5300() -> Self {
        let carrier = spotfi_channel::constants::DEFAULT_CARRIER_HZ;
        MusicAoaConfig {
            aoa_grid_deg: GridSpec::new(-90.0, 90.0, 1.0),
            max_paths: 2,
            noise_threshold_ratio: 0.03,
            carrier_hz: carrier,
            spacing_m: spotfi_channel::constants::half_wavelength_spacing(carrier),
        }
    }
}

/// A 1-D AoA pseudospectrum.
#[derive(Clone, Debug)]
pub struct MusicAoaSpectrum {
    /// The AoA grid, degrees.
    pub aoa_grid_deg: GridSpec,
    /// Pseudospectrum values over the grid.
    pub values: Vec<f64>,
}

impl MusicAoaSpectrum {
    /// Local maxima as `(aoa_deg, value)` pairs, strongest first, up to
    /// `max_peaks`.
    pub fn peaks(&self, max_peaks: usize) -> Vec<(f64, f64)> {
        let n = self.values.len();
        let mut out = Vec::new();
        for i in 0..n {
            let v = self.values[i];
            let left_ok = i == 0 || self.values[i - 1] < v;
            let right_ok = i + 1 == n || self.values[i + 1] <= v;
            // Boundary points count only if strictly above their neighbor.
            let interior = i > 0 && i + 1 < n;
            if left_ok && right_ok && (interior || n > 1) {
                out.push((self.aoa_grid_deg.value(i), v));
            }
        }
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        out.truncate(max_peaks);
        out
    }

    /// Spectrum value at an arbitrary AoA by linear interpolation (used by
    /// the ArrayTrack localizer).
    pub fn value_at_deg(&self, aoa_deg: f64) -> f64 {
        let g = self.aoa_grid_deg;
        let pos = ((aoa_deg - g.min) / g.step).clamp(0.0, (g.len() - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.values[lo]
        } else {
            let w = pos - lo as f64;
            self.values[lo] * (1.0 - w) + self.values[hi] * w
        }
    }
}

/// Computes the MUSIC-AoA pseudospectrum of one packet's CSI
/// (`antennas × subcarriers`).
pub fn music_aoa_spectrum(csi: &CMat, cfg: &MusicAoaConfig) -> Result<MusicAoaSpectrum> {
    let (m_ant, n_sub) = csi.shape();
    if m_ant < 2 || n_sub == 0 {
        return Err(SpotFiError::DegenerateCsi);
    }
    if !csi.as_slice().iter().all(|z| z.is_finite()) {
        return Err(SpotFiError::DegenerateCsi);
    }

    // Covariance across subcarrier snapshots.
    let dim = m_ant;
    let r = csi.mul_hermitian_self();

    // Keep at least one noise vector: the signal subspace never exceeds
    // dim − 1, so only that many eigenvectors are needed.
    let max_signal = cfg.max_paths.min(dim - 1).max(1);
    let eig = hermitian_eigen_partial(&r, max_signal);
    let lmax = eig.values[0].max(0.0);
    if lmax <= 0.0 {
        return Err(SpotFiError::DegenerateCsi);
    }
    let threshold = cfg.noise_threshold_ratio * lmax;
    let by_threshold = eig.values.iter().filter(|&&l| l >= threshold).count();
    let signal = by_threshold.min(max_signal).max(1);

    // Noise projector as the signal-subspace complement G = I − E_S·E_Sᴴ.
    let mut g = CMat::identity(dim);
    for k in 0..signal {
        let v = eig.vectors.col(k);
        for j in 0..dim {
            let vj = v[j].conj();
            for i in 0..dim {
                g[(i, j)] -= v[i] * vj;
            }
        }
    }

    let grid = cfg.aoa_grid_deg;
    let values: Vec<f64> = (0..grid.len())
        .map(|i| {
            let theta = grid.value(i).to_radians();
            let step = phi(theta.sin(), cfg.spacing_m, cfg.carrier_hz);
            let mut a = Vec::with_capacity(dim);
            let mut cur = c64::ONE;
            for _ in 0..dim {
                a.push(cur);
                cur *= step;
            }
            1.0 / g.quadratic_form(&a).re.max(1e-12)
        })
        .collect();

    Ok(MusicAoaSpectrum {
        aoa_grid_deg: grid,
        values,
    })
}

/// The packet-averaged spectrum: the mean of the per-packet spectra, each
/// normalized to its own maximum so one high-SNR packet doesn't dominate.
/// Packets whose spectrum can't be estimated are skipped; `None` if none
/// is left.
pub fn averaged_spectrum(packets: &[CsiPacket], cfg: &MusicAoaConfig) -> Option<MusicAoaSpectrum> {
    let mut sum: Option<Vec<f64>> = None;
    let mut used = 0usize;
    for p in packets {
        let Ok(spec) = music_aoa_spectrum(&p.csi, cfg) else {
            continue;
        };
        let max = spec
            .values
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max)
            .max(1e-12);
        match &mut sum {
            None => sum = Some(spec.values.iter().map(|v| v / max).collect()),
            Some(s) => {
                for (acc, v) in s.iter_mut().zip(&spec.values) {
                    *acc += v / max;
                }
            }
        }
        used += 1;
    }
    Some(MusicAoaSpectrum {
        aoa_grid_deg: cfg.aoa_grid_deg,
        values: sum?.iter().map(|v| v / used as f64).collect(),
    })
}

/// AoAs of the [`averaged_spectrum`]'s peaks, strongest first, up to
/// `cfg.max_paths`; empty if no packet yields a spectrum.
pub fn averaged_peaks(packets: &[CsiPacket], cfg: &MusicAoaConfig) -> Vec<f64> {
    averaged_spectrum(packets, cfg).map_or_else(Vec::new, |spec| {
        spec.peaks(cfg.max_paths)
            .into_iter()
            .map(|(aoa, _)| aoa)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotfi_channel::constants::INTEL5300_SUBCARRIER_SPACING_HZ;
    use spotfi_core::steering::steering_vector;

    fn cfg() -> MusicAoaConfig {
        MusicAoaConfig::intel5300()
    }

    /// CSI with paths at (aoa_deg, tof_ns, gain) built from the joint
    /// steering model — the ToF ramp decorrelates paths across subcarriers.
    fn csi_for_paths(paths: &[(f64, f64, c64)]) -> CMat {
        let c = cfg();
        let mut csi = CMat::zeros(3, 30);
        for &(aoa, tof, gain) in paths {
            let v = steering_vector(
                aoa.to_radians().sin(),
                tof * 1e-9,
                3,
                30,
                c.spacing_m,
                c.carrier_hz,
                INTEL5300_SUBCARRIER_SPACING_HZ,
            );
            for m in 0..3 {
                for n in 0..30 {
                    csi[(m, n)] += v[m * 30 + n] * gain;
                }
            }
        }
        csi
    }

    /// The spectrum built the textbook way: the full eigenbasis, the same
    /// signal-count rule, and `G = Σ v_k·v_kᴴ` over the noise vectors.
    fn textbook_spectrum(csi: &CMat, c: &MusicAoaConfig) -> Vec<f64> {
        let r = csi.mul_hermitian_self();
        let dim = r.rows();
        let eig = hermitian_eigen_partial(&r, dim);
        let threshold = c.noise_threshold_ratio * eig.values[0];
        let by_threshold = eig.values.iter().filter(|&&l| l >= threshold).count();
        let signal = by_threshold.min(c.max_paths).min(dim - 1).max(1);
        let mut g = CMat::zeros(dim, dim);
        for k in signal..dim {
            let v = eig.vectors.col(k);
            for j in 0..dim {
                for i in 0..dim {
                    g[(i, j)] += v[i] * v[j].conj();
                }
            }
        }
        let grid = c.aoa_grid_deg;
        (0..grid.len())
            .map(|i| {
                let a = steering_vector(
                    grid.value(i).to_radians().sin(),
                    0.0,
                    dim,
                    1,
                    c.spacing_m,
                    c.carrier_hz,
                    INTEL5300_SUBCARRIER_SPACING_HZ,
                );
                1.0 / g.quadratic_form(&a).re.max(1e-12)
            })
            .collect()
    }

    #[test]
    fn spectrum_matches_the_textbook_noise_projector() {
        let fixtures: [&[(f64, f64, c64)]; 3] = [
            &[(25.0, 40.0, c64::ONE)],
            &[(-40.0, 20.0, c64::ONE), (35.0, 150.0, c64::ONE)],
            &[
                (-60.0, 15.0, c64::ONE),
                (-25.0, 60.0, c64::new(0.8, 0.2)),
                (5.0, 110.0, c64::new(0.0, 0.9)),
                (35.0, 170.0, c64::new(-0.6, 0.3)),
                (65.0, 230.0, c64::new(0.5, -0.5)),
            ],
        ];
        for paths in fixtures {
            let csi = csi_for_paths(paths);
            let spec = music_aoa_spectrum(&csi, &cfg()).unwrap();
            let want = textbook_spectrum(&csi, &cfg());
            assert_eq!(spec.values.len(), want.len());
            for (i, (got, want)) in spec.values.iter().zip(&want).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs(),
                    "{} paths, {}°: {} vs textbook {}",
                    paths.len(),
                    spec.aoa_grid_deg.value(i),
                    got,
                    want
                );
            }
        }
    }

    #[test]
    fn single_path_peak_at_truth() {
        let csi = csi_for_paths(&[(25.0, 40.0, c64::ONE)]);
        let spec = music_aoa_spectrum(&csi, &cfg()).unwrap();
        let peak = spec.peaks(1)[0].0;
        assert!((peak - 25.0).abs() <= 2.0, "{}", peak);
    }

    #[test]
    fn works_without_smoothing_for_incoherent_paths() {
        let c = cfg();
        // Two paths with very different ToFs decorrelate across subcarrier
        // snapshots, so even unsmoothed 3-antenna MUSIC sees them.
        let csi = csi_for_paths(&[(-40.0, 20.0, c64::ONE), (35.0, 150.0, c64::ONE)]);
        let spec = music_aoa_spectrum(&csi, &c).unwrap();
        let peaks = spec.peaks(2);
        assert_eq!(peaks.len(), 2);
        let mut aoas: Vec<f64> = peaks.iter().map(|p| p.0).collect();
        aoas.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((aoas[0] + 40.0).abs() < 4.0, "{:?}", aoas);
        assert!((aoas[1] - 35.0).abs() < 4.0, "{:?}", aoas);
    }

    #[test]
    fn under_resolved_with_many_paths() {
        // Five paths with only 3 antennas: MUSIC-AoA cannot resolve them
        // all; this documents the baseline's fundamental limitation (the
        // reason SpotFi exists). The spectrum has at most 2 usable peaks.
        let csi = csi_for_paths(&[
            (-60.0, 15.0, c64::ONE),
            (-25.0, 60.0, c64::new(0.8, 0.2)),
            (5.0, 110.0, c64::new(0.0, 0.9)),
            (35.0, 170.0, c64::new(-0.6, 0.3)),
            (65.0, 230.0, c64::new(0.5, -0.5)),
        ]);
        let spec = music_aoa_spectrum(&csi, &cfg()).unwrap();
        let peaks = spec.peaks(5);
        // It should NOT find 5 distinct accurate peaks.
        let accurate = [-60.0, -25.0, 5.0, 35.0, 65.0]
            .iter()
            .filter(|&&truth| peaks.iter().any(|p| (p.0 - truth).abs() < 3.0))
            .count();
        assert!(
            accurate < 5,
            "3-antenna MUSIC should not resolve 5 paths, but found all"
        );
    }

    #[test]
    fn value_at_interpolates() {
        let csi = csi_for_paths(&[(0.0, 50.0, c64::ONE)]);
        let spec = music_aoa_spectrum(&csi, &cfg()).unwrap();
        let exact = spec.value_at_deg(10.0);
        let idx = ((10.0 - spec.aoa_grid_deg.min) / spec.aoa_grid_deg.step) as usize;
        assert!((exact - spec.values[idx]).abs() < 1e-9);
        // Interpolated value between grid points lies between neighbors.
        let mid = spec.value_at_deg(10.5);
        let (a, b) = (spec.values[idx], spec.values[idx + 1]);
        assert!(mid >= a.min(b) - 1e-12 && mid <= a.max(b) + 1e-12);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(music_aoa_spectrum(&CMat::zeros(3, 30), &cfg()).is_err());
        assert!(music_aoa_spectrum(&CMat::zeros(1, 30), &cfg()).is_err());
    }

    #[test]
    fn coherent_paths_defeat_three_antenna_music() {
        // Two paths with the *same* ToF are fully coherent across
        // subcarriers: every snapshot is the same antenna vector up to a
        // scale, so the covariance has one signal dimension and the two
        // paths cannot both be resolved. The estimator must still return a
        // finite spectrum whose peak lies in the angular span between the
        // two paths (a blended bearing), not crash or return garbage.
        let csi = csi_for_paths(&[(-30.0, 80.0, c64::ONE), (40.0, 80.0, c64::ONE)]);
        let spec = music_aoa_spectrum(&csi, &cfg()).unwrap();
        assert!(spec.values.iter().all(|v| v.is_finite() && *v > 0.0));
        let peak = spec.peaks(1)[0].0;
        assert!((-90.0..=90.0).contains(&peak), "peak {} out of range", peak);
        // This limitation is exactly why the paper needs joint AoA/ToF
        // estimation: document that the coherent case is NOT resolved.
        let both_resolved = {
            let peaks = spec.peaks(2);
            peaks.len() == 2
                && peaks.iter().any(|p| (p.0 + 30.0).abs() < 3.0)
                && peaks.iter().any(|p| (p.0 - 40.0).abs() < 3.0)
        };
        assert!(
            !both_resolved,
            "3-antenna MUSIC should not resolve coherent paths"
        );
    }
}
