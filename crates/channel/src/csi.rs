//! CSI synthesis from traced paths.
//!
//! The channel frequency response measured at antenna `m`, subcarrier `n` is
//! the superposition over propagation paths `k`:
//!
//! ```text
//! h[m][n] = Σ_k g_k · e^{jφ_k} · e^{−j·2π·f_n·τ_k} · e^{−j·2π·d·m·sin θ_k·f_c/c}
//! ```
//!
//! where `f_n` is the absolute subcarrier frequency. Expanding
//! `f_n = f_0 + n·f_δ` shows this is exactly the paper's model: a per-path
//! complex gain `γ_k = g_k·e^{jφ_k}·e^{−j2π f_0 τ_k}` times
//! `Ω(τ_k)^n · Φ(θ_k)^m` (Eqs. 1, 6, 7). [`synthesize_csi`] evaluates it in
//! that form: `γ_k` (one `cis` of `φ_k − 2π f_0 τ_k`), `Ω(τ_k)` and
//! `Φ(θ_k)` once per path, then one multiply by `Ω(τ_k)` per subcarrier and
//! by `Φ(θ_k)` per antenna. Four paths' `Ω` recurrences run interleaved,
//! and each antenna's row of subcarriers accumulates in separate real and
//! imaginary arrays, so the innermost loop runs across subcarriers in SIMD
//! lanes; every entry still sums its paths in order. It agrees with the
//! per-entry formula within a derived rounding bound (the argument
//! rounding of `2π·f_n·τ_k` plus the recurrence depth; see the tests), not
//! bit for bit. The estimator is given only the resulting matrix — it
//! shares no code or hidden state with this synthesis.

use crate::array::AntennaArray;
use crate::constants::SPEED_OF_LIGHT;
use crate::ofdm::OfdmConfig;
use crate::raytrace::Path;
use spotfi_math::{c64, CMat};

/// Paths whose `Ω(τ_k)ⁿ` recurrences run side by side: independent
/// chains of complex products that overlap instead of each waiting out the
/// previous product's latency.
const PATH_LANES: usize = 4;

/// Synthesizes the ideal (impairment-free) CSI matrix
/// (`num_antennas × num_subcarriers`) for the given paths.
pub fn synthesize_csi(paths: &[Path], array: &AntennaArray, ofdm: &OfdmConfig) -> CMat {
    let m_ant = array.num_antennas;
    let n_sub = ofdm.num_subcarriers;
    // h's real and imaginary parts, one row of subcarriers per antenna, so
    // the innermost loop runs along a row.
    let mut re = vec![0.0; m_ant * n_sub];
    let mut im = vec![0.0; m_ant * n_sub];
    // γ_k·Ω(τ_k)^n, one row of subcarriers per path of the current group.
    let mut g_re = vec![0.0; PATH_LANES * n_sub];
    let mut g_im = vec![0.0; PATH_LANES * n_sub];

    for group in paths.chunks(PATH_LANES) {
        // γ_k at the first subcarrier (path phase and ToF phase in one
        // `cis`), then one Ω(τ_k) step per subcarrier.
        let mut gamma = [c64::ZERO; PATH_LANES];
        let mut omega = [c64::ZERO; PATH_LANES];
        for ((g, w), path) in gamma.iter_mut().zip(&mut omega).zip(group) {
            let tof_phase_0 = -2.0 * std::f64::consts::PI * ofdm.subcarrier_freq(0) * path.tof_s;
            *g = c64::from_polar(path.amplitude, path.phase + tof_phase_0);
            *w = c64::cis(-2.0 * std::f64::consts::PI * ofdm.subcarrier_spacing_hz * path.tof_s);
        }
        for n in 0..n_sub {
            for (lane, (g, w)) in gamma.iter_mut().zip(&omega).enumerate() {
                g_re[lane * n_sub + n] = g.re;
                g_im[lane * n_sub + n] = g.im;
                *g *= *w;
            }
        }
        // Each path's rows enter h in path order, stepping Φ(θ_k)^m by one
        // Φ per antenna: three `cis` per path in all, none per subcarrier
        // or antenna.
        for (lane, path) in group.iter().enumerate() {
            // Per-antenna spatial phase increment at the carrier:
            // −2π·d·sinθ·f_c/c per antenna step (paper Eq. 1).
            let spatial_step =
                -2.0 * std::f64::consts::PI * array.spacing * path.sin_aoa * ofdm.carrier_hz
                    / SPEED_OF_LIGHT;
            let phi = c64::cis(spatial_step);
            let lane = lane * n_sub..(lane + 1) * n_sub;
            let (lane_re, lane_im) = (&g_re[lane.clone()], &g_im[lane]);
            let mut phasor = c64::ONE;
            for m in 0..m_ant {
                let row = m * n_sub..(m + 1) * n_sub;
                let h_row = re[row.clone()].iter_mut().zip(&mut im[row]);
                for ((r, i), (a, b)) in h_row.zip(lane_re.iter().zip(lane_im)) {
                    // The real and imaginary parts of `γ_k·Ω(τ_k)^n · Φ(θ_k)^m`.
                    *r += a * phasor.re - b * phasor.im;
                    *i += a * phasor.im + b * phasor.re;
                }
                phasor *= phi;
            }
        }
    }
    CMat::from_fn(m_ant, n_sub, |m, n| {
        c64::new(re[m * n_sub + n], im[m * n_sub + n])
    })
}

/// The gap between `|x|` and the next larger `f64`: the unit the
/// synthesis oracles state their argument-rounding bounds in.
#[cfg(test)]
pub(crate) fn ulp(x: f64) -> f64 {
    let x = x.abs();
    f64::from_bits(x.to_bits() + 1) - x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::raytrace::PathKind;

    fn test_array() -> AntennaArray {
        AntennaArray::intel5300(
            Point::new(0.0, 0.0),
            std::f64::consts::FRAC_PI_2,
            crate::constants::DEFAULT_CARRIER_HZ,
        )
    }

    fn make_path(tof_ns: f64, aoa_deg: f64, amplitude: f64) -> Path {
        let aoa = aoa_deg.to_radians();
        Path {
            kind: PathKind::Direct,
            length_m: tof_ns * 1e-9 * SPEED_OF_LIGHT,
            tof_s: tof_ns * 1e-9,
            sin_aoa: aoa.sin(),
            aoa_rad: aoa,
            amplitude,
            phase: 0.0,
            vertices: vec![],
        }
    }

    /// Eq. 1 evaluated entry by entry, every phasor from its own `cis`:
    /// the reference the recurrence is checked against.
    fn naive_synthesis(paths: &[Path], array: &AntennaArray, ofdm: &OfdmConfig) -> CMat {
        let mut h = CMat::zeros(array.num_antennas, ofdm.num_subcarriers);
        for path in paths {
            let spatial_step =
                -2.0 * std::f64::consts::PI * array.spacing * path.sin_aoa * ofdm.carrier_hz
                    / SPEED_OF_LIGHT;
            let gain = c64::from_polar(path.amplitude, path.phase);
            for n in 0..ofdm.num_subcarriers {
                let tof_phase = -2.0 * std::f64::consts::PI * ofdm.subcarrier_freq(n) * path.tof_s;
                let per_subcarrier = gain * c64::cis(tof_phase);
                for m in 0..array.num_antennas {
                    h[(m, n)] += per_subcarrier * c64::cis(spatial_step * m as f64);
                }
            }
        }
        h
    }

    /// Per-entry bound on `|recurrence − naive|`:
    /// `Σ_k |γ_k|·(4·ulp(2π·f_max·τ_k) + 8·N·ε)`.
    ///
    /// The first term is the argument rounding: each side rounds
    /// `2π·f·τ_k` (~10⁴ rad) about 1.5 ulp away from the exact phase before
    /// `cis` reduces it; the recurrence's `Ω` argument spans only `f_δ`, so
    /// its error, multiplied by `n`, stays far below one ulp of the full
    /// phase. Folding the path phase `φ_k` into γ_k's argument adds one
    /// more rounding of the sum: half an ulp of the ToF phase when that
    /// phase dominates (1.5 + 0.5 + 1.5 ≤ 4 ulp), else at most half an ulp
    /// of `φ_k` (≤ 2ε), which the second term absorbs. The second is the
    /// recurrence depth: each of the `N − 1` steps adds one complex product
    /// (≤ √5·ε/2 relative) and `Ω`'s own `cis` error (≤ ε), about 2.2·ε per
    /// step. The antenna phasors `Φ(θ_k)^m` are a recurrence too: `M − 1`
    /// steps of the same 2.2·ε, against an oracle that rounds its argument
    /// `m·(spatial step)` (below `M·π` rad, so within 4·ε for `M ≤ 4`)
    /// before its `cis`; together under 12·ε, well inside `8·N·ε`.
    /// The remaining constant-depth products and the path accumulation
    /// (≤ ε·Σ|γ| per added path on each side) fit in the slack while the
    /// path count stays below ~3·N.
    fn synthesis_bound(paths: &[Path], ofdm: &OfdmConfig) -> f64 {
        let f_max = ofdm.subcarrier_freq(ofdm.num_subcarriers - 1);
        let depth = 8.0 * ofdm.num_subcarriers as f64 * f64::EPSILON;
        paths
            .iter()
            .map(|p| {
                let phase = 2.0 * std::f64::consts::PI * f_max * p.tof_s;
                p.amplitude * (4.0 * ulp(phase) + depth)
            })
            .sum()
    }

    /// Worst `|recurrence − naive| / bound` over the matrix.
    fn worst_bound_ratio(paths: &[Path], array: &AntennaArray, ofdm: &OfdmConfig) -> f64 {
        let fast = synthesize_csi(paths, array, ofdm);
        let slow = naive_synthesis(paths, array, ofdm);
        assert_eq!(fast.shape(), slow.shape());
        let bound = synthesis_bound(paths, ofdm);
        fast.as_slice()
            .iter()
            .zip(slow.as_slice())
            .map(|(a, b)| (*a - *b).abs() / bound)
            .fold(0.0, f64::max)
    }

    #[test]
    fn recurrence_matches_naive_synthesis_within_rounding_bound() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let mut fixture = vec![
            make_path(18.0, 12.0, 1.0),
            make_path(31.5, -47.0, 0.45),
            make_path(52.25, 63.0, 0.2),
            make_path(77.0, -8.5, 0.07),
        ];
        for (k, p) in fixture.iter_mut().enumerate() {
            p.phase = 0.9 * k as f64 - 1.3;
        }
        for m_ant in [1, 3, 4] {
            let array = AntennaArray {
                num_antennas: m_ant,
                ..test_array()
            };
            let ratio = worst_bound_ratio(&fixture, &array, &ofdm);
            assert!(ratio <= 1.0, "{m_ant} antennas: {ratio} × bound");
        }
        // Random 32-path channels out to the 400 ns the ray tracer reaches.
        let mut rng = crate::rng::Rng::seed_from_u64(0x5EED_0C51);
        let array = test_array();
        for set in 0..200 {
            let paths: Vec<Path> = (0..32)
                .map(|_| {
                    let mut p = make_path(
                        rng.gen_range(0.0..400.0),
                        rng.gen_range(-90.0..90.0),
                        rng.gen_range(0.01..1.0),
                    );
                    p.phase = crate::rng::uniform_phase(&mut rng);
                    p
                })
                .collect();
            let ratio = worst_bound_ratio(&paths, &array, &ofdm);
            assert!(ratio <= 1.0, "path set {set}: {ratio} × bound");
        }
    }

    #[test]
    fn dimensions_match_config() {
        let h = synthesize_csi(
            &[make_path(20.0, 10.0, 1.0)],
            &test_array(),
            &OfdmConfig::intel5300_40mhz(),
        );
        assert_eq!(h.shape(), (3, 30));
    }

    #[test]
    fn single_path_has_unit_modulus_structure() {
        let h = synthesize_csi(
            &[make_path(35.0, -20.0, 0.7)],
            &test_array(),
            &OfdmConfig::intel5300_40mhz(),
        );
        // All entries have the path amplitude as modulus.
        for n in 0..30 {
            for m in 0..3 {
                assert!((h[(m, n)].abs() - 0.7).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn subcarrier_phase_ramp_encodes_tof() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let tof_ns = 50.0;
        let h = synthesize_csi(&[make_path(tof_ns, 0.0, 1.0)], &test_array(), &ofdm);
        // Phase difference between adjacent subcarriers = −2π·f_δ·τ (Eq. 6).
        let expected = -2.0 * std::f64::consts::PI * ofdm.subcarrier_spacing_hz * tof_ns * 1e-9;
        for n in 1..30 {
            let d = (h[(0, n)] * h[(0, n - 1)].conj()).arg();
            let diff = spotfi_math::wrap_pi(d - expected);
            assert!(diff.abs() < 1e-9, "subcarrier {}: {}", n, diff);
        }
    }

    #[test]
    fn antenna_phase_encodes_aoa() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let arr = test_array();
        let aoa_deg = 30.0;
        let h = synthesize_csi(&[make_path(20.0, aoa_deg, 1.0)], &arr, &ofdm);
        let expected = -2.0
            * std::f64::consts::PI
            * arr.spacing
            * aoa_deg.to_radians().sin()
            * ofdm.carrier_hz
            / SPEED_OF_LIGHT;
        for n in 0..30 {
            for m in 1..3 {
                let d = (h[(m, n)] * h[(m - 1, n)].conj()).arg();
                let diff = spotfi_math::wrap_pi(d - expected);
                assert!(diff.abs() < 1e-9, "({}, {}): {}", m, n, diff);
            }
        }
    }

    #[test]
    fn aoa_phase_constant_across_subcarriers() {
        // The paper's key observation: AoA introduces (essentially) no
        // differential phase across subcarriers; in our synthesis the
        // antenna step is evaluated at the carrier, so it is exactly
        // constant.
        let h = synthesize_csi(
            &[make_path(0.0, 42.0, 1.0)],
            &test_array(),
            &OfdmConfig::intel5300_40mhz(),
        );
        let first = (h[(1, 0)] * h[(0, 0)].conj()).arg();
        for n in 1..30 {
            let d = (h[(1, n)] * h[(0, n)].conj()).arg();
            assert!((d - first).abs() < 1e-12);
        }
    }

    #[test]
    fn superposition_is_linear() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let arr = test_array();
        let p1 = make_path(20.0, 10.0, 1.0);
        let p2 = make_path(45.0, -35.0, 0.5);
        let h1 = synthesize_csi(std::slice::from_ref(&p1), &arr, &ofdm);
        let h2 = synthesize_csi(std::slice::from_ref(&p2), &arr, &ofdm);
        let h12 = synthesize_csi(&[p1, p2], &arr, &ofdm);
        let sum = &h1 + &h2;
        assert!((&h12 - &sum).max_abs() < 1e-12);
    }

    #[test]
    fn interaction_phase_rotates_gain() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let arr = test_array();
        let mut p = make_path(20.0, 10.0, 1.0);
        let h0 = synthesize_csi(&[p.clone()], &arr, &ofdm);
        p.phase = std::f64::consts::FRAC_PI_2;
        let h90 = synthesize_csi(&[p], &arr, &ofdm);
        // Rotating the path phase rotates every CSI entry by the same angle.
        let rot = (h90[(0, 0)] / h0[(0, 0)]).arg();
        assert!((rot - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((h90[(2, 17)] / h0[(2, 17)]).arg() - rot < 1e-12);
    }
}
