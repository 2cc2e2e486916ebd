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
//! `Ω(τ_k)^n · Φ(θ_k)^m` (Eqs. 1, 6, 7). [`synthesize_into`] evaluates it in
//! that form: `γ_k` (one `cis` of `φ_k − 2π f_0 τ_k`), `Ω(τ_k)` and
//! `Φ(θ_k)` once per path, then one multiply by `Ω(τ_k)` per subcarrier and
//! by `Φ(θ_k)` per antenna.
//!
//! This one allocation-free kernel synthesizes every packet the simulator
//! generates. It fills tiles of up to 4 antennas × 32 subcarriers held in
//! fixed-size stack arrays; the Intel 5300's 3 × 30 grid is one tile, its
//! rows padded to 32 so that the row loops have no vector remainder. Four paths' `Ω` recurrences run interleaved into a
//! block of rows, then each antenna's accumulator row takes all four paths'
//! terms, in path order, in one pass. A packet's STO ramp and carrier phase
//! ([`crate::impairments`]) are applied as the tile is written into the
//! output matrix. Every entry's sum and rotation are the same operations,
//! in the same order, as adding the paths one at a time and then rotating
//! the finished matrix, so the output does not depend on the tiling. It
//! agrees with the per-entry formula within a derived rounding bound (the
//! argument rounding of `2π·f_n·τ_k` plus the recurrence depth; see the
//! tests), not bit for bit. The estimator is given only the resulting
//! matrix — it shares no code or hidden state with this synthesis.

use crate::array::AntennaArray;
use crate::constants::SPEED_OF_LIGHT;
use crate::impairments::Rotation;
use crate::ofdm::OfdmConfig;
use crate::raytrace::Path;
use spotfi_math::{c64, CMat};

/// Subcarriers per accumulator row: the Intel 5300's 30 padded to a whole
/// number of SIMD vectors. A wider grid is synthesized in blocks of this
/// many subcarriers.
pub(crate) const ROW: usize = 32;

/// Antenna rows one tile accumulates; a larger array is synthesized in
/// tiles of this many rows.
const TILE_ANTENNAS: usize = 4;

/// Paths whose `Ω(τ_k)ⁿ` recurrences run side by side (independent chains
/// of complex products that overlap instead of each waiting out the
/// previous product's latency), and whose terms one pass over an
/// accumulator row adds.
const PATH_LANES: usize = 4;

/// The synthesis kernel: writes the CSI of `paths`, each entry rotated by
/// `rotation`, into `out` (`num_antennas × num_subcarriers`).
pub(crate) fn synthesize_into(
    paths: &[Path],
    array: &AntennaArray,
    ofdm: &OfdmConfig,
    rotation: &Rotation,
    out: &mut CMat,
) {
    let (m_ant, n_sub) = (array.num_antennas, ofdm.num_subcarriers);
    assert_eq!(out.shape(), (m_ant, n_sub), "CSI matrix shape");
    let mut rows = GroupRows {
        re: [[0.0; ROW]; PATH_LANES],
        im: [[0.0; ROW]; PATH_LANES],
    };
    let mut ramp = rotation.ramp();
    for n0 in (0..n_sub).step_by(ROW) {
        let width = ROW.min(n_sub - n0);
        let ramp = ramp.next_block();
        for m0 in (0..m_ant).step_by(TILE_ANTENNAS) {
            let height = TILE_ANTENNAS.min(m_ant - m0);
            let mut tile = Tile {
                re: [[0.0; ROW]; TILE_ANTENNAS],
                im: [[0.0; ROW]; TILE_ANTENNAS],
            };
            let at = TileOrigin {
                n0,
                width,
                m0,
                height,
            };
            for group in paths.chunks(PATH_LANES) {
                match group.len() {
                    4 => add_group::<4>(group, array, ofdm, &at, &mut rows, &mut tile),
                    3 => add_group::<3>(group, array, ofdm, &at, &mut rows, &mut tile),
                    2 => add_group::<2>(group, array, ofdm, &at, &mut rows, &mut tile),
                    _ => add_group::<1>(group, array, ofdm, &at, &mut rows, &mut tile),
                }
            }
            for n in 0..width {
                for m in 0..height {
                    let h = c64::new(tile.re[m][n], tile.im[m][n]);
                    out[(m0 + m, n0 + n)] = rotation.apply(h, ramp[n]);
                }
            }
        }
    }
}

/// `γ_k·Ω(τ_k)^n` of one group of paths over one block of subcarriers, one
/// row per path. Columns past the grid's last subcarrier hold stale values
/// that only reach the tile's padding.
struct GroupRows {
    re: [[f64; ROW]; PATH_LANES],
    im: [[f64; ROW]; PATH_LANES],
}

/// The real and imaginary parts of one tile of `h`, one row of
/// subcarriers per antenna.
struct Tile {
    re: [[f64; ROW]; TILE_ANTENNAS],
    im: [[f64; ROW]; TILE_ANTENNAS],
}

/// Where a tile sits in the matrix: subcarriers `n0..n0 + width`, antennas
/// `m0..m0 + height`.
struct TileOrigin {
    n0: usize,
    width: usize,
    m0: usize,
    height: usize,
}

/// Adds the terms of the `L ≤ PATH_LANES` paths in `group` to `tile`, in
/// path order. Three `cis` per path, none per subcarrier or antenna; a tile
/// away from the matrix's origin first steps each recurrence to its corner.
#[inline(always)]
fn add_group<const L: usize>(
    group: &[Path],
    array: &AntennaArray,
    ofdm: &OfdmConfig,
    at: &TileOrigin,
    rows: &mut GroupRows,
    tile: &mut Tile,
) {
    debug_assert_eq!(group.len(), L);
    // γ_k at the first subcarrier (path phase and ToF phase in one `cis`),
    // the Ω(τ_k) step per subcarrier, and the Φ(θ_k) step per antenna:
    // −2π·d·sinθ·f_c/c, evaluated at the carrier (paper Eq. 1).
    let mut gamma = [c64::ZERO; L];
    let mut omega = [c64::ZERO; L];
    let mut phi = [c64::ZERO; L];
    for (((g, w), f), path) in gamma.iter_mut().zip(&mut omega).zip(&mut phi).zip(group) {
        let tof_phase_0 = -2.0 * std::f64::consts::PI * ofdm.subcarrier_freq(0) * path.tof_s;
        *g = c64::from_polar(path.amplitude, path.phase + tof_phase_0);
        *w = c64::cis(-2.0 * std::f64::consts::PI * ofdm.subcarrier_spacing_hz * path.tof_s);
        *f = c64::cis(
            -2.0 * std::f64::consts::PI * array.spacing * path.sin_aoa * ofdm.carrier_hz
                / SPEED_OF_LIGHT,
        );
    }
    for _ in 0..at.n0 {
        step(&mut gamma, &omega);
    }
    for n in 0..at.width {
        for ((g, re), im) in gamma.iter().zip(&mut rows.re).zip(&mut rows.im) {
            re[n] = g.re;
            im[n] = g.im;
        }
        step(&mut gamma, &omega);
    }
    let mut phasor = [c64::ONE; L];
    for _ in 0..at.m0 {
        step(&mut phasor, &phi);
    }
    for (acc_re, acc_im) in tile.re.iter_mut().zip(&mut tile.im).take(at.height) {
        for n in 0..ROW {
            let (mut r, mut i) = (acc_re[n], acc_im[n]);
            for ((re, im), p) in rows.re.iter().zip(&rows.im).zip(&phasor) {
                // The real and imaginary parts of `γ_k·Ω(τ_k)^n · Φ(θ_k)^m`.
                let (a, b) = (re[n], im[n]);
                r += a * p.re - b * p.im;
                i += a * p.im + b * p.re;
            }
            acc_re[n] = r;
            acc_im[n] = i;
        }
        step(&mut phasor, &phi);
    }
}

/// One recurrence step of every lane: `x_k ← x_k·s_k`.
#[inline(always)]
fn step<const L: usize>(x: &mut [c64; L], s: &[c64; L]) {
    for (x, s) in x.iter_mut().zip(s) {
        *x *= *s;
    }
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

    /// The ideal (impairment-free) CSI of `paths`: the kernel with no
    /// rotation.
    fn ideal_csi(paths: &[Path], array: &AntennaArray, ofdm: &OfdmConfig) -> CMat {
        let mut h = CMat::zeros(array.num_antennas, ofdm.num_subcarriers);
        synthesize_into(paths, array, ofdm, &Rotation::default(), &mut h);
        h
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
        let fast = ideal_csi(paths, array, ofdm);
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
        let h = ideal_csi(
            &[make_path(20.0, 10.0, 1.0)],
            &test_array(),
            &OfdmConfig::intel5300_40mhz(),
        );
        assert_eq!(h.shape(), (3, 30));
    }

    #[test]
    fn single_path_has_unit_modulus_structure() {
        let h = ideal_csi(
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
        let h = ideal_csi(&[make_path(tof_ns, 0.0, 1.0)], &test_array(), &ofdm);
        // Phase difference between adjacent subcarriers = −2π·f_δ·τ (Eq. 6).
        let expected = -2.0 * std::f64::consts::PI * ofdm.subcarrier_spacing_hz * tof_ns * 1e-9;
        for n in 1..30 {
            let d = (h[(0, n)] * h[(0, n - 1)].conj()).arg();
            let diff = spotfi_math::unwrap::wrap_phase(d - expected);
            assert!(diff.abs() < 1e-9, "subcarrier {}: {}", n, diff);
        }
    }

    #[test]
    fn antenna_phase_encodes_aoa() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let arr = test_array();
        let aoa_deg = 30.0;
        let h = ideal_csi(&[make_path(20.0, aoa_deg, 1.0)], &arr, &ofdm);
        let expected = -2.0
            * std::f64::consts::PI
            * arr.spacing
            * aoa_deg.to_radians().sin()
            * ofdm.carrier_hz
            / SPEED_OF_LIGHT;
        for n in 0..30 {
            for m in 1..3 {
                let d = (h[(m, n)] * h[(m - 1, n)].conj()).arg();
                let diff = spotfi_math::unwrap::wrap_phase(d - expected);
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
        let h = ideal_csi(
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
        let h1 = ideal_csi(std::slice::from_ref(&p1), &arr, &ofdm);
        let h2 = ideal_csi(std::slice::from_ref(&p2), &arr, &ofdm);
        let h12 = ideal_csi(&[p1, p2], &arr, &ofdm);
        let sum = &h1 + &h2;
        assert!((&h12 - &sum).max_abs() < 1e-12);
    }

    #[test]
    fn interaction_phase_rotates_gain() {
        let ofdm = OfdmConfig::intel5300_40mhz();
        let arr = test_array();
        let mut p = make_path(20.0, 10.0, 1.0);
        let h0 = ideal_csi(&[p.clone()], &arr, &ofdm);
        p.phase = std::f64::consts::FRAC_PI_2;
        let h90 = ideal_csi(&[p], &arr, &ofdm);
        // Rotating the path phase rotates every CSI entry by the same angle.
        let rot = (h90[(0, 0)] / h0[(0, 0)]).arg();
        assert!((rot - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((h90[(2, 17)] / h0[(2, 17)]).arg() - rot < 1e-12);
    }
}
