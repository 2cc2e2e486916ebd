//! Smoothed CSI matrix construction (paper Fig. 4).
//!
//! Plain joint AoA/ToF MUSIC on the stacked 90×1 CSI vector fails because a
//! rank-1 measurement cannot separate multiple paths. SpotFi's trick is 2-D
//! smoothing: slide a fixed sensor subarray (2 antennas × 15 subcarriers)
//! over the full 3 × 30 grid. Each shifted copy measures the *same* steering
//! vectors combined with *different* (linearly independent) gains, because a
//! shift by `(Δm, Δn)` multiplies path `k`'s gain by
//! `Φ(θ_k)^Δm · Ω(τ_k)^Δn` — a path-dependent scalar (paper Fig. 3).
//! Stacking every shift as a column produces a measurement matrix whose
//! column space has full path rank, which is what MUSIC requires.

use spotfi_math::{c64, CMat};

use crate::config::SpotFiConfig;
use crate::error::{Result, SpotFiError};
use crate::sanitize::RampRemoval;

/// Builds the smoothed CSI matrix from a (sanitized) CSI matrix.
///
/// Rows index the subarray elements antenna-major (`m_s·N_s + n_s`, matching
/// [`crate::steering::steering_vector`]); columns index the subarray shifts.
/// For the paper's 3 × 30 configuration with a 2 × 15 subarray this yields a
/// 30 × 32 matrix.
pub fn smoothed_csi(csi: &CMat, cfg: &SpotFiConfig) -> Result<CMat> {
    let mut x = CMat::zeros(0, 0);
    smoothed_csi_into(csi, cfg, &mut x)?;
    Ok(x)
}

/// [`smoothed_csi`] writing into a caller-owned buffer (resized as needed),
/// so the per-packet pipeline can reuse one allocation across packets.
pub fn smoothed_csi_into(csi: &CMat, cfg: &SpotFiConfig, out: &mut CMat) -> Result<()> {
    let _span = spotfi_obs::span("stage.smooth");
    let x = SmoothedColumns::new(csi, cfg)?;
    out.reset_zeros(x.rows(), x.cols());
    for c in 0..x.cols() {
        x.gather(c, out.col_mut(c));
    }
    Ok(())
}

/// Longest smoothed column [`SmoothedColumns::feed`] gathers on the stack
/// (the default 2 × 15 subarray has 30 rows); longer ones use one heap
/// buffer per call.
const STACK_ROWS: usize = 64;

/// A CSI matrix read as its smoothed matrix `X` (Fig. 4), one column at a
/// time, after the shape checks [`smoothed_csi`] makes. Column
/// `Δm·(N − N_s + 1) + Δn` is the subarray shifted by `Δm` antennas and
/// `Δn` subcarriers, antenna-major. [`smoothed_csi_into`] stores `X`
/// through it; the pipeline instead feeds each column straight into the
/// covariance `X·Xᴴ`, so `X` is never stored, and reads the raw CSI
/// through [`derotated`](Self::derotated), which applies Algorithm 1's
/// ramp removal to each entry as it is gathered, so the sanitized CSI is
/// never stored either.
pub(crate) struct SmoothedColumns<'a> {
    csi: &'a CMat,
    /// The ramp removal applied while gathering, if any.
    ramp: Option<RampRemoval>,
    sub_antennas: usize,
    sub_subcarriers: usize,
}

impl<'a> SmoothedColumns<'a> {
    /// Checks `csi` against `cfg`'s CSI shape and subarray.
    pub(crate) fn new(csi: &'a CMat, cfg: &SpotFiConfig) -> Result<Self> {
        let (m_ant, n_sub) = csi.shape();
        let expect = cfg.csi_shape();
        if (m_ant, n_sub) != expect {
            return Err(SpotFiError::CsiShapeMismatch {
                expected: expect,
                got: (m_ant, n_sub),
            });
        }
        let ms = cfg.smoothing.sub_antennas;
        let ns = cfg.smoothing.sub_subcarriers;
        if ms == 0 || ns == 0 || ms > m_ant || ns > n_sub {
            return Err(SpotFiError::DegenerateCsi);
        }
        Ok(SmoothedColumns {
            csi,
            ramp: None,
            sub_antennas: ms,
            sub_subcarriers: ns,
        })
    }

    /// `csi` with its phase ramp of `slope` radians per subcarrier removed
    /// ([`crate::sanitize::ramp_slope`]'s fit), read as its smoothed
    /// matrix: each gathered entry is `csi[(m, n)] * cis(−slope·n)`, the
    /// product [`crate::sanitize_csi`] stores, so the columns are bitwise
    /// those of the sanitized copy.
    pub(crate) fn derotated(csi: &'a CMat, slope: f64, cfg: &SpotFiConfig) -> Result<Self> {
        let mut x = Self::new(csi, cfg)?;
        x.ramp = Some(RampRemoval::new(slope, csi.cols()));
        Ok(x)
    }

    /// Rows of `X`: the subarray's element count `M_s·N_s`.
    pub(crate) fn rows(&self) -> usize {
        self.sub_antennas * self.sub_subcarriers
    }

    /// Columns of `X`: one per subarray shift.
    pub(crate) fn cols(&self) -> usize {
        (self.csi.rows() - self.sub_antennas + 1) * self.sub_shifts()
    }

    /// Subcarrier shift count, the stride of `Δm` in the column index.
    fn sub_shifts(&self) -> usize {
        self.csi.cols() - self.sub_subcarriers + 1
    }

    /// Writes column `col` of `X` into `out` (length
    /// [`rows`](Self::rows)) — the one place the smoothing index map lives.
    fn gather(&self, col: usize, out: &mut [c64]) {
        let (dm, dn) = (col / self.sub_shifts(), col % self.sub_shifts());
        let ns = self.sub_subcarriers;
        for m_s in 0..self.sub_antennas {
            let row = &mut out[m_s * ns..(m_s + 1) * ns];
            let csi = (dn..dn + ns).map(|n| self.csi[(m_s + dm, n)]);
            match &self.ramp {
                None => row.iter_mut().zip(csi).for_each(|(o, z)| *o = z),
                Some(ramp) => {
                    let factors = &ramp.factors()[dn..dn + ns];
                    for ((o, z), &f) in row.iter_mut().zip(csi).zip(factors) {
                        *o = z * f;
                    }
                }
            }
        }
    }

    /// Hands every column of `X` to `sink`, in column order, each gathered
    /// into one reused buffer.
    pub(crate) fn feed(&self, sink: &mut dyn FnMut(&[c64])) {
        let n = self.rows();
        let mut stack = [c64::ZERO; STACK_ROWS];
        let mut heap = Vec::new();
        let buf = if n <= STACK_ROWS {
            &mut stack[..n]
        } else {
            heap.resize(n, c64::ZERO);
            &mut heap[..]
        };
        for c in 0..self.cols() {
            self.gather(c, buf);
            sink(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steering::steering_vector;
    use spotfi_channel::constants::{DEFAULT_CARRIER_HZ, INTEL5300_SUBCARRIER_SPACING_HZ};
    use spotfi_math::{c64, hermitian_eigen_partial};

    fn cfg() -> SpotFiConfig {
        SpotFiConfig::default()
    }

    /// Ideal CSI for given (sin θ, τ, gain) paths using the steering model.
    fn csi_for_paths(paths: &[(f64, f64, c64)]) -> CMat {
        let c = cfg();
        let mut csi = CMat::zeros(3, 30);
        for &(sin_t, tau, gain) in paths {
            let v = steering_vector(
                sin_t,
                tau,
                3,
                30,
                0.028,
                DEFAULT_CARRIER_HZ,
                INTEL5300_SUBCARRIER_SPACING_HZ,
            );
            for m in 0..3 {
                for n in 0..30 {
                    csi[(m, n)] += v[m * 30 + n] * gain;
                }
            }
        }
        let _ = c;
        csi
    }

    #[test]
    fn paper_dimensions() {
        let csi = csi_for_paths(&[(0.3, 40e-9, c64::ONE)]);
        let x = smoothed_csi(&csi, &cfg()).unwrap();
        assert_eq!(x.shape(), (30, 32));
    }

    #[test]
    fn first_column_is_top_left_subarray() {
        let csi = CMat::from_fn(3, 30, |m, n| c64::new(m as f64, n as f64));
        let x = smoothed_csi(&csi, &cfg()).unwrap();
        // Column 0 = antennas 0..2, subcarriers 0..15, antenna-major.
        for m_s in 0..2 {
            for n_s in 0..15 {
                assert_eq!(x[(m_s * 15 + n_s, 0)], csi[(m_s, n_s)]);
            }
        }
        // Last column = antennas 1..3, subcarriers 15..30.
        let last = 31;
        for m_s in 0..2 {
            for n_s in 0..15 {
                assert_eq!(x[(m_s * 15 + n_s, last)], csi[(m_s + 1, n_s + 15)]);
            }
        }
    }

    #[test]
    fn shifted_columns_are_scaled_steering_combinations() {
        // The core claim of Fig. 3: for a single path, column (Δm, Δn) is
        // column (0, 0) scaled by Φ^Δm·Ω^Δn.
        let sin_t = 0.42;
        let tau = 70e-9;
        let csi = csi_for_paths(&[(sin_t, tau, c64::new(0.8, -0.3))]);
        let x = smoothed_csi(&csi, &cfg()).unwrap();
        let phi = crate::steering::phi(sin_t, 0.028, DEFAULT_CARRIER_HZ);
        let om = crate::steering::omega(tau, INTEL5300_SUBCARRIER_SPACING_HZ);
        // Column index = dm·16 + dn.
        for dm in 0..2 {
            for dn in 0..16 {
                let scale = phi.powi(dm as i32) * om.powi(dn as i32);
                let col = dm * 16 + dn;
                for r in 0..30 {
                    let expect = x[(r, 0)] * scale;
                    assert!(
                        (x[(r, col)] - expect).abs() < 1e-10,
                        "col ({}, {}), row {}",
                        dm,
                        dn,
                        r
                    );
                }
            }
        }
    }

    #[test]
    fn smoothing_restores_path_rank() {
        // Three coherent paths: the raw 3×30 CSI gives a rank-1 stacked
        // vector, but the smoothed matrix's covariance must have exactly 3
        // significant eigenvalues.
        let csi = csi_for_paths(&[
            (0.5, 20e-9, c64::ONE),
            (-0.3, 90e-9, c64::new(0.0, 0.7)),
            (0.1, 160e-9, c64::new(-0.4, 0.2)),
        ]);
        let x = smoothed_csi(&csi, &cfg()).unwrap();
        let r = x.mul_hermitian_self();
        let e = hermitian_eigen_partial(&r, r.rows());
        let lmax = e.values[0];
        assert!(e.values[2] > 1e-6 * lmax, "third eigenvalue too small");
        assert!(
            e.values[3] < 1e-8 * lmax,
            "fourth eigenvalue should be noise: {} vs {}",
            e.values[3],
            lmax
        );
    }

    #[test]
    fn single_path_gives_rank_one() {
        let csi = csi_for_paths(&[(0.2, 55e-9, c64::ONE)]);
        let x = smoothed_csi(&csi, &cfg()).unwrap();
        let r = x.mul_hermitian_self();
        let e = hermitian_eigen_partial(&r, r.rows());
        assert!(e.values[1] < 1e-9 * e.values[0]);
    }

    #[test]
    fn steering_vector_lies_in_signal_subspace() {
        // The smoothed-array steering vector of the true path must be
        // orthogonal to every noise eigenvector.
        let sin_t = -0.25;
        let tau = 120e-9;
        let csi = csi_for_paths(&[(sin_t, tau, c64::ONE)]);
        let x = smoothed_csi(&csi, &cfg()).unwrap();
        let r = x.mul_hermitian_self();
        let e = hermitian_eigen_partial(&r, r.rows());
        let a = steering_vector(
            sin_t,
            tau,
            2,
            15,
            0.028,
            DEFAULT_CARRIER_HZ,
            INTEL5300_SUBCARRIER_SPACING_HZ,
        );
        for k in 1..30 {
            let dot: c64 = e
                .vectors
                .col(k)
                .iter()
                .zip(a.iter())
                .map(|(v, s)| v.conj() * *s)
                .sum();
            assert!(
                dot.abs() < 1e-6 * (a.len() as f64).sqrt(),
                "noise vector {} not orthogonal: {}",
                k,
                dot.abs()
            );
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let csi = CMat::zeros(2, 30);
        match smoothed_csi(&csi, &cfg()) {
            Err(SpotFiError::CsiShapeMismatch { expected, got }) => {
                assert_eq!(expected, (3, 30));
                assert_eq!(got, (2, 30));
            }
            other => panic!(
                "expected shape mismatch, got {:?}",
                other.map(|m| m.shape())
            ),
        }
    }
}
