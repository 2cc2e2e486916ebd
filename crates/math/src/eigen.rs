//! Complex Hermitian eigendecomposition by cyclic Jacobi — the test-only
//! oracle.
//!
//! Production code solves every Hermitian eigenproblem with the
//! tridiagonal solver in [`crate::eigen_tridiag`]. This module keeps the
//! classic **cyclic Jacobi method for Hermitian matrices** as an
//! independently derived reference for that solver's tests: it repeatedly
//! zeroes off-diagonal entries with complex plane rotations until the
//! matrix is diagonal to machine precision, accumulating every rotation
//! into the full unitary. Jacobi is unconditionally stable and converges
//! quadratically once the off-diagonal mass is small, which makes it slow
//! but trustworthy. The module is compiled only under `cfg(test)`.
//!
//! The returned eigenvalues are sorted **descending** (signal subspace first,
//! as MUSIC consumes them) with matching eigenvector columns.

use crate::complex::c64;
use crate::matrix::CMat;

/// Result of [`hermitian_eigen`]: `A = V · diag(λ) · Vᴴ`.
#[derive(Clone, Debug)]
pub struct HermitianEigen {
    /// Eigenvalues, sorted descending. Real because the input is Hermitian.
    pub values: Vec<f64>,
    /// Unitary matrix whose `k`-th column is the eigenvector of `values[k]`.
    pub vectors: CMat,
}

impl HermitianEigen {
    /// The eigenvector for index `k` as a slice.
    pub fn vector(&self, k: usize) -> &[c64] {
        self.vectors.col(k)
    }

    /// Reconstructs `V · diag(λ) · Vᴴ`; used by tests to bound the backward
    /// error of the decomposition.
    pub fn reconstruct(&self) -> CMat {
        let n = self.values.len();
        let mut vl = CMat::zeros(n, n);
        for k in 0..n {
            let lam = self.values[k];
            for r in 0..n {
                vl[(r, k)] = self.vectors[(r, k)] * lam;
            }
        }
        vl.mul(&self.vectors.hermitian())
    }
}

/// Maximum number of full Jacobi sweeps before giving up. Hermitian Jacobi
/// essentially always converges in < 15 sweeps; hitting this limit indicates
/// NaNs in the input.
const MAX_SWEEPS: usize = 64;

/// Computes the eigendecomposition of a Hermitian matrix, resolving every
/// eigenpair to machine precision: sweeps stop once the off-diagonal norm
/// falls below `1e-14 · max|a| · n`.
///
/// The strict upper triangle is ignored; the matrix is treated as the
/// Hermitian completion of its lower triangle, so tiny asymmetries from
/// accumulated floating-point error are harmless.
///
/// # Panics
/// Panics if the matrix is not square or contains non-finite values.
pub fn hermitian_eigen(a: &CMat) -> HermitianEigen {
    let n = a.rows();
    assert_eq!(n, a.cols(), "hermitian_eigen requires a square matrix");
    assert!(
        a.as_slice().iter().all(|z| z.is_finite()),
        "hermitian_eigen requires finite entries"
    );

    // Working copy, forced exactly Hermitian from the lower triangle.
    let mut h = CMat::from_fn(
        n,
        n,
        |r, c| {
            if r >= c {
                a[(r, c)]
            } else {
                a[(c, r)].conj()
            }
        },
    );
    for i in 0..n {
        h[(i, i)] = c64::real(h[(i, i)].re);
    }
    let mut v = CMat::identity(n);

    let scale = h.max_abs().max(1.0);
    let tol = scale * 1e-14;

    for _sweep in 0..MAX_SWEEPS {
        let off = off_diagonal_norm(&h);
        if off <= tol * (n as f64) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                jacobi_rotate(&mut h, &mut v, p, q);
            }
        }
    }

    // Extract and sort eigenpairs descending by eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| h[(i, i)].re).collect();
    order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).unwrap());

    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = CMat::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        let col = v.col(src).to_vec();
        vectors.col_mut(dst).copy_from_slice(&col);
    }

    HermitianEigen { values, vectors }
}

/// Root-sum-square of the strict lower triangle (≡ upper by symmetry).
fn off_diagonal_norm(h: &CMat) -> f64 {
    let n = h.rows();
    let mut s = 0.0;
    for c in 0..n {
        for r in (c + 1)..n {
            s += h[(r, c)].norm_sqr();
        }
    }
    s.sqrt()
}

/// One complex Jacobi rotation zeroing `h[(q, p)]` (and its mirror).
///
/// For a Hermitian 2×2 block `[[α, β̄], [β, γ]]` with `β = |β|·e^{iφ}` we
/// diagonalize with the unitary
/// ```text
/// J = [[c, s·e^{-iφ}], [-s·e^{iφ}, c]]
/// ```
/// which is the phase factor `diag(1, e^{iφ})` that makes the block real
/// symmetric, composed with the standard real Jacobi pair `(c, s)` for
/// `[[α, |β|], [|β|, γ]]` (Golub & Van Loan §8.5). One can check that
/// `(Jᴴ·A·J)[q][p] = e^{iφ}·(|β|(c²−s²) + cs(α−γ)) = 0` for the classic
/// choice of `t = tan θ`.
fn jacobi_rotate(h: &mut CMat, v: &mut CMat, p: usize, q: usize) {
    let beta = h[(q, p)];
    let b = beta.abs();
    if b == 0.0 {
        return;
    }
    let alpha = h[(p, p)].re;
    let gamma = h[(q, q)].re;

    // Phase of the coupling element.
    let e_phi = beta / b; // e^{iφ}

    // Real Jacobi angle for [[α, b], [b, γ]].
    let theta = (gamma - alpha) / (2.0 * b);
    // t = sign(θ) / (|θ| + sqrt(θ² + 1)) — the smaller root, for stability.
    let t = if theta >= 0.0 {
        1.0 / (theta + (theta * theta + 1.0).sqrt())
    } else {
        -1.0 / (-theta + (theta * theta + 1.0).sqrt())
    };
    let c = 1.0 / (t * t + 1.0).sqrt();
    let s = t * c;

    // Complex rotation coefficients.
    let cs = c64::real(c);
    let sn = e_phi.scale(s); // s·e^{iφ}

    // Apply Jᴴ·H·J. The column updates walk two contiguous columns in
    // lockstep (the storage is column-major), so they are expressed over
    // disjoint column slices; the per-element operations and their order
    // are identical to the element-indexed form, keeping results bitwise
    // unchanged.
    let n = h.rows();
    {
        let (pcol, qcol) = h.two_cols_mut(p, q);
        for (hp, hq) in pcol.iter_mut().zip(qcol.iter_mut()) {
            let (hkp, hkq) = (*hp, *hq);
            *hp = hkp * cs - hkq * sn;
            *hq = hkp * sn.conj() + hkq * cs;
        }
    }
    for k in 0..n {
        let hpk = h[(p, k)];
        let hqk = h[(q, k)];
        h[(p, k)] = hpk * cs - hqk * sn.conj();
        h[(q, k)] = hpk * sn + hqk * cs;
    }
    // Force the rotated pair exactly Hermitian to stop error accumulation.
    h[(p, p)] = c64::real(h[(p, p)].re);
    h[(q, q)] = c64::real(h[(q, q)].re);
    h[(q, p)] = c64::ZERO;
    h[(p, q)] = c64::ZERO;

    // Accumulate the rotation into V (right-multiply).
    let (vp, vq) = v.two_cols_mut(p, q);
    for (vpk, vqk) in vp.iter_mut().zip(vq.iter_mut()) {
        let (vkp, vkq) = (*vpk, *vqk);
        *vpk = vkp * cs - vkq * sn;
        *vqk = vkp * sn.conj() + vkq * cs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_hermitian(n: usize, seed: u64) -> CMat {
        // Small deterministic LCG so the test needs no external RNG.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let g = CMat::from_fn(n, n, |_, _| c64::new(next(), next()));
        g.mul_hermitian_self()
    }

    fn check_decomposition(a: &CMat, tol: f64) {
        let e = hermitian_eigen(a);
        // Backward error.
        let recon = e.reconstruct();
        let err = (&recon - a).frobenius_norm() / a.frobenius_norm().max(1.0);
        assert!(err < tol, "reconstruction error {} ≥ {}", err, tol);
        // Orthonormality of V.
        let vv = e.vectors.hermitian().mul(&e.vectors);
        let i = CMat::identity(a.rows());
        assert!((&vv - &i).max_abs() < 1e-10, "V not unitary");
        // Sorted descending.
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "eigenvalues not sorted");
        }
    }

    #[test]
    fn diagonal_matrix() {
        let mut a = CMat::zeros(3, 3);
        a[(0, 0)] = c64::real(1.0);
        a[(1, 1)] = c64::real(5.0);
        a[(2, 2)] = c64::real(3.0);
        let e = hermitian_eigen(&a);
        assert!((e.values[0] - 5.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2_real_symmetric() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = CMat::from_rows(&[
            &[c64::real(2.0), c64::real(1.0)],
            &[c64::real(1.0), c64::real(2.0)],
        ]);
        let e = hermitian_eigen(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2_complex() {
        // [[1, -i], [i, 1]] has eigenvalues 2 and 0.
        let a = CMat::from_rows(&[&[c64::real(1.0), -c64::I], &[c64::I, c64::real(1.0)]]);
        let e = hermitian_eigen(&a);
        assert!((e.values[0] - 2.0).abs() < 1e-12);
        assert!(e.values[1].abs() < 1e-12);
        check_decomposition(&a, 1e-12);
    }

    #[test]
    fn random_matrices_various_sizes() {
        for (n, seed) in [(1usize, 7u64), (2, 1), (3, 2), (5, 3), (10, 4), (30, 5)] {
            let a = random_hermitian(n, seed);
            check_decomposition(&a, 1e-10);
        }
    }

    #[test]
    fn psd_input_gives_nonnegative_eigenvalues() {
        let a = random_hermitian(12, 99);
        let e = hermitian_eigen(&a);
        for &l in &e.values {
            assert!(l > -1e-9, "PSD matrix produced eigenvalue {}", l);
        }
    }

    #[test]
    fn rank_deficient_covariance() {
        // Covariance of 2 columns in C^6 has rank ≤ 2: exactly 4 zero
        // eigenvalues — the situation MUSIC exploits.
        let x = CMat::from_fn(6, 2, |r, c| c64::cis(r as f64 * (c as f64 + 0.5)));
        let a = x.mul_hermitian_self();
        let e = hermitian_eigen(&a);
        assert!(e.values[1] > 0.5, "two signal eigenvalues expected");
        for k in 2..6 {
            assert!(
                e.values[k].abs() < 1e-10,
                "noise eigenvalue {} = {}",
                k,
                e.values[k]
            );
        }
        // Noise eigenvectors orthogonal to the data columns.
        for k in 2..6 {
            let v = e.vector(k);
            for c in 0..2 {
                let dot: c64 = x
                    .col(c)
                    .iter()
                    .zip(v.iter())
                    .map(|(a, b)| a.conj() * *b)
                    .sum();
                assert!(
                    dot.abs() < 1e-8,
                    "noise vector not orthogonal: {}",
                    dot.abs()
                );
            }
        }
    }

    #[test]
    fn eigenvector_satisfies_definition() {
        let a = random_hermitian(8, 42);
        let e = hermitian_eigen(&a);
        for k in 0..8 {
            let v = e.vector(k);
            let av = a.mul_vec(v);
            for r in 0..8 {
                let expect = v[r] * e.values[k];
                assert!(
                    (av[r] - expect).abs() < 1e-8 * e.values[0].abs().max(1.0),
                    "A·v ≠ λ·v at ({}, {})",
                    k,
                    r
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_panics() {
        let a = CMat::zeros(2, 3);
        let _ = hermitian_eigen(&a);
    }

    #[test]
    fn identity_eigen() {
        let e = hermitian_eigen(&CMat::identity(5));
        for &l in &e.values {
            assert!((l - 1.0).abs() < 1e-13);
        }
    }
}
