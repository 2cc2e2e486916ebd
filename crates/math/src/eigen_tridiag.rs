//! Partial Hermitian eigendecomposition via Householder tridiagonalization.
//!
//! This is the workspace's one production eigensolver. Every consumer
//! needs only the top eigenvectors: MUSIC's noise projector is the
//! signal-subspace complement `G = I − E_S·E_Sᴴ`, so only the top
//! `k ≤ max_paths` eigenvectors (≈ 8 of 30) are ever consumed. Accumulating
//! every plane rotation into a full `n × n` unitary, as cyclic Jacobi does,
//! costs O(n³ · sweeps) for vectors nobody reads. This module implements
//! the classic dense-solver path with a **partial eigenvector mode**:
//!
//! 1. **Householder tridiagonalization** `A = U·H·Uᴴ` — `n − 2` rank-2
//!    updates reduce the Hermitian matrix to complex tridiagonal `H`
//!    (O(4n³/3) flops, once).
//! 2. **Phase scaling** `H = D·T·Dᴴ` — a diagonal unitary makes the
//!    subdiagonal real and non-negative, leaving a real symmetric
//!    tridiagonal `T`.
//! 3. **Implicit-shift QL** on `T` — all `n` eigenvalues in O(n²) total,
//!    with *no* eigenvector accumulation.
//! 4. **Inverse iteration** on `T` for the `k` requested (largest)
//!    eigenvalues, with Gram–Schmidt reorthogonalization inside eigenvalue
//!    clusters, then back-transformation through `D` and the Householder
//!    reflectors — O(k·n²) instead of O(n³·sweeps) accumulation. `k` may
//!    be chosen from the eigenvalues
//!    ([`hermitian_eigen_partial_in_place_by`]).
//!
//! A [`TridiagWorkspace`]'s matrix is a [`PackedHermitianF64`]: the lower
//! triangle only, which is all the reduction reads. The per-packet 30×30
//! MUSIC solves build each covariance there and the subspace tracker's k×k
//! Rayleigh–Ritz step its quotient, and both decompose it in place with
//! [`hermitian_eigen_partial_in_place`]; [`hermitian_eigen_partial_into`]
//! copies a dense matrix's lower triangle in and runs the same solve. A
//! warm call performs no allocations; MUSIC-AoA's 3×3 solve uses the
//! one-shot [`hermitian_eigen_partial`].
//! [`hermitian_eigen_partial_batch_into`] is a loop of per-matrix calls
//! kept for the benchmarks, so one Householder reduction serves every
//! caller. A cyclic-Jacobi solver is compiled under `cfg(test)` only, as
//! the oracle these results are cross-validated against.

use crate::complex::c64;
use crate::matrix::{packed_col_start, CMat, PackedHermitianF64};

/// Result of [`hermitian_eigen_partial`]: all eigenvalues, top-`k`
/// eigenvectors.
#[derive(Clone, Debug)]
pub struct PartialHermitianEigen {
    /// All `n` eigenvalues, sorted descending.
    pub values: Vec<f64>,
    /// `n × k` matrix whose column `j` is the eigenvector of `values[j]`.
    pub vectors: CMat,
}

/// Reusable buffers for [`hermitian_eigen_partial_into`]. One workspace
/// serves any number of decompositions of matrices up to its size; it grows
/// on demand and never shrinks. Besides the matrix and the output, it holds
/// only `n`-long vectors: inverse iteration writes each tridiagonal
/// eigenvector straight into its output column and the back-transform runs
/// there in place, so no `n × k` copy of the vectors is kept, and the
/// solver's nine real `n`-long buffers share one work array. The output
/// vectors grow to exactly the largest `n × k` asked for.
///
/// A finished solve reads neither its matrix storage nor its real work again:
/// [`solved`](Self::solved) lends both, with the eigenvalues and
/// eigenvectors, in one split borrow, so a caller can run its next step in
/// that storage instead of keeping buffers of its own beside it.
#[derive(Clone, Debug, Default)]
pub struct TridiagWorkspace {
    /// The matrix to decompose, as its packed lower triangle. The
    /// reduction overwrites it: reflector `v_j`'s components past the first
    /// accumulate in column `j` below the subdiagonal, and the subdiagonal
    /// entry holds `T`'s.
    h: PackedHermitianF64,
    /// Per Householder reflector, its scale factor and first component.
    reflectors: Vec<Reflector>,
    /// Diagonal phase unitary `D` turning the complex subdiagonal real.
    phase: Vec<c64>,
    /// The solver's real buffers, `REAL_BUFFERS` of `n` each, in
    /// [`RealWork`]'s order: `T`'s diagonal and subdiagonal, their QL
    /// working copies, the tridiagonal solve's factors and the inverse
    /// iterate.
    real: Vec<f64>,
    /// The tridiagonal solve's row interchanges.
    solve_piv: Vec<bool>,
    /// The reduction's `p`/`w` vector for its rank-2 updates.
    z: Vec<c64>,
    /// Output of [`hermitian_eigen_partial_into`]: all eigenvalues,
    /// descending.
    out_values: Vec<f64>,
    /// Output of [`hermitian_eigen_partial_into`]: top-`k` eigenvectors,
    /// `n × k`.
    out_vectors: CMat,
}

/// What [`TridiagWorkspace::solved`] lends after a solve: its outputs, to
/// read, and the storage the solve consumed, to write over.
#[derive(Debug)]
pub struct SolvedParts<'a> {
    /// All eigenvalues, sorted descending.
    pub values: &'a [f64],
    /// The solved eigenvectors (`n × k`, column `j` pairs with
    /// `values[j]`).
    pub vectors: &'a CMat,
    /// The matrix's storage, `n(n+1)/2` entries. The solve left Householder
    /// reflectors there that nothing reads again: the next matrix is built
    /// over them through [`TridiagWorkspace::matrix_mut`].
    pub spent_matrix: &'a mut [c64],
    /// The solver's real work array, `9n` entries, none of which a later
    /// solve reads before writing.
    pub real_work: &'a mut [f64],
}

/// Number of `n`-long real buffers in [`TridiagWorkspace`]'s work array.
const REAL_BUFFERS: usize = 9;

/// The solver's real buffers, each `n` long, split off one work array.
struct RealWork<'a> {
    /// Real diagonal of `T`.
    diag: &'a mut [f64],
    /// Real subdiagonal of `T` (`sub[i] = T[i+1, i]`, last entry unused).
    sub: &'a mut [f64],
    /// QL working copies of the tridiagonal (destroyed by the iteration).
    d_work: &'a mut [f64],
    e_work: &'a mut [f64],
    /// The inverse-iteration solves' factors.
    factors: Factors<'a>,
    /// The inverse-iteration iterate.
    y: &'a mut [f64],
}

impl<'a> RealWork<'a> {
    /// Splits the leading `REAL_BUFFERS · n` entries of `work` into the
    /// buffers (`n ≥ 1`).
    fn split(work: &'a mut [f64], n: usize) -> Self {
        let mut chunks = work[..REAL_BUFFERS * n].chunks_exact_mut(n);
        let mut next = || chunks.next().expect("the work array holds every buffer");
        RealWork {
            diag: next(),
            sub: next(),
            d_work: next(),
            e_work: next(),
            factors: Factors {
                d: next(),
                dl: next(),
                du: next(),
                du2: next(),
            },
            y: next(),
        }
    }
}

/// The tridiagonal solve's LU factors, each `n` long (the solve uses the
/// leading `n`, `n − 1`, `n − 1` and `n − 2` entries).
struct Factors<'a> {
    /// Shifted diagonal, then the pivots.
    d: &'a mut [f64],
    /// Subdiagonal, then the multipliers.
    dl: &'a mut [f64],
    /// Superdiagonal.
    du: &'a mut [f64],
    /// Second superdiagonal, filled by row interchanges.
    du2: &'a mut [f64],
}

/// Householder reflector `j` of the reduction, `I − β_j·v_j·v_jᴴ`, apart
/// from the components of `v_j` past the first, which stay in column `j`
/// of the reduced matrix below the subdiagonal.
#[derive(Clone, Copy, Debug, Default)]
struct Reflector {
    /// `β_j = 2/‖v_j‖²` (0 ⇒ identity reflector).
    beta: f64,
    /// `v_j`'s first component, whose slot in the matrix (the subdiagonal
    /// `(j+1, j)`) carries `T`'s entry.
    v_first: c64,
}

impl TridiagWorkspace {
    /// The matrix the next [`hermitian_eigen_partial_in_place`] decomposes.
    pub fn matrix(&self) -> &PackedHermitianF64 {
        &self.h
    }

    /// Mutable access to the matrix the next
    /// [`hermitian_eigen_partial_in_place`] decomposes: a caller that
    /// builds its matrix here skips the copy
    /// [`hermitian_eigen_partial_into`] makes. The solve overwrites it with
    /// Householder reflectors.
    pub fn matrix_mut(&mut self) -> &mut PackedHermitianF64 {
        &mut self.h
    }

    /// All eigenvalues from the most recent
    /// [`hermitian_eigen_partial_into`], sorted descending.
    pub fn values(&self) -> &[f64] {
        &self.out_values
    }

    /// Top-`k` eigenvectors (`n × k`, column `j` pairs with `values()[j]`)
    /// from the most recent [`hermitian_eigen_partial_into`].
    pub fn vectors(&self) -> &CMat {
        &self.out_vectors
    }

    /// The most recent solve's eigenvalues and eigenvectors, to read,
    /// together with the storage it consumed, to write over: the matrix's
    /// entries and the real work array. Neither holds anything a reader of
    /// the outputs needs, so a caller's next step can run in them while it
    /// reads the basis.
    pub fn solved(&mut self) -> SolvedParts<'_> {
        SolvedParts {
            values: &self.out_values,
            vectors: &self.out_vectors,
            spent_matrix: self.h.as_mut_slice(),
            real_work: &mut self.real,
        }
    }
}

/// Computes all eigenvalues and the eigenvectors of the `k` largest
/// eigenvalues of a Hermitian matrix.
///
/// ```
/// use spotfi_math::{c64, CMat};
/// use spotfi_math::eigen_tridiag::hermitian_eigen_partial;
///
/// // [[2, i], [-i, 2]] has eigenvalues 3 and 1.
/// let a = CMat::from_rows(&[
///     &[c64::real(2.0), c64::I],
///     &[-c64::I, c64::real(2.0)],
/// ]);
/// let e = hermitian_eigen_partial(&a, 1);
/// assert!((e.values[0] - 3.0).abs() < 1e-12);
/// assert!((e.values[1] - 1.0).abs() < 1e-12);
/// assert_eq!(e.vectors.shape(), (2, 1));
/// ```
///
/// The strict upper triangle is ignored: the input is treated as the
/// Hermitian completion of its lower triangle. `k` is clamped to `n`.
///
/// # Panics
/// Panics if the matrix is not square or contains non-finite values.
pub fn hermitian_eigen_partial(a: &CMat, k: usize) -> PartialHermitianEigen {
    let mut ws = TridiagWorkspace::default();
    hermitian_eigen_partial_into(a, k, &mut ws);
    PartialHermitianEigen {
        values: ws.out_values,
        vectors: ws.out_vectors,
    }
}

/// Fully allocation-free form of [`hermitian_eigen_partial`]: results land
/// in the workspace, readable through [`TridiagWorkspace::values`] and
/// [`TridiagWorkspace::vectors`] until the next decomposition. It copies
/// `a`'s lower triangle into the workspace's packed matrix, then runs
/// [`hermitian_eigen_partial_in_place`]; callers that can build their
/// matrix in [`TridiagWorkspace::matrix_mut`] (the per-packet MUSIC path,
/// the subspace tracker's Ritz step) call that directly instead.
///
/// # Panics
/// Panics if the matrix is not square or its lower triangle contains
/// non-finite values.
pub fn hermitian_eigen_partial_into(a: &CMat, k: usize, ws: &mut TridiagWorkspace) {
    ws.h.assign_lower(a);
    hermitian_eigen_partial_in_place(k, ws);
}

/// [`hermitian_eigen_partial_into`] on the matrix already in the workspace
/// ([`TridiagWorkspace::matrix_mut`]), with no copy. The per-packet MUSIC
/// path builds each covariance there and calls this. The matrix is
/// destroyed: it holds the Householder reflectors afterwards.
///
/// # Panics
/// Panics if the matrix contains non-finite values.
pub fn hermitian_eigen_partial_in_place(k: usize, ws: &mut TridiagWorkspace) {
    hermitian_eigen_partial_in_place_by(ws, |_| k);
}

/// [`hermitian_eigen_partial_in_place`] with the eigenvector count chosen
/// from the spectrum: `columns` is handed all eigenvalues, descending, once
/// they are known, and the solve then computes the eigenvectors of the
/// largest `columns(values)` of them (clamped to `n`). The first `k′`
/// eigenvectors of any solve are the same bits whatever count is asked
/// for, so a caller that needs only as many vectors as the spectrum's
/// signal dimension skips the rest.
///
/// # Panics
/// Panics if the matrix contains non-finite values.
pub fn hermitian_eigen_partial_in_place_by(
    ws: &mut TridiagWorkspace,
    columns: impl FnOnce(&[f64]) -> usize,
) {
    let n = ws.h.n();
    assert!(
        ws.h.as_slice().iter().all(|z| z.is_finite()),
        "hermitian_eigen_partial requires finite entries"
    );
    if n == 0 {
        ws.out_values.clear();
        ws.out_vectors.reset_zeros(0, 0);
        columns(&ws.out_values);
        return;
    }

    let TridiagWorkspace {
        h,
        reflectors,
        phase,
        real,
        solve_piv,
        z,
        out_values: values,
        out_vectors: vectors,
    } = ws;
    real.clear();
    real.resize(REAL_BUFFERS * n, 0.0);
    let mut rw = RealWork::split(real, n);
    tridiagonalize(h, reflectors, z);
    extract_tridiag(h, rw.diag, rw.sub, phase);
    // Eigenvalues of T by implicit-shift QL (no vector accumulation).
    rw.d_work.copy_from_slice(rw.diag);
    rw.e_work.copy_from_slice(rw.sub);
    let ql_sweeps = ql_implicit_eigenvalues(rw.d_work, rw.e_work);
    values.clear();
    values.extend_from_slice(rw.d_work);
    values.sort_by(|x, y| y.partial_cmp(x).unwrap());
    let k = columns(values).min(n);

    // Top-k eigenvectors of T by inverse iteration, each straight into its
    // output column, then back-transformed there.
    vectors.reset_zeros(n, k);
    let (reorth_events, inverse_steps) =
        inverse_iteration(&values[..k], &mut rw, solve_piv, vectors);
    for j in 0..k {
        back_transform(vectors.col_mut(j), h.as_slice(), reflectors, phase);
    }

    if spotfi_obs::enabled() {
        spotfi_obs::counter("eigen.calls", 1);
        spotfi_obs::counter("eigen.ql_sweeps", ql_sweeps);
        spotfi_obs::counter("eigen.reorth_events", reorth_events);
        spotfi_obs::counter("eigen.inverse_iteration_steps", inverse_steps);
    }
}

/// Reduces the Hermitian matrix whose packed lower triangle is `h` to
/// tridiagonal form in place: the complex tridiagonal stays on `h`'s
/// diagonal and subdiagonal, and the Householder reflectors' scale factors
/// and first components land in `reflectors`, the rest in `h`'s columns
/// below the subdiagonal (so `A = Q·H·Qᴴ` with `Q` the reflector product).
/// `z` is the rank-2 updates' vector.
fn tridiagonalize(h: &mut PackedHermitianF64, reflectors: &mut Vec<Reflector>, z: &mut Vec<c64>) {
    let n = h.n();
    let start = |j: usize| packed_col_start(n, j);
    let h = h.as_mut_slice();
    // Forced exactly Hermitian (same normalization as the Jacobi oracle,
    // so both see the same matrix): the upper triangle is only implied.
    for i in 0..n {
        h[start(i)] = c64::real(h[start(i)].re);
    }

    reflectors.clear();
    reflectors.resize(n, Reflector::default());
    // p/w scratch for the rank-2 update lives in `z` (complex, length n).
    z.clear();
    z.resize(n, c64::ZERO);

    for (j, reflector) in reflectors.iter_mut().enumerate().take(n.saturating_sub(2)) {
        // x = column j below the diagonal, rows j+1..n; build the reflector
        // that maps x to a multiple of e1.
        let m0 = j + 1;
        let xj = start(j) + 1..start(m0);
        let mut sigma2 = 0.0;
        for x in &h[xj.clone()] {
            sigma2 += x.norm_sqr();
        }
        let sigma = sigma2.sqrt();
        if sigma == 0.0 {
            reflector.beta = 0.0;
            continue;
        }
        let x0 = h[xj.start];
        // Phase choice v = x + e^{iφ}·σ·e1 with e^{iφ} = x0/|x0| maximizes
        // ‖v‖ (no cancellation).
        let phase = if x0 == c64::ZERO {
            c64::ONE
        } else {
            x0 * (1.0 / x0.abs())
        };
        // alpha becomes the new subdiagonal entry (j+1, j); v overwrites
        // x (the zeroed part of the column).
        let alpha = phase.scale(-sigma);
        h[xj.start] = x0 - alpha;
        let mut vnorm2 = 0.0;
        for v in &h[xj.clone()] {
            vnorm2 += v.norm_sqr();
        }
        if vnorm2 == 0.0 {
            reflector.beta = 0.0;
            h[xj.start] = alpha;
            continue;
        }
        let b = 2.0 / vnorm2;
        reflector.beta = b;

        // Rank-2 update of the trailing block: p = β·H·v, w = p − (β/2)(vᴴp)v,
        // H ← H − v·wᴴ − w·vᴴ. Only the trailing (n−j−1)² block changes: the
        // columns from m0 on, which follow column j in the packed layout.
        let (head, trailing) = h.split_at_mut(start(m0));
        let v = &head[xj.clone()];
        let col = |c: usize| start(c) - start(m0)..start(c + 1) - start(m0);
        let zt = &mut z[m0..n];
        zt.fill(c64::ZERO);
        // p = β · H[m0.., m0..] · v — walk columns (contiguous) using
        // Hermitian symmetry of the stored lower triangle.
        for c in m0..n {
            let hc = &trailing[col(c)];
            let vc = v[c - m0];
            let (zc, zr) = zt[c - m0..].split_first_mut().expect("c < n");
            // Diagonal term.
            *zc += hc[0] * vc;
            for ((&hrc, &vr), zr) in hc[1..].iter().zip(&v[c + 1 - m0..]).zip(zr) {
                *zr += hrc * vc;
                *zc += hrc.conj() * vr;
            }
        }
        for item in zt.iter_mut() {
            *item = item.scale(b);
        }
        // K = (β/2)·(vᴴ·p)
        let mut vhp = c64::ZERO;
        for (vr, pr) in v.iter().zip(zt.iter()) {
            vhp += vr.conj() * *pr;
        }
        let kfac = vhp.scale(b * 0.5);
        // w = p − K·v (stored back into z)
        for (wr, &vr) in zt.iter_mut().zip(v) {
            *wr -= kfac * vr;
        }
        // H ← H − v·wᴴ − w·vᴴ on the lower triangle of the trailing block.
        for c in m0..n {
            let vc = v[c - m0];
            let wc = zt[c - m0];
            let hc = &mut trailing[col(c)];
            for ((hrc, &vr), &wr) in hc.iter_mut().zip(&v[c - m0..]).zip(&zt[c - m0..]) {
                let delta = vr * wc.conj() + wr * vc.conj();
                *hrc -= delta;
            }
            hc[0] = c64::real(hc[0].re);
        }
        // Record the annihilated column's new subdiagonal entry α. The
        // reflector vector v stays in column j from row j+2 on; its first
        // component leaves the subdiagonal slot for `reflectors`.
        reflector.v_first = head[xj.start];
        head[xj.start] = alpha;
    }
}

/// Extracts the complex tridiagonal from the reduced `h`, then
/// phase-scales the subdiagonal real non-negative: with `u_0 = 1`,
/// `u_{i+1} = u_i·f_i/|f_i|` the matrix `Dᴴ·H·D` (`D = diag(u)`) has
/// subdiagonal `|f_i|`. Fills `diag`, `sub` (`n` long, the last entry
/// left as it was) and `phase` (`D`'s diagonal).
fn extract_tridiag(
    h: &PackedHermitianF64,
    diag: &mut [f64],
    sub: &mut [f64],
    phase: &mut Vec<c64>,
) {
    let n = h.n();
    let h = h.as_slice();
    phase.clear();
    phase.resize(n, c64::ONE);
    for i in 0..n {
        diag[i] = h[packed_col_start(n, i)].re;
    }
    for i in 0..n.saturating_sub(1) {
        let f = h[packed_col_start(n, i) + 1];
        let fabs = f.abs();
        sub[i] = fabs;
        phase[i + 1] = if fabs == 0.0 {
            phase[i]
        } else {
            phase[i] * f.scale(1.0 / fabs)
        };
    }
}

/// All eigenvalues of the real symmetric tridiagonal `(d, e)` by the
/// implicit-shift QL algorithm (EISPACK `tql1`; Numerical Recipes `tqli`
/// without the eigenvector accumulation). `d` is overwritten with the
/// (unordered) eigenvalues; `e` is destroyed.
///
/// # Panics
/// Panics if an eigenvalue fails to converge in 50 iterations — which only
/// happens for non-finite input, excluded by the caller's assertion.
fn ql_implicit_eigenvalues(d: &mut [f64], e: &mut [f64]) -> u64 {
    let n = d.len();
    let mut sweeps = 0u64;
    if n <= 1 {
        return sweeps;
    }
    // Convention: e[i] couples d[i] and d[i+1]; e[n−1] is a spare slot.
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find the first negligible subdiagonal at or after l.
            let mut m = l;
            while m < n - 1 {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            sweeps += 1;
            assert!(iter <= 50, "QL iteration failed to converge");
            // Implicit shift from the leading 2×2 of the active block.
            //
            // Plain `sqrt(f² + g²)` instead of `hypot`: the libm `hypot`
            // call costs more than the rest of the rotation combined, and
            // the guarded-range trade-off doesn't apply here — the inputs
            // are bounded by the covariance norm (no overflow) and an
            // underflowed `r == 0.0` falls into the deflate-and-restart
            // branch below exactly like a `hypot` subnormal would.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = (g * g + 1.0).sqrt();
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = (f * f + g * g).sqrt();
                e[i + 1] = r;
                if r == 0.0 {
                    // Rare underflow: deflate and restart this eigenvalue.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                let inv = 1.0 / r;
                s = f * inv;
                c = g * inv;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    sweeps
}

/// `max(|diag|, |sub|, 1)` of the tridiagonal `(diag, sub)`: the scale of
/// the inverse-iteration tolerances.
fn tridiag_norm(diag: &[f64], sub: &[f64]) -> f64 {
    let n = diag.len();
    diag.iter()
        .map(|x| x.abs())
        .chain(sub[..n.saturating_sub(1)].iter().map(|x| x.abs()))
        .fold(0.0f64, f64::max)
        .max(1.0)
}

/// Solves `(T − λI)·y = b` for the tridiagonal `(diag, sub)` by LU with
/// partial pivoting (the LAPACK `dgttrf`/`dgtts2` scheme), factoring into
/// `f` and `piv`; `b` is overwritten with `y`. Exactly singular
/// pivots (λ *is* an eigenvalue) are replaced by `±ε·‖T‖` — the classic
/// inverse-iteration trick that turns the singular solve into a huge,
/// eigenvector-aligned step.
fn solve_shifted_tridiag(
    lambda: f64,
    diag: &[f64],
    sub: &[f64],
    f: &mut Factors<'_>,
    piv: &mut Vec<bool>,
    b: &mut [f64],
) {
    let n = diag.len();
    debug_assert_eq!(b.len(), n);
    let tiny = f64::EPSILON * tridiag_norm(diag, sub);
    let (m1, m2) = (n.saturating_sub(1), n.saturating_sub(2));

    let dd = &mut f.d[..n];
    let dl = &mut f.dl[..m1];
    let du = &mut f.du[..m1];
    let du2 = &mut f.du2[..m2];
    for (d, &x) in dd.iter_mut().zip(diag) {
        *d = x - lambda;
    }
    dl.copy_from_slice(&sub[..m1]);
    du.copy_from_slice(&sub[..m1]);
    du2.fill(0.0);
    piv.clear();
    piv.resize(m1, false);

    for i in 0..n.saturating_sub(1) {
        if dd[i].abs() >= dl[i].abs() {
            // No row interchange.
            let pivot = if dd[i].abs() < tiny {
                tiny.copysign(dd[i])
            } else {
                dd[i]
            };
            dd[i] = pivot;
            let fact = dl[i] / pivot;
            dl[i] = fact;
            dd[i + 1] -= fact * du[i];
        } else {
            // Swap rows i and i+1; the pivot row gains a second
            // superdiagonal entry (du2).
            let pivot = if dl[i].abs() < tiny {
                tiny.copysign(dl[i])
            } else {
                dl[i]
            };
            let fact = dd[i] / pivot;
            let old_d_next = dd[i + 1];
            let old_du_i = du[i];
            dd[i] = pivot;
            dl[i] = fact;
            du[i] = old_d_next;
            // New row i+1 = old row i − fact·(old row i+1).
            dd[i + 1] = old_du_i - fact * old_d_next;
            if i + 1 < n - 1 {
                let old_du_next = du[i + 1];
                du2[i] = old_du_next;
                du[i + 1] = -fact * old_du_next;
            }
            piv[i] = true;
        }
    }
    if dd[n - 1].abs() < tiny {
        dd[n - 1] = tiny.copysign(dd[n - 1]);
    }

    // Forward substitution with the recorded row interchanges.
    for i in 0..n.saturating_sub(1) {
        if piv[i] {
            let old_bi = b[i];
            b[i] = b[i + 1];
            b[i + 1] = old_bi - dl[i] * b[i];
        } else {
            b[i + 1] -= dl[i] * b[i];
        }
    }
    // Back substitution (upper triangle has up to two superdiagonals).
    b[n - 1] /= dd[n - 1];
    if n >= 2 {
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / dd[n - 2];
    }
    for i in (0..n.saturating_sub(2)).rev() {
        b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / dd[i];
    }
}

/// Inverse iteration on the tridiagonal `(rw.diag, rw.sub)` for each
/// eigenvalue in `lambdas` (descending), with reorthogonalization against
/// previous vectors of the same eigenvalue cluster. Vector `j` lands, unit
/// norm, in the real parts of column `j` of `out` (`n × k`), whose leading
/// columns the reorthogonalization reads back. Returns the number of
/// Gram–Schmidt reorthogonalization projections performed inside
/// eigenvalue clusters (0 when every eigenvalue is well separated) and the
/// number of shifted solves (passes) over all `k` eigenvalues.
fn inverse_iteration(
    lambdas: &[f64],
    rw: &mut RealWork<'_>,
    piv: &mut Vec<bool>,
    out: &mut CMat,
) -> (u64, u64) {
    let n = rw.diag.len();
    let k = lambdas.len();
    debug_assert_eq!(out.shape(), (n, k));
    let mut reorth_events = 0u64;
    let mut steps = 0u64;
    if k == 0 {
        return (reorth_events, steps);
    }
    let norm = tridiag_norm(rw.diag, rw.sub);
    // Two eigenvalues closer than this are treated as one cluster and their
    // vectors explicitly orthogonalized (individually they are ill-defined;
    // the spanned subspace is what matters).
    let cluster_tol = 1e-7 * norm;
    let mut cluster_start = 0usize;

    for j in 0..k {
        if j > 0 && (lambdas[j - 1] - lambdas[j]).abs() > cluster_tol {
            cluster_start = j;
        }
        // Perturb repeated shifts so consecutive solves in one cluster do
        // not produce the exact same direction.
        let lambda = lambdas[j] + (j - cluster_start) as f64 * f64::EPSILON * norm * 8.0;

        // Deterministic start vector: unit-norm with mild index-dependent
        // variation so it is never orthogonal to the target eigenvector in
        // structured cases (an all-ones start is, e.g., for antisymmetric
        // eigenvectors of persymmetric T).
        let mut state = 0x9E3779B97F4A7C15u64 ^ (j as u64).wrapping_mul(0xD1B54A32D192ED03);
        for yi in rw.y.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *yi = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        normalize(rw.y);

        for _pass in 0..5 {
            steps += 1;
            solve_shifted_tridiag(lambda, rw.diag, rw.sub, &mut rw.factors, piv, rw.y);
            // Orthogonalize within the cluster (twice is enough).
            for _ in 0..2 {
                for p in cluster_start..j {
                    reorth_events += 1;
                    let col = out.col(p);
                    let dot: f64 = col.iter().zip(rw.y.iter()).map(|(a, b)| a.re * b).sum();
                    for (yi, ci) in rw.y.iter_mut().zip(col.iter()) {
                        *yi -= dot * ci.re;
                    }
                }
                if cluster_start == j {
                    break;
                }
            }
            let growth = normalize(rw.y);
            // ‖(T−λ)⁻¹y‖ ≥ 1/(ε·‖T‖) signals convergence onto the
            // eigenvector (residual ≲ ε·‖T‖).
            if growth >= 1.0 / (f64::EPSILON * norm * 1e3) {
                break;
            }
        }
        // Even without the growth certificate the iterate is the best
        // available direction; clusters are protected by orthogonalization.
        for (o, &yi) in out.col_mut(j).iter_mut().zip(rw.y.iter()) {
            *o = c64::real(yi);
        }
    }
    (reorth_events, steps)
}

/// Normalizes `v` to unit Euclidean norm, returning the pre-normalization
/// norm. Zero vectors become `e_0`.
fn normalize(v: &mut [f64]) -> f64 {
    let nrm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if nrm == 0.0 {
        if let Some(first) = v.first_mut() {
            *first = 1.0;
        }
        return 0.0;
    }
    let inv = 1.0 / nrm;
    for x in v.iter_mut() {
        *x *= inv;
    }
    nrm
}

/// Back-transforms, in place, the tridiagonal eigenvector held in the real
/// parts of `z` into an eigenvector of the original matrix: apply the
/// phase unitary `D` (`phase`), then the Householder reflectors
/// (`reflectors`, and the rest of each in the reduced matrix `h`) in
/// reverse order.
fn back_transform(z: &mut [c64], h: &[c64], reflectors: &[Reflector], phase: &[c64]) {
    let n = phase.len();
    for (zi, p) in z.iter_mut().zip(phase) {
        *zi = p.scale(zi.re);
    }
    // Reflectors were built for columns 0..n−2; v_j's first component is
    // in `reflectors[j]`, the rest in column j from row j+2 on.
    for jr in (0..n.saturating_sub(2)).rev() {
        let Reflector { beta, v_first: v0 } = reflectors[jr];
        if beta == 0.0 {
            continue;
        }
        let m0 = jr + 1;
        let rest = &h[packed_col_start(n, jr) + 2..packed_col_start(n, m0)];
        // vᴴ·z
        let mut dot = v0.conj() * z[m0];
        for (vr, zr) in rest.iter().zip(&z[m0 + 1..]) {
            dot += vr.conj() * *zr;
        }
        let f = dot.scale(beta);
        z[m0] -= f * v0;
        for (zr, &vr) in z[m0 + 1..].iter_mut().zip(rest) {
            *zr -= f * vr;
        }
    }
}

/// Largest batch [`hermitian_eigen_partial_batch_into`] accepts.
pub const BATCH_LANES: usize = 4;

/// Workspace argument of [`hermitian_eigen_partial_batch_into`]. It holds
/// no buffers: every matrix of a batch decomposes in its own
/// [`TridiagWorkspace`].
#[derive(Clone, Debug, Default)]
pub struct BatchTridiagWorkspace {
    // Not a unit struct, so callers' `BatchTridiagWorkspace::default()`
    // stays clear of clippy's `default_constructed_unit_structs`.
    _private: (),
}

/// Decomposes up to [`BATCH_LANES`] equal-sized Hermitian matrices, landing
/// each result in its own workspace (`lanes[i]` ↔ `mats[i]`, readable
/// through [`TridiagWorkspace::values`]/[`TridiagWorkspace::vectors`] as
/// usual). Each matrix runs through [`hermitian_eigen_partial_into`], so the
/// results are those of per-matrix calls, bit for bit. Kept as the entry
/// point the benchmarks time four per-matrix solves through; the pipeline
/// solves one packet at a time.
///
/// # Panics
/// Panics if `mats` is empty or longer than [`BATCH_LANES`], if
/// `lanes.len() != mats.len()`, or if any matrix is non-square, differently
/// sized, or non-finite.
pub fn hermitian_eigen_partial_batch_into(
    mats: &[&CMat],
    k: usize,
    _bws: &mut BatchTridiagWorkspace,
    lanes: &mut [&mut TridiagWorkspace],
) {
    assert!(
        !mats.is_empty() && mats.len() <= BATCH_LANES,
        "batched eigensolve takes 1..={} matrices",
        BATCH_LANES
    );
    assert_eq!(
        mats.len(),
        lanes.len(),
        "batched eigensolve needs one output workspace per matrix"
    );
    let n = mats[0].rows();
    assert!(
        mats.iter().all(|a| a.rows() == n),
        "batched eigensolve requires equal-sized matrices"
    );
    for (a, ws) in mats.iter().zip(lanes.iter_mut()) {
        hermitian_eigen_partial_into(a, k, ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::hermitian_eigen;

    fn random_hermitian(n: usize, seed: u64) -> CMat {
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

    fn check_partial(a: &CMat, k: usize) {
        let n = a.rows();
        let e = hermitian_eigen_partial(a, k);
        assert_eq!(e.values.len(), n);
        assert_eq!(e.vectors.shape(), (n, k));
        // Eigenvalues descending.
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-10 * e.values[0].abs().max(1.0));
        }
        let scale = e.values[0].abs().max(1.0);
        // Each returned column satisfies A·v = λ·v.
        for j in 0..k {
            let v = e.vectors.col(j);
            let av = a.mul_vec(v);
            for r in 0..n {
                let expect = v[r] * e.values[j];
                assert!(
                    (av[r] - expect).abs() < 1e-8 * scale,
                    "A·v ≠ λ·v at col {} row {}: |diff| = {}",
                    j,
                    r,
                    (av[r] - expect).abs()
                );
            }
        }
        // Columns orthonormal.
        for p in 0..k {
            for q in 0..=p {
                let dot: c64 = e
                    .vectors
                    .col(p)
                    .iter()
                    .zip(e.vectors.col(q))
                    .map(|(x, y)| x.conj() * *y)
                    .sum();
                let expect = if p == q { 1.0 } else { 0.0 };
                assert!(
                    (dot.abs() - expect).abs() < 1e-8,
                    "columns {} and {} not orthonormal: {}",
                    p,
                    q,
                    dot.abs()
                );
            }
        }
    }

    #[test]
    fn two_by_two_complex() {
        let a = CMat::from_rows(&[&[c64::real(1.0), -c64::I], &[c64::I, c64::real(1.0)]]);
        let e = hermitian_eigen_partial(&a, 2);
        assert!((e.values[0] - 2.0).abs() < 1e-12);
        assert!(e.values[1].abs() < 1e-12);
        check_partial(&a, 2);
    }

    #[test]
    fn diagonal_matrix() {
        let mut a = CMat::zeros(4, 4);
        for (i, v) in [3.0, 7.0, -2.0, 5.0].iter().enumerate() {
            a[(i, i)] = c64::real(*v);
        }
        let e = hermitian_eigen_partial(&a, 2);
        assert!((e.values[0] - 7.0).abs() < 1e-12);
        assert!((e.values[1] - 5.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
        assert!((e.values[3] + 2.0).abs() < 1e-12);
        check_partial(&a, 2);
    }

    #[test]
    fn eigenvalues_match_jacobi_random() {
        for (n, seed) in [(3usize, 11u64), (8, 5), (16, 9), (30, 2)] {
            let a = random_hermitian(n, seed);
            let t = hermitian_eigen_partial(&a, 0);
            let j = hermitian_eigen(&a);
            let scale = j.values[0].abs().max(1.0);
            for (x, y) in t.values.iter().zip(&j.values) {
                assert!((x - y).abs() < 1e-10 * scale, "{} vs {}", x, y);
            }
        }
    }

    #[test]
    fn partial_vectors_random_sizes() {
        for (n, k, seed) in [(5usize, 2usize, 3u64), (12, 4, 8), (30, 8, 1)] {
            let a = random_hermitian(n, seed);
            check_partial(&a, k);
        }
    }

    #[test]
    fn rank_deficient_covariance() {
        // Rank-2 covariance in C^8: the signal subspace MUSIC extracts.
        let x = CMat::from_fn(8, 2, |r, c| c64::cis(r as f64 * (c as f64 + 0.7)));
        let a = x.mul_hermitian_self();
        check_partial(&a, 2);
        let e = hermitian_eigen_partial(&a, 2);
        for v in &e.values[2..] {
            assert!(v.abs() < 1e-9, "noise eigenvalue {}", v);
        }
    }

    #[test]
    fn degenerate_eigenvalues_span_correct_subspace() {
        // diag(5, 5, 1): λ = 5 has multiplicity 2; the two returned
        // vectors must span e0, e1 exactly even though each vector
        // individually is arbitrary in that plane.
        let mut a = CMat::zeros(3, 3);
        a[(0, 0)] = c64::real(5.0);
        a[(1, 1)] = c64::real(5.0);
        a[(2, 2)] = c64::real(1.0);
        let e = hermitian_eigen_partial(&a, 2);
        check_partial(&a, 2);
        // Projector onto span of the two columns must be diag(1, 1, 0).
        for r in 0..3 {
            for c in 0..3 {
                let p: c64 = (0..2)
                    .map(|j| e.vectors[(r, j)] * e.vectors[(c, j)].conj())
                    .sum();
                let expect = if r == c && r < 2 { 1.0 } else { 0.0 };
                assert!((p - c64::real(expect)).abs() < 1e-9, "P[{r},{c}] = {p:?}");
            }
        }
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let mut ws = TridiagWorkspace::default();
        let a = random_hermitian(10, 4);
        let b = random_hermitian(10, 77);
        hermitian_eigen_partial_into(&a, 3, &mut ws);
        let (first_values, first_vectors) = (ws.values().to_vec(), ws.vectors().clone());
        hermitian_eigen_partial_into(&b, 3, &mut ws);
        hermitian_eigen_partial_into(&a, 3, &mut ws);
        assert_eq!(first_values, ws.values());
        assert_eq!(&first_vectors, ws.vectors());
        // Differently-sized matrix through the same workspace.
        let c = random_hermitian(4, 9);
        hermitian_eigen_partial_into(&c, 2, &mut ws);
        let fresh = hermitian_eigen_partial(&c, 2);
        assert_eq!(fresh.values, ws.values());
        assert_eq!(&fresh.vectors, ws.vectors());
    }

    #[test]
    fn in_place_solve_reads_only_the_lower_triangle() {
        let a = random_hermitian(12, 5);
        let mut copying = TridiagWorkspace::default();
        hermitian_eigen_partial_into(&a, 4, &mut copying);
        // Garbage above the diagonal and imaginary diagonal parts: the
        // copying solve keeps a dense input's lower triangle only, and the
        // solve sees its Hermitian completion with a real diagonal.
        let mut dirty = a.clone();
        for c in 0..12 {
            dirty[(c, c)].im = 3.0;
            for r in 0..c {
                dirty[(r, c)] = c64::new(5.0 + r as f64, -7.0);
            }
        }
        let mut from_dirty = TridiagWorkspace::default();
        hermitian_eigen_partial_into(&dirty, 4, &mut from_dirty);
        // The same triangle built in the workspace and solved in place.
        let mut ws = TridiagWorkspace::default();
        ws.matrix_mut().assign_lower(&dirty);
        assert_eq!(ws.matrix().as_slice().len(), 12 * 13 / 2);
        hermitian_eigen_partial_in_place(4, &mut ws);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let vbits = |m: &CMat| {
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect::<Vec<_>>()
        };
        for solved in [&from_dirty, &ws] {
            assert_eq!(bits(solved.values()), bits(copying.values()));
            assert_eq!(vbits(solved.vectors()), vbits(copying.vectors()));
        }
    }

    /// The solve as it ran before inverse iteration wrote into the output
    /// columns: every real tridiagonal eigenvector in one `n × k` buffer
    /// first, then each back-transformed through a separate complex
    /// vector and copied out.
    fn two_buffer_solve(a: &CMat, k: usize) -> (Vec<f64>, CMat) {
        let mut ws = TridiagWorkspace::default();
        ws.h.assign_lower(a);
        let n = ws.h.n();
        let k = k.min(n);
        let (mut diag, mut sub) = (vec![0.0; n], vec![0.0; n]);
        tridiagonalize(&mut ws.h, &mut ws.reflectors, &mut ws.z);
        extract_tridiag(&ws.h, &mut diag, &mut sub, &mut ws.phase);
        let (mut d, mut e) = (diag.clone(), sub.clone());
        ql_implicit_eigenvalues(&mut d, &mut e);
        let mut values = d;
        values.sort_by(|x, y| y.partial_cmp(x).unwrap());
        let norm = diag
            .iter()
            .map(|x| x.abs())
            .chain(sub[..n.saturating_sub(1)].iter().map(|x| x.abs()))
            .fold(0.0f64, f64::max)
            .max(1.0);
        let mut work = vec![0.0; REAL_BUFFERS * n];
        let mut factors = RealWork::split(&mut work, n).factors;
        let mut piv = Vec::new();
        let cluster_tol = 1e-7 * norm;
        let mut tvecs = vec![0.0; n * k];
        let mut cluster_start = 0usize;
        for j in 0..k {
            if j > 0 && (values[j - 1] - values[j]).abs() > cluster_tol {
                cluster_start = j;
            }
            let lambda = values[j] + (j - cluster_start) as f64 * f64::EPSILON * norm * 8.0;
            let mut y = Vec::with_capacity(n);
            let mut state = 0x9E3779B97F4A7C15u64 ^ (j as u64).wrapping_mul(0xD1B54A32D192ED03);
            for _ in 0..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                y.push((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
            }
            normalize(&mut y);
            for _pass in 0..5 {
                solve_shifted_tridiag(lambda, &diag, &sub, &mut factors, &mut piv, &mut y);
                for _ in 0..2 {
                    for p in cluster_start..j {
                        let col = &tvecs[p * n..(p + 1) * n];
                        let dot: f64 = col.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
                        for (yi, ci) in y.iter_mut().zip(col.iter()) {
                            *yi -= dot * ci;
                        }
                    }
                    if cluster_start == j {
                        break;
                    }
                }
                if normalize(&mut y) >= 1.0 / (f64::EPSILON * norm * 1e3) {
                    break;
                }
            }
            tvecs[j * n..(j + 1) * n].copy_from_slice(&y);
        }
        let h = ws.h.as_slice();
        let mut vectors = CMat::zeros(n, k);
        for j in 0..k {
            let col = &tvecs[j * n..(j + 1) * n];
            let mut z: Vec<c64> = ws.phase.iter().zip(col).map(|(p, &c)| p.scale(c)).collect();
            for jr in (0..n.saturating_sub(2)).rev() {
                let Reflector { beta, v_first: v0 } = ws.reflectors[jr];
                if beta == 0.0 {
                    continue;
                }
                let m0 = jr + 1;
                let rest = &h[packed_col_start(n, jr) + 2..packed_col_start(n, m0)];
                let mut dot = v0.conj() * z[m0];
                for (vr, zr) in rest.iter().zip(&z[m0 + 1..]) {
                    dot += vr.conj() * *zr;
                }
                let f = dot.scale(beta);
                z[m0] -= f * v0;
                for (zr, &vr) in z[m0 + 1..].iter_mut().zip(rest) {
                    *zr -= f * vr;
                }
            }
            vectors.col_mut(j).copy_from_slice(&z);
        }
        (values, vectors)
    }

    #[test]
    fn in_place_back_transform_is_bitwise_the_two_buffer_solve() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let vbits = |m: &CMat| {
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect::<Vec<_>>()
        };
        // Random spectra, a rank-deficient covariance (a cluster of zero
        // eigenvalues, so in-cluster reorthogonalization runs), a diagonal
        // matrix (identity reflectors) and the smallest sizes.
        let mut cases: Vec<(CMat, usize)> = vec![
            (random_hermitian(30, 1), 8),
            (random_hermitian(30, 2), 30),
            (random_hermitian(12, 3), 5),
            (random_hermitian(2, 4), 2),
            (random_hermitian(1, 5), 1),
        ];
        let x = CMat::from_fn(16, 3, |r, c| c64::cis(r as f64 * (c as f64 + 0.7)));
        cases.push((x.mul_hermitian_self(), 8));
        let mut diag = CMat::zeros(8, 8);
        for i in 0..8 {
            diag[(i, i)] = c64::real(i as f64 - 3.0);
        }
        cases.push((diag, 4));
        let mut ws = TridiagWorkspace::default();
        for (a, k) in &cases {
            let (values, vectors) = two_buffer_solve(a, *k);
            hermitian_eigen_partial_into(a, *k, &mut ws);
            assert_eq!(bits(ws.values()), bits(&values));
            assert_eq!(vbits(ws.vectors()), vbits(&vectors));
        }
    }

    #[test]
    fn k_clamped_and_zero() {
        let a = random_hermitian(5, 6);
        let e = hermitian_eigen_partial(&a, 99);
        assert_eq!(e.vectors.shape(), (5, 5));
        let none = hermitian_eigen_partial(&a, 0);
        assert_eq!(none.vectors.shape(), (5, 0));
        assert_eq!(none.values.len(), 5);
    }

    #[test]
    fn one_by_one() {
        let mut a = CMat::zeros(1, 1);
        a[(0, 0)] = c64::real(-3.5);
        let e = hermitian_eigen_partial(&a, 1);
        assert!((e.values[0] + 3.5).abs() < 1e-15);
        assert!((e.vectors[(0, 0)].abs() - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_panics() {
        let _ = hermitian_eigen_partial(&CMat::zeros(2, 3), 1);
    }

    fn batch_vs_scalar_exact(mats: &[CMat], k: usize) {
        let refs: Vec<&CMat> = mats.iter().collect();
        let mut wss: Vec<TridiagWorkspace> = (0..mats.len())
            .map(|_| TridiagWorkspace::default())
            .collect();
        let mut lanes: Vec<&mut TridiagWorkspace> = wss.iter_mut().collect();
        let mut bws = BatchTridiagWorkspace::default();
        hermitian_eigen_partial_batch_into(&refs, k, &mut bws, &mut lanes);
        for (a, ws) in mats.iter().zip(&wss) {
            let scalar = hermitian_eigen_partial(a, k);
            assert_eq!(ws.values(), scalar.values.as_slice());
            assert_eq!(ws.vectors(), &scalar.vectors);
        }
    }

    #[test]
    fn batch_of_four_is_bit_identical_to_scalar() {
        let mats: Vec<CMat> = [3u64, 14, 15, 92]
            .iter()
            .map(|&s| random_hermitian(30, s))
            .collect();
        batch_vs_scalar_exact(&mats, 8);
    }

    #[test]
    fn partial_batches_are_bit_identical_to_scalar() {
        for nb in 1..=3usize {
            let mats: Vec<CMat> = (0..nb as u64)
                .map(|s| random_hermitian(12, 50 + s))
                .collect();
            batch_vs_scalar_exact(&mats, 4);
        }
    }

    #[test]
    fn batch_rank_deficient_is_bit_identical_to_scalar() {
        // Rank-2 covariances (zero noise eigenvalues) must match per-matrix
        // solves exactly.
        let mats: Vec<CMat> = (0..4)
            .map(|s| {
                let x = CMat::from_fn(10, 2, |r, c| {
                    c64::cis(r as f64 * (c as f64 + 0.3 + s as f64))
                });
                x.mul_hermitian_self()
            })
            .collect();
        batch_vs_scalar_exact(&mats, 2);
    }

    #[test]
    fn batch_degenerate_lane_falls_back_to_scalar() {
        // A diagonal matrix hits σ = 0 at the first step (the reduction's
        // identity-reflector branch); every matrix of the batch, dense or
        // not, must still match its per-matrix solve exactly.
        let mut diag = CMat::zeros(8, 8);
        for i in 0..8 {
            diag[(i, i)] = c64::real(i as f64 - 3.0);
        }
        let mats = vec![
            random_hermitian(8, 61),
            diag,
            random_hermitian(8, 62),
            random_hermitian(8, 63),
        ];
        batch_vs_scalar_exact(&mats, 3);
    }

    #[test]
    fn batch_tiny_sizes() {
        for n in 1..=3usize {
            let mats: Vec<CMat> = (0..4u64).map(|s| random_hermitian(n, 70 + s)).collect();
            batch_vs_scalar_exact(&mats, n);
        }
    }

    #[test]
    fn batch_workspace_reuse_is_clean() {
        let first: Vec<CMat> = (0..4u64).map(|s| random_hermitian(20, 80 + s)).collect();
        let second: Vec<CMat> = (0..4u64).map(|s| random_hermitian(9, 90 + s)).collect();
        let refs1: Vec<&CMat> = first.iter().collect();
        let refs2: Vec<&CMat> = second.iter().collect();
        let mut wss: Vec<TridiagWorkspace> = (0..4).map(|_| TridiagWorkspace::default()).collect();
        let mut bws = BatchTridiagWorkspace::default();
        {
            let mut lanes: Vec<&mut TridiagWorkspace> = wss.iter_mut().collect();
            hermitian_eigen_partial_batch_into(&refs1, 5, &mut bws, &mut lanes);
        }
        {
            let mut lanes: Vec<&mut TridiagWorkspace> = wss.iter_mut().collect();
            hermitian_eigen_partial_batch_into(&refs2, 3, &mut bws, &mut lanes);
        }
        for (a, ws) in second.iter().zip(&wss) {
            let scalar = hermitian_eigen_partial(a, 3);
            assert_eq!(ws.values(), scalar.values.as_slice());
            assert_eq!(ws.vectors(), &scalar.vectors);
        }
    }

    #[test]
    #[should_panic(expected = "equal-sized")]
    fn batch_mismatched_sizes_panic() {
        let a = random_hermitian(4, 1);
        let b = random_hermitian(5, 2);
        let mut wss: Vec<TridiagWorkspace> = (0..2).map(|_| TridiagWorkspace::default()).collect();
        let mut lanes: Vec<&mut TridiagWorkspace> = wss.iter_mut().collect();
        hermitian_eigen_partial_batch_into(
            &[&a, &b],
            2,
            &mut BatchTridiagWorkspace::default(),
            &mut lanes,
        );
    }

    #[test]
    #[should_panic(expected = "one output workspace")]
    fn batch_lane_count_mismatch_panics() {
        let a = random_hermitian(4, 1);
        let mut ws = TridiagWorkspace::default();
        let mut lanes: Vec<&mut TridiagWorkspace> = vec![&mut ws];
        hermitian_eigen_partial_batch_into(
            &[&a, &a],
            2,
            &mut BatchTridiagWorkspace::default(),
            &mut lanes,
        );
    }
}
