//! Dense complex matrices.
//!
//! [`CMat`] is a column-major dense matrix of [`c64`] sized for SpotFi's
//! workloads (CSI matrices are 3×30, smoothed CSI is 30×30). It provides the
//! operations the MUSIC pipeline needs: products, Hermitian transpose,
//! `X·Xᴴ`, column access, and norms. Indexing is `(row, col)`.

use crate::complex::c64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, column-major complex matrix.
///
/// ```
/// use spotfi_math::{c64, CMat};
///
/// let x = CMat::from_rows(&[
///     &[c64::ONE, c64::I],
///     &[c64::ZERO, c64::real(2.0)],
/// ]);
/// let h = x.hermitian();
/// assert_eq!(h[(1, 0)], c64::new(0.0, -1.0));
///
/// // X·Xᴴ is always Hermitian — the matrix MUSIC eigendecomposes.
/// assert!(x.mul_hermitian_self().is_hermitian(1e-12));
/// ```
#[derive(Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    /// Column-major storage: element `(r, c)` lives at `c * rows + r`.
    data: Vec<c64>,
}

impl CMat {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![c64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = c64::ONE;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> c64) -> Self {
        let mut m = CMat::zeros(rows, cols);
        for c in 0..cols {
            for r in 0..rows {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Builds a matrix from row-major slices (convenient in tests).
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[c64]]) -> Self {
        let nr = rows.len();
        let nc = if nr == 0 { 0 } else { rows[0].len() };
        assert!(rows.iter().all(|r| r.len() == nc), "ragged rows");
        CMat::from_fn(nr, nc, |r, c| rows[r][c])
    }

    /// Builds a single-column matrix from a vector.
    pub fn col_vector(v: &[c64]) -> Self {
        CMat {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[c64] {
        &self.data
    }

    /// A column as a slice (contiguous thanks to column-major layout).
    #[inline]
    pub fn col(&self, c: usize) -> &[c64] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutable access to a column.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [c64] {
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Two distinct columns borrowed mutably at once — the shape a plane
    /// rotation (Jacobi / Givens) updates in lockstep.
    ///
    /// # Panics
    /// Panics if `a == b` or either index is out of range.
    pub fn two_cols_mut(&mut self, a: usize, b: usize) -> (&mut [c64], &mut [c64]) {
        assert_ne!(a, b, "two_cols_mut needs distinct columns");
        let n = self.rows;
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * n);
        let first = &mut head[lo * n..(lo + 1) * n];
        let second = &mut tail[..n];
        if a < b {
            (first, second)
        } else {
            (second, first)
        }
    }

    /// Overwrites `self` with the first `r` columns of `src` (a
    /// column-major prefix). The storage is resized to exactly fit, so an
    /// assignment of the same shape reuses the allocation and a smaller
    /// one releases the excess. `r` may be at most `src.cols()`.
    pub fn assign_leading_cols(&mut self, src: &CMat, r: usize) {
        assert!(r <= src.cols, "leading columns out of range");
        let len = r * src.rows;
        self.rows = src.rows;
        self.cols = r;
        self.data.clear();
        self.data.reserve_exact(len);
        self.data.shrink_to(len);
        self.data.extend_from_slice(&src.data[..len]);
    }

    /// Capacity of the backing storage, in elements.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Copies a row out (rows are strided).
    pub fn row(&self, r: usize) -> Vec<c64> {
        (0..self.cols).map(|c| self[(r, c)]).collect()
    }

    /// Plain transpose (no conjugation).
    pub fn transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Hermitian (conjugate) transpose `Aᴴ`.
    pub fn hermitian(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Element-wise conjugate.
    pub fn conj(&self) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every element by a complex factor.
    pub fn scale(&self, s: c64) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| *z * s).collect(),
        }
    }

    /// Scales every element in place by a real factor — the decay step of
    /// an exponentially forgotten covariance (`R ← λ·R`). Unlike
    /// [`scale`](Self::scale) this reuses the allocation and cannot change
    /// Hermitian symmetry (a real factor preserves it exactly).
    pub fn scale_in_place(&mut self, s: f64) {
        for z in &mut self.data {
            *z *= s;
        }
    }

    /// Rank-1 Hermitian update `A ← A + α·v·vᴴ` with a real (signed) `α`:
    /// `α > 0` is an update, `α < 0` a downdate (e.g. expiring a column out
    /// of a sliding-window covariance). The lower triangle accumulates and
    /// is then mirrored, so the result is exactly Hermitian with a real
    /// diagonal — the invariant every consumer of the covariance assumes.
    ///
    /// # Panics
    /// Panics if `self` is not square or `v.len()` ≠ `self.rows()`.
    pub fn rank1_hermitian_update(&mut self, v: &[c64], alpha: f64) {
        let n = self.rows;
        assert_eq!(
            self.cols, n,
            "rank-1 Hermitian update needs a square matrix"
        );
        assert_eq!(v.len(), n, "rank-1 Hermitian update vector length mismatch");
        for j in 0..n {
            let cj = v[j].conj() * alpha;
            for i in j..n {
                self[(i, j)] += v[i] * cj;
            }
        }
        self.mirror_lower_triangle();
    }

    /// `A ← λ·A + X·Xᴴ` — one step of an exponentially forgotten covariance.
    /// Equivalent to [`scale_in_place`](Self::scale_in_place) followed by a
    /// [`rank1_hermitian_update`](Self::rank1_hermitian_update) per column of
    /// `X`, but mirrors the lower triangle once at the end instead of per
    /// column. The per-column accumulation order matches
    /// [`mul_hermitian_self_into`](Self::mul_hermitian_self_into), so
    /// `λ = 0` reproduces that product's rounding exactly.
    ///
    /// # Panics
    /// Panics if `self` is not square or `X.rows()` ≠ `self.rows()`.
    pub fn hermitian_decay_accumulate(&mut self, lambda: f64, x: &CMat) {
        let n = self.rows;
        assert_eq!(self.cols, n, "covariance update needs a square matrix");
        assert_eq!(x.rows, n, "covariance update row-count mismatch");
        self.scale_in_place(lambda);
        for c in 0..x.cols {
            let col = x.col(c);
            for j in 0..n {
                let cj = col[j].conj();
                // Slice the destination column tail once: the accumulation
                // order (column-by-column, top-down the lower triangle) is
                // unchanged, so results stay bitwise identical to the
                // element-indexed form.
                let dst = &mut self.data[j * n + j..(j + 1) * n];
                for (d, &s) in dst.iter_mut().zip(&col[j..]) {
                    *d += s * cj;
                }
            }
        }
        self.mirror_lower_triangle();
    }

    /// Copies the lower triangle's conjugate into the upper triangle and
    /// forces the diagonal real — restores exact Hermitian symmetry after a
    /// lower-triangle accumulation.
    fn mirror_lower_triangle(&mut self) {
        let n = self.rows;
        for j in 0..n {
            self[(j, j)] = c64::real(self[(j, j)].re);
            for i in (j + 1)..n {
                self[(j, i)] = self[(i, j)].conj();
            }
        }
    }

    /// Reshapes in place to `rows × cols` of zeros, reusing the existing
    /// allocation when it is large enough. This is the hook the pipeline's
    /// scratch buffers use to avoid per-packet heap churn.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, c64::ZERO);
    }

    /// `A·Aᴴ` — the (unnormalized) covariance of the columns. This is the
    /// matrix MUSIC eigendecomposes; computing it directly halves the work
    /// versus `a.mul(&a.hermitian())` and guarantees an exactly Hermitian
    /// result.
    pub fn mul_hermitian_self(&self) -> CMat {
        let mut out = CMat::zeros(self.rows, self.rows);
        self.mul_hermitian_self_into(&mut out);
        out
    }

    /// [`mul_hermitian_self`](Self::mul_hermitian_self) writing into a
    /// caller-owned buffer (resized as needed).
    pub fn mul_hermitian_self_into(&self, out: &mut CMat) {
        let n = self.rows;
        out.reset_zeros(n, n);
        for c in 0..self.cols {
            let col = self.col(c);
            for j in 0..n {
                let cj = col[j].conj();
                // Fill the lower triangle (i >= j) then mirror. Slice-based
                // so the inner loop is bounds-check free; the accumulation
                // order is identical to the element-indexed form.
                let dst = &mut out.data[j * n + j..(j + 1) * n];
                for (d, &s) in dst.iter_mut().zip(&col[j..]) {
                    *d += s * cj;
                }
            }
        }
        // Exact Hermitian symmetry: mirror the lower triangle.
        out.mirror_lower_triangle();
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul(&self, rhs: &CMat) -> CMat {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix product dimension mismatch: {}×{} · {}×{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = CMat::zeros(self.rows, rhs.cols);
        for c in 0..rhs.cols {
            let rcol = rhs.col(c);
            let ocol = c * self.rows;
            for (k, &f) in rcol.iter().enumerate() {
                if f == c64::ZERO {
                    continue;
                }
                let scol = &self.data[k * self.rows..(k + 1) * self.rows];
                for (dst, &s) in out.data[ocol..ocol + self.rows].iter_mut().zip(scol) {
                    *dst += s * f;
                }
            }
        }
        out
    }

    /// Matrix–vector product `self · v`.
    pub fn mul_vec(&self, v: &[c64]) -> Vec<c64> {
        assert_eq!(self.cols, v.len(), "matrix–vector dimension mismatch");
        let mut out = vec![c64::ZERO; self.rows];
        for (k, &f) in v.iter().enumerate() {
            let scol = self.col(k);
            for (dst, &s) in out.iter_mut().zip(scol) {
                *dst += s * f;
            }
        }
        out
    }

    /// `vᴴ · self · v` for a vector `v` — the quadratic form at the heart of
    /// the MUSIC pseudospectrum denominator. Returns the (theoretically real
    /// for Hermitian `self`) complex value.
    pub fn quadratic_form(&self, v: &[c64]) -> c64 {
        let av = self.mul_vec(v);
        v.iter().zip(av.iter()).map(|(x, y)| x.conj() * *y).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest element magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// `true` if `‖A − Aᴴ‖∞ ≤ tol` element-wise.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for c in 0..self.cols {
            for r in 0..=c {
                if (self[(r, c)] - self[(c, r)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts the sub-matrix with the given row/column index lists. Used by
    /// the smoothed-CSI construction to pull shifted sensor subarrays.
    pub fn select(&self, row_idx: &[usize], col_idx: &[usize]) -> CMat {
        CMat::from_fn(row_idx.len(), col_idx.len(), |r, c| {
            self[(row_idx[r], col_idx[c])]
        })
    }
}

impl Default for CMat {
    /// The empty `0 × 0` matrix — the natural seed for scratch buffers that
    /// grow on first use (see [`reset_zeros`](CMat::reset_zeros)).
    fn default() -> Self {
        CMat::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = c64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &c64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[c * self.rows + r]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut c64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[c * self.rows + r]
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        self.mul(rhs)
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}×{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:?}  ", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2(a: f64, b: f64, c: f64, d: f64) -> CMat {
        CMat::from_rows(&[&[c64::real(a), c64::real(b)], &[c64::real(c), c64::real(d)]])
    }

    #[test]
    fn identity_is_neutral() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let i = CMat::identity(2);
        assert_eq!(a.mul(&i), a);
        assert_eq!(i.mul(&a), a);
    }

    #[test]
    fn product_known_values() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let b = m2(5.0, 6.0, 7.0, 8.0);
        let ab = a.mul(&b);
        assert_eq!(ab, m2(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn complex_product() {
        let a = CMat::from_rows(&[&[c64::I, c64::ONE]]);
        let b = CMat::from_rows(&[&[c64::I], &[c64::ONE]]);
        let ab = a.mul(&b); // i*i + 1*1 = 0
        assert!(ab[(0, 0)].abs() < 1e-15);
    }

    #[test]
    fn hermitian_transpose() {
        let a = CMat::from_rows(&[&[c64::new(1.0, 2.0), c64::new(3.0, -1.0)]]);
        let h = a.hermitian();
        assert_eq!(h.shape(), (2, 1));
        assert_eq!(h[(0, 0)], c64::new(1.0, -2.0));
        assert_eq!(h[(1, 0)], c64::new(3.0, 1.0));
    }

    #[test]
    fn xxh_matches_explicit_product() {
        let x = CMat::from_fn(4, 7, |r, c| {
            c64::new((r * c) as f64 * 0.3 - 1.0, (r + c) as f64 * 0.2)
        });
        let fast = x.mul_hermitian_self();
        let slow = x.mul(&x.hermitian());
        assert_eq!(fast.shape(), (4, 4));
        let d = (&fast - &slow).max_abs();
        assert!(d < 1e-12, "difference {}", d);
        assert!(fast.is_hermitian(1e-14));
    }

    #[test]
    fn mul_vec_matches_mul() {
        let a = CMat::from_fn(3, 3, |r, c| c64::new(r as f64 + 1.0, c as f64 - 1.0));
        let v = vec![c64::new(1.0, 0.0), c64::new(0.0, 1.0), c64::new(-1.0, 2.0)];
        let mv = a.mul_vec(&v);
        let mm = a.mul(&CMat::col_vector(&v));
        for r in 0..3 {
            assert!((mv[r] - mm[(r, 0)]).abs() < 1e-14);
        }
    }

    #[test]
    fn quadratic_form_real_for_hermitian() {
        let x = CMat::from_fn(3, 5, |r, c| c64::cis(r as f64 * 0.7 + c as f64 * 1.3));
        let h = x.mul_hermitian_self();
        let v = vec![c64::new(0.3, 0.4), c64::new(-1.0, 0.1), c64::new(0.0, 2.0)];
        let q = h.quadratic_form(&v);
        assert!(q.im.abs() < 1e-10);
        assert!(q.re >= -1e-12, "Hermitian PSD quadratic form must be ≥ 0");
    }

    #[test]
    fn select_submatrix() {
        let a = CMat::from_fn(4, 4, |r, c| c64::real((r * 10 + c) as f64));
        let s = a.select(&[1, 3], &[0, 2]);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s[(0, 0)].re, 10.0);
        assert_eq!(s[(0, 1)].re, 12.0);
        assert_eq!(s[(1, 0)].re, 30.0);
        assert_eq!(s[(1, 1)].re, 32.0);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = m2(3.0, 0.0, 0.0, 4.0);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-14);
    }

    #[test]
    fn col_access_is_contiguous() {
        let a = CMat::from_fn(3, 2, |r, c| c64::real((c * 3 + r) as f64));
        assert_eq!(a.col(1)[0].re, 3.0);
        assert_eq!(a.col(1)[2].re, 5.0);
        assert_eq!(a.row(1), vec![c64::real(1.0), c64::real(4.0)]);
    }

    #[test]
    fn reset_zeros_reuses_and_clears() {
        let mut m = CMat::from_fn(4, 4, |r, c| c64::real((r + c) as f64 + 1.0));
        m.reset_zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|z| *z == c64::ZERO));
    }

    #[test]
    fn mul_hermitian_self_into_overwrites_stale_buffer() {
        let x = CMat::from_fn(3, 5, |r, c| c64::new(r as f64 - 1.0, c as f64 * 0.5));
        // A dirty, wrongly-shaped scratch buffer must not leak into the
        // result.
        let mut out = CMat::from_fn(7, 2, |_, _| c64::new(9.0, -9.0));
        x.mul_hermitian_self_into(&mut out);
        assert_eq!(out, x.mul_hermitian_self());
    }

    #[test]
    fn rank1_update_matches_explicit_outer_product() {
        let x = CMat::from_fn(4, 3, |r, c| {
            c64::new(r as f64 * 0.4 - c as f64, 0.3 * c as f64)
        });
        let mut a = x.mul_hermitian_self();
        let v: Vec<c64> = (0..4)
            .map(|i| c64::new(1.0 - i as f64, 0.5 * i as f64))
            .collect();
        a.rank1_hermitian_update(&v, 2.0);
        let mut expect = x.mul_hermitian_self();
        for j in 0..4 {
            for i in 0..4 {
                expect[(i, j)] += v[i] * v[j].conj() * 2.0;
            }
        }
        assert!((&a - &expect).max_abs() < 1e-12);
        assert!(a.is_hermitian(0.0), "update must preserve exact symmetry");
    }

    #[test]
    fn rank1_downdate_reverses_update() {
        let x = CMat::from_fn(4, 6, |r, c| c64::cis(r as f64 * 0.9 - c as f64 * 0.4));
        let orig = x.mul_hermitian_self();
        let mut a = orig.clone();
        let v: Vec<c64> = (0..4)
            .map(|i| c64::new(0.2 * i as f64 + 1.0, -0.7))
            .collect();
        a.rank1_hermitian_update(&v, 1.0);
        a.rank1_hermitian_update(&v, -1.0);
        assert!((&a - &orig).max_abs() < 1e-10);
        assert!(a.is_hermitian(0.0));
    }

    #[test]
    fn decay_accumulate_with_zero_lambda_is_bitwise_covariance() {
        let x = CMat::from_fn(5, 9, |r, c| {
            c64::new((r * c) as f64 * 0.13 - 1.0, r as f64 - c as f64)
        });
        // Dirty starting state: λ = 0 must wipe it exactly.
        let mut a = CMat::from_fn(5, 5, |_, _| c64::new(7.0, -3.0));
        a.hermitian_decay_accumulate(0.0, &x);
        let expect = x.mul_hermitian_self();
        // Bit-exact: same accumulation order as mul_hermitian_self_into.
        assert_eq!(a, expect);
    }

    #[test]
    fn decay_accumulate_matches_scale_plus_product() {
        let x0 = CMat::from_fn(4, 7, |r, c| c64::cis(r as f64 * 0.3 + c as f64 * 1.1));
        let x1 = CMat::from_fn(4, 7, |r, c| c64::cis(r as f64 * 1.7 - c as f64 * 0.2));
        let lambda = 0.85;
        let mut a = x0.mul_hermitian_self();
        a.hermitian_decay_accumulate(lambda, &x1);
        let expect = &x0.mul_hermitian_self().scale(c64::real(lambda)) + &x1.mul_hermitian_self();
        assert!((&a - &expect).max_abs() < 1e-10);
        assert!(
            a.is_hermitian(0.0),
            "decay + accumulate must stay Hermitian"
        );
    }

    #[test]
    fn scale_in_place_matches_scale() {
        let a = CMat::from_fn(3, 4, |r, c| c64::new(r as f64, c as f64 - 2.0));
        let mut b = a.clone();
        b.scale_in_place(0.25);
        assert_eq!(b, a.scale(c64::real(0.25)));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_product_panics() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        let _ = a.mul(&b);
    }
}
