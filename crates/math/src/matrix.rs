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
/// let r = x.mul_hermitian_self();
/// assert_eq!(r, r.hermitian());
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

    /// Mutable raw column-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [c64] {
        &mut self.data
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

    /// Two distinct columns borrowed mutably at once — the shape the
    /// test-only Jacobi oracle's plane rotations update in lockstep.
    ///
    /// # Panics
    /// Panics if `a == b` or either index is out of range.
    #[cfg(test)]
    pub(crate) fn two_cols_mut(&mut self, a: usize, b: usize) -> (&mut [c64], &mut [c64]) {
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
    /// scratch buffers use to avoid per-packet heap churn. A buffer that
    /// must grow grows to exactly the new shape, not to a doubled
    /// capacity, so a scratch whose shape varies by packet holds its
    /// largest shape and no more.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.reserve_exact(rows * cols);
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
    /// caller-owned buffer (resized as needed). The lower triangle
    /// accumulates column by column of `self` with the kernel
    /// [`PackedHermitianF64::assign_hermitian_product`] runs, then is
    /// mirrored, so the lower triangles of the two agree bit for bit.
    pub fn mul_hermitian_self_into(&self, out: &mut CMat) {
        let n = self.rows;
        out.reset_zeros(n, n);
        for c in 0..self.cols {
            accumulate_outer_lower(&mut out.data, self.col(c), |j| j * n + j);
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

/// `L ← L + x·xᴴ` over a lower triangle stored column by column in `a`,
/// column `j`'s entries `(j..n, j)` from `a[col_start(j)]` on
/// (`n = x.len()`): column `j` adds `x[i]·conj(x[j])` for `i ≥ j`
/// ascending. Every Hermitian product in this module, dense or packed,
/// runs this one loop, so the fresh and the decayed covariance agree bit
/// for bit.
fn accumulate_outer_lower(a: &mut [c64], x: &[c64], col_start: impl Fn(usize) -> usize) {
    let n = x.len();
    for j in 0..n {
        let cj = x[j].conj();
        let start = col_start(j);
        // Slice-based so the inner loop is bounds-check free.
        for (d, &s) in a[start..start + n - j].iter_mut().zip(&x[j..]) {
            *d += s * cj;
        }
    }
}

/// Offset of `(j, j)`, the first stored entry of column `j`, in an `n×n`
/// packed lower triangle: `j·n − j(j−1)/2`; entry `(i, j)`, `i ≥ j`,
/// follows at `+ (i − j)`, and `j = n` gives the triangle's length
/// `n(n+1)/2`. [`PackedHermitian`] and [`PackedHermitianF64`] share this
/// one layout.
#[inline]
pub(crate) fn packed_col_start(n: usize, j: usize) -> usize {
    j * (2 * n + 1 - j) / 2
}

/// An `n×n` Hermitian matrix held as its lower triangle in `f64`, packed
/// column-major: column `j` holds rows `j..n`, so `(i, j)` with `i ≥ j`
/// lives at `j·n − j(j−1)/2 + (i − j)` (`n(n+1)/2` [`c64`] entries instead
/// of `n²`). The upper triangle is the conjugate of the lower one and is
/// never stored. [`PackedHermitian`] rounds the same layout to `f32`.
///
/// This is the working form of every matrix the eigensolver decomposes in
/// place: a packet's covariance is built, or a stream's decayed,
/// in a [`TridiagWorkspace`](crate::TridiagWorkspace)'s matrix, where the
/// subspace tracker's `R·E` and the Householder reduction read it.
///
/// ```
/// use spotfi_math::{c64, CMat, PackedHermitianF64};
///
/// let x = CMat::from_fn(3, 4, |r, c| c64::cis(r as f64 * 0.4 + c as f64));
/// let mut r = PackedHermitianF64::default();
/// r.assign_hermitian_product(3, |add| {
///     for c in 0..x.cols() {
///         add(x.col(c));
///     }
/// });
/// // Six stored entries: the lower triangle of X·Xᴴ, column by column.
/// let dense = x.mul_hermitian_self();
/// assert_eq!(r.as_slice().len(), 6);
/// assert_eq!(r[(2, 1)], dense[(2, 1)]);
/// assert_eq!(r.col(1), &dense.col(1)[1..]);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PackedHermitianF64 {
    n: usize,
    /// Lower triangle, column by column: `(i, j)` with `i ≥ j` at
    /// `packed_col_start(n, j) + (i − j)`.
    data: Vec<c64>,
}

impl PackedHermitianF64 {
    /// The matrix order `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed lower triangle, column by column.
    #[inline]
    pub fn as_slice(&self) -> &[c64] {
        &self.data
    }

    /// Mutable packed lower triangle, column by column.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [c64] {
        &mut self.data
    }

    /// The stored part of column `j`: rows `j..n`.
    #[inline]
    pub fn col(&self, j: usize) -> &[c64] {
        &self.data[packed_col_start(self.n, j)..packed_col_start(self.n, j + 1)]
    }

    /// Reshapes in place to the `n×n` zero matrix, reusing the existing
    /// allocation when it is large enough.
    pub fn reset_zeros(&mut self, n: usize) {
        self.n = n;
        self.data.clear();
        self.data.resize(packed_col_start(n, n), c64::ZERO);
    }

    /// Overwrites `self` with the lower triangle of the square `a`, the
    /// diagonal included as is. The upper triangle of `a` is not read.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn assign_lower(&mut self, a: &CMat) {
        let n = a.rows();
        assert_eq!(a.cols(), n, "packed copy of a non-square matrix");
        self.n = n;
        self.data.clear();
        self.data.reserve_exact(packed_col_start(n, n));
        for j in 0..n {
            self.data.extend_from_slice(&a.col(j)[j..]);
        }
    }

    /// Overwrites `self` with the `n×n` product `X·Xᴴ = Σ_c x_c·x_cᴴ` of a
    /// matrix `X` that is never stored: `columns` hands each column `x_c`
    /// of `X`, in column order, to the sink it is given, so a caller can
    /// gather one column at a time into a small buffer. The lower triangle
    /// accumulates column by column, then the diagonal is forced real, so
    /// the result is bitwise the lower triangle of
    /// [`CMat::mul_hermitian_self_into`] on the stored `X`.
    ///
    /// # Panics
    /// Panics if a fed column's length is not `n`.
    pub fn assign_hermitian_product(
        &mut self,
        n: usize,
        columns: impl FnOnce(&mut dyn FnMut(&[c64])),
    ) {
        self.reset_zeros(n);
        columns(&mut |x| {
            assert_eq!(x.len(), n, "Hermitian product column-length mismatch");
            accumulate_outer_lower(&mut self.data, x, |j| packed_col_start(n, j));
        });
        self.force_real_diagonal();
    }

    /// `R ← λ·R + X·Xᴴ` on `self` — one step of an exponentially
    /// forgotten covariance, with `X` never stored: `columns` hands each
    /// column of `X`, in column order, to the sink it is given (see
    /// [`assign_hermitian_product`](Self::assign_hermitian_product)).
    /// Decays every stored entry, accumulates column by column of `X` down
    /// each column of the triangle, then forces the diagonal real. With
    /// `λ = 0` and a finite `self` this equals the fresh product.
    ///
    /// # Panics
    /// Panics if a fed column's length is not `n`.
    pub fn decay_accumulate(&mut self, lambda: f64, columns: impl FnOnce(&mut dyn FnMut(&[c64]))) {
        let n = self.n;
        for z in &mut self.data {
            *z *= lambda;
        }
        columns(&mut |x| {
            assert_eq!(x.len(), n, "covariance update row-count mismatch");
            accumulate_outer_lower(&mut self.data, x, |j| packed_col_start(n, j));
        });
        self.force_real_diagonal();
    }

    fn force_real_diagonal(&mut self) {
        for j in 0..self.n {
            let d = &mut self.data[packed_col_start(self.n, j)];
            *d = c64::real(d.re);
        }
    }
}

impl Index<(usize, usize)> for PackedHermitianF64 {
    type Output = c64;
    /// The stored entry `(i, j)`; only the lower triangle (`i ≥ j`) is
    /// stored.
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &c64 {
        debug_assert!(j <= i && i < self.n);
        &self.data[packed_col_start(self.n, j) + (i - j)]
    }
}

impl IndexMut<(usize, usize)> for PackedHermitianF64 {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut c64 {
        debug_assert!(j <= i && i < self.n);
        &mut self.data[packed_col_start(self.n, j) + (i - j)]
    }
}

/// An `n×n` Hermitian matrix stored compactly: its lower triangle in
/// [`PackedHermitianF64`]'s layout (`n(n+1)/2` entries instead of `n²`),
/// each entry rounded to a pair of `f32` (8 B instead of a [`c64`]'s 16).
/// The diagonal is kept exactly real.
///
/// This is the at-rest form of a streaming covariance: a server holding
/// thousands of them keeps only the half it cannot re-derive, at single
/// precision. Only the storage is single precision. Every update runs in
/// `f64` on the same triangle: [`widen_into`](Self::widen_into) widens the
/// stored entries exactly into a per-worker [`PackedHermitianF64`],
/// [`PackedHermitianF64::decay_accumulate`] applies `R ← λ·R + X·Xᴴ`
/// there, and [`store_rounded`](Self::store_rounded) rounds the result
/// back, entry by entry. A packet therefore reads its covariance
/// unrounded; only the history carried to the next packet is rounded, by
/// at most 2⁻²⁴ relative per component.
///
/// ```
/// use spotfi_math::{c64, CMat, PackedHermitian, PackedHermitianF64};
///
/// let x0 = CMat::from_fn(3, 4, |r, c| c64::cis(r as f64 * 0.4 + c as f64));
/// let x1 = CMat::from_fn(3, 4, |r, c| c64::cis(r as f64 * 1.3 - c as f64));
/// let mut work = PackedHermitianF64::default();
/// work.assign_hermitian_product(3, |add| {
///     for c in 0..x0.cols() {
///         add(x0.col(c));
///     }
/// });
/// let mut r = PackedHermitian::zeros(3);
/// assert!(r.store_rounded(&work));
///
/// // R ← 0.5·R + X₁·X₁ᴴ, in f64, then rounded back into storage.
/// r.widen_into(&mut work);
/// work.decay_accumulate(0.5, |add| {
///     for c in 0..x1.cols() {
///         add(x1.col(c));
///     }
/// });
/// assert!(r.store_rounded(&work));
/// ```
#[derive(Clone, Debug)]
pub struct PackedHermitian {
    n: usize,
    /// Lower triangle, column by column, as `[re, im]` pairs: `(i, j)` with
    /// `i ≥ j` lives at `j·n − j(j−1)/2 + (i − j)`.
    data: Vec<[f32; 2]>,
}

impl PackedHermitian {
    /// The `n×n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        PackedHermitian {
            n,
            data: vec![[0.0; 2]; packed_col_start(n, n)],
        }
    }

    /// Overwrites `self` with `a`, each component rounded to the nearest
    /// `f32` and the diagonal forced real. Returns `false` if a stored
    /// entry is not finite: `a` held a NaN or an infinity, or a finite
    /// entry beyond `f32`'s range (≈ 3.4·10³⁸) rounded to infinity. The
    /// stored matrix is then poisoned and must not be read.
    ///
    /// # Panics
    /// Panics if `a` is not `n×n`.
    #[must_use = "a `false` return means the stored matrix is poisoned"]
    pub fn store_rounded(&mut self, a: &PackedHermitianF64) -> bool {
        let n = self.n;
        assert_eq!(a.n(), n, "packed store shape mismatch");
        let mut finite = true;
        for (d, z) in self.data.iter_mut().zip(a.as_slice()) {
            *d = [z.re as f32, z.im as f32];
            finite &= d[0].is_finite() && d[1].is_finite();
        }
        for j in 0..n {
            self.data[packed_col_start(n, j)][1] = 0.0;
        }
        finite
    }

    /// Overwrites `out` with the stored triangle, widened exactly to
    /// `f64` entry by entry (reusing `out`'s allocation).
    pub fn widen_into(&self, out: &mut PackedHermitianF64) {
        out.n = self.n;
        out.data.clear();
        out.data.extend(
            self.data
                .iter()
                .map(|&[re, im]| c64::new(f64::from(re), f64::from(im))),
        );
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
        assert_eq!(fast, fast.hermitian());
    }

    #[test]
    fn mul_vec_matches_mul() {
        let a = CMat::from_fn(3, 3, |r, c| c64::new(r as f64 + 1.0, c as f64 - 1.0));
        let v = vec![c64::new(1.0, 0.0), c64::new(0.0, 1.0), c64::new(-1.0, 2.0)];
        let mv = a.mul_vec(&v);
        let mm = a.mul(&CMat::from_fn(3, 1, |r, _| v[r]));
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
    fn frobenius_norm_known() {
        let a = m2(3.0, 0.0, 0.0, 4.0);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-14);
    }

    #[test]
    fn col_access_is_contiguous() {
        let a = CMat::from_fn(3, 2, |r, c| c64::real((c * 3 + r) as f64));
        assert_eq!(a.col(1)[0].re, 3.0);
        assert_eq!(a.col(1)[2].re, 5.0);
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

    /// The index-loop form of the dense decay step a stream ran before its
    /// working covariance was packed: decay every entry of the dense
    /// Hermitian `a`, accumulate the lower triangle column by column, then
    /// mirror it and force the diagonal real.
    fn dense_decay_accumulate(a: &mut CMat, lambda: f64, x: &CMat) {
        let n = a.rows();
        for z in &mut a.data {
            *z *= lambda;
        }
        for c in 0..x.cols() {
            let col = x.col(c);
            for j in 0..n {
                let cj = col[j].conj();
                for i in j..n {
                    a[(i, j)] += col[i] * cj;
                }
            }
        }
        a.mirror_lower_triangle();
    }

    fn bits(m: &[c64]) -> Vec<(u64, u64)> {
        m.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// The lower triangle of the dense `a`, column by column, read through
    /// `(i, j)` indices rather than the packed layout.
    fn lower(a: &CMat) -> Vec<c64> {
        let n = a.rows();
        (0..n)
            .flat_map(|j| (j..n).map(move |i| (i, j)))
            .map(|(i, j)| a[(i, j)])
            .collect()
    }

    /// The stored entry `(i, j)`, `i ≥ j`, read through the documented
    /// packed index `j·n − j(j−1)/2 + (i − j)`.
    fn stored(p: &PackedHermitian, i: usize, j: usize) -> [f32; 2] {
        p.data[j * p.n - j * j.saturating_sub(1) / 2 + (i - j)]
    }

    /// `a` as the stream stores it: each lower-triangle component rounded
    /// to `f32`, the diagonal real.
    fn rounded_lower_bits(a: &CMat) -> Vec<[u32; 2]> {
        let n = a.rows();
        let mut out = Vec::new();
        for j in 0..n {
            for i in j..n {
                let im = if i == j { 0.0 } else { a[(i, j)].im as f32 };
                out.push([(a[(i, j)].re as f32).to_bits(), im.to_bits()]);
            }
        }
        out
    }

    fn stored_bits(p: &PackedHermitian) -> Vec<[u32; 2]> {
        p.data.iter().map(|z| z.map(f32::to_bits)).collect()
    }

    /// [`PackedHermitianF64::decay_accumulate`] fed the columns of a stored
    /// `x`.
    fn decay_stored(a: &mut PackedHermitianF64, lambda: f64, x: &CMat) {
        a.decay_accumulate(lambda, |add| {
            for c in 0..x.cols() {
                add(x.col(c));
            }
        });
    }

    /// `x·xᴴ` built packed from the columns of a stored `x`.
    fn packed_product(x: &CMat) -> PackedHermitianF64 {
        let mut p = PackedHermitianF64::default();
        p.assign_hermitian_product(x.rows(), |add| {
            for c in 0..x.cols() {
                add(x.col(c));
            }
        });
        p
    }

    #[test]
    fn packed_decay_accumulate_is_bitwise_the_dense_kernel() {
        // One stream step is widen → decay in f64 → store rounded, all on
        // the packed triangle. The f64 update must be bitwise the lower
        // triangle of the dense index-loop kernel applied to the stored
        // triangle widened through the packed index and mirrored, and the
        // stored triangle bitwise the f32 rounding of that update.
        let snapshot = |r: f64| {
            CMat::from_fn(5, 9, move |row, c| {
                c64::new((row * c) as f64 * 0.13 - r, row as f64 - c as f64 * r)
                    + c64::cis(row as f64 * r + c as f64 * 1.1)
            })
        };
        let mut packed = PackedHermitian::zeros(5);
        let first = snapshot(0.3).mul_hermitian_self();
        let mut work = packed_product(&snapshot(0.3));
        assert_eq!(bits(work.as_slice()), bits(&lower(&first)));
        assert!(packed.store_rounded(&work));
        assert_eq!(stored_bits(&packed), rounded_lower_bits(&first));
        for (lambda, r) in [(0.85, 1.7), (0.7, -0.4), (0.0, 2.2), (0.5, 0.9)] {
            let x = snapshot(r);
            let mut dense = CMat::from_fn(5, 5, |i, j| {
                let [re, im] = stored(&packed, i.max(j), i.min(j));
                let z = c64::new(f64::from(re), f64::from(im));
                if i >= j {
                    z
                } else {
                    z.conj()
                }
            });
            dense_decay_accumulate(&mut dense, lambda, &x);
            packed.widen_into(&mut work);
            decay_stored(&mut work, lambda, &x);
            assert_eq!(
                bits(work.as_slice()),
                bits(&lower(&dense)),
                "f64 update at λ = {lambda}"
            );
            assert!(packed.store_rounded(&work));
            assert_eq!(
                stored_bits(&packed),
                rounded_lower_bits(&dense),
                "stored update at λ = {lambda}"
            );
        }
    }

    #[test]
    fn packed_decay_with_zero_lambda_is_the_fresh_covariance() {
        let x = CMat::from_fn(5, 9, |r, c| {
            c64::new((r * c) as f64 * 0.13 - 1.0, r as f64 - c as f64)
        });
        // Dirty starting state: λ = 0 must wipe it.
        let mut out = PackedHermitianF64::default();
        out.assign_lower(&CMat::from_fn(5, 5, |_, _| c64::new(7.0, -3.0)));
        decay_stored(&mut out, 0.0, &x);
        assert_eq!(out, packed_product(&x));
    }

    #[test]
    fn packed_widen_roundtrips_into_a_dirty_buffer() {
        let x = CMat::from_fn(4, 7, |r, c| c64::cis(r as f64 * 0.3 + c as f64 * 1.1));
        let fresh = packed_product(&x);
        let mut packed = PackedHermitian::zeros(4);
        assert!(packed.store_rounded(&fresh));
        assert_eq!(packed.data.len(), 10);
        assert_eq!(std::mem::size_of_val(&packed.data[..]), 10 * 8);
        let mut out = PackedHermitianF64::default();
        out.reset_zeros(7);
        out.as_mut_slice().fill(c64::new(9.0, -9.0));
        packed.widen_into(&mut out);
        let widened: Vec<c64> = fresh
            .as_slice()
            .iter()
            .map(|z| c64::new(f64::from(z.re as f32), f64::from(z.im as f32)))
            .collect();
        assert_eq!(out.n(), 4);
        assert_eq!(bits(out.as_slice()), bits(&widened));
    }

    #[test]
    fn packed_store_reports_non_finite_and_f32_overflow() {
        let x = CMat::from_fn(4, 7, |r, c| c64::cis(r as f64 * 0.3 + c as f64 * 1.1));
        let fresh = packed_product(&x);
        let mut packed = PackedHermitian::zeros(4);
        for poison in [f64::NAN, f64::INFINITY, 1e39] {
            let mut bad = fresh.clone();
            bad[(2, 1)] = c64::new(0.5, poison);
            assert!(!packed.store_rounded(&bad), "{poison} stored as finite");
            assert!(packed.store_rounded(&fresh));
        }
        // The largest finite f32 still fits. A dense matrix's upper
        // triangle never reaches the packed copy.
        let mut edge = x.mul_hermitian_self();
        edge[(3, 0)] = c64::real(f64::from(f32::MAX));
        edge[(0, 3)] = c64::real(f64::INFINITY);
        let mut work = PackedHermitianF64::default();
        work.assign_lower(&edge);
        assert!(packed.store_rounded(&work));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_product_panics() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        let _ = a.mul(&b);
    }
}
