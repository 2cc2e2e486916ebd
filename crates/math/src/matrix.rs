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
        out.assign_hermitian_product(self.rows, |add| {
            for c in 0..self.cols {
                add(self.col(c));
            }
        });
    }

    /// Overwrites `self` with the `n×n` product `X·Xᴴ = Σ_c x_c·x_cᴴ` of a
    /// matrix `X` that is never stored: `columns` hands each column `x_c`
    /// of `X`, in column order, to the sink it is given, so a caller can
    /// gather one column at a time into a small buffer. The lower triangle
    /// accumulates column by column, then is mirrored, so the result is
    /// bitwise [`mul_hermitian_self_into`](Self::mul_hermitian_self_into)
    /// on the stored `X`.
    ///
    /// # Panics
    /// Panics if a fed column's length is not `n`.
    pub fn assign_hermitian_product(
        &mut self,
        n: usize,
        columns: impl FnOnce(&mut dyn FnMut(&[c64])),
    ) {
        self.reset_zeros(n, n);
        columns(&mut |x| {
            assert_eq!(x.len(), n, "Hermitian product column-length mismatch");
            accumulate_outer_lower(&mut self.data, x);
        });
        // Exact Hermitian symmetry: mirror the lower triangle.
        self.mirror_lower_triangle();
    }

    /// `R ← λ·R + X·Xᴴ` on the Hermitian `n×n` matrix `self` — one step of
    /// an exponentially forgotten covariance, with `X` never stored:
    /// `columns` hands each column of `X`, in column order, to the sink it
    /// is given (see [`assign_hermitian_product`](Self::assign_hermitian_product)).
    /// Decays every lower-triangle entry, accumulates column by column of
    /// `X` down each lower-triangle column, then mirrors the lower triangle
    /// and forces the diagonal real. Only the lower triangle of `self` is
    /// read. With `λ = 0` and a finite `self` this equals the fresh
    /// product.
    ///
    /// # Panics
    /// Panics if `self` is not square or a fed column's length is not `n`.
    pub fn decay_accumulate_hermitian(
        &mut self,
        lambda: f64,
        columns: impl FnOnce(&mut dyn FnMut(&[c64])),
    ) {
        let n = self.rows;
        assert_eq!(self.cols, n, "covariance update on a non-square matrix");
        for j in 0..n {
            for z in &mut self.data[j * n + j..(j + 1) * n] {
                *z *= lambda;
            }
        }
        columns(&mut |x| {
            assert_eq!(x.len(), n, "covariance update row-count mismatch");
            accumulate_outer_lower(&mut self.data, x);
        });
        self.mirror_lower_triangle();
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

/// `L ← L + x·xᴴ` over the lower triangle of the dense column-major
/// `n×n` matrix `a` (`n = x.len()`): column `j` adds `x[i]·conj(x[j])` for
/// `i ≥ j` ascending. Every Hermitian product in this module runs this one
/// loop, so the fresh and the decayed covariance agree bit for bit.
fn accumulate_outer_lower(a: &mut [c64], x: &[c64]) {
    let n = x.len();
    for j in 0..n {
        let cj = x[j].conj();
        // Slice-based so the inner loop is bounds-check free.
        for (d, &s) in a[j * n + j..(j + 1) * n].iter_mut().zip(&x[j..]) {
            *d += s * cj;
        }
    }
}

/// An `n×n` Hermitian matrix stored compactly: its lower triangle,
/// column-major, column `j` holding rows `j..n` (`n(n+1)/2` entries
/// instead of `n²`), each entry rounded to a pair of `f32` (8 B instead of
/// a [`c64`]'s 16). The diagonal is kept exactly real.
///
/// This is the at-rest form of a streaming covariance: a server holding
/// thousands of them keeps only the half it cannot re-derive, at single
/// precision. Only the storage is single precision. Every update runs in
/// `f64` on a dense matrix: [`unpack_into`](Self::unpack_into) widens the
/// stored triangle exactly into a per-worker buffer,
/// [`CMat::decay_accumulate_hermitian`] applies `R ← λ·R + X·Xᴴ` there, and
/// [`store_rounded`](Self::store_rounded) rounds the result back. A packet
/// therefore reads its covariance unrounded; only the history carried to
/// the next packet is rounded, by at most 2⁻²⁴ relative per component.
///
/// ```
/// use spotfi_math::{c64, CMat, PackedHermitian};
///
/// let x0 = CMat::from_fn(3, 4, |r, c| c64::cis(r as f64 * 0.4 + c as f64));
/// let x1 = CMat::from_fn(3, 4, |r, c| c64::cis(r as f64 * 1.3 - c as f64));
/// let mut r = PackedHermitian::zeros(3);
/// assert!(r.store_rounded(&x0.mul_hermitian_self()));
///
/// // R ← 0.5·R + X₁·X₁ᴴ, in f64, then rounded back into storage.
/// let mut dense = CMat::default();
/// r.unpack_into(&mut dense);
/// dense.decay_accumulate_hermitian(0.5, |add| {
///     for c in 0..x1.cols() {
///         add(x1.col(c));
///     }
/// });
/// assert_eq!(dense, dense.hermitian());
/// assert!(r.store_rounded(&dense));
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
            data: vec![[0.0; 2]; n * (n + 1) / 2],
        }
    }

    /// Overwrites `self` with the lower triangle of the Hermitian `a`, each
    /// component rounded to the nearest `f32` and the diagonal forced real.
    /// The upper triangle of `a` is not read. Returns `false` if a stored
    /// entry is not finite: `a` held a NaN or an infinity, or a finite
    /// entry beyond `f32`'s range (≈ 3.4·10³⁸) rounded to infinity. The
    /// stored matrix is then poisoned and must not be read.
    ///
    /// # Panics
    /// Panics if `a` is not `n×n`.
    #[must_use = "a `false` return means the stored matrix is poisoned"]
    pub fn store_rounded(&mut self, a: &CMat) -> bool {
        let n = self.n;
        assert_eq!(a.shape(), (n, n), "packed store shape mismatch");
        let mut finite = true;
        let mut off = 0;
        for j in 0..n {
            let len = n - j;
            for (d, z) in self.data[off..off + len].iter_mut().zip(&a.col(j)[j..]) {
                *d = [z.re as f32, z.im as f32];
                finite &= d[0].is_finite() && d[1].is_finite();
            }
            self.data[off][1] = 0.0;
            off += len;
        }
        finite
    }

    /// Writes the dense Hermitian matrix into `out` (resized to `n×n`,
    /// reusing its allocation), widened exactly to `f64`: the lower
    /// triangle as stored, the upper triangle as its conjugate.
    pub fn unpack_into(&self, out: &mut CMat) {
        let n = self.n;
        if out.shape() != (n, n) {
            out.reset_zeros(n, n);
        }
        let mut off = 0;
        for j in 0..n {
            for (k, &[re, im]) in self.data[off..off + n - j].iter().enumerate() {
                let z = c64::new(f64::from(re), f64::from(im));
                out.data[j * n + j + k] = z;
                if k > 0 {
                    out.data[(j + k) * n + j] = z.conj();
                }
            }
            off += n - j;
        }
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

    /// The index-loop form of [`CMat::decay_accumulate_hermitian`]: decay
    /// every entry, accumulate the lower triangle column by column, then
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

    fn bits(m: &CMat) -> Vec<(u64, u64)> {
        m.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    /// The stored entry `(i, j)`, `i ≥ j`, read through the documented
    /// packed index rather than [`PackedHermitian::unpack_into`].
    fn stored(p: &PackedHermitian, i: usize, j: usize) -> [f32; 2] {
        p.data[j * (2 * p.n + 1 - j) / 2 + (i - j)]
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

    /// [`CMat::decay_accumulate_hermitian`] fed the columns of a stored `x`.
    fn decay_stored(a: &mut CMat, lambda: f64, x: &CMat) {
        a.decay_accumulate_hermitian(lambda, |add| {
            for c in 0..x.cols() {
                add(x.col(c));
            }
        });
    }

    #[test]
    fn packed_decay_accumulate_is_bitwise_the_dense_kernel() {
        // One stream step is unpack → decay in f64 → store rounded. The
        // f64 update must be bitwise the index-loop kernel applied to the
        // stored triangle widened through the packed index, and the stored
        // triangle bitwise the f32 rounding of that update.
        let snapshot = |r: f64| {
            CMat::from_fn(5, 9, move |row, c| {
                c64::new((row * c) as f64 * 0.13 - r, row as f64 - c as f64 * r)
                    + c64::cis(row as f64 * r + c as f64 * 1.1)
            })
        };
        let mut packed = PackedHermitian::zeros(5);
        let first = snapshot(0.3).mul_hermitian_self();
        assert!(packed.store_rounded(&first));
        assert_eq!(stored_bits(&packed), rounded_lower_bits(&first));
        let mut out = CMat::default();
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
            packed.unpack_into(&mut out);
            decay_stored(&mut out, lambda, &x);
            assert_eq!(bits(&out), bits(&dense), "f64 update at λ = {lambda}");
            assert!(packed.store_rounded(&out));
            assert_eq!(
                stored_bits(&packed),
                rounded_lower_bits(&dense),
                "stored update at λ = {lambda}"
            );
        }
        assert_eq!(out, out.hermitian(), "decayed covariance must be Hermitian");
    }

    #[test]
    fn packed_decay_with_zero_lambda_is_the_fresh_covariance() {
        let x = CMat::from_fn(5, 9, |r, c| {
            c64::new((r * c) as f64 * 0.13 - 1.0, r as f64 - c as f64)
        });
        // Dirty starting state: λ = 0 must wipe it.
        let mut out = CMat::from_fn(5, 5, |_, _| c64::new(7.0, -3.0));
        decay_stored(&mut out, 0.0, &x);
        assert_eq!(out, x.mul_hermitian_self());
    }

    #[test]
    fn packed_unpack_roundtrips_into_a_dirty_buffer() {
        let x = CMat::from_fn(4, 7, |r, c| c64::cis(r as f64 * 0.3 + c as f64 * 1.1));
        let fresh = x.mul_hermitian_self();
        let mut packed = PackedHermitian::zeros(4);
        assert!(packed.store_rounded(&fresh));
        assert_eq!(packed.data.len(), 10);
        assert_eq!(std::mem::size_of_val(&packed.data[..]), 10 * 8);
        let mut out = CMat::from_fn(7, 2, |_, _| c64::new(9.0, -9.0));
        packed.unpack_into(&mut out);
        let widened = CMat::from_fn(4, 4, |i, j| {
            let z = fresh[(i, j)];
            c64::new(f64::from(z.re as f32), f64::from(z.im as f32))
        });
        assert_eq!(bits(&out), bits(&widened));
        assert_eq!(out, out.hermitian());
    }

    #[test]
    fn packed_store_reports_non_finite_and_f32_overflow() {
        let fresh = CMat::from_fn(4, 7, |r, c| c64::cis(r as f64 * 0.3 + c as f64 * 1.1))
            .mul_hermitian_self();
        let mut packed = PackedHermitian::zeros(4);
        for poison in [f64::NAN, f64::INFINITY, 1e39] {
            let mut bad = fresh.clone();
            bad[(2, 1)] = c64::new(0.5, poison);
            assert!(!packed.store_rounded(&bad), "{poison} stored as finite");
            assert!(packed.store_rounded(&fresh));
        }
        // The largest finite f32 still fits; the upper triangle is not read.
        let mut edge = fresh.clone();
        edge[(3, 0)] = c64::real(f64::from(f32::MAX));
        edge[(0, 3)] = c64::real(f64::INFINITY);
        assert!(packed.store_rounded(&edge));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_product_panics() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        let _ = a.mul(&b);
    }
}
