//! Online dominant-subspace tracking for streaming covariances.
//!
//! [`SubspaceTracker`] maintains an orthonormal basis of the top-`k`
//! eigenspace of a slowly varying Hermitian matrix (the smoothed-CSI
//! covariance of a packet stream) without re-running the full
//! tridiagonalization every step. One [`refine`](SubspaceTracker::refine)
//! costs a single `n×n · n×k` product plus a `k×k` tridiagonal eigensolve —
//! roughly `n²k` complex MACs against the `O(n³)` Householder + QL batch
//! solver — which is what makes a sub-millisecond per-packet hot path
//! possible.
//!
//! The scheme is one step of a block power method with Rayleigh–Ritz
//! extraction (the same family as PAST/FAPI trackers, but kept exactly
//! orthonormal):
//!
//! 1. `Y = R·E` — one product against the current basis `E` (n×k).
//! 2. `B = Eᴴ·Y` — the k×k Rayleigh quotient (Hermitian when `E` is
//!    orthonormal, up to rounding: all k² entries are formed, the lower
//!    triangle is kept for the solve).
//! 3. **drift** `= ‖Y − E·B‖_F / ‖Y‖_F` — the fraction of `R·E`'s energy
//!    outside `span(E)`; since `Eᴴ(Y − E·B) = 0`, it is computed for free
//!    as `√(‖Y‖² − ‖B‖²)/‖Y‖` with no extra product. A converged subspace
//!    gives ≈ 0; a target that moved gives a large value, and the caller
//!    falls back to the exact solver.
//! 4. `B = W·Λ·Wᴴ` — tiny k×k eigensolve in the tracker's own
//!    [`TridiagWorkspace`], where step 2 built `B`; `Λ` descending.
//! 5. Ritz pairs `(Λ, V = E·W)` become this step's eigen-estimate — `V`
//!    is exactly orthonormal because `E` is and `W` is unitary.
//! 6. `E ← orth(Y·W)` — the power step (re-orthonormalized by modified
//!    Gram–Schmidt) primes the basis for the next packet.
//!
//! Only `E` carries from one step to the next; `Y`, `B` and the Ritz pairs
//! are per-step products in the tracker's own buffers. A caller that keeps
//! many bases at rest stores each as a [`StoredBasis`] of `f32` pairs and
//! runs one `f64` tracker per worker:
//! [`load_rounded`](SubspaceTracker::load_rounded) widens a stored basis
//! and re-orthonormalizes it before a step,
//! [`store_rounded`](SubspaceTracker::store_rounded) rounds it back after.
//!
//! The tracker is an *estimator with a safety net*, not a replacement for
//! the exact solver: callers re-seed from the batch eigendecomposition
//! whenever drift trips a threshold or on a periodic re-anchor schedule.

use crate::complex::c64;
use crate::eigen_tridiag::{hermitian_eigen_partial_in_place, TridiagWorkspace};
use crate::matrix::{CMat, PackedHermitianF64};

/// Relative column-norm floor below which Gram–Schmidt declares breakdown.
const ORTH_BREAKDOWN_REL: f64 = 1e-12;

/// Tracks the dominant eigenspace of a slowly varying Hermitian matrix.
///
/// The tracker holds the orthonormal n×k basis one step hands the next,
/// and every buffer a step computes along the way: `R·E`, the Rayleigh
/// quotient, this step's Ritz pairs ([`values`](Self::values),
/// [`vectors`](Self::vectors)). A server tracking thousands of streams
/// keeps one tracker per worker and each stream's basis at rest as a
/// [`StoredBasis`]. Every buffer is sized by its first use, so a tracker
/// that never tracks holds no heap.
///
/// ```
/// use spotfi_math::{c64, hermitian_eigen_partial, CMat, PackedHermitianF64, SubspaceTracker};
///
/// // A fixed covariance: tracking it is power iteration from the exact
/// // answer, so drift is ~0 and the Ritz values match the spectrum. Two
/// // "paths" keep the tracked 2-D subspace full rank.
/// let x = CMat::from_fn(6, 10, |r, c| {
///     c64::cis(r as f64 * 0.7 + c as f64 * 0.3) + c64::cis(r as f64 * 1.9 + c as f64 * 1.2) * 0.5
/// });
/// let r = x.mul_hermitian_self();
/// let eig = hermitian_eigen_partial(&r, 2);
///
/// let mut t = SubspaceTracker::new();
/// t.seed(&eig.vectors, 2);
/// let mut packed = PackedHermitianF64::default();
/// packed.assign_lower(&r);
/// let drift = t.refine(&packed);
/// assert!(drift < 1e-8);
/// assert!((t.values()[0] - eig.values[0]).abs() < 1e-8 * eig.values[0]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SubspaceTracker {
    /// Orthonormal n×k basis primed for the *next* refine (post power step).
    basis: CMat,
    /// This step's Ritz vectors (n×k, orthonormal, by descending value).
    ritz_vectors: CMat,
    /// The k×k eigensolve's buffers: the Rayleigh quotient is built in
    /// its matrix and solved there; its values are this step's Ritz
    /// values and its vectors the rotation `W`.
    eig: TridiagWorkspace,
    /// `Y = R·E` (n×k).
    y: CMat,
    /// Staging for `E·W` / `Y·W` products.
    stage: CMat,
}

/// A tracker basis at rest: the n×k columns of a [`SubspaceTracker`]'s
/// basis, column-major, each entry rounded to a pair of `f32` (8 B instead
/// of a [`c64`]'s 16). Empty when the tracker it came from was unseeded.
///
/// Only the storage is single precision.
/// [`SubspaceTracker::load_rounded`] widens it exactly into an `f64`
/// tracker and re-orthonormalizes it there with the same modified
/// Gram–Schmidt a refine ends with, so the refine that follows starts from
/// a basis orthonormal to `f64` precision (its drift identity assumes
/// one); [`SubspaceTracker::store_rounded`] rounds the refined or re-seeded
/// basis back, by at most 2⁻²⁴ relative per component.
///
/// ```
/// use spotfi_math::{
///     c64, hermitian_eigen_partial, CMat, PackedHermitianF64, StoredBasis, SubspaceTracker,
/// };
///
/// let x = CMat::from_fn(6, 10, |r, c| {
///     c64::cis(r as f64 * 0.7 + c as f64 * 0.3) + c64::cis(r as f64 * 1.9 + c as f64 * 1.2) * 0.5
/// });
/// let dense = x.mul_hermitian_self();
/// let mut r = PackedHermitianF64::default();
/// r.assign_lower(&dense);
/// let mut t = SubspaceTracker::new();
/// t.seed(&hermitian_eigen_partial(&dense, 2).vectors, 2);
///
/// // At rest between steps: rounded to f32, then widened and
/// // re-orthonormalized in f64 before the next step.
/// let mut stored = StoredBasis::default();
/// t.store_rounded(&mut stored);
/// let mut worker = SubspaceTracker::new();
/// assert!(worker.load_rounded(&stored));
/// assert!(worker.refine(&r) < 1e-6);
/// ```
#[derive(Clone, Debug, Default)]
pub struct StoredBasis {
    rows: usize,
    cols: usize,
    /// Column-major `[re, im]` pairs, `rows × cols` of them.
    data: Vec<[f32; 2]>,
}

impl StoredBasis {
    /// `true` when no basis is stored.
    fn is_empty(&self) -> bool {
        self.cols == 0
    }

    /// Drops the stored basis and its allocation.
    pub fn clear(&mut self) {
        *self = StoredBasis::default();
    }
}

impl SubspaceTracker {
    /// An empty (unseeded) tracker. [`refine`](Self::refine) on an unseeded
    /// tracker returns `f64::INFINITY` so callers route to the exact solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` once [`seed`](Self::seed) has installed a basis.
    pub fn is_seeded(&self) -> bool {
        self.basis.cols() > 0
    }

    /// Installs the leading `k` columns of an exact eigenbasis from the
    /// batch solver (`vectors`: orthonormal, n×(≥ k), by descending
    /// eigenvalue). This is both the initial seed and the periodic
    /// re-anchor. The basis is sized to exactly `k` columns, reusing its
    /// allocation, so re-seeding at an unchanged shape allocates nothing.
    ///
    /// # Panics
    /// Panics if `vectors` has fewer than `k` columns.
    pub fn seed(&mut self, vectors: &CMat, k: usize) {
        assert!(k <= vectors.cols(), "subspace seed has too few vectors");
        self.basis.assign_leading_cols(vectors, k);
    }

    /// Forgets the tracked basis; the next [`refine`](Self::refine) reports
    /// infinite drift.
    pub fn reset(&mut self) {
        self.basis = CMat::default();
    }

    /// Rounds the basis into `out`, each component to the nearest `f32`.
    /// `out` is sized to exactly the basis, reusing its allocation, so
    /// storing a basis of an unchanged shape allocates nothing. An unseeded
    /// tracker stores an empty basis.
    pub fn store_rounded(&self, out: &mut StoredBasis) {
        let len = self.basis.as_slice().len();
        out.rows = self.basis.rows();
        out.cols = self.basis.cols();
        out.data.clear();
        out.data.reserve_exact(len);
        out.data.shrink_to(len);
        out.data.extend(
            self.basis
                .as_slice()
                .iter()
                .map(|z| [z.re as f32, z.im as f32]),
        );
    }

    /// Replaces the basis with `stored`, widened exactly to `f64` and
    /// re-orthonormalized by the modified Gram–Schmidt that ends every
    /// [`refine`](Self::refine). Returns `false`, leaving the tracker
    /// unseeded, when `stored` is empty or Gram–Schmidt breaks down (a
    /// non-finite or rank-deficient basis): the caller must re-anchor.
    pub fn load_rounded(&mut self, stored: &StoredBasis) -> bool {
        self.basis.reset_zeros(stored.rows, stored.cols);
        for (z, &[re, im]) in self.basis.as_mut_slice().iter_mut().zip(&stored.data) {
            *z = c64::new(f64::from(re), f64::from(im));
        }
        if stored.is_empty() || !orthonormalize_columns(&mut self.basis) {
            self.reset();
            return false;
        }
        true
    }

    /// The last successful refine's Ritz values (descending).
    pub fn values(&self) -> &[f64] {
        self.eig.values()
    }

    /// The last successful refine's Ritz vectors (n×k, orthonormal
    /// columns, ordered by descending value).
    pub fn vectors(&self) -> &CMat {
        &self.ritz_vectors
    }

    /// One tracking step against the Hermitian matrix `r`, given as its
    /// packed lower triangle. Writes this step's Ritz pairs
    /// ([`values`](Self::values) / [`vectors`](Self::vectors)), primes the
    /// basis for the next step, and returns the relative subspace drift
    /// (see module docs).
    ///
    /// Returns `f64::INFINITY` when the tracker is unseeded, the input is
    /// degenerate, or orthonormalization breaks down (a rank-deficient
    /// update). On every infinite return the basis is left exactly as it
    /// was, so a later refine starts from the last good basis; the Ritz
    /// pairs are unspecified. Callers must treat a drift above their
    /// threshold as "re-anchor with the exact solver" and not read them.
    ///
    /// # Panics
    /// Panics if `r`'s size disagrees with the seed.
    pub fn refine(&mut self, r: &PackedHermitianF64) -> f64 {
        if !self.is_seeded() {
            return f64::INFINITY;
        }
        let n = self.basis.rows();
        let k = self.basis.cols();
        assert_eq!(r.n(), n, "covariance shape disagrees with seed");

        // 1. Y = R·E.
        hermitian_mul_into(r, &self.basis, &mut self.y);

        // 2. B = Eᴴ·Y (k×k), built in the eigensolver's own matrix. In
        //    floating point B is not exactly Hermitian, so ‖B‖² sums all k²
        //    entries, column-major, as they are formed; the solve reads
        //    only the lower triangle, which is all that is kept.
        let quotient = self.eig.matrix_mut();
        quotient.reset_zeros(k);
        let mut b_sq = 0.0;
        for j in 0..k {
            let ycol = self.y.col(j);
            for i in 0..k {
                let ecol = self.basis.col(i);
                let mut acc = c64::ZERO;
                for row in 0..n {
                    acc += ecol[row].conj() * ycol[row];
                }
                b_sq += acc.norm_sqr();
                if i >= j {
                    quotient[(i, j)] = acc;
                }
            }
        }

        // 3. Relative drift from the norm identity ‖Y − E·B‖² = ‖Y‖² − ‖B‖²
        //    (exact because Eᴴ(Y − E·B) = 0 for orthonormal E).
        let y_sq: f64 = self.y.as_slice().iter().map(|z| z.norm_sqr()).sum();
        if !y_sq.is_finite() || y_sq <= 0.0 {
            return f64::INFINITY;
        }
        let drift = ((y_sq - b_sq).max(0.0) / y_sq).sqrt();

        // 4. Tiny k×k eigensolve of the Rayleigh quotient, in place.
        hermitian_eigen_partial_in_place(k, &mut self.eig);

        // 5. Ritz vectors V = E·W become this step's estimate.
        mul_into(&self.basis, self.eig.vectors(), &mut self.stage);
        std::mem::swap(&mut self.ritz_vectors, &mut self.stage);

        // 6. Power step: E ← orth(Y·W). Reuses the Ritz rotation so the
        //    columns arrive roughly sorted by eigenvalue, which keeps
        //    Gram–Schmidt well conditioned.
        mul_into(&self.y, self.eig.vectors(), &mut self.stage);
        if !orthonormalize_columns(&mut self.stage) {
            // Breakdown (rank-deficient update): keep the previous basis and
            // force the caller to re-anchor.
            return f64::INFINITY;
        }
        std::mem::swap(&mut self.basis, &mut self.stage);

        drift
    }
}

/// `out = R · b` for the Hermitian `R` whose packed lower triangle is `r`,
/// reusing `out`'s allocation. Column `inner` of `R` is read as the
/// conjugates of row `inner` of the stored triangle above the diagonal and
/// as stored from the diagonal down; every output entry accumulates in
/// [`mul_into`]'s order, so the result is bitwise [`mul_into`] on the
/// mirrored dense `R`.
fn hermitian_mul_into(r: &PackedHermitianF64, b: &CMat, out: &mut CMat) {
    let n = r.n();
    assert_eq!(n, b.rows(), "hermitian_mul_into dimension mismatch");
    let lower = r.as_slice();
    out.reset_zeros(n, b.cols());
    for c in 0..b.cols() {
        let ocol = out.col_mut(c);
        for inner in 0..n {
            let f = b[(inner, c)];
            if f == c64::ZERO {
                continue;
            }
            // Rows above the diagonal: R[(row, inner)] = conj(R[(inner, row)]),
            // stored in column `row`, whose successor starts n − row − 1
            // entries further on in row `inner`.
            let mut at = inner;
            for (row, dst) in ocol[..inner].iter_mut().enumerate() {
                *dst += lower[at].conj() * f;
                at += n - 1 - row;
            }
            for (dst, &s) in ocol[inner..].iter_mut().zip(r.col(inner)) {
                *dst += s * f;
            }
        }
    }
}

/// `out = a · b`, reusing `out`'s allocation.
fn mul_into(a: &CMat, b: &CMat, out: &mut CMat) {
    assert_eq!(a.cols(), b.rows(), "mul_into dimension mismatch");
    let (n, k) = (a.rows(), b.cols());
    out.reset_zeros(n, k);
    for c in 0..k {
        for inner in 0..a.cols() {
            let f = b[(inner, c)];
            if f == c64::ZERO {
                continue;
            }
            let acol = a.col(inner);
            let ocol = out.col_mut(c);
            for (dst, &s) in ocol.iter_mut().zip(acol) {
                *dst += s * f;
            }
        }
    }
}

/// In-place modified Gram–Schmidt on the columns. Returns `false` on
/// breakdown (a column whose remaining norm is negligible relative to the
/// matrix scale).
fn orthonormalize_columns(m: &mut CMat) -> bool {
    let (n, k) = m.shape();
    let scale = m.frobenius_norm();
    if !scale.is_finite() || scale <= 0.0 {
        return false;
    }
    let floor = scale * ORTH_BREAKDOWN_REL;
    for j in 0..k {
        // Project out the already-orthonormal columns (modified GS: one
        // column at a time against the *current* residual).
        for i in 0..j {
            let mut dot = c64::ZERO;
            for row in 0..n {
                dot += m[(row, i)].conj() * m[(row, j)];
            }
            for row in 0..n {
                let sub = m[(row, i)] * dot;
                m[(row, j)] -= sub;
            }
        }
        let norm = m.col(j).iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm.is_nan() || norm <= floor {
            return false;
        }
        let inv = 1.0 / norm;
        for z in m.col_mut(j) {
            *z *= inv;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::hermitian_eigen;

    fn top_k(values: &[f64], k: usize) -> &[f64] {
        &values[..k]
    }

    /// n×k leading eigenvector block of a Hermitian matrix via the Jacobi
    /// oracle.
    fn exact_seed(r: &CMat, k: usize) -> CMat {
        let mut seed = CMat::default();
        seed.assign_leading_cols(&hermitian_eigen(r).vectors, k);
        seed
    }

    fn seeded(r: &CMat, k: usize) -> SubspaceTracker {
        let mut t = SubspaceTracker::new();
        t.seed(&exact_seed(r, k), k);
        t
    }

    /// The packed lower triangle of the dense Hermitian `r`.
    fn packed(r: &CMat) -> PackedHermitianF64 {
        let mut p = PackedHermitianF64::default();
        p.assign_lower(r);
        p
    }

    fn bits(m: &CMat) -> Vec<(u64, u64)> {
        m.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    fn vbits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A multipath-style covariance: six rank-1 "paths" with distinct
    /// spatial rates and graded amplitudes, so the top-4 subspace is well
    /// defined with real eigenvalue gaps. `phase` rotates the paths'
    /// spatial signatures (the moving-target analogue).
    fn covariance(phase: f64) -> CMat {
        const PATHS: [(f64, f64, f64); 6] = [
            (0.61, 0.23, 1.0),
            (1.90, 1.13, 0.65),
            (2.70, 0.47, 0.40),
            (0.95, 2.31, 0.25),
            (1.40, 1.71, 0.15),
            (2.20, 0.89, 0.08),
        ];
        let x = CMat::from_fn(12, 20, |r, c| {
            let mut z = c64::ZERO;
            for &(a, b, amp) in &PATHS {
                z += c64::cis(r as f64 * (a + phase) + c as f64 * b) * amp;
            }
            z
        });
        x.mul_hermitian_self()
    }

    #[test]
    fn static_matrix_tracks_exact_spectrum() {
        let r = covariance(0.0);
        let mut t = seeded(&r, 4);
        for _ in 0..5 {
            let drift = t.refine(&packed(&r));
            assert!(drift < 1e-9, "static matrix must not drift: {}", drift);
        }
        let eig = hermitian_eigen(&r);
        for (got, want) in t.values().iter().zip(top_k(&eig.values, 4)) {
            assert!(
                (got - want).abs() < 1e-8 * want.abs().max(1.0),
                "Ritz value {} vs exact {}",
                got,
                want
            );
        }
    }

    #[test]
    fn ritz_values_match_the_oracle_on_a_non_diagonal_quotient() {
        // Seeded from another covariance's eigenbasis, the Rayleigh
        // quotient is far from diagonal, so the k×k solve does real work.
        let mut t = seeded(&covariance(0.0), 4);
        let r = covariance(0.3);
        // Eᴴ·R·E from the basis the refine starts from.
        let quotient = t.basis.hermitian().mul(&r).mul(&t.basis);
        t.refine(&packed(&r));
        let off_diagonal = (0..4)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .map(|(i, j)| quotient[(i, j)].abs())
            .fold(0.0f64, f64::max);
        assert!(
            off_diagonal > 1e-3 * quotient[(0, 0)].abs(),
            "quotient is nearly diagonal: {}",
            off_diagonal
        );
        let oracle = hermitian_eigen(&quotient);
        assert_eq!(t.values().len(), oracle.values.len());
        for (got, want) in t.values().iter().zip(&oracle.values) {
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "Ritz value {} vs oracle {}",
                got,
                want
            );
        }
    }

    /// The Ritz step on dense buffers, as it ran before the quotient moved
    /// into the eigensolver's matrix and that matrix was packed: `B` in a
    /// dense k×k buffer of its own, `‖B‖²` summed over its storage, then
    /// the copying solve, and the power step copied into the basis rather
    /// than swapped. `R·E` is the production product on the packed `r`,
    /// or, given `dense_r` (the mirrored dense `r`), [`mul_into`] on that.
    /// Kept as the oracle for `refine`'s bits.
    fn refine_dense_reference(
        t: &mut SubspaceTracker,
        r: &PackedHermitianF64,
        dense_r: Option<&CMat>,
        quotient: &mut CMat,
    ) -> f64 {
        use crate::eigen_tridiag::hermitian_eigen_partial_into;
        let (n, k) = t.basis.shape();
        match dense_r {
            Some(dense) => mul_into(dense, &t.basis, &mut t.y),
            None => hermitian_mul_into(r, &t.basis, &mut t.y),
        }
        quotient.reset_zeros(k, k);
        for j in 0..k {
            let ycol = t.y.col(j);
            for i in 0..k {
                let ecol = t.basis.col(i);
                let mut acc = c64::ZERO;
                for row in 0..n {
                    acc += ecol[row].conj() * ycol[row];
                }
                quotient[(i, j)] = acc;
            }
        }
        let y_sq: f64 = t.y.as_slice().iter().map(|z| z.norm_sqr()).sum();
        let b_sq: f64 = quotient.as_slice().iter().map(|z| z.norm_sqr()).sum();
        if !y_sq.is_finite() || y_sq <= 0.0 {
            return f64::INFINITY;
        }
        let drift = ((y_sq - b_sq).max(0.0) / y_sq).sqrt();
        hermitian_eigen_partial_into(quotient, k, &mut t.eig);
        mul_into(&t.basis, t.eig.vectors(), &mut t.stage);
        std::mem::swap(&mut t.ritz_vectors, &mut t.stage);
        mul_into(&t.y, t.eig.vectors(), &mut t.stage);
        if !orthonormalize_columns(&mut t.stage) {
            return f64::INFINITY;
        }
        t.basis.assign_leading_cols(&t.stage, k);
        drift
    }

    /// 40 covariances of a target that drifts by seeded amounts, with a
    /// seeded jump every tenth step so some steps report large drift.
    fn drifting_covariances() -> Vec<CMat> {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as f64 / u64::MAX as f64
        };
        let mut phase = 0.0;
        (0..40)
            .map(|step| {
                phase += if step % 10 == 9 { 0.5 } else { 0.01 } * next();
                covariance(phase)
            })
            .collect()
    }

    #[test]
    fn in_place_quotient_is_bitwise_the_two_buffer_step() {
        // The packed quotient, solved in place, against the dense k×k
        // quotient in a buffer of its own and the copying solve, on the
        // same packed covariance.
        let mut t = seeded(&covariance(0.0), 4);
        let mut old = t.clone();
        let mut quotient = CMat::default();
        for (step, r) in drifting_covariances().iter().enumerate() {
            let r = packed(r);
            let drift = t.refine(&r);
            let want = refine_dense_reference(&mut old, &r, None, &mut quotient);
            assert_eq!(drift.to_bits(), want.to_bits(), "drift at step {step}");
            assert_eq!(vbits(t.values()), vbits(old.values()), "step {step}");
            assert_eq!(bits(t.vectors()), bits(old.vectors()), "step {step}");
            assert_eq!(bits(&t.basis), bits(&old.basis), "step {step}");
        }
    }

    #[test]
    fn packed_refine_is_bitwise_the_dense_mirrored_reference() {
        // The whole step on packed storage (`R·E` reading the upper half as
        // the conjugate of the stored lower half, ‖B‖² summed as B is
        // formed, only B's lower triangle kept) against the dense step on
        // the mirrored covariance and the full quotient. The quotients are
        // not exactly Hermitian, so an ‖B‖² over the stored triangle, or
        // over a mirrored one, would move the drift's bits.
        let mut t = seeded(&covariance(0.0), 4);
        let mut old = t.clone();
        let mut quotient = CMat::default();
        let mut non_hermitian = 0;
        for (step, dense) in drifting_covariances().iter().enumerate() {
            let r = packed(dense);
            let drift = t.refine(&r);
            let want = refine_dense_reference(&mut old, &r, Some(dense), &mut quotient);
            non_hermitian += usize::from(quotient != quotient.hermitian());
            assert_eq!(drift.to_bits(), want.to_bits(), "drift at step {step}");
            assert_eq!(vbits(t.values()), vbits(old.values()), "step {step}");
            assert_eq!(bits(t.vectors()), bits(old.vectors()), "step {step}");
            assert_eq!(bits(&t.basis), bits(&old.basis), "step {step}");
        }
        assert!(
            non_hermitian >= 20,
            "only {non_hermitian} of 40 quotients are not exactly Hermitian"
        );
    }

    #[test]
    fn ritz_vectors_stay_orthonormal() {
        let mut t = seeded(&covariance(0.3), 5);
        for step in 0..4 {
            t.refine(&packed(&covariance(0.3 + 0.01 * step as f64)));
            let v = t.vectors();
            for i in 0..5 {
                for j in 0..5 {
                    let mut dot = c64::ZERO;
                    for row in 0..v.rows() {
                        dot += v[(row, i)].conj() * v[(row, j)];
                    }
                    let want = if i == j { 1.0 } else { 0.0 };
                    assert!(
                        (dot.re - want).abs() < 1e-10 && dot.im.abs() < 1e-10,
                        "vᵢᴴvⱼ = {:?} at ({}, {})",
                        dot,
                        i,
                        j
                    );
                }
            }
        }
    }

    #[test]
    fn slow_drift_stays_below_threshold_and_tracks_values() {
        let mut t = seeded(&covariance(0.0), 4);
        for step in 1..=8 {
            let r = covariance(0.002 * step as f64);
            let drift = t.refine(&packed(&r));
            assert!(drift < 0.1, "slow drift tripped the threshold: {}", drift);
            let oracle = hermitian_eigen(&r);
            let rel = (t.values()[0] - oracle.values[0]).abs() / oracle.values[0];
            assert!(rel < 1e-2, "top Ritz value off by {:.2e}", rel);
        }
    }

    #[test]
    fn large_jump_reports_large_drift() {
        let mut t = seeded(&covariance(0.0), 4);
        // A completely different channel: most of R·E leaves the old span.
        let jumped = covariance(1.4);
        let drift = t.refine(&packed(&jumped));
        assert!(
            drift > 0.1,
            "jump must trip the fallback threshold: {}",
            drift
        );
    }

    #[test]
    fn unseeded_and_degenerate_inputs_force_fallback() {
        let mut t = SubspaceTracker::new();
        assert!(!t.is_seeded());
        assert_eq!(t.refine(&packed(&covariance(0.0))), f64::INFINITY);

        let mut t = seeded(&covariance(0.0), 3);
        assert!(t.is_seeded());
        let before = bits(&t.basis);
        let zero = CMat::zeros(12, 12);
        assert_eq!(t.refine(&packed(&zero)), f64::INFINITY);
        assert_eq!(bits(&t.basis), before, "degenerate input moved the basis");

        t.reset();
        assert!(!t.is_seeded());
    }

    #[test]
    fn breakdown_leaves_the_basis_bit_unchanged_and_recovers() {
        // A rank-1 covariance against a 3-column basis: Y = R·E has rank 1,
        // so Gram–Schmidt of Y·W breaks down on its second column — after
        // the tracker's Ritz pairs were already overwritten.
        let r = covariance(0.0);
        let mut t = seeded(&r, 3);
        let before = bits(&t.basis);
        let rank1 = CMat::from_fn(12, 1, |i, _| c64::cis(i as f64 * 0.8)).mul_hermitian_self();
        assert_eq!(t.refine(&packed(&rank1)), f64::INFINITY);
        assert_eq!(t.values().len(), 3, "the breakdown must come after step 5");
        assert_eq!(bits(&t.basis), before, "breakdown moved the basis");

        // The next refine starts from the untouched basis and behaves
        // exactly like a tracker that never saw the rank-deficient input.
        let mut fresh = seeded(&r, 3);
        let drift = t.refine(&packed(&r));
        assert!(drift < 1e-9, "post-breakdown refine drifted: {}", drift);
        assert_eq!(drift.to_bits(), fresh.refine(&packed(&r)).to_bits());
        assert_eq!(bits(t.vectors()), bits(fresh.vectors()));
        assert_eq!(bits(&t.basis), bits(&fresh.basis));
    }

    #[test]
    fn one_tracker_interleaved_over_stored_bases_matches_fresh_trackers() {
        // One tracker loading, refining and storing two bases of different
        // ranks in turn gives each the bits a fresh tracker gets from the
        // same stored basis: nothing carries over from one basis to the next.
        let mut stored = [StoredBasis::default(), StoredBasis::default()];
        seeded(&covariance(0.0), 4).store_rounded(&mut stored[0]);
        seeded(&covariance(0.7), 2).store_rounded(&mut stored[1]);
        let mut want = stored.clone();
        let mut shared = SubspaceTracker::new();
        let stored_bits = |s: &StoredBasis| {
            s.data
                .iter()
                .map(|&[re, im]| (re.to_bits(), im.to_bits()))
                .collect::<Vec<_>>()
        };
        for step in 1..=4 {
            let phase = 0.003 * step as f64;
            for (which, r) in [covariance(phase), covariance(0.7 - phase)]
                .iter()
                .enumerate()
            {
                let mut fresh = SubspaceTracker::new();
                assert!(fresh.load_rounded(&want[which]));
                let drift = fresh.refine(&packed(r));
                fresh.store_rounded(&mut want[which]);

                assert!(shared.load_rounded(&stored[which]));
                let ctx = format!("basis {which} step {step}");
                assert_eq!(
                    shared.refine(&packed(r)).to_bits(),
                    drift.to_bits(),
                    "{ctx}"
                );
                assert_eq!(vbits(shared.values()), vbits(fresh.values()), "{ctx}");
                assert_eq!(bits(shared.vectors()), bits(fresh.vectors()), "{ctx}");
                shared.store_rounded(&mut stored[which]);
                assert_eq!(
                    stored_bits(&stored[which]),
                    stored_bits(&want[which]),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn reseeding_and_refining_reuse_the_buffers() {
        let r = covariance(0.0);
        let eig = hermitian_eigen(&r);
        let mut t = SubspaceTracker::new();
        // Seed from the leading 3 of all 12 eigenvectors, as the pipeline
        // does when it caps the tracked rank.
        t.seed(&eig.vectors, 3);
        let buffer = |t: &SubspaceTracker| (t.basis.as_slice().as_ptr(), t.basis.capacity());
        let before = buffer(&t);
        assert_eq!(before.1, 12 * 3, "basis must be sized exactly");
        let vecs = exact_seed(&covariance(0.2), 3);
        t.seed(&vecs, 3);
        assert_eq!(buffer(&t), before, "re-seed reallocated the basis");
        assert_eq!(t.basis, vecs);
        // The first refine sizes the per-step buffers; later refines at the
        // same shape only trade the n×k buffers among basis, Ritz vectors
        // and staging, allocating none.
        t.refine(&packed(&covariance(0.2)));
        let buffers = |t: &SubspaceTracker| {
            let mut all = [&t.basis, &t.ritz_vectors, &t.stage, &t.y]
                .map(|m| (m.as_slice().as_ptr(), m.capacity()));
            all.sort();
            all
        };
        let sized = buffers(&t);
        for step in 1..=3 {
            t.refine(&packed(&covariance(0.2 + 0.001 * step as f64)));
            assert_eq!(buffers(&t), sized, "refine {step} reallocated a buffer");
        }
    }

    #[test]
    fn refine_beats_stale_estimate() {
        // After a modest rotation, one refine step should explain the new
        // covariance better than the stale seed does: compare the Rayleigh
        // quotient energy captured by tracked vs. frozen bases.
        let r0 = covariance(0.0);
        let r1 = covariance(0.05);
        let vecs = exact_seed(&r0, 4);
        let mut t = SubspaceTracker::new();
        t.seed(&vecs, 4);
        t.refine(&packed(&r1));
        let captured = |basis: &CMat| -> f64 {
            let mut total = 0.0;
            for j in 0..basis.cols() {
                total += r1.quadratic_form(basis.col(j)).re;
            }
            total
        };
        let tracked = captured(t.vectors());
        let stale = captured(&vecs);
        assert!(
            tracked >= stale - 1e-9,
            "tracking lost energy: {} vs {}",
            tracked,
            stale
        );
    }

    #[test]
    fn stored_basis_reloads_orthonormal_within_f32_rounding() {
        // Round trip through f32 storage: each entry within f32 rounding
        // of the original, and re-orthonormalized to f64 precision.
        let mut t = seeded(&covariance(0.0), 4);
        t.refine(&packed(&covariance(0.01)));
        let mut stored = StoredBasis::default();
        t.store_rounded(&mut stored);
        assert_eq!(
            (stored.rows, stored.cols, stored.data.capacity()),
            (12, 4, 48)
        );
        let mut loaded = SubspaceTracker::new();
        assert!(loaded.load_rounded(&stored));
        for (a, b) in loaded.basis.as_slice().iter().zip(t.basis.as_slice()) {
            assert!((*a - *b).abs() < 1e-6, "{a:?} vs {b:?}");
        }
        let gram = loaded.basis.hermitian().mul(&loaded.basis);
        let off = (&gram - &CMat::identity(4)).max_abs();
        assert!(off < 1e-14, "reloaded basis is off orthonormal by {off:e}");
        // Storing a basis of an unchanged shape keeps the allocation.
        let before = stored.data.as_ptr();
        loaded.store_rounded(&mut stored);
        assert_eq!(stored.data.as_ptr(), before);
    }

    #[test]
    fn unloadable_stored_bases_leave_the_tracker_unseeded() {
        let mut t = seeded(&covariance(0.0), 3);
        assert!(!t.load_rounded(&StoredBasis::default()));
        assert!(!t.is_seeded());
        let mut stored = StoredBasis::default();
        seeded(&covariance(0.0), 3).store_rounded(&mut stored);
        stored.data[5][0] = f32::NAN;
        assert!(!t.load_rounded(&stored));
        assert!(!t.is_seeded());
        // A repeated column is rank deficient: Gram–Schmidt breaks down.
        stored.data.copy_within(0..12, 12);
        stored.data[5][0] = 0.5;
        assert!(!t.load_rounded(&stored));
        assert_eq!(t.refine(&packed(&covariance(0.0))), f64::INFINITY);
        stored.clear();
        assert!(stored.is_empty());
    }
}
