//! Cross-validation of the tridiagonal partial eigensolver against the
//! cyclic-Jacobi oracle.
//!
//! Production runs Householder tridiagonalization + implicit-shift QL +
//! inverse iteration ([`crate::eigen_tridiag`]); cyclic Jacobi
//! (`crate::eigen`, compiled only under `cfg(test)`) stays in the tree
//! purely as a slow, independently derived reference. These tests drive both over seeded random Hermitian
//! PSD matrices — including rank-deficient and clustered-eigenvalue cases —
//! and require:
//!
//! * eigenvalues to agree to 1e-10 relative to the spectral radius, and
//! * top-`k` subspace *projectors* (`P = V_k·V_kᴴ`) to agree to 1e-8 in
//!   Frobenius norm at spectral gaps.
//!
//! Projectors, not eigenvectors, are compared: individual eigenvectors are
//! only defined up to phase (and, inside a degenerate cluster, up to an
//! arbitrary rotation of the cluster subspace), but the projector onto an
//! eigenspace split at a spectral gap is unique — and it is exactly the
//! quantity MUSIC consumes (`G = I − E_S·E_Sᴴ`).

use crate::complex::c64;
use crate::eigen::hermitian_eigen;
use crate::eigen_tridiag::{
    hermitian_eigen_partial, hermitian_eigen_partial_in_place_by, TridiagWorkspace,
};
use crate::matrix::CMat;

const EIGENVALUE_RTOL: f64 = 1e-10;
const PROJECTOR_FTOL: f64 = 1e-8;

/// Small deterministic xorshift so the suite needs no external RNG.
fn sampler(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) * 2.0 - 1.0
    }
}

fn random_complex(rows: usize, cols: usize, seed: u64) -> CMat {
    let mut next = sampler(seed);
    CMat::from_fn(rows, cols, |_, _| c64::new(next(), next()))
}

/// Full-rank random Hermitian PSD: `G·Gᴴ` with square Gaussian-ish `G`.
fn random_psd(n: usize, seed: u64) -> CMat {
    random_complex(n, n, seed).mul_hermitian_self()
}

/// Rank-`r` PSD: `G·Gᴴ` with `G` of shape `n × r` (r < n ⇒ n − r zero
/// eigenvalues).
fn random_rank_deficient(n: usize, rank: usize, seed: u64) -> CMat {
    random_complex(n, rank, seed).mul_hermitian_self()
}

/// PSD with an exactly prescribed clustered spectrum: `A = Q·Λ·Qᴴ` where
/// `Q` is a random unitary (Gram–Schmidt of a random matrix) and `Λ`
/// repeats each `(eigenvalue, multiplicity)` cluster verbatim.
fn random_clustered(n: usize, clusters: &[(f64, usize)], seed: u64) -> CMat {
    assert_eq!(clusters.iter().map(|&(_, m)| m).sum::<usize>(), n);
    let g = random_complex(n, n, seed);
    let mut q = CMat::zeros(n, n);
    for j in 0..n {
        let mut v: Vec<c64> = g.col(j).to_vec();
        for prev in 0..j {
            let p = q.col(prev);
            let mut dot = c64::ZERO;
            for i in 0..n {
                dot += p[i].conj() * v[i];
            }
            for i in 0..n {
                v[i] -= p[i] * dot;
            }
        }
        let norm = v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert!(norm > 1e-8, "random matrix unexpectedly near-singular");
        for z in &mut v {
            *z = z.scale(1.0 / norm);
        }
        q.col_mut(j).copy_from_slice(&v);
    }
    let mut a = CMat::zeros(n, n);
    let mut col = 0usize;
    for &(lambda, mult) in clusters {
        for _ in 0..mult {
            let v = q.col(col).to_vec();
            for (j, vj) in v.iter().enumerate() {
                let vjc = vj.conj();
                for (i, vi) in v.iter().enumerate() {
                    a[(i, j)] += *vi * vjc * lambda;
                }
            }
            col += 1;
        }
    }
    a
}

/// `P = V[:, ..k]·V[:, ..k]ᴴ`.
fn projector_topk(vectors: &CMat, k: usize) -> CMat {
    let n = vectors.rows();
    let mut p = CMat::zeros(n, n);
    for c in 0..k {
        let v = vectors.col(c);
        for j in 0..n {
            let vj = v[j].conj();
            for i in 0..n {
                p[(i, j)] += v[i] * vj;
            }
        }
    }
    p
}

/// The `count` split points `k` with the largest relative spectral gaps
/// `λ_{k-1} − λ_k` — the places where a subspace projector is
/// well-conditioned and the two solvers must therefore agree tightly.
fn best_gap_ks(values: &[f64], count: usize) -> Vec<usize> {
    let lmax = values[0].abs().max(1e-300);
    let mut gaps: Vec<(f64, usize)> = (1..values.len())
        .map(|k| ((values[k - 1] - values[k]) / lmax, k))
        .collect();
    gaps.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap());
    gaps.into_iter().take(count).map(|(_, k)| k).collect()
}

/// Runs both solvers on `a` and asserts eigenvalue + top-`k` projector
/// agreement for every `k` in `ks`.
fn crosscheck(a: &CMat, ks: &[usize], label: &str) {
    let jac = hermitian_eigen(a);
    let max_k = ks.iter().copied().max().unwrap_or(1);
    let tri = hermitian_eigen_partial(a, max_k);

    assert_eq!(tri.values.len(), jac.values.len(), "{}", label);
    let scale = jac.values[0].abs().max(1.0);
    for (i, (t, j)) in tri.values.iter().zip(&jac.values).enumerate() {
        assert!(
            (t - j).abs() <= EIGENVALUE_RTOL * scale,
            "{}: eigenvalue {} mismatch: tridiagonal {} vs jacobi {} (scale {})",
            label,
            i,
            t,
            j,
            scale
        );
    }
    for &k in ks {
        let diff =
            (&projector_topk(&tri.vectors, k) - &projector_topk(&jac.vectors, k)).frobenius_norm();
        assert!(
            diff <= PROJECTOR_FTOL,
            "{}: top-{} projector differs by {:.3e} Frobenius",
            label,
            k,
            diff
        );
    }
}

#[test]
fn random_psd_matches_jacobi() {
    for &n in &[2usize, 5, 10, 30] {
        for seed in 1..=4u64 {
            let a = random_psd(n, seed.wrapping_mul(1000) + n as u64);
            // Validate at the three best-conditioned subspace splits.
            let jac = hermitian_eigen(&a);
            let ks = best_gap_ks(&jac.values, 3);
            crosscheck(&a, &ks, &format!("psd n={} seed={}", n, seed));
        }
    }
}

#[test]
fn rank_deficient_matches_jacobi() {
    // (n, rank) shaped like SpotFi's covariances: few strong paths, a large
    // null space. The split at k = rank (signal/null boundary) is the one
    // the noise projector depends on.
    for &(n, rank, seed) in &[
        (30usize, 4usize, 11u64),
        (30, 8, 12),
        (12, 3, 13),
        (30, 1, 14),
    ] {
        let a = random_rank_deficient(n, rank, seed);
        crosscheck(&a, &[rank], &format!("rank-deficient n={} r={}", n, rank));
        // The trailing eigenvalues must actually be (numerically) zero.
        let tri = hermitian_eigen_partial(&a, rank);
        let scale = tri.values[0].max(1.0);
        for &l in &tri.values[rank..] {
            assert!(
                l.abs() <= 1e-10 * scale,
                "null-space eigenvalue {} not ~0 (scale {})",
                l,
                scale
            );
        }
    }
}

#[test]
fn clustered_spectrum_matches_jacobi_at_cluster_boundaries() {
    // Exactly repeated eigenvalues: inverse iteration must reorthogonalize
    // within each degenerate cluster, and only the projectors at cluster
    // *boundaries* are well-defined quantities to compare.
    type ClusterCase<'a> = (&'a [(f64, usize)], &'a [usize]);
    let cases: &[ClusterCase] = &[
        (&[(40.0, 4), (10.0, 6), (0.5, 20)], &[4, 10]),
        (&[(100.0, 2), (99.0, 2), (1.0, 26)], &[2, 4]),
        (&[(7.0, 10), (3.0, 10), (1.0, 10)], &[10, 20]),
    ];
    for (i, (clusters, ks)) in cases.iter().enumerate() {
        let a = random_clustered(30, clusters, 21 + i as u64);
        crosscheck(&a, ks, &format!("clustered case {}", i));
    }
}

#[test]
fn near_null_cluster_from_signal_plus_noise() {
    // The SpotFi covariance shape itself: a strong rank-r "signal" plus a
    // tiny full-rank perturbation, leaving a tight near-zero cluster of
    // 30 − r noise eigenvalues. The signal/noise split must stay exact.
    let n = 30;
    let r = 5;
    let signal = random_rank_deficient(n, r, 31);
    let noise = random_psd(n, 32);
    let mut a = signal;
    let eps = 1e-8;
    for j in 0..n {
        for i in 0..n {
            a[(i, j)] += noise[(i, j)] * eps;
        }
    }
    crosscheck(&a, &[r], "signal-plus-noise");
}

#[test]
fn partial_matches_full_when_k_is_n() {
    // k = n exercises every inverse-iteration path (all clusters, the full
    // back-transform) and must still reproduce Jacobi's complete basis.
    let a = random_psd(10, 77);
    crosscheck(&a, &[10], "full-k");
}

#[test]
fn fewer_columns_are_the_leading_columns_of_a_wider_solve() {
    // A caller that picks its eigenvector count from the spectrum (MUSIC's
    // signal dimension) must get, for every count, the same eigenvalues and
    // the same leading columns as the widest solve, bit for bit: inverse
    // iteration starts each vector from its own index and reorthogonalizes
    // only against earlier ones, even when the count cuts a cluster.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let col_bits = |m: &CMat, c: usize| {
        m.col(c)
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut cases: Vec<(CMat, String)> = Vec::new();
    let clustered: &[&[(f64, usize)]] = &[
        &[(40.0, 4), (10.0, 6), (0.5, 20)],
        &[(100.0, 2), (99.0, 2), (1.0, 26)],
        &[(7.0, 10), (3.0, 10), (1.0, 10)],
    ];
    for (i, clusters) in clustered.iter().enumerate() {
        cases.push((
            random_clustered(30, clusters, 21 + i as u64),
            format!("clustered case {i}"),
        ));
    }
    for &(n, rank, seed) in &[
        (30usize, 4usize, 11u64),
        (30, 8, 12),
        (12, 3, 13),
        (30, 1, 14),
    ] {
        cases.push((
            random_rank_deficient(n, rank, seed),
            format!("rank-deficient n={n} r={rank}"),
        ));
    }
    cases.push((random_psd(30, 5), "psd n=30".to_string()));
    for (a, label) in &cases {
        let n = a.rows();
        let widest = hermitian_eigen_partial(a, n);
        let mut ws = TridiagWorkspace::default();
        for k in 0..n {
            let narrow = hermitian_eigen_partial(a, k);
            assert_eq!(
                bits(&narrow.values),
                bits(&widest.values),
                "{label}, k = {k}"
            );
            assert_eq!(narrow.vectors.shape(), (n, k), "{label}, k = {k}");
            // The count picked from the spectrum, in a reused workspace.
            ws.matrix_mut().assign_lower(a);
            hermitian_eigen_partial_in_place_by(&mut ws, |values| {
                assert_eq!(bits(values), bits(&widest.values), "{label}, k = {k}");
                k
            });
            assert_eq!(ws.vectors().shape(), (n, k), "{label}, k = {k}");
            for c in 0..k {
                let want = col_bits(&widest.vectors, c);
                assert_eq!(
                    col_bits(&narrow.vectors, c),
                    want,
                    "{label}, k = {k}, col {c}"
                );
                assert_eq!(col_bits(ws.vectors(), c), want, "{label}, k = {k}, col {c}");
            }
        }
    }
}
