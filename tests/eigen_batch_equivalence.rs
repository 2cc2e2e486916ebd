//! Batched-vs-scalar eigensolver equivalence: seeded property tests.
//!
//! The batched entry point
//! ([`spotfi::math::hermitian_eigen_partial_batch_into`]) decomposes each
//! matrix of a batch in its own workspace, so its results must be
//! bit-identical to [`spotfi::math::hermitian_eigen_partial_into`] — not
//! merely close — whatever the batch size, order or contents. These tests
//! pin that contract with exact (`to_bits`) comparisons across the
//! covariance families the pipeline actually produces, plus the documented
//! numerical tolerances (eigenvalues ≤ 1e-12 relative, noise projectors
//! ≤ 1e-10 Frobenius) that would become the acceptance bound if a batched
//! kernel ever legitimately diverged (e.g. by adopting fused multiply-add).
//!
//! Each test draws its cases from a seeded [`Rng`] loop, so runs are fully
//! deterministic and need no external property-testing framework (same
//! pattern as `tests/properties.rs`).

use spotfi::channel::Rng;
use spotfi::core::sanitize::sanitize_csi;
use spotfi::core::steering::steering_vector;
use spotfi::core::{smoothed_csi, SpotFiConfig};
use spotfi::math::{
    c64, hermitian_eigen_partial_batch_into, hermitian_eigen_partial_into, BatchTridiagWorkspace,
    CMat, TridiagWorkspace, BATCH_LANES,
};
use spotfi::{AntennaArray, Floorplan, PacketTrace, Point, TraceConfig};

fn test_array() -> AntennaArray {
    AntennaArray::intel5300(
        Point::new(0.0, 0.0),
        std::f64::consts::FRAC_PI_2,
        spotfi::channel::constants::DEFAULT_CARRIER_HZ,
    )
}

/// Ideal CSI for a superposition of paths `(aoa_deg, tof_ns, gain)`.
fn multipath_csi(paths: &[(f64, f64, c64)]) -> CMat {
    let cfg = SpotFiConfig::fast_test();
    let spacing = spotfi::channel::constants::half_wavelength_spacing(cfg.ofdm.carrier_hz);
    let mut acc = vec![c64::ZERO; 3 * 30];
    for &(aoa_deg, tof_ns, gain) in paths {
        let v = steering_vector(
            aoa_deg.to_radians().sin(),
            tof_ns * 1e-9,
            3,
            30,
            spacing,
            cfg.ofdm.carrier_hz,
            cfg.ofdm.subcarrier_spacing_hz,
        );
        for (a, &vz) in acc.iter_mut().zip(v.iter()) {
            *a += gain * vz;
        }
    }
    CMat::from_fn(3, 30, |m, n| acc[m * 30 + n])
}

/// Smoothed-CSI covariance of an ideal (unsanitized) CSI matrix.
fn covariance_of(csi: &CMat) -> CMat {
    let cfg = SpotFiConfig::fast_test();
    smoothed_csi(csi, &cfg).unwrap().mul_hermitian_self()
}

/// Noise projector `G = I − Σ_{j<sigdim} e_j e_jᴴ` from eigenvector columns.
fn noise_projector(vecs: &CMat, sigdim: usize) -> CMat {
    let n = vecs.rows();
    CMat::from_fn(n, n, |r, c| {
        let mut acc = if r == c {
            c64::new(1.0, 0.0)
        } else {
            c64::ZERO
        };
        for j in 0..sigdim {
            let e = vecs.col(j);
            acc -= e[r] * e[c].conj();
        }
        acc
    })
}

/// Runs the batched solver on `mats` and the scalar solver on each matrix,
/// then asserts the batch lanes reproduce the scalar results: eigenvalues
/// and eigenvectors bit-for-bit, noise projectors within 1e-10 Frobenius.
fn assert_batch_matches_scalar(mats: &[&CMat], k: usize, ctx: &str) {
    assert!(!mats.is_empty() && mats.len() <= BATCH_LANES);
    let mut bws = BatchTridiagWorkspace::default();
    let mut batch_ws: Vec<TridiagWorkspace> = mats.iter().map(|_| Default::default()).collect();
    {
        let mut lanes: Vec<&mut TridiagWorkspace> = batch_ws.iter_mut().collect();
        hermitian_eigen_partial_batch_into(mats, k, &mut bws, &mut lanes);
    }
    let mut scalar = TridiagWorkspace::default();
    for (l, (m, bw)) in mats.iter().zip(batch_ws.iter()).enumerate() {
        hermitian_eigen_partial_into(m, k, &mut scalar);
        assert_eq!(
            scalar.values().len(),
            bw.values().len(),
            "{ctx}: lane {l}: eigenvalue count"
        );
        let scale = scalar.values()[0].abs().max(1e-300);
        for (j, (&s, &b)) in scalar.values().iter().zip(bw.values()).enumerate() {
            // The hard contract is exact; the relative bound documents what
            // callers may rely on if exactness is ever traded for speed.
            assert!(
                s.to_bits() == b.to_bits(),
                "{ctx}: lane {l} eigenvalue {j}: scalar {s:e} vs batch {b:e}"
            );
            assert!(
                (s - b).abs() <= 1e-12 * scale,
                "{ctx}: lane {l} eigenvalue {j}: relative error above 1e-12"
            );
        }
        let (sv, bv) = (scalar.vectors(), bw.vectors());
        assert_eq!(sv.shape(), bv.shape(), "{ctx}: lane {l}: vector shape");
        for (i, (zs, zb)) in sv.as_slice().iter().zip(bv.as_slice()).enumerate() {
            assert!(
                zs.re.to_bits() == zb.re.to_bits() && zs.im.to_bits() == zb.im.to_bits(),
                "{ctx}: lane {l} eigenvector entry {i}: scalar {zs:?} vs batch {zb:?}"
            );
        }
        let sigdim = sv.cols();
        let gdiff = (&noise_projector(sv, sigdim) - &noise_projector(bv, sigdim)).frobenius_norm();
        assert!(
            gdiff <= 1e-10,
            "{ctx}: lane {l}: noise projector diff {gdiff:e}"
        );
    }
}

/// Full lanes of simulator-generated multipath covariances (the exact
/// input family the pipeline's per-packet eigensolve sees).
#[test]
fn batch_matches_scalar_on_simulated_channels() {
    let plan = Floorplan::empty();
    let tcfg = TraceConfig::commodity();
    let scfg = SpotFiConfig::fast_test();
    for round in 0..4u64 {
        let mut rng = Rng::seed_from_u64(0xBA7C4 + round);
        let target = Point::new((round as f64) * 0.9 - 2.0, 2.5 + (round as f64) * 0.6);
        let trace =
            PacketTrace::generate(&plan, target, &test_array(), &tcfg, BATCH_LANES, &mut rng)
                .unwrap();
        let covs: Vec<CMat> = trace
            .packets
            .iter()
            .map(|p| {
                let s = sanitize_csi(&p.csi, scfg.ofdm.subcarrier_spacing_hz).unwrap();
                smoothed_csi(&s.csi, &scfg).unwrap().mul_hermitian_self()
            })
            .collect();
        let refs: Vec<&CMat> = covs.iter().collect();
        assert_batch_matches_scalar(
            &refs,
            scfg.music.max_paths,
            &format!("simulated round {round}"),
        );
    }
}

/// Rank-deficient covariances: single-path (rank ≈ 1), two-path, an exact
/// rank-1 outer product, and the all-zero matrix (the reduction's `σ² = 0`
/// identity-reflector branch must stay lane-exact too).
#[test]
fn batch_matches_scalar_on_rank_deficient_covariances() {
    let one = c64::new(1.0, 0.0);
    let single = covariance_of(&multipath_csi(&[(12.0, 40.0, one)]));
    let double = covariance_of(&multipath_csi(&[
        (-35.0, 25.0, one),
        (50.0, 140.0, c64::new(0.4, 0.3)),
    ]));
    let n = single.rows();
    let v: Vec<c64> = (0..n)
        .map(|i| c64::new((i as f64 * 0.37).cos(), (i as f64 * 0.61).sin()))
        .collect();
    let rank1 = CMat::from_fn(n, n, |r, c| v[r] * v[c].conj());
    let zero = CMat::zeros(n, n);
    let mats = [&single, &double, &rank1, &zero];
    for k in [1, 4, 8] {
        assert_batch_matches_scalar(&mats, k, &format!("rank-deficient k={k}"));
    }
}

/// Clustered spectra: `c·I + ε·v·vᴴ` puts `n−1` eigenvalues at exactly `c`
/// (exercising QL deflation and clustered inverse iteration identically in
/// both solvers) with the separation `ε` swept down to near round-off.
#[test]
fn batch_matches_scalar_on_clustered_spectra() {
    let one = c64::new(1.0, 0.0);
    let base = covariance_of(&multipath_csi(&[(5.0, 60.0, one)]));
    let n = base.rows();
    let v: Vec<c64> = (0..n)
        .map(|i| {
            let t = i as f64 * 0.17;
            c64::new(t.cos(), t.sin()) * c64::new(1.0 / (n as f64).sqrt(), 0.0)
        })
        .collect();
    let covs: Vec<CMat> = [1.0, 1e-4, 1e-9, 0.25]
        .iter()
        .map(|&eps| {
            CMat::from_fn(n, n, |r, c| {
                let diag = if r == c {
                    c64::new(3.0, 0.0)
                } else {
                    c64::ZERO
                };
                diag + v[r] * v[c].conj() * c64::new(eps, 0.0)
            })
        })
        .collect();
    let refs: Vec<&CMat> = covs.iter().collect();
    assert_batch_matches_scalar(&refs, 8, "clustered identity-plus-rank-1");
}

/// NLoS-heavy channels: many strong reflections, a weak direct path, and
/// per-entry noise — dense spectra with no dominant gap.
#[test]
fn batch_matches_scalar_on_nlos_heavy_channels() {
    let mut rng = Rng::seed_from_u64(0x41_05);
    for round in 0..3 {
        let covs: Vec<CMat> = (0..BATCH_LANES)
            .map(|_| {
                let mut paths = vec![(
                    rng.gen_range(-60.0..60.0),
                    rng.gen_range(10.0..40.0),
                    c64::new(0.05, 0.0),
                )];
                for _ in 0..7 {
                    let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                    let mag = rng.gen_range(0.5..1.2);
                    paths.push((
                        rng.gen_range(-80.0..80.0),
                        rng.gen_range(30.0..300.0),
                        c64::new(mag * phase.cos(), mag * phase.sin()),
                    ));
                }
                let csi = multipath_csi(&paths);
                let noisy = CMat::from_fn(csi.rows(), csi.cols(), |r, c| {
                    csi.col(c)[r] + c64::new(rng.gen_range(-0.02..0.02), rng.gen_range(-0.02..0.02))
                });
                covariance_of(&noisy)
            })
            .collect();
        let refs: Vec<&CMat> = covs.iter().collect();
        assert_batch_matches_scalar(&refs, 8, &format!("nlos round {round}"));
    }
}

/// Partial batches (1–3 lanes) and the same matrix duplicated across lanes
/// must behave exactly like full distinct batches: lane count is a
/// packaging detail, never a numerical one.
#[test]
fn partial_batches_and_duplicate_lanes_match() {
    let one = c64::new(1.0, 0.0);
    let a = covariance_of(&multipath_csi(&[
        (20.0, 80.0, one),
        (-10.0, 150.0, c64::new(0.2, 0.7)),
    ]));
    let b = covariance_of(&multipath_csi(&[(-45.0, 55.0, one)]));
    let c = covariance_of(&multipath_csi(&[(70.0, 230.0, c64::new(0.0, 1.0))]));
    for lanes in 1..=3usize {
        let mats: Vec<&CMat> = [&a, &b, &c][..lanes].to_vec();
        assert_batch_matches_scalar(&mats, 8, &format!("partial batch of {lanes}"));
    }
    let dup = [&a, &a, &a, &a];
    assert_batch_matches_scalar(&dup, 8, "duplicated lanes");
    for k in [1, 30] {
        assert_batch_matches_scalar(&[&a, &b], k, &format!("duplicate-free k={k}"));
    }
}
