//! Randomized property tests: invariants of the simulator-estimator pair
//! over randomized geometry and parameters.
//!
//! Each property draws its cases from a seeded [`Rng`] loop, so runs are
//! fully deterministic and need no external property-testing framework.
//! On failure the case index and drawn parameters are in the panic message,
//! which is all a regression needs to reproduce (fixed seed ⇒ same cases).

use spotfi::channel::impairments::apply_sto;
use spotfi::channel::{OfdmConfig, Rng};
use spotfi::core::sanitize::sanitize_csi;
use spotfi::core::steering::steering_vector;
use spotfi::core::{find_peaks, music_spectrum, smoothed_csi, SpotFiConfig};
use spotfi::math::{hermitian_eigen_partial, CMat};
use spotfi::{AntennaArray, Floorplan, PacketTrace, Point, TraceConfig};

fn test_array() -> AntennaArray {
    AntennaArray::intel5300(
        Point::new(0.0, 0.0),
        std::f64::consts::FRAC_PI_2,
        spotfi::channel::constants::DEFAULT_CARRIER_HZ,
    )
}

/// Builds an ideal CSI matrix for one synthetic path.
fn single_path_csi(aoa_deg: f64, tof_ns: f64) -> CMat {
    let cfg = SpotFiConfig::fast_test();
    let spacing = spotfi::channel::constants::half_wavelength_spacing(cfg.ofdm.carrier_hz);
    let v = steering_vector(
        aoa_deg.to_radians().sin(),
        tof_ns * 1e-9,
        3,
        30,
        spacing,
        cfg.ofdm.carrier_hz,
        cfg.ofdm.subcarrier_spacing_hz,
    );
    CMat::from_fn(3, 30, |m, n| v[m * 30 + n])
}

/// MUSIC recovers a single path's parameters anywhere on the grid.
#[test]
fn music_recovers_single_path() {
    let mut rng = Rng::seed_from_u64(0x5001);
    let cfg = SpotFiConfig::fast_test();
    for case in 0..24 {
        let aoa = rng.gen_range(-80.0..80.0);
        let tof = rng.gen_range(5.0..350.0);
        let csi = single_path_csi(aoa, tof);
        let x = smoothed_csi(&csi, &cfg).unwrap();
        let spec = music_spectrum(&x, &cfg).unwrap();
        let peaks = find_peaks(&spec, 3);
        assert!(!peaks.is_empty(), "case {}: no peaks", case);
        assert!(
            (peaks[0].aoa_deg - aoa).abs() <= 3.0,
            "case {}: aoa {} vs {}",
            case,
            peaks[0].aoa_deg,
            aoa
        );
        assert!(
            (peaks[0].tof_ns - tof).abs() <= 6.0,
            "case {}: tof {} vs {}",
            case,
            peaks[0].tof_ns,
            tof
        );
    }
}

/// Sanitization makes the estimator's output invariant to any STO.
#[test]
fn estimates_invariant_to_sto() {
    let mut rng = Rng::seed_from_u64(0x5002);
    let cfg = SpotFiConfig::fast_test();
    let ofdm = OfdmConfig::intel5300_40mhz();
    for case in 0..24 {
        let aoa = rng.gen_range(-70.0..70.0);
        let tof = rng.gen_range(10.0..200.0);
        let sto_ns = rng.gen_range(-120.0..120.0);
        let clean = single_path_csi(aoa, tof);
        let mut dirty = clean.clone();
        apply_sto(&mut dirty, &ofdm, sto_ns * 1e-9);

        let f_delta = ofdm.subcarrier_spacing_hz;
        let run = |csi: &CMat| {
            let s = sanitize_csi(csi, f_delta).unwrap();
            let x = smoothed_csi(&s.csi, &cfg).unwrap();
            let spec = music_spectrum(&x, &cfg).unwrap();
            find_peaks(&spec, 1)[0]
        };
        let a = run(&clean);
        let b = run(&dirty);
        assert!(
            (a.aoa_deg - b.aoa_deg).abs() < 0.5,
            "case {}: AoA changed with STO {}: {} vs {}",
            case,
            sto_ns,
            a.aoa_deg,
            b.aoa_deg
        );
        assert!(
            (a.tof_ns - b.tof_ns).abs() < 2.0,
            "case {}: relative ToF changed with STO {}: {} vs {}",
            case,
            sto_ns,
            a.tof_ns,
            b.tof_ns
        );
    }
}

/// The simulator's ground-truth AoA always matches plain geometry, for
/// arbitrary AP orientation and target placement (free space).
#[test]
fn traced_direct_path_matches_geometry() {
    let mut rng = Rng::seed_from_u64(0x5003);
    let plan = Floorplan::empty();
    let mut checked = 0usize;
    for case in 0..24 {
        let tx = rng.gen_range(-20.0..20.0);
        let ty = rng.gen_range(1.0..20.0);
        let normal = rng.gen_range(-3.0..3.0);
        let ap = AntennaArray::intel5300(
            Point::new(0.0, 0.0),
            normal,
            spotfi::channel::constants::DEFAULT_CARRIER_HZ,
        );
        let target = Point::new(tx, ty);
        if target.distance(ap.position) <= 0.5 {
            continue;
        }
        let cfg = spotfi::channel::raytrace::RaytraceConfig::default_for_wavelength(0.056);
        let paths = spotfi::channel::trace_paths(&plan, target, &ap, &cfg);
        assert_eq!(paths.len(), 1, "case {}", case);
        let expected = ap.aoa_from_deg(target);
        assert!(
            (paths[0].aoa_deg() - expected).abs() < 1e-6,
            "case {}: {} vs {}",
            case,
            paths[0].aoa_deg(),
            expected
        );
        // ToF consistent with distance.
        let expected_tof =
            target.distance(ap.position) / spotfi::channel::constants::SPEED_OF_LIGHT;
        assert!(
            (paths[0].tof_s - expected_tof).abs() < 1e-15,
            "case {}",
            case
        );
        checked += 1;
    }
    assert!(checked >= 20, "too many cases skipped: {}", 24 - checked);
}

/// CSI synthesis and the steering model agree for arbitrary free-space
/// paths: the estimator's model is exactly the simulator's physics.
#[test]
fn synthesis_matches_steering_model() {
    let mut rng = Rng::seed_from_u64(0x5004);
    let cfg = TraceConfig::ideal();
    let ofdm = cfg.ofdm;
    let array = test_array();
    for case in 0..24 {
        // A free-space target: one direct path, at AoAs across the array's
        // field of view and ToFs out to ~190 ns.
        let target = Point::new(rng.gen_range(-40.0..40.0), rng.gen_range(0.5..40.0));
        let trace =
            PacketTrace::generate(&Floorplan::empty(), target, &array, &cfg, 1, &mut rng).unwrap();
        assert_eq!(trace.ground_truth_paths.len(), 1, "case {}", case);
        let path = &trace.ground_truth_paths[0];
        let h = &trace.packets[0].csi;
        let v = steering_vector(
            path.sin_aoa,
            path.tof_s,
            3,
            30,
            array.spacing,
            ofdm.carrier_hz,
            ofdm.subcarrier_spacing_hz,
        );
        // Up to one complex gain (the path amplitude, and the
        // carrier-frequency ToF phase folded into γ), the synthesized CSI
        // must equal the steering vector.
        let g = h[(0, 0)] / v[0];
        let tol = 1e-9 * path.amplitude;
        for m in 0..3 {
            for n in 0..30 {
                let expect = v[m * 30 + n] * g;
                assert!(
                    (h[(m, n)] - expect).abs() < tol,
                    "case {}: mismatch at ({}, {})",
                    case,
                    m,
                    n
                );
            }
        }
        assert!((g.abs() - path.amplitude).abs() < tol, "case {}", case);
    }
}

/// RSSI decreases (weakly) with distance in free space.
#[test]
fn rssi_monotone_in_distance() {
    let mut rng = Rng::seed_from_u64(0x5005);
    let plan = Floorplan::empty();
    let mut cfg = TraceConfig::commodity();
    cfg.rssi.shadowing_std_db = 0.0;
    cfg.rssi.quantize = false;
    let ap = test_array();
    for case in 0..24 {
        let d1 = rng.gen_range(1.0..10.0);
        let d2 = rng.gen_range(11.0..40.0);
        let near = PacketTrace::generate(&plan, Point::new(0.0, d1), &ap, &cfg, 1, &mut rng)
            .unwrap()
            .packets[0]
            .rssi_dbm;
        let far = PacketTrace::generate(&plan, Point::new(0.0, d2), &ap, &cfg, 1, &mut rng)
            .unwrap()
            .packets[0]
            .rssi_dbm;
        assert!(
            near > far,
            "case {}: near ({} m) {} dBm vs far ({} m) {} dBm",
            case,
            d1,
            near,
            d2,
            far
        );
    }
}

/// Eigendecomposition invariants on random PSD inputs built from CSI.
#[test]
fn eigen_invariants_on_random_covariances() {
    let plan = Floorplan::empty();
    let cfg = TraceConfig::commodity();
    let scfg = SpotFiConfig::fast_test();
    for case in 0..24u64 {
        let seed = case * 41 + 3;
        let mut rng = Rng::seed_from_u64(seed);
        let target = Point::new(
            (seed % 17) as f64 * 0.5 - 4.0,
            3.0 + (seed % 11) as f64 * 0.7,
        );
        if target.distance(Point::new(0.0, 0.0)) <= 0.5 {
            continue;
        }
        let trace = PacketTrace::generate(&plan, target, &test_array(), &cfg, 1, &mut rng).unwrap();
        let s = sanitize_csi(&trace.packets[0].csi, scfg.ofdm.subcarrier_spacing_hz).unwrap();
        let x = smoothed_csi(&s.csi, &scfg).unwrap();
        let r = x.mul_hermitian_self();
        let n = r.rows();
        let e = hermitian_eigen_partial(&r, n);
        // PSD: eigenvalues ≥ 0; sorted; reconstruction accurate.
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "case {}: not sorted", case);
        }
        assert!(
            *e.values.last().unwrap() > -1e-6 * e.values[0].abs().max(1e-12),
            "case {}: negative eigenvalue",
            case
        );
        // V·diag(λ)·Vᴴ.
        let recon = CMat::from_fn(n, n, |i, j| {
            (0..n)
                .map(|k| e.vectors[(i, k)] * e.vectors[(j, k)].conj() * e.values[k])
                .sum()
        });
        let recon_err = (&recon - &r).frobenius_norm() / r.frobenius_norm().max(1e-12);
        assert!(
            recon_err < 1e-7,
            "case {}: reconstruction error {}",
            case,
            recon_err
        );
    }
}
