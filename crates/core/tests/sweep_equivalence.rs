//! Property test: the coarse-to-fine sweep must reproduce the dense
//! reference sweep's peaks — same count, identical ordering, identical
//! (bit-for-bit) peak powers, and refined coordinates within one fine-grid
//! cell — across many seeded random multipath channels, including channels
//! whose direct path is NLoS-attenuated below the reflections.

use spotfi_channel::constants::half_wavelength_spacing;
use spotfi_channel::Rng;
use spotfi_core::music::{music_paths_coarse_to_fine, music_spectrum_cached, MusicScratch};
use spotfi_core::peaks::find_peaks_filtered;
use spotfi_core::smoothing::smoothed_csi;
use spotfi_core::steering::{steering_vector, SteeringCache};
use spotfi_core::{PathEstimate, SpotFiConfig};
use spotfi_math::{c64, CMat};

/// One synthetic propagation path.
#[derive(Clone, Copy, Debug)]
struct TruthPath {
    aoa_deg: f64,
    tof_ns: f64,
    gain: c64,
}

/// Draws 1–4 paths with pairwise separation wide enough that the dense
/// sweep resolves them as distinct peaks (two true paths inside one basin
/// legitimately merge under *both* strategies, which is not what this test
/// probes). With `nlos`, the direct (smallest-ToF) path is attenuated well
/// below the reflections.
fn random_channel(rng: &mut Rng, nlos: bool) -> Vec<TruthPath> {
    let n_paths = 1 + (rng.gen_range(0.0..4.0) as usize).min(3);
    let mut paths: Vec<TruthPath> = Vec::new();
    let mut guard = 0;
    while paths.len() < n_paths && guard < 200 {
        guard += 1;
        let aoa = rng.gen_range(-70.0..70.0);
        let tof = rng.gen_range(10.0..350.0);
        let separated = paths
            .iter()
            .all(|p| (p.aoa_deg - aoa).abs() >= 20.0 || (p.tof_ns - tof).abs() >= 50.0);
        if !separated {
            continue;
        }
        let phase = rng.gen_range(0.0..std::f64::consts::TAU);
        let mag = rng.gen_range(0.5..1.0);
        paths.push(TruthPath {
            aoa_deg: aoa,
            tof_ns: tof,
            gain: c64::cis(phase) * mag,
        });
    }
    if nlos && paths.len() > 1 {
        // Attenuate the direct (earliest) path below every reflection.
        let direct = paths
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.tof_ns.partial_cmp(&b.1.tof_ns).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let atten = rng.gen_range(0.2..0.4);
        let g = paths[direct].gain;
        paths[direct].gain = g * (atten / g.abs());
    }
    paths
}

fn csi_for(paths: &[TruthPath], cfg: &SpotFiConfig) -> CMat {
    let spacing = half_wavelength_spacing(cfg.ofdm.carrier_hz);
    let (m, n) = cfg.csi_shape();
    let mut csi = CMat::zeros(m, n);
    for p in paths {
        let v = steering_vector(
            p.aoa_deg.to_radians().sin(),
            p.tof_ns * 1e-9,
            m,
            n,
            spacing,
            cfg.ofdm.carrier_hz,
            cfg.ofdm.subcarrier_spacing_hz,
        );
        for a in 0..m {
            for s in 0..n {
                csi[(a, s)] += v[a * n + s] * p.gain;
            }
        }
    }
    csi
}

/// Runs both strategies on one channel and asserts equivalence.
fn assert_sweeps_agree(cfg: &SpotFiConfig, cache: &SteeringCache, csi: &CMat, label: &str) {
    let x = smoothed_csi(csi, cfg).expect("smoothing");
    let mut scratch = MusicScratch::new(cfg);
    let spec = music_spectrum_cached(&x, cfg, cache, &mut scratch).expect("dense sweep");
    let dense: Vec<PathEstimate> = find_peaks_filtered(
        &spec,
        cfg.music.max_paths,
        cfg.music.min_relative_peak_power,
    );
    let sparse = music_paths_coarse_to_fine(&x, cfg, cache, &mut scratch).expect("sparse sweep");

    assert_eq!(
        sparse.paths.len(),
        dense.len(),
        "{}: peak count mismatch\n dense: {:?}\n sparse: {:?}",
        label,
        dense,
        sparse.paths
    );
    for (k, (s, d)) in sparse.paths.iter().zip(dense.iter()).enumerate() {
        // Identical ordering and bit-identical powers: both strategies
        // must have landed on the same fine-grid cells, ranked the same.
        assert_eq!(
            s.power, d.power,
            "{}: peak {} power mismatch (different cell or order)",
            label, k
        );
        assert!(
            (s.aoa_deg - d.aoa_deg).abs() <= cfg.music.aoa_grid_deg.step,
            "{}: peak {} aoa {} vs dense {}",
            label,
            k,
            s.aoa_deg,
            d.aoa_deg
        );
        assert!(
            (s.tof_ns - d.tof_ns).abs() <= cfg.music.tof_grid_ns.step,
            "{}: peak {} tof {} vs dense {}",
            label,
            k,
            s.tof_ns,
            d.tof_ns
        );
    }
}

#[test]
fn coarse_to_fine_matches_dense_on_seeded_random_channels() {
    let cfg = SpotFiConfig::fast_test();
    let cache = SteeringCache::new(&cfg);
    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(0x5EED_0000 + seed);
        let nlos = seed % 3 == 0;
        let paths = random_channel(&mut rng, nlos);
        let csi = csi_for(&paths, &cfg);
        let label = format!("seed {} ({} paths, nlos={})", seed, paths.len(), nlos);
        assert_sweeps_agree(&cfg, &cache, &csi, &label);
    }
}

#[test]
fn coarse_to_fine_matches_dense_on_default_grid() {
    // A few channels at the full-resolution production grid (181 × 251):
    // the coarse stride and zoom schedule must behave at 1° / 2 ns steps
    // too, not just on the decimated test grid.
    let cfg = SpotFiConfig::default();
    let cache = SteeringCache::new(&cfg);
    for seed in 0..4u64 {
        let mut rng = Rng::seed_from_u64(0xF1DE_0000 + seed);
        let paths = random_channel(&mut rng, seed % 2 == 1);
        let csi = csi_for(&paths, &cfg);
        let label = format!("default-grid seed {} ({} paths)", seed, paths.len());
        assert_sweeps_agree(&cfg, &cache, &csi, &label);
    }
}

#[test]
fn coarse_to_fine_handles_single_dominant_reflection() {
    // Degenerate-ish channel: one strong reflection and a deeply faded
    // direct path, the regime where a coarse grid is most likely to miss
    // a narrow basin.
    let cfg = SpotFiConfig::fast_test();
    let cache = SteeringCache::new(&cfg);
    let paths = [
        TruthPath {
            aoa_deg: -12.0,
            tof_ns: 35.0,
            gain: c64::new(0.25, 0.0),
        },
        TruthPath {
            aoa_deg: 41.0,
            tof_ns: 180.0,
            gain: c64::new(0.0, 1.0),
        },
    ];
    let csi = csi_for(&paths, &cfg);
    assert_sweeps_agree(&cfg, &cache, &csi, "dominant reflection");
}
