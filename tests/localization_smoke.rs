//! End-to-end localization smoke test on the apartment scenario at the
//! `fast_test` profile: the full pipeline (sanitize → smooth → MUSIC →
//! cluster → likelihood → localize) must produce fixes of sane accuracy
//! with the coarse-to-fine sweep, and a reference chain built on the dense
//! sweep must land on essentially the same positions. CI runs this as its
//! own job so a pipeline-level regression is caught even when every unit
//! test still passes.

use spotfi::channel::{PacketTrace, Point, Rng, TraceConfig};
use spotfi::core::{
    cluster_estimates, find_peaks_filtered, localize, music_spectrum_cached, sanitize_csi,
    select_direct_path, smoothed_csi_into, ApMeasurement, ApPackets, LocationEstimate,
    MusicScratch, SpotFi, SpotFiConfig,
};
use spotfi::math::stats::mean;
use spotfi::math::CMat;
use spotfi::testbed::apartment::Apartment;
use spotfi::testbed::scenario::Scenario;

/// Generates one fix's packets for every AP that hears the target.
fn packets_for(scenario: &Scenario, t_idx: usize) -> Vec<ApPackets> {
    let target = &scenario.targets[t_idx];
    let mut packs = Vec::new();
    for (ap_idx, ap) in scenario.aps.iter().enumerate() {
        let mut rng = Rng::seed_from_u64(scenario.link_seed(t_idx, ap_idx));
        if let Some(trace) = PacketTrace::generate(
            &scenario.floorplan,
            target.position,
            &ap.array,
            &scenario.trace,
            scenario.packets_per_fix,
            &mut rng,
        ) {
            packs.push(ApPackets {
                array: ap.array,
                packets: trace.packets,
            });
        }
    }
    packs
}

fn apartment_scenario() -> Scenario {
    let apt = Apartment::standard();
    Scenario {
        name: "apartment-smoke".to_string(),
        floorplan: apt.floorplan.clone(),
        aps: apt.aps.clone(),
        // Living room: the room with the most LoS links — the one where
        // accuracy is meaningful at the trimmed fast_test fidelity.
        targets: apt.rooms[0].clone(),
        trace: TraceConfig::commodity(),
        packets_per_fix: 10,
        seed: 0x005A_10CE,
    }
}

#[test]
fn apartment_localization_end_to_end() {
    let scenario = apartment_scenario();
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());

    let mut errors: Vec<f64> = Vec::new();
    for t_idx in 0..scenario.targets.len() {
        let packs = packets_for(&scenario, t_idx);
        assert!(
            packs.len() >= 3,
            "target {} heard by only {} APs",
            scenario.targets[t_idx].name,
            packs.len()
        );
        let est = spotfi
            .localize(&packs)
            .unwrap_or_else(|e| panic!("target {}: {:?}", scenario.targets[t_idx].name, e));
        errors.push(est.position.distance(scenario.targets[t_idx].position));
    }

    // The run is fully deterministic; the committed tolerance sits above
    // the observed ~2.7 m median (coarse 2° / 5 ns test grids, concrete
    // interior walls, 4 APs) so only a genuine pipeline regression — not
    // noise — can trip it.
    errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = errors[errors.len() / 2];
    assert!(
        median < 3.5,
        "median living-room error {:.2} m (errors: {:?})",
        median,
        errors
    );
    // Every fix must at least land in the apartment's neighborhood — a
    // wild fix means direct-path selection broke.
    assert!(
        *errors.last().unwrap() < 10.0,
        "worst error {:.2} m",
        errors.last().unwrap()
    );
}

/// Algorithm 2 assembled from the public stages on the dense reference
/// sweep: per packet sanitize → smooth → full-grid MUSIC spectrum → peak
/// scan, then per AP cluster → direct path, then Eq. 9.
fn dense_reference_fix(spotfi: &SpotFi, packs: &[ApPackets]) -> LocationEstimate {
    let cfg = spotfi.config();
    let cache = spotfi.steering_cache();
    let mut smoothed = CMat::default();
    let mut scratch = MusicScratch::new(cfg);
    let mut measurements = Vec::new();
    for ap in packs {
        let mut estimates = Vec::new();
        for packet in &ap.packets {
            let Ok(sanitized) = sanitize_csi(&packet.csi, cfg.ofdm.subcarrier_spacing_hz) else {
                continue;
            };
            if smoothed_csi_into(&sanitized.csi, cfg, &mut smoothed).is_err() {
                continue;
            }
            let Ok(spec) = music_spectrum_cached(&smoothed, cfg, cache, &mut scratch) else {
                continue;
            };
            estimates.extend(find_peaks_filtered(
                &spec,
                cfg.music.max_paths,
                cfg.music.min_relative_peak_power,
            ));
        }
        let clustering = cluster_estimates(
            &estimates,
            cfg.cluster.num_clusters,
            cfg.cluster.max_iterations,
        );
        if let Some(direct) = select_direct_path(&clustering, &cfg.likelihood) {
            let rssi: Vec<f64> = ap.packets.iter().map(|p| p.rssi_dbm).collect();
            measurements.push(ApMeasurement {
                array: ap.array,
                direct_aoa_deg: direct.aoa_deg,
                likelihood: direct.likelihood,
                rssi_dbm: mean(&rssi),
            });
        }
    }
    localize(&measurements, &cfg.localize).expect("dense reference fix")
}

#[test]
fn dense_and_coarse_to_fine_agree_end_to_end() {
    // The sweep-equivalence property tests pin per-packet peak agreement;
    // this checks the whole pipeline: with identical packets, a reference
    // chain on the dense sweep and the pipeline's hierarchical sweep must
    // localize a target to nearly the same point (they may differ by the
    // off-grid polish, which moves peaks by less than one grid cell).
    let scenario = apartment_scenario();
    let packs = packets_for(&scenario, 4); // center living-room target
    let truth = scenario.targets[4].position;

    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    let sparse = spotfi.localize(&packs).expect("coarse-to-fine fix");
    let dense = dense_reference_fix(&spotfi, &packs);

    let gap = sparse.position.distance(dense.position);
    assert!(
        gap < 0.5,
        "strategies disagree: coarse-to-fine {:?} vs dense {:?} ({:.2} m apart)",
        sparse.position,
        dense.position,
        gap
    );
    assert!(
        sparse.position.distance(truth) < 2.5,
        "fix {:?} far from truth {:?}",
        sparse.position,
        Point::new(truth.x, truth.y)
    );
}
