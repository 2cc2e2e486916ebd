//! Failure-injection integration tests: the pipeline must degrade
//! gracefully — never panic — when fed the garbage real deployments
//! produce: corrupted packets, dead antennas, silent APs, absurd
//! configurations.

use spotfi::core::{ApPackets, SpotFi, SpotFiConfig, SpotFiError};
use spotfi::math::{c64, CMat};
use spotfi::{AntennaArray, Floorplan, PacketTrace, Point, TraceConfig};
use spotfi_channel::Rng;

fn ap_at(x: f64, y: f64, look: Point) -> AntennaArray {
    let angle = (look - Point::new(x, y)).angle();
    AntennaArray::intel5300(
        Point::new(x, y),
        angle,
        spotfi::channel::constants::DEFAULT_CARRIER_HZ,
    )
}

fn healthy_aps(target: Point, seed: u64, packets: usize) -> Vec<ApPackets> {
    let plan = Floorplan::empty();
    let cfg = TraceConfig::commodity();
    let center = Point::new(5.0, 5.0);
    let mut rng = Rng::seed_from_u64(seed);
    [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
        .iter()
        .map(|&(x, y)| {
            let array = ap_at(x, y, center);
            let trace =
                PacketTrace::generate(&plan, target, &array, &cfg, packets, &mut rng).unwrap();
            ApPackets {
                array,
                packets: trace.packets,
            }
        })
        .collect()
}

#[test]
fn corrupted_packets_are_dropped_not_fatal() {
    let target = Point::new(4.0, 6.0);
    let mut aps = healthy_aps(target, 31, 10);
    // Corrupt 3 of AP0's packets: NaNs, zeros, and an impulse.
    aps[0].packets[0].csi = CMat::from_fn(3, 30, |_, _| c64::new(f64::NAN, 0.0));
    aps[0].packets[1].csi = CMat::zeros(3, 30);
    aps[0].packets[2].csi = {
        let mut m = CMat::zeros(3, 30);
        m[(1, 7)] = c64::real(1e9);
        m
    };

    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    let analysis = spotfi.analyze_ap(&aps[0]).expect("analysis survives");
    assert!(
        analysis.dropped_packets >= 2,
        "NaN/zero packets must be dropped"
    );

    let est = spotfi.localize(&aps).expect("fix despite corruption");
    assert!(
        est.position.distance(target) < 2.0,
        "corrupted packets should barely matter: {} m",
        est.position.distance(target)
    );
}

#[test]
fn wrong_csi_shape_is_rejected_per_packet() {
    let target = Point::new(3.0, 5.0);
    let mut aps = healthy_aps(target, 32, 6);
    // One AP reports 2×30 CSI (a dead RF chain upstream).
    for p in &mut aps[1].packets {
        p.csi = CMat::zeros(2, 30);
    }
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    // That AP fails cleanly…
    if let Ok(a) = spotfi.analyze_ap(&aps[1]) {
        assert!(a.direct.is_none(), "degenerate AP must not yield a path");
    }
    // …and the remaining three still localize.
    let est = spotfi.localize(&aps).expect("3 healthy APs suffice");
    assert!(est.position.distance(target) < 2.0);
}

#[test]
fn all_aps_dead_is_a_clean_error() {
    let mut aps = healthy_aps(Point::new(5.0, 5.0), 33, 4);
    for ap in &mut aps {
        for p in &mut ap.packets {
            p.csi = CMat::zeros(3, 30);
        }
    }
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    match spotfi.localize(&aps) {
        Err(SpotFiError::InsufficientAps { .. }) => {}
        other => panic!(
            "expected InsufficientAps, got {:?}",
            other.map(|e| e.position)
        ),
    }
}

#[test]
fn single_packet_still_produces_a_fix() {
    // The degenerate minimum: clustering over one packet's estimates.
    let target = Point::new(6.0, 4.0);
    let aps = healthy_aps(target, 34, 1);
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    let est = spotfi.localize(&aps).expect("single-packet fix");
    assert!(est.position.distance(target) < 3.0);
}

#[test]
fn absurd_cluster_count_is_survivable() {
    let target = Point::new(5.5, 5.5);
    let aps = healthy_aps(target, 36, 6);
    let mut cfg = SpotFiConfig::fast_test();
    cfg.cluster.num_clusters = 50; // more clusters than estimates
    let est = SpotFi::new(cfg).localize(&aps).expect("fix");
    assert!(est.position.distance(target) < 3.0);
}

#[test]
fn mixed_healthy_and_silent_aps() {
    let target = Point::new(2.5, 7.5);
    let mut aps = healthy_aps(target, 37, 8);
    // One AP heard nothing (empty packet list) — e.g. filtered upstream.
    aps[2].packets.clear();
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    let est = spotfi.localize(&aps).expect("fix with a silent AP");
    assert!(est.position.distance(target) < 2.0);
}
