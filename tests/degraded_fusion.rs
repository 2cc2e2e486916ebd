//! Degraded-mode fusion contract: when receivers go dark mid-run, the
//! fleet keeps emitting tracked positions from the APs that remain —
//! flagged `degraded`, with widened measurement covariance — instead of
//! silently stalling, and accuracy recovers once the lost APs return.
//!
//! The schedule is a free-space fixture (four corner APs, three static
//! targets) cut into four one-second phases: all APs → one AP dark → two
//! APs dark → all APs back. Dropouts are simulated by filtering the
//! schedule, exactly what a dead receiver looks like at the server.

use std::collections::BTreeMap;

use spotfi::channel::{AntennaArray, Floorplan, PacketTrace, Point, Rng, TraceConfig};
use spotfi::core::fleet::{run_fleet_serial, FleetPacket, FleetUpdate};
use spotfi::core::{FleetConfig, SpotFi, SpotFiConfig};

/// Four corner APs in a 12 m × 10 m open area (same fixture as the fleet
/// contract tests): free space keeps fast-test fidelity in the decimeter
/// regime, so error bounds measure fusion behavior, not multipath.
fn open_area_aps() -> Vec<AntennaArray> {
    let hz = spotfi::channel::constants::DEFAULT_CARRIER_HZ;
    vec![
        AntennaArray::intel5300(Point::new(0.0, 0.0), 45f64.to_radians(), hz),
        AntennaArray::intel5300(Point::new(12.0, 0.0), 135f64.to_radians(), hz),
        AntennaArray::intel5300(Point::new(12.0, 10.0), 225f64.to_radians(), hz),
        AntennaArray::intel5300(Point::new(0.0, 10.0), 315f64.to_radians(), hz),
    ]
}

fn open_area_schedule(targets: &[Point], packets_per_link: usize, seed: u64) -> Vec<FleetPacket> {
    let plan = Floorplan::empty();
    let aps = open_area_aps();
    let mut schedule = Vec::new();
    for (t, &pos) in targets.iter().enumerate() {
        for (a, array) in aps.iter().enumerate() {
            let mut rng = Rng::seed_from_u64(seed ^ ((t as u64) << 8) ^ a as u64);
            let trace = PacketTrace::generate(
                &plan,
                pos,
                array,
                &TraceConfig::commodity(),
                packets_per_link,
                &mut rng,
            )
            .expect("free space is always audible");
            for mut packet in trace.packets {
                packet.timestamp_s += a as f64 * 1e-4;
                schedule.push(FleetPacket {
                    target_id: t as u64,
                    ap_id: a as u32,
                    array: *array,
                    packet,
                });
            }
        }
    }
    schedule.sort_by(|x, y| {
        x.packet
            .timestamp_s
            .total_cmp(&y.packet.timestamp_s)
            .then(x.target_id.cmp(&y.target_id))
    });
    schedule
}

/// One-second phases: 0 = all APs, 1 = AP 3 dark, 2 = APs 2+3 dark,
/// 3 = all APs back.
fn phase_of(time_s: f64) -> usize {
    (time_s.floor().max(0.0) as usize).min(3)
}

fn by_target(updates: &[FleetUpdate]) -> BTreeMap<u64, Vec<FleetUpdate>> {
    let mut map: BTreeMap<u64, Vec<FleetUpdate>> = BTreeMap::new();
    for u in updates {
        map.entry(u.target_id).or_default().push(*u);
    }
    map
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

#[test]
fn fleet_keeps_fixing_through_ap_dropouts_and_recovers() {
    let targets = [
        Point::new(3.0, 3.5),
        Point::new(6.0, 6.5),
        Point::new(9.0, 4.0),
    ];
    // 40 packets/link at the commodity 100 ms cadence span the four
    // one-second phases.
    let full = open_area_schedule(&targets, 40, 0xD06);
    let schedule: Vec<FleetPacket> = full
        .into_iter()
        .filter(|p| match phase_of(p.packet.timestamp_s) {
            1 => p.ap_id != 3,
            2 => p.ap_id < 2,
            _ => true,
        })
        .collect();
    assert!(!schedule.is_empty());

    let cfg = FleetConfig {
        workers: 1,
        queue_capacity: 4096,
        fusion_interval: 8,
        window_packets: 4,
        // Evict a dark AP's stale window after half a second — five packet
        // intervals — so dropout fusions use live APs, not fossils.
        ap_stale_s: 0.5,
        ..FleetConfig::default()
    };
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    let (updates, stats) = run_fleet_serial(&spotfi, &cfg, &schedule);

    // Fusion accounting stays balanced through the dropouts: every fusion
    // attempt either updated or was counted as no-fix, never lost.
    assert_eq!(
        stats.fusions,
        stats.updates + stats.fusion_no_fix,
        "fusion accounting broke: {stats:?}"
    );
    assert!(
        stats.fusion_degraded >= 1,
        "dropout phases must surface as degraded fixes: {stats:?}"
    );
    assert!(
        stats.fusion_degraded <= stats.updates,
        "degraded fixes are a subset of updates: {stats:?}"
    );
    let degraded_emitted = updates.iter().filter(|u| u.degraded).count() as u64;
    assert_eq!(
        degraded_emitted, stats.fusion_degraded,
        "per-update degraded flags must match the counter"
    );

    // The engine must keep emitting in every phase — including with two
    // of four APs dark — not stall until recovery.
    let mut phase_errors: [Vec<f64>; 4] = Default::default();
    for u in &updates {
        let truth = targets[u.target_id as usize];
        phase_errors[phase_of(u.time_s)].push(u.tracked.distance(truth));
    }
    for (phase, errs) in phase_errors.iter_mut().enumerate() {
        assert!(
            !errs.is_empty(),
            "no updates in phase {phase} — fusion stalled instead of degrading"
        );
        // Bounded error growth: even two-AP fixes stay in the meter
        // regime; free space with ≥ 2 LoS APs never diverges.
        let med = median(errs);
        assert!(
            med < 2.5,
            "phase {phase} median error {med:.2} m — degradation unbounded"
        );
    }

    // Dropout fixes during phases 1–2 must come from fewer APs and be
    // flagged degraded.
    assert!(
        updates
            .iter()
            .any(|u| phase_of(u.time_s) >= 1 && phase_of(u.time_s) <= 2 && u.aps_used < 4),
        "dropout phases should fuse from < 4 APs"
    );

    // Recovery: once all APs return, every target's final fix lands back
    // in the decimeter regime.
    let grouped = by_target(&updates);
    assert_eq!(grouped.len(), targets.len(), "a target went silent");
    for (target, seq) in &grouped {
        let last = seq.last().unwrap();
        assert_eq!(
            phase_of(last.time_s),
            3,
            "target {target} stopped updating before recovery"
        );
        let err = last.tracked.distance(targets[*target as usize]);
        assert!(
            err < 1.0,
            "target {target} finished {err:.2} m from truth after APs returned"
        );
    }
}

/// Dropping below `min_fusion_aps` must not emit garbage fixes: with every
/// AP but one dark, fusions surface as `fusion_no_fix`, and the stream
/// resumes when APs return.
#[test]
fn single_ap_phase_yields_no_fix_not_garbage() {
    let targets = [Point::new(5.0, 5.0)];
    let full = open_area_schedule(&targets, 30, 0x51A);
    // Middle second: only AP 0 is alive.
    let schedule: Vec<FleetPacket> = full
        .into_iter()
        .filter(|p| {
            let t = p.packet.timestamp_s;
            !(1.0..2.0).contains(&t) || p.ap_id == 0
        })
        .collect();
    let cfg = FleetConfig {
        workers: 1,
        queue_capacity: 4096,
        fusion_interval: 8,
        window_packets: 4,
        ap_stale_s: 0.4,
        min_fusion_aps: 3,
        ..FleetConfig::default()
    };
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    let (updates, stats) = run_fleet_serial(&spotfi, &cfg, &schedule);
    assert_eq!(stats.fusions, stats.updates + stats.fusion_no_fix);
    assert!(
        stats.fusion_no_fix >= 1,
        "single-AP fusions must count as no-fix: {stats:?}"
    );
    // No update may be produced from fewer APs than the floor.
    for u in &updates {
        assert!(
            u.aps_used >= 3,
            "fix from {} APs breaches the floor",
            u.aps_used
        );
    }
    // The target still recovers after the blackout.
    let last = updates.last().expect("updates after recovery");
    assert!(last.time_s >= 2.0, "no post-recovery updates");
    assert!(last.tracked.distance(targets[0]) < 1.0);
}
