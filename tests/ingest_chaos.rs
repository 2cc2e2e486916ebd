//! Fault-injection harness for the distributed ingest path: a seeded
//! chaos layer drops, corrupts, and reorders wire frames and fragments
//! the byte stream at random boundaries, and the suite asserts the
//! system's end-to-end contract — accuracy degrades boundedly (median
//! error within 1.5× the clean baseline), nothing panics, and every
//! injected fault is visible in the `ingest.*` counters, enforced by the
//! same validator `spotfi check-diagnostics` runs in CI.
//!
//! `SPOTFI_CHAOS_SEED` overrides the fixed seed; CI's rotating-seed job
//! derives one from the commit hash and prints it for reproduction.

use std::collections::BTreeMap;

use spotfi::channel::{AntennaArray, Floorplan, PacketTrace, Point, Rng, TraceConfig};
use spotfi::core::fleet::{run_fleet_serial, FleetPacket, FleetUpdate};
use spotfi::core::{FleetConfig, ReceiverCalibration, ReceiverRegistry, SpotFi, SpotFiConfig};
use spotfi::io::{
    encode_frame, fragment, from_csi_packet, mangle_frames, packet_from_record, ChaosConfig,
    WireDecoder, WireEvent, WireStats,
};
use spotfi::testbed::apartment::Apartment;
use spotfi::testbed::{deployed_aps, FleetScenario, FleetScenarioConfig};

fn chaos_seed() -> u64 {
    match std::env::var("SPOTFI_CHAOS_SEED") {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("SPOTFI_CHAOS_SEED must be a u64, got {s:?}")),
        Err(_) => 0xC4A05,
    }
}

/// The 8-AP fixture: the apartment's perimeter ring in free space (walls
/// stripped), so the error band measures chaos resilience rather than
/// through-wall attenuation at fast-test fidelity.
fn ring_fixture(
    targets: &[Point],
    packets_per_link: usize,
    seed: u64,
) -> (Vec<AntennaArray>, Vec<FleetPacket>) {
    let plan = Floorplan::empty();
    let aps: Vec<AntennaArray> = Apartment::perimeter_aps(8)
        .into_iter()
        .map(|ap| ap.array)
        .collect();
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
            .then(x.ap_id.cmp(&y.ap_id))
    });
    (aps, schedule)
}

fn encode_schedule(schedule: &[FleetPacket]) -> Vec<Vec<u8>> {
    schedule
        .iter()
        .enumerate()
        .map(|(i, pkt)| {
            let record = from_csi_packet(&pkt.packet, i as u16, 30);
            encode_frame(
                pkt.ap_id as u16,
                pkt.target_id,
                pkt.packet.timestamp_s,
                &record,
            )
        })
        .collect()
}

fn ring_registry(aps: &[AntennaArray]) -> ReceiverRegistry {
    let mut reg = ReceiverRegistry::new();
    for (a, array) in aps.iter().enumerate() {
        reg.register(a as u32, *array, ReceiverCalibration::default());
    }
    reg
}

fn decode(chunks: &[Vec<u8>], reg: &ReceiverRegistry) -> (Vec<FleetPacket>, WireStats) {
    let mut dec = WireDecoder::new();
    let mut packets = Vec::new();
    let mut sink = |e: WireEvent| {
        if let WireEvent::Frame(f) = e {
            let p = packet_from_record(&f.record, f.timestamp_s);
            if let Some(fp) = reg.fleet_packet(f.receiver_id as u32, f.source_id, p) {
                packets.push(fp);
            }
        }
    };
    for chunk in chunks {
        dec.feed(chunk, &mut sink);
    }
    dec.finish(&mut sink);
    (packets, dec.stats())
}

fn chaos_fleet_cfg() -> FleetConfig {
    FleetConfig {
        workers: 1,
        queue_capacity: 4096,
        fusion_interval: 8,
        window_packets: 4,
        // Network chaos reorders frames within a bounded window; admission
        // buffers the same window and releases in timestamp order.
        reorder_window: 8,
        ap_stale_s: 1.0,
        ..FleetConfig::default()
    }
}

fn median_tracked_error(updates: &[FleetUpdate], targets: &[Point]) -> f64 {
    let mut by_target: BTreeMap<u64, Vec<&FleetUpdate>> = BTreeMap::new();
    for u in updates {
        by_target.entry(u.target_id).or_default().push(u);
    }
    let mut errs: Vec<f64> = Vec::new();
    for (_, seq) in by_target {
        // Skip the smoother's warmup so both arms are judged on settled
        // tracks.
        for u in seq.iter().skip(1) {
            errs.push(u.tracked.distance(targets[u.target_id as usize]));
        }
    }
    assert!(!errs.is_empty(), "no post-warmup updates");
    errs.sort_by(|a, b| a.total_cmp(b));
    errs[errs.len() / 2]
}

/// The headline chaos contract, on the 8-AP ring: 10% frame loss, 5%
/// corruption, bounded reorder, and random fragmentation — median
/// localization error within 1.5× the clean baseline, exact frame-fate
/// accounting, and a diagnostics document the CI validator accepts.
#[test]
fn eight_ap_chaos_stays_within_accuracy_band_and_accounts_every_frame() {
    let seed = chaos_seed();
    println!("chaos seed: {seed} (set SPOTFI_CHAOS_SEED to reproduce)");
    let targets = [
        Point::new(3.0, 2.0),
        Point::new(7.0, 5.5),
        Point::new(11.0, 3.0),
        Point::new(5.0, 6.5),
    ];
    let (aps, schedule) = ring_fixture(&targets, 16, 0x8A9);
    let frames = encode_schedule(&schedule);
    let reg = ring_registry(&aps);
    let cfg = chaos_fleet_cfg();
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());

    // Clean baseline: the same wire round-trip (so i8 CSI quantization
    // affects both arms equally), no chaos.
    let (clean_packets, clean_stats) = decode(&frames, &reg);
    assert_eq!(clean_stats.decoded, frames.len() as u64);
    let (clean_updates, _) = run_fleet_serial(&spotfi, &cfg, &clean_packets);
    let clean_median = median_tracked_error(&clean_updates, &targets);

    // Chaos arm, under the observability recorder so the `ingest.*`
    // counter identities can be validated end to end.
    let chaos = ChaosConfig {
        seed,
        drop_rate: 0.10,
        corrupt_rate: 0.05,
        truncate_rate: 0.0,
        reorder_window: 8,
    };
    let (mangled, report) = mangle_frames(&frames, &chaos);
    let bytes: Vec<u8> = mangled.concat();
    let chunks = fragment(&bytes, seed ^ 0xF00D, 1, 211);

    spotfi::obs::reset();
    spotfi::obs::set_enabled(true);
    let (chaos_packets, chaos_stats, chaos_updates, fleet_stats) = {
        let _total = spotfi::obs::span("total");
        let (packets, stats) = decode(&chunks, &reg);
        let (updates, fstats) = run_fleet_serial(&spotfi, &cfg, &packets);
        (packets, stats, updates, fstats)
    };
    spotfi::obs::set_enabled(false);
    let json = spotfi::obs::snapshot().to_diagnostics_json(&[("threads", "2".to_string())]);
    let summary = spotfi::obs::validate_diagnostics(&json)
        .unwrap_or_else(|e| panic!("seed {seed}: diagnostics rejected: {e}\n{json}"));
    assert!(summary.counters > 0);

    // Every frame's fate is accounted — received = decoded + corrupt +
    // incomplete — and chaos only ever costs the frames it touched.
    assert_eq!(
        chaos_stats.received,
        chaos_stats.decoded + chaos_stats.corrupt + chaos_stats.incomplete,
        "seed {seed}: accounting identity broken: {chaos_stats:?}"
    );
    let intact = frames.len() as u64 - report.dropped - report.corrupted - report.truncated;
    assert_eq!(
        chaos_stats.decoded, intact,
        "seed {seed}: intact frames lost ({report:?}, {chaos_stats:?})"
    );
    assert_eq!(chaos_packets.len() as u64, chaos_stats.decoded);
    assert_eq!(
        fleet_stats.ingested,
        fleet_stats.accepted + fleet_stats.dropped,
        "seed {seed}"
    );

    // Accuracy band: the fleet still localizes every target, and the
    // median error stays within 1.5× the clean baseline (floored at the
    // decimeter regime, where both medians sit inside simulation noise).
    let chaos_targets: std::collections::BTreeSet<u64> =
        chaos_updates.iter().map(|u| u.target_id).collect();
    assert_eq!(
        chaos_targets.len(),
        targets.len(),
        "seed {seed}: a target went silent under 10% loss"
    );
    let chaos_median = median_tracked_error(&chaos_updates, &targets);
    let band = (1.5 * clean_median).max(0.3);
    assert!(
        chaos_median <= band,
        "seed {seed}: chaos median {chaos_median:.3} m exceeds band {band:.3} m \
         (clean {clean_median:.3} m)"
    );
    println!(
        "seed {seed}: clean median {clean_median:.3} m, chaos median {chaos_median:.3} m, \
         {} of {} frames decoded",
        chaos_stats.decoded,
        frames.len()
    );
}

/// The deployment-scale matrix: 4 → 32 APs crossed with packet loss and
/// clock drift, generated by the testbed itself (apartment floorplan,
/// perimeter ring past 4 APs). Every cell must keep its accounting
/// identities and keep emitting fixes; loss and drift must not stall the
/// engine at any scale.
#[test]
fn ap_count_times_loss_times_drift_matrix_keeps_fusing() {
    let cells = [
        (4usize, 0.0f64, 0.0f64),
        (8, 0.10, 300.0),
        (16, 0.05, 100.0),
        (32, 0.10, 300.0),
    ];
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    for &(aps, loss, drift) in &cells {
        let scenario = FleetScenario::generate(&FleetScenarioConfig {
            targets: 3,
            aps,
            packets_per_link: 10,
            speed_mps: 0.0,
            loss_rate: loss,
            clock_drift_ppm: drift,
            ..FleetScenarioConfig::apartment(3)
        });
        assert_eq!(deployed_aps(aps).len(), aps);
        assert!(
            !scenario.schedule.is_empty(),
            "cell ({aps}, {loss}, {drift}): empty schedule"
        );
        let cfg = FleetConfig {
            reorder_window: 4,
            ..chaos_fleet_cfg()
        };
        let (updates, stats) = run_fleet_serial(&spotfi, &cfg, &scenario.schedule);
        assert_eq!(
            stats.fusions,
            stats.updates + stats.fusion_no_fix,
            "cell ({aps}, {loss}, {drift}): {stats:?}"
        );
        assert_eq!(
            stats.accepted, stats.processed,
            "cell ({aps}, {loss}, {drift})"
        );
        assert!(
            stats.updates > 0,
            "cell ({aps}, {loss}, {drift}) stalled: {stats:?}"
        );
        // Sanity, not precision: at fast-test fidelity through concrete
        // interior walls the absolute error is coarse (several meters for
        // perimeter rings), but fixes must stay at building scale — a
        // diverged solver lands outside the 14 m × 8 m apartment entirely.
        let mut errs: Vec<f64> = updates
            .iter()
            .filter_map(|u| {
                scenario
                    .truth_at(u.target_id, u.time_s)
                    .map(|t| u.tracked.distance(t))
            })
            .collect();
        errs.sort_by(|a, b| a.total_cmp(b));
        let med = errs[errs.len() / 2];
        assert!(
            med.is_finite() && med < 10.0,
            "cell ({aps}, {loss}, {drift}): median error {med:.2} m"
        );
        println!(
            "cell ({aps} APs, {loss} loss, {drift} ppm): {} packets, {} updates, median {med:.2} m",
            scenario.schedule.len(),
            stats.updates
        );
    }
}
