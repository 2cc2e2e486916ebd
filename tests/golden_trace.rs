//! Golden-trace regression test: a fixed-seed apartment capture pushed
//! through the full default pipeline, with every externally visible result
//! pinned to the values the current implementation produces.
//!
//! The pipeline is deliberately bit-deterministic (fixed-seed simulator,
//! deterministic clustering, thread-count-independent reductions), so these
//! pins hold to near machine precision. If an algorithm change moves them,
//! that is a *behavior* change: re-pin consciously in the same commit and
//! say why — never loosen the tolerance to paper over drift.

use spotfi::core::{ApPackets, SpotFi, SpotFiConfig};
use spotfi::testbed::apartment::Apartment;
use spotfi::{PacketTrace, TraceConfig};
use spotfi_channel::Rng;

const SEED: u64 = 42;
const PACKETS: usize = 10;

/// Pinned outputs of the golden capture (re-derive with
/// `cargo test --test golden_trace -- --nocapture` after an intentional
/// algorithm change).
const PIN_AP0_AOA_DEG: f64 = 3.599856358801;
const PIN_AP0_TOF_NS: f64 = -6.266779433706;
const PIN_AP0_LIKELIHOOD: f64 = 3.212024489825e-1;
const PIN_AP0_MEAN_RSSI_DBM: f64 = -39.5;
const PIN_AP0_CLUSTERS: usize = 6;
const PIN_POSITION_X: f64 = 2.165376777581;
const PIN_POSITION_Y: f64 = 3.888453164833;
const PIN_TOL: f64 = 1e-9;

/// The fixed capture: the standard three-room apartment, target at the
/// living-room center, all four home APs, one shared seeded RNG.
fn golden_capture() -> (Vec<ApPackets>, spotfi::Point) {
    let home = Apartment::standard();
    let target = home.rooms[0][4].position; // living-room center
    let cfg = TraceConfig::commodity();
    let mut rng = Rng::seed_from_u64(SEED);
    let aps: Vec<ApPackets> =
        home.aps
            .iter()
            .filter_map(|ap| {
                PacketTrace::generate(&home.floorplan, target, &ap.array, &cfg, PACKETS, &mut rng)
                    .map(|t| ApPackets {
                        array: ap.array,
                        packets: t.packets,
                    })
            })
            .collect();
    (aps, target)
}

#[test]
fn golden_apartment_trace_pins() {
    let (aps, target) = golden_capture();
    assert_eq!(aps.len(), 4, "all four home APs must hear the target");

    let spotfi = SpotFi::new(SpotFiConfig::default());

    // Per-AP analysis pins: the direct path selected for the first AP.
    let a0 = spotfi.analyze_ap(&aps[0]).unwrap();
    let d0 = a0.direct.expect("AP0 direct path");
    assert!(
        (d0.aoa_deg - PIN_AP0_AOA_DEG).abs() < PIN_TOL,
        "AP0 direct AoA drifted: {:.12}° vs pinned {:.12}°",
        d0.aoa_deg,
        PIN_AP0_AOA_DEG
    );
    assert!(
        (d0.tof_ns - PIN_AP0_TOF_NS).abs() < PIN_TOL,
        "AP0 direct ToF drifted: {:.12} ns vs pinned {:.12} ns",
        d0.tof_ns,
        PIN_AP0_TOF_NS
    );
    assert!(
        (d0.likelihood - PIN_AP0_LIKELIHOOD).abs() < PIN_TOL,
        "AP0 direct likelihood drifted: {:.12e} vs pinned {:.12e}",
        d0.likelihood,
        PIN_AP0_LIKELIHOOD
    );
    assert_eq!(
        a0.clustering.clusters.len(),
        PIN_AP0_CLUSTERS,
        "AP0 cluster count drifted"
    );
    assert!(
        (a0.mean_rssi_dbm - PIN_AP0_MEAN_RSSI_DBM).abs() < PIN_TOL,
        "AP0 mean RSSI drifted: {:.12} dBm",
        a0.mean_rssi_dbm
    );

    // Localization pins: the final position, plus a sanity bound on the
    // actual error so a consistent-but-wrong re-pin can't sneak through.
    let est = spotfi.localize(&aps).unwrap();
    assert!(
        (est.position.x - PIN_POSITION_X).abs() < PIN_TOL
            && (est.position.y - PIN_POSITION_Y).abs() < PIN_TOL,
        "position drifted: ({:.12}, {:.12}) vs pinned ({:.12}, {:.12})",
        est.position.x,
        est.position.y,
        PIN_POSITION_X,
        PIN_POSITION_Y
    );
    let err = est.position.distance(target);
    assert!(err < 1.0, "golden trace error {} m out of bounds", err);
}

#[test]
fn golden_streaming_trace_pins_within_tolerance_of_batch() {
    // The amortized streaming path is tolerance-pinned, not bit-pinned.
    // With the default forgetting of 0.7 the rolling covariance averages
    // ~1/(1−λ) ≈ 3 packets of channel, so *per-packet* peaks legitimately
    // differ from single-packet batch MUSIC (the averaging actually
    // tightens the direct cluster: σθ 2.3° vs 11.8° batch on this trace).
    // What must hold is the cluster-level answer: the selected direct path
    // stays within a few degrees of both the batch pin and the geometric
    // truth, and the fused 4-AP position stays sub-meter.
    const STREAM_VS_BATCH_AOA_TOL_DEG: f64 = 8.0;
    const STREAM_VS_TRUTH_AOA_TOL_DEG: f64 = 5.0;
    const STREAM_POSITION_TOL_M: f64 = 1.5;

    let (aps, target) = golden_capture();
    let spotfi = SpotFi::new(SpotFiConfig::default());
    let a0 = spotfi.analyze_ap_streaming(&aps[0]).unwrap();
    let d0 = a0.direct.expect("AP0 streaming direct path");
    assert!(
        (d0.aoa_deg - PIN_AP0_AOA_DEG).abs() < STREAM_VS_BATCH_AOA_TOL_DEG,
        "streaming AP0 direct AoA {:.12}° left the tolerance band around batch {:.12}°",
        d0.aoa_deg,
        PIN_AP0_AOA_DEG
    );
    let truth = aps[0].array.aoa_from_deg(target);
    assert!(
        (d0.aoa_deg - truth).abs() < STREAM_VS_TRUTH_AOA_TOL_DEG,
        "streaming AP0 direct AoA {:.12}° vs truth {:.12}°",
        d0.aoa_deg,
        truth
    );
    assert_eq!(a0.dropped_packets, 0, "streaming dropped golden packets");
    // RSSI averaging is sweep-independent: bit-equal to the batch pin.
    assert!(
        (a0.mean_rssi_dbm - PIN_AP0_MEAN_RSSI_DBM).abs() < PIN_TOL,
        "streaming AP0 mean RSSI drifted: {:.12} dBm",
        a0.mean_rssi_dbm
    );

    // End-to-end: streaming per-AP analyses fused by Eq. 9 must stay
    // sub-meter on the golden capture (batch pin is ~0.35 m; streaming
    // lands ~0.8 m with a tighter, higher-likelihood direct cluster).
    let measurements: Vec<spotfi::core::ApMeasurement> = aps
        .iter()
        .filter_map(|ap| {
            spotfi
                .analyze_ap_streaming(ap)
                .ok()
                .and_then(|a| a.to_measurement())
        })
        .collect();
    assert_eq!(
        measurements.len(),
        4,
        "all four APs must yield a direct path"
    );
    let est = spotfi::core::localize(&measurements, &spotfi.config().localize).unwrap();
    let err = est.position.distance(target);
    assert!(
        err < STREAM_POSITION_TOL_M,
        "streaming golden localization error {} m out of bounds",
        err
    );
}

#[test]
fn golden_streaming_exact_mode_is_bit_identical_to_batch() {
    // The exactness contract (DESIGN.md §9): with forgetting = 0 every
    // packet's rolling covariance IS the batch covariance, and with
    // reanchor_period = 1 every packet re-anchors on the exact eigensolver
    // and the full detection sweep — the streaming path must then
    // reproduce the batch path bit for bit on every packet, not just the
    // ones where a periodic re-anchor happens to fire.
    let (aps, _) = golden_capture();
    let mut cfg = SpotFiConfig::default();
    cfg.stream.forgetting = 0.0;
    cfg.stream.reanchor_period = 1;
    let spotfi = SpotFi::new(cfg);
    for ap in &aps {
        let batch = spotfi.analyze_ap(ap).unwrap();
        let streamed = spotfi.analyze_ap_streaming(ap).unwrap();
        assert_eq!(
            batch.path_estimates.len(),
            streamed.path_estimates.len(),
            "streaming exact mode found a different estimate count"
        );
        for (b, s) in batch.path_estimates.iter().zip(&streamed.path_estimates) {
            assert_eq!(b.aoa_deg.to_bits(), s.aoa_deg.to_bits());
            assert_eq!(b.tof_ns.to_bits(), s.tof_ns.to_bits());
            assert_eq!(b.power.to_bits(), s.power.to_bits());
        }
        let (bd, sd) = (batch.direct.unwrap(), streamed.direct.unwrap());
        assert_eq!(bd.aoa_deg.to_bits(), sd.aoa_deg.to_bits());
        assert_eq!(bd.likelihood.to_bits(), sd.likelihood.to_bits());
    }
}

#[test]
fn golden_streaming_reanchor_packets_match_exact_solver() {
    // On packets where the periodic re-anchor fires, the streaming sweep
    // runs the exact eigensolver and full detection level over the rolling
    // covariance. Pin that equality exactly: a stream with forgetting = 0
    // and reanchor_period = 3 must produce bit-identical estimates to the
    // batch path on packets 0, 3, 6, 9 (the anchored ones) of AP0.
    let (aps, _) = golden_capture();
    let mut cfg = SpotFiConfig::default();
    cfg.stream.forgetting = 0.0;
    cfg.stream.reanchor_period = 3;
    // Disable the drift fallback so the anchor cadence is exactly every
    // third packet — a fallback would reset the period mid-stream and the
    // test would compare a warm-started packet against the exact solver.
    cfg.stream.drift_threshold = f64::INFINITY;
    let spotfi = SpotFi::new(cfg);

    let mut stream = spotfi::core::StreamState::new(spotfi.config());
    let mut scratch = spotfi::core::PacketScratch::new(spotfi.config());
    for (i, packet) in aps[0].packets.iter().enumerate() {
        let streamed = spotfi
            .analyze_packet_streaming_with(packet, &mut stream, &mut scratch)
            .unwrap();
        if i % 3 != 0 {
            continue; // warm-started packet: tolerance-pinned, not bit-pinned
        }
        let batch = spotfi.analyze_packet(packet).unwrap();
        assert_eq!(
            batch.len(),
            streamed.len(),
            "anchored packet {} found a different path count",
            i
        );
        for (b, s) in batch.iter().zip(&streamed) {
            assert_eq!(b.aoa_deg.to_bits(), s.aoa_deg.to_bits(), "packet {}", i);
            assert_eq!(b.tof_ns.to_bits(), s.tof_ns.to_bits(), "packet {}", i);
            assert_eq!(b.power.to_bits(), s.power.to_bits(), "packet {}", i);
        }
    }
}

#[test]
fn golden_trace_is_bit_stable_across_runs() {
    // The pins above allow a 1e-9 print-rounding tolerance; within one
    // process the capture and pipeline must be *exactly* reproducible.
    let run = || {
        let (aps, _) = golden_capture();
        let spotfi = SpotFi::new(SpotFiConfig::default());
        let a0 = spotfi.analyze_ap(&aps[0]).unwrap();
        let d = a0.direct.unwrap();
        let p = spotfi.localize(&aps).unwrap().position;
        (
            d.aoa_deg.to_bits(),
            d.tof_ns.to_bits(),
            p.x.to_bits(),
            p.y.to_bits(),
        )
    };
    assert_eq!(run(), run(), "golden trace not bit-reproducible");
}

/// FNV-1a over 64-bit words: a compact fold of many `to_bits` values.
fn fold_bits(digest: &mut u64, words: impl IntoIterator<Item = u64>) {
    for w in words {
        for byte in w.to_le_bytes() {
            *digest ^= u64::from(byte);
            *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every AP's default-config streaming analysis of the golden
/// capture: each packet's path estimates, the clustering's direct path and
/// the drop count.
fn streaming_digest(cfg: SpotFiConfig) -> u64 {
    let (aps, _) = golden_capture();
    let spotfi = SpotFi::new(cfg);
    let mut digest = FNV_OFFSET;
    for ap in &aps {
        let a = spotfi.analyze_ap_streaming(ap).unwrap();
        for p in &a.path_estimates {
            fold_bits(
                &mut digest,
                [p.aoa_deg.to_bits(), p.tof_ns.to_bits(), p.power.to_bits()],
            );
        }
        let d = a.direct.expect("streaming direct path");
        fold_bits(
            &mut digest,
            [
                d.aoa_deg.to_bits(),
                d.tof_ns.to_bits(),
                d.likelihood.to_bits(),
                a.dropped_packets as u64,
            ],
        );
    }
    digest
}

/// Digest of a small serial fleet run: every update the serving path
/// emits, in emission order.
fn fleet_digest() -> u64 {
    use spotfi::core::fleet::run_fleet_serial;
    use spotfi::core::FleetConfig;
    use spotfi::testbed::fleet::{FleetScenario, FleetScenarioConfig};

    let scenario = FleetScenario::generate(&FleetScenarioConfig::apartment(8));
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    let (updates, stats) = run_fleet_serial(&spotfi, &FleetConfig::default(), &scenario.schedule);
    assert!(!updates.is_empty(), "fleet run emitted no updates");
    let mut digest = FNV_OFFSET;
    for u in &updates {
        fold_bits(
            &mut digest,
            [
                u.target_id,
                u.time_s.to_bits(),
                u.raw.position.x.to_bits(),
                u.raw.position.y.to_bits(),
                u.raw.cost.to_bits(),
                u.tracked.x.to_bits(),
                u.tracked.y.to_bits(),
                u.aps_used as u64,
            ],
        );
    }
    fold_bits(&mut digest, [stats.processed, stats.updates]);
    digest
}

#[test]
fn golden_warm_streaming_path_is_bit_pinned() {
    // The default streaming config runs most packets on the warm path
    // (tracked subspace + warm-started sweep), which the tolerance test
    // above only bounds. Pin its output to the bit: a reordered covariance
    // update, a change to the precision the rolling covariance or the
    // tracked basis is stored in (or to how a stored basis is
    // re-orthonormalized), a change to when a warm packet is retried on the
    // exact path, or a changed Ritz step moves these digests. Re-derive with
    // `-- --nocapture` after an intentional algorithm change.
    const PIN_STREAMING: u64 = 0x322e_ef67_2462_8e7f;
    const PIN_FLEET: u64 = 0x556a_b721_25a4_9d56;

    let streaming = streaming_digest(SpotFiConfig::default());
    let fleet = fleet_digest();
    println!("streaming digest {streaming:#018x}, fleet digest {fleet:#018x}");

    // The pin covers warm packets: forcing every packet to anchor on the
    // exact solver changes the digest.
    let mut all_anchor = SpotFiConfig::default();
    all_anchor.stream.reanchor_period = 1;
    assert_ne!(
        streaming,
        streaming_digest(all_anchor),
        "the default stream never left the exact path"
    );
    assert_eq!(streaming, PIN_STREAMING, "warm streaming digest drifted");
    assert_eq!(fleet, PIN_FLEET, "fleet serving digest drifted");
}

/// Folds one simulated packet into `digest`: every CSI entry, the RSSI,
/// the timestamp and the injected STO, all as raw bits.
fn fold_packet(digest: &mut u64, p: &spotfi::channel::CsiPacket) {
    fold_bits(
        digest,
        p.csi
            .as_slice()
            .iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()]),
    );
    fold_bits(
        digest,
        [
            p.rssi_dbm.to_bits(),
            p.timestamp_s.to_bits(),
            p.injected_sto_s.to_bits(),
        ],
    );
}

/// Digest of a generated fleet's whole arrival schedule, in order.
fn schedule_digest(cfg: &spotfi::testbed::FleetScenarioConfig) -> u64 {
    let scenario = spotfi::testbed::FleetScenario::generate(cfg);
    assert!(!scenario.schedule.is_empty(), "fleet generated no packets");
    let mut digest = FNV_OFFSET;
    for p in &scenario.schedule {
        fold_bits(&mut digest, [p.target_id, u64::from(p.ap_id)]);
        fold_packet(&mut digest, &p.packet);
    }
    digest
}

#[test]
fn synthesis_is_bit_pinned() {
    // Every figure, fleet run and benchmark workload starts from the
    // simulator's CSI synthesis (Eq. 1 plus impairments). Pin its output
    // to the bit on three inputs: a moving 3-AP apartment fleet (re-traces
    // every ~20 packets), a lossy, drifting 16-AP perimeter ring, and the
    // static per-link traces the experiment runner hears. Re-derive with
    // `-- --nocapture` only after an intentional change to the channel
    // model or to the arithmetic that evaluates it.
    use spotfi::testbed::runner::{audible_traces, RunnerConfig};
    use spotfi::testbed::{Deployment, FleetScenarioConfig, Scenario};

    const PIN_APARTMENT: u64 = 0x88bc_ab92_ecf2_18e0;
    const PIN_RING16: u64 = 0x9352_16f6_46ef_ff7a;
    const PIN_OFFICE: u64 = 0xc374_2146_d7d2_5681;

    let apartment = schedule_digest(&FleetScenarioConfig::apartment(4));
    let ring16 = schedule_digest(&FleetScenarioConfig {
        aps: 16,
        loss_rate: 0.1,
        clock_drift_ppm: 20.0,
        ..FleetScenarioConfig::apartment(3)
    });
    let scenario = Scenario::office(&Deployment::standard());
    let mut office = FNV_OFFSET;
    for t in 0..3 {
        for (ap_idx, _, trace) in audible_traces(&scenario, &RunnerConfig::default(), t) {
            fold_bits(&mut office, [t as u64, ap_idx as u64]);
            for p in &trace.packets {
                fold_packet(&mut office, p);
            }
        }
    }
    println!(
        "apartment digest {apartment:#018x}, ring16 digest {ring16:#018x}, office digest {office:#018x}"
    );
    assert_eq!(
        apartment, PIN_APARTMENT,
        "apartment fleet synthesis drifted"
    );
    assert_eq!(ring16, PIN_RING16, "16-AP ring synthesis drifted");
    assert_eq!(office, PIN_OFFICE, "office trace synthesis drifted");
}

/// Digest of `analyze_all` over a 3-AP capture of 7, 6 and 9 packets with
/// one NaN packet (AP0 packet 5) and one all-zero packet (AP2 packet 2):
/// every AP's path estimates in order and its drop count, as raw bits.
fn batch_path_digest(threads: usize) -> u64 {
    use spotfi::core::RuntimeConfig;
    use spotfi::math::{c64, CMat};

    let home = Apartment::standard();
    let target = home.rooms[1][2].position;
    let trace_cfg = TraceConfig::commodity();
    let mut rng = Rng::seed_from_u64(SEED + 1);
    let mut aps: Vec<ApPackets> = home
        .aps
        .iter()
        .zip([7usize, 6, 9])
        .map(|(ap, n)| ApPackets {
            array: ap.array,
            packets: PacketTrace::generate(
                &home.floorplan,
                target,
                &ap.array,
                &trace_cfg,
                n,
                &mut rng,
            )
            .expect("every home AP hears the target")
            .packets,
        })
        .collect();
    for (ap, idx, value) in [(0usize, 5usize, f64::NAN), (2, 2, 0.0)] {
        let csi = &mut aps[ap].packets[idx].csi;
        *csi = CMat::from_fn(csi.rows(), csi.cols(), |_, _| c64::new(value, 0.0));
    }
    let cfg = SpotFiConfig {
        runtime: RuntimeConfig::with_threads(threads),
        ..SpotFiConfig::default()
    };
    let analyses = SpotFi::new(cfg).analyze_all(&aps).unwrap();
    assert_eq!(analyses.len(), 3, "every AP must assemble");
    let dropped: Vec<usize> = analyses.iter().map(|a| a.dropped_packets).collect();
    assert_eq!(dropped, [1, 0, 1], "exactly the two poisoned packets drop");
    let mut digest = FNV_OFFSET;
    for a in &analyses {
        for p in &a.path_estimates {
            fold_bits(
                &mut digest,
                [p.aoa_deg.to_bits(), p.tof_ns.to_bits(), p.power.to_bits()],
            );
        }
        fold_bits(&mut digest, [a.dropped_packets as u64]);
    }
    digest
}

#[test]
fn batch_path_is_bit_pinned() {
    // The exact per-packet path that every batch entry point runs (one
    // stream per AP under the exact policy), pinned to the bit over AP
    // sizes that are not multiples of four, a NaN packet and an all-zero
    // packet (both dropped). Scheduling, packet grouping and the thread
    // budget must not move a bit. Re-derive with `-- --nocapture` only after an intentional
    // change to the exact path's arithmetic.
    const PIN_BATCH: u64 = 0xa917_576d_cb1b_d634;

    let serial = batch_path_digest(1);
    let pooled = batch_path_digest(2);
    println!("batch-path digest {serial:#018x}");
    assert_eq!(serial, pooled, "batch path depends on the thread budget");
    assert_eq!(serial, PIN_BATCH, "batch-path digest drifted");
}
