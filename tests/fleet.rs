//! Fleet engine contract tests (tentpole + satellites of the fleet PR):
//!
//! 1. **Shard determinism** — per-target position estimates are
//!    bit-identical whatever the worker count and however packets of
//!    *other* targets interleave, as long as each target's own packets
//!    stay in order. Pinned with `to_bits` comparisons against the serial
//!    reference.
//! 2. **Overload** — a deliberately undersized queue under drop-newest
//!    sheds packets without panicking, every packet is accounted for
//!    (`ingested = accepted + dropped`, `accepted = processed` after
//!    shutdown), and targets re-fed at the engine's own pace still
//!    converge.
//! 3. **Moving targets** — the Kalman smoother wired into the fusion
//!    stage beats the raw per-update fixes at walking speed.
//! 4. **Fusion ≡ batch** — with exact streaming, one fusion over a full
//!    window reproduces `SpotFi::localize` bit for bit.
//! 5. **One ledger** — the `fleet.*` counters a run publishes equal its
//!    `FleetStats`, and the engine's latency histogram holds one sample
//!    per processed packet.
//! 6. **Hostile CSI** — a packet whose covariance is finite in `f64` but
//!    overflows a stream's `f32` storage fails alone: the error is
//!    counted, its stream starts afresh, and no other stream notices.
//! 7. **Queue capacity** — under `OverflowPolicy::Block` the shard queue's
//!    depth only decides when the producer stalls: per-target estimates
//!    equal the serial reference's at a one-packet queue and at the
//!    default capacity alike.

use std::collections::BTreeMap;

use spotfi::channel::{AntennaArray, Floorplan, PacketTrace, Point, Rng, TraceConfig};
use spotfi::core::fleet::{
    run_fleet_serial, FleetEngine, FleetPacket, FleetStats, FleetUpdate, PushResult,
};
use spotfi::core::{
    ApPackets, FleetConfig, OverflowPolicy, PacketScratch, SpotFi, SpotFiConfig, SpotFiError,
    StreamState,
};
use spotfi::math::c64;
use spotfi::testbed::fleet::{FleetScenario, FleetScenarioConfig};

fn fast_spotfi() -> SpotFi {
    SpotFi::new(SpotFiConfig::fast_test())
}

/// A small fleet config tuned so every target fuses several times within
/// a short schedule.
fn test_fleet_cfg() -> FleetConfig {
    FleetConfig {
        workers: 1,
        queue_capacity: 4096,
        fusion_interval: 8,
        window_packets: 4,
        ..FleetConfig::default()
    }
}

/// Groups updates per target, preserving each target's emit order (the
/// engine's mpsc interleaves targets arbitrarily; per-target order is the
/// deterministic part).
fn by_target(updates: &[FleetUpdate]) -> BTreeMap<u64, Vec<FleetUpdate>> {
    let mut map: BTreeMap<u64, Vec<FleetUpdate>> = BTreeMap::new();
    for u in updates {
        map.entry(u.target_id).or_default().push(*u);
    }
    map
}

/// Bit-exact equality of two per-target update sequences.
fn assert_bit_identical(
    label: &str,
    reference: &BTreeMap<u64, Vec<FleetUpdate>>,
    got: &BTreeMap<u64, Vec<FleetUpdate>>,
) {
    assert_eq!(
        reference.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "{label}: different target sets emitted updates"
    );
    for (target, ref_seq) in reference {
        let got_seq = &got[target];
        assert_eq!(
            ref_seq.len(),
            got_seq.len(),
            "{label}: target {target} update count"
        );
        for (i, (a, b)) in ref_seq.iter().zip(got_seq).enumerate() {
            let pos_bits = |u: &FleetUpdate| {
                (
                    u.raw.position.x.to_bits(),
                    u.raw.position.y.to_bits(),
                    u.raw.cost.to_bits(),
                    u.tracked.x.to_bits(),
                    u.tracked.y.to_bits(),
                )
            };
            assert_eq!(
                pos_bits(a),
                pos_bits(b),
                "{label}: target {target} update {i} differs ({:?} vs {:?})",
                a.raw.position,
                b.raw.position
            );
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            assert_eq!(a.aps_used, b.aps_used);
        }
    }
}

#[test]
fn per_target_estimates_are_bit_identical_across_worker_counts() {
    let scenario = FleetScenario::generate(&FleetScenarioConfig {
        targets: 6,
        packets_per_link: 10,
        ..FleetScenarioConfig::apartment(6)
    });
    assert!(scenario.targets.len() >= 4, "scenario too deaf to test");
    let cfg = test_fleet_cfg();

    let (serial_updates, serial_stats) = run_fleet_serial(&fast_spotfi(), &cfg, &scenario.schedule);
    assert!(
        !serial_updates.is_empty(),
        "serial reference emitted no updates"
    );
    let reference = by_target(&serial_updates);

    for workers in [1usize, 2, 4] {
        let engine = FleetEngine::new(fast_spotfi(), FleetConfig { workers, ..cfg });
        for pkt in &scenario.schedule {
            assert_ne!(
                engine.ingest(pkt.clone()),
                PushResult::Dropped,
                "blocking ingest must never drop"
            );
        }
        let report = engine.shutdown();
        assert_eq!(report.stats.ingested, serial_stats.ingested);
        assert_eq!(report.stats.accepted, report.stats.processed);
        assert_eq!(report.stats.dropped, 0);
        assert_bit_identical(
            &format!("workers={workers}"),
            &reference,
            &by_target(&report.updates),
        );
    }

    // Cross-target interleaving is irrelevant: a target-major reordering
    // (each target's own packets still in order) produces the same
    // per-target estimates.
    let mut reordered = scenario.schedule.clone();
    reordered.sort_by_key(|p| p.target_id); // stable: per-target order kept
    let (reordered_updates, _) = run_fleet_serial(&fast_spotfi(), &cfg, &reordered);
    assert_bit_identical(
        "target-major reorder",
        &reference,
        &by_target(&reordered_updates),
    );
}

#[test]
fn blocking_queue_capacity_changes_no_per_target_estimate() {
    let scenario = FleetScenario::generate(&FleetScenarioConfig {
        targets: 6,
        packets_per_link: 10,
        ..FleetScenarioConfig::apartment(6)
    });
    let cfg = test_fleet_cfg();
    let (serial_updates, _) = run_fleet_serial(&fast_spotfi(), &cfg, &scenario.schedule);
    assert!(
        !serial_updates.is_empty(),
        "serial reference emitted no updates"
    );
    let reference = by_target(&serial_updates);

    for queue_capacity in [1, FleetConfig::default().queue_capacity] {
        let engine = FleetEngine::new(
            fast_spotfi(),
            FleetConfig {
                workers: 2,
                queue_capacity,
                overflow: OverflowPolicy::Block,
                ..cfg
            },
        );
        for pkt in &scenario.schedule {
            assert_ne!(engine.ingest(pkt.clone()), PushResult::Dropped);
        }
        let report = engine.shutdown();
        assert_eq!(report.stats.dropped, 0);
        assert_eq!(report.stats.processed, scenario.schedule.len() as u64);
        assert_bit_identical(
            &format!("queue_capacity={queue_capacity}"),
            &reference,
            &by_target(&report.updates),
        );
    }
}

/// Free-space fixture for accuracy-sensitive fleet tests: four corner APs
/// in a 12 m × 10 m open area, so fast-test fidelity still localizes well.
fn open_area_aps() -> Vec<AntennaArray> {
    let hz = spotfi::channel::constants::DEFAULT_CARRIER_HZ;
    vec![
        AntennaArray::intel5300(Point::new(0.0, 0.0), 45f64.to_radians(), hz),
        AntennaArray::intel5300(Point::new(12.0, 0.0), 135f64.to_radians(), hz),
        AntennaArray::intel5300(Point::new(12.0, 10.0), 225f64.to_radians(), hz),
        AntennaArray::intel5300(Point::new(0.0, 10.0), 315f64.to_radians(), hz),
    ]
}

/// Builds an interleaved static-target schedule in free space.
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

#[test]
fn fleet_fusion_is_bit_identical_to_batch_localize() {
    // One target heard by three APs, interleaved by packet index. With
    // exact streaming (no forgetting, anchor every packet), one fusion over
    // the whole window and no stale eviction, the fleet's fusion stage sees
    // exactly the batch pipeline's per-AP estimates, so its raw fix must
    // equal `SpotFi::localize` bit for bit.
    let plan = Floorplan::empty();
    let target = Point::new(5.0, 4.0);
    let packets = 6;
    let aps: Vec<ApPackets> = open_area_aps()[..3]
        .iter()
        .enumerate()
        .map(|(a, &array)| {
            let mut rng = Rng::seed_from_u64(0x5107 + a as u64);
            let trace = PacketTrace::generate(
                &plan,
                target,
                &array,
                &TraceConfig::commodity(),
                packets,
                &mut rng,
            )
            .expect("free space is always audible");
            ApPackets {
                array,
                packets: trace.packets,
            }
        })
        .collect();
    let schedule: Vec<FleetPacket> = (0..packets)
        .flat_map(|i| {
            aps.iter().enumerate().map(move |(a, ap)| FleetPacket {
                target_id: 0,
                ap_id: a as u32,
                array: ap.array,
                packet: ap.packets[i].clone(),
            })
        })
        .collect();

    let mut spotfi_cfg = SpotFiConfig::fast_test();
    spotfi_cfg.stream.forgetting = 0.0;
    spotfi_cfg.stream.reanchor_period = 1;
    let spotfi = SpotFi::new(spotfi_cfg);
    let cfg = FleetConfig {
        fusion_interval: schedule.len(),
        window_packets: packets,
        ap_stale_s: f64::INFINITY,
        ..FleetConfig::default()
    };
    let (updates, stats) = run_fleet_serial(&spotfi, &cfg, &schedule);
    assert_eq!(stats.stream_errors, 0);
    assert_eq!(updates.len(), 1, "one fusion over the whole schedule");
    let fused = updates[0].raw;
    let batch = spotfi.localize(&aps).expect("batch fix");
    assert_eq!(updates[0].aps_used, aps.len());
    assert_eq!(fused.position.x.to_bits(), batch.position.x.to_bits());
    assert_eq!(fused.position.y.to_bits(), batch.position.y.to_bits());
    assert_eq!(fused.cost.to_bits(), batch.cost.to_bits());
}

#[test]
fn overloaded_queues_shed_loudly_and_recover() {
    let targets = [
        Point::new(3.0, 3.5),
        Point::new(6.0, 6.5),
        Point::new(9.0, 4.0),
    ];
    let schedule = open_area_schedule(&targets, 16, 0xBEEF);
    let cfg = FleetConfig {
        workers: 2,
        queue_capacity: 4, // deliberately undersized
        overflow: OverflowPolicy::DropNewest,
        fusion_interval: 8,
        window_packets: 4,
        ..FleetConfig::default()
    };
    let engine = FleetEngine::new(fast_spotfi(), cfg);

    // Phase 1: burst the whole schedule as fast as ingest returns. With a
    // 4-deep queue the producer outruns the workers and packets shed.
    let mut burst_dropped = 0u64;
    for pkt in &schedule {
        if engine.ingest(pkt.clone()) == PushResult::Dropped {
            burst_dropped += 1;
        }
    }
    assert!(
        burst_dropped > 0,
        "a 4-deep queue should shed under a full-speed burst"
    );

    // Phase 2: recovery — re-feed the schedule at the engine's own pace
    // (retry until accepted), so every target sees its full stream again.
    for pkt in &schedule {
        while engine.ingest(pkt.clone()) == PushResult::Dropped {
            std::thread::yield_now();
        }
    }
    let report = engine.shutdown();

    // Every packet is accounted for; nothing was lost silently, and the
    // queues fully drained before shutdown.
    let s = report.stats;
    assert_eq!(s.ingested, s.accepted + s.dropped, "accounting identity");
    assert_eq!(s.accepted, s.processed, "queues must drain on shutdown");
    assert!(s.dropped >= burst_dropped);
    assert!(s.deferred >= s.dropped, "sheds are deferred encounters");
    assert!(s.max_queue_depth <= 4 + 4, "depth bounded by capacity");

    // Surviving targets converge: each target's last tracked fix lands on
    // the truth (free space, 4 LoS APs — decimeter regime).
    let grouped = by_target(&report.updates);
    assert_eq!(grouped.len(), targets.len(), "every target must recover");
    for (target, updates) in &grouped {
        let last = updates.last().expect("non-empty");
        let err = last.tracked.distance(targets[*target as usize]);
        assert!(
            err < 1.0,
            "target {target} finished {err:.2} m from truth after recovery"
        );
    }
}

#[test]
fn smoother_beats_raw_fixes_at_walking_speed() {
    // Walking targets in the multipath-rich apartment: raw per-fusion
    // fixes are noisy (reflected paths occasionally win the direct-path
    // likelihood), so the constant-velocity smoother — which gates
    // outliers and averages measurement noise — must beat them.
    let scenario = FleetScenario::generate(&FleetScenarioConfig {
        targets: 6,
        packets_per_link: 30,
        speed_mps: 1.0,
        ..FleetScenarioConfig::apartment(6)
    });
    assert!(scenario.targets.len() >= 4, "scenario too deaf to test");
    // Match the smoother's noise model to this regime: fast-test grids in
    // a concrete-walled apartment give ~3 m raw scatter, not the 0.6 m
    // full-fidelity default (which would gate away genuine fixes).
    let tracker = spotfi::core::TrackerConfig {
        measurement_std_m: 2.5,
        ..Default::default()
    };
    let cfg = FleetConfig {
        fusion_interval: 6,
        window_packets: 2,
        tracker,
        ..test_fleet_cfg()
    };
    let (updates, stats) = run_fleet_serial(&fast_spotfi(), &cfg, &scenario.schedule);
    assert!(stats.updates >= 12, "too few updates: {:?}", stats);

    let mut raw_errs = Vec::new();
    let mut tracked_errs = Vec::new();
    for (_, seq) in by_target(&updates) {
        // Skip the first two updates per target: the smoother initializes
        // on the raw fix, so early updates are identical by construction.
        for u in seq.iter().skip(2) {
            let truth = scenario
                .truth_at(u.target_id, u.time_s)
                .expect("update from unknown target");
            raw_errs.push(u.raw.position.distance(truth));
            tracked_errs.push(u.tracked.distance(truth));
        }
    }
    assert!(
        tracked_errs.len() >= 8,
        "not enough post-warmup updates ({})",
        tracked_errs.len()
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (raw, tracked) = (mean(&raw_errs), mean(&tracked_errs));
    assert!(
        tracked < raw,
        "smoother did not help at walking speed: tracked {tracked:.3} m vs raw {raw:.3} m"
    );
    // And the track itself must be genuinely useful, not just relatively
    // better, at the coarse fast-test fidelity.
    assert!(tracked < 3.0, "tracked mean error {tracked:.2} m");
}

/// Asserts that a run's ledger balances and was published exactly once as
/// the `fleet.*` counters, and that the packet-latency histogram holds
/// `latency_samples` samples with ordered quantiles.
fn assert_published_once(label: &str, stats: &FleetStats, latency_samples: u64) {
    assert_eq!(stats.ingested, stats.accepted + stats.dropped, "{label}");
    assert_eq!(stats.accepted, stats.processed, "{label}");
    assert_eq!(
        stats.fusions,
        stats.updates + stats.fusion_no_fix,
        "{label}"
    );
    let snap = spotfi::obs::snapshot();
    let fields = [
        ("fleet.ingested", stats.ingested),
        ("fleet.accepted", stats.accepted),
        ("fleet.deferred", stats.deferred),
        ("fleet.dropped", stats.dropped),
        ("fleet.processed", stats.processed),
        ("fleet.stream_errors", stats.stream_errors),
        ("fleet.fusions", stats.fusions),
        ("fleet.updates", stats.updates),
        ("fleet.fusion_no_fix", stats.fusion_no_fix),
        ("fleet.fusion_degraded", stats.fusion_degraded),
        ("fleet.late_packets", stats.late_packets),
    ];
    for (name, want) in fields {
        let m = snap
            .get(name)
            .unwrap_or_else(|| panic!("{label}: {name} not published"));
        assert_eq!(m.updates, 1, "{label}: {name} published more than once");
        assert_eq!(snap.counter_total(name), want, "{label}: {name}");
    }
    let lat = snap.get("runtime.fleet_packet_latency_us");
    assert_eq!(lat.map_or(0, |m| m.updates), latency_samples, "{label}");
    if let Some(m) = lat {
        let q = [m.quantile(0.5), m.quantile(0.9), m.quantile(0.99), m.max];
        assert!(q.windows(2).all(|w| w[0] <= w[1]), "{label}: {q:?}");
    }
}

#[test]
fn published_fleet_counters_equal_the_ledger() {
    // The recorder is process-global and the other tests in this binary
    // run fleets concurrently, so the check re-runs alone in a child
    // process of this test binary.
    const CHILD: &str = "SPOTFI_FLEET_LEDGER_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "published_fleet_counters_equal_the_ledger",
                "--exact",
                "--test-threads=1",
            ])
            .env(CHILD, "1")
            .output()
            .expect("run the ledger check in a child process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }

    let scenario = FleetScenario::generate(&FleetScenarioConfig {
        targets: 4,
        packets_per_link: 8,
        ..FleetScenarioConfig::apartment(4)
    });
    let cfg = FleetConfig {
        reorder_window: 4,
        ..test_fleet_cfg()
    };
    let obs = |on: bool| {
        if on {
            spotfi::obs::reset();
        }
        spotfi::obs::set_enabled(on);
    };

    // One worker blocking, three shedding from a two-deep queue, so the
    // backpressure counters are exercised too.
    for (workers, overflow, queue_capacity) in [
        (1, OverflowPolicy::Block, 4096),
        (3, OverflowPolicy::DropNewest, 2),
    ] {
        obs(true);
        let engine = FleetEngine::new(
            fast_spotfi(),
            FleetConfig {
                workers,
                overflow,
                queue_capacity,
                ..cfg
            },
        );
        for pkt in &scenario.schedule {
            engine.ingest(pkt.clone());
        }
        let stats = engine.shutdown().stats;
        obs(false);
        assert!(stats.processed > 0, "{stats:?}");
        assert_published_once(&format!("workers={workers}"), &stats, stats.processed);
    }

    obs(true);
    let (_, stats) = run_fleet_serial(&fast_spotfi(), &cfg, &scenario.schedule);
    obs(false);
    assert!(stats.updates > 0, "{stats:?}");
    assert_published_once("serial", &stats, 0);

    // An engine dropped without `shutdown` still drains and publishes once.
    obs(true);
    let engine = FleetEngine::new(fast_spotfi(), cfg);
    for pkt in &scenario.schedule {
        engine.ingest(pkt.clone());
    }
    drop(engine);
    obs(false);
    let snap = spotfi::obs::snapshot();
    assert_eq!(snap.get("fleet.ingested").map(|m| m.updates), Some(1));
    assert_eq!(
        snap.counter_total("fleet.ingested"),
        scenario.schedule.len() as u64
    );
    assert_eq!(
        snap.counter_total("fleet.processed"),
        snap.counter_total("fleet.accepted")
    );
}

#[test]
fn csi_beyond_f32_range_poisons_only_its_own_stream() {
    // CSI scaled to a peak magnitude of 1e20 is finite, and so is its f64
    // covariance (~1e41), but that overflows the f32 a stream stores its
    // rolling covariance in. The packet must fail and be counted, its stream must start
    // afresh on the next packet, and every other stream must not notice.
    let scenario = FleetScenario::generate(&FleetScenarioConfig {
        targets: 4,
        packets_per_link: 10,
        ..FleetScenarioConfig::apartment(4)
    });
    let spotfi = fast_spotfi();
    let cfg = test_fleet_cfg();
    let (clean_updates, clean_stats) = run_fleet_serial(&spotfi, &cfg, &scenario.schedule);

    // The fourth packet of the first scheduled (target, AP) link.
    let (target, ap) = (scenario.schedule[0].target_id, scenario.schedule[0].ap_id);
    let link: Vec<usize> = (0..scenario.schedule.len())
        .filter(|&i| (scenario.schedule[i].target_id, scenario.schedule[i].ap_id) == (target, ap))
        .collect();
    let bad = 3;
    let mut hostile = scenario.schedule.clone();
    let packet = &mut hostile[link[bad]].packet;
    packet.csi = packet.csi.scale(c64::real(1e20 / packet.csi.max_abs()));

    let (updates, stats) = run_fleet_serial(&spotfi, &cfg, &hostile);
    assert_eq!(stats.processed, clean_stats.processed);
    assert_eq!(stats.stream_errors, clean_stats.stream_errors + 1);
    let (mut reference, mut got) = (by_target(&clean_updates), by_target(&updates));
    reference.remove(&target);
    got.remove(&target);
    assert!(!reference.is_empty(), "no other target emitted updates");
    assert_bit_identical("other targets", &reference, &got);

    // The link alone: the hostile packet fails, and every later packet
    // matches a fresh stream fed the packets after it, bit for bit.
    let mut scratch = PacketScratch::new(spotfi.config());
    let mut stream = StreamState::new(spotfi.config());
    let mut fresh = StreamState::new(spotfi.config());
    let bits = |r: Result<Vec<spotfi::core::PathEstimate>, SpotFiError>| {
        r.map(|paths| {
            paths
                .iter()
                .map(|p| [p.aoa_deg.to_bits(), p.tof_ns.to_bits(), p.power.to_bits()])
                .collect::<Vec<_>>()
        })
    };
    for (i, &k) in link.iter().enumerate() {
        let p = &hostile[k].packet;
        let got = spotfi.analyze_packet_streaming_with(p, &mut stream, &mut scratch);
        match i.cmp(&bad) {
            std::cmp::Ordering::Less => assert!(got.is_ok(), "packet {i}"),
            std::cmp::Ordering::Equal => assert_eq!(got.unwrap_err(), SpotFiError::DegenerateCsi),
            std::cmp::Ordering::Greater => {
                let want = spotfi.analyze_packet_streaming_with(p, &mut fresh, &mut scratch);
                assert_eq!(bits(got), bits(want), "packet {i}");
            }
        }
    }
}
