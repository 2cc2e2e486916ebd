//! Observability contract tests: enabling the recorder never changes
//! pipeline results, and the deterministic metric subset is bit-identical
//! regardless of how the work was scheduled across threads.
//!
//! The recorder is process-global, so every test here serializes on one
//! mutex — the per-test `reset()` would otherwise race.

use std::sync::{Mutex, MutexGuard, OnceLock};

use spotfi::core::{ApPackets, RuntimeConfig, SpotFi, SpotFiConfig};
use spotfi::testbed::{Deployment, Runner, RunnerConfig, Scenario};
use spotfi::{AntennaArray, Floorplan, PacketTrace, Point, TraceConfig};
use spotfi_channel::Rng;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn capture() -> Vec<ApPackets> {
    capture_with(8)
}

/// Four corner APs hearing one target, `packets` packets each.
fn capture_with(packets: usize) -> Vec<ApPackets> {
    let plan = Floorplan::empty();
    let target = Point::new(3.7, 6.1);
    let center = Point::new(5.0, 5.0);
    let mut rng = Rng::seed_from_u64(31);
    [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
        .iter()
        .map(|&(x, y)| {
            let angle = (center - Point::new(x, y)).angle();
            let array = AntennaArray::intel5300(
                Point::new(x, y),
                angle,
                spotfi::channel::constants::DEFAULT_CARRIER_HZ,
            );
            let trace = PacketTrace::generate(
                &plan,
                target,
                &array,
                &TraceConfig::commodity(),
                packets,
                &mut rng,
            )
            .unwrap();
            ApPackets {
                array,
                packets: trace.packets,
            }
        })
        .collect()
}

fn spotfi_with_threads(threads: usize) -> SpotFi {
    SpotFi::new(SpotFiConfig {
        runtime: RuntimeConfig::with_threads(threads),
        ..SpotFiConfig::default()
    })
}

/// Runs one recorder-enabled localize at the given thread budget and
/// returns (snapshot, position bits).
fn instrumented_run(aps: &[ApPackets], threads: usize) -> (spotfi::obs::Snapshot, (u64, u64)) {
    spotfi::obs::reset();
    spotfi::obs::set_enabled(true);
    let est = spotfi_with_threads(threads).localize(aps).unwrap();
    spotfi::obs::set_enabled(false);
    let snap = spotfi::obs::snapshot();
    spotfi::obs::reset();
    (snap, (est.position.x.to_bits(), est.position.y.to_bits()))
}

#[test]
fn deterministic_metrics_bit_identical_across_thread_counts() {
    let _guard = lock();
    let aps = capture();
    let (snap_t1, pos_t1) = instrumented_run(&aps, 1);
    let (snap_t8, pos_t8) = instrumented_run(&aps, 8);

    assert_eq!(pos_t1, pos_t8, "estimates must not depend on thread count");
    assert!(
        !snap_t1.deterministic_metrics().is_empty(),
        "instrumentation recorded nothing"
    );
    assert!(
        snap_t1.deterministic_eq(&snap_t8),
        "counters/value histograms differ between 1 and 8 threads:\n t1: {:?}\n t8: {:?}",
        snap_t1.deterministic_metrics(),
        snap_t8.deterministic_metrics()
    );
}

#[test]
fn estimates_bit_identical_with_observability_on_and_off() {
    let _guard = lock();
    let aps = capture();

    let run_plain = |threads: usize| {
        let est = spotfi_with_threads(threads).localize(&aps).unwrap();
        (est.position.x.to_bits(), est.position.y.to_bits())
    };

    for threads in [1, 8] {
        spotfi::obs::reset();
        assert!(!spotfi::obs::enabled());
        let off = run_plain(threads);
        let (_, on) = instrumented_run(&aps, threads);
        assert_eq!(
            off, on,
            "enabling observability changed the {}-thread estimate",
            threads
        );
    }
}

#[test]
fn disabled_recorder_records_nothing() {
    let _guard = lock();
    spotfi::obs::reset();
    assert!(!spotfi::obs::enabled());
    let aps = capture();
    spotfi_with_threads(2).localize(&aps).unwrap();
    let snap = spotfi::obs::snapshot();
    assert!(
        snap.metrics.is_empty(),
        "disabled recorder still captured: {:?}",
        snap.metrics
    );
}

#[test]
fn testbed_runner_workers_flush_into_snapshot() {
    // Regression test: the testbed runner's scoped workers once relied on
    // thread-local destructors to merge their shards, which
    // `std::thread::scope` does not wait for — a snapshot taken right after
    // `run_localization` came back empty. The runner now maps targets
    // through `parallel_map_with`, whose workers flush at the end of their
    // closure, so everything recorded inside the run must be visible.
    let _guard = lock();
    let deployment = Deployment::standard();
    let mut scenario = Scenario::office(&deployment);
    scenario.targets.truncate(2);
    scenario.packets_per_fix = 4;
    for threads in [1, 2] {
        let mut cfg = RunnerConfig::default();
        cfg.spotfi.runtime = RuntimeConfig::with_threads(threads);
        let runner = Runner::new(scenario.clone(), cfg);
        spotfi::obs::reset();
        spotfi::obs::set_enabled(true);
        let records = runner.run_localization();
        spotfi::obs::set_enabled(false);
        let snap = spotfi::obs::snapshot();
        spotfi::obs::reset();
        assert_eq!(records.len(), 2);
        assert!(
            snap.counter_total("sanitize.packets_ok") > 0,
            "runner workers recorded nothing at {} threads",
            threads
        );
        assert!(
            snap.get("stage.sweep").is_some(),
            "stage spans missing from runner-driven run at {} threads",
            threads
        );
    }
}

#[test]
fn per_packet_counters_scale_with_input() {
    // Sanity-check the counter semantics end to end: analyzing one AP's 8
    // packets must count exactly 8 sanitize successes and 8 analyzed
    // packets, independent of scheduling. Batch runs the stream engine
    // under its exact policy, so every packet is also counted as a stream
    // anchor, and none is warm or a tracker fallback.
    let _guard = lock();
    let aps = capture();
    for threads in [1, 4] {
        spotfi::obs::reset();
        spotfi::obs::set_enabled(true);
        spotfi_with_threads(threads).analyze_ap(&aps[0]).unwrap();
        spotfi::obs::set_enabled(false);
        let snap = spotfi::obs::snapshot();
        spotfi::obs::reset();
        assert_eq!(snap.counter_total("sanitize.packets_ok"), 8);
        assert_eq!(snap.counter_total("pipeline.packets_analyzed"), 8);
        assert_eq!(snap.counter_total("pipeline.aps_assembled"), 1);
        assert_eq!(snap.counter_total("music.c2f_searches"), 8);
        assert_eq!(snap.counter_total("stream.packets"), 8);
        assert_eq!(snap.counter_total("stream.anchor"), 8);
        assert_eq!(snap.counter_total("stream.warmstart_hit"), 0);
        assert_eq!(snap.counter_total("stream.tracker_fallback"), 0);
    }
}

#[test]
fn disabled_recorder_costs_under_two_percent_of_analyze_ap() {
    // Every instrumentation point costs one relaxed atomic load when the
    // recorder is off. Bound that cost analytically, not by a wall-clock
    // A/B: the record calls of one recorder-on `analyze_ap`, two touches
    // each (a span checks at construction and at drop), times the measured
    // per-call cost of a disabled `counter`, against the median of five
    // serial `analyze_ap` calls on the 10-packet fixture.
    let _guard = lock();
    let ap = capture_with(10).swap_remove(0);
    let serial = spotfi_with_threads(1);

    spotfi::obs::reset();
    spotfi::obs::set_enabled(true);
    serial.analyze_ap(&ap).unwrap();
    spotfi::obs::set_enabled(false);
    let record_calls = spotfi::obs::snapshot().total_updates();
    spotfi::obs::reset();
    assert!(record_calls > 0, "analyze_ap recorded nothing");

    let mut analyze_ns: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(serial.analyze_ap(&ap).unwrap());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    analyze_ns.sort_by(f64::total_cmp);
    let analyze_median_ns = analyze_ns[2];

    let iters = 4_000_000u64;
    let t0 = std::time::Instant::now();
    for i in 0..iters {
        spotfi::obs::counter("test.disabled_probe", std::hint::black_box(i));
    }
    let disabled_ns_per_call = t0.elapsed().as_nanos() as f64 / iters as f64;
    assert!(spotfi::obs::snapshot().metrics.is_empty());

    let bound = disabled_ns_per_call * (2 * record_calls) as f64 / analyze_median_ns;
    println!(
        "{record_calls} record calls per analyze_ap; disabled path {disabled_ns_per_call:.2} \
         ns/call; overhead bound {:.4}% of {analyze_median_ns:.0} ns",
        100.0 * bound
    );
    assert!(
        bound <= 0.02,
        "recorder-disabled overhead bound {:.3}% exceeds the 2% budget",
        100.0 * bound
    );
}
