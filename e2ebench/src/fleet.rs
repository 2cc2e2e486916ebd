//! Fleet workloads (`walk`, `ring16`): many moving targets streaming CSI
//! over the wire into one [`FleetEngine`].
//!
//! The scene — walks, channels, packets — is the repository's standard
//! fleet scenario and does not depend on the seed. The seed sets how the
//! targets interleave on the wire. Each target's packets keep their order,
//! so by the engine's determinism contract no fix depends on the seed, and
//! accuracy is gated as an exact number.
//!
//! An end-to-end run builds the inputs, offers them **open loop** at a
//! fixed rate (fix latency runs from each trigger packet's due time), then
//! replays the same packets **closed loop** on a fresh engine (capacity).
//! The traced run instead replays the packets through a serial replica of
//! the shard worker built from public calls, with a span around every
//! layer, and times the producer-side calls on an open-loop engine pass.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use spotfi_channel::{AntennaArray, Point};
use spotfi_core::localize::localize_in_bounds;
use spotfi_core::{
    cluster_estimates, localize, run_fleet_serial, select_direct_path, ApMeasurement, FleetConfig,
    FleetEngine, FleetPacket, FleetStats, FleetUpdate, PacketScratch, PathEstimate,
    ReceiverCalibration, ReceiverRegistry, SpotFi, SpotFiConfig, StreamState, Tracker,
};
use spotfi_io::{WireDecoder, WireEvent, WireStats};
use spotfi_math::stats::mean;
use spotfi_testbed::fleet::FleetScenarioConfig;
use spotfi_testbed::FleetScenario;

use crate::stats::{lateness, median, window_boundary, window_rates, Arrivals};
use crate::trace::Tracer;
use crate::{
    check, host, mix, probe_packet_layers, with_probe, BenchError, Harness, Options, Report,
    CAPACITY_PERCENTILE,
};

/// Sizes and load of one fleet workload.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Concurrent targets.
    pub targets: usize,
    /// Deployed APs (receivers).
    pub aps: usize,
    /// Walking speed, m/s.
    pub speed_mps: f64,
    /// Open-loop offered load, packets per second.
    pub rate_pps: f64,
    /// Target `t` joins `t mod stagger` packets late on every link.
    pub stagger: usize,
    /// Windows each capacity pass is split into.
    pub windows: usize,
    /// Packets the traced run times each layer probe on.
    pub probe_packets: usize,
    /// Shared harness settings.
    pub harness: Harness,
}

impl FleetSpec {
    /// `walk`: the steady serving regime — 256 targets at 0.35 m/s heard
    /// by 3 APs, offered at ≈30% of one worker's capacity.
    pub fn walk() -> Self {
        FleetSpec {
            targets: 256,
            aps: 3,
            speed_mps: 0.35,
            rate_pps: 3000.0,
            stagger: 32,
            windows: 20,
            probe_packets: 512,
            harness: Harness::standard(),
        }
    }

    /// `ring16`: fusion-heavy — 128 targets heard by a 16-AP perimeter
    /// ring, so each fix fuses 16 bearings; offered at ≈30% of capacity.
    pub fn ring16() -> Self {
        FleetSpec {
            targets: 128,
            aps: 16,
            rate_pps: 2000.0,
            ..FleetSpec::walk()
        }
    }

    /// Packets one run offers: `rate × seconds`.
    fn offered(&self, seconds: f64) -> usize {
        (self.rate_pps * seconds).round().max(1.0) as usize
    }

    /// Packets per link to generate so the staggered schedule holds
    /// `offered` packets: the per-link share plus 5% for links a target is
    /// inaudible on, plus the mean stagger drop.
    fn packets_per_link(&self, offered: usize) -> usize {
        let links = (self.targets * self.aps) as f64;
        (1.05 * offered as f64 / links).ceil() as usize + self.stagger.div_ceil(2)
    }

    /// The configuration `spotfi fleet`/`serve` run, with one worker per
    /// hardware thread left after the generator's.
    fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            workers: spotfi_core::hardware_parallelism().saturating_sub(1).max(1),
            ..FleetConfig::default()
        }
    }
}

/// Drops the first `t mod period` packets of every link of target `t`.
///
/// Without it every link starts at t = 0, so all streams anchor together,
/// re-anchor in lockstep every 32 packets, and the load arrives in bursts.
/// Each link keeps a contiguous suffix of its packets, in order.
pub fn stagger(schedule: Vec<FleetPacket>, period: usize) -> Vec<FleetPacket> {
    let mut seen: HashMap<(u64, u32), u64> = HashMap::new();
    schedule
        .into_iter()
        .filter(|p| {
            let n = seen.entry((p.target_id, p.ap_id)).or_insert(0);
            *n += 1;
            *n > p.target_id % period.max(1) as u64
        })
        .collect()
}

/// Delays every packet of target `t` by the same seeded backhaul latency
/// in `[0, spread_s)` and returns the schedule in arrival order.
///
/// Each target's packets keep their order (the schedule is sorted by
/// time, and ties keep schedule order), so the seed changes how targets
/// interleave on the wire and no fix.
pub fn arrival_order(schedule: Vec<FleetPacket>, seed: u64, spread_s: f64) -> Vec<FleetPacket> {
    let delay = |target: u64| (mix(seed, target) >> 11) as f64 / (1u64 << 53) as f64 * spread_s;
    let mut keyed: Vec<(f64, FleetPacket)> = schedule
        .into_iter()
        .map(|p| (p.packet.timestamp_s + delay(p.target_id), p))
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, p)| p).collect()
}

/// The inputs and serving objects one run needs.
struct Setup {
    scenario: FleetScenario,
    frames: Vec<Vec<u8>>,
    registry: ReceiverRegistry,
    spotfi: SpotFi,
}

/// Everything before the first offered packet: scenario synthesis,
/// stagger, arrival order, wire encode, receiver registry, `SpotFi::new`
/// and `FleetEngine::new`, each under a span.
fn setup(
    spec: &FleetSpec,
    seed: u64,
    offered: usize,
    tracer: &mut Tracer,
) -> Result<(Setup, FleetEngine), BenchError> {
    let root = tracer.begin("bench.setup", 0);
    let cfg = FleetScenarioConfig {
        aps: spec.aps,
        packets_per_link: spec.packets_per_link(offered),
        speed_mps: spec.speed_mps,
        ..FleetScenarioConfig::apartment(spec.targets)
    };
    let mut scenario = tracer.time("testbed.generate", 0, || FleetScenario::generate(&cfg));
    let schedule = std::mem::take(&mut scenario.schedule);
    let interval = scenario.packet_interval_s;
    scenario.schedule = tracer.time("bench.stagger", 0, || {
        let mut s = stagger(schedule, spec.stagger);
        // Cut at a time before reordering, so every seed offers the same
        // packets of each target.
        s.truncate(offered);
        arrival_order(s, seed, interval)
    });
    check(scenario.schedule.len() == offered, || {
        format!(
            "the scenario holds {} packets, the run offers {offered}",
            scenario.schedule.len()
        )
    })?;
    let frames = tracer.time("io.encode", 0, || {
        scenario
            .schedule
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let record = spotfi_io::from_csi_packet(&p.packet, i as u16, 30);
                spotfi_io::encode_frame(p.ap_id as u16, p.target_id, p.packet.timestamp_s, &record)
            })
            .collect()
    });
    let registry = tracer.time("core.registry", 0, || {
        let mut reg = ReceiverRegistry::new();
        for (i, ap) in scenario.aps.iter().enumerate() {
            reg.register(i as u32, ap.array, ReceiverCalibration::default());
        }
        reg
    });
    let spotfi = tracer.time("core.spotfi_new", 0, || {
        SpotFi::new(SpotFiConfig::fast_test())
    });
    let engine = tracer.time("core.fleet.engine_new", 0, || {
        FleetEngine::new(spotfi.clone(), spec.fleet_config())
    });
    tracer.end(root);
    Ok((
        Setup {
            scenario,
            frames,
            registry,
            spotfi,
        },
        engine,
    ))
}

/// Open loop offers each packet at its due time; closed loop offers the
/// next packet as soon as `ingest` returns.
#[derive(Clone, Copy)]
enum Load {
    Open { rate_pps: f64 },
    Closed { windows: usize },
}

/// What one pass over the frames saw.
struct Pass {
    updates: Vec<FleetUpdate>,
    /// When the generator received each update.
    seen: Vec<Instant>,
    /// The open-loop schedule (`None` for a closed-loop pass).
    arrivals: Option<Arrivals>,
    lateness_us: Vec<f64>,
    /// Elapsed seconds at which each capacity window closed.
    crossings: Vec<f64>,
    stats: FleetStats,
    wire: WireStats,
    unknown_receiver: u64,
    wall: Duration,
    worker_cpu_ns: u64,
}

fn worker_cpu_ns(workers: usize) -> Result<u64, BenchError> {
    (0..workers)
        .map(|w| host::thread_cpu_ns(&format!("fleet-{w}")))
        .sum()
}

fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, request, f),
        None => f(),
    }
}

/// One pass of the frames through the serve path, on `engine`. With a
/// tracer, every producer-side call gets a span.
fn pass(
    setup: &Setup,
    engine: FleetEngine,
    workers: usize,
    load: Load,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, BenchError> {
    let frames = &setup.frames;
    let total = frames.len() as u64;
    let mut updates: Vec<FleetUpdate> = Vec::new();
    let mut seen: Vec<Instant> = Vec::new();
    let mut crossings: Vec<f64> = Vec::new();
    let mut lateness_us = Vec::with_capacity(frames.len());
    let mut dec = WireDecoder::new();
    let mut unknown_receiver = 0u64;

    let poll = |updates: &mut Vec<FleetUpdate>, seen: &mut Vec<Instant>| {
        let got = engine.try_updates();
        if !got.is_empty() {
            seen.extend(std::iter::repeat_n(Instant::now(), got.len()));
            updates.extend(got);
        }
    };
    let cross = |processed: u64, at: f64, crossings: &mut Vec<f64>| {
        if let Load::Closed { windows } = load {
            while crossings.len() < windows
                && processed >= window_boundary(crossings.len(), total, windows)
            {
                crossings.push(at);
            }
        }
    };

    let cpu_before = worker_cpu_ns(workers)?;
    let start = Instant::now();
    let arrivals = match load {
        Load::Open { rate_pps } => Some(Arrivals::new(start, rate_pps)),
        Load::Closed { .. } => None,
    };
    for (i, frame) in frames.iter().enumerate() {
        if let Some(arrivals) = &arrivals {
            let due = arrivals.due(i);
            while Instant::now() < due {
                poll(&mut updates, &mut seen);
                std::hint::spin_loop();
            }
            lateness_us.push(lateness(due, Instant::now()).as_nanos() as f64 / 1e3);
        }
        let req = i as u64;
        let root = tracer.as_mut().map(|t| t.begin("gen.offer", req));
        let mut decoded = None;
        timed(&mut tracer, "io.wire.feed", req, || {
            dec.feed(frame, &mut |e| {
                if let WireEvent::Frame(f) = e {
                    decoded = Some(f);
                }
            })
        });
        if let Some(f) = decoded {
            let packet = timed(&mut tracer, "io.convert.record", req, || {
                spotfi_io::packet_from_record(&f.record, f.timestamp_s)
            });
            let routed = timed(&mut tracer, "core.ingest.fleet_packet", req, || {
                setup
                    .registry
                    .fleet_packet(f.receiver_id as u32, f.source_id, packet)
            });
            match routed {
                Some(p) => {
                    timed(&mut tracer, "core.fleet.ingest", req, || engine.ingest(p));
                }
                None => unknown_receiver += 1,
            }
        }
        if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
            t.end(id);
        }
        poll(&mut updates, &mut seen);
        if let Load::Closed { .. } = load {
            cross(
                engine.stats().processed,
                start.elapsed().as_secs_f64(),
                &mut crossings,
            );
        }
    }
    dec.finish(&mut |_| {});
    // Drain: wait for every accepted packet to be processed and its
    // update received.
    loop {
        poll(&mut updates, &mut seen);
        let s = engine.stats();
        cross(s.processed, start.elapsed().as_secs_f64(), &mut crossings);
        if s.processed >= s.accepted && updates.len() as u64 >= s.updates {
            break;
        }
        std::hint::spin_loop();
    }
    let wall = start.elapsed();
    let worker_cpu = worker_cpu_ns(workers)? - cpu_before;
    // An update the worker counted but had not yet sent arrives here.
    let mut report = engine.shutdown();
    seen.extend(std::iter::repeat_n(Instant::now(), report.updates.len()));
    updates.append(&mut report.updates);
    Ok(Pass {
        updates,
        seen,
        arrivals,
        lateness_us,
        crossings,
        stats: report.stats,
        wire: dec.stats(),
        unknown_receiver,
        wall,
        worker_cpu_ns: worker_cpu,
    })
}

impl Pass {
    /// Packets that never reached a stream: not decoded, from an unknown
    /// receiver, or shed by a full queue.
    fn lost(&self, offered: usize) -> u64 {
        (offered as u64).saturating_sub(self.wire.decoded)
            + self.unknown_receiver
            + self.stats.dropped
    }

    /// The accounting every pass must satisfy.
    fn check(&self, what: &str, offered: usize) -> Result<(), BenchError> {
        let s = &self.stats;
        let w = &self.wire;
        check(
            w.decoded == offered as u64 && w.received == w.decoded,
            || format!("{what}: decoded {} of {offered} frames sent", w.decoded),
        )?;
        check(self.unknown_receiver == 0, || {
            format!(
                "{what}: {} frames from unknown receivers",
                self.unknown_receiver
            )
        })?;
        check(s.ingested == offered as u64, || {
            format!("{what}: ingested {} of {offered} packets", s.ingested)
        })?;
        check(s.ingested == s.accepted + s.dropped, || {
            format!(
                "{what}: ingested {} != accepted {} + dropped {}",
                s.ingested, s.accepted, s.dropped
            )
        })?;
        check(s.accepted == s.processed, || {
            format!(
                "{what}: accepted {} != processed {}",
                s.accepted, s.processed
            )
        })?;
        check(s.fusions == s.updates + s.fusion_no_fix, || {
            format!(
                "{what}: fusions {} != updates {} + no-fix {}",
                s.fusions, s.updates, s.fusion_no_fix
            )
        })?;
        check(self.updates.len() as u64 == s.updates, || {
            format!(
                "{what}: received {} of {} updates",
                self.updates.len(),
                s.updates
            )
        })?;
        check(s.fusions > 0, || format!("{what}: no fusion ran"))
    }

    fn open_loop(&self) -> Result<&Arrivals, BenchError> {
        self.arrivals
            .as_ref()
            .ok_or_else(|| BenchError::new("a closed-loop pass has no arrival schedule"))
    }

    /// The generator's lateness p99, microseconds, and whether it kept its
    /// schedule. A p99 above one inter-arrival gap means the offered load
    /// was not the stated load, so the pass's fix latencies are invalid.
    /// Nothing else the run reports depends on the arrival times.
    fn generator_lag(&self, h: &Harness) -> Result<(f64, bool), BenchError> {
        let lag_p99 = h.percentile("gen.lag_us", &self.lateness_us, 99.0)?;
        let gap_us = self.open_loop()?.gap().as_secs_f64() * 1e6;
        let kept = lag_p99 <= gap_us;
        if !kept {
            eprintln!(
                "spotfi-e2e: generator lateness p99 {lag_p99:.1} µs exceeds the {gap_us:.1} µs \
                 gap: the host did not let it keep the schedule, so fix latency is not reported"
            );
        }
        Ok((lag_p99, kept))
    }

    /// Open-loop fix latencies, milliseconds: from the trigger packet's
    /// due time to the moment the generator received the update. The
    /// trigger is the unique schedule entry with the update's
    /// `(target_id, time_s bits)`.
    fn fix_latencies_ms(&self, setup: &Setup) -> Result<Vec<f64>, BenchError> {
        let arrivals = self.open_loop()?;
        let schedule = &setup.scenario.schedule;
        let index: HashMap<(u64, u64), usize> = schedule
            .iter()
            .enumerate()
            .map(|(i, p)| ((p.target_id, p.packet.timestamp_s.to_bits()), i))
            .collect();
        check(index.len() == schedule.len(), || {
            "schedule (target, time) keys are not unique".into()
        })?;
        self.updates
            .iter()
            .zip(&self.seen)
            .map(|(u, &seen)| {
                let i = index
                    .get(&(u.target_id, u.time_s.to_bits()))
                    .ok_or_else(|| {
                        BenchError::new(format!(
                            "update of target {} at {} s matches no packet",
                            u.target_id, u.time_s
                        ))
                    })?;
                Ok(seen
                    .saturating_duration_since(arrivals.due(*i))
                    .as_secs_f64()
                    * 1e3)
            })
            .collect()
    }
}

fn same_update(a: &FleetUpdate, b: &FleetUpdate) -> bool {
    let bits = |u: &FleetUpdate| {
        [
            u.time_s.to_bits(),
            u.raw.position.x.to_bits(),
            u.raw.position.y.to_bits(),
            u.raw.cost.to_bits(),
            u.raw.path_loss.p0_dbm.to_bits(),
            u.raw.path_loss.exponent.to_bits(),
            u.tracked.x.to_bits(),
            u.tracked.y.to_bits(),
            u.tracked_velocity.0.to_bits(),
            u.tracked_velocity.1.to_bits(),
        ]
    };
    a.target_id == b.target_id
        && bits(a) == bits(b)
        && a.outcome == b.outcome
        && a.aps_used == b.aps_used
        && a.degraded == b.degraded
}

/// The determinism contract: per target, two update streams are to-bits
/// identical.
fn check_same_per_target(
    what: &str,
    a: &[FleetUpdate],
    b: &[FleetUpdate],
) -> Result<(), BenchError> {
    let by_target = |us: &[FleetUpdate]| {
        let mut m: HashMap<u64, Vec<FleetUpdate>> = HashMap::new();
        for u in us {
            m.entry(u.target_id).or_default().push(*u);
        }
        m
    };
    let (ma, mb) = (by_target(a), by_target(b));
    check(ma.len() == mb.len(), || {
        format!("{what}: {} vs {} targets with fixes", ma.len(), mb.len())
    })?;
    for (t, ua) in &ma {
        let ub = mb.get(t).map(Vec::as_slice).unwrap_or(&[]);
        check(
            ua.len() == ub.len() && ua.iter().zip(ub).all(|(x, y)| same_update(x, y)),
            || format!("{what}: the updates of target {t} differ"),
        )?;
    }
    Ok(())
}

/// Error of every update's position (picked by `position`) against the
/// walk's truth at the update's time, m.
fn fix_errors(
    setup: &Setup,
    updates: &[FleetUpdate],
    position: impl Fn(&FleetUpdate) -> Point,
) -> Result<Vec<f64>, BenchError> {
    updates
        .iter()
        .map(|u| {
            setup
                .scenario
                .truth_at(u.target_id, u.time_s)
                .map(|t| position(u).distance(t))
                .ok_or_else(|| BenchError::new(format!("no truth for target {}", u.target_id)))
        })
        .collect()
}

/// Runs a fleet workload.
pub fn run(spec: &FleetSpec, opts: &Options) -> Result<Report, BenchError> {
    with_probe(&spec.harness, || {
        if opts.trace {
            run_traced(spec, opts)
        } else {
            run_end_to_end(spec, opts)
        }
    })
}

fn run_end_to_end(spec: &FleetSpec, opts: &Options) -> Result<Report, BenchError> {
    let h = &spec.harness;
    let offered = spec.offered(opts.seconds);
    let workers = spec.fleet_config().workers;

    let mut t = Tracer::default();
    let (setup, engine) = setup(spec, opts.seed, offered, &mut t)?;
    let mut setup_s = vec![t.total_ns("bench.setup") as f64 / 1e9];
    let open = pass(
        &setup,
        engine,
        workers,
        Load::Open {
            rate_pps: spec.rate_pps,
        },
        None,
    )?;
    open.check("open loop", offered)?;
    let (lag_p99, kept_schedule) = open.generator_lag(h)?;

    // Capacity: closed-loop passes on fresh engines, one after each set-up
    // repetition, so they sample intervals spread over the run and a slow
    // phase of a shared host spoils one pass, not the median.
    //
    // The heap peak is taken over these passes too: their ingest queue is
    // full for most of the pass, so packets in flight do not depend on
    // how the host schedules the generator, as they do in the open loop.
    let mut rates = Vec::new();
    let mut heap_bytes = Vec::new();
    for rep in 0..h.setup_reps.max(1) {
        if rep > 0 {
            let mut t = Tracer::default();
            let (again, engine) = self::setup(spec, opts.seed, offered, &mut t)?;
            drop(engine);
            setup_s.push(t.total_ns("bench.setup") as f64 / 1e9);
            check(again.frames == setup.frames, || {
                "set-up is not deterministic: repeated set-ups encoded different frames".into()
            })?;
        }
        let heap_before = host::reset_heap_peak();
        let closed = pass(
            &setup,
            FleetEngine::new(setup.spotfi.clone(), spec.fleet_config()),
            workers,
            Load::Closed {
                windows: spec.windows,
            },
            None,
        )?;
        heap_bytes.push(host::heap_peak_bytes().saturating_sub(heap_before) as f64);
        closed.check("closed loop", offered)?;
        check(closed.crossings.len() == spec.windows, || {
            format!(
                "capacity pass closed {} of {} windows",
                closed.crossings.len(),
                spec.windows
            )
        })?;
        check_same_per_target("open vs closed loop", &open.updates, &closed.updates)?;
        rates.extend(window_rates(
            &closed.crossings,
            offered as u64,
            spec.windows,
        ));
    }

    let latency = open.fix_latencies_ms(&setup)?;
    let tracked = fix_errors(&setup, &open.updates, |u| u.tracked)?;
    let raw = fix_errors(&setup, &open.updates, |u| u.raw.position)?;
    let s = open.stats;
    let lost = open.lost(offered);
    let wall_s = open.wall.as_secs_f64();

    let mut r = Report {
        attempted: offered as u64,
        failed: lost,
        ..Report::default()
    };
    r.push("setup_s", median(&setup_s).expect("set-up ran"), "s");
    r.push(
        "throughput_pps",
        h.percentile("capacity", &rates, CAPACITY_PERCENTILE)?,
        "pkt/s",
    );
    r.push(
        "fix_error_p50_m",
        h.percentile("fix error", &tracked, 50.0)?,
        "m",
    );
    r.push(
        "fix_error_p90_m",
        h.percentile("fix error", &tracked, 90.0)?,
        "m",
    );
    r.push(
        "packet_ok_frac",
        1.0 - (lost + s.stream_errors) as f64 / offered as f64,
        "ratio",
    );
    r.push(
        "fix_ok_frac",
        1.0 - s.fusion_no_fix as f64 / s.fusions as f64,
        "ratio",
    );
    r.push(
        "serve_heap_mb",
        median(&heap_bytes).expect("a capacity pass ran") / 1e6,
        "MB",
    );
    for p in [50.0, 90.0, 99.0].into_iter().filter(|_| kept_schedule) {
        if let Some(v) = crate::stats::percentile(&latency, p, h.min_tail) {
            r.push(format!("fix_latency_p{p}_ms"), v, "ms");
        }
    }
    for p in [50.0, 90.0] {
        let v = h.percentile("raw fix error", &raw, p)?;
        r.push(format!("raw_fix_error_p{p}_m"), v, "m");
    }
    r.push("offered_packets", offered as f64, "count");
    r.push("offered_pps", offered as f64 / wall_s, "pkt/s");
    r.push("fixes", s.updates as f64, "count");
    r.push("gen.lag_us.p99", lag_p99, "us");
    r.push("core.fleet.stream_errors", s.stream_errors as f64, "count");
    r.push(
        "core.fleet.max_queue_depth",
        s.max_queue_depth as f64,
        "count",
    );
    r.push(
        "core.fleet.deferred_frac",
        s.deferred as f64 / s.ingested as f64,
        "ratio",
    );
    r.push(
        "core.fleet.worker_busy_frac",
        open.worker_cpu_ns as f64 / (workers as f64 * wall_s * 1e9),
        "ratio",
    );
    r.push("workers", workers as f64, "count");
    Ok(r)
}

/// Decodes every frame through the same calls the generator makes.
fn decode_all(setup: &Setup) -> Result<Vec<FleetPacket>, BenchError> {
    let mut dec = WireDecoder::new();
    let mut packets = Vec::with_capacity(setup.frames.len());
    for frame in &setup.frames {
        dec.feed(frame, &mut |e| {
            if let WireEvent::Frame(f) = e {
                let p = spotfi_io::packet_from_record(&f.record, f.timestamp_s);
                packets.extend(
                    setup
                        .registry
                        .fleet_packet(f.receiver_id as u32, f.source_id, p),
                );
            }
        });
    }
    check(packets.len() == setup.frames.len(), || {
        format!("decoded {} of {} frames", packets.len(), setup.frames.len())
    })?;
    Ok(packets)
}

/// One (target, AP) session of the replica.
struct ApSlot {
    ap_id: u32,
    array: AntennaArray,
    stream: StreamState,
    /// `(estimates, rssi_dbm, time_s)` of the recent packets.
    window: VecDeque<(Vec<PathEstimate>, f64, f64)>,
}

/// One target of the replica.
struct TargetSlot {
    aps: Vec<ApSlot>,
    since_fusion: usize,
    tracker: Tracker,
}

const CLASSES: [&str; 4] = [
    "core.pipeline.warm",
    "core.pipeline.anchor",
    "core.pipeline.fallback",
    "core.pipeline.error",
];

/// The shard worker's per-packet and fusion steps, run serially from
/// public calls with a span around each layer. Must equal
/// [`run_fleet_serial`] to the bit.
///
/// Each streaming call is classified warm / anchor / fallback / error from
/// the deltas of the existing `stream.*` counters, so the recorder must be
/// on.
fn replica(
    spotfi: &SpotFi,
    cfg: &FleetConfig,
    packets: &[FleetPacket],
    tracer: &mut Tracer,
) -> Result<(Vec<FleetUpdate>, FleetStats), BenchError> {
    check(cfg.reorder_window <= 1, || {
        "the replica admits packets in arrival order; reorder_window must be ≤ 1".into()
    })?;
    let pcfg = spotfi.config();
    let mut scratch = PacketScratch::new(pcfg);
    let mut targets: HashMap<u64, TargetSlot> = HashMap::new();
    let mut updates = Vec::new();
    let mut stats = FleetStats::default();
    let counters = || {
        let s = spotfi_obs::snapshot();
        [
            s.counter_total("stream.warmstart_hit"),
            s.counter_total("stream.anchor"),
            s.counter_total("stream.tracker_fallback"),
        ]
    };
    let mut before = counters();
    let (mut flat, mut rssi) = (Vec::new(), Vec::new());
    for (i, pkt) in packets.iter().enumerate() {
        let req = i as u64;
        stats.ingested += 1;
        stats.accepted += 1;
        stats.processed += 1;
        let root = tracer.begin("core.fleet.process", req);
        let target = targets.entry(pkt.target_id).or_insert_with(|| TargetSlot {
            aps: Vec::new(),
            since_fusion: 0,
            tracker: Tracker::new(cfg.tracker),
        });
        let idx = match target.aps.iter().position(|s| s.ap_id == pkt.ap_id) {
            Some(idx) => idx,
            None => {
                target.aps.push(ApSlot {
                    ap_id: pkt.ap_id,
                    array: pkt.array,
                    stream: StreamState::new(pcfg),
                    window: VecDeque::with_capacity(cfg.window_packets.max(1)),
                });
                target.aps.len() - 1
            }
        };
        let slot = &mut target.aps[idx];
        let call = tracer.begin("core.pipeline.packet", req);
        let result =
            spotfi.analyze_packet_streaming_with(&pkt.packet, &mut slot.stream, &mut scratch);
        tracer.end(call);
        let ok = result.is_ok();
        match result {
            Ok(estimates) => {
                if slot.window.len() >= cfg.window_packets.max(1) {
                    slot.window.pop_front();
                }
                slot.window
                    .push_back((estimates, pkt.packet.rssi_dbm, pkt.packet.timestamp_s));
            }
            Err(_) => stats.stream_errors += 1,
        }

        target.since_fusion += 1;
        if target.since_fusion >= cfg.fusion_interval.max(1) {
            target.since_fusion = 0;
            stats.fusions += 1;
            let fusion = tracer.begin("core.fleet.fusion", req);
            let now = pkt.packet.timestamp_s;
            if cfg.ap_stale_s.is_finite() && cfg.ap_stale_s > 0.0 {
                for slot in &mut target.aps {
                    while slot
                        .window
                        .front()
                        .is_some_and(|f| now - f.2 > cfg.ap_stale_s)
                    {
                        slot.window.pop_front();
                    }
                }
            }
            let mut measurements = Vec::with_capacity(target.aps.len());
            for slot in &target.aps {
                flat.clear();
                rssi.clear();
                for (estimates, r, _) in &slot.window {
                    flat.extend_from_slice(estimates);
                    rssi.push(*r);
                }
                if flat.is_empty() {
                    continue;
                }
                let clustering = tracer.time("core.cluster", req, || {
                    cluster_estimates(
                        &flat,
                        pcfg.cluster.num_clusters,
                        pcfg.cluster.max_iterations,
                    )
                });
                let direct = tracer.time("core.likelihood", req, || {
                    select_direct_path(&clustering, &pcfg.likelihood)
                });
                if let Some(d) = direct {
                    measurements.push(ApMeasurement {
                        array: slot.array,
                        direct_aoa_deg: d.aoa_deg,
                        likelihood: d.likelihood,
                        rssi_dbm: mean(&rssi),
                    });
                }
            }
            let (deployed, usable) = (target.aps.len(), measurements.len());
            let fix = if usable < cfg.min_fusion_aps.max(2) {
                None
            } else {
                tracer
                    .time("core.localize", req, || match cfg.bounds {
                        Some(b) => localize_in_bounds(&measurements, b, &pcfg.localize),
                        None => localize(&measurements, &pcfg.localize),
                    })
                    .ok()
            };
            match fix {
                Some(est) => {
                    let degraded = usable < deployed;
                    let std_override = (degraded && cfg.degraded_std_scale > 0.0).then(|| {
                        cfg.tracker.measurement_std_m
                            * (deployed as f64 / usable as f64).sqrt()
                            * cfg.degraded_std_scale
                    });
                    let tracker = &mut target.tracker;
                    let outcome = tracer.time("core.tracking", req, || {
                        tracker.update(now, est.position, std_override)
                    });
                    stats.updates += 1;
                    stats.fusion_degraded += degraded as u64;
                    updates.push(FleetUpdate {
                        target_id: pkt.target_id,
                        time_s: now,
                        raw: est,
                        tracked: tracker.position().unwrap_or(est.position),
                        tracked_velocity: tracker.velocity().unwrap_or((0.0, 0.0)),
                        outcome,
                        aps_used: usable,
                        degraded,
                    });
                }
                None => stats.fusion_no_fix += 1,
            }
            tracer.end(fusion);
        }
        tracer.end(root);

        let after = counters();
        let class = if !ok {
            CLASSES[3]
        } else {
            let moved = (0..3)
                .find(|&k| after[k] > before[k])
                .ok_or_else(|| BenchError::new(format!("packet {i} moved no stream counter")))?;
            CLASSES[moved]
        };
        tracer.rename(call, class);
        before = after;
    }
    Ok((updates, stats))
}

fn run_traced(spec: &FleetSpec, opts: &Options) -> Result<Report, BenchError> {
    let h = &spec.harness;
    let offered = spec.offered(opts.seconds);
    let cfg = spec.fleet_config();
    let mut t = Tracer::default();
    let (setup, engine) = setup(spec, opts.seed, offered, &mut t)?;
    let packets = decode_all(&setup)?;

    spotfi_obs::reset();
    spotfi_obs::set_enabled(true);
    let started = Instant::now();
    let replayed = replica(&setup.spotfi, &cfg, &packets, &mut t);
    let replica_wall = started.elapsed().as_secs_f64();
    spotfi_obs::set_enabled(false);
    spotfi_obs::reset();
    let (rep_updates, rep_stats) = replayed?;
    let started = Instant::now();
    let (ref_updates, ref_stats) = run_fleet_serial(&setup.spotfi, &cfg, &packets);
    let serial_wall = started.elapsed().as_secs_f64();
    check(rep_stats == ref_stats, || {
        format!("replica stats {rep_stats:?} != run_fleet_serial {ref_stats:?}")
    })?;
    check(
        rep_updates.len() == ref_updates.len()
            && rep_updates
                .iter()
                .zip(&ref_updates)
                .all(|(a, b)| same_update(a, b)),
        || "replica updates differ from run_fleet_serial".into(),
    )?;

    let step = packets.len().div_ceil(spec.probe_packets.max(1)).max(1);
    let sample: Vec<_> = packets.iter().step_by(step).map(|p| &p.packet).collect();
    probe_packet_layers(&setup.spotfi, &sample, &mut t)?;

    let open = pass(
        &setup,
        engine,
        cfg.workers,
        Load::Open {
            rate_pps: spec.rate_pps,
        },
        Some(&mut t),
    )?;
    open.check("open loop", offered)?;
    let (lag_p99, kept_schedule) = open.generator_lag(h)?;
    check_same_per_target("open loop vs replica", &open.updates, &rep_updates)?;
    let latency = open.fix_latencies_ms(&setup)?;

    let mut r = Report {
        attempted: offered as u64,
        failed: open.lost(offered),
        ..Report::default()
    };
    let p50 = |name: &str| h.percentile(name, &t.durations_us(name), 50.0);
    r.push(
        "testbed.generate_s",
        t.total_ns("testbed.generate") as f64 / 1e9,
        "s",
    );
    r.push(
        "core.spotfi_new_ms",
        t.total_ns("core.spotfi_new") as f64 / 1e6,
        "ms",
    );
    r.push("io.encode_s", t.total_ns("io.encode") as f64 / 1e9, "s");
    r.push("core.sanitize.call_us.p50", p50("core.sanitize")?, "us");
    r.push("core.smoothing.call_us.p50", p50("core.smoothing")?, "us");
    r.push(
        "math.eigen_tridiag.batch4_us.p50",
        p50("math.eigen_tridiag.batch4")?,
        "us",
    );
    r.push("core.music.c2f_us.p50", p50("core.music.c2f")?, "us");

    let per_class: Vec<Vec<f64>> = CLASSES.iter().map(|c| t.durations_us(c)).collect();
    let all: Vec<f64> = per_class.concat();
    let n = all.len() as f64;
    let worker_ns = t.total_ns("core.fleet.process") as f64;
    let packet_ns: u64 = CLASSES.iter().map(|c| t.total_ns(c)).sum();
    r.push(
        "core.pipeline.packet_us.p50",
        h.percentile("packet", &all, 50.0)?,
        "us",
    );
    r.push(
        "core.pipeline.exact_frac",
        (per_class[1].len() + per_class[2].len()) as f64 / n,
        "ratio",
    );
    r.push(
        "core.pipeline.error_frac",
        per_class[3].len() as f64 / n,
        "ratio",
    );
    r.push("core.pipeline.share", packet_ns as f64 / worker_ns, "ratio");
    r.push("core.cluster.call_us.p50", p50("core.cluster")?, "us");
    r.push("core.likelihood.call_us.p50", p50("core.likelihood")?, "us");
    r.push("core.localize.call_us.p50", p50("core.localize")?, "us");
    r.push(
        "core.localize.share",
        t.total_ns("core.localize") as f64 / worker_ns,
        "ratio",
    );
    r.push(
        "trace.overhead_frac",
        replica_wall / serial_wall - 1.0,
        "ratio",
    );

    for (name, durations) in CLASSES.iter().zip(&per_class) {
        let class = name.trim_start_matches("core.pipeline.");
        r.push(
            format!("core.pipeline.{class}_frac"),
            durations.len() as f64 / n,
            "ratio",
        );
        r.push(
            format!("core.pipeline.{class}_share"),
            t.total_ns(name) as f64 / worker_ns,
            "ratio",
        );
        for p in [50.0, 99.0] {
            if let Some(v) = crate::stats::percentile(durations, p, h.min_tail) {
                r.push(format!("core.pipeline.{class}_us.p{p}"), v, "us");
            }
        }
    }
    if let Some(v) = crate::stats::percentile(&t.durations_us("core.localize"), 99.0, h.min_tail) {
        r.push("core.localize.call_us.p99", v, "us");
    }
    r.push("core.tracking.call_us.p50", p50("core.tracking")?, "us");
    r.push("core.fleet.fusion_us.p50", p50("core.fleet.fusion")?, "us");
    // Worker time no layer span covers: target lookup and window upkeep
    // in the per-packet step, stale eviction and measurement assembly in
    // fusion.
    for name in ["core.fleet.process", "core.fleet.fusion"] {
        r.push(
            format!("{name}.self_share"),
            t.self_ns(name) as f64 / worker_ns,
            "ratio",
        );
    }
    r.push("io.wire.feed_us.p50", p50("io.wire.feed")?, "us");
    r.push("io.convert.record_us.p50", p50("io.convert.record")?, "us");
    r.push(
        "core.ingest.fleet_packet_us.p50",
        p50("core.ingest.fleet_packet")?,
        "us",
    );
    let ingest = t.durations_us("core.fleet.ingest");
    r.push(
        "core.fleet.ingest_call_us.p50",
        h.percentile("ingest", &ingest, 50.0)?,
        "us",
    );
    r.push(
        "core.fleet.ingest_call_us.p99",
        h.percentile("ingest", &ingest, 99.0)?,
        "us",
    );
    let s = open.stats;
    let wall_s = open.wall.as_secs_f64();
    r.push(
        "core.fleet.deferred_frac",
        s.deferred as f64 / s.ingested as f64,
        "ratio",
    );
    r.push(
        "core.fleet.max_queue_depth",
        s.max_queue_depth as f64,
        "count",
    );
    r.push(
        "core.fleet.worker_busy_frac",
        open.worker_cpu_ns as f64 / (cfg.workers as f64 * wall_s * 1e9),
        "ratio",
    );
    r.push("gen.lag_us.p99", lag_p99, "us");
    for p in [50.0, 90.0, 99.0].into_iter().filter(|_| kept_schedule) {
        if let Some(v) = crate::stats::percentile(&latency, p, h.min_tail) {
            r.push(format!("serve.fix_latency_p{p}_ms"), v, "ms");
        }
    }
    r.spans = Some(t);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotfi_channel::{CsiPacket, Point};

    fn packet(target_id: u64, ap_id: u32, timestamp_s: f64) -> FleetPacket {
        FleetPacket {
            target_id,
            ap_id,
            array: AntennaArray::intel5300(
                Point::new(0.0, 0.0),
                0.0,
                spotfi_channel::constants::DEFAULT_CARRIER_HZ,
            ),
            packet: CsiPacket {
                csi: spotfi_math::CMat::zeros(3, 30),
                rssi_dbm: -50.0,
                timestamp_s,
                injected_sto_s: 0.0,
            },
        }
    }

    #[test]
    fn stagger_keeps_a_contiguous_in_order_suffix_of_each_link() {
        let period = 4;
        let mut schedule = Vec::new();
        for k in 0..10 {
            for t in 0..6u64 {
                for a in 0..2u32 {
                    schedule.push(packet(
                        t,
                        a,
                        k as f64 * 0.1 + t as f64 * 1e-3 + a as f64 * 1e-4,
                    ));
                }
            }
        }
        let kept = stagger(schedule.clone(), period);
        for t in 0..6u64 {
            for a in 0..2u32 {
                let link = |s: &[FleetPacket]| -> Vec<f64> {
                    s.iter()
                        .filter(|p| p.target_id == t && p.ap_id == a)
                        .map(|p| p.packet.timestamp_s)
                        .collect()
                };
                let (all, suffix) = (link(&schedule), link(&kept));
                let drop = (t % period as u64) as usize;
                assert_eq!(suffix, all[drop..], "target {t} AP {a}");
                assert!(suffix.windows(2).all(|w| w[0] < w[1]));
            }
        }
        // Arrival order across links is preserved.
        assert!(kept
            .windows(2)
            .all(|w| w[0].packet.timestamp_s <= w[1].packet.timestamp_s));
    }

    #[test]
    fn arrival_order_moves_whole_targets_and_keeps_their_packet_order() {
        let mut schedule = Vec::new();
        for k in 0..20 {
            for t in 0..8u64 {
                for a in 0..3u32 {
                    schedule.push(packet(
                        t,
                        a,
                        k as f64 * 0.1 + t as f64 * 1e-3 + a as f64 * 1e-4,
                    ));
                }
            }
        }
        let key = |s: &[FleetPacket]| -> Vec<(u64, u32, u64)> {
            s.iter()
                .map(|p| (p.target_id, p.ap_id, p.packet.timestamp_s.to_bits()))
                .collect()
        };
        let per_target = |s: &[FleetPacket], t: u64| -> Vec<(u64, u32, u64)> {
            key(s).into_iter().filter(|k| k.0 == t).collect()
        };
        let a = arrival_order(schedule.clone(), 1, 0.1);
        let b = arrival_order(schedule.clone(), 2, 0.1);
        assert_eq!(key(&a), key(&arrival_order(schedule.clone(), 1, 0.1)));
        assert_ne!(key(&a), key(&b), "another seed interleaves differently");
        assert_ne!(key(&a), key(&schedule));
        for t in 0..8 {
            assert_eq!(per_target(&a, t), per_target(&schedule, t));
            assert_eq!(per_target(&b, t), per_target(&schedule, t));
        }
        assert_eq!(
            key(&arrival_order(schedule.clone(), 1, 0.0)),
            key(&schedule)
        );
    }

    #[test]
    fn packets_per_link_cover_the_offered_load_after_stagger() {
        let spec = FleetSpec::walk();
        let offered = spec.offered(12.0);
        assert_eq!(offered, 36_000);
        let ppl = spec.packets_per_link(offered);
        let kept_per_link = ppl as f64 - (spec.stagger - 1) as f64 / 2.0;
        assert!(kept_per_link * (spec.targets * spec.aps) as f64 >= offered as f64);
    }
}
