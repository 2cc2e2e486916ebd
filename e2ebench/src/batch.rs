//! The batch workload (`fig7-batch`): the paper's Fig. 7 deployments
//! (office, high-NLoS, corridor), each target one
//! [`SpotFi::localize_in_bounds`] request, sent by one closed-loop client
//! to one server thread, round after round.
//!
//! It runs the same per-packet engine as the fleet in batch mode: every
//! packet takes the exact batched eigensolve and the coarse-to-fine sweep,
//! and streaming does no work. Paired with `walk`, it keeps a change that
//! merges the two modes from trading one for the other unseen.
//!
//! The channel draws are the testbed's own (the paper's Fig. 7 as the
//! repository reproduces it) and do not depend on the seed; the seed sets
//! the order the client sends the requests in. Requests share no state, so
//! accuracy is an exact number, gated as such.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use spotfi_channel::Point;
use spotfi_core::localize::localize_in_bounds;
use spotfi_core::{
    cluster_estimates, select_direct_path, ApMeasurement, ApPackets, LocationEstimate,
    RuntimeConfig, SearchBounds, SpotFi, SpotFiConfig,
};
use spotfi_testbed::deployment::Deployment;
use spotfi_testbed::runner::{audible_traces, RunnerConfig};
use spotfi_testbed::scenario::Scenario;

use crate::stats::median;
use crate::trace::Tracer;
use crate::{
    check, host, mix, probe_packet_layers, with_probe, BenchError, Harness, Options, Report,
    CAPACITY_PERCENTILE,
};

/// Sizes of the batch workload.
#[derive(Clone, Debug)]
pub struct BatchSpec {
    /// Keep only the first targets of each panel (`None`: all of them).
    pub targets_per_panel: Option<usize>,
    /// Pinned channel draws of every deployment; the first is the
    /// testbed's own.
    pub draws: usize,
    /// Packets each audible AP captures per request.
    pub packets_per_fix: usize,
    /// Rounds run even when `--seconds` has passed.
    pub min_rounds: usize,
    /// Packets the traced run times each layer probe on.
    pub probe_packets: usize,
    /// Shared harness settings.
    pub harness: Harness,
}

impl BatchSpec {
    /// The full Fig. 7 request set: office 25 + nlos 23 + corridor 25
    /// targets, 10 packets per audible AP, two channel draws: 146 requests,
    /// enough for a p90 fix error with 10 fixes beyond it.
    pub fn fig7() -> Self {
        BatchSpec {
            targets_per_panel: None,
            draws: 2,
            packets_per_fix: 10,
            min_rounds: 2,
            probe_packets: 512,
            harness: Harness::standard(),
        }
    }
}

/// Consecutive requests per throughput window: two rounds of 146 give 58
/// windows, enough for a 75th percentile with 10 beyond it.
const WINDOW_REQUESTS: usize = 5;

/// One localization request and its ground truth.
struct Request {
    panel: &'static str,
    truth: Point,
    aps: Vec<ApPackets>,
    bounds: SearchBounds,
}

impl Request {
    fn packets(&self) -> usize {
        self.aps.iter().map(|a| a.packets.len()).sum()
    }
}

/// The bounds rule of the testbed runner: the audible APs' bounding box
/// plus the localize margin, clamped to the building outline.
fn runner_bounds(scenario: &Scenario, aps: &[ApPackets], margin_m: f64) -> SearchBounds {
    let placeholder: Vec<ApMeasurement> = aps
        .iter()
        .map(|a| ApMeasurement {
            array: a.array,
            direct_aoa_deg: 0.0,
            likelihood: 1.0,
            rssi_dbm: 0.0,
        })
        .collect();
    let mut b = SearchBounds::around_aps(&placeholder, margin_m);
    if let Some((min, max)) = scenario.floorplan.bounding_box() {
        b.min_x = b.min_x.max(min.x);
        b.max_x = b.max_x.min(max.x);
        b.min_y = b.min_y.max(min.y);
        b.max_y = b.max_y.min(max.y);
    }
    b
}

/// Trace synthesis: every (draw, panel, target) request with the packets
/// of each AP that hears the target, in the seed's order.
fn synthesize(spec: &BatchSpec, seed: u64) -> Vec<Request> {
    let deployment = Deployment::standard();
    let runner = RunnerConfig::default();
    let margin = runner.spotfi.localize.search_margin_m;
    let mut requests = Vec::new();
    let panels = (0..spec.draws).flat_map(|draw| {
        [
            ("office", Scenario::office(&deployment)),
            ("nlos", Scenario::nlos(&deployment)),
            ("corridor", Scenario::corridor(&deployment)),
        ]
        .map(|(panel, mut scenario)| {
            if draw > 0 {
                scenario.seed = mix(scenario.seed, draw as u64);
            }
            (panel, scenario)
        })
    });
    for (panel, mut scenario) in panels {
        scenario.packets_per_fix = spec.packets_per_fix;
        if let Some(n) = spec.targets_per_panel {
            scenario.targets.truncate(n);
        }
        for t in 0..scenario.targets.len() {
            let aps: Vec<ApPackets> = audible_traces(&scenario, &runner, t)
                .into_iter()
                .map(|(_, ap, trace)| ApPackets {
                    array: ap.array,
                    packets: trace.packets,
                })
                .collect();
            let bounds = runner_bounds(&scenario, &aps, margin);
            requests.push((
                mix(seed, requests.len() as u64),
                Request {
                    panel,
                    truth: scenario.targets[t].position,
                    aps,
                    bounds,
                },
            ));
        }
    }
    requests.sort_by_key(|(key, _)| *key);
    requests.into_iter().map(|(_, r)| r).collect()
}

/// Everything before the first request: trace synthesis and
/// `SpotFi::new` at the `scenario`/`analyze` configuration, serial.
fn setup(spec: &BatchSpec, seed: u64, tracer: &mut Tracer) -> (Vec<Request>, SpotFi) {
    let root = tracer.begin("bench.setup", 0);
    let requests = tracer.time("testbed.generate", 0, || synthesize(spec, seed));
    let spotfi = tracer.time("core.spotfi_new", 0, || {
        SpotFi::new(SpotFiConfig {
            runtime: RuntimeConfig::with_threads(1),
            ..SpotFiConfig::default()
        })
    });
    tracer.end(root);
    (requests, spotfi)
}

fn fix_bits(fix: &Option<LocationEstimate>) -> Option<[u64; 3]> {
    fix.map(|f| {
        [
            f.position.x.to_bits(),
            f.position.y.to_bits(),
            f.cost.to_bits(),
        ]
    })
}

/// One round: every request once, with its round-trip time.
struct Round {
    wall: Duration,
    latency: Vec<Duration>,
    fixes: Vec<Option<LocationEstimate>>,
    /// Peak live heap growth while the round ran, bytes. The round's own
    /// records are allocated before it starts and do not count.
    heap_bytes: usize,
}

/// Closed loop: one client sends each request to the server thread and
/// waits for the fix before sending the next. Rounds repeat while another
/// round fits in `seconds`, and at least `min_rounds` times.
fn serve_rounds(
    spotfi: &SpotFi,
    requests: &[Request],
    seconds: f64,
    min_rounds: usize,
) -> Result<Vec<Round>, BenchError> {
    let (req_tx, req_rx) = mpsc::channel::<usize>();
    let (fix_tx, fix_rx) = mpsc::channel::<(usize, Option<LocationEstimate>)>();
    std::thread::scope(|scope| {
        let server = std::thread::Builder::new()
            .name("batch-0".into())
            .spawn_scoped(scope, move || {
                for i in req_rx {
                    let r = &requests[i];
                    let fix = spotfi.localize_in_bounds(&r.aps, r.bounds).ok();
                    if fix_tx.send((i, fix)).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| BenchError::new(format!("spawning the server thread: {e}")))?;
        let start = Instant::now();
        let mut rounds: Vec<Round> = Vec::new();
        let mut outcome = Ok(());
        loop {
            let next_fits = rounds
                .last()
                .is_none_or(|r| (start.elapsed() + r.wall).as_secs_f64() <= seconds);
            if rounds.len() >= min_rounds && !next_fits {
                break;
            }
            let mut latency = Vec::with_capacity(requests.len());
            let mut fixes = Vec::with_capacity(requests.len());
            let heap_before = host::reset_heap_peak();
            let round_start = Instant::now();
            for i in 0..requests.len() {
                let sent = Instant::now();
                let reply = req_tx.send(i).ok().and_then(|_| fix_rx.recv().ok());
                match reply {
                    Some((j, fix)) if j == i => {
                        latency.push(sent.elapsed());
                        fixes.push(fix);
                    }
                    _ => {
                        outcome = Err(BenchError::new("the server thread stopped answering"));
                        break;
                    }
                }
            }
            if outcome.is_err() {
                break;
            }
            let wall = round_start.elapsed();
            let heap_bytes = host::heap_peak_bytes().saturating_sub(heap_before);
            rounds.push(Round {
                wall,
                latency,
                fixes,
                heap_bytes,
            });
        }
        drop(req_tx);
        server
            .join()
            .map_err(|_| BenchError::new("the server thread panicked"))?;
        outcome.map(|()| rounds)
    })
}

/// Runs the batch workload.
pub fn run(spec: &BatchSpec, opts: &Options) -> Result<Report, BenchError> {
    with_probe(&spec.harness, || {
        if opts.trace {
            run_traced(spec, opts)
        } else {
            run_end_to_end(spec, opts)
        }
    })
}

fn run_end_to_end(spec: &BatchSpec, opts: &Options) -> Result<Report, BenchError> {
    let h = &spec.harness;
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..h.setup_reps.max(1) {
        // Release the previous repetition before building the next.
        drop(built.take());
        let mut t = Tracer::default();
        built = Some(setup(spec, opts.seed, &mut t));
        setup_s.push(t.total_ns("bench.setup") as f64 / 1e9);
    }
    let (requests, spotfi) = built.expect("at least one set-up");
    check(!requests.is_empty(), || "no requests".into())?;

    // Audit pass, untimed, which also warms the caches for the first
    // round: the requests through the public calls `localize_in_bounds`
    // is made of, for the per-packet accounting it does not expose.
    let (mut packets, mut dropped) = (0usize, 0usize);
    let mut audited = Vec::with_capacity(requests.len());
    for r in &requests {
        packets += r.packets();
        audited.push(match spotfi.analyze_all(&r.aps) {
            Ok(analyses) => {
                dropped += analyses.iter().map(|a| a.dropped_packets).sum::<usize>();
                let m: Vec<ApMeasurement> =
                    analyses.iter().filter_map(|a| a.to_measurement()).collect();
                localize_in_bounds(&m, r.bounds, &spotfi.config().localize).ok()
            }
            Err(_) => {
                dropped += r.packets();
                None
            }
        });
    }

    let rounds = serve_rounds(&spotfi, &requests, opts.seconds, spec.min_rounds)?;
    let heap_bytes = rounds.iter().map(|r| r.heap_bytes).max().unwrap_or(0);
    for (k, round) in rounds.iter().enumerate() {
        check(
            round
                .fixes
                .iter()
                .map(fix_bits)
                .eq(audited.iter().map(fix_bits)),
            || format!("round {k} fixes differ from analyze_all + localize_in_bounds"),
        )?;
    }

    let latency_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latency.iter().map(|d| d.as_secs_f64() * 1e3))
        .collect();
    // Throughput per window of consecutive requests, over every round, so
    // a short slow phase of the host moves a few windows, not the median.
    let sizes: Vec<usize> = requests.iter().map(Request::packets).collect();
    let sent: Vec<(usize, Duration)> = rounds
        .iter()
        .flat_map(|r| sizes.iter().copied().zip(r.latency.iter().copied()))
        .collect();
    let throughput: Vec<f64> = sent
        .chunks_exact(WINDOW_REQUESTS)
        .map(|w| {
            let packets: usize = w.iter().map(|(n, _)| n).sum();
            let busy: Duration = w.iter().map(|(_, d)| *d).sum();
            packets as f64 / busy.as_secs_f64()
        })
        .collect();
    let errors: Vec<f64> = requests
        .iter()
        .zip(&audited)
        .filter_map(|(r, f)| f.map(|f| f.position.distance(r.truth)))
        .collect();
    let fixed = errors.len();
    let failed = requests.len() - fixed;

    let mut r = Report {
        attempted: (requests.len() * rounds.len()) as u64,
        failed: (failed * rounds.len()) as u64,
        ..Report::default()
    };
    r.push("setup_s", median(&setup_s).expect("set-up ran"), "s");
    r.push(
        "throughput_pps",
        h.percentile("throughput", &throughput, CAPACITY_PERCENTILE)?,
        "pkt/s",
    );
    r.push(
        "fix_error_p50_m",
        h.percentile("fix error", &errors, 50.0)?,
        "m",
    );
    r.push(
        "fix_error_p90_m",
        h.percentile("fix error", &errors, 90.0)?,
        "m",
    );
    r.push(
        "packet_ok_frac",
        1.0 - dropped as f64 / packets as f64,
        "ratio",
    );
    r.push(
        "fix_ok_frac",
        1.0 - failed as f64 / requests.len() as f64,
        "ratio",
    );
    r.push("serve_heap_mb", heap_bytes as f64 / 1e6, "MB");
    for p in [50.0, 90.0, 99.0] {
        if let Some(v) = crate::stats::percentile(&latency_ms, p, h.min_tail) {
            r.push(format!("fix_latency_p{p}_ms"), v, "ms");
        }
    }
    r.push("requests", requests.len() as f64, "count");
    r.push("rounds", rounds.len() as f64, "count");
    r.push("packets_per_round", packets as f64, "count");
    for panel in ["office", "nlos", "corridor"] {
        let e: Vec<f64> = requests
            .iter()
            .zip(&audited)
            .filter(|(r, _)| r.panel == panel)
            .filter_map(|(r, f)| f.map(|f| f.position.distance(r.truth)))
            .collect();
        if let Some(v) = crate::stats::percentile(&e, 50.0, h.min_tail) {
            r.push(format!("testbed.{panel}.fix_error_p50_m"), v, "m");
        }
    }
    Ok(r)
}

fn run_traced(spec: &BatchSpec, opts: &Options) -> Result<Report, BenchError> {
    let h = &spec.harness;
    let mut t = Tracer::default();
    let (requests, spotfi) = setup(spec, opts.seed, &mut t);
    let cfg = spotfi.config();

    let served_round = serve_rounds(&spotfi, &requests, 0.0, 1)?.remove(0);
    let served = &served_round.fixes;
    let untraced_s = served_round.wall.as_secs_f64();
    let latency_ms: Vec<f64> = served_round
        .latency
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();

    let (mut packets, mut dropped) = (0usize, 0usize);
    let mut per_packet_us = Vec::with_capacity(requests.len());
    for (i, (r, served)) in requests.iter().zip(served).enumerate() {
        let req = i as u64;
        packets += r.packets();
        let root = t.begin("batch.request", req);
        let analyze = t.begin("core.pipeline.analyze_all", req);
        let analyses = spotfi.analyze_all(&r.aps);
        t.end(analyze);
        let analyze_us = t.spans()[analyze].duration_ns() as f64 / 1e3;
        per_packet_us.push(analyze_us / r.packets().max(1) as f64);
        let fix = match &analyses {
            Ok(a) => {
                let m: Vec<ApMeasurement> = a.iter().filter_map(|x| x.to_measurement()).collect();
                t.time("core.localize", req, || {
                    localize_in_bounds(&m, r.bounds, &cfg.localize)
                })
                .ok()
            }
            Err(_) => None,
        };
        t.end(root);
        check(fix_bits(&fix) == fix_bits(served), || {
            format!("traced request {i} disagrees with SpotFi::localize_in_bounds")
        })?;
        let Ok(analyses) = analyses else {
            dropped += r.packets();
            continue;
        };
        dropped += analyses.iter().map(|a| a.dropped_packets).sum::<usize>();
        // Cluster and likelihood run inside analyze_all; time them again
        // on the same estimates, and check they pick the same direct path.
        let probe = t.begin("bench.probe", req);
        for a in &analyses {
            let clustering = t.time("core.cluster", req, || {
                cluster_estimates(
                    &a.path_estimates,
                    cfg.cluster.num_clusters,
                    cfg.cluster.max_iterations,
                )
            });
            let direct = t.time("core.likelihood", req, || {
                select_direct_path(&clustering, &cfg.likelihood)
            });
            let bits = |d: Option<spotfi_core::DirectPath>| {
                d.map(|d| (d.aoa_deg.to_bits(), d.likelihood.to_bits()))
            };
            check(bits(direct) == bits(a.direct), || {
                format!("request {i}: re-run clustering picked another direct path")
            })?;
        }
        t.end(probe);
    }
    let traced_s = t.total_ns("batch.request") as f64 / 1e9;

    let all: Vec<&spotfi_channel::CsiPacket> = requests
        .iter()
        .flat_map(|r| r.aps.iter().flat_map(|a| &a.packets))
        .collect();
    let step = all.len().div_ceil(spec.probe_packets.max(1)).max(1);
    let sample: Vec<_> = all.into_iter().step_by(step).collect();
    probe_packet_layers(&spotfi, &sample, &mut t)?;

    let mut r = Report {
        attempted: requests.len() as u64,
        failed: served.iter().filter(|f| f.is_none()).count() as u64,
        ..Report::default()
    };
    let p50 = |name: &str| h.percentile(name, &t.durations_us(name), 50.0);
    let request_ns = t.total_ns("batch.request") as f64;
    r.push(
        "serve.fix_latency_p50_ms",
        h.percentile("fix latency", &latency_ms, 50.0)?,
        "ms",
    );
    r.push(
        "serve.fix_latency_p90_ms",
        h.percentile("fix latency", &latency_ms, 90.0)?,
        "ms",
    );
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
    r.push("core.sanitize.call_us.p50", p50("core.sanitize")?, "us");
    r.push("core.smoothing.call_us.p50", p50("core.smoothing")?, "us");
    r.push(
        "math.eigen_tridiag.batch4_us.p50",
        p50("math.eigen_tridiag.batch4")?,
        "us",
    );
    r.push("core.music.c2f_us.p50", p50("core.music.c2f")?, "us");
    r.push(
        "core.pipeline.packet_us.p50",
        h.percentile("packet", &per_packet_us, 50.0)?,
        "us",
    );
    r.push("core.pipeline.exact_frac", 1.0, "ratio");
    r.push(
        "core.pipeline.error_frac",
        dropped as f64 / packets as f64,
        "ratio",
    );
    r.push(
        "core.pipeline.share",
        t.total_ns("core.pipeline.analyze_all") as f64 / request_ns,
        "ratio",
    );
    r.push("core.cluster.call_us.p50", p50("core.cluster")?, "us");
    r.push("core.likelihood.call_us.p50", p50("core.likelihood")?, "us");
    r.push("core.localize.call_us.p50", p50("core.localize")?, "us");
    r.push(
        "core.localize.share",
        t.total_ns("core.localize") as f64 / request_ns,
        "ratio",
    );
    r.push("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
    r.push(
        "core.pipeline.analyze_all_ms.p50",
        p50("core.pipeline.analyze_all")? / 1e3,
        "ms",
    );
    r.push(
        "core.localize.bounded_ms.p50",
        p50("core.localize")? / 1e3,
        "ms",
    );
    r.spans = Some(t);
    Ok(r)
}
