//! `spotfi` — command-line interface to the SpotFi reproduction.
//!
//! ```text
//! spotfi figures [fig5|fig7|fig8|fig9|ablation|through-wall|tracking|all] [--fast]
//! spotfi simulate --out capture.dat [--target x,y] [--packets N] [--seed S]
//! spotfi analyze capture.dat [--ap x,y] [--normal deg] [--stream]
//! spotfi scenario [office|nlos|corridor] [--targets N] [--packets N]
//! spotfi fleet [--targets N] [--packets N] [--aps N] [--workers N] [--export-wire F]
//! spotfi ingest <frames.bin> [--aps N] [--connect sock.path]
//! spotfi serve --listen <sock.path> [--aps N] [--workers N]
//! spotfi check-diagnostics <diagnostics.json>
//! spotfi help
//! ```
//!
//! `spotfi help` lists every option of each command.

mod args;

use std::process::ExitCode;

use args::{ArgError, Args};
use spotfi_channel::Rng;

use spotfi_channel::{AntennaArray, Floorplan, PacketTrace, Point, TraceConfig};
use spotfi_core::{ApPackets, SpotFi, SpotFiConfig};
use spotfi_io::{from_csi_packet, read_dat_file, to_csi_packets, write_dat_file};
use spotfi_testbed::deployment::Deployment;
use spotfi_testbed::experiments::{
    ablation, fig5, fig7, fig8, fig9, through_wall, tracking, ExperimentOptions,
};
use spotfi_testbed::runner::{Runner, RunnerConfig};
use spotfi_testbed::scenario::Scenario;

const HELP: &str = "\
spotfi — decimeter-level WiFi localization (SpotFi, SIGCOMM 2015)

USAGE:
  spotfi figures [fig5|fig7|fig8|fig9|ablation|through-wall|tracking|all] [--fast]
      Regenerate the paper's evaluation figures on the simulated testbed.

  spotfi simulate --out <capture.dat> [--target x,y] [--packets N] [--seed S]
      Simulate a capture and write it in Linux 802.11n CSI Tool format.

  spotfi analyze <capture.dat> [--ap x,y] [--normal <deg>] [--threads N]
                 [--stream] [--diagnostics out.json]
      Parse a CSI Tool trace and run SpotFi's per-AP analysis
      (AP position/orientation default to the origin facing +y).
      --stream replays the packets serially through the amortized
      streaming hot path (rolling covariance, tracked subspace,
      warm-started sweeps) instead of the batch path.

  spotfi scenario [office|nlos|corridor] [--targets N] [--packets N] [--threads N]
                  [--diagnostics out.json]
      Run a full localization scenario (SpotFi vs ArrayTrack) and print
      the error table.

  spotfi fleet [--targets N] [--packets N] [--aps N] [--workers N]
               [--queue N] [--speed M] [--seed S] [--shed]
               [--loss P] [--drift PPM] [--export-wire frames.bin]
               [--diagnostics out.json]
      (alias: serve) Run the fleet engine: N moving targets on the
      apartment floorplan, their per-AP packet streams interleaved into
      one arrival schedule and sharded across a persistent worker pool.
      Prints aggregate throughput, backpressure counters, per-update
      latency percentiles, and tracking error against ground truth.
      --workers 0 (default) uses all cores; --queue bounds each shard
      queue; --shed switches overflow from blocking to drop-newest.
      --aps beyond 4 deploys a perimeter ring (up to 32). --loss drops
      each scheduled packet with probability P; --drift skews each AP's
      capture clock by a seeded ±PPM factor. --export-wire writes the
      schedule as spotfi-wire-v1 frames and exits (no engine run).

  spotfi ingest <frames.bin> [--aps N] [--connect sock.path]
                [--diagnostics out.json]
      Decode a spotfi-wire-v1 capture and run it through the fleet
      engine serially, printing frame accounting and fusion results.
      With --connect, stream the file's bytes to a `serve --listen`
      socket instead of processing locally (unix only).

  spotfi serve --listen <sock.path> [--aps N] [--workers N] [--queue N]
               [--shed] [--diagnostics out.json]
      Bind a unix socket, accept one ingest connection, decode wire
      frames as they arrive, and fuse them with the fleet engine until
      the sender hangs up (unix only).

  spotfi check-diagnostics <diagnostics.json>
      Validate a --diagnostics export: schema keys present, stage span
      durations consistent with the total span, and — when present —
      streaming and fleet counter identities (CI uses this).

  --threads N selects the worker-thread budget (default: all cores;
  1 = serial reference path; results are identical at any setting).
  For scenario it is one budget spread across targets and their links,
  each target analyzed serially.
  --diagnostics PATH enables the observability recorder for the run and
  writes per-stage span timings and pipeline counters as JSON; estimates
  are bit-identical with the recorder on or off.

  spotfi help
      Show this message.
";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e);
            eprintln!("run `spotfi help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), ArgError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(
        raw,
        &[
            "out",
            "target",
            "packets",
            "seed",
            "ap",
            "normal",
            "targets",
            "threads",
            "diagnostics",
            "workers",
            "queue",
            "aps",
            "speed",
            "loss",
            "drift",
            "listen",
            "connect",
            "export-wire",
        ],
    )?;
    match args.positional(0).unwrap_or("help") {
        "figures" => cmd_figures(&args),
        "simulate" => cmd_simulate(&args),
        "analyze" => cmd_analyze(&args),
        "scenario" => cmd_scenario(&args),
        "fleet" | "serve" => {
            if args.value("listen").is_some() {
                cmd_serve(&args)
            } else {
                cmd_fleet(&args)
            }
        }
        "ingest" => cmd_ingest(&args),
        "check-diagnostics" => cmd_check_diagnostics(&args),
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(())
        }
        other => Err(ArgError(format!("unknown command: {}", other))),
    }
}

fn cmd_figures(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown_flags(&["fast"])?;
    let which = args.positional(1).unwrap_or("all");
    let opts = if args.flag("fast") {
        ExperimentOptions::fast_test()
    } else {
        ExperimentOptions::default()
    };
    let all = which == "all";
    if all || which == "fig5" {
        println!("{}", fig5::render(&fig5::run(&opts)));
    }
    if all || which == "fig7" {
        for panel in [
            fig7::Panel::Office,
            fig7::Panel::Nlos,
            fig7::Panel::Corridor,
        ] {
            println!("{}", fig7::render(&fig7::run(panel, &opts)));
        }
    }
    if all || which == "fig8" {
        println!("{}", fig8::render(&fig8::run(&opts)));
    }
    if all || which == "fig9" {
        println!("{}", fig9::render_density(&fig9::run_density(&opts)));
        println!("{}", fig9::render_packets(&fig9::run_packets(&opts)));
    }
    if all || which == "ablation" {
        println!(
            "{}",
            ablation::render_channel(&ablation::run_channel_ablation(&opts))
        );
        println!(
            "{}",
            ablation::render_algorithm(&ablation::run_algorithm_ablation(&opts))
        );
    }
    if all || which == "through-wall" {
        println!("{}", through_wall::render(&through_wall::run(&opts)));
    }
    if all || which == "tracking" {
        println!("{}", tracking::render(&tracking::run(&opts)));
    }
    if !all
        && ![
            "fig5",
            "fig7",
            "fig8",
            "fig9",
            "ablation",
            "through-wall",
            "tracking",
        ]
        .contains(&which)
    {
        return Err(ArgError(format!("unknown figure: {}", which)));
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown_flags(&[])?;
    let out = args
        .value("out")
        .ok_or_else(|| ArgError("simulate needs --out <file.dat>".into()))?;
    let (tx, ty) = args.point("target")?.unwrap_or((-3.0, 6.0));
    let packets: usize = args.parsed("packets")?.unwrap_or(20);
    let seed: u64 = args.parsed("seed")?.unwrap_or(2015);

    let array = default_array(args)?;
    let plan = Floorplan::empty();
    let mut rng = Rng::seed_from_u64(seed);
    let trace = PacketTrace::generate(
        &plan,
        Point::new(tx, ty),
        &array,
        &TraceConfig::commodity(),
        packets,
        &mut rng,
    )
    .ok_or_else(|| ArgError("target is inaudible from the AP".into()))?;

    let records: Vec<_> = trace
        .packets
        .iter()
        .enumerate()
        .map(|(i, p)| from_csi_packet(p, i as u16, 30))
        .collect();
    write_dat_file(out, &records).map_err(|e| ArgError(format!("writing {}: {}", out, e)))?;
    println!(
        "wrote {} records to {} (truth AoA {:.1}°, mean RSSI {:.1} dBm)",
        records.len(),
        out,
        array.aoa_from_deg(Point::new(tx, ty)),
        trace.packets.iter().map(|p| p.rssi_dbm).sum::<f64>() / trace.packets.len() as f64,
    );
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown_flags(&["stream"])?;
    let path = args
        .positional(1)
        .ok_or_else(|| ArgError("analyze needs a capture file".into()))?;
    let records = read_dat_file(path).map_err(|e| ArgError(format!("reading {}: {}", path, e)))?;
    println!("parsed {} beamforming records from {}", records.len(), path);
    if records.is_empty() {
        return Ok(());
    }
    let array = default_array(args)?;
    let packets = to_csi_packets(&records);
    let mut cfg = SpotFiConfig::default();
    if let Some(t) = args.parsed::<usize>("threads")? {
        cfg.runtime = spotfi_core::RuntimeConfig::with_threads(t);
    }
    let diagnostics = diagnostics_begin(args);
    let threads = cfg.runtime.effective_threads();
    let spotfi = SpotFi::new(cfg);
    let streaming = args.flag("stream");
    let ap = ApPackets { array, packets };
    let analysis = {
        let _total = spotfi_obs::span("total");
        if streaming {
            spotfi.analyze_ap_streaming(&ap)
        } else {
            spotfi.analyze_ap(&ap)
        }
    }
    .map_err(|e| ArgError(format!("analysis failed: {}", e)))?;
    diagnostics_end(diagnostics, "analyze", threads)?;

    println!(
        "\n{:>8} {:>9} {:>6} {:>7} {:>7}",
        "AoA(°)", "ToF(ns)", "n", "σθ(°)", "στ(ns)"
    );
    for c in &analysis.clustering.clusters {
        println!(
            "{:>8.1} {:>9.1} {:>6} {:>7.2} {:>7.2}",
            c.mean_aoa_deg, c.mean_tof_ns, c.count, c.aoa_std_deg, c.tof_std_ns
        );
    }
    match analysis.direct {
        Some(d) => println!(
            "\ndirect path: AoA {:.1}° (likelihood {:.3}); mean RSSI {:.1} dBm",
            d.aoa_deg, d.likelihood, analysis.mean_rssi_dbm
        ),
        None => println!("\nno direct path identified"),
    }
    Ok(())
}

fn cmd_scenario(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown_flags(&[])?;
    let deployment = Deployment::standard();
    let mut scenario = match args.positional(1).unwrap_or("office") {
        "office" => Scenario::office(&deployment),
        "nlos" => Scenario::nlos(&deployment),
        "corridor" => Scenario::corridor(&deployment),
        other => return Err(ArgError(format!("unknown scenario: {}", other))),
    };
    if let Some(n) = args.parsed::<usize>("targets")? {
        scenario.targets.truncate(n);
    }
    if let Some(p) = args.parsed::<usize>("packets")? {
        scenario.packets_per_fix = p;
    }
    println!(
        "scenario '{}': {} targets, {} APs, {} packets/fix",
        scenario.name,
        scenario.targets.len(),
        scenario.aps.len(),
        scenario.packets_per_fix
    );
    let mut runner_cfg = RunnerConfig::default();
    if let Some(t) = args.parsed::<usize>("threads")? {
        runner_cfg.spotfi.runtime = spotfi_core::RuntimeConfig::with_threads(t);
    }
    let diagnostics = diagnostics_begin(args);
    // The runner spends this one budget across targets and their links
    // (the pipeline inside each target is serial); the validator's
    // stage-sum/total ratio check applies only when it is 1.
    let threads = runner_cfg.spotfi.runtime.effective_threads();
    let runner = Runner::new(scenario, runner_cfg);
    let records = {
        let _total = spotfi_obs::span("total");
        runner.run_localization()
    };
    diagnostics_end(diagnostics, "scenario", threads)?;
    println!(
        "\n{:<12} {:>8} {:>12} {:>7}",
        "target", "spotfi", "arraytrack", "heard"
    );
    let mut spotfi_errs = Vec::new();
    let mut at_errs = Vec::new();
    for r in &records {
        println!(
            "{:<12} {:>8} {:>12} {:>7}",
            r.target_name,
            fmt_err(r.spotfi_error_m),
            fmt_err(r.arraytrack_error_m),
            r.heard_by
        );
        if let Some(e) = r.spotfi_error_m {
            spotfi_errs.push(e);
        }
        if let Some(e) = r.arraytrack_error_m {
            at_errs.push(e);
        }
    }
    if !spotfi_errs.is_empty() {
        println!(
            "\nmedians: spotfi {:.2} m, arraytrack {:.2} m",
            spotfi_math::stats::median(&spotfi_errs),
            spotfi_math::stats::median(&at_errs),
        );
    }
    Ok(())
}

fn cmd_fleet(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown_flags(&["shed"])?;
    let targets: usize = args.parsed("targets")?.unwrap_or(64);
    let mut scenario_cfg = spotfi_testbed::fleet::FleetScenarioConfig::apartment(targets);
    if let Some(p) = args.parsed::<usize>("packets")? {
        scenario_cfg.packets_per_link = p;
    }
    if let Some(a) = args.parsed::<usize>("aps")? {
        scenario_cfg.aps = a.clamp(2, 32);
    }
    if let Some(s) = args.parsed::<f64>("speed")? {
        scenario_cfg.speed_mps = s.max(0.0);
    }
    if let Some(s) = args.parsed::<u64>("seed")? {
        scenario_cfg.seed = s;
    }
    if let Some(l) = args.parsed::<f64>("loss")? {
        scenario_cfg.loss_rate = l.clamp(0.0, 0.95);
    }
    if let Some(d) = args.parsed::<f64>("drift")? {
        scenario_cfg.clock_drift_ppm = d.max(0.0);
    }

    let fleet_cfg = fleet_engine_config(args)?;
    let workers = fleet_cfg.workers;

    println!(
        "generating fleet scenario: {} targets × {} APs × {} packets/link …",
        scenario_cfg.targets, scenario_cfg.aps, scenario_cfg.packets_per_link
    );
    let scenario = spotfi_testbed::FleetScenario::generate(&scenario_cfg);
    println!(
        "schedule: {} packets from {} audible targets",
        scenario.schedule.len(),
        scenario.targets.len()
    );
    if let Some(path) = args.value("export-wire") {
        return export_wire(path, &scenario);
    }

    // The latency lines read the recorder's histograms, so the recorder runs
    // even without --diagnostics (which only adds the JSON export).
    let diagnostics = diagnostics_begin(args);
    spotfi_obs::reset();
    spotfi_obs::set_enabled(true);
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    let start = std::time::Instant::now();
    let report = {
        let _total = spotfi_obs::span("total");
        let engine = spotfi_core::FleetEngine::new(spotfi, fleet_cfg);
        let mut updates = Vec::new();
        for pkt in &scenario.schedule {
            engine.ingest(pkt.clone());
            updates.extend(engine.try_updates());
        }
        let mut report = engine.shutdown();
        updates.append(&mut report.updates);
        report.updates = updates;
        report
    };
    let wall_s = start.elapsed().as_secs_f64();
    // The producer thread plus the worker pool all record spans, so the
    // serial stage-sum/total ratio check does not apply.
    diagnostics_end(diagnostics, "fleet", workers + 1)?;
    spotfi_obs::set_enabled(false);
    let snap = spotfi_obs::snapshot();

    let s = report.stats;
    println!(
        "\nworkers {}: processed {} packets in {:.2} s — {:.0} packets/s aggregate",
        workers,
        s.processed,
        wall_s,
        s.processed as f64 / wall_s.max(1e-9)
    );
    println!(
        "backpressure: ingested {} = accepted {} + dropped {} (deferred {}, max queue depth {})",
        s.ingested, s.accepted, s.dropped, s.deferred, s.max_queue_depth
    );
    println!(
        "fusion: {} attempts → {} position updates ({} degraded), {} without a fix, \
         {} stream errors",
        s.fusions, s.updates, s.fusion_degraded, s.fusion_no_fix, s.stream_errors
    );
    let lat = |name: &str| match snap.get(name) {
        Some(m) => format!(
            "p50 {:.1} µs, p90 {:.1} µs, p99 {:.1} µs, max {:.1} µs ({} samples)",
            m.quantile(0.50),
            m.quantile(0.90),
            m.quantile(0.99),
            m.max,
            m.updates
        ),
        None => "no samples".to_string(),
    };
    println!("packet latency: {}", lat("runtime.fleet_packet_latency_us"));
    println!("update latency: {}", lat("runtime.fleet_update_latency_us"));

    let mut raw_errs = Vec::new();
    let mut tracked_errs = Vec::new();
    for u in &report.updates {
        if let Some(truth) = scenario.truth_at(u.target_id, u.time_s) {
            raw_errs.push(u.raw.position.distance(truth));
            tracked_errs.push(u.tracked.distance(truth));
        }
    }
    if !tracked_errs.is_empty() {
        println!(
            "tracking error vs ground truth: raw median {:.2} m, tracked median {:.2} m \
             over {} updates",
            spotfi_math::stats::median(&raw_errs),
            spotfi_math::stats::median(&tracked_errs),
            tracked_errs.len()
        );
    } else {
        println!("no position updates emitted (increase --packets or --targets)");
    }
    Ok(())
}

/// The engine settings `fleet` and `serve` share: `--workers` (0, the
/// default, resolves to one worker per hardware thread), `--queue` and
/// `--shed`.
fn fleet_engine_config(args: &Args) -> Result<spotfi_core::FleetConfig, ArgError> {
    let mut cfg = spotfi_core::FleetConfig::default();
    if let Some(w) = args.parsed::<usize>("workers")? {
        cfg.workers = w;
    }
    if cfg.workers == 0 {
        cfg.workers = spotfi_core::hardware_parallelism();
    }
    if let Some(q) = args.parsed::<usize>("queue")? {
        cfg.queue_capacity = q.max(1);
    }
    if args.flag("shed") {
        cfg.overflow = spotfi_core::OverflowPolicy::DropNewest;
    }
    Ok(cfg)
}

/// Serializes a fleet schedule as concatenated `spotfi-wire-v1` frames —
/// the byte stream a receiver fleet would forward to the fusion server
/// (`receiver_id` = `ap_id`, `source_id` = `target_id`).
fn export_wire(path: &str, scenario: &spotfi_testbed::FleetScenario) -> Result<(), ArgError> {
    let mut bytes = Vec::new();
    for (i, pkt) in scenario.schedule.iter().enumerate() {
        let record = from_csi_packet(&pkt.packet, i as u16, 30);
        bytes.extend_from_slice(&spotfi_io::encode_frame(
            pkt.ap_id as u16,
            pkt.target_id,
            pkt.packet.timestamp_s,
            &record,
        ));
    }
    std::fs::write(path, &bytes).map_err(|e| ArgError(format!("writing {}: {}", path, e)))?;
    println!(
        "wrote {} wire frames ({} bytes) to {}",
        scenario.schedule.len(),
        bytes.len(),
        path
    );
    Ok(())
}

/// Maps one decoded wire event to a fleet packet: frames from registered
/// receivers pass through their calibration, everything else (corrupt or
/// incomplete frames, unknown receivers, wrong-shaped CSI, non-finite
/// timestamps) yields `None`.
fn frame_packet(
    registry: &spotfi_core::ReceiverRegistry,
    event: spotfi_io::WireEvent,
) -> Option<spotfi_core::FleetPacket> {
    let spotfi_io::WireEvent::Frame(f) = event else {
        return None;
    };
    let p = spotfi_io::packet_from_record(&f.record, f.timestamp_s);
    registry.fleet_packet(f.receiver_id as u32, f.source_id, p)
}

/// The `wire:` and `fleet:` report lines `ingest` and `serve` end with.
fn print_wire_and_fleet(wire: &spotfi_io::WireStats, s: &spotfi_core::FleetStats) {
    println!(
        "wire: received {} = decoded {} + corrupt {} + incomplete {} ({} resync bytes)",
        wire.received, wire.decoded, wire.corrupt, wire.incomplete, wire.resync_bytes
    );
    println!(
        "fleet: {} packets processed, {} fusions → {} updates ({} degraded, {} no fix)",
        s.processed, s.fusions, s.updates, s.fusion_degraded, s.fusion_no_fix
    );
}

/// The deployment map an ingest endpoint assumes: receiver `i` is AP `i`
/// of the `n`-AP apartment deployment, identity calibration.
fn wire_registry(n: usize) -> spotfi_core::ReceiverRegistry {
    let mut reg = spotfi_core::ReceiverRegistry::new();
    for (i, ap) in spotfi_testbed::deployed_aps(n).iter().enumerate() {
        reg.register(
            i as u32,
            ap.array,
            spotfi_core::ReceiverCalibration::default(),
        );
    }
    reg
}

fn cmd_ingest(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown_flags(&[])?;
    let path = args
        .positional(1)
        .ok_or_else(|| ArgError("ingest needs a wire capture file".into()))?;
    let bytes = std::fs::read(path).map_err(|e| ArgError(format!("reading {}: {}", path, e)))?;
    if let Some(sock) = args.value("connect") {
        return ingest_connect(&bytes, sock);
    }
    let aps = args.parsed::<usize>("aps")?.unwrap_or(4).clamp(2, 32);
    let fleet_cfg = spotfi_core::FleetConfig::default();
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    let diagnostics = diagnostics_begin(args);
    let (updates, stats, wire) = {
        let _total = spotfi_obs::span("total");
        let registry = wire_registry(aps);
        let mut dec = spotfi_io::WireDecoder::new();
        let mut packets = Vec::new();
        let mut sink = |e| packets.extend(frame_packet(&registry, e));
        for chunk in bytes.chunks(64 * 1024) {
            dec.feed(chunk, &mut sink);
        }
        dec.finish(&mut sink);
        let (updates, stats) = spotfi_core::run_fleet_serial(&spotfi, &fleet_cfg, &packets);
        (updates, stats, dec.stats())
    };
    // Wire decoding happens outside the instrumented pipeline stages, so
    // the serial stage-sum/total ratio check does not apply.
    diagnostics_end(diagnostics, "ingest", 2)?;
    print_wire_and_fleet(&wire, &stats);
    if updates.is_empty() {
        println!("no position updates emitted");
    } else {
        let last = &updates[updates.len() - 1];
        println!(
            "last fix: target {} at ({:.2}, {:.2}) t={:.2}s from {} APs",
            last.target_id, last.tracked.x, last.tracked.y, last.time_s, last.aps_used
        );
    }
    Ok(())
}

/// `ingest --connect`: forward the capture's bytes to a `serve --listen`
/// socket, retrying the connect briefly so the two processes can start in
/// either order.
#[cfg(unix)]
fn ingest_connect(bytes: &[u8], sock: &str) -> Result<(), ArgError> {
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    let mut stream = None;
    for _ in 0..50 {
        match UnixStream::connect(sock) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    }
    let mut stream = stream.ok_or_else(|| ArgError(format!("could not connect to {}", sock)))?;
    for chunk in bytes.chunks(8192) {
        stream
            .write_all(chunk)
            .map_err(|e| ArgError(format!("writing to {}: {}", sock, e)))?;
    }
    println!("streamed {} bytes to {}", bytes.len(), sock);
    Ok(())
}

#[cfg(not(unix))]
fn ingest_connect(_bytes: &[u8], _sock: &str) -> Result<(), ArgError> {
    Err(ArgError("--connect requires unix domain sockets".into()))
}

#[cfg(unix)]
fn cmd_serve(args: &Args) -> Result<(), ArgError> {
    use std::io::Read;
    use std::os::unix::net::UnixListener;
    args.reject_unknown_flags(&["shed"])?;
    let sock = args.value("listen").expect("dispatch checked --listen");
    let aps = args.parsed::<usize>("aps")?.unwrap_or(4).clamp(2, 32);
    let fleet_cfg = fleet_engine_config(args)?;
    let workers = fleet_cfg.workers;

    // Replace any stale socket from a previous run.
    let _ = std::fs::remove_file(sock);
    let listener =
        UnixListener::bind(sock).map_err(|e| ArgError(format!("binding {}: {}", sock, e)))?;
    println!("listening on {} ({} registered receivers)", sock, aps);

    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    let diagnostics = diagnostics_begin(args);
    let (report, wire) = {
        let _total = spotfi_obs::span("total");
        let registry = wire_registry(aps);
        let engine = spotfi_core::FleetEngine::new(spotfi, fleet_cfg);
        let mut dec = spotfi_io::WireDecoder::new();
        let (mut conn, _) = listener
            .accept()
            .map_err(|e| ArgError(format!("accepting on {}: {}", sock, e)))?;
        let mut buf = [0u8; 65536];
        // Frames the decoder salvages at the end of the stream take the
        // same route as the ones it decodes along the way.
        let mut sink = |e| {
            if let Some(fp) = frame_packet(&registry, e) {
                engine.ingest(fp);
            }
        };
        loop {
            let n = conn
                .read(&mut buf)
                .map_err(|e| ArgError(format!("reading from {}: {}", sock, e)))?;
            if n == 0 {
                break;
            }
            dec.feed(&buf[..n], &mut sink);
            // Only the counters are reported: drain the updates so the
            // channel stays bounded, but keep none of them.
            drop(engine.try_updates());
        }
        dec.finish(&mut sink);
        (engine.shutdown(), dec.stats())
    };
    diagnostics_end(diagnostics, "serve", workers + 1)?;
    let _ = std::fs::remove_file(sock);

    print_wire_and_fleet(&wire, &report.stats);
    Ok(())
}

#[cfg(not(unix))]
fn cmd_serve(args: &Args) -> Result<(), ArgError> {
    let _ = args;
    Err(ArgError(
        "serve --listen requires unix domain sockets".into(),
    ))
}

/// Enables the observability recorder when `--diagnostics PATH` was given;
/// returns the output path. The caller wraps the analyzed work in a
/// `span("total")` and finishes with [`diagnostics_end`].
fn diagnostics_begin(args: &Args) -> Option<String> {
    let path = args.value("diagnostics").map(str::to_string);
    if path.is_some() {
        spotfi_obs::reset();
        spotfi_obs::set_enabled(true);
    }
    path
}

/// Snapshots the recorder, writes the `spotfi-diagnostics-v1` JSON to
/// `path`, and prints the stage breakdown table. No-op when `--diagnostics`
/// was not given.
fn diagnostics_end(path: Option<String>, command: &str, threads: usize) -> Result<(), ArgError> {
    let Some(path) = path else { return Ok(()) };
    spotfi_obs::set_enabled(false);
    let snap = spotfi_obs::snapshot();
    let meta = [
        ("command", format!("\"{}\"", command)),
        ("threads", threads.to_string()),
        ("wall_ns", snap.time_total_ns("total").to_string()),
    ];
    let json = snap.to_diagnostics_json(&meta);
    std::fs::write(&path, &json).map_err(|e| ArgError(format!("writing {}: {}", path, e)))?;
    println!("\nwrote diagnostics to {}", path);
    print!(
        "\n{}",
        spotfi_testbed::report::render_stage_breakdown(&snap)
    );
    Ok(())
}

fn cmd_check_diagnostics(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown_flags(&[])?;
    let path = args
        .positional(1)
        .ok_or_else(|| ArgError("check-diagnostics needs a diagnostics JSON file".into()))?;
    let json =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("reading {}: {}", path, e)))?;
    let summary = spotfi_obs::validate_diagnostics(&json)
        .map_err(|e| ArgError(format!("{}: invalid diagnostics: {}", path, e)))?;
    println!(
        "{}: ok ({} spans, {} counters, stage sum {:.3} ms / total {:.3} ms{})",
        path,
        summary.spans,
        summary.counters,
        summary.stage_sum_ns as f64 / 1e6,
        summary.total_ns as f64 / 1e6,
        match summary.threads {
            Some(t) => format!(", threads {}", t),
            None => String::new(),
        }
    );
    Ok(())
}

fn fmt_err(e: Option<f64>) -> String {
    match e {
        Some(v) => format!("{:.2} m", v),
        None => "—".to_string(),
    }
}

/// AP geometry from `--ap x,y` and `--normal deg` (defaults: origin,
/// facing +y).
fn default_array(args: &Args) -> Result<AntennaArray, ArgError> {
    let (x, y) = args.point("ap")?.unwrap_or((0.0, 0.0));
    let normal_deg: f64 = args.parsed("normal")?.unwrap_or(90.0);
    Ok(AntennaArray::intel5300(
        Point::new(x, y),
        normal_deg.to_radians(),
        spotfi_channel::constants::DEFAULT_CARRIER_HZ,
    ))
}
