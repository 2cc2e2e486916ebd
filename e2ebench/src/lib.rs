//! `spotfi-e2e` — the end-to-end serving benchmark.
//!
//! A SpotFi user sends CSI and gets back a position fix. This benchmark
//! measures exactly that, in-process, through the real serve path, and
//! times each layer only from outside, around calls to its public
//! functions:
//!
//! * **fleet workloads** (`walk`, `ring16`): wire frames →
//!   [`spotfi_io::WireDecoder`] → [`spotfi_io::packet_from_record`] →
//!   [`spotfi_core::ReceiverRegistry::fleet_packet`] →
//!   [`spotfi_core::FleetEngine::ingest`] → `try_updates`, offered open-loop
//!   at a fixed rate, then replayed closed-loop on a fresh engine for
//!   capacity;
//! * **batch workload** (`fig7-batch`): the paper's Fig. 7 deployments, one
//!   closed-loop client sending [`spotfi_core::SpotFi::localize_in_bounds`]
//!   requests to one server thread.
//!
//! Every run checks its outputs and fails (no metrics) when a check fails.
//! A traced run (`trace = true`) is separate from the end-to-end runs and
//! reports per-layer metrics from in-memory spans.

pub mod batch;
pub mod fleet;
pub mod host;
pub mod stats;
pub mod trace;

use std::fmt;
use std::time::Duration;

use spotfi_channel::CsiPacket;
use spotfi_core::{
    music_paths_coarse_to_fine, sanitize_csi, smoothed_csi_into, MusicScratch, SpotFi,
};
use spotfi_math::{
    hermitian_eigen_partial_batch_into, BatchTridiagWorkspace, CMat, TridiagWorkspace, BATCH_LANES,
};
use trace::Tracer;

/// A failed run: a broken output check, an invalid load, or an
/// unavailable measurement. The run prints no metrics.
#[derive(Debug)]
pub struct BenchError(String);

impl BenchError {
    /// An error with a message.
    pub fn new(msg: impl Into<String>) -> Self {
        BenchError(msg.into())
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

/// Fails the run with `msg` unless `ok`.
pub fn check(ok: bool, msg: impl FnOnce() -> String) -> Result<(), BenchError> {
    if ok {
        Ok(())
    } else {
        Err(BenchError::new(format!("check failed: {}", msg())))
    }
}

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Gated end-to-end metrics, emitted by every untraced run (`name`,
/// `unit`). `BENCHMARK.json` lists the same names and units. Untraced runs
/// also print `throughput_pps` and fix latency, which are not gated: they
/// move more than 10% between runs on a shared host.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fix_error_p50_m", "m"),
    ("fix_error_p90_m", "m"),
    ("packet_ok_frac", "ratio"),
    ("fix_ok_frac", "ratio"),
    ("serve_heap_mb", "MB"),
];

/// Per-layer metrics emitted by every traced run. Each workload prints
/// more (its own path's layers); these are the ones every workload has.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("testbed.generate_s", "s"),
    ("core.spotfi_new_ms", "ms"),
    ("core.sanitize.call_us.p50", "us"),
    ("core.smoothing.call_us.p50", "us"),
    ("math.eigen_tridiag.batch4_us.p50", "us"),
    ("core.music.c2f_us.p50", "us"),
    ("core.pipeline.packet_us.p50", "us"),
    ("core.pipeline.exact_frac", "ratio"),
    ("core.pipeline.error_frac", "ratio"),
    ("core.pipeline.share", "ratio"),
    ("core.cluster.call_us.p50", "us"),
    ("core.likelihood.call_us.p50", "us"),
    ("core.localize.call_us.p50", "us"),
    ("core.localize.share", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("host.probe_ns", "ns"),
    ("host.probe_drift", "ratio"),
];

/// Percentile of the per-window throughputs reported as `throughput_pps`.
///
/// A shared host slows some windows of a run (another tenant on the
/// core, cache thrash) and never speeds any up, so the upper windows track
/// the engine's own speed: over the same ten `walk` runs the 75th
/// percentile spread 6.8% where the median spread 9.3%.
pub const CAPACITY_PERCENTILE: f64 = 75.0;

/// One measured number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every metric, in emission order.
    pub metrics: Vec<Metric>,
    /// Operations offered: packets for fleet workloads, requests for the
    /// batch workload.
    pub attempted: u64,
    /// Operations the serving path refused or lost.
    pub failed: u64,
    /// The spans of a traced run.
    pub spans: Option<Tracer>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Every metric as `name value unit` lines.
    pub fn text(&self) -> String {
        self.metrics
            .iter()
            .map(|m| format!("{} {} {}\n", m.name, m.value, m.unit))
            .collect()
    }

    /// The one-line JSON result holding exactly the metrics in `wanted`.
    pub fn json_line(&self, wanted: &[(&str, &str)]) -> Result<String, BenchError> {
        let mut fields = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            let m = self
                .get(name)
                .ok_or_else(|| BenchError::new(format!("metric {name} was not measured")))?;
            check(m.unit == unit, || {
                format!("metric {name} has unit {}, expected {unit}", m.unit)
            })?;
            check(m.value.is_finite(), || {
                format!("metric {name} is {}", m.value)
            })?;
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 256 walking targets, 3 APs: the steady streaming regime.
    Walk,
    /// 128 targets heard by a 16-AP ring: fusion-heavy.
    Ring16,
    /// The paper's Fig. 7 deployments through the batch engine.
    Fig7Batch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Walk, Workload::Ring16, Workload::Fig7Batch];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Walk => "walk",
            Workload::Ring16 => "ring16",
            Workload::Fig7Batch => "fig7-batch",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size spec the CLI runs.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Walk => Spec::Fleet(fleet::FleetSpec::walk()),
            Workload::Ring16 => Spec::Fleet(fleet::FleetSpec::ring16()),
            Workload::Fig7Batch => Spec::Batch(batch::BatchSpec::fig7()),
        }
    }
}

/// Harness settings shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct Harness {
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// How long each host-speed probe runs.
    pub probe: Duration,
    /// Samples required beyond a reported percentile
    /// ([`stats::MIN_TAIL`] for real runs).
    pub min_tail: usize,
}

impl Harness {
    /// The settings real runs use.
    pub fn standard() -> Self {
        Harness {
            setup_reps: 3,
            probe: Duration::from_millis(300),
            min_tail: stats::MIN_TAIL,
        }
    }

    /// Nearest-rank percentile under this harness's tail rule.
    pub fn percentile(&self, name: &str, values: &[f64], p: f64) -> Result<f64, BenchError> {
        stats::percentile(values, p, self.min_tail).ok_or_else(|| {
            BenchError::new(format!(
                "{name}: {} samples cannot support p{p} with {} beyond it",
                values.len(),
                self.min_tail
            ))
        })
    }
}

/// What to run: a workload's sizes and load.
#[derive(Clone, Debug)]
pub enum Spec {
    /// An open-loop fleet workload.
    Fleet(fleet::FleetSpec),
    /// The closed-loop batch workload.
    Batch(batch::BatchSpec),
}

/// Per-run options from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Input seed: the same seed gives the same inputs. It sets the
    /// arrival order (fleet) or request order (batch) of a pinned scene.
    pub seed: u64,
    /// Measurement length, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
}

/// Runs one workload and checks its outputs.
pub fn run(spec: &Spec, opts: &Options) -> Result<Report, BenchError> {
    check(opts.seconds > 0.0, || "--seconds must be positive".into())?;
    match spec {
        Spec::Fleet(s) => fleet::run(s, opts),
        Spec::Batch(s) => batch::run(s, opts),
    }
}

/// Mixes `seed` with a salt (splitmix64 finalizer), so each input stream
/// of a workload gets its own well-spread seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times the per-packet layers that the engine calls internally, each
/// through its public function on the same packets: sanitize (Algorithm
/// 1), smoothing, the coarse-to-fine MUSIC sweep, and the 4-lane batched
/// eigensolve over consecutive packets' covariances.
pub(crate) fn probe_packet_layers(
    spotfi: &SpotFi,
    packets: &[&CsiPacket],
    tracer: &mut Tracer,
) -> Result<(), BenchError> {
    let cfg = spotfi.config();
    let n = cfg.smoothed_rows();
    let mut smoothed = CMat::zeros(n, cfg.smoothed_cols());
    let mut music = MusicScratch::new(cfg);
    let mut covs: Vec<CMat> = Vec::with_capacity(BATCH_LANES);
    let mut lanes: Vec<TridiagWorkspace> = vec![TridiagWorkspace::default(); BATCH_LANES];
    let mut batch = BatchTridiagWorkspace::default();
    for (i, p) in packets.iter().enumerate() {
        let req = i as u64;
        let root = tracer.begin("bench.probe", req);
        let sanitized = tracer.time("core.sanitize", req, || {
            sanitize_csi(&p.csi, cfg.ofdm.subcarrier_spacing_hz)
        });
        let smoothed_ok = sanitized.is_ok_and(|s| {
            tracer
                .time("core.smoothing", req, || {
                    smoothed_csi_into(&s.csi, cfg, &mut smoothed)
                })
                .is_ok()
        });
        if smoothed_ok {
            let paths = tracer.time("core.music.c2f", req, || {
                music_paths_coarse_to_fine(&smoothed, cfg, spotfi.steering_cache(), &mut music)
            });
            std::hint::black_box(paths.ok());
            let mut cov = CMat::zeros(n, n);
            smoothed.mul_hermitian_self_into(&mut cov);
            if cov.as_slice().iter().all(|z| z.is_finite()) {
                covs.push(cov);
            }
            if covs.len() == BATCH_LANES {
                tracer.time("math.eigen_tridiag.batch4", req, || {
                    let mats: Vec<&CMat> = covs.iter().collect();
                    let mut outs: Vec<&mut TridiagWorkspace> = lanes.iter_mut().collect();
                    hermitian_eigen_partial_batch_into(
                        &mats,
                        cfg.music.max_paths,
                        &mut batch,
                        &mut outs,
                    );
                });
                covs.clear();
            }
        }
        tracer.end(root);
    }
    check(
        tracer
            .spans()
            .iter()
            .any(|s| s.name == "math.eigen_tridiag.batch4"),
        || "no packet batch reached the eigensolver probe".into(),
    )
}

/// Host-speed witness: probes before and after `body`, and appends
/// `host.probe_ns` (the before/after mean) and `host.probe_drift`
/// (after/before − 1) to its report.
pub fn with_probe(
    harness: &Harness,
    body: impl FnOnce() -> Result<Report, BenchError>,
) -> Result<Report, BenchError> {
    let before = host::probe_ns(harness.probe);
    let mut report = body()?;
    let after = host::probe_ns(harness.probe);
    report.push("host.probe_ns", 0.5 * (before + after), "ns");
    report.push("host.probe_drift", after / before - 1.0, "ratio");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in one array of
    /// `BENCHMARK.json`.
    fn benchmark_metrics(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("metric list");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("closing bracket")];
        let field = |obj: &str, k: &str| -> String {
            let at = obj.find(&format!("\"{k}\"")).expect("field") + k.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("value") + 1;
            let close = open + rest[open..].find('"').expect("value end");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let listed = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(benchmark_metrics("end_to_end"), listed(END_TO_END));
        assert_eq!(benchmark_metrics("per_layer"), listed(PER_LAYER));
    }

    #[test]
    fn json_line_holds_exactly_the_wanted_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.push("a", 1.25, "ms");
        r.push("b", 2.0, "s");
        assert_eq!(
            r.json_line(&[("a", "ms")]).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(r.json_line(&[("a", "s")]).is_err());
        assert!(r.json_line(&[("c", "s")]).is_err());
        assert_eq!(r.text(), "a 1.25 ms\nb 2 s\n");
    }

    /// Every workload at a tiny size, untraced and traced, through the
    /// library API: all output checks pass, every metric listed in
    /// `BENCHMARK.json` comes out with its unit, and another seed leaves
    /// the output metrics unchanged.
    #[test]
    fn tiny_runs_of_every_workload_pass_their_checks() {
        let harness = Harness {
            setup_reps: 2,
            probe: Duration::from_millis(5),
            min_tail: 0,
        };
        // A 4 ms arrival gap: the generator must keep its schedule on a
        // busy test machine, in a debug build, with tracing on.
        let fleet = fleet::FleetSpec {
            targets: 6,
            rate_pps: 250.0,
            stagger: 4,
            windows: 4,
            probe_packets: 16,
            harness,
            ..fleet::FleetSpec::walk()
        };
        let specs = [
            (Spec::Fleet(fleet.clone()), 0.8),
            (
                Spec::Fleet(fleet::FleetSpec {
                    targets: 2,
                    aps: 16,
                    ..fleet
                }),
                0.8,
            ),
            (
                Spec::Batch(batch::BatchSpec {
                    targets_per_panel: Some(2),
                    draws: 1,
                    packets_per_fix: 4,
                    min_rounds: 2,
                    probe_packets: 16,
                    harness,
                }),
                0.01,
            ),
        ];
        // The seed reorders the inputs of a pinned scene, so every metric
        // that counts or scores the program's outputs is the same for any
        // seed.
        let exact = [
            "fix_error_p50_m",
            "fix_error_p90_m",
            "packet_ok_frac",
            "fix_ok_frac",
        ];
        for (spec, seconds) in &specs {
            let mut first_seed: Option<[u64; 4]> = None;
            for (seed, trace) in [(5, false), (5, true), (6, false)] {
                let opts = Options {
                    seed,
                    seconds: *seconds,
                    trace,
                };
                let report =
                    run(spec, &opts).unwrap_or_else(|e| panic!("{spec:?} trace={trace}: {e}"));
                let wanted = if trace { PER_LAYER } else { END_TO_END };
                report
                    .json_line(wanted)
                    .unwrap_or_else(|e| panic!("{spec:?} trace={trace}: {e}"));
                assert!(report.attempted > 0);
                assert_eq!(report.failed, 0);
                assert_eq!(report.spans.is_some(), trace);
                if !trace {
                    let values = exact.map(|name| report.get(name).expect(name).value.to_bits());
                    let first = *first_seed.get_or_insert(values);
                    assert_eq!(
                        values, first,
                        "{spec:?}: seed {seed} moved an output metric"
                    );
                }
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
