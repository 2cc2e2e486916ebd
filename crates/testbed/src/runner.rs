//! Experiment runner: traces → estimates → error records.
//!
//! [`Runner`] executes a [`Scenario`] end to end:
//!
//! * per (target, AP): generate a [`PacketTrace`] with a deterministic
//!   per-link seed; an AP "hears" the target only if its mean RSSI clears a
//!   sensitivity floor (as in a real capture);
//! * per target: localize with SpotFi (Algorithm 2) and with the practical
//!   ArrayTrack baseline on the *same* packets →
//!   [`LocalizationRecord`] (Figs. 7, 9);
//! * per link: AoA estimation and direct-path-selection errors for SpotFi,
//!   MUSIC-AoA, LTEye, CUPID, and Oracle → [`LinkRecord`] (Fig. 8).
//!
//! A run builds one [`SpotFi`] and maps targets through the pipeline's
//! [`parallel_map_with`] under the one thread budget `spotfi.runtime`. A
//! section opened on one of those workers (a target's per-AP analysis, or
//! its link tracing in [`audible_traces`]) runs inline there, so the budget
//! is never spent twice over.

use spotfi_channel::Rng;

use spotfi_baselines::arraytrack::{arraytrack_localize_in_bounds, ArrayTrackConfig};
use spotfi_baselines::music_aoa::averaged_peaks;
use spotfi_baselines::selection::{select_cupid, select_lteye, select_oracle};
use spotfi_channel::{AntennaArray, CsiPacket, PacketTrace, Point};
use spotfi_core::{parallel_map_with, ApPackets, SpotFi, SpotFiConfig};

use crate::deployment::NamedAp;
use crate::scenario::Scenario;

/// Runner configuration.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// SpotFi estimator configuration. Its `runtime` is the run's thread
    /// budget, spent across targets and their links.
    pub spotfi: SpotFiConfig,
    /// ArrayTrack baseline configuration.
    pub arraytrack: ArrayTrackConfig,
    /// Sensitivity floor: APs with mean RSSI below this don't hear the
    /// target, dBm.
    pub min_rssi_dbm: f64,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            spotfi: SpotFiConfig::default(),
            arraytrack: ArrayTrackConfig::intel5300(),
            min_rssi_dbm: -85.0,
        }
    }
}

impl RunnerConfig {
    /// Coarser grids for unit tests.
    pub fn fast_test() -> Self {
        let mut c = RunnerConfig {
            spotfi: SpotFiConfig::fast_test(),
            ..RunnerConfig::default()
        };
        c.arraytrack.music.aoa_grid_deg = spotfi_core::GridSpec::new(-90.0, 90.0, 2.0);
        c.arraytrack.grid_step_m = 0.5;
        c
    }
}

/// Localization outcome for one target (Figs. 7, 9).
#[derive(Clone, Debug)]
pub struct LocalizationRecord {
    /// Target label.
    pub target_name: String,
    /// Ground truth position.
    pub truth: Point,
    /// SpotFi error, meters (`None` = failed to produce a fix).
    pub spotfi_error_m: Option<f64>,
    /// ArrayTrack error, meters.
    pub arraytrack_error_m: Option<f64>,
    /// How many APs heard the target.
    pub heard_by: usize,
}

/// Per-(target, AP) AoA record (Fig. 8).
#[derive(Clone, Debug)]
pub struct LinkRecord {
    /// Target label.
    pub target_name: String,
    /// AP label.
    pub ap_name: String,
    /// Geometric line of sight on this link.
    pub is_los: bool,
    /// Ground-truth direct-path AoA at this AP, degrees.
    pub truth_aoa_deg: f64,
    /// Fig. 8a — SpotFi super-resolution: closest estimate to truth.
    pub spotfi_estimation_error_deg: Option<f64>,
    /// Fig. 8a — MUSIC-AoA: closest averaged-spectrum peak to truth.
    pub music_aoa_estimation_error_deg: Option<f64>,
    /// Fig. 8b — SpotFi's likelihood selection error.
    pub sel_spotfi_deg: Option<f64>,
    /// Fig. 8b — LTEye smallest-ToF selection error.
    pub sel_lteye_deg: Option<f64>,
    /// Fig. 8b — CUPID strongest-peak selection error.
    pub sel_cupid_deg: Option<f64>,
    /// Fig. 8b — Oracle selection error (lower bound).
    pub sel_oracle_deg: Option<f64>,
}

/// Executes scenarios.
pub struct Runner {
    /// The scenario to run.
    pub scenario: Scenario,
    /// Estimator/baseline configuration.
    pub config: RunnerConfig,
}

/// Traces one target against every AP; returns the audible subset with
/// each AP's index in the scenario's AP list (so callers can form subsets
/// of the *same* data, as the paper's Fig. 9a does).
///
/// Links are traced on the runtime pool at `cfg.spotfi.runtime`'s
/// effective threads. Each link draws only from its own
/// [`Scenario::link_seed`] stream and the audible links come back in AP
/// order, so the result is the same to the bit at any thread count. Called
/// from a runner's per-target worker, the map runs inline on that worker.
pub fn audible_traces(
    scenario: &Scenario,
    cfg: &RunnerConfig,
    target_idx: usize,
) -> Vec<(usize, NamedAp, PacketTrace)> {
    audible_traces_with_threads(
        scenario,
        cfg,
        target_idx,
        cfg.spotfi.runtime.effective_threads(),
    )
}

fn audible_traces_with_threads(
    scenario: &Scenario,
    cfg: &RunnerConfig,
    target_idx: usize,
    threads: usize,
) -> Vec<(usize, NamedAp, PacketTrace)> {
    let target = &scenario.targets[target_idx];
    let links = parallel_map_with(
        scenario.aps.len(),
        threads,
        || (),
        |_, ap_idx| {
            let ap = &scenario.aps[ap_idx];
            let mut rng = Rng::seed_from_u64(scenario.link_seed(target_idx, ap_idx));
            let trace = PacketTrace::generate(
                &scenario.floorplan,
                target.position,
                &ap.array,
                &scenario.trace,
                scenario.packets_per_fix,
                &mut rng,
            )?;
            let mean_rssi =
                trace.packets.iter().map(|p| p.rssi_dbm).sum::<f64>() / trace.packets.len() as f64;
            if mean_rssi < cfg.min_rssi_dbm {
                return None;
            }
            Some((ap_idx, ap.clone(), trace))
        },
    );
    links.into_iter().flatten().collect()
}

impl Runner {
    /// Creates a runner.
    pub fn new(scenario: Scenario, config: RunnerConfig) -> Self {
        Runner { scenario, config }
    }

    /// Runs localization for every target (SpotFi + ArrayTrack on identical
    /// packets). Records are returned in target order.
    pub fn run_localization(&self) -> Vec<LocalizationRecord> {
        let spotfi = SpotFi::new(self.config.spotfi.clone());
        self.map_targets(|t_idx| self.localize_target(&spotfi, t_idx))
    }

    /// Runs the per-link AoA experiments for every (audible) link.
    pub fn run_links(&self) -> Vec<LinkRecord> {
        let spotfi = SpotFi::new(self.config.spotfi.clone());
        let nested = self.map_targets(|t_idx| self.link_records(&spotfi, t_idx));
        nested.into_iter().flatten().collect()
    }

    /// Maps `f` over target indices under the configured thread budget,
    /// preserving order.
    fn map_targets<T: Send>(&self, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        parallel_map_with(
            self.scenario.targets.len(),
            self.config.spotfi.runtime.effective_threads(),
            || (),
            |_, t_idx| f(t_idx),
        )
    }

    /// Search bounds: AP bounding box + margin, clamped to the building
    /// outline — a fix outside the building is physically impossible, and
    /// both systems get the same constraint.
    fn search_bounds(&self, aps: &[spotfi_core::ApMeasurement]) -> spotfi_core::SearchBounds {
        let mut b =
            spotfi_core::SearchBounds::around_aps(aps, self.config.spotfi.localize.search_margin_m);
        if let Some((min, max)) = self.scenario.floorplan.bounding_box() {
            b.min_x = b.min_x.max(min.x);
            b.max_x = b.max_x.min(max.x);
            b.min_y = b.min_y.max(min.y);
            b.max_y = b.max_y.min(max.y);
        }
        b
    }

    fn localize_target(&self, spotfi: &SpotFi, t_idx: usize) -> LocalizationRecord {
        let target = &self.scenario.targets[t_idx];
        let traces = {
            let _span = spotfi_obs::span("stage.simulate");
            audible_traces(&self.scenario, &self.config, t_idx)
        };
        let heard_by = traces.len();

        let ap_packets: Vec<ApPackets> = traces
            .iter()
            .map(|(_, ap, tr)| ApPackets {
                array: ap.array,
                packets: tr.packets.clone(),
            })
            .collect();
        // `SearchBounds::around_aps` reads only the arrays.
        let placeholder: Vec<spotfi_core::ApMeasurement> = traces
            .iter()
            .map(|(_, ap, _)| spotfi_core::ApMeasurement {
                array: ap.array,
                direct_aoa_deg: 0.0,
                likelihood: 1.0,
                rssi_dbm: 0.0,
            })
            .collect();
        let bounds = self.search_bounds(&placeholder);
        let spotfi_error_m = spotfi
            .localize_in_bounds(&ap_packets, bounds)
            .ok()
            .map(|est| est.position.distance(target.position));

        let at_input: Vec<(AntennaArray, &[CsiPacket])> = traces
            .iter()
            .map(|(_, ap, tr)| (ap.array, tr.packets.as_slice()))
            .collect();
        let arraytrack_error_m = {
            let _span = spotfi_obs::span("stage.baseline");
            arraytrack_localize_in_bounds(&at_input, bounds, &self.config.arraytrack)
                .ok()
                .map(|est| est.distance(target.position))
        };

        LocalizationRecord {
            target_name: target.name.clone(),
            truth: target.position,
            spotfi_error_m,
            arraytrack_error_m,
            heard_by,
        }
    }

    fn link_records(&self, spotfi: &SpotFi, t_idx: usize) -> Vec<LinkRecord> {
        let target = &self.scenario.targets[t_idx];
        let traces = {
            let _span = spotfi_obs::span("stage.simulate");
            audible_traces(&self.scenario, &self.config, t_idx)
        };

        traces
            .iter()
            .map(|(_, ap, trace)| {
                let truth_aoa = ap.array.aoa_from_deg(target.position);
                let is_los = self
                    .scenario
                    .floorplan
                    .line_of_sight(target.position, ap.array.position);

                let analysis = spotfi
                    .analyze_ap(&ApPackets {
                        array: ap.array,
                        packets: trace.packets.clone(),
                    })
                    .ok();

                // Fig. 8a: closest super-resolution cluster to the truth.
                let spotfi_estimation_error_deg = analysis.as_ref().and_then(|a| {
                    a.clustering
                        .clusters
                        .iter()
                        .map(|c| (c.mean_aoa_deg - truth_aoa).abs())
                        .min_by(|x, y| x.partial_cmp(y).unwrap())
                });

                // Fig. 8a: MUSIC-AoA averaged spectrum, closest peak.
                let music_aoa_estimation_error_deg = {
                    let _span = spotfi_obs::span("stage.baseline");
                    averaged_peaks(&trace.packets, &self.config.arraytrack.music)
                        .into_iter()
                        .map(|aoa| (aoa - truth_aoa).abs())
                        .min_by(|x, y| x.partial_cmp(y).unwrap())
                };

                // Fig. 8b: selection errors on SpotFi's own estimates.
                let (sel_spotfi, sel_lteye, sel_cupid, sel_oracle) = match &analysis {
                    Some(a) => (
                        a.direct.map(|d| (d.aoa_deg - truth_aoa).abs()),
                        select_lteye(&a.clustering).map(|s| (s.aoa_deg - truth_aoa).abs()),
                        select_cupid(&a.clustering, &a.path_estimates)
                            .map(|s| (s.aoa_deg - truth_aoa).abs()),
                        select_oracle(&a.clustering, truth_aoa)
                            .map(|s| (s.aoa_deg - truth_aoa).abs()),
                    ),
                    None => (None, None, None, None),
                };

                LinkRecord {
                    target_name: target.name.clone(),
                    ap_name: ap.name.clone(),
                    is_los,
                    truth_aoa_deg: truth_aoa,
                    spotfi_estimation_error_deg,
                    music_aoa_estimation_error_deg,
                    sel_spotfi_deg: sel_spotfi,
                    sel_lteye_deg: sel_lteye,
                    sel_cupid_deg: sel_cupid,
                    sel_oracle_deg: sel_oracle,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use spotfi_core::RuntimeConfig;

    /// A trimmed office scenario for fast tests.
    fn mini_scenario() -> Scenario {
        let d = Deployment::standard();
        let mut s = Scenario::office(&d);
        s.targets.truncate(3);
        s.packets_per_fix = 6;
        s
    }

    #[test]
    fn localization_produces_records_for_all_targets() {
        let runner = Runner::new(mini_scenario(), RunnerConfig::fast_test());
        let recs = runner.run_localization();
        assert_eq!(recs.len(), 3);
        for r in &recs {
            assert!(r.heard_by >= 2, "{} heard by {}", r.target_name, r.heard_by);
            let e = r.spotfi_error_m.expect("SpotFi fix");
            assert!(e.is_finite() && e < 20.0, "{}: error {}", r.target_name, e);
            assert!(r.arraytrack_error_m.is_some());
        }
    }

    #[test]
    fn link_records_cover_audible_links() {
        let runner = Runner::new(mini_scenario(), RunnerConfig::fast_test());
        let links = runner.run_links();
        assert!(links.len() >= 6, "{} links", links.len());
        for l in &links {
            assert!((-90.0..=90.0).contains(&l.truth_aoa_deg));
            if let Some(e) = l.spotfi_estimation_error_deg {
                assert!((0.0..=180.0).contains(&e));
            }
        }
        // In the office, most links should be LoS.
        let los = links.iter().filter(|l| l.is_los).count();
        assert!(los * 2 >= links.len(), "{}/{} LoS", los, links.len());
    }

    #[test]
    fn runs_are_deterministic() {
        let runner = Runner::new(mini_scenario(), RunnerConfig::fast_test());
        let a = runner.run_localization();
        let b = runner.run_localization();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spotfi_error_m, y.spotfi_error_m);
            assert_eq!(x.arraytrack_error_m, y.arraytrack_error_m);
        }
    }

    /// Every packet's CSI, RSSI and timestamp bits.
    fn trace_bits(trace: &PacketTrace) -> Vec<u64> {
        trace
            .packets
            .iter()
            .flat_map(|p| {
                let csi = p.csi.as_slice().iter();
                csi.flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                    .chain([p.rssi_dbm.to_bits(), p.timestamp_s.to_bits()])
            })
            .collect()
    }

    #[test]
    fn audible_traces_is_bit_identical_at_any_thread_count() {
        // Each link draws only from its own `link_seed(t, ap_idx)` stream,
        // so the pooled links equal the serial ones to the bit, and each
        // equals the trace its own stream generates. NLoS target 22 misses
        // APs 0 and 6, so a stream keyed by position in the audible list
        // would not match.
        let d = Deployment::standard();
        let cfg = RunnerConfig::default();
        let bits = |links: &[(usize, NamedAp, PacketTrace)]| -> Vec<(usize, Vec<u64>)> {
            links
                .iter()
                .map(|(a, _, tr)| (*a, trace_bits(tr)))
                .collect()
        };
        let mut missed_an_ap = false;
        for (mut scenario, t) in [(Scenario::office(&d), 0), (Scenario::nlos(&d), 22)] {
            scenario.packets_per_fix = 4;
            let serial = audible_traces_with_threads(&scenario, &cfg, t, 1);
            assert!(!serial.is_empty());
            missed_an_ap |= serial.iter().enumerate().any(|(pos, l)| l.0 != pos);
            for (ap_idx, ap, trace) in &serial {
                let mut rng = Rng::seed_from_u64(scenario.link_seed(t, *ap_idx));
                let own = PacketTrace::generate(
                    &scenario.floorplan,
                    scenario.targets[t].position,
                    &ap.array,
                    &scenario.trace,
                    scenario.packets_per_fix,
                    &mut rng,
                )
                .expect("an audible link traces");
                assert!(
                    trace_bits(&own) == trace_bits(trace),
                    "AP {ap_idx}'s link is not its own stream's trace"
                );
            }
            let expected = bits(&serial);
            for threads in [2, 4] {
                let pooled = audible_traces_with_threads(&scenario, &cfg, t, threads);
                assert!(
                    bits(&pooled) == expected,
                    "{threads}-thread links differ from the serial ones"
                );
            }
        }
        assert!(missed_an_ap, "no target misses an AP before an audible one");
    }

    #[test]
    fn single_thread_matches_parallel() {
        let runner = |runtime| {
            let mut cfg = RunnerConfig::fast_test();
            cfg.spotfi.runtime = runtime;
            Runner::new(mini_scenario(), cfg)
        };
        let serial = runner(RuntimeConfig::serial());
        let parallel = runner(RuntimeConfig::with_threads(2));
        let bits = |v: Option<f64>| v.map(f64::to_bits);

        let (a, b) = (serial.run_localization(), parallel.run_localization());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(bits(x.spotfi_error_m), bits(y.spotfi_error_m));
            assert_eq!(bits(x.arraytrack_error_m), bits(y.arraytrack_error_m));
        }

        let (a, b) = (serial.run_links(), parallel.run_links());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((&x.target_name, &x.ap_name), (&y.target_name, &y.ap_name));
            let fields = |l: &LinkRecord| {
                [
                    l.spotfi_estimation_error_deg,
                    l.music_aoa_estimation_error_deg,
                    l.sel_spotfi_deg,
                    l.sel_lteye_deg,
                    l.sel_cupid_deg,
                    l.sel_oracle_deg,
                ]
                .map(bits)
            };
            assert_eq!(fields(x), fields(y), "{} @ {}", x.target_name, x.ap_name);
        }
    }
}
