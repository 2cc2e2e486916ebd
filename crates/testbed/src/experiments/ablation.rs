//! Ablation studies: which design choices and channel effects matter.
//!
//! Two sweeps, both on the office deployment:
//!
//! * [`run_channel_ablation`] — per-link AoA estimation error (SpotFi's
//!   joint estimator vs MUSIC-AoA) as individual channel effects are
//!   switched off: diffuse scattering, per-packet jitter, quantization,
//!   noise. This quantifies which impairments drive the gap between the
//!   estimators.
//! * [`run_algorithm_ablation`] — SpotFi localization error as pipeline
//!   pieces are weakened: RSSI-trust weighting off, single-cluster (k=1)
//!   clustering, ToF terms disabled in the likelihood (AoA-only scores),
//!   and a loose peak filter.

use spotfi_channel::Rng;

use spotfi_baselines::music_aoa::averaged_peaks;
use spotfi_channel::{PacketTrace, TraceConfig};
use spotfi_core::{ApPackets, SpotFi, SpotFiConfig};

use crate::deployment::Deployment;
use crate::experiments::ExperimentOptions;
use crate::report::FigureSeries;
use crate::runner::Runner;
use crate::scenario::Scenario;

/// One channel-ablation variant's outcome.
#[derive(Clone, Debug)]
pub struct ChannelAblationRow {
    /// Variant label.
    pub variant: String,
    /// SpotFi joint-estimator AoA errors (closest cluster), degrees.
    pub spotfi: FigureSeries,
    /// MUSIC-AoA errors (closest averaged-spectrum peak), degrees.
    pub music_aoa: FigureSeries,
}

/// Channel ablation result.
#[derive(Clone, Debug)]
pub struct ChannelAblation {
    /// One row per channel variant.
    pub rows: Vec<ChannelAblationRow>,
}

/// Runs the channel-effect ablation over LoS office links.
pub fn run_channel_ablation(opts: &ExperimentOptions) -> ChannelAblation {
    let deployment = Deployment::standard();
    let mut scenario = Scenario::office(&deployment);
    opts.trim(&mut scenario);

    let variants: Vec<(&str, TraceConfig)> = vec![
        ("full channel", TraceConfig::commodity()),
        ("no diffuse field", {
            let mut c = TraceConfig::commodity();
            c.diffuse = None;
            c
        }),
        ("static channel (no jitter)", {
            let mut c = TraceConfig::commodity();
            c.impairments.path_jitter = None;
            c
        }),
        ("no quantization", {
            let mut c = TraceConfig::commodity();
            c.impairments.quantize = false;
            c
        }),
        ("40 dB SNR", {
            let mut c = TraceConfig::commodity();
            c.impairments.snr_db = Some(40.0);
            c
        }),
    ];

    let spotfi = SpotFi::new(opts.runner.spotfi.clone());
    let mcfg = opts.runner.arraytrack.music;

    let rows = variants
        .into_iter()
        .map(|(name, tc)| {
            let mut se = Vec::new();
            let mut me = Vec::new();
            for (t_idx, t) in scenario.targets.iter().enumerate() {
                for (ap_idx, ap) in scenario.aps.iter().enumerate() {
                    if !scenario
                        .floorplan
                        .line_of_sight(t.position, ap.array.position)
                    {
                        continue;
                    }
                    let mut rng = Rng::seed_from_u64(scenario.link_seed(t_idx, ap_idx));
                    let Some(trace) = PacketTrace::generate(
                        &scenario.floorplan,
                        t.position,
                        &ap.array,
                        &tc,
                        scenario.packets_per_fix,
                        &mut rng,
                    ) else {
                        continue;
                    };
                    let truth = ap.array.aoa_from_deg(t.position);
                    if let Ok(a) = spotfi.analyze_ap(&ApPackets {
                        array: ap.array,
                        packets: trace.packets.clone(),
                    }) {
                        if let Some(e) = a
                            .clustering
                            .clusters
                            .iter()
                            .map(|c| (c.mean_aoa_deg - truth).abs())
                            .min_by(|x, y| x.partial_cmp(y).unwrap())
                        {
                            se.push(e);
                        }
                    }
                    if let Some(e) = averaged_peaks(&trace.packets, &mcfg)
                        .into_iter()
                        .map(|aoa| (aoa - truth).abs())
                        .min_by(|x, y| x.partial_cmp(y).unwrap())
                    {
                        me.push(e);
                    }
                }
            }
            ChannelAblationRow {
                variant: name.to_string(),
                spotfi: FigureSeries::new("SpotFi", se),
                music_aoa: FigureSeries::new("MUSIC-AoA", me),
            }
        })
        .collect();
    ChannelAblation { rows }
}

/// One algorithm-ablation variant's outcome.
#[derive(Clone, Debug)]
pub struct AlgorithmAblationRow {
    /// Variant label.
    pub variant: String,
    /// Localization errors, meters.
    pub errors: FigureSeries,
}

/// Algorithm ablation result.
#[derive(Clone, Debug)]
pub struct AlgorithmAblation {
    /// One row per pipeline variant.
    pub rows: Vec<AlgorithmAblationRow>,
}

/// Runs the pipeline ablation on the office scenario.
pub fn run_algorithm_ablation(opts: &ExperimentOptions) -> AlgorithmAblation {
    let deployment = Deployment::standard();
    let base = {
        let mut s = Scenario::office(&deployment);
        opts.trim(&mut s);
        s
    };

    let variants: Vec<(&str, SpotFiConfig)> = vec![
        ("full SpotFi", opts.runner.spotfi.clone()),
        ("no RSSI trust weighting", {
            let mut c = opts.runner.spotfi.clone();
            c.localize.rssi_trust_per_10db = 0.0;
            c
        }),
        ("single cluster (k = 1)", {
            let mut c = opts.runner.spotfi.clone();
            c.cluster.num_clusters = 1;
            c
        }),
        ("AoA-only likelihood (no ToF terms)", {
            let mut c = opts.runner.spotfi.clone();
            c.likelihood.tof_spread = 0.0;
            c.likelihood.tof_mean = 0.0;
            c
        }),
        ("loose peak filter (1 %)", {
            let mut c = opts.runner.spotfi.clone();
            c.music.min_relative_peak_power = 0.01;
            c
        }),
    ];

    let rows = variants
        .into_iter()
        .map(|(name, spotfi_cfg)| {
            let mut runner_cfg = opts.runner.clone();
            runner_cfg.spotfi = spotfi_cfg;
            let runner = Runner::new(base.clone(), runner_cfg);
            let errors: Vec<f64> = runner
                .run_localization()
                .into_iter()
                .filter_map(|r| r.spotfi_error_m)
                .collect();
            AlgorithmAblationRow {
                variant: name.to_string(),
                errors: FigureSeries::new(name, errors),
            }
        })
        .collect();
    AlgorithmAblation { rows }
}

/// Renders the channel ablation as a table.
pub fn render_channel(a: &ChannelAblation) -> String {
    let mut out =
        String::from("── Ablation: channel effects on AoA estimation (LoS office links) ──\n");
    out.push_str(&format!(
        "{:<30} {:>14} {:>14}\n",
        "variant", "SpotFi med(°)", "MUSIC med(°)"
    ));
    for r in &a.rows {
        out.push_str(&format!(
            "{:<30} {:>14.2} {:>14.2}\n",
            r.variant,
            if r.spotfi.is_empty() {
                f64::NAN
            } else {
                r.spotfi.median()
            },
            if r.music_aoa.is_empty() {
                f64::NAN
            } else {
                r.music_aoa.median()
            },
        ));
    }
    out
}

/// Renders the algorithm ablation as a table.
pub fn render_algorithm(a: &AlgorithmAblation) -> String {
    let mut out = String::from("── Ablation: SpotFi pipeline pieces (office localization) ──\n");
    out.push_str(&format!(
        "{:<38} {:>8} {:>8}\n",
        "variant", "med(m)", "p80(m)"
    ));
    for r in &a.rows {
        if r.errors.is_empty() {
            out.push_str(&format!("{:<38} {:>8}\n", r.variant, "(none)"));
        } else {
            out.push_str(&format!(
                "{:<38} {:>8.2} {:>8.2}\n",
                r.variant,
                r.errors.median(),
                r.errors.quantile(0.8)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExperimentOptions {
        let mut o = ExperimentOptions::fast_test();
        o.max_targets = Some(2);
        o.packets_override = Some(6);
        o
    }

    #[test]
    fn channel_ablation_produces_all_variants() {
        let a = run_channel_ablation(&tiny_opts());
        assert_eq!(a.rows.len(), 5);
        for r in &a.rows {
            assert!(!r.spotfi.is_empty(), "{}: no SpotFi samples", r.variant);
            assert!(!r.music_aoa.is_empty(), "{}: no MUSIC samples", r.variant);
        }
        let text = render_channel(&a);
        assert!(text.contains("no diffuse field"));
    }

    #[test]
    fn algorithm_ablation_produces_all_variants() {
        let a = run_algorithm_ablation(&tiny_opts());
        assert_eq!(a.rows.len(), 5);
        for r in &a.rows {
            assert!(!r.errors.is_empty(), "{}: no fixes", r.variant);
        }
        let text = render_algorithm(&a);
        assert!(text.contains("full SpotFi"));
        assert!(text.contains("no RSSI trust"));
    }
}
