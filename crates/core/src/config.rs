//! Configuration of the SpotFi estimator.
//!
//! Defaults reproduce the paper's Intel 5300 deployment: 3 antennas × 30
//! subcarriers, 2 × 15 smoothing subarrays, a 2-D MUSIC grid over
//! AoA ∈ [−90°, 90°] and (relative) ToF, five clusters, and the Eq. 8 / Eq. 9
//! weights.

use spotfi_channel::OfdmConfig;

use crate::runtime::RuntimeConfig;

/// Grid over one MUSIC parameter axis.
#[derive(Clone, Copy, Debug)]
pub struct GridSpec {
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
    /// Step size.
    pub step: f64,
}

impl GridSpec {
    /// Creates a grid.
    pub fn new(min: f64, max: f64, step: f64) -> Self {
        assert!(max > min && step > 0.0, "invalid grid spec");
        GridSpec { min, max, step }
    }

    /// Number of grid points (inclusive of both ends).
    pub fn len(&self) -> usize {
        ((self.max - self.min) / self.step).round() as usize + 1
    }

    /// `true` if the grid is degenerate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th grid value.
    pub fn value(&self, i: usize) -> f64 {
        self.min + i as f64 * self.step
    }

    /// Iterates over grid values.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }
}

/// MUSIC spectrum configuration.
#[derive(Clone, Copy, Debug)]
pub struct MusicConfig {
    /// Maximum number of propagation paths the signal subspace may contain.
    /// The paper observes 6–8 significant reflectors indoors; the smoothed
    /// 30-element array comfortably supports a signal subspace of 8.
    pub max_paths: usize,
    /// Eigenvalues below `noise_threshold_ratio × λ_max` are assigned to the
    /// noise subspace (Algorithm 2 step 5), subject to `max_paths`.
    pub noise_threshold_ratio: f64,
    /// Peaks whose pseudospectrum value is below this fraction of the
    /// strongest peak are discarded. The finite 15-subcarrier aperture
    /// produces periodic ToF sidelobe ridges whose "peaks" sit orders of
    /// magnitude below real paths; this floor removes them.
    pub min_relative_peak_power: f64,
    /// AoA grid, degrees.
    pub aoa_grid_deg: GridSpec,
    /// Relative-ToF grid, nanoseconds. STO shifts measured ToFs, so the grid
    /// must extend well past the plausible physical range on both sides.
    pub tof_grid_ns: GridSpec,
}

impl Default for MusicConfig {
    fn default() -> Self {
        MusicConfig {
            max_paths: 8,
            noise_threshold_ratio: 0.03,
            min_relative_peak_power: 0.05,
            aoa_grid_deg: GridSpec::new(-90.0, 90.0, 1.0),
            tof_grid_ns: GridSpec::new(-100.0, 400.0, 2.0),
        }
    }
}

/// CSI smoothing (Fig. 4) configuration.
#[derive(Clone, Copy, Debug)]
pub struct SmoothingConfig {
    /// Antennas per subarray (paper: 2 of 3).
    pub sub_antennas: usize,
    /// Subcarriers per subarray (paper: 15 of 30).
    pub sub_subcarriers: usize,
}

impl Default for SmoothingConfig {
    fn default() -> Self {
        SmoothingConfig {
            sub_antennas: 2,
            sub_subcarriers: 15,
        }
    }
}

/// Clustering (Sec. 3.2.3) configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of clusters. The paper uses 5 ("typically at best five
    /// significant paths"); we found one extra cluster (6) keeps merged
    /// reflections from contaminating the direct cluster on this
    /// simulator's denser channels — see the algorithm ablation.
    pub num_clusters: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_clusters: 6,
            max_iterations: 100,
        }
    }
}

/// Weights of the direct-path likelihood (Eq. 8).
///
/// The paper normalizes AoA and ToF "so that their values lie in the same
/// range"; we use **fixed physical scales** (`aoa_scale_deg`,
/// `tof_scale_ns`) rather than per-AP z-scores, so likelihood values are
/// comparable *across APs* — which is what lets the Eq. 9 weighting
/// suppress APs whose estimates are all loose reflections.
#[derive(Clone, Copy, Debug)]
pub struct LikelihoodWeights {
    /// Reward per fraction of points in the cluster (`w_C`).
    pub cluster_size: f64,
    /// Penalty per `aoa_scale_deg` of AoA standard deviation (`w_θ`).
    pub aoa_spread: f64,
    /// Penalty per `tof_scale_ns` of ToF standard deviation (`w_τ`).
    pub tof_spread: f64,
    /// Penalty per `2·tof_scale_ns` of mean-ToF excess over the AP's
    /// earliest cluster (`w_s`) — the direct path has the smallest ToF.
    pub tof_mean: f64,
    /// AoA normalization scale, degrees.
    pub aoa_scale_deg: f64,
    /// ToF normalization scale, nanoseconds.
    pub tof_scale_ns: f64,
    /// Clusters holding less than this fraction of all estimates are not
    /// direct-path candidates: a physical path produces estimates in most
    /// packets, a spurious sidelobe only sporadically.
    pub min_fraction: f64,
}

impl Default for LikelihoodWeights {
    fn default() -> Self {
        LikelihoodWeights {
            // The size term must dominate spurious single-packet clusters:
            // a full cluster (fraction ≈ 0.25) earns ≈ +1.25 over a
            // one-off (≈ 0.02).
            cluster_size: 5.0,
            aoa_spread: 2.0,
            tof_spread: 2.0,
            tof_mean: 2.0,
            aoa_scale_deg: 10.0,
            tof_scale_ns: 10.0,
            min_fraction: 0.12,
        }
    }
}

/// Localization (Eq. 9) configuration.
#[derive(Clone, Copy, Debug)]
pub struct LocalizeConfig {
    /// Coarse grid step for the global search, meters.
    pub grid_step_m: f64,
    /// Margin added around the AP bounding box for the search area, meters.
    pub search_margin_m: f64,
    /// Relative weight of one squared degree of AoA deviation against one
    /// squared dB of RSSI deviation in Eq. 9.
    pub aoa_weight: f64,
    /// Extra trust decay per 10 dB of RSSI below the strongest AP: the
    /// Eq. 9 weight of AP `i` is multiplied by
    /// `exp(−rssi_trust_per_10db·(p_max − p_i)/10)`. Estimator variance
    /// scales inversely with link SNR, so a 20–30 dB weaker AP carries far
    /// less information; the paper folds this into "how likely it is that
    /// the AoA measurement corresponds to the actual direct path" — we make
    /// the SNR component explicit. Set to 0 for the pure Eq. 8 weights.
    pub rssi_trust_per_10db: f64,
    /// Nelder–Mead polish iterations.
    pub polish_iterations: usize,
}

impl Default for LocalizeConfig {
    fn default() -> Self {
        LocalizeConfig {
            grid_step_m: 0.25,
            search_margin_m: 3.0,
            aoa_weight: 1.0,
            rssi_trust_per_10db: 1.5,
            polish_iterations: 200,
        }
    }
}

/// Streaming (amortized per-packet) analysis configuration.
///
/// The streaming path replaces the per-packet exact eigensolve + from-scratch
/// sweep with a rolling covariance, an online subspace tracker, and a
/// warm-started peak search (see DESIGN.md §9). Three knobs govern the
/// accuracy/cost trade:
///
/// * `forgetting` — exponential decay `λ` of the rolling covariance
///   `R ← λ·R + X·Xᴴ`. `0` keeps no history (each packet's covariance is
///   exactly the batch path's, which makes streaming bit-identical to batch
///   when combined with `reanchor_period = 1`); values near 1 average many
///   packets and smooth noise at the cost of lag on moving targets.
/// * `drift_threshold` — relative out-of-span energy of `R·E` above which
///   the tracked subspace is declared stale and the packet re-runs the
///   exact batch solver.
/// * `reanchor_period` — every `K`-th packet unconditionally re-runs the
///   exact solver and full detection sweep, bounding how far the tracked
///   state can wander between exact references.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Exponential forgetting factor `λ ∈ [0, 1)` of the rolling covariance.
    pub forgetting: f64,
    /// Subspace-tracker relative drift above which the packet falls back to
    /// the exact eigensolve (and re-seeds the tracker).
    pub drift_threshold: f64,
    /// Period of the unconditional exact re-anchor, in packets (≥ 1). `1`
    /// disables tracking entirely — every packet is exact.
    pub reanchor_period: usize,
    /// Optional cap on the tracked subspace rank, as a guard-band margin
    /// over the anchor packet's signal dimension: `Some(m)` seeds the
    /// tracker with `min(d + m, max_paths)` eigenvectors (where `d` is the
    /// Algorithm 2 noise-threshold signal count at the anchor), `None`
    /// tracks every extracted vector. Refine cost grows as `k³` in the
    /// Ritz eigensolve, so capping the rank is the main throughput lever
    /// for dense-multipath serving workloads; rank growth past the guard
    /// band surfaces as drift and falls back to the exact solver. The
    /// default (`None`) preserves the full-fidelity tracked subspace.
    pub tracker_rank_margin: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            // ~3-packet memory: enough averaging to stabilize the tracked
            // subspace without visible lag at walking speeds.
            forgetting: 0.7,
            // One refine step on a static channel shows drift ≈ 1e-3–1e-2
            // (finite packet noise); a moved target shows ≳ 0.3.
            drift_threshold: 0.1,
            reanchor_period: 32,
            tracker_rank_margin: None,
        }
    }
}

/// What an ingest call does when a shard's bounded queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Block the producer until the worker drains space (lossless; applies
    /// backpressure upstream). Each full-queue encounter is counted as a
    /// `fleet.deferred`.
    #[default]
    Block,
    /// Reject the incoming packet immediately (`fleet.dropped`). Use when
    /// the producer cannot stall — e.g. live capture sockets.
    DropNewest,
}

/// Fleet engine ([`crate::fleet::FleetEngine`]) configuration: worker-pool
/// shape, per-shard queue bounds, and the per-target fusion cadence.
///
/// Per-(target, AP) stream state is sharded by target hash, so all of one
/// target's state lives on exactly one worker — no locks, no migration —
/// and per-target results are independent of `workers` (the determinism
/// contract, DESIGN.md §10).
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Worker threads. `0` means one per hardware thread.
    pub workers: usize,
    /// Bounded depth of each worker's ingest queue, packets.
    pub queue_capacity: usize,
    /// Maximum packets a worker drains per wake-up. Batching amortizes the
    /// queue lock and condvar wake across many packets.
    pub batch_size: usize,
    /// What ingest does when a queue is full.
    pub overflow: OverflowPolicy,
    /// Run the fusion stage (cluster → likelihood → localize → smoother)
    /// every this many processed packets per target. Fusion costs ~10× a
    /// warm packet, so the cadence sets the fusion share of total work.
    pub fusion_interval: usize,
    /// Per-AP sliding window of recent packets' path estimates that each
    /// fusion clusters over.
    pub window_packets: usize,
    /// Minimum APs with a usable direct path before a fusion attempts to
    /// localize; below this the fusion counts as `fleet.fusion_no_fix`.
    pub min_fusion_aps: usize,
    /// Bounded per-target reorder window, packets. Network delivery may
    /// reorder packets across receivers; admission buffers up to this many
    /// packets per target and releases them in timestamp order, so
    /// unsynchronized per-AP streams merge into one coherent timeline.
    /// `0`/`1` disables buffering — packets process in arrival order, the
    /// legacy bit-exact behavior. Packets arriving later than an already
    /// released timestamp are still processed, counted as
    /// `fleet.late_packets`.
    pub reorder_window: usize,
    /// Fusion-time staleness horizon, seconds: window entries older than
    /// this relative to the fusing packet's timestamp are evicted, so a
    /// silent AP ages out of the fix instead of pinning it to stale
    /// bearings forever. Non-finite or ≤ 0 disables eviction.
    pub ap_stale_s: f64,
    /// Measurement-noise widening for degraded fusions (fewer usable APs
    /// than the target has ever seen): the smoother's measurement std is
    /// scaled by `sqrt(deployed / usable) × degraded_std_scale`, so fixes
    /// from a depleted AP set are trusted less instead of being dropped.
    /// `0` disables widening.
    pub degraded_std_scale: f64,
    /// Kalman smoother parameters for the per-target track.
    pub tracker: crate::tracking::TrackerConfig,
    /// Optional localization search bounds (e.g. the building outline).
    /// `None` searches the APs' bounding box plus the configured margin.
    pub bounds: Option<crate::localize::SearchBounds>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 0,
            queue_capacity: 1024,
            batch_size: 32,
            overflow: OverflowPolicy::default(),
            fusion_interval: 32,
            window_packets: 8,
            min_fusion_aps: 2,
            reorder_window: 1,
            ap_stale_s: 3.0,
            degraded_std_scale: 1.0,
            tracker: crate::tracking::TrackerConfig::default(),
            bounds: None,
        }
    }
}

/// Complete SpotFi configuration.
#[derive(Clone, Debug)]
pub struct SpotFiConfig {
    /// OFDM grid the CSI was measured on.
    pub ofdm: OfdmConfig,
    /// Number of receive antennas.
    pub num_antennas: usize,
    /// Smoothing subarray shape.
    pub smoothing: SmoothingConfig,
    /// MUSIC parameters.
    pub music: MusicConfig,
    /// Clustering parameters.
    pub cluster: ClusterConfig,
    /// Eq. 8 weights.
    pub likelihood: LikelihoodWeights,
    /// Eq. 9 solver parameters.
    pub localize: LocalizeConfig,
    /// Amortized streaming-path parameters (`analyze_ap_streaming`).
    pub stream: StreamConfig,
    /// Execution resources (thread budget). `threads = 1` is the serial
    /// reference path; any budget produces bit-identical results.
    pub runtime: RuntimeConfig,
}

impl Default for SpotFiConfig {
    fn default() -> Self {
        SpotFiConfig {
            ofdm: OfdmConfig::intel5300_40mhz(),
            num_antennas: 3,
            smoothing: SmoothingConfig::default(),
            music: MusicConfig::default(),
            cluster: ClusterConfig::default(),
            likelihood: LikelihoodWeights::default(),
            localize: LocalizeConfig::default(),
            stream: StreamConfig::default(),
            runtime: RuntimeConfig::default(),
        }
    }
}

impl SpotFiConfig {
    /// The coarse serving profile: 2° AoA and 5 ns ToF grids (default 1° /
    /// 2 ns), a 0.5 m localize step (default 0.25 m) and a capped tracker
    /// rank, same structure otherwise. Besides the unit tests, the `fleet`,
    /// `serve` and `ingest` commands and the `walk` / `ring16` benchmark
    /// workloads run this profile.
    pub fn fast_test() -> Self {
        let mut c = SpotFiConfig::default();
        c.music.aoa_grid_deg = GridSpec::new(-90.0, 90.0, 2.0);
        c.music.tof_grid_ns = GridSpec::new(-100.0, 400.0, 5.0);
        c.localize.grid_step_m = 0.5;
        // Serving-profile streaming: cap the tracked subspace at the
        // anchor's signal dimension + 2 — the k³ Ritz eigensolve is the
        // warm path's dominant cost at full rank (see StreamConfig).
        c.stream.tracker_rank_margin = Some(2);
        c
    }

    /// Expected CSI shape `(antennas, subcarriers)`.
    pub fn csi_shape(&self) -> (usize, usize) {
        (self.num_antennas, self.ofdm.num_subcarriers)
    }

    /// Rows of the smoothed CSI matrix (= subarray element count).
    pub fn smoothed_rows(&self) -> usize {
        self.smoothing.sub_antennas * self.smoothing.sub_subcarriers
    }

    /// Columns of the smoothed CSI matrix (= number of subarray shifts).
    pub fn smoothed_cols(&self) -> usize {
        (self.num_antennas - self.smoothing.sub_antennas + 1)
            * (self.ofdm.num_subcarriers - self.smoothing.sub_subcarriers + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_dimensions() {
        let c = SpotFiConfig::default();
        assert_eq!(c.csi_shape(), (3, 30));
        // 2 antennas × 15 subcarriers per subarray (paper Fig. 4).
        assert_eq!(c.smoothed_rows(), 30);
        // All shifts of that subarray: 2 antenna shifts × 16 subcarrier
        // shifts.
        assert_eq!(c.smoothed_cols(), 32);
        assert_eq!(c.music.max_paths, 8);
        assert_eq!(c.cluster.num_clusters, 6);
    }

    #[test]
    fn grid_spec_covers_range() {
        let g = GridSpec::new(-90.0, 90.0, 1.0);
        assert_eq!(g.len(), 181);
        assert_eq!(g.value(0), -90.0);
        assert_eq!(g.value(180), 90.0);
        let vals: Vec<f64> = g.iter().collect();
        assert_eq!(vals.len(), 181);
        assert!((vals[90] - 0.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid grid")]
    fn bad_grid_panics() {
        GridSpec::new(10.0, -10.0, 1.0);
    }
}
