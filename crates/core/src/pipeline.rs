//! The end-to-end SpotFi pipeline (paper Algorithm 2).
//!
//! ```text
//! for each AP:
//!     for each packet:
//!         sanitize CSI (Algorithm 1)          → sanitize
//!         build smoothed CSI (Fig. 4)         → smoothing
//!         MUSIC spectrum + peaks              → music, peaks
//!     cluster (AoA, ToF) estimates            → cluster
//!     score clusters, pick direct path (Eq.8) → likelihood
//! fuse direct AoAs + RSSI across APs (Eq. 9)  → localize
//! ```
//!
//! [`SpotFi`] is the user-facing object: construct it with a
//! [`SpotFiConfig`], feed it per-AP packet sets, get a location.
//!
//! ### Execution model
//!
//! Every packet, batch or streamed, runs one engine: *stage* (sanitize →
//! smooth → covariance, plus the anchor decision), then the *exact tail*
//! (exact eigendecomposition → coarse-to-fine sweep) or, for streams, the
//! *warm tail* (tracked subspace → warm-started sweep). Both tails hand
//! their signal basis to one preparer, `music::prepare_from_basis`.
//!
//! Construction precomputes a [`SteeringCache`] (the MUSIC grid's steering
//! factors) once per configuration. Analysis fans out on the scoped-thread
//! engine in [`crate::runtime`]: the whole (AP, packet) cross product is
//! flattened into one work list of packets that feeds the outermost
//! parallel map, and each packet runs stage → exact eigendecomposition →
//! exact tail, the sequence a stream's anchor packet runs. The budget
//! itself is capped at the host's
//! [`crate::runtime::hardware_parallelism`]. Every per-packet computation
//! is pure and results come back in input order, so they are bit-identical
//! for every thread count; `threads = 1` runs the plain serial path. Each
//! worker owns one [`PacketScratch`], so per-packet buffers (smoothed
//! matrix, covariance, eigensolver workspace, packed projector blocks) are
//! allocated once per worker, not once per packet.
//!
//! ### Streaming model
//!
//! The batch path re-derives everything per packet. When packets arrive as
//! a live stream from one (target, AP) pair, consecutive channels are
//! heavily correlated, and [`SpotFi::analyze_packet_streaming_with`]
//! amortizes across them with persistent [`StreamState`]: a rolling
//! exponentially-forgotten covariance, an online-tracked signal subspace
//! (block power step + Rayleigh–Ritz) replacing the exact eigensolve, and
//! a warm-started sweep seeded from the previous packet's peak basins. The
//! exact solver and full detection sweep run only on *anchor* packets —
//! the first, every [`crate::config::StreamConfig::reanchor_period`]-th,
//! and whenever subspace drift trips
//! [`crate::config::StreamConfig::drift_threshold`]. See DESIGN.md §9 for
//! the amortization policy and exactness contract.

use spotfi_channel::{AntennaArray, CsiPacket};
use spotfi_math::stats::mean;
use spotfi_math::{CMat, PackedHermitian, RitzWorkspace, SubspaceTracker};

use crate::cluster::{cluster_estimates, Clustering};
use crate::config::SpotFiConfig;
use crate::error::{Result, SpotFiError};
use crate::likelihood::{select_direct_path, DirectPath};
use crate::localize::{
    localize, localize_in_bounds, ApMeasurement, LocationEstimate, SearchBounds,
};
use crate::music::{
    coarse_to_fine_prepared, covariance_into, music_paths_warm_prepared, prepare_from_basis,
    signal_dimension, CoarseFinePaths, MusicScratch,
};
use crate::peaks::PathEstimate;
use crate::runtime::parallel_map_with;
use crate::sanitize::sanitize_csi;
use crate::smoothing::smoothed_csi_into;
use crate::steering::SteeringCache;

/// What one AP heard: its array geometry plus the packets it captured.
#[derive(Clone, Debug)]
pub struct ApPackets {
    /// The AP's antenna array.
    pub array: AntennaArray,
    /// Captured packets (CSI + RSSI).
    pub packets: Vec<CsiPacket>,
}

/// Per-AP analysis output: everything Algorithm 2 computes before fusion.
#[derive(Clone, Debug)]
pub struct ApAnalysis {
    /// The AP's antenna array.
    pub array: AntennaArray,
    /// All per-packet path estimates (each packet contributes ≤ `max_paths`).
    pub path_estimates: Vec<PathEstimate>,
    /// The clustering of those estimates.
    pub clustering: Clustering,
    /// The selected direct path, if any cluster survived.
    pub direct: Option<DirectPath>,
    /// Mean RSSI across packets, dBm.
    pub mean_rssi_dbm: f64,
    /// Packets that failed sanitization or produced no peaks.
    pub dropped_packets: usize,
}

impl ApAnalysis {
    /// Converts to the localization input, if a direct path was found.
    pub fn to_measurement(&self) -> Option<ApMeasurement> {
        self.direct.map(|d| ApMeasurement {
            array: self.array,
            direct_aoa_deg: d.aoa_deg,
            likelihood: d.likelihood,
            rssi_dbm: self.mean_rssi_dbm,
        })
    }
}

/// Reusable per-worker buffers for one packet's analysis chain: the
/// smoothed measurement matrix, the MUSIC covariance/projector scratch
/// (whose covariance buffer also holds a stream's unpacked covariance
/// while its packet runs), and the subspace tracker's per-step
/// [`RitzWorkspace`]. Fully overwritten on every packet, so one scratch
/// serves a worker — and every stream on it — for the lifetime of a run.
/// The Ritz workspace is sized by the first warm packet, so a scratch that
/// only ever runs batch packets never allocates it.
#[derive(Clone, Debug)]
pub struct PacketScratch {
    smoothed: CMat,
    music: MusicScratch,
    ritz: RitzWorkspace,
}

impl PacketScratch {
    /// Allocates buffers sized for `cfg`.
    pub fn new(cfg: &SpotFiConfig) -> Self {
        PacketScratch {
            smoothed: CMat::zeros(cfg.smoothed_rows(), cfg.smoothed_cols()),
            music: MusicScratch::new(cfg),
            ritz: RitzWorkspace::default(),
        }
    }
}

/// The *persistent* half of a streaming session: the rolling smoothed-CSI
/// covariance with exponential forgetting, the tracked signal subspace
/// that refines the previous packet's eigenbasis instead of re-running
/// the exact solver, the previous packet's fine-grid peak cells that seed
/// the warm-started sweep, and the re-anchor bookkeeping.
///
/// Kept apart from the transient [`PacketScratch`] so callers that keep
/// *many* concurrent streams (the fleet engine shards thousands of
/// per-(target, AP) sessions across a handful of workers) pay only for
/// this state per stream, while one per-worker [`PacketScratch`] serves
/// every stream, since the scratch is fully overwritten on each packet.
/// A stream holds only what its next packet reads: the covariance as a
/// [`PackedHermitian`] lower triangle (`n(n+1)/2` entries, 7.4 KB at the
/// default n = 30) and the tracked `n×k` basis (≤ 3.8 KB at
/// `max_paths` = 8), plus the previous peak cells. Each packet unpacks the
/// covariance into the worker's scratch; the tracker's per-step products
/// live in the scratch's [`RitzWorkspace`].
///
/// One `StreamState` belongs to one packet stream; feeding it packets from
/// different APs (or different targets) mixes unrelated covariances.
/// State survives per-packet errors: a sanitize/smooth failure leaves the
/// covariance and tracker untouched, while an empty sweep or a non-finite
/// covariance forces an exact re-anchor on the next packet.
#[derive(Clone, Debug)]
pub struct StreamState {
    cov: PackedHermitian,
    tracker: SubspaceTracker,
    last_peaks: Vec<(usize, usize)>,
    packets_since_anchor: usize,
    initialized: bool,
    force_anchor: bool,
}

impl StreamState {
    /// Allocates stream state sized for `cfg`.
    pub fn new(cfg: &SpotFiConfig) -> Self {
        let n = cfg.smoothed_rows();
        StreamState {
            cov: PackedHermitian::zeros(n),
            tracker: SubspaceTracker::new(),
            last_peaks: Vec::new(),
            packets_since_anchor: 0,
            initialized: false,
            force_anchor: false,
        }
    }

    /// Drops all accumulated state: the next packet rebuilds the
    /// covariance from scratch and anchors on the exact solver, exactly
    /// like the first packet of a fresh stream.
    pub fn reset(&mut self) {
        self.tracker.reset();
        self.last_peaks.clear();
        self.packets_since_anchor = 0;
        self.initialized = false;
        self.force_anchor = false;
    }
}

/// Where a staged packet's covariance lands: a fresh product in the
/// scratch's covariance buffer, decomposed right away, or a stream's
/// rolling covariance plus the dense buffer the stream's packet reads it
/// from.
enum Covariance<'a> {
    Fresh(&'a mut MusicScratch),
    Stream {
        state: &'a mut StreamState,
        unpacked: &'a mut CMat,
    },
}

/// Drops a packet whose sweep found no peaks, and counts the outcome.
fn check_paths(paths: &[PathEstimate]) -> Result<()> {
    if paths.is_empty() {
        spotfi_obs::counter("pipeline.packets_no_paths", 1);
        return Err(SpotFiError::NoPaths);
    }
    spotfi_obs::counter("pipeline.packets_analyzed", 1);
    Ok(())
}

/// The SpotFi estimator.
#[derive(Clone, Debug)]
pub struct SpotFi {
    config: SpotFiConfig,
    cache: SteeringCache,
}

impl Default for SpotFi {
    fn default() -> Self {
        SpotFi::new(SpotFiConfig::default())
    }
}

impl SpotFi {
    /// Creates an estimator with the given configuration, precomputing the
    /// MUSIC steering table for it.
    pub fn new(config: SpotFiConfig) -> Self {
        let cache = SteeringCache::new(&config);
        SpotFi { config, cache }
    }

    /// The active configuration.
    pub fn config(&self) -> &SpotFiConfig {
        &self.config
    }

    /// The precomputed steering table (shared by all workers).
    pub fn steering_cache(&self) -> &SteeringCache {
        &self.cache
    }

    /// Estimates the multipath parameters of a single packet: sanitize →
    /// smooth → MUSIC (Algorithm 2 steps 3–7).
    pub fn analyze_packet(&self, packet: &CsiPacket) -> Result<Vec<PathEstimate>> {
        self.analyze_packet_exact(packet, &mut PacketScratch::new(&self.config))
    }

    /// The batch path's per-packet engine: stage and eigendecompose a
    /// fresh covariance, then run the exact tail.
    fn analyze_packet_exact(
        &self,
        packet: &CsiPacket,
        scratch: &mut PacketScratch,
    ) -> Result<Vec<PathEstimate>> {
        let PacketScratch {
            smoothed, music, ..
        } = scratch;
        self.stage(packet, smoothed, Covariance::Fresh(music))?;
        self.exact_tail(music).map(|swept| swept.paths)
    }

    /// Stage: sanitize → smooth → covariance, returning whether the packet
    /// anchors on the exact solver. A fresh covariance always anchors, so
    /// it is eigendecomposed here, under one `stage.eigen` span with its
    /// product; a stream's is a rolling sum, kept packed and left unpacked
    /// in `unpacked` for the packet's tail.
    fn stage(&self, packet: &CsiPacket, smoothed: &mut CMat, into: Covariance) -> Result<bool> {
        let sanitized = sanitize_csi(&packet.csi, self.config.ofdm.subcarrier_spacing_hz)?;
        smoothed_csi_into(&sanitized.csi, &self.config, smoothed)?;
        let (state, unpacked) = match into {
            Covariance::Fresh(music) => {
                let _span = spotfi_obs::span("stage.eigen");
                covariance_into(smoothed, &mut music.cov)?;
                music.eigen_of_cov(self.config.music.max_paths);
                return Ok(true);
            }
            Covariance::Stream { state, unpacked } => (state, unpacked),
        };
        let stream_cfg = self.config.stream;
        let first = !state.initialized;
        {
            let _track = spotfi_obs::span("stage.track");
            if first || stream_cfg.forgetting == 0.0 {
                // Fresh product: with λ = 0 this keeps the streaming
                // covariance bitwise-equal to the batch path's, which the
                // exactness contract (DESIGN.md §9) relies on.
                covariance_into(smoothed, unpacked)?;
                state.cov.assign_lower(unpacked);
            } else {
                state.cov.decay_accumulate(stream_cfg.forgetting, smoothed);
                if !state.cov.is_finite() {
                    // Poisoned accumulator: drop everything so the next
                    // packet rebuilds from scratch.
                    state.reset();
                    return Err(SpotFiError::DegenerateCsi);
                }
                state.cov.unpack_into(unpacked);
            }
            state.initialized = true;
        }
        let period = stream_cfg.reanchor_period.max(1);
        Ok(first
            || state.force_anchor
            || state.packets_since_anchor + 1 >= period
            || state.last_peaks.is_empty()
            || !state.tracker.is_seeded())
    }

    /// Exact tail: prepare the sweep from the eigendecomposition sitting in
    /// `music`'s eigensolver workspace → coarse-to-fine sweep → empty-peaks
    /// check.
    fn exact_tail(&self, music: &mut MusicScratch) -> Result<CoarseFinePaths> {
        let eig = &music.eig;
        let signal_dimension =
            prepare_from_basis(&self.config, &mut music.sweep, eig.values(), eig.vectors())?;
        let swept = coarse_to_fine_prepared(&self.config, &self.cache, music, signal_dimension)?;
        check_paths(&swept.paths)?;
        Ok(swept)
    }

    /// Warm tail: one [`SubspaceTracker::refine`] step against the rolling
    /// covariance (unpacked in `music`'s covariance buffer), then the
    /// warm-started sweep from the previous packet's peak basins. Returns
    /// `None` — the caller falls back to the exact path — when the
    /// tracker's drift exceeds
    /// [`crate::config::StreamConfig::drift_threshold`] (or is NaN).
    fn warm_tail(
        &self,
        state: &mut StreamState,
        music: &mut MusicScratch,
        ritz: &mut RitzWorkspace,
    ) -> Option<Result<CoarseFinePaths>> {
        let prepared = {
            let _track = spotfi_obs::span("stage.track");
            let drift = state.tracker.refine(&music.cov, ritz);
            spotfi_obs::value("stream.drift", drift);
            // NaN checked explicitly so a poisoned drift metric also falls
            // back to the exact path.
            if drift.is_nan() || drift > self.config.stream.drift_threshold {
                return None;
            }
            spotfi_obs::counter("stream.warmstart_hit", 1);
            prepare_from_basis(
                &self.config,
                &mut music.sweep,
                ritz.values(),
                ritz.vectors(),
            )
        };
        Some(prepared.and_then(|signal_dimension| {
            let swept = music_paths_warm_prepared(
                &self.config,
                &self.cache,
                music,
                signal_dimension,
                &state.last_peaks,
            )?;
            check_paths(&swept.paths)?;
            Ok(swept)
        }))
    }

    /// Re-primes the tracker from the exact decomposition in `music` so the
    /// following packets refine a fresh basis. With `tracker_rank_margin`
    /// set, the tracked rank is capped at the anchor packet's signal
    /// dimension (Algorithm 2's noise-threshold rule) plus the guard band —
    /// the warm path's projector only ever consumes the signal vectors, and
    /// refine's cost grows as k³ in the Ritz eigensolve, so serving profiles
    /// avoid carrying all `max_paths` vectors through every packet.
    /// Subspace growth past the guard band shows up as drift and falls back
    /// to the exact path. A signal-free covariance seeds all `k` vectors;
    /// its exact tail fails right after, which forces the next anchor.
    fn seed_tracker(&self, tracker: &mut SubspaceTracker, music: &MusicScratch) {
        let ws = &music.eig;
        let k = ws.vectors().cols();
        let rank = match self.config.stream.tracker_rank_margin {
            Some(margin) => {
                signal_dimension(&self.config.music, ws.values()).map_or(k, |d| (d + margin).min(k))
            }
            None => k,
        };
        tracker.seed(ws.vectors(), rank);
    }

    /// Amortized streaming analysis of one packet against persistent
    /// per-stream state — the steady-state hot path for live captures.
    /// `scratch` carries no information across packets (it is fully
    /// overwritten), so one per-worker [`PacketScratch`] can serve every
    /// [`StreamState`] on a shard.
    ///
    /// Instead of re-deriving everything per packet like
    /// [`analyze_packet`](Self::analyze_packet), this path:
    ///
    /// 1. updates a rolling covariance `R ← λ·R + X·Xᴴ` in place, stored
    ///    packed ([`crate::config::StreamConfig::forgetting`]),
    /// 2. *tracks* the signal subspace — one block power step plus a
    ///    `k×k` Rayleigh–Ritz solve refining the previous eigenbasis
    ///    ([`spotfi_math::SubspaceTracker`]) — instead of running the
    ///    `O(n³)` tridiagonalization, and
    /// 3. warm-starts the sweep from the previous packet's fine-grid peak
    ///    basins, skipping the coarse detection level entirely.
    ///
    /// The exact eigensolver and the full detection sweep run only on
    /// *anchor* packets: the first packet of a stream, every
    /// [`crate::config::StreamConfig::reanchor_period`]-th packet, any
    /// packet where the tracker's residual drift exceeds
    /// [`crate::config::StreamConfig::drift_threshold`], and the packet
    /// after any failure. With `forgetting = 0` and `reanchor_period = 1`
    /// every packet anchors on a fresh covariance and the results are
    /// bit-identical to [`analyze_packet`](Self::analyze_packet); the
    /// default [`crate::config::StreamConfig`] instead trades that for a
    /// multiple-× steady-state speedup with tolerance-level accuracy
    /// (pinned by the golden streaming trace).
    ///
    /// Emits `stream.*` diagnostics:
    /// `stream.packets = stream.warmstart_hit + stream.warmstart_miss`
    /// and `stream.warmstart_miss = stream.anchor +
    /// stream.tracker_fallback` (identities checked by
    /// `spotfi_obs::validate_diagnostics`).
    pub fn analyze_packet_streaming_with(
        &self,
        packet: &CsiPacket,
        state: &mut StreamState,
        scratch: &mut PacketScratch,
    ) -> Result<Vec<PathEstimate>> {
        let _packet_span = spotfi_obs::span("stream.packet");
        let PacketScratch {
            smoothed,
            music,
            ritz,
        } = scratch;
        let into = Covariance::Stream {
            state: &mut *state,
            unpacked: &mut music.cov,
        };
        let anchor = self.stage(packet, smoothed, into)?;
        let warm = if anchor {
            None
        } else {
            self.warm_tail(state, music, ritz)
        };
        spotfi_obs::counter("stream.packets", 1);
        let exact = warm.is_none();
        let swept = warm.unwrap_or_else(|| {
            spotfi_obs::counter("stream.warmstart_miss", 1);
            spotfi_obs::counter(
                if anchor {
                    "stream.anchor"
                } else {
                    "stream.tracker_fallback"
                },
                1,
            );
            {
                let _span = spotfi_obs::span("stage.eigen");
                music.eigen_of_cov(self.config.music.max_paths);
            }
            self.seed_tracker(&mut state.tracker, music);
            self.exact_tail(music)
        });
        match swept {
            Ok(swept) => {
                state.packets_since_anchor = if exact {
                    0
                } else {
                    state.packets_since_anchor + 1
                };
                state.force_anchor = false;
                state.last_peaks = swept.grid_peaks;
                Ok(swept.paths)
            }
            Err(e) => {
                state.force_anchor = true;
                Err(e)
            }
        }
    }

    /// Per-AP analysis over the amortized streaming path
    /// ([`analyze_packet_streaming_with`](Self::analyze_packet_streaming_with))
    /// with a fresh [`StreamState`]: packets are replayed *serially in
    /// capture order* (the rolling covariance is order-dependent), then
    /// clustered and scored exactly like [`analyze_ap`](Self::analyze_ap).
    pub fn analyze_ap_streaming(&self, ap: &ApPackets) -> Result<ApAnalysis> {
        self.analyze_ap_streaming_with(ap, &mut StreamState::new(&self.config))
    }

    /// [`analyze_ap_streaming`](Self::analyze_ap_streaming) against
    /// caller-owned stream state, for callers that keep a stream warm
    /// across calls (live capture loops, steady-state benchmarks). The
    /// stream is NOT reset: a warmed stream keeps amortizing across the
    /// call boundary.
    pub fn analyze_ap_streaming_with(
        &self,
        ap: &ApPackets,
        stream: &mut StreamState,
    ) -> Result<ApAnalysis> {
        if ap.packets.is_empty() {
            return Err(SpotFiError::NoPackets);
        }
        let mut scratch = PacketScratch::new(&self.config);
        let per_packet: Vec<Result<Vec<PathEstimate>>> = ap
            .packets
            .iter()
            .map(|p| self.analyze_packet_streaming_with(p, stream, &mut scratch))
            .collect();
        self.assemble_ap(ap, per_packet)
    }

    /// Runs a flattened packet work-list, one packet per work item,
    /// returning per-unit results in input order (so results are
    /// bit-identical at every budget).
    fn analyze_units(&self, units: &[&CsiPacket]) -> Vec<Result<Vec<PathEstimate>>> {
        parallel_map_with(
            units.len(),
            self.config.runtime.effective_threads(),
            || PacketScratch::new(&self.config),
            |scratch, i| self.analyze_packet_exact(units[i], scratch),
        )
    }

    /// Full per-AP analysis (Algorithm 2 steps 2–10): per-packet estimation,
    /// clustering across packets, direct-path selection. Packets are
    /// analyzed in parallel within the configured thread budget.
    pub fn analyze_ap(&self, ap: &ApPackets) -> Result<ApAnalysis> {
        if ap.packets.is_empty() {
            return Err(SpotFiError::NoPackets);
        }
        let units: Vec<&CsiPacket> = ap.packets.iter().collect();
        let per_packet = self.analyze_units(&units);
        self.assemble_ap(ap, per_packet)
    }

    /// The serial tail of per-AP analysis: collect per-packet estimates
    /// (in packet order), cluster, select the direct path, average RSSI.
    fn assemble_ap(
        &self,
        ap: &ApPackets,
        per_packet: Vec<Result<Vec<PathEstimate>>>,
    ) -> Result<ApAnalysis> {
        if ap.packets.is_empty() {
            return Err(SpotFiError::NoPackets);
        }
        let mut estimates = Vec::new();
        let mut dropped = 0usize;
        for result in per_packet {
            match result {
                Ok(mut peaks) => estimates.append(&mut peaks),
                Err(_) => dropped += 1,
            }
        }
        let (clustering, direct) = self.cluster_and_select(&estimates);
        if spotfi_obs::enabled() {
            spotfi_obs::counter("pipeline.aps_assembled", 1);
            spotfi_obs::counter("pipeline.packets_dropped", dropped as u64);
        }
        let rssi: Vec<f64> = ap.packets.iter().map(|p| p.rssi_dbm).collect();
        Ok(ApAnalysis {
            array: ap.array,
            path_estimates: estimates,
            clustering,
            direct,
            mean_rssi_dbm: mean(&rssi),
            dropped_packets: dropped,
        })
    }

    /// One AP's direct-path selection (Algorithm 2 steps 8–10): cluster the
    /// path estimates pooled across its packets, then score the clusters
    /// with Eq. 8. The batch assembly and the fleet's fusion stage share it.
    pub(crate) fn cluster_and_select(
        &self,
        estimates: &[PathEstimate],
    ) -> (Clustering, Option<DirectPath>) {
        let clustering = cluster_estimates(
            estimates,
            self.config.cluster.num_clusters,
            self.config.cluster.max_iterations,
        );
        let direct = select_direct_path(&clustering, &self.config.likelihood);
        (clustering, direct)
    }

    /// Eq. 9 fusion of per-AP direct paths, constrained to `bounds` when
    /// given. The batch entry points and the fleet's fusion stage share it.
    pub(crate) fn fuse(
        &self,
        measurements: &[ApMeasurement],
        bounds: Option<SearchBounds>,
    ) -> Result<LocationEstimate> {
        match bounds {
            Some(b) => localize_in_bounds(measurements, b, &self.config.localize),
            None => localize(measurements, &self.config.localize),
        }
    }

    /// Localizes a target from the packets heard at every AP (Algorithm 2,
    /// complete). APs with no usable direct path are skipped; at least two
    /// must survive.
    pub fn localize(&self, aps: &[ApPackets]) -> Result<LocationEstimate> {
        self.fuse(&self.measure_all(aps)?, None)
    }

    /// Like [`localize`](Self::localize) but constrained to explicit bounds
    /// (e.g. the building outline).
    pub fn localize_in_bounds(
        &self,
        aps: &[ApPackets],
        bounds: SearchBounds,
    ) -> Result<LocationEstimate> {
        self.fuse(&self.measure_all(aps)?, Some(bounds))
    }

    /// Every AP's fusion input: the direct paths of the APs that have one.
    fn measure_all(&self, aps: &[ApPackets]) -> Result<Vec<ApMeasurement>> {
        let analyses = self.analyze_all(aps)?;
        Ok(analyses
            .iter()
            .filter_map(ApAnalysis::to_measurement)
            .collect())
    }

    /// Runs per-AP analysis on every AP, keeping successes.
    ///
    /// The (AP, packet) fan-out is flattened into one work list: per-packet
    /// analysis dominates the cost, so the widest pool of independent units
    /// feeds the *outermost* parallel map instead of nesting AP-level
    /// workers over packet-level workers. Results regroup by AP in packet
    /// order afterwards, so the output is identical at every thread count.
    pub fn analyze_all(&self, aps: &[ApPackets]) -> Result<Vec<ApAnalysis>> {
        let units: Vec<&CsiPacket> = aps.iter().flat_map(|ap| ap.packets.iter()).collect();
        let per_packet = self.analyze_units(&units);
        let mut results = per_packet.into_iter();
        let analyses: Vec<ApAnalysis> = aps
            .iter()
            .filter_map(|ap| {
                let chunk: Vec<_> = results.by_ref().take(ap.packets.len()).collect();
                self.assemble_ap(ap, chunk).ok()
            })
            .collect();
        if analyses.is_empty() {
            return Err(SpotFiError::InsufficientAps { usable: 0 });
        }
        Ok(analyses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use spotfi_channel::constants::DEFAULT_CARRIER_HZ;
    use spotfi_channel::Rng;
    use spotfi_channel::{Floorplan, OfdmConfig, PacketTrace, Point, TraceConfig};
    use spotfi_math::c64;

    fn ap_array(x: f64, y: f64, toward: Point) -> AntennaArray {
        let angle = (toward - Point::new(x, y)).angle();
        AntennaArray::intel5300(Point::new(x, y), angle, DEFAULT_CARRIER_HZ)
    }

    fn spotfi() -> SpotFi {
        SpotFi::new(SpotFiConfig::fast_test())
    }

    fn gen_packets(
        plan: &Floorplan,
        target: Point,
        array: AntennaArray,
        cfg: &TraceConfig,
        n: usize,
        seed: u64,
    ) -> ApPackets {
        let mut rng = Rng::seed_from_u64(seed);
        let trace = PacketTrace::generate(plan, target, &array, cfg, n, &mut rng).unwrap();
        ApPackets {
            array,
            packets: trace.packets,
        }
    }

    #[test]
    fn free_space_single_ap_aoa_is_accurate() {
        let plan = Floorplan::empty();
        let center = Point::new(0.0, 5.0);
        let array = ap_array(0.0, 0.0, center);
        let target = Point::new(-3.0, 4.0);
        let ap = gen_packets(&plan, target, array, &TraceConfig::commodity(), 10, 42);
        let analysis = spotfi().analyze_ap(&ap).unwrap();
        let d = analysis.direct.expect("direct path");
        let truth = array.aoa_from_deg(target);
        assert!(
            (d.aoa_deg - truth).abs() < 4.0,
            "estimated {} vs truth {}",
            d.aoa_deg,
            truth
        );
        assert_eq!(analysis.dropped_packets, 0);
    }

    #[test]
    fn free_space_localization_end_to_end() {
        let plan = Floorplan::empty();
        let target = Point::new(4.0, 6.0);
        let center = Point::new(5.0, 5.0);
        let cfg = TraceConfig::commodity();
        let aps: Vec<ApPackets> = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                gen_packets(
                    &plan,
                    target,
                    ap_array(x, y, center),
                    &cfg,
                    10,
                    100 + i as u64,
                )
            })
            .collect();
        let est = spotfi().localize(&aps).unwrap();
        let err = est.position.distance(target);
        assert!(
            err < 1.0,
            "localization error {} m at {:?}",
            err,
            est.position
        );
    }

    #[test]
    fn analyze_packet_rejects_garbage() {
        let s = spotfi();
        let zero = CsiPacket {
            csi: spotfi_math::CMat::zeros(3, 30),
            rssi_dbm: -50.0,
            timestamp_s: 0.0,
            injected_sto_s: 0.0,
        };
        assert!(s.analyze_packet(&zero).is_err());
    }

    #[test]
    fn empty_packets_error() {
        let array = ap_array(0.0, 0.0, Point::new(0.0, 5.0));
        let ap = ApPackets {
            array,
            packets: vec![],
        };
        assert_eq!(
            spotfi().analyze_ap(&ap).unwrap_err(),
            SpotFiError::NoPackets
        );
        assert!(matches!(
            spotfi().localize(&[]),
            Err(SpotFiError::InsufficientAps { .. })
        ));
    }

    #[test]
    fn estimates_accumulate_across_packets() {
        let plan = Floorplan::empty();
        let array = ap_array(0.0, 0.0, Point::new(0.0, 5.0));
        let ap = gen_packets(
            &plan,
            Point::new(1.0, 6.0),
            array,
            &TraceConfig::commodity(),
            8,
            7,
        );
        let analysis = spotfi().analyze_ap(&ap).unwrap();
        // Free space: ≥ 1 estimate per packet.
        assert!(analysis.path_estimates.len() >= 8);
        let _ = OfdmConfig::intel5300_40mhz();
    }

    #[test]
    fn failed_packets_do_not_perturb_neighbours() {
        // Packets run over the flattened (AP, packet) list on per-worker
        // scratch, so a packet that fails staging must leave nothing behind
        // for the next one. Put a NaN packet at each of units 0–3 and an
        // all-zero packet four units later (units 4–7, straddling the
        // AP0/AP1 boundary): every survivor must still match its own
        // one-packet analysis bit for bit, and the drop counts must be exact.
        let plan = Floorplan::empty();
        let center = Point::new(5.0, 5.0);
        let target = Point::new(4.0, 6.0);
        let clean = [
            gen_packets(
                &plan,
                target,
                ap_array(0.0, 0.0, center),
                &TraceConfig::commodity(),
                6,
                61,
            ),
            gen_packets(
                &plan,
                target,
                ap_array(10.0, 0.0, center),
                &TraceConfig::commodity(),
                7,
                62,
            ),
        ];
        let n0 = clean[0].packets.len();
        for pos in 0..4 {
            let mut aps = clean.clone();
            for (unit, value) in [(pos, f64::NAN), (4 + pos, 0.0)] {
                let (ap, idx) = if unit < n0 { (0, unit) } else { (1, unit - n0) };
                aps[ap].packets[idx].csi = CMat::from_fn(3, 30, |_, _| c64::new(value, 0.0));
            }
            for threads in [1usize, 2] {
                let mut cfg = SpotFiConfig::fast_test();
                cfg.runtime = RuntimeConfig::with_threads(threads);
                let s = SpotFi::new(cfg);
                let analyses = s.analyze_all(&aps).unwrap();
                assert_eq!(analyses.len(), aps.len());
                for (ap, analysis) in aps.iter().zip(&analyses) {
                    let alone: Vec<_> = ap.packets.iter().map(|p| s.analyze_packet(p)).collect();
                    let dropped = alone.iter().filter(|r| r.is_err()).count();
                    let expected: Vec<PathEstimate> =
                        alone.into_iter().flatten().flatten().collect();
                    let ctx = format!("unit {pos}, threads {threads}");
                    assert_eq!(analysis.dropped_packets, dropped, "{ctx}");
                    assert_eq!(analysis.path_estimates.len(), expected.len(), "{ctx}");
                    for (a, b) in analysis.path_estimates.iter().zip(&expected) {
                        assert_eq!(a.aoa_deg.to_bits(), b.aoa_deg.to_bits(), "{ctx}");
                        assert_eq!(a.tof_ns.to_bits(), b.tof_ns.to_bits(), "{ctx}");
                        assert_eq!(a.power.to_bits(), b.power.to_bits(), "{ctx}");
                    }
                }
                let dropped: usize = analyses.iter().map(|a| a.dropped_packets).sum();
                assert_eq!(dropped, 2, "unit {pos}, threads {threads}");
            }
        }
    }

    #[test]
    fn streaming_exact_mode_is_bit_identical_to_batch() {
        let plan = Floorplan::empty();
        let array = ap_array(0.0, 0.0, Point::new(0.0, 5.0));
        let ap = gen_packets(
            &plan,
            Point::new(-2.0, 5.0),
            array,
            &TraceConfig::commodity(),
            6,
            11,
        );
        let mut cfg = SpotFiConfig::fast_test();
        // The exactness contract: no forgetting + anchor every packet
        // reduces streaming to the batch per-packet path.
        cfg.stream.forgetting = 0.0;
        cfg.stream.reanchor_period = 1;
        let s = SpotFi::new(cfg);
        let batch = s.analyze_ap(&ap).unwrap();
        let streamed = s.analyze_ap_streaming(&ap).unwrap();
        assert_eq!(batch.path_estimates.len(), streamed.path_estimates.len());
        for (a, b) in batch.path_estimates.iter().zip(&streamed.path_estimates) {
            assert_eq!(a.aoa_deg, b.aoa_deg);
            assert_eq!(a.tof_ns, b.tof_ns);
            assert_eq!(a.power, b.power);
        }
        let (bd, sd) = (batch.direct.unwrap(), streamed.direct.unwrap());
        assert_eq!(bd.aoa_deg, sd.aoa_deg);
        assert_eq!(bd.likelihood, sd.likelihood);
        assert_eq!(batch.dropped_packets, streamed.dropped_packets);
    }

    #[test]
    fn streaming_default_config_tracks_batch_direct_path() {
        let plan = Floorplan::empty();
        let array = ap_array(0.0, 0.0, Point::new(0.0, 5.0));
        let target = Point::new(-2.0, 5.0);
        let ap = gen_packets(&plan, target, array, &TraceConfig::commodity(), 10, 11);
        let s = spotfi();
        let batch = s.analyze_ap(&ap).unwrap();
        let streamed = s.analyze_ap_streaming(&ap).unwrap();
        // Amortized tracking is tolerance-accurate, not bit-exact: the
        // direct path must stay within a grid cell of the batch answer.
        let (bd, sd) = (batch.direct.unwrap(), streamed.direct.unwrap());
        assert!(
            (bd.aoa_deg - sd.aoa_deg).abs() < 3.0,
            "streamed direct AoA {} vs batch {}",
            sd.aoa_deg,
            bd.aoa_deg
        );
        assert_eq!(streamed.dropped_packets, 0);
        // A warmed stream keeps amortizing across call boundaries.
        let mut stream = StreamState::new(s.config());
        let first = s.analyze_ap_streaming_with(&ap, &mut stream).unwrap();
        let second = s.analyze_ap_streaming_with(&ap, &mut stream).unwrap();
        assert_eq!(first.direct.unwrap().aoa_deg, sd.aoa_deg);
        assert!(second.direct.is_some());
        assert_eq!(second.dropped_packets, 0);
    }

    #[test]
    fn parallel_pipeline_is_bit_identical_to_serial() {
        let plan = Floorplan::empty();
        let target = Point::new(4.0, 6.0);
        let center = Point::new(5.0, 5.0);
        let trace_cfg = TraceConfig::commodity();
        let aps: Vec<ApPackets> = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                gen_packets(
                    &plan,
                    target,
                    ap_array(x, y, center),
                    &trace_cfg,
                    6,
                    50 + i as u64,
                )
            })
            .collect();

        let mut serial_cfg = SpotFiConfig::fast_test();
        serial_cfg.runtime = RuntimeConfig::serial();
        let serial = SpotFi::new(serial_cfg.clone());
        let reference = serial.localize(&aps).unwrap();
        let reference_ap = serial.analyze_ap(&aps[0]).unwrap();

        for threads in [2usize, 5, 8] {
            let mut cfg = SpotFiConfig::fast_test();
            cfg.runtime = RuntimeConfig::with_threads(threads);
            let par = SpotFi::new(cfg);
            // Location must match the serial path bit for bit.
            let est = par.localize(&aps).unwrap();
            assert_eq!(est.position.x, reference.position.x, "threads={}", threads);
            assert_eq!(est.position.y, reference.position.y, "threads={}", threads);
            assert_eq!(est.cost, reference.cost, "threads={}", threads);
            // So must every per-packet path estimate (order included).
            let ap = par.analyze_ap(&aps[0]).unwrap();
            assert_eq!(
                ap.path_estimates.len(),
                reference_ap.path_estimates.len(),
                "threads={}",
                threads
            );
            for (a, b) in ap.path_estimates.iter().zip(&reference_ap.path_estimates) {
                assert_eq!(a.aoa_deg, b.aoa_deg);
                assert_eq!(a.tof_ns, b.tof_ns);
                assert_eq!(a.power, b.power);
            }
            assert_eq!(ap.dropped_packets, reference_ap.dropped_packets);
        }
    }
}
