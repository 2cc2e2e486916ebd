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
//! Every packet, batch or streamed, runs one engine,
//! [`SpotFi::analyze_packet_streaming_with`], against a [`StreamState`]:
//! *stage* (sanitize → smoothed covariance, plus the anchor decision),
//! then the *exact tail* (eigenvalues → noise-threshold signal dimension →
//! only the eigenvectors the stream reads → coarse-to-fine sweep) or the
//! *warm tail* (tracked subspace → warm-started sweep). `music.rs` owns
//! the noise-threshold rule and the τ-forms memo, and both tails end in its
//! one search.
//!
//! A stream amortizes across the heavily correlated packets of one
//! (target, AP) pair: a rolling exponentially-forgotten covariance, an
//! online-tracked signal subspace (block power step + Rayleigh–Ritz)
//! replacing the exact eigensolve, and a warm-started sweep seeded from
//! the previous packet's peak basins. The exact solver and full detection
//! sweep run only on *anchor* packets — the first, every
//! [`crate::config::StreamConfig::reanchor_period`]-th, and whenever
//! subspace drift trips [`crate::config::StreamConfig::drift_threshold`].
//! The batch entry points ([`SpotFi::analyze_packet`],
//! [`SpotFi::analyze_ap`], [`SpotFi::analyze_all`] and the localizers) run
//! each AP's packets in capture order as a stream under the *exact
//! policy* — no forgetting and an anchor on every packet — so each packet
//! is staged on its own covariance, eigendecomposed and swept exactly.
//! See DESIGN.md §9 for the amortization policy and exactness contract.
//!
//! Construction precomputes a [`SteeringCache`] (the MUSIC grid's steering
//! factors) once per configuration. [`SpotFi::analyze_all`] fans its APs
//! out on the scoped-thread engine in [`crate::runtime`], one AP's stream
//! per work item, with the budget capped at the host's
//! [`crate::runtime::hardware_parallelism`]. Every AP's computation is
//! pure and results come back in AP order, so they are bit-identical for
//! every thread count; `threads = 1` runs the plain serial path. Each
//! worker owns one [`StreamState`] and one [`PacketScratch`], so
//! per-packet buffers (eigensolver workspace, τ-index) are allocated once
//! per worker, not once per packet. Neither the sanitized CSI nor the
//! smoothed matrix `X` is stored: Algorithm 1's ramp is fitted on the raw
//! CSI, and `X`'s columns are gathered from it one at a time, each entry
//! de-rotated as it is read, and accumulated into `X·Xᴴ` directly in the
//! eigensolver's matrix, which the solve then decomposes in place. An
//! exact sweep then runs in the storage that solve consumed.

use spotfi_channel::{AntennaArray, CsiPacket};
use spotfi_math::stats::mean_of;
use spotfi_math::{PackedHermitian, PackedHermitianF64, StoredBasis, SubspaceTracker};

use crate::cluster::{cluster_estimates, Clustering};
use crate::config::{SpotFiConfig, StreamConfig};
use crate::error::{Result, SpotFiError};
use crate::likelihood::{select_direct_path, DirectPath};
use crate::localize::{
    localize, localize_in_bounds, ApMeasurement, LocationEstimate, SearchBounds,
};
use crate::music::{covariance_into, sweep_basis, CoarseFinePaths, MusicScratch};
use crate::peaks::PathEstimate;
use crate::runtime::parallel_map_with;
use crate::sanitize::ramp_slope;
use crate::smoothing::SmoothedColumns;
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

/// Reusable per-worker buffers for one packet's analysis chain: the MUSIC
/// eigensolver and sweep scratch, whose eigensolver matrix (a packed lower
/// triangle, `n(n+1)/2` complex entries) is the one buffer a packet's
/// covariance is built (or a stream's rolling covariance widened) into,
/// and the worker's one `f64`
/// [`SubspaceTracker`], which a packet's stream basis is widened into,
/// refined and seeded in, along with every per-step buffer of the refine.
/// Fully overwritten on every packet, so one scratch serves a worker — and
/// every stream on it — for the lifetime of a run. The tracker is sized by
/// the first packet that tracks, so a scratch that only ever runs the
/// exact policy never allocates it.
#[derive(Clone, Debug)]
pub struct PacketScratch {
    music: MusicScratch,
    tracker: SubspaceTracker,
}

impl PacketScratch {
    /// Allocates buffers sized for `cfg`.
    pub fn new(cfg: &SpotFiConfig) -> Self {
        PacketScratch {
            music: MusicScratch::new(cfg),
            tracker: SubspaceTracker::new(),
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
/// [`PackedHermitian`] lower triangle of `f32` pairs (`n(n+1)/2` entries,
/// 3.7 KB at the default n = 30) and the tracked `n×k` basis as a
/// [`StoredBasis`] of `f32` pairs (≤ 1.9 KB at `max_paths` = 8), plus the
/// previous peak cells. Only the storage is single precision. Each packet
/// widens the covariance entry by entry into the worker's eigensolver
/// matrix, the same packed triangle in `f64`, updates it there and rounds
/// it back, so the packet itself reads it unrounded. A warm packet widens
/// the basis into the worker's one `f64` tracker (in its
/// [`PacketScratch`]), re-orthonormalizes it there (a basis that breaks
/// down anchors the packet), refines it and stores the result rounded; an
/// anchor stores its seed rounded. The covariance is
/// stored only when a later packet decays it (`forgetting > 0`) and the
/// basis only when a later packet can refine it (`reanchor_period > 1`),
/// so the exact streams the batch entry points run store neither.
///
/// One `StreamState` belongs to one packet stream; feeding it packets from
/// different APs (or different targets) mixes unrelated covariances.
/// State survives per-packet errors: a sanitize/smooth failure leaves the
/// covariance and basis untouched, a packet that fails after staging (an
/// empty sweep, a signal-free covariance) clears the previous peak cells
/// so the next packet anchors on the exact solver, and a covariance that
/// cannot be stored (a NaN or an infinity, or an entry beyond `f32`'s
/// range) drops the stream's state so the next packet starts afresh.
#[derive(Clone, Debug)]
pub struct StreamState {
    cov: PackedHermitian,
    basis: StoredBasis,
    /// The last successful packet's fine-grid peak cells; empty before the
    /// first one and after a failed packet, which anchors the next packet.
    last_peaks: Vec<(usize, usize)>,
    packets_since_anchor: usize,
    initialized: bool,
    /// Runs the exact policy (see `SpotFi::policy`) instead of the
    /// configured [`StreamConfig`].
    exact: bool,
}

impl StreamState {
    /// Allocates stream state sized for `cfg`.
    pub fn new(cfg: &SpotFiConfig) -> Self {
        Self::with_policy(cfg.smoothed_rows(), false)
    }

    /// A stream under the exact policy, which never stores a covariance.
    fn exact() -> Self {
        Self::with_policy(0, true)
    }

    fn with_policy(n: usize, exact: bool) -> Self {
        StreamState {
            cov: PackedHermitian::zeros(n),
            basis: StoredBasis::default(),
            last_peaks: Vec::new(),
            packets_since_anchor: 0,
            initialized: false,
            exact,
        }
    }

    /// Drops all accumulated state: the next packet rebuilds the
    /// covariance from scratch and anchors on the exact solver, exactly
    /// like the first packet of a fresh stream.
    pub fn reset(&mut self) {
        self.basis.clear();
        self.last_peaks.clear();
        self.packets_since_anchor = 0;
        self.initialized = false;
    }
}

/// Drops a packet whose sweep found no peaks, and counts the outcome.
fn check_paths(swept: CoarseFinePaths) -> Result<CoarseFinePaths> {
    if swept.paths.is_empty() {
        spotfi_obs::counter("pipeline.packets_no_paths", 1);
        return Err(SpotFiError::NoPaths);
    }
    spotfi_obs::counter("pipeline.packets_analyzed", 1);
    Ok(swept)
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
        let mut scratch = PacketScratch::new(&self.config);
        self.analyze_packet_streaming_with(packet, &mut StreamState::exact(), &mut scratch)
    }

    /// The stream policy `state` runs: the configured [`StreamConfig`], or
    /// for the batch entry points' exact streams no forgetting and an
    /// anchor on every packet (a policy that never reads the drift
    /// threshold or the tracker rank margin).
    fn policy(&self, state: &StreamState) -> StreamConfig {
        if state.exact {
            StreamConfig {
                forgetting: 0.0,
                reanchor_period: 1,
                ..self.config.stream
            }
        } else {
            self.config.stream
        }
    }

    /// Stage: sanitize → smoothed covariance into `solver`, returning
    /// whether the stream's bookkeeping anchors the packet on the exact
    /// solver (a packet it lets through still anchors if its stored basis
    /// cannot be loaded). The smoothed
    /// matrix's columns feed the covariance one at a time: a fresh product,
    /// or the stream's rolling sum, decayed and accumulated in `f64` in
    /// `solver` from the stored history, then rounded back into the stream
    /// for the next packet. The packet's tail reads `solver` unrounded.
    fn stage(
        &self,
        packet: &CsiPacket,
        state: &mut StreamState,
        solver: &mut PackedHermitianF64,
    ) -> Result<bool> {
        let slope = ramp_slope(&packet.csi, self.config.ofdm.subcarrier_spacing_hz)?;
        let x = SmoothedColumns::derotated(&packet.csi, slope, &self.config)?;
        let policy = self.policy(state);
        let first = !state.initialized;
        {
            let _track = spotfi_obs::span("stage.track");
            if first || policy.forgetting == 0.0 {
                // Fresh product: with λ = 0 this is bitwise the covariance
                // of the packet alone, which the exactness contract
                // (DESIGN.md §9) relies on.
                covariance_into(&x, solver)?;
            } else {
                state.cov.widen_into(solver);
                solver.decay_accumulate(policy.forgetting, |add| x.feed(add));
            }
            // Only a later decay step reads the stored copy. A NaN, an
            // infinity or an entry past f32's range poisons it: drop
            // everything so the next packet rebuilds from scratch.
            if policy.forgetting != 0.0 && !state.cov.store_rounded(solver) {
                state.reset();
                return Err(SpotFiError::DegenerateCsi);
            }
            state.initialized = true;
        }
        let period = policy.reanchor_period.max(1);
        Ok(first || state.packets_since_anchor + 1 >= period || state.last_peaks.is_empty())
    }

    /// Warm tail: one [`SubspaceTracker::refine`] step of `tracker` (the
    /// stream's basis, loaded) against the rolling covariance (in `music`'s
    /// eigensolver matrix, which it only reads), then the warm-started
    /// sweep from the previous packet's peak basins. Returns `None` — the
    /// caller falls back to the exact path — when the tracker's drift
    /// exceeds [`crate::config::StreamConfig::drift_threshold`] (or is
    /// NaN). The caller retries a sweep that fails on the exact path too.
    fn warm_tail(
        &self,
        state: &StreamState,
        tracker: &mut SubspaceTracker,
        music: &mut MusicScratch,
    ) -> Option<Result<CoarseFinePaths>> {
        {
            let _track = spotfi_obs::span("stage.track");
            let drift = tracker.refine(music.eig.matrix());
            spotfi_obs::value("stream.drift", drift);
            // NaN checked explicitly so a poisoned drift metric also falls
            // back to the exact path.
            if drift.is_nan() || drift > self.config.stream.drift_threshold {
                return None;
            }
        }
        let swept = sweep_basis(
            &self.config,
            &self.cache,
            &mut music.sweep,
            tracker.values(),
            tracker.vectors(),
            &state.last_peaks,
        );
        Some(swept.and_then(check_paths))
    }

    /// How many eigenvectors the exact tail solves, given the packet's
    /// signal dimension `d` (Algorithm 2's noise-threshold rule; `None` for
    /// a signal-free covariance, whose sweep fails). The sweep reads only
    /// the leading `d`, so a stream that does not track solves just those.
    /// A tracking stream seeds its tracker with every vector solved: with
    /// `tracker_rank_margin` set, `d` plus the guard band, capped at
    /// `max_paths` — the warm path's projector only ever consumes the
    /// signal vectors, and refine's cost grows as k³ in the Ritz
    /// eigensolve, so serving profiles avoid carrying all `max_paths`
    /// vectors through every packet. Subspace growth past the guard band
    /// shows up as drift and falls back to the exact path. Without a margin,
    /// or without a `d` (the failure forces the next anchor), it seeds all
    /// `max_paths`.
    fn exact_columns(&self, tracking: bool, d: Option<usize>) -> usize {
        let k = self.config.music.max_paths;
        match (tracking, self.config.stream.tracker_rank_margin, d) {
            (false, _, d) => d.unwrap_or(0),
            (true, Some(margin), Some(d)) => (d + margin).min(k),
            (true, ..) => k,
        }
    }

    /// Amortized streaming analysis of one packet against persistent
    /// per-stream state — the steady-state hot path for live captures, and
    /// the one per-packet engine every entry point runs. `scratch` carries
    /// no information across packets (it is fully overwritten), so one
    /// per-worker [`PacketScratch`] can serve every [`StreamState`] on a
    /// shard.
    ///
    /// Instead of re-deriving everything per packet, this path:
    ///
    /// 1. updates a rolling covariance `R ← λ·R + X·Xᴴ` in `f64`, stored
    ///    packed in `f32` ([`crate::config::StreamConfig::forgetting`]),
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
    /// after any packet that failed past staging (a failure clears the peak
    /// cells a warm sweep starts from). A warm packet whose sweep fails
    /// (finds no path) is retried on the exact path, so the warm tail never
    /// loses a packet the exact path would keep. With `forgetting = 0` and
    /// `reanchor_period = 1` every packet anchors on a fresh covariance:
    /// the exact policy the batch entry points run, bit-identical to
    /// [`analyze_packet`](Self::analyze_packet). The default
    /// [`crate::config::StreamConfig`] instead trades that for a
    /// multiple-× steady-state speedup with tolerance-level accuracy
    /// (pinned by the golden streaming trace).
    ///
    /// Emits `stream.*` diagnostics:
    /// `stream.packets = stream.warmstart_hit + stream.warmstart_miss`
    /// and `stream.warmstart_miss = stream.anchor +
    /// stream.tracker_fallback`, with `stream.warm_retry ≤
    /// stream.tracker_fallback` (checked by
    /// `spotfi_obs::validate_diagnostics`). A hit is a warm packet whose
    /// sweep succeeded; a retried packet is a tracker fallback that also
    /// counts as a retry.
    pub fn analyze_packet_streaming_with(
        &self,
        packet: &CsiPacket,
        state: &mut StreamState,
        scratch: &mut PacketScratch,
    ) -> Result<Vec<PathEstimate>> {
        let _packet_span = spotfi_obs::span("stream.packet");
        let PacketScratch { music, tracker } = scratch;
        // A warm packet refines the stream's basis in the worker's f64
        // tracker; one that cannot be loaded leaves the stream unseeded.
        let anchor = self.stage(packet, state, music.eig.matrix_mut())? || {
            let _track = spotfi_obs::span("stage.track");
            !tracker.load_rounded(&state.basis)
        };
        let warm = if anchor {
            None
        } else {
            self.warm_tail(state, tracker, music)
        };
        self.finish(anchor, warm, state, tracker, music)
    }

    /// Closes a staged packet given its warm tail's outcome (`None` for an
    /// anchor or a drifted tracker): a successful warm sweep is kept;
    /// otherwise the exact tail runs on the same covariance, still intact
    /// in the eigensolver matrix since the warm tail only reads it. Then
    /// the stream's bookkeeping: a tracking stream stores `tracker`'s
    /// basis rounded, the refined one after a warm sweep, else the seed,
    /// and a failed packet clears the peak cells so the next one anchors.
    fn finish(
        &self,
        anchor: bool,
        warm: Option<Result<CoarseFinePaths>>,
        state: &mut StreamState,
        tracker: &mut SubspaceTracker,
        music: &mut MusicScratch,
    ) -> Result<Vec<PathEstimate>> {
        let tracking = self.policy(state).reanchor_period > 1;
        spotfi_obs::counter("stream.packets", 1);
        let (swept, exact) = match warm {
            Some(Ok(swept)) => {
                spotfi_obs::counter("stream.warmstart_hit", 1);
                (Ok(swept), false)
            }
            warm => {
                spotfi_obs::counter("stream.warmstart_miss", 1);
                if anchor {
                    spotfi_obs::counter("stream.anchor", 1);
                } else {
                    // Left the warm path after a refine: a drifted tracker,
                    // or (also counted as a retry) a failed warm sweep.
                    spotfi_obs::counter("stream.tracker_fallback", 1);
                    if warm.is_some() {
                        spotfi_obs::counter("stream.warm_retry", 1);
                    }
                }
                let d = {
                    let _span = spotfi_obs::span("stage.eigen");
                    music.eigen_signal_in_place(&self.config.music, |d| {
                        self.exact_columns(tracking, d)
                    })
                };
                // The sweep only reads the eigenvectors the tracker seeds from.
                let swept = d.map(|d| music.sweep_exact(&self.config, &self.cache, d));
                if tracking {
                    let vectors = music.eig.vectors();
                    tracker.seed(vectors, vectors.cols());
                }
                (swept.and_then(check_paths), true)
            }
        };
        if tracking {
            tracker.store_rounded(&mut state.basis);
        }
        match swept {
            Ok(swept) => {
                state.packets_since_anchor = if exact {
                    0
                } else {
                    state.packets_since_anchor + 1
                };
                state.last_peaks = swept.grid_peaks;
                Ok(swept.paths)
            }
            Err(e) => {
                state.last_peaks.clear();
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
        let mut scratch = PacketScratch::new(&self.config);
        self.analyze_stream(ap, &mut StreamState::new(&self.config), &mut scratch)
    }

    /// Full per-AP analysis (Algorithm 2 steps 2–10): per-packet estimation
    /// on an exact stream, clustering across packets, direct-path
    /// selection. One AP's packets run serially, in capture order.
    pub fn analyze_ap(&self, ap: &ApPackets) -> Result<ApAnalysis> {
        let mut scratch = PacketScratch::new(&self.config);
        self.analyze_stream(ap, &mut StreamState::exact(), &mut scratch)
    }

    /// The one per-AP path: replays the AP's packets through `state`, reset
    /// first, serially in capture order, pooling each packet's estimates as
    /// it finishes, then clusters them, selects the direct path and
    /// averages RSSI.
    fn analyze_stream(
        &self,
        ap: &ApPackets,
        state: &mut StreamState,
        scratch: &mut PacketScratch,
    ) -> Result<ApAnalysis> {
        if ap.packets.is_empty() {
            return Err(SpotFiError::NoPackets);
        }
        state.reset();
        let mut estimates = Vec::new();
        let mut dropped = 0usize;
        for packet in &ap.packets {
            match self.analyze_packet_streaming_with(packet, state, scratch) {
                Ok(mut peaks) => {
                    // Grown exactly: the pool lives through the clustering.
                    estimates.reserve_exact(peaks.len());
                    estimates.append(&mut peaks);
                }
                Err(_) => dropped += 1,
            }
        }
        let (clustering, direct) = self.cluster_and_select(&estimates);
        if spotfi_obs::enabled() {
            spotfi_obs::counter("pipeline.aps_assembled", 1);
            spotfi_obs::counter("pipeline.packets_dropped", dropped as u64);
        }
        Ok(ApAnalysis {
            array: ap.array,
            path_estimates: estimates,
            clustering,
            direct,
            mean_rssi_dbm: mean_of(ap.packets.iter().map(|p| p.rssi_dbm)),
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
    /// Each worker reduces its AP to that measurement as soon as the AP is
    /// analyzed, so a request holds one AP's estimates per worker, never
    /// every AP's at once. Fails like [`analyze_all`](Self::analyze_all)
    /// when no AP's analysis succeeds.
    fn measure_all(&self, aps: &[ApPackets]) -> Result<Vec<ApMeasurement>> {
        let per_ap = self.map_aps(aps, |analysis| analysis.ok().map(|a| a.to_measurement()));
        if per_ap.iter().all(Option::is_none) {
            return Err(SpotFiError::InsufficientAps { usable: 0 });
        }
        Ok(per_ap.into_iter().flatten().flatten().collect())
    }

    /// Runs per-AP analysis on every AP, keeping successes.
    ///
    /// APs fan out over the thread budget, each worker analyzing one AP's
    /// exact stream at a time on its own [`StreamState`] and
    /// [`PacketScratch`]. The analyses come back in AP order, so the output
    /// is identical at every thread count.
    pub fn analyze_all(&self, aps: &[ApPackets]) -> Result<Vec<ApAnalysis>> {
        let analyses: Vec<ApAnalysis> = self
            .map_aps(aps, Result::ok)
            .into_iter()
            .flatten()
            .collect();
        if analyses.is_empty() {
            return Err(SpotFiError::InsufficientAps { usable: 0 });
        }
        Ok(analyses)
    }

    /// Analyzes every AP on an exact stream, fanned out over the thread
    /// budget, and reduces each analysis with `reduce` on the worker that
    /// made it; results in AP order.
    fn map_aps<T: Send>(
        &self,
        aps: &[ApPackets],
        reduce: impl Fn(Result<ApAnalysis>) -> T + Sync,
    ) -> Vec<T> {
        parallel_map_with(
            aps.len(),
            self.config.runtime.effective_threads(),
            || (StreamState::exact(), PacketScratch::new(&self.config)),
            |(state, scratch), i| reduce(self.analyze_stream(&aps[i], state, scratch)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use crate::sanitize::sanitize_csi;
    use spotfi_channel::constants::DEFAULT_CARRIER_HZ;
    use spotfi_channel::Rng;
    use spotfi_channel::{Floorplan, OfdmConfig, PacketTrace, Point, TraceConfig};
    use spotfi_math::{c64, CMat};

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
        // Each worker replays AP after AP on one exact stream and one
        // scratch, so a packet that fails staging must leave nothing behind
        // for the next one. Put a NaN packet at each of units 0–3 and an
        // all-zero packet four units later (units 4–7 of the APs' packets
        // in order, straddling the AP0/AP1 boundary): every survivor must
        // still match its own one-packet analysis bit for bit, and the drop
        // counts must be exact.
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
    fn rejected_packets_never_reach_a_streams_covariance() {
        // A stream's rolling covariance carries each packet into the next,
        // so a packet that fails sanitization must be rejected before it is
        // accumulated. Insert a NaN packet and an all-zero packet before
        // each packet of a 12-packet stream in turn: every other packet's
        // estimates must match the clean stream's bit for bit, and exactly
        // the two inserted packets drop.
        let plan = Floorplan::empty();
        let array = ap_array(0.0, 0.0, Point::new(5.0, 5.0));
        let target = Point::new(4.0, 6.0);
        let clean = gen_packets(&plan, target, array, &TraceConfig::commodity(), 12, 63);
        let s = spotfi();
        assert!(s.config().stream.forgetting > 0.0);
        let reference = s.analyze_ap_streaming(&clean).unwrap();
        let bad = |value: f64| CsiPacket {
            csi: CMat::from_fn(3, 30, |_, _| c64::new(value, 0.0)),
            ..clean.packets[0].clone()
        };
        for pos in 0..clean.packets.len() {
            let mut ap = clean.clone();
            ap.packets.splice(pos..pos, [bad(f64::NAN), bad(0.0)]);
            let analysis = s.analyze_ap_streaming(&ap).unwrap();
            let ctx = format!("inserted before packet {pos}");
            assert_eq!(
                analysis.dropped_packets,
                reference.dropped_packets + 2,
                "{ctx}"
            );
            assert_eq!(
                analysis.path_estimates.len(),
                reference.path_estimates.len(),
                "{ctx}"
            );
            for (a, b) in analysis
                .path_estimates
                .iter()
                .zip(&reference.path_estimates)
            {
                assert_eq!(a.aoa_deg.to_bits(), b.aoa_deg.to_bits(), "{ctx}");
                assert_eq!(a.tof_ns.to_bits(), b.tof_ns.to_bits(), "{ctx}");
                assert_eq!(a.power.to_bits(), b.power.to_bits(), "{ctx}");
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

    fn path_bits(paths: &[PathEstimate]) -> Vec<[u64; 3]> {
        paths
            .iter()
            .map(|p| [p.aoa_deg.to_bits(), p.tof_ns.to_bits(), p.power.to_bits()])
            .collect()
    }

    #[test]
    fn forced_warm_failure_returns_the_exact_tail_bit_for_bit() {
        // A warm packet whose sweep fails is retried on the exact tail of
        // the same covariance. Force the failure at every warm packet in
        // turn, after the real warm tail has run (refining the tracker and
        // filling the sweep scratch): the packet's paths must be an anchor's
        // on that covariance bit for bit, and so must every later packet of
        // the stream it leaves behind.
        let plan = Floorplan::empty();
        let array = ap_array(0.0, 0.0, Point::new(5.0, 5.0));
        let target = Point::new(4.0, 6.0);
        let ap = gen_packets(&plan, target, array, &TraceConfig::commodity(), 8, 64);
        let s = spotfi();
        let mut state = StreamState::new(s.config());
        let mut scratch = PacketScratch::new(s.config());
        let mut forced = 0;
        for (i, packet) in ap.packets.iter().enumerate() {
            let anchor = s
                .stage(packet, &mut state, scratch.music.eig.matrix_mut())
                .unwrap()
                || !scratch.tracker.load_rounded(&state.basis);
            if !anchor {
                let mut retried = (state.clone(), scratch.clone());
                let mut exact = (state.clone(), scratch.clone());
                let PacketScratch { music, tracker } = &mut retried.1;
                let warm = s.warm_tail(&retried.0, tracker, music);
                assert!(matches!(warm, Some(Ok(_))), "packet {i} failed unforced");
                let forced_paths = s
                    .finish(
                        false,
                        Some(Err(SpotFiError::NoPaths)),
                        &mut retried.0,
                        tracker,
                        music,
                    )
                    .unwrap();
                let PacketScratch { music, tracker } = &mut exact.1;
                let exact_paths = s.finish(true, None, &mut exact.0, tracker, music).unwrap();
                assert_eq!(
                    path_bits(&forced_paths),
                    path_bits(&exact_paths),
                    "packet {i}"
                );
                for (j, later) in ap.packets.iter().enumerate().skip(i + 1) {
                    let (rs, rc) = &mut retried;
                    let (es, ec) = &mut exact;
                    assert_eq!(
                        path_bits(&s.analyze_packet_streaming_with(later, rs, rc).unwrap()),
                        path_bits(&s.analyze_packet_streaming_with(later, es, ec).unwrap()),
                        "packet {j} after a forced failure at {i}"
                    );
                }
                forced += 1;
            }
            let PacketScratch { music, tracker } = &mut scratch;
            let warm = (!anchor)
                .then(|| s.warm_tail(&state, tracker, music))
                .flatten();
            s.finish(anchor, warm, &mut state, tracker, music).unwrap();
        }
        assert!(forced >= 4, "only {forced} warm packets");
    }

    /// One packet of a test-only reference stream that keeps its rolling
    /// covariance in `f64` (in `wide`) instead of rounding it to `f32`
    /// storage; its tracker basis is stored rounded, as in production.
    fn f64_reference_packet(
        s: &SpotFi,
        packet: &CsiPacket,
        state: &mut StreamState,
        wide: &mut PackedHermitianF64,
        scratch: &mut PacketScratch,
    ) -> Result<Vec<PathEstimate>> {
        reference_packet(s, packet, state, wide, None, scratch)
    }

    /// One packet of a test-only reference stream that keeps its rolling
    /// covariance in `f64` (in `wide`) and, given `wide_basis`, its tracker
    /// too: the basis stays in that `f64` tracker from packet to packet,
    /// never rounded or re-orthonormalized. The stream's own stage decides
    /// the anchor and keeps its bookkeeping, then `wide` is decayed with
    /// the same kernel and order and replaces the staged covariance before
    /// the tails run.
    fn reference_packet(
        s: &SpotFi,
        packet: &CsiPacket,
        state: &mut StreamState,
        wide: &mut PackedHermitianF64,
        wide_basis: Option<&mut SubspaceTracker>,
        scratch: &mut PacketScratch,
    ) -> Result<Vec<PathEstimate>> {
        let first = !state.initialized;
        let staged = s.stage(packet, state, scratch.music.eig.matrix_mut())?;
        let sanitized = sanitize_csi(&packet.csi, s.config.ofdm.subcarrier_spacing_hz)?;
        let x = SmoothedColumns::new(&sanitized.csi, &s.config)?;
        if first {
            covariance_into(&x, wide)?;
        } else {
            wide.decay_accumulate(s.config.stream.forgetting, |add| x.feed(add));
        }
        let PacketScratch { music, tracker } = scratch;
        music
            .eig
            .matrix_mut()
            .as_mut_slice()
            .copy_from_slice(wide.as_slice());
        let (anchor, tracker) = match wide_basis {
            Some(wide_basis) => (staged || !wide_basis.is_seeded(), wide_basis),
            None => (staged || !tracker.load_rounded(&state.basis), tracker),
        };
        let warm = (!anchor)
            .then(|| s.warm_tail(state, tracker, music))
            .flatten();
        s.finish(anchor, warm, state, tracker, music)
    }

    #[test]
    fn f32_stored_covariance_tracks_an_f64_stored_reference() {
        // The per-stream footprint test's traces (living-room targets ×
        // home APs of the standard apartment, 8 packets each) through the
        // compact stream and through the f64-stored reference. Rounding the
        // carried-over history to f32 (2⁻²⁴ relative) must not change what
        // a packet finds, and must move its paths far less than a grid
        // cell. Measured over the 114 paths of 8 links × 8 packets: max
        // |ΔAoA| 1.86e-5°, max |ΔToF| 5.48e-6 ns. Storing bf16 instead (f32
        // cut to 8 mantissa bits) moves them by 2.0° and 0.18 ns.
        const AOA_BOUND_DEG: f64 = 1e-4;
        const TOF_BOUND_NS: f64 = 1e-4;
        let home = spotfi_testbed::Apartment::standard();
        let trace_cfg = TraceConfig::commodity();
        let mut rng = Rng::seed_from_u64(7);
        let mut traces = Vec::new();
        for target in home.rooms[0].iter().take(2) {
            for ap in &home.aps {
                if let Some(t) = PacketTrace::generate(
                    &home.floorplan,
                    target.position,
                    &ap.array,
                    &trace_cfg,
                    8,
                    &mut rng,
                ) {
                    traces.push(t.packets);
                }
            }
        }
        assert!(traces.len() >= 4, "too few audible links: {}", traces.len());
        let s = spotfi();
        let mut scratch = PacketScratch::new(s.config());
        let (mut paths, mut aoa, mut tof) = (0usize, 0.0f64, 0.0f64);
        for (link, trace) in traces.iter().enumerate() {
            let mut compact = StreamState::new(s.config());
            let mut reference = StreamState::new(s.config());
            let mut wide = PackedHermitianF64::default();
            for (i, packet) in trace.iter().enumerate() {
                let got = s.analyze_packet_streaming_with(packet, &mut compact, &mut scratch);
                let want =
                    f64_reference_packet(&s, packet, &mut reference, &mut wide, &mut scratch);
                let ctx = format!("link {link} packet {i}");
                let (got, want) = match (got, want) {
                    (Ok(got), Ok(want)) => (got, want),
                    (got, want) => {
                        assert_eq!(got.err(), want.err(), "{ctx}");
                        continue;
                    }
                };
                assert_eq!(got.len(), want.len(), "{ctx}: path count");
                for (g, w) in got.iter().zip(&want) {
                    aoa = aoa.max((g.aoa_deg - w.aoa_deg).abs());
                    tof = tof.max((g.tof_ns - w.tof_ns).abs());
                }
                paths += got.len();
            }
        }
        println!(
            "f32 vs f64 storage over {paths} paths: max |ΔAoA| {aoa:.2e}°, max |ΔToF| {tof:.2e} ns"
        );
        assert!(paths > 0);
        assert!(
            aoa <= AOA_BOUND_DEG,
            "max |ΔAoA| {aoa:e}° over {AOA_BOUND_DEG:e}°"
        );
        assert!(
            tof <= TOF_BOUND_NS,
            "max |ΔToF| {tof:e} ns over {TOF_BOUND_NS:e} ns"
        );
    }

    /// The precision tests' traces: living-room targets × home APs of the
    /// standard apartment, 8 packets per audible link.
    fn living_room_traces() -> Vec<Vec<CsiPacket>> {
        let home = spotfi_testbed::Apartment::standard();
        let trace_cfg = TraceConfig::commodity();
        let mut rng = Rng::seed_from_u64(7);
        let mut traces = Vec::new();
        for target in home.rooms[0].iter().take(2) {
            for ap in &home.aps {
                if let Some(t) = PacketTrace::generate(
                    &home.floorplan,
                    target.position,
                    &ap.array,
                    &trace_cfg,
                    8,
                    &mut rng,
                ) {
                    traces.push(t.packets);
                }
            }
        }
        assert!(traces.len() >= 4, "too few audible links: {}", traces.len());
        traces
    }

    #[test]
    fn f32_stored_basis_tracks_an_f64_stored_reference() {
        // The production stream (covariance and tracker basis stored as f32
        // pairs, the basis re-orthonormalized in f64 on load) against a
        // reference that keeps both in f64 from packet to packet, over the
        // covariance precision test's traces and bounds. Measured over the
        // 114 paths of 8 links × 8 packets: max |ΔAoA| 1.5e-5°, max |ΔToF|
        // 5.7e-6 ns. Loading the rounded basis without re-orthonormalizing
        // it moves them by up to 1.3e-4°, past the bound.
        const AOA_BOUND_DEG: f64 = 1e-4;
        const TOF_BOUND_NS: f64 = 1e-4;
        let traces = living_room_traces();
        let s = spotfi();
        let mut scratch = PacketScratch::new(s.config());
        let (mut paths, mut warm, mut aoa, mut tof) = (0usize, 0usize, 0.0f64, 0.0f64);
        for (link, trace) in traces.iter().enumerate() {
            let mut compact = StreamState::new(s.config());
            let mut reference = StreamState::new(s.config());
            let mut wide = PackedHermitianF64::default();
            let mut wide_basis = SubspaceTracker::new();
            for (i, packet) in trace.iter().enumerate() {
                let got = s.analyze_packet_streaming_with(packet, &mut compact, &mut scratch);
                warm += usize::from(compact.packets_since_anchor > 0);
                let want = reference_packet(
                    &s,
                    packet,
                    &mut reference,
                    &mut wide,
                    Some(&mut wide_basis),
                    &mut scratch,
                );
                let ctx = format!("link {link} packet {i}");
                let (got, want) = match (got, want) {
                    (Ok(got), Ok(want)) => (got, want),
                    (got, want) => {
                        assert_eq!(got.err(), want.err(), "{ctx}");
                        continue;
                    }
                };
                assert_eq!(got.len(), want.len(), "{ctx}: path count");
                for (g, w) in got.iter().zip(&want) {
                    aoa = aoa.max((g.aoa_deg - w.aoa_deg).abs());
                    tof = tof.max((g.tof_ns - w.tof_ns).abs());
                }
                paths += got.len();
            }
        }
        println!(
            "f32 vs f64 covariance and basis storage over {paths} paths ({warm} warm packets): \
             max |ΔAoA| {aoa:.2e}°, max |ΔToF| {tof:.2e} ns"
        );
        assert!(paths > 0);
        assert!(warm * 2 >= traces.len() * 8, "only {warm} warm packets");
        assert!(
            aoa <= AOA_BOUND_DEG,
            "max |ΔAoA| {aoa:e}° over {AOA_BOUND_DEG:e}°"
        );
        assert!(
            tof <= TOF_BOUND_NS,
            "max |ΔToF| {tof:e} ns over {TOF_BOUND_NS:e} ns"
        );
    }

    #[test]
    fn one_shot_sweep_is_the_engines_exact_tail() {
        // The public one-shot chain (sanitize → stored smoothed matrix →
        // `music_paths_coarse_to_fine`, one scratch reused as a benchmark
        // probe reuses it) must return, to the bit, the paths the engine's
        // exact tail gives `analyze_packet`, and fail on the same packets:
        // the apartment traces plus a NaN and an all-zero packet. A sweep
        // that finds no path counts as the engine's `NoPaths`.
        let s = SpotFi::default();
        let cfg = s.config();
        let mut packets: Vec<CsiPacket> = living_room_traces().concat();
        for value in [f64::NAN, 0.0] {
            packets.push(CsiPacket {
                csi: CMat::from_fn(3, 30, |_, _| c64::new(value, 0.0)),
                ..packets[0].clone()
            });
        }
        let mut music = MusicScratch::new(cfg);
        let mut failed = 0;
        for (i, p) in packets.iter().enumerate() {
            let one_shot = sanitize_csi(&p.csi, cfg.ofdm.subcarrier_spacing_hz)
                .and_then(|z| crate::smoothing::smoothed_csi(&z.csi, cfg))
                .and_then(|x| {
                    crate::music::music_paths_coarse_to_fine(
                        &x,
                        cfg,
                        s.steering_cache(),
                        &mut music,
                    )
                })
                .and_then(|swept| {
                    if swept.paths.is_empty() {
                        Err(SpotFiError::NoPaths)
                    } else {
                        Ok(path_bits(&swept.paths))
                    }
                });
            let engine = s.analyze_packet(p).map(|paths| path_bits(&paths));
            assert_eq!(one_shot, engine, "packet {i}");
            failed += usize::from(engine.is_err());
        }
        assert!(failed >= 2, "only {failed} failed packets");
        assert!(failed < packets.len() / 2, "{failed} failed packets");
    }

    #[test]
    fn one_scratch_interleaved_over_two_streams_matches_fresh_scratches() {
        // A worker's scratch holds the f64 tracker every stream on it
        // widens its basis into, so nothing a packet leaves there may reach
        // another stream's packet. Interleave two links' streams packet by
        // packet through one scratch: every result must equal, to the bit,
        // that stream run alone on a fresh scratch of its own.
        let traces = living_room_traces();
        let s = spotfi();
        let (a, b) = (&traces[0], &traces[traces.len() - 1]);
        let alone = |trace: &[CsiPacket]| {
            let mut state = StreamState::new(s.config());
            let mut scratch = PacketScratch::new(s.config());
            trace
                .iter()
                .map(|p| s.analyze_packet_streaming_with(p, &mut state, &mut scratch))
                .map(|r| r.map(|paths| path_bits(&paths)))
                .collect::<Vec<_>>()
        };
        let (want_a, want_b) = (alone(a), alone(b));
        let mut shared = PacketScratch::new(s.config());
        let mut streams = [StreamState::new(s.config()), StreamState::new(s.config())];
        let mut warm = 0;
        for i in 0..a.len().max(b.len()) {
            for (which, (trace, want)) in [(a, &want_a), (b, &want_b)].into_iter().enumerate() {
                let Some(packet) = trace.get(i) else { continue };
                let state = &mut streams[which];
                let got = s
                    .analyze_packet_streaming_with(packet, state, &mut shared)
                    .map(|paths| path_bits(&paths));
                assert_eq!(got, want[i], "stream {which} packet {i}");
                warm += usize::from(state.packets_since_anchor > 0);
            }
        }
        assert!(warm >= 4, "only {warm} warm packets");
    }

    #[test]
    fn a_failed_packet_makes_the_next_packet_anchor() {
        // Fail a warm stream's staged packet in its exact tail (a zeroed
        // covariance has no signal): the stream must keep the covariance
        // the packet staged, and its next packet must anchor on the exact
        // solver instead of refining from the failed packet's seed.
        let plan = Floorplan::empty();
        let array = ap_array(0.0, 0.0, Point::new(5.0, 5.0));
        let target = Point::new(4.0, 6.0);
        let ap = gen_packets(&plan, target, array, &TraceConfig::commodity(), 5, 64);
        let s = spotfi();
        let mut state = StreamState::new(s.config());
        let mut scratch = PacketScratch::new(s.config());
        for packet in &ap.packets[..3] {
            s.analyze_packet_streaming_with(packet, &mut state, &mut scratch)
                .unwrap();
        }
        assert!(state.packets_since_anchor > 0, "the stream is not warm");
        let anchor = s
            .stage(&ap.packets[3], &mut state, scratch.music.eig.matrix_mut())
            .unwrap();
        assert!(!anchor, "the staged packet is not warm");
        let widened = |state: &StreamState| {
            let mut wide = PackedHermitianF64::default();
            state.cov.widen_into(&mut wide);
            wide
        };
        let staged = widened(&state);
        scratch
            .music
            .eig
            .matrix_mut()
            .as_mut_slice()
            .fill(c64::ZERO);
        let PacketScratch { music, tracker } = &mut scratch;
        let failed = s.finish(true, None, &mut state, tracker, music);
        assert_eq!(failed.unwrap_err(), SpotFiError::DegenerateCsi);
        assert_eq!(widened(&state), staged, "the failure moved the covariance");
        assert!(state.packets_since_anchor + 1 < s.config().stream.reanchor_period);

        let _turn = crate::recorder_turn();
        spotfi_obs::set_enabled(true);
        let total = |name: &str| spotfi_obs::snapshot().counter_total(name);
        let before = total("stream.anchor");
        s.analyze_packet_streaming_with(&ap.packets[4], &mut state, &mut scratch)
            .unwrap();
        let after = total("stream.anchor");
        spotfi_obs::set_enabled(false);
        assert!(after > before, "the next packet did not count as an anchor");
        assert_eq!(state.packets_since_anchor, 0);
    }
}
