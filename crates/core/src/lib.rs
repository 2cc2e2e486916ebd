#![warn(missing_docs)]

//! # spotfi-core
//!
//! The SpotFi algorithms (Kotaru et al., SIGCOMM 2015): decimeter-level
//! indoor localization from commodity WiFi CSI.
//!
//! SpotFi runs in three steps (paper Sec. 3, Algorithm 2):
//!
//! 1. **Super-resolution AoA/ToF estimation.** Each packet's 3 × 30 CSI
//!    matrix is sanitized ([`sanitize`], Algorithm 1) to strip the
//!    sampling-time-offset phase ramp, expanded into a smoothed measurement
//!    matrix ([`smoothing`], Fig. 4), and fed to joint AoA/ToF MUSIC
//!    ([`music`], [`steering`], [`peaks`]) — resolving more paths than
//!    antennas by exploiting the ToF phase ramp across OFDM subcarriers.
//! 2. **Direct-path identification.** Estimates from multiple packets are
//!    clustered in the (AoA, ToF) plane ([`cluster`]) and each cluster is
//!    scored with the Eq. 8 likelihood ([`likelihood`]): many members, low
//!    spread, low ToF ⇒ direct path.
//! 3. **Localization.** Direct-path AoAs and RSSI from all APs are fused by
//!    minimizing the likelihood-weighted least-squares objective of Eq. 9
//!    ([`mod@localize`], [`pathloss`]).
//!
//! [`SpotFi`] in [`pipeline`] ties the steps together behind one call.
//!
//! ```
//! use spotfi_channel::{AntennaArray, Floorplan, PacketTrace, Point, Rng, TraceConfig};
//! use spotfi_core::{ApPackets, SpotFi, SpotFiConfig};
//!
//! // Simulate four APs hearing a target in free space…
//! let plan = Floorplan::empty();
//! let target = Point::new(4.0, 6.0);
//! let cfg = TraceConfig::commodity();
//! let mut rng = Rng::seed_from_u64(1);
//! let aps: Vec<ApPackets> = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
//!     .iter()
//!     .map(|&(x, y)| {
//!         let angle = (Point::new(5.0, 5.0) - Point::new(x, y)).angle();
//!         let array = AntennaArray::intel5300(Point::new(x, y), angle, cfg.ofdm.carrier_hz);
//!         let trace = PacketTrace::generate(&plan, target, &array, &cfg, 10, &mut rng).unwrap();
//!         ApPackets { array, packets: trace.packets }
//!     })
//!     .collect();
//!
//! // …and localize it.
//! let spotfi = SpotFi::new(SpotFiConfig::fast_test());
//! let estimate = spotfi.localize(&aps).unwrap();
//! assert!(estimate.position.distance(target) < 1.0);
//! ```

pub mod cluster;
pub mod config;
pub mod error;
pub mod fleet;
pub mod ingest;
pub mod likelihood;
pub mod localize;
pub mod music;
pub mod pathloss;
pub mod peaks;
pub mod pipeline;
pub mod runtime;
pub mod sanitize;
pub mod smoothing;
pub mod steering;
pub mod tracking;

pub use cluster::{cluster_estimates, Clustering, PathCluster};
pub use config::{
    FleetConfig, GridSpec, LikelihoodWeights, MusicConfig, OverflowPolicy, SpotFiConfig,
    StreamConfig,
};
pub use error::{Result, SpotFiError};
pub use fleet::{
    run_fleet_serial, FleetEngine, FleetPacket, FleetReport, FleetStats, FleetUpdate, PushResult,
};
pub use ingest::{ReceiverCalibration, ReceiverEntry, ReceiverRegistry};
pub use likelihood::{score_clusters, select_direct_path, DirectPath};
pub use localize::{localize, ApMeasurement, LocationEstimate, SearchBounds};
pub use music::{
    music_paths_coarse_to_fine, music_spectrum, music_spectrum_cached, CoarseFinePaths,
    MusicScratch, MusicSpectrum,
};
pub use pathloss::PathLossModel;
pub use peaks::{find_peaks, find_peaks_filtered, paraboloid_offset, PathEstimate};
pub use pipeline::{ApAnalysis, ApPackets, PacketScratch, SpotFi, StreamState};
pub use runtime::{hardware_parallelism, parallel_map_with, RuntimeConfig};
pub use sanitize::{sanitize_csi, SanitizedCsi};
pub use smoothing::{smoothed_csi, smoothed_csi_into};
pub use steering::SteeringCache;
pub use tracking::{Tracker, TrackerConfig, UpdateOutcome};

/// The recorder's on/off flag is process-wide: tests that switch it and
/// read counters hold this turn so they do not switch it under each other.
#[cfg(test)]
pub(crate) fn recorder_turn() -> std::sync::MutexGuard<'static, ()> {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}
