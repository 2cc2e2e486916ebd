#![warn(missing_docs)]

//! # SpotFi — decimeter-level indoor localization using WiFi
//!
//! A from-scratch Rust reproduction of *SpotFi: Decimeter Level
//! Localization Using WiFi* (Kotaru, Joshi, Bharadia, Katti — SIGCOMM
//! 2015): super-resolution joint AoA/ToF estimation from commodity
//! 3-antenna CSI, robust direct-path identification, and
//! likelihood-weighted localization — plus the full simulation testbed and
//! baselines its evaluation needs.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`math`] — complex linear algebra, Hermitian eigensolver, optimization.
//! * [`channel`] — indoor WiFi channel simulator (floorplans, ray tracing,
//!   CSI synthesis, clock impairments, RSSI).
//! * [`core`] — the SpotFi algorithms (Algorithm 1, Fig. 4 smoothing, joint
//!   MUSIC, clustering, Eq. 8 likelihoods, Eq. 9 localization).
//! * [`baselines`] — MUSIC-AoA / practical ArrayTrack, and the LTEye,
//!   CUPID and Oracle selection rules.
//! * [`testbed`] — the Fig. 6 deployment and every evaluation experiment
//!   (Figs. 5, 7, 8, 9).
//! * [`io`] — the Linux 802.11n CSI Tool `.dat` format: run the pipeline
//!   on real Intel 5300 captures, or export simulated traces.
//! * [`obs`] — zero-dependency observability: counters, value histograms,
//!   and timing spans recorded per worker and merged deterministically, so
//!   enabling diagnostics never changes pipeline results.
//!
//! ## Quickstart
//!
//! ```
//! use spotfi::channel::{AntennaArray, Floorplan, PacketTrace, Point, Rng, TraceConfig};
//! use spotfi::core::{ApPackets, SpotFi, SpotFiConfig};
//!
//! let plan = Floorplan::empty();
//! let target = Point::new(4.0, 6.0);
//! let cfg = TraceConfig::commodity();
//! let mut rng = Rng::seed_from_u64(7);
//!
//! // Four APs at the room corners, each looking at the center.
//! let aps: Vec<ApPackets> = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
//!     .iter()
//!     .map(|&(x, y)| {
//!         let normal = (Point::new(5.0, 5.0) - Point::new(x, y)).angle();
//!         let array = AntennaArray::intel5300(Point::new(x, y), normal, cfg.ofdm.carrier_hz);
//!         let trace = PacketTrace::generate(&plan, target, &array, &cfg, 10, &mut rng).unwrap();
//!         ApPackets { array, packets: trace.packets }
//!     })
//!     .collect();
//!
//! let estimate = SpotFi::new(SpotFiConfig::fast_test()).localize(&aps).unwrap();
//! assert!(estimate.position.distance(target) < 1.0);
//! ```

pub use spotfi_baselines as baselines;
pub use spotfi_channel as channel;
pub use spotfi_core as core;
pub use spotfi_io as io;
pub use spotfi_math as math;
pub use spotfi_obs as obs;
pub use spotfi_testbed as testbed;

pub use spotfi_channel::{AntennaArray, Floorplan, PacketTrace, Point, TraceConfig};
pub use spotfi_core::{ApPackets, LocationEstimate, SpotFi, SpotFiConfig};
