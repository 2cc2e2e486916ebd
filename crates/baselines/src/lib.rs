#![warn(missing_docs)]

//! # spotfi-baselines
//!
//! The approaches SpotFi is evaluated against in the paper:
//!
//! * [`music_aoa`] — the antenna-only MUSIC estimator of Sec. 3.1.1, i.e.
//!   the "practical implementation of ArrayTrack" (Phaser) constrained to a
//!   commodity 3-antenna NIC. Models only inter-antenna phase; subcarriers
//!   serve as covariance snapshots.
//! * [`arraytrack`] — ArrayTrack-style localization: combine per-AP AoA
//!   pseudospectra on a location grid and take the most likely point.
//! * [`selection`] — the direct-path *selection* baselines of Fig. 8(b):
//!   LTEye's smallest-ToF rule, CUPID's strongest-peak rule, and an Oracle
//!   upper bound. All operate on SpotFi's own super-resolution estimates so
//!   the comparison isolates the selection step.

pub mod arraytrack;
pub mod music_aoa;
pub mod selection;

pub use arraytrack::{arraytrack_localize_in_bounds, ArrayTrackConfig};
pub use music_aoa::{music_aoa_spectrum, MusicAoaConfig, MusicAoaSpectrum};
pub use selection::{select_cupid, select_lteye, select_oracle};
