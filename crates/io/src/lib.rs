#![warn(missing_docs)]

//! # spotfi-io
//!
//! Reader/writer for the **Linux 802.11n CSI Tool** trace format — the
//! `.dat` files produced by `log_to_file` on Intel 5300 NICs, which is
//! exactly the toolchain the SpotFi paper uses (Halperin et al., "Tool
//! release: Gathering 802.11n traces with channel state information").
//!
//! With this crate the SpotFi pipeline runs on *real hardware captures*:
//!
//! ```no_run
//! use spotfi_io::{read_dat_file, to_csi_packets};
//!
//! let records = read_dat_file("capture.dat").unwrap();
//! let packets = to_csi_packets(&records);
//! // …feed `packets` to spotfi_core::SpotFi::analyze_ap.
//! ```
//!
//! It also round-trips: simulated [`spotfi_channel::CsiPacket`]s can be
//! exported to a byte-exact `.dat` file ([`write_dat_file`]), which the
//! reference MATLAB tooling can open.
//!
//! Modules:
//! * [`bfee`] — the beamforming-report record: the packed 8-bit CSI
//!   payload, RSSI/AGC/noise fields, and the receive-antenna permutation.
//! * [`dat`] — the length-prefixed file framing.
//! * [`scale`] — the reference "scaled CSI" conversion (`get_scaled_csi`):
//!   absolute-scale channel estimates from raw CSI + RSSI + AGC + noise.
//! * [`convert`] — bridges to [`spotfi_channel::CsiPacket`].

pub mod bfee;
pub mod chaos;
pub mod convert;
pub mod dat;
pub mod scale;
pub mod wire;

pub use bfee::{BfeeRecord, ParseError};
pub use chaos::{fragment, mangle_frames, ChaosConfig, ChaosReport};
pub use convert::{from_csi_packet, packet_from_record, to_csi_packets};
pub use dat::{read_dat, read_dat_file, write_dat, write_dat_file};
pub use scale::scaled_csi;
pub use wire::{encode_frame, WireDecoder, WireEvent, WireFrame, WireStats};
