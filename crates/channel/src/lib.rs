#![warn(missing_docs)]

//! # spotfi-channel
//!
//! Indoor WiFi channel simulator — the testbed substrate for the SpotFi
//! reproduction.
//!
//! The original paper evaluates on physical Intel 5300 NICs deployed in an
//! office building. This crate replaces that hardware with a physically
//! faithful model that produces exactly what the NIC firmware would hand to
//! SpotFi's server: a 3-antenna × 30-subcarrier quantized CSI matrix plus an
//! RSSI value per packet. The model chain is:
//!
//! 1. **Geometry** ([`geometry`], [`floorplan`]) — a 2-D floorplan of wall
//!    segments with materials.
//! 2. **Ray tracing** ([`raytrace`]) — the direct path (with through-wall
//!    attenuation) and first/second-order specular reflections via the image
//!    method; each path gets a length, a ToF, an AoA at the AP array, and a
//!    complex gain ([`propagation`]).
//! 3. **CSI synthesis** — the superposition
//!    `h[m][n] = Σ_k γ_k · Ω(τ_k)^(n−1) · Φ(θ_k)^(m−1)` over the OFDM grid
//!    ([`ofdm`]) and antenna array ([`mod@array`]).
//! 4. **Impairments** ([`impairments`]) — per-packet sampling time offset
//!    (STO), sampling frequency offset (SFO) drift, packet detection delay,
//!    AWGN, and Intel-5300-style 8-bit quantization. Each impairment is
//!    independently switchable, smoltcp-fault-injection style, so tests can
//!    isolate effects.
//! 5. **RSSI** ([`rssi`]) — received power under log-distance path loss with
//!    log-normal shadowing, quantized to integer dB.
//!
//! [`trace::PacketTrace`] ties it together: a reproducible stream of packets
//! from a target as heard by one AP.

pub mod array;
pub mod constants;
mod csi;
pub mod diffuse;
pub mod floorplan;
pub mod geometry;
pub mod impairments;
pub mod materials;
pub mod ofdm;
pub mod propagation;
pub mod raytrace;
pub mod rng;
pub mod rssi;
pub mod trace;
pub mod trajectory;

pub use array::AntennaArray;
pub use floorplan::Floorplan;
pub use geometry::{Point, Segment, Vec2};
pub use impairments::{ClockModel, Impairments};
pub use ofdm::OfdmConfig;
pub use raytrace::{trace_paths, Path, PathKind};
pub use rng::Rng;
pub use trace::{CsiPacket, PacketTrace, TraceConfig};
pub use trajectory::{generate_moving, Waypath};
