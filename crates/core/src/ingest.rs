//! Receiver-side ingest: per-receiver identity and calibration.
//!
//! A distributed deployment has many cheap receivers, each with its own
//! cable lengths, oscillator, and RSSI chain. The fleet engine fuses
//! bearings *across* receivers, so per-receiver quirks must be removed at
//! ingest — before any packet reaches a stream — or they become systematic
//! AoA/RSSI bias in the fusion. The [`ReceiverRegistry`] maps a wire
//! frame's `receiver_id` to the AP's array geometry plus a
//! [`ReceiverCalibration`] applied to every packet from that receiver.

use std::collections::HashMap;

use spotfi_channel::{AntennaArray, CsiPacket};
use spotfi_math::c64;

use crate::fleet::FleetPacket;

/// Static per-receiver corrections, measured once per deployment (e.g.
/// with a reference transmitter at a known bearing). [`Default`] is the
/// identity calibration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReceiverCalibration {
    /// Per-antenna phase offset, radians, subtracted from that antenna's
    /// CSI row — cable-length and RF-chain phase mismatch, the error that
    /// directly rotates measured AoA.
    pub phase_offset_rad: [f64; 3],
    /// Added to the reported RSSI, dB — per-receiver gain mismatch, which
    /// otherwise skews the Eq. 9 RSSI trust weighting across APs.
    pub rssi_offset_db: f64,
    /// Added to packet timestamps, seconds — coarse clock offset of the
    /// receiver's capture clock against fleet time.
    pub time_offset_s: f64,
}

impl ReceiverCalibration {
    /// Applies the correction to one packet in place.
    pub fn apply(&self, packet: &mut CsiPacket) {
        for (m, &phi) in self.phase_offset_rad.iter().enumerate() {
            if m >= packet.csi.rows() || phi == 0.0 {
                continue;
            }
            let rot = c64::new(phi.cos(), -phi.sin());
            for n in 0..packet.csi.cols() {
                packet.csi[(m, n)] *= rot;
            }
        }
        packet.rssi_dbm += self.rssi_offset_db;
        packet.timestamp_s += self.time_offset_s;
    }
}

/// One registered receiver: where its antennas are and how to correct its
/// measurements.
#[derive(Clone, Copy, Debug)]
pub struct ReceiverEntry {
    /// The receiver's array geometry (position, orientation, carrier).
    pub array: AntennaArray,
    /// Corrections applied to every packet from this receiver.
    pub calibration: ReceiverCalibration,
}

/// The deployment map: `receiver_id` (the wire frame's addressing) →
/// geometry + calibration. Frames from unknown receivers are rejected at
/// ingest (`ingest.unknown_receiver`) rather than fused with a guessed
/// geometry.
#[derive(Clone, Debug, Default)]
pub struct ReceiverRegistry {
    receivers: HashMap<u32, ReceiverEntry>,
}

impl ReceiverRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a receiver.
    pub fn register(&mut self, receiver_id: u32, array: AntennaArray, cal: ReceiverCalibration) {
        self.receivers.insert(
            receiver_id,
            ReceiverEntry {
                array,
                calibration: cal,
            },
        );
    }

    /// Looks up a receiver.
    pub fn get(&self, receiver_id: u32) -> Option<&ReceiverEntry> {
        self.receivers.get(&receiver_id)
    }

    /// Number of registered receivers.
    pub fn len(&self) -> usize {
        self.receivers.len()
    }

    /// `true` if no receivers are registered.
    pub fn is_empty(&self) -> bool {
        self.receivers.is_empty()
    }

    /// Turns one decoded capture into a fleet packet: looks up the
    /// receiver, applies its calibration, and stamps the AP identity.
    /// Returns `None` for unregistered receivers (counting
    /// `ingest.unknown_receiver`); for CSI whose row count differs from the
    /// registered array's `num_antennas` or that has no subcarrier columns
    /// (counting `ingest.rejected.shape_mismatch`), which the AoA model of
    /// that array cannot explain and which would otherwise reach a shard
    /// worker only to fail there; for a non-finite calibrated
    /// timestamp (counting `ingest.rejected.non_finite_timestamp`): the
    /// fleet's stale-AP ageing and reorder window compare timestamps, and a
    /// NaN or infinite stamp would pin or evict a target's fusion window;
    /// for any NaN/±Inf calibrated CSI entry (counting
    /// `ingest.rejected.non_finite_csi`), all-zero CSI (counting
    /// `ingest.rejected.zero_csi`) or a non-finite calibrated RSSI
    /// (`ingest.rejected.non_finite_rssi`), which no covariance or Eq. 9
    /// RSSI weight can use and which would otherwise end as a stream error
    /// on a shard worker.
    pub fn fleet_packet(
        &self,
        receiver_id: u32,
        target_id: u64,
        mut packet: CsiPacket,
    ) -> Option<FleetPacket> {
        let Some(entry) = self.receivers.get(&receiver_id) else {
            spotfi_obs::counter("ingest.unknown_receiver", 1);
            return None;
        };
        if packet.csi.rows() != entry.array.num_antennas || packet.csi.cols() == 0 {
            spotfi_obs::counter("ingest.rejected.shape_mismatch", 1);
            return None;
        }
        entry.calibration.apply(&mut packet);
        if !packet.timestamp_s.is_finite() {
            spotfi_obs::counter("ingest.rejected.non_finite_timestamp", 1);
            return None;
        }
        let (finite, zero) = packet
            .csi
            .as_slice()
            .iter()
            .fold((true, true), |(finite, zero), z| {
                (finite && z.is_finite(), zero && *z == c64::ZERO)
            });
        if !finite {
            spotfi_obs::counter("ingest.rejected.non_finite_csi", 1);
            return None;
        }
        if zero {
            spotfi_obs::counter("ingest.rejected.zero_csi", 1);
            return None;
        }
        if !packet.rssi_dbm.is_finite() {
            spotfi_obs::counter("ingest.rejected.non_finite_rssi", 1);
            return None;
        }
        Some(FleetPacket {
            target_id,
            ap_id: receiver_id,
            array: entry.array,
            packet,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotfi_channel::Point;
    use spotfi_math::CMat;

    fn array() -> AntennaArray {
        AntennaArray::intel5300(
            Point::new(0.0, 0.0),
            0.0,
            spotfi_channel::constants::DEFAULT_CARRIER_HZ,
        )
    }

    fn packet() -> CsiPacket {
        CsiPacket {
            csi: CMat::from_fn(3, 30, |m, n| c64::new(1.0 + m as f64, n as f64 * 0.1)),
            rssi_dbm: -50.0,
            timestamp_s: 1.5,
            injected_sto_s: 0.0,
        }
    }

    #[test]
    fn identity_calibration_changes_nothing() {
        let cal = ReceiverCalibration {
            phase_offset_rad: [0.0; 3],
            rssi_offset_db: 0.0,
            time_offset_s: 0.0,
        };
        assert_eq!(cal, ReceiverCalibration::default());
        let mut p = packet();
        let before = p.clone();
        cal.apply(&mut p);
        assert_eq!(p.rssi_dbm.to_bits(), before.rssi_dbm.to_bits());
        assert_eq!(p.timestamp_s.to_bits(), before.timestamp_s.to_bits());
        for (a, b) in p.csi.as_slice().iter().zip(before.csi.as_slice()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn phase_offset_rotates_each_row_by_its_offset() {
        let cal = ReceiverCalibration {
            phase_offset_rad: [0.0, 0.3, -0.7],
            ..Default::default()
        };
        let mut p = packet();
        let before = p.clone();
        cal.apply(&mut p);
        for m in 0..3 {
            for n in 0..30 {
                let got = (p.csi[(m, n)] * before.csi[(m, n)].conj()).arg();
                let want = -cal.phase_offset_rad[m];
                assert!(
                    spotfi_math::unwrap::wrap_phase(got - want).abs() < 1e-12,
                    "row {m}: rotated by {got}, wanted {want}"
                );
            }
        }
    }

    #[test]
    fn offsets_shift_rssi_and_time() {
        let cal = ReceiverCalibration {
            rssi_offset_db: 3.5,
            time_offset_s: -0.25,
            ..Default::default()
        };
        let mut p = packet();
        cal.apply(&mut p);
        assert!((p.rssi_dbm - -46.5).abs() < 1e-12);
        assert!((p.timestamp_s - 1.25).abs() < 1e-12);
    }

    #[test]
    fn registry_rejects_unknown_receivers() {
        let mut reg = ReceiverRegistry::new();
        assert!(reg.fleet_packet(7, 1, packet()).is_none());
        reg.register(7, array(), ReceiverCalibration::default());
        let fp = reg.fleet_packet(7, 1, packet()).expect("registered");
        assert_eq!(fp.ap_id, 7);
        assert_eq!(fp.target_id, 1);
        assert!(reg.fleet_packet(8, 1, packet()).is_none());
    }

    #[test]
    fn registry_rejects_non_finite_timestamps() {
        let mut reg = ReceiverRegistry::new();
        reg.register(7, array(), ReceiverCalibration::default());
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut p = packet();
            p.timestamp_s = t;
            assert!(reg.fleet_packet(7, 1, p).is_none(), "stamp {t}");
        }
        // A finite stamp that the calibration offset overflows is rejected
        // too: the check runs on the calibrated time.
        reg.register(
            8,
            array(),
            ReceiverCalibration {
                time_offset_s: f64::MAX,
                ..Default::default()
            },
        );
        let mut p = packet();
        p.timestamp_s = f64::MAX;
        assert!(reg.fleet_packet(8, 1, p).is_none());
        assert!(reg.fleet_packet(7, 1, packet()).is_some());
    }

    #[test]
    fn registry_rejects_wrong_shaped_csi() {
        let _turn = crate::recorder_turn();
        let mut reg = ReceiverRegistry::new();
        reg.register(7, array(), ReceiverCalibration::default());
        spotfi_obs::set_enabled(true);
        let before = spotfi_obs::snapshot().counter_total("ingest.rejected.shape_mismatch");
        for (rows, cols) in [(2, 30), (4, 30), (3, 0), (0, 0)] {
            let mut p = packet();
            p.csi = CMat::from_fn(rows, cols, |m, n| c64::new(1.0 + m as f64, n as f64));
            assert!(reg.fleet_packet(7, 1, p).is_none(), "{rows}×{cols} CSI");
        }
        let after = spotfi_obs::snapshot().counter_total("ingest.rejected.shape_mismatch");
        spotfi_obs::set_enabled(false);
        assert!(after >= before + 4, "{after} after {before}");
        // The subcarrier count is the engine's to check: any nonzero count
        // of the registered array's rows passes.
        let mut p = packet();
        p.csi = CMat::from_fn(3, 1, |m, _| c64::new(1.0 + m as f64, 0.0));
        assert!(reg.fleet_packet(7, 1, p).is_some());
        assert!(reg.fleet_packet(7, 1, packet()).is_some());
    }

    #[test]
    fn registry_rejects_non_finite_csi_and_rssi() {
        let _turn = crate::recorder_turn();
        let mut reg = ReceiverRegistry::new();
        reg.register(7, array(), ReceiverCalibration::default());
        spotfi_obs::set_enabled(true);
        let total = |name: &str| spotfi_obs::snapshot().counter_total(name);
        let (csi_before, rssi_before) = (
            total("ingest.rejected.non_finite_csi"),
            total("ingest.rejected.non_finite_rssi"),
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for entry in [c64::new(bad, 0.0), c64::new(0.5, bad)] {
                let mut p = packet();
                p.csi[(2, 17)] = entry;
                assert!(reg.fleet_packet(7, 1, p).is_none(), "CSI entry {entry:?}");
            }
            let mut p = packet();
            p.rssi_dbm = bad;
            assert!(reg.fleet_packet(7, 1, p).is_none(), "RSSI {bad}");
        }
        let (csi_after, rssi_after) = (
            total("ingest.rejected.non_finite_csi"),
            total("ingest.rejected.non_finite_rssi"),
        );
        spotfi_obs::set_enabled(false);
        assert!(
            csi_after >= csi_before + 6,
            "{csi_after} after {csi_before}"
        );
        assert!(
            rssi_after >= rssi_before + 3,
            "{rssi_after} after {rssi_before}"
        );
        // A finite RSSI that the calibration offset overflows is rejected
        // too: the checks run on the calibrated packet.
        reg.register(
            8,
            array(),
            ReceiverCalibration {
                rssi_offset_db: f64::MAX,
                ..Default::default()
            },
        );
        let mut p = packet();
        p.rssi_dbm = f64::MAX;
        assert!(reg.fleet_packet(8, 1, p).is_none());
        assert!(reg.fleet_packet(7, 1, packet()).is_some());
    }

    #[test]
    fn registry_rejects_all_zero_csi() {
        let _turn = crate::recorder_turn();
        let mut reg = ReceiverRegistry::new();
        reg.register(7, array(), ReceiverCalibration::default());
        spotfi_obs::set_enabled(true);
        let total = |name: &str| spotfi_obs::snapshot().counter_total(name);
        let (zero_before, nan_before) = (
            total("ingest.rejected.zero_csi"),
            total("ingest.rejected.non_finite_csi"),
        );
        for zero in [c64::ZERO, c64::new(-0.0, 0.0), c64::new(0.0, -0.0)] {
            let mut p = packet();
            p.csi = CMat::from_fn(3, 30, |_, _| zero);
            assert!(reg.fleet_packet(7, 1, p).is_none(), "CSI of {zero:?}");
        }
        // A NaN among zeros is counted once, as non-finite.
        let mut p = packet();
        p.csi = CMat::zeros(3, 30);
        p.csi[(1, 4)] = c64::new(f64::NAN, 0.0);
        assert!(reg.fleet_packet(7, 1, p).is_none());
        let (zero_after, nan_after) = (
            total("ingest.rejected.zero_csi"),
            total("ingest.rejected.non_finite_csi"),
        );
        spotfi_obs::set_enabled(false);
        assert!(
            zero_after >= zero_before + 3,
            "{zero_after} after {zero_before}"
        );
        assert!(nan_after > nan_before, "{nan_after} after {nan_before}");
        // One nonzero entry is enough to pass.
        let mut p = packet();
        p.csi = CMat::zeros(3, 30);
        p.csi[(2, 29)] = c64::new(0.0, 1e-300);
        assert!(reg.fleet_packet(7, 1, p).is_some());
    }

    #[test]
    fn calibration_applies_during_conversion() {
        let mut reg = ReceiverRegistry::new();
        reg.register(
            2,
            array(),
            ReceiverCalibration {
                rssi_offset_db: 2.0,
                time_offset_s: 0.5,
                ..Default::default()
            },
        );
        let fp = reg.fleet_packet(2, 9, packet()).unwrap();
        assert!((fp.packet.rssi_dbm - -48.0).abs() < 1e-12);
        assert!((fp.packet.timestamp_s - 2.0).abs() < 1e-12);
    }
}
