//! Bridging CSI Tool records and the workspace's [`CsiPacket`] type, in
//! both directions:
//!
//! * [`to_csi_packets`] — run the SpotFi pipeline on real hardware traces;
//! * [`from_csi_packet`] — export simulated traces as `.dat` files the
//!   reference MATLAB tooling (and this crate) can read back.

use spotfi_channel::CsiPacket;

use crate::bfee::BfeeRecord;
use crate::scale::scaled_csi;

/// Converts parsed records into [`CsiPacket`]s ready for
/// `spotfi_core::SpotFi`. CSI is converted to scaled form; timestamps are
/// rebased to the first record and unwrapped across the NIC's 32-bit
/// microsecond counter wraps.
pub fn to_csi_packets(records: &[BfeeRecord]) -> Vec<CsiPacket> {
    let Some(first) = records.first() else {
        return Vec::new();
    };
    let t0 = first.timestamp_low;
    let mut wraps = 0u64;
    let mut prev = t0;
    records
        .iter()
        .map(|r| {
            if r.timestamp_low < prev {
                wraps += 1;
            }
            prev = r.timestamp_low;
            let micros = (r.timestamp_low as u64 + (wraps << 32)).wrapping_sub(t0 as u64) as f64;
            packet_from_record(r, micros / 1e6)
        })
        .collect()
}

/// Converts one record into a [`CsiPacket`] at an externally supplied
/// timestamp. [`to_csi_packets`] supplies the unwrapped NIC counter; the
/// wire-ingest path supplies the frame header's capture clock, because the
/// NIC's 32-bit counter is not trusted across receivers.
pub fn packet_from_record(record: &BfeeRecord, timestamp_s: f64) -> CsiPacket {
    CsiPacket {
        csi: scaled_csi(record),
        rssi_dbm: record.total_rssi_dbm(),
        timestamp_s,
        injected_sto_s: 0.0, // Unknown for real captures.
    }
}

/// Converts a (typically simulated) packet into a beamforming record whose
/// raw CSI occupies the NIC's 8-bit range. RSSI is encoded into `rssi_a`
/// with the reference −44 dB offset and the given AGC. The timestamp is
/// written in µs modulo 2³², as the NIC's 32-bit counter wraps.
pub fn from_csi_packet(packet: &CsiPacket, bfee_count: u16, agc: u8) -> BfeeRecord {
    // Map CSI into the i8 range like the firmware's AGC would.
    let max = packet
        .csi
        .as_slice()
        .iter()
        .map(|z| z.re.abs().max(z.im.abs()))
        .fold(0.0f64, f64::max)
        .max(1e-30);
    let csi = packet.csi.scale(spotfi_math::c64::real(127.0 / max));

    // total_rssi_dbm inverts as: rssi_a = rssi_dbm + 44 + agc (single
    // antenna contribution).
    let rssi_a = (packet.rssi_dbm + 44.0 + agc as f64)
        .round()
        .clamp(1.0, 255.0) as u8;

    BfeeRecord {
        timestamp_low: (packet.timestamp_s * 1e6) as u64 as u32,
        bfee_count,
        nrx: csi.rows() as u8,
        ntx: 1,
        rssi_a,
        rssi_b: 0,
        rssi_c: 0,
        noise: -92,
        agc,
        antenna_sel: 0b100100, // identity permutation
        rate: 0x1bb,
        csi,
        extra_streams: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotfi_channel::Rng;
    use spotfi_channel::{AntennaArray, Floorplan, PacketTrace, Point, TraceConfig};

    fn simulated_packets(n: usize) -> Vec<CsiPacket> {
        let plan = Floorplan::empty();
        let array = AntennaArray::intel5300(
            Point::new(0.0, 0.0),
            std::f64::consts::FRAC_PI_2,
            spotfi_channel::constants::DEFAULT_CARRIER_HZ,
        );
        let mut rng = Rng::seed_from_u64(21);
        PacketTrace::generate(
            &plan,
            Point::new(2.0, 6.0),
            &array,
            &TraceConfig::commodity(),
            n,
            &mut rng,
        )
        .unwrap()
        .packets
    }

    #[test]
    fn export_import_preserves_phase_structure() {
        let packets = simulated_packets(5);
        let records: Vec<BfeeRecord> = packets
            .iter()
            .enumerate()
            .map(|(i, p)| from_csi_packet(p, i as u16, 30))
            .collect();
        let bytes = crate::dat::write_dat(&records);
        let (back, skipped) = crate::dat::read_dat(&bytes);
        assert_eq!(skipped, 0);
        let restored = to_csi_packets(&back);
        assert_eq!(restored.len(), packets.len());
        // The 8-bit export quantizes amplitude, but relative phases (all
        // SpotFi uses) must survive within quantization error.
        for (orig, rest) in packets.iter().zip(&restored) {
            for n in 0..30 {
                let od = (orig.csi[(1, n)] * orig.csi[(0, n)].conj()).arg();
                let rd = (rest.csi[(1, n)] * rest.csi[(0, n)].conj()).arg();
                assert!(
                    spotfi_math::unwrap::wrap_phase(od - rd).abs() < 0.1,
                    "phase diff at sc {}: {} vs {}",
                    n,
                    od,
                    rd
                );
            }
        }
    }

    #[test]
    fn rssi_roundtrips_within_rounding() {
        let packets = simulated_packets(3);
        for p in &packets {
            let r = from_csi_packet(p, 0, 30);
            assert!(
                (r.total_rssi_dbm() - p.rssi_dbm).abs() < 1.0,
                "RSSI {} vs {}",
                r.total_rssi_dbm(),
                p.rssi_dbm
            );
        }
    }

    #[test]
    fn empty_record_list_converts_to_empty() {
        assert!(to_csi_packets(&[]).is_empty());
    }

    #[test]
    fn timestamps_rebase_and_unwrap() {
        let mk = |ts: u32| BfeeRecord {
            timestamp_low: ts,
            ..from_csi_packet(&simulated_packets(1)[0], 0, 30)
        };
        // Counter wraps between the 2nd and 3rd packet.
        let records = vec![mk(u32::MAX - 100), mk(u32::MAX - 50), mk(10)];
        let packets = to_csi_packets(&records);
        assert!((packets[0].timestamp_s - 0.0).abs() < 1e-9);
        assert!(packets[1].timestamp_s > 0.0);
        assert!(
            packets[2].timestamp_s > packets[1].timestamp_s,
            "wrap not handled: {} then {}",
            packets[1].timestamp_s,
            packets[2].timestamp_s
        );
    }

    #[test]
    fn export_wraps_timestamps_past_the_32_bit_counter() {
        // 2³² µs is 4294.97 s: the second and third packets wrap, and must
        // read back 1 s and 2 s after the first, not pinned at `u32::MAX`.
        let packet = simulated_packets(1).remove(0);
        let records: Vec<BfeeRecord> = [4294.0, 4295.0, 4296.0]
            .iter()
            .map(|&timestamp_s| {
                let p = CsiPacket {
                    timestamp_s,
                    ..packet.clone()
                };
                from_csi_packet(&p, 0, 30)
            })
            .collect();
        let (back, _) = crate::dat::read_dat(&crate::dat::write_dat(&records));
        let restored = to_csi_packets(&back);
        for (p, want) in restored.iter().zip([0.0, 1.0, 2.0]) {
            assert!(
                (p.timestamp_s - want).abs() <= 1e-6,
                "read back {} s, want {} s",
                p.timestamp_s,
                want
            );
        }
        assert_eq!(restored.len(), 3);
    }

    #[test]
    fn spotfi_runs_on_reimported_trace() {
        // The real point of this crate: a .dat round trip must remain
        // analyzable by the SpotFi pipeline with sensible results.
        use spotfi_core::{ApPackets, SpotFi, SpotFiConfig};
        let array = AntennaArray::intel5300(
            Point::new(0.0, 0.0),
            std::f64::consts::FRAC_PI_2,
            spotfi_channel::constants::DEFAULT_CARRIER_HZ,
        );
        let packets = simulated_packets(8);
        let records: Vec<BfeeRecord> = packets
            .iter()
            .enumerate()
            .map(|(i, p)| from_csi_packet(p, i as u16, 30))
            .collect();
        let restored = to_csi_packets(&crate::dat::read_dat(&crate::dat::write_dat(&records)).0);
        let spotfi = SpotFi::new(SpotFiConfig::fast_test());
        let analysis = spotfi
            .analyze_ap(&ApPackets {
                array,
                packets: restored,
            })
            .unwrap();
        let direct = analysis.direct.expect("direct path from .dat trace");
        let truth = array.aoa_from_deg(Point::new(2.0, 6.0));
        assert!(
            (direct.aoa_deg - truth).abs() < 6.0,
            "AoA {} vs truth {}",
            direct.aoa_deg,
            truth
        );
    }
}
