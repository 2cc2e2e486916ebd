//! Shard determinism extended to network ingest: the same wire-frame
//! stream delivered over a unix socketpair — with arbitrary kernel
//! re-chunking — must produce `to_bits`-identical per-target updates to
//! decoding the same bytes directly in process. Transport must be
//! invisible to the pipeline.
#![cfg(unix)]

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;

use spotfi::channel::{AntennaArray, Floorplan, PacketTrace, Point, Rng, TraceConfig};
use spotfi::core::fleet::{run_fleet_serial, FleetPacket, FleetUpdate};
use spotfi::core::{FleetConfig, ReceiverCalibration, ReceiverRegistry, SpotFi, SpotFiConfig};
use spotfi::io::{encode_frame, from_csi_packet, packet_from_record, WireDecoder, WireEvent};

fn open_area_aps() -> Vec<AntennaArray> {
    let hz = spotfi::channel::constants::DEFAULT_CARRIER_HZ;
    vec![
        AntennaArray::intel5300(Point::new(0.0, 0.0), 45f64.to_radians(), hz),
        AntennaArray::intel5300(Point::new(12.0, 0.0), 135f64.to_radians(), hz),
        AntennaArray::intel5300(Point::new(12.0, 10.0), 225f64.to_radians(), hz),
        AntennaArray::intel5300(Point::new(0.0, 10.0), 315f64.to_radians(), hz),
    ]
}

/// The wire capture: every (target, AP) link of two static targets,
/// interleaved in arrival order and serialized as spotfi-wire-v1 frames.
fn wire_capture(targets: &[Point], packets_per_link: usize, seed: u64) -> Vec<u8> {
    let plan = Floorplan::empty();
    let aps = open_area_aps();
    let mut schedule = Vec::new();
    for (t, &pos) in targets.iter().enumerate() {
        for (a, array) in aps.iter().enumerate() {
            let mut rng = Rng::seed_from_u64(seed ^ ((t as u64) << 8) ^ a as u64);
            let trace = PacketTrace::generate(
                &plan,
                pos,
                array,
                &TraceConfig::commodity(),
                packets_per_link,
                &mut rng,
            )
            .expect("free space is always audible");
            for mut packet in trace.packets {
                packet.timestamp_s += a as f64 * 1e-4;
                schedule.push((t as u64, a as u16, packet));
            }
        }
    }
    schedule.sort_by(|x, y| {
        x.2.timestamp_s
            .total_cmp(&y.2.timestamp_s)
            .then(x.0.cmp(&y.0))
    });
    let mut bytes = Vec::new();
    for (i, (target, ap, packet)) in schedule.iter().enumerate() {
        let record = from_csi_packet(packet, i as u16, 30);
        bytes.extend_from_slice(&encode_frame(*ap, *target, packet.timestamp_s, &record));
    }
    bytes
}

fn registry() -> ReceiverRegistry {
    let mut reg = ReceiverRegistry::new();
    for (a, array) in open_area_aps().into_iter().enumerate() {
        reg.register(a as u32, array, ReceiverCalibration::default());
    }
    reg
}

/// Decodes wire bytes (delivered as the given chunks) into fleet packets.
fn decode_chunks(chunks: &mut dyn Iterator<Item = &[u8]>) -> Vec<FleetPacket> {
    let reg = registry();
    let mut dec = WireDecoder::new();
    let mut packets = Vec::new();
    let mut sink = |e: WireEvent| {
        if let WireEvent::Frame(f) = e {
            let p = packet_from_record(&f.record, f.timestamp_s);
            if let Some(fp) = reg.fleet_packet(f.receiver_id as u32, f.source_id, p) {
                packets.push(fp);
            }
        }
    };
    for chunk in chunks {
        dec.feed(chunk, &mut sink);
    }
    dec.finish(&mut sink);
    let stats = dec.stats();
    assert_eq!(stats.corrupt, 0, "clean capture must decode cleanly");
    assert_eq!(stats.incomplete, 0);
    packets
}

fn by_target(updates: &[FleetUpdate]) -> BTreeMap<u64, Vec<FleetUpdate>> {
    let mut map: BTreeMap<u64, Vec<FleetUpdate>> = BTreeMap::new();
    for u in updates {
        map.entry(u.target_id).or_default().push(*u);
    }
    map
}

#[test]
fn socket_delivery_is_bit_identical_to_in_process_injection() {
    let targets = [Point::new(4.0, 4.0), Point::new(8.0, 6.0)];
    let bytes = wire_capture(&targets, 12, 0xDE7);

    // Arm 1: the whole capture decoded in process, one shot.
    let direct = decode_chunks(&mut std::iter::once(bytes.as_slice()));
    assert!(!direct.is_empty());

    // Arm 2: the same bytes pushed through a unix socketpair. The writer
    // fragments into deliberately awkward sizes; the kernel is free to
    // coalesce or split further — the decoder must not care.
    let (mut tx, mut rx) = UnixStream::pair().expect("socketpair");
    let writer_bytes = bytes.clone();
    let writer = std::thread::spawn(move || {
        let sizes = [1usize, 7, 13, 31, 97, 251, 3, 64];
        let mut off = 0;
        let mut i = 0;
        while off < writer_bytes.len() {
            let n = sizes[i % sizes.len()].min(writer_bytes.len() - off);
            tx.write_all(&writer_bytes[off..off + n])
                .expect("socket write");
            off += n;
            i += 1;
        }
        // Dropping tx closes the stream: EOF is the shutdown signal.
    });
    let mut received = Vec::new();
    let mut chunk_sizes = Vec::new();
    let mut buf = [0u8; 57];
    loop {
        let n = rx.read(&mut buf).expect("socket read");
        if n == 0 {
            break;
        }
        chunk_sizes.push(n);
        received.push(buf[..n].to_vec());
    }
    writer.join().expect("writer thread");
    assert_eq!(received.concat(), bytes, "transport must be lossless");
    let streamed = decode_chunks(&mut received.iter().map(|c| c.as_slice()));

    // The decoded packet streams agree exactly…
    assert_eq!(direct.len(), streamed.len());
    for (a, b) in direct.iter().zip(&streamed) {
        assert_eq!(a.target_id, b.target_id);
        assert_eq!(a.ap_id, b.ap_id);
        assert_eq!(
            a.packet.timestamp_s.to_bits(),
            b.packet.timestamp_s.to_bits()
        );
        assert_eq!(a.packet.rssi_dbm.to_bits(), b.packet.rssi_dbm.to_bits());
        for (x, y) in a.packet.csi.as_slice().iter().zip(b.packet.csi.as_slice()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    // …and so do the fleet results, bit for bit.
    let cfg = FleetConfig {
        workers: 1,
        queue_capacity: 4096,
        fusion_interval: 8,
        window_packets: 4,
        ..FleetConfig::default()
    };
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    let (direct_updates, direct_stats) = run_fleet_serial(&spotfi, &cfg, &direct);
    let (streamed_updates, streamed_stats) = run_fleet_serial(&spotfi, &cfg, &streamed);
    assert!(!direct_updates.is_empty(), "reference emitted no updates");
    assert_eq!(direct_stats.processed, streamed_stats.processed);
    assert_eq!(direct_stats.updates, streamed_stats.updates);

    let (reference, got) = (by_target(&direct_updates), by_target(&streamed_updates));
    assert_eq!(
        reference.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>()
    );
    for (target, ref_seq) in &reference {
        let got_seq = &got[target];
        assert_eq!(ref_seq.len(), got_seq.len(), "target {target} update count");
        for (i, (a, b)) in ref_seq.iter().zip(got_seq).enumerate() {
            assert_eq!(
                a.raw.position.x.to_bits(),
                b.raw.position.x.to_bits(),
                "t{target} u{i}"
            );
            assert_eq!(
                a.raw.position.y.to_bits(),
                b.raw.position.y.to_bits(),
                "t{target} u{i}"
            );
            assert_eq!(a.raw.cost.to_bits(), b.raw.cost.to_bits(), "t{target} u{i}");
            assert_eq!(
                a.tracked.x.to_bits(),
                b.tracked.x.to_bits(),
                "t{target} u{i}"
            );
            assert_eq!(
                a.tracked.y.to_bits(),
                b.tracked.y.to_bits(),
                "t{target} u{i}"
            );
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            assert_eq!(a.aps_used, b.aps_used);
        }
    }
}
