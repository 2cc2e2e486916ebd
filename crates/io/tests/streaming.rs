//! Property/fuzz suites for the `spotfi-wire-v1` framing, plus a garbage
//! fuzz of the one-pass `.dat` reader, with the golden Intel 5300 capture
//! as the oracle. However a wire byte stream is cut into chunks, the
//! decoded frames must match one-shot decoding, and garbage / truncation /
//! CRC corruption must error loudly, resynchronize on the next valid
//! frame, and never panic or spin. `.dat` captures are read whole, so
//! chunk splits apply to wire frames only.

use spotfi_channel::Rng;
use spotfi_io::{
    encode_frame, fragment, mangle_frames, read_dat, ChaosConfig, WireDecoder, WireEvent, WireFrame,
};

const GOLDEN: &[u8] = include_bytes!("fixtures/golden_intel5300.dat");

#[test]
fn dat_garbage_fuzz_never_panics_or_stalls() {
    let mut rng = Rng::seed_from_u64(0xDA7);
    for _ in 0..64 {
        let n = 1 + (rng.next_u64() % 2048) as usize;
        let garbage: Vec<u8> = (0..n).map(|_| (rng.next_u64() >> 32) as u8).collect();
        // Garbage followed by a valid capture, parsed whole.
        let mut bytes = garbage;
        bytes.extend_from_slice(GOLDEN);
        let (records, _) = read_dat(&bytes);
        // Garbage may alias plausible framing that swallows the capture's
        // first record(s), but the reader must terminate and everything it
        // does emit must be structurally valid.
        for r in &records {
            assert!((1..=3).contains(&r.nrx) && (1..=3).contains(&r.ntx));
        }
    }
}

/// Wire frames built from the golden capture's records.
fn golden_wire_frames() -> Vec<Vec<u8>> {
    let (records, _) = read_dat(GOLDEN);
    records
        .iter()
        .enumerate()
        .map(|(i, r)| encode_frame(i as u16, 1000 + i as u64, i as f64 * 0.01, r))
        .collect()
}

fn decode_wire(chunks: &[&[u8]]) -> (Vec<WireFrame>, spotfi_io::WireStats) {
    let mut dec = WireDecoder::new();
    let mut frames = Vec::new();
    let mut sink = |e: WireEvent| {
        if let WireEvent::Frame(f) = e {
            frames.push(*f);
        }
    };
    for chunk in chunks {
        dec.feed(chunk, &mut sink);
    }
    dec.finish(&mut sink);
    (frames, dec.stats())
}

#[test]
fn wire_split_at_every_offset_matches_oneshot() {
    let bytes: Vec<u8> = golden_wire_frames().concat();
    let (oneshot, _) = decode_wire(&[&bytes]);
    assert_eq!(oneshot.len(), 4);
    for cut in 0..=bytes.len() {
        let (streamed, stats) = decode_wire(&[&bytes[..cut], &bytes[cut..]]);
        assert_eq!(streamed.len(), 4, "split at byte {cut}");
        for (a, b) in oneshot.iter().zip(&streamed) {
            assert_eq!(a.record, b.record, "split at byte {cut}");
            assert_eq!(a.receiver_id, b.receiver_id);
            assert_eq!(a.timestamp_s.to_bits(), b.timestamp_s.to_bits());
        }
        assert_eq!(stats.received, stats.decoded);
    }
}

#[test]
fn wire_chaos_accounting_identity_holds_under_any_mangling() {
    // A longer stream than the golden capture alone: the records cycled
    // ten times with distinct addressing, 40 frames.
    let (records, _) = read_dat(GOLDEN);
    let frames: Vec<Vec<u8>> = (0..40)
        .map(|i| {
            encode_frame(
                (i % 8) as u16,
                i as u64,
                i as f64 * 0.01,
                &records[i % records.len()],
            )
        })
        .collect();
    for seed in 0..48u64 {
        let cfg = ChaosConfig {
            seed,
            drop_rate: 0.15,
            corrupt_rate: 0.25,
            truncate_rate: 0.15,
            reorder_window: 3,
        };
        let (mangled, report) = mangle_frames(&frames, &cfg);
        let bytes: Vec<u8> = mangled.concat();
        let chunks = fragment(&bytes, seed ^ 0xF00D, 1, 53);
        let views: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let (decoded, stats) = decode_wire(&views);
        assert_eq!(
            stats.received,
            stats.decoded + stats.corrupt + stats.incomplete,
            "seed {seed}: accounting identity broken: {stats:?}"
        );
        // The decoder's headline contract: chaos only ever costs the
        // frames it actually touched. Every intact frame decodes (CRC
        // rescan mid-stream, finish-time salvage at the tail), and no
        // faulty frame ever decodes.
        let intact = frames.len() as u64 - report.dropped - report.corrupted - report.truncated;
        assert_eq!(
            stats.decoded, intact,
            "seed {seed}: decoded {} of {} intact frames ({report:?}, {stats:?})",
            stats.decoded, intact
        );
        // Every present-but-faulty frame is decided loudly, never silently
        // skipped (spurious in-payload magics can only add counts).
        assert!(
            stats.corrupt + stats.incomplete >= report.corrupted + report.truncated,
            "seed {seed}: {stats:?} vs {report:?}"
        );
        for f in &decoded {
            assert!((1..=3).contains(&f.record.nrx), "seed {seed}: bad decode");
        }
    }
}

#[test]
fn wire_resyncs_after_corrupt_frame_without_spinning() {
    let frames = golden_wire_frames();
    // Corrupt the *length field* of frame 1 — the worst case, because a
    // trusted-but-wrong length would swallow the following frames.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&frames[0]);
    let mut bad = frames[1].clone();
    bad[24] = 0xFF;
    bad[25] = 0xFF;
    bytes.extend_from_slice(&bad);
    bytes.extend_from_slice(&frames[2]);
    bytes.extend_from_slice(&frames[3]);
    let (decoded, stats) = decode_wire(&[&bytes]);
    let ids: Vec<u16> = decoded.iter().map(|f| f.receiver_id).collect();
    assert!(
        ids.contains(&0) && ids.contains(&2) && ids.contains(&3),
        "frames after the corrupted one must be recovered: {ids:?}"
    );
    // The bogus length swallowed the tail, so the bad frame surfaces as
    // either corrupt (mid-stream CRC failure) or incomplete (finish-time
    // salvage) — loudly, either way.
    assert!(stats.corrupt + stats.incomplete >= 1);
    assert_eq!(
        stats.received,
        stats.decoded + stats.corrupt + stats.incomplete
    );
}

#[test]
fn wire_pure_garbage_terminates_with_zero_frames() {
    let mut rng = Rng::seed_from_u64(0x6A5B);
    let garbage: Vec<u8> = (0..16384).map(|_| (rng.next_u64() >> 24) as u8).collect();
    let chunks = fragment(&garbage, 1, 1, 511);
    let views: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
    let (decoded, stats) = decode_wire(&views);
    assert!(decoded.is_empty());
    assert_eq!(stats.decoded, 0);
    assert_eq!(stats.bytes, 16384);
}
