//! `spotfi-wire-v1` — length-prefixed, CRC-checked framing for forwarding
//! CSI records from receivers to a central fleet engine over TCP/UDS.
//!
//! ### Frame layout (little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic            "SFW1"
//! 4       1     version          1
//! 5       1     frame_type       1 = Intel 5300 bfee record
//! 6       2     receiver_id      which physical receiver (→ AP identity)
//! 8       8     source_id        transmitter identity (→ fleet target id)
//! 16      8     timestamp_s      receiver capture clock, f64 bits
//! 24      4     payload_len      bytes of payload (≤ 1 MiB)
//! 28      len   payload          BfeeRecord::serialize() bytes
//! 28+len  4     crc32            IEEE CRC-32 over bytes [4, 28+len)
//! ```
//!
//! The magic is *outside* the CRC so a corrupted stream can be re-scanned
//! for it; everything else, header included, is covered.
//!
//! ### Resynchronization rules
//!
//! * Bytes before a magic are garbage (counted in
//!   [`WireStats::resync_bytes`]), not frames.
//! * A frame whose version/type/length field is implausible, or whose CRC
//!   does not match, is counted `corrupt`; the scan then restarts one byte
//!   past the magic (the length field cannot be trusted), so a single
//!   corrupted frame never swallows the frames after it.
//! * A CRC-valid frame whose payload fails [`BfeeRecord::parse`] is also
//!   `corrupt`, but its framing was authenticated, so the full frame is
//!   skipped.
//!
//! ### Accounting
//!
//! Every frame the decoder sees is counted exactly once:
//! `received = decoded + corrupt + incomplete` (the last counts a partial
//! frame cut off at [`WireDecoder::finish`]). The same identity is
//! published on the `ingest.*` observability counters and enforced by
//! `spotfi_obs::validate_diagnostics` / `spotfi check-diagnostics`, plus a
//! per-receiver `ingest.rx<id>.decoded` breakdown.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::bfee::{BfeeRecord, ParseError};

/// Frame magic, scanned for during resync.
pub const WIRE_MAGIC: [u8; 4] = *b"SFW1";
/// Current wire protocol version.
pub const WIRE_VERSION: u8 = 1;
/// Frame type: one Intel 5300 beamforming record.
pub const FRAME_BFEE: u8 = 1;
/// Fixed header bytes before the payload.
pub const HEADER_LEN: usize = 28;
/// CRC trailer bytes.
pub const TRAILER_LEN: usize = 4;
/// Upper bound on `payload_len`; larger values are treated as corruption
/// (a real bfee record is ≤ ~64 KiB by its u16 length fields).
pub const MAX_PAYLOAD: usize = 1 << 20;

/// IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

static CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// One decoded wire frame: the addressing header plus the record.
#[derive(Clone, Debug)]
pub struct WireFrame {
    /// Which receiver forwarded the frame (maps to an AP id).
    pub receiver_id: u16,
    /// Transmitter identity (maps to a fleet target id).
    pub source_id: u64,
    /// Receiver capture timestamp, seconds (exact f64 bits on the wire).
    pub timestamp_s: f64,
    /// The beamforming record.
    pub record: BfeeRecord,
}

/// Why a frame was counted corrupt.
#[derive(Clone, Debug, PartialEq)]
pub enum CorruptKind {
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown frame type byte.
    BadFrameType(u8),
    /// `payload_len` above [`MAX_PAYLOAD`].
    OversizedPayload(usize),
    /// CRC trailer does not match the header + payload bytes.
    CrcMismatch {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried in the trailer.
        stored: u32,
    },
    /// CRC was valid but the payload is not a parseable record.
    BadPayload(ParseError),
}

/// One event from the wire scan.
#[derive(Clone, Debug)]
pub enum WireEvent {
    /// A CRC-valid, parseable frame.
    Frame(Box<WireFrame>),
    /// A frame counted corrupt (see [`CorruptKind`]); the stream resyncs.
    Corrupt(CorruptKind),
    /// End of stream cut a frame off mid-transfer.
    Incomplete {
        /// Bytes of the partial frame that were buffered.
        buffered: usize,
    },
}

/// Running accounting; the `ingest.*` counters mirror these fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Total bytes fed.
    pub bytes: u64,
    /// Frames whose fate was decided: `decoded + corrupt + incomplete`.
    pub received: u64,
    /// Frames decoded into a [`WireFrame`].
    pub decoded: u64,
    /// Frames rejected (bad version/type/length, CRC mismatch, bad
    /// payload).
    pub corrupt: u64,
    /// Partial frames cut off at [`WireDecoder::finish`].
    pub incomplete: u64,
    /// Garbage bytes skipped while hunting for a magic.
    pub resync_bytes: u64,
}

/// Encodes one record as a `spotfi-wire-v1` frame.
pub fn encode_frame(
    receiver_id: u16,
    source_id: u64,
    timestamp_s: f64,
    record: &BfeeRecord,
) -> Vec<u8> {
    let payload = record.serialize();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(FRAME_BFEE);
    out.extend_from_slice(&receiver_id.to_le_bytes());
    out.extend_from_slice(&source_id.to_le_bytes());
    out.extend_from_slice(&timestamp_s.to_bits().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Interns a per-receiver counter name: `spotfi_obs::counter` takes
/// `&'static str`, so dynamic receiver ids are leaked once and cached.
fn rx_decoded_counter(receiver_id: u16) -> &'static str {
    static NAMES: Mutex<BTreeMap<u16, &'static str>> = Mutex::new(BTreeMap::new());
    let mut names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
    names
        .entry(receiver_id)
        .or_insert_with(|| Box::leak(format!("ingest.rx{receiver_id}.decoded").into_boxed_str()))
}

/// Incremental `spotfi-wire-v1` decoder; see the module docs. Frames fully
/// contained in a fed chunk are parsed in place; only a trailing partial
/// frame is buffered (bounded by [`MAX_PAYLOAD`]).
#[derive(Debug, Default)]
pub struct WireDecoder {
    pending: Vec<u8>,
    stats: WireStats,
}

impl WireDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Running stats.
    pub fn stats(&self) -> WireStats {
        self.stats
    }

    /// Bytes currently buffered as a partial frame.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Feeds one chunk, invoking `on` for every completed event. Chunk
    /// boundaries are arbitrary.
    pub fn feed(&mut self, chunk: &[u8], on: &mut dyn FnMut(WireEvent)) {
        self.stats.bytes += chunk.len() as u64;
        let mut input = chunk;
        while !input.is_empty() && !self.pending.is_empty() {
            let need = Self::frame_need(&self.pending).max(1);
            let take = need.min(input.len());
            self.pending.extend_from_slice(&input[..take]);
            input = &input[take..];
            let consumed = scan(&self.pending, &mut self.stats, &mut *on);
            self.pending.drain(..consumed);
        }
        if self.pending.is_empty() {
            let consumed = scan(input, &mut self.stats, &mut *on);
            self.pending.extend_from_slice(&input[consumed..]);
        }
    }

    /// Ends the stream: a buffered partial frame (with a valid magic) is
    /// counted `received` + `incomplete`; shorter leftovers count as
    /// resync garbage. A partial frame's length field cannot be trusted —
    /// it may itself be the corrupted byte, shadowing complete frames
    /// behind a bogus extent — so after reporting it the tail is rescanned
    /// past its magic and any CRC-valid frames it hid are salvaged. The
    /// decoder is reusable afterwards.
    pub fn finish(&mut self, on: &mut dyn FnMut(WireEvent)) {
        while !self.pending.is_empty() {
            if self.pending.len() >= WIRE_MAGIC.len() && self.pending[..4] == WIRE_MAGIC {
                self.stats.received += 1;
                self.stats.incomplete += 1;
                spotfi_obs::counter("ingest.received", 1);
                spotfi_obs::counter("ingest.incomplete", 1);
                on(WireEvent::Incomplete {
                    buffered: self.pending.len(),
                });
                self.pending.drain(..1);
                self.stats.resync_bytes += 1;
                let consumed = scan(&self.pending, &mut self.stats, &mut *on);
                self.pending.drain(..consumed);
            } else {
                self.stats.resync_bytes += self.pending.len() as u64;
                self.pending.clear();
            }
        }
    }

    /// How many more bytes the buffered partial frame needs. `pending` is
    /// always either a magic-prefix tail (< 4 bytes), a partial header, or
    /// a sane-header partial frame — the scan consumed everything else.
    fn frame_need(pending: &[u8]) -> usize {
        if pending.len() < HEADER_LEN {
            return HEADER_LEN - pending.len();
        }
        let len = u32::from_le_bytes([pending[24], pending[25], pending[26], pending[27]]) as usize;
        (HEADER_LEN + len + TRAILER_LEN).saturating_sub(pending.len())
    }
}

/// Scans `bytes` for complete frames, returns bytes consumed. Stops before
/// a trailing partial frame or a possible magic prefix.
fn scan(bytes: &[u8], stats: &mut WireStats, on: &mut dyn FnMut(WireEvent)) -> usize {
    let mut pos = 0usize;
    loop {
        // Hunt for the magic; bytes before it are resync garbage.
        match bytes[pos..]
            .windows(WIRE_MAGIC.len())
            .position(|w| w == WIRE_MAGIC)
        {
            Some(off) => {
                stats.resync_bytes += off as u64;
                pos += off;
            }
            None => {
                // Keep the longest tail that is a proper magic prefix: it
                // may complete in the next chunk.
                let tail = magic_prefix_tail(&bytes[pos..]);
                let consumed_to = bytes.len() - tail;
                stats.resync_bytes += (consumed_to - pos) as u64;
                return consumed_to;
            }
        }
        if bytes.len() - pos < HEADER_LEN {
            return pos; // Partial header; buffer the tail.
        }
        let h = &bytes[pos..pos + HEADER_LEN];
        let version = h[4];
        let frame_type = h[5];
        let payload_len = u32::from_le_bytes([h[24], h[25], h[26], h[27]]) as usize;
        let reject = if version != WIRE_VERSION {
            Some(CorruptKind::BadVersion(version))
        } else if frame_type != FRAME_BFEE {
            Some(CorruptKind::BadFrameType(frame_type))
        } else if payload_len > MAX_PAYLOAD {
            Some(CorruptKind::OversizedPayload(payload_len))
        } else {
            None
        };
        if let Some(kind) = reject {
            count_corrupt(stats, kind, on);
            pos += 1; // Untrusted header: rescan from inside it.
            continue;
        }
        let frame_end = pos + HEADER_LEN + payload_len + TRAILER_LEN;
        if frame_end > bytes.len() {
            return pos; // Partial frame; buffer the tail.
        }
        let body = &bytes[pos + 4..frame_end - TRAILER_LEN];
        let stored = u32::from_le_bytes([
            bytes[frame_end - 4],
            bytes[frame_end - 3],
            bytes[frame_end - 2],
            bytes[frame_end - 1],
        ]);
        let computed = crc32(body);
        if computed != stored {
            count_corrupt(stats, CorruptKind::CrcMismatch { computed, stored }, on);
            pos += 1; // Length field may be the corrupted byte: rescan.
            continue;
        }
        let receiver_id = u16::from_le_bytes([h[6], h[7]]);
        let source_id = u64::from_le_bytes([h[8], h[9], h[10], h[11], h[12], h[13], h[14], h[15]]);
        let timestamp_s = f64::from_bits(u64::from_le_bytes([
            h[16], h[17], h[18], h[19], h[20], h[21], h[22], h[23],
        ]));
        match BfeeRecord::parse(&bytes[pos + HEADER_LEN..frame_end - TRAILER_LEN]) {
            Ok(record) => {
                stats.received += 1;
                stats.decoded += 1;
                spotfi_obs::counter("ingest.received", 1);
                spotfi_obs::counter("ingest.decoded", 1);
                if spotfi_obs::enabled() {
                    spotfi_obs::counter(rx_decoded_counter(receiver_id), 1);
                }
                on(WireEvent::Frame(Box::new(WireFrame {
                    receiver_id,
                    source_id,
                    timestamp_s,
                    record,
                })));
                pos = frame_end; // Authenticated framing: trust it.
            }
            Err(e) => {
                count_corrupt(stats, CorruptKind::BadPayload(e), on);
                pos = frame_end; // CRC passed, so the framing is sound.
            }
        }
    }
}

fn count_corrupt(stats: &mut WireStats, kind: CorruptKind, on: &mut dyn FnMut(WireEvent)) {
    stats.received += 1;
    stats.corrupt += 1;
    spotfi_obs::counter("ingest.received", 1);
    spotfi_obs::counter("ingest.corrupt", 1);
    on(WireEvent::Corrupt(kind));
}

/// Length of the longest suffix of `bytes` that is a proper prefix of the
/// magic (0–3 bytes): the only bytes a magic hunt must keep.
fn magic_prefix_tail(bytes: &[u8]) -> usize {
    for keep in (1..WIRE_MAGIC.len()).rev() {
        if bytes.len() >= keep && bytes[bytes.len() - keep..] == WIRE_MAGIC[..keep] {
            return keep;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotfi_math::{c64, CMat};

    fn record(count: u16) -> BfeeRecord {
        BfeeRecord {
            timestamp_low: 7 + count as u32,
            bfee_count: count,
            nrx: 3,
            ntx: 1,
            rssi_a: 35,
            rssi_b: 33,
            rssi_c: 36,
            noise: -92,
            agc: 28,
            antenna_sel: 0b100100,
            rate: 0x100,
            csi: CMat::from_fn(3, 30, |r, c| c64::new(r as f64 + 1.0, c as f64 - 15.0)),
            extra_streams: Vec::new(),
        }
    }

    fn decode_all(chunks: &[&[u8]]) -> (Vec<WireFrame>, WireStats) {
        let mut dec = WireDecoder::new();
        let mut frames = Vec::new();
        for chunk in chunks {
            dec.feed(chunk, &mut |e| {
                if let WireEvent::Frame(f) = e {
                    frames.push(*f);
                }
            });
        }
        dec.finish(&mut |_| {});
        (frames, dec.stats())
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_preserves_header_and_record() {
        let rec = record(5);
        let bytes = encode_frame(17, 0xABCD_EF01, 1.25, &rec);
        let (frames, stats) = decode_all(&[&bytes]);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].receiver_id, 17);
        assert_eq!(frames[0].source_id, 0xABCD_EF01);
        assert_eq!(frames[0].timestamp_s.to_bits(), 1.25f64.to_bits());
        assert_eq!(frames[0].record, rec);
        assert_eq!(stats.received, 1);
        assert_eq!(stats.decoded, 1);
    }

    #[test]
    fn chunked_delivery_is_equivalent() {
        let mut bytes = Vec::new();
        for i in 0..4 {
            bytes.extend_from_slice(&encode_frame(i, i as u64, i as f64, &record(i)));
        }
        let whole = decode_all(&[&bytes]).0;
        for step in [1usize, 3, 7, 64] {
            let chunks: Vec<&[u8]> = bytes.chunks(step).collect();
            let (frames, stats) = decode_all(&chunks);
            assert_eq!(frames.len(), whole.len(), "chunk size {}", step);
            for (a, b) in whole.iter().zip(&frames) {
                assert_eq!(a.record, b.record);
                assert_eq!(a.receiver_id, b.receiver_id);
            }
            assert_eq!(
                stats.received,
                stats.decoded + stats.corrupt + stats.incomplete
            );
        }
    }

    #[test]
    fn corrupted_byte_is_detected_and_stream_resyncs() {
        let a = encode_frame(1, 1, 0.0, &record(1));
        let b = encode_frame(2, 2, 0.1, &record(2));
        let c = encode_frame(3, 3, 0.2, &record(3));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&a);
        let mut bad = b.clone();
        bad[40] ^= 0x5A; // inside the payload: CRC must catch it
        bytes.extend_from_slice(&bad);
        bytes.extend_from_slice(&c);
        let (frames, stats) = decode_all(&[&bytes]);
        assert_eq!(frames.len(), 2, "frames 1 and 3 must survive");
        assert_eq!(frames[0].receiver_id, 1);
        assert_eq!(frames[1].receiver_id, 3);
        assert!(stats.corrupt >= 1);
        assert_eq!(
            stats.received,
            stats.decoded + stats.corrupt + stats.incomplete
        );
    }

    #[test]
    fn garbage_and_truncation_never_panic() {
        let mut bytes = vec![0x55u8; 97]; // garbage prefix
        bytes.extend_from_slice(&encode_frame(4, 4, 0.4, &record(4)));
        let tail = encode_frame(5, 5, 0.5, &record(5));
        bytes.extend_from_slice(&tail[..tail.len() / 2]); // cut mid-frame
        let mut dec = WireDecoder::new();
        let mut frames = 0usize;
        let mut incomplete = false;
        dec.feed(&bytes, &mut |e| {
            if matches!(e, WireEvent::Frame(_)) {
                frames += 1;
            }
        });
        dec.finish(&mut |e| {
            if matches!(e, WireEvent::Incomplete { .. }) {
                incomplete = true;
            }
        });
        assert_eq!(frames, 1);
        assert!(incomplete);
        let s = dec.stats();
        assert_eq!(s.received, s.decoded + s.corrupt + s.incomplete);
        assert!(s.resync_bytes >= 97);
    }
}
