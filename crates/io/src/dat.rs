//! `.dat` file framing.
//!
//! A CSI Tool trace is a sequence of records:
//!
//! ```text
//! ┌────────────────┬──────┬─────────────────┐
//! │ u16 BE length  │ code │ length−1 bytes  │  …repeated…
//! └────────────────┴──────┴─────────────────┘
//! ```
//!
//! Only code `0xBB` (beamforming report) is meaningful to SpotFi; other
//! codes are skipped, and a trailing partial record (a capture cut off
//! mid-write, which real logs routinely contain) ends the stream quietly.
//! A zero length field, which no well-formed record has, slides the scan
//! forward one byte until plausible framing reappears.

use std::io::{self, Write};
use std::path::Path;

use crate::bfee::{BfeeRecord, BFEE_CODE};

/// Reads all beamforming records from a `.dat` byte stream. Malformed
/// `0xBB` records are skipped (counted in the second tuple element), other
/// record codes are ignored.
///
/// ```
/// use spotfi_io::{read_dat, write_dat, BfeeRecord};
/// use spotfi_math::{c64, CMat};
///
/// let record = BfeeRecord {
///     timestamp_low: 123,
///     bfee_count: 1,
///     nrx: 3,
///     ntx: 1,
///     rssi_a: 40, rssi_b: 38, rssi_c: 41,
///     noise: -92,
///     agc: 30,
///     antenna_sel: 0b100100,
///     rate: 0x1bb,
///     csi: CMat::from_fn(3, 30, |m, n| c64::new(m as f64 + 1.0, n as f64 - 15.0)),
///     extra_streams: Vec::new(),
/// };
/// let bytes = write_dat(&[record.clone()]);
/// let (back, skipped) = read_dat(&bytes);
/// assert_eq!(skipped, 0);
/// assert_eq!(back[0].timestamp_low, 123);
/// ```
pub fn read_dat(bytes: &[u8]) -> (Vec<BfeeRecord>, usize) {
    let mut records = Vec::new();
    let mut malformed = 0;
    let mut pos = 0;
    while bytes.len() - pos >= 2 {
        let len = u16::from_be_bytes([bytes[pos], bytes[pos + 1]]) as usize;
        if len == 0 {
            // Corrupt framing: no valid record has a zero length. Slide one
            // byte and look again, so garbage can never stall the scan.
            pos += 1;
            continue;
        }
        let end = pos + 2 + len;
        if end > bytes.len() {
            break; // A capture cut off mid-record.
        }
        if bytes[pos + 2] == BFEE_CODE {
            match BfeeRecord::parse(&bytes[pos + 3..end]) {
                Ok(r) => records.push(r),
                Err(_) => malformed += 1,
            }
        }
        pos = end;
    }
    (records, malformed)
}

/// Reads a `.dat` file from disk: the whole file in one read, then
/// [`read_dat`]. Malformed records are dropped uncounted.
pub fn read_dat_file(path: impl AsRef<Path>) -> io::Result<Vec<BfeeRecord>> {
    Ok(read_dat(&std::fs::read(path)?).0)
}

/// Serializes beamforming records into `.dat` framing.
pub fn write_dat(records: &[BfeeRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        let body = r.serialize();
        let len = (body.len() + 1) as u16; // +1 for the code byte
        out.extend_from_slice(&len.to_be_bytes());
        out.push(BFEE_CODE);
        out.extend_from_slice(&body);
    }
    out
}

/// Writes records to a `.dat` file on disk.
pub fn write_dat_file(path: impl AsRef<Path>, records: &[BfeeRecord]) -> io::Result<()> {
    let bytes = write_dat(records);
    std::fs::File::create(path)?.write_all(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotfi_math::{c64, CMat};

    fn record(count: u16) -> BfeeRecord {
        BfeeRecord {
            timestamp_low: 1_000_000 + count as u32,
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
            csi: CMat::from_fn(3, 30, |r, c| {
                c64::new((r as f64 + 1.0) * 10.0, c as f64 - 15.0)
            }),
            extra_streams: Vec::new(),
        }
    }

    #[test]
    fn file_roundtrip() {
        let recs: Vec<BfeeRecord> = (0..5).map(record).collect();
        let bytes = write_dat(&recs);
        let (back, skipped) = read_dat(&bytes);
        assert_eq!(skipped, 0);
        assert_eq!(back.len(), 5);
        for (a, b) in recs.iter().zip(&back) {
            assert_eq!(a.bfee_count, b.bfee_count);
            assert!((&a.csi - &b.csi).max_abs() < 1e-12);
        }
    }

    #[test]
    fn disk_roundtrip() {
        let recs: Vec<BfeeRecord> = (0..3).map(record).collect();
        let path = std::env::temp_dir().join("spotfi_io_test.dat");
        write_dat_file(&path, &recs).unwrap();
        let back = read_dat_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), 3);
        assert_eq!(back[2].timestamp_low, recs[2].timestamp_low);
    }

    #[test]
    fn skips_unknown_codes() {
        let mut bytes = Vec::new();
        // Unknown record: code 0xC1, 4 bytes body.
        bytes.extend_from_slice(&5u16.to_be_bytes());
        bytes.push(0xC1);
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        // Then one good record.
        bytes.extend_from_slice(&write_dat(&[record(7)]));
        let (recs, skipped) = read_dat(&bytes);
        assert_eq!(recs.len(), 1);
        assert_eq!(skipped, 0);
        assert_eq!(recs[0].bfee_count, 7);
    }

    #[test]
    fn tolerates_trailing_partial_record() {
        let mut bytes = write_dat(&[record(1), record(2)]);
        let full_len = bytes.len();
        bytes.extend_from_slice(&write_dat(&[record(3)])[..20]); // cut off
        let (recs, _) = read_dat(&bytes);
        assert_eq!(recs.len(), 2);
        assert!(bytes.len() > full_len);
    }

    #[test]
    fn counts_malformed_bfee_records() {
        let mut good = write_dat(&[record(1)]);
        // Corrupt the nrx field of the framed record (offset: 2 len + 1
        // code + 8).
        good[2 + 1 + 8] = 9;
        let (recs, skipped) = read_dat(&good);
        assert!(recs.is_empty());
        assert_eq!(skipped, 1);
    }

    #[test]
    fn zero_length_framing_resyncs_without_spinning() {
        let mut bytes = vec![0u8; 7]; // zero length fields: pure desync
        bytes.extend_from_slice(&write_dat(&[record(9)]));
        let (recs, malformed) = read_dat(&bytes);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].bfee_count, 9);
        assert_eq!(malformed, 0);
    }

    #[test]
    fn empty_input() {
        let (recs, skipped) = read_dat(&[]);
        assert!(recs.is_empty());
        assert_eq!(skipped, 0);
    }
}
