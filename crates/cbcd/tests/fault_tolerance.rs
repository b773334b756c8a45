//! Corruption properties of the archive file (`S3IDX005`).
//!
//! Every byte of a saved archive is covered by the header-and-table CRC,
//! a data-block CRC, the CRC-table CRC, the trailer's declared length or
//! the trailer CRC, so *any* truncation and *any* single bit flip must come
//! back from [`ReferenceDb::load`] as a clean [`IndexError`] — never a
//! panic, never a silently different database — and a flip never as a raw
//! I/O error.

use proptest::prelude::*;
use s3_cbcd::{DbBuilder, ReferenceDb};
use s3_core::IndexError;
use s3_testkit::TempDir;
use s3_video::{ExtractorParams, FINGERPRINT_DIMS};
use std::sync::OnceLock;

/// A small but non-trivial database (raw fingerprints, no video pipeline),
/// saved once.
fn saved_bytes() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut s = 0x00DB_5EED_u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut builder = DbBuilder::new(ExtractorParams::default());
        for v in 0..3 {
            let n = 40 + v * 10;
            let fps: Vec<u8> = (0..n * FINGERPRINT_DIMS)
                .map(|_| (next() >> 24) as u8)
                .collect();
            let tcs: Vec<u32> = (0..n as u32).map(|t| t * 3).collect();
            builder.add_raw(&format!("clip-{v}"), &fps, &tcs);
        }
        let dir = TempDir::new("archive-bytes");
        let path = dir.join("archive.s3i");
        builder.build().save(&path).unwrap();
        std::fs::read(&path).unwrap()
    })
}

/// Loads `bytes` as an archive file.
fn load(bytes: &[u8]) -> Result<ReferenceDb, IndexError> {
    let dir = TempDir::new("archive-load");
    let path = dir.join("archive.s3i");
    std::fs::write(&path, bytes).unwrap();
    ReferenceDb::load(&path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A file cut at any byte offset is rejected.
    #[test]
    fn truncation_at_any_offset_is_rejected(frac in 0.0f64..1.0) {
        let bytes = saved_bytes();
        let cut = (frac * bytes.len() as f64) as usize;
        prop_assert!(cut < bytes.len());
        match load(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "truncation to {cut}/{} bytes must not load", bytes.len()),
        }
    }

    /// Any single bit flip is rejected as a format or checksum error: no
    /// byte of an archive is unprotected, and no corrupt header field
    /// sizes a read past the end.
    #[test]
    fn any_single_bit_flip_is_rejected(frac in 0.0f64..1.0, bit in 0u8..8) {
        let bytes = saved_bytes();
        let byte = ((frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= 1 << bit;
        match load(&corrupt) {
            Err(IndexError::Io(e)) => {
                prop_assert!(false, "flip at byte {byte} bit {bit} surfaced as raw io: {e}")
            }
            Err(_) => {}
            Ok(_) => prop_assert!(false, "flip at byte {byte} bit {bit} loaded cleanly"),
        }
    }
}

/// The clean bytes still round-trip (the baseline the properties lean on).
#[test]
fn clean_bytes_round_trip() {
    let bytes = saved_bytes();
    assert_eq!(&bytes[..8], b"S3IDX005");
    let db = load(bytes).unwrap();
    assert_eq!(db.video_count(), 3);
    assert_eq!(db.name(0), Some("clip-0"));
    assert_eq!(db.fingerprint_count(), 40 + 50 + 60);
}
