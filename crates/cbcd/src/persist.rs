//! The archive file: one index file holds the whole [`ReferenceDb`].
//!
//! A monitoring deployment fingerprints its archive once (days of compute at
//! the paper's 75,000-hour scale) and reuses it across restarts.
//! [`ReferenceDb::save`] writes an `S3IDX005` file: the pseudo-disk index
//! that `s3cbcd query` and `info` read ([`s3_core::pseudo_disk`]), followed
//! by a CRC-checked trailer with what the detector needs beyond the index.
//! The extraction parameters are part of it because a candidate must be
//! fingerprinted exactly as the references were. Trailer payload
//! (little-endian):
//!
//! ```text
//! extractor params   11 × 4 bytes (fixed-width fields)
//! name count u32, then per name: byte length u32 + UTF-8 bytes
//! positions          one (x u16, y u16) pair per record, in stored order
//! ```
//!
//! [`ReferenceDb::load`] reads the records back in stored order
//! ([`DiskIndex::to_index`]): nothing is re-sorted. A plain index file
//! (`S3IDX001` to `S3IDX004`, as `DiskIndex::write` emits) loads as an
//! archive too, each id named by its decimal number, with default
//! extraction parameters and zero positions. A truncated, bit-flipped or
//! inconsistent file is an [`IndexError`], never a panic and never a
//! different database.

use crate::registry::ReferenceDb;
use s3_core::pseudo_disk::{DiskIndex, WriteOpts};
use s3_core::storage::write_atomic;
use s3_core::IndexError;
use s3_video::{ExtractorParams, FINGERPRINT_DIMS};
use std::path::Path;

fn bad(detail: impl Into<String>) -> IndexError {
    IndexError::Format {
        detail: detail.into(),
    }
}

fn put_params(buf: &mut Vec<u8>, p: &ExtractorParams) {
    for word in [
        p.keyframes.smooth_sigma.to_le_bytes(),
        (p.keyframes.min_gap as u32).to_le_bytes(),
        p.harris.derivation_sigma.to_le_bytes(),
        p.harris.integration_sigma.to_le_bytes(),
        p.harris.k.to_le_bytes(),
        (p.harris.max_points as u32).to_le_bytes(),
        (p.harris.border as u32).to_le_bytes(),
        p.harris.relative_threshold.to_le_bytes(),
        p.fingerprint.spatial_offset.to_le_bytes(),
        (p.fingerprint.temporal_offset as i32).to_le_bytes(),
        p.fingerprint.sigma.to_le_bytes(),
    ] {
        buf.extend_from_slice(&word);
    }
}

fn get_params(buf: &mut &[u8]) -> Option<ExtractorParams> {
    let mut words = [[0u8; 4]; 11];
    for word in &mut words {
        *word = take(buf)?;
    }
    let f = |i: usize| f32::from_le_bytes(words[i]);
    let u = |i: usize| u32::from_le_bytes(words[i]) as usize;
    let mut p = ExtractorParams::default();
    p.keyframes.smooth_sigma = f(0);
    p.keyframes.min_gap = u(1);
    p.harris.derivation_sigma = f(2);
    p.harris.integration_sigma = f(3);
    p.harris.k = f(4);
    p.harris.max_points = u(5);
    p.harris.border = u(6);
    p.harris.relative_threshold = f(7);
    p.fingerprint.spatial_offset = f(8);
    p.fingerprint.temporal_offset = i32::from_le_bytes(words[9]) as isize;
    p.fingerprint.sigma = f(10);
    Some(p)
}

/// Splits the first `N` bytes off the front of `buf`, or `None` if it holds
/// fewer.
fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = { *buf }.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

/// The trailer payload of an archive: parameters, names by id, and one
/// position per record in stored order.
fn encode_trailer(params: &ExtractorParams, names: &[String], positions: &[(u16, u16)]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_params(&mut buf, params);
    buf.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in names {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
    }
    for (x, y) in positions {
        buf.extend_from_slice(&x.to_le_bytes());
        buf.extend_from_slice(&y.to_le_bytes());
    }
    buf
}

/// Extraction parameters, names by id and positions in stored order.
type Parts = (ExtractorParams, Vec<String>, Vec<(u16, u16)>);

/// Parses a trailer payload.
fn decode_trailer(mut buf: &[u8]) -> Option<Parts> {
    let buf = &mut buf;
    let params = get_params(buf)?;
    let n_names = u32::from_le_bytes(take(buf)?) as usize;
    // Each name takes at least its 4-byte length.
    let mut names = Vec::with_capacity(n_names.min(buf.len() / 4));
    for _ in 0..n_names {
        let len = u32::from_le_bytes(take(buf)?) as usize;
        let (name, rest) = { *buf }.split_at_checked(len)?;
        names.push(std::str::from_utf8(name).ok()?.to_string());
        *buf = rest;
    }
    let mut positions = Vec::with_capacity(buf.len() / 4);
    while let Some([x0, x1, y0, y1]) = take(buf) {
        positions.push((u16::from_le_bytes([x0, x1]), u16::from_le_bytes([y0, y1])));
    }
    buf.is_empty().then_some((params, names, positions))
}

impl ReferenceDb {
    /// Saves the database as one `S3IDX005` archive file, atomically: the
    /// bytes land in a sibling temp file which is fsynced and renamed over
    /// `path`, so a crash mid-save leaves any previous file intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), IndexError> {
        let trailer = encode_trailer(self.extractor_params(), self.names(), self.positions());
        let bytes = DiskIndex::encode_with_trailer(self.index(), WriteOpts::default(), &trailer)?;
        Ok(write_atomic(path.as_ref(), &bytes)?)
    }

    /// Loads a database from an index file: an archive written by
    /// [`ReferenceDb::save`], or a plain index file (numeric names, default
    /// extraction parameters, zero positions).
    pub fn load(path: impl AsRef<Path>) -> Result<ReferenceDb, IndexError> {
        let disk = DiskIndex::open(path)?;
        if (disk.curve().dims(), disk.curve().order()) != (FINGERPRINT_DIMS, 8) {
            return Err(bad("the index does not hold byte fingerprints"));
        }
        let trailer = disk.trailer()?;
        let index = disk.to_index()?;
        let (params, names, positions) = match trailer {
            Some(t) => decode_trailer(&t).ok_or_else(|| bad("malformed archive trailer"))?,
            None => {
                // Dense ids name themselves; a larger id than the record
                // count is a corrupt column, not a table to allocate.
                let ids = index.records().ids();
                let count = ids.iter().max().map_or(0, |&id| id as usize + 1);
                if count > index.len() {
                    return Err(bad(format!("{count} ids for {} records", index.len())));
                }
                let names = (0..count).map(|id| id.to_string()).collect();
                (ExtractorParams::default(), names, vec![(0, 0); index.len()])
            }
        };
        ReferenceDb::from_parts(index, names, params, positions).map_err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{Detector, DetectorConfig};
    use crate::registry::DbBuilder;
    use s3_core::{RecordBatch, S3Index};
    use s3_hilbert::HilbertCurve;
    use s3_video::ProceduralVideo;

    fn sample_db() -> ReferenceDb {
        let mut p = ExtractorParams::default();
        p.harris.max_points = 7;
        let mut b = DbBuilder::new(p);
        for i in 0..3u64 {
            let v = ProceduralVideo::new(96, 72, 50, 0x9E5 + (i << 10));
            b.add_video(&format!("vid-{i}"), &v);
        }
        b.build()
    }

    fn params(db: &ReferenceDb) -> String {
        format!("{:?}", db.extractor_params())
    }

    #[test]
    fn save_load_roundtrip_preserves_everything() {
        let db = sample_db();
        let dir = s3_testkit::TempDir::new("archive");
        let path = dir.join("archive.s3i");
        db.save(&path).unwrap();
        let back = ReferenceDb::load(&path).unwrap();

        assert_eq!(back.names(), db.names());
        // Records, prefixes and positions come back in stored order: the
        // curve's axis order is read, nothing is re-sorted.
        assert_eq!(back.index().curve(), db.index().curve());
        assert_eq!(back.index().prefixes(), db.index().prefixes());
        assert_eq!(back.index().records(), db.index().records());
        assert_eq!(back.positions(), db.positions());
        // Extraction parameters travel with the data.
        assert_eq!(params(&back), params(&db));
    }

    #[test]
    fn loaded_db_detects_like_the_original() {
        let db = sample_db();
        let dir = s3_testkit::TempDir::new("archive-detect");
        let path = dir.join("archive.s3i");
        db.save(&path).unwrap();
        // Atomicity: no temp file lingers next to the destination.
        let mut tmp = path.file_name().unwrap().to_os_string();
        tmp.push(".tmp");
        assert!(!path.with_file_name(tmp).exists());
        let loaded = ReferenceDb::load(&path).unwrap();

        let mut cfg = DetectorConfig::default();
        cfg.vote.min_votes = 8;
        let copy = ProceduralVideo::new(96, 72, 50, 0x9E5 + (1 << 10));
        let a = Detector::new(&db, cfg.clone()).detect_video(&copy);
        let b = Detector::new(&loaded, cfg).detect_video(&copy);
        assert_eq!(a, b, "loaded database must behave identically");
        assert!(a.iter().any(|d| d.id == 1));
    }

    /// Plain index files load as archives with numeric names, default
    /// extraction parameters and zero positions: a legacy `S3IDX001`
    /// (identity order, no checksums) written here, and the committed
    /// `tests/data/plain_v4.s3i`, an `S3IDX004` (table depth 4, 256-byte
    /// blocks) of the 24 records rebuilt below.
    #[test]
    fn legacy_v1_files_still_load() {
        let db = sample_db();
        let index = S3Index::build_on(HilbertCurve::paper(), db.index().records().clone());
        let dir = s3_testkit::TempDir::new("v1");
        let path = dir.join("legacy.s3i");
        DiskIndex::write_v1(&index, &path).unwrap();
        let back = ReferenceDb::load(&path).unwrap();
        assert_eq!(back.names(), ["0", "1", "2"]);
        assert_eq!(back.index().records(), index.records());
        assert_eq!(back.position(0), (0, 0));

        let mut s = 0x00F1_C5EE_u64;
        let mut byte = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        };
        let mut batch = RecordBatch::new(FINGERPRINT_DIMS);
        for i in 0..24u32 {
            let fp: Vec<u8> = (0..FINGERPRINT_DIMS).map(|_| byte()).collect();
            batch.push(&fp, i / 8, (i % 8) * 5);
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/plain_v4.s3i");
        assert_eq!(&std::fs::read(path).unwrap()[..8], b"S3IDX004");
        let v4 = ReferenceDb::load(path).unwrap();
        assert_eq!(v4.names(), ["0", "1", "2"]);
        assert_eq!(params(&v4), format!("{:?}", ExtractorParams::default()));
        let want = S3Index::build(HilbertCurve::paper(), batch);
        assert_eq!(v4.index().records(), want.records());
        assert!(v4.positions().iter().all(|&p| p == (0, 0)));
    }

    fn is_format(r: Result<ReferenceDb, IndexError>) -> bool {
        matches!(r, Err(IndexError::Format { .. }))
    }

    /// Files whose every checksum holds but that are not an archive of
    /// fingerprints: each is a format error, never a panic. (Cuts and bit
    /// flips are `tests/fault_tolerance.rs`'s properties.)
    #[test]
    fn corrupted_inputs_rejected() {
        // A trailer naming fewer videos than the records use, and one a
        // position short.
        let db = sample_db();
        let dir = s3_testkit::TempDir::new("corrupt");
        let path = dir.join("archive.s3i");
        let (params, names, positions) = (db.extractor_params(), db.names(), db.positions());
        for trailer in [
            encode_trailer(params, &names[..2], positions),
            encode_trailer(params, names, &positions[1..]),
        ] {
            let bytes = DiskIndex::encode_with_trailer(db.index(), WriteOpts::default(), &trailer);
            std::fs::write(&path, bytes.unwrap()).unwrap();
            assert!(is_format(ReferenceDb::load(&path)));
        }

        // A plain index of the wrong dimension, and one whose id column
        // names more videos than it has records (which must not size a
        // name table).
        let mut narrow = RecordBatch::new(6);
        narrow.push(&[1, 2, 3, 4, 5, 6], 0, 0);
        DiskIndex::write(
            &S3Index::build(HilbertCurve::new(6, 8).unwrap(), narrow),
            &path,
        )
        .unwrap();
        assert!(is_format(ReferenceDb::load(&path)));
        let mut wild = RecordBatch::new(FINGERPRINT_DIMS);
        wild.push(&[7; FINGERPRINT_DIMS], u32::MAX - 1, 0);
        DiskIndex::write(&S3Index::build(HilbertCurve::paper(), wild), &path).unwrap();
        assert!(is_format(ReferenceDb::load(&path)));
    }
}
