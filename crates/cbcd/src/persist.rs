//! Persistence of the reference database.
//!
//! A monitoring deployment fingerprints its archive once (days of compute at
//! the paper's 75,000-hour scale) and reuses it across restarts. This module
//! saves and loads the complete [`ReferenceDb`] — records, video names,
//! interest-point positions and the extraction parameters (the candidate
//! pipeline must match the reference pipeline exactly, so parameters travel
//! with the data).
//!
//! Current format `S3REFDB2` (single file, little-endian):
//!
//! ```text
//! magic "S3REFDB2"
//! payload length u64
//! payload:
//!   extractor params (fixed-width fields)
//!   name count u32, then per name: byte length u32 + UTF-8 bytes
//!   record batch (s3-core columnar encoding)
//!   positions: one (u16, u16) pair per record, in batch order
//! CRC-32 of the payload, u32
//! ```
//!
//! The declared length plus trailing CRC-32 turn truncation and bit rot into
//! clean [`PersistError`]s instead of silently different databases. The
//! legacy `S3REFDB1` layout (same payload, no length, no CRC) still loads,
//! with a warning routed through the `s3-obs` event sink (stderr by
//! default). [`ReferenceDb::save`] is atomic: a sibling temp file is written
//! and fsynced, then renamed over the destination, so a crash mid-save never
//! clobbers the previous good database.

use crate::registry::{DbBuilder, ReferenceDb};
use bytes::{Buf, BufMut};
use s3_core::crc::crc32;
use s3_core::storage::write_atomic;
use s3_core::RecordBatch;
use s3_video::{ExtractorParams, FINGERPRINT_DIMS};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC_V2: &[u8; 8] = b"S3REFDB2";
const MAGIC_V1: &[u8; 8] = b"S3REFDB1";

/// Errors raised while saving or loading a [`ReferenceDb`].
#[derive(Debug)]
pub enum PersistError {
    /// An underlying I/O operation failed (cause preserved).
    Io(io::Error),
    /// The file is not a readable reference database: wrong magic, impossible
    /// field, or a size inconsistent with its own header.
    Format {
        /// What was wrong.
        detail: String,
    },
    /// The payload failed CRC verification — the file is corrupt.
    Checksum {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload as read.
        computed: u32,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "reference db i/o error: {e}"),
            PersistError::Format { detail } => write!(f, "bad reference db file: {detail}"),
            PersistError::Checksum { stored, computed } => write!(
                f,
                "reference db payload checksum mismatch: stored {stored:#010x}, \
                 computed {computed:#010x}"
            ),
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn bad(detail: impl Into<String>) -> PersistError {
    PersistError::Format {
        detail: detail.into(),
    }
}

fn put_params(buf: &mut Vec<u8>, p: &ExtractorParams) {
    buf.put_f32_le(p.keyframes.smooth_sigma);
    buf.put_u32_le(p.keyframes.min_gap as u32);
    buf.put_f32_le(p.harris.derivation_sigma);
    buf.put_f32_le(p.harris.integration_sigma);
    buf.put_f32_le(p.harris.k);
    buf.put_u32_le(p.harris.max_points as u32);
    buf.put_u32_le(p.harris.border as u32);
    buf.put_f32_le(p.harris.relative_threshold);
    buf.put_f32_le(p.fingerprint.spatial_offset);
    buf.put_i32_le(p.fingerprint.temporal_offset as i32);
    buf.put_f32_le(p.fingerprint.sigma);
}

fn get_params(buf: &mut &[u8]) -> Option<ExtractorParams> {
    if buf.remaining() < 4 * 11 {
        return None;
    }
    let mut p = ExtractorParams::default();
    p.keyframes.smooth_sigma = buf.get_f32_le();
    p.keyframes.min_gap = buf.get_u32_le() as usize;
    p.harris.derivation_sigma = buf.get_f32_le();
    p.harris.integration_sigma = buf.get_f32_le();
    p.harris.k = buf.get_f32_le();
    p.harris.max_points = buf.get_u32_le() as usize;
    p.harris.border = buf.get_u32_le() as usize;
    p.harris.relative_threshold = buf.get_f32_le();
    p.fingerprint.spatial_offset = buf.get_f32_le();
    p.fingerprint.temporal_offset = buf.get_i32_le() as isize;
    p.fingerprint.sigma = buf.get_f32_le();
    Some(p)
}

impl ReferenceDb {
    /// Serialises the version-independent payload.
    fn encode_payload(&self) -> Vec<u8> {
        let mut buf: Vec<u8> = Vec::new();
        put_params(&mut buf, self.extractor_params());
        buf.put_u32_le(self.video_count() as u32);
        for id in 0..self.video_count() as u32 {
            let Some(n) = self.name(id) else {
                // Ids are dense by construction of the registry.
                unreachable!("dense ids")
            };
            buf.put_u32_le(n.len() as u32);
            buf.put_slice(n.as_bytes());
        }
        self.index().records().encode_into(&mut buf);
        for i in 0..self.index().len() {
            let (x, y) = self.position(i);
            buf.put_u16_le(x);
            buf.put_u16_le(y);
        }
        buf
    }

    /// Parses the version-independent payload.
    fn decode_payload(mut buf: &[u8]) -> Result<ReferenceDb, PersistError> {
        let buf = &mut buf;
        let params = get_params(buf).ok_or_else(|| bad("truncated params"))?;
        if buf.remaining() < 4 {
            return Err(bad("truncated name count"));
        }
        let n_names = buf.get_u32_le() as usize;
        let mut names = Vec::with_capacity(n_names.min(1 << 20));
        for _ in 0..n_names {
            if buf.remaining() < 4 {
                return Err(bad("truncated name length"));
            }
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err(bad("truncated name"));
            }
            let name = std::str::from_utf8(&buf[..len])
                .map_err(|_| bad("non-UTF8 name"))?
                .to_string();
            buf.advance(len);
            names.push(name);
        }
        let batch = RecordBatch::decode_from(buf).ok_or_else(|| bad("truncated records"))?;
        if batch.dims() != FINGERPRINT_DIMS {
            return Err(bad("unexpected fingerprint dimension"));
        }
        if buf.remaining() < batch.len() * 4 {
            return Err(bad("truncated positions"));
        }
        let positions: Vec<(u16, u16)> = (0..batch.len())
            .map(|_| (buf.get_u16_le(), buf.get_u16_le()))
            .collect();
        if buf.remaining() > 0 {
            return Err(bad("trailing bytes after positions"));
        }

        // Rebuild through the registry so internal invariants (sorted index,
        // aligned positions) are re-established by construction.
        Ok(DbBuilder::rehydrate(params, names, batch, positions))
    }

    /// Serialises the database into a writer, in the current checksummed
    /// format.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let payload = self.encode_payload();
        w.write_all(MAGIC_V2)?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(&payload)?;
        w.write_all(&crc32(&payload).to_le_bytes())
    }

    /// Saves the database to a file, atomically: the bytes land in a sibling
    /// temp file which is fsynced and renamed over `path`, so a crash
    /// mid-save leaves any previous database intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let mut bytes = Vec::new();
        self.write_to(&mut bytes)?;
        Ok(write_atomic(path.as_ref(), &bytes)?)
    }

    /// Deserialises a database written by [`ReferenceDb::write_to`] (or by
    /// the legacy v1 writer, accepted with a warning).
    pub fn read_from(r: &mut impl Read) -> Result<ReferenceDb, PersistError> {
        let mut raw = Vec::new();
        r.read_to_end(&mut raw)?;
        if raw.len() < 8 {
            return Err(bad("truncated magic"));
        }
        let (magic, rest) = raw.split_at(8);
        if magic == MAGIC_V1 {
            s3_obs::event::warn(
                "persist",
                "opening legacy S3REFDB1 reference db (no checksum); \
                 re-save to gain corruption detection",
            );
            return Self::decode_payload(rest);
        }
        if magic != MAGIC_V2 {
            return Err(bad("bad magic"));
        }
        if rest.len() < 8 + 4 {
            return Err(bad("truncated payload length"));
        }
        let (len_raw, rest) = rest.split_at(8);
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(len_raw);
        let payload_len = usize::try_from(u64::from_le_bytes(len8))
            .map_err(|_| bad("payload length overflows"))?;
        if rest.len() != payload_len + 4 {
            return Err(bad(format!(
                "file size mismatch: payload claims {payload_len} bytes \
                 (truncated or trailing data)"
            )));
        }
        let (payload, crc_raw) = rest.split_at(payload_len);
        let mut crc4 = [0u8; 4];
        crc4.copy_from_slice(crc_raw);
        let stored = u32::from_le_bytes(crc4);
        let computed = crc32(payload);
        if stored != computed {
            s3_core::CoreMetrics::get().crc_failures.inc();
            return Err(PersistError::Checksum { stored, computed });
        }
        Self::decode_payload(payload)
    }

    /// Loads a database from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<ReferenceDb, PersistError> {
        let mut f = File::open(path)?;
        ReferenceDb::read_from(&mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{Detector, DetectorConfig};
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

    #[test]
    fn save_load_roundtrip_preserves_everything() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.write_to(&mut buf).unwrap();
        let back = ReferenceDb::read_from(&mut buf.as_slice()).unwrap();

        assert_eq!(back.video_count(), db.video_count());
        assert_eq!(back.fingerprint_count(), db.fingerprint_count());
        for id in 0..db.video_count() as u32 {
            assert_eq!(back.name(id), db.name(id));
        }
        // Records and positions must survive, as (fingerprint, id, tc, x, y)
        // multisets (the sort is deterministic, so order matches too).
        for i in 0..db.index().len() {
            assert_eq!(
                back.index().records().record(i),
                db.index().records().record(i)
            );
            assert_eq!(back.position(i), db.position(i));
        }
        // Extraction parameters travel with the data.
        assert_eq!(
            back.extractor_params().harris.max_points,
            db.extractor_params().harris.max_points
        );
        assert_eq!(
            back.extractor_params().fingerprint.sigma,
            db.extractor_params().fingerprint.sigma
        );
    }

    #[test]
    fn loaded_db_detects_like_the_original() {
        let db = sample_db();
        let path = std::env::temp_dir().join(format!("s3_refdb_{}.bin", std::process::id()));
        db.save(&path).unwrap();
        // Atomicity: no temp file lingers next to the destination.
        let mut tmp = path.file_name().unwrap().to_os_string();
        tmp.push(".tmp");
        assert!(!path.with_file_name(tmp).exists());
        let loaded = ReferenceDb::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let mut cfg = DetectorConfig::default();
        cfg.vote.min_votes = 8;
        let copy = ProceduralVideo::new(96, 72, 50, 0x9E5 + (1 << 10));
        let a = Detector::new(&db, cfg.clone()).detect_video(&copy);
        let b = Detector::new(&loaded, cfg).detect_video(&copy);
        assert_eq!(a, b, "loaded database must behave identically");
        assert!(a.iter().any(|d| d.id == 1));
    }

    #[test]
    fn legacy_v1_files_still_load() {
        let db = sample_db();
        // Hand-roll a v1 file: old magic + bare payload.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC_V1);
        v1.extend_from_slice(&db.encode_payload());
        let back = ReferenceDb::read_from(&mut v1.as_slice()).unwrap();
        assert_eq!(back.video_count(), db.video_count());
        assert_eq!(back.fingerprint_count(), db.fingerprint_count());
    }

    #[test]
    fn corrupted_inputs_rejected() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.write_to(&mut buf).unwrap();

        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(ReferenceDb::read_from(&mut bad.as_slice()).is_err());
        // Truncations at several depths.
        for cut in [4usize, 20, 60, buf.len() - 3] {
            let mut t = buf.clone();
            t.truncate(cut);
            assert!(
                ReferenceDb::read_from(&mut t.as_slice()).is_err(),
                "cut at {cut} accepted"
            );
        }
        // Any payload bit flip is caught by the CRC; a flip in the declared
        // length is caught by the size check.
        for byte in [9usize, 20, buf.len() / 2, buf.len() - 6] {
            let mut t = buf.clone();
            t[byte] ^= 0x10;
            assert!(
                ReferenceDb::read_from(&mut t.as_slice()).is_err(),
                "flip at {byte} accepted"
            );
        }
        // A legacy file has no checksum in front of its record header: a
        // count whose byte size wraps to 0 must be refused, not allocated.
        let mut crafted = MAGIC_V1.to_vec();
        put_params(&mut crafted, db.extractor_params());
        crafted.put_u32_le(0); // no names
        crafted.put_u32_le(FINGERPRINT_DIMS as u32);
        crafted.put_u64_le(1 << 62); // × (20 + 8) bytes a record ≡ 0 mod 2^64
        assert!(matches!(
            ReferenceDb::read_from(&mut crafted.as_slice()),
            Err(PersistError::Format { .. })
        ));
    }
}
