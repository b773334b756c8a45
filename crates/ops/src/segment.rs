//! CRC-framed, atomically-rotated segment files — the shared durability
//! layer under [`crate::tsdb`] and [`crate::slowlog`].
//!
//! The format uses the WAL/sidecar idioms of `s3-core` (magic + version
//! header, per-record CRC, torn-tail truncation on open) on plain
//! `std::fs`. The record frame and its scan are [`s3_obs::frame`], the
//! codec the core WAL appends and recovers with too.
//!
//! ## On-disk format
//!
//! Each segment file is `<prefix>-NNNNNN.seg`:
//!
//! ```text
//! header : magic "S3TSEG01" (8) | version u32 LE (=1) | reserved u32 LE
//! record : len u32 LE | kind u8 | payload (len-1 bytes) | crc32 u32 LE
//! ```
//!
//! `len` counts `kind + payload`; the CRC (IEEE, the same polynomial as
//! the core WAL) covers `kind + payload`. A record is therefore
//! `4 + len + 4` bytes on disk. New segments are created atomically
//! (temp file + fsync + rename + parent-dir sync), so a crash never
//! leaves a header-less segment visible; a crash mid-append leaves a
//! torn tail that the next [`SegmentStore::open`] detects by CRC and
//! truncates away. Readers in *other* processes ([`read_records`]) stop
//! at the first bad frame without modifying the file.
//!
//! Rotation closes the active segment when it reaches
//! [`SegmentConfig::segment_bytes`] and applies retention: oldest whole
//! segments are deleted while the store exceeds
//! [`SegmentConfig::max_total_bytes`] or a segment's records are older
//! than [`SegmentConfig::max_age`].

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use s3_core::storage::write_atomic;
use s3_obs::{event, frame, registry, Counter, Gauge};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"S3TSEG01";
/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Bytes of fixed header before the first record.
pub const SEGMENT_HEADER_LEN: usize = 16;
/// Sanity cap on a single record's `kind + payload` length.
const MAX_RECORD_LEN: usize = 16 * 1024 * 1024;

/// Size/age policy for a [`SegmentStore`].
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Delete oldest segments while the store's total exceeds this.
    pub max_total_bytes: u64,
    /// Delete segments whose last modification is older than this.
    pub max_age: Option<Duration>,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            segment_bytes: 1 << 20,    // 1 MiB per segment
            max_total_bytes: 64 << 20, // 64 MiB total
            max_age: Some(Duration::from_secs(7 * 24 * 3600)),
        }
    }
}

/// One decoded record: `(kind, payload)`.
pub type Record = (u8, Vec<u8>);

struct StoreMetrics {
    segments: Gauge,
    bytes: Gauge,
    appends: Counter,
    rotations: Counter,
    truncated_tails: Counter,
}

impl StoreMetrics {
    fn new(store: &'static str) -> StoreMetrics {
        let l = Some(("store", store));
        StoreMetrics {
            segments: registry().gauge_with("tsdb.segments", l),
            bytes: registry().gauge_with("tsdb.bytes", l),
            appends: registry().counter_with("tsdb.appends", l),
            rotations: registry().counter_with("tsdb.rotations", l),
            truncated_tails: registry().counter_with("tsdb.truncated_tails", l),
        }
    }
}

/// Append-only store of CRC-framed records across rotated segment files.
pub struct SegmentStore {
    dir: PathBuf,
    prefix: &'static str,
    config: SegmentConfig,
    cur: File,
    cur_len: u64,
    cur_seq: u64,
    cur_records: u64,
    total_bytes: u64,
    metrics: StoreMetrics,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.dir)
            .field("prefix", &self.prefix)
            .field("cur_seq", &self.cur_seq)
            .field("cur_len", &self.cur_len)
            .finish()
    }
}

fn segment_name(prefix: &str, seq: u64) -> String {
    format!("{prefix}-{seq:06}.seg")
}

/// Parses `<prefix>-NNNNNN.seg` back into `NNNNNN`.
fn parse_seq(prefix: &str, name: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_prefix('-')?;
    let digits = rest.strip_suffix(".seg")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Existing segment paths for `prefix` under `dir`, ascending by sequence.
pub fn segment_paths(dir: &Path, prefix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_seq(prefix, name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// Scans one segment's bytes: decoded records, the length of the valid
/// prefix (header included), and whether trailing garbage was found.
fn scan_segment(bytes: &[u8]) -> frame::Scan<Record> {
    if bytes.len() < SEGMENT_HEADER_LEN
        || &bytes[..8] != SEGMENT_MAGIC
        || u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) != SEGMENT_VERSION
    {
        // Unrecognized header: nothing trustworthy in this file.
        return frame::Scan {
            records: Vec::new(),
            valid_len: 0,
            torn: !bytes.is_empty(),
        };
    }
    let mut scan = frame::SEGMENT.scan(&bytes[SEGMENT_HEADER_LEN..], |body| {
        let (kind, payload) = body.split_first()?;
        (body.len() <= MAX_RECORD_LEN).then(|| (*kind, payload.to_vec()))
    });
    scan.valid_len += SEGMENT_HEADER_LEN;
    scan
}

/// Creates `<dir>/<name>` atomically with the segment header already
/// written ([`write_atomic`]), open for appending.
fn create_segment(dir: &Path, name: &str) -> io::Result<File> {
    let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
    header.extend_from_slice(SEGMENT_MAGIC);
    header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    let path = dir.join(name);
    write_atomic(&path, &header)?;
    OpenOptions::new().append(true).open(&path)
}

impl SegmentStore {
    /// Opens (or initialises) the store for `prefix` under `dir`.
    ///
    /// Scans existing segments, truncates a torn tail off the newest one
    /// (counting `tsdb.truncated_tails`), and resumes appending to it —
    /// or starts a fresh segment if none exist or the newest is full.
    pub fn open(
        dir: &Path,
        prefix: &'static str,
        config: SegmentConfig,
    ) -> io::Result<SegmentStore> {
        fs::create_dir_all(dir)?;
        let metrics = StoreMetrics::new(prefix);
        let existing = segment_paths(dir, prefix)?;
        let (cur, cur_seq, cur_len, cur_records) = match existing.last() {
            Some((seq, path)) => {
                let bytes = fs::read(path)?;
                let scan = scan_segment(&bytes);
                if scan.torn {
                    metrics.truncated_tails.inc();
                    event::warn(
                        "obs.segment",
                        &format!(
                            "torn tail in {}: truncating {} -> {} bytes",
                            path.display(),
                            bytes.len(),
                            scan.valid_len
                        ),
                    );
                }
                if scan.valid_len < SEGMENT_HEADER_LEN {
                    // Header itself is bad: replace the file wholesale.
                    fs::remove_file(path)?;
                    let name = segment_name(prefix, *seq);
                    let f = create_segment(dir, &name)?;
                    (f, *seq, SEGMENT_HEADER_LEN as u64, 0)
                } else {
                    let f = OpenOptions::new().read(true).write(true).open(path)?;
                    if scan.torn {
                        f.set_len(scan.valid_len as u64)?;
                        f.sync_all()?;
                    }
                    let mut f = f;
                    f.seek(SeekFrom::End(0))?;
                    (f, *seq, scan.valid_len as u64, scan.records.len() as u64)
                }
            }
            None => {
                let name = segment_name(prefix, 0);
                let f = create_segment(dir, &name)?;
                (f, 0, SEGMENT_HEADER_LEN as u64, 0)
            }
        };
        let mut store = SegmentStore {
            dir: dir.to_path_buf(),
            prefix,
            config,
            cur,
            cur_len,
            cur_seq,
            cur_records,
            total_bytes: 0,
            metrics,
        };
        store.refresh_gauges()?;
        if store.cur_len >= store.config.segment_bytes && store.cur_records > 0 {
            store.rotate()?;
        }
        Ok(store)
    }

    /// Recounts segment files/bytes on disk into the gauges.
    fn refresh_gauges(&mut self) -> io::Result<()> {
        let paths = segment_paths(&self.dir, self.prefix)?;
        let mut total = 0u64;
        for (_, p) in &paths {
            total += fs::metadata(p)?.len();
        }
        self.total_bytes = total;
        self.metrics.segments.set(paths.len() as f64);
        self.metrics.bytes.set(total as f64);
        Ok(())
    }

    /// Appends one record. Rotates first when the active segment is full.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        let frame_len = 4 + 1 + payload.len() as u64 + 4;
        if self.cur_records > 0 && self.cur_len + frame_len > self.config.segment_bytes {
            self.rotate()?;
        }
        self.cur
            .write_all(&frame::SEGMENT.encode(&[&[kind], payload]))?;
        self.cur.flush()?;
        self.cur_len += frame_len;
        self.cur_records += 1;
        self.total_bytes += frame_len;
        self.metrics.appends.inc();
        self.metrics.bytes.set(self.total_bytes as f64);
        Ok(())
    }

    /// Durably flushes the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        self.cur.sync_all()
    }

    /// Closes the active segment and opens the next one, then enforces
    /// retention on the closed set.
    fn rotate(&mut self) -> io::Result<()> {
        self.cur.sync_all()?;
        self.cur_seq += 1;
        let name = segment_name(self.prefix, self.cur_seq);
        self.cur = create_segment(&self.dir, &name)?;
        self.cur_len = SEGMENT_HEADER_LEN as u64;
        self.cur_records = 0;
        self.metrics.rotations.inc();
        self.enforce_retention()?;
        self.refresh_gauges()?;
        Ok(())
    }

    /// Deletes oldest closed segments violating the byte/age budget.
    fn enforce_retention(&mut self) -> io::Result<()> {
        let paths = segment_paths(&self.dir, self.prefix)?;
        let mut sizes = Vec::with_capacity(paths.len());
        let mut total = 0u64;
        for (_, p) in &paths {
            let md = fs::metadata(p)?;
            total += md.len();
            sizes.push((md.len(), md.modified().ok()));
        }
        let now = SystemTime::now();
        for (i, (seq, path)) in paths.iter().enumerate() {
            if *seq == self.cur_seq {
                break; // never delete the active segment
            }
            let (len, mtime) = sizes[i];
            let over_bytes = total > self.config.max_total_bytes;
            let over_age = match (self.config.max_age, mtime) {
                (Some(max), Some(m)) => now.duration_since(m).map(|age| age > max).unwrap_or(false),
                _ => false,
            };
            if !over_bytes && !over_age {
                break; // segments are age-ordered oldest-first
            }
            fs::remove_file(path)?;
            total -= len;
        }
        Ok(())
    }

    /// Number of records written to the active segment since it opened.
    pub fn active_records(&self) -> u64 {
        self.cur_records
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Reads every valid record for `prefix` under `dir`, oldest first.
///
/// Safe to call from a different process while a writer is live: a torn
/// or corrupt tail ends that segment's records without modifying the
/// file, and later segments are still read.
pub fn read_records(dir: &Path, prefix: &str) -> io::Result<Vec<Record>> {
    let mut out = Vec::new();
    for (_, path) in segment_paths(dir, prefix)? {
        let bytes = fs::read(&path)?;
        out.extend(scan_segment(&bytes).records);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::TempDir;

    #[test]
    fn round_trip_and_reopen() {
        let dir = TempDir::new("seg-rt");
        let cfg = SegmentConfig::default();
        {
            let mut s = SegmentStore::open(&dir, "t", cfg.clone()).unwrap();
            s.append(1, b"hello").unwrap();
            s.append(2, b"world").unwrap();
            s.sync().unwrap();
        }
        let recs = read_records(&dir, "t").unwrap();
        assert_eq!(recs, vec![(1, b"hello".to_vec()), (2, b"world".to_vec())]);
        // Reopen resumes appending to the same segment.
        let mut s = SegmentStore::open(&dir, "t", cfg).unwrap();
        s.append(3, b"!").unwrap();
        let recs = read_records(&dir, "t").unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2], (3, b"!".to_vec()));
    }

    #[test]
    fn rotation_and_byte_retention() {
        let dir = TempDir::new("seg-rot");
        let cfg = SegmentConfig {
            segment_bytes: 128,
            max_total_bytes: 512,
            max_age: None,
        };
        let mut s = SegmentStore::open(&dir, "t", cfg).unwrap();
        let payload = vec![7u8; 50];
        for _ in 0..64 {
            s.append(1, &payload).unwrap();
        }
        let paths = segment_paths(&dir, "t").unwrap();
        assert!(paths.len() > 1, "expected rotation");
        let total: u64 = paths
            .iter()
            .map(|(_, p)| fs::metadata(p).unwrap().len())
            .sum();
        // Retention bounds total size to budget + one active segment.
        assert!(
            total <= 512 + 128 + SEGMENT_HEADER_LEN as u64,
            "total={total}"
        );
        // Oldest segments were deleted: sequence no longer starts at 0.
        assert!(paths[0].0 > 0);
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let dir = TempDir::new("seg-torn");
        let cfg = SegmentConfig::default();
        {
            let mut s = SegmentStore::open(&dir, "t", cfg.clone()).unwrap();
            s.append(1, b"keep-me").unwrap();
            s.sync().unwrap();
        }
        // Simulate a crash mid-append: half a frame of garbage.
        let (_, path) = segment_paths(&dir, "t").unwrap().pop().unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[9, 0, 0, 0, 42, 1]).unwrap();
        drop(f);
        let mut s = SegmentStore::open(&dir, "t", cfg).unwrap();
        s.append(2, b"after").unwrap();
        let recs = read_records(&dir, "t").unwrap();
        assert_eq!(recs, vec![(1, b"keep-me".to_vec()), (2, b"after".to_vec())]);
    }
}
