//! Pseudo-disk strategy for databases exceeding main memory (§IV-B).
//!
//! The fingerprint database lives in a single file, physically ordered along
//! the Hilbert curve. When it does not fit in memory, `N_sig` queries are
//! batched: the curve is cut into sections of consecutive index-table slots,
//! each packed greedily up to the memory budget. The filtering step — which
//! is independent of the database — runs first for every query; each section
//! is then loaded once, in curve order, and the refinement step runs for
//! every query interval that intersects it. The amortised per-query cost is
//! `T_tot = T + T_load / N_sig` (eq. 5): the loading term is the linear
//! component visible at the right of Fig. 7.
//!
//! Both CPU stages fan out over the index's worker threads
//! ([`DiskIndex::with_threads`]): the queries' plans, and within a resident
//! section the refinement of each query's ranges. Section loads stay on the
//! calling thread, so one section is resident at a time and the I/O order
//! is the curve's.
//!
//! ## Fault tolerance
//!
//! The paper's deployment monitors TV around the clock; a search service that
//! dies on the first bad sector cannot do that. Three mechanisms make the
//! engine keep answering:
//!
//! * **Checksummed format** — `S3IDX004` (and the older `S3IDX002` /
//!   `S3IDX003`) carry a CRC-32 over the header + index table, one CRC-32
//!   per fixed-size data block, and a CRC over the block-CRC table itself,
//!   so corruption is *detected* rather than silently returned as wrong
//!   matches. Legacy `S3IDX001` files still open (with a loud warning) but
//!   without verification.
//! * **Retries** — section loads that fail transiently (interrupted /
//!   timed-out reads, checksum mismatches that may be bad reads of good
//!   data) are retried with bounded exponential backoff ([`RetryPolicy`]).
//! * **Degradation** — a section that stays unreadable is skipped: the batch
//!   still answers every query from the surviving sections, and the loss is
//!   accounted in [`BatchTiming`] and per-query [`QueryStats`]
//!   (`sections_skipped`, `degraded`). Strict mode
//!   ([`RetryPolicy::strict`]) turns the skip into a hard
//!   [`IndexError::SectionLost`].
//!
//! All record access goes through the [`Storage`] trait, so tests drive
//! these paths deterministically with
//! [`FaultyStorage`](crate::storage::FaultyStorage).
//!
//! ## File layout (little-endian)
//!
//! ```text
//! magic "S3IDX004" | dims u32 | order u32 | n u64 | table_depth u32 | block_size u32
//! axes     : dims × u8                   the curve's slot → component order
//! table    : (2^table_depth + 1) × u64   first-record index per key slot
//! meta CRC : u32                         CRC-32 of header + axes + table
//! data     : prefixes n × u64            top 64 bits of each sorted Hilbert key
//!            fps      n × dims bytes     fingerprints
//!            ids      n × u32
//!            tcs      n × u32
//! CRC table: ceil(data/block_size) × u32 CRC-32 per data block
//! tail CRC : u32                         CRC-32 of the CRC table
//! ```
//!
//! A record is `8 + dims + 8` bytes, 36 on the paper's 20-dimensional
//! curve. The key column keeps the top 64 bits of each key: the whole key
//! on a curve of at most 64 key bits, 64 of the 160 on the paper's. The
//! key is a function of the fingerprint stored beside it, so nothing is
//! lost, and the prefix locates exactly every range a plan of depth ≤ 64
//! scans: such a range is a union of depth-p cells, so its bounds have no
//! bit set below the prefix, and a key sorts below such a bound exactly
//! when its prefix does. A bound with bits below the prefix (a deeper plan,
//! a k-NN scan depth past 64) is placed among the records that share its
//! prefix by their full keys, recomputed from their fingerprints — so no
//! depth is refused and every answer is exact.
//!
//! Only `S3IDX004` is written. Older files open, each 32-byte key
//! truncated to its prefix as a section loads:
//! * `S3IDX003`: the same layout with a 32-byte key column (four
//!   little-endian `u64` limbs) in place of the prefixes;
//! * `S3IDX002`: the `S3IDX003` layout without the `axes` bytes, opened as
//!   the identity order;
//! * `S3IDX001` (legacy; [`DiskIndex::write_v1`] still writes it for
//!   tests): the `S3IDX002` layout minus the three CRC regions, with a zero
//!   pad in place of `block_size`, opened as the identity order.

use crate::autotune::RecordCounts;
use crate::crc::{crc32, Crc32};
use crate::distortion::DistortionModel;
use crate::error::IndexError;
use crate::fingerprint::RecordBatch;
use crate::index::{
    prefix_bits, prefix_of, Match, QueryStats, RunScan, S3Index, SortedRun, StatQueryOpts,
};
use crate::metrics::CoreMetrics;
use crate::parallel::{default_threads, with_crew};
use crate::plan::{query_scope, tally_blocks, Plan, QueryPlan, QueryScan, Scan};
use crate::resilience::{QueryCtx, SectionBreakers};
use crate::sketch::{Sketch, SketchParams};
use crate::storage::{le_u32, le_u64, write_atomic, FileStorage, Storage};
use s3_hilbert::{HilbertCurve, Key256, KeyBound, KeyRange};
use s3_obs::{event, span, ExplainReport, LocalHistogram};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAGIC_V4: &[u8; 8] = b"S3IDX004";
const MAGIC_V3: &[u8; 8] = b"S3IDX003";
const MAGIC_V2: &[u8; 8] = b"S3IDX002";
const MAGIC_V1: &[u8; 8] = b"S3IDX001";
/// Depth of the on-disk index table (64k slots; every section boundary is
/// a slot boundary).
pub const TABLE_DEPTH: u32 = 16;
/// Default size of a checksummed data block.
pub const DEFAULT_BLOCK_SIZE: u32 = 4096;
const HEADER_LEN: u64 = 8 + 4 + 4 + 8 + 4 + 4;
/// Bytes of a key in the key column of `S3IDX001`–`S3IDX003`.
const KEY_LEN: u64 = 32;
/// Bytes of a key prefix in the key column of `S3IDX004`.
const PREFIX_LEN: u64 = 8;
/// Upper bound accepted for a stored table depth — an allocation guard
/// against corrupt headers (real writers never exceed [`TABLE_DEPTH`]).
const MAX_TABLE_DEPTH: u32 = 24;
/// Cap of the exponential retry backoff.
const MAX_BACKOFF: Duration = Duration::from_millis(100);
/// Cap on Bloom probes one section consult may issue before giving up and
/// loading the section (conservative: an exhausted budget never skips).
pub const SKETCH_PROBE_BUDGET: u64 = 4096;

/// Write-time options of the on-disk format.
#[derive(Clone, Copy, Debug)]
pub struct WriteOpts {
    /// Depth of the index table (clamped to the curve's key bits).
    pub table_depth: u32,
    /// Bytes per checksummed data block.
    pub block_size: u32,
}

impl Default for WriteOpts {
    fn default() -> Self {
        WriteOpts {
            table_depth: TABLE_DEPTH,
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }
}

/// Retry/degradation policy of batched queries.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure of a section load.
    pub max_retries: u32,
    /// Base backoff; attempt `k` sleeps `backoff × 2^k`, capped at 100 ms.
    pub backoff: Duration,
    /// When true, an unreadable section aborts the batch with
    /// [`IndexError::SectionLost`] instead of degrading.
    pub strict: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(1),
            strict: false,
        }
    }
}

impl RetryPolicy {
    /// Cap of a single backoff sleep, whatever the attempt number.
    pub const MAX_BACKOFF: Duration = MAX_BACKOFF;

    /// Backoff before retry `attempt` (0-based): `backoff × 2^attempt`,
    /// capped at [`RetryPolicy::MAX_BACKOFF`].
    pub fn delay_for(&self, attempt: u32) -> Duration {
        self.backoff
            .saturating_mul(1 << attempt.min(10))
            .min(MAX_BACKOFF)
    }

    /// Worst-case total sleep a single section load can spend retrying —
    /// the sum of every per-attempt delay.
    pub fn max_total_backoff(&self) -> Duration {
        (0..self.max_retries)
            .map(|k| self.delay_for(k))
            .fold(Duration::ZERO, |acc, d| acc.saturating_add(d))
    }
}

/// A file-backed S³ index queried through the pseudo-disk strategy.
#[derive(Debug)]
pub struct DiskIndex {
    storage: Box<dyn Storage>,
    curve: HilbertCurve,
    n: u64,
    table_depth: u32,
    /// `table[s]` = first record whose key's top `table_depth` bits ≥ `s`.
    table: Vec<u64>,
    /// Format version (1 = legacy unchecksummed, 2 = identity axis order,
    /// 3 = any axis order, 4 = key prefixes).
    version: u32,
    /// Bytes a record takes in the key column: [`PREFIX_LEN`] in v4,
    /// [`KEY_LEN`] before.
    key_len: u64,
    /// Bytes per checksummed block (v2 to v4).
    block_size: u32,
    /// Per-block CRC-32 of the data region (v2 to v4; empty for v1).
    block_crcs: Vec<u32>,
    /// File offset where the data region starts.
    data_off: u64,
    /// Length of the data region in bytes.
    data_len: u64,
    retry: RetryPolicy,
    /// Worker threads for a batch's plans and per-section refinement
    /// (1 = sequential).
    threads: usize,
    /// Optional per-section circuit breakers: sections that keep failing are
    /// skipped outright for a cooldown instead of re-paying the retry ladder
    /// on every batch. Shared so several indexes over one device can pool
    /// failure history.
    breakers: Option<Arc<SectionBreakers>>,
    /// CRC-32 of the header + axis order + index table (0 for v1). Binds
    /// an attached sketch to exactly this index generation — and so to its
    /// curve.
    meta_crc: u32,
    /// Optional section sketch, attached in memory by its builder: lets
    /// batched queries skip loading sections that provably hold no
    /// candidate (see [`crate::sketch`]).
    sketch: Option<Sketch>,
}

/// Aggregate timing and health of one batched search — the terms of eq. 5
/// plus the fault accounting of the robust read path.
#[derive(Clone, Debug, Default)]
pub struct BatchTiming {
    /// Filtering time (database-independent first stage): the wall time of
    /// planning every query, across all worker threads.
    pub filter: Duration,
    /// Total section loading time (`T_load`), including retries.
    pub load: Duration,
    /// Refinement time: the wall time of each section's refinement fan-out,
    /// summed over sections (plus the overlay scan of a durable index).
    pub refine: Duration,
    /// Per-section load-time distribution (ns, retries included), in the
    /// same log-bucketed histogram vocabulary as the `s3-obs` registry.
    pub section_load: LocalHistogram,
    /// Sections actually loaded (empty intersections are skipped).
    pub sections_loaded: usize,
    /// Bytes read from disk.
    pub bytes_loaded: u64,
    /// Section-load retries that were needed.
    pub retries: u32,
    /// Sections abandoned after exhausting retries (non-strict mode).
    pub sections_skipped: usize,
    /// Of the skipped sections, how many were short-circuited by an open
    /// circuit breaker (no I/O attempted).
    pub breaker_skips: usize,
    /// Sections the sketch proved hold no candidate, skipped without I/O.
    /// Not counted in `sections_skipped` and never a degradation: every
    /// sketch skip is a true negative (see [`crate::sketch`]).
    pub sketch_skips: usize,
    /// True if any section was skipped or any query was cancelled: results
    /// are complete over the work actually performed only.
    pub degraded: bool,
    /// True if the batch deadline expired while the batch was running.
    pub deadline_hit: bool,
}

impl BatchTiming {
    /// Adds the load/refine time and section accounting of a further scan
    /// of the same batch (filter time and the flags belong to the batch's
    /// plan and epilogue, not to any one scan).
    pub(crate) fn absorb(&mut self, scan: &BatchTiming) {
        self.load += scan.load;
        self.refine += scan.refine;
        self.section_load.merge(&scan.section_load);
        self.sections_loaded += scan.sections_loaded;
        self.bytes_loaded += scan.bytes_loaded;
        self.retries += scan.retries;
        self.sections_skipped += scan.sections_skipped;
        self.breaker_skips += scan.breaker_skips;
        self.sketch_skips += scan.sketch_skips;
    }

    /// Average per-query total time `T_tot = T + T_load / N_sig`.
    pub fn per_query(&self, n_queries: usize) -> Duration {
        if n_queries == 0 {
            return Duration::ZERO;
        }
        (self.filter + self.load + self.refine) / n_queries as u32
    }
}

/// Result of a batched pseudo-disk search.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-query matches, parallel to the input query slice.
    pub matches: Vec<Vec<Match>>,
    /// Per-query work counters.
    pub stats: Vec<QueryStats>,
    /// Aggregate timing.
    pub timing: BatchTiming,
    /// Number of sections the memory budget packed the curve into.
    pub sections: usize,
    /// One EXPLAIN report per query when the batch's [`QueryCtx`] asked for
    /// them ([`QueryCtx::explain`]), empty otherwise: the selected blocks
    /// with their predicted mass vs. the records actually scanned vs. the
    /// matches produced (per-shard rows instead on a scatter-gather batch),
    /// per-phase timing, and degradation annotations.
    pub reports: Vec<ExplainReport>,
}

fn key_bytes(k: &Key256) -> [u8; KEY_LEN as usize] {
    let mut out = [0u8; KEY_LEN as usize];
    for (i, limb) in k.limbs().iter().enumerate() {
        out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
    }
    out
}

fn read_key(bytes: &[u8]) -> Key256 {
    let mut limbs = [0u64; 4];
    for (i, limb) in limbs.iter_mut().enumerate() {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
        *limb = u64::from_le_bytes(raw);
    }
    Key256::from_limbs(limbs)
}

fn bad_format(detail: impl Into<String>) -> IndexError {
    IndexError::Format {
        detail: detail.into(),
    }
}

/// Builds a checksum error, counting it in `storage.crc_failures` — every
/// CRC mismatch the read path detects goes through here.
fn checksum_failure(region: &'static str, offset: u64) -> IndexError {
    CoreMetrics::get().crc_failures.inc();
    IndexError::Checksum { region, offset }
}

/// Serialises the header, the axis order and the index table of an index
/// into a buffer: `S3IDX004`, or with `v1` the legacy `S3IDX001`, which
/// has no place for an order. Asked for that with a curve that is not the
/// identity, this refuses rather than write a file whose keys the reader
/// would take for keys on another curve.
fn encode_meta(index: &S3Index, opts: WriteOpts, v1: bool) -> io::Result<Vec<u8>> {
    let curve = index.curve();
    if v1 && !curve.is_identity() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("S3IDX001 cannot store the axis order {:?}", curve.axes()),
        ));
    }
    let n = index.len() as u64;
    let table_depth = opts.table_depth.min(prefix_bits(curve));
    let axes = if v1 { &[][..] } else { curve.axes() };
    let mut meta =
        Vec::with_capacity(HEADER_LEN as usize + axes.len() + ((1usize << table_depth) + 1) * 8);
    meta.extend_from_slice(if v1 { MAGIC_V1 } else { MAGIC_V4 });
    meta.extend_from_slice(&(curve.dims() as u32).to_le_bytes());
    meta.extend_from_slice(&(curve.order() as u32).to_le_bytes());
    meta.extend_from_slice(&n.to_le_bytes());
    meta.extend_from_slice(&table_depth.to_le_bytes());
    let aux = if v1 { 0 } else { opts.block_size };
    meta.extend_from_slice(&aux.to_le_bytes());
    meta.extend_from_slice(axes);

    // Index table: first record per key slot, rebuilt from the sorted
    // prefixes (a slot is at most 24 key bits, well within a prefix).
    let shift = prefix_bits(curve) - table_depth;
    let slots = 1usize << table_depth;
    let mut slot = 0usize;
    for (i, &prefix) in index.prefixes().iter().enumerate() {
        let s = (prefix >> shift) as usize;
        while slot <= s {
            meta.extend_from_slice(&(i as u64).to_le_bytes());
            slot += 1;
        }
    }
    while slot <= slots {
        meta.extend_from_slice(&n.to_le_bytes());
        slot += 1;
    }
    Ok(meta)
}

/// Writes the data region (prefixes | fps | ids | tcs) through a writer;
/// with `v1`, full 32-byte keys in place of the prefixes.
fn write_data_region(w: &mut impl Write, index: &S3Index, v1: bool) -> io::Result<()> {
    if v1 {
        for i in 0..index.len() {
            w.write_all(&key_bytes(&index.key(i)))?;
        }
    } else {
        for prefix in index.prefixes() {
            w.write_all(&prefix.to_le_bytes())?;
        }
    }
    w.write_all(index.records().fingerprint_bytes())?;
    for &id in index.records().ids() {
        w.write_all(&id.to_le_bytes())?;
    }
    for &tc in index.records().tcs() {
        w.write_all(&tc.to_le_bytes())?;
    }
    Ok(())
}

/// The header table as the depth learner's record-count oracle: no read,
/// exact for every partition of depth ≤ `table_depth`, whose block
/// boundaries are slot boundaries (a deeper bound rounds down to its slot).
impl RecordCounts for DiskIndex {
    fn curve(&self) -> &HilbertCurve {
        &self.curve
    }

    fn count_in(&self, range: &KeyRange) -> u64 {
        let start = self.table[self.slot_of(&range.lo)];
        let end = match &range.hi {
            KeyBound::Excl(hi) => self.table[self.slot_of(hi)],
            KeyBound::End => self.n,
        };
        end.saturating_sub(start)
    }

    fn exact_depth(&self) -> u32 {
        self.table_depth
    }
}

impl DiskIndex {
    /// Serialises a built in-memory index into the current checksummed
    /// format (`S3IDX004`) with default options. The write is atomic: data
    /// goes to a sibling temp file which is fsynced, then renamed over
    /// `path`.
    pub fn write(index: &S3Index, path: impl AsRef<Path>) -> io::Result<()> {
        Self::write_with(index, path, WriteOpts::default())
    }

    /// Serialises a built index into the complete `S3IDX004` byte stream —
    /// exactly the bytes [`DiskIndex::write_with`] puts in a file. The
    /// paged storage engine chunks this stream into pages; opening the
    /// chunked stream through a pooled [`Storage`] yields bit-identical
    /// query results by construction, because the reader is the same.
    pub fn encode_to_vec(index: &S3Index, opts: WriteOpts) -> io::Result<Vec<u8>> {
        assert!(opts.block_size > 0, "block size must be positive");
        let meta = encode_meta(index, opts, false)?;
        let record_bytes = PREFIX_LEN as usize + index.curve().dims() + 8;
        let mut out = Vec::with_capacity(meta.len() + 4 + index.len() * record_bytes);
        out.extend_from_slice(&meta);
        out.extend_from_slice(&crc32(&meta).to_le_bytes());

        let data_start = out.len();
        write_data_region(&mut out, index, false)?;

        let block_crcs: Vec<u8> = out[data_start..]
            .chunks(opts.block_size as usize)
            .flat_map(|block| crc32(block).to_le_bytes())
            .collect();
        out.extend_from_slice(&block_crcs);
        out.extend_from_slice(&crc32(&block_crcs).to_le_bytes());
        Ok(out)
    }

    /// As [`DiskIndex::write`], with explicit format options.
    pub fn write_with(index: &S3Index, path: impl AsRef<Path>, opts: WriteOpts) -> io::Result<()> {
        write_atomic(path.as_ref(), &Self::encode_to_vec(index, opts)?)
    }

    /// Writes the legacy unchecksummed `S3IDX001` format. Kept so the
    /// version-1 read path (and anything archiving old files) stays
    /// testable; new files should use [`DiskIndex::write`]. Fails, writing
    /// nothing, for an index whose curve is not the identity order.
    pub fn write_v1(index: &S3Index, path: impl AsRef<Path>) -> io::Result<()> {
        let opts = WriteOpts {
            table_depth: TABLE_DEPTH,
            block_size: 0,
        };
        let meta = encode_meta(index, opts, true)?;
        let mut w = BufWriter::new(File::create(path.as_ref())?);
        w.write_all(&meta)?;
        write_data_region(&mut w, index, true)?;
        w.flush()
    }

    /// Opens a pseudo-disk index file: reads the header, the index table and
    /// the CRC tables (record columns stay on disk), verifying their
    /// checksums. Legacy v1 files load with a warning on stderr. Any other
    /// file beside the index is ignored.
    pub fn open(path: impl AsRef<Path>) -> Result<DiskIndex, IndexError> {
        Self::open_storage(Box::new(FileStorage::open(path.as_ref())?))
    }

    /// As [`DiskIndex::open`], over any [`Storage`] implementation — the
    /// entry point for fault-injection tests and non-file backends.
    pub fn open_storage(storage: Box<dyn Storage>) -> Result<DiskIndex, IndexError> {
        let mut header = [0u8; HEADER_LEN as usize];
        storage.read_at(0, &mut header)?;
        let version = match &header[0..8] {
            m if m == MAGIC_V4 => 4,
            m if m == MAGIC_V3 => 3,
            m if m == MAGIC_V2 => 2,
            m if m == MAGIC_V1 => 1,
            _ => return Err(bad_format("bad magic")),
        };
        let dims = le_u32(&header[8..12]) as usize;
        let order = le_u32(&header[12..16]) as usize;
        let n = le_u64(&header[16..24]);
        let table_depth = le_u32(&header[24..28]);
        let block_size = le_u32(&header[28..32]);
        let curve = HilbertCurve::new(dims, order)
            .map_err(|e| bad_format(format!("bad curve parameters: {e}")))?;
        if table_depth > curve.key_bits() || table_depth > MAX_TABLE_DEPTH {
            return Err(bad_format(format!("bad table depth {table_depth}")));
        }
        if version >= 2 && block_size == 0 {
            return Err(bad_format("zero block size"));
        }
        // The axis order (v3 and v4): read with the table, checked by the
        // meta CRC before anything trusts it.
        let axes_len = if version >= 3 { dims as u64 } else { 0 };

        let slots = 1usize << table_depth;
        let table_bytes = ((slots + 1) * 8) as u64;
        let mut raw = vec![0u8; (axes_len + table_bytes) as usize];
        storage.read_at(HEADER_LEN, &mut raw)?;
        let table: Vec<u64> = raw[axes_len as usize..]
            .chunks_exact(8)
            .map(le_u64)
            .collect();

        let key_len = if version == 4 { PREFIX_LEN } else { KEY_LEN };
        let record_bytes = key_len + dims as u64 + 4 + 4;
        let data_len = n
            .checked_mul(record_bytes)
            .ok_or_else(|| bad_format("record count overflows the data region"))?;

        let mut index = DiskIndex {
            storage,
            curve,
            n,
            table_depth,
            table,
            version,
            key_len,
            block_size,
            block_crcs: Vec::new(),
            data_off: 0,
            data_len,
            retry: RetryPolicy::default(),
            threads: default_threads(),
            breakers: None,
            meta_crc: 0,
            sketch: None,
        };

        if version == 1 {
            index.data_off = HEADER_LEN + table_bytes;
            let expected = index.data_off + data_len;
            if index.storage.len()? != expected {
                return Err(bad_format(format!(
                    "v1 file size mismatch: expected {expected} bytes"
                )));
            }
            event::warn(
                "storage",
                "opening legacy S3IDX001 index (no checksums); \
                 rewrite with DiskIndex::write to gain corruption detection",
            );
            return Ok(index);
        }

        // v2 to v4: verify the header + axes + table CRC, then load and
        // verify the block-CRC table.
        let meta_len = HEADER_LEN + axes_len + table_bytes;
        let mut stored = [0u8; 4];
        index.storage.read_at(meta_len, &mut stored)?;
        let mut meta_crc = Crc32::new();
        meta_crc.update(&header);
        meta_crc.update(&raw);
        let meta_crc = meta_crc.finalize();
        if meta_crc != le_u32(&stored) {
            return Err(checksum_failure("header", 0));
        }
        if version >= 3 {
            let axes: Vec<usize> = raw[..dims].iter().map(|&a| usize::from(a)).collect();
            index.curve = index
                .curve
                .with_axes(&axes)
                .map_err(|e| bad_format(format!("bad axis order: {e}")))?;
        }
        index.meta_crc = meta_crc;
        index.data_off = meta_len + 4;

        let n_blocks = data_len.div_ceil(u64::from(block_size));
        let crc_table_off = index.data_off + data_len;
        let expected = crc_table_off
            .checked_add(n_blocks * 4 + 4)
            .ok_or_else(|| bad_format("crc table overflows the file"))?;
        if index.storage.len()? != expected {
            return Err(bad_format(format!(
                "file size mismatch: expected {expected} bytes \
                 (truncated or trailing data)"
            )));
        }
        let mut crc_raw = vec![0u8; (n_blocks * 4) as usize];
        index.storage.read_at(crc_table_off, &mut crc_raw)?;
        index
            .storage
            .read_at(crc_table_off + n_blocks * 4, &mut stored)?;
        if crc32(&crc_raw) != le_u32(&stored) {
            return Err(checksum_failure("crc table", crc_table_off));
        }
        index.block_crcs = crc_raw.chunks_exact(4).map(le_u32).collect();
        Ok(index)
    }

    /// Replaces the retry/degradation policy (builder style).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> DiskIndex {
        self.retry = retry;
        self
    }

    /// Sets the worker-thread count of a batch (builder style); the default
    /// is every available core ([`default_threads`]). Clamped to at least
    /// one. The queries' plans and each resident section's refinement fan
    /// out; section loading stays sequential, on the calling thread, in
    /// curve order.
    pub fn with_threads(mut self, threads: usize) -> DiskIndex {
        self.threads = threads.max(1);
        self
    }

    /// Worker threads a batch plans its queries and refines each section
    /// on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attaches per-section circuit breakers (builder style): a section that
    /// keeps failing its loads is skipped outright for the breaker cooldown
    /// instead of re-paying the retry ladder on every batch. Breaker keys are
    /// the section's first table slot, so the same physical region maps to
    /// the same breaker whenever a section starts there, whatever the budget.
    pub fn with_breakers(mut self, breakers: Arc<SectionBreakers>) -> DiskIndex {
        self.breakers = Some(breakers);
        self
    }

    /// Attaches a sketch after validating it belongs to this exact index
    /// generation (same key width, cell depth no coarser than the table,
    /// matching meta CRC). Returns `false` — and leaves the index
    /// sketch-less — on any mismatch. Every batch consults an attached
    /// sketch before each section load.
    pub fn attach_sketch(&mut self, sketch: Sketch) -> bool {
        let compatible = self.version >= 2
            && sketch.key_bits() == self.curve.key_bits()
            && sketch.depth() >= self.table_depth
            && sketch.index_crc() == self.meta_crc;
        if !compatible {
            event::warn(
                "sketch",
                "sketch does not match this index generation, ignoring it",
            );
            return false;
        }
        self.sketch = Some(sketch);
        true
    }

    /// The attached section sketch, if any.
    pub fn sketch(&self) -> Option<&Sketch> {
        self.sketch.as_ref()
    }

    /// Builds a sketch for this opened index by streaming the (CRC-
    /// verified) key column back through the storage. The result is bound
    /// to this generation's meta CRC; attach it with
    /// [`DiskIndex::attach_sketch`].
    pub fn build_sketch(&self, params: SketchParams) -> Result<Sketch, IndexError> {
        let mut prefixes = Vec::new();
        self.read_prefixes(0, self.n, &mut prefixes, &mut Vec::new(), &mut Vec::new())?;
        let depth = params.resolve_depth(self.table_depth, self.curve.key_bits());
        Ok(Sketch::build_from_prefixes(
            &prefixes,
            self.curve.key_bits(),
            depth,
            params.bits_per_entry.max(1),
            self.meta_crc,
        ))
    }

    /// On-disk format version of the opened file (1 to 4).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The curve of the stored index.
    pub fn curve(&self) -> &HilbertCurve {
        &self.curve
    }

    /// Number of stored records.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True if the stored index is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bytes each record occupies across all columns.
    fn record_bytes(&self) -> u64 {
        self.key_len + self.curve.dims() as u64 + 4 + 4
    }

    /// Total data bytes (excluding header and table) — the paper's "DB size".
    pub fn data_bytes(&self) -> u64 {
        self.data_len
    }

    /// Verifies every data block against its stored CRC — an offline
    /// integrity check ("fsck") of the whole file. Returns the first
    /// corruption found. On a v1 file only the (unchecksummed) size can be
    /// validated, which `open` already did.
    pub fn verify(&self) -> Result<(), IndexError> {
        if self.version == 1 {
            return Ok(());
        }
        let bs = u64::from(self.block_size);
        let mut buf = vec![0u8; self.block_size as usize];
        for (i, &stored) in self.block_crcs.iter().enumerate() {
            let start = i as u64 * bs;
            let len = bs.min(self.data_len - start) as usize;
            self.storage
                .read_at(self.data_off + start, &mut buf[..len])?;
            if crc32(&buf[..len]) != stored {
                return Err(checksum_failure("data", self.data_off + start));
            }
        }
        Ok(())
    }

    /// Reads every stored record back into memory, CRC-verified — the
    /// source side of a durable merge: the merged index is rebuilt from
    /// `main.to_record_batch() + overlay` rather than from scratch.
    pub fn to_record_batch(&self) -> Result<RecordBatch, IndexError> {
        let n = usize::try_from(self.n)
            .map_err(|_| bad_format("record count exceeds the address space"))?;
        let mut batch = RecordBatch::with_capacity(self.curve.dims(), n);
        self.read_records(0, self.n, &mut batch, &mut Vec::new(), &mut Vec::new())?;
        Ok(batch)
    }

    /// Packs consecutive table slots greedily into sections of at most
    /// `mem_budget` bytes and returns their slot bounds: section `s` holds
    /// slots `bounds[s]..bounds[s + 1]`. A section closes only when its next
    /// slot would not fit, so no two neighbours fit the budget together and
    /// `bytes` of data pack into at most `2⌈bytes / budget⌉` sections. Fails
    /// exactly when one slot alone exceeds the budget.
    fn pack_sections(&self, mem_budget: u64) -> Result<Vec<usize>, IndexError> {
        let rb = self.record_bytes();
        let slots = self.table.len() - 1;
        let mut bounds = vec![0];
        let mut first = self.table[0];
        for s in 0..slots {
            let end = self.table[s + 1];
            if (end - self.table[s]) * rb > mem_budget {
                return Err(IndexError::BudgetTooSmall {
                    budget: mem_budget,
                    min_section_bytes: self.min_section_bytes(),
                });
            }
            if (end - first) * rb > mem_budget {
                bounds.push(s);
                first = self.table[s];
            }
        }
        bounds.push(slots);
        Ok(bounds)
    }

    /// Bytes of the densest table slot — the smallest memory
    /// budget any batched query can run under.
    pub fn min_section_bytes(&self) -> u64 {
        let rb = self.record_bytes();
        self.table
            .windows(2)
            .map(|w| (w[1] - w[0]) * rb)
            .max()
            .unwrap_or(0)
    }

    /// Suggests the batch size `N_sig` (§IV-B): the paper sets it
    /// "automatically … to obtain an average loading time that is sublinear
    /// with the database size". Given a disk bandwidth estimate and a
    /// per-query loading budget, the whole database (the worst case: every
    /// section touched once per batch) amortises to
    /// `T_load / N_sig <= budget`, so `N_sig >= data_bytes / bandwidth / budget`.
    pub fn suggest_nsig(
        &self,
        load_bandwidth_bytes_per_sec: f64,
        per_query_load_budget: Duration,
    ) -> usize {
        assert!(load_bandwidth_bytes_per_sec > 0.0);
        assert!(!per_query_load_budget.is_zero());
        let t_load = self.data_bytes() as f64 / load_bandwidth_bytes_per_sec;
        (t_load / per_query_load_budget.as_secs_f64())
            .ceil()
            .max(1.0) as usize
    }

    /// Record range `[a, b)` of the section holding table slots `slots`.
    fn section_entries(&self, slots: &Range<usize>) -> (u64, u64) {
        (self.table[slots.start], self.table[slots.end])
    }

    /// Table slot of a key (top `table_depth` bits).
    fn slot_of(&self, key: &Key256) -> usize {
        let shift = self.curve.key_bits() - self.table_depth;
        key.shr(shift).low_u128() as usize
    }

    /// True if the sketch proves the section holding table slots `slots`
    /// has no record of any `(query, range)` in `work` — i.e. every
    /// depth-`d` cell in every `range ∩ section` slot span probes absent.
    ///
    /// Exactness: a record refinement could visit lies in some
    /// `range ∩ section`, so its cell is inside the probed span, and Bloom
    /// filters have no false negatives — the cell would have probed
    /// present. Conservative on both exits: a probe hit or an exhausted
    /// probe budget returns `false` (load the section).
    fn sketch_rules_out(
        &self,
        sk: &Sketch,
        slots: &Range<usize>,
        work: &[(u32, u32)],
        plans: &[QueryPlan],
    ) -> bool {
        let metrics = CoreMetrics::get();
        let shift = self.curve.key_bits() - sk.depth();
        // A table slot holds a power of two of cells, so a section's cell
        // span is its slot bounds shifted.
        let cell_shift = sk.depth() - self.table_depth;
        let sec_lo = (slots.start as u64) << cell_shift;
        let sec_hi = ((slots.end as u64) << cell_shift) - 1;
        let mut probes = 0u64;
        for &(qi, ri) in work {
            let range = &plans[qi as usize].ranges[ri as usize];
            let lo = range.lo.shr(shift).low_u128() as u64;
            let hi = match &range.hi {
                KeyBound::End => (1u64 << sk.depth()) - 1,
                KeyBound::Excl(h) => {
                    let hs = h.shr(shift).low_u128() as u64;
                    if h.and(&Key256::low_mask(shift)).is_zero() {
                        // The exclusive bound sits on a cell boundary: the
                        // last covered cell is the one before it.
                        match hs.checked_sub(1) {
                            Some(v) => v,
                            None => continue, // empty range
                        }
                    } else {
                        hs
                    }
                }
            };
            let a = lo.max(sec_lo);
            let b = hi.min(sec_hi);
            if a > b {
                continue; // the range does not reach into this section
            }
            if probes + (b - a + 1) > SKETCH_PROBE_BUDGET {
                metrics.sketch_probes.add(probes);
                return false; // too much to prove cheaply — just load
            }
            for cell in a..=b {
                probes += 1;
                if sk.contains_slot(cell) {
                    metrics.sketch_probes.add(probes);
                    return false;
                }
            }
        }
        metrics.sketch_probes.add(probes);
        true
    }

    /// Runs a batch of statistical queries through the pseudo-disk engine.
    ///
    /// `mem_budget` bounds the bytes of record data resident at once (one
    /// section). The filter is the one `opts` selects (best-first by default).
    pub fn stat_query_batch(
        &self,
        queries: &[&[u8]],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
        mem_budget: u64,
    ) -> Result<BatchResult, IndexError> {
        self.stat_query_batch_in(queries, model, opts, mem_budget, None)
    }

    /// As [`DiskIndex::stat_query_batch`] under a [`QueryCtx`], which says
    /// how the batch runs. Its token and deadline are polled at filter,
    /// section-load and refine-chunk granularity, and the batch returns a
    /// partial, `degraded`-flagged result instead of running past an expired
    /// deadline or a fired token: work already completed when the stop lands
    /// is kept, and per-query `cancelled`/`degraded` flags say exactly which
    /// answers may be incomplete. If the ctx asks for EXPLAIN
    /// ([`QueryCtx::explain`]), [`BatchResult::reports`] holds one report per
    /// query; the query path is the same (same filter, same refinement,
    /// bit-identical matches and counters), EXPLAIN only keeps bookkeeping.
    pub fn stat_query_batch_ctx(
        &self,
        queries: &[&[u8]],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
        mem_budget: u64,
        ctx: &QueryCtx,
    ) -> Result<BatchResult, IndexError> {
        self.stat_query_batch_in(queries, model, opts, mem_budget, Some(ctx))
    }

    fn stat_query_batch_in(
        &self,
        queries: &[&[u8]],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
        mem_budget: u64,
        ctx: Option<&QueryCtx>,
    ) -> Result<BatchResult, IndexError> {
        let _scope = query_scope(ctx);
        let plan = Plan::stat(&self.curve, queries, model, opts, self.threads, ctx)?;
        let scan = self.scan(&plan, mem_budget, ctx)?;
        Ok(plan.finish(scan, self.n, ctx, None))
    }

    /// Runs a batch of ε-range queries through the pseudo-disk engine, under
    /// `ctx` when one is given (see [`DiskIndex::stat_query_batch_ctx`]). The
    /// range filter itself runs to completion (it is cheap and database-
    /// independent); cancellation lands at section-load and refine-chunk
    /// granularity.
    pub fn range_query_batch(
        &self,
        queries: &[&[u8]],
        eps: f64,
        depth: u32,
        mem_budget: u64,
        ctx: Option<&QueryCtx>,
    ) -> Result<BatchResult, IndexError> {
        let _scope = query_scope(ctx);
        let plan = Plan::range(&self.curve, queries, eps, depth, self.threads, ctx)?;
        let scan = self.scan(&plan, mem_budget, ctx)?;
        Ok(plan.finish(scan, self.n, ctx, None))
    }

    /// Stage 2 over this file: streams the sections `plan` touches, each
    /// loaded once, and refines every query range that intersects it. Run
    /// by this index's own entry points, by a durable index beside its
    /// overlay, and by the shard router on every replica — which all hand it
    /// the identical plan, so a replica's scan is the single-node scan over
    /// its slice of the records. A scan records physical I/O metrics
    /// (section loads, bytes, retries: work actually done) and nothing else:
    /// folding the logical queries into the registry is the epilogue's job,
    /// once, in whichever engine the caller entered.
    pub(crate) fn scan(
        &self,
        plan: &Plan,
        mem_budget: u64,
        ctx: Option<&QueryCtx>,
    ) -> Result<Scan, IndexError> {
        let bounds = self.pack_sections(mem_budget)?;
        self.scan_sections(plan, &bounds, ctx)
    }

    /// [`DiskIndex::scan`] over the sections whose slot bounds are `bounds`
    /// (see [`DiskIndex::pack_sections`]).
    fn scan_sections(
        &self,
        plan: &Plan,
        bounds: &[usize],
        ctx: Option<&QueryCtx>,
    ) -> Result<Scan, IndexError> {
        let n_sections = bounds.len() - 1;
        let last_slot = bounds[n_sections] - 1;
        let section_of = |slot: usize| bounds.partition_point(|&b| b <= slot) - 1;
        let should_stop = || ctx.is_some_and(|c| c.should_stop());
        let want_explain = ctx.is_some_and(|c| c.explains());
        let metrics = CoreMetrics::get();
        let queries = plan.queries;

        // Assign each (query, range) to the sections it intersects.
        let mut section_work: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_sections];
        for (qi, query) in plan.per_query.iter().enumerate() {
            for (ri, range) in query.ranges.iter().enumerate() {
                let s_lo = section_of(self.slot_of(&range.lo));
                let s_hi = match range.hi {
                    KeyBound::Excl(hi) => {
                        // hi is exclusive: using its slot over-includes by at
                        // most one (possibly empty) trailing section.
                        section_of(self.slot_of(&hi).min(last_slot))
                    }
                    KeyBound::End => n_sections - 1,
                };
                for work in &mut section_work[s_lo..=s_hi] {
                    work.push((qi as u32, ri as u32));
                }
            }
        }

        // Stream sections in curve order, retrying and degrading as
        // configured.
        let mut out = Scan::empty(queries.len());
        out.sections = n_sections;
        let Scan {
            per_query: scans,
            timing,
            ..
        } = &mut out;
        let slots_of = |s: usize| bounds[s]..bounds[s + 1];
        // Refines one query's contiguous run of ranges within a resident
        // section: the unit a worker claims.
        let refine_group = |job: &SectionJob, g: usize| -> RunScan {
            let (lo_w, hi_w) = job.groups[g];
            let qi = job.work[lo_w].0 as usize;
            let mut sp = span!("query.refine", "qi" => qi as f64);
            let query = &plan.per_query[qi];
            let ranges = job.work[lo_w..hi_w]
                .iter()
                .map(|&(_, ri)| &query.ranges[ri as usize]);
            let run = job.section.run.scan(
                &self.curve,
                None,
                ranges,
                queries[qi],
                &plan.ask,
                job.first,
                should_stop,
            );
            sp.record("ranges", run.ranges as f64);
            sp.record("entries", run.entries as f64);
            run
        };
        // One crew for the whole batch: each resident section is one
        // fan-out, and loads stay on this thread.
        with_crew(self.threads, ctx, &refine_group, |crew| {
            let mut spare = SectionBuf::default();
            for (s, work) in section_work.iter().enumerate() {
                if work.is_empty() {
                    continue;
                }
                let slots = slots_of(s);
                let (a, b) = self.section_entries(&slots);
                if a == b {
                    continue;
                }
                // Deadline/cancellation lands between sections: never start
                // another load past the stop. Every remaining non-empty section
                // is accounted as skipped so per-query flags stay truthful.
                if should_stop() {
                    for (s2, work2) in section_work.iter().enumerate().skip(s) {
                        if work2.is_empty() {
                            continue;
                        }
                        let (a2, b2) = self.section_entries(&slots_of(s2));
                        if a2 == b2 {
                            continue;
                        }
                        timing.sections_skipped += 1;
                        mark_section_skipped(scans, work2, true);
                    }
                    break;
                }
                // Breaker keys are the section's first table slot: the same
                // region keeps its breaker whenever a section starts there.
                let breaker_key = slots.start;
                if let Some(br) = &self.breakers {
                    if !br.try_pass(breaker_key) {
                        timing.sections_skipped += 1;
                        timing.breaker_skips += 1;
                        event::warn(
                            "pseudo_disk",
                            &format!("section {s} breaker open, skipping without I/O"),
                        );
                        mark_section_skipped(scans, work, false);
                        continue;
                    }
                }
                // Sketch consult: skip the load when every candidate cell of
                // every intersecting range probes absent — a provable true
                // negative (no stats degradation, no I/O, bit-identical
                // matches). An inconclusive consult (budget exhausted, a cell
                // present) falls through to the normal load.
                if let Some(sk) = &self.sketch {
                    if self.sketch_rules_out(sk, &slots, work, &plan.per_query) {
                        timing.sketch_skips += 1;
                        for qi in distinct_queries(work) {
                            scans[qi].stats.sketch_skipped += 1;
                        }
                        continue;
                    }
                }
                let mut sec_span = span!("disk.section", "section" => s as f64);
                let t_load = Instant::now();
                let loaded = self.load_section_retrying(a, b, &mut spare, ctx);
                let load_time = t_load.elapsed();
                sec_span.record("entries", (b - a) as f64);
                timing.load += load_time;
                timing.section_load.record_duration(load_time);
                // Retries are attributed to every query that needed this
                // section (same convention as `sections_skipped`), whether the
                // load finally succeeded or not.
                let (Ok(retries) | Err((retries, _))) = &loaded;
                timing.retries += retries;
                metrics.retries.add(u64::from(*retries));
                if *retries > 0 {
                    for qi in distinct_queries(work) {
                        scans[qi].stats.retries += retries;
                    }
                }
                match loaded {
                    Ok(_) => {
                        if let Some(br) = &self.breakers {
                            br.record_success(breaker_key);
                        }
                        timing.sections_loaded += 1;
                        let bytes = (b - a) * self.record_bytes();
                        timing.bytes_loaded += bytes;
                        metrics.sections_loaded.inc();
                        metrics.read_bytes.add(bytes);
                    }
                    Err((retries, err)) => {
                        if let Some(br) = &self.breakers {
                            br.record_failure(breaker_key);
                        }
                        if self.retry.strict {
                            return Err(IndexError::SectionLost {
                                section: s,
                                retries,
                                source: Box::new(err),
                            });
                        }
                        // Degrade: answer the batch from the surviving sections,
                        // and account the loss per affected query.
                        timing.sections_skipped += 1;
                        event::warn(
                            "pseudo_disk",
                            &format!(
                                "section {s} unreadable after {retries} retries, \
                             degrading batch: {err}"
                            ),
                        );
                        mark_section_skipped(scans, work, false);
                        continue;
                    }
                }

                let t_ref = Instant::now();
                // `work` is pushed in ascending qi order, so each query's ranges
                // form one contiguous run — the unit of parallel refinement.
                // Workers produce independent RunScans; the sequential merge
                // below reproduces the exact sequential output order.
                let mut groups: Vec<(usize, usize)> = Vec::new();
                let mut gs = 0usize;
                for w in 1..=work.len() {
                    if w == work.len() || work[w].0 != work[gs].0 {
                        groups.push((gs, w));
                        gs = w;
                    }
                }
                let job = Arc::new(SectionJob {
                    section: std::mem::take(&mut spare),
                    work,
                    groups,
                    first: a as usize,
                });
                let results = crew.run(&job, job.groups.len());
                let groups = &job.groups;
                let section = &job.section;
                for (&(lo_w, _), gr) in groups.iter().zip(results) {
                    let scan = &mut scans[work[lo_w].0 as usize];
                    // A group left unfinished past the stop: its query keeps
                    // whatever earlier sections contributed, flagged partial.
                    let Some(gr) = gr else {
                        scan.stats.cancelled = true;
                        continue;
                    };
                    scan.stats.ranges_scanned += gr.ranges;
                    scan.stats.entries_scanned += gr.entries;
                    scan.stats.cancelled |= gr.stopped;
                    scan.refine_ns += gr.ns;
                    let new_matches = scan.matches.len();
                    scan.matches.extend(gr.matches);
                    if want_explain {
                        let locate =
                            |range: &KeyRange| section.run.locate(&self.curve, None, 0, range);
                        tally_blocks(
                            &self.curve,
                            &plan.per_query[work[lo_w].0 as usize],
                            locate,
                            a as usize,
                            &scan.matches[new_matches..],
                            &mut scan.blocks,
                        );
                    }
                }
                timing.refine += t_ref.elapsed();
                // A helper that has not caught up yet still holds the section;
                // the next load then fills a fresh buffer.
                spare = Arc::try_unwrap(job)
                    .map(|job| job.section)
                    .unwrap_or_default();
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Loads a section, retrying transient failures with bounded backoff.
    /// Returns the number of retries used, or the final error with the
    /// retry count.
    fn load_section_retrying(
        &self,
        a: u64,
        b: u64,
        buf: &mut SectionBuf,
        ctx: Option<&QueryCtx>,
    ) -> Result<u32, (u32, IndexError)> {
        let mut attempt = 0u32;
        loop {
            match self.load_section(a, b, buf) {
                Ok(()) => return Ok(attempt),
                Err(e) if e.is_transient() && attempt < self.retry.max_retries => {
                    // A fired token ends the retry ladder early: no point
                    // sleeping toward a result the caller will discard.
                    if ctx.is_some_and(|c| c.should_stop()) {
                        return Err((attempt, e));
                    }
                    let delay = self.retry.delay_for(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
                Err(e) => return Err((attempt, e)),
            }
        }
    }

    /// Reads `out.len()` bytes at offset `rel` of the data region, verifying
    /// the CRC of every covered block (v2) by over-reading to block
    /// boundaries.
    fn read_verified(
        &self,
        rel: u64,
        out: &mut [u8],
        scratch: &mut Vec<u8>,
    ) -> Result<(), IndexError> {
        if out.is_empty() {
            return Ok(());
        }
        if self.version == 1 {
            self.storage.read_at(self.data_off + rel, out)?;
            return Ok(());
        }
        let bs = u64::from(self.block_size);
        let len = out.len() as u64;
        let b0 = rel / bs;
        let b1 = (rel + len - 1) / bs;
        let aligned_start = b0 * bs;
        let aligned_end = ((b1 + 1) * bs).min(self.data_len);
        scratch.resize((aligned_end - aligned_start) as usize, 0);
        self.storage
            .read_at(self.data_off + aligned_start, scratch)?;
        for blk in b0..=b1 {
            let lo = (blk * bs - aligned_start) as usize;
            let hi = (((blk + 1) * bs).min(self.data_len) - aligned_start) as usize;
            let stored = self
                .block_crcs
                .get(blk as usize)
                .copied()
                .ok_or_else(|| bad_format(format!("block {blk} beyond the crc table")))?;
            if crc32(&scratch[lo..hi]) != stored {
                return Err(checksum_failure("data", self.data_off + blk * bs));
            }
        }
        let start = (rel - aligned_start) as usize;
        out.copy_from_slice(&scratch[start..start + out.len()]);
        Ok(())
    }

    fn load_section(&self, a: u64, b: u64, buf: &mut SectionBuf) -> Result<(), IndexError> {
        let SectionBuf { run, raw, scratch } = buf;
        let (mut prefixes, mut records) = std::mem::take(run).into_parts();
        self.read_prefixes(a, b, &mut prefixes, raw, scratch)?;
        self.read_records(a, b, &mut records, raw, scratch)?;
        *run = SortedRun::new(prefixes, records);
        Ok(())
    }

    /// Reads the key column of records `a..b` into `prefixes`: an
    /// `S3IDX004` prefix as stored, an older file's 32-byte key truncated
    /// to its prefix.
    fn read_prefixes(
        &self,
        a: u64,
        b: u64,
        prefixes: &mut Vec<u64>,
        raw: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
    ) -> Result<(), IndexError> {
        let n = usize::try_from(b - a)
            .map_err(|_| bad_format("record count exceeds the address space"))?;
        raw.resize(n * self.key_len as usize, 0);
        self.read_verified(a * self.key_len, raw, scratch)?;
        prefixes.clear();
        if self.key_len == PREFIX_LEN {
            prefixes.extend(raw.chunks_exact(PREFIX_LEN as usize).map(le_u64));
        } else {
            let truncate = |key: &[u8]| prefix_of(&self.curve, &read_key(key));
            prefixes.extend(raw.chunks_exact(KEY_LEN as usize).map(truncate));
        }
        Ok(())
    }

    /// Reads records `a..b` into `records` (the key column stays unread),
    /// through the staging buffers `raw` and `scratch`.
    fn read_records(
        &self,
        a: u64,
        b: u64,
        records: &mut RecordBatch,
        raw: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
    ) -> Result<(), IndexError> {
        let n = (b - a) as usize;
        let dims = self.curve.dims();
        let fps_rel = self.n * self.key_len;
        let ids_rel = fps_rel + self.n * dims as u64;
        let tcs_rel = ids_rel + self.n * 4;

        let (fps, ids, tcs) = records.columns_mut(dims);
        fps.resize(n * dims, 0);
        self.read_verified(fps_rel + a * dims as u64, fps, scratch)?;

        raw.resize(n * 4, 0);
        self.read_verified(ids_rel + a * 4, raw, scratch)?;
        ids.clear();
        ids.extend(raw.chunks_exact(4).map(le_u32));

        self.read_verified(tcs_rel + a * 4, raw, scratch)?;
        tcs.clear();
        tcs.extend(raw.chunks_exact(4).map(le_u32));
        Ok(())
    }
}

/// One resident section and the refinement work the batch has in it.
struct SectionJob<'w> {
    section: SectionBuf,
    /// The section's `(query, range)` pairs, grouped by query.
    work: &'w [(u32, u32)],
    /// Each query's run of `work`: the unit a worker claims.
    groups: Vec<(usize, usize)>,
    /// Record index of the section's first record.
    first: usize,
}

/// The distinct queries of a section's work list, which is grouped by query.
fn distinct_queries(work: &[(u32, u32)]) -> impl Iterator<Item = usize> + '_ {
    let mut prev = u32::MAX;
    work.iter().filter_map(move |&(qi, _)| {
        let first = qi != prev;
        prev = qi;
        first.then_some(qi as usize)
    })
}

/// Accounts one skipped section against every query that needed it:
/// `sections_skipped` bumps once per distinct query, plus `cancelled` when
/// the skip came from a stop rather than a fault. (`degraded` is recomputed
/// from both in the epilogue.)
fn mark_section_skipped(scans: &mut [QueryScan], work: &[(u32, u32)], cancelled: bool) {
    for qi in distinct_queries(work) {
        scans[qi].stats.sections_skipped += 1;
        scans[qi].stats.cancelled |= cancelled;
    }
}

/// One memory-resident section of the database.
#[derive(Default)]
struct SectionBuf {
    run: SortedRun,
    /// Reused staging buffer for raw column bytes.
    raw: Vec<u8>,
    /// Reused block-aligned read buffer for CRC verification.
    scratch: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distortion::IsotropicNormal;
    use crate::fingerprint::RecordBatch;
    use crate::index::{QueryResult, Refine};
    use crate::storage::temp::{tmpfile, TempPath};
    use crate::storage::{FaultPlan, FaultyStorage, MemStorage};

    fn synthetic_batch(dims: usize, n: usize, seed: u64) -> RecordBatch {
        let mut batch = RecordBatch::with_capacity(dims, n);
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut fp = vec![0u8; dims];
        for i in 0..n {
            for c in fp.iter_mut() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *c = (s >> 32) as u8;
            }
            batch.push(&fp, (i / 50) as u32, (i % 50) as u32);
        }
        batch
    }

    fn build_pair(n: usize) -> (S3Index, TempPath) {
        let curve = HilbertCurve::new(4, 8).unwrap();
        let idx = S3Index::build(curve, synthetic_batch(4, n, 99));
        let path = tmpfile(&format!("n{n}"));
        DiskIndex::write(&idx, &path).unwrap();
        (idx, path)
    }

    /// Bytes of one record of the 4-dimensional test indexes in `S3IDX004`:
    /// prefix 8, fingerprint 4, id 4, time-code 4.
    const RECORD_BYTES: u64 = 20;

    /// No-sleep retry policy for fault tests.
    fn fast_retry(max_retries: u32, strict: bool) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            backoff: Duration::ZERO,
            strict,
        }
    }

    #[test]
    fn roundtrip_header_and_counts() {
        let (idx, path) = build_pair(500);
        let disk = DiskIndex::open(&path).unwrap();
        assert_eq!(disk.len(), 500);
        assert_eq!(disk.curve(), idx.curve());
        assert!(!idx.curve().is_identity(), "random data ranks its axes");
        assert_eq!(disk.version(), 4);
        disk.verify().unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmpfile("badmagic");
        std::fs::write(&path, b"NOTANIDX0000000000000000000000000").unwrap();
        assert!(matches!(
            DiskIndex::open(&path),
            Err(IndexError::Format { .. })
        ));
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        // The index in place, its `.tmp` sibling gone, and nothing else
        // written beside it.
        let (_idx, path) = build_pair(200);
        assert!(path.exists(), "{:?} missing", &*path);
        for suffix in [".tmp", ".skch"] {
            let mut sibling = path.file_name().unwrap().to_os_string();
            sibling.push(suffix);
            assert!(!path.with_file_name(sibling).exists(), "{suffix}");
        }
    }

    #[test]
    fn v1_files_still_load_and_answer() {
        let curve = HilbertCurve::new(4, 8).unwrap();
        let idx = S3Index::build_on(curve, synthetic_batch(4, 1200, 7));
        let path = tmpfile("v1compat");
        DiskIndex::write_v1(&idx, &path).unwrap();
        let disk = DiskIndex::open(&path).unwrap();
        assert_eq!(disk.version(), 1);
        assert_eq!(disk.len(), 1200);
        let model = IsotropicNormal::new(4, 12.0);
        let opts = StatQueryOpts::new(0.85, 10);
        let q: &[u8] = &[50, 60, 70, 80];
        let batch = disk
            .stat_query_batch(&[q], &model, &opts, u64::MAX)
            .unwrap();
        let mem = idx.stat_query(q, &model, &opts);
        let mut a: Vec<(u32, u32)> = mem.matches.iter().map(|m| (m.id, m.tc)).collect();
        let mut b: Vec<(u32, u32)> = batch.matches[0].iter().map(|m| (m.id, m.tc)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    /// Every field of every match, sorted: what "answers bit-identically"
    /// compares.
    fn exact(matches: &[Match]) -> Vec<(usize, u32, u32, Option<u64>)> {
        let mut v: Vec<_> = matches
            .iter()
            .map(|m| (m.index, m.id, m.tc, m.dist_sq.map(f64::to_bits)))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn v4_round_trip_keeps_the_axis_order() {
        let (idx, path) = build_pair(1500);
        assert!(!idx.curve().is_identity());
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], MAGIC_V4);
        let disk = DiskIndex::open(&path).unwrap();
        assert_eq!((disk.version(), disk.curve()), (4, idx.curve()));
        assert!(disk.sketch().is_none());
        disk.verify().unwrap();
        let model = IsotropicNormal::new(4, 12.0);
        let opts = StatQueryOpts::new(0.85, 9);
        let queries: Vec<&[u8]> = (0..40).map(|i| idx.records().fingerprint(i * 37)).collect();
        let batch = disk
            .stat_query_batch(&queries, &model, &opts, 300 * RECORD_BYTES)
            .unwrap();
        let ranges = disk
            .range_query_batch(&queries, 40.0, 9, u64::MAX, None)
            .unwrap();
        for (qi, q) in queries.iter().enumerate() {
            let mem = idx.stat_query(q, &model, &opts);
            assert_eq!(exact(&batch.matches[qi]), exact(&mem.matches), "stat {qi}");
            let mem = idx.range_query(q, 40.0, 9);
            assert_eq!(
                exact(&ranges.matches[qi]),
                exact(&mem.matches),
                "range {qi}"
            );
        }
        // The order is inside the checksummed meta: a flipped order byte is
        // a header checksum failure, never a file read on the wrong curve.
        let mut bad = bytes.clone();
        bad[HEADER_LEN as usize] ^= 1;
        assert!(matches!(
            DiskIndex::open_storage(Box::new(MemStorage::new(bad))),
            Err(IndexError::Checksum {
                region: "header",
                ..
            })
        ));
    }

    /// One header layout for every curve: the identity order is written as
    /// `S3IDX004` with its axis bytes, like any other.
    #[test]
    fn identity_order_is_written_as_v4() {
        let curve = HilbertCurve::new(4, 8).unwrap();
        let idx = S3Index::build_on(curve.clone(), synthetic_batch(4, 700, 5));
        let bytes = DiskIndex::encode_to_vec(&idx, WriteOpts::default()).unwrap();
        assert_eq!(&bytes[..8], MAGIC_V4);
        let axes = HEADER_LEN as usize..HEADER_LEN as usize + 4;
        assert_eq!(bytes[axes], [0, 1, 2, 3]);
        let disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes))).unwrap();
        assert_eq!((disk.version(), disk.curve()), (4, &curve));
        assert_eq!(disk.record_bytes(), RECORD_BYTES);
    }

    #[test]
    fn formats_without_an_order_refuse_to_store_one() {
        let (idx, _path) = build_pair(300);
        assert!(!idx.curve().is_identity());
        let err = encode_meta(&idx, WriteOpts::default(), true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let path = tmpfile("v1ranked");
        assert!(DiskIndex::write_v1(&idx, &path).is_err());
        assert!(!path.exists(), "a refused write leaves no file");
    }

    /// The records of `tests/data/legacy_v2.s3i`: odd components spread over
    /// the whole byte range, even ones within 32 of the centre.
    fn legacy_v2_records() -> RecordBatch {
        let mut batch = RecordBatch::new(8);
        let mut s = 0x5EED_F00Du64;
        let mut fp = [0u8; 8];
        for i in 0..300u32 {
            for (c, x) in fp.iter_mut().enumerate() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let r = (s >> 32) as u8;
                *x = if c % 2 == 1 { r } else { 112 + r / 8 };
            }
            batch.push(&fp, i / 10, i % 10);
        }
        batch
    }

    /// `tests/data/legacy_v2.s3i` and the `.skch` sketch sidecar beside it
    /// were written by the `S3IDX002` writer before curves carried an axis
    /// order (table depth 6, 256-byte blocks, 8 sketch bits). The file opens
    /// as the identity curve — although the same records would now rank
    /// their axes — and answers exactly as an index built on the identity
    /// curve does. The stray sidecar changes nothing: no sketch attaches.
    #[test]
    fn legacy_v2_file_opens_as_identity_and_ignores_a_stray_sidecar() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/legacy_v2.s3i");
        assert!(path.with_extension("s3i.skch").exists(), "fixture sidecar");
        let disk = DiskIndex::open(&path).unwrap();
        let identity = HilbertCurve::new(8, 8).unwrap();
        assert_eq!((disk.version(), disk.curve()), (2, &identity));
        assert!(disk.sketch().is_none(), "no sketch attaches from a file");
        disk.verify().unwrap();
        let records = legacy_v2_records();
        let ranked = S3Index::build(identity.clone(), records.clone());
        assert!(!ranked.curve().is_identity());
        let mem = S3Index::build_on(identity, records);
        assert_eq!(disk.to_record_batch().unwrap(), *mem.records());

        let model = IsotropicNormal::new(8, 10.0);
        let opts = StatQueryOpts::new(0.9, 10);
        let queries: Vec<&[u8]> = (0..30).map(|i| mem.records().fingerprint(i * 10)).collect();
        let batch = disk
            .stat_query_batch(&queries, &model, &opts, 4096)
            .unwrap();
        let ranges = disk
            .range_query_batch(&queries, 30.0, 10, 4096, None)
            .unwrap();
        for (qi, q) in queries.iter().enumerate() {
            let want = mem.stat_query(q, &model, &opts);
            assert_eq!(exact(&batch.matches[qi]), exact(&want.matches), "stat {qi}");
            assert_eq!(batch.stats[qi].entries_scanned, want.stats.entries_scanned);
            let want = mem.range_query(q, 30.0, 10);
            assert_eq!(
                exact(&ranges.matches[qi]),
                exact(&want.matches),
                "range {qi}"
            );
        }
    }

    /// The records of `tests/data/legacy_v3.s3i`: 400 paper-curve
    /// fingerprints, every third component spread over the byte range and
    /// the others within 32 of the centre, every 25th a copy of the record
    /// 17 before it.
    fn legacy_v3_records() -> RecordBatch {
        let mut batch = RecordBatch::new(20);
        let mut s = 0x0003_5EED_CAFEu64;
        let mut fp = [0u8; 20];
        for i in 0..400u32 {
            if i % 25 == 24 {
                let earlier = batch.fingerprint(i as usize - 17).to_vec();
                batch.push(&earlier, i / 20, i % 20);
                continue;
            }
            for (c, x) in fp.iter_mut().enumerate() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let r = (s >> 32) as u8;
                *x = if c % 3 == 0 { r } else { 96 + r / 4 };
            }
            batch.push(&fp, i / 20, i % 20);
        }
        batch
    }

    /// An EXPLAIN report without what differs between two runs of one
    /// query: its process-unique id and its phase timings.
    fn explain_shape(rep: &ExplainReport) -> String {
        let phases: Vec<_> = rep.phases.iter().map(|p| p.name).collect();
        let rep = ExplainReport {
            query_id: 0,
            phases: Vec::new(),
            ..rep.clone()
        };
        format!("{rep:?} {phases:?}")
    }

    /// `tests/data/legacy_v3.s3i` was written by the `S3IDX003` writer
    /// (32-byte keys; the records of [`legacy_v3_records`] on the paper's
    /// curve, ranked axes, table depth 8, 256-byte blocks). It opens with
    /// its axis order, truncates its keys to prefixes as sections load, and
    /// answers bit-identically to the same index written as `S3IDX004` —
    /// matches, counters and EXPLAIN, for statistical and range batches,
    /// in one section and in many.
    #[test]
    fn legacy_v3_file_answers_as_its_v4_rewrite() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/legacy_v3.s3i");
        let v3 = DiskIndex::open(&path).unwrap().with_threads(2);
        let mem = S3Index::build(HilbertCurve::paper(), legacy_v3_records());
        assert!(!mem.curve().is_identity());
        assert_eq!((v3.version(), v3.curve()), (3, mem.curve()));
        v3.verify().unwrap();
        assert_eq!(v3.to_record_batch().unwrap(), *mem.records());
        let opts = WriteOpts {
            table_depth: 8,
            block_size: 256,
        };
        let bytes = DiskIndex::encode_to_vec(&mem, opts).unwrap();
        let v4 = DiskIndex::open_storage(Box::new(MemStorage::new(bytes)))
            .unwrap()
            .with_threads(2);
        assert_eq!((v4.version(), v4.curve()), (4, mem.curve()));
        assert_eq!(v4.data_bytes() * 60, v3.data_bytes() * 36);
        let (mut p3, mut p4) = (Vec::new(), Vec::new());
        v3.read_prefixes(0, 400, &mut p3, &mut Vec::new(), &mut Vec::new())
            .unwrap();
        v4.read_prefixes(0, 400, &mut p4, &mut Vec::new(), &mut Vec::new())
            .unwrap();
        assert_eq!(
            (&p3, &p4),
            (&mem.prefixes().to_vec(), &mem.prefixes().to_vec())
        );

        let model = IsotropicNormal::new(20, 20.0);
        let queries: Vec<&[u8]> = (0..40).map(|i| mem.records().fingerprint(i * 10)).collect();
        let same = |a: &BatchResult, b: &BatchResult, case: &str| {
            assert_eq!(a.matches, b.matches, "{case}");
            // Through `Debug`, so a geometric filter's NaN mass compares equal.
            let stats = |r: &BatchResult| format!("{:?}", r.stats);
            assert_eq!(stats(a), stats(b), "{case}");
            assert_eq!(a.reports.len(), queries.len(), "{case}");
            for (ra, rb) in a.reports.iter().zip(&b.reports) {
                assert!(ra.reconciles(), "{case}: {}", ra.to_text());
                assert_eq!(explain_shape(ra), explain_shape(rb), "{case}");
            }
        };
        let mut matched = 0;
        // One section, and sections of 64 records: a budget in records, so
        // both files cut the curve at the same slots.
        for per_section in [u64::MAX, 64] {
            let budget = |disk: &DiskIndex| per_section.saturating_mul(disk.record_bytes());
            for depth in [6, 12] {
                let mut opts = StatQueryOpts::new(0.9, depth);
                for refine in [Refine::All, Refine::Range(90.0)] {
                    opts.refine = refine;
                    let case = format!("stat {refine:?} depth {depth} sections of {per_section}");
                    let run = |disk: &DiskIndex| {
                        let ctx = QueryCtx::default().explain();
                        disk.stat_query_batch_ctx(&queries, &model, &opts, budget(disk), &ctx)
                            .unwrap()
                    };
                    let (a, b) = (run(&v3), run(&v4));
                    same(&a, &b, &case);
                    matched += a.matches.iter().map(Vec::len).sum::<usize>();
                    // Both as the in-memory index answers.
                    for (qi, q) in queries.iter().enumerate() {
                        let want = mem.stat_query(q, &model, &opts);
                        assert_eq!(a.matches[qi], want.matches, "{case} q{qi}");
                    }
                }
                let case = format!("range depth {depth} sections of {per_section}");
                let run = |disk: &DiskIndex| {
                    let ctx = QueryCtx::default().explain();
                    disk.range_query_batch(&queries, 90.0, depth, budget(disk), Some(&ctx))
                        .unwrap()
                };
                same(&run(&v3), &run(&v4), &case);
            }
        }
        assert!(matched > 0, "no query matched");
    }

    /// A flipped byte in the prefix column is caught by the block CRC: by
    /// `verify`, and by a strict batch whose section holds it.
    #[test]
    fn prefix_column_flip_fails_verify_and_the_block_crc() {
        let opts = WriteOpts {
            table_depth: 6,
            block_size: 256,
        };
        let (idx, bytes) = mem_index(1000, opts);
        let data_off = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone())))
            .unwrap()
            .data_off;
        let record = 700;
        let at = data_off + record * PREFIX_LEN + 3;
        let mut bad = bytes.clone();
        bad[at as usize] ^= 0x10;
        let disk = DiskIndex::open_storage(Box::new(MemStorage::new(bad)))
            .unwrap()
            .with_retry_policy(fast_retry(1, true));
        let block_start = data_off + (at - data_off) / 256 * 256;
        assert!(matches!(
            disk.verify(),
            Err(IndexError::Checksum { region: "data", offset }) if offset == block_start
        ));
        let model = IsotropicNormal::new(4, 12.0);
        let q = idx.records().fingerprint(record as usize);
        let err = disk
            .stat_query_batch(&[q], &model, &StatQueryOpts::new(0.85, 8), u64::MAX)
            .unwrap_err();
        match err {
            IndexError::SectionLost { source, .. } => {
                assert!(matches!(
                    *source,
                    IndexError::Checksum { region: "data", .. }
                ))
            }
            other => panic!("expected SectionLost, got {other}"),
        }
    }

    #[test]
    fn disk_stat_query_matches_in_memory() {
        let (idx, path) = build_pair(2000);
        let disk = DiskIndex::open(&path).unwrap();
        let model = IsotropicNormal::new(4, 12.0);
        let opts = StatQueryOpts::new(0.85, 10);
        let queries: Vec<Vec<u8>> = vec![
            vec![10, 20, 30, 40],
            vec![200, 100, 50, 25],
            vec![128, 128, 128, 128],
        ];
        let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let batch = disk
            .stat_query_batch(&qrefs, &model, &opts, u64::MAX)
            .unwrap();
        assert!(!batch.timing.degraded);
        assert_eq!(batch.timing.sections_skipped, 0);
        for (qi, q) in queries.iter().enumerate() {
            let mem = idx.stat_query(q, &model, &opts);
            let mut a: Vec<(u32, u32)> = mem.matches.iter().map(|m| (m.id, m.tc)).collect();
            let mut b: Vec<(u32, u32)> = batch.matches[qi].iter().map(|m| (m.id, m.tc)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {qi}");
        }
    }

    #[test]
    fn tight_memory_budget_still_exact() {
        let (idx, path) = build_pair(3000);
        let disk = DiskIndex::open(&path).unwrap();
        // Budget forcing many sections: a few hundred records' worth.
        let budget = 400 * RECORD_BYTES;
        let sections = disk.pack_sections(budget).unwrap().len() - 1;
        assert!(sections > 1, "tight budget must split the curve");
        let model = IsotropicNormal::new(4, 15.0);
        let opts = StatQueryOpts::new(0.9, 8);
        let q: &[u8] = &[66, 77, 88, 99];
        let batch = disk.stat_query_batch(&[q], &model, &opts, budget).unwrap();
        let mem = idx.stat_query(q, &model, &opts);
        let mut a: Vec<(u32, u32)> = mem.matches.iter().map(|m| (m.id, m.tc)).collect();
        let mut b: Vec<(u32, u32)> = batch.matches[0].iter().map(|m| (m.id, m.tc)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(batch.timing.sections_loaded >= 1);
        // Per-section load accounting: one histogram sample per load attempt
        // outcome (loaded or skipped), and quantiles bounded by the total.
        let h = batch.timing.section_load.snapshot();
        assert_eq!(
            h.count as usize,
            batch.timing.sections_loaded + batch.timing.sections_skipped
        );
        assert!(h.p99().unwrap() <= h.max);
        assert!(Duration::from_nanos(h.sum) <= batch.timing.load + Duration::from_micros(10));
    }

    #[test]
    fn range_query_batch_matches_in_memory() {
        let (idx, path) = build_pair(1500);
        let disk = DiskIndex::open(&path).unwrap();
        let q: &[u8] = &[100, 100, 100, 100];
        let eps = 80.0;
        let batch = disk
            .range_query_batch(&[q], eps, 8, 256 * RECORD_BYTES, None)
            .unwrap();
        let mem = idx.range_query(q, eps, 8);
        let mut a: Vec<(u32, u32)> = mem.matches.iter().map(|m| (m.id, m.tc)).collect();
        let mut b: Vec<(u32, u32)> = batch.matches[0].iter().map(|m| (m.id, m.tc)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        for m in &batch.matches[0] {
            assert!(m.dist_sq.unwrap() <= eps * eps);
        }
    }

    #[test]
    fn threaded_refinement_matches_sequential() {
        let (_idx, path) = build_pair(3000);
        let seq = DiskIndex::open(&path).unwrap().with_threads(1);
        let par = DiskIndex::open(&path).unwrap().with_threads(4);
        assert_eq!(par.threads(), 4);
        let model = IsotropicNormal::new(4, 14.0);
        let mut opts = StatQueryOpts::new(0.9, 9);
        opts.refine = Refine::Range(120.0);
        let queries: Vec<Vec<u8>> = (0..11u8)
            .map(|i| vec![i * 23, 255 - i * 9, i * 5, 77])
            .collect();
        let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        // Tight budget: several sections, so the grouped refinement runs
        // repeatedly per batch.
        let a = seq
            .stat_query_batch(&qrefs, &model, &opts, 500 * RECORD_BYTES)
            .unwrap();
        let b = par
            .stat_query_batch(&qrefs, &model, &opts, 500 * RECORD_BYTES)
            .unwrap();
        for qi in 0..queries.len() {
            let am: Vec<(usize, u32, u32)> = a.matches[qi]
                .iter()
                .map(|m| (m.index, m.id, m.tc))
                .collect();
            let bm: Vec<(usize, u32, u32)> = b.matches[qi]
                .iter()
                .map(|m| (m.index, m.id, m.tc))
                .collect();
            assert_eq!(am, bm, "query {qi} match order must be identical");
            assert_eq!(a.stats[qi], b.stats[qi]);
        }
    }

    impl DiskIndex {
        /// The section split before packing, kept as the oracle packed
        /// sections are checked against: the smallest `r ≤ table_depth` whose
        /// fullest of `2^r` regular curve intervals fits `mem_budget`.
        fn pick_sections(&self, mem_budget: u64) -> Option<u32> {
            let rb = self.record_bytes();
            'outer: for r in 0..=self.table_depth {
                let per = 1usize << (self.table_depth - r);
                for s in 0..(1usize << r) {
                    let a = self.table[s * per];
                    let b = self.table[(s + 1) * per];
                    if (b - a) * rb > mem_budget {
                        continue 'outer;
                    }
                }
                return Some(r);
            }
            None
        }

        /// The slot bounds of the oracle's `2^r` regular sections.
        fn power_of_two_bounds(&self, mem_budget: u64) -> Vec<usize> {
            let r = self.pick_sections(mem_budget).unwrap();
            let per = 1usize << (self.table_depth - r);
            (0..=1usize << r).map(|s| s * per).collect()
        }
    }

    /// A corpus whose records crowd a few corners of the space, so the
    /// densest slot is far fuller than the average one.
    fn clustered_batch(n: usize) -> RecordBatch {
        let uniform = synthetic_batch(4, n, 31);
        let mut batch = RecordBatch::with_capacity(4, n);
        for i in 0..n {
            let fp: Vec<u8> = uniform
                .fingerprint(i)
                .iter()
                .map(|&c| if i % 4 == 0 { c } else { 200 + c / 16 })
                .collect();
            batch.push(&fp, uniform.ids()[i], uniform.tcs()[i]);
        }
        batch
    }

    #[test]
    fn pack_sections_invariants() {
        let curve = HilbertCurve::new(4, 8).unwrap();
        for (name, records) in [
            ("uniform", synthetic_batch(4, 3000, 99)),
            ("clustered", clustered_batch(3000)),
        ] {
            let idx = S3Index::build(curve.clone(), records);
            for table_depth in [6, TABLE_DEPTH] {
                let opts = WriteOpts {
                    table_depth,
                    ..WriteOpts::default()
                };
                let bytes = DiskIndex::encode_to_vec(&idx, opts).unwrap();
                let disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes))).unwrap();
                let rb = disk.record_bytes();
                let data = disk.data_bytes();
                let min = disk.min_section_bytes();
                let slots = 1usize << disk.table_depth;
                for budget in [min - 1, min, min + 1, 3 * min, data / 16, data / 3, data] {
                    let case = format!("{name} depth {table_depth} budget {budget}");
                    let bounds = match disk.pack_sections(budget) {
                        Err(IndexError::BudgetTooSmall { .. }) => {
                            assert!(budget < min, "{case}: refused a feasible budget");
                            continue;
                        }
                        other => other.unwrap(),
                    };
                    assert!(budget >= min, "{case}: packed past a slot that cannot fit");
                    assert_eq!((bounds[0], bounds[bounds.len() - 1]), (0, slots), "{case}");
                    assert!(
                        bounds.windows(2).all(|w| w[0] < w[1]),
                        "{case}: not contiguous"
                    );
                    for w in bounds.windows(2) {
                        let (a, b) = disk.section_entries(&(w[0]..w[1]));
                        assert!((b - a) * rb <= budget, "{case}: section over budget");
                    }
                    let sections = bounds.len() as u64 - 1;
                    assert!(
                        sections <= (2 * data.div_ceil(budget)).max(1),
                        "{case}: {sections} sections"
                    );
                }
            }
        }
    }

    /// Packed sections against the `2^r` oracle and against the in-memory
    /// index, for budgets from the smallest possible to the whole file, on
    /// 1, 2 and 4 threads, with and without an attached sketch: matches
    /// identical in the same
    /// order. The counters are identical except the two that count pieces
    /// of the partition: `ranges_scanned` (range-and-section pieces) and
    /// `sketch_skipped` (sections).
    #[test]
    fn packed_sections_answer_as_the_oracle_and_the_index() {
        let curve = HilbertCurve::new(4, 8).unwrap();
        let idx = S3Index::build(curve, clustered_batch(3000));
        let bytes = DiskIndex::encode_to_vec(&idx, WriteOpts::default()).unwrap();
        let file_len = bytes.len() as u64;
        let open = |sketch: bool| {
            let mut disk =
                DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap();
            if sketch {
                let sk = disk.build_sketch(SketchParams::default()).unwrap();
                assert!(disk.attach_sketch(sk));
            }
            disk
        };
        let model = IsotropicNormal::new(4, 12.0);
        let queries: Vec<Vec<u8>> = (0..24)
            .map(|i| idx.records().fingerprint(i * 113).to_vec())
            .chain((0..8u8).map(|i| vec![i * 30, 255 - i * 17, 40 + i, 128]))
            .collect();
        let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let partition_free = |st: &QueryStats| QueryStats {
            ranges_scanned: 0,
            sketch_skipped: 0,
            ..*st
        };
        let mut skips = 0;
        let opts = StatQueryOpts::new(0.9, 10);
        let want: Vec<QueryResult> = qrefs
            .iter()
            .map(|q| idx.stat_query(q, &model, &opts))
            .collect();
        for sketch in [true, false] {
            for budget in [open(false).min_section_bytes(), file_len / 16, file_len] {
                let mut sequential: Option<BatchResult> = None;
                for threads in [1, 2, 4] {
                    let case = format!("sketch {sketch} budget {budget} threads {threads}");
                    let disk = open(sketch).with_threads(threads);
                    let packed = disk
                        .stat_query_batch(&qrefs, &model, &opts, budget)
                        .unwrap();
                    let plan =
                        Plan::stat(&disk.curve, &qrefs, &model, &opts, threads, None).unwrap();
                    let bounds = disk.power_of_two_bounds(budget);
                    let scan = disk.scan_sections(&plan, &bounds, None).unwrap();
                    let oracle = plan.finish(scan, disk.n, None, None);
                    assert!(packed.sections <= oracle.sections, "{case}");
                    for (qi, want) in want.iter().enumerate() {
                        for (got, engine) in [(&packed, "packed"), (&oracle, "2^r")] {
                            assert_eq!(got.matches[qi], want.matches, "{case} {engine} q{qi}");
                            assert_eq!(
                                partition_free(&got.stats[qi]),
                                partition_free(&want.stats),
                                "{case} {engine} q{qi}"
                            );
                        }
                    }
                    skips += packed.timing.sketch_skips + oracle.timing.sketch_skips;
                    if !sketch {
                        assert_eq!(packed.timing.sketch_skips + oracle.timing.sketch_skips, 0);
                    }
                    // Threads never change an answer or a counter.
                    match &sequential {
                        None => sequential = Some(packed),
                        Some(seq) => {
                            assert_eq!(packed.matches, seq.matches, "{case}");
                            assert_eq!(packed.stats, seq.stats, "{case}");
                        }
                    }
                }
            }
        }
        assert!(
            skips > 0,
            "the sketch never skipped: the sketch-on half is vacuous"
        );
    }

    #[test]
    fn budget_too_small_errors() {
        let (_idx, path) = build_pair(4000);
        let disk = DiskIndex::open(&path).unwrap();
        let model = IsotropicNormal::new(4, 10.0);
        let opts = StatQueryOpts::new(0.8, 8);
        let q: &[u8] = &[1, 2, 3, 4];
        // One record's worth of budget cannot hold the densest slot.
        let err = disk.stat_query_batch(&[q], &model, &opts, 8).unwrap_err();
        match err {
            IndexError::BudgetTooSmall {
                budget,
                min_section_bytes,
            } => {
                assert_eq!(budget, 8);
                assert!(min_section_bytes > 8);
                assert_eq!(min_section_bytes, disk.min_section_bytes());
            }
            other => panic!("expected BudgetTooSmall, got {other}"),
        }
    }

    #[test]
    fn query_dims_checked() {
        let (_idx, path) = build_pair(100);
        let disk = DiskIndex::open(&path).unwrap();
        let model = IsotropicNormal::new(4, 10.0);
        let opts = StatQueryOpts::new(0.8, 8);
        let q: &[u8] = &[1, 2, 3]; // stored index has 4 dims
        let err = disk
            .stat_query_batch(&[q], &model, &opts, u64::MAX)
            .unwrap_err();
        assert!(matches!(
            err,
            IndexError::QueryDims {
                expected: 4,
                got: 3
            }
        ));
    }

    #[test]
    fn empty_query_batch() {
        let (_idx, path) = build_pair(100);
        let disk = DiskIndex::open(&path).unwrap();
        let model = IsotropicNormal::new(4, 10.0);
        let opts = StatQueryOpts::new(0.8, 8);
        let batch = disk.stat_query_batch(&[], &model, &opts, u64::MAX).unwrap();
        assert!(batch.matches.is_empty());
        assert_eq!(batch.timing.sections_loaded, 0);
    }

    #[test]
    fn per_query_amortisation() {
        let t = BatchTiming {
            filter: Duration::from_millis(10),
            load: Duration::from_millis(100),
            refine: Duration::from_millis(40),
            sections_loaded: 2,
            ..BatchTiming::default()
        };
        assert_eq!(t.per_query(10), Duration::from_millis(15));
        assert_eq!(t.per_query(0), Duration::ZERO);
    }

    #[test]
    fn suggest_nsig_scales_linearly_with_db() {
        let (_idx, path) = build_pair(1000);
        let disk = DiskIndex::open(&path).unwrap();
        // 20 bytes/record * 1000 records at 20 MB/s = 1 ms of loading;
        // a 0.1 ms budget needs at least 10 queries per batch.
        let n = disk.suggest_nsig(20.0 * 1e6, Duration::from_micros(100));
        assert_eq!(n, 10);
        // Ten times the bandwidth: one query suffices.
        let n = disk.suggest_nsig(20.0 * 1e7, Duration::from_millis(1));
        assert_eq!(n, 1);
    }

    #[test]
    fn data_bytes_reported() {
        let (_idx, path) = build_pair(100);
        let disk = DiskIndex::open(&path).unwrap();
        assert_eq!(disk.data_bytes(), 100 * RECORD_BYTES);
    }

    #[test]
    fn small_block_and_table_options_roundtrip() {
        let curve = HilbertCurve::new(4, 8).unwrap();
        let idx = S3Index::build(curve, synthetic_batch(4, 800, 3));
        let path = tmpfile("smallopts");
        let opts = WriteOpts {
            table_depth: 6,
            block_size: 64,
        };
        DiskIndex::write_with(&idx, &path, opts).unwrap();
        let disk = DiskIndex::open(&path).unwrap();
        disk.verify().unwrap();
        let model = IsotropicNormal::new(4, 12.0);
        let qopts = StatQueryOpts::new(0.85, 8);
        let q: &[u8] = &[120, 30, 99, 200];
        let batch = disk
            .stat_query_batch(&[q], &model, &qopts, 200 * RECORD_BYTES)
            .unwrap();
        let mem = idx.stat_query(q, &model, &qopts);
        let mut a: Vec<(u32, u32)> = mem.matches.iter().map(|m| (m.id, m.tc)).collect();
        let mut b: Vec<(u32, u32)> = batch.matches[0].iter().map(|m| (m.id, m.tc)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    fn mem_index(n: usize, opts: WriteOpts) -> (S3Index, Vec<u8>) {
        let curve = HilbertCurve::new(4, 8).unwrap();
        let idx = S3Index::build(curve, synthetic_batch(4, n, 17));
        let path = tmpfile(&format!("mem{n}_{}", opts.block_size));
        DiskIndex::write_with(&idx, &path, opts).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (idx, bytes)
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let opts = WriteOpts {
            table_depth: 6,
            block_size: 256,
        };
        let (idx, bytes) = mem_index(1000, opts);
        let plan = FaultPlan {
            seed: 11,
            transient_error: 0.2,
            skip_reads: 5, // let open() read header/table/crc cleanly
            ..FaultPlan::default()
        };
        let storage = FaultyStorage::new(MemStorage::new(bytes), plan);
        let disk = DiskIndex::open_storage(Box::new(storage))
            .unwrap()
            .with_retry_policy(fast_retry(8, false));
        let model = IsotropicNormal::new(4, 12.0);
        let qopts = StatQueryOpts::new(0.85, 8);
        let q: &[u8] = &[40, 90, 140, 190];
        let batch = disk
            .stat_query_batch(&[q], &model, &qopts, 100 * RECORD_BYTES)
            .unwrap();
        assert!(!batch.timing.degraded, "retries must absorb transients");
        assert!(batch.timing.retries > 0, "fault schedule never fired");
        let mem = idx.stat_query(q, &model, &qopts);
        let mut a: Vec<(u32, u32)> = mem.matches.iter().map(|m| (m.id, m.tc)).collect();
        let mut b: Vec<(u32, u32)> = batch.matches[0].iter().map(|m| (m.id, m.tc)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "degradation-free batch must stay exact");
    }

    #[test]
    fn bit_flips_detected_and_retried() {
        let opts = WriteOpts {
            table_depth: 6,
            block_size: 256,
        };
        let (idx, bytes) = mem_index(1000, opts);
        let plan = FaultPlan {
            seed: 23,
            bit_flip: 0.5,
            skip_reads: 5, // let open() read header/table/crc cleanly
            ..FaultPlan::default()
        };
        let storage = FaultyStorage::new(MemStorage::new(bytes), plan);
        let disk = DiskIndex::open_storage(Box::new(storage))
            .unwrap()
            .with_retry_policy(fast_retry(10, false));
        let model = IsotropicNormal::new(4, 12.0);
        let qopts = StatQueryOpts::new(0.85, 8);
        let q: &[u8] = &[40, 90, 140, 190];
        let batch = disk
            .stat_query_batch(&[q], &model, &qopts, 100 * RECORD_BYTES)
            .unwrap();
        // The CRC layer must catch every flip: results are either exact or
        // (if a section exhausted its retries) explicitly degraded — never
        // silently wrong.
        if !batch.timing.degraded {
            let mem = idx.stat_query(q, &model, &qopts);
            let mut a: Vec<(u32, u32)> = mem.matches.iter().map(|m| (m.id, m.tc)).collect();
            let mut b: Vec<(u32, u32)> = batch.matches[0].iter().map(|m| (m.id, m.tc)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    /// Dead-range setup shared by the degrade and strict tests: kills the
    /// prefix column of records [1400, 1500), so exactly the sections holding
    /// those records become unreadable, and builds queries that provably
    /// touch them (stored fingerprints of dead-zone records) next to
    /// queries of far-away records.
    fn dead_zone_setup(opts: WriteOpts) -> (S3Index, Vec<u8>, FaultPlan, Vec<Vec<u8>>) {
        let (idx, bytes) = mem_index(2000, opts);
        let data_off = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone())))
            .unwrap()
            .data_off;
        let plan = FaultPlan {
            dead_range: Some(data_off + 1400 * PREFIX_LEN..data_off + 1500 * PREFIX_LEN),
            ..FaultPlan::default()
        };
        let mut queries: Vec<Vec<u8>> = Vec::new();
        for i in (1400..1500).step_by(20) {
            queries.push(idx.records().fingerprint(i).to_vec());
        }
        for i in (100..200).step_by(20) {
            queries.push(idx.records().fingerprint(i).to_vec());
        }
        (idx, bytes, plan, queries)
    }

    #[test]
    fn dead_section_degrades_with_accounting() {
        let opts = WriteOpts {
            table_depth: 4,
            block_size: 128,
        };
        let (idx, bytes, plan, queries) = dead_zone_setup(opts);
        let storage = FaultyStorage::new(MemStorage::new(bytes), plan);
        let disk = DiskIndex::open_storage(Box::new(storage))
            .unwrap()
            .with_retry_policy(fast_retry(2, false));
        let model = IsotropicNormal::new(4, 15.0);
        let qopts = StatQueryOpts::new(0.95, 6);
        let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let batch = disk
            .stat_query_batch(&qrefs, &model, &qopts, 200 * RECORD_BYTES)
            .unwrap();
        assert!(batch.timing.degraded, "dead range must degrade the batch");
        assert!(batch.timing.sections_skipped >= 1);
        let degraded_queries = batch.stats.iter().filter(|s| s.degraded).count();
        assert!(degraded_queries >= 1, "some query must be marked degraded");
        let skipped_total: usize = batch.stats.iter().map(|s| s.sections_skipped).sum();
        assert!(skipped_total >= batch.timing.sections_skipped);

        // Surviving sections still answer exactly: every returned match must
        // also be an in-memory match, and non-degraded queries are complete.
        for (qi, q) in qrefs.iter().enumerate() {
            let mem = idx.stat_query(q, &model, &qopts);
            let mut full: Vec<(u32, u32)> = mem.matches.iter().map(|m| (m.id, m.tc)).collect();
            let mut got: Vec<(u32, u32)> = batch.matches[qi].iter().map(|m| (m.id, m.tc)).collect();
            full.sort_unstable();
            got.sort_unstable();
            if batch.stats[qi].degraded {
                for pair in &got {
                    assert!(full.binary_search(pair).is_ok(), "phantom match {pair:?}");
                }
            } else {
                assert_eq!(got, full, "untouched query {qi} must stay complete");
            }
        }
    }

    #[test]
    fn strict_mode_turns_degradation_into_error() {
        let opts = WriteOpts {
            table_depth: 4,
            block_size: 128,
        };
        let (_idx, bytes, plan, queries) = dead_zone_setup(opts);
        let storage = FaultyStorage::new(MemStorage::new(bytes), plan);
        let disk = DiskIndex::open_storage(Box::new(storage))
            .unwrap()
            .with_retry_policy(fast_retry(2, true));
        let model = IsotropicNormal::new(4, 15.0);
        let qopts = StatQueryOpts::new(0.95, 6);
        let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let err = disk
            .stat_query_batch(&qrefs, &model, &qopts, 200 * RECORD_BYTES)
            .unwrap_err();
        match err {
            IndexError::SectionLost { retries, .. } => assert_eq!(retries, 2),
            other => panic!("expected SectionLost, got {other}"),
        }
    }

    #[test]
    fn verify_finds_corrupt_block() {
        let opts = WriteOpts {
            table_depth: 6,
            block_size: 256,
        };
        let (_idx, mut bytes) = mem_index(500, opts);
        let disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap();
        disk.verify().unwrap();
        // Corrupt one data byte (past header+table+crc, before crc table).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes))).unwrap();
        assert!(matches!(
            disk.verify(),
            Err(IndexError::Checksum { region: "data", .. })
        ));
    }
}
